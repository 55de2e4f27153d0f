"""Command-line interface.

Subcommands: group-info, capacity, rd, theta-table, verify-ensemble,
simulate.  Exit codes: 0 success, 2 input validation, 3 solver failure,
4 ensemble-law verification failure.  All stdout output is deterministic for
fixed inputs and seeds; wall-clock timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
import time

# the CLI loads numpy first, so its OpenBLAS starts one thread, not a pool that
# nothing here uses (every matmul is on integer or bool arrays); a caller's
# value wins
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .groups import _check_count, _check_seed, _past_cap, decompose
from .measures import ValidationError
from .problems import (
    ChannelProblem,
    SourceProblem,
    fmt_number,
    load_problem,
    parse_group_string,
    rate_record,
    record_to_json,
    record_to_text,
    theta_csv_rows,
)
from .rates import (
    COVERING_CAP,
    SolverError,
    WeightVector,
    channel_coding_rate,
    channel_rate_prime_power,
    channel_terms,
    enumerate_theta_set,
    grid_search,
    grid_size,
    omega,
    source_coding_rate,
    source_rate_prime_power,
    source_terms,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4


def _parse_support(text: str) -> tuple[tuple[int, int], ...]:
    """Semicolon-separated q,s pairs: "2,2;2,3"."""
    slots = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        bits = part.split(",")
        if len(bits) != 2:
            raise ValidationError(f"bad support slot {part!r}: expected q,s")
        try:
            q, s = int(bits[0]), int(bits[1])
        except ValueError as exc:
            raise ValidationError(f"bad support slot {part!r}: {exc}") from None
        if (q, s) in slots:
            raise ValidationError(f"support slot ({q},{s}) is repeated")
        slots.append((q, s))
    if not slots:
        raise ValidationError(f"no slots in support {text!r}")
    return tuple(slots)


def _parse_list(text: str, count: int, what: str, parse) -> tuple:
    """``count`` comma-separated values, each read by ``parse``."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if len(parts) != count:
        raise ValidationError(f"expected {count} {what}, got {len(parts)}")
    try:
        return tuple(parse(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad {what} {text!r}: {exc}") from None


def _input_group(args, spec):
    """The --counts input group over spec, once --n and --trials check out."""
    from .ensemble import InputGroup

    counts = _parse_list(args.counts, len(spec.weight_slots), "counts", int)
    _check_count("--n", args.n)
    _check_count("--trials", args.trials)
    return InputGroup(spec, counts)


def _check_csv(path: str) -> None:
    """Refuse before any solve what the write would, with its message: the empty
    path, an existing path that does not open for writing (untruncated), or a
    new one without its directory."""
    try:
        directory = os.path.dirname(path) or "."
        if not path or os.path.exists(path) or not os.path.isdir(directory):
            os.close(os.open(path, os.O_WRONLY))
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None


def _write_csv(path: str, rows: list[list[str]]) -> None:
    import csv

    try:
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None


def _emit(args, doc: dict, text: str) -> None:
    """A subcommand's result on stdout: doc as JSON with --json, else text."""
    sys.stdout.write(record_to_json(doc) if args.json else text)


def cmd_group_info(args) -> int:
    dec = decompose(parse_group_string(args.group))
    spec = dec.spec
    info = {
        "group": list(dec.orders),
        "order": spec.order,
        "rings": [list(t) for t in spec.rings],
        "primes": list(spec.primes),
        "max_exponents": {str(p): spec.max_exponent(p) for p in spec.primes},
        "weight_slots": [list(s) for s in spec.weight_slots],
        "ring_levels": [list(s) for s in spec.ring_levels],
    }
    lines = [
        f"group: {','.join(str(n) for n in dec.orders)}",
        f"order: {spec.order}",
        "canonical rings: " + " ".join(f"({p},{r},{m})" for p, r, m in spec.rings),
        "primes: " + " ".join(str(p) for p in spec.primes),
        "max exponents: "
        + " ".join(f"r_{p}={spec.max_exponent(p)}" for p in spec.primes),
        "weight slots S: " + " ".join(f"({q},{s})" for q, s in spec.weight_slots),
        "ring levels Q: " + " ".join(f"({p},{r})" for p, r in spec.ring_levels),
    ]
    if spec.order <= 64:
        info["element_order"] = [
            list(dec.from_canonical(x)) for x in spec.elements()
        ]
        shown = " ".join(
            "(" + ",".join(str(v) for v in tup) + ")" for tup in info["element_order"]
        )
        lines.append("canonical element order (as cyclic coordinates): " + shown)
    _emit(args, info, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_rate(args, sense: str) -> int:
    """capacity (sense "channel") or rd (sense "source") of a problem file."""
    problem = load_problem(args.file)
    if sense == "channel" and isinstance(problem, ChannelProblem):
        data, kind = problem.channel, "capacity"
        rate_of, terms_of = channel_coding_rate, channel_terms
        closed_form = channel_rate_prime_power
    elif sense == "source" and isinstance(problem, SourceProblem):
        data, kind = problem.joint, "rd"
        rate_of, terms_of = source_coding_rate, source_terms
        closed_form = source_rate_prime_power
    else:
        raise ValidationError(f"{args.file} is not a {sense} problem")
    if args.grid_check is not None:
        _check_count("--grid-check", args.grid_check)
    if args.csv is not None:
        _check_csv(args.csv)
    start = time.perf_counter()
    if args.grid_check:
        # the oracle first, so that its step rule and its cap refuse before
        # the rate call
        points, supports = grid_size(data.group, args.grid_check)
        _past_cap(points, COVERING_CAP, "COVERING_CAP", "grid", "points")
        print(f"grid oracle: {points} points on {supports} supports", file=sys.stderr)
        grid_value, _ = grid_search(
            data.group, terms_of(data), sense, steps=args.grid_check
        )
    result = rate_of(data)
    extras: dict = {}
    if args.closed_form:
        closed = closed_form(data)
        if abs(closed - result.value) > 1e-9:
            raise SolverError(
                f"closed form {closed:.9f} disagrees with solver {result.value:.9f}"
            )
        extras["closed_form"] = closed
    if args.grid_check:
        extras["grid_value"] = grid_value
        extras["grid_gap"] = abs(grid_value - result.value)
    elapsed = time.perf_counter() - start
    record_in = functools.partial(
        rate_record, [kind, args.file], problem.orders, kind, result, extras=extras
    )
    if args.csv is not None:
        # the CSV columns are info_bits and ratio_bits, with or without --nats
        levels = list(problem.decomposition.spec.ring_levels)
        terms = record_in(units="bits")["per_theta"]
        _write_csv(args.csv, theta_csv_rows(terms, levels))
    record = record_in(units="nats" if args.nats else "bits")
    _emit(args, record, record_to_text(record))
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK


def cmd_theta_table(args) -> int:
    from fractions import Fraction

    dec = decompose(parse_group_string(args.group))
    spec = dec.spec
    support = _parse_support(args.support)
    thetas = sorted(enumerate_theta_set(spec, support), key=lambda t: t.components)
    if args.weights:
        values = _parse_list(args.weights, len(support), "weights", Fraction)
        if sum(values) != 1:
            raise ValidationError(f"weights sum to {sum(values)}, not 1")
    else:
        values = tuple(Fraction(1, len(support)) for _ in support)
    weights = WeightVector.from_mapping(spec, dict(zip(support, values)))
    rows = [
        {"theta": list(t.components), "omega": float(omega(spec, weights, t))}
        for t in thetas
    ]
    if args.csv is not None:
        _write_csv(args.csv, theta_csv_rows(rows, spec.ring_levels))
    doc = {
        "group": list(dec.orders),
        "support": [list(s) for s in support],
        "weights": [float(v) for v in values],
        "rows": rows,
    }
    lines = [
        f"group: {','.join(str(n) for n in dec.orders)}",
        "support: " + " ".join(f"({q},{s})" for q, s in support),
        "weights: " + " ".join(fmt_number(v) for v in values),
    ]
    for row in rows:
        theta = "(" + ",".join(str(c) for c in row["theta"]) + ")"
        lines.append(f"  theta={theta} omega={fmt_number(row['omega'])}")
    _emit(args, doc, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify_ensemble(args) -> int:
    from .ensemble import lemma_suite

    dec = decompose(parse_group_string(args.group))
    ig = _input_group(args, dec.spec)
    checks = lemma_suite(ig, args.n, samples=args.trials, seed=args.seed)
    doc = {
        "group": list(dec.orders),
        "counts": list(ig.counts),
        "blocklength": args.n,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
        ],
        "passed": all(c.passed for c in checks),
    }
    text = "".join(
        f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}\n" for c in checks
    )
    _emit(args, doc, text)
    failed = [c.name for c in checks if not c.passed]
    if failed:
        print("violated: " + ", ".join(failed), file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .ensemble import mc_channel_error

    problem = load_problem(args.file)
    if not isinstance(problem, ChannelProblem):
        raise ValidationError(f"{args.file} is not a channel problem")
    ig = _input_group(args, problem.decomposition.spec)
    report = mc_channel_error(ig, args.n, problem.channel, args.trials, args.seed)
    doc = {
        "group": list(problem.orders),
        "counts": list(ig.counts),
        "blocklength": args.n,
        "trials": report.trials,
        "errors": report.errors,
        "error_rate": report.error_rate,
        "code_rate_bits": report.code_rate_bits,
        "seed": report.seed,
    }
    text = (
        f"code rate: {report.code_rate_bits:.9f} bits\n"
        f"trials: {report.trials}\n"
        f"errors: {report.errors}\n"
        f"error rate: {report.error_rate:.9f}\n"
    )
    _emit(args, doc, text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupcodes",
        description="Achievable rates and ensemble checks for Abelian group codes.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON on stdout")
    common.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "group-info", parents=[common], help="canonical decomposition of a group"
    )
    p.add_argument("group", help='comma-separated cyclic orders, e.g. "4,3,9,9"')
    p.set_defaults(func=cmd_group_info)

    for name, sense, blurb in (
        ("capacity", "channel", "channel-coding group rate of a channel file"),
        ("rd", "source", "source-coding group rate of a source file"),
    ):
        p = sub.add_parser(name, parents=[common], help=blurb)
        p.add_argument("file", help="problem file (JSON)")
        p.add_argument(
            "--closed-form",
            action="store_true",
            help="cross-check with the single-ring closed form",
        )
        p.add_argument(
            "--grid-check",
            type=int,
            metavar="STEPS",
            help="cross-check against the simplex grid oracle",
        )
        p.add_argument("--csv", metavar="PATH", help="write the per-theta table as CSV")
        p.add_argument("--nats", action="store_true", help="report rates in nats")
        p.set_defaults(func=functools.partial(_cmd_rate, sense=sense))

    p = sub.add_parser(
        "theta-table", parents=[common], help="selectors and omega for a support"
    )
    p.add_argument("group")
    p.add_argument("--support", required=True, help='q,s pairs: "2,2;2,3"')
    p.add_argument("--weights", help='weights on the support slots: "1/2,1/2"')
    p.add_argument("--csv", metavar="PATH")
    p.set_defaults(func=cmd_theta_table)

    p = sub.add_parser(
        "verify-ensemble", parents=[common], help="run the ensemble lemma suite"
    )
    p.add_argument("group")
    p.add_argument(
        "--counts", required=True, help="component counts per weight slot: \"0,1\""
    )
    p.add_argument("--n", type=int, default=1, help="blocklength")
    p.add_argument("--trials", type=int, default=200, help="sample size for checks")
    p.set_defaults(func=cmd_verify_ensemble)

    p = sub.add_parser(
        "simulate", parents=[common], help="Monte Carlo block-error simulation"
    )
    p.add_argument("file", help="channel problem file (JSON)")
    p.add_argument("--counts", required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--trials", type=int, default=500)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_seed("--seed", args.seed)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def run(argv=None) -> int:
    """The process entry: main's exit code, after moving every tracked object
    into the collector's permanent generation, so that the interpreter's final
    collections at exit skip the heap that numpy and groupcodes leave.  Only
    cyclic garbage goes unfreed, and the OS reclaims it with the process;
    in-process callers use main, whose heap the collector still frees."""
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
