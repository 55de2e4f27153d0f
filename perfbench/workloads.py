"""Seeded inputs, timed operations and output checks of the benchmark workloads.

A workload is a list of ``Op``.  ``Op.run(trace)`` makes the library calls
that are timed; ``Op.check(output)`` returns the problems found in that output
and runs outside the timed interval.  With tracing on, ``run`` times each call
into a layer separately and counts the work done there.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Any, Callable

import numpy as np

from groupcodes import (
    ChannelSpec,
    SourceJoint,
    channel_coding_rate,
    channel_rate_prime_power,
    coset_mi_channel,
    coset_mi_source,
    decompose,
    enumerate_theta_set,
    grid_search,
    omega,
    optimize_weights,
    source_rate_prime_power,
)
from groupcodes.ensemble import (
    InputGroup,
    mc_channel_error,
    solve_congruence,
    t_theta_bound,
    theta_census,
    verify_pairwise_law,
)
from groupcodes.problems import load_problem, rate_record, record_to_json
from groupcodes.rates import all_reachable_thetas, channel_terms, source_terms

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())

# channel-sweep: (cyclic orders, channels per group), about 8 s of work, so a
# run repeats it and times each instance by its best pass.  One Z32 channel
# only: its optimiser time varies most from channel to channel.
CHANNEL_SWEEP = (
    ((8,), 4),
    ((16,), 2),
    ((32,), 1),
    ((2, 4), 4),
    ((2, 8), 3),
    ((4, 3), 3),
    ((8, 3), 2),
    ((4, 9), 1),
)
CHANNEL_SWEEP_TINY = (((8,), 1), ((2, 4), 1))

# cli-wide: wide and high-order source groups for `rd`, small channel groups
# for `capacity`.
CLI_RD = (
    (64, 9),
    (32, 27),
    (16, 81),
    (32, 9),
    (4, 4, 8, 9, 9),
    (8, 8, 8, 27),
    (2, 4, 8, 3, 9),
)
CLI_CAPACITY = ((4, 3), (2, 8), (16,))
CLI_RD_TINY = ((2, 4, 3),)
CLI_CAPACITY_TINY = ((4,),)

# ensemble-laws: the acceptance-criterion-5 families, pairs drawn per
# (family, blocklength, generator slot).
FAMILIES = ((2,), (3,), (4,), (8,), (9,), (2, 2), (2, 4), (4, 3))
FAMILIES_TINY = ((2,), (4,))
PAIRS_PER_CONFIG = 2
# (orders, counts, blocklength): generator spaces above EXHAUSTIVE_CAP, so the
# pairwise law is sampled.  Each pair differs by a unit in its last component,
# so its selector is zero and the support is the largest.  The first then has
# 65536 support cells: its threshold 3*sqrt(cells/samples) is 12 and the check
# is vacuous.
SAMPLED = (((4,), (1, 1), 4), ((2,), (8,), 3))
SAMPLES = 4096
SAMPLES_TINY = 256
CONGRUENCE_LEVELS = tuple((p, r) for p in (2, 3) for r in (1, 2, 3))
CONGRUENCE_LEVELS_TINY = ((2, 1), (2, 2))
MC_TRIALS = 600
MC_TRIALS_TINY = 20

GRID_POINTS = 2000  # the oracle's coarse simplex grid has at most this many points
# The oracle needs every coset term, so a cold selector enumeration: above this
# many covering supports (the three widest cli-wide groups) it would double the
# run's time, and those rates rely on the other checks.
GRID_MAX_SUPPORTS = 100
RATE_TOL = 1e-9
CLOSED_FORM_TOL = 1e-8
CLI_TIMEOUT_S = 150


def additive_noise(order: int, p_zero: float) -> list[list[float]]:
    """Y = X + Z over Z_order, Z = 0 with probability p_zero, else uniform."""
    rest = (1.0 - p_zero) / (order - 1)
    return [
        [p_zero if (y - x) % order == 0 else rest for y in range(order)]
        for x in range(order)
    ]


# (orders, counts, blocklength, channel matrix); the reference error rates in
# reference.json were measured on 20000 trials each.
MONTE_CARLO = (
    ((2,), (5,), 4, additive_noise(2, 0.9)),
    ((4,), (0, 2), 3, additive_noise(4, 0.7)),
    ((3,), (2,), 3, additive_noise(3, 0.7)),
)


class Trace:
    """Busy seconds and work counts per layer, summed over the calls timed
    here.  Disabled, it makes the calls and records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.busy: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def call(self, layer: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.busy[layer] += time.perf_counter() - start

    def count(self, name: str, amount: int) -> None:
        if self.enabled:
            self.counts[name] += amount

    def merge(self, busy: dict, counts: dict) -> None:
        for k, v in busy.items():
            self.busy[k] += v
        for k, v in counts.items():
            self.counts[k] += v


@dataclass
class Op:
    name: str
    kind: str
    run: Callable[[Trace], Any]
    check: Callable[[Any], list[str]]


@dataclass
class Workload:
    ops: list[Op]
    # cli-wide only: the same instances run by the child (cli_child.py), with
    # its spans on or off
    child_ops: Callable[[bool], list[Op]] | None = None
    # cli-wide only: one CLI process run in each set-up, so .pyc files exist
    # before timing
    warmup: Callable[[], Any] | None = None


def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = sum(workload.encode())
    return np.random.Generator(np.random.PCG64([seed, tag]))


def _label(orders) -> str:
    return "Z" + "+Z".join(str(n) for n in orders)


def covering_supports(spec) -> int:
    """Number of support patterns the optimiser visits: prod_q (2^r_q - 1)."""
    return math.prod(2 ** spec.max_exponent(q) - 1 for q in spec.primes)


# -- the rate pipeline ---------------------------------------------------------


def traced_rate(trace: Trace, problem, sense: str):
    """The calls channel_coding_rate / source_coding_rate make, each timed:
    selector enumeration first, so it fills the selector cache."""
    spec = problem.group
    thetas = trace.call("rates.theta_enum", all_reachable_thetas, spec)
    terms_of = channel_terms if sense == "channel" else source_terms
    terms = trace.call("measures.terms", terms_of, problem)
    result = trace.call("rates.optimize", optimize_weights, spec, terms, sense)
    supports = covering_supports(spec)
    trace.count("rates.theta_enum.selectors", len(thetas))
    trace.count("rates.theta_enum.supports", supports)
    trace.count("measures.terms.selectors", len(terms))
    trace.count("measures.terms.element_visits", spec.order * len(terms))
    trace.count("rates.optimize.supports", supports)
    return result


def inner_optimum(problem, sense: str, support, weights) -> float:
    """The inner max (source) or min (channel) at a weight vector, from the
    public omega and the coset terms, with the 0/0 -> 0 term convention."""
    spec = problem.group
    ratios = []
    for theta in enumerate_theta_set(spec, support):
        if theta.is_zero() if sense == "source" else theta.is_full():
            continue
        w = float(omega(spec, weights, theta))
        if sense == "source":
            info, frac = coset_mi_source(problem, theta), w
        else:
            info, frac = coset_mi_channel(problem, theta), 1.0 - w
        if frac <= 0:
            ratios.append(0.0 if info <= 1e-12 else math.inf)
        else:
            ratios.append(info / frac)
    return max(ratios) if sense == "source" else min(ratios)


def grid_steps(slots: int) -> int:
    """The finest grid over the weight simplex with at most GRID_POINTS points."""
    steps = 1
    while steps < 200 and math.comb(steps + slots, slots - 1) <= GRID_POINTS:
        steps += 1
    return steps


def rate_checker(problem, sense: str, reference: float | None):
    """Checks of a reported rate against the independent routes."""
    spec = problem.group

    @cache
    def oracles() -> tuple[float | None, float | None]:
        closed = grid = None
        if len(spec.rings) == 1:
            if sense == "channel":
                closed = channel_rate_prime_power(problem)
            else:
                closed = source_rate_prime_power(problem)
        if covering_supports(spec) <= GRID_MAX_SUPPORTS:
            terms_of = channel_terms if sense == "channel" else source_terms
            terms = terms_of(problem)
            steps = grid_steps(len(spec.weight_slots))
            grid, _ = grid_search(spec, terms, sense, steps=steps)
        return closed, grid

    def check(value: float, support, weights) -> list[str]:
        bad = []
        if reference is not None and abs(value - reference) > RATE_TOL:
            bad.append(f"rate {value!r} differs from the recorded {reference!r}")
        closed, grid = oracles()
        if closed is not None and abs(value - closed) > CLOSED_FORM_TOL:
            bad.append(f"rate {value!r} differs from the closed form {closed!r}")
        inner = inner_optimum(problem, sense, support, weights)
        if abs(inner - value) > RATE_TOL * (1.0 + abs(value)):
            bad.append(f"rate {value!r} is not the witness's inner optimum {inner!r}")
        if grid is not None:
            if sense == "channel" and value < grid - RATE_TOL:
                bad.append(f"channel rate {value!r} below the grid oracle {grid!r}")
            if sense == "source" and value > grid + RATE_TOL:
                bad.append(f"source rate {value!r} above the grid oracle {grid!r}")
        return bad

    return check


def _references(workload: str, seed: int, tiny: bool, count: int) -> list[float | None]:
    if tiny or seed != REFERENCE["seed"]:
        return [None] * count
    values = REFERENCE[workload]["rates"]
    if len(values) != count:
        raise RuntimeError(f"{workload}: {count} instances, {len(values)} references")
    return values


def random_channel(spec, rng: np.random.Generator) -> ChannelSpec:
    ny = int(rng.integers(3, 7))
    return ChannelSpec(spec, rng.dirichlet(np.ones(ny), size=spec.order))


def random_source(spec, rng: np.random.Generator) -> SourceJoint:
    nx = int(rng.integers(3, 7))
    # columns are conditional pmfs scaled by 1/|G|: uniform reconstruction marginal
    return SourceJoint(spec, rng.dirichlet(np.ones(nx), size=spec.order).T / spec.order)


# -- channel-sweep -------------------------------------------------------------


def channel_sweep(seed: int, workdir: Path, tiny: bool) -> Workload:
    rng = _rng(seed, "channel-sweep")
    instances = []
    for orders, count in CHANNEL_SWEEP_TINY if tiny else CHANNEL_SWEEP:
        spec = decompose(orders).spec
        for i in range(count):
            instances.append((f"{_label(orders)} #{i}", random_channel(spec, rng)))
    references = _references("channel-sweep", seed, tiny, len(instances))
    pairs = zip(instances, references)
    return Workload([_channel_op(name, chan, ref) for (name, chan), ref in pairs])


def _channel_op(name: str, chan: ChannelSpec, reference: float | None) -> Op:
    checker = rate_checker(chan, "channel", reference)

    def run(trace: Trace):
        if not trace.enabled:
            return channel_coding_rate(chan)
        return traced_rate(trace, chan, "channel")

    def check(result) -> list[str]:
        return checker(result.value, result.support, result.weights.as_mapping())

    return Op(name, "channel", run, check)


# -- cli-wide ------------------------------------------------------------------


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(argv: list[str]) -> subprocess.CompletedProcess:
    """One child process at a time, from the checkout root; waits for it."""
    return subprocess.run(
        argv, cwd=ROOT, env=_cli_env(), capture_output=True, timeout=CLI_TIMEOUT_S
    )


def cli_argv(kind: str, path: str) -> list[str]:
    return [sys.executable, "-m", "groupcodes.cli", kind, path, "--json"]


def cli_wide(seed: int, workdir: Path, tiny: bool) -> Workload:
    rng = _rng(seed, "cli-wide")
    instances = []
    if tiny:
        rd_groups, cap_groups = CLI_RD_TINY, CLI_CAPACITY_TINY
    else:
        rd_groups, cap_groups = CLI_RD, CLI_CAPACITY
    for kind, groups in (("rd", rd_groups), ("capacity", cap_groups)):
        for orders in groups:
            spec = decompose(orders).spec
            doc = {"group": list(orders)}
            if kind == "rd":
                problem = random_source(spec, rng)
                doc.update(kind="source", joint=problem.joint.tolist())
            else:
                problem = random_channel(spec, rng)
                doc.update(kind="channel", matrix=problem.matrix.tolist())
            path = workdir / f"{kind}-{'x'.join(map(str, orders))}.json"
            path.write_text(json.dumps(doc))
            instances.append((kind, orders, problem, path.relative_to(ROOT).as_posix()))
    references = _references("cli-wide", seed, tiny, len(instances))
    first_stdout: dict[str, bytes] = {}
    ops = []
    for (kind, orders, problem, path), ref in zip(instances, references):
        name = f"{kind} {_label(orders)}"
        sense = "channel" if kind == "capacity" else "source"
        ops.append(_cli_op(name, kind, path, problem, sense, ref, first_stdout))

    def child_ops(traced: bool) -> list[Op]:
        return [
            _cli_child_op(f"{kind} {_label(orders)}", kind, path, first_stdout, traced)
            for kind, orders, _, path in instances
        ]

    # the warm-up runs the first capacity instance, one of the quickest
    kind, _, _, path = instances[len(rd_groups)]
    return Workload(ops, child_ops, lambda: run_process(cli_argv(kind, path)))


def _cli_op(name, kind, path, problem, sense, reference, first_stdout) -> Op:
    checker = rate_checker(problem, sense, reference)

    def run(trace: Trace):
        proc = run_process(cli_argv(kind, path))
        return proc.returncode, proc.stdout

    @cache
    def check_record(stdout: bytes) -> list[str]:
        record = json.loads(stdout)
        if record["value"] == "inf":
            return ["rate is infinite"]
        weights = {(q, s): w for q, s, w in record["weights"]}
        support = tuple(tuple(slot) for slot in record["support"])
        return checker(record["value"], support, weights)

    def check(output) -> list[str]:
        code, stdout = output
        if code != 0:
            return [f"exit code {code}"]
        if first_stdout.setdefault(name, stdout) != stdout:
            return ["stdout differs from the first run of the same input"]
        # every pass must print the same bytes, so their rate is checked once
        return check_record(stdout)

    return Op(name, kind, run, check)


def _cli_child_op(name, kind, path, first_stdout, traced: bool) -> Op:
    argv = [sys.executable, str(Path(__file__).resolve().parent / "cli_child.py")]
    argv += [kind, path] + ([] if traced else ["--untraced"])

    def run(trace: Trace):
        proc = run_process(argv)
        if proc.returncode != 0:
            return None
        doc = json.loads(proc.stdout)
        trace.merge(doc["busy"], doc["counts"])
        return doc["stdout"].encode()

    def check(stdout) -> list[str]:
        if stdout is None:
            return ["child failed"]
        if stdout != first_stdout.get(name):
            return ["child output differs from the CLI stdout"]
        return []

    return Op(name, kind, run, check)


def cli_emit(kind: str, path: str, problem, result) -> str:
    """The bytes `groupcodes rd|capacity FILE --json` writes to stdout."""
    record = rate_record(
        command=[kind, path],
        orders=problem.orders,
        kind=kind,
        result=result,
        units="bits",
        extras={},
    )
    return record_to_json(record)


def traced_cli(kind: str, path: str, trace: Trace) -> str:
    """cmd_rd / cmd_capacity with each layer timed: load, rate, emit."""
    problem = trace.call("problems.load", load_problem, path)
    sense = "channel" if kind == "capacity" else "source"
    inputs = problem.channel if sense == "channel" else problem.joint
    result = traced_rate(trace, inputs, sense)
    return trace.call("problems.emit", cli_emit, kind, path, problem, result)


def cli_startup_s(repeats: int = 3) -> float:
    """Median wall time of a bare `import groupcodes.cli` process."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = run_process([sys.executable, "-c", "import groupcodes.cli"])
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr.decode())
    return sorted(times)[len(times) // 2]


# -- ensemble-laws -------------------------------------------------------------


def ensemble_laws(seed: int, workdir: Path, tiny: bool) -> Workload:
    rng = _rng(seed, "ensemble-laws")
    ops = []
    families = FAMILIES_TINY if tiny else FAMILIES
    for orders in families:
        spec = decompose(orders).spec
        n_max = 1
        while spec.order ** (n_max + 1) <= 64:
            n_max += 1
        for n in range(1, (1 if tiny else n_max) + 1):
            for slot in spec.weight_slots:
                ig = InputGroup.from_mapping(spec, {slot: 1})
                elements = list(ig.spec.elements())
                size = len(elements)
                for k in rng.choice(size**2, size=PAIRS_PER_CONFIG, replace=False):
                    a, b = elements[k // size], elements[k % size]
                    pair = f"{a.residues}->{b.residues}"
                    name = f"pairwise {_label(orders)} {slot} n={n} {pair}"
                    ops.append(_pairwise_op(name, ig, n, a, b, "exhaustive"))
    for orders, counts, n in SAMPLED[:1] if tiny else SAMPLED:
        ig = InputGroup(decompose(orders).spec, counts)
        a, d = _random_element(ig, rng), _random_element(ig, rng)
        q, s, _ = ig.spec.rings[-1]
        unit = q * int(rng.integers(q ** (s - 1))) + 1
        b = a + ig.spec.element(d.residues[:-1] + (unit,))
        name = f"sampled {_label(orders)} {counts} n={n}"
        samples = SAMPLES_TINY if tiny else SAMPLES
        law_seed = int(rng.integers(2**63))
        ops.append(_pairwise_op(name, ig, n, a, b, "sampled", samples, law_seed))
    for orders in families:
        spec = decompose(orders).spec
        for counts in census_configs(spec):
            ig = InputGroup(spec, counts)
            name = f"census {_label(orders)} {counts}"
            ops.append(_census_op(name, ig, _random_element(ig, rng)))
    for p, r in CONGRUENCE_LEVELS_TINY if tiny else CONGRUENCE_LEVELS:
        ops.append(_congruence_op(p, r))
    mc_rates = REFERENCE["ensemble-laws"]["mc_error_rate"]
    for (orders, counts, n, matrix), p_ref in zip(MONTE_CARLO, mc_rates):
        ig = InputGroup(decompose(orders).spec, counts)
        chan = ChannelSpec(ig.group, matrix)
        trials = MC_TRIALS_TINY if tiny else MC_TRIALS
        name = f"mc {_label(orders)} {counts} n={n}"
        ops.append(_mc_op(name, ig, n, chan, trials, int(rng.integers(2**63)), p_ref))
    if not tiny:
        _check_counts(ops)
    return Workload(ops)


def _check_counts(ops: list[Op]) -> None:
    """The workload checks no fewer pairs, censuses or congruence levels than
    recorded in reference.json."""
    need = REFERENCE["ensemble-laws"]["min_ops"]
    have = {kind: sum(op.kind == kind for op in ops) for kind in need}
    short = {k: (have[k], n) for k, n in need.items() if have[k] < n}
    if short:
        raise RuntimeError(f"fewer ensemble-laws operations than recorded: {short}")


def _random_element(ig: InputGroup, rng: np.random.Generator):
    return ig.spec.element([int(rng.integers(m)) for m in ig.spec.moduli])


def census_configs(spec, size_cap: int = 64):
    """Covering count vectors with |J| <= size_cap and counts in 0..2."""
    for counts in itertools.product(range(3), repeat=len(spec.weight_slots)):
        size = math.prod(q ** (s * k) for (q, s), k in zip(spec.weight_slots, counts))
        primes = {q for (q, _), k in zip(spec.weight_slots, counts) if k}
        if sum(counts) and size <= size_cap and primes == set(spec.primes):
            yield counts


def _pairwise_op(name, ig, n, a, b, mode, samples=SAMPLES, seed=0) -> Op:
    def run(trace: Trace):
        report = trace.call(
            "ensemble.pairwise",
            verify_pairwise_law,
            ig, n, a, b, samples=samples, seed=seed,
        )
        trace.count("ensemble.pairwise.pairs", 1)
        trace.count("ensemble.pairwise.outcomes", report.outcomes)
        vacuous = report.mode == "sampled" and report.threshold >= 1
        trace.count("ensemble.pairwise.vacuous", int(vacuous))
        return report

    def check(report) -> list[str]:
        bad = []
        if report.mode != mode:
            bad.append(f"pairwise law checked in {report.mode} mode, not {mode}")
        if not report.passed:
            bad.append(
                f"pairwise law failed: tv {report.tv_distance}, "
                f"off-support mass {report.off_support_mass}"
            )
        return bad

    return Op(name, "pairwise", run, check)


def _census_op(name, ig, a) -> Op:
    def run(trace: Trace):
        census = trace.call("ensemble.census", theta_census, ig, a)
        bounds = trace.call(
            "ensemble.census", lambda: {th: t_theta_bound(ig, th) for th in census}
        )
        thetas = trace.call(
            "rates.theta_enum", enumerate_theta_set, ig.group, ig.support
        )
        trace.count("ensemble.census.classes", len(census))
        trace.count("rates.theta_enum.selectors", len(thetas))
        trace.count("rates.theta_enum.supports", 1)
        return census, bounds, thetas

    def check(output) -> list[str]:
        census, bounds, thetas = output
        bad = [
            f"class {th.components} has {c} pairs, above {bounds[th]}"
            for th, c in census.items()
            if c > bounds[th]
        ]
        if sum(census.values()) != ig.size:
            bad.append(f"census covers {sum(census.values())} of {ig.size} elements")
        if frozenset(census) != thetas:
            bad.append("census selectors differ from the enumerated theta set")
        return bad

    return Op(name, "census", run, check)


def _congruence_op(p: int, r: int) -> Op:
    mod = p**r
    equations = [
        (s, a, b) for s in range(1, r + 1) for a in range(1, p**s) for b in range(mod)
    ]

    def run(trace: Trace):
        solutions = trace.call(
            "ensemble.congruence",
            lambda: [solve_congruence(p, r, s, a, b) for s, a, b in equations],
        )
        trace.count("ensemble.congruence.equations", len(equations))
        return solutions

    def check(solutions) -> list[str]:
        return [
            f"{a}*x = {b} mod {mod}: {got}"
            for (s, a, b), got in zip(equations, solutions)
            if got != tuple(x for x in range(mod) if (a * x) % mod == b)
        ]

    return Op(f"congruence p={p} r={r}", "congruence", run, check)


def _mc_op(name, ig, n, chan, trials, seed, p_ref) -> Op:
    def run(trace: Trace):
        report = trace.call("ensemble.mc", mc_channel_error, ig, n, chan, trials, seed)
        trace.count("ensemble.mc.trials", report.trials)
        return report

    def check(report) -> list[str]:
        # binomial band around the recorded error rate, wide enough for the
        # recorded rate's own sampling error: the RNG stream may change
        sd = math.sqrt(trials * p_ref * (1 - p_ref))
        if report.trials != trials or abs(report.errors - trials * p_ref) > 5 * sd + 1:
            return [f"{report.errors} errors in {report.trials} trials, rate {p_ref}"]
        return []

    return Op(name, "mc", run, check)


WORKLOADS = {
    "channel-sweep": channel_sweep,
    "cli-wide": cli_wide,
    "ensemble-laws": ensemble_laws,
}
