"""Seeded benchmark of groupcodes, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: channel-sweep, cli-wide, ensemble-laws (see README.md).  Run from
the root of a source checkout; the library is imported from ./src.

--trace 0 runs the workload's fixed instance set once per PASS_S of S (at
least once, and no new pass once S seconds are spent) and reports the
end-to-end metrics from the best time of each instance over the passes, in
units of a fixed reference loop timed between the instances.
--trace 1 runs a traced pass between untraced ones and reports the per-layer
metrics, timed from the benchmark around each call into a layer.  Every
output is checked outside the timed interval.  The last line of stdout is one
JSON object; a readable summary goes to stderr.  Exit 1 when an output check
fails, 2 when ./src is missing.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 5
# A workload's instance set takes 7-13 s on the machine in README.md, so a run
# makes one pass per PASS_S of --seconds (three passes, four for the shorter
# ensemble-laws, at 40 s).  The count does not depend on the measured speed,
# so every run takes the best of as many passes, unless a very slow machine
# has already spent --seconds.
PASS_S = {"channel-sweep": 13, "cli-wide": 13, "ensemble-laws": 10}
# The reference loop runs before an instance once REF_EVERY_S have passed since
# it last ran, and after the last instance of a pass.  REF_LOOP_S is its time
# on the machine in README.md; wall_ref_s is in seconds at that speed.
REF_EVERY_S = 1.0
REF_ROUNDS = 4000
REF_LOOP_S = 0.05
REF_ARRAY = np.arange(64.0)

END_TO_END = {
    "setup_s": "s",
    "wall_ref_s": "s",
    "peak_rss_mib": "MiB",
}
BUSY_LAYERS = (
    "rates.theta_enum",
    "measures.terms",
    "rates.optimize",
    "ensemble.pairwise",
    "ensemble.census",
    "ensemble.congruence",
    "ensemble.mc",
    "problems.load",
    "problems.emit",
)
ENSEMBLE_LAYERS = tuple(layer for layer in BUSY_LAYERS if layer.startswith("ensemble."))
COUNTS = (
    "rates.theta_enum.selectors",
    "rates.theta_enum.supports",
    "measures.terms.selectors",
    "measures.terms.element_visits",
    "rates.optimize.supports",
    "ensemble.pairwise.pairs",
    "ensemble.pairwise.outcomes",
    "ensemble.pairwise.vacuous",
    "ensemble.census.classes",
    "ensemble.congruence.equations",
    "ensemble.mc.trials",
)


@dataclass
class Pass:
    wall: float
    times: list[float]
    # the reference loop's time around each operation (empty when not timed)
    refs: list[float]
    failed: int
    problems: list[str]


def reference_loop() -> float:
    """Seconds taken by a fixed mix of interpreter work and small numpy calls,
    like the library's inner loops: the machine's speed at this moment."""
    start = time.perf_counter()
    total = 0.0
    for i in range(REF_ROUNDS):
        d = {}
        for j in range(60):
            d[(i * 7 + j) & 63] = j
        total += sum(d.values()) + float((REF_ARRAY * i).sum())
        total += float(REF_ARRAY @ REF_ARRAY[::-1])
    return time.perf_counter() - start


def run_pass(ops, trace, reference=False) -> Pass:
    """Time every operation once, then check every output.  With
    ``reference``, the reference loop also runs between operations, outside
    their timed intervals, and each operation is paired with the mean of the
    reference times just before and just after it."""
    times, outputs, marks = [], [], []  # marks: (operation index, loop time)
    last_ref = -float("inf")
    for i, op in enumerate(ops):
        if reference and time.perf_counter() - last_ref >= REF_EVERY_S:
            marks.append((i, reference_loop()))
            last_ref = time.perf_counter()
        t = time.perf_counter()
        outputs.append(op.run(trace))
        times.append(time.perf_counter() - t)
    refs = []
    if reference:
        marks.append((len(ops), reference_loop()))
        for i in range(len(ops)):
            before = next(r for k, r in reversed(marks) if k <= i)
            after = next(r for k, r in marks if k > i)
            refs.append((before + after) / 2)
    failed, problems = 0, []
    for op, output in zip(ops, outputs):
        bad = op.check(output)
        failed += bool(bad)
        problems += [f"{op.name}: {p}" for p in bad]
    return Pass(sum(times), times, refs, failed, problems)


def end_to_end(
    wl, workload, setup_s: float, seconds: float, pass_s: float
) -> tuple[dict, list[Pass]]:
    """Repeat the instance set once per ``pass_s`` of ``seconds``.  wall_ref_s
    divides each instance's time by the reference loop's time around it, takes
    the best pass (other processes can only add to a pure computation's time)
    and scales the sum by REF_LOOP_S, so that drift in the machine's speed
    cancels.  The plain wall time and the slowest instance, by their fastest
    pass, move with that drift: they go to stderr and are not gated."""
    count = max(1, int(seconds // pass_s))
    passes: list[Pass] = []
    while len(passes) < count and sum(p.wall for p in passes) < seconds:
        passes.append(run_pass(workload.ops, wl.Trace(False), reference=True))
    indices = range(len(workload.ops))
    per_op = [min(p.times[i] for p in passes) for i in indices]
    per_op_ref = [min(p.times[i] / p.refs[i] for p in passes) for i in indices]
    rss_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    values = {
        "setup_s": setup_s,
        "wall_ref_s": REF_LOOP_S * sum(per_op_ref),
        "peak_rss_mib": rss_kib / 1024,
    }
    slowest = max(indices, key=per_op.__getitem__)
    ref_s = statistics.median(r for p in passes for r in p.refs)
    slowest_name = workload.ops[slowest].name
    for name, line in (
        ("wall_s", f"{sum(per_op):.6g} s (not gated)"),
        ("instance_s.max", f"{per_op[slowest]:.6g} s ({slowest_name}, not gated)"),
        ("reference_loop_s", f"{ref_s:.6g} s (median, not gated)"),
    ):
        print(f"{name:36s} {line}", file=sys.stderr)
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, passes


def per_layer(wl, workload) -> tuple[dict, list[Pass]]:
    trace = wl.Trace(True)
    if workload.child_ops is None:
        # an untraced pass first fills the caches, so the traced pass and the
        # untraced pass it is compared with both run warm, as the best
        # passes of an end-to-end run do
        passes = [run_pass(workload.ops, wl.Trace(False))]
        traced = run_pass(workload.ops, trace)
        untraced = run_pass(workload.ops, wl.Trace(False))
        process_s = startup_s = 0.0
    else:
        # the CLI pass runs first: the children compare against its stdout.
        # Every process starts cold; the overhead compares the same child
        # program with its spans on and off.
        passes = [run_pass(workload.ops, wl.Trace(False))]
        traced = run_pass(workload.child_ops(True), trace)
        untraced = run_pass(workload.child_ops(False), wl.Trace(False))
        process_s = statistics.median(passes[0].times)
        startup_s = wl.cli_startup_s()
    wall = traced.wall
    busy = {layer: trace.busy.get(layer, 0.0) for layer in BUSY_LAYERS}
    counts = {name: trace.counts.get(name, 0) for name in COUNTS}
    values = {f"{layer}.busy_s": (v, "s") for layer, v in busy.items()}
    for layer in ("rates.theta_enum", "measures.terms", "rates.optimize"):
        values[f"{layer}.share"] = (busy[layer] / wall, "fraction")
    ensemble_busy = sum(busy[k] for k in ENSEMBLE_LAYERS)
    values["ensemble.share"] = (ensemble_busy / wall, "fraction")
    values.update({name: (v, "count") for name, v in counts.items()})
    mc_busy = busy["ensemble.mc"]
    values["ensemble.mc.trials_per_s"] = (
        counts["ensemble.mc.trials"] / mc_busy if mc_busy else 0.0,
        "1/s",
    )
    values["cli.process_s"] = (process_s, "s")
    values["cli.startup_s"] = (startup_s, "s")
    values["cli.startup.share"] = (startup_s * len(workload.ops) / wall, "fraction")
    values["trace.overhead_frac"] = (traced.wall / untraced.wall - 1.0, "fraction")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    return metrics, passes + [untraced, traced]


def set_up(build, args, workdir: Path):
    """One set-up: a fresh interpreter importing numpy and groupcodes, then
    input generation and problem files, and for cli-wide one warm-up CLI
    process."""
    paths = [str(SRC), str(HERE)]
    code = f"import sys; sys.path[:0] = {paths!r}; import workloads"
    proc = subprocess.run(
        [sys.executable, "-c", code], stdout=subprocess.DEVNULL, timeout=120
    )
    if proc.returncode != 0:
        raise RuntimeError("importing the benchmark and the library failed")
    workload = build(args.seed, workdir, args.tiny)
    if workload.warmup is not None:
        workload.warmup()
    return workload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="small instance sets, for the smoke test"
    )
    args = parser.parse_args(argv)

    if not (SRC / "groupcodes" / "__init__.py").is_file():
        print(f"error: no groupcodes source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (imports numpy and groupcodes)

    if args.workload not in workloads.WORKLOADS:
        choices = ", ".join(sorted(workloads.WORKLOADS))
        parser.error(f"unknown workload {args.workload!r}; choose from {choices}")
    build = workloads.WORKLOADS[args.workload]

    workdir = HERE / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            workload = set_up(build, args, workdir)
            setup_times.append(time.perf_counter() - t)
        setup_s = statistics.median(setup_times)

        if args.trace:
            metrics, passes = per_layer(workloads, workload)
        else:
            metrics, passes = end_to_end(
                workloads, workload, setup_s, args.seconds, PASS_S[args.workload]
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    summary = f"{failed / attempted:.6g} ({failed} of {attempted})"
    print(f"{'failed_frac':36s} {summary}", file=sys.stderr)
    for problem in [p for ps in passes for p in ps.problems][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    print(json.dumps({**result, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
