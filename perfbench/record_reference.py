"""Record the reference values the benchmark's output checks compare against.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: the rates of every channel-sweep and cli-wide
instance at the reference seed, the number of ensemble-laws operations of each
kind, and the Monte Carlo block-error rates measured on MC_REFERENCE_TRIALS
trials each.  Run it only when the library's results are meant to change.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

SEED = 1
MC_REFERENCE_TRIALS = 20000
MC_REFERENCE_SEED = 12345


def main() -> int:
    # build without references: the values recorded here are the references
    workloads.REFERENCE = {
        "seed": None,
        "ensemble-laws": {
            "mc_error_rate": [0.5] * len(workloads.MONTE_CARLO),
            "min_ops": {},
        },
    }
    workdir = HERE / ".work" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        sweep = workloads.channel_sweep(SEED, workdir, False)
        sweep_rates = [op.run(workloads.Trace(False)).value for op in sweep.ops]
        cli = workloads.cli_wide(SEED, workdir, False)
        cli_rates = []
        for op in cli.ops:
            code, stdout = op.run(workloads.Trace(False))
            if code != 0:
                raise RuntimeError(f"{op.name}: exit code {code}")
            cli_rates.append(json.loads(stdout)["value"])
        laws = workloads.ensemble_laws(SEED, workdir, False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    kinds = ("pairwise", "census", "congruence")
    mc_rates = []
    for orders, counts, n, matrix in workloads.MONTE_CARLO:
        ig = workloads.InputGroup(workloads.decompose(orders).spec, counts)
        chan = workloads.ChannelSpec(ig.group, matrix)
        report = workloads.mc_channel_error(
            ig, n, chan, MC_REFERENCE_TRIALS, MC_REFERENCE_SEED
        )
        mc_rates.append(report.error_rate)
    reference = {
        "seed": SEED,
        "channel-sweep": {"rates": sweep_rates},
        "cli-wide": {"rates": cli_rates},
        "ensemble-laws": {
            "min_ops": {k: sum(op.kind == k for op in laws.ops) for k in kinds},
            "mc_error_rate": mc_rates,
            "mc_trials": MC_REFERENCE_TRIALS,
        },
    }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
