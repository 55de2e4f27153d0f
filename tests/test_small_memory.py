"""Commands that must run within 512 MiB of address space.

Each runs in a child process that caps its own address space with
``RLIMIT_AS`` before it imports anything, as ``ulimit -v 524288`` would.
"""

import subprocess
import sys

LIMIT = (
    "import resource\n"
    "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
)


def run_capped(script: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", LIMIT + script],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_optimize_weights_on_a_rate_calls_terms_within_512_mib():
    # the Z_(2^18) source whose X is U mod 8 with 10% noise: its terms break
    # the order in theta by rounding only, so optimize_weights searches their
    # prefixes, as source_coding_rate does, and returns its result, building
    # none of the 262,143 covering supports
    script = (
        "import numpy as np\n"
        "from groupcodes import SourceJoint, Subgroup, ThetaVector, decompose\n"
        "from groupcodes import optimize_weights, source_coding_rate, source_terms\n"
        "spec = decompose([2**18]).spec\n"
        "labels = Subgroup(spec, ThetaVector(spec, (3,))).label_indices()\n"
        "pmf = (0.9 * np.eye(8)[labels] + 0.1 / 8).T / spec.order\n"
        "joint = SourceJoint(spec, pmf)\n"
        "got = optimize_weights(spec, source_terms(joint), 'source')\n"
        "assert repr(got) == repr(source_coding_rate(joint)), got\n"
    )
    proc = run_capped(script)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
