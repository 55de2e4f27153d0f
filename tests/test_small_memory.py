"""Commands that must run within 512 MiB of address space.

Each runs in a child process that caps its own address space with
``RLIMIT_AS`` before it imports anything, as ``ulimit -v 524288`` would.
The CLI commands run through ``cli.run``, the installed console script's
entry; the workflow still runs the installed script itself.
"""

import json
import subprocess
import sys

LIMIT = (
    "import resource\n"
    "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
)
CLI = (
    "import sys\n"
    "from groupcodes import cli\n"
    "raise SystemExit(cli.run(sys.argv[1:]))\n"
)


def run_capped(script: str, *args: str, timeout: float = 300):
    return subprocess.run(
        [sys.executable, "-c", LIMIT + script, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def groupcodes(*argv, timeout: float = 300) -> subprocess.CompletedProcess:
    """``groupcodes argv`` in a capped child; no command may print a traceback."""
    proc = run_capped(CLI, *map(str, argv), timeout=timeout)
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc


def channel_file(path, group, matrix, **extra):
    doc = {"kind": "channel", "group": group, "matrix": matrix, **extra}
    path.write_text(json.dumps(doc))
    return path


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


def test_cli_refuses_bad_input_with_exit_2(tmp_path):
    # a negative seed; the simulation cap refuses a million input components
    # before it builds the input group, the grid oracle's cap the 1.8e15
    # points of a Z1024 channel at 200 steps before it evaluates any, both
    # well within the timeout, and Z_(2^70), whose ring has no int64
    # residues, is refused with one error line, not a traceback
    eye = [[int(x == y) for y in range(4)] for x in range(4)]
    identity = channel_file(tmp_path / "z4-identity.json", [4], eye, output_size=4)
    z1024 = [[x % 2, 1 - x % 2] for x in range(1024)]
    z1024 = channel_file(tmp_path / "z1024.json", [1024], z1024)
    assert groupcodes("group-info", 4, "--seed", -1).returncode == 2
    proc = groupcodes(
        "simulate", identity, "--counts", "1000000,0", "--trials", 5, timeout=20
    )
    assert proc.returncode == 2
    proc = groupcodes("capacity", z1024, "--grid-check", 200, timeout=20)
    assert proc.returncode == 2
    proc = groupcodes("verify-ensemble", 2**70, "--counts", "1" + ",0" * 69, timeout=20)
    assert proc.returncode == 2


def test_lemma_suite_commands_within_512_mib():
    # Z2 with 20 components (|J| = 2^20) and with 40 (|J| = 2^40): the census
    # is a fold over the used slots and lemma_suite checks it by its cumulated
    # bound, so neither builds an array of J's size.  Z2 with 10 components
    # at n = 20 and Z4 with counts (1, 1) at n = 8: the sampled pairwise law
    # tallies each pair of coordinates, never the |H_theta|^n cells of the
    # whole block, so both run.  Z2 with 15 components at n = 1 and with 3 at
    # n = 4: the exhaustive law, in the same one tally, enumerates 2^15 tables
    # at EXHAUSTIVE_CAP and tallies 4,096 tables over 4 coordinates.
    # Z_(2^24) with J one Z2: a congruence check reads all p^r residues of its
    # ring, so a ring above SIZE_CAP is refused (exit 2); Z_(2^20) runs, and
    # its sampled congruence check checks at least one equation
    for argv in [
        ("2", "--counts", "20", "--n", "1", "--trials", "20"),
        ("2", "--counts", "40", "--n", "2", "--trials", "20"),
        ("2", "--counts", "10", "--n", "20", "--trials", "20"),
        ("4", "--counts", "1,1", "--n", "8"),
        ("2", "--counts", "15", "--n", "1", "--trials", "20"),
        ("2", "--counts", "3", "--n", "4", "--trials", "20"),
    ]:
        proc = groupcodes("verify-ensemble", *argv)
        assert proc.returncode == 0, (argv, proc.stdout, proc.stderr)
    proc = groupcodes("verify-ensemble", 2**24, "--counts", "1" + ",0" * 23)
    assert proc.returncode == 2
    proc = groupcodes("verify-ensemble", 2**20, "--counts", "1" + ",0" * 19)
    assert proc.returncode == 0, proc.stderr
    head = "PASS congruence-solver: "
    (line,) = [x for x in proc.stdout.splitlines() if x.startswith(head)]
    assert not line.startswith(head + "0 equations"), line


def test_monte_carlo_commands_within_512_mib(tmp_path):
    # the cap bounds one trial's codebook, |J| x n x rings cells, not
    # |J| x |G|^n: a rate-1/2 code on a BSC(0.1) at n = 20 (2^30) and
    # |J| = 2^20 at n = 1, whose one-trial codebook of 2^20 uint8 residues is
    # the widest the cap admits, both run, as do a long block (n = 24, 1,000
    # trials, ten a block) and a J of one Z4096 component on Z4096, whose
    # residues are uint16 and whose 4,096 multiples are built by doubling,
    # each within a timeout; then the first at the largest seed, twice, must
    # print the same
    bsc = channel_file(tmp_path / "bsc.json", [2], [[0.9, 0.1], [0.1, 0.9]])
    z4096 = [[0.9 if y == x % 2 else 0.1 for y in range(2)] for x in range(4096)]
    z4096 = channel_file(tmp_path / "z4096.json", [4096], z4096)
    for path, argv, timeout in [
        (bsc, ("--counts", "10", "--n", "20", "--trials", "200"), 300),
        (bsc, ("--counts", "20", "--n", "1", "--trials", "20"), 300),
        (bsc, ("--counts", "12", "--n", "24", "--trials", "1000"), 60),
        (z4096, ("--counts", "0," * 11 + "1", "--n", "4", "--trials", "200"), 60),
    ]:
        proc = groupcodes("simulate", path, *argv, timeout=timeout)
        assert proc.returncode == 0, (argv, proc.stderr)
    argv = ("--counts", "10", "--n", "20", "--trials", "200", "--seed", 2**64 - 1)
    runs = [groupcodes("simulate", bsc, *argv, "--json") for _ in range(2)]
    assert [run.returncode for run in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
