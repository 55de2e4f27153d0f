import argparse
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import groupcodes
from groupcodes import cli, decompose
from groupcodes.problems import parse_group_string, parse_problem
from groupcodes.measures import ValidationError
from groupcodes.rates import grid_size


@pytest.fixture
def merged_channel_file(tmp_path):
    doc = {
        "kind": "channel",
        "group": [4],
        "output_size": 3,
        "matrix": [[1, 0, 0], [0, 0, 1], [0, 1, 0], [0, 0, 1]],
    }
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def identity_source_file(tmp_path):
    doc = {
        "kind": "source",
        "group": [4],
        "source_size": 4,
        "joint": [
            ["0.25", 0, 0, 0],
            [0, "0.25", 0, 0],
            [0, 0, "0.25", 0],
            [0, 0, 0, "0.25"],
        ],
    }
    path = tmp_path / "src.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _no_rate_call(*args, **kwargs):
    raise cli.SolverError("the rate function was called")


def test_group_info_mixed(capsys):
    code, out, _ = run_cli(capsys, ["group-info", "4,3,9,9"])
    assert code == 0
    assert "(2,2,1) (3,1,1) (3,2,1) (3,2,2)" in out


def test_group_info_crt(capsys):
    code, out, _ = run_cli(capsys, ["group-info", "6"])
    assert code == 0
    assert "canonical rings: (2,1,1) (3,1,1)" in out
    assert "(0) (4) (2) (3) (1) (5)" in out  # cyclic coordinates in index order


def test_group_info_rejects_order_one(capsys):
    code, _, err = run_cli(capsys, ["group-info", "1"])
    assert code == 2
    assert "invalid" in err


def test_group_info_rejects_unfactorable_order():
    # trial division is bounded: a prime near 10^18 exits 2 at once, naming
    # the order (in a child process, so a hang fails by the timeout)
    proc = subprocess.run(
        [sys.executable, "-m", "groupcodes.cli", "group-info", "1000000000000000003"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "order 1000000000000000003" in proc.stderr


def test_verify_ensemble_rejects_huge_table_draw(capsys):
    # 200 tables of 10^15 cells each: rejected before any draw, naming the cap
    argv = ["verify-ensemble", "4", "--counts", "0,1", "--n", str(10**15)]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert "SIZE_CAP" in err


def test_cli_imports_numpy_only():
    # the library's one dependency is numpy: the test tools scipy, hypothesis
    # and pytest must not load with the CLI, nor the stdlib modules that the
    # rate commands never use
    code = (
        "import sys, groupcodes.cli; print(sorted({m.split('.')[0] for m in "
        "sys.modules} & {'scipy', 'hypothesis', 'pytest', '_pytest', 'csv', "
        "'fractions', 'decimal'}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"


def test_cli_imports_ensemble_lazily():
    # a bare import loads neither numpy nor any submodule; the rate commands
    # never load the ensemble module, nor does dir(), which lists every name
    # of __all__; each name is the object of the module that defines it,
    # loaded on first use
    code = (
        "import sys, groupcodes\n"
        "print([m for m in sys.modules if m.startswith(('numpy', 'groupcodes.'))])\n"
        "import groupcodes.cli\n"
        "print(set(groupcodes.__all__) <= set(dir(groupcodes)))\n"
        "print('groupcodes.ensemble' in sys.modules)\n"
        "print(groupcodes.InputGroup.__module__)\n"
        "print(hasattr(groupcodes, 'no_such_name'))\n"
        "homes = set()\n"
        "for name in groupcodes.__all__:\n"
        "    value = getattr(groupcodes, name)\n"
        "    home = sys.modules[value.__module__]\n"
        "    assert getattr(home, name) is value and value.__name__ == name, name\n"
        "    homes.add(home.__name__)\n"
        "print(sorted(homes))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    homes = [f"groupcodes.{m}" for m in ("ensemble", "groups", "measures", "rates")]
    assert proc.stdout == f"[]\nTrue\nFalse\ngroupcodes.ensemble\nFalse\n{homes}\n"


def test_readme_entry_points_resolve_from_the_package():
    # every lowercase name in backticks in README's "Key entry points" that a
    # submodule defines publicly is a name of the package
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text[text.index("Key entry points.") :]
    section = section[: section.index("\n## ")]
    modules = [
        importlib.import_module(f"groupcodes.{name}")
        for name in ("groups", "measures", "rates", "ensemble", "problems", "cli")
    ]
    defined = {
        name
        for name in re.findall(r"`([a-z][a-z0-9_]*)`", section)
        for module in modules
        if getattr(getattr(module, name, None), "__module__", "") == module.__name__
    }
    assert len(defined) >= 27
    for name in sorted(defined):
        assert name in groupcodes.__all__ and getattr(groupcodes, name), name


@pytest.mark.parametrize(
    "entry, argv, code, frozen",
    [
        ("run", ["group-info", "4"], 0, True),
        ("run", ["group-info", "1"], 2, True),
        ("main", ["group-info", "4"], 0, False),
    ],
)
def test_process_entry_freezes_heap(entry, argv, code, frozen):
    # run, the process entry, freezes the heap after the command so that the
    # collections at exit skip it; main leaves it to the collector (each in a
    # child process, so that this heap is never frozen)
    script = (
        "import gc\nfrom groupcodes import cli\n"
        f"code = cli.{entry}({argv!r})\n"
        "print(code, gc.get_freeze_count() > 0)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert proc.stdout.splitlines()[-1] == f"{code} {frozen}"


def test_theta_table_runs_under_an_address_space_cap():
    # Z2+Z4+...+Z512 has 512 reachable selectors and a selector grid of 10!
    # rows, whose [grid, k, L] int64 arrays alone would take 2.19 GiB; the
    # child caps its address space at 512 MiB before it imports anything
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
        "from groupcodes import cli\n"
        "group = '2,4,8,16,32,64,128,256,512'\n"
        "raise SystemExit(cli.main(['theta-table', group, '--support', '2,1']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[3:] == [
        "  theta=(0,1,2,3,4,5,6,7,8) omega=0.000000000",
        "  theta=(1,2,3,4,5,6,7,8,9) omega=1.000000000",
    ]


def peak_run(argv):
    """A fresh CLI process on argv: its stdout lines, exit code and peak RSS
    in KiB.  A child's peak RSS starts from its parent's RSS at the fork, so
    a small fresh process forks the command and reads its peak from
    os.wait4 (ru_maxrss is in KiB on Linux)."""
    script = (
        "import os, sys\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    cli = [sys.executable, '-m', 'groupcodes.cli', *sys.argv[1:]]\n"
        "    os.execv(sys.executable, cli)\n"
        "_, status, usage = os.wait4(pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True
    )
    *lines, last = proc.stdout.splitlines()
    code, peak_kib = map(int, last.split())
    return lines, code, peak_kib


def test_verify_ensemble_on_z2_with_20_components_peaks_in_small_memory():
    # Z2 with 20 components is |J| = 2^20, where one [|J|, k] int64 array
    # takes 160 MiB: the census by its fold and cumulated bound builds none
    argv = ["verify-ensemble", "2", "--counts", "20", "--n", "1", "--trials", "20"]
    lines, code, peak_kib = peak_run(argv)
    assert code == 0 and sum(line.startswith("PASS") for line in lines) == 6
    assert peak_kib < 128 << 10


def test_verify_ensemble_refuses_a_wide_j_before_drawing_in_small_memory():
    # Z2 with 100,000 components: the pairwise law's table draw is refused
    # before the constraint and additivity checks draw and encode anything
    argv = ["verify-ensemble", "2", "--counts", "100000", "--n", "1", "--trials", "1"]
    lines, code, peak_kib = peak_run(argv)
    assert lines == [] and code == 2
    assert peak_kib < 64 << 10


def test_rate_commands_leave_numpy_ma_unloaded(
    merged_channel_file, identity_source_file
):
    # np.unique imports numpy.ma (about 15 ms) on its first call, so the
    # selector plan and the rate commands must not call it; numpy 1.x loads
    # numpy.ma on import, and then there is nothing to check
    argvs = [
        ["theta-table", "2,4,8,16,32,64,128,256", "--support", "2,1"],
        ["capacity", merged_channel_file],
        ["rd", identity_source_file],
    ]
    script = (
        "import sys\nimport numpy\n"
        "print('numpy.ma' in sys.modules)\n"
        "from groupcodes import cli\n"
        f"codes = [cli.main(argv) for argv in {argvs!r}]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    lines = proc.stdout.splitlines()
    if lines[0] == "True":
        pytest.skip("this numpy loads numpy.ma on import")
    assert lines[-1] == "[0, 0, 0] False"


def test_cli_starts_blas_single_threaded():
    # a CLI process starts numpy's OpenBLAS with one thread unless the caller
    # chose a count; the library alone never sets the variable
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}

    def blas_threads(modules, **caller):
        code = f"import os, {modules}; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        proc = subprocess.run(
            [sys.executable, "-c", code], env={**env, **caller},
            capture_output=True, text=True, check=True,
        )
        return proc.stdout

    assert blas_threads("groupcodes.cli") == "1\n"
    assert blas_threads("groupcodes.cli", OPENBLAS_NUM_THREADS="2") == "2\n"
    assert blas_threads("groupcodes, groupcodes.rates") == "None\n"


def test_capacity_identity(capsys, tmp_path):
    doc = {"kind": "channel", "group": [4], "output_size": 4,
           "matrix": np.eye(4).tolist()}
    path = tmp_path / "ident.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, ["capacity", str(path), "--closed-form"])
    assert code == 0
    assert "capacity (bits): 2.000000000" in out


def test_capacity_merged_pair(capsys, merged_channel_file):
    code, out, _ = run_cli(capsys, ["capacity", merged_channel_file])
    assert code == 0
    assert "capacity (bits): 1.000000000" in out


def test_capacity_z2_noiseless(capsys, tmp_path):
    doc = {"kind": "channel", "group": [2], "output_size": 2,
           "matrix": [[1, 0], [0, 1]]}
    path = tmp_path / "bsc0.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, ["capacity", str(path)])
    assert code == 0
    assert "capacity (bits): 1.000000000" in out


def test_capacity_json_matches_text(capsys, merged_channel_file):
    code, out_json, _ = run_cli(capsys, ["capacity", merged_channel_file, "--json"])
    assert code == 0
    record = json.loads(out_json)
    code, out_text, _ = run_cli(capsys, ["capacity", merged_channel_file])
    line = [l for l in out_text.splitlines() if l.startswith("capacity")][0]
    text_value = float(line.split(":")[1])
    assert abs(record["value"] - text_value) < 1e-9


def test_capacity_grid_check(capsys, merged_channel_file):
    code, out, _ = run_cli(
        capsys, ["capacity", merged_channel_file, "--json", "--grid-check", "40"]
    )
    assert code == 0
    record = json.loads(out)
    assert record["grid_gap"] < 5e-3


def test_grid_check_states_its_size(capsys, tmp_path):
    # Z8 has 3 one-slot, 3 two-slot and 1 three-slot supports: at 10 steps
    # 3 * 1 + 3 * 9 + 36 = 66 points, stated on stderr before the oracle runs
    doc = {"kind": "channel", "group": [8], "output_size": 2,
           "matrix": [[1, 0] if x % 2 else [0, 1] for x in range(8)]}
    path = tmp_path / "z8.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, ["capacity", str(path), "--grid-check", "10"])
    assert code == 0
    assert err.splitlines()[0] == "grid oracle: 66 points on 7 supports"
    # Z16 at 2 steps: its 4 one-slot and 6 two-slot supports hold one point
    # each, and its 5 supports of more slots hold none and are not counted
    doc = {**doc, "group": [16], "matrix": doc["matrix"] * 2}
    path = tmp_path / "z16.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, ["capacity", str(path), "--grid-check", "2"])
    assert code == 0
    assert err.splitlines()[0] == "grid oracle: 10 points on 10 supports"
    # Z256's 255 supports: sum over k of C(8, k) C(steps - 1, k - 1), which
    # is C(steps + 7, 7), counted without running the oracle
    spec = decompose([256]).spec
    for steps, points in ((20, 888_030), (50, 264_385_836)):
        assert grid_size(spec, steps) == (points, 255)


@pytest.mark.parametrize(
    "steps, points",
    [("200", "1760806558963166"), ("1" + "0" * 500, "at least 2^14930")],
    ids=["past-cap", "too-long-to-print"],
)
def test_grid_check_refused_past_its_cap(capsys, tmp_path, monkeypatch, steps, points):
    # Z1024's 1023 supports at 200 steps hold more grid points than the
    # oracle's cap, named in full; at 10^500 steps the count is too long to
    # print and is named by its bit length.  Exit 2 before the rate call
    doc = {"kind": "channel", "group": [1024], "output_size": 2,
           "matrix": [[1, 0] if x % 2 else [0, 1] for x in range(1024)]}
    path = tmp_path / "z1024.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(cli, "channel_coding_rate", _no_rate_call)
    code, out, err = run_cli(capsys, ["capacity", str(path), "--grid-check", steps])
    assert code == 2 and out == ""
    assert err.splitlines() == [
        f"grid oracle: {points} points on 1023 supports",
        f"error: grid of {points} points exceeds cap 8388608",
    ]


def test_capacity_grid_check_needs_a_step_per_prime(capsys, tmp_path, monkeypatch):
    # every support of Z4+Z3 holds a slot of each of its two primes, so one
    # grid step is an invalid argument (exit 2), not a solver error
    doc = {"kind": "channel", "group": [4, 3], "output_size": 2,
           "matrix": [[1, 0] if x % 2 else [0, 1] for x in range(12)]}
    path = tmp_path / "z4z3.json"
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, ["capacity", str(path), "--grid-check", "2"])[0] == 0
    # the step count is refused before the rate call
    monkeypatch.setattr(cli, "channel_coding_rate", _no_rate_call)
    code, out, err = run_cli(capsys, ["capacity", str(path), "--grid-check", "1"])
    assert code == 2 and out == ""
    assert "steps must be >= 2, the number of primes" in err


def test_capacity_nats(capsys, merged_channel_file):
    code, out, _ = run_cli(capsys, ["capacity", merged_channel_file, "--json", "--nats"])
    record = json.loads(out)
    assert abs(record["value"] - math.log(2.0)) < 1e-9
    assert record["units"] == "nats"


def test_capacity_wrong_kind(capsys, identity_source_file):
    code, _, err = run_cli(capsys, ["capacity", identity_source_file])
    assert code == 2 and "not a channel problem" in err


def test_capacity_closed_form_needs_single_ring(capsys, tmp_path):
    doc = {"kind": "channel", "group": [2, 2], "output_size": 4,
           "matrix": np.eye(4).tolist()}
    path = tmp_path / "v4.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, ["capacity", str(path), "--closed-form"])
    assert code == 2 and "single" in err


def test_capacity_bad_matrix(capsys, tmp_path):
    doc = {"kind": "channel", "group": [4], "output_size": 2,
           "matrix": [[0.6, 0.6]] * 4}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, ["capacity", str(path)])
    assert code == 2


def test_capacity_rejects_nan(capsys, tmp_path):
    doc = {"kind": "channel", "group": [2], "output_size": 2,
           "matrix": [[0.5, "nan"], [0.5, 0.5]]}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["capacity", str(path)])
    assert code == 2 and out == "" and "finite" in err


def test_capacity_rejects_deeply_nested_file(capsys, tmp_path):
    # json.load raises RecursionError, not JSONDecodeError, past its depth
    depth = 100_000
    path = tmp_path / "deep.json"
    path.write_text(
        '{"kind": "channel", "group": [2], "output_size": 2, "matrix": '
        + "[" * depth + "]" * depth + "}"
    )
    code, out, err = run_cli(capsys, ["capacity", str(path)])
    assert code == 2 and out == ""
    assert err == f"error: {path} is not valid JSON: nested too deeply\n"


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[0.5, True], [0.5, 0.5]], "expected a number"),
        ([[0.5, None], [0.5, 0.5]], "expected a number"),
        ([[0.5, "half"], [0.5, 0.5]], "cannot parse"),
        ([[0.5, float("nan")], [0.5, 0.5]], "finite"),
        ([[0.5, float("inf")], [0.5, 0.5]], "finite"),
        ([[0.5, float("-inf")], [0.5, 0.5]], "finite"),
        ([[0.5, "1e400"], [0.5, 0.5]], "finite"),
        ([[0.5, 10**400], [0.5, 0.5]], "cannot parse"),
        ([[0.5, 0.5], [1.0]], "row 1 has 1 entries"),
    ],
)
def test_capacity_rejects_bad_entries(capsys, tmp_path, matrix, message):
    # json writes NaN and Infinity literals, which its parser reads back
    doc = {"kind": "channel", "group": [2], "output_size": 2, "matrix": matrix}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["capacity", str(path)])
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize(
    "group, shown",
    [([4.7], "4.7"), ([True], "True"), ([4, False], "False"), (["4"], "'4'"),
     ([None], "None")],
)
def test_problem_group_entries_must_be_integers(capsys, tmp_path, group, shown):
    doc = {"kind": "channel", "group": group, "output_size": 2,
           "matrix": [[0.5, 0.5]] * 4}
    path = tmp_path / "group.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["capacity", str(path)])
    assert code == 2 and out == "" and f"cyclic order {shown} is not an integer" in err


CHANNEL_DOC = {
    "kind": "channel", "group": [2], "output_size": 2, "matrix": [[1, 0], [0, 1]]
}
SOURCE_DOC = {
    "kind": "source", "group": [2], "source_size": 2, "joint": [[0.5, 0], [0, 0.5]]
}


@pytest.mark.parametrize(
    "command, doc, message",
    [
        (
            "capacity",
            None,
            "cannot read {path}: [Errno 2] No such file or directory: '{path}'",
        ),
        (
            "rd",
            "{",
            "{path} is not valid JSON: Expecting property name enclosed in double "
            "quotes: line 1 column 2 (char 1)",
        ),
        ("capacity", "[1, 2]", "problem file must hold a JSON object"),
        (
            "capacity",
            {**CHANNEL_DOC, "kind": "x"},
            'problem "kind" must be "channel" or "source", got \'x\'',
        ),
        (
            "rd",
            {**SOURCE_DOC, "group": "4"},
            'problem needs a "group" list of cyclic orders',
        ),
        ("capacity", {**CHANNEL_DOC, "matrix": []}, "matrix: expected a list of rows"),
        (
            "capacity",
            {**CHANNEL_DOC, "output_size": 3},
            "output_size 3 does not match matrix width 2",
        ),
        (
            "rd",
            {**SOURCE_DOC, "source_size": 3},
            "source_size 3 does not match joint height 2",
        ),
        ("simulate", SOURCE_DOC, "{path} is not a channel problem"),
    ],
    ids=[
        "missing-file", "invalid-json", "json-array", "kind", "group-string",
        "empty-matrix", "output-size-mismatch", "source-size-mismatch",
        "simulate-source",
    ],
)
def test_problem_file_refusals_pinned(capsys, tmp_path, command, doc, message):
    path = tmp_path / "problem.json"
    if doc is not None:
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    argv = [command, str(path)] + (["--counts", "1"] if command == "simulate" else [])
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (2, "", "error: " + message.format(path=path) + "\n")


@pytest.mark.parametrize(
    "field, value, shown",
    [
        ("output_size", "1", "'1'"),
        ("output_size", True, "True"),
        ("output_size", 1.5, "1.5"),
        ("output_size", None, "None"),
        ("source_size", True, "True"),
        ("source_size", "1", "'1'"),
    ],
)
def test_problem_size_fields_must_be_integers(capsys, tmp_path, field, value, shown):
    # one output letter or one source letter, so a size read as 1 would match
    doc = (
        {"kind": "channel", "group": [2], "matrix": [[1], [1]]}
        if field == "output_size"
        else {"kind": "source", "group": [2], "joint": [[0.5, 0.5]]}
    )
    doc[field] = value
    path = tmp_path / "size.json"
    path.write_text(json.dumps(doc))
    command = "capacity" if field == "output_size" else "rd"
    code, out, err = run_cli(capsys, [command, str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: {field} {shown} is not an integer\n"


@pytest.mark.parametrize("field", ["output_size", "source_size"])
def test_problem_size_fields_integral_float(capsys, tmp_path, field):
    doc = dict(CHANNEL_DOC if field == "output_size" else SOURCE_DOC)
    command = "capacity" if field == "output_size" else "rd"
    path = tmp_path / "size.json"
    path.write_text(json.dumps(doc))
    _, want, _ = run_cli(capsys, [command, str(path)])
    doc[field] = 2.0
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, [command, str(path)])
    assert code == 0 and out == want


def test_problem_group_integral_float(capsys, tmp_path, merged_channel_file):
    doc = json.loads(Path(merged_channel_file).read_text())
    doc["group"] = [4.0]
    path = tmp_path / "float.json"
    path.write_text(json.dumps(doc))
    _, want, _ = run_cli(capsys, ["capacity", merged_channel_file])
    code, out, _ = run_cli(capsys, ["capacity", str(path)])
    assert code == 0 and out == want


def test_problem_entries_numbers_and_decimal_strings():
    doc = {"kind": "channel", "group": [2], "output_size": 2,
           "matrix": [[1, 0], ["0.25", 0.75]]}
    chan = parse_problem(doc).channel
    assert chan.matrix.tolist() == [[1.0, 0.0], [0.25, 0.75]]


@pytest.mark.parametrize(
    "field, value",
    [("distortion", [[0, "nan"], ["nan", 0]]), ("max_distortion", "nan")],
)
def test_rd_rejects_nan(capsys, tmp_path, field, value):
    doc = {"kind": "source", "group": [2], "source_size": 2,
           "joint": [[0.5, 0], [0, 0.5]], "distortion": [[0, 1], [1, 0]],
           "max_distortion": 0.5}
    doc[field] = value
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["rd", str(path)])
    assert code == 2 and out == "" and "finite" in err


def test_rd_matches_closed_form(capsys, identity_source_file):
    code, out, _ = run_cli(capsys, ["rd", identity_source_file, "--closed-form", "--json"])
    assert code == 0
    record = json.loads(out)
    assert abs(record["value"] - record["closed_form"]) < 1e-8
    assert abs(record["value"] - 2.0) < 1e-9


def test_theta_table_golden(capsys):
    code, out, _ = run_cli(
        capsys,
        ["theta-table", "8", "--support", "2,2;2,3", "--weights", "1/3,2/3", "--json"],
    )
    assert code == 0
    doc = json.loads(out)
    rows = {tuple(r["theta"]): r["omega"] for r in doc["rows"]}
    assert rows[(0,)] == 0.0
    assert abs(rows[(1,)] - 0.25) < 1e-12  # w23 / (2 w22 + 3 w23)
    assert abs(rows[(2,)] - 0.625) < 1e-12
    assert rows[(3,)] == 1.0


def test_theta_table_csv(capsys, tmp_path):
    out_csv = tmp_path / "table.csv"
    code, _, _ = run_cli(
        capsys,
        ["theta-table", "8", "--support", "2,2;2,3", "--csv", str(out_csv)],
    )
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "theta_2_3,omega,info_bits,ratio_bits"
    assert len(lines) == 5


def test_theta_table_bad_weights(capsys):
    code, _, err = run_cli(
        capsys,
        ["theta-table", "8", "--support", "2,2;2,3", "--weights", "1/3,1/3"],
    )
    assert code == 2 and "sum" in err


def test_theta_table_repeated_slot(capsys):
    code, out, err = run_cli(capsys, ["theta-table", "8", "--support", "2,2;2,2"])
    assert code == 2 and out == "" and "support slot (2,2) is repeated" in err



@pytest.mark.parametrize(
    "argv, message",
    [
        (["--support", "2,1,3"], "bad support slot '2,1,3': expected q,s"),
        (["--support", ";"], "no slots in support ';'"),
        (
            ["--support", "x,1"],
            "bad support slot 'x,1': invalid literal for int() with base 10: 'x'",
        ),
        (
            ["--support", "2,1;2,2", "--weights", "a,b"],
            "bad weights 'a,b': Invalid literal for Fraction: 'a'",
        ),
        (
            ["--support", "2,1;2,2", "--weights", "1/3,1/3,1/3"],
            "expected 2 weights, got 3",
        ),
    ],
    ids=[
        "three-numbers", "no-slots", "non-integer-slot", "bad-weights", "weight-count"
    ],
)
def test_theta_table_refusals_pinned(capsys, argv, message):
    code, out, err = run_cli(capsys, ["theta-table", "4"] + argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_theta_table_skips_empty_support_part(capsys):
    _, want, _ = run_cli(capsys, ["theta-table", "4", "--support", "2,1;2,2"])
    code, out, _ = run_cli(capsys, ["theta-table", "4", "--support", "2,1;;2,2"])
    assert code == 0 and out == want


def test_csv_for_capacity(capsys, merged_channel_file, tmp_path):
    out_csv = tmp_path / "cap.csv"
    code, _, _ = run_cli(capsys, ["capacity", merged_channel_file, "--csv", str(out_csv)])
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "theta_2_2,omega,info_bits,ratio_bits"
    assert len(lines) == 4


@pytest.mark.parametrize("target", ["missing/out.csv", ".", ""])
def test_unwritable_csv_is_a_validation_error(
    capsys, merged_channel_file, identity_source_file, tmp_path, target, monkeypatch
):
    # a missing directory, a directory or the empty path as --csv: exit 2 with
    # a message on stderr, no traceback and nothing on stdout, before any rate
    # call; the empty path is refused, not read as no --csv
    monkeypatch.setattr(cli, "channel_coding_rate", _no_rate_call)
    monkeypatch.setattr(cli, "source_coding_rate", _no_rate_call)
    path = str(tmp_path / target) if target else ""
    rate_calls = (["capacity", merged_channel_file], ["rd", identity_source_file])
    for argv in rate_calls + (["theta-table", "8", "--support", "2,2;2,3"],):
        code, out, err = run_cli(capsys, argv + ["--csv", path])
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {path}: ")
    # a failed solve leaves a writable path as it was: no new, no truncated file
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_text("kept\n")
    for argv in rate_calls:
        for kept in (new, old):
            code, out, err = run_cli(capsys, argv + ["--csv", str(kept)])
            assert code == 3 and out == "" and "the rate function was called" in err
    assert not new.exists() and old.read_text() == "kept\n"


def test_verify_ensemble_passes(capsys):
    code, out, _ = run_cli(
        capsys, ["verify-ensemble", "4", "--counts", "0,1", "--n", "1", "--trials", "40"]
    )
    assert code == 0
    assert out.count("PASS") == 6 and "FAIL" not in out


def _suite_lines(tables, pairs, pairwise, classes, equations, sampled=False):
    equations = f"{equations} equations checked{' (sampled)' if sampled else ''}"
    return (
        f"PASS generator-constraints: {tables} sampled tables, 0 violations\n"
        f"PASS homomorphism-law: {pairs} pairs checked, 0 failures\n"
        f"PASS pairwise-joint-law: {pairwise}, 0 failures\n"
        f"PASS census-bound: {classes} selector classes, 0 above the bound\n"
        f"PASS theta-set-equality: census has {classes} selectors, "
        f"support enumeration {classes}\n"
        f"PASS congruence-solver: {equations}, 0 mismatches\n"
    )


@pytest.mark.parametrize(
    "args, expected",
    [
        # sampled pairwise mode, every pair of an 8-element input group
        ("8 --counts 0,0,1 --n 3", (200, 1600, "64 pairs (sampled)", 4, 106)),
        ("4,3 --counts 0,1,1 --n 2", (200, 3600, "16 pairs (exhaustive)", 6, 24)),
        # |J| > 64: drawn homomorphism-law and pairwise-law pairs
        (
            "64,81 --counts 0,0,0,0,0,1,0,0,0,1 --n 1",
            (200, 1600, "16 pairs (sampled)", 35, 20490),
        ),
        # the per-pair seeds pass 2**64 and wrap
        (
            "9 --counts 1,1 --n 1 --seed 18446744073709551615",
            (200, 18225, "16 pairs (exhaustive)", 3, 96),
        ),
        (
            "2,4,3 --counts 1,1,1 --n 1 --trials 5",
            (5, 2880, "16 pairs (exhaustive)", 8, 24),
        ),
        (
            "4 --counts 0,1 --n 1 --trials 30 --seed 5",
            (30, 400, "16 pairs (exhaustive)", 3, 18),
        ),
        # above SIZE_CAP equations: the congruence check samples coefficients
        (
            "65536 --counts 1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0 --n 1 --trials 5",
            (5, 20, "4 pairs (sampled)", 2, 1155072, True),
        ),
        (
            "128,243 --counts 1,0,0,0,0,0,0,1,0,0,0,0 --n 1 --trials 5",
            (5, 180, "36 pairs (sampled)", 4, 139100),
        ),
    ],
)
def test_verify_ensemble_stdout_pinned(capsys, args, expected):
    code, out, err = run_cli(capsys, ["verify-ensemble"] + args.split())
    assert code == 0 and err == ""
    assert out == _suite_lines(*expected)


def test_verify_ensemble_needs_covering_counts(capsys):
    code, out, err = run_cli(
        capsys, ["verify-ensemble", "4,3", "--counts", "0,1,0", "--n", "1"]
    )
    assert code == 2 and out == "" and "prime" in err
    assert err == (
        "error: support ((2, 2),) has no slot for prime 3: "
        "the induced depth is undefined\n"
    )


def test_verify_ensemble_many_axes_reaches_cell_cap(capsys, monkeypatch):
    # n = 64: the sampled pairwise law's 1024 tables at each of the 2,016
    # coordinate pairs pass SIZE_CAP cells, refused before any table is drawn
    from groupcodes import ensemble

    def no_draw(*args, **kwargs):
        raise AssertionError("a table was drawn")

    monkeypatch.setattr(ensemble, "_sample_table", no_draw)
    argv = ["verify-ensemble", "4", "--counts", "0,1", "--n", "64"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err == (
        "error: pairwise tally of 2064384 cells (1024 tables x 2016 coordinate "
        "pairs) exceeds cap SIZE_CAP=1048576\n"
    )


def test_verify_ensemble_failure_exit_code(capsys, monkeypatch):
    from groupcodes import ensemble
    from groupcodes.ensemble import LemmaCheck

    # the CLI imports the ensemble module when the command runs, so the suite
    # is replaced where it is defined
    monkeypatch.setattr(
        ensemble,
        "lemma_suite",
        lambda *a, **k: [LemmaCheck("pairwise-joint-law", False, "forced")],
    )
    code, out, err = run_cli(capsys, ["verify-ensemble", "4", "--counts", "0,1"])
    assert code == 4
    assert "FAIL pairwise-joint-law" in out
    assert "violated: pairwise-joint-law" in err


@pytest.mark.parametrize("command", ["capacity", "rd"])
def test_nats_scales_cross_check_extras(
    capsys, merged_channel_file, identity_source_file, command
):
    path = merged_channel_file if command == "capacity" else identity_source_file
    argv = [command, path, "--closed-form", "--grid-check", "30", "--json"]
    _, bits, _ = run_cli(capsys, argv)
    _, nats, _ = run_cli(capsys, argv + ["--nats"])
    bits, nats = json.loads(bits), json.loads(nats)
    assert bits["closed_form"] > 0
    for key in ("value", "closed_form", "grid_value", "grid_gap"):
        assert nats[key] == pytest.approx(bits[key] * math.log(2), rel=1e-12, abs=0)


@pytest.mark.parametrize("units, value", [([], "1.000000000"), (["--nats"], "0.693147181")])
def test_cross_check_extras_print_nine_decimals(capsys, merged_channel_file, units, value):
    argv = ["capacity", merged_channel_file, "--closed-form", "--grid-check", "30"]
    code, out, _ = run_cli(capsys, argv + units)
    assert code == 0
    assert out.splitlines()[-3:] == [
        f"closed_form: {value}",
        "grid_gap: 0.000000000",
        f"grid_value: {value}",
    ]


def test_both_csv_tables_pinned(capsys, merged_channel_file, tmp_path):
    # capacity and theta-table write their rows under one header; a
    # theta-table row has no info or ratio, so those cells are empty
    rate_csv, table_csv = tmp_path / "rate.csv", tmp_path / "table.csv"
    for argv in (
        ["capacity", merged_channel_file, "--csv", str(rate_csv)],
        ["theta-table", "8", "--support", "2,2;2,3", "--csv", str(table_csv)],
    ):
        assert run_cli(capsys, argv)[0] == 0
    assert rate_csv.read_bytes() == (
        b"theta_2_2,omega,info_bits,ratio_bits\r\n"
        b"0,0.000000000,1.500000000,1.500000000\r\n"
        b"1,0.500000000,0.500000000,1.000000000\r\n"
        b"2,1.000000000,0.000000000,0.000000000\r\n"
    )
    assert table_csv.read_bytes() == (
        b"theta_2_3,omega,info_bits,ratio_bits\r\n"
        b"0,0.000000000,,\r\n"
        b"1,0.200000000,,\r\n"
        b"2,0.600000000,,\r\n"
        b"3,1.000000000,,\r\n"
    )


def test_zero_rate_prints_exact_zero(capsys, tmp_path):
    # Z27 with noise uniform on {0, 9, 18}: a rate of exactly 0 is 0.0 in
    # the JSON record, and the text output, 9 decimals, reads as it always has
    matrix = np.zeros((27, 27))
    for x in range(27):
        matrix[x, [x, (x + 9) % 27, (x + 18) % 27]] = 1 / 3
    doc = {
        "kind": "channel", "group": [27], "output_size": 27, "matrix": matrix.tolist()
    }
    path = tmp_path / "z27.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, ["capacity", str(path), "--json"])
    assert code == 0 and '  "value": 0.0,' in out.splitlines()
    assert json.loads(out)["value"] == 0.0
    code, out, _ = run_cli(capsys, ["capacity", str(path)])
    assert code == 0 and out == (
        "group: 27\n"
        "capacity (bits): 0.000000000\n"
        "optimal weights: w[3,1]=1.000000000 w[3,2]=0.000000000 w[3,3]=0.000000000\n"
        "critical thetas: (2)\n"
        "theta table:\n"
        "  theta=(2) omega=0.000000000 info=0.000000000 ratio=0.000000000\n"
        "  theta=(3) omega=1.000000000 info=0.000000000 ratio=0.000000000\n"
    )


def test_csv_stays_in_bits_with_nats(capsys, merged_channel_file, tmp_path):
    tables = []
    for units in ([], ["--nats"]):
        path = tmp_path / f"table{len(units)}.csv"
        code, _, _ = run_cli(
            capsys, ["capacity", merged_channel_file, "--csv", str(path)] + units
        )
        assert code == 0
        tables.append(path.read_text())
    assert tables[0].splitlines()[0] == "theta_2_2,omega,info_bits,ratio_bits"
    assert tables[0].splitlines()[1] == "0,0.000000000,1.500000000,1.500000000"
    assert tables[1] == tables[0]


def test_solver_disagreement_exit_code(capsys, monkeypatch, merged_channel_file):
    monkeypatch.setattr(cli, "channel_rate_prime_power", lambda chan: 99.0)
    code, _, err = run_cli(capsys, ["capacity", merged_channel_file, "--closed-form"])
    assert code == 3 and "disagrees" in err


def test_closed_form_checks_at_1e_9(capsys, monkeypatch, merged_channel_file):
    # the closed form and the solver agree to rounding on single-ring groups,
    # so a gap of 1e-8 bits is a disagreement
    closed = cli.channel_rate_prime_power
    monkeypatch.setattr(cli, "channel_rate_prime_power", lambda c: closed(c) + 1e-8)
    code, out, err = run_cli(capsys, ["capacity", merged_channel_file, "--closed-form"])
    assert code == 3 and out == "" and "disagrees" in err


def test_simulate(capsys, merged_channel_file):
    args = ["simulate", merged_channel_file, "--counts", "0,1", "--n", "2",
            "--trials", "60", "--seed", "9", "--json"]
    code, out1, _ = run_cli(capsys, args)
    assert code == 0
    doc = json.loads(out1)
    assert doc["trials"] == 60 and 0.0 <= doc["error_rate"] <= 1.0
    code, out2, _ = run_cli(capsys, args)
    assert out1 == out2


@pytest.mark.parametrize(
    "argv",
    [
        ["capacity", "{chan}", "--grid-check", "-3"],
        ["capacity", "{chan}", "--grid-check", "0"],
        ["verify-ensemble", "4", "--counts", "0,1", "--n", "0"],
        ["verify-ensemble", "4", "--counts", "0,1", "--trials", "0"],
        ["simulate", "{chan}", "--counts", "0,1", "--n", "0"],
        ["simulate", "{chan}", "--counts", "0,1", "--trials", "0"],
        ["simulate", "{chan}", "--counts", "0,1", "--seed", "-1"],
        ["simulate", "{chan}", "--counts", "0,1", "--seed", str(2**64)],
        ["verify-ensemble", "4", "--counts", "0,1", "--seed", "-1"],
    ],
)
def test_numeric_arguments_validated(capsys, merged_channel_file, argv):
    # every case ends with the offending flag and its value
    argv = [a.format(chan=merged_channel_file) for a in argv]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == "" and f"{argv[-2]} must be" in err



def test_seed_range_message_pinned(capsys):
    code, out, err = run_cli(capsys, ["group-info", "4", "--seed", "-1"])
    assert (code, out, err) == (2, "", "error: --seed must be in [0, 2**64), got -1\n")


def test_largest_seed_accepted(capsys, merged_channel_file):
    argv = ["simulate", merged_channel_file, "--counts", "0,1", "--trials", "5"]
    code, out, _ = run_cli(capsys, argv + ["--seed", str(2**64 - 1)])
    assert code == 0 and "trials: 5" in out


def test_parse_group_string():
    assert parse_group_string("4, 3 ,9,9") == (4, 3, 9, 9)
    with pytest.raises(ValidationError):
        parse_group_string("")
    with pytest.raises(ValidationError):
        parse_group_string("4,x")


def test_option_surface_pinned():
    # every subcommand's arguments as build_parser declares them: a flag
    # added, renamed or dropped shows up as a diff here
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: [" ".join(a.option_strings) or a.dest for a in p._actions]
        for name, p in sub.choices.items()
    }
    common = ["-h --help", "--json", "--seed"]
    rate = common + ["file", "--closed-form", "--grid-check", "--csv", "--nats"]
    ensemble = ["--counts", "--n", "--trials"]
    assert surface == {
        "group-info": common + ["group"],
        "capacity": rate,
        "rd": rate,
        "theta-table": common + ["group", "--support", "--weights", "--csv"],
        "verify-ensemble": common + ["group"] + ensemble,
        "simulate": common + ["file"] + ensemble,
    }
