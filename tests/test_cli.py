import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from groupcodes import cli
from groupcodes.problems import parse_group_string, parse_problem
from groupcodes.measures import ValidationError


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
    # and pytest must not load with the CLI
    code = (
        "import sys, groupcodes.cli; print(sorted({m.split('.')[0] for m in "
        "sys.modules} & {'scipy', 'hypothesis', 'pytest', '_pytest'}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"


def test_cli_imports_ensemble_lazily():
    # the rate commands never load the ensemble module, and the package still
    # serves its names, loading it on first use
    code = (
        "import sys, groupcodes, groupcodes.cli\n"
        "print('groupcodes.ensemble' in sys.modules)\n"
        "print(groupcodes.InputGroup.__module__)\n"
        "print(hasattr(groupcodes, 'no_such_name'))\n"
        "print(set(groupcodes.__all__) <= set(dir(groupcodes)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "False\ngroupcodes.ensemble\nFalse\nTrue\n"


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


def test_capacity_grid_check_needs_a_step_per_prime(capsys, tmp_path):
    # every support of Z4+Z3 holds a slot of each of its two primes, so one
    # grid step is an invalid argument (exit 2), not a solver error
    doc = {"kind": "channel", "group": [4, 3], "output_size": 2,
           "matrix": [[1, 0] if x % 2 else [0, 1] for x in range(12)]}
    path = tmp_path / "z4z3.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["capacity", str(path), "--grid-check", "1"])
    assert code == 2 and out == ""
    assert "steps must be >= 2, the number of primes" in err
    assert run_cli(capsys, ["capacity", str(path), "--grid-check", "2"])[0] == 0


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


def test_csv_for_capacity(capsys, merged_channel_file, tmp_path):
    out_csv = tmp_path / "cap.csv"
    code, _, _ = run_cli(capsys, ["capacity", merged_channel_file, "--csv", str(out_csv)])
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "theta_2_2,omega,info_bits,ratio_bits"
    assert len(lines) == 4


def test_verify_ensemble_passes(capsys):
    code, out, _ = run_cli(
        capsys, ["verify-ensemble", "4", "--counts", "0,1", "--n", "1", "--trials", "40"]
    )
    assert code == 0
    assert out.count("PASS") == 6 and "FAIL" not in out


def _suite_lines(tables, pairs, pairwise, classes, equations):
    return (
        f"PASS generator-constraints: {tables} sampled tables, 0 violations\n"
        f"PASS homomorphism-law: {pairs} pairs checked, 0 failures\n"
        f"PASS pairwise-joint-law: {pairwise}, 0 failures\n"
        f"PASS census-bound: {classes} selector classes, 0 above the bound\n"
        f"PASS theta-set-equality: census has {classes} selectors, "
        f"support enumeration {classes}\n"
        f"PASS congruence-solver: {equations} equations checked, 0 mismatches\n"
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
    ],
)
def test_verify_ensemble_stdout_pinned(capsys, args, expected):
    code, out, err = run_cli(capsys, ["verify-ensemble"] + args.split())
    assert code == 0 and err == ""
    assert out == _suite_lines(*expected)


def test_verify_ensemble_needs_covering_counts(capsys):
    code, _, err = run_cli(
        capsys, ["verify-ensemble", "4,3", "--counts", "0,1,0", "--n", "1"]
    )
    assert code == 2 and "prime" in err


def test_verify_ensemble_many_axes_reaches_cell_cap(capsys):
    # n = 64 cell axes: the pair (0, 0) tallies one cell, the pair (0, 1)
    # has 4^64 cells and stops at the cap
    argv = ["verify-ensemble", "4", "--counts", "0,1", "--n", "64"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == "" and "above cap" in err


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
        ["simulate", "{chan}", "--counts", "0,1", "--trials", str(2**32 + 1)],
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
