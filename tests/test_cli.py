import json
import math

import numpy as np
import pytest

from groupcodes import cli
from groupcodes.problems import (
    load_problem,
    parse_group_string,
    parse_problem,
    problem_to_doc,
)
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


def test_verify_ensemble_needs_covering_counts(capsys):
    code, _, err = run_cli(
        capsys, ["verify-ensemble", "4,3", "--counts", "0,1,0", "--n", "1"]
    )
    assert code == 2 and "prime" in err


def test_verify_ensemble_failure_exit_code(capsys, monkeypatch):
    from groupcodes.ensemble import LemmaCheck

    monkeypatch.setattr(
        cli,
        "lemma_suite",
        lambda *a, **k: [LemmaCheck("pairwise-joint-law", False, "forced")],
    )
    code, out, err = run_cli(capsys, ["verify-ensemble", "4", "--counts", "0,1"])
    assert code == 4
    assert "FAIL pairwise-joint-law" in out
    assert "violated: pairwise-joint-law" in err


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


def test_problem_roundtrip_idempotent(merged_channel_file):
    problem = load_problem(merged_channel_file)
    doc1 = problem_to_doc(problem)
    doc2 = problem_to_doc(parse_problem(doc1))
    assert doc1 == doc2


def test_parse_group_string():
    assert parse_group_string("4, 3 ,9,9") == (4, 3, 9, 9)
    with pytest.raises(ValidationError):
        parse_group_string("")
    with pytest.raises(ValidationError):
        parse_group_string("4,x")
