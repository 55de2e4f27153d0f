"""Problem-file parsing, normalization, and result-record serialization.

A problem file is a single JSON document.  Channel problems:

    {"kind": "channel", "group": [4], "output_size": 3,
     "matrix": [[...], ...]}            # rows in canonical element order

Source problems:

    {"kind": "source", "group": [4], "source_size": 3,
     "joint": [[...], ...],             # columns in canonical element order
     "distortion": [[...], ...],        # optional, with "max_distortion"
     "max_distortion": 0.25}

Probabilities may be numbers or decimal strings.  The canonical element
order is lexicographic in the canonical residue vectors; `group-info` prints
the mapping from the user's cyclic coordinates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .groups import CyclicDecomposition, decompose
from .measures import ChannelSpec, SourceJoint, ValidationError
from .rates import RateResult


def parse_group_string(text: str) -> tuple[int, ...]:
    """Comma-separated cyclic orders, e.g. "4,3,9,9"."""
    try:
        orders = tuple(int(part.strip()) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ValidationError(f"bad group string {text!r}: {exc}") from None
    if not orders:
        raise ValidationError(f"bad group string {text!r}: no orders found")
    return orders


def _number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValidationError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except (ValueError, OverflowError):
        raise ValidationError(f"{where}: cannot parse {value!r}") from None
    if not math.isfinite(number):
        raise ValidationError(f"{where}: {value!r} is not a finite number")
    return number


def _matrix(raw: Any, where: str) -> np.ndarray:
    if not isinstance(raw, list) or not raw or not all(isinstance(r, list) for r in raw):
        raise ValidationError(f"{where}: expected a list of rows")
    width = len(raw[0])
    for i, row in enumerate(raw):
        if len(row) != width:
            raise ValidationError(f"{where}: row {i} has {len(row)} entries, not {width}")
    # plain JSON numbers convert as one array; anything else (decimal strings,
    # or the first bad entry, which names itself) goes entry by entry
    if {type(v) for row in raw for v in row} <= {int, float}:
        try:
            arr = np.array(raw, dtype=float)
            if np.isfinite(arr).all():
                return arr
        except OverflowError:  # an integer beyond the float range
            pass
    return np.array(
        [[_number(v, f"{where}[{i}]") for v in row] for i, row in enumerate(raw)]
    )


@dataclass(frozen=True)
class ChannelProblem:
    orders: tuple[int, ...]
    decomposition: CyclicDecomposition
    channel: ChannelSpec


@dataclass(frozen=True)
class SourceProblem:
    orders: tuple[int, ...]
    decomposition: CyclicDecomposition
    joint: SourceJoint


def parse_problem(doc: Any):
    if not isinstance(doc, dict):
        raise ValidationError("problem file must hold a JSON object")
    kind = doc.get("kind")
    if kind not in ("channel", "source"):
        raise ValidationError(f'problem "kind" must be "channel" or "source", got {kind!r}')
    group = doc.get("group")
    if not isinstance(group, list):
        raise ValidationError('problem needs a "group" list of cyclic orders')
    dec = decompose(group)
    if kind == "channel":
        matrix = _matrix(doc.get("matrix"), "matrix")
        output_size = doc.get("output_size", len(matrix[0]))
        if output_size != len(matrix[0]):
            raise ValidationError(
                f"output_size {output_size} does not match matrix width {len(matrix[0])}"
            )
        chan = ChannelSpec(dec.spec, matrix)
        return ChannelProblem(dec.orders, dec, chan)
    joint = _matrix(doc.get("joint"), "joint")
    source_size = doc.get("source_size", len(joint))
    if source_size != len(joint):
        raise ValidationError(
            f"source_size {source_size} does not match joint height {len(joint)}"
        )
    distortion = doc.get("distortion")
    if distortion is not None:
        distortion = _matrix(distortion, "distortion")
    max_distortion = doc.get("max_distortion")
    if max_distortion is not None:
        max_distortion = _number(max_distortion, "max_distortion")
    sj = SourceJoint(dec.spec, joint, distortion, max_distortion)
    return SourceProblem(dec.orders, dec, sj)


def load_problem(path: str):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None
    return parse_problem(doc)


def problem_to_doc(problem) -> dict:
    """Normalized document form; serializing a parsed file is idempotent."""
    if isinstance(problem, ChannelProblem):
        return {
            "kind": "channel",
            "group": list(problem.orders),
            "output_size": problem.channel.output_size,
            "matrix": [[float(v) for v in row] for row in problem.channel.matrix],
        }
    doc = {
        "kind": "source",
        "group": list(problem.orders),
        "source_size": problem.joint.source_size,
        "joint": [[float(v) for v in row] for row in problem.joint.joint],
    }
    if problem.joint.distortion is not None:
        doc["distortion"] = [[float(v) for v in row] for row in problem.joint.distortion]
    if problem.joint.max_distortion is not None:
        doc["max_distortion"] = float(problem.joint.max_distortion)
    return doc


# -- result records ----------------------------------------------------------

LN2 = math.log(2.0)


def fmt_number(value) -> str:
    """Nine decimals; an infinite value, float or the record's "inf", prints
    as inf."""
    return f"{float(value):.9f}"


def _json_safe(value: float):
    return "inf" if math.isinf(value) else value


def rate_record(
    command: list[str],
    orders: tuple[int, ...],
    kind: str,
    result: RateResult,
    units: str,
    extras: dict | None = None,
) -> dict:
    """Deterministic record of a rate computation; no wall-clock fields, so
    identical inputs reproduce identical bytes."""
    scale = 1.0 if units == "bits" else LN2
    spec = result.weights.spec
    record = {
        "command": command,
        "group": list(orders),
        "kind": kind,
        "units": units,
        "value": _json_safe(result.value * scale),
        "support": [list(slot) for slot in result.support],
        "weights": [
            [q, s, float(w)]
            for (q, s), w in zip(spec.weight_slots, result.weights.values)
        ],
        "critical_thetas": [list(t.components) for t in result.critical_thetas],
        "per_theta": [
            {
                "theta": list(term.theta.components),
                "omega": term.omega,
                "info": _json_safe(term.info_bits * scale),
                "ratio": _json_safe(term.ratio_bits * scale),
            }
            for term in result.per_theta
        ],
    }
    if extras:
        record.update(extras)
    return record


def record_to_json(record: dict) -> str:
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def record_to_text(record: dict) -> str:
    lines = [f"group: {','.join(str(n) for n in record['group'])}"]
    value = fmt_number(record["value"])
    lines.append(f"{record['kind']} ({record['units']}): {value}")
    parts = [f"w[{q},{s}]={fmt_number(w)}" for q, s, w in record["weights"]]
    lines.append("optimal weights: " + " ".join(parts))
    if record["critical_thetas"]:
        shown = " ".join(
            "(" + ",".join(str(c) for c in t) + ")" for t in record["critical_thetas"]
        )
        lines.append("critical thetas: " + shown)
    lines.append("theta table:")
    for term in record["per_theta"]:
        theta = "(" + ",".join(str(c) for c in term["theta"]) + ")"
        omega, info, ratio = (
            fmt_number(term[key]) for key in ("omega", "info", "ratio")
        )
        lines.append(f"  theta={theta} omega={omega} info={info} ratio={ratio}")
    for key in sorted(record):
        if key in (
            "command",
            "group",
            "kind",
            "units",
            "value",
            "support",
            "weights",
            "critical_thetas",
            "per_theta",
        ):
            continue
        lines.append(f"{key}: {record[key]}")
    return "\n".join(lines) + "\n"


def theta_csv_header(levels: list[tuple[int, int]]) -> list[str]:
    """The stable column contract: theta components, omega, info_bits,
    ratio_bits."""
    return [f"theta_{p}_{r}" for p, r in levels] + ["omega", "info_bits", "ratio_bits"]


def theta_csv_rows(record: dict, levels: list[tuple[int, int]]) -> list[list[str]]:
    """Per-theta table as CSV rows under theta_csv_header."""
    return [theta_csv_header(levels)] + [
        [str(c) for c in term["theta"]]
        + [fmt_number(term[key]) for key in ("omega", "info", "ratio")]
        for term in record["per_theta"]
    ]
