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

from .groups import CyclicDecomposition, _whole, decompose
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


def _check_size(doc: dict, field: str, size: int, what: str) -> None:
    """An optional size field is an integer, or a float with an integer value,
    equal to the array's size; bools, strings and fractions are refused."""
    value = doc.get(field, size)
    if _whole(value) is None:
        raise ValidationError(f"{field} {value!r} is not an integer")
    if value != size:
        raise ValidationError(f"{field} {value} does not match {what} {size}")


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
        _check_size(doc, "output_size", len(matrix[0]), "matrix width")
        chan = ChannelSpec(dec.spec, matrix)
        return ChannelProblem(dec.orders, dec, chan)
    joint = _matrix(doc.get("joint"), "joint")
    _check_size(doc, "source_size", len(joint), "joint height")
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
    except RecursionError:
        raise ValidationError(f"{path} is not valid JSON: nested too deeply") from None
    return parse_problem(doc)


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
    identical inputs reproduce identical bytes.  ``extras`` are further rates
    in bits (cross-check values), scaled to ``units`` with the rest."""
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
        record.update({key: value * scale for key, value in extras.items()})
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
    # the extras, the cross-check rates: every number but the value, by key
    for key in sorted(record):
        if key != "value" and isinstance(record[key], float):
            lines.append(f"{key}: {fmt_number(record[key])}")
    return "\n".join(lines) + "\n"


def theta_csv_rows(terms: list[dict], levels) -> list[list[str]]:
    """A per-theta table as CSV rows under the stable column contract: theta
    components, omega, info_bits, ratio_bits (always bits).  A term without
    info and ratio, a theta-table row, leaves those cells empty."""
    header = [f"theta_{p}_{r}" for p, r in levels]
    header += ["omega", "info_bits", "ratio_bits"]
    keys = ("omega", "info", "ratio")
    return [header] + [
        [str(c) for c in term["theta"]]
        + [fmt_number(term[key]) if key in term else "" for key in keys]
        for term in terms
    ]
