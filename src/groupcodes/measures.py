"""Exact discrete information measures, including the coset-conditioned ones.

All quantities are in bits.  Probability inputs are validated against a 1e-9
tolerance; 0*log(0) is treated as 0 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .groups import GroupSpec, Subgroup, ThetaVector

PROB_TOL = 1e-9


class ValidationError(ValueError):
    """A probability object failed its sanity checks."""


def _as_prob_array(values, shape_hint: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValidationError(f"{shape_hint} is empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{shape_hint} has non-finite entries")
    if np.any(arr < -PROB_TOL):
        raise ValidationError(f"{shape_hint} has negative entries")
    return np.clip(arr, 0.0, None)


def validate_distribution(p) -> np.ndarray:
    """Check a nonnegative vector sums to one (within 1e-9) and return it."""
    arr = _as_prob_array(p, "distribution")
    if arr.ndim != 1:
        raise ValidationError("distribution must be one-dimensional")
    if abs(arr.sum() - 1.0) > PROB_TOL:
        raise ValidationError(f"distribution sums to {arr.sum()}, not 1")
    return arr


def entropy(p) -> float:
    """Shannon entropy in bits, with 0*log(0) = 0."""
    arr = validate_distribution(p)
    nz = arr[arr > 0]
    return float(-(nz * np.log2(nz)).sum())


def _raw_entropy(arr: np.ndarray) -> float:
    nz = arr[arr > 0]
    return float(-(nz * np.log2(nz)).sum())


def mutual_information(joint) -> float:
    """Mutual information of a joint pmf given as a 2-D matrix."""
    arr = _as_prob_array(joint, "joint matrix")
    if arr.ndim != 2:
        raise ValidationError("joint matrix must be two-dimensional")
    if abs(arr.sum() - 1.0) > PROB_TOL:
        raise ValidationError(f"joint matrix sums to {arr.sum()}, not 1")
    value = (
        _raw_entropy(arr.sum(axis=1))
        + _raw_entropy(arr.sum(axis=0))
        - _raw_entropy(arr.reshape(-1))
    )
    # exact-independence inputs can land a few ulp below zero
    return max(0.0, value)


@dataclass(frozen=True)
class ChannelSpec:
    """A discrete memoryless channel with input alphabet a finite Abelian group.

    ``matrix[x][y]`` is W(y|x); rows follow the canonical element order of the
    group (lexicographic residue vectors).  The rate functionals evaluate the
    channel with the uniform input distribution.
    """

    group: GroupSpec
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = _as_prob_array(self.matrix, "channel matrix")
        if arr.ndim != 2:
            raise ValidationError("channel matrix must be two-dimensional")
        if arr.shape[0] != self.group.order:
            raise ValidationError(
                f"channel has {arr.shape[0]} rows but the group has "
                f"{self.group.order} elements"
            )
        rowsums = arr.sum(axis=1)
        bad = np.flatnonzero(np.abs(rowsums - 1.0) > PROB_TOL)
        if bad.size:
            raise ValidationError(f"channel row {bad[0]} sums to {rowsums[bad[0]]}")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @property
    def output_size(self) -> int:
        return self.matrix.shape[1]

    def uniform_joint(self) -> np.ndarray:
        return self.matrix / self.group.order


@dataclass(frozen=True)
class SourceJoint:
    """A joint pmf p[x][u] with reconstruction alphabet a finite Abelian group.

    Columns follow the canonical element order of the group.  The column
    marginal must be uniform (the rate functionals are defined only for
    uniform reconstructions); a non-uniform marginal is rejected rather than
    renormalized.  Optional distortion data: d[x][u] >= 0 and a target D with
    E[d] <= D.
    """

    group: GroupSpec
    joint: np.ndarray = field(repr=False)
    distortion: np.ndarray | None = field(default=None, repr=False)
    max_distortion: float | None = None

    def __post_init__(self) -> None:
        arr = _as_prob_array(self.joint, "source joint")
        if arr.ndim != 2:
            raise ValidationError("source joint must be two-dimensional")
        if arr.shape[1] != self.group.order:
            raise ValidationError(
                f"source joint has {arr.shape[1]} columns but the group has "
                f"{self.group.order} elements"
            )
        if abs(arr.sum() - 1.0) > PROB_TOL:
            raise ValidationError(f"source joint sums to {arr.sum()}, not 1")
        u_marginal = arr.sum(axis=0)
        target = 1.0 / self.group.order
        if np.any(np.abs(u_marginal - target) > PROB_TOL):
            raise ValidationError(
                "reconstruction marginal is not uniform; the group rate "
                "functionals require a uniform reconstruction variable"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "joint", arr)
        if self.distortion is not None:
            d = np.asarray(self.distortion, dtype=float)
            if d.shape != arr.shape:
                raise ValidationError("distortion matrix shape mismatch")
            if not np.all(np.isfinite(d)):
                raise ValidationError("distortion entries must be finite")
            if np.any(d < 0):
                raise ValidationError("distortion entries must be >= 0")
            d.setflags(write=False)
            object.__setattr__(self, "distortion", d)
            if self.max_distortion is not None:
                if not np.isfinite(self.max_distortion):
                    raise ValidationError(
                        f"distortion target {self.max_distortion} is not finite"
                    )
                expected = float((arr * d).sum())
                if expected > self.max_distortion + PROB_TOL:
                    raise ValidationError(
                        f"expected distortion {expected} exceeds target "
                        f"{self.max_distortion}"
                    )
        elif self.max_distortion is not None:
            raise ValidationError("distortion target given without a distortion matrix")

    @property
    def source_size(self) -> int:
        return self.joint.shape[0]

    def expected_distortion(self) -> float | None:
        if self.distortion is None:
            return None
        return float((self.joint * self.distortion).sum())


def coset_mi_source(sj: SourceJoint, theta: ThetaVector) -> float:
    """I([U]_theta; X): mutual information after merging reconstruction
    symbols into cosets of the theta-subgroup."""
    h = Subgroup(sj.group, theta)
    merged = np.zeros((sj.joint.shape[0], h.index))
    np.add.at(merged.T, h.label_indices(), sj.joint.T)
    return mutual_information(merged)


def mi_per_coset(chan: ChannelSpec, theta: ThetaVector) -> list[float]:
    """Mutual information of the channel restricted to each coset of the
    theta-subgroup (input uniform on the coset), in coset-label order."""
    h = Subgroup(chan.group, theta)
    # a stable sort keeps each coset's rows in canonical order
    rows = chan.matrix[np.argsort(h.label_indices(), kind="stable")]
    blocks = rows.reshape(h.index, h.order, chan.output_size) / h.order
    return [mutual_information(block) for block in blocks]


def coset_mi_channel(chan: ChannelSpec, theta: ThetaVector) -> float:
    """I(X; Y | [X]_theta) with X uniform on the group: the coset-average of
    the per-coset mutual informations."""
    per = mi_per_coset(chan, theta)
    return sum(per) / len(per)


def coset_mi_channel_chain(chan: ChannelSpec, theta: ThetaVector) -> float:
    """Same quantity as :func:`coset_mi_channel` via the chain identity
    I(X;Y) - I([X]_theta;Y); kept as an independent computation route."""
    h = Subgroup(chan.group, theta)
    joint = chan.uniform_joint()
    merged = np.zeros((h.index, chan.output_size))
    np.add.at(merged, h.label_indices(), joint)
    return mutual_information(joint) - mutual_information(merged)
