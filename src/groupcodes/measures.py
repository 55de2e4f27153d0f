"""Exact discrete information measures, including the coset-conditioned ones.

All quantities are in bits.  Probability inputs are validated against a 1e-9
tolerance; 0*log(0) is treated as 0 exactly.

The coset terms take one reshape per selector.  In canonical element order
the coset of an element under the theta-subgroup is its residues mod
p^theta, the low base-p digits of each ring, so a ring axis of size p^r
splits into (p^(r - theta), p^theta) and a sum over the high axes merges
every coset at once, in lexicographic label order.  Each term is a
difference of two conditional entropies from those sums: the source term
H(X) - H(X | [U]_theta), the channel term H(Y | [X]_theta) - H(Y | X).  H(X)
is the zero selector's H(X | [U]_theta) and H(Y | X) the full selector's
H(Y | [X]_theta), so those endpoint terms are exactly zero, and the rate
layer computes them once per joint or channel.  ``coset_mi_channel_chain``
merges rows by ``Subgroup.label_indices`` instead: the independent route.
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


def _row_entropies(arr: np.ndarray) -> np.ndarray:
    """The entropy of every distribution along the last axis, 0*log(0) = 0."""
    return -(arr * np.log2(np.where(arr > 0, arr, 1.0))).sum(axis=-1)


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


def _split_shape(spec: GroupSpec, theta: ThetaVector) -> tuple[Subgroup, tuple]:
    """The subgroup of theta, and the shape that splits each ring axis p^r of
    the canonical element order into (p^(r - theta), p^theta): the high axis
    runs over a coset, the low axis is the coset label, the residue mod
    p^theta.  High axes sit at the even positions, low axes at the odd."""
    h = Subgroup(spec, theta)
    shape = []
    for n, q in zip(spec.moduli, h._label_moduli):
        shape += [n // q, q]
    return h, tuple(shape)


def _coset_sums(spec: GroupSpec, theta: ThetaVector, values: np.ndarray):
    """The subgroup of theta, and values [order, ...] (rows in canonical
    element order) summed over each coset: [index, ...], in label order."""
    h, shape = _split_shape(spec, theta)
    cells = values.reshape(shape + values.shape[1:])
    sums = cells.sum(axis=tuple(range(0, len(shape), 2)))
    return h, sums.reshape((h.index,) + values.shape[1:])


def _source_coset_entropy(sj: SourceJoint, theta: ThetaVector) -> float:
    """H(X | [U]_theta): the coset sums of the joint's columns are the joint
    of the coset and X, and each coset's entropy of X is weighted by its
    mass (positive, as the reconstruction marginal is uniform).  At the zero
    selector there is one coset, and this is H(X)."""
    _, sums = _coset_sums(sj.group, theta, sj.joint.T)
    mass = sums.sum(axis=1)
    return float(mass @ _row_entropies(sums / mass[:, None]))


def _channel_coset_entropy(chan: ChannelSpec, theta: ThetaVector) -> float:
    """H(Y | [X]_theta) with X uniform: the mean entropy of the coset sums of
    the channel's rows, over |H_theta|.  At the full selector every coset is
    one input, and this is H(Y | X)."""
    h, sums = _coset_sums(chan.group, theta, chan.matrix)
    return float(_row_entropies(sums / h.order).mean())


def _source_terms(sj: SourceJoint, thetas) -> list[float]:
    """I([U]_theta; X) = H(X) - H(X | [U]_theta) for each theta.  H(X) is the
    zero selector's H(X | [U]_theta), computed once, so that term is exactly
    zero."""
    h_x = _source_coset_entropy(sj, ThetaVector.zero(sj.group))
    return [max(0.0, h_x - _source_coset_entropy(sj, th)) for th in thetas]


def _channel_terms(chan: ChannelSpec, thetas) -> list[float]:
    """I(X; Y | [X]_theta) = H(Y | [X]_theta) - H(Y | X) for each theta.
    H(Y | X) is the full selector's H(Y | [X]_theta), computed once, so that
    term is exactly zero."""
    h_y_x = _channel_coset_entropy(chan, ThetaVector.full(chan.group))
    return [max(0.0, _channel_coset_entropy(chan, th) - h_y_x) for th in thetas]


def coset_mi_source(sj: SourceJoint, theta: ThetaVector) -> float:
    """I([U]_theta; X): mutual information after merging reconstruction
    symbols into cosets of the theta-subgroup."""
    return _source_terms(sj, [theta])[0]


def coset_mi_channel(chan: ChannelSpec, theta: ThetaVector) -> float:
    """I(X; Y | [X]_theta) with X uniform on the group: the coset-average of
    the per-coset mutual informations."""
    return _channel_terms(chan, [theta])[0]


def mi_per_coset(chan: ChannelSpec, theta: ThetaVector) -> list[float]:
    """Mutual information of the channel restricted to each coset of the
    theta-subgroup (input uniform on the coset), in coset-label order."""
    h, shape = _split_shape(chan.group, theta)
    cells = chan.matrix.reshape(shape + (chan.output_size,))
    # labels first, then the position in the coset: rows stay canonical
    axes = tuple(range(1, len(shape), 2)) + tuple(range(0, len(shape), 2))
    blocks = cells.transpose(axes + (len(shape),)).reshape(h.index, h.order, -1)
    h_y_x = _row_entropies(blocks).mean(axis=1)
    return np.maximum(0.0, _row_entropies(blocks.mean(axis=1)) - h_y_x).tolist()


def coset_mi_channel_chain(chan: ChannelSpec, theta: ThetaVector) -> float:
    """Same quantity as :func:`coset_mi_channel` via the chain identity
    I(X;Y) - I([X]_theta;Y), merging rows by the label array of every
    element; kept as an independent computation route."""
    h = Subgroup(chan.group, theta)
    labels = h.label_indices()
    joint = chan.uniform_joint()
    merged = np.stack(
        [np.bincount(labels, weights=col, minlength=h.index) for col in joint.T],
        axis=1,
    )
    return mutual_information(joint) - mutual_information(merged)
