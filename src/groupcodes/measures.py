"""Exact discrete information measures, including the coset-conditioned ones.

All quantities are in bits.  Probability inputs are validated against a 1e-9
tolerance; 0*log(0) is treated as 0 exactly.

The coset terms come from one walk down the selector lattice.  In canonical
element order the coset of an element under the theta-subgroup is its
residues mod p^theta, the low base-p digits of each ring, so the coset sums
of theta are an array with one axis of size p^theta per ring, in
lexicographic label order.  A step at one level splits each ring axis of
that level, of size p^theta, into (p, p^(theta - 1)) and sums the p axis:
the sums of theta lowered by one there, from theta's own.  The walk starts
at the full selector, the input itself, and visits every selector it needs
depth first, by steps in a fixed level order; its layout, the plan's walk
layer ``GroupSpec._walk_layer`` (``groups._walk_schedule``), depends on the
group alone.  An array is dropped once its children are done, and the
normalised sums go into entropy batches of at most the input's own size
(``groups.ENTROPY_BATCH_FLOOR`` rows on a smaller group, so that its terms
take one batch), so the walk's peak memory, a few times the input, stays
within that of one selector's reshape and sum, the route it replaced.  A
row's entropy does not depend on its batch.  Each term is a
difference of two conditional entropies: the source term H(X) -
H(X | [U]_theta), the channel term H(Y | [X]_theta) - H(Y | X).  H(X) is
the zero selector's H(X | [U]_theta) and H(Y | X) the full selector's
H(Y | [X]_theta), read from the same walk, so those endpoint terms are
exactly zero.  A single selector walks only its
own path, by the same steps, so its term equals the batch's exactly.  The
term route takes each selector as a row of the selector grid and builds no
subgroup object.  ``coset_mi_channel_chain`` merges rows by
``Subgroup.label_indices`` instead: the independent route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .groups import GroupSpec, Subgroup, ThetaVector, _walk_schedule

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


def _row_entropies(arr: np.ndarray) -> np.ndarray:
    """The entropy of every distribution along the last axis, 0*log(0) = 0,
    with one temporary the size of arr."""
    terms = np.where(arr > 0, arr, 1.0)
    np.log2(terms, out=terms)
    terms *= arr
    return -terms.sum(axis=-1)


def entropy(p) -> float:
    """Shannon entropy in bits, with 0*log(0) = 0."""
    return float(_row_entropies(validate_distribution(p)))


def mutual_information(joint) -> float:
    """Mutual information of a joint pmf given as a 2-D matrix."""
    arr = _as_prob_array(joint, "joint matrix")
    if arr.ndim != 2:
        raise ValidationError("joint matrix must be two-dimensional")
    if abs(arr.sum() - 1.0) > PROB_TOL:
        raise ValidationError(f"joint matrix sums to {arr.sum()}, not 1")
    value = float(
        _row_entropies(arr.sum(axis=1))
        + _row_entropies(arr.sum(axis=0))
        - _row_entropies(arr.reshape(-1))
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


def _walk(cells: np.ndarray, steps) -> Iterator[tuple[tuple, np.ndarray]]:
    """Walk the steps of ``groups._walk_schedule`` from cells [moduli...,
    letters], the full selector's values, each node's sums from its
    parent's, and yield the coset sums [p^theta per ring, letters] of each
    node with a put, with that put."""
    stack = [cells]
    for src, dst, shape, axes, put in steps:
        if shape is not None:
            stack[dst:] = [stack[src].reshape(shape).sum(axis=axes)]
        if put is not None:
            yield put, stack[-1]


def _cells(data) -> np.ndarray:
    """The channel's rows or the joint's columns as [moduli..., letters], a
    view in canonical element order."""
    moduli = data.group.moduli
    if isinstance(data, ChannelSpec):
        return data.matrix.reshape(moduli + (-1,))
    return np.moveaxis(data.joint.reshape((-1,) + moduli), 0, -1)


def _coset_entropies(data, steps, batches) -> np.ndarray:
    """H(Y | [X]_theta) (channel) or H(X | [U]_theta) (source) of every grid
    row the walk puts, NaN elsewhere.  Each node's coset sums are normalised
    into its rows of an entropy batch: the channel's by the coset size, each
    coset's conditional law of Y with X uniform; the joint's by each coset's
    mass, positive as the reconstruction marginal is uniform.  A full batch
    takes one ``_row_entropies``, and each node's rows reduce to the coset
    mean (channel) or the mass-weighted sum (source)."""
    channel = isinstance(data, ChannelSpec)
    cells = _cells(data)
    h = np.full(len(data.group._selector_layer[0]), math.nan)
    pending = iter(batches)
    for (start, stop, size), sums in _walk(cells, steps):
        if start == 0:
            rows, starts, targets, counts = next(pending)
            conditional = np.empty((rows, cells.shape[-1]))
            mass = None if channel else np.empty(rows)
        out = conditional[start:stop].reshape(sums.shape)
        if channel:
            np.divide(sums, size, out=out)
        else:
            coset_mass = mass[start:stop].reshape(sums.shape[:-1])
            np.sum(sums, axis=-1, out=coset_mass)
            np.divide(sums, coset_mass[..., None], out=out)
        if stop == rows:
            entropies = _row_entropies(conditional)
            del conditional
            if channel:
                h[targets] = np.add.reduceat(entropies, starts) / counts
            else:
                entropies *= mass
                h[targets] = np.add.reduceat(entropies, starts)
    return h


def _coset_terms(data, rows=None) -> np.ndarray:
    """The coset terms as one array over the selector grid's rows: the term
    of each row in ``rows``, by default the rows reachable from a support,
    and of the endpoint, whose entropy comes from the same walk, NaN on
    every other row.  Given rows, the walk visits only the paths to them and
    the endpoint, by the same steps, so each term equals the default's."""
    spec = data.group
    channel = isinstance(data, ChannelSpec)
    endpoint = len(spec._selector_layer[0]) - 1 if channel else 0
    if rows is None:
        schedule = spec._walk_layer
    else:
        schedule = _walk_schedule(spec, [*rows, endpoint])
    h = _coset_entropies(data, *schedule)
    return np.maximum(0.0, h - h[endpoint] if channel else h[endpoint] - h)


def _components(spec: GroupSpec, theta: ThetaVector) -> tuple[int, ...]:
    if theta.spec != spec:
        raise ValueError("theta bound to a different group")
    return theta.components


def _grid_row(spec: GroupSpec, theta: ThetaVector) -> int:
    """The row of a selector of ``spec`` in its selector grid."""
    radices = [r + 1 for _, r in spec.ring_levels]
    return int(np.ravel_multi_index(_components(spec, theta), radices))


def coset_mi_source(sj: SourceJoint, theta: ThetaVector) -> float:
    """I([U]_theta; X): mutual information after merging reconstruction
    symbols into cosets of the theta-subgroup."""
    row = _grid_row(sj.group, theta)
    return float(_coset_terms(sj, [row])[row])


def coset_mi_channel(chan: ChannelSpec, theta: ThetaVector) -> float:
    """I(X; Y | [X]_theta) with X uniform on the group: the coset-average of
    the per-coset mutual informations."""
    row = _grid_row(chan.group, theta)
    return float(_coset_terms(chan, [row])[row])


def mi_per_coset(chan: ChannelSpec, theta: ThetaVector) -> list[float]:
    """Mutual information of the channel restricted to each coset of the
    theta-subgroup (input uniform on the coset), in coset-label order: the
    entropy of the coset's mean row less the coset mean of the rows'
    entropies, both coset sums from the walk."""
    spec = chan.group
    steps, _ = _walk_schedule(spec, [_grid_row(spec, theta)])
    row_entropies = _row_entropies(chan.matrix).reshape(spec.moduli + (1,))
    ((_, _, size), sums), = _walk(_cells(chan), steps)
    (_, h_y_x), = _walk(row_entropies, steps)
    mi = _row_entropies(sums / size) - h_y_x[..., 0] / size
    return np.maximum(0.0, mi).reshape(-1).tolist()


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
