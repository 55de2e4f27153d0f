"""Finite Abelian groups in canonical prime-power form.

A group is represented as an ordered direct sum of rings Z_{p^r}; elements
are residue vectors with componentwise modular arithmetic.  ``GroupElement``
is the per-element public type; computations over the whole group use the
residue grid instead, one row per element in canonical order (last residue
fastest), and a subgroup gives the coset of every row in one label array.
The selector algebra is stated once, on arrays: ``_induce``, ``_min_depths``.
A GroupSpec caches the rate layer's selector plan, which depends on the
group alone: the selector grid, built on first read, the prefix supports and
dominance pairs, built by the first rate call, the covering supports, built
only where the best-first search or the grid oracle runs, and the walk of
the coset terms down the selector lattice, built by the first terms call.
Everything here is immutable and safe to share across threads: a cached
value computed twice in a race is identical, and its arrays are read-only.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Iterator, Sequence

import numpy as np

# Soft cap on element enumeration: groups in this library are desk-scale,
# fail loudly instead of hanging on a huge order.
ENUMERATION_CAP = 1 << 20
# Rows an entropy batch of the coset-terms walk may hold below the group's
# order, so that a small group's terms take one batch.
ENTROPY_BATCH_FLOOR = 4096


def _grid(radices) -> np.ndarray:
    """Every digit vector over the radices, one per row, last digit fastest
    (for moduli this is the canonical element order)."""
    return np.indices(tuple(radices)).reshape(len(radices), -1).T


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} by trial division up to 2^20.  The
    cofactor left after it is 1 or a prime when below 2^40; a cofactor at or
    above 2^40 is rejected rather than divided further."""
    if n < 2:
        raise ValueError(f"cannot factorize {n}: need an integer >= 2")
    out: dict[int, int] = {}
    rest, d = n, 2
    while d * d <= rest and d <= 1 << 20:
        while rest % d == 0:
            out[d] = out.get(d, 0) + 1
            rest //= d
        d += 1 if d == 2 else 2
    if rest >= 1 << 40:
        raise ValueError(
            f"cannot factorize order {n}: no divisor up to 2^20 splits {rest}"
        )
    if rest > 1:
        out[rest] = out.get(rest, 0) + 1
    return out


@lru_cache(maxsize=256)
def _is_prime(p: int) -> bool:
    return p >= 2 and factorize(p) == {p: 1}


@dataclass(frozen=True)
class GroupSpec:
    """Canonical decomposition of a finite Abelian group.

    ``rings`` is a tuple of (p, r, m) triples, sorted by (p, r, m), where m is
    the multiplicity index running contiguously from 1 to M_{p,r}.  The group
    is the direct sum of the rings Z_{p^r}, one per triple.
    """

    rings: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if not self.rings:
            raise ValueError("a group needs at least one ring")
        if list(self.rings) != sorted(self.rings):
            raise ValueError("rings must be sorted by (p, r, m)")
        seen: dict[tuple[int, int], int] = {}
        for p, r, m in self.rings:
            if not _is_prime(p):
                raise ValueError(f"ring modulus base {p} is not prime")
            if r < 1:
                raise ValueError(f"ring exponent {r} must be >= 1")
            if m != seen.get((p, r), 0) + 1:
                raise ValueError(f"multiplicity indices for ({p},{r}) not contiguous")
            seen[(p, r)] = m

    @cached_property
    def moduli(self) -> tuple[int, ...]:
        return tuple(p**r for p, r, _ in self.rings)

    @cached_property
    def order(self) -> int:
        return reduce(lambda a, b: a * b, self.moduli, 1)

    @cached_property
    def primes(self) -> tuple[int, ...]:
        return tuple(sorted({p for p, _, _ in self.rings}))

    def max_exponent(self, p: int) -> int:
        """The largest r with a Z_{p^r} ring (r_q in the rate formulas)."""
        return max(r for q, r, _ in self.rings if q == p)

    @cached_property
    def weight_slots(self) -> tuple[tuple[int, int], ...]:
        """All (q, s) pairs with q a prime of the group and 1 <= s <= r_q."""
        return tuple(
            (q, s) for q in self.primes for s in range(1, self.max_exponent(q) + 1)
        )

    @cached_property
    def ring_levels(self) -> tuple[tuple[int, int], ...]:
        """The distinct (p, r) pairs actually present among the rings."""
        return tuple(sorted({(p, r) for p, r, _ in self.rings}))

    @cached_property
    def _ring_level_index(self) -> tuple[int, ...]:
        """For each ring, the position of its (p, r) pair in ``ring_levels``."""
        pos = {pr: i for i, pr in enumerate(self.ring_levels)}
        return tuple(pos[(p, r)] for p, r, _ in self.rings)

    @cached_property
    def _slot_gaps(self) -> np.ndarray:
        """``_gaps`` of the weight slots [slots, L], read-only as it is shared."""
        gaps = _gaps(self.ring_levels, self.weight_slots)
        gaps.setflags(write=False)
        return gaps

    # -- the selector plan: what every rate call, oracle and Theta enumeration
    # on the group reads, in layers built on first read

    @cached_property
    def _selector_layer(self) -> tuple[np.ndarray, ...]:
        """The selector grid [n, L] (sorted by components: the zero selector
        first, the full one last), the least depths m(theta) [n, k] of every
        row on every weight slot, the omega coefficients n = m(theta) log2 q
        [n, k] and d = s log2 q [k] (also the packing LP's), ``hits``
        [n, k, L] of ``_theta_members`` and the rows reachable from the full
        support, which are those reachable from any: a slot at its full depth
        s gives |r - s|^+ + s >= r, so adding one never removes a selector."""
        levels, gaps = self.ring_levels, self._slot_gaps
        grid = _grid([r + 1 for _, r in levels])
        depths = _min_depths(gaps, grid)
        s = np.array([s for _, s in self.weight_slots])
        log_q = np.array([math.log2(q) for q, _ in self.weight_slots])
        # [n, k, L]: each slot alone, as a one-slot axis per slot
        hits = _induce(levels, gaps[:, None, :], depths[..., None]) == grid[:, None, :]
        reachable = _theta_members(hits, np.ones((1, len(gaps)), dtype=bool))[0]
        return _read_only(grid, depths, depths * log_q, s * log_q, hits, reachable)

    @cached_property
    def _thetas(self) -> tuple["ThetaVector", ...]:
        """The grid's rows as selectors."""
        grid = self._selector_layer[0]
        return tuple(ThetaVector(self, tuple(row)) for row in grid.tolist())

    @cached_property
    def _covering_layer(self) -> tuple[np.ndarray, ...]:
        """Every covering support, as ``_faces`` of their slot masks in
        tie-break order, built only where the rate's best-first search or
        the grid oracle runs.  On Z_(2^18) this layer holds about 50 MB, most
        of it ``top``."""
        return self._faces(_covering_masks(self))

    @cached_property
    def _prefix_layer(self) -> tuple[np.ndarray, ...]:
        """The supports a rate call with monotone terms solves: ``_faces`` of
        the prefixes of the slot order that give every prime a slot, the
        shortest first and the full support last, and the dominance pairs
        [2, pairs] of the reachable rows, each column two grid rows lo != hi
        with theta_lo <= theta_hi componentwise."""
        k, r = len(self.weight_slots), self.max_exponent(self.primes[-1])
        reachable = np.flatnonzero(self._selector_layer[-1])
        grid = self._selector_layer[0][reachable]
        below = (grid[:, None, :] <= grid[None, :, :]).all(axis=-1)
        np.fill_diagonal(below, False)
        pairs = reachable[np.array(np.nonzero(below))]
        return self._faces(np.tri(k, dtype=bool)[k - r :]) + _read_only(pairs)

    def _faces(self, columns: np.ndarray) -> tuple[np.ndarray, ...]:
        """Supports as slot masks ``columns`` [supports, k], Theta(S) of each
        as a row of ``members`` [supports, n], and ``top`` [supports, n], the
        largest omega_theta on the face S: it is linear-fractional, so
        largest at a vertex, the max over j in S of m_j(theta)/s_j."""
        _, depths, _, _, hits, _ = self._selector_layer
        members = _theta_members(hits, columns)
        top = np.zeros(members.shape)
        for j, (_, s) in enumerate(self.weight_slots):  # in place, slot by slot
            np.maximum(top, depths[:, j] / s, out=top, where=columns[:, [j]])
        return _read_only(columns, members, top)

    @cached_property
    def _walk_layer(self) -> tuple[tuple, tuple]:
        """The walk of ``_walk_schedule`` to the reachable rows, built by the
        first coset-terms call: what every terms computation on the group
        reads."""
        return _walk_schedule(self, np.flatnonzero(self._selector_layer[-1]))

    # -- elements ---------------------------------------------------------

    def element(self, residues: Sequence[int]) -> "GroupElement":
        """Make an element, reducing each component modulo its ring order."""
        if len(residues) != len(self.rings):
            raise ValueError(
                f"expected {len(self.rings)} residues, got {len(residues)}"
            )
        return GroupElement(self, tuple(v % n for v, n in zip(residues, self.moduli)))

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * len(self.rings))

    def elements(self) -> Iterator["GroupElement"]:
        """All elements in canonical (lexicographic residue vector) order."""
        if self.order > ENUMERATION_CAP:
            raise ValueError(
                f"group order {self.order} exceeds enumeration cap {ENUMERATION_CAP}"
            )
        for tup in itertools.product(*(range(n) for n in self.moduli)):
            yield GroupElement(self, tup)

    def element_index(self, x: "GroupElement") -> int:
        """Position of x in canonical element order (mixed-radix value)."""
        if x.spec != self:
            raise TypeError("element bound to a different group")
        idx = 0
        for v, n in zip(x.residues, self.moduli):
            idx = idx * n + v
        return idx

    def describe(self) -> str:
        return " + ".join(f"Z{p**r}({p},{r},{m})" for p, r, m in self.rings)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _covering_masks(spec: GroupSpec) -> np.ndarray:
    """All support patterns giving every prime at least one slot, as slot
    masks [supports, k] in the lexicographic order of their sorted slot
    tuples (the deterministic tie-break order)."""
    # every prime's nonzero patterns over its slots, in every combination
    bits = [_grid([2] * spec.max_exponent(q))[1:].astype(bool) for q in spec.primes]
    picks = _grid([len(b) for b in bits]).T
    masks = np.hstack([b[pick] for b, pick in zip(bits, picks)])
    # rows in the order of their sorted slot tuples, a prefix first: at the
    # first slot where two rows differ, the row holding it (key 1) follows a
    # row with no later slot (key 0) and precedes one with a later slot (2)
    later = np.logical_or.accumulate(masks[:, ::-1], axis=1)[:, ::-1]
    return masks[np.lexsort(np.where(masks, 1, 2 * later).T[::-1])]


def _walk_schedule(spec: GroupSpec, rows) -> tuple[tuple, tuple]:
    """The walk down the selector lattice (see measures) that reaches the
    selector grid's rows ``rows``: the steps of ``measures._walk`` and the
    batches of its entropies.  It starts at the full selector and reaches
    each selector by steps in nondecreasing level order, so its path is
    fixed, visiting only selectors with one of ``rows`` at or below them.

    A step is (src, dst, shape, axes, put): the parent's array is at stack
    slot src, reshaped to shape with the p axes of one level at axes, and
    the child goes to slot dst, dropping the deeper slots.  A node's last
    child replaces it, so an array is dropped once its children are done;
    children come in decreasing level order, the one with the most below it
    last.  put is None off the rows, else the node's rows (start, stop) in
    its entropy batch and |H_theta|, the coset size.  A batch is (its row
    count, the start of each node in it, their grid rows, their coset
    counts); a node that would take a batch past max(|G|,
    ENTROPY_BATCH_FLOOR) rows starts the next, so a batch holds no more rows
    than the input unless the group is smaller than that floor."""
    levels, ring_level = spec.ring_levels, spec._ring_level_index
    primes = [p for p, _, _ in spec.rings]
    grid = spec._selector_layer[0]
    targets = {tuple(theta): row for theta, row in zip(grid[rows].tolist(), rows)}
    steps: list = []

    def below(theta, level) -> bool:
        # the selectors a node reached at level reaches: theta lowered at
        # that level and after it
        head = theta[:level]
        return any(
            t[:level] == head and all(a <= b for a, b in zip(t[level:], theta[level:]))
            for t in targets
        )

    def visit(theta, level, src, dst, shape, axes) -> None:
        steps.append([src, dst, shape, axes, targets.get(theta)])
        kids = [
            (lv, theta[:lv] + (theta[lv] - 1,) + theta[lv + 1 :])
            for lv in reversed(range(level, len(levels)))
            if theta[lv]
        ]
        kids = [(lv, kid) for lv, kid in kids if below(kid, lv)]
        for n, (lv, kid) in enumerate(kids):
            shape, axes = [], []
            for p, at in zip(primes, ring_level):
                if at == lv:
                    axes.append(len(shape))
                    shape += [p, p ** kid[lv]]
                else:
                    shape.append(p ** theta[at])
            slot = dst if n == len(kids) - 1 else dst + 1
            visit(kid, lv, dst, slot, (*shape, -1), tuple(axes))

    visit(tuple(r for _, r in levels), 0, 0, 0, None, None)

    batches, batch, used = [], [], 0
    capacity = max(spec.order, ENTROPY_BATCH_FLOOR)
    for step in steps:
        if (row := step[4]) is None:
            continue
        count = math.prod(p ** int(grid[row, at]) for p, at in zip(primes, ring_level))
        if used + count > capacity:
            batches.append(_batch(used, batch))
            batch, used = [], 0
        batch.append((used, row, count))
        step[4] = (used, used + count, spec.order // count)
        used += count
    batches.append(_batch(used, batch))
    return tuple(map(tuple, steps)), tuple(batches)


def _batch(size: int, members: list) -> tuple:
    """An entropy batch of ``_walk_schedule`` from its (start, row, count)
    members."""
    starts, rows, counts = map(np.array, zip(*members))
    return (size, *_read_only(starts, rows, counts.astype(float)))


def _slot_values(spec: GroupSpec, mapping) -> tuple:
    """One value per weight slot of ``spec`` from a mapping over slots, 0
    where absent; a key that is not a weight slot is refused."""
    slots = spec.weight_slots
    if stray := [key for key in mapping if key not in slots]:
        raise ValueError(f"{stray[0]} is not a weight slot of this group")
    return tuple(mapping.get(slot, 0) for slot in slots)


@dataclass(frozen=True)
class GroupElement:
    """A residue vector bound to a GroupSpec; componentwise arithmetic."""

    spec: GroupSpec
    residues: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.residues) != len(self.spec.rings):
            raise ValueError("residue vector length does not match ring count")
        for v, n in zip(self.residues, self.spec.moduli):
            if not 0 <= v < n:
                raise ValueError(f"residue {v} out of range [0, {n})")

    def _check_binding(self, other: "GroupElement") -> None:
        if not isinstance(other, GroupElement):
            raise TypeError(f"cannot combine GroupElement with {type(other).__name__}")
        if other.spec != self.spec:
            raise TypeError("elements bound to different groups")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check_binding(other)
        return GroupElement(
            self.spec,
            tuple(
                (a + b) % n
                for a, b, n in zip(self.residues, other.residues, self.spec.moduli)
            ),
        )

    def __neg__(self) -> "GroupElement":
        return GroupElement(
            self.spec, tuple((-a) % n for a, n in zip(self.residues, self.spec.moduli))
        )

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.residues)


@dataclass(frozen=True)
class ThetaVector:
    """Per-(p, r) subgroup depth exponents, aligned with ``spec.ring_levels``.

    Component theta_{p,r} in [0, r] selects the subgroup p^theta Z_{p^r} in
    every ring at level (p, r).
    """

    spec: GroupSpec
    components: tuple[int, ...]

    def __post_init__(self) -> None:
        levels = self.spec.ring_levels
        if len(self.components) != len(levels):
            raise ValueError(
                f"expected {len(levels)} components for levels {levels}, "
                f"got {len(self.components)}"
            )
        for t, (p, r) in zip(self.components, levels):
            if not 0 <= t <= r:
                raise ValueError(f"component {t} for level ({p},{r}) not in [0, {r}]")

    @classmethod
    def zero(cls, spec: GroupSpec) -> "ThetaVector":
        return cls(spec, (0,) * len(spec.ring_levels))

    @classmethod
    def full(cls, spec: GroupSpec) -> "ThetaVector":
        """The all-r vector; selects the trivial subgroup {0}."""
        return cls(spec, tuple(r for _, r in spec.ring_levels))

    def __getitem__(self, level: tuple[int, int]) -> int:
        return self.components[self.spec.ring_levels.index(level)]

    def is_zero(self) -> bool:
        return all(t == 0 for t in self.components)

    def is_full(self) -> bool:
        return self.components == tuple(r for _, r in self.spec.ring_levels)

    def dominates(self, other: "ThetaVector") -> bool:
        """True when every component is >= the other's (deeper subgroup)."""
        return all(a >= b for a, b in zip(self.components, other.components))


# -- the selector algebra: slots (q, s) carry depths in [0, s], levels (p, r)
# carry selector components in [0, r]


def _gaps(levels, slots) -> np.ndarray:
    """[k, L]: |r - s|^+ at the levels (p, r) of the slot's prime, and r at
    the others, where a slot neither lowers a component nor raises a depth."""
    return np.array(
        [[max(r - s, 0) if p == q else r for p, r in levels] for q, s in slots]
    )


def _induce(levels, gaps, depths) -> np.ndarray:
    """The selector components [..., L] induced by per-slot depths [..., k]
    on slots with gaps [k, L]: each level (p, r) takes min(r, |r - s|^+ +
    depth) over the slots of its prime (r when it has none)."""
    depths = np.asarray(depths)[..., None]
    return np.minimum((depths + gaps).min(axis=-2), [r for _, r in levels])


def _min_depths(gaps, thetas) -> np.ndarray:
    """The least per-slot depths [..., k] whose induced selector is at least
    thetas [..., L] componentwise, on slots with gaps [k, L]: for slot (q, s),
    the max over levels (q, r) of (theta - |r - s|^+)^+.  These are also the
    omega numerator coefficients, and thetas is reachable from the slots
    exactly when these depths induce it back."""
    return (np.asarray(thetas)[..., None, :] - gaps).max(axis=-1, initial=0)


def _theta_members(hits, masks) -> np.ndarray:
    """Theta(S) of each support, a row of the slot masks [supports, k], as a
    row of a mask [supports, n] over the selector grid, from ``hits``
    [n, k, L]: whether slot j alone at depth m_j(theta) induces level l of
    theta exactly.

    Depths inducing theta are at least m(theta) and inducing is monotone, so
    theta is in Theta(S) exactly when m(theta) on S induces it back: when a
    slot of S alone hits each level exactly, as none induces less."""
    # one level at a time, so nothing larger than the mask is built
    members = np.ones((len(masks), len(hits)), dtype=bool)
    for level in range(hits.shape[2]):
        members &= masks @ hits[:, :, level].T
    return members


@dataclass(frozen=True)
class Subgroup:
    """Handle for the subgroup selected by a ThetaVector.

    The subgroup is the direct sum of p^theta Z_{p^r} over all rings; cosets
    are labelled by the componentwise residues modulo p^theta.
    """

    spec: GroupSpec
    theta: ThetaVector

    def __post_init__(self) -> None:
        if self.theta.spec != self.spec:
            raise ValueError("theta bound to a different group")

    @cached_property
    def _ring_depths(self) -> tuple[int, ...]:
        return tuple(
            self.theta.components[i] for i in self.spec._ring_level_index
        )

    @cached_property
    def _label_moduli(self) -> tuple[int, ...]:
        return tuple(p**t for (p, _, _), t in zip(self.spec.rings, self._ring_depths))

    @cached_property
    def index(self) -> int:
        """Number of cosets |G : H|."""
        return reduce(lambda a, b: a * b, self._label_moduli, 1)

    @cached_property
    def order(self) -> int:
        return self.spec.order // self.index

    def coset_label(self, x: GroupElement) -> tuple[int, ...]:
        """Canonical coset id: componentwise residue mod p^theta."""
        if x.spec != self.spec:
            raise TypeError("element bound to a different group")
        return tuple(v % q for v, q in zip(x.residues, self._label_moduli))

    def label_indices(self) -> np.ndarray:
        """The coset of every element in canonical order, as the position of
        its label among all labels in lexicographic order."""
        labels = _grid(self.spec.moduli) % self._label_moduli
        return np.ravel_multi_index(tuple(labels.T), self._label_moduli)

    def __contains__(self, x: GroupElement) -> bool:
        return self.coset_label(x) == (0,) * len(self.spec.rings)

    def elements(self) -> Iterator[GroupElement]:
        if self.order > ENUMERATION_CAP:
            raise ValueError(
                f"subgroup order {self.order} exceeds cap {ENUMERATION_CAP}"
            )
        ranges = [
            range(0, n, q) for n, q in zip(self.spec.moduli, self._label_moduli)
        ]
        for tup in itertools.product(*ranges):
            yield GroupElement(self.spec, tup)


def _crt_combine(residues: Sequence[int], moduli: Sequence[int]) -> int:
    """Solve x = residues[i] mod moduli[i] for pairwise coprime moduli."""
    total = reduce(lambda a, b: a * b, moduli, 1)
    x = 0
    for v, n in zip(residues, moduli):
        rest = total // n
        x += v * rest * pow(rest, -1, n)
    return x % total


@dataclass(frozen=True)
class CyclicDecomposition:
    """Canonical form of a product of cyclic groups, with the explicit
    isomorphism between the user's tuple representation and the residue
    vectors of the canonical spec."""

    orders: tuple[int, ...]
    spec: GroupSpec
    # per factor: ((ring position, prime power modulus), ...)
    factor_slots: tuple[tuple[tuple[int, int], ...], ...]

    def to_canonical(self, values: Sequence[int]) -> GroupElement:
        """Map a tuple of the cyclic factors to the canonical element (CRT split)."""
        if len(values) != len(self.orders):
            raise ValueError(f"expected {len(self.orders)} values, got {len(values)}")
        residues = [0] * len(self.spec.rings)
        for value, n, slots in zip(values, self.orders, self.factor_slots):
            if not 0 <= value < n:
                raise ValueError(f"value {value} out of range for Z_{n}")
            for pos, modulus in slots:
                residues[pos] = value % modulus
        return GroupElement(self.spec, tuple(residues))

    def from_canonical(self, x: GroupElement) -> tuple[int, ...]:
        """Inverse of :meth:`to_canonical` (componentwise CRT reconstruction)."""
        if x.spec != self.spec:
            raise TypeError("element bound to a different group")
        out = []
        for slots in self.factor_slots:
            vals = [x.residues[pos] for pos, _ in slots]
            mods = [modulus for _, modulus in slots]
            out.append(_crt_combine(vals, mods))
        return tuple(out)


def _cyclic_order(value) -> int:
    """An integer order >= 2, or a float with such a value (JSON writers may
    print 4 as 4.0); bools, strings and fractional values are rejected."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"cyclic order {value!r} is not an integer")
    if value < 2:
        raise ValueError(f"cyclic order {value} is invalid: orders must be >= 2")
    return int(value)


def _check_count(name: str, value) -> None:
    """A blocklength, trial, sample or grid step count is an integer >= 1: a
    bool or a float is refused, not read as 1 or truncated."""
    if isinstance(value, (bool, np.bool_)) or not hasattr(value, "__index__"):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def decompose(cyclic_orders: Sequence[int]) -> CyclicDecomposition:
    """Canonically decompose a direct sum of cyclic groups Z_{n_1} + ... + Z_{n_k}.

    Each factor is split into its prime-power parts; multiplicity indices are
    assigned in input order so the isomorphism is deterministic.
    """
    orders = tuple(_cyclic_order(n) for n in cyclic_orders)
    if not orders:
        raise ValueError("need at least one cyclic order")
    counts: dict[tuple[int, int], int] = {}
    # (p, r, m) -> owning factor, in input order
    assignments: list[list[tuple[int, int, int]]] = []
    for n in orders:
        triples = []
        for p, r in sorted(factorize(n).items()):
            counts[(p, r)] = counts.get((p, r), 0) + 1
            triples.append((p, r, counts[(p, r)]))
        assignments.append(triples)
    rings = tuple(sorted(t for triples in assignments for t in triples))
    spec = GroupSpec(rings)
    position = {t: i for i, t in enumerate(rings)}
    factor_slots = tuple(
        tuple((position[(p, r, m)], p**r) for p, r, m in triples)
        for triples in assignments
    )
    return CyclicDecomposition(orders, spec, factor_slots)
