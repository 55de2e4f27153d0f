"""Finite Abelian groups in canonical prime-power form.

A group is represented as an ordered direct sum of rings Z_{p^r}; elements
are residue vectors with componentwise modular arithmetic.  ``GroupElement``
is the per-element public type; computations over the whole group use the
residue grid instead, one row per element in canonical order (last residue
fastest), ``_index`` maps any digit rows back to their positions in such a
grid, and a subgroup gives the coset of every row in one label array.
The selector algebra is stated once, on arrays: ``_induce``, ``_min_depths``.
A GroupSpec caches the rate layer's selector plan, which depends on the group
alone, each layer built by the first call that reads it and sized by the table
and the slots: the table of reachable selectors, the selectors that enter a
rate, folded over the weight slots in at most the table times one slot's
depths, every array of the plan indexed by its rows; the prefixes of the slot
order, which rate calls search; and the walk of the coset terms down the
selector lattice, what rate calls read.  No layer holds the 2^k covering
supports: a call that takes them builds what it reads of them for itself.
A GroupSpec also keeps a selector memo, which the ensemble's checks read and
which builds no layer of the plan: the group's one ThetaVector per tuple of
components, validated once when first asked for, and beside it each
selector's least depths (``_min_depths``), computed when a bound first asks
for them.  Both fill on demand, with only the selectors asked for.  Their
dicts are made with the group, so every thread fills the same ones, and an
entry goes in by ``dict.setdefault``: two threads that race to make one
both get the one that went in, so a race keeps one equal value.  The rows
of each slot alone at every depth, which the selector table's fold and the
census's fold both lower by, are cached once per group.
Everything here is immutable and safe to share across threads: a cached
value computed twice in a race is identical, and its arrays are read-only.
Every cap of the package is checked, and a size past it refused in one form,
by ``_past_cap``.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

import numpy as np

# The most elements an enumeration lists and cells an ensemble array holds:
# groups here are desk-scale, so a larger size is refused, not left to hang.
SIZE_CAP = 1 << 20
# Rows an entropy batch of the coset-terms walk may hold below the group's
# order, so that a small group's terms take one batch.
ENTROPY_BATCH_FLOOR = 4096


def _grid(radices) -> np.ndarray:
    """Every digit vector over the radices, one per row, last digit fastest
    (for moduli this is the canonical element order)."""
    return np.indices(tuple(radices)).reshape(len(radices), -1).T


def _index(digits: np.ndarray, radices) -> np.ndarray:
    """The inverse of ``_grid``: the position of each digit row [...,
    len(radices)] in ``_grid(radices)``, last digit fastest, by Horner steps."""
    index = digits[..., 0]
    for j in range(1, len(radices)):
        index = index * radices[j] + digits[..., j]
    return index


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
        rings = tuple(
            (
                _integer("ring prime", p),
                _integer("ring exponent", r),
                _integer("ring multiplicity", m),
            )
            for p, r, m in self.rings
        )
        object.__setattr__(self, "rings", rings)
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
        # the selector memo (see the module docstring), made here so that
        # every thread fills the same dicts
        object.__setattr__(self, "_theta_memo", {})
        object.__setattr__(self, "_depth_memo", {})

    @cached_property
    def moduli(self) -> tuple[int, ...]:
        return tuple(p**r for p, r, _ in self.rings)

    @cached_property
    def order(self) -> int:
        return math.prod(self.moduli)

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
        """The table of reachable selectors [n, L]: the selectors that the
        full support reaches, which are those any support reaches (a slot at
        its full depth s gives |r - s|^+ + s >= r, so adding one never removes
        a selector), in grid order (lexicographic), so the zero selector comes
        first and the full one last; then ``_omega_coefficients`` of its rows
        and ``hits`` [n, k, L] of ``_theta_members``.

        The table is folded over the slots from the full selector, never from
        the grid of every selector: ``_induce`` is a minimum over slots and a
        slot at full depth lowers no level, so once slots 0..j are folded in,
        each row is the selector induced by depths on them with every other
        slot at full depth, itself a row of the table.  So the fold holds at
        most n (s_j + 1) rows, the rows so far lowered by slot j alone at each
        depth 0..s_j, before ``_runs`` drops repeats."""
        levels, gaps = self.ring_levels, self._slot_gaps
        table = np.array([[r for _, r in levels]])
        for alone in self._slot_alone:
            table = _runs(np.minimum(table[:, None], alone).reshape(-1, len(levels)))
        depths, n, d = self._omega_coefficients(table)
        # [n, k, L]: each slot alone, as a one-slot axis per slot
        hits = _induce(levels, gaps[:, None, :], depths[..., None]) == table[:, None, :]
        return _read_only(table, depths, n, d, hits)

    @cached_property
    def _slot_alone(self) -> tuple[np.ndarray, ...]:
        """Per weight slot (q, s), the selectors [s + 1, L] it induces alone
        at each depth 0..s, every other slot at full depth: what the folds of
        the selector table and of the ensemble's census lower rows by."""
        slots, gaps = self.weight_slots, self._slot_gaps
        depths = np.arange(max(s for _, s in slots) + 1)[:, None, None]
        # [depths, k, L]: each slot alone, as a one-slot axis per slot
        (alone,) = _read_only(_induce(self.ring_levels, gaps[:, None], depths))
        return tuple(alone[: s + 1, j] for j, (_, s) in enumerate(slots))

    def _omega_coefficients(self, thetas) -> tuple[np.ndarray, ...]:
        """The least depths m(theta) [..., k] of selectors thetas [..., L] on
        every weight slot and the omega coefficients n = m(theta) log2 q
        [..., k] and d = s log2 q [k], also the packing LP's."""
        depths = _min_depths(self._slot_gaps, thetas)
        s, log_q = np.array([(s, math.log2(q)) for q, s in self.weight_slots]).T
        return depths, depths * log_q, s * log_q

    @cached_property
    def _thetas(self) -> tuple["ThetaVector", ...]:
        """The table's rows as selectors."""
        table = self._selector_layer[0]
        return tuple(ThetaVector(self, tuple(row)) for row in table.tolist())

    @cached_property
    def _prefix_layer(self) -> tuple[np.ndarray, ...]:
        """The prefixes of the slot order that give every prime a slot, as
        ``_faces`` of their slot masks, the shortest first and the full
        support last (their tie-break order): what a rate call searches
        where no zero channel term pins a slot."""
        k, r = len(self.weight_slots), self.max_exponent(self.primes[-1])
        return self._faces(np.tri(k, dtype=bool)[k - r :])

    def _faces(self, columns: np.ndarray) -> tuple[np.ndarray, ...]:
        """Supports as slot masks ``columns`` [supports, k], Theta(S) of each
        as a row of ``members`` [supports, n], and ``top`` [supports, n], the
        largest omega_theta on the face S: it is linear-fractional, so
        largest at a vertex, the max over j in S of m_j(theta)/s_j.  Only
        the prefix layer's faces are kept; a call builds any others."""
        _, depths, _, _, hits = self._selector_layer
        members = _theta_members(hits, columns)
        top = np.zeros(members.shape)
        for j, (_, s) in enumerate(self.weight_slots):  # in place, slot by slot
            np.maximum(top, depths[:, j] / s, out=top, where=columns[:, [j]])
        return _read_only(columns, members, top)

    @cached_property
    def _walk_layer(self) -> tuple[tuple, tuple]:
        """The walk of ``_walk_schedule`` to the table's rows, built by the
        first coset-terms call: what every terms computation on the group
        reads."""
        return _walk_schedule(self, list(map(tuple, self._selector_layer[0].tolist())))

    # -- the selector memo: what the ensemble's checks read, apart from the
    # plan and building none of it

    def _theta(self, components: tuple[int, ...]) -> "ThetaVector":
        """The group's one selector of these components, Python ints in
        range, validated by the call that first makes it."""
        theta = self._theta_memo.get(components)
        if theta is None:
            theta = ThetaVector(self, components)
            theta = self._theta_memo.setdefault(components, theta)
        return theta

    def _least_depths(self, components: tuple[int, ...]) -> tuple[int, ...]:
        """The least depths m(theta) on every weight slot of the selector of
        these components, by ``_min_depths`` on the first call for them.  Any
        integers in range may key it, a caller's numpy ints too, so it is kept
        apart from the selectors, whose components are Python ints."""
        depths = self._depth_memo.get(components)
        if depths is None:
            depths = tuple(_min_depths(self._slot_gaps, components).tolist())
            depths = self._depth_memo.setdefault(components, depths)
        return depths

    # -- elements ---------------------------------------------------------

    def element(self, residues: Sequence[int]) -> "GroupElement":
        """Make an element, reducing each component modulo its ring order."""
        if len(residues) != len(self.rings):
            raise ValueError(
                f"expected {len(self.rings)} residues, got {len(residues)}"
            )
        residues = (_integer("residue", v) for v in residues)
        return GroupElement(self, tuple(v % n for v, n in zip(residues, self.moduli)))

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * len(self.rings))

    def elements(self) -> Iterator["GroupElement"]:
        """All elements in canonical (lexicographic residue vector) order."""
        _past_cap(self.order, SIZE_CAP, "SIZE_CAP", "group", "elements")
        for tup in itertools.product(*(range(n) for n in self.moduli)):
            yield GroupElement(self, tup)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _runs(rows: np.ndarray) -> np.ndarray:
    """The distinct rows [n, L] in lexicographic order."""
    rows = rows[np.lexsort(rows.T[::-1])]
    return rows[np.concatenate(([True], (rows[1:] != rows[:-1]).any(axis=1)))]


def _covering_masks(spec: GroupSpec, most: int | None = None) -> np.ndarray:
    """All support patterns giving every prime at least one slot, or those of
    at most ``most`` slots (at least the number of primes), as slot masks
    [supports, k] in the lexicographic order of their sorted slot tuples
    (the deterministic tie-break order)."""
    # every prime's nonzero patterns over its slots, of at most its share of
    # ``most`` (the other primes take a slot each), in every combination
    share = len(spec.weight_slots) if most is None else most - len(spec.primes) + 1
    bits = []
    for r in map(spec.max_exponent, spec.primes):
        if share >= r:
            bits.append(_grid([2] * r)[1:].astype(bool))
        else:
            rows = []
            for m in range(1, share + 1):
                picks = np.array(list(itertools.combinations(range(r), m)))
                rows.append(np.zeros((len(picks), r), dtype=bool))
                np.put_along_axis(rows[-1], picks, True, axis=1)
            bits.append(np.vstack(rows))
    picks = _grid([len(b) for b in bits]).T
    masks = np.hstack([b[pick] for b, pick in zip(bits, picks)])
    if most is not None:
        masks = masks[masks.sum(axis=1) <= most]
    # rows in the order of their sorted slot tuples, a prefix first: at the
    # first slot where two rows differ, the row holding it (key 1) follows a
    # row with no later slot (key 0) and precedes one with a later slot (2)
    later = np.logical_or.accumulate(masks[:, ::-1], axis=1)[:, ::-1]
    return masks[np.lexsort(np.where(masks, 1, 2 * later).T[::-1])]


def _walk_schedule(spec: GroupSpec, thetas) -> tuple[tuple, tuple]:
    """The walk down the selector lattice (see measures) that reaches the
    selectors ``thetas``, distinct tuples of components: the steps of
    ``measures._walk`` and the batches of its entropies.  It starts at the
    full selector and reaches each selector by lowering its levels in order,
    first to last, so its path is fixed, and the walk visits exactly the
    selectors on its targets' paths: for a target t, each level l and each v
    from t_l to r_l - 1, the selector t[:l] + (v,) + full[l+1:].

    A step is (src, dst, shape, axes, put): the parent's array is at stack
    slot src, reshaped to shape with the p axes of one level at axes, and
    the child goes to slot dst, dropping the deeper slots.  A node's last
    child replaces it, so an array is dropped once its children are done;
    children come in decreasing level order, the one with the most below it
    last.  put is None off ``thetas``, else the node's rows (start, stop) in
    its entropy batch and |H_theta|, the coset size.  A batch is (its row
    count, the start of each node in it, their rows in ``thetas``, their
    coset counts); a node that would take a batch past max(|G|,
    ENTROPY_BATCH_FLOOR) rows starts the next, so a batch holds no more rows
    than the input unless the group is smaller than that floor."""
    levels, ring_level = spec.ring_levels, spec._ring_level_index
    primes = [p for p, _, _ in spec.rings]
    full = tuple(r for _, r in levels)
    targets = {theta: i for i, theta in enumerate(thetas)}
    paths = {
        t[:l] + (v,) + full[l + 1 :]
        for t in targets
        for l, r in enumerate(full)
        for v in range(t[l], r)
    }
    capacity = max(spec.order, ENTROPY_BATCH_FLOOR)
    steps, batches, batch, used = [], [], [], 0

    def visit(theta, level, src, dst, shape, axes) -> None:
        nonlocal batch, used
        put = None
        if theta in targets:
            count = math.prod(p ** theta[at] for p, at in zip(primes, ring_level))
            if used + count > capacity:
                batches.append(_batch(used, batch))
                batch, used = [], 0
            batch.append((used, targets[theta], count))
            put = (used, used + count, spec.order // count)
            used += count
        steps.append((src, dst, shape, axes, put))
        kids = [
            (lv, kid)
            for lv in reversed(range(level, len(levels)))
            if (kid := theta[:lv] + (theta[lv] - 1,) + theta[lv + 1 :]) in paths
        ]
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

    visit(full, 0, 0, 0, None, None)
    batches.append(_batch(used, batch))
    return tuple(steps), tuple(batches)


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
            if not 0 <= _integer("residue", v) < n:
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
            if not 0 <= _integer("selector component", t) <= r:
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


def _components(spec: GroupSpec, theta: ThetaVector) -> tuple[int, ...]:
    """The components of a selector of ``spec``; another group's is refused."""
    if theta.spec != spec:
        raise ValueError("theta bound to a different group")
    return theta.components


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
    row of a mask [supports, n] over the table of reachable selectors, from
    ``hits`` [n, k, L]: whether slot j alone at depth m_j(theta) induces
    level l of theta exactly.

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
        _components(self.spec, self.theta)

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
        return math.prod(self._label_moduli)

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
        return _index(labels, self._label_moduli)

    def __contains__(self, x: GroupElement) -> bool:
        return self.coset_label(x) == (0,) * len(self.spec.rings)

    def elements(self) -> Iterator[GroupElement]:
        _past_cap(self.order, SIZE_CAP, "SIZE_CAP", "subgroup", "elements")
        ranges = [
            range(0, n, q) for n, q in zip(self.spec.moduli, self._label_moduli)
        ]
        for tup in itertools.product(*ranges):
            yield GroupElement(self.spec, tup)


def _crt_combine(residues: Sequence[int], moduli: Sequence[int]) -> int:
    """Solve x = residues[i] mod moduli[i] for pairwise coprime moduli."""
    total = math.prod(moduli)
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
            if not 0 <= _integer("value", value) < n:
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


def _whole(value) -> int | None:
    """An integer, Python's or numpy's, or a float with an integer value (JSON
    writers may print 4 as 4.0), as an int; None for anything else, bools too."""
    if isinstance(value, float):
        return int(value) if value.is_integer() else None
    if isinstance(value, (bool, np.bool_)) or not hasattr(value, "__index__"):
        return None
    return operator.index(value)


def _cyclic_order(value) -> int:
    """A cyclic order: an integer >= 2 in the sense of ``_whole``."""
    order = _whole(value)
    if order is None:
        raise ValueError(f"cyclic order {value!r} is not an integer")
    if order < 2:
        raise ValueError(f"cyclic order {order} is invalid: orders must be >= 2")
    return order


def _integer(name: str, value) -> int:
    """An integer argument as an int: a bool, Python's or numpy's, or a float
    is refused, not read as 1 or truncated."""
    if type(value) is int:  # the common case, checked first as it is cheapest
        return value
    if isinstance(value, float) or (whole := _whole(value)) is None:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return whole


def _check_real(name: str, value) -> None:
    """A real-number argument is a number: a bool is refused, not read as 1
    or 0, and so is a value without ``__float__``, a string among them."""
    if isinstance(value, (bool, np.bool_)) or not hasattr(value, "__float__"):
        raise TypeError(f"{name} must be a number, got {value!r}")


def _check_count(name: str, value) -> int:
    """A blocklength, trial, sample or grid step count: an integer >= 1, as an
    int, so that no cap arithmetic on it wraps as numpy's integers do."""
    if (count := _integer(name, value)) < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return count


def _past_cap(
    size, cap: int, name: str = "", what: str = "", unit: str = "", doublings: int = 0
) -> bool:
    """Whether ``size`` is past ``cap``, the cap ``name``: False within it;
    past it True, or, given ``what``, the one refusal of every cap, a
    ValueError "<what> of <size> <unit> exceeds cap <name>=<cap>", the size
    in digits up to 64 bits and as "at least 2^D" past them.  A size known
    to be at least 2**doublings may be given as a callable, formed only when
    that bound is within the cap: past it, the size is refused unformed, as
    "at least 2^doublings"."""
    if doublings < cap.bit_length():  # else 2**doublings is past the cap
        if callable(size):
            size = size()
        if size <= cap:
            return False
        doublings = size.bit_length() - 1
    if not what:
        return True
    shown = size if doublings < 64 and not callable(size) else f"at least 2^{doublings}"
    raise ValueError(f"{what} of {shown} {unit} exceeds cap {name}={cap}")


def _check_seed(name: str, value) -> int:
    """A seed is an integer in [0, 2**64), as an int, so that no arithmetic on
    it wraps as numpy's integers do: None would draw fresh OS entropy, and no
    result could be repeated."""
    if not 0 <= (seed := _integer(name, value)) < 2**64:
        raise ValueError(f"{name} must be in [0, 2**64), got {value}")
    return seed


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
