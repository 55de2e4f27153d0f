"""Finite Abelian groups in canonical prime-power form.

A group is represented as an ordered direct sum of rings Z_{p^r}; elements
are residue vectors with componentwise modular arithmetic.  ``GroupElement``
is the per-element public type; computations over the whole group use the
residue grid instead, one row per element in canonical order (last residue
fastest), and a subgroup gives the coset of every row in one label array.
The selector algebra is stated once, on arrays: ``_induce``, ``_min_depths``.
Everything here is immutable and safe to share across threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterator, Mapping, Sequence

import numpy as np

# Soft cap on element enumeration: groups in this library are desk-scale,
# fail loudly instead of hanging on a huge order.
ENUMERATION_CAP = 1 << 20


def _grid(radices) -> np.ndarray:
    """Every digit vector over the radices, one per row, last digit fastest
    (for moduli this is the canonical element order)."""
    return np.indices(tuple(radices)).reshape(len(radices), -1).T


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} by trial division (orders are tiny)."""
    if n < 2:
        raise ValueError(f"cannot factorize {n}: need an integer >= 2")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


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
            if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
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

    @cached_property
    def exponents(self) -> Mapping[int, tuple[int, ...]]:
        """For each prime p, the sorted set of exponents r with a Z_{p^r} ring."""
        out: dict[int, list[int]] = {}
        for p, r, _ in self.rings:
            if r not in out.setdefault(p, []):
                out[p].append(r)
        return {p: tuple(sorted(rs)) for p, rs in out.items()}

    @cached_property
    def multiplicity(self) -> Mapping[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for p, r, _ in self.rings:
            out[(p, r)] = out.get((p, r), 0) + 1
        return out

    def max_exponent(self, p: int) -> int:
        """The largest r with a Z_{p^r} ring (r_q in the rate formulas)."""
        return self.exponents[p][-1]

    @cached_property
    def weight_slots(self) -> tuple[tuple[int, int], ...]:
        """All (q, s) pairs with q a prime of the group and 1 <= s <= r_q."""
        return tuple(
            (q, s) for q in self.primes for s in range(1, self.max_exponent(q) + 1)
        )

    @cached_property
    def ring_levels(self) -> tuple[tuple[int, int], ...]:
        """The distinct (p, r) pairs actually present among the rings."""
        return tuple(sorted(self.multiplicity))

    @cached_property
    def _ring_level_index(self) -> tuple[int, ...]:
        """For each ring, the position of its (p, r) pair in ``ring_levels``."""
        pos = {pr: i for i, pr in enumerate(self.ring_levels)}
        return tuple(pos[(p, r)] for p, r, _ in self.rings)

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

    def element_at(self, index: int) -> "GroupElement":
        if not 0 <= index < self.order:
            raise ValueError(f"element index {index} out of range for order {self.order}")
        residues = []
        for n in reversed(self.moduli):
            residues.append(index % n)
            index //= n
        return GroupElement(self, tuple(reversed(residues)))

    def describe(self) -> str:
        return " + ".join(f"Z{p**r}({p},{r},{m})" for p, r, m in self.rings)


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

    def __rmul__(self, count: int) -> "GroupElement":
        """Repeated addition: ``c * x`` is x added to itself c times."""
        if not isinstance(count, int):
            return NotImplemented
        return GroupElement(
            self.spec,
            tuple((count * a) % n for a, n in zip(self.residues, self.spec.moduli)),
        )

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


def _induce(levels, slots, depths) -> np.ndarray:
    """The selector components [..., L] induced by per-slot depths [..., k]:
    each level (p, r) takes min(r, |r - s|^+ + depth) over the slots of its
    prime (r when it has none)."""
    depths = np.asarray(depths)
    selectors = np.full(depths.shape[:-1] + (len(levels),), [r for _, r in levels])
    for j, gap in enumerate(_gaps(levels, slots)):
        selectors = np.minimum(selectors, depths[..., j, None] + gap)
    return selectors


def _min_depths(levels, slots, thetas) -> np.ndarray:
    """The least per-slot depths [..., k] whose induced selector is at least
    thetas [..., L] componentwise: for slot (q, s), the max over levels (q, r)
    of (theta - |r - s|^+)^+.  These are also the omega numerator
    coefficients, and thetas is reachable from the slots exactly when these
    depths induce it back."""
    thetas = np.asarray(thetas)
    return (thetas[..., None, :] - _gaps(levels, slots)).max(axis=-1, initial=0)


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


def decompose(cyclic_orders: Sequence[int]) -> CyclicDecomposition:
    """Canonically decompose a direct sum of cyclic groups Z_{n_1} + ... + Z_{n_k}.

    Each factor is split into its prime-power parts; multiplicity indices are
    assigned in input order so the isomorphism is deterministic.
    """
    orders = tuple(int(n) for n in cyclic_orders)
    if not orders:
        raise ValueError("need at least one cyclic order")
    for n in orders:
        if n < 2:
            raise ValueError(f"cyclic order {n} is invalid: orders must be >= 2")
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
