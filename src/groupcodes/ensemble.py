"""Random-homomorphism code ensemble: sampling, exact law verification, and
a desk-scale Monte Carlo channel simulation.

Codes are images of random homomorphisms from an auxiliary input group into
the n-fold direct sum of the target group, shifted by a uniform dither.  The
verifiers here check the ensemble's structural laws (generator constraints,
pairwise joint probabilities, selector census bounds) by exhaustive
enumeration whenever the state space is small enough, falling back to seeded
sampling beyond that.  Every seeded draw, the Monte Carlo's among them,
reads one ``Generator(Philox(seed))`` of an integer seed by
``_sample_table(s)``, ``integers`` and ``random``.  The pairwise law is
sized once, by ``_law_plan``, and counts both modes in one tally.  The
selector census is a fold over the used slots at any |J|, which the lemma
suite checks by its cumulated bound alone.

An InputGroup caches the plan every check on (J, n) reads, built on first
read: per blocklength n the enumeration of every homomorphism table, checked
once against the constraints (a set that fails raises and is never kept).
The exhaustive pairwise law reads it, so it is only built where the tables T
times the |G|^n dither words are at most EXHAUSTIVE_CAP.  The plan belongs to
the instance, not to its value: an equal group built apart builds its own.
Its arrays are read-only, and a value computed twice in a race is identical,
so an InputGroup is safe to share across threads.  A table draw, a sampled
tally and a trial codebook past SIZE_CAP cells, and a ring too wide for
int64 residues, are refused before anything is built, by
``groups._past_cap``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .groups import SIZE_CAP, GroupElement, GroupSpec, ThetaVector, _check_count
from .groups import _check_seed, _components, _grid, _index, _induce, _integer
from .groups import _is_prime, _min_depths, _past_cap, _slot_values
from .measures import ChannelSpec, _check_kind
from .rates import _check_support, enumerate_theta_set

# Exhaustive enumeration is preferred whenever the sampled space fits under
# this cap; statistical checks are a fallback, not the default.
EXHAUSTIVE_CAP = 1 << 16


@dataclass(frozen=True)
class InputGroup:
    """The auxiliary group J = sum of Z_{q^s} components, one block of
    ``counts[(q,s)]`` copies per weight slot of the target group."""

    group: GroupSpec
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        slots = self.group.weight_slots
        if len(self.counts) != len(slots):
            raise ValueError(f"expected {len(slots)} counts for slots {slots}")
        counts = tuple(_integer("count", c) for c in self.counts)
        if any(c < 0 for c in counts):
            raise ValueError("counts must be nonnegative integers")
        object.__setattr__(self, "counts", counts)
        if sum(self.counts) < 1:
            raise ValueError("the input group needs at least one component")

    @classmethod
    def from_mapping(cls, group: GroupSpec, mapping) -> "InputGroup":
        return cls(group, _slot_values(group, mapping))

    @cached_property
    def spec(self) -> GroupSpec:
        """The input group as a group in its own right; its rings are exactly
        the (q, s, l) component index triples."""
        rings = []
        for (q, s), count in zip(self.group.weight_slots, self.counts):
            rings.extend((q, s, l) for l in range(1, count + 1))
        return GroupSpec(tuple(sorted(rings)))

    @cached_property
    def _allowed_step(self) -> np.ndarray:
        """[k, c], read-only like every array cached here: the (p, r) image of
        a Z_{q^s} generator lies in p^gap Z_{p^r}, its slot's gap at the
        ring's level, so p^(r-s)+ Z_{p^r} for q = p and zero across primes."""
        primes = np.array([p for p, _, _ in self.group.rings])
        step = primes ** self._selector_tables[0][:, self.group._ring_level_index]
        step.setflags(write=False)
        return step

    @cached_property
    def _selector_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Per component: its slot's row of the group's ``_slot_gaps`` [k, L],
        and the powers q, ..., q^s then q^s + 1 [k, max s], of which a
        residue's q-adic depth counts those up to its gcd with q^s.  Every
        residue array is read after these, so a ring too wide for int64
        residues is refused here, before any is built."""
        _past_cap(max(self.group.moduli), 2**63 - 1, "int64", "ring", "residues")
        rings, top = self.spec.rings, max(s for _, s, _ in self.spec.rings)
        gaps = np.repeat(self.group._slot_gaps, self.counts, axis=0)
        powers = np.array(
            [[q ** min(t, s) + (t > s) for t in range(1, top + 1)] for q, s, _ in rings]
        )
        for table in (gaps, powers):
            table.setflags(write=False)
        return gaps, powers

    # -- the plan: what every check on (J, n) reads, built on first read and
    # kept by this instance alone

    @cached_property
    def _enumerations(self) -> dict[int, np.ndarray]:
        return {}

    def _enumeration(self, n: int) -> np.ndarray:
        """Every homomorphism table [T, k, n, c], checked against the
        ensemble's constraints once and read-only; a set that fails the check
        raises and is not kept."""
        tables = self._enumerations.get(n)
        if tables is None:
            tables = _checked(self, _all_tables(self, n))
            tables.setflags(write=False)
            self._enumerations[n] = tables
        return tables

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def size(self) -> int:
        """|J|, from the counts: no ``spec`` is built."""
        slots = self.group.weight_slots
        return math.prod(q ** (s * c) for (q, s), c in zip(slots, self.counts))

    @property
    def support(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            slot for slot, c in zip(self.group.weight_slots, self.counts) if c > 0
        )

    def rate_bits(self, blocklength: int) -> float:
        """Code rate log2|J| / n."""
        return math.log2(self.size) / blocklength

    def element(self, value) -> GroupElement:
        if isinstance(value, GroupElement):
            if value.spec != self.spec:
                raise TypeError("element bound to a different input group")
            return value
        return self.spec.element(value)


@dataclass(frozen=True)
class HomomorphismTable:
    """Sampled generator images plus dither, defining one shifted group code.

    ``images[slot][i]`` is the target-group element receiving the generator
    of input component ``slot`` in coordinate i.  Construction enforces the
    structural constraints: cross-prime image components are zero and the
    (p, r) component of a Z_{q^s} generator image lies in p^(r-s) Z_{p^r}.
    """

    input_group: InputGroup
    blocklength: int
    images: tuple[tuple[GroupElement, ...], ...]
    dither: tuple[GroupElement, ...]
    seed: int = 0  # the sample_hom seed; 0 for a table built directly

    def __post_init__(self) -> None:
        n = _check_count("blocklength", self.blocklength)
        object.__setattr__(self, "blocklength", n)
        object.__setattr__(self, "seed", _check_seed("seed", self.seed))
        if len(self.images) != len(self.input_group.spec.rings):
            raise ValueError("one image row per input component is required")
        if len(self.dither) != n or any(
            d.spec != self.input_group.group for d in self.dither
        ):
            raise ValueError("dither must be a blocklength tuple over the group")
        for row in self.images:
            if len(row) != n:
                raise ValueError("each image row must have one entry per coordinate")
        bad = constraint_violations(self)
        if bad:
            raise ValueError(f"generator image violates ensemble constraints: {bad[0]}")


# -- the residue-array core ----------------------------------------------------
#
# Inside this module a table is an array images[k, n, c] (input component x
# coordinate x target ring) and a dither is an array [n, c], both in the
# residue dtype; GroupElement appears only where a public function takes or
# returns one.


def _residue_dtype(moduli) -> np.dtype:
    """The narrowest unsigned dtype that holds the sum of two residues."""
    return np.min_scalar_type(2 * max(moduli) - 1)


def _plus(a, b, moduli, out=None) -> np.ndarray:
    """(a + b) mod p^r of residues in the residue dtype: their sum s is below
    2 p^r, and s - p^r wraps above s exactly when s < p^r."""
    s = np.add(a, b, out=out)
    return np.minimum(s, s - moduli, out=s)


def _integers(rng, high, size) -> np.ndarray:
    """``rng.integers(0, high, size)``, as int32 while every bound is at most
    2**31, where both dtypes draw one 32-bit word a draw (Lemire's method)."""
    wide = np.int32 if np.max(high) <= 2**31 else np.int64
    return rng.integers(0, high, size, dtype=wide)


def _tables(ig: InputGroup, n: int, pick) -> np.ndarray:
    """Generator images [..., k, n, c] in the residue dtype; ``pick(bounds)``
    gives the digits [..., len(bounds)] of the drawn same-prime (component,
    coordinate, ring) cells in C order, and cross-prime cells stay zero."""
    step = np.repeat(ig._allowed_step[:, None, :], n, axis=1)
    moduli = np.array(ig.group.moduli)
    dtype = _residue_dtype(ig.group.moduli)
    drawn = step < moduli
    digits = pick((moduli // step)[drawn])
    if drawn.all():  # one prime: no cross-prime cell stays zero
        images = digits.astype(dtype).reshape(digits.shape[:-1] + step.shape)
    else:
        images = np.zeros(digits.shape[:-1] + step.shape, dtype)
        images[..., drawn] = digits
    return np.multiply(images, step.astype(dtype), out=images)


def _all_tables(ig: InputGroup, n: int) -> np.ndarray:
    """Every homomorphism table, [T, k, n, c]."""
    return _tables(ig, n, _grid)


def _check_draw(ig: InputGroup, n: int, size: tuple[int, ...]) -> None:
    """A draw of ``size`` tables, more than SIZE_CAP cells, is refused."""
    cells = math.prod(size) * ig.total * n * len(ig.group.moduli)
    _past_cap(cells, SIZE_CAP, "SIZE_CAP", "table draw", "cells")


def _sample_tables(
    ig: InputGroup, n: int, rng, size: tuple[int, ...] = ()
) -> np.ndarray:
    """``size`` tables drawn from the ensemble by the Generator ``rng``,
    [*size, k, n, c].  A draw of more than SIZE_CAP cells is rejected before
    anything is drawn."""
    _check_draw(ig, n, size)

    def pick(bounds):
        # equal bounds draw the same stream as one scalar bound, which is faster
        high = bounds[0] if (bounds == bounds[0]).all() else bounds
        return _integers(rng, high, size + bounds.shape)

    return _tables(ig, n, pick)


def _sample_table(
    ig: InputGroup, n: int, rng, size: tuple[int, ...] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """Generator images [*size, k, n, c], then the dither [*size, n, c]."""
    images = _sample_tables(ig, n, rng, size)
    moduli = ig.group.moduli
    return images, _integers(rng, moduli, size + (n, len(moduli)))


def _violations(ig: InputGroup, images: np.ndarray) -> np.ndarray:
    """Cells of images [..., k, n, c] outside their allowed subgroup or
    outside [0, p^r); unsigned images are read in their own dtype."""
    images = np.asarray(images)
    if images.dtype.kind != "u":  # read as uint64, a negative cell is >= 2**63
        images = images.astype(np.int64, copy=False).view(np.uint64)
    step = ig._allowed_step.astype(images.dtype)
    bad = images >= np.array(ig.group.moduli, images.dtype)
    # a step of 1 allows every cell; fmod is zero exactly on the multiples,
    # and faster than %
    coarse = (step > 1).any(axis=1)
    bad[..., coarse, :, :] |= np.fmod(images[..., coarse, :, :], step[coarse, None]) != 0
    return bad


def _checked(ig: InputGroup, images: np.ndarray) -> np.ndarray:
    if _violations(ig, images).any():
        raise ValueError("generator image violates ensemble constraints")
    return images


def _encode(messages, rows: np.ndarray, moduli) -> np.ndarray:
    """(messages @ rows) mod moduli: messages [k] or [M, k] against rows
    [k, n, c, ...] give words [n, c, ...] or [M, n, c, ...], by per-component
    additions in int32, or int64 where k products of residues need it; each
    product names its dtype, so that none wraps in the residue dtype."""
    if (bound := len(rows) * max(moduli) ** 2) >= 2**63:
        raise ValueError("group moduli too large for int64 residue arithmetic")
    wide = np.int32 if bound < 2**31 else np.int64
    messages = np.asarray(messages, wide)
    words = np.zeros(messages.shape[:-1] + rows.shape[1:], wide)
    used = messages.reshape(-1, len(rows)).any(axis=0).tolist()
    for row, column, nonzero in zip(rows, messages.T, used):
        if nonzero:
            words += np.multiply.outer(column, row, dtype=wide)
    # numpy divides by one scalar modulus much faster than by an array
    modulus = moduli[0]
    if len(set(moduli)) > 1:  # one per ring, against the axes after it
        modulus = np.array(moduli, wide).reshape((-1,) + (1,) * (rows.ndim - 3))
    return np.remainder(words, modulus, out=words)


def _image_array(table: HomomorphismTable) -> np.ndarray:
    # [k, c], read first: it refuses a ring too wide for int64 residues
    k, c = table.input_group._allowed_step.shape
    return np.array(
        [[g.residues for g in row] for row in table.images], dtype=np.int64
    ).reshape(k, table.blocklength, c)


def _elements(spec: GroupSpec, rows: np.ndarray) -> tuple[GroupElement, ...]:
    return tuple(GroupElement(spec, tuple(row)) for row in rows.tolist())


def constraint_violations(table: HomomorphismTable) -> list[str]:
    """Structural checks on the generator images; empty when the table obeys
    the ensemble's two constraints."""
    ig = table.input_group
    g_spec = ig.group
    wrong = [
        f"component {ig.spec.rings[j]} coord {i}: wrong group"
        for j, row in enumerate(table.images)
        for i, g in enumerate(row)
        if g.spec != g_spec
    ]
    if wrong:
        return wrong
    images = _image_array(table)
    out = []
    for j, i, c in np.argwhere(_violations(ig, images)).tolist():
        (q, s, l), (p, r, m), v = ig.spec.rings[j], g_spec.rings[c], images[j, i, c]
        what = f"cross-prime {v} != 0" if p != q else f"{v} not in {p}^{r - s} Z_{p**r}"
        out.append(f"({q},{s},{l})->({p},{r},{m}) coord {i}: {what}")
    return out


def sample_hom(ig: InputGroup, n: int, seed: int) -> HomomorphismTable:
    """Draw a homomorphism table from the ensemble: each admissible generator
    image component uniform on its allowed subgroup, dither uniform on the
    group, all reproducible from the 64-bit seed (counter-based generator)."""
    n = _check_count("blocklength", n)
    seed = _check_seed("seed", seed)
    rng = np.random.Generator(np.random.Philox(seed))
    images, dither = _sample_table(ig, n, rng)
    g_spec = ig.group
    rows = tuple(_elements(g_spec, row) for row in images)
    return HomomorphismTable(ig, n, rows, _elements(g_spec, dither), seed)


def apply_hom(table: HomomorphismTable, a) -> tuple[GroupElement, ...]:
    """Image of an input element: per coordinate, the weighted sum of the
    generator images."""
    a = table.input_group.element(a)
    g_spec = table.input_group.group
    return _elements(g_spec, _encode(a.residues, _image_array(table), g_spec.moduli))


def encode(table: HomomorphismTable, a) -> tuple[GroupElement, ...]:
    """Shifted codeword: homomorphism image plus dither."""
    return tuple(x + d for x, d in zip(apply_hom(table, a), table.dither))


def _selectors(ig: InputGroup, diffs) -> np.ndarray:
    """The selector components [..., L] of every input difference b - a in
    diffs [..., k], any integer representatives (see pair_theta)."""
    gaps, powers = ig._selector_tables
    # gcd(d, q^s) = q^depth, so the depth is the count of powers up to it
    depths = (np.gcd(diffs, ig.spec.moduli)[..., None] >= powers).sum(axis=-1)
    return _induce(ig.group.ring_levels, gaps, depths)


def pair_theta(ig: InputGroup, a, b) -> ThetaVector:
    """The subgroup selector induced by an input pair: per level (p, r), the
    minimum of |r-s|^+ plus the q-adic depth of the component difference,
    over components of the same prime (clamped to r; levels with no matching
    component get r, since the image difference there is identically zero)."""
    diff = np.subtract(ig.element(b).residues, ig.element(a).residues)
    return ThetaVector(ig.group, tuple(_selectors(ig, diff).tolist()))


def theta_census(ig: InputGroup, a=None) -> dict[ThetaVector, int]:
    """Counts of every selector over all input pairs (a, b), in lexicographic
    order, folded over the used slots and never over J, at any |J|.  As b
    runs over J so does b - a, so a given a is only checked.

    The components of a slot share its gap row, so a difference's selector is
    ``_induce`` of its slots' least q-adic depths, a minimum over slots.  On
    a slot (q, s) with c components the least depth is t in q^((s-t)c) -
    q^((s-t-1)c) ways for t < s and in 1 way for t = s, so the fold starts
    from the full selector, counted once, and per used slot maps each row to
    its componentwise minimum with the slot alone at each depth t, its count
    times those ways, in Python ints.  As in ``GroupSpec._selector_layer``,
    it holds at most the selector table times one slot's depths."""
    if a is not None:
        ig.element(a)
    levels, gaps = ig.group.ring_levels, ig.group._slot_gaps
    census = {tuple(r for _, r in levels): 1}
    for j in np.flatnonzero(ig.counts).tolist():
        (q, s), c = ig.group.weight_slots[j], ig.counts[j]
        # the differences of least depth exactly t
        ways = [q ** ((s - t) * c) - q ** ((s - t - 1) * c) for t in range(s)] + [1]
        alone = _induce(levels, gaps[[j]], np.arange(s + 1)[:, None]).tolist()
        folded: dict[tuple[int, ...], int] = {}
        for row, count in census.items():
            for lowered, way in zip(alone, ways):
                key = tuple(map(min, row, lowered))
                folded[key] = folded.get(key, 0) + count * way
        census = folded
    return {ThetaVector(ig.group, row): census[row] for row in sorted(census)}


def t_theta_bound(ig: InputGroup, theta: ThetaVector) -> int:
    """The census upper bound: product over slots of q^((s - coeff) * count)."""
    slots = ig.group.weight_slots
    coeffs = _min_depths(ig.group._slot_gaps, _components(ig.group, theta)).tolist()
    return math.prod(
        q ** ((s - coeff) * count)
        for (q, s), coeff, count in zip(slots, coeffs, ig.counts)
    )


# -- pairwise joint law ------------------------------------------------------


@dataclass(frozen=True)
class PairwiseLawReport:
    theta: ThetaVector
    mode: str  # "exhaustive" | "sampled"
    outcomes: int  # tables enumerated or drawn
    support_cells: int
    off_support_mass: float
    tv_distance: float
    threshold: float
    passed: bool


def _exhaustive(ig: InputGroup, n: int) -> bool:
    """Whether the pairwise law enumerates its tables: tables times dither
    words, space^n, within EXHAUSTIVE_CAP, where a coordinate's hom_space
    |G| is at least doubled by each component of J and by |G|."""

    def space() -> int:
        hom_space = math.prod(map(int, (ig.group.moduli // ig._allowed_step).flat))
        return (ig.group.order * hom_space) ** n

    return not _past_cap(space, EXHAUSTIVE_CAP, doublings=(ig.total + 1) * n)


def _law_plan(ig: InputGroup, n: int, theta, samples: int):
    """The pairwise law's sizing for the selector components ``theta``: per ring
    the step h of H_theta = h Z_{p^r} and its p^r // h cells, the coordinates
    [tallies, width] each tally reads, and the tables drawn, 0 where they are
    enumerated (``_exhaustive``): then one tally reads the whole block.
    Sampled, each pair of coordinates (the one coordinate at n = 1) is a tally
    of cells = |H_theta|^width, from max(samples, 36 * cells) tables; tallies
    of more than SIZE_CAP cells, tables times C(n, 2), and a draw of more than
    SIZE_CAP cells are refused before anything is drawn."""
    levels = ig.group._ring_level_index
    steps = [p ** int(theta[i]) for (p, _, _), i in zip(ig.group.rings, levels)]
    radices = [m // h for m, h in zip(ig.group.moduli, steps)]
    if _exhaustive(ig, n):
        return steps, radices, np.arange(n)[None], 0
    tables = max(samples, 36 * math.prod(radices) ** min(n, 2))
    pairs = math.comb(n, 2)
    unit = f"cells ({tables} tables x {pairs} coordinate pairs)"
    _past_cap(tables * pairs, SIZE_CAP, "SIZE_CAP", "pairwise tally", unit)
    _check_draw(ig, n, (tables,))
    coords = np.transpose(np.triu_indices(n, 1)) if n > 1 else np.zeros((1, 1), int)
    return steps, radices, coords, tables


def verify_pairwise_law(
    ig: InputGroup,
    n: int,
    a,
    b,
    samples: int = 4096,
    seed: int = 0,
) -> PairwiseLawReport:
    """Check the pairwise codeword law: the joint distribution of the two
    shifted images is uniform on {(u, v) : v - u in H_theta^n} and zero
    elsewhere, theta being the selector of the input pair.

    The dither D is uniform and independent of the homomorphism phi, so the
    joint law of (phi(a) + D, phi(b) + D) is Uniform(G^n) times the law of
    w = phi(b - a): the check tallies w over the tables, and a table whose w
    leaves H_theta^n is off-support mass.  ``_law_plan`` sizes it, and the
    one tally indexes each coordinate's cell of H_theta, then each tally's
    cell of its coordinates, and counts every tally in one bincount.
    Exhaustive (exact, zero tolerance, over the enumeration of ``ig``'s plan)
    whenever the (generators, dither) space fits under the cap: one tally,
    w on the |H_theta|^n cells of H_theta^n.  Otherwise seeded sampling,
    drawn from an integer seed in [0, 2**64).  The ensemble draws each
    coordinate's images independently, so the coordinates of w are i.i.d.
    and the law says each is uniform on H_theta: the sampled check tallies
    every pair of coordinates over its |H_theta|^2 cells (the one coordinate
    over |H_theta| at n = 1), which also catches shared or copied
    coordinates, and never forms H_theta^n.  ``outcomes`` counts the tables,
    ``tv_distance`` is the largest tally's total variation and, sampled,
    ``threshold`` is 3 * sqrt(cells / outcomes).
    """
    seed = _check_seed("seed", seed)
    n = _check_count("blocklength", n)
    samples = _check_count("samples", samples)
    g_spec = ig.group
    a = ig.element(a)
    b = ig.element(b)
    theta = pair_theta(ig, a, b)
    steps, radices, coords, drawn = _law_plan(ig, n, theta.components, samples)
    if drawn:
        rng = np.random.Generator(np.random.Philox(seed))
        tables = _checked(ig, _sample_tables(ig, n, rng, (drawn,)))
    else:
        tables = ig._enumeration(n)
    # w = phi(b - a) [n, c, T], tables last, so that the tally reduces and
    # gathers whole rows of them
    diff = np.subtract(b.residues, a.residues)
    w = _encode(diff, tables.transpose(1, 2, 3, 0), g_spec.moduli)
    digits, rest = np.divmod(w, np.array(steps, w.dtype)[:, None])
    digits = digits[..., ~rest.any(axis=(0, 1))]
    per_coordinate = math.prod(radices)
    tallies, width = coords.shape
    cells = per_coordinate**width
    # [tallies, T']: each coordinate's cell, then each tally's, offset by tally
    cell = _index(digits.transpose(0, 2, 1), radices)[coords]
    cell = _index(cell.transpose(0, 2, 1), [per_coordinate] * width)
    keys = (cell + cells * np.arange(tallies)[:, None]).ravel()
    hits = np.bincount(keys, minlength=cells * tallies).reshape(tallies, cells)
    total = len(tables)
    mode = "sampled" if drawn else "exhaustive"
    threshold = 3.0 * math.sqrt(cells / total) if drawn else 0.0
    off = total - digits.shape[-1]  # int / int is the correctly rounded float
    # TV over the support, the largest tally's: (1/2) sum |hits/total - 1/cells|,
    # in integers
    gap = int(np.abs(hits * cells - total).sum(axis=-1).max())
    tv = Fraction(gap, 2 * total * cells)
    passed = off == 0 and (tv == 0 or tv < threshold)
    support = g_spec.order**n * per_coordinate**n
    return PairwiseLawReport(
        theta, mode, total, support, off / total, float(tv), threshold, passed
    )


# -- Monte Carlo channel simulation -----------------------------------------


@dataclass(frozen=True)
class MonteCarloReport:
    trials: int
    errors: int
    seed: int
    code_rate_bits: float
    injective_trials: int
    injective_errors: int

    @property
    def error_rate(self) -> float:
        return self.errors / self.trials


def _codebook(ig: InputGroup, images: np.ndarray, dither: np.ndarray) -> np.ndarray:
    """Every message's codeword, element indices [messages, n, trials], of
    images [trials, k, n, c] and dithers [trials, n, c]: from the dither,
    add each component's q^s multiples in turn, last message digit fastest,
    the multiples built by doubling in O(log q^s) steps of ``_plus``."""
    moduli = ig.group.moduli
    dtype = _residue_dtype(moduli)
    top = np.array(moduli, dtype)[:, None]  # p^r per ring, against the trials
    words = dither.transpose(1, 2, 0).astype(dtype)[None]
    for row, radix in zip(images.transpose(1, 2, 3, 0), ig.spec.moduli):
        multiples = np.zeros((radix,) + row.shape, dtype)
        multiples[1] = row
        for span in (1 << t for t in range(1, (radix - 1).bit_length())):
            shift = _plus(multiples[span - 1], multiples[1], top)
            end = min(2 * span, radix)
            _plus(multiples[: end - span], shift, top, out=multiples[span:end])
        words = _plus(words[:, None], multiples, top).reshape((-1,) + row.shape)
    index = np.min_scalar_type(ig.group.order - 1)
    return _index(words.transpose(0, 1, 3, 2).astype(index, copy=False), moduli)


def _ml_decode(w_flat, offsets, codebook) -> np.ndarray:
    """The first message of greatest likelihood in each trial, W(y_i | x_i)
    read at offsets [n, trials] + codebook [messages, n, trials] and
    multiplied from i = 0 up, an order that fixes the rounding and so the
    ties.  Every ``run`` coordinates, as many as keep a product from [1/2, 1)
    at or above 2^-1022 (but for a zero of W), a trial's products are scaled
    exactly by the power of two that brings its greatest to [1/2, 1): each
    step rounds as the plain product does wherever that is normal, and no
    likelihood underflows to 0; only a product more than 2^1021 below its
    trial's greatest at a scaling keeps fewer bits."""
    # W's least nonzero entry is at least 2^(e - 1), so from 1/2 a run of
    # 1021 // (1 - e) factors stays at or above 2^-1022
    e = np.frexp(w_flat[w_flat > 0].min())[1]
    run = max(1021 // max(1 - e, 1), 1)
    likelihood = np.ones(codebook.shape[::2])
    for i, row in enumerate(offsets, 1):
        likelihood *= w_flat[row + codebook[:, i - 1]]
        if i % run == 0:
            top = likelihood.max(axis=0)
            np.ldexp(likelihood, -np.frexp(top)[1], out=likelihood)
    return likelihood.argmax(axis=0)


def mc_channel_error(
    ig: InputGroup, n: int, chan: ChannelSpec, trials: int, seed: int
) -> MonteCarloReport:
    """Empirical block-error rate of the shifted random code under exhaustive
    maximum-likelihood decoding, averaged over freshly sampled (table,
    dither, message, noise) per trial.  Ties decode to the lowest message
    index, and ``_ml_decode`` scales each trial's likelihoods by powers of
    two as it goes, so a long block's do not underflow.

    Every trial is drawn from one ``Generator(Philox(seed))``, an integer
    seed, a block of SIZE_CAP // (messages x n x rings) trials at a time,
    one trial's codebook being refused above SIZE_CAP cells: the block's
    tables and dithers by ``_sample_table``, its message indices by
    ``integers(0, messages)``, then one uniform u per coordinate of each
    trial by ``random``; the output is the first y whose cumulative
    W(. | x) exceeds u, as ``Generator.choice`` draws.  So the report
    depends on the inputs and the seed alone, but as a block's draws depend
    on its size, a run of t trials is not the first t of a longer run.
    ``_codebook`` builds a block's codewords, trials last, by additions.  A
    trial's code is injective exactly when no message a != 0 has message
    0's codeword: phi(a) + D = phi(b) + D holds exactly when phi(a - b) = 0."""
    n = _check_count("blocklength", n)
    seed = _check_seed("seed", seed)
    _check_kind(chan, ChannelSpec)
    if chan.group != ig.group:
        raise ValueError("channel input alphabet differs from the code group")
    moduli = ig.group.moduli
    # one trial's codebook: |J| x n x rings cells, at least 2^(k + n's bits - 1)
    _past_cap(
        lambda: ig.size * n * len(moduli), SIZE_CAP, "SIZE_CAP",
        "trial codebook", "cells", ig.total + n.bit_length() - 1,
    )
    trials = _check_count("trials", trials)
    size, order = ig.size, ig.group.order
    w_flat = chan.matrix.T.ravel()  # W(y | x) at y * |G| + x
    cdf = chan.matrix.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    # at least 1: one trial's codebook, messages x n x rings, is within the cap
    block = SIZE_CAP // (size * n * len(moduli))
    rng = np.random.Generator(np.random.Philox(seed))
    errors = injective_trials = injective_errors = 0
    for start in range(0, trials, block):
        count = min(block, trials - start)
        images, dither = _sample_table(ig, n, rng, (count,))
        _checked(ig, images)
        sent = rng.integers(0, size, count)
        u = rng.random((count, n))
        codebook = _codebook(ig, images, dither)  # [messages, n, B]
        injective = (codebook[1:] != codebook[:1]).any(axis=1).all(axis=0)
        x = codebook[sent, :, np.arange(count)]  # [B, n]
        y = (cdf[x] <= u[..., None]).sum(axis=-1)
        wrong = _ml_decode(w_flat, y.T * order, codebook) != sent
        errors += int(wrong.sum())
        injective_trials += int(injective.sum())
        injective_errors += int(wrong[injective].sum())
    return MonteCarloReport(
        trials, errors, seed, ig.rate_bits(n), injective_trials, injective_errors
    )


# -- lemma suite --------------------------------------------------------------


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    passed: bool
    detail: str


def lemma_suite(
    ig: InputGroup, n: int, *, samples: int = 200, seed: int = 0
) -> list[LemmaCheck]:
    """Run every structural check of the ensemble for one configuration.

    The counts must give every prime of the group a component, as the
    theta-set check needs a support with a slot per prime; other counts,
    a table draw of more than SIZE_CAP cells, a pairwise law that its plan,
    ``_law_plan`` at the largest H_theta of any pair, refuses, and a ring of
    more than SIZE_CAP residues, all of which a congruence check reads, are
    refused before anything is drawn.  Exhaustive wherever
    the space allows; the pairwise law falls back to seeded sampling above
    the enumeration cap, of max(samples, 1024) tables or more (see
    ``verify_pairwise_law``).  One Philox stream, seeded by ``seed``, draws
    min(samples, 1000) tables in one call (samples >= 1); the first 25 are
    checked for additivity on every input pair when |J| <= 64, else on 64
    fresh pairs each.  The pairwise law is checked on every input pair when |J|^2 <= 64,
    else on 16 drawn pairs, pair i with seed (seed + i) mod 2**64; in
    exhaustive mode every pair reads the one enumeration of the group's
    plan.  Pairs are residue rows throughout.  The census is checked at any
    |J| without J: each class within ``t_theta_bound``, and the counts of the
    classes that dominate each class summing to its bound exactly, the
    number of differences whose selector is at least it; given the classes,
    which theta-set equality checks, that fixes every count.  The congruence
    solver's closed form is checked on every b of a coefficient a at once by
    substitution: each b's count of x with a*x = b mod p^r must be g =
    gcd(a, p^r) or 0 as it says, and a solvable b's g distinct solutions must
    lie in [0, p^r) and solve it, so they are all.  Above SIZE_CAP
    equations each coefficient a is checked, on every b, with probability
    SIZE_CAP / equations: the coefficients of every level, in ascending p^r,
    laid end to end, are sampled every equations / SIZE_CAP of them from one
    drawn offset, no draw made per coefficient.  That checks at least one
    coefficient, as no ring has more than SIZE_CAP residues, and at most
    SIZE_CAP + max p^r <= 2 SIZE_CAP equations, as p^r ascends: each sampled
    coefficient but the last has at most the mean p^r of the spacing after
    it.
    """
    n = _check_count("blocklength", n)
    seed = _check_seed("seed", seed)
    samples = _check_count("samples", samples)
    _check_support(ig.group, ig.support)
    # both table draws are refused before anything is drawn: the constraint
    # check's, and the pairwise law's, by its plan, which draws only where it
    # samples, at most as many tables as the largest H_theta of any pair
    # needs: that of a difference whose every component is a unit
    n_tables, law_samples = min(samples, 1000), max(samples, 1024)
    _check_draw(ig, n, (n_tables,))
    _law_plan(ig, n, _selectors(ig, np.ones(ig.total, dtype=np.int64)), law_samples)
    # and a congruence check reads every residue of its ring
    ring = max(ig.group.moduli)
    _past_cap(ring, SIZE_CAP, "SIZE_CAP", "congruence-solver ring", "residues")
    rng = np.random.Generator(np.random.Philox(seed))

    # generator constraints on freshly sampled tables
    tables, _ = _sample_table(ig, n, rng, (n_tables,))
    bad_tables = int(_violations(ig, tables).any(axis=(1, 2, 3)).sum())
    detail = f"{n_tables} sampled tables, {bad_tables} violations"
    checks = [LemmaCheck("generator-constraints", bad_tables == 0, detail)]

    # additivity of the sampled maps; pairs are [pairs, 2, k], a then b
    in_moduli, moduli, k = ig.spec.moduli, ig.group.moduli, ig.total
    every_pair = _grid(in_moduli * 2).reshape(-1, 2, k) if ig.size <= 64 else None
    law_fail = law_total = 0
    for images in tables[:25]:
        pairs = every_pair
        if pairs is None:
            pairs = rng.integers(0, in_moduli, (64, 2, k))
        a, b = pairs[:, 0], pairs[:, 1]
        lhs = _encode((a + b) % in_moduli, images, moduli)
        rhs = (_encode(a, images, moduli) + _encode(b, images, moduli)) % moduli
        law_total += len(a)
        law_fail += int((lhs != rhs).any(axis=(1, 2)).sum())
    detail = f"{law_total} pairs checked, {law_fail} failures"
    checks.append(LemmaCheck("homomorphism-law", law_fail == 0, detail))

    # pairwise joint law
    pairs = every_pair if ig.size**2 <= 64 else rng.integers(0, in_moduli, (16, 2, k))
    reports = [
        verify_pairwise_law(ig, n, a, b, law_samples, (seed + i) % 2**64)
        for i, (a, b) in enumerate(pairs.tolist())
    ]
    failed = [r for r in reports if not r.passed]
    modes = "/".join(sorted({r.mode for r in reports}))
    detail = f"{len(reports)} pairs ({modes}), {len(failed)} failures"
    checks.append(LemmaCheck("pairwise-joint-law", not failed, detail))

    # census: each class within its bound, and, a second route to every
    # count, the classes that dominate each class sum to its bound exactly
    # (given the classes, that fixes each count by descending induction);
    # and selector-set equality
    census = theta_census(ig)
    counts, bounds = list(census.values()), [t_theta_bound(ig, th) for th in census]
    rows = np.array([th.components for th in census])
    # [classes, classes]: whether the column's class dominates the row's
    dominating = (rows[:, None] <= rows).all(-1)
    exact = (dominating @ np.array(counts, dtype=object)).tolist() == bounds
    over = sum(count > bound for count, bound in zip(counts, bounds))
    detail = f"{len(census)} selector classes, {over} above the bound"
    checks.append(LemmaCheck("census-bound", exact and not over, detail))
    expected = enumerate_theta_set(ig.group, ig.support)
    got = frozenset(census)
    detail = f"census has {len(got)} selectors, support enumeration {len(expected)}"
    checks.append(LemmaCheck("theta-set-equality", got == expected, detail))

    # congruence solver against brute force, mismatches counted per equation
    levels = sorted(
        (
            (p, r, s)
            for p in ig.group.primes
            for r in range(1, ig.group.max_exponent(p) + 1)
            for s in range(1, r + 1)
        ),
        key=lambda level: level[0] ** level[1],
    )
    equations = sum((p**s - 1) * p**r for p, r, s in levels)
    sampled = equations > SIZE_CAP
    if sampled:  # the positions of the sampled coefficients, levels end to end
        end = sum(p**s - 1 for p, _, s in levels) * SIZE_CAP
        offset = int(rng.integers(equations))
        kept = [x // SIZE_CAP for x in range(offset, end, equations)]
    cong_total = cong_fail = start = 0
    for p, r, s in levels:
        mod, coeffs = p**r, range(1, p**s)
        if sampled:  # the kept positions among this level's coefficients
            lo, hi = bisect_left(kept, start), bisect_left(kept, start + len(coeffs))
            coeffs, start = [i - start + 1 for i in kept[lo:hi]], start + len(coeffs)
        targets = np.arange(mod)
        for a in coeffs:
            counts = np.bincount(a * targets % mod, minlength=mod)
            solvable, base, period = _congruence(p, r, a, targets)
            g = mod // period
            wrong = counts != np.where(solvable, g, 0)
            b = np.flatnonzero(solvable)
            xs = base[b, None] + period * np.arange(g)
            bad = (xs < 0) | (xs >= mod) | (a * xs % mod != b[:, None])
            wrong[b] |= bad.any(axis=1)
            cong_total += mod
            cong_fail += int(wrong.sum())
    tag = " (sampled)" if sampled else ""
    detail = f"{cong_total} equations checked{tag}, {cong_fail} mismatches"
    checks.append(LemmaCheck("congruence-solver", cong_fail == 0, detail))
    return checks


# -- the modular linear-congruence solver ------------------------------------


def _congruence(p: int, r: int, a: int, b):
    """a*x = b mod p^r for a nonzero a and an int or int64 array b, with g =
    gcd(a, p^r): whether g divides b, the least solution (b/g) (a/g)^-1 mod
    p^r/g where it does, and the period p^r/g of its g solutions."""
    g = math.gcd(a, p**r)
    period = p**r // g
    return b % g == 0, b // g * pow(a // g, -1, period) % period, period


def solve_congruence(p: int, r: int, s: int, a: int, b: int) -> tuple[int, ...]:
    """Exact solution set of a*x = b mod p^r for a prime p and a nonzero a
    in Z_{p^s}, s <= r: with g = gcd(a, p^r) = gcd(a, p^s), empty unless g
    divides b, else the g residues (b/g) * (a/g)^-1 mod p^r/g plus the
    multiples of p^r/g, in increasing order."""
    p, r, s = _integer("modulus base p", p), _integer("r", r), _integer("s", s)
    a, b = _integer("coefficient", a), _integer("target", b)
    if not _is_prime(p):
        raise ValueError(f"modulus base p={p} is not prime")
    if not 1 <= s <= r:
        raise ValueError(f"need 1 <= s <= r, got s={s}, r={r}")
    if not 0 < a < p**s:
        raise ValueError(
            f"coefficient {a} must be a nonzero residue of Z_{p**s}; "
            "for a = 0 the equation is solvable exactly when b = 0"
        )
    if not 0 <= b < p**r:
        raise ValueError(f"target {b} must be a residue of Z_{p**r}")
    solvable, base, period = _congruence(p, r, a, b)
    return tuple(range(base, p**r, period)) if solvable else ()
