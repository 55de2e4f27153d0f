"""Random-homomorphism code ensemble: sampling, exact law verification, and
a desk-scale Monte Carlo channel simulation.

Codes are images of random homomorphisms from an auxiliary input group into
the n-fold direct sum of the target group, shifted by a uniform dither.  The
verifiers here check the ensemble's structural laws (generator constraints,
pairwise joint probabilities, selector census bounds) by exhaustive
enumeration whenever the state space is small enough, falling back to seeded
sampling beyond that.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .groups import GroupElement, GroupSpec, Subgroup, ThetaVector
from .groups import _grid, _induce, _min_depths
from .measures import ChannelSpec
from .rates import enumerate_theta_set

# Exhaustive enumeration is preferred whenever the sampled space fits under
# this cap; statistical checks are a fallback, not the default.
EXHAUSTIVE_CAP = 1 << 16
TABLE_CELL_CAP = 1 << 16
SIZE_CAP = 1 << 20


def _depth(value: int, q: int, s: int) -> int:
    """q-adic depth of a residue in Z_{q^s}; the zero residue has depth s."""
    if value == 0:
        return s
    d = 0
    while value % q == 0:
        value //= q
        d += 1
    return d


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
        if any(c < 0 or not isinstance(c, int) for c in self.counts):
            raise ValueError("counts must be nonnegative integers")
        if sum(self.counts) < 1:
            raise ValueError("the input group needs at least one component")

    @classmethod
    def from_mapping(cls, group: GroupSpec, mapping) -> "InputGroup":
        return cls(group, tuple(mapping.get(slot, 0) for slot in group.weight_slots))

    @cached_property
    def spec(self) -> GroupSpec:
        """The input group as a group in its own right; its rings are exactly
        the (q, s, l) component index triples."""
        rings = []
        for (q, s), count in zip(self.group.weight_slots, self.counts):
            rings.extend((q, s, l) for l in range(1, count + 1))
        return GroupSpec(tuple(sorted(rings)))

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def size(self) -> int:
        return self.spec.order

    @property
    def support(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            slot for slot, c in zip(self.group.weight_slots, self.counts) if c > 0
        )

    def weights(self) -> dict[tuple[int, int], Fraction]:
        k = self.total
        return {
            slot: Fraction(c, k)
            for slot, c in zip(self.group.weight_slots, self.counts)
        }

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
    seed: int | None = None

    def __post_init__(self) -> None:
        n = self.blocklength
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
# Inside this module a table is an int64 array images[k, n, c] (input
# component x coordinate x target ring) and a dither is an array [n, c];
# GroupElement appears only where a public function takes or returns one.


def _allowed_step(ig: InputGroup) -> np.ndarray:
    """[k, c]: the (p, r) image of a Z_{q^s} generator lies in step * Z_{p^r},
    step = p^(r-s)+ for q = p and p^r (zero only) across primes."""
    return np.array(
        [
            [p ** max(r - s, 0) if p == q else p**r for p, r, _ in ig.group.rings]
            for q, s, _ in ig.spec.rings
        ],
        dtype=np.int64,
    )


def _tables(ig: InputGroup, n: int, pick) -> np.ndarray:
    """Generator images [..., k, n, c].  ``pick(bounds)`` gives the digits
    [..., len(bounds)] of the drawn positions, the same-prime (component,
    coordinate, ring) cells in C order; cross-prime cells stay zero."""
    moduli = np.array(ig.group.moduli)
    step = np.broadcast_to(_allowed_step(ig)[:, None, :], (ig.total, n, len(moduli)))
    drawn = step < moduli
    digits = pick((moduli // step)[drawn])
    images = np.zeros(digits.shape[:-1] + step.shape, dtype=np.int64)
    images[..., drawn] = digits * step[drawn]
    return images


def _all_tables(ig: InputGroup, n: int) -> np.ndarray:
    """Every homomorphism table, [T, k, n, c]."""
    return _tables(ig, n, _grid)


def _sample_tables(
    ig: InputGroup, n: int, rng, size: tuple[int, ...] = ()
) -> np.ndarray:
    """``size`` tables drawn from the ensemble by ``rng.integers``, [*size,
    k, n, c]; ``rng`` is a Generator or a _PhiloxStreams (size[0] streams)."""
    return _tables(
        ig, n, lambda bounds: rng.integers(0, bounds, size=size + bounds.shape)
    )


def _sample_table(
    ig: InputGroup, n: int, rng, size: tuple[int, ...] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """Generator images [*size, k, n, c], then the dither [*size, n, c]."""
    images = _sample_tables(ig, n, rng, size)
    moduli = ig.group.moduli
    return images, rng.integers(0, moduli, size=size + (n, len(moduli)))


def _violations(ig: InputGroup, images: np.ndarray) -> np.ndarray:
    """Cells of images [..., k, n, c] outside their allowed subgroup or
    outside [0, p^r)."""
    moduli = np.array(ig.group.moduli)
    return (images % _allowed_step(ig)[:, None, :] != 0) | (images < 0) | (
        images >= moduli
    )


def _check_blocklength(n: int) -> None:
    if n < 1:
        raise ValueError("blocklength must be >= 1")


def _checked(ig: InputGroup, images: np.ndarray) -> np.ndarray:
    if _violations(ig, images).any():
        raise ValueError("generator image violates ensemble constraints")
    return images


def _encode(messages, images: np.ndarray, dither, moduli) -> np.ndarray:
    """(messages @ images + dither) mod moduli: messages [..., k] against
    images [..., k, n, c] gives codewords [..., n, c]."""
    # k products of residues below max(moduli), plus the dither, fit in int64
    if images.shape[-3] * max(moduli) ** 2 >= 2**63:
        raise ValueError("group moduli too large for int64 residue arithmetic")
    return (np.einsum("...k,...kic->...ic", messages, images) + dither) % moduli


def _image_array(table: HomomorphismTable) -> np.ndarray:
    ig = table.input_group
    return np.array(
        [[g.residues for g in row] for row in table.images], dtype=np.int64
    ).reshape(ig.total, table.blocklength, len(ig.group.rings))


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
    _check_blocklength(n)
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
    return _elements(g_spec, _encode(a.residues, _image_array(table), 0, g_spec.moduli))


def encode(table: HomomorphismTable, a) -> tuple[GroupElement, ...]:
    """Shifted codeword: homomorphism image plus dither."""
    a = table.input_group.element(a)
    g_spec = table.input_group.group
    dither = [d.residues for d in table.dither]
    return _elements(
        g_spec, _encode(a.residues, _image_array(table), dither, g_spec.moduli)
    )


def _selectors(ig: InputGroup, diffs) -> np.ndarray:
    """The selector components [..., levels] of every input difference b - a
    in diffs [..., k] (see pair_theta)."""
    diffs = np.asarray(diffs)
    slots = [(q, s) for q, s, _ in ig.spec.rings]
    q, s = np.array(slots).T
    # the t <= s with q^t dividing the difference: s for a zero difference
    depths = sum((diffs % q**t == 0) & (t <= s) for t in range(1, s.max() + 1))
    return _induce(ig.group.ring_levels, slots, depths)


def pair_theta(ig: InputGroup, a, b) -> ThetaVector:
    """The subgroup selector induced by an input pair: per level (p, r), the
    minimum of |r-s|^+ plus the q-adic depth of the component difference,
    over components of the same prime (clamped to r; levels with no matching
    component get r, since the image difference there is identically zero)."""
    diff = (ig.element(b) - ig.element(a)).residues
    return ThetaVector(ig.group, tuple(_selectors(ig, diff).tolist()))


def theta_census(ig: InputGroup, a=None) -> dict[ThetaVector, int]:
    """Counts of every selector over all input pairs with a fixed first
    element (the census is the same for every choice)."""
    if ig.size > SIZE_CAP:
        raise ValueError(f"input group size {ig.size} exceeds cap {SIZE_CAP}")
    a = ig.element(a) if a is not None else ig.spec.zero()
    moduli = ig.spec.moduli
    diffs = (_grid(moduli) - a.residues) % moduli
    rows, counts = np.unique(_selectors(ig, diffs), axis=0, return_counts=True)
    return {
        ThetaVector(ig.group, tuple(row)): count
        for row, count in zip(rows.tolist(), counts.tolist())
    }


def count_t_theta(ig: InputGroup, a, theta: ThetaVector) -> int:
    """Exact size of {b : pair_theta(a, b) = theta}, from the census."""
    return theta_census(ig, a).get(theta, 0)


def brute_theta_set(ig: InputGroup, a=None) -> frozenset[ThetaVector]:
    """Selectors with a nonempty census class; must equal the enumerated
    theta set of the support."""
    return frozenset(theta_census(ig, a))


def t_theta_bound(ig: InputGroup, theta: ThetaVector) -> int:
    """The census upper bound: product over slots of q^((s - coeff) * count)."""
    slots = ig.group.weight_slots
    coeffs = _min_depths(ig.group.ring_levels, slots, theta.components).tolist()
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


def _hom_space_size(ig: InputGroup, n: int) -> int:
    moduli = np.array(ig.group.moduli)
    return math.prod((moduli // _allowed_step(ig)).ravel().tolist()) ** n


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
    w = phi(b - a): the check tallies w over the tables, and its distances
    are those of w on the |H_theta|^n cells of H_theta^n.  Exhaustive (exact,
    zero tolerance) whenever the (generators, dither) space fits under the
    cap; otherwise seeded sampling of tables with a total variation threshold
    of 3 * sqrt(|H_theta|^n / samples).
    """
    _check_blocklength(n)
    g_spec = ig.group
    gn = g_spec.order**n
    a = ig.element(a)
    b = ig.element(b)
    theta = pair_theta(ig, a, b)
    cells = Subgroup(g_spec, theta).order ** n
    if cells > TABLE_CELL_CAP:
        raise ValueError(f"H_theta^n has {cells} cells, above cap {TABLE_CELL_CAP}")

    if _hom_space_size(ig, n) * gn <= EXHAUSTIVE_CAP:
        mode, threshold = "exhaustive", 0.0
        tables = _all_tables(ig, n)
    else:
        mode, threshold = "sampled", 3.0 * math.sqrt(cells / samples)
        rng = np.random.Generator(np.random.Philox(seed))
        tables = _sample_tables(ig, n, rng, (samples,))
    moduli = np.array(g_spec.moduli)
    w = _encode((b - a).residues, _checked(ig, tables), 0, moduli)  # [T, n, c]
    h_step = np.array([p ** theta[(p, r)] for p, r, _ in g_spec.rings])  # H = h_step Z
    inside = (w % h_step == 0).all(axis=(1, 2))
    digits = (w[inside] // h_step).reshape(-1, n * len(moduli))
    cell = np.ravel_multi_index(tuple(digits.T), tuple(moduli // h_step) * n)
    hits = np.bincount(cell, minlength=cells)
    total = len(tables)
    off_mass = Fraction(total - len(digits), total)
    # TV over the support: (1/2) sum |hits/total - 1/cells|, in integers
    tv = Fraction(int(np.abs(hits * cells - total).sum()), 2 * total * cells)
    passed = off_mass == 0 and (tv == 0 or tv < threshold)
    return PairwiseLawReport(
        theta, mode, total, gn * cells, float(off_mass), float(tv), threshold, passed
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


# Trial t of a simulation draws from Generator(Philox(child t of
# SeedSequence(seed))).  Both algorithms are counter-based or pure hashes, so
# the streams of a block of trials are computed here as arrays, word for word
# what the generator objects would produce (the constants are numpy's
# SeedSequence and Random123's Philox4x64-10).

_U32 = np.uint32
_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PHILOX_MULT = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_BUMP = (_U64(0x9E3779B97F4A7C15), _U64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10


def _child_keys(seq: np.random.SeedSequence, first: int, count: int) -> np.ndarray:
    """Philox keys [count, 2] of children first, ..., first + count - 1 of
    ``seq`` (an integer-entropy SeedSequence that has spawned nothing): row i
    is ``seq.spawn(first + count)[first + i].generate_state(2, np.uint64)``.

    A child's entropy is the parent's, zero-padded to the 4-word pool, then
    its spawn word t (one word while t < 2**32).  So its pool is the parent's
    pool with t mixed into every word, the hash constant continuing after the
    parent's 4 + 12 + 4 * (words - 4)+ hashmix steps."""
    words = max(1, -(-int(seq.entropy).bit_length() // 32))
    step = 16 + 4 * max(0, words - 4)
    t = np.arange(first, first + count, dtype=np.int64).astype(_U32)
    pool = []
    for word in seq.pool.tolist():
        hash_const = _HASH_INIT_A * pow(_HASH_MULT_A, step, 2**32) % 2**32
        step += 1
        mixed = (t ^ _U32(hash_const)) * _U32(hash_const * _HASH_MULT_A % 2**32)
        mixed ^= mixed >> _U32(16)
        mixed = _U32(_MIX_MULT_L * word % 2**32) - _U32(_MIX_MULT_R) * mixed
        pool.append(mixed ^ (mixed >> _U32(16)))
    # generate_state(2, uint64): four hashed pool words, little-endian pairs
    hash_const = _HASH_INIT_B
    state = []
    for word in pool:
        word = word ^ _U32(hash_const)
        hash_const = hash_const * _HASH_MULT_B % 2**32
        word = word * _U32(hash_const)
        state.append((word ^ (word >> _U32(16))).astype(_U64))
    return np.stack(
        [state[0] | state[1] << _U64(32), state[2] | state[3] << _U64(32)], axis=-1
    )


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products a * b, over 32-bit halves."""
    a_lo, a_hi = _U64(a & 0xFFFFFFFF), _U64(a >> 32)
    b_lo, b_hi = b & _LOW32, b >> _U64(32)
    cross_lo, cross_hi = a_lo * b_hi, a_hi * b_lo
    carry = ((a_lo * b_lo) >> _U64(32)) + (cross_lo & _LOW32) + (cross_hi & _LOW32)
    high = (
        a_hi * b_hi
        + (cross_lo >> _U64(32))
        + (cross_hi >> _U64(32))
        + (carry >> _U64(32))
    )
    return high, b * _U64(a)


def _philox(keys: np.ndarray, first: int, blocks: int) -> np.ndarray:
    """Philox4x64-10 output words [B, 4 * blocks] for keys [B, 2] at
    counters first, ..., first + blocks - 1: Philox(key=key) starts at
    counter 1, so counter c holds its words 4(c - 1) to 4c - 1."""
    counters = np.arange(first, first + blocks, dtype=np.int64).astype(_U64)
    zero = np.zeros(blocks, dtype=_U64)
    x = [counters, zero, zero, zero]
    key0, key1 = keys[:, :1], keys[:, 1:]
    for r in range(_PHILOX_ROUNDS):
        if r:
            key0, key1 = key0 + _PHILOX_BUMP[0], key1 + _PHILOX_BUMP[1]
        hi0, lo0 = _mulhilo(_PHILOX_MULT[0], x[0])
        hi1, lo1 = _mulhilo(_PHILOX_MULT[1], x[2])
        x = [hi1 ^ x[1] ^ key0, lo1, hi0 ^ x[3] ^ key1, lo0]
    x = [np.broadcast_to(lane, (len(keys), blocks)) for lane in x]
    return np.stack(x, axis=-1).reshape(len(keys), 4 * blocks)


class _PhiloxStreams:
    """``Generator(Philox(key=key))`` for every row of keys [B, 2] at once:
    ``integers`` and ``random`` return [B, *size[1:]], row b being what the
    same call on stream b's generator returns.

    The streams' words are computed as far as the draws reach.  A 32-bit
    draw takes the low half of a fresh word and keeps its high half for the
    next one; ``integers(0, b)`` is Lemire's (u * b) >> 32, rejecting u when
    (u * b) mod 2**32 < 2**32 mod b, which shifts that stream's later draws;
    ``random`` takes fresh words w, (w >> 11) * 2**-53."""

    def __init__(self, keys: np.ndarray) -> None:
        self._keys = keys
        self._words = np.zeros((len(keys), 0), dtype=_U64)
        self._next = np.zeros(len(keys), dtype=np.int64)  # next fresh word
        self._kept = np.full(len(keys), -1)  # the kept high half, or -1

    def _upto(self, words: int) -> np.ndarray:
        """The words computed so far, at least ``words`` per stream."""
        have = self._words.shape[1] // 4
        if 4 * have < words:
            blocks = max(-(-words // 4), 2 * have) - have
            more = _philox(self._keys, have + 1, blocks)
            self._words = np.concatenate([self._words, more], axis=1)
        return self._words

    def integers(self, low, high, size: tuple[int, ...]) -> np.ndarray:
        span = np.broadcast_to(np.asarray(high) - low, size[1:]).ravel()
        if not (2 <= span.min() and span.max() <= 2**32):
            raise ValueError("ranges must hold 2 to 2**32 integers")
        span = span.astype(_U64)
        reject_below = (_U64(2**32) - span) % span
        later = np.arange(span.size)
        kept = (self._kept >= 0)[:, None]
        order = np.zeros((len(self._keys), 1), dtype=np.int64) + later
        while True:
            # draw i takes the order[i]-th unused half, the kept one first
            at = 2 * self._next[:, None] + order - kept
            at = np.where(kept & (order == 0), self._kept[:, None], at)
            words = self._upto(int(at.max()) // 2 + 1)
            word = np.take_along_axis(words, at >> 1, axis=1)
            u = (word >> (_U64(32) * (at & 1).astype(_U64))) & _LOW32
            product = u * span
            rejected = (product & _LOW32) < reject_below
            if not rejected.any():
                break
            first = np.where(rejected.any(axis=1), rejected.argmax(axis=1), span.size)
            order += later >= first[:, None]
        fresh = order[:, -1] + 1 - kept[:, 0]  # fresh halves taken
        self._kept = np.where(fresh % 2 == 1, 2 * self._next + fresh, -1)
        self._next = self._next + (fresh + 1) // 2
        draws = (product >> _U64(32)).astype(np.int64) + low
        return draws.reshape((len(self._keys),) + size[1:])

    def random(self, size: tuple[int, ...]) -> np.ndarray:
        count = math.prod(size[1:])
        at = self._next[:, None] + np.arange(count)
        words = np.take_along_axis(self._upto(int(at.max()) + 1), at, axis=1)
        self._next = self._next + count
        uniform = (words >> _U64(11)).astype(np.float64) * 2.0**-53
        return uniform.reshape((len(self._keys),) + size[1:])


def _trial_draws(
    ig: InputGroup, n: int, keys: np.ndarray, messages: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each key's Philox stream, drawn in order: table images [B, k, n, c],
    dither [B, n, c], message index [B], one uniform per coordinate [B, n]."""
    streams = _PhiloxStreams(keys)
    size = (len(keys),)
    images, dither = _sample_table(ig, n, streams, size)
    sent = streams.integers(0, messages, size)
    return _checked(ig, images), dither, sent, streams.random(size + (n,))


def mc_channel_error(
    ig: InputGroup, n: int, chan: ChannelSpec, trials: int, seed: int
) -> MonteCarloReport:
    """Empirical block-error rate of the shifted random code under exhaustive
    maximum-likelihood decoding, averaged over freshly sampled (table,
    dither, message, noise) per trial.  Ties decode to the lowest message
    index, so the result is deterministic given the seed.

    Trial t (t < trials <= 2**32) draws from its own Philox4x64-10 stream,
    keyed by child t of ``SeedSequence(seed)``, an integer seed: the table
    digits, the dither and the message index, each ``(u * b) >> 32`` on the
    stream's 32-bit halves (Lemire's rejection), then one uniform u per
    coordinate from the next full words; the output is the first y whose
    cumulative W(. | x) exceeds u, which is how ``Generator.choice`` draws.
    The keys and words of a block of trials are computed as arrays, and
    encoding, the injectivity test and decoding run over the block, with
    block x messages x n x rings at most SIZE_CAP cells.  The report is bit
    for bit that of one ``Generator(Philox(child))`` per trial, drawn one
    trial at a time; it depends only on the SeedSequence and Philox
    algorithms, not on how ``Generator``'s methods are implemented."""
    _check_blocklength(n)
    if chan.group != ig.group:
        raise ValueError("channel input alphabet differs from the code group")
    if ig.size * chan.group.order**n > SIZE_CAP:
        raise ValueError("codebook times space size exceeds the simulation cap")
    if not 1 <= trials <= 2**32:
        raise ValueError(f"trials must be in [1, 2**32], got {trials}")
    moduli = ig.group.moduli
    messages = _grid(ig.spec.moduli)
    w = chan.matrix
    cdf = w.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    # at least 1: messages * |G|^n is within the cap and n * rings <= |G|^n
    block = SIZE_CAP // (len(messages) * n * len(moduli))
    seq = np.random.SeedSequence(seed)
    errors = injective_trials = injective_errors = 0
    for start in range(0, trials, block):
        keys = _child_keys(seq, start, min(block, trials - start))
        images, dither, sent, u = _trial_draws(ig, n, keys, len(messages))
        codewords = _encode(messages, images[:, None], dither[:, None], moduli)
        codebook = np.ravel_multi_index(np.moveaxis(codewords, -1, 0), moduli)
        words = np.ravel_multi_index(np.moveaxis(codebook, -1, 0), (len(w),) * n)
        injective = (np.diff(np.sort(words, axis=1), axis=1) != 0).all(axis=1)
        x = codebook[np.arange(len(sent)), sent]  # [B, n]
        y = (cdf[x] <= u[..., None]).sum(axis=-1)
        likelihood = w[codebook, y[:, None, :]].prod(axis=-1)  # [B, messages]
        wrong = likelihood.argmax(axis=1) != sent
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

    Exhaustive wherever the space allows; the pairwise law falls back to
    seeded sampling above the enumeration cap.
    """
    _check_blocklength(n)
    checks: list[LemmaCheck] = []
    rng = np.random.Generator(np.random.Philox(seed))

    # generator constraints on freshly sampled tables
    n_tables = min(samples, 1000)
    tables = [_sample_table(ig, n, rng)[0] for _ in range(n_tables)]
    bad_tables = sum(bool(_violations(ig, images).any()) for images in tables)
    checks.append(
        LemmaCheck(
            "generator-constraints",
            bad_tables == 0,
            f"{n_tables} sampled tables, {bad_tables} violations",
        )
    )

    # additivity of the sampled maps
    in_moduli = ig.spec.moduli
    moduli = ig.group.moduli
    grid = _grid(in_moduli) if ig.size <= 64 else None
    law_fail = 0
    law_total = 0
    for images in tables[:25]:
        if grid is not None:
            a = np.repeat(grid, len(grid), axis=0)
            b = np.tile(grid, (len(grid), 1))
        else:
            # 64 random pairs, drawn a then b per pair
            draws = rng.integers(0, np.broadcast_to(in_moduli, (64, 2, ig.total)))
            a, b = draws[:, 0], draws[:, 1]
        lhs = _encode((a + b) % in_moduli, images, 0, moduli)
        rhs = (_encode(a, images, 0, moduli) + _encode(b, images, 0, moduli)) % moduli
        law_total += len(a)
        law_fail += int((lhs != rhs).any(axis=(1, 2)).sum())
    checks.append(
        LemmaCheck(
            "homomorphism-law",
            law_fail == 0,
            f"{law_total} pairs checked, {law_fail} failures",
        )
    )

    # pairwise joint law
    elements = list(ig.spec.elements()) if ig.size <= 256 else None
    if elements is not None and len(elements) ** 2 <= 64:
        pairs = list(itertools.product(elements, elements))
    else:
        pool = elements or [
            ig.spec.element([int(rng.integers(0, m)) for m in ig.spec.moduli])
            for _ in range(16)
        ]
        flat = [(pool[int(rng.integers(0, len(pool)))],
                 pool[int(rng.integers(0, len(pool)))]) for _ in range(16)]
        pairs = flat
    reports = [
        verify_pairwise_law(ig, n, a, b, samples=max(samples, 1024), seed=seed + i)
        for i, (a, b) in enumerate(pairs)
    ]
    failed = [r for r in reports if not r.passed]
    modes = {r.mode for r in reports}
    checks.append(
        LemmaCheck(
            "pairwise-joint-law",
            not failed,
            f"{len(reports)} pairs ({'/'.join(sorted(modes))}), {len(failed)} failures",
        )
    )

    # census bound and selector-set equality
    census = theta_census(ig)
    over = [
        th for th, count in census.items() if count > t_theta_bound(ig, th)
    ]
    checks.append(
        LemmaCheck(
            "census-bound",
            not over,
            f"{len(census)} selector classes, {len(over)} above the bound",
        )
    )
    expected = enumerate_theta_set(ig.group, ig.support)
    got = frozenset(census)
    checks.append(
        LemmaCheck(
            "theta-set-equality",
            got == expected,
            f"census has {len(got)} selectors, support enumeration {len(expected)}",
        )
    )

    # congruence solver against brute force
    cong_total = 0
    cong_fail = 0
    for p in ig.group.primes:
        for r in range(1, ig.group.max_exponent(p) + 1):
            mod = p**r
            for s in range(1, r + 1):
                for a in range(1, p**s):
                    for b in range(mod):
                        brute = tuple(x for x in range(mod) if (a * x) % mod == b % mod)
                        cong_total += 1
                        if solve_congruence(p, r, s, a, b) != brute:
                            cong_fail += 1
    checks.append(
        LemmaCheck(
            "congruence-solver",
            cong_fail == 0,
            f"{cong_total} equations checked, {cong_fail} mismatches",
        )
    )
    return checks


# -- the modular linear-congruence solver ------------------------------------


def congruence_solutions_from(
    p: int, r: int, theta_hat: int, theta: int, alpha: int, beta: int
) -> tuple[int, ...]:
    """The explicit solution set for p^theta_hat * alpha * x = p^theta * beta
    mod p^r, exposed separately so the representation invariance (choice of
    alpha and beta) can be probed directly."""
    mod = p**r
    alpha_inv = pow(alpha, -1, mod)
    base = (p ** (theta - theta_hat) * alpha_inv * beta) % mod
    step = (alpha_inv * p ** (r - theta_hat)) % mod
    return tuple(sorted((base + i * step) % mod for i in range(p**theta_hat)))


def solve_congruence(p: int, r: int, s: int, a: int, b: int) -> tuple[int, ...]:
    """Exact solution set of a*x = b mod p^r for a nonzero a in Z_{p^s},
    s <= r: empty when b is shallower than a, else p^depth(a) solutions."""
    if not 1 <= s <= r:
        raise ValueError(f"need 1 <= s <= r, got s={s}, r={r}")
    if not 0 < a < p**s:
        raise ValueError(
            f"coefficient {a} must be a nonzero residue of Z_{p**s}; "
            "for a = 0 the equation is solvable exactly when b = 0"
        )
    if not 0 <= b < p**r:
        raise ValueError(f"target {b} must be a residue of Z_{p**r}")
    theta_hat = _depth(a, p, s)
    theta = _depth(b, p, r)
    if theta < theta_hat:
        return ()
    alpha = a // p**theta_hat
    beta = b // p**theta
    return congruence_solutions_from(p, r, theta_hat, theta, alpha, beta)
