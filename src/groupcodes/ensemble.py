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
    ig: InputGroup,
    n: int,
    rng: np.random.Generator | list[np.random.Generator],
    size: tuple[int, ...] = (),
) -> np.ndarray:
    """``size`` tables drawn from the ensemble, [*size, k, n, c]; given a
    list of generators, one table drawn from each, [len(rng), k, n, c]."""
    if isinstance(rng, np.random.Generator):
        return _tables(
            ig, n, lambda bounds: rng.integers(0, bounds, size=size + bounds.shape)
        )
    return _tables(ig, n, lambda bounds: np.array([g.integers(0, bounds) for g in rng]))


def _sample_table(
    ig: InputGroup, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One table's generator images [k, n, c], then its dither [n, c]."""
    images = _sample_tables(ig, n, rng)
    moduli = ig.group.moduli
    return images, rng.integers(0, np.broadcast_to(moduli, (n, len(moduli))))


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


def _trial_draws(
    ig: InputGroup, n: int, children: list[np.random.SeedSequence], messages: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One Philox stream per child, drawn in order: table images [B, k, n, c],
    dither [B, n, c], message index [B], one uniform per coordinate [B, n].
    The generators are dropped on return."""
    rngs = [np.random.Generator(np.random.Philox(child)) for child in children]
    moduli = ig.group.moduli
    dither_bounds = np.broadcast_to(moduli, (n, len(moduli)))
    images = _checked(ig, _sample_tables(ig, n, rngs))
    dither = np.array([g.integers(0, dither_bounds) for g in rngs])
    sent = np.array([g.integers(0, messages) for g in rngs])
    return images, dither, sent, np.array([g.random(n) for g in rngs])


def mc_channel_error(
    ig: InputGroup, n: int, chan: ChannelSpec, trials: int, seed: int
) -> MonteCarloReport:
    """Empirical block-error rate of the shifted random code under exhaustive
    maximum-likelihood decoding, averaged over freshly sampled (table,
    dither, message, noise) per trial.  Ties decode to the lowest message
    index, so the result is deterministic given the seed.

    Trial t draws from its own Philox stream, child t of
    ``SeedSequence(seed)``: the table digits, the dither, the message index,
    then one uniform u per coordinate; the output is the first y whose
    cumulative W(. | x) exceeds u, which is how ``Generator.choice`` draws.
    The streams of a block of trials are drawn first; encoding, the
    injectivity test and decoding then run as arrays over the block, with
    block x messages x n x rings at most SIZE_CAP cells.  The report is bit
    for bit that of one trial at a time."""
    _check_blocklength(n)
    if chan.group != ig.group:
        raise ValueError("channel input alphabet differs from the code group")
    if ig.size * chan.group.order**n > SIZE_CAP:
        raise ValueError("codebook times space size exceeds the simulation cap")
    if trials < 1:
        raise ValueError("need at least one trial")
    moduli = ig.group.moduli
    messages = _grid(ig.spec.moduli)
    w = chan.matrix
    cdf = w.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    # at least 1: messages * |G|^n is within the cap and n * rings <= |G|^n
    block = SIZE_CAP // (len(messages) * n * len(moduli))
    children = np.random.SeedSequence(seed).spawn(trials)
    errors = injective_trials = injective_errors = 0
    for start in range(0, trials, block):
        images, dither, sent, u = _trial_draws(
            ig, n, children[start : start + block], len(messages)
        )
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
