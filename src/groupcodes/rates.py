"""Achievable-rate functionals for Abelian group codes.

The two central quantities are a min-max (source side) and a max-min
(channel side) over weight vectors w on the (q, s) slots and subgroup
selectors theta.  Every objective term is a ratio of linear forms in w whose
value does not change when w is scaled, so for a fixed support the inner
problem is one linear-fractional program; the Charnes-Cooper substitution
turns it into one packing linear program, solved by a small dense simplex.
The outer optimization ranges over the support patterns that give every prime
of the group at least one slot, visited best-first by a vertex bound.  A
single selector's ratio is linear-fractional, so its extremes on the face S
sit at vertices: the source bound is the largest over Theta(S) of
c_theta / max omega_theta, the channel bound the least of
c_theta / (1 - max omega_theta), and neither side's optimum on S can beat
its bound.  Once a bound falls short of the incumbent by the relative tie
tolerance, no later support can tie or win.  Supports whose values agree to
that tolerance tie, and the lexicographically first wins.
Each rate call builds one selector table, used for the terms and for every
support's linear program, which is sliced from it; Theta(S) is the set of
selectors theta whose least inducing depths m(theta) on S induce them back.
Nothing is cached.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .groups import GroupSpec, ThetaVector, _grid, _induce, _min_depths
from .measures import (
    ChannelSpec,
    SourceJoint,
    _channel_terms,
    _source_terms,
    coset_mi_channel,
    coset_mi_source,
)

# Information terms at or below this count as exactly zero when applying the
# 0/0 -> 0 term convention; far below any meaningful rate in bits.
INFO_ZERO_TOL = 1e-12
# Pivot and reduced-cost threshold of the simplex; the LP coefficients are
# bits and s * log2(q), of order one.
LP_TOL = 1e-12
# Relative slack when collecting the thetas that attain the inner optimum.
CRITICAL_TOL = 1e-7
# Supports whose values agree to this relative tolerance tie, and the
# lexicographically first wins; a support is skipped only when its vertex
# bound falls short of the incumbent by this margin, so it cannot tie.
TIE_TOL = 1e-12
# Grid points the oracle evaluates in one array computation, which bounds its
# memory for any step count.
GRID_BLOCK = 256


class SolverError(RuntimeError):
    """The weight optimization could not produce a value."""


def _log_weight(q: int) -> Fraction:
    """log2(q) as an exact rational of its float value (exactly 1 for q=2)."""
    return Fraction(1) if q == 2 else Fraction(math.log2(q))


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative weights over the (q, s) slots of a group, summing to one.

    Values may be fractions.Fraction (exact) or floats.
    """

    spec: GroupSpec
    values: tuple

    def __post_init__(self) -> None:
        slots = self.spec.weight_slots
        if len(self.values) != len(slots):
            raise ValueError(f"expected {len(slots)} weights for slots {slots}")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError(f"weights must be finite, got {self.values}")
        if any(v < 0 for v in self.values):
            raise ValueError("weights must be nonnegative")
        if abs(sum(self.values) - 1) > 1e-9:
            raise ValueError(f"weights sum to {sum(self.values)}, not 1")

    @classmethod
    def from_mapping(cls, spec: GroupSpec, mapping: Mapping[tuple[int, int], object]):
        return cls(spec, tuple(mapping.get(slot, 0) for slot in spec.weight_slots))

    @property
    def support(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            slot for slot, v in zip(self.spec.weight_slots, self.values) if v > 0
        )

    def as_mapping(self) -> dict[tuple[int, int], object]:
        return dict(zip(self.spec.weight_slots, self.values))


def induced_theta(
    spec: GroupSpec,
    support: Iterable[tuple[int, int]],
    slot_depths: Mapping[tuple[int, int], int],
) -> ThetaVector:
    """Map per-slot depths on the supported input components to the subgroup
    selector they induce on the group: each level takes the minimum of
    |r - s|^+ + depth over supported slots of its prime, clamped to [0, r]."""
    support = tuple(support)
    _check_support(spec, support)
    for slot in support:
        depth = slot_depths[slot]
        if not 0 <= depth <= slot[1]:
            raise ValueError(f"depth {depth} for slot {slot} not in [0, {slot[1]}]")
    depths = [slot_depths[slot] for slot in support]
    return ThetaVector(spec, tuple(_induce(spec.ring_levels, support, depths).tolist()))


def _check_support(spec: GroupSpec, support: tuple[tuple[int, int], ...]) -> None:
    """A support must hold weight slots only and give every prime a slot."""
    slots = set(spec.weight_slots)
    for slot in support:
        if slot not in slots:
            raise ValueError(f"slot {slot} is not a weight slot of this group")
    missing = set(spec.primes) - {q for q, _ in support}
    if missing:
        raise ValueError(
            f"support {support} has no slot for prime {min(missing)}: "
            "the induced depth is undefined"
        )


def _theta_sets(spec: GroupSpec, supports) -> tuple[np.ndarray, ...]:
    """The selector grid [n, L] (sorted by components), the least depths
    m(theta) [n, k] of every row on every weight slot (the omega
    coefficients), the supports as slot masks [supports, k], and Theta(S) of
    each as a row of a mask [supports, n].

    Depths inducing theta are at least m(theta) and inducing is monotone, so
    theta is in Theta(S) exactly when m(theta) on S induces it back: when a
    slot of S alone hits each level exactly, as none induces less."""
    levels, slots = spec.ring_levels, spec.weight_slots
    grid = _grid([r + 1 for _, r in levels])
    depths = _min_depths(levels, slots, grid)
    hits = np.array(  # [k, n, L]: each slot alone
        [_induce(levels, [x], depths[:, [j]]) == grid for j, x in enumerate(slots)]
    )
    columns = np.array([[slot in sup for slot in slots] for sup in supports])
    # one level at a time, so nothing larger than the mask is built
    members = np.ones((len(supports), len(grid)), dtype=bool)
    for level in range(grid.shape[1]):
        members &= columns @ hits[:, :, level]
    return grid, depths, columns, members


def _thetas(spec: GroupSpec, rows: np.ndarray) -> list[ThetaVector]:
    return [ThetaVector(spec, tuple(row)) for row in rows.tolist()]


def enumerate_theta_set(
    spec: GroupSpec, support: Iterable[tuple[int, int]]
) -> frozenset[ThetaVector]:
    """All subgroup selectors reachable from a support pattern.  Depends only
    on the support, never on the weight values."""
    support = tuple(sorted(set(support)))
    _check_support(spec, support)
    grid, _, _, members = _theta_sets(spec, [support])
    return frozenset(_thetas(spec, grid[members[0]]))


def omega(spec: GroupSpec, weights, theta: ThetaVector):
    """The weighted rate fraction in [0, 1] for a subgroup selector.

    ``weights`` is a WeightVector or a mapping over the (q, s) slots.  With
    Fraction weights the result is exact whenever the group has a single
    prime (log factors cancel); with floats it is a float.
    """
    if isinstance(weights, WeightVector):
        values = weights.values
    else:
        values = [weights.get(slot, 0) for slot in spec.weight_slots]
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"weights must be finite, got {values}")
    coeffs = _min_depths(spec.ring_levels, spec.weight_slots, theta.components)
    return _omega(spec, values, coeffs.tolist())


def _omega(spec: GroupSpec, values, coeffs):
    """omega from the weights and the numerator coefficients on every slot:
    in float arithmetic when every nonzero weight is a float, exactly
    otherwise."""
    exact = not all(isinstance(w, float) for w in values if w != 0)
    num = 0
    den = 0
    for (q, s), w, coeff in zip(spec.weight_slots, values, coeffs):
        if w == 0:
            continue
        scale = (_log_weight(q) if exact else math.log2(q)) * w
        num = num + coeff * scale
        den = den + s * scale
    if den == 0:
        raise ValueError("weight vector has empty support")
    return num / den


def _covering_supports(spec: GroupSpec) -> list[tuple[tuple[int, int], ...]]:
    """All support patterns giving every prime at least one slot, in
    lexicographic order (the deterministic tie-break order)."""
    per_prime = []
    for q in spec.primes:
        slots = [(q, s) for s in range(1, spec.max_exponent(q) + 1)]
        per_prime.append(
            [
                c
                for k in range(1, len(slots) + 1)
                for c in itertools.combinations(slots, k)
            ]
        )
    supports = [
        tuple(sorted(itertools.chain.from_iterable(combo)))
        for combo in itertools.product(*per_prime)
    ]
    return sorted(supports)


def all_reachable_thetas(spec: GroupSpec) -> tuple[ThetaVector, ...]:
    """Union of the theta sets over every valid support pattern.

    That union is the theta set of the full support: a slot at its full
    depth s gives |r - s|^+ + s >= r, so adding a slot never removes a
    selector and Theta(S) is contained in Theta(S + slot)."""
    thetas = enumerate_theta_set(spec, spec.weight_slots)
    return tuple(sorted(thetas, key=lambda t: t.components))


class _Table:
    """The selector table of one rate call: the covering supports in
    lexicographic order (the tie-break order) and _theta_sets of them."""

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.supports = _covering_supports(spec)
        self.grid, self.depths, self.columns, self.members = _theta_sets(
            spec, self.supports
        )
        # the union of the Theta(S), the reachable set, which terms must cover
        self.reachable = self.members.any(axis=0)
        self.thetas = _thetas(spec, self.grid[self.reachable])


class _SupportProblems:
    """The LP input of every support of a table for one sense and one set of
    terms, rejecting missing or invalid terms; support i's slice is taken on
    demand: (the selectors of Theta(S), and n = m(theta) log2 q on S,
    D = s log2 q on S, the terms and the sense's excluded endpoint
    selector).  ``sign`` states the outer direction: +1 maximises (channel),
    -1 minimises (source), so sign * value is larger when better."""

    def __init__(
        self, table: _Table, terms: Mapping[ThetaVector, float], sense: str
    ):
        if sense not in ("source", "channel"):
            raise ValueError(f"unknown sense {sense!r}")
        thetas = table.thetas
        missing = [th for th in thetas if th not in terms]
        if missing:
            raise ValueError(f"terms missing for selectors {missing}")
        for th, c in terms.items():
            if not math.isfinite(c) or c < -1e-12:
                raise ValueError(f"information term for {th.components} is {c}")
        self.table, self.terms, self.sense = table, terms, sense
        self.sign = 1 if sense == "channel" else -1
        self.c = np.full(len(table.grid), math.nan)
        self.c[table.reachable] = [terms[th] for th in thetas]
        # the zero selector is the grid's first row, the full selector its last
        self.excluded = np.zeros(len(table.grid), dtype=bool)
        self.excluded[0 if sense == "source" else -1] = True
        slots = table.spec.weight_slots
        log_q = np.array([math.log2(q) for q, _ in slots])
        self.n = table.depths * log_q
        self.d = np.array([s for _, s in slots]) * log_q

    def __getitem__(self, i: int):
        cols, rows = self.table.columns[i], self.table.members[i]
        n, d = self.n[rows][:, cols], self.d[cols]
        problem = (n, d, self.c[rows], self.excluded[rows])
        return self.table.grid[rows], problem

    def vertex_bounds(self) -> np.ndarray:
        """The bound of every support that its optimum cannot beat.  On the
        face S, a selector's omega_theta is linear-fractional, so it is
        largest at a vertex, top = max over j in S of m_j(theta)/s_j.  The
        source bound LB(S) is the max over the active theta in Theta(S) of
        c_theta / top, the channel bound UB(S) the min of
        c_theta / (1 - top).  A term at or below INFO_ZERO_TOL bounds by 0, a
        zero denominator by +inf: a source support with LB(S) = +inf has a
        term that is infinite for every weight choice."""
        table, sign = self.table, self.sign
        s = np.array([s for _, s in table.spec.weight_slots])
        top = np.zeros(table.members.shape)
        for j in range(len(s)):  # one slot at a time, [supports, n] at most
            frac = np.where(table.columns[:, [j]], table.depths[:, j] / s[j], 0.0)
            np.maximum(top, frac, out=top)
        part = top if sign < 0 else 1.0 - top
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = np.where(self.c <= INFO_ZERO_TOL, 0.0, self.c / part)
        counted = table.members & ~self.excluded
        # the max (source) or min (channel) over the counted selectors
        return sign * np.where(counted, sign * bound, math.inf).min(axis=1)


# -- linear programming ----------------------------------------------------


def _packing_lp(
    a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Maximise c.x subject to A x <= b, x >= 0, for b >= 0.

    A dense tableau simplex started at the feasible origin, with Bland's
    rule (lowest-index entering column, lowest-index leaving basic variable
    among the tied ratios), which cannot cycle.  Returns the primal optimum x
    and the dual optimum y (the reduced costs of the slack columns); raises
    SolverError when the LP is unbounded.
    """
    m, n = a.shape
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = a
    np.fill_diagonal(tab[:m, n:], 1.0)
    tab[:m, -1] = b
    tab[m, :n] = -c
    cost, rhs = tab[m, :-1], tab[:m, -1]
    basis = np.arange(n, n + m)
    ratios = np.empty(m)
    while True:
        j = (cost < -LP_TOL).argmax()
        if not cost[j] < -LP_TOL:
            break
        col = tab[:m, j]
        rows = col > LP_TOL
        if not rows.any():
            raise SolverError("unbounded packing LP")
        ratios.fill(math.inf)
        np.divide(rhs, col, out=ratios, where=rows)
        i = np.where(ratios <= ratios.min() + LP_TOL, basis, n + m).argmin()
        tab[i] /= tab[i, j]
        pivot_col = tab[:, j].copy()
        pivot_col[i] = 0.0
        tab -= pivot_col[:, None] * tab[i]
        basis[i] = j
    x = np.zeros(n + m)
    x[basis] = rhs
    return np.maximum(x[:n], 0.0), np.maximum(tab[m, n : n + m], 0.0)


# -- inner evaluation ------------------------------------------------------


def _evaluate(
    n: np.ndarray,
    d: np.ndarray,
    c: np.ndarray,
    excluded: np.ndarray,
    w: np.ndarray,
    sense: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Inner max (source) or min (channel) over one support's selectors at
    each weight point, a row of w [points, slots], skipping the excluded
    endpoint selector, plus the per-selector ratios [points, selectors]."""
    # the sums run in slot order: accumulate adds one slot at a time
    d_val = np.add.accumulate(w * d, axis=1)[:, -1:]
    n_val = np.add.accumulate(w[:, :, None] * n.T, axis=1)[:, -1]
    part = n_val / d_val if sense == "source" else (d_val - n_val) / d_val
    # the term over omega (source) or 1 - omega (channel); 0/0 -> 0, c/0 -> inf
    ratios = np.where(c <= INFO_ZERO_TOL, 0.0, math.inf) * np.ones_like(part)
    np.divide(c, part, out=ratios, where=part > 0)
    # Theta(S) holds the full selector and the one of depth zero on every
    # slot, which differ, so one of them is a candidate
    if sense == "source":
        values = np.max(ratios, axis=1, where=~excluded, initial=-math.inf)
    else:
        values = np.min(ratios, axis=1, where=~excluded, initial=math.inf)
    return values, ratios


# -- per-support linear program -------------------------------------------


def _solve_support(
    n: np.ndarray,
    d: np.ndarray,
    c: np.ndarray,
    excluded: np.ndarray,
    sense: str,
) -> tuple[float, tuple[float, ...]]:
    """Optimize one support pattern, given its slice of the selector table;
    returns the value and the witness.

    With v = w * rate / (D.w) the inner problem becomes one packing LP:
    channel, rate = max D.v subject to (D - N_theta).v <= c_theta; source,
    rate = min D.v subject to N_theta.v >= c_theta, solved as its dual
    max c.y subject to N^T y <= D, whose dual values are v.
    """
    k = len(d)
    uniform = (1.0 / k,) * k
    active = ~excluded & (c > INFO_ZERO_TOL)

    if sense == "source":
        if not active.any():
            return 0.0, uniform
        # bounded when every active row of N is nonzero on the support, which
        # is when its vertex bound is finite
        _, v = _packing_lp(n[active].T, d, c[active])
    else:
        if (c[~excluded] <= INFO_ZERO_TOL).any():
            # a zero term pins the inner min to zero for every weight choice
            return 0.0, uniform
        # bounded: the selector of depth zero on every slot is active, with
        # the row D > 0
        v, _ = _packing_lp(d - n[active], c[active], d)

    witness = tuple((v / v.sum()).tolist())
    values, _ = _evaluate(n, d, c, excluded, np.array([witness]), sense)
    return float(values[0]), witness


# -- results ---------------------------------------------------------------


@dataclass(frozen=True)
class PerThetaTerm:
    theta: ThetaVector
    omega: float
    info_bits: float
    ratio_bits: float


@dataclass(frozen=True)
class RateResult:
    """Outcome of a weight optimization: the rate in bits, a witness weight
    vector, the selectors that attain the inner optimum there, and the full
    per-selector term table at the witness."""

    value: float
    weights: WeightVector
    critical_thetas: tuple[ThetaVector, ...]
    per_theta: tuple[PerThetaTerm, ...]
    support: tuple[tuple[int, int], ...]
    sense: str


def optimize_weights(
    spec: GroupSpec,
    terms: Mapping[ThetaVector, float],
    sense: str,
) -> RateResult:
    """Optimize the weighted min-max (source) or max-min (channel) objective
    built from precomputed per-selector information terms.

    ``terms`` must cover every selector reachable from some support pattern,
    with finite nonnegative values.
    """
    return _optimize(_SupportProblems(_Table(spec), terms, sense))


def _optimize(problems: _SupportProblems) -> RateResult:
    """Solve the supports that can still win and report the winner.

    Values and bounds are compared signed, sign * value, so larger is better
    in both senses.  Supports are visited by bound, best first (a stable
    order, so equal bounds stay lexicographic), until a bound falls short of
    the incumbent by more than TIE_TOL: no later support can tie or win.  The
    full support's bound is finite, so a source support whose term is
    infinite for every weight choice sorts after it and is never solved."""
    sign = problems.sign
    bounds = sign * problems.vertex_bounds()
    solved = {}
    best = -math.inf
    for i in np.argsort(-bounds, kind="stable").tolist():
        if bounds[i] < best - TIE_TOL * abs(best):
            break
        value, witness = _solve_support(*problems[i][1], problems.sense)
        solved[i] = sign * value, witness
        best = max(best, sign * value)
    i = _winner({i: value for i, (value, _) in solved.items()})
    return _result(problems, i, solved[i][1])


def _winner(values: Mapping[int, float]) -> int:
    """The lexicographically first support whose signed value is within a
    relative TIE_TOL of the best, so ulp noise cannot reorder tied supports."""
    opt = max(values.values())
    slack = TIE_TOL * abs(opt)
    return min(i for i, v in values.items() if abs(v - opt) <= slack)


def _result(problems: _SupportProblems, i: int, witness: tuple) -> RateResult:
    """The result of support i at a witness: the inner optimum evaluated
    there, its critical selectors and the per-selector table."""
    table, sense = problems.table, problems.sense
    spec, support = table.spec, table.supports[i]
    rows, problem = problems[i]
    excluded = problem[3]
    values, ratios = _evaluate(*problem, np.array([witness]), sense)
    value, ratios = float(values[0]), ratios[0].tolist()
    weights = WeightVector.from_mapping(spec, dict(zip(support, witness)))
    thetas = _thetas(spec, rows)
    coeffs = table.depths[table.members[i]].tolist()
    crit_tol = CRITICAL_TOL * (1.0 + abs(value))
    critical = tuple(
        th
        for th, skip, ratio in zip(thetas, excluded, ratios)
        if not skip and abs(ratio - value) <= crit_tol
    )
    per_theta = tuple(
        PerThetaTerm(
            theta=th,
            omega=float(_omega(spec, weights.values, row)),
            info_bits=problems.terms[th],
            ratio_bits=ratio,
        )
        for th, row, ratio in zip(thetas, coeffs, ratios)
    )
    return RateResult(value, weights, critical, per_theta, support, sense)


# -- the two functionals ---------------------------------------------------


def source_terms(sj: SourceJoint) -> dict[ThetaVector, float]:
    """Coset information terms for every reachable selector, with H(X)
    computed once for all of them."""
    thetas = all_reachable_thetas(sj.group)
    return dict(zip(thetas, _source_terms(sj, thetas)))


def channel_terms(chan: ChannelSpec) -> dict[ThetaVector, float]:
    """Conditional coset information terms for every reachable selector,
    with H(Y | X) computed once for all of them."""
    thetas = all_reachable_thetas(chan.group)
    return dict(zip(thetas, _channel_terms(chan, thetas)))


def _rate(data, sense: str) -> RateResult:
    """One selector table for the terms and the optimization."""
    table = _Table(data.group)
    terms_of = _source_terms if sense == "source" else _channel_terms
    terms = dict(zip(table.thetas, terms_of(data, table.thetas)))
    return _optimize(_SupportProblems(table, terms, sense))


def source_coding_rate(sj: SourceJoint) -> RateResult:
    """Source-coding group mutual information of a joint with uniform
    reconstruction marginal: min over weights of the max scaled coset term."""
    return _rate(sj, "source")


def channel_coding_rate(chan: ChannelSpec) -> RateResult:
    """Channel-coding group mutual information of a channel with uniform
    input: max over weights of the min scaled coset term."""
    return _rate(chan, "channel")


# -- closed forms for a single Z_{p^r} ring --------------------------------


def _single_ring(spec: GroupSpec) -> tuple[int, int]:
    if len(spec.rings) != 1:
        raise ValueError(
            f"closed form applies to a single Z_(p^r) ring, not {spec.describe()}"
        )
    p, r, _ = spec.rings[0]
    return p, r


def source_rate_prime_power(sj: SourceJoint) -> float:
    """Single-ring fast path: max over depth 1..r of (r/depth) times the
    coset information.  Must match the general optimizer."""
    _, r = _single_ring(sj.group)
    return max(
        (r / t) * coset_mi_source(sj, ThetaVector(sj.group, (t,)))
        for t in range(1, r + 1)
    )


def channel_rate_prime_power(chan: ChannelSpec) -> float:
    """Single-ring fast path: min over depth 0..r-1 of (r/(r-depth)) times
    the conditional coset information.  The reduction is a minimum: each
    depth is a constraint and the tightest one binds, mirroring the max on
    the source side."""
    _, r = _single_ring(chan.group)
    return min(
        (r / (r - t)) * coset_mi_channel(chan, ThetaVector(chan.group, (t,)))
        for t in range(r)
    )


# -- grid oracle -----------------------------------------------------------


def grid_search(
    spec: GroupSpec,
    terms: Mapping[ThetaVector, float],
    sense: str,
    steps: int = 200,
) -> tuple[float, WeightVector]:
    """Independent exhaustive oracle: evaluate the inner optimum on every
    weight vector of the simplex grid with the given step count and return
    the best value.  Direct, with no linear program; used to cross-check the
    solver.  Each covering support takes the grid points positive exactly on
    it, evaluated GRID_BLOCK points at a time."""
    problems = _SupportProblems(_Table(spec), terms, sense)
    sign, slots = problems.sign, spec.weight_slots
    best_val: float | None = None
    best_w: tuple[float, ...] | None = None
    for i, support in enumerate(problems.table.supports):
        _, problem = problems[i]
        k = len(support)
        # a positive composition of steps is k - 1 distinct cuts in 1..steps-1
        cuts = itertools.combinations(range(1, steps), k - 1)
        while block := list(itertools.islice(cuts, GRID_BLOCK)):
            edges = np.array(block, dtype=np.int64).reshape(len(block), k - 1)
            w = np.diff(edges, axis=1, prepend=0, append=steps) / steps
            values, _ = _evaluate(*problem, w, sense)
            at = int((sign * values).argmax())
            value = float(values[at])
            if best_val is None or sign * value > sign * best_val:
                best_val = value
                point = dict(zip(support, w[at].tolist()))
                best_w = tuple(point.get(slot, 0.0) for slot in slots)
    if best_val is None:
        raise SolverError("grid contains no valid weight vector")
    return best_val, WeightVector(spec, best_w)
