"""Achievable-rate functionals for Abelian group codes.

The two central quantities are a min-max (source side) and a max-min
(channel side) over weight vectors w on the (q, s) slots and subgroup
selectors theta.  Every objective term is a ratio of linear forms in w whose
value does not change when w is scaled, so for a fixed support the inner
problem is one linear-fractional program; the Charnes-Cooper substitution
turns it into one packing linear program, solved by a small dense simplex.
The outer optimization enumerates the support patterns that give every prime
of the group at least one slot.
Each optimization builds one selector table, from which every support's
linear program is sliced; Theta(S) is the set of selectors theta whose least
inducing depths m(theta) on S induce them back.  Nothing is cached.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

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


def _support_problems(
    spec: GroupSpec, terms: Mapping[ThetaVector, float], sense: str
):
    """Build the selector table of one call, rejecting missing or invalid
    terms, and slice it lazily, support by covering support in lexicographic
    order: (support, the selectors of Theta(S), and the LP input n =
    m(theta) log2 q on S, D = s log2 q on S, the terms and the sense's
    excluded endpoint selector)."""
    if sense not in ("source", "channel"):
        raise ValueError(f"unknown sense {sense!r}")
    supports = _covering_supports(spec)
    grid, depths, columns, members = _theta_sets(spec, supports)
    # the union of the Theta(S) is the reachable set, which terms must cover
    reachable = members.any(axis=0)
    thetas = _thetas(spec, grid[reachable])
    missing = [th for th in thetas if th not in terms]
    if missing:
        raise ValueError(f"terms missing for selectors {missing}")
    for th, c in terms.items():
        if not math.isfinite(c) or c < -1e-12:
            raise ValueError(f"information term for {th.components} is {c}")
    term_array = np.full(len(grid), math.nan)
    term_array[reachable] = [terms[th] for th in thetas]
    # the zero selector is the grid's first row, the full selector its last
    excluded = np.zeros(len(grid), dtype=bool)
    excluded[0 if sense == "source" else -1] = True
    log_q = np.array([math.log2(q) for q, _ in spec.weight_slots])
    n = depths * log_q
    d = np.array([s for _, s in spec.weight_slots]) * log_q
    for support, cols, rows in zip(supports, columns, members):
        problem = (n[rows][:, cols], d[cols], term_array[rows], excluded[rows])
        yield support, grid[rows], problem


# -- linear programming ----------------------------------------------------


def _packing_lp(
    a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Maximise c.x subject to A x <= b, x >= 0, for b >= 0.

    A dense tableau simplex started at the feasible origin, with Bland's
    rule (lowest-index entering column, lowest-index leaving basic variable
    among the tied ratios), which cannot cycle.  Returns the primal optimum x
    and the dual optimum y (the reduced costs of the slack columns), or None
    when the LP is unbounded.
    """
    m, n = a.shape
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = a
    tab[:m, n : n + m] = np.eye(m)
    tab[:m, -1] = b
    tab[m, :n] = -c
    basis = list(range(n, n + m))
    while True:
        entering = np.flatnonzero(tab[m, :-1] < -LP_TOL)
        if entering.size == 0:
            break
        j = entering[0]
        rows = np.flatnonzero(tab[:m, j] > LP_TOL)
        if rows.size == 0:
            return None
        ratios = tab[rows, -1] / tab[rows, j]
        tied = rows[ratios <= ratios.min() + LP_TOL]
        i = min(tied, key=basis.__getitem__)
        tab[i] /= tab[i, j]
        pivot_col = tab[:, j].copy()
        pivot_col[i] = 0.0
        tab -= np.outer(pivot_col, tab[i])
        basis[i] = j
    x = np.zeros(n + m)
    x[basis] = tab[:m, -1]
    return np.maximum(x[:n], 0.0), np.maximum(tab[m, n : n + m], 0.0)


# -- inner evaluation ------------------------------------------------------


def _evaluate_point(
    n: np.ndarray,
    d: np.ndarray,
    c: np.ndarray,
    excluded: np.ndarray,
    w: Sequence,
    sense: str,
) -> tuple[float, list[float]]:
    """Inner max (source) or min (channel) at a weight point over one
    support's selectors, plus the per-selector ratios, skipping the excluded
    endpoint selector."""
    wf = [float(v) for v in w]
    # the sums run in slot order, one slot at a time
    d_val = sum(x * v for x, v in zip(d.tolist(), wf))
    n_val = sum(n[:, j] * v for j, v in enumerate(wf))
    part = n_val / d_val if sense == "source" else (d_val - n_val) / d_val
    # the term over omega (source) or 1 - omega (channel); 0/0 -> 0, c/0 -> inf
    ratios = [
        (0.0 if x <= INFO_ZERO_TOL else math.inf) if y <= 0 else x / y
        for x, y in zip(c.tolist(), part.tolist())
    ]
    # Theta(S) holds the full selector and the one of depth zero on every
    # slot, which differ, so one of them is a candidate
    candidates = [r for r, skip in zip(ratios, excluded.tolist()) if not skip]
    value = max(candidates) if sense == "source" else min(candidates)
    return value, ratios


# -- per-support linear program -------------------------------------------


def _solve_support(
    n: np.ndarray,
    d: np.ndarray,
    c: np.ndarray,
    excluded: np.ndarray,
    sense: str,
) -> tuple[float, tuple[float, ...]] | None:
    """Optimize one support pattern, given its slice of the selector table;
    returns the value and the witness, or None for a source support on which
    some term is infinite for every weight choice.

    With v = w * rate / (D.w) the inner problem becomes one packing LP:
    channel, rate = max D.v subject to (D - N_theta).v <= c_theta; source,
    rate = min D.v subject to N_theta.v >= c_theta, solved as its dual
    max c.y subject to N^T y <= D, whose dual values are v.
    """
    k = len(d)
    uniform = (1.0 / k,) * k
    active = ~excluded & (c > INFO_ZERO_TOL)

    if sense == "source":
        if not n[active].any(axis=1).all():
            return None  # infinite term for every w on this support
        if not active.any():
            return 0.0, uniform
        _, v = _packing_lp(n[active].T, d, c[active])
    else:
        if (c[~excluded] <= INFO_ZERO_TOL).any():
            # a zero term pins the inner min to zero for every weight choice
            return 0.0, uniform
        # bounded: the selector of depth zero on every slot is active, with
        # the row D > 0
        v, _ = _packing_lp(d - n[active], c[active], d)

    witness = tuple((v / v.sum()).tolist())
    value, _ = _evaluate_point(n, d, c, excluded, witness, sense)
    return value, witness


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
    weights: WeightVector | None
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
    best = None
    for support, rows, problem in _support_problems(spec, terms, sense):
        res = _solve_support(*problem, sense)
        if res is None:
            continue
        if (
            best is None
            or (sense == "source" and res[0] < best[0])
            or (sense == "channel" and res[0] > best[0])
        ):
            best = (*res, support, rows, problem)

    if best is None:
        # only reachable when every support carries an everywhere-infinite term
        return RateResult(math.inf, None, (), (), (), sense)

    _, witness, support, rows, problem = best
    excluded = problem[3]
    value, ratios = _evaluate_point(*problem, witness, sense)
    weights = WeightVector.from_mapping(spec, dict(zip(support, witness)))
    thetas = _thetas(spec, rows)
    coeffs = _min_depths(spec.ring_levels, spec.weight_slots, rows).tolist()
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
            info_bits=terms[th],
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


def source_coding_rate(sj: SourceJoint) -> RateResult:
    """Source-coding group mutual information of a joint with uniform
    reconstruction marginal: min over weights of the max scaled coset term."""
    return optimize_weights(sj.group, source_terms(sj), "source")


def channel_coding_rate(chan: ChannelSpec) -> RateResult:
    """Channel-coding group mutual information of a channel with uniform
    input: max over weights of the min scaled coset term."""
    return optimize_weights(chan.group, channel_terms(chan), "channel")


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


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def grid_search(
    spec: GroupSpec,
    terms: Mapping[ThetaVector, float],
    sense: str,
    steps: int = 200,
) -> tuple[float, WeightVector]:
    """Independent exhaustive oracle: evaluate the inner optimum on every
    weight vector of the simplex grid with the given step count and return
    the best value.  Slow but direct; used to cross-check the linear-program
    solver."""
    slots = spec.weight_slots
    problems = {
        support: problem
        for support, _, problem in _support_problems(spec, terms, sense)
    }
    best_val: float | None = None
    best_w: tuple[float, ...] | None = None
    for combo in _compositions(steps, len(slots)):
        problem = problems.get(tuple(x for x, c in zip(slots, combo) if c > 0))
        if problem is None:
            continue  # some prime has no weight
        w = tuple(c / steps for c in combo if c > 0)
        value, _ = _evaluate_point(*problem, w, sense)
        if (
            best_val is None
            or (sense == "source" and value < best_val)
            or (sense == "channel" and value > best_val)
        ):
            best_val = value
            best_w = tuple(c / steps for c in combo)
    if best_val is None:
        raise SolverError("grid contains no valid weight vector")
    return best_val, WeightVector(spec, best_w)
