"""Achievable-rate functionals for Abelian group codes.

The two central quantities are a min-max (source side) and a max-min
(channel side) over weight vectors w on the (q, s) slots and subgroup
selectors theta.  Every objective term is a ratio of linear forms in w whose
value does not change when w is scaled, so for a fixed support the inner
problem is one linear-fractional program; the Charnes-Cooper substitution
turns it into one packing linear program, solved by a small dense simplex.
The outer optimization enumerates the support patterns that give every prime
of the group at least one slot.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .groups import GroupSpec, ThetaVector
from .measures import (
    ChannelSpec,
    SourceJoint,
    ValidationError,
    coset_mi_channel,
    coset_mi_source,
    validate_distribution,
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


def _numerator_coeff(spec: GroupSpec, theta: ThetaVector, q: int, s: int) -> int:
    """Coefficient of w_{q,s} in the omega numerator: the clipped depth
    max over levels (p,r) with p=q of (theta_{p,r} - |r-s|^+)^+."""
    best = 0
    for (p, r), t in zip(spec.ring_levels, theta.components):
        if p == q:
            best = max(best, t - max(r - s, 0))
    return max(best, 0)


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
    comps = [
        min([r] + [max(r - s, 0) + slot_depths[(q, s)] for q, s in support if q == p])
        for p, r in spec.ring_levels
    ]
    return ThetaVector(spec, tuple(comps))


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


@lru_cache(maxsize=None)
def _theta_set_cached(
    spec: GroupSpec, support: tuple[tuple[int, int], ...]
) -> frozenset[ThetaVector]:
    """Fold the support in one slot at a time: every level starts at r and
    takes the minimum with |r - s|^+ + depth, so only the distinct partial
    vectors need to be carried from one slot to the next."""
    _check_support(spec, support)
    partial = {tuple(r for _, r in spec.ring_levels)}
    for q, s in support:
        options = [
            tuple(max(r - s, 0) + depth if p == q else r for p, r in spec.ring_levels)
            for depth in range(s + 1)
        ]
        partial = {
            tuple(map(min, vec, opt)) for vec in partial for opt in options
        }
    return frozenset(ThetaVector(spec, comps) for comps in partial)


def enumerate_theta_set(
    spec: GroupSpec, support: Iterable[tuple[int, int]]
) -> frozenset[ThetaVector]:
    """All subgroup selectors reachable from a support pattern.  Depends only
    on the support, never on the weight values."""
    return _theta_set_cached(spec, tuple(sorted(set(support))))


def omega(spec: GroupSpec, weights, theta: ThetaVector):
    """The weighted rate fraction in [0, 1] for a subgroup selector.

    ``weights`` is a WeightVector or a mapping over the (q, s) slots.  With
    Fraction weights the result is exact whenever the group has a single
    prime (log factors cancel); with floats it is a float.
    """
    if isinstance(weights, WeightVector):
        items = list(zip(spec.weight_slots, weights.values))
    else:
        items = [(slot, weights.get(slot, 0)) for slot in spec.weight_slots]
    num = 0
    den = 0
    for (q, s), w in items:
        if w == 0:
            continue
        scale = _log_weight(q) * w
        num = num + _numerator_coeff(spec, theta, q, s) * scale
        den = den + s * scale
    if den == 0:
        raise ValueError("weight vector has empty support")
    return num / den


# -- per-support data ------------------------------------------------------


@dataclass(frozen=True)
class _SupportProblem:
    support: tuple[tuple[int, int], ...]
    thetas: tuple[ThetaVector, ...]  # Theta(support), sorted by components
    d_floats: tuple[float, ...]  # s * log2(q) per slot
    n_floats: tuple[tuple[float, ...], ...]  # per theta, per slot


@lru_cache(maxsize=None)
def _support_problem(
    spec: GroupSpec, support: tuple[tuple[int, int], ...]
) -> _SupportProblem:
    thetas = tuple(
        sorted(enumerate_theta_set(spec, support), key=lambda t: t.components)
    )
    return _SupportProblem(
        support,
        thetas,
        tuple(s * math.log2(q) for q, s in support),
        tuple(
            tuple(_numerator_coeff(spec, th, q, s) * math.log2(q) for q, s in support)
            for th in thetas
        ),
    )


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


def _term_ratio(c: float, den_fraction: float) -> float:
    """Objective term c / omega-part with the 0/0 -> 0 convention.

    ``den_fraction`` is omega (source) or 1 - omega (channel).
    """
    if den_fraction <= 0:
        return 0.0 if c <= INFO_ZERO_TOL else math.inf
    return c / den_fraction


def _evaluate_point(
    prob: _SupportProblem,
    terms: Mapping[ThetaVector, float],
    w: Sequence,
    sense: str,
) -> tuple[float, dict[ThetaVector, float]]:
    """Inner max (source) or min (channel) at a weight point, plus the
    per-theta ratios, skipping the excluded endpoint selector."""
    wf = [float(v) for v in w]
    d_val = sum(c * v for c, v in zip(prob.d_floats, wf))
    ratios: dict[ThetaVector, float] = {}
    candidates: list[float] = []
    for th, n_row in zip(prob.thetas, prob.n_floats):
        n_val = sum(c * v for c, v in zip(n_row, wf))
        c = terms[th]
        if sense == "source":
            ratio = _term_ratio(c, n_val / d_val)
            excluded = th.is_zero()
        else:
            ratio = _term_ratio(c, (d_val - n_val) / d_val)
            excluded = th.is_full()
        ratios[th] = ratio
        if not excluded:
            candidates.append(ratio)
    if not candidates:
        raise SolverError(f"no admissible selector for support {prob.support}")
    value = max(candidates) if sense == "source" else min(candidates)
    return value, ratios


# -- per-support linear program -------------------------------------------


@dataclass
class _SupportResult:
    value: float
    witness: tuple[float, ...]
    problem: _SupportProblem


def _solve_support(
    spec: GroupSpec,
    support: tuple[tuple[int, int], ...],
    terms: Mapping[ThetaVector, float],
    sense: str,
) -> _SupportResult | None:
    """Optimize one support pattern; None for a source support on which some
    term is infinite for every weight choice.

    With v = w * rate / (D.w) the inner problem becomes one packing LP:
    channel, rate = max D.v subject to (D - N_theta).v <= c_theta; source,
    rate = min D.v subject to N_theta.v >= c_theta, solved as its dual
    max c.y subject to N^T y <= D, whose dual values are v.
    """
    prob = _support_problem(spec, support)
    k = len(support)
    uniform = (1.0 / k,) * k
    d = np.array(prob.d_floats)
    active = [
        (terms[th], n_row)
        for th, n_row in zip(prob.thetas, prob.n_floats)
        if not (th.is_zero() if sense == "source" else th.is_full())
        and terms[th] > INFO_ZERO_TOL
    ]
    c = np.array([term for term, _ in active])
    n = np.array([n_row for _, n_row in active]).reshape(len(active), k)

    if sense == "source":
        if any(not row.any() for row in n):
            return None  # infinite term for every w on this support
        if not active:
            return _SupportResult(0.0, uniform, prob)
        _, v = _packing_lp(n.T, d, c)
    else:
        if any(
            terms[th] <= INFO_ZERO_TOL for th in prob.thetas if not th.is_full()
        ):
            # a zero term pins the inner min to zero for every weight choice
            return _SupportResult(0.0, uniform, prob)
        solution = _packing_lp(d - n, c, d)
        if solution is None:
            raise SolverError(f"support {support}: the channel LP is unbounded")
        v, _ = solution

    witness = tuple((v / v.sum()).tolist())
    value, _ = _evaluate_point(prob, terms, witness, sense)
    return _SupportResult(value, witness, prob)


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

    ``terms`` must cover every selector reachable from some support pattern.
    """
    if sense not in ("source", "channel"):
        raise ValueError(f"unknown sense {sense!r}")
    missing = [th for th in all_reachable_thetas(spec) if th not in terms]
    if missing:
        raise ValueError(f"terms missing for selectors {missing}")
    for th, c in terms.items():
        if c < -1e-12 or math.isnan(c):
            raise ValueError(f"information term for {th.components} is {c}")

    best: _SupportResult | None = None
    for support in _covering_supports(spec):
        res = _solve_support(spec, support, terms, sense)
        if res is None:
            continue
        if (
            best is None
            or (sense == "source" and res.value < best.value)
            or (sense == "channel" and res.value > best.value)
        ):
            best = res

    if best is None:
        # only reachable when every support carries an everywhere-infinite term
        return RateResult(math.inf, None, (), (), (), sense)

    prob = best.problem
    value, ratios = _evaluate_point(prob, terms, best.witness, sense)
    weight_map = dict(zip(prob.support, best.witness))
    weights = WeightVector.from_mapping(spec, weight_map)
    crit_tol = CRITICAL_TOL * (1.0 + abs(value))
    critical = tuple(
        th
        for th in prob.thetas
        if not (th.is_zero() if sense == "source" else th.is_full())
        and abs(ratios[th] - value) <= crit_tol
    )
    table = tuple(
        PerThetaTerm(
            theta=th,
            omega=float(omega(spec, weights, th)),
            info_bits=terms[th],
            ratio_bits=ratios[th],
        )
        for th in prob.thetas
    )
    return RateResult(value, weights, critical, table, prob.support, sense)


# -- the two functionals ---------------------------------------------------


def source_terms(sj: SourceJoint) -> dict[ThetaVector, float]:
    """Coset information terms for every reachable selector."""
    return {th: coset_mi_source(sj, th) for th in all_reachable_thetas(sj.group)}


def channel_terms(chan: ChannelSpec) -> dict[ThetaVector, float]:
    """Conditional coset information terms for every reachable selector."""
    return {th: coset_mi_channel(chan, th) for th in all_reachable_thetas(chan.group)}


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
    k = len(slots)
    prime_of_slot = [q for q, _ in slots]
    cache: dict[tuple[bool, ...], _SupportProblem] = {}
    best_val: float | None = None
    best_w: tuple[float, ...] | None = None
    for combo in _compositions(steps, k):
        mask = tuple(c > 0 for c in combo)
        if {q for q, m in zip(prime_of_slot, mask) if m} != set(spec.primes):
            continue
        prob = cache.get(mask)
        if prob is None:
            support = tuple(s for s, m in zip(slots, mask) if m)
            prob = _support_problem(spec, support)
            cache[mask] = prob
        w = tuple(c / steps for c, m in zip(combo, mask) if m)
        value, _ = _evaluate_point(prob, terms, w, sense)
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


# -- heuristic joint search (source design side) ---------------------------


@dataclass(frozen=True)
class JointSearchResult:
    """Best joint found by the heuristic; ``certified`` is always False: the
    value is an upper bound on the optimum over admissible joints, nothing
    more."""

    joint: SourceJoint
    rate: RateResult
    certified: bool = False


def search_source_joint(
    source_dist,
    spec: GroupSpec,
    distortion,
    target: float,
    *,
    restarts: int = 3,
    sweeps: int = 60,
    seed: int = 0,
) -> JointSearchResult:
    """Random-restart coordinate search for a low-rate test joint meeting a
    distortion target under the uniform-reconstruction constraint.

    Moves are 2x2 transport swaps (add mass on one diagonal of a submatrix,
    remove it on the other), which preserve both marginals exactly; the swap
    amount is quantized to halves of the available mass.  Not a certified
    optimum.
    """
    px = validate_distribution(source_dist)
    nx, ng = len(px), spec.order
    d = np.asarray(distortion, dtype=float)
    if d.shape != (nx, ng):
        raise ValidationError(f"distortion must be {nx}x{ng}")
    if np.any(d < 0):
        raise ValidationError("distortion entries must be >= 0")

    def expected(q):
        return float((q * d).sum())

    def rate_of(q):
        return source_coding_rate(SourceJoint(spec, q))

    rng = np.random.Generator(np.random.Philox(seed))
    best: JointSearchResult | None = None
    for _ in range(restarts):
        q = np.outer(px, np.full(ng, 1.0 / ng))
        # phase 1: greedy swaps until the distortion target is met
        for _ in range(20 * sweeps):
            if expected(q) <= target:
                break
            x1, x2 = rng.integers(0, nx, 2)
            u1, u2 = rng.integers(0, ng, 2)
            gain = d[x1, u1] + d[x2, u2] - d[x1, u2] - d[x2, u1]
            amount = min(q[x1, u1], q[x2, u2])
            if gain <= 0 or amount <= 0:
                continue
            q[x1, u1] -= amount
            q[x2, u2] -= amount
            q[x1, u2] += amount
            q[x2, u1] += amount
        if expected(q) > target + 1e-9:
            continue
        current = rate_of(q)
        # phase 2: accept swaps that keep the target and lower the rate
        for _ in range(sweeps):
            x1, x2 = rng.integers(0, nx, 2)
            u1, u2 = rng.integers(0, ng, 2)
            amount = 0.5 * min(q[x1, u1], q[x2, u2])
            if x1 == x2 or u1 == u2 or amount <= 0:
                continue
            trial = q.copy()
            trial[x1, u1] -= amount
            trial[x2, u2] -= amount
            trial[x1, u2] += amount
            trial[x2, u1] += amount
            if expected(trial) > target + 1e-12:
                continue
            cand = rate_of(trial)
            if cand.value < current.value - 1e-12:
                q, current = trial, cand
        sj = SourceJoint(spec, q, d, target)
        if best is None or current.value < best.rate.value:
            best = JointSearchResult(sj, current)
    if best is None:
        raise SolverError(
            "no joint meeting the distortion target was found; the target "
            "may be infeasible for this source"
        )
    return best
