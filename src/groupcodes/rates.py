"""Achievable-rate functionals for Abelian group codes.

The two central quantities are a min-max (source side) and a max-min
(channel side) over weight vectors w on the (q, s) slots and subgroup
selectors theta.  Every objective term is a ratio of linear forms in w whose
value does not change when w is scaled, so for a fixed support the inner
problem is one linear-fractional program; the Charnes-Cooper substitution
turns it into one packing linear program, solved by a small dense simplex.
The outer optimization ranges over the support patterns that give every prime
of the group at least one slot.  Supports whose values agree to a relative
tie tolerance tie, and the lexicographically first wins.
Where the coset terms are monotone in theta (the channel term falls and the
source term rises as theta rises, componentwise) adding a slot to a support
never makes its value worse: the selectors the slot adds take, at the
smaller support's optimum, the omega of a selector above them that it
already holds, whose term is no better.  So the full support attains the
rate, and as every support that sorts before it is one of its prefixes in
slot order, the first tying support is a prefix too.  Such a call solves the
full support's LP and then walks the prefixes, longest first, until one
falls out of the tie band: on random inputs one LP.  Two preconditions are
checked on the call's terms first: monotonicity over every pair of
reachable selectors theta <= theta', and, on the channel side, no reachable
term but the excluded full selector's at or below INFO_ZERO_TOL, since a
zero term that shares omega = 1 with the full selector pins every support
reaching it to 0 (a coset channel, whose output is the coset of its input).
Every other input, as a coset channel or non-monotone terms given to
optimize_weights, takes the best-first search over every covering support:
terms in sixths on Z32 make the source value of {(2,1),(2,2),(2,3)} +inf,
between {(2,1),(2,2)} and the full support, both at 5/3, and a prefix walk
would stop at the infinite one.  The search visits supports by a vertex
bound.  A single selector's ratio is linear-fractional, so its extremes on
the face S sit at vertices: the source bound is the largest over Theta(S)
of c_theta / max omega_theta, the channel bound the least of
c_theta / (1 - max omega_theta), and neither side's optimum on S can beat
its bound.  Once a bound falls short of the incumbent by the tie tolerance,
no later support can tie or win; a support whose bound the current winner
already ties, and which comes after it in lexicographic order, cannot win
either and gets no linear program.
Every rate call, oracle and Theta enumeration on a group reads its selector
plan, cached on the GroupSpec because it depends on the group alone: the
selector grid with m(theta), the coefficients n and d and the reachable
rows, built on first read; the prefix supports with Theta(S) and the vertex
bound's top of each, and the dominance pairs of the reachable rows, built by
the first rate call; the covering supports with the same, built only where
the best-first search or the grid oracle runs, so a call with monotone terms
builds none of them; and the walk layer of the coset terms (see measures),
built by the first terms call.  Its arrays are read-only and live as long as
the spec; a call computes only what depends on its input, the terms and
what is solved from them.  The vertex bounds take one float array the size
of top, built in place.  At float weights omega is n.w / d.w with
n = m(theta) log2 q and d = s log2 q, summed in slot order: the LP's own
coefficients, the one float statement of omega, which the public omega
takes too.  The winning support's solve evaluates the inner problem at its
witness once, and the result table reuses those ratios and omegas.
Theta(S) is the set of selectors theta whose least inducing depths m(theta)
on S induce them back.
Inside a call a selector is a row of the plan's grid and the terms are an
array over its rows; a terms mapping keyed by ThetaVector exists only at
optimize_weights and grid_search, where it is checked.  Likewise a support
is a slot mask row with its row of Theta(S); a tuple of slots exists only at
RateResult.support and the public inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .groups import GroupSpec, ThetaVector, _check_count, _gaps, _induce
from .groups import _slot_values, _theta_members
from .measures import ChannelSpec, SourceJoint, _coset_terms, _grid_row

# Information terms at or below this count as exactly zero when applying the
# 0/0 -> 0 term convention; far below any meaningful rate in bits.
INFO_ZERO_TOL = 1e-12
# Pivot and reduced-cost threshold of the simplex; the LP coefficients are
# bits and s * log2(q), of order one.
LP_TOL = 1e-12
# Relative slack when collecting the thetas that attain the inner optimum.
CRITICAL_TOL = 1e-7
# Supports whose values agree to this relative tolerance tie, and the
# lexicographically first wins.  The best-first loop stops at a vertex bound
# short of the incumbent by this margin, and skips a support that can at best
# tie the winner within half of it (the other half covers rounding).
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
        return cls(spec, _slot_values(spec, mapping))

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
    induced = _induce(spec.ring_levels, _gaps(spec.ring_levels, support), depths)
    return ThetaVector(spec, tuple(induced.tolist()))


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


def enumerate_theta_set(
    spec: GroupSpec, support: Iterable[tuple[int, int]]
) -> frozenset[ThetaVector]:
    """All subgroup selectors reachable from a support pattern.  Depends only
    on the support, never on the weight values."""
    support = tuple(sorted(set(support)))
    _check_support(spec, support)
    mask = np.array([[slot in support for slot in spec.weight_slots]])
    *_, hits, _ = spec._selector_layer
    return frozenset(itertools.compress(spec._thetas, _theta_members(hits, mask)[0]))


def omega(spec: GroupSpec, weights, theta: ThetaVector):
    """The weighted rate fraction in [0, 1] for a subgroup selector.

    ``weights`` is a WeightVector or a mapping over the (q, s) slots.  With
    Fraction weights the result is exact whenever the group has a single
    prime (log factors cancel); with floats it is a float, from the sums a
    rate call's linear program takes.  A selector or a weight vector of
    another group, a mapping key that is not a weight slot and a negative
    weight are refused.
    """
    row = _grid_row(spec, theta)
    if isinstance(weights, WeightVector):
        if weights.spec != spec:
            raise ValueError("weights bound to a different group")
        values = weights.values
    else:
        values = _slot_values(spec, weights)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"weights must be finite, got {values}")
        if any(v < 0 for v in values):
            raise ValueError("weights must be nonnegative")
    _, depths, n, d, _, _ = spec._selector_layer
    if all(isinstance(w, float) for w in values if w != 0):
        num, den = _sums(n[[row]], d, np.array([values], dtype=float))
        num, den = num.item(), den.item()
    else:
        num = den = 0
        for (q, s), w, coeff in zip(spec.weight_slots, values, depths[row].tolist()):
            if w != 0:
                scale = _log_weight(q) * w
                num = num + coeff * scale
                den = den + s * scale
    if den == 0:
        raise ValueError("weight vector has empty support")
    return num / den


def all_reachable_thetas(spec: GroupSpec) -> tuple[ThetaVector, ...]:
    """Union of the theta sets over every valid support pattern, which is
    the theta set of the full support, in grid order."""
    *_, reachable = spec._selector_layer
    return tuple(itertools.compress(spec._thetas, reachable))


class _SupportProblems:
    """The per-input solve of one rate call over its group's selector plan
    (``GroupSpec._selector_layer``, shared by every call on the group): the
    terms c, one array over the grid's rows (NaN off the reachable rows,
    which no support reads), and the sense's excluded endpoint selector.  A
    support's LP input is sliced on demand from its slot mask and its row of
    Theta(S): n and D on S over the rows of Theta(S), their terms and
    excluded flags.  Covering support i, a row of the plan's covering layer,
    is ``self[i]``; only the best-first search and the grid oracle read that
    layer.
    ``sign`` +1 maximises (channel), -1 minimises (source), so sign * value
    is larger when better."""

    def __init__(self, spec: GroupSpec, terms, sense: str):
        if sense not in ("source", "channel"):
            raise ValueError(f"unknown sense {sense!r}")
        self.spec, self.sense = spec, sense
        self.sign = 1 if sense == "channel" else -1
        grid, _, self.n, self.d, _, _ = spec._selector_layer
        self.c = terms
        # the zero selector is the grid's first row, the full selector its last
        self.excluded = np.zeros(len(grid), dtype=bool)
        self.excluded[0 if sense == "source" else -1] = True

    @classmethod
    def from_mapping(cls, spec: GroupSpec, terms: Mapping[ThetaVector, float], sense):
        """Problems from a terms mapping, checked complete, finite and >= 0."""
        thetas = all_reachable_thetas(spec)  # the reachable rows, as selectors
        if missing := [th for th in thetas if th not in terms]:
            raise ValueError(f"terms missing for selectors {missing}")
        for th, c in terms.items():
            if not math.isfinite(c) or c < -1e-12:
                raise ValueError(f"information term for {th.components} is {c}")
        grid, *_, reachable = spec._selector_layer
        c = np.full(len(grid), math.nan)
        c[reachable] = [terms[th] for th in thetas]
        return cls(spec, c, sense)

    @property
    def columns(self) -> np.ndarray:
        """The covering supports' slot masks [supports, k], in tie-break
        order."""
        return self.spec._covering_layer[0]

    def __getitem__(self, i: int):
        columns, members, _ = self.spec._covering_layer
        return self.slice(columns[i], members[i])

    def slice(self, cols: np.ndarray, rows: np.ndarray):
        """The LP input of the support with slot mask cols and Theta(S) rows."""
        return self.n[rows][:, cols], self.d[cols], self.c[rows], self.excluded[rows]

    def monotone(self) -> bool:
        """Whether the full support settles the rate (see _optimize): the
        terms are monotone over the plan's dominance pairs of reachable rows,
        theta <= theta' giving c_theta >= c_theta' (channel) or c_theta <=
        c_theta' (source), and on the channel side no reachable selector but
        the excluded one has a term at or below INFO_ZERO_TOL."""
        lo, hi = self.c[self.spec._prefix_layer[-1]]
        if self.sign < 0:
            return bool((lo <= hi).all())
        zero = (self.c[~self.excluded] <= INFO_ZERO_TOL).any()
        return bool((lo >= hi).all() and not zero)

    def vertex_bounds(self, members: np.ndarray, top: np.ndarray) -> np.ndarray:
        """The bound that each support's optimum cannot beat, from its row of
        Theta(S) ``members`` and of ``top``, the largest omega_theta on the
        face S.  The source bound LB(S) is the max over the active theta in
        Theta(S) of c_theta / top, the channel bound UB(S) the min of
        c_theta / (1 - top).  A term at or below INFO_ZERO_TOL bounds by 0, a
        zero denominator by +inf: a source support with LB(S) = +inf has a
        term that is infinite for every weight choice.  The bounds are built
        in one float array the size of top, in place."""
        source = self.sign < 0
        bound = top.copy() if source else 1.0 - top
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(self.c, bound, out=bound)
        bound[:, self.c <= INFO_ZERO_TOL] = 0.0
        # the max (source) or min (channel) over the counted selectors
        uncounted = -math.inf if source else math.inf
        np.copyto(bound, uncounted, where=~members)
        bound[:, self.excluded] = uncounted
        return bound.max(axis=1) if source else bound.min(axis=1)


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
    basis = list(range(n, n + m))
    # the pivots are chosen on Python floats, the row operations on arrays
    while True:
        j = next((j for j, v in enumerate(cost.tolist()) if v < -LP_TOL), None)
        if j is None:
            break
        col = tab[:m, j].tolist()
        if not any(v > LP_TOL for v in col):
            raise SolverError("unbounded packing LP")
        ratios = [r / v if v > LP_TOL else math.inf for r, v in zip(rhs.tolist(), col)]
        low = min(ratios) + LP_TOL
        i = min((i for i, r in enumerate(ratios) if r <= low), key=basis.__getitem__)
        tab[i] /= tab[i, j]
        pivot_col = tab[:, j].copy()
        pivot_col[i] = 0.0
        tab -= pivot_col[:, None] * tab[i]
        basis[i] = j
    x = np.zeros(n + m)
    x[basis] = rhs
    return np.maximum(x[:n], 0.0), np.maximum(tab[m, n : n + m], 0.0)


# -- inner evaluation ------------------------------------------------------


def _sums(n: np.ndarray, d: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, ...]:
    """n.w [points, selectors] and d.w [points, 1] at each weight point, a
    row of w [points, slots]: omega is their ratio.  The sums run in slot
    order, as accumulate adds one slot at a time, so a slot of weight 0
    leaves them unchanged."""
    d_val = np.add.accumulate(w * d, axis=1)[:, -1:]
    n_val = np.add.accumulate(w[:, :, None] * n.T, axis=1)[:, -1]
    return n_val, d_val


def _evaluate(
    n: np.ndarray,
    d: np.ndarray,
    c: np.ndarray,
    excluded: np.ndarray,
    w: np.ndarray,
    sense: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inner max (source) or min (channel) over one support's selectors at
    each weight point, a row of w [points, slots], skipping the excluded
    endpoint selector, plus the per-selector ratios and omegas [points,
    selectors]."""
    n_val, d_val = _sums(n, d, w)
    omegas = n_val / d_val
    part = omegas if sense == "source" else (d_val - n_val) / d_val
    # the term over omega (source) or 1 - omega (channel); 0/0 -> 0, c/0 -> inf
    ratios = np.where(c <= INFO_ZERO_TOL, np.zeros(part.shape), math.inf)
    np.divide(c, part, out=ratios, where=part > 0)
    # Theta(S) holds the full selector and the one of depth zero on every
    # slot, which differ, so one of them is a candidate
    if sense == "source":
        values = ratios.max(axis=1, where=~excluded, initial=-math.inf)
    else:
        values = ratios.min(axis=1, where=~excluded, initial=math.inf)
    return values, ratios, omegas


# -- per-support linear program -------------------------------------------


def _solve_support(
    n: np.ndarray,
    d: np.ndarray,
    c: np.ndarray,
    excluded: np.ndarray,
    sense: str,
) -> tuple[float, tuple[float, ...], float, np.ndarray, np.ndarray]:
    """Optimize one support pattern, given its slice of the selector plan;
    returns the value, the witness, and the inner optimum with the ratio and
    omega of each selector of the slice evaluated at the witness.  Where no
    weight choice matters the value is 0 and the witness uniform.

    With v = w * rate / (D.w) the inner problem becomes one packing LP:
    channel, rate = max D.v subject to (D - N_theta).v <= c_theta; source,
    rate = min D.v subject to N_theta.v >= c_theta, solved as its dual
    max c.y subject to N^T y <= D, whose dual values are v.
    """
    active = ~excluded & (c > INFO_ZERO_TOL)
    if sense == "source":
        # no active term: the inner max is zero for every weight choice
        fixed = not active.any()
    else:
        # a zero term pins the inner min to zero for every weight choice
        fixed = (c[~excluded] <= INFO_ZERO_TOL).any()

    if fixed:
        v = np.ones(len(d))
    elif sense == "source":
        # bounded when every active row of N is nonzero on the support, which
        # is when its vertex bound is finite
        _, v = _packing_lp(n[active].T, d, c[active])
    else:
        # bounded: the selector of depth zero on every slot is active, with
        # the row D > 0
        v, _ = _packing_lp(d - n[active], c[active], d)

    witness = tuple((v / v.sum()).tolist())
    values, ratios, omegas = _evaluate(n, d, c, excluded, np.array([witness]), sense)
    inner = float(values[0])
    return 0.0 if fixed else inner, witness, inner, ratios[0], omegas[0]


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
    return _optimize(_SupportProblems.from_mapping(spec, terms, sense))


def _optimize(problems: _SupportProblems) -> RateResult:
    """Solve the supports that can still win and report the winner: the
    prefix walk where the terms are monotone, else the best-first search
    (both in _search).

    Signed, sign * value, larger is better in both senses.  Let S be a
    subset of S', w* S's optimum, also a point of the face of S', and
    theta' in Theta(S') but not in Theta(S).  The depths m(theta') on S
    induce a theta >= theta' in Theta(S) with omega_theta(w*) =
    omega_theta'(w*).  Where the terms are monotone in theta, the channel
    term c_theta' >= c_theta and the source term c_theta' <= c_theta, so at
    w* theta' lowers neither the channel minimum nor raises the source
    maximum, and S' is at least as good as S.  Two preconditions make this
    hold, and _SupportProblems.monotone checks them on the call's terms:

    - monotone over every pair theta <= theta' of reachable selectors;
    - on the channel side, no reachable term at or below INFO_ZERO_TOL but
      the excluded full selector's.  theta may be the full selector, with
      omega = 1 and no ratio, and then theta' shares omega = 1, where a zero
      term pins the value of S' to 0 (a coset channel, whose output is the
      coset of its input, has such terms).  The source side needs no such
      check: theta >= theta' and theta = 0, its excluded selector, force
      theta' = 0.

    Then the full support attains the rate.  Every support that sorts
    before it is one of its prefixes in slot order, and the first tying
    support is a prefix: adding the first slot of the order that a tying
    support skips keeps the tie and sorts earlier.  A prefix is a subset of
    every longer one, so once one falls out of the tie band every shorter
    one does.  The prefix walk solves the full support, then the prefixes
    that give every prime a slot, longest first, and stops at the first
    whose vertex bound or solved value is out of the band; it reads only the
    plan's prefix layer, and builds no covering layer.  On random inputs the
    longest prefix's bound is usually out of the band already, and one LP
    settles the call.

    Every other input takes the best-first search over every covering
    support.  Terms in sixths on Z32 are not monotone, and show why it is
    needed: the source value of {(2,1),(2,2),(2,3)} is +inf, between
    {(2,1),(2,2)} and the full support, both at 5/3, so a prefix walk would
    stop at the infinite prefix and miss the first tie."""
    return _search(problems, problems.monotone())


def _search(problems: _SupportProblems, monotone: bool) -> RateResult:
    """The prefix walk (monotone) or the best-first search of _optimize.

    Values and bounds are compared signed.  B_i is support i's signed vertex
    bound, best the best value solved so far and w the winner among the
    solved supports (_winner).  The walk visits the prefixes from the full
    support down; the search visits every covering support by bound, best
    first (a stable order, so equal bounds stay lexicographic).  In either
    order support i gets no linear program when it cannot be the winner:

    - stop, B_i < best - TIE_TOL |best|: support i cannot reach the tie
      band, and neither can any support visited after it, so the loop ends;
    - skip, i > w and v_w >= B_i - TIE_TOL/2 |B_i|: no support from i on has
      a value above B_i, so the optimum can rise to at most B_i.  Since
      x - TIE_TOL |x| increases with x, w stays in the final tie band, and
      the winner ends as w or a support of lower index, never i.  The walk
      never skips, as every prefix it visits sorts before w.

    The walk also stops at the first solved value below the band.

    A computed value can exceed its bound by the rounding of omega at the
    witness, a few ulps (the scan tests allow up to TIE_TOL).  The skip test
    keeps half of TIE_TOL back, so w stays in the band for any excess up to
    about TIE_TOL/2 |B_i|.

    The result is the winner's, so it is the one a scan of every support
    reports unless skipping moves the tie band: a skipped value above best
    raises that scan's optimum by at most B_i - best, which can push a
    later-solved support of lower index out of the band only if its value
    lies within that rise of the band's lower edge.  Where the endpoint
    selector's term binds, I(X;Y) on the channel side and I(U;X) on the
    source side, as on random inputs, every value ties to ulps and the first
    support solved settles the call.  The full support's bound is finite,
    so a source support whose term is infinite for every weight choice sorts
    after it and is never solved."""
    sign = problems.sign
    plan = problems.spec._prefix_layer if monotone else problems.spec._covering_layer
    columns, members, top = plan[:3]
    bounds = sign * problems.vertex_bounds(members, top)
    if monotone:
        order = reversed(range(len(columns)))
    else:
        order = np.argsort(-bounds, kind="stable").tolist()
    values, solved = {}, {}
    best = -math.inf
    for i in order:
        bound = bounds[i]
        if bound < best - TIE_TOL * abs(best):
            break
        if values and i > w and values[w] >= bound - TIE_TOL / 2 * abs(bound):
            continue
        value, *solved[i] = _solve_support(
            *problems.slice(columns[i], members[i]), problems.sense
        )
        values[i] = sign * value
        best = max(best, sign * value)
        w = _winner(values)
        if monotone and values[i] < best - TIE_TOL * abs(best):
            break
    return _result(problems, columns[w], members[w], *solved[w])


def _winner(values: Mapping[int, float]) -> int:
    """The lexicographically first support whose signed value is within a
    relative TIE_TOL of the best, so ulp noise cannot reorder tied supports."""
    opt = max(values.values())
    slack = TIE_TOL * abs(opt)
    return min(i for i, v in values.items() if abs(v - opt) <= slack)


def _result(
    problems: _SupportProblems,
    cols: np.ndarray,
    rows: np.ndarray,
    witness: tuple,
    value: float,
    ratios,
    omegas,
) -> RateResult:
    """The result of the support with slot mask cols and Theta(S) rows at a
    witness, from the inner optimum and the per-selector ratios and omegas
    its solve evaluated there: the critical selectors and the per-selector
    table.  Weights off the support are 0."""
    spec = problems.spec
    cols = cols.tolist()
    support = tuple(itertools.compress(spec.weight_slots, cols))
    on_support = iter(witness)
    weights = WeightVector(spec, tuple(next(on_support) if on else 0 for on in cols))
    thetas = list(itertools.compress(spec._thetas, rows.tolist()))
    crit_tol = CRITICAL_TOL * (1.0 + abs(value))
    ratios = ratios.tolist()
    critical = tuple(
        th
        for th, skip, ratio in zip(thetas, problems.excluded[rows].tolist(), ratios)
        if not skip and abs(ratio - value) <= crit_tol
    )
    per_theta = tuple(
        map(PerThetaTerm, thetas, omegas.tolist(), problems.c[rows].tolist(), ratios)
    )
    return RateResult(value, weights, critical, per_theta, support, problems.sense)


# -- the two functionals ---------------------------------------------------


def source_terms(sj: SourceJoint) -> dict[ThetaVector, float]:
    """Coset information terms for every reachable selector, with H(X)
    computed once for all of them."""
    return _reachable_terms(sj)


def channel_terms(chan: ChannelSpec) -> dict[ThetaVector, float]:
    """Conditional coset information terms for every reachable selector,
    with H(Y | X) computed once for all of them."""
    return _reachable_terms(chan)


def _reachable_terms(data) -> dict[ThetaVector, float]:
    """The reachable rows of the terms, keyed by their selectors."""
    *_, reachable = data.group._selector_layer
    terms = _coset_terms(data)[reachable].tolist()
    return dict(zip(all_reachable_thetas(data.group), terms))


def _rate(data, sense: str) -> RateResult:
    """The terms on the group's selector plan, then the optimization."""
    return _optimize(_SupportProblems(data.group, _coset_terms(data), sense))


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
    coset information, every depth from one walk (on a single ring, depth t
    is the grid's row t).  Must match the general optimizer."""
    _, r = _single_ring(sj.group)
    depths = range(1, r + 1)
    terms = _coset_terms(sj, depths).tolist()
    return max((r / t) * terms[t] for t in depths)


def channel_rate_prime_power(chan: ChannelSpec) -> float:
    """Single-ring fast path: min over depth 0..r-1 of (r/(r-depth)) times
    the conditional coset information, every depth from one walk.  The
    reduction is a minimum: each depth is a constraint and the tightest one
    binds, mirroring the max on the source side."""
    _, r = _single_ring(chan.group)
    depths = range(r)
    terms = _coset_terms(chan, depths).tolist()
    return min((r / (r - t)) * terms[t] for t in depths)


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
    it, evaluated GRID_BLOCK points at a time.  ``steps`` is an integer at
    least the group's number of primes, as every support holds one slot per
    prime."""
    _check_count("steps", steps)
    if steps < len(spec.primes):
        raise ValueError(
            f"steps must be >= {len(spec.primes)}, the number of primes of the "
            f"group, as every support holds one slot per prime; got {steps}"
        )
    problems = _SupportProblems.from_mapping(spec, terms, sense)
    sign = problems.sign
    best_val: float | None = None
    for i, cols in enumerate(problems.columns):
        problem = problems[i]
        k = int(cols.sum())
        # a positive composition of steps is k - 1 distinct cuts in 1..steps-1
        cuts = itertools.combinations(range(1, steps), k - 1)
        while block := list(itertools.islice(cuts, GRID_BLOCK)):
            edges = np.array(block, dtype=np.int64).reshape(len(block), k - 1)
            w = np.diff(edges, axis=1, prepend=0, append=steps) / steps
            values, *_ = _evaluate(*problem, w, sense)
            at = int((sign * values).argmax())
            value = float(values[at])
            if best_val is None or sign * value > sign * best_val:
                best_val = value
                best_w = np.zeros(len(cols))
                best_w[cols] = w[at]
    return best_val, WeightVector(spec, tuple(best_w.tolist()))
