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
One best-first search serves every call.  A rate call searches the prefixes
of the slot order, less the slots a zero channel term pins, that give every
prime a slot (_SupportProblems.prefixes); optimize_weights states why they
hold the winner and when it searches them, and _search how its vertex
bound skips the supports that cannot win.  Over the prefixes of random
inputs one linear program settles the call.
Every rate call, oracle and Theta enumeration on a group reads its selector
plan (see groups), cached on the GroupSpec: the table of reachable selectors,
the only ones that enter a rate, with m(theta) and the coefficients n and d
of each, and layers sized by the table and the slots, with one row per table
row in every array indexed by selector.  A call computes only the terms, what
is solved from them and the faces it searches that the plan does not hold,
dropped on return: the prefixes of its unpinned slots, or every covering
support for optimize_weights on terms not monotone up to rounding; the grid
oracle takes only Theta(S), of the supports holding a grid point.  Both are
refused past COVERING_CAP cells or points, by ``groups._past_cap``.  The
vertex bounds take one float array the size of top, built in place.  At float weights omega
is n.w / d.w with n = m(theta) log2 q and d = s log2 q
(GroupSpec._omega_coefficients), summed in slot order: the LP's own
coefficients, the one float statement of omega, which the public omega takes
too, for any selector of the group.
Each support's solve yields one value, the inner problem evaluated at its
witness: the search ranks it and the result reports it, with the ratios and
omegas of that evaluation in its table.
The terms obey the one zero rule of measures: a term at or below
INFO_ZERO_TOL is exactly 0.0, made so where information is made and again
where a caller's terms enter (_SupportProblems), so the solver compares
against zero exactly.  A zero term's ratio is 0, 0/0 included; a zero
channel term pins its support to 0 and a source support with no positive
term is 0, for every weight choice; a break of the terms' order in theta at
or below it is none (_SupportProblems.monotone).
Theta(S) is the set of selectors theta whose least inducing depths m(theta)
on S induce them back.
Inside a call a selector is a row of the table and the terms are an array
over its rows; a terms mapping keyed by ThetaVector exists only at
optimize_weights and grid_search, where it is checked.  Likewise a support
is a slot mask row with its row of Theta(S); a tuple of slots exists only at
RateResult.support and the public inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .groups import GroupSpec, ThetaVector, _check_count, _components, _gaps, _induce
from .groups import _check_real, _covering_masks, _integer, _past_cap, _slot_values
from .groups import _theta_members
from .measures import INFO_ZERO_TOL, PROB_TOL, ChannelSpec, SourceJoint, _coset_terms
from .measures import _check_kind, _zero_residues

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
# The most covering-face cells (supports x selectors) optimize_weights builds,
# 64 MiB of top at the cap, and grid points grid_search evaluates, about 1 us
# each: a larger search is refused before anything is built or evaluated.
COVERING_CAP = 1 << 23


class SolverError(RuntimeError):
    """The weight optimization could not produce a value."""


def _log_weight(q: int):
    """log2(q) as an exact Fraction of its float value (exactly 1 for q=2)."""
    from fractions import Fraction

    return Fraction(1) if q == 2 else Fraction(math.log2(q))


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative weights over the (q, s) slots of a group, summing to one.

    Values may be fractions.Fraction (exact) or floats; a bool or a string is
    refused.
    """

    spec: GroupSpec
    values: tuple

    def __post_init__(self) -> None:
        slots = self.spec.weight_slots
        if len(self.values) != len(slots):
            raise ValueError(f"expected {len(slots)} weights for slots {slots}")
        _check_weights(self.spec, self.values)
        if abs(sum(self.values) - 1) > PROB_TOL:
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


def _check_weights(spec: GroupSpec, values: tuple) -> None:
    """Weights are finite nonnegative numbers; a bool is refused, not read as
    the weight 1 or 0, and so is a string."""
    for slot, v in zip(spec.weight_slots, values):
        _check_real(f"weight for slot {slot}", v)
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"weights must be finite, got {values}")
    if any(v < 0 for v in values):
        raise ValueError("weights must be nonnegative")


def induced_theta(
    spec: GroupSpec,
    support: Iterable[tuple[int, int]],
    slot_depths: Mapping[tuple[int, int], int],
) -> ThetaVector:
    """Map per-slot depths on the supported input components to the subgroup
    selector they induce on the group: each level takes the minimum of
    |r - s|^+ + depth over supported slots of its prime, clamped to [0, r].
    Each supported slot needs a depth; a key that is no weight slot is refused."""
    support = tuple(support)
    _check_support(spec, support)
    _slot_values(spec, slot_depths)
    if missing := [slot for slot in support if slot not in slot_depths]:
        raise ValueError(f"no depth for slot {missing[0]} of support {support}")
    for slot in support:
        depth = slot_depths[slot]
        if not 0 <= _integer(f"depth for slot {slot}", depth) <= slot[1]:
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
    *_, hits = spec._selector_layer
    return frozenset(itertools.compress(spec._thetas, _theta_members(hits, mask)[0]))


def omega(spec: GroupSpec, weights, theta: ThetaVector):
    """The weighted rate fraction in [0, 1] for a subgroup selector.

    ``weights`` is a WeightVector or a mapping over the (q, s) slots.  With
    Fraction weights the result is exact whenever the group has a single
    prime (log factors cancel); with floats it is a float, from the sums a
    rate call's linear program takes.  A selector or a weight vector of
    another group, a mapping key that is not a weight slot, a weight that is a
    bool or not a number (a string among them) and a negative weight are
    refused, each weight's message naming its slot and value.
    """
    depths, n, d = spec._omega_coefficients([_components(spec, theta)])
    if isinstance(weights, WeightVector):
        if weights.spec != spec:
            raise ValueError("weights bound to a different group")
        values = weights.values
    else:
        values = _slot_values(spec, weights)
        _check_weights(spec, values)
    if all(isinstance(w, float) for w in values if w != 0):
        num, den = _sums(n, d, np.array([values], dtype=float))
        num, den = num.item(), den.item()
    else:
        num = den = 0
        for (q, s), w, coeff in zip(spec.weight_slots, values, depths[0].tolist()):
            if w != 0:
                scale = _log_weight(q) * w
                num = num + coeff * scale
                den = den + s * scale
    if den == 0:
        raise ValueError("weight vector has empty support")
    return num / den


def all_reachable_thetas(spec: GroupSpec) -> tuple[ThetaVector, ...]:
    """Union of the theta sets over every valid support pattern, which is
    the theta set of the full support: the plan's table, in grid order."""
    return spec._thetas


class _SupportProblems:
    """The per-input solve of one rate call over its group's selector plan
    (``GroupSpec._selector_layer``, shared by every call on the group): the
    terms c, one array over the table of reachable selectors, and the
    sense's excluded endpoint selector.  A support's LP input is sliced on
    demand from its slot mask and its row of Theta(S): n and D on S over the
    rows of Theta(S), their terms and excluded flags.
    ``sign`` +1 maximises (channel), -1 minimises (source), so sign * value
    is larger when better."""

    def __init__(self, spec: GroupSpec, terms, sense: str):
        if sense not in ("source", "channel"):
            raise ValueError(f"unknown sense {sense!r}")
        self.spec, self.sense = spec, sense
        self.sign = 1 if sense == "channel" else -1
        table, _, self.n, self.d, _ = spec._selector_layer
        self.c = _zero_residues(terms)
        # the zero selector is the table's first row, the full selector its last
        self.excluded = np.zeros(len(table), dtype=bool)
        self.excluded[0 if sense == "source" else -1] = True

    @classmethod
    def from_mapping(cls, spec: GroupSpec, terms: Mapping[ThetaVector, float], sense):
        """Problems from a terms mapping, checked complete, finite and >= 0."""
        if missing := [th for th in spec._thetas if th not in terms]:
            raise ValueError(f"terms missing for selectors {missing}")
        for th, c in terms.items():
            _check_real(f"information term for {th.components}", c)
            if not math.isfinite(c) or c < -INFO_ZERO_TOL:
                raise ValueError(f"information term for {th.components} is {c}")
        c = np.array([terms[th] for th in spec._thetas], dtype=float)
        return cls(spec, c, sense)

    def slice(self, cols: np.ndarray, rows: np.ndarray):
        """The LP input of the support with slot mask cols and Theta(S) rows."""
        return self.n[rows][:, cols], self.d[cols], self.c[rows], self.excluded[rows]

    def monotone(self) -> bool:
        """Whether the search takes prefixes(), as a rate call does (see
        optimize_weights): the terms are monotone in the order read off the
        table in the call, theta <= theta' giving sign * c_theta >= sign *
        c_theta', but for breaks at or below INFO_ZERO_TOL, the zero rule's
        rounding residue."""
        table, c = self.spec._selector_layer[0], self.sign * self.c
        above = c - c[:, None] > INFO_ZERO_TOL
        return not ((table[:, None] <= table).all(-1) & above).any()

    def prefixes(self) -> tuple[np.ndarray, ...]:
        """The supports that hold the winner where the terms are monotone (see
        optimize_weights), as ``GroupSpec._faces``: the prefixes of the slot
        order less the pinned slots, those whose Theta({j}) holds a zero
        term other than the full selector's, that give every prime a slot.

        Monotone channel terms make the zero terms an up-set, and every
        non-full theta in Theta(S) lies below a slot j of S lowered alone one
        step, in Theta({j}), a subset of Theta(S): so S is pinned to 0
        exactly when it holds a pinned slot.  Where the unpinned slots miss
        a prime, the rate is 0 and the first covering support, the plan's
        first prefix, wins."""
        spec, zero = self.spec, (self.c == 0) & ~self.excluded
        if self.sign < 0 or not zero.any():
            return spec._prefix_layer
        pinned = (spec._selector_layer[-1].all(axis=2).T & zero).any(axis=1)
        masks = np.tri(len(pinned), dtype=bool)[~pinned] & ~pinned
        covers = (masks @ (np.array(spec.weight_slots)[:, :1] == spec.primes)).all(1)
        return spec._faces(masks[covers] if covers.any() else spec._prefix_layer[0][:1])

    def vertex_bounds(self, members: np.ndarray, top: np.ndarray) -> np.ndarray:
        """The bound that each support's optimum cannot beat, from its row of
        Theta(S) ``members`` and of ``top``, the largest omega_theta on the
        face S.  The source bound LB(S) is the max over the active theta in
        Theta(S) of c_theta / top, the channel bound UB(S) the min of
        c_theta / (1 - top).  A zero term bounds by 0, even over a zero
        denominator, a positive term over a zero denominator by +inf: a
        source support with LB(S) = +inf has a term that is infinite for
        every weight choice.  The bounds are built in one float array the
        size of top, in place."""
        source = self.sign < 0
        bound = top.copy() if source else 1.0 - top
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(self.c, bound, out=bound)
        bound[:, self.c == 0] = 0.0
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
    selectors].  The terms c obey the zero rule (measures), so a zero term's
    ratio is exactly 0 at every point, 0/0 included."""
    n_val, d_val = _sums(n, d, w)
    omegas = n_val / d_val
    part = omegas if sense == "source" else (d_val - n_val) / d_val
    # the term over omega (source) or 1 - omega (channel); 0/0 -> 0, c/0 -> inf
    ratios = np.where(c == 0, np.zeros(part.shape), math.inf)
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
) -> tuple[float, tuple[float, ...], np.ndarray, np.ndarray]:
    """Optimize one support pattern, given its slice of the selector plan;
    returns its one value, the inner optimum evaluated at the witness, then
    the witness and the ratio and omega of each selector of the slice there.
    Where no weight choice matters, a source slice with no positive term or
    a channel slice with a zero term, the witness is uniform and the value
    exactly 0: the terms obey the zero rule, so every ratio of such a source
    slice, and the zero term's ratio of such a channel slice, is 0.

    With v = w * rate / (D.w) the inner problem becomes one packing LP:
    channel, rate = max D.v subject to (D - N_theta).v <= c_theta; source,
    rate = min D.v subject to N_theta.v >= c_theta, solved as its dual
    max c.y subject to N^T y <= D, whose dual values are v.
    """
    active = ~excluded & (c > 0)
    if sense == "source":
        # no active term: the inner max is zero for every weight choice
        fixed = not active.any()
    else:
        # a zero term pins the inner min to zero for every weight choice
        fixed = (c[~excluded] == 0).any()

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
    return float(values[0]), witness, ratios[0], omegas[0]


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
    with finite nonnegative values.  The best-first search (_search) runs
    over _SupportProblems.prefixes where monotone() finds the terms monotone
    in theta up to INFO_ZERO_TOL, as a rate call's are (_rate), else over
    every covering support, refused before any is built past COVERING_CAP
    cells of supports x selectors.

    Signed, sign * value, larger is better in both senses.  Let S be a
    subset of S', w* S's optimum, also a point of the face of S', and
    theta' in Theta(S') but not in Theta(S).  The depths m(theta') on S
    induce a theta >= theta' in Theta(S) with omega_theta(w*) =
    omega_theta'(w*).  Where the terms are monotone in theta, the channel
    term c_theta' >= c_theta and the source term c_theta' <= c_theta, so at
    w* theta' lowers neither the channel minimum nor raises the source
    maximum, and S' is at least as good as S.  On the channel side theta
    may be the full selector, with omega = 1 and no ratio, and then theta'
    shares omega = 1, where a zero term pins S' to 0: so this holds among
    the supports of the slots that no zero term pins (prefixes), and a
    pinned support, at 0, ties no positive rate.  The source side needs no
    such care: theta >= theta' and theta = 0, its excluded selector, force
    theta' = 0.

    Then the full support of those slots attains their best value.  Every
    support of them that sorts before it is one of its prefixes in slot
    order, and the first tying support is a prefix: adding the first slot of
    the order that a tying support skips keeps the tie and sorts earlier.
    So the prefixes that give every prime a slot hold the winner, and the
    call builds no covering support.

    Terms that break the order by at most INFO_ZERO_TOL, as a rate call's
    do by rounding, take the prefixes with a rate call's guarantee: raising
    each sign * c_theta to the largest sign * c_theta' above it moves none
    by more than INFO_ZERO_TOL, nor to or from 0, so the prefixes hold the
    winner of those monotone terms, and the search reports the best prefix
    on the terms as given, on a rate call's own terms the rate call's result.

    Source terms in sixths on Z4+Z2 are not monotone, and show why the
    others take every covering support: the optimum, 1/6, is on {(2,2)},
    which is no prefix, while the best prefix, {(2,1),(2,2)}, is at 5/3."""
    problems = _SupportProblems.from_mapping(spec, terms, sense)
    if problems.monotone():
        return _search(problems, *problems.prefixes())
    cells = grid_size(spec, len(spec.weight_slots))[1] * len(spec._thetas)
    what = "terms not monotone in theta: their covering search"
    _past_cap(cells, COVERING_CAP, "COVERING_CAP", what, "cells (supports x selectors)")
    return _search(problems, *spec._faces(_covering_masks(spec)))


def _search(
    problems: _SupportProblems,
    columns: np.ndarray,
    members: np.ndarray,
    top: np.ndarray,
) -> RateResult:
    """The best-first search over the supports with slot masks ``columns``,
    Theta(S) rows ``members`` and the vertex bound's ``top``, given in
    tie-break order (a ``GroupSpec._faces`` triple).

    Values and bounds are compared signed.  B_i is support i's signed vertex
    bound, best the best value solved so far and w the winner among the
    solved supports (_winner).  Supports are visited by bound, best first (a
    stable order, so equal bounds stay lexicographic), and support i gets no
    linear program when it cannot be the winner:

    - stop, B_i < best - TIE_TOL |best|: support i cannot reach the tie
      band, and neither can any support visited after it, so the loop ends;
    - skip, i > w and v_w >= B_i - TIE_TOL/2 |B_i|: no support from i on has
      a value above B_i, so the optimum can rise to at most B_i.  Since
      x - TIE_TOL |x| increases with x, w stays in the final tie band, and
      the winner ends as w or a support of lower index, never i.

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
    bounds = sign * problems.vertex_bounds(members, top)
    values, solved = {}, {}
    best = -math.inf
    for i in np.argsort(-bounds, kind="stable").tolist():
        bound = bounds[i]
        if bound < best - TIE_TOL * abs(best):
            break
        if values and i > w and values[w] >= bound - TIE_TOL / 2 * abs(bound):
            continue
        solved[i] = _solve_support(
            *problems.slice(columns[i], members[i]), problems.sense
        )
        values[i] = sign * solved[i][0]
        best = max(best, values[i])
        w = _winner(values)
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
    value: float,
    witness: tuple,
    ratios,
    omegas,
) -> RateResult:
    """The result of the support with slot mask cols and Theta(S) rows, from
    its solve: the inner optimum at the witness, which the search ranked,
    and the per-selector ratios and omegas there give the critical selectors
    and the per-selector table.  Weights off the support are 0."""
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
    _check_kind(sj, SourceJoint)
    return _reachable_terms(sj)


def channel_terms(chan: ChannelSpec) -> dict[ThetaVector, float]:
    """Conditional coset information terms for every reachable selector,
    with H(Y | X) computed once for all of them."""
    _check_kind(chan, ChannelSpec)
    return _reachable_terms(chan)


def _reachable_terms(data) -> dict[ThetaVector, float]:
    """The terms, keyed by the table's selectors."""
    return dict(zip(data.group._thetas, _coset_terms(data).tolist()))


def _rate(data, sense: str) -> RateResult:
    """The terms on the group's selector plan, then the search over their
    prefixes, untested, as data processing makes the terms monotone: for
    theta <= theta', [X]_theta is a function of [X]_theta', so
    I(X;Y | [X]_theta) >= I(X;Y | [X]_theta') and
    I([U]_theta; X) <= I([U]_theta'; X)."""
    problems = _SupportProblems(data.group, _coset_terms(data), sense)
    return _search(problems, *problems.prefixes())


def source_coding_rate(sj: SourceJoint) -> RateResult:
    """Source-coding group mutual information of a joint with uniform
    reconstruction marginal: min over weights of the max scaled coset term."""
    _check_kind(sj, SourceJoint)
    return _rate(sj, "source")


def channel_coding_rate(chan: ChannelSpec) -> RateResult:
    """Channel-coding group mutual information of a channel with uniform
    input: max over weights of the min scaled coset term."""
    _check_kind(chan, ChannelSpec)
    return _rate(chan, "channel")


# -- closed forms for a single Z_{p^r} ring --------------------------------


def _single_ring(spec: GroupSpec) -> int:
    """The exponent r of a group that is one Z_(p^r) ring."""
    if len(spec.rings) != 1:
        rings = " + ".join(f"Z{p**r}({p},{r},{m})" for p, r, m in spec.rings)
        raise ValueError(f"closed form applies to a single Z_(p^r) ring, not {rings}")
    (_, r, _), = spec.rings
    return r


def source_rate_prime_power(sj: SourceJoint) -> float:
    """Single-ring fast path: max over depth 1..r of (r/depth) times the
    coset information, every depth from the group's cached walk (on a
    single ring every selector is reachable, and depth t is the table's row
    t).  Must match the general optimizer."""
    _check_kind(sj, SourceJoint)
    r = _single_ring(sj.group)
    terms = _coset_terms(sj).tolist()
    return max((r / t) * terms[t] for t in range(1, r + 1))


def channel_rate_prime_power(chan: ChannelSpec) -> float:
    """Single-ring fast path: min over depth 0..r-1 of (r/(r-depth)) times
    the conditional coset information, every depth from the group's cached
    walk.  The reduction is a minimum: each depth is a constraint and the
    tightest one binds, mirroring the max on the source side."""
    _check_kind(chan, ChannelSpec)
    r = _single_ring(chan.group)
    terms = _coset_terms(chan).tolist()
    return min((r / (r - t)) * terms[t] for t in range(r))


# -- grid oracle -----------------------------------------------------------


def grid_size(spec: GroupSpec, steps: int) -> tuple[int, int]:
    """The number of weight points grid_search evaluates at ``steps`` and of
    the covering supports they lie on, those of at most ``steps`` slots,
    counted with no array: a support of m slots takes the C(steps - 1, m - 1)
    points positive exactly on it, and the supports of m slots number the
    x^m coefficient of the product over primes q of (1 + x)^r_q - 1.
    ``steps`` is an integer at least the group's number of primes, as every
    support holds one slot per prime.  At ``steps`` = the slot count the
    supports are every covering support, which optimize_weights counts."""
    steps = _check_count("steps", steps)
    if steps < len(spec.primes):
        raise ValueError(
            f"steps must be >= {len(spec.primes)}, the number of primes of the "
            f"group, as every support holds one slot per prime; got {steps}"
        )
    sizes = [1]  # sizes[m]: the supports of m <= steps slots over the primes so far
    for r in map(spec.max_exponent, spec.primes):
        sizes = [
            sum(math.comb(r, m - i) * n for i, n in enumerate(sizes) if 0 < m - i <= r)
            for m in range(min(len(sizes) + r, steps + 1))
        ]
    points = sum(c * math.comb(steps - 1, m - 1) for m, c in enumerate(sizes) if c)
    return points, sum(sizes)


def grid_search(
    spec: GroupSpec,
    terms: Mapping[ThetaVector, float],
    sense: str,
    steps: int = 200,
) -> tuple[float, WeightVector]:
    """Independent exhaustive oracle: evaluate the inner optimum on every
    weight vector of the simplex grid with the given step count and return
    the best value.  Direct, with no linear program; used to cross-check the
    solver.  Each covering support of at most ``steps`` slots takes the grid
    points positive exactly on it, evaluated GRID_BLOCK points at a time (a
    larger one holds none); ``grid_size`` counts them and checks ``steps``,
    and a grid of more than COVERING_CAP points is refused unevaluated."""
    _past_cap(grid_size(spec, steps)[0], COVERING_CAP, "COVERING_CAP", "grid", "points")
    problems = _SupportProblems.from_mapping(spec, terms, sense)
    sign = problems.sign
    masks = _covering_masks(spec, steps)
    best_val: float | None = None
    for cols, rows in zip(masks, _theta_members(spec._selector_layer[-1], masks)):
        problem = problems.slice(cols, rows)
        k = int(cols.sum())
        # a positive composition of steps is k - 1 distinct cuts in 1..steps-1;
        # one slot takes no cut, so its one point needs no pool of cuts
        cuts = itertools.combinations(range(1, steps) if k > 1 else (), k - 1)
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
