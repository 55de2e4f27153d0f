import itertools
import math
import re
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from groupcodes import (
    ChannelSpec,
    RateResult,
    SourceJoint,
    ThetaVector,
    WeightVector,
    channel_coding_rate,
    channel_rate_prime_power,
    coset_mi_channel,
    coset_mi_source,
    decompose,
    enumerate_theta_set,
    grid_search,
    induced_theta,
    mutual_information,
    omega,
    optimize_weights,
    source_coding_rate,
    source_rate_prime_power,
)
from groupcodes import groups, measures, rates
from groupcodes.groups import (
    GroupSpec,
    Subgroup,
    _covering_masks,
    _gaps,
    _grid,
    _induce,
    _min_depths,
    _past_cap,
    _theta_members,
)
from groupcodes.rates import (
    COVERING_CAP,
    INFO_ZERO_TOL,
    TIE_TOL,
    SolverError,
    _evaluate,
    _packing_lp,
    _result,
    _search,
    _solve_support,
    _SupportProblems,
    all_reachable_thetas,
    channel_terms,
    grid_size,
    source_terms,
)

from conftest import (
    make_rng,
    random_additive_channel,
    random_channel,
    random_source_joint,
)


# -- induced selectors and theta sets ---------------------------------------


def test_induced_theta_z8():
    spec = decompose([8]).spec
    support = ((2, 2), (2, 3))
    for d22 in range(3):
        for d23 in range(4):
            th = induced_theta(spec, support, {(2, 2): d22, (2, 3): d23})
            assert th.components == (min(3, min(1 + d22, d23)),)


def test_induced_theta_z4_z3():
    spec = decompose([4, 3]).spec
    support = spec.weight_slots
    for d21, d22, d31 in itertools.product(range(2), range(3), range(2)):
        th = induced_theta(
            spec, support, {(2, 1): d21, (2, 2): d22, (3, 1): d31}
        )
        assert th[(2, 2)] == min(2, min(1 + d21, d22))
        assert th[(3, 1)] == d31


def test_induced_theta_zero_depths():
    spec = decompose([8]).spec
    th = induced_theta(
        spec, spec.weight_slots, {(2, 1): 0, (2, 2): 0, (2, 3): 0}
    )
    assert th.is_zero()


def test_induced_theta_missing_prime():
    spec = decompose([4, 3]).spec
    with pytest.raises(ValueError):
        induced_theta(spec, [(2, 1)], {(2, 1): 0})


def test_induced_theta_refuses_bad_depth_maps():
    # a supported slot with no depth is named, and a key that is no weight
    # slot is refused by the rule of every slot mapping; a weight slot off
    # the support is ignored
    spec = decompose([4, 3]).spec
    with pytest.raises(ValueError, match=r"^no depth for slot \(3, 1\) of support"):
        induced_theta(spec, [(2, 1), (3, 1)], {(2, 1): 1})
    message = r"^\(2, 3\) is not a weight slot of this group$"
    with pytest.raises(ValueError, match=message):
        induced_theta(spec, [(2, 1), (3, 1)], {(2, 1): 1, (3, 1): 0, (2, 3): 0})
    off_support = {(2, 1): 1, (3, 1): 0, (2, 2): 0}
    assert induced_theta(spec, [(2, 1), (3, 1)], off_support).components == (2, 0)


def test_theta_set_z8():
    spec = decompose([8]).spec
    got = enumerate_theta_set(spec, [(2, 2), (2, 3)])
    assert sorted(t.components for t in got) == [(0,), (1,), (2,), (3,)]


def test_theta_set_z4_z3_full():
    spec = decompose([4, 3]).spec
    got = enumerate_theta_set(spec, spec.weight_slots)
    assert sorted(t.components for t in got) == [
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1),
    ]


def test_theta_set_z2_z4_single_slot():
    spec = decompose([2, 4]).spec
    got = enumerate_theta_set(spec, [(2, 1)])
    assert sorted(t.components for t in got) == [(0, 1), (1, 2)]


def selector_by_formula(spec, support, depths) -> tuple[int, ...]:
    """The selector that per-slot depths induce, level by level: min(r,
    |r - s|^+ + depth) over the support slots (q, s) of the level's prime."""
    return tuple(
        min([r] + [max(r - s, 0) + d for (q, s), d in zip(support, depths) if q == p])
        for p, r in spec.ring_levels
    )


def depth_product(support):
    return itertools.product(*(range(s + 1) for _, s in support))


def covering_supports(spec):
    """Reference route: every support pattern giving each prime a slot, as a
    sorted slot tuple, in lexicographic order (the tie-break order)."""
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


def covering_faces(spec):
    """Every covering support as ``GroupSpec._faces``, in tie-break order:
    what the grid oracle and optimize_weights on terms that are not monotone
    build for one call, and the covering search of the tests."""
    return spec._faces(_covering_masks(spec))


@pytest.fixture
def covering_builds(monkeypatch):
    """The group of every covering-mask build, one entry per build, counted
    by wrapping groups._covering_masks under each name the package calls it
    by; covering_faces calls the unwrapped function and is not counted."""
    built = []
    masks = groups._covering_masks

    def counted(spec, *most):
        built.append(spec)
        return masks(spec, *most)

    for module in (groups, rates):
        monkeypatch.setattr(module, "_covering_masks", counted)
    return built


def covering_bounds(problems):
    """The vertex bound of every covering support of a rate call."""
    _, members, top = covering_faces(problems.spec)
    return problems.vertex_bounds(members, top)


def support_tuples(problems):
    """The covering supports of a rate call as slot tuples, in row order."""
    slots, columns = problems.spec.weight_slots, _covering_masks(problems.spec)
    return [tuple(itertools.compress(slots, row)) for row in columns]


@given(
    st.sampled_from([64, 128, 729]),
    st.lists(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 25, 27]), min_size=1, max_size=3),
)
def test_covering_masks_match_itertools_route_property(deep, orders):
    # one ring deep enough for 63+ patterns of its prime and several primes:
    # the mask rows are the reference route's supports, in the same order
    spec = decompose([deep, *orders]).spec
    assume(len(spec.primes) >= 2)
    expected = [
        [slot in support for slot in spec.weight_slots]
        for support in covering_supports(spec)
    ]
    assert _covering_masks(spec).tolist() == expected


def theta_set_by_product(spec, support):
    """Reference route: the selector of every depth assignment in the product
    over the support of range(s + 1)."""
    return {
        ThetaVector(spec, selector_by_formula(spec, support, depths))
        for depths in depth_product(support)
    }


@pytest.mark.parametrize(
    "orders", [[8], [4, 3], [8, 9], [2, 4, 8], [16, 27], [4, 4, 9, 3]]
)
def test_theta_fold_matches_product(orders):
    spec = decompose(orders).spec
    union = set()
    for support in covering_supports(spec):
        expected = theta_set_by_product(spec, support)
        assert enumerate_theta_set(spec, support) == expected
        union |= expected
    assert set(all_reachable_thetas(spec)) == union


def selector_layer_by_grid(spec):
    """Reference route for the selector layer: every row of the selector
    grid, filtered to those that the full support reaches."""
    levels, gaps = spec.ring_levels, spec._slot_gaps
    grid = _grid([r + 1 for _, r in levels])
    depths, n, d = spec._omega_coefficients(grid)
    hits = _induce(levels, gaps[:, None, :], depths[..., None]) == grid[:, None, :]
    table = hits.any(axis=1).all(axis=1)  # Theta of the full support
    return grid[table], depths[table], n[table], d, hits[table]


PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64, 81]


@given(st.lists(st.sampled_from(PRIME_POWERS), min_size=1, max_size=5))
def test_selector_layer_matches_grid_filter(orders):
    # the table folded over the slots holds the grid filter's rows, in its
    # order, and every array of the layer is the filter's, dtype included
    spec = decompose(orders).spec
    assume(math.prod(r + 1 for _, r in spec.ring_levels) <= 4096)
    got, expected = spec._selector_layer, selector_layer_by_grid(spec)
    assert len(got) == len(expected) == 5
    for array, reference in zip(got, expected):
        assert array.dtype == reference.dtype
        assert np.array_equal(array, reference)


def test_selector_layer_memory_is_bounded_by_its_table():
    # Z2+Z4+...+Z256 has 256 reachable selectors among 9! = 362,880 in its
    # selector grid, whose [grid, k, L] arrays would take hundreds of MiB
    spec = decompose([2**e for e in range(1, 9)]).spec
    tracemalloc.start()
    try:
        table = spec._selector_layer[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 256
    assert peak < 4 * 2**20


SMALL_ORDERS = [2, 3, 4, 5, 8, 9, 16, 27]


@st.composite
def group_and_support(draw):
    """A random small group and a covering support of it."""
    orders = draw(st.lists(st.sampled_from(SMALL_ORDERS), min_size=1, max_size=3))
    spec = decompose(orders).spec
    assume(len(spec.weight_slots) <= 6)
    support = []
    for q in spec.primes:
        slots = [slot for slot in spec.weight_slots if slot[0] == q]
        support += draw(st.lists(st.sampled_from(slots), min_size=1, unique=True))
    return spec, tuple(sorted(support))


@given(group_and_support())
def test_min_depths_identity_property(case):
    # theta is reachable from S exactly when its least depths m(theta) induce
    # it back, and m(theta) is below every depth assignment inducing theta
    spec, support = case
    by_theta = {}
    for depths in depth_product(support):
        theta = selector_by_formula(spec, support, depths)
        by_theta.setdefault(theta, []).append(depths)
    for theta in itertools.product(*(range(r + 1) for _, r in spec.ring_levels)):
        m = tuple(_min_depths(_gaps(spec.ring_levels, support), theta).tolist())
        assert (selector_by_formula(spec, support, m) == theta) == (theta in by_theta)
        for depths in by_theta.get(theta, []):
            assert all(a <= b for a, b in zip(m, depths))


def test_theta_set_rejects_bad_support():
    spec = decompose([4, 3]).spec
    with pytest.raises(ValueError, match="not a weight slot"):
        enumerate_theta_set(spec, [(2, 3), (3, 1)])
    with pytest.raises(ValueError, match="no slot for prime 3"):
        enumerate_theta_set(spec, [(2, 1)])



def test_rate_layer_refusals_pinned():
    spec = decompose([4]).spec
    with pytest.raises(ValueError, match=r"^depth 2 for slot \(2, 1\) not in \[0, 1\]$"):
        induced_theta(spec, [(2, 1)], {(2, 1): 2})
    # a bool depth is refused, not read as the depth 1
    message = r"^depth for slot \(2, 2\) must be an integer, got True$"
    with pytest.raises(TypeError, match=message):
        induced_theta(spec, [(2, 2)], {(2, 2): True})
    assert induced_theta(spec, [(2, 2)], {(2, 2): np.int64(1)}).components == (1,)
    with pytest.raises(ValueError, match="^weight vector has empty support$"):
        omega(spec, {}, ThetaVector.zero(spec))

# -- omega -------------------------------------------------------------------


def test_omega_z8_golden_exact():
    spec = decompose([8]).spec
    rng = make_rng(5)
    for _ in range(10):
        a, b = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        w22, w23 = Fraction(a, a + b), Fraction(b, a + b)
        w = WeightVector.from_mapping(spec, {(2, 2): w22, (2, 3): w23})
        den = 2 * w22 + 3 * w23
        assert omega(spec, w, ThetaVector(spec, (0,))) == 0
        assert omega(spec, w, ThetaVector(spec, (1,))) == w23 / den
        assert omega(spec, w, ThetaVector(spec, (2,))) == (w22 + 2 * w23) / den
        assert omega(spec, w, ThetaVector(spec, (3,))) == 1


def test_omega_endpoints():
    spec = decompose([4, 3]).spec
    # full weight on the top slots makes the full selector cost everything
    w = WeightVector.from_mapping(
        spec, {(2, 2): Fraction(1, 2), (3, 1): Fraction(1, 2)}
    )
    assert omega(spec, w, ThetaVector.zero(spec)) == 0
    assert omega(spec, w, ThetaVector.full(spec)) == 1


def test_omega_float_path_matches_exact():
    # float weights take plain float arithmetic; it must agree with the exact
    # Fraction path evaluated at the same weights, on every selector of the
    # group, also one that no support reaches
    for orders in ([8], [4, 3], [2, 9, 5], [2, 4], [2, 4, 8, 3, 9]):
        spec = decompose(orders).spec
        rng = make_rng(7 + spec.order)
        ranges = [range(r + 1) for _, r in spec.ring_levels]
        thetas = [ThetaVector(spec, comps) for comps in itertools.product(*ranges)]
        for _ in range(10):
            values = rng.dirichlet(np.ones(len(spec.weight_slots))).tolist()
            floats = WeightVector(spec, tuple(values))
            exact = WeightVector(spec, tuple(Fraction(v) for v in values))
            for th in thetas:
                fast = omega(spec, floats, th)
                assert isinstance(fast, float)
                assert abs(fast - float(omega(spec, exact, th))) <= 1e-15


@pytest.mark.parametrize("orders", [[8], [4, 3], [2, 4]])
def test_omega_in_unit_interval(orders):
    spec = decompose(orders).spec
    rng = make_rng(7 + spec.order)
    thetas = all_reachable_thetas(spec)
    for _ in range(10):
        raw = [int(rng.integers(0, 6)) for _ in spec.weight_slots]
        if sum(raw) == 0:
            raw[0] = 1
        total = sum(raw)
        w = WeightVector(spec, tuple(Fraction(v, total) for v in raw))
        if not w.support:
            continue
        for th in thetas:
            val = omega(spec, w, th)
            assert 0 <= val <= 1


def test_weight_vector_validation():
    spec = decompose([8]).spec
    with pytest.raises(ValueError):
        WeightVector(spec, (Fraction(1, 2), Fraction(1, 2)))  # wrong length
    with pytest.raises(ValueError):
        WeightVector(spec, (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        WeightVector(spec, (Fraction(-1, 2), Fraction(1), Fraction(1, 2)))


@pytest.mark.parametrize(
    "values", [(True, False), (np.False_, np.True_), ("0.5", "0.5")]
)
def test_weight_vector_refuses_bools(values):
    # a bool is not read as the weight 1 or 0, nor a string as a number; the
    # message names the first weight's slot and value; Fraction and float
    # weights pass
    spec = decompose([4]).spec
    message = re.escape(f"weight for slot (2, 1) must be a number, got {values[0]!r}")
    with pytest.raises(TypeError, match=f"^{message}$"):
        WeightVector(spec, values)
    with pytest.raises(TypeError, match=f"^{message}$"):
        omega(spec, dict(zip(spec.weight_slots, values)), ThetaVector(spec, (1,)))
    assert WeightVector(spec, (Fraction(1, 4), 0.75)).support == spec.weight_slots


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_weights_rejected(bad):
    spec = decompose([8]).spec
    with pytest.raises(ValueError, match="finite"):
        WeightVector(spec, (bad, bad, bad))
    with pytest.raises(ValueError, match="finite"):
        WeightVector(spec, (bad, 0.5, 0.5))
    with pytest.raises(ValueError, match="finite"):
        omega(spec, {(2, 2): bad, (2, 3): 0.5}, ThetaVector(spec, (1,)))


def test_omega_rejects_theta_of_another_group():
    spec, other = decompose([8]).spec, decompose([9]).spec
    w = WeightVector(spec, (0.0, 0.5, 0.5))
    with pytest.raises(ValueError, match="theta bound to a different group"):
        omega(spec, w, ThetaVector(other, (2,)))
    with pytest.raises(ValueError, match="theta bound to a different group"):
        omega(spec, w.as_mapping(), ThetaVector(other, (2,)))


def test_omega_rejects_weights_of_another_group():
    # Z8 and Z8+Z2 have the same three slots, so the values alone would fit
    spec, other = decompose([8]).spec, decompose([8, 2]).spec
    w = WeightVector(other, (0.0, 0.5, 0.5))
    with pytest.raises(ValueError, match="weights bound to a different group"):
        omega(spec, w, ThetaVector(spec, (1,)))


def test_omega_rejects_stray_mapping_key():
    spec = decompose([8]).spec
    with pytest.raises(ValueError, match=r"\(7, 1\) is not a weight slot"):
        omega(spec, {(2, 3): 1.0, (7, 1): 0.5}, ThetaVector(spec, (1,)))


def test_weight_vector_from_mapping_rejects_stray_key():
    spec = decompose([4]).spec
    with pytest.raises(ValueError, match=r"\(3, 1\) is not a weight slot"):
        WeightVector.from_mapping(spec, {(2, 2): 1.0, (3, 1): 0.0})


def test_omega_rejects_negative_mapping_weight():
    spec = decompose([8]).spec
    with pytest.raises(ValueError, match="nonnegative"):
        omega(spec, {(2, 2): -0.5, (2, 3): 1.5}, ThetaVector(spec, (1,)))


# -- the optimizer -----------------------------------------------------------


def test_equal_terms_single_prime_field():
    # on a prime field there is a single slot; both senses return the term
    spec = decompose([3]).spec
    thetas = all_reachable_thetas(spec)
    terms = {th: 0.7 for th in thetas}
    assert abs(optimize_weights(spec, terms, "source").value - 0.7) < 1e-12
    assert abs(optimize_weights(spec, terms, "channel").value - 0.7) < 1e-12


def test_missing_terms_rejected():
    spec = decompose([8]).spec
    with pytest.raises(ValueError):
        optimize_weights(spec, {}, "channel")
    with pytest.raises(ValueError):
        optimize_weights(spec, {t: 0.1 for t in all_reachable_thetas(spec)}, "both")


@pytest.mark.parametrize("orders", [[8], [4, 3]])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("sense", ["source", "channel"])
def test_non_finite_terms_rejected(orders, bad, sense):
    spec = decompose(orders).spec
    terms = {th: 0.3 for th in all_reachable_thetas(spec)}
    terms[all_reachable_thetas(spec)[1]] = bad
    with pytest.raises(ValueError, match="information term"):
        optimize_weights(spec, terms, sense)


@pytest.mark.parametrize("bad", [True, np.True_, "0.3"])
def test_terms_must_be_numbers(bad):
    # a bool is not read as the term 1 bit, nor a string parsed
    spec = decompose([4]).spec
    terms = {th: bad for th in all_reachable_thetas(spec)}
    with pytest.raises(TypeError, match="information term for .* must be a number"):
        optimize_weights(spec, terms, "channel")


@pytest.mark.parametrize("seed", range(6))
def test_field_case_reduces_to_plain_mi(seed):
    for orders in ([2], [3], [5]):
        spec = decompose(orders).spec
        rng = make_rng(1000 * seed + spec.order)
        chan = random_channel(spec, 4, rng)
        res = channel_coding_rate(chan)
        assert abs(res.value - mutual_information(chan.uniform_joint())) < 1e-9
        sj = random_source_joint(spec, 3, rng)
        res = source_coding_rate(sj)
        assert abs(res.value - mutual_information(sj.joint)) < 1e-9


@pytest.mark.parametrize("orders", [[4], [8], [9], [4096]])
def test_prime_power_closed_forms_match_solver(orders):
    spec = decompose(orders).spec
    rng = make_rng(17 + spec.order)
    for _ in range(8):
        chan = random_channel(spec, int(rng.integers(2, 6)), rng)
        assert abs(
            channel_coding_rate(chan).value - channel_rate_prime_power(chan)
        ) < 1e-8
        sj = random_source_joint(spec, int(rng.integers(2, 6)), rng)
        assert abs(
            source_coding_rate(sj).value - source_rate_prime_power(sj)
        ) < 1e-8


@pytest.mark.parametrize("orders", [[2], [8], [27], [25], [1024], [243]])
def test_prime_power_closed_forms_match_per_depth_route(monkeypatch, orders):
    # one walk to every depth gives each term of the per-depth calls exactly,
    # and once the group's walk is built the closed forms plan none of their own
    spec = decompose(orders).spec
    (_, r, _), = spec.rings
    rng = make_rng(19 + spec.order)
    spec._walk_layer
    calls = []

    def counted(*args):
        calls.append(args)
        return groups._walk_schedule(*args)

    monkeypatch.setattr(measures, "_walk_schedule", counted)
    for letters in (2, 5):
        chan = random_channel(spec, letters, rng)
        sj = random_source_joint(spec, letters, rng)
        calls.clear()
        closed_channel = channel_rate_prime_power(chan)
        closed_source = source_rate_prime_power(sj)
        assert calls == []
        assert closed_channel == min(
            (r / (r - t)) * coset_mi_channel(chan, ThetaVector(spec, (t,)))
            for t in range(r)
        )
        assert closed_source == max(
            (r / t) * coset_mi_source(sj, ThetaVector(spec, (t,)))
            for t in range(1, r + 1)
        )


@given(
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.integers(2, 6),
    st.integers(2, 6),
    st.integers(0, 2**32),
)
def test_field_case_reduces_to_plain_mi_property(p, ny, nx, seed):
    # a prime field has one ring level, so both rates are the full term
    spec = decompose([p]).spec
    rng = make_rng(seed)
    chan = random_channel(spec, ny, rng)
    assert abs(
        channel_coding_rate(chan).value - mutual_information(chan.uniform_joint())
    ) < 1e-9
    sj = random_source_joint(spec, nx, rng)
    assert abs(source_coding_rate(sj).value - mutual_information(sj.joint)) < 1e-9


@given(
    st.sampled_from([2, 4, 8, 16, 32, 3, 9, 27, 5, 25]),
    st.integers(2, 6),
    st.integers(2, 6),
    st.integers(0, 2**32),
)
def test_prime_power_closed_forms_match_solver_property(order, ny, nx, seed):
    spec = decompose([order]).spec
    rng = make_rng(seed)
    chan = random_channel(spec, ny, rng)
    assert abs(
        channel_coding_rate(chan).value - channel_rate_prime_power(chan)
    ) < 1e-8
    sj = random_source_joint(spec, nx, rng)
    assert abs(source_coding_rate(sj).value - source_rate_prime_power(sj)) < 1e-8


def test_z4_closed_form_examples():
    spec = decompose([4]).spec
    chan = ChannelSpec(spec, np.eye(4))
    assert abs(channel_coding_rate(chan).value - 2.0) < 1e-12

    w = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0], [0, 0, 1]], dtype=float)
    chan = ChannelSpec(spec, w)
    res = channel_coding_rate(chan)
    # plain information 1.5 bits, halved-coset constraint 2 * 0.5 = 1.0
    assert abs(res.value - 1.0) < 1e-12
    assert [t.components for t in res.critical_thetas] == [(1,)]


def test_z9_closed_forms():
    spec = decompose([9]).spec
    rng = make_rng(33)
    chan = random_channel(spec, 5, rng)
    i_xy = mutual_information(chan.uniform_joint())
    i_1 = coset_mi_channel(chan, ThetaVector(spec, (1,)))
    assert abs(channel_rate_prime_power(chan) - min(i_xy, 2 * i_1)) < 1e-12
    sj = random_source_joint(spec, 4, rng)
    u_full = mutual_information(sj.joint)
    u_1 = coset_mi_source(sj, ThetaVector(spec, (1,)))
    assert abs(source_rate_prime_power(sj) - max(u_full, 2 * u_1)) < 1e-12


def test_z8_explicit_rate_forms():
    spec = decompose([8]).spec
    rng = make_rng(34)
    chan = random_channel(spec, 5, rng)
    i_xy = mutual_information(chan.uniform_joint())
    i1 = coset_mi_channel(chan, ThetaVector(spec, (1,)))
    i2 = coset_mi_channel(chan, ThetaVector(spec, (2,)))
    expect = min(i_xy, 1.5 * i1, 3.0 * i2)
    assert abs(channel_rate_prime_power(chan) - expect) < 1e-12
    assert abs(channel_coding_rate(chan).value - expect) < 1e-8

    sj = random_source_joint(spec, 5, rng)
    u_xy = mutual_information(sj.joint)
    u1 = coset_mi_source(sj, ThetaVector(spec, (1,)))
    u2 = coset_mi_source(sj, ThetaVector(spec, (2,)))
    expect = max(u_xy, 1.5 * u2, 3.0 * u1)
    assert abs(source_rate_prime_power(sj) - expect) < 1e-12
    assert abs(source_coding_rate(sj).value - expect) < 1e-8


def test_closed_form_rejects_multi_ring():
    spec = decompose([2, 4]).spec
    chan = ChannelSpec(spec, np.eye(8))
    with pytest.raises(ValueError):
        channel_rate_prime_power(chan)


@pytest.mark.parametrize("seed", range(8))
def test_z2_z4_channel_golden(seed):
    spec = decompose([2, 4]).spec
    rng = make_rng(500 + seed)
    chan = random_channel(spec, int(rng.integers(3, 7)), rng)
    i_xy = mutual_information(chan.uniform_joint())
    i11 = coset_mi_channel(chan, ThetaVector(spec, (1, 1)))
    i01 = coset_mi_channel(chan, ThetaVector(spec, (0, 1)))
    assert i11 <= i01 + 1e-10 and i01 <= i_xy + 1e-10
    golden = min(i11 + i01, i_xy)
    assert abs(channel_coding_rate(chan).value - golden) < 1e-8


@pytest.mark.parametrize("seed", range(8))
def test_z2_z4_source_golden(seed):
    spec = decompose([2, 4]).spec
    rng = make_rng(700 + seed)
    sj = random_source_joint(spec, int(rng.integers(3, 7)), rng)
    u_full = mutual_information(sj.joint)
    u11 = coset_mi_source(sj, ThetaVector(spec, (1, 1)))
    u01 = coset_mi_source(sj, ThetaVector(spec, (0, 1)))
    assert u01 <= u11 + 1e-10 and u11 <= u_full + 1e-10
    golden = max(u11 + u01, u_full)
    assert abs(source_coding_rate(sj).value - golden) < 1e-8


def test_z2_z4_equalizing_weight():
    # when the two coset constraints cross below the plain information, the
    # witness weight on the top slot equals the ratio of the two terms
    spec = decompose([2, 4]).spec
    rng = make_rng(43)
    for _ in range(50):
        chan = random_channel(spec, 5, rng)
        i_xy = mutual_information(chan.uniform_joint())
        i11 = coset_mi_channel(chan, ThetaVector(spec, (1, 1)))
        i01 = coset_mi_channel(chan, ThetaVector(spec, (0, 1)))
        if not (i11 + 1e-3 < i01 and i11 + i01 < i_xy - 1e-3):
            continue
        res = channel_coding_rate(chan)
        w = dict(zip(spec.weight_slots, res.weights.values))
        assert abs(float(w[(2, 2)]) - i11 / i01) < 1e-6
        return
    pytest.skip("no interior-optimum instance drawn")


def test_rate_bounds_vs_plain_mi():
    rng = make_rng(77)
    for orders in ([4], [8], [2, 4]):
        spec = decompose(orders).spec
        chan = random_channel(spec, 4, rng)
        assert channel_coding_rate(chan).value <= (
            mutual_information(chan.uniform_joint()) + 1e-9
        )
        sj = random_source_joint(spec, 4, rng)
        assert source_coding_rate(sj).value >= mutual_information(sj.joint) - 1e-9


def test_result_value_consistent_with_witness():
    spec = decompose([8]).spec
    rng = make_rng(91)
    chan = random_channel(spec, 4, rng)
    res = channel_coding_rate(chan)
    ratios = [
        t.ratio_bits
        for t in res.per_theta
        if not t.theta.is_full()
    ]
    assert abs(min(ratios) - res.value) < 1e-9
    assert res.critical_thetas  # someone attains the optimum
    for t in res.per_theta:
        assert 0.0 <= t.omega <= 1.0


@pytest.mark.parametrize(
    "orders", [[8], [4, 9], [2, 4, 3], [27], [81, 4], [125, 9], [16, 27]]
)
def test_result_table_omega_is_public_omega(orders):
    # the table's omegas are the winning solve's n.w / d.w, the sums the
    # public omega takes at float weights, so each equals it exactly, also
    # where m log2 q or s log2 q rounds (powers of 3 and 5)
    spec = decompose(orders).spec
    rng = make_rng(93)
    for result in (
        channel_coding_rate(random_channel(spec, 4, rng)),
        source_coding_rate(random_source_joint(spec, 4, rng)),
    ):
        for t in result.per_theta:
            assert t.omega == omega(spec, result.weights, t.theta)


def unit_scaling(spec, units) -> np.ndarray:
    """The row order of the relabelling x -> u*x, one unit per ring:
    perm[index(u*x)] = index(x)."""
    perm = np.empty(spec.order, dtype=np.intp)
    for k, x in enumerate(spec.elements()):
        ux = [u * v for u, v in zip(units, x.residues)]
        perm[np.ravel_multi_index(ux, spec.moduli, mode="wrap")] = k
    return perm


@given(st.data())
def test_unit_scaling_invariance_property(data):
    # x -> u*x is an automorphism fixing every H_theta, so it maps each coset
    # of H_theta onto a coset of H_theta
    groups = [[3], [4], [8], [9], [2, 4], [4, 3], [4, 4], [8, 3], [4, 9]]
    spec = decompose(data.draw(st.sampled_from(groups))).spec
    units = [
        data.draw(st.sampled_from([u for u in range(1, p**r) if u % p]))
        for p, r, _ in spec.rings
    ]
    rng = make_rng(data.draw(st.integers(0, 2**32)))
    perm = unit_scaling(spec, units)
    chan = random_channel(spec, 4, rng)
    chan_u = ChannelSpec(spec, chan.matrix[perm])
    sj = random_source_joint(spec, 3, rng)
    sj_u = SourceJoint(spec, sj.joint[:, perm])
    for terms_of, rate_of, a, b in (
        (channel_terms, channel_coding_rate, chan, chan_u),
        (source_terms, source_coding_rate, sj, sj_u),
    ):
        terms_a, terms_b = terms_of(a), terms_of(b)
        assert terms_a.keys() == terms_b.keys()
        assert all(abs(terms_a[t] - terms_b[t]) <= 1e-12 for t in terms_a)
        assert abs(rate_of(a).value - rate_of(b).value) <= 1e-9


def ring_swap(spec, i, j) -> np.ndarray:
    """The row order of the relabelling that swaps rings i and j (same
    modulus): perm[index(swapped x)] = index(x)."""
    perm = np.empty(spec.order, dtype=np.intp)
    for k, x in enumerate(spec.elements()):
        v = list(x.residues)
        v[i], v[j] = v[j], v[i]
        perm[np.ravel_multi_index(v, spec.moduli)] = k
    return perm


@given(st.data())
def test_ring_swap_invariance_property(data):
    # rings at the same (p, r) level get the same selector component, so
    # swapping them maps every H_theta coset onto an H_theta coset
    groups = [[2, 2], [4, 4, 3], [3, 3, 2], [2, 2, 4], [9, 9], [2, 4, 4]]
    spec = decompose(data.draw(st.sampled_from(groups))).spec
    pairs = [
        (i, j)
        for i, j in itertools.combinations(range(len(spec.rings)), 2)
        if spec.rings[i][:2] == spec.rings[j][:2]
    ]
    i, j = data.draw(st.sampled_from(pairs))
    rng = make_rng(data.draw(st.integers(0, 2**32)))
    perm = ring_swap(spec, i, j)
    chan = random_channel(spec, 4, rng)
    sj = random_source_joint(spec, 3, rng)
    assert abs(
        channel_coding_rate(chan).value
        - channel_coding_rate(ChannelSpec(spec, chan.matrix[perm])).value
    ) <= 1e-9
    assert abs(
        source_coding_rate(sj).value
        - source_coding_rate(SourceJoint(spec, sj.joint[:, perm])).value
    ) <= 1e-9


@given(
    st.lists(st.sampled_from([2, 3, 4, 8, 9]), min_size=2, max_size=3),
    st.integers(0, 2**32),
    st.integers(4, 12),
)
def test_solver_beats_grid_property(orders, seed, steps):
    # the grid only samples the weights the solver optimises over; with two
    # or three rings the optimum is often inside the simplex
    spec = decompose(orders).spec
    assume(len(spec.weight_slots) <= 4 and spec.order <= 72)
    rng = make_rng(seed)
    terms = channel_terms(random_channel(spec, 3, rng))
    grid_value, _ = grid_search(spec, terms, "channel", steps=steps)
    assert optimize_weights(spec, terms, "channel").value >= grid_value - 1e-9
    terms = source_terms(random_source_joint(spec, 3, rng))
    grid_value, _ = grid_search(spec, terms, "source", steps=steps)
    assert optimize_weights(spec, terms, "source").value <= grid_value + 1e-9


def test_infinite_supports_are_skipped():
    # a support missing the top slot makes the deepest informative selector
    # unpayable on the source side; the optimizer must route around it
    spec = decompose([4]).spec
    sj = SourceJoint(spec, np.eye(4) / 4)
    res = source_coding_rate(sj)
    assert math.isfinite(res.value)
    assert (2, 2) in res.weights.support


def test_grid_oracle_agrees_small():
    # Z8+Z9 has five slots and 21 covering supports on two primes
    for orders, seed, steps in (([8], 13, 60), ([8, 9], 14, 16)):
        spec = decompose(orders).spec
        rng = make_rng(seed)
        chan = random_channel(spec, 4, rng)
        terms = channel_terms(chan)
        res = optimize_weights(spec, terms, "channel")
        grid_value, grid_w = grid_search(spec, terms, "channel", steps=steps)
        assert res.value >= grid_value - 1e-9
        assert abs(res.value - grid_value) < 5e-3
        sj = random_source_joint(spec, 4, rng)
        sterms = source_terms(sj)
        sres = optimize_weights(spec, sterms, "source")
        sgrid, _ = grid_search(spec, sterms, "source", steps=steps)
        assert sres.value <= sgrid + 1e-9
        assert abs(sres.value - sgrid) < 5e-3


@pytest.mark.parametrize("steps", [0, -1])
def test_grid_search_rejects_nonpositive_steps(steps):
    spec = decompose([8]).spec
    terms = channel_terms(random_channel(spec, 4, make_rng(8)))
    with pytest.raises(ValueError, match="steps must be >= 1"):
        grid_search(spec, terms, "channel", steps=steps)


@pytest.mark.parametrize("steps", [True, np.True_, 2.5, 4.0, np.float64(3)])
def test_grid_search_rejects_non_integer_steps(steps):
    # steps shares the count contract: a bool or a float is refused by name,
    # never read as 1 or truncated
    spec = decompose([8]).spec
    terms = channel_terms(random_channel(spec, 4, make_rng(8)))
    with pytest.raises(TypeError, match="steps must be an integer"):
        grid_search(spec, terms, "channel", steps=steps)
    assert grid_search(spec, terms, "channel", steps=np.int64(4)) == grid_search(
        spec, terms, "channel", steps=4
    )


def test_grid_search_refused_past_its_cap(monkeypatch, covering_builds):
    # Z8 at 10 steps has 66 points: a cap of 66 admits them, one of 65 not
    z8 = decompose([8]).spec
    terms = channel_terms(random_channel(z8, 3, make_rng(8)))
    expected = grid_search(z8, terms, "channel", steps=10)
    monkeypatch.setattr(rates, "COVERING_CAP", 66)
    assert grid_search(z8, terms, "channel", steps=10) == expected
    monkeypatch.setattr(rates, "COVERING_CAP", 65)
    message = "^grid of 66 points exceeds cap COVERING_CAP=65$"
    with pytest.raises(ValueError, match=message):
        grid_search(z8, terms, "channel", steps=10)
    # Z1024 at 200 steps has 1,760,806,558,963,166 points, named in full; at
    # 10^500 steps the count has 4,495 digits, past 64 bits, and is named by
    # its bit length.  Both are refused before any mask or point
    monkeypatch.setattr(rates, "COVERING_CAP", COVERING_CAP)
    monkeypatch.setattr(rates, "_evaluate", None)
    spec = decompose([1024]).spec
    terms = channel_terms(random_channel(spec, 3, make_rng(10)))
    assert grid_size(spec, 10**500)[0].bit_length() - 1 == 14930
    for steps, points in ((200, "1760806558963166"), (10**500, "at least 2^14930")):
        message = f"grid of {points} points exceeds cap COVERING_CAP={COVERING_CAP}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            grid_search(spec, terms, "channel", steps=steps)
    assert covering_builds == [z8] * 2


def test_over_covering_cap_names_a_count_in_full_up_to_64_bits():
    # the one cap rule, groups._past_cap: a count is named in full up to 64
    # bits and by its bit length past them
    def refusal(count):
        assert _past_cap(count, COVERING_CAP) is True
        with pytest.raises(ValueError) as info:
            _past_cap(count, COVERING_CAP, "COVERING_CAP", "covering search", "cells")
        return str(info.value)

    assert _past_cap(COVERING_CAP, COVERING_CAP, "COVERING_CAP", "grid") is False
    form = "covering search of {} cells exceeds cap COVERING_CAP=8388608"
    assert refusal(COVERING_CAP + 1) == form.format(COVERING_CAP + 1)
    assert refusal(2**64 - 1) == form.format("18446744073709551615")
    assert refusal(2**64) == form.format("at least 2^64")
    assert refusal(3 * 2**64) == form.format("at least 2^65")
    # a size at least 2^24, past the cap, is refused without being formed
    def unformed():
        raise AssertionError("the size was formed")

    assert _past_cap(unformed, COVERING_CAP, doublings=24) is True
    with pytest.raises(ValueError, match=re.escape(form.format("at least 2^24"))):
        _past_cap(unformed, COVERING_CAP, "COVERING_CAP", "covering search", "cells", 24)
    # below the cap's bit length the bound refuses nothing: the size is formed
    assert _past_cap(lambda: COVERING_CAP, COVERING_CAP, doublings=23) is False


def test_grid_search_names_the_least_step_count():
    # every support holds one slot per prime, so Z4+Z3 needs two steps
    spec = decompose([4, 3]).spec
    terms = channel_terms(random_channel(spec, 3, make_rng(9)))
    with pytest.raises(ValueError, match="steps must be >= 2, the number of primes"):
        grid_search(spec, terms, "channel", steps=1)
    _, weights = grid_search(spec, terms, "channel", steps=2)
    assert {q for q, _ in weights.support} == {2, 3}


@pytest.mark.parametrize("orders", [[2], [5]])
def test_grid_search_one_slot_support_takes_no_pool_of_cuts(orders):
    # a one-slot support has one grid point, the unit weight, at any step
    # count: no tuple of the steps - 1 possible cuts is built for it
    spec = decompose(orders).spec
    terms = channel_terms(random_channel(spec, 3, make_rng(10)))
    expected = grid_search(spec, terms, "channel", steps=2)
    tracemalloc.start()
    try:
        got = grid_search(spec, terms, "channel", steps=10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert got == expected


def test_grid_oracle_visits_only_the_supports_with_grid_points(monkeypatch):
    # Z_(2^16) has 65535 covering supports, of which the 136 of at most two
    # slots hold a point of the 2-step grid: the oracle slices those alone,
    # builds no faces, and reports what a scan of every covering mask does
    spec = decompose([2**16]).spec
    terms = channel_terms(random_channel(spec, 4, make_rng(38)))
    problems = _SupportProblems.from_mapping(spec, terms, "channel")
    n, d, c, excluded = problems.n, problems.d, problems.c, problems.excluded
    masks = _covering_masks(spec)
    best = None
    for cols, rows in zip(masks, _theta_members(spec._selector_layer[-1], masks)):
        for cuts in itertools.combinations(range(1, 2), int(cols.sum()) - 1):
            w = np.diff((0, *cuts, 2)) / 2
            (value,), *_ = _evaluate(
                n[rows][:, cols], d[cols], c[rows], excluded[rows], w[None], "channel"
            )
            if best is None or value > best[0]:
                point = np.zeros(len(cols))
                point[cols] = w
                best = float(value), WeightVector(spec, tuple(point.tolist()))
    slices = []
    sliced = _SupportProblems.slice

    def counted(self, cols, rows):
        slices.append(cols)
        return sliced(self, cols, rows)

    def refused(self, columns):
        raise AssertionError("the grid oracle builds no faces")

    monkeypatch.setattr(_SupportProblems, "slice", counted)
    monkeypatch.setattr(GroupSpec, "_faces", refused)
    assert grid_search(spec, terms, "channel", steps=2) == best
    assert len(slices) == grid_size(spec, 2)[1] == 136


def inner_optimum(spec, terms, sense, weights) -> float:
    """The inner max (source) or min (channel) at a weight vector, from the
    public omega over Theta of its support, with the 0/0 -> 0 convention."""
    ratios = []
    for th in enumerate_theta_set(spec, weights.support):
        if th.is_zero() if sense == "source" else th.is_full():
            continue
        w = float(omega(spec, weights, th))
        frac = w if sense == "source" else 1.0 - w
        if frac <= 0:
            ratios.append(0.0 if terms[th] <= INFO_ZERO_TOL else math.inf)
        else:
            ratios.append(terms[th] / frac)
    return max(ratios) if sense == "source" else min(ratios)


def grid_by_loop(spec, terms, sense, steps) -> float:
    """The grid oracle one point at a time, over every composition of steps
    into the weight slots whose support covers every prime."""
    best = None
    for combo in itertools.product(range(steps + 1), repeat=len(spec.weight_slots)):
        if sum(combo) != steps:
            continue
        weights = WeightVector(spec, tuple(c / steps for c in combo))
        if {q for q, _ in weights.support} != set(spec.primes):
            continue
        value = inner_optimum(spec, terms, sense, weights)
        if best is None or (value < best if sense == "source" else value > best):
            best = value
    return best


@pytest.mark.parametrize("orders, steps", [([8], 30), ([2, 4], 20), ([4, 3], 12)])
def test_grid_oracle_matches_loop(orders, steps):
    # the array oracle finds the loop's value at a grid point that reaches it
    spec = decompose(orders).spec
    rng = make_rng(61 + steps)
    for sense, terms in (
        ("channel", channel_terms(random_channel(spec, 4, rng))),
        ("source", source_terms(random_source_joint(spec, 4, rng))),
    ):
        value, weights = grid_search(spec, terms, sense, steps=steps)
        assert abs(value - grid_by_loop(spec, terms, sense, steps)) <= 1e-12
        assert all(abs(w * steps - round(w * steps)) <= 1e-9 for w in weights.values)
        assert abs(inner_optimum(spec, terms, sense, weights) - value) <= 1e-12


# -- pruning, tie-break and the linear program -------------------------------


def unpruned_scan(problems):
    """Every support with a finite bound solved in lexicographic order; the
    winner is the first support whose value is within a relative 1e-12 of
    the optimum."""
    bounds = covering_bounds(problems)
    columns, members, _ = covering_faces(problems.spec)
    solved = {}
    for i, problem in enumerate(zip(columns, members)):
        if bounds[i] < math.inf:
            solved[i] = _solve_support(*problems.slice(*problem), problems.sense)
    values = [value for value, *_ in solved.values()]
    opt = min(values) if problems.sense == "source" else max(values)
    first = min(
        i
        for i, (value, *_) in solved.items()
        if value == opt or abs(value - opt) <= 1e-12 * abs(opt)
    )
    return _result(problems, columns[first], members[first], *solved[first]), solved


def draw_group(draw):
    """A random group of up to three cyclic factors, small enough to solve
    every support."""
    orders = draw(
        st.lists(st.sampled_from([2, 3, 4, 8, 9, 16]), min_size=1, max_size=3)
    )
    spec = decompose(orders).spec
    assume(len(spec.weight_slots) <= 6 and spec.order <= 288)
    return spec


@st.composite
def channel_case(draw):
    """Terms of a random or additive-noise channel (many ties) over a random
    group."""
    spec = draw_group(draw)
    rng = make_rng(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        chan = random_additive_channel(spec, rng)
    else:
        chan = random_channel(spec, draw(st.integers(2, 5)), rng)
    return spec, channel_terms(chan)


@st.composite
def source_case(draw):
    """Terms of a random source joint over a random group."""
    spec = draw_group(draw)
    rng = make_rng(draw(st.integers(0, 2**32)))
    return spec, source_terms(random_source_joint(spec, draw(st.integers(2, 5)), rng))


def assert_matches_unpruned_scan(spec, terms, sense):
    problems = _SupportProblems.from_mapping(spec, terms, sense)
    expected, solved = unpruned_scan(problems)
    got = optimize_weights(spec, terms, sense)
    for field in RateResult.__dataclass_fields__:
        assert getattr(got, field) == getattr(expected, field), field
    # the channel bound is an upper bound, the source bound a lower one
    bounds = problems.sign * covering_bounds(problems)
    supports = support_tuples(problems)
    for i, (value, *_) in solved.items():
        assert bounds[i] >= problems.sign * value - 1e-12 * value
        if len(supports[i]) == 1:
            # the face of a single slot is one point, where the bound is met
            assert abs(bounds[i] - problems.sign * value) <= 1e-12 * value


@given(channel_case())
def test_pruned_channel_optimum_matches_unpruned_scan_property(case):
    assert_matches_unpruned_scan(*case, "channel")


@given(source_case())
def test_pruned_source_optimum_matches_unpruned_scan_property(case):
    assert_matches_unpruned_scan(*case, "source")


@st.composite
def rate_case(draw):
    """A random or additive-noise channel and a random source joint over a
    random group."""
    spec = draw_group(draw)
    rng = make_rng(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        chan = random_additive_channel(spec, rng)
    else:
        chan = random_channel(spec, draw(st.integers(2, 5)), rng)
    return spec, chan, random_source_joint(spec, draw(st.integers(2, 5)), rng)


@given(rate_case())
def test_mapping_edge_matches_rate_call_property(case):
    # the terms mapping at optimize_weights and the array over the selector
    # table's rows inside a rate call are one computation
    spec, chan, sj = case
    for got, expected in (
        (
            optimize_weights(spec, channel_terms(chan), "channel"),
            channel_coding_rate(chan),
        ),
        (optimize_weights(spec, source_terms(sj), "source"), source_coding_rate(sj)),
    ):
        for field in RateResult.__dataclass_fields__:
            assert getattr(got, field) == getattr(expected, field), field


@given(rate_case())
def test_plan_reuse_keeps_results_property(case):
    # the group's selector plan is built by whichever call reads it first:
    # a cold call on a fresh spec, a warm second call, and a call after the
    # oracle, optimize_weights and a Theta enumeration give one result
    spec, chan, sj = case
    for data, rate, terms_of in (
        (chan, channel_coding_rate, channel_terms),
        (sj, source_coding_rate, source_terms),
    ):
        sense = "channel" if rate is channel_coding_rate else "source"
        cold = replace(data, group=GroupSpec(spec.rings))
        results = [repr(rate(cold)), repr(rate(cold))]
        after = replace(data, group=GroupSpec(spec.rings))
        grid_search(after.group, terms_of(after), sense, steps=3)
        optimize_weights(after.group, terms_of(after), sense)
        enumerate_theta_set(after.group, after.group.weight_slots)
        results.append(repr(rate(after)))
        assert results == [repr(rate(data))] * 3


def test_plan_arrays_are_read_only():
    spec = decompose([4, 9]).spec
    # the first terms call builds the walk layer; the covering faces, which
    # a call builds for itself, are read-only too
    channel_terms(random_channel(spec, 3, make_rng(4)))
    assert "_walk_layer" in vars(spec)
    _, batches = spec._walk_layer
    walk = tuple(array for _, *arrays in batches for array in arrays)
    arrays = spec._selector_layer + spec._prefix_layer + covering_faces(spec)
    assert len(arrays) == 11
    for array in arrays + walk:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = array


def test_covering_supports_built_once_per_call(covering_builds):
    # no plan layer keeps the covering supports: the grid oracle and
    # optimize_weights on terms that are not monotone build them once per
    # call, and a rate call, grid_size and monotone terms never do
    spec = decompose([2, 8]).spec
    rng = make_rng(2)
    chan, joint = random_channel(spec, 3, rng), random_source_joint(spec, 3, rng)
    channel_coding_rate(chan)
    source_coding_rate(joint)
    assert grid_size(spec, 4) == (15, 7)
    terms = channel_terms(chan)
    assert _SupportProblems.from_mapping(spec, terms, "channel").monotone()
    optimize_weights(spec, terms, "channel")
    assert covering_builds == []
    for calls in (1, 2):
        grid_search(spec, terms, "channel", steps=4)
        assert covering_builds == [spec] * calls
    sixths, terms = sixths_case()
    for calls in (1, 2):
        optimize_weights(sixths, terms, "source")
        assert covering_builds == [spec] * 2 + [sixths] * calls


def test_theta_enumeration_builds_no_covering_table(covering_builds):
    # one support's Theta(S) reads only the selector layer: Z65536 has 65535
    # covering supports, which verify-ensemble never pays for
    spec = decompose([65536]).spec
    assert len(enumerate_theta_set(spec, [(2, 3), (2, 16)])) > 1
    assert len(all_reachable_thetas(spec)) == 17
    assert "_selector_layer" in vars(spec) and covering_builds == []
    assert "_walk_layer" not in vars(spec)
    # omega builds no plan layer, at float and at exact weights: it takes
    # m(theta) of its one selector
    spec = decompose([65536]).spec
    theta = ThetaVector(spec, (5,))
    for weight, expected in ((0.5, 5 / 19), (Fraction(1, 2), Fraction(5, 19))):
        weights = {(2, 3): weight, (2, 16): weight}
        assert omega(spec, weights, theta) == expected
    assert "_selector_layer" not in vars(spec) and covering_builds == []


@pytest.mark.parametrize("orders", [[8], [4, 3], [16, 27], [2, 4, 9]])
def test_rate_call_selectors_are_table_rows(monkeypatch, orders):
    # inside a rate call a selector is a row of the plan's table: no Subgroup
    # is built, and the only ThetaVectors are the table's rows, built once per
    # group by the first call and shared by the results
    built = Counter()
    for cls in (Subgroup, ThetaVector):

        def counted(self, post_init=cls.__post_init__, name=cls.__name__):
            built[name] += 1
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    spec = decompose(orders).spec
    rng = make_rng(spec.order)
    thetas_built = []
    for rate, data in (
        (channel_coding_rate, random_channel(spec, 4, rng)),
        (source_coding_rate, random_source_joint(spec, 4, rng)),
    ):
        built.clear()
        result = rate(data)
        assert built["Subgroup"] == 0
        thetas_built.append(built["ThetaVector"])
        assert {id(t.theta) for t in result.per_theta} <= set(map(id, spec._thetas))
    assert thetas_built == [len(spec._thetas), 0]


@pytest.mark.parametrize(
    "orders, sixths",
    [
        ([16], [3, 4, 3, 1, 0]),
        ([2, 8], [6, 5, 2, 5, 5, 0]),
        ([32], [0, 1, 4, 0, 5, 0]),
        ([2, 16], [0, 2, 0, 5, 4, 0, 5, 3]),
    ],
)
def test_pruning_margin_keeps_ties(orders, sixths):
    # terms in sixths tie several supports to within ulps; an earlier support
    # whose vertex bound rounds just past the optimum must still be solved
    # (the first two cases need the margin on the channel side, the last two
    # on the source side)
    spec = decompose(orders).spec
    thetas = all_reachable_thetas(spec)
    terms = {th: k / 6 for th, k in zip(thetas, sixths)}
    for sense in ("channel", "source"):
        assert_matches_unpruned_scan(spec, terms, sense)


def assert_visits_best_first(monkeypatch, terms, sense):
    """Terms that are not monotone take every covering support: supports are
    solved by vertex bound, best first, equal bounds in lexicographic order,
    and the winner is the reported support.  Every support not solved lies
    past the stop (its bound below the winner's value by TIE_TOL) or was
    skipped: it comes after the winner, whose value is within TIE_TOL of its
    bound, so it could at best tie and lose."""
    spec = decompose([64, 81]).spec
    problems = _SupportProblems.from_mapping(spec, terms, sense)
    assert not problems.monotone()
    bounds = problems.sign * covering_bounds(problems)
    columns = _covering_masks(spec)
    row_of = {row.tobytes(): i for i, row in enumerate(columns)}
    visited = []
    sliced = _SupportProblems.slice

    def record(self, cols, rows):
        visited.append(row_of[cols.tobytes()])
        return sliced(self, cols, rows)

    monkeypatch.setattr(_SupportProblems, "slice", record)
    result = optimize_weights(spec, terms, sense)
    winner = support_tuples(problems).index(result.support)
    best_first = sorted(range(len(bounds)), key=lambda i: (-bounds[i], i))
    assert visited == sorted(visited, key=best_first.index)
    assert visited[0] == best_first[0]
    assert winner in visited
    value = problems.sign * result.value
    skipped = [
        i
        for i in set(range(len(bounds))) - set(visited)
        if not bounds[i] < value - TIE_TOL * abs(value)
    ]
    assert skipped
    for i in skipped:
        assert i > winner
        assert value >= bounds[i] - TIE_TOL * abs(bounds[i])
    assert 0 < len(visited) < len(bounds)
    return bounds, visited


def test_channel_visits_supports_best_first(monkeypatch):
    # a term of theta = (6, 3) above I(X;Y) breaks monotonicity
    spec = decompose([64, 81]).spec
    terms = channel_terms(random_channel(spec, 4, make_rng(3)))
    terms[ThetaVector(spec, (6, 3))] = 2 * max(terms.values())
    assert_visits_best_first(monkeypatch, terms, "channel")


def test_source_visits_supports_best_first(monkeypatch):
    # a zero term of theta = (3, 2) breaks monotonicity; the supports with
    # an infinite bound are never solved
    spec = decompose([64, 81]).spec
    terms = source_terms(random_source_joint(spec, 4, make_rng(3)))
    terms[ThetaVector(spec, (3, 2))] = 0.0
    bounds, visited = assert_visits_best_first(monkeypatch, terms, "source")
    assert all(bounds[i] > -math.inf for i in visited)


def endpoint_term(terms, sense) -> float:
    """I(X;Y), the zero selector's term, on the channel side; I(U;X), the
    full selector's, on the source side."""
    return next(
        c
        for th, c in terms.items()
        if (th.is_zero() if sense == "channel" else th.is_full())
    )


@pytest.mark.parametrize("orders, seed", [([16, 27], 1), ([64, 9], 2)])
def test_endpoint_term_binds_matches_unpruned_scan(orders, seed):
    # random inputs: the optimum is the endpoint selector's term, every
    # support's value ties it, and the skipped supports leave the result alone
    spec = decompose(orders).spec
    rng = make_rng(seed)
    cases = (
        ("channel", channel_terms(random_channel(spec, 4, rng))),
        ("source", source_terms(random_source_joint(spec, 4, rng))),
    )
    for sense, terms in cases:
        value = optimize_weights(spec, terms, sense).value
        assert abs(value - endpoint_term(terms, sense)) <= TIE_TOL * value
        assert_matches_unpruned_scan(spec, terms, sense)


def test_endpoint_term_binds_one_lp(monkeypatch):
    # Z64+Z81 has 945 covering supports; the first one solved reaches the
    # endpoint term, and every other is skipped or past the stop
    spec = decompose([64, 81]).spec
    rng = make_rng(4)
    calls = []

    def counted(*args):
        calls.append(args)
        return _packing_lp(*args)

    monkeypatch.setattr(rates, "_packing_lp", counted)
    for sense, terms in (
        ("channel", channel_terms(random_channel(spec, 5, rng))),
        ("source", source_terms(random_source_joint(spec, 5, rng))),
    ):
        calls.clear()
        result = optimize_weights(spec, terms, sense)
        assert len(calls) == 1, sense
        assert abs(result.value - endpoint_term(terms, sense)) <= TIE_TOL * result.value


@given(
    st.lists(
        st.sampled_from([2, 3, 4, 5, 8, 9, 16, 25, 27, 32, 64, 81]),
        min_size=1,
        max_size=3,
    )
)
def test_full_support_source_bound_is_finite_property(orders):
    # with every term active, each nonzero selector has a nonzero least depth
    # on the full support, so the best-first loop always solves a support
    # before any whose term is infinite for every weight choice
    spec = decompose(orders).spec
    problems = _SupportProblems(spec, np.ones(len(spec._selector_layer[0])), "source")
    full = support_tuples(problems).index(tuple(sorted(spec.weight_slots)))
    assert covering_bounds(problems)[full] < math.inf


@pytest.mark.parametrize(
    "orders, seed", [([8], 0), ([2, 8], 5), ([16], 1), ([4, 3], 0)]
)
def test_ulp_move_keeps_support(orders, seed):
    # supports tying to a few ulps are ordered lexicographically, not by the
    # rounding of the terms
    spec = decompose(orders).spec
    terms = channel_terms(random_channel(spec, 4, make_rng(seed)))
    support = optimize_weights(spec, terms, "channel").support
    for th in terms:
        for direction in (-math.inf, math.inf):
            moved = dict(terms)
            moved[th] = float(np.nextafter(terms[th], direction))
            assert optimize_weights(spec, moved, "channel").support == support


def coset_channel(spec, theta, noise=0.0):
    """The channel whose output is the coset label of its input under the
    selector with components theta, replaced with probability noise by a
    label drawn uniformly."""
    labels = Subgroup(spec, ThetaVector(spec, theta)).label_indices()
    count = labels.max() + 1
    return ChannelSpec(spec, (1 - noise) * np.eye(count)[labels] + noise / count)


def coset_source(spec, theta, noise=0.0):
    """The source whose X is the coset label of U, noisy as coset_channel's
    output."""
    return SourceJoint(spec, coset_channel(spec, theta, noise).matrix.T / spec.order)


@st.composite
def search_case(draw):
    """A random group and the data of a random, additive-noise, coset or
    subgroup-noise channel or of a random or coset source, with its terms,
    sense and kind.  A coset channel's output and a coset source's X are
    the coset labels of the input under a drawn selector other than the
    full one, with 0, 5 or 30% of uniform noise over the labels; a coset
    channel has a zero term at every selector at or above that one.
    Subgroup noise is uniform on the drawn selector's subgroup."""
    spec = draw_group(draw)
    rng = make_rng(draw(st.integers(0, 2**32)))
    kind = draw(
        st.sampled_from(
            ["coset", "coset-source", "subgroup", "random", "additive", "source"]
        )
    )
    theta = draw(st.sampled_from(all_reachable_thetas(spec)[:-1])).components
    noise = draw(st.sampled_from([0.0, 0.05, 0.3]))
    if kind == "source":
        data = random_source_joint(spec, draw(st.integers(2, 5)), rng)
    elif kind == "coset-source":
        data = coset_source(spec, theta, noise)
    elif kind == "random":
        data = random_channel(spec, draw(st.integers(2, 5)), rng)
    elif kind == "additive":
        data = random_additive_channel(spec, rng)
    elif kind == "coset":
        data = coset_channel(spec, theta, noise)
    else:
        data = subgroup_noise_case(spec.moduli, theta)[1]
    if isinstance(data, SourceJoint):
        return data.group, source_terms(data), "source", kind, data
    return data.group, channel_terms(data), "channel", kind, data


def sixths_case():
    """The Z32 source terms in sixths of test_pruning_margin_keeps_ties,
    which are not monotone."""
    spec = decompose([32]).spec
    sixths = (0, 1, 4, 0, 5, 0)
    return spec, dict(zip(all_reachable_thetas(spec), (k / 6 for k in sixths)))


def coset_case(orders=(4, 2), theta=(1, 0)):
    """The search case of the coset channel of theta, by default on Z4+Z2
    with theta = (1, 0)."""
    chan = coset_channel(decompose(orders).spec, theta)
    return chan.group, channel_terms(chan), "channel", "coset", chan


@example((*sixths_case(), "source", "sixths", None))
@example(coset_case())
@example(coset_case((4, 2, 3), (1, 0, 1)))
@given(search_case())
def test_prefix_search_matches_covering_search_and_scan_property(case):
    # the search over prefixes(), which a rate call takes untested, reports
    # every field the search over every covering support and the unpruned
    # scan report, and so do the rate call and optimize_weights: the terms
    # of channel and source data are monotone up to rounding, and the
    # sixths terms are not, so optimize_weights takes the covering supports
    spec, terms, sense, kind, data = case
    problems = _SupportProblems.from_mapping(spec, terms, sense)
    if kind == "sixths":
        assert not problems.monotone()
    expected, _ = unpruned_scan(problems)
    results = [
        optimize_weights(spec, terms, sense),
        _search(problems, *covering_faces(spec)),
    ]
    if kind != "sixths":
        results.append(_search(problems, *problems.prefixes()))
    if data is not None:
        rate = channel_coding_rate if sense == "channel" else source_coding_rate
        results.append(rate(data))
    for got in results:
        for field in RateResult.__dataclass_fields__:
            assert getattr(got, field) == getattr(expected, field), field


def test_sixths_source_terms_take_the_best_first_search(covering_builds):
    # on Z32, {(2,1),(2,2),(2,3)} is +inf, between {(2,1),(2,2)} and the
    # full support, both at 5/3: the terms are not monotone, and the call
    # searches every covering support
    spec, terms = sixths_case()
    problems = _SupportProblems.from_mapping(spec, terms, "source")
    expected, _ = unpruned_scan(problems)
    assert expected.support == ((2, 1), (2, 2))
    assert optimize_weights(spec, terms, "source") == expected
    # on Z4+Z2 the optimum is on {(2,2)}, which is no prefix, so the prefix
    # supports alone report {(2,1),(2,2)} at 5/3
    spec = decompose([4, 2]).spec
    sixths = {(0, 0): 0, (0, 1): 5, (1, 1): 0, (1, 2): 1}
    terms = {th: sixths[th.components] / 6 for th in all_reachable_thetas(spec)}
    problems = _SupportProblems.from_mapping(spec, terms, "source")
    expected, _ = unpruned_scan(problems)
    assert expected.support == ((2, 2),) and expected.value == 1 / 6
    assert optimize_weights(spec, terms, "source") == expected
    prefixes = _search(problems, *spec._prefix_layer)
    assert prefixes.support == ((2, 1), (2, 2)) and prefixes.value == 5 / 3
    assert covering_builds == [decompose([32]).spec, spec]


def test_covering_search_refused_past_its_cap(monkeypatch, covering_builds):
    # the Z32 sixths terms take 31 covering supports x 6 selectors = 186
    # cells: a cap of 186 admits them, one of 185 refuses before any mask
    sixths, terms = sixths_case()
    expected = optimize_weights(sixths, terms, "source")
    monkeypatch.setattr(rates, "COVERING_CAP", 186)
    assert optimize_weights(sixths, terms, "source") == expected
    monkeypatch.setattr(rates, "COVERING_CAP", 185)
    with pytest.raises(ValueError, match="covering search of 186 cells"):
        optimize_weights(sixths, terms, "source")
    assert covering_builds == [sixths] * 2
    # random terms on Z_(2^20), not monotone: 2^20 - 1 supports x 21
    # selectors = 22,020,075 cells, past the stated cap
    monkeypatch.setattr(rates, "COVERING_CAP", COVERING_CAP)
    spec = decompose([2**20]).spec
    terms = dict(zip(spec._thetas, make_rng(20).random(len(spec._thetas))))
    assert not _SupportProblems.from_mapping(spec, terms, "channel").monotone()
    message = (
        "terms not monotone in theta: their covering search of 22020075 cells "
        f"(supports x selectors) exceeds cap COVERING_CAP={COVERING_CAP}"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        optimize_weights(spec, terms, "channel")
    assert covering_builds == [sixths] * 2


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=search_case())
def test_rate_call_terms_take_the_prefixes_property(covering_builds, case):
    # a rate call's terms are monotone up to rounding, below INFO_ZERO_TOL,
    # so optimize_weights searches their prefixes, as the rate call does:
    # the same result, and no covering support built
    spec, terms, sense, _, data = case
    rate = channel_coding_rate if sense == "channel" else source_coding_rate
    assert repr(optimize_weights(spec, terms, sense)) == repr(rate(data))
    assert covering_builds == []


def pinned_slots(spec, terms):
    """The slots whose selector lowered alone one step from the full one,
    with every other slot at its full depth, has a zero term."""
    levels = spec.ring_levels
    zero = {th.components for th, c in terms.items() if c == 0}
    return {
        (q, s)
        for q, s in spec.weight_slots
        if tuple(_induce(levels, _gaps(levels, [(q, s)]), [s - 1]).tolist()) in zero
    }


def test_channel_zero_term_guard_is_needed():
    # the coset channel of theta = (1, 0, 1) on Z4+Z2+Z3, levels (2,1),
    # (2,2), (3,1): the output is the input's Z2 and Z3 coordinates.  Its
    # terms are monotone over every dominance pair, with a zero term at
    # (1,1,1) besides the full selector's: (2,2) lowered alone one step.
    # So slot (2,2) is pinned, and the one prefix of the other slots that
    # gives both primes a slot, ((2,1),(3,1)), holds the rate, log2 6.  The
    # one prefix of the whole slot order that does, the full support,
    # reaches (1,1,1) and solves to 0
    spec, terms, _, _, chan = coset_case((4, 2, 3), (1, 0, 1))
    problems = _SupportProblems.from_mapping(spec, terms, "channel")
    assert problems.monotone()
    zero = [th.components for th, c in terms.items() if c <= INFO_ZERO_TOL]
    assert zero == [(1, 1, 1), (1, 2, 1)]
    assert pinned_slots(spec, terms) == {(2, 2)}
    columns, _, _ = problems.prefixes()
    assert columns.tolist() == [[True, False, True]]
    for result in optimize_weights(spec, terms, "channel"), channel_coding_rate(chan):
        assert result.value == math.log2(6) == 2.584962500721156
        assert result.support == ((2, 1), (3, 1))
    prefixes = _search(problems, *spec._prefix_layer)
    assert prefixes.support == spec.weight_slots and prefixes.value == 0.0


@st.composite
def coset_channels(draw):
    """A coset channel (see search_case) over a random group, noiseless or
    with 5 or 30% of noise."""
    spec = draw_group(draw)
    theta = draw(st.sampled_from(all_reachable_thetas(spec)[:-1])).components
    return coset_channel(spec, theta, draw(st.sampled_from([0.0, 0.05, 0.3])))


@example(coset_case((4, 2, 3), (1, 0, 1))[-1])
@given(coset_channels())
def test_pinned_slots_pin_exactly_their_supports_property(chan):
    # a covering support solves to exactly 0 when it holds a pinned slot,
    # and to a positive rate when it holds none
    spec, terms = chan.group, channel_terms(chan)
    pinned = pinned_slots(spec, terms)
    problems = _SupportProblems.from_mapping(spec, terms, "channel")
    columns, members, _ = covering_faces(spec)
    for support, cols, rows in zip(support_tuples(problems), columns, members):
        value, *_ = _solve_support(*problems.slice(cols, rows), "channel")
        assert (value == 0.0) == bool(pinned.intersection(support)), support


def test_rate_call_builds_no_covering_layer(monkeypatch, covering_builds):
    # a rate call searches prefixes() and builds no covering support.
    # Random channels and sources on wide groups and a random channel on
    # Z_(2^16), which has 65535 covering supports, solve one LP.  Three more
    # inputs report what the covering search reports: the Z4+Z2+Z3 coset
    # channel with slot (2,2) pinned, and on Z_(2^16) the channel whose
    # output is X mod 8, with every slot pinned, and the source whose X is
    # U mod 8 with 10% noise, whose terms break the order by rounding, below
    # INFO_ZERO_TOL: optimize_weights takes their prefixes too
    calls = []

    def counted(*args):
        calls.append(args)
        return _packing_lp(*args)

    monkeypatch.setattr(rates, "_packing_lp", counted)
    rng = make_rng(16)
    for orders in ([8], [2, 8], [4, 9], [64, 9], [8, 8, 8, 27]):
        spec = decompose(orders).spec
        for _ in range(3):
            chan = random_channel(spec, int(rng.integers(2, 6)), rng)
            joint = random_source_joint(spec, int(rng.integers(2, 6)), rng)
            for rate, data in ((channel_coding_rate, chan), (source_coding_rate, joint)):
                calls.clear()
                rate(data)
                assert len(calls) == 1
        assert covering_builds == []
    spec = decompose([2**16]).spec
    chan = random_channel(spec, 2, make_rng(16))
    calls.clear()
    result = channel_coding_rate(chan)
    assert "_prefix_layer" in vars(spec) and covering_builds == []
    assert len(calls) == 1
    problems = _SupportProblems.from_mapping(spec, channel_terms(chan), "channel")
    assert problems.monotone()
    assert result == _search(problems, *covering_faces(spec))
    for data in (
        coset_case((4, 2, 3), (1, 0, 1))[-1],
        coset_channel(decompose([2**16]).spec, (3,)),
        coset_source(decompose([2**16]).spec, (3,), 0.1),
    ):
        spec = data.group
        if isinstance(data, SourceJoint):
            rate, terms, sense = source_coding_rate, source_terms(data), "source"
        else:
            rate, terms, sense = channel_coding_rate, channel_terms(data), "channel"
        result = rate(data)
        assert covering_builds == []
        problems = _SupportProblems.from_mapping(spec, terms, sense)
        assert repr(result) == repr(_search(problems, *covering_faces(spec)))
        assert problems.monotone()
        assert repr(optimize_weights(spec, terms, sense)) == repr(result)
        assert covering_builds == []


def monotone_by_pairs(problems) -> bool:
    """Whether the terms of problems are monotone in theta up to
    INFO_ZERO_TOL, one pair of table selectors at a time: theta <= theta' by
    ThetaVector.dominates gives sign * c_theta' - sign * c_theta at most
    INFO_ZERO_TOL."""
    sign, c = problems.sign, dict(zip(problems.spec._thetas, problems.c.tolist()))
    return all(
        sign * c[hi] - sign * c[lo] <= INFO_ZERO_TOL
        for lo, hi in itertools.product(c, repeat=2)
        if hi.dominates(lo)
    )


@st.composite
def order_case(draw):
    """A search case's terms, or small integer terms over a random group in
    either sense, sorted half the time along the table's grid order, which
    extends theta <= theta', so that both answers of monotone() occur, with
    one term then moved by half or twice INFO_ZERO_TOL (none below 0)."""
    if draw(st.booleans()):
        spec, terms, sense, *_ = draw(search_case())
        return spec, terms, sense
    spec = draw_group(draw)
    sense = draw(st.sampled_from(["channel", "source"]))
    size = len(spec._thetas)
    values = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    values = list(map(float, values))
    if draw(st.booleans()):
        values.sort(reverse=sense == "channel")
    i = draw(st.integers(0, size - 1))
    step = draw(st.sampled_from([-2, -0.5, 0, 0.5, 2])) * INFO_ZERO_TOL
    values[i] = max(values[i] + step, 0.0)
    return spec, dict(zip(spec._thetas, values)), sense


@example((*sixths_case(), "source"))
@example(
    (
        decompose([2**16]).spec,
        source_terms(coset_source(decompose([2**16]).spec, (3,), 0.1)),
        "source",
    )
)
@given(order_case())
def test_monotone_matches_pairwise_dominance_property(case):
    # monotone() reads the order off the table in the call; the pairwise
    # check compares every two selectors by ThetaVector.dominates.  The
    # sixths terms are not monotone; the Z_(2^16) coset source, whose terms
    # break the order by rounding, below INFO_ZERO_TOL, is
    problems = _SupportProblems.from_mapping(*case)
    assert problems.monotone() == monotone_by_pairs(problems)


def test_packing_lp_raises_when_unbounded():
    # max x subject to -x <= 1
    with pytest.raises(SolverError, match="unbounded packing LP"):
        _packing_lp(np.array([[-1.0]]), np.array([1.0]), np.array([1.0]))


def test_packing_lp_leaves_by_lowest_basic_variable():
    # degenerate at the origin (rows counted from 0): x1 enters in row 3 at
    # ratio 0, then x3 enters with rows 2 and 3 tied at ratio 0, row 2
    # holding its slack and row 3 holding x1.  Bland's rule lets x1, the
    # lower variable index, leave and ends at (0, 0, 0, 2); letting the
    # lower row index leave ends at another optimal vertex, (0, 1, 1/2, 2)
    a = np.array(
        [[0, 1, -2, 1], [-2, -1, -1, -2], [0, 1, 2, -1], [2, -1, 2, 0]], dtype=float
    )
    b = np.array([2.0, 2.0, 0.0, 0.0])
    c = np.array([1.0, -1.0, 2.0, 1.0])
    x, y = _packing_lp(a, b, c)
    assert x.tolist() == [0.0, 0.0, 0.0, 2.0]
    assert c @ x == b @ y == 2.0


@pytest.mark.parametrize("orders", [[8], [2, 4], [4, 3], [9, 4], [2, 4, 8], [8, 9]])
def test_packing_lp_matches_highs(orders):
    # both objectives of every channel and source LP against an independent
    # solver.  The 1e-9 limit rests on HiGHS's own feasibility tolerance of
    # 1e-7 and holds because these random channels have large rates: on rates
    # near 1e-6 bits HiGHS is off by up to 3.7e-8, so this test cannot check
    # such rates
    linprog = pytest.importorskip("scipy.optimize").linprog
    spec = decompose(orders).spec
    rng = make_rng(71 + spec.order)
    cases = (
        ("channel", channel_terms(random_channel(spec, 4, rng))),
        ("source", source_terms(random_source_joint(spec, 4, rng))),
    )
    solved = 0
    for sense, terms in cases:
        problems = _SupportProblems.from_mapping(spec, terms, sense)
        for cols, rows in zip(*covering_faces(spec)[:2]):
            n, d, c, excluded = problems.slice(cols, rows)
            active = ~excluded & (c > INFO_ZERO_TOL)
            if sense == "channel":
                a, b, gain = d - n[active], c[active], d
            elif n[active].any(axis=1).all() and active.any():
                a, b, gain = n[active].T, d, c[active]
            else:
                continue  # no LP on this support
            x, y = _packing_lp(a, b, gain)
            ref = linprog(-gain, A_ub=a, b_ub=b, bounds=(0, None), method="highs")
            assert ref.status == 0
            assert abs(gain @ x + ref.fun) <= 1e-9
            assert abs(b @ y + ref.fun) <= 1e-9
            solved += 1
    assert solved


def numpy_packing_lp(a, b, c):
    """The simplex with its entering column and leaving row chosen by numpy
    array operations: the oracle of the scalar pivot choice."""
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
        j = (cost < -rates.LP_TOL).argmax()
        if not cost[j] < -rates.LP_TOL:
            break
        col = tab[:m, j]
        rows = col > rates.LP_TOL
        if not rows.any():
            raise SolverError("unbounded packing LP")
        ratios.fill(math.inf)
        np.divide(rhs, col, out=ratios, where=rows)
        i = np.where(ratios <= ratios.min() + rates.LP_TOL, basis, n + m).argmin()
        tab[i] /= tab[i, j]
        pivot_col = tab[:, j].copy()
        pivot_col[i] = 0.0
        tab -= pivot_col[:, None] * tab[i]
        basis[i] = j
    x = np.zeros(n + m)
    x[basis] = rhs
    return np.maximum(x[:n], 0.0), np.maximum(tab[m, n : n + m], 0.0)


@st.composite
def packing_lps(draw):
    """A packing LP with small integer entries, so ratios and reduced costs
    tie often, scaled by one of a few factors; b >= 0 and mostly 0, so that
    pivots are degenerate and the leaving row is picked among tied ratios."""
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    scale = draw(st.sampled_from([1.0, math.log2(3), 0.1]))
    ints = st.integers(-1, 2)
    a = draw(hnp.arrays(np.int64, (m, n), elements=ints)) * scale
    b = draw(hnp.arrays(np.int64, m, elements=st.sampled_from([0, 0, 1]))) * scale
    c = draw(hnp.arrays(np.int64, n, elements=ints)) * scale
    return a, b, c


@settings(max_examples=300)
@given(packing_lps())
def test_packing_lp_matches_numpy_pivot_choice_property(lp):
    # choosing pivots on Python floats keeps x, y and the unbounded cases
    try:
        expected = numpy_packing_lp(*lp)
    except SolverError:
        with pytest.raises(SolverError, match="unbounded packing LP"):
            _packing_lp(*lp)
        return
    x, y = _packing_lp(*lp)
    assert np.array_equal(x, expected[0]) and np.array_equal(y, expected[1])


def plain_vertex_bounds(problems):
    """The covering supports' vertex bounds by whole-array temporaries:
    c / top or c / (1 - top), 0 for a zero term, the max (source) or min
    (channel) over the counted selectors."""
    _, members, top = covering_faces(problems.spec)
    part = top if problems.sign < 0 else 1.0 - top
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = np.where(problems.c <= INFO_ZERO_TOL, 0.0, problems.c / part)
    counted = members & ~problems.excluded
    if problems.sign < 0:
        return np.where(counted, bound, -math.inf).max(axis=1)
    return np.where(counted, bound, math.inf).min(axis=1)


def unordered_case(sense):
    """A deep ring, 2^14 - 1 supports over 15 selectors, with random terms
    that are not monotone, so optimize_weights searches every covering
    support: the problems and the terms mapping."""
    spec = decompose([2**14]).spec
    # a single ring's table is its whole selector grid
    terms = make_rng(150).random(len(spec._selector_layer[0]))
    terms[[3, 7]] = 0.0  # zero terms bound by 0
    problems = _SupportProblems(spec, terms, sense)
    assert not problems.monotone()
    return problems, dict(zip(spec._thetas, terms))


@pytest.mark.parametrize("sense", ["channel", "source"])
def test_vertex_bounds_in_one_temporary(sense):
    # the search over every covering support bounds them in one float array
    # the size of top, not one per operation, and solves its supports in
    # that much memory again at most
    problems, terms = unordered_case(sense)
    faces = covering_faces(problems.spec)  # built before tracing
    tracemalloc.start()
    try:
        result = _search(problems, *faces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(covering_bounds(problems), plain_vertex_bounds(problems))
    assert peak <= 1.5 * faces[2].nbytes
    assert repr(result) == repr(optimize_weights(problems.spec, terms, sense))


def test_covering_faces_are_dropped_on_return():
    # the grid oracle and optimize_weights on terms that are not monotone
    # keep nothing that grows with the 2^14 - 1 covering supports, whose
    # faces hold 2.3 MiB while a call runs.  The table-sized layers are
    # built before tracing, and calls on another group warm numpy
    problems, terms = unordered_case("channel")
    spec = problems.spec
    warm = decompose([64]).spec
    warm_terms = dict(zip(warm._thetas, make_rng(151).random(len(warm._thetas))))
    grid_search(warm, warm_terms, "channel", steps=2)
    optimize_weights(warm, warm_terms, "channel")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        grid_search(spec, terms, "channel", steps=2)
        optimize_weights(spec, terms, "channel")
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 0.25 * 2**20


@given(
    st.lists(
        st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 64]),
        min_size=1,
        max_size=4,
    ),
    st.integers(1, 40),
)
def test_grid_size_counts_the_covering_masks_property(orders, steps):
    # the closed form counts what the masks hold: C(steps - 1, m - 1) points
    # on each support of m slots, and the supports of at most steps slots,
    # which hold them
    spec = decompose(orders).spec
    assume(steps >= len(spec.primes))
    sizes = [m for m in _covering_masks(spec).sum(axis=1).tolist() if m <= steps]
    expected = sum(math.comb(steps - 1, m - 1) for m in sizes), len(sizes)
    assert grid_size(spec, steps) == expected


@given(
    st.lists(
        st.sampled_from([2, 3, 4, 5, 8, 9, 16, 27, 32, 64, 128]),
        min_size=1,
        max_size=3,
    ),
    st.integers(1, 12),
)
def test_covering_masks_of_at_most_some_slots_property(orders, most):
    # the supports of at most ``most`` slots, built from each prime's share,
    # are the full build's rows of at most that many slots, in its order
    spec = decompose(orders).spec
    assume(most >= len(spec.primes))
    full = _covering_masks(spec).tolist()
    assert _covering_masks(spec, most).tolist() == [m for m in full if sum(m) <= most]


def test_grid_search_builds_only_the_supports_it_visits():
    # Z_(2^20) has 2^20 - 1 covering supports, whose masks alone take 20
    # MiB; at two steps the oracle visits the 210 of at most two slots and
    # builds no others
    spec = decompose([2**20]).spec
    terms = dict(zip(spec._thetas, make_rng(5).random(len(spec._thetas))))
    expected = grid_search(spec, terms, "channel", steps=2)
    tracemalloc.start()
    try:
        assert grid_search(spec, terms, "channel", steps=2) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# -- the zero rule -------------------------------------------------------------


def subgroup_noise_case(orders, theta):
    """Y = X + Z over the group with Z uniform on H_theta: the output is
    uniform on the input's coset, whose label is its residues mod p^theta."""
    spec = decompose(orders).spec
    labels = Subgroup(spec, ThetaVector(spec, theta)).label_indices()
    same = labels[:, None] == labels[None, :]
    return spec, ChannelSpec(spec, same / same.sum(axis=1, keepdims=True))


def test_zero_rate_reads_exactly_zero_on_every_route():
    # Z27 with noise uniform on {0, 9, 18} = H_(2): the term of (2) is 0 in
    # exact arithmetic, and the terms, the solver, the closed form and the
    # grid oracle all read 0.0, not a rounding residue
    spec, chan = subgroup_noise_case([27], (2,))
    terms = channel_terms(chan)
    assert terms[ThetaVector(spec, (2,))] == 0.0
    assert channel_coding_rate(chan).value == 0.0
    assert channel_rate_prime_power(chan) == 0.0
    assert grid_search(spec, terms, "channel", steps=12)[0] == 0.0


def test_pinned_support_reports_zero_with_its_witness():
    # Z4+Z3 with noise uniform on H_(1,0): three selectors have zero terms,
    # and the full support is pinned at 0 with the uniform witness
    spec, chan = subgroup_noise_case([4, 3], (1, 0))
    result = channel_coding_rate(chan)
    assert result.value == 0.0
    assert result.support == ((2, 1), (2, 2), (3, 1))
    critical = [th.components for th in result.critical_thetas]
    assert critical == [(1, 0), (1, 1), (2, 0)]
    assert result.weights.values == (1 / 3, 1 / 3, 1 / 3)


@st.composite
def subgroup_noise_channels(draw):
    """A channel with noise uniform on a drawn subgroup of a random group."""
    spec = draw_group(draw)
    ranges = [range(r + 1) for _, r in spec.ring_levels]
    theta = draw(st.sampled_from(list(itertools.product(*ranges))))
    return subgroup_noise_case(spec.moduli, theta)


@example(subgroup_noise_case([27], (2,)))
@example(subgroup_noise_case([4, 3], (1, 0)))
@given(subgroup_noise_channels())
def test_zero_rule_holds_from_terms_to_report_property(case):
    # every information value is 0.0 or above INFO_ZERO_TOL, the table's
    # terms are the walk's, and the value is the minimum of the table's own
    # ratios without the excluded full selector
    spec, chan = case
    terms = channel_terms(chan)
    result = channel_coding_rate(chan)
    assert all(c == 0.0 or c > INFO_ZERO_TOL for c in terms.values())
    for term in result.per_theta:
        assert term.info_bits == terms[term.theta]
        assert (term.ratio_bits == 0.0) == (term.info_bits == 0.0)
    ratios = [term.ratio_bits for term in result.per_theta if not term.theta.is_full()]
    assert result.value == min(ratios)
