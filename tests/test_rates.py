import itertools
import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from groupcodes import groups, rates
from groupcodes.groups import GroupSpec, Subgroup, _covering_masks, _gaps, _min_depths
from groupcodes.rates import (
    INFO_ZERO_TOL,
    TIE_TOL,
    SolverError,
    _packing_lp,
    _optimize,
    _result,
    _search,
    _solve_support,
    _SupportProblems,
    all_reachable_thetas,
    channel_terms,
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


def covering_bounds(problems):
    """The vertex bound of every covering support of a rate call."""
    _, members, top = problems.spec._covering_layer
    return problems.vertex_bounds(members, top)


def support_tuples(problems):
    """The covering supports of a rate call as slot tuples, in row order."""
    slots = problems.spec.weight_slots
    return [tuple(itertools.compress(slots, row)) for row in problems.columns]


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
    # Fraction path evaluated at the same weights
    for orders in ([8], [4, 3], [2, 9, 5]):
        spec = decompose(orders).spec
        rng = make_rng(7 + spec.order)
        thetas = all_reachable_thetas(spec)
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
def test_prime_power_closed_forms_match_per_depth_route(orders):
    # one walk to every depth gives each term of the per-depth calls exactly
    spec = decompose(orders).spec
    (_, r, _), = spec.rings
    rng = make_rng(19 + spec.order)
    for letters in (2, 5):
        chan = random_channel(spec, letters, rng)
        sj = random_source_joint(spec, letters, rng)
        assert channel_rate_prime_power(chan) == min(
            (r / (r - t)) * coset_mi_channel(chan, ThetaVector(spec, (t,)))
            for t in range(r)
        )
        assert source_rate_prime_power(sj) == max(
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
    for x in spec.elements():
        ux = spec.element([u * v for u, v in zip(units, x.residues)])
        perm[spec.element_index(ux)] = spec.element_index(x)
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
    for x in spec.elements():
        v = list(x.residues)
        v[i], v[j] = v[j], v[i]
        perm[spec.element_index(spec.element(v))] = spec.element_index(x)
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


def test_grid_search_names_the_least_step_count():
    # every support holds one slot per prime, so Z4+Z3 needs two steps
    spec = decompose([4, 3]).spec
    terms = channel_terms(random_channel(spec, 3, make_rng(9)))
    with pytest.raises(ValueError, match="steps must be >= 2, the number of primes"):
        grid_search(spec, terms, "channel", steps=1)
    _, weights = grid_search(spec, terms, "channel", steps=2)
    assert {q for q, _ in weights.support} == {2, 3}


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
    solved = {}
    for i in range(len(problems.columns)):
        if bounds[i] < math.inf:
            solved[i] = _solve_support(*problems[i], problems.sense)
    values = [value for value, *_ in solved.values()]
    opt = min(values) if problems.sense == "source" else max(values)
    first = min(
        i
        for i, (value, *_) in solved.items()
        if value == opt or abs(value - opt) <= 1e-12 * abs(opt)
    )
    columns, members, _ = problems.spec._covering_layer
    return _result(problems, columns[first], members[first], *solved[first][1:]), solved


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
    # the first terms call builds the walk layer, not the covering layer
    channel_terms(random_channel(spec, 3, make_rng(4)))
    assert "_walk_layer" in vars(spec) and "_covering_layer" not in vars(spec)
    _, batches = spec._walk_layer
    walk = tuple(array for _, *arrays in batches for array in arrays)
    arrays = spec._selector_layer + spec._prefix_layer + spec._covering_layer
    assert len(arrays) == 13
    for array in arrays + walk:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = array


def test_covering_table_built_once_per_group(monkeypatch):
    # a rate call, the terms mapping and the oracle share one plan
    built = []
    masks = groups._covering_masks

    def counted(spec):
        built.append(spec)
        return masks(spec)

    monkeypatch.setattr(groups, "_covering_masks", counted)
    spec = decompose([2, 8]).spec
    chan = random_channel(spec, 3, make_rng(2))
    channel_coding_rate(chan)
    grid_search(spec, channel_terms(chan), "channel", steps=4)
    assert built == [spec]


def test_theta_enumeration_builds_no_covering_table():
    # one support's Theta(S) reads only the selector layer: Z65536 has 65535
    # covering supports, which verify-ensemble never pays for
    spec = decompose([65536]).spec
    assert len(enumerate_theta_set(spec, [(2, 3), (2, 16)])) > 1
    assert len(all_reachable_thetas(spec)) == 17
    assert "_selector_layer" in vars(spec) and "_covering_layer" not in vars(spec)
    assert "_walk_layer" not in vars(spec)
    # omega reads the selector layer alone, at float and at exact weights
    spec = decompose([65536]).spec
    theta = ThetaVector(spec, (5,))
    for weight, expected in ((0.5, 5 / 19), (Fraction(1, 2), Fraction(5, 19))):
        weights = {(2, 3): weight, (2, 16): weight}
        assert omega(spec, weights, theta) == expected
    assert "_selector_layer" in vars(spec) and "_covering_layer" not in vars(spec)


@pytest.mark.parametrize("orders", [[8], [4, 3], [16, 27], [2, 4, 9]])
def test_rate_call_selectors_are_table_rows(monkeypatch, orders):
    # inside a rate call a selector is a row of the plan's grid: no Subgroup
    # is built, and the only ThetaVectors are the grid's rows, built once per
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
    """Terms that are not monotone take the best-first search: supports are
    solved by vertex bound, best first, equal bounds in lexicographic order,
    and the winner is the reported support.  Every support not solved lies
    past the stop (its bound below the winner's value by TIE_TOL) or was
    skipped: it comes after the winner, whose value is within TIE_TOL of its
    bound, so it could at best tie and lose."""
    spec = decompose([64, 81]).spec
    problems = _SupportProblems.from_mapping(spec, terms, sense)
    assert not problems.monotone()
    bounds = problems.sign * covering_bounds(problems)
    row_of = {row.tobytes(): i for i, row in enumerate(problems.columns)}
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
    *_, reachable = spec._selector_layer
    problems = _SupportProblems(spec, np.where(reachable, 1.0, math.nan), "source")
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


@st.composite
def search_case(draw):
    """Terms over a random group of a random, additive-noise or coset
    channel, or of a random source, with the sense.  A coset channel's
    output is the coset of its input under a drawn selector, so every
    selector at or above that one has a zero term."""
    spec = draw_group(draw)
    rng = make_rng(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["random", "additive", "coset", "source"]))
    if kind == "source":
        joint = random_source_joint(spec, draw(st.integers(2, 5)), rng)
        return spec, source_terms(joint), "source", kind
    if kind == "random":
        chan = random_channel(spec, draw(st.integers(2, 5)), rng)
    elif kind == "additive":
        chan = random_additive_channel(spec, rng)
    else:
        theta = draw(st.sampled_from(all_reachable_thetas(spec)[:-1]))
        labels = Subgroup(spec, theta).label_indices()
        matrix = np.zeros((spec.order, labels.max() + 1))
        matrix[np.arange(spec.order), labels] = 1.0
        chan = ChannelSpec(spec, matrix)
    return spec, channel_terms(chan), "channel", kind


def sixths_case():
    """The Z32 source terms in sixths of test_pruning_margin_keeps_ties,
    which are not monotone."""
    spec = decompose([32]).spec
    sixths = (0, 1, 4, 0, 5, 0)
    return spec, dict(zip(all_reachable_thetas(spec), (k / 6 for k in sixths)))


def coset_case():
    """The channel on Z4+Z2 whose output is the coset of theta = (1, 0)."""
    spec = decompose([4, 2]).spec
    labels = Subgroup(spec, ThetaVector(spec, (1, 0))).label_indices()
    return spec, channel_terms(ChannelSpec(spec, np.eye(2)[labels]))


@example((*sixths_case(), "source", "sixths"))
@example((*coset_case(), "channel", "coset"))
@given(search_case())
def test_prefix_walk_matches_best_first_and_scan_property(case):
    # where the terms are monotone, the prefix walk reports every field the
    # best-first search and the unpruned scan report; a coset channel of a
    # selector other than the full one has a zero term, and the sixths terms
    # are not monotone, so both take the search
    spec, terms, sense, kind = case
    problems = _SupportProblems.from_mapping(spec, terms, sense)
    if kind in ("coset", "sixths"):
        assert not problems.monotone()
    expected, _ = unpruned_scan(problems)
    results = [optimize_weights(spec, terms, sense), _search(problems, False)]
    if problems.monotone():
        results.append(_search(problems, True))
    for got in results:
        for field in RateResult.__dataclass_fields__:
            assert getattr(got, field) == getattr(expected, field), field


def test_sixths_source_terms_take_the_best_first_search():
    # on Z32, {(2,1),(2,2),(2,3)} is +inf, between {(2,1),(2,2)} and the
    # full support, both at 5/3: the terms are not monotone, and the prefix
    # walk alone would stop at the infinite prefix and miss the first tie
    spec, terms = sixths_case()
    problems = _SupportProblems.from_mapping(spec, terms, "source")
    expected, _ = unpruned_scan(problems)
    assert expected.support == ((2, 1), (2, 2))
    assert optimize_weights(spec, terms, "source") == expected
    assert _search(problems, True).support != expected.support


def test_monotone_rate_call_builds_no_covering_layer(monkeypatch):
    # Z_(2^16) has 65535 covering supports; with monotone terms the call
    # solves the full support and at most one prefix, and builds none of them
    spec = decompose([2**16]).spec
    calls = []

    def counted(*args):
        calls.append(args)
        return _packing_lp(*args)

    monkeypatch.setattr(rates, "_packing_lp", counted)
    chan = random_channel(spec, 2, make_rng(16))
    result = channel_coding_rate(chan)
    assert "_prefix_layer" in vars(spec) and "_covering_layer" not in vars(spec)
    assert 1 <= len(calls) <= 2
    problems = _SupportProblems.from_mapping(spec, channel_terms(chan), "channel")
    assert problems.monotone()
    assert result == _search(problems, False)


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
    # solver
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
        for i in range(len(problems.columns)):
            n, d, c, excluded = problems[i]
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
    _, members, top = problems.spec._covering_layer
    part = top if problems.sign < 0 else 1.0 - top
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = np.where(problems.c <= INFO_ZERO_TOL, 0.0, problems.c / part)
    counted = members & ~problems.excluded
    if problems.sign < 0:
        return np.where(counted, bound, -math.inf).max(axis=1)
    return np.where(counted, bound, math.inf).min(axis=1)


@pytest.mark.parametrize("sense", ["channel", "source"])
def test_vertex_bounds_in_one_temporary(sense):
    # a deep ring has 2^14 - 1 supports over 15 selectors.  Random terms are
    # not monotone, so the rate takes the best-first search, which bounds
    # every covering support in one float array the size of top, not one per
    # operation, and solves its supports in that much memory again at most
    spec = decompose([2**14]).spec
    # every row of a single ring's selector grid is reachable
    terms = make_rng(150).random(len(spec._selector_layer[0]))
    terms[[3, 7]] = 0.0  # zero terms bound by 0
    problems = _SupportProblems(spec, terms, sense)
    assert not problems.monotone()
    _, _, top = spec._covering_layer  # the plan is built before tracing
    tracemalloc.start()
    try:
        result = _optimize(problems)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(covering_bounds(problems), plain_vertex_bounds(problems))
    assert peak <= 1.5 * top.nbytes
    assert result.value == _search(problems, False).value
