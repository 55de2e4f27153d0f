import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

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
from groupcodes.groups import _min_depths
from groupcodes.rates import (
    INFO_ZERO_TOL,
    TIE_TOL,
    SolverError,
    _covering_supports,
    _packing_lp,
    _result,
    _solve_support,
    _SupportProblems,
    _Table,
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
    for support in _covering_supports(spec):
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
        m = tuple(_min_depths(spec.ring_levels, support, theta).tolist())
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


@pytest.mark.parametrize("orders", [[4], [8], [9]])
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
    bounds = problems.vertex_bounds()
    solved = {}
    for i in range(len(problems.table.supports)):
        if bounds[i] < math.inf:
            solved[i] = _solve_support(*problems[i][1], problems.sense)
    values = [value for value, _ in solved.values()]
    opt = min(values) if problems.sense == "source" else max(values)
    first = min(
        i
        for i, (value, _) in solved.items()
        if value == opt or abs(value - opt) <= 1e-12 * abs(opt)
    )
    return _result(problems, first, solved[first][1]), solved


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
    problems = _SupportProblems(_Table(spec), terms, sense)
    expected, solved = unpruned_scan(problems)
    got = optimize_weights(spec, terms, sense)
    for field in RateResult.__dataclass_fields__:
        assert getattr(got, field) == getattr(expected, field), field
    # the channel bound is an upper bound, the source bound a lower one
    bounds = problems.sign * problems.vertex_bounds()
    for i, (value, _) in solved.items():
        assert bounds[i] >= problems.sign * value - 1e-12 * value
        if len(problems.table.supports[i]) == 1:
            # the face of a single slot is one point, where the bound is met
            assert abs(bounds[i] - problems.sign * value) <= 1e-12 * value


@given(channel_case())
def test_pruned_channel_optimum_matches_unpruned_scan_property(case):
    assert_matches_unpruned_scan(*case, "channel")


@given(source_case())
def test_pruned_source_optimum_matches_unpruned_scan_property(case):
    assert_matches_unpruned_scan(*case, "source")


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


def test_channel_visits_supports_best_first(monkeypatch):
    # supports are solved by vertex bound, highest first, equal bounds in
    # lexicographic order, until a bound falls below the incumbent
    spec = decompose([64, 81]).spec
    terms = channel_terms(random_channel(spec, 4, make_rng(3)))
    problems = _SupportProblems(_Table(spec), terms, "channel")
    bounds = problems.vertex_bounds()
    visited = []
    getitem = _SupportProblems.__getitem__

    def record(self, i):
        visited.append(i)
        return getitem(self, i)

    monkeypatch.setattr(_SupportProblems, "__getitem__", record)
    result = optimize_weights(spec, terms, "channel")
    *visited, winner = visited  # the last slice builds the result
    order = sorted(range(len(bounds)), key=lambda i: (-bounds[i], i))
    assert visited == order[: len(visited)]
    assert problems.table.supports[winner] == result.support
    assert 0 < len(visited) < len(bounds)
    assert all(bounds[i] < result.value * (1 - TIE_TOL) for i in order[len(visited) :])


def test_source_visits_supports_best_first(monkeypatch):
    # supports are solved by vertex bound, lowest first, equal bounds in
    # lexicographic order, until a bound rises above the incumbent; the
    # supports with an infinite bound are never solved
    spec = decompose([64, 81]).spec
    terms = source_terms(random_source_joint(spec, 4, make_rng(3)))
    problems = _SupportProblems(_Table(spec), terms, "source")
    bounds = problems.vertex_bounds()
    visited = []
    getitem = _SupportProblems.__getitem__

    def record(self, i):
        visited.append(i)
        return getitem(self, i)

    monkeypatch.setattr(_SupportProblems, "__getitem__", record)
    result = optimize_weights(spec, terms, "source")
    *visited, winner = visited  # the last slice builds the result
    order = sorted(range(len(bounds)), key=lambda i: (bounds[i], i))
    assert visited == order[: len(visited)]
    assert problems.table.supports[winner] == result.support
    assert 0 < len(visited) < len(bounds)
    assert all(bounds[i] < math.inf for i in visited)
    assert all(bounds[i] > result.value * (1 + TIE_TOL) for i in order[len(visited) :])


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
    table = _Table(spec)
    problems = _SupportProblems(table, {th: 1.0 for th in table.thetas}, "source")
    full = table.supports.index(tuple(sorted(spec.weight_slots)))
    assert problems.vertex_bounds()[full] < math.inf


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


def test_packing_lp_raises_when_unbounded():
    # max x subject to -x <= 1
    with pytest.raises(SolverError, match="unbounded packing LP"):
        _packing_lp(np.array([[-1.0]]), np.array([1.0]), np.array([1.0]))


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
        problems = _SupportProblems(_Table(spec), terms, sense)
        for i in range(len(problems.table.supports)):
            _, (n, d, c, excluded) = problems[i]
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
