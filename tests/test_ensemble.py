import itertools
import math
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from groupcodes import ChannelSpec, GroupSpec, Subgroup, ThetaVector, decompose
from groupcodes import ensemble
from groupcodes.ensemble import (
    HomomorphismTable,
    InputGroup,
    apply_hom,
    brute_theta_set,
    congruence_solutions_from,
    constraint_violations,
    count_t_theta,
    encode,
    lemma_suite,
    mc_channel_error,
    pair_theta,
    sample_hom,
    solve_congruence,
    t_theta_bound,
    theta_census,
    verify_pairwise_law,
)
from groupcodes.rates import all_reachable_thetas, enumerate_theta_set

from conftest import additive_noise_channel, make_rng


def ig_of(orders, counts_map) -> InputGroup:
    spec = decompose(orders).spec
    return InputGroup.from_mapping(spec, counts_map)


def generator_choices(ig: InputGroup, n: int, fixed_zero=()) -> list[list[int]]:
    """Admissible residues per (component, coordinate, target ring), in that
    order: p^(r-s)+ Z_{p^r} for the same prime, zero across primes and at the
    ``fixed_zero`` positions."""
    return [
        [0]
        if p != q or (j, i, ring) in fixed_zero
        else [p ** max(r - s, 0) * v for v in range(p ** min(r, s))]
        for j, (q, s, _) in enumerate(ig.spec.rings)
        for i in range(n)
        for ring, (p, r, _m) in enumerate(ig.group.rings)
    ]


def pair_theta_oracle(ig: InputGroup, a, b) -> ThetaVector:
    """The selector of an input pair, one component at a time in GroupElement
    arithmetic: per level (p, r), the least |r-s|^+ plus the q-adic depth of
    the component difference over components of prime p, at most r."""
    diff = ig.element(b) - ig.element(a)
    comps = []
    for p, r in ig.group.ring_levels:
        best = r
        for (q, s, _), d in zip(ig.spec.rings, diff.residues):
            if q == p:
                best = min(best, max(r - s, 0) + ensemble._depth(d, q, s))
        comps.append(best)
    return ThetaVector(ig.group, tuple(comps))


def census_oracle(ig: InputGroup, a) -> dict:
    return dict(Counter(pair_theta_oracle(ig, a, b) for b in ig.spec.elements()))


def joint_law_oracle(ig: InputGroup, n: int, a, b, fixed_zero=()) -> dict:
    """The pairwise law by its full joint route, in GroupElement arithmetic:
    tally (phi(a) + D, phi(b) + D) over every generator table and every
    dither word D, then take the exact TV to the uniform law on
    {(u, v) : v - u in H_theta^n} and the mass off that support."""
    g_spec = ig.group
    a, b = ig.element(a), ig.element(b)
    theta = pair_theta_oracle(ig, a, b)
    h = Subgroup(g_spec, theta)
    c = len(g_spec.rings)
    words = list(itertools.product(g_spec.elements(), repeat=n))

    def image(x, gens):
        out = [g_spec.zero()] * n
        for value, row in zip(x.residues, gens):
            out = [acc + value * g for acc, g in zip(out, row)]
        return out

    counts = Counter()
    for flat in itertools.product(*generator_choices(ig, n, fixed_zero)):
        gens = [
            [g_spec.element(flat[(j * n + i) * c : (j * n + i + 1) * c])
             for i in range(n)]
            for j in range(ig.total)
        ]
        xa, xb = image(a, gens), image(b, gens)
        for dither in words:
            u = tuple(x + d for x, d in zip(xa, dither))
            v = tuple(x + d for x, d in zip(xb, dither))
            counts[u, v] += 1
    total = sum(counts.values())
    support_cells = g_spec.order**n * h.order**n
    expected = Fraction(1, support_cells)
    off_mass = tv = Fraction(0)
    seen = 0
    for (u, v), count in counts.items():
        prob = Fraction(count, total)
        if all(vi - ui in h for ui, vi in zip(u, v)):
            seen += 1
            tv += abs(prob - expected)
        else:
            off_mass += prob
    tv = (tv + (support_cells - seen) * expected) / 2
    return {
        "theta": theta,
        "mode": "exhaustive",
        "support_cells": support_cells,
        "off_support_mass": float(off_mass),
        "tv_distance": float(tv),
        "passed": off_mass == 0 and tv == 0,
    }


def assert_matches_oracle(ig: InputGroup, n: int, a, b, fixed_zero=()) -> None:
    want = joint_law_oracle(ig, n, a, b, fixed_zero)
    rep = verify_pairwise_law(ig, n, a, b)
    assert {key: getattr(rep, key) for key in want} == want, (ig, n, a, b)


ALL_TABLES = ensemble._all_tables


def drop_tables(fixed_zero):
    """An enumerator of the tables whose images are zero at ``fixed_zero``:
    part of the hom space, dropped."""

    def all_tables(ig, n):
        tables = ALL_TABLES(ig, n)
        keep = np.ones(len(tables), dtype=bool)
        for j, i, ring in fixed_zero:
            keep &= tables[:, j, i, ring] == 0
        return tables[keep]

    return all_tables


# -- input groups -------------------------------------------------------------


def test_input_group_structure():
    ig = ig_of([8], {(2, 2): 1, (2, 3): 2})
    assert ig.spec.rings == ((2, 2, 1), (2, 3, 1), (2, 3, 2))
    assert ig.size == 4 * 8 * 8
    assert ig.total == 3
    assert ig.support == ((2, 2), (2, 3))
    w = ig.weights()
    assert w[(2, 2)] * 3 == 1 and w[(2, 3)] * 3 == 2


def test_input_group_validation():
    spec = decompose([8]).spec
    with pytest.raises(ValueError):
        InputGroup(spec, (0, 0, 0))
    with pytest.raises(ValueError):
        InputGroup(spec, (1, -1, 0))


# -- sampling -----------------------------------------------------------------


def test_sample_hom_deterministic():
    ig = ig_of([4], {(2, 2): 1})
    t1 = sample_hom(ig, 3, seed=42)
    t2 = sample_hom(ig, 3, seed=42)
    assert t1.images == t2.images and t1.dither == t2.dither
    t3 = sample_hom(ig, 3, seed=43)
    assert (t3.images, t3.dither) != (t1.images, t1.dither)


def test_sample_hom_supports():
    # full-exponent slot draws from the whole ring, the shallow slot from the
    # doubled subring, and cross-prime components stay zero
    ig44 = ig_of([4], {(2, 2): 1})
    seen = {sample_hom(ig44, 1, seed=s).images[0][0].residues[0] for s in range(120)}
    assert seen == {0, 1, 2, 3}

    ig42 = ig_of([4], {(2, 1): 1})
    seen = {sample_hom(ig42, 1, seed=s).images[0][0].residues[0] for s in range(60)}
    assert seen == {0, 2}

    ig_cross = ig_of([4, 3], {(3, 1): 1})
    for s in range(40):
        g = sample_hom(ig_cross, 1, seed=s).images[0][0]
        assert g.residues[0] == 0  # the Z_4 component of a Z_3 generator image


def test_table_constraints_enforced():
    ig = ig_of([4], {(2, 1): 1})
    spec = ig.group
    good = HomomorphismTable(ig, 1, ((spec.element([2]),),), (spec.zero(),))
    assert constraint_violations(good) == []
    with pytest.raises(ValueError):
        HomomorphismTable(ig, 1, ((spec.element([1]),),), (spec.zero(),))


def test_constraints_hold_for_many_samples():
    ig = ig_of([2, 4], {(2, 1): 1, (2, 2): 1})
    for s in range(1000):
        assert constraint_violations(sample_hom(ig, 1, seed=s)) == []


# -- applying -----------------------------------------------------------------


def test_apply_hom_zero_and_law():
    ig = ig_of([2, 4], {(2, 1): 1, (2, 2): 1})
    table = sample_hom(ig, 2, seed=7)
    zero_image = apply_hom(table, ig.spec.zero())
    assert all(x.is_zero() for x in zero_image)
    elements = list(ig.spec.elements())
    for s in range(100):
        table = sample_hom(ig, 2, seed=s)
        for a, b in itertools.product(elements, elements):
            lhs = apply_hom(table, a + b)
            rhs = tuple(
                x + y for x, y in zip(apply_hom(table, a), apply_hom(table, b))
            )
            assert lhs == rhs


def test_apply_hom_hand_value():
    # doubling generator image: input 1 lands on 2
    ig = ig_of([4], {(2, 1): 1})
    spec = ig.group
    table = HomomorphismTable(ig, 1, ((spec.element([2]),),), (spec.zero(),))
    assert apply_hom(table, [1])[0].residues == (2,)
    assert encode(table, [1])[0].residues == (2,)


def test_apply_hom_rejects_overflowing_moduli():
    spec = GroupSpec(((2, 32, 1),))
    ig = InputGroup.from_mapping(spec, {(2, 32): 1})
    table = HomomorphismTable(ig, 1, ((spec.element([2**32 - 1]),),), (spec.zero(),))
    with pytest.raises(ValueError):
        apply_hom(table, [2**32 - 1])


# -- pair selectors -----------------------------------------------------------


def test_pair_theta_same_element_is_full():
    ig = ig_of([8], {(2, 2): 1, (2, 3): 1})
    for a in ig.spec.elements():
        assert pair_theta(ig, a, a).is_full()


def test_pair_theta_depth_examples():
    ig = ig_of([8], {(2, 3): 1})
    assert pair_theta(ig, [0], [4]).components == (2,)
    ig2 = ig_of([8], {(2, 1): 1, (2, 3): 1})
    assert pair_theta(ig2, [0, 0], [1, 2]).components == (1,)


def test_census_z8_counts():
    ig = ig_of([8], {(2, 3): 1})
    census = {t.components[0]: c for t, c in theta_census(ig).items()}
    assert census == {0: 4, 1: 2, 2: 1, 3: 1}
    for t, c in theta_census(ig).items():
        assert count_t_theta(ig, ig.spec.zero(), t) == c


def test_census_independent_of_base_point():
    ig = ig_of([8], {(2, 2): 1, (2, 3): 1})
    censuses = {
        tuple(sorted((t.components, c) for t, c in theta_census(ig, a).items()))
        for a in ig.spec.elements()
    }
    assert len(censuses) == 1


def test_census_bound_z8_pattern():
    # paper-style weights on the two top slots of Z_8
    ig = ig_of([8], {(2, 2): 1, (2, 3): 1})
    census = theta_census(ig)
    expected_bounds = {
        (0,): 2 ** (2 + 3),  # free everywhere
        (1,): 2 ** (2 + 2),  # only the deep slot pays one level
        (2,): 2 ** (1 + 1),
        (3,): 2 ** (0 + 0),
    }
    for t, count in census.items():
        bound = t_theta_bound(ig, t)
        assert bound == expected_bounds[t.components]
        assert count <= bound
    # the full selector class is exactly the diagonal
    assert census[ThetaVector(ig.group, (3,))] == 1


@pytest.mark.parametrize(
    "orders,counts",
    [
        ([8], {(2, 2): 1, (2, 3): 1}),
        ([8], {(2, 1): 1, (2, 2): 1, (2, 3): 1}),
        ([4, 3], {(2, 1): 1, (2, 2): 1, (3, 1): 1}),
        ([2, 4], {(2, 1): 1, (2, 2): 1}),
        ([2, 4], {(2, 2): 2}),
    ],
)
def test_brute_theta_matches_enumeration(orders, counts):
    ig = ig_of(orders, counts)
    census = theta_census(ig)
    for t, count in census.items():
        assert count <= t_theta_bound(ig, t)
    assert brute_theta_set(ig) == enumerate_theta_set(ig.group, ig.support)


def test_theta_set_depends_only_on_support():
    # two different count vectors with the same support produce the same set
    a = brute_theta_set(ig_of([8], {(2, 2): 1, (2, 3): 1}))
    b = brute_theta_set(ig_of([8], {(2, 2): 2, (2, 3): 3}))
    assert a == b


def census_configs(max_size: int = 512):
    """(orders, counts) over small groups whose input group has at most
    max_size elements."""
    for orders in ([2], [3], [4], [8], [9], [2, 2], [2, 4], [4, 3], [8, 9]):
        spec = decompose(orders).spec
        for counts in itertools.product(range(3), repeat=len(spec.weight_slots)):
            if sum(counts) and InputGroup(spec, counts).size <= max_size:
                yield orders, counts


@given(st.data())
def test_census_matches_oracle_property(data):
    orders, counts = data.draw(st.sampled_from(list(census_configs())))
    ig = InputGroup(decompose(orders).spec, counts)
    a, b = (
        data.draw(st.tuples(*[st.integers(0, m - 1) for m in ig.spec.moduli]))
        for _ in range(2)
    )
    census = census_oracle(ig, a)
    assert theta_census(ig, a) == census
    assert pair_theta(ig, a, b) == pair_theta_oracle(ig, a, b)
    # selectors of the group outside the support's census count 0
    for theta in all_reachable_thetas(ig.group):
        assert count_t_theta(ig, a, theta) == census.get(theta, 0)


# -- pairwise law -------------------------------------------------------------


def test_pairwise_law_z4_example():
    ig = ig_of([4], {(2, 2): 1})
    rep = verify_pairwise_law(ig, 1, [0], [2])
    assert rep.mode == "exhaustive"
    assert rep.theta.components == (1,)
    assert rep.support_cells == 8  # pairs with difference in {0, 2}
    assert rep.passed and rep.off_support_mass == 0.0 and rep.tv_distance == 0.0


def test_pairwise_law_diagonal():
    ig = ig_of([4], {(2, 2): 1})
    a = ig.spec.element([3])
    rep = verify_pairwise_law(ig, 1, a, a)
    assert rep.theta.is_full()
    assert rep.support_cells == 4  # the diagonal, uniform 1/|G|
    assert rep.passed


def test_pairwise_law_shallow_generator():
    ig = ig_of([4], {(2, 1): 1})
    rep = verify_pairwise_law(ig, 1, [0], [1])
    assert rep.mode == "exhaustive"
    assert rep.theta.components == (1,)
    assert rep.passed


def test_pairwise_law_exhaustive_many_configs():
    for orders, n in ([2], 2), ([4], 2), ([2, 4], 1), ([4, 3], 1):
        spec = decompose(orders).spec
        for slot in spec.weight_slots:
            ig = InputGroup.from_mapping(spec, {slot: 1})
            for a, b in itertools.product(ig.spec.elements(), repeat=2):
                rep = verify_pairwise_law(ig, n, a, b)
                assert rep.mode == "exhaustive"
                assert rep.passed, (orders, n, slot, a, b)


def test_pairwise_law_sampled_mode():
    ig = ig_of([8], {(2, 3): 2})
    rep = verify_pairwise_law(ig, 2, [0, 0], [4, 4], samples=4096, seed=3)
    assert rep.mode == "sampled"
    assert rep.theta.components == (2,)
    assert rep.off_support_mass == 0.0
    assert rep.passed


@pytest.mark.parametrize(
    "orders,n",
    [([2], 1), ([3], 1), ([4], 1), ([2, 2], 1), ([4, 3], 1), ([2], 2), ([4], 2)],
)
def test_pairwise_law_matches_joint_oracle(orders, n):
    spec = decompose(orders).spec
    for slot in spec.weight_slots:
        ig = InputGroup.from_mapping(spec, {slot: 1})
        for a, b in itertools.product(ig.spec.elements(), repeat=2):
            assert_matches_oracle(ig, n, a, b)


def test_pairwise_law_detects_dropped_tables(monkeypatch):
    # generator residue 0 only: phi(b - a) stays 0, far from uniform on Z_4
    ig = ig_of([4], {(2, 2): 1})
    monkeypatch.setattr(ensemble, "_all_tables", drop_tables([(0, 0, 0)]))
    rep = verify_pairwise_law(ig, 1, [0], [1])
    assert rep.mode == "exhaustive" and rep.outcomes == 1
    assert not rep.passed and rep.tv_distance == 0.75
    assert_matches_oracle(ig, 1, [0], [1], fixed_zero=[(0, 0, 0)])
    # the Z_4 ring of Z_2 + Z_4 held at 0: phi(2) = 0 on the two cells of
    # H_theta, TV 1/2, matching the joint route
    ig2 = ig_of([2, 4], {(2, 2): 1})
    monkeypatch.setattr(ensemble, "_all_tables", drop_tables([(0, 0, 1)]))
    rep = verify_pairwise_law(ig2, 1, [0], [2])
    assert not rep.passed and rep.tv_distance == 0.5
    assert_matches_oracle(ig2, 1, [0], [2], fixed_zero=[(0, 0, 1)])


def test_pairwise_law_sampled_detects_dropped_tables(monkeypatch):
    ig = ig_of([4], {(2, 1): 1, (2, 2): 1})
    sample = ensemble._sample_tables

    def without_last_generator(ig, n, rng, size=()):
        tables = sample(ig, n, rng, size)
        tables[..., -1, :, :] = 0
        return tables

    monkeypatch.setattr(ensemble, "_sample_tables", without_last_generator)
    rep = verify_pairwise_law(ig, 4, [0, 0], [1, 1], seed=4)
    assert rep.mode == "sampled"
    assert not rep.passed and rep.tv_distance >= rep.threshold


def test_pairwise_law_detects_off_support_mass(monkeypatch):
    # a selector one level too deep puts phi(b - a) outside H_theta
    ig = ig_of([4], {(2, 2): 1})
    full = lambda ig, a, b: ThetaVector.full(ig.group)
    monkeypatch.setattr(ensemble, "pair_theta", full)
    rep = verify_pairwise_law(ig, 1, [0], [1])
    assert not rep.passed and rep.off_support_mass == 0.75


def test_pairwise_law_checks_table_constraints(monkeypatch):
    ig = ig_of([4], {(2, 1): 1})  # images must lie in 2 Z_4
    shift = lambda tables: (tables + 1) % 4
    all_tables, sample = ensemble._all_tables, ensemble._sample_tables
    monkeypatch.setattr(ensemble, "_all_tables", lambda ig, n: shift(all_tables(ig, n)))
    with pytest.raises(ValueError):
        verify_pairwise_law(ig, 1, [0], [1])
    monkeypatch.setattr(
        ensemble, "_sample_tables", lambda *args, **kw: shift(sample(*args, **kw))
    )
    with pytest.raises(ValueError):
        verify_pairwise_law(ig_of([4], {(2, 1): 1, (2, 2): 1}), 4, [0, 0], [0, 1])
    with pytest.raises(ValueError):
        mc_channel_error(ig, 1, ChannelSpec(ig.group, np.eye(4)), trials=1, seed=0)


def test_pairwise_law_sampled_threshold_not_vacuous():
    # 256 cells of H_theta^4 = Z_4^4: threshold 3 sqrt(256 / 4096) = 0.75
    ig = ig_of([4], {(2, 1): 1, (2, 2): 1})
    rep = verify_pairwise_law(ig, 4, [1, 2], [1, 3], samples=4096, seed=7)
    assert rep.mode == "sampled" and rep.theta.is_zero()
    assert rep.threshold < 1
    assert rep.passed


def small_configs(max_states: int = 1024):
    """(orders, counts, n) whose tables times dither words number at most
    max_states, so the joint route stays cheap."""
    for orders in ([2], [3], [4], [8], [2, 2], [2, 4], [4, 3]):
        spec = decompose(orders).spec
        for n in (1, 2):
            for counts in itertools.product(range(3), repeat=len(spec.weight_slots)):
                if not sum(counts):
                    continue
                choices = generator_choices(InputGroup(spec, counts), n)
                if math.prod(map(len, choices)) * spec.order**n <= max_states:
                    yield orders, counts, n


@given(st.data())
def test_reduced_law_matches_oracle_property(data):
    orders, counts, n = data.draw(st.sampled_from(list(small_configs())))
    ig = InputGroup(decompose(orders).spec, counts)
    a, b = (
        data.draw(st.tuples(*[st.integers(0, m - 1) for m in ig.spec.moduli]))
        for _ in range(2)
    )
    cells = [
        (j, i, ring)
        for j in range(ig.total)
        for i in range(n)
        for ring in range(len(ig.group.rings))
    ]
    fixed_zero = data.draw(st.lists(st.sampled_from(cells), max_size=2, unique=True))
    with mock.patch.object(ensemble, "_all_tables", drop_tables(fixed_zero)):
        assert_matches_oracle(ig, n, a, b, fixed_zero)


def test_pairwise_law_cap():
    # the cap bounds the |H_theta|^n cells of the tally, not |G|^(2n): on Z_8
    # at n = 3 the pair 0, 4 tallies 2^3 cells, sampled since the tables and
    # dither words number 8^6
    rep = verify_pairwise_law(ig_of([8], {(2, 3): 1}), 3, [0], [4])
    assert rep.mode == "sampled" and rep.theta.components == (2,)
    assert rep.threshold < 1 and rep.passed
    with pytest.raises(ValueError):
        verify_pairwise_law(ig_of([2], {(2, 1): 1}), 17, [0], [1])  # 2^17 cells


# -- congruence solver --------------------------------------------------------


def test_congruence_examples():
    assert solve_congruence(2, 3, 2, 2, 4) == (2, 6)
    assert solve_congruence(2, 3, 3, 1, 5) == (5,)  # unit coefficient
    assert solve_congruence(2, 3, 2, 2, 1) == ()
    with pytest.raises(ValueError):
        solve_congruence(2, 3, 2, 0, 4)
    with pytest.raises(ValueError):
        solve_congruence(2, 3, 2, 4, 0)  # 4 = 0 in Z_4


def test_congruence_exhaustive_small_primes():
    for p in (2, 3):
        for r in range(1, 4):
            mod = p**r
            for s in range(1, r + 1):
                for a in range(1, p**s):
                    for b in range(mod):
                        brute = tuple(
                            x for x in range(mod) if (a * x) % mod == b
                        )
                        assert solve_congruence(p, r, s, a, b) == brute


def test_congruence_representation_invariance():
    # alternate alpha and beta representatives give the same solution set
    p, r, s, a, b = 2, 3, 2, 2, 4
    theta_hat, theta = 1, 2
    base = solve_congruence(p, r, s, a, b)
    alpha0, beta0 = a // p**theta_hat, b // p**theta
    for i in range(p**theta_hat):
        for j in range(p**theta):
            alpha = alpha0 + i * p ** (r - theta_hat)
            beta = beta0 + j * p ** (r - theta)
            got = congruence_solutions_from(p, r, theta_hat, theta, alpha % p**r, beta % p**r)
            assert got == base


# -- Monte Carlo --------------------------------------------------------------


def mc_oracle(ig: InputGroup, n: int, chan: ChannelSpec, trials: int, seed: int):
    """The Monte Carlo simulation one trial at a time: per trial its own
    Philox stream, the table and dither, the message, one ``choice`` per
    coordinate for the channel output, then ML decoding of that trial."""
    moduli = ig.group.moduli
    messages = ensemble._grid(ig.spec.moduli)
    w = chan.matrix
    ny = chan.output_size
    errors = 0
    injective_trials = 0
    injective_errors = 0
    for child in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.Generator(np.random.Philox(child))
        images, dither = ensemble._sample_table(ig, n, rng)
        codewords = ensemble._encode(
            messages, ensemble._checked(ig, images), dither, moduli
        )
        codebook = np.ravel_multi_index(np.moveaxis(codewords, -1, 0), moduli)
        injective = len(np.unique(codebook, axis=0)) == len(messages)
        m_idx = int(rng.integers(0, len(messages)))
        y = np.array(
            [rng.choice(ny, p=w[xi]) for xi in codebook[m_idx]], dtype=np.intp
        )
        likelihood = w[codebook, y].prod(axis=1)
        decoded = int(np.argmax(likelihood))
        wrong = decoded != m_idx
        errors += wrong
        if injective:
            injective_trials += 1
            injective_errors += wrong
    return ensemble.MonteCarloReport(
        trials, errors, seed, ig.rate_bits(n), injective_trials, injective_errors
    )


@st.composite
def mc_case(draw):
    """A configuration within the simulation cap, with a random, identity or
    uniform channel (the last two make likelihood ties)."""
    orders = draw(st.sampled_from([[2], [3], [4], [8], [9], [2, 2], [4, 3]]))
    spec = decompose(orders).spec
    slots = len(spec.weight_slots)
    counts = draw(
        st.lists(st.integers(0, 3), min_size=slots, max_size=slots).filter(any)
    )
    ig = InputGroup(spec, tuple(counts))
    n = draw(st.integers(1, 3))
    assume(ig.size * spec.order**n <= ensemble.SIZE_CAP)
    kind = draw(st.sampled_from(["random", "identity", "uniform"]))
    ny = spec.order if kind == "identity" else draw(st.integers(1, 5))
    if kind == "identity":
        matrix = np.eye(ny)
    elif kind == "uniform":
        matrix = np.full((spec.order, ny), 1 / ny)
    else:
        rng = make_rng(draw(st.integers(0, 2**32)))
        matrix = rng.dirichlet(np.ones(ny), size=spec.order)
        matrix[rng.random(matrix.shape) < 0.3] = 0  # zero entries, even rows
        matrix[:, 0] += matrix.sum(axis=1) == 0
        matrix /= matrix.sum(axis=1, keepdims=True)
    chan = ChannelSpec(spec, matrix)
    return ig, n, chan, draw(st.integers(1, 30)), draw(st.integers(0, 2**64 - 1))


@given(mc_case())
def test_mc_matches_oracle_property(case):
    assert mc_channel_error(*case) == mc_oracle(*case)


def test_mc_matches_oracle_over_blocks():
    # 2^10 messages of 10 coordinates: 102 trials per block, three blocks
    spec = decompose([2]).spec
    ig = InputGroup(spec, (10,))
    n, trials = 10, 250
    assert 2 * ensemble.SIZE_CAP // (ig.size * n) < trials
    chan = ChannelSpec(spec, [[0.9, 0.1], [0.1, 0.9]])
    rep = mc_channel_error(ig, n, chan, trials, seed=13)
    assert rep == mc_oracle(ig, n, chan, trials, seed=13)
    assert 0 < rep.injective_trials < trials


@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**64 - 1, 2**130 + 17])
@pytest.mark.parametrize("first,count", [(0, 5), (3, 4)])
def test_child_keys_match_spawn(seed, first, count):
    children = np.random.SeedSequence(seed).spawn(first + count)[first:]
    expected = [child.generate_state(2, np.uint64) for child in children]
    got = ensemble._child_keys(np.random.SeedSequence(seed), first, count)
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("m", [1, 6, 11])
def test_philox_words_match_random_raw(m):
    keys = ensemble._child_keys(np.random.SeedSequence(5), 0, 3)
    raw = np.array([np.random.Philox(key=key).random_raw(m + 8) for key in keys])
    blocks = -(-m // 4)
    np.testing.assert_array_equal(ensemble._philox(keys, 1, blocks)[:, :m], raw[:, :m])
    # counter 3 holds words 8 to 11
    np.testing.assert_array_equal(ensemble._philox(keys, 3, blocks)[:, :m], raw[:, 8:])


@pytest.mark.parametrize(
    "bounds,n",
    [
        ([5, 2, 9], 4),  # odd: random starts past the kept high half
        ([3, 4, 2**32, 7, 6, 2], 3),
        # near 2**31 about half the words are rejected, shifting later draws
        ([2**31 + 1, 2**31 + 3, 3 * 2**30 + 5, 2**32 - 1, 2**31 + 7], 5),
    ],
)
def test_streams_match_generator(bounds, n):
    keys = ensemble._child_keys(np.random.SeedSequence(11), 0, 40)
    streams = ensemble._PhiloxStreams(keys)
    size = (len(keys), len(bounds))
    got = [streams.integers(0, np.array(bounds), size), streams.random((len(keys), n))]
    got.append(streams.integers(0, np.array(bounds[:2]), (len(keys), 2)))
    for b, key in enumerate(keys):
        rng = np.random.Generator(np.random.Philox(key=key))
        assert got[0][b].tolist() == [rng.integers(0, bound) for bound in bounds]
        assert got[1][b].tolist() == rng.random(n).tolist()
        assert got[2][b].tolist() == [rng.integers(0, bound) for bound in bounds[:2]]
    if bounds[0] > 2**31:  # without rejections: 3 words, n, then 1
        assert streams._next.max() > 3 + n + 1


def test_mc_seed_contract():
    ig = ig_of([4, 3], {(2, 1): 1, (3, 1): 1})
    chan = additive_noise_channel(ig.group, [0.7] + [0.3 / 11] * 11)
    for seed in (np.int64(3), 2**70):
        case = (ig, 2, chan, 20, seed)
        assert mc_channel_error(*case) == mc_oracle(*case)
    with pytest.raises(ValueError):
        mc_channel_error(ig, 2, chan, 20, -1)
    with pytest.raises(TypeError):
        mc_channel_error(ig, 2, chan, 20, 1.5)
    with pytest.raises(ValueError, match="trials"):
        mc_channel_error(ig, 2, chan, 2**32 + 1, 0)


def test_mc_identity_channel_injective_errors():
    spec = decompose([4]).spec
    chan = ChannelSpec(spec, np.eye(4))
    ig = InputGroup.from_mapping(spec, {(2, 2): 1})
    rep = mc_channel_error(ig, 1, chan, trials=300, seed=5)
    assert rep.injective_trials > 0
    assert rep.injective_errors == 0


def test_mc_uniform_noise_is_blind_guessing():
    spec = decompose([4]).spec
    chan = ChannelSpec(spec, np.full((4, 3), 1 / 3))
    ig = InputGroup.from_mapping(spec, {(2, 2): 1})
    trials = 400
    rep = mc_channel_error(ig, 1, chan, trials=trials, seed=8)
    p = 1 - 1 / ig.size
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(rep.error_rate - p) <= 3 * sigma


def test_mc_error_decreases_with_smaller_codebooks():
    spec = decompose([4]).spec
    chan = additive_noise_channel(spec, [0.9, 0.05, 0.0, 0.05])
    trials = 500
    rates = []
    for k22 in (3, 2, 1):
        ig = InputGroup.from_mapping(spec, {(2, 2): k22})
        rep = mc_channel_error(ig, 4, chan, trials=trials, seed=11)
        rates.append(rep.error_rate)
    slack = 3 * math.sqrt(0.25 / trials)
    assert rates[1] <= rates[0] + slack
    assert rates[2] <= rates[1] + slack


def test_mc_deterministic():
    spec = decompose([4]).spec
    chan = additive_noise_channel(spec, [0.8, 0.1, 0.05, 0.05])
    ig = InputGroup.from_mapping(spec, {(2, 1): 1, (2, 2): 1})
    a = mc_channel_error(ig, 2, chan, trials=100, seed=21)
    b = mc_channel_error(ig, 2, chan, trials=100, seed=21)
    assert a == b


@pytest.mark.parametrize(
    "orders,counts,n,noise,seed,trials,expected",
    [
        ([4, 3], {(2, 1): 1, (3, 1): 1}, 2,
         [0.7, 0.1, 0.05, 0.05, 0.02, 0.02, 0.02, 0.01, 0.01, 0.01, 0.005, 0.005],
         3, 50, (19, 40, 10)),
        ([8], {(2, 2): 1, (2, 3): 1}, 2, [0.75, 0.1, 0.05, 0, 0, 0, 0.05, 0.05],
         17, 60, (33, 26, 10)),
        ([2, 2], {(2, 1): 3}, 2, [0.85, 0.05, 0.05, 0.05], 29, 60, (24, 32, 8)),
    ],
)
def test_mc_reports_pinned(orders, counts, n, noise, seed, trials, expected):
    # (errors, injective trials, injective errors) recorded with the earlier
    # per-element implementation: the seeded draws must not move
    spec = decompose(orders).spec
    ig = InputGroup.from_mapping(spec, counts)
    chan = additive_noise_channel(spec, noise)
    rep = mc_channel_error(ig, n, chan, trials=trials, seed=seed)
    assert (rep.errors, rep.injective_trials, rep.injective_errors) == expected


@pytest.mark.parametrize("n", [0, -1])
def test_blocklength_validated(n):
    ig = ig_of([4], {(2, 2): 1})
    chan = ChannelSpec(ig.group, np.eye(4))
    calls = [
        lambda: sample_hom(ig, n, 0),
        lambda: mc_channel_error(ig, n, chan, trials=5, seed=0),
        lambda: verify_pairwise_law(ig, n, [0], [1]),
        lambda: lemma_suite(ig, n),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="blocklength must be >= 1"):
            call()


def test_mc_cap():
    spec = decompose([8]).spec
    chan = ChannelSpec(spec, np.eye(8))
    ig = InputGroup.from_mapping(spec, {(2, 3): 3})
    with pytest.raises(ValueError):
        mc_channel_error(ig, 6, chan, trials=10, seed=0)


# -- suite --------------------------------------------------------------------


def test_lemma_suite_passes():
    ig = ig_of([4], {(2, 2): 1})
    checks = lemma_suite(ig, 1, samples=60, seed=2)
    assert all(c.passed for c in checks)
    names = [c.name for c in checks]
    assert names == [
        "generator-constraints",
        "homomorphism-law",
        "pairwise-joint-law",
        "census-bound",
        "theta-set-equality",
        "congruence-solver",
    ]
