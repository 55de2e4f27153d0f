import itertools
import math
import re
import sys
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from groupcodes import ChannelSpec, GroupSpec, Subgroup, ThetaVector, decompose
from groupcodes import cli, ensemble
from groupcodes.ensemble import (
    HomomorphismTable,
    InputGroup,
    apply_hom,
    constraint_violations,
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
from groupcodes.groups import _min_depths
from groupcodes.rates import all_reachable_thetas, enumerate_theta_set, grid_size

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


def depth_oracle(value: int, q: int, s: int) -> int:
    """q-adic depth of a residue in Z_{q^s} by repeated division; the zero
    residue has depth s."""
    d = 0
    while d < s and value % q == 0:
        value //= q
        d += 1
    return d


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
                best = min(best, max(r - s, 0) + depth_oracle(d, q, s))
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
            out = [
                acc + g_spec.element([value * v for v in g.residues])
                for acc, g in zip(out, row)
            ]
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


def test_input_group_validation():
    spec = decompose([8]).spec
    with pytest.raises(ValueError):
        InputGroup(spec, (0, 0, 0))
    with pytest.raises(ValueError):
        InputGroup(spec, (1, -1, 0))


def test_input_group_counts_are_integers():
    spec = decompose([4]).spec
    # the integer rule of every count and seed: TypeError, a bool not read as 1
    for counts in [(True, 0), (0, np.bool_(True)), (1.0, 0), ("1", 0)]:
        with pytest.raises(TypeError, match="count must be an integer"):
            InputGroup(spec, counts)
    with pytest.raises(ValueError, match="nonnegative integers"):
        InputGroup(spec, (0, -1))
    ig = InputGroup(spec, (np.int64(1), np.uint8(2)))
    assert ig == InputGroup(spec, (1, 2)) and type(ig.counts[0]) is int


# every component of J, and every coordinate of the pairwise law, at least
# doubles a capped size, so a size far above its cap is refused unformed: no
# J spec, no huge power


def test_simulation_cap_refuses_before_building_j():
    z4 = decompose([4]).spec
    ig = InputGroup(z4, (21, 0))
    message = "trial codebook of at least 2^21 cells exceeds cap SIZE_CAP=1048576"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        mc_channel_error(ig, 1, ChannelSpec(z4, np.eye(4)), 5, 0)
    assert "spec" not in vars(ig)


def test_cell_cap_refuses_a_long_blocklength():
    # the sampled law tallies 4,096 tables at each of the C(n, 2) coordinate
    # pairs, far above SIZE_CAP cells at n = 10^6, and refuses before drawing
    message = (
        "pairwise tally of 2047997952000000 cells (4096 tables x 499999500000 "
        "coordinate pairs) exceeds cap SIZE_CAP=1048576"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        verify_pairwise_law(InputGroup(decompose([4]).spec, (0, 1)), 10**6, [0], [1])


def test_pairwise_mode_rule_counts_every_component_of_j():
    # (tables x dither words) on Z2 with 10,000 components is 2^10001 at n = 1:
    # every component doubles it, so it is sampled unformed, not turned into
    # a 3,000-digit string; 10 samples are raised to the floor of 36 tables
    # per cell of Z2, so the threshold is 1/2
    ig = InputGroup(decompose([2]).spec, (10000,))
    report = verify_pairwise_law(ig, 1, [0] * 10000, [1] + [0] * 9999, samples=10)
    assert report.mode == "sampled" and report.outcomes == 72 and report.passed
    assert report.threshold == 0.5


def test_verify_ensemble_on_a_wide_j_refuses_its_table_draw(capsys):
    # the pairwise law on Z2 with 100,000 components samples 1024 tables of
    # 100,000 cells, a draw that the table cap refuses
    argv = ["verify-ensemble", "2", "--counts", "100000", "--n", "1", "--trials", "1"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: table draw of 102400000 cells exceeds cap SIZE_CAP=1048576\n"


def test_input_group_from_mapping_rejects_stray_key():
    spec = decompose([4]).spec
    with pytest.raises(ValueError, match=r"\(3, 1\) is not a weight slot"):
        InputGroup.from_mapping(spec, {(2, 1): 1, (3, 1): 5})


@given(
    st.lists(st.sampled_from([2, 3, 4, 5, 8, 9, 12, 27]), min_size=1, max_size=3),
    st.data(),
)
def test_allowed_step_matches_formula(orders, data):
    # the (p, r) image of a Z_{q^s} generator lies in p^(r-s)+ Z_{p^r} for
    # q = p, and is zero (step p^r) across primes
    spec = decompose(orders).spec
    slots = len(spec.weight_slots)
    counts = data.draw(
        st.lists(st.integers(0, 2), min_size=slots, max_size=slots).filter(any)
    )
    ig = InputGroup(spec, tuple(counts))
    expected = [
        [p ** max(r - s, 0) if p == q else p**r for p, r, _ in spec.rings]
        for q, s, _ in ig.spec.rings
    ]
    assert ig._allowed_step.tolist() == expected
    assert not ig._allowed_step.flags.writeable


# -- sampling -----------------------------------------------------------------


def test_sample_hom_deterministic():
    ig = ig_of([4], {(2, 2): 1})
    t1 = sample_hom(ig, 3, seed=42)
    t2 = sample_hom(ig, 3, seed=42)
    assert t1 == t2
    assert np.array_equal(t1.images, t2.images) and np.array_equal(t1.dither, t2.dither)
    t3 = sample_hom(ig, 3, seed=43)
    assert not np.array_equal(t3.images, t1.images) or not np.array_equal(
        t3.dither, t1.dither
    )
    # the arrays the ensemble draws, in the residue dtype and read-only
    assert t1.images.shape == (1, 3, 1) and t1.dither.shape == (3, 1)
    assert t1.images.dtype == t1.dither.dtype == np.uint8
    assert not t1.images.flags.writeable and not t1.dither.flags.writeable
    with pytest.raises(TypeError, match="unhashable"):
        hash(t1)


def test_sample_hom_supports():
    # full-exponent slot draws from the whole ring, the shallow slot from the
    # doubled subring, and cross-prime components stay zero
    ig44 = ig_of([4], {(2, 2): 1})
    seen = {int(sample_hom(ig44, 1, seed=s).images[0, 0, 0]) for s in range(120)}
    assert seen == {0, 1, 2, 3}

    ig42 = ig_of([4], {(2, 1): 1})
    seen = {int(sample_hom(ig42, 1, seed=s).images[0, 0, 0]) for s in range(60)}
    assert seen == {0, 2}

    ig_cross = ig_of([4, 3], {(3, 1): 1})
    for s in range(40):
        g = sample_hom(ig_cross, 1, seed=s).images[0, 0]
        assert g[0] == 0  # the Z_4 component of a Z_3 generator image


def test_table_constraints_enforced():
    ig = ig_of([4], {(2, 1): 1})
    good = HomomorphismTable(ig, 1, [[[2]]], [[0]])
    assert constraint_violations(good) == []
    with pytest.raises(ValueError):
        HomomorphismTable(ig, 1, [[[1]]], [[0]])


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
    table = HomomorphismTable(ig, 1, [[[2]]], [[0]])
    assert apply_hom(table, [1])[0].residues == (2,)
    assert encode(table, [1])[0].residues == (2,)


def test_apply_hom_is_exact_on_wide_moduli():
    # J one Z_(2^32) on Z_(2^32): (2^32 - 1)^2 = 1 mod 2^32, its product
    # never formed, and the dither added mod 2^32
    spec = GroupSpec(((2, 32, 1),))
    ig = InputGroup.from_mapping(spec, {(2, 32): 1})
    table = HomomorphismTable(ig, 1, [[[2**32 - 1]]], [[2**32 - 1]])
    assert table.images.dtype == np.uint64
    assert apply_hom(table, [2**32 - 1])[0].residues == (1,)
    assert encode(table, [2**32 - 1])[0].residues == (0,)


@st.composite
def encoder_case(draw):
    """An input group on a group up to Z_(2^62), among them J of one
    Z_(2^32) on Z_(2^32), and tables [T, k, n, c] and dithers drawn from it."""
    orders = draw(
        st.sampled_from([[2**62], [2**32], [2**40], [3**30], [16], [27], [8, 9], [4, 3]])
    )
    spec = decompose(orders).spec
    slots = len(spec.weight_slots)
    counts = [0] * slots
    if orders == [2**32] and draw(st.booleans()):
        counts[-1] = 1
    else:
        for slot in draw(st.lists(st.integers(0, slots - 1), min_size=1, max_size=3)):
            counts[slot] += 1
    ig = InputGroup(spec, counts)
    n, count = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rng = make_rng(draw(st.integers(0, 2**64 - 1)))
    return ig, *ensemble._sample_table(ig, n, rng, (count,))


@given(encoder_case(), st.data())
def test_encoder_matches_python_ints_property(case, data):
    # every phi(a) is additions in the residue dtype; Python ints give the
    # same words for one message (apply_hom and encode), for a difference of
    # two, negative digits included, against tables last (the pairwise law's
    # w), and for a batch of messages per table against the tables axis (the
    # lemma suite's additivity check)
    ig, images, dither = case
    moduli, radices = ig.group.moduli, ig.spec.moduli
    count, _, n, _ = images.shape
    tables = images.tolist()

    def oracle(digits, table):  # [n, c]
        return [
            [sum(d * row[i][c] for d, row in zip(digits, table)) % m
             for c, m in enumerate(moduli)]
            for i in range(n)
        ]

    def digits(low):
        return st.tuples(*(st.integers(low * (q - 1), q - 1) for q in radices))

    a, b = data.draw(digits(0)), data.draw(digits(0))
    table = HomomorphismTable(ig, n, images[0], dither[0])
    image = list(map(tuple, oracle(a, tables[0])))
    assert [x.residues for x in apply_hom(table, a)] == image
    shifted = [
        tuple((x + d) % m for x, d, m in zip(word, shift, moduli))
        for word, shift in zip(image, dither[0].tolist())
    ]
    assert [x.residues for x in encode(table, a)] == shifted
    top = np.array(moduli, images.dtype)
    diff = [y - x for x, y in zip(a, b)]
    w = ensemble._phi(diff, images.transpose(1, 2, 3, 0), radices, top[:, None])
    assert w.dtype == images.dtype
    assert w.transpose(2, 0, 1).tolist() == [oracle(diff, t) for t in tables]
    size = data.draw(st.integers(1, 3))
    batch = [data.draw(st.lists(digits(-1), min_size=size, max_size=size)) for _ in tables]
    messages = np.moveaxis(np.array(batch, dtype=np.int64), -1, 0)[..., None, None]
    words = ensemble._phi(messages, images.transpose(1, 0, 2, 3)[:, :, None], radices, top)
    assert words.shape == (count, size, n, len(moduli)) and words.dtype == images.dtype
    assert words.tolist() == [[oracle(m, t) for m in ms] for ms, t in zip(batch, tables)]


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
    assert theta_census(ig, ig.spec.zero()) == theta_census(ig)


def test_census_independent_of_base_point():
    ig = ig_of([8], {(2, 2): 1, (2, 3): 1})
    censuses = {
        tuple(sorted((t.components, c) for t, c in theta_census(ig, a).items()))
        for a in ig.spec.elements()
    }
    assert len(censuses) == 1


def test_t_theta_bound_rejects_selector_of_another_group():
    ig = InputGroup(decompose([4]).spec, (1, 1))
    with pytest.raises(ValueError, match="different group"):
        t_theta_bound(ig, ThetaVector(decompose([8]).spec, (3,)))


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
    assert frozenset(census) == enumerate_theta_set(ig.group, ig.support)


def test_census_memory_is_independent_of_selector_grid():
    # Z2+Z4+...+Z1024 has a selector grid of 11! = 39,916,800 cells, but J =
    # Z2+Z1024 has two used slots: the census folds 2 then 11 slot depths
    spec = decompose([2**e for e in range(1, 11)]).spec
    ig = InputGroup.from_mapping(spec, {(2, 1): 1, (2, 10): 1})
    tracemalloc.start()
    try:
        census = theta_census(ig)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    expected = census_oracle(ig, ig.spec.zero())
    assert list(census.items()) == sorted(
        expected.items(), key=lambda item: item[0].components
    )
    # one level more, the grid has 12! cells; J = Z2+Z2048 gives 22 classes
    spec = decompose([2**e for e in range(1, 12)]).spec
    ig = InputGroup.from_mapping(spec, {(2, 1): 1, (2, 11): 1})
    assert len(theta_census(ig)) == 22


def test_census_at_a_base_point_builds_nothing_of_j():
    # a given base point is only checked, and the count builds no array of
    # J's elements or of their differences: on Z2 with 16 components such an
    # array would hold 2^16 rows
    ig = InputGroup(decompose([2]).spec, (16,))
    tracemalloc.start()
    try:
        census = theta_census(ig, [1] * 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert list(census.values()) == [2**16 - 1, 1]
    assert census == theta_census(ig)


def test_census_at_its_cap_is_counted_in_constant_memory():
    # Z2 with 20 components is |J| = SIZE_CAP: the count reads one slot at
    # depths 0 and 1, where an enumeration of J held hundreds of MiB, and
    # the input group keeps nothing of J's size after the call
    ig = InputGroup(decompose([2]).spec, (20,))
    assert ig.size == ensemble.SIZE_CAP
    tracemalloc.start()
    try:
        census = theta_census(ig)
        peak = tracemalloc.get_traced_memory()[1]
        del census
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert kept < 2**16
    assert list(theta_census(ig).values()) == [2**20 - 1, 1]


def test_census_of_j_with_2_to_the_165_elements_is_folded_in_small_memory():
    # Z2+Z4+...+Z1024 with three components per slot is |J| = 2^165: the fold
    # holds Python-int counts over the selector classes, nothing of J's size,
    # and every class sums into |J| within its bound
    spec = decompose([2**e for e in range(1, 11)]).spec
    ig = InputGroup(spec, (3,) * 10)
    assert ig.size == 2**165
    tracemalloc.start()
    try:
        census = theta_census(ig)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert len(census) == 1024 and sum(census.values()) == ig.size
    assert all(type(count) is int for count in census.values())
    assert all(count <= t_theta_bound(ig, th) for th, count in census.items())
    # the census and its bounds read the selector memo, not the selector table
    assert "_selector_layer" not in spec.__dict__


def test_theta_set_depends_only_on_support():
    # two different count vectors with the same support produce the same set
    a = frozenset(theta_census(ig_of([8], {(2, 2): 1, (2, 3): 1})))
    b = frozenset(theta_census(ig_of([8], {(2, 2): 2, (2, 3): 3})))
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
    # the same classes and counts, in lexicographic selector order
    expected = sorted(census.items(), key=lambda item: item[0].components)
    assert list(theta_census(ig, a).items()) == expected
    assert all(type(count) is int for count in theta_census(ig, a).values())
    assert pair_theta(ig, a, b) == pair_theta_oracle(ig, a, b)
    # every selector with a nonempty class is reachable in the group
    assert set(census) <= set(all_reachable_thetas(ig.group))


@given(st.data())
def test_census_count_matches_oracle_on_random_groups_property(data):
    # up to three cyclic orders, counts 0-3 per slot, |J| at most 2^10: the
    # oracle's element-by-element tally bounds |J| for the time budget
    orders = data.draw(
        st.lists(st.sampled_from([2, 3, 4, 5, 8, 9, 16, 27]), min_size=1, max_size=3)
    )
    spec = decompose(orders).spec
    counts, room = [], 2**10
    for q, s in spec.weight_slots:
        top = max(c for c in range(4) if q ** (s * c) <= room)
        counts.append(data.draw(st.integers(0, top)))
        room //= q ** (s * counts[-1])
    assume(sum(counts))
    ig = InputGroup(spec, tuple(counts))
    a = data.draw(st.tuples(*[st.integers(0, m - 1) for m in ig.spec.moduli]))
    expected = sorted(census_oracle(ig, a).items(), key=lambda item: item[0].components)
    census = theta_census(ig, a)
    assert list(census.items()) == expected
    assert all(type(count) is int for count in census.values())


@given(st.data())
def test_selector_memo_matches_fresh_selectors_property(data):
    # the census keys, a pair's selector and every bound read the group's
    # selector memo: the keys and the pair's selector are the memo's objects,
    # equal, with equal hashes, to selectors built afresh on an equal group;
    # a bound asked first with numpy-int components leaves the census's
    # components Python ints; every selector of the [0, r]^L grid, reachable
    # or not, has the bound prod q^((s - m) c) with m from _min_depths
    orders = data.draw(
        st.lists(st.sampled_from([2, 3, 4, 5, 8, 9, 16, 27]), min_size=1, max_size=3)
    )
    spec, fresh = decompose(orders).spec, decompose(orders).spec
    slots = spec.weight_slots
    k = len(slots)
    counts = data.draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    assume(sum(counts))
    ig = InputGroup(spec, tuple(counts))
    grid = list(itertools.product(*(range(r + 1) for _, r in spec.ring_levels)))
    depths = _min_depths(spec._slot_gaps, grid).tolist()
    first = data.draw(st.sampled_from(grid))
    t_theta_bound(ig, ThetaVector(spec, tuple(map(np.int64, first))))
    census = theta_census(ig)
    for theta in census:
        assert theta is spec._theta_memo[theta.components]
        assert all(type(c) is int for c in theta.components)
        built = ThetaVector(fresh, theta.components)
        assert theta == built and hash(theta) == hash(built)
    a, b = (
        data.draw(st.tuples(*[st.integers(0, m - 1) for m in ig.spec.moduli]))
        for _ in range(2)
    )
    theta = pair_theta(ig, a, b)
    assert theta is spec._theta_memo[theta.components]
    assert theta == pair_theta_oracle(ig, a, b)
    for components, m in zip(grid, depths):
        bound = math.prod(q ** ((s - d) * c) for (q, s), d, c in zip(slots, m, counts))
        assert t_theta_bound(ig, ThetaVector(fresh, components)) == bound


def test_selector_memo_under_racing_threads():
    # eight threads, more than the cores, released together, fill a fresh
    # group's memo at once with the thread switch at its shortest, on each
    # of 20 groups: each thread's census, bounds and pair selectors equal
    # the serial ones, and every selector a thread got is the memo's one
    # entry for its components, which a lost update would break
    orders, counts = [8, 9, 4], (1, 1, 2, 1, 1)
    serial = InputGroup(decompose(orders).spec, counts)
    rows = len(serial.spec.rings)
    pairs = [([0] * rows, [v] * rows) for v in range(4)]
    census = list(theta_census(serial).items())
    bounds = [t_theta_bound(serial, th) for th, _ in census]
    selectors = [pair_theta(serial, a, b) for a, b in pairs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            ig = InputGroup(decompose(orders).spec, counts)
            start = threading.Barrier(8, timeout=60)
            got, errors = [], []

            def work():
                try:
                    start.wait()
                    mine = list(theta_census(ig).items())
                    assert mine == census
                    assert [t_theta_bound(ig, th) for th, _ in mine] == bounds
                    theirs = [pair_theta(ig, a, b) for a, b in pairs]
                    assert theirs == selectors
                    got.extend([th for th, _ in mine] + theirs)
                except Exception as exc:  # reported by the main thread
                    errors.append(exc)

            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors
            assert len(got) == 8 * (len(census) + len(pairs))
            memo = ig.group._theta_memo
            assert all(memo[theta.components] is theta for theta in got)
    finally:
        sys.setswitchinterval(interval)


def test_encode_bounds_products_by_the_input_moduli():
    # a message digit, or a difference of two, is read mod J's q^s, and each
    # of its bits adds a multiple of the image in the residue dtype, so no
    # product is formed: up to Z_(2^62), J of one Z2 and of two is encoded
    # exactly, as Python ints give it, and the pairwise law runs; a
    # congruence check reads every residue of its ring, so the lemma suite
    # refuses all of these rings
    def image(table, a, e):
        return tuple(
            sum(x * int(row[i, 0]) for x, row in zip(a, table.images)) % 2**e
            for i in range(table.blocklength)
        )

    for e in range(30, 63):
        spec = decompose([2**e]).spec
        ig = InputGroup(spec, (1,) + (0,) * (e - 1))
        table = sample_hom(ig, 3, e)
        for a in ([0], [1]):
            assert [x.residues for x in apply_hom(table, a)] == [
                (v,) for v in image(table, a, e)
            ]
        assert verify_pairwise_law(ig, 1, [0], [1], seed=e).passed
        with pytest.raises(ValueError, match="^congruence-solver ring of "):
            lemma_suite(ig, 1)
    ig = InputGroup(spec, (2,) + (0,) * 61)
    table = sample_hom(ig, 3, 62)
    for a in itertools.product([0, 1], repeat=2):
        want = [(v,) for v in image(table, a, 62)]
        assert [x.residues for x in apply_hom(table, a)] == want
    rep = verify_pairwise_law(ig, 1, [0, 0], [1, 1])
    assert rep.theta.components == (61,) and rep.support_cells == 2**63
    assert rep.mode == "sampled" and rep.off_support_mass == 0 and rep.passed


@given(st.sampled_from(list(census_configs())))
def test_census_cumulated_is_its_bound_property(config):
    # #{d in J : sel(d) >= theta} = prod q^((s - m_j(theta)) c_j): the census
    # counts of the selectors that dominate theta sum to its bound exactly
    orders, counts = config
    ig = InputGroup(decompose(orders).spec, counts)
    census = theta_census(ig)
    for theta in all_reachable_thetas(ig.group):
        above = sum(count for t, count in census.items() if t.dominates(theta))
        assert above == t_theta_bound(ig, theta), theta


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


def _halve_ring_0(ig, tables):
    # in the tables' own residue dtype, which the encoder's additions read
    moduli = ig.group.moduli
    return tables % np.array([moduli[0] // 2, *moduli[1:]], tables.dtype)


def _drop_last_generator(ig, tables):
    tables[..., -1, :, :] = 0
    return tables


# faulty samplers of tables [..., k, n, c], each within the generator constraints
TABLE_FAULTS = {
    "copied coordinate 0": lambda ig, t: np.repeat(t[..., :1, :], t.shape[-2], axis=-2),
    "all-zero tables": lambda ig, t: np.zeros_like(t),
    "halved ring-0 modulus": _halve_ring_0,
    "dropped last generator": _drop_last_generator,
}


def test_pairwise_law_sampled_detects_dropped_tables(monkeypatch):
    # at n = 4, 8 and 20 on three input groups, each pair's difference reaches
    # ring 0 and the last generator, so every fault moves its law; honest
    # draws pass
    sample = ensemble._sample_tables
    configs = [
        ([4], (1, 1), [1, 1]),
        ([2], (10,), [0] * 9 + [1]),
        ([4, 3], (1, 1, 1), [1, 0, 1]),
    ]
    for (orders, counts, b), n in itertools.product(configs, [4, 8, 20]):
        ig = InputGroup(decompose(orders).spec, counts)
        a = [0] * len(b)
        monkeypatch.setattr(ensemble, "_sample_tables", sample)
        rep = verify_pairwise_law(ig, n, a, b, seed=4)
        assert rep.mode == "sampled" and rep.passed, (orders, n)
        for name, fault in TABLE_FAULTS.items():
            faulty = lambda *args, fault=fault: fault(ig, sample(*args))
            monkeypatch.setattr(ensemble, "_sample_tables", faulty)
            rep = verify_pairwise_law(ig, n, a, b, seed=4)
            case = (orders, n, name)
            assert rep.mode == "sampled" and rep.off_support_mass == 0, case
            assert not rep.passed and rep.tv_distance >= rep.threshold, case


@given(st.sampled_from([[2], [3], [4], [8], [9], [2, 2], [2, 4], [4, 3]]), st.data())
def test_sampled_pairwise_threshold_property(orders, data):
    # in sampled mode, forced here at any size, every report draws at least
    # 36 tables per cell of its tally and so has a threshold of at most 1/2
    spec = decompose(orders).spec
    slots = len(spec.weight_slots)
    counts = data.draw(st.lists(st.integers(0, 2), min_size=slots, max_size=slots))
    assume(sum(counts))
    ig = InputGroup(spec, counts)
    a, b = (
        data.draw(st.tuples(*[st.integers(0, m - 1) for m in ig.spec.moduli]))
        for _ in range(2)
    )
    n = data.draw(st.integers(1, 6))
    samples = data.draw(st.integers(1, 300))
    with mock.patch.object(ensemble, "_exhaustive", lambda ig, n: False):
        rep = verify_pairwise_law(ig, n, a, b, samples=samples, seed=n)
    width = min(n, 2)
    assert rep.mode == "sampled" and rep.threshold <= 0.5
    assert rep.outcomes >= max(samples, 36 * Subgroup(spec, rep.theta).order ** width)


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
    with monkeypatch.context() as patch:
        patch.setattr(ensemble, "_all_tables", lambda ig, n: shift(all_tables(ig, n)))
        with pytest.raises(ValueError):
            verify_pairwise_law(ig, 1, [0], [1])
        patch.setattr(
            ensemble, "_sample_tables", lambda *args, **kw: shift(sample(*args, **kw))
        )
        with pytest.raises(ValueError):
            verify_pairwise_law(ig_of([4], {(2, 1): 1, (2, 2): 1}), 4, [0, 0], [0, 1])
    # alone: a second shift on top of the sampled one would put the images
    # back in 2 Z_4
    tables = ensemble._tables
    monkeypatch.setattr(ensemble, "_tables", lambda *args: shift(tables(*args)))
    with pytest.raises(ValueError):
        mc_channel_error(ig, 1, ChannelSpec(ig.group, np.eye(4)), trials=1, seed=0)


def test_violations_bound_both_ends():
    # a Z_2 generator's image in Z_4 lies in {0, 2}: the other cells below are
    # multiples of the step 2 outside [0, 4), the smallest int64 among them
    ig = ig_of([4], {(2, 1): 1})
    cells = np.array([-(2**63), -4, -2, 0, 2, 4, 6], dtype=np.int64)
    bad = ensemble._violations(ig, cells.reshape(-1, 1, 1, 1)).ravel()
    assert bad.tolist() == [True, True, True, False, False, True, True]


@pytest.mark.parametrize(
    "orders,slot,a,b",
    [
        ([128], (2, 7), [127], [0]),
        ([128], (2, 7), [0], [127]),
        ([27], (3, 3), [0], [26]),
    ],
)
def test_pairwise_law_products_do_not_wrap_in_narrow_residues(orders, slot, a, b):
    # both groups' tables are uint8, Z128 at its edge (2 * 128 = 256), and
    # the encoder forms no product there: a difference of -127 is read mod
    # 128 as 1, and 26 bit by bit, each set bit adding a doubled image through
    # _plus.  A product would not fit: -127 times a uint8 array overflows it,
    # and 26 * 26 wrapped mod 256 moves its residue mod 27; the full joint
    # route and the sampled law's pass catch both
    ig = ig_of(orders, {slot: 1})
    assert ig._enumeration(1).dtype == np.uint8
    assert_matches_oracle(ig, 1, a, b)
    with mock.patch.object(ensemble, "_exhaustive", lambda ig, n: False):
        rep = verify_pairwise_law(ig, 1, a, b, samples=4096, seed=3)
    assert rep.mode == "sampled" and rep.off_support_mass == 0 and rep.passed


def counted_tables(calls: list, tables=ALL_TABLES):
    """An enumerator that records the blocklength of each call."""

    def all_tables(ig, n):
        calls.append(n)
        return tables(ig, n)

    return all_tables


def test_plan_enumerates_once_per_blocklength(monkeypatch):
    # J = Z_4 into Z_2 + Z_4: 8^n tables, every pair exhaustive at n = 1, 2
    calls = []
    monkeypatch.setattr(ensemble, "_all_tables", counted_tables(calls))
    ig = ig_of([2, 4], {(2, 2): 1})
    assert verify_pairwise_law(ig, 1, [0], [1]).passed
    assert verify_pairwise_law(ig, 1, [1], [3]).passed
    assert calls == [1]
    suite = lemma_suite(ig, 1)
    assert "16 pairs (exhaustive)" in suite[2].detail and all(c.passed for c in suite)
    assert calls == [1]
    assert all(c.passed for c in lemma_suite(ig, 2))
    assert calls == [1, 2]
    # the plan is per instance: an equal group built apart enumerates anew
    twin = ig_of([2, 4], {(2, 2): 1})
    assert twin == ig and hash(twin) == hash(ig) and twin is not ig
    report = verify_pairwise_law(twin, 1, [0], [1])
    assert report == verify_pairwise_law(ig, 1, [0], [1])
    assert calls == [1, 2, 1]


def test_plan_arrays_are_read_only():
    ig = ig_of([2, 4], {(2, 2): 1})
    tables = ig._enumeration(1)
    assert tables is ig._enumeration(1)
    assert tables.shape == (8, 1, 1, 2)
    with pytest.raises(ValueError, match="read-only"):
        tables[0] = 1


def test_plan_never_keeps_failing_tables(monkeypatch):
    # images must lie in 2 Z_4: a shifted enumeration fails its check on
    # every call, and once the enumerator is mended the same group passes
    ig = ig_of([4], {(2, 1): 1})
    calls = []
    shifted = lambda ig, n: (ALL_TABLES(ig, n) + 1) % 4
    monkeypatch.setattr(ensemble, "_all_tables", counted_tables(calls, shifted))
    for _ in range(2):
        with pytest.raises(
            ValueError, match="^generator image violates ensemble constraints$"
        ):
            verify_pairwise_law(ig, 1, [0], [1])
    assert calls == [1, 1]
    monkeypatch.setattr(ensemble, "_all_tables", counted_tables(calls))
    assert verify_pairwise_law(ig, 1, [0], [1]).passed
    assert calls == [1, 1, 1]


def sampled_law_oracle(ig: InputGroup, n: int, a, b, samples: int, seed: int):
    """The sampled pairwise law in Python ints: the same seeded tables, w =
    phi(b - a) per coordinate as a sum of products, and per pair of
    coordinates (the one coordinate at n = 1) a Counter of its cells of
    H_theta^2, keyed by the residues themselves."""
    spec = ig.group
    theta = pair_theta_oracle(ig, a, b)
    h = Subgroup(spec, theta).order
    width = min(n, 2)
    cells = h**width
    total = max(samples, 36 * cells)
    levels = list(spec.ring_levels)
    steps = [p ** theta.components[levels.index((p, r))] for p, r, _ in spec.rings]
    diff = [y - x for x, y in zip(a, b)]
    w = [
        [
            tuple(
                sum(d * row[i][c] for d, row in zip(diff, table)) % m
                for c, m in enumerate(spec.moduli)
            )
            for i in range(n)
        ]
        for table in ensemble._sample_tables(ig, n, make_rng(seed), (total,)).tolist()
    ]
    inside = [x for x in w if all(v % h_c == 0 for y in x for v, h_c in zip(y, steps))]
    tallies = itertools.combinations(range(n), 2) if n > 1 else [(0,)]
    tv = max(
        Fraction(
            sum(abs(hits * cells - total) for hits in tally.values())
            + (cells - len(tally)) * total,
            2 * total * cells,
        )
        for tally in (Counter(tuple(x[i] for i in pair) for x in inside) for pair in tallies)
    )
    off = total - len(inside)
    threshold = 3.0 * math.sqrt(cells / total)
    passed = off == 0 and (tv == 0 or tv < threshold)
    support = spec.order**n * h**n
    return ensemble.PairwiseLawReport(
        theta, "sampled", total, support, off / total, float(tv), threshold, passed
    )


@pytest.mark.parametrize("a, b", [([3], [4]), ([5], [1]), ([0], [2])])
def test_sampled_tally_keys_pass_the_residue_dtype(a, b):
    # Z32's residues are uint8, and at n = 3 each pair of coordinates tallies
    # up to the 32^2 cells of H_theta^2 = Z32^2, three pairs of them, so the
    # keys pass 255: the tally indexes the digits widened, and its report is
    # that of the same draws tallied in Python ints (the joint route, over
    # 2^30 tables and dither words, is out of reach)
    ig = ig_of([32], {(2, 5): 1})
    assert ensemble._residue_dtype(ig.group.moduli) == np.uint8
    rep = verify_pairwise_law(ig, 3, a, b, seed=11)
    assert rep.mode == "sampled" and rep.passed
    assert rep == sampled_law_oracle(ig, 3, a, b, 4096, 11)


def test_pairwise_law_sampled_threshold_not_vacuous():
    # each pair of coordinates of H_theta^4 = Z_4^4 tallies 16 cells:
    # threshold 3 sqrt(16 / 4096) = 0.1875
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
    # the cap bounds the tally, tables x C(n, 2) coordinate pairs, not |G|^(2n)
    # or |H_theta|^n: on Z_8 at n = 3 the pair 0, 4 tallies 2^2 cells a pair,
    # sampled since the tables and dither words number 8^6
    rep = verify_pairwise_law(ig_of([8], {(2, 3): 1}), 3, [0], [4])
    assert rep.mode == "sampled" and rep.theta.components == (2,)
    assert rep.threshold < 1 and rep.passed
    # Z_2 at n = 17, 2^17 cells of H_theta^n, tallies 4,096 x 136; at n = 24,
    # 4,096 x 276 cells are above SIZE_CAP
    z2 = ig_of([2], {(2, 1): 1})
    rep = verify_pairwise_law(z2, 17, [0], [1])
    assert rep.support_cells == 2**34 and rep.threshold == 0.09375 and rep.passed
    with pytest.raises(ValueError, match="4096 tables x 276 coordinate pairs"):
        verify_pairwise_law(z2, 24, [0], [1])


def test_table_draw_cap():
    # a draw of more than SIZE_CAP cells (tables x k x n x rings) is rejected
    # before anything is drawn; each draw below would need >= 10^15 bytes
    ig = ig_of([4], {(2, 2): 1})
    with pytest.raises(ValueError, match="SIZE_CAP"):
        lemma_suite(ig, 10**15)
    with pytest.raises(ValueError, match="SIZE_CAP"):
        sample_hom(ig, 10**15, 0)
    ig8 = ig_of([2], {(2, 1): 8})
    a, b = [0] * 8, [1] + [0] * 7
    with pytest.raises(ValueError, match="SIZE_CAP"):
        verify_pairwise_law(ig8, 3, a, b, samples=10**15)
    # the cap itself: 2^17 tables of 8 x 1 x 1 cells is allowed, one more is not
    rng = np.random.Generator(np.random.Philox(0))
    assert ensemble._sample_tables(ig8, 1, rng, (2**17,)).shape == (2**17, 8, 1, 1)
    with pytest.raises(ValueError, match="SIZE_CAP"):
        ensemble._sample_tables(ig8, 1, rng, (2**17 + 1,))


def test_pairwise_law_many_axes():
    # n * rings >= 64 axes, one cell a pair: a == b gives w = 0 in every table;
    # 4,096 tables at the 2,016 coordinate pairs of n = 64 exceed the tally cap
    ig = ig_of([4], {(2, 2): 1})
    with pytest.raises(ValueError, match="4096 tables x 2016 coordinate pairs"):
        verify_pairwise_law(ig, 64, [1], [1])
    rep = verify_pairwise_law(ig, 64, [1], [1], samples=500)
    assert rep.mode == "sampled" and rep.support_cells == 4**64
    assert rep.passed and rep.tv_distance == 0 and rep.outcomes == 500
    rep = verify_pairwise_law(ig_of([2], {(2, 1): 1}), 70, [0], [0], samples=8)
    assert rep.passed and rep.support_cells == 2**70 and rep.outcomes == 36


# (mode, orders, counts, a, b, n, (theta, outcomes, support_cells,
# off_support_mass, tv_distance, threshold, passed)) at samples=500, seed=11,
# each in the mode given, recorded before the law's two tallies became one
PAIRWISE_PINS = [
    ("exhaustive", [4], (0, 1), [0], [2], 1, ((1,), 4, 8, 0.0, 0.0, 0.0, True)),
    ("exhaustive", [4], (0, 1), [0], [2], 2, ((1,), 16, 64, 0.0, 0.0, 0.0, True)),
    ("exhaustive", [4], (0, 1), [0], [2], 4, ((1,), 256, 4096, 0.0, 0.0, 0.0, True)),
    ("exhaustive", [4], (0, 1), [1], [2], 1, ((0,), 4, 16, 0.0, 0.0, 0.0, True)),
    ("exhaustive", [4], (0, 1), [1], [2], 2, ((0,), 16, 256, 0.0, 0.0, 0.0, True)),
    ("exhaustive", [4], (0, 1), [1], [2], 4, ((0,), 256, 65536, 0.0, 0.0, 0.0, True)),
    ("exhaustive", [2, 4], (1, 0), [0], [1], 1, ((0, 1), 4, 32, 0.0, 0.0, 0.0, True)),
    ("exhaustive", [2, 4], (1, 0), [0], [1], 2,
     ((0, 1), 16, 1024, 0.0, 0.0, 0.0, True)),
    ("exhaustive", [2, 4], (1, 0), [0], [1], 4,
     ((0, 1), 256, 1048576, 0.0, 0.0, 0.0, True)),
    ("exhaustive", [2, 4], (0, 1), [1], [3], 1, ((1, 1), 8, 16, 0.0, 0.0, 0.0, True)),
    ("exhaustive", [2, 4], (0, 1), [1], [3], 2, ((1, 1), 64, 256, 0.0, 0.0, 0.0, True)),
    ("exhaustive", [2, 4], (0, 1), [1], [3], 4,
     ((1, 1), 4096, 65536, 0.0, 0.0, 0.0, True)),
    ("exhaustive", [4, 3], (1, 0, 1), [0, 0], [1, 2], 1,
     ((1, 0), 6, 72, 0.0, 0.0, 0.0, True)),
    ("exhaustive", [4, 3], (1, 0, 1), [0, 0], [1, 2], 2,
     ((1, 0), 36, 5184, 0.0, 0.0, 0.0, True)),
    ("exhaustive", [4, 3], (1, 0, 1), [0, 0], [1, 2], 4,
     ((1, 0), 1296, 26873856, 0.0, 0.0, 0.0, True)),
    ("exhaustive", [4, 3], (0, 1, 1), [2, 0], [0, 1], 1,
     ((1, 0), 12, 72, 0.0, 0.0, 0.0, True)),
    ("exhaustive", [4, 3], (0, 1, 1), [2, 0], [0, 1], 2,
     ((1, 0), 144, 5184, 0.0, 0.0, 0.0, True)),
    ("exhaustive", [4, 3], (0, 1, 1), [2, 0], [0, 1], 4,
     ((1, 0), 20736, 26873856, 0.0, 0.0, 0.0, True)),
    ("sampled", [2], (17,), [0] * 17, [1] + [0] * 16, 1,
     ((0,), 500, 4, 0.0, 0.022, 0.18973665961010275, True)),
    ("sampled", [2], (17,), [0] * 17, [1] + [0] * 16, 2,
     ((0,), 500, 16, 0.0, 0.036, 0.2683281572999748, True)),
    ("sampled", [2], (17,), [0] * 17, [1] + [0] * 16, 8,
     ((0,), 500, 65536, 0.0, 0.052, 0.2683281572999748, True)),
    ("sampled", [4], (1, 1), [0, 0], [1, 2], 1,
     ((1,), 500, 8, 0.0, 0.03, 0.18973665961010275, True)),
    ("sampled", [4], (1, 1), [0, 0], [1, 2], 2,
     ((1,), 500, 64, 0.0, 0.054, 0.2683281572999748, True)),
    ("sampled", [4], (1, 1), [0, 0], [1, 2], 8,
     ((1,), 500, 16777216, 0.0, 0.072, 0.2683281572999748, True)),
    ("sampled", [4], (1, 1), [1, 1], [1, 3], 1,
     ((1,), 500, 8, 0.0, 0.024, 0.18973665961010275, True)),
    ("sampled", [4], (1, 1), [1, 1], [1, 3], 2,
     ((1,), 500, 64, 0.0, 0.036, 0.2683281572999748, True)),
    ("sampled", [4], (1, 1), [1, 1], [1, 3], 8,
     ((1,), 500, 16777216, 0.0, 0.058, 0.2683281572999748, True)),
]


@pytest.mark.parametrize("mode,orders,counts,a,b,n,fields", PAIRWISE_PINS)
def test_pairwise_law_reports_pinned(mode, orders, counts, a, b, n, fields):
    # every field exact: both modes count in one tally, whose cells and
    # distances must not move
    ig = InputGroup(decompose(orders).spec, counts)
    with mock.patch.object(ensemble, "_exhaustive", lambda ig, n: mode == "exhaustive"):
        rep = verify_pairwise_law(ig, n, a, b, samples=500, seed=11)
    theta, *rest = fields
    assert rep == ensemble.PairwiseLawReport(ThetaVector(ig.group, theta), mode, *rest)


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


def congruence_oracle(p: int, r: int, s: int, a: int, b: int) -> tuple[int, ...]:
    """The solution set of a*x = b mod p^r by q-adic depths: empty when b is
    shallower than a, else p^theta_hat alpha x = p^theta beta gives x =
    p^(theta - theta_hat) beta / alpha mod p^(r - theta_hat)."""
    theta_hat, theta = depth_oracle(a, p, s), depth_oracle(b, p, r)
    if theta < theta_hat:
        return ()
    period = p ** (r - theta_hat)
    alpha_inv = pow(a // p**theta_hat, -1, period)
    base = p ** (theta - theta_hat) * alpha_inv * (b // p**theta) % period
    return tuple(range(base, p**r, period))


def test_congruence_closed_form_matches_depth_oracle():
    # every (p, r, s, a, b) up to Z_(2^8), Z_(3^5), Z_(5^3) and Z_(7^2):
    # the scalar solver, and the array form on every b at once
    checked = 0
    for p, top in ((2, 8), (3, 5), (5, 3), (7, 2)):
        for r in range(1, top + 1):
            mod = p**r
            targets = np.arange(mod)
            for s in range(1, r + 1):
                for a in range(1, p**s):
                    solvable, base, period = ensemble._congruence(p, r, a, targets)
                    for b, ok, first in zip(
                        range(mod), solvable.tolist(), base.tolist()
                    ):
                        want = congruence_oracle(p, r, s, a, b)
                        assert solve_congruence(p, r, s, a, b) == want
                        assert (tuple(range(first, mod, period)) if ok else ()) == want
                    checked += mod
    assert checked == 290_020


def _base_and_solvable(p, r, a, b, solvable, base, period):
    """The base of a = 2 mod 4 moves by one, so both of its solvable targets
    (0 and 2) get the wrong solutions, and a = 3 mod 4 calls b = 1
    unsolvable although x = 3 solves it: 3 mismatches."""
    if (p, r, a) == (2, 2, 2):
        base = base + 1
    if (p, r, a) == (2, 2, 3):
        solvable = solvable & (b != 1)
    return solvable, base, period


def _base_by_periods(shift):
    """The base of a = 2 mod 4 moves by shift periods: each of its solvable
    targets (0 and 2) gets residues that solve it, but one of them lies
    outside [0, 4), so 2 mismatches."""

    def fault(p, r, a, b, solvable, base, period):
        return solvable, base + shift * period * ((p, r, a) == (2, 2, 2)), period

    return fault


@pytest.mark.parametrize(
    "fault, mismatches",
    [(_base_and_solvable, 3), (_base_by_periods(1), 2), (_base_by_periods(-1), 2)],
    ids=["base-and-solvable", "base-up-one-period", "base-down-one-period"],
)
def test_lemma_suite_reports_congruence_mismatches(
    monkeypatch, capsys, fault, mismatches
):
    # on Z4's 18 equations, a wrong closed form is caught per equation
    congruence = ensemble._congruence

    def wrong(p, r, a, b):
        return fault(p, r, a, b, *congruence(p, r, a, b))

    monkeypatch.setattr(ensemble, "_congruence", wrong)
    detail = f"18 equations checked, {mismatches} mismatches"
    check = lemma_suite(ig_of([4], {(2, 2): 1}), 1, samples=60, seed=2)[-1]
    assert check.name == "congruence-solver" and not check.passed
    assert check.detail == detail
    argv = ["verify-ensemble", "4", "--counts", "0,1", "--n", "1", "--trials", "60"]
    assert cli.main(argv) == 4
    out, err = capsys.readouterr()
    assert f"FAIL congruence-solver: {detail}\n" in out
    assert err == "violated: congruence-solver\n"


@pytest.mark.parametrize(
    "orders, counts, n, classes",
    [([4], {(2, 2): 1}, 1, 3), ([2], {(2, 1): 40}, 2, 2)],
    ids=["z4", "z2-40-components"],
)
def test_lemma_suite_fails_a_count_off_its_cumulated_bound(
    monkeypatch, capsys, orders, counts, n, classes
):
    # one more pair in the class of selector 0 stays within its bound (2 of 4
    # on J = Z4, 2^40 - 1 of 2^40 on Z2 with 40 components, where J has no
    # enumeration): only the classes dominating it, summed to its bound, catch it
    ig = ig_of(orders, counts)
    zero = ThetaVector(ig.group, (0,))
    assert theta_census(ig)[zero] < t_theta_bound(ig, zero)
    census = ensemble.theta_census

    def one_more(ig, a=None):
        return {th: count + (th == zero) for th, count in census(ig, a).items()}

    monkeypatch.setattr(ensemble, "theta_census", one_more)
    detail = f"{classes} selector classes, 0 above the bound"
    check = lemma_suite(ig, n, samples=60, seed=2)[3]
    assert check.name == "census-bound" and not check.passed
    assert check.detail == detail
    group, in_counts = ",".join(map(str, orders)), ",".join(map(str, ig.counts))
    argv = ["verify-ensemble", group, "--counts", in_counts, "--n", str(n)]
    assert cli.main(argv + ["--trials", "60"]) == 4
    out, err = capsys.readouterr()
    assert f"FAIL census-bound: {detail}\n" in out
    assert err == "violated: census-bound\n"


@pytest.mark.parametrize("p", [4, 6, 1, 0])
def test_congruence_rejects_non_prime_base(p):
    with pytest.raises(ValueError, match=f"p={p} is not prime"):
        solve_congruence(p, 2, 1, 1, 0)


# -- Monte Carlo --------------------------------------------------------------


def mc_oracle(ig: InputGroup, n: int, chan: ChannelSpec, trials: int, seed: int):
    """The Monte Carlo simulation one trial at a time on each block's draws:
    one Philox stream draws, per block of SIZE_CAP // (|J| n rings) trials,
    the tables and dithers, the messages, then one uniform per coordinate;
    each trial then takes its codewords by ``einsum``, its injectivity by
    ``np.unique``, each output by a search of W(. | x)'s CDF, as
    ``Generator.choice`` searches, and ML decoding by the plain product."""
    moduli = ig.group.moduli
    messages = ensemble._grid(ig.spec.moduli)
    w = chan.matrix
    block = ensemble.SIZE_CAP // (len(messages) * n * len(moduli))
    rng = np.random.Generator(np.random.Philox(seed))
    errors = 0
    injective_trials = 0
    injective_errors = 0
    for start in range(0, trials, block):
        count = min(block, trials - start)
        tables, dithers = ensemble._sample_table(ig, n, rng, (count,))
        sent = rng.integers(0, len(messages), count).tolist()
        uniforms = rng.random((count, n))
        for images, dither, m_idx, u in zip(tables, dithers, sent, uniforms):
            images = ensemble._checked(ig, images)
            codewords = (np.einsum("mk,kic->mic", messages, images) + dither) % moduli
            codebook = np.ravel_multi_index(np.moveaxis(codewords, -1, 0), moduli)
            injective = len(np.unique(codebook, axis=0)) == len(messages)
            y = []
            for xi, ui in zip(codebook[m_idx], u):
                cdf = w[xi].cumsum()
                y.append(int(np.searchsorted(cdf / cdf[-1], ui, side="right")))
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
    uniform channel (the last two make likelihood ties): the codebook of one
    trial stays small, so that the trial-at-a-time oracle is fast, or the
    configuration is one that the former cap |J|·|G|^n <= SIZE_CAP admitted,
    which reaches wide J and blocks of a few trials."""
    orders = draw(
        st.sampled_from([[2], [3], [4], [8], [9], [16], [27], [128], [2, 2], [4, 3]])
    )
    spec = decompose(orders).spec
    slots = len(spec.weight_slots)
    counts = draw(
        st.lists(st.integers(0, 3), min_size=slots, max_size=slots).filter(any)
    )
    ig = InputGroup(spec, tuple(counts))
    n = draw(st.integers(1, 8))
    assume(
        ig.size * n * len(spec.moduli) <= 2**12
        or ig.size * spec.order**n <= ensemble.SIZE_CAP
    )
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


@st.composite
def codebook_case(draw):
    """A block of sampled tables and dithers, at most 2^12 messages, on a group
    of uint8 residues up to Z128 (2 * 128 = 256 is the edge), of uint16 from
    Z243 and Z256, of several rings, or a J of one Z4096 component on Z4096."""
    groups = [[2], [3], [8], [9], [27], [128], [243], [256], [4, 3], [2, 3, 5]]
    orders = draw(st.sampled_from(groups + [[4096]]))
    spec = decompose(orders).spec
    slots = len(spec.weight_slots)
    if orders == [4096]:
        counts = [0] * (slots - 1) + [1]
    else:
        counts = draw(st.lists(st.integers(0, 2), min_size=slots, max_size=slots))
    ig = InputGroup(spec, counts) if any(counts) else None
    assume(ig is not None and ig.size <= 2**12)
    n, trials = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 2**64 - 1))))
    return ig, *ensemble._sample_table(ig, n, rng, (trials,))


@given(codebook_case())
def test_codebook_matches_the_message_grid_product(case):
    # the old route, in Python ints: the dither is one more generator row,
    # with message coordinate 1, so the codebook is one product over the
    # message grid, reduced mod p^r and indexed over the rings
    ig, images, dither = case
    moduli = ig.group.moduli
    assert images.dtype == np.min_scalar_type(2 * max(moduli) - 1)
    messages = ensemble._grid((*ig.spec.moduli, 1)).astype(object)
    messages[:, -1] = 1
    rows = np.concatenate([images, dither[:, None]], axis=1).transpose(1, 2, 3, 0)
    # [messages, n, c, trials], every product and sum an exact Python int
    words = np.tensordot(messages, rows.astype(object), axes=1)
    words %= np.array(moduli, dtype=object)[:, None]
    expected = ensemble._index(words.transpose(0, 1, 3, 2), moduli)
    assert ensemble._codebook(ig, images, dither).tolist() == expected.tolist()


@pytest.mark.parametrize(
    "high",
    [2, 3, 4, 9, 27, 243, 2**31 - 1, 2**31, [2, 2, 4, 4, 9], [[3, 9], [27, 2**31 - 1]]],
)
def test_int32_draws_are_the_int64_stream(high):
    # numpy draws a bound up to 2**32 from one 32-bit word a draw by Lemire's
    # method, whether the output is int32 or int64; every pinned report here
    # reads the ensemble's draws, so the narrow draw must leave the default
    # draw's values and the state after it, which the next random() reads
    size = (7, 5) + np.shape(high)
    for seed in (0, 1, 2**64 - 1):
        wide, narrow = (np.random.Generator(np.random.Philox(seed)) for _ in range(2))
        expected = wide.integers(0, high, size)
        got = ensemble._integers(narrow, high, size)  # integers(..., dtype=np.int32)
        assert got.dtype == np.int32 and got.tolist() == expected.tolist()
        assert narrow.random() == wide.random()
    rng = np.random.Generator(np.random.Philox(0))
    assert ensemble._integers(rng, 2**31 + 1, 1).dtype == np.int64


def test_mc_memory_of_the_widest_codebook():
    # |J| = 2^20 at n = 1, one trial a block: the codebook is 2^20 uint8
    # cells, and no [|J|, k + 1] message grid of int64 is built (202 MiB)
    z2 = decompose([2]).spec
    bsc = ChannelSpec(z2, [[0.9, 0.1], [0.1, 0.9]])
    tracemalloc.start()
    try:
        rep = mc_channel_error(InputGroup(z2, (20,)), 1, bsc, 20, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.trials == 20 and rep.injective_trials == 0
    assert peak < 64 * 2**20, peak


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


def test_mc_decodes_a_block_whose_likelihoods_underflow():
    # on a BSC(0.1) at n = 3000 every codeword's likelihood is below 1e-300
    # and most multiply down to 0.0; decoded by mantissa and exponent, two
    # messages about 1,500 coordinates apart are never confused
    z2 = decompose([2]).spec
    bsc = ChannelSpec(z2, [[0.9, 0.1], [0.1, 0.9]])
    rep = mc_channel_error(InputGroup(z2, (2,)), 3000, bsc, 50, 0)
    assert rep.errors == 0 and rep.injective_trials == 50


@pytest.mark.parametrize("n,least", [(5, 1.0), (3000, 1.0), (5, 1e-250)])
def test_ml_decode_matches_the_product(n, least):
    # at n = 5 every product is normal, and the first greatest one is the
    # plain product's argmax, ties (equal and zero entries) included; at
    # n = 3000, scaled every 145 coordinates, and with entries near
    # 1e-250, scaled every coordinate, the products underflow, and it is the
    # sum of logs' argmax
    rng = make_rng(n)
    if least == 1.0 and n == 5:
        w = np.array([[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0.25, 0.75], [0.2, 0.3, 0.5]])
    else:
        w = rng.dirichlet(np.ones(3), size=4)
        w[:, 0] *= least
    w_flat, order = w.T.ravel(), len(w)
    # offsets [n, trials] and codebook [messages, n, trials], trials last
    offsets = rng.integers(0, 3, (40, n)).T * order
    codebook = rng.integers(0, order, (40, 16, n)).transpose(1, 2, 0)
    terms = w_flat[offsets + codebook]  # [messages, n, trials]
    if least == 1.0 and n == 5:
        expected = terms.prod(axis=1).argmax(axis=0)
    else:
        assert (terms.prod(axis=1) == 0).any()
        expected = np.log(terms).sum(axis=1).argmax(axis=0)
    got = ensemble._ml_decode(w_flat, offsets, codebook)
    assert got.tolist() == expected.tolist()


@pytest.mark.parametrize("seed,trials", [(16146, 1), (6697, 2)])
def test_mc_rejected_stream_matches_oracle(seed, trials):
    # |J| = 3**12 on Z3 at n = 1, a message span that is no power of two, so
    # a block holds one trial.  At a rate of 12 trits per symbol every trial
    # errs and none is injective, whatever is drawn
    ig = ig_of([3], {(3, 1): 12})
    chan = additive_noise_channel(ig.group, [0.8, 0.15, 0.05])
    case = (ig, 1, chan, trials, seed)
    assert mc_channel_error(*case) == mc_oracle(*case)


def test_mc_seed_contract():
    ig = ig_of([4, 3], {(2, 1): 1, (3, 1): 1})
    chan = additive_noise_channel(ig.group, [0.7] + [0.3 / 11] * 11)
    for seed in (np.int64(3), 2**64 - 1):
        case = (ig, 2, chan, 20, seed)
        assert mc_channel_error(*case) == mc_oracle(*case)
    for seed in (-1, 2**64, 2**70):
        with pytest.raises(ValueError, match="seed"):
            mc_channel_error(ig, 2, chan, 20, seed)
    for seed in (None, 1.5, True, np.True_):
        with pytest.raises(TypeError, match="seed"):
            mc_channel_error(ig, 2, chan, 20, seed)


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
         3, 50, (17, 32, 6)),
        ([8], {(2, 2): 1, (2, 3): 1}, 2, [0.75, 0.1, 0.05, 0, 0, 0, 0.05, 0.05],
         17, 60, (29, 25, 6)),
        ([2, 2], {(2, 1): 3}, 2, [0.85, 0.05, 0.05, 0.05], 29, 60, (24, 37, 9)),
    ],
)
def test_mc_reports_pinned(orders, counts, n, noise, seed, trials, expected):
    # (errors, injective trials, injective errors) recorded from the one
    # Philox stream's block draws: the seeded draws must not move
    spec = decompose(orders).spec
    ig = InputGroup.from_mapping(spec, counts)
    chan = additive_noise_channel(spec, noise)
    rep = mc_channel_error(ig, n, chan, trials=trials, seed=seed)
    assert (rep.errors, rep.injective_trials, rep.injective_errors) == expected


@pytest.mark.parametrize(
    "orders,counts,n,noise,seed,trials,expected",
    [
        ([2, 4], (1, 1), 2, [0.6, 0.1, 0.1, 0.05, 0.05, 0.05, 0.03, 0.02], 5, 300,
         "MonteCarloReport(trials=300, errors=156, seed=5, code_rate_bits=1.5, "
         "injective_trials=196, injective_errors=84)"),
        ([4, 3], (1, 0, 1), 3, [0.5] + [0.5 / 11] * 11, 2**63 + 9, 200,
         "MonteCarloReport(trials=200, errors=84, seed=9223372036854775817, "
         "code_rate_bits=0.861654166907052, injective_trials=178, "
         "injective_errors=74)"),
        ([2, 2, 2], (2,), 4, [0.65] + [0.05] * 7, 123456789, 400,
         "MonteCarloReport(trials=400, errors=49, seed=123456789, "
         "code_rate_bits=0.5, injective_trials=400, injective_errors=49)"),
    ],
)
def test_mc_reprs_pinned_on_multi_ring_groups(
    orders, counts, n, noise, seed, trials, expected
):
    # whole reports on groups of two and three rings, whose codewords are
    # indexed over their rings
    spec = decompose(orders).spec
    ig = InputGroup(spec, counts)
    rep = mc_channel_error(ig, n, additive_noise_channel(spec, noise), trials, seed)
    assert repr(rep) == expected


# the benchmark's three Monte Carlo configs, with the seeds its ensemble
# workload draws at seed 1: (orders, counts, n, P(Z = 0), seed, expected)
@pytest.mark.parametrize(
    "orders,counts,n,p_zero,seed,expected",
    [
        ([2], (5,), 4, 0.9, 3857348527415051637, (451, 0, 0)),
        ([4], (0, 2), 3, 0.7, 3266091884210294964, (363, 391, 201)),
        ([3], (2,), 3, 0.7, 4942692265228686397, (346, 515, 282)),
    ],
)
def test_mc_benchmark_configs_pinned(orders, counts, n, p_zero, seed, expected):
    # (errors, injective trials, injective errors) over 600 trials: the seed
    # fixes them exactly, and a band of sigmas around the reference error
    # rate, which is what the benchmark checks, cannot tell a moved draw
    (order,) = orders
    rest = (1.0 - p_zero) / (order - 1)
    matrix = [
        [p_zero if (y - x) % order == 0 else rest for y in range(order)]
        for x in range(order)
    ]
    ig = InputGroup(decompose(orders).spec, counts)
    rep = mc_channel_error(ig, n, ChannelSpec(ig.group, matrix), 600, seed)
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
    # the cap bounds one trial's codebook, |J| x n x rings cells, not the
    # space |J| x |G|^n: Z8 with three Z8 components at n = 6 is 3,072 cells
    # (a space of 2^27) and runs
    spec = decompose([8]).spec
    chan = additive_noise_channel(spec, [0.7] + [0.3 / 7] * 7)
    ig = InputGroup.from_mapping(spec, {(2, 3): 3})
    assert mc_channel_error(ig, 6, chan, 8, 5) == mc_oracle(ig, 6, chan, 8, 5)
    # Z2 with 10 components at n = 1025 is 1,049,600 cells, above the cap,
    # and n's bits refuse a long block unformed
    z2 = decompose([2]).spec
    wide, bsc = InputGroup(z2, (10,)), ChannelSpec(z2, [[0.9, 0.1], [0.1, 0.9]])
    for n, cells in [(1025, "1049600"), (10**5000, "at least 2^16619")]:
        message = f"trial codebook of {cells} cells exceeds cap SIZE_CAP=1048576"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mc_channel_error(wide, n, bsc, trials=5, seed=0)


@pytest.mark.parametrize(
    "seed, error",
    [
        (None, TypeError),
        (1.5, TypeError),
        (True, TypeError),
        (np.True_, TypeError),
        (-1, ValueError),
        (2**64, ValueError),
    ],
)
def test_seed_contract(seed, error):
    # a seed must be an integer in [0, 2**64): None would draw fresh OS entropy,
    # and a bool is refused as it is as a count, not read as seed 1
    ig = ig_of([4], {(2, 2): 1})
    with pytest.raises(error, match="seed"):
        sample_hom(ig, 2, seed)
    with pytest.raises(error, match="seed"):
        verify_pairwise_law(ig, 1, [0], [2], seed=seed)  # exhaustive mode too
    with pytest.raises(error, match="seed"):
        lemma_suite(ig, 1, samples=10, seed=seed)
    assert sample_hom(ig, 2, np.int64(7)) == sample_hom(ig, 2, 7)


@pytest.mark.parametrize("samples", [0, -3])
def test_samples_contract(samples):
    # no sample size may pass vacuously or divide by zero, in either mode
    ig = ig_of([4], {(2, 1): 1, (2, 2): 1})
    for n, mode in ((4, "sampled"), (1, "exhaustive")):
        assert verify_pairwise_law(ig, n, [0, 0], [1, 1], samples=64).mode == mode
        with pytest.raises(ValueError, match="samples must be >= 1"):
            verify_pairwise_law(ig, n, [0, 0], [1, 1], samples=samples)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        lemma_suite(ig, 1, samples=samples)


@pytest.mark.parametrize("count", [True, np.True_, 100.5, 4.0, np.float64(3)])
def test_count_contract(count):
    # a bool or a float is refused by name, never read as 1 or truncated
    ig = ig_of([4], {(2, 2): 1})
    chan = ChannelSpec(ig.group, np.eye(4))
    with pytest.raises(TypeError, match="trials"):
        mc_channel_error(ig, 1, chan, count, 0)
    with pytest.raises(TypeError, match="samples"):
        verify_pairwise_law(ig, 1, [0], [1], samples=count)
    with pytest.raises(TypeError, match="samples"):
        lemma_suite(ig, 1, samples=count)
    with pytest.raises(TypeError, match="blocklength"):
        sample_hom(ig, count, 0)
    assert mc_channel_error(ig, 1, chan, np.int64(5), 0) == mc_channel_error(
        ig, 1, chan, 5, 0
    )


def test_numpy_counts_are_read_as_ints():
    # a numpy count is read as the int it equals before any cap arithmetic,
    # in which numpy's integers would wrap: |G|^n |H_theta|^n = 2^80 read 0
    z2 = ig_of([2], {(2, 1): 1})
    rep = verify_pairwise_law(z2, np.int64(40), [0], [1], samples=100)
    assert rep == verify_pairwise_law(z2, 40, [0], [1], samples=100)
    assert rep.support_cells == 2**80
    # J = Z_(2^20) at n = 2: tables times dither words are 2^80, so the law
    # samples and refuses its tally, never enumerating 2^40 tables
    wide = ig_of([2**20], {(2, 20): 1})
    for n in (2, np.int64(2)):
        with pytest.raises(ValueError, match="^pairwise tally of 39582418599936 cells"):
            verify_pairwise_law(wide, n, [0], [1])
    # 2^62 tables at the 6 pairs of n = 4 are refused, in either call; their
    # 27,670,116,110,564,327,424 cells are past 64 bits
    z4 = ig_of([4], {(2, 1): 1, (2, 2): 1})
    message = r"^pairwise tally of at least 2\^64 cells \(4611686018427387904 tables"
    for samples in (2**62, np.int64(2**62)):
        with pytest.raises(ValueError, match=message):
            verify_pairwise_law(z4, 4, [0, 0], [1, 1], samples=samples)
        with pytest.raises(ValueError, match=message):
            lemma_suite(z4, 4, samples=samples)
    table = sample_hom(z4, np.int64(2), 0)
    assert type(table.blocklength) is int and table == sample_hom(z4, 2, 0)
    chan = ChannelSpec(z4.group, np.eye(4))
    rep = mc_channel_error(z4, np.int64(3), chan, np.int64(7), 1)
    assert rep == mc_channel_error(z4, 3, chan, 7, 1)
    assert grid_size(z4.group, np.int64(5)) == grid_size(z4.group, 5)


def test_numpy_seeds_are_read_as_ints():
    # a numpy seed is read as the int it equals: the lemma suite's pair seeds,
    # (seed + i) mod 2**64, would ask numpy for 2**64, and a report or table
    # would keep it, its repr reading seed=np.uint64(3)
    ig = ig_of([8], {(2, 3): 2})  # |J|^2 > 64: the suite draws its pairs
    assert lemma_suite(ig, 1, seed=np.int64(5)) == lemma_suite(ig, 1, seed=5)
    report = mc_channel_error(ig, 1, ChannelSpec(ig.group, np.eye(8)), 5, np.uint64(3))
    table = sample_hom(ig, 1, np.uint64(3))
    direct = HomomorphismTable(ig, 1, table.images, table.dither, np.uint64(3))
    assert type(report.seed) is int and "seed=3," in repr(report)
    assert type(table.seed) is int and type(direct.seed) is int


# -- suite --------------------------------------------------------------------


def test_lemma_suite_passes():
    ig = ig_of([4], {(2, 2): 1})
    checks = lemma_suite(ig, 1, samples=60, seed=2)
    assert all(c.passed for c in checks)
    # Z2 and Z4: 2 equations for r = 1, 4 + 12 for r = 2
    assert checks[-1].detail == "18 equations checked, 0 mismatches"
    # the top seed's per-pair offsets pass 2**64 and are accepted
    top = lemma_suite(ig, 1, samples=60, seed=2**64 - 1)
    assert [c.detail for c in top][2:] == [c.detail for c in checks][2:]
    names = [c.name for c in checks]
    assert names == [
        "generator-constraints",
        "homomorphism-law",
        "pairwise-joint-law",
        "census-bound",
        "theta-set-equality",
        "congruence-solver",
    ]


def test_lemma_suite_congruence_check_sampled_above_cap(monkeypatch):
    # above SIZE_CAP equations each coefficient a is checked, on every b, with
    # probability SIZE_CAP / equations: with a cap of 8 of Z4's 18 equations,
    # seed 3 checks two coefficients of Z4 (s = 1, 2), 4 equations each
    ig = ig_of([4], {(2, 2): 1})
    monkeypatch.setattr(ensemble, "SIZE_CAP", 8)
    checks = lemma_suite(ig, 1, samples=8, seed=3)
    assert checks[-1].passed
    assert checks[-1].detail == "8 equations checked (sampled), 0 mismatches"
    assert lemma_suite(ig, 1, samples=8, seed=3)[-1].detail == checks[-1].detail
    monkeypatch.setattr(ensemble, "SIZE_CAP", 18)
    detail = lemma_suite(ig, 1, samples=8, seed=3)[-1].detail
    assert detail == "18 equations checked, 0 mismatches"


def test_lemma_suite_congruence_sample_is_never_empty(monkeypatch):
    # Z4's 18 equations are 2 of Z2's one coefficient and 4 of each of Z4's
    # 1 + 3: under a cap of 8 every seed checks at least one coefficient and
    # at most SIZE_CAP + max p^r = 12 equations, 8 on average over the offsets
    ig = ig_of([4], {(2, 2): 1})
    monkeypatch.setattr(ensemble, "SIZE_CAP", 8)
    form = r"(\d+) equations checked \(sampled\), 0 mismatches"
    for seed in range(100):
        detail = lemma_suite(ig, 1, samples=8, seed=seed)[-1].detail
        assert 2 <= int(re.fullmatch(form, detail)[1]) <= 8 + 4, (seed, detail)


def test_wide_rings_are_refused_not_crashed():
    # a ring of order 2^63 or more has no int64 residues, and every table,
    # selector and law path refuses it before building any; below that each
    # call returns or refuses, and the census builds no residue array at all
    for e in range(70, 29, -1):
        spec = decompose([2**e]).spec
        for slot in (0, e - 1):  # J of one Z2, and of one Z_(2^e)
            counts = [0] * e
            counts[slot] = 1
            ig = InputGroup(spec, tuple(counts))
            # 2^(e-1) is an allowed image of either J, past int64 from e = 64
            half = 2 ** (e - 1)
            calls = [
                lambda: sample_hom(ig, 2, 0),
                lambda: apply_hom(HomomorphismTable(ig, 1, [[[half]]], [[half]]), [1]),
                lambda: pair_theta(ig, [0], [1]),
                lambda: verify_pairwise_law(ig, 1, [0], [1]),
                lambda: lemma_suite(ig, 1),
            ]
            for call in calls:
                try:
                    call()
                except ValueError as exc:
                    if e >= 63:
                        assert str(exc).startswith("ring of ")
                else:
                    assert e < 63
            assert sum(theta_census(ig).values()) == ig.size
            assert t_theta_bound(ig, ThetaVector.zero(spec)) == ig.size


IG4 = ig_of([4], {(2, 1): 1})
Z4, Z8 = IG4.group, decompose([8]).spec


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: InputGroup(Z4, (1,)),
            ValueError,
            "expected 2 counts for slots ((2, 1), (2, 2))",
        ),
        (
            lambda: IG4.element(ig_of([4], {(2, 2): 1}).spec.zero()),
            TypeError,
            "element bound to a different input group",
        ),
        (
            lambda: HomomorphismTable(IG4, 1, np.zeros((0, 1, 1), int), [[0]]),
            ValueError,
            "images and dither have shapes (0, 1, 1) and (1, 1), not (1, 1, 1) and (1, 1)",
        ),
        (
            lambda: HomomorphismTable(IG4, 1, [[[0]]], np.zeros((0, 1), int)),
            ValueError,
            "images and dither have shapes (1, 1, 1) and (0, 1), not (1, 1, 1) and (1, 1)",
        ),
        (
            lambda: HomomorphismTable(IG4, 1, np.zeros((1, 0, 1), int), [[0]]),
            ValueError,
            "images and dither have shapes (1, 0, 1) and (1, 1), not (1, 1, 1) and (1, 1)",
        ),
        (
            lambda: HomomorphismTable(IG4, 1, [[[0.0]]], [[0]]),
            TypeError,
            "images and dither must be integer residue arrays",
        ),
        (
            lambda: HomomorphismTable(IG4, 2, [[[0], [2]]], [[3], [4]]),
            ValueError,
            "dither coord 1: 4 not in Z_4",
        ),
        (
            lambda: HomomorphismTable(IG4, 1, [[[-2]]], [[0]]),
            ValueError,
            "generator image violates ensemble constraints: "
            "(2,1,1)->(2,2,1) coord 0: -2 not in 2^1 Z_4",
        ),
        (
            lambda: mc_channel_error(IG4, 1, ChannelSpec(Z8, np.eye(8)), 5, 0),
            ValueError,
            "channel input alphabet differs from the code group",
        ),
        (
            lambda: solve_congruence(2, 2, 3, 1, 0),
            ValueError,
            "need 1 <= s <= r, got s=3, r=2",
        ),
        (
            lambda: solve_congruence(2, 2, 1, 1, 4),
            ValueError,
            "target 4 must be a residue of Z_4",
        ),
        (
            lambda: HomomorphismTable(IG4, 0, [[[0]]], [[0]], 0),
            ValueError,
            "blocklength must be >= 1, got 0",
        ),
        (
            lambda: HomomorphismTable(IG4, True, [[[0]]], [[0]]),
            TypeError,
            "blocklength must be an integer, got True",
        ),
        (
            lambda: HomomorphismTable(IG4, 1, [[[0]]], [[0]], -1),
            ValueError,
            "seed must be in [0, 2**64), got -1",
        ),
        (
            lambda: HomomorphismTable(IG4, 1, [[[0]]], [[0]], 1.0),
            TypeError,
            "seed must be an integer, got 1.0",
        ),
        (
            lambda: solve_congruence(2, 3, 1, True, 0),
            TypeError,
            "coefficient must be an integer, got True",
        ),
        (
            lambda: solve_congruence(2.0, 3, 1, 1, 0),
            TypeError,
            "modulus base p must be an integer, got 2.0",
        ),
        (
            lambda: solve_congruence(2, 3, 1, 1, 0.0),
            TypeError,
            "target must be an integer, got 0.0",
        ),
    ],
    ids=[
        "counts-length", "element-of-another-input-group", "image-rows", "dither",
        "image-row-length", "image-dtype", "dither-cell", "image-cell",
        "channel-of-another-group", "congruence-s-above-r", "congruence-target",
        "table-blocklength-0", "table-blocklength-bool", "table-seed-negative",
        "table-seed-float", "congruence-bool-coefficient", "congruence-float-prime",
        "congruence-float-target",
    ],
)
def test_refusals_pinned(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_congruence_takes_numpy_integers():
    # numpy integers pass the integer rule, and the solutions are ints
    got = solve_congruence(np.int64(2), np.int64(3), 2, np.int64(2), np.uint8(4))
    assert got == (2, 6) and all(type(x) is int for x in got)


def test_lemma_suite_refuses_its_table_draws_before_drawing(monkeypatch):
    # Z2 with 2,000 components: the constraint check's one table is within
    # the cap, the pairwise law's 1024 sampled tables are not, and the suite
    # refuses them before any table is drawn
    def no_draw(*args, **kwargs):
        raise AssertionError("a table was drawn")

    monkeypatch.setattr(ensemble, "_sample_table", no_draw)
    message = "table draw of 2048000 cells exceeds cap SIZE_CAP=1048576"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        lemma_suite(InputGroup(decompose([2]).spec, (2000,)), 1, samples=1)
    # Z4 at n = 64: both draws are within the cap, but the pairwise law's 1024
    # tables at each of the 2,016 coordinate pairs are not
    message = (
        "pairwise tally of 2064384 cells (1024 tables x 2016 coordinate pairs) "
        "exceeds cap SIZE_CAP=1048576"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        lemma_suite(ig_of([4], {(2, 2): 1}), 64)
    # J = Z_65536 at n = 1: a pair differing by a unit has |H_theta| = 65536,
    # whose floor of 36 tables a cell passes the table-draw cap
    message = "table draw of 2359296 cells exceeds cap SIZE_CAP=1048576"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        lemma_suite(ig_of([65536], {(2, 16): 1}), 1)


def test_lemma_suite_draws_no_table_for_an_exhaustive_pairwise_law():
    # a million samples would be 2,000,000 table cells, but on Z4 at n = 2
    # the pairwise law enumerates its tables and draws none
    checks = lemma_suite(ig_of([4], {(2, 2): 1}), 2, samples=10**6)
    assert all(c.passed for c in checks)
    assert checks[2].detail == "16 pairs (exhaustive), 0 failures"


def test_lemma_suite_refuses_uncovered_prime_before_drawing(monkeypatch):
    # a support with no slot for some prime is refused before any table is drawn
    def no_draw(*args, **kwargs):
        raise AssertionError("a table was drawn")

    monkeypatch.setattr(ensemble, "_sample_table", no_draw)
    message = (
        "support ((2, 1), (2, 2)) has no slot for prime 3: the induced depth is undefined"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        lemma_suite(ig_of([4, 3], {(2, 1): 1, (2, 2): 1}), 1)

