import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupcodes import (
    ChannelSpec,
    SourceJoint,
    ThetaVector,
    coset_mi_channel,
    coset_mi_channel_chain,
    coset_mi_source,
    decompose,
    entropy,
    mutual_information,
)
from groupcodes import groups
from groupcodes.groups import Subgroup, _walk_schedule
from groupcodes.measures import ValidationError, _coset_entropies, _coset_terms
from groupcodes.measures import _row_entropies
from groupcodes.measures import mi_per_coset
from groupcodes.rates import all_reachable_thetas, channel_terms, source_terms

from conftest import make_rng, random_additive_channel, random_channel, random_source_joint


def mi_oracle(joint):
    """Independent route: direct KL form sum p(x,y) log p(x,y)/(p(x)p(y))."""
    joint = np.asarray(joint, dtype=float)
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    total = 0.0
    for i, j in itertools.product(range(joint.shape[0]), range(joint.shape[1])):
        p = joint[i, j]
        if p > 0:
            total += p * math.log2(p / (px[i] * py[j]))
    return total


def test_entropy_examples():
    assert entropy([0.5, 0.5]) == 1.0
    assert entropy([1.0, 0.0]) == 0.0
    assert entropy([0.25] * 4) == 2.0


def test_entropy_validation():
    with pytest.raises(ValidationError):
        entropy([0.5, 0.6])
    with pytest.raises(ValidationError):
        entropy([1.5, -0.5])


def test_mutual_information_examples():
    assert mutual_information(np.eye(4) / 4) == 2.0
    assert mutual_information(np.full((4, 4), 1 / 16)) == 0.0
    assert mutual_information(np.full((3, 5), 1 / 15)) < 1e-12
    joint = [[3 / 8, 1 / 8], [1 / 8, 3 / 8]]
    expected = mi_oracle(joint)  # = 1 - h2(1/4) ~ 0.18872
    assert abs(expected - 0.18872187554086717) < 1e-12
    assert abs(mutual_information(joint) - expected) < 1e-12


def test_mutual_information_validation():
    with pytest.raises(ValidationError):
        mutual_information([[0.5, 0.6]])
    with pytest.raises(ValidationError):
        mutual_information([0.5, 0.5])


def test_mi_matches_oracle_randomized():
    rng = make_rng(21)
    for _ in range(20):
        joint = rng.dirichlet(np.ones(12)).reshape(3, 4)
        assert abs(mutual_information(joint) - mi_oracle(joint)) < 1e-12


def test_channel_validation():
    spec = decompose([4]).spec
    with pytest.raises(ValidationError):
        ChannelSpec(spec, np.ones((4, 2)))  # rows sum to 2
    with pytest.raises(ValidationError):
        ChannelSpec(spec, np.eye(3))  # wrong row count
    with pytest.raises(ValidationError):
        ChannelSpec(spec, [[0.5, float("nan")]] + [[0.5, 0.5]] * 3)


def test_source_joint_validation():
    spec = decompose([4]).spec
    with pytest.raises(ValidationError):
        SourceJoint(spec, np.full((2, 4), 0.25))  # sums to 2
    # non-uniform reconstruction marginal is rejected, not repaired
    bad = np.array([[0.4, 0.1, 0.25, 0.25]]) * 1.0
    with pytest.raises(ValidationError):
        SourceJoint(spec, bad)
    # distortion target enforced
    joint = np.eye(4) / 4
    d = 1.0 - np.eye(4)
    SourceJoint(spec, joint, d, 0.0)  # E[d] = 0, fine
    with pytest.raises(ValidationError):
        SourceJoint(spec, np.full((4, 4), 1 / 16), d, 0.1)  # E[d] = 0.75
    with pytest.raises(ValidationError):
        SourceJoint(spec, joint, None, 0.1)  # target without matrix
    # non-finite distortion data would make E[d] nan
    z2 = decompose([2]).spec
    half = [[0.5, 0.0], [0.0, 0.5]]
    for bad_d in ([[0, float("nan")], [1, 0]], [[0, float("inf")], [1, 0]]):
        with pytest.raises(ValidationError):
            SourceJoint(z2, half, bad_d)
        with pytest.raises(ValidationError):
            SourceJoint(z2, half, bad_d, 0.5)
    for target in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            SourceJoint(z2, half, [[0, 1], [1, 0]], target)


def test_coset_mi_source_endpoints():
    spec = decompose([4]).spec
    rng = make_rng(3)
    sj = random_source_joint(spec, 3, rng)
    assert coset_mi_source(sj, ThetaVector.zero(spec)) == 0.0
    full = coset_mi_source(sj, ThetaVector.full(spec))
    assert abs(full - mutual_information(sj.joint)) < 1e-12


def test_coset_mi_source_identity_coupling():
    # X = U with uniform marginals on Z_4; merging to 2 cosets leaves 1 bit
    spec = decompose([4]).spec
    sj = SourceJoint(spec, np.eye(4) / 4)
    theta = ThetaVector(spec, (1,))
    # brute-force oracle: merge columns by hand and evaluate directly
    merged = np.zeros((4, 2))
    for u in range(4):
        merged[:, u % 2] += sj.joint[:, u]
    assert abs(coset_mi_source(sj, theta) - mi_oracle(merged)) < 1e-12
    assert abs(coset_mi_source(sj, theta) - 1.0) < 1e-12


def test_coset_mi_channel_identity():
    spec = decompose([4]).spec
    chan = ChannelSpec(spec, np.eye(4))
    assert abs(coset_mi_channel(chan, ThetaVector(spec, (1,))) - 1.0) < 1e-12
    assert coset_mi_channel(chan, ThetaVector.full(spec)) == 0.0


def test_coset_mi_channel_merged_pair():
    # inputs 1 and 3 produce the same output symbol
    spec = decompose([4]).spec
    w = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0], [0, 0, 1]], dtype=float)
    chan = ChannelSpec(spec, w)
    theta = ThetaVector(spec, (1,))
    # brute-force oracle over the 4x3 table: coset {0,2} resolves fully,
    # coset {1,3} is blind
    per_coset = []
    for coset in ([0, 2], [1, 3]):
        sub = w[coset] / len(coset)
        per_coset.append(mi_oracle(sub))
    expect = sum(per_coset) / 2
    assert abs(expect - 0.5) < 1e-12
    assert abs(coset_mi_channel(chan, theta) - expect) < 1e-12


@pytest.mark.parametrize("orders", [[4], [8], [2, 4]])
def test_channel_routes_agree(orders):
    spec = decompose(orders).spec
    rng = make_rng(40 + spec.order)
    ranges = [range(r + 1) for _, r in spec.ring_levels]
    for trial in range(10):
        chan = random_channel(spec, int(rng.integers(2, 6)), rng)
        for comps in itertools.product(*ranges):
            theta = ThetaVector(spec, comps)
            a = coset_mi_channel(chan, theta)
            b = coset_mi_channel_chain(chan, theta)
            assert 0.0 <= a <= math.log2(spec.order) + 1e-12
            assert abs(a - b) < 1e-10


@pytest.mark.parametrize("orders", [[4], [8], [2, 4]])
def test_channel_monotone_in_theta(orders):
    # deeper selectors condition on more and can only lose information
    spec = decompose(orders).spec
    rng = make_rng(60 + spec.order)
    ranges = [range(r + 1) for _, r in spec.ring_levels]
    thetas = [ThetaVector(spec, c) for c in itertools.product(*ranges)]
    for _ in range(10):
        chan = random_channel(spec, 4, rng)
        values = {t: coset_mi_channel(chan, t) for t in thetas}
        for ta, tb in itertools.product(thetas, repeat=2):
            if ta.dominates(tb):
                assert values[ta] <= values[tb] + 1e-10


@pytest.mark.parametrize("orders", [[4], [8], [2, 4]])
def test_source_monotone_in_theta(orders):
    # a coarser coset variable is a function of a finer one
    spec = decompose(orders).spec
    rng = make_rng(80 + spec.order)
    ranges = [range(r + 1) for _, r in spec.ring_levels]
    thetas = [ThetaVector(spec, c) for c in itertools.product(*ranges)]
    for _ in range(10):
        sj = random_source_joint(spec, 4, rng)
        values = {t: coset_mi_source(sj, t) for t in thetas}
        for ta, tb in itertools.product(thetas, repeat=2):
            if ta.dominates(tb):
                assert values[tb] <= values[ta] + 1e-10


@pytest.mark.parametrize("orders", [[4], [8]])
def test_additive_channels_have_equal_coset_terms(orders):
    # group-symmetric channels: every coset of every selector carries the
    # same conditional information
    spec = decompose(orders).spec
    rng = make_rng(100 + spec.order)
    ranges = [range(r + 1) for _, r in spec.ring_levels]
    for _ in range(10):
        chan = random_additive_channel(spec, rng)
        for comps in itertools.product(*ranges):
            theta = ThetaVector(spec, comps)
            per = mi_per_coset(chan, theta)
            assert max(per) - min(per) < 1e-10


# -- the walk against per-coset oracles on the label array -------------------


def per_coset_oracle(chan, theta):
    """One mutual information per coset: rows gathered by a stable sort of
    the label array, so each coset keeps its rows in canonical order."""
    h = Subgroup(chan.group, theta)
    rows = chan.matrix[np.argsort(h.label_indices(), kind="stable")]
    blocks = rows.reshape(h.index, h.order, chan.output_size) / h.order
    return [mutual_information(block) for block in blocks]


def merged_source_oracle(sj, theta):
    """I([U]_theta; X) with the joint's columns added into their cosets one
    element at a time."""
    h = Subgroup(sj.group, theta)
    merged = np.zeros((sj.source_size, h.index))
    np.add.at(merged.T, h.label_indices(), sj.joint.T)
    return mutual_information(merged)


@given(
    st.lists(st.sampled_from([2, 3, 4, 5, 6, 8, 9, 12]), min_size=1, max_size=3),
    st.integers(0, 2**32),
    st.integers(2, 5),
)
def test_reshape_route_matches_oracles_property(orders, seed, letters):
    spec = decompose(orders).spec
    rng = make_rng(seed)
    chan = random_channel(spec, letters, rng)
    sj = random_source_joint(spec, letters, rng)
    ranges = [range(r + 1) for _, r in spec.ring_levels]
    for comps in itertools.product(*ranges):
        theta = ThetaVector(spec, comps)
        per = per_coset_oracle(chan, theta)
        mean = sum(per) / len(per)
        assert np.allclose(mi_per_coset(chan, theta), per, rtol=0, atol=1e-12)
        assert abs(coset_mi_channel(chan, theta) - mean) < 1e-12
        assert abs(coset_mi_channel_chain(chan, theta) - mean) < 1e-12
        assert abs(coset_mi_source(sj, theta) - merged_source_oracle(sj, theta)) < 1e-12


@pytest.mark.parametrize("orders", [[2], [8], [4, 3], [2, 4, 9]])
def test_endpoint_terms_are_exactly_zero(orders):
    # INFO_ZERO_TOL treats tiny terms as zero, but the endpoint selectors
    # must not rely on it: the full selector conditions on X itself, and the
    # zero selector merges every reconstruction symbol into one coset
    spec = decompose(orders).spec
    rng = make_rng(120 + spec.order)
    full, zero = ThetaVector.full(spec), ThetaVector.zero(spec)
    for _ in range(5):
        chan = random_channel(spec, 4, rng)
        sj = random_source_joint(spec, 4, rng)
        assert coset_mi_channel(chan, full) == 0.0
        assert channel_terms(chan)[full] == 0.0
        assert mi_per_coset(chan, full) == [0.0] * spec.order
        assert coset_mi_source(sj, zero) == 0.0
        assert source_terms(sj)[zero] == 0.0


# -- the walk against the per-selector reshape route --------------------------


def split_shape(spec, theta):
    """The shape that splits each ring axis p^r of the canonical element
    order into (p^(r - theta), p^theta): the high axis runs over a coset, the
    low axis is the coset label.  High axes sit at the even positions."""
    shape = []
    for (p, r, _), level in zip(spec.rings, spec._ring_level_index):
        shape += [p ** (r - theta[level]), p ** theta[level]]
    return tuple(shape)


def coset_sums(spec, theta, values):
    """Values [order, ...] summed over each coset of theta, in label order,
    by one reshape and one sum over the high axes."""
    shape = split_shape(spec, theta)
    cells = values.reshape(shape + values.shape[1:])
    sums = cells.sum(axis=tuple(range(0, len(shape), 2)))
    return sums.reshape((-1,) + values.shape[1:])


def reshape_coset_entropy(data, theta):
    """H(Y | [X]_theta) of a channel or H(X | [U]_theta) of a joint, from
    the coset sums of one selector."""
    if isinstance(data, ChannelSpec):
        sums = coset_sums(data.group, theta, data.matrix)
        return float(_row_entropies(sums / (data.group.order // len(sums))).mean())
    sums = coset_sums(data.group, theta, data.joint.T)
    mass = sums.sum(axis=1)
    return float(mass @ _row_entropies(sums / mass[:, None]))


def reshape_terms(data, thetas):
    """The coset terms of each selector (component tuples), one reshape per
    selector: the route the walk replaced."""
    levels = data.group.ring_levels
    if isinstance(data, ChannelSpec):
        h_y_x = reshape_coset_entropy(data, [r for _, r in levels])
        return [max(0.0, reshape_coset_entropy(data, th) - h_y_x) for th in thetas]
    h_x = reshape_coset_entropy(data, [0] * len(levels))
    return [max(0.0, h_x - reshape_coset_entropy(data, th)) for th in thetas]


# repeated levels, mixed primes and deep rings, then random groups
WALK_GROUPS = [[4, 4], [2, 2, 2], [4, 9, 5], [8, 8, 3], [1024], [243, 4]]


@given(
    st.one_of(
        st.sampled_from(WALK_GROUPS),
        st.lists(st.sampled_from([2, 3, 4, 8, 9, 16, 25, 27]), min_size=1, max_size=3),
    ),
    st.integers(0, 2**32),
    st.integers(2, 5),
)
def test_walk_matches_reshape_route_property(orders, seed, letters):
    spec = decompose(orders).spec
    rng = make_rng(seed)
    chan = random_channel(spec, letters, rng)
    sj = random_source_joint(spec, letters, rng)
    thetas = all_reachable_thetas(spec)
    comps = [th.components for th in thetas]
    chan_terms = channel_terms(chan)
    for data, terms, single, endpoint in (
        (chan, chan_terms, coset_mi_channel, ThetaVector.full(spec)),
        (sj, source_terms(sj), coset_mi_source, ThetaVector.zero(spec)),
    ):
        assert list(terms) == list(thetas)
        oracle = reshape_terms(data, comps)
        assert np.allclose(list(terms.values()), oracle, rtol=0, atol=1e-12)
        assert terms[endpoint] == 0.0
        assert single(data, endpoint) == 0.0
        for th in thetas:
            assert single(data, th) == terms[th]
    for th in thetas:
        assert abs(coset_mi_channel_chain(chan, th) - chan_terms[th]) < 1e-12


@pytest.mark.parametrize("orders", [[4, 2], [8, 2, 9, 3], [16, 4, 25]])
def test_grid_terms_nan_off_walked_rows(orders):
    # the terms are one array over the selector grid: the reachable rows
    # hold the terms, every other row is NaN; given rows, those rows and the
    # endpoint hold them
    spec = decompose(orders).spec
    grid, *_, reachable = spec._selector_layer
    assert not reachable.all()
    rng = make_rng(spec.order)
    chan = random_channel(spec, 3, rng)
    sj = random_source_joint(spec, 3, rng)
    thetas = all_reachable_thetas(spec)
    for data, terms_of, endpoint in (
        (chan, channel_terms, len(grid) - 1),
        (sj, source_terms, 0),
    ):
        terms = _coset_terms(data)
        assert np.array_equal(np.isnan(terms), ~reachable)
        assert terms[reachable].tolist() == list(terms_of(data).values())
        oracle = reshape_terms(data, [th.components for th in thetas])
        assert np.allclose(terms[reachable], oracle, rtol=0, atol=1e-12)
        row = int(np.flatnonzero(reachable)[1])
        single = _coset_terms(data, [row])
        assert np.flatnonzero(~np.isnan(single)).tolist() == sorted({row, endpoint})
        assert single[row] == terms[row] and single[endpoint] == 0.0


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("orders", [[8, 8, 8, 27], [16, 27, 25]])
def test_walk_memory_within_reshape_route(orders):
    # the walk keeps one entropy batch, at most the input's size, and drops
    # each array once its children are done: no more memory than one
    # selector's reshape
    spec = decompose(orders).spec
    rng = make_rng(140)
    comps = [th.components for th in all_reachable_thetas(spec)]
    for letters in (2, 6):
        chan = random_channel(spec, letters, rng)
        sj = random_source_joint(spec, letters, rng)
        for data, terms_of in ((chan, channel_terms), (sj, source_terms)):
            terms_of(data)  # the group's plan is built once, outside the peak
            oracle_peak = traced_peak(reshape_terms, data, comps)
            assert traced_peak(terms_of, data) <= oracle_peak


@pytest.mark.parametrize("orders", [[4, 9], [2, 4, 8], [32]])
def test_small_group_terms_take_one_entropy_batch(monkeypatch, orders):
    # below ENTROPY_BATCH_FLOOR rows a group's terms take one batch; a row's
    # entropy does not depend on its batch, so batches capped at |G| rows,
    # as without the floor, give the same entropies bit for bit
    spec = decompose(orders).spec
    rng = make_rng(spec.order)
    _, batches = spec._walk_layer
    assert len(batches) == 1
    monkeypatch.setattr(groups, "ENTROPY_BATCH_FLOOR", 1)
    capped = _walk_schedule(spec, np.flatnonzero(spec._selector_layer[-1]))
    assert len(capped[1]) > 1
    for data in (random_channel(spec, 3, rng), random_source_joint(spec, 3, rng)):
        one = _coset_entropies(data, *spec._walk_layer)
        assert np.array_equal(one, _coset_entropies(data, *capped), equal_nan=True)
