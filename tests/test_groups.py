import itertools
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupcodes import GroupSpec, Subgroup, ThetaVector, decompose, groups
from groupcodes.groups import GroupElement, factorize


def test_decompose_mixed_group():
    dec = decompose([4, 3, 9, 9])
    assert dec.spec.rings == ((2, 2, 1), (3, 1, 1), (3, 2, 1), (3, 2, 2))
    assert dec.spec.order == 4 * 3 * 9 * 9


def test_decompose_crt_z6():
    dec = decompose([6])
    assert dec.spec.rings == ((2, 1, 1), (3, 1, 1))
    assert dec.to_canonical([5]).residues == (1, 2)
    assert dec.from_canonical(dec.to_canonical([5])) == (5,)


def test_decompose_weight_slots():
    dec = decompose([8, 9, 5])
    assert dec.spec.weight_slots == ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1))


@pytest.mark.parametrize("orders", [[1], [0], [4, 1], [-3]])
def test_decompose_rejects_bad_orders(orders):
    with pytest.raises(ValueError):
        decompose(orders)


def test_factorize():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    with pytest.raises(ValueError):
        factorize(1)


def test_factorize_bounded():
    # trial division stops at 2^20: a cofactor below 2^40 is prime, one at or
    # above it is rejected, naming the order
    assert factorize(10**18) == {2: 18, 5: 18}
    assert factorize(1 << 40) == {2: 40}
    assert factorize(1099511627689) == {1099511627689: 1}  # largest prime < 2^40
    assert factorize(3 * 1099511627689) == {3: 1, 1099511627689: 1}
    with pytest.raises(ValueError, match="order 1099532599387"):
        factorize(1048583 * 1048589)  # both primes just above 2^20
    with pytest.raises(ValueError):
        GroupSpec(((1048583 * 1048589, 1, 1),))
    assert GroupSpec(((1099511627689, 1, 1),)).order == 1099511627689


def test_add_componentwise():
    spec = decompose([4, 3]).spec
    a = spec.element([3, 2])
    b = spec.element([2, 2])
    assert (a + b).residues == (1, 1)


def test_inverse_law_exhaustive():
    spec = decompose([8]).spec
    zero = spec.zero()
    for a in spec.elements():
        assert (a + (-a)) == zero


def test_binding_mismatch_raises():
    a = decompose([4]).spec.element([1])
    b = decompose([2, 2]).spec.element([1, 0])
    with pytest.raises(TypeError):
        a + b


@pytest.mark.parametrize("orders", [[6], [8], [2, 4], [4, 3]])
def test_group_laws_exhaustive_triples(orders):
    spec = decompose(orders).spec
    elements = list(spec.elements())
    zero = spec.zero()
    for a in elements:
        assert a + zero == a
        assert a + (-a) == zero
    for a, b in itertools.product(elements, repeat=2):
        assert a + b == b + a
    for a, b, c in itertools.product(elements, repeat=3):
        assert (a + b) + c == a + (b + c)


def test_group_laws_order_72_pairs():
    spec = decompose([8, 9]).spec
    assert spec.order == 72
    elements = list(spec.elements())
    zero = spec.zero()
    for a in elements:
        assert a + (-a) == zero
    for a, b in itertools.product(elements, repeat=2):
        s = a + b
        assert s == b + a
        assert all(0 <= v < n for v, n in zip(s.residues, spec.moduli))


@pytest.mark.parametrize("orders", [[6], [12], [2, 2]])
def test_decompose_isomorphism_exhaustive(orders):
    dec = decompose(orders)
    tuples = list(itertools.product(*(range(n) for n in orders)))
    images = [dec.to_canonical(t) for t in tuples]
    assert len(set(images)) == dec.spec.order  # bijective
    for t in tuples:
        assert dec.from_canonical(dec.to_canonical(t)) == t
    for ta, tb in itertools.product(tuples, repeat=2):
        summed = tuple((x + y) % n for x, y, n in zip(ta, tb, orders))
        assert dec.to_canonical(summed) == dec.to_canonical(ta) + dec.to_canonical(tb)


def test_decompose_isomorphism_sampled_mixed():
    import numpy as np

    dec = decompose([4, 3, 9, 9])
    orders = dec.orders
    tuples = list(itertools.product(*(range(n) for n in orders)))
    assert len({dec.to_canonical(t) for t in tuples}) == dec.spec.order
    rng = np.random.Generator(np.random.Philox(11))
    for _ in range(500):
        ta = tuple(int(rng.integers(0, n)) for n in orders)
        tb = tuple(int(rng.integers(0, n)) for n in orders)
        summed = tuple((x + y) % n for x, y, n in zip(ta, tb, orders))
        assert dec.to_canonical(summed) == dec.to_canonical(ta) + dec.to_canonical(tb)


def test_subgroup_z8():
    spec = decompose([8]).spec
    h = Subgroup(spec, ThetaVector(spec, (2,)))
    assert sorted(x.residues[0] for x in h.elements()) == [0, 4]
    assert h.index == 4
    assert h.order == 2
    full = Subgroup(spec, ThetaVector.zero(spec))
    assert full.order == 8 and full.index == 1


def test_subgroup_z4_z3():
    spec = decompose([4, 3]).spec
    h = Subgroup(spec, ThetaVector(spec, (1, 0)))
    members = sorted(x.residues for x in h.elements())
    assert members == [(0, 0), (0, 1), (0, 2), (2, 0), (2, 1), (2, 2)]
    assert h.order == 6


def test_theta_bounds_validated():
    spec = decompose([8]).spec
    with pytest.raises(ValueError):
        ThetaVector(spec, (4,))
    with pytest.raises(ValueError):
        ThetaVector(spec, (-1,))
    assert ThetaVector.full(spec).components == (3,)


def test_coset_label_examples():
    spec4 = decompose([4]).spec
    h = Subgroup(spec4, ThetaVector(spec4, (1,)))
    assert h.coset_label(spec4.element([3])) == (1,)

    spec8 = decompose([8]).spec
    h = Subgroup(spec8, ThetaVector(spec8, (2,)))
    assert h.coset_label(spec8.element([6])) == (2,)

    spec24 = decompose([2, 4]).spec
    h = Subgroup(spec24, ThetaVector(spec24, (1, 1)))
    assert h.coset_label(spec24.element([1, 3])) == (1, 1)


@pytest.mark.parametrize("orders", [[8], [2, 4], [4, 3]])
def test_coset_structure_all_thetas(orders):
    spec = decompose(orders).spec
    elements = list(spec.elements())
    ranges = [range(r + 1) for _, r in spec.ring_levels]
    for comps in itertools.product(*ranges):
        h = Subgroup(spec, ThetaVector(spec, comps))
        assert h.order * h.index == spec.order
        zero_label = h.coset_label(spec.zero())
        kernel = {x for x in elements if h.coset_label(x) == zero_label}
        assert kernel == set(h.elements())
        assert len({h.coset_label(x) for x in elements}) == h.index
        # membership criterion: equal labels iff difference in the subgroup
        for x in elements:
            for hh in h.elements():
                assert h.coset_label(x + hh) == h.coset_label(x)


@pytest.mark.parametrize("orders", [[8], [2, 4], [4, 3], [8, 9]])
def test_quotient_law(orders):
    spec = decompose(orders).spec
    elements = list(spec.elements())
    ranges = [range(r + 1) for _, r in spec.ring_levels]
    for comps in itertools.product(*ranges):
        h = Subgroup(spec, ThetaVector(spec, comps))
        table = {}
        for x, y in itertools.product(elements, repeat=2):
            key = (h.coset_label(x), h.coset_label(y))
            label = h.coset_label(x + y)
            assert table.setdefault(key, label) == label


@given(st.data())
def test_label_indices_match_coset_labels_property(data):
    groups = [[2], [8], [9], [2, 2], [2, 4], [4, 3], [2, 4, 8], [8, 9], [4, 4, 3]]
    orders = data.draw(st.sampled_from(groups))
    spec = decompose(orders).spec
    theta = ThetaVector(
        spec, tuple(data.draw(st.integers(0, r)) for _, r in spec.ring_levels)
    )
    h = Subgroup(spec, theta)
    labels = [h.coset_label(x) for x in spec.elements()]
    # equal indices exactly for equal labels, numbered in lexicographic order
    rank = {label: i for i, label in enumerate(sorted(set(labels)))}
    assert len(rank) == h.index
    assert h.label_indices().tolist() == [rank[label] for label in labels]


@given(st.lists(st.integers(1, 9), min_size=1, max_size=4), st.data())
def test_index_inverts_grid_property(radices, data):
    # every digit row's position in _grid, last digit fastest; and a
    # subgroup's label indices are the positions of its labels
    position = groups._index(groups._grid(radices), radices)
    assert position.tolist() == list(range(int(np.prod(radices))))
    orders = data.draw(st.sampled_from([[2], [9], [2, 4], [4, 3], [2, 4, 8], [8, 9]]))
    spec = decompose(orders).spec
    theta = ThetaVector(
        spec, tuple(data.draw(st.integers(0, r)) for _, r in spec.ring_levels)
    )
    h = Subgroup(spec, theta)
    labels = groups._grid(spec.moduli) % h._label_moduli
    want = np.ravel_multi_index(tuple(labels.T), h._label_moduli)
    assert h.label_indices().tolist() == want.tolist()


def test_enumeration_cap(monkeypatch):
    monkeypatch.setattr(groups, "SIZE_CAP", 2)
    spec = decompose([4]).spec
    with pytest.raises(ValueError, match="^group of 4 elements exceeds cap SIZE_CAP=2$"):
        list(spec.elements())
    message = "^subgroup of 4 elements exceeds cap SIZE_CAP=2$"
    with pytest.raises(ValueError, match=message):
        list(Subgroup(spec, ThetaVector.zero(spec)).elements())
    assert len(list(Subgroup(spec, ThetaVector(spec, (1,))).elements())) == 2


def test_groupspec_validation():
    with pytest.raises(ValueError):
        GroupSpec(((4, 1, 1),))  # 4 is not prime
    with pytest.raises(ValueError):
        GroupSpec(((2, 1, 2),))  # multiplicity must start at 1
    with pytest.raises(ValueError):
        GroupElement(decompose([4]).spec, (5,))


Z43, Z8 = decompose([4, 3]), decompose([8])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: GroupSpec(()), ValueError, "a group needs at least one ring"),
        (
            lambda: GroupSpec(((3, 1, 1), (2, 1, 1))),
            ValueError,
            "rings must be sorted by (p, r, m)",
        ),
        (lambda: GroupSpec(((2, 0, 1),)), ValueError, "ring exponent 0 must be >= 1"),
        (lambda: Z43.spec.element([1]), ValueError, "expected 2 residues, got 1"),
        (
            lambda: GroupElement(Z43.spec, (1,)),
            ValueError,
            "residue vector length does not match ring count",
        ),
        (
            lambda: Z43.spec.zero() + 1,
            TypeError,
            "cannot combine GroupElement with int",
        ),
        (
            lambda: ThetaVector(Z43.spec, (1,)),
            ValueError,
            "expected 2 components for levels ((2, 2), (3, 1)), got 1",
        ),
        (
            lambda: Subgroup(Z43.spec, ThetaVector.zero(Z8.spec)),
            ValueError,
            "theta bound to a different group",
        ),
        (
            lambda: Subgroup(Z8.spec, ThetaVector.zero(Z8.spec)).coset_label(
                Z43.spec.zero()
            ),
            TypeError,
            "element bound to a different group",
        ),
        (
            lambda: Z43.from_canonical(Z8.spec.zero()),
            TypeError,
            "element bound to a different group",
        ),
        (lambda: Z43.to_canonical([1]), ValueError, "expected 2 values, got 1"),
        (lambda: Z43.to_canonical([4, 0]), ValueError, "value 4 out of range for Z_4"),
        (
            lambda: Z43.to_canonical((True, 2)),
            TypeError,
            "value must be an integer, got True",
        ),
        (
            lambda: Z43.to_canonical((1.0, 2)),
            TypeError,
            "value must be an integer, got 1.0",
        ),
        (lambda: decompose([]), ValueError, "need at least one cyclic order"),
        # the integer rule: a float or a bool is refused, not read as a number
        (
            lambda: GroupSpec(((2, 1.5, 1),)),
            TypeError,
            "ring exponent must be an integer, got 1.5",
        ),
        (
            lambda: GroupSpec(((2, True, 1),)),
            TypeError,
            "ring exponent must be an integer, got True",
        ),
        (
            lambda: GroupSpec(((2.0, 1, 1),)),
            TypeError,
            "ring prime must be an integer, got 2.0",
        ),
        (
            lambda: GroupSpec(((2, 1, np.True_),)),
            TypeError,
            "ring multiplicity must be an integer, got np.True_",
        ),
        (
            lambda: ThetaVector(Z8.spec, (1.5,)),
            TypeError,
            "selector component must be an integer, got 1.5",
        ),
        (
            lambda: Z8.spec.element([1.5]),
            TypeError,
            "residue must be an integer, got 1.5",
        ),
        (
            lambda: Z8.spec.element([True]),
            TypeError,
            "residue must be an integer, got True",
        ),
        (
            lambda: GroupElement(Z8.spec, (2.0,)),
            TypeError,
            "residue must be an integer, got 2.0",
        ),
    ],
    ids=[
        "no-rings", "unsorted-rings", "exponent-0", "element-length",
        "group-element-length", "add-int", "theta-length", "subgroup-theta",
        "coset-label", "from-canonical", "to-canonical-length",
        "to-canonical-range", "to-canonical-bool", "to-canonical-float",
        "decompose-empty", "ring-exponent-float", "ring-exponent-bool", "ring-prime-float", "ring-multiplicity-bool",
        "theta-float", "element-float", "element-bool", "group-element-float",
    ],
)
def test_refusals_pinned(call, error, message):
    # each refusal's type and whole message
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_integer_rule_takes_numpy_integers():
    # numpy integers pass the integer rule, and a group keeps its rings as ints
    spec = GroupSpec(((np.int64(2), np.int64(3), np.int64(1)),))
    assert spec == Z8.spec and all(type(v) is int for v in spec.rings[0])
    assert spec.element([np.int64(9)]).residues == (1,)
    assert ThetaVector(spec, (np.int64(2),)) == ThetaVector(spec, (2,))
