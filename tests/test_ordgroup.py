"""Ordered group: multiplication, the lexicographic order, squares, twists."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gkbench import budget
from gkbench.mqfield import PrimeBasis
from gkbench.ordgroup import EQ, GT, LT, GroupElem
from gkbench.sampling import random_group, random_mq

BASIS = PrimeBasis.first(5)

group_st = st.builds(
    GroupElem,
    st.dictionaries(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=-4, max_value=4).filter(bool),
        max_size=3,
    ),
)


def test_mul_and_inverse():
    x1 = GroupElem.generator(1)
    assert x1 * x1.inv() == GroupElem.identity()
    assert GroupElem.generator(1) * GroupElem.generator(2) == GroupElem({1: 1, 2: 1})
    assert GroupElem({1: 2, 2: -1}).inv() == GroupElem({1: -2, 2: 1})


def test_zero_exponents_dropped():
    assert GroupElem({1: 0, 2: 3}) == GroupElem({2: 3})
    assert GroupElem({3: 1}) * GroupElem({3: -1}) == GroupElem.identity()


def test_indices_start_at_one():
    with pytest.raises(ValueError):
        GroupElem({0: 1})


def test_compare_inverse_generators_ascend():
    # x1^-1 < x2^-1 < x3^-1
    gens = [GroupElem.generator(i, -1) for i in (1, 2, 3)]
    assert gens[0].compare(gens[1]) == LT
    assert gens[1].compare(gens[2]) == LT


def test_compare_first_coordinate_decides():
    assert GroupElem({2: 1}).compare(GroupElem({1: 1})) == LT
    assert GroupElem({1: 1}).compare(GroupElem({2: 1})) == GT


def test_compare_equal():
    g = GroupElem({1: 2, 4: -1})
    assert g.compare(GroupElem({4: -1, 1: 2})) == EQ


def test_rich_comparisons():
    a, b = GroupElem({1: -1}), GroupElem({2: -1})
    assert a < b and b > a and a <= b and not a >= b


def test_in_squares():
    assert GroupElem({1: 2, 2: -4}).in_squares()
    assert not GroupElem({1: 2, 2: 1}).in_squares()
    assert GroupElem.identity().in_squares()


def test_twist_sign_examples():
    x1 = GroupElem.generator(1)
    s1 = BASIS.radical(1)
    assert x1.twist(s1) == -s1
    assert (x1**2).twist(s1) == s1
    assert GroupElem.generator(2).twist(s1) == s1


def test_twist_examples():
    x1 = GroupElem.generator(1)
    s1 = BASIS.radical(1)
    assert x1.twist(s1) == -s1
    q = BASIS.rational(7)
    assert GroupElem({1: 3, 2: -2}).twist(q) == q
    a = random_mq(random.Random(5), BASIS)
    assert (x1**2).twist(a) == a


def test_twist_requires_basis_coverage():
    small = PrimeBasis.first(2)
    with pytest.raises(IndexError):
        GroupElem.generator(3).twist(small.one())


@given(group_st, group_st)
def test_twist_is_homomorphism(x, y):
    a = random_mq(random.Random(42), BASIS, max_terms=4)
    assert (x * y).twist(a) == x.twist(y.twist(a))


@given(group_st, group_st, group_st)
def test_order_is_translation_invariant(x, y, z):
    if x.compare(y) == LT:
        assert (x * z).compare(y * z) == LT


@given(group_st, group_st)
def test_squares_subgroup_closed(x, y):
    assert ((x * x) * (y * y).inv()).in_squares()


@given(group_st, group_st, st.integers(min_value=-5, max_value=5))
def test_in_squares_reads_the_odd_mask_of_products_inverses_and_powers(x, y, k):
    # the squares test reads the mask each operation keeps; it must agree
    # with the exponents themselves
    for g in (x * y, x.inv(), y * x.inv(), x**k, (x * y) ** k):
        assert g.in_squares() == all(e % 2 == 0 for e in g.exps.values())


def test_an_odd_exponent_past_the_budget_is_refused_without_charging():
    # the odd-exponent mask holds a bit per index up to the largest odd one:
    # at index 64 two 64-bit words, past a cap of 1
    saved = budget.cap()
    budget.set_cap(1)
    try:
        with pytest.raises(budget.WorkBudgetExceeded, match="group index 64 with an odd"):
            GroupElem({64: -1})
        assert GroupElem({63: 1, 10**20: 2}).exps == {63: 1, 10**20: 2}
        assert budget.used() == 0
    finally:
        budget.set_cap(saved)


def test_squares_act_trivially():
    rng = random.Random(9)
    for _ in range(100):
        h = random_group(rng, max_index=5) ** 2
        a = random_mq(rng, BASIS, max_terms=4)
        assert h.twist(a) == a


def test_str_rendering():
    assert str(GroupElem.identity()) == "e"
    assert str(GroupElem({1: 2, 3: -1})) == "x1^2*x3^-1"
    assert str(GroupElem({2: 1})) == "x2"
