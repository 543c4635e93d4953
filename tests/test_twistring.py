"""Twisted group ring: convolution with twist, commutators, centrality tests."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gkbench.mqfield import MQElem, PrimeBasis
from gkbench.ordgroup import GroupElem
from gkbench.sampling import random_central_twisted, random_fraction, random_subset, random_twisted
from gkbench.twistring import TwistedElem

BASIS = PrimeBasis.first(4)


def gen(i, power=1):
    return TwistedElem.from_group(BASIS, GroupElem.generator(i, power))


def rad(i):
    return TwistedElem.from_scalar(BASIS.radical(i))


def test_add_cancellation():
    x1 = gen(1)
    assert (x1 + (-x1)).is_zero()


def test_add_merges_coefficients():
    g = GroupElem.generator(1)
    a = TwistedElem(BASIS, {g: BASIS.radical(1)})
    b = TwistedElem(BASIS, {g: BASIS.radical(2)})
    assert a + b == TwistedElem(BASIS, {g: BASIS.radical(1) + BASIS.radical(2)})


def test_add_zero_identity():
    a = random_twisted(random.Random(3), BASIS)
    assert TwistedElem.zero(BASIS) + a == a


def test_mul_sign_rule():
    # x_i moves left past sqrt(p_i) with a sign flip; other radicals commute
    assert gen(1) * rad(1) == TwistedElem(BASIS, {GroupElem.generator(1): -BASIS.radical(1)})
    assert gen(2) * rad(1) == TwistedElem(BASIS, {GroupElem.generator(2): BASIS.radical(1)})


def test_mul_sign_rule_powers():
    for n in range(1, 7):
        for i in range(1, 5):
            xin = gen(i, n)
            lhs = xin * rad(i)
            rhs = rad(i) * xin
            assert lhs == (rhs if n % 2 == 0 else -rhs)
            j = 1 + (i % 4)
            assert gen(j, n) * rad(i) == rad(i) * gen(j, n)


def test_commutator_examples():
    x1 = gen(1)
    expected = TwistedElem(
        BASIS, {GroupElem.generator(1): BASIS.rational(-2) * BASIS.radical(1)}
    )
    assert x1.commutator(rad(1)) == expected
    assert x1.commutator(gen(2)).is_zero()
    assert random_twisted(random.Random(0), BASIS).commutator(
        TwistedElem.one(BASIS)
    ).is_zero()


def test_basis_mismatch():
    other = PrimeBasis.first(2)
    with pytest.raises(ValueError):
        TwistedElem.one(BASIS) * TwistedElem.one(other)


def test_center_by_form_examples():
    assert TwistedElem.from_scalar(BASIS.rational(2)).is_central_by_form()
    assert gen(1, 2).is_central_by_form()
    assert not TwistedElem(
        BASIS, {GroupElem.generator(1, 2): BASIS.radical(1)}
    ).is_central_by_form()


def test_center_by_commutation_examples():
    assert gen(1, 2).is_central_by_commutation(3)
    assert not rad(1).is_central_by_commutation(1)
    assert TwistedElem.from_scalar(BASIS.rational(5)).is_central_by_commutation(4)


def test_commutation_bound_validation():
    elem = TwistedElem(BASIS, {GroupElem.generator(3): BASIS.one()})
    with pytest.raises(ValueError, match="^generator bound m=2 is smaller than the largest index 3$"):
        elem.is_central_by_commutation(2)
    with pytest.raises(ValueError, match="^basis has 4 primes, fewer than the bound m=5$"):
        TwistedElem.one(BASIS).is_central_by_commutation(5)


def test_center_tests_agree_on_randoms():
    rng = random.Random(77)
    for _ in range(300):
        if rng.random() < 0.4:
            elem = random_central_twisted(rng, BASIS)
        else:
            elem = random_twisted(rng, BASIS, max_terms=4)
        assert elem.is_central_by_form() == elem.is_central_by_commutation(4)


@st.composite
def central_or_broken(draw):
    """(element, central): a support of squares with rational coefficients
    over 1 to 6 primes, central by construction, or the same with one term
    broken by an odd exponent on its group element or a radical added to
    its coefficient."""
    n = draw(st.integers(1, 6))
    basis = PrimeBasis.first(n)
    squares = st.dictionaries(st.integers(1, n), st.integers(-2, 2), max_size=3).map(
        lambda exps: GroupElem({i: 2 * e for i, e in exps.items()}))
    rationals = st.fractions(max_denominator=2**20).filter(bool).map(basis.rational)
    terms = draw(st.dictionaries(squares, rationals, max_size=4))
    if not terms or draw(st.booleans()):
        return TwistedElem(basis, terms), True
    g = draw(st.sampled_from(sorted(terms)))
    if draw(st.booleans()):
        odd = GroupElem.generator(draw(st.integers(1, n)), draw(st.sampled_from((-3, -1, 1, 3))))
        terms[g * odd] = terms.pop(g)
    else:
        radicals = draw(st.frozensets(st.integers(1, n), min_size=1))
        terms[g] += MQElem(basis, {radicals: draw(st.fractions().filter(bool))})
    return TwistedElem(basis, terms), False


@given(central_or_broken())
def test_center_tests_agree_by_construction(case):
    elem, central = case
    n = len(elem.parent)
    assert elem.is_central_by_commutation(n) == elem.is_central_by_form() == central


def test_non_mq_operands_are_type_errors():
    g = GroupElem.generator(1)
    for coeff in (Fraction(1, 2), 3):
        with pytest.raises(TypeError, match="^coefficients must be MQElems$"):
            TwistedElem(BASIS, {g: coeff})
    x = gen(1)
    with pytest.raises(TypeError):
        x * 3
    with pytest.raises(TypeError, match="^commutator needs a TwistedElem$"):
        x.commutator(3)


def test_samplers_build_what_the_validating_constructors_build():
    """random_twisted (through random_group and random_mq) builds with the
    trusted constructors; replaying its draws through the public ones gives
    equal values, equal odd-exponent masks and the same rng state."""
    for seed in range(300):
        rng, replay = random.Random(seed), random.Random(seed)
        sampled = random_twisted(rng, BASIS, max_terms=4)
        terms = {}
        for _ in range(replay.randint(0, 4)):
            support = replay.sample(range(1, 5), replay.randint(0, 3))
            g = GroupElem({i: replay.choice([-3, -2, -1, 1, 2, 3]) for i in support})
            coeffs = {}
            for _ in range(replay.randint(0, 2)):
                coeffs[random_subset(replay, 4)] = random_fraction(replay)
            terms[g] = MQElem(BASIS, coeffs)
        expected = TwistedElem(BASIS, terms)
        assert sampled == expected and rng.getstate() == replay.getstate()
        assert {g: g._odd for g in sampled.terms} == {g: g._odd for g in expected.terms}


def test_associativity_and_distributivity():
    rng = random.Random(101)
    for _ in range(250):
        a = random_twisted(rng, BASIS)
        b = random_twisted(rng, BASIS)
        c = random_twisted(rng, BASIS)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_unit_and_group_inverses():
    rng = random.Random(11)
    one = TwistedElem.one(BASIS)
    for _ in range(100):
        a = random_twisted(rng, BASIS)
        assert one * a == a and a * one == a
        g = GroupElem({1: rng.randint(-3, 3), 2: rng.randint(-3, 3)})
        x = TwistedElem.from_group(BASIS, g)
        xinv = TwistedElem.from_group(BASIS, g.inv())
        assert x * xinv == one and xinv * x == one


def test_reduction_rules_behind_the_monomial_model():
    # the affine growth model treats radical squares and generator squares as
    # central scalars; confirm both facts inside the ring itself
    for i in range(1, 5):
        assert rad(i) * rad(i) == TwistedElem.from_scalar(
            BASIS.rational(BASIS.prime(i))
        )
        assert gen(i, 2).is_central_by_form()
        assert gen(i, 2).is_central_by_commutation(4)


def test_str_rendering_sorted_by_group_order():
    elem = TwistedElem(
        BASIS,
        {
            GroupElem.generator(1): BASIS.one() + BASIS.radical(1),
            GroupElem.identity(): BASIS.rational(2),
            GroupElem.generator(1, -1): -BASIS.one(),
        },
    )
    # ascending group order: x1^-1 < e < x1
    assert str(elem) == "-x1^-1 + 2 + (1 + s1)*x1"
