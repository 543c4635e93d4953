"""The integer bitmask kernel of `MQElem` against the Fraction oracle in
mqoracle.py: products, inverses, sums, sign flips, the `coeffs` view, word
sizes, and bases too large for any table of 2^n entries."""

import random
from fractions import Fraction
from math import gcd

from hypothesis import given
from hypothesis import strategies as st

from gkbench.mqfield import MQElem, PrimeBasis
from gkbench.ordgroup import GroupElem
from gkbench.ringops import words
from gkbench.sampling import random_mq
from mqoracle import mq_add, mq_flip, mq_mul

BASES = [PrimeBasis.first(n) for n in range(7)]
fractions_st = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def all_subsets(n):
    return [frozenset(i for i in range(1, n + 1) if m >> (i - 1) & 1) for m in range(1 << n)]


@st.composite
def mq_case(draw):
    """A basis of n <= 6 primes, two elements over it, an index, a group
    element; an element is dense (all 2^n terms) about half the time."""
    n = draw(st.integers(min_value=0, max_value=6))
    subsets = all_subsets(n)

    def element():
        if draw(st.booleans()):
            nonzero = fractions_st.filter(bool)
            values = draw(st.lists(nonzero, min_size=len(subsets), max_size=len(subsets)))
            coeffs = dict(zip(subsets, values))
        else:
            coeffs = draw(st.dictionaries(st.sampled_from(subsets), fractions_st, max_size=5))
        return MQElem(BASES[n], coeffs)

    a, b = element(), element()
    i = draw(st.integers(min_value=1, max_value=max(n, 1)))
    exps = draw(st.dictionaries(st.integers(min_value=1, max_value=max(n, 1)), st.integers(-3, 3)))
    return BASES[n], a, b, i, GroupElem(exps if n else {})


@given(mq_case())
def test_kernel_agrees_with_the_fraction_oracle(case):
    basis, a, b, i, g = case
    primes = basis.primes
    assert (a * b).coeffs == mq_mul(primes, a.coeffs, b.coeffs)
    assert (a + b).coeffs == mq_add(a.coeffs, b.coeffs)
    assert (-a).coeffs == {s: -v for s, v in a.coeffs.items()}
    if a:
        assert a * a.inv() == basis.one()
    if len(basis):
        assert a.apply_f(i).coeffs == mq_flip(a.coeffs, {i})
    odd = {j for j, e in g.exps.items() if e % 2}
    assert g.twist(a).coeffs == mq_flip(a.coeffs, odd)
    rebuilt = MQElem(basis, a.coeffs)
    assert rebuilt == a and hash(rebuilt) == hash(a)
    for value in (a, b, a * b, a + b, a - a):
        assert value.den > 0 and all(type(c) is int and c for c in value.terms.values())
        assert gcd(value.den, *value.terms.values()) == 1


def test_dense_elements_agree_with_the_oracle():
    rng = random.Random(6)
    for n in (4, 5, 6):
        basis, subsets = BASES[n], all_subsets(n)
        for _ in range(3):
            a, b = (
                MQElem(basis, {s: Fraction(rng.choice((-5, -2, 1, 3)), rng.randint(1, 6)) for s in subsets})
                for _ in range(2)
            )
            assert len(a.terms) == 1 << n and a.den > 1
            assert (a * b).coeffs == mq_mul(basis.primes, a.coeffs, b.coeffs)
            assert a * a.inv() == basis.one()
            assert a.apply_f(n).coeffs == mq_flip(a.coeffs, {n})


def fraction_words(value):
    """The size formula of a Fraction map: words of each numerator and denominator."""
    return sum(words(v.numerator) + words(v.denominator) for v in value.coeffs.values())


def test_words_match_the_fraction_formula():
    rng = random.Random(9)
    for n in (0, 3, 6):
        basis = BASES[n]
        for _ in range(200):
            a = random_mq(rng, basis, max_terms=6)
            b = random_mq(rng, basis, max_terms=6, nonzero=True)
            for value in (a, a * b, a + b, b.inv(), b**3):
                assert value._words() == fraction_words(value)
    big = BASES[2].element({(1,): Fraction(2**70, 3), (2,): Fraction(1, 2**65), (): 6})
    assert big._words() == fraction_words(big) == (2 + 1) + (1 + 2) + (1 + 1)


def test_sixty_four_primes():
    basis = PrimeBasis.first(64)
    p64 = basis.primes[-1]
    assert p64 == 311
    assert basis.radical(64) * basis.radical(64) == basis.rational(p64)
    top = basis.radical(64) + basis.radical(1) * basis.radical(63)
    assert top * top.inv() == basis.one()
    assert str(top) == "s1*s63 + s64"
