"""The packed `QPoly` product against the per-term-pair oracle in
qoracle.py: every workload level plus t = 0, n = 1..4, mixed denominators,
numerators past 2**64, cancelled terms, single-term operands, the budget
charge, and sums that fill the slot width exactly.  Also the counted normal
form against the rewriting oracle and the generator product."""

import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gkbench import budget
from gkbench.cyclo import CycField
from gkbench.qaffine import QAlgebra, QPoly, normal_form, normal_form_random
from qoracle import crossings, q_mul

LEVELS = ((2, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1))
FIELDS = {level: CycField(*level) for level in LEVELS}
ALGEBRAS = [QAlgebra(n, FIELDS[level]) for level in LEVELS for n in range(1, 5)]
TOPS = (9, 2**40, 2**130)  # largest numerator: one word, two words, three words
DENOMINATORS = (1, 1, 2, 3, 12, 2**67 + 1)


@st.composite
def scalars(draw, field, top):
    """A nonzero field element, dense or with a few nonzero numerators,
    each coefficient over its own denominator."""
    degree = field.degree
    if draw(st.booleans()):
        spots = range(degree)
    else:
        spots = draw(st.lists(st.integers(0, degree - 1), min_size=1, max_size=3, unique=True))
    coeffs = [Fraction(0)] * degree
    for k in spots:
        num = draw(st.integers(-top, top).filter(bool))
        coeffs[k] = Fraction(num, draw(st.sampled_from(DENOMINATORS)))
    return field.element(coeffs)


@st.composite
def polys(draw, alg, top, min_terms=0, max_terms=4):
    exps = st.tuples(*[st.integers(0, 3)] * alg.n)
    keys = draw(st.lists(exps, min_size=min_terms, max_size=max_terms, unique=True))
    return QPoly(alg, {e: draw(scalars(alg.field, top)) for e in keys})


def charged(fn, *args):
    """(fn(*args), the budget ops it charged)."""
    used = budget.used()
    value = fn(*args)
    return value, budget.used() - used


def assert_lowest_terms(poly):
    for c in poly.terms.values():
        assert c and c.den > 0 and gcd(*c.nums, c.den) == 1


@given(st.sampled_from(ALGEBRAS), st.sampled_from(TOPS), st.data())
def test_packed_product_matches_the_oracle(alg, top, data):
    a, b = data.draw(polys(alg, top)), data.draw(polys(alg, top))
    product, ops = charged(QPoly.__mul__, a, b)
    want, want_ops = charged(q_mul, a, b)
    assert product == want
    assert ops == want_ops
    assert_lowest_terms(product)


@given(st.sampled_from(ALGEBRAS), st.sampled_from(TOPS), st.data())
def test_single_term_operands_match_the_oracle(alg, top, data):
    one = data.draw(polys(alg, top, min_terms=1, max_terms=1))
    other = data.draw(polys(alg, top, min_terms=1))
    for a, b in ((one, other), (other, one), (one, one)):
        product, ops = charged(QPoly.__mul__, a, b)
        assert (product, ops) == charged(q_mul, a, b)


@given(st.sampled_from(ALGEBRAS), st.sampled_from(TOPS), st.data())
def test_cancelled_terms_are_dropped(alg, top, data):
    """a = x1 x^e + x2 x^f and b = y1 x^e + y2 x^f, with y2 chosen so that
    the two pairs that meet in x^(e+f) cancel."""
    e, f = data.draw(
        st.lists(st.tuples(*[st.integers(0, 3)] * alg.n), min_size=2, max_size=2, unique=True)
    )
    x1, x2, y1 = (data.draw(scalars(alg.field, top)) for _ in range(3))
    y2 = -(x2 * y1 * x1.inv()).times_zeta(crossings(e, f) - crossings(f, e))
    a, b = QPoly(alg, {e: x1, f: x2}), QPoly(alg, {e: y1, f: y2})
    product = a * b
    assert tuple(map(sum, zip(e, f))) not in product.terms
    assert product == q_mul(a, b)
    assert_lowest_terms(product)


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("width", (2, 8, 9, 16))
def test_worst_case_sum_fits_its_slot(level, width):
    """Dense numerators all equal to the largest t with degree * t**2 below
    2**(8*width - 1): one coefficient product just fits a width-byte slot,
    and the two pairs that meet in x^1 add to twice that."""
    field = FIELDS[level]
    top = isqrt((2 ** (8 * width - 1) - 1) // field.degree)
    alg = QAlgebra(1, field)
    for sign in (1, -1):
        dense = field.element([sign * top] * field.degree)
        a = QPoly(alg, {(0,): dense, (1,): dense})
        assert a * a == q_mul(a, a)
        assert a * -a == q_mul(a, -a)


@given(st.sampled_from(ALGEBRAS), st.sampled_from(TOPS), st.data())
def test_counted_normal_form_matches_the_rewrites_and_the_product(alg, top, data):
    """Three routes to a word's normal form: the inversion count, the swap
    by swap rewrite in random orders, and the scalar times the product of
    the word's generators.  The count charges what the rewrite may swap."""
    indices = data.draw(st.lists(st.integers(1, alg.n), max_size=40))
    scalar = data.draw(scalars(alg.field, top))
    word = alg.word(indices, scalar)
    counted, ops = charged(normal_form, word)
    assert ops == max(1, len(indices) ** 2)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    for _ in range(2):
        assert normal_form_random(word, rng) == counted
    product = alg.scalar(scalar)
    for i in indices:
        product = product * alg.generator(i)
    assert product == counted
