"""The packed `QPoly` product against the per-term-pair oracle in
qoracle.py: every workload level plus t = 0, n = 1..4, mixed denominators,
numerators past 2**64, cancelled terms, single-term operands, squares of one
object, powers, the budget charge, and sums that fill the slot width
exactly; the in-integer reduction against the list reduction at every
level.  Also the counted normal form against the rewriting oracle and the
generator product."""

import itertools
import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gkbench import budget
from gkbench.cyclo import CycField, _pack, _unpack, _width
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


@pytest.mark.parametrize("n, words", [(64, 1), (65, 2)])
def test_a_product_is_charged_by_its_exponent_width_in_words(n, words):
    """A term pair works on n exponents, so it is charged (n - 1)//64 + 1
    ops: as before up to n = 64, twice that from n = 65 on."""
    alg = QAlgebra(n, FIELDS[(2, 1)])
    a = alg.generator(1) + alg.generator(n)
    b = alg.one() + alg.generator(2) + alg.generator(n, 2)
    for x, y, pairs in ((a, b, 6), (b, a, 6), (a, a, 4), (b, b, 9), (alg.generator(n), a, 2)):
        product, ops = charged(QPoly.__mul__, x, y)
        assert ops == pairs * words
        assert (product, ops) == charged(q_mul, x, y)
    assert charged(QPoly.__mul__, alg.generator(1), alg.generator(n))[1] == words
    assert charged(QPoly.__mul__, alg.zero(), a)[1] == words


def assert_square_matches_the_oracle(a):
    """a * a makes one big-int product per unordered pair of terms and adds
    it at both orders' shifts; it must equal the per-pair oracle and charge
    what it does."""
    square, ops = charged(QPoly.__mul__, a, a)
    assert (square, ops) == charged(q_mul, a, a)
    assert_lowest_terms(square)


@pytest.mark.parametrize("top", TOPS)
@pytest.mark.parametrize("alg", ALGEBRAS, ids=repr)
def test_square_of_one_object_matches_the_oracle(alg, top):
    """Every algebra and numerator size, on three dense terms."""
    rng = random.Random(f"{alg!r}:{top}")
    keys = rng.sample(sorted(itertools.product(range(4), repeat=alg.n)), 3)
    def dense():
        return [Fraction(rng.randint(-top, top), rng.choice(DENOMINATORS)) for _ in range(alg.field.degree)]

    assert_square_matches_the_oracle(QPoly(alg, {e: alg.field.element(dense()) for e in keys}))


@given(st.sampled_from(ALGEBRAS), st.sampled_from(TOPS), st.data())
def test_squares_match_the_oracle(alg, top, data):
    assert_square_matches_the_oracle(data.draw(polys(alg, top, min_terms=2)))


@given(st.sampled_from(ALGEBRAS), st.sampled_from(TOPS), st.integers(0, 8), st.data())
def test_power_matches_repeated_oracle_products(alg, top, k, data):
    a = data.draw(polys(alg, top, max_terms=3))
    want = alg.one()
    for _ in range(k):
        want = q_mul(want, a)
    assert a**k == want


def _chain(level):
    lv, chain = FIELDS[level]._level, []
    while lv:
        chain.append(lv)
        lv = lv.lower
    return chain


LEVEL_CHAIN = [lv for level in LEVELS for lv in _chain(level)]
WIDTHS = (2, 8, 9, 16)


def slot_bound(width):
    """The largest slot value `reduce_packed` takes: a sixth of the signed
    range of a width-byte slot."""
    return (2 ** (8 * width - 1) - 1) // 6


@given(st.sampled_from(LEVEL_CHAIN), st.sampled_from(WIDTHS), st.data())
def test_packed_reduction_matches_the_list_reduction(lv, width, data):
    bound = slot_bound(width)
    values = data.draw(st.lists(st.integers(-bound, bound), min_size=1, max_size=lv.m + 2 * lv.d - 2))
    packed = _pack(values, width)
    assert lv.reduce_packed(packed, width) == lv.reduce(_unpack(packed, width, len(values)))


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("lv", LEVEL_CHAIN, ids=lambda lv: f"m={lv.m}")
def test_packed_reduction_at_the_slot_bound(lv, width):
    """Every slot at the bound, of either sign or alternating, over the
    longest vector a product sums: at odd p and m > 3 the slots 0, m and
    2m fold into slot 0, and the rewrite subtracts a folded slot from it."""
    bound = slot_bound(width)
    length = lv.m + 2 * lv.d - 2
    for values in ([bound] * length, [-bound] * length, [(-1) ** k * bound for k in range(length)]):
        packed = _pack(values, width)
        assert lv.reduce_packed(packed, width) == lv.reduce(list(values))


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("width", WIDTHS)
def test_worst_case_sum_fits_its_slot(level, width):
    """Dense numerators +-t, t the largest with product bound
    margin * degree * t**2 * terms below 2**(8*width - 1) (at most `terms`
    pairs meet in an output monomial).  At margin 6, the in-integer
    reduction's, the product packs at exactly this width; at margin 1 the
    unreduced sums fill the slot.  Numerators of one sign, and in sign
    blocks of s, whose square reduces at odd p to 1.5 (p = 3) or 1.75
    (p = 5) times the bound: a margin below that overflows.  With n = 2 the
    pairs that meet in x1*x2 include x2 * x1 = q**-1 * x1*x2, shifted by
    m - 1 slots to end at slot m + 2d - 3: at odd p that is past 2m, and
    slot 0 of the sum folds three values, from slots 0, m and 2m."""
    field = FIELDS[level]
    d, s = field.degree, field._level.s
    for keys in (((0,), (1,)), ((0, 0), (1, 0), (0, 1), (1, 1))):
        alg = QAlgebra(len(keys[0]), field)
        for margin in (1, 6):
            top = isqrt((2 ** (8 * width - 1) - 1) // (margin * d * len(keys)))
            if margin == 6:
                assert _width(6 * d * top * top * len(keys)) == width
            for signs in ([1] * d, [(-1) ** (k // max(s, 1)) for k in range(d)]):
                dense = field.element([sign * top for sign in signs])
                a = QPoly(alg, {e: dense for e in keys})
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
