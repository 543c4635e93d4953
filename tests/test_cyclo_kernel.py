"""The integer cyclotomic kernel against Fraction oracles, and the
closed-form q-commutation product against the rewriting normal form."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gkbench.cyclo import CycElem, CycField
from gkbench.qaffine import FreeWord, QAlgebra, QPoly, normal_form
from polydiv import cyclotomic, poly_divmod

LEVELS = ((2, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1))
FIELDS = {level: CycField(*level) for level in LEVELS}


# --- Fraction oracles -----------------------------------------------------------


def schoolbook(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def reduced(field, poly):
    """Coefficient vector of poly mod the field's cyclotomic polynomial, by
    long division."""
    _, rem = poly_divmod(poly, cyclotomic(field))
    return tuple(rem + [Fraction(0)] * (field.degree - len(rem)))


def zeta_power(field, k):
    return reduced(field, [Fraction(0)] * (k % field.m) + [Fraction(1)])


# --- strategies ---------------------------------------------------------------------


@st.composite
def elements(draw, field, nonzero=False):
    nums = draw(
        st.lists(
            st.one_of(st.just(0), st.integers(-9, 9)),
            min_size=field.degree,
            max_size=field.degree,
        )
    )
    if nonzero and not any(nums):
        nums[draw(st.integers(0, field.degree - 1))] = draw(st.sampled_from((-2, -1, 1, 3)))
    den = draw(st.integers(1, 12))
    return CycElem(field, [Fraction(n, den) for n in nums])


@st.composite
def field_and_elements(draw, count, nonzero=False):
    field = FIELDS[draw(st.sampled_from(LEVELS))]
    return (field,) + tuple(draw(elements(field, nonzero)) for _ in range(count))


def dense(field, seed):
    rng = random.Random(seed)
    return field.element([rng.choice((-9, -4, -1, 1, 2, 7)) for _ in range(field.degree)])


def assert_canonical(a):
    assert a.den > 0
    assert gcd(*a.nums, a.den) == 1
    if not a:
        assert a.den == 1
    assert isinstance(a.coeffs, tuple) and len(a.coeffs) == a.field.degree
    assert all(isinstance(c, Fraction) for c in a.coeffs)
    assert a.coeffs == tuple(Fraction(n, a.den) for n in a.nums)


# --- products -------------------------------------------------------------------------


@given(field_and_elements(2))
def test_product_matches_fraction_schoolbook(args):
    field, a, b = args
    product = a * b
    assert product.coeffs == reduced(field, schoolbook(a.coeffs, b.coeffs))
    assert_canonical(product)


@given(field_and_elements(1), st.data())
def test_product_with_monomial_matches_schoolbook(args, data):
    field, a = args
    k = data.draw(st.integers(0, field.degree - 1))
    c = data.draw(st.sampled_from((Fraction(-3), Fraction(1), Fraction(5, 2))))
    mono = [Fraction(0)] * field.degree
    mono[k] = c
    b = CycElem(field, mono)
    want = reduced(field, schoolbook(a.coeffs, b.coeffs))
    assert (a * b).coeffs == want
    assert (b * a).coeffs == want


@st.composite
def factors(draw, field):
    """Zero, a monomial c*zeta**j and an element with every coefficient
    nonzero (a monomial too at degree 1): one of each kind of factor."""
    den = draw(st.integers(1, 12))
    coeffs = [Fraction(0)] * field.degree
    coeffs[draw(st.integers(0, field.degree - 1))] = Fraction(draw(st.integers(-9, 9).filter(bool)), den)
    nums = draw(st.lists(st.integers(-9, 9).filter(bool), min_size=field.degree, max_size=field.degree))
    return field.zero(), CycElem(field, coeffs), CycElem(field, [Fraction(n, den) for n in nums])


@given(st.sampled_from(LEVELS), st.data())
def test_shifted_product_is_the_product_then_the_shift(level, data):
    field = FIELDS[level]
    k = data.draw(st.integers(-2 * field.m, 2 * field.m))
    xs, ys = data.draw(factors(field)), data.draw(factors(field))
    for x in xs:
        for y in ys:
            shifted = x._times(y, k)
            assert shifted == (x * y).times_zeta(k)
            assert_canonical(shifted)


def test_dense_product_with_large_coefficients():
    field = FIELDS[3, 2]
    rng = random.Random(7)
    a = field.element([Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**6)) for _ in range(54)])
    b = field.element([rng.randint(-10**40, 10**40) for _ in range(54)])
    assert (a * b).coeffs == reduced(field, schoolbook(a.coeffs, b.coeffs))


def test_element_reduces_any_length():
    rng = random.Random(11)
    for field in FIELDS.values():
        poly = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3 * field.m + 2)]
        elem = field.element(poly)
        assert elem.coeffs == reduced(field, poly)
        assert_canonical(elem)
        assert field.element([]) == field.zero()


# --- shifts and conjugates -----------------------------------------------------------


@given(field_and_elements(1), st.data())
def test_times_zeta_is_multiplication_by_a_power(args, data):
    field, a = args
    k = data.draw(st.integers(-field.m, 2 * field.m))
    shifted = a.times_zeta(k)
    assert shifted == a * field.zeta**k
    assert shifted.coeffs == reduced(field, schoolbook(a.coeffs, zeta_power(field, k)))
    assert_canonical(shifted)


def test_times_zeta_full_range():
    for level, field in FIELDS.items():
        a = dense(field, str(level))
        for k in range(-field.m, 2 * field.m + 1):
            assert a.times_zeta(k) == a * field.zeta**k


@given(field_and_elements(2), st.data())
def test_conjugate_is_a_ring_automorphism(args, data):
    field, a, b = args
    units = [j for j in range(1, max(2, field.m)) if field.m == 1 or j % field.p]
    j, k = data.draw(st.sampled_from(units)), data.draw(st.sampled_from(units))
    assert (a * b).conjugate(j) == a.conjugate(j) * b.conjugate(j)
    assert (a + b).conjugate(j) == a.conjugate(j) + b.conjugate(j)
    assert a.conjugate(j).conjugate(k) == a.conjugate(j * k)
    assert field.zeta.conjugate(j) == field.zeta**j
    assert a.conjugate(1) == a
    assert_canonical(a.conjugate(j))


def test_conjugate_rejects_non_units():
    with pytest.raises(ValueError):
        FIELDS[3, 1].zeta.conjugate(3)
    with pytest.raises(ValueError):
        FIELDS[2, 2].one().conjugate(0)


# --- inverses ---------------------------------------------------------------------------


@given(field_and_elements(1, nonzero=True))
def test_inverse_is_two_sided(args):
    field, a = args
    inverse = a.inv()
    assert a * inverse == field.one()
    assert inverse * a == field.one()
    assert_canonical(inverse)


@pytest.mark.parametrize("level", [(3, 2), (2, 4)])  # degrees 54 and 128
def test_dense_inverse_at_high_degree(level):
    field = CycField(*level)
    assert field.degree in (54, 128)
    for seed in range(2):
        a = dense(field, seed)
        inverse = a.inv()
        assert a * inverse == field.one()
        assert inverse * a == field.one()


def test_negative_power_is_power_of_inverse():
    field = FIELDS[5, 1]
    a = dense(field, 3)
    assert a**-3 == a.inv() ** 3
    assert a**-3 * a**3 == field.one()


# --- canonical form ------------------------------------------------------------------------


@given(field_and_elements(1), st.integers(2, 30))
def test_equal_values_are_equal_and_hash_the_same(args, c):
    field, a = args
    through_scale = (a * field.rational(c)) * field.rational(Fraction(1, c))
    through_sum = (a + field.rational(Fraction(1, c))) - field.rational(Fraction(1, c))
    # add multiples of the modulus, and wrap past X^m = 1
    poly = list(a.coeffs) + [Fraction(0)] * (2 * field.m + 3)
    for j, coeff in enumerate(cyclotomic(field)):
        poly[j + 1] += Fraction(c, 3) * coeff
    poly[field.m + 2] += 1
    poly[2 % field.m] -= 1
    through_element = field.element(poly)
    for other in (through_scale, through_sum, through_element):
        assert other == a
        assert hash(other) == hash(a)
        assert (other.nums, other.den) == (a.nums, a.den)
    assert_canonical(a)


def test_coeffs_is_read_only():
    a = FIELDS[2, 1].zeta
    with pytest.raises(AttributeError):
        a.coeffs = (Fraction(1), Fraction(0))
    assert a.coeffs == (Fraction(0), Fraction(1))


# --- the closed-form q-commutation product --------------------------------------------------


def expand(exps):
    return tuple(i for i, e in enumerate(exps, start=1) for _ in range(e))


ALGEBRAS = [QAlgebra(n, FIELDS[level]) for n in (1, 3) for level in LEVELS]


@given(st.sampled_from(ALGEBRAS), st.data())
def test_closed_form_product_matches_normal_form(alg, data):
    exps = st.tuples(*[st.integers(0, 3)] * alg.n)
    e, f = data.draw(exps), data.draw(exps)
    a, b = data.draw(elements(alg.field)), data.draw(elements(alg.field))
    product = QPoly(alg, {e: a}) * QPoly(alg, {f: b})
    assert product == normal_form(FreeWord(alg, expand(e) + expand(f), a * b))


@pytest.mark.parametrize("level", LEVELS)
def test_trusted_builders_match_the_validating_constructors(level):
    field = FIELDS[level]
    unit = [1] + [0] * (field.degree - 1)
    assert field.one() == CycElem(field, unit) == field.rational(1)
    assert_canonical(field.one())
    for n in (1, 3):
        alg = QAlgebra(n, field)
        for i in range(1, n + 1):
            for k in (0, 1, 5):
                exps = [0] * n
                exps[i - 1] = k
                assert alg.generator(i, k) == QPoly(alg, {tuple(exps): CycElem(field, unit)})


def test_qpoly_power_matches_repeated_products():
    alg = QAlgebra(3, FIELDS[3, 1])
    z = alg.field.zeta
    base = alg.generator(1) + alg.generator(2).scale(z) - alg.generator(3, 2)
    acc = alg.one()
    for k in range(7):
        assert base**k == acc
        acc = acc * base



# --- inverses of monomials and multiplicative orders -------------------------------------


def linear_order(a):
    """Oracle: the least k <= m with a**k == 1 by repeated products, else None."""
    one, acc = a.field.one(), a
    for k in range(1, a.field.m + 1):
        if acc == one:
            return k
        acc = acc * a
    return None


ORDER_LEVELS = ((2, 0), (3, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1))


@pytest.mark.parametrize("level", ORDER_LEVELS)
def test_order_matches_linear_search(level):
    field = CycField(*level)
    one, zeta = field.one(), field.zeta
    values = [sign * zeta**k for k in range(field.m) for sign in (one, -one)]
    values += [field.rational(2), field.rational(Fraction(-1, 2)) * zeta]
    values += [v for v in (one + zeta, zeta - zeta**3) if v]
    for a in values:
        assert a.order() == linear_order(a), (level, str(a))


@pytest.mark.parametrize("level", LEVELS)
def test_monomial_inverse_matches_tower_route(level):
    field = FIELDS[level]
    for k in range(field.m):
        for c in (1, -1, Fraction(3, 2), Fraction(-2, 5)):
            a = field.rational(c) * field.zeta**k
            nums, den = field._level.inverse(list(a.nums))
            tower = field.element([Fraction(n * a.den, den) for n in nums])
            assert a.inv() == tower
            assert a * a.inv() == field.one()


def test_high_level_algebras_build():
    for p, t in ((2, 7), (3, 4)):
        alg = QAlgebra(2, CycField(p, t))
        q = alg.field.zeta
        assert q.order() == alg.field.m
        assert q * q.inv() == alg.field.one()
