"""Powers owned by the element types: negative exponents and the budget
charge of |exponent| * coefficient size in 64-bit words."""

from fractions import Fraction

import pytest

from gkbench import budget
from gkbench.budget import words
from gkbench.cyclo import CycField
from gkbench.mqfield import PrimeBasis
from gkbench.ordgroup import GroupElem
from gkbench.parser import parse, to_quantum, to_twisted
from gkbench.qaffine import QAlgebra
from gkbench.ringops import power
from gkbench.twistring import TwistedElem

BASIS = PrimeBasis.first(3)
FIELD = CycField(2, 1)
ALG = QAlgebra(2, FIELD)


@pytest.fixture
def meter():
    saved = budget.cap()
    budget.set_cap(None)
    yield
    budget.set_cap(saved)


def twisted(text):
    return to_twisted(parse(text, "twisted"), BASIS)


def quantum(text):
    return to_quantum(parse(text, "quantum"), ALG)


def test_words():
    # bit_length() // 64 + 1
    cases = (0, 1, -1, 2**63 - 1, 2**63, 2**127 - 1, -(2**127 - 1), 2**127)
    assert [words(n) for n in cases] == [1, 1, 1, 1, 2, 2, 2, 3]


def test_sizes_in_words():
    assert BASIS.zero()._words() == 0
    assert BASIS.rational(Fraction(2**64, 3))._words() == 3
    mq = BASIS.element({(): 3, (1,): Fraction(1, 2)})
    assert mq._words() == 4  # 3/1 and 1/2: a word per numerator and denominator
    assert FIELD.zero()._words() == 1  # the denominator
    cyc = FIELD.element([3, Fraction(1, 2)])  # (6 + z)/2
    assert cyc._words() == 3
    assert ALG.zero()._words() == 0
    assert quantum("x1 + 3/2*z")._words() == 2 + 2
    assert twisted("s1*x1 + 2^70*x2")._words() == 2 + 3


def _charge(thunk):
    budget.reset()
    result = thunk()
    return result, budget.used()


VALUES = {
    "mq": BASIS.element({(): 3, (1,): Fraction(1, 2)}),
    "mq-wide": BASIS.rational(Fraction(-(2**70), 7)),
    "cyc": FIELD.element([3, Fraction(1, 2)]),
    "cyc-monomial": FIELD.element([0, -5]),
    "twisted": twisted("1/2*s1*x1"),
    "twisted-sum": twisted("s1*x1 + 2*x2"),
    "qpoly": quantum("x1 + 3/2*z"),
}
# a QPoly's negative power is its scalar's (tested below); sums do not invert
INVERTIBLE = ("mq", "mq-wide", "cyc", "cyc-monomial", "twisted")


@pytest.mark.parametrize(
    "name, exponent",
    [(name, e) for name in VALUES for e in (0, 1, 2, 5)]
    + [(name, e) for name in INVERTIBLE for e in (-1, -3)],
)
def test_power_charges_exponent_times_words(meter, name, exponent):
    value = VALUES[name]
    one = value**0
    base = value if exponent >= 0 else value.inv()
    expected, products = _charge(lambda: power(base, abs(exponent), one))
    result, charged = _charge(lambda: value**exponent)
    assert result == expected
    assert charged == abs(exponent) * value._words() + products


def test_qpoly_negative_power_charges_like_its_scalar(meter):
    poly = quantum("1/3 + 5*z")
    scalar = poly.as_scalar()
    assert poly._words() == scalar._words() == 3
    for k in (1, 3, 8):
        result, charged = _charge(lambda: poly**-k)
        assert result == ALG.scalar(scalar.inv() ** k)
        assert charged == k * poly._words()


def test_group_powers_are_not_charged(meter):
    g = GroupElem({1: 3, 2: -1})
    _, charged = _charge(lambda: g**200000000000)
    assert charged == 0


def test_twisted_negative_power_is_the_inverse_raised():
    for text in ("1/2*s1*x1", "x1^-1*s1*s3", "3*s2*x1*x2^2", "e", "s1*s2"):
        value = twisted(text)
        for k in (1, 2, 3, 6):
            assert value ** -k == value.inv() ** k, (text, k)
        assert value * value.inv() == TwistedElem.one(BASIS)
        assert value.inv() * value == TwistedElem.one(BASIS)


def test_multi_term_twisted_inverse_is_rejected():
    for text in ("s1*x1 + x2", "1 + x1"):
        with pytest.raises(ValueError, match="single-term"):
            twisted(text).inv()
        with pytest.raises(ValueError, match="single-term"):
            twisted(text) ** -2


def test_zero_twisted_inverse_is_a_zero_division():
    # as for MQElem and CycElem: zero has no inverse, whatever its support
    for text in ("0", "x1 - x1"):
        with pytest.raises(ZeroDivisionError, match="cannot invert zero"):
            twisted(text).inv()
        with pytest.raises(ZeroDivisionError, match="cannot invert zero"):
            twisted(text) ** -2


def test_qpoly_negative_power_of_a_scalar():
    for text, scalar in (("2*z", FIELD.element([0, 2])), ("1/3 + z", FIELD.element([Fraction(1, 3), 1]))):
        poly = quantum(text)
        assert poly.as_scalar() == scalar
        assert poly**-1 == ALG.scalar(scalar.inv())
        assert poly**-3 == ALG.scalar(scalar.inv() ** 3)
    assert ALG.zero().as_scalar() == FIELD.zero()
    with pytest.raises(ZeroDivisionError):
        ALG.zero() ** -1


def test_qpoly_negative_power_of_a_non_scalar_is_rejected():
    for text in ("x1", "x1 + 1", "z*x2^2"):
        poly = quantum(text)
        assert poly.as_scalar() is None
        with pytest.raises(ValueError, match="only defined for scalars"):
            poly**-1
