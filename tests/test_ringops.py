"""The shared pow-by-squaring helper and the powers built on it, the
rational edge (`ratio`, `ratio_text`) against `fractions.Fraction`, integer
text past the digit limit (`int_text`), and the term renderer."""

import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gkbench import budget
from gkbench.mqfield import PrimeBasis
from gkbench.parser import parse, to_twisted
from gkbench.ringops import int_text, power, ratio, ratio_text, render_terms


def test_power_helper():
    assert power(3, 0, 1) == 1
    assert power(Fraction(2, 3), 5, 1) == Fraction(32, 243)
    assert all(power(7, e, 1) == 7**e for e in range(40))
    with pytest.raises(ValueError):
        power(2, -1, 1)


def test_noncommutative_power_keeps_factor_order():
    # 2x2 integer matrices as nested tuples: a noncommutative ring
    def mat_mul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )

    class M:
        def __init__(self, rows):
            self.rows = rows

        def __mul__(self, other):
            return M(mat_mul(self.rows, other.rows))

    base = M(((1, 2), (3, 5)))
    acc = M(((1, 0), (0, 1)))
    for e in range(12):
        assert power(base, e, M(((1, 0), (0, 1)))).rows == acc.rows
        acc = acc * base


def test_twisted_power_matches_repeated_products():
    basis = PrimeBasis.first(3)
    for text in ("x1*s1 + s2", "x1^-1*s1*s3 + 2*x2", "1/2*s1*s2"):
        for e in (0, 1, 2, 5, -3):
            if e < 0 and "+" in text:
                continue  # only single terms invert
            lhs = to_twisted(parse(f"({text})^{e}", "twisted"), basis)
            if e >= 0:
                factors = "*".join([f"({text})"] * e) or "e"
            else:
                factors = "*".join([f"({text})^-1"] * -e)
            rhs = to_twisted(parse(factors, "twisted"), basis)
            assert lhs == rhs, (text, e)


def test_render_terms():
    assert render_terms([]) == "0"
    assert render_terms([("1", "")]) == "1"
    assert render_terms([("-3/2", ""), ("1", "x1"), ("-1", "x2")]) == "-3/2 + x1 - x2"
    assert render_terms([("-2", "s1*s2"), ("5", "x1^2")]) == "-2*s1*s2 + 5*x1^2"
    # a coefficient that is itself a sum is parenthesized and added
    assert render_terms([("-1 + z", "x1"), ("z - z^3", "")]) == "(-1 + z)*x1 + (z - z^3)"


_RATIONALS = st.one_of(
    st.integers(),
    st.booleans(),
    st.fractions(),
    st.builds("{}/{}".format, st.integers(), st.integers(min_value=1)),
    st.floats(allow_nan=False, allow_infinity=False),
    st.decimals(allow_nan=False, allow_infinity=False),
)


@given(_RATIONALS)
def test_ratio_is_the_pair_fraction_gives(value):
    expected = Fraction(value)
    num, den = ratio(value)
    assert (num, den) == (expected.numerator, expected.denominator)
    assert type(num) is int and type(den) is int


@pytest.mark.parametrize(
    "value",
    [None, "x", "1/0", "", float("nan"), float("inf"), float("-inf"), Decimal("NaN"),
     Decimal("Infinity"), 1j, [1]],
    ids=repr,
)
def test_ratio_refuses_what_fraction_refuses(value):
    with pytest.raises(Exception) as expected:
        Fraction(value)
    with pytest.raises(Exception) as got:
        ratio(value)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


@given(st.integers(), st.integers(min_value=1))
def test_ratio_text_is_the_text_of_the_fraction(num, den):
    assert ratio_text(num, den) == str(Fraction(num, den))


def test_int_text_writes_past_the_digit_limit_charging_only_there():
    # str writes up to the interpreter's limit at no charge; past it, decimal
    # writes the integer, charged the square of its 64-bit words; the texts
    # are compared through Decimal, which has no limit
    limit = sys.get_int_max_str_digits()  # 4300 unless the environment sets it
    within, past = 10 ** (limit - 1), -(10**limit) - 1
    for n, charge in ((0, 0), (-7, 0), (within, 0), (past, budget.words(past) ** 2)):
        budget.reset()
        assert Decimal(int_text(n)) == n and budget.used() == charge
    budget.reset()
    assert ratio_text(-(2**20000), 2**20001) == "-1/2" and budget.used() == 0
    num, den = ratio_text(past, 3).split("/")
    assert Decimal(num) == past and den == "3" and budget.used() == budget.words(past) ** 2
