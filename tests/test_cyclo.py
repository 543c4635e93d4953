"""Cyclotomic fields: moduli, arithmetic, orders, tower compatibility."""

import random
from fractions import Fraction

import pytest

from gkbench import budget
from gkbench.campaigns import run_campaign
from gkbench.cyclo import CycElem, CycField, tower_check
from polydiv import cyclotomic, poly_divmod
from qsampling import random_cyc

F4 = CycField(2, 1)  # m = 4, modulus X^2 + 1
F9 = CycField(3, 1)  # m = 9, modulus X^6 + X^3 + 1
F16 = CycField(2, 2)  # m = 16, modulus X^8 + 1


def test_field_parameters():
    assert (F4.m, F4.degree) == (4, 2)
    assert (F9.m, F9.degree) == (9, 6)
    assert (F16.m, F16.degree) == (16, 8)
    assert cyclotomic(F4) == [Fraction(1), Fraction(0), Fraction(1)]
    # a field keeps its parameters and its levels, not its modulus
    assert not hasattr(F4, "modulus")


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        CycField(4, 1)
    with pytest.raises(ValueError):
        CycField(2, -1)


def test_a_field_past_the_budget_is_refused_without_a_charge():
    saved = budget.cap()
    budget.set_cap(8)
    try:
        used = budget.used()
        assert CycField(2, 2).degree == 8  # at the cap: built
        with pytest.raises(budget.WorkBudgetExceeded, match="field degree 20 exceeds .* 8 "):
            CycField(5, 1)
        # past the cap's bit length the degree is bounded, never formed
        with pytest.raises(budget.WorkBudgetExceeded, match=r"degree at least 2\^5 exceeds .* 8 "):
            CycField(2, 3)
        with pytest.raises(budget.WorkBudgetExceeded, match=r"at least 2\^1999999999 .* 8 "):
            CycField(2, 10**9)
        assert CycField(5, 0).degree == 1
        # at any t, a p whose trial division tests more than 8 candidates,
        # such as 10^18 + 3 at 5 * 10^8; tower_check's level-2 field of it
        # is refused from its degree
        assert CycField(241, 0).degree == 1  # isqrt(241)//2 + 1 = 8
        with pytest.raises(budget.WorkBudgetExceeded, match=r"^trial division of 257 \(9 candidates\) .* 8 "):
            CycField(257, 0)
        with pytest.raises(budget.WorkBudgetExceeded, match=r"^trial division of 10{17}3 \(500000001 "):
            CycField(10**18 + 3, 0)
        with pytest.raises(budget.WorkBudgetExceeded, match=r"^field degree at least 2\^177 "):
            tower_check(10**18 + 3, 1)
        assert budget.used() == used
    finally:
        budget.set_cap(saved)


def test_zeta_squared_is_minus_one():
    assert F4.zeta * F4.zeta == F4.rational(-1)


def test_zeta_inverse():
    assert F4.zeta.inv() == -F4.zeta
    assert F4.zeta * F4.zeta.inv() == F4.one()


def test_zeta_ninth_power():
    assert F9.zeta**9 == F9.one()
    assert F9.zeta**8 != F9.one()


def test_orders():
    assert F4.zeta.order() == 4
    assert (-F4.one()).order() == 2
    assert F4.rational(2).order() is None  # not a root of unity
    with pytest.raises(ZeroDivisionError):
        F4.zero().order()


def test_primitivity_for_all_small_fields():
    for p, t in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (11, 1)):
        field = CycField(p, t)
        assert field.m <= 128
        assert field.zeta.order() == field.m


def test_tower_root_order():
    # the p^2-th power of the level-(t+1) root has order p^(2t)
    assert (F16.zeta**4).order() == 4
    assert (CycField(3, 2).zeta**9).order() == 9


def test_tower_checks():
    assert tower_check(2, 1)
    assert tower_check(3, 1)
    assert tower_check(2, 2)
    with pytest.raises(ValueError):
        tower_check(2, 0)
    with pytest.raises(ValueError, match="^4 is not prime$"):
        tower_check(4, 1)


def _evaluate(poly, point, modulus):
    """poly at point in Q[X]/(modulus), by Horner over Fractions."""
    value = [Fraction(0)]
    for c in reversed(poly):
        product = [Fraction(0)] * (len(value) + len(point) - 1)
        for i, x in enumerate(value):
            for j, y in enumerate(point):
                product[i + j] += x * y
        product[0] += c
        value = poly_divmod(product, modulus)[1] or [Fraction(0)]
    return value


def test_tower_check_agrees_with_the_fraction_route():
    # over the tower campaign's grid: the level-t cyclotomic polynomial
    # vanishes at X**(p^2) modulo the level-(t+1) one, and not at X**p
    records = [r for r in run_campaign("tower") if r.claim_id.startswith("tower.compat.")]
    assert records
    for record in records:
        p, t = record.inputs["p"], record.inputs["t"]
        upper = CycField(p, t + 1)
        modulus = cyclotomic(upper)
        image = poly_divmod([Fraction(0)] * (p * p) + [Fraction(1)], modulus)[1]
        image += [Fraction(0)] * (upper.degree - len(image))
        assert tuple(image) == (upper.zeta ** (p * p)).coeffs
        lower = cyclotomic(CycField(p, t))
        assert _evaluate(lower, image, modulus) == [0]
        assert record.outputs["compatible"] and tower_check(p, t)
        assert _evaluate(lower, (upper.zeta**p).coeffs, modulus) != [0]


def test_degenerate_level_zero():
    F1 = CycField(2, 0)
    assert F1.degree == 1
    assert F1.zeta == F1.one()
    assert F1.zeta.order() == 1
    assert F1.rational(Fraction(2, 3)) * F1.rational(3) == F1.rational(2)


def test_inverse_is_two_sided_on_randoms():
    rng = random.Random(64)
    for field in (F4, F9, F16):
        for _ in range(40):
            a = random_cyc(rng, field, nonzero=True)
            assert a * a.inv() == field.one()
            assert a.inv() * a == field.one()


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        F9.zero().inv()


def test_field_mismatch():
    with pytest.raises(ValueError):
        F4.one() + F9.one()


def test_modulus_divides_x_m_minus_one():
    for field in (F4, F9, F16, CycField(5, 1)):
        poly = [Fraction(0)] * (field.m + 1)
        poly[0] = Fraction(-1)
        poly[field.m] = Fraction(1)
        _, rem = poly_divmod(poly, cyclotomic(field))
        assert rem == []
        # and the field's reduction sends its own modulus to zero
        assert field.element(cyclotomic(field)).is_zero()


def test_pow_negative_exponent():
    z = F9.zeta
    assert z**-1 == z.inv()
    assert z**-3 == (z**3).inv()


def test_str_rendering():
    assert str(F4.zero()) == "0"
    assert str(F4.zeta) == "z"
    assert str(-F4.zeta) == "-z"
    half_plus_cube = F9.element([Fraction(1, 2), 0, 0, 1])
    assert str(half_plus_cube) == "1/2 + z^3"
