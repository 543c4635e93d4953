"""Gamma coefficients: closed form vs exhaustive oracle, the independence
witness, and the affine monomial count."""

import itertools
import random
from math import comb, factorial

import pytest

from gkbench import budget
from gkbench.gammalab import (
    gamma_coeff,
    gamma_coeff_oracle,
    independence_witness,
    rn_basis_size,
    rn_dim,
    rn_dim_series,
    rn_window,
)
from gkbench.growth import MIN_POINTS, GrowthSeries, degree_estimate
from gkbench.ordgroup import GroupElem


def inv_word(*indices):
    """Product of x_i^-1 over the given indices (with multiplicity)."""
    exps = {}
    for i in indices:
        exps[i] = exps.get(i, 0) - 1
    return GroupElem(exps)


# --- gamma_coeff -----------------------------------------------------------


def test_factorial_diagonal():
    for n in range(1, 9):
        target = inv_word(*range(1, n + 1))
        assert gamma_coeff(n, target) == factorial(n)


def test_power_three_single_index():
    assert gamma_coeff(3, GroupElem({1: -3})) == 1


def test_grading_mismatch_is_zero():
    assert gamma_coeff(2, GroupElem({1: -1})) == 0
    assert gamma_coeff(0, GroupElem({1: -1})) == 0
    assert gamma_coeff(0, GroupElem.identity()) == 1


def test_rejects_positive_exponents():
    with pytest.raises(ValueError):
        gamma_coeff(1, GroupElem({1: 1}))
    with pytest.raises(ValueError):
        gamma_coeff(-1, GroupElem.identity())


# --- the oracle ----------------------------------------------------------------


def test_oracle_examples():
    assert gamma_coeff_oracle(4, inv_word(1, 2, 3, 4)) == 24
    assert gamma_coeff_oracle(3, inv_word(1, 1, 2)) == 3
    assert gamma_coeff_oracle(1, GroupElem({5: -1})) == 1


def test_oracle_bounds():
    with pytest.raises(ValueError):
        gamma_coeff_oracle(11, inv_word(*range(1, 12)))


def test_oracle_agrees_with_closed_form():
    rng = random.Random(31337)
    for _ in range(400):
        power = rng.randint(0, 8)
        support = rng.sample(range(1, 9), rng.randint(0, min(4, max(power, 1))))
        target_sum = power if rng.random() < 0.8 else max(0, power - 1)
        exps = {}
        remaining = target_sum
        for idx, i in enumerate(support):
            take = remaining if idx == len(support) - 1 else rng.randint(0, remaining)
            if take:
                exps[i] = -take
            remaining -= take
        target = GroupElem(exps)
        assert gamma_coeff(power, target) == gamma_coeff_oracle(power, target)


# --- independence witness ---------------------------------------------------------


def test_witness_degree_three():
    w = independence_witness(3)
    assert w.diagonal == (1, 2, 6)
    assert w.independent
    for n in range(4):
        for k in range(4):
            assert w.matrix[n][k] == (factorial(n) if n == k else 0)


def test_witness_degree_one():
    w = independence_witness(1)
    assert w.diagonal == (1,)
    assert w.independent


def test_witness_degree_six():
    w = independence_witness(6)
    assert w.diagonal == (1, 2, 6, 24, 120, 720)
    assert w.independent
    assert any("a_6" in line for line in w.trace)
    assert w.trace[-1] == "verdict: independent"


def test_witness_charges_its_matrix_before_building_it():
    # (d + 1) * d * (d + 1) // 2: one op per target exponent each column reads
    saved = budget.cap()
    budget.set_cap(100)
    try:
        with pytest.raises(budget.WorkBudgetExceeded):
            independence_witness(6)
        assert budget.used() == 7 * 6 * 7 // 2  # nothing charged past it
        budget.set_cap(None)
        independence_witness(6)
        # plus the diagonal gamma_coeff calls, n ops each; the rest are free
        assert budget.used() == 147 + sum(range(7))
    finally:
        budget.set_cap(saved)


def test_witness_rejects_degree_zero():
    with pytest.raises(ValueError):
        independence_witness(0)


# --- the monomial count --------------------------------------------------------------


def brute_rn_dim(pairs, degree):
    """Oracle: enumerate every (a, eps, mu) triple explicitly."""
    count = 0
    for a in range(degree + 1):
        for bits in itertools.product((0, 1), repeat=2 * pairs):
            if a + sum(bits) <= degree:
                count += 1
    return count


def test_rn_dim_examples():
    assert rn_dim(1, 2) == 8 == brute_rn_dim(1, 2)
    assert rn_dim(0, 5) == 6
    for r in range(4, 9):
        assert rn_dim(2, r + 1) - rn_dim(2, r) == 16


def test_rn_dim_matches_brute_force():
    for pairs in range(4):
        for degree in range(10):
            assert rn_dim(pairs, degree) == brute_rn_dim(pairs, degree)


def test_rn_dim_increment_is_basis_size():
    for pairs in range(5):
        for r in range(2 * pairs, 2 * pairs + 6):
            assert rn_dim(pairs, r + 1) - rn_dim(pairs, r) == 4**pairs


def test_rn_basis_size():
    assert rn_basis_size(1) == 4
    assert rn_basis_size(0) == 1
    assert rn_basis_size(3) == 64


def test_rn_growth_degree_is_one():
    for pairs in range(5):
        series = GrowthSeries(rn_dim_series(pairs, 2 * pairs + 12, max(1, 2 * pairs)))
        est = degree_estimate(series)
        assert est.snapped == 1 and est.at_least is None


def test_rn_dim_validation():
    with pytest.raises(ValueError):
        rn_dim(-1, 3)
    with pytest.raises(ValueError):
        rn_dim_series(2, 0)


def test_rn_window_holds_just_enough_points_for_the_fit():
    for pairs, least in ((0, 6), (1, 7), (2, 9), (3, 11)):
        r_min, r_max = rn_window(pairs, least)
        assert r_max - r_min + 1 == MIN_POINTS
        degree_estimate(GrowthSeries(rn_dim_series(pairs, r_max, r_min)))
        with pytest.raises(ValueError, match=f"^rmax must be at least {least} for n = {pairs}: "):
            rn_window(pairs, least - 1)
    assert rn_window(2) == (4, 16)


def test_gamma_coeff_charges_its_factorials():
    for power, target, charge in (
        (1000, GroupElem({1: -500, 2: -500}), 1000 * (1000 * 10 // 64 + 1)),
        (14, GroupElem({1: -7, 2: -7}), 14),
        (0, GroupElem(), 0),
        (5, GroupElem({1: -1}), 0),  # off the grading: no factorial taken
    ):
        budget.reset()
        gamma_coeff(power, target)
        assert budget.used() == charge


def test_gamma_coeff_on_the_cli_workload_range():
    rng = random.Random(14)
    for power in range(6, 15):
        for _ in range(5):
            cuts = sorted(rng.sample(range(1, power), 2))
            parts = (cuts[0], cuts[1] - cuts[0], power - cuts[1])
            target = GroupElem({i: -m for i, m in zip(rng.sample(range(1, 7), 3), parts)})
            # multinomial as a product of binomials, an independent route
            expected, left = 1, power
            for m in parts:
                expected, left = expected * comb(left, m), left - m
            assert gamma_coeff(power, target) == expected
            if power <= 10:
                assert gamma_coeff(power, target) == gamma_coeff_oracle(power, target)
