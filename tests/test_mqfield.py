"""Field layer: canonical sparse form, arithmetic, automorphisms, inverses."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gkbench import budget, mqfield
from gkbench.mqfield import MQElem, PrimeBasis, first_primes, is_prime
from gkbench.sampling import random_mq

BASIS = PrimeBasis.first(5)  # 2, 3, 5, 7, 11
ONE = BASIS.one()


def mq(coeffs):
    return MQElem(BASIS, coeffs)


fractions_st = st.fractions(min_value=-9, max_value=9, max_denominator=4)
subsets_st = st.frozensets(st.integers(min_value=1, max_value=5), max_size=3)
mq_st = st.builds(
    mq, st.dictionaries(subsets_st, fractions_st, max_size=4)
)


# --- basis -----------------------------------------------------------------


def test_first_primes():
    assert first_primes(5) == (2, 3, 5, 7, 11)
    assert is_prime(97) and not is_prime(91) and not is_prime(1)


def test_a_first_basis_tests_each_candidate_once(monkeypatch):
    """`first_primes` tests each candidate, and `first` builds its basis from
    them without testing again: the six primes up to 13 take twelve tests."""
    tested = []
    monkeypatch.setattr(mqfield, "is_prime", lambda n: tested.append(n) or is_prime(n))
    basis = PrimeBasis.first(6)
    assert tested == list(range(2, 14))
    monkeypatch.undo()
    assert basis == PrimeBasis((2, 3, 5, 7, 11, 13)) and basis.pp[0b110101] == 2 * 5 * 11 * 13


def test_basis_validation():
    with pytest.raises(ValueError):
        PrimeBasis([2, 4])
    with pytest.raises(ValueError):
        PrimeBasis([3, 2])
    with pytest.raises(ValueError):
        PrimeBasis([2, 2])
    # a prime whose trial division passes the cap is refused untested, at
    # no charge; 10^18 + 3 would take 5 * 10^8 candidates
    used = budget.used()
    with pytest.raises(budget.WorkBudgetExceeded, match=r"^trial division of 10{17}3 \(500000001 candidates\) "):
        PrimeBasis([2, 10**18 + 3])
    # one past the interpreter's digit limit is named by its size, refused
    # the same way; uncapped, it is found composite (17 divides it)
    with pytest.raises(budget.WorkBudgetExceeded, match=r"^trial division of a 16610-bit integer exceeds "):
        PrimeBasis([10**5000 + 1])
    assert budget.used() == used
    saved = budget.cap()
    budget.set_cap(None)
    try:
        with pytest.raises(ValueError, match=r"^a 16610-bit integer is not prime$"):
            PrimeBasis([10**5000 + 1])
    finally:
        budget.set_cap(saved)
    assert PrimeBasis([2, 3, 5]) == PrimeBasis.first(3)


def test_element_rejects_out_of_range_subset():
    with pytest.raises(IndexError):
        mq({frozenset({6}): 1})


def test_element_rejects_a_repeated_index_and_two_keys_for_one_subset():
    """sqrt(p1)*sqrt(p1) = p1, so a key (1, 1) is not the subset {1}; and two
    keys naming one subset would overwrite each other, even when one is zero."""
    with pytest.raises(ValueError, match=r"the key \(1, 1\) repeats a radical index"):
        mq({(1, 1): 3})
    with pytest.raises(ValueError, match=r"the key \(2, 3, 2\) repeats"):
        BASIS.element({(2, 3, 2): 1})
    with pytest.raises(ValueError, match=r"two keys name the radical subset \(1, 2\)"):
        mq({(1, 2): 1, (2, 1): 1})
    with pytest.raises(ValueError, match=r"two keys name the radical subset \(\)"):
        BASIS.element({(): 0, frozenset(): 5})
    assert mq({(2, 1): 1, (1,): 0}) == mq({frozenset({1, 2}): 1})


def test_element_rejects_keys_that_are_not_collections_of_int_indices():
    basis = PrimeBasis.first(12)
    with pytest.raises(ValueError, match=r"the key '12' has a radical index '1' that is not an int"):
        basis.element({"12": 1})
    with pytest.raises(ValueError, match=r"the key \(1\.9,\) has a radical index 1\.9 that is not an int"):
        basis.element({(1.9,): 1})
    with pytest.raises(ValueError, match=r"the key 1 is not a collection of radical indices"):
        basis.element({1: 3})
    a = basis.element({frozenset({1, 12}): 3, (): Fraction(1, 2)})
    assert a == basis.element({(12, 1): 3, (): Fraction(1, 2)})
    assert basis.element(a.coeffs) == a


def test_canonical_form_drops_zeros():
    assert mq({frozenset({1}): 0}) == BASIS.zero()
    assert not mq({frozenset({1}): Fraction(0)})


# --- addition ---------------------------------------------------------------


def test_add_cancellation():
    s1 = BASIS.radical(1)
    assert (ONE + s1) + (-s1) == ONE


def test_add_identity():
    s3 = BASIS.radical(3)
    assert BASIS.zero() + s3 == s3


def test_add_rationals():
    assert BASIS.rational(Fraction(1, 2)) + BASIS.rational(Fraction(1, 3)) == BASIS.rational(
        Fraction(5, 6)
    )


def test_add_basis_mismatch():
    other = PrimeBasis.first(3)
    with pytest.raises(ValueError):
        ONE + other.one()


# --- multiplication ------------------------------------------------------------


def test_square_of_radical_is_prime():
    s1 = BASIS.radical(1)
    assert s1 * s1 == BASIS.rational(2)


def test_disjoint_radicals_merge():
    assert BASIS.radical(1) * BASIS.radical(2) == mq({frozenset({1, 2}): 1})


def test_conjugate_product():
    s1 = BASIS.radical(1)
    assert (ONE + s1) * (ONE - s1) == BASIS.rational(-1)


def test_overlap_prefactor():
    # sqrt(p1 p2) * sqrt(p2 p3) = p2 * sqrt(p1 p3)
    a = mq({frozenset({1, 2}): 1})
    b = mq({frozenset({2, 3}): 1})
    assert a * b == mq({frozenset({1, 3}): 3})


# --- inverses ----------------------------------------------------------------------


def test_inverse_of_one_plus_sqrt2():
    a = ONE + BASIS.radical(1)
    inv = a.inv()
    assert a * inv == ONE
    assert inv == -ONE + BASIS.radical(1)


def test_inverse_of_rational():
    assert BASIS.rational(2).inv() == BASIS.rational(Fraction(1, 2))


def test_inverse_of_radical():
    s2 = BASIS.radical(2)  # sqrt(3)
    inv = s2.inv()
    assert s2 * inv == ONE
    assert inv == mq({frozenset({2}): Fraction(1, 3)})


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        BASIS.zero().inv()


# --- automorphisms -------------------------------------------------------------------


def test_f_negates_own_radical():
    s1 = BASIS.radical(1)
    assert s1.apply_f(1) == -s1


def test_f_fixes_other_radicals():
    s2 = BASIS.radical(2)
    assert s2.apply_f(1) == s2


def test_f_fixes_rationals():
    q = BASIS.rational(Fraction(3, 4))
    assert q.apply_f(2) == q


def test_f_index_out_of_range():
    with pytest.raises(IndexError):
        ONE.apply_f(6)
    with pytest.raises(IndexError):
        ONE.apply_f(0)


def test_fixed_by_all_examples():
    assert BASIS.rational(Fraction(3, 4)).fixed_by_all()
    assert not BASIS.radical(2).fixed_by_all()
    assert not (ONE + mq({frozenset({1, 2}): 1})).fixed_by_all()


# --- randomized properties ------------------------------------------------------------


@given(mq_st, mq_st, st.integers(min_value=1, max_value=5))
def test_f_is_multiplicative(a, b, i):
    assert (a * b).apply_f(i) == a.apply_f(i) * b.apply_f(i)


@given(mq_st, st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
def test_automorphisms_commute(a, i, j):
    assert a.apply_f(i).apply_f(j) == a.apply_f(j).apply_f(i)


@given(mq_st, st.integers(min_value=1, max_value=5))
def test_f_is_involution(a, i):
    assert a.apply_f(i).apply_f(i) == a


@given(mq_st, mq_st, mq_st)
def test_field_axioms_spot_checks(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a


def test_inverse_on_random_elements():
    rng = random.Random(20240)
    for _ in range(200):
        a = random_mq(rng, BASIS, max_terms=3, nonzero=True)
        assert a * a.inv() == ONE
        assert a.inv() * a == ONE


def test_pow_matches_repeated_multiplication():
    a = ONE + BASIS.radical(1) - BASIS.radical(3)
    assert a**3 == a * a * a
    assert a**0 == ONE
    assert a**-2 == (a * a).inv()


def test_str_rendering():
    assert str(BASIS.zero()) == "0"
    assert str(ONE - BASIS.radical(1)) == "1 - s1"
    assert str(mq({frozenset({1, 2}): Fraction(3, 2)})) == "3/2*s1*s2"
    assert str(mq({frozenset({1}): -1})) == "-s1"
