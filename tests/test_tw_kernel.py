"""The one-accumulation twisted product and commutator of `TwistedElem`
against the per-term-pair oracle in tworacle.py: bases of 1 to 6 primes, odd
and even exponents, coprime and repeated denominators up to 2**40, term
pairs that cancel inside one output group element, commutators that cancel
to zero, zero, one and single-term operands, the budget charges, and
results in lowest terms.  The one-pass commutator gets its own cases:
supports mixing square and odd group elements on both sides (only odd ones
twist), a bracket that cancels at one output group element and not at
another, and central elements against every probe of the commutation
sweep.  The sweep itself, which reads each probe's bracket term by term, is
checked against the 2m whole commutators of tworacle.tw_sweep_oracle: the
verdict, the budget charges and where a small cap runs out."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gkbench import budget
from gkbench.mqfield import MQElem, PrimeBasis
from gkbench.ordgroup import GroupElem
from gkbench.sampling import random_central_twisted
from gkbench.twistring import TwistedElem
from tworacle import tw_commutator, tw_mul, tw_sweep_oracle

BASES = {n: PrimeBasis.first(n) for n in range(1, 7)}
# a few small coprime denominators beside arbitrary ones up to 2**40; each
# case draws a pool of them, so coefficients repeat or mix denominators
DENOMINATORS = st.one_of(st.sampled_from((1, 2, 3, 5, 6, 7, 2**40)), st.integers(1, 2**40))


@st.composite
def coefficients(draw, basis, dens):
    """A nonzero MQElem with 1 to 4 radical terms, each over a pool denominator."""
    n = len(basis)
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4, unique=True))
    return MQElem(basis, {
        frozenset(i for i in range(1, n + 1) if m >> (i - 1) & 1):
            Fraction(draw(st.integers(-2**40, 2**40).filter(bool)), draw(st.sampled_from(dens)))
        for m in masks
    })


def group_elements(n):
    """Exponents in -3..3 on indices 1..n: odd and even ones, the identity too."""
    return st.dictionaries(st.integers(1, n), st.integers(-3, 3), max_size=3).map(GroupElem)


@st.composite
def operands(draw, basis, dens):
    """Zero, one, a single term, or a sum of up to four terms."""
    kind = draw(st.sampled_from(("zero", "one", "single", "sum", "sum")))
    if kind == "zero":
        return TwistedElem.zero(basis)
    if kind == "one":
        return TwistedElem.one(basis)
    size = 1 if kind == "single" else draw(st.integers(2, 4))
    keys = draw(st.lists(group_elements(len(basis)), min_size=1, max_size=size, unique=True))
    return TwistedElem(basis, {g: draw(coefficients(basis, dens)) for g in keys})


@st.composite
def cancelling_pair(draw, basis, dens):
    """a = c x + c' w and b = d y + d' v with w = xg, v = g^-1 y, so that the
    pairs (x, y) and (w, v) both land on xy, and c' chosen so that they
    cancel there: c' twist_w(d') = -c twist_x(d)."""
    n = len(basis)
    x, y, g = (draw(group_elements(n)) for _ in range(3))
    if g.is_identity():
        g = GroupElem.generator(draw(st.integers(1, n)))
    w, v = x * g, g.inv() * y
    c, d, d2 = (draw(coefficients(basis, dens)) for _ in range(3))
    c2 = -(c * x.twist(d)) * w.twist(d2).inv()
    a = TwistedElem(basis, {x: c}) + TwistedElem(basis, {w: c2})
    b = TwistedElem(basis, {y: d}) + TwistedElem(basis, {v: d2})
    return a, b


@st.composite
def cases(draw):
    basis = BASES[draw(st.integers(1, 6))]
    dens = draw(st.lists(DENOMINATORS, min_size=1, max_size=3))
    if draw(st.integers(0, 3)) == 0:
        return draw(cancelling_pair(basis, dens))
    return draw(operands(basis, dens)), draw(operands(basis, dens))


def charged(fn, *args):
    """(fn(*args), the budget ops it charged)."""
    used = budget.used()
    value = fn(*args)
    return value, budget.used() - used


def assert_canonical(value):
    """Nonzero coefficients in lowest terms; support elements whose cached
    odd-exponent mask and hash match a freshly validated copy."""
    for g, c in value.terms.items():
        assert c.terms and c.den > 0 and gcd(c.den, *c.terms.values()) == 1
        assert all(type(v) is int and v for v in c.terms.values())
        fresh = GroupElem(g.exps)
        assert (g._odd, hash(g)) == (fresh._odd, hash(fresh))


@given(cases())
def test_kernel_matches_the_oracle(case):
    a, b = case
    pairs = len(a.terms) * len(b.terms)
    product, ops = charged(TwistedElem.__mul__, a, b)
    assert (product, ops) == (charged(tw_mul, a, b)[0], pairs)
    assert_canonical(product)
    bracket, ops = charged(TwistedElem.commutator, a, b)
    assert (bracket, ops) == (charged(tw_commutator, a, b)[0], 2 * pairs)
    assert_canonical(bracket)
    # whole commutators that cancel: with itself, with one, with its square
    for other in (a, TwistedElem.one(a.parent), a * a):
        assert a.commutator(other) == tw_commutator(a, other) == TwistedElem.zero(a.parent)


def test_cancelling_pairs_leave_no_term_at_their_group_element():
    basis = BASES[3]
    x, y, g = GroupElem({1: 1, 2: -2}), GroupElem({3: 3}), GroupElem({1: -1, 3: 1})
    w, v = x * g, g.inv() * y
    c, d = basis.element({(1,): Fraction(3, 7), (2, 3): 2}), basis.element({(1, 3): Fraction(5, 2**40)})
    d2 = basis.element({(): Fraction(-1, 3), (1,): 1})
    c2 = -(c * x.twist(d)) * w.twist(d2).inv()
    a = TwistedElem(basis, {x: c, w: c2})
    b = TwistedElem(basis, {y: d, v: d2})
    product = a * b
    assert x * y not in product.terms and len(product.terms) == 2
    assert product == tw_mul(a, b)


def assert_commutator(a, b):
    """a.commutator(b) against the oracle: value, the 2*pairs charge, lowest terms."""
    bracket, ops = charged(TwistedElem.commutator, a, b)
    assert (bracket, ops) == (tw_commutator(a, b), 2 * len(a.terms) * len(b.terms))
    assert_canonical(bracket)
    return bracket


@st.composite
def mixed_operands(draw, basis, dens):
    """A sum with at least one square and one odd group element in its
    support, so that both orders of a commutator meet twisting and
    non-twisting elements on each side."""
    n = len(basis)
    odd = draw(group_elements(n).filter(lambda g: g._odd))
    square = GroupElem({i: 2 * e for i, e in draw(group_elements(n)).exps.items()})
    keys = {odd, square, *draw(st.lists(group_elements(n), max_size=2))}
    return TwistedElem(basis, {g: draw(coefficients(basis, dens)) for g in keys})


@st.composite
def mixed_cases(draw):
    basis = BASES[draw(st.integers(1, 6))]
    dens = draw(st.lists(DENOMINATORS, min_size=1, max_size=3))
    return draw(mixed_operands(basis, dens)), draw(mixed_operands(basis, dens))


@given(mixed_cases())
def test_commutators_of_supports_mixing_square_and_odd_elements(case):
    a, b = case
    assert_commutator(a, b)
    assert_commutator(b, a)


def test_a_commutator_can_cancel_at_one_group_element_and_not_another():
    basis = BASES[3]
    r1, r2 = basis.radical(1), basis.radical(2)
    # within one pair: x1^2 is a square and sqrt(p1) is fixed by x2, so the
    # two orders of (x1^2, x2) cancel; (x1, x2) twists sqrt(p2) and does not
    a = TwistedElem(basis, {GroupElem({1: 2}): r1, GroupElem({1: 1}): r2})
    b = TwistedElem(basis, {GroupElem({2: 1}): basis.rational(Fraction(3, 4))})
    bracket = assert_commutator(a, b)
    assert bracket.terms == {GroupElem({1: 1, 2: 1}): basis.rational(Fraction(3, 2)) * r2}
    # across pairs: w = x*g and v = y/g with g a square twist as x and y do,
    # so (w, v) lands on xy with the bracket of (x, y) negated
    x, y, g = GroupElem({1: 1}), GroupElem({2: -1, 3: 1}), GroupElem({3: 2})
    c = basis.one() + r1 + basis.radical(3)
    d = basis.element({(1, 2): Fraction(5, 3), (3,): -1})
    a = TwistedElem(basis, {x: c, x * g: -c})
    b = TwistedElem(basis, {y: d, g.inv() * y: d})
    bracket = assert_commutator(a, b)
    assert x * y not in bracket.terms and TwistedElem(basis, {x: c}).commutator(TwistedElem(basis, {y: d}))
    assert set(bracket.terms) == {x * g.inv() * y, x * g * y}


def test_central_elements_commute_with_every_sweep_probe(monkeypatch):
    """Each probe the commutation sweep uses, sqrt(p_i) at e and x_i, gives
    TwistedElem.zero.  The sweep builds no MQElem at all, so its count
    cannot grow with the element's terms or its mix of denominators."""
    rng = random.Random(18)
    built = []
    make = MQElem._make.__func__
    monkeypatch.setattr(MQElem, "_make", classmethod(lambda cls, *args: built.append(args) or make(cls, *args)))
    mixed = 0
    for n, basis in BASES.items():
        e, one = GroupElem.identity(), basis.one()
        probes = [TwistedElem(basis, {e: basis.radical(i)}) for i in range(1, n + 1)]
        probes += [TwistedElem(basis, {GroupElem.generator(i): one}) for i in range(1, n + 1)]
        for _ in range(20):
            central = random_central_twisted(rng, basis, max_terms=4, max_index=n)
            common = len({c.den for c in central.terms.values()}) <= 1
            mixed += not common
            built.clear()
            assert central.is_central_by_commutation(n)
            assert built == []
            for probe in probes:
                for left, right in ((central, probe), (probe, central)):
                    assert assert_commutator(left, right) == TwistedElem.zero(basis)
    assert mixed  # some sweeps above read coefficients over different denominators


@st.composite
def sweep_cases(draw):
    """(element, m, central or None): a support of squares with rational
    coefficients over the pool denominators, central; the same with one term
    broken by an odd exponent or a radical in its coefficient, not central;
    or any operand (zero, one, one term, a sum), verdict unknown.  m runs
    from the element's largest index to the basis size."""
    n = draw(st.integers(1, 6))
    basis = BASES[n]
    dens = draw(st.lists(DENOMINATORS, min_size=1, max_size=3))
    kind = draw(st.sampled_from(("central", "broken", "operand")))
    if kind == "operand":
        elem, central = draw(operands(basis, dens)), None
    else:
        squares = group_elements(n).map(lambda g: GroupElem({i: 2 * e for i, e in g.exps.items()}))
        rationals = st.builds(Fraction, st.integers(-2**40, 2**40).filter(bool), st.sampled_from(dens))
        terms = draw(st.dictionaries(squares, rationals.map(basis.rational), min_size=kind == "broken", max_size=4))
        central = kind == "central"
        if not central:
            g = draw(st.sampled_from(sorted(terms)))
            if draw(st.booleans()):
                odd = GroupElem.generator(draw(st.integers(1, n)), draw(st.sampled_from((-3, -1, 1, 3))))
                terms[g * odd] = terms.pop(g)
            else:
                terms[g] += draw(coefficients(basis, dens))
                central = None if terms[g].fixed_by_all() else False
        elem = TwistedElem(basis, terms)
    return elem, draw(st.integers(elem.max_index(), n)), central


@given(sweep_cases(), st.data())
def test_sweep_matches_the_oracle(case, data):
    elem, m, central = case
    verdict, ops = charged(TwistedElem.is_central_by_commutation, elem, m)
    assert (verdict, ops) == charged(tw_sweep_oracle, elem, m)
    assert central is None or verdict == central
    if not ops:
        return
    # a cap below what the sweep charges runs out at the same charge in both
    cap = data.draw(st.integers(0, ops - 1))
    saved = budget.cap()
    try:
        messages = []
        for sweep in (TwistedElem.is_central_by_commutation, tw_sweep_oracle):
            budget.set_cap(cap)
            with pytest.raises(budget.WorkBudgetExceeded) as exc:
                sweep(elem, m)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
    finally:
        budget.set_cap(saved)
