"""Seeded random element generators, shared by the verification campaigns
and the bulk randomized tests.  Everything takes an explicit random.Random
so that runs are reproducible from a seed."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .mqfield import MQElem, PrimeBasis
from .ordgroup import GroupElem
from .qaffine import FreeWord, QAlgebra
from .twistring import TwistedElem


def _ratio(rng, span: int = 9, max_den: int = 4) -> tuple[int, int]:
    return rng.randint(-span, span), rng.randint(1, max_den)


def _sample_indices(rng, max_index: int, max_size: int = 3) -> list[int]:
    size = rng.randint(0, min(max_size, max_index))
    return rng.sample(range(1, max_index + 1), size)


def random_fraction(rng, span: int = 9, max_den: int = 4, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(*_ratio(rng, span, max_den))
        if value or not nonzero:
            return value


def random_subset(rng, max_index: int, max_size: int = 3) -> frozenset:
    return frozenset(_sample_indices(rng, max_index, max_size))


def random_mq(rng, basis: PrimeBasis, max_terms: int = 3, nonzero: bool = False) -> MQElem:
    """Up to max_terms terms, each a random_fraction draw and then a
    random_subset draw; a repeated subset keeps its last value."""
    n = len(basis)
    while True:
        ratios = {}
        for _ in range(rng.randint(0, max_terms)):
            value = _ratio(rng)
            ratios[sum(1 << (i - 1) for i in _sample_indices(rng, n))] = value
        den = lcm(*(d for _, d in ratios.values()))
        elem = MQElem._make(basis, {m: a * (den // d) for m, (a, d) in ratios.items()}, den)
        if elem or not nonzero:
            return elem


def random_group(rng, max_index: int = 4, max_exp: int = 3, max_support: int = 3) -> GroupElem:
    support = rng.sample(range(1, max_index + 1), rng.randint(0, min(max_support, max_index)))
    exponents = [e for e in range(-max_exp, max_exp + 1) if e]
    exps = {i: rng.choice(exponents) for i in support}
    return GroupElem._make(exps, sum(1 << (i - 1) for i, e in exps.items() if e & 1))


def random_square_group(rng, max_index: int = 4, max_exp: int = 2) -> GroupElem:
    """The square of a random_group draw: doubled exponents, no odd one."""
    g = random_group(rng, max_index, max_exp)
    return GroupElem._make({i: 2 * e for i, e in g.exps.items()}, 0)


def random_twisted(
    rng,
    basis: PrimeBasis,
    max_terms: int = 3,
    max_index: int = 4,
    coeff_terms: int = 2,
) -> TwistedElem:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        g = random_group(rng, max_index)
        g.check_within(len(basis))
        terms[g] = random_mq(rng, basis, coeff_terms)
    return TwistedElem._make(basis, terms)


def random_central_twisted(rng, basis: PrimeBasis, max_terms: int = 3, max_index: int = 4) -> TwistedElem:
    """Support inside the squares subgroup, rational coefficients."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        a, b = _ratio(rng)  # a random_fraction draw, brought to lowest terms by _make
        g = random_square_group(rng, max_index)
        g.check_within(len(basis))
        terms[g] = MQElem._make(basis, {0: a}, b)
    return TwistedElem._make(basis, terms)


def random_word(rng, algebra: QAlgebra, max_len: int = 8) -> FreeWord:
    length = rng.randint(0, max_len)
    indices = [rng.randint(1, algebra.n) for _ in range(length)]
    return FreeWord(algebra, indices, algebra.field.one())
