"""Seeded random cyclotomic and quantum-polynomial values for the tests that
draw them (the campaigns draw none)."""

from fractions import Fraction

from gkbench.qaffine import QPoly


def random_cyc(rng, field, span: int = 4, nonzero: bool = False):
    while True:
        elem = field.element(
            [Fraction(rng.randint(-span, span)) for _ in range(field.degree)]
        )
        if elem or not nonzero:
            return elem


def random_qpoly(rng, algebra, max_terms: int = 3, max_exp: int = 2) -> QPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(algebra.n))
        terms[exps] = random_cyc(rng, algebra.field, span=3)
    return QPoly(algebra, terms)
