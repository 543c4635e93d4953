"""Multiquadratic arithmetic on {index subset: Fraction} maps, written the
direct way: the reference that the integer kernel of `MQElem` is tested
against.  `primes[i - 1]` is p_i; every result drops its zero coefficients."""

from fractions import Fraction


def mq_mul(primes, a, b):
    """sqrt(p_S) * sqrt(p_T) = (prod of p_i, i in S & T) * sqrt(p_(S ^ T))."""
    out = {}
    for s, x in a.items():
        for t, y in b.items():
            factor = Fraction(x) * y
            for i in s & t:
                factor *= primes[i - 1]
            out[s ^ t] = out.get(s ^ t, 0) + factor
    return {k: v for k, v in out.items() if v}


def mq_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: Fraction(v) for k, v in out.items() if v}


def mq_flip(a, indices):
    """Negate sqrt(p_i) for every i in `indices`."""
    return {s: -v if len(s & indices) % 2 else v for s, v in a.items()}
