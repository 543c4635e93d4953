"""Dense polynomial long division over Fraction (little-endian coefficient
lists): the reference that the cyclotomic tests reduce against."""

from fractions import Fraction


def _trim(coeffs):
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def poly_divmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quot = [Fraction(0)] * max(0, len(rem) - len(b) + 1)
    lead = b[-1]
    while len(rem) >= len(b):
        factor = rem[-1] / lead
        shift = len(rem) - len(b)
        quot[shift] = factor
        for i, cb in enumerate(b):
            rem[shift + i] -= factor * cb
        _trim(rem)
        if not rem:
            break
    return _trim(quot), rem
