"""Dense polynomial long division over Fraction (little-endian coefficient
lists), and the cyclotomic polynomials: the reference that the cyclotomic
tests reduce against."""

from fractions import Fraction


def _trim(coeffs):
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def cyclotomic(field):
    """The p**(2t)-th cyclotomic polynomial that defines `field`, from its
    (p, t) alone: sum_{j<p} X**(j*p**(2t-1)), or X - 1 at t = 0."""
    p, t = field.p, field.t
    if t == 0:
        return [Fraction(-1), Fraction(1)]
    step = p ** (2 * t - 1)
    coeffs = [Fraction(0)] * ((p - 1) * step + 1)
    coeffs[::step] = [Fraction(1)] * p
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
