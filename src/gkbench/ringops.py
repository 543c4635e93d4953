"""Helpers shared by the element types of every ring in the workbench."""

from __future__ import annotations


def power(base, exponent: int, one):
    """base**exponent for exponent >= 0 by repeated squaring, with `one`
    returned for exponent 0.  Only powers of `base` are multiplied, so this
    is exact in noncommutative rings too."""
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    result = None
    while exponent:
        if exponent & 1:
            result = base if result is None else result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return one if result is None else result
