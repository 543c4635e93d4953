"""Helpers shared by the element types of every ring in the workbench (the
primality test of both field types, powers, the rational edge, rendering),
and `TermSum`, the one sparse-sum core under `MQElem`, `TwistedElem` and
`QPoly`.

The kernels hold rationals as integer numerators over a denominator, so a
rational crosses the value edge as an integer pair: `ratio` reads one in,
`ratio_text` writes one out, and `fractions` is imported only for an input
that is not already a pair of ints (a float, a Decimal, a string).  Integers
are written by `int_text`, also past the interpreter's digit limit.

A `TermSum` is a finite sum  sum a_k * k  kept as a canonical map `terms`
{key: nonzero coefficient} over a `parent` (a `PrimeBasis` or a `QAlgebra`).
The additive group, equality, hashing and the trusted constructor are written
here once for `TwistedElem` and `QPoly`.  `MQElem`, whose integer numerators
share one denominator, overrides all four and keeps from here only the parent
check, the difference (its own sum of a negation), truth and `repr`.  A
subclass adds its validating `__init__`, its product, powers and inverse, and
its rendering.
"""

from __future__ import annotations

from math import gcd, isqrt


def trial_divisions(n: int) -> int:
    """isqrt(n)//2 + 1, the most candidates `is_prime` tries on n: its cost."""
    return isqrt(max(n, 0)) // 2 + 1


def check_prime(n: int) -> None:
    """Raise ValueError unless n is prime, its trial division admitted first."""
    from . import budget  # imported here: `gkbench.is_prime` alone loads only ringops

    cost = trial_divisions(n)
    try:
        name, what = f"{n}", f"trial division of {n} ({cost} candidates)"
    except ValueError:  # n past the digit limit is named by its size
        name = f"a {n.bit_length()}-bit integer"
        what = f"trial division of {name}"
    budget.admit(cost, what)
    if not is_prime(n):
        raise ValueError(f"{name} is not prime")


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (basis primes are small,
    and a cyclotomic prime is tested once its field fits the work budget)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def ratio(value) -> tuple[int, int]:
    """(numerator, denominator) of a rational value, in lowest terms with a
    positive denominator, as `Fraction(value)` gives them.  An int, a bool
    or a Fraction is read directly; anything else goes through `Fraction`,
    which raises for what is not a rational."""
    try:
        num, den = value.numerator, value.denominator
        if type(num) is int and type(den) is int:
            return num, den
    except AttributeError:
        pass
    from fractions import Fraction  # only an input that is not a pair of ints

    value = Fraction(value)
    return value.numerator, value.denominator


def int_text(n: int) -> str:
    """str(n), also past the interpreter's int-to-text digit limit: such an
    integer is written through `decimal`, charged the square of its 64-bit
    words first, as `Decimal(n)` converts it word by word in quadratic time."""
    try:
        return str(n)
    except ValueError:  # only the digit limit
        from decimal import Decimal
        from . import budget

        budget.charge(budget.words(n) ** 2)
        return str(Decimal(n))


def ratio_text(num: int, den: int) -> str:
    """num/den as `str(Fraction(num, den))` writes it, den positive:
    reduced, the sign on the numerator, no '/1'."""
    g = gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    return int_text(num) if den == 1 else f"{int_text(num)}/{int_text(den)}"


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


def charged_power(base, exponent: int, one):
    """base**exponent for any integer exponent, a negative one through
    base.inv().  The budget is charged |exponent| * base._words() first: a
    power's coefficients grow about that much, while every other operation
    yields at most the sum of its operands' sizes."""
    # imported here, on the first power, so that `gkbench.is_prime` alone
    # loads only ringops (tests/test_package.py pins it); the field modules
    # import budget themselves
    from . import budget

    budget.charge(abs(exponent) * base._words())
    if exponent < 0:
        base, exponent = base.inv(), -exponent
    return power(base, exponent, one)


def render_terms(terms) -> str:
    """A sum as text, from (coefficient text, word) pairs in display order;
    the word is '' for the constant term.

    A coefficient with a sum inside is parenthesized and added; otherwise
    its sign joins the terms, a unit coefficient is dropped before a word,
    and the first term shows only a minus sign.  An empty sum is '0'."""
    out = ""
    for text, word in terms:
        if " + " in text or " - " in text:
            sign, body = "+", f"({text})*{word}" if word else f"({text})"
        else:
            sign, body = ("-", text[1:]) if text.startswith("-") else ("+", text)
            if word:
                body = word if body == "1" else f"{body}*{word}"
        if out:
            out += f" {sign} {body}"
        else:
            out = body if sign == "+" else "-" + body
    return out or "0"


class TermSum:
    """Canonical finite sum: `terms` maps each key to a nonzero coefficient,
    all over one `parent`.  Values are immutable and operations pure.

    A subclass sets `_mismatch`, the message when two operands have
    different parents; the coefficients need `+`, unary `-`, `==`, `hash`
    and `_words()`."""

    __slots__ = ("parent", "terms")
    _mismatch = "parent mismatch"

    @classmethod
    def _make(cls, parent, terms: dict):
        """Trusted constructor: valid keys and coefficients; drops zeros."""
        elem = object.__new__(cls)
        elem.parent = parent
        elem.terms = {k: c for k, c in terms.items() if c}
        return elem

    def _check(self, other):
        if self.parent is not other.parent and self.parent != other.parent:
            raise ValueError(self._mismatch)

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            acc = out.get(k)
            out[k] = c if acc is None else acc + c
        return self._make(self.parent, out)

    def __neg__(self):
        return self._make(self.parent, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and (self.parent is other.parent or self.parent == other.parent)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.parent, frozenset(self.terms.items())))

    def _words(self) -> int:
        return sum(c._words() for c in self.terms.values())

    def __repr__(self):
        return f"{type(self).__name__}({self})"
