"""Exact arithmetic in the prime-power cyclotomic fields Q(zeta), zeta a
primitive m-th root of unity, m = p**(2t).

Representation.  An element is sum_{k<d} c_k zeta**k, d = phi(m), held as
integer numerators `nums` over one positive denominator `den`, in lowest
terms: gcd(nums, den) = 1, and den = 1 for zero.  That form is canonical, so
equality and hashing compare it directly.  A rational input is read as an
integer pair (`ringops.ratio`), and `coeffs` gives the vector as Fractions,
importing `fractions` only when it is read.

Reduction.  With s = m - d = p**(2t-1) the modulus is the cyclotomic
polynomial sum_{j<p} X**(j*s).  A coefficient vector of any length is
reduced in one O(d) pass: fold k -> k mod m (zeta**m = 1), then rewrite
each zeta**(d+r), r < s, as -sum_{j<p-1} zeta**(j*s+r).

Products.  Kronecker substitution: each numerator vector is packed into one
big integer, with slots wide enough for every coefficient of the product,
the two are multiplied once, and the product is unpacked with signs and
reduced.  Packing and unpacking run in C (`array`, `memoryview`) for slots
of up to 8 bytes.  `QPoly` products pack each term once per product, and
a square makes one big-int product per unordered pair of terms; each
output sum is reduced inside the integer (`_Level.reduce_packed`: signed
splits at m and at d slots, so its slots get a 6x margin) and only its d
slots are unpacked.  Multiplying by zeta**k is an
index shift (`times_zeta`); `_times` folds a product and such a shift into
one pass, and `conjugate(k)` applies the automorphism zeta -> zeta**k.

Inverses.  Down the tower Q(zeta_{p^k}) > Q(zeta_{p^(k-1)}) > ... > Q: the
product r of the conjugates of a over the next field down makes a*r a
relative norm, a polynomial in zeta**p.  That is inverted one level down,
and a**-1 = r * (a*r)**-1.

The degenerate level t = 0 (the rationals, zeta = 1, modulus X - 1) is
admitted so that maps out of the commutative base algebra can be checked
with the same machinery.

A field admits its degree (each element's coefficient count) and the trial
division of p to the work budget before it is built, and charges nothing.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from math import gcd, lcm
from operator import add, sub

from . import budget
from .budget import words
from .ringops import charged_power, check_prime, ratio, ratio_text, render_terms


# --- the integer kernel ------------------------------------------------------------

# Slot widths (bytes) that pack and unpack in C, through an array or a
# memoryview of signed machine words in native (here little-endian) order;
# wider slots go through int.to_bytes/from_bytes one by one.
_WORDS = {2: "h", 4: "i", 8: "q"} if sys.byteorder == "little" else {}


def _width(bound: int) -> int:
    """Slot width in bytes for signed values of magnitude at most `bound`."""
    width = (bound.bit_length() + 8) // 8  # the extra bit is the sign
    return next((size for size in _WORDS if size >= width), width)


@lru_cache(maxsize=64)
def _tops(width: int, slots: int) -> int:
    """The top bit of each of `slots` slots, built once per shape."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")


def _pack(nums, width: int, tops: int = 0) -> int:
    """sum_k nums[k] * 2**(8*width*k).  Written in two's complement, each
    negative slot borrowed one from the slot above; its top bit repays it.
    `tops`, if given, is `_tops(width, len(nums))`."""
    code = _WORDS.get(width)
    if code:
        raw = array(code, nums).tobytes()
    else:
        raw = b"".join(n.to_bytes(width, "little", signed=True) for n in nums)
    packed = int.from_bytes(raw, "little")
    return packed - ((packed & (tops or _tops(width, len(nums)))) << 1)


def _unpack(packed: int, width: int, slots: int) -> list:
    """The signed slots of a packed value, each below 2**(8*width - 1) in
    magnitude: adding the top bits makes every slot nonnegative, and flipping
    them back leaves each one in two's complement."""
    tops = _tops(width, slots)
    raw = ((packed + tops) ^ tops).to_bytes(slots * width, "little")
    code = _WORDS.get(width)
    if code:
        return memoryview(raw).cast(code).tolist()
    return [int.from_bytes(raw[i:i + width], "little", signed=True) for i in range(0, len(raw), width)]


class _Level:
    """Z[X]/Phi(X), Phi the p**k-th cyclotomic polynomial: integer vectors of
    length d = phi(p**k); `lower` is the level k - 1 (None at k = 0)."""

    __slots__ = ("p", "m", "d", "s", "lower")

    def __init__(self, p: int, k: int):
        self.p = p
        self.m = p**k
        self.d = (p - 1) * p ** (k - 1) if k else 1
        self.s = self.m - self.d
        self.lower = _Level(p, k - 1) if k else None

    def reduce(self, c):
        """Length-d representative of an integer list of any length; the
        list is consumed."""
        m, d, s = self.m, self.d, self.s
        if len(c) > m:
            head = c[:m]
            for start in range(m, len(c), m):
                chunk = c[start:start + m]
                head[:len(chunk)] = map(add, head, chunk)
            c = head
        if len(c) <= d:
            return c + [0] * (d - len(c))
        high = c[d:]  # zeta**(d+r) = -sum_{j<p-1} zeta**(j*s+r)
        del c[d:]
        width = len(high)
        for base in range(0, d, s):
            c[base:base + width] = map(sub, c[base:base + width], high)
        return c

    def reduce_packed(self, packed: int, width: int) -> list:
        """`reduce` inside a packed vector (`width`-byte slots) of length at
        most m + 2d - 2, unpacking only the d slots left: a signed split at
        m slots folds zeta**m = 1, and one at d slots, subtracted at each
        j*s, rewrites zeta**(d+r).  The fold adds up to three slot values
        and the rewrite one more such sum, so the slots need six times the
        input's bound.  `reduce` stays for callers holding a list (`shift`,
        `conjugate`, `element`), which need not pack one."""
        bits = 8 * width
        span = bits * self.m
        half = 1 << (span - 1)
        high = (packed + half) >> span
        while high:
            packed += high - (high << span)
            high = (packed + half) >> span
        span = bits * self.d
        half = 1 << (span - 1)
        high = (packed + half) >> span
        if high:
            packed -= high << span
            for base in range(0, span, bits * self.s):
                packed -= high << base
        return _unpack(packed, width, self.d)

    def mul(self, a, b):
        """a * b for nonzero vectors, by one big-int product."""
        width = _width(max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b)))
        return self.reduce(_unpack(_pack(a, width) * _pack(b, width), width, len(a) + len(b) - 1))

    def shift(self, a, k: int):
        """a * zeta**k."""
        m = self.m
        k %= m
        if not k:
            return list(a)
        c = list(a) + [0] * self.s
        return self.reduce(c[m - k:] + c[:m - k])

    def conjugate(self, a, j: int):
        """a with zeta -> zeta**j, j a unit mod m."""
        m = self.m
        c = [0] * m
        for i, x in enumerate(a):
            if x:
                c[i * j % m] = x
        return self.reduce(c)

    def inverse(self, a):
        """(nums, den) with a * nums / den = 1, for a nonzero vector a."""
        if self.d == 1:
            return [1 if a[0] > 0 else -1], abs(a[0])
        p, m, s = self.p, self.m, self.s
        # zeta -> zeta**j for j = 1 + s, 1 + 2s, ... are the automorphisms
        # over the next field down (at k = 1, every j = 2..p-1)
        r = None
        for j in range(1 + s, m, s):
            image = self.conjugate(a, j)
            r = image if r is None else self.mul(r, image)
        norm = self.mul(a, r)
        if any(any(norm[i::p]) for i in range(1, p)):
            raise ArithmeticError("relative norm has an exponent not divisible by p")
        nums, den = self.lower.inverse(norm[::p])
        up = [0] * self.d
        up[::p] = nums
        return self.mul(r, up), den


def _elem(field: "CycField", nums, den: int = 1) -> "CycElem":
    """Trusted constructor: nums/den already in lowest terms."""
    elem = object.__new__(CycElem)
    elem.field = field
    elem.nums = tuple(nums)
    elem.den = den
    return elem


def _normal(field: "CycField", nums, den: int) -> "CycElem":
    """nums/den brought to lowest terms; den must be positive."""
    if den != 1:
        g = gcd(*nums, den)
        if g != 1:
            nums = [n // g for n in nums]
            den //= g
    return _elem(field, nums, den)


def _lone(nums) -> int:
    """Index of the only nonzero entry, or -1."""
    if nums.count(0) != len(nums) - 1:
        return -1
    return next(i for i, c in enumerate(nums) if c)


class CycField:
    """Q(zeta) with zeta a primitive p**(2t)-th root of unity: its (p, t) and
    its chain of levels, not its modulus, so building one takes O(t)."""

    __slots__ = ("p", "t", "m", "degree", "_level")

    def __init__(self, p: int, t: int):
        p = int(p)
        t = int(t)
        if t < 0:
            raise ValueError("tower level must be nonnegative")
        if t:  # each element holds (p-1)*p**(2t-1) >= 2**bits coefficients
            bits = (p.bit_length() - 1) * (2 * t - 1)
            budget.admit_bits(bits, f"field degree at least 2^{bits}")
            degree = (p - 1) * p ** (2 * t - 1)
            budget.admit(degree, f"field degree {degree}")
        check_prime(p)
        self.p = p
        self.t = t
        self.m = p ** (2 * t)
        self._level = _Level(p, 2 * t)
        self.degree = self._level.d

    def __eq__(self, other):
        return isinstance(other, CycField) and (self.p, self.t) == (other.p, other.t)

    def __hash__(self):
        return hash((self.p, self.t))

    def __repr__(self):
        return f"CycField(p={self.p}, t={self.t})"

    # --- element constructors ----------------------------------------------

    def element(self, coeffs) -> "CycElem":
        """Element from an arbitrary-length coefficient list, reduced."""
        values = list(coeffs)
        if all(type(c) is int for c in values):
            return _normal(self, self._level.reduce(values), 1)
        pairs = [ratio(c) for c in values]
        den = lcm(*(d for _, d in pairs))
        nums = [n * (den // d) for n, d in pairs]
        return _normal(self, self._level.reduce(nums), den)

    def zero(self) -> "CycElem":
        return _elem(self, [0] * self.degree)

    def one(self) -> "CycElem":
        return _elem(self, [1] + [0] * (self.degree - 1))

    def rational(self, value) -> "CycElem":
        num, den = ratio(value)
        return _elem(self, [num] + [0] * (self.degree - 1), den)

    @property
    def zeta(self) -> "CycElem":
        """The class of X: the distinguished primitive m-th root of unity."""
        if self.degree == 1:
            return self.one()
        return _elem(self, [0, 1] + [0] * (self.degree - 2))


class CycElem:
    """Element of a CycField: integer numerators over one denominator, in
    lowest terms (see the module docstring)."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: CycField, coeffs):
        pairs = [ratio(c) for c in coeffs]
        if len(pairs) != field.degree:
            raise ValueError(
                f"coefficient vector has length {len(pairs)}, expected {field.degree}"
            )
        den = lcm(*(d for _, d in pairs))
        self.field = field
        self.nums = tuple(n * (den // d) for n, d in pairs)
        self.den = den

    @property
    def coeffs(self) -> tuple:
        """The coefficient vector, length = field degree, as Fractions."""
        from fractions import Fraction  # the kernel holds integers only

        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    def _check_field(self, other: "CycElem"):
        if self.field is not other.field and self.field != other.field:
            raise ValueError("cyclotomic field mismatch")

    def __bool__(self):
        return any(self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    # --- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, CycElem):
            return NotImplemented
        self._check_field(other)
        da, db = self.den, other.den
        if da == db:
            return _normal(self.field, list(map(add, self.nums, other.nums)), da)
        g = gcd(da, db)
        fa, fb = db // g, da // g
        nums = [x * fa + y * fb for x, y in zip(self.nums, other.nums)]
        return _normal(self.field, nums, da * fa)

    def __neg__(self):
        return _elem(self.field, [-n for n in self.nums], self.den)

    def __sub__(self, other):
        if not isinstance(other, CycElem):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, CycElem):
            return NotImplemented
        self._check_field(other)
        return self._times(other, 0)

    def _times(self, other: "CycElem", k: int) -> "CycElem":
        """self * other * zeta**k in one pass, other in the same field.  If
        either factor is a monomial c*zeta**j, the other is shifted by j + k
        and scaled by c; two dense factors make one packed product, then
        one shift."""
        field = self.field
        a, b = self.nums, other.nums
        if not (any(a) and any(b)):
            return field.zero()
        level = field._level
        j = _lone(b)
        if j >= 0:
            nums = [c * b[j] for c in level.shift(a, j + k)]
        else:
            j = _lone(a)
            if j >= 0:
                nums = [c * a[j] for c in level.shift(b, j + k)]
            else:
                nums = level.shift(level.mul(a, b), k)
        return _normal(field, nums, self.den * other.den)

    def __pow__(self, exponent: int):
        return charged_power(self, exponent, self.field.one())

    def _words(self) -> int:
        return sum(words(n) for n in self.nums if n) + words(self.den)

    def times_zeta(self, k: int) -> "CycElem":
        """self * zeta**k, by an index shift."""
        if k % self.field.m == 0:
            return self
        return _elem(self.field, self.field._level.shift(self.nums, k), self.den)

    def conjugate(self, k: int) -> "CycElem":
        """The image under the automorphism zeta -> zeta**k, k prime to p."""
        field = self.field
        if field.m > 1 and k % field.p == 0:
            raise ValueError(f"zeta -> zeta^{k} is not an automorphism: {k} is divisible by {field.p}")
        return _elem(field, field._level.conjugate(self.nums, k % field.m), self.den)

    def inv(self) -> "CycElem":
        """Inverse: (1/c) zeta**-k for a monomial c zeta**k, otherwise by
        relative norms down the tower (module docstring)."""
        if self.is_zero():
            raise ZeroDivisionError("cannot invert zero")
        field = self.field
        k = _lone(self.nums)
        if k >= 0:
            c = self.nums[k]
            unit = [self.den if c > 0 else -self.den] + [0] * (field.degree - 1)
            return _normal(field, field._level.shift(unit, -k), abs(c))
        nums, den = field._level.inverse(list(self.nums))
        return _normal(field, [n * self.den for n in nums], den)

    def order(self):
        """Least k <= m with self**k == 1, or None if there is none.

        The roots of unity in Q(zeta) are the +-zeta**k, so a finite order
        divides 2m = 2p**(2t), and the first of the powers self**(p**j),
        j = 0..2t, that is +-1 gives it: p**j for 1, 2p**j for -1.  A root
        of unity has integer coefficients in {-1, 0, 1} in the power basis,
        so a power outside that set ends the search.
        """
        if self.is_zero():
            raise ZeroDivisionError("zero has no multiplicative order")
        field = self.field
        one = field.one()
        acc, pj = self, 1  # acc = self**pj, pj = p**j
        while pj <= field.m:
            if acc.den != 1 or any(c * c > 1 for c in acc.nums):
                return None
            if acc == one:
                return pj
            if acc == -one:
                return 2 * pj if 2 * pj <= field.m else None
            acc = acc**field.p
            pj *= field.p
        return None

    # --- comparison / rendering -------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, CycElem)
            and (self.field is other.field or self.field == other.field)
            and self.nums == other.nums
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.field, self.nums, self.den))

    def __str__(self):
        den = self.den
        return render_terms(
            (ratio_text(n, den), "" if k == 0 else "z" if k == 1 else f"z^{k}")
            for k, n in enumerate(self.nums)
            if n
        )

    def __repr__(self):
        return f"CycElem({self})"


def tower_check(p: int, t: int) -> bool:
    """Whether the level-(t+1) field really contains the level-t root: the
    p**2-th power of its root must have multiplicative order p**(2t) and be a
    zero of the level-t modulus.  The level-(t+1) field tests that p is
    prime."""
    if t < 1:
        raise ValueError("tower level must be positive")
    upper = CycField(p, t + 1)
    image = upper.zeta ** (p * p)
    if image.order() != p ** (2 * t):
        return False
    # the level-t modulus sum_{j<p} X**(j*s), s = p**(2t-1), at the image
    s = p ** (2 * t - 1)
    total = upper.zero()
    term = upper.one()
    for k in range((p - 1) * s + 1):
        if k % s == 0:
            total = total + term
        term = term * image
    return total.is_zero()
