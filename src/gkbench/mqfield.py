"""Exact arithmetic in the multiquadratic tower Q(sqrt(p1), ..., sqrt(pn)).

Representation.  An element is a finite rational combination of the
square-free radical products sqrt(p_S), p_S = prod_{i in S} p_i.  The index
subset S is a bitmask (bit i-1 stands for sqrt(p_i); mask 0 is the rational
part), and the coefficients are integer numerators `terms` {mask: nonzero
int} over one positive denominator `den`, in lowest terms: gcd(den, *nums)
= 1, and den = 1 for zero.  That form is canonical, so equality and hashing
compare it directly.  A rational input is read as an integer pair
(`ringops.ratio`), and `coeffs` gives the element as {frozenset of indices:
Fraction}, importing `fractions` only when it is read.

Products.  sqrt(p_S) * sqrt(p_T) = p_(S & T) * sqrt(p_(S ^ T)): the pair
law, written once in `_accumulate`, adds x * y * p_(S & T) into out[S ^ T]
for every pair of terms (`PrimeBasis.pp` memoises p_S); sparse products and
inverse norms here, and `twistring`'s products and sweep, all run on it.  A
dense product applies, per radical p,
(u + v*sqrt(p))(w + z*sqrt(p)) = (uw + p*vz) + ((u+v)(w+z) - uw - vz)*sqrt(p):
over radicals 1..k, 2^k numerators expand to 3^k values, (u, v, u+v) along
each radical, and the 3^k pointwise products fold back by (m1, m2, m3) ->
(m1 + p*m2, m3 - m1 - m2).  It runs from 162 term pairs on when 2*pairs >=
3 * 3^k, k the highest radical present, so 3^k < pairs bounds its lists.
The denominators multiply, and one gcd pass brings the result to lowest terms.

Inverses.  Split off the highest radical: a = u + v*sqrt(p_k), u and v over
radicals 1..j, j = k - 1; then a^-1 = (u - v*sqrt(p_k)) * N^-1, the norm
N = u^2 - v^2*p_k inverted in the subfield, down to a rational.  A level of
t terms with t^2 >= 2 * 3^j stays in the transform: u, v expand to U, V, N's
numerators over den^2 fold from U*U - p_k*V*V, N^-1 expands to W, and U*W,
-V*W fold to the halves over den * den(N^-1), the upper one at mask | bit.
A sparser level sums N over den^2 by the pair law and makes one product,
the conjugate times N^-1, so t^2 bounds the lists (no 3^63 for 64 primes).

Automorphisms.  f_i negates sqrt(p_i) and fixes every other generator, so it
negates the terms whose mask has bit i-1 set.  An element is fixed by all of
them exactly when it is rational, which is the structural test
`fixed_by_all` implements; the `field.fixed_field` campaign checks it against
replaying the automorphisms.

An element is a `ringops.TermSum` over its `PrimeBasis`; it brings its own
sum, negation, equality, hashing and sizes, which account for the shared
denominator.  `MQElem(basis, coeffs)` validates its input; ring operations
build their canonical results directly.  Values are immutable and
operations pure.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd, lcm
from operator import add, attrgetter, mul

from . import budget
from .budget import words
from .ringops import (TermSum, charged_power, check_prime, is_prime, ratio, ratio_text,
                      render_terms, trial_divisions)


def first_primes(count: int) -> tuple[int, ...]:
    """The first `count` primes, by trial division.  Each candidate is
    charged its `trial_divisions` before it is tested, so a basis past the
    work budget is refused, not ground out."""
    out = []
    candidate = 2
    while len(out) < count:
        budget.charge(trial_divisions(candidate))
        if is_prime(candidate):
            out.append(candidate)
        candidate += 1
    return tuple(out)


def _indices(mask: int) -> list[int]:
    """The radical indices whose bits are set in mask, ascending."""
    return [i for i in range(1, mask.bit_length() + 1) if mask >> (i - 1) & 1]


def _expand(terms: dict, k: int) -> list:
    """The 3^k values of the numerators over radicals 1..k, radical 1 at stride 1."""
    vec = list(map(terms.get, range(1 << k), repeat(0)))
    for _ in range(k):
        # the stride-1 axis (u, v) becomes (u, v, u+v) on top
        u, v = vec[0::2], vec[1::2]
        vec = u + v + list(map(add, u, v))
    return vec


def _fold(vec: list, primes) -> dict:
    """{mask: numerator} of 3^k pointwise products over radicals 1..k, k =
    len(primes), folded back by the three-product rule (module docstring);
    the transform's one decode, for products and inverses alike."""
    for p in primes:
        # the stride-1 axis (m1, m2, m3) becomes (m1 + p*m2, m3 - m1 - m2) on top
        m1, m2, m3 = vec[0::3], vec[1::3], vec[2::3]
        vec = [x + p * y for x, y in zip(m1, m2)] + [z - x - y for x, y, z in zip(m1, m2, m3)]
    return dict(enumerate(vec))


def _three_products(a: dict, b: dict, k: int, primes) -> dict:
    """{mask: numerator} of a*b over radicals 1..k by the three-product rule."""
    return _fold(list(map(mul, _expand(a, k), _expand(b, k))), primes[:k])


def _flipped(terms: dict, mask: int) -> dict:
    """{mask: numerator} terms with sqrt(p_i) negated for every index i whose
    bit is set in mask: a term changes sign when it has an odd number of them."""
    return {s: -c if (s & mask).bit_count() & 1 else c for s, c in terms.items()}


def _accumulate(acc: dict, left, right, pp, scale: int = 1) -> dict:
    """The pair law: add scale * u * v * p_(s & t) into acc[s ^ t] for every
    term u*sqrt(p_s) of `left` and v*sqrt(p_t) of `right`, both (mask,
    numerator) pairs, and return acc: the numerators of their product, times
    scale, added in."""
    get = acc.get
    for t, v in right:
        v *= scale
        for s, u in left:
            k = s ^ t
            acc[k] = get(k, 0) + u * v * pp[s & t]
    return acc


class _PrimeProducts(dict):
    """{mask: product of the primes whose bits are set}, filled on first use."""

    __slots__ = ("primes",)

    def __init__(self, primes):
        super().__init__({0: 1})
        self.primes = primes

    def __missing__(self, mask):
        low = mask & -mask
        value = self[mask ^ low] * self.primes[low.bit_length() - 1]
        self[mask] = value
        return value


class PrimeBasis:
    """A strictly increasing tuple of distinct primes p_1 < p_2 < ... < p_n;
    `pp[mask]` is the product of the primes in a mask."""

    __slots__ = ("primes", "pp")

    def __init__(self, primes):
        primes = tuple(int(p) for p in primes)
        for p in primes:
            check_prime(p)  # a p past the budget's cap is refused untested
        if any(a >= b for a, b in zip(primes, primes[1:])):
            raise ValueError("primes must be strictly increasing with no duplicates")
        self.primes = primes
        self.pp = _PrimeProducts(primes)

    @classmethod
    def first(cls, n: int) -> "PrimeBasis":
        """The basis made of the first n primes (n >= 0).  `first_primes` has
        tested each of them, so the constructor's checks are skipped."""
        if n < 0:
            raise ValueError(f"a basis needs a nonnegative number of primes, got {n}")
        basis = object.__new__(cls)
        basis.primes = first_primes(n)
        basis.pp = _PrimeProducts(basis.primes)
        return basis

    def __len__(self):
        return len(self.primes)

    def __eq__(self, other):
        return isinstance(other, PrimeBasis) and self.primes == other.primes

    def __hash__(self):
        return hash(self.primes)

    def __repr__(self):
        return f"PrimeBasis{self.primes}"

    def prime(self, i: int) -> int:
        """The i-th basis prime, 1-indexed; raises IndexError out of range."""
        if not 1 <= i <= len(self.primes):
            raise IndexError(
                f"radical index {i} outside basis range 1..{len(self.primes)}"
            )
        return self.primes[i - 1]

    # --- element constructors -------------------------------------------

    def zero(self) -> "MQElem":
        return MQElem._make(self, {})

    def one(self) -> "MQElem":
        return self.rational(1)

    def rational(self, value) -> "MQElem":
        num, den = ratio(value)
        return MQElem._make(self, {0: num}, den)

    def radical(self, i: int) -> "MQElem":
        """sqrt(p_i) as an element."""
        self.prime(i)
        return MQElem._make(self, {1 << (i - 1): 1})

    def element(self, coeffs) -> "MQElem":
        return MQElem(self, coeffs)


class MQElem(TermSum):
    """Element of the multiquadratic field over a fixed PrimeBasis.

    `terms` maps radical masks to nonzero integer numerators over the
    positive denominator `den`, in lowest terms (see the module docstring).
    `basis` is a read-only name for `parent`, and `coeffs` a read-only
    {frozenset: Fraction} view.
    """

    __slots__ = ("den",)
    _mismatch = "prime basis mismatch"
    basis = property(attrgetter("parent"))

    def __init__(self, basis: PrimeBasis, coeffs):
        n = len(basis)
        clean = {}
        for subset, value in dict(coeffs).items():
            mask = 0
            try:
                for i in subset:
                    if type(i) is not int:
                        raise ValueError(
                            f"the key {subset!r} has a radical index {i!r} that is not an int"
                        )
                    if not 1 <= i <= n:
                        raise IndexError(
                            f"radical index {i} outside basis range 1..{n}"
                        )
                    mask |= 1 << (i - 1)
                size = len(subset)
            except TypeError:
                raise ValueError(
                    f"the key {subset!r} is not a collection of radical indices"
                ) from None
            if mask.bit_count() != size:
                raise ValueError(f"the key {subset!r} repeats a radical index")
            if mask in clean:
                raise ValueError(f"two keys name the radical subset {tuple(_indices(mask))}")
            clean[mask] = ratio(value)
        den = lcm(*(d for _, d in clean.values()))
        self.parent = basis
        self.terms = {m: num * (den // d) for m, (num, d) in clean.items() if num}
        self.den = den

    @classmethod
    def _make(cls, parent, terms: dict, den: int = 1):
        """Trusted constructor: integer numerators on valid masks over a
        positive den; drops zeros and brings the value to lowest terms."""
        terms = {k: c for k, c in terms.items() if c}
        if den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                terms = {k: c // g for k, c in terms.items()}
                den //= g
        elem = object.__new__(cls)
        elem.parent = parent
        elem.terms = terms
        elem.den = den
        return elem

    @property
    def coeffs(self) -> dict:
        """{frozenset of radical indices: nonzero Fraction}, built on each read."""
        from fractions import Fraction  # the kernel holds integers only

        den = self.den
        return {frozenset(_indices(m)): Fraction(c, den) for m, c in self.terms.items()}

    # --- predicates ------------------------------------------------------

    def fixed_by_all(self) -> bool:
        """True iff every automorphism f_i fixes the element, i.e. iff it is
        rational: only the mask-0 component is present."""
        return not any(self.terms)

    # --- ring operations --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MQElem):
            return NotImplemented
        self._check(other)
        g = gcd(self.den, other.den)
        fa, fb = other.den // g, self.den // g
        out = {k: c * fa for k, c in self.terms.items()}
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c * fb
        return MQElem._make(self.parent, out, self.den * fa)

    def __neg__(self):
        return MQElem._make(self.parent, {k: -c for k, c in self.terms.items()}, self.den)

    def __mul__(self, other):
        if not isinstance(other, MQElem):
            return NotImplemented
        self._check(other)
        a, b, den = self.terms, other.terms, self.den * other.den
        pairs = len(a) * len(b)
        if pairs >= 162:  # the measured crossover (module docstring)
            top = max(max(a), max(b)).bit_length()
            if 2 * pairs >= 3 * 3**top:
                return MQElem._make(self.parent, _three_products(a, b, top, self.parent.primes), den)
        return MQElem._make(self.parent, _accumulate({}, a.items(), b.items(), self.parent.pp), den)

    def __pow__(self, exponent: int):
        return charged_power(self, exponent, self.parent.one())

    def __eq__(self, other):
        return (
            isinstance(other, MQElem)
            and self.parent == other.parent
            and self.den == other.den
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.parent, self.den, frozenset(self.terms.items())))

    def _words(self) -> int:
        """Words of each coefficient's numerator and denominator in lowest
        terms, as if it were a Fraction of its own."""
        den = self.den
        total = 0
        for c in self.terms.values():
            g = gcd(c, den)
            total += words(c // g) + words(den // g)
        return total

    def inv(self) -> "MQElem":
        """Multiplicative inverse by recursive conjugation (module docstring)."""
        if not self.terms:
            raise ZeroDivisionError("cannot invert zero")
        basis, den = self.parent, self.den
        top = max(self.terms).bit_length()
        if top == 0:
            (c,) = self.terms.values()
            return MQElem._make(basis, {0: den if c > 0 else -den}, abs(c))
        j = top - 1
        bit, p = 1 << j, basis.primes[j]
        u = {s: c for s, c in self.terms.items() if not s & bit}
        v = {s ^ bit: c for s, c in self.terms.items() if s & bit}
        dense = len(self.terms) ** 2 >= 2 * 3**j  # the route rule (module docstring)
        if dense:
            # x, y, z are the docstring's U, V, W
            primes, x, y = basis.primes[:j], _expand(u, j), _expand(v, j)
            norm = _fold([a * a - p * b * b for a, b in zip(x, y)], primes)
        else:  # N = u*u - p*v*v over den^2
            norm = _accumulate({}, u.items(), u.items(), basis.pp)
            _accumulate(norm, v.items(), v.items(), basis.pp, -p)
        norm = MQElem._make(basis, norm, den * den)
        if not norm:
            # impossible for a nonzero element of a field; guarded anyway
            raise ArithmeticError("conjugate norm vanished for a nonzero element")
        if not dense:
            return self._flip(bit) * norm.inv()
        w = norm.inv()
        z = _expand(w.terms, j)
        out = _fold(list(map(mul, x, z)), primes)
        out.update((s | bit, -c) for s, c in _fold(list(map(mul, y, z)), primes).items())
        return MQElem._make(basis, out, den * w.den)

    # --- automorphisms ----------------------------------------------------

    def apply_f(self, i: int) -> "MQElem":
        """The automorphism f_i: negate sqrt(p_i), fix every other generator."""
        self.parent.prime(i)  # validates the index
        return self._flip(1 << (i - 1))

    def _flip(self, mask: int) -> "MQElem":
        """Negate sqrt(p_i) for every index i whose bit is set in mask."""
        if not mask:
            return self
        # sign changes keep the form canonical, so no zero or gcd pass
        elem = object.__new__(MQElem)
        elem.parent, elem.den = self.parent, self.den
        elem.terms = _flipped(self.terms, mask)
        return elem

    # --- rendering ----------------------------------------------------------

    def __str__(self):
        return render_terms(
            (ratio_text(self.terms[m], self.den), "*".join(f"s{i}" for i in _indices(m)))
            for m in sorted(self.terms, key=_indices)
        )
