"""Exact arithmetic in the multiquadratic tower Q(sqrt(p1), ..., sqrt(pn)).

An element is a finite rational combination of square-free radical products
sqrt(prod_{i in S} p_i), stored sparsely as a map {index subset S: rational}.
The empty subset carries the rational part.  Multiplication uses
sqrt(p_i) * sqrt(p_i) = p_i, so overlapping subsets contribute an integer
prefactor and the symmetric difference of the subsets.

The field carries n commuting automorphisms: f_i negates sqrt(p_i) and fixes
every other generator.  An element is fixed by all of them exactly when it is
rational, which is the structural test `fixed_by_all` implements; the
`field.fixed_field` campaign checks it against replaying the automorphisms.

An element is a `ringops.TermSum` over its `PrimeBasis`: `terms` maps index
subsets to nonzero Fractions, and the sum, negation, equality and hashing
are the shared ones.  `MQElem(basis, coeffs)` validates its input; ring
operations build their canonical results directly.  Values are immutable
and operations pure.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter

from .ringops import TermSum, charged_power, render_terms, words


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (basis primes are small)."""
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


def first_primes(count: int) -> tuple[int, ...]:
    out = []
    candidate = 2
    while len(out) < count:
        if is_prime(candidate):
            out.append(candidate)
        candidate += 1
    return tuple(out)


class PrimeBasis:
    """A strictly increasing tuple of distinct primes p_1 < p_2 < ... < p_n."""

    __slots__ = ("primes",)

    def __init__(self, primes):
        primes = tuple(int(p) for p in primes)
        for p in primes:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        if any(a >= b for a, b in zip(primes, primes[1:])):
            raise ValueError("primes must be strictly increasing with no duplicates")
        self.primes = primes

    @classmethod
    def first(cls, n: int) -> "PrimeBasis":
        """The basis made of the first n primes (n >= 0)."""
        if n < 0:
            raise ValueError(f"a basis needs a nonnegative number of primes, got {n}")
        return cls(first_primes(n))

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
        return MQElem._make(self, {frozenset(): Fraction(value)})

    def radical(self, i: int) -> "MQElem":
        """sqrt(p_i) as an element."""
        self.prime(i)
        return MQElem._make(self, {frozenset({i}): Fraction(1)})

    def element(self, coeffs) -> "MQElem":
        return MQElem(self, coeffs)


class MQElem(TermSum):
    """Element of the multiquadratic field over a fixed PrimeBasis.

    `terms` maps frozensets of radical indices to nonzero Fractions; the
    canonical sparse form (zero coefficients dropped) makes equality
    structural.  `basis` and `coeffs` are read-only names for `parent` and
    `terms`.
    """

    __slots__ = ()
    _mismatch = "prime basis mismatch"
    basis = property(attrgetter("parent"))
    coeffs = property(attrgetter("terms"))

    def __init__(self, basis: PrimeBasis, coeffs):
        n = len(basis)
        clean = {}
        for subset, value in dict(coeffs).items():
            subset = frozenset(int(i) for i in subset)
            for i in subset:
                if not 1 <= i <= n:
                    raise IndexError(
                        f"radical index {i} outside basis range 1..{n}"
                    )
            value = Fraction(value)
            if value:
                clean[subset] = value
        self.parent = basis
        self.terms = clean

    # --- predicates ------------------------------------------------------

    def is_rational(self) -> bool:
        """True iff only the empty-subset (rational) component is present."""
        return all(not s for s in self.terms)

    def fixed_by_all(self) -> bool:
        """True iff every automorphism f_i fixes the element, i.e. iff it is
        rational."""
        return self.is_rational()

    # --- ring operations --------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, MQElem):
            return NotImplemented
        self._check(other)
        primes = self.parent.primes
        out = {}
        for s, a in self.terms.items():
            for t, b in other.terms.items():
                factor = a * b
                for i in s & t:
                    factor *= primes[i - 1]
                key = s ^ t
                acc = out.get(key)
                out[key] = factor if acc is None else acc + factor
        return MQElem._make(self.parent, out)

    def __pow__(self, exponent: int):
        return charged_power(self, exponent, self.parent.one())

    def _words(self) -> int:
        return sum(
            words(v.numerator) + words(v.denominator) for v in self.terms.values()
        )

    def inv(self) -> "MQElem":
        """Multiplicative inverse by recursive conjugation.

        Split off the highest radical: a = u + v*sqrt(p_k) with u, v over the
        lower indices, then a^-1 = (u - v*sqrt(p_k)) * (u^2 - v^2*p_k)^-1,
        recursing into the subfield; the base case inverts a rational.
        """
        if not self.terms:
            raise ZeroDivisionError("cannot invert zero")
        basis = self.parent
        top = max((max(s) for s in self.terms if s), default=0)
        if top == 0:
            return MQElem._make(basis, {frozenset(): 1 / self.terms[frozenset()]})
        lower = {}
        upper = {}
        for subset, value in self.terms.items():
            if top in subset:
                upper[subset - {top}] = value
            else:
                lower[subset] = value
        u = MQElem._make(basis, lower)
        v = MQElem._make(basis, upper)
        norm = u * u - v * v * basis.rational(basis.primes[top - 1])
        if not norm:
            # impossible for a nonzero element of a field; guarded anyway
            raise ArithmeticError("conjugate norm vanished for a nonzero element")
        conj = dict(lower)
        for subset, value in upper.items():
            conj[subset | {top}] = -value
        return MQElem._make(basis, conj) * norm.inv()

    # --- automorphisms ----------------------------------------------------

    def apply_f(self, i: int) -> "MQElem":
        """The automorphism f_i: negate sqrt(p_i), fix every other generator."""
        self.parent.prime(i)  # validates the index
        return self._flip({i})

    def _flip(self, indices) -> "MQElem":
        """Negate sqrt(p_i) for every i in the set `indices` of valid indices."""
        return MQElem._make(
            self.parent,
            {s: (-v if len(s & indices) % 2 else v) for s, v in self.terms.items()},
        )

    # --- rendering ----------------------------------------------------------

    def __str__(self):
        return render_terms(
            (str(self.terms[subset]), "*".join(f"s{i}" for i in sorted(subset)))
            for subset in sorted(self.terms, key=lambda s: tuple(sorted(s)))
        )
