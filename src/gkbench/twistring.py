"""Finitely supported fragment of the twisted group-ring construction:
formal sums  sum a_x * x  over the ordered group, with multiquadratic
coefficients and the twisted convolution

    (a_x * x)(b_y * y) = a_x * twist_x(b_y) * xy.

Only finite supports are represented here; everything the package verifies
about the construction reduces to finite data.  Centrality can be decided
two ways: structurally (support made of squares, rational coefficients) or
by commutation against the generators up to a caller-supplied index bound.

The public constructor validates its terms (the basis must cover the support);
ring operations build their canonical results directly.
"""

from __future__ import annotations

from functools import cmp_to_key

from .mqfield import MQElem, PrimeBasis
from .ordgroup import GroupElem
from .ringops import charged_power, render_terms
from . import budget

_group_sort_key = cmp_to_key(lambda a, b: a.compare(b))


class TwistedElem:
    """Canonical finite sum {GroupElem: nonzero MQElem} over a shared basis."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis: PrimeBasis, terms):
        clean = {}
        for g, coeff in dict(terms).items():
            if not isinstance(g, GroupElem):
                raise TypeError("support elements must be GroupElems")
            g.check_within(len(basis))
            if coeff.basis != basis:
                raise ValueError("prime basis mismatch")
            if coeff:
                clean[g] = coeff
        self.basis = basis
        self.terms = clean

    @classmethod
    def _make(cls, basis: PrimeBasis, terms: dict) -> "TwistedElem":
        """Trusted constructor: valid keys and coefficients; drops zeros."""
        elem = object.__new__(cls)
        elem.basis = basis
        elem.terms = {g: c for g, c in terms.items() if c}
        return elem

    # --- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, basis: PrimeBasis) -> "TwistedElem":
        return cls(basis, {})

    @classmethod
    def from_scalar(cls, coeff: MQElem) -> "TwistedElem":
        return cls(coeff.basis, {GroupElem.identity(): coeff})

    @classmethod
    def from_group(cls, basis: PrimeBasis, g: GroupElem) -> "TwistedElem":
        return cls(basis, {g: basis.one()})

    @classmethod
    def one(cls, basis: PrimeBasis) -> "TwistedElem":
        return cls.from_scalar(basis.one())

    # --- predicates -----------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def max_index(self) -> int:
        """Largest generator index appearing in the support or in any
        coefficient's radical subsets (0 for scalars and zero)."""
        top = 0
        for g, coeff in self.terms.items():
            top = max(top, g.max_index())
            for subset in coeff.coeffs:
                if subset:
                    top = max(top, max(subset))
        return top

    # --- ring operations --------------------------------------------------------

    def _check_basis(self, other: "TwistedElem"):
        if self.basis != other.basis:
            raise ValueError("prime basis mismatch")

    def __add__(self, other):
        if not isinstance(other, TwistedElem):
            return NotImplemented
        self._check_basis(other)
        out = dict(self.terms)
        for g, coeff in other.terms.items():
            acc = out.get(g)
            out[g] = coeff if acc is None else acc + coeff
        return TwistedElem._make(self.basis, out)

    def __neg__(self):
        return TwistedElem._make(self.basis, {g: -c for g, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, TwistedElem):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TwistedElem):
            return NotImplemented
        self._check_basis(other)
        budget.charge(len(self.terms) * len(other.terms))
        out = {}
        for x, a in self.terms.items():
            for y, b in other.terms.items():
                z = x * y
                contrib = a * x.twist(b)
                acc = out.get(z)
                out[z] = contrib if acc is None else acc + contrib
        return TwistedElem._make(self.basis, out)

    def __pow__(self, exponent: int):
        return charged_power(self, exponent, TwistedElem.one(self.basis))

    def inv(self) -> "TwistedElem":
        """Inverse of a single term a*x: twist_inv(x)(a^-1) * x^-1.  General
        twisted elements would need infinite series and are rejected."""
        if len(self.terms) != 1:
            raise ValueError(
                "only single-term twisted elements can be inverted; general "
                "inverses need infinite support"
            )
        ((g, coeff),) = self.terms.items()
        ginv = g.inv()
        return TwistedElem._make(self.basis, {ginv: ginv.twist(coeff.inv())})

    def _words(self) -> int:
        return sum(c._words() for c in self.terms.values())

    def commutator(self, other: "TwistedElem") -> "TwistedElem":
        return self * other - other * self

    # --- the two centrality tests -------------------------------------------------

    def is_central_by_form(self) -> bool:
        """Structural centrality: every support element is a square and every
        coefficient is rational."""
        return all(g.in_squares() for g in self.terms) and all(
            c.fixed_by_all() for c in self.terms.values()
        )

    def is_central_by_commutation(self, m: int) -> bool:
        """Centrality by commutation with sqrt(p_i) and x_i for all i <= m.

        m must bound every index appearing in the element (support or
        coefficients) and the basis must have at least m primes, otherwise
        the generator sweep would miss a direction.
        """
        top = self.max_index()
        if m < top:
            raise ValueError(
                f"generator bound m={m} is smaller than the largest index {top}"
            )
        if m > len(self.basis):
            raise ValueError(
                f"basis has {len(self.basis)} primes, fewer than the bound m={m}"
            )
        for i in range(1, m + 1):
            radical = TwistedElem.from_scalar(self.basis.radical(i))
            gen = TwistedElem.from_group(self.basis, GroupElem.generator(i))
            if self.commutator(radical) or self.commutator(gen):
                return False
        return True

    # --- comparison / rendering -------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, TwistedElem)
            and self.basis == other.basis
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.basis, frozenset(self.terms.items())))

    def __str__(self):
        return render_terms(
            (str(self.terms[g]), "" if g.is_identity() else str(g))
            for g in sorted(self.terms, key=_group_sort_key)
        )

    def __repr__(self):
        return f"TwistedElem({self})"
