"""Finitely supported fragment of the twisted group-ring construction:
formal sums  sum a_x * x  over the ordered group, with multiquadratic
coefficients and the twisted convolution

    (a_x * x)(b_y * y) = a_x * twist_x(b_y) * xy.

A product is one integer accumulation over the product's denominator, the
least common denominator of the left side's coefficients times that of the
right side's: every term pair goes through the field's pair law,
`mqfield._accumulate`, which adds f * c * d * p_(s & t) into the
{mask: int} numerators of xy, for the numerators c*sqrt(p_s) of a_x and
d*sqrt(p_t) of twist_x(b_y) and the integer f that carries their two
denominators onto the product's; each xy that does not cancel becomes one
MQElem at the end.  twist_x is skipped when x has no odd exponent, as it
then changes nothing.  A commutator is two products and a difference.

Only finite supports are represented here; everything the package verifies
about the construction reduces to finite data.  Centrality can be decided
two ways: structurally (support made of squares, rational coefficients) or
by commutation against the generators up to a caller-supplied index bound.
The commutation sweep reads each probe's bracket term by term: a one-term
probe d*g sends distinct terms c*x to distinct xg (exponents add, so the
group is abelian and gx = xg), so each coefficient
c * twist_x(d) - d * twist_g(c) is accumulated over c's own denominator by
the same `_accumulate`, with f = -1 for the second product, and the sweep
stops at the first nonzero one.  It builds no probe, coefficient or bracket,
and charges the budget exactly what the 2m commutators it stands for charge.

An element is a `ringops.TermSum` over its `PrimeBasis`, keyed by group
elements, so the sum, negation, equality and hashing are the ones `MQElem`
shares.  The public constructor validates its terms (the basis must cover
the support); ring operations build their canonical results directly.
"""

from __future__ import annotations

from math import lcm

from .mqfield import MQElem, PrimeBasis, _accumulate, _flipped
from .ordgroup import GroupElem
from .ringops import TermSum, charged_power, render_terms
from . import budget


class TwistedElem(TermSum):
    """Canonical finite sum {GroupElem: nonzero MQElem} over a shared basis,
    `parent`."""

    __slots__ = ()
    _mismatch = "prime basis mismatch"

    def __init__(self, basis: PrimeBasis, terms):
        clean = {}
        for g, coeff in dict(terms).items():
            if not isinstance(g, GroupElem):
                raise TypeError("support elements must be GroupElems")
            g.check_within(len(basis))
            if not isinstance(coeff, MQElem):
                raise TypeError("coefficients must be MQElems")
            if coeff.parent != basis:
                raise ValueError("prime basis mismatch")
            if coeff:
                clean[g] = coeff
        self.parent = basis
        self.terms = clean

    # --- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, basis: PrimeBasis) -> "TwistedElem":
        return cls(basis, {})

    @classmethod
    def from_scalar(cls, coeff: MQElem) -> "TwistedElem":
        return cls(coeff.parent, {GroupElem.identity(): coeff})

    @classmethod
    def from_group(cls, basis: PrimeBasis, g: GroupElem) -> "TwistedElem":
        return cls(basis, {g: basis.one()})

    @classmethod
    def one(cls, basis: PrimeBasis) -> "TwistedElem":
        return cls.from_scalar(basis.one())

    # --- predicates -----------------------------------------------------------

    def max_index(self) -> int:
        """Largest generator index appearing in the support or in any
        coefficient's radical subsets (0 for scalars and zero)."""
        top = 0
        for g, coeff in self.terms.items():
            top = max(top, g.max_index(), max(coeff.terms, default=0).bit_length())
        return top

    # --- ring operations --------------------------------------------------------

    def __mul__(self, other):
        """The twisted convolution (see the module docstring), charged one op
        per term pair."""
        if not isinstance(other, TwistedElem):
            return NotImplemented
        self._check(other)
        budget.charge(len(self.terms) * len(other.terms))
        parent, pp = self.parent, self.parent.pp
        da = lcm(*(c.den for c in self.terms.values()))
        db = lcm(*(d.den for d in other.terms.values()))
        out = {}
        for x, c in self.terms.items():
            cs, fc = c.terms.items(), da // c.den
            for y, d in other.terms.items():
                right = (x.twist(d) if x._odd else d).terms.items()
                _accumulate(out.setdefault(x * y, {}), cs, right, pp, fc * (db // d.den))
        make, den = MQElem._make, da * db
        return TwistedElem._make(
            parent, {z: make(parent, acc, den) for z, acc in out.items() if any(acc.values())}
        )

    def __pow__(self, exponent: int):
        return charged_power(self, exponent, TwistedElem.one(self.parent))

    def inv(self) -> "TwistedElem":
        """Inverse of a single term a*x: twist_inv(x)(a^-1) * x^-1.  General
        twisted elements would need infinite series and are rejected."""
        if not self.terms:
            raise ZeroDivisionError("cannot invert zero")
        if len(self.terms) != 1:
            raise ValueError(
                "only single-term twisted elements can be inverted; general "
                "inverses need infinite support"
            )
        ((g, coeff),) = self.terms.items()
        ginv = g.inv()
        return TwistedElem._make(self.parent, {ginv: ginv.twist(coeff.inv())})

    def commutator(self, other: "TwistedElem") -> "TwistedElem":
        if not isinstance(other, TwistedElem):
            raise TypeError("commutator needs a TwistedElem")
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

        Each probe d*g, sqrt(p_i) at e and then 1 at x_i, is read term by
        term: the bracket's coefficient at xg is c * twist_x(d) - d *
        twist_g(c), accumulated over c's own denominator, and the sweep
        stops at the first nonzero one.  Each probe is charged as the two
        products of its commutator, before it is read, so the budget runs
        out where 2m commutator calls would.
        """
        top = self.max_index()
        if m < top:
            raise ValueError(
                f"generator bound m={m} is smaller than the largest index {top}"
            )
        basis = self.parent
        if m > len(basis):
            raise ValueError(
                f"basis has {len(basis)} primes, fewer than the bound m={m}"
            )
        pp, size = basis.pp, len(self.terms)
        terms = [(x._odd, c.terms) for x, c in self.terms.items()]
        for i in range(1, m + 1):
            bit = 1 << (i - 1)
            # (odd-exponent mask of g, numerators of d) for each probe
            for g, d in ((0, {bit: 1}), (bit, {0: 1})):
                budget.charge(size)
                budget.charge(size)
                for x, c in terms:
                    acc = _accumulate({}, c.items(), (_flipped(d, x) if x else d).items(), pp)
                    _accumulate(acc, d.items(), (_flipped(c, g) if g else c).items(), pp, -1)
                    if any(acc.values()):
                        return False
        return True

    # --- rendering ----------------------------------------------------------------

    def __str__(self):
        return render_terms(
            (str(self.terms[g]), "" if g.is_identity() else str(g))
            for g in sorted(self.terms)  # GroupElem.__lt__: the group's total order
        )
