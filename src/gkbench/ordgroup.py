"""The free abelian group on generators x1, x2, ... written multiplicatively,
with the total order that compares exponent sequences lexicographically.

An element keeps a finite {index: nonzero exponent} map; indices without an
entry read as exponent zero.  The squares subgroup (every exponent even) and
the sign twist an element induces on the radical generators of an MQElem
live here too: x acts on sqrt(p_i) by the sign (-1)**exponent_i, which makes
the action of the squares subgroup trivial.  The mask of the odd exponents
is kept; a product's is the XOR of its factors' masks, and the squares test
reads it.  The mask spends a bit on every index up to the largest odd one,
so an odd exponent at index i is admitted to the work budget at the mask's
i//64 + 1 words before the mask is built.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import budget

if TYPE_CHECKING:
    from .mqfield import MQElem

LT, EQ, GT = -1, 0, 1


class GroupElem:
    """Finitely supported integer exponent vector, as a multiplicative element."""

    __slots__ = ("exps", "_hash", "_odd")

    def __init__(self, exps=()):
        items = exps.items() if hasattr(exps, "items") else exps
        clean = {}
        for i, e in items:
            i = int(i)
            e = int(e)
            if i < 1:
                raise ValueError("generator indices start at 1")
            if e:
                clean[i] = e
        self.exps = clean
        odd = 0
        for i, e in clean.items():
            if e & 1:
                if i >= 64:  # the mask outgrows one word: admitted before it is built
                    words = i // 64 + 1
                    budget.admit(words, f"group index {i} with an odd exponent: its mask of {words} words")
                odd |= 1 << (i - 1)
        self._odd = odd
        self._hash = hash(tuple(sorted(clean.items())))

    @classmethod
    def _make(cls, exps: dict, odd: int) -> "GroupElem":
        """Trusted constructor: nonzero exponents, `odd` the mask of odd ones."""
        elem = object.__new__(cls)
        elem.exps, elem._odd, elem._hash = exps, odd, hash(tuple(sorted(exps.items())))
        return elem

    @classmethod
    def identity(cls) -> "GroupElem":
        return cls()

    @classmethod
    def generator(cls, i: int, power: int = 1) -> "GroupElem":
        return cls({i: power})

    def max_index(self) -> int:
        """Largest index in the support (0 for the identity)."""
        return max(self.exps, default=0)

    def is_identity(self) -> bool:
        return not self.exps

    # --- group structure ---------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, GroupElem):
            return NotImplemented
        if not other.exps:
            return self
        if not self.exps:
            return other
        out = dict(self.exps)
        for i, e in other.exps.items():
            e += out.get(i, 0)
            if e:
                out[i] = e
            else:
                del out[i]
        return GroupElem._make(out, self._odd ^ other._odd)

    def inv(self) -> "GroupElem":
        return GroupElem._make({i: -e for i, e in self.exps.items()}, self._odd)

    def __pow__(self, power: int):
        return GroupElem({i: e * power for i, e in self.exps.items()})

    # --- the total order -----------------------------------------------------

    def compare(self, other: "GroupElem") -> int:
        """LT/EQ/GT by the first differing coordinate, scanning indices
        upward; missing coordinates read as zero."""
        for i in sorted(set(self.exps) | set(other.exps)):
            a = self.exps.get(i, 0)
            b = other.exps.get(i, 0)
            if a != b:
                return LT if a < b else GT
        return EQ

    def __lt__(self, other):
        return self.compare(other) == LT

    def __le__(self, other):
        return self.compare(other) != GT

    def __gt__(self, other):
        return self.compare(other) == GT

    def __ge__(self, other):
        return self.compare(other) != LT

    def __eq__(self, other):
        return isinstance(other, GroupElem) and self.exps == other.exps

    def __hash__(self):
        return self._hash

    # --- squares subgroup and the twist ------------------------------------

    def in_squares(self) -> bool:
        """True iff the element is a square, i.e. every exponent is even: its
        odd-exponent mask is empty."""
        return not self._odd

    def check_within(self, n: int):
        """Raise IndexError unless every index of the support is at most n."""
        top = self.max_index()
        if top > n:
            raise IndexError(f"group index {top} outside the coefficient basis range 1..{n}")

    def twist(self, a: MQElem) -> MQElem:
        """Apply the induced field automorphism, f_i's sign flip for every odd
        exponent n_i, to a.  The coefficient basis must cover the support."""
        self.check_within(len(a.parent))
        return a._flip(self._odd)

    # --- rendering ----------------------------------------------------------

    def __str__(self):
        if not self.exps:
            return "e"
        parts = []
        for i in sorted(self.exps):
            e = self.exps[i]
            parts.append(f"x{i}" if e == 1 else f"x{i}^{e}")
        return "*".join(parts)

    def __repr__(self):
        return f"GroupElem({self})"
