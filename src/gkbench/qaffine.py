"""Quantum affine space on n generators over a cyclotomic scalar field:
x_i x_j = q x_j x_i for i < j, with q the field's distinguished root of
unity.  Words in the free generators reduce to a scalar multiple of the
unique sorted monomial (every adjacent swap that moves a higher index left
past a lower one costs a factor q**-1), and polynomials are canonical maps
{exponent vector: nonzero scalar}: a `ringops.TermSum` over the algebra,
whose sum, negation and equality are the shared ones.  Nothing on the
production path rewrites: `normal_form` counts a word's inversions letter by
letter and applies q**-swaps once, and sorting x^e x^f takes
sum_{i>j} e_i f_j swaps, so a product is that power of q**-1 times x^(e+f).
`normal_form_random`, swap by swap in a random order, is the rewriting
oracle that the `confluence` campaign checks against the count and against
the product of the word's generators.  Likewise the dimension count dim V^r
is the closed form C(n+r, r), charging the work budget for the monomials it
counts, and the listing survives as `dim_Vr_oracle`.

The module also hosts the two structural checks the construction is used
for: centrality of prime-power powers of the generators, and whether a
candidate assignment of generator images extends to a ring map between two
such algebras (verified on the presenting relations, with the source root
embedded into the destination field).
"""

from __future__ import annotations

import itertools
from math import comb, lcm
from operator import add, mul
from typing import NamedTuple, Optional, Sequence

from .cyclo import CycElem, CycField, _normal, _pack, _tops, _width
from .ringops import TermSum, charged_power, render_terms
from . import budget


class QAlgebra:
    """Descriptor: generator count n plus the scalar field carrying q.  q is
    the field's zeta, the class of X modulo the m-th cyclotomic polynomial,
    so it is primitive by construction (the `tower` campaign checks that
    order); products apply it as index shifts, so an algebra holds nothing
    more.  Building one charges nothing, but it admits its generator count to
    the work budget before any monomial is formed, as each holds n exponents
    (a `CycField` admits its degree so)."""

    __slots__ = ("n", "field")

    def __init__(self, n: int, field: CycField):
        n = int(n)
        if n < 1:
            raise ValueError("need at least one generator")
        budget.admit(n, f"generator count {n} (exponents per monomial)")
        self.n = n
        self.field = field

    def __eq__(self, other):
        return (
            isinstance(other, QAlgebra)
            and self.n == other.n
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.n, self.field))

    def __repr__(self):
        return f"QAlgebra(n={self.n}, p={self.field.p}, t={self.field.t})"

    # --- element constructors ------------------------------------------------

    def zero(self) -> "QPoly":
        return QPoly(self, {})

    def one(self) -> "QPoly":
        return self.scalar(self.field.one())

    def scalar(self, value: CycElem) -> "QPoly":
        return QPoly(self, {(0,) * self.n: value})

    def generator(self, i: int, power: int = 1) -> "QPoly":
        if not 1 <= i <= self.n:
            raise IndexError(f"generator index {i} outside 1..{self.n}")
        if power < 0:
            raise ValueError("generator exponents must be nonnegative")
        exps = [0] * self.n
        exps[i - 1] = int(power)
        return QPoly._make(self, {tuple(exps): self.field.one()})

    def word(self, indices, scalar: Optional[CycElem] = None) -> "FreeWord":
        return FreeWord(self, tuple(indices), self.field.one() if scalar is None else scalar)


class FreeWord:
    """Unreduced word: a generator-index sequence with a scalar prefactor."""

    __slots__ = ("algebra", "indices", "scalar")

    def __init__(self, algebra: QAlgebra, indices, scalar: CycElem):
        indices = tuple(int(i) for i in indices)
        for i in indices:
            if not 1 <= i <= algebra.n:
                raise IndexError(f"generator index {i} outside 1..{algebra.n}")
        if scalar.field != algebra.field:
            raise ValueError("scalar outside the algebra's field")
        self.algebra = algebra
        self.indices = indices
        self.scalar = scalar

    def __eq__(self, other):
        return (
            isinstance(other, FreeWord)
            and self.algebra == other.algebra
            and self.indices == other.indices
            and self.scalar == other.scalar
        )

    def __repr__(self):
        word = "*".join(f"x{i}" for i in self.indices) or "1"
        return f"FreeWord(({self.scalar})*{word})"


def normal_form(word: FreeWord) -> "QPoly":
    """Canonical single-term polynomial of a word, by counting: sorting it
    moves each letter x_i left past every earlier x_j with j > i, one factor
    q**-1 each, so the swaps are the word's inversions, counted letter by
    letter in O(len * n), and q**-swaps is applied once.  The budget is
    charged len**2, the swaps the rewriting oracle may make."""
    budget.charge(max(1, len(word.indices) ** 2))
    alg = word.algebra
    exps = [0] * alg.n
    swaps = 0
    for i in word.indices:
        swaps += sum(exps[i:])
        exps[i - 1] += 1
    return QPoly._make(alg, {tuple(exps): word.scalar.times_zeta(-swaps)})


def normal_form_random(word: FreeWord, rng) -> "QPoly":
    """The rewriting oracle: swap an rng-chosen adjacent inversion
    x_j x_i -> x_i x_j (j > i) until there is none, then apply q**-swaps to
    the scalar once.  The result must not depend on the order (confluence)
    and must equal the count.  Charged like `normal_form`."""
    budget.charge(max(1, len(word.indices) ** 2))
    alg = word.algebra
    idx = list(word.indices)
    swaps = 0
    while True:
        spots = [k for k in range(len(idx) - 1) if idx[k] > idx[k + 1]]
        if not spots:
            break
        k = rng.choice(spots)
        idx[k], idx[k + 1] = idx[k + 1], idx[k]
        swaps += 1
    exps = [0] * alg.n
    for i in idx:
        exps[i - 1] += 1
    return QPoly._make(alg, {tuple(exps): word.scalar.times_zeta(-swaps)})


class QPoly(TermSum):
    """Canonical polynomial: {sorted-monomial exponent vector: nonzero scalar}
    over its algebra, `parent`.  Unhashable."""

    __slots__ = ()
    _mismatch = "algebra mismatch"
    __hash__ = None

    def __init__(self, algebra: QAlgebra, terms):
        clean = {}
        for exps, coeff in dict(terms).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != algebra.n:
                raise ValueError(
                    f"exponent vector has length {len(exps)}, expected {algebra.n}"
                )
            if any(e < 0 for e in exps):
                raise ValueError("exponents must be nonnegative")
            if coeff.field is not algebra.field and coeff.field != algebra.field:
                raise ValueError("coefficient outside the algebra's field")
            if coeff:
                clean[exps] = coeff
        self.parent = algebra
        self.terms = clean

    # --- ring operations -------------------------------------------------------

    def scale(self, value: CycElem) -> "QPoly":
        field = self.parent.field
        if value.field is not field and value.field != field:
            raise ValueError("scalar outside the algebra's field")
        return QPoly._make(self.parent, {e: c * value for e, c in self.terms.items()})

    def __mul__(self, other):
        """One term pair is one shifted field product, `CycElem._times`.
        More are summed by Kronecker substitution once per product: each
        coefficient is packed once, over its side's common denominator, in
        slots wide enough for six times any output slot (at most
        min(|a|, |b|) pairs meet in an output monomial; the six is the
        reduction's, `_Level.reduce_packed`).  A pair costs one big-int
        product, shifted by -crossings slots (zeta**m = 1) into its
        monomial's sum; a square (other is self) makes one product per
        unordered pair {e, f} and adds it at both orders' shifts.  Each sum
        is reduced inside the integer, and its d slots are unpacked and
        brought to lowest terms once."""
        if not isinstance(other, QPoly):
            return NotImplemented
        self._check(other)
        a, b = self.terms, other.terms
        # O(n) work per pair: charged by the exponent width in 64-entry words
        budget.charge(max(1, len(a) * len(b)) * ((self.parent.n - 1) // 64 + 1))
        if len(a) * len(b) <= 1:
            if not a or not b:
                return QPoly._make(self.parent, {})
            (e, x), = a.items()
            (f, y), = b.items()
            return QPoly._make(self.parent, {tuple(map(add, e, f)): x._times(y, -_crossings(e, f))})
        field = self.parent.field
        level = field._level
        den_a, nums_a, top_a = _over_lcm(a)
        den_b, nums_b, top_b = (den_a, nums_a, top_a) if other is self else _over_lcm(b)
        width = _width(6 * top_a * top_b * level.d * min(len(a), len(b)))
        bits, m, tops = 8 * width, level.m, _tops(width, level.d)
        # crossings(e, f) = sum_i e_i * (f_0 + ... + f_{i-1})
        side_b = [
            (f, list(itertools.accumulate(f[:-1], initial=0)), _pack(nums, width, tops)) for f, nums in nums_b.items()
        ]
        sums = {}
        if other is self:
            for i, (e, pe, x) in enumerate(side_b):
                for f, pf, y in side_b[i:]:
                    xy, exps = x * y, tuple(map(add, e, f))
                    acc = sums.get(exps, 0) + (xy << bits * (-sum(map(mul, e, pf)) % m))
                    if f is not e:  # x^f x^e, from the same product
                        acc += xy << bits * (-sum(map(mul, f, pe)) % m)
                    sums[exps] = acc
        else:
            for e, nums in nums_a.items():
                x = _pack(nums, width, tops)
                for f, pf, y in side_b:
                    exps = tuple(map(add, e, f))
                    sums[exps] = sums.get(exps, 0) + ((x * y) << bits * (-sum(map(mul, e, pf)) % m))
        den = den_a * den_b
        out = {exps: _normal(field, level.reduce_packed(v, width), den) for exps, v in sums.items()}
        return QPoly._make(self.parent, out)

    def __pow__(self, exponent: int):
        if exponent < 0:
            # the only units here are the nonzero constants; their powers
            # are the scalar's, which charges the budget
            scalar = self.as_scalar()
            if scalar is None:
                raise ValueError("negative powers are only defined for scalars here")
            return self.parent.scalar(scalar**exponent)
        return charged_power(self, exponent, self.parent.one())

    def as_scalar(self) -> Optional[CycElem]:
        """The scalar of a constant polynomial (zero included), else None."""
        if not self.terms:
            return self.parent.field.zero()
        return self.terms.get((0,) * self.parent.n) if len(self.terms) == 1 else None

    # --- rendering ------------------------------------------------------------------

    def __str__(self):
        return render_terms(
            (
                str(self.terms[exps]),
                "*".join(
                    f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                    for i, e in enumerate(exps)
                    if e
                ),
            )
            for exps in sorted(self.terms, reverse=True)  # x1-leading terms first
        )


def _crossings(e, f) -> int:
    """sum_{i>j} e_i f_j: the swaps that sort x^e x^f."""
    return sum(map(mul, e, itertools.accumulate(f[:-1], initial=0)))


def _over_lcm(terms: dict):
    """(den, {key: numerators over den}, largest |numerator|), den the lcm
    of the coefficients' denominators."""
    den = lcm(*(c.den for c in terms.values()))
    nums = {k: c.nums if c.den == den else [n * (den // c.den) for n in c.nums] for k, c in terms.items()}
    return den, nums, max(max(map(abs, v)) for v in nums.values())


# --- dimension counting -------------------------------------------------------


def dim_Vr(algebra: QAlgebra, r: int) -> int:
    """Number of sorted monomials of length at most r: C(n+r, r).  The
    budget is charged once for all of them."""
    if r < 0:
        raise ValueError("degree bound must be nonnegative")
    count = comb(algebra.n + r, r)
    budget.charge(count)
    return count


def dim_Vr_oracle(algebra: QAlgebra, r: int) -> int:
    """The same number by listing the monomials, length by length."""
    if r < 0:
        raise ValueError("degree bound must be nonnegative")
    count = 0
    for s in range(r + 1):
        chunk = 0
        for _ in itertools.combinations_with_replacement(range(algebra.n), s):
            chunk += 1
        budget.charge(chunk)
        count += chunk
    return count


def gk_profile(algebra: QAlgebra, r_max: int) -> list[tuple[int, int]]:
    """Dimension sequence (r, dim V^r) for r = 1..r_max, V spanned by 1 and
    the generators; feed it to the growth estimators.  dim V^r = C(n + r, n)
    is binomial, so the growth.MIN_POINTS points of every fit certify degree
    n; a shorter r_max raises ValueError."""
    from .growth import check_fit_window  # imported here: `quantum nf` and `mul` never fit

    check_fit_window(1, r_max)
    return [(r, dim_Vr(algebra, r)) for r in range(1, r_max + 1)]


# --- centrality ------------------------------------------------------------------


def power_is_central(algebra: QAlgebra, i: int, k: int) -> bool:
    """Whether x_i**k commutes with every generator x_j, read from the
    product law: x^e x^f and x^f x^e are q**-crossings times x^(e+f), so they
    agree iff their crossing counts agree mod the root order m."""
    if not 1 <= i <= algebra.n:
        raise IndexError(f"generator index {i} outside 1..{algebra.n}")
    if k < 0:
        raise ValueError("power must be nonnegative")
    units = [(0,) * j + (1,) + (0,) * (algebra.n - 1 - j) for j in range(algebra.n)]
    e = tuple(k * u for u in units[i - 1])
    return all((_crossings(e, f) - _crossings(f, e)) % algebra.field.m == 0 for f in units)


def central_power_check(algebra: QAlgebra, i: int) -> bool:
    """x_i raised to the root order p**(2t) is central: the crossing factors
    q**(p**(2t)) collapse to 1."""
    return power_is_central(algebra, i, algebra.field.m)


# --- homomorphism checking -----------------------------------------------------------


class HomCheckReport(NamedTuple):
    # a NamedTuple rather than a dataclass: importing dataclasses pulls in
    # inspect and ast, most of this module's import memory
    ok: bool
    failing_pair: Optional[tuple[int, int]]
    defect: Optional[QPoly]


def embed_root(src: CycField, dst: CycField) -> CycElem:
    """Image of the source field's root inside the destination field.

    Needs the same base prime and a destination level at least the source's;
    the image is the root raised to p**(2*(level gap)), an index shift that
    charges nothing.  The destination root is primitive of order p**(2*dst.t),
    so that power has order p**(2*src.t) by construction; the `tower`
    campaign checks the root orders and the one-level embeddings.
    """
    if src.p != dst.p:
        raise ValueError(
            f"incompatible scalar fields: base primes {src.p} and {dst.p} differ"
        )
    if src.t > dst.t:
        raise ValueError(
            f"source root of order {src.m} does not live in the level-{dst.t} field"
        )
    return dst.one().times_zeta(dst.p ** (2 * (dst.t - src.t)))


def hom_check(src: QAlgebra, dst: QAlgebra, images: Sequence[QPoly]) -> HomCheckReport:
    """Does x_i -> images[i-1] extend to a ring map src -> dst?

    Checked on the presenting relations x_i x_j = q_src x_j x_i for i < j
    (the orientation that presents the source), with q_src read inside the
    destination's scalar field.
    """
    if len(images) != src.n:
        raise ValueError(f"expected {src.n} generator images, got {len(images)}")
    for f in images:
        if f.parent != dst:
            raise ValueError("generator image lies outside the destination algebra")
    q_src = embed_root(src.field, dst.field)
    for i in range(1, src.n + 1):
        for j in range(i + 1, src.n + 1):
            lhs = images[i - 1] * images[j - 1]
            rhs = images[j - 1] * images[i - 1]
            defect = lhs - rhs.scale(q_src)
            if defect:
                return HomCheckReport(False, (i, j), defect)
    return HomCheckReport(True, None, None)


def power_map_images(src: QAlgebra, dst: QAlgebra, exponent: int) -> list[QPoly]:
    """The candidate map x_i -> x_i**exponent, one image per source generator,
    its src.n * dst.n exponents admitted to the work budget first."""
    if dst.n < src.n:
        raise ValueError("destination has fewer generators than the source")
    size = src.n * dst.n
    budget.admit(size, f"image size {size} ({src.n} generator images of {dst.n} exponents)")
    return [dst.generator(i, exponent) for i in range(1, src.n + 1)]
