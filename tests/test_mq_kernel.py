"""The integer bitmask kernel of `MQElem` against the Fraction oracle in
mqoracle.py: products by both routes (the term-pair loop and the
three-product transform) on either side of their crossover, inverses by
both routes (products, or expansions and folds inside the transform) on
either side of their rule, sums, sign flips, the `coeffs` view, word sizes,
and bases too large for any table of 2^n entries."""

import random
from fractions import Fraction
from math import gcd
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from gkbench import mqfield
from gkbench.mqfield import MQElem, PrimeBasis
from gkbench.ordgroup import GroupElem
from gkbench.budget import words
from gkbench.sampling import random_mq
from mqoracle import mq_add, mq_flip, mq_mul

BASES = [PrimeBasis.first(n) for n in range(7)]
fractions_st = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def all_subsets(n):
    return [frozenset(i for i in range(1, n + 1) if m >> (i - 1) & 1) for m in range(1 << n)]


@st.composite
def mq_case(draw):
    """A basis of n <= 6 primes, two elements over it, an index, a group
    element; an element is dense (all 2^n terms) about half the time."""
    n = draw(st.integers(min_value=0, max_value=6))
    subsets = all_subsets(n)

    def element():
        if draw(st.booleans()):
            nonzero = fractions_st.filter(bool)
            values = draw(st.lists(nonzero, min_size=len(subsets), max_size=len(subsets)))
            coeffs = dict(zip(subsets, values))
        else:
            coeffs = draw(st.dictionaries(st.sampled_from(subsets), fractions_st, max_size=5))
        return MQElem(BASES[n], coeffs)

    a, b = element(), element()
    i = draw(st.integers(min_value=1, max_value=max(n, 1)))
    exps = draw(st.dictionaries(st.integers(min_value=1, max_value=max(n, 1)), st.integers(-3, 3)))
    return BASES[n], a, b, i, GroupElem(exps if n else {})


@given(mq_case())
def test_kernel_agrees_with_the_fraction_oracle(case):
    basis, a, b, i, g = case
    primes = basis.primes
    assert (a * b).coeffs == mq_mul(primes, a.coeffs, b.coeffs)
    assert (a + b).coeffs == mq_add(a.coeffs, b.coeffs)
    assert (-a).coeffs == {s: -v for s, v in a.coeffs.items()}
    if a:
        assert a * a.inv() == basis.one()
    if len(basis):
        assert a.apply_f(i).coeffs == mq_flip(a.coeffs, {i})
    odd = {j for j, e in g.exps.items() if e % 2}
    assert g.twist(a).coeffs == mq_flip(a.coeffs, odd)
    rebuilt = MQElem(basis, a.coeffs)
    assert rebuilt == a and hash(rebuilt) == hash(a)
    for value in (a, b, a * b, a + b, a - a):
        assert value.den > 0 and all(type(c) is int and c for c in value.terms.values())
        assert gcd(value.den, *value.terms.values()) == 1


def test_dense_elements_agree_with_the_oracle():
    rng = random.Random(6)
    for n in (4, 5, 6):
        basis, subsets = BASES[n], all_subsets(n)
        for _ in range(3):
            a, b = (
                MQElem(basis, {s: Fraction(rng.choice((-5, -2, 1, 3)), rng.randint(1, 6)) for s in subsets})
                for _ in range(2)
            )
            assert len(a.terms) == 1 << n and a.den > 1
            assert (a * b).coeffs == mq_mul(basis.primes, a.coeffs, b.coeffs)
            assert a * a.inv() == basis.one()
            assert a.apply_f(n).coeffs == mq_flip(a.coeffs, {n})


def fraction_words(value):
    """The size formula of a Fraction map: words of each numerator and denominator."""
    return sum(words(v.numerator) + words(v.denominator) for v in value.coeffs.values())


def test_words_match_the_fraction_formula():
    rng = random.Random(9)
    for n in (0, 3, 6):
        basis = BASES[n]
        for _ in range(200):
            a = random_mq(rng, basis, max_terms=6)
            b = random_mq(rng, basis, max_terms=6, nonzero=True)
            for value in (a, a * b, a + b, b.inv(), b**3):
                assert value._words() == fraction_words(value)
    big = BASES[2].element({(1,): Fraction(2**70, 3), (2,): Fraction(1, 2**65), (): 6})
    assert big._words() == fraction_words(big) == (2 + 1) + (1 + 2) + (1 + 1)


def test_sixty_four_primes():
    basis = PrimeBasis.first(64)
    p64 = basis.primes[-1]
    assert p64 == 311
    assert basis.radical(64) * basis.radical(64) == basis.rational(p64)
    top = basis.radical(64) + basis.radical(1) * basis.radical(63)
    assert top * top.inv() == basis.one()
    assert str(top) == "s1*s63 + s64"


# --- the dense route ------------------------------------------------------------

WIDE = {n: PrimeBasis.first(n) for n in range(1, 9)}
DENOMINATORS = st.one_of(st.sampled_from((1, 2, 3, 6, 35, 2**64)), st.integers(1, 2**40))


def subset(mask):
    return frozenset(i for i in range(1, mask.bit_length() + 1) if mask >> (i - 1) & 1)


def from_masks(basis, values):
    """An MQElem from {mask: Fraction}."""
    return MQElem(basis, {subset(m): v for m, v in values.items()})


def product_routes(a, b):
    """a * b, and whether the three-product transform computed it."""
    with mock.patch.object(mqfield, "_three_products", wraps=mqfield._three_products) as dense:
        product = a * b
    return product, dense.called


def assert_product_matches_the_oracle(a, b):
    product, dense = product_routes(a, b)
    assert product.coeffs == mq_mul(a.parent.primes, a.coeffs, b.coeffs)
    assert product.den > 0 and all(type(c) is int and c for c in product.terms.values())
    assert gcd(product.den, *product.terms.values()) == 1
    return product, dense


@st.composite
def crossover_case(draw):
    """Two elements over a basis of up to 8 primes, the first dense over k <= 6
    consecutive radicals (shifted up by `low`, so the highest radical present
    lies on either side of the crossover), with numerators up to 2**3, 2**40
    or 2**130 over varied denominators; the second is dense over the same radicals, dense
    over a proper subfield, the first's conjugate in its top radical (which
    cancels that radical's odd half of the product to zero), one term, or a
    random tenth, half or nine tenths of the first's support."""
    n = draw(st.sampled_from((8, 7, 6, 5, 4, 3, 2, 1)))
    k = min(n, draw(st.sampled_from((6, 5, 4, 6, 5, 4, 3, 2, 1))))
    low = draw(st.sampled_from((0, 0, n - k)))
    basis = WIDE[n]
    dens = draw(st.lists(DENOMINATORS, min_size=1, max_size=3))
    bound = 2 ** draw(st.sampled_from((3, 40, 130)))
    # 64 numerators of 130 bits would overrun Hypothesis's example buffer
    rng = draw(st.randoms(use_true_random=False))

    def element(width, support=None):
        masks = range(1 << width) if support is None else support
        values = {m << low: Fraction(rng.randint(-bound, bound) or 1, rng.choice(dens)) for m in masks}
        return from_masks(basis, values)

    a = element(k)
    shape = draw(st.sampled_from(("dense", "subfield", "conjugate", "single", "part")))
    if shape == "dense":
        b = element(k)
    elif shape == "subfield":
        b = element(draw(st.integers(0, k - 1)))
    elif shape == "conjugate":
        b = a.apply_f(low + k)
    elif shape == "single":
        b = element(k, [draw(st.integers(0, (1 << k) - 1))])
    else:
        density = draw(st.sampled_from((0.1, 0.5, 0.9)))
        b = element(k, [m for m in range(1 << k) if rng.random() < density] or [0])
    return a, b, shape


@given(crossover_case())
def test_both_product_routes_agree_with_the_oracle(case):
    a, b, shape = case
    product, _ = assert_product_matches_the_oracle(a, b)
    assert assert_product_matches_the_oracle(b, a)[0] == product
    if shape == "conjugate":
        top = 1 << (max(a.terms).bit_length() - 1)
        assert not any(m & top for m in product.terms)


def dense_over(basis, k, count, rng):
    """An element with `count` terms on distinct masks of radicals 1..k."""
    masks = rng.sample(range(1 << k), count)
    return from_masks(basis, {m: Fraction(rng.choice((-7, -2, 1, 3, 5)), rng.randint(1, 9)) for m in masks})


def test_the_crossover_sits_where_the_rule_says():
    """162 term pairs at least, and 2 * pairs >= 3 * 3^k for the highest
    radical k present: just below it the term-pair loop runs, at or above it
    the transform."""
    rng = random.Random(17)
    basis = WIDE[6]
    cases = (
        (4, 10, 16, False),  # 160 pairs: under the 162 floor
        (4, 11, 15, True),  # 165 pairs, 2 * 165 >= 243
        (5, 14, 26, False),  # 364 pairs, 2 * 364 < 729
        (5, 16, 23, True),  # 368 pairs, 2 * 368 >= 729
        (6, 32, 34, False),  # 1088 pairs, 2 * 1088 < 2187
        (6, 32, 35, True),  # 1120 pairs
    )
    for k, left, right, transform in cases:
        a, b = dense_over(basis, k, left, rng), dense_over(basis, k, right, rng)
        assert max(a.terms | b.terms).bit_length() == k
        _, dense = assert_product_matches_the_oracle(a, b)
        assert dense is transform, (k, left, right)


def test_a_sparse_product_over_sixty_four_primes_stays_on_the_term_pairs():
    """Masks up to bit 63: the transform would need 3^64 slots, so a 3-term
    and a 13-term square (169 pairs, past the pair floor) both stay on the
    term-pair loop and finish at once."""
    basis = PrimeBasis.first(64)
    a = from_masks(basis, {1 << 63: Fraction(3, 2), 1 | 1 << 40: Fraction(-1, 7), 1 << 62 | 1 << 5: 5})
    b = from_masks(basis, {1 << 63 | 1 << 62: 2, 1 << 10: Fraction(1, 3), 0: -4})
    _, dense = assert_product_matches_the_oracle(a, b)
    assert not dense
    rng = random.Random(64)
    c = from_masks(basis, {rng.getrandbits(64): Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(13)})
    _, dense = assert_product_matches_the_oracle(c, c)
    assert not dense and len(c.terms) == 13


# --- the inverse's two routes ----------------------------------------------------


def inverse_routes(a):
    """a.inv(), and the radical counts j of the inverse levels that ran in the
    transform: the folds the inverse made itself, not through a product."""
    fold, three = mqfield._fold, mqfield._three_products
    levels, in_product = [], []

    def spy_fold(vec, primes):
        if not in_product:
            levels.append(len(primes))
        return fold(vec, primes)

    def spy_three(*args):
        in_product.append(True)
        try:
            return three(*args)
        finally:
            in_product.pop()

    with mock.patch.object(mqfield, "_fold", spy_fold), mock.patch.object(mqfield, "_three_products", spy_three):
        inverse = a.inv()
    return inverse, levels


def assert_inverse(a):
    inverse, levels = inverse_routes(a)
    assert a * inverse == a.parent.one()
    assert inverse.den > 0 and all(type(c) is int and c for c in inverse.terms.values())
    assert gcd(inverse.den, *inverse.terms.values()) == 1
    return inverse, levels


@st.composite
def inverse_case(draw):
    """A nonzero element over a basis of up to 8 primes, dense over k <= 6
    consecutive radicals shifted up by `low` (so the top radical varies), with
    numerators up to 2**3, 2**40 or 2**130 over varied denominators.  Shapes
    on a = u + v*sqrt(p_top): dense; u dense beside a one-term v, and the
    reverse; an element of a proper subfield (a random part of the window's
    radicals); and m*b, m one radical product just under the top and b free
    of its radicals, so that the norm m^2 * N(b) loses them (their mask is
    drawn beside the element, 0 for the other shapes)."""
    n = draw(st.sampled_from((8, 7, 6, 5, 4, 3, 2, 1)))
    k = min(n, draw(st.sampled_from((6, 5, 4, 3, 2, 1))))
    low = draw(st.integers(0, n - k))
    basis = WIDE[n]
    dens = draw(st.lists(DENOMINATORS, min_size=1, max_size=3))
    bound = 2 ** draw(st.sampled_from((3, 40, 130)))
    rng = draw(st.randoms(use_true_random=False))
    top = 1 << (k - 1)

    def element(masks):
        values = {m << low: Fraction(rng.randint(-bound, bound) or 1, rng.choice(dens)) for m in masks}
        return from_masks(basis, values)

    shape = draw(st.sampled_from(("dense", "dense u", "dense v", "subfield", "norm drop")))
    if shape == "dense":
        return element(range(1 << k)), 0
    if shape in ("dense u", "dense v"):
        one, many = [draw(st.integers(0, top - 1))], list(range(top))
        lower, upper = (many, one) if shape == "dense u" else (one, many)
        return element(lower + [top | m for m in upper]), 0
    if shape == "subfield":  # over some of the window's radicals, maybe none
        radicals = draw(st.integers(0, (1 << k) - 2))
        return element([m for m in range(1 << k) if not m & ~radicals]), 0
    # m: the product of the `drop` radicals just under the top
    drop = draw(st.integers(min(1, k - 1), k - 1))
    lost = (top - 1) ^ ((top >> drop) - 1)
    m = from_masks(basis, {lost << low: 1})
    return m * element([s for s in range(1 << k) if not s & lost]), lost << low


def norm_by_products(a):
    """u^2 - p*v^2 for a = u + v*sqrt(p), p the prime of a's top radical."""
    basis, top = a.parent, max(a.terms).bit_length()
    bit = 1 << (top - 1)
    u = MQElem._make(basis, {s: c for s, c in a.terms.items() if not s & bit}, a.den)
    v = MQElem._make(basis, {s ^ bit: c for s, c in a.terms.items() if s & bit}, a.den)
    return u * u - v * v * basis.rational(basis.primes[top - 1])


@given(inverse_case())
def test_inverses_by_either_route_are_canonical_and_unique(case):
    a, lost = case
    inverse, _ = assert_inverse(a)
    assert inverse.inv() == a
    if lost:
        assert not any(s & lost for s in norm_by_products(a).terms)


def test_the_inverse_switches_route_at_the_rule():
    """A level of t terms over radicals 1..j + 1 runs in the transform exactly
    when t^2 >= 2 * 3^j: at the least such t, and not one term below it; the
    split of the t terms between u and v does not matter."""
    rng = random.Random(20)
    basis = WIDE[8]
    for j in range(1, 8):
        least = next(t for t in range(2, 300) if t * t >= 2 * 3**j)
        top = 1 << j
        for t in (least - 1, least):
            for uppers in (1, t // 2, t - 1):  # terms of v: one, half, all but one
                masks = rng.sample(range(top), t - uppers) + [top | m for m in rng.sample(range(top), uppers)]
                a = from_masks(basis, {m: Fraction(rng.choice((-7, -2, 1, 3, 5)), rng.randint(1, 9)) for m in masks})
                assert len(a.terms) == t and max(a.terms).bit_length() == j + 1
                _, levels = assert_inverse(a)
                assert (j in levels) is (t == least), (j, t, uppers)
                # a sparse level makes one product, the conjugate times N^-1
                with (
                    mock.patch.object(MQElem, "__mul__", autospec=True, side_effect=MQElem.__mul__) as products,
                    mock.patch.object(MQElem, "inv", autospec=True, side_effect=MQElem.inv) as inverses,
                ):
                    a.inv()
                assert products.call_count == inverses.call_count - 1 - len(set(levels)), (j, t, uppers)


def test_an_inverse_over_sixty_four_primes_stays_on_the_products():
    """Levels of 2 or 3 terms under top radicals 64 and 63, where t^2 < 2 *
    3^j by far, and then a rational norm: no level runs in the transform, so
    nothing builds 3^63 slots."""
    basis = PrimeBasis.first(64)
    for a in (
        basis.radical(64) + basis.radical(1) * basis.radical(63),
        from_masks(basis, {1 << 63: Fraction(3, 2), 1 | 1 << 40: Fraction(-1, 7), 1 << 62 | 1 << 5: 5}),
    ):
        inverse, levels = assert_inverse(a)
        assert levels == [] and inverse.inv() == a
