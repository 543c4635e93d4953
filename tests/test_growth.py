"""Growth estimators: degree certificates on suffixes, the line a degree <= 1
certificate reads, the window bound."""

import random
import sys
from math import comb

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gkbench import CycField, QAlgebra, gk_profile
from gkbench.gammalab import rn_basis_size, rn_dim_series, rn_window
from gkbench.growth import (
    MIN_POINTS,
    GrowthSeries,
    certified_line,
    degree_estimate,
)


def series(fn, lo, hi):
    return GrowthSeries([(r, fn(r)) for r in range(lo, hi + 1)])


def poly(coeffs, r):
    return sum(c * r**e for e, c in enumerate(coeffs))


def test_series_validation():
    with pytest.raises(ValueError):
        GrowthSeries([])
    with pytest.raises(ValueError):
        GrowthSeries([(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        GrowthSeries([(1, 5), (1, 6)])
    with pytest.raises(ValueError):
        GrowthSeries([(1, 5), (2, 4)])  # non-monotone


def test_from_text():
    s = GrowthSeries.from_text("# comment\n1,2\n2,3\n\n3,5\n")
    assert s.points == ((1, 2), (2, 3), (3, 5))
    with pytest.raises(ValueError, match="line 1: expected 'r,dim', got '1 2'"):
        GrowthSeries.from_text("1 2\n")
    with pytest.raises(ValueError, match="line 3: expected integers 'r,dim', got '2,x'"):
        GrowthSeries.from_text("1,2\n# comment\n2,x\n")
    with pytest.raises(ValueError, match=r"got '1,x9{37}'\.\.\.$"):
        GrowthSeries.from_text("1,x" + "9" * 5000)


def test_from_text_names_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ValueError) as info:
        GrowthSeries.from_text("1,2\n2," + "9" * (limit + 700))
    message = str(info.value)
    assert message.startswith(f"line 2: an integer in '2,{'9' * 38}'... has more than {limit} digits")
    assert len(message) < 160


def test_degree_binomial_snaps_to_two():
    est = degree_estimate(series(lambda r: comb(2 + r, r), 4, 16))
    assert est.snapped == 2 and est.exact and est.at_least is None and est.start == 4


def test_degree_affine_snaps_to_one():
    est = degree_estimate(series(lambda r: 5 + 4 * r, 4, 20))
    assert est.snapped == 1 and est.at_least is None and est.start == 4


def test_degree_constant_snaps_to_zero():
    est = degree_estimate(series(lambda r: 7, 1, 9))
    assert est.snapped == 0 and est.at_least is None and est.start == 1


def test_degree_needs_six_points():
    with pytest.raises(ValueError):
        degree_estimate(series(lambda r: r, 1, 5))


def test_degree_polynomials_up_to_five():
    rng = random.Random(1234)
    for d in range(6):
        lead = rng.randint(1, 3)
        lower = [rng.randint(0, 4) for _ in range(d)]
        def poly(r, lead=lead, lower=lower, d=d):
            return lead * r**d + sum(c * r**k for k, c in enumerate(lower)) + 1
        est = degree_estimate(series(poly, 1, 20))
        assert est.snapped == d, (d, est)


def test_nonuniform_series_without_certificate_is_inconclusive():
    # non-uniform spacing blocks both certificates and the window bound,
    # even on an exact cube
    pts = [(r, r**3) for r in (4, 6, 8, 12, 16, 24, 32)]
    est = degree_estimate(GrowthSeries(pts))
    assert est == (None, None, None) and est.label == "inconclusive"


def test_degree_unbounded_on_superpolynomial():
    est = degree_estimate(series(lambda r: r**r, 1, 12))
    assert est == (None, 11, None) and not est.exact
    assert est.label == ">=11"
    est2 = degree_estimate(series(lambda r: 2**r, 1, 14))
    assert est2.at_least == 13 and est2.label == ">=13"
    # no finite window tells 2^r from a polynomial of high degree; the bound
    # is true of both
    assert degree_estimate(series(lambda r: 10**12 + r**10, 10, 17)).label == ">=7"


def test_short_exact_series_is_inconclusive():
    # C(r+6, 6) + r needs 9 points for three equal sixth differences, and
    # is not c * C(r+D, D), so over 8 neither certificate holds
    est = degree_estimate(series(lambda r: comb(r + 6, 6) + r, 1, 8))
    assert est == (None, None, None) and est.label == "inconclusive"
    assert degree_estimate(series(lambda r: comb(r + 6, 6) + r, 1, 9)).snapped == 6
    # the binomial ratio certifies C(r+4, 4) one point short of differences
    est = degree_estimate(series(lambda r: comb(r + 4, 4), 1, 6))
    assert est.snapped == 4 and est.exact and est.label == "4" and est.start == 1
    for fn, hi in ((lambda r: r**r, 12), (lambda r: 2**r, 14)):
        assert degree_estimate(series(fn, 1, hi)).label != "inconclusive"


@given(
    degree=st.integers(0, 12),
    scale=st.integers(1, 50),
    start=st.integers(1, 20),
    length=st.integers(MIN_POINTS, 16),
)
def test_scaled_binomial_reads_its_degree(degree, scale, start, length):
    est = degree_estimate(series(lambda r: scale * comb(r + degree, degree), start, start + length - 1))
    assert est == (degree, None, start)


@given(
    coeffs=st.lists(st.integers(1, 9), min_size=1, max_size=10),
    start=st.integers(1, 30),
    step=st.integers(1, 4),
    k=st.integers(MIN_POINTS, 12),
)
def test_polynomial_never_reads_a_wrong_degree(coeffs, start, step, k):
    # degree D = len(coeffs) - 1; a window too short to certify D may only
    # bound it from below
    degree = len(coeffs) - 1
    est = degree_estimate(GrowthSeries([(r, poly(coeffs, r)) for r in range(start, start + k * step, step)]))
    assert est == (degree, None, start) or (
        est.snapped is None and est.start is None and (est.at_least or 0) <= degree
    )
    assert (est.at_least is not None) == est.label.startswith(">=")


@given(
    base=st.integers(1, 5),
    start=st.integers(1, 30),
    step=st.integers(1, 4),
    k=st.integers(MIN_POINTS, 12),
)
def test_superpolynomial_windows_read_the_bound(base, start, step, k):
    # base 1 stands for r^r, the others for base^r
    rs = range(start, start + k * step, step)
    est = degree_estimate(GrowthSeries([(r, (r if base == 1 else base) ** r) for r in rs]))
    assert est == (None, k - 1, None) and est.label == f">={k - 1}"


@given(
    data=st.data(),
    coeffs=st.lists(st.integers(1, 9), min_size=1, max_size=5),
    prefix=st.integers(1, 2),
    extra=st.integers(0, 5),
    start=st.integers(1, 30),
    step=st.integers(1, 4),
)
def test_eventually_polynomial_never_reads_a_wrong_degree(data, coeffs, prefix, extra, start, step):
    # a tail of at least D + 3 points on a degree-D polynomial after one or
    # two free values: any degree certified is D, and whatever else it reads
    # is not a degree
    degree = len(coeffs) - 1
    k = prefix + max(degree + 3, MIN_POINTS - prefix) + extra
    rs = list(range(start, start + k * step, step))
    tail = [poly(coeffs, r) for r in rs[prefix:]]
    head = sorted(data.draw(st.lists(st.integers(1, tail[0]), min_size=prefix, max_size=prefix)))
    est = degree_estimate(GrowthSeries(zip(rs, head + tail)))
    assert est.snapped in (None, degree)
    assert (est.at_least is not None) == est.label.startswith(">=")


@given(
    coeffs=st.lists(st.integers(1, 9), min_size=1, max_size=5),
    extra=st.integers(0, 5),
    start=st.integers(1, 30),
    step=st.integers(1, 4),
    bump=st.integers(1, 10**6),
)
def test_one_wrong_value_is_never_a_degree(coeffs, extra, start, step, bump):
    # a degree-D polynomial over at least D + 3 points with its last value
    # raised: every suffix holds that value, so no certificate fits it
    degree = len(coeffs) - 1
    k = max(degree + 3, MIN_POINTS) + extra
    rs = list(range(start, start + k * step, step))
    dims = [poly(coeffs, r) for r in rs]
    dims[-1] += bump
    assert not degree_estimate(GrowthSeries(zip(rs, dims))).exact


@given(
    coeffs=st.lists(st.integers(1, 9), min_size=1, max_size=5),
    k=st.integers(MIN_POINTS, MIN_POINTS + 8),
    start=st.integers(1, 30),
    step=st.integers(1, 4),
    bump=st.integers(0, 10**6),
)
def test_a_lowered_first_value_is_certified_from_the_next(coeffs, k, start, step, bump):
    # the same polynomial with its first value lowered: the suffix from
    # rs[1] certifies D when it holds the fit's MIN_POINTS points and three
    # equal D-th differences, and nothing is certified otherwise
    degree = len(coeffs) - 1
    rs = list(range(start, start + k * step, step))
    dims = [poly(coeffs, r) for r in rs]
    assume(dims[0] > 1)
    dims[0] -= 1 + bump % (dims[0] - 1)
    est = degree_estimate(GrowthSeries(zip(rs, dims)))
    if k - 1 >= max(MIN_POINTS, degree + 3):
        assert est == (degree, None, rs[1])
    else:
        assert not est.exact


@given(n=st.integers(0, 5), extra=st.integers(0, 12))
def test_rn_dim_series_is_certified_from_where_it_turns_affine(n, extra):
    # rn_dim(n, r) = 4^n (r + 1 - n) from r = 2n - 1 on, and is one above
    # that line at r = 2n - 2
    first = max(1, 2 * n - 1)
    s = GrowthSeries(rn_dim_series(n, first + MIN_POINTS - 1 + extra))
    est = degree_estimate(s)
    assert est == (1, None, first)
    assert certified_line(s, est) == (4**n, 4**n * (1 - n))


@pytest.mark.parametrize(
    "window, degree",
    [
        *((rn_dim_series(n, hi, lo), 1) for n in range(5) for lo, hi in [rn_window(n)]),
        *((gk_profile(QAlgebra(n, CycField(2, 1)), rmax), n) for n in range(1, 6) for rmax in (6, 12)),
    ],
    ids=[*(f"step8-n{n}" for n in range(5)), *(f"gk_profile-n{n}-r{rmax}" for n in range(1, 6) for rmax in (6, 12))],
)
def test_campaign_windows_are_certified_from_their_first_point(window, degree):
    # degree_claim records carry no start, so this keeps the goldens from
    # resting on a shorter suffix
    assert degree_estimate(GrowthSeries(window)) == (degree, None, window[0][0])


def test_label_rendering():
    est = degree_estimate(series(lambda r: 5 + 4 * r, 4, 20))
    assert est.label == "1"


@pytest.mark.parametrize(
    "points, line",
    [
        # rn_dim(2, 4) = 48, so past r = 4 the model is 16r - 16
        (rn_dim_series(2, 12, 4), (16, 48 - 16 * 4)),
        *((rn_dim_series(n, max(1, 2 * n) + 12, max(1, 2 * n)), (rn_basis_size(n), 4**n * (1 - n))) for n in range(5)),
        (series(lambda r: comb(2 + r, r), 1, 10).points, None),
        (series(lambda r: 7, 1, 6).points, (0, 7)),
        # certified degree 1 at step 2, but no slope per unit r is read
        ([(1, 1), (3, 2), (5, 3), (7, 4), (9, 5), (11, 6)], None),
    ],
    ids=["affine_model", *(f"all_pairs-n{n}" for n in range(5)), "nonlinear", "constant", "non_consecutive"],
)
def test_certified_line_reads_the_slope(points, line):
    s = GrowthSeries(points)
    assert certified_line(s, degree_estimate(s)) == line
