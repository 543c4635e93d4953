"""Growth estimators: degree detection, slope extraction, the window bound."""

import random
import sys
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gkbench.gammalab import rn_dim_series
from gkbench.growth import (
    MIN_POINTS,
    GrowthSeries,
    degree_estimate,
    slope_extract,
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
    assert est.snapped == 2 and est.exact and not est.unbounded


def test_degree_affine_snaps_to_one():
    est = degree_estimate(series(lambda r: 5 + 4 * r, 4, 20))
    assert est.snapped == 1 and not est.unbounded


def test_degree_constant_snaps_to_zero():
    est = degree_estimate(series(lambda r: 7, 1, 9))
    assert est.snapped == 0 and not est.unbounded


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
    assert est.inconclusive and not est.exact and est.snapped is None


def test_degree_unbounded_on_superpolynomial():
    est = degree_estimate(series(lambda r: r**r, 1, 12))
    assert est.unbounded and est.at_least == 11 and not est.exact
    assert est.label == ">=11"
    est2 = degree_estimate(series(lambda r: 2**r, 1, 14))
    assert est2.unbounded and est2.label == ">=13"
    # no finite window tells 2^r from a polynomial of high degree; the bound
    # is true of both
    assert degree_estimate(series(lambda r: 10**12 + r**10, 10, 17)).label == ">=7"


def test_short_exact_series_is_inconclusive():
    # C(r+6, 6) + r needs 9 points for three equal sixth differences, and
    # is not c * C(r+D, D), so over 8 neither certificate holds
    est = degree_estimate(series(lambda r: comb(r + 6, 6) + r, 1, 8))
    assert est.inconclusive and not est.unbounded and est.snapped is None
    assert est.label == "inconclusive"
    assert degree_estimate(series(lambda r: comb(r + 6, 6) + r, 1, 9)).snapped == 6
    # the binomial ratio certifies C(r+4, 4) one point short of differences
    est = degree_estimate(series(lambda r: comb(r + 4, 4), 1, 6))
    assert est.snapped == 4 and est.exact and est.label == "4"
    for fn, hi in ((lambda r: r**r, 12), (lambda r: 2**r, 14)):
        assert not degree_estimate(series(fn, 1, hi)).inconclusive


@given(
    degree=st.integers(0, 12),
    scale=st.integers(1, 50),
    start=st.integers(1, 20),
    length=st.integers(MIN_POINTS, 16),
)
def test_scaled_binomial_reads_its_degree(degree, scale, start, length):
    est = degree_estimate(series(lambda r: scale * comb(r + degree, degree), start, start + length - 1))
    assert est.snapped == degree and est.exact and not est.unbounded


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
    assert est.snapped == degree or (est.unbounded and est.at_least <= degree) or est.inconclusive
    assert est.unbounded == est.label.startswith(">=")


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
    assert est.at_least == k - 1 and est.label == f">={k - 1}"
    assert est.unbounded == est.label.startswith(">=")


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
    # two free values: any degree certified over the whole window is D, and
    # whatever else it reads is not a degree
    degree = len(coeffs) - 1
    k = prefix + max(degree + 3, MIN_POINTS - prefix) + extra
    rs = list(range(start, start + k * step, step))
    tail = [poly(coeffs, r) for r in rs[prefix:]]
    head = sorted(data.draw(st.lists(st.integers(1, tail[0]), min_size=prefix, max_size=prefix)))
    est = degree_estimate(GrowthSeries(zip(rs, head + tail)))
    assert est.snapped in (None, degree)
    assert est.unbounded == est.label.startswith(">=")


@given(
    coeffs=st.lists(st.integers(1, 9), min_size=1, max_size=5),
    extra=st.integers(0, 5),
    start=st.integers(1, 30),
    step=st.integers(1, 4),
    bump=st.integers(1, 10**6),
    at_end=st.booleans(),
)
def test_one_wrong_value_is_never_a_degree(coeffs, extra, start, step, bump, at_end):
    # a degree-D polynomial over at least D + 3 points with its last value
    # raised, or its first lowered: no certificate fits it
    degree = len(coeffs) - 1
    k = max(degree + 3, MIN_POINTS) + extra
    rs = list(range(start, start + k * step, step))
    dims = [poly(coeffs, r) for r in rs]
    if at_end or dims[0] == 1:
        dims[-1] += bump
    else:
        dims[0] -= 1 + bump % (dims[0] - 1)
    est = degree_estimate(GrowthSeries(zip(rs, dims)))
    assert not est.exact


def test_label_rendering():
    est = degree_estimate(series(lambda r: 5 + 4 * r, 4, 20))
    assert est.label == "1"


def test_slope_extract_on_affine_model():
    fit = slope_extract(GrowthSeries(rn_dim_series(2, 12, 4)))
    assert fit is not None
    assert fit.slope == 16
    # rn_dim(2, 4) = 48, so past r = 4 the model is 16r - 16
    assert fit.offset == 48 - 16 * 4


def test_slope_extract_all_pairs():
    from gkbench.gammalab import rn_basis_size

    for pairs in range(5):
        lo = max(1, 2 * pairs)
        fit = slope_extract(GrowthSeries(rn_dim_series(pairs, lo + 12, lo)))
        assert fit is not None and fit.slope == rn_basis_size(pairs)


def test_slope_extract_nonlinear():
    assert slope_extract(series(lambda r: comb(2 + r, r), 1, 10)) is None


def test_slope_extract_constant():
    fit = slope_extract(series(lambda r: 7, 1, 6))
    assert fit is not None and fit.slope == 0 and fit.offset == 7


def test_slope_extract_validation():
    with pytest.raises(ValueError):
        slope_extract(series(lambda r: r, 1, 3))
    with pytest.raises(ValueError):
        slope_extract(GrowthSeries([(1, 1), (3, 2), (5, 3), (7, 4)]))
