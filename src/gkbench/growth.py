"""Degree statistics for dimension sequences (r, dim V^r).

Every sequence produced inside this package is eventually an exact integer
polynomial in r (affine for the gamma model, binomial for the quantum
affine spaces), and the paper's growth degrees are non-negative integers or
infinite, so a degree is reported only when an exact certificate pins it:
finite differences for a uniformly spaced polynomial, or the ratio
L(r) = r * (d_r - d_{r-1}) / d_{r-1}, equal to one integer D at every step
exactly when d_r = c * C(r + D, D).  Both are integer arithmetic.  Without
a certificate the verdict is unbounded when L rises by at least 1/2 at
every step of the tail half, and inconclusive otherwise.  The least-squares
slope of log(dim) against log(r) over the tail half is reported alongside
as the raw statistic.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Optional

MIN_POINTS = 6


class GrowthSeries:
    """Validated list of (r, dim) points: r strictly increasing positive
    integers, dims positive and nondecreasing."""

    __slots__ = ("points",)

    def __init__(self, points):
        pts = [(int(r), int(d)) for r, d in points]
        if not pts:
            raise ValueError("empty series")
        if pts[0][0] < 1:
            raise ValueError("r values must be positive")
        for (r0, d0), (r1, d1) in zip(pts, pts[1:]):
            if r1 <= r0:
                raise ValueError("r values must be strictly increasing")
            if d1 < d0:
                raise ValueError("non-monotone dimension sequence")
        if any(d < 1 for _, d in pts):
            raise ValueError("dimensions must be positive")
        self.points = tuple(pts)

    @classmethod
    def from_text(cls, text: str) -> "GrowthSeries":
        """Parse 'r,dim' lines; blank lines and #-comments are skipped."""
        pts = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            pieces = line.split(",")
            if len(pieces) != 2:
                raise ValueError(f"line {lineno}: expected 'r,dim', got {line!r}")
            try:
                pts.append((int(pieces[0]), int(pieces[1])))
            except ValueError:
                limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
                if limit and max(map(_digit_count, pieces)) > limit:
                    raise ValueError(
                        f"line {lineno}: an integer in {_prefix(line)} has more than "
                        f"{limit} digits, the interpreter's limit for reading one"
                    ) from None
                raise ValueError(f"line {lineno}: expected integers 'r,dim', got {_prefix(line)}") from None
        return cls(pts)

    @classmethod
    def from_file(cls, path) -> "GrowthSeries":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_text(handle.read())

    @property
    def rs(self):
        return tuple(r for r, _ in self.points)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __repr__(self):
        return f"GrowthSeries({list(self.points)!r})"


def _digit_count(text: str) -> int:
    """Digits of a signed decimal integer, or 0 if text is not one."""
    text = text.strip()
    if text[:1] in ("+", "-"):
        text = text[1:]
    return len(text) if text.isdecimal() else 0


def _prefix(text: str, size: int = 40) -> str:
    """repr of text, cut to its first `size` characters."""
    return repr(text) if len(text) <= size else repr(text[:size]) + "..."


class DegreeEstimate(NamedTuple):
    """Outcome of the degree estimator.

    raw is the tail-half log-log least-squares slope and fit_residual the
    sum of squared residuals of that fit; snapped is the integer degree when
    a certificate established it; unbounded flags the super-polynomial
    signature.  A series with neither is inconclusive.
    """

    raw: float
    snapped: Optional[int]
    unbounded: bool
    fit_residual: float

    @property
    def exact(self) -> bool:
        return self.snapped is not None

    @property
    def inconclusive(self) -> bool:
        return self.snapped is None and not self.unbounded

    @property
    def label(self) -> str:
        if self.unbounded:
            return "unbounded"
        return "inconclusive" if self.snapped is None else str(self.snapped)


class LinearFit(NamedTuple):
    slope: int
    offset: int


def _loglog_fit(points) -> tuple[float, float]:
    xs = [math.log(r) for r, _ in points]
    ys = [math.log(d) for _, d in points]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    var = sum((x - mean_x) ** 2 for x in xs)
    if var == 0:
        raise ValueError("need at least two distinct r values to fit")
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = cov / var
    intercept = mean_y - slope * mean_x
    residual = sum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys))
    return slope, residual


def _difference_degree(points) -> Optional[int]:
    """Exact polynomial degree of a uniformly spaced integer sequence, or
    None: successive differences of a degree-d polynomial become constant
    after d steps.  At least three equal values are required to certify."""
    rs = [r for r, _ in points]
    steps = {b - a for a, b in zip(rs, rs[1:])}
    if len(steps) != 1:
        return None
    values = [d for _, d in points]
    k = 0
    while len(values) >= 3:
        if all(v == values[0] for v in values):
            return k
        values = [b - a for a, b in zip(values, values[1:])]
        k += 1
    return None


def _ratios(points) -> list[tuple[int, int]]:
    """L(r) = r * (d_r - d_{r-1}) / d_{r-1} as (numerator, denominator) at
    each step of a series at consecutive r; [] for any other spacing.  Since
    C(r + D, D) / C(r - 1 + D, D) = (r + D) / r, L(r) = D at every step
    exactly when d_r = c * C(r + D, D)."""
    if any(r1 != r0 + 1 for (r0, _), (r1, _) in zip(points, points[1:])):
        return []
    return [(r * (d1 - d0), d0) for (_, d0), (r, d1) in zip(points, points[1:])]


def check_fit_window(r_min: int, r_max: int, scope: str = "") -> None:
    """Raise ValueError unless r = r_min..r_max gives the fit MIN_POINTS
    points; `scope` names what fixed the window, e.g. " for n = 2"."""
    least = r_min + MIN_POINTS - 1
    if r_max < least:
        raise ValueError(
            f"rmax must be at least {least}{scope}: "
            f"the fit needs {MIN_POINTS} points from r = {r_min}"
        )


def degree_estimate(series: GrowthSeries) -> DegreeEstimate:
    """Estimate the polynomial degree of r -> dim.

    Two exact certificates pin an integer degree: finite differences
    (uniform spacing, differences eventually constant), then the binomial
    ratio L (consecutive r, L equal to one integer D throughout).  Without
    one, the verdict is unbounded or inconclusive.
    """
    pts = series.points
    if len(pts) < MIN_POINTS:
        raise ValueError(f"need at least {MIN_POINTS} points")
    half = len(pts) // 2
    raw, residual = _loglog_fit(pts[half:])
    certified = _difference_degree(pts)
    ratios = [] if certified is not None else _ratios(pts)
    degree = ratios[0][0] // ratios[0][1] if ratios else None
    if ratios and all(n == degree * d for n, d in ratios):
        certified = degree
    if certified is not None:
        return DegreeEstimate(raw, certified, False, residual)
    # unbounded: L rises by at least 1/2 at every step of the tail half (for
    # c**r, L(r) = (c - 1) * r; a polynomial's L tends to its degree)
    tail = ratios[half:]
    rises = (2 * (n1 * d0 - n0 * d1) >= d0 * d1 for (n0, d0), (n1, d1) in zip(tail, tail[1:]))
    return DegreeEstimate(raw, None, bool(tail) and all(rises), residual)


def slope_extract(series: GrowthSeries) -> Optional[LinearFit]:
    """Eventual slope and offset of an eventually affine sequence at
    consecutive r, or None when the first differences never settle."""
    pts = series.points
    if len(pts) < 4:
        raise ValueError("need at least 4 points")
    rs = series.rs
    if any(b - a != 1 for a, b in zip(rs, rs[1:])):
        raise ValueError("points must sit at consecutive r")
    diffs = [d1 - d0 for (_, d0), (_, d1) in zip(pts, pts[1:])]
    run = 1
    while run < len(diffs) and diffs[-run - 1] == diffs[-1]:
        run += 1
    if run < 3:
        return None
    slope = diffs[-1]
    last_r, last_dim = pts[-1]
    return LinearFit(slope, last_dim - slope * last_r)
