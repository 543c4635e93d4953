"""Degree statistics for dimension sequences (r, dim V^r).

Every sequence produced inside this package is eventually an exact integer
polynomial in r (affine for the gamma model, binomial for the quantum affine
spaces), so the growth degree of a uniformly spaced sample is read off
exactly with finite differences.  The least-squares slope of log(dim)
against log(r) over the tail half is computed alongside as the raw
statistic, and is what the snapping falls back to when no difference
certificate exists (non-uniform spacing, noisy data).  Growth faster than
every fixed polynomial degree is flagged heuristically: the fitted slope
keeps increasing across three tail windows, unless the series is just short
of certifying the degree the slope points to: then it is inconclusive.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Optional

SNAP_TOLERANCE = 0.1
MIN_POINTS = 6
_UNBOUNDED_RISE = 0.5


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

    raw is the tail-half log-log least-squares slope; snapped is the integer
    degree when one was established (exact=True marks a finite-difference
    certificate, exact=False the 0.1 tolerance snap of raw); unbounded flags
    super-polynomial growth; fit_residual is the sum of squared residuals of
    the log-log fit; inconclusive marks a series too short to tell a
    polynomial still climbing to its degree from super-polynomial growth.
    """

    raw: float
    snapped: Optional[int]
    unbounded: bool
    fit_residual: float
    exact: bool
    inconclusive: bool = False

    @property
    def label(self) -> str:
        if self.inconclusive:
            return "inconclusive"
        if self.unbounded:
            return "unbounded"
        if self.snapped is None:
            return f"{self.raw:.3f} (nonintegral)"
        return str(self.snapped)


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


def _windows_increasing(points) -> bool:
    """Heuristic flag for super-polynomial growth: the log-log slope strictly
    increases, by more than a fixed rise, across three consecutive windows."""
    third = len(points) // 3
    if third < 2:
        return False
    tail = points[len(points) - 3 * third:]
    slopes = []
    for w in range(3):
        window = tail[w * third:(w + 1) * third]
        slopes.append(_loglog_fit(window)[0])
    return (
        slopes[0] < slopes[1] < slopes[2]
        and slopes[2] - slopes[0] > _UNBOUNDED_RISE
    )


def check_fit_window(r_min: int, r_max: int, scope: str = "", degree: int = 1) -> None:
    """Raise ValueError unless r = r_min..r_max gives the fit max(MIN_POINTS,
    degree + 3) points, enough for three equal degree-th differences; `scope`
    names what fixed the window, e.g. " for n = 2"."""
    points = max(MIN_POINTS, degree + 3)
    least = r_min + points - 1
    if r_max < least:
        raise ValueError(
            f"rmax must be at least {least}{scope}: "
            f"the fit needs {points} points from r = {r_min}"
        )


def degree_estimate(series: GrowthSeries) -> DegreeEstimate:
    """Estimate the polynomial degree of r -> dim.

    A finite-difference certificate (uniform spacing, differences eventually
    constant) pins the integer degree exactly; otherwise the raw log-log
    slope is snapped to the nearest integer within 0.1, the three-window
    heuristic flags unbounded growth (or an inconclusive series), and
    anything else is reported raw.
    """
    pts = series.points
    if len(pts) < MIN_POINTS:
        raise ValueError(f"need at least {MIN_POINTS} points")
    tail = pts[len(pts) // 2:]
    raw, residual = _loglog_fit(tail)
    certified = _difference_degree(pts)
    if certified is not None:
        return DegreeEstimate(raw, certified, False, residual, True)
    if _windows_increasing(pts):
        # a polynomial's slope climbs to its degree from below, about one
        # behind at small r: a series one or two points short of certifying
        # degree floor(raw) + 2 may be only climbing
        reach = len(pts) - 3  # the highest degree three equal differences certify
        short = reach < math.floor(raw) + 2 <= reach + 2
        return DegreeEstimate(raw, None, not short, residual, False, short)
    nearest = round(raw)
    if nearest >= 0 and abs(raw - nearest) <= SNAP_TOLERANCE:
        return DegreeEstimate(raw, int(nearest), False, residual, False)
    return DegreeEstimate(raw, None, False, residual, False)


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
