"""Degree statistics for dimension sequences (r, dim V^r).

Every sequence produced inside this package is eventually an exact integer
polynomial in r (affine for the gamma model, binomial for the quantum
affine spaces), and the paper's growth degrees are non-negative integers or
infinite, so every verdict is an exact statement about the window, reached
in integer arithmetic.  A degree is certified by finite differences for a
uniformly spaced polynomial, or by the ratio
L(r) = r * (d_r - d_{r-1}) / d_{r-1}, equal to one integer D at every step
exactly when d_r = c * C(r + D, D).  Without a certificate, k uniformly
spaced points whose (k-1)-th difference is nonzero fit no polynomial of
degree <= k - 2, and the verdict is the window bound >=k-1; anything else is
inconclusive.  Only a certified degree is a degree: the window bound holds
as well for an eventually affine series whose first values are off the
line (rn_dim_series(2, 12) reads >=11 though it is 16r - 16 from r = 3
on), so neither it nor inconclusive passes.
"""

from __future__ import annotations

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

    @property
    def steps(self) -> set:
        """The distinct gaps between successive r values."""
        rs = self.rs
        return {b - a for a, b in zip(rs, rs[1:])}

    @property
    def consecutive(self) -> bool:
        return self.steps <= {1}

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
    """Outcome of the degree estimator, one of three exact verdicts.

    snapped is the integer degree when a certificate established it;
    at_least is k - 1 when none did and the (k-1)-th difference of the k
    uniformly spaced points is nonzero, so that no polynomial of degree at
    most k - 2 fits the window.  That bound is about the window alone, not
    the growth past it, so only `exact` passes.  A series with neither is
    inconclusive.
    """

    snapped: Optional[int]
    at_least: Optional[int]

    @property
    def exact(self) -> bool:
        return self.snapped is not None

    @property
    def unbounded(self) -> bool:
        """The window bound is set: no polynomial of degree <= k - 2 fits."""
        return self.at_least is not None

    @property
    def inconclusive(self) -> bool:
        return self.snapped is None and self.at_least is None

    @property
    def label(self) -> str:
        if self.at_least is not None:
            return f">={self.at_least}"
        return "inconclusive" if self.snapped is None else str(self.snapped)


class LinearFit(NamedTuple):
    slope: int
    offset: int


def _differences(series: GrowthSeries) -> tuple[Optional[int], bool]:
    """(degree, bounded) from the difference table of a uniformly spaced
    series of k points.  Successive differences of a degree-d polynomial
    become constant after d steps: degree is certified by the first row of
    at least three equal values.  bounded says that no row did and that the
    last row, the (k-1)-th difference, is nonzero.  (None, False) for any
    other spacing."""
    if len(series.steps) > 1:
        return None, False
    values = [d for _, d in series.points]
    row = 0
    while len(values) >= 3:
        if all(v == values[0] for v in values):
            return row, False
        values = [b - a for a, b in zip(values, values[1:])]
        row += 1
    return None, values[0] != values[1]


def _ratios(series: GrowthSeries) -> list[tuple[int, int]]:
    """L(r) = r * (d_r - d_{r-1}) / d_{r-1} as (numerator, denominator) at
    each step of a series at consecutive r; [] for any other spacing.  Since
    C(r + D, D) / C(r - 1 + D, D) = (r + D) / r, L(r) = D at every step
    exactly when d_r = c * C(r + D, D)."""
    if not series.consecutive:
        return []
    pts = series.points
    return [(r * (d1 - d0), d0) for (_, d0), (r, d1) in zip(pts, pts[1:])]


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
    one, the verdict is the window bound >=k-1 or inconclusive.
    """
    if len(series) < MIN_POINTS:
        raise ValueError(f"need at least {MIN_POINTS} points")
    certified, bounded = _differences(series)
    ratios = [] if certified is not None else _ratios(series)
    degree = ratios[0][0] // ratios[0][1] if ratios else None
    if ratios and all(n == degree * d for n, d in ratios):
        return DegreeEstimate(degree, None)
    return DegreeEstimate(certified, len(series) - 1 if bounded else None)


def slope_extract(series: GrowthSeries) -> Optional[LinearFit]:
    """Eventual slope and offset of an eventually affine sequence at
    consecutive r, or None when the first differences never settle."""
    pts = series.points
    if len(pts) < 4:
        raise ValueError("need at least 4 points")
    if not series.consecutive:
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
