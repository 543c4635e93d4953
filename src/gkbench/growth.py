"""Degree statistics for dimension sequences (r, dim V^r).

Every sequence produced inside this package is eventually an exact integer
polynomial in r (affine for the gamma model, binomial for the quantum
affine spaces), and the paper's growth degrees are non-negative integers or
infinite, so every verdict is an exact statement about the window, reached
in integer arithmetic.  GK dimension reads eventual growth only, so a
degree is certified on the longest suffix of the window that carries a
certificate: a trailing run of equal values in one row of the difference
table (uniform spacing), or of one integer D in the ratio
L(r) = r * (d_r - d_{r-1}) / d_{r-1}, which is D at every step exactly when
d_r = c * C(r + D, D).  The estimate names the first r of that suffix:
rn_dim_series(2, 12) certifies 1 from r = 3, where it becomes 16r - 16.
A suffix certificate is still a statement about the window, not a GK
dimension.  Without a certificate, k uniformly spaced points whose (k-1)-th
difference is nonzero fit no polynomial of degree <= k - 2, and the verdict
is the window bound >=k-1; anything else is inconclusive.  Only a certified
degree passes.
"""

from __future__ import annotations

import sys
from typing import NamedTuple, Optional

from . import budget

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

    snapped is the integer degree a certificate established, and start the
    first r of the suffix it holds on; at_least is k - 1 when there is no
    certificate and the (k-1)-th difference of the k uniformly spaced points
    is nonzero, so that no polynomial of degree at most k - 2 fits the
    window.  That bound is about the window alone, not the growth past it,
    so only `exact` passes.  A series with neither is inconclusive.
    """

    snapped: Optional[int]
    at_least: Optional[int]
    start: Optional[int]

    @property
    def exact(self) -> bool:
        return self.snapped is not None

    @property
    def label(self) -> str:
        if self.at_least is not None:
            return f">={self.at_least}"
        return "inconclusive" if self.snapped is None else str(self.snapped)


def _run_start(values: list) -> int:
    """Index at which the trailing run of values equal to the last starts."""
    start = len(values) - 1
    while start and values[start - 1] == values[-1]:
        start -= 1
    return start


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
    """Estimate the eventual polynomial degree of r -> dim.

    One walk reads a certificate for every suffix of the window at once, as
    row j of a suffix's difference table is the tail of row j of the whole
    table.  A trailing run of at least three equal values in row j
    (uniform spacing) certifies degree j from where it starts; a trailing
    run of one integer D in the binomial ratio L (consecutive r) certifies
    D.  The verdict is the certificate with the earliest start whose suffix
    holds at least MIN_POINTS points, the lower degree on a tie; one that
    starts at the first point ends the walk.  Without one, the verdict is
    the window bound >=k-1 or inconclusive.  Before each row is formed the
    work budget is charged the 64-bit words (`budget.words`) of the values
    it is formed from, as powers are charged, and each ratio step one op.
    """
    k = len(series)
    if k < MIN_POINTS:
        raise ValueError(f"need at least {MIN_POINTS} points")
    found = []  # (start index, degree) of each certificate
    bounded = False
    if len(series.steps) == 1:
        row = [d for _, d in series.points]
        budget.charge(sum(map(budget.words, row)))
        degree = 0
        while len(row) >= 3:
            start = _run_start(row)
            if len(row) - start >= 3 and k - start >= MIN_POINTS:
                if start == 0:
                    return DegreeEstimate(degree, None, series.rs[0])
                found.append((start, degree))
            budget.charge(sum(map(budget.words, row[1:])))
            row = [b - a for a, b in zip(row, row[1:])]
            degree += 1
        bounded = row[0] != row[1]
    if series.consecutive:
        # C(r + D, D) / C(r - 1 + D, D) = (r + D) / r, so
        # L(r) = r * (d_r - d_{r-1}) / d_{r-1} is D at every step of a
        # suffix exactly when d_r = c * C(r + D, D) there
        budget.charge(k - 1)
        pts = series.points
        ratios = [
            q if not rem else None
            for q, rem in (divmod(r * (d1 - d0), d0) for (_, d0), (r, d1) in zip(pts, pts[1:]))
        ]
        start = _run_start(ratios)
        if ratios[-1] is not None and k - start >= MIN_POINTS:
            found.append((start, ratios[-1]))
    if found:
        start, degree = min(found)
        return DegreeEstimate(degree, None, series.rs[start])
    return DegreeEstimate(None, k - 1 if bounded else None, None)


def certified_line(series: GrowthSeries, est: DegreeEstimate) -> Optional[tuple[int, int]]:
    """(slope, offset) of the line through the last two points when `est`
    certifies degree <= 1 on a series at consecutive r, else None."""
    if est.snapped is None or est.snapped > 1 or not series.consecutive:
        return None
    (_, d0), (r, d1) = series.points[-2:]
    return d1 - d0, d1 - (d1 - d0) * r
