"""Claim records that the campaigns and the CLI subcommands both emit.

The records are untimed; the stream that yields them is stamped by
`reports.timed`."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .reports import Record, record as _mk

if TYPE_CHECKING:
    from .growth import GrowthSeries


# degree estimates are taken over one generating subspace (1 plus the
# generators); for the finitely generated algebras here that single choice
# already determines the growth degree
_SUBSPACE_NOTE = (
    "degree measured on the span of 1 and the generators; a single "
    "generating subspace suffices for these finitely generated algebras"
)


def degree_claim(claim_id: str, inputs: dict, series: GrowthSeries, expected: int):
    """(estimate, record): the record claiming that `series` grows with
    degree `expected`."""
    from .growth import degree_estimate  # imported here: `hom_claim` never estimates

    est = degree_estimate(series)
    return est, _mk(
        claim_id,
        inputs,
        {
            "degree": est.label,
            "expected": expected,
            "note": _SUBSPACE_NOTE,
        },
        est.snapped == expected,
    )


def affine_claims(ids: tuple[str, str], inputs: dict, series: GrowthSeries, slope: int):
    """(line, records): the records claiming that `series` is eventually
    slope * r + offset and that its degree is 1, under the two claim ids;
    the line is the one the degree's certificate reads."""
    from .growth import certified_line  # imported here, as in `degree_claim`

    est, degree_record = degree_claim(ids[1], inputs, series, 1)
    line = certified_line(series, est)
    outputs = {**line_outputs(line), "expected_slope": slope}
    return line, [_mk(ids[0], inputs, outputs, outputs["slope"] == slope), degree_record]


def line_outputs(line) -> dict:
    """The slope and offset of a `growth.certified_line`, or "nonlinear"."""
    slope, offset = line or ("nonlinear", None)
    return {"slope": slope, "offset": offset}


def hom_claim(claim_id: str, inputs: dict, report, breaks=None) -> Record:
    """The record of a hom_check report: it passes when the map is a ring
    map or, given `breaks`, when the map fails exactly on that relation."""
    defect = str(report.defect) if report.defect else None
    outputs = {"ok": report.ok, "failing_pair": list(report.failing_pair or ()), "defect": defect}
    ok = report.ok if breaks is None else not report.ok and report.failing_pair == breaks
    return _mk(claim_id, inputs, outputs, ok)
