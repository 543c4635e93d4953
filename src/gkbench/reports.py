"""Verification report records, their timing and their two output formats.

A record is one sub-check: claim id, inputs, outputs, verdict, timing.
Campaigns and subcommands yield untimed records (`record`); `timed` is the
one place that stamps their `millis`.  Machine format is JSON Lines with
exactly the keys claim_id, inputs, outputs, verdict, millis (one object per
line; an empty stream renders as an empty document).  Human format is an
aligned table.  Both write an integer past the interpreter's digit limit in
full, through `ringops.int_text`; the machine format as a bare JSON number.
The record schema is versioned by REPORT_SCHEMA.
"""

from __future__ import annotations

import json
import time
from typing import NamedTuple

REPORT_SCHEMA = 1

PASS = "pass"
FAIL = "fail"


class Record(NamedTuple):
    claim_id: str
    inputs: dict
    outputs: dict
    verdict: str
    millis: int | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == PASS


def record(claim_id: str, inputs: dict, outputs: dict, ok: bool) -> Record:
    """An untimed record that passes when `ok` holds."""
    return Record(claim_id, inputs, outputs, PASS if ok else FAIL)


def timed(stream):
    """Yield the records of `stream`, stamping each untimed one with the
    milliseconds the stream ran since the previous record.  The stamps are
    differences of cumulative whole milliseconds, so the records of one
    stream add up to its time.  A record that has its millis keeps them."""
    start = time.perf_counter()
    last = 0
    for rec in stream:
        now = int((time.perf_counter() - start) * 1000)
        if rec.millis is None:
            rec = rec._replace(millis=now - last)
        last = now
        yield rec


def all_passed(records) -> bool:
    return all(r.passed for r in records)


def emit(records, fmt: str) -> str:
    if fmt == "machine":
        return emit_machine(records)
    if fmt == "human":
        return emit_human(records)
    raise ValueError(f"unknown format {fmt!r}; pick 'human' or 'machine'")


def _json(value) -> str:
    """json.dumps(value, default=str), writing an int past the interpreter's
    digit limit, which json.dumps refuses, itself."""
    try:
        return json.dumps(value, default=str)
    except ValueError:
        if isinstance(value, dict):
            return "{" + ", ".join(f"{json.dumps(k)}: {_json(v)}" for k, v in value.items()) + "}"
        if isinstance(value, (list, tuple)):
            return "[" + ", ".join(map(_json, value)) + "]"
        from .ringops import int_text

        return int_text(value)


def emit_machine(records) -> str:
    lines = []
    for rec in records:
        lines.append(
            _json(
                {
                    "claim_id": rec.claim_id,
                    "inputs": rec.inputs,
                    "outputs": rec.outputs,
                    "verdict": rec.verdict,
                    "millis": rec.millis,
                }
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def _compact(mapping: dict) -> str:
    return " ".join(f"{k}={_short(v)}" for k, v in mapping.items())


def _short(value) -> str:
    try:
        text = str(value)
    except ValueError:  # an int past the digit limit
        from .ringops import int_text

        text = int_text(value)
    return text if len(text) <= 48 else text[:45] + "..."


def emit_human(records) -> str:
    records = list(records)
    if not records:
        return "no records\n"
    rows = [
        (r.claim_id, r.verdict.upper(), str(r.millis), _compact(r.inputs), _compact(r.outputs))
        for r in records
    ]
    headers = ("claim", "verdict", "ms", "inputs", "outputs")
    widths = [
        max(len(headers[c]), max(len(row[c]) for row in rows)) for c in range(5)
    ]
    lines = []
    lines.append("  ".join(h.ljust(widths[c]) for c, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[c] for c in range(5)))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)))
    failed = sum(1 for r in records if not r.passed)
    lines.append(f"{len(records)} records, {failed} failed")
    return "\n".join(lines) + "\n"
