"""Every record of `verify all --format machine` is pinned, `millis` aside.

The goldens in tests/data/ hold one JSON object per record, with the timing
key removed.  A change to any claim, input, output or verdict shows up as a
diff against them.  To regenerate after a deliberate change:

    PYTHONPATH=src python tests/test_records_golden.py
"""

import json
from pathlib import Path

import pytest

from gkbench.campaigns import run_campaign
from gkbench.reports import emit_machine

DATA = Path(__file__).parent / "data"
SEEDS = (0, 5)


def golden_path(seed):
    return DATA / f"verify_all_seed{seed}.jsonl"


def stripped_lines(seed):
    """The machine records of `verify all --seed <seed>` without `millis`."""
    out = []
    for line in emit_machine(run_campaign("all", seed=seed)).splitlines():
        record = json.loads(line)
        assert type(record["millis"]) is int, line
        del record["millis"]
        out.append(json.dumps(record))
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_verify_all_reproduces_its_golden(seed):
    assert stripped_lines(seed) == golden_path(seed).read_text().splitlines()


def no_float(text):
    raise AssertionError(f"a golden record holds the float {text}")


@pytest.mark.parametrize("seed", SEEDS)
def test_golden_records_carry_no_float(seed):
    # every claim is exact arithmetic, so no record needs a float
    for line in golden_path(seed).read_text().splitlines():
        json.loads(line, parse_float=no_float, parse_constant=no_float)


if __name__ == "__main__":
    for seed in SEEDS:
        golden_path(seed).write_text("\n".join(stripped_lines(seed)) + "\n")
