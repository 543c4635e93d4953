"""Closed-form growth counts against their listing oracles, their budget
charges, and the claims the CLI shares with the campaigns."""

import itertools
import json
from math import comb

from hypothesis import given
from hypothesis import strategies as st

from gkbench import budget
from gkbench.campaigns import run_campaign
from gkbench.cli import main
from gkbench.cyclo import CycField
from gkbench.gammalab import rn_dim
from gkbench.qaffine import QAlgebra, dim_Vr, dim_Vr_oracle

FIELD = CycField(2, 1)


def charged(fn, *args):
    """(value, budget ops charged) of one call."""
    budget.reset()
    value = fn(*args)
    return value, budget.used()


def listed_rn_dim(pairs, degree):
    """Independent count: list every binary part and read off how many
    gamma exponents fit beside it."""
    return sum(
        max(0, degree - sum(bits) + 1)
        for bits in itertools.product((0, 1), repeat=2 * pairs)
    )


# --- budget charges ---------------------------------------------------------------


def test_dim_Vr_charges_the_monomials_it_counts():
    for n in range(1, 5):
        alg = QAlgebra(n, FIELD)
        for r in range(10):
            assert charged(dim_Vr, alg, r) == (comb(n + r, r), comb(n + r, r))
            assert charged(dim_Vr_oracle, alg, r) == (comb(n + r, r), comb(n + r, r))


def test_rn_dim_charges_the_binary_parts():
    for pairs in range(6):
        for degree in (0, 1, 2 * pairs, 3 * pairs + 5):
            assert charged(rn_dim, pairs, degree)[1] == 4**pairs


# --- closed forms against independent counts -----------------------------------------


@given(st.integers(0, 5), st.integers(0, 14))
def test_rn_dim_matches_listing(pairs, degree):
    assert rn_dim(pairs, degree) == listed_rn_dim(pairs, degree)


@given(st.integers(1, 5), st.integers(0, 14))
def test_dim_Vr_matches_oracle(n, r):
    alg = QAlgebra(n, FIELD)
    assert dim_Vr(alg, r) == dim_Vr_oracle(alg, r)


# --- one claim path for the CLI and the campaigns ---------------------------------------


def cli_records(capsys, *argv):
    assert main([*argv, "--format", "machine"]) == 0
    out = capsys.readouterr().out
    return {r["claim_id"]: r for r in map(json.loads, out.splitlines())}


def test_gamma_growth_and_step8_agree(capsys):
    cli = cli_records(capsys, "gamma", "growth", "--n", "2", "--rmax", "16")
    assert list(cli) == ["gamma.growth.slope", "gamma.growth.degree"]
    campaign = {r.claim_id: r for r in run_campaign("step8", {"n": 2, "rmax": 16})}
    slope = campaign["step8.slope.n02"].outputs
    degree = campaign["step8.degree.n02"].outputs
    for key in ("slope", "offset", "expected_slope"):
        assert cli["gamma.growth.slope"]["outputs"][key] == slope[key]
    assert cli["gamma.growth.degree"]["outputs"] == degree


def test_quantum_growth_and_lemma51_agree(capsys):
    cli = cli_records(capsys, "quantum", "growth", "--n", "3", "--rmax", "12")
    campaign = {r.claim_id: r for r in run_campaign("lemma5.1", {"n": 3, "rmax": 12})}
    assert cli["quantum.growth.degree"]["outputs"] == campaign["lemma5.1.growth"].outputs
    outputs = cli["quantum.growth.degree"]["outputs"]
    assert set(outputs) == {"degree", "raw", "expected", "note"}
    assert outputs["degree"] == "3"
