"""Closed-form growth counts against their listing oracles, their budget
charges, and the claims the CLI shares with the campaigns (growth degrees,
ring maps, the Step-4 witness)."""

import itertools
import json
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gkbench import budget, campaigns
from gkbench.campaigns import hom_claim, run_campaign
from gkbench.cli import main
from gkbench.cyclo import CycField
from gkbench.gammalab import gamma_coeff, rn_dim
from gkbench.ordgroup import GroupElem
from gkbench.qaffine import QAlgebra, dim_Vr, dim_Vr_oracle, hom_check

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


def test_rn_dim_past_the_cap_is_refused_from_its_bit_length():
    # 4**pairs past the cap is refused, charging nothing, before it is formed
    saved = budget.cap()
    try:
        for cap in (15, 16, 63, 64):
            budget.set_cap(cap)
            for pairs in range(4):
                if 4**pairs <= cap:
                    assert charged(rn_dim, pairs, 3)[1] == 4**pairs
                else:
                    refusal = rf"^the count of 4\^{pairs} binary parts exceeds the operation budget {cap} "
                    with pytest.raises(budget.WorkBudgetExceeded, match=refusal):
                        charged(rn_dim, pairs, 3)
                    assert budget.used() == 0
        budget.set_cap(budget.DEFAULT_CAP)
        with pytest.raises(budget.WorkBudgetExceeded, match=r"^the count of 4\^1000000000 binary"):
            rn_dim(10**9, 2 * 10**9)
    finally:
        budget.set_cap(saved)


@given(st.one_of(st.none(), st.integers(0, 2**80)), st.data())
def test_admission_refuses_exactly_past_the_cap_and_charges_nothing(cap, data):
    # admit(cost) refuses when cost > cap, admit_bits(bits) when 2**bits > cap,
    # an unset cap (None) admits everything, and neither charges; the draws
    # cluster at the boundary
    near = 0 if cap is None else cap
    cost = data.draw(st.integers(near - 2, near + 2) | st.integers(-5, 2**81))
    edge = near.bit_length()
    bits = data.draw(st.integers(max(0, edge - 2), edge + 2) | st.integers(0, 90))
    saved = budget.cap()
    budget.set_cap(cap)
    try:
        for admit, size, arg in ((budget.admit, cost, cost), (budget.admit_bits, 2**bits, bits)):
            if cap is not None and size > cap:
                message = f"^the work exceeds the operation budget {cap} \\(raise WORKBENCH_MAX_OPS "
                with pytest.raises(budget.WorkBudgetExceeded, match=message):
                    admit(arg, "the work")
            else:
                admit(arg, "the work")
            assert budget.used() == 0
    finally:
        budget.set_cap(saved)


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
    assert set(outputs) == {"degree", "expected", "note"}
    assert outputs["degree"] == "3"


def test_step8_lists_the_binary_family():
    # rn_dim charges 4**2 for each r in 4..16; the listing adds one op per
    # part; the degree walk charges its first two rows, 13 and 12 values
    # (the first differences are constant, so the walk ends there)
    budget.reset()
    run_campaign("step8")
    assert budget.used() == 13 * 16 + 16 + 13 + 12


def old_step4_records(n_max):
    """The per-entry loop the step4 campaign ran before it read the witness,
    kept as the reference: one gamma_coeff call per matrix entry."""
    out = []
    for n in range(1, n_max + 1):
        target = GroupElem({i: -1 for i in range(1, n + 1)})
        value = gamma_coeff(n, target)
        out.append(
            (
                f"step4.n_factorial.n{n:02d}",
                {"power": n, "target": str(target)},
                {"coefficient": value, "expected": factorial(n)},
                "pass" if value == factorial(n) else "fail",
            )
        )
        others = [gamma_coeff(k, target) for k in range(n_max + 1) if k != n]
        nonzero = sum(1 for v in others if v)
        out.append(
            (
                f"step4.zero_offdiagonal.n{n:02d}",
                {"target": str(target), "powers": f"0..{n_max} except {n}"},
                {"nonzero": nonzero},
                "pass" if nonzero == 0 else "fail",
            )
        )
    return sorted(out, key=lambda r: r[0])


def test_step4_reads_the_witness_as_the_per_entry_loop_did(monkeypatch):
    expected = {n_max: old_step4_records(n_max) for n_max in range(1, 9)}

    def no_second_route(*args):
        raise AssertionError("step4 computes its entries itself")

    # the campaign reads the witness's matrix; it calls no gamma_coeff of its own
    monkeypatch.setattr(campaigns, "gamma_coeff", no_second_route)
    for n_max in range(1, 9):
        records = run_campaign("step4", {"n": n_max})
        got = [(r.claim_id, r.inputs, r.outputs, r.verdict) for r in records]
        assert got == expected[n_max], n_max


def test_hom_check_and_lemma53_share_one_record_shape(capsys):
    cli = cli_records(capsys, "quantum", "hom-check", "--n", "2", "--p", "2", "--t", "1")
    campaign = {r.claim_id: r for r in run_campaign("lemma5.3")}
    homs = [r for r in campaign.values() if r.claim_id.startswith("lemma5.3.hom.")]
    assert len(homs) == 8
    for record in homs:
        assert record.outputs == {"ok": True, "failing_pair": [], "defect": None}
    assert cli["quantum.hom_check"]["outputs"] == campaign["lemma5.3.hom.p02.t01.n02"].outputs
    swap = campaign["lemma5.3.swap_rejected"]
    assert set(swap.outputs) == {"ok", "failing_pair", "defect"} and swap.passed


def test_theorem61_degrees_go_through_degree_claim():
    records = {r.claim_id: r for r in run_campaign("theorem6.1")}
    for n in range(1, 5):
        record = records[f"theorem6.1.degree.n{n:02d}"]
        assert set(record.outputs) == {"degree", "expected", "note"}
        assert record.outputs["degree"] == str(n) and record.passed
    assert records["theorem6.1.strictly_increasing"].outputs["estimates"] == [1, 2, 3, 4]


def test_hom_claim_checks_the_named_relation():
    alg = QAlgebra(3, FIELD)
    x1, x2 = alg.generator(1), alg.generator(2)
    report = hom_check(alg, alg, [x1, x2, x1])  # keeps (1,2), breaks (1,3)
    assert report.failing_pair == (1, 3)
    assert not hom_claim("c", {}, report).passed
    assert not hom_claim("c", {}, report, breaks=(1, 2)).passed
    assert hom_claim("c", {}, report, breaks=(1, 3)).passed
    identity = hom_check(alg, alg, [x1, x2, alg.generator(3)])
    assert hom_claim("c", {}, identity).passed
    assert not hom_claim("c", {}, identity, breaks=(1, 2)).passed
