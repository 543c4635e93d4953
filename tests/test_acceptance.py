"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they go.
Criteria with a stated runtime budget assert it; the whole module is sized to
finish comfortably inside two minutes on a commodity machine.
"""

import random
import time
from math import comb, factorial

from gkbench.campaigns import run_campaign
from gkbench.cyclo import CycField, tower_check
from gkbench.gammalab import (
    gamma_coeff,
    gamma_coeff_oracle,
    rn_dim_series,
)
from gkbench.growth import GrowthSeries, certified_line, degree_estimate
from gkbench.ordgroup import GroupElem
from gkbench.qaffine import QAlgebra, dim_Vr, gk_profile
from gkbench.reports import all_passed


def _report(num, name, ok, elapsed, bound=None):
    status = "PASS" if ok else "FAIL"
    budget = f" < {bound:.0f}s" if bound is not None else ""
    print(f"[acceptance] criterion {num:2d} {name}: {status} ({elapsed:.2f}s{budget})")


def _random_target(rng, power):
    support = rng.sample(range(1, 9), rng.randint(1, min(power, 4)))
    counts = [1] * len(support)
    for _ in range(power - len(support)):
        counts[rng.randrange(len(support))] += 1
    return GroupElem({i: -c for i, c in zip(support, counts)})


def test_criterion_01_gamma_factorial_and_oracle():
    t0 = time.perf_counter()
    ok = all(
        gamma_coeff(n, GroupElem({i: -1 for i in range(1, n + 1)})) == factorial(n)
        for n in range(1, 9)
    )
    rng = random.Random(1)
    agreements = 0
    queries = 500
    for _ in range(queries):
        power = rng.randint(1, 6)
        target = _random_target(rng, power)
        if rng.random() < 0.2:
            power = max(1, power - 1)  # off-grading: both sides must say 0
        if gamma_coeff(power, target) == gamma_coeff_oracle(power, target):
            agreements += 1
    ok = ok and agreements == queries
    elapsed = time.perf_counter() - t0
    _report(1, "gamma n!-witness and oracle agreement", ok, elapsed, 10)
    assert ok and elapsed < 10


def test_criterion_02_affine_slope_and_degree():
    t0 = time.perf_counter()
    ok = True
    for n in range(5):
        lo = max(1, 2 * n)
        series = GrowthSeries(rn_dim_series(n, 2 * n + 12, lo))
        est = degree_estimate(series)
        line = certified_line(series, est)
        ok = ok and line is not None and line[0] == 4**n
        if n >= 1:
            ok = ok and est.snapped == 1 and est.at_least is None
    elapsed = time.perf_counter() - t0
    _report(2, "affine model slope 4^n and degree 1", ok, elapsed, 5)
    assert ok and elapsed < 5


def test_criterion_03_quantum_dimension_and_growth():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 5):
        alg = QAlgebra(n, CycField(2, 1))
        ok = ok and all(dim_Vr(alg, r) == comb(n + r, r) for r in range(13))
        est = degree_estimate(GrowthSeries(gk_profile(alg, 12)))
        ok = ok and est.snapped == n and est.at_least is None
    elapsed = time.perf_counter() - t0
    _report(3, "sorted-monomial count and growth degree n", ok, elapsed, 30)
    assert ok and elapsed < 30


def test_criterion_04_central_powers():
    t0 = time.perf_counter()
    records = run_campaign("centrality", seed=0)
    ok = all_passed(records) and len(records) == 12
    elapsed = time.perf_counter() - t0
    _report(4, "generator powers central exactly at the root order", ok, elapsed, 10)
    assert ok and elapsed < 10


def test_criterion_05_tower_embeddings():
    t0 = time.perf_counter()
    records = run_campaign("lemma5.3", seed=0)
    ok = all_passed(records)
    swap = [r for r in records if r.claim_id == "lemma5.3.swap_rejected"]
    ok = ok and len(swap) == 1 and swap[0].outputs["failing_pair"] == [1, 2]
    elapsed = time.perf_counter() - t0
    _report(5, "power maps accepted, generator swap rejected", ok, elapsed, 10)
    assert ok and elapsed < 10


def test_criterion_06_center_equivalence():
    t0 = time.perf_counter()
    records = run_campaign("step3", {"trials": 1000}, seed=0)
    ok = all_passed(records)
    outputs = records[0].outputs
    ok = ok and outputs["agreements"] == 1000 and outputs["central_cases"] > 50
    elapsed = time.perf_counter() - t0
    _report(6, "structural and commutation centrality agree", ok, elapsed, 20)
    assert ok and elapsed < 20


def test_criterion_07_twisted_ring_axioms():
    t0 = time.perf_counter()
    records = run_campaign("ring-axioms", {"trials": 1000}, seed=0)
    ok = all_passed(records)
    by_claim = {r.claim_id: r for r in records}
    ok = ok and by_claim["ring.associativity"].outputs["passed"] == 1000
    ok = ok and by_claim["ring.distributivity"].outputs["passed"] == 1000
    ok = ok and by_claim["ring.swap_rule_powers"].outputs["all_hold"] is True
    elapsed = time.perf_counter() - t0
    _report(7, "twisted-ring axioms and sign rules", ok, elapsed)
    assert ok


def test_criterion_08_field_layer():
    t0 = time.perf_counter()
    records = run_campaign("field-axioms", {"trials": 1000}, seed=0)
    ok = all_passed(records)
    for record in records:
        if "passed" in record.outputs:
            ok = ok and record.outputs["passed"] == 1000
    elapsed = time.perf_counter() - t0
    _report(8, "field automorphism/inverse/fixed-field properties", ok, elapsed)
    assert ok


def test_criterion_09_cyclotomic_tower():
    t0 = time.perf_counter()
    ok = all(tower_check(p, t) for p, t in ((2, 1), (2, 2), (3, 1)))
    for p, t in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (11, 1)):
        field = CycField(p, t)
        if field.m <= 128:
            ok = ok and field.zeta.order() == field.m
    elapsed = time.perf_counter() - t0
    _report(9, "root-of-unity tower compatibility and primitivity", ok, elapsed)
    assert ok


def test_criterion_10_unbounded_chain_shadow():
    t0 = time.perf_counter()
    records = run_campaign("theorem6.1", seed=0)
    ok = all_passed(records)
    summary = [r for r in records if r.claim_id == "theorem6.1.strictly_increasing"]
    ok = ok and len(summary) == 1
    estimates = summary[0].outputs["estimates"]
    ok = ok and estimates == [1, 2, 3, 4]
    ok = ok and "exceeds every fixed bound" in summary[0].outputs["note"]
    elapsed = time.perf_counter() - t0
    _report(10, "degree climbs strictly along the algebra chain", ok, elapsed)
    assert ok


def test_criterion_11_rewriting_confluence():
    t0 = time.perf_counter()
    records = run_campaign("confluence", {"words": 200, "orders": 20}, seed=0)
    ok = all_passed(records) and records[0].outputs["stable"] == 200
    elapsed = time.perf_counter() - t0
    _report(11, "normal form independent of swap order", ok, elapsed)
    assert ok
