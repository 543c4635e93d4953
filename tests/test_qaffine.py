"""Quantum affine spaces: rewriting, products, dimension counts, centrality,
and the homomorphism verifier."""

import random
import tracemalloc
from math import comb

import pytest

from gkbench import budget
from gkbench.campaigns import _CENTRALITY_GRID, run_campaign
from gkbench.cyclo import CycField
from gkbench.qaffine import (
    FreeWord,
    QAlgebra,
    QPoly,
    central_power_check,
    dim_Vr,
    dim_Vr_oracle,
    embed_root,
    gk_profile,
    hom_check,
    normal_form,
    normal_form_random,
    power_is_central,
    power_map_images,
)
from gkbench.growth import GrowthSeries, degree_estimate
from gkbench.sampling import random_word
from qsampling import random_qpoly

ALG = QAlgebra(2, CycField(2, 1))  # q = zeta_4
Q_INV = ALG.field.zeta.inv()


def test_normal_form_single_swap():
    # x2*x1 -> q^-1 * x1*x2, and q^-1 = -zeta_4
    nf = normal_form(ALG.word([2, 1]))
    assert nf == QPoly(ALG, {(1, 1): Q_INV})
    assert str(nf) == "-z*x1*x2"


def test_word_with_a_zero_scalar_is_zero():
    word = ALG.word([2, 1], ALG.field.zero())
    assert word.scalar == ALG.field.zero()
    assert normal_form(word) == ALG.zero()
    assert ALG.word([2, 1]).scalar == ALG.field.one()


def test_normal_form_sorted_word_unchanged():
    nf = normal_form(ALG.word([1, 2]))
    assert nf == QPoly(ALG, {(1, 1): ALG.field.one()})


def test_normal_form_three_letters():
    nf = normal_form(ALG.word([2, 1, 2]))
    assert nf == QPoly(ALG, {(1, 2): Q_INV})


def test_normal_form_confluence_random_orders():
    rng = random.Random(2024)
    algebras = [
        QAlgebra(n, CycField(p, t))
        for n in range(1, 5)
        for p, t in ((2, 1), (3, 1), (2, 2))
    ]
    for _ in range(60):
        alg = rng.choice(algebras)
        word = random_word(rng, alg, max_len=8)
        reference = normal_form(word)
        for _ in range(20):
            assert normal_form_random(word, rng) == reference


def test_random_order_rewrite_charges_the_budget():
    # an 8-letter word charges 64 ops in either order, far past a cap of 10
    saved = budget.cap()
    budget.set_cap(10)
    try:
        with pytest.raises(budget.WorkBudgetExceeded):
            normal_form_random(ALG.word([2, 1] * 4), random.Random(0))
        budget.reset()
        with pytest.raises(budget.WorkBudgetExceeded):
            normal_form(ALG.word([2, 1] * 4))
    finally:
        budget.set_cap(saved)


def test_confluence_campaign_checks_the_closed_form_product(monkeypatch):
    assert run_campaign("confluence")[0].verdict == "pass"
    reversed_mul = QPoly.__mul__
    monkeypatch.setattr(QPoly, "__mul__", lambda a, b: reversed_mul(b, a))
    (record,) = run_campaign("confluence")
    assert record.verdict == "fail" and record.outputs["stable"] < 200


def test_mul_examples():
    x1, x2 = ALG.generator(1), ALG.generator(2)
    assert x1 * x2 == QPoly(ALG, {(1, 1): ALG.field.one()})
    assert x2 * x1 == QPoly(ALG, {(1, 1): Q_INV})
    product = (x1 + x2) * (x1 - x2)
    expected = QPoly(
        ALG,
        {
            (2, 0): ALG.field.one(),
            (1, 1): Q_INV - ALG.field.one(),
            (0, 2): -ALG.field.one(),
        },
    )
    assert product == expected


def test_mul_associative_on_randoms():
    rng = random.Random(5150)
    for _ in range(60):
        a = random_qpoly(rng, ALG)
        b = random_qpoly(rng, ALG)
        c = random_qpoly(rng, ALG)
        assert (a * b) * c == a * (b * c)


def test_scalars_are_central():
    rng = random.Random(88)
    s = ALG.scalar(ALG.field.zeta + ALG.field.rational(2))
    for _ in range(30):
        f = random_qpoly(rng, ALG)
        assert s * f == f * s


def test_algebra_mismatch():
    other = QAlgebra(2, CycField(3, 1))
    with pytest.raises(ValueError):
        ALG.one() * other.one()


def test_dim_examples():
    assert dim_Vr(QAlgebra(1, CycField(2, 1)), 5) == 6
    assert dim_Vr(ALG, 2) == 6
    assert dim_Vr(QAlgebra(3, CycField(2, 1)), 4) == 35
    for count in (dim_Vr, dim_Vr_oracle):
        with pytest.raises(ValueError, match="degree bound must be nonnegative"):
            count(ALG, -1)


def test_dim_matches_binomial():
    for n in range(1, 5):
        alg = QAlgebra(n, CycField(2, 1))
        for r in range(13):
            assert dim_Vr(alg, r) == comb(n + r, r)


def test_gk_profile_degrees():
    for n in (1, 2, 4):
        alg = QAlgebra(n, CycField(2, 1))
        est = degree_estimate(GrowthSeries(gk_profile(alg, 12)))
        assert est.snapped == n and est.at_least is None


def test_central_power_examples():
    assert central_power_check(ALG, 1)
    assert not power_is_central(ALG, 1, 2)
    assert power_is_central(QAlgebra(1, CycField(2, 1)), 1, 1)
    for i in (0, 3):
        with pytest.raises(IndexError, match=rf"generator index {i} outside 1\.\.2"):
            power_is_central(ALG, i, 4)
    with pytest.raises(ValueError, match="power must be nonnegative"):
        power_is_central(ALG, 1, -4)


def test_central_powers_across_configurations():
    for p, t in ((2, 1), (2, 2), (2, 3), (3, 1)):
        order = p ** (2 * t)
        assert order <= 64
        alg = QAlgebra(2, CycField(p, t))
        for i in (1, 2):
            assert central_power_check(alg, i)
        for k in (1, p, order - 1):
            if 0 < k < order:
                assert not power_is_central(alg, 1, k)


def _central_by_products(alg, i, k):
    """The product sweep: x_j * x_i**k == x_i**k * x_j for every generator."""
    xk = alg.generator(i, k)
    return all(alg.generator(j) * xk == xk * alg.generator(j) for j in range(1, alg.n + 1))


@pytest.mark.parametrize("p, t", _CENTRALITY_GRID)
def test_power_is_central_matches_the_product_sweep(p, t):
    field = CycField(p, t)
    for n in range(1, 5):
        alg = QAlgebra(n, field)
        for i in range(1, n + 1):
            for k in range(2 * field.m):
                assert power_is_central(alg, i, k) == _central_by_products(alg, i, k), (n, i, k)


def test_centrality_campaign_makes_no_qpoly_product(monkeypatch):
    calls = []
    real = QPoly.__mul__
    monkeypatch.setattr(QPoly, "__mul__", lambda a, b: calls.append(1) or real(a, b))
    assert _central_by_products(ALG, 1, 2) is False and calls  # the spy sees products
    calls.clear()
    records = run_campaign("centrality")
    assert len(records) == 12 and all(r.verdict == "pass" for r in records)
    assert calls == []


def test_hom_check_power_maps():
    for p in (2, 3):
        for t in (1, 2):
            for n in (2, 3):
                src = QAlgebra(n, CycField(p, t - 1))
                dst = QAlgebra(n, CycField(p, t))
                report = hom_check(src, dst, power_map_images(src, dst, p))
                assert report.ok, (p, t, n)


def test_hom_check_identity_map():
    report = hom_check(ALG, ALG, [ALG.generator(1), ALG.generator(2)])
    assert report.ok


def test_hom_check_rejects_generator_swap():
    report = hom_check(ALG, ALG, [ALG.generator(2), ALG.generator(1)])
    assert not report.ok
    assert report.failing_pair == (1, 2)
    assert report.defect is not None and not report.defect.is_zero()


def test_hom_check_rejects_literal_stage_shift():
    # the candidate "identity on x1..x_{n-1}, x_n -> x_{n+1}^p" does not
    # preserve the mixed relations, so the verifier must reject it
    src = QAlgebra(2, CycField(2, 1))
    dst = QAlgebra(3, CycField(2, 1))
    images = [dst.generator(1), dst.generator(3, 2)]
    report = hom_check(src, dst, images)
    assert not report.ok


def test_embed_root():
    lower, upper = CycField(2, 1), CycField(2, 2)
    image = embed_root(lower, upper)
    assert image == upper.zeta**4
    assert image.order() == 4
    assert embed_root(lower, lower) == lower.zeta
    with pytest.raises(ValueError):
        embed_root(upper, lower)
    with pytest.raises(ValueError):
        embed_root(CycField(3, 1), upper)


def test_algebras_and_embedded_roots_charge_nothing():
    # zeta is primitive by construction; its order is the tower campaign's
    # check, not something every algebra re-proves by powering
    field = CycField(2, 6)
    budget.reset()
    alg = QAlgebra(2, field)
    image = embed_root(CycField(2, 3), field)
    assert budget.used() == 0
    assert alg.field.zeta * alg.field.zeta.inv() == field.one()
    assert image == field.zeta ** (2**6)
    assert embed_root(CycField(2, 0), field) == field.one()
    # a generator count, or the exponents of power-map images, past the cap
    # is refused before anything is built, and charges nothing either
    saved = budget.cap()
    budget.set_cap(100)
    try:
        assert QAlgebra(100, field).n == 100
        with pytest.raises(budget.WorkBudgetExceeded,
                           match=r"^generator count 101 \(exponents per monomial\) exceeds the operation budget 100 "):
            QAlgebra(101, field)
        ten = QAlgebra(10, field)
        assert power_map_images(ten, ten, 2) == [ten.generator(i, 2) for i in range(1, 11)]
        with pytest.raises(budget.WorkBudgetExceeded,
                           match=r"^image size 110 \(10 generator images of 11 exponents\) exceeds "):
            power_map_images(ten, QAlgebra(11, field), 2)
        assert budget.used() == 0
    finally:
        budget.set_cap(saved)


def test_building_an_algebra_does_not_grow_with_the_field_degree():
    # a field is its (p, t) and its levels, an algebra its n and its field;
    # at t = 10 the degree is 2**19
    tracemalloc.start()
    try:
        QAlgebra(2, CycField(2, 10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_hom_check_validation():
    with pytest.raises(ValueError):
        hom_check(ALG, ALG, [ALG.generator(1)])
    other = QAlgebra(2, CycField(2, 2))
    with pytest.raises(ValueError):
        hom_check(ALG, other, [ALG.generator(1), ALG.generator(2)])
    with pytest.raises(ValueError, match="destination has fewer generators than the source"):
        power_map_images(QAlgebra(3, ALG.field), ALG, 2)


def test_word_validation():
    with pytest.raises(IndexError):
        ALG.word([3])
    with pytest.raises(ValueError):
        ALG.generator(1, -1)
    with pytest.raises(IndexError):
        ALG.generator(0)
    with pytest.raises(ValueError, match="need at least one generator"):
        QAlgebra(0, ALG.field)
    one, foreign = ALG.field.one(), CycField(3, 1).one()
    with pytest.raises(ValueError, match="exponent vector has length 3, expected 2"):
        QPoly(ALG, {(1, 0, 0): one})
    with pytest.raises(ValueError, match="exponents must be nonnegative"):
        QPoly(ALG, {(1, -1): one})
    with pytest.raises(ValueError, match="coefficient outside the algebra's field"):
        QPoly(ALG, {(1, 0): foreign})
    with pytest.raises(ValueError, match="scalar outside the algebra's field"):
        ALG.generator(1).scale(foreign)
    with pytest.raises(ValueError, match="scalar outside the algebra's field"):
        ALG.word([1], foreign)


def test_str_rendering():
    poly = ALG.generator(1, 2) - ALG.generator(2).scale(ALG.field.zeta)
    assert str(poly) == "x1^2 - z*x2"
    assert str(ALG.zero()) == "0"
    word = ALG.word([2, 1], ALG.field.zeta)
    assert repr(word) == "FreeWord((z)*x2*x1)" and repr(ALG.word([])) == "FreeWord((1)*1)"
    assert word == FreeWord(ALG, (2, 1), ALG.field.zeta)
    assert word != ALG.word([1, 2], ALG.field.zeta) and word != ALG.word([2, 1]) and word != (2, 1)
