"""Named verification campaigns.

Each campaign re-checks one family of the package's headline identities.
It is a generator that yields one untimed Record per sub-check;
`run_campaign` stamps their `millis` with `reports.timed` and returns them
ordered by claim id.  Campaigns are deterministic given a seed (timings
excepted).  A campaign takes its rng and then its parameters as keywords
with defaults; that signature is the one place that knows which parameters
it reads.
"""

from __future__ import annotations

import itertools
import random
from math import factorial

from . import budget
from .cyclo import CycField, tower_check
from .gammalab import (
    gamma_coeff,
    gamma_coeff_oracle,
    independence_witness,
    rn_basis_size,
    rn_dim_series,
    rn_window,
)
from .claims import affine_claims, degree_claim, hom_claim
from .growth import GrowthSeries
from .mqfield import PrimeBasis
from .ordgroup import GroupElem
from .qaffine import (
    QAlgebra,
    central_power_check,
    dim_Vr,
    dim_Vr_oracle,
    gk_profile,
    hom_check,
    normal_form,
    normal_form_random,
    power_is_central,
    power_map_images,
)
from .reports import Record, record as _mk, timed
from .sampling import (
    random_central_twisted,
    random_fraction,
    random_mq,
    random_twisted,
    random_word,
)
from .twistring import TwistedElem


def _random_composition(rng, total: int, parts: int) -> list[int]:
    parts = max(1, min(parts, total))
    counts = [1] * parts
    for _ in range(total - parts):
        counts[rng.randrange(parts)] += 1
    return counts


# --- gamma -----------------------------------------------------------------


def _campaign_step4(rng, n=6):
    # row n of the witness holds the coefficients of x1^-1*...*xn^-1 in
    # gamma^0..gamma^n_max: n! on the diagonal, zero elsewhere
    n_max = n  # the loop below counts n up to it
    matrix = independence_witness(n_max).matrix
    for n in range(1, n_max + 1):
        target = str(GroupElem({i: -1 for i in range(1, n + 1)}))
        value = matrix[n][n]
        nonzero = sum(1 for k, v in enumerate(matrix[n]) if v and k != n)
        yield _mk(
            f"step4.n_factorial.n{n:02d}",
            {"power": n, "target": target},
            {"coefficient": value, "expected": factorial(n)},
            value == factorial(n),
        )
        yield _mk(
            f"step4.zero_offdiagonal.n{n:02d}",
            {"target": target, "powers": f"0..{n_max} except {n}"},
            {"nonzero": nonzero},
            nonzero == 0,
        )


def _campaign_step4_oracle(rng, queries=500, n=6):
    if n < 1:
        raise ValueError("degree must be at least 1")
    agree = 0
    mismatches = []
    for _ in range(queries):
        power = rng.randint(1, n)
        support = rng.sample(range(1, 9), rng.randint(1, min(power, 4)))
        if rng.random() < 0.85:
            mult = _random_composition(rng, power, len(support))
        else:
            # off-grading target: the coefficient must come out zero
            total = max(1, power + rng.choice([-1, 1]))
            mult = _random_composition(rng, total, min(len(support), total))
        support = support[: len(mult)]
        target = GroupElem({i: -m for i, m in zip(support, mult)})
        if gamma_coeff(power, target) == gamma_coeff_oracle(power, target):
            agree += 1
        elif len(mismatches) < 5:
            mismatches.append({"power": power, "target": str(target)})
    yield _mk(
        "step4.oracle_agreement",
        {"queries": queries, "max_power": n},
        {"agreements": agree, "mismatches": mismatches},
        agree == queries,
    )


def _campaign_step8(rng, n=2, rmax=None):
    r_lo, rmax = rn_window(n, rmax)
    series = GrowthSeries(rn_dim_series(n, rmax, r_lo))
    line, records = affine_claims(
        (f"step8.slope.n{n:02d}", f"step8.degree.n{n:02d}"),
        {"pairs": n, "r": f"{r_lo}..{rmax}"},
        series,
        4**n,
    )
    yield from records
    size = rn_basis_size(n)
    listed = 0  # second route: list the binary parts (e, u), one op each
    for _ in itertools.product((0, 1), repeat=2 * n):
        budget.charge()
        listed += 1
    yield _mk(
        f"step8.basis_size.n{n:02d}",
        {"pairs": n},
        {"size": size},
        size == 4**n and listed == size and (line is None or line[0] == size),
    )


# --- quantum affine ---------------------------------------------------------


def _campaign_lemma51(rng, n=3, p=2, t=1, rmax=12):
    alg = QAlgebra(n, CycField(p, t))
    mismatches = [r for r in range(rmax + 1) if dim_Vr(alg, r) != dim_Vr_oracle(alg, r)]
    inputs = {"n": n, "p": p, "t": t, "rmax": rmax}
    yield _mk(
        "lemma5.1.dim_formula",
        inputs,
        {"checked": rmax + 1, "mismatches": mismatches},
        not mismatches,
    )
    yield degree_claim("lemma5.1.growth", inputs, GrowthSeries(gk_profile(alg, rmax)), n)[1]


_CENTRALITY_GRID = ((2, 1), (2, 2), (3, 1))


def _campaign_centrality(rng):
    for p, t in _CENTRALITY_GRID:
        order = p ** (2 * t)
        for n in (2, 3):
            alg = QAlgebra(n, CycField(p, t))
            ok = all(central_power_check(alg, i) for i in range(1, n + 1))
            yield _mk(
                f"lemma5.1.central_power.p{p:02d}.t{t:02d}.n{n:02d}",
                {"p": p, "t": t, "n": n, "power": order},
                {"all_generators_central": ok},
                ok,
            )
            lows = sorted(
                {1, 2, p, p**t, p ** (2 * t - 1), order - 1} & set(range(1, order))
            )
            bad = [k for k in lows if power_is_central(alg, 1, k)]
            yield _mk(
                f"lemma5.1.noncentral.p{p:02d}.t{t:02d}.n{n:02d}",
                {"p": p, "t": t, "n": n, "powers": lows},
                {"unexpectedly_central": bad},
                not bad,
            )


def _campaign_lemma53(rng):
    for p in (2, 3):
        for t in (1, 2):
            for n in (2, 3):
                src = QAlgebra(n, CycField(p, t - 1))
                dst = QAlgebra(n, CycField(p, t))
                report = hom_check(src, dst, power_map_images(src, dst, p))
                inputs = {"p": p, "src_t": t - 1, "dst_t": t, "n": n, "map": f"x_i -> x_i^{p}"}
                yield hom_claim(f"lemma5.3.hom.p{p:02d}.t{t:02d}.n{n:02d}", inputs, report)
    alg = QAlgebra(2, CycField(2, 1))
    report = hom_check(alg, alg, [alg.generator(2), alg.generator(1)])
    inputs = {"p": 2, "t": 1, "n": 2, "map": "x1 -> x2, x2 -> x1"}
    yield hom_claim("lemma5.3.swap_rejected", inputs, report, breaks=(1, 2))


# --- twisted ring -------------------------------------------------------------


def _campaign_step3(rng, trials=1000):
    basis = PrimeBasis.first(4)
    agree = 0
    centrals = 0
    for _ in range(trials):
        if rng.random() < 0.35:
            elem = random_central_twisted(rng, basis, max_terms=5)
        else:
            elem = random_twisted(rng, basis, max_terms=5)
        by_form = elem.is_central_by_form()
        by_comm = elem.is_central_by_commutation(4)
        if by_form == by_comm:
            agree += 1
        if by_form:
            centrals += 1
    yield _mk(
        "step3.center_equivalence",
        {"trials": trials, "max_support": 5, "max_index": 4},
        {"agreements": agree, "central_cases": centrals},
        agree == trials,
    )


def _trials(claim_id: str, trials: int, check) -> Record:
    """One record counting how many of `trials` calls of check() hold."""
    good = sum(1 for _ in range(trials) if check())
    return _mk(claim_id, {"trials": trials}, {"passed": good}, good == trials)


def _campaign_ring_axioms(rng, trials=1000):
    basis = PrimeBasis.first(4)

    def associativity():
        a, b, c = (random_twisted(rng, basis) for _ in range(3))
        return (a * b) * c == a * (b * c)

    def distributivity():
        a, b, c = (random_twisted(rng, basis) for _ in range(3))
        return a * (b + c) == a * b + a * c and (a + b) * c == a * c + b * c

    yield _trials("ring.associativity", trials, associativity)
    yield _trials("ring.distributivity", trials, distributivity)

    def swap_rule(claim_id, inputs, powers):
        # x_j^n sqrt(p_i) = -sqrt(p_i) x_j^n exactly when j = i and n is odd
        ok = True
        for i in range(1, 5):
            sqrt_i = TwistedElem.from_scalar(basis.radical(i))
            for j in range(1, 5):
                for n in range(1, powers + 1):
                    xjn = TwistedElem.from_group(basis, GroupElem.generator(j, n))
                    expected = -(sqrt_i * xjn) if j == i and n % 2 else sqrt_i * xjn
                    ok = ok and (xjn * sqrt_i == expected)
        return _mk(claim_id, inputs, {"all_hold": ok}, ok)

    yield swap_rule("ring.swap_rule", {"indices": "i, j <= 4"}, 1)
    yield swap_rule("ring.swap_rule_powers", {"indices": "i, j <= 4", "powers": "n <= 6"}, 6)

    one = TwistedElem.one(basis)
    ok = True
    checks = min(trials, 200)
    for _ in range(checks):
        a = random_twisted(rng, basis)
        ok = ok and (one * a == a and a * one == a)
        g = GroupElem(
            {i: e for i, e in ((1, rng.randint(-3, 3)), (2, rng.randint(-3, 3))) if e}
        )
        x = TwistedElem.from_group(basis, g)
        xinv = TwistedElem.from_group(basis, g.inv())
        ok = ok and (x * xinv == one and xinv * x == one)
    yield _mk("ring.unit", {"trials": checks}, {"all_hold": ok}, ok)


def _campaign_field_axioms(rng, trials=1000):
    basis = PrimeBasis.first(5)
    one = basis.one()

    def automorphism():
        a, b = random_mq(rng, basis), random_mq(rng, basis)
        i = rng.randint(1, 5)
        return (a * b).apply_f(i) == a.apply_f(i) * b.apply_f(i)

    def commuting():
        a = random_mq(rng, basis)
        i, j = rng.randint(1, 5), rng.randint(1, 5)
        return a.apply_f(i).apply_f(j) == a.apply_f(j).apply_f(i)

    def involution():
        a = random_mq(rng, basis)
        i = rng.randint(1, 5)
        return a.apply_f(i).apply_f(i) == a

    def inverse():
        a = random_mq(rng, basis, nonzero=True)
        return a * a.inv() == one and a.inv() * a == one

    def fixed_field():
        if rng.random() < 0.4:
            a = basis.rational(random_fraction(rng))
        else:
            a = random_mq(rng, basis)
        return a.fixed_by_all() == all(a.apply_f(i) == a for i in range(1, 6))

    def ring_axioms():
        a, b, c = (random_mq(rng, basis) for _ in range(3))
        return a * (b + c) == a * b + a * c and (a * b) * c == a * (b * c)

    yield _trials("field.automorphism", trials, automorphism)
    yield _trials("field.commuting", trials, commuting)
    yield _trials("field.involution", trials, involution)
    yield _trials("field.inverse", trials, inverse)
    yield _trials("field.fixed_field", trials, fixed_field)
    yield _trials("field.ring_axioms", trials, ring_axioms)


# --- cyclotomic tower -----------------------------------------------------------


_PRIMITIVITY_GRID = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (11, 1))


def _campaign_tower(rng):
    for p, t in _CENTRALITY_GRID:
        ok = tower_check(p, t)
        yield _mk(f"tower.compat.p{p:02d}.t{t:02d}", {"p": p, "t": t}, {"compatible": ok}, ok)
    for p, t in _PRIMITIVITY_GRID:
        m = p ** (2 * t)
        order = CycField(p, t).zeta.order()
        yield _mk(
            f"tower.primitivity.p{p:02d}.t{t:02d}",
            {"p": p, "t": t, "m": m},
            {"order": order},
            order == m,
        )


# --- unbounded chain --------------------------------------------------------------


def _campaign_theorem61(rng, p=2, t=1, rmax=12):
    estimates = []
    for n in range(1, 5):
        alg = QAlgebra(n, CycField(p, t))
        est, record = degree_claim(
            f"theorem6.1.degree.n{n:02d}",
            {"n": n, "p": p, "t": t, "rmax": rmax},
            GrowthSeries(gk_profile(alg, rmax)),
            n,
        )
        estimates.append(est.snapped)
        yield record
    ok = all(isinstance(e, int) for e in estimates) and all(
        a < b for a, b in zip(estimates, estimates[1:])
    )
    yield _mk(
        "theorem6.1.strictly_increasing",
        {"chain": "n = 1..4"},
        {
            "estimates": estimates,
            "note": (
                "each stage of the nested-algebra chain adds a generator and "
                "its growth degree rises with it, so the degree along the "
                "full chain exceeds every fixed bound"
            ),
        },
        ok,
    )


# --- rewriting ---------------------------------------------------------------------


def _campaign_confluence(rng, words=200, orders=20):
    algebras = [
        QAlgebra(n, CycField(p, t))
        for n in range(1, 5)
        for p, t in ((2, 1), (3, 1), (2, 2))
    ]
    stable = 0
    for _ in range(words):
        alg = rng.choice(algebras)
        word = random_word(rng, alg, max_len=8)
        # three routes: the inversion count, the rewriter in random orders,
        # and the closed-form QPoly product of the word's generators
        reference = normal_form(word)
        closed = alg.scalar(word.scalar)
        for i in word.indices:
            closed = closed * alg.generator(i)
        if (
            all(normal_form_random(word, rng) == reference for _ in range(orders))
            and closed == reference
        ):
            stable += 1
    yield _mk(
        "confluence.random_swap_orders",
        {"words": words, "orders": orders, "max_len": 8},
        {"stable": stable},
        stable == words,
    )


# --- registry ------------------------------------------------------------------------


_CAMPAIGNS = {
    "step4": _campaign_step4,
    "step4-oracle": _campaign_step4_oracle,
    "step8": _campaign_step8,
    "lemma5.1": _campaign_lemma51,
    "centrality": _campaign_centrality,
    "lemma5.3": _campaign_lemma53,
    "step3": _campaign_step3,
    "ring-axioms": _campaign_ring_axioms,
    "field-axioms": _campaign_field_axioms,
    "tower": _campaign_tower,
    "theorem6.1": _campaign_theorem61,
    "confluence": _campaign_confluence,
}


def campaign_names() -> list[str]:
    return sorted(_CAMPAIGNS) + ["all"]


def _parameters(fn) -> tuple:
    """The parameter names a campaign takes after its rng (read from its code
    object: inspect is too heavy for the CLI's import path)."""
    code = fn.__code__
    return code.co_varnames[1 : code.co_argcount]


def run_campaign(name: str, params=None, seed: int = 0) -> list[Record]:
    """Run the named campaign deterministically under the given seed and
    return its timed records ordered by claim id.  A named campaign rejects a
    parameter it does not take; `all` hands each campaign the ones it takes."""
    params = dict(params or {})
    if name == "all":
        chosen = [_CAMPAIGNS[key] for key in sorted(_CAMPAIGNS)]
    else:
        fn = _CAMPAIGNS.get(name)
        if fn is None:
            raise ValueError(
                f"unknown campaign {name!r}; known: {', '.join(campaign_names())}"
            )
        for key in params:
            if key not in _parameters(fn):
                raise ValueError(f"campaign {name!r} takes no parameter {key!r}")
        chosen = [fn]
    records = []
    for fn in chosen:
        taken = _parameters(fn)
        kwargs = {k: v for k, v in params.items() if k in taken}
        records.extend(timed(fn(random.Random(seed), **kwargs)))
    return sorted(records, key=lambda r: r.claim_id)
