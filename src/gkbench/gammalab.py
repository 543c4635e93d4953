"""Coefficient extraction for powers of gamma = x1^-1 + x2^-1 + ... and the
monomial count behind the affine growth model built on gamma, the radicals,
and the group generators.

gamma itself has infinite support and is never materialized.  Every question
asked here concerns the coefficient of one group element in gamma**n, which
only ordered n-tuples of inverse generators can reach; the coefficients of
gamma are rational, so the twist plays no role and the count is a plain
multinomial.  An exhaustive tuple enumeration is kept alongside the closed
form as an independent oracle.  The independence witness charges the
budget for its whole matrix before building it, and the `step4` campaign
reads its verdicts from that matrix.

The monomial count `rn_dim` is a closed form too.  It admits its 4**pairs
binary parts from the exponent, then charges one op per part, as the listing
it replaced did; the test suite keeps that listing as its oracle.
"""

from __future__ import annotations

import itertools
from math import comb, factorial
from typing import NamedTuple

from .ordgroup import GroupElem
from . import budget

ORACLE_MAX_POWER = 10
ORACLE_MAX_TUPLES = 2_000_000


def _target_multiplicities(target: GroupElem) -> dict[int, int]:
    mult = {}
    for i, e in target.exps.items():
        if e > 0:
            raise ValueError(
                "target must have nonpositive exponents (it should be a "
                "product of inverse generators)"
            )
        mult[i] = -e
    return mult


def gamma_coeff(power: int, target: GroupElem) -> int:
    """Exact coefficient of `target` in gamma**power.

    Writing target = prod x_j**(-m_j): the coefficient is the multinomial
    power! / prod m_j! when sum m_j == power, and 0 otherwise.  The budget
    is charged first: power products, each on numbers below power**power.
    """
    if power < 0:
        raise ValueError("power must be nonnegative")
    mult = _target_multiplicities(target)
    if sum(mult.values()) != power:
        return 0
    budget.charge(power * (power * power.bit_length() // 64 + 1))
    coeff = factorial(power)
    for m in mult.values():
        coeff //= factorial(m)
    return coeff


def gamma_coeff_oracle(power: int, target: GroupElem) -> int:
    """Independent count of the same coefficient: enumerate every ordered
    tuple (j_1, ..., j_power) over the target's support and count those whose
    inverse generators multiply to the target."""
    if power < 0:
        raise ValueError("power must be nonnegative")
    if power > ORACLE_MAX_POWER:
        raise ValueError(f"enumeration bound exceeded: power > {ORACLE_MAX_POWER}")
    mult = _target_multiplicities(target)
    indices = sorted(mult)
    if power == 0:
        return 1 if not indices else 0
    if not indices:
        return 0
    total = len(indices) ** power
    if total > ORACLE_MAX_TUPLES:
        raise ValueError(
            f"enumeration bound exceeded: {total} tuples > {ORACLE_MAX_TUPLES}"
        )
    budget.charge(total)
    count = 0
    for tup in itertools.product(indices, repeat=power):
        tally = {}
        for j in tup:
            tally[j] = tally.get(j, 0) + 1
        if tally == mult:
            count += 1
    return count


class IndependenceWitness(NamedTuple):
    """Triangularity witness for the powers of gamma up to a degree.

    matrix[n][k] is the coefficient of x1^-1 * ... * xn^-1 (the identity for
    n = 0) in gamma**k, for 0 <= n, k <= degree.  The matrix is diagonal with
    n! on the diagonal, so a vanishing rational combination of gamma-powers
    forces every coefficient to zero, highest first.
    """

    degree: int
    matrix: tuple[tuple[int, ...], ...]
    diagonal: tuple[int, ...]
    independent: bool
    trace: tuple[str, ...]


def independence_witness(degree: int) -> IndependenceWitness:
    """The witness up to `degree` (at least 1).  The budget is charged
    (degree + 1) * degree * (degree + 1) // 2 ops first: one per target
    exponent that each of the degree + 1 columns reads."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    budget.charge((degree + 1) * degree * (degree + 1) // 2)
    targets = [
        GroupElem({i: -1 for i in range(1, n + 1)}) for n in range(degree + 1)
    ]
    matrix = tuple(
        tuple(gamma_coeff(k, targets[n]) for k in range(degree + 1))
        for n in range(degree + 1)
    )
    diagonal = tuple(matrix[n][n] for n in range(1, degree + 1))
    ok = all(
        matrix[n][k] == (factorial(n) if k == n else 0)
        for n in range(degree + 1)
        for k in range(degree + 1)
    )
    trace = []
    for n in range(degree, 0, -1):
        trace.append(
            f"coefficient of {targets[n]} reads a_{n} * {factorial(n)} = 0, "
            f"so a_{n} = 0"
        )
    trace.append("coefficient of e reads a_0 = 0")
    verdict = "independent" if ok else "inconclusive"
    trace.append(f"verdict: {verdict}")
    return IndependenceWitness(degree, matrix, diagonal, ok, tuple(trace))


def rn_dim(pairs: int, degree: int) -> int:
    """Number of normal-form monomials

        gamma**a * sqrt(p_1)**e_1 ... sqrt(p_n)**e_n * x_1**u_1 ... x_n**u_n

    with binary e, u (squares of the radicals and of the group generators are
    central scalars) and total weight a + |e| + |u| <= degree.  Closed form:
    C(2n, w) binary parts have weight w, each admitting the gamma exponents
    0..degree-w.  The budget is charged for the 4**pairs binary parts counted,
    admitted from its bit length before 4**pairs is formed.
    """
    if pairs < 0 or degree < 0:
        raise ValueError("pairs and degree must be nonnegative")
    budget.admit_bits(2 * pairs, f"the count of 4^{pairs} binary parts")
    budget.charge(4**pairs)
    return sum(
        comb(2 * pairs, w) * (degree - w + 1) for w in range(min(2 * pairs, degree) + 1)
    )


def rn_basis_size(pairs: int) -> int:
    """Size of the binary monomial family sqrt(p)**e * x**u: 4**pairs."""
    if pairs < 0:
        raise ValueError("pairs must be nonnegative")
    return 4**pairs


def rn_window(pairs: int, r_max: int | None = None) -> tuple[int, int]:
    """The (r_min, r_max) range that `verify step8` and `gamma growth` fit:
    from r = max(1, 2n), where every binary part has entered the count and
    rn_dim grows affinely, to r_max (default 2n + 12).  The fit needs
    growth.MIN_POINTS points, so a shorter r_max raises ValueError."""
    from .growth import check_fit_window  # imported here: `gamma coeff` and `witness` never fit

    r_min = max(1, 2 * pairs)
    r_max = 2 * pairs + 12 if r_max is None else r_max
    check_fit_window(r_min, r_max, f" for n = {pairs}")
    return r_min, r_max


def rn_dim_series(pairs: int, r_max: int, r_min: int = 1) -> list[tuple[int, int]]:
    """The (r, rn_dim(pairs, r)) sequence, ready for the growth estimators."""
    if r_min < 1 or r_max < r_min:
        raise ValueError("need 1 <= r_min <= r_max")
    return [(r, rn_dim(pairs, r)) for r in range(r_min, r_max + 1)]
