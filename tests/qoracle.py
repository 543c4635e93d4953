"""The quantum-affine product written the direct way: one field product, one
`times_zeta` and one sum per term pair.  It is the reference that the packed
product of `QPoly` is tested against; every result drops its zero terms."""

from operator import add

from gkbench import budget
from gkbench.qaffine import QPoly


def crossings(e, f) -> int:
    """sum_{i>j} e_i f_j: the swaps that sort x^e x^f."""
    return sum(e[i] * f[j] for i in range(len(e)) for j in range(i))


def q_mul(a: QPoly, b: QPoly) -> QPoly:
    """a * b from x^e * x^f = q^(-crossings(e, f)) * x^(e+f), charging the
    budget one op per term pair (at least one) and 64-entry word of an
    exponent vector, as the product does."""
    budget.charge(max(1, len(a.terms) * len(b.terms)) * ((a.parent.n - 1) // 64 + 1))
    out = {}
    for e, x in a.terms.items():
        for f, y in b.terms.items():
            coeff = (x * y).times_zeta(-crossings(e, f))
            exps = tuple(map(add, e, f))
            acc = out.get(exps)
            out[exps] = coeff if acc is None else acc + coeff
    return QPoly._make(a.parent, out)
