"""The twisted product and commutator written the direct way: one `MQElem`
product and one sum per term pair, and the commutator as two such products
and a difference.  It is the reference that the one-accumulation kernel of
`TwistedElem` is tested against; every result drops its zero terms.  The
commutation sweep is written the direct way too: 2m whole commutators with
one-term probes, the reference for `TwistedElem.is_central_by_commutation`,
which reads each probe's bracket term by term."""

from gkbench import budget
from gkbench.ordgroup import GroupElem
from gkbench.twistring import TwistedElem


def tw_mul(a: TwistedElem, b: TwistedElem) -> TwistedElem:
    """a * b from (c x)(d y) = c * twist_x(d) * xy, charging the budget one op
    per term pair, as the product does.  xy goes through the validating
    GroupElem constructor, so its odd-exponent mask is counted afresh."""
    budget.charge(len(a.terms) * len(b.terms))
    out = {}
    for x, c in a.terms.items():
        for y, d in b.terms.items():
            z = GroupElem({i: x.exps.get(i, 0) + y.exps.get(i, 0) for i in x.exps.keys() | y.exps.keys()})
            contrib = c * x.twist(d)
            acc = out.get(z)
            out[z] = contrib if acc is None else acc + contrib
    return TwistedElem._make(a.parent, out)


def tw_commutator(a: TwistedElem, b: TwistedElem) -> TwistedElem:
    """a*b - b*a, charged as the two products."""
    return tw_mul(a, b) - tw_mul(b, a)


def tw_sweep_oracle(a: TwistedElem, m: int) -> bool:
    """Centrality of `a` by commutation: for i = 1..m, the commutator with the
    probe sqrt(p_i) at e and then with the probe x_i, each built as a
    TwistedElem and charged as its two products; False at the first nonzero
    bracket."""
    basis, e = a.parent, GroupElem.identity()
    for i in range(1, m + 1):
        for probe in (TwistedElem(basis, {e: basis.radical(i)}), TwistedElem.from_group(basis, GroupElem.generator(i))):
            if tw_commutator(a, probe):
                return False
    return True
