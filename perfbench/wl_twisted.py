"""`twisted` workload: multiquadratic and twisted group-ring arithmetic.

Items run in-process over PrimeBasis.first(n), n = 4, 5, 6.  No cyclotomic
arithmetic runs here, so this workload isolates mqfield, ordgroup and
twistring, and is the no-change control for cyclotomic kernel work.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import gkbench as gk
from gkbench import GroupElem, TwistedElem

from refalg import FieldRef, TwistedRef, group_mul
from values import TWISTED_BASES, build_twisted

TAIL_PERCENTILE = 99.0

# (kind, shape, count per basis size); a pass runs every row for every basis.
MIX = (
    ("mq.mul", "sparse", 4),
    ("mq.mul", "dense", 1),
    ("mq.inv", "sparse", 3),
    ("mq.inv", "dense", 1),
    ("mq.apply_f", "sparse", 2),
    ("mq.apply_f", "dense", 1),
    ("tw.assoc", "sparse", 2),
    ("tw.distrib", "sparse", 2),
    ("tw.central", "central", 3),
    ("tw.central", "odd-exponent", 3),
    ("tw.central", "radical-coeff", 2),
)


def _coeff(rng, dense):
    if dense:
        return rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)), rng.choice((1, 1, 2))
    return rng.choice((-9, -7, -5, -3, -2, -1, 1, 2, 3, 5, 7, 9)), rng.randint(1, 4)


def _mq_spec(rng, n, dense, terms=3):
    """Coefficients as ((subset...), numerator, denominator) triples."""
    subsets = [c for k in range(n + 1) for c in itertools.combinations(range(1, n + 1), k)]
    chosen = subsets if dense else rng.sample(subsets, terms)
    return tuple((s,) + _coeff(rng, dense) for s in chosen)


def _group_spec(rng, n, parity=None):
    """Exponent pairs on 1-2 indices <= n; parity "even" forces squares."""
    idx = rng.sample(range(1, n + 1), rng.randint(1, 2))
    if parity == "even":
        return tuple((i, rng.choice((-2, 2, 4))) for i in idx)
    return tuple((i, rng.choice((-2, -1, 1, 2))) for i in idx)


def _tw_spec(rng, n, terms):
    out = {}
    while len(out) < terms:
        out[_group_spec(rng, n)] = _mq_spec(rng, n, False, rng.randint(1, 2))
    return tuple(out.items())


def _central_spec(rng, n, shape):
    """Three terms with rational coefficients on squares, the identity among
    them; the non-central shapes break the last term."""
    out = {(): (((), rng.randint(1, 9), rng.randint(1, 3)),)}
    while len(out) < 3:
        out[_group_spec(rng, n, "even")] = (((), rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 3)),)
    terms = list(out.items())
    g, coeff = terms[-1]
    if shape == "odd-exponent":
        g = group_mul(g, ((rng.randint(1, n), 1),))
    elif shape == "radical-coeff":
        coeff += ((tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, 2)))), 1, 1),)
    terms[-1] = (g, coeff)
    return tuple(terms)


def make_pass(seed: int, index: int):
    """The items of one pass: fixed strata, values from (seed, index)."""
    rng = random.Random(f"twisted:{seed}:{index}")
    items = []
    for n in TWISTED_BASES:
        for kind, shape, count in MIX:
            for _ in range(count):
                dense = shape == "dense"
                if kind == "mq.mul":
                    spec = (_mq_spec(rng, n, dense), _mq_spec(rng, n, dense))
                elif kind == "mq.apply_f":
                    spec = (_mq_spec(rng, n, dense), _mq_spec(rng, n, dense), rng.randint(1, n))
                elif kind == "mq.inv":
                    spec = (_mq_spec(rng, n, dense),)
                elif kind in ("tw.assoc", "tw.distrib"):
                    spec = tuple(_tw_spec(rng, n, rng.randint(2, 3)) for _ in range(3))
                else:
                    spec = (_central_spec(rng, n, shape), shape == "central")
                items.append((f"{kind}/{shape}/n{n}", kind, n, spec))
    rng.shuffle(items)
    return items


class Workload:
    name = "twisted"
    tail_percentile = TAIL_PERCENTILE
    make_pass = staticmethod(make_pass)

    def __init__(self, root):
        self.bases = build_twisted(gk)
        self.field_refs = {n: FieldRef(n) for n in TWISTED_BASES}
        self.tw_refs = {n: TwistedRef(n) for n in TWISTED_BASES}

    # --- building library values from specs (inside the timed region) ---

    def _mq(self, n, spec):
        return self.bases[n].element({s: Fraction(a, b) for s, a, b in spec})

    def _tw(self, n, spec):
        return TwistedElem(self.bases[n], {GroupElem(g): self._mq(n, c) for g, c in spec})

    # --- the timed work ---

    def run(self, item):
        _, kind, n, spec = item
        if kind == "mq.mul":
            a, b = self._mq(n, spec[0]), self._mq(n, spec[1])
            return a, b, a * b
        if kind == "mq.inv":
            a = self._mq(n, spec[0])
            return a, a.inv()
        if kind == "mq.apply_f":
            a, b, i = self._mq(n, spec[0]), self._mq(n, spec[1]), spec[2]
            lhs = (a * b).apply_f(i)
            rhs = a.apply_f(i) * b.apply_f(i)
            return a, b, lhs, lhs == rhs
        if kind in ("tw.assoc", "tw.distrib"):
            x, y, z = (self._tw(n, s) for s in spec)
            if kind == "tw.assoc":
                lhs = (x * y) * z
                rhs = x * (y * z)
            else:
                lhs = x * (y + z)
                rhs = x * y + x * z
            return x, y, z, lhs, lhs == rhs
        e = self._tw(n, spec[0])
        return e.is_central_by_form(), e.is_central_by_commutation(n)

    # --- the check, by the reference route (outside the timed region) ---

    def check(self, item, result):
        _, kind, n, spec = item
        f = self.field_refs[n]
        if kind == "mq.mul":
            a, b, c = result
            return f.of(c) == f.mul(f.of(a), f.of(b))
        if kind == "mq.inv":
            a, ai = result
            return f.mul(f.of(a), f.of(ai)) == {0: 1}
        if kind == "mq.apply_f":
            a, b, lhs, same = result
            return same and f.of(lhs) == f.flip(f.mul(f.of(a), f.of(b)), spec[2])
        if kind in ("tw.assoc", "tw.distrib"):
            x, y, z, lhs, same = result
            r = self.tw_refs[n]
            rx, ry, rz = r.of(x), r.of(y), r.of(z)
            want = r.mul(r.mul(rx, ry), rz) if kind == "tw.assoc" else r.mul(rx, r.add(ry, rz))
            return same and r.of(lhs) == want
        by_form, by_commutation = result
        return by_form == by_commutation == spec[1]
