"""`quantum` workload: cyclotomic scalars and quantum affine spaces.

Items run in-process, stratified over the (p, t) levels of
values.QUANTUM_FIELDS (field degrees 2 to 54).  mqfield does no work here,
so this workload isolates cyclo and qaffine.  Product-heavy items (powers,
normal forms) sit beside inverse-heavy ones (extended Euclid), so a kernel
change that speeds one up and slows the other shows.
"""

from __future__ import annotations

import random

import gkbench as gk

from refalg import P, QuantumRef, rat
from values import QUANTUM_FIELDS, build_quantum

TAIL_PERCENTILE = 95.0
DENSE_INVERSE_MAX_DEGREE = 32  # a dense inverse at degree 54 takes seconds

# (x1 + ... + xn)^k shapes per level, sized so that no item passes ~0.3 s.
POWER_SHAPES = {(2, 1): (4, 8), (2, 2): (3, 6), (2, 3): (3, 5), (3, 1): (3, 6), (3, 2): (3, 4), (5, 1): (3, 4)}

# (kind, shape, count per level); a pass runs every row at every level.
MIX = (
    ("qp.mul", "3x3-terms", 3),
    ("qp.pow", "sum-power", 1),
    ("nf", "len8", 1),
    ("nf", "len16", 1),
    ("nf", "len24", 1),
    ("nf", "len32", 1),
    ("cyc.mul", "dense", 3),
    ("cyc.inv", "capped", 2),
    ("hom", "x^p", 1),
    ("hom", "x^(p+1)", 1),
    ("central", "x^m", 1),
)


def _cyc_spec(rng, degree, nonzero):
    """Coefficient vector (integers) with `nonzero` random positions set."""
    coeffs = [0] * degree
    for k in rng.sample(range(degree), min(nonzero, degree)):
        coeffs[k] = rng.choice((-3, -2, -1, 1, 2, 3))
    return tuple(coeffs)


def _qp_spec(rng, n, degree, terms):
    out = {}
    while len(out) < terms:
        exps = tuple(rng.randint(0, 2) for _ in range(n))
        out[exps] = _cyc_spec(rng, degree, 2)
    return tuple(out.items())


def make_pass(seed: int, index: int):
    """The items of one pass: fixed strata, values from (seed, index)."""
    rng = random.Random(f"quantum:{seed}:{index}")
    items = []
    for p, t in QUANTUM_FIELDS:
        degree = p ** (2 * t - 1) * (p - 1)
        for kind, shape, count in MIX:
            for _ in range(count):
                if kind == "qp.mul":
                    spec = (3, _qp_spec(rng, 3, degree, 3), _qp_spec(rng, 3, degree, 3))
                elif kind == "qp.pow":
                    n, k = POWER_SHAPES[p, t]
                    spec = (n, k, tuple(rng.choice((-2, -1, 1, 2, 3)) for _ in range(n)))
                elif kind == "nf":
                    length = int(shape[3:])
                    spec = (4, tuple(rng.randint(1, 4) for _ in range(length)), _cyc_spec(rng, degree, 2))
                elif kind == "cyc.mul":
                    spec = (_cyc_spec(rng, degree, degree), _cyc_spec(rng, degree, degree))
                elif kind == "cyc.inv":
                    dense = degree <= DENSE_INVERSE_MAX_DEGREE
                    spec = (_cyc_spec(rng, degree, degree if dense else 3),)
                elif kind == "hom":
                    spec = (3, p if shape == "x^p" else p + 1)
                else:
                    spec = (3, rng.randint(1, 3))
                items.append((f"{kind}/{shape}/p{p}t{t}", kind, (p, t), spec))
    rng.shuffle(items)
    return items


class Workload:
    name = "quantum"
    tail_percentile = TAIL_PERCENTILE
    make_pass = staticmethod(make_pass)

    def __init__(self, root):
        self.fields, self.algebras = build_quantum(gk)
        self.refs = {}

    def _ref(self, n, level):
        key = (n,) + level
        if key not in self.refs:
            self.refs[key] = QuantumRef(n, *level)
        return self.refs[key]

    def _cyc(self, level, coeffs):
        return self.fields[level].element(coeffs)

    def _qp(self, alg, level, spec):
        return gk.QPoly(alg, {exps: self._cyc(level, coeffs) for exps, coeffs in spec})

    # --- the timed work ---

    def run(self, item):
        _, kind, level, spec = item
        if kind == "qp.mul":
            alg = self.algebras[level + (spec[0],)]
            a, b = self._qp(alg, level, spec[1]), self._qp(alg, level, spec[2])
            return a, b, a * b
        if kind == "qp.pow":
            n, k, scalars = spec
            alg = self.algebras[level + (n,)]
            field = self.fields[level]
            base = alg.zero()
            for i, c in enumerate(scalars, start=1):
                base = base + alg.generator(i).scale(field.rational(c))
            return base ** k
        if kind == "nf":
            n, indices, coeffs = spec
            alg = self.algebras[level + (n,)]
            word = alg.word(indices, self._cyc(level, coeffs))
            return word, gk.normal_form(word)
        if kind == "cyc.mul":
            a, b = self._cyc(level, spec[0]), self._cyc(level, spec[1])
            return a, b, a * b
        if kind == "cyc.inv":
            a = self._cyc(level, spec[0])
            return a, a.inv()
        if kind == "hom":
            n, exponent = spec
            p, t = level
            dst = self.algebras[level + (n,)]
            src = gk.QAlgebra(n, self.fields[p, t - 1])
            return gk.hom_check(src, dst, gk.power_map_images(src, dst, exponent))
        n, i = spec
        return gk.central_power_check(self.algebras[level + (n,)], i)

    # --- the check, by the reference route (outside the timed region) ---

    def check(self, item, result):
        _, kind, level, spec = item
        p, t = level
        if kind == "qp.mul":
            r = self._ref(spec[0], level)
            a, b, c = result
            return r.of(c) == r.mul(r.of(a), r.of(b))
        if kind == "qp.pow":
            n, k, scalars = spec
            r = self._ref(n, level)
            base = {}
            for i, c in enumerate(scalars, start=1):
                base = r.add(base, r.scale(r.sym("xgen", i), rat(c)))
            want = {r.unit: 1}
            for _ in range(k):  # repeated multiplication
                want = r.mul(want, base)
            return r.of(result) == want
        if kind == "nf":
            word, poly = result
            r = self._ref(spec[0], level)
            again = gk.normal_form_random(word, random.Random(repr(spec)))
            return poly == again and r.of(poly) == r.word(spec[1], r.cyc(word.scalar))
        if kind == "cyc.mul":
            r = self._ref(1, level)
            a, b, c = result
            return r.cyc(c) == r.cyc(a) * r.cyc(b) % P
        if kind == "cyc.inv":
            r = self._ref(1, level)
            a, ai = result
            return r.cyc(a) * r.cyc(ai) % P == 1
        if kind == "hom":
            n, exponent = spec
            m = p ** (2 * t)
            ok = (exponent * exponent - p * p) % m == 0
            if result.ok != ok:
                return False
            if ok:
                return result.failing_pair is None and result.defect is None
            r = self._ref(n, level)
            x1, x2 = r.pow(r.sym("xgen", 1), exponent), r.pow(r.sym("xgen", 2), exponent)
            defect = r.add(r.mul(x1, x2), r.neg(r.scale(r.mul(x2, x1), pow(r.w, p * p, P))))
            return result.failing_pair == (1, 2) and r.of(result.defect) == defect
        return result is True

