"""Reference arithmetic modulo a large prime: the benchmark's independent route.

Every benchmark item is checked by mapping the library's inputs and outputs
into the integers modulo P and redoing the operation here with plain ints:

- a multiquadratic element keeps its radical-subset basis, as
  {bitmask: coefficient mod P}, where bit i-1 stands for sqrt(p_i);
- a cyclotomic element is evaluated at a primitive m-th root of unity w in
  F_P.  P - 1 is divisible by 2**6 * 3**4 * 5**2, so every root order the
  workloads use has such a root, and evaluation at it is a ring map
  Q(zeta) -> F_P on elements whose denominators avoid P;
- group, twisted and quantum values keep their monomial keys with these
  coefficients.

Two different values map to the same image only when P divides their
difference, which inputs of the size the workloads generate make negligible.
The module also parses the workbench's expression grammar (the CLI inputs the
benchmark sends and the canonical strings it gets back) into these values, so
a CLI answer is compared without the library's own parser.
"""

from __future__ import annotations

import re
from fractions import Fraction

P = 2305843009213636801  # prime, P = 1 (mod 129600)


def rat(value) -> int:
    """A rational (int or Fraction) as a residue mod P."""
    value = Fraction(value)
    return value.numerator * pow(value.denominator, -1, P) % P


def first_primes(count: int) -> tuple[int, ...]:
    out = []
    k = 2
    while len(out) < count:
        if all(k % d for d in range(2, int(k**0.5) + 1)):
            out.append(k)
        k += 1
    return tuple(out)


def root_of_unity(m: int) -> int:
    """A primitive m-th root of unity mod P, m a prime power dividing P - 1."""
    if m == 1:
        return 1
    if (P - 1) % m:
        raise ValueError(f"no {m}-th roots of unity mod P")
    p = next(d for d in range(2, m + 1) if m % d == 0)
    for x in range(2, 1000):
        w = pow(x, (P - 1) // m, P)
        if pow(w, m // p, P) != 1:
            return w
    raise ArithmeticError(f"no primitive {m}-th root found")


def _clean(d):
    return {k: v for k, v in d.items() if v}


def _add_into(out, key, value):
    out[key] = (out.get(key, 0) + value) % P


def _repeat(mul, one, a, e):
    """a**e by repeated multiplication, e >= 0."""
    if e < 0:
        raise ValueError("negative powers are not evaluated here")
    out = one
    for _ in range(e):
        out = mul(out, a)
    return out


# --- multiquadratic field: {bitmask: coefficient} -------------------------------


class FieldRef:
    """Q(sqrt(p_1), ..., sqrt(p_n)) mod P, in the radical-subset basis."""

    def __init__(self, n: int):
        self.n = n
        primes = first_primes(n)
        self.pp = [1] * (1 << n)  # pp[mask] = product of the primes in mask
        for mask in range(1, 1 << n):
            low = (mask & -mask).bit_length() - 1
            self.pp[mask] = self.pp[mask & (mask - 1)] * primes[low] % P

    def of(self, elem) -> dict:
        """Image of a library MQElem."""
        out = {}
        for subset, value in elem.coeffs.items():
            _add_into(out, sum(1 << (i - 1) for i in subset), rat(value))
        return _clean(out)

    def lit(self, value):
        return _clean({0: rat(value)})

    def sym(self, kind, index):
        if kind == "radical" and 1 <= index <= self.n:
            return {1 << (index - 1): 1}
        raise ValueError(f"{kind} {index} has no field value")

    def add(self, a, b):
        out = dict(a)
        for k, v in b.items():
            _add_into(out, k, v)
        return _clean(out)

    def neg(self, a):
        return {k: -v % P for k, v in a.items()}

    def mul(self, a, b):
        pp = self.pp
        out = {}
        for s, x in a.items():
            for t, y in b.items():
                _add_into(out, s ^ t, x * y % P * pp[s & t])
        return _clean(out)

    def pow(self, a, e):
        return _repeat(self.mul, {0: 1}, a, e)

    def flip(self, a, i):
        """The automorphism f_i: negate sqrt(p_i)."""
        bit = 1 << (i - 1)
        return {k: (-v % P if k & bit else v) for k, v in a.items()}

    def twist(self, a, oddmask):
        """Negate every sqrt(p_i) with bit i-1 set in oddmask."""
        return {k: (-v % P if bin(k & oddmask).count("1") % 2 else v) for k, v in a.items()}


# --- free abelian group: canonical key tuple((i, e), ...) --------------------------


def group_key(exps) -> tuple:
    return tuple(sorted((i, e) for i, e in dict(exps).items() if e))


def group_mul(g, h) -> tuple:
    out = dict(g)
    for i, e in h:
        out[i] = out.get(i, 0) + e
    return group_key(out)


class GroupRef:
    """The free abelian group; values are canonical keys."""

    def lit(self, value):
        raise ValueError("rational literals are not group elements")

    def sym(self, kind, index):
        if kind == "identity":
            return ()
        if kind == "xgen":
            return ((index, 1),)
        raise ValueError(f"{kind} has no group value")

    def add(self, a, b):
        raise ValueError("sums are not group elements")

    def neg(self, a):
        raise ValueError("negatives are not group elements")

    def mul(self, a, b):
        return group_mul(a, b)

    def pow(self, a, e):
        return group_key({i: x * e for i, x in a})


# --- twisted group ring: {group key: field value} ------------------------------------


class TwistedRef:
    """Finite sums a_x * x with (a_x x)(b_y y) = a_x twist_x(b_y) xy."""

    def __init__(self, n: int):
        self.field = FieldRef(n)

    def of(self, elem) -> dict:
        return {group_key(g.exps): self.field.of(c) for g, c in elem.terms.items()}

    def lit(self, value):
        return self._scalar(self.field.lit(value))

    def _scalar(self, a):
        return {(): a} if a else {}

    def sym(self, kind, index):
        if kind == "radical":
            return self._scalar(self.field.sym(kind, index))
        if kind == "identity":
            return {(): {0: 1}}
        if kind == "xgen":
            return {((index, 1),): {0: 1}}
        raise ValueError(f"{kind} has no twisted value")

    def add(self, a, b):
        out = dict(a)
        for g, c in b.items():
            out[g] = self.field.add(out.get(g, {}), c)
        return {g: c for g, c in out.items() if c}

    def neg(self, a):
        return {g: self.field.neg(c) for g, c in a.items()}

    def mul(self, a, b):
        f = self.field
        out = {}
        for x, ca in a.items():
            odd = sum(1 << (i - 1) for i, e in x if e % 2)
            for y, cb in b.items():
                z = group_mul(x, y)
                out[z] = f.add(out.get(z, {}), f.mul(ca, f.twist(cb, odd)))
        return {g: c for g, c in out.items() if c}

    def pow(self, a, e):
        return _repeat(self.mul, {(): {0: 1}}, a, e)


# --- cyclotomic scalars and quantum affine space ------------------------------------


class QuantumRef:
    """Quantum affine space on n generators over Q(zeta), zeta of order
    m = p**(2t), with scalars evaluated at a primitive m-th root w mod P:
    x^e * x^f = w**(-sum_{i>j} e_i f_j) x^(e+f)."""

    def __init__(self, n: int, p: int, t: int):
        self.n = n
        self.m = p ** (2 * t)
        self.w = root_of_unity(self.m)
        self.w_inv = pow(self.w, -1, P)
        self.unit = (0,) * n

    def cyc(self, elem) -> int:
        """Image of a library CycElem: its coefficient polynomial at w."""
        acc = 0
        for c in reversed(elem.coeffs):
            acc = (acc * self.w + rat(c)) % P
        return acc

    def of(self, poly) -> dict:
        return _clean({exps: self.cyc(c) for exps, c in poly.terms.items()})

    def lit(self, value):
        return _clean({self.unit: rat(value)})

    def sym(self, kind, index):
        if kind == "cyclo":
            return {self.unit: self.w}
        if kind == "xgen" and 1 <= index <= self.n:
            exps = [0] * self.n
            exps[index - 1] = 1
            return {tuple(exps): 1}
        raise ValueError(f"{kind} {index} has no quantum value")

    def add(self, a, b):
        out = dict(a)
        for k, v in b.items():
            _add_into(out, k, v)
        return _clean(out)

    def neg(self, a):
        return {k: -v % P for k, v in a.items()}

    def scale(self, a, c):
        return _clean({k: v * c % P for k, v in a.items()})

    def mul(self, a, b):
        n = self.n
        out = {}
        for e, x in a.items():
            for f, y in b.items():
                crossings = 0  # sum over i > j of e_i * f_j
                below = 0  # f_j summed over j < i
                for i in range(n):
                    crossings += e[i] * below
                    below += f[i]
                key = tuple(u + v for u, v in zip(e, f))
                _add_into(out, key, x * y % P * pow(self.w_inv, crossings % self.m, P))
        return _clean(out)

    def pow(self, a, e):
        if e < 0 and a and set(a) == {self.unit}:  # nonzero scalars invert
            return {self.unit: pow(a[self.unit], e, P)}
        return _repeat(self.mul, {self.unit: 1}, a, e)

    def word(self, indices, scalar: int) -> dict:
        """Normal form of a word: scalar * w**(-inversions) on the sorted monomial."""
        inversions = sum(
            1
            for a in range(len(indices))
            for b in range(a + 1, len(indices))
            if indices[a] > indices[b]
        )
        exps = [0] * self.n
        for i in indices:
            exps[i - 1] += 1
        return _clean({tuple(exps): scalar * pow(self.w_inv, inversions % self.m, P) % P})


# --- expression grammar ----------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|(\S))")


def _tokens(text: str):
    out = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot tokenize {text[pos:]!r}")
        pos = m.end()
        num, ident, op = m.groups()
        out.append(("INT", num) if num else ("IDENT", ident) if ident else (op, op))
    out.append(("EOF", ""))
    return out


def evaluate(text: str, ctx):
    """Evaluate an expression of the workbench grammar
    (expr := sign? term (('+'|'-') term)*, term := factor ('*' factor)*,
    factor := atom ('^' sign? int)?, atom := int ('/' int)? | ident | '(' expr ')')
    in one of the reference contexts above."""
    toks = _tokens(text)
    pos = 0

    def peek():
        return toks[pos][0]

    def take(kind=None):
        nonlocal pos
        tok = toks[pos]
        if kind is not None and tok[0] != kind:
            raise ValueError(f"expected {kind}, found {tok[1]!r} in {text!r}")
        pos += 1
        return tok

    def expr():
        sign = 1
        if peek() in "+-":
            sign = -1 if take()[0] == "-" else 1
        acc = term()
        if sign < 0:
            acc = ctx.neg(acc)
        while peek() in ("+", "-"):
            op = take()[0]
            val = term()
            acc = ctx.add(acc, val if op == "+" else ctx.neg(val))
        return acc

    def term():
        acc = factor()
        while peek() == "*":
            take()
            acc = ctx.mul(acc, factor())
        return acc

    def factor():
        base = atom()
        if peek() != "^":
            return base
        take()
        sign = 1
        if peek() in "+-":
            sign = -1 if take()[0] == "-" else 1
        return ctx.pow(base, sign * int(take("INT")[1]))

    def atom():
        kind, value = take()
        if kind == "(":
            inner = expr()
            take(")")
            return inner
        if kind == "INT":
            num = Fraction(int(value))
            if peek() == "/":
                take()
                num /= int(take("INT")[1])
            return ctx.lit(num)
        if kind == "IDENT":
            if value == "z":
                return ctx.sym("cyclo", None)
            if value == "e":
                return ctx.sym("identity", None)
            if value[0] == "s" and value[1:].isdigit():
                return ctx.sym("radical", int(value[1:]))
            if value[0] == "x" and value[1:].isdigit():
                return ctx.sym("xgen", int(value[1:]))
        raise ValueError(f"unexpected {value!r} in {text!r}")

    out = expr()
    take("EOF")
    return out
