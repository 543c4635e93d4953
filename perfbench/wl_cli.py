"""`cli` workload: one `python -m gkbench.cli` subprocess per request.

Mostly short requests (each pays interpreter start and the gkbench.cli
import, then parses, computes a little and emits a report), plus a fixed
two counting-heavy growth requests per pass.  Start-up, parser, reports and
the enumeration counting dominate here; the other workloads barely touch
them.  The traced run sends the same argv list in-process through
gkbench.cli.main.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from math import factorial

from refalg import FieldRef, GroupRef, QuantumRef, TwistedRef, evaluate

TAIL_PERCENTILE = 90.0
REQUEST_TIMEOUT_S = 120
WORKDIR = ".perfbench/work"  # series files, relative to the checkout root

# Quantum requests stay at t <= 3, each kind at a fixed (p, t) level.
LEVELS = {
    "eval.quantum": (3, 1),
    "quantum.nf": (2, 3),
    "quantum.mul": (2, 2),
    "quantum.hom": (3, 1),
    "quantum.hom.fail": (2, 2),
}

# One request of each kind per pass.  The two growth requests, 2 of 14, are
# the counting-heavy part; at about 14% of the requests they hold the p90 tail.
MIX = (
    "eval.field",
    "eval.group",
    "eval.twisted",
    "eval.quantum",
    "gamma.coeff",
    "gamma.witness",
    "quantum.nf",
    "quantum.mul",
    "quantum.hom",
    "quantum.hom.fail",
    "growth.estimate.d1",
    "growth.estimate.d3",
    "quantum.growth",
    "gamma.growth",
)
HEAVY = {
    "quantum.growth": (("quantum", "growth", "--n", "6", "--rmax", "30"), 6),
    "gamma.growth": (("gamma", "growth", "--n", "8", "--rmax", "40"), 8),
}


def _rat(rng):
    a, b = rng.choice((1, 2, 3, 5, 7)), rng.choice((1, 1, 2, 3))
    return str(a) if b == 1 else f"{a}/{b}"


def _join(rng, terms):
    text = terms[0]
    for term in terms[1:]:
        text += rng.choice((" + ", " - ")) + term
    return text


def _field_expr(rng, n):
    terms = []
    for _ in range(3):
        i, j = rng.sample(range(1, n + 1), 2)
        factor = rng.choice(
            (f"s{i}", f"(s{i} + {_rat(rng)})", f"({_rat(rng)} - s{i}*s{j})^2", f"s{i}^3")
        )
        terms.append(f"{_rat(rng)}*{factor}*s{j}")
    return _join(rng, terms)


def _group_expr(rng, n):
    return "*".join(
        f"x{rng.randint(1, n)}^{rng.choice((-3, -2, -1, 2, 3))}" for _ in range(4)
    )


def _twisted_expr(rng, n):
    terms = []
    for _ in range(3):
        i, j, k = (rng.randint(1, n) for _ in range(3))
        coeff = rng.choice((_rat(rng), f"({_rat(rng)} + s{i})", f"s{i}"))
        terms.append(f"{coeff}*x{j}^{rng.randint(1, 2)}*s{k}")
    return _join(rng, terms)


def _word(rng, n, length):
    return "*".join(f"x{rng.randint(1, n)}^{rng.randint(1, 2)}" for _ in range(length))


def _quantum_expr(rng, n):
    terms = [f"{_rat(rng)}*z^{rng.randint(0, 5)}*{_word(rng, n, 3)}" for _ in range(2)]
    terms.append(f"(x{rng.randint(1, n)} + z*x{rng.randint(1, n)})^2")
    return _join(rng, terms)


def _request(rng, kind, index):
    """(argv, expected exit code, expectation) for one request."""
    p, t = LEVELS.get(kind, (0, 0))
    if kind == "eval.field":
        return ("eval", "--context", "field", "--primes", "4", _field_expr(rng, 4)), 0, None
    if kind == "eval.group":
        return ("eval", "--context", "group", _group_expr(rng, 5)), 0, None
    if kind == "eval.twisted":
        return ("eval", "--context", "twisted", "--primes", "3", _twisted_expr(rng, 3)), 0, None
    if kind == "eval.quantum":
        argv = ("eval", "--context", "quantum", "--n", "3", "--p", str(p), "--t", str(t))
        return argv + (_quantum_expr(rng, 3),), 0, None
    if kind == "gamma.coeff":
        power = rng.randint(6, 14)
        cuts = sorted(rng.sample(range(1, power), 2))
        parts = (cuts[0], cuts[1] - cuts[0], power - cuts[1])
        idx = rng.sample(range(1, 7), 3)
        target = "*".join(f"x{i}^-{m}" for i, m in zip(idx, parts))
        multinomial = factorial(power) // (factorial(parts[0]) * factorial(parts[1]) * factorial(parts[2]))
        return ("gamma", "coeff", "--power", str(power), target), 0, multinomial
    if kind == "gamma.witness":
        degree = rng.randint(3, 8)
        return ("gamma", "witness", "--degree", str(degree)), 0, degree
    q = ("--n", "3", "--p", str(p), "--t", str(t))
    if kind == "quantum.nf":
        word = f"{_rat(rng)}*{_word(rng, 3, 3)}*z^{rng.randint(1, 5)}*{_word(rng, 3, 3)}"
        return ("quantum", "nf") + q + (word,), 0, None
    if kind == "quantum.mul":
        lhs = f"{_word(rng, 3, 2)} + z*{_word(rng, 3, 2)}"
        rhs = f"{_rat(rng)}*{_word(rng, 3, 2)} - {_word(rng, 3, 1)}"
        return ("quantum", "mul") + q + (lhs, rhs), 0, None
    if kind == "quantum.hom":
        return ("quantum", "hom-check") + q, 0, True
    if kind == "quantum.hom.fail":
        images = ";".join(f"x{i}^{p + 1}" for i in (1, 2, 3))
        return ("quantum", "hom-check") + q + ("--images", images), 1, False
    if kind.startswith("growth.estimate"):
        degree = int(kind[-1])
        coeffs = [rng.randint(1, 9) for _ in range(degree + 1)]
        text = "".join(
            f"{r},{sum(c * r**e for e, c in enumerate(coeffs))}\n" for r in range(1, 21)
        )
        path = f"{WORKDIR}/{kind}-{index}.txt"
        return ("growth", "estimate", path), 0, (degree, tuple(coeffs), text)
    argv, n = HEAVY[kind]
    return argv, 0, n


def make_pass(seed: int, index: int):
    """The requests of one pass: fixed kinds and counts, values from (seed, index)."""
    rng = random.Random(f"cli:{seed}:{index}")
    items = []
    for kind in MIX:
        argv, code, expect = _request(rng, kind, index)
        items.append((kind, kind, tuple(argv) + ("--format", "machine"), (code, expect)))
    rng.shuffle(items)
    return items


class Workload:
    name = "cli"
    tail_percentile = TAIL_PERCENTILE
    make_pass = staticmethod(make_pass)

    def __init__(self, root):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.cli = None  # the gkbench.cli module once requests go in-process

    def go_inprocess(self):
        """Send requests through gkbench.cli.main in this process from now on."""
        import gkbench.cli

        self.cli = gkbench.cli

    def prepare(self, items):
        """Write the series files the growth requests read (outside timing)."""
        for _, kind, argv, (_, expect) in items:
            if kind.startswith("growth.estimate"):
                path = self.root / argv[2]
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(expect[2], encoding="utf-8")

    # --- the timed work ---

    def run(self, item):
        argv = item[2]
        if self.cli is not None:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(argv))
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "gkbench.cli", *argv],
            capture_output=True,
            text=True,
            env=self.env,
            cwd=self.root,
            timeout=REQUEST_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout, proc.stderr

    # --- the check: exit code and outputs against the benchmark's own values ---

    def check(self, item, result):
        _, kind, argv, (want_code, expect) = item
        code, out, _ = result
        if code != want_code:
            return False
        records = [json.loads(line) for line in out.splitlines() if line.strip()]
        want_verdict = "pass" if want_code == 0 else "fail"
        if not records or any(r["verdict"] != want_verdict for r in records):
            return False
        o = records[0]["outputs"]
        if kind.startswith("eval."):
            ctx = {
                "eval.field": lambda: FieldRef(4),
                "eval.group": GroupRef,
                "eval.twisted": lambda: TwistedRef(3),
                "eval.quantum": lambda: QuantumRef(3, int(argv[6]), int(argv[8])),
            }[kind]()
            return evaluate(argv[-3], ctx) == evaluate(o["canonical"], ctx)
        if kind == "gamma.coeff":
            return o["coefficient"] == expect
        if kind == "gamma.witness":
            return o["independent"] is True and o["diagonal"] == [factorial(k) for k in range(1, expect + 1)]
        if kind in ("quantum.nf", "quantum.mul"):
            ctx = QuantumRef(3, int(argv[5]), int(argv[7]))
            if kind == "quantum.nf":
                return evaluate(argv[8], ctx) == evaluate(o["normal_form"], ctx)
            return ctx.mul(evaluate(argv[8], ctx), evaluate(argv[9], ctx)) == evaluate(o["product"], ctx)
        if kind.startswith("quantum.hom"):
            return o["ok"] is expect and o["failing_pair"] == ([] if expect else [1, 2])
        if kind.startswith("growth.estimate"):
            degree, coeffs, _ = expect
            if o["degree"] != str(degree) or o["exact"] is not True or len(records) != 2:
                return False
            slope = records[1]["outputs"]
            if degree == 1:
                return slope["slope"] == coeffs[1] and slope["offset"] == coeffs[0]
            return slope["slope"] == "nonlinear"
        if kind == "quantum.growth":
            return o["degree"] == str(expect)
        # gamma.growth: slope 4**pairs, then degree 1
        return (
            len(records) == 2
            and o["slope"] == 4**expect
            and records[1]["outputs"]["degree"] == "1"
        )
