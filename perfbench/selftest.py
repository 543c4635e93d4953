"""Self-test of the benchmark itself: input determinism, exact counts,
self-time arithmetic, the reference route, and the refusal to run without
sources.  Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import unittest
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import refalg  # noqa: E402
import run  # noqa: E402
import wl_cli  # noqa: E402
import wl_quantum  # noqa: E402
import wl_twisted  # noqa: E402
from gkbench import PrimeBasis, budget  # noqa: E402
from tracer import FUNCTIONS, Tracer, per_layer_metrics  # noqa: E402

MODULES = (wl_twisted, wl_quantum, wl_cli)


def strata(items):
    return Counter(item[0] for item in items)


class Determinism(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for mod in MODULES:
            with self.subTest(workload=mod.__name__):
                self.assertEqual(
                    run.input_digest(mod.make_pass(7, 0)), run.input_digest(mod.make_pass(7, 0))
                )

    def test_other_seed_or_pass_changes_values_not_mix(self):
        for mod in MODULES:
            base = mod.make_pass(7, 0)
            for seed, index in ((8, 0), (7, 1)):
                with self.subTest(workload=mod.__name__, seed=seed, index=index):
                    other = mod.make_pass(seed, index)
                    self.assertNotEqual(run.input_digest(base), run.input_digest(other))
                    self.assertEqual(strata(base), strata(other))

    def test_traced_counts_repeat(self):
        """The same items give the same calls and budget ops, traced twice."""
        cases = [
            (wl_twisted.Workload(ROOT), wl_twisted.make_pass(3, 0)),
            (wl_quantum.Workload(ROOT), [i for i in wl_quantum.make_pass(3, 0) if i[2][1] == 1]),
        ]
        cli = wl_cli.Workload(ROOT)
        cli.go_inprocess()
        light = [i for i in wl_cli.make_pass(3, 0) if not i[1].endswith(".growth")]
        cases.append((cli, light))
        for wl, items in cases:
            with self.subTest(workload=wl.name):
                seen = []
                for _ in range(2):
                    tracer = Tracer(budget.used)
                    with tracer:
                        _, failures, ops = run.run_pass(wl, items, budget, tracer)
                    self.assertEqual(failures, [])
                    by_name, cmul_in_qmul, spans = tracer.summary()
                    calls = {name: by_name[name][0] for name in FUNCTIONS}
                    seen.append((calls, ops, cmul_in_qmul, spans, dict(tracer.counts)))
                self.assertEqual(seen[0], seen[1])
                self.assertGreater(seen[0][3], 0)


class Tracing(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        tracer = Tracer(budget.used)
        mul, init = tracer.ids["mqfield.MQElem.mul"], tracer.ids["mqfield.MQElem.init"]
        # mul [0, 10] holds init [2, 5] and init [6, 7]; a second mul [20, 21]
        for name, parent, start, end in ((mul, -1, 0, 10), (init, 0, 2, 5), (init, 0, 6, 7), (mul, -1, 20, 21)):
            tracer.span_name.append(name)
            tracer.parent.append(parent)
            tracer.item.append(0)
            tracer.start.append(start)
            tracer.end.append(end)
        by_name, _, spans = tracer.summary()
        self.assertEqual(spans, 4)
        self.assertEqual(by_name["mqfield.MQElem.mul"], (2, 7.0))
        self.assertEqual(by_name["mqfield.MQElem.init"], (2, 4.0))

    def test_wrappers_fold_recursion_and_uninstall(self):
        basis = PrimeBasis.first(4)
        a = basis.element({(1, 2): 3, (3,): Fraction(1, 2), (): 1})
        original = type(a).inv
        tracer = Tracer(budget.used)
        with tracer:
            a.inv()
        self.assertIs(type(a).inv, original)
        by_name, _, _ = tracer.summary()
        self.assertEqual(by_name["mqfield.MQElem.inv"][0], 1)  # recursion folded
        self.assertGreater(by_name["mqfield.MQElem.mul"][0], 0)

    def test_per_layer_names_are_unique(self):
        names = [name for name, _, _ in per_layer_metrics()]
        self.assertEqual(len(names), len(set(names)))


class Statistics(unittest.TestCase):
    def test_percentile_interpolates(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 50), 50.5)
        self.assertAlmostEqual(run.percentile(values, 99), 99.01)
        self.assertEqual(run.percentile([4.0], 95), 4.0)

    def test_blocks_hold_ten_beyond_and_fold_the_remainder(self):
        def passes(count, size):
            return [([0.001] * size, []) for _ in range(count)]

        for count, size, p, want in ((9, 14, 90, [126]), (16, 14, 90, [112, 112]),
                                     (130, 60, 99, [1020] * 6 + [1680]), (2, 96, 95, [192])):
            with self.subTest(count=count, size=size, p=p):
                got = [len(g) for g in run.blocks(passes(count, size), p)]
                self.assertEqual(got, want)
                self.assertEqual(sum(got), count * size)


class Reference(unittest.TestCase):
    def test_modulus_is_prime_with_the_roots_used(self):
        n, d, s = refalg.P, refalg.P - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
            x = pow(a, d, n)
            if x in (1, n - 1):
                continue
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                self.fail(f"{n} is composite (witness {a})")
        for p, t in wl_quantum.QUANTUM_FIELDS:
            m = p ** (2 * t)
            w = refalg.root_of_unity(m)
            self.assertEqual(pow(w, m, n), 1)
            self.assertNotEqual(pow(w, m // p, n), 1)

    def test_checks_reject_a_wrong_answer(self):
        wl = wl_twisted.Workload(ROOT)
        item = next(i for i in wl_twisted.make_pass(5, 0) if i[1] == "mq.mul")
        a, b, c = wl.run(item)
        self.assertTrue(wl.check(item, (a, b, c)))
        self.assertFalse(wl.check(item, (a, b, c + c.basis.one())))
        self.assertFalse(wl.check(item, (a, b, -c)))

    def test_expression_evaluator_matches_output_forms(self):
        q = refalg.QuantumRef(3, 2, 1)
        self.assertEqual(
            refalg.evaluate("x2*x1", q), refalg.evaluate("z^3*x1*x2", q)
        )  # x2 x1 = q^-1 x1 x2 and q^-1 = q^3 at m = 4
        t = refalg.TwistedRef(2)
        self.assertEqual(refalg.evaluate("x1*s1", t), refalg.evaluate("-s1*x1", t))
        f = refalg.FieldRef(2)
        self.assertEqual(refalg.evaluate("(s1 + s2)^2", f), refalg.evaluate("5 + 2*s1*s2", f))
        g = refalg.GroupRef()
        self.assertEqual(refalg.evaluate("x1^-2*x3*x1", g), refalg.evaluate("x1^-1*x3", g))


class Refusal(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = ROOT / ".perfbench" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "twisted", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=120,
        )
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
