"""gkbench benchmark: end-to-end and per-layer metrics on three workloads.

    python3 perfbench/run.py --workload twisted --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports gkbench from ./src.

--trace 0 measures the end-to-end metrics.  Set-up is timed in fresh
interpreters; then passes of generated items run in a closed loop with one
client until the next pass would end after --seconds.  Each item is timed on
its own and then checked against the benchmark's own reference route.

--trace 1 runs the first pass untraced, traced, and untraced again, and reports
the per-layer metrics: calls and self time of the wrapped library functions,
exact counts and ratios, and the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A results file with the environment, seed, item counts,
input digest and every metric with its unit and direction goes to
.perfbench/results/; the traced run also writes its spans to .perfbench/spans/.
The exit code is 1 if any item failed, 2 on a bad set-up.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("twisted", "quantum", "cli")
SETUP_SAMPLES = 9
IMPORT_SAMPLES = 3
PROBE_TIMEOUT_S = 60

# name, unit, better; reported per workload by the untraced run
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("item_p50_ms", "ms", "lower"),
    ("item_tail_ms", "ms", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)


def percentile(values, p):
    """The p-th percentile, interpolating linearly between closest ranks."""
    v = sorted(values)
    k = (len(v) - 1) * p / 100
    lo = math.floor(k)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (k - lo)


def input_digest(items):
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def run_pass(wl, items, budget=None, tracer=None, between=None):
    """Closed loop, one client: each item starts when the previous one ends.

    Returns (latencies, failures, budget ops).  An exception, a wrong answer
    and an unexpected exit code all count as a failure.  `between` runs
    before each item, outside its timing."""
    prepare = getattr(wl, "prepare", None)
    if prepare:
        prepare(items)
    latencies, failures, ops = [], [], 0
    for k, item in enumerate(items):
        if between is not None:
            between()
        if tracer is not None:
            tracer.item_id = k
        if budget is not None:
            budget.reset()  # the default cap applies per item
        error = None
        t0 = perf_counter()
        try:
            result = wl.run(item)
        except Exception as exc:  # counted, and the loop goes on
            error = exc
        latencies.append(perf_counter() - t0)
        if budget is not None:
            ops += budget.used()
        if error is None:
            try:
                if not wl.check(item, result):
                    error = "wrong answer"
            except Exception as exc:
                error = exc
        if error is not None:
            failures.append(f"{item[0]}: {error!r}"[:400])
    return latencies, failures, ops


def probe_seconds(argv, wall):
    """Run one probe interpreter; its wall time, or the seconds it prints."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT,
        timeout=PROBE_TIMEOUT_S,
    )
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"probe {argv} failed: {proc.stderr.strip()[-400:]}")
    return elapsed if wall else float(proc.stdout.strip())


class SetupProbe:
    """Set-up time in fresh interpreters, sampled at evenly spaced moments of
    the run so that the median spans the machine's slow and fast phases.
    A first, untimed probe leaves the bytecode cache as an installation has it."""

    def __init__(self, workload, seconds):
        if workload == "cli":
            self.argv, self.wall = ["-c", "import gkbench.cli"], True
        else:
            self.argv, self.wall = [str(HERE / "values.py"), workload], False
        probe_seconds(self.argv, self.wall)
        self.due = [seconds * (i + 0.5) / SETUP_SAMPLES for i in range(SETUP_SAMPLES)]
        self.samples = []
        self.t_start = perf_counter()

    def maybe(self):
        if len(self.samples) < len(self.due) and perf_counter() - self.t_start >= self.due[len(self.samples)]:
            self.samples.append(probe_seconds(self.argv, self.wall))

    def median(self):
        while len(self.samples) < len(self.due):
            self.samples.append(probe_seconds(self.argv, self.wall))
        return statistics.median(self.samples)


def import_seconds():
    code = "import time; t = time.perf_counter(); import gkbench.cli; print(time.perf_counter() - t)"
    return statistics.median(probe_seconds(["-c", code], False) for _ in range(IMPORT_SAMPLES))


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def measure(wl, seed, seconds, budget, between):
    """Untraced passes until the next one would end after `seconds`.
    Returns the first pass's items and every pass's (latencies, failures)."""
    passes = []
    first = None
    t_start = perf_counter()
    index = 0
    while True:
        items = wl.make_pass(seed, index)
        first = first or items
        lat, fails, _ = run_pass(wl, items, budget, between=between)
        passes.append((lat, fails))
        elapsed = perf_counter() - t_start
        if elapsed / (index + 1) * (index + 2) > seconds:
            return first, passes
        index += 1


def blocks(passes, p):
    """Consecutive passes grouped so that each group holds at least ten
    samples beyond its p-th percentile; a short remainder joins the group
    before it."""
    per_pass = len(passes[0][0])
    size = max(1, math.ceil(10 / (1 - p / 100) / per_pass))
    groups = [passes[i:i + size] for i in range(0, len(passes), size)]
    if len(groups) > 1 and len(groups[-1]) < size:
        short = groups.pop()
        groups[-1] = groups[-1] + short
    return [[x for lat, _ in group for x in lat] for group in groups]


def block_percentile(passes, p):
    """The p-th item latency of each block, averaged over the run's blocks.

    The machine alternates between fast and slow phases of a few seconds.
    A percentile of all a run's samples jumps between the two phases' values
    as their shares of the run cross a threshold; this mean over time moves
    smoothly with the shares instead."""
    groups = blocks(passes, p)
    value = statistics.fmean(percentile(g, p) for g in groups)
    return value, {
        "percentile": p,
        "blocks": len(groups),
        "samples_per_block": min(len(g) for g in groups),
        "beyond_per_block": min(len(g) - math.floor((len(g) - 1) * p / 100) - 1 for g in groups),
    }


def end_to_end(wl, seed, seconds, budget):
    setup = SetupProbe(wl.name, seconds)
    first, passes = measure(wl, seed, seconds, budget, setup.maybe)
    p50, _ = block_percentile(passes, 50)
    tail, tail_info = block_percentile(passes, wl.tail_percentile)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    values = {
        "setup_s": setup.median(),
        "items_per_s": sum(len(lat) for lat, _ in passes) / sum(sum(lat) for lat, _ in passes),
        "item_p50_ms": p50 * 1000,
        "item_tail_ms": tail * 1000,
        "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024,
    }
    metrics = {name: (values[name], unit, better, None) for name, unit, better in END_TO_END}
    failures = [f for _, fails in passes for f in fails]
    extra = {
        "passes": len(passes),
        "pass_item_s": [sum(lat) for lat, _ in passes],
        "tail": tail_info,
        "setup_samples": setup.samples,
        "rss_of": "largest child" if wl.name == "cli" else "this process",
    }
    return first, sum(len(lat) for lat, _ in passes), failures, metrics, extra


def traced(wl, seed, budget):
    from tracer import FUNCTIONS, Tracer, per_layer_metrics

    items = wl.make_pass(seed, 0)
    # Untraced before and after the traced pass; the faster of the two is the
    # baseline, so one-time warm-up is not charged to tracing.
    lat0, fails0, ops0 = run_pass(wl, items, budget)
    tracer = Tracer(budget.used)
    with tracer:
        lat1, fails1, ops1 = run_pass(wl, items, budget, tracer)
    lat2, fails2, _ = run_pass(wl, items, budget)
    untraced_s = min(sum(lat0), sum(lat2))
    traced_s = sum(lat1)
    by_name, cmul_in_qmul, spans = tracer.summary()
    failures = fails0 + fails1 + fails2
    values = {}
    for name in FUNCTIONS:
        values[f"{name}.calls"], values[f"{name}.self_s"] = by_name[name]

    def ratio(a, b):
        return a / b if b else 0.0

    counts = tracer.counts
    values.update({
        "cli.import_s": import_seconds(),
        "budget.ops": ops1,
        "cyclo.CycElem.mul.coeff_products": counts["coeff_products"],
        "cyclo.mul_per_qpoly_term_pair": ratio(cmul_in_qmul, counts["term_pairs"]),
        "mqfield.init_per_mul": ratio(
            by_name["mqfield.MQElem.init"][0], by_name["mqfield.MQElem.mul"][0]
        ),
        "qaffine.dim_Vr.ops_per_call": ratio(counts["dim_Vr.ops"], by_name["qaffine.dim_Vr"][0]),
        "trace.overhead_s": traced_s - untraced_s,
        "fail_ratio": len(failures) / (3 * len(items)),
    })
    metrics = {
        name: (values[name], unit, "lower", moves)
        for name, unit, moves in per_layer_metrics()
    }
    spans_path = OUT / "spans" / f"{wl.name}-seed{seed}.csv.gz"
    tracer.write(spans_path)
    extra = {
        "spans": spans,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "untraced_item_s": untraced_s,
        "traced_item_s": traced_s,
        "budget_ops_untraced": ops0,
        "budget_cap": budget.cap(),
        "computed_counts": {
            "cyclo.CycElem.mul.coeff_products": "computed from argument sizes: "
            "nonzero coefficients of a times those of b, summed over calls",
        },
    }
    return items, 3 * len(items), failures, metrics, extra


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "gkbench" / "__init__.py").is_file():
        print(f"perfbench: no gkbench sources at {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import gkbench

    if Path(gkbench.__file__).resolve().parent != (SRC / "gkbench").resolve():
        print(f"perfbench: gkbench imported from {gkbench.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = importlib.import_module(f"wl_{args.workload}").Workload(ROOT)
    in_process = args.trace == 1 or args.workload != "cli"
    budget = None
    if in_process:
        from gkbench import budget
    if args.trace:
        if args.workload == "cli":
            wl.go_inprocess()
        items, attempted, failures, metrics, extra = traced(wl, args.seed, budget)
    else:
        items, attempted, failures, metrics, extra = end_to_end(wl, args.seed, args.seconds, budget)

    results = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "host": platform.node(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "input_digest": input_digest(items),
        "items": {
            "per_pass": len(items),
            "attempted": attempted,
            "per_stratum": dict(sorted(Counter(item[0] for item in items).items())),
        },
        **extra,
        "metrics": {
            name: {"value": v, "unit": unit, "better": better, **({"moves": moves} if moves else {})}
            for name, (v, unit, better, moves) in metrics.items()
        },
        "failures": failures[:50],
    }
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")

    for line in failures[:10]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{attempted} items, {len(failures)} failed, input digest {results['input_digest']}; "
        f"results in {path.relative_to(ROOT)}"
    )
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit, _, _) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
