"""Span tracer for the traced pass.

It wraps gkbench's public functions from outside (the library is not edited)
and records one span per call: name, start, end, parent span and item id.
Spans live in flat in-memory arrays and are written once, at the end.  A call
that re-enters the function of the innermost open span (the recursion inside
MQElem.inv or the to_* evaluators) is folded into that span, so `calls`
counts the calls a caller made.  Self time is a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from time import perf_counter

# Each row: the end-to-end metric and workload its functions should move, and
# the functions as (metric name, "module:attribute" targets).  One metric may
# cover several functions: parser.to_value is the four to_* evaluators.
LAYERS = (
    (
        "items_per_s and item_p50_ms on twisted; no change on quantum",
        (
            ("mqfield.MQElem.init", "mqfield:MQElem.__init__"),
            ("mqfield.MQElem.mul", "mqfield:MQElem.__mul__"),
            ("mqfield.MQElem.inv", "mqfield:MQElem.inv"),
            ("mqfield.MQElem.apply_f", "mqfield:MQElem.apply_f"),
            ("mqfield.MQElem.fixed_by_all", "mqfield:MQElem.fixed_by_all"),
            ("ordgroup.GroupElem.mul", "ordgroup:GroupElem.__mul__"),
            ("ordgroup.GroupElem.twist", "ordgroup:GroupElem.twist"),
            ("twistring.TwistedElem.mul", "twistring:TwistedElem.__mul__"),
            ("twistring.TwistedElem.is_central_by_form", "twistring:TwistedElem.is_central_by_form"),
            ("twistring.TwistedElem.is_central_by_commutation", "twistring:TwistedElem.is_central_by_commutation"),
        ),
    ),
    (
        "items_per_s and item_tail_ms on quantum; no change on twisted",
        (
            ("cyclo.CycElem.init", "cyclo:CycElem.__init__"),
            ("cyclo.CycElem.mul", "cyclo:CycElem.__mul__"),
            ("cyclo.CycElem.inv", "cyclo:CycElem.inv"),
            ("cyclo.CycElem.order", "cyclo:CycElem.order"),
            ("cyclo.CycField.element", "cyclo:CycField.element"),
            ("qaffine.QAlgebra.init", "qaffine:QAlgebra.__init__"),
            ("qaffine.normal_form", "qaffine:normal_form"),
            ("qaffine.QPoly.mul", "qaffine:QPoly.__mul__"),
            ("qaffine.QPoly.pow", "qaffine:QPoly.__pow__"),
            ("qaffine.hom_check", "qaffine:hom_check"),
        ),
    ),
    (
        "items_per_s and item_tail_ms on cli",
        (
            ("qaffine.dim_Vr", "qaffine:dim_Vr"),
            ("gammalab.rn_dim", "gammalab:rn_dim"),
            ("gammalab.gamma_coeff", "gammalab:gamma_coeff"),
            ("growth.degree_estimate", "growth:degree_estimate"),
        ),
    ),
    (
        "item_p50_ms and setup_s on cli",
        (
            ("parser.parse", "parser:parse"),
            ("parser.to_value", "parser:to_field parser:to_group parser:to_twisted parser:to_quantum"),
            ("reports.emit", "reports:emit"),
            ("cli.main", "cli:main"),
        ),
    ),
)

FUNCTIONS = tuple(name for _, rows in LAYERS for name, _ in rows)

# Counts and ratios of the traced run besides calls and self time:
# (metric, unit, end-to-end metric and workload it should move).
EXTRA = (
    ("cli.import_s", "s", "setup_s on cli"),
    ("budget.ops", "count", "none: budget charges must not move without a named reason"),
    ("cyclo.CycElem.mul.coeff_products", "count", "items_per_s on quantum"),
    ("cyclo.mul_per_qpoly_term_pair", "ratio", "items_per_s and item_tail_ms on quantum"),
    ("mqfield.init_per_mul", "ratio", "items_per_s and item_p50_ms on twisted"),
    ("qaffine.dim_Vr.ops_per_call", "ops/call", "items_per_s and item_tail_ms on cli"),
    ("trace.overhead_s", "s", "none: cost of tracing itself"),
    ("fail_ratio", "ratio", "none: 0 on a correct program"),
)


def per_layer_metrics():
    """(name, unit, moves) for every per-layer metric, in report order."""
    out = []
    for moves, rows in LAYERS:
        for name, _ in rows:
            out.append((f"{name}.calls", "count", moves))
            out.append((f"{name}.self_s", "s", moves))
    out.extend(EXTRA)
    return out


def _nnz_product(a, b):
    """Coefficient products a CycElem product does: its kernel skips zeros."""
    return sum(1 for c in a.coeffs if c) * sum(1 for c in getattr(b, "coeffs", ()) if c)


def _term_pairs(a, b):
    return len(a.terms) * len(getattr(b, "terms", ()))


class Tracer:
    """Installs wrappers around the LAYERS functions while active."""

    def __init__(self, used_ops):
        self.used_ops = used_ops  # gkbench.budget.used
        self.names = list(FUNCTIONS)
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.parent = array("q")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.item_id = -1
        self.counts = {"coeff_products": 0, "term_pairs": 0, "dim_Vr.ops": 0}
        self._undo = []

    # --- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn):
        nid = self.ids[name]
        names, parents, items = self.span_name, self.parent, self.item
        starts, ends = self.start, self.end
        counts = self.counts
        tracer = self
        count_key, count_fn = {
            "cyclo.CycElem.mul": ("coeff_products", _nnz_product),
            "qaffine.QPoly.mul": ("term_pairs", _term_pairs),
        }.get(name, (None, None))
        used_ops = self.used_ops if name == "qaffine.dim_Vr" else None

        def traced(*args, **kwargs):
            parent = tracer.current
            if parent >= 0 and names[parent] == nid:
                return fn(*args, **kwargs)
            if count_fn is not None:
                counts[count_key] += count_fn(*args)
            idx = len(names)
            names.append(nid)
            parents.append(parent)
            items.append(tracer.item_id)
            starts.append(0.0)
            ends.append(0.0)
            tracer.current = idx
            ops0 = used_ops() if used_ops else 0
            starts[idx] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                tracer.current = parent
                if used_ops:
                    counts["dim_Vr.ops"] += used_ops() - ops0

        return traced

    def install(self):
        for _, rows in LAYERS:
            for name, targets in rows:
                for target in targets.split():
                    module_name, attr = target.split(":")
                    module = importlib.import_module(f"gkbench.{module_name}")
                    if "." in attr:
                        cls_name, meth = attr.split(".")
                        owner = getattr(module, cls_name)
                        original = owner.__dict__[meth]
                        self._set(owner, meth, self._wrap(name, original), original)
                    else:
                        original = getattr(module, attr)
                        wrapped = self._wrap(name, original)
                        # rebind every alias: modules call each other through
                        # names imported with `from .x import f`
                        for mod_name, mod in list(sys.modules.items()):
                            if mod_name == "gkbench" or mod_name.startswith("gkbench."):
                                for key, value in list(vars(mod).items()):
                                    if value is original:
                                        self._set(mod, key, wrapped, original)
        return self

    def _set(self, owner, attr, value, original):
        setattr(owner, attr, value)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # --- results -----------------------------------------------------------

    def summary(self):
        """Per function: calls and self seconds; plus the derived counts."""
        n = len(self.span_name)
        names, parents, starts, ends = self.span_name, self.parent, self.start, self.end
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            nid = names[i]
            calls[nid] += 1
            self_s[nid] += ends[i] - starts[i] - child[i]
        # CycElem products made on behalf of a QPoly product (directly or
        # through normal_form); parents precede children in the arrays.
        qmul, cmul = self.ids["qaffine.QPoly.mul"], self.ids["cyclo.CycElem.mul"]
        under = bytearray(n)
        cmul_in_qmul = 0
        for i in range(n):
            p = parents[i]
            if p >= 0 and (names[p] == qmul or under[p]):
                under[i] = 1
                if names[i] == cmul:
                    cmul_in_qmul += 1
        by_name = {
            name: (calls[i], self_s[i]) for i, name in enumerate(self.names)
        }
        return by_name, cmul_in_qmul, n

    def write(self, path):
        """All spans as gzip-compressed CSV, written once."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span,name,start_s,end_s,parent,item\n")
            names = self.names
            for i in range(len(self.span_name)):
                out.write(
                    f"{i},{names[self.span_name[i]]},{self.start[i]!r},"
                    f"{self.end[i]!r},{self.parent[i]},{self.item[i]}\n"
                )
