"""CLI contract on malformed environment input: exit 2, one stderr line,
never a traceback."""

import json
import os
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

from gkbench import budget

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("value", ["abc", "", "1e6"])
def test_malformed_max_ops_exits_2_naming_the_variable(value):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, WORKBENCH_MAX_OPS=value, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "gkbench.cli", "eval", "1+1", "--context", "field"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "WORKBENCH_MAX_OPS" in lines[0]
    assert "Traceback" not in proc.stderr


def test_malformed_max_ops_is_a_value_error_in_the_library(monkeypatch):
    monkeypatch.setenv("WORKBENCH_MAX_OPS", "abc")
    with pytest.raises(ValueError, match="WORKBENCH_MAX_OPS"):
        budget._cap_from_env()
    monkeypatch.setenv("WORKBENCH_MAX_OPS", "250")
    assert budget._cap_from_env() == 250


def test_deep_nesting_exits_2_with_one_line():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    expr = "(" * 3000 + "1" + ")" * 3000
    proc = subprocess.run(
        [sys.executable, "-m", "gkbench.cli", "eval", "--context", "field", expr],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: 1:201: parentheses nested deeper than 200 levels"]


def _cli(*argv, preexec_fn=None, **env):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **env)
    return subprocess.run(
        [sys.executable, "-m", "gkbench.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=preexec_fn,
    )


# Large exponents run only under small caps: a build that fails to charge
# powers then computes a few kilobytes, not gigabytes.
@pytest.mark.parametrize(
    "argv, cap",
    [
        (("--context", "field", "(s1+1)^2000"), "1"),
        (("--context", "field", "2^100000"), "1"),
        (("--context", "field", "2^100000"), "1000"),
        (("--context", "field", "(1/3 + s2)^-3000"), "1000"),
        (("--context", "twisted", "(2*x1)^-20000"), "1000"),
        (("--context", "quantum", "(2*z)^-20000"), "1000"),
        (("--context", "quantum", "(x1 + z)^2000"), "1000"),
    ],
)
def test_powers_are_charged_to_the_budget(argv, cap):
    proc = _cli("eval", *argv, WORKBENCH_MAX_OPS=cap)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "budget exhausted" in lines[0], proc.stderr


# Fields of degree 2^79, about 10^12, at least 2^(2*10^9) and about 10^36:
# refused from the degree before an element or p**(2t) is built, and before
# the prime 10^18 + 3 is trial-divided.
@pytest.mark.parametrize(
    "options",
    [
        ("--t", "40"),
        ("--p", "1000003", "--t", "1"),
        ("--t", "1000000000"),
        ("--p", "1000000000000000003", "--t", "1"),
    ],
)
def test_a_field_past_the_budget_exits_2_promptly(options):
    start = time.perf_counter()
    proc = _cli("quantum", "nf", "--n", "2", *options, "x1",
                WORKBENCH_MAX_OPS=str(budget.DEFAULT_CAP))
    # about 0.2 s; forming p**(2t) at t = 10^9 or trial-dividing 10^18 + 3 takes minutes
    assert time.perf_counter() - start < 5
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: field degree "), proc.stderr
    assert "exceeds the operation budget 100000000" in lines[0]


# A basis of 200000 primes, or one sized from the index 10^20, is refused
# once its trial division, charged per candidate, passes the default cap
# (about 1 s); an odd exponent at that index is refused before its
# odd-exponent mask, a bit per index, is built; 4^n binary parts of the
# gamma model, and a trial division of 10^18 + 3 at t = 0, are refused
# before 4^n is formed or 10^18 + 3 is trial-divided; a quantum algebra of
# more generators than the cap, before a monomial of that many exponents;
# the n power-map images of n exponents each past the cap, before them; and
# a power of 12 million digits, cheap to compute, before its quadratic
# conversion to decimal text.
_EXHAUSTED = "error: operation budget exhausted: "
_ODD_INDEX = "error: group index 99999999999999999999 with an odd exponent: its mask of "
_PARTS = "error: the count of 4^{} binary parts exceeds the operation budget "
_WIDTH = "error: generator count {} (exponents per monomial) exceeds the operation budget "
_IMAGES = "error: image size 10000000000 (100000 generator images of 100000 exponents) exceeds "


def _limit_address_space():
    """Cap a child's address space at 2 GiB: a request that sizes a list from
    a huge count (10^9 exponents is about 8 GB) then fails at once instead of
    filling the machine's memory."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize(
    "argv, message",
    [
        (("eval", "--context", "field", "--primes", "200000", "1"), _EXHAUSTED),
        (("eval", "--context", "twisted", "x99999999999999999999"), _EXHAUSTED),
        (("eval", "--context", "group", "x99999999999999999999"), _ODD_INDEX),
        (("gamma", "coeff", "--power", "1", "x99999999999999999999^-1"), _ODD_INDEX),
        (("gamma", "growth", "--n", "1000000000"), _PARTS.format(1000000000)),
        (("gamma", "growth", "--n", "100000"), _PARTS.format(100000)),
        (("gamma", "growth", "--n", "1000"), _PARTS.format(1000)),
        (("verify", "step8", "--n", "100000"), _PARTS.format(100000)),
        (("quantum", "nf", "--n", "2", "--p", "1000000000000000003", "--t", "0", "x1"),
         "error: trial division of 1000000000000000003 (500000001 candidates) exceeds "),
        (("quantum", "nf", "--n", "1000000000", "x1"), _WIDTH.format(1000000000)),
        (("eval", "--context", "quantum", "--n", "1000000000", "x1"), _WIDTH.format(1000000000)),
        (("quantum", "nf", "--n", str(2**80), "x1"), _WIDTH.format(2**80)),
        (("quantum", "hom-check", "--n", str(2**80)), _WIDTH.format(2**80)),
        (("eval", "--context", "quantum", "x99999999999999999999"), _WIDTH.format(99999999999999999999)),
        (("quantum", "hom-check", "--n", "100000", "--p", "2", "--t", "1"), _IMAGES),
        (("eval", "--context", "field", "(2^1000)^40000"), _EXHAUSTED),
    ],
)
def test_work_sized_by_a_huge_count_or_index_exits_2_promptly(argv, message):
    start = time.perf_counter()
    proc = _cli(*argv, preexec_fn=_limit_address_space, WORKBENCH_MAX_OPS=str(budget.DEFAULT_CAP))
    assert time.perf_counter() - start < 20
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message), proc.stderr
    assert "100000000" in lines[0]


def test_inverse_of_twisted_zero_exits_2_with_one_line():
    proc = _cli("eval", "--context", "twisted", "--primes", "2", "(x1 - x1)^-1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: cannot invert zero"]


@pytest.mark.parametrize(
    "expr, message",
    [
        ("\u0663*s1", "error: 1:1: unexpected character '\u0663'"),
        ("s\u0663", "error: 1:2: unexpected character '\u0663'"),
        ("2\u00b2", "error: 1:2: unexpected character '\u00b2'"),
    ],
)
def test_non_ascii_digits_exit_2_with_one_positioned_line(expr, message):
    proc = _cli("eval", "--context", "field", expr)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [message]


@pytest.mark.parametrize(
    "context, option, value, expr",
    [
        ("group", "--primes", "5", "x1"),
        ("group", "--n", "2", "x1"),
        ("group", "--p", "3", "x1"),
        ("field", "--n", "3", "s1"),
        ("field", "--t", "2", "s1"),
        ("twisted", "--p", "3", "x1"),
        ("quantum", "--primes", "2", "x1"),
    ],
)
def test_eval_rejects_an_option_its_context_does_not_read(context, option, value, expr):
    proc = _cli("eval", "--context", context, option, value, expr)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"error: context {context!r} takes no option {option!r}"]


@pytest.mark.parametrize(
    "options, canonical",
    [((), "-z*x1*x2"), (("--p", "2", "--t", "1"), "-z*x1*x2"), (("--p", "3"), "(-z^2 - z^5)*x1*x2")],
)
def test_eval_quantum_reads_p_and_t_with_defaults_2_and_1(options, canonical):
    proc = _cli("eval", "--context", "quantum", *options, "x2*x1", "--format", "machine")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["outputs"] == {"canonical": canonical}


def test_group_powers_stay_free():
    proc = _cli("eval", "--context", "group", "x1^200000000000", "--format", "machine",
                WORKBENCH_MAX_OPS="1")
    assert proc.returncode == 0, proc.stderr
    assert '"canonical": "x1^200000000000"' in proc.stdout


def test_unwritable_out_exits_2_with_one_line(tmp_path):
    for target in (tmp_path / "missing" / "report.txt", tmp_path):
        proc = _cli("eval", "--context", "field", "1", "--out", str(target))
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert str(target) in lines[0]


# Imports gkbench.cli, runs main(argv) when argv is given, then prints the exit
# status and the gkbench and heavy stdlib modules the interpreter has loaded.
_LOAD_PROBE = """
import sys
import gkbench.cli
code = None
if sys.argv[1:]:
    import contextlib, io
    with contextlib.redirect_stdout(io.StringIO()):
        code = gkbench.cli.main(sys.argv[1:])
heavy = ("gkbench", "dataclasses", "inspect", "fractions", "decimal")
print(code, *sorted(m for m in sys.modules if m.split(".")[0] in heavy))
"""


def _loaded(*argv, stdin=None):
    """(exit status or None, set of loaded modules) of one fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _LOAD_PROBE, *argv], input=stdin,
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stdout.split()
    return code, set(modules)


def test_cli_import_skips_dataclasses_and_inspect():
    code, modules = _loaded()
    assert code == "None"
    assert modules == {"gkbench", "gkbench.budget", "gkbench.reports", "gkbench.cli"}


_SERIES = "".join(f"{r},{r * r + 1}\n" for r in range(1, 13))


# Each request and the gkbench modules it must not load.  Only `verify`
# loads the campaigns and their samplers.  Values hold integer pairs, so
# `fractions` (and `decimal`, which it imports) loads only for a literal a/b
# and for `verify`'s samplers.
_REQUESTS = [
    (("growth", "estimate", "-"), {"parser", "mqfield", "cyclo"}),
    (("eval", "--context", "group", "x1^2*x2^-1"), {"cyclo", "qaffine", "mqfield"}),
    (("gamma", "coeff", "--power", "4", "x1^-2*x2^-2"), {"growth", "cyclo", "qaffine", "mqfield"}),
    (("gamma", "witness", "--degree", "3"), {"parser", "growth", "cyclo", "qaffine", "mqfield"}),
    (("gamma", "growth", "--n", "1"), {"parser", "cyclo", "qaffine", "mqfield"}),
    (("eval", "--context", "field", "s1 + 1/2"), {"cyclo", "qaffine", "twistring", "ordgroup"}),
    (("eval", "--context", "twisted", "x1*s1"), {"cyclo", "qaffine"}),
    (("eval", "--context", "quantum", "x2*x1"), {"twistring", "mqfield", "ordgroup"}),
    (("quantum", "nf", "--n", "2", "x2*x1"), {"twistring", "mqfield", "ordgroup"}),
    (("quantum", "mul", "--n", "2", "x2", "x1"), {"twistring", "mqfield", "ordgroup"}),
    (("quantum", "growth", "--n", "2", "--rmax", "8"), {"parser", "twistring", "mqfield"}),
    (("quantum", "hom-check", "--n", "2"),
     {"twistring", "mqfield", "growth", "parser", "ordgroup"}),
    (("quantum", "hom-check", "--n", "2", "--images", "x1^2;x2^2"),
     {"twistring", "mqfield", "growth", "ordgroup"}),
    (("verify", "step4", "--n", "2"), set()),
]


_NEED_FRACTIONS = [("eval", "--context", "field", "s1 + 1/2"), ("verify", "step4", "--n", "2")]


@pytest.mark.parametrize("argv, absent", _REQUESTS, ids=[" ".join(a) for a, _ in _REQUESTS])
def test_each_request_loads_only_the_modules_it_runs(argv, absent):
    code, modules = _loaded(*argv, stdin=_SERIES)
    assert code == "0"
    assert not {"dataclasses", "inspect"} & modules
    assert not {f"gkbench.{name}" for name in absent} & modules
    rationals = {"fractions", "decimal"}
    assert rationals & modules == (rationals if argv in _NEED_FRACTIONS else set())
    campaigns = {"gkbench.campaigns", "gkbench.sampling"}
    assert campaigns & modules == (campaigns if argv[0] == "verify" else set())


def test_growth_series_with_a_non_integer_field_names_its_line(tmp_path):
    path = tmp_path / "series.txt"
    path.write_text("1,2\n2,x\n", encoding="utf-8")
    proc = _cli("growth", "estimate", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: line 2: expected integers 'r,dim', got '2,x'"]


def test_growth_series_past_the_digit_limit_names_it(tmp_path):
    path = tmp_path / "series.txt"
    limit = sys.get_int_max_str_digits()  # 4300 unless the environment sets it
    path.write_text("1," + "9" * (limit + 700) + "\n", encoding="utf-8")
    proc = _cli("growth", "estimate", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: line 1: ") and f"more than {limit} digits" in line
    assert len(line) < 160


def test_short_exact_series_reads_inconclusive(tmp_path):
    # C(r+6, 6) + r over r = 1..8: too short for differences, not binomial
    path = tmp_path / "series.txt"
    path.write_text("".join(f"{r},{comb(r + 6, 6) + r}\n" for r in range(1, 9)), encoding="utf-8")
    proc = _cli("growth", "estimate", str(path), "--format", "machine")
    assert proc.returncode == 1
    degree = json.loads(proc.stdout.splitlines()[0])
    assert degree["claim_id"] == "growth.degree" and degree["verdict"] == "fail"
    assert degree["outputs"]["degree"] == "inconclusive"


@pytest.mark.parametrize("expr", ["x7", "x7*s1", "s1*x7"])
def test_twisted_support_outside_the_basis_exits_2(expr):
    proc = _cli("eval", "--context", "twisted", "--primes", "2", expr)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: group index 7 outside the coefficient basis range 1..2"
    ]


def test_gamma_coeff_factorials_are_charged():
    proc = _cli("gamma", "coeff", "--power", "1000", "x1^-500*x2^-500", WORKBENCH_MAX_OPS="1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "budget exhausted" in lines[0], proc.stderr


def test_witness_matrix_is_charged():
    proc = _cli("gamma", "witness", "--degree", "100", WORKBENCH_MAX_OPS="100000")
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "budget exhausted" in lines[0], proc.stderr


@pytest.mark.parametrize("n", ["0", "-3"])
def test_verify_step4_needs_degree_at_least_one(n):
    proc = _cli("verify", "step4", "--n", n)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: degree must be at least 1"]


# Explicit values are honoured, zero and empty included; negative ones and
# empty maps are bad input.
@pytest.mark.parametrize(
    "argv, code, out",
    [
        (("eval", "--context", "field", "--primes", "-2", "1"), 2, None),
        (("eval", "--context", "field", "--primes", "0", "s1"), 2, None),
        (("eval", "--context", "twisted", "--primes", "-1", "x1"), 2, None),
        (("eval", "--context", "quantum", "--n", "0", "x1"), 2, None),
        (("quantum", "hom-check", "--n", "2", "--images", ""), 2, None),
        (("eval", "--context", "field", "--primes", "0", "1/2"), 0, '"canonical": "1/2"'),
    ],
)
def test_explicit_zero_and_negative_values(argv, code, out):
    proc = _cli(*argv, "--format", "machine")
    assert proc.returncode == code, proc.stderr
    if out is None:
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    else:
        assert out in proc.stdout and proc.stderr == ""


def test_high_level_quantum_growth_runs_without_building_the_field():
    # the field at t = 12 has degree 2**23; the count never touches a
    # coefficient, so nothing may allocate in proportion to it
    proc = _cli("quantum", "growth", "--n", "2", "--t", "12", "--format", "machine")
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert '"degree": "2"' in proc.stdout
