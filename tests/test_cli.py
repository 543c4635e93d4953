"""CLI wiring: subcommands, formats, exit codes, files, determinism."""

import io
import json
import os
import re
import shlex
import subprocess
import sys
from decimal import Decimal
from math import comb
from pathlib import Path

import pytest

from gkbench import budget
from gkbench.campaigns import campaign_names, run_campaign
from gkbench.cli import main
from gkbench.gammalab import rn_dim, rn_dim_series


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine_lines(out):
    return [json.loads(line) for line in out.strip().splitlines() if line]


def test_verify_step4_emits_twelve_passing_records(capsys):
    code, out, _ = run(capsys, "verify", "step4", "--n", "6", "--format", "machine")
    records = machine_lines(out)
    assert code == 0
    assert len(records) == 12
    assert all(r["verdict"] == "pass" for r in records)
    claims = [r["claim_id"] for r in records]
    assert claims == sorted(claims)


def test_verify_unknown_campaign_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "does-not-exist")
    assert code == 2
    assert "unknown campaign" in err
    # the error is where the names are listed: `verify --help` leaves them out
    for name in campaign_names():
        assert name in err
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--help"])
    assert exit_info.value.code == 0
    assert "campaign" in capsys.readouterr().out


@pytest.mark.parametrize("campaign", ["step4", "step4-oracle"])
@pytest.mark.parametrize("n", ["0", "-3"])
def test_verify_step4_needs_a_positive_degree(capsys, campaign, n):
    code, out, err = run(capsys, "verify", campaign, "--n", n)
    assert (code, out, err) == (2, "", "error: degree must be at least 1\n")


@pytest.mark.parametrize(
    "campaign, option, value",
    [
        ("tower", "p", "5"),
        ("centrality", "n", "5"),
        ("step3", "n", "2"),
        ("step4", "p", "3"),
        ("confluence", "rmax", "3"),
    ],
)
def test_verify_rejects_an_option_its_campaign_does_not_read(capsys, campaign, option, value):
    code, out, err = run(capsys, "verify", campaign, f"--{option}", value)
    message = f"error: campaign {campaign!r} takes no parameter {option!r}\n"
    assert (code, out, err) == (2, "", message)


def test_verify_all_hands_each_campaign_only_its_options(capsys):
    code, _, err = run(capsys, "verify", "all", "--n", "3", "--p", "2", "--format", "machine")
    assert (code, err) == (0, "")


def test_gamma_coeff(capsys):
    code, out, _ = run(
        capsys,
        "gamma", "coeff", "--power", "4", "x1^-1*x2^-1*x3^-1*x4^-1",
        "--format", "machine",
    )
    assert code == 0
    assert machine_lines(out)[0]["outputs"]["coefficient"] == 24


@pytest.mark.parametrize("command", [("verify", "step8"), ("gamma", "growth")])
@pytest.mark.parametrize("rmax", ["3", "4", "8"])
def test_short_rmax_names_the_fit_window(capsys, command, rmax):
    code, out, err = run(capsys, *command, "--n", "2", "--rmax", rmax)
    message = "error: rmax must be at least 9 for n = 2: the fit needs 6 points from r = 4\n"
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("command", [("verify", "step8"), ("gamma", "growth")])
def test_shortest_rmax_is_accepted(capsys, command):
    code, _, err = run(capsys, *command, "--n", "2", "--rmax", "9")
    assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "command", [("quantum", "growth", "--n", "2"), ("verify", "lemma5.1"), ("verify", "theorem6.1")]
)
@pytest.mark.parametrize("rmax", ["1", "3", "5"])
def test_short_quantum_rmax_names_the_fit_window(capsys, command, rmax):
    code, out, err = run(capsys, *command, "--rmax", rmax)
    message = "error: rmax must be at least 6: the fit needs 6 points from r = 1\n"
    assert (code, out, err) == (2, "", message)


# dim V^r = C(n + r, n) is binomial, so 6 points certify every n, 4 and 5
# included: theorem6.1 runs n = 1..4.
@pytest.mark.parametrize(
    "command",
    [
        ("quantum", "growth", "--n", "2", "--rmax", "6"),
        ("verify", "lemma5.1", "--rmax", "6"),
        ("verify", "theorem6.1", "--rmax", "6"),
        ("quantum", "growth", "--n", "4", "--rmax", "6"),
        ("quantum", "growth", "--n", "5", "--rmax", "6"),
    ],
)
def test_shortest_quantum_rmax_is_accepted(capsys, command):
    # exit 0: every degree claim read its n, 4 at the longest chain
    code, _, err = run(capsys, *command)
    assert (code, err) == (0, "")


# One point short of the n + 3 a difference certificate needs, the binomial
# ratio still names degree n: theorem6.1 reads n = 4 at the end of its chain.
@pytest.mark.parametrize(
    "command, n, difference_window",
    [
        (("quantum", "growth", "--n", "4"), 4, 7),
        (("verify", "theorem6.1"), 4, 7),
        (("quantum", "growth", "--n", "5"), 5, 8),
    ],
)
def test_short_quantum_rmax_names_the_degree(capsys, command, n, difference_window):
    rmax = str(difference_window - 1)
    code, out, err = run(capsys, *command, "--rmax", rmax, "--format", "machine")
    assert (code, err) == (0, "")
    degrees = [r for r in machine_lines(out) if r["claim_id"].split(".")[-1] in ("degree", f"n{n:02d}")]
    assert [(r["inputs"]["n"], r["outputs"]["degree"], r["verdict"]) for r in degrees] == [(n, str(n), "pass")]


def window(fn, lo, hi):
    return [(r, fn(r)) for r in range(lo, hi + 1)]


@pytest.mark.parametrize(
    "points, degree, from_r, line, code",
    [
        (window(lambda r: comb(r + 6, 6), 1, 8), "6", 1, None, 0),  # two points short of differences
        (window(lambda r: comb(r + 11, 11), 1, 13), "11", 1, None, 0),
        # a window bound is no degree, so it fails like inconclusive
        (window(lambda r: r**r, 1, 12), ">=11", None, None, 1),
        (window(lambda r: 2**r, 1, 14), ">=13", None, None, 1),
        # a polynomial of degree 10 seen through 8 points: the bound holds
        (window(lambda r: 10**12 + r**10, 10, 17), ">=7", None, None, 1),
        # 16r - 16 from r = 3 on, its first two values off the line: the
        # suffix from r = 3 certifies degree 1 and reads the line
        (rn_dim_series(2, 12), "1", 3, (16, -16), 0),
        (window(lambda r: comb(r + 6, 6) + r, 1, 8), "inconclusive", None, None, 1),
    ],
    ids=["C(r+6,6)", "C(r+11,11)", "r^r", "2^r", "10^12+r^10", "rn_dim_series(2,12)", "C(r+6,6)+r"],
)
def test_growth_estimate_reads_each_verdict(capsys, monkeypatch, points, degree, from_r, line, code):
    monkeypatch.setattr(sys, "stdin", io.StringIO("".join(f"{r},{d}\n" for r, d in points)))
    got, out, err = run(capsys, "growth", "estimate", "-", "--format", "machine")
    assert (got, err) == (code, "")
    record, slope = machine_lines(out)
    assert (record["outputs"]["degree"], record["verdict"]) == (degree, "fail" if code else "pass")
    assert record["outputs"]["from_r"] == from_r
    # the slope record holds a number exactly when degree <= 1 is certified
    assert (slope["outputs"]["slope"], slope["outputs"]["offset"]) == (line or ("nonlinear", None))


def test_growth_estimate_walk_is_charged_to_the_budget(capsys, monkeypatch):
    # rows of 200, 199, ... values 2^r, charged in 64-bit words before each
    # row is formed: 422 for the points; 421 for row 1, from the points
    # past the first; then row 2, from 2^2 .. 2^199, passes the cap at 417
    monkeypatch.setattr(sys, "stdin", io.StringIO("".join(f"{r},{2**r}\n" for r in range(1, 201))))
    budget.set_cap(1000)
    try:
        code, out, err = run(capsys, "growth", "estimate", "-")
    finally:
        budget.set_cap(budget.DEFAULT_CAP)
    assert (code, out) == (2, "")
    assert err == "error: operation budget exhausted: 1260 > 1000 (raise WORKBENCH_MAX_OPS to allow more work)\n"


def test_growth_estimate_of_wide_values_exhausts_the_default_budget(tmp_path, capsys):
    # 6000 points of 2^r: the rows of the difference table hold far more
    # 64-bit words than the default cap, so the walk stops with exit 2
    series = tmp_path / "series.txt"
    series.write_text("".join(f"{r},{2**r}\n" for r in range(1, 6001)))
    budget.set_cap(budget.DEFAULT_CAP)
    code, out, err = run(capsys, "growth", "estimate", str(series))
    assert (code, out) == (2, "")
    assert err.startswith("error: operation budget exhausted: ")
    assert err.endswith(f" > {budget.DEFAULT_CAP} (raise WORKBENCH_MAX_OPS to allow more work)\n")


@pytest.mark.parametrize(
    "argv, claims",
    [
        (("gamma", "growth", "--n", "1"), ["gamma.growth.slope", "gamma.growth.degree"]),
        (("growth", "estimate", "-"), ["growth.degree", "growth.slope"]),
    ],
)
def test_two_record_subcommands_keep_their_order(capsys, monkeypatch, argv, claims):
    monkeypatch.setattr(sys, "stdin", io.StringIO("".join(f"{r},{3 * r + 1}\n" for r in range(1, 9))))
    code, out, _ = run(capsys, *argv, "--format", "machine")
    records = machine_lines(out)
    assert code == 0
    assert [r["claim_id"] for r in records] == claims
    assert all(type(r["millis"]) is int for r in records)


def test_gamma_coeff_rejects_bad_target(capsys):
    code, _, err = run(capsys, "gamma", "coeff", "--power", "1", "x1")
    assert code == 2
    assert "nonpositive" in err


def test_gamma_witness(capsys):
    code, out, _ = run(capsys, "gamma", "witness", "--degree", "4", "--format", "machine")
    record = machine_lines(out)[0]
    assert code == 0
    assert record["outputs"]["diagonal"] == [1, 2, 6, 24]
    assert record["outputs"]["independent"] is True


def test_gamma_growth_and_estimate_pipeline(tmp_path, capsys):
    series_file = tmp_path / "series.txt"
    code, out, _ = run(
        capsys,
        "gamma", "growth", "--n", "2", "--rmax", "16",
        "--series-out", str(series_file), "--format", "machine",
    )
    assert code == 0
    records = {r["claim_id"]: r for r in machine_lines(out)}
    assert records["gamma.growth.slope"]["outputs"]["slope"] == 16
    assert records["gamma.growth.degree"]["outputs"]["degree"] == "1"
    text = series_file.read_text()
    assert text.splitlines()[0] == f"4,{rn_dim(2, 4)}"

    code, out, _ = run(capsys, "growth", "estimate", str(series_file), "--format", "machine")
    assert code == 0
    records = {r["claim_id"]: r for r in machine_lines(out)}
    assert records["growth.degree"]["outputs"]["degree"] == "1"
    assert records["growth.slope"]["outputs"]["slope"] == 16


def test_quantum_nf(capsys):
    code, out, _ = run(
        capsys, "quantum", "nf", "--n", "2", "--p", "2", "--t", "1", "x2*x1",
        "--format", "machine",
    )
    assert code == 0
    assert machine_lines(out)[0]["outputs"]["normal_form"] == "-z*x1*x2"


@pytest.mark.parametrize(
    "expr, normal_form",
    [
        ("x1^20000", "x1^20000"),
        ("x2^6000*x1^6000", "x1^6000*x2^6000"),
        ("x2^4999*x1^4999", "-z*x1^4999*x2^4999"),  # q^-(4999^2) = q^-1
    ],
)
def test_quantum_nf_long_words(capsys, expr, normal_form):
    # words whose swap-by-swap rewriting would exhaust the default budget
    code, out, _ = run(capsys, "quantum", "nf", "--n", "2", expr, "--format", "machine")
    assert code == 0
    assert machine_lines(out)[0]["outputs"]["normal_form"] == normal_form


def test_quantum_mul(capsys):
    code, out, _ = run(
        capsys, "quantum", "mul", "--n", "2", "--p", "2", "--t", "1",
        "x1 + x2", "x1 - x2", "--format", "machine",
    )
    assert code == 0
    product = machine_lines(out)[0]["outputs"]["product"]
    assert product == "x1^2 + (-1 - z)*x1*x2 - x2^2"


def test_quantum_growth(capsys):
    code, out, _ = run(
        capsys, "quantum", "growth", "--n", "3", "--p", "2", "--t", "1",
        "--rmax", "12", "--format", "machine",
    )
    assert code == 0
    assert machine_lines(out)[0]["outputs"]["degree"] == "3"


def test_quantum_hom_check_default_power_map(capsys):
    code, out, _ = run(
        capsys, "quantum", "hom-check", "--n", "2", "--p", "2", "--t", "2",
        "--format", "machine",
    )
    assert code == 0
    assert machine_lines(out)[0]["outputs"]["ok"] is True


def test_quantum_hom_check_swap_fails_with_exit_one(capsys):
    code, out, _ = run(
        capsys, "quantum", "hom-check", "--n", "2", "--p", "2", "--t", "1",
        "--src-t", "1", "--images", "x2; x1", "--format", "machine",
    )
    assert code == 1
    record = machine_lines(out)[0]
    assert record["outputs"]["ok"] is False
    assert record["outputs"]["failing_pair"] == [1, 2]


def test_verify_lemma51_reports_growth_degree_three(capsys):
    code, out, _ = run(
        capsys, "verify", "lemma5.1", "--n", "3", "--p", "2", "--t", "1",
        "--rmax", "12", "--format", "machine",
    )
    assert code == 0
    records = {r["claim_id"]: r for r in machine_lines(out)}
    assert records["lemma5.1.growth"]["outputs"]["degree"] == "3"


def test_verify_step8_reports_slope_sixteen(capsys):
    code, out, _ = run(
        capsys, "verify", "step8", "--n", "2", "--rmax", "16", "--format", "machine",
    )
    assert code == 0
    records = {r["claim_id"]: r for r in machine_lines(out)}
    assert records["step8.slope.n02"]["outputs"]["slope"] == 16


def test_eval_contexts(capsys):
    code, out, _ = run(capsys, "eval", "--context", "field", "1/2 + s1*s2", "--format", "machine")
    assert code == 0
    assert machine_lines(out)[0]["outputs"]["canonical"] == "1/2 + s1*s2"

    code, out, _ = run(capsys, "eval", "--context", "twisted", "x1*s1", "--format", "machine")
    assert code == 0
    assert machine_lines(out)[0]["outputs"]["canonical"] == "-s1*x1"


def test_eval_parse_error_reports_position(capsys):
    code, _, err = run(capsys, "eval", "--context", "quantum", "g")
    assert code == 2
    assert "1:1" in err


@pytest.mark.parametrize("expr, column", [("1 + {}", 5), ("s1^{}", 4), ("1/{}", 3)])
def test_integer_past_the_digit_limit_is_a_positioned_parse_error(capsys, expr, column):
    digits = "9" * 5000
    code, out, err = run(capsys, "eval", "--context", "field", expr.format(digits))
    limit = sys.get_int_max_str_digits()  # 4300 unless the environment sets it
    message = f"error: 1:{column}: integer of 5000 digits: more than {limit}, the interpreter's limit\n"
    assert (code, out, err) == (2, "", message)


# Answers of more digits than the interpreter writes with str (4,300 by
# default): 2^20000 has 6,021 and C(20000, 10000) 6,019.  The values are
# compared through Decimal, which has no such limit.
_PAST_THE_DIGIT_LIMIT = [
    (("eval", "--context", "field", "2^20000"), "canonical", 2**20000),
    (("eval", "--context", "twisted", "2^20000"), "canonical", 2**20000),
    (("quantum", "nf", "--n", "2", "--p", "5", "2^20000"), "normal_form", 2**20000),
    (("gamma", "coeff", "--power", "20000", "x1^-10000*x2^-10000"), "coefficient", comb(20000, 10000)),
]


@pytest.mark.parametrize("argv, key, value", _PAST_THE_DIGIT_LIMIT,
                         ids=[" ".join(argv) for argv, _, _ in _PAST_THE_DIGIT_LIMIT])
def test_exact_answers_past_the_digit_limit(capsys, argv, key, value):
    digits = str(Decimal(value))
    code, out, err = run(capsys, *argv, "--format", "machine")
    assert (code, err) == (0, "")
    [line] = out.splitlines()
    assert Decimal(json.loads(line, parse_int=Decimal)["outputs"][key]) == value
    assert (f'"{key}": {digits}' if key == "coefficient" else f'"{key}": "{digits}"') in line
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and f"{key}={digits[:45]}..." in out
    budget.set_cap(1000)
    try:
        code, out, err = run(capsys, *argv)
    finally:
        budget.set_cap(budget.DEFAULT_CAP)
    assert (code, out) == (2, "") and err.startswith("error: operation budget exhausted: ")


def test_out_flag_writes_file(tmp_path, capsys):
    out_file = tmp_path / "report.jsonl"
    code, out, _ = run(
        capsys, "verify", "tower", "--format", "machine", "--out", str(out_file)
    )
    assert code == 0
    assert out == ""
    lines = machine_lines(out_file.read_text())
    assert lines and all(r["verdict"] == "pass" for r in lines)


def test_campaigns_deterministic_given_seed():
    def strip_millis(records):
        return [(r.claim_id, tuple(sorted(map(str, r.inputs.items()))),
            tuple(sorted((k, str(v)) for k, v in r.outputs.items())), r.verdict)
            for r in records]

    first = run_campaign("step3", {"trials": 120}, seed=42)
    second = run_campaign("step3", {"trials": 120}, seed=42)
    assert strip_millis(first) == strip_millis(second)


def test_budget_cap_enforced():
    budget.set_cap(10)
    try:
        with pytest.raises(budget.WorkBudgetExceeded):
            rn_dim(4, 6)  # charges 256 > 10
    finally:
        budget.set_cap(budget.DEFAULT_CAP)


def test_budget_env_var_caps_cli_subprocess():
    env = dict(os.environ, WORKBENCH_MAX_OPS="10")
    proc = subprocess.run(
        [sys.executable, "-m", "gkbench.cli", "verify", "step4-oracle"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert "budget" in proc.stderr


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """The `gkbench` lines of the README's command-line block, in order,
    each with the exit code its comment documents (0 unless "exits N")."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        if line.startswith("gkbench "):
            documented = re.search(r"#.*\bexits (\d)", line)
            yield shlex.split(line, comments=True)[1:], int(documented[1]) if documented else 0


def test_readme_command_lines_exit_as_documented(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the lines write series.txt and report.jsonl
    commands = list(readme_commands())
    assert len(commands) == 17
    for argv, want in commands:
        code = main(argv)
        err = capsys.readouterr().err
        assert (code, err) == (want, ""), argv
