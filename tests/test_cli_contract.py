"""CLI contract on malformed environment input: exit 2, one stderr line,
never a traceback."""

import os
import subprocess
import sys
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
