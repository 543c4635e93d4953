"""The package namespace: every public name resolves, and importing the
package loads a submodule only when one of its names is used."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gkbench

SRC = Path(__file__).resolve().parent.parent / "src"
PERFBENCH = SRC.parent / "perfbench"


def test_every_public_name_resolves_to_its_submodule():
    for name in gkbench.__all__:
        module = importlib.import_module(f"gkbench.{gkbench._HOME[name]}")
        assert getattr(gkbench, name) is getattr(module, name)
    assert set(gkbench.__all__) <= set(dir(gkbench))


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from gkbench import *", namespace)
    assert set(gkbench.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        gkbench.no_such_name
    with pytest.raises(ImportError):
        exec("from gkbench import no_such_name", {})


def test_import_loads_submodules_on_use():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, gkbench\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('gkbench.'))\n"
        "print(loaded())\n"
        "gkbench.CycField(2, 1)\n"
        "print(loaded())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    first, second = proc.stdout.splitlines()
    assert first == "[]"
    assert "gkbench.cyclo" in second and "gkbench.campaigns" not in second


# Builds values in a fresh interpreter and prints the gkbench submodules it
# loaded, then the rational stdlib modules; the quantum values are the
# benchmark's own set-up.
_BUILD_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import gkbench, values
{build}
print(*sorted(m for m in sys.modules if m.startswith("gkbench.")))
print("stdlib", *sorted(m for m in ("fractions", "decimal", "numbers") if m in sys.modules))
"""


@pytest.mark.parametrize(
    "build, loaded",
    [
        ("values.build_quantum(gkbench)", {"budget", "cyclo", "qaffine", "ringops"}),
        # building a basis charges its trial division to the work budget
        ("gkbench.PrimeBasis.first(4)", {"budget", "mqfield", "ringops"}),
        ("assert gkbench.is_prime(7)", {"ringops"}),
    ],
)
def test_each_value_loads_only_its_modules(build, loaded):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _BUILD_PROBE.format(build=build), str(PERFBENCH)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    modules, stdlib = proc.stdout.splitlines()
    assert set(modules.split()) == {f"gkbench.{name}" for name in loaded}
    # values hold integer pairs: no build loads the stdlib's rationals
    assert stdlib.split() == ["stdlib"]


def test_only_the_budget_compares_work_with_the_cap():
    """Work is admitted through `budget.admit` and `budget.admit_bits`: no
    other module calls `cap()`, but for `cli.main`'s early check of a
    malformed WORKBENCH_MAX_OPS."""
    calls = [
        (path.name, node.lineno)
        for path in sorted((SRC / "gkbench").glob("*.py")) if path.name != "budget.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "cap"
    ]
    cli = ast.parse((SRC / "gkbench" / "cli.py").read_text(encoding="utf-8"))
    main = next(node for node in cli.body if isinstance(node, ast.FunctionDef) and node.name == "main")
    early = [call for call in calls if call[0] == "cli.py" and main.lineno <= call[1] <= main.end_lineno]
    assert len(early) == 1
    assert [call for call in calls if call not in early] == []


def test_names_follow_rebinding_in_the_submodule(monkeypatch):
    from gkbench import qaffine

    sentinel = object()
    monkeypatch.setattr(qaffine, "normal_form", sentinel)
    assert gkbench.normal_form is sentinel


def test_a_submodule_loaded_by_name_shows_in_the_import_profile():
    """`-X importtime` reports a submodule first reached through the package
    namespace, as it reports `import gkbench.mqfield`."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import gkbench; gkbench.PrimeBasis"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    profiled = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
    assert "gkbench.mqfield" in profiled


def test_a_loaded_submodule_is_read_without_importing(monkeypatch):
    import builtins

    from gkbench import qaffine

    calls = []
    real = builtins.__import__
    monkeypatch.setattr(builtins, "__import__", lambda *args, **kw: calls.append(args) or real(*args, **kw))
    assert gkbench.QAlgebra is qaffine.QAlgebra
    assert gkbench.QAlgebra is qaffine.QAlgebra
    assert calls == []
