"""No module of ggwb imports mpmath, and no job loads it.

Atom values are 30-digit Decimals of the standard library (``symexpr``'s
one evaluator), so mpmath is a test oracle only: it is not a dependency of
the package, no module under ``src/ggwb`` imports it, and parsing S3 or
S4, a cold check of every builtin, S3 and S4 with their exp and tan
generators included, and a Courant anomaly identity built from text the
way ``bench/worker.py`` builds its courant job, leave ``"mpmath"`` out of
``sys.modules``.  Each probe runs in a fresh interpreter, so no module is
left behind from the test session.
"""

import ast
import json
import math
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import mpmath
import pytest

from ggwb.calculus import ChartManifold, _Array
from ggwb.numeric import positivity_witness

ROOT = Path(__file__).resolve().parents[1]

_COLD = """
import io, sys
from contextlib import redirect_stdout

def report(step):
    print(step, "mpmath" in sys.modules)

import ggwb.workbench.cli
report("import-cli")
from ggwb.workbench.cli import main

for name in ("S1", "S2", "S3", "S4", "S5", "S6b"):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["check", name, "--seed", "0", "--format", "json"])
    assert code in (0, 1) and out.getvalue(), name
    report(name)

from ggwb import courant, symexpr
from ggwb.calculus import ChartManifold, OneForm, VectorField

chart = ChartManifold("R3", ["x1", "x2", "x3"])
A = courant.BigSection(VectorField(chart, ["x1*x2 + 1", "-3*x3", "2*x1^2"]),
                       OneForm(chart, ["x2", "x1*x3 - 4", "x3^3"]))
B = courant.BigSection(VectorField(chart, ["x3", "x1 + x2", "-x2*x3"]),
                       OneForm(chart, ["2*x1", "x2^2", "1 - x1*x2"]))
f = chart.scalar("x1^2*x2 - 3*x3 + 2")
lhs = courant.courant_bracket(A, B * f)
rhs = (courant.courant_bracket(A, B) * f + B * A.X.apply(f)
       - courant.partial(f) * courant.pairing(A, B))
verdict = symexpr.is_zero_all((lhs - rhs).components(), symexpr.ZeroPolicy(seed=0))
print("verdict", verdict.kind.value)
report("courant")
"""

_ATOM_LOAD = """
import sys
from ggwb.workbench import scenario
print("before", "mpmath" in sys.modules)
scenario.load_builtin({name!r}, 0)
print("after", "mpmath" in sys.modules)
"""

# The atom grid has the pivots exp(1) and -10^-20/exp(1) at x = 1: with no
# tolerance, only an elimination at 30 digits sees the second one.
_GRID = [["exp(x)", "1"], ["1", "(1 - 1/10^20)*exp(-x)"]]

_ATOMS = """
import json, sys
from ggwb.calculus import ChartManifold, _Array
from ggwb.numeric import positivity_witness
from ggwb.symexpr import evaluate
line = ChartManifold("line", ["x"])
grid = _Array(line, {grid!r}, (2, 2))
print("exp800", evaluate(line.scalar("exp(x)"), {{"x": 800}}))
print("witness", json.dumps(positivity_witness(grid, {{"x": 1}}, tol=0).as_dict()))
print("mpmath", "mpmath" in sys.modules)
"""


def _run(code: str) -> list[str]:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=300)
    return done.stdout.splitlines()


def test_no_mpmath_import_in_the_package():
    found = []
    for path in (ROOT / "src" / "ggwb").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] == "mpmath"]
    assert found == []
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert not any("mpmath" in d for d in project.get("dependencies", []))
    assert any(d.startswith("mpmath") for d in project["optional-dependencies"]["test"])


def test_cold_jobs_never_import_mpmath():
    lines = _run(_COLD)
    steps = ["import-cli", "S1", "S2", "S3", "S4", "S5", "S6b", "courant"]
    assert [line for line in lines if line.split()[0] in steps] == [f"{s} False" for s in steps]
    assert "verdict Proved" in lines


@pytest.mark.parametrize("name", ["S3", "S4"])
def test_an_atom_builtin_leaves_mpmath_unloaded_while_it_is_parsed(name):
    assert _run(_ATOM_LOAD.format(name=name)) == ["before False", "after False"]


def test_atom_values_and_the_point_certificate_keep_30_digits_without_mpmath():
    lines = _run(_ATOMS.format(grid=_GRID))
    assert lines[2] == "mpmath False"
    with mpmath.workdps(40):
        got = mpmath.mpf(lines[0].split()[1])
        assert abs(got / mpmath.exp(800) - 1) < 1e-28
    line = ChartManifold("line", ["x"])
    w = positivity_witness(_Array(line, _GRID, (2, 2)), {"x": 1}, tol=0)
    # the pivot (1 - 10^-20)/e - 1/e keeps the 10 of its 30 digits that do not cancel
    assert w.detail == "pivot 1" and abs(w.value * math.e / -1e-20 - 1) < 1e-9
    assert lines[1] == f"witness {json.dumps(w.as_dict())}"
