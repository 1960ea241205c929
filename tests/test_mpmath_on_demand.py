"""mpmath is loaded by the first atom generator, and only then.

Only a field with an exp or tan generator has mpmath values, so
``symexpr._gen`` imports mpmath when it makes the first generator.  A cold
check of an atom-free builtin, and a Courant anomaly identity built from
text the way ``bench/worker.py`` builds its courant job, must leave
``"mpmath"`` out of ``sys.modules``; parsing an atom builtin loads it before
any check runs, so its cost falls in scenario setup, not in the verdict.
Once it arrives in the middle of a process, atom values and the point
certificates still work at 30 digits.  Each probe runs in a fresh
interpreter, so no module is left behind from the test session.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

from ggwb.calculus import ChartManifold, _Array
from ggwb.numeric import positivity_witness

ROOT = Path(__file__).resolve().parents[1]

_ATOM_FREE = """
import io, sys
from contextlib import redirect_stdout

def report(step):
    print(step, "mpmath" in sys.modules)

import ggwb.workbench.cli
report("import-cli")
from ggwb.workbench.cli import main

for name in ("S1", "S2", "S5", "S6b"):
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

_MID_PROCESS = """
import json, sys
import ggwb.numeric
print("numeric", "mpmath" in sys.modules)
from ggwb.calculus import ChartManifold, _Array
from ggwb.numeric import positivity_witness
from ggwb.symexpr import evaluate
line = ChartManifold("line", ["x"])
grid = _Array(line, {grid!r}, (2, 2))
e = line.scalar("exp(x)")
print("parsed", "mpmath" in sys.modules)
import mpmath
with mpmath.workdps(30):
    v = evaluate(e, {{"x": 800}})
    print("exp800", mpmath.nstr(v, 30), abs(v / mpmath.exp(800) - 1) < 1e-25)
print("witness", json.dumps(positivity_witness(grid, {{"x": 1}}, tol=0).as_dict()))
"""


def _run(code: str) -> list[str]:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=300)
    return done.stdout.splitlines()


def test_atom_free_cold_jobs_never_import_mpmath():
    lines = _run(_ATOM_FREE)
    steps = ["import-cli", "S1", "S2", "S5", "S6b", "courant"]
    assert [line for line in lines if line.split()[0] in steps] == [f"{s} False" for s in steps]
    assert "verdict Proved" in lines


@pytest.mark.parametrize("name", ["S3", "S4"])
def test_an_atom_builtin_loads_mpmath_while_it_is_parsed(name):
    assert _run(_ATOM_LOAD.format(name=name)) == ["before False", "after True"]


def test_atom_values_keep_30_digits_when_mpmath_arrives_mid_process():
    lines = _run(_MID_PROCESS.format(grid=_GRID))
    assert lines[:2] == ["numeric False", "parsed True"]
    with mpmath.workdps(30):
        assert lines[2] == f"exp800 {mpmath.nstr(mpmath.exp(800), 30)} True"
    line = ChartManifold("line", ["x"])
    w = positivity_witness(_Array(line, _GRID, (2, 2)), {"x": 1}, tol=0)
    assert w.detail == "pivot 1" and abs(w.value * math.e / -1e-20 - 1) < 1e-12
    assert lines[3] == f"witness {json.dumps(w.as_dict())}"
