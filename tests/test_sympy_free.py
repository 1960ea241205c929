"""A cold job runs without sympy, and the sympy view still works after it.

sympy is imported only by the ``.expr`` view (``str`` and ``repr`` read it),
by sympy input (``ScalarExpr(sympy_expr, chart)``, ``chart.symbols``) and by
the test helper ``random_tree``.  Importing the package, checking a builtin
and deciding a Courant anomaly identity built from text, the way
``bench/worker.py`` builds its courant job, must leave ``"sympy"`` out of
``sys.modules``.  The package's records are plain classes, so the same steps
must also leave out ``dataclasses`` and the ``inspect`` it loads.  The probe
runs in a fresh interpreter, so no module is left behind from the test
session.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_PROBE = """
import io, sys
from contextlib import redirect_stdout

def report(step):
    print(step, *[m for m in ("sympy", "dataclasses", "inspect") if m in sys.modules])

import ggwb
report("import-ggwb")
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

s = chart.scalar("x1^2*sin(x2)/(1 + x3) + exp(x3/2)")
print("str", str(s))
print("rational", str(chart.scalar("(x1^2 - 1)/(x1 - 1)")))
import sympy
print("expr", isinstance(s.expr, sympy.Expr) and symexpr.ScalarExpr(s.expr, chart) == s)
x1 = sympy.Symbol("x1")
print("input", symexpr.ScalarExpr(sympy.sin(x1), chart) == chart.scalar("sin(x1)"))
"""

# The views of the two scalars above, as the package printed them while it
# still imported sympy at load.
_T = "(sin(x2)/(cos(x2) + 1))"
_STR = (f"str (2*x1**2*{_T} + x3*{_T}**2*exp(x3/2) + x3*exp(x3/2) + {_T}**2*exp(x3/2)"
        f" + exp(x3/2))/(x3*{_T}**2 + x3 + {_T}**2 + 1)")


def _run(code: str) -> list[str]:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=300)
    return done.stdout.splitlines()


def test_cold_jobs_never_import_sympy_and_the_view_still_works():
    lines = _run(_PROBE)
    steps = ["import-ggwb", "import-cli", "S1", "S2", "S3", "S4", "S5", "S6b", "courant"]
    # each step prints its name and the cold-path modules it found loaded
    assert [line for line in lines if line.split()[0] in steps] == steps
    assert "verdict Proved" in lines
    assert _STR in lines
    assert "rational x1 + 1" in lines
    assert "expr True" in lines
    assert "input True" in lines
