"""A cold job runs without sympy, and the sympy view still works after it.

The package imports sympy only in ``ScalarExpr.expr``; ``str`` and ``repr``
print from the core, and sympy objects are no input.  Importing the
package, checking a builtin and deciding a Courant anomaly identity built
from text, the way ``bench/worker.py`` builds its courant job, must leave
``"sympy"`` out of ``sys.modules``.  The package's records are plain
classes, so the same steps must also leave out ``dataclasses`` and the
``inspect`` it loads.  A second probe makes ``import sympy`` raise and runs
the CLI's error paths and a text report.  The probes run in a fresh
interpreter, so no module is left behind from the test session.
"""

import json
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
report("str")
print("round-trip", symexpr.parse_scalar(str(s), chart) == s)
import sympy
print("expr", isinstance(s.expr, sympy.Expr) and sympy.count_ops(s.expr) > 0)
try:
    symexpr.ScalarExpr(sympy.sin(sympy.Symbol("x1")), chart)
except symexpr.ExprError as exc:
    print("input refused:", exc)
"""

# The printed form of the first scalar above: the sympy view the package
# printed before, in the parser's grammar (powers as ^, 1 + cos).
_T = "sin(x2)/(1 + cos(x2))"
_STR = (f"str (2*x1^2*{_T} + x3*exp(x3/2)*({_T})^2 + x3*exp(x3/2) + exp(x3/2)*({_T})^2"
        f" + exp(x3/2))/(x3*({_T})^2 + x3 + ({_T})^2 + 1)")

# The CLI's error paths and a text report with ``import sympy`` raising.
_BLOCKED_PROBE = """
import io, sys
from contextlib import redirect_stderr, redirect_stdout

class NoSympy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "sympy":
            raise ImportError("sympy is blocked")

sys.meta_path.insert(0, NoSympy())
from ggwb.workbench.cli import main

for argv in [a.split() for a in sys.argv[1:]]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    print(code, " | ".join((err.getvalue() or out.getvalue()).strip().splitlines()))
print("sympy" in sys.modules)
"""


def _run(code: str, args=()) -> list[str]:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True, timeout=300)
    return done.stdout.splitlines()


def test_cold_jobs_never_import_sympy_and_the_view_still_works():
    lines = _run(_PROBE)
    steps = ["import-ggwb", "import-cli", "S1", "S2", "S3", "S4", "S5", "S6b", "courant"]
    # each step prints its name and the cold-path modules it found loaded
    assert [line for line in lines if line.split()[0] in steps] == steps
    assert "verdict Proved" in lines
    assert _STR in lines
    assert "rational x1 + 1" in lines
    assert "str" in lines  # printing loads no sympy
    assert "round-trip True" in lines
    assert "expr True" in lines
    assert any(line.startswith("input refused: a scalar is made from text") for line in lines)


def _scenario(tmp_path, path, value) -> str:
    """S6b's scenario file with the entry at ``path`` (a list of keys) set
    to ``value``."""
    doc = json.loads((ROOT / "src/ggwb/workbench/builtin/s6b.json").read_text())
    entry = doc
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = value
    file = tmp_path / f"{'-'.join(map(str, path))}.json"
    file.write_text(json.dumps(doc))
    return str(file)


def test_cli_error_paths_and_text_report_run_with_sympy_blocked(tmp_path):
    """ParseError, ScenarioError, SingularMetricError, PolicyError and a
    hypersurface whose unit normal is not in the field exit 2 with their
    message, and a text report prints, all with ``import sympy`` raising."""
    parse = _scenario(tmp_path, ["fields", "J", "matrix", 0, 0], "x1 +")
    names = _scenario(tmp_path, ["chart", "coords"], ["x1", "y1", "x2", "x-1"])
    singular = _scenario(tmp_path, ["fields", "gamma", "matrix", 0, 0], "0")
    # gamma(n~, n~) = 1 + u1^2 + u2^2 is no square: the unit normal is not in the field
    paraboloid = _scenario(tmp_path, ["structures", 0, "map"],
                           ["u1", "u2", "u3", "(u1^2 + u2^2)/2"])
    lines = _run(_BLOCKED_PROBE, [
        f"check {parse}", f"check {names}", f"check {singular}", "check S1 --samples 0",
        f"check {paraboloid} --check hyp_geometry", "check S1 --format text"])
    assert lines[0] == "2 ggwb: error: $.fields.J.matrix[0][0]: unexpected token '' (at position 4)"
    assert lines[1] == ("2 ggwb: error: $.charts[0].coords: a coordinate name is an identifier "
                        "[A-Za-z_][A-Za-z_0-9]* other than sin, cos, exp, I; got 'x-1'")
    assert lines[2] == ("2 ggwb: error: $.fields.gamma.matrix: metric is degenerate at the base "
                        "point of chart 'C2'")
    assert lines[3] == "2 ggwb: error: samples must be at least 1, got 0"
    assert lines[4] == ("2 ggwb: error: hypersurface 'N3' in 'C2': cannot express the "
                        "normal's length in the expression grammar; use a chart in which "
                        "gamma(n~, n~) is a perfect square (a rational parametrization, "
                        "for instance)")
    assert lines[5].startswith("0 scenario: S1-flat-cosymplectic | ")
    assert lines[5].endswith("overall: pass")
    assert lines[6:] == ["False"]
