"""A cold ``ggwb check`` runs without numpy, and the bench trace still
finds the certificate layer.

The positivity certificate of :mod:`ggwb.numeric` is an exact (or
30-digit mpmath) elimination, so numpy is neither imported by the package
nor a dependency.  ``bench/spantrace.install`` reads ``sys.modules["ggwb.numeric"]``
after ``import ggwb``, so that module must stay imported by the package, and
``CheckResult.positive`` reads ``positivity_witness`` from it at each call,
so the trace counts the certificates of a check.
Each probe runs in a fresh interpreter: the first leaves no module behind
from the test session, and the second patches the package's modules.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_CHECK = """
import io, sys
from contextlib import redirect_stdout
from ggwb.workbench.cli import main

for name in ("S1", "S4"):
    out = io.StringIO()
    with redirect_stdout(out):
        main(["check", name, "--seed", "0", "--format", "json"])
    print(name, len(out.getvalue()) > 0)
print("numpy" in sys.modules)
"""

_TRACE = """
import sys
sys.path.insert(0, sys.argv[1])
import ggwb
import spantrace

tracer = spantrace.Tracer()
spantrace.install(tracer)
from ggwb.calculus import ChartManifold, MetricField
from ggwb.structures import genmetric

chart = ChartManifold("R2", ["x", "y"])
G = genmetric.GenMetric(MetricField(chart, [["1 + x^2", "y"], ["y", "1 + y^2"]]))
assert genmetric.check_gen_metric(G).ok
print(tracer.calls["numeric.positivity_witness"])
"""


def _run(code: str, *args: str) -> list[str]:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout.split()


def test_cold_check_never_imports_numpy():
    assert _run(_CHECK) == ["S1", "True", "S4", "True", "False"]


def test_no_numpy_import_in_the_package():
    found = []
    for path in (ROOT / "src" / "ggwb").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] == "numpy"]
    assert found == []
    assert "numpy" not in (ROOT / "pyproject.toml").read_text()


def test_bench_trace_installs_and_sees_the_certificates():
    # the base point and the 4 drawn points of check_gen_metric
    assert _run(_TRACE, str(ROOT / "bench")) == ["5"]
