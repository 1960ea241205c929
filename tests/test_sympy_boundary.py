"""sympy stays at the boundary of the package.

The field arithmetic under ScalarExpr is :mod:`ggwb.poly`, and the parser
builds its field elements directly; sympy is left for the ``.expr`` view,
sympy input (both in ``symexpr``) and the chart symbols (``calculus``).
These guards read the source: no module imports ``sympy.polys``, no module
but those two imports sympy at all, and neither the parser nor
``random_poly`` names it.  One more runs the builtins: loading and checking
them converts no sympy expression.
"""

import ast
from pathlib import Path

import pytest

from ggwb import symexpr
from ggwb.workbench import load_builtin, run_checks

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ggwb"


def _sympy_imports() -> dict:
    """module path -> the sympy modules it imports."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            for name in names:
                if name.split(".")[0] == "sympy":
                    found.setdefault(str(path.relative_to(PACKAGE)), []).append(name)
    return found


def test_no_module_imports_sympy_polys():
    assert [(m, n) for m, names in _sympy_imports().items() for n in names
            if n.startswith("sympy.polys")] == []


def test_only_symexpr_and_calculus_import_sympy():
    assert set(_sympy_imports()) == {"symexpr.py", "calculus.py"}


def test_scenario_text_reaches_the_field_without_sympy():
    """The parser and ``random_poly`` build field elements themselves: they
    name neither ``sp`` nor ``sympy``."""
    tree = ast.parse((PACKAGE / "symexpr.py").read_text())
    defined = {node.name: node for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for name in ("_Parser", "_tokenize", "random_poly"):
        used = {n.id for n in ast.walk(defined[name]) if isinstance(n, ast.Name)}
        assert not used & {"sp", "sympy"}, name


@pytest.mark.parametrize("name", ["S1", "S2", "S3", "S4", "S5", "S6b"])
def test_builtins_load_and_check_without_converting_sympy(monkeypatch, name):
    """Loading a builtin and running its checks converts no sympy
    expression: ``_to_field`` is left for sympy input."""
    calls = []
    original = symexpr._to_field

    def counting(expr, symbols):
        calls.append(expr)
        return original(expr, symbols)

    monkeypatch.setattr(symexpr, "_to_field", counting)
    run_checks(load_builtin(name, 1))
    assert calls == []
