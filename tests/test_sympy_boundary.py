"""sympy stays out of the package but for one property.

The field arithmetic under ScalarExpr is :mod:`ggwb.poly`, the parser
builds its field elements directly, and ``str`` prints them from the core;
sympy is left for ``ScalarExpr.expr``, the sympy expression of the printed
text.  These guards read the source: no module imports ``sympy.polys``, the
one sympy import of the package is inside ``ScalarExpr.expr``, and neither
the parser nor ``random_poly`` names it.  One more runs the builtins:
loading and checking them builds every scalar from text, a number or a
scalar.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from ggwb.poly import Gaussian
from ggwb.symexpr import ScalarExpr
from ggwb.workbench import load_builtin, run_checks

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ggwb"


def _sympy_imports() -> dict:
    """(module path, enclosing ``Class.function``) -> the sympy modules it
    imports."""
    found = {}

    def visit(node, scope, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                 else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        for name in names:
            if name.split(".")[0] == "sympy":
                found.setdefault((where, ".".join(scope)), []).append(name)
        for child in ast.iter_child_nodes(node):
            visit(child, scope, where)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), (), str(path.relative_to(PACKAGE)))
    return found


def test_no_module_imports_sympy_polys():
    assert [(m, n) for m, names in _sympy_imports().items() for n in names
            if n.startswith("sympy.polys")] == []


def test_only_the_expr_property_imports_sympy():
    assert _sympy_imports() == {("symexpr.py", "ScalarExpr.expr"): ["sympy"]}


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
    """Loading a builtin and running its checks builds every ScalarExpr
    from text, an int, a Fraction, a Gaussian or a scalar: nothing else
    reaches the field."""
    kinds = []
    original = ScalarExpr.__init__

    def recording(self, value, chart):
        kinds.append(type(value))
        original(self, value, chart)

    monkeypatch.setattr(ScalarExpr, "__init__", recording)
    run_checks(load_builtin(name, 1))
    assert kinds and set(kinds) <= {str, int, Fraction, Gaussian, ScalarExpr}
