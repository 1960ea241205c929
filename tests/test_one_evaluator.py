"""One evaluator of field elements at a rational point.

``symexpr._evaluator`` is the only code that evaluates a field element: the
zero test, ``evaluate``, the point certificates of :mod:`ggwb.numeric` and
the metric's base-point check all read it.  This guard reads the source:
no module but ``symexpr`` imports the evaluation helpers, and ``numeric``
defines no evaluator of its own.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ggwb"

HELPERS = {"_poly_at", "_value_at", "_eval_dec", "_dec"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def test_only_symexpr_imports_the_evaluation_helpers():
    found = []
    for path in PACKAGE.rglob("*.py"):
        if path.name == "symexpr.py":
            continue
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom):
                found += [f"{path.name}:{node.lineno} {a.name}" for a in node.names
                          if a.name in HELPERS]
    assert found == []


def test_numeric_defines_no_evaluator():
    tree = _tree(PACKAGE / "numeric.py")
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    defined |= {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)}
    assert not {"_evaluator", "value_at"} & defined
    assert not any("evaluat" in name for name in defined)
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for a in node.names}
    assert "_evaluator" in imported
    assert not (HELPERS | {"_qq", "_to_fraction", "_layout"}) & imported
