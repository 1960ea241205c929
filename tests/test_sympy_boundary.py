"""sympy stays at the boundary of the package.

The field arithmetic under ScalarExpr is :mod:`ggwb.poly`; sympy is left
for the parser's tree, the ``.expr`` view, sympy input (all in ``symexpr``)
and the chart symbols (``calculus``).  This guard reads the source: no
module imports ``sympy.polys``, and no module but those two imports sympy
at all.
"""

import ast
from pathlib import Path

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
