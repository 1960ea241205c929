"""The derivative kernel ``symexpr.pdiff`` and its use by the tensor layer.

``pdiff`` answers ``S.Zero`` without calling sympy when the coordinate does
not occur in the expression, and defers to ``sympy.diff`` otherwise.  The
tests pin that the skip is exact, that the Courant bracket built on it
agrees with a bracket written with plain ``sympy.diff``, and that no other
code path in the package differentiates on its own.
"""

import ast
import random
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import ggwb
from ggwb.calculus import ChartManifold, OneForm, VectorField
from ggwb.courant import BigSection, courant_bracket
from ggwb.symexpr import pdiff, random_expr, random_poly


@pytest.fixture(scope="module")
def chart():
    return ChartManifold("test3", ["x", "y", "z"])


def _no_sympy_diff(*args, **kwargs):
    raise AssertionError("sympy.diff called for a coordinate the expression lacks")


@pytest.mark.parametrize(
    "make",
    [
        lambda x, y, z: sp.sin(y),
        lambda x, y, z: sp.exp(y * z),
        lambda x, y, z: sp.I * y,
        lambda x, y, z: sp.Rational(3, 7),
        lambda x, y, z: sp.S.Zero,
        lambda x, y, z: (y + 1) / (z**2 + 1) + sp.cos(y - z),
    ],
    ids=["sin(y)", "exp(y*z)", "I*y", "3/7", "0", "rational+atom"],
)
def test_absent_coordinate_skips_sympy(chart, monkeypatch, make):
    x, y, z = chart.symbols
    expr = make(x, y, z)
    monkeypatch.setattr(sp, "diff", _no_sympy_diff)
    assert pdiff(expr, x) is sp.S.Zero


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), atoms=st.booleans())
def test_pdiff_equals_sympy_diff(chart, seed, atoms):
    e = random_expr(chart, random.Random(seed), max_depth=4, atoms=atoms).expr
    for sym in chart.symbols:
        assert pdiff(e, sym) == sp.diff(e, sym)


# -- the Courant bracket against a reference written with sympy.diff --------


def _reference_bracket(X, a, Y, b, syms):
    """([X,Y], L_X b - L_Y a + (1/2) d(a(Y) - b(X))) on raw components."""
    n = len(syms)
    d = sp.diff
    vec = [
        sum(X[i] * d(Y[k], syms[i]) - Y[i] * d(X[k], syms[i]) for i in range(n))
        for k in range(n)
    ]
    corr = sum(a[i] * Y[i] - b[i] * X[i] for i in range(n))
    cov = [
        sum(
            X[i] * d(b[j], syms[i]) + b[i] * d(X[i], syms[j])
            - Y[i] * d(a[j], syms[i]) - a[i] * d(Y[i], syms[j])
            for i in range(n)
        )
        + d(corr, syms[j]) / 2
        for j in range(n)
    ]
    return vec + cov


def _mixed_components(chart, rng):
    """Zero, rational constants and polynomials, as in frame sections and
    structure entries."""
    out = []
    for _ in range(chart.dim):
        kind = rng.randrange(3)
        if kind == 0:
            out.append(sp.S.Zero)
        elif kind == 1:
            out.append(sp.Rational(rng.randint(-5, 5), rng.randint(1, 5)))
        else:
            out.append(random_poly(chart, rng, 2).expr)
    return out


@pytest.mark.parametrize("seed", range(12))
def test_courant_bracket_matches_plain_sympy_reference(chart, seed):
    rng = random.Random(seed)
    X, a, Y, b = (_mixed_components(chart, rng) for _ in range(4))
    got = courant_bracket(
        BigSection(VectorField(chart, X), OneForm(chart, a)),
        BigSection(VectorField(chart, Y), OneForm(chart, b)),
    )
    ref = _reference_bracket(X, a, Y, b, chart.symbols)
    for c, r in zip(got.components(), ref):
        assert sp.expand(c.expr - r) == 0


# -- one derivative path ----------------------------------------------------


def _diff_call_sites(path: Path) -> list[str]:
    """Enclosing function names of every ``sp.diff``/``sympy.diff`` use."""
    tree = ast.parse(path.read_text())
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.ImportFrom) and node.module == "sympy":
            if any(alias.name == "diff" for alias in node.names):
                found.append(f"{func} (import)")
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "diff"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("sp", "sympy")
        ):
            found.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, "<module>")
    return found


def test_sympy_diff_only_inside_the_kernel():
    root = Path(ggwb.__file__).parent
    sites = {}
    for path in sorted(root.rglob("*.py")):
        for func in _diff_call_sites(path):
            sites.setdefault(str(path.relative_to(root)), []).append(func)
    assert sites == {"symexpr.py": ["pdiff"]}
