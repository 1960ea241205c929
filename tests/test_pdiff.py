"""The derivative kernel ``symexpr.pdiff`` and its use by the tensor layer.

``pdiff`` is the chain rule in the scalar's field (d E_m = E_m dm and
d T_m = (1 + T_m^2)/2 dm for the atom generators); it never calls sympy.
The tests pin that a coordinate the scalar does not contain gives zero,
that a name that is no coordinate of the chart raises,
that the kernel agrees with ``sympy.diff`` of the scalar's view, that the
Courant bracket built on it agrees with a bracket written with plain
``sympy.diff``, and that the package uses none of sympy's expression
algebra.
"""

import ast
import random
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ggwb
from ggwb.calculus import ChartManifold, OneForm, VectorField
from ggwb.courant import BigSection, courant_bracket
from ggwb.errors import ChartMismatchError
from ggwb.symexpr import pdiff, random_poly
from sympy_oracle import random_expr, symbols, to_scalar


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
    e = to_scalar(make(*symbols(chart)), chart)
    monkeypatch.setattr(sp, "diff", _no_sympy_diff)
    assert pdiff(e, "x").is_syntactic_zero


def test_a_name_outside_the_chart_raises(chart):
    """``pdiff`` checks the coordinate before its cached kernel, also for a
    scalar without it and for zero; ``ggwb.differentiate`` and
    ``ScalarExpr.diff`` are the same function."""
    assert ggwb.differentiate is pdiff and ggwb.ScalarExpr.diff is pdiff
    for e in (chart.scalar("x*y"), chart.scalar("sin(z)"), chart.zero):
        with pytest.raises(ChartMismatchError):
            pdiff(e, "q")
        with pytest.raises(ChartMismatchError):
            e.diff("q")
    assert pdiff(chart.scalar("x*y"), "y") == chart.scalar("x")
    assert chart.scalar("x*y").diff("z").is_syntactic_zero


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), atoms=st.booleans())
@example(seed=1883, atoms=True)
def test_pdiff_equals_sympy_diff(chart, seed, atoms):
    e = random_expr(chart, random.Random(seed), max_depth=4, atoms=atoms)
    for sym in symbols(chart):
        assert pdiff(e, sym.name) == to_scalar(sp.diff(e.expr, sym), chart)


def test_pdiff_matches_sympy_on_a_constant_exp_atom(chart):
    """d/dx keeps the one generator E[1/7] of exp(-2/7).  The view leaves
    its atom factors unevaluated, so sympy.diff keeps exp(2/7)*exp(2/7)
    apart; an evaluated view merges them into exp(4/7), which is the same
    field element (E[1/7]^4, see below)."""
    x, y, z = symbols(chart)
    e = to_scalar(-16 * y * z / (3 * (x**3 + sp.exp(sp.Rational(-2, 7)))), chart)
    for sym in (y, z, x):
        assert pdiff(e, sym.name) == to_scalar(sp.diff(e.expr, sym), chart)


def test_constant_exp_arguments_have_one_normal_form(chart):
    """exp(2/7)^2 and exp(4/7) are both E[1/7]^4: the exponentials of one
    base are powers of one generator, so == answers True for equal
    functions."""
    assert chart.scalar("exp(2/7)^2") == chart.scalar("exp(4/7)")
    assert chart.scalar("exp(1/2)*exp(1/3)") == chart.scalar("exp(5/6)")


@pytest.mark.parametrize(
    "left, right",
    [
        ("exp(-x/3)*exp(x/6)", "exp(-x/6)"),
        ("exp(x/6)^2", "exp(x/3)"),
        ("exp(x/3)^2", "exp(2*x/3)"),
        ("exp(x/2)*exp(x/2)", "exp(x)"),
        ("exp(x/2)*exp(x/3)/exp(5*x/6)", "1"),
        ("exp(x/4 + y/6)^12", "exp(3*x)*exp(2*y)"),
        ("exp(exp(x/6)/2)^2", "exp(exp(x/6))"),
    ],
)
def test_exponentials_of_one_base_have_one_normal_form(chart, left, right):
    """The defect of Hypothesis seed 1883 above: d/dx of -9*exp(y)/exp(x/6)
    kept E[x/6], while sympy's derivative of the view held exp(-x/3).
    Equal functions now have equal normal forms, the same hash and the
    same printed text."""
    a, b = chart.scalar(left), chart.scalar(right)
    assert a == b and hash(a) == hash(b) and str(a) == str(b)


def test_pdiff_of_merged_exponentials(chart):
    """exp(x/3) and the exp(x/6) inside exp(exp(x/6)) meet in one field
    when the derivative is taken: both are read as powers of E[x/6]."""
    x, y, z = symbols(chart)
    e = chart.scalar("exp(x/3) + exp(exp(x/6))")
    assert pdiff(e, "x") == to_scalar(sp.diff(e.expr, x), chart)
    assert pdiff(pdiff(e, "x"), "x") == to_scalar(sp.diff(e.expr, x, 2), chart)
    e = to_scalar(-9 * sp.exp(y) / sp.exp(x / 6), chart)
    assert pdiff(e, "x") == to_scalar(sp.diff(e.expr, x), chart)


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
    X_, a_, Y_, b_ = ([to_scalar(c, chart) for c in comps] for comps in (X, a, Y, b))
    got = courant_bracket(
        BigSection(VectorField(chart, X_), OneForm(chart, a_)),
        BigSection(VectorField(chart, Y_), OneForm(chart, b_)),
    )
    ref = _reference_bracket(X, a, Y, b, symbols(chart))
    for c, r in zip(got.components(), ref):
        assert sp.expand(c.expr - r) == 0


# -- one derivative path and one algebra path -------------------------------


def _call_sites(path: Path, attr: str, modules=None) -> list[str]:
    """Qualified enclosing function names (``Class.method``) of every use of
    the attribute ``attr``, and of every definition or bare-name call of
    ``attr``; with ``modules``, only ``<module>.attr`` for those module
    names, plus ``from sympy import attr``."""
    tree = ast.parse(path.read_text())
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if modules is None and node.name == attr:
                found.append(f"{'.'.join(scope) or '<module>'} (def)")
            scope = scope + (node.name,)
        func = ".".join(scope) or "<module>"
        if (modules is None and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == attr):
            found.append(func)
        if modules and isinstance(node, ast.ImportFrom) and node.module == "sympy":
            if any(alias.name == attr for alias in node.names):
                found.append(f"{func} (import)")
        if (
            isinstance(node, ast.Attribute)
            and node.attr == attr
            and (
                modules is None
                or isinstance(node.value, ast.Name) and node.value.id in modules
            )
        ):
            found.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def _package_sites(attr: str, modules=None) -> dict:
    root = Path(ggwb.__file__).parent
    sites = {}
    for path in sorted(root.rglob("*.py")):
        for func in _call_sites(path, attr, modules):
            sites.setdefault(str(path.relative_to(root)), []).append(func)
    return sites


def test_sympy_diff_only_inside_the_kernel():
    """The kernel differentiates in the field: sympy.diff has no caller."""
    assert _package_sites("diff", ("sp", "sympy")) == {}


SYMPY_ALGEBRA = (
    "cancel", "diff", "expand_trig", "count_ops", "factor", "Poly", "Matrix",
    "ImmutableMatrix", "simplify", "trigsimp", "expand",
)


def test_one_algebra_path():
    """Products, transposes, blocks, determinants, derivatives and the
    canonical form all go through ``contract`` and the field arithmetic of
    ScalarExpr: no sympy expression algebra and no sympy Matrix is used
    anywhere in the package, and sections take their algebra from the
    core."""
    assert _package_sites("_sym") == {}
    assert _package_sites("inv") == {}
    for name in SYMPY_ALGEBRA:
        assert _package_sites(name, ("sp", "sympy")) == {}, name
    # a section is a core array: no re-stacking, and g(S, .) built one way
    assert _package_sites("_array") == {}
    assert _package_sites("_pairing_row") == {}
    own = {"__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "conjugate", "__eq__"}
    assert own.isdisjoint(vars(BigSection))


def _forbid(*args, **kwargs):
    raise AssertionError("sympy expression algebra used by the package")


S3_VERDICTS = {
    "almost_contact": "Proved",
    "normal": "Failed",
    "normal_product": "Failed",
    "classical_CRF": "Failed",
    "two_one": "Proved",
    "normal21": "Failed",
    "normal_explicit": "Failed",
}


def test_transcendental_builtins_run_without_sympy_algebra(monkeypatch):
    """S3 (exp atoms) and S4 (sin/cos atoms) end to end, after loading,
    with sympy's cancel, diff, expand_trig, count_ops and factor raising."""
    from ggwb.workbench import load_builtin, run_checks

    s3, s4 = load_builtin("S3"), load_builtin("S4")
    for name in ("cancel", "diff", "expand_trig", "count_ops", "factor"):
        monkeypatch.setattr(sp, name, _forbid)
    report = run_checks(s3).as_dict()
    assert {c["check"]: c["verdict"] for c in report["checks"]} == S3_VERDICTS
    report = run_checks(s4).as_dict()
    assert [c["check"] for c in report["checks"] if c["verdict"] == "Failed"] == ["hyp_CRFK"]


# the field arithmetic of symexpr: fractions, sums, powers, derivatives,
# composition, moves between fields, atoms and exact or 30-digit evaluation
FIELD_ARITHMETIC = (
    "_fraction", "_scaled", "_field_op", "_lcm", "_sum_over", "_op", "_pow", "_constant",
    "_derivative", "_gen_diff", "_diff", "_poly_at", "_compose", "_conj", "_moved", "_move",
    "_moves", "_shrink", "_settle", "_canonical", "_unify", "_embed", "_join", "_terms",
    "_angle", "_atom_minimal", "_atom", "_value_at", "_eval_dec", "_evaluator",
)


def test_the_polynomial_core_uses_no_sympy():
    """``ggwb.poly`` imports nothing from sympy and names no sympy module,
    and the field arithmetic of ``symexpr`` reads neither ``sp`` nor
    ``sympy``: only the ``expr`` property reads sympy."""
    root = Path(ggwb.__file__).parent
    core = ast.parse((root / "poly.py").read_text())
    names = {a.name for node in ast.walk(core) if isinstance(node, ast.Import) for a in node.names}
    names |= {node.module or "" for node in ast.walk(core) if isinstance(node, ast.ImportFrom)}
    assert not any(n.split(".")[0] == "sympy" for n in names)
    assert not {node.id for node in ast.walk(core) if isinstance(node, ast.Name)} & {"sp", "sympy"}
    tree = ast.parse((root / "symexpr.py").read_text())
    defined = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert set(FIELD_ARITHMETIC) <= set(defined)
    for name in FIELD_ARITHMETIC:
        used = {n.id for n in ast.walk(defined[name]) if isinstance(n, ast.Name)}
        assert not used & {"sp", "sympy"}, name
