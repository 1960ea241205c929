"""Zero costs nothing, and every frame bracket comes from one table.

A zero operand of ``+ - * /`` returns before the field (the other operand,
its negation, or the chart's one zero), ``pdiff`` of a zero returns at
once, ``evaluate`` of one gives 0, and ``contract`` gives the chart's zero
for an empty sum.  The tests pin that these short cuts give exactly the scalar the
general field path gives, that a check run never does field arithmetic on a
zero, and that ``courant.bracket_table`` and the criteria read from it give
the per-pair brackets and expression lists, in order.
"""

import operator
import random
import sys

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ggwb import symexpr
from ggwb.calculus import (
    ChartManifold,
    OneForm,
    VectorField,
    ext_d,
    lie_bracket,
    lie_derivative,
)
from ggwb.courant import (
    BigEndo,
    BigSection,
    big_frame,
    bracket_table,
    courant_bracket,
    nijenhuis_big,
    nijenhuis_frame,
    section_array,
)
from ggwb.errors import ExprError
from ggwb.structures.twoone import (
    check_normal_21,
    phi_endo,
    second_structure,
    unified_normality_tensor,
)
from ggwb.symexpr import ScalarExpr, _canonical, _field_op, _layout, _unify
from ggwb.verdict import CheckResult
from ggwb.workbench import load_builtin, run_checks
from sympy_oracle import random_tree, to_scalar

OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


@pytest.fixture(scope="module")
def chart():
    return ChartManifold("zero3", ["x", "y", "z"])


def _zeros(chart):
    x = chart.scalar("x")
    return [chart.zero, ScalarExpr(0, chart), x - x, chart.scalar("sin(y)^2 + cos(y)^2 - 1")]


def _general(op, a: ScalarExpr, b: ScalarExpr):
    """The field path without short cuts: union field, field operation,
    canonical form."""
    rf = _field_op(op, *_unify(a.rf, b.rf))
    if rf.field.gaussian or _layout(rf.field)[1]:
        rf = _canonical(rf)
    return rf


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       kind=st.sampled_from(["atoms", "rational", "gaussian"]))
@example(seed=190, kind="gaussian")  # 1/6 + 3i/2, a constant Q(i) denominator
@example(seed=577, kind="gaussian")  # z/x - 7/2 - i/2 over 2x or over (1 + i)x
def test_zero_operand_gives_the_general_field_result(chart, seed, kind):
    rng = random.Random(seed)
    tree = random_tree(chart, rng, max_depth=3, atoms=kind == "atoms")
    if kind == "gaussian":
        tree = tree + sp.I * random_tree(chart, rng, max_depth=2, atoms=False)
    s = to_scalar(tree, chart)
    for z in _zeros(chart):
        assert z.is_syntactic_zero
        for op in OPS:
            pairs = [(s, z), (z, s)] if op is not operator.truediv else [(z, s)]
            for a, b in pairs:
                if op is operator.truediv and not b.rf:
                    continue
                got = op(a, b)
                want = _general(op, a, b)
                assert got.rf == want and got.rf.field is want.field
                assert got.chart == chart
        # a raw zero on either side
        raw = [(s + 0, operator.add, s, z), (0 - s, operator.sub, z, s), (s * 0, operator.mul, s, z)]
        if s.rf:
            raw.append((0 / s, operator.truediv, z, s))
        for got, op, a, b in raw:
            want = _general(op, a, b)
            assert got.rf == want and got.rf.field is want.field


def test_division_by_zero_raises(chart):
    x = chart.scalar("x")
    for z in _zeros(chart):
        with pytest.raises(ExprError):
            x / z
        with pytest.raises(ExprError):
            z / z
        with pytest.raises(ExprError):
            x / 0
        with pytest.raises(ExprError):
            0 / z


def test_zero_results_are_the_charts_one_zero(chart):
    x, y = chart.scalar("x"), chart.scalar("sin(y)")
    assert (x - x) is chart.zero
    assert (y * 0) is chart.zero
    assert (-chart.zero) is chart.zero
    assert symexpr.pdiff(chart.zero, "x") is chart.zero
    assert symexpr.evaluate(chart.zero, {"x": 1, "y": 2, "z": 3}) == 0
    v = VectorField(chart, ["x", "0", "y*z"])
    a = OneForm(chart, ["0", "0", "x"])
    assert a(v) is not chart.zero
    assert OneForm(chart, ["0", "1", "0"])(v) is chart.zero  # no term survives


@pytest.mark.parametrize("name", ["S1", "S5"])
def test_check_runs_do_no_field_arithmetic_on_a_zero(monkeypatch, name):
    """No field operation has a zero operand, and no zero is differentiated.
    The spies sit on the kernels ``symexpr._field_op`` and
    ``symexpr._derivative`` (which ``calculus._partials`` and ``pdiff``
    both reach), in every module that binds them."""
    calls = {"op": 0, "op_zero": 0, "derivative": 0, "derivative_zero": 0}
    field_op, derivative = symexpr._field_op, symexpr._derivative

    def counted_op(op, a, b):
        calls["op"] += 1
        calls["op_zero"] += (not a) or (not b)
        return field_op(op, a, b)

    def counted_derivative(rf, name):
        calls["derivative"] += 1
        calls["derivative_zero"] += not rf
        return derivative(rf, name)

    spies = {id(field_op): ("_field_op", counted_op),
             id(derivative): ("_derivative", counted_derivative)}
    for modname, module in list(sys.modules.items()):
        if modname.startswith("ggwb"):
            for attr, val in list(vars(module).items()):
                if id(val) in spies and spies[id(val)][0] == attr:
                    monkeypatch.setattr(module, attr, spies[id(val)][1])
    run_checks(load_builtin(name, 0))
    assert calls["op"] > 0 and calls["derivative"] > 0
    assert calls["op_zero"] == 0 and calls["derivative_zero"] == 0


# -- the bracket table ---------------------------------------------------------


def _reference_bracket(A: BigSection, B: BigSection) -> list:
    """[(X,a), (Y,b)] = ([X,Y], L_X b - L_Y a + (1/2) d(a(Y) - b(X))) from
    the calculus layer's Lie bracket, Lie and exterior derivatives."""
    X, a, Y, b = A.X, A.alpha, B.X, B.alpha
    cov = lie_derivative(X, b) - lie_derivative(Y, a) + ext_d((a(Y) - b(X)) / 2)
    return list(lie_bracket(X, Y).components) + list(cov.components)


def _random_section(chart, rng, style):
    n = chart.dim
    if style == "zero":
        comps = [0] * (2 * n)
    elif style == "constant":
        comps = [sp.Rational(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2 * n)]
    else:
        comps = [0 if rng.random() < 0.3 else
                 random_tree(chart, rng, max_depth=2, atoms=style == "atoms", division=False)
                 for _ in range(2 * n)]
    return BigSection.from_components(chart, [to_scalar(c, chart) for c in comps])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bracket_table_equals_per_pair_brackets(seed):
    chart = ChartManifold("table2", ["x", "y"])
    rng = random.Random(seed)
    P = [_random_section(chart, rng, s) for s in ("atoms", "zero", "constant", "poly")]
    Q = [_random_section(chart, rng, s) for s in ("poly", "atoms", "zero")]
    table = bracket_table(section_array(P), section_array(Q))
    assert len(table) == 2 * chart.dim
    for a, A in enumerate(P):
        for b, B in enumerate(Q):
            pair = courant_bracket(A, B).components()
            reference = _reference_bracket(A, B)
            column = [row[a][b] for row in table]
            assert column == pair == reference


def test_nijenhuis_frame_equals_per_pair_nijenhuis(t21_s3):
    """On a complex endomorphism with exp atoms (Phi of the S3 lift)."""
    A = phi_endo(t21_s3)
    table = nijenhuis_frame(A)
    bf = big_frame(A.chart)
    for i in range(len(bf)):
        for j in range(len(bf)):
            assert [row[i][j] for row in table] == nijenhuis_big(A, bf[i], bf[j]).components()


# -- the normal21 item lists -----------------------------------------------------


def _per_pair_lists(s) -> list:
    """The four frame-pair item lists of check_normal_21, one bracket at a
    time."""
    chart = s.chart
    pr_s = BigEndo.identity(chart) + s.Fcal @ s.Fcal
    span = [s.Fcal(e) for e in big_frame(chart)]
    bf = big_frame(chart)
    pairs = [(i, j) for i in range(len(bf)) for j in range(i + 1, len(bf))]
    first = courant_bracket(s.Z_plus, s.Z_minus).components()
    second = [c for Z in (s.Z_plus, s.Z_minus) for X in span
              for c in (courant_bracket(Z, s.Fcal(X)) - s.Fcal(courant_bracket(Z, X))).components()]
    third = [c for i, j in pairs
             for c in (nijenhuis_big(s.Fcal, span[i], span[j])
                       - pr_s(courant_bracket(span[i], span[j]))).components()]
    fourth = [c for i, j in pairs for c in unified_normality_tensor(s, bf[i], bf[j]).components()]
    return [first, second, third, fourth]


def _table_lists(monkeypatch, s, pol) -> list:
    """The expression lists check_normal_21 hands to ``CheckResult.test``."""
    seen = []
    original = CheckResult.test

    def recording(self, label, defects, tag=""):
        defects = list(defects)
        seen.append(defects)
        return original(self, label, defects, tag)

    monkeypatch.setattr(CheckResult, "test", recording)
    check_normal_21(s, pol)
    monkeypatch.setattr(CheckResult, "test", original)
    return seen


@pytest.mark.parametrize("name", ["t21_s1", "t21_s2", "t21_s3", "s5_t21", "s5_companion"])
def test_normal21_lists_equal_the_per_pair_reference(request, monkeypatch, pol, name):
    if name == "s5_companion":
        s = second_structure(request.getfixturevalue("s5_t21"))
    else:
        s = request.getfixturevalue(name)
    lists = _table_lists(monkeypatch, s, pol)
    assert lists == _per_pair_lists(s)
