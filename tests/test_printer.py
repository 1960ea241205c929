"""``str`` of a scalar is its reduced fraction in the parser's grammar.

The printer reads the field element itself: powers print as ``^``, ``E_m``
as ``exp(m)``, ``T_m`` as ``sin(m)/(1 + cos(m))`` and a Gaussian
coefficient with ``I``.  ``parse_scalar(str(s), chart)`` reads back the same
element, on polynomial data and on data with atoms and rational
coefficients, and ``s.expr``, the sympy expression of the printed text,
takes the value of ``evaluate`` at rational points.
"""

import random

import mpmath
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ggwb.calculus import ChartManifold
from ggwb.poly import Gaussian
from ggwb.symexpr import _POLE, _layout, evaluate, parse_scalar, random_poly
from sympy_oracle import random_expr, to_mpmath

CHART = ChartManifold("print3", ["x", "y", "z"])


@pytest.mark.parametrize("text,printed", [
    ("3/2*x^2 - 0.5 + 2*x*y", "(3*x^2 + 4*x*y - 1)/2"),
    ("-x/(2*y + 2)", "-x/(2*y + 2)"),
    ("x/(2*y)", "x/(2*y)"),
    ("(x + 1)^2/z^3", "(x^2 + 2*x + 1)/z^3"),
    ("exp(2/7)*exp(x*y)/y", "exp(2/7)*exp(x*y)/y"),
    ("1/exp(x)^2", "1/exp(x)^2"),
    ("exp(x/6)^2 + exp(x/6)", "exp(x/3) + exp(x/6)"),
    ("tan_half", "sin(x)/(1 + cos(x))"),
    ("z*sin(y)", "2*z*sin(y)/(1 + cos(y))/((sin(y)/(1 + cos(y)))^2 + 1)"),
    ("0", "0"),
    ("-1/3", "-1/3"),
])
def test_printed_form(text, printed):
    s = (CHART.scalar("sin(x)") / (1 + CHART.scalar("cos(x)")) if text == "tan_half"
         else CHART.scalar(text))
    assert str(s) == printed
    assert repr(s) == f"ScalarExpr({printed})"
    assert parse_scalar(printed, CHART) == s


def test_gaussian_coefficients_print_with_I():
    x, y, i = CHART.scalar("x"), CHART.scalar("y"), CHART.i
    s = x * i + y * Gaussian(2, -3) - i * 2 + Gaussian(1, 1)
    assert str(s) == "I*x + (2 - 3*I)*y + (1 - I)"
    assert str(-x * i / (y + 1)) == "-I*x/(y + 1)"
    assert s.expr == sp.I * sp.Symbol("x") + (2 - 3 * sp.I) * sp.Symbol("y") + 1 - sp.I


def test_a_generator_prints_its_argument():
    s = CHART.scalar("exp(x/3)*sin(y^2)")
    assert [repr(g) for g in _layout(s.rf.field)[1]] == ["E[x/3]", "T[y^2]"]


def _agrees_with_evaluate(s, rng):
    """s.expr at rational points against evaluate: equal for exact values,
    within 1e-20 of their size for 30-digit ones."""
    checked = 0
    for _ in range(3):
        point = CHART.sample_point(rng)
        v = evaluate(s, point)
        subs = {sp.Symbol(c): sp.Rational(q.numerator, q.denominator) for c, q in point.items()}
        try:
            ref = s.expr.evalf(40, subs=subs)
        except TypeError:  # evalf of sin(z/x) at x = 0 raises instead of giving zoo
            ref = sp.zoo
        if v is _POLE or not ref.is_finite:
            continue  # a pole, or a pole of a half-angle generator
        with mpmath.workdps(40):
            got, want = to_mpmath(v), to_mpmath(ref)
            assert abs(got - want) <= 1e-20 * max(1, abs(want))
        checked += 1
    return checked


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), degree=st.integers(1, 3))
def test_polynomials_read_back_from_their_text(seed, degree):
    rng = random.Random(seed)
    s, d = random_poly(CHART, rng, degree), random_poly(CHART, rng, degree)
    if seed % 2 and not d.is_syntactic_zero:
        s = s / d
    assert parse_scalar(str(s), CHART) == s
    assert _agrees_with_evaluate(s, rng)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_atom_data_reads_back_from_its_text(seed):
    rng = random.Random(seed)
    s = random_expr(CHART, rng, max_depth=4, atoms=True)
    assert parse_scalar(str(s), CHART) == s
    _agrees_with_evaluate(s, rng)
