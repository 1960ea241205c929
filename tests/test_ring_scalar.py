"""Scalars held in the rational function field of their chart.

A scalar without ``sin``/``cos``/``exp`` is an element of Q(x) (or of
Q(i)(x) when ``I`` occurs), and its reduced fraction is its canonical form.
These tests pin that the field agrees with ``sympy.cancel``, that
look-alike non-identities fail with the witnesses the former sympy
expression path gave, that Gaussian coefficients work, and that tensor work
on atom-free data never leaves the field once the inputs are parsed.
"""

import operator
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ggwb import calculus, symexpr
from ggwb.calculus import ChartManifold, EndoTM, OneForm, VectorField
from ggwb.courant import BigSection, courant_bracket, pairing, partial
from ggwb.poly import Gaussian
from ggwb.symexpr import (
    ScalarExpr,
    ZeroPolicy,
    _POLE,
    evaluate,
    is_zero,
    is_zero_all,
    pdiff,
)
from ggwb.verdict import VerdictKind
import sympy_oracle
from sympy_oracle import symbols, to_scalar


@pytest.fixture(scope="module")
def chart():
    return ChartManifold("ring3", ["x", "y", "z"])


def _raw_tree(chart, rng, depth):
    """A random atom-free expression tree, left as sympy builds it."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return sp.Rational(rng.randint(-9, 9), rng.randint(1, 9))
        return rng.choice(symbols(chart))
    r = rng.random()
    if r < 0.35:
        return _raw_tree(chart, rng, depth - 1) + _raw_tree(chart, rng, depth - 1)
    if r < 0.65:
        return _raw_tree(chart, rng, depth - 1) * _raw_tree(chart, rng, depth - 1)
    if r < 0.75:
        return -_raw_tree(chart, rng, depth - 1)
    if r < 0.85:
        return _raw_tree(chart, rng, depth - 1) ** rng.randint(2, 3)
    den = _raw_tree(chart, rng, depth - 1)
    if sp.cancel(den) == 0:
        den = 1 + rng.choice(symbols(chart)) ** 2
    return _raw_tree(chart, rng, depth - 1) / den


# -- agreement with the Expr path ------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
@example(seed=1304)
def test_view_is_sympy_cancel(chart, seed):
    rng = random.Random(seed)
    raw = _raw_tree(chart, rng, 5)
    e = to_scalar(raw, chart)
    assert e.rf is not None
    assert e.expr == sp.cancel(raw) == to_scalar(e.expr, chart).expr


def test_negative_power_is_normalized(chart):
    """A negative power leaves the constructor with a denominator of
    positive leading coefficient, like the same power taken on a scalar."""
    x = symbols(chart)[0]
    raw = (sp.Rational(29, 6) - 2 * x) ** -3
    built, powered = to_scalar(raw, chart), chart.scalar("29/6 - 2*x") ** -3
    assert built == powered
    assert hash(built) == hash(powered)
    assert built.expr == powered.expr == sp.cancel(raw)
    assert built.rf.denom.LC > 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_arithmetic_and_diff_agree_with_expr_path(chart, seed):
    rng = random.Random(seed)
    a, b = (to_scalar(_raw_tree(chart, rng, 4), chart) for _ in range(2))
    A, B = a.expr, b.expr
    assert (a + b).expr == sp.cancel(A + B)
    assert (a - b).expr == sp.cancel(A - B)
    assert (a * b).expr == sp.cancel(A * B)
    assert (a**2).expr == sp.cancel(A**2)
    assert (-a).expr == sp.cancel(-A)
    if not b.is_syntactic_zero:
        assert (a / b).expr == sp.cancel(A / B)
        assert (b**-1).expr == sp.cancel(1 / B)
    for s in symbols(chart):
        d = pdiff(a, s.name)
        assert d.rf is not None
        assert d.expr == sp.cancel(sp.diff(A, s))


# -- soundness on look-alike non-identities ---------------------------------


@pytest.mark.parametrize(
    "text, seed, point, value",
    [
        ("(x+y)^2 - x^2 - y^2", 0, (Fraction(1, 54), Fraction(-87, 34), Fraction(11, 21)),
         Fraction(-29, 306)),
        ("x/(x+1) - 1 + 1/x", 0, (Fraction(1, 54), Fraction(-87, 34), Fraction(11, 21)),
         Fraction(2916, 55)),
        ("(x+y)^2 - x^2 - y^2", 3, (Fraction(-37, 76), Fraction(42, 17), Fraction(-1, 26)),
         Fraction(-777, 323)),
        ("x/(x+1) - 1 + 1/x", 3, (Fraction(-37, 76), Fraction(42, 17), Fraction(-1, 26)),
         Fraction(-5776, 1443)),
    ],
)
def test_look_alike_non_identities_fail_with_the_same_witness(chart, text, seed, point, value):
    """The witnesses are those the sympy.cancel representation gave."""
    v = is_zero(chart.scalar(text), ZeroPolicy(seed=seed))
    assert v.kind is VerdictKind.FAILED
    assert v.witness.point == tuple(zip(chart.coords, point))
    assert v.witness.value == value


def test_rational_pole_redraws_the_sample(chart):
    pol = ZeroPolicy(samples=4, seed=7)
    first = chart.sample_point(pol.rng())
    e = 1 / (chart.scalar("y") - first["y"]) + chart.scalar("x")
    assert e.rf is not None
    assert evaluate(e, first) is _POLE
    v = is_zero(e, pol)
    assert v.kind is VerdictKind.FAILED
    assert v.witness.point != tuple(sorted(first.items()))
    assert v.witness.point == (("x", Fraction(40, 13)), ("y", Fraction(-4, 75)), ("z", Fraction(-83, 65)))
    assert v.witness.value == Fraction(-4705, 689)


# -- Gaussian coefficients ----------------------------------------------------


def test_gaussian_identity_proved(chart):
    x, y = chart.scalar("x"), chart.scalar("y")
    i = to_scalar(sp.I, chart)
    assert i.rf.field.gaussian and not x.rf.field.gaussian
    d = (x + i * y) * (x - i * y) - (x * x + y * y)
    assert not d.rf.field.gaussian  # a real value settles back in Q(x)
    assert is_zero(d).kind is VerdictKind.PROVED
    assert (x + i * y) * (x - i * y) == x**2 + y**2


def test_gaussian_conjugate_and_derivative(chart):
    x, y, z = (chart.scalar(c) for c in "xyz")
    i = to_scalar(sp.I, chart)
    w = (x + i * y) / (x - i * z)
    assert w.rf.field.gaussian
    assert w.conjugate() == (x - i * y) / (x + i * z)
    assert w.conjugate().expr == sp.cancel(w.expr.subs(sp.I, -sp.I))
    assert x.conjugate() is x
    for s in symbols(chart):
        assert pdiff(w, s.name).expr == sp.cancel(sp.diff(w.expr, s))
    assert is_zero(pdiff(w, "x") - (-i * z - i * y) / (x - i * z) ** 2).kind is VerdictKind.PROVED


def test_a_gaussian_number_times_a_scalar_is_a_scalar(chart):
    """A Gaussian leaves an operand that is not an int, a Fraction or a
    Gaussian to that operand's own operator, so both orders of each
    operation give the same scalar."""
    g, y = Gaussian(2, -3), chart.scalar("y")
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        left, right = op(g, y), op(chart.scalar(g), y)
        assert type(left) is ScalarExpr and left == right
        assert op(y, g) == op(y, chart.scalar(g))
    i = chart.i
    assert g * y == y * g == (2 - 3 * i) * y
    assert g * y + y == (3 - 3 * i) * y
    # the exact arithmetic of values is unchanged
    assert g * 2 == 2 * g == Gaussian(4, -6)
    assert g - Fraction(1, 2) == Gaussian(Fraction(3, 2), -3)
    assert 1 - g == Gaussian(-1, 3) and g / 2 == Gaussian(1, Fraction(-3, 2))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), gaussian=st.booleans())
def test_constant_factor_product_skips_the_gcd_and_keeps_the_fraction(chart, seed, gaussian):
    """A lone product in a contraction sum whose factors but one are
    constants takes only the constant normalization; over Q and Q(i) that
    is the reduced fraction the gcd of ``_fraction`` gives."""
    rng = random.Random(seed)
    raw = _raw_tree(chart, rng, 4)
    if gaussian:
        raw += sp.I * _raw_tree(chart, rng, 2)
    K = symexpr._field(chart.coords, gaussian)

    def element(e):
        rf = to_scalar(e, chart).rf
        L = symexpr._join(rf.field, K)
        return symexpr._embed(rf, L)

    def constant():
        c = sp.Rational(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        return c + sp.Rational(rng.randint(-9, 9), rng.randint(1, 9)) * sp.I if gaussian else c

    f = element(raw)
    L = f.field
    factors = [f] + [symexpr._embed(element(constant()), L) for _ in range(rng.randint(1, 3))]
    rng.shuffle(factors)
    num, den = calculus._product(factors)
    got = calculus._field_sum(L, [factors])
    want = symexpr._fraction(L, num, den)
    assert (got.numer, got.denom) == (want.numer, want.denom)
    # two factors that are not constants still cancel by the gcd
    if not (f.numer.is_ground and f.denom.is_ground):
        inverse = symexpr._field_op(operator.truediv, L.one, f)
        assert calculus._field_sum(L, [[f, inverse]]) == L.one


# -- atom-free and atom scalars together --------------------------------------


@pytest.mark.parametrize("seed, value", [(0, -0.03764570140573564), (3, -15.23447788928987)])
def test_mixed_scalars_keep_their_verdicts(chart, seed, value):
    """Proved stays Proved, and the Failed witness value is the one the
    sympy.cancel representation gave."""
    pol = ZeroPolicy(seed=seed)
    r, ey = chart.scalar("x/(x+1)"), chart.scalar("exp(y)")
    assert r.is_rational_function and not ey.is_rational_function
    ok = r * ey - ey + chart.scalar("exp(y)/(x+1)")
    assert ok.is_rational_function and is_zero(ok, pol).kind is VerdictKind.PROVED
    trig = chart.scalar("(x^2+1)*sin(y)^2") + chart.scalar("x^2+1") * chart.scalar("cos(y)^2")
    assert is_zero(trig - chart.scalar("x^2 + 1"), pol).kind is VerdictKind.PROVED
    bad = r * ey - ey + chart.scalar("exp(y)/(x+2)")
    v = is_zero(bad, pol)
    assert v.kind is VerdictKind.FAILED
    assert v.witness.value == pytest.approx(value, rel=1e-12)


# -- tensor work stays in the field -------------------------------------------


def _boom(*args, **kwargs):
    raise AssertionError("atom-free tensor work left the rational function field")


@pytest.fixture
def sealed(monkeypatch):
    """``seal()`` makes cancel, diff, the printer and both conversions
    between sympy expressions and the field raise (the ``expr`` property's
    parse and the oracle's cached conversion)."""

    def seal():
        monkeypatch.setattr(sp, "cancel", _boom)
        monkeypatch.setattr(sp, "diff", _boom)
        monkeypatch.setattr(sp, "parse_expr", _boom)
        monkeypatch.setattr(symexpr, "_text", _boom)
        monkeypatch.setattr(sympy_oracle, "_convert", _boom)

    return seal


def test_propofC_never_leaves_the_field(chart, sealed):
    """The anomaly identity [A, fB] = f[A,B] + pr A(f) B - g(A,B) df."""
    A = BigSection(
        VectorField(chart, ["1 + x*y", "z^2", "-3*x + 2"]),
        OneForm(chart, ["y*z", "2", "x^2 - z"]),
    )
    B = BigSection(
        VectorField(chart, ["x - 4*z", "y^2*x", "1/2"]),
        OneForm(chart, ["-x", "3*y + z", "x*y*z"]),
    )
    f = chart.scalar("x^2*y - 3*z^3 + 1")
    sealed()
    lhs = courant_bracket(A, B * f)
    rhs = courant_bracket(A, B) * f + B * A.X.apply(f) - partial(f) * pairing(A, B)
    assert is_zero_all((lhs - rhs).components()).kind is VerdictKind.PROVED
    broken = courant_bracket(A, B) * f + B * A.X.apply(f)
    assert is_zero_all((lhs - broken).components()).kind is VerdictKind.FAILED


def test_gaussian_endomorphism_never_leaves_the_field(chart, sealed):
    i = to_scalar(sp.I, chart)
    F = EndoTM(chart, [["x", "y^2", "0"], ["1", "z", "x*y"], ["0", "2", "-x"]])
    J = F * i
    sealed()
    defect = (J @ J + F @ F).components
    assert all(e.is_syntactic_zero for row in defect for e in row)
    assert is_zero(F(J.conjugate()(VectorField(chart, [1, 0, 0]))).components[0]
                   + F(F(VectorField(chart, [i, 0, 0]))).components[0]).is_proved
