import random
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ggwb.calculus import ChartManifold
from ggwb.errors import ChartMismatchError, ExprError, ParseError
from ggwb.symexpr import (
    ScalarExpr,
    ZeroPolicy,
    differentiate,
    evaluate,
    is_zero,
    parse_scalar,
    random_poly,
    _POLE,
)
from ggwb.verdict import VerdictKind
from sympy_oracle import random_expr, random_tree, symbols, to_mpmath, to_scalar


@pytest.fixture(scope="module")
def chart():
    return ChartManifold("test3", ["x", "y", "z"])


# -- parser -------------------------------------------------------------


def test_parse_literals_and_precedence(chart):
    e = parse_scalar("3/2*x^2 - 0.5 + 2*x*y", chart)
    x, y = symbols(chart)[:2]
    assert e.expr == sp.Rational(3, 2) * x**2 - sp.Rational(1, 2) + 2 * x * y


def test_parse_whitespace_insensitive(chart):
    assert parse_scalar(" sin( x ) *2", chart) == parse_scalar("2*sin(x)", chart)


def test_parse_unary_and_power(chart):
    e = parse_scalar("-x^2", chart)
    assert e.expr == -symbols(chart)[0] ** 2
    e = parse_scalar("(1+x)^3", chart)
    assert e.expr == sp.expand((1 + symbols(chart)[0]) ** 3)


def test_parse_functions(chart):
    e = parse_scalar("sin(x)*cos(y) + exp(z)", chart)
    assert e.expr.has(sp.sin, sp.cos, sp.exp)


def test_parse_error_positions(chart):
    with pytest.raises(ParseError) as err:
        parse_scalar("x + q", chart)
    assert "unknown symbol 'q'" in str(err.value)
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse_scalar("tan(x)", chart)
    with pytest.raises(ParseError):
        parse_scalar("x^y", chart)  # exponent must be an integer literal
    with pytest.raises(ParseError):
        parse_scalar("x + ", chart)
    with pytest.raises(ParseError):
        parse_scalar("1/(x-x)", chart)


# -- constructors and canonical form -------------------------------------


def test_parser_agrees_with_the_sympy_conversion(chart):
    """The parser builds the field element that the conversion of sympy's
    tree of the same text gives (the tree printed, ``**`` as ``^``)."""
    for seed in range(300):
        tree = random_tree(chart, random.Random(seed), max_depth=5)
        if tree.has(sp.E):  # the grammar has no constant e
            continue
        text = str(tree).replace("**", "^")
        assert parse_scalar(text, chart).rf == to_scalar(tree, chart).rf, text


def _random_poly_through_sympy(chart, rng, degree):
    """random_poly as it was built through sympy, draw for draw."""
    terms = [sp.Integer(rng.randint(-4, 4))]
    for _ in range(rng.randint(1, 4)):
        term = sp.Integer(rng.randint(-4, 4))
        for _ in range(rng.randint(1, degree)):
            term *= rng.choice(symbols(chart))
        terms.append(term)
    return to_scalar(sp.Add(*terms), chart)


@pytest.mark.parametrize("coords,degree", [(("x", "y", "z"), 2), (("p", "a10", "x", "a2"), 3)])
def test_random_poly_keeps_its_draws(coords, degree):
    """crvpm and the invariance checks draw the same functions as before."""
    chart = ChartManifold("rp", coords)
    for seed in range(50):
        r1, r2 = random.Random(seed), random.Random(seed)
        got = random_poly(chart, r1, degree)
        assert got.rf == _random_poly_through_sympy(chart, r2, degree).rf
        assert r1.random() == r2.random()


def test_subs_chart_keeps_unmapped_coordinates():
    src = ChartManifold("src", ["x", "y"])
    dst = ChartManifold("dst", ["x", "y", "t"])
    f = src.scalar("x^2*y + sin(y)")
    g = f.subs_chart(dst, {"x": dst.scalar("t + 1")})
    assert g == dst.scalar("(t + 1)^2*y + sin(y)")
    with pytest.raises(ChartMismatchError, match="'y' is not a coordinate"):
        f.subs_chart(ChartManifold("line", ["t"]), {"x": "t"})


def test_rational_normal_form(chart):
    x = symbols(chart)[0]
    e = to_scalar((x**2 - 1) / (x - 1) - x - 1, chart)
    assert e.is_syntactic_zero


def test_floats_rejected(chart):
    with pytest.raises(ExprError):
        ScalarExpr(0.5, chart)
    with pytest.raises(ExprError):
        chart.scalar("x") * 0.5


def test_noninteger_power_rejected(chart):
    with pytest.raises(ExprError):
        chart.scalar("x") ** Fraction(1, 2)
    with pytest.raises(ParseError, match="exponent must be an integer"):
        parse_scalar("x^(1/2)", chart)


def test_only_text_numbers_and_scalars_make_a_scalar(chart):
    """sympy objects and other values are not input: the parser is the way
    in, and the error names the accepted types."""
    for value in (symbols(chart)[0], sp.Rational(1, 2), sp.I, [1], None):
        with pytest.raises(ExprError, match="text, an int, a Fraction, a Gaussian or a scalar"):
            ScalarExpr(value, chart)
        assert chart.scalar("x") != value
    with pytest.raises(ExprError, match="not Symbol"):
        chart.scalar("x") + symbols(chart)[0]


def test_zero_denominator_rejected(chart):
    x = chart.scalar("x")
    with pytest.raises(ExprError):
        x / (x - x)
    with pytest.raises(ExprError):
        1 / (x * 0)


def test_chart_mismatch(chart):
    other = ChartManifold("other", ["u"])
    with pytest.raises(ChartMismatchError):
        chart.scalar("x") + other.scalar("u")
    with pytest.raises(ChartMismatchError):
        ScalarExpr(other.scalar("u"), chart)
    with pytest.raises(ChartMismatchError):
        to_scalar(symbols(other)[0], chart)


def test_exp_atoms_combine_exactly(chart):
    e = chart.scalar("exp(z)") * chart.scalar("exp(-z)")
    assert e == 1


def test_conjugate(chart):
    x, y = symbols(chart)[:2]
    e = chart.scalar("x") * to_scalar(sp.I, chart) + chart.scalar("sin(y)")
    assert e.conjugate() == to_scalar(-sp.I * x + sp.sin(y), chart)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_canon_idempotent_random(seed):
    """The view of a canonical scalar reads back as itself."""
    chart = ChartManifold("test3", ["x", "y", "z"])
    rng = random.Random(seed)
    e = random_expr(chart, rng, max_depth=6)
    assert to_scalar(e.expr, chart).expr == e.expr


def test_canon_idempotent_bulk():
    """The canonical view is a fixed point, to_scalar(to_scalar(t).expr).expr
    == to_scalar(t).expr, on 1e4 random expression trees of depth <= 8.

    A lean tree sampler (high leaf probability, bounded width) keeps the
    bulk run fast; the heavier-tree variant above covers size."""
    chart = ChartManifold("test3", ["x", "y", "z"])
    rng = random.Random(271828)

    def view(t):
        return to_scalar(t, chart).expr

    def build(depth):
        if depth <= 0 or rng.random() < 0.45:
            if rng.random() < 0.5:
                return sp.Rational(rng.randint(-9, 9), rng.randint(1, 9))
            return rng.choice(symbols(chart))
        r = rng.random()
        if r < 0.35:
            return build(depth - 1) + build(depth - 1)
        if r < 0.6:
            return build(depth - 1) * rng.choice(symbols(chart))
        if r < 0.72:
            return -build(depth - 1)
        if r < 0.8:
            return build(depth - 1) ** rng.randint(2, 3)
        if r < 0.9:
            den = view(build(depth - 1))
            if den == 0:
                den = 1 + rng.choice(symbols(chart)) ** 2
            return build(depth - 1) / den
        fn = rng.choice((sp.sin, sp.cos, sp.exp))
        return fn(build(min(depth - 1, 2)))

    for _ in range(10_000):
        c = view(build(rng.randint(0, 8)))
        assert view(c) == c


# -- differentiation ------------------------------------------------------


def test_differentiate_table_rules(chart):
    assert differentiate(chart.scalar("x^2*y"), "x") == chart.scalar("2*x*y")
    assert differentiate(chart.scalar("sin(z)"), "z") == chart.scalar("cos(z)")
    t_chart = ChartManifold("line", ["t", "y"])
    e = differentiate(t_chart.scalar("exp(t)*y"), "t")
    assert e == t_chart.scalar("exp(t)*y")


def test_differentiate_unknown_symbol(chart):
    with pytest.raises(ChartMismatchError):
        differentiate(chart.scalar("x"), "w")


def test_differentiate_matches_finite_differences(chart):
    """Independent oracle: central differences at random rational points."""
    rng = random.Random(5)
    pol = ZeroPolicy(samples=4, seed=9)
    for _ in range(12):
        e = random_expr(chart, rng, max_depth=4, division=False)
        coord = rng.choice(chart.coords)
        de = differentiate(e, coord)
        pt = chart.sample_point(rng)
        h = Fraction(1, 10**6)
        up = dict(pt)
        dn = dict(pt)
        up[coord] += h
        dn[coord] -= h
        f_up, f_dn, d_val = evaluate(e, up), evaluate(e, dn), evaluate(de, pt)
        if _POLE in (f_up, f_dn, d_val):
            continue
        approx = (complex(f_up) - complex(f_dn)) / (2 * float(h))
        scale = max(1.0, abs(complex(d_val)))
        assert abs(approx - complex(d_val)) / scale < 1e-4


def test_leibniz_rule_property(chart):
    rng = random.Random(11)
    pol = ZeroPolicy(samples=8, seed=3)
    for _ in range(20):
        e = random_expr(chart, rng, max_depth=4)
        f = random_expr(chart, rng, max_depth=4)
        d = differentiate(e * f, "x") - differentiate(e, "x") * f - e * differentiate(f, "x")
        assert is_zero(d, pol).kind is not VerdictKind.FAILED


# -- the zero test --------------------------------------------------------


def test_is_zero_trivial_cases(chart):
    pol = ZeroPolicy(samples=16, seed=0)
    assert is_zero(chart.scalar("x - x"), pol).kind is VerdictKind.PROVED
    v = is_zero(chart.scalar("sin(x)^2 + cos(x)^2 - 1"), pol)
    assert v.kind is VerdictKind.PROVED
    v = is_zero(chart.scalar("x*y - y"), pol)
    assert v.kind is VerdictKind.FAILED
    point = dict(v.witness.point)
    assert point["x"] != 1  # witness must show x != 1


def test_is_zero_exact_rational_sampling(chart):
    # a rational function vanishing on a line but not identically: Failed
    pol = ZeroPolicy(samples=4, seed=1)
    v = is_zero(chart.scalar("x*(x-1)/(1+y^2)"), pol)
    assert v.kind is VerdictKind.FAILED
    assert isinstance(v.witness.value, Fraction)


def test_is_zero_deterministic(chart):
    pol = ZeroPolicy(samples=8, seed=42)
    v1 = is_zero(chart.scalar("x*y - y"), pol)
    v2 = is_zero(chart.scalar("x*y - y"), pol)
    assert v1.witness.point == v2.witness.point
    assert v1.witness.value == v2.witness.value


def test_is_zero_soundness(chart):
    """Proved expressions evaluate to exact zero at arbitrary points."""
    rng = random.Random(17)
    pol = ZeroPolicy(samples=4, seed=2)
    checked = 0
    for _ in range(40):
        e = random_expr(chart, rng, max_depth=4)
        f = random_expr(chart, rng, max_depth=4)
        d = (e + f) - f - e
        v = is_zero(d, pol)
        assert v.kind is VerdictKind.PROVED
        pt = chart.sample_point(rng)
        val = evaluate(d, pt)
        if val is not _POLE:
            assert complex(val) == 0
            checked += 1
    assert checked > 10


def test_pole_resampling(chart):
    # the first sample point of this policy seed is a pole of the expression
    pol = ZeroPolicy(samples=4, seed=7)
    first = chart.sample_point(pol.rng())
    x0 = first["x"]
    e = 1 / (chart.scalar("x") - x0)
    assert evaluate(e, first) is _POLE
    v = is_zero(e, pol)  # must resample past the pole, then fail
    assert v.kind is VerdictKind.FAILED


def test_evaluate_names_a_missing_coordinate():
    plane = ChartManifold("plane", ["x", "y"])
    with pytest.raises(ExprError, match="coordinate.*y"):
        evaluate(plane.scalar("x"), {"x": 1})


def test_values_beyond_the_double_range_keep_their_digits():
    """An atom value is a 30-digit Decimal, finite where a double is not;
    a witness prints a finite value as a float and a larger one by its
    leading digits."""
    line = ChartManifold("line", ["x"])
    v = evaluate(line.scalar("exp(800*x)"), {"x": 1})  # E[x]^800
    assert type(v) is Decimal and len(v.as_tuple().digits) == 30
    with mpmath.workdps(30):
        assert abs(to_mpmath(v) / mpmath.exp(800) - 1) < 1e-25
    far = ChartManifold("far", ["x"], ranges={"x": (Fraction(700), Fraction(800))})
    for seed in (2, 0):  # x = 707.7 and x = 751.0
        w = is_zero(far.scalar("exp(x)"), ZeroPolicy(samples=1, seed=seed)).witness
        x0 = dict(w.point)["x"]
        with mpmath.workdps(30):
            ref = mpmath.exp(mpmath.mpf(x0.numerator) / x0.denominator)
        printed = w.as_dict()["value"]
        if seed == 2:
            assert w.value == float(ref) and printed == f"{float(ref):.12e}"
        else:
            digits, exponent = printed.split("e")
            assert (digits, int(exponent)) == (f"{float(ref / 10**326):.12e}"[:14], 326)


def test_pole_exhaustion():
    chart = ChartManifold("tiny", ["x"], ranges={"x": (Fraction(0), Fraction(1))})
    # every sample of x lands strictly inside (0, 1) at multiples of 1/194;
    # build an expression whose poles cover all of them
    num = sp.Integer(1)
    x = symbols(chart)[0]
    den = sp.prod([x - sp.Rational(k, 194) for k in range(1, 194)])
    e = to_scalar(num / den, chart)
    pol = ZeroPolicy(samples=4, seed=0, max_resample=2)
    with pytest.raises(ExprError):
        is_zero(e, pol)


@pytest.mark.parametrize("max_resample", [0, 1])
def test_max_resample_counts_retries(monkeypatch, max_resample):
    """The first point is a pole of 1/x: with no retry the one sample is
    lost and the budget is spent, with one retry the next point decides."""
    chart = ChartManifold("line", ["x"])
    points = iter([{"x": Fraction(0)}, {"x": Fraction(1)}])
    monkeypatch.setattr(ChartManifold, "sample_point", lambda self, rng: next(points))
    pol = ZeroPolicy(samples=1, seed=0, max_resample=max_resample)
    if max_resample == 0:
        with pytest.raises(ExprError, match="resampling budget exhausted after 1 attempts"):
            is_zero(chart.scalar("1/x"), pol)
    else:
        assert is_zero(chart.scalar("1/x"), pol).kind is VerdictKind.FAILED


def test_verdict_aggregation_order():
    from ggwb.verdict import Verdict, combine

    worst = combine(Verdict.proved(), Verdict.numeric(), Verdict.failed())
    assert worst.kind is VerdictKind.FAILED
    mid = combine(Verdict.proved(), Verdict.numeric())
    assert mid.kind is VerdictKind.NUMERIC
