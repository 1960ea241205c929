"""Sin, cos and exp as generators of the chart's rational function field.

``sin(m)`` and ``cos(m)`` are rational in ``T_m = tan(m/2)`` and ``exp(m)`` is
a generator ``E_m``, so the Pythagorean, sum and multiple-angle identities
hold in the reduced fraction itself, and a zero fraction is a proof.
Anything else must fall back to sampling, so non-identities that look like
identities stay Failed and identities outside the representation's reach
stay NumericallySupported.
"""

import random
from fractions import Fraction

import mpmath
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sympy as sp
from ggwb.calculus import ChartManifold
from ggwb.errors import ExprError, ParseError
from ggwb.symexpr import _POLE, ZeroPolicy, evaluate, is_zero
from ggwb.verdict import VerdictKind
from ggwb.workbench import load_builtin, run_checks
from sympy_oracle import random_expr, random_tree, symbols, to_mpmath, to_scalar

POL = ZeroPolicy(samples=16, seed=0)


@pytest.fixture(scope="module")
def chart():
    return ChartManifold("test3", ["x", "y", "z"])


def _kind(chart, text):
    return is_zero(chart.scalar(text), POL).kind


# -- the zero test --------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "sin(x)^2 + cos(x)^2 - 1",
        "sin(2*x) - 2*sin(x)*cos(x)",
        "cos(x+y) - cos(x)*cos(y) + sin(x)*sin(y)",
        "cos(3*x) - 4*cos(x)^3 + 3*cos(x)",
        "(sin(x)^2 + cos(x)^2)^3 - 1",
        "exp(z)*(sin(y)^4 - cos(y)^4) - exp(z)*(sin(y)^2 - cos(y)^2)",
        "x/sin(y) - x*sin(y) - x*cos(y)^2/sin(y)",
        # large multiples stay single atoms, so this does not expand to
        # degree 729 in sin(y), cos(y)
        "cos((y-9)^3)^2 + sin((y-9)^3)^2 - 1",
    ],
)
def test_identities_are_proved(chart, text):
    assert _kind(chart, text) is VerdictKind.PROVED


@pytest.mark.parametrize(
    "text",
    [
        "sin(x)^2 - cos(x)^2",
        "sin(x)^2 + cos(y)^2 - 1",
        "sin(2*x) - sin(x)*cos(x)",
        "sin(x)^2 + cos(x)^2 - 1 + x/1000000",
    ],
)
def test_lookalike_non_identities_fail_with_witness(chart, text):
    v = is_zero(chart.scalar(text), POL)
    assert v.kind is VerdictKind.FAILED
    assert v.witness is not None and abs(v.witness.value) > POL.tol


def test_denominator_reducing_to_zero_raises(chart):
    """The field rejects the division when the scalar is built, so no zero
    test, and no Proved, is ever reached."""
    x, y, _ = symbols(chart)

    def pyth(u):
        return sp.sin(u) ** 2 + sp.cos(u) ** 2 - 1

    for expr in (1 / pyth(x), pyth(x) / pyth(y)):
        with pytest.raises(ExprError):
            is_zero(to_scalar(expr, chart), POL)
    for text in ("1/(sin(x)^2 + cos(x)^2 - 1)",
                 "(sin(x)^2 + cos(x)^2 - 1)/(sin(y)^2 + cos(y)^2 - 1)"):
        with pytest.raises(ParseError):
            is_zero(chart.scalar(text), POL)


def test_identity_outside_the_reduction_is_only_sampled(chart):
    """sin(x) and sin(x/2) have independent generators, so the
    double-angle identity in x/2 is not decided: it stays
    NumericallySupported, never a guessed Proved."""
    assert not chart.scalar("sin(x) - 2*sin(x/2)*cos(x/2)").is_syntactic_zero
    assert _kind(chart, "sin(x) - 2*sin(x/2)*cos(x/2)") is VerdictKind.NUMERIC


def test_multiples_above_the_bound_are_not_expanded(chart):
    assert not chart.scalar("sin(20*x) - 2*sin(10*x)*cos(10*x)").is_syntactic_zero
    assert _kind(chart, "sin(20*x) - 2*sin(10*x)*cos(10*x)") is VerdictKind.NUMERIC


def test_rational_and_exp_inputs_are_untouched(chart):
    for text in ("x^2 - y", "exp(x)*y - 1", "x/(1 + y^2)"):
        e = chart.scalar(text)
        assert is_zero(e, POL).kind is VerdictKind.FAILED


@pytest.mark.parametrize("text", ["exp(x+1) - exp(1)*exp(x)", "exp(2*x) - exp(x)^2",
                                  "exp(x/3) - exp(x/6)^2", "exp(4/7) - exp(2/7)^2",
                                  "exp(x/2)*exp(x/3) - exp(5*x/6)"])
def test_exp_constants_and_multiples_are_proved(chart, text):
    assert _kind(chart, text) is VerdictKind.PROVED


@pytest.mark.parametrize("text", ["exp(x+1) - exp(x)", "sin(x)^2 - cos(2*x)",
                                  "exp(x/3)^2 - exp(x/6)^3", "exp(4/7) - exp(2/7)^3",
                                  "exp(x/2)*exp(x/3) - exp(x/6)^4"])
def test_exp_and_angle_lookalikes_fail_with_witness(chart, text):
    v = is_zero(chart.scalar(text), POL)
    assert v.kind is VerdictKind.FAILED
    assert v.witness is not None and abs(v.witness.value) > POL.tol


# -- the canonical form itself ----------------------------------------------


def test_normal_form_has_cos_degree_at_most_one(chart):
    """sin(x) and cos(x) share one generator: the expanded and the
    unexpanded sum are one scalar, over a single atom generator."""
    x = symbols(chart)[0]
    raw = (sp.cos(x) + sp.sin(x)) ** 6 + sp.cos(2 * x) ** 3
    e = to_scalar(sp.expand(raw), chart)
    assert e == to_scalar(raw, chart)
    assert len(e.rf.field.symbols) == chart.dim + 1
    assert to_scalar(e.expr, chart) == e


def test_tidy_trig_keeps_the_smaller_form(chart):
    """The Pythagorean factor is gone from the value itself."""
    swollen = chart.scalar("(sin(x)^2 + cos(x)^2)^2 * sin(x)")
    assert swollen == chart.scalar("sin(x)")
    assert swollen.rf == chart.scalar("sin(x)").rf
    small = chart.scalar("cos(x)")
    assert small == chart.scalar("cos(x)") and small == to_scalar(sp.cos(symbols(chart)[0]), chart)


def _values(expr, chart, rng, n=3):
    out = []
    for _ in range(n):
        point = chart.sample_point(rng)
        subs = {sp.Symbol(k): sp.Rational(v.numerator, v.denominator) for k, v in point.items()}
        try:
            ref = expr.evalf(30, subs=subs)
        except TypeError:  # evalf of sin(z/x) at x = 0 raises instead of giving zoo
            ref = sp.zoo
        out.append((point, ref))
    return out


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
@example(seed=2900)  # a value of about -8.6e2100, beyond the range of a double
def test_trig_reduce_idempotent_and_value_preserving(seed):
    chart = ChartManifold("test3", ["x", "y", "z"])
    e = random_expr(chart, random.Random(seed), max_depth=6, atoms=True, division=False)
    assert to_scalar(e.expr, chart) == e
    for point, ref in _values(e.expr, chart, random.Random(seed)):
        with mpmath.workdps(30):
            v, ref = to_mpmath(evaluate(e, point)), to_mpmath(ref)
            assert abs(v - ref) <= 1e-12 * (1 + abs(ref))


# -- soundness of the one representation --------------------------------------


def test_field_holds_exactly_the_generators_that_occur(chart):
    """Generators that cancel leave the field, so equal values compare and
    hash alike whichever way they were computed."""
    one, x = chart.scalar(1), chart.scalar("x")
    for text, value in (("exp(x)*exp(-x)", one), ("x*(sin(y)^2 + cos(y)^2)", x),
                        ("exp(z) + x - exp(z)", x)):
        e = chart.scalar(text)
        assert e.rf.field == value.rf.field and e == value and hash(e) == hash(value)
    mixed = chart.scalar("exp(z)*sin(y) + exp(z)")
    assert len(mixed.rf.field.symbols) == chart.dim + 2
    assert (mixed - chart.scalar("exp(z)*sin(y)")).rf.field.symbols == (
        chart.scalar("exp(z)").rf.field.symbols)


ORDER_PROBE = """
import sys
from ggwb.calculus import ChartManifold
from ggwb.symexpr import _layout
c = ChartManifold("t", ["x", "y", "z"])
texts = ["exp(y)*sin(z)", "exp(x)/(1 + cos(z))", "exp(x)*exp(y) + sin(z)*exp(x/3)"]
if sys.argv[1] == "reversed":
    texts.reverse()
fields = {t: [repr(g) for g in _layout(c.scalar(t).rf.field)[1]] for t in texts}
print(sorted(fields.items()))
"""


def test_generator_order_depends_on_neither_hash_nor_creation_order():
    """The generators of a value's field come in one order, whatever the
    hash seed and whichever scalars were built first."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import ggwb

    src = str(Path(ggwb.__file__).parent.parent)
    outputs = set()
    for hashseed, order in (("1", "forward"), ("2", "reversed"), ("3", "forward")):
        env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", ORDER_PROBE, order], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        outputs.add(run.stdout)
    assert len(outputs) == 1


KEY_PROBE = """
import sys
from ggwb import symexpr
from ggwb.calculus import ChartManifold
R3, S3 = ChartManifold("R3", ["x", "y", "z"]), ChartManifold("S3", ["a", "b", "c"])
texts = [(R3, "exp(x)"), (R3, "sin(2*y)"), (R3, "exp(sin(x))"), (R3, "sin(exp(y) + x)"),
         (S3, "cos(a)"), (S3, "sin(a)*cos(b)"), (S3, "sin(a)*sin(b)*cos(c)"),
         (S3, "sin(a)*sin(b)*sin(c)")]
if sys.argv[1] == "reversed":
    texts.reverse()
values = {(chart.name, t): chart.scalar(t) for chart, t in texts}
for name in ("R3", "S3"):
    values[name, "sum"] = sum(v for (c, _), v in values.items() if c == name)
for key, v in sorted(values.items()):
    rf = v.rf
    print(key, rf.field.symbols, sorted(rf.numer.items()), sorted(rf.denom.items()))
print(sorted(symexpr._GEN_OF_KEY.values(), key=lambda g: g.order))
"""


def test_generator_order_is_read_from_the_arguments():
    """The same atoms made in opposite orders, in two fresh interpreters,
    give the same generator order and the same field elements: the order is
    read from each generator's argument, never from the order in which the
    generators were made, and comparing two keys never raises."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import ggwb

    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=str(Path(ggwb.__file__).parent.parent))
    outputs = [subprocess.run([sys.executable, "-c", KEY_PROBE, order], env=env,
                              capture_output=True, text=True, timeout=120, check=True).stdout
               for order in ("forward", "reversed")]
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") == 11


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_view_converts_back_to_the_scalar(seed):
    chart = ChartManifold("test3", ["x", "y", "z"])
    s = random_expr(chart, random.Random(seed), max_depth=6, atoms=True)
    assert to_scalar(s.expr, chart) == s


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
@example(seed=481483)  # -x(cos(xy) - 3/5)/(z + 1) at z = -1: a pole, not -6.14e30
@example(seed=13033)  # exp(exp(x^2)) at x = -8: the argument exp(64) needs 28 more digits
@example(seed=54958)  # cos(exp(z)) at z = 52: tan of half the argument, 23 more digits
@example(seed=8245)  # x + z sin(z/x) at x = 0: a pole of the source tree
def test_scalar_agrees_with_evalf_of_the_source_tree(seed):
    chart = ChartManifold("test3", ["x", "y", "z"])
    tree = random_tree(chart, random.Random(seed), max_depth=6, atoms=True)
    s = to_scalar(tree, chart)
    for point, ref in _values(tree, chart, random.Random(seed + 1)):
        v = evaluate(s, point)
        if v is _POLE or not ref.is_finite:
            continue  # a pole of the scalar or of the source tree
        with mpmath.workdps(30):
            v, ref = to_mpmath(v), to_mpmath(ref)
            assert abs(v - ref) <= 1e-12 * max(1, abs(ref))


def test_a_pole_on_atom_data_is_decided_not_read_as_noise():
    """The denominator 5(z+1)(T^2+1) vanishes at z = -1 for every T, and its
    30-digit value is rounding noise: it was read as -6.14e30, and the zero
    test took that noise for a Failed witness."""
    chart = ChartManifold("test3", ["x", "y", "z"])
    tree = random_tree(chart, random.Random(481483), max_depth=6, atoms=True)
    assert str(tree) == "-x*(cos(x*y) - 3/5)/(z + 1)"
    # the term order of this denominator leaves noise; the parsed text's does not
    for s in (to_scalar(tree, chart), chart.scalar(str(tree))):
        at = {"x": Fraction(47, 48), "y": Fraction(95, 62)}
        assert evaluate(s, {**at, "z": -1}) is _POLE
        assert evaluate(s, {**at, "z": Fraction(-9, 10)}) is not _POLE


@pytest.mark.parametrize("text,at", [("exp(exp(x^2))", -8), ("cos(exp(x))", 52)])
def test_a_large_atom_argument_keeps_its_digits(text, at):
    """exp and tan of a large argument need its digits past the 30 kept:
    exp(exp(64)) agreed with the 60-digit value in 3 digits."""
    chart = ChartManifold("test1", ["x"])
    v = evaluate(chart.scalar(text), {"x": at})
    with mpmath.workdps(80):
        ref = sp.sympify(text.replace("^", "**")).evalf(80, subs={sp.Symbol("x"): at})
        assert abs(to_mpmath(v) - to_mpmath(ref)) <= 1e-25 * abs(to_mpmath(ref))


# -- the sphere example, decided without trigsimp ------------------------------

S4_PROVED_ITEMS = {
    ("hyp_geometry", "gamma(nu, nu) = 1"),
    ("hyp_geometry", "gamma(nu, d iota X) = 0"),
    ("hyp_geometry", "nabla^nu nu = 0"),
    ("induced_contact", "(almcont)+(clasmetric) for the induced structure"),
    ("induced_contact", "(strind1) J X = F X + xi(X) nu"),
    ("induced_contact", "(strind1) Z = -J nu is tangent"),
    ("induced_contact", "Xi = iota^* Omega"),
    ("hyp_CRF", "(eqCRF2) b(FX, FY) = b(X, Y) on P"),
    ("hyp_normal", "(eqCRF2) b(FX, FY) = b(X, Y) on P"),
    ("hyp_normal", "(eqnormal2) b(Z, X) = -(1/2) dOmega(nu, Z, JX) on P"),
    ("two_one", "(almoctZpm) g(Z+,Z+) = 1"),
    ("two_one", "(almoctZpm) g(Z-,Z-) = -1"),
    ("two_one", "(almctF2) Fcal Z+- = 0"),
    ("two_one", "(almctF2) Fcal^2 = -Id + flat_g Z+ (x) Z+ - flat_g Z- (x) Z-"),
    ("two_one", "(prScuframe) pr_S = g(Z+,.)Z+ - g(Z-,.)Z-"),
    ("two_one", "g-skewness of Fcal"),
    ("two_one", "Fcal^3 + Fcal = 0"),
    ("two_one", "(21metriccuZpm) metric compatibility"),
}


@pytest.fixture(scope="module")
def s4_report():
    def no_trigsimp(*args, **kwargs):
        raise AssertionError("sympy.trigsimp must not be used")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sp, "trigsimp", no_trigsimp)
        return run_checks(load_builtin("S4")).as_dict()


def test_s4_check_verdicts(s4_report):
    verdicts = {c["check"]: c["verdict"] for c in s4_report["checks"]}
    assert verdicts == {
        "hyp_geometry": "Proved",
        "induced_contact": "Proved",
        "hyp_CRF": "Proved",
        "hyp_normal": "Proved",
        "LXi": "Proved",
        "hermitian": "Proved",
        "gen_kahler": "Proved",
        "two_one": "Proved",
        "hyp_CRFK": "Failed",
    }


def test_s4_item_verdicts(s4_report):
    items = {
        (c["check"], i["label"]): i for c in s4_report["checks"] for i in c["items"]
    }
    for key in S4_PROVED_ITEMS:
        assert items[key]["verdict"] == "Proved", key
    # the rank facts follow from the proved identities
    assert items[("two_one", "corank(Fcal) = 2")]["verdict"] == "Proved"
    assert items[("two_one", "neg(Fcal) = 1")]["verdict"] == "Proved"


def test_s4_crfk_witness_unchanged(s4_report):
    (crfk,) = [c for c in s4_report["checks"] if c["check"] == "hyp_CRFK"]
    failed = [i for i in crfk["items"] if i["verdict"] == "Failed"]
    assert [i["label"] for i in failed] == [
        "(eqptans3) b(X, F+ U) = -(1/2) iota^*(i(nu)dpsi)(X, F+ U)",
        "(eqptans3) b(X, F- U) = +(1/2) iota^*(i(nu)dpsi)(X, F- U)",
    ]
    for item in failed:
        assert item["witness"] == {
            "point": {"a": "2471/1552", "b": "1339/776", "c": "711/1552"},
            "value": "-9.762523894609e-01",
        }
