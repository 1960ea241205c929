"""The Pythagorean normal form: soundness of the exact sin/cos decision.

``trig_reduce`` reduces modulo sin(u)^2 + cos(u)^2 - 1 after sum and
multiple-angle expansion.  A zero remainder is a proof; anything else must
fall back to sampling, so non-identities that look like identities stay
Failed and identities outside the reduction's reach stay
NumericallySupported.
"""

import random

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ggwb.calculus import ChartManifold, tidy_trig
from ggwb.errors import ExprError
from ggwb.symexpr import ZeroPolicy, is_zero, random_expr, trig_reduce
from ggwb.verdict import VerdictKind
from ggwb.workbench import load_builtin, run_checks

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
    e = chart.scalar("1/(sin(x)^2 + cos(x)^2 - 1)")
    with pytest.raises(ExprError):
        is_zero(e, POL)
    # the numerator reduces to zero too: still an error, never Proved
    both = chart.scalar("(sin(x)^2 + cos(x)^2 - 1)/(sin(y)^2 + cos(y)^2 - 1)")
    with pytest.raises(ExprError):
        is_zero(both, POL)


def test_identity_outside_the_reduction_is_only_sampled(chart):
    """sin(x) and sin(x/2) are independent generators for the reduction, so
    the double-angle identity in x/2 is not decided: it stays
    NumericallySupported, never a guessed Proved."""
    assert trig_reduce(chart.scalar("sin(x) - 2*sin(x/2)*cos(x/2)").expr) != 0
    assert _kind(chart, "sin(x) - 2*sin(x/2)*cos(x/2)") is VerdictKind.NUMERIC


def test_multiples_above_the_bound_are_not_expanded(chart):
    assert trig_reduce(chart.scalar("sin(20*x) - 2*sin(10*x)*cos(10*x)").expr) != 0
    assert _kind(chart, "sin(20*x) - 2*sin(10*x)*cos(10*x)") is VerdictKind.NUMERIC


def test_rational_and_exp_inputs_are_untouched(chart):
    for text in ("x^2 - y", "exp(x)*y - 1", "x/(1 + y^2)"):
        e = chart.scalar(text)
        assert is_zero(e, POL).kind is VerdictKind.FAILED


# -- the normal form itself -------------------------------------------------


def test_normal_form_has_cos_degree_at_most_one(chart):
    x = chart.symbol("x")
    r = trig_reduce(sp.expand((sp.cos(x) + sp.sin(x)) ** 6 + sp.cos(2 * x) ** 3))
    assert sp.Poly(r, sp.cos(x), sp.sin(x)).degree(sp.cos(x)) <= 1
    assert trig_reduce(r) == r


def test_tidy_trig_keeps_the_smaller_form(chart):
    x = chart.symbol("x")
    swollen = chart.scalar("(sin(x)^2 + cos(x)^2)^2 * sin(x)")
    assert tidy_trig(chart, swollen).expr == sp.sin(x)
    small = chart.scalar("cos(x)")
    assert tidy_trig(chart, small) == small


def _values(expr, chart, rng, n=3):
    out = []
    for _ in range(n):
        point = chart.sample_point(rng)
        subs = {chart.symbol(k): sp.Rational(v.numerator, v.denominator) for k, v in point.items()}
        out.append(complex(expr.evalf(30, subs=subs)))
    return out


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_trig_reduce_idempotent_and_value_preserving(seed):
    chart = ChartManifold("test3", ["x", "y", "z"])
    rng = random.Random(seed)
    e = random_expr(chart, rng, max_depth=6, atoms=True, division=False)
    r = trig_reduce(e.expr)
    assert trig_reduce(r) == r
    for a, b in zip(_values(e.expr, chart, random.Random(seed)),
                    _values(r, chart, random.Random(seed))):
        assert abs(a - b) <= 1e-12 * (1 + abs(a))


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
        "two_one": "NumericallySupported",
        "hyp_CRFK": "Failed",
    }


def test_s4_item_verdicts(s4_report):
    items = {
        (c["check"], i["label"]): i for c in s4_report["checks"] for i in c["items"]
    }
    for key in S4_PROVED_ITEMS:
        assert items[key]["verdict"] == "Proved", key
    # the rank certificates are numeric by construction
    assert items[("two_one", "corank(Fcal) = 2")]["verdict"] == "NumericallySupported"
    assert items[("two_one", "neg(Fcal) = 1")]["verdict"] == "NumericallySupported"


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
