"""Atom values at 30 digits, computed with the standard library's decimal.

``symexpr._evaluator`` reads exp as ``Decimal.exp`` and tan(m/2) from the
sin and cos series after a reduction by pi, in a copy of ``_CONTEXT`` that
is each thread's own.  mpmath, at 60 digits, is the oracle here:

* exp and tan of rational arguments (moderate, negative, tiny, and above
  2**32, where the argument is read again with more digits), and Q(i) atom
  data, agree with it to a relative error of 1e-28;
* a witness beyond the double range prints the 13 digits that
  ``mpmath.nstr(v, 13, strip_zeros=False, min_fixed=1, max_fixed=0)``
  printed;
* exp(exp(64)), past the exponent range of a Decimal, keeps its digits,
  its sign and its witness text, and an atom of such a value raises
  ExprError;
* two threads that evaluate S3's atom values at once both get the values
  of one thread alone.
"""

import random
import sys
import threading
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ggwb.calculus import ChartManifold
from ggwb.errors import ExprError
from ggwb.symexpr import (
    _LOST_BITS, ZeroPolicy, _evaluator, _layout, evaluate, is_zero, sign_at,
)
from ggwb.workbench import load_builtin
from sympy_oracle import to_mpmath

LINE = ChartManifold("line", ["x"])
EXP = LINE.scalar("exp(x)")
TAN = LINE.scalar("sin(x)/(1 + cos(x))")  # the generator T[x] = tan(x/2)


def _relative_error(v, ref) -> mpmath.mpf:
    with mpmath.workdps(60):
        return abs(to_mpmath(v) - ref) / abs(ref)


def _oracle(kind: str, m: Fraction):
    with mpmath.workdps(60):
        a = mpmath.mpf(m.numerator) / m.denominator
        return mpmath.exp(a) if kind == "exp" else mpmath.tan(a / 2)


# Arguments with at most 16 digits are read exactly at 30 digits, so the
# value's error is that of exp or of the tan series alone, however large or
# ill-conditioned the argument: moderate, negative, tiny (down to 10^-40)
# and above 2**32 (up to 10^15).
_EXACT = st.builds(lambda n, k: Fraction(n, 10**k),
                   st.integers(-10**15, 10**15).filter(bool), st.integers(0, 40))


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["exp", "tan"]), m=_EXACT)
@example(kind="tan", m=Fraction(314159, 100000))  # m/2 near pi/2: cos(m/2) is 1.3e-6
@example(kind="tan", m=Fraction(-314159265, 10**8))
@example(kind="tan", m=Fraction(628318, 100000))  # m/2 near pi: tan(m/2) is -5.3e-7
@example(kind="tan", m=Fraction(10**15 + 7, 10))  # m/2 reduced by 1.6e13 times pi
@example(kind="exp", m=Fraction(-1, 10**40))
def test_exp_and_tan_of_exact_arguments_agree_with_mpmath(kind, m):
    v = evaluate(EXP if kind == "exp" else TAN, {"x": m})
    assert _relative_error(v, _oracle(kind, m)) <= 1e-28


# An argument above 2**32 that a Decimal cannot hold exactly: at 30 digits
# it would lose its last digits after the point, and exp all of them.
_LARGE = st.builds(lambda n, p, q: n + Fraction(p, q), st.integers(2**_LOST_BITS, 10**15),
                   st.integers(1, 12), st.sampled_from([3, 7, 11, 13]))


@settings(max_examples=100, deadline=None)
@given(m=_LARGE, sign=st.sampled_from([1, -1]))
@example(m=2**_LOST_BITS + Fraction(1, 3), sign=1)
@example(m=10**12 + Fraction(1, 7), sign=-1)
def test_exp_of_a_large_argument_is_read_with_more_digits(m, sign):
    v = evaluate(EXP, {"x": sign * m})
    assert _relative_error(v, _oracle("exp", sign * m)) <= 1e-28


_MODERATE = st.builds(lambda n, k: Fraction(n, 10**k), st.integers(-16 * 10**6, 16 * 10**6),
                      st.integers(0, 6))


@settings(max_examples=100, deadline=None)
@given(m=_MODERATE, kind=st.sampled_from(["exp", "tan"]))
def test_q_i_atom_values_agree_with_mpmath(m, kind):
    """(2 + 3i) a + i/(1 + a^2), for a = exp(x) or tan(x/2): a value over
    Q(i), a pair of Decimals."""
    a = EXP if kind == "exp" else TAN
    v = evaluate(a * (LINE.scalar("2") + 3 * LINE.i) + LINE.i / (1 + a * a), {"x": m})
    assert v.imag
    r = _oracle(kind, m)
    with mpmath.workdps(60):
        ref = mpmath.mpc(2, 3) * r + mpmath.mpc(0, 1) / (1 + r * r)
    assert _relative_error(v, ref) <= 1e-28


def test_a_witness_beyond_the_double_range_keeps_the_13_digits_mpmath_printed():
    """The strings are those that ``mpmath.nstr(v, 13, strip_zeros=False,
    min_fixed=1, max_fixed=0)`` gave for these witnesses when mpmath
    computed the values."""
    far = ChartManifold("far", ["x"], ranges={"x": (Fraction(700), Fraction(800))})
    printed = {}
    for text in ("exp(x)", "-exp(x)/3", "exp(x)^2/7"):
        for seed in (0, 1):
            w = is_zero(far.scalar(text), ZeroPolicy(samples=1, seed=seed)).witness
            printed[text, seed] = (w.as_dict()["point"]["x"], w.value)
    assert printed == {
        ("exp(x)", 0): ("72850/97", "1.474306218786e+326"),
        ("exp(x)", 1): ("69650/97", "6.939801641917e+311"),
        ("-exp(x)/3", 0): ("72850/97", "-4.914354062620e+325"),
        ("-exp(x)/3", 1): ("69650/97", "-2.313267213972e+311"),
        ("exp(x)^2/7", 0): ("72850/97", "3.105112609644e+651"),
        ("exp(x)^2/7", 1): ("69650/97", "6.880120975593e+622"),
    }
    w = is_zero(far.scalar("exp(x)") * (2 + far.i), ZeroPolicy(samples=1, seed=0)).witness
    assert w.value == "(2.948612437572e+326 + 1.474306218786e+326j)"


def test_a_value_past_the_decimal_exponent_range_keeps_its_digits():
    """exp(exp(64)) is about 10^(2.7 * 10^27), past the 10^(10^18) of a
    Decimal: it is exp(r) 10^k with r = exp(64) - k ln 10."""
    chart = ChartManifold("test1", ["x"])
    for text, sign in (("exp(exp(x^2))", 1), ("exp(-exp(x^2))", -1)):
        v = evaluate(chart.scalar(text), {"x": -8})
        with mpmath.workdps(90):
            ref = mpmath.exp(sign * mpmath.exp(64))
            assert abs(to_mpmath(v) / ref - 1) <= 1e-28
    e = chart.scalar("exp(exp(x^2))")
    assert [sign_at(s, {"x": 8}) for s in (e, -e, -1 / e)] == [1, -1, 0]
    for text in ("exp(exp(exp(x^2)))", "sin(exp(-exp(x^2)))"):  # no 30-digit reading
        with pytest.raises(ExprError, match="past the exponent range"):
            evaluate(chart.scalar(text), {"x": -8})
    # the witnesses the mpmath evaluation printed, a complex one included
    far = ChartManifold("far", ["x"], ranges={"x": (Fraction(7), Fraction(8))})
    e = far.scalar("exp(exp(x^2))")
    printed = [is_zero(s, ZeroPolicy(samples=1, seed=0)).witness.as_dict()
               for s in (e, e * (1 + far.i))]
    assert printed == [
        {"point": {"x": "1457/194"}, "value": "6.116998478055e+1361614025281800236701864"},
        {"point": {"x": "1457/194"}, "value": "(6.116998478055e+1361614025281800236701864"
                                              " + 6.116998478055e+1361614025281800236701864j)"},
    ]


def _atom_values(grids, points) -> list:
    """The value, as text, of every entry of the grids at each point."""
    out = []
    for point in points:
        for grid in grids:
            value, exact = _evaluator(grid.chart, grid.field, point)
            assert not exact
            out += [str(value(e)) for e in grid.entries.values()]
    return out


def test_two_threads_evaluating_s3_at_once_get_the_serial_values():
    """S3's atom fields are F and gamma, in exp(z) and exp(-z)."""
    scenario = load_builtin("S3", 0)
    grids = [f for f in scenario.fields.values() if _layout(f.field)[1]]
    assert len(grids) == 2
    rng = random.Random(0)
    points = [grids[0].chart.sample_point(rng) for _ in range(40)]
    serial = _atom_values(grids, points)
    barrier = threading.Barrier(2)
    got = [[], []]

    def work(i):
        barrier.wait()
        got[i] = [_atom_values(grids, points) for _ in range(100)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got[0] == got[1] == [serial] * 100
