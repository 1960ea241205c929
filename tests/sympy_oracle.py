"""sympy as an independent oracle of the tests.

ggwb reads no sympy object: a scalar is made from text, an int, a Fraction,
a Gaussian or a scalar.  This module is the tests' one bridge from sympy
into ggwb:

* ``symbols(chart)``: the chart's coordinates as plain sympy symbols;
* ``to_scalar(expr, chart)``: the scalar of a sympy expression of the
  grammar (coordinates, rationals, ``I``, sums, products, integer powers,
  ``sin``, ``cos`` and ``exp``), built by ggwb's own arithmetic, with each
  atom read by the parser from the printed text of its argument;
* ``random_tree`` and ``random_expr``: the random expression trees of the
  property tests.  Their draws are pinned by the ``@example``s of
  ``test_trig_normal_form.py``;
* ``to_mpmath(v)``: a value of ``evaluate`` or a sympy number as an mpmath
  number, to compare them at the current mpmath precision.

The other direction is the scalar's own ``expr`` property.
"""

from __future__ import annotations

import functools
import operator
import random
from fractions import Fraction

import mpmath
import sympy as sp

from ggwb.errors import ChartMismatchError, ExprError
from ggwb.symexpr import ScalarExpr, parse_scalar


def to_mpmath(v):
    """A value of ``evaluate`` (a Fraction, a Gaussian, or a 30-digit
    Decimal, complex pair or wide value, each with ``real`` and ``imag``)
    or a sympy number, as an mpmath number."""
    if isinstance(v, sp.Basic):
        return mpmath.mpmathify(v)
    if isinstance(v, (int, Fraction)):
        return mpmath.mpf(v.numerator) / v.denominator
    return mpmath.mpc(str(v.real), str(v.imag)) if v.imag else mpmath.mpf(str(v.real))


@functools.lru_cache(maxsize=256)
def symbols(chart) -> tuple:
    """The coordinates of ``chart`` as plain sympy symbols, in chart order."""
    return tuple(sp.Symbol(c) for c in chart.coords)


def to_scalar(expr, chart) -> ScalarExpr:
    """The scalar on ``chart`` of a sympy expression of the grammar.  A
    symbol that is not a plain coordinate raises ChartMismatchError, any
    other node outside the grammar ExprError."""
    return ScalarExpr(_convert(sp.sympify(expr), chart), chart)


@functools.lru_cache(maxsize=65536)
def _convert(expr, chart) -> ScalarExpr:
    if expr.is_Symbol:
        if expr.name not in chart.coords or expr != sp.Symbol(expr.name):
            raise ChartMismatchError(f"symbol '{expr}' is not a coordinate of the chart")
        return chart.scalar(expr.name)
    if expr.is_Rational:
        return chart.scalar(Fraction(int(expr.p), int(expr.q)))
    if expr is sp.I:
        return chart.i
    if expr is sp.E:
        return chart.scalar("exp(1)")
    if expr.is_Add or expr.is_Mul:
        op = operator.add if expr.is_Add else operator.mul
        return functools.reduce(op, (_convert(a, chart) for a in expr.args))
    if expr.is_Pow:
        if expr.base is sp.E:
            return _atom("exp", expr.exp, chart)
        if expr.exp.is_Integer:
            return _convert(expr.base, chart) ** int(expr.exp)
    if isinstance(expr, (sp.sin, sp.cos, sp.exp)):
        return _atom(expr.func.__name__, expr.args[0], chart)
    if expr.is_Float:
        raise ExprError("float literals are not allowed; use exact rationals")
    raise ExprError(f"'{expr}' is outside the expression grammar")


def _atom(kind: str, arg, chart) -> ScalarExpr:
    return parse_scalar(f"{kind}({_convert(arg, chart)})", chart)


def random_expr(
    chart,
    rng: random.Random,
    max_depth: int = 5,
    atoms: bool = True,
    division: bool = True,
) -> ScalarExpr:
    """Random expression tree over the chart, for property tests."""
    return to_scalar(random_tree(chart, rng, max_depth, atoms, division), chart)


def random_tree(
    chart,
    rng: random.Random,
    max_depth: int = 5,
    atoms: bool = True,
    division: bool = True,
):
    """The sympy tree :func:`random_expr` converts."""

    def build(depth: int):
        if depth <= 0 or rng.random() < 0.3:
            if rng.random() < 0.5:
                return sp.Rational(rng.randint(-9, 9), rng.randint(1, 9))
            return rng.choice(symbols(chart))
        choice = rng.random()
        if choice < 0.35:
            return build(depth - 1) + build(depth - 1)
        if choice < 0.65:
            return build(depth - 1) * build(depth - 1)
        if choice < 0.75:
            return -build(depth - 1)
        if choice < 0.82:
            return build(depth - 1) ** rng.randint(2, 3)
        if division and choice < 0.9:
            den = build(depth - 1)
            if to_scalar(den, chart).is_syntactic_zero:
                den = sp.Integer(1) + rng.choice(symbols(chart)) ** 2
            return build(depth - 1) / den
        if atoms:
            fn = rng.choice((sp.sin, sp.cos, sp.exp))
            return fn(build(min(depth - 1, 2)))
        return build(depth - 1)

    return build(rng.randint(0, max_depth))
