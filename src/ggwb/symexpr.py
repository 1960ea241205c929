"""Exact symbolic scalar fields on a coordinate chart.

A :class:`ScalarExpr` has one representation: ``rf``, an element of a
``sympy.polys`` ``FracField`` over Q (over Q(i) only when ``I`` occurs) in
lex order.  Its generators are the chart coordinates and one generator per
transcendental atom: ``E_m = exp(m)``, or ``T_m = tan(m/2)`` with
``sin(m) = 2 T_m / (1 + T_m^2)`` and ``cos(m) = (1 - T_m^2) / (1 + T_m^2)``;
the circle is rational, so ``sin^2 + cos^2 = 1`` holds in the field.

An atom's argument is split into its constant and its additive terms
``q*m``.  A term with an integer ``q`` is the ``q``-th multiple of the
generator of ``m`` (a power of ``E_m``; for sin/cos the multiple angle in
``T_m``, up to ``_MAX_MULTIPLE``).  Every other term, every constant (an
integer constant of ``exp`` is a power of ``E_1``) and an argument that is
not a polynomial in the coordinates get a generator of their own; signs
are pulled out, so ``f(-m)`` uses the generator of ``m``.  The terms are
combined by the sum formulas, so the Pythagorean, sum and multiple-angle
identities, ``exp(x) exp(y) = exp(x + y)`` and constant atoms such as
``exp(-8/3)`` reduce inside the fraction.  The reduced fraction is the
canonical form that ``==``, ``hash`` and the zero test read.  A value's
field is the chart coordinates plus exactly the generators that occur in
it, in one fixed order that does not depend on hash order.

Zero returns before the field: an operation with a zero operand gives the
other operand (negated for ``0 - x``) or a zero without a union field, a
gcd or a canonical form, ``pdiff`` of a zero returns at once, and a zero
result on a chart is the chart's one interned zero (``chart.zero``).
``x / 0`` and ``0 / 0`` still raise :class:`ExprError`.

One evaluator, ``_evaluator``, gives the value of a field element at a
rational point: exactly, in Q or Q(i), when the field has no atom
generator, else as an mpmath number at ``_DPS`` (30) digits.  ``evaluate``
returns that value as it is (no sympy number, no ``complex``), the zero
test decides on it, and the point certificates of :mod:`ggwb.numeric`
(the metric's base-point check among them) eliminate over it.

Soundness contract: ``is_zero`` answers ``Proved`` only when the reduced
fraction is zero; the generators stand for the true functions in a ring
homomorphism, so a zero fraction is zero as a function.  A nonzero fraction
may still vanish (``sin(x)`` and ``sin(x/2)`` have independent generators,
and so do multiples above ``_MAX_MULTIPLE``); the sampler decides those,
and a ``Failed`` always carries a witness.

``expr`` is a sympy display view in the input grammar (``T_m`` shows as
``sin(m)/(1 + cos(m))``); without atoms it is what :func:`sympy.cancel`
returns.  No package code reads it back.  Grammar expressions (coordinates,
rational literals, integer powers, ``sin``, ``cos``, ``exp``) are checked
where they enter, by the conversion of a parsed or sympy value.
"""

from __future__ import annotations

import cmath
import math
import operator
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Optional

import mpmath
import sympy as sp
from sympy.polys.domains import QQ, QQ_I
from sympy.polys.fields import FracElement, FracField
from sympy.polys.orderings import lex
from sympy.polys.polyutils import _sort_gens

from .errors import ChartMismatchError, ExprError, GgwbError, ParseError
from .verdict import Verdict, Witness

_ATOM_FUNCS = (sp.sin, sp.cos, sp.exp)

# sin/cos of k*m for an integer k with |k| <= _MAX_MULTIPLE is a polynomial
# of degree 2|k| in T_m over (1 + T_m^2)^|k|.  A larger multiple gets its own
# generator: that bounds the work on hostile input and stays sound.
_MAX_MULTIPLE = 8

_DPS = 30  # digits of the float evaluation of scalars with atoms


# ---------------------------------------------------------------------------
# zero-test policy


@dataclass(frozen=True)
class ZeroPolicy:
    """Reproducible configuration for the three-valued zero test.

    ``samples`` is the number of independent random points, ``tol`` the
    numeric tolerance used when transcendental atoms force float evaluation,
    and ``max_resample`` the per-sample retry budget when a point hits a pole.
    """

    samples: int = 32
    seed: int = 0
    tol: float = 1e-9
    max_resample: int = 8

    def rng(self) -> random.Random:
        return random.Random(self.seed)


DEFAULT_POLICY = ZeroPolicy()


# ---------------------------------------------------------------------------
# generators and fields


class _Gen:
    """One atom generator: ``E_m`` (kind "exp") or ``T_m`` (kind "tan"),
    with ``arg`` = m in its minimal field."""

    __slots__ = ("symbol", "kind", "arg", "order")

    def __init__(self, kind: str, arg: FracElement, index: int):
        self.kind = kind
        self.arg = arg
        self.symbol = sp.Dummy("E" if kind == "exp" else "T")
        self.order = (kind, str(_view(arg)), index)


# Generators are interned for the life of the process, like sympy's own
# symbols: equal arguments must give the one generator, and a generator never
# changes.  Their order does not depend on which was made first.
_GEN_OF_KEY: dict = {}
_GEN_OF_SYMBOL: dict = {}


def _gen(kind: str, arg: FracElement) -> _Gen:
    g = _GEN_OF_KEY.get((kind, arg))
    if g is None:
        g = _Gen(kind, arg, len(_GEN_OF_KEY))
        _GEN_OF_KEY[(kind, arg)] = g
        _GEN_OF_SYMBOL[g.symbol] = g
    return g


@lru_cache(maxsize=4096)
def _field_on(gens: tuple, gaussian: bool) -> FracField:
    return FracField(gens, QQ_I if gaussian else QQ, lex)


@lru_cache(maxsize=256)
def _field(symbols: tuple, gaussian: bool = False) -> FracField:
    """Q(x) or Q(i)(x) over the chart symbols, in sympy's own generator
    order, so that the reduced fraction normalizes like :func:`sympy.cancel`."""
    return _field_on(tuple(_sort_gens(symbols)), gaussian)


@lru_cache(maxsize=4096)
def _layout(K: FracField) -> tuple:
    """(coordinate symbols, atom generators) of a field; the coordinates
    come first."""
    gens = tuple(_GEN_OF_SYMBOL[s] for s in K.symbols if s in _GEN_OF_SYMBOL)
    return K.symbols[: len(K.symbols) - len(gens)], gens


def _assemble(coords, gens, gaussian: bool) -> FracField:
    """The field over ``coords`` and ``gens`` in the one global order."""
    ordered = sorted(set(gens), key=lambda g: g.order)
    return _field_on(tuple(_sort_gens(set(coords))) + tuple(g.symbol for g in ordered), gaussian)


@lru_cache(maxsize=4096)
def _join(K1: FracField, K2: FracField) -> FracField:
    (c1, g1), (c2, g2) = _layout(K1), _layout(K2)
    return _assemble(c1 + c2, g1 + g2, K1.domain is QQ_I or K2.domain is QQ_I)


def _embed(rf: FracElement, K: FracField) -> FracElement:
    """rf in a field with more symbols, in the same relative order.  Lex
    order does not see absent variables, so the reduced fraction stays
    reduced and normalized."""
    return rf if rf.field is K else _moved(rf, K)


@lru_cache(maxsize=65536)
def _moved(rf: FracElement, K: FracField) -> FracElement:
    F = rf.field
    where, n = [K.symbols.index(s) for s in F.symbols], len(K.symbols)

    def move(p):
        out = []
        for m, c in p.items():
            new = [0] * n
            for j, e in zip(where, m):
                new[j] = e
            out.append((tuple(new), K.domain.convert_from(c, F.domain)))
        return K.ring.dtype(out)

    return K.raw_new(move(rf.numer), move(rf.denom))


def _shrink(rf: FracElement, keep_coords: bool = True) -> FracElement:
    """rf in the field of exactly the generators that occur in it (and of
    the coordinates that occur, without ``keep_coords``)."""
    K = rf.field
    coords, gens = _layout(K)
    if keep_coords and not gens:
        return rf
    n, start = len(K.symbols), len(coords) if keep_coords else 0
    keep = list(range(start)) + [
        i for i in range(start, n) if any(m[i] for p in (rf.numer, rf.denom) for m in p)
    ]
    if len(keep) == n:
        return rf
    Ks = _field_on(tuple(K.symbols[i] for i in keep), K.domain is QQ_I)

    def pick(p):
        return Ks.ring.dtype([(tuple(m[i] for i in keep), c) for m, c in p.items()])

    return Ks.raw_new(pick(rf.numer), pick(rf.denom))


def _settle(rf: FracElement) -> FracElement:
    """An element of a Q(i) field with real coefficients, moved to the Q
    field: the field of a value depends on the value alone."""
    K = rf.field
    if K.domain is not QQ_I or any(c.y for p in (rf.numer, rf.denom) for c in p.values()):
        return rf
    Kq = _field_on(K.symbols, False)
    move = lambda p: Kq.ring.dtype([(m, c.x) for m, c in p.items()])  # noqa: E731
    return Kq.raw_new(move(rf.numer), move(rf.denom))


def _canonical(rf: FracElement, keep_coords: bool = True) -> FracElement:
    if rf.field.domain is QQ_I:
        rf = _settle(rf)
    return _shrink(rf, keep_coords)


def _unify(a: FracElement, b: FracElement) -> tuple:
    """Both operands in one field: the union of their generators, over Q(i)
    only when one of them is Gaussian."""
    if a.field is b.field:
        return a, b
    K = _join(a.field, b.field)
    return _embed(a, K), _embed(b, K)


def _fraction(K: FracField, num, den) -> FracElement:
    """num/den in lowest terms.  The reduced form sympy keeps over Q is a
    pair of integer polynomials without common factor, contents coprime,
    denominator with positive leading coefficient; a constant denominator
    needs no gcd for it.  That form is num/den scaled to a monic
    denominator, then times the least positive integer L that clears the
    denominators of the coefficients.  Over Q(i) sympy's gcd fixes the
    fraction only up to a constant factor, which depends on the input
    (z/x - 7/2 - i/2 comes out over 2x or over (1 + i)x), so every Q(i)
    fraction is brought to this form too."""
    if not den.is_ground:
        # the gcd costs per variable of the ring, absent ones included
        pair = _shrink(K.raw_new(num, den), keep_coords=False)
        rf = K.new(num, den) if pair.field is K else _embed(
            pair.field.new(pair.numer, pair.denom), K)
        if K.domain is QQ:
            return rf
        num, den = rf.numer, rf.denom
    return _scaled(K, num, den)


def _scaled(K: FracField, num, den) -> FracElement:
    """num/den, given without a common factor of positive degree, in the
    reduced form of :func:`_fraction`: scaled to a monic denominator, then
    by the least positive integer that clears the coefficients'
    denominators."""
    if not num:
        return K.zero
    c = den.LC
    if c != 1:
        num, den = num.quo_ground(c), den.quo_ground(c)
    coeffs = [*num.values(), *den.values()]
    parts = coeffs if K.domain is QQ else [q for v in coeffs for q in (v.x, v.y)]
    L = math.lcm(*(q.denominator for q in parts))
    if L == 1:
        return K.raw_new(num, den)
    return K.raw_new(num.mul_ground(L), den.mul_ground(L))


def _field_op(op, a: FracElement, b: FracElement) -> FracElement:
    """``op`` (one of + - * /) on two elements of one field."""
    K = a.field
    if op is operator.mul:
        return _fraction(K, a.numer * b.numer, a.denom * b.denom)
    if op is operator.truediv:
        return _fraction(K, a.numer * b.denom, a.denom * b.numer)
    bn = b.numer if op is operator.add else -b.numer
    if a.denom == b.denom:
        return _fraction(K, a.numer + bn, a.denom)
    return _sum_over(K, {a.denom: a.numer, b.denom: bn})


def _sum_over(K: FracField, parts: dict) -> FracElement:
    """The sum of numerators over their denominators (``parts``, each
    fraction reduced), over the least common denominator: one gcd of the
    large numerator, against the lcm, reduces it."""
    if len(parts) == 1:
        (den, num), = parts.items()
        return _fraction(K, num, den)
    dens = list(parts)
    L = dens[0]
    for d in dens[1:]:
        if not d.is_ground and d != L:
            L = d * L.exquo(L.gcd(d)) if not L.is_ground else d
    num = K.ring.zero
    for d, n in parts.items():
        if d.is_ground and L.is_ground:
            n = n.mul_ground(K.domain.quo(L.LC, d.LC))
        elif d != L:
            n = n * L.exquo(d)
        num += n
    return _fraction(K, num, L)


def _op(op, a: FracElement, b: FracElement) -> FracElement:
    """``op`` on two elements of any fields, in the union field.  A zero
    operand returns before the field: the other operand (negated for
    0 - b), or the zero operand of a product or quotient."""
    if not b:
        if op is operator.truediv:
            raise ExprError("division by an expression that is identically zero")
        return b if op is operator.mul else a
    if not a:
        if op is operator.add:
            return b
        return -b if op is operator.sub else a
    return _field_op(op, *_unify(a, b))


def _pow(rf: FracElement, n: int) -> FracElement:
    # FracElement.__pow__ leaves a negative power unnormalized
    if n < 0 and not rf:
        raise ExprError("division by an expression that is identically zero")
    num, den = (rf.numer, rf.denom)[:: 1 if n >= 0 else -1]
    return _fraction(rf.field, num ** abs(n), den ** abs(n))


@lru_cache(maxsize=4096)
def _constant(K: FracField, v) -> FracElement:
    return K(_qq(v))


def _qq(v) -> object:
    """A rational number as an element of QQ."""
    if isinstance(v, Fraction):
        return QQ(v.numerator, v.denominator)
    if isinstance(v, sp.Rational):
        return QQ(int(v.p), int(v.q))
    return QQ(v)


_RATIONALS = (int, Fraction, sp.Rational)


# ---------------------------------------------------------------------------
# atoms


@lru_cache(maxsize=4096)
def _angle(g: _Gen, k: int) -> tuple:
    """(cos, sin) of k*m for the generator T_m: the real and imaginary
    parts of (1 + i T)^(2k) over (1 + T^2)^k."""
    K = _field_on((g.symbol,), False)
    R = K.ring
    T = R.gens[0]
    re_, im_ = R.zero, R.zero
    for j in range(2 * abs(k) + 1):
        term = T**j * math.comb(2 * abs(k), j) * (-1) ** (j // 2)
        if j % 2:
            im_ += term
        else:
            re_ += term
    den = (1 + T**2) ** abs(k)
    return _fraction(K, re_, den), _fraction(K, im_ if k > 0 else -im_, den)


def _terms(u: FracElement, kind: str) -> list:
    """(generator, integer multiple) for each term q*m of the argument u."""
    if not u:
        return []
    K = u.field
    gk, bound = ("exp", None) if kind == "exp" else ("tan", _MAX_MULTIPLE)
    if _layout(K)[1] or not u.denom.is_ground:
        # one term q*m, m with coprime integer contents and positive sign
        cn = math.gcd(*map(int, u.numer.values()))
        q = QQ(cn if u.numer.LC > 0 else -cn, math.gcd(*map(int, u.denom.values())))
        pairs = [(q, _field_op(operator.mul, u, _constant(K, 1 / q)))]
    else:
        one, c = K.ring.one, u.denom[K.ring.zero_monom]
        pairs = [(coeff / c, _shrink(K.raw_new(K.ring.dtype([(m, QQ(1))]), one), keep_coords=False))
                 for m, coeff in u.numer.terms()]
    out = []
    for q, m in pairs:
        sign = 1 if q > 0 else -1
        if m.numer.is_ground and m.denom.is_ground and kind != "exp":
            # a constant angle is its own generator: sin(5) is not expanded
            # as a multiple angle of 1
            out.append((_gen(gk, _constant(m.field, abs(q))), sign))
        elif q.denominator == 1 and (bound is None or abs(q) <= bound):
            out.append((_gen(gk, m), int(q)))
        else:
            out.append((_gen(gk, _field_op(operator.mul, m, _constant(m.field, abs(q)))), sign))
    return out


@lru_cache(maxsize=16384)
def _atom_minimal(kind: str, u: FracElement) -> FracElement:
    one = _field_on((), False).one
    if kind == "exp":
        value = one
        for g, k in _terms(u, kind):
            value = _op(operator.mul, value, _pow(_field_on((g.symbol,), False).gens[0], k))
        return value
    cos, sin = one, _field_on((), False).zero
    for g, k in _terms(u, kind):
        c, s = _angle(g, k)
        cos, sin = (
            _op(operator.sub, _op(operator.mul, cos, c), _op(operator.mul, sin, s)),
            _op(operator.add, _op(operator.mul, sin, c), _op(operator.mul, cos, s)),
        )
    return cos if kind == "cos" else sin


def _atom(kind: str, u: FracElement) -> FracElement:
    """sin, cos or exp of u, in a field over u's coordinates and the
    generators of u's terms."""
    if u.field.domain is QQ_I:
        raise ExprError(f"{kind} of a complex argument is outside the grammar")
    value = _atom_minimal(kind, _shrink(u, keep_coords=False))
    coords = _layout(u.field)[0]
    return _embed(value, _join(value.field, _field_on(coords, False)))


def _tan_half(u: FracElement) -> FracElement:
    """tan(u/2) = sin(u) / (1 + cos(u))."""
    return _op(operator.truediv, _atom("sin", u), _op(operator.add, _atom("cos", u), u.field.one))


# ---------------------------------------------------------------------------
# conversion from sympy and the view


@lru_cache(maxsize=65536)
def _to_field(expr: sp.Expr, symbols: tuple) -> FracElement:
    """The field element of a grammar expression over the coordinates
    ``symbols``: normalized, in the field of exactly its generators."""
    K = _field(symbols)
    if expr.is_Symbol:
        if expr not in K.symbols:
            raise ChartMismatchError(f"symbol '{expr}' is not a coordinate of the chart")
        return K.gens[K.symbols.index(expr)]
    if expr.is_Rational:
        return _constant(K, expr)
    if expr is sp.I:
        return _field(symbols, True)(QQ_I(0, 1))
    if expr is sp.E:
        return _canonical(_atom("exp", K.one))
    if expr.is_Add or expr.is_Mul:
        op = operator.add if expr.is_Add else operator.mul
        value = _to_field(expr.args[0], symbols)
        for arg in expr.args[1:]:
            value = _op(op, value, _to_field(arg, symbols))
        return _canonical(value)
    if expr.is_Pow:
        if expr.base is sp.E:
            return _canonical(_atom("exp", _to_field(expr.exp, symbols)))
        if expr.exp.is_Integer:
            return _canonical(_pow(_to_field(expr.base, symbols), int(expr.exp)))
    if isinstance(expr, _ATOM_FUNCS):
        kind = "exp" if isinstance(expr, sp.exp) else expr.func.__name__
        return _canonical(_atom(kind, _to_field(expr.args[0], symbols)))
    if expr.is_Float:
        raise ExprError("float literals are not allowed; use exact rationals")
    raise ExprError(f"'{expr}' is outside the expression grammar")


@lru_cache(maxsize=4096)
def _display(g: _Gen) -> sp.Expr:
    m = _view(g.arg)
    if g.kind == "exp":
        return sp.exp(m)
    return sp.Mul(sp.sin(m), sp.Pow(sp.Add(1, sp.cos(m), evaluate=False), -1, evaluate=False),
                  evaluate=False)


def _poly_view(p, values: list) -> sp.Expr:
    to_sympy = p.ring.domain.to_sympy
    terms = []
    for m, c in p.terms():
        factors = [v if e == 1 else sp.Pow(v, e, evaluate=False) for v, e in zip(values, m) if e]
        if c != 1 or not factors:
            factors.insert(0, to_sympy(c))
        terms.append(factors[0] if len(factors) == 1 else sp.Mul(*factors, evaluate=False))
    return terms[0] if len(terms) == 1 else sp.Add(*terms, evaluate=False)


@lru_cache(maxsize=65536)
def _view(rf: FracElement) -> sp.Expr:
    """Without atoms, sympy's own expression of the reduced fraction.  With
    atoms the tree is built unevaluated: sympy would merge exp(1/2)*exp(1/3)
    into exp(5/6), which is another generator."""
    coords, gens = _layout(rf.field)
    if not gens:
        return rf.as_expr()
    values = list(coords) + [_display(g) for g in gens]
    num = _poly_view(rf.numer, values) if rf.numer else sp.S.Zero
    if rf.denom == 1:
        return num
    return sp.Mul(num, sp.Pow(_poly_view(rf.denom, values), -1, evaluate=False), evaluate=False)


# ---------------------------------------------------------------------------
# the scalar


class ScalarExpr:
    """Immutable canonical scalar field tagged with its owning chart.

    ``rf`` is its element of the rational function field of the chart
    coordinates and of its atom generators; ``expr`` is the sympy view,
    built on first use.
    """

    __slots__ = ("chart", "rf", "_expr", "_hash")

    def __init__(self, value, chart):
        if isinstance(value, ScalarExpr):
            if value.chart != chart:
                raise ChartMismatchError(
                    f"scalar from chart '{value.chart.name}' used on '{chart.name}'"
                )
            rf = value.rf
        elif isinstance(value, float):
            raise ExprError("float literals are not allowed; use exact rationals")
        elif isinstance(value, _RATIONALS):
            rf = _constant(_field(chart.symbols), value)
        else:
            # the grammar boundary: parse or sympify, then convert, which
            # rejects every node outside the grammar
            expr = _parse(value, chart) if isinstance(value, str) else sp.sympify(value)
            rf = _to_field(expr, chart.symbols)
        _init(self, chart, rf)

    def __setattr__(self, *a):  # immutability
        raise AttributeError("ScalarExpr is immutable")

    @property
    def expr(self) -> sp.Expr:
        if self._expr is None:
            object.__setattr__(self, "_expr", _view(self.rf))
        return self._expr

    # -- arithmetic ---------------------------------------------------

    def _op(self, other, op, swap: bool = False) -> "ScalarExpr":
        """``op(self, other)``, or ``op(other, self)`` with ``swap``."""
        if isinstance(other, ScalarExpr):
            if other.chart != self.chart:
                raise ChartMismatchError(
                    f"cannot combine scalars from charts "
                    f"'{self.chart.name}' and '{other.chart.name}'"
                )
            b = other.rf
        elif isinstance(other, float):
            raise ExprError("float operands are not allowed; use exact rationals")
        elif isinstance(other, _RATIONALS):
            b = _constant(self.rf.field, other)
        else:
            from .calculus import _Components

            if isinstance(other, _Components):
                # a tensor field: its own reflected operator scales it or refuses
                return NotImplemented
            other = ScalarExpr(other, self.chart)
            b = other.rf
        a = self.rf
        if a and b:
            return _ring(self.chart, _op(op, *((b, a) if swap else (a, b))))
        # zero returns before the field
        if not isinstance(other, ScalarExpr):
            other = _ring(self.chart, b)
        x, y = (other, self) if swap else (self, other)
        if not y.rf:
            if op is operator.truediv:
                raise ExprError("division by an expression that is identically zero")
            return self.chart.zero if op is operator.mul else x
        if op is operator.add:
            return y
        return -y if op is operator.sub else self.chart.zero

    def __add__(self, other):
        return self._op(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._op(other, operator.sub)

    def __rsub__(self, other):
        return self._op(other, operator.sub, swap=True)

    def __mul__(self, other):
        return self._op(other, operator.mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._op(other, operator.truediv)

    def __rtruediv__(self, other):
        return self._op(other, operator.truediv, swap=True)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ExprError("only integer powers are in the grammar")
        return _ring(self.chart, _pow(self.rf, n))

    def __neg__(self):
        # negation keeps the canonical form
        return _init(object.__new__(ScalarExpr), self.chart, -self.rf) if self.rf else self

    def exp(self) -> "ScalarExpr":
        """exp of this scalar."""
        return _ring(self.chart, _atom("exp", self.rf))

    def __eq__(self, other):
        if isinstance(other, ScalarExpr):
            return self.chart == other.chart and self.rf == other.rf
        if isinstance(other, float):
            return False
        try:
            return self.rf == ScalarExpr(other, self.chart).rf
        except (GgwbError, sp.SympifyError, TypeError, AttributeError):
            return False

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.rf, self.chart.name)))
        return self._hash

    def __repr__(self):
        return f"ScalarExpr({self.expr})"

    def __str__(self):
        return str(self.expr)

    # -- queries --------------------------------------------------------

    @property
    def is_syntactic_zero(self) -> bool:
        return not self.rf

    @property
    def is_rational_function(self) -> bool:
        """True when no transcendental atom appears (I is still exact)."""
        return not _layout(self.rf.field)[1]

    def conjugate(self) -> "ScalarExpr":
        # coordinates and atom arguments are real-valued, so conjugation
        # maps I to -I in the coefficients
        rf = _conj(self.rf)
        return self if rf is self.rf else _ring(self.chart, rf)

    def diff(self, coord) -> "ScalarExpr":
        return differentiate(self, coord)

    def lift(self, chart) -> "ScalarExpr":
        """The same function on a chart whose coordinates extend this one's
        (the product with a line)."""
        return _ring(chart, _embed(self.rf, _join(self.rf.field, _field(chart.symbols))))

    def subs_chart(self, chart, mapping: dict) -> "ScalarExpr":
        """Composition: replace this chart's symbols by scalars on ``chart``."""
        sub = {}
        for sym, val in mapping.items():
            if sym not in self.chart.symbols:
                raise ChartMismatchError(f"'{sym}' is not a coordinate of {self.chart.name}")
            sub[sym] = (val if isinstance(val, ScalarExpr) else ScalarExpr(val, chart)).rf
        for sym in self.chart.symbols:
            if sym not in sub:
                sub[sym] = ScalarExpr(sym, chart).rf
        return _ring(chart, _compose(self.rf, sub, {}))


def _init(obj: ScalarExpr, chart, rf) -> ScalarExpr:
    object.__setattr__(obj, "chart", chart)
    object.__setattr__(obj, "rf", rf)
    object.__setattr__(obj, "_expr", None)
    object.__setattr__(obj, "_hash", None)
    return obj


def _ring(chart, rf: FracElement) -> ScalarExpr:
    if not rf:
        return chart.zero
    K = rf.field
    if K.domain is QQ_I or _layout(K)[1]:
        rf = _canonical(rf)
    return _init(object.__new__(ScalarExpr), chart, rf)


def _poly_at(p, vals: list, K: FracField) -> tuple:
    """(N, D) with p(vals) = N/D, for values ``vals`` = (numerator,
    denominator) pairs in K's ring, one per variable of p: over the common
    denominator, without a gcd."""
    degs = [max((m[i] for m in p), default=0) for i in range(len(vals))]
    pows = [[[K.ring.one] + [v**e for e in range(1, d + 1)] for v in pair]
            for pair, d in zip(vals, degs)]
    total = K.ring.zero
    for m, c in p.items():
        term = K.ring.ground_new(K.domain.convert_from(c, p.ring.domain))
        for (an, bn), e, d in zip(pows, m, degs):
            term *= an[e] * bn[d - e] if d else 1
        total += term
    return total, math.prod((bn[-1] for _, bn in pows), start=K.ring.one)


def _compose(rf: FracElement, sub: dict, memo: dict) -> FracElement:
    """rf with each coordinate replaced by ``sub[coordinate]`` and each
    generator by the same atom of its composed argument."""
    values = []
    for s in rf.field.symbols:
        g = _GEN_OF_SYMBOL.get(s)
        if g is None:
            values.append(sub[s])
            continue
        if s not in memo:
            arg = _compose(g.arg, sub, memo)
            memo[s] = _atom("exp", arg) if g.kind == "exp" else _tan_half(arg)
        values.append(memo[s])
    K = rf.field if not values else None
    for v in values:
        K = v.field if K is None else _join(K, v.field)
    if rf.field.domain is QQ_I:
        K = _join(K, _field_on((), True))
    pairs = [(m.numer, m.denom) for m in (_embed(v, K) for v in values)]
    Nn, Dn = _poly_at(rf.numer, pairs, K)
    Nd, Dd = _poly_at(rf.denom, pairs, K)
    if not Nd:
        raise ExprError("zero denominator after composition")
    return _fraction(K, Nn * Dd, Dn * Nd)


def _conj(rf: FracElement) -> FracElement:
    K = rf.field
    if K.domain is not QQ_I:
        return rf
    conj = lambda p: K.ring.dtype([(m, QQ_I(c.x, -c.y)) for m, c in p.items()])  # noqa: E731
    return _fraction(K, conj(rf.numer), conj(rf.denom))


# ---------------------------------------------------------------------------
# differentiation


def pdiff(e: ScalarExpr, sym: sp.Symbol) -> ScalarExpr:
    """Partial derivative by one coordinate symbol.

    The one derivative kernel of the package: every tensor operation
    differentiates through it.  It is the chain rule in the field: the
    quotient rule on the numerator and denominator polynomials, with
    d E_m = E_m dm and d T_m = (1 + T_m^2)/2 dm for the generators.  A
    zero returns itself.
    """
    if not e.rf:
        return e
    return _init(object.__new__(ScalarExpr), e.chart, _derivative(e.rf, sym))


@lru_cache(maxsize=65536)
def _derivative(rf: FracElement, sym: sp.Symbol) -> FracElement:
    return _canonical(_diff(rf, sym))


@lru_cache(maxsize=4096)
def _positions(K: FracField) -> dict:
    return {s: i for i, s in enumerate(K.symbols)}


def _poly_diff(p, i: int):
    out = p.ring.zero
    for m, c in p.items():
        if m[i]:
            out[m[:i] + (m[i] - 1,) + m[i + 1:]] = c * m[i]
    return out


@lru_cache(maxsize=16384)
def _gen_diff(g: _Gen, sym: sp.Symbol) -> Optional[FracElement]:
    """d(generator)/d(sym) in its minimal field, None when it is zero."""
    du = _diff(g.arg, sym)
    if not du:
        return None
    G = _field_on((g.symbol,), False).gens[0]
    factor = G if g.kind == "exp" else _fraction(G.field, G.numer**2 + 1, G.field.ring(2))
    return _canonical(_op(operator.mul, factor, du), keep_coords=False)


def _diff(rf: FracElement, sym: sp.Symbol) -> FracElement:
    # FracElement.diff fails over QQ_I in sympy 1.14 ("f.denom should be 1");
    # the quotient rule on the numerator and denominator works over both
    K = rf.field
    parts = [(sym, None)] if sym in _positions(K) else []  # (symbol, its derivative or 1)
    parts += [(g.symbol, dv) for g in _layout(K)[1] for dv in [_gen_diff(g, sym)] if dv]
    if not parts or rf.numer.is_ground and rf.denom.is_ground:
        return K.zero
    L = reduce(_join, (dv.field for _, dv in parts if dv is not None), K)
    f = _embed(rf, L)
    n, d, B = f.numer, f.denom, None
    parts = [(_positions(L)[s], dv if dv is None else _embed(dv, L)) for s, dv in parts]
    for _, dv in parts:  # B: the common denominator of the generator derivatives
        if dv is not None and dv.denom != 1:
            B = dv.denom if B is None else B * dv.denom.exquo(B.gcd(dv.denom))
    # d(n/d) = (dn d - n dd) / d^2, with dn = sum_j d_j n * dv_j over B
    dn = dd = None
    for j, dv in parts:
        pn, pd = _poly_diff(n, j), _poly_diff(d, j)
        if dv is not None or B is not None:
            factor = B if dv is None else dv.numer if B is None else dv.numer * B.exquo(dv.denom)
            pn, pd = pn * factor, pd * factor
        dn, dd = (pn, pd) if dn is None else (dn + pn, dd + pd)
    if B is not None:
        n, d = n * B, d * B
    return _fraction(L, dn, d) if not dd else _fraction(L, dn * d - n * dd, d * d)


def differentiate(e: ScalarExpr, coord) -> ScalarExpr:
    """Partial derivative with respect to one chart coordinate.

    ``coord`` may be a coordinate name or sympy symbol; it must belong to the
    expression's chart.
    """
    sym = e.chart.symbol(coord)
    return pdiff(e, sym) if e.rf else e


# ---------------------------------------------------------------------------
# evaluation and the zero test

_POLE = object()


def _at(rf: FracElement, vals: list, coefficient) -> object:
    """numerator/denominator at the values of the field's symbols; a pole
    is a zero of the reduced denominator."""
    def at(p):
        total = 0
        for monom, c in p.items():
            c = coefficient(c)
            for v, e in zip(vals, monom):
                if e:
                    c *= v**e
            total += c
        return total

    den = at(rf.denom)
    return _POLE if not den else at(rf.numer) / den


def _mp(c):
    """A coefficient of QQ or QQ_I as an mpmath number."""
    if hasattr(c, "y"):
        return mpmath.mpc(_mp(c.x), _mp(c.y))
    return mpmath.mpf(int(c.numerator)) / int(c.denominator)


def _eval_mp(rf: FracElement, point: dict, memo: dict) -> object:
    """Value at ``point`` (coordinate symbol -> mpf), the generators
    evaluated by mpmath."""
    vals = []
    for s in rf.field.symbols:
        g = _GEN_OF_SYMBOL.get(s)
        if g is not None and s not in memo:
            m = _eval_mp(g.arg, point, memo)
            memo[s] = m if m is _POLE else (mpmath.exp(m) if g.kind == "exp" else mpmath.tan(m / 2))
        v = point[s] if g is None else memo[s]
        if v is _POLE:
            return _POLE
        vals.append(v)
    return _at(rf, vals, _mp)


def _evaluator(chart, K: FracField, point: dict):
    """The value function of the elements of K at ``point`` (coordinate ->
    rational), and whether its values are exact.

    The one evaluator of the package.  Without an atom generator in K the
    values are exact: elements of K's domain, Q or Q(i), from the domain
    coefficients.  With one they are mpmath numbers at ``_DPS`` digits, the
    generators evaluated by mpmath.  A pole gives ``_POLE``; a coordinate of
    K that the point misses raises :class:`ExprError`."""
    pt = {chart.symbol(c): _to_fraction(v) for c, v in point.items()}
    coords, gens = _layout(K)
    missing = [str(s) for s in coords if s not in pt]
    if missing:
        raise ExprError(f"the point gives no value for the coordinate(s) {', '.join(missing)}")
    if not gens:
        vals = [K.domain.convert_from(_qq(pt[s]), QQ) for s in K.symbols]
        return (lambda rf: _at(rf, vals, lambda c: c)), True
    with mpmath.workdps(_DPS):
        mp = {s: mpmath.mpf(q.numerator) / q.denominator for s, q in pt.items()}
    memo = {}

    def value(rf):
        with mpmath.workdps(_DPS):
            return _eval_mp(rf, mp, memo)

    return value, False


def evaluate(e: ScalarExpr, point: dict) -> object:
    """The value of ``e`` at a rational point, read by :func:`_evaluator`:
    an element of Q or Q(i) without atoms, else a ``_DPS``-digit mpmath
    number; ``_POLE`` when the point hits a pole."""
    return _evaluator(e.chart, e.rf.field, point)[0](e.rf)


def _to_fraction(v) -> Fraction:
    if not isinstance(v, _RATIONALS):
        raise ExprError(f"sample coordinates must be rational, got {v!r}")
    return Fraction(int(v.p), int(v.q)) if isinstance(v, sp.Rational) else Fraction(v)


def _witness_number(v):
    """A value of :func:`_evaluator` as the number a witness prints: a
    Fraction when it is exact and real, a float, or a complex when it has an
    imaginary part; a 30-digit value beyond the double range keeps its
    leading 13 digits, as a string."""
    if hasattr(v, "y"):  # Q(i)
        return _witness_number(v.x) if not v.y else complex(float(v.x), float(v.y))
    if not isinstance(v, (mpmath.mpf, mpmath.mpc)):
        return Fraction(int(v.numerator), int(v.denominator))
    v = v if v.imag else v.real
    f = complex(v) if v.imag else float(v)
    return f if cmath.isfinite(f) else mpmath.nstr(v, 13, strip_zeros=False, min_fixed=1,
                                                    max_fixed=0)


def is_zero(
    e: ScalarExpr,
    policy: ZeroPolicy = DEFAULT_POLICY,
    criterion: str = "",
    rng: Optional[random.Random] = None,
) -> Verdict:
    """Three-valued zero test, deterministic for a fixed policy seed.

    ``Proved`` when the reduced fraction is 0.  Otherwise the scalar is
    evaluated at ``policy.samples`` random rational points: rational
    expressions must vanish exactly, transcendental ones within
    ``policy.tol`` at 30 digits.  Any other value yields ``Failed`` with a
    witness.  Sample points that hit a pole are redrawn (bounded retries).
    """
    if not e.rf:
        return Verdict.proved(criterion)
    chart = e.chart
    rng = rng if rng is not None else policy.rng()
    drawn = 0
    budget = policy.samples * max(1, policy.max_resample)
    attempts = 0
    while drawn < policy.samples:
        if attempts >= budget:
            raise ExprError(
                f"zero-test: resampling budget exhausted after {attempts} attempts "
                f"(expression has a pole on most of the sampling region?)"
            )
        attempts += 1
        point = chart.sample_point(rng)
        value, exact = _evaluator(chart, e.rf.field, point)
        v = value(e.rf)
        if v is _POLE:
            continue
        drawn += 1
        nonzero = bool(v) if exact else abs(v) > policy.tol
        if nonzero:
            witness = Witness(tuple(sorted(point.items())), _witness_number(v), criterion)
            return Verdict.failed(criterion, witness)
    return Verdict.numeric(criterion)


def is_zero_all(
    exprs: Iterable[ScalarExpr],
    policy: ZeroPolicy = DEFAULT_POLICY,
    criterion: str = "",
) -> Verdict:
    """Aggregate zero test over a family of expressions (weakest verdict)."""
    worst = Verdict.proved(criterion)
    for e in exprs:
        v = is_zero(e, policy, criterion)
        if not v.ok:
            return v
        if not v.is_proved:
            worst = v
    return worst


# ---------------------------------------------------------------------------
# expression grammar for scenario files
#
#   expr   := sum
#   sum    := prod (('+'|'-') prod)*
#   prod   := unary (('*'|'/') unary)*
#   unary  := ('-'|'+')* power
#   power  := primary ('^' unary)?          -- exponent must be an integer
#   primary:= NUMBER | IDENT | FUNC '(' expr ')' | '(' expr ')'
#
# NUMBER is an integer or decimal literal (decimals become exact rationals);
# rational literals like 3/2 come out of the '/' operator. Whitespace-free.

_TOKEN = re.compile(
    r"(?P<ws>\s+)|(?P<num>\d+(?:\.\d+)?)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()])"
)
_FUNCS = {"sin": sp.sin, "cos": sp.cos, "exp": sp.exp}


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


def _degree(expr: sp.Expr) -> int:
    """An estimate of the total degree a grammar tree expands to, read
    before any conversion: a coordinate counts 1, a sum its largest term, a
    product the sum of its factors, an integer power |n| times its base,
    and sin/cos/exp the degree of their argument (at least 1)."""
    if expr.is_Symbol:
        return 1
    if expr.is_Add:
        return max(_degree(a) for a in expr.args)
    if expr.is_Mul:
        return sum(_degree(a) for a in expr.args)
    if expr.is_Pow and expr.exp.is_Integer and expr.base is not sp.E:
        return abs(int(expr.exp)) * _degree(expr.base)
    if expr.is_Pow or isinstance(expr, _ATOM_FUNCS):
        return max(1, _degree(expr.args[-1]))
    return 0


# The digit bound of every number a parse with ``max_degree`` makes.  A
# 5,000-digit literal fails in sympy's Rational, and 2^(10^5) loads a
# 30,103-digit integer that no report can print; the builtins use 2 digits.
MAX_DIGITS = 32


def _digits(q: sp.Rational) -> int:
    """The decimal digits of the larger of q's numerator and denominator,
    read from their bit lengths: never fewer, at most one more."""
    return math.ceil(max(abs(q.p).bit_length(), q.q.bit_length()) * math.log10(2))


class _Parser:
    def __init__(self, text: str, chart, max_degree: Optional[int] = None):
        self.tokens = _tokenize(text)
        self.chart = chart
        self.max_degree = max_degree
        self.i = 0

    def bound(self, e: sp.Expr, pos: int) -> None:
        """Reject a tree whose degree estimate exceeds ``max_degree``, or
        that holds a number of more than MAX_DIGITS digits, before anything
        converts (and so expands) it."""
        if self.max_degree is not None:
            degree = _degree(e)
            if degree > self.max_degree:
                raise ParseError(
                    f"degree estimate {degree} exceeds the bound {self.max_degree}", pos)
            self.bound_digits(max(map(_digits, e.atoms(sp.Rational)), default=0), pos)

    def bound_digits(self, digits: int, pos: int) -> None:
        """Reject a number of ``digits`` digits before sympy makes it."""
        if self.max_degree is not None and digits > MAX_DIGITS:
            raise ParseError(
                f"a number of up to {digits} digits exceeds the bound {MAX_DIGITS}", pos)

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected '{op}', found {val!r}", pos)

    def parse(self) -> sp.Expr:
        e = self.sum()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input starting at {val!r}", pos)
        self.bound(e, 0)
        return e

    def sum(self) -> sp.Expr:
        e = self.prod()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            _, op, _ = self.next()
            rhs = self.prod()
            e = e + rhs if op == "+" else e - rhs
        return e

    def prod(self) -> sp.Expr:
        e = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            _, op, pos = self.next()
            rhs = self.unary()
            if op == "/":
                self.bound(rhs, pos)
                if not _to_field(rhs, self.chart.symbols):
                    raise ParseError("division by zero", pos)
                e = e / rhs
            else:
                e = e * rhs
        return e

    def unary(self) -> sp.Expr:
        sign = 1
        while self.peek()[:2] in (("op", "-"), ("op", "+")):
            _, op, _ = self.next()
            if op == "-":
                sign = -sign
        return sign * self.power()

    def power(self) -> sp.Expr:
        base = self.primary()
        if self.peek()[:2] == ("op", "^"):
            _, _, pos = self.next()
            exponent = self.unary()
            if not exponent.is_Integer:
                raise ParseError("exponent must be an integer literal", pos)
            if base.is_Rational:
                self.bound_digits(abs(int(exponent)) * _digits(base), pos)
            return base ** int(exponent)
        return base

    def primary(self) -> sp.Expr:
        kind, val, pos = self.next()
        if kind == "num":
            self.bound_digits(len(val) - ("." in val), pos)
            return sp.Rational(val)
        if kind == "ident":
            if self.peek()[:2] == ("op", "("):
                if val not in _FUNCS:
                    raise ParseError(f"unknown function '{val}'", pos)
                self.next()
                arg = self.sum()
                self.expect_op(")")
                return _FUNCS[val](arg)
            try:
                return self.chart.symbol(val)
            except ChartMismatchError:
                raise ParseError(
                    f"unknown symbol '{val}' (chart '{self.chart.name}' has "
                    f"coordinates {', '.join(self.chart.coords)})",
                    pos,
                ) from None
        if kind == "op" and val == "(":
            e = self.sum()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {val!r}", pos)


def _parse(text: str, chart, max_degree: Optional[int] = None) -> sp.Expr:
    return _Parser(text, chart, max_degree).parse()


def parse_scalar(text: str, chart, max_degree: Optional[int] = None) -> ScalarExpr:
    """Parse the scenario-file grammar into a canonical scalar.  With
    ``max_degree``, a text whose degree estimate exceeds it (or a divisor's)
    raises :class:`ParseError` before it is converted."""
    return ScalarExpr(_parse(text, chart, max_degree), chart)


# ---------------------------------------------------------------------------
# random expressions (fuzzing and randomized identity tests)


def random_expr(
    chart,
    rng: random.Random,
    max_depth: int = 5,
    atoms: bool = True,
    division: bool = True,
) -> ScalarExpr:
    """Random expression tree over the chart, for property tests."""
    return ScalarExpr(random_tree(chart, rng, max_depth, atoms, division), chart)


def random_tree(
    chart,
    rng: random.Random,
    max_depth: int = 5,
    atoms: bool = True,
    division: bool = True,
) -> sp.Expr:
    """The sympy tree :func:`random_expr` converts."""

    def build(depth: int) -> sp.Expr:
        if depth <= 0 or rng.random() < 0.3:
            if rng.random() < 0.5:
                return sp.Rational(rng.randint(-9, 9), rng.randint(1, 9))
            return rng.choice(chart.symbols)
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
            if not _to_field(den, chart.symbols):
                den = sp.Integer(1) + rng.choice(chart.symbols) ** 2
            return build(depth - 1) / den
        if atoms:
            fn = rng.choice((sp.sin, sp.cos, sp.exp))
            return fn(build(min(depth - 1, 2)))
        return build(depth - 1)

    return build(rng.randint(0, max_depth))


def random_poly(chart, rng: random.Random, degree: int = 2) -> ScalarExpr:
    """Random small polynomial in the chart coordinates (pole-free), with
    integer coefficients, for randomized identity tests."""
    terms = [sp.Integer(rng.randint(-4, 4))]
    for _ in range(rng.randint(1, 4)):
        term = sp.Integer(rng.randint(-4, 4))
        for _ in range(rng.randint(1, degree)):
            term *= rng.choice(chart.symbols)
        terms.append(term)
    return ScalarExpr(sp.Add(*terms), chart)
