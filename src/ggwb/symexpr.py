"""Exact symbolic scalar fields on a coordinate chart.

A :class:`ScalarExpr` is a rational function of the chart coordinates and of
opaque ``sin``/``cos``/``exp`` atoms, with exact rational (or Gaussian
rational) coefficients.  It has one of two representations, chosen by the
value alone:

- without atoms, an element ``rf`` of the rational function field
  Q(x_1..x_n) of the chart (a ``sympy.polys`` ``FracField`` in lex order,
  cached per chart), or of Q(i)(x_1..x_n) when ``I`` occurs.  Arithmetic,
  derivatives, evaluation and the zero test act on the coefficient dicts
  of its numerator and denominator.  The reduced fraction is the canonical
  form; ``expr`` is a sympy view of it, built on first use, equal to what
  :func:`sympy.cancel` returns.  Values start in Q(x); an operand is
  promoted to Q(i)(x) only when the other has an imaginary coefficient, and
  a result whose coefficients are all real moves back to Q(x);
- with atoms, a sympy expression in the multivariate rational normal form
  over Q produced by :func:`sympy.cancel`, with transcendental atoms treated
  as independent generators whose arguments are themselves canonical.  An
  operation that mixes the two representations works on the view.

The canonical form does no trigonometric rewriting, so
``sin(x)**2 + cos(x)**2 - 1`` is not syntactically zero.

The zero test decides such identities with :func:`trig_reduce`: after
sum and multiple-angle expansion it reduces a polynomial modulo the ideal
generated by ``sin(u)**2 + cos(u)**2 - 1``.  Those relations are a Groebner
basis for the lex order with every ``cos(u)`` first, so the remainder is a
normal form and a zero remainder proves the identity.  The reduction does not
relate atoms whose arguments differ by a non-integer factor (``sin(x)`` and
``sin(x/2)``) or by a factor above ``_MAX_MULTIPLE``; such identities still
go to sampling.

Soundness contract: ``is_zero`` answers ``Proved`` only when the reduced
fraction of an atom-free scalar is zero (the field is exact, so that is a
proof of the identity), when the canonical form of a scalar with atoms is
the literal zero, or when its numerator reduces to zero modulo the
Pythagorean relations while its denominator does not.  A nonzero reduced
fraction is never zero as a function, but its ``Failed`` still needs a
witness: the sampler looks for a rational point where it is nonzero.

The grammar (coordinates, rational literals, integer powers, ``sin``,
``cos``, ``exp``) is validated once, where a value enters: parsing, or a
sympy expression or number handed to the constructor.
"""

from __future__ import annotations

import math
import operator
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Union

import sympy as sp
from sympy.polys.domains import QQ, QQ_I
from sympy.polys.fields import FracElement, FracField
from sympy.polys.orderings import lex
from sympy.polys.polyutils import _sort_gens

from .errors import ChartMismatchError, ExprError, ParseError
from .verdict import Verdict, Witness

_BAD_VALUES = (sp.zoo, sp.nan, sp.oo, -sp.oo)
_ATOM_FUNCS = (sp.sin, sp.cos, sp.exp)

Number = Union[int, Fraction, sp.Rational]


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
# canonical form


def _canon_once(expr: sp.Expr) -> sp.Expr:
    if expr.has(*_ATOM_FUNCS):
        expr = expr.replace(
            lambda n: isinstance(n, _ATOM_FUNCS),
            lambda n: n.func(_canon_cached(n.args[0])),
        )
        return sp.cancel(expr)
    # atom-free: pure rational function of the coordinates.  Polynomials
    # (unit denominator) take the cheap expand route, which agrees with
    # cancel's normal form on that subclass.
    num, den = expr.as_numer_denom()
    if den is sp.S.One:
        return sp.expand(num)
    return sp.cancel(expr)


@lru_cache(maxsize=65536)
def _canon_cached(expr: sp.Expr) -> sp.Expr:
    # one pass is not always a fixed point: with a constant atom, cancel
    # maps (6*exp(-8/3)*exp(y) + 5)/(8*y) to (6*exp(y) + 5*exp(8/3))*exp(-8/3)/(8*y)
    cur = expr
    for _ in range(3):
        new = _canon_once(cur)
        if new == cur:
            return cur
        cur = new
    return cur


def canon(expr: sp.Expr) -> sp.Expr:
    """Rational normal form.  Without atoms it is the reduced fraction of
    the rational function field in the free symbols (the view a
    :class:`ScalarExpr` shows); with atoms, the fixed point of the
    canonicalization pass, served from a cache."""
    expr = sp.sympify(expr)
    if not _has_atoms(expr):
        rf = _to_field(expr, tuple(expr.free_symbols))
        if rf is not None:
            return _view(rf)
    return _canon_cached(expr)


# cos(k*u) expands to a polynomial of degree k in cos(u), sin(u).  An atom
# whose argument has a larger integer multiple stays one generator: that
# bounds the work on hostile input and stays sound, since the atom keeps its
# own Pythagorean relation.
_MAX_MULTIPLE = 8


def _small_multiples(u: sp.Expr) -> bool:
    return all(
        t.is_number or abs(t.as_coeff_Mul(rational=True)[0].p) <= _MAX_MULTIPLE
        for t in sp.Add.make_args(u)
    )


def trig_reduce(poly_expr: sp.Expr) -> sp.Expr:
    """Normal form of a polynomial modulo ``sin(u)**2 + cos(u)**2 - 1``.

    ``poly_expr`` is a polynomial in the coordinates and in ``sin``/``cos``/
    ``exp`` atoms.  ``sp.expand_trig`` first splits sums and integer multiples
    (up to ``_MAX_MULTIPLE``) in the arguments; then every ``cos(u)**2`` is
    rewritten as ``1 - sin(u)**2`` until each ``cos(u)`` has degree at most 1.
    With the generators ordered cos atoms, sin atoms, exp atoms, coordinates
    (lex), this is the remainder modulo a Groebner basis, so it is canonical
    for those generators and idempotent.
    """
    expr = poly_expr.xreplace({
        a: sp.expand_trig(a, deep=False)
        for a in poly_expr.atoms(sp.sin, sp.cos)
        if _small_multiples(a.args[0])
    })
    args = sorted({t.args[0] for t in expr.atoms(sp.sin, sp.cos)}, key=sp.default_sort_key)
    n = len(args)
    atoms = (
        [sp.cos(u) for u in args]
        + [sp.sin(u) for u in args]
        + sorted(expr.atoms(sp.exp), key=sp.default_sort_key)
    )
    # Poly would read exp(2*u) as a power of exp(u); dummies keep every atom
    # an independent generator
    dummies = [sp.Dummy() for _ in atoms]
    gens = dummies + sorted(expr.free_symbols, key=sp.default_sort_key)
    if not gens:
        return expr
    terms = sp.Poly(expr.xreplace(dict(zip(atoms, dummies))), *gens).as_dict()
    for c in range(n):
        s = n + c
        out: dict = {}
        for monom, coeff in terms.items():
            q, r = divmod(monom[c], 2)
            for j in range(q + 1):
                m = list(monom)
                m[c], m[s] = r, m[s] + 2 * j
                key = tuple(m)
                out[key] = out.get(key, 0) + (-1) ** j * sp.binomial(q, j) * coeff
        terms = {m: v for m, v in out.items() if v != 0}
    if not terms:
        return sp.Integer(0)
    return sp.Poly.from_dict(terms, *gens).as_expr().xreplace(dict(zip(dummies, atoms)))


def trig_reduce_rational(expr: sp.Expr) -> sp.Expr:
    """:func:`trig_reduce` applied to the numerator and the denominator of
    the canonical form, then cancelled.  Raises :class:`ExprError` when the
    denominator reduces to zero."""
    num, den = sp.fraction(canon(expr))
    den = trig_reduce(den)
    if den == 0:
        raise ExprError("denominator vanishes identically (sin^2 + cos^2 = 1)")
    num = trig_reduce(num)
    return num if num == 0 else sp.cancel(num / den)


def _validate_nodes(expr: sp.Expr, chart) -> None:
    symbols = set(chart.symbols)
    for node in sp.preorder_traversal(expr):
        if node in _BAD_VALUES:
            raise ExprError(f"expression contains an undefined value: {node}")
        if isinstance(node, sp.Symbol):
            if node not in symbols:
                raise ChartMismatchError(
                    f"symbol '{node}' does not belong to chart '{chart.name}'"
                )
        elif isinstance(node, sp.Float):
            raise ExprError("float literals are not allowed; use exact rationals")
        elif isinstance(node, sp.Pow):
            if not (node.exp.is_Integer or node.base is sp.E):
                raise ExprError(f"non-integer power is outside the grammar: {node}")
        elif isinstance(node, sp.Function) and not isinstance(node, _ATOM_FUNCS):
            raise ExprError(f"function '{node.func}' is outside the grammar")


# ---------------------------------------------------------------------------
# the rational function field of a chart


@lru_cache(maxsize=256)
def _field_on(gens: tuple, gaussian: bool) -> FracField:
    return FracField(gens, QQ_I if gaussian else QQ, lex)


@lru_cache(maxsize=256)
def _field(symbols: tuple, gaussian: bool = False) -> FracField:
    """Q(x) or Q(i)(x) over the chart symbols, in sympy's own generator
    order, so that the reduced fraction normalizes like :func:`sympy.cancel`."""
    return _field_on(_sort_gens(symbols), gaussian)


def _gaussian(rf: FracElement) -> bool:
    return rf.field.domain is QQ_I


def _settle(rf: FracElement) -> FracElement:
    """An element of Q(i)(x) with real coefficients, moved to Q(x): the field
    of a value depends on the value alone."""
    K = rf.field
    if K.domain is not QQ_I or any(c.y for p in (rf.numer, rf.denom) for c in p.values()):
        return rf
    Kq = _field_on(K.symbols, False)
    return Kq.new(rf.numer.set_ring(Kq.ring), rf.denom.set_ring(Kq.ring))


def _unify(a: FracElement, b: FracElement) -> tuple:
    """Both operands in one field: Q(x) is promoted to Q(i)(x) only when the
    other operand has an imaginary coefficient."""
    if a.field is b.field or a.field == b.field:
        return a, b
    if _gaussian(a):
        return a, b.set_field(a.field)
    return a.set_field(b.field), b


def _fraction(K: FracField, num, den) -> FracElement:
    """num/den in lowest terms.  The reduced form sympy keeps is a pair of
    integer polynomials without common factor, contents coprime, denominator
    with positive leading coefficient; over Q a constant denominator needs
    no gcd for it: num/den times the common denominator L, over L."""
    if K.domain is QQ and den.is_ground:
        if not num:
            return K.zero
        c = den[K.ring.zero_monom]
        if c != 1:
            num = num.quo_ground(c)
        L = math.lcm(*(v.denominator for v in num.values()))
        if L == 1:
            return K.raw_new(num, _one(K))
        return K.raw_new(num.mul_ground(L), K.ring.ground_new(L))
    return K.new(num, den)


@lru_cache(maxsize=256)
def _one(K: FracField):
    return K.ring.one


def _field_op(op, a: FracElement, b: FracElement) -> FracElement:
    """``op`` (one of + - * /) on two elements of one field."""
    K = a.field
    if op is operator.mul:
        return _fraction(K, a.numer * b.numer, a.denom * b.denom)
    if op is operator.truediv:
        return _fraction(K, a.numer * b.denom, a.denom * b.numer)
    if a.denom == b.denom:
        return _fraction(K, op(a.numer, b.numer), a.denom)
    if a.denom.is_ground and b.denom.is_ground:
        return _fraction(K, op(a.numer * b.denom, b.numer * a.denom), a.denom * b.denom)
    return op(a, b)


@lru_cache(maxsize=1024)
def _constant(K: FracField, v) -> FracElement:
    return K(_qq(v))


@lru_cache(maxsize=65536)
def _has_atoms(expr: sp.Expr) -> bool:
    return expr.has(*_ATOM_FUNCS)


@lru_cache(maxsize=65536)
def _to_field(expr: sp.Expr, symbols: tuple) -> Optional[FracElement]:
    """The field element of an expression without ``sin``/``cos``/``exp``
    atoms; None when it has another constant outside Q(i)."""
    try:
        rf = _field(symbols, expr.has(sp.I)).from_expr(expr)
    except ValueError:  # E, pi: constants outside Q(i)
        return None
    return _settle(rf)


def _qq(v) -> object:
    """A rational number as an element of QQ."""
    if isinstance(v, Fraction):
        return QQ(v.numerator, v.denominator)
    if isinstance(v, sp.Rational):
        return QQ(int(v.p), int(v.q))
    return QQ(v)


_RATIONALS = (int, Fraction, sp.Rational)


# ---------------------------------------------------------------------------
# the scalar


class ScalarExpr:
    """Immutable canonical scalar field tagged with its owning chart.

    ``rf`` is the element of the chart's rational function field when the
    value has no transcendental atom, and None otherwise; ``expr`` is the
    sympy expression, built lazily from ``rf`` for atom-free values.
    """

    __slots__ = ("chart", "rf", "_expr", "_hash")

    def __init__(self, value, chart):
        if isinstance(value, ScalarExpr):
            if value.chart != chart:
                raise ChartMismatchError(
                    f"scalar from chart '{value.chart.name}' used on '{chart.name}'"
                )
            rf, expr = value.rf, value._expr
        elif isinstance(value, float):
            raise ExprError("float literals are not allowed; use exact rationals")
        elif isinstance(value, _RATIONALS):
            rf, expr = _constant(_field(chart.symbols), value), None
        else:
            # the grammar boundary: parse or sympify, validate, represent
            expr = _parse(value, chart) if isinstance(value, str) else sp.sympify(value)
            _validate_nodes(expr, chart)
            rf, expr = _represent(expr, chart)
        _init(self, chart, rf, expr)

    @classmethod
    def _of(cls, expr: sp.Expr, chart, atoms: bool = False) -> "ScalarExpr":
        """A raw expression built by the package from validated scalars:
        represented without the grammar walk."""
        return _init(object.__new__(cls), chart, *_represent(expr, chart, atoms))

    def __setattr__(self, *a):  # immutability
        raise AttributeError("ScalarExpr is immutable")

    @property
    def expr(self) -> sp.Expr:
        if self._expr is None:
            object.__setattr__(self, "_expr", _view(self.rf))
        return self._expr

    # -- arithmetic ---------------------------------------------------

    def _op(self, other, op, swap: bool = False) -> "ScalarExpr":
        """``op(self, other)``, or ``op(other, self)`` with ``swap``: in the
        field when both operands are atom-free, else on canonical
        expressions."""
        if isinstance(other, ScalarExpr):
            if other.chart != self.chart:
                raise ChartMismatchError(
                    f"cannot combine scalars from charts "
                    f"'{self.chart.name}' and '{other.chart.name}'"
                )
            if self.rf is not None and other.rf is not None:
                a, b = _unify(self.rf, other.rf)
                return _ring(self.chart, _field_op(op, *((b, a) if swap else (a, b))))
            atom_operand = other.rf is None
            other = other.expr
        elif isinstance(other, float):
            raise ExprError("float operands are not allowed; use exact rationals")
        elif isinstance(other, _RATIONALS) and self.rf is not None:
            a, b = self.rf, _constant(self.rf.field, other)
            return _ring(self.chart, _field_op(op, *((b, a) if swap else (a, b))))
        else:
            other = sp.sympify(other)
            atom_operand = _has_atoms(other)
        a, b = (other, self.expr) if swap else (self.expr, other)
        return ScalarExpr._of(op(a, b), self.chart, atoms=self.rf is None or atom_operand)

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
        if _is_zero_operand(other):
            raise ExprError("division by syntactically zero expression")
        return self._op(other, operator.truediv)

    def __rtruediv__(self, other):
        if self.is_syntactic_zero:
            raise ExprError("division by syntactically zero expression")
        return self._op(other, operator.truediv, swap=True)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ExprError("only integer powers are in the grammar")
        if n < 0 and self.is_syntactic_zero:
            raise ExprError("division by syntactically zero expression")
        if self.rf is not None:
            # FracElement.__pow__ leaves a negative power unnormalized
            num, den = (self.rf.numer, self.rf.denom)[:: 1 if n >= 0 else -1]
            return _ring(self.chart, _fraction(self.rf.field, num ** abs(n), den ** abs(n)))
        return ScalarExpr._of(self.expr**n, self.chart, atoms=True)

    def __neg__(self):
        if self.rf is not None:
            return _ring(self.chart, -self.rf)
        return ScalarExpr._of(-self.expr, self.chart, atoms=True)

    def __eq__(self, other):
        if isinstance(other, ScalarExpr):
            if self.chart != other.chart or (self.rf is None) != (other.rf is None):
                return False
            return self.rf == other.rf if self.rf is not None else self._expr == other._expr
        if isinstance(other, _RATIONALS) and self.rf is not None:
            return self.rf == _constant(self.rf.field, other)
        return self.expr == sp.sympify(other)

    def __hash__(self):
        if self._hash is None:
            key = self.rf if self.rf is not None else self._expr
            object.__setattr__(self, "_hash", hash((key, self.chart.name)))
        return self._hash

    def __repr__(self):
        return f"ScalarExpr({self.expr})"

    def __str__(self):
        return str(self.expr)

    # -- queries --------------------------------------------------------

    @property
    def is_syntactic_zero(self) -> bool:
        return not self.rf if self.rf is not None else self._expr == 0

    @property
    def is_rational_function(self) -> bool:
        """True when no transcendental atom appears (I is still exact)."""
        return self.rf is not None or not _has_atoms(self._expr)

    def conjugate(self) -> "ScalarExpr":
        # coordinates and atoms are real-valued, so conjugation is the
        # structural substitution I -> -I.
        if self.rf is not None:
            K = self.rf.field
            if K.domain is not QQ_I:
                return self
            conj = lambda p: K.ring({m: QQ_I(c.x, -c.y) for m, c in p.items()})  # noqa: E731
            return _ring(self.chart, K.new(conj(self.rf.numer), conj(self.rf.denom)))
        if not self._expr.has(sp.I):
            return self
        return ScalarExpr._of(self._expr.subs(sp.I, -sp.I), self.chart, atoms=True)

    def diff(self, coord) -> "ScalarExpr":
        return differentiate(self, coord)

    def lift(self, chart) -> "ScalarExpr":
        """The same function on a chart whose coordinates extend this one's
        (the product with a line)."""
        if self.rf is None:
            return ScalarExpr._of(self._expr, chart)
        K = _field(chart.symbols, _gaussian(self.rf))
        return _ring(chart, self.rf.set_field(K))

    def subs_chart(self, chart, mapping: dict) -> "ScalarExpr":
        """Composition: replace this chart's symbols by scalars on ``chart``."""
        sub = {}
        for sym, val in mapping.items():
            if sym not in self.chart.symbols:
                raise ChartMismatchError(f"'{sym}' is not a coordinate of {self.chart.name}")
            sub[sym] = val if isinstance(val, ScalarExpr) else ScalarExpr(val, chart)
        if self.rf is not None and set(sub) == set(self.chart.symbols) and all(
            v.chart == chart and v.rf is not None for v in sub.values()
        ):
            return _ring(chart, _compose(self.rf, [sub[g] for g in self.rf.field.symbols]))
        raw = {sym: v.expr for sym, v in sub.items()}
        return ScalarExpr(self.expr.subs(raw, simultaneous=True), chart)


@lru_cache(maxsize=65536)
def _view(rf: FracElement) -> sp.Expr:
    return rf.as_expr()


def _init(obj: ScalarExpr, chart, rf, expr) -> ScalarExpr:
    object.__setattr__(obj, "chart", chart)
    object.__setattr__(obj, "rf", rf)
    object.__setattr__(obj, "_expr", expr)
    object.__setattr__(obj, "_hash", None)
    return obj


def _ring(chart, rf: FracElement) -> ScalarExpr:
    if rf.field.domain is QQ_I:
        rf = _settle(rf)
    return _init(object.__new__(ScalarExpr), chart, rf, None)


def _represent(expr: sp.Expr, chart, atoms: bool = False) -> tuple:
    """(field element, None) for a value without atoms, (None, canonical
    expression) otherwise.  ``atoms`` says that ``expr`` was built from a
    scalar with atoms, which skips the first conversion attempt."""
    rf = None if atoms or _has_atoms(expr) else _to_field(expr, chart.symbols)
    if rf is None:
        expr = _canon_cached(expr)
        if not _has_atoms(expr):  # the atoms may have cancelled
            rf = _to_field(expr, chart.symbols)
    if rf is not None:
        return rf, None
    if sp.fraction(expr)[1] == 0:
        raise ExprError("zero denominator after canonicalization")
    return None, expr


def _is_zero_operand(v) -> bool:
    if isinstance(v, ScalarExpr):
        return v.is_syntactic_zero
    if isinstance(v, _RATIONALS):
        return v == 0
    return canon(v) == 0


def _compose(rf: FracElement, values: list) -> FracElement:
    """rf with its generators replaced by the atom-free scalars ``values``
    (one per generator, on one chart), computed in the target field."""
    fields = [v.rf.field for v in values]
    gaussian = _gaussian(rf) or any(K.domain is QQ_I for K in fields)
    K = _field(values[0].chart.symbols, gaussian)
    vals = [v.rf.set_field(K) for v in values]
    dom = rf.field.domain

    def at(p):
        total = K.zero
        powers = [{} for _ in vals]
        for monom, c in p.items():
            term = K(K.domain.convert_from(c, dom))
            for v, e, cache in zip(vals, monom, powers):
                if e:
                    if e not in cache:
                        cache[e] = v**e
                    term *= cache[e]
            total += term
        return total

    den = at(rf.denom)
    if not den:
        raise ExprError("zero denominator after composition")
    return at(rf.numer) / den


# ---------------------------------------------------------------------------
# differentiation


def pdiff(e, sym: sp.Symbol):
    """Partial derivative by one coordinate symbol.

    The one derivative kernel of the package: every tensor operation
    differentiates through it.  An atom-free :class:`ScalarExpr` is
    differentiated in its rational function field by the quotient rule on
    its numerator and denominator polynomials; a ScalarExpr with atoms by
    sympy, wrapped again.  A raw expression (the components of a field with
    atoms) gets a raw derivative: ``S.Zero`` without calling sympy when
    ``sym`` is not a free symbol of ``e``, ``sympy.diff`` otherwise.  The skip is
    exact: coordinates are plain symbols and the ``sin``/``cos``/``exp``
    atoms only contain coordinates, so an expression without ``sym`` does
    not depend on it, and ``sympy.diff`` would return the same ``S.Zero``.
    """
    if isinstance(e, ScalarExpr):
        if e.rf is None:
            return ScalarExpr._of(pdiff(e.expr, sym), e.chart, atoms=True)
        if e.rf.numer.is_ground and e.rf.denom.is_ground:
            return _ring(e.chart, e.rf.field.zero)
        return _ring(e.chart, _field_diff(e.rf, sym))
    if sym not in e.free_symbols:
        return sp.S.Zero
    return sp.diff(e, sym)


@lru_cache(maxsize=256)
def _positions(K: FracField) -> dict:
    return {s: i for i, s in enumerate(K.symbols)}


def _poly_diff(p, i: int):
    out = p.ring.zero
    for m, c in p.items():
        if m[i]:
            out[m[:i] + (m[i] - 1,) + m[i + 1:]] = c * m[i]
    return out


def _field_diff(rf: FracElement, sym: sp.Symbol) -> FracElement:
    # FracElement.diff fails over QQ_I in sympy 1.14 ("f.denom should be 1");
    # the quotient rule on the numerator and denominator works over both
    K = rf.field
    i = _positions(K)[sym]
    n, d = rf.numer, rf.denom
    dn, dd = _poly_diff(n, i), _poly_diff(d, i)
    if not dd:
        return _fraction(K, dn, d)
    return K.new(dn * d - n * dd, d * d)


def differentiate(e: ScalarExpr, coord) -> ScalarExpr:
    """Partial derivative with respect to one chart coordinate.

    ``coord`` may be a coordinate name or sympy symbol; it must belong to the
    expression's chart.
    """
    return pdiff(e, e.chart.symbol(coord))


# ---------------------------------------------------------------------------
# evaluation and the zero test

_POLE = object()


def _eval_exact(expr: sp.Expr, point: dict) -> object:
    # symbols map to Rationals, so rebuilding the tree evaluates it exactly;
    # a pole comes out as zoo or nan
    v = expr.xreplace(point)
    if v.has(*_BAD_VALUES):
        return _POLE
    return v


def _eval_field(rf: FracElement, point: dict) -> object:
    # numerator and denominator evaluated on the coefficient dicts; a pole
    # is a zero of the reduced denominator
    dom = rf.field.domain
    vals = [dom.convert_from(_qq(point[g]), QQ) for g in rf.field.symbols]

    def at(p):
        total = dom.zero
        for monom, c in p.items():
            for v, e in zip(vals, monom):
                if e:
                    c *= v**e
            total += c
        return total

    den = at(rf.denom)
    if not den:
        return _POLE
    return dom.to_sympy(dom.quo(at(rf.numer), den))


def _eval_numeric(expr: sp.Expr, point: dict) -> object:
    v = expr.evalf(30, subs=point)
    if v.has(*_BAD_VALUES) or not v.is_number:
        return _POLE
    return complex(v)


def evaluate(e: ScalarExpr, point: dict) -> object:
    """Evaluate at a rational point: exact sympy number for rational
    expressions, a ``complex`` for expressions with transcendental atoms.
    Returns the ``_POLE`` sentinel when the point hits a pole."""
    pt = {e.chart.symbol(k): _to_rational(v) for k, v in point.items()}
    if e.rf is not None:
        return _eval_field(e.rf, pt)
    if e.is_rational_function:
        return _eval_exact(e.expr, pt)
    return _eval_numeric(e.expr, pt)


def _to_rational(v) -> sp.Rational:
    if isinstance(v, Fraction):
        return sp.Rational(v.numerator, v.denominator)
    if isinstance(v, (int, sp.Rational)):
        return sp.Rational(v)
    raise ExprError(f"sample coordinates must be rational, got {v!r}")


def _witness_value(v):
    if isinstance(v, complex):
        return v if v.imag else v.real
    if v.is_Rational:
        return Fraction(int(v.p), int(v.q))
    re_, im_ = v.as_real_imag()
    return complex(float(re_), float(im_))


def is_zero(
    e: ScalarExpr,
    policy: ZeroPolicy = DEFAULT_POLICY,
    criterion: str = "",
    rng: Optional[random.Random] = None,
) -> Verdict:
    """Three-valued zero test, deterministic for a fixed policy seed.

    ``Proved`` when the reduced fraction of an atom-free scalar is 0, when
    the canonical form of a scalar with atoms is literally 0, or when it has
    sin/cos atoms and its numerator reduces to 0 under :func:`trig_reduce`.
    A denominator that reduces to 0 raises :class:`ExprError`.  Otherwise the
    expression is evaluated at ``policy.samples`` random rational points:
    rational expressions must vanish exactly, transcendental ones within
    ``policy.tol``.  Any other value yields ``Failed`` with a witness.
    Sample points that hit a pole are redrawn (bounded retries).
    """
    if e.rf is not None:
        if not e.rf:
            return Verdict.proved(criterion)
    else:
        expr = canon(e.expr)
        if expr == 0:
            return Verdict.proved(criterion)
        if expr.has(sp.sin, sp.cos) and trig_reduce_rational(expr) == 0:
            return Verdict.proved(criterion)
    chart = e.chart
    rng = rng if rng is not None else policy.rng()
    exact = e.is_rational_function
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
        sympy_pt = {chart.symbol(k): _to_rational(v) for k, v in point.items()}
        if e.rf is not None:
            v = _eval_field(e.rf, sympy_pt)
        else:
            v = _eval_exact(expr, sympy_pt) if exact else _eval_numeric(expr, sympy_pt)
        if v is _POLE:
            continue
        drawn += 1
        nonzero = (v != 0) if exact else abs(v) > policy.tol
        if nonzero:
            witness = Witness(
                point=tuple(sorted(point.items())),
                value=_witness_value(v),
                detail=criterion,
            )
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


class _Parser:
    def __init__(self, text: str, chart):
        self.tokens = _tokenize(text)
        self.chart = chart
        self.i = 0

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
                if canon(rhs) == 0:
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
            return base ** int(exponent)
        return base

    def primary(self) -> sp.Expr:
        kind, val, pos = self.next()
        if kind == "num":
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


def _parse(text: str, chart) -> sp.Expr:
    return _Parser(text, chart).parse()


def parse_scalar(text: str, chart) -> ScalarExpr:
    """Parse the scenario-file grammar into a canonical scalar."""
    return ScalarExpr(_parse(text, chart), chart)


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
            den = canon(build(depth - 1))
            if den == 0:
                den = sp.Integer(1) + rng.choice(chart.symbols) ** 2
            return build(depth - 1) / den
        if atoms:
            fn = rng.choice((sp.sin, sp.cos, sp.exp))
            return fn(build(min(depth - 1, 2)))
        return build(depth - 1)

    return ScalarExpr(build(rng.randint(0, max_depth)), chart)


def random_poly(chart, rng: random.Random, degree: int = 2) -> ScalarExpr:
    """Random small polynomial in the chart coordinates (pole-free).

    Integer coefficients: exact, and far cheaper for sympy to expand than
    rationals, which matters in randomized identity tests."""
    terms = [sp.Integer(rng.randint(-4, 4))]
    for _ in range(rng.randint(1, 4)):
        term = sp.Integer(rng.randint(-4, 4))
        for _ in range(rng.randint(1, degree)):
            term *= rng.choice(chart.symbols)
        terms.append(term)
    return ScalarExpr(sp.Add(*terms), chart)
