"""Exact symbolic scalar fields on a coordinate chart.

A :class:`ScalarExpr` is a rational function of the chart coordinates and of
opaque ``sin``/``cos``/``exp`` atoms, with exact rational (or Gaussian
rational) coefficients.  Every constructor canonicalizes: the canonical form
is the multivariate rational normal form over Q produced by :func:`sympy.cancel`,
with transcendental atoms treated as independent generators whose arguments
are themselves canonical.  The canonical form does no trigonometric
rewriting, so ``sin(x)**2 + cos(x)**2 - 1`` is not syntactically zero.

The zero test decides such identities with :func:`trig_reduce`: after
sum and multiple-angle expansion it reduces a polynomial modulo the ideal
generated by ``sin(u)**2 + cos(u)**2 - 1``.  Those relations are a Groebner
basis for the lex order with every ``cos(u)`` first, so the remainder is a
normal form and a zero remainder proves the identity.  The reduction does not
relate atoms whose arguments differ by a non-integer factor (``sin(x)`` and
``sin(x/2)``) or by a factor above ``_MAX_MULTIPLE``; such identities still
go to sampling.

Soundness contract: ``is_zero`` answers ``Proved`` only when the canonical
form is the literal zero, or when its numerator reduces to zero modulo the
Pythagorean relations while its denominator does not; either implies the
expression vanishes identically.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Union

import sympy as sp

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
    """Rational normal form: the fixed point of the canonicalization pass,
    served from a cache."""
    return _canon_cached(sp.sympify(expr))


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


class ScalarExpr:
    """Immutable canonical scalar field tagged with its owning chart."""

    __slots__ = ("expr", "chart", "_hash")

    def __init__(self, value, chart, _canonical: bool = False, _trusted: bool = False):
        if isinstance(value, ScalarExpr):
            if value.chart != chart:
                raise ChartMismatchError(
                    f"scalar from chart '{value.chart.name}' used on '{chart.name}'"
                )
            expr = value.expr
            _canonical = _trusted = True
        elif isinstance(value, float):
            raise ExprError("float literals are not allowed; use exact rationals")
        elif isinstance(value, Fraction):
            expr = sp.Rational(value.numerator, value.denominator)
        elif isinstance(value, str):
            expr = _parse(value, chart)
        else:
            expr = sp.sympify(value)
        if not _canonical:
            expr = canon(expr)
        if not _trusted:
            # grammar validation at the boundary; arithmetic on validated
            # expressions stays inside the grammar and skips the walk.
            _validate_nodes(expr, chart)
            den = sp.fraction(expr)[1]
            if den == 0:
                raise ExprError("zero denominator after canonicalization")
        object.__setattr__(self, "expr", expr)
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):  # immutability
        raise AttributeError("ScalarExpr is immutable")

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> sp.Expr:
        if isinstance(other, ScalarExpr):
            if other.chart != self.chart:
                raise ChartMismatchError(
                    f"cannot combine scalars from charts "
                    f"'{self.chart.name}' and '{other.chart.name}'"
                )
            return other.expr
        if isinstance(other, float):
            raise ExprError("float operands are not allowed; use exact rationals")
        if isinstance(other, Fraction):
            return sp.Rational(other.numerator, other.denominator)
        return sp.sympify(other)

    def _new(self, expr: sp.Expr) -> "ScalarExpr":
        return ScalarExpr(canon(expr), self.chart, _canonical=True, _trusted=True)

    def __add__(self, other):
        return self._new(self.expr + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self._new(self.expr - self._coerce(other))

    def __rsub__(self, other):
        return self._new(self._coerce(other) - self.expr)

    def __mul__(self, other):
        return self._new(self.expr * self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        div = self._coerce(other)
        if canon(div) == 0:
            raise ExprError("division by syntactically zero expression")
        return self._new(self.expr / div)

    def __rtruediv__(self, other):
        if self.expr == 0:
            raise ExprError("division by syntactically zero expression")
        return self._new(self._coerce(other) / self.expr)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ExprError("only integer powers are in the grammar")
        if n < 0 and self.expr == 0:
            raise ExprError("division by syntactically zero expression")
        return self._new(self.expr**n)

    def __neg__(self):
        return self._new(-self.expr)

    def __eq__(self, other):
        if isinstance(other, ScalarExpr):
            return self.chart == other.chart and self.expr == other.expr
        return self.expr == self._coerce(other)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.expr, self.chart.name)))
        return self._hash

    def __repr__(self):
        return f"ScalarExpr({self.expr})"

    def __str__(self):
        return str(self.expr)

    # -- queries --------------------------------------------------------

    @property
    def is_syntactic_zero(self) -> bool:
        return self.expr == 0

    @property
    def is_rational_function(self) -> bool:
        """True when no transcendental atom appears (I is still exact)."""
        return not self.expr.has(*_ATOM_FUNCS)

    def conjugate(self) -> "ScalarExpr":
        # coordinates and atoms are real-valued, so conjugation is the
        # structural substitution I -> -I.
        if not self.expr.has(sp.I):
            return self
        return self._new(self.expr.subs(sp.I, -sp.I))

    def diff(self, coord) -> "ScalarExpr":
        return differentiate(self, coord)

    def subs_chart(self, chart, mapping: dict) -> "ScalarExpr":
        """Composition: replace this chart's symbols by scalars on ``chart``."""
        sub = {}
        for sym, val in mapping.items():
            if sym not in self.chart.symbols:
                raise ChartMismatchError(f"'{sym}' is not a coordinate of {self.chart.name}")
            sub[sym] = val.expr if isinstance(val, ScalarExpr) else sp.sympify(val)
        return ScalarExpr(self.expr.subs(sub, simultaneous=True), chart)


# ---------------------------------------------------------------------------
# differentiation


def pdiff(expr: sp.Expr, sym: sp.Symbol) -> sp.Expr:
    """Partial derivative of a raw expression by one coordinate symbol.

    The one derivative kernel of the package: every tensor operation
    differentiates through it.  When ``sym`` is not a free symbol of
    ``expr`` the answer is ``S.Zero`` without calling sympy.  The skip is
    exact: coordinates are plain symbols and the ``sin``/``cos``/``exp``
    atoms only contain coordinates, so an expression without ``sym`` does
    not depend on it, and ``sympy.diff`` would return the same ``S.Zero``.
    Frame sections and many structure entries are constants, so most
    derivatives the tensor layer asks for take this branch.
    """
    if sym not in expr.free_symbols:
        return sp.S.Zero
    return sp.diff(expr, sym)


def differentiate(e: ScalarExpr, coord) -> ScalarExpr:
    """Partial derivative with respect to one chart coordinate.

    ``coord`` may be a coordinate name or sympy symbol; it must belong to the
    expression's chart.
    """
    sym = e.chart.symbol(coord)
    return ScalarExpr(pdiff(e.expr, sym), e.chart)


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

    ``Proved`` when the canonical form is literally 0, or when it has
    sin/cos atoms and its numerator reduces to 0 under :func:`trig_reduce`.
    A denominator that reduces to 0 raises :class:`ExprError`.  Otherwise the
    expression is evaluated at ``policy.samples`` random rational points:
    rational expressions must vanish exactly, transcendental ones within
    ``policy.tol``.  Any other value yields ``Failed`` with a witness.
    Sample points that hit a pole are redrawn (bounded retries).
    """
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
