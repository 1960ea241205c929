"""Charts, tensor fields and exterior/Lie/Riemannian calculus.

Conventions follow Cartan throughout (no 1/(k+1) factors):

    (a ^ b)(X, Y)  = a(X) b(Y) - a(Y) b(X)
    da(X, Y)       = X a(Y) - Y a(X) - a([X, Y])
    dw(X, Y, U)    = X w(Y,U) - Y w(X,U) + U w(X,Y)
                     - w([X,Y],U) + w([X,U],Y) - w([Y,U],X)

All fields are stored in coordinate-frame components and are immutable after
construction.  Every tensor class (and :class:`ggwb.courant.BigEndo`) is one
core, :class:`_Components`: a nested tuple of ScalarExpr of a fixed shape.
The core defines the elementwise algebra, the matrix product, the evaluation
of a covariant tensor on vectors, ``is_syntactic_zero`` and ``repr`` once.

The package has one algebra path.  Every sum over indices, including every
matrix product, transpose, block assembly, defect matrix and determinant,
goes through :func:`contract`, written in index notation:
``contract("ij,i,j->", g, X, Y)`` is g(X, Y), ``"i,ij->j"`` contracts one
slot, ``"ij,j->i"`` applies an endomorphism, ``"ki,kj->ij"`` is the product
A^T B.  It skips terms with a zero factor, multiplies and sums in the
rational function field that holds every entry of every operand (the chart
coordinates and the atom generators of :mod:`ggwb.symexpr`), and returns
ScalarExpr entries, already canonical.  An empty sum is the chart's one zero
scalar, and a contraction with an all-zero core array is all zeros before
any field work.  :class:`MetricField` takes its
determinant and its adjugate inverse as Leibniz contractions (:func:`_det`).

Every partial derivative goes through :func:`ggwb.symexpr.pdiff`, the chain
rule in the field.  Brackets, exterior, Lie and covariant derivatives take
the derivative array of each field once (:func:`_partials`), a core array
whose field elements :func:`contract` embeds once, and contract it.

Charts are global (R^n-like); compact factors are represented by periodic
or parametric coordinate expressions on a single chart, with sampling ranges
keeping random points away from chart boundaries.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from fractions import Fraction
from typing import Optional, Sequence, Union

import sympy as sp
from sympy.polys.fields import FracElement

from .errors import ChartMismatchError, ExprError, SingularMetricError
from .symexpr import (
    _RATIONALS,
    ScalarExpr,
    _constant,
    _embed,
    _field,
    _join,
    _sum_over,
    _ring,
    evaluate,
    _POLE,
    pdiff,
)

Scalarish = Union[ScalarExpr, int, Fraction, str]


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise ExprError(f"expected a rational value, got {v!r}")


class ChartManifold:
    """A named global coordinate chart of dimension n >= 1.

    ``ranges`` restricts random sampling per coordinate (rational bounds),
    used for parametric charts whose expressions are only valid inside a box
    (angles on a sphere chart, say).  ``base_point`` is the distinguished
    rational point where nondegeneracy conditions are certified.
    """

    __slots__ = ("name", "coords", "symbols", "ranges", "_base", "_zero")

    def __init__(
        self,
        name: str,
        coords: Sequence[str],
        ranges: Optional[dict] = None,
        base_point: Optional[dict] = None,
    ):
        coords = tuple(coords)
        if len(coords) < 1:
            raise ExprError("chart dimension must be >= 1")
        if len(set(coords)) != len(coords):
            raise ExprError(f"chart '{name}' has repeated coordinates {coords}")
        self.name = name
        self.coords = coords
        # plain symbols: assumption-free construction keeps sympy's fact
        # engine out of every arithmetic operation; all coordinates are
        # real-valued by the engine's semantics (complex scalars enter only
        # through the constant I).
        self.symbols = tuple(sp.Symbol(c) for c in coords)
        self.ranges = {}
        for c, (lo, hi) in (ranges or {}).items():
            if c not in coords:
                raise ExprError(f"range for unknown coordinate '{c}'")
            lo, hi = _frac(lo), _frac(hi)
            if not lo < hi:
                raise ExprError(f"empty sampling range for '{c}'")
            self.ranges[c] = (lo, hi)
        base = {}
        for i, c in enumerate(coords):
            if base_point and c in base_point:
                base[c] = _frac(base_point[c])
            elif c in self.ranges:
                lo, hi = self.ranges[c]
                base[c] = lo + (hi - lo) * Fraction(i + 3, 2 * len(coords) + 7)
            else:
                base[c] = Fraction(2 * i + 3, 7)
        self._base = base
        self._zero = None

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, ChartManifold)
            and self.name == other.name
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.name, self.coords))

    def __repr__(self):
        return f"ChartManifold({self.name}: {', '.join(self.coords)})"

    def symbol(self, coord) -> sp.Symbol:
        if isinstance(coord, sp.Symbol):
            if coord in self.symbols:
                return coord
            raise ChartMismatchError(f"'{coord}' is not a coordinate of chart '{self.name}'")
        try:
            return self.symbols[self.coords.index(coord)]
        except ValueError:
            raise ChartMismatchError(
                f"'{coord}' is not a coordinate of chart '{self.name}'"
            ) from None

    def scalar(self, value: Scalarish) -> ScalarExpr:
        return ScalarExpr(value, self)

    @property
    def zero(self) -> ScalarExpr:
        """The chart's one interned zero scalar, the value of every zero
        that arithmetic or a contraction computes on the chart."""
        if self._zero is None:
            self._zero = self.scalar(0)
        return self._zero

    @property
    def one(self) -> ScalarExpr:
        return self.scalar(1)

    def base_point(self) -> dict:
        return dict(self._base)

    def sample_point(self, rng: random.Random) -> dict:
        pt = {}
        for c in self.coords:
            if c in self.ranges:
                lo, hi = self.ranges[c]
                pt[c] = lo + (hi - lo) * Fraction(rng.randint(1, 193), 194)
            else:
                pt[c] = Fraction(rng.randint(-97, 97), rng.randint(1, 97))
        return pt

    def product_with_line(self, t: str = "t") -> "ChartManifold":
        """Chart of M x R with the extra coordinate appended last."""
        if t in self.coords:
            raise ExprError(f"symbol '{t}' already used by chart '{self.name}'")
        ranges = {c: rng for c, rng in self.ranges.items()}
        base = dict(self._base)
        return ChartManifold(f"{self.name}x{t}", self.coords + (t,), ranges, base)


# ---------------------------------------------------------------------------
# the component-array core and the one contraction


def _same_chart(*objs):
    chart = objs[0].chart
    for o in objs[1:]:
        if o.chart != chart:
            raise ChartMismatchError(
                f"fields on charts '{chart.name}' and '{o.chart.name}' cannot be combined"
            )
    return chart


def _S(chart, v) -> ScalarExpr:
    """A component value as a scalar on ``chart`` (checked unless it is one)."""
    if isinstance(v, ScalarExpr) and (v.chart is chart or v.chart == chart):
        return v
    return ScalarExpr(v, chart)


def _wrap(chart, comps, shape, kind: str) -> tuple:
    """Nested tuples of ScalarExpr of exactly ``shape``."""
    if not shape:
        return _S(chart, comps)
    try:
        comps = tuple(comps)
    except TypeError:
        comps = ()
    if len(comps) != shape[0]:
        raise ExprError(f"{kind} needs a {'x'.join(map(str, shape))} component array")
    return tuple(_wrap(chart, c, shape[1:], kind) for c in comps)


def _zipmap(f, *arrays):
    """f applied entrywise to equally shaped nested arrays."""
    if not isinstance(arrays[0], (list, tuple)):
        return f(*arrays)
    return [_zipmap(f, *parts) for parts in zip(*arrays)]


def _nest(flat: list, shape: list):
    if not shape:
        return flat[0]
    step = len(flat) // shape[0]
    return [_nest(flat[k * step:(k + 1) * step], shape[1:]) for k in range(shape[0])]


def contract(spec: str, *operands):
    """Sum of products of component arrays over repeated indices.

    The one contraction path of the package, in index notation:
    ``"ij,i,j->"`` evaluates a 2-tensor on two vectors, ``"i,ij->j"``
    contracts one slot, ``"ij,j->i"`` applies an endomorphism and
    ``"i,j->ij"`` is an outer product.  An operand is a tensor field or a
    nested sequence of ScalarExpr, rational numbers or grammar expressions.
    Each term multiplies one entry per operand from left to right, in
    operand order; terms with a zero factor are skipped.  Products and sums
    are taken in the one field that holds every entry; the result is a
    ScalarExpr when nothing follows ``->`` and nested lists of ScalarExpr
    otherwise.  An entry where no term survives is the chart's one zero,
    and an all-zero core array operand makes every entry zero at once.
    """
    ins, out = spec.split("->")
    ins = ins.split(",")
    if len(ins) != len(operands):
        raise ExprError(f"contract '{spec}' takes {len(ins)} operands, got {len(operands)}")
    fields = [o for o in operands if isinstance(o, _Components)]
    chart = _same_chart(*fields) if fields else next(
        (e.chart for e in _flatten(operands) if isinstance(e, ScalarExpr)), None)
    if chart is None:
        raise ExprError(f"contract '{spec}' has no operand on a chart")
    dims = {}
    for idx, arr in zip(ins, operands):
        arr = arr.components if isinstance(arr, _Components) else arr
        for letter in idx:
            if dims.setdefault(letter, len(arr)) != len(arr):
                raise ExprError(f"index '{letter}' of '{spec}' has two sizes")
            arr = arr[0]
    shape = [dims[c] for c in out]
    zero = chart.zero
    if any(o.is_syntactic_zero for o in fields):
        return _nest([zero] * math.prod(shape), shape)
    prepared = [o._prepared() if isinstance(o, _Components) else _prepare(o, chart)
                for o in operands]
    K = functools.reduce(_join, (F for _, F in prepared), _field(chart.symbols))
    arrays = [a if F is K else _elements(a, K) for a, F in prepared]
    summed = [c for c in dict.fromkeys("".join(ins)) if c not in out]
    letters = list(out) + summed
    slots = [[letters.index(c) for c in idx] for idx in ins]
    chunk = math.prod(dims[c] for c in summed)
    one = K.ring.one
    flat, terms = [], []
    for count, ix in enumerate(itertools.product(*(range(dims[c]) for c in letters)), 1):
        factors = []
        for arr, slot in zip(arrays, slots):
            for s in slot:
                arr = arr[ix[s]]
            if not arr:
                break
            factors.append(arr)
        else:
            terms.append(factors)
        if count % chunk == 0:
            flat.append(_ring(chart, _field_sum(K, one, terms)) if terms else zero)
            terms = []
    return _nest(flat, shape)


def _prepare(array, chart) -> tuple:
    """(nested lists of field elements, their field: the chart's, holding
    every element) for an array of ScalarExpr on ``chart``, rational numbers
    and grammar expressions."""
    fields = set()

    def walk(a):
        t = type(a)
        if t is list or t is tuple:
            return [walk(e) for e in a]
        if t is int or t is not ScalarExpr and isinstance(a, _RATIONALS):
            return a
        rf = a.rf if t is ScalarExpr and a.chart is chart else _S(chart, a).rf
        fields.add(rf.field)
        return rf

    out = walk(array)
    K = functools.reduce(_join, fields, _field(chart.symbols))
    return _elements(out, K), K


def _elements(array, K) -> list:
    """The entries of a nested list as elements of the field K."""
    if type(array) is list:
        return [_elements(e, K) for e in array]
    if type(array) is FracElement:
        return _embed(array, K)
    return _constant(K, array)


def _field_sum(K, one, terms):
    """Sum of products of field elements, each product a list of factors.
    Numerators and denominators are multiplied as polynomials; the
    numerators over one denominator are added, and each denominator class
    is reduced once."""
    groups = {}
    for factors in terms:
        num, den = factors[0].numer, factors[0].denom
        for f in factors[1:]:
            num = num * f.numer
            if f.denom != one:
                den = den * f.denom
        groups[den] = groups[den] + num if den in groups else num
    return _sum_over(K, groups) if groups else K.zero


def _sum(*terms) -> ScalarExpr:
    """Sum of contraction results, signed and scaled by the caller."""
    return functools.reduce(operator.add, terms)


def _partials(t) -> "_Array":
    """The derivative array of a field's (or a scalar's) components: one
    more slot, last, holding d_k of the entry.  A core array, so every
    contraction of it reuses one embedding of its entries in their field."""
    chart, syms = t.chart, t.chart.symbols

    def row(e):
        return [e] * len(syms) if e.is_syntactic_zero else [pdiff(e, s) for s in syms]

    if isinstance(t, ScalarExpr):
        return _Array(chart, row(t), (len(syms),))
    return _Array(chart, _zipmap(row, t.components), t.shape + (len(syms),))


def _det(rows) -> ScalarExpr:
    """Determinant of a small square array of scalars: the Leibniz sum
    eps_{i_1..i_m} A_{1 i_1} ... A_{m i_m}, contracted like any other
    index sum."""
    m = len(rows)
    idx = "abcdefgh"[:m]
    return contract(f"{idx},{','.join(idx)}->", _levi_civita(m), *rows)


@functools.lru_cache(maxsize=16)
def _levi_civita(m: int, prefix: tuple = ()):
    """eps as nested tuples: the sign of a permutation, 0 on a repeat."""
    if len(prefix) < m:
        return tuple(_levi_civita(m, prefix + (i,)) for i in range(m))
    if len(set(prefix)) < m:
        return 0
    return (-1) ** sum(a > b for a, b in itertools.combinations(prefix, 2))


class _Components:
    """The one core of every tensor field: a component array in the
    coordinate frame.

    ``components`` are nested tuples of ScalarExpr of ``shape``; their
    field elements are kept for :func:`contract`.  The elementwise algebra
    (``+ - neg`` and scalar ``*``), ``conjugate``, ``@`` (matrix product),
    the defect lists of skewness and isometry identities, the evaluation of
    a covariant tensor on vectors and ``repr`` are defined here once;
    subclasses fix the shape and add their own invariants.
    """

    __slots__ = ("chart", "components", "shape", "_prepared_cache", "_zero_cache")
    _kind = "tensor"
    _rank = 2

    def __init__(self, chart: ChartManifold, components):
        self._init(chart, components, self._shape(chart))

    def _init(self, chart, components, shape):
        self.shape = shape
        self.chart = chart
        self.components = _wrap(chart, components, shape, self._kind)
        self._prepared_cache = None
        self._zero_cache = None

    @classmethod
    def _shape(cls, chart) -> tuple:
        return (chart.dim,) * cls._rank

    @property
    def matrix(self):
        return self.components

    def _prepared(self) -> tuple:
        if self._prepared_cache is None:
            self._prepared_cache = _prepare(self.components, self.chart)
        return self._prepared_cache

    def _like(self, components):
        return type(self)(self.chart, components)

    def _zip(self, f, other):
        _same_chart(self, other)
        if other.shape != self.shape:
            raise ExprError(f"cannot combine a {self._kind} with a {other._kind}")
        return self._like(_zipmap(f, self.components, other.components))

    def __add__(self, other):
        return self._zip(operator.add, other)

    def __sub__(self, other):
        return self._zip(operator.sub, other)

    def __neg__(self):
        return self._like(_zipmap(operator.neg, self.components))

    def __mul__(self, f: Scalarish):
        f = self.chart.scalar(f)
        return self._like(_zipmap(lambda a: a * f, self.components))

    __rmul__ = __mul__

    def __matmul__(self, other):
        return self._like(contract("ij,jk->ik", self, other))

    def conjugate(self):
        return self._like(_zipmap(ScalarExpr.conjugate, self.components))

    # -- defect lists of matrix identities, row-major, for the zero test

    def skew_defect(self, form) -> list[ScalarExpr]:
        """Entries of A^T B + B A: zero when A is skew for the bilinear form B."""
        return self._defect(contract("ki,kj->ij", self, form), contract("ik,kj->ij", form, self))

    def isometry_defect(self, form, *extra) -> list[ScalarExpr]:
        """Entries of A^T B A - B + sum(extra): zero when A preserves the
        bilinear form B up to the ``extra`` arrays."""
        grid = form.components if isinstance(form, _Components) else form
        return self._defect(
            contract("ki,kl,lj->ij", self, form, self), _zipmap(operator.neg, grid), *extra
        )

    def _defect(self, *terms) -> list[ScalarExpr]:
        return list(_flatten(self._like(_zipmap(_sum, *terms)).components))

    def __call__(self, *vectors) -> ScalarExpr:
        """A covariant tensor evaluated on vectors, one per slot."""
        idx = "ijk"[: len(self.shape)]
        return contract(",".join([idx, *idx]) + "->", self, *vectors)

    @property
    def is_syntactic_zero(self) -> bool:
        if self._zero_cache is None:
            self._zero_cache = all(e.is_syntactic_zero for e in _flatten(self.components))
        return self._zero_cache

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.chart == other.chart
            and self.components == other.components
        )

    def __hash__(self):
        return hash((type(self).__name__, self.chart, self.components))

    def __repr__(self):
        return f"{type(self).__name__}({_zipmap(str, self.components)})"


class _Array(_Components):
    """A core array of any shape: derivative arrays and the section
    arrays of :func:`ggwb.courant.bracket_table`."""

    _kind = "component array"

    def __init__(self, chart: ChartManifold, components, shape: tuple):
        self._init(chart, components, tuple(shape))

    def _like(self, components):
        return _Array(self.chart, components, self.shape)


def _flatten(array):
    if isinstance(array, (list, tuple)):
        for part in array:
            yield from _flatten(part)
    else:
        yield array


# ---------------------------------------------------------------------------
# fields


class VectorField(_Components):
    """Contravariant components X^i."""

    _kind = "vector field"
    _rank = 1

    def apply(self, f: ScalarExpr) -> ScalarExpr:
        """Directional derivative X(f)."""
        if f.chart != self.chart:
            raise ChartMismatchError("scalar lives on a different chart")
        return contract("i,i->", self, _partials(f))


class OneForm(_Components):
    """Covariant components a_i."""

    _kind = "1-form"
    _rank = 1

    def compose_endo(self, F: "EndoTM") -> "OneForm":
        """a o F, i.e. (a o F)(X) = a(FX)."""
        return OneForm(self.chart, contract("i,ij->j", self, F))


class TwoForm(_Components):
    """Antisymmetric matrix w_ij = w(e_i, e_j); antisymmetry is enforced."""

    _kind = "2-form"

    def __init__(self, chart, matrix):
        super().__init__(chart, matrix)
        grid = self.components
        for i in range(chart.dim):
            for j in range(i, chart.dim):
                if not (grid[i][j] + grid[j][i]).is_syntactic_zero:
                    raise ExprError(
                        f"2-form matrix is not antisymmetric at ({i},{j})"
                    )


class ThreeForm(_Components):
    """Fully antisymmetric w_ijk; highest degree the engine needs."""

    _kind = "3-form"
    _rank = 3


class EndoTM(_Components):
    """Mixed tensor F^i_j acting on vectors by F(X)^i = F^i_j X^j."""

    _kind = "endomorphism"

    @staticmethod
    def identity(chart) -> "EndoTM":
        n = chart.dim
        return EndoTM(chart, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __call__(self, X: VectorField) -> VectorField:
        return VectorField(self.chart, contract("ij,j->i", self, X))


class MetricField(_Components):
    """Symmetric 2-tensor, nondegenerate at the chart base point."""

    __slots__ = ("_determinant", "_inverse", "_connection")
    _kind = "metric"

    def __init__(self, chart, matrix):
        super().__init__(chart, matrix)
        grid = self.components
        for i in range(chart.dim):
            for j in range(i + 1, chart.dim):
                if not (grid[i][j] - grid[j][i]).is_syntactic_zero:
                    raise ExprError(f"metric matrix is not symmetric at ({i},{j})")
        self._inverse = None
        self._connection = None
        self._determinant = _det(grid)
        v = evaluate(self._determinant, self.chart.base_point())
        if v is _POLE or (v == 0 if not isinstance(v, complex) else abs(v) <= 1e-9):
            raise SingularMetricError(
                f"metric is degenerate at the base point of chart '{self.chart.name}'"
            )

    def inverse_matrix(self):
        """The adjugate over the determinant, each cofactor a Leibniz sum."""
        if self._inverse is None:
            # the constructor proved the determinant nonzero at the base point
            d, rows, n = self._determinant, self.components, self.chart.dim
            inv = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    minor = [[rows[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
                    cof = _det(minor) if minor else self.chart.one
                    inv[i][j] = inv[j][i] = cof * (-1) ** (i + j) / d
            self._inverse = tuple(tuple(row) for row in inv)
        return self._inverse

    def connection(self) -> "Connection":
        if self._connection is None:
            self._connection = Connection(self)
        return self._connection


class _SymBilinear(_Components):
    """Symmetric 2-tensor that need not be nondegenerate (e.g. L_X gamma)."""

    _kind = "symmetric 2-tensor"


# ---------------------------------------------------------------------------
# frames and constant fields


def frame(chart: ChartManifold) -> list[VectorField]:
    n = chart.dim
    return [VectorField(chart, [1 if i == j else 0 for j in range(n)]) for i in range(n)]


def coframe(chart: ChartManifold) -> list[OneForm]:
    n = chart.dim
    return [OneForm(chart, [1 if i == j else 0 for j in range(n)]) for i in range(n)]


def zero_vector(chart: ChartManifold) -> VectorField:
    return VectorField(chart, [0] * chart.dim)


def zero_oneform(chart: ChartManifold) -> OneForm:
    return OneForm(chart, [0] * chart.dim)


def zero_twoform(chart: ChartManifold) -> TwoForm:
    return TwoForm(chart, [[0] * chart.dim for _ in range(chart.dim)])


def euclidean_metric(chart: ChartManifold) -> MetricField:
    n = chart.dim
    return MetricField(chart, [[1 if i == j else 0 for j in range(n)] for i in range(n)])


def tensor_oneform_vector(xi: OneForm, Z: VectorField) -> EndoTM:
    """xi (x) Z as an endomorphism: X -> xi(X) Z."""
    return EndoTM(xi.chart, contract("i,j->ij", Z, xi))


# ---------------------------------------------------------------------------
# exterior and Lie calculus


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y]^k = X^i d_i Y^k - Y^i d_i X^k."""
    chart = _same_chart(X, Y)
    return VectorField(chart, _zipmap(
        lambda p, q: _sum(p, -q),
        contract("ki,i->k", _partials(Y), X),
        contract("ki,i->k", _partials(X), Y),
    ))


def ext_d(w: Union[ScalarExpr, OneForm, TwoForm]):
    """Exterior derivative in the Cartan convention; d o d = 0."""
    if isinstance(w, ScalarExpr):
        return OneForm(w.chart, _partials(w).components)
    if isinstance(w, OneForm):
        r = range(w.chart.dim)
        dw = _partials(w).components  # dw[j][i] = d_i w_j
        return TwoForm(w.chart, [[dw[j][i] - dw[i][j] for j in r] for i in r])
    if isinstance(w, TwoForm):
        r = range(w.chart.dim)
        dw = _partials(w).components  # dw[j][k][i] = d_i w_jk
        cube = [
            [[dw[j][k][i] - dw[i][k][j] + dw[i][j][k] for k in r] for j in r] for i in r
        ]
        return ThreeForm(w.chart, cube)
    raise ExprError(f"ext_d is defined for scalars, 1-forms and 2-forms, not {type(w).__name__}")


def wedge(a: OneForm, b: OneForm) -> TwoForm:
    """(a ^ b)(X, Y) = a(X) b(Y) - a(Y) b(X)."""
    ab = contract("i,j->ij", a, b)
    r = range(a.chart.dim)
    return TwoForm(a.chart, [[ab[i][j] - ab[j][i] for j in r] for i in r])


def interior(X: VectorField, w: Union[OneForm, TwoForm, ThreeForm]):
    """i(X)w: contraction in the first slot."""
    chart = _same_chart(X, w)
    if isinstance(w, OneForm):
        return w(X)
    if isinstance(w, TwoForm):
        return OneForm(chart, contract("i,ij->j", X, w))
    if isinstance(w, ThreeForm):
        return TwoForm(chart, contract("i,ijk->jk", X, w))
    raise ExprError(f"interior product undefined for {type(w).__name__}")


def lie_derivative(X: VectorField, T):
    """L_X T for scalars, vectors, 1-/2-forms, endomorphisms and metrics."""
    if isinstance(T, ScalarExpr):
        return X.apply(T)
    chart = _same_chart(X, T)
    if isinstance(T, VectorField):
        return lie_bracket(X, T)
    dX, dT = _partials(X), _partials(T)
    if isinstance(T, OneForm):
        # (L_X a)_j = X^i d_i a_j + a_i d_j X^i
        return OneForm(chart, _zipmap(
            _sum, contract("i,ji->j", X, dT), contract("i,ij->j", T, dX)
        ))
    if isinstance(T, (TwoForm, MetricField)):
        # (L_X m)_jk = X^i d_i m_jk + m_ik d_j X^i + m_ji d_k X^i
        grid = _zipmap(
            _sum,
            contract("i,jki->jk", X, dT),
            contract("ik,ij->jk", T, dX),
            contract("ji,ik->jk", T, dX),
        )
        return TwoForm(chart, grid) if isinstance(T, TwoForm) else _SymBilinear(chart, grid)
    if isinstance(T, EndoTM):
        # (L_X F)^i_j = X^k d_k F^i_j - F^k_j d_k X^i + F^i_k d_j X^k
        return EndoTM(chart, _zipmap(
            lambda p, q, r: _sum(p, -q, r),
            contract("k,ijk->ij", X, dT),
            contract("kj,ik->ij", T, dX),
            contract("ik,kj->ij", T, dX),
        ))
    raise ExprError(f"lie_derivative undefined for {type(T).__name__}")


# ---------------------------------------------------------------------------
# musical isomorphisms


def musical_flat(s, X: VectorField) -> OneForm:
    """(flat_s X)(Y) = s(X, Y) for a metric, 2-form or symmetric tensor s."""
    return OneForm(s.chart, contract("i,ij->j", X, s))


def musical_sharp(gamma: MetricField, a: OneForm) -> VectorField:
    """Inverse of flat_gamma."""
    chart = _same_chart(gamma, a)
    return VectorField(chart, contract("jk,k->j", gamma.inverse_matrix(), a))


def flat_combination(psi: TwoForm, gamma: MetricField, sign: int, X: VectorField) -> OneForm:
    """flat_{psi + sign*gamma} X, the V_+/V_- embeddings' covector part."""
    if sign not in (1, -1):
        raise ExprError("sign must be +1 or -1")
    chart = _same_chart(psi, gamma, X)
    return OneForm(chart, _zipmap(
        lambda p, g: _sum(p, sign * g), contract("i,ij->j", X, psi), contract("i,ij->j", X, gamma)
    ))


# ---------------------------------------------------------------------------
# Levi-Civita connection


class Connection:
    """Levi-Civita connection of a metric; Christoffel symbols cached.

    Torsion-freeness and metric compatibility are *testable* identities, not
    assumptions; see the calculus test suite.
    """

    def __init__(self, gamma: MetricField):
        self.gamma = gamma
        self.chart = gamma.chart
        n = self.chart.dim
        dg = _partials(gamma).components  # dg[i][j][k] = d_k g_ij
        ginv = gamma.inverse_matrix()
        chr_ = [[[None] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                # Gamma^k_ij = (1/2) g^kl (d_i g_jl + d_j g_il - d_l g_ij)
                v = [dg[j][l][i] + dg[i][l][j] - dg[i][j][l] for l in range(n)]
                for k, total in enumerate(contract("kl,l->k", ginv, v)):
                    chr_[k][i][j] = chr_[k][j][i] = total / 2
        self.christoffel = tuple(tuple(tuple(plane) for plane in row) for row in chr_)

    def nabla(self, X: VectorField, T):
        """Covariant derivative of a vector field, 1-form, or endomorphism."""
        chart = _same_chart(self.gamma, X, T)
        G = self.christoffel
        if isinstance(T, VectorField):
            # X^i d_i Y^k + Gamma^k_ij X^i Y^j
            return VectorField(chart, _zipmap(
                _sum,
                contract("i,ki->k", X, _partials(T)),
                contract("kij,i,j->k", G, X, T),
            ))
        if isinstance(T, OneForm):
            # X^i d_i a_j - Gamma^k_ij X^i a_k
            return OneForm(chart, _zipmap(
                lambda p, q: _sum(p, -q),
                contract("i,ji->j", X, _partials(T)),
                contract("kij,i,k->j", G, X, T),
            ))
        if isinstance(T, EndoTM):
            # X^k d_k F^i_j + Gamma^i_km X^k F^m_j - Gamma^m_kj X^k F^i_m
            return EndoTM(chart, _zipmap(
                lambda p, q, r: _sum(p, q, -r),
                contract("k,ijk->ij", X, _partials(T)),
                contract("ikm,k,mj->ij", G, X, T),
                contract("mkj,k,im->ij", G, X, T),
            ))
        raise ExprError(f"nabla undefined for {type(T).__name__}")

    def metric_defect(self) -> list[ScalarExpr]:
        """Components of nabla gamma (all zero for Levi-Civita)."""
        n = self.chart.dim
        g, G = self.gamma, self.christoffel
        dg = _partials(g).components
        left = contract("lki,lj->kij", G, g)  # Gamma^l_ki g_lj
        right = contract("lkj,il->kij", G, g)  # Gamma^l_kj g_il
        return [
            _sum(dg[i][j][k], -left[k][i][j], -right[k][i][j])
            for k in range(n)
            for i in range(n)
            for j in range(i, n)
        ]

    def torsion(self, X: VectorField, Y: VectorField) -> VectorField:
        """nabla_X Y - nabla_Y X - [X, Y]."""
        return self.nabla(X, Y) - self.nabla(Y, X) - lie_bracket(X, Y)


def levi_civita(gamma: MetricField) -> Connection:
    return gamma.connection()


# ---------------------------------------------------------------------------
# product with a line, and lifts


def lift_vector(X: VectorField, product: ChartManifold) -> VectorField:
    return VectorField(product, [c.lift(product) for c in X.components] + [0])


def lift_oneform(a: OneForm, product: ChartManifold) -> OneForm:
    return OneForm(product, [c.lift(product) for c in a.components] + [0])


# ---------------------------------------------------------------------------
# random fields for property and oracle tests


def random_vector_field(chart: ChartManifold, rng: random.Random, degree: int = 2) -> VectorField:
    from .symexpr import random_poly

    return VectorField(chart, [random_poly(chart, rng, degree) for _ in range(chart.dim)])


def random_oneform(chart: ChartManifold, rng: random.Random, degree: int = 2) -> OneForm:
    from .symexpr import random_poly

    return OneForm(chart, [random_poly(chart, rng, degree) for _ in range(chart.dim)])
