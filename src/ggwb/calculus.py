"""Charts, tensor fields and exterior/Lie/Riemannian calculus.

Conventions follow Cartan throughout (no 1/(k+1) factors):

    (a ^ b)(X, Y)  = a(X) b(Y) - a(Y) b(X)
    da(X, Y)       = X a(Y) - Y a(X) - a([X, Y])
    dw(X, Y, U)    = X w(Y,U) - Y w(X,U) + U w(X,Y)
                     - w([X,Y],U) + w([X,U],Y) - w([Y,U],X)

All fields are stored in coordinate-frame components and are immutable after
construction.  Every partial derivative (directional derivatives, brackets,
exterior and Lie derivatives, Christoffel symbols, covariant derivatives)
goes through :func:`ggwb.symexpr.pdiff`, which skips sympy when the
component does not contain the coordinate.

Charts are global (R^n-like); compact factors are represented by periodic
or parametric coordinate expressions on a single chart, with sampling ranges
keeping random points away from chart boundaries.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Sequence, Union

import sympy as sp

from .errors import ChartMismatchError, ExprError, SingularMetricError
from .symexpr import ScalarExpr, canon, pdiff, trig_reduce_rational

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

    __slots__ = ("name", "coords", "symbols", "ranges", "_base")

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
        return self.scalar(0)

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
# fields


def _same_chart(*objs):
    chart = objs[0].chart
    for o in objs[1:]:
        if o.chart != chart:
            raise ChartMismatchError(
                f"fields on charts '{chart.name}' and '{o.chart.name}' cannot be combined"
            )
    return chart


def _S(chart, v) -> ScalarExpr:
    """Wrap a component value: ScalarExpr pass through with a chart check,
    raw sympy expressions from internal operations skip the grammar walk,
    strings and numbers get the full validated path."""
    if isinstance(v, ScalarExpr):
        return ScalarExpr(v, chart)
    if isinstance(v, sp.Basic):
        return ScalarExpr(v, chart, _trusted=True)
    return chart.scalar(v)


def _wrap_list(chart, exprs) -> tuple:
    return tuple(_S(chart, e) for e in exprs)


def _wrap_grid(chart, grid) -> tuple:
    return tuple(tuple(_S(chart, e) for e in row) for row in grid)


def _grid_exprs(grid):
    return [[e.expr for e in row] for row in grid]


class _Components:
    __slots__ = ("chart", "components")

    def __init__(self, chart: ChartManifold, components):
        self.chart = chart
        self.components = components

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.chart == other.chart
            and self.components == other.components
        )

    def __hash__(self):
        return hash((type(self).__name__, self.chart, self.components))


class VectorField(_Components):
    """Contravariant components X^i."""

    def __init__(self, chart, components: Sequence[Scalarish]):
        if len(components) != chart.dim:
            raise ExprError(
                f"vector field needs {chart.dim} components, got {len(components)}"
            )
        super().__init__(chart, tuple(_S(chart, c) for c in components))

    def __add__(self, other):
        _same_chart(self, other)
        return VectorField(self.chart, [a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        _same_chart(self, other)
        return VectorField(self.chart, [a - b for a, b in zip(self.components, other.components)])

    def __neg__(self):
        return VectorField(self.chart, [-a for a in self.components])

    def __mul__(self, f: Scalarish):
        f = self.chart.scalar(f)
        return VectorField(self.chart, [a * f for a in self.components])

    __rmul__ = __mul__

    def apply(self, f: ScalarExpr) -> ScalarExpr:
        """Directional derivative X(f)."""
        if f.chart != self.chart:
            raise ChartMismatchError("scalar lives on a different chart")
        total = sp.Integer(0)
        for comp, sym in zip(self.components, self.chart.symbols):
            total += comp.expr * pdiff(f.expr, sym)
        return _S(self.chart, total)

    def __repr__(self):
        return f"VectorField({[str(c) for c in self.components]})"


class OneForm(_Components):
    """Covariant components a_i."""

    def __init__(self, chart, components: Sequence[Scalarish]):
        if len(components) != chart.dim:
            raise ExprError(f"1-form needs {chart.dim} components, got {len(components)}")
        super().__init__(chart, tuple(_S(chart, c) for c in components))

    def __add__(self, other):
        _same_chart(self, other)
        return OneForm(self.chart, [a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        _same_chart(self, other)
        return OneForm(self.chart, [a - b for a, b in zip(self.components, other.components)])

    def __neg__(self):
        return OneForm(self.chart, [-a for a in self.components])

    def __mul__(self, f: Scalarish):
        f = self.chart.scalar(f)
        return OneForm(self.chart, [a * f for a in self.components])

    __rmul__ = __mul__

    def __call__(self, X: VectorField) -> ScalarExpr:
        _same_chart(self, X)
        total = sp.Integer(0)
        for a, x in zip(self.components, X.components):
            total += a.expr * x.expr
        return _S(self.chart, total)

    def compose_endo(self, F: "EndoTM") -> "OneForm":
        """a o F, i.e. (a o F)(X) = a(FX)."""
        _same_chart(self, F)
        n = self.chart.dim
        comps = [
            sum(self.components[i].expr * F.matrix[i][j].expr for i in range(n))
            for j in range(n)
        ]
        return OneForm(self.chart, comps)

    def __repr__(self):
        return f"OneForm({[str(c) for c in self.components]})"


class TwoForm(_Components):
    """Antisymmetric matrix w_ij = w(e_i, e_j); antisymmetry is enforced."""

    def __init__(self, chart, matrix):
        n = chart.dim
        grid = _wrap_grid(chart, matrix)
        if len(grid) != n or any(len(r) != n for r in grid):
            raise ExprError(f"2-form needs a {n}x{n} matrix")
        for i in range(n):
            for j in range(i, n):
                if not (grid[i][j] + grid[j][i]).is_syntactic_zero:
                    raise ExprError(
                        f"2-form matrix is not antisymmetric at ({i},{j})"
                    )
        super().__init__(chart, grid)

    @property
    def matrix(self):
        return self.components

    def __add__(self, other):
        _same_chart(self, other)
        return TwoForm(
            self.chart,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.components, other.components)
            ],
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TwoForm(self.chart, [[-a for a in row] for row in self.components])

    def __mul__(self, f: Scalarish):
        f = self.chart.scalar(f)
        return TwoForm(self.chart, [[a * f for a in row] for row in self.components])

    __rmul__ = __mul__

    def __call__(self, X: VectorField, Y: VectorField) -> ScalarExpr:
        _same_chart(self, X, Y)
        total = sp.Integer(0)
        for i, xi in enumerate(X.components):
            if xi.is_syntactic_zero:
                continue
            for j, yj in enumerate(Y.components):
                total += self.components[i][j].expr * xi.expr * yj.expr
        return _S(self.chart, total)

    def __repr__(self):
        return f"TwoForm({[[str(c) for c in row] for row in self.components]})"


class ThreeForm(_Components):
    """Fully antisymmetric w_ijk; highest degree the engine needs."""

    def __init__(self, chart, cube):
        n = chart.dim
        wrapped = tuple(
            tuple(tuple(_S(chart, e) for e in row) for row in plane) for plane in cube
        )
        super().__init__(chart, wrapped)
        if len(wrapped) != n or any(len(p) != n or any(len(r) != n for r in p) for p in wrapped):
            raise ExprError(f"3-form needs a {n}x{n}x{n} array")

    def __call__(self, X: VectorField, Y: VectorField, U: VectorField) -> ScalarExpr:
        _same_chart(self, X, Y, U)
        total = sp.Integer(0)
        c = self.components
        for i, xi in enumerate(X.components):
            if xi.is_syntactic_zero:
                continue
            for j, yj in enumerate(Y.components):
                if yj.is_syntactic_zero:
                    continue
                for k, uk in enumerate(U.components):
                    total += c[i][j][k].expr * xi.expr * yj.expr * uk.expr
        return ScalarExpr(total, self.chart)

    @property
    def is_syntactic_zero(self) -> bool:
        return all(
            e.is_syntactic_zero for plane in self.components for row in plane for e in row
        )


class EndoTM(_Components):
    """Mixed tensor F^i_j acting on vectors by F(X)^i = F^i_j X^j."""

    def __init__(self, chart, matrix):
        n = chart.dim
        grid = _wrap_grid(chart, matrix)
        if len(grid) != n or any(len(r) != n for r in grid):
            raise ExprError(f"endomorphism needs a {n}x{n} matrix")
        super().__init__(chart, grid)

    @property
    def matrix(self):
        return self.components

    @staticmethod
    def identity(chart) -> "EndoTM":
        n = chart.dim
        return EndoTM(chart, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __add__(self, other):
        _same_chart(self, other)
        return EndoTM(
            self.chart,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.matrix, other.matrix)],
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return EndoTM(self.chart, [[-a for a in row] for row in self.matrix])

    def __mul__(self, f: Scalarish):
        f = self.chart.scalar(f)
        return EndoTM(self.chart, [[a * f for a in row] for row in self.matrix])

    __rmul__ = __mul__

    def __matmul__(self, other: "EndoTM") -> "EndoTM":
        _same_chart(self, other)
        a = sp.Matrix(_grid_exprs(self.matrix))
        b = sp.Matrix(_grid_exprs(other.matrix))
        return EndoTM(self.chart, (a * b).tolist())

    def __call__(self, X: VectorField) -> VectorField:
        _same_chart(self, X)
        n = self.chart.dim
        comps = [
            sum(self.matrix[i][j].expr * X.components[j].expr for j in range(n))
            for i in range(n)
        ]
        return VectorField(self.chart, comps)

    def transpose(self) -> "EndoTM":
        n = self.chart.dim
        return EndoTM(self.chart, [[self.matrix[j][i] for j in range(n)] for i in range(n)])

    def conjugate(self) -> "EndoTM":
        return EndoTM(self.chart, [[a.conjugate() for a in row] for row in self.matrix])

    def __repr__(self):
        return f"EndoTM({[[str(c) for c in row] for row in self.matrix]})"


class MetricField(_Components):
    """Symmetric 2-tensor, nondegenerate at the chart base point."""

    __slots__ = ("_inverse", "_connection")

    def __init__(self, chart, matrix, _skip_nondegeneracy: bool = False):
        n = chart.dim
        grid = _wrap_grid(chart, matrix)
        if len(grid) != n or any(len(r) != n for r in grid):
            raise ExprError(f"metric needs a {n}x{n} matrix")
        for i in range(n):
            for j in range(i + 1, n):
                if not (grid[i][j] - grid[j][i]).is_syntactic_zero:
                    raise ExprError(f"metric matrix is not symmetric at ({i},{j})")
        super().__init__(chart, grid)
        self._inverse = None
        self._connection = None
        if not _skip_nondegeneracy:
            self._check_nondegenerate()

    def _check_nondegenerate(self):
        det = sp.Matrix(_grid_exprs(self.components)).det()
        d = ScalarExpr(det, self.chart)
        from .symexpr import evaluate, _POLE  # local import to avoid cycle noise

        v = evaluate(d, self.chart.base_point())
        bad = v is _POLE or (v == 0 if not isinstance(v, complex) else abs(v) <= 1e-9)
        if bad:
            raise SingularMetricError(
                f"metric is degenerate at the base point of chart '{self.chart.name}'"
            )

    @property
    def matrix(self):
        return self.components

    def __call__(self, X: VectorField, Y: VectorField) -> ScalarExpr:
        _same_chart(self, X, Y)
        total = sp.Integer(0)
        for i, xi in enumerate(X.components):
            for j, yj in enumerate(Y.components):
                total += self.components[i][j].expr * xi.expr * yj.expr
        return ScalarExpr(total, self.chart)

    def inverse_matrix(self):
        if self._inverse is None:
            m = sp.Matrix(_grid_exprs(self.components))
            try:
                inv = m.inv(method="ADJ")
            except Exception as exc:  # singular or non-invertible symbolically
                raise SingularMetricError(f"metric not symbolically invertible: {exc}") from exc
            self._inverse = _wrap_grid(self.chart, inv.tolist())
        return self._inverse

    def connection(self) -> "Connection":
        if self._connection is None:
            self._connection = Connection(self)
        return self._connection

    def __repr__(self):
        return f"MetricField({[[str(c) for c in row] for row in self.matrix]})"


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
    _same_chart(xi, Z)
    n = xi.chart.dim
    return EndoTM(
        xi.chart,
        [[Z.components[i] * xi.components[j] for j in range(n)] for i in range(n)],
    )


# ---------------------------------------------------------------------------
# exterior and Lie calculus


def tidy_trig(chart: ChartManifold, x) -> ScalarExpr:
    """Pick the smaller of x and its Pythagorean normal form.

    Used when *constructing* objects on parametric (angle) charts, where raw
    pullbacks swell.  The candidate is :func:`trig_reduce_rational` (sum and
    multiple-angle expansion, then reduction modulo sin^2 + cos^2 - 1 of the
    numerator and the denominator), an exact rewrite that stays inside the
    expression grammar; it replaces x only when ``count_ops`` shrinks.
    """
    e = x.expr if isinstance(x, ScalarExpr) else sp.sympify(x)
    if e.has(sp.sin, sp.cos):
        t = trig_reduce_rational(e)
        if sp.count_ops(t) < sp.count_ops(e):
            e = t
    return _S(chart, e)


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y]^k = X^i d_i Y^k - Y^i d_i X^k."""
    chart = _same_chart(X, Y)
    syms = chart.symbols
    comps = []
    for k in range(chart.dim):
        total = sp.Integer(0)
        for i in range(chart.dim):
            total += X.components[i].expr * pdiff(Y.components[k].expr, syms[i])
            total -= Y.components[i].expr * pdiff(X.components[k].expr, syms[i])
        comps.append(total)
    return VectorField(chart, comps)


def ext_d(w: Union[ScalarExpr, OneForm, TwoForm]):
    """Exterior derivative in the Cartan convention; d o d = 0."""
    if isinstance(w, ScalarExpr):
        chart = w.chart
        return OneForm(chart, [w.diff(c) for c in chart.coords])
    if isinstance(w, OneForm):
        chart = w.chart
        syms = chart.symbols
        n = chart.dim
        grid = [
            [
                pdiff(w.components[j].expr, syms[i]) - pdiff(w.components[i].expr, syms[j])
                for j in range(n)
            ]
            for i in range(n)
        ]
        return TwoForm(chart, grid)
    if isinstance(w, TwoForm):
        chart = w.chart
        syms = chart.symbols
        n = chart.dim
        m = [[e.expr for e in row] for row in w.components]
        cube = [
            [
                [
                    pdiff(m[j][k], syms[i]) - pdiff(m[i][k], syms[j]) + pdiff(m[i][j], syms[k])
                    for k in range(n)
                ]
                for j in range(n)
            ]
            for i in range(n)
        ]
        return ThreeForm(chart, cube)
    raise ExprError(f"ext_d is defined for scalars, 1-forms and 2-forms, not {type(w).__name__}")


def wedge(a: OneForm, b: OneForm) -> TwoForm:
    """(a ^ b)(X, Y) = a(X) b(Y) - a(Y) b(X)."""
    chart = _same_chart(a, b)
    n = chart.dim
    grid = [
        [
            a.components[i].expr * b.components[j].expr
            - a.components[j].expr * b.components[i].expr
            for j in range(n)
        ]
        for i in range(n)
    ]
    return TwoForm(chart, grid)


def interior(X: VectorField, w: Union[OneForm, TwoForm, ThreeForm]):
    """i(X)w: contraction in the first slot."""
    chart = _same_chart(X, w)
    n = chart.dim
    if isinstance(w, OneForm):
        return w(X)
    if isinstance(w, TwoForm):
        comps = [
            sum((X.components[i].expr * w.components[i][j].expr for i in range(n)), sp.Integer(0))
            for j in range(n)
        ]
        return OneForm(chart, comps)
    if isinstance(w, ThreeForm):
        grid = [
            [
                sum(
                    (X.components[i].expr * w.components[i][j][k].expr for i in range(n)),
                    sp.Integer(0),
                )
                for k in range(n)
            ]
            for j in range(n)
        ]
        return TwoForm(chart, grid)
    raise ExprError(f"interior product undefined for {type(w).__name__}")


def lie_derivative(X: VectorField, T):
    """L_X T for scalars, vectors, 1-/2-forms, endomorphisms and metrics."""
    if isinstance(T, ScalarExpr):
        return X.apply(T)
    chart = _same_chart(X, T)
    syms = chart.symbols
    n = chart.dim
    Xc = [c.expr for c in X.components]
    if isinstance(T, VectorField):
        return lie_bracket(X, T)
    if isinstance(T, OneForm):
        a = [c.expr for c in T.components]
        comps = [
            sum(Xc[i] * pdiff(a[j], syms[i]) + a[i] * pdiff(Xc[i], syms[j]) for i in range(n))
            for j in range(n)
        ]
        return OneForm(chart, comps)
    if isinstance(T, (TwoForm, MetricField)):
        m = [[e.expr for e in row] for row in T.components]
        grid = [
            [
                sum(
                    Xc[i] * pdiff(m[j][k], syms[i])
                    + m[i][k] * pdiff(Xc[i], syms[j])
                    + m[j][i] * pdiff(Xc[i], syms[k])
                    for i in range(n)
                )
                for k in range(n)
            ]
            for j in range(n)
        ]
        return TwoForm(chart, grid) if isinstance(T, TwoForm) else _lie_metric(chart, grid)
    if isinstance(T, EndoTM):
        # (L_X F)^i_j = X^k d_k F^i_j - F^k_j d_k X^i + F^i_k d_j X^k
        f = [[e.expr for e in row] for row in T.matrix]
        grid = [
            [
                sum(
                    Xc[k] * pdiff(f[i][j], syms[k])
                    - f[k][j] * pdiff(Xc[i], syms[k])
                    + f[i][k] * pdiff(Xc[k], syms[j])
                    for k in range(n)
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
        return EndoTM(chart, grid)
    raise ExprError(f"lie_derivative undefined for {type(T).__name__}")


class _SymBilinear(_Components):
    """Symmetric 2-tensor that need not be nondegenerate (e.g. L_X gamma)."""

    def __call__(self, X: VectorField, Y: VectorField) -> ScalarExpr:
        total = sp.Integer(0)
        for i, xi in enumerate(X.components):
            for j, yj in enumerate(Y.components):
                total += self.components[i][j].expr * xi.expr * yj.expr
        return ScalarExpr(total, self.chart)

    @property
    def matrix(self):
        return self.components


def _lie_metric(chart, grid) -> _SymBilinear:
    return _SymBilinear(chart, _wrap_grid(chart, grid))


# ---------------------------------------------------------------------------
# musical isomorphisms


def musical_flat(s, X: VectorField) -> OneForm:
    """(flat_s X)(Y) = s(X, Y) for a metric, 2-form or symmetric tensor s."""
    chart = _same_chart(s, X)
    n = chart.dim
    comps = [
        sum((X.components[i].expr * s.components[i][j].expr for i in range(n)), sp.Integer(0))
        for j in range(n)
    ]
    return OneForm(chart, comps)


def musical_sharp(gamma: MetricField, a: OneForm) -> VectorField:
    """Inverse of flat_gamma."""
    chart = _same_chart(gamma, a)
    inv = gamma.inverse_matrix()
    n = chart.dim
    comps = [
        sum((inv[j][k].expr * a.components[k].expr for k in range(n)), sp.Integer(0))
        for j in range(n)
    ]
    return VectorField(chart, comps)


def flat_combination(psi: TwoForm, gamma: MetricField, sign: int, X: VectorField) -> OneForm:
    """flat_{psi + sign*gamma} X, the V_+/V_- embeddings' covector part."""
    if sign not in (1, -1):
        raise ExprError("sign must be +1 or -1")
    chart = _same_chart(psi, gamma, X)
    n = chart.dim
    comps = [
        sum(
            X.components[i].expr * (psi.components[i][j].expr + sign * gamma.components[i][j].expr)
            for i in range(n)
        )
        for j in range(n)
    ]
    return OneForm(chart, comps)


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
        syms = self.chart.symbols
        g = [[e.expr for e in row] for row in gamma.components]
        ginv = [[e.expr for e in row] for row in gamma.inverse_matrix()]
        chr_ = [[[sp.Integer(0)] * n for _ in range(n)] for _ in range(n)]
        dg = [
            [[pdiff(g[i][j], syms[k]) for j in range(n)] for i in range(n)] for k in range(n)
        ]
        for k in range(n):
            for i in range(n):
                for j in range(i, n):
                    total = sp.Integer(0)
                    for l in range(n):
                        total += ginv[k][l] * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j])
                    val = canon(total / 2)
                    chr_[k][i][j] = val
                    chr_[k][j][i] = val
        self.christoffel = tuple(
            tuple(tuple(ScalarExpr(chr_[k][i][j], self.chart, _canonical=True) for j in range(n)) for i in range(n))
            for k in range(n)
        )

    def nabla(self, X: VectorField, T):
        """Covariant derivative of a vector field, 1-form, or endomorphism."""
        chart = _same_chart(self.gamma, X, T)
        n = chart.dim
        syms = chart.symbols
        Xc = [c.expr for c in X.components]
        G = [[[self.christoffel[k][i][j].expr for j in range(n)] for i in range(n)] for k in range(n)]
        if isinstance(T, VectorField):
            Y = [c.expr for c in T.components]
            comps = [
                sum(Xc[i] * pdiff(Y[k], syms[i]) for i in range(n))
                + sum(G[k][i][j] * Xc[i] * Y[j] for i in range(n) for j in range(n))
                for k in range(n)
            ]
            return VectorField(chart, comps)
        if isinstance(T, OneForm):
            a = [c.expr for c in T.components]
            comps = [
                sum(Xc[i] * pdiff(a[j], syms[i]) for i in range(n))
                - sum(G[k][i][j] * Xc[i] * a[k] for i in range(n) for k in range(n))
                for j in range(n)
            ]
            return OneForm(chart, comps)
        if isinstance(T, EndoTM):
            f = [[e.expr for e in row] for row in T.matrix]
            grid = [
                [
                    sum(Xc[k] * pdiff(f[i][j], syms[k]) for k in range(n))
                    + sum(G[i][k][m] * Xc[k] * f[m][j] for k in range(n) for m in range(n))
                    - sum(G[m][k][j] * Xc[k] * f[i][m] for k in range(n) for m in range(n))
                    for j in range(n)
                ]
                for i in range(n)
            ]
            return EndoTM(chart, grid)
        raise ExprError(f"nabla undefined for {type(T).__name__}")

    def metric_defect(self) -> list[ScalarExpr]:
        """Components of nabla gamma (all zero for Levi-Civita)."""
        n = self.chart.dim
        syms = self.chart.symbols
        g = [[e.expr for e in row] for row in self.gamma.components]
        G = [[[self.christoffel[kk][i][j].expr for j in range(n)] for i in range(n)] for kk in range(n)]
        out = []
        for k in range(n):
            for i in range(n):
                for j in range(i, n):
                    expr = pdiff(g[i][j], syms[k])
                    expr -= sum(G[l][k][i] * g[l][j] for l in range(n))
                    expr -= sum(G[l][k][j] * g[i][l] for l in range(n))
                    out.append(ScalarExpr(expr, self.chart))
        return out

    def torsion(self, X: VectorField, Y: VectorField) -> VectorField:
        """nabla_X Y - nabla_Y X - [X, Y]."""
        return self.nabla(X, Y) - self.nabla(Y, X) - lie_bracket(X, Y)


def levi_civita(gamma: MetricField) -> Connection:
    return gamma.connection()


# ---------------------------------------------------------------------------
# product with a line, and lifts


def lift_vector(X: VectorField, product: ChartManifold) -> VectorField:
    return VectorField(product, [c.expr for c in X.components] + [0])


def lift_oneform(a: OneForm, product: ChartManifold) -> OneForm:
    return OneForm(product, [c.expr for c in a.components] + [0])


def lift_endo(F: EndoTM, product: ChartManifold) -> EndoTM:
    n = F.chart.dim
    grid = [[F.matrix[i][j].expr for j in range(n)] + [0] for i in range(n)]
    grid.append([0] * (n + 1))
    return EndoTM(product, grid)


def lift_twoform(w: TwoForm, product: ChartManifold) -> TwoForm:
    n = w.chart.dim
    grid = [[w.components[i][j].expr for j in range(n)] + [0] for i in range(n)]
    grid.append([0] * (n + 1))
    return TwoForm(product, grid)


def lift_metric_product(gamma: MetricField, product: ChartManifold) -> MetricField:
    """gamma + dt^2 on M x R."""
    n = gamma.chart.dim
    grid = [[gamma.components[i][j].expr for j in range(n)] + [0] for i in range(n)]
    grid.append([0] * n + [1])
    return MetricField(product, grid)


# ---------------------------------------------------------------------------
# random fields for property and oracle tests


def random_vector_field(chart: ChartManifold, rng: random.Random, degree: int = 2) -> VectorField:
    from .symexpr import random_poly

    return VectorField(chart, [random_poly(chart, rng, degree) for _ in range(chart.dim)])


def random_oneform(chart: ChartManifold, rng: random.Random, degree: int = 2) -> OneForm:
    from .symexpr import random_poly

    return OneForm(chart, [random_poly(chart, rng, degree) for _ in range(chart.dim)])
