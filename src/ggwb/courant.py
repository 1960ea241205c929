"""The big tangent bundle TM + T*M: pairing, Courant bracket, naive differential.

Sections are pairs (X, alpha).  The bracket implemented is the antisymmetric
Courant bracket

    [(X,a), (Y,b)] = ([X,Y], L_X b - L_Y a + (1/2) d(a(Y) - b(X))),

not the Dorfman bracket; all structure criteria downstream are stated for
this bracket.  Endomorphisms of the big bundle are 2n x 2n matrices in the
coordinate frame (d_1..d_n ; dx^1..dx^n) and may have complex (Gaussian
rational) entries.
"""

from __future__ import annotations

from typing import Sequence

import sympy as sp

from .calculus import (
    ChartManifold,
    EndoTM,
    OneForm,
    VectorField,
    _same_chart,
    coframe,
    ext_d,
    frame,
    zero_oneform,
    zero_vector,
)
from .errors import ChartMismatchError, ExprError
from .symexpr import ScalarExpr, pdiff


class BigSection:
    """A section (X, alpha) of TM + T*M."""

    __slots__ = ("X", "alpha", "chart")

    def __init__(self, X: VectorField, alpha: OneForm):
        if X.chart != alpha.chart:
            raise ChartMismatchError("vector and covector parts live on different charts")
        self.X = X
        self.alpha = alpha
        self.chart = X.chart

    @staticmethod
    def zero(chart: ChartManifold) -> "BigSection":
        return BigSection(zero_vector(chart), zero_oneform(chart))

    @staticmethod
    def from_vector(X: VectorField) -> "BigSection":
        return BigSection(X, zero_oneform(X.chart))

    @staticmethod
    def from_oneform(a: OneForm) -> "BigSection":
        return BigSection(zero_vector(a.chart), a)

    def __add__(self, other: "BigSection") -> "BigSection":
        return BigSection(self.X + other.X, self.alpha + other.alpha)

    def __sub__(self, other: "BigSection") -> "BigSection":
        return BigSection(self.X - other.X, self.alpha - other.alpha)

    def __neg__(self) -> "BigSection":
        return BigSection(-self.X, -self.alpha)

    def __mul__(self, f) -> "BigSection":
        return BigSection(self.X * f, self.alpha * f)

    __rmul__ = __mul__

    def components(self) -> list[ScalarExpr]:
        return list(self.X.components) + list(self.alpha.components)

    def column(self) -> list[sp.Expr]:
        return [c.expr for c in self.components()]

    @staticmethod
    def from_components(chart: ChartManifold, comps: Sequence) -> "BigSection":
        n = chart.dim
        if len(comps) != 2 * n:
            raise ExprError(f"big section needs {2 * n} components")
        return BigSection(VectorField(chart, comps[:n]), OneForm(chart, comps[n:]))

    def conjugate(self) -> "BigSection":
        return BigSection.from_components(
            self.chart, [c.conjugate() for c in self.components()]
        )

    def __eq__(self, other):
        return (
            isinstance(other, BigSection)
            and self.X == other.X
            and self.alpha == other.alpha
        )

    def __repr__(self):
        return f"BigSection({self.X!r}, {self.alpha!r})"


def big_frame(chart: ChartManifold) -> list[BigSection]:
    """The 2n coordinate sections (d_i, 0), (0, dx^i)."""
    return [BigSection.from_vector(e) for e in frame(chart)] + [
        BigSection.from_oneform(a) for a in coframe(chart)
    ]


def pairing(A: BigSection, B: BigSection) -> ScalarExpr:
    """Neutral pairing g((X,a),(Y,b)) = (a(Y) + b(X)) / 2."""
    chart = _same_chart(A.X, B.X)
    total = sp.Integer(0)
    for a, y in zip(A.alpha.components, B.X.components):
        total += a.expr * y.expr
    for b, x in zip(B.alpha.components, A.X.components):
        total += b.expr * x.expr
    from .calculus import _S

    return _S(chart, total / 2)


def courant_bracket(A: BigSection, B: BigSection) -> BigSection:
    """All components assembled at the sympy level and canonicalized once."""
    chart = _same_chart(A.X, B.X)
    n = chart.dim
    syms = chart.symbols
    Xc = [c.expr for c in A.X.components]
    Yc = [c.expr for c in B.X.components]
    ac = [c.expr for c in A.alpha.components]
    bc = [c.expr for c in B.alpha.components]
    vec = [
        sum(Xc[i] * pdiff(Yc[k], syms[i]) - Yc[i] * pdiff(Xc[k], syms[i]) for i in range(n))
        for k in range(n)
    ]
    # L_X b - L_Y a + (1/2) d(a(Y) - b(X))
    corr = sum(ac[i] * Yc[i] - bc[i] * Xc[i] for i in range(n))
    cov = []
    for j in range(n):
        t = sum(
            Xc[i] * pdiff(bc[j], syms[i])
            + bc[i] * pdiff(Xc[i], syms[j])
            - Yc[i] * pdiff(ac[j], syms[i])
            - ac[i] * pdiff(Yc[i], syms[j])
            for i in range(n)
        )
        cov.append(t + sp.Rational(1, 2) * pdiff(corr, syms[j]))
    return BigSection(VectorField(chart, vec), OneForm(chart, cov))


def partial(f: ScalarExpr) -> BigSection:
    """The section with g(partial f, U) = (1/2) pr_TM U (f); equals (0, df)."""
    return BigSection.from_oneform(ext_d(f))


def naive_d(U: BigSection, A: BigSection, B: BigSection) -> ScalarExpr:
    """Naive exterior differential of a section, evaluated on a pair.

    d_C U (A, B) = pr A (g(U,B)) - pr B (g(U,A)) - g(U, [A,B]).
    Antisymmetric in (A, B) but *not* bilinear over functions.
    """
    return (
        A.X.apply(pairing(U, B))
        - B.X.apply(pairing(U, A))
        - pairing(U, courant_bracket(A, B))
    )


class BigEndo:
    """Endomorphism of TM + T*M as a 2n x 2n ScalarExpr block matrix."""

    __slots__ = ("chart", "matrix", "_sym_cache")

    def __init__(self, chart: ChartManifold, matrix):
        from .calculus import _S

        n2 = 2 * chart.dim
        grid = tuple(tuple(_S(chart, e) for e in row) for row in matrix)
        if len(grid) != n2 or any(len(r) != n2 for r in grid):
            raise ExprError(f"big endomorphism needs a {n2}x{n2} matrix")
        self.chart = chart
        self.matrix = grid
        self._sym_cache = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def identity(chart: ChartManifold) -> "BigEndo":
        n2 = 2 * chart.dim
        return BigEndo(chart, sp.eye(n2).tolist())

    @staticmethod
    def zero(chart: ChartManifold) -> "BigEndo":
        n2 = 2 * chart.dim
        return BigEndo(chart, sp.zeros(n2).tolist())

    @staticmethod
    def from_endo(F: EndoTM) -> "BigEndo":
        """The lift (X, a) -> (F X, -a o F) of a tangent endomorphism."""
        n = F.chart.dim
        f = sp.Matrix([[e.expr for e in row] for row in F.matrix])
        top = f.row_join(sp.zeros(n))
        bot = sp.zeros(n).row_join(-f.T)
        return BigEndo(F.chart, top.col_join(bot).tolist())

    @staticmethod
    def from_blocks(chart: ChartManifold, a, b, c, d) -> "BigEndo":
        n = chart.dim
        A = sp.Matrix([[chart.scalar(e).expr for e in row] for row in a])
        B = sp.Matrix([[chart.scalar(e).expr for e in row] for row in b])
        C = sp.Matrix([[chart.scalar(e).expr for e in row] for row in c])
        D = sp.Matrix([[chart.scalar(e).expr for e in row] for row in d])
        return BigEndo(chart, A.row_join(B).col_join(C.row_join(D)).tolist())

    @staticmethod
    def outer(out: BigSection, inner: BigSection) -> "BigEndo":
        """(flat_g inner) (x) out: the endomorphism U -> g(inner, U) out."""
        _same_chart(out.X, inner.X)
        chart = out.chart
        n = chart.dim
        # g(inner, frame_j): half alpha-components for vector slots, half
        # X-components for covector slots.
        row = [sp.Rational(1, 2) * c.expr for c in inner.alpha.components] + [
            sp.Rational(1, 2) * c.expr for c in inner.X.components
        ]
        col = out.column()
        return BigEndo(chart, [[col[i] * row[j] for j in range(2 * n)] for i in range(2 * n)])

    # -- algebra ---------------------------------------------------------

    def _sym(self) -> sp.Matrix:
        if self._sym_cache is None:
            self._sym_cache = sp.ImmutableMatrix([[e.expr for e in row] for row in self.matrix])
        return self._sym_cache

    def __add__(self, other: "BigEndo") -> "BigEndo":
        if self.chart != other.chart:
            raise ChartMismatchError("big endomorphisms on different charts")
        return BigEndo(self.chart, (self._sym() + other._sym()).tolist())

    def __sub__(self, other: "BigEndo") -> "BigEndo":
        if self.chart != other.chart:
            raise ChartMismatchError("big endomorphisms on different charts")
        return BigEndo(self.chart, (self._sym() - other._sym()).tolist())

    def __neg__(self) -> "BigEndo":
        return BigEndo(self.chart, (-self._sym()).tolist())

    def __mul__(self, f) -> "BigEndo":
        fe = self.chart.scalar(f).expr
        return BigEndo(self.chart, (fe * self._sym()).tolist())

    __rmul__ = __mul__

    def __matmul__(self, other: "BigEndo") -> "BigEndo":
        if self.chart != other.chart:
            raise ChartMismatchError("big endomorphisms on different charts")
        return BigEndo(self.chart, (self._sym() * other._sym()).tolist())

    def __call__(self, s: BigSection) -> BigSection:
        if s.chart != self.chart:
            raise ChartMismatchError("section on a different chart")
        n2 = 2 * self.chart.dim
        col = s.column()
        m = self.matrix
        out = [
            sum(m[i][j].expr * col[j] for j in range(n2) if col[j] is not None)
            for i in range(n2)
        ]
        return BigSection.from_components(self.chart, out)

    def conjugate(self) -> "BigEndo":
        return BigEndo(
            self.chart, [[e.conjugate().expr for e in row] for row in self.matrix]
        )

    def __eq__(self, other):
        return (
            isinstance(other, BigEndo)
            and self.chart == other.chart
            and self.matrix == other.matrix
        )

    # -- defect matrices (entries to feed the zero test) -----------------

    def entries(self) -> list[ScalarExpr]:
        return [e for row in self.matrix for e in row]

    def skew_defect(self) -> list[ScalarExpr]:
        """Entries of A^T G0 + G0 A where G0 is the pairing Gram matrix."""
        g0 = pairing_gram(self.chart)
        m = self._sym()
        d = m.T * g0 + g0 * m
        return [ScalarExpr(e, self.chart) for e in d]

    def square_defect(self, scalar) -> list[ScalarExpr]:
        """Entries of A^2 - scalar * Id."""
        m = self._sym()
        d = m * m - sp.sympify(scalar) * sp.eye(2 * self.chart.dim)
        return [ScalarExpr(e, self.chart) for e in d]


def pairing_gram(chart: ChartManifold) -> sp.Matrix:
    n = chart.dim
    half = sp.Rational(1, 2)
    return sp.Matrix(
        [
            [half if (i + n == j or j + n == i) else 0 for j in range(2 * n)]
            for i in range(2 * n)
        ]
    )


def nijenhuis_big(A: BigEndo, S: BigSection, T: BigSection) -> BigSection:
    """Generalized Nijenhuis tensor with Courant brackets:

    N_A(S,T) = [AS, AT] - A[AS, T] - A[S, AT] + A^2 [S, T].
    """
    AS, AT = A(S), A(T)
    return (
        courant_bracket(AS, AT)
        - A(courant_bracket(AS, T))
        - A(courant_bracket(S, AT))
        + A(A(courant_bracket(S, T)))
    )


def lift_big_section(s: BigSection, product: ChartManifold) -> BigSection:
    from .calculus import lift_oneform, lift_vector

    return BigSection(lift_vector(s.X, product), lift_oneform(s.alpha, product))


def lift_big_endo(A: BigEndo, product: ChartManifold) -> BigEndo:
    """Zero-pad an endomorphism of TM + T*M to T(MxR) + T*(MxR).

    The frame gains d_t at vector slot n and dt at covector slot 2n+1.
    """
    n = A.chart.dim
    m = A._sym()
    out = sp.zeros(2 * (n + 1))
    for i in range(2 * n):
        for j in range(2 * n):
            ii = i if i < n else i + 1
            jj = j if j < n else j + 1
            out[ii, jj] = m[i, j]
    return BigEndo(product, out.tolist())
