"""Generalized Riemannian metrics G <-> (gamma, psi) and the V_+/V_- split."""

from __future__ import annotations

from typing import Optional

import sympy as sp

from ..calculus import (
    MetricField,
    OneForm,
    TwoForm,
    VectorField,
    ext_d,
    flat_combination,
    zero_twoform,
)
from ..courant import BigEndo, BigSection, pairing_gram
from ..errors import ChartMismatchError, ExprError, StructureError
from ..numeric import symmetric_eigenvalues_at
from ..symexpr import DEFAULT_POLICY, ScalarExpr, ZeroPolicy, is_zero_all, pdiff
from ..verdict import CheckResult, Verdict, Witness


class GenMetric:
    """A generalized metric, realized by V_pm = {(X, flat_{psi +- gamma} X)}.

    Carries the isomorphism Gcal with eigenbundles V_pm and the positive
    pairing G(A, B) = g(Gcal A, B).
    """

    def __init__(self, gamma: MetricField, psi: Optional[TwoForm] = None):
        chart = gamma.chart
        if psi is None:
            psi = zero_twoform(chart)
        if psi.chart != chart:
            raise ChartMismatchError("gamma and psi live on different charts")
        self.chart = chart
        self.gamma = gamma
        self.psi = psi
        n = chart.dim
        g = sp.Matrix([[e.expr for e in row] for row in gamma.matrix])
        p = sp.Matrix([[e.expr for e in row] for row in psi.matrix])
        # column of the V_s basis section for d_i has covector block
        # (psi + s*gamma)(d_i, .) = (psi^T + s*gamma) e_i = (-psi + s*gamma) e_i
        eye = sp.eye(n)
        self._frame_matrix = eye.row_join(eye).col_join((g - p).row_join(-g - p))
        try:
            inv = self._frame_matrix.inv(method="LU")
        except Exception as exc:
            raise StructureError(f"V_+/V_- frame is not invertible: {exc}") from exc
        d = sp.diag(eye, -eye)
        gc = self._frame_matrix * d * inv
        from ..calculus import tidy_trig

        gc = gc.applyfunc(lambda e: tidy_trig(chart, sp.cancel(e)).expr)
        self.Gcal = BigEndo(chart, gc.tolist())
        self._gram = (gc.T * pairing_gram(chart)).applyfunc(
            lambda e: tidy_trig(chart, sp.cancel(e)).expr
        )
        self._dpsi = None

    # -- sections of V_pm -------------------------------------------------

    def section(self, X: VectorField, sign: int) -> BigSection:
        """(X, flat_{psi + sign*gamma} X) in V_sign."""
        return BigSection(X, flat_combination(self.psi, self.gamma, sign, X))

    def tau(self, s: BigSection) -> VectorField:
        """Transfer V_pm -> TM (vector part)."""
        return s.X

    @property
    def dpsi(self):
        if self._dpsi is None:
            self._dpsi = ext_d(self.psi)
        return self._dpsi

    def G(self, A: BigSection, B: BigSection) -> ScalarExpr:
        """The positive pairing G(A, B) = g(Gcal A, B)."""
        a = sp.Matrix(A.column())
        b = sp.Matrix(B.column())
        return ScalarExpr((a.T * self._gram * b)[0, 0], self.chart)

    def gram_entries(self):
        return [[ScalarExpr(self._gram[i, j], self.chart) for j in range(self._gram.cols)]
                for i in range(self._gram.rows)]


def build_gen_metric(
    gamma: MetricField, psi: Optional[TwoForm] = None, policy: ZeroPolicy = DEFAULT_POLICY
) -> GenMetric:
    """Construct and validate; raises StructureError if (condptGrond) fails."""
    G = GenMetric(gamma, psi)
    res = check_gen_metric(G, policy)
    if not res.ok:
        raise StructureError(
            "(gamma, psi) does not define a generalized metric",
            [(lbl, v) for lbl, v in res.items if not v.ok],
        )
    return G


def check_gen_metric(G: GenMetric, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckResult:
    out = CheckResult("gen_metric")
    chart = G.chart
    n = chart.dim
    gc = G.Gcal._sym()
    g0 = pairing_gram(chart)
    out.add("(condptGrond) Gcal^2 = Id", is_zero_all(
        (ScalarExpr(e, chart) for e in gc * gc - sp.eye(2 * n)), policy))
    out.add("(condptGrond) g(Gcal X, Gcal Y) = g(X, Y)", is_zero_all(
        (ScalarExpr(e, chart) for e in gc.T * g0 * gc - g0), policy))
    # V_pm really are the +-1 eigenbundles
    from ..calculus import frame

    eig = []
    for sign in (1, -1):
        for e in frame(chart):
            s = G.section(e, sign)
            d = G.Gcal(s) - s * sign
            eig.extend(d.components())
    out.add("(exprEpm) Gcal = +-Id on V_+-", is_zero_all(eig, policy))
    # G restricted to V_+ transfers to gamma through tau_+
    tr = []
    fr = frame(chart)
    for i in range(n):
        for j in range(i, n):
            tr.append(G.G(G.section(fr[i], 1), G.section(fr[j], 1)) - G.gamma(fr[i], fr[j]))
    out.add("(condptGrond) G|V+ = gamma via tau_+", is_zero_all(tr, policy))
    out.add("G positive definite at sample points", _positivity(G, policy))
    return out


def _positivity(G: GenMetric, policy: ZeroPolicy, n_points: int = 4) -> Verdict:
    gram = G.gram_entries()
    rng = policy.rng()
    points = [G.chart.base_point()] + [G.chart.sample_point(rng) for _ in range(n_points)]
    for pt in points:
        eigs = symmetric_eigenvalues_at(gram, pt, policy.tol)
        if eigs.min() <= policy.tol:
            witness = Witness(tuple(sorted(pt.items())), float(eigs.min()), "min eigenvalue")
            return Verdict.failed("positivity", witness)
    return Verdict.numeric("positivity")


# ---------------------------------------------------------------------------
# closed-form Courant brackets of V_pm sections


def courant_bracket_Vpm(
    G: GenMetric, X: VectorField, Y: VectorField, signs: tuple[int, int]
) -> BigSection:
    """The (CrVpm) closed forms for [(X, flat_{psi+s1*gamma}X), (Y, ...)].

    Must agree with the generic Courant bracket of the embedded sections;
    that agreement is an acceptance-level cross-check.
    """
    s1, s2 = signs
    if s1 not in (1, -1) or s2 not in (1, -1):
        raise ExprError("signs must be +-1")
    if (s1, s2) == (-1, 1):
        # antisymmetry of the Courant bracket
        return -courant_bracket_Vpm(G, Y, X, (1, -1))
    chart = G.chart
    n = chart.dim
    syms = chart.symbols
    Xc = [c.expr for c in X.components]
    Yc = [c.expr for c in Y.components]
    g = [[e.expr for e in row] for row in G.gamma.components]
    p = [[e.expr for e in row] for row in G.psi.components]
    dp = G.dpsi.components
    br = [
        sum(Xc[i] * pdiff(Yc[k], syms[i]) - Yc[i] * pdiff(Xc[k], syms[i]) for i in range(n))
        for k in range(n)
    ]
    flat_gY = [sum(Yc[i] * g[i][j] for i in range(n)) for j in range(n)]
    flat_gX = [sum(Xc[i] * g[i][j] for i in range(n)) for j in range(n)]

    def lie_x_of(w, Vc):  # (L_V w)_j for a 1-form w given by raw components
        return [
            sum(Vc[i] * pdiff(w[j], syms[i]) + w[i] * pdiff(Vc[i], syms[j]) for i in range(n))
            for j in range(n)
        ]

    ixiy_dpsi = [
        sum(
            Xc[i] * Yc[j] * dp[i][j][k].expr
            for i in range(n)
            for j in range(n)
        )
        for k in range(n)
    ]
    if s1 == s2:
        s = s1
        lie_y_gamma = [
            [
                sum(
                    Yc[k] * pdiff(g[i][j], syms[k])
                    + g[k][j] * pdiff(Yc[k], syms[i])
                    + g[i][k] * pdiff(Yc[k], syms[j])
                    for k in range(n)
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
        lxw = lie_x_of(flat_gY, Xc)
        cov = [
            sum(br[i] * (p[i][j] + s * g[i][j]) for i in range(n))
            + ixiy_dpsi[j]
            + s * (lxw[j] - sum(Xc[i] * lie_y_gamma[i][j] for i in range(n)))
            for j in range(n)
        ]
        return BigSection(VectorField(chart, br), OneForm(chart, cov))
    # (+, -) mixed-sign case
    gxy = sum(Xc[i] * g[i][j] * Yc[j] for i in range(n) for j in range(n))
    lxw = lie_x_of(flat_gY, Xc)
    lyw = lie_x_of(flat_gX, Yc)
    cov = [
        sum(br[i] * p[i][j] for i in range(n))
        + ixiy_dpsi[j]
        - lxw[j]
        - lyw[j]
        + pdiff(gxy, syms[j])
        for j in range(n)
    ]
    return BigSection(VectorField(chart, br), OneForm(chart, cov))
