"""Generalized Riemannian metrics G <-> (gamma, psi) and the V_+/V_- split.

Every generalized structure is built by transfer through the isomorphisms
tau_pm: X -> (X, flat_{psi +- gamma} X) onto V_pm.  With g = gamma,
p = psi and q = gamma^-1, the basis sections of V_+ and V_- are the columns
of C = [[I, I], [g - p, -g - p]] (the covector block of the V_s section of
d_i is (psi + s*gamma)(d_i, .) = (-p + s*g) e_i).  Adding and subtracting
the two block columns gives

    C^-1 = (1/2) [[I + qp, q], [I - qp, -q]],

so the endomorphism acting as F_+ on V_+ and as F_- on V_- is, with
S = F_+ + F_-, D = F_+ - F_-, M = gS - pD and N = gD - pS,

    C diag(F_+, F_-) C^-1 = (1/2) [[S + D qp, D q], [N + M qp, M q]].

Gcal is the transfer of (I, -I):

    Gcal = [[qp, q], [g - pqp, -pq]].

The closed form needs only the cached inverse of gamma, never the inverse
of the 2n x 2n frame matrix C.

The sections tau_pm(d_i) spanning V_pm are the columns of C_pm =
[I; (psi +- gamma)^T], the block columns of C, so a criterion on V_pm
contracts its operator with C_pm (Gcal C_pm = +-C_pm, C_+^T G C_+ = gamma).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ..calculus import (
    EndoTM,
    MetricField,
    OneForm,
    TwoForm,
    VectorField,
    _Array,
    _partials,
    _stack,
    contract,
    ext_d,
    flat_combination,
    zero_twoform,
)
from ..courant import BigEndo, BigSection, _gram0, frame_pairs
from ..errors import ChartMismatchError, ExprError
from ..symexpr import DEFAULT_POLICY, ScalarExpr, ZeroPolicy
from ..verdict import CheckResult


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
        ident = EndoTM.identity(chart)
        self.Gcal = self.transfer(ident, -ident)
        self._gram = contract("ki,kj->ij", self.Gcal, _gram0(chart))
        self._dpsi = None
        self._frames = {}

    def transfer(self, F_plus: EndoTM, F_minus: EndoTM) -> BigEndo:
        """The endomorphism acting as F_pm on V_pm through tau_pm, in the
        closed form of the module docstring."""
        chart = self.chart
        g, p = EndoTM(chart, self.gamma.matrix), EndoTM(chart, self.psi.matrix)
        q = EndoTM(chart, self.gamma.inverse_matrix())
        qp = q @ p
        # halving S and D first keeps the 1/2 out of the large rational entries
        S, D = (F_plus + F_minus) * Fraction(1, 2), (F_plus - F_minus) * Fraction(1, 2)
        M, N = g @ S - p @ D, g @ D - p @ S
        blocks = ((S + D @ qp, D @ q), (N + M @ qp, M @ q))
        rows = [a + b for left, right in blocks for a, b in zip(left.matrix, right.matrix)]
        return BigEndo(chart, rows)

    # -- sections of V_pm -------------------------------------------------

    def section(self, X: VectorField, sign: int) -> BigSection:
        """(X, flat_{psi + sign*gamma} X) in V_sign."""
        return BigSection(X, flat_combination(self.psi, self.gamma, sign, X))

    def _frame(self, sign: int) -> _Array:
        """C_sign = [I; (psi + sign*gamma)^T]: the sections tau_sign(d_i)
        of V_sign as the columns of a 2n x n core array."""
        if sign not in self._frames:
            cov = contract("ij->ji", self.psi) + contract("ij->ji", self.gamma) * sign
            self._frames[sign] = _stack(EndoTM.identity(self.chart), cov)
        return self._frames[sign]

    @property
    def dpsi(self):
        if self._dpsi is None:
            self._dpsi = ext_d(self.psi)
        return self._dpsi

    def G(self, A: BigSection, B: BigSection) -> ScalarExpr:
        """The positive pairing G(A, B) = g(Gcal A, B)."""
        return contract("i,ij,j->", A, self._gram, B)


def build_gen_metric(
    gamma: MetricField, psi: Optional[TwoForm] = None, policy: ZeroPolicy = DEFAULT_POLICY
) -> GenMetric:
    """Construct and validate; raises StructureError if (condptGrond) fails."""
    G = GenMetric(gamma, psi)
    check_gen_metric(G, policy).require("(gamma, psi) does not define a generalized metric")
    return G


def check_gen_metric(G: GenMetric, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckResult:
    out = CheckResult("gen_metric", policy)
    out.test("(condptGrond) Gcal^2 = Id", G.Gcal.square_defect(1))
    out.test("(condptGrond) g(Gcal X, Gcal Y) = g(X, Y)", G.Gcal.isometry_defect(_gram0(G.chart)))
    # V_pm really are the +-1 eigenbundles: Gcal C_pm = +-C_pm, section by section
    eig = []
    for sign in (1, -1):
        C = G._frame(sign)
        eig.extend(contract("ia->ai", contract("ij,ja->ia", G.Gcal, C) - C * sign)._flat())
    out.test("(exprEpm) Gcal = +-Id on V_+-", eig)
    # G restricted to V_+ transfers to gamma through tau_+
    C = G._frame(1)
    tr = contract("ai,ab,bj->ij", C, G._gram, C) - G.gamma
    out.test("(condptGrond) G|V+ = gamma via tau_+", frame_pairs(tr, diagonal=True))
    rng = policy.rng()
    points = [G.chart.base_point()] + [G.chart.sample_point(rng) for _ in range(4)]
    out.positive("G positive definite at sample points", G._gram, points)
    return out


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
    g, p = G.gamma, G.psi
    dX, dY, dg = _partials(X), _partials(Y), g.derivatives()  # dX[k][i] = d_i X^k

    def lie_flat(V, W, dV, dW):
        """(L_V flat_gamma W)_j, by the product rule on (flat_gamma W)_j = W^l g_lj."""
        return (contract("i,li,lj->j", V, dW, g) + contract("i,l,lji->j", V, W, dg)
                + contract("l,li,ij->j", W, g, dV))

    br = contract("ki,i->k", dY, X) - contract("ki,i->k", dX, Y)
    ixiy_dpsi = contract("i,j,ijk->k", X, Y, G.dpsi)
    if s1 == s2:
        s = s1
        # X^i (L_Y gamma)_ij = X^i (Y^k d_k g_ij + g_kj d_i Y^k + g_ik d_j Y^k)
        x_lie_y_gamma = (contract("i,k,ijk->j", X, Y, dg) + contract("i,kj,ki->j", X, g, dY)
                         + contract("i,ik,kj->j", X, g, dY))
        cov = (contract("i,ij->j", br, p) + contract("i,ij->j", br, g) * s + ixiy_dpsi
               + lie_flat(X, Y, dX, dY) * s - x_lie_y_gamma * s)
        return BigSection(VectorField(chart, br), OneForm(chart, cov))
    # (+, -) mixed-sign case; d_j gamma(X, Y) by the product rule
    d_gxy = (contract("ij,il,l->j", dX, g, Y) + contract("i,ilj,l->j", X, dg, Y)
             + contract("i,il,lj->j", X, g, dY))
    cov = (contract("i,ij->j", br, p) + ixiy_dpsi - lie_flat(X, Y, dX, dY)
           - lie_flat(Y, X, dY, dX) + d_gxy)
    return BigSection(VectorField(chart, br), OneForm(chart, cov))
