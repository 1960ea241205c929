"""Explicit normality and binormality systems for metric (2,1)-structures.

Everything here works through the equivalent pair of classical structures
(F_pm, Z_pm, xi_pm, gamma) plus the 2-form psi.  The 1-forms zeta_pm and
rho_pm package the Courant-bracket corrections; note their arguments live in
*different* image bundles: zeta_s takes X in P_s = im F_s while rho_s takes
X in P_{-s}.

P_s is spanned by the columns of F_s, so zeta and rho are column formulas: on
an n x p array P they give the p x n array with entry [a][k] = zeta_s(P e_a)_k
(or rho_s), each term one contraction of P, Z_s, gamma and their derivative
arrays.  The (indbin0)/(indbin1) lines contract these arrays with F_pm, and
zeta_form, rho_form and zeta_rho_forms are the one-column case.
"""

from __future__ import annotations

from ..calculus import (
    OneForm,
    VectorField,
    _Array,
    _columns,
    _minor,
    _partials,
    contract,
    ext_d,
    interior,
    lie_bracket,
    lie_derivative,
)
from ..courant import (
    BigEndo,
    BigSection,
    frame_pairs,
    lift_big_endo,
    lift_big_section,
    _gram0,
)
from ..errors import PreconditionNotMet
from ..symexpr import DEFAULT_POLICY, ScalarExpr, ZeroPolicy
from ..verdict import CheckResult, Verdict, Witness, combine, once
from .classical import check_normal_classical
from .twoone import TwoOneGAC, build_product_J, check_normal_21, second_structure


class _PairData:
    """The classical pair (F_s, Z_s, xi_s, gamma) and dpsi, by sign s, with the
    derivative arrays the column formulas read."""

    def __init__(self, s: TwoOneGAC):
        if s.G is None:
            raise PreconditionNotMet("explicit normality needs a metric structure")
        self.gamma, self.dpsi, self.chart = s.G.gamma, s.G.dpsi, s.chart
        self.dgamma = self.gamma.derivatives()  # dgamma[i][j][m] = d_m gamma_ij
        self.ac, self.F, self.Z, self.dZ, self.iz_dpsi, self.dxi = ({} for _ in range(6))
        for sign, ac in zip((1, -1), s.classical_pair()):
            self.ac[sign], self.F[sign], self.Z[sign] = ac, ac.F, ac.Z
            self.dZ[sign] = _partials(ac.Z)  # dZ[i][j] = d_j Z^i
            self.iz_dpsi[sign] = interior(ac.Z, self.dpsi)
            self.dxi[sign] = ext_d(ac.xi)
        self._rho = {}

    def rho_lines(self, sign: int) -> tuple:
        """What every rho line of sign s reads, on P = F_{-s}, whose columns
        span P_{-s}: [Z_s, P], [Z_s, F_{-s} P], sharp_gamma rho_s(P) and
        rho_s(F_{-s} P) + rho_s(P) o F_{-s}, each [a][k]."""
        if sign not in self._rho:
            P = self.F[-sign]
            (b1, rho), (b2, rho_f) = _rho(self, sign, P), _rho(self, sign, P @ P)
            self._rho[sign] = (b1, b2, _on_columns(self.gamma.inverse_matrix(), rho),
                               rho_f + contract("aj,jk->ak", rho, P))
        return self._rho[sign]


def _membership_P(data: _PairData, sign: int, X: VectorField, policy: ZeroPolicy) -> None:
    """X must satisfy pr_P X = X, i.e. -F_sign^2 X = X."""
    F, tag = data.F[sign], "+" if sign == 1 else "-"
    out = CheckResult("pr_P membership", policy)
    out.test("pr_P X = X", (F(F(X)) + X).components, "pr_P membership")
    out.require(f"argument is not in P_{tag} = im F_{tag}")


def _on_columns(A, cols: _Array) -> _Array:
    """A X for every column X, [a][k] = A^k_j X_a^j."""
    return contract("kj,aj->ak", A, cols)


def _flat_lie(data: _PairData, sign: int, P, dP: _Array) -> _Array:
    """L_Z(flat_gamma X) on the columns X of P, [a][j] =
    Z^m d_m(X^i gamma_ij) + X^l gamma_li d_j Z^i, with Z = Z_s."""
    Z, g = data.Z[sign], data.gamma
    return (contract("m,iam,ij->aj", Z, dP, g) + contract("m,ia,ijm->aj", Z, P, data.dgamma)
            + contract("la,li,ij->aj", P, g, data.dZ[sign]))


def _zeta(data: _PairData, sign: int, P) -> _Array:
    """zeta_s(X) = i(X) i(Z) dpsi +- [L_Z(flat_gamma X) - (L_X gamma)(Z, .)]
    on the columns X of P, [a][k], with Z = Z_s."""
    Z, g, dP = data.Z[sign], data.gamma, _partials(P)
    # (L_X gamma)(Z, .)_k = Z^j (X^i d_i gamma_jk + gamma_ik d_j X^i + gamma_ji d_k X^i)
    lxg = (contract("j,ia,jki->ak", Z, P, data.dgamma) + contract("j,iaj,ik->ak", Z, dP, g)
           + contract("j,ji,iak->ak", Z, g, dP))
    tail = _flat_lie(data, sign, P, dP) - lxg
    term = contract("ja,jk->ak", P, data.iz_dpsi[sign])
    return term + tail if sign == 1 else term - tail


def _rho(data: _PairData, sign: int, P) -> tuple[_Array, _Array]:
    """([Z, X], rho_s(X)) on the columns X of P, each [a][k], with Z = Z_s and
    rho_s(X) = -+[flat_gamma [Z, X] - i(X) i(Z) dpsi + L_Z(flat_gamma X) + i(X) dxi_s]."""
    dP = _partials(P)
    bracket = contract("i,kai->ak", data.Z[sign], dP) - contract("ia,ki->ak", P, data.dZ[sign])
    inner = (contract("ak,kj->aj", bracket, data.gamma) + _flat_lie(data, sign, P, dP)
             + contract("ja,jk->ak", P, data.dxi[sign] - data.iz_dpsi[sign]))
    return bracket, (-inner if sign == 1 else inner)


def zeta_form(
    s: TwoOneGAC, X: VectorField, sign: int, policy: ZeroPolicy = DEFAULT_POLICY
) -> OneForm:
    """zeta_sign(X) for X in P_sign."""
    data = _PairData(s)
    _membership_P(data, sign, X, policy)
    return OneForm(s.chart, _zeta(data, sign, _columns([X]))._take(0))


def rho_form(
    s: TwoOneGAC, X: VectorField, sign: int, policy: ZeroPolicy = DEFAULT_POLICY
) -> OneForm:
    """rho_sign(X) for X in P_{-sign}."""
    data = _PairData(s)
    _membership_P(data, -sign, X, policy)
    return OneForm(s.chart, _rho(data, sign, _columns([X]))[1]._take(0))


def zeta_rho_forms(
    s: TwoOneGAC, X: VectorField, sign: int, policy: ZeroPolicy = DEFAULT_POLICY
) -> tuple[OneForm, OneForm]:
    """(zeta_sign(X), rho_sign(X)); X must lie in P_sign *and* P_{-sign}."""
    return zeta_form(s, X, sign, policy), rho_form(s, X, sign, policy)


# ---------------------------------------------------------------------------
# (indbin0): the explicit normality system


def _common_items(data: _PairData, out: CheckResult) -> None:
    """The items (indbin0) and (indbin1) share: classical normality of both
    halves and the first line of (indbin0)."""
    for sign, tag in ((1, "+"), (-1, "-")):
        out.sub(f"classical normality of (F{tag}, Z{tag}, xi{tag})", check_normal_classical,
                data.ac[sign], out.policy)
    Zp, Zm = data.Z[1], data.Z[-1]
    out.test("(indbin0) [Z+, Z-] = 0", lie_bracket(Zp, Zm).components)
    lhs = (lie_derivative(Zm, data.ac[1].xi) + lie_derivative(Zp, data.ac[-1].xi)
           - ext_d(data.gamma(Zp, Zm)))
    rhs = interior(Zm, interior(Zp, data.dpsi))
    out.test("(indbin0) L_{Z-} xi+ + L_{Z+} xi- - d gamma(Z+,Z-) = i(Z-) i(Z+) d psi",
             (lhs - rhs).components)


def check_normal_explicit(s: TwoOneGAC, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckResult:
    """Explicit route: classical normality of both halves plus the (indbin0)
    condition system on the columns of F_pm, which span P_pm."""
    data = once(_PairData, s)
    out = CheckResult("normal_explicit", policy)
    _common_items(data, out)

    # zeta line: zeta_s(X) o F_+ = zeta_s(X) o F_- = -zeta_s(F_s X), X in P_s;
    # [a][f][k] with F_+ (f = 0) before F_- (f = 1)
    F_pm = contract("f,jk->fjk", (1, 0), data.F[1]) + contract("f,jk->fjk", (0, 1), data.F[-1])
    exprs = []
    for sign in (1, -1):
        Fs = data.F[sign]
        z, zf = _zeta(data, sign, Fs), _zeta(data, sign, Fs @ Fs)
        d = contract("aj,fjk->afk", z, F_pm) + contract("ak,f->afk", zf, (1, 1))
        exprs.extend(d._flat())
    out.test("(indbin0) zeta_pm(X) o F_+- = -zeta_pm(F_pm X)", exprs)

    # bracket line:
    # F_s [Z_s, X] - [Z_s, F_{-s} X] = (F_- - F_+) sharp rho_s(X) / 2, X in P_{-s}
    exprs = []
    half_diff = (data.F[-1] - data.F[1]) * data.chart.scalar("1/2")
    for sign in (1, -1):
        b1, b2, sharp, _ = data.rho_lines(sign)
        d = _on_columns(data.F[sign], b1) - b2 - _on_columns(half_diff, sharp)
        exprs.extend(d._flat())
    out.test("(indbin0) bracket/rho compatibility", exprs)

    out.test("(indbin0) rho_pm(F_mp X) + rho_pm(X) o F_mp = 0", _rho_antiholomorphy(data),
             "rho antiholomorphy")
    return out


def _rho_antiholomorphy(data: _PairData) -> list[ScalarExpr]:
    return data.rho_lines(1)[3]._flat() + data.rho_lines(-1)[3]._flat()


# ---------------------------------------------------------------------------
# (indbin1): binormality


def check_binormal(s: TwoOneGAC, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckResult:
    """The (indbin1) condition system, with the definitional cross-check that binormality is
    exactly normality of the structure and of its companion."""
    data = once(_PairData, s)
    out = CheckResult("binormal", policy)
    _common_items(data, out)

    exprs = _zeta(data, 1, data.F[1])._flat() + _zeta(data, -1, data.F[-1])._flat()
    out.test("(indbin1) zeta_pm(X_pm) = 0", exprs)

    out.test("(indbin1) rho_pm(F_mp X) + rho_pm(X) o F_mp = 0", _rho_antiholomorphy(data),
             "rho antiholomorphy")

    # split bracket equations; sign bookkeeping: for the upper case
    # F_+[Z_+, X_-] = -(1/2) F_+ sharp rho_+(X_-); lower case flips the sign.
    exprs_a, exprs_b = [], []
    for sign in (1, -1):
        b1, b2, sharp, _ = data.rho_lines(sign)
        sharp = sharp * data.chart.scalar(f"{sign}/2")
        exprs_a.extend(_on_columns(data.F[sign], b1 + sharp)._flat())
        exprs_b.extend((b2 + _on_columns(data.F[-sign], sharp))._flat())
    out.test("(indbin1) F_pm [Z_pm, X_mp] = mp (1/2) F_pm sharp rho_pm", exprs_a)
    out.test("(indbin1) [Z_pm, F_mp X_mp] = mp (1/2) F_mp sharp rho_pm", exprs_b)

    direct = _blamed("(indbin1)", combine(*(v for _, v in out.items)))
    normal21 = once(check_normal_21, s, policy)
    companion = once(check_normal_21, once(second_structure, s), policy)
    pair = combine(_blamed("normal21 of the structure", normal21.verdict),
                   _blamed("normal21 of the companion", companion.verdict))
    out.agreement("cross-check: binormal iff both the structure and its companion are normal",
                  ("(indbin1)", direct), ("normality of the pair", pair))
    return out


def _blamed(route: str, v: Verdict) -> Verdict:
    """``v``, its witness's detail naming ``route`` as the one that failed."""
    w = v.witness
    return v if w is None else Verdict(v.kind, Witness(w.point, w.value, f"{route} failed"),
                                       v.detail)


# ---------------------------------------------------------------------------
# product metric Gtilde = -J o J' of a binormal structure


def check_product_metric(s: TwoOneGAC, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckResult:
    """For binormal structures, Gtilde = -J o J' is a generalized metric on
    M x R with Gtilde|_L = G|_L, Gtilde|_S = G|_S, Gtilde(T_pm, T_pm) = 1 and
    Gtilde(T_+, T_-) = 0, positive at 16 sample points."""
    if s.G is None:
        raise PreconditionNotMet("the product metric check needs a metric structure")
    out = CheckResult("product_metric", policy)
    pj = build_product_J(s, policy=policy)
    pj2 = build_product_J(once(second_structure, s), policy=policy)
    product = pj.chart
    gtilde_cal = -(pj.J @ pj2.J)
    out.test("Gtilde^2 = Id", gtilde_cal.square_defect(1))
    gram = contract("ki,kj->ij", gtilde_cal, _gram0(product))

    def gt(a: BigSection, b: BigSection) -> ScalarExpr:
        return contract("i,ij,j->", a, gram, b)

    # L is spanned by the columns of Fcal; lifted, they are the columns of
    # Fcal_lift but for its zero columns at the new slots n and 2n+1
    n, lift = s.chart.dim, pj.Fcal_lift
    g_l = lift_big_endo(BigEndo(s.chart, contract("ai,ab,bj->ij", s.Fcal, s.G._gram, s.Fcal)),
                        product)
    d = contract("ai,ab,bj->ij", lift, gram, lift) - g_l
    out.test("Gtilde|_L = G|_L",
             frame_pairs(_minor(_minor(d, 2 * n + 1, 2 * n + 1), n, n), diagonal=True))
    exprs = []
    for A in (s.Z_plus, s.Z_minus):
        for B in (s.Z_plus, s.Z_minus):
            a, b = lift_big_section(A, product), lift_big_section(B, product)
            exprs.append(gt(a, b) - s.G.G(A, B).lift(product))
    out.test("Gtilde|_S = G|_S", exprs)
    out.test("Gtilde(T+,T+) = 1", gt(pj.T_plus, pj.T_plus) - 1)
    out.test("Gtilde(T-,T-) = 1", gt(pj.T_minus, pj.T_minus) - 1)
    out.test("Gtilde(T+,T-) = 0", gt(pj.T_plus, pj.T_minus))

    rng = policy.rng()
    out.positive("Gtilde positive at 16 sample points", gram,
                 [product.sample_point(rng) for _ in range(16)])
    return out
