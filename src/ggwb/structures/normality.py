"""Explicit normality and binormality systems for metric (2,1)-structures.

Everything here works through the equivalent pair of classical structures
(F_pm, Z_pm, xi_pm, gamma) plus the 2-form psi.  The 1-forms zeta_pm and
rho_pm package the Courant-bracket corrections; note their arguments live in
*different* image bundles: zeta_s takes X in P_s = im F_s while rho_s takes
X in P_{-s}.
"""

from __future__ import annotations

from typing import Optional

from ..calculus import (
    OneForm,
    VectorField,
    _minor,
    contract,
    ext_d,
    frame,
    interior,
    lie_bracket,
    lie_derivative,
    musical_flat,
    musical_sharp,
)
from ..courant import (
    BigEndo,
    BigSection,
    frame_pairs,
    lift_big_endo,
    lift_big_section,
    _gram0,
)
from ..errors import PreconditionNotMet, StructureError
from ..numeric import positivity_witness
from ..symexpr import DEFAULT_POLICY, ScalarExpr, ZeroPolicy, is_zero, is_zero_all
from ..verdict import CheckResult, Verdict, Witness, combine
from .classical import AlmostContact, check_normal_classical
from .twoone import TwoOneGAC, build_product_J, second_structure


class _PairData:
    """Cached classical-pair data for the explicit criteria."""

    def __init__(self, s: TwoOneGAC):
        if s.G is None:
            raise PreconditionNotMet("explicit normality needs a metric structure")
        self.s = s
        self.acp, self.acm, self.psi = s.classical_pair()
        self.gamma = s.G.gamma
        self.dpsi = s.G.dpsi
        self.chart = s.chart
        self.dxi = {1: ext_d(self.acp.xi), -1: ext_d(self.acm.xi)}

    def ac(self, sign: int) -> AlmostContact:
        return self.acp if sign == 1 else self.acm

    def F(self, sign: int):
        return self.ac(sign).F

    def Z(self, sign: int) -> VectorField:
        return self.ac(sign).Z

    def xi(self, sign: int) -> OneForm:
        return self.ac(sign).xi

    def span_P(self, sign: int) -> list[VectorField]:
        F = self.F(sign)
        return [F(e) for e in frame(self.chart)]


def _membership_P(data: _PairData, sign: int, X: VectorField, policy: ZeroPolicy) -> None:
    """X must satisfy pr_P X = X, i.e. -F_sign^2 X = X."""
    F = data.F(sign)
    d = F(F(X)) + X
    v = is_zero_all(d.components, policy, "pr_P membership")
    if not v.ok:
        raise StructureError(
            f"argument is not in P_{'+' if sign == 1 else '-'} = im F_"
            f"{'+' if sign == 1 else '-'}",
            [("pr_P X = X", v)],
        )


def _zeta(data: _PairData, sign: int, X: VectorField) -> OneForm:
    Z = data.Z(sign)
    term1 = interior(X, interior(Z, data.dpsi))
    term2 = lie_derivative(Z, musical_flat(data.gamma, X))
    term3 = musical_flat(lie_derivative(X, data.gamma), Z)
    tail = term2 - term3
    return term1 + tail if sign == 1 else term1 - tail


def _rho(data: _PairData, sign: int, X: VectorField) -> OneForm:
    Z = data.Z(sign)
    inner = (
        musical_flat(data.gamma, lie_bracket(Z, X))
        - interior(X, interior(Z, data.dpsi))
        + lie_derivative(Z, musical_flat(data.gamma, X))
        + interior(X, data.dxi[sign])
    )
    return -inner if sign == 1 else inner


def zeta_form(
    s: TwoOneGAC, X: VectorField, sign: int, policy: ZeroPolicy = DEFAULT_POLICY
) -> OneForm:
    """zeta_sign(X) for X in P_sign."""
    data = _PairData(s)
    _membership_P(data, sign, X, policy)
    return _zeta(data, sign, X)


def rho_form(
    s: TwoOneGAC, X: VectorField, sign: int, policy: ZeroPolicy = DEFAULT_POLICY
) -> OneForm:
    """rho_sign(X) for X in P_{-sign}."""
    data = _PairData(s)
    _membership_P(data, -sign, X, policy)
    return _rho(data, sign, X)


def zeta_rho_forms(
    s: TwoOneGAC, X: VectorField, sign: int, policy: ZeroPolicy = DEFAULT_POLICY
) -> tuple[OneForm, OneForm]:
    """(zeta_sign(X), rho_sign(X)); X must lie in P_sign *and* P_{-sign}."""
    data = _PairData(s)
    _membership_P(data, sign, X, policy)
    _membership_P(data, -sign, X, policy)
    return _zeta(data, sign, X), _rho(data, sign, X)


# ---------------------------------------------------------------------------
# (indbin0): the explicit normality system


def _first_line_items(data: _PairData, policy: ZeroPolicy, out: CheckResult) -> None:
    Zp, Zm = data.Z(1), data.Z(-1)
    out.add("(indbin0) [Z+, Z-] = 0", is_zero_all(
        lie_bracket(Zp, Zm).components, policy))
    lhs = (
        lie_derivative(Zm, data.xi(1))
        + lie_derivative(Zp, data.xi(-1))
        - ext_d(data.gamma(Zp, Zm))
    )
    rhs = interior(Zm, interior(Zp, data.dpsi))
    out.add(
        "(indbin0) L_{Z-} xi+ + L_{Z+} xi- - d gamma(Z+,Z-) = i(Z-) i(Z+) d psi",
        is_zero_all((lhs - rhs).components, policy),
    )


def check_normal_explicit(s: TwoOneGAC, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckResult:
    """Explicit route: classical normality of both halves plus the (indbin0)
    condition system on spanning sets of P_pm."""
    data = _PairData(s)
    out = CheckResult("normal_explicit")
    for sign, tag in ((1, "+"), (-1, "-")):
        sub = check_normal_classical(data.ac(sign), policy)
        out.add(f"classical normality of (F{tag}, Z{tag}, xi{tag})", sub.verdict)
    _first_line_items(data, policy, out)

    # zeta line: zeta_s(X) o F_+ = zeta_s(X) o F_- = -zeta_s(F_s X), X in P_s
    exprs = []
    for sign in (1, -1):
        Fs = data.F(sign)
        for X in data.span_P(sign):
            z = _zeta(data, sign, X)
            zf = _zeta(data, sign, Fs(X))
            for F_other in (data.F(1), data.F(-1)):
                exprs.extend((z.compose_endo(F_other) + zf).components)
    out.add("(indbin0) zeta_pm(X) o F_+- = -zeta_pm(F_pm X)", is_zero_all(exprs, policy))

    # bracket line:
    # F_s [Z_s, X] - [Z_s, F_{-s} X] = (F_- - F_+) sharp rho_s(X) / 2, X in P_{-s}
    exprs = []
    for sign in (1, -1):
        Fs, Fo = data.F(sign), data.F(-sign)
        Zs = data.Z(sign)
        for X in data.span_P(-sign):
            rho = _rho(data, sign, X)
            sharp = musical_sharp(data.gamma, rho)
            lhs = Fs(lie_bracket(Zs, X)) - lie_bracket(Zs, Fo(X))
            half = data.chart.scalar("1/2")
            rhs = (data.F(-1)(sharp) - data.F(1)(sharp)) * half
            exprs.extend((lhs - rhs).components)
    out.add("(indbin0) bracket/rho compatibility", is_zero_all(exprs, policy))

    out.add("(indbin0) rho_pm(F_mp X) + rho_pm(X) o F_mp = 0", _rho_antiholomorphy(data, policy))
    return out


def _rho_antiholomorphy(data: _PairData, policy: ZeroPolicy) -> Verdict:
    exprs = []
    for sign in (1, -1):
        Fo = data.F(-sign)
        for X in data.span_P(-sign):
            d = _rho(data, sign, Fo(X)) + _rho(data, sign, X).compose_endo(Fo)
            exprs.extend(d.components)
    return is_zero_all(exprs, policy, "rho antiholomorphy")


# ---------------------------------------------------------------------------
# (indbin1): binormality


def check_binormal(
    s: TwoOneGAC,
    policy: ZeroPolicy = DEFAULT_POLICY,
    normal21: Optional[CheckResult] = None,
) -> CheckResult:
    """The (indbin1) condition system, with the definitional cross-check that binormality is
    exactly normality of the structure and of its companion.

    ``normal21`` is an already computed ``check_normal_21(s, policy)``; when
    it is None the structure side is computed here.
    """
    from .twoone import check_normal_21

    data = _PairData(s)
    out = CheckResult("binormal")
    for sign, tag in ((1, "+"), (-1, "-")):
        sub = check_normal_classical(data.ac(sign), policy)
        out.add(f"classical normality of (F{tag}, Z{tag}, xi{tag})", sub.verdict)
    _first_line_items(data, policy, out)

    exprs = []
    for sign in (1, -1):
        for X in data.span_P(sign):
            exprs.extend(_zeta(data, sign, X).components)
    out.add("(indbin1) zeta_pm(X_pm) = 0", is_zero_all(exprs, policy))

    out.add("(indbin1) rho_pm(F_mp X) + rho_pm(X) o F_mp = 0", _rho_antiholomorphy(data, policy))

    # split bracket equations:
    # split bracket equations; sign bookkeeping: for the upper case
    # F_+[Z_+, X_-] = -(1/2) F_+ sharp rho_+(X_-); lower case flips the sign.
    exprs_a, exprs_b = [], []
    half = data.chart.scalar("1/2")
    for sign in (1, -1):
        Fs, Fo = data.F(sign), data.F(-sign)
        Zs = data.Z(sign)
        for X in data.span_P(-sign):
            sharp = musical_sharp(data.gamma, _rho(data, sign, X))
            da = Fs(lie_bracket(Zs, X)) + Fs(sharp) * half * sign
            db = lie_bracket(Zs, Fo(X)) + Fo(sharp) * half * sign
            exprs_a.extend(da.components)
            exprs_b.extend(db.components)
    out.add("(indbin1) F_pm [Z_pm, X_mp] = mp (1/2) F_pm sharp rho_pm", is_zero_all(exprs_a, policy))
    out.add("(indbin1) [Z_pm, F_mp X_mp] = mp (1/2) F_mp sharp rho_pm", is_zero_all(exprs_b, policy))

    direct = combine(*(v for _, v in out.items))
    if normal21 is None:
        normal21 = check_normal_21(s, policy)
    sides = [
        ("normal21 of the structure", normal21.verdict),
        ("normal21 of the companion", check_normal_21(second_structure(s), policy).verdict),
    ]
    both = combine(*(v for _, v in sides))
    cross = Verdict.proved()
    if direct.ok != both.ok:
        # carry the witness of the side that failed
        side, failed = next(((n, v) for n, v in sides if not v.ok), ("(indbin1)", direct))
        w = failed.witness
        cross = Verdict.failed(
            witness=w and Witness(w.point, w.value, f"{side} failed"),
            detail=f"(indbin1) says {direct.kind.value}, "
            f"normality of the pair says {both.kind.value}",
        )
    out.add("cross-check: binormal iff both the structure and its companion are normal", cross)
    return out


# ---------------------------------------------------------------------------
# product metric Gtilde = -J o J' of a binormal structure


def check_product_metric(s: TwoOneGAC, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckResult:
    """For binormal structures, Gtilde = -J o J' is a generalized metric on
    M x R with Gtilde|_L = G|_L, Gtilde|_S = G|_S, Gtilde(T_pm, T_pm) = 1 and
    Gtilde(T_+, T_-) = 0, positive at 16 sample points."""
    if s.G is None:
        raise PreconditionNotMet("the product metric check needs a metric structure")
    out = CheckResult("product_metric")
    pj = build_product_J(s, policy=policy)
    pj2 = build_product_J(second_structure(s), policy=policy)
    product = pj.chart
    gtilde_cal = -(pj.J @ pj2.J)
    out.add("Gtilde^2 = Id", is_zero_all(gtilde_cal.square_defect(1), policy))
    gram = contract("ki,kj->ij", gtilde_cal, _gram0(product))

    def gt(a: BigSection, b: BigSection) -> ScalarExpr:
        return contract("i,ij,j->", a, gram, b)

    # L is spanned by the columns of Fcal; lifted, they are the columns of
    # Fcal_lift but for its zero columns at the new slots n and 2n+1
    n, lift = s.chart.dim, pj.Fcal_lift
    g_l = lift_big_endo(BigEndo(s.chart, contract("ai,ab,bj->ij", s.Fcal, s.G._gram, s.Fcal)),
                        product)
    d = contract("ai,ab,bj->ij", lift, gram, lift) - g_l
    out.add("Gtilde|_L = G|_L", is_zero_all(
        frame_pairs(_minor(_minor(d, 2 * n + 1, 2 * n + 1), n, n), diagonal=True), policy))
    exprs = []
    for A in (s.Z_plus, s.Z_minus):
        for B in (s.Z_plus, s.Z_minus):
            a, b = lift_big_section(A, product), lift_big_section(B, product)
            exprs.append(gt(a, b) - s.G.G(A, B).lift(product))
    out.add("Gtilde|_S = G|_S", is_zero_all(exprs, policy))
    out.add("Gtilde(T+,T+) = 1", is_zero(gt(pj.T_plus, pj.T_plus) - 1, policy))
    out.add("Gtilde(T-,T-) = 1", is_zero(gt(pj.T_minus, pj.T_minus) - 1, policy))
    out.add("Gtilde(T+,T-) = 0", is_zero(gt(pj.T_plus, pj.T_minus), policy))

    rng = policy.rng()
    verdict = Verdict.numeric()
    for _ in range(16):
        witness = positivity_witness(gram, product.sample_point(rng), policy.tol)
        if witness is not None:
            verdict = Verdict.failed("positivity", witness)
            break
    out.add("Gtilde positive at 16 sample points", verdict)
    return out
