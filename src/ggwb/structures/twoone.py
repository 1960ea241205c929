"""(2,1)-generalized almost contact structures and their normality.

A (2,1)-structure is a generalized F structure of corank 2 and negative
index 1 together with a fixed complementary frame Z_+, Z_- (g-norms +1/-1,
g-orthogonal).  Its associated generalized almost complex structure J on
M x R decides normality; the companion Fcal' = Gcal o Fcal decides
binormality; the conformal conjugates J_t decide the Sasakian property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import sympy as sp

from ..calculus import (
    ChartManifold,
    EndoTM,
    OneForm,
    TwoForm,
    VectorField,
    frame,
    musical_flat,
)
from ..courant import (
    BigEndo,
    BigSection,
    big_frame,
    courant_bracket,
    lift_big_endo,
    lift_big_section,
    naive_d,
    nijenhuis_big,
    pairing,
    pairing_gram,
)
from ..errors import PreconditionNotMet, StructureError
from ..symexpr import DEFAULT_POLICY, ScalarExpr, ZeroPolicy, is_zero, is_zero_all
from ..verdict import CheckResult, Verdict, combine
from .classical import AlmostContact
from .genf import GenF, corank_and_negative_index
from .genmetric import GenMetric, build_gen_metric


@dataclass
class TwoOneGAC:
    """Fcal with complementary frame (Z_plus, Z_minus), optionally metric."""

    Fcal: BigEndo
    Z_plus: BigSection
    Z_minus: BigSection
    G: Optional[GenMetric] = None
    name: str = "two-one"

    @property
    def chart(self) -> ChartManifold:
        return self.Fcal.chart

    def Z(self, sign: int) -> BigSection:
        return self.Z_plus if sign == 1 else self.Z_minus

    def genf(self) -> GenF:
        if self.G is None:
            return GenF(self.Fcal)
        Fp, Fm = self.classical_endos()
        return GenF(self.Fcal, self.G, Fp, Fm)

    # -- extraction of the equivalent classical pair ----------------------

    def classical_endos(self) -> tuple[EndoTM, EndoTM]:
        """F_pm = tau_pm o Fcal o tau_pm^{-1} (metric structures only)."""
        if self.G is None:
            raise PreconditionNotMet("classical pair needs the generalized metric")
        out = []
        for sign in (1, -1):
            cols = []
            for e in frame(self.chart):
                img = self.Fcal(self.G.section(e, sign))
                cols.append([c.expr for c in img.X.components])
            n = self.chart.dim
            out.append(EndoTM(self.chart, [[cols[j][i] for j in range(n)] for i in range(n)]))
        return out[0], out[1]

    def classical_pair(self) -> tuple[AlmostContact, AlmostContact, TwoForm]:
        """(F_+, Z_+, xi_+, gamma), (F_-, Z_-, xi_-, gamma) and psi."""
        if self.G is None:
            raise PreconditionNotMet("classical pair needs the generalized metric")
        Fp, Fm = self.classical_endos()
        gamma = self.G.gamma
        Zp, Zm = self.Z_plus.X, self.Z_minus.X
        acp = AlmostContact(Fp, Zp, musical_flat(gamma, Zp), gamma, name="plus")
        acm = AlmostContact(Fm, Zm, musical_flat(gamma, Zm), gamma, name="minus")
        return acp, acm, self.G.psi


def classical_lift(
    ac: AlmostContact,
    psi: Optional[TwoForm] = None,
    policy: ZeroPolicy = DEFAULT_POLICY,
    name: str = "classical-lift",
) -> TwoOneGAC:
    """See (F, Z, xi) as a (2,1)-generalized structure:

    Fcal(X, a) = (F X, -a o F),  Z_pm = (Z, +-xi),
    with G built from (gamma, psi) when the classical metric is present.
    """
    Fcal = BigEndo.from_endo(ac.F)
    Zp = BigSection(ac.Z, ac.xi)
    Zm = BigSection(ac.Z, -ac.xi)
    G = None
    if ac.gamma is not None:
        G = build_gen_metric(ac.gamma, psi, policy)
        for sign, Z in ((1, Zp), (-1, Zm)):
            d = G.section(ac.Z, sign) - Z
            v = is_zero_all(d.components(), policy, "Z_pm in V_pm")
            if not v.ok:
                raise StructureError(
                    "classical lift needs flat_gamma Z = xi and i(Z) psi = 0 "
                    "so that (Z, +-xi) lies in V_pm",
                    [("Z_pm in V_pm", v)],
                )
    return build_21gac(Fcal, Zp, Zm, G, policy, name=name)


def build_21gac(
    Fcal: BigEndo,
    Z_plus: BigSection,
    Z_minus: BigSection,
    G: Optional[GenMetric] = None,
    policy: ZeroPolicy = DEFAULT_POLICY,
    name: str = "two-one",
) -> TwoOneGAC:
    """Validate (almoctZpm), (almctF2) and the metric compatibility, then
    build; rejects with a structured report of which identity failed."""
    s = TwoOneGAC(Fcal, Z_plus, Z_minus, G, name=name)
    res = check_two_one(s, policy)
    if not res.ok:
        raise StructureError(
            "data does not satisfy the (2,1)-structure axioms",
            [(lbl, v) for lbl, v in res.items if not v.ok],
        )
    return s


def check_two_one(s: TwoOneGAC, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckResult:
    out = CheckResult("two_one")
    chart = s.chart
    n = chart.dim
    out.add("(almoctZpm) g(Z+,Z-) = 0", is_zero(pairing(s.Z_plus, s.Z_minus), policy))
    out.add("(almoctZpm) g(Z+,Z+) = 1", is_zero(pairing(s.Z_plus, s.Z_plus) - 1, policy))
    out.add("(almoctZpm) g(Z-,Z-) = -1", is_zero(pairing(s.Z_minus, s.Z_minus) + 1, policy))
    out.add("(almctF2) Fcal Z+- = 0", is_zero_all(
        s.Fcal(s.Z_plus).components() + s.Fcal(s.Z_minus).components(), policy))
    m = s.Fcal._sym()
    rank1 = BigEndo.outer(s.Z_plus, s.Z_plus)._sym() - BigEndo.outer(s.Z_minus, s.Z_minus)._sym()
    out.add(
        "(almctF2) Fcal^2 = -Id + flat_g Z+ (x) Z+ - flat_g Z- (x) Z-",
        is_zero_all((ScalarExpr(e, chart) for e in m * m + sp.eye(2 * n) - rank1), policy),
    )
    out.add("(prScuframe) pr_S = g(Z+,.)Z+ - g(Z-,.)Z-", is_zero_all(
        (ScalarExpr(e, chart) for e in sp.eye(2 * n) + m * m - rank1), policy))
    out.add("g-skewness of Fcal", is_zero_all(s.Fcal.skew_defect(), policy))
    out.add("Fcal^3 + Fcal = 0", is_zero_all(
        (ScalarExpr(e, chart) for e in m * m * m + m), policy))
    if s.G is not None:
        gram = s.G._gram
        g0 = pairing_gram(chart)
        zp = sp.Matrix(s.Z_plus.column())
        zm = sp.Matrix(s.Z_minus.column())
        qp, qm = g0 * zp, g0 * zm
        # G(Fcal X, Fcal Y) = G(X,Y) - g(Z+,X)g(Z+,Y) - g(Z-,X)g(Z-,Y);
        # the minus on the Z- term is forced by G(Z-,Z-) = 1 and Fcal Z- = 0.
        d = m.T * gram * m - gram + qp * qp.T + qm * qm.T
        out.add("(21metriccuZpm) metric compatibility", is_zero_all(
            (ScalarExpr(e, chart) for e in d), policy))
        eig = []
        for sign, Z in ((1, s.Z_plus), (-1, s.Z_minus)):
            dd = s.G.Gcal(Z) - Z * sign
            eig.extend(dd.components())
        out.add("Z+- lie in V+-", is_zero_all(eig, policy))
    corank, neg = corank_and_negative_index(s.genf() if s.G else GenF(s.Fcal), policy)
    out.add(
        "corank(Fcal) = 2",
        Verdict.numeric() if corank == 2 else Verdict.failed(detail=f"corank = {corank}"),
    )
    out.add(
        "neg(Fcal) = 1",
        Verdict.numeric() if neg == 1 else Verdict.failed(detail=f"neg = {neg}"),
    )
    return out


def second_structure(s: TwoOneGAC) -> TwoOneGAC:
    """(Fcal' = Gcal o Fcal, Z'_pm = +-Z_pm, G): always derived, never input."""
    if s.G is None:
        raise PreconditionNotMet("the second structure needs the generalized metric")
    return TwoOneGAC(
        s.G.Gcal @ s.Fcal, s.Z_plus, -s.Z_minus, s.G, name=f"{s.name}'"
    )


# ---------------------------------------------------------------------------
# the product structure J on M x R


@dataclass
class ProductJ:
    chart: ChartManifold  # the M x R chart
    J: BigEndo
    T_plus: BigSection
    T_minus: BigSection
    Fcal_lift: BigEndo
    Z_plus_lift: BigSection
    Z_minus_lift: BigSection


def default_line_basis(product: ChartManifold) -> tuple[BigSection, BigSection]:
    """T_+ = (d_t, dt), T_- = (-d_t, dt) in the product frame."""
    n = product.dim
    zero = [0] * n
    up = list(zero)
    up[n - 1] = 1
    T_plus = BigSection(VectorField(product, up), OneForm(product, up))
    dn = list(zero)
    dn[n - 1] = -1
    T_minus = BigSection(VectorField(product, dn), OneForm(product, up))
    return T_plus, T_minus


def build_product_J(
    s: TwoOneGAC,
    basis: Optional[tuple[BigSection, BigSection]] = None,
    t: str = "t",
    policy: ZeroPolicy = DEFAULT_POLICY,
) -> ProductJ:
    """J = Fcal + K on M x R, with K(T_+) = -Z_+, K(T_-) = Z_-:

    J = Fcal + flat_g Z+ (x) T+ + flat_g Z- (x) T- - flat_g T+ (x) Z+ - flat_g T- (x) Z-.

    ``basis`` may replace T_pm by any g-pseudo-orthonormal frame of the line
    factor (the one-parameter family); only pseudo-orthonormality and pure
    line-direction support are validated.
    """
    product = s.chart.product_with_line(t)
    if basis is None:
        Tp, Tm = default_line_basis(product)
    else:
        Tp, Tm = basis
        if Tp.chart != product or Tm.chart != product:
            raise StructureError("basis sections must live on the product chart")
        n = product.dim
        for T in (Tp, Tm):
            comps = T.components()
            support = [c for i, c in enumerate(comps) if i not in (n - 1, 2 * n - 1)]
            if any(not c.is_syntactic_zero for c in support):
                raise StructureError("basis sections must be supported on the line factor")
        checks = [
            ("g(T+,T+) = 1", pairing(Tp, Tp) - 1),
            ("g(T-,T-) = -1", pairing(Tm, Tm) + 1),
            ("g(T+,T-) = 0", pairing(Tp, Tm)),
        ]
        bad = [(lbl, is_zero(e, policy)) for lbl, e in checks]
        bad = [(lbl, v) for lbl, v in bad if not v.ok]
        if bad:
            raise StructureError("line basis is not g-pseudo-orthonormal", bad)
    F_lift = lift_big_endo(s.Fcal, product)
    Zp = lift_big_section(s.Z_plus, product)
    Zm = lift_big_section(s.Z_minus, product)
    J = (
        F_lift
        + BigEndo.outer(Tp, Zp)
        + BigEndo.outer(Tm, Zm)
        - BigEndo.outer(Zp, Tp)
        - BigEndo.outer(Zm, Tm)
    )
    return ProductJ(product, J, Tp, Tm, F_lift, Zp, Zm)


def check_product_J(s: TwoOneGAC, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckResult:
    """Algebra of the associated structure: J^2 = -Id and g-skewness."""
    out = CheckResult("product_J")
    pj = build_product_J(s, policy=policy)
    chart = pj.chart
    out.add("(JptFrond) J^2 = -Id", is_zero_all(
        (e for e in pj.J.square_defect(-1)), policy))
    out.add("(JptFrond) g-skewness", is_zero_all(pj.J.skew_defect(), policy))
    out.add("(fKrond) J T+ = -Z+", is_zero_all(
        (pj.J(pj.T_plus) + pj.Z_plus_lift).components(), policy))
    out.add("(fKrond) J T- = Z-", is_zero_all(
        (pj.J(pj.T_minus) - pj.Z_minus_lift).components(), policy))
    return out


def integrability_product(J: BigEndo, policy: ZeroPolicy) -> Verdict:
    """N_J = 0 over all coordinate frame pairs of the product chart."""
    bf = big_frame(J.chart)
    exprs = []
    for i in range(len(bf)):
        for j in range(i + 1, len(bf)):
            exprs.extend(nijenhuis_big(J, bf[i], bf[j]).components())
    return is_zero_all(exprs, policy, "N_J = 0")


def unified_normality_tensor(s: TwoOneGAC, A: BigSection, B: BigSection) -> BigSection:
    """The single-expression normality tensor (the unified form of the three
    normality conditions):

        N_Fcal(A,B) + d_C Z+(A,B) Z+ - d_C Z-(A,B) Z-
        - g(Z+,A) partial(g(Z+,B)) + g(Z+,B) partial(g(Z+,A))
        + g(Z-,A) partial(g(Z-,B)) - g(Z-,B) partial(g(Z-,A))

    The rank-one partial-corrections make the expression C-infinity-bilinear
    (the bare three-term combination is not: on (Z+, f Z+) it evaluates to
    partial f) while leaving its values on pure-type argument pairs, and
    hence its equivalence with the separate normality conditions, unchanged.
    """
    from ..courant import partial

    gpA, gpB = pairing(s.Z_plus, A), pairing(s.Z_plus, B)
    gmA, gmB = pairing(s.Z_minus, A), pairing(s.Z_minus, B)
    return (
        nijenhuis_big(s.Fcal, A, B)
        + s.Z_plus * naive_d(s.Z_plus, A, B)
        - s.Z_minus * naive_d(s.Z_minus, A, B)
        - partial(gpB) * gpA
        + partial(gpA) * gpB
        + partial(gmB) * gmA
        - partial(gmA) * gmB
    )


def check_normal_21(s: TwoOneGAC, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckResult:
    """Normality through the (normaltotal) conditions on M, plus the unified
    tensor (normtotal2), plus the agreement of the two formulations."""
    out = CheckResult("normal21")
    chart = s.chart
    n2 = 2 * chart.dim
    m = s.Fcal._sym()
    pr_s = BigEndo(chart, (sp.eye(n2) + m * m).tolist())
    span = [s.Fcal(e) for e in big_frame(chart)]

    out.add("(normaltotal) [Z+, Z-] = 0", is_zero_all(
        courant_bracket(s.Z_plus, s.Z_minus).components(), policy))

    exprs = []
    for Z in (s.Z_plus, s.Z_minus):
        for X in span:
            d = courant_bracket(Z, s.Fcal(X)) - s.Fcal(courant_bracket(Z, X))
            exprs.extend(d.components())
    out.add("(normaltotal) [Z+-, Fcal X] = Fcal [Z+-, X]", is_zero_all(exprs, policy))

    exprs = []
    for i in range(len(span)):
        for j in range(i + 1, len(span)):
            d = nijenhuis_big(s.Fcal, span[i], span[j]) - pr_s(
                courant_bracket(span[i], span[j])
            )
            exprs.extend(d.components())
    out.add("(normaltotal) N_Fcal = pr_S [.,.] on L", is_zero_all(exprs, policy))

    bf = big_frame(chart)
    exprs = []
    for i in range(len(bf)):
        for j in range(i + 1, len(bf)):
            exprs.extend(unified_normality_tensor(s, bf[i], bf[j]).components())
    unified = is_zero_all(exprs, policy)
    out.add("(normtotal2) unified normality tensor = 0", unified)

    three = combine(*(v for _, v in out.items[:3]))
    agree = three.ok == unified.ok
    out.add(
        "agreement of (normaltotal) and (normtotal2)",
        Verdict.proved() if agree else Verdict.failed(
            detail=f"(normaltotal) says {three.kind.value}, (normtotal2) says {unified.kind.value}"
        ),
    )
    return out


# ---------------------------------------------------------------------------
# the complex endomorphism Phi


def phi_endo(s: TwoOneGAC) -> BigEndo:
    """Phi = i Fcal + flat_g Z+ (x) Z- - flat_g Z- (x) Z+ (complex)."""
    return (
        s.Fcal * sp.I
        + BigEndo.outer(s.Z_minus, s.Z_plus)
        - BigEndo.outer(s.Z_plus, s.Z_minus)
    )


def check_phi(s: TwoOneGAC, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckResult:
    out = CheckResult("phi")
    chart = s.chart
    phi = phi_endo(s)
    out.add("(eqPhi) Phi^2 = Id", is_zero_all(phi.square_defect(1), policy))
    out.add("(eqPhi) g-skewness", is_zero_all(phi.skew_defect(), policy))
    if s.G is not None:
        gram = s.G._gram
        p = phi._sym()
        g0 = pairing_gram(chart)
        qp = g0 * sp.Matrix(s.Z_plus.column())
        qm = g0 * sp.Matrix(s.Z_minus.column())
        # G(Phi X, Phi Y) = -G(X,Y) + 2[g(Z+,X)g(Z+,Y) + g(Z-,X)g(Z-,Y)];
        # the rank-one terms are forced by Phi Z+- = Z-+ and G(Z+-,Z+-) = 1.
        d = p.T * gram * p + gram - 2 * (qp * qp.T + qm * qm.T)
        out.add("(PhiG) G(Phi X, Phi Y) = -G(X, Y) + 2 kernel terms", is_zero_all(
            (ScalarExpr(e, chart) for e in d), policy))
    # (eqGY): the +-1 eigenprojections of Phi have rank n at sample points.
    from ..numeric import rank_at

    n2 = 2 * chart.dim
    p = phi._sym()
    ranks_ok = True
    rng = policy.rng()
    points = [chart.base_point()] + [chart.sample_point(rng) for _ in range(2)]
    for sign in (1, -1):
        proj = (sp.eye(n2) + sign * p) / 2
        grid = [[ScalarExpr(proj[i, j], chart) for j in range(n2)] for i in range(n2)]
        for pt in points:
            if rank_at(grid, pt, policy.tol) != chart.dim:
                ranks_ok = False
    out.add(
        "(eqGY) eigenprojections of Phi have rank n at sample points",
        Verdict.numeric() if ranks_ok else Verdict.failed(detail="(eqGY) rank defect"),
    )
    return out


def _nijenhuis_defects(A: BigEndo):
    bf = big_frame(A.chart)
    out = []
    for i in range(len(bf)):
        for j in range(i + 1, len(bf)):
            out.append(nijenhuis_big(A, bf[i], bf[j]))
    return out


def check_gen_contact(s: TwoOneGAC, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckResult:
    """Generalized-contact criteria via Phi: the structure is generalized
    contact iff N_Phi + N_Phibar = 0 or N_Phi - N_Phibar = 0, and strong
    generalized contact iff N_Phi = 0."""
    out = CheckResult("gen_contact")
    phi = phi_endo(s)
    phibar = phi.conjugate()
    n_phi = _nijenhuis_defects(phi)
    n_phibar = _nijenhuis_defects(phibar)
    out.add("N_Phi = 0 (strong generalized contact)", is_zero_all(
        (c for d in n_phi for c in d.components()), policy))
    out.add("N_Phi + N_Phibar = 0", is_zero_all(
        (c for a, b in zip(n_phi, n_phibar) for c in (a + b).components()), policy))
    out.add("N_Phi - N_Phibar = 0", is_zero_all(
        (c for a, b in zip(n_phi, n_phibar) for c in (a - b).components()), policy))
    return out


# ---------------------------------------------------------------------------
# conformal change and the Sasakian property


def conformal_operator(chart: ChartManifold, tau: ScalarExpr) -> BigEndo:
    """C_tau (X, a) = (X, e^tau a)."""
    n = chart.dim
    e = sp.exp(chart.scalar(tau).expr)
    top = sp.eye(n).row_join(sp.zeros(n))
    bot = sp.zeros(n).row_join(e * sp.eye(n))
    return BigEndo(chart, top.col_join(bot).tolist())


def conformal_change(tau: ScalarExpr, A: BigEndo) -> BigEndo:
    """C_{-tau} o A o C_tau."""
    chart = A.chart
    return conformal_operator(chart, -chart.scalar(tau)) @ A @ conformal_operator(chart, tau)


def check_sasakian(
    s: TwoOneGAC, policy: ZeroPolicy = DEFAULT_POLICY, t: str = "t"
) -> CheckResult:
    """(2,1)-generalized Sasakian: J_t = C_{-t} o J o C_t and J'_t both
    integrable on M x R."""
    if s.G is None:
        raise PreconditionNotMet("the Sasakian criterion needs a metric structure")
    out = CheckResult("sasakian")
    pj = build_product_J(s, t=t, policy=policy)
    pj2 = build_product_J(second_structure(s), t=t, policy=policy)
    tau = pj.chart.scalar(t)
    Jt = conformal_change(tau, pj.J)
    Jt2 = conformal_change(tau, pj2.J)
    out.add("N of J_t = 0", integrability_product(Jt, policy))
    out.add("N of J'_t = 0", integrability_product(Jt2, policy))
    return out
