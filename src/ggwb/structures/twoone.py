"""(2,1)-generalized almost contact structures and their normality.

A (2,1)-structure is a generalized F structure of corank 2 and negative
index 1 together with a fixed complementary frame Z_+, Z_- (g-norms +1/-1,
g-orthogonal).  Its associated generalized almost complex structure J on
M x R decides normality; the companion Fcal' = Gcal o Fcal decides
binormality; the conformal conjugates J_t decide the Sasakian property.
"""

from __future__ import annotations

from typing import Optional

from ..calculus import (
    ChartManifold,
    EndoTM,
    TwoForm,
    _Array,
    _partials,
    _stack,
    _zeros,
    contract,
    musical_flat,
)
from ..courant import (
    BigEndo,
    BigSection,
    bracket_table,
    courant_bracket,
    flat_g,
    frame_pairs,
    lift_big_endo,
    lift_big_section,
    naive_d,
    nijenhuis_big,
    nijenhuis_frame,
    pairing,
    section_array,
    skew_table,
)
from ..errors import PreconditionNotMet, StructureError
from ..symexpr import DEFAULT_POLICY, ScalarExpr, ZeroPolicy
from ..verdict import CheckResult, Verdict, combine, once
from .classical import AlmostContact
from .genf import crf_defects
from .genmetric import GenMetric, build_gen_metric


class TwoOneGAC:
    """Fcal with complementary frame (Z_plus, Z_minus), optionally metric."""

    def __init__(self, Fcal: BigEndo, Z_plus: BigSection, Z_minus: BigSection,
                 G: Optional[GenMetric] = None, name: str = "two-one"):
        self.Fcal = Fcal
        self.Z_plus = Z_plus
        self.Z_minus = Z_minus
        self.G = G
        self.name = name

    @property
    def chart(self) -> ChartManifold:
        return self.Fcal.chart

    def Z(self, sign: int) -> BigSection:
        return self.Z_plus if sign == 1 else self.Z_minus

    # -- extraction of the equivalent classical pair ----------------------

    def classical_endos(self) -> tuple[EndoTM, EndoTM]:
        """F_pm = tau_pm o Fcal o tau_pm^{-1} (metric structures only)."""
        if self.G is None:
            raise PreconditionNotMet("classical pair needs the generalized metric")
        # the vector block of Fcal C_pm: column i is the TM part of Fcal tau_pm(d_i)
        n = self.chart.dim
        return tuple(EndoTM(self.chart, contract("ij,ja->ia", self.Fcal, self.G._frames[s])._block(
            0, n)) for s in (1, -1))

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
        out = CheckResult("classical_lift", policy)
        for sign, Z in ((1, Zp), (-1, Zm)):
            out.test("Z_pm in V_pm", (G.section(ac.Z, sign) - Z).components(), "Z_pm in V_pm")
            out.require("classical lift needs flat_gamma Z = xi and i(Z) psi = 0 "
                        "so that (Z, +-xi) lies in V_pm")
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
    require_two_one(s, policy)
    return s


def require_two_one(s: TwoOneGAC, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckResult:
    """``once(check_two_one, s, policy)``; raises StructureError with the
    failed items when it fails."""
    return once(check_two_one, s, policy).require(
        "data does not satisfy the (2,1)-structure axioms")


def check_two_one(s: TwoOneGAC, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckResult:
    out = CheckResult("two_one", policy)
    chart = s.chart
    out.test("(almoctZpm) g(Z+,Z-) = 0", pairing(s.Z_plus, s.Z_minus))
    out.test("(almoctZpm) g(Z+,Z+) = 1", pairing(s.Z_plus, s.Z_plus) - 1)
    out.test("(almoctZpm) g(Z-,Z-) = -1", pairing(s.Z_minus, s.Z_minus) + 1)
    out.test("(almctF2) Fcal Z+- = 0",
             s.Fcal(s.Z_plus).components() + s.Fcal(s.Z_minus).components())
    m = s.Fcal
    m2 = m @ m
    rank1 = BigEndo.outer(s.Z_plus, s.Z_plus) - BigEndo.outer(s.Z_minus, s.Z_minus)
    # Fcal^2 + Id - rank1 is the defect of both identities
    both = out.test("(almctF2) Fcal^2 = -Id + flat_g Z+ (x) Z+ - flat_g Z- (x) Z-",
                    (m2 + BigEndo.identity(chart) - rank1)._flat())
    out.add("(prScuframe) pr_S = g(Z+,.)Z+ - g(Z-,.)Z-", both)
    out.test("g-skewness of Fcal", m.skew_defect())
    cube = "Fcal^3 + Fcal = 0"
    out.test(cube, (m2 @ m + m)._flat())
    if s.G is not None:
        gram = s.G._gram
        qp, qm = flat_g(s.Z_plus), flat_g(s.Z_minus)
        # G(Fcal X, Fcal Y) = G(X,Y) - g(Z+,X)g(Z+,Y) - g(Z-,X)g(Z-,Y);
        # the minus on the Z- term is forced by G(Z-,Z-) = 1 and Fcal Z- = 0.
        d = m.isometry_defect(gram, contract("i,j->ij", qp, qp), contract("i,j->ij", qm, qm))
        out.test("(21metriccuZpm) metric compatibility", d)
        eig = []
        for sign, Z in ((1, s.Z_plus), (-1, s.Z_minus)):
            dd = s.G.Gcal(Z) - Z * sign
            eig.extend(dd.components())
        out.test("Z+- lie in V+-", eig)
    # Fcal^3 + Fcal = 0 makes pr_S = Id + Fcal^2 a projection onto ker Fcal,
    # so the corank is trace(pr_S); Z+- in ker Fcal with Gram matrix
    # diag(1, -1) then span it, and the pairing on it has index 1
    out.corollary("corank(Fcal) = 2", "trace(Id + Fcal^2) = 2",
                  contract("ii->", m2) + (2 * chart.dim - 2), cube)
    out.corollary("neg(Fcal) = 1", "Z+- span ker Fcal with Gram matrix diag(1, -1)", (),
                  "corank(Fcal) = 2", "(almctF2) Fcal Z+- = 0", "(almoctZpm) g(Z+,Z-) = 0",
                  "(almoctZpm) g(Z+,Z+) = 1", "(almoctZpm) g(Z-,Z-) = -1")
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


class ProductJ:
    def __init__(self, chart: ChartManifold, J: BigEndo, T_plus: BigSection,
                 T_minus: BigSection, Fcal_lift: BigEndo, Z_plus_lift: BigSection,
                 Z_minus_lift: BigSection):
        self.chart = chart  # the M x R chart
        self.J = J
        self.T_plus = T_plus
        self.T_minus = T_minus
        self.Fcal_lift = Fcal_lift
        self.Z_plus_lift = Z_plus_lift
        self.Z_minus_lift = Z_minus_lift


def default_line_basis(product: ChartManifold) -> tuple[BigSection, BigSection]:
    """T_+ = (d_t, dt), T_- = (-d_t, dt) in the product frame."""
    n = product.dim
    return tuple(BigSection.from_components(product, {(n - 1,): sign, (2 * n - 1,): 1})
                 for sign in (1, -1))


def build_product_J(
    s: TwoOneGAC,
    basis: Optional[tuple[BigSection, BigSection]] = None,
    policy: ZeroPolicy = DEFAULT_POLICY,
) -> ProductJ:
    """J = Fcal + K on M x R, with K(T_+) = -Z_+, K(T_-) = Z_-:

    J = Fcal + flat_g Z+ (x) T+ + flat_g Z- (x) T- - flat_g T+ (x) Z+ - flat_g T- (x) Z-.

    ``basis`` may replace T_pm by any g-pseudo-orthonormal frame of the line
    factor (the one-parameter family); only pseudo-orthonormality and pure
    line-direction support are validated.
    """
    product = s.chart.product_with_line()
    if basis is None:
        Tp, Tm = default_line_basis(product)
    else:
        Tp, Tm = basis
        if Tp.chart != product or Tm.chart != product:
            raise StructureError("basis sections must live on the product chart")
        n = product.dim
        if any(k not in (n - 1, 2 * n - 1) for T in (Tp, Tm) for (k,) in T.entries):
            raise StructureError("basis sections must be supported on the line factor")
        out = CheckResult("line basis", policy)
        out.test("g(T+,T+) = 1", pairing(Tp, Tp) - 1)
        out.test("g(T-,T-) = -1", pairing(Tm, Tm) + 1)
        out.test("g(T+,T-) = 0", pairing(Tp, Tm))
        out.require("line basis is not g-pseudo-orthonormal")
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
    out = CheckResult("product_J", policy)
    pj = build_product_J(s, policy=policy)
    out.test("(JptFrond) J^2 = -Id", pj.J.square_defect(-1))
    out.test("(JptFrond) g-skewness", pj.J.skew_defect())
    out.test("(fKrond) J T+ = -Z+", (pj.J(pj.T_plus) + pj.Z_plus_lift).components())
    out.test("(fKrond) J T- = Z-", (pj.J(pj.T_minus) - pj.Z_minus_lift).components())
    return out


def integrability_product(J: BigEndo, policy: ZeroPolicy) -> Verdict:
    """N_J = 0 over all coordinate frame pairs of the product chart."""
    return CheckResult("integrability", policy).test(
        "N_J = 0", frame_pairs(nijenhuis_frame(J)), "N_J = 0")


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


def _unified_frame(s: TwoOneGAC) -> _Array:
    """The unified normality tensor on every pair of frame sections, a
    2n x 2n x 2n core array, entry [k][a][b] the k-th component of
    :func:`unified_normality_tensor` (s, e_a, e_b).

    With q = g(Z, .) (so g(Z, e_b) = q_b) and [e_a, e_b] = 0, the naive
    differential is d_C Z(e_a, e_b) = D_ab - D_ba, D_ab = d_a q_b for a
    vector slot a and 0 for a covector slot, and the partial-corrections
    have covector components R_mab - R_mba with R_mab = d_m q_a q_b.
    """
    n = s.chart.dim
    table = nijenhuis_frame(s.Fcal)
    for sign, Z in ((1, s.Z_plus), (-1, s.Z_minus)):
        q = flat_g(Z)
        dq = _partials(q)  # dq[a][m] = d_m q_a
        D = _stack(contract("bm->mb", dq), _zeros(s.chart, (n, 2 * n)))  # D_ab = d_a q_b, a < n
        dc = D - contract("ab->ba", D)
        corr = _stack(_zeros(s.chart, (n, 2 * n, 2 * n)), skew_table(contract("am,b->mab", dq, q)))
        table = table + (contract("k,ab->kab", Z, dc) + corr) * sign
    return table


def check_normal_21(s: TwoOneGAC, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckResult:
    """Normality through the (normaltotal) conditions on M, plus the unified
    tensor (normtotal2), plus the agreement of the two formulations.  The
    frame-pair items are read from bracket tables, in the order of the
    per-pair definitions: Z+ then Z-, then frame section, then component;
    pairs a < b, then component."""
    out = CheckResult("normal21", policy)
    F, m = s.Fcal, 2 * s.chart.dim

    out.test("(normaltotal) [Z+, Z-] = 0", courant_bracket(s.Z_plus, s.Z_minus).components())

    # [Z, Fcal X] - Fcal [Z, X] for X = Fcal e_a
    zs = section_array([s.Z_plus, s.Z_minus])
    d = bracket_table(zs, F @ F) - contract("ij,jza->iza", F, bracket_table(zs, F))
    exprs = [row[z][a] for z in range(2) for a in range(m) for row in d]
    out.test("(normaltotal) [Z+-, Fcal X] = Fcal [Z+-, X]", exprs)

    out.test("(normaltotal) N_Fcal = pr_S [.,.] on L", crf_defects(F))

    three = combine(*(v for _, v in out.items))
    unified = out.test("(normtotal2) unified normality tensor = 0", frame_pairs(_unified_frame(s)))
    out.agreement("agreement of (normaltotal) and (normtotal2)", ("(normaltotal)", three),
                  ("(normtotal2)", unified))
    return out


# ---------------------------------------------------------------------------
# the complex endomorphism Phi


def phi_endo(s: TwoOneGAC) -> BigEndo:
    """Phi = i Fcal + flat_g Z+ (x) Z- - flat_g Z- (x) Z+ (complex)."""
    return (
        s.Fcal * s.Fcal.chart.i
        + BigEndo.outer(s.Z_minus, s.Z_plus)
        - BigEndo.outer(s.Z_plus, s.Z_minus)
    )


def check_phi(s: TwoOneGAC, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckResult:
    out = CheckResult("phi", policy)
    chart = s.chart
    phi = phi_endo(s)
    square = "(eqPhi) Phi^2 = Id"
    out.test(square, phi.square_defect(1))
    out.test("(eqPhi) g-skewness", phi.skew_defect())
    if s.G is not None:
        gram = s.G._gram
        qp, qm = flat_g(s.Z_plus), flat_g(s.Z_minus)
        # G(Phi X, Phi Y) = -G(X,Y) + 2[g(Z+,X)g(Z+,Y) + g(Z-,X)g(Z-,Y)];
        # the rank-one terms are forced by Phi Z+- = Z-+ and G(Z+-,Z+-) = 1.
        d = (contract("ki,kl,lj->ij", phi, gram, phi) + _Array(chart, gram, phi.shape)
             - (contract("i,j->ij", qp, qp) + contract("i,j->ij", qm, qm)) * 2)
        out.test("(PhiG) G(Phi X, Phi Y) = -G(X, Y) + 2 kernel terms", d._flat())
    # Phi^2 = Id makes (Id +- Phi)/2 projections, of rank n +- trace(Phi)/2
    out.corollary("(eqGY) eigenprojections of Phi have rank n", "trace(Phi) = 0",
                  contract("ii->", phi), square)
    return out


def check_gen_contact(s: TwoOneGAC, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckResult:
    """Generalized-contact criteria via Phi: the structure is generalized
    contact iff N_Phi + N_Phibar = 0 or N_Phi - N_Phibar = 0, and strong
    generalized contact iff N_Phi = 0."""
    out = CheckResult("gen_contact", policy)
    phi = phi_endo(s)
    n_phi, n_phibar = (frame_pairs(nijenhuis_frame(A)) for A in (phi, phi.conjugate()))
    out.test("N_Phi = 0 (strong generalized contact)", n_phi)
    out.test("N_Phi + N_Phibar = 0", (a + b for a, b in zip(n_phi, n_phibar)))
    out.test("N_Phi - N_Phibar = 0", (a - b for a, b in zip(n_phi, n_phibar)))
    return out


# ---------------------------------------------------------------------------
# conformal change and the Sasakian property


def conformal_operator(chart: ChartManifold, tau: ScalarExpr) -> BigEndo:
    """C_tau (X, a) = (X, e^tau a)."""
    n, e = chart.dim, chart.scalar(tau).exp()
    return BigEndo(chart, {(i, i): 1 if i < n else e for i in range(2 * n)})


def conformal_change(tau: ScalarExpr, A: BigEndo) -> BigEndo:
    """C_{-tau} o A o C_tau."""
    chart = A.chart
    return conformal_operator(chart, -chart.scalar(tau)) @ A @ conformal_operator(chart, tau)


def check_sasakian(s: TwoOneGAC, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckResult:
    """(2,1)-generalized Sasakian: J_t = C_{-t} o J o C_t and J'_t both
    integrable on M x R."""
    if s.G is None:
        raise PreconditionNotMet("the Sasakian criterion needs a metric structure")
    out = CheckResult("sasakian", policy)
    pj = build_product_J(s, policy=policy)
    pj2 = build_product_J(once(second_structure, s), policy=policy)
    tau = pj.chart.scalar("t")
    Jt = conformal_change(tau, pj.J)
    Jt2 = conformal_change(tau, pj2.J)
    for label, J in (("N of J_t = 0", Jt), ("N of J'_t = 0", Jt2)):
        out.test(label, frame_pairs(nijenhuis_frame(J)), "N_J = 0")
    return out
