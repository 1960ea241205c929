"""Embedded oriented hypersurfaces: induced metrics, second fundamental form,
induced (generalized) almost contact structures and their CRF/CRFK criteria.

Ambient objects are restricted to the hypersurface by substituting the
embedding equations; tangent pushforwards use the symbolic Jacobian.  A field
"along N" is stored as ambient-indexed components whose entries are scalars
on the domain chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import sympy as sp
from sympy.polys.domains import QQ

from .calculus import (
    ChartManifold,
    EndoTM,
    MetricField,
    OneForm,
    TwoForm,
    VectorField,
    _Array,
    _det,
    _flatten,
    _partials,
    _sum,
    contract,
    ext_d,
    frame,
    lie_derivative,
)
from .errors import ExprError, PreconditionNotMet, StructureError
from .numeric import rank_at, value_at
from .structures.classical import AlmostContact, check_almost_contact, nijenhuis_classical
from .structures.genf import GenF, build_genF_from_quadruple
from .structures.genmetric import GenMetric, build_gen_metric
from .structures.twoone import TwoOneGAC, build_21gac
from .symexpr import (
    DEFAULT_POLICY,
    ScalarExpr,
    ZeroPolicy,
    _ring,
    is_zero,
    is_zero_all,
)
from .verdict import CheckResult, Verdict


@dataclass(frozen=True)
class Embedding:
    """iota: N -> M, one scalar on N per ambient coordinate."""

    domain: ChartManifold
    ambient: ChartManifold
    components: tuple
    orientation: int = 1

    def __post_init__(self):
        if len(self.components) != self.ambient.dim:
            raise ExprError(
                f"embedding needs {self.ambient.dim} component functions"
            )
        if self.domain.dim != self.ambient.dim - 1:
            raise ExprError("hypersurface domain must have codimension one")
        if set(self.domain.coords) & set(self.ambient.coords):
            raise ExprError("domain and ambient charts must use distinct coordinate names")
        comps = tuple(self.domain.scalar(c) for c in self.components)
        object.__setattr__(self, "components", comps)
        if self.orientation not in (1, -1):
            raise ExprError("orientation must be +1 or -1")

    # -- restriction and pushforward -------------------------------------

    def _submap(self) -> dict:
        return {
            sym: comp for sym, comp in zip(self.ambient.symbols, self.components)
        }

    def restrict(self, f: ScalarExpr) -> ScalarExpr:
        """Compose an ambient scalar with the embedding."""
        return f.subs_chart(self.domain, self._submap())

    def restrict_grid(self, grid):
        return [[self.restrict(e) for e in row] for row in grid]

    def jacobian(self):
        """d iota^k / d u^a as an ambient-by-domain matrix of scalars on N."""
        return _partials(_Array(self.domain, self.components, (self.ambient.dim,))).components

    def push(self, X: VectorField):
        """Ambient components (along N) of d iota (X)."""
        return contract("ka,a->k", self.jacobian(), X)


# ---------------------------------------------------------------------------
# unit normal


def _sqrt_positive(q: ScalarExpr, chart: ChartManifold, policy: ZeroPolicy) -> ScalarExpr:
    """The square root of q in its field, positive at the base point.

    q is a perfect square when the square-free decompositions of its
    numerator and denominator have only even multiplicities and a square
    rational content; the root halves them, and r*r == q is checked
    exactly.
    """
    num, den = (_halve_exponents(p) for p in (q.rf.numer, q.rf.denom))
    if num is not None and den is not None:
        r = _ring(chart, q.rf.field.new(num, den))
        if r * r == q:
            base_val = value_at(r, chart.base_point())
            if abs(base_val.imag) <= policy.tol and base_val.real != 0:
                return -r if base_val.real < 0 else r
    raise StructureError(
        "cannot express the normal's length in the expression grammar; "
        "use a chart in which gamma(n~, n~) is a perfect square "
        "(a rational parametrization, for instance)"
    )


def _halve_exponents(p):
    """The square root of a polynomial that is a square over Q (a square
    rational content, every square-free factor of even multiplicity), or
    None."""
    if p.ring.domain is not QQ:
        return None
    coeff, factors = p.sqf_list()
    rn, rd = (math.isqrt(max(v, 0)) for v in (coeff.numerator, coeff.denominator))
    if coeff <= 0 or (rn * rn, rd * rd) != (coeff.numerator, coeff.denominator):
        return None
    if any(k % 2 for _, k in factors):
        return None
    return math.prod((f ** (k // 2) for f, k in factors), start=p.ring.ground_new(QQ(rn, rd)))


def unit_normal(e: Embedding, gamma: MetricField, policy: ZeroPolicy = DEFAULT_POLICY):
    """gamma-unit normal along N from the cross-product/cofactor construction,
    oriented so that (frame of N, n) is positively oriented, then flipped by
    the embedding's orientation flag."""
    chart = e.domain
    n = e.ambient.dim
    jac = e.jacobian()
    g_res = e.restrict_grid(gamma.matrix)
    # rank audit of the Jacobian at the base point
    if rank_at(jac, chart.base_point(), policy.tol) != chart.dim:
        raise StructureError("embedding Jacobian is rank-deficient at the base point")
    # omega_k = det [ jac columns | e_k ], expanded along the last column
    cof = [(-1) ** (k + n - 1) * _det(jac[:k] + jac[k + 1:]) for k in range(n)]
    ginv_res = e.restrict_grid(gamma.inverse_matrix())
    ntilde = contract("ik,k->i", ginv_res, cof)
    q = contract("ij,i,j->", g_res, ntilde, ntilde)
    lam = _sqrt_positive(q, chart, policy)
    nu = [c / lam for c in ntilde]
    if e.orientation == -1:
        nu = [-c for c in nu]
    return nu


# ---------------------------------------------------------------------------
# Gauss-Weingarten data


@dataclass
class HypersurfaceGeometry:
    embedding: Embedding
    gamma: MetricField  # ambient metric (on the ambient chart)
    nu: list  # ambient components along N
    s: MetricField  # induced metric on N
    kappa: Optional[TwoForm]  # iota^* psi, when psi given
    b: list  # second fundamental form grid (domain x domain)
    weingarten: EndoTM
    gamma_res: list  # restricted ambient metric
    jac: list
    christoffel_res: list  # restricted ambient Christoffel symbols

    def b_apply(self, X: VectorField, Y: VectorField) -> ScalarExpr:
        return contract("ac,a,c->", self.b, X, Y)


def _ambient_christoffels_restricted(e: Embedding, gamma: MetricField):
    conn = gamma.connection()
    n = e.ambient.dim
    return [
        [[e.restrict(conn.christoffel[k][i][j]) for j in range(n)] for i in range(n)]
        for k in range(n)
    ]


def _d_along(e: Embedding, jac, gam_res, a: int, v) -> list:
    """d/du^a v^k + Gamma^k_ij d iota^i/du^a v^j, for v along N."""
    u = e.domain.coords[a]
    col = [row[a] for row in jac]
    return [_sum(vk.diff(u), t) for vk, t in zip(v, contract("kij,i,j->k", gam_res, col, v))]


def _pullback(t_res, jac) -> list:
    """Raw iota^* components: t(d iota(d_a), d iota(d_c))."""
    return contract("ij,ia,jc->ac", t_res, jac, jac)


def second_fundamental_form(
    e: Embedding,
    gamma: MetricField,
    psi: Optional[TwoForm] = None,
    policy: ZeroPolicy = DEFAULT_POLICY,
) -> HypersurfaceGeometry:
    """Build the full Gauss-Weingarten package: s = iota^* gamma, the unit
    normal, b(X,Y) = gamma(nabla_X d iota(Y), nu) and the Weingarten
    operator with s(W X, Y) = b(X, Y)."""
    chart = e.domain
    m = chart.dim
    jac = e.jacobian()
    g_res = e.restrict_grid(gamma.matrix)
    s = MetricField(chart, _pullback(g_res, jac))
    kappa = None
    if psi is not None:
        p_res = e.restrict_grid(psi.matrix)
        kappa = TwoForm(chart, _pullback(p_res, jac))
    nu = unit_normal(e, gamma, policy)
    gam_res = _ambient_christoffels_restricted(e, gamma)
    b = [[None] * m for _ in range(m)]
    for a in range(m):
        for c in range(m):
            dv = _d_along(e, jac, gam_res, a, [row[c] for row in jac])
            b[a][c] = contract("ij,i,j->", g_res, dv, nu)
    # W^c_a = -s^cd gamma(nabla_a nu, d iota(d_d))
    w_grid = [[None] * m for _ in range(m)]
    s_inv = s.inverse_matrix()
    for a in range(m):
        dnu = _d_along(e, jac, gam_res, a, nu)
        inner = contract("ij,i,jd->d", g_res, dnu, jac)
        for c, val in enumerate(contract("cd,d->c", s_inv, inner)):
            w_grid[c][a] = -val
    W = EndoTM(chart, w_grid)
    return HypersurfaceGeometry(e, gamma, nu, s, kappa, b, W, g_res, jac, gam_res)


def check_hyp_geometry(
    geo: HypersurfaceGeometry, policy: ZeroPolicy = DEFAULT_POLICY
) -> CheckResult:
    """The defining identities of the Gauss-Weingarten data."""
    out = CheckResult("hyp_geometry")
    chart = geo.embedding.domain
    m = chart.dim

    def inner(v, w) -> ScalarExpr:
        return contract("ij,i,j->", geo.gamma_res, v, w)

    out.add("gamma(nu, nu) = 1", is_zero(inner(geo.nu, geo.nu) - 1, policy))
    cols = [[row[a] for row in geo.jac] for a in range(m)]
    out.add("gamma(nu, d iota X) = 0", is_zero_all(
        (inner(geo.nu, cols[a]) for a in range(m)), policy))
    out.add("b symmetric", is_zero_all(
        (geo.b[a][c] - geo.b[c][a] for a in range(m) for c in range(a + 1, m)), policy))
    sw = []
    for a in range(m):
        WX = geo.weingarten(frame(chart)[a])
        for c in range(m):
            sw.append(geo.s(WX, frame(chart)[c]) - geo.b[a][c])
    out.add("s(W X, Y) = b(X, Y)", is_zero_all(sw, policy))
    # normal connection vanishes: gamma(nabla_a nu, nu) = 0
    out.add("nabla^nu nu = 0", is_zero_all(
        (inner(_d_along(geo.embedding, geo.jac, geo.christoffel_res, a, geo.nu), geo.nu)
         for a in range(m)), policy))
    return out


# ---------------------------------------------------------------------------
# induced classical structure


def induced_almost_contact(
    e: Embedding,
    gamma: MetricField,
    J: EndoTM,
    geo: Optional[HypersurfaceGeometry] = None,
    policy: ZeroPolicy = DEFAULT_POLICY,
    name: str = "induced",
) -> AlmostContact:
    """Decompose J X = F X + xi(X) nu and Z = -J nu into tangential data."""
    chart = e.domain
    m = chart.dim
    geo = geo or second_fundamental_form(e, gamma, None, policy)
    j_res = e.restrict_grid(J.matrix)
    s_inv = geo.s.inverse_matrix()

    def tangential(v) -> list:
        """s^cd gamma(v, d iota(d_d)), raw: the TN components of v along N."""
        inner = contract("ij,i,jd->d", geo.gamma_res, v, geo.jac)
        return contract("cd,d->c", s_inv, inner)

    f_grid = [[None] * m for _ in range(m)]
    xi_comps = []
    for a in range(m):
        v = contract("ij,j->i", j_res, [row[a] for row in geo.jac])
        for c, val in enumerate(tangential(v)):
            f_grid[c][a] = val
        xi_comps.append(contract("ij,i,j->", geo.gamma_res, v, geo.nu))
    z_amb = [-c for c in contract("ij,j->i", j_res, geo.nu)]
    z_comps = tangential(z_amb)
    return AlmostContact(
        EndoTM(chart, f_grid),
        VectorField(chart, z_comps),
        OneForm(chart, xi_comps),
        geo.s,
        name=name,
    )


def check_induced_contact(
    e: Embedding,
    gamma: MetricField,
    J: EndoTM,
    geo: Optional[HypersurfaceGeometry] = None,
    policy: ZeroPolicy = DEFAULT_POLICY,
) -> CheckResult:
    """Induced structure passes the almost contact axioms, the decomposition
    residuals vanish, and the fundamental form is the pullback of the Kaehler
    form."""
    out = CheckResult("induced_contact")
    chart = e.domain
    n = e.ambient.dim
    geo = geo or second_fundamental_form(e, gamma, None, policy)
    ac = induced_almost_contact(e, gamma, J, geo, policy)
    sub = check_almost_contact(ac, policy)
    out.add("(almcont)+(clasmetric) for the induced structure", sub.verdict)
    j_res = e.restrict_grid(J.matrix)
    resid = []
    for a, X in enumerate(frame(chart)):
        v = contract("ij,j->i", j_res, [row[a] for row in geo.jac])
        pushF = e.push(ac.F(X))
        for k in range(n):
            resid.append(v[k] - pushF[k] - ac.xi.components[a] * geo.nu[k])
    out.add("(strind1) J X = F X + xi(X) nu", is_zero_all(resid, policy))
    z_amb = [-c for c in contract("ij,j->i", j_res, geo.nu)]
    pushZ = e.push(ac.Z)
    out.add("(strind1) Z = -J nu is tangent", is_zero_all(
        (z_amb[k] - pushZ[k] for k in range(n)), policy))
    # fundamental form: Xi = iota^* Omega
    omega = _kaehler_form(gamma, J)
    om_res = e.restrict_grid(omega.matrix)
    xi_fund = ac.fundamental_form().components
    pulled = _pullback(om_res, geo.jac)
    exprs = [
        xi_fund[a][c] - pulled[a][c]
        for a in range(chart.dim)
        for c in range(a + 1, chart.dim)
    ]
    out.add("Xi = iota^* Omega", is_zero_all(exprs, policy))
    return out


def _kaehler_form(gamma: MetricField, J: EndoTM) -> TwoForm:
    """Omega(X, Y) = gamma(J X, Y)."""
    return TwoForm(gamma.chart, contract("ki,kj->ij", J, gamma))


# ---------------------------------------------------------------------------
# ambient validations


def check_hermitian_identities(
    gamma: MetricField, J: EndoTM, policy: ZeroPolicy = DEFAULT_POLICY
) -> CheckResult:
    """(eqdinKN) and (identHerm) on all coordinate frame triples."""
    out = CheckResult("hermitian")
    chart = gamma.chart
    n = chart.dim
    fr = frame(chart)
    conn = gamma.connection()
    omega = _kaehler_form(gamma, J)
    dom = ext_d(omega)
    exprs = []
    for i in range(n):
        nj = conn.nabla(fr[i], J)
        for j in range(n):
            njY = nj(fr[j])
            JY = J(fr[j])
            for k in range(n):
                lhs = 2 * gamma(njY, fr[k])
                rhs = dom(fr[i], fr[j], fr[k]) - dom(fr[i], JY, J(fr[k]))
                exprs.append(lhs - rhs)
    out.add("(eqdinKN) 2 gamma(nabla_X J(Y), U) = dOmega(X,Y,U) - dOmega(X,JY,JU)",
            is_zero_all(exprs, policy))
    exprs = []
    jf = [J(v) for v in fr]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = dom(jf[i], jf[j], jf[k])
                rhs = dom(jf[i], fr[j], fr[k]) + dom(fr[i], jf[j], fr[k]) + dom(fr[i], fr[j], jf[k])
                exprs.append(lhs - rhs)
    out.add("(identHerm) dOmega(JZ,JX,JY) = dOmega(JZ,X,Y) + dOmega(Z,JX,Y) + dOmega(Z,X,JY)",
            is_zero_all(exprs, policy))
    return out


def check_almost_hermitian(
    gamma: MetricField, J: EndoTM, policy: ZeroPolicy = DEFAULT_POLICY
) -> CheckResult:
    out = CheckResult("almost_hermitian")
    chart = gamma.chart
    out.add("J^2 = -Id", is_zero_all(
        _flatten((J @ J + EndoTM.identity(chart)).components), policy))
    out.add("gamma(JX, JY) = gamma(X, Y)", is_zero_all(J.isometry_defect(gamma), policy))
    fr = frame(chart)
    exprs = []
    for i in range(chart.dim):
        for k in range(i + 1, chart.dim):
            exprs.extend(nijenhuis_classical(J, fr[i], fr[k]).components)
    out.add("N_J = 0 (integrability)", is_zero_all(exprs, policy))
    return out


def check_gen_kahler(
    gamma: MetricField,
    psi: TwoForm,
    J_plus: EndoTM,
    J_minus: EndoTM,
    policy: ZeroPolicy = DEFAULT_POLICY,
) -> CheckResult:
    """Generalized Kaehler validation: integrable J_pm plus (relpsiJ), with
    the equivalent (relpsiOmega) form cross-checked."""
    out = CheckResult("gen_kahler")
    chart = gamma.chart
    n = chart.dim
    fr = frame(chart)
    conn = gamma.connection()
    dpsi = ext_d(psi)
    for tag, J in (("J+", J_plus), ("J-", J_minus)):
        sub = check_almost_hermitian(gamma, J, policy)
        out.add(f"(gamma, {tag}) is Hermitian", sub.verdict)
    relpsij = []
    relpsiom = []
    for sign, J in ((1, J_plus), (-1, J_minus)):
        omega = _kaehler_form(gamma, J)
        dom = ext_d(omega)
        jf = [J(v) for v in fr]
        for i in range(n):
            nj = conn.nabla(fr[i], J)
            for j in range(n):
                for k in range(n):
                    lhs = gamma(nj(fr[j]), fr[k])
                    rhs = dpsi(fr[i], jf[j], fr[k]) + dpsi(fr[i], fr[j], jf[k])
                    relpsij.append(lhs + sp.Rational(sign, 2) * rhs)
                    relpsiom.append(dom(jf[i], jf[j], jf[k]) + sign * dpsi(fr[i], fr[j], fr[k]))
    v_j = is_zero_all(relpsij, policy)
    v_om = is_zero_all(relpsiom, policy)
    out.add("(relpsiJ) gamma(nabla_X J(Y), U) = -+ (1/2)[dpsi(X,JY,U) + dpsi(X,Y,JU)]", v_j)
    out.add("(relpsiOmega) dOmega(JX,JY,JU) = -+ dpsi(X,Y,U)", v_om)
    out.add(
        "(relpsiJ) <=> (relpsiOmega)",
        Verdict.proved() if v_j.ok == v_om.ok else Verdict.failed(
            detail=f"(relpsiJ) says {v_j.kind.value}, (relpsiOmega) says {v_om.kind.value}"
        ),
    )
    return out


# ---------------------------------------------------------------------------
# hypersurface-level CRF / normality / CRFK criteria


def _require_hermitian(gamma: MetricField, J: EndoTM, policy: ZeroPolicy) -> None:
    sub = check_almost_hermitian(gamma, J, policy)
    if not sub.ok:
        bad = [lbl for lbl, v in sub.items if not v.ok]
        raise PreconditionNotMet(
            f"ambient structure is not Hermitian (failed: {', '.join(bad)})"
        )


def check_hyp_CRF(
    e: Embedding,
    gamma: MetricField,
    J: EndoTM,
    geo: Optional[HypersurfaceGeometry] = None,
    policy: ZeroPolicy = DEFAULT_POLICY,
    _normal: bool = False,
) -> CheckResult:
    """(eqCRF2): dOmega(JX,JY,Jnu) = dOmega(X,Y,Jnu) and b(FX,FY) = b(X,Y)
    for X, Y in P = im F; with (eqnormal2) on top for the normality form."""
    _require_hermitian(gamma, J, policy)
    out = CheckResult("hyp_normal" if _normal else "hyp_CRF")
    chart = e.domain
    m = chart.dim
    geo = geo or second_fundamental_form(e, gamma, None, policy)
    ac = induced_almost_contact(e, gamma, J, geo, policy)
    j_res = e.restrict_grid(J.matrix)
    dom_res = [
        [[e.restrict(x) for x in row] for row in plane]
        for plane in ext_d(_kaehler_form(gamma, J)).components
    ]
    fr = frame(chart)
    span_p = [ac.F(v) for v in fr]
    push_p = [e.push(X) for X in span_p]

    def J_along(v) -> list:
        return contract("ij,j->i", j_res, v)

    def dom(v1, v2, v3) -> ScalarExpr:
        return contract("ijk,i,j,k->", dom_res, v1, v2, v3)

    jnu = J_along(geo.nu)
    exprs = []
    for i in range(m):
        jx = J_along(push_p[i])
        for j in range(i + 1, m):
            jy = J_along(push_p[j])
            exprs.append(dom(jx, jy, jnu) - dom(push_p[i], push_p[j], jnu))
    out.add("(eqCRF2) dOmega(JX, JY, Jnu) = dOmega(X, Y, Jnu) on P", is_zero_all(exprs, policy))
    exprs = []
    for i in range(m):
        for j in range(i, m):
            exprs.append(
                geo.b_apply(ac.F(span_p[i]), ac.F(span_p[j]))
                - geo.b_apply(span_p[i], span_p[j])
            )
    out.add("(eqCRF2) b(FX, FY) = b(X, Y) on P", is_zero_all(exprs, policy))
    if _normal:
        push_z = e.push(ac.Z)
        exprs = []
        for i in range(m):
            exprs.append(
                geo.b_apply(ac.Z, span_p[i])
                + sp.Rational(1, 2) * dom(geo.nu, push_z, J_along(push_p[i]))
            )
        out.add("(eqnormal2) b(Z, X) = -(1/2) dOmega(nu, Z, JX) on P", is_zero_all(exprs, policy))
    return out


def check_hyp_normal(
    e: Embedding,
    gamma: MetricField,
    J: EndoTM,
    geo: Optional[HypersurfaceGeometry] = None,
    policy: ZeroPolicy = DEFAULT_POLICY,
) -> CheckResult:
    return check_hyp_CRF(e, gamma, J, geo, policy, _normal=True)


def check_fundamental_form_property(
    e: Embedding,
    gamma: MetricField,
    J: EndoTM,
    geo: Optional[HypersurfaceGeometry] = None,
    policy: ZeroPolicy = DEFAULT_POLICY,
) -> CheckResult:
    """(LXi): L_Z Xi (FX, FY) = L_Z Xi (X, Y), on the full coordinate frame,
    with the agreement against the first (eqCRF2) line as a separate item."""
    out = CheckResult("LXi")
    chart = e.domain
    m = chart.dim
    geo = geo or second_fundamental_form(e, gamma, None, policy)
    ac = induced_almost_contact(e, gamma, J, geo, policy)
    lxi = lie_derivative(ac.Z, ac.fundamental_form())
    fr = frame(chart)
    exprs = []
    for i in range(m):
        for j in range(i + 1, m):
            exprs.append(lxi(ac.F(fr[i]), ac.F(fr[j])) - lxi(fr[i], fr[j]))
    v = is_zero_all(exprs, policy)
    out.add("(LXi) L_Z Xi(FX, FY) = L_Z Xi(X, Y) on TN", v)
    crf = check_hyp_CRF(e, gamma, J, geo, policy)
    first = crf.subverdict("(eqCRF2) dOmega(JX, JY, Jnu) = dOmega(X, Y, Jnu) on P")
    out.add(
        "(LXi) equivalent to the first (eqCRF2) condition",
        Verdict.proved() if v.ok == first.ok else Verdict.failed(
            detail=f"(LXi) says {v.kind.value}, (eqCRF2) line 1 says {first.kind.value}"
        ),
    )
    return out


# ---------------------------------------------------------------------------
# induced generalized structure and the CRFK criterion


@dataclass
class InducedGenStructure:
    geo: HypersurfaceGeometry
    ac_plus: AlmostContact
    ac_minus: AlmostContact
    gen_metric: GenMetric
    genf: GenF
    two_one: TwoOneGAC


def induced_gen_structure(
    e: Embedding,
    gamma: MetricField,
    psi: TwoForm,
    J_plus: EndoTM,
    J_minus: EndoTM,
    policy: ZeroPolicy = DEFAULT_POLICY,
) -> InducedGenStructure:
    """(F_pm, Z_pm, xi_pm, s, kappa) by double induction, the quadruple-built
    Fcal, and Z_pm = (Z_pm, flat_{kappa +- s} Z_pm)."""
    geo = second_fundamental_form(e, gamma, psi, policy)
    acp = induced_almost_contact(e, gamma, J_plus, geo, policy, name="induced+")
    acm = induced_almost_contact(e, gamma, J_minus, geo, policy, name="induced-")
    G = build_gen_metric(geo.s, geo.kappa, policy)
    genf = build_genF_from_quadruple(G, acp.F, acm.F, policy)
    Zp = G.section(acp.Z, 1)
    Zm = G.section(acm.Z, -1)
    two_one = build_21gac(genf.Fcal, Zp, Zm, G, policy, name="induced-21")
    return InducedGenStructure(geo, acp, acm, G, genf, two_one)


def check_hyp_CRFK(
    e: Embedding,
    gamma: MetricField,
    psi: TwoForm,
    J_plus: EndoTM,
    J_minus: EndoTM,
    policy: ZeroPolicy = DEFAULT_POLICY,
    geo: Optional[HypersurfaceGeometry] = None,
) -> CheckResult:
    """(eqptans3) for a hypersurface of a generalized Kaehler manifold; on
    success the induced classical structures must come out normal."""
    amb = check_gen_kahler(gamma, psi, J_plus, J_minus, policy)
    if not amb.ok:
        bad = [lbl for lbl, v in amb.items if not v.ok]
        raise PreconditionNotMet(
            f"ambient structure is not generalized Kaehler (failed: {', '.join(bad)})"
        )
    out = CheckResult("hyp_CRFK")
    chart = e.domain
    m = chart.dim
    geo = geo or second_fundamental_form(e, gamma, psi, policy)
    dpsi_res = [
        [[e.restrict(x) for x in row] for row in plane] for plane in ext_d(psi).components
    ]
    fr = frame(chart)
    # iota^*(i(nu) dpsi)
    rho = contract("ijk,i,ja,kc->ac", dpsi_res, geo.nu, geo.jac, geo.jac)

    def rho_apply(X: VectorField, Y: VectorField) -> ScalarExpr:
        return contract("ac,a,c->", rho, X, Y)

    for sign, J in ((1, J_plus), (-1, J_minus)):
        tag = "+" if sign == 1 else "-"
        ac = induced_almost_contact(e, gamma, J, geo, policy)
        span_p = [ac.F(v) for v in fr]
        exprs = []
        for i in range(m):
            for j in range(i + 1, m):
                exprs.append(
                    rho_apply(ac.F(span_p[i]), ac.F(span_p[j]))
                    - rho_apply(span_p[i], span_p[j])
                )
        out.add(
            f"(eqptans3) i(nu)dpsi invariance under F{tag} on P{tag}",
            is_zero_all(exprs, policy),
        )
        exprs = []
        for X in fr:
            for U in span_p:
                fu = ac.F(U)
                exprs.append(
                    geo.b_apply(X, fu) + sp.Rational(sign, 2) * rho_apply(X, fu)
                )
        out.add(
            f"(eqptans3) b(X, F{tag} U) = {'-' if sign == 1 else '+'}(1/2) "
            f"iota^*(i(nu)dpsi)(X, F{tag} U)",
            is_zero_all(exprs, policy),
        )
    if out.ok:
        from .structures.classical import check_normal_classical

        for tag, J in (("+", J_plus), ("-", J_minus)):
            ac = induced_almost_contact(e, gamma, J, geo, policy)
            sub = check_normal_classical(ac, policy)
            out.add(f"CRFK consequence: induced structure {tag} is normal", sub.verdict)
    return out
