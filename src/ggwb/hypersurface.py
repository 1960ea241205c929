"""Embedded oriented hypersurfaces: induced metrics, second fundamental form,
induced (generalized) almost contact structures and their CRF/CRFK criteria.

Ambient objects are restricted to the hypersurface by substituting the
embedding equations; tangent pushforwards use the symbolic Jacobian.  A field
"along N" is stored as ambient-indexed components whose entries are scalars
on the domain chart.

The spanning set {F d_a} of P = im F is the columns of the induced F, and
its pushforward those of jac F, so a criterion on P contracts its tensor
(b, dOmega, iota^*(i(nu) dpsi), L_Z Xi) with F, F^2, jac, J and nu.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Optional

from .calculus import (
    ChartManifold,
    EndoTM,
    MetricField,
    OneForm,
    TwoForm,
    VectorField,
    _Array,
    _det,
    _minor,
    _partials,
    contract,
    ext_d,
    lie_derivative,
    zero_twoform,
)
from .errors import ExprError, PreconditionNotMet, StructureError
from .courant import frame_pairs
from .structures.classical import (
    AlmostContact,
    check_almost_contact,
    check_normal_classical,
    nijenhuis_table,
)
from .structures.genf import GenF, build_genF_from_quadruple
from .structures.genmetric import build_gen_metric
from .structures.twoone import TwoOneGAC, require_two_one
from .poly import ground, mul, power, sqf_list
from .symexpr import (
    DEFAULT_POLICY,
    ScalarExpr,
    ZeroPolicy,
    _fraction,
    _ring,
    sign_at,
)
from .verdict import CheckResult, Frozen, once, run


class Embedding(Frozen):
    """iota: N -> M, one scalar on N per ambient coordinate.  Immutable;
    equal to an embedding with the same fields."""

    def __init__(self, domain: ChartManifold, ambient: ChartManifold, components: tuple,
                 orientation: int = 1):
        if len(components) != ambient.dim:
            raise ExprError(
                f"embedding needs {ambient.dim} component functions"
            )
        if domain.dim != ambient.dim - 1:
            raise ExprError("hypersurface domain must have codimension one")
        if set(domain.coords) & set(ambient.coords):
            raise ExprError("domain and ambient charts must use distinct coordinate names")
        components = tuple(domain.scalar(c) for c in components)
        if orientation not in (1, -1):
            raise ExprError("orientation must be +1 or -1")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "orientation", orientation)

    def _key(self) -> tuple:
        return self.domain, self.ambient, self.components, self.orientation

    # -- restriction -------------------------------------------------------

    def _submap(self) -> dict:
        return dict(zip(self.ambient.coords, self.components))

    def restrict(self, f: ScalarExpr) -> ScalarExpr:
        """Compose an ambient scalar with the embedding."""
        return f.subs_chart(self.domain, self._submap())

    def restrict_grid(self, t) -> _Array:
        """An ambient core array composed with the embedding, entry by entry."""
        return _Array(self.domain, {ix: self.restrict(e) for ix, e in t._items().items()}, t.shape)

    def jacobian(self) -> _Array:
        """d iota^k / d u^a as an ambient-by-domain core array of scalars on N."""
        return _partials(_Array(self.domain, self.components, (self.ambient.dim,)))


# ---------------------------------------------------------------------------
# unit normal


def _sqrt_positive(q: ScalarExpr, chart: ChartManifold, policy: ZeroPolicy) -> Optional[ScalarExpr]:
    """The square root of q in its field, positive at the base point, or
    None when q has none there.

    q is a perfect square when the square-free decompositions of its
    numerator and denominator have only even multiplicities and a square
    integer content; the root halves them, and r*r == q is checked
    exactly.
    """
    num, den = (_halve_exponents(p, q.rf.field) for p in (q.rf.numer, q.rf.denom))
    if num is not None and den is not None:
        r = _ring(chart, _fraction(q.rf.field, num, den))
        if r * r == q:
            sign = sign_at(r, chart.base_point(), policy.tol)
            if sign:
                return -r if sign < 0 else r
    return None


def _halve_exponents(p, K):
    """The square root of a polynomial of K that is a square over Z (a
    square positive content, every square-free factor of even multiplicity,
    by Yun's algorithm), or None."""
    if K.gaussian:
        return None
    coeff, factors = sqf_list(p)
    root = math.isqrt(max(coeff, 0))
    if coeff <= 0 or root * root != coeff or any(k % 2 for _, k in factors):
        return None
    return functools.reduce(mul, (power(f, k // 2) for f, k in factors), ground(root))


def unit_normal(e: Embedding, gamma: MetricField, policy: ZeroPolicy = DEFAULT_POLICY) -> _Array:
    """gamma-unit normal along N from the cross-product/cofactor construction,
    oriented so that (frame of N, n) is positively oriented, then flipped by
    the embedding's orientation flag."""
    chart = e.domain
    n = e.ambient.dim
    jac, g_res = once(Embedding.jacobian, e), once(Embedding.restrict_grid, e, gamma)
    # omega_k = det [ jac columns | e_k ], expanded along the last column
    cof = [(-1) ** (k + n - 1) * _det(_minor(jac, k)) for k in range(n)]
    # rank audit: the Jacobian has full rank where one of its maximal minors is nonzero
    if not any(sign_at(c, chart.base_point(), policy.tol) for c in cof):
        raise StructureError("embedding Jacobian is rank-deficient at the base point")
    ginv_res = e.restrict_grid(gamma.inverse_matrix())
    ntilde = contract("ik,k->i", ginv_res, cof)
    q = contract("ij,i,j->", g_res, ntilde, ntilde)
    lam = _sqrt_positive(q, chart, policy)
    if lam is None:
        raise ExprError(
            f"hypersurface '{chart.name}' in '{e.ambient.name}': cannot express the normal's "
            "length in the expression grammar; use a chart in which gamma(n~, n~) is a "
            "perfect square (a rational parametrization, for instance)"
        )
    nu = ntilde * (1 / lam)
    return -nu if e.orientation == -1 else nu


# ---------------------------------------------------------------------------
# Gauss-Weingarten data


class HypersurfaceGeometry:
    """The Gauss-Weingarten data of one hypersurface, and reads of the
    structures built from it: from an ambient J its restriction, the
    restricted dOmega and the induced almost contact structure, and from a
    pair J_pm the induced generalized structure.  Each read is a
    :func:`~ggwb.verdict.once` of a module-level build, so a run builds it
    one time per ambient field (compared by identity) and separate runs
    share nothing."""

    def __init__(self, embedding: Embedding, gamma: MetricField, psi: TwoForm,
                 policy: ZeroPolicy, nu: _Array, s: MetricField, kappa: TwoForm, b: _Array,
                 weingarten: EndoTM, gamma_res: _Array, jac: _Array, christoffel_res: _Array):
        self.embedding = embedding
        self.gamma = gamma  # ambient metric (on the ambient chart)
        self.psi = psi  # ambient 2-form (zero when none is given)
        self.policy = policy  # of the build and of the validations of induced structures
        self.nu = nu  # ambient components along N
        self.s = s  # induced metric on N
        self.kappa = kappa  # iota^* psi
        self.b = b  # second fundamental form (domain x domain)
        self.weingarten = weingarten
        self.gamma_res = gamma_res  # restricted ambient metric
        self.jac = jac
        self.christoffel_res = christoffel_res  # restricted ambient Christoffel symbols

    def push(self, X: VectorField) -> _Array:
        """Ambient components (along N) of d iota (X)."""
        return contract("ka,a->k", self.jac, X)

    def J_res(self, J: EndoTM) -> _Array:
        """The ambient J restricted to N."""
        return once(Embedding.restrict_grid, self.embedding, J)

    def dOmega_res(self, J: EndoTM) -> _Array:
        """d of the Kaehler form of (gamma, J), restricted to N."""
        return once(_dOmega_res, self, J)

    def contact(self, J: EndoTM) -> AlmostContact:
        """The almost contact structure J induces on N."""
        return once(induced_almost_contact, self, J)

    def gen_structure(self, J_plus: EndoTM, J_minus: EndoTM) -> "InducedGenStructure":
        """The generalized structure the pair J_pm induces on N."""
        return once(induced_gen_structure, self, J_plus, J_minus)


def _dOmega_res(geo: HypersurfaceGeometry, J: EndoTM) -> _Array:
    return geo.embedding.restrict_grid(ext_d(_kaehler_form(geo.gamma, J)))


def _along(gam_res: _Array, jac: _Array, v: _Array) -> _Array:
    """nabla_{d_a} v = d_a v^k + Gamma^k_ij d_a iota^i v^j for a field v
    along N (a column array of them when v has a second slot): the slots of
    v, then a."""
    rest = "c"[: len(v.shape) - 1]
    return _partials(v) + contract(f"kij,ia,j{rest}->k{rest}a", gam_res, jac, v)


def _pullback(t_res, jac) -> _Array:
    """Raw iota^* components: t(d iota(d_a), d iota(d_c))."""
    return contract("ij,ia,jc->ac", t_res, jac, jac)


@run()
def second_fundamental_form(
    e: Embedding,
    gamma: MetricField,
    psi: Optional[TwoForm] = None,
    policy: ZeroPolicy = DEFAULT_POLICY,
) -> HypersurfaceGeometry:
    """Build the full Gauss-Weingarten package: s = iota^* gamma,
    kappa = iota^* psi (psi = 0 when None), the unit normal,
    b(X,Y) = gamma(nabla_X d iota(Y), nu) and the Weingarten operator with
    s(W X, Y) = b(X, Y)."""
    chart = e.domain
    jac, g_res = once(Embedding.jacobian, e), once(Embedding.restrict_grid, e, gamma)
    s = MetricField(chart, _pullback(g_res, jac))
    if psi is None:
        psi = zero_twoform(gamma.chart)
    kappa = TwoForm(chart, _pullback(e.restrict_grid(psi), jac))
    nu = unit_normal(e, gamma, policy)
    gam_res = e.restrict_grid(gamma.connection().christoffel)
    # b(d_a, d_c) = gamma(nabla_a d iota(d_c), nu)
    b = contract("ica,ij,j->ac", _along(gam_res, jac, jac), g_res, nu)
    # W^c_a = -s^cd gamma(nabla_a nu, d iota(d_d))
    inner = contract("ij,ia,jd->ad", g_res, _along(gam_res, jac, nu), jac)
    W = EndoTM(chart, -contract("cd,ad->ca", s.inverse_matrix(), inner))
    return HypersurfaceGeometry(e, gamma, psi, policy, nu, s, kappa, b, W, g_res, jac, gam_res)


def check_hyp_geometry(
    geo: HypersurfaceGeometry, policy: ZeroPolicy = DEFAULT_POLICY
) -> CheckResult:
    """The defining identities of the Gauss-Weingarten data."""
    out = CheckResult("hyp_geometry", policy)
    out.test("gamma(nu, nu) = 1", contract("ij,i,j->", geo.gamma_res, geo.nu, geo.nu) - 1)
    out.test("gamma(nu, d iota X) = 0",
             contract("ij,i,ja->a", geo.gamma_res, geo.nu, geo.jac)._flat())
    out.test("b symmetric", frame_pairs(geo.b - contract("ac->ca", geo.b)))
    sw = contract("la,lc->ac", geo.weingarten, geo.s) - geo.b  # s(W d_a, d_c) - b(d_a, d_c)
    out.test("s(W X, Y) = b(X, Y)", sw._flat())
    # normal connection vanishes: gamma(nabla_a nu, nu) = 0
    dnu = _along(geo.christoffel_res, geo.jac, geo.nu)
    out.test("nabla^nu nu = 0", contract("ij,ia,j->a", geo.gamma_res, dnu, geo.nu)._flat())
    return out


# ---------------------------------------------------------------------------
# induced classical structure


def induced_almost_contact(geo: HypersurfaceGeometry, J: EndoTM) -> AlmostContact:
    """Decompose J X = F X + xi(X) nu and Z = -J nu into tangential data."""
    chart = geo.embedding.domain
    jx, z_amb = _J_frame(geo, J)
    # s^cd gamma(v, d iota(d_d)): the TN components of a field v along N
    tangential = contract("cd,ij,jd->ci", geo.s.inverse_matrix(), geo.gamma_res, geo.jac)
    return AlmostContact(
        EndoTM(chart, contract("ci,ia->ca", tangential, jx)),
        VectorField(chart, contract("ci,i->c", tangential, z_amb)),
        OneForm(chart, contract("ij,ia,j->a", geo.gamma_res, jx, geo.nu)),
        geo.s,
        name="induced",
    )


def _J_frame(geo: HypersurfaceGeometry, J: EndoTM) -> tuple[_Array, _Array]:
    """J d iota(d_a) as the columns of an ambient-by-domain array, and -J nu."""
    j_res = geo.J_res(J)
    return contract("ij,ja->ia", j_res, geo.jac), -contract("ij,j->i", j_res, geo.nu)


@run()
def check_induced_contact(
    geo: HypersurfaceGeometry, J: EndoTM, policy: ZeroPolicy = DEFAULT_POLICY
) -> CheckResult:
    """Induced structure passes the almost contact axioms, the decomposition
    residuals vanish, and the fundamental form is the pullback of the Kaehler
    form."""
    out = CheckResult("induced_contact", policy)
    ac = geo.contact(J)
    out.sub("(almcont)+(clasmetric) for the induced structure", check_almost_contact, ac, policy)
    jx, z_amb = _J_frame(geo, J)
    # [a][k]: the k-th component of J X - F X - xi(X) nu for X = d_a
    d = contract("ka->ak", jx - contract("kb,ba->ka", geo.jac, ac.F)) - contract(
        "a,k->ak", ac.xi, geo.nu)
    out.test("(strind1) J X = F X + xi(X) nu", d._flat())
    out.test("(strind1) Z = -J nu is tangent", (z_amb - geo.push(ac.Z))._flat())
    pulled = _pullback(geo.embedding.restrict_grid(_kaehler_form(geo.gamma, J)), geo.jac)
    out.test("Xi = iota^* Omega", frame_pairs(ac.fundamental_form() - pulled))
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
    out = CheckResult("hermitian", policy)
    dom = ext_d(_kaehler_form(gamma, J))
    # [i][j][k]: the identities on the frame triple (d_i, d_j, d_k)
    d = (contract("ilj,lk->ijk", gamma.connection().nabla_frame(J), gamma) * 2 - dom
         + contract("iab,aj,bk->ijk", dom, J, J))
    out.test("(eqdinKN) 2 gamma(nabla_X J(Y), U) = dOmega(X,Y,U) - dOmega(X,JY,JU)",
             d._flat())
    d = contract("abc,ai,bj,ck->ijk", dom, J, J, J) - (
        contract("ajk,ai->ijk", dom, J) + contract("ibk,bj->ijk", dom, J)
        + contract("ijc,ck->ijk", dom, J))
    out.test("(identHerm) dOmega(JZ,JX,JY) = dOmega(JZ,X,Y) + dOmega(Z,JX,Y) + dOmega(Z,X,JY)",
             d._flat())
    return out


def check_almost_hermitian(
    gamma: MetricField, J: EndoTM, policy: ZeroPolicy = DEFAULT_POLICY
) -> CheckResult:
    out = CheckResult("almost_hermitian", policy)
    out.test("J^2 = -Id", (J @ J + EndoTM.identity(gamma.chart))._flat())
    out.test("gamma(JX, JY) = gamma(X, Y)", J.isometry_defect(gamma))
    out.test("N_J = 0 (integrability)", frame_pairs(nijenhuis_table(J)))
    return out


@run()
def check_gen_kahler(
    gamma: MetricField,
    psi: TwoForm,
    J_plus: EndoTM,
    J_minus: EndoTM,
    policy: ZeroPolicy = DEFAULT_POLICY,
) -> CheckResult:
    """Generalized Kaehler validation: integrable J_pm plus (relpsiJ), with
    the equivalent (relpsiOmega) form cross-checked."""
    out = CheckResult("gen_kahler", policy)
    dpsi = ext_d(psi)
    for tag, J in (("J+", J_plus), ("J-", J_minus)):
        out.sub(f"(gamma, {tag}) is Hermitian", check_almost_hermitian, gamma, J, policy)
    relpsij = []
    relpsiom = []
    for sign, J in ((1, J_plus), (-1, J_minus)):
        # [i][j][k]: the identities on the frame triple (d_i, d_j, d_k)
        rhs = contract("iak,aj->ijk", dpsi, J) + contract("ijb,bk->ijk", dpsi, J)
        lhs = contract("ilj,lk->ijk", gamma.connection().nabla_frame(J), gamma)
        relpsij.extend((lhs + rhs * Fraction(sign, 2))._flat())
        dom = ext_d(_kaehler_form(gamma, J))
        relpsiom.extend((contract("abc,ai,bj,ck->ijk", dom, J, J, J) + dpsi * sign)._flat())
    v_j = out.test("(relpsiJ) gamma(nabla_X J(Y), U) = -+ (1/2)[dpsi(X,JY,U) + dpsi(X,Y,JU)]",
                   relpsij)
    v_om = out.test("(relpsiOmega) dOmega(JX,JY,JU) = -+ dpsi(X,Y,U)", relpsiom)
    out.agreement("(relpsiJ) <=> (relpsiOmega)", ("(relpsiJ)", v_j), ("(relpsiOmega)", v_om))
    return out


# ---------------------------------------------------------------------------
# hypersurface-level CRF / normality / CRFK criteria


_CRF2_DOMEGA = "(eqCRF2) dOmega(JX, JY, Jnu) = dOmega(X, Y, Jnu) on P"


def _crf2_defects(geo: HypersurfaceGeometry, J: EndoTM) -> tuple[list, list]:
    """The defects of the two (eqCRF2) lines, on the spanning set F d_a of
    P = im F: dOmega(JX, JY, Jnu) - dOmega(X, Y, Jnu) for a < b, and
    b(FX, FY) - b(X, Y) for a <= b."""
    F, F2, push_p, j_push_p = once(_P_columns, geo, J)
    # dOmega(., ., Jnu) along N
    dom = contract("ijk,kl,l->ij", geo.dOmega_res(J), geo.J_res(J), geo.nu)
    lines = (contract("ij,ia,jb->ab", dom, j_push_p, j_push_p)
             - contract("ij,ia,jb->ab", dom, push_p, push_p))
    b_lines = (contract("ac,ai,cj->ij", geo.b, F2, F2)
               - contract("ac,ai,cj->ij", geo.b, F, F))
    return frame_pairs(lines), frame_pairs(b_lines, diagonal=True)


def _P_columns(geo: HypersurfaceGeometry, J: EndoTM) -> tuple:
    """F and F^2 of the structure J induces (the columns F d_a span
    P = im F, and F^2 d_a their images under F), with the pushforwards
    d iota (F d_a) and J d iota (F d_a) as the columns of ambient-by-domain
    arrays."""
    F = geo.contact(J).F
    push_p = contract("ka,ab->kb", geo.jac, F)
    return F, F @ F, push_p, contract("ij,jb->ib", geo.J_res(J), push_p)


@run()
def check_hyp_CRF(
    geo: HypersurfaceGeometry, J: EndoTM, policy: ZeroPolicy = DEFAULT_POLICY
) -> CheckResult:
    """(eqCRF2): dOmega(JX,JY,Jnu) = dOmega(X,Y,Jnu) and b(FX,FY) = b(X,Y)
    for X, Y in P = im F, on a Hermitian ambient (gamma, J)."""
    once(check_almost_hermitian, geo.gamma, J, policy).require(
        "ambient structure is not Hermitian", PreconditionNotMet)
    out = CheckResult("hyp_CRF", policy)
    lines, b_lines = _crf2_defects(geo, J)
    out.test(_CRF2_DOMEGA, lines)
    out.test("(eqCRF2) b(FX, FY) = b(X, Y) on P", b_lines)
    return out


@run()
def check_hyp_normal(
    geo: HypersurfaceGeometry, J: EndoTM, policy: ZeroPolicy = DEFAULT_POLICY
) -> CheckResult:
    """The (eqCRF2) items with (eqnormal2) on top: b(Z, X) =
    -(1/2) dOmega(nu, Z, JX) for X in P."""
    out = CheckResult("hyp_normal", policy)
    for lbl, v in once(check_hyp_CRF, geo, J, policy).items:
        out.add(lbl, v)
    ac = geo.contact(J)
    j_push_p = once(_P_columns, geo, J)[3]
    # [a]: b(Z, F d_a) + (1/2) dOmega(nu, Z, J F d_a)
    exprs = contract("ac,a,cb->b", geo.b, ac.Z, ac.F) + contract(
        "ijk,i,j,kb->b", geo.dOmega_res(J), geo.nu, geo.push(ac.Z), j_push_p) * Fraction(1, 2)
    out.test("(eqnormal2) b(Z, X) = -(1/2) dOmega(nu, Z, JX) on P", exprs._flat())
    return out


@run()
def check_fundamental_form_property(
    geo: HypersurfaceGeometry, J: EndoTM, policy: ZeroPolicy = DEFAULT_POLICY
) -> CheckResult:
    """(LXi): L_Z Xi (FX, FY) = L_Z Xi (X, Y), on the full coordinate frame,
    with the agreement against the first (eqCRF2) line as a separate item."""
    out = CheckResult("LXi", policy)
    ac = geo.contact(J)
    lxi = lie_derivative(ac.Z, ac.fundamental_form())
    v = out.test("(LXi) L_Z Xi(FX, FY) = L_Z Xi(X, Y) on TN",
                 frame_pairs(contract("ab,ai,bj->ij", lxi, ac.F, ac.F) - lxi))
    line1 = once(check_hyp_CRF, geo, J, policy).subverdict(_CRF2_DOMEGA)
    out.agreement("(LXi) equivalent to the first (eqCRF2) condition", ("(LXi)", v),
                  ("(eqCRF2) line 1", line1))
    return out


# ---------------------------------------------------------------------------
# induced generalized structure and the CRFK criterion


class InducedGenStructure:
    """The generalized F structure a pair J_pm induces (its G is built from
    (s, kappa)) and the (2,1)-structure with the induced Z_pm."""

    def __init__(self, genf: GenF, two_one: TwoOneGAC):
        self.genf = genf
        self.two_one = two_one


def induced_gen_structure(
    geo: HypersurfaceGeometry, J_plus: EndoTM, J_minus: EndoTM
) -> InducedGenStructure:
    """(F_pm, Z_pm, xi_pm, s, kappa) by double induction, the quadruple-built
    Fcal, and Z_pm = (Z_pm, flat_{kappa +- s} Z_pm), each validated under
    the geometry's policy."""
    policy = geo.policy
    acp, acm = geo.contact(J_plus), geo.contact(J_minus)
    G = build_gen_metric(geo.s, geo.kappa, policy)
    genf = build_genF_from_quadruple(G, acp.F, acm.F, policy)
    two_one = TwoOneGAC(genf.Fcal, G.section(acp.Z, 1), G.section(acm.Z, -1), G, "induced-21")
    require_two_one(two_one, policy)
    return InducedGenStructure(genf, two_one)


@run()
def check_hyp_CRFK(
    geo: HypersurfaceGeometry,
    J_plus: EndoTM,
    J_minus: EndoTM,
    policy: ZeroPolicy = DEFAULT_POLICY,
) -> CheckResult:
    """(eqptans3) for a hypersurface of a generalized Kaehler manifold; on
    success the induced classical structures must come out normal."""
    once(check_gen_kahler, geo.gamma, geo.psi, J_plus, J_minus, policy).require(
        "ambient structure is not generalized Kaehler", PreconditionNotMet)
    out = CheckResult("hyp_CRFK", policy)
    e = geo.embedding
    dpsi_res = e.restrict_grid(ext_d(geo.psi))
    # iota^*(i(nu) dpsi)
    rho = contract("ijk,i,ja,kc->ac", dpsi_res, geo.nu, geo.jac, geo.jac)
    for sign, J in ((1, J_plus), (-1, J_minus)):
        tag = "+" if sign == 1 else "-"
        F, F2, _, _ = once(_P_columns, geo, J)
        out.test(f"(eqptans3) i(nu)dpsi invariance under F{tag} on P{tag}",
                 frame_pairs(contract("ac,ai,cj->ij", rho, F2, F2)
                             - contract("ac,ai,cj->ij", rho, F, F)))
        out.test(
            f"(eqptans3) b(X, F{tag} U) = {'-' if sign == 1 else '+'}(1/2) "
            f"iota^*(i(nu)dpsi)(X, F{tag} U)",
            (contract("ac,cu->au", geo.b, F2)
             + contract("ac,cu->au", rho, F2) * Fraction(sign, 2))._flat(),
        )
    if out.ok:
        for tag, J in (("+", J_plus), ("-", J_minus)):
            out.sub(f"CRFK consequence: induced structure {tag} is normal",
                    check_normal_classical, geo.contact(J), policy)
    return out
