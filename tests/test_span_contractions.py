"""Criteria on P, Q and V_pm contract their operators' columns.

The spanning sets of the criteria are {F e_a} for P = im F, {pr_Q e_a} for
Q = ker F and the sections tau_pm(e_a) = G.section(e_a, +-1) for V_pm.
The (indbin0)/(indbin1) lines read zeta_pm and rho_pm on the columns of
F_pm, which span P_pm.  Each reference below writes the criterion out as
the per-pair loop over those vectors, and the list the check hands to the
zero test must equal it element by element (as field elements) and in
order, so a Failed item keeps its witness.  Tensoriality makes this hold
for any endomorphism, so the operators are random polynomial ones, plus the
builtin S3's F, whose (CRF0) fails, and a generalized metric whose Gcal is
perturbed, so that (exprEpm) and G|V+ have nonzero defects.  Every builtin
has psi = 0, so two random (2,1)-structures with dpsi != 0 check the dpsi
terms of zeta and rho.
"""

import random
from fractions import Fraction

import pytest

from ggwb import hypersurface, verdict
from ggwb.calculus import (
    ChartManifold,
    EndoTM,
    MetricField,
    TwoForm,
    contract,
    ext_d,
    frame,
    interior,
    lie_bracket,
    lie_derivative,
    musical_flat,
    musical_sharp,
    random_vector_field,
)
from ggwb.courant import BigEndo, BigSection, _gram0, big_frame, lift_big_section
from ggwb.hypersurface import (
    check_fundamental_form_property,
    check_hyp_CRF,
    check_hyp_CRFK,
    check_hyp_geometry,
    check_hyp_normal,
    check_induced_contact,
    second_fundamental_form,
)
from ggwb.structures import genf as genf_mod, twoone
from ggwb.structures.classical import check_crf_endo, nijenhuis_classical
from ggwb.structures.genf import GenF, check_gen_F
from ggwb.structures.genmetric import GenMetric, check_gen_metric
from ggwb.structures.normality import (
    check_binormal,
    check_normal_explicit,
    check_product_metric,
    rho_form,
    zeta_form,
)
from ggwb.structures.twoone import TwoOneGAC, build_product_J, second_structure
from ggwb.symexpr import ScalarExpr, ZeroPolicy, is_zero_all, random_poly
from ggwb.verdict import CheckResult
from ggwb.workbench import load_builtin

POL = ZeroPolicy(samples=4, seed=0)


def _item_lists(monkeypatch, run) -> dict:
    """{item label: the expressions its zero test read}, for the items of
    ``run()`` that ``CheckResult.test`` recorded."""
    lists, real_test = {}, CheckResult.test

    def test(self, label, defects, tag=""):
        defects = [defects] if isinstance(defects, ScalarExpr) else list(defects)
        lists[label] = defects
        return real_test(self, label, defects, tag)

    monkeypatch.setattr(CheckResult, "test", test)
    run()
    monkeypatch.undo()
    return lists


def _same(got, ref):
    assert len(got) == len(ref)
    assert [e.rf for e in got] == [e.rf for e in ref]


def _random_endo(chart, rng, degree, density=0.7) -> EndoTM:
    n = chart.dim
    return EndoTM(chart, [[random_poly(chart, rng, degree) if rng.random() < density else 0
                           for _ in range(n)] for _ in range(n)])


def _endos():
    R3 = ChartManifold("R3", ["x", "y", "z"])
    R5 = ChartManifold("R5", ["u", "v", "w", "x", "y"])
    out = [("R3-seed%d" % s, _random_endo(R3, random.Random(s), 2)) for s in range(3)]
    out += [("R5-seed%d" % s, _random_endo(R5, random.Random(s), 1, 0.5)) for s in range(2)]
    return out


ENDOS = _endos()


@pytest.fixture(scope="module")
def s3_F():
    return load_builtin("S3").fields["F"]


def _crcond_reference(F):
    """(CRcond) pair by pair over the spanning set {F e_a} of P."""
    chart = F.chart
    pr_q = EndoTM.identity(chart) + F @ F
    span = [F(e) for e in frame(chart)]
    out = []
    for i in range(len(span)):
        for j in range(i + 1, len(span)):
            d = nijenhuis_classical(F, span[i], span[j]) - pr_q(lie_bracket(span[i], span[j]))
            out.extend(d.components)
    return out


def _crf0_reference(F):
    """(CRF0) over {F e_a} x {pr_Q e_b}."""
    chart = F.chart
    pr_q = EndoTM.identity(chart) + F @ F
    span_p = [F(e) for e in frame(chart)]
    span_q = [pr_q(e) for e in frame(chart)]
    return [c for X in span_p for Y in span_q for c in nijenhuis_classical(F, X, Y).components]


def _check_crf_lists(monkeypatch, F):
    lists = _item_lists(monkeypatch, lambda: check_crf_endo(F, POL))
    _same(lists["(CRcond) N_F(X,Y) = pr_Q [X,Y] on P"], _crcond_reference(F))
    _same(lists["(CRF0) N_F(X,Y) = 0 for X in P, Y in Q"], _crf0_reference(F))
    return lists


@pytest.mark.parametrize("name,F", ENDOS, ids=[n for n, _ in ENDOS])
def test_crcond_and_crf0_contract_the_columns_of_F(monkeypatch, name, F):
    lists = _check_crf_lists(monkeypatch, F)
    assert any(e.rf for e in lists["(CRcond) N_F(X,Y) = pr_Q [X,Y] on P"])


def test_crf0_of_s3_keeps_its_failing_defects_and_witness(monkeypatch, s3_F):
    lists = _check_crf_lists(monkeypatch, s3_F)
    assert not any(e.rf for e in lists["(CRcond) N_F(X,Y) = pr_Q [X,Y] on P"])
    got = lists["(CRF0) N_F(X,Y) = 0 for X in P, Y in Q"]
    assert len([e for e in got if e.rf]) == 2
    verdict = check_crf_endo(s3_F, POL).subverdict("(CRF0) N_F(X,Y) = 0 for X in P, Y in Q")
    assert not verdict.ok
    assert verdict.witness == is_zero_all(_crf0_reference(s3_F), POL, "(CRF0)").witness


def _gen_metrics():
    R3 = ChartManifold("R3", ["x", "y", "z"])
    s2 = MetricField(R3, [["1+y^2", "0", "-y"], ["0", "1", "0"], ["-y", "0", "1"]])
    out = []
    for seed in range(2):
        rng = random.Random(10 + seed)
        m = [[random_poly(R3, rng, 1) for _ in range(3)] for _ in range(3)]
        psi = TwoForm(R3, [[m[i][j] - m[j][i] for j in range(3)] for i in range(3)])
        out.append((f"S2-metric-random-psi{seed}", GenMetric(s2, psi)))
    flat = MetricField(R3, [["2", "x", "0"], ["x", "2", "0"], ["0", "0", "1"]])
    out.append(("polynomial-metric-no-psi", GenMetric(flat)))
    # not a generalized metric: Gcal and the Gram matrix of G moved off
    # their closed forms, the Gram matrix staying symmetric
    bent = GenMetric(s2, out[0][1].psi)
    rng = random.Random(12)
    bent.Gcal = bent.Gcal + _random_big_endo(R3, rng)
    m = _random_big_endo(R3, rng)
    bent._gram = bent._gram + m + contract("ij->ji", m)
    out.append(("perturbed-Gcal", bent))
    return out


def _random_big_endo(chart, rng) -> BigEndo:
    n = 2 * chart.dim
    return BigEndo(chart, [[random_poly(chart, rng, 1) if rng.random() < 0.4 else 0
                            for _ in range(n)] for _ in range(n)])


GEN_METRICS = _gen_metrics()


def _exprEpm_reference(G):
    out = []
    for sign in (1, -1):
        for e in frame(G.chart):
            s = G.section(e, sign)
            out.extend((G.Gcal(s) - s * sign).components())
    return out


def _gV_reference(G):
    fr = frame(G.chart)
    return [G.G(G.section(fr[i], 1), G.section(fr[j], 1)) - G.gamma(fr[i], fr[j])
            for i in range(len(fr)) for j in range(i, len(fr))]


@pytest.mark.parametrize("name,G", GEN_METRICS, ids=[n for n, _ in GEN_METRICS])
def test_gen_metric_items_contract_the_V_frames(monkeypatch, name, G):
    lists = _item_lists(monkeypatch, lambda: check_gen_metric(G, POL))
    _same(lists["(exprEpm) Gcal = +-Id on V_+-"], _exprEpm_reference(G))
    _same(lists["(condptGrond) G|V+ = gamma via tau_+"], _gV_reference(G))
    if name == "perturbed-Gcal":
        assert any(e.rf for e in lists["(exprEpm) Gcal = +-Id on V_+-"])
        assert any(e.rf for e in lists["(condptGrond) G|V+ = gamma via tau_+"])


def _random_genf(G, seed):
    """A quadruple GenF whose Fcal is not the transfer of (F_+, F_-), so
    the (eqJrond) defects are nonzero."""
    rng = random.Random(seed)
    chart = G.chart
    Fp, Fm = _random_endo(chart, rng, 1), _random_endo(chart, rng, 1)
    return GenF(_random_big_endo(chart, rng), G, Fp, Fm)


@pytest.mark.parametrize("name,G", GEN_METRICS, ids=[n for n, _ in GEN_METRICS])
def test_eqJrond_and_classical_endos_contract_the_V_frames(monkeypatch, name, G):
    genf = _random_genf(G, 7)
    ref = []
    for sign, F in ((1, genf.F_plus), (-1, genf.F_minus)):
        for e in frame(G.chart):
            d = genf.Fcal(G.section(e, sign)) - G.section(F(e), sign)
            ref.extend(d.components())
    lists = _item_lists(monkeypatch, lambda: check_gen_F(genf, POL))
    got = lists["(eqJrond) Fcal(X, flat X) = (F_pm X, flat F_pm X)"]
    _same(got, ref)
    assert any(e.rf for e in got)

    # F_pm = tau_pm o Fcal o tau_pm^-1: column i is the TM part of Fcal tau_pm(e_i)
    zero = BigSection.from_components(G.chart, [0] * 2 * G.chart.dim)
    s = TwoOneGAC(genf.Fcal, zero, zero, G)
    for sign, got in zip((1, -1), s.classical_endos()):
        cols = [genf.Fcal(G.section(e, sign)).X.components for e in frame(G.chart)]
        ref = [cols[j][i] for i in range(G.chart.dim) for j in range(G.chart.dim)]
        _same(got._flat(), ref)


@pytest.fixture(scope="module", params=["sphere", "bent-hyperplane"])
def hyp(request):
    """The round sphere in flat C^2, whose criteria hold, and the hyperplane
    y2 = 0 under a metric that bends it (b != 0), with a nonzero psi and a
    gamma-skew ambient J = gamma^-1 W that is not a complex structure, so
    that its criteria have nonzero defects."""
    if request.param == "sphere":
        sphere = request.getfixturevalue("sphere")
        return request.param, sphere["geo"], sphere["J"]
    flat = request.getfixturevalue("hyperplane")
    C2 = flat["chart"]
    gamma = MetricField(C2, [["1+y2", 0, 0, 0], [0, 1, 0, 0], [0, 0, "1+x1*y2", 0], [0, 0, 0, 1]])
    psi = TwoForm(C2, [[0, "x1*y2", "x2", "y1*y2"], ["-x1*y2", 0, "y2*x2", "x1"],
                       ["-x2", "-y2*x2", 0, "x2*y1"], ["-y1*y2", "-x1", "-x2*y1", 0]])
    W = TwoForm(C2, [[0, "1+y1*x2", "x2*y2", "x1"], ["-1-y1*x2", 0, "y1", "1+x1*y2"],
                     ["-x2*y2", "-y1", 0, "1+x2"], ["-x1", "-1-x1*y2", "-1-x2", 0]])
    geo = second_fundamental_form(flat["embedding"], gamma, psi)
    return request.param, geo, EndoTM(C2, contract("ik,kj->ij", gamma.inverse_matrix(), W))


def _b_apply(geo, X, Y):
    """The second fundamental form b(X, Y), written out."""
    return contract("ac,a,c->", geo.b, X, Y)


def _hyp_references(geo, J) -> dict:
    """The criteria on P pair by pair over the spanning set {F d_a} of P
    and its pushforwards d iota (F d_a); the other induced-structure lists
    entry by entry."""
    e, ac = geo.embedding, geo.contact(J)
    fr = frame(e.domain)
    m, n = len(fr), e.ambient.dim
    span_p = [ac.F(v) for v in fr]
    push_p = [geo.push(X) for X in span_p]
    dom_res, j_res = geo.dOmega_res(J), geo.J_res(J)

    def dom(u, v, w):
        return contract("ijk,i,j,k->", dom_res, u, v, w)

    jnu = contract("ij,j->i", j_res, geo.nu)
    jp = [contract("ij,j->i", j_res, v) for v in push_p]
    push_z = geo.push(ac.Z)
    lxi = lie_derivative(ac.Z, ac.fundamental_form())
    rho = contract("ijk,i,ja,kc->ac", e.restrict_grid(ext_d(geo.psi)), geo.nu, geo.jac, geo.jac)

    def rho_apply(X, Y):
        return contract("ac,a,c->", rho, X, Y)

    fp = [ac.F(X) for X in span_p]
    jx = contract("ij,ja->ia", j_res, geo.jac)
    push_f = contract("kb,ba->ka", geo.jac, ac.F)
    xi, xi_fund = ac.xi.components, ac.fundamental_form().components
    kaehler = TwoForm(geo.gamma.chart, contract("ki,kj->ij", J, geo.gamma))
    pulled = contract("ij,ia,jc->ac", e.restrict_grid(kaehler), geo.jac, geo.jac)
    refs = {
        "(eqCRF2) dOmega(JX, JY, Jnu) = dOmega(X, Y, Jnu) on P": [
            dom(jp[i], jp[j], jnu) - dom(push_p[i], push_p[j], jnu)
            for i in range(m) for j in range(i + 1, m)],
        "(eqCRF2) b(FX, FY) = b(X, Y) on P": [
            _b_apply(geo, ac.F(span_p[i]), ac.F(span_p[j])) - _b_apply(geo, span_p[i], span_p[j])
            for i in range(m) for j in range(i, m)],
        "(eqnormal2) b(Z, X) = -(1/2) dOmega(nu, Z, JX) on P": [
            _b_apply(geo, ac.Z, X) + Fraction(1, 2) * dom(geo.nu, push_z, contract(
                "ij,j->i", j_res, pX)) for X, pX in zip(span_p, push_p)],
        "(LXi) L_Z Xi(FX, FY) = L_Z Xi(X, Y) on TN": [
            lxi(ac.F(fr[i]), ac.F(fr[j])) - lxi(fr[i], fr[j])
            for i in range(m) for j in range(i + 1, m)],
        "(strind1) J X = F X + xi(X) nu": [
            jx[k][a] - push_f[k][a] - xi[a] * geo.nu[k] for a in range(m) for k in range(n)],
        "Xi = iota^* Omega": [
            xi_fund[a][c] - pulled[a][c] for a in range(m) for c in range(a + 1, m)],
        "b symmetric": [
            geo.b[a][c] - geo.b[c][a] for a in range(m) for c in range(a + 1, m)],
    }
    for sign, tag in ((1, "+"), (-1, "-")):
        refs[f"(eqptans3) i(nu)dpsi invariance under F{tag} on P{tag}"] = [
            rho_apply(fp[i], fp[j]) - rho_apply(span_p[i], span_p[j])
            for i in range(m) for j in range(i + 1, m)]
        refs[f"(eqptans3) b(X, F{tag} U) = {'-' if sign == 1 else '+'}(1/2) "
             f"iota^*(i(nu)dpsi)(X, F{tag} U)"] = [
            _b_apply(geo, X, fu) + Fraction(sign, 2) * rho_apply(X, fu)
            for X in fr for fu in fp]
    return refs


def test_hypersurface_items_contract_the_columns_of_F(monkeypatch, hyp, pol):
    name, geo, J = hyp
    # the ambient preconditions hold for any J: their checks record no items
    monkeypatch.setattr(hypersurface, "check_almost_hermitian",
                        lambda *args: CheckResult("almost_hermitian"))
    monkeypatch.setattr(hypersurface, "check_gen_kahler", lambda *args: CheckResult("gen_kahler"))

    def checks():
        with verdict.run():  # hyp_normal and LXi read the one hyp_CRF result
            check_hyp_CRF(geo, J, pol)
            check_hyp_normal(geo, J, pol)
            check_fundamental_form_property(geo, J, pol)
            check_hyp_CRFK(geo, J, J, pol)
            check_induced_contact(geo, J, pol)
            check_hyp_geometry(geo, pol)

    lists = _item_lists(monkeypatch, checks)
    for label, ref in _hyp_references(geo, J).items():
        _same(lists[label], ref)
        # the last three hold by construction of the induced data
        if name == "bent-hyperplane" and label not in (
                "(strind1) J X = F X + xi(X) nu", "Xi = iota^* Omega", "b symmetric"):
            assert any(e.rf for e in ref), label


@pytest.mark.parametrize("which", ["t21_s1", "t21_s2", "t21_s3", "t21_s2-bent-G"])
def test_product_metric_on_L_contracts_the_lifted_columns_of_Fcal(monkeypatch, request, which,
                                                                   pol):
    s = request.getfixturevalue(which.split("-")[0])
    if which.endswith("bent-G"):
        # the Gram matrix of G moved (symmetrically) off the one Gtilde restricts to
        G = GenMetric(s.G.gamma, s.G.psi)
        m = _random_big_endo(s.chart, random.Random(5))
        G._gram = G._gram + m + contract("ij->ji", m)
        s = TwoOneGAC(s.Fcal, s.Z_plus, s.Z_minus, G)
    pj = build_product_J(s, policy=pol)
    product = pj.chart
    gtilde = -(pj.J @ build_product_J(second_structure(s), policy=pol).J)
    gram = contract("ki,kj->ij", gtilde, _gram0(product))
    span_L = [s.Fcal(e) for e in big_frame(s.chart)]
    ref = []
    for i in range(len(span_L)):
        for j in range(i, len(span_L)):
            a, b = (lift_big_section(span_L[k], product) for k in (i, j))
            ref.append(contract("i,ij,j->", a, gram, b) - s.G.G(span_L[i], span_L[j]).lift(product))
    lists = _item_lists(monkeypatch, lambda: check_product_metric(s, pol))
    _same(lists["Gtilde|_L = G|_L"], ref)
    assert any(e.rf for e in ref) == which.endswith("bent-G")


def test_gen_crf_invariance_takes_the_first_nonzero_column_after_the_first(monkeypatch, pol):
    """The scalar-invariance item of gen_CRF brackets X = Fcal e_0 with the
    first nonzero column Fcal e_b, b > 0."""
    R2 = ChartManifold("R2", ["x", "y"])
    rows = [[0] * 4 for _ in range(4)]
    rows[0][0], rows[1][2], rows[3][3] = "x", "y", 1  # column 1 is zero
    Fcal = BigEndo(R2, rows)
    seen = []
    real = genf_mod.nijenhuis_big

    def recording(A, S, T):
        seen.append(T)
        return real(A, S, T)

    monkeypatch.setattr(genf_mod, "nijenhuis_big", recording)
    genf_mod.check_gen_CRF(GenF(Fcal), pol)
    assert seen and all(T == Fcal(big_frame(R2)[2]) for T in seen)


def _unipotent(chart, rng, degree) -> EndoTM:
    """I + N with N strictly upper triangular: a polynomial matrix with a
    polynomial inverse."""
    n = chart.dim
    return EndoTM(chart, [[1 if i == j else random_poly(chart, rng, degree) if j > i else 0
                           for j in range(n)] for i in range(n)])


def _random_two_one(seed) -> TwoOneGAC:
    """A metric (2,1)-structure on R^3 with dpsi != 0: gamma = U^T U and
    F_pm = A_pm F0 A_pm^-1 (F0 the standard F of S1) for unipotent polynomial
    U and A_pm, psi a random polynomial 2-form that is not closed, and
    Z_pm = tau_pm(random vector fields)."""
    R3 = ChartManifold("R3", ["x", "y", "z"])
    rng = random.Random(seed)
    U = _unipotent(R3, rng, 1)
    gamma = MetricField(R3, contract("ki,kj->ij", U, U))
    m = [[random_poly(R3, rng, 2) for _ in range(3)] for _ in range(3)]
    psi = TwoForm(R3, [[m[i][j] - m[j][i] for j in range(3)] for i in range(3)])
    assert not ext_d(psi).is_syntactic_zero
    G = GenMetric(gamma, psi)
    F0 = EndoTM(R3, [[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    F = []
    for _ in range(2):
        A = _unipotent(R3, rng, 1)
        N = A - EndoTM.identity(R3)  # N^3 = 0, so A^-1 = I - N + N^2
        F.append(A @ F0 @ (EndoTM.identity(R3) - N + N @ N))
    Zp, Zm = (G.section(random_vector_field(R3, rng, 1), sign) for sign in (1, -1))
    return TwoOneGAC(G.transfer(*F), Zp, Zm, G, name=f"random-{seed}")


RANDOM_21 = [_random_two_one(seed) for seed in (3, 4)]


def _zeta_reference(s, sign, X):
    """zeta_s(X) = i(X) i(Z) dpsi +- [L_Z(flat X) - (L_X gamma)(Z, .)], written out."""
    Z, gamma = s.Z(sign).X, s.G.gamma
    term = interior(X, interior(Z, s.G.dpsi))
    tail = lie_derivative(Z, musical_flat(gamma, X)) - musical_flat(lie_derivative(X, gamma), Z)
    return term + tail if sign == 1 else term - tail


def _rho_reference(s, sign, X):
    """rho_s(X) = -+[flat [Z, X] - i(X) i(Z) dpsi + L_Z(flat X) + i(X) d xi], xi = flat Z."""
    Z, gamma = s.Z(sign).X, s.G.gamma
    inner = (musical_flat(gamma, lie_bracket(Z, X)) - interior(X, interior(Z, s.G.dpsi))
             + lie_derivative(Z, musical_flat(gamma, X))
             + interior(X, ext_d(musical_flat(gamma, Z))))
    return -inner if sign == 1 else inner


@pytest.mark.parametrize("s", RANDOM_21, ids=[s.name for s in RANDOM_21])
def test_zeta_and_rho_forms_keep_the_dpsi_terms(s, pol):
    """Every builtin has psi = 0; here dpsi != 0 and the public forms match
    the written-out ones on every column of F_pm."""
    Fp, Fm = s.classical_endos()
    F = {1: Fp, -1: Fm}
    seen = []
    for sign in (1, -1):
        for e in frame(s.chart):
            X, Y = F[sign](e), F[-sign](e)  # X in P_s, Y in P_-s
            z, r = zeta_form(s, X, sign, pol), rho_form(s, Y, sign, pol)
            _same(z.components, _zeta_reference(s, sign, X).components)
            _same(r.components, _rho_reference(s, sign, Y).components)
            seen.append(interior(X, interior(s.Z(sign).X, s.G.dpsi)))
    assert any(not t.is_syntactic_zero for t in seen)


_INDBIN = {
    "zeta": "(indbin0) zeta_pm(X) o F_+- = -zeta_pm(F_pm X)",
    "bracket": "(indbin0) bracket/rho compatibility",
    "antihol0": "(indbin0) rho_pm(F_mp X) + rho_pm(X) o F_mp = 0",
    "zeta1": "(indbin1) zeta_pm(X_pm) = 0",
    "antihol1": "(indbin1) rho_pm(F_mp X) + rho_pm(X) o F_mp = 0",
    "split_a": "(indbin1) F_pm [Z_pm, X_mp] = mp (1/2) F_pm sharp rho_pm",
    "split_b": "(indbin1) [Z_pm, F_mp X_mp] = mp (1/2) F_mp sharp rho_pm",
}


def _indbin_references(s) -> dict:
    """The six (indbin0)/(indbin1) lines vector by vector over the columns of
    F_pm: sign, then column, then (zeta line) F_+ before F_-, then component."""
    Fp, Fm = s.classical_endos()
    F, gamma, half = {1: Fp, -1: Fm}, s.G.gamma, s.chart.scalar("1/2")
    refs = {key: [] for key in _INDBIN}
    for sign in (1, -1):
        for e in frame(s.chart):
            X = F[sign](e)
            z, zf = _zeta_reference(s, sign, X), _zeta_reference(s, sign, F[sign](X))
            for Fo in (Fp, Fm):
                refs["zeta"].extend((z.compose_endo(Fo) + zf).components)
            refs["zeta1"].extend(z.components)
    for sign in (1, -1):
        Fs, Fo, Z = F[sign], F[-sign], s.Z(sign).X
        for e in frame(s.chart):
            X = Fo(e)
            rho = _rho_reference(s, sign, X)
            sharp = musical_sharp(gamma, rho)
            d = (Fs(lie_bracket(Z, X)) - lie_bracket(Z, Fo(X))
                 - (Fm(sharp) - Fp(sharp)) * half)
            refs["bracket"].extend(d.components)
            anti = (_rho_reference(s, sign, Fo(X)) + rho.compose_endo(Fo)).components
            refs["antihol0"].extend(anti)
            refs["antihol1"].extend(anti)
            refs["split_a"].extend((Fs(lie_bracket(Z, X)) + Fs(sharp) * half * sign).components)
            refs["split_b"].extend((lie_bracket(Z, Fo(X)) + Fo(sharp) * half * sign).components)
    return refs


@pytest.fixture(scope="module", params=["t21_s1", "t21_s2", "t21_s3", "s5_t21", "random-3",
                                        "random-4"])
def indbin_structure(request):
    if request.param.startswith("random"):
        return next(s for s in RANDOM_21 if s.name == request.param)
    return request.getfixturevalue(request.param)


def test_indbin_lines_contract_the_columns_of_F(monkeypatch, indbin_structure, pol):
    s = indbin_structure

    def run():
        # the cross-check's normal21 runs are not under test here
        monkeypatch.setattr(twoone, "check_normal_21", lambda *args: CheckResult("normal21"))
        check_normal_explicit(s, pol)
        check_binormal(s, pol)

    lists = _item_lists(monkeypatch, run)
    refs = _indbin_references(s)
    for key, label in _INDBIN.items():
        _same(lists[label], refs[key])
    if s.name.startswith("random"):
        assert all(any(e.rf for e in ref) for ref in refs.values())
