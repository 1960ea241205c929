"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  All checks run at the spec-default zero-test policy (32 samples,
tolerance 1e-9, seed 0).

Criterion 9's "check_binormal passes on S5" clause is intentionally left
red: the engine proves every (indbin1) line but refutes that system's
claimed equivalence with the definition (the companion structure is not
Courant-integrable on that data; a manual Courant-bracket expansion of
N(Fcal' d_x, Fcal' d_y) = -d_z confirms the engine, and independently a
binormal structure with closed psi forces closed fundamental forms, which
S5 violates).  The checker is faithful rather than weakened.
"""

from __future__ import annotations

import json
import random

import pytest

from ggwb.calculus import (
    VectorField,
    ext_d,
    frame,
    lie_bracket,
    lie_derivative,
    musical_flat,
    random_oneform,
    random_vector_field,
)
from ggwb.courant import BigSection, courant_bracket, pairing, partial
from ggwb.structures import (
    build_gen_metric,
    build_genF_from_quadruple,
    check_binormal,
    check_CRFK,
    check_classical_CRF,
    check_kernel_nabla_F,
    check_normal_21,
    check_normal_classical,
    check_normal_explicit,
    check_phi,
    check_product_complex,
    check_product_metric,
    check_two_one,
    check_crf_endo,
    classical_lift,
    courant_bracket_Vpm,
    nijenhuis_classical,
)
from ggwb.hypersurface import (
    check_gen_kahler,
    check_hermitian_identities,
    check_hyp_CRF,
    check_hyp_CRFK,
    check_hyp_normal,
    induced_almost_contact,
    induced_gen_structure,
)
from ggwb.symexpr import ZeroPolicy, is_zero, is_zero_all, random_poly
from ggwb.verdict import VerdictKind

POLICY = ZeroPolicy()  # spec defaults: 32 samples, tol 1e-9, seed 0


def _line(num: int, name: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="module")
def lifts(s1, s2, s3):
    return {
        "S1": classical_lift(s1, None, POLICY, name="S1-lift"),
        "S2": classical_lift(s2, None, POLICY, name="S2-lift"),
        "S3": classical_lift(s3, None, POLICY, name="S3-lift"),
    }


@pytest.fixture(scope="module")
def induced(hyperplane, sphere):
    out = {}
    for key, data in (("hyperplane", hyperplane), ("sphere", sphere)):
        out[key] = induced_gen_structure(data["geo"], data["J"], data["J"])
    return out


def test_criterion_01_courant_axioms(R3):
    """(propofC) on 100 random (f, X, Y); bracket antisymmetry exact."""
    rng = random.Random(101)
    ok = True
    for _ in range(100):
        A = BigSection(random_vector_field(R3, rng, 1), random_oneform(R3, rng, 1))
        B = BigSection(random_vector_field(R3, rng, 1), random_oneform(R3, rng, 1))
        f = random_poly(R3, rng)
        lhs = courant_bracket(A, B * f)
        rhs = courant_bracket(A, B) * f + B * A.X.apply(f) - partial(f) * pairing(A, B)
        if not is_zero_all((lhs - rhs).components(), POLICY).is_proved:
            ok = False
            break
        anti = courant_bracket(A, B) + courant_bracket(B, A)
        if not all(c.is_syntactic_zero for c in anti.components()):
            ok = False
            break
    assert _line(1, "Courant axioms ((propofC) x100, exact antisymmetry)", ok)


def test_criterion_02_classical_equivalence_suite(s1, s2, s3, lifts):
    """Three normality formulations agree pairwise on S1, S2, S3."""
    expected = {"S1": True, "S2": True, "S3": False}
    ok = True
    for name, s in (("S1", s1), ("S2", s2), ("S3", s3)):
        tensor = check_normal_classical(s, POLICY)
        product = check_product_complex(s, POLICY)
        lifted = check_normal_21(lifts[name], POLICY)
        verdicts = {tensor.ok, product.ok, lifted.ok}
        if len(verdicts) != 1 or verdicts != {expected[name]}:
            ok = False
        if name == "S3" and tensor.verdict.witness is None:
            ok = False
    assert _line(2, "classical equivalence suite (S1/S2 normal, S3 not, 3 routes)", ok)


def test_criterion_03_crf_hierarchy(s1, s2, s3):
    """Normal implies classical CRF on S1, S2; S3 fails (CRFcuLie) with witness."""
    ok = check_classical_CRF(s1, POLICY).ok and check_classical_CRF(s2, POLICY).ok
    res3 = check_classical_CRF(s3, POLICY)
    bad = res3.subverdict("(CRFcuLie) F o (L_Z F) = 0")
    ok = ok and not res3.ok and bad.kind is VerdictKind.FAILED and bad.witness is not None
    assert _line(3, "CRF hierarchy (normal => CRF; S3 fails (CRFcuLie) with witness)", ok)


def test_criterion_04_example21_reproduction(s1):
    """S1 is classical CRFK: (CRFK6) identically zero and nabla F kernel-valued."""
    G = build_gen_metric(s1.gamma, None, POLICY)
    gf = build_genF_from_quadruple(G, s1.F, s1.F, POLICY)
    res = check_CRFK(gf, POLICY)
    ok = res.ok and res.subverdict("(CRFK6) identity").is_proved
    ok = ok and check_kernel_nabla_F(s1.F, s1.gamma, POLICY).verdict.is_proved
    assert _line(4, "S1 is classical CRFK ((CRFK6) == 0 and kernel nabla F)", ok)


def test_criterion_05_hypersurface_suite(hyperplane, sphere):
    ok = all(x.is_syntactic_zero for row in hyperplane["geo"].b for x in row)
    ok = ok and check_hyp_normal(hyperplane["geo"], hyperplane["J"], POLICY).ok
    ok = ok and check_hyp_CRFK(hyperplane["geo"], hyperplane["J"], hyperplane["J"], POLICY).ok
    geo = sphere["geo"]
    b_minus_s = [geo.b[a][c] - geo.s.matrix[a][c] for a in range(3) for c in range(3)]
    ok = ok and is_zero_all(b_minus_s, POLICY).ok  # NumericallySupported or better
    ok = ok and check_hyp_normal(sphere["geo"], sphere["J"], POLICY).ok
    crfk = check_hyp_CRFK(sphere["geo"], sphere["J"], sphere["J"], POLICY)
    failed_items = [(lbl, v) for lbl, v in crfk.items if not v.ok]
    ok = ok and not crfk.ok
    ok = ok and failed_items and all("b(X, F" in lbl for lbl, _ in failed_items)
    ok = ok and failed_items[0][1].witness is not None
    assert _line(
        5, "hypersurfaces (hyperplane b=0, normal, CRFK; sphere b=s, normal, CRFK fails)", bool(ok)
    )


def test_criterion_06_hyp_structure_agreement(hyperplane, sphere):
    agreements = []
    for data in (hyperplane, sphere):
        ac = induced_almost_contact(data["geo"], data["J"])
        agreements.append(
            check_hyp_CRF(data["geo"], data["J"], POLICY).ok
            == check_classical_CRF(ac, POLICY).ok
        )
        agreements.append(
            check_hyp_normal(data["geo"], data["J"], POLICY).ok
            == check_normal_classical(ac, POLICY).ok
        )
    ok = len(agreements) == 4 and all(agreements)
    assert _line(6, "hypersurface/structure checker consistency (4 agreements)", ok)


def test_criterion_07_two_one_algebra(lifts, s5_t21, induced):
    structures = list(lifts.values()) + [s5_t21, induced["hyperplane"].two_one,
                                         induced["sphere"].two_one]
    ok = True
    for s in structures:
        res = check_two_one(s, POLICY)
        if not res.ok:
            ok = False
        if not (res.subverdict("corank(Fcal) = 2").ok and res.subverdict("neg(Fcal) = 1").ok):
            ok = False
        phi = check_phi(s, POLICY)
        if not phi.ok:
            ok = False
    assert _line(
        7, "(2,1) algebra (frame axioms + Phi axioms + corank/neg = 2/1 on 6 structures)", ok
    )


def test_criterion_08_normality_formulations(lifts, s5_t21):
    expected = {"S1-lift": True, "S2-lift": True, "S3-lift": False, "S5": True}
    ok = True
    for name, s in list(zip(("S1-lift", "S2-lift", "S3-lift"), lifts.values())) + [
        ("S5", s5_t21)
    ]:
        res21 = check_normal_21(s, POLICY)
        separate = all(
            v.ok for lbl, v in res21.items if lbl.startswith("(normaltotal)")
        )
        unified = res21.subverdict("(normtotal2) unified normality tensor = 0").ok
        explicit = check_normal_explicit(s, POLICY).ok
        if not (separate == unified == explicit == expected[name]):
            ok = False
    assert _line(8, "normality formulations agree (4 scenarios x 3 formulations)", ok)


def _condlastex_items(s5_t21):
    """The seven (condlastex) conditions, each as a verdict."""
    acp, acm, psi = s5_t21.classical_pair()
    gamma = s5_t21.G.gamma
    chart = s5_t21.chart
    items = []
    items.append(("[Z+, Z-] = 0", is_zero_all(
        lie_bracket(acp.Z, acm.Z).components, POLICY)))
    items.append(("gamma(Z+, Z-) constant", is_zero_all(
        ext_d(gamma(acp.Z, acm.Z)).components, POLICY)))
    items.append(("d xi_pm = 0", is_zero_all(
        (e for xi in (acp.xi, acm.xi) for row in ext_d(xi).components for e in row), POLICY)))
    nij = []
    for F in (acp.F, acm.F):
        fr = frame(chart)
        for i in range(chart.dim):
            for j in range(i + 1, chart.dim):
                nij.extend(nijenhuis_classical(F, fr[i], fr[j]).components)
    items.append(("N_{F_pm} = 0", is_zero_all(nij, POLICY)))
    items.append(("L_{Z_pm} F_mp = 0", is_zero_all(
        (e for Z, F in ((acp.Z, acm.F), (acm.Z, acp.F))
         for row in lie_derivative(Z, F).matrix for e in row), POLICY)))
    items.append(("L_{Z_pm} gamma = 0", is_zero_all(
        (e for Z in (acp.Z, acm.Z)
         for row in lie_derivative(Z, gamma).components for e in row), POLICY)))
    items.append(("d psi = 0", is_zero_all(
        (e for plane in ext_d(psi).components for row in plane for e in row), POLICY)))
    return items


def test_criterion_09_example51_conditions(s5_t21):
    """The green part of criterion 9: (condlastex), zeta, rho, positivity."""
    items = _condlastex_items(s5_t21)
    ok = len(items) == 7 and all(v.ok for _, v in items)
    from ggwb.structures import rho_form, zeta_form

    acp, acm, _ = s5_t21.classical_pair()
    gamma = s5_t21.G.gamma
    for sign, own, other in ((1, acp, acm), (-1, acm, acp)):
        for e in frame(s5_t21.chart):
            z = zeta_form(s5_t21, own.F(e), sign, POLICY)
            if not is_zero_all(z.components, POLICY).ok:
                ok = False
            X = other.F(e)
            rho = rho_form(s5_t21, X, sign, POLICY)
            reduced = musical_flat(gamma, lie_bracket(own.Z, X)) * (-2 * sign)
            if not is_zero_all((rho - reduced).components, POLICY).ok:
                ok = False
    pm = check_product_metric(s5_t21, POLICY)
    ok = ok and pm.ok
    assert _line(
        9, "S5 conditions ((condlastex) x7, zeta=0, rho reduction, Gtilde > 0)", ok
    )


def test_criterion_09_binormal_clause_known_paper_defect(s5_t21):
    """The red part of criterion 9: check_binormal on S5.

    Every (indbin1) line is Proved, but the definitional cross-check fails:
    the companion structure is not Courant-integrable (hand-verified, see
    the module docstring).  The cross-check is part of the check's contract,
    so this clause cannot pass without faking it; the test states the
    criterion faithfully and is expected to stay red.
    """
    res = check_binormal(s5_t21, POLICY)
    _line(9, "S5 check_binormal (known upstream criterion defect)", res.ok)
    assert res.ok, (
        "check_binormal(S5) fails on the definitional cross-check: the (indbin1) "
        "system is provably weaker than the definition of binormality on this data "
        "(companion not Courant-integrable); see this module's docstring."
    )


def test_criterion_10_crvpm_oracle_equivalence(s1, s2, s3, s5_t21):
    metrics = {
        "S1": build_gen_metric(s1.gamma, None, POLICY),
        "S2": build_gen_metric(s2.gamma, None, POLICY),
        "S3": build_gen_metric(s3.gamma, None, POLICY),
        "S5": s5_t21.G,
    }
    rng = random.Random(1010)
    ok = True
    for name, G in metrics.items():
        exprs = []
        for k in range(50):
            degree = 2 if k % 10 == 9 else 1
            X = random_vector_field(G.chart, rng, degree)
            Y = random_vector_field(G.chart, rng, degree)
            signs = (rng.choice((1, -1)), rng.choice((1, -1)))
            closed = courant_bracket_Vpm(G, X, Y, signs)
            generic = courant_bracket(G.section(X, signs[0]), G.section(Y, signs[1]))
            exprs.extend((closed - generic).components())
        if not is_zero_all(exprs, POLICY).ok:
            ok = False
    assert _line(10, "(CrVpm) equals the generic bracket (50 random pairs x 4 metrics)", ok)


def test_criterion_11_cross_identities(flat_c2):
    herm = check_hermitian_identities(flat_c2["gamma"], flat_c2["J"], POLICY)
    ok = herm.verdict.is_proved
    gk = check_gen_kahler(flat_c2["gamma"], flat_c2["psi"], flat_c2["J"], flat_c2["J"], POLICY)
    ok = ok and gk.ok and gk.subverdict("(relpsiJ) <=> (relpsiOmega)").is_proved
    assert _line(11, "cross identities ((eqdinKN), (identHerm), (relpsiJ) <=> (relpsiOmega))", ok)


def test_criterion_12_determinism(capsys):
    from ggwb.workbench.cli import main

    args = ["check", "S2", "--seed", "7", "--format", "json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    ok = first == second and json.loads(first)["schema"] == 2
    with capsys.disabled():
        _line(12, "determinism (byte-identical JSON reports for a fixed seed)", ok)
    assert ok