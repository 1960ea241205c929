import random

import pytest

from ggwb.calculus import VectorField, frame, lie_bracket, musical_flat
from ggwb.errors import PreconditionNotMet, StructureError
from ggwb.structures import (
    check_binormal,
    check_normal_21,
    check_normal_explicit,
    check_product_metric,
    rho_form,
    zeta_form,
    zeta_rho_forms,
)
from ggwb.symexpr import is_zero_all, random_poly
from ggwb.verdict import VerdictKind


def test_zeta_vanishes_on_s5(s5_t21, pol):
    """On the torus-product scenario zeta_pm(X_pm) = 0 on spanning sets of P_pm."""
    acp, acm, _ = s5_t21.classical_pair()
    for sign, ac in ((1, acp), (-1, acm)):
        for e in frame(s5_t21.chart):
            z = zeta_form(s5_t21, ac.F(e), sign, pol)
            assert all(c.is_syntactic_zero for c in z.components)


def test_rho_reduction_on_s5(s5_t21, pol):
    """With d psi = 0, L_Z gamma = 0 and d xi = 0 the forms collapse to
    rho_pm(X) = -+ 2 flat_gamma [Z_pm, X]."""
    acp, acm, _ = s5_t21.classical_pair()
    gamma = s5_t21.G.gamma
    for sign, own, other in ((1, acp, acm), (-1, acm, acp)):
        for e in frame(s5_t21.chart):
            X = other.F(e)  # X in P_{-sign}
            rho = rho_form(s5_t21, X, sign, pol)
            reduced = musical_flat(gamma, lie_bracket(own.Z, X)) * (-2 * sign)
            assert is_zero_all((rho - reduced).components, pol).is_proved


def test_zeta_is_function_linear(s5_t21, pol):
    rng = random.Random(7)
    acp, _, _ = s5_t21.classical_pair()
    f = random_poly(s5_t21.chart, rng)
    X = acp.F(frame(s5_t21.chart)[0])
    lhs = zeta_form(s5_t21, X * f, 1, pol)
    rhs = zeta_form(s5_t21, X, 1, pol) * f
    assert is_zero_all((lhs - rhs).components, pol).is_proved


def test_rho_quasi_linearity(s5_t21, pol):
    """rho_pm(f X) = f rho_pm(X) -+ 2 (Z_pm f) flat_gamma X."""
    rng = random.Random(9)
    acp, acm, _ = s5_t21.classical_pair()
    gamma = s5_t21.G.gamma
    f = random_poly(s5_t21.chart, rng)
    for sign, own, other in ((1, acp, acm), (-1, acm, acp)):
        X = other.F(frame(s5_t21.chart)[1])
        lhs = rho_form(s5_t21, X * f, sign, pol)
        correction = musical_flat(gamma, X) * (own.Z.apply(f) * (-2 * sign))
        rhs = rho_form(s5_t21, X, sign, pol) * f + correction
        assert is_zero_all((lhs - rhs).components, pol).is_proved


def test_membership_validation(s5_t21, pol):
    with pytest.raises(StructureError):
        zeta_form(s5_t21, s5_t21.Z_plus.X, 1, pol)  # Z+ is not in P+
    with pytest.raises(StructureError):
        rho_form(s5_t21, s5_t21.Z_plus.X, -1, pol)  # nor in P_{-(-1)} = P+


def test_zeta_rho_combined_requires_both_bundles(s5_t21, pol):
    acp, acm, _ = s5_t21.classical_pair()
    # im A + span{U} lies in both P+ and P-
    X = acp.F(acm.F(frame(s5_t21.chart)[0]))  # in im A subset of both images
    z, r = zeta_rho_forms(s5_t21, X, 1, pol)
    assert all(c.is_syntactic_zero for c in z.components)
    with pytest.raises(StructureError):
        zeta_rho_forms(s5_t21, s5_t21.Z_minus.X, 1, pol)


def test_metric_required(t21_s2, pol, R3, s2):
    from ggwb.structures import TwoOneGAC
    from ggwb.courant import BigEndo, BigSection

    bare = TwoOneGAC(
        BigEndo.from_endo(s2.F), BigSection(s2.Z, s2.xi), BigSection(s2.Z, -s2.xi)
    )
    with pytest.raises(PreconditionNotMet):
        check_normal_explicit(bare, pol)


def test_explicit_agrees_with_normal21(t21_s1, t21_s2, t21_s3, s5_t21, pol):
    for s in (t21_s1, t21_s2, t21_s3, s5_t21):
        assert check_normal_explicit(s, pol).ok == check_normal_21(s, pol).ok


def test_binormal_s1(t21_s1, pol):
    """Classical normal structure with d xi = 0: binormal, and the
    definitional cross-check agrees."""
    res = check_binormal(t21_s1, pol)
    assert res.verdict.is_proved
    assert res.subverdict(
        "cross-check: binormal iff both the structure and its companion are normal"
    ).is_proved


def test_binormal_s3_fails(t21_s3, pol):
    res = check_binormal(t21_s3, pol)
    assert res.verdict.kind is VerdictKind.FAILED


def test_binormal_s5_paper_defect(s5_t21, pol):
    """Every (indbin1) line passes on S5, yet the companion structure is not
    Courant-integrable, so the definitional cross-check fails: the (indbin1)
    system is weaker than the definition on this data (details in the
    acceptance module docstring). This test pins the faithful behavior."""
    res = check_binormal(s5_t21, pol)
    for label, v in res.items:
        if label.startswith("(indbin1)") or label.startswith("classical normality"):
            assert v.ok, label
    assert not res.subverdict(
        "cross-check: binormal iff both the structure and its companion are normal"
    ).ok
    # and the companion really is non-integrable, by the product definition
    from ggwb.structures import build_product_J, integrability_product, second_structure

    pj = build_product_J(second_structure(s5_t21), policy=pol)
    assert integrability_product(pj.J, pol).kind is VerdictKind.FAILED


def test_binormal_s5_cross_check_names_the_failed_side(s5_t21, pol):
    """The failing cross-check carries the companion's normal21 witness and
    says why it failed."""
    v = check_binormal(s5_t21, pol).subverdict(
        "cross-check: binormal iff both the structure and its companion are normal"
    )
    assert v.kind is VerdictKind.FAILED
    assert v.witness is not None
    assert v.witness.detail == "normal21 of the companion failed"
    assert v.witness.value != 0
    assert v.detail.endswith("normality of the pair says Failed")


def test_product_metric_s5(s5_t21, pol):
    res = check_product_metric(s5_t21, pol)
    assert res.ok
    assert res.subverdict("Gtilde|_L = G|_L").is_proved
    assert res.subverdict("Gtilde(T+,T-) = 0").is_proved
