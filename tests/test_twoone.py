import random

import pytest
import sympy as sp

from ggwb.calculus import OneForm, VectorField, frame, tensor_oneform_vector
from ggwb.courant import BigEndo, BigSection, big_frame, pairing
from ggwb.errors import StructureError
from ggwb.structures import (
    AlmostContact,
    build_21gac,
    build_product_J,
    check_gen_contact,
    check_normal_21,
    check_phi,
    check_product_J,
    check_two_one,
    classical_lift,
    conformal_change,
    conformal_operator,
    check_sasakian,
    integrability_product,
    phi_endo,
    product_J_classical,
    second_structure,
    unified_normality_tensor,
)
from ggwb.structures.classical import product_J_classical
from ggwb.symexpr import is_zero_all, random_poly
from ggwb.verdict import VerdictKind


def test_two_one_classical_lift_axioms(t21_s2, pol):
    res = check_two_one(t21_s2, pol)
    assert res.ok
    assert res.subverdict("(almoctZpm) g(Z+,Z+) = 1").is_proved
    assert res.subverdict("corank(Fcal) = 2").ok
    assert res.subverdict("neg(Fcal) = 1").ok


def test_two_one_vector_parts_not_orthogonal(t21_s2, s2):
    """In the classical lift Z+ = Z- = Z, so gamma(Z+, Z-) = 1 even though
    the big sections are g-orthogonal."""
    val = s2.gamma(t21_s2.Z_plus.X, t21_s2.Z_minus.X)
    assert val == 1
    assert pairing(t21_s2.Z_plus, t21_s2.Z_minus).is_syntactic_zero


def test_two_one_rejects_scaled_frame(s2, pol):
    Fcal = BigEndo.from_endo(s2.F)
    Zp = BigSection(s2.Z, s2.xi) * 2
    Zm = BigSection(s2.Z, -s2.xi)
    with pytest.raises(StructureError) as err:
        build_21gac(Fcal, Zp, Zm, None, pol)
    assert any("g(Z+,Z+) = 1" in lbl for lbl, _ in err.value.failures)


def test_classical_pair_roundtrip(t21_s2, s2, pol):
    acp, acm, psi = t21_s2.classical_pair()
    for got, want in ((acp.F, s2.F), (acm.F, s2.F)):
        diff = [
            (a - b)
            for ra, rb in zip(got.matrix, want.matrix)
            for a, b in zip(ra, rb)
        ]
        assert all(e.is_syntactic_zero for e in diff)
    assert acp.Z == s2.Z and acm.Z == s2.Z
    assert acp.xi == s2.xi


def test_product_J_matches_classical(t21_s2, s2, pol):
    pj = build_product_J(t21_s2, policy=pol)
    _, J_classical = product_J_classical(s2)
    assert pj.J == BigEndo.from_endo(J_classical)
    res = check_product_J(t21_s2, pol)
    assert res.verdict.is_proved


def test_product_J_skew_on_basis(t21_s2, pol):
    pj = build_product_J(t21_s2, policy=pol)
    v = pairing(pj.J(pj.T_plus), pj.Z_plus_lift) + pairing(pj.T_plus, pj.J(pj.Z_plus_lift))
    assert v.is_syntactic_zero


def test_product_J_alternative_basis(t21_s2, pol):
    """Any g-pseudo-orthonormal line basis yields an integrable J for a
    normal structure (the one-parameter family)."""
    product = t21_s2.chart.product_with_line()
    n = product.dim
    up = [0] * n
    up[n - 1] = 2
    half = ["0"] * n
    half[n - 1] = "1/2"
    Tp = BigSection(VectorField(product, up), OneForm(product, half))
    dn = [0] * n
    dn[n - 1] = -2
    Tm = BigSection(VectorField(product, dn), OneForm(product, half))
    pj = build_product_J(t21_s2, basis=(Tp, Tm), policy=pol)
    assert is_zero_all(pj.J.square_defect(-1), pol).is_proved
    assert integrability_product(pj.J, pol).is_proved


def test_product_J_invalid_basis(t21_s2, pol):
    product = t21_s2.chart.product_with_line()
    n = product.dim
    up = [0] * n
    up[n - 1] = 2
    one = ["0"] * n
    one[n - 1] = "1"
    Tp = BigSection(VectorField(product, up), OneForm(product, one))  # g(T+,T+) = 2
    Tm = BigSection(VectorField(product, [0] * n), OneForm(product, one))
    with pytest.raises(StructureError):
        build_product_J(t21_s2, basis=(Tp, Tm), policy=pol)


# -- Phi ---------------------------------------------------------------------


def test_phi_classical_formula(t21_s2, s2, R3):
    """(Phiptclasic): Phi = (phi, -a o phi) with phi = i F + xi (x) Z."""
    phi = phi_endo(t21_s2)
    phi_classical = (s2.F * R3.i) + tensor_oneform_vector(s2.xi, s2.Z)
    expected = BigEndo.from_endo(phi_classical)
    rows = zip(phi.matrix, expected.matrix)
    d = sp.Matrix([[a.expr - b.expr for a, b in zip(r, s)] for r, s in rows])
    assert d.applyfunc(sp.cancel) == sp.zeros(6)


def test_phi_axioms(t21_s1, t21_s2, s5_t21, pol):
    for s in (t21_s1, t21_s2, s5_t21):
        res = check_phi(s, pol)
        assert res.ok
        assert res.subverdict("(eqPhi) Phi^2 = Id").is_proved


def test_phi_swaps_kernel_frame(t21_s2, pol):
    phi = phi_endo(t21_s2)
    d1 = phi(t21_s2.Z_plus) - t21_s2.Z_minus
    d2 = phi(t21_s2.Z_minus) - t21_s2.Z_plus
    assert all(c.is_syntactic_zero for c in d1.components() + d2.components())


def test_phi_nijenhuis_vanishes_on_normal(t21_s2, pol):
    """Normality implies N_Phi = 0 (strong generalized contact)."""
    res = check_gen_contact(t21_s2, pol)
    assert res.subverdict("N_Phi = 0 (strong generalized contact)").ok


# -- normality through the (normaltotal) conditions -----------------------------


def test_normal21_verdicts(t21_s1, t21_s2, t21_s3, pol):
    assert check_normal_21(t21_s1, pol).verdict.is_proved
    assert check_normal_21(t21_s2, pol).verdict.is_proved
    res = check_normal_21(t21_s3, pol)
    assert res.verdict.kind is VerdictKind.FAILED
    assert res.subverdict("agreement of (normaltotal) and (normtotal2)").ok


def test_normal21_matches_product_definition(t21_s1, t21_s2, t21_s3, pol):
    for s in (t21_s1, t21_s2, t21_s3):
        via_conditions = check_normal_21(s, pol).verdict.ok
        pj = build_product_J(s, policy=pol)
        via_definition = integrability_product(pj.J, pol).ok
        assert via_conditions == via_definition


def test_unified_tensor_scalar_bilinear(t21_s2, pol):
    """The repaired (normtotal2) tensor is C-infinity bilinear."""
    rng = random.Random(19)
    chart = t21_s2.chart
    f = random_poly(chart, rng)
    bf = big_frame(chart)
    for A, B in ((bf[0], bf[4]), (bf[2], bf[1]), (t21_s2.Z_plus, bf[0])):
        scaled = unified_normality_tensor(t21_s2, A * f, B)
        base = unified_normality_tensor(t21_s2, A, B) * f
        assert is_zero_all((scaled - base).components(), pol).is_proved


def test_second_structure_involution(s5_t21, pol):
    s2nd = second_structure(s5_t21)
    assert check_two_one(s2nd, pol).ok
    back = second_structure(s2nd)
    assert back.Fcal == s5_t21.Fcal
    d = (back.Z_minus - s5_t21.Z_minus).components()
    assert all(c.is_syntactic_zero for c in d)


# -- conformal change and the Sasakian criterion ---------------------------------


def test_conformal_operator_identity(R3):
    c0 = conformal_operator(R3, R3.zero)
    assert c0 == BigEndo.identity(R3)
    tau = R3.scalar("x")
    prod = conformal_operator(R3, -tau) @ conformal_operator(R3, tau)
    assert prod == BigEndo.identity(R3)


def test_conformal_change_blocks(R3, s1):
    A = BigEndo.from_endo(s1.F)
    tau = R3.scalar("z")
    twisted = conformal_change(tau, A)
    # diagonal blocks are untouched for a block-diagonal endomorphism
    assert twisted == A


def test_sasakian_s1_fails(t21_s1, pol):
    """The flat cosymplectic lift is binormal but not Sasakian: the e^t
    conformal twist breaks integrability."""
    res = check_sasakian(t21_s1, pol)
    assert not res.ok
