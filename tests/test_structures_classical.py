import random

import pytest

from ggwb.calculus import EndoTM, OneForm, VectorField, frame, random_vector_field
from ggwb.errors import StructureError
from ggwb.structures import (
    AlmostContact,
    check_almost_contact,
    check_classical_CRF,
    check_crf_endo,
    check_kernel_nabla_F,
    check_normal_classical,
    check_product_complex,
    eigen_projections,
    nijenhuis_classical,
    product_J_classical,
)
from ggwb.symexpr import is_zero_all
from ggwb.verdict import VerdictKind


def test_almost_contact_s1_s2_s3(s1, s2, s3, pol):
    assert check_almost_contact(s1, pol).verdict.is_proved
    assert check_almost_contact(s2, pol).verdict.is_proved
    assert check_almost_contact(s3, pol).verdict.is_proved


def test_almost_contact_scaled_xi_fails(s1, pol, R3):
    bad = AlmostContact(s1.F, s1.Z, OneForm(R3, [0, 0, 2]), name="bad")
    res = check_almost_contact(bad, pol)
    assert not res.ok
    assert not res.subverdict("(almcont) xi(Z) = 1").ok


def test_nijenhuis_examples(s1, s2, R3, pol):
    ex, ey, _ = frame(R3)
    assert all(c.is_syntactic_zero for c in nijenhuis_classical(s1.F, ex, ey).components)
    e1 = VectorField(R3, [0, 1, 0])
    e2 = VectorField(R3, ["1", "0", "y"])
    n = nijenhuis_classical(s2.F, e1, e2)
    assert [str(c) for c in n.components] == ["0", "0", "1"]  # N(e1, e2) = d_z
    rng = random.Random(2)
    X = random_vector_field(R3, rng)
    assert all(
        c.is_syntactic_zero for c in nijenhuis_classical(s2.F, X, X).components
    )


def test_normality_verdicts(s1, s2, s3, pol):
    assert check_normal_classical(s1, pol).verdict.is_proved
    assert check_normal_classical(s2, pol).verdict.is_proved
    v = check_normal_classical(s3, pol).verdict
    assert v.kind is VerdictKind.FAILED and v.witness is not None


def test_normality_matches_product_route(s1, s2, s3, pol):
    for s in (s1, s2, s3):
        direct = check_normal_classical(s, pol).verdict.ok
        product = check_product_complex(s, pol).verdict.ok
        assert direct == product


def test_product_J_squares_to_minus_id(s2, pol):
    product, J = product_J_classical(s2)
    sq = (J @ J) + EndoTM.identity(product)
    assert all(e.is_syntactic_zero for row in sq.matrix for e in row)


def test_crf_verdicts(s1, s2, s3, pol):
    assert check_classical_CRF(s1, pol).verdict.is_proved
    assert check_classical_CRF(s2, pol).verdict.is_proved
    res = check_classical_CRF(s3, pol)
    assert not res.ok
    assert not res.subverdict("(CRFcuLie) F o (L_Z F) = 0").ok


def test_crf_witness_direction_s3(s3, R3):
    """F o (L_Z F) applied to d_x is -d_x on the exp-deformation."""
    from ggwb.calculus import lie_derivative

    comp = s3.F @ lie_derivative(s3.Z, s3.F)
    image = comp(frame(R3)[0])
    assert [str(c) for c in image.components] == ["-1", "0", "0"]


def test_crf_endo_variant(s1, pol):
    assert check_crf_endo(s1.F, pol).verdict.is_proved


def test_eigen_projections_algebra(s1, s2, pol, R3):
    for s in (s1, s2):
        pr = eigen_projections(s.F, pol)
        total = pr["pr_H"] + pr["pr_Hbar"] + pr["pr_Q"] - EndoTM.identity(R3)
        assert all(e.is_syntactic_zero for row in total.matrix for e in row)
        pp = pr["pr_P"] - pr["pr_H"] - pr["pr_Hbar"]
        assert all(e.is_syntactic_zero for row in pp.matrix for e in row)
        idem = (pr["pr_H"] @ pr["pr_H"]) - pr["pr_H"]
        assert all(e.is_syntactic_zero for row in idem.matrix for e in row)
        fp = (s.F @ pr["pr_H"]) - pr["pr_H"] * R3.i
        assert all(e.is_syntactic_zero for row in fp.matrix for e in row)


def test_pr_q_of_s2(s2, R3, pol):
    """pr_Q = Id + F^2 = xi (x) Z: projects onto span{d_z} along span{e1, e2}."""
    pr = eigen_projections(s2.F, pol)
    expected = EndoTM(R3, [["0", "0", "0"], ["0", "0", "0"], ["-y", "0", "1"]])
    d = pr["pr_Q"] - expected
    assert all(e.is_syntactic_zero for row in d.matrix for e in row)


def test_eigen_projections_requires_f_structure(R3, pol):
    not_f = EndoTM(R3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(StructureError):
        eigen_projections(not_f, pol)


def test_kernel_nabla_f(s1, s2, pol):
    assert check_kernel_nabla_F(s1.F, s1.gamma, pol).verdict.is_proved
    # the Heisenberg-type structure has nabla F not kernel-valued
    assert not check_kernel_nabla_F(s2.F, s2.gamma, pol).ok


def test_fundamental_form_s2(s2, R3):
    xi_form = s2.fundamental_form()
    e1 = VectorField(R3, [0, 1, 0])
    e2 = VectorField(R3, ["1", "0", "y"])
    assert xi_form(e1, e2) == 1
    assert xi_form(s2.Z, e1).is_syntactic_zero
