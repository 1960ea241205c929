"""Consequence-level checks on the scenarios that realize their hypotheses."""

import pytest
import sympy as sp

from ggwb.calculus import EndoTM, VectorField, contract, ext_d, frame, tensor_oneform_vector
from ggwb.hypersurface import induced_almost_contact, induced_gen_structure
from ggwb.structures import check_binormal, eigen_projections
from ggwb.symexpr import is_zero_all
from ggwb.verdict import VerdictKind


def _b_apply(geo, X, Y):
    """The second fundamental form b(X, Y), written out."""
    return contract("ac,a,c->", geo.b, X, Y)


def test_corollary_32_closed_fundamental_form_on_hyperplane(hyperplane, pol):
    """The hyperplane-induced structure has d Xi = 0 and b(FX,FY) = b(X,Y),
    the closed-fundamental-form route to classical CRF."""
    ac = induced_almost_contact(hyperplane["geo"], hyperplane["J"])
    dxi = ext_d(ac.fundamental_form())
    assert dxi.is_syntactic_zero
    geo = hyperplane["geo"]
    fr = frame(ac.chart)
    for i in range(3):
        for j in range(3):
            d = _b_apply(geo, ac.F(fr[i]), ac.F(fr[j])) - _b_apply(geo, fr[i], fr[j])
            assert d.is_syntactic_zero


def test_corollary_34b_geodesic_z_on_hyperplane(hyperplane, pol):
    """nabla^s_Z Z = 0 for the hyperplane-induced structure: the trajectories
    of Z are geodesics (the extra hypothesis of the totally-geodesic converse)."""
    ac = induced_almost_contact(hyperplane["geo"], hyperplane["J"])
    conn = ac.gamma.connection()
    nz = conn.nabla(ac.Z, ac.Z)
    assert all(c.is_syntactic_zero for c in nz.components)


def test_killing_orthogonal_hyperplane_is_binormal(hyperplane, pol):
    """The hyperplane is orthogonal to the unit Killing field d_{y2}, which is
    holomorphic for both J_pm = J; consequence: the induced generalized
    metric almost contact structure is binormal."""
    igs = induced_gen_structure(hyperplane["geo"], hyperplane["J"], hyperplane["J"])
    res = check_binormal(igs.two_one, pol)
    assert res.ok
    assert res.subverdict(
        "cross-check: binormal iff both the structure and its companion are normal"
    ).is_proved


def _matrix(A):
    return sp.Matrix([[e.expr for e in row] for row in A.matrix])


def test_eigen_projections_of_big_endo(s5_ctx, pol):
    """pr_H^2 = pr_H and the projector algebra for S5's generalized F."""
    quad = s5_ctx.build(s5_ctx.scenario.structure("quad"))
    pr = eigen_projections(quad.Fcal, pol)
    h = _matrix(pr["pr_H"])
    assert (h * h - h).applyfunc(sp.cancel) == sp.zeros(10)
    total = _matrix(pr["pr_H"]) + _matrix(pr["pr_Hbar"]) + _matrix(pr["pr_Q"]) - sp.eye(10)
    assert total.applyfunc(sp.cancel) == sp.zeros(10)


def test_s5_data_matches_fpmdina(s5_ctx, s2):
    """The stored S5 endomorphisms equal F_pm = A + theta (x) Z_mp - xi_mp (x) U
    built from the normal factor's data."""
    sc = s5_ctx.scenario
    chart = sc.charts["M5"]
    # lift the Heisenberg structure data to the 5-chart
    A = EndoTM(chart, [
        ["0", "1", "0", "0", "0"],
        ["-1", "0", "0", "0", "0"],
        ["0", "y", "0", "0", "0"],
        ["0", "0", "0", "0", "0"],
        ["0", "0", "0", "0", "0"],
    ])
    U = VectorField(chart, [0, 0, 1, 0, 0])
    theta = sc.fields["xi_plus"].__class__(chart, ["-y", "0", "1", "0", "0"])
    Zp, Zm = sc.fields["Z_plus"], sc.fields["Z_minus"]
    xip, xim = sc.fields["xi_plus"], sc.fields["xi_minus"]
    built_plus = A + tensor_oneform_vector(theta, Zm) - tensor_oneform_vector(xim, U)
    built_minus = A + tensor_oneform_vector(theta, Zp) - tensor_oneform_vector(xip, U)
    for built, stored in ((built_plus, sc.fields["F_plus"]), (built_minus, sc.fields["F_minus"])):
        diff = [
            a - b for ra, rb in zip(built.matrix, stored.matrix) for a, b in zip(ra, rb)
        ]
        assert all(e.is_syntactic_zero for e in diff)


def test_s5_fpmdetal_relations(s5_ctx):
    """(Fpmdetal): F_+ U = Z_-, F_+ Z_+ = 0, F_+ Z_- = -U, and the mirror."""
    sc = s5_ctx.scenario
    chart = sc.charts["M5"]
    U = VectorField(chart, [0, 0, 1, 0, 0])
    Fp, Fm = sc.fields["F_plus"], sc.fields["F_minus"]
    Zp, Zm = sc.fields["Z_plus"], sc.fields["Z_minus"]
    assert Fp(U) == Zm and Fm(U) == Zp
    assert all(c.is_syntactic_zero for c in Fp(Zp).components)
    assert all(c.is_syntactic_zero for c in Fm(Zm).components)
    assert Fp(Zm) == -U and Fm(Zp) == -U
