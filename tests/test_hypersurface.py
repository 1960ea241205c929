import pytest
import sympy as sp

from ggwb.calculus import (
    ChartManifold,
    EndoTM,
    MetricField,
    VectorField,
    euclidean_metric,
    frame,
    zero_twoform,
)
from ggwb.errors import ExprError, PreconditionNotMet, StructureError
from ggwb.hypersurface import (
    Embedding,
    check_almost_hermitian,
    check_fundamental_form_property,
    check_gen_kahler,
    check_hermitian_identities,
    check_hyp_CRF,
    check_hyp_CRFK,
    check_hyp_geometry,
    check_hyp_normal,
    check_induced_contact,
    induced_almost_contact,
    induced_gen_structure,
    second_fundamental_form,
    unit_normal,
)
from ggwb.structures import (
    check_almost_contact,
    check_classical_CRF,
    check_CRFK,
    check_normal_classical,
    check_two_one,
)
from ggwb.symexpr import is_zero, is_zero_all
from ggwb.verdict import VerdictKind


def test_embedding_validation(flat_c2):
    domain = ChartManifold("bad2", ["u1", "u2"])
    with pytest.raises(ExprError):
        Embedding(domain, flat_c2["chart"], ["u1", "u2", "0", "0", "0"])
    with pytest.raises(ExprError):  # codimension one only
        Embedding(domain, flat_c2["chart"], ["u1", "u2", "0", "0"])
    clash = ChartManifold("clash", ["x1", "u2", "u3"])
    with pytest.raises(ExprError):
        Embedding(clash, flat_c2["chart"], ["x1", "u2", "u3", "0"])


def test_rank_deficiency_detected(flat_c2):
    domain = ChartManifold("deg3", ["u1", "u2", "u3"])
    emb = Embedding(domain, flat_c2["chart"], ["u1", "u1", "0", "0"])
    with pytest.raises(StructureError):
        unit_normal(emb, flat_c2["gamma"])


# -- unit normal ----------------------------------------------------------


def test_unit_normal_hyperplane(hyperplane):
    nu = hyperplane["geo"].nu
    assert [str(c) for c in nu] == ["0", "0", "0", "1"]


def test_unit_normal_sphere_is_inward_position(sphere, pol):
    emb, geo = sphere["embedding"], sphere["geo"]
    plus_position = [geo.nu[k] + emb.components[k] for k in range(4)]
    assert is_zero_all(plus_position, pol).ok


def test_unit_normal_orientation_flag(sphere, pol):
    emb = sphere["embedding"]
    flipped = Embedding(emb.domain, emb.ambient, emb.components, orientation=-1)
    nu = unit_normal(flipped, sphere["gamma"], pol)
    minus_position = [nu[k] - emb.components[k] for k in range(4)]
    assert is_zero_all(minus_position, pol).ok


def test_unit_length_and_geometry_invariants(hyperplane, sphere, pol):
    assert check_hyp_geometry(hyperplane["geo"], pol).verdict.is_proved
    res = check_hyp_geometry(sphere["geo"], pol)
    assert res.ok
    assert res.subverdict("gamma(nu, nu) = 1").ok


# -- second fundamental form ------------------------------------------------


def test_hyperplane_totally_geodesic(hyperplane):
    assert all(x.is_syntactic_zero for row in hyperplane["geo"].b for x in row)


def test_sphere_umbilical_b_equals_s(sphere, pol):
    geo = sphere["geo"]
    d = [geo.b[a][c] - geo.s.matrix[a][c] for a in range(3) for c in range(3)]
    assert is_zero_all(d, pol).ok


def test_sphere_weingarten_is_identity(sphere, pol):
    W = sphere["geo"].weingarten
    d = W - EndoTM.identity(W.chart)
    assert is_zero_all((e for row in d.matrix for e in row), pol).ok


# -- induced classical structure ----------------------------------------------


def test_hyperplane_induces_flat_cosymplectic(hyperplane, pol):
    ac = induced_almost_contact(hyperplane["geo"], hyperplane["J"])
    assert [[str(x) for x in row] for row in ac.F.matrix] == [
        ["0", "-1", "0"],
        ["1", "0", "0"],
        ["0", "0", "0"],
    ]
    assert [str(c) for c in ac.Z.components] == ["0", "0", "1"]
    assert [str(c) for c in ac.xi.components] == ["0", "0", "1"]


def test_sphere_induced_structure(sphere, pol):
    ac = induced_almost_contact(sphere["geo"], sphere["J"])
    assert check_almost_contact(ac, pol).ok
    assert is_zero(ac.xi(ac.Z) - 1, pol).ok
    # Z = -J nu is tangent and unit
    assert is_zero(ac.gamma(ac.Z, ac.Z) - 1, pol).ok


def test_induced_contact_checks(hyperplane, sphere, pol):
    r1 = check_induced_contact(hyperplane["geo"], hyperplane["J"], pol)
    assert r1.verdict.is_proved
    r2 = check_induced_contact(sphere["geo"], sphere["J"], pol)
    assert r2.ok
    assert r2.subverdict("Xi = iota^* Omega").ok


# -- CRF / normality criteria ---------------------------------------------------


def test_hyp_criteria_hold_on_both(hyperplane, sphere, pol):
    for data in (hyperplane, sphere):
        assert check_hyp_CRF(data["geo"], data["J"], pol).ok
        assert check_hyp_normal(data["geo"], data["J"], pol).ok


def test_hyp_agreement_with_structure_level(hyperplane, sphere, pol):
    """Hypersurface-level and induced-structure-level verdicts agree."""
    for data in (hyperplane, sphere):
        ac = induced_almost_contact(data["geo"], data["J"])
        assert (
            check_hyp_CRF(data["geo"], data["J"], pol).ok
            == check_classical_CRF(ac, pol).ok
        )
        assert (
            check_hyp_normal(data["geo"], data["J"], pol).ok
            == check_normal_classical(ac, pol).ok
        )


def test_hyp_refuses_non_hermitian_ambient(hyperplane, pol):
    bad_J = EndoTM(
        hyperplane["chart"],
        [[0, -2, 0, 0], ["1/2", 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
    )
    with pytest.raises(PreconditionNotMet, match="^ambient structure is not Hermitian ") as exc:
        check_hyp_CRF(hyperplane["geo"], bad_J, pol)
    assert exc.value.failures and not any(v.ok for _, v in exc.value.failures)


def test_fundamental_form_property(hyperplane, sphere, pol):
    for data in (hyperplane, sphere):
        res = check_fundamental_form_property(data["geo"], data["J"], pol)
        assert res.ok
        assert res.subverdict("(LXi) equivalent to the first (eqCRF2) condition").is_proved


# -- ambient identities -----------------------------------------------------------


def test_hermitian_identities_flat(flat_c2, pol):
    res = check_hermitian_identities(flat_c2["gamma"], flat_c2["J"], pol)
    assert res.verdict.is_proved


def test_hermitian_identity_detects_nonintegrable(C2, pol):
    """(eqdinKN) fails with a witness for an almost Hermitian, non-integrable J."""
    gamma = MetricField(
        C2,
        [["exp(x2)", "0", "0", "0"], ["0", "exp(-x2)", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
    )
    J = EndoTM(
        C2,
        [["0", "-exp(-x2)", "0", "0"], ["exp(x2)", "0", "0", "0"], ["0", "0", "0", "-1"], ["0", "0", "1", "0"]],
    )
    aH = check_almost_hermitian(gamma, J, pol)
    assert aH.subverdict("J^2 = -Id").ok
    assert aH.subverdict("gamma(JX, JY) = gamma(X, Y)").ok
    assert not aH.subverdict("N_J = 0 (integrability)").ok
    res = check_hermitian_identities(gamma, J, pol)
    v = res.subverdict(
        "(eqdinKN) 2 gamma(nabla_X J(Y), U) = dOmega(X,Y,U) - dOmega(X,JY,JU)"
    )
    assert v.kind is VerdictKind.FAILED and v.witness is not None


def test_gen_kahler_flat(flat_c2, pol):
    res = check_gen_kahler(flat_c2["gamma"], flat_c2["psi"], flat_c2["J"], flat_c2["J"], pol)
    assert res.verdict.is_proved
    assert res.subverdict("(relpsiJ) <=> (relpsiOmega)").is_proved


# -- induced generalized structure and CRFK ------------------------------------


@pytest.fixture(scope="module")
def hyperplane_induced(hyperplane):
    return induced_gen_structure(hyperplane["geo"], hyperplane["J"], hyperplane["J"])


@pytest.fixture(scope="module")
def sphere_induced(sphere):
    return induced_gen_structure(sphere["geo"], sphere["J"], sphere["J"])


def test_induced_two_one_axioms(hyperplane_induced, sphere_induced, pol):
    for igs in (hyperplane_induced, sphere_induced):
        res = check_two_one(igs.two_one, pol)
        assert res.ok
        from ggwb.courant import pairing

        assert is_zero(pairing(igs.two_one.Z_plus, igs.two_one.Z_minus), pol).ok


def test_hyp_crfk_hyperplane_passes(hyperplane, pol):
    res = check_hyp_CRFK(hyperplane["geo"], hyperplane["J"], hyperplane["J"], pol)
    assert res.ok
    assert res.subverdict("CRFK consequence: induced structure + is normal").ok


def test_hyp_crfk_sphere_fails_with_witness(sphere, pol):
    res = check_hyp_CRFK(sphere["geo"], sphere["J"], sphere["J"], pol)
    assert res.verdict.kind is VerdictKind.FAILED
    bad = [v for lbl, v in res.items if not v.ok]
    assert bad and all("b(X, F" in lbl for lbl, v in res.items if not v.ok)
    assert bad[0].witness is not None


def test_hyp_crfk_agrees_with_structure_level(
    hyperplane_induced, sphere_induced, hyperplane, sphere, pol
):
    """(eqptans3) versus the (CRFK6)-based checker on the assembled quadruple."""
    hyp_level = check_hyp_CRFK(hyperplane["geo"], hyperplane["J"], hyperplane["J"], pol)
    assert hyp_level.ok == check_CRFK(hyperplane_induced.genf, pol).ok
    hyp_level = check_hyp_CRFK(sphere["geo"], sphere["J"], sphere["J"], pol)
    assert hyp_level.ok == check_CRFK(sphere_induced.genf, pol).ok


def test_hyp_crfk_refuses_non_gk_ambient(hyperplane, C2, pol):
    gamma = MetricField(
        C2,
        [["exp(x2)", "0", "0", "0"], ["0", "exp(-x2)", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
    )
    J = EndoTM(
        C2,
        [["0", "-exp(-x2)", "0", "0"], ["exp(x2)", "0", "0", "0"], ["0", "0", "0", "-1"], ["0", "0", "1", "0"]],
    )
    with pytest.raises(PreconditionNotMet):
        check_hyp_CRFK(
            second_fundamental_form(hyperplane["embedding"], gamma, zero_twoform(C2), pol),
            J, J, pol,
        )
