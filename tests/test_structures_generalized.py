import random

import pytest
import sympy as sp

from ggwb.calculus import (
    ChartManifold,
    EndoTM,
    MetricField,
    TwoForm,
    VectorField,
    euclidean_metric,
    frame,
    random_vector_field,
    zero_twoform,
)
from ggwb.courant import BigEndo, big_frame, courant_bracket, pairing, pairing_gram
from ggwb.errors import ExprError, StructureError
from ggwb.structures import (
    GenF,
    GenMetric,
    build_gen_metric,
    build_genF_from_quadruple,
    check_CRFK,
    check_gen_CRF,
    check_gen_F,
    check_gen_metric,
    courant_bracket_Vpm,
    second_genF,
)
from ggwb.symexpr import is_zero, is_zero_all
from ggwb.verdict import VerdictKind


@pytest.fixture(scope="module")
def s2_genmetric(s2, pol, R3):
    psi = TwoForm(R3, [["0", "0", "0"], ["0", "0", "x"], ["0", "-x", "0"]])
    return build_gen_metric(s2.gamma, psi, pol)


def test_gen_metric_flat_closed_form(R3, pol):
    G = build_gen_metric(euclidean_metric(R3), None, pol)
    # Gcal(X, a) = (sharp a, flat X): the off-diagonal block swap
    expected = sp.Matrix(sp.BlockMatrix([[sp.zeros(3), sp.eye(3)], [sp.eye(3), sp.zeros(3)]]))
    assert sp.Matrix(_raw(G.Gcal.matrix)) == expected


def _raw(rows):
    return [[e.expr for e in row] for row in rows]


def _lu_transfer(gamma, psi, F_plus, F_minus):
    """Reference: C diag(F_+, F_-) C^-1 with the 2n x 2n frame matrix C of
    the V_+/V_- basis sections, inverted by LU."""
    g, p = sp.Matrix(_raw(gamma.matrix)), sp.Matrix(_raw(psi.matrix))
    eye = sp.eye(g.rows)
    c = eye.row_join(eye).col_join((g - p).row_join(-g - p))
    m = c * sp.diag(sp.Matrix(_raw(F_plus.matrix)), sp.Matrix(_raw(F_minus.matrix)))
    return (m * c.inv(method="LU")).applyfunc(sp.cancel)


def _random_integer_data(chart, rng):
    """Integer (gamma, psi != 0, F_+, F_-), gamma nondegenerate."""
    n = chart.dim

    def ints():
        return [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]

    while True:
        m = ints()
        gamma = [[m[i][j] + m[j][i] + (9 if i == j else 0) for j in range(n)] for i in range(n)]
        if sp.Matrix(gamma).det() != 0:
            break
    while True:
        m = ints()
        psi = [[m[i][j] - m[j][i] for j in range(n)] for i in range(n)]
        if any(any(row) for row in psi):
            break
    return MetricField(chart, gamma), TwoForm(chart, psi), EndoTM(chart, ints()), EndoTM(chart, ints())


@pytest.mark.parametrize("dim,seed", [(d, k) for d in (2, 3) for k in range(3)])
def test_closed_form_transfer_matches_lu(dim, seed):
    """Gcal, the Gram matrix of G and the Fcal transfer in closed form agree
    entrywise with the LU construction through the frame matrix."""
    chart = ChartManifold(f"R{dim}", ["x", "y", "z"][:dim])
    gamma, psi, F_plus, F_minus = _random_integer_data(chart, random.Random(seed))
    G = GenMetric(gamma, psi)
    gcal = _lu_transfer(gamma, psi, EndoTM.identity(chart), -EndoTM.identity(chart))
    assert _raw(G.Gcal.matrix) == gcal.tolist()
    gram = (gcal.T * sp.Matrix(pairing_gram(chart))).applyfunc(sp.cancel)
    assert _raw(G._gram) == gram.tolist()
    fcal = _lu_transfer(gamma, psi, F_plus, F_minus)
    assert _raw(G.transfer(F_plus, F_minus).matrix) == fcal.tolist()


def test_gen_metric_axioms(s2_genmetric, pol):
    res = check_gen_metric(s2_genmetric, pol)
    assert res.ok
    assert res.subverdict("(condptGrond) Gcal^2 = Id").is_proved


def test_gen_metric_transfer_to_gamma(s2_genmetric, R3, pol):
    fr = frame(R3)
    for i in range(3):
        for j in range(3):
            d = s2_genmetric.G(
                s2_genmetric.section(fr[i], 1), s2_genmetric.section(fr[j], 1)
            ) - s2_genmetric.gamma(fr[i], fr[j])
            assert d.is_syntactic_zero


def test_sections_take_only_the_signs_pm1(s2_genmetric, R3):
    """tau_s exists for s = +-1 only: any other sign is an error, not a
    zero column."""
    X = frame(R3)[0]
    for call in (lambda: s2_genmetric.section(X, 0),
                 lambda: s2_genmetric.sections([X, X], [1, 2])):
        with pytest.raises(ExprError, match="signs must be"):
            call()


def test_gen_metric_rejects_indefinite(R3, pol):
    lorentz = MetricField(R3, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]])
    with pytest.raises(StructureError):
        build_gen_metric(lorentz, None, pol)


def test_crvpm_flat_constant_case(R3, pol):
    G = build_gen_metric(euclidean_metric(R3), None, pol)
    fr = frame(R3)
    out = courant_bracket_Vpm(G, fr[0], fr[1], (1, 1))
    assert all(c.is_syntactic_zero for c in out.components())


def test_crvpm_mixed_sign_on_killing_pair(s5_t21, pol):
    """[(Z+, flat+ Z+), (Z-, flat- Z-)] = (0, d gamma(Z+, Z-)) = 0 on S5."""
    G = s5_t21.G
    out = courant_bracket_Vpm(G, s5_t21.Z_plus.X, s5_t21.Z_minus.X, (1, -1))
    assert all(c.is_syntactic_zero for c in out.components())


def test_crvpm_equals_generic_bracket(s2_genmetric, R3, pol):
    rng = random.Random(13)
    for k in range(6):
        X = random_vector_field(R3, rng, 1)
        Y = random_vector_field(R3, rng, 1)
        for signs in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
            closed = courant_bracket_Vpm(s2_genmetric, X, Y, signs)
            generic = courant_bracket(
                s2_genmetric.section(X, signs[0]), s2_genmetric.section(Y, signs[1])
            )
            assert is_zero_all((closed - generic).components(), pol).is_proved


# -- generalized F structures -------------------------------------------------


def test_example21_identification(s1, pol):
    """psi = 0, F+ = F- = F gives Fcal(X, a) = (FX, -a o F)."""
    G = build_gen_metric(s1.gamma, None, pol)
    gf = build_genF_from_quadruple(G, s1.F, s1.F, pol)
    assert gf.Fcal == BigEndo.from_endo(s1.F)


def test_gen_F_axioms_s1(s1, pol):
    G = build_gen_metric(s1.gamma, None, pol)
    gf = build_genF_from_quadruple(G, s1.F, s1.F, pol)
    res = check_gen_F(gf, pol)
    assert res.verdict.is_proved


def test_quadruple_precondition(s1, R3, pol):
    G = build_gen_metric(s1.gamma, None, pol)
    not_metric_F = EndoTM(R3, [[0, -2, 0], [1, 0, 0], [0, 0, 0]])
    with pytest.raises(StructureError):
        build_genF_from_quadruple(G, not_metric_F, s1.F, pol)


def test_gen_crf_flat_kahler(flat_c2, pol):
    G = build_gen_metric(flat_c2["gamma"], None, pol)
    gf = build_genF_from_quadruple(G, flat_c2["J"], flat_c2["J"], pol)
    assert check_gen_CRF(gf, pol).verdict.is_proved


def test_gen_crf_fails_for_s3_quadruple(s3, pol):
    G = build_gen_metric(s3.gamma, None, pol)
    gf = build_genF_from_quadruple(G, s3.F, s3.F, pol)
    res = check_gen_CRF(gf, pol)
    assert not res.ok


def test_crfk_s1(s1, pol):
    G = build_gen_metric(s1.gamma, None, pol)
    gf = build_genF_from_quadruple(G, s1.F, s1.F, pol)
    res = check_CRFK(gf, pol)
    assert res.verdict.is_proved


def test_crfk_fails_for_s2(s2, pol):
    """The Heisenberg structure is normal but not CRFK (nabla F is not
    kernel-valued), separating the two notions."""
    G = build_gen_metric(s2.gamma, None, pol)
    gf = build_genF_from_quadruple(G, s2.F, s2.F, pol)
    res = check_CRFK(gf, pol)
    assert not res.ok
    assert not res.subverdict("(CRFK6) identity").ok


def test_second_genF_matches_quadruple(s5_ctx, pol):
    quad = s5_ctx.build(s5_ctx.scenario.structure("quad"))
    companion = second_genF(quad)
    rebuilt = build_genF_from_quadruple(
        quad.G, quad.F_plus, -quad.F_minus, pol
    )
    assert companion.Fcal == rebuilt.Fcal
    # Gcal commutes with Fcal and the two companions commute
    gc, m = sp.Matrix(_raw(quad.G.Gcal.matrix)), sp.Matrix(_raw(quad.Fcal.matrix))
    assert (gc * m - m * gc).applyfunc(sp.cancel) == sp.zeros(10)
    m2 = sp.Matrix(_raw(companion.Fcal.matrix))
    assert (m * m2 - m2 * m).applyfunc(sp.cancel) == sp.zeros(10)
