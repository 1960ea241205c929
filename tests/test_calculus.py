import random
from fractions import Fraction

import pytest
import sympy as sp

from ggwb.calculus import (
    ChartManifold,
    EndoTM,
    MetricField,
    OneForm,
    TwoForm,
    VectorField,
    coframe,
    euclidean_metric,
    ext_d,
    frame,
    interior,
    lie_bracket,
    contract,
    lie_derivative,
    musical_flat,
    musical_sharp,
    random_oneform,
    random_vector_field,
    wedge,
    _partials,
)
from ggwb.errors import ChartMismatchError, ExprError, SingularMetricError
from ggwb.symexpr import ZeroPolicy, evaluate, is_zero, is_zero_all, parse_scalar
from ggwb.verdict import VerdictKind


def _zero_vec(v):
    return all(c.is_syntactic_zero for c in v.components)


# -- charts ---------------------------------------------------------------


def test_chart_validation():
    with pytest.raises(ExprError):
        ChartManifold("bad", [])
    with pytest.raises(ExprError):
        ChartManifold("bad", ["x", "x"])
    with pytest.raises(ExprError):
        ChartManifold("bad", ["x"], ranges={"y": (0, 1)})
    chart = ChartManifold("ok", ["x", "y"])
    with pytest.raises(ExprError):
        chart.product_with_line("x")


def test_a_chart_takes_only_names_the_grammar_reads_as_themselves():
    """'x-1' loaded as a coordinate, and parse_scalar('x-1') then meant x
    minus 1.  A name is an identifier other than sin, cos, exp and I, the
    imaginary unit of the printed text."""
    for bad in ("x-1", "sin", "cos", "exp", "I", "1x", "", "x y", "x^2", sp.Symbol("x")):
        with pytest.raises(ExprError, match="a coordinate name is an identifier"):
            ChartManifold("bad", ["x", bad])
    chart = ChartManifold("ok", ["x_1", "_t", "Sin", "lambda", "E"])
    s = chart.scalar("x_1*_t + Sin^2 - lambda/E")
    assert parse_scalar(str(s), chart) == s
    x_1, _t, Sin, lam, E = sp.symbols("x_1 _t Sin lambda E")
    assert s.expr == sp.cancel(x_1 * _t + Sin**2 - lam / E)


def test_chart_sampling_respects_ranges():
    chart = ChartManifold("ranged", ["a"], ranges={"a": (Fraction(1, 8), Fraction(3))})
    rng = random.Random(0)
    for _ in range(50):
        pt = chart.sample_point(rng)
        assert Fraction(1, 8) < pt["a"] < Fraction(3)


# -- lie bracket ----------------------------------------------------------


def test_lie_bracket_examples(R3):
    ex, ey, ez = frame(R3)
    assert _zero_vec(lie_bracket(ex, ey))
    Y = VectorField(R3, ["1", "0", "y"])
    assert lie_bracket(ey, Y) == ez
    X = VectorField(R3, ["0", "x", "0"])
    assert lie_bracket(X, ex) == -ey


def test_lie_bracket_numeric_oracle(R3):
    """[X,Y]^k at a point against numeric Jacobian contraction DY X - DX Y."""
    rng = random.Random(23)
    h = Fraction(1, 10**6)
    for _ in range(6):
        X = random_vector_field(R3, rng)
        Y = random_vector_field(R3, rng)
        br = lie_bracket(X, Y)
        pt = R3.sample_point(rng)
        at = lambda e, p: float(evaluate(e, p))  # noqa: E731
        for k in range(3):
            expected = 0.0
            for i, coord in enumerate(R3.coords):
                up, dn = dict(pt), dict(pt)
                up[coord] += h
                dn[coord] -= h
                dyk = (at(Y.components[k], up) - at(Y.components[k], dn)) / (2 * float(h))
                dxk = (at(X.components[k], up) - at(X.components[k], dn)) / (2 * float(h))
                expected += at(X.components[i], pt) * dyk
                expected -= at(Y.components[i], pt) * dxk
            assert abs(at(br.components[k], pt) - expected) < 1e-3


def test_jacobi_identity(R3, pol):
    rng = random.Random(31)
    for _ in range(100):
        X = random_vector_field(R3, rng, 1)
        Y = random_vector_field(R3, rng, 1)
        Z = random_vector_field(R3, rng, 1)
        jac = (
            lie_bracket(X, lie_bracket(Y, Z))
            + lie_bracket(Y, lie_bracket(Z, X))
            + lie_bracket(Z, lie_bracket(X, Y))
        )
        assert is_zero_all(jac.components, pol).kind is not VerdictKind.FAILED


# -- exterior derivative ----------------------------------------------------


def test_ext_d_cartan_convention(R3):
    ex, ey, _ = frame(R3)
    w = ext_d(OneForm(R3, ["0", "x", "0"]))  # d(x dy)
    assert w(ex, ey) == 1
    xi = OneForm(R3, ["-y", "0", "1"])  # dz - y dx
    assert ext_d(xi)(ex, ey) == 1


def test_dd_zero(R3, pol):
    rng = random.Random(4)
    from ggwb.symexpr import random_poly

    for _ in range(10):
        f = random_poly(R3, rng)
        ddf = ext_d(ext_d(f))
        assert all(e.is_syntactic_zero for row in ddf.components for e in row)
        a = random_oneform(R3, rng)
        dda = ext_d(ext_d(a))
        assert dda.is_syntactic_zero


def test_wedge(R3):
    ex, ey, ez = frame(R3)
    dx, dy, dz = coframe(R3)
    assert wedge(dx, dy)(ex, ey) == 1
    assert all(e.is_syntactic_zero for row in wedge(dx, dx).components for e in row)
    ydx = OneForm(R3, ["y", "0", "0"])
    assert wedge(ydx, dz)(ex, ez) == R3.scalar("y")


# -- lie derivatives ---------------------------------------------------------


def test_lie_derivative_examples(R3, s3):
    _, _, ez = frame(R3)
    xi = OneForm(R3, ["-y", "0", "1"])
    assert all(c.is_syntactic_zero for c in lie_derivative(ez, xi).components)
    lzf = lie_derivative(ez, s3.F)
    assert not all(e.is_syntactic_zero for row in lzf.matrix for e in row)
    flat = lie_derivative(frame(R3)[0], euclidean_metric(R3))
    assert all(e.is_syntactic_zero for row in flat.components for e in row)


def test_lie_derivative_endo_oracle(R3, pol):
    """(L_X F)(Y) = [X, FY] - F[X, Y] on random data."""
    rng = random.Random(8)
    F = EndoTM(R3, [["y", "x", "0"], ["0", "x*y", "1"], ["2", "0", "x"]])
    for _ in range(6):
        X = random_vector_field(R3, rng, 1)
        Y = random_vector_field(R3, rng, 1)
        lhs = lie_derivative(X, F)(Y)
        rhs = lie_bracket(X, F(Y)) - F(lie_bracket(X, Y))
        assert is_zero_all((lhs - rhs).components, pol).is_proved


def test_cartan_magic_formula(R3, pol):
    rng = random.Random(12)
    for _ in range(8):
        X = random_vector_field(R3, rng, 1)
        a = random_oneform(R3, rng, 2)
        lhs = lie_derivative(X, a)
        rhs = interior(X, ext_d(a)) + ext_d(a(X))
        assert is_zero_all((lhs - rhs).components, pol).is_proved


# -- musicals -----------------------------------------------------------------


def test_musical_examples(R3, s2):
    ex, _, ez = frame(R3)
    dx, _, dz = coframe(R3)
    g = euclidean_metric(R3)
    assert musical_flat(g, ex) == dx
    assert musical_sharp(g, dz) == ez
    # flat_sigma(Z) = xi on the S2 metric
    assert musical_flat(s2.gamma, s2.Z) == s2.xi


def test_flat_combination_splits(R3, s2, pol):
    """The covector part of tau_pm X is flat_{psi +- gamma} X = flat_psi X
    +- flat_gamma X."""
    from ggwb.calculus import TwoForm
    from ggwb.structures.genmetric import GenMetric

    psi = TwoForm(R3, [["0", "x", "0"], ["-x", "0", "z"], ["0", "-z", "0"]])
    G = GenMetric(s2.gamma, psi)
    rng = random.Random(44)
    for _ in range(4):
        X = random_vector_field(R3, rng, 1)
        for sign in (1, -1):
            fused = G.section(X, sign).alpha
            split = musical_flat(psi, X) + musical_flat(s2.gamma, X) * sign
            assert is_zero_all((fused - split).components, pol).is_proved


def test_flat_sharp_inverse(R3, s2, pol):
    rng = random.Random(3)
    for _ in range(6):
        X = random_vector_field(R3, rng, 1)
        back = musical_sharp(s2.gamma, musical_flat(s2.gamma, X))
        assert is_zero_all((back - X).components, pol).is_proved


# -- Levi-Civita ---------------------------------------------------------------


def test_levi_civita_flat(R3):
    conn = euclidean_metric(R3).connection()
    assert all(
        e.is_syntactic_zero for plane in conn.christoffel for row in plane for e in row
    )


def _metric_defect(conn) -> list:
    """Components of nabla gamma, (nabla_k g)_ij = d_k g_ij - Gamma^l_ki g_lj
    - Gamma^l_kj g_il, for i <= j."""
    n = conn.chart.dim
    g, G = conn.gamma, conn.christoffel
    d = (contract("ijk->kij", _partials(g))
         - contract("lki,lj->kij", G, g)
         - contract("lkj,il->kij", G, g)).components
    return [d[k][i][j] for k in range(n) for i in range(n) for j in range(i, n)]


def _torsion(conn, X, Y):
    """nabla_X Y - nabla_Y X - [X, Y]."""
    return conn.nabla(X, Y) - conn.nabla(Y, X) - lie_bracket(X, Y)


def test_levi_civita_properties(R3, s2, pol):
    """The Levi-Civita connection is metric and torsion-free."""
    conn = s2.gamma.connection()
    assert is_zero_all(_metric_defect(conn), pol).is_proved
    rng = random.Random(6)
    for _ in range(4):
        X = random_vector_field(R3, rng, 1)
        Y = random_vector_field(R3, rng, 1)
        assert is_zero_all(_torsion(conn, X, Y).components, pol).is_proved


def test_nabla_f_cosymplectic(R3, s1, pol):
    """S1 is cosymplectic: nabla^s F = 0 with the flat metric."""
    conn = s1.gamma.connection()
    for X in frame(R3):
        nf = conn.nabla(X, s1.F)
        assert all(e.is_syntactic_zero for row in nf.matrix for e in row)


def test_singular_metric_rejected(R3):
    with pytest.raises(SingularMetricError):
        MetricField(R3, [["0", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])


def test_a_determinant_past_the_bound_raises_before_any_permutation(monkeypatch):
    """9 rows took 2.1 s to build 9! permutations and then failed with a
    contraction arity error."""
    import ggwb.calculus as calculus

    def refuse(*a):
        raise AssertionError("the Levi-Civita symbol was built")

    chart = ChartManifold("R9", [f"x{k}" for k in range(1, 10)])
    A = calculus._Array(chart, {(k, k): chart.one for k in range(9)}, (9, 9))
    monkeypatch.setattr(calculus, "_levi_civita", refuse)
    with pytest.raises(ExprError, match=f"exceeds the bound {calculus.MAX_DET}"):
        calculus._det(A)


def test_twoform_antisymmetry_enforced(R3):
    with pytest.raises(ExprError):
        TwoForm(R3, [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "0"]])
    with pytest.raises(ExprError):
        MetricField(R3, [["1", "1", "0"], ["0", "1", "0"], ["0", "0", "1"]])


# -- product with a line --------------------------------------------------------


def test_product_with_line(R3):
    product = R3.product_with_line()
    assert product.coords == ("x", "y", "z", "t")
    lifted = VectorField(product, [c.lift(product) for c in frame(R3)[0].components] + [0])
    assert lifted.components[3].is_syntactic_zero
    xi = OneForm(R3, ["-y", "0", "1"])
    lxi = OneForm(product, [c.lift(product) for c in xi.components] + [0])
    t_dir = frame(product)[3]
    assert lxi(t_dir).is_syntactic_zero


def test_chart_mismatch_in_ops(R3):
    other = ChartManifold("other3", ["u", "v", "w"])
    with pytest.raises(ChartMismatchError):
        lie_bracket(frame(R3)[0], frame(other)[0])
