"""Soundness of the exact point certificates: the positivity certificate
of :mod:`ggwb.numeric` and the sign of one scalar, ``symexpr.sign_at``.

Atom-free grids are evaluated exactly in Q or Q(i), so a pivot is zero only
when it is 0.  Each exact case below is one that a float certificate with a
1e-9 tolerance gets wrong: the singular values of [[1, 1], [1, 1 + 1e-12]]
are about 2 and 5e-13, and the eigenvalue -1e-12 of diag(1, -1e-12) lies
inside the tolerance.  Grids with exp/tan generators keep 30-digit values;
their positivity and signs are checked against values written out by hand.
"""

import random
from fractions import Fraction

import mpmath
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ggwb.calculus import ChartManifold, MetricField, _Array, _det, _minor, contract
from ggwb.errors import ExprError, SingularMetricError
from ggwb.hypersurface import Embedding
from ggwb.numeric import positivity_witness
from ggwb.structures.genmetric import GenMetric, check_gen_metric
from ggwb.symexpr import ZeroPolicy, evaluate, sign_at
from ggwb.verdict import CheckResult, VerdictKind
from sympy_oracle import to_mpmath, to_scalar

TINY = Fraction(1, 10**12)


@pytest.fixture(scope="module")
def R2():
    return ChartManifold("cert2", ["x", "y"])


def _grid(chart, rows):
    return _Array(chart, rows, (len(rows), len(rows[0])))


def test_near_singular_rational_matrix_has_full_rank(R2):
    """[[1, 1], [1, 1 + d]] has the pivots 1 and d: positive definite, so of
    full rank, for d > 0, and its pivots run out at row 1 for d = 0."""
    base = R2.base_point()
    assert positivity_witness(_grid(R2, [[1, 1], [1, 1 + TINY]]), base) is None
    w = positivity_witness(_grid(R2, [[1, 1], [1, 1]]), base)
    assert (w.value, w.detail) == (0, "pivot 1")
    # the same near-singularity in the coordinates: full rank off the line x = y
    grid = _grid(R2, [["1", "1"], ["1", f"1 + (x - y)/{10**12}"]])
    assert positivity_witness(grid, {"x": Fraction(1, 3), "y": Fraction(1, 5)}) is None
    w = positivity_witness(grid, {"x": Fraction(1, 3), "y": Fraction(1, 3)})
    assert (w.value, w.detail) == (0, "pivot 1")
    # the sign of one scalar is exact too
    off = {"x": Fraction(1, 3), "y": Fraction(1, 5)}
    assert sign_at(R2.scalar(f"(x - y)/{10**12}"), off) == 1
    assert sign_at(R2.scalar(f"(y - x)/{10**12}"), off) == -1
    assert sign_at(R2.scalar("x - y"), {"x": Fraction(1, 3), "y": Fraction(1, 3)}) == 0


def test_tiny_negative_eigenvalue_is_seen(R2):
    base = R2.base_point()
    gram = _grid(R2, [[1, 0], [0, -TINY]])
    w = positivity_witness(gram, base)
    assert w.value == Fraction(-1, 10**12) and w.detail == "pivot 1"
    assert w.point == tuple(sorted(base.items()))
    # a tiny positive eigenvalue is positive
    assert positivity_witness(_grid(R2, [[1, 0], [0, TINY]]), base) is None


def _positivity(G):
    return check_gen_metric(G, ZeroPolicy()).subverdict("G positive definite at sample points")


def test_positivity_of_a_generalized_metric_fails_with_the_exact_pivot(R2):
    """G of (gamma, 0) is diag(gamma, gamma^-1)/2 in the frame (d_i; dx^i),
    so gamma = diag(1, -1e-12) gives the pivot -1e-12/2 in row 1."""
    G = GenMetric(MetricField(R2, [[1, 0], [0, -TINY]]))
    v = _positivity(G)
    assert v.kind is VerdictKind.FAILED
    assert v.witness.value == Fraction(-1, 2 * 10**12)
    assert v.witness.detail == "pivot 1"
    assert v.witness.point == tuple(sorted(R2.base_point().items()))
    ok = GenMetric(MetricField(R2, [[1, 0], [0, TINY]]))
    assert _positivity(ok).kind is VerdictKind.NUMERIC


def test_positivity_fails_at_a_drawn_point_after_the_base_point(R2):
    """gamma = diag(1, 1 - x) is positive where x < 1.  The base point
    (3/7, 5/7) and the first three of the 4 points drawn from ZeroPolicy()
    have x < 1; the fourth, (16/9, -25/18), does not.  There the pivots of
    diag(gamma, gamma^-1)/2 are 1/2 and (1 - x)/2 = -7/18, in row 1."""
    rng = ZeroPolicy().rng()
    drawn = [R2.sample_point(rng) for _ in range(4)]
    assert [p["x"] < 1 for p in drawn] == [True, True, True, False]
    assert drawn[3] == {"x": Fraction(16, 9), "y": Fraction(-25, 18)}
    v = _positivity(GenMetric(MetricField(R2, [[1, 0], [0, "1 - x"]])))
    assert v.kind is VerdictKind.FAILED
    assert (v.witness.value, v.witness.detail) == (Fraction(-7, 18), "pivot 1")
    assert v.witness.point == (("x", Fraction(16, 9)), ("y", Fraction(-25, 18)))


def test_the_runner_certifies_every_point_in_turn(R2):
    """``CheckResult.positive`` records NumericallySupported only when every
    point passes, and otherwise the witness of the first point that fails."""
    gram = _grid(R2, [[1, 0], [0, "1 - x"]])
    inside, outside = ({"x": Fraction(k, 2), "y": Fraction(0)} for k in (1, 3))
    farther = {"x": Fraction(5), "y": Fraction(0)}
    out = CheckResult("demo", ZeroPolicy())
    assert out.positive("inside", gram, [inside, inside]).kind is VerdictKind.NUMERIC
    v = out.positive("outside", gram, [inside, outside, farther])
    assert v.kind is VerdictKind.FAILED
    assert (v.witness.value, v.witness.detail) == (Fraction(-1, 2), "pivot 1")
    assert v.witness.point == tuple(sorted(outside.items()))
    assert out.items == [("inside", out.subverdict("inside")), ("outside", v)]


def test_zero_diagonal_block_and_zero_matrix(R2):
    base = R2.base_point()
    hyperbolic = _grid(R2, [[0, 1], [1, 0]])
    # the block splits into the pivots 2 and -1/2
    w = positivity_witness(hyperbolic, base)
    assert (w.value, w.detail) == (Fraction(-1, 2), "pivot 1")
    zero = _grid(R2, [[0, 0], [0, 0]])
    w = positivity_witness(zero, base)
    assert (w.value, w.detail) == (0, "pivot 0")
    with pytest.raises(ExprError):
        positivity_witness(_grid(R2, [[1, 1], [0, 1]]), base)


def test_gaussian_grids(R2):
    base = R2.base_point()
    x, y, i = R2.scalar("x"), R2.scalar("y"), R2.i
    # Hermitian forms: a rank-one form, a positive one and a block with an imaginary b
    w = positivity_witness(_grid(R2, [[1, i], [-i, 1]]), base)
    assert (w.value, w.detail) == (0, "pivot 1")
    assert positivity_witness(_grid(R2, [[2, i], [-i, 1]]), base) is None
    w = positivity_witness(_grid(R2, [[0, i], [-i, 0]]), base)
    assert w.value < 0
    with pytest.raises(ExprError):  # symmetric, not Hermitian
        positivity_witness(_grid(R2, [[1, i], [i, 1]]), base)
    z = evaluate(R2.scalar(x + i * y), base)
    assert (z.x, z.y) == (Fraction(3, 7), Fraction(5, 7))
    # a sign is read only off a real value
    with pytest.raises(ExprError):
        sign_at(R2.scalar(x + i * y), base)


def test_pole_raises(R2):
    """A pole raises in the positivity certificate and is the sign 0."""
    with pytest.raises(ExprError):
        positivity_witness(_grid(R2, [["1/(x - 3/7)", 0], [0, 1]]), R2.base_point())
    assert sign_at(R2.scalar("1/(x - 3/7)"), R2.base_point()) == 0


def test_metric_degenerate_at_the_base_point(R2):
    """The base-point check of a metric is the sign of its determinant:
    an exact determinant is degenerate only at 0, a 30-digit one when
    |det| <= 1e-9, and a pole of the determinant is degenerate too."""
    x0 = R2.base_point()["x"]  # 3/7
    for rows in ([[1, 0], [0, f"x - {x0}"]], [[1, f"x - {x0}"], [f"x - {x0}", 0]],
                 [[1, 0], [0, "exp(x)/10^12"]], [[1, 0], [0, f"1/(x - {x0})"]]):
        with pytest.raises(SingularMetricError):
            MetricField(R2, rows)
    # exp(3/7)/10^8 is about 1.5e-8 > 1e-9, and (x - 3/7)^2 + 1/10^12 is exact
    MetricField(R2, [[1, 0], [0, "exp(x)/10^8"]])
    MetricField(R2, [[1, 0], [0, f"(x - {x0})^2 + 1/10^12"]])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), gaussian=st.booleans())
def test_positivity_is_that_of_the_congruent_diagonal(R2, seed, gaussian):
    """A = P^H D P for an invertible P has the inertia of D, so it is
    positive definite exactly when every entry of D is positive."""
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    d = [rng.randint(-2, 2) for _ in range(n)]
    while True:
        P = sp.Matrix(n, n, lambda i, j: rng.randint(-3, 3) + (rng.randint(-2, 2) * sp.I
                                                              if gaussian else 0))
        if P.det() != 0:
            break
    A = (P.H * sp.diag(*d) * P).expand()
    grid = _grid(R2, [[to_scalar(e, R2) for e in row] for row in A.tolist()])
    base = R2.base_point()
    assert (positivity_witness(grid, base) is None) == all(v > 0 for v in d)


# -- grids with exp/tan generators ------------------------------------------


@pytest.fixture(scope="module")
def sphere():
    """The three-angle chart of the unit 3-sphere in C^2 of the builtin S4."""
    C2 = ChartManifold("C2", ["x1", "y1", "x2", "y2"])
    S3 = ChartManifold("S3", ["a", "b", "c"],
                       ranges={"a": ("1/8", "3"), "b": ("1/8", "3"), "c": ("1/8", "6")},
                       base_point={"a": "5/8", "b": "7/8", "c": "9/8"})
    emb = Embedding(S3, C2, ["cos(a)", "sin(a)*cos(b)", "sin(a)*sin(b)*cos(c)",
                             "sin(a)*sin(b)*sin(c)"])
    return S3, emb


def test_sphere_jacobian_and_metric_match_the_hand_values(sphere):
    S3, emb = sphere
    base = S3.base_point()
    jac = emb.jacobian()
    assert not all(e.is_rational_function for e in jac._items().values())

    def minor_signs(grid):  # of the maximal minors, as the unit normal's rank audit reads them
        return [sign_at(_det(_minor(grid, k)), base) for k in range(4)]

    # full rank 3: a maximal minor is nonzero at the base point
    assert any(minor_signs(jac))
    g = contract("ki,kj->ij", jac, jac)
    hand = _grid(S3, [[1, 0, 0], [0, "sin(a)^2", 0], [0, 0, "sin(a)^2*sin(b)^2"]])
    assert g == hand
    assert positivity_witness(g, base) is None
    assert positivity_witness(hand, base) is None
    # the third column replaced by cos(c) d_a + sin(c) d_b: every maximal minor is 0
    cols = [[jac[k][0], jac[k][1], jac[k][0] * S3.scalar("cos(c)") + jac[k][1] * S3.scalar(
        "sin(c)")] for k in range(4)]
    assert minor_signs(_grid(S3, cols)) == [0, 0, 0, 0]


def test_atom_form_signs_by_hand(sphere):
    S3, _ = sphere
    base = S3.base_point()
    # the reflection [[cos a, sin a], [sin a, -cos a]] has the eigenvalues 1 and -1
    w = positivity_witness(_grid(S3, [["cos(a)", "sin(a)"], ["sin(a)", "-cos(a)"]]), base)
    assert w.value < 0 and w.detail == "pivot 1"
    # cos(2a) at a = 5/8 and a = 1: cos(5/4) > 0, cos(2) < 0
    cos2a = S3.scalar("cos(2*a)")
    assert sign_at(cos2a, base) == 1
    assert sign_at(cos2a, dict(base, a=Fraction(1))) == -1
    # a 30-digit value within the tolerance is the sign 0
    assert sign_at(S3.scalar("sin(a)^2 + cos(a)^2 - 1 + exp(a)/10^12"), base) == 0
    with mpmath.workdps(30):
        assert abs(to_mpmath(evaluate(S3.scalar("cos(2*a)"), base))
                   - mpmath.cos(mpmath.mpf(5) / 4)) < 1e-28
