import random
from fractions import Fraction

import pytest

from ggwb.calculus import (
    ChartManifold,
    EndoTM,
    OneForm,
    VectorField,
    coframe,
    frame,
    random_oneform,
    random_vector_field,
)
from ggwb.courant import (
    BigEndo,
    BigSection,
    big_frame,
    courant_bracket,
    lift_big_endo,
    lift_big_section,
    naive_d,
    nijenhuis_big,
    pairing,
    partial,
)
from ggwb.symexpr import ZeroPolicy, is_zero, is_zero_all, random_poly
from ggwb.verdict import VerdictKind


def _rand_section(chart, rng, degree=1):
    return BigSection(random_vector_field(chart, rng, degree), random_oneform(chart, rng, degree))


def test_pairing_examples(R3):
    ex, ey, _ = frame(R3)
    dx, dy, _ = coframe(R3)
    assert pairing(BigSection.from_vector(ex), BigSection.from_oneform(dx)) == Fraction(1, 2)
    s = BigSection(ex, dx)
    assert pairing(s, s) == 1
    assert pairing(BigSection(ex, dy), BigSection(ey, -dx)).is_syntactic_zero


def test_pairing_symmetric_bilinear(R3, pol):
    rng = random.Random(1)
    A, B = _rand_section(R3, rng), _rand_section(R3, rng)
    f = random_poly(R3, rng)
    assert is_zero(pairing(A, B) - pairing(B, A), pol).is_proved
    assert is_zero(pairing(A * f, B) - pairing(A, B) * f, pol).is_proved


def test_courant_bracket_examples(R3):
    ex, ey, _ = frame(R3)
    b = courant_bracket(
        BigSection.from_vector(ex), BigSection.from_oneform(OneForm(R3, ["0", "x", "0"]))
    )
    assert all(c.is_syntactic_zero for c in b.X.components)
    assert [str(c) for c in b.alpha.components] == ["0", "1", "0"]
    z = courant_bracket(BigSection.from_vector(ex), BigSection.from_vector(ey))
    assert all(c.is_syntactic_zero for c in z.components())
    s = BigSection(VectorField(R3, ["0", "x", "0"]), OneForm(R3, ["0", "0", "y"]))
    assert all(c.is_syntactic_zero for c in courant_bracket(s, s).components())


def test_courant_antisymmetry_exact(R3):
    rng = random.Random(2)
    for _ in range(5):
        A, B = _rand_section(R3, rng), _rand_section(R3, rng)
        d = courant_bracket(A, B) + courant_bracket(B, A)
        assert all(c.is_syntactic_zero for c in d.components())


def test_anomaly_identity_propofC(R3, pol):
    """[X, fY] = f[X,Y] + pr X(f) Y - g(X,Y) partial f."""
    rng = random.Random(3)
    for _ in range(25):
        A, B = _rand_section(R3, rng), _rand_section(R3, rng)
        f = random_poly(R3, rng)
        lhs = courant_bracket(A, B * f)
        rhs = courant_bracket(A, B) * f + B * A.X.apply(f) - partial(f) * pairing(A, B)
        assert is_zero_all((lhs - rhs).components(), pol).is_proved


def test_partial(R3, pol):
    dx = coframe(R3)[0]
    p = partial(R3.scalar("x"))
    assert all(c.is_syntactic_zero for c in p.X.components)
    assert p.alpha == dx
    assert all(c.is_syntactic_zero for c in partial(R3.scalar("5")).components())
    rng = random.Random(4)
    for _ in range(6):
        f = random_poly(R3, rng)
        B = _rand_section(R3, rng)
        d = pairing(partial(f), B) - B.X.apply(f) / 2
        assert is_zero(d, pol).is_proved


def test_naive_d(R3, pol):
    ex, ey, _ = frame(R3)
    dx, dy, dz = coframe(R3)
    v = naive_d(
        BigSection.from_oneform(dz), BigSection.from_vector(ex), BigSection.from_vector(ey)
    )
    assert v.is_syntactic_zero
    v = naive_d(
        BigSection.from_vector(frame(R3)[2]),
        BigSection.from_oneform(dx),
        BigSection.from_oneform(dy),
    )
    assert v.is_syntactic_zero
    # antisymmetry on random data
    rng = random.Random(5)
    U, A, B = (_rand_section(R3, rng) for _ in range(3))
    assert is_zero(naive_d(U, A, B) + naive_d(U, B, A), pol).is_proved


def test_naive_d_not_bilinear(R3):
    """d_C U is not C-infinity bilinear: the residue under scaling the second
    argument is g(A, B) (pr U)(f) / 2, nonzero for suitably paired data."""
    U = BigSection(frame(R3)[0], coframe(R3)[0])
    A = BigSection(frame(R3)[1], coframe(R3)[1])
    f = R3.scalar("x")
    defect = naive_d(U, A, A * f) - naive_d(U, A, A) * f
    assert defect == R3.scalar("1/2")


def test_nijenhuis_flat_kahler(C2, flat_c2, pol):
    J = BigEndo.from_endo(flat_c2["J"])
    assert is_zero_all(J.skew_defect(), pol).is_proved
    assert is_zero_all(J.square_defect(-1), pol).is_proved
    bf = big_frame(C2)
    for i in range(len(bf)):
        for j in range(i + 1, len(bf)):
            N = nijenhuis_big(J, bf[i], bf[j])
            assert all(c.is_syntactic_zero for c in N.components())


def test_nijenhuis_nonzero_for_s3(t21_s3, pol):
    from ggwb.structures import build_product_J, integrability_product

    pj = build_product_J(t21_s3, policy=pol)
    assert integrability_product(pj.J, pol).kind is VerdictKind.FAILED


def test_nijenhuis_T_pair_vanishes_when_Z_commute(t21_s2, pol):
    """N_J(T+, T-) = 0 whenever [Z+, Z-] = 0."""
    from ggwb.structures import build_product_J

    pj = build_product_J(t21_s2, policy=pol)
    N = nijenhuis_big(pj.J, pj.T_plus, pj.T_minus)
    assert is_zero_all(N.components(), pol).is_proved


def test_big_endo_algebra(R3):
    F = EndoTM(R3, [[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    big = BigEndo.from_endo(F)
    s = BigSection(frame(R3)[0], coframe(R3)[1])
    out = big(s)
    # (F d_x, -dy o F) = (d_y, -dx)
    assert [str(c) for c in out.components()] == ["0", "1", "0", "-1", "0", "0"]
    product = R3.product_with_line()
    lifted = lift_big_endo(big, product)
    ls = lift_big_section(s, product)
    assert lift_big_section(out, product) == lifted(ls)
    assert (big @ BigEndo.identity(R3)) == big
