"""Classical almost contact structures, Nijenhuis tensors and CRF criteria.

The spanning sets of P = im F and Q = ker F are the columns of F and of
pr_Q = Id + F^2, so a criterion on P or Q contracts a frame table with them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Union

from ..calculus import (
    ChartManifold,
    EndoTM,
    MetricField,
    OneForm,
    VectorField,
    _Array,
    _partials,
    contract,
    ext_d,
    frame,
    lie_bracket,
    lie_derivative,
    tensor_oneform_vector,
)
from ..courant import BigEndo, frame_pairs, skew_table
from ..errors import ChartMismatchError
from ..symexpr import DEFAULT_POLICY, ZeroPolicy, random_poly
from ..verdict import CheckResult, Frozen


class AlmostContact(Frozen):
    """Triple (F, Z, xi), optionally with a compatible Riemannian metric.
    Immutable; equal to a structure with the same fields."""

    def __init__(self, F: EndoTM, Z: VectorField, xi: OneForm,
                 gamma: Optional[MetricField] = None, name: str = "almost-contact"):
        for part in (Z, xi) + ((gamma,) if gamma else ()):
            if part.chart != F.chart:
                raise ChartMismatchError("almost contact data spans several charts")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "name", name)

    def _key(self) -> tuple:
        return self.F, self.Z, self.xi, self.gamma, self.name

    @property
    def chart(self) -> ChartManifold:
        return self.F.chart

    def fundamental_form(self):
        """Xi(X, Y) = s(FX, Y); requires the metric.

        The matrix is antisymmetrized explicitly: for (Fmetric)-compatible
        data this changes nothing, and for other data it keeps the 2-form
        constructible."""
        from ..calculus import TwoForm

        if self.gamma is None:
            raise ChartMismatchError("fundamental form needs the structure metric")
        m = contract("ki,kj->ij", self.F, self.gamma) - contract("ik,kj->ij", self.gamma, self.F)
        return TwoForm(self.chart, m * Fraction(1, 2))


def check_almost_contact(s: AlmostContact, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckResult:
    """All four (almcont) identities; (clasmetric) too when a metric is given."""
    out = CheckResult("almost_contact", policy)
    defect = (s.F @ s.F) - (tensor_oneform_vector(s.xi, s.Z) - EndoTM.identity(s.chart))
    out.test("(almcont) F^2 = -Id + xi(x)Z", defect._flat(), "(almcont) F^2")
    out.test("(almcont) F Z = 0", s.F(s.Z).components, "(almcont) FZ")
    out.test("(almcont) xi o F = 0", s.xi.compose_endo(s.F).components, "(almcont) xi o F")
    out.test("(almcont) xi(Z) = 1", s.xi(s.Z) - 1, "(almcont) xi(Z)")
    if s.gamma is not None:
        d = s.F.isometry_defect(s.gamma, contract("i,j->ij", s.xi, s.xi))
        out.test("(clasmetric) s(FX,FY) = s(X,Y) - xi(X)xi(Y)", d, "(clasmetric)")
    return out


def nijenhuis_classical(F: EndoTM, X: VectorField, Y: VectorField) -> VectorField:
    """N_F(X,Y) = [FX,FY] - F[FX,Y] - F[X,FY] + F^2 [X,Y]."""
    FX, FY = F(X), F(Y)
    return (
        lie_bracket(FX, FY)
        - F(lie_bracket(FX, Y))
        - F(lie_bracket(X, FY))
        + F(F(lie_bracket(X, Y)))
    )


def nijenhuis_table(F: EndoTM) -> _Array:
    """N_F(e_a, e_b) for every pair of coordinate fields, an n x n x n core
    array, entry [k][a][b] the k-th component."""
    return _frame_tables(F)[1]


def _frame_tables(F: EndoTM) -> tuple[_Array, _Array]:
    """The frame tables [F e_a, F e_b] and N_F(e_a, e_b), n x n x n.  The
    frame brackets vanish, so N_F(e_a, e_b) = [F e_a, F e_b] - F([F e_a, e_b]
    + [e_a, F e_b]), all read from the one derivative array of F."""
    dF = _partials(F)  # dF[k][a][i] = d_i F^k_a
    ff = skew_table(contract("ia,kbi->kab", F, dF))
    return ff, ff + contract("kl,lab->kab", F, skew_table(dF))


def check_normal_classical(s: AlmostContact, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckResult:
    """(normal): N_F + d xi (x) Z = 0, evaluated on all coordinate frame pairs."""
    out = CheckResult("normal", policy)
    table = nijenhuis_table(s.F) + contract("k,ab->kab", s.Z, ext_d(s.xi))
    out.test("(normal) N_F + dxi (x) Z = 0", frame_pairs(table), "(normal)")
    return out


def eigen_projections(A: Union[EndoTM, BigEndo], policy: ZeroPolicy = DEFAULT_POLICY) -> dict:
    """Eigenbundle projections of an F-type endomorphism (A^3 + A = 0):

    pr_H = -(A^2 + iA)/2, pr_Hbar = -(A^2 - iA)/2, pr_Q = Id + A^2, pr_P = -A^2.
    """
    m2 = A @ A
    out = CheckResult("eigen_projections", policy)
    out.test("A^3 + A = 0", (m2 @ A + A)._flat(), "A^3 + A = 0")
    out.require("eigen_projections requires an F structure")
    half, i = Fraction(1, 2), A.chart.i
    return {
        "pr_H": -(m2 + A * i) * half,
        "pr_Hbar": -(m2 - A * i) * half,
        "pr_Q": type(A).identity(A.chart) + m2,
        "pr_P": -m2,
    }


def _cr_condition_items(F: EndoTM, out: CheckResult) -> tuple:
    """(CRcond) on the columns F e_a of F, which span P: the tensor N_F gives
    N_F(F e_a, F e_b) = N_F(e_c, e_d) F^c_a F^d_b.  Plus a scalar-invariance
    revalidation with one random function on two of them.  Returns the
    Nijenhuis table of F and pr_Q."""
    chart = F.chart
    n = chart.dim
    pr_q = EndoTM.identity(chart) + (F @ F)
    brackets, nij = _frame_tables(F)
    defect = contract("kcd,ca,db->kab", nij, F, F) - contract("kl,lab->kab", pr_q, brackets)
    out.test("(CRcond) N_F(X,Y) = pr_Q [X,Y] on P", frame_pairs(defect), "(CRcond)")
    rng = random.Random(out.policy.seed + 101)
    f = random_poly(chart, rng)
    fr = frame(chart)
    X, Y = F(fr[0]), F(fr[1 % n])
    fd = (
        nijenhuis_classical(F, X * f, Y)
        - pr_q(lie_bracket(X * f, Y))
        - (nijenhuis_classical(F, X, Y) - pr_q(lie_bracket(X, Y))) * f
    )
    out.test("(CRcond) scalar-invariance under X -> fX", fd.components, "(CRcond) invariance")
    return nij, pr_q


def check_classical_CRF(s: AlmostContact, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckResult:
    """Classical CRF for an almost contact structure: CR type + (CRFcuLie)."""
    out = CheckResult("classical_CRF", policy)
    _cr_condition_items(s.F, out)
    out.test("(CRFcuLie) F o (L_Z F) = 0", (s.F @ lie_derivative(s.Z, s.F))._flat(), "(CRFcuLie)")
    return out


def check_crf_endo(F: EndoTM, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckResult:
    """Classical CRF for a bare F structure: (CRcond) + (CRF0), N_F(F e_a,
    pr_Q e_b) for the columns of F and of pr_Q, which span P and Q = ker F."""
    out = CheckResult("classical_CRF", policy)
    nij, pr_q = _cr_condition_items(F, out)
    out.test("(CRF0) N_F(X,Y) = 0 for X in P, Y in Q",
             contract("kab,ai,bj->ijk", nij, F, pr_q)._flat(), "(CRF0)")
    return out


def check_kernel_nabla_F(
    F: EndoTM, gamma: MetricField, policy: ZeroPolicy = DEFAULT_POLICY
) -> CheckResult:
    """Kernel membership of the covariant derivative: F(nabla_X F (Y)) = 0.

    Together with classical CRF this characterizes the classical CRFK
    property of a metric F structure (the psi = 0 case)."""
    out = CheckResult("kernel_nabla_F", policy)
    # [X][k][j]: F(nabla_X F (d_j))^k on the coordinate fields X
    comp = contract("kl,ilj->ikj", F, gamma.connection().nabla_frame(F))
    out.test("F o (nabla_X F) = 0", comp._flat(), "kernel")
    return out


def product_J_classical(s: AlmostContact):
    """The (JF) almost complex structure J = F - dt (x) Z + xi (x) d_t on MxR.

    Returns (product_chart, J)."""
    chart = s.chart
    product = chart.product_with_line()
    n = chart.dim
    grid = {ix: e.lift(product) for ix, e in s.F._items().items()}
    grid.update({(i, n): -e.lift(product) for (i,), e in s.Z._items().items()})  # J d_t = -Z
    grid.update({(n, j): e.lift(product) for (j,), e in s.xi._items().items()})  # xi(X) d_t
    return product, EndoTM(product, grid)


def check_product_complex(s: AlmostContact, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckResult:
    """Normality via the product route: N_J = 0 on MxR for the (JF) structure."""
    out = CheckResult("normal_via_product", policy)
    product, J = product_J_classical(s)
    out.test("(JF) J^2 = -Id", ((J @ J) + EndoTM.identity(product))._flat(), "(JF) square")
    out.test("(JF) N_J = 0 on MxR", frame_pairs(nijenhuis_table(J)), "(JF) N_J")
    return out
