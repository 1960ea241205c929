"""Classical almost contact structures, Nijenhuis tensors and CRF criteria."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Union

import sympy as sp

from ..calculus import (
    ChartManifold,
    EndoTM,
    MetricField,
    OneForm,
    VectorField,
    ext_d,
    frame,
    lie_bracket,
    lie_derivative,
    tensor_oneform_vector,
)
from ..courant import BigEndo
from ..errors import ChartMismatchError, StructureError
from ..symexpr import DEFAULT_POLICY, ScalarExpr, ZeroPolicy, is_zero, is_zero_all, random_poly
from ..verdict import CheckResult


@dataclass(frozen=True)
class AlmostContact:
    """Triple (F, Z, xi), optionally with a compatible Riemannian metric."""

    F: EndoTM
    Z: VectorField
    xi: OneForm
    gamma: Optional[MetricField] = None
    name: str = "almost-contact"

    def __post_init__(self):
        chart = self.F.chart
        for part in (self.Z, self.xi) + ((self.gamma,) if self.gamma else ()):
            if part.chart != chart:
                raise ChartMismatchError("almost contact data spans several charts")

    @property
    def chart(self) -> ChartManifold:
        return self.F.chart

    def fundamental_form(self):
        """Xi(X, Y) = s(FX, Y); requires the metric.

        The matrix is antisymmetrized explicitly: for (Fmetric)-compatible
        data this changes nothing functionally, but on angle charts the raw
        F^T g entries need not be *syntactically* antisymmetric."""
        from ..calculus import TwoForm, tidy_trig

        if self.gamma is None:
            raise ChartMismatchError("fundamental form needs the structure metric")
        g = sp.Matrix([[e.expr for e in row] for row in self.gamma.matrix])
        f = sp.Matrix([[e.expr for e in row] for row in self.F.matrix])
        m = (f.T * g - g * f) / 2
        return TwoForm(
            self.chart, [[tidy_trig(self.chart, e) for e in row] for row in m.tolist()]
        )


def check_almost_contact(s: AlmostContact, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckResult:
    """All four (almcont) identities; (clasmetric) too when a metric is given."""
    out = CheckResult("almost_contact")
    chart = s.chart
    ident = EndoTM.identity(chart)
    defect = (s.F @ s.F) - (tensor_oneform_vector(s.xi, s.Z) - ident)
    out.add("(almcont) F^2 = -Id + xi(x)Z", is_zero_all(
        [e for row in defect.matrix for e in row], policy, "(almcont) F^2"))
    out.add("(almcont) F Z = 0", is_zero_all(s.F(s.Z).components, policy, "(almcont) FZ"))
    out.add("(almcont) xi o F = 0", is_zero_all(
        s.xi.compose_endo(s.F).components, policy, "(almcont) xi o F"))
    out.add("(almcont) xi(Z) = 1", is_zero(s.xi(s.Z) - 1, policy, "(almcont) xi(Z)"))
    if s.gamma is not None:
        g = sp.Matrix([[e.expr for e in row] for row in s.gamma.matrix])
        f = sp.Matrix([[e.expr for e in row] for row in s.F.matrix])
        xiv = sp.Matrix([c.expr for c in s.xi.components])
        d = f.T * g * f - g + xiv * xiv.T
        out.add("(clasmetric) s(FX,FY) = s(X,Y) - xi(X)xi(Y)", is_zero_all(
            [ScalarExpr(e, chart) for e in d], policy, "(clasmetric)"))
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


def check_normal_classical(s: AlmostContact, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckResult:
    """(normal): N_F + d xi (x) Z = 0, evaluated on all coordinate frame pairs."""
    out = CheckResult("normal")
    chart = s.chart
    dxi = ext_d(s.xi)
    fr = frame(chart)
    exprs = []
    for i in range(chart.dim):
        for j in range(i + 1, chart.dim):
            t = nijenhuis_classical(s.F, fr[i], fr[j]) + s.Z * dxi(fr[i], fr[j])
            exprs.extend(t.components)
    out.add("(normal) N_F + dxi (x) Z = 0", is_zero_all(exprs, policy, "(normal)"))
    return out


def eigen_projections(A: Union[EndoTM, BigEndo], policy: ZeroPolicy = DEFAULT_POLICY) -> dict:
    """Eigenbundle projections of an F-type endomorphism (A^3 + A = 0):

    pr_H = -(A^2 + iA)/2, pr_Hbar = -(A^2 - iA)/2, pr_Q = Id + A^2, pr_P = -A^2.
    """
    chart = A.chart
    if isinstance(A, BigEndo):
        m = A._sym()
        make = lambda g: BigEndo(chart, g.tolist())
        dim = 2 * chart.dim
    else:
        m = sp.Matrix([[e.expr for e in row] for row in A.matrix])
        make = lambda g: EndoTM(chart, g.tolist())
        dim = chart.dim
    cube_defect = m * m * m + m
    v = is_zero_all([ScalarExpr(e, chart) for e in cube_defect], policy, "A^3 + A = 0")
    if not v.ok:
        raise StructureError(
            "eigen_projections requires an F structure", [("A^3 + A = 0", v)]
        )
    m2 = m * m
    eye = sp.eye(dim)
    return {
        "pr_H": make(-(m2 + sp.I * m) / 2),
        "pr_Hbar": make(-(m2 - sp.I * m) / 2),
        "pr_Q": make(eye + m2),
        "pr_P": make(-m2),
    }


def _cr_condition_items(F: EndoTM, policy: ZeroPolicy, out: CheckResult) -> None:
    """(CRcond) on the spanning set {F e_i} of P, plus a scalar-invariance
    revalidation with one random function (the condition is function-invariant
    for arguments in P; we verify that on the spanning data)."""
    chart = F.chart
    n = chart.dim
    fr = frame(chart)
    pr_q = EndoTM.identity(chart) + (F @ F)
    span = [F(e) for e in fr]
    exprs = []
    for i in range(n):
        for j in range(i + 1, n):
            d = nijenhuis_classical(F, span[i], span[j]) - pr_q(lie_bracket(span[i], span[j]))
            exprs.extend(d.components)
    out.add("(CRcond) N_F(X,Y) = pr_Q [X,Y] on P", is_zero_all(exprs, policy, "(CRcond)"))
    rng = random.Random(policy.seed + 101)
    f = random_poly(chart, rng)
    X, Y = span[0], span[1 % n]
    fd = (
        nijenhuis_classical(F, X * f, Y)
        - pr_q(lie_bracket(X * f, Y))
        - (nijenhuis_classical(F, X, Y) - pr_q(lie_bracket(X, Y))) * f
    )
    out.add("(CRcond) scalar-invariance under X -> fX", is_zero_all(
        fd.components, policy, "(CRcond) invariance"))


def check_classical_CRF(s: AlmostContact, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckResult:
    """Classical CRF for an almost contact structure: CR type + (CRFcuLie)."""
    out = CheckResult("classical_CRF")
    _cr_condition_items(s.F, policy, out)
    lzf = lie_derivative(s.Z, s.F)
    comp = s.F @ lzf
    out.add("(CRFcuLie) F o (L_Z F) = 0", is_zero_all(
        [e for row in comp.matrix for e in row], policy, "(CRFcuLie)"))
    return out


def check_crf_endo(F: EndoTM, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckResult:
    """Classical CRF for a bare F structure: (CRcond) + (CRF0) with Q = ker F
    spanned by the columns of pr_Q."""
    out = CheckResult("classical_CRF")
    _cr_condition_items(F, policy, out)
    chart = F.chart
    fr = frame(chart)
    pr_q = EndoTM.identity(chart) + (F @ F)
    span_p = [F(e) for e in fr]
    span_q = [pr_q(e) for e in fr]
    exprs = []
    for X in span_p:
        for Y in span_q:
            exprs.extend(nijenhuis_classical(F, X, Y).components)
    out.add("(CRF0) N_F(X,Y) = 0 for X in P, Y in Q", is_zero_all(exprs, policy, "(CRF0)"))
    return out


def check_kernel_nabla_F(
    F: EndoTM, gamma: MetricField, policy: ZeroPolicy = DEFAULT_POLICY
) -> CheckResult:
    """Kernel membership of the covariant derivative: F(nabla_X F (Y)) = 0.

    Together with classical CRF this characterizes the classical CRFK
    property of a metric F structure (the psi = 0 case)."""
    out = CheckResult("kernel_nabla_F")
    conn = gamma.connection()
    fr = frame(F.chart)
    exprs = []
    for X in fr:
        nf = conn.nabla(X, F)
        comp = F @ nf
        exprs.extend(e for row in comp.matrix for e in row)
    out.add("F o (nabla_X F) = 0", is_zero_all(exprs, policy, "kernel"))
    return out


def product_J_classical(s: AlmostContact, t: str = "t"):
    """The (JF) almost complex structure J = F - dt (x) Z + xi (x) d_t on MxR.

    Returns (product_chart, J)."""
    chart = s.chart
    product = chart.product_with_line(t)
    n = chart.dim
    grid = []
    for i in range(n):
        row = [s.F.matrix[i][j].expr for j in range(n)]
        row.append(-s.Z.components[i].expr)  # J d_t = -Z
        grid.append(row)
    grid.append([c.expr for c in s.xi.components] + [0])  # d_t coefficient is xi(X)
    return product, EndoTM(product, grid)


def check_product_complex(
    s: AlmostContact, policy: ZeroPolicy = DEFAULT_POLICY, t: str = "t"
) -> CheckResult:
    """Normality via the product route: N_J = 0 on MxR for the (JF) structure."""
    out = CheckResult("normal_via_product")
    product, J = product_J_classical(s, t)
    sq = (J @ J) + EndoTM.identity(product)
    out.add("(JF) J^2 = -Id", is_zero_all(
        [e for row in sq.matrix for e in row], policy, "(JF) square"))
    fr = frame(product)
    exprs = []
    for i in range(product.dim):
        for j in range(i + 1, product.dim):
            exprs.extend(nijenhuis_classical(J, fr[i], fr[j]).components)
    out.add("(JF) N_J = 0 on MxR", is_zero_all(exprs, policy, "(JF) N_J"))
    return out
