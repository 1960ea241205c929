"""Generalized F structures, the CRF integrability criterion, and CRFK."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from ..calculus import EndoTM, contract
from ..courant import (
    BigEndo,
    big_frame,
    bracket_table,
    courant_bracket,
    frame_pairs,
    nijenhuis_big,
    skew_table,
)
from ..errors import StructureError
from ..symexpr import DEFAULT_POLICY, ScalarExpr, ZeroPolicy, random_poly
from ..verdict import CheckResult
from .classical import check_crf_endo
from .genmetric import GenMetric


class GenF:
    """A g-skew endomorphism with Fcal^3 + Fcal = 0, optionally metric.

    When built from a quadruple (gamma, psi, F_plus, F_minus) the classical
    halves are kept so CRFK-type criteria can reach them.
    """

    def __init__(self, Fcal: BigEndo, G: Optional[GenMetric] = None,
                 F_plus: Optional[EndoTM] = None, F_minus: Optional[EndoTM] = None):
        self.Fcal = Fcal
        self.G = G
        self.F_plus = F_plus
        self.F_minus = F_minus

    @property
    def chart(self):
        return self.Fcal.chart

    @property
    def has_quadruple(self) -> bool:
        return self.G is not None and self.F_plus is not None and self.F_minus is not None


def _metric_F_defect(F: EndoTM, gamma) -> list[ScalarExpr]:
    """(Fmetric): gamma(FX, Y) + gamma(X, FY) = 0 and F^3 + F = 0."""
    return F.skew_defect(gamma) + (F @ F @ F + F)._flat()


def build_genF_from_quadruple(
    G: GenMetric,
    F_plus: EndoTM,
    F_minus: EndoTM,
    policy: ZeroPolicy = DEFAULT_POLICY,
) -> GenF:
    """Assemble Fcal acting as F_pm through the V_pm isomorphisms (the
    J_pm transfer formula with F_pm in place of J_pm)."""
    out = CheckResult("Fmetric", policy)
    for name, F in (("F_plus", F_plus), ("F_minus", F_minus)):
        out.test(f"(Fmetric) {name}", _metric_F_defect(F, G.gamma), f"(Fmetric) {name}")
        out.require(f"{name} is not a classical metric F structure for gamma")
    return GenF(G.transfer(F_plus, F_minus), G, F_plus, F_minus)


def second_genF(genf: GenF) -> GenF:
    """The companion structure Fcal' = Gcal o Fcal <-> (gamma, psi, F_+, -F_-)."""
    if not genf.has_quadruple:
        raise StructureError("second structure needs the metric quadruple")
    return GenF(genf.G.Gcal @ genf.Fcal, genf.G, genf.F_plus, -genf.F_minus)


def check_gen_F(genf: GenF, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckResult:
    """Algebraic axioms: g-skewness, Fcal^3 + Fcal = 0, and in the metric
    case (G-F) plus the transfer identity (eqJrond)."""
    out = CheckResult("gen_F", policy)
    m = genf.Fcal
    out.test("g-skewness of Fcal", m.skew_defect())
    out.test("Fcal^3 + Fcal = 0", (m @ m @ m + m)._flat())
    if genf.G is not None:
        out.test("(G-F) G(Fcal X, Y) + G(X, Fcal Y) = 0", m.skew_defect(genf.G._gram))
    if genf.has_quadruple:
        # Fcal C_pm = C_pm F_pm, section by section: tau_pm(F_pm d_i) is column i of C_pm F_pm
        exprs = []
        for sign, F in ((1, genf.F_plus), (-1, genf.F_minus)):
            C = genf.G._frames[sign]
            d = contract("ij,ja->ia", m, C) - contract("ij,ja->ia", C, F)
            exprs.extend(contract("ia->ai", d)._flat())
        out.test("(eqJrond) Fcal(X, flat X) = (F_pm X, flat F_pm X)", exprs)
    return out


def crf_defects(Fcal: BigEndo) -> list[ScalarExpr]:
    """N_Fcal(X, Y) - pr_S [X, Y] on the spanning set X = Fcal e_a,
    Y = Fcal e_b (a < b) of L = im Fcal, pair by pair and component by
    component, from three bracket tables.

    With F2 = Fcal^2 and pr_S = Id + F2, N_Fcal(X, Y) = [F2 e_a, F2 e_b]
    - Fcal([F2 e_a, Fcal e_b] + [Fcal e_a, F2 e_b]) + F2 [X, Y], so the
    defect is [F2, F2] - Fcal([F2, Fcal] + [Fcal, F2]) - [Fcal, Fcal]; the
    table [Fcal, F2] is [F2, Fcal] transposed, by antisymmetry.
    """
    F2 = Fcal @ Fcal
    mixed = skew_table(bracket_table(F2, Fcal))
    return frame_pairs(bracket_table(F2, F2) - contract("ij,jab->iab", Fcal, mixed)
                       - bracket_table(Fcal, Fcal))


def check_gen_CRF(genf: GenF, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckResult:
    """Integrability: N_Fcal(X, Y) = pr_S [X, Y] on a spanning set of
    L = im Fcal, with a scalar-invariance revalidation."""
    out = CheckResult("gen_CRF", policy)
    chart = genf.chart
    Fcal = genf.Fcal
    pr_s = BigEndo.identity(chart) + Fcal @ Fcal
    out.test("N_Fcal(X,Y) = pr_S [X,Y] on L", crf_defects(Fcal))
    rng = random.Random(policy.seed + 211)
    f = random_poly(chart, rng)
    # X = Fcal e_0 and Y the first nonzero column of Fcal after it (the last if none)
    fr = big_frame(chart)
    X = Fcal(fr[0])
    Y = Fcal(fr[min((b for _, b in Fcal.entries if b > 0), default=len(fr) - 1)])
    base = nijenhuis_big(Fcal, X, Y) - pr_s(courant_bracket(X, Y))
    scaled = nijenhuis_big(Fcal, X * f, Y) - pr_s(courant_bracket(X * f, Y))
    d = scaled - base * f
    out.test("scalar-invariance under X -> fX", d.components())
    return out


def check_CRFK(genf: GenF, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckResult:
    """CRFK criterion for a metric quadruple: both classical halves are CRF
    and the (CRFK6) identity holds on all frame triples."""
    if not genf.has_quadruple:
        raise StructureError("check_CRFK needs a quadruple-built structure")
    out = CheckResult("CRFK", policy)
    for name, F in (("F_plus", genf.F_plus), ("F_minus", genf.F_minus)):
        out.sub(f"classical CRF of {name}", check_crf_endo, F, policy)
    out.test("(CRFK6) identity", _crfk6_defects(genf), "(CRFK6)")
    return out


def _crfk6_defects(genf: GenF) -> list[ScalarExpr]:
    gamma, dpsi = genf.G.gamma, genf.G.dpsi
    exprs = []
    for sign, F in ((1, genf.F_plus), (-1, genf.F_minus)):
        # [i][j][k]: gamma(F nabla_i F (d_j), d_k) and
        # dpsi(d_i, d_j, F^2 d_k) + dpsi(d_i, F d_j, F d_k)
        lhs = contract("lk,lm,imj->ijk", gamma, F, gamma.connection().nabla_frame(F))
        t1 = contract("ijb,bk->ijk", dpsi, F @ F)
        t2 = contract("iab,aj,bk->ijk", dpsi, F, F)
        exprs.extend((lhs - (t1 + t2) * Fraction(sign, 2))._flat())
    return exprs
