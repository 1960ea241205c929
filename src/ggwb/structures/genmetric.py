"""Generalized Riemannian metrics G <-> (gamma, psi) and the V_+/V_- split.

Every generalized structure is built by transfer through the isomorphisms
tau_pm: X -> (X, flat_{psi +- gamma} X) onto V_pm.  With g = gamma,
p = psi and q = gamma^-1, the basis sections of V_+ and V_- are the columns
of C = [[I, I], [g - p, -g - p]] (the covector block of the V_s section of
d_i is (psi + s*gamma)(d_i, .) = (-p + s*g) e_i).  Adding and subtracting
the two block columns gives

    C^-1 = (1/2) [[I + qp, q], [I - qp, -q]],

so the endomorphism acting as F_+ on V_+ and as F_- on V_- is, with
S = F_+ + F_-, D = F_+ - F_-, M = gS - pD and N = gD - pS,

    C diag(F_+, F_-) C^-1 = (1/2) [[S + D qp, D q], [N + M qp, M q]].

Gcal is the transfer of (I, -I):

    Gcal = [[qp, q], [g - pqp, -pq]].

The closed form needs only the cached inverse of gamma, never the inverse
of the 2n x 2n frame matrix C.

The sections tau_pm(d_i) spanning V_pm are the columns of C_pm =
[I; +-gamma - psi] = [I; (psi +- gamma)^T], the block columns of C, so a
criterion on V_pm contracts its operator with C_pm (Gcal C_pm = +-C_pm,
C_+^T G C_+ = gamma), and tau_pm X = C_pm X.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ..calculus import (
    EndoTM,
    MetricField,
    TwoForm,
    VectorField,
    _Array,
    _columns,
    _core,
    _partials,
    _stack,
    contract,
    contract_sum,
    ext_d,
    zero_twoform,
)
from ..courant import BigEndo, BigSection, _gram0, frame_pairs
from ..errors import ChartMismatchError, ExprError
from ..symexpr import DEFAULT_POLICY, ScalarExpr, ZeroPolicy
from ..verdict import CheckResult


class GenMetric:
    """A generalized metric, realized by V_pm = {(X, flat_{psi +- gamma} X)}.

    Carries the isomorphism Gcal with eigenbundles V_pm and the positive
    pairing G(A, B) = g(Gcal A, B).
    """

    def __init__(self, gamma: MetricField, psi: Optional[TwoForm] = None):
        chart = gamma.chart
        if psi is None:
            psi = zero_twoform(chart)
        if psi.chart != chart:
            raise ChartMismatchError("gamma and psi live on different charts")
        self.chart = chart
        self.gamma = gamma
        self.psi = psi
        ident = EndoTM.identity(chart)
        self.Gcal = self.transfer(ident, -ident)
        self._gram = contract("ki,kj->ij", self.Gcal, _gram0(chart))
        self._dpsi = None
        # C_s = [I; s*gamma - psi]: the sections tau_s(d_i) of V_s as the
        # columns of a 2n x n core array (psi^T = -psi and gamma^T = gamma)
        self._frames = {s: _stack(ident, contract_sum((s, "ij->ij", gamma), (-1, "ij->ij", psi)))
                        for s in (1, -1)}

    def transfer(self, F_plus: EndoTM, F_minus: EndoTM) -> BigEndo:
        """The endomorphism acting as F_pm on V_pm through tau_pm, in the
        closed form of the module docstring."""
        chart = self.chart
        g, p = EndoTM(chart, self.gamma.matrix), EndoTM(chart, self.psi.matrix)
        q = EndoTM(chart, self.gamma.inverse_matrix())
        qp = q @ p
        # halving S and D first keeps the 1/2 out of the large rational entries
        S, D = (F_plus + F_minus) * Fraction(1, 2), (F_plus - F_minus) * Fraction(1, 2)
        M, N = g @ S - p @ D, g @ D - p @ S
        blocks = ((S + D @ qp, D @ q), (N + M @ qp, M @ q))
        rows = [a + b for left, right in blocks for a, b in zip(left.matrix, right.matrix)]
        return BigEndo(chart, rows)

    # -- sections of V_pm -------------------------------------------------

    def section(self, X: VectorField, sign: int) -> BigSection:
        """(X, flat_{psi + sign*gamma} X) in V_sign: the one-column case of
        :meth:`sections`."""
        return BigSection.from_components(self.chart, self.sections([X], [sign])._column(0))

    def sections(self, Xs, signs) -> _Array:
        """The 2n x m core array whose column c is tau_s(Xs[c]) = C_s Xs[c],
        s = ``signs[c]``: one contraction sum over the frames C_pm."""
        if any(s not in (1, -1) for s in signs):
            raise ExprError("signs must be +-1")
        X, m = _columns(Xs), len(Xs)
        return contract_sum(*(
            (1, "ki,ic,c->kc", self._frames[s], X,
             _Array(self.chart, {(c,): 1 for c, t in enumerate(signs) if t == s}, (m,)))
            for s in (1, -1) if s in signs))

    @property
    def dpsi(self):
        if self._dpsi is None:
            self._dpsi = ext_d(self.psi)
        return self._dpsi

    def G(self, A: BigSection, B: BigSection) -> ScalarExpr:
        """The positive pairing G(A, B) = g(Gcal A, B)."""
        return contract("i,ij,j->", A, self._gram, B)


def build_gen_metric(
    gamma: MetricField, psi: Optional[TwoForm] = None, policy: ZeroPolicy = DEFAULT_POLICY
) -> GenMetric:
    """Construct and validate; raises StructureError if (condptGrond) fails."""
    G = GenMetric(gamma, psi)
    check_gen_metric(G, policy).require("(gamma, psi) does not define a generalized metric")
    return G


def check_gen_metric(G: GenMetric, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckResult:
    out = CheckResult("gen_metric", policy)
    out.test("(condptGrond) Gcal^2 = Id", G.Gcal.square_defect(1))
    out.test("(condptGrond) g(Gcal X, Gcal Y) = g(X, Y)", G.Gcal.isometry_defect(_gram0(G.chart)))
    # V_pm really are the +-1 eigenbundles: Gcal C_pm = +-C_pm, section by section
    eig = []
    for sign in (1, -1):
        C = G._frames[sign]
        eig.extend(contract("ia->ai", contract("ij,ja->ia", G.Gcal, C) - C * sign)._flat())
    out.test("(exprEpm) Gcal = +-Id on V_+-", eig)
    # G restricted to V_+ transfers to gamma through tau_+
    C = G._frames[1]
    tr = contract("ai,ab,bj->ij", C, G._gram, C) - G.gamma
    out.test("(condptGrond) G|V+ = gamma via tau_+", frame_pairs(tr, diagonal=True))
    rng = policy.rng()
    points = [G.chart.base_point()] + [G.chart.sample_point(rng) for _ in range(4)]
    out.positive("G positive definite at sample points", G._gram, points)
    return out


# ---------------------------------------------------------------------------
# closed-form Courant brackets of V_pm sections


def courant_bracket_Vpm(
    G: GenMetric, X: VectorField, Y: VectorField, signs: tuple[int, int]
) -> BigSection:
    """The (CrVpm) closed forms for [(X, flat_{psi+s1*gamma}X), (Y, ...)]:
    the one-column case of :func:`courant_brackets_Vpm`.

    Must agree with the generic Courant bracket of the embedded sections;
    that agreement is an acceptance-level cross-check.
    """
    column = courant_brackets_Vpm(G, [X], [Y], [signs])._column(0)
    return BigSection.from_components(G.chart, column)


def courant_brackets_Vpm(G: GenMetric, Xs, Ys, signs) -> _Array:
    """The (CrVpm) closed forms of m pairs at once: column c of the 2n x m
    result is [tau_s1(Xs[c]), tau_s2(Ys[c])], (s1, s2) = ``signs[c]``.

    The pairs form one sign class: every pair has s1 = s2, the per-pair
    sign s entering as an operand (a sign vector over the columns), or
    every pair has s1 != s2.  A (-1, +1) pair is the negated (+1, -1) pair
    of its swapped fields, by the antisymmetry of the Courant bracket.  The
    formulas are written once, with the column letter c: the vector half
    [X, Y] is one contraction sum, and the covector half, every closed-form
    term of the class (lie_flat, X^i (L_Y gamma)_ij, d gamma(X, Y)), another.
    """
    if any(s not in (1, -1) for pair in signs for s in pair):
        raise ExprError("signs must be +-1")
    same = {s1 == s2 for s1, s2 in signs}
    if len(same) != 1:
        raise ExprError("one batch of (CrVpm) closed forms takes pairs of one sign class")
    # antisymmetry of the Courant bracket
    flip = [s1 < s2 for s1, s2 in signs]
    X = _columns([b if f else a for a, b, f in zip(Xs, Ys, flip)])
    Y = _columns([a if f else b for a, b, f in zip(Xs, Ys, flip)])
    chart, g, p = G.chart, G.gamma, G.psi
    dX, dY, dg = _partials(X), _partials(Y), g.derivatives()  # dX[k][c][i] = d_i X_c^k

    def lie_flat(V, W, dV, dW, coef, *sign):
        """(L_V flat_gamma W)_j, by the product rule on (flat_gamma W)_j = W^l g_lj."""
        t = ",c" * len(sign)
        return [(coef, f"ic,lci,lj{t}->jc", V, dW, g, *sign),
                (coef, f"ic,lc,lji{t}->jc", V, W, dg, *sign),
                (coef, f"lc,li,icj{t}->jc", W, g, dV, *sign)]

    br = contract_sum((1, "kci,ic->kc", dY, X), (-1, "kci,ic->kc", dX, Y))
    cov = [(1, "ic,ij->jc", br, p), (1, "ic,jc,ijk->kc", X, Y, G.dpsi)]
    if same == {True}:
        s = _Array(chart, {(c,): s1 for c, (s1, _) in enumerate(signs)}, (len(signs),))
        cov += [(1, "ic,ij,c->jc", br, g, s), *lie_flat(X, Y, dX, dY, 1, s),
                # - X^i (L_Y gamma)_ij = - X^i (Y^k d_k g_ij + g_kj d_i Y^k + g_ik d_j Y^k)
                (-1, "ic,kc,ijk,c->jc", X, Y, dg, s), (-1, "ic,kj,kci,c->jc", X, g, dY, s),
                (-1, "ic,ik,kcj,c->jc", X, g, dY, s)]
    else:
        # the (+, -) class; d_j gamma(X, Y) by the product rule
        cov += [*lie_flat(X, Y, dX, dY, -1), *lie_flat(Y, X, dY, dX, -1),
                (1, "icj,il,lc->jc", dX, g, Y), (1, "ic,ilj,lc->jc", X, dg, Y),
                (1, "ic,il,lcj->jc", X, g, dY)]
    out = _stack(br, contract_sum(*cov))
    if not any(flip):
        return out
    return _core(chart, out.shape, out.field,
                 {ix: -e if flip[ix[1]] else e for ix, e in out.entries.items()})
