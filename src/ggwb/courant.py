"""The big tangent bundle TM + T*M: pairing, Courant bracket, naive differential.

A section (X, alpha) is a 2n core array, the components of X then those of
alpha, with the core's algebra; g(S, .) is :func:`flat_g`, one contraction
with the pairing Gram matrix.  The bracket implemented is the antisymmetric
Courant bracket

    [(X,a), (Y,b)] = ([X,Y], L_X b - L_Y a + (1/2) d(a(Y) - b(X))),

not the Dorfman bracket; all structure criteria downstream are stated for
this bracket.  Endomorphisms of the big bundle are 2n x 2n matrices in the
coordinate frame (d_1..d_n ; dx^1..dx^n) and may have complex (Gaussian
rational) entries.

The package has one bracket formula.  :func:`bracket_table` applies it to
two section arrays P (2n x p) and Q (2n x q): [P e_a, Q e_b] for every
column pair at once, from P, Q and their derivative arrays, each taken
once.  The frame sections e_a are constant, so [e_a, e_b] = 0 and no other
term enters.  :func:`courant_bracket` applies the same formula to two
sections, and the criteria that range over all frame pairs
(:func:`nijenhuis_frame`, the normality and CRF defects) read whole
tables, in the order of the per-pair definitions (:func:`frame_pairs`).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Sequence

from .calculus import (
    ChartManifold,
    EndoTM,
    OneForm,
    VectorField,
    _Array,
    _Components,
    _partials,
    _same_chart,
    _stack,
    contract,
    ext_d,
    zero_oneform,
    zero_vector,
)
from .errors import ChartMismatchError
from .symexpr import ScalarExpr


class BigSection(_Components):
    """A section (X, alpha) of TM + T*M: a 2n core array, the components of
    X, then those of alpha.  ``X`` and ``alpha`` are views of its two blocks;
    the algebra is the core's.  ``components()`` is the flat list of the 2n
    entries."""

    __slots__ = ()
    __hash__ = None
    _kind = "big section"
    _rank = 1

    def __init__(self, X: VectorField, alpha: OneForm):
        if X.chart != alpha.chart:
            raise ChartMismatchError("vector and covector parts live on different charts")
        self._init(X.chart, _stack(X, alpha), self._shape(X.chart))

    @classmethod
    def _shape(cls, chart) -> tuple:
        return (2 * chart.dim,)

    @staticmethod
    def from_vector(X: VectorField) -> "BigSection":
        return BigSection(X, zero_oneform(X.chart))

    @staticmethod
    def from_oneform(a: OneForm) -> "BigSection":
        return BigSection(zero_vector(a.chart), a)

    @staticmethod
    def from_components(chart: ChartManifold, comps) -> "BigSection":
        """The section of 2n components: a sequence, a dict of index tuples
        to values, or a core array."""
        s = object.__new__(BigSection)
        s._init(chart, comps, s._shape(chart))
        return s

    def _like(self, components):
        return BigSection.from_components(self.chart, components)

    @property
    def X(self) -> VectorField:
        return VectorField(self.chart, self._block(0, self.chart.dim))

    @property
    def alpha(self) -> OneForm:
        n = self.chart.dim
        return OneForm(self.chart, self._block(n, 2 * n))

    def components(self) -> list[ScalarExpr]:
        return self._flat()

    # the core's matrix view and covariant evaluation mean nothing for a section
    @property
    def matrix(self):
        raise AttributeError("a big section has no matrix; components() is its flat list")

    def __call__(self, *vectors):
        raise TypeError("a big section is not a covariant tensor; pair it with pairing()")

    def __repr__(self):
        return f"BigSection({self.X!r}, {self.alpha!r})"


def big_frame(chart: ChartManifold) -> list[BigSection]:
    """The 2n coordinate sections (d_i, 0), (0, dx^i)."""
    return [BigSection.from_components(chart, {(i,): 1}) for i in range(2 * chart.dim)]


def flat_g(S: BigSection) -> _Array:
    """The components g(S, .) of the neutral pairing against S."""
    return contract("ij,j->i", _gram0(S.chart), S)


def pairing(A: BigSection, B: BigSection) -> ScalarExpr:
    """Neutral pairing g((X,a),(Y,b)) = (a(Y) + b(X)) / 2."""
    return contract("i,ij,j->", A, _gram0(A.chart), B)


def bracket_table(P, Q) -> _Array:
    """[P e_a, Q e_b] for every column a of P and b of Q.

    P and Q are core arrays on one chart, 2n x p and 2n x q (a
    :class:`BigEndo`, or a :func:`section_array`): column a of P is the
    section P e_a.  The result is a 2n x p x q core array, entry [k][a][b]
    the k-th component of the bracket.
    """
    return _bracket(P, Q, "a", "b")


def _bracket(P, Q, p: str, q: str) -> _Array:
    """The one bracket formula, on two sections (``p`` = ``q`` = "") or two
    section arrays (``p``, ``q`` their column letters), read through their
    vector halves X, Y and covector halves a, b.  The derivative array of
    each half is taken once and contracted for all column pairs; the term
    (1/2) d(a(Y) - b(X)) comes from them by the product rule."""
    n = _same_chart(P, Q).dim
    X, a, Y, b = P._block(0, n), P._block(n, 2 * n), Q._block(0, n), Q._block(n, 2 * n)
    dX, da, dY, db = (_partials(t) for t in (X, a, Y, b))  # dX[k][a][i] = d_i X_a^k
    pq = p + q
    vec = contract(f"i{p},k{q}i->k{pq}", X, dY) - contract(f"i{q},k{p}i->k{pq}", Y, dX)
    # L_X b - L_Y a + (1/2) d(a(Y) - b(X))
    #   = X^i d_i b_j - Y^i d_i a_j
    #     + (1/2) (b_i d_j X^i - a_i d_j Y^i + Y^i d_j a_i - X^i d_j b_i)
    half = (contract(f"i{q},i{p}j->j{pq}", b, dX) - contract(f"i{p},i{q}j->j{pq}", a, dY)
            + contract(f"i{q},i{p}j->j{pq}", Y, da) - contract(f"i{p},i{q}j->j{pq}", X, db))
    cov = (contract(f"i{p},j{q}i->j{pq}", X, db) - contract(f"i{q},j{p}i->j{pq}", Y, da)
           + half * Fraction(1, 2))
    return _stack(vec, cov)


def section_array(sections: Sequence[BigSection]) -> _Array:
    """The 2n x p core array whose columns are the given sections."""
    chart = _same_chart(*sections)
    entries = {(k, a): e for a, S in enumerate(sections) for (k,), e in S._items().items()}
    return _Array(chart, entries, (2 * chart.dim, len(sections)))


def courant_bracket(A: BigSection, B: BigSection) -> BigSection:
    """The antisymmetric Courant bracket: the one-section case of the
    formula of :func:`bracket_table`."""
    return BigSection.from_components(A.chart, _bracket(A, B, "", ""))


def partial(f: ScalarExpr) -> BigSection:
    """The section with g(partial f, U) = (1/2) pr_TM U (f); equals (0, df)."""
    return BigSection.from_oneform(ext_d(f))


def naive_d(U: BigSection, A: BigSection, B: BigSection) -> ScalarExpr:
    """Naive exterior differential of a section, evaluated on a pair.

    d_C U (A, B) = pr A (g(U,B)) - pr B (g(U,A)) - g(U, [A,B]).
    Antisymmetric in (A, B) but *not* bilinear over functions.
    """
    return (
        A.X.apply(pairing(U, B))
        - B.X.apply(pairing(U, A))
        - pairing(U, courant_bracket(A, B))
    )


class BigEndo(_Components):
    """Endomorphism of TM + T*M: a 2n x 2n core tensor in the frame
    (d_1..d_n ; dx^1..dx^n)."""

    _kind = "big endomorphism"

    @classmethod
    def _shape(cls, chart) -> tuple:
        return (2 * chart.dim,) * 2

    # -- constructors ---------------------------------------------------

    @staticmethod
    def identity(chart: ChartManifold) -> "BigEndo":
        return BigEndo(chart, {(i, i): 1 for i in range(2 * chart.dim)})

    @staticmethod
    def from_endo(F: EndoTM) -> "BigEndo":
        """The lift (X, a) -> (F X, -a o F) of a tangent endomorphism."""
        n, f = F.chart.dim, F._items()
        return BigEndo(F.chart, {**f, **{(n + j, n + i): -e for (i, j), e in f.items()}})

    @staticmethod
    def outer(out: BigSection, inner: BigSection) -> "BigEndo":
        """(flat_g inner) (x) out: the endomorphism U -> g(inner, U) out."""
        return BigEndo(out.chart, contract("i,j->ij", out, flat_g(inner)))

    def __call__(self, s: BigSection) -> BigSection:
        return BigSection.from_components(self.chart, contract("ij,j->i", self, s))

    # -- defect matrices (entries to feed the zero test) -----------------

    def skew_defect(self, form=None) -> list[ScalarExpr]:
        """Entries of A^T B + B A for the bilinear form B, by default the
        pairing Gram matrix G0."""
        return super().skew_defect(_gram0(self.chart) if form is None else form)

    def square_defect(self, scalar) -> list[ScalarExpr]:
        """Entries of A^2 - scalar * Id."""
        return (self @ self - BigEndo.identity(self.chart) * scalar)._flat()


def pairing_gram(chart: ChartManifold) -> list[list[Fraction]]:
    """Gram matrix of the neutral pairing in the frame (d_1..d_n ; dx^1..dx^n)."""
    n = chart.dim
    half = Fraction(1, 2)
    return [
        [half if (i + n == j or j + n == i) else 0 for j in range(2 * n)]
        for i in range(2 * n)
    ]


@functools.lru_cache(maxsize=16)
def _gram0(chart: ChartManifold) -> _Array:
    """:func:`pairing_gram` as a core array."""
    return _Array(chart, pairing_gram(chart), (2 * chart.dim,) * 2)


def nijenhuis_big(A: BigEndo, S: BigSection, T: BigSection) -> BigSection:
    """Generalized Nijenhuis tensor with Courant brackets:

    N_A(S,T) = [AS, AT] - A[AS, T] - A[S, AT] + A^2 [S, T].
    """
    AS, AT = A(S), A(T)
    return (
        courant_bracket(AS, AT)
        - A(courant_bracket(AS, T))
        - A(courant_bracket(S, AT))
        + A(A(courant_bracket(S, T)))
    )


def nijenhuis_frame(A: BigEndo) -> _Array:
    """N_A(e_a, e_b) for every pair of frame sections, a 2n x 2n x 2n
    core array, entry [k][a][b] the k-th component.

    The frame brackets vanish, so N_A(e_a, e_b) = [A e_a, A e_b]
    - A([A e_a, e_b] + [e_a, A e_b]): the tables [A, A] and [A, 1], the
    second read transposed for [1, A] by antisymmetry.
    """
    mixed = skew_table(bracket_table(A, BigEndo.identity(A.chart)))
    return bracket_table(A, A) - contract("ij,jab->iab", A, mixed)


def skew_table(table: _Array) -> _Array:
    """T_kab - T_kba for a k x p x p table."""
    return table - contract("kab->kba", table)


def frame_pairs(table: _Array, diagonal: bool = False) -> list:
    """The entries of a k x p x p table (or a p x p matrix) over the pairs
    a < b (a <= b with ``diagonal``), pair by pair and component by
    component: the order the per-pair criteria use."""
    s, zero, m = table._items(), table.chart.zero, table.shape[-1]
    pairs = [(a, b) for a in range(m) for b in range(a + (not diagonal), m)]
    if len(table.shape) == 2:
        return [s.get(ab, zero) for ab in pairs]
    return [s.get((r, a, b), zero) for a, b in pairs for r in range(table.shape[0])]


def _lift_slots(n: int) -> list:
    """Slot i of the frame of TM + T*M in the frame of T(MxR) + T*(MxR),
    which gains d_t at vector slot n and dt at covector slot 2n+1."""
    return list(range(n)) + list(range(n + 1, 2 * n + 1))


def lift_big_section(s: BigSection, product: ChartManifold) -> BigSection:
    """Zero-pad a section of TM + T*M to T(MxR) + T*(MxR)."""
    slot = _lift_slots(s.chart.dim)
    return BigSection.from_components(product, {
        (slot[i],): e.lift(product) for (i,), e in s._items().items()})


def lift_big_endo(A: BigEndo, product: ChartManifold) -> BigEndo:
    """Zero-pad an endomorphism of TM + T*M to T(MxR) + T*(MxR)."""
    slot = _lift_slots(A.chart.dim)
    return BigEndo(product, {
        (slot[i], slot[j]): e.lift(product) for (i, j), e in A._items().items()})
