"""Exact point certificates: rank, kernel and inertia of a matrix of scalars
at a rational point.

A grid is a core array of shape (rows, columns): Fcal, a Jacobian, a Gram
matrix, the 1x1 determinant of a metric.  At a point its stored entries
are evaluated once, in one field, by ``symexpr._evaluator``: exactly in Q
or Q(i) when the field has no atom generator, and by mpmath at 30 digits
when it has one (exp or tan generators).  A pole raises ExprError.  One
pivoted elimination reads the values:

* row reduction (Gauss-Jordan) gives the rank and a kernel basis;
* the symmetric reduction A = P^T L D L^H P of a Hermitian matrix gives the
  pivots D, whose signs are the inertia of A (Sylvester's law of inertia).
  Where every remaining diagonal entry is 0, the 2x2 block
  [[0, b], [conj(b), 0]] (one positive and one negative square) is split by
  the congruence row_i += b row_j, col_i += conj(b) col_j, which puts
  2|b|^2 on the diagonal.

Exact and 30-digit values share the routine and differ only in the zero
test of a pivot: an exact value is zero when it is 0, and a 30-digit one
when |v| <= tol * max(1, max |a_ij|).  An exact pivot is the first nonzero
candidate, a 30-digit one the largest.  The certificates hold at the sample
points only, so they back NumericallySupported verdicts.

An exact grid never touches mpmath: the elimination enters mpmath's
30-digit context only on 30-digit values, and conjugates and real parts
test the exact types first.  mpmath is imported by ``symexpr`` with the
first atom generator, so a job without atoms never loads it.
"""

from __future__ import annotations

import contextlib
import functools
from fractions import Fraction
from typing import Optional

from . import symexpr
from .errors import ExprError
from .poly import Gaussian
from .symexpr import _DPS, _POLE, _evaluator, _join, _witness_number
from .verdict import Witness


def _precision(exact: bool):
    """The arithmetic context of an elimination: none on exact values, 30
    digits on mpmath ones, which exist only once an atom generator has
    imported mpmath into ``symexpr``."""
    return contextlib.nullcontext() if exact else symexpr.mpmath.workdps(_DPS)


def _values(point: dict, *grids) -> tuple:
    """The entries of each grid at ``point`` as a list of rows, every value
    in the arithmetic of the grids' joint field; whether they are exact;
    and the zero of that arithmetic."""
    K = functools.reduce(_join, {g.field for g in grids})
    value, exact = _evaluator(grids[0].chart, K, point)
    zero = Fraction(0) if exact else symexpr.mpmath.mpf(0)
    out = []
    for g in grids:
        rows, cols = g.shape
        a = [[zero] * cols for _ in range(rows)]
        for (i, j), e in g._in(K).items():
            a[i][j] = value(e)
            if a[i][j] is _POLE:
                raise ExprError(f"pole hit while evaluating at {point}")
        out.append(a)
    return out, exact, zero


def _threshold(a: list, exact: bool, tol: float):
    """The largest size of a zero pivot of ``a``: None (only 0 is zero)
    for exact values, else tol * max(1, max |a_ij|)."""
    if exact:
        return None
    return tol * max([1] + [abs(v) for row in a for v in row])


def _pick(candidates, thr):
    """The key of the pivot among (key, value) candidates, or None when
    every value is zero: the first nonzero value when exact (``thr`` None),
    else the largest above ``thr``."""
    if thr is None:
        return next((k for k, v in candidates if v), None)
    best, size = None, thr
    for k, v in candidates:
        if abs(v) > size:
            best, size = k, abs(v)
    return best


def _conj(v):
    if type(v) is Fraction or type(v) is int:
        return v
    if type(v) is Gaussian:
        return Gaussian(v.x, -v.y)
    return v.conjugate()  # mpmath


def _real(v):
    if type(v) is Fraction or type(v) is int:
        return v
    if type(v) is Gaussian:
        return v.x
    return v.real  # mpmath


def _eliminate(a: list, thr, hermitian: bool = False) -> list:
    """Pivoted elimination of the rows ``a``, in place.

    By rows (Gauss-Jordan): column by column, the pivot row is swapped
    into place and the column is cleared in every other row; returns the
    pivot columns, pivot k in row k.  ``hermitian``: the pivot is a
    diagonal entry, moved to (k, k) by swapping rows and columns, and only
    the trailing block is reduced; returns the pivots of D as (row of the
    input, value).  Either way the number of pivots is the rank."""
    n_rows, n_cols = len(a), len(a[0]) if a else 0
    index = list(range(n_rows))
    pivots = []
    for c in range(n_cols):  # hermitian: c is k, as no column is passed over
        k = len(pivots)
        if k == n_rows:
            break
        if not hermitian:
            p = _pick(((i, a[i][c]) for i in range(k, n_rows)), thr)
            if p is None:
                continue
            a[k], a[p] = a[p], a[k]
            _clear(a, k, c, (i for i in range(n_rows) if i != k))
            pivots.append(c)
            continue
        p = _pick(((i, a[i][i]) for i in range(k, n_rows)), thr)
        if p is None:
            pair = _pick((((i, j), a[i][j]) for i in range(k, n_rows)
                          for j in range(i + 1, n_rows)), thr)
            if pair is None:
                break
            p, j = pair
            b, bc = a[p][j], _conj(a[p][j])
            a[p] = [x + b * y for x, y in zip(a[p], a[j])]
            for row in a:
                row[p] += bc * row[j]
        a[k], a[p] = a[p], a[k]
        for row in a:
            row[k], row[p] = row[p], row[k]
        index[k], index[p] = index[p], index[k]
        _clear(a, k, k, range(k + 1, n_rows))
        pivots.append((index[k], _real(a[k][k])))
    return pivots


def _clear(a: list, k: int, c: int, rows) -> None:
    """Subtract multiples of row k from ``rows`` so that their column c is
    0; columns before c are left as they are."""
    pivot = a[k]
    for i in rows:
        row = a[i]
        if row[c]:
            f = row[c] / pivot[c]
            for j in range(c + 1, len(row)):
                row[j] -= f * pivot[j]
            row[c] -= row[c]


def rank_at(grid, point: dict, tol: float = 1e-9) -> int:
    """The rank of the matrix ``grid`` at ``point``."""
    (a,), exact, _ = _values(point, grid)
    with _precision(exact):
        return len(_eliminate(a, _threshold(a, exact, tol)))


def kernel_inertia_at(grid, form, point: dict, tol: float = 1e-9) -> tuple[int, int]:
    """(positive, negative) index of the Hermitian form ``form`` restricted
    to the kernel of the matrix ``grid`` at ``point``.  The kernel basis
    comes from the reduced rows: one vector per free column."""
    (a, g), exact, zero = _values(point, grid, form)
    with _precision(exact):
        cols = _eliminate(a, _threshold(a, exact, tol))
        n = len(a[0])
        basis = []
        for f in (f for f in range(n) if f not in cols):
            v = [zero] * n
            v[f] = zero + 1
            for k, c in enumerate(cols):
                v[c] = -a[k][f] / a[k][c]
            basis.append(v)
        gram = [[sum((_conj(u[i]) * g[i][j] * w[j] for i in range(n) for j in range(n)
                      if g[i][j]), zero) for w in basis] for u in basis]
        return _signs(gram, exact, tol)


def inertia_at(gram, point: dict, tol: float = 1e-9) -> tuple[int, int]:
    """(positive, negative) index of the Hermitian matrix ``gram`` at
    ``point``."""
    (a,), exact, _ = _values(point, gram)
    with _precision(exact):
        return _signs(a, exact, tol)


def _signs(a: list, exact: bool, tol: float) -> tuple[int, int]:
    pivots = _hermitian_pivots(a, exact, tol)
    neg = sum(d < 0 for _, d in pivots)
    return len(pivots) - neg, neg


def _hermitian_pivots(a: list, exact: bool, tol: float) -> list:
    """The pivots of D of the rows ``a``, which must be Hermitian."""
    thr = _threshold(a, exact, tol)
    for i, row in enumerate(a):
        for j in range(i, len(row)):
            d = row[j] - _conj(a[j][i])
            if (d if thr is None else abs(d) > thr):
                raise ExprError("expected a Hermitian Gram matrix")
    return _eliminate(a, thr, hermitian=True)


def positivity_witness(gram, point: dict, tol: float = 1e-9) -> Optional[Witness]:
    """None when the Hermitian matrix ``gram`` is positive definite at
    ``point`` (every pivot of its symmetric reduction is positive), else a
    witness: the first pivot that is not (0 when the pivots run out before
    the last row), exact when the values are, with its row in ``detail``."""
    (a,), exact, zero = _values(point, gram)
    with _precision(exact):
        pivots = _hermitian_pivots(a, exact, tol)
        bad = next(((i, d) for i, d in pivots if d < 0), None)
        if bad is None and len(pivots) < len(a):
            bad = (min(set(range(len(a))) - {i for i, _ in pivots}), zero)
        if bad is None:
            return None
        i, d = bad
        return Witness(tuple(sorted(point.items())), _witness_number(d), f"pivot {i}")
