"""Exact point certificates of positivity: is a Hermitian matrix of scalars
positive definite at a rational point?

A grid is a square core array: the Gram matrix of a generalized metric G,
or that of Gtilde on M x R.  At a point its stored entries are evaluated
once, in one field, by ``symexpr._evaluator``: exactly in Q or Q(i) when
the field has no atom generator, and as 30-digit Decimals when it has one
(exp or tan generators).  A pole raises ExprError.  The symmetric reduction
A = P^T L D L^H P gives the pivots D, whose signs are the inertia of A
(Sylvester's law of inertia), so A is positive definite when every pivot is
positive.  Where every remaining diagonal entry is 0, the 2x2 block
[[0, b], [conj(b), 0]] (one positive and one negative square) is split by
the congruence row_i += b row_j, col_i += conj(b) col_j, which puts
2|b|^2 on the diagonal.

Exact and 30-digit values share the routine and differ only in the zero
test of a pivot: an exact value is zero when it is 0, and a 30-digit one
when |v| <= tol * max(1, max |a_ij|).  An exact pivot is the first nonzero
candidate, a 30-digit one the largest.  The certificate holds at the sample
points only, so it backs NumericallySupported verdicts.  Ranks need no
certificate here: the checks read them from the identities they prove (the
rank of a projection is its trace).

The elimination runs in a copy of ``symexpr._CONTEXT``, the thread's own,
which rounds 30-digit values and leaves exact ones exact; every value type
has ``conjugate()`` and ``real``.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Optional

from .errors import ExprError
from .symexpr import _CONTEXT, _POLE, _evaluator, _witness_number
from .verdict import Witness


def _values(point: dict, grid) -> tuple:
    """The entries of ``grid`` at ``point`` as a list of rows, every value
    in the arithmetic of the grid's field; whether they are exact; and the
    zero of that arithmetic."""
    value, exact = _evaluator(grid.chart, grid.field, point)
    zero = Fraction(0) if exact else Decimal(0)
    rows, cols = grid.shape
    a = [[zero] * cols for _ in range(rows)]
    for (i, j), e in grid.entries.items():
        a[i][j] = value(e)
        if a[i][j] is _POLE:
            raise ExprError(f"pole hit while evaluating at {point}")
    return a, exact, zero


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


def _eliminate(a: list, thr) -> list:
    """The symmetric reduction of the Hermitian rows ``a``, in place.

    Step k moves a nonzero diagonal entry to (k, k) by swapping rows and
    columns and clears column k below it; returns the pivots of D as (row
    of the input, value).  Their number is the rank."""
    n = len(a)
    index = list(range(n))
    pivots = []
    for k in range(n):
        p = _pick(((i, a[i][i]) for i in range(k, n)), thr)
        if p is None:
            pair = _pick((((i, j), a[i][j]) for i in range(k, n)
                          for j in range(i + 1, n)), thr)
            if pair is None:
                break
            p, j = pair
            b, bc = a[p][j], a[p][j].conjugate()
            a[p] = [x + b * y for x, y in zip(a[p], a[j])]
            for row in a:
                row[p] += bc * row[j]
        a[k], a[p] = a[p], a[k]
        for row in a:
            row[k], row[p] = row[p], row[k]
        index[k], index[p] = index[p], index[k]
        pivot = a[k]
        for row in a[k + 1:]:
            if row[k]:
                f = row[k] / pivot[k]
                for j in range(k + 1, n):
                    row[j] -= f * pivot[j]
                row[k] -= row[k]
        pivots.append((index[k], a[k][k].real))
    return pivots


def positivity_witness(gram, point: dict, tol: float = 1e-9) -> Optional[Witness]:
    """None when the Hermitian matrix ``gram`` is positive definite at
    ``point`` (every pivot of its symmetric reduction is positive), else a
    witness: the first pivot that is not (0 when the pivots run out before
    the last row), exact when the values are, with its row in ``detail``."""
    a, exact, zero = _values(point, gram)
    with localcontext(_CONTEXT):
        thr = None if exact else Decimal(tol) * max([1] + [abs(v) for row in a for v in row])
        for i, row in enumerate(a):
            for j in range(i, len(row)):
                d = row[j] - a[j][i].conjugate()
                if (d if thr is None else abs(d) > thr):
                    raise ExprError("expected a Hermitian Gram matrix")
        pivots = _eliminate(a, thr)
        bad = next(((i, d) for i, d in pivots if d < 0), None)
        if bad is None and len(pivots) < len(a):
            bad = (min(set(range(len(a))) - {i for i, _ in pivots}), zero)
        if bad is None:
            return None
        i, d = bad
        return Witness(tuple(sorted(point.items())), _witness_number(d), f"pivot {i}")
