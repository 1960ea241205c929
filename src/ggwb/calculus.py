"""Charts, tensor fields and exterior/Lie/Riemannian calculus.

Conventions follow Cartan throughout (no 1/(k+1) factors):

    (a ^ b)(X, Y)  = a(X) b(Y) - a(Y) b(X)
    da(X, Y)       = X a(Y) - Y a(X) - a([X, Y])
    dw(X, Y, U)    = X w(Y,U) - Y w(X,U) + U w(X,Y)
                     - w([X,Y],U) + w([X,U],Y) - w([Y,U],X)

All fields are stored in coordinate-frame components and are immutable after
construction.  Every tensor class, and every tensor of TM + T*M
(:class:`ggwb.courant.BigSection`, :class:`ggwb.courant.BigEndo`), is one
sparse core, :class:`_Components`: a shape and a dict from index tuple to
nonzero entry, every entry an element of one rational function field (the
chart coordinates and the atom generators of :mod:`ggwb.symexpr`), built
once.  A zero is never stored.  ``components`` is a view of the store,
nested tuples of ScalarExpr built on first use.  The core defines the
elementwise algebra (dict merges in the field), the matrix product, the
evaluation of a covariant tensor on vectors, ``is_syntactic_zero`` and
``repr`` once.

The package has one algebra path.  Every sum over indices, including every
matrix product, transpose, block assembly, defect matrix and determinant,
goes through :func:`contract_sum`, a sum of contraction terms with
rational coefficients in one pass, or its one-term case :func:`contract`,
written in index notation: ``contract("ij,i,j->", g, X, Y)`` is g(X, Y),
``"i,ij->j"`` contracts one slot, ``"ij,j->i"`` applies an endomorphism,
``"ki,kj->ij"`` is the product A^T B.  A sum of terms, such as a half of
the Courant bracket, is one pass: every term adds its products to one
group per output entry, and each entry is summed once, with no array
merged in between.  Each spec compiles once into a join over the stored
nonzeros, in the sparse-iteration style of TACO (Kjolstad et al., *The
tensor algebra compiler*, OOPSLA 2017): operand by operand, each operand's
entries are looked up by the indices already bound, through an index it
keeps.  So a term with a zero factor is never formed.  Products and sums
are taken in the field that holds every operand, and the result is a core
array (or a ScalarExpr), already canonical, which the next contraction
reads as it is.  An empty sum is the chart's one zero scalar, and an
operand without nonzeros makes its term add nothing before any field work.
:class:`MetricField` takes its determinant and its adjugate inverse as
Leibniz contractions (:func:`_det`).

Every partial derivative comes from one cached kernel,
:func:`ggwb.symexpr._derivative`, the chain rule in the field, which
``pdiff`` wraps for scalars.  Brackets, exterior, Lie and covariant
derivatives take the derivative array of each field once (:func:`_partials`),
a core array of the derivatives of its stored entries, differentiated as
field elements, and contract it.  Integer polynomials (denominator 1, the
usual data of the Courant identities) take a lane without fractions: their
sums of products, derivatives and ``+ - *`` stay polynomials over 1, which
is already their normal form.

Charts are global (R^n-like); compact factors are represented by periodic
or parametric coordinate expressions on a single chart, with sampling ranges
keeping random points away from chart boundaries.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import ChartMismatchError, ExprError, SingularMetricError
from .poly import ONE, Frac, I, Poly, add_mul, mul, prune
from .symexpr import (
    ScalarExpr,
    _conj,
    _constant,
    _derivative,
    _embed,
    _field,
    _field_op,
    _join,
    _own_field,
    _sum_over,
    _ring,
    _scaled,
    check_coordinate_names,
    sign_at,
)

Scalarish = Union[ScalarExpr, int, Fraction, str]


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise ExprError(f"expected a rational value, got {v!r}")


class ChartManifold:
    """A named global coordinate chart of dimension n >= 1.

    ``ranges`` restricts random sampling per coordinate (rational bounds),
    used for parametric charts whose expressions are only valid inside a box
    (angles on a sphere chart, say).  ``base_point`` is the distinguished
    rational point where nondegeneracy conditions are certified.  A
    coordinate name is an identifier of the expression grammar, not one of
    ``symexpr.RESERVED``.
    """

    __slots__ = ("name", "coords", "ranges", "_base", "_zero")

    def __init__(
        self,
        name: str,
        coords: Sequence[str],
        ranges: Optional[dict] = None,
        base_point: Optional[dict] = None,
    ):
        coords = tuple(coords)
        if len(coords) < 1:
            raise ExprError("chart dimension must be >= 1")
        check_coordinate_names(coords)
        if len(set(coords)) != len(coords):
            raise ExprError(f"chart '{name}' has repeated coordinates {coords}")
        self.name = name
        self.coords = coords
        self.ranges = {}
        for c, (lo, hi) in (ranges or {}).items():
            if c not in coords:
                raise ExprError(f"range for unknown coordinate '{c}'")
            lo, hi = _frac(lo), _frac(hi)
            if not lo < hi:
                raise ExprError(f"empty sampling range for '{c}'")
            self.ranges[c] = (lo, hi)
        base = {}
        for i, c in enumerate(coords):
            if base_point and c in base_point:
                base[c] = _frac(base_point[c])
            elif c in self.ranges:
                lo, hi = self.ranges[c]
                base[c] = lo + (hi - lo) * Fraction(i + 3, 2 * len(coords) + 7)
            else:
                base[c] = Fraction(2 * i + 3, 7)
        self._base = base
        self._zero = None

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, ChartManifold)
            and self.name == other.name
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.name, self.coords))

    def __repr__(self):
        return f"ChartManifold({self.name}: {', '.join(self.coords)})"

    def coordinate(self, coord) -> str:
        """``coord``, when it names a coordinate of the chart."""
        if coord in self.coords:
            return coord
        raise ChartMismatchError(f"'{coord}' is not a coordinate of chart '{self.name}'")

    def scalar(self, value: Scalarish) -> ScalarExpr:
        return ScalarExpr(value, self)

    @property
    def zero(self) -> ScalarExpr:
        """The chart's one interned zero scalar, the value of every zero
        that arithmetic or a contraction computes on the chart."""
        if self._zero is None:
            self._zero = self.scalar(0)
        return self._zero

    @property
    def one(self) -> ScalarExpr:
        return self.scalar(1)

    @property
    def i(self) -> ScalarExpr:
        """The Gaussian unit i as a scalar on the chart."""
        return self.scalar(I)

    def base_point(self) -> dict:
        return dict(self._base)

    def sample_point(self, rng: random.Random) -> dict:
        pt = {}
        for c in self.coords:
            if c in self.ranges:
                lo, hi = self.ranges[c]
                pt[c] = lo + (hi - lo) * Fraction(rng.randint(1, 193), 194)
            else:
                pt[c] = Fraction(rng.randint(-97, 97), rng.randint(1, 97))
        return pt

    def product_with_line(self, t: str = "t") -> "ChartManifold":
        """Chart of M x R with the extra coordinate appended last."""
        if t in self.coords:
            raise ExprError(f"symbol '{t}' already used by chart '{self.name}'")
        ranges = {c: rng for c, rng in self.ranges.items()}
        base = dict(self._base)
        return ChartManifold(f"{self.name}x{t}", self.coords + (t,), ranges, base)


# ---------------------------------------------------------------------------
# the sparse component-array core and the one contraction


def _same_chart(*objs):
    chart = objs[0].chart
    for o in objs[1:]:
        if o.chart != chart:
            raise ChartMismatchError(
                f"fields on charts '{chart.name}' and '{o.chart.name}' cannot be combined"
            )
    return chart


def _S(chart, v) -> ScalarExpr:
    """A component value as a scalar on ``chart`` (checked unless it is one)."""
    if isinstance(v, ScalarExpr) and (v.chart is chart or v.chart == chart):
        return v
    return ScalarExpr(v, chart)


def _gather(chart, comps, shape: tuple, kind: str) -> dict:
    """The nonzero entries of a component array of exactly ``shape``, as
    scalars on ``chart`` by index tuple: read from nested sequences, or from
    a dict of index tuples to values."""
    out = {}

    def walk(c, ix):
        if len(ix) == len(shape):
            if type(c) is not int or c:
                c = _S(chart, c)
                if c.rf:
                    out[ix] = c
            return
        try:
            c = tuple(c)
        except TypeError:
            c = ()
        if len(c) != shape[len(ix)]:
            raise ExprError(f"{kind} needs a {'x'.join(map(str, shape))} component array")
        for i, e in enumerate(c):
            walk(e, ix + (i,))

    for ix, v in comps.items() if isinstance(comps, dict) else [((), comps)]:
        walk(v, ix)
    return out


def _getter(slots):
    """ix -> the values of ix at ``slots``: () for none, a bare value for one."""
    return operator.itemgetter(*slots) if slots else lambda ix: ()


def _picker(slots):
    """ix -> the tuple of the values of ix at ``slots``."""
    if len(slots) == 1:
        s, = slots
        return lambda ix: (ix[s],)
    return _getter(slots)


@functools.lru_cache(maxsize=1024)
def _compile(spec: str, shapes: tuple) -> tuple:
    """The join of ``spec`` on operands of ``shapes``: (output shape, one
    step per operand, the output index of a tuple of bound letter values).
    Letters are bound operand by operand, in operand order.  A step is (the
    operand's slots whose letters are bound already, its slots that bind
    new letters, its slot pairs that repeat a letter, the lookup key)."""
    ins, out = spec.split("->")
    dims, order, steps = {}, [], []
    for idx, shape in zip(ins.split(","), shapes):
        if len(idx) != len(shape):
            raise ExprError(f"operand '{idx}' of '{spec}' has rank {len(shape)}")
        bound, new, same, first = [], [], [], {}
        for p, (c, n) in enumerate(zip(idx, shape)):
            if dims.setdefault(c, n) != n:
                raise ExprError(f"index '{c}' of '{spec}' has two sizes")
            if c in first:
                same.append((first[c], p))
                continue
            first[c] = p
            (bound if c in order else new).append(p)
        key = _getter([order.index(idx[p]) for p in bound])
        order += [idx[p] for p in new]
        steps.append((tuple(bound), tuple(new), tuple(same), key))
    if len(set(out)) != len(out) or not set(out) <= set(dims):
        raise ExprError(f"the output indices of '{spec}' must be distinct operand indices")
    at = [order.index(c) for c in out]
    out_at = (lambda v: (v[at[0]],)) if len(at) == 1 else _getter(at)
    return tuple(dims[c] for c in out), tuple(steps), out_at


def contract(spec: str, *operands):
    """Sum of products of component arrays over repeated indices: the
    one-term case of :func:`contract_sum`.

    The one contraction path of the package, in index notation:
    ``"ij,i,j->"`` evaluates a 2-tensor on two vectors, ``"i,ij->j"``
    contracts one slot, ``"ij,j->i"`` applies an endomorphism, ``"i,j->ij"``
    is an outer product and ``"ij->ji"`` a transpose.  An operand is a core
    array or a nested sequence of ScalarExpr, rational numbers or grammar
    expressions, made a core array here.
    """
    return contract_sum((1, spec, *operands))


def contract_sum(*terms):
    """sum_t c_t contract(spec_t, *operands_t), for terms
    ``(c_t, spec_t, *operands_t)`` with rational coefficients and one
    output shape, in one multiply-accumulate pass.

    Each spec compiles once per operand shapes into a join over the stored
    nonzeros: the first operand's entries bind its letters, and each later
    operand adds only the entries that its index, keyed by the letters
    already bound, returns.  The index is kept on the operand, so a sparse
    operand costs its nonzeros, not its shape.  Every term's join adds its
    products (its coefficient, when it is not 1, as a constant first
    factor) to one group per output entry, and each entry's products are
    summed once, in the one field that holds every operand
    (:func:`_field_sum`): an entry whose factors all have denominator 1 is
    an integer polynomial, taken without a gcd or a normalization.  A term
    with coefficient 0, or with an operand without nonzeros, adds nothing
    and costs no field work.  The result is a ScalarExpr when nothing
    follows ``->`` (the chart's one zero for an empty sum), and otherwise a
    core array.  Terms whose output shapes differ raise ExprError.
    """
    if not terms:
        raise ExprError("a contraction sum needs at least one term")
    plans, shape = [], None
    for coef, spec, *operands in terms:
        ins = spec.split("->")[0].split(",")
        if len(ins) != len(operands):
            raise ExprError(f"contract '{spec}' takes {len(ins)} operands, got {len(operands)}")
        cores = [o for o in operands if isinstance(o, _Components)]
        chart = cores[0].chart if cores else _first_scalar(operands, spec).chart
        arrays = [o if isinstance(o, _Components) else _Array(chart, o, _extent(o, len(idx)))
                  for o, idx in zip(operands, ins)]
        out, steps, out_at = _compile(spec, tuple(a.shape for a in arrays))
        if shape is not None and out != shape:
            raise ExprError(f"the terms of a contraction sum have output shapes {shape} and {out}")
        shape = out
        plans.append((coef, arrays, steps, out_at))
    chart = _same_chart(*(a for plan in plans for a in plan[1]))
    plans = [plan for plan in plans if plan[0] and all(a.entries for a in plan[1])]
    if not plans:
        return _zeros(chart, shape) if shape else chart.zero
    K = functools.reduce(_join, {a.field for plan in plans for a in plan[1]})
    groups = {}
    for coef, arrays, steps, out_at in plans:
        partial = [((), () if coef == 1 else (_constant(K, coef),))]  # (letter values, factors)
        for a, (bound, new, same, key) in zip(arrays, steps):
            index = a._index(K, bound, new, same)
            partial = [(v + n, f + (e,)) for v, f in partial for n, e in index.get(key(v), ())]
            if not partial:
                break
        for v, f in partial:
            groups.setdefault(out_at(v), []).append(f)
    if not shape:
        return _ring(chart, _field_sum(K, groups[()])) if groups else chart.zero
    entries = {}
    for ix, products in groups.items():
        total = _field_sum(K, products)
        if total:
            entries[ix] = total
    return _core(chart, shape, K, entries)


def _first_scalar(operands, spec: str) -> ScalarExpr:
    todo = list(operands)
    while todo:
        a = todo.pop()
        if isinstance(a, ScalarExpr):
            return a
        if isinstance(a, (list, tuple)):
            todo.extend(a)
    raise ExprError(f"contract '{spec}' has no operand on a chart")


def _extent(array, rank: int) -> tuple:
    """The shape of a nested sequence, read along its first entries."""
    shape = []
    for _ in range(rank):
        shape.append(len(array))
        array = array[0]
    return tuple(shape)


def _field_sum(K, terms):
    """Sum of products of field elements, each product a sequence of
    factors, in one multiply-accumulate pass.  A term's denominators and
    the numerators of all its factors but the last multiply as polynomials;
    the last numerator multiplies straight into the running numerator of
    the term's denominator class (:func:`ggwb.poly.add_mul`), one mutable
    dict per class, so no term copies a sum.

    When every denominator is 1 the sum is an integer polynomial over 1,
    which is already the normal form over Q and over Q(i): it is returned
    as it is, without a gcd or a normalization.  Otherwise each class is
    reduced once (:func:`ggwb.symexpr._sum_over`).  A lone factor is
    already reduced, and a lone product whose factors but one are
    constants has no common factor to cancel: it takes the constant
    normalization alone."""
    if len(terms) == 1:
        factors = terms[0]
        if len(factors) == 1:
            return factors[0]
        if (sum(not (f.numer.is_ground and f.denom.is_ground) for f in factors) <= 1
                and any(f.denom != ONE for f in factors)):
            return _scaled(K, *_product(factors))
    whole, sums = Poly(), {}  # the class of denominator 1, the others by denominator
    for factors in terms:
        num, den = _product(factors, 1)
        if den is ONE:
            acc = whole
        else:
            acc = sums.get(den)
            if acc is None:
                acc = sums[den] = Poly()
        add_mul(acc, num, factors[-1].numer)
    prune(whole)
    if not sums:
        return Frac(K, whole, ONE) if whole else K.zero
    for num in sums.values():
        prune(num)
    if whole:
        sums[ONE] = whole
    return _sum_over(K, sums)


def _product(factors, skip: int = 0) -> tuple:
    """(numerator, denominator) of a product of field elements, multiplied
    as polynomials without a gcd, the numerators of the last ``skip``
    factors left out; a product of two non-constant denominators is
    memoized.  Either is the object ``ONE`` when it is 1."""
    num = den = ONE
    for f in factors[:len(factors) - skip]:
        if f.numer != ONE:
            num = f.numer if num is ONE else mul(num, f.numer)
    for f in factors:
        if f.denom != ONE:
            d = f.denom
            den = (d if den is ONE else mul(den, d) if den.is_ground or d.is_ground
                   else _den_product(f.field, den, d))
    return num, den


@functools.lru_cache(maxsize=1024)
def _den_product(K, a, b):
    """a * b, two non-constant denominators of K."""
    return mul(a, b)


def _partials(t) -> "_Array":
    """The derivative array of a field's (or a scalar's) components: one
    more slot, last, holding d_k of the entry.  Only the stored nonzeros
    are differentiated, as field elements: each is taken to its canonical
    field, as a scalar holds it (:func:`ggwb.symexpr._own_field`), its
    derivatives come from the cached kernel :func:`ggwb.symexpr._derivative`,
    and they are embedded in the field that holds them all.  No scalar is
    built on the way."""
    chart, coords = t.chart, t.chart.coords
    if isinstance(t, ScalarExpr):
        entries, shape = ({(): t.rf} if t.rf else {}), ()
    else:
        entries, shape = t.entries, t.shape
    out = {}
    for ix, e in entries.items():
        e = _own_field(e)
        for k, c in enumerate(coords):
            d = _derivative(e, c)
            if d:
                out[ix + (k,)] = d
    K = functools.reduce(_join, {d.field for d in out.values()}, _field(coords))
    return _core(chart, shape + (len(coords),), K, {ix: _embed(d, K) for ix, d in out.items()})


MAX_DET = 8  # the largest determinant: one index letter per row, m! terms


def _det(A) -> ScalarExpr:
    """Determinant of a small square core array: the Leibniz sum
    eps_{i_1..i_m} A_{1 i_1} ... A_{m i_m}, one row per operand, contracted
    like any other index sum."""
    m = A.shape[0]
    if m > MAX_DET:
        raise ExprError(f"a {m}x{m} determinant exceeds the bound {MAX_DET}")
    idx = "abcdefgh"[:m]
    return contract(f"{idx},{','.join(idx)}->", _levi_civita(A.chart, m),
                    *(A._take(r) for r in range(m)))


def _minor(A, r: int, c: Optional[int] = None) -> "_Array":
    """A without row r, and without column c when it is given."""
    drop = c is not None
    return _core(A.chart, (A.shape[0] - 1, A.shape[1] - drop), A.field, {
        (i - (i > r), j - (drop and j > c)): e
        for (i, j), e in A.entries.items() if i != r and j != c
    })


@functools.lru_cache(maxsize=16)
def _levi_civita(chart: "ChartManifold", m: int) -> "_Array":
    """eps on ``chart``: the sign of each permutation of range(m); an index
    tuple with a repeat is zero and not stored."""
    return _Array(chart, {
        p: (-1) ** sum(a > b for a, b in itertools.combinations(p, 2))
        for p in itertools.permutations(range(m))
    }, (m,) * m)


def _core(chart, shape, K, entries: dict) -> "_Array":
    """A core array over a store already built in the field K."""
    a = object.__new__(_Array)
    a.chart, a.shape, a.field, a.entries = chart, tuple(shape), K, entries
    a._scalars, a._nested_view, a._cache = None, None, {}
    return a


def _zeros(chart, shape) -> "_Array":
    return _core(chart, shape, _field(chart.coords), {})


def _stack(*arrays) -> "_Array":
    """Core arrays of one trailing shape, one after another along the first
    slot."""
    chart = _same_chart(*arrays)
    K = functools.reduce(_join, {a.field for a in arrays})
    entries, lo = {}, 0
    for a in arrays:
        entries.update(((ix[0] + lo,) + ix[1:], e) for ix, e in a._in(K).items())
        lo += a.shape[0]
    return _core(chart, (lo,) + arrays[0].shape[1:], K, entries)


def _columns(arrays) -> "_Array":
    """The k x m core array whose column c is ``arrays[c]``, m core arrays
    of one shape (k,)."""
    chart = _same_chart(*arrays)
    K = functools.reduce(_join, {a.field for a in arrays})
    return _core(chart, arrays[0].shape + (len(arrays),), K, {
        (k, c): e for c, a in enumerate(arrays) for (k,), e in a._in(K).items()})


def _nested(shape: tuple, leaf, ix: tuple = ()):
    if len(ix) == len(shape):
        return leaf(ix)
    return tuple(_nested(shape, leaf, ix + (i,)) for i in range(shape[len(ix)]))


def _strings(t):
    return str(t) if isinstance(t, ScalarExpr) else [_strings(e) for e in t]


class _Components:
    """The one core of every tensor field: a sparse component array in the
    coordinate frame.

    The store is ``shape`` and ``entries``, a dict from index tuple to
    nonzero entry, every entry an element of the one field ``field``.  It is
    built once, at construction, and a core array given to a constructor is
    adopted as it is.  No zero is stored, so ``is_syntactic_zero`` is an
    empty dict.  ``components`` is a view: nested tuples of ScalarExpr of
    ``shape``, built on first use.  The elementwise algebra (``+ - neg`` and
    scalar ``*``) merges dicts in the field; it, ``conjugate``, ``@``, the
    defect lists of skewness and isometry identities, the evaluation of a
    covariant tensor on vectors and ``repr`` are defined here once;
    subclasses fix the shape and add their own invariants.
    """

    __slots__ = ("chart", "shape", "field", "entries", "_scalars", "_nested_view", "_cache")
    _kind = "tensor"
    _rank = 2

    def __init__(self, chart: ChartManifold, components):
        self._init(chart, components, self._shape(chart))

    def _init(self, chart, components, shape):
        self.chart, self.shape, self._nested_view, self._cache = chart, shape, None, {}
        if isinstance(components, _Components):
            _same_chart(self, components)
            if components.shape != shape:
                raise ExprError(f"{self._kind} needs a {'x'.join(map(str, shape))} component array")
            self.field, self.entries = components.field, components.entries
            self._scalars = components._scalars
            return
        self._scalars = scalars = _gather(chart, components, shape, self._kind)
        self.field = K = functools.reduce(
            _join, {s.rf.field for s in scalars.values()}, _field(chart.coords))
        self.entries = {ix: _embed(s.rf, K) for ix, s in scalars.items()}

    @classmethod
    def _shape(cls, chart) -> tuple:
        return (chart.dim,) * cls._rank

    @property
    def components(self):
        if self._nested_view is None:
            s, zero = self._items(), self.chart.zero
            self._nested_view = _nested(self.shape, lambda ix: s.get(ix, zero))
        return self._nested_view

    @property
    def matrix(self):
        return self.components

    def _items(self) -> dict:
        """The stored entries as canonical scalars, by index tuple."""
        if self._scalars is None:
            chart = self.chart
            self._scalars = {ix: _ring(chart, e) for ix, e in self.entries.items()}
        return self._scalars

    def _flat(self) -> list:
        """Every entry, zeros included, row-major, as scalars."""
        s, zero = self._items(), self.chart.zero
        return [s.get(ix, zero) for ix in itertools.product(*map(range, self.shape))]

    def _in(self, K) -> dict:
        """The entries as elements of K, a field that holds ``field``."""
        if K is self.field:
            return self.entries
        moved = self._cache.get(K)
        if moved is None:
            moved = self._cache[K] = {ix: _embed(e, K) for ix, e in self.entries.items()}
        return moved

    def _index(self, K, bound: tuple, new: tuple, same: tuple) -> dict:
        """The entries in K for a join step, once per field and slot
        pattern: the values at the ``bound`` slots -> [(the values at the
        ``new`` slots, entry)], for the entries equal on each ``same`` pair."""
        key = (K, bound, new, same)
        index = self._cache.get(key)
        if index is None:
            index = self._cache[key] = {}
            at, pick = _getter(bound), _picker(new)
            for ix, e in self._in(K).items():
                if not same or all(ix[p] == ix[q] for p, q in same):
                    index.setdefault(at(ix), []).append((pick(ix), e))
        return index

    def _take(self, i: int) -> "_Array":
        """The entries with first index i, without that slot."""
        return _core(self.chart, self.shape[1:], self.field, {
            ix[1:]: e for ix, e in self.entries.items() if ix[0] == i})

    def _column(self, c: int) -> "_Array":
        """The entries with last index c, without that slot."""
        return _core(self.chart, self.shape[:-1], self.field, {
            ix[:-1]: e for ix, e in self.entries.items() if ix[-1] == c})

    def _block(self, lo: int, hi: int) -> "_Array":
        """The entries lo..hi-1 of the first slot, renumbered from 0."""
        return _core(self.chart, (hi - lo,) + self.shape[1:], self.field, {
            (ix[0] - lo,) + ix[1:]: e for ix, e in self.entries.items() if lo <= ix[0] < hi})

    def _like(self, components):
        return type(self)(self.chart, components)

    def _with(self, K, entries: dict):
        return self._like(_core(self.chart, self.shape, K, entries))

    def _merge(self, other, op):
        if not isinstance(other, _Components):
            return NotImplemented  # a scalar's reflected operator refuses it too
        _same_chart(self, other)
        if other.shape != self.shape:
            raise ExprError(f"cannot combine a {self._kind} with a {other._kind}")
        K = self.field if self.field is other.field else _join(self.field, other.field)
        out = dict(self._in(K))
        for ix, b in other._in(K).items():
            a = out.pop(ix, None)
            v = (b if op is operator.add else -b) if a is None else _field_op(op, a, b)
            if v:
                out[ix] = v
        return self._with(K, out)

    def __add__(self, other):
        return self._merge(other, operator.add)

    def __sub__(self, other):
        return self._merge(other, operator.sub)

    def __neg__(self):
        return self._with(self.field, {ix: -e for ix, e in self.entries.items()})

    def __mul__(self, f: Scalarish):
        f = self.chart.scalar(f).rf
        K = _join(self.field, f.field)
        b = _embed(f, K)
        if b == K.one:
            return self._like(self)
        if b == -K.one:
            return -self
        return self._with(K, {ix: _field_op(operator.mul, e, b)
                              for ix, e in self._in(K).items()} if b else {})

    __rmul__ = __mul__

    def __matmul__(self, other):
        return self._like(contract("ij,jk->ik", self, other))

    def conjugate(self):
        return self._with(self.field, {ix: _conj(e) for ix, e in self.entries.items()})

    # -- defect lists of matrix identities, row-major, for the zero test

    def skew_defect(self, form) -> list[ScalarExpr]:
        """Entries of A^T B + B A: zero when A is skew for the bilinear form B."""
        return (contract("ki,kj->ij", self, form) + contract("ik,kj->ij", form, self))._flat()

    def isometry_defect(self, form, *extra) -> list[ScalarExpr]:
        """Entries of A^T B A - B + sum(extra): zero when A preserves the
        bilinear form B up to the ``extra`` arrays."""
        d = contract("ki,kl,lj->ij", self, form, self) - _Array(self.chart, form, self.shape)
        for t in extra:
            d = d + t
        return d._flat()

    def __call__(self, *vectors) -> ScalarExpr:
        """A covariant tensor evaluated on vectors, one per slot."""
        idx = "ijk"[: len(self.shape)]
        return contract(",".join([idx, *idx]) + "->", self, *vectors)

    @property
    def is_syntactic_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        if type(self) is not type(other) or self.chart != other.chart or self.shape != other.shape:
            return False
        K = self.field if self.field is other.field else _join(self.field, other.field)
        return self._in(K) == other._in(K)

    def __hash__(self):
        return hash((type(self).__name__, self.chart, self.components))

    def __repr__(self):
        return f"{type(self).__name__}({_strings(self.components)})"


class _Array(_Components):
    """A core array of any shape: contraction results, derivative arrays
    and the section arrays of :func:`ggwb.courant.bracket_table`.  It reads
    like the nested tuples of its view."""

    _kind = "component array"

    def __init__(self, chart: ChartManifold, components, shape: tuple):
        self._init(chart, components, tuple(shape))

    def _like(self, components):
        return _Array(self.chart, components, self.shape)

    def __len__(self):
        return self.shape[0]

    def __getitem__(self, i):
        return self.components[i]


# ---------------------------------------------------------------------------
# fields


class VectorField(_Components):
    """Contravariant components X^i."""

    _kind = "vector field"
    _rank = 1

    def apply(self, f: ScalarExpr) -> ScalarExpr:
        """Directional derivative X(f)."""
        if f.chart != self.chart:
            raise ChartMismatchError("scalar lives on a different chart")
        return contract("i,i->", self, _partials(f))


class OneForm(_Components):
    """Covariant components a_i."""

    _kind = "1-form"
    _rank = 1

    def compose_endo(self, F: "EndoTM") -> "OneForm":
        """a o F, i.e. (a o F)(X) = a(FX)."""
        return OneForm(self.chart, contract("i,ij->j", self, F))


class TwoForm(_Components):
    """Antisymmetric matrix w_ij = w(e_i, e_j); antisymmetry is enforced."""

    _kind = "2-form"

    def __init__(self, chart, matrix):
        super().__init__(chart, matrix)
        _check_mirror(self, -1, "2-form matrix is not antisymmetric")


def _check_mirror(t, sign: int, what: str) -> None:
    """Raise unless the entry at (j, i) is ``sign`` times the one at (i, j)."""
    for i, j in itertools.combinations_with_replacement(range(t.chart.dim), 2):
        a, b = t.entries.get((i, j)), t.entries.get((j, i))
        if not (a is b if a is None or b is None else a == (b if sign == 1 else -b)):
            raise ExprError(f"{what} at ({i},{j})")


class ThreeForm(_Components):
    """Fully antisymmetric w_ijk; highest degree the engine needs."""

    _kind = "3-form"
    _rank = 3


class EndoTM(_Components):
    """Mixed tensor F^i_j acting on vectors by F(X)^i = F^i_j X^j."""

    _kind = "endomorphism"

    @staticmethod
    def identity(chart) -> "EndoTM":
        return EndoTM(chart, {(i, i): 1 for i in range(chart.dim)})

    def __call__(self, X: VectorField) -> VectorField:
        return VectorField(self.chart, contract("ij,j->i", self, X))


class MetricField(_Components):
    """Symmetric 2-tensor, nondegenerate at the chart base point."""

    __slots__ = ("_determinant", "_inverse", "_connection", "_derivatives")
    _kind = "metric"

    def __init__(self, chart, matrix):
        super().__init__(chart, matrix)
        _check_mirror(self, 1, "metric matrix is not symmetric")
        self._inverse = None
        self._connection = None
        self._derivatives = None
        self._determinant = _det(self)
        # singular: an exact det of 0, a 30-digit one with |det| <= 1e-9, or a pole
        if not sign_at(self._determinant, chart.base_point()):
            raise SingularMetricError(
                f"metric is degenerate at the base point of chart '{chart.name}'")

    def inverse_matrix(self) -> "_Array":
        """The adjugate over the determinant, each cofactor a Leibniz sum."""
        if self._inverse is None:
            # the constructor proved the determinant nonzero at the base point
            d, n = self._determinant, self.chart.dim
            inv = {}
            for i in range(n):
                for j in range(i, n):
                    cof = _det(_minor(self, j, i)) if n > 1 else self.chart.one
                    inv[i, j] = inv[j, i] = cof * (-1) ** (i + j) / d
            self._inverse = _Array(self.chart, inv, (n, n))
        return self._inverse

    def derivatives(self) -> "_Array":
        """The derivative array of the metric, [i][j][k] = d_k g_ij."""
        if self._derivatives is None:
            self._derivatives = _partials(self)
        return self._derivatives

    def connection(self) -> "Connection":
        if self._connection is None:
            self._connection = Connection(self)
        return self._connection


class _SymBilinear(_Components):
    """Symmetric 2-tensor that need not be nondegenerate (e.g. L_X gamma)."""

    _kind = "symmetric 2-tensor"


# ---------------------------------------------------------------------------
# frames and constant fields


def frame(chart: ChartManifold) -> list[VectorField]:
    return [VectorField(chart, {(i,): 1}) for i in range(chart.dim)]


def coframe(chart: ChartManifold) -> list[OneForm]:
    return [OneForm(chart, {(i,): 1}) for i in range(chart.dim)]


def zero_vector(chart: ChartManifold) -> VectorField:
    return VectorField(chart, {})


def zero_oneform(chart: ChartManifold) -> OneForm:
    return OneForm(chart, {})


def zero_twoform(chart: ChartManifold) -> TwoForm:
    return TwoForm(chart, {})


def euclidean_metric(chart: ChartManifold) -> MetricField:
    return MetricField(chart, {(i, i): 1 for i in range(chart.dim)})


def tensor_oneform_vector(xi: OneForm, Z: VectorField) -> EndoTM:
    """xi (x) Z as an endomorphism: X -> xi(X) Z."""
    return EndoTM(xi.chart, contract("i,j->ij", Z, xi))


# ---------------------------------------------------------------------------
# exterior and Lie calculus


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y]^k = X^i d_i Y^k - Y^i d_i X^k."""
    chart = _same_chart(X, Y)
    return VectorField(
        chart, contract("ki,i->k", _partials(Y), X) - contract("ki,i->k", _partials(X), Y))


def ext_d(w: Union[ScalarExpr, OneForm, TwoForm]):
    """Exterior derivative in the Cartan convention; d o d = 0."""
    if isinstance(w, ScalarExpr):
        return OneForm(w.chart, _partials(w))
    if isinstance(w, OneForm):
        dw = _partials(w)  # dw[j][i] = d_i w_j
        return TwoForm(w.chart, contract("ji->ij", dw) - dw)
    if isinstance(w, TwoForm):
        dw = _partials(w)  # dw[j][k][i] = d_i w_jk
        return ThreeForm(w.chart, contract("jki->ijk", dw) - contract("ikj->ijk", dw) + dw)
    raise ExprError(f"ext_d is defined for scalars, 1-forms and 2-forms, not {type(w).__name__}")


def wedge(a: OneForm, b: OneForm) -> TwoForm:
    """(a ^ b)(X, Y) = a(X) b(Y) - a(Y) b(X)."""
    ab = contract("i,j->ij", a, b)
    return TwoForm(a.chart, ab - contract("ij->ji", ab))


def interior(X: VectorField, w: Union[OneForm, TwoForm, ThreeForm]):
    """i(X)w: contraction in the first slot."""
    chart = _same_chart(X, w)
    if isinstance(w, OneForm):
        return w(X)
    if isinstance(w, TwoForm):
        return OneForm(chart, contract("i,ij->j", X, w))
    if isinstance(w, ThreeForm):
        return TwoForm(chart, contract("i,ijk->jk", X, w))
    raise ExprError(f"interior product undefined for {type(w).__name__}")


def lie_derivative(X: VectorField, T):
    """L_X T for scalars, vectors, 1-/2-forms, endomorphisms and metrics."""
    if isinstance(T, ScalarExpr):
        return X.apply(T)
    chart = _same_chart(X, T)
    if isinstance(T, VectorField):
        return lie_bracket(X, T)
    dX, dT = _partials(X), T.derivatives() if isinstance(T, MetricField) else _partials(T)
    if isinstance(T, OneForm):
        # (L_X a)_j = X^i d_i a_j + a_i d_j X^i
        return OneForm(chart, contract("i,ji->j", X, dT) + contract("i,ij->j", T, dX))
    if isinstance(T, (TwoForm, MetricField)):
        # (L_X m)_jk = X^i d_i m_jk + m_ik d_j X^i + m_ji d_k X^i
        grid = (contract("i,jki->jk", X, dT) + contract("ik,ij->jk", T, dX)
                + contract("ji,ik->jk", T, dX))
        return TwoForm(chart, grid) if isinstance(T, TwoForm) else _SymBilinear(chart, grid)
    if isinstance(T, EndoTM):
        # (L_X F)^i_j = X^k d_k F^i_j - F^k_j d_k X^i + F^i_k d_j X^k
        return EndoTM(chart, contract("k,ijk->ij", X, dT) - contract("kj,ik->ij", T, dX)
                      + contract("ik,kj->ij", T, dX))
    raise ExprError(f"lie_derivative undefined for {type(T).__name__}")


# ---------------------------------------------------------------------------
# musical isomorphisms


def musical_flat(s, X: VectorField) -> OneForm:
    """(flat_s X)(Y) = s(X, Y) for a metric, 2-form or symmetric tensor s."""
    return OneForm(s.chart, contract("i,ij->j", X, s))


def musical_sharp(gamma: MetricField, a: OneForm) -> VectorField:
    """Inverse of flat_gamma."""
    chart = _same_chart(gamma, a)
    return VectorField(chart, contract("jk,k->j", gamma.inverse_matrix(), a))


# ---------------------------------------------------------------------------
# Levi-Civita connection


class Connection:
    """Levi-Civita connection of a metric; Christoffel symbols cached.

    Torsion-freeness and metric compatibility are *testable* identities, not
    assumptions; see the calculus test suite.
    """

    def __init__(self, gamma: MetricField):
        self.gamma = gamma
        self.chart = gamma.chart
        dg = gamma.derivatives()  # dg[i][j][k] = d_k g_ij
        # Gamma^k_ij = (1/2) g^kl (d_i g_jl + d_j g_il - d_l g_ij), for i <= j
        v = contract("jli->lij", dg) + contract("ilj->lij", dg) - contract("ijl->lij", dg)
        v = _core(self.chart, v.shape, v.field,
                  {ix: e for ix, e in v.entries.items() if ix[1] <= ix[2]})
        half = contract("kl,lij->kij", gamma.inverse_matrix(), v) * Fraction(1, 2)
        mirror = {(k, j, i): e for (k, i, j), e in half.entries.items()}
        self.christoffel = _core(self.chart, half.shape, half.field, {**mirror, **half.entries})

    def nabla(self, X: VectorField, T):
        """Covariant derivative of a vector field, 1-form, or endomorphism."""
        chart = _same_chart(self.gamma, X, T)
        G = self.christoffel
        if isinstance(T, VectorField):
            # X^i d_i Y^k + Gamma^k_ij X^i Y^j
            return VectorField(
                chart, contract("i,ki->k", X, _partials(T)) + contract("kij,i,j->k", G, X, T))
        if isinstance(T, OneForm):
            # X^i d_i a_j - Gamma^k_ij X^i a_k
            return OneForm(
                chart, contract("i,ji->j", X, _partials(T)) - contract("kij,i,k->j", G, X, T))
        if isinstance(T, EndoTM):
            return EndoTM(chart, contract("i,ilj->lj", X, self.nabla_frame(T)))
        raise ExprError(f"nabla undefined for {type(T).__name__}")

    def nabla_frame(self, F: EndoTM) -> _Array:
        """nabla_{d_i} F for every coordinate field, an array [i][l][j]:
        d_i F^l_j + Gamma^l_im F^m_j - Gamma^m_ij F^l_m."""
        G = self.christoffel
        return (contract("lji->ilj", _partials(F)) + contract("lim,mj->ilj", G, F)
                - contract("mij,lm->ilj", G, F))


# ---------------------------------------------------------------------------
# random fields for property and oracle tests


def random_vector_field(chart: ChartManifold, rng: random.Random, degree: int = 2) -> VectorField:
    from .symexpr import random_poly

    return VectorField(chart, [random_poly(chart, rng, degree) for _ in range(chart.dim)])


def random_oneform(chart: ChartManifold, rng: random.Random, degree: int = 2) -> OneForm:
    from .symexpr import random_poly

    return OneForm(chart, [random_poly(chart, rng, degree) for _ in range(chart.dim)])
