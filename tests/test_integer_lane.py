"""The integer-polynomial lane of the tensor core against the general
fraction path.

Over Q and over Q(i) an integer polynomial over 1 is already the reduced
normal form, so ``calculus._field_sum``, ``symexpr._derivative``,
``symexpr._field_op`` and ``calculus._partials`` return it without a gcd
or a normalization.  Each property runs one of these kernels and the
general path on the same inputs, the general path by calling its helpers
directly (``calculus._product``, ``symexpr._sum_over``, ``_fraction``,
``_diff``, ``_canonical`` and ``_ring``, the scalars read back by
``calculus._Array``).  The inputs are integer polynomials, rational data
with non-constant denominators, atom data and Q(i) data, mixed with
integer polynomials.  The results must have equal numerators and
denominators and the same field object.
"""

import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggwb import calculus
from ggwb.calculus import ChartManifold, _Array, _field_sum, _partials, _product
from ggwb.errors import ExprError
from ggwb.poly import ONE, Frac, Poly, add, mul, neg
from ggwb.symexpr import (
    ScalarExpr,
    _canonical,
    _derivative,
    _diff,
    _embed,
    _field_op,
    _fraction,
    _join,
    _own_field,
    _ring,
    _sum_over,
    random_poly,
)
from sympy_oracle import random_expr

KINDS = ["integer", "rational", "atoms", "gaussian"]


@pytest.fixture(scope="module")
def chart():
    return ChartManifold("lane3", ["x", "y", "z"])


def _element(chart, rng, kind):
    """One scalar of the kind; every other one an integer polynomial."""
    if kind == "integer" or rng.random() < 0.5:
        return random_poly(chart, rng, degree=3)
    if kind == "rational":
        den = random_poly(chart, rng, degree=1)
        return random_poly(chart, rng) / (den if not den.is_syntactic_zero else chart.one)
    if kind == "atoms":
        return random_expr(chart, rng, max_depth=3, atoms=True)
    # small Q(i) data: the gcd over Z[i] is the primitive PRS (ROADMAP item 12)
    s = random_poly(chart, rng) + chart.i * random_poly(chart, rng, degree=1)
    return s / (chart.scalar("x + 2") if rng.random() < 0.3 else chart.one)


def _pool(chart, seed, kind, size=6):
    """Nonzero field elements of one field K, and K."""
    rng = random.Random(seed)
    rfs = [s.rf for s in (_element(chart, rng, kind) for _ in range(size)) if s.rf]
    rfs = rfs or [chart.one.rf]
    K = rfs[0].field
    for rf in rfs[1:]:
        K = _join(K, rf.field)
    return [_embed(rf, K) for rf in rfs], K, rng


def _same(got, want) -> bool:
    return (got.numer, got.denom) == (want.numer, want.denom) and got.field is want.field


def _general_sum(K, terms):
    """The fraction path: each product as a fraction, the numerators of one
    denominator added, each class reduced once by ``_sum_over``."""
    groups = {}
    for factors in terms:
        num, den = _product(factors)
        groups[den] = add(groups[den], num) if den in groups else num
    return _sum_over(K, groups) if groups else K.zero


def _general_op(op, a, b):
    """The fraction path of + - * on two elements of one field."""
    K = a.field
    if op is operator.mul:
        return _fraction(K, mul(a.numer, b.numer), mul(a.denom, b.denom))
    bn = b.numer if op is operator.add else neg(b.numer)
    if a.denom == b.denom:
        return _fraction(K, add(a.numer, bn), a.denom)
    return _sum_over(K, {a.denom: a.numer, b.denom: bn})


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), kind=st.sampled_from(KINDS))
def test_field_sum_is_the_fraction_sum(chart, seed, kind):
    elements, K, rng = _pool(chart, seed, kind)
    terms = [tuple(rng.choice(elements) for _ in range(rng.randint(1, 3)))
             for _ in range(rng.randint(1, 6))]
    if rng.random() < 0.3:  # a term and its negation cancel
        terms += [(-terms[0][0],) + terms[0][1:]]
    assert _same(_field_sum(K, terms), _general_sum(K, terms))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), kind=st.sampled_from(KINDS))
def test_field_op_is_the_fraction_op(chart, seed, kind):
    elements, K, rng = _pool(chart, seed, kind)
    for a in elements:
        b = rng.choice(elements)
        for op in (operator.add, operator.sub, operator.mul):
            assert _same(_field_op(op, a, b), _general_op(op, a, b))
        assert _same(_field_op(operator.sub, a, a), K.zero)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), kind=st.sampled_from(KINDS))
def test_derivative_is_the_quotient_rule(chart, seed, kind):
    elements, _, _ = _pool(chart, seed, kind)
    for e in elements:
        e = _own_field(e)
        for name in chart.coords:
            assert _same(_derivative(e, name), _canonical(_diff(e, name)))


def _reference_partials(t):
    """The scalar route: each entry a scalar, each derivative the quotient
    rule made a scalar, the array read back from the scalars."""
    scalar = isinstance(t, ScalarExpr)
    items, shape, chart = ({(): t} if scalar else t._items()), (() if scalar else t.shape), t.chart
    return _Array(chart, {ix + (k,): _ring(chart, _canonical(_diff(s.rf, c)))
                          for ix, s in items.items() if s.rf
                          for k, c in enumerate(chart.coords)}, shape + (chart.dim,))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), kind=st.sampled_from(KINDS),
       shape=st.sampled_from([(), (3,), (3, 3)]))
def test_partials_is_the_array_of_scalar_derivatives(chart, seed, kind, shape):
    elements, _, rng = _pool(chart, seed, kind)
    if shape:
        slots = [(i,) for i in range(3)] if len(shape) == 1 else [
            (i, j) for i in range(3) for j in range(3)]
        t = _Array(chart, {ix: _ring(chart, rng.choice(elements)) for ix in slots
                           if rng.random() < 0.7}, shape)
    else:
        t = _ring(chart, rng.choice(elements))
    got, want = _partials(t), _reference_partials(t)
    assert got.shape == want.shape and got.field is want.field
    assert got.entries.keys() == want.entries.keys()
    assert all(_same(got.entries[ix], want.entries[ix]) for ix in want.entries)


def test_integer_terms_that_cancel_give_the_fields_zero(chart):
    x, y, z = (chart.scalar(c).rf for c in ("x", "y", "z"))
    K = x.field
    assert x.denom == y.denom == z.denom == ONE
    terms = [(x, y), (y, z), (neg_x := -x, y), (-y, z)]
    assert _field_sum(K, terms) is K.zero
    assert _general_sum(K, terms) is K.zero
    assert _field_sum(K, [(x,), (neg_x,)]) is K.zero
    assert _field_op(operator.add, x, neg_x) is K.zero
    assert _derivative(y, "x") is K.zero


def test_the_lane_serves_the_integer_traffic(chart):
    """An integer sum, product and derivative keep the denominator 1 and
    the field; the lane's sum is the accumulated polynomial."""
    x, y = chart.scalar("x").rf, chart.scalar("y - 2").rf
    K = x.field
    s = _field_sum(K, [(x, y), (y, y, x), (x,)])
    assert s.denom == ONE and s.field is K
    assert s == (chart.scalar("x*(y-2) + (y-2)^2*x + x")).rf
    assert calculus.contract("i,i->", [chart.scalar("x"), chart.scalar("y - 2")],
                             [chart.scalar("y - 2"), chart.scalar("x")]).rf.denom == ONE


def test_an_exponent_past_the_packed_width_raises_in_a_sum(chart):
    """The accumulated sum is checked once, as ``mul`` checks a product."""
    x = chart.scalar("x").rf
    K = x.field
    big = Frac(K, Poly({20000 * m: 1 for m in x.numer}), ONE)
    with pytest.raises(ExprError, match="packed width"):
        _field_sum(K, [(big, big), (x, x)])
    assert _same(_field_sum(K, [(big, x), (x, big)]),
                 _field_op(operator.mul, big, _field_op(operator.add, x, x)))
