"""The integer polynomial core under ScalarExpr, against sympy's ring.

``ggwb.poly`` keeps polynomials as dicts from packed-exponent ints to int
(or Gaussian integer) coefficients, and ``symexpr`` keeps a field element
as a reduced pair of them.  sympy's ``FracField`` and ``PolyElement`` are
the oracle here, in tests only:

* ``+ - * /`` of random scalars (with and without atoms, over Q and Q(i))
  agree with sympy's field arithmetic: over Q the reduced pair is sympy's
  own, over Q(i) the value is, and the Q(i) pair is in the normal form of
  ``symexpr._fraction``; ``pdiff`` agrees with the quotient rule in
  sympy's ring (atom derivatives are pinned against ``sympy.diff`` in
  ``tests/test_pdiff.py``);
* the heuristic GCD and the primitive PRS, each called directly, give a
  divisor of both inputs whose cofactors multiply back, equal to sympy's
  gcd up to a unit; when the heuristic gives up, ``cofactors`` takes the PRS;
* Yun's square-free decomposition agrees with sympy's ``sqf_list``;
* an exponent past the packed width raises instead of wrapping into the
  neighbouring generator.
"""

import math
import operator
import random

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ, QQ_I, ZZ, ZZ_I
from sympy.polys.fields import FracField
from sympy.polys.orderings import lex
from sympy.polys.rings import ring

from ggwb import poly, symexpr
from ggwb.calculus import ChartManifold
from ggwb.errors import ExprError
from ggwb.poly import Gaussian, Poly
from ggwb.symexpr import pdiff
from sympy_oracle import random_tree, symbols, to_scalar

OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


@pytest.fixture(scope="module")
def chart():
    return ChartManifold("core3", ["x", "y", "z"])


# -- the oracle: an element of sympy's FracField over the same generators ------

_DUMMIES = {}


def _symbol(key):
    if isinstance(key, str):
        return sp.Symbol(key)
    return _DUMMIES.setdefault(key, sp.Dummy("g"))


def _oracle_field(K) -> FracField:
    return FracField([_symbol(k) for k in K.symbols], QQ_I if K.gaussian else QQ, lex)


def _coefficient(c, F):
    return QQ_I(c.x, c.y) if type(c) is Gaussian else F.domain.convert(c)


def _to_oracle(rf, F):
    """rf as an element of F, whose generators include rf's, unreduced."""
    where = [F.symbols.index(_symbol(k)) for k in rf.field.symbols]

    def convert(p):
        terms = {}
        for m, c in p.items():
            e = [0] * len(F.symbols)
            for j, x in zip(where, poly.exponents(m, rf.field.n)):
                e[j] = x
            terms[tuple(e)] = _coefficient(c, F)
        return F.ring.from_dict(terms)

    return F.raw_new(convert(rf.numer), convert(rf.denom))


def _tree(chart, rng, kind):
    tree = random_tree(chart, rng, max_depth=3, atoms=kind == "atoms")
    if kind == "gaussian":
        tree = tree + sp.I * random_tree(chart, rng, max_depth=2, atoms=False)
    return tree


def _gaussian_normal(rf) -> bool:
    """The Q(i) normal form: the denominator's leading coefficient is a
    positive integer and the real and imaginary parts have gcd 1."""
    lc = rf.denom.LC
    parts = [x for p in (rf.numer, rf.denom) for c in p.values()
             for x in ((c.x, c.y) if type(c) is Gaussian else (c,))]
    return type(lc) is int and lc > 0 and math.gcd(*parts) == 1


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       kind=st.sampled_from(["rational", "atoms", "gaussian"]))
@example(seed=1304, kind="rational")
@example(seed=190, kind="gaussian")  # 1/6 + 3i/2, a constant Q(i) denominator
@example(seed=577, kind="gaussian")  # z/x - 7/2 - i/2 over 2x or over (1 + i)x
@example(seed=2900, kind="atoms")
def test_field_operations_agree_with_sympys_field(chart, seed, kind):
    rng = random.Random(seed)
    a, b = (to_scalar(_tree(chart, rng, kind), chart) for _ in range(2))
    union = symexpr._join(a.rf.field, b.rf.field)
    F = _oracle_field(union)
    A, B = _to_oracle(a.rf, F), _to_oracle(b.rf, F)
    for op in OPS:
        if op is operator.truediv and not b.rf:
            continue
        got, want = op(a, b), op(A, B)
        G = _to_oracle(got.rf, F)
        if union.gaussian:
            assert G.numer * want.denom == want.numer * G.denom
            assert not got.rf.field.gaussian or _gaussian_normal(got.rf)
        else:
            assert (G.numer, G.denom) == (want.numer, want.denom)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), gaussian=st.booleans())
@example(seed=190, gaussian=True)
@example(seed=577, gaussian=True)
def test_pdiff_is_the_quotient_rule_of_sympys_ring(chart, seed, gaussian):
    rng = random.Random(seed)
    s = to_scalar(_tree(chart, rng, "gaussian" if gaussian else "rational"), chart)
    F = _oracle_field(s.rf.field)
    S = _to_oracle(s.rf, F)
    for sym in symbols(chart):
        x = F.ring.gens[F.symbols.index(sym)]
        n, d = S.numer, S.denom
        want = F.new(n.diff(x) * d - n * d.diff(x), d * d)
        got = pdiff(s, sym.name)
        if got.rf.field is not s.rf.field:  # a zero, or a real derivative of Q(i) data
            got_rf = symexpr._embed(got.rf, symexpr._join(got.rf.field, s.rf.field))
        else:
            got_rf = got.rf
        G = _to_oracle(got_rf, F) if got.rf else F.zero
        if s.rf.field.gaussian:
            assert G.numer * want.denom == want.numer * G.denom
        else:
            assert (G.numer, G.denom) == (want.numer, want.denom)


# -- gcd ------------------------------------------------------------------------

R = ring("x,y,z", ZZ)[0]
RI = ring("x,y,z", ZZ_I)[0]


def _poly(p) -> Poly:
    """A sympy ring element over ZZ or ZZ_I as a core polynomial in 3
    generators."""
    out = Poly()
    for m, c in p.items():
        key = sum(e << (poly.W * (2 - j)) for j, e in enumerate(m))
        out[key] = poly.gaussian(int(c.x), int(c.y)) if hasattr(c, "x") else int(c)
    return out


def _random(rng, ring_, terms=4, degree=3):
    gens, dom = ring_.gens, ring_.domain
    p = ring_.zero
    for _ in range(terms):
        c = dom(rng.randint(-9, 9)) if dom == ZZ else dom(rng.randint(-9, 9), rng.randint(-3, 3))
        term = ring_(c)
        for g in gens:
            term *= g ** rng.randint(0, degree)
        p += term
    return p


def _equal_up_to_unit(h: Poly, want, gaussian: bool) -> bool:
    units = (1, -1, Gaussian(0, 1), Gaussian(0, -1)) if gaussian else (1, -1)
    return any(poly.mul_ground(_poly(want), u) == h for u in units)


def _gcd_inputs(seed, gaussian):
    """f = a c and g = b c for random a, b, c; smaller over Z[i], where the
    primitive PRS (and sympy's gcd too) slows down with the Gaussian
    contents its remainders collect."""
    rng = random.Random(seed)
    ring_ = RI if gaussian else R
    size = (3, 2) if gaussian else (4, 3)
    a, b, c = _random(rng, ring_, *size), _random(rng, ring_, *size), _random(rng, ring_, 3, 2)
    if not (a and b and c):
        c = c or ring_.one
        a, b = a or ring_.gens[0], b or ring_.gens[1]
    return a * c, b * c


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_heuristic_gcd_divides_and_agrees_with_sympy(seed):
    f, g = _gcd_inputs(seed, False)
    h, cff, cfg = poly.heugcd(_poly(f), _poly(g))
    assert poly.mul(h, cff) == _poly(f) and poly.mul(h, cfg) == _poly(g)
    assert _equal_up_to_unit(h, f.gcd(g), False)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), gaussian=st.booleans())
def test_prs_gcd_divides_and_agrees_with_sympy(seed, gaussian):
    f, g = _gcd_inputs(seed, gaussian)
    h = poly.prs_gcd(_poly(f), _poly(g))
    cff, cfg = poly.exquo(_poly(f), h), poly.exquo(_poly(g), h)
    assert cff is not None and cfg is not None
    assert poly.mul(h, cff) == _poly(f) and poly.mul(h, cfg) == _poly(g)
    assert _equal_up_to_unit(h, f.gcd(g), gaussian)


def test_an_unlucky_evaluation_point_is_rejected_by_division():
    """gcd(x, x + 62): the first point is 31, where the images 31 and 93
    have the common factor 31, which interpolates to x.  x does not divide
    x + 62, so the candidate is rejected and the gcd is 1."""
    x = Poly({1 << (2 * poly.W): 1})
    h, cff, cfg = poly.heugcd(x, poly.add(x, Poly({0: 62})))
    assert h == poly.ONE and cff == x


def test_cofactors_fall_back_to_the_prs_when_the_heuristic_gives_up(monkeypatch):
    f, g = _gcd_inputs(11, False)
    want = f.gcd(g)
    assert not want.is_ground

    def give_up(*args):
        raise poly.HeuristicGCDFailed("no luck")

    monkeypatch.setattr(poly, "heugcd", give_up)
    h, cff, cfg = poly.cofactors(_poly(f), _poly(g))
    assert _equal_up_to_unit(h, want, False)
    assert poly.mul(h, cff) == _poly(f) and poly.mul(h, cfg) == _poly(g)


# -- square-free parts ---------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_yun_agrees_with_sympys_sqf_list(seed):
    rng = random.Random(seed)
    a, b, d = (_random(rng, R, 3, 2) or R.one for _ in range(3))
    f = R(rng.choice([-6, -1, 1, 4, 12])) * a * b**2 * d**3
    c, factors = poly.sqf_list(_poly(f))
    product = poly.ground(c)
    for p, k in factors:
        assert p.LC > 0 and not p.is_ground
        product = poly.mul(product, poly.power(p, k))
    assert product == _poly(f)
    c_want, want = f.sqf_list()
    norm = lambda p: p if p.LC > 0 else -p  # noqa: E731
    assert sorted((k, sorted(p.items())) for p, k in factors) == sorted(
        (k, sorted(_poly(norm(p)).items())) for p, k in want)
    assert abs(c) == abs(int(c_want))


# -- the cached hash ---------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), gaussian=st.booleans())
def test_the_cached_hash_is_the_hash_of_the_items(seed, gaussian):
    """A Poly keeps its hash from the first ``hash``; the builders that
    change a Poly in place (add_mul, prune, _mul, exquo, _interpolate,
    _coeffs) are done before it, so the kept hash is that of a fresh Poly
    of the same items."""
    rng = random.Random(seed)
    ring_ = RI if gaussian else R
    a, b, c = (_poly(_random(rng, ring_, 3, 2)) for _ in range(3))
    ab = poly.mul(a, b)
    acc = Poly()
    poly.add_mul(acc, a, b)
    poly.add_mul(acc, a, c)
    built = [a, ab, poly.exquo(ab, a) if a else b, poly.prune(acc), poly.power(c, 3),
             *poly.cofactors(poly.mul(a, c), poly.mul(b, c), gaussian)]
    for p in built:
        first = hash(p)
        assert hash(p) == first == hash(Poly(dict(p))) == hash(frozenset(p.items()))
    assert hash(poly.prune(acc)) == hash(poly.add(ab, poly.mul(a, c)))


# -- the packed width ------------------------------------------------------------------


def test_an_exponent_past_the_packed_width_raises():
    """y is the low field of Q(x, y): y^32767 * y would set the field's
    guard bit, and a wrap would read as a power of x.  Both the product and
    the power raise instead."""
    y = Poly({1: 1})
    top = poly.power(y, poly.MAX_EXP)
    assert top == Poly({poly.MAX_EXP: 1})
    with pytest.raises(ExprError, match="packed width"):
        poly.mul(top, y)
    with pytest.raises(ExprError, match="packed width"):
        poly.mul(poly.power(y, 2**14), poly.power(y, 2**14))
    with pytest.raises(ExprError, match="packed width"):
        poly.power(poly.add(y, poly.ONE), poly.MAX_EXP + 1)
    line = ChartManifold("line2", ["x", "y"])
    with pytest.raises(ExprError, match="packed width"):
        line.scalar("y") ** (poly.MAX_EXP + 1)
    assert (line.scalar("y") ** poly.MAX_EXP).rf.numer == Poly({poly.MAX_EXP: 1})
