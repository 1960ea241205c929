"""The denominator caches of the field core.

``symexpr._reduced`` (the gcd reduction of a fraction with a non-constant
denominator), ``symexpr._poly_lcm`` (the lcm of two denominators) and
``calculus._den_product`` (the product of two non-constant denominators)
are bounded ``lru_cache``s.  Each holds the canonical value a fresh
computation returns, so arithmetic gives the same field elements whether
the caches are bypassed, cold or warm.  Equal polynomials of a Q field and
of a Q(i) field never share an entry, and atom-free data with constant
denominators never reaches them.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ggwb import calculus, poly, symexpr
from ggwb.calculus import ChartManifold, contract
from ggwb.poly import Poly, exquo, field
from ggwb.symexpr import random_poly
from ggwb.workbench import load_builtin, run_checks
from sympy_oracle import random_expr

CACHES = {
    "_reduced": (symexpr, symexpr._reduced),
    "_poly_lcm": (symexpr, symexpr._poly_lcm),
    "_den_product": (calculus, calculus._den_product),
}


def _clear():
    for _, cache in CACHES.values():
        cache.cache_clear()


def _hits() -> int:
    return sum(cache.cache_info().hits for _, cache in CACHES.values())


@pytest.fixture(scope="module")
def chart():
    return ChartManifold("cache3", ["x", "y", "z"])


def _scalar(chart, rng, kind):
    """Small random data: the gcd over Z[i] is the primitive PRS, which
    slows down sharply on larger Gaussian fractions (ROADMAP item 12)."""
    s = random_expr(chart, rng, max_depth=3 if kind == "atoms" else 2, atoms=kind == "atoms")
    if kind == "gaussian":
        s = s + chart.i * random_poly(chart, rng, degree=1)
    return s


def _results(chart, xs) -> list:
    """Sums, products and quotients of the scalars, by the field operations
    and by contractions (whose products of factors reach _den_product)."""
    a, b, c, d, e, f = xs
    out = [a + b, a - c, a * b, b * c + d, (a + b) * (c + d)]
    out += [] if (a + 2).is_syntactic_zero else [e + f / (a + 2)]
    out += [] if b.is_syntactic_zero else [a / b + c]
    out.append(contract("i,i->", [a, b, c], [d, e, f]))
    out.append(contract("i,i,i->", [a, c, e], [b, d, f], [a + d, b + e, c + f]))
    return out


def _same(xs, ys) -> bool:
    return all(x == y and (x.rf.numer, x.rf.denom) == (y.rf.numer, y.rf.denom)
               for x, y in zip(xs, ys))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       kind=st.sampled_from(["rational", "atoms", "gaussian"]))
@example(seed=87703, kind="rational")  # b = 0 and a + 2 != 0
def test_bypassed_cold_and_warm_caches_give_equal_results(chart, seed, kind):
    rng = random.Random(seed)
    xs = [_scalar(chart, rng, kind) for _ in range(6)]
    with pytest.MonkeyPatch.context() as mp:
        for name, (module, cache) in CACHES.items():
            mp.setattr(module, name, cache.__wrapped__)
        fresh = _results(chart, xs)
    _clear()
    cold = _results(chart, xs)
    hits = _hits()
    warm = _results(chart, xs)
    assert _same(fresh, cold) and _same(cold, warm)
    assert _hits() > hits or not any(cache.cache_info().currsize
                                     for _, cache in CACHES.values())


def test_q_and_qi_fields_never_share_an_entry():
    x, y = 1 << poly.W, 1
    a = Poly({2 * x: 1, 0: 1})  # x^2 + 1
    b = Poly({x: 1, y: 1})  # x + y
    num = poly.mul(a, b)
    K, Ki = field(("x", "y"), False), field(("x", "y"), True)
    _clear()
    for gaussian in (False, True):
        symexpr._poly_lcm(a, b, gaussian)
    for F in (K, Ki):
        assert symexpr._reduced(F, num, a).field is F
        calculus._den_product(F, a, b)
    for _, cache in CACHES.values():
        info = cache.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 2)


def _random_poly(rng, gaussian):
    p = Poly()
    for _ in range(rng.randint(1, 4)):
        m = sum(rng.randint(0, 2) << (poly.W * j) for j in range(3))
        c = rng.randint(-5, 5)
        if gaussian and rng.random() < 0.5:
            c = poly.gaussian(c, rng.randint(-3, 3))
        p = poly.add(p, Poly({m: c}) if c else Poly())
    return p or Poly({1: 1})


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), gaussian=st.booleans(),
       shape=st.sampled_from(["common", "divides", "divided", "coprime"]))
def test_lcm_is_a_common_multiple_of_least_degree(seed, gaussian, shape):
    rng = random.Random(seed)
    a, b, c = (_random_poly(rng, gaussian) for _ in range(3))
    if shape == "common":
        a, b = poly.mul(a, c), poly.mul(b, c)
    elif shape == "divides":
        b = poly.mul(a, b)
    elif shape == "divided":
        a = poly.mul(a, b)
    L = symexpr._lcm(a, b, gaussian)
    assert exquo(L, a) is not None and exquo(L, b) is not None
    # of least degree: a b / L is a common divisor that the gcd divides
    h = exquo(poly.mul(a, b), L)
    assert h is not None and exquo(a, h) is not None and exquo(b, h) is not None
    assert exquo(h, poly.gcd(a, b, gaussian)) is not None


def test_a_warm_s4_run_stays_within_every_cache_bound():
    """No entry is evicted in one S4 check (every miss is still held), and
    the check meets most denominators again."""
    s4 = load_builtin("S4")
    _clear()
    run_checks(s4)
    for name, (_, cache) in CACHES.items():
        info = cache.cache_info()
        assert 0 < info.currsize == info.misses < info.maxsize, name
        assert info.hits > 0, name
    run_checks(s4)  # warm
    for name, (_, cache) in CACHES.items():
        info = cache.cache_info()
        assert info.currsize == info.misses < info.maxsize, name


@pytest.mark.parametrize("name", ["S1", "S6b"])
def test_constant_denominators_never_reach_the_caches(name):
    """Atom-free polynomial data keeps its constant-denominator fast paths
    and pays no hashing."""
    scenario = load_builtin(name)
    _clear()
    run_checks(scenario)
    assert all(cache.cache_info().misses == 0 for _, cache in CACHES.values())
