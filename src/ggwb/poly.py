"""Sparse polynomials over Z and Z[i], their gcd, and the fraction field
they live in: the arithmetic core under :class:`ggwb.symexpr.ScalarExpr`.

A polynomial is a :class:`Poly`, a dict from a packed monomial to a nonzero
coefficient.  In n generators the exponent of generator j sits in the
``W``-bit field at bit ``W*(n-1-j)``: the first generator has the high
bits, so int order is lex order, ``max(p)`` is the leading monomial, and a
product of monomials is the sum of their ints.  The top bit of every field
stays clear, so a sum of two exponents never carries into the neighbouring
field; a product whose exponent would exceed ``MAX_EXP`` raises
:class:`ExprError` instead of wrapping.  Evaluating the top generator leaves
the other generators where they are, in the low bits.

Coefficients are ints, or :class:`Gaussian` integers for data with ``I``.
A Gaussian with imaginary part 0 is never made (:func:`gaussian` returns
the real part), so a real coefficient is always an int, and the same
:class:`Gaussian` type carries exact values in Q(i).

gcd over Z is the heuristic GCD (Char, Geddes and Gonnet, *J. Symb. Comp.*
7, 1989), the algorithm of sympy's ``heugcd``: evaluate the top generator at
a large integer, take the gcd of the images, interpolate the gcd back from
its symmetric base-x digits, and accept it only when it divides both inputs
exactly.  When six evaluation points fail it gives up, and the primitive
polynomial remainder sequence (Brown, *J. ACM* 18, 1971) decides; that
sequence is also the one gcd over Z[i].  Square-free parts are Yun's
algorithm (Yun, SYMSAC 1976).

:class:`Field` is Q(x) or Q(i)(x) over a tuple of generator keys, interned;
a :class:`Frac` is a pair of polynomials of one field, kept reduced by the
callers in :mod:`ggwb.symexpr`.  The core holds no sympy object: generator
keys are opaque hashables (coordinate names and atom generators).
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_

from .errors import ExprError

W = 16  # bits per exponent field
FIELD = (1 << W) - 1
MAX_EXP = (1 << (W - 1)) - 1
_MAX_GENS = 256
_GUARD = sum(1 << (W * k + W - 1) for k in range(_MAX_GENS))  # every field's top bit


# ---------------------------------------------------------------------------
# coefficients


_RATIONALS = (int, Fraction)


class Gaussian:
    """x + y*i with y != 0: a Gaussian integer (a coefficient) or a Gaussian
    rational (an exact value).  Make one with :func:`gaussian`.  An operand
    that is not an int, a Fraction or a Gaussian gets ``NotImplemented``,
    so that its own reflected operator (a scalar's) decides."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x, self.y = x, y

    def __add__(a, b):
        if type(b) is Gaussian:
            return gaussian(a.x + b.x, a.y + b.y)
        if isinstance(b, _RATIONALS):
            return Gaussian(a.x + b, a.y)
        return NotImplemented

    __radd__ = __add__

    def __sub__(a, b):
        if type(b) is Gaussian:
            return gaussian(a.x - b.x, a.y - b.y)
        if isinstance(b, _RATIONALS):
            return Gaussian(a.x - b, a.y)
        return NotImplemented

    def __rsub__(a, b):
        if isinstance(b, _RATIONALS):
            return Gaussian(b - a.x, -a.y)
        return NotImplemented

    def __neg__(a):
        return Gaussian(-a.x, -a.y)

    def __mul__(a, b):
        if type(b) is Gaussian:
            return gaussian(a.x * b.x - a.y * b.y, a.x * b.y + a.y * b.x)
        if isinstance(b, _RATIONALS):
            return gaussian(a.x * b, a.y * b)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(a, b):
        if type(b) is Gaussian:
            n = b.x * b.x + b.y * b.y
            return gaussian(Fraction(a.x * b.x + a.y * b.y) / n, Fraction(a.y * b.x - a.x * b.y) / n)
        if isinstance(b, _RATIONALS):
            return gaussian(Fraction(a.x) / b, Fraction(a.y) / b)
        return NotImplemented

    def __rtruediv__(a, b):
        if isinstance(b, _RATIONALS):
            n = a.x * a.x + a.y * a.y
            return gaussian(Fraction(b * a.x) / n, Fraction(-b * a.y) / n)
        return NotImplemented

    def __bool__(self):
        return True

    def __eq__(a, b):
        return type(b) is Gaussian and a.x == b.x and a.y == b.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __complex__(self):
        return complex(float(self.x), float(self.y))

    @property
    def real(self):
        return self.x

    @property
    def imag(self):
        return self.y

    def conjugate(self):
        return Gaussian(self.x, -self.y)

    def __repr__(self):
        return f"({self.x}{'+' if self.y > 0 else '-'}{abs(self.y)}i)"


I = Gaussian(0, 1)


def gaussian(x, y):
    """x + y*i: a Gaussian, or x itself when y is 0."""
    return Gaussian(x, y) if y else x


def conj(c):
    return Gaussian(c.x, -c.y) if type(c) is Gaussian else c


def _parts(c) -> tuple:
    return (c.x, c.y) if type(c) is Gaussian else (c, 0)


def _cquo(a, b):
    """a / b for two coefficients when it is exact, else None."""
    if type(b) is not Gaussian:
        if type(a) is not Gaussian:
            q, r = divmod(a, b)
            return None if r else q
        (qx, rx), (qy, ry) = divmod(a.x, b), divmod(a.y, b)
        return None if rx or ry else Gaussian(qx, qy)
    ax, ay = _parts(a)
    n = b.x * b.x + b.y * b.y
    (qx, rx), (qy, ry) = divmod(ax * b.x + ay * b.y, n), divmod(ay * b.x - ax * b.y, n)
    return None if rx or ry else gaussian(qx, qy)


def _cgcd(a, b):
    """A gcd of two coefficients: ``math.gcd`` for ints, Euclid with the
    nearest Gaussian quotient otherwise."""
    if type(a) is not Gaussian and type(b) is not Gaussian:
        return math.gcd(a, b)
    while b:
        (ax, ay), (bx, by) = _parts(a), _parts(b)
        n = bx * bx + by * by
        qx = (2 * (ax * bx + ay * by) + n) // (2 * n)
        qy = (2 * (ay * bx - ax * by) + n) // (2 * n)
        a, b = b, a - gaussian(qx, qy) * b
    return a


def content(p):
    """The gcd of the coefficients: a positive int over Z."""
    try:
        return math.gcd(*p.values())
    except TypeError:  # a Gaussian coefficient
        return reduce(_cgcd, p.values())


# ---------------------------------------------------------------------------
# polynomials


class Poly(dict):
    """A sparse polynomial: packed monomial -> nonzero coefficient.  It is
    not changed once built, so it hashes by its items, computed on the
    first ``hash`` and kept: a builder that changes a Poly in place
    (:func:`add_mul`, :func:`prune`, ``_mul``, ``exquo``) does so before
    the Poly is ever hashed."""

    __slots__ = ("_hash",)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash(frozenset(self.items()))
            return h

    @property
    def LC(self):
        """The leading coefficient in lex order (0 for the zero polynomial)."""
        return self[max(self)] if self else 0

    @property
    def is_ground(self) -> bool:
        return not self or (len(self) == 1 and 0 in self)


ONE = Poly({0: 1})
ZERO = Poly()


def ground(c) -> Poly:
    return Poly({0: c}) if c else Poly()


def exponents(m: int, n: int) -> list:
    return [(m >> (W * (n - 1 - j))) & FIELD for j in range(n)]


@lru_cache(maxsize=None)
def _guard(k: int) -> int:
    return _GUARD & ((1 << (W * k)) - 1)


def _fields(m: int) -> int:
    """The number of low fields that hold every nonzero exponent of m."""
    return (m.bit_length() + W - 1) // W


def _overflowed(p) -> Poly:
    if reduce(or_, p, 0) & _GUARD:
        raise ExprError(f"an exponent exceeds {MAX_EXP}, the packed width")
    return p


def add(p, q) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    out = Poly(p)
    for m, c in q.items():
        v = out.get(m)
        if v is None:
            out[m] = c
        else:
            v += c
            if v:
                out[m] = v
            else:
                del out[m]
    return out


def sub(p, q) -> Poly:
    out = Poly(p)
    for m, c in q.items():
        v = out.get(m)
        if v is None:
            out[m] = -c
        else:
            v -= c
            if v:
                out[m] = v
            else:
                del out[m]
    return out


def neg(p) -> Poly:
    return Poly({m: -c for m, c in p.items()})


def mul_ground(p, c) -> Poly:
    if c == 1:
        return p
    return Poly({m: v * c for m, v in p.items()})


def quo_ground(p, c) -> Poly:
    """p / c for a coefficient c that divides every coefficient of p."""
    if c == 1:
        return p
    if type(c) is int:
        try:
            return Poly({m: v // c for m, v in p.items()})
        except TypeError:  # a Gaussian coefficient
            pass
    return Poly({m: _cquo(v, c) for m, v in p.items()})


def mul(p, q) -> Poly:
    """p * q.  Every field of the operands is below its top bit, so the sum
    of their spans (the OR of their monomials) bounds every exponent of the
    product: when it keeps the top bits clear no exponent can overflow, and
    otherwise the product's own monomials are checked."""
    if not p or not q:
        return Poly()
    if (reduce(or_, p) + reduce(or_, q)) & _GUARD:
        return _overflowed(_mul(p, q))
    return _mul(p, q)


def _mul(p, q) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    if len(q) == 1:
        (m2, c2), = q.items()
        if c2 == 1:
            return Poly({m + m2: c for m, c in p.items()})
        return Poly({m + m2: c * c2 for m, c in p.items()})
    out = Poly()
    get = out.get
    qi = list(q.items())
    for m1, c1 in p.items():
        for m2, c2 in qi:
            m = m1 + m2
            c = get(m)
            out[m] = c1 * c2 if c is None else c + c1 * c2
    for m in [m for m, c in out.items() if not c]:
        del out[m]
    return out


def add_mul(out: Poly, p, q) -> None:
    """out += p * q, in place: the multiply-accumulate step of a sum of
    products.  ``out`` is a sum still being built, not yet shared; it may
    keep zero coefficients, and exponents past ``MAX_EXP``, until
    :func:`prune`.  (Two exponents below the top bit of their field add up
    without a carry into the next one, so a monomial is exact until then.)"""
    if len(p) < len(q):
        p, q = q, p
    get = out.get
    for m2, c2 in q.items():
        for m1, c1 in p.items():
            m = m1 + m2
            c = get(m)
            out[m] = c1 * c2 if c is None else c + c1 * c2


def prune(out: Poly) -> Poly:
    """``out``, a sum of :func:`add_mul` done, without its zero
    coefficients; an exponent past ``MAX_EXP`` raises, as in :func:`mul`."""
    for m in [m for m, c in out.items() if not c]:
        del out[m]
    return _overflowed(out)


def power(p, n: int) -> Poly:
    """p ** n for n >= 0, by repeated squaring; an exponent of the result
    above MAX_EXP raises before any product is formed."""
    if n > 1 and p and max(max(exponents(m, _fields(m))) if m else 0 for m in p) * n > MAX_EXP:
        raise ExprError(f"an exponent exceeds {MAX_EXP}, the packed width")
    result, base = ONE, p
    while True:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if not n:
            return result
        base = mul(base, base)


def exquo(f, g):
    """f / g when g divides f exactly, else None.

    Division by leading terms in lex order, the remainder's terms kept in a
    max-heap: the first leading term that g's leading term does not divide
    (a field of its monomial below g's, or a coefficient that does not
    divide) proves that g does not divide f.  Every monomial formed is
    bounded fieldwise by the spans of f and g, like a product's."""
    if not f:
        return Poly()
    top = max(f)
    lg = max(g)
    if lg > top:
        return None
    if (reduce(or_, f) + reduce(or_, g)) & _GUARD:
        raise ExprError(f"an exponent exceeds {MAX_EXP}, the packed width")
    G = _guard(_fields(top))
    cg = g[lg]
    ints = type(cg) is int
    if len(g) == 1:
        out = Poly()
        for m, c in f.items():
            if ((m + G) - lg) & G != G:
                return None
            q = _cquo(c, cg)
            if q is None:
                return None
            out[m - lg] = q
        return out
    rest = [(m, c) for m, c in g.items() if m != lg]
    r = dict(f)
    heap = [-m for m in r]
    heapq.heapify(heap)
    out = Poly()
    while heap:
        m = -heapq.heappop(heap)
        c = r.pop(m, None)
        if not c:
            continue
        if m < lg or ((m + G) - lg) & G != G:
            return None
        if ints and type(c) is int:
            qc, rem = divmod(c, cg)
            if rem:
                return None
        else:
            qc = _cquo(c, cg)
            if qc is None:
                return None
        d = m - lg
        out[d] = qc
        for m2, c2 in rest:
            mm = d + m2
            v = r.get(mm)
            if v is None:
                r[mm] = -qc * c2
                heapq.heappush(heap, -mm)
            else:
                v -= qc * c2
                if v:
                    r[mm] = v
                else:
                    del r[mm]
    return out


def _exact(f, g) -> Poly:
    q = exquo(f, g)
    if q is None:
        raise ArithmeticError("a gcd that does not divide its input")
    return q


def diff_at(p, s: int) -> Poly:
    """d p / d x for the generator x whose exponent sits at shift s."""
    one = 1 << s
    out = Poly()
    for m, c in p.items():
        e = (m >> s) & FIELD
        if e:
            out[m - one] = c * e
    return out


def repack(p, moves: tuple) -> Poly:
    """p with the exponent at shift ``a`` moved to shift ``b`` for each
    (a, b) in ``moves``; exponents at other shifts are dropped."""
    out = Poly()
    for m, c in p.items():
        new = 0
        for a, b in moves:
            new |= ((m >> a) & FIELD) << b
        out[new] = c
    return out


def _min_monomial(a: int, b: int) -> int:
    """The fieldwise minimum of two packed monomials."""
    out = 0
    for k in range(max(_fields(a), _fields(b))):
        s = W * k
        out |= min((a >> s) & FIELD, (b >> s) & FIELD) << s
    return out


# ---------------------------------------------------------------------------
# gcd


class HeuristicGCDFailed(ArithmeticError):
    """The heuristic GCD found no evaluation point that works."""


_HEU_GCD_MAX = 6


def cofactors(f, g, gaussian: bool = False) -> tuple:
    """(h, f/h, g/h) for a gcd h of two nonzero polynomials, with their
    integer (or Gaussian) content.  A lone term takes its fieldwise minimum
    with the other operand's monomials; otherwise the heuristic GCD runs
    over Z, and the primitive PRS when it gives up and over Z[i]."""
    if len(f) == 1 or len(g) == 1:
        (m, c), other = (next(iter(f.items())), g) if len(f) == 1 else (next(iter(g.items())), f)
        for m2 in other:
            m = _min_monomial(m, m2)
            if not m:
                break
        h = Poly({m: _cgcd(c, content(other))})
        return h, _exact(f, h), _exact(g, h)
    if not gaussian:
        try:
            return heugcd(f, g)
        except HeuristicGCDFailed:
            pass
    h = prs_gcd(f, g)
    return h, _exact(f, h), _exact(g, h)


def gcd(f, g, gaussian: bool = False) -> Poly:
    return cofactors(f, g, gaussian)[0]


def heugcd(f, g) -> tuple:
    """(h, f/h, g/h) over Z by the heuristic GCD, or HeuristicGCDFailed.
    Each level takes out the gcd of the integer contents first, and then
    works on the highest generator that occurs; the images are the inputs
    of the next level."""
    c = math.gcd(content(f), content(g))
    if c != 1:
        f, g = quo_ground(f, c), quo_ground(g, c)
    k = _fields(reduce(or_, f) | reduce(or_, g))
    if k == 0:
        return Poly({0: c}), f, g
    h, cff, cfg = _heu(f, g, W * (k - 1))
    return mul_ground(h, c), cff, cfg


def _heu(f, g, s: int) -> tuple:
    f_norm = max(map(abs, f.values()))
    g_norm = max(map(abs, g.values()))
    B = 2 * min(f_norm, g_norm) + 29
    x = max(min(B, 99 * math.isqrt(B)),
            2 * min(f_norm // abs(f.LC), g_norm // abs(g.LC)) + 4)
    for _ in range(_HEU_GCD_MAX):
        ff, gg = _eval_top(f, s, x), _eval_top(g, s, x)
        if ff and gg:
            h, cff, cfg = heugcd(ff, gg)
            h = _interpolate(h, x, s)
            h = quo_ground(h, content(h))
            cff_ = exquo(f, h)
            if cff_ is not None:
                cfg_ = exquo(g, h)
                if cfg_ is not None:
                    return h, cff_, cfg_
            cff = _interpolate(cff, x, s)
            h = exquo(f, cff)
            if h is not None:
                cfg_ = exquo(g, h)
                if cfg_ is not None:
                    return h, cff, cfg_
            cfg = _interpolate(cfg, x, s)
            h = exquo(g, cfg)
            if h is not None:
                cff_ = exquo(f, h)
                if cff_ is not None:
                    return h, cff_, cfg
        x = 73794 * x * math.isqrt(math.isqrt(x)) // 27011
    raise HeuristicGCDFailed("no evaluation point gave the gcd")


def _eval_top(f, s: int, x: int) -> Poly:
    """f with the generator at shift s (the highest one of f) set to x."""
    out = {}
    low = (1 << s) - 1
    pows = {0: 1}
    for m, c in f.items():
        e = m >> s
        p = pows.get(e)
        if p is None:
            p = pows[e] = x ** e
        rest = m & low
        out[rest] = out.get(rest, 0) + c * p
    return Poly({m: c for m, c in out.items() if c})


def _interpolate(h, x: int, s: int) -> Poly:
    """The polynomial whose coefficients of the generator at shift s are
    the symmetric base-x digits of h, with a positive leading coefficient."""
    out = Poly()
    half = x // 2
    i = 0
    while h:
        if i > MAX_EXP:
            raise HeuristicGCDFailed("an interpolated degree beyond the packed width")
        nxt = {}
        for m, c in h.items():
            d = c % x
            if d > half:
                d -= x
            if d:
                out[(i << s) | m] = d
            r = (c - d) // x
            if r:
                nxt[m] = r
        h = nxt
        i += 1
    return neg(out) if out.LC < 0 else out


def prs_gcd(f, g) -> Poly:
    """A gcd of two nonzero polynomials over Z or Z[i] by the primitive PRS
    in the top generator: the gcd of the contents (a recursion on the lower
    generators) times the last nonzero primitive pseudo-remainder."""
    k = _fields(reduce(or_, f) | reduce(or_, g))
    if k == 0:
        return Poly({0: _cgcd(f[0], g[0])})
    s = W * (k - 1)
    F, G = _coeffs(f, s), _coeffs(g, s)
    cf, F = _primitive(F)
    cg, G = _primitive(G)
    c = prs_gcd(cf, cg)
    if max(F) < max(G):
        F, G = G, F
    while G and max(G) > 0:
        R = _prem(F, G)
        F, G = G, (_primitive(R)[1] if R else {})
    # a nonzero G of degree 0 is a unit once primitive: F and G are coprime
    return mul(c, _uncoeffs(F, s)) if not G else c


def _coeffs(f, s: int) -> dict:
    """f as {degree in the generator at shift s: coefficient polynomial}."""
    low = (1 << s) - 1
    out = {}
    for m, c in f.items():
        out.setdefault(m >> s, Poly())[m & low] = c
    return out


def _uncoeffs(F: dict, s: int) -> Poly:
    out = Poly()
    for d, p in F.items():
        for m, c in p.items():
            out[(d << s) | m] = c
    return out


def _primitive(F: dict) -> tuple:
    """(content, primitive part) of a polynomial given by its coefficients
    in one generator; the content is the gcd of the coefficients."""
    polys = sorted(F.values(), key=len)
    c = polys[0]
    for p in polys[1:]:
        if len(c) == 1 and 0 in c and c[0] in (1, -1):
            break
        c = prs_gcd(c, p)
    if len(c) == 1 and 0 in c and c[0] == 1:
        return c, F
    return c, {d: _exact(p, c) for d, p in F.items()}


def _prem(F: dict, G: dict) -> dict:
    """A pseudo-remainder of F by G (dicts degree -> coefficient), up to a
    constant factor, which the primitive part removes."""
    dg = max(G)
    lg = G[dg]
    R = dict(F)
    while R:
        dr = max(R)
        if dr < dg:
            break
        lr = R.pop(dr)
        R = {d: mul(c, lg) for d, c in R.items()}
        for d, c in G.items():
            if d == dg:
                continue
            e = d + dr - dg
            t = mul(lr, c)
            v = R.get(e)
            v = neg(t) if v is None else sub(v, t)
            if v:
                R[e] = v
            else:
                R.pop(e, None)
    return R


# ---------------------------------------------------------------------------
# square-free decomposition


def sqf_list(f) -> tuple:
    """(c, [(factor, multiplicity), ...]) with f = c * prod factor**k over
    Z: c the content with the sign of the leading coefficient, the factors
    square-free, pairwise coprime, of positive degree and with positive
    leading coefficients, by increasing multiplicity (Yun)."""
    c = content(f)
    if f.LC < 0:
        c = -c
    return c, [(p, k) for k, p in sorted(_sqf(quo_ground(f, c)).items())]


def _sqf(f) -> dict:
    """multiplicity -> factor for a primitive f with positive leading
    coefficient: Yun's algorithm in the top generator, and the recursion on
    the content in it."""
    k = _fields(reduce(or_, f, 0))
    if k == 0:
        return {}
    s = W * (k - 1)
    cont, F = _primitive(_coeffs(f, s))
    if cont.LC < 0:
        cont = neg(cont)
    f = _uncoeffs(F, s) if cont != ONE else f
    if f.LC < 0:
        f = neg(f)
    result = {}
    _, p, q = cofactors(f, diff_at(f, s))
    i = 1
    while True:
        h = sub(q, diff_at(p, s))
        if not h:
            result[i] = p
            break
        g, p, q = cofactors(p, h)
        if not g.is_ground:
            result[i] = g
        i += 1
    for i, p in _sqf(cont).items():
        result[i] = mul(result[i], p) if i in result else p
    return {i: neg(p) if p.LC < 0 else p for i, p in result.items()}


# ---------------------------------------------------------------------------
# the fraction field


class Field:
    """Q(x) (or Q(i)(x) when ``gaussian``) over the generator keys
    ``symbols``, first key in the high bits.  Interned by :func:`field`, so
    two fields are equal only when they are the same object."""

    __slots__ = ("symbols", "gaussian", "n", "zero", "one", "index", "shifts")

    def __init__(self, symbols: tuple, gaussian: bool):
        if len(symbols) > _MAX_GENS:
            raise ExprError(f"a field of more than {_MAX_GENS} generators")
        self.symbols, self.gaussian, self.n = symbols, gaussian, len(symbols)
        self.zero = Frac(self, ZERO, ONE)
        self.one = Frac(self, ONE, ONE)
        self.index = {s: j for j, s in enumerate(symbols)}
        self.shifts = tuple(W * (self.n - 1 - j) for j in range(self.n))

    def gen(self, j: int) -> "Frac":
        return Frac(self, Poly({1 << self.shifts[j]: 1}), ONE)

    def __repr__(self):
        return f"Field({', '.join(map(str, self.symbols))}{'; i' if self.gaussian else ''})"


@lru_cache(maxsize=None)
def field(symbols: tuple, gaussian: bool = False) -> Field:
    return Field(symbols, gaussian)


class Frac:
    """numer / denom, two polynomials of ``field``, in the reduced form
    that :func:`ggwb.symexpr._fraction` makes."""

    __slots__ = ("field", "numer", "denom", "_hash")

    def __init__(self, K: Field, numer: Poly, denom: Poly):
        self.field, self.numer, self.denom, self._hash = K, numer, denom, None

    def __bool__(self):
        return bool(self.numer)

    def __neg__(self):
        return Frac(self.field, neg(self.numer), self.denom)

    def __eq__(self, other):
        return self is other or (
            type(other) is Frac and self.field is other.field
            and self.numer == other.numer and self.denom == other.denom)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((frozenset(self.numer.items()), frozenset(self.denom.items())))
        return self._hash

    def __repr__(self):
        return f"Frac({dict(self.numer)} / {dict(self.denom)} in {self.field})"
