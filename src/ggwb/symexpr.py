"""Exact symbolic scalar fields on a coordinate chart.

A :class:`ScalarExpr` has one representation: ``rf``, an element of the
rational function field over Q (over Q(i) only when ``I`` occurs) whose
generators are the chart coordinates and one generator per transcendental
atom: ``E_m = exp(m)``, or ``T_m = tan(m/2)`` with
``sin(m) = 2 T_m / (1 + T_m^2)`` and ``cos(m) = (1 - T_m^2) / (1 + T_m^2)``;
the circle is rational, so ``sin^2 + cos^2 = 1`` holds in the field.

The arithmetic is that of :mod:`ggwb.poly`.  A field element is a pair
(numerator, denominator) of sparse polynomials with integer coefficients
(Gaussian integers over Q(i)), each a dict from a packed-exponent int to its
coefficient, with the first generator in the high bits so that int order
is lex order.  Coordinates come first, in sympy's generator order of their
names, then the atom generators in one global order.  The normal form, read
by ``==``, ``hash`` and the zero test:

* over Q, numerator and denominator have no common factor in Z[x] (their
  integer contents are coprime too), and the denominator's leading
  coefficient is positive: the form of :func:`sympy.cancel`;
* over Q(i), the denominator's leading coefficient is a positive integer L,
  the least one for which both polynomials have Gaussian integer
  coefficients after the denominator is made monic.

A product or quotient is reduced by one gcd of the new numerator and
denominator, a sum over the least common denominator by one gcd of the new
numerator; a constant denominator needs no gcd, only the constant
normalization (:func:`_scaled`), and the sum, difference, product and
derivative of integer polynomials (denominator 1) are polynomials over 1,
in normal form with neither.  The gcd over Z is the heuristic GCD, with
the primitive PRS when it gives up; over Q(i) it is the primitive PRS.

An atom's argument is split into its constant and its additive terms
``q*m``.  A term with an integer ``q`` is the ``q``-th multiple of the
generator of ``m`` (a power of ``E_m``; for sin/cos the multiple angle in
``T_m``, up to ``_MAX_MULTIPLE``).  Every other term, every constant (an
integer constant of ``exp`` is a power of ``E_1``) and an argument that is
not a polynomial in the coordinates get a generator of their own; signs
are pulled out, so ``f(-m)`` uses the generator of ``m``.  The terms are
combined by the sum formulas, so the Pythagorean, sum and multiple-angle
identities, ``exp(x) exp(y) = exp(x + y)`` and constant atoms such as
``exp(-8/3)`` reduce inside the fraction.  A value's field is the chart
coordinates plus exactly the generators that occur in it, in one fixed
order that does not depend on hash order.

Zero returns before the field: an operation with a zero operand gives the
other operand (negated for ``0 - x``) or a zero without a union field, a
gcd or a canonical form, ``pdiff`` of a zero returns at once,
``is_zero_all`` passes over a zero, and a zero result on a chart is the
chart's one interned zero (``chart.zero``).
``x / 0`` and ``0 / 0`` still raise :class:`ExprError`.

One evaluator, ``_evaluator``, gives the value of a field element at a
rational point: exactly, a Fraction or a Q(i) :class:`ggwb.poly.Gaussian`,
when the field has no atom generator, else at ``_DPS`` (30) digits as a
:class:`decimal.Decimal`, a pair of them (:class:`_Complex`) over Q(i), or
a :class:`_Wide` past a Decimal's exponent range (the exp of an argument of
10**18 or more).  exp is ``Decimal.exp``, correctly rounded; tan(m/2) is
summed from the sin and cos series after m/2 is reduced by a multiple of
pi, with ``_GUARD`` digits to spare (:func:`_half_tan`).  Each evaluation runs in a copy of
``_CONTEXT`` (``decimal.localcontext``), so precision is per thread.
``evaluate`` returns that value as it is (no sympy number, no ``complex``),
``sign_at`` reads the sign of a real value from it (the metric's base-point
check, the sign of a hypersurface's normal length and its Jacobian audit),
the zero test decides on it, and the positivity certificate of
:mod:`ggwb.numeric` eliminates over it.  No module of the package imports
mpmath.

The exponentials of one base are powers of one generator: exp(q*m), for
a rational q and m primitive (integer contents 1, positive leading
coefficient), is ``E_{m/d}^(q*d)``.  A field holds one ``E_{m/d}`` per base
m, d a multiple of every denominator of q (:func:`_assemble` merges two, and
:func:`_embed` rewrites the coarser one as a power); a scalar keeps the
least such d (:func:`_lowest`).  So exp(2/7)^2 and exp(4/7) are both
``E_{1/7}^4``, and exp(x/6)^2 is ``E_{x/3}``.

Soundness contract: ``is_zero`` answers ``Proved`` only when the reduced
fraction is zero; the generators stand for the true functions in a ring
homomorphism, so a zero fraction is zero as a function.  A nonzero fraction
may still vanish (``sin(x)`` and ``sin(x/2)`` have independent generators,
and so do multiples above ``_MAX_MULTIPLE``); the sampler decides those,
and a ``Failed`` always carries a witness.  A wrong gcd would cost the
uniqueness of the normal form, never this contract.

``str`` and ``repr`` print the reduced fraction in the parser's grammar
(:func:`_text`): powers as ``^``, ``E_m`` as ``exp(m)`` (and a power
``E_{m/d}^e`` with d > 1 as ``exp(e*m/d)``), ``T_m`` as
``sin(m)/(1 + cos(m))`` and a Gaussian coefficient with ``I``, so that
``parse_scalar(str(s), chart) == s`` on real data.  Text (coordinates,
rational literals, integer powers, ``sin``, ``cos``, ``exp``) is read
straight into the field by ``_Parser``, which keeps its degree and digit
bounds on its own grammar tree.  The parser, ints, Fractions, Gaussians and
scalars are the only ways into the field.

The engine names coordinates by their names (``chart.coords``) and orders
atom generators by the structure of their arguments (:func:`_order`); it
holds no sympy object.  Only the ``expr`` property imports sympy, on its
first use: it is the sympy expression of the printed text, for sympy work
on a scalar such as ``sympy.count_ops``.
"""

from __future__ import annotations

import cmath
import math
import operator
import random
import re
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, getcontext, localcontext
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_
from typing import Iterable, Optional

from .errors import ChartMismatchError, ExprError, GgwbError, ParseError, PolicyError
from .poly import (
    FIELD,
    MAX_EXP,
    ONE,
    W,
    ZERO,
    _RATIONALS,
    Field,
    Frac,
    Gaussian,
    Poly,
    add,
    cofactors,
    conj,
    content,
    diff_at,
    exponents,
    exquo,
    field,
    gaussian,
    gcd,
    ground,
    mul,
    mul_ground,
    neg,
    power,
    quo_ground,
    repack,
    sub,
)
from .verdict import Frozen, Verdict, Witness

# sin/cos of k*m for an integer k with |k| <= _MAX_MULTIPLE is a polynomial
# of degree 2|k| in T_m over (1 + T_m^2)^|k|.  A larger multiple gets its own
# generator: that bounds the work on hostile input and stays sound.
_MAX_MULTIPLE = 8

_DPS = 30  # digits of the float evaluation of scalars with atoms
_NOISE = 1e-15  # a 30-digit denominator value below it is not clearly nonzero
_LOST_BITS = 32  # an atom argument above 2**32 would cost exp and tan 10 digits
_GUARD = 10  # digits the tan series and its reduction by pi carry beyond the value's
# The context of the values with atoms.  Each evaluation runs in a copy of it
# (``decimal.localcontext``), so a raised precision is the thread's own.
_CONTEXT = Context(prec=_DPS, Emax=MAX_EMAX, Emin=MIN_EMIN)


# ---------------------------------------------------------------------------
# zero-test policy


class ZeroPolicy(Frozen):
    """Reproducible configuration for the three-valued zero test.

    ``samples`` is the number of independent random points, ``tol`` the
    numeric tolerance used when transcendental atoms force float evaluation,
    and ``max_resample`` the per-sample retry budget when a point hits a pole:
    the zero test draws at most ``samples * (1 + max_resample)`` points.
    Every construction (a scenario's policy, the CLI's overrides, the API)
    checks the types and ranges: the counts and the seed are integers and
    ``tol`` a number, none of them a bool (``tol`` is kept as a float); a
    zero test with no sample would pass every nonzero residual, and a
    negative or NaN ``tol`` would fail every zero one.  A policy is
    immutable and equal to a policy with the same fields.
    """

    def __init__(self, samples: int = 32, seed: int = 0, tol: float = 1e-9,
                 max_resample: int = 8):
        given = {"samples": samples, "seed": seed, "max_resample": max_resample, "tol": tol}
        for key, value in given.items():
            kinds = (int, float) if key == "tol" else int
            if isinstance(value, bool) or not isinstance(value, kinds):
                kind = "a number" if key == "tol" else "an integer"
                raise PolicyError(key, f"must be {kind}, got {value!r}")
        try:
            tol = float(tol)
        except OverflowError:
            raise PolicyError("tol", "must be finite, got an int past the float range") from None
        if not samples >= 1:
            raise PolicyError("samples", f"must be at least 1, got {samples!r}")
        if not max_resample >= 0:
            raise PolicyError("max_resample", f"must be at least 0, got {max_resample!r}")
        if not (math.isfinite(tol) and tol >= 0):
            raise PolicyError("tol", f"must be finite and at least 0, got {tol!r}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "tol", tol)
        object.__setattr__(self, "max_resample", max_resample)

    def _key(self) -> tuple:
        return self.samples, self.seed, self.tol, self.max_resample

    def rng(self) -> random.Random:
        return random.Random(self.seed)


DEFAULT_POLICY = ZeroPolicy()


# ---------------------------------------------------------------------------
# generators and fields


class _Gen:
    """One atom generator: ``E_m`` (kind "exp") or ``T_m`` (kind "tan"),
    with ``arg`` = m in its minimal field.  It is the generator's key in a
    field; its hash is that of (kind, arg), so it does not depend on
    memory addresses.  ``order`` is its place in the one global order of
    generators, read from the structure of ``arg`` (:func:`_order`).  An
    exponential's argument is ``base / den``, ``base`` primitive (see
    :func:`_exp_gen`); a tangent's ``base`` is its argument and ``den`` 1."""

    __slots__ = ("kind", "arg", "base", "den", "order", "_hash")

    def __init__(self, kind: str, arg: Frac, base: Frac, den: int):
        self.kind = kind
        self.arg = arg
        self.base = base
        self.den = den
        self.order = (kind, _order(arg))
        self._hash = hash((kind, arg))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{'E' if self.kind == 'exp' else 'T'}[{_text(self.arg)}]"


def _order(rf: Frac) -> tuple:
    """The sort key of an atom argument: its field's generators, then the
    sorted (packed monomial, coefficient) pairs of its numerator and of its
    denominator.  A coordinate's entry is (0, its name key) and a
    generator's is (1, its own order), so a name is never compared with a
    generator.  Distinct arguments have distinct keys, and no key depends
    on which generator was made first."""
    gens = tuple((0, _name_key(s)) if type(s) is str else (1, s.order) for s in rf.field.symbols)
    return gens, tuple(sorted(rf.numer.items())), tuple(sorted(rf.denom.items()))


# Generators are interned for the life of the process, like sympy's own
# symbols: equal arguments must give the one generator, and a generator never
# changes.  Their order does not depend on which was made first.
_GEN_OF_KEY: dict = {}


def _gen(kind: str, arg: Frac, base: Optional[Frac] = None, den: int = 1) -> _Gen:
    g = _GEN_OF_KEY.get((kind, arg))
    if g is None:
        g = _GEN_OF_KEY[(kind, arg)] = _Gen(kind, arg, arg if base is None else base, den)
    return g


@lru_cache(maxsize=4096)
def _exp_gen(m: Frac, d: int) -> _Gen:
    """E_{m/d} for a primitive m (integer contents 1, numerator's leading
    coefficient positive) and a positive integer d.  The exponentials of
    one base m are the powers of one generator: exp(q*m) is E_{m/d}^(q*d)
    in a field whose d is a multiple of q's denominator (:func:`_assemble`
    merges two of them, :func:`_lowest` keeps the least d)."""
    arg = m if d == 1 else _field_op(operator.mul, m, _constant(m.field, Fraction(1, d)))
    return _gen("exp", arg, m, d)


# sympy's generator order (``sympy.polys.polyutils._sort_gens``): a name
# sorts by the rank of its letter part, then by that part, then by its
# numeric suffix, so x, y, z come first and a1 < a2 < a10.
_NAME_RANK = {**{c: 301 + i for i, c in enumerate("abcdefghijklmno")},
              **{c: 216 + i for i, c in enumerate("pqrstuvw")}, "x": 124, "y": 125, "z": 126}
_NAME = re.compile(r"^(.*?)(\d*)$")


def _name_key(name: str) -> tuple:
    base, index = _NAME.match(name).groups()
    return (_NAME_RANK.get(base, 1000), base, int(index) if index else 0)


@lru_cache(maxsize=256)
def _field(coords: tuple, gaussian: bool = False) -> Field:
    """Q(x) or Q(i)(x) over the chart coordinates ``coords`` (names), in
    sympy's generator order, so that the reduced fraction normalizes like
    :func:`sympy.cancel`."""
    return field(tuple(sorted(coords, key=_name_key)), gaussian)


@lru_cache(maxsize=4096)
def _layout(K: Field) -> tuple:
    """(coordinate names, atom generators) of a field; the coordinates
    come first."""
    gens = tuple(s for s in K.symbols if type(s) is _Gen)
    return K.symbols[: len(K.symbols) - len(gens)], gens


def _assemble(coords, gens, gaussian: bool) -> Field:
    """The field over ``coords`` and ``gens`` in the one global order.  Two
    exponentials of one base, E_{m/a} and E_{m/b}, become E_{m/lcm(a, b)},
    of which both are powers: a field holds one exponential per base."""
    merged = {}
    for g in set(gens):
        h = merged.setdefault((g.kind, g.base), g)
        if h.den != g.den:
            merged[(g.kind, g.base)] = _exp_gen(g.base, math.lcm(h.den, g.den))
    ordered = sorted(merged.values(), key=lambda g: g.order)
    return field(tuple(sorted(set(coords), key=_name_key)) + tuple(ordered), gaussian)


@lru_cache(maxsize=4096)
def _join(K1: Field, K2: Field) -> Field:
    (c1, g1), (c2, g2) = _layout(K1), _layout(K2)
    return _assemble(c1 + c2, g1 + g2, K1.gaussian or K2.gaussian)


def _embed(rf: Frac, K: Field) -> Frac:
    """rf in a field with more generators, in the same relative order.  Lex
    order does not see absent generators, so the reduced fraction stays
    reduced and normalized.  An exponential that K merged into a finer one
    is replaced by its power (:func:`_rescaled`)."""
    return rf if rf.field is K else _moved(rf, K)


def _target(s, K: Field):
    """The generator of K that stands for the generator ``s``: s itself, or
    the exponential of s's base that :func:`_assemble` merged it into."""
    if s in K.index:
        return s
    return next(g for g in _layout(K)[1] if g.kind == "exp" and g.base == s.base)


@lru_cache(maxsize=4096)
def _moves(F: Field, K: Field) -> Optional[tuple]:
    """(old shift, new shift) of every generator of F in K; a single shift
    when they all move by the same amount; None when one of F's
    exponentials is a power of one of K's."""
    if any(s not in K.index for s in F.symbols):
        return None
    moves = tuple((F.shifts[j], K.shifts[K.index[s]]) for j, s in enumerate(F.symbols))
    steps = {b - a for a, b in moves}
    return (steps.pop(),) if len(steps) == 1 else moves


def _move(p: Poly, moves: tuple) -> Poly:
    if len(moves) == 1:
        d = moves[0]
        return p if not d else Poly({m << d: c for m, c in p.items()})
    return repack(p, moves)


@lru_cache(maxsize=65536)
def _moved(rf: Frac, K: Field) -> Frac:
    moves = _moves(rf.field, K)
    if moves is None:
        return _rescaled(rf, K, [(t, Fraction(t.den, s.den) if type(s) is _Gen else 1)
                                 for s in rf.field.symbols for t in [_target(s, K)]])
    return Frac(K, _move(rf.numer, moves), _move(rf.denom, moves))


def _rescaled(rf: Frac, K: Field, images: list) -> Frac:
    """rf in K, the j-th generator of rf's field replaced by t^(1/r) for
    ``images[j]`` = (t, r), t a generator of K and r such that every
    exponent e of the j-th generator in rf makes e*r an integer.  A monomial
    substitution keeps numerator and denominator coprime and keeps the order
    of monomials in each generator, but t may sit elsewhere in K's order, so
    the sign (or Q(i) unit) is normalized again."""
    F = rf.field
    targets = [(K.shifts[K.index[t]], r) for t, r in images]

    def move(p: Poly) -> Poly:
        out = Poly()
        for m, c in p.items():
            new = 0
            for e, (b, r) in zip(exponents(m, F.n), targets):
                e = int(e * r)
                if e > MAX_EXP:
                    raise ExprError(f"an exponent exceeds {MAX_EXP}, the packed width")
                new |= e << b
            out[new] = c
        return out

    return _scaled(K, move(rf.numer), move(rf.denom))


def _shrink(rf: Frac, keep_coords: bool = True) -> Frac:
    """rf in the field of exactly the generators that occur in it (and of
    the coordinates that occur, without ``keep_coords``)."""
    K = rf.field
    coords, gens = _layout(K)
    if keep_coords and not gens:
        return rf
    span = reduce(or_, rf.numer, 0) | reduce(or_, rf.denom, 0)
    start = len(coords) if keep_coords else 0
    keep = list(range(start)) + [i for i in range(start, K.n) if (span >> K.shifts[i]) & FIELD]
    if len(keep) == K.n:
        return rf
    Ks = field(tuple(K.symbols[i] for i in keep), K.gaussian)
    moves = tuple((K.shifts[i], Ks.shifts[j]) for j, i in enumerate(keep))
    return Frac(Ks, repack(rf.numer, moves), repack(rf.denom, moves))


def _settle(rf: Frac) -> Frac:
    """An element of a Q(i) field with real coefficients, moved to the Q
    field: the field of a value depends on the value alone."""
    K = rf.field
    if not K.gaussian or any(type(c) is Gaussian for p in (rf.numer, rf.denom)
                             for c in p.values()):
        return rf
    return Frac(field(K.symbols, False), rf.numer, rf.denom)


def _canonical(rf: Frac, keep_coords: bool = True) -> Frac:
    if rf.field.gaussian:
        rf = _settle(rf)
    return _lowest(_shrink(rf, keep_coords))


@lru_cache(maxsize=4096)
def _fractional(K: Field) -> tuple:
    """The generators E_{m/d} of K with d > 1."""
    return tuple(g for g in _layout(K)[1] if g.den > 1)


def _lowest(rf: Frac) -> Frac:
    """rf with each E_{m/d} of its field (d > 1) replaced by E_{m/(d/k)},
    k the gcd of d and every exponent of E_{m/d} in rf: the least d in
    which rf is a fraction of polynomials, so that each function has one
    normal form (exp(x/6)^2 is exp(x/3))."""
    K = rf.field
    fractional = _fractional(K)
    if not fractional:
        return rf
    images = []
    for s in K.symbols:
        k = 1
        if s in fractional:
            shift, k = K.shifts[K.index[s]], s.den
            for m in (*rf.numer, *rf.denom):
                k = math.gcd(k, (m >> shift) & FIELD)
                if k == 1:
                    break
        images.append((_exp_gen(s.base, s.den // k) if k > 1 else s, Fraction(1, k)))
    if all(r == 1 for _, r in images):
        return rf
    coords = _layout(K)[0]
    return _rescaled(rf, _assemble(coords, [t for t, _ in images[len(coords):]], K.gaussian),
                     images)


def _unify(a: Frac, b: Frac) -> tuple:
    """Both operands in one field: the union of their generators, over Q(i)
    only when one of them is Gaussian."""
    if a.field is b.field:
        return a, b
    K = _join(a.field, b.field)
    return _embed(a, K), _embed(b, K)


def _fraction(K: Field, num: Poly, den: Poly) -> Frac:
    """num/den in lowest terms, in the normal form of the module docstring.
    A constant denominator needs no gcd, only :func:`_scaled`; otherwise
    :func:`_reduced` takes one gcd."""
    if not num:
        return K.zero
    if len(den) == 1 and 0 in den:
        return _scaled(K, num, den)
    return _reduced(K, num, den)


# The denominator caches (_reduced, _poly_lcm, calculus._den_product) are
# keyed by the field or its coefficient ring and the operand polynomials,
# and hold the canonical value a fresh computation returns: a hypersurface
# check meets the same denominators again and again.  The bounds are a few
# times what one S4 check fills, since a key holds its operands.
@lru_cache(maxsize=2048)
def _reduced(K: Field, num: Poly, den: Poly) -> Frac:
    """num/den for a non-constant den: the cofactors of one gcd (heuristic
    over Z, PRS over Z[i]) are the reduced pair, whose signs (over Q) or
    constant (over Q(i)) are then normalized."""
    _, num, den = cofactors(num, den, K.gaussian)
    if K.gaussian:
        return _scaled(K, num, den)
    if den[max(den)] < 0:
        num, den = neg(num), neg(den)
    return Frac(K, num, den)


def _scaled(K: Field, num: Poly, den: Poly) -> Frac:
    """num/den, given without a common factor of positive degree, in the
    normal form of :func:`_fraction`.  Over Q: divided by the gcd of all
    coefficients, signed like the denominator's leading coefficient.  Over
    Q(i): times the conjugate of that coefficient (which makes it a positive
    integer), then divided by the gcd of every real and imaginary part."""
    if not num:
        return K.zero
    u = den[max(den)]
    if not K.gaussian:
        c = math.gcd(math.gcd(*den.values()), *num.values())
        if u < 0:
            c = -c
        return Frac(K, num, den) if c == 1 else Frac(K, quo_ground(num, c), quo_ground(den, c))
    if type(u) is Gaussian:
        num, den = mul_ground(num, conj(u)), mul_ground(den, conj(u))
    elif u < 0:
        num, den = neg(num), neg(den)
    c = math.gcd(*(x for p in (den, num) for v in p.values()
                   for x in ((v.x, v.y) if type(v) is Gaussian else (v,))))
    return Frac(K, num, den) if c == 1 else Frac(K, quo_ground(num, c), quo_ground(den, c))


def _field_op(op, a: Frac, b: Frac) -> Frac:
    """``op`` (one of + - * /) on two elements of one field.  The sum,
    difference and product of two integer polynomials (denominator 1) are
    those polynomials over 1, already in normal form."""
    K = a.field
    if a.denom == ONE and b.denom == ONE and op is not operator.truediv:
        num = (add if op is operator.add else sub if op is operator.sub else mul)(a.numer, b.numer)
        return Frac(K, num, ONE) if num else K.zero
    if op is operator.mul:
        return _fraction(K, mul(a.numer, b.numer), mul(a.denom, b.denom))
    if op is operator.truediv:
        return _fraction(K, mul(a.numer, b.denom), mul(a.denom, b.numer))
    bn = b.numer if op is operator.add else neg(b.numer)
    if a.denom == b.denom:
        return _fraction(K, add(a.numer, bn), a.denom)
    return _sum_over(K, {a.denom: a.numer, b.denom: bn})


def _lcm(a: Poly, b: Poly, gaussian: bool) -> Poly:
    if len(a) == 1 and len(b) == 1 and 0 in a and 0 in b and not gaussian:
        return Poly({0: math.lcm(a[0], b[0])})
    return _poly_lcm(a, b, gaussian)


@lru_cache(maxsize=1024)
def _poly_lcm(a: Poly, b: Poly, gaussian: bool) -> Poly:
    """A common multiple of least degree: the multiple when one operand
    divides the other (most denominators of one sum share their factors),
    else a*b/gcd."""
    if exquo(a, b) is not None:
        return a
    if exquo(b, a) is not None:
        return b
    return mul(a, exquo(b, gcd(a, b, gaussian)))


def _sum_over(K: Field, parts: dict) -> Frac:
    """The sum of numerators over their denominators (``parts``, each
    fraction reduced), over the least common denominator: one gcd of the
    large numerator, against the lcm, reduces it."""
    if len(parts) == 1:
        (den, num), = parts.items()
        return _fraction(K, num, den)
    dens = list(parts)
    L = dens[0]
    for d in dens[1:]:
        if d != L:
            L = _lcm(L, d, K.gaussian)
    num = ZERO
    ground = len(L) == 1 and 0 in L
    for d, n in parts.items():
        if d != L:
            n = mul_ground(n, L[0] // d[0]) if ground and type(L[0]) is int else mul(n, exquo(L, d))
        num = add(num, n)
    return _fraction(K, num, L)


def _op(op, a: Frac, b: Frac) -> Frac:
    """``op`` on two elements of any fields, in the union field.  A zero
    operand returns before the field: the other operand (negated for
    0 - b), or the zero operand of a product or quotient."""
    if not b:
        if op is operator.truediv:
            raise ExprError("division by an expression that is identically zero")
        return b if op is operator.mul else a
    if not a:
        if op is operator.add:
            return b
        return -b if op is operator.sub else a
    return _field_op(op, *_unify(a, b))


def _pow(rf: Frac, n: int) -> Frac:
    """rf ** n: the powers of a reduced pair have no common factor either,
    so only the constant normalization runs."""
    if n < 0 and not rf:
        raise ExprError("division by an expression that is identically zero")
    num, den = (rf.numer, rf.denom)[:: 1 if n >= 0 else -1]
    return _scaled(rf.field, power(num, abs(n)), power(den, abs(n)))


@lru_cache(maxsize=4096)
def _constant(K: Field, v) -> Frac:
    """A rational (or, in a Q(i) field, Gaussian) constant of K."""
    if type(v) is Gaussian:
        d = math.lcm(Fraction(v.x).denominator, Fraction(v.y).denominator)
        return _scaled(K, Poly({0: gaussian(int(v.x * d), int(v.y * d))}), Poly({0: d}))
    q = _to_fraction(v)
    return Frac(K, Poly({0: q.numerator}), Poly({0: q.denominator})) if q else K.zero


# ---------------------------------------------------------------------------
# atoms


@lru_cache(maxsize=4096)
def _angle(g: _Gen, k: int) -> tuple:
    """(cos, sin) of k*m for the generator T_m: the real and imaginary
    parts of (1 + i T)^(2k) over (1 + T^2)^k."""
    K = field((g,), False)
    re_, im_ = {}, {}
    for j in range(2 * abs(k) + 1):
        (im_ if j % 2 else re_)[j] = math.comb(2 * abs(k), j) * (-1) ** (j // 2)
    if k < 0:
        im_ = {j: -c for j, c in im_.items()}
    den = power(Poly({2: 1, 0: 1}), abs(k))
    return _fraction(K, Poly(re_), den), _fraction(K, Poly(im_), den)


def _terms(u: Frac, kind: str) -> list:
    """(generator, integer multiple) for each term q*m of the argument u."""
    if not u:
        return []
    K = u.field
    if _layout(K)[1] or not u.denom.is_ground:
        # one term q*m, m with coprime integer contents and positive sign
        cn = content(u.numer)
        q = Fraction(cn if u.numer.LC > 0 else -cn, content(u.denom))
        pairs = [(q, _field_op(operator.mul, u, _constant(K, 1 / q)))]
    else:
        c = u.denom[0]
        pairs = [(Fraction(coeff, c), _shrink(Frac(K, Poly({m: 1}), ONE), keep_coords=False))
                 for m, coeff in sorted(u.numer.items(), reverse=True)]
    out = []
    for q, m in pairs:
        if kind == "exp":
            out.append((_exp_gen(m, q.denominator), q.numerator))
            continue
        sign = 1 if q > 0 else -1
        if m.numer.is_ground and m.denom.is_ground:
            # a constant angle is its own generator: sin(5) is not expanded
            # as a multiple angle of 1
            out.append((_gen("tan", _constant(m.field, abs(q))), sign))
        elif q.denominator == 1 and abs(q) <= _MAX_MULTIPLE:
            out.append((_gen("tan", m), int(q)))
        else:
            out.append((_gen("tan", _field_op(operator.mul, m, _constant(m.field, abs(q)))), sign))
    return out


@lru_cache(maxsize=16384)
def _atom_minimal(kind: str, u: Frac) -> Frac:
    one = field((), False).one
    if kind == "exp":
        value = one
        for g, k in _terms(u, kind):
            value = _op(operator.mul, value, _pow(field((g,), False).gen(0), k))
        return value
    cos, sin = one, field((), False).zero
    for g, k in _terms(u, kind):
        c, s = _angle(g, k)
        cos, sin = (
            _op(operator.sub, _op(operator.mul, cos, c), _op(operator.mul, sin, s)),
            _op(operator.add, _op(operator.mul, sin, c), _op(operator.mul, cos, s)),
        )
    return cos if kind == "cos" else sin


def _atom(kind: str, u: Frac) -> Frac:
    """sin, cos or exp of u, in a field over u's coordinates and the
    generators of u's terms."""
    if u.field.gaussian:
        raise ExprError(f"{kind} of a complex argument is outside the grammar")
    value = _atom_minimal(kind, _shrink(u, keep_coords=False))
    coords = _layout(u.field)[0]
    return _embed(value, _join(value.field, field(coords, False)))


def _tan_half(u: Frac) -> Frac:
    """tan(u/2) = sin(u) / (1 + cos(u))."""
    return _op(operator.truediv, _atom("sin", u), _op(operator.add, _atom("cos", u), u.field.one))


# ---------------------------------------------------------------------------
# the printer


def _coefficient(c) -> tuple:
    """(sign, factors) of a coefficient: no factor for 1, ``I`` for the
    imaginary unit, and one parenthesized factor for a Gaussian with a real
    and an imaginary part."""
    if type(c) is not Gaussian:
        return ("-" if c < 0 else "+"), ([] if abs(c) == 1 else [str(abs(c))])
    sign, factors = _coefficient(c.y)
    if not c.x:
        return sign, factors + ["I"]
    return "+", [f"({c.x} {sign} {'*'.join(factors + ['I'])})"]


def _power(s, e: int) -> str:
    """A coordinate name or an atom generator to the power e.  '*' and '/'
    associate to the left, so a product keeps sin(m)/(1 + cos(m)) bare."""
    if type(s) is str:
        return s if e == 1 else f"{s}^{e}"
    if s.den > 1:
        # E_{m/d}^e is the one exponential exp(e*m/d)
        q = _constant(s.base.field, Fraction(e, s.den))
        return f"exp({_text(_field_op(operator.mul, s.base, q))})"
    m = _text(s.arg)
    base = f"exp({m})" if s.kind == "exp" else f"sin({m})/(1 + cos({m}))"
    return base if e == 1 else f"{base}^{e}" if s.kind == "exp" else f"({base})^{e}"


def _term_factors(p: Poly, symbols: tuple) -> list:
    """(sign, factors) of each term of p over the generators ``symbols``,
    in descending lex order; the constant 1 has no factor."""
    n = len(symbols)
    return [(sign, factors + [_power(s, e) for s, e in zip(symbols, exponents(m, n)) if e])
            for m in sorted(p, reverse=True) for sign, factors in [_coefficient(p[m])]]


def _sum(terms: list) -> str:
    """The terms of :func:`_term_factors` as one sum."""
    text = ""
    for sign, factors in terms:
        term = "*".join(factors) or "1"
        text = f"{text} {sign} {term}" if text else f"-{term}" if sign == "-" else term
    return text


def _text(rf: Frac) -> str:
    """rf in the parser's grammar, numerator over denominator: ``str`` of a
    scalar, which :func:`parse_scalar` reads back as the same element."""
    if not rf:
        return "0"
    num = _term_factors(rf.numer, rf.field.symbols)
    if rf.denom == ONE:
        return _sum(num)
    den = _term_factors(rf.denom, rf.field.symbols)
    numerator = _sum(num) if len(num) == 1 else f"({_sum(num)})"
    divisor = _sum(den)
    # one factor without a '/' divides without parentheses
    if len(den) > 1 or den[0][0] == "-" or len(den[0][1]) > 1 or "/" in divisor:
        divisor = f"({divisor})"
    return f"{numerator}/{divisor}"


# ---------------------------------------------------------------------------
# the scalar


class ScalarExpr:
    """Immutable canonical scalar field tagged with its owning chart.

    ``rf`` is its element of the rational function field of the chart
    coordinates and of its atom generators.  It is made from text, an int,
    a Fraction, a Gaussian or a scalar of the same chart.
    """

    __slots__ = ("chart", "rf", "_expr", "_hash")

    def __init__(self, value, chart):
        if isinstance(value, ScalarExpr):
            if value.chart != chart:
                raise ChartMismatchError(
                    f"scalar from chart '{value.chart.name}' used on '{chart.name}'"
                )
            rf = value.rf
        elif isinstance(value, float):
            raise ExprError("float literals are not allowed; use exact rationals")
        elif isinstance(value, _RATIONALS):
            rf = _constant(_field(chart.coords), value)
        elif isinstance(value, Gaussian):
            rf = _canonical(_constant(_field(chart.coords, True), value))
        elif isinstance(value, str):
            rf = _Parser(value, chart).parse()
        else:
            raise ExprError(f"a scalar is made from text, an int, a Fraction, a Gaussian "
                            f"or a scalar, not {type(value).__name__}")
        _init(self, chart, rf)

    def __setattr__(self, *a):  # immutability
        raise AttributeError("ScalarExpr is immutable")

    @property
    def expr(self):
        """The sympy expression of the printed text, read factor by factor
        (a parse of a whole sum recurses once per term), each coordinate the
        ``Symbol`` of its name; the first use imports sympy.  Without atoms
        it is evaluated, to what :func:`sympy.cancel` returns; with atoms it
        is not: sympy would merge exp(1/2)*exp(1/3) into another generator."""
        if self._expr is None:
            import sympy as sp

            # placeholders keep names such as ``lambda`` and ``E`` from Python and sympy
            names = {c: f"_{i}" for i, c in enumerate(self.chart.coords)}
            symbols = {names[c]: sp.Symbol(c) for c in self.chart.coords}
            namespace, evaluate = dict(vars(sp)), self.is_rational_function

            @lru_cache(maxsize=None)
            def factor(text):
                if text.isdigit():
                    return sp.Integer(text)
                text = _IDENT.sub(lambda m: names.get(m.group(), m.group()), text)
                return sp.parse_expr(text.replace("^", "**"), symbols, global_dict=namespace,
                                     evaluate=evaluate)

            def term(sign, factors):
                args = [factor(f) for f in factors]
                if sign == "-":  # the sign joins the coefficient, as in the fraction
                    args[:1] = [-args[0]] if args and args[0].is_Integer else [-sp.S.One] + args[:1]
                return sp.Mul(*args, evaluate=evaluate)

            rf = self.rf
            num, den = (sp.Add(*(term(*t) for t in _term_factors(p, rf.field.symbols)),
                               evaluate=evaluate) for p in (rf.numer, rf.denom))
            expr = num if rf.denom == ONE else sp.Mul(num, sp.Pow(den, -1, evaluate=evaluate),
                                                      evaluate=evaluate)
            object.__setattr__(self, "_expr", expr)
        return self._expr

    # -- arithmetic ---------------------------------------------------

    def _op(self, other, op, swap: bool = False) -> "ScalarExpr":
        """``op(self, other)``, or ``op(other, self)`` with ``swap``."""
        if isinstance(other, ScalarExpr):
            if other.chart != self.chart:
                raise ChartMismatchError(
                    f"cannot combine scalars from charts "
                    f"'{self.chart.name}' and '{other.chart.name}'"
                )
            b = other.rf
        elif isinstance(other, _RATIONALS):
            b = _constant(self.rf.field, other)
        else:
            from .calculus import _Components

            if isinstance(other, _Components):
                # a tensor field: its own reflected operator scales it or refuses
                return NotImplemented
            b = ScalarExpr(other, self.chart).rf
        a = self.rf
        return _ring(self.chart, _op(op, *((b, a) if swap else (a, b))))

    def __add__(self, other):
        return self._op(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._op(other, operator.sub)

    def __rsub__(self, other):
        return self._op(other, operator.sub, swap=True)

    def __mul__(self, other):
        return self._op(other, operator.mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._op(other, operator.truediv)

    def __rtruediv__(self, other):
        return self._op(other, operator.truediv, swap=True)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ExprError("only integer powers are in the grammar")
        return _ring(self.chart, _pow(self.rf, n))

    def __neg__(self):
        # negation keeps the canonical form
        return _init(object.__new__(ScalarExpr), self.chart, -self.rf) if self.rf else self

    def exp(self) -> "ScalarExpr":
        """exp of this scalar."""
        return _ring(self.chart, _atom("exp", self.rf))

    def __eq__(self, other):
        if isinstance(other, ScalarExpr):
            return self.chart == other.chart and self.rf == other.rf
        try:
            return self.rf == ScalarExpr(other, self.chart).rf
        except GgwbError:
            return False

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.rf, self.chart.name)))
        return self._hash

    def __repr__(self):
        return f"ScalarExpr({_text(self.rf)})"

    def __str__(self):
        return _text(self.rf)

    # -- queries --------------------------------------------------------

    @property
    def is_syntactic_zero(self) -> bool:
        return not self.rf

    @property
    def is_rational_function(self) -> bool:
        """True when no transcendental atom appears (I is still exact)."""
        return not _layout(self.rf.field)[1]

    def conjugate(self) -> "ScalarExpr":
        # coordinates and atom arguments are real-valued, so conjugation
        # maps I to -I in the coefficients
        rf = _conj(self.rf)
        return self if rf is self.rf else _ring(self.chart, rf)

    def lift(self, chart) -> "ScalarExpr":
        """The same function on a chart whose coordinates extend this one's
        (the product with a line)."""
        return _ring(chart, _embed(self.rf, _join(self.rf.field, _field(chart.coords))))

    def subs_chart(self, chart, mapping: dict) -> "ScalarExpr":
        """Composition: replace this chart's coordinates (by name) by
        scalars on ``chart``; an unmapped coordinate stays itself, a
        coordinate of ``chart``."""
        sub_ = {}
        for coord, val in mapping.items():
            name = self.chart.coordinate(coord)
            sub_[name] = (val if isinstance(val, ScalarExpr) else ScalarExpr(val, chart)).rf
        K = _field(chart.coords)
        for name in self.chart.coords:
            if name not in sub_:
                if name not in K.index:
                    raise ChartMismatchError(f"symbol '{name}' is not a coordinate of the chart")
                sub_[name] = K.gen(K.index[name])
        return _ring(chart, _compose(self.rf, sub_, {}))


def _init(obj: ScalarExpr, chart, rf) -> ScalarExpr:
    object.__setattr__(obj, "chart", chart)
    object.__setattr__(obj, "rf", rf)
    object.__setattr__(obj, "_expr", None)
    object.__setattr__(obj, "_hash", None)
    return obj


def _ring(chart, rf: Frac) -> ScalarExpr:
    if not rf:
        return chart.zero
    return _init(object.__new__(ScalarExpr), chart, _own_field(rf))


def _own_field(rf: Frac) -> Frac:
    """rf in its canonical field, the one a scalar of its value holds: an
    atom-free real element keeps its field."""
    K = rf.field
    return _canonical(rf) if K.gaussian or _layout(K)[1] else rf


# The arithmetic :func:`_poly_at` evaluates in: (one, product, sum, the
# coefficient as a value).  Polynomial values compose, exact values are ints
# and Gaussian integers, and 30-digit values are Decimals (_Complex over Q(i)).
_POLYS = (ONE, mul, add, ground)
_EXACT = (1, operator.mul, operator.add, lambda c: c)


def _poly_at(p: Poly, vals: list, arith: tuple = _POLYS) -> tuple:
    """(N, D) with p(vals) = N/D, for values ``vals`` = (numerator,
    denominator) pairs, one per generator of p: over the common denominator,
    from tables of the powers of both, without a gcd.  The one evaluator of
    polynomials, in the arithmetic ``arith``."""
    one, times, plus, coefficient = arith
    n = len(vals)
    exps = [exponents(m, n) for m in p]
    degs = [max(col) for col in zip(*exps)] if exps else [0] * n
    pows = []
    for pair, d in zip(vals, degs):
        tables = []
        for v in pair:
            t = [one]
            for _ in range(d):
                t.append(times(t[-1], v))
            tables.append(t)
        pows.append(tables)
    total = coefficient(0)
    for c, ex in zip(p.values(), exps):
        term = coefficient(c)
        for (an, bn), e, d in zip(pows, ex, degs):
            if d:
                term = times(term, times(an[e], bn[d - e]))
        total = plus(total, term)
    den = one
    for (_, bn), d in zip(pows, degs):
        if d:
            den = times(den, bn[d])
    return total, den


def _compose(rf: Frac, sub_: dict, memo: dict) -> Frac:
    """rf with each coordinate replaced by ``sub_[coordinate]`` and each
    generator by the same atom of its composed argument."""
    values = []
    for s in rf.field.symbols:
        if type(s) is not _Gen:
            values.append(sub_[s])
            continue
        if s not in memo:
            arg = _compose(s.arg, sub_, memo)
            memo[s] = _atom("exp", arg) if s.kind == "exp" else _tan_half(arg)
        values.append(memo[s])
    K = rf.field if not values else None
    for v in values:
        K = v.field if K is None else _join(K, v.field)
    if rf.field.gaussian:
        K = _join(K, field((), True))
    pairs = [(m.numer, m.denom) for m in (_embed(v, K) for v in values)]
    Nn, Dn = _poly_at(rf.numer, pairs)
    Nd, Dd = _poly_at(rf.denom, pairs)
    if not Nd:
        raise ExprError("zero denominator after composition")
    return _fraction(K, mul(Nn, Dd), mul(Dn, Nd))


def _conj(rf: Frac) -> Frac:
    """The conjugate: i -> -i in the coefficients.  The denominator's
    leading coefficient is a positive integer, and conjugation keeps it and
    the gcd of the parts, so the result is already in normal form."""
    K = rf.field
    if not K.gaussian:
        return rf
    flip = lambda p: Poly({m: conj(c) for m, c in p.items()})  # noqa: E731
    return Frac(K, flip(rf.numer), flip(rf.denom))


# ---------------------------------------------------------------------------
# differentiation


def pdiff(e: ScalarExpr, coord: str) -> ScalarExpr:
    """Partial derivative by one coordinate of the scalar's chart, given by
    its name; any other name raises :class:`ChartMismatchError`.

    The derivative of a scalar: ``ggwb.differentiate`` and
    ``ScalarExpr.diff`` are this function.  Its cached kernel,
    :func:`_derivative`, is the one derivative of the package: the tensor
    layer's derivative arrays (``calculus._partials``) call it on stored
    field elements, without a scalar.  It is the chain rule in the field:
    the quotient rule on the numerator and denominator polynomials, with
    d E_m = E_m dm and d T_m = (1 + T_m^2)/2 dm for the generators.  A
    zero returns itself.
    """
    name = e.chart.coordinate(coord)
    if not e.rf:
        return e
    return _init(object.__new__(ScalarExpr), e.chart, _derivative(e.rf, name))


differentiate = ScalarExpr.diff = pdiff


@lru_cache(maxsize=65536)
def _derivative(rf: Frac, name: str) -> Frac:
    """d rf / d name, in its canonical field.  In a field without atom
    generators the derivative of an integer polynomial is the derivative
    of its numerator, over 1 (a Q(i) value with real coefficients moves to
    the Q field, as :func:`_canonical` moves it)."""
    K = rf.field
    if rf.denom == ONE and not _layout(K)[1]:
        num = diff_at(rf.numer, K.shifts[K.index[name]]) if name in K.index else ZERO
        d = Frac(K, num, ONE) if num else K.zero
        return _settle(d) if K.gaussian else d
    return _canonical(_diff(rf, name))


@lru_cache(maxsize=16384)
def _gen_diff(g: _Gen, name: str) -> Optional[Frac]:
    """d(generator)/d(name) in its minimal field, None when it is zero."""
    du = _diff(g.arg, name)
    if not du:
        return None
    G = field((g,), False).gen(0)
    factor = G if g.kind == "exp" else _fraction(G.field, add(power(G.numer, 2), ONE),
                                                 Poly({0: 2}))
    return _canonical(_op(operator.mul, factor, du), keep_coords=False)


def _diff(rf: Frac, name: str) -> Frac:
    K = rf.field
    parts = [(name, None)] if name in K.index else []  # (key, its derivative or 1)
    parts += [(g, dv) for g in _layout(K)[1] for dv in [_gen_diff(g, name)] if dv]
    if not parts or rf.numer.is_ground and rf.denom.is_ground:
        return K.zero
    L = reduce(_join, (dv.field for _, dv in parts if dv is not None), K)
    if _moves(K, L) is None:
        # an exponential of rf merged with a finer one of the same base from
        # a generator's derivative: rf is differentiated by L's generators
        parts = [(t, dv) for t in dict.fromkeys(_target(s, L) for s, _ in parts)
                 for dv in [None if type(t) is str else _gen_diff(t, name)]
                 if type(t) is str or dv]
    f = _embed(rf, L)
    n, d, B = f.numer, f.denom, None
    parts = [(L.shifts[L.index[s]], dv if dv is None else _embed(dv, L)) for s, dv in parts]
    for _, dv in parts:  # B: the common denominator of the generator derivatives
        if dv is not None and dv.denom != ONE:
            B = dv.denom if B is None else _lcm(B, dv.denom, False)
    # d(n/d) = (dn d - n dd) / d^2, with dn = sum_j d_j n * dv_j over B
    dn = dd = None
    for s, dv in parts:
        pn, pd = diff_at(n, s), diff_at(d, s)
        if dv is not None or B is not None:
            factor = B if dv is None else dv.numer if B is None else mul(dv.numer,
                                                                         exquo(B, dv.denom))
            pn, pd = mul(pn, factor), mul(pd, factor)
        dn, dd = (pn, pd) if dn is None else (add(dn, pn), add(dd, pd))
    if B is not None:
        n, d = mul(n, B), mul(d, B)
    return _fraction(L, dn, d) if not dd else _fraction(L, sub(mul(dn, d), mul(n, dd)), mul(d, d))


# ---------------------------------------------------------------------------
# evaluation and the zero test

_POLE = object()


def _value_at(rf: Frac, vals: list, arith: tuple, pt: Optional[dict] = None) -> object:
    """rf at ``vals`` (the pairs of :func:`_poly_at`), as one quotient of
    the values over their common denominators: a Fraction when both sides
    are ints, else a Q(i) :class:`Gaussian` or a 30-digit value.  A pole is
    a zero of the reduced denominator.  A 30-digit denominator value that
    is not clearly nonzero is decided at the rational point ``pt``: when
    every coefficient of the denominator, as a polynomial in the atom
    generators, vanishes there, it is 0 whatever the generators' values,
    and its 30-digit value is rounding noise."""
    Nd, Dd = _poly_at(rf.denom, vals, arith)
    if not Nd or (pt is not None and abs(Nd) < _NOISE and _generator_coefficients_vanish(rf, pt)):
        return _POLE
    Nn, Dn = _poly_at(rf.numer, vals, arith)
    top, bottom = Nn * Dd, Dn * Nd
    if type(top) is int and type(bottom) is int:
        return Fraction(top, bottom)
    return top / bottom  # a Gaussian on either side divides into Q(i)


def _generator_coefficients_vanish(rf: Frac, pt: dict) -> bool:
    coords, gens = _layout(rf.field)
    shift = W * len(gens)  # the coordinates sit above the generators
    coefficients = {}
    for m, c in rf.denom.items():
        coefficients.setdefault(m & ((1 << shift) - 1), Poly())[m >> shift] = c
    vals = [(pt[s].numerator, pt[s].denominator) for s in coords]
    return not any(_poly_at(p, vals, _EXACT)[0] for p in coefficients.values())


class _Complex:
    """x + y*i with Decimal parts: a value at ``_DPS`` digits in a field
    over Q(i).  The other operand is a Decimal, an int or a _Complex; each
    has ``real`` and ``imag``."""

    __slots__ = ("real", "imag")

    def __init__(self, real, imag):
        self.real, self.imag = real, imag

    def __add__(a, b):
        return _Complex(a.real + b.real, a.imag + b.imag)

    __radd__ = __add__

    def __sub__(a, b):
        return _Complex(a.real - b.real, a.imag - b.imag)

    def __rsub__(a, b):
        return _Complex(b.real - a.real, b.imag - a.imag)

    def __neg__(a):
        return _Complex(-a.real, -a.imag)

    def __mul__(a, b):
        return _Complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)

    __rmul__ = __mul__

    def __truediv__(a, b):
        n = b.real * b.real + b.imag * b.imag
        return _Complex((a.real * b.real + a.imag * b.imag) / n,
                        (a.imag * b.real - a.real * b.imag) / n)

    def __rtruediv__(a, b):
        return _Complex(b.real, b.imag) / a

    def __abs__(a):
        return (a.real * a.real + a.imag * a.imag).sqrt()

    def __bool__(a):
        return bool(a.real or a.imag)

    def conjugate(a):
        return _Complex(a.real, -a.imag)

    def __complex__(a):
        return complex(float(a.real), float(a.imag))


class _Wide:
    """m * 10**e, for a Decimal m with 1 <= |m| < 10 (or 0) and an int e: a
    value past the exponent range of a Decimal, made by the exp of an
    argument of 10**18 or more (:func:`_exp`).  The other operand is a
    _Wide, a Decimal or an int, and the result is a _Wide."""

    __slots__ = ("m", "e")
    imag = Decimal(0)

    def __init__(self, m, e=0):
        k = m.adjusted() if m else 0
        self.m, self.e = m.scaleb(-k), e + k

    @property
    def real(a):
        return a

    def conjugate(a):
        return a

    def __add__(a, b):
        b = _wide(b)
        if not b.m or a.m and a.e - b.e > getcontext().prec + 2:
            return a
        if not a.m or b.e - a.e > getcontext().prec + 2:
            return b
        e = max(a.e, b.e)
        return _Wide(a.m.scaleb(a.e - e) + b.m.scaleb(b.e - e), e)

    __radd__ = __add__

    def __sub__(a, b):
        return a + -b

    def __rsub__(a, b):
        return -a + b

    def __neg__(a):
        return _Wide(-a.m, a.e)

    def __mul__(a, b):
        b = _wide(b)
        return _Wide(a.m * b.m, a.e + b.e)

    __rmul__ = __mul__

    def __truediv__(a, b):
        b = _wide(b)
        return _Wide(a.m / b.m, a.e - b.e)

    def __rtruediv__(a, b):
        return _wide(b) / a

    def __abs__(a):
        return _Wide(abs(a.m), a.e)

    copy_abs = __abs__

    def sqrt(a):
        return _Wide(a.m.scaleb(a.e % 2).sqrt(), a.e // 2)

    def __bool__(a):
        return bool(a.m)

    def __lt__(a, b):
        return (a - b).m < 0

    def __le__(a, b):
        return (a - b).m <= 0

    def __gt__(a, b):
        return (a - b).m > 0

    def __float__(a):
        if abs(a.e) < 400:
            return float(a.m.scaleb(a.e))
        return math.copysign(math.inf if a.e > 0 else 0.0, a.m)

    def __format__(a, spec):
        digits, e = format(a.m, spec).split("e")
        return f"{digits}e{int(e) + a.e:+d}"

    def __str__(a):
        return f"{a.m}E{a.e:+d}"


def _wide(b) -> _Wide:
    return b if type(b) is _Wide else _Wide(Decimal(b))


def _exp(m):
    """exp(m) at the precision of the current context: ``Decimal.exp``, or
    for |m| of 10**18 or more, whose exp is past the exponent range of a
    Decimal, exp(m - k ln 10) * 10**k as a :class:`_Wide`, with ln 10 to the
    digits of k and ``_GUARD`` more."""
    if m.adjusted() < 18:
        return m.exp()
    with localcontext() as ctx:
        ctx.prec += m.adjusted() + 1 + _GUARD
        ln10 = Decimal(10).ln()
        k = (m / ln10).to_integral_value()
        r = m - k * ln10
    return _Wide(r.exp(), int(k))


def _dec(c):
    """A coefficient (an int or a Gaussian integer) as a Decimal value."""
    if type(c) is Gaussian:
        return _Complex(Decimal(c.x), Decimal(c.y))
    return Decimal(c)


_DEC = (1, operator.mul, operator.add, _dec)


@lru_cache(maxsize=16)
def _pi(digits: int) -> Decimal:
    """pi to ``digits`` digits, from the series
    3 (1 + 1/24 (1 + 9/80 (1 + 25/168 (...)))) of the ``decimal`` recipes."""
    with localcontext(_CONTEXT) as ctx:
        ctx.prec = digits + 2
        last, t, s, n, na, d, da = 0, Decimal(3), Decimal(3), 1, 0, 0, 24
        while s != last:
            last = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = t * n / d
            s += t
        ctx.prec = digits
        return +s


def _half_tan(m: Decimal) -> Decimal:
    """tan(m/2) at the precision of the current context.  m/2 is reduced
    by the nearest multiple of pi, taken to the digits m has before its
    point and ``_GUARD`` more, and the sin and cos of the rest (at most
    pi/2) are summed from their series with ``_GUARD`` more digits."""
    prec = getcontext().prec
    with localcontext() as ctx:
        ctx.prec = prec + _GUARD + max(0, m.adjusted() + 1)
        x = m / 2
        pi = _pi(ctx.prec)
        x -= (x / pi).to_integral_value() * pi
        ctx.prec = prec + _GUARD
        x2 = -x * x
        sin = t = x
        cos = u = Decimal(1)
        k, last = 0, None
        while (sin, cos) != last:
            last = sin, cos
            k += 2
            u = u * x2 / ((k - 1) * k)
            t = t * x2 / (k * (k + 1))
            sin, cos = sin + t, cos + u
        tan = sin / cos
    return +tan


def _atom_at(g: _Gen, m) -> object:
    return m if m is _POLE else (_exp(m) if g.kind == "exp" else _half_tan(m))


def _dec_point(pt: dict) -> dict:
    return {s: Decimal(q.numerator) / q.denominator for s, q in pt.items()}


def _eval_dec(rf: Frac, point: dict, memo: dict, pt: dict) -> object:
    """Value at ``point`` (coordinate name -> the Decimal of the rational
    ``pt``), in the current context.  exp and tan lose one digit of the
    value per digit of a large argument before its point, so an argument
    above 2**_LOST_BITS is read again with that many more digits."""
    vals = []
    for s in rf.field.symbols:
        if type(s) is _Gen and s not in memo:
            m = _eval_dec(s.arg, point, memo, pt)
            if type(m) is _Wide:
                raise ExprError(f"the argument of {s!r} is past the exponent range of a Decimal")
            if m is not _POLE and abs(m) > 2 ** _LOST_BITS:
                with localcontext() as ctx:
                    ctx.prec += m.adjusted() + 1
                    memo[s] = _atom_at(s, _eval_dec(s.arg, _dec_point(pt), {}, pt))
            else:
                memo[s] = _atom_at(s, m)
        v = memo[s] if type(s) is _Gen else point[s]
        if v is _POLE:
            return _POLE
        vals.append((v, 1))
    return _value_at(rf, vals, _DEC, pt)


def _evaluator(chart, K: Field, point: dict):
    """The value function of the elements of K at ``point`` (coordinate ->
    rational), and whether its values are exact.

    The one evaluator of the package.  Without an atom generator in K the
    values are exact: Fractions, or Q(i) values as :class:`Gaussian`.  With
    one they are Decimals (:class:`_Complex` over Q(i)) at ``_DPS`` digits,
    computed in a copy of ``_CONTEXT`` that is the calling thread's own.  A
    pole gives ``_POLE``; a coordinate of K that the point misses raises
    :class:`ExprError`."""
    pt = {chart.coordinate(c): _to_fraction(v) for c, v in point.items()}
    coords, gens = _layout(K)
    missing = [s for s in coords if s not in pt]
    if missing:
        raise ExprError(f"the point gives no value for the coordinate(s) {', '.join(missing)}")
    if not gens:
        vals = [(pt[s].numerator, pt[s].denominator) for s in K.symbols]
        return (lambda rf: _value_at(rf, vals, _EXACT)), True
    with localcontext(_CONTEXT):
        at = _dec_point(pt)
    memo = {}

    def value(rf):
        with localcontext(_CONTEXT):
            return _eval_dec(rf, at, memo, pt)

    return value, False


def evaluate(e: ScalarExpr, point: dict) -> object:
    """The value of ``e`` at a rational point, read by :func:`_evaluator`:
    a Fraction (or a Q(i) :class:`Gaussian`) without atoms, else a
    ``_DPS``-digit Decimal (or :class:`_Complex`); ``_POLE`` when the point
    hits a pole."""
    return _evaluator(e.chart, e.rf.field, point)[0](e.rf)


def sign_at(e: ScalarExpr, point: dict, tol: float = 1e-9) -> int:
    """The sign of the real scalar ``e`` at a rational point, -1, 0 or 1,
    read by :func:`_evaluator`.  0 for a value of 0, for a 30-digit value
    with |v| <= ``tol``, and at a pole; a value off the real line raises
    :class:`ExprError`."""
    v = evaluate(e, point)
    if v is _POLE:
        return 0
    if type(v) is not Fraction:
        if type(v) is Gaussian or v.imag.copy_abs() > tol:
            raise ExprError(f"'{e}' is not real at {point}")
        if v.real.copy_abs() <= tol:
            return 0
        v = v.real
    return (v > 0) - (v < 0)


def _to_fraction(v) -> Fraction:
    if isinstance(v, _RATIONALS):
        return Fraction(v)
    raise ExprError(f"sample coordinates must be rational, got {v!r}")


def _witness_number(v):
    """A value of :func:`_evaluator` as the number a witness keeps: a
    Fraction or a Gaussian when it is exact, else a float, or a complex when
    it has an imaginary part; a 30-digit value beyond the double range keeps
    its leading 13 digits, as a string: ``-1.234567890123e+400``, or
    ``(re + imj)`` with both parts so."""
    if type(v) is Fraction or type(v) is int:
        return Fraction(v)
    if type(v) is Gaussian:
        return v
    v = v if v.imag else v.real
    f = complex(v) if v.imag else float(v)
    if cmath.isfinite(f):
        return f
    if not v.imag:
        return f"{v:.12e}"
    return f"({v.real:.12e} {'-' if v.imag < 0 else '+'} {v.imag.copy_abs():.12e}j)"


def is_zero(e: ScalarExpr, policy: ZeroPolicy = DEFAULT_POLICY, tag: str = "") -> Verdict:
    """Three-valued zero test, deterministic for a fixed policy seed.

    ``Proved`` when the reduced fraction is 0.  Otherwise the scalar is
    evaluated at ``policy.samples`` random rational points: rational
    expressions must vanish exactly, transcendental ones within
    ``policy.tol`` at 30 digits.  Any other value yields ``Failed`` with a
    witness (detail ``tag``).  Sample points at a pole are redrawn (bounded retries).
    """
    if not e.rf:
        return Verdict.proved()
    chart = e.chart
    rng = policy.rng()
    drawn = 0
    budget = policy.samples * (1 + policy.max_resample)
    attempts = 0
    while drawn < policy.samples:
        if attempts >= budget:
            raise ExprError(
                f"zero-test: resampling budget exhausted after {attempts} attempts "
                f"(expression has a pole on most of the sampling region?)"
            )
        attempts += 1
        point = chart.sample_point(rng)
        value, exact = _evaluator(chart, e.rf.field, point)
        v = value(e.rf)
        if v is _POLE:
            continue
        drawn += 1
        with localcontext(_CONTEXT):
            nonzero = bool(v) if exact else abs(v) > policy.tol
        if nonzero:
            return Verdict.failed(Witness(tuple(sorted(point.items())), _witness_number(v), tag))
    return Verdict.numeric()


def is_zero_all(
    exprs: Iterable[ScalarExpr],
    policy: ZeroPolicy = DEFAULT_POLICY,
    tag: str = "",
) -> Verdict:
    """Aggregate zero test over a family of expressions (weakest verdict)."""
    worst = Verdict.proved()
    for e in exprs:
        if not e.rf:
            continue  # is_zero proves a zero without a draw from the policy
        v = is_zero(e, policy, tag)
        if not v.ok:
            return v
        worst = v  # a nonzero element is never Proved
    return worst


# ---------------------------------------------------------------------------
# expression grammar for scenario files
#
#   expr   := sum
#   sum    := prod (('+'|'-') prod)*
#   prod   := unary (('*'|'/') unary)*
#   unary  := ('-'|'+')* power
#   power  := primary ('^' unary)?          -- exponent must be an integer
#   primary:= NUMBER | IDENT | FUNC '(' expr ')' | '(' expr ')'
#
# NUMBER is an integer or decimal literal (decimals become exact rationals);
# rational literals like 3/2 come out of the '/' operator. Whitespace-free.
#
# The parser builds field elements as it reads, and every rule returns its
# value with an estimate of the total degree its grammar tree expands to: a
# coordinate counts 1, a number 0, a sum its largest term, a product (or
# quotient) the sum of its factors, an integer power |n| times its base, and
# sin/cos/exp the degree of their argument (at least 1).

_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN = re.compile(
    rf"(?P<ws>\s+)|(?P<num>\d+(?:\.\d+)?)|(?P<ident>{_IDENT.pattern})|(?P<op>[-+*/^()])"
)
_FUNCS = ("sin", "cos", "exp")
RESERVED = _FUNCS + ("I",)  # I is the imaginary unit of the printed text


def check_coordinate_names(coords) -> None:
    """Raise ExprError unless every coordinate is a name the grammar reads as itself."""
    bad = [c for c in coords if not (isinstance(c, str) and _IDENT.fullmatch(c)) or c in RESERVED]
    if bad:
        raise ExprError(f"a coordinate name is an identifier [A-Za-z_][A-Za-z_0-9]* other "
                        f"than {', '.join(RESERVED)}; got {', '.join(map(repr, bad))}")


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


# The digit bound of every number a parse with ``max_degree`` makes.  A
# 5,000-digit literal fails before it is read, and 2^(10^5) would load a
# 30,103-digit integer that no report can print; the builtins use 2 digits.
MAX_DIGITS = 32


def _digits(rf: Frac) -> int:
    """The decimal digits of the largest integer coefficient of rf's
    numerator and denominator, read from their bit lengths: never fewer, at
    most one more."""
    bits = max(abs(c).bit_length() for p in (rf.numer, rf.denom) for c in p.values())
    return math.ceil(bits * math.log10(2))


class _Parser:
    """The grammar read straight into the field of the chart.  With
    ``max_degree``, a product, quotient or power whose degree estimate is
    over the bound, and a number of more than MAX_DIGITS digits, raise
    :class:`ParseError` before they are formed."""

    def __init__(self, text: str, chart, max_degree: Optional[int] = None):
        self.tokens = _tokenize(text)
        self.field = _field(chart.coords)
        self.chart = chart
        self.max_degree = max_degree
        self.i = 0

    def bound(self, degree: int, pos: int) -> int:
        if self.max_degree is not None and degree > self.max_degree:
            raise ParseError(f"degree estimate {degree} exceeds the bound {self.max_degree}", pos)
        return degree

    def bound_digits(self, digits: int, pos: int) -> None:
        if self.max_degree is not None and digits > MAX_DIGITS:
            raise ParseError(
                f"a number of up to {digits} digits exceeds the bound {MAX_DIGITS}", pos)

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected '{op}', found {val!r}", pos)

    def parse(self) -> Frac:
        """The canonical value of the text.  Every coefficient of its
        reduced numerator and denominator is bounded too, which covers the
        constants that products and quotients fold."""
        value, degree = self.sum()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input starting at {val!r}", pos)
        self.bound(degree, 0)
        self.bound_digits(_digits(value), 0)
        return _canonical(value)

    def sum(self) -> tuple:
        e, d = self.prod()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            _, op, _ = self.next()
            rhs, dr = self.prod()
            e, d = _op(operator.add if op == "+" else operator.sub, e, rhs), max(d, dr)
        return e, d

    def prod(self) -> tuple:
        e, d = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            _, op, pos = self.next()
            rhs, dr = self.unary()
            if op == "/" and not rhs:
                raise ParseError("division by zero", pos)
            d = self.bound(d + dr, pos)
            e = _op(operator.mul if op == "*" else operator.truediv, e, rhs)
        return e, d

    def unary(self) -> tuple:
        sign = 1
        while self.peek()[:2] in (("op", "-"), ("op", "+")):
            _, op, _ = self.next()
            if op == "-":
                sign = -sign
        e, d = self.power()
        return (e if sign > 0 else -e), d

    def power(self) -> tuple:
        base, d = self.primary()
        if self.peek()[:2] != ("op", "^"):
            return base, d
        _, _, pos = self.next()
        exponent, _ = self.unary()
        if not exponent.numer.is_ground or exponent.denom != ONE:
            raise ParseError("exponent must be an integer literal", pos)
        n = exponent.numer.get(0, 0)
        if base.numer.is_ground and base.denom.is_ground:
            self.bound_digits(abs(n) * _digits(base), pos)
        if n < 0 and not base:
            raise ParseError("division by zero", pos)
        d = self.bound(abs(n) * d, pos)
        return _pow(base, n), d

    def primary(self) -> tuple:
        kind, val, pos = self.next()
        if kind == "num":
            self.bound_digits(len(val) - ("." in val), pos)
            return _constant(self.field, Fraction(val)), 0
        if kind == "ident":
            if self.peek()[:2] == ("op", "("):
                if val not in _FUNCS:
                    raise ParseError(f"unknown function '{val}'", pos)
                self.next()
                arg, d = self.sum()
                self.expect_op(")")
                # the argument's numbers live on in the atom's generator
                self.bound_digits(_digits(arg), pos)
                return _atom(val, arg), max(1, d)
            if val not in self.field.index:
                raise ParseError(
                    f"unknown symbol '{val}' (chart '{self.chart.name}' has "
                    f"coordinates {', '.join(self.chart.coords)})",
                    pos,
                )
            return self.field.gen(self.field.index[val]), 1
        if kind == "op" and val == "(":
            e = self.sum()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {val!r}", pos)


def parse_scalar(text: str, chart, max_degree: Optional[int] = None) -> ScalarExpr:
    """Parse the scenario-file grammar into a canonical scalar.  With
    ``max_degree``, a product, quotient or power whose degree estimate
    exceeds it, or a number of more than MAX_DIGITS digits, raises
    :class:`ParseError` before it is formed."""
    return _init(object.__new__(ScalarExpr), chart, _Parser(text, chart, max_degree).parse())


# ---------------------------------------------------------------------------
# random polynomials (randomized identity tests)


def random_poly(chart, rng: random.Random, degree: int = 2) -> ScalarExpr:
    """Random small polynomial in the chart coordinates (pole-free), with
    integer coefficients, for randomized identity tests."""
    K = _field(chart.coords)
    shifts = [K.shifts[K.index[c]] for c in chart.coords]
    terms = {0: rng.randint(-4, 4)}
    for _ in range(rng.randint(1, 4)):
        c, m = rng.randint(-4, 4), 0
        for _ in range(rng.randint(1, degree)):
            m += 1 << rng.choice(shifts)
        terms[m] = terms.get(m, 0) + c
    return _ring(chart, Frac(K, Poly({m: c for m, c in terms.items() if c}), ONE))
