"""Seeded inputs of the ``courant-random`` workload, and their exact answers.

A case is the anomaly identity of the Courant bracket (propofC)

    [A, fB] = f[A, B] + pr A(f) B - g(A, B) df

on random polynomial sections A = (X, a), B = (Y, b) and a random polynomial
f over R^n, where g((X,a),(Y,b)) = (a(Y) + b(X)) / 2 is the neutral pairing.
The last case of every five is perturbed: it drops the g(A, B) df term, so
the residual is -g(A, B) df, whose j-th covector component at a point p is
-g(A, B)(p) * d_j f(p).  This module computes that value in exact Fraction
arithmetic from its own coefficients; it imports neither ggwb nor sympy.

Polynomials are dicts from exponent tuples to integer coefficients.  Each
polynomial has one term of every degree in a fixed tuple, so case sizes (and
run times) vary little with the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# (dimension, cases, degrees of the terms of every section component,
#  degrees of the terms of f)
GROUPS = ((3, 5, (0, 1), (2, 3)), (5, 5, (1,), (1, 2)))
PERTURBED_EVERY = 5
COEFFS = (-4, -3, -2, -1, 1, 2, 3, 4)


@dataclass(frozen=True)
class Case:
    dim: int
    X: tuple
    a: tuple
    Y: tuple
    b: tuple
    f: dict
    perturbed: bool

    @property
    def coords(self) -> tuple:
        return coords(self.dim)


def coords(dim: int) -> tuple:
    return tuple(f"x{i + 1}" for i in range(dim))


def _monomial(rng: random.Random, dim: int, degree: int) -> tuple:
    exps = [0] * dim
    for _ in range(degree):
        exps[rng.randrange(dim)] += 1
    return tuple(exps)


def _poly(rng: random.Random, dim: int, degrees) -> dict:
    # distinct degrees give distinct monomials
    return {_monomial(rng, dim, d): rng.choice(COEFFS) for d in degrees}


def evaluate(p: dict, point) -> Fraction:
    total = Fraction(0)
    for exps, c in p.items():
        term = Fraction(c)
        for v, e in zip(point, exps):
            term *= v**e
        total += term
    return total


def derivative(p: dict, j: int) -> dict:
    out = {}
    for exps, c in p.items():
        if exps[j]:
            lowered = exps[:j] + (exps[j] - 1,) + exps[j + 1:]
            out[lowered] = out.get(lowered, 0) + c * exps[j]
    return out


def to_text(p: dict, names) -> str:
    """Render in the scenario grammar, e.g. ``-2 + 3*x1^2*x2``."""
    terms = []
    for exps, c in sorted(p.items()):
        factors = [str(c)]
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        terms.append("*".join(factors))
    return " + ".join(terms) if terms else "0"


def pairing_at(case: Case, point) -> Fraction:
    """g(A, B) = (a(Y) + b(X)) / 2 at ``point``."""
    total = Fraction(0)
    for ai, yi in zip(case.a, case.Y):
        total += evaluate(ai, point) * evaluate(yi, point)
    for bi, xi in zip(case.b, case.X):
        total += evaluate(bi, point) * evaluate(xi, point)
    return total / 2


def expected_residual(case: Case, point):
    """(j, value) of the first nonzero covector component of -g(A, B) df at
    ``point``, or None when every component vanishes there."""
    g = pairing_at(case, point)
    for j in range(case.dim):
        v = -g * evaluate(derivative(case.f, j), point)
        if v != 0:
            return j, v
    return None


def _probe(dim: int) -> tuple:
    return tuple(Fraction(1, k + 2) for k in range(dim))


def generate(seed: int) -> list:
    """The cases of one round; the same seed gives the same cases."""
    rng = random.Random(f"courant-random/{seed}")
    cases = []
    for dim, count, degrees, f_degrees in GROUPS:
        for k in range(count):
            perturbed = k % PERTURBED_EVERY == PERTURBED_EVERY - 1
            while True:
                X, a, Y, b = (
                    tuple(_poly(rng, dim, degrees) for _ in range(dim)) for _ in range(4)
                )
                case = Case(dim, X, a, Y, b, _poly(rng, dim, f_degrees), perturbed)
                # a perturbed case must be a true non-identity: g(A, B) != 0
                # at one point proves g(A, B) is not the zero polynomial, and
                # f is not constant, so df is not zero either.
                if not perturbed or pairing_at(case, _probe(dim)) != 0:
                    break
            cases.append(case)
    return cases
