"""Three-valued check outcomes, and the one runner that tests and grades
the items of a check.

Every identity the engine tests resolves to one of

* ``Proved`` — the canonical form, the reduced fraction in the chart's
  rational function field (coordinates and the sin/cos/exp generators),
  is zero,
* ``NumericallySupported`` — nonzero canonical form, but vanishing at every
  random sample point (exactly for rational values, within tolerance when
  transcendental atoms are involved),
* ``Failed`` — a witness sample point with a nonzero residual exists.

A check builds the defects of its items and hands each item to a
:class:`CheckResult`, which runs the zero test (``test``), certifies the
positivity of a Gram matrix at sample points (``positive``), grades a fact
read from items already tested (``corollary``), grades the agreement of
two routes to one property (``agreement``) and records the verdict of a
sub-check (``sub``).  Compound checks aggregate to their weakest member.

Sub-checks and builds that several checks read are computed through
:func:`once`, one time per run.

``symexpr`` and ``numeric`` import this module for the records, so the runner
imports them at its first zero test or certificate, not at module load.
"""

from __future__ import annotations

import contextlib
import contextvars
import enum
from fractions import Fraction
from typing import Optional

from .errors import StructureError
from .poly import Gaussian


class VerdictKind(enum.Enum):
    PROVED = "Proved"
    NUMERIC = "NumericallySupported"
    FAILED = "Failed"


# Failed < NumericallySupported < Proved
_STRENGTH = {VerdictKind.FAILED: 0, VerdictKind.NUMERIC: 1, VerdictKind.PROVED: 2}


def _num_str(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)
    if isinstance(v, (complex, Gaussian)):
        v = complex(v)
        return f"{v.real:.12e}{v.imag:+.12e}j"
    if isinstance(v, float):
        return f"{v:.12e}"
    return str(v)


class Frozen:
    """The base of the immutable value records: assigning an attribute
    raises ``AttributeError``, and two records of one class with equal
    ``_key()`` are equal and hash-equal.  A record's ``__init__`` sets its
    fields with ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())


class Witness(Frozen):
    """Counterexample data: the sample point and the residual value there.
    Immutable; equal to a witness with the same fields."""

    def __init__(self, point: tuple[tuple[str, Fraction], ...], value: object, detail: str = ""):
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "value", value)  # Fraction, Gaussian, float, complex or str
        object.__setattr__(self, "detail", detail)

    def _key(self) -> tuple:
        return self.point, self.value, self.detail

    def as_dict(self) -> dict:
        d = {
            "point": {name: _num_str(val) for name, val in self.point},
            "value": _num_str(self.value),
        }
        if self.detail:
            d["detail"] = self.detail
        return d

    def __str__(self) -> str:
        pt = ", ".join(f"{n}={_num_str(v)}" for n, v in self.point)
        s = f"at ({pt}): residual {_num_str(self.value)}"
        if self.detail:
            s += f" [{self.detail}]"
        return s


class Verdict(Frozen):
    """Outcome of one identity check: its kind, the witness of a failure,
    and ``detail``.  Immutable; equal to a verdict with the same fields.

    ``detail`` is the reason a verdict was reached when no zero test of
    its own produced it (the items a corollary rests on, a disagreement
    between two routes), so reports can show it.
    """

    def __init__(self, kind: VerdictKind, witness: Optional[Witness] = None, detail: str = ""):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "detail", detail)

    def _key(self) -> tuple:
        return self.kind, self.witness, self.detail

    @staticmethod
    def proved() -> "Verdict":
        return Verdict(VerdictKind.PROVED)

    @staticmethod
    def numeric() -> "Verdict":
        return Verdict(VerdictKind.NUMERIC)

    @staticmethod
    def failed(witness: Optional[Witness] = None, detail: str = "") -> "Verdict":
        return Verdict(VerdictKind.FAILED, witness, detail)

    @property
    def ok(self) -> bool:
        return self.kind is not VerdictKind.FAILED

    @property
    def is_proved(self) -> bool:
        return self.kind is VerdictKind.PROVED

    def __str__(self) -> str:
        s = self.kind.value
        if self.witness is not None:
            s += f" ({self.witness})"
        if self.detail:
            s += f" ({self.detail})"
        return s


def combine(*verdicts: Verdict) -> Verdict:
    """Weakest-member aggregation: the first weakest verdict, witness and all."""
    if not verdicts:
        return Verdict.proved()
    return min(verdicts, key=lambda v: _STRENGTH[v.kind])


_memo = contextvars.ContextVar("ggwb_run", default=None)


@contextlib.contextmanager
def run():
    """A run: :func:`once` computes each result one time inside it.  Yields
    the memo of the run; inside an open run it joins that run.  Usable as a
    decorator, so that a check opens a run for its own sub-checks when
    called alone."""
    memo = _memo.get()
    if memo is not None:
        yield memo
        return
    memo = {}
    token = _memo.set(memo)
    try:
        yield memo
    finally:
        _memo.reset(token)


def once(fn, *args):
    """``fn(*args)``, computed on the first request in the open run (a call
    outside any run opens one for its own duration).  The key is ``fn`` and
    the ``id`` of each argument, and the arguments are kept alive until the
    run ends, so ``fn`` must be a module-level function or ``Class.method``
    with ``self`` among the arguments: a lambda written at the call, or a
    bound method, is a new object on every call and never hits.  Builds and verdicts are
    deterministic (every zero test draws from a fresh ``policy.rng()``), so
    a repeated request may reuse the first result."""
    with run() as memo:
        key = (fn, *map(id, args))
        if key not in memo:
            memo[key] = (args, fn(*args))
        return memo[key][1]


class CheckResult:
    """The items of a compound check, one verdict per label, and the runner
    that produces them.  ``policy`` is the :class:`~ggwb.symexpr.ZeroPolicy`
    of the zero tests; a result that only records verdicts (a skip, the
    failures of a structure build) needs none.

    Each recording method records one item and returns its verdict:
    ``test`` runs the zero test, ``positive`` the point certificate of a
    Gram matrix, ``corollary`` and ``agreement`` grade an item from items
    already recorded, ``sub`` takes the verdict of a sub-check and ``add``
    records a verdict as given (an item of another result, or a second
    label for one verdict)."""

    def __init__(self, name: str, policy=None, skipped: Optional[str] = None):
        self.name = name
        self.policy = policy
        self.items = []  # list[tuple[str, Verdict]]
        self.skipped = skipped

    def add(self, label: str, verdict: Verdict) -> Verdict:
        self.items.append((label, verdict))
        return verdict

    def sub(self, label: str, check, *args) -> Verdict:
        """Record ``label`` as the verdict of ``once(check, *args)``."""
        return self.add(label, once(check, *args).verdict)

    def test(self, label: str, defects, tag: str = "") -> Verdict:
        """Record ``label`` as the zero test of ``defects``: one scalar, or
        an iterable of scalars graded by the weakest of them.  ``tag`` is
        the detail of a witness."""
        return self.add(label, self._zero(defects, tag))

    def _zero(self, defects, tag: str) -> Verdict:
        from .symexpr import ScalarExpr, is_zero, is_zero_all

        if isinstance(defects, ScalarExpr):
            return is_zero(defects, self.policy, tag)
        return is_zero_all(defects, self.policy, tag)

    def positive(self, label: str, gram, points) -> Verdict:
        """Record ``label`` as the point certificate of the Hermitian matrix
        ``gram`` at ``points``: Failed with the witness of the first point
        where a pivot is not positive, else NumericallySupported."""
        from .numeric import positivity_witness

        for point in points:
            witness = positivity_witness(gram, point, self.policy.tol)
            if witness is not None:
                return self.add(label, Verdict.failed(witness))
        return self.add(label, Verdict.numeric())

    @property
    def verdict(self) -> Verdict:
        if self.skipped is not None:
            return Verdict.proved()
        return combine(*[v for _, v in self.items])

    @property
    def ok(self) -> bool:
        return self.skipped is not None or self.verdict.ok

    def corollary(self, label: str, fact: str, defects, *premises: str) -> Verdict:
        """Record ``label``, a fact that follows from the items ``premises``
        and from the zero test of ``defects``, what the fact adds to them
        (``fact`` says what).  Every premise is a zero-test item, so the
        fact is as strong as the weakest of them and that test: a failed
        premise fails it with the premise's witness and the detail
        ``rests on '<label>'``; otherwise the detail names ``fact`` and
        every premise."""
        adds = self._zero(defects, "")
        given = [(name, self.subverdict(name)) for name in premises]
        name, premise = next(((n, v) for n, v in given if not v.ok), (None, None))
        if premise is not None:
            verdict = Verdict.failed(witness=premise.witness, detail=f"rests on '{name}'")
        elif not adds.ok:
            verdict = Verdict.failed(witness=adds.witness, detail=f"{fact} fails")
        else:
            names = ", ".join(f"'{name}'" for name in premises)
            verdict = Verdict(combine(adds, *(v for _, v in given)).kind,
                              detail=f"{fact}; rests on {names}")
        return self.add(label, verdict)

    def agreement(self, label: str, route_a: tuple, route_b: tuple) -> Verdict:
        """Record ``label``, the agreement of two routes to one property,
        each route a (name, verdict) pair.  Routes that disagree fail it,
        with the failing route's witness and the detail ``<a> says <kind>,
        <b> says <kind>``.  Routes that agree grade it as ``corollary``
        grades premises: two passing routes give the weaker of their kinds;
        two failing routes give Proved when both witnesses are exact
        (residuals in Q or Q(i)) and NumericallySupported otherwise, for a
        30-digit residual is itself a sampled judgement."""
        (name_a, a), (name_b, b) = route_a, route_b
        if a.ok != b.ok:
            verdict = Verdict.failed(
                witness=(b if a.ok else a).witness,
                detail=f"{name_a} says {a.kind.value}, {name_b} says {b.kind.value}")
        elif a.ok:
            verdict = Verdict(combine(a, b).kind)
        elif all(v.witness is not None and type(v.witness.value) in (Fraction, Gaussian)
                 for v in (a, b)):
            verdict = Verdict.proved()
        else:
            verdict = Verdict.numeric()
        return self.add(label, verdict)

    def require(self, message: str, error: type = StructureError) -> "CheckResult":
        """This result; raises ``error`` (:class:`StructureError`, or
        :class:`PreconditionNotMet` for a checker's precondition) with
        ``message`` and the failed items when an item failed."""
        failed = [(label, v) for label, v in self.items if not v.ok]
        if failed:
            raise error(message, failed)
        return self

    def subverdict(self, label: str) -> Verdict:
        for lbl, v in self.items:
            if lbl == label:
                return v
        raise KeyError(label)
