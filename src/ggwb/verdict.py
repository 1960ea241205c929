"""Three-valued check outcomes.

Every identity the engine tests resolves to one of

* ``Proved`` — the canonical form, the reduced fraction in the chart's
  rational function field (coordinates and the sin/cos/exp generators),
  is zero,
* ``NumericallySupported`` — nonzero canonical form, but vanishing at every
  random sample point (exactly for rational values, within tolerance when
  transcendental atoms are involved),
* ``Failed`` — a witness sample point with a nonzero residual exists.

Compound checks aggregate to their weakest member.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Optional


class VerdictKind(enum.Enum):
    PROVED = "Proved"
    NUMERIC = "NumericallySupported"
    FAILED = "Failed"


# Failed < NumericallySupported < Proved
_STRENGTH = {VerdictKind.FAILED: 0, VerdictKind.NUMERIC: 1, VerdictKind.PROVED: 2}


def _num_str(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)
    if isinstance(v, complex):
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
        object.__setattr__(self, "value", value)  # Fraction, complex Fraction pair, or float
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
    """Outcome of one identity check, with provenance of what was tested.
    Immutable; equal to a verdict with the same fields.

    ``detail`` is the reason a verdict was reached when no zero test of
    its own produced it (the items a corollary rests on, a disagreement
    between two routes); it survives relabelling, so reports can show it.
    """

    def __init__(self, kind: VerdictKind, criterion: str = "",
                 witness: Optional[Witness] = None, detail: str = ""):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "criterion", criterion)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "detail", detail)

    def _key(self) -> tuple:
        return self.kind, self.criterion, self.witness, self.detail

    @staticmethod
    def proved(criterion: str = "") -> "Verdict":
        return Verdict(VerdictKind.PROVED, criterion)

    @staticmethod
    def numeric(criterion: str = "") -> "Verdict":
        return Verdict(VerdictKind.NUMERIC, criterion)

    @staticmethod
    def failed(
        criterion: str = "", witness: Optional[Witness] = None, detail: str = ""
    ) -> "Verdict":
        return Verdict(VerdictKind.FAILED, criterion, witness, detail)

    @property
    def ok(self) -> bool:
        return self.kind is not VerdictKind.FAILED

    @property
    def is_proved(self) -> bool:
        return self.kind is VerdictKind.PROVED

    def relabel(self, criterion: str) -> "Verdict":
        return Verdict(self.kind, criterion, self.witness, self.detail)

    def __and__(self, other: "Verdict") -> "Verdict":
        return combine(self, other)

    def __str__(self) -> str:
        s = self.kind.value
        if self.criterion:
            s = f"{self.criterion}: {s}"
        if self.witness is not None:
            s += f" ({self.witness})"
        if self.detail:
            s += f" ({self.detail})"
        return s


def combine(*verdicts: Verdict, criterion: str = "") -> Verdict:
    """Weakest-member aggregation; keeps the first failing witness and detail."""
    if not verdicts:
        return Verdict.proved(criterion)
    worst = min(verdicts, key=lambda v: _STRENGTH[v.kind])
    return worst.relabel(criterion or worst.criterion)


class CheckResult:
    """Outcome of a compound check: one sub-verdict per identity tested."""

    def __init__(self, name: str, items: Optional[list] = None, skipped: Optional[str] = None):
        self.name = name
        self.items = [] if items is None else items  # list[tuple[str, Verdict]]
        self.skipped = skipped

    def add(self, label: str, verdict: Verdict) -> Verdict:
        self.items.append((label, verdict.relabel(label)))
        return verdict

    @property
    def verdict(self) -> Verdict:
        if self.skipped is not None:
            return Verdict.proved(self.name)
        return combine(*[v for _, v in self.items], criterion=self.name)

    @property
    def ok(self) -> bool:
        return self.skipped is not None or self.verdict.ok

    def corollary(self, fact: str, verdict: Verdict, *premises: str) -> Verdict:
        """The verdict of a fact that follows from the items ``premises``
        of this result, ``verdict`` being the zero test of what the fact
        adds to them (``fact`` says what).  Every premise is a zero-test
        item, so the fact is as strong as the weakest of them and
        ``verdict``: a failed premise fails it with the premise's witness
        and the detail ``rests on '<label>'``; otherwise the detail names
        ``fact`` and every premise."""
        given = [(label, self.subverdict(label)) for label in premises]
        for label, v in given:
            if not v.ok:
                return Verdict.failed(witness=v.witness, detail=f"rests on '{label}'")
        if not verdict.ok:
            return Verdict.failed(witness=verdict.witness, detail=f"{fact} fails")
        kind = combine(verdict, *(v for _, v in given)).kind
        names = ", ".join(f"'{label}'" for label in premises)
        return Verdict(kind, detail=f"{fact}; rests on {names}")

    def subverdict(self, label: str) -> Verdict:
        for lbl, v in self.items:
            if lbl == label:
                return v
        raise KeyError(label)

    def __str__(self) -> str:
        if self.skipped is not None:
            return f"{self.name}: skipped ({self.skipped})"
        lines = [f"{self.name}: {self.verdict.kind.value}"]
        for label, v in self.items:
            line = f"  {label}: {v.kind.value}" + (f" ({v.witness})" if v.witness else "")
            lines.append(line + (f" ({v.detail})" if v.detail else ""))
        return "\n".join(lines)
