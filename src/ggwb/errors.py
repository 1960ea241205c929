"""Exception types shared across the workbench."""

from __future__ import annotations


class GgwbError(Exception):
    """Base class for all workbench errors."""


class ChartMismatchError(GgwbError):
    """Fields or symbols from different charts were combined."""


class ExprError(GgwbError):
    """Invalid scalar expression (bad node, zero denominator, pole exhaustion)."""


class ParseError(GgwbError):
    """Scenario expression could not be parsed.

    Carries a character position so loaders can point at the offending spot.
    """

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class SingularMetricError(GgwbError):
    """Metric (or frame matrix) is not symbolically invertible."""


class StructureError(GgwbError):
    """A structure constructor rejected its data.

    ``failures`` lists (identity label, verdict) pairs for each axiom that
    did not hold, so callers can report exactly which invariant broke.
    """

    def __init__(self, message: str, failures=None):
        self.failures = list(failures or [])
        if self.failures:
            details = "; ".join(f"{label}: {v.kind.value}" for label, v in self.failures)
            message = f"{message} [{details}]"
        GgwbError.__init__(self, message)


class ScenarioError(GgwbError):
    """Scenario file failed to parse or validate.

    ``where`` is a JSON path such as ``structures[1].F_plus`` or a
    ``line:col`` position for syntax errors.
    """

    def __init__(self, message: str, where: str | None = None):
        self.where = where
        if where:
            message = f"{where}: {message}"
        super().__init__(message)


class PolicyError(GgwbError, ValueError):
    """A zero-test policy field is out of range; ``key`` names the field."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key} {message}")


class PreconditionNotMet(GgwbError):
    """A checker's precondition failed; surfaced as a skipped check.
    ``failures`` lists the failed items of the precondition, as in
    :class:`StructureError`."""

    __init__ = StructureError.__init__
