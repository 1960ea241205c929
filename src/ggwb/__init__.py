"""ggwb: a generalized-geometry workbench.

Symbolic verification of Courant-algebroid identities, classical and
generalized almost contact structure axioms, hypersurface-induced
structures, and CRF/CRFK/normality/binormality criteria on coordinate
charts.  Every check resolves to a three-valued verdict: Proved (canonical
form is literally zero, or reduces to zero modulo sin^2 + cos^2 - 1),
NumericallySupported (vanishes at every random sample point), or Failed
(with a witness point).
"""

from .verdict import CheckResult, Verdict, VerdictKind, Witness
from .symexpr import ScalarExpr, ZeroPolicy, differentiate, is_zero, parse_scalar
from .calculus import (
    ChartManifold,
    Connection,
    EndoTM,
    MetricField,
    OneForm,
    ThreeForm,
    TwoForm,
    VectorField,
    ext_d,
    euclidean_metric,
    frame,
    coframe,
    interior,
    levi_civita,
    lie_bracket,
    lie_derivative,
    musical_flat,
    musical_sharp,
    wedge,
)
from .courant import (
    BigEndo,
    BigSection,
    big_frame,
    courant_bracket,
    naive_d,
    nijenhuis_big,
    pairing,
    partial,
)
from . import structures, hypersurface, workbench

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
