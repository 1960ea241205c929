"""ggwb: a generalized-geometry workbench.

Symbolic verification of Courant-algebroid identities, classical and
generalized almost contact structure axioms, hypersurface-induced
structures, and CRF/CRFK/normality/binormality criteria on coordinate
charts.  Every check resolves to a three-valued verdict: Proved (the
canonical form, a reduced fraction in the coordinates and the sin/cos/exp
generators, is zero), NumericallySupported (vanishes at every random sample
point), or Failed (with a witness point).
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
# numeric loads with the package, though the runner imports it late: the
# bench's layer trace (bench/spantrace.py) wraps the loaded modules
from . import numeric, structures, hypersurface, workbench

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
