"""Layer trace taken from outside the program.

``install`` wraps the public functions of ggwb's layer modules at every
ggwb module that binds them by name, plus ``ScenarioContext``'s builds, the
registered check runners, ``sympy.diff`` as the tensor layer calls it, and
``ChartManifold.sample_point``.  Each wrapper records a span; a span's self
time is its duration minus the time of the spans nested in it, so the self
times of all spans add up to the time spent inside top-level spans.

The ``check_*`` functions are left unwrapped: they are the check layer
itself, and their work shows up as the self time of the check span that
calls them.  The ``structures`` package is left unwrapped for the same
reason.
"""

from __future__ import annotations

import functools
import inspect
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = {
    "ggwb.workbench.scenario": "scenario",
    "ggwb.workbench.checks": "checks",
    "ggwb.workbench.report": "report",
    "ggwb.hypersurface": "hypersurface",
    "ggwb.calculus": "calculus",
    "ggwb.courant": "courant",
    "ggwb.symexpr": "symexpr",
    "ggwb.numeric": "numeric",
}

# every check a builtin scenario runs, in registry order
CHECK_NAMES = (
    "almost_contact", "normal", "normal_product", "classical_CRF", "kernel_nabla_F",
    "gen_metric", "gen_F", "gen_CRF", "CRFK", "crvpm", "two_one", "phi", "product_J",
    "normal21", "normal_explicit", "binormal", "product_metric", "hyp_geometry",
    "induced_contact", "hyp_CRF", "hyp_normal", "LXi", "hyp_CRFK", "hermitian",
    "gen_kahler",
)

# spans reported under their own name; the rest of a layer goes to <layer>.other_s
NAMED_SPANS = {
    "hypersurface": ("unit_normal", "second_fundamental_form", "induced_gen_structure"),
    "calculus": ("tidy_trig", "lie_bracket", "lie_derivative", "ext_d"),
    "courant": ("courant_bracket", "nijenhuis_big"),
    "symexpr": ("canon", "is_zero", "evaluate"),
}
COUNTED_SPANS = (
    "calculus.tidy_trig", "courant.courant_bracket", "courant.nijenhuis_big",
    "symexpr.canon", "sympy.diff", "symexpr.is_zero",
)
ZERO_TEST_COUNTS = (
    "proved", "sampled_exact", "sampled_float", "failed", "samples", "residual_ops",
)


class Tracer:
    """Nested spans kept in memory: self time and call count per span name,
    and the whole time of the outermost span of each group."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.open = Counter()
        self._open_groups = Counter()
        self._stack = []  # time of the children of each open span

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def wrap(self, name: str, fn, after=None, group=None):
        """Span around ``fn``.  ``after(args, kwargs, result, self_s)`` runs
        once the span has closed; its cost is kept out of every self time.
        Spans of one ``group`` add their whole time to the count
        ``<group>_total_s`` when no other span of the group encloses them."""
        stack, self_s, calls, open_ = self._stack, self.self_s, self.calls, self.open
        counts, open_groups = self.counts, self._open_groups

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            open_[name] += 1
            if group is not None:
                open_groups[group] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                own = dt - stack.pop()
                open_[name] -= 1
                self_s[name] += own
                calls[name] += 1
                if group is not None:
                    open_groups[group] -= 1
                    if not open_groups[group]:
                        counts[f"{group}_total_s"] += dt
            if after is not None:
                t1 = perf_counter()
                after(args, kwargs, result, own)
                dt += perf_counter() - t1
            if stack:
                stack[-1] += dt
            return result

        return traced


def _public_functions(module):
    for name, obj in vars(module).items():
        if (
            inspect.isfunction(obj)
            and obj.__module__ == module.__name__
            and not name.startswith(("_", "check_"))
        ):
            yield name, obj


def install(tracer: Tracer) -> None:
    """Wrap the layers of the already imported ggwb package."""
    import sympy

    from ggwb.calculus import ChartManifold
    from ggwb.workbench.checks import CHECKS, ScenarioContext

    symexpr = sys.modules["ggwb.symexpr"]
    replace = {}
    for modname, layer in LAYERS.items():
        for name, fn in _public_functions(sys.modules[modname]):
            after = _zero_test_counts(tracer) if fn is symexpr.is_zero else None
            replace[id(fn)] = tracer.wrap(f"{layer}.{name}", fn, after)
    diff = tracer.wrap("sympy.diff", sympy.diff)
    replace[id(sympy.diff)] = diff
    proxy = types.ModuleType("sympy")
    proxy.__dict__.update(vars(sympy))
    proxy.diff = diff

    for modname, module in list(sys.modules.items()):
        if modname != "ggwb" and not modname.startswith("ggwb."):
            continue
        for attr, val in list(vars(module).items()):
            if val is sympy:
                setattr(module, attr, proxy)
            elif id(val) in replace:
                setattr(module, attr, replace[id(val)])

    for method in ("build", "geometry", "induced"):
        setattr(
            ScenarioContext, method,
            tracer.wrap(
                f"checks.{method}", getattr(ScenarioContext, method), group="checks.build"
            ),
        )
    for spec in CHECKS.values():
        spec.runner = tracer.wrap(f"checks.{spec.name}", spec.runner)

    sample_point = ChartManifold.sample_point

    def counted_sample_point(chart, rng):
        if tracer.open["symexpr.is_zero"]:
            tracer.counts["symexpr.is_zero.samples"] += 1
        return sample_point(chart, rng)

    ChartManifold.sample_point = counted_sample_point


def _zero_test_counts(tracer: Tracer):
    """How each zero test ended, read from its Verdict and its input."""
    import sympy

    def after(args, kwargs, verdict, own):
        e = args[0]
        rational = e.is_rational_function
        tracer.counts["symexpr.is_zero.exact_s" if rational else "symexpr.is_zero.float_s"] += own
        if verdict.is_proved:
            tracer.counts["symexpr.is_zero.proved"] += 1
            return
        tracer.counts["symexpr.is_zero.residual_ops"] += sympy.count_ops(e.expr)
        if not verdict.ok:
            tracer.counts["symexpr.is_zero.failed"] += 1
        elif rational:
            tracer.counts["symexpr.is_zero.sampled_exact"] += 1
        else:
            tracer.counts["symexpr.is_zero.sampled_float"] += 1

    return after


def layer_metrics(self_s: dict, calls: dict, counts: dict) -> dict:
    """Per-layer metric values from one process's spans and counts."""
    out = {}
    used = set()

    def take(*names):
        used.update(names)
        return sum(self_s.get(n, 0.0) for n in names)

    out["checks.build_s"] = take("checks.build", "checks.geometry", "checks.induced")
    out["checks.build_total_s"] = counts.get("checks.build_total_s", 0.0)
    for check in CHECK_NAMES:
        out[f"checks.{check}_s"] = take(f"checks.{check}")
    for layer, names in NAMED_SPANS.items():
        for name in names:
            out[f"{layer}.{name}_s"] = take(f"{layer}.{name}")
    for span in COUNTED_SPANS:
        out[f"{span}.calls"] = calls.get(span, 0)
    out["sympy.diff_s"] = take("sympy.diff")
    for key in ZERO_TEST_COUNTS + ("exact_s", "float_s"):
        out[f"symexpr.is_zero.{key}"] = counts.get(f"symexpr.is_zero.{key}", 0)
    out["numeric_s"] = take(*(n for n in self_s if n.startswith("numeric.")))
    out["report.emit_s"] = take("report.emit_report")
    for layer in ("checks", "hypersurface", "calculus", "courant", "symexpr"):
        out[f"{layer}.other_s"] = take(
            *(n for n in self_s if n.startswith(f"{layer}.") and n not in used)
        )
    out["trace.spans_s"] = sum(self_s.values())
    return out
