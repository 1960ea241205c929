"""One measured process: import ggwb, build one job's inputs, produce its verdicts.

    PYTHONHASHSEED=0 python3 -s bench/worker.py scenario S4 --seed 0 [--trace] [--setup-only]
    PYTHONHASHSEED=0 python3 -s bench/worker.py courant - --seed 0 [--trace] [--setup-only]

A scenario job is what ``GGWB_SEED=<seed> ggwb check <name> --format json``
does: load the builtin, run its checks, render the JSON report.  A courant
job runs the cases of ``cases.generate(seed)``.  The last line of standard
output is one JSON object with the monotonic time at which the inputs were
ready, the verdict time, the peak resident memory, the outputs to check and,
when traced, the spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(SRC), str(BENCH)]


def _import_ggwb() -> None:
    import ggwb

    if not Path(ggwb.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"ggwb imported from {ggwb.__file__}, not from {SRC}")


def _scenario_job(name, seed, tracer, setup_only, out):
    from ggwb.workbench import checks, report, scenario

    t0 = time.perf_counter()
    sc = scenario.load_builtin(name, seed)
    out["load_s"] = time.perf_counter() - t0
    out["t_ready"] = time.monotonic()
    if setup_only:
        return
    if tracer is not None:
        tracer.reset()
    t0 = time.perf_counter()
    text = report.emit_report(checks.run_checks(sc), "json")
    out["verdict_s"] = time.perf_counter() - t0
    out["report"] = text


def _courant_job(seed, tracer, setup_only, out):
    import cases
    from ggwb import courant, symexpr
    from ggwb.calculus import ChartManifold, OneForm, VectorField

    def section(chart, vec, form):
        return courant.BigSection(
            VectorField(chart, [cases.to_text(p, chart.coords) for p in vec]),
            OneForm(chart, [cases.to_text(p, chart.coords) for p in form]),
        )

    charts = {}
    inputs = []
    for case in cases.generate(seed):
        chart = charts.setdefault(case.dim, ChartManifold(f"R{case.dim}", case.coords))
        inputs.append((
            section(chart, case.X, case.a),
            section(chart, case.Y, case.b),
            chart.scalar(cases.to_text(case.f, chart.coords)),
            case.perturbed,
        ))
    policy = symexpr.ZeroPolicy(seed=seed)
    out["load_s"] = 0.0
    out["t_ready"] = time.monotonic()
    if setup_only:
        return
    if tracer is not None:
        tracer.reset()
    results = []
    t0 = time.perf_counter()
    for A, B, f, perturbed in inputs:
        try:
            lhs = courant.courant_bracket(A, B * f)
            rhs = courant.courant_bracket(A, B) * f + B * A.X.apply(f)
            if not perturbed:
                rhs = rhs - courant.partial(f) * courant.pairing(A, B)
            v = symexpr.is_zero_all((lhs - rhs).components(), policy)
        except Exception as exc:  # one failed operation; the round goes on
            results.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        entry = {"verdict": v.kind.value}
        if v.witness is not None:
            entry["witness"] = v.witness.as_dict()
        results.append(entry)
    out["verdict_s"] = time.perf_counter() - t0
    out["cases"] = results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("job", choices=("scenario", "courant"))
    parser.add_argument("name")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_ggwb()
    tracer = None
    if args.trace:
        import spantrace

        tracer = spantrace.Tracer()
        spantrace.install(tracer)
    out = {}
    if args.job == "scenario":
        _scenario_job(args.name, args.seed, tracer, args.setup_only, out)
    else:
        _courant_job(args.seed, tracer, args.setup_only, out)
    if tracer is not None:
        out["spans"] = {
            "self_s": dict(tracer.self_s),
            "calls": dict(tracer.calls),
            "counts": dict(tracer.counts),
        }
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
