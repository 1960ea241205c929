"""The benchmark's own checks can fail: run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import cases  # noqa: E402
import run  # noqa: E402
import spantrace  # noqa: E402
import verify  # noqa: E402


@pytest.fixture(scope="module")
def s3_output():
    out, error = run.run_worker("S3", 5, trace=False, setup_only=False)
    assert error is None
    return out


def _problems(out, state=None):
    return run.check_job("S3", 5, out, None, {} if state is None else state, "S3:5")


def _with_report(out, edit):
    report = json.loads(out["report"])
    edit(report)
    changed = dict(out)
    changed["report"] = json.dumps(report, sort_keys=True, indent=2) + "\n"
    return changed


def _first_failed_item(report):
    for entry in report["checks"]:
        for item in entry.get("items", []):
            if item["verdict"] == "Failed":
                return entry, item
    raise AssertionError("S3 has Failed items")


def test_real_report_passes(s3_output):
    problems, whole = _problems(s3_output)
    assert problems == [None] * 7
    assert whole == []


def test_flipped_verdict_is_a_failed_operation(s3_output):
    def flip(report):
        entry = report["checks"][0]  # almost_contact: expected to pass
        entry["verdict"] = "Failed"
        entry["items"][0]["verdict"] = "Failed"
        entry["items"][0]["witness"] = {"point": {"x": "1", "y": "2", "z": "3"}, "value": "1"}

    problems, _ = _problems(_with_report(s3_output, flip))
    assert problems[0] is not None and "expected a pass" in problems[0]
    assert problems[1:] == [None] * 6


def test_failed_item_without_witness_is_a_failed_operation(s3_output):
    def strip(report):
        del _first_failed_item(report)[1]["witness"]

    problems, _ = _problems(_with_report(s3_output, strip))
    assert sum(p is not None for p in problems) == 1
    assert any(p and "without a witness" in p for p in problems)


@pytest.mark.parametrize(
    "point, value, reason",
    [
        ({"x": "1/2", "y": "1/3", "z": "1/5"}, "0", "not nonzero"),
        ({"x": "1/2", "y": "1/3"}, "1", "no chart"),
    ],
)
def test_bad_witness_is_a_failed_operation(s3_output, point, value, reason):
    def spoil(report):
        _first_failed_item(report)[1]["witness"] = {"point": point, "value": value}

    problems, _ = _problems(_with_report(s3_output, spoil))
    assert sum(p is not None for p in problems) == 1
    assert any(p and reason in p for p in problems)


def test_witness_outside_the_chart_ranges():
    charts = verify._charts(json.loads((run.BUILTIN_DIR / "s4.json").read_text()))
    inside = {"point": {"a": "1", "b": "1", "c": "1"}, "value": "1.0e-3"}
    outside = {"point": {"a": "4", "b": "1", "c": "1"}, "value": "1.0e-3"}
    assert verify.witness_problem(inside, charts, 1e-9) is None
    assert "outside" in verify.witness_problem(outside, charts, 1e-9)


def test_changed_output_at_the_same_seed_is_a_failed_operation(s3_output):
    state = {}
    assert _problems(s3_output, state) == ([None] * 7, [])

    def relabel(report):
        report["checks"][6]["items"][0]["label"] += " (changed)"

    problems, whole = _problems(_with_report(s3_output, relabel), state)
    assert problems[:6] == [None] * 6
    assert "differs" in problems[6]
    assert whole and "differs" in whole[0]


def test_report_for_another_seed_is_incorrect(s3_output):
    _, whole = run.check_job("S3", 6, s3_output, None, {}, "S3:6")
    assert any("seed" in w for w in whole)


def test_raising_job_fails_every_operation():
    problems, _ = run.check_job("S3", 5, None, "exit 1: boom", {}, "S3:5")
    assert len(problems) == 7 and all("boom" in p for p in problems)


def _perturbed_case():
    return next(c for c in cases.generate(11) if c.perturbed)


def _witness_result(case, point, value):
    return {
        "verdict": "Failed",
        "witness": {
            "point": {c: str(v) for c, v in zip(case.coords, point)},
            "value": str(value),
        },
    }


def test_perturbed_case_residual_is_checked():
    case = _perturbed_case()
    point = tuple(Fraction(k + 1, 7) for k in range(case.dim))
    _, value = cases.expected_residual(case, point)
    assert verify.case_problem(case, _witness_result(case, point, value)) is None
    wrong = verify.case_problem(case, _witness_result(case, point, value + 1))
    assert wrong is not None and "expected" in wrong
    assert "without a witness" in verify.case_problem(case, {"verdict": "Failed"})
    assert "reported Proved" in verify.case_problem(case, {"verdict": "Proved"})


def test_identity_case_must_pass():
    case = next(c for c in cases.generate(11) if not c.perturbed)
    assert verify.case_problem(case, {"verdict": "Proved"}) is None
    assert verify.case_problem(case, {"verdict": "Failed"}) is not None
    assert "raised" in verify.case_problem(case, {"error": "ExprError: x"})


def test_cases_are_seeded():
    assert cases.generate(3) == cases.generate(3)
    assert cases.generate(3) != cases.generate(4)
    counts = [sum(c.dim == d for c in cases.generate(0)) for d in (3, 5)]
    assert counts == [5, 5]
    assert sum(c.perturbed for c in cases.generate(0)) == 2


def test_polynomial_helpers():
    p = {(2, 1): 3, (0, 0): -2}  # 3 x1^2 x2 - 2
    assert cases.to_text(p, ("x1", "x2")) == "-2 + 3*x1^2*x2"
    assert cases.evaluate(p, (Fraction(1, 2), Fraction(2))) == Fraction(-1, 2)
    assert cases.derivative(p, 0) == {(1, 1): 6}


def test_self_times_add_up_to_top_level_time():
    tracer = spantrace.Tracer()
    inner = tracer.wrap("layer.inner", lambda: sum(range(20000)), group="g")
    outer = tracer.wrap("layer.outer", lambda: [inner() for _ in range(3)], group="g")
    top = tracer.wrap("layer.top", lambda: [outer(), inner()])
    t0 = spantrace.perf_counter()
    top()
    total = spantrace.perf_counter() - t0
    assert tracer.calls == {"layer.inner": 4, "layer.outer": 1, "layer.top": 1}
    assert all(v >= 0 for v in tracer.self_s.values())
    assert sum(tracer.self_s.values()) == pytest.approx(total, rel=0.05, abs=1e-4)
    # inner calls inside outer count once, through outer; the last one alone
    group = tracer.self_s["layer.outer"] + tracer.self_s["layer.inner"]
    assert tracer.counts["g_total_s"] == pytest.approx(group, rel=0.05, abs=1e-4)


def test_install_traces_the_layers():
    code = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import ggwb, spantrace
tracer = spantrace.Tracer()
spantrace.install(tracer)
from ggwb import courant, symexpr
from ggwb.calculus import ChartManifold, OneForm, VectorField
R2 = ChartManifold("R2", ["x", "y"])
A = courant.BigSection(VectorField(R2, ["x*y", "1"]), OneForm(R2, ["y", "x^2"]))
B = courant.BigSection(VectorField(R2, ["y", "x"]), OneForm(R2, ["1", "y^2"]))
comps = courant.courant_bracket(A, B).components()
symexpr.is_zero_all(comps[:1], symexpr.ZeroPolicy(seed=1))
print(json.dumps(spantrace.layer_metrics(tracer.self_s, tracer.calls, tracer.counts)))
"""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code, str(run.SRC), str(BENCH)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    m = json.loads(proc.stdout)
    assert m["courant.courant_bracket.calls"] == 1
    assert m["sympy.diff.calls"] > 0
    assert m["symexpr.canon.calls"] > 0
    assert m["symexpr.is_zero.calls"] == 1
    assert m["symexpr.is_zero.failed"] == 1
    assert m["symexpr.is_zero.samples"] >= 1
    assert m["symexpr.is_zero.residual_ops"] > 0
