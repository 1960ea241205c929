"""Checks of the program's outputs against answers worked out apart from it.

Builtins: the expected answer of every check comes from the README table of
built-in scenarios and the acceptance criteria, not from a recorded run.
The comparison is pass (Proved or NumericallySupported) against Failed, so
a later change that turns NumericallySupported into Proved still counts as
correct.  Every Failed item must carry a witness whose point lies on one of
the scenario's charts (or its product with the line, coordinate ``t``),
inside the declared ranges, with a nonzero residual.

courant-random: identities must pass; a perturbed case must be Failed with
a witness whose residual equals -g(A, B) d_j f at the witness point, for the
first j where that value is nonzero, computed by ``cases``.

Every function returns ``None`` for a correct output, or the reason it is
not.
"""

from __future__ import annotations

from fractions import Fraction

import cases

PASS = ("Proved", "NumericallySupported")
FAILED = "Failed"

# checks expected to end Failed; every other check of a builtin passes
EXPECTED_FAILED = {
    "S1-flat-cosymplectic": frozenset(),
    "S2-sasakian-heisenberg": frozenset(),
    "S3-exp-deformation": frozenset(
        {"normal", "normal_product", "classical_CRF", "normal21", "normal_explicit"}
    ),
    "S4-sphere-in-C2": frozenset({"hyp_CRFK"}),
    "S5-NxT2": frozenset({"binormal"}),
    "S6b-hyperplane-in-C2": frozenset(),
}


def _number(text: str):
    try:
        return Fraction(text)
    except ValueError:
        return complex(text) if text.endswith("j") else float(text)


def _charts(doc: dict) -> list:
    """(coords, ranges) of every chart a scenario file declares."""
    specs = list(doc.get("charts", [])) or [doc["chart"]]
    specs += [s["domain"] for s in doc["structures"] if "domain" in s]
    out = []
    for spec in specs:
        ranges = {
            c: tuple(Fraction(str(b)) for b in pair)
            for c, pair in spec.get("ranges", {}).items()
        }
        out.append((tuple(spec["coords"]), ranges))
        out.append((tuple(spec["coords"]) + ("t",), ranges))  # M x R
    return out


def witness_problem(witness, charts, tol: float) -> str | None:
    if witness is None:
        return "Failed item without a witness"
    try:
        point = {name: Fraction(v) for name, v in witness["point"].items()}
        value = _number(witness["value"])
    except (KeyError, ValueError, TypeError) as exc:
        return f"unreadable witness {witness!r}: {exc}"
    names = set(point)
    matching = [ranges for coords, ranges in charts if set(coords) == names]
    if not matching:
        return f"witness point {sorted(names)} is on no chart of the scenario"
    if not any(
        all(lo <= point[c] <= hi for c, (lo, hi) in ranges.items()) for ranges in matching
    ):
        return f"witness point {witness['point']} lies outside the chart's ranges"
    nonzero = value != 0 if isinstance(value, Fraction) else abs(value) > tol
    if not nonzero:
        return f"witness residual {witness['value']} is not nonzero"
    return None


def declared_checks(doc: dict) -> list:
    """(check, structure or None) in the order the scenario file lists them."""
    out = []
    for entry in doc["checks"]:
        if isinstance(entry, str):
            out.append((entry, None))
        else:
            out.append((entry["check"], entry.get("structure")))
    return out


def check_run_problem(scenario: str, declared, entry, charts, tol: float) -> str | None:
    """One operation of a builtin workload: one check run of the report."""
    check, structure = declared
    if entry is None or entry.get("check") != check:
        return f"no report entry for check {check}"
    if structure is not None and entry.get("structure") != structure:
        return f"{check} ran on {entry.get('structure')}, not {structure}"
    if "skipped" in entry:
        return f"{check} skipped: {entry['skipped']}"
    verdict = entry.get("verdict")
    want_failed = check in EXPECTED_FAILED[scenario]
    if verdict not in PASS + (FAILED,):
        return f"{check}: unknown verdict {verdict!r}"
    if (verdict == FAILED) != want_failed:
        return f"{check}: {verdict}, expected {'Failed' if want_failed else 'a pass'}"
    items = entry.get("items", [])
    worst = FAILED if any(i["verdict"] == FAILED for i in items) else (
        "NumericallySupported" if any(i["verdict"] == "NumericallySupported" for i in items)
        else "Proved"
    )
    if worst != verdict:
        return f"{check}: verdict {verdict} but its weakest item is {worst}"
    for item in items:
        if item["verdict"] == FAILED:
            problem = witness_problem(item.get("witness"), charts, tol)
            if problem is not None:
                return f"{check} / {item['label']}: {problem}"
    return None


def report_problems(name: str, doc: dict, report: dict | None) -> list:
    """Per-operation problems of one scenario's JSON report (None = correct)."""
    declared = declared_checks(doc)
    if report is None:
        return ["the scenario produced no report"] * len(declared)
    charts = _charts(doc)
    tol = float(report.get("policy", {}).get("tol", "1e-9"))
    entries = report.get("checks", [])
    out = []
    for k, decl in enumerate(declared):
        entry = entries[k] if k < len(entries) else None
        out.append(check_run_problem(name, decl, entry, charts, tol))
    return out


def report_header_problem(name: str, seed: int, doc: dict, report: dict) -> str | None:
    """Whole-report facts that belong to no single check run."""
    if report.get("scenario") != name:
        return f"report names scenario {report.get('scenario')!r}, not {name!r}"
    if report.get("policy", {}).get("seed") != seed:
        return f"report seed {report.get('policy', {}).get('seed')!r}, not {seed}"
    if len(report.get("checks", [])) != len(declared_checks(doc)):
        return "report has another number of check runs than the scenario declares"
    any_failed = any(c.get("verdict") == FAILED for c in report.get("checks", []))
    if report.get("overall") != ("fail" if any_failed else "pass"):
        return f"overall {report.get('overall')!r} disagrees with the check verdicts"
    return None


def case_problem(case: cases.Case, result: dict | None) -> str | None:
    """One operation of courant-random: one identity case."""
    if result is None:
        return "no result"
    if "error" in result:
        return f"raised {result['error']}"
    verdict = result.get("verdict")
    if not case.perturbed:
        return None if verdict in PASS else f"identity reported {verdict}"
    if verdict != FAILED:
        return f"perturbed case reported {verdict}"
    witness = result.get("witness")
    if witness is None:
        return "Failed without a witness"
    try:
        point = tuple(Fraction(witness["point"][c]) for c in case.coords)
        value = Fraction(witness["value"])
    except (KeyError, ValueError, TypeError) as exc:
        return f"unreadable witness {witness!r}: {exc}"
    if set(witness["point"]) != set(case.coords):
        return f"witness point {sorted(witness['point'])} is not on R^{case.dim}"
    expected = cases.expected_residual(case, point)
    if expected is None:
        return f"residual vanishes at the witness point {witness['point']}"
    j, want = expected
    if value != want:
        return f"witness residual {value}, expected {want} (component dx{j + 1})"
    return None
