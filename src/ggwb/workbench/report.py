"""Reports: deterministic JSON (schema 2) and human-readable text.

JSON output is byte-identical for identical (scenario, seed): keys are
sorted, numbers rendered canonically, and wall-clock timing is kept out of
the JSON payload (it appears in the text format only).
"""

from __future__ import annotations

import json

from ..symexpr import ZeroPolicy
from ..verdict import VerdictKind

SCHEMA_VERSION = 2


class Report:
    def __init__(self, scenario: str, policy: ZeroPolicy, runs: list):
        self.scenario = scenario
        self.policy = policy
        self.runs = runs  # list[CheckRun]

    @property
    def any_failed(self) -> bool:
        return any(
            r.result.skipped is None and not r.result.verdict.ok for r in self.runs
        )

    @property
    def overall(self) -> str:
        return "fail" if self.any_failed else "pass"

    def exit_code(self) -> int:
        return 1 if self.any_failed else 0

    def as_dict(self) -> dict:
        checks = []
        for r in self.runs:
            entry = {
                "check": r.check,
                "structure": r.structure,
            }
            if r.result.skipped is not None:
                entry["skipped"] = r.result.skipped
            else:
                entry["verdict"] = r.result.verdict.kind.value
                items = []
                for label, v in r.result.items:
                    item = {"label": label, "verdict": v.kind.value}
                    if v.witness is not None:
                        item["witness"] = v.witness.as_dict()
                    if v.detail:
                        item["detail"] = v.detail
                    items.append(item)
                entry["items"] = items
            checks.append(entry)
        return {
            "schema": SCHEMA_VERSION,
            "scenario": self.scenario,
            "policy": {
                "seed": self.policy.seed,
                "samples": self.policy.samples,
                "tol": repr(self.policy.tol),
            },
            "checks": checks,
            "overall": self.overall,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [
            f"scenario: {self.scenario}",
            f"policy: seed={self.policy.seed} samples={self.policy.samples} "
            f"tol={self.policy.tol}",
            "",
        ]
        for r in self.runs:
            if r.result.skipped is not None:
                lines.append(f"[{r.check} @ {r.structure}] skipped: {r.result.skipped}")
                continue
            v = r.result.verdict
            lines.append(
                f"[{r.check} @ {r.structure}] {v.kind.value}  ({r.seconds:.2f}s)"
            )
            for label, item in r.result.items:
                mark = {
                    VerdictKind.PROVED: "ok ",
                    VerdictKind.NUMERIC: "ok~",
                    VerdictKind.FAILED: "XX ",
                }[item.kind]
                line = f"    {mark} {label}: {item.kind.value}"
                if item.witness is not None:
                    line += f"  [{item.witness}]"
                if item.detail:
                    line += f"  ({item.detail})"
                lines.append(line)
        lines.append("")
        lines.append(f"overall: {self.overall}")
        return "\n".join(lines) + "\n"


def emit_report(report: Report, format: str = "text") -> str:
    if format == "json":
        return report.to_json()
    if format == "text":
        return report.to_text()
    raise ValueError(f"unknown report format '{format}'")
