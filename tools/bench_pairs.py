"""Alternating parent/change pairs of the verdict-time benchmark.

    python3 tools/bench_pairs.py --parent PARENT_DIR --change . \\
        --workload builtins-rational --seed 0 --pairs 10 --out BENCH_11.json

PARENT_DIR is a checkout of the parent commit (``git archive <parent> |
tar -x -C PARENT_DIR``).  Each pair runs ``python3 bench/run.py --workload W
--seed S --seconds T`` once in the parent checkout and once in the change
checkout, the side that goes first alternating from pair to pair.  For each
end-to-end metric of ``BENCHMARK.json`` the record keeps every value, the
median and quartiles of each side, and the number of pairs the change wins
(its value is better than the parent's in the same pair).  The record of
the workload is merged into ``--out``, so one file holds every workload.
It also keeps, per side, the operations attempted and failed and whether
every run was correct.  A run whose ``bench/run.py`` exits non-zero is an
incorrect run of its side: its metric values are null, and ``crashes``
keeps its pair, exit code and last stderr line.  The exit status is 1, after
the record is written, when a run is incorrect or the change fails a larger
share of its operations than the parent, else 0.  ``--pairs`` must be at
least 2, so that each side has quartiles.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode:
        last = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"correct": False, "attempted": 0, "failed": 0,
                "crash": {"exit": proc.returncode, "stderr": last[0]}}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> dict:
    """Quartiles of the values that are not null; all null with none, and
    the value itself with one."""
    values = [v for v in values if v is not None]
    if len(values) < 2:
        return dict.fromkeys(("q1", "median", "q3"), values[0] if values else None)
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error(f"--pairs must be at least 2 for the quartiles, got {args.pairs}")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in sides}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_bench(sides[side], args.workload, args.seed, args.seconds)
            runs[side].append(result)
            if "crash" in result:
                print(f"pair {k} {side}: exit {result['crash']['exit']}", flush=True)
                continue
            values = {n: round(result["metrics"][n]["value"], 4) for n in metrics}
            print(f"pair {k} {side}: {values} failed {result['failed']}", flush=True)

    record = {"seed": args.seed, "seconds": args.seconds, "pairs": args.pairs, "metrics": {}}
    for name, better in metrics.items():
        values = {side: [r["metrics"][name]["value"] if "metrics" in r else None
                         for r in runs[side]] for side in sides}
        lower = better == "lower"
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"])
                   if p is not None and c is not None)
        record["metrics"][name] = {
            "better": better,
            **{side: {"values": values[side], **quartiles(values[side])} for side in sides},
            "change_wins": wins,
        }
    for key in ("attempted", "failed"):
        record[key] = {side: sum(r[key] for r in runs[side]) for side in sides}
    record["correct"] = {side: all(r["correct"] for r in runs[side]) for side in sides}
    record["crashes"] = {side: [{"pair": k, **r["crash"]} for k, r in enumerate(runs[side])
                                if "crash" in r] for side in sides}

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("workloads", {})[args.workload] = record
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    share = {side: record["failed"][side] / max(1, record["attempted"][side]) for side in sides}
    problems = [f"incorrect {side} run" for side in sides if not record["correct"][side]]
    problems += [f"{side} run of pair {c['pair']} exited {c['exit']}: {c['stderr']}"
                 for side in sides for c in record["crashes"][side]]
    if share["change"] > share["parent"]:
        problems.append(f"the change fails {share['change']:.2%} of its operations, "
                        f"the parent {share['parent']:.2%}")
    for problem in problems:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
