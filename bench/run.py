"""Verdict-time benchmark of ggwb: how long a user waits for verdicts.

    python3 bench/run.py --workload builtins-rational --seed 0 --seconds 10 --trace 0

Workloads:
  builtins-rational        cold ``ggwb check`` of S1, S2, S5 and S6b
  builtins-transcendental  cold ``ggwb check`` of S3 and S4
  courant-random           seeded anomaly-identity cases of the Courant bracket

Every job runs in a fresh interpreter (``worker.py``), one at a time, so each
pays the cold caches a ``ggwb check`` user pays.  A round runs every job of
the workload once; the run repeats whole rounds until ``--seconds`` have
passed, at least one.  Every operation (a check run of a builtin, or one
identity case) is checked by ``verify.py``; an operation that raises,
contradicts its expected answer, lacks a witness, carries a witness that
does not check out, or whose output differs from an earlier run at the same
seed on the same sources, counts as failed.

The last line of standard output is one JSON object.  With ``--trace 0`` it
holds the end-to-end metrics ``setup_s``, ``verdict_s`` and ``peak_rss_mb``;
with ``--trace 1`` the per-layer metrics of ``spantrace.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUILTIN_DIR = SRC / "ggwb" / "workbench" / "builtin"
STATE = BENCH / ".state" / "outputs.json"
sys.path.insert(0, str(BENCH))

import cases  # noqa: E402
import spantrace  # noqa: E402
import verify  # noqa: E402

WORKLOADS = {
    "builtins-rational": ("S1", "S2", "S5", "S6b"),
    "builtins-transcendental": ("S3", "S4"),
    "courant-random": ("courant",),
}
SETUP_SAMPLES = 3  # set-up is timed this many times per job, median kept
WORKER_TIMEOUT_S = 160
# sympy's work depends on hash order: one S4 run took 50.2 s and 50.4 s
# under hash seed 0 and 53.2 s under hash seed 1, so the seed is pinned.
WORKER_ENV = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
WORKER_ENV["PYTHONHASHSEED"] = "0"


def _builtin_doc(name: str) -> dict:
    return json.loads((BUILTIN_DIR / f"{name.lower()}.json").read_text())


def _sources_digest() -> str:
    """Outputs are compared across runs only on identical sources."""
    h = hashlib.sha256()
    files = sorted(p for p in (SRC / "ggwb").rglob("*") if p.suffix in (".py", ".json"))
    for p in files + [BENCH / "worker.py", BENCH / "cases.py"]:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def run_worker(job: str, seed: int, trace: bool, setup_only: bool):
    """(result dict or None, error text)."""
    cmd = [
        sys.executable, "-s", str(BENCH / "worker.py"),
        "courant" if job == "courant" else "scenario", job, "--seed", str(seed),
    ]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=WORKER_ENV, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {WORKER_TIMEOUT_S} s"
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["(no output)"])[-1]
        return None, f"exit {proc.returncode}: {tail}"
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["t_ready"] - t_spawn
    return out, None


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_job(job: str, seed: int, out, error, state: dict, key: str):
    """(per-operation problems, whole-run problems) of one job's output."""
    if job == "courant":
        expected = cases.generate(seed)
        results = out["cases"] if out else []
        problems = [
            f"raised {error}" if out is None else verify.case_problem(
                case, results[k] if k < len(results) else None
            )
            for k, case in enumerate(expected)
        ]
        run_problems = [] if out is None or len(results) == len(expected) else [
            f"{len(results)} case results for {len(expected)} cases"
        ]
        outputs = [json.dumps(r, sort_keys=True) for r in results]
        whole = json.dumps(results, sort_keys=True)
    else:
        doc = _builtin_doc(job)
        report = json.loads(out["report"]) if out else None
        problems = verify.report_problems(doc["name"], doc, report)
        if out is None:
            problems = [f"raised {error}"] * len(problems)
        header = None if report is None else verify.report_header_problem(
            doc["name"], seed, doc, report
        )
        run_problems = [] if header is None else [header]
        outputs = [json.dumps(c, sort_keys=True) for c in (report or {}).get("checks", [])]
        whole = out["report"] if out else ""
    if out is not None:
        digests = [_digest(o) for o in outputs]
        earlier = state.setdefault(key, {"report": _digest(whole), "ops": digests})
        for k, d in enumerate(digests):
            if k < len(problems) and problems[k] is None and (
                k >= len(earlier["ops"]) or earlier["ops"][k] != d
            ):
                problems[k] = "output differs from an earlier run at this seed"
        if earlier["report"] != _digest(whole):
            run_problems.append("report differs from an earlier run at this seed")
    return problems, run_problems


def _load_state() -> dict:
    try:
        return json.loads(STATE.read_text())
    except (OSError, ValueError):
        return {}


def _save_state(state: dict) -> None:
    STATE.parent.mkdir(exist_ok=True)
    tmp = STATE.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, sort_keys=True))
    os.replace(tmp, STATE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ggwb" / "__init__.py").is_file():
        print(f"bench: no ggwb sources under {SRC}", file=sys.stderr)
        return 2
    subprocess.run(
        [sys.executable, "-I", "-m", "compileall", "-q", str(SRC / "ggwb"), str(BENCH)],
        cwd=ROOT, check=True, capture_output=True,
    )
    jobs = WORKLOADS[args.workload]
    trace = bool(args.trace)
    digest = _sources_digest()
    state = _load_state()

    attempted = failed = 0
    run_problems = []
    rounds = []  # one {job: output} per round
    setups = {job: [] for job in jobs}
    peak_kb = 0
    start = time.monotonic()
    while True:
        outputs = {}
        for job in jobs:
            out, error = run_worker(job, args.seed, trace, setup_only=False)
            key = f"{job}:{args.seed}:{digest}"
            problems, whole = check_job(job, args.seed, out, error, state, key)
            attempted += len(problems)
            for problem in problems:
                if problem is not None:
                    failed += 1
                    print(f"failed operation [{job}]: {problem}")
            run_problems += whole
            if out is not None:
                outputs[job] = out
                setups[job].append(out["setup_s"])
                peak_kb = max(peak_kb, out["peak_rss_kb"])
        rounds.append(outputs)
        if time.monotonic() - start >= args.seconds:
            break
    _save_state(state)
    if not any(rounds):
        print("bench: no job produced an output", file=sys.stderr)
        return 2

    if trace:
        metrics = _layer_metrics(rounds)
    else:
        for job in jobs:
            while setups[job] and len(setups[job]) < SETUP_SAMPLES:
                out, _ = run_worker(job, args.seed, trace=False, setup_only=True)
                if out is None:
                    break
                setups[job].append(out["setup_s"])
        metrics = {
            "setup_s": (sum(statistics.median(s) for s in setups.values() if s), "s"),
            "verdict_s": (
                statistics.median(sum(o["verdict_s"] for o in r.values()) for r in rounds),
                "s",
            ),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }
        for job in jobs:
            per_round = [r[job]["verdict_s"] for r in rounds if job in r]
            if per_round:
                print(f"reference {job}: verdict_s {statistics.median(per_round):.3f}"
                      f"  setup_s {statistics.median(setups[job]):.3f}")
    for problem in run_problems:
        print(f"incorrect run: {problem}")
    result = {
        "correct": not run_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _layer_metrics(rounds: list) -> dict:
    """Per-layer metrics: summed over a round's jobs, median over rounds."""
    per_round = []
    for outputs in rounds:
        total = {}
        for out in outputs.values():
            spans = out["spans"]
            values = spantrace.layer_metrics(spans["self_s"], spans["calls"], spans["counts"])
            values["scenario.load_s"] = out["load_s"]
            values["trace.verdict_s"] = out["verdict_s"]
            for name, v in values.items():
                total[name] = total.get(name, 0) + v
        total["trace.outside_s"] = total["trace.verdict_s"] - total["trace.spans_s"]
        per_round.append(total)
    names = sorted({n for r in per_round for n in r})
    return {
        n: (statistics.median(r.get(n, 0) for r in per_round),
            "count" if not n.endswith("_s") else "s")
        for n in names
    }


if __name__ == "__main__":
    raise SystemExit(main())
