"""Cold-start layers of ggwb: interpreter start, ``import ggwb``, builtin load.

    python3 tools/import_time.py SRC_DIR [SRC_DIR ...] [--reps 31]

Each SRC_DIR holds the ``ggwb`` package (the ``src`` directory of a
checkout, e.g. one made with ``git archive <commit> | tar -x -C DIR``).
Its bytecode is compiled first, as ``bench/run.py`` does, so the times are
those of an installed package.  Every repetition visits each SRC_DIR in
turn, the first one rotating from repetition to repetition, and runs fresh
``python3 -s`` interpreters with ``PYTHONHASHSEED=0`` and no other
``PYTHON*`` variable:

* ``bare`` — the wall time of an interpreter that runs ``pass``;
* ``import`` — the time of ``import ggwb``, inside the interpreter;
* ``load.<name>`` — the time of ``scenario.load_builtin(name, 0)`` after
  ``from ggwb.workbench import checks, report, scenario`` (the imports of
  ``bench/worker.py``), one interpreter per builtin.  ``import`` is timed in
  these same interpreters, before the workbench import.

It prints the median and quartiles of each time, in milliseconds, per
SRC_DIR.  The last line of standard output is one JSON object:
``{"reps": N, "unit": "ms", "checkouts": {SRC_DIR: {time: {"q1", "median",
"q3"}}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ENV = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
ENV["PYTHONHASHSEED"] = "0"

_NAMES = "from ggwb.workbench.scenario import builtin_names; print(*builtin_names())"

_LOAD = """
import sys, time
t0 = time.perf_counter()
import ggwb
t1 = time.perf_counter()
from ggwb.workbench import checks, report, scenario
t2 = time.perf_counter()
scenario.load_builtin(sys.argv[1], 0)
t3 = time.perf_counter()
print(t1 - t0, t3 - t2)
"""


def _python(src: Path, code: str, *args: str) -> str:
    return subprocess.run(
        [sys.executable, "-s", "-c", code, *args], env={**ENV, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    ).stdout


def quartiles(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 3), "median": round(q2, 3), "q3": round(q3, 3)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, nargs="+", help="a directory holding ggwb")
    parser.add_argument("--reps", type=int, default=31)
    args = parser.parse_args(argv)
    if args.reps < 2:
        parser.error(f"--reps must be at least 2 for the quartiles, got {args.reps}")

    names = {}
    for src in args.src:
        subprocess.run([sys.executable, "-I", "-m", "compileall", "-q", str(src / "ggwb")],
                       check=True)
        names[src] = _python(src, _NAMES).split()
    times = {src: {"bare": [], "import": [], **{f"load.{n}": [] for n in names[src]}}
             for src in args.src}
    for k in range(args.reps):
        for src in args.src[k % len(args.src):] + args.src[:k % len(args.src)]:
            t0 = time.perf_counter()
            _python(src, "pass")
            times[src]["bare"].append(1000 * (time.perf_counter() - t0))
            for name in names[src]:
                imported, loaded = map(float, _python(src, _LOAD, name).split())
                times[src]["import"].append(1000 * imported)
                times[src][f"load.{name}"].append(1000 * loaded)

    record = {"reps": args.reps, "unit": "ms", "checkouts": {}}
    for src in args.src:
        stats = {key: quartiles(values) for key, values in times[src].items()}
        record["checkouts"][str(src)] = stats
        for key, q in stats.items():
            print(f"{src}  {key:<30} {q['median']:8.2f} ms  [{q['q1']:.2f}-{q['q3']:.2f}]")
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
