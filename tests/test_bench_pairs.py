"""``tools/bench_pairs.py`` writes its record, then fails on a bad run.

Each side is a stand-in checkout whose ``bench/run.py`` prints one fixed
result line, so the test runs no benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _checkout(root: Path, attempted: int, failed: int, correct: bool = True) -> Path:
    (root / "bench").mkdir(parents=True)
    result = {"metrics": {"setup_s": {"value": 1.0}}, "attempted": attempted, "failed": failed,
              "correct": correct}
    (root / "bench" / "run.py").write_text(f"print({json.dumps(json.dumps(result))})\n")
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}))
    return root


@pytest.mark.parametrize("parent,change,code", [
    ((10, 0), (10, 0), 0),
    ((10, 1), (20, 2), 0),  # the same share fails on both sides
    ((10, 0), (10, 1), 1),
    ((10, 0, False), (10, 0), 1),
    ((10, 0), (10, 0, False), 1),
])
def test_exit_status_reads_the_record(tmp_path, parent, change, code):
    out = tmp_path / "pairs.json"
    done = subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(_checkout(tmp_path / "p", *parent)),
         "--change", str(_checkout(tmp_path / "c", *change)), "--workload", "w",
         "--pairs", "2", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == code, done.stderr
    record = json.loads(out.read_text())["workloads"]["w"]
    assert record["attempted"] == {"parent": 2 * parent[0], "change": 2 * change[0]}
    assert record["failed"] == {"parent": 2 * parent[1], "change": 2 * change[1]}
    assert record["correct"] == {"parent": parent[2:] != (False,), "change": change[2:] != (False,)}
