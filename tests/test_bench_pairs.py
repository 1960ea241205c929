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


def _checkout(root: Path, attempted: int, failed: int, correct: bool = True,
              script: str = "") -> Path:
    (root / "bench").mkdir(parents=True)
    result = {"metrics": {"setup_s": {"value": 1.0}}, "attempted": attempted, "failed": failed,
              "correct": correct}
    (root / "bench" / "run.py").write_text(
        script or f"print({json.dumps(json.dumps(result))})\n")
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}))
    return root


def _pairs(tmp_path, parent: Path, change: Path, pairs: int = 2):
    return subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(parent), "--change", str(change),
         "--workload", "w", "--pairs", str(pairs), "--out", str(tmp_path / "pairs.json")],
        capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("parent,change,code", [
    ((10, 0), (10, 0), 0),
    ((10, 1), (20, 2), 0),  # the same share fails on both sides
    ((10, 0), (10, 1), 1),
    ((10, 0, False), (10, 0), 1),
    ((10, 0), (10, 0, False), 1),
])
def test_exit_status_reads_the_record(tmp_path, parent, change, code):
    done = _pairs(tmp_path, _checkout(tmp_path / "p", *parent), _checkout(tmp_path / "c", *change))
    assert done.returncode == code, done.stderr
    record = json.loads((tmp_path / "pairs.json").read_text())["workloads"]["w"]
    assert record["attempted"] == {"parent": 2 * parent[0], "change": 2 * change[0]}
    assert record["failed"] == {"parent": 2 * parent[1], "change": 2 * change[1]}
    assert record["correct"] == {"parent": parent[2:] != (False,), "change": change[2:] != (False,)}


def test_a_crashed_run_is_recorded_and_the_pairs_go_on(tmp_path):
    """A run.py that exits 3 is an incorrect run of its side; every pair
    still runs, the record is written, and the tool exits 1."""
    crash = ("import sys\n"
             "print('partial', file=sys.stderr)\nprint('boom', file=sys.stderr)\nsys.exit(3)\n")
    done = _pairs(tmp_path, _checkout(tmp_path / "p", 10, 0),
                  _checkout(tmp_path / "c", 10, 0, script=crash), pairs=3)
    assert done.returncode == 1, done.stderr
    assert "change run of pair 0 exited 3: boom" in done.stderr
    record = json.loads((tmp_path / "pairs.json").read_text())["workloads"]["w"]
    assert record["correct"] == {"parent": True, "change": False}
    assert record["crashes"] == {"parent": [], "change": [
        {"pair": k, "exit": 3, "stderr": "boom"} for k in range(3)]}
    setup = record["metrics"]["setup_s"]
    assert setup["parent"]["values"] == [1.0] * 3 and setup["parent"]["median"] == 1.0
    assert setup["change"]["values"] == [None] * 3 and setup["change"]["median"] is None
    assert setup["change_wins"] == 0


def test_fewer_than_two_pairs_is_a_usage_error(tmp_path):
    done = _pairs(tmp_path, _checkout(tmp_path / "p", 10, 0), _checkout(tmp_path / "c", 10, 0),
                  pairs=1)
    assert done.returncode == 2
    assert "--pairs must be at least 2" in done.stderr
    assert not (tmp_path / "pairs.json").exists()
