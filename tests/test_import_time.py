"""``tools/import_time.py`` times the cold-start layers of a checkout and
ends its output with one JSON line."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_import_time_reports_each_layer():
    src = ROOT / "src"
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "import_time.py"), str(src),
                           "--reps", "2"], capture_output=True, text=True, check=True,
                          timeout=300)
    record = json.loads(done.stdout.splitlines()[-1])
    assert (record["reps"], record["unit"], list(record["checkouts"])) == (2, "ms", [str(src)])
    from ggwb.workbench.scenario import builtin_names

    stats = record["checkouts"][str(src)]
    assert sorted(stats) == sorted(["bare", "import", *(f"load.{n}" for n in builtin_names())])
    for q in stats.values():
        assert 0 < q["q1"] <= q["median"] <= q["q3"]
