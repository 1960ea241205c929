"""``tools/layer_counts.py`` counts one round of builtins and ends its output
with one JSON line."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_layer_counts_reports_the_integer_traffic():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "layer_counts.py"), str(ROOT / "src"),
         "--builtins", "S6b"],
        capture_output=True, text=True, check=True, timeout=300,
        env={**os.environ, "PYTHONHASHSEED": "0"})
    counts = json.loads(done.stdout.splitlines()[-1])
    assert counts["contract_calls"] > 0 and counts["products"] >= counts["field_sums"] > 0
    for kind in ("field_sums", "derivatives", "field_ops"):
        assert 0 < counts[f"{kind}.integer"] <= counts[kind]
    assert "symexpr._reduced.hits" in counts
    # S6b passes every zero test, and the build of its induced generalized
    # metric (hypersurface.induced_gen_structure) certifies G at its 5 points
    assert counts["zero_tests.proved"] > 0 and "zero_tests.failed" not in counts
    assert counts["certificates.no_witness"] == 5 and "certificates.witness" not in counts
    # each sub-check that several of S6b's checks read is computed once
    # (check_normal_classical by the CRFK consequences, J_plus being J_minus),
    # and S6b runs no normality check of a (2,1)-structure
    assert {k: v for k, v in counts.items() if k.startswith("subchecks.")} == {
        "subchecks.check_almost_hermitian": 1, "subchecks.check_gen_kahler": 1,
        "subchecks.check_hyp_CRF": 1, "subchecks.check_normal_classical": 1}
