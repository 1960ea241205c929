"""``tools/layer_counts.py`` counts one round of builtins and ends its output
with one JSON line."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _counts(builtins: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "layer_counts.py"), str(ROOT / "src"),
         "--builtins", builtins],
        capture_output=True, text=True, check=True, timeout=300,
        env={**os.environ, "PYTHONHASHSEED": "0"})
    return json.loads(done.stdout.splitlines()[-1])


def test_layer_counts_reports_the_integer_traffic():
    counts = _counts("S6b")
    assert counts["contract_calls"] > 0 and counts["products"] >= counts["field_sums"] > 0
    assert counts["contract_terms"] >= counts["contract_calls"] and counts["merges"] > 0
    for kind in ("field_sums", "derivatives", "field_ops"):
        assert 0 < counts[f"{kind}.integer"] <= counts[kind]
    assert "symexpr._reduced.hits" in counts
    # S6b passes every zero test, and the build of its induced generalized
    # metric (hypersurface.induced_gen_structure) certifies G at its 5 points
    assert counts["zero_tests.proved"] > 0 and "zero_tests.failed" not in counts
    assert counts["certificates.no_witness"] == 5 and "certificates.witness" not in counts
    # each sub-check and build that several of S6b's checks read is computed
    # once (check_normal_classical by the CRFK consequences and the induced
    # almost contact structure once, J_plus being J_minus; check_two_one by
    # the build of the induced generalized structure and the two_one check),
    # and S6b runs no normality check of a (2,1)-structure
    assert {k: v for k, v in counts.items() if k.startswith("subchecks.")} == {
        "subchecks.check_almost_hermitian": 1, "subchecks.check_gen_kahler": 1,
        "subchecks.check_hyp_CRF": 1, "subchecks.check_normal_classical": 1,
        "subchecks.induced_almost_contact": 1, "subchecks.induced_gen_structure": 1,
        "subchecks.check_two_one": 1}


def test_layer_counts_counts_a_fused_pass_once_with_its_terms():
    """S1's Courant brackets are fused passes: the vector half of one
    bracket is one pass of 2 terms, its covector half one of 6."""
    counts = _counts("S1")
    assert counts["contract_terms"] > counts["contract_calls"] > 0
    assert counts["merges"] > 0
