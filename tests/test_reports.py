"""Byte-identity gate for the builtin reports.

The JSON report of every builtin at seed 0 must keep its bytes unless a
change means to change a verdict; such a change updates the digests below
and says so.  The digests are those of the README recipe
(``PYTHONHASHSEED=0 GGWB_SEED=0 ggwb check NAME --format json``); the six
builtins run in one subprocess, so the hash seed is pinned for them.
"""

import os
import subprocess
import sys
from pathlib import Path

DIGESTS = {
    "S1-flat-cosymplectic": "b5b60b7c4e0387136f9deec87a1a96e9271eae7b6bbf643c971a9dfde89adefc",
    "S2-sasakian-heisenberg": "d9e2db8ddd7a50cffd37c7ae338daf5ef1592d1378e03ed48771a24ecde339d1",
    "S3-exp-deformation": "e23a857173a9f21affba356383a48249a135e49615ea9641d4e8bc9368e91f0b",
    "S4-sphere-in-C2": "0a9ae7238cacb6fba97b570282166e6547b78ee8491f6db038d31d4a80db078c",
    "S5-NxT2": "9308c56e07ed2e0f49e7b62fb60e21902eba9bc0ae4e3568c32125bdc030e67e",
    "S6b-hyperplane-in-C2": "911173f2288788855a52b0e4b8dc926f14c72b82115822c7bff68a5d0f1c97f1",
}

_RUN = """
import hashlib, io, sys
from contextlib import redirect_stdout
from ggwb.workbench.cli import main

for name in sys.argv[1:]:
    out = io.StringIO()
    with redirect_stdout(out):
        main(["check", name, "--format", "json"])
    print(name, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


def test_builtin_reports_are_byte_identical():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONHASHSEED="0", GGWB_SEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _RUN, *DIGESTS], env=env, capture_output=True, text=True,
        check=True,
    )
    got = dict(line.split() for line in done.stdout.splitlines())
    assert got == DIGESTS
