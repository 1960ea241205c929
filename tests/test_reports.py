"""Byte-identity gate for the builtin reports.

The JSON report of every builtin at seeds 0-3 must keep its bytes unless a
change means to change a verdict; such a change updates the digests below
and says so.  The digests are those of the README recipe
(``PYTHONHASHSEED=0 GGWB_SEED=k ggwb check NAME --format json``); the six
builtins at the four seeds run in one subprocess, so the hash seed is
pinned for them, and ``GGWB_SEED`` is set before each seed's runs.
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

# every seed; seeds 1-3 list their digests in the order of DIGESTS
DIGESTS_AT_SEED = {
    0: DIGESTS,
    1: dict(zip(DIGESTS, [
        "16956f914cef4331e39ddee08c9756daa8988225a5d120690a0584827cbeff8c",
        "af62158f6f2db71f9a4462238b00ce6b2040df4e2f0a6044dc581d19f2a3d945",
        "c29df74f6297ff88af9d003395647bafba4a2fdd12338c636863889981e334c4",
        "e3a97251b70ad8d832430883fcc475fddd847ec2666659c9c2dc9e09db0bf93e",
        "8f5ca5398d586718d638ad566e2d0cf557775be32374a5f44d06beac2b299171",
        "467a39a0c747d7665a02a64e99df3ab34c46ad797ed0cf02ea255ac4a97a32f4",
    ])),
    2: dict(zip(DIGESTS, [
        "7ed9d8b990b48dd9761df38c09850e6f0446856965796fbdb9d81d3272e0c4a5",
        "be96dff2224eafc2a1ab55521ed237a9af82a97c4459803311085a843e23c09d",
        "76de9994d788f4314a16244b19a71faab039e488e9d6bfbfb6c2ae857f1b8a8c",
        "bb45c8e75d5ffe1662f0bbb8c4d45073493071cd69479a4fbeac1de170d71971",
        "6cad050c98e6a3ebfe4c2bd83d8df932b3046d99d21477a5fba83ae3ebe01587",
        "12e623b03422e103d3778ce72a44de5375486fd6e359d3a7b858cd4c77d9446f",
    ])),
    3: dict(zip(DIGESTS, [
        "09913d6e753669a2b9efdfa62d0b8d03e285b065bb194396ad9d7e3b9615fad1",
        "51ac78472a1c4abd2a98f563a14e834387e3f1a6d364ac4514f910fd6caa1380",
        "55d02192494975f48a73fe5f4467b5dbc46c856b941efe94b1ecaceb767c7e43",
        "dde0ae37fcb0c82983fa8fe9fc067874b042502b5052efae1ed32228f64fb8e7",
        "5bfa6ca1ee819a2e3105b8233068668794e77eb3e3a3b0d892c78b1d0f2ef4c4",
        "b220257dc5caf253c5074863a540f6d76e26bb2501226c6615703ea4f6835e89",
    ])),
}

_RUN = """
import hashlib, io, os, sys
from contextlib import redirect_stdout
from ggwb.workbench.cli import main

for seed in range(4):
    os.environ["GGWB_SEED"] = str(seed)
    for name in sys.argv[1:]:
        out = io.StringIO()
        with redirect_stdout(out):
            main(["check", name, "--format", "json"])
        print(seed, name, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


def test_builtin_reports_are_byte_identical():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _RUN, *DIGESTS], env=env, capture_output=True, text=True,
        check=True,
    )
    got = {}
    for line in done.stdout.splitlines():
        seed, name, digest = line.split()
        got.setdefault(int(seed), {})[name] = digest
    assert got == DIGESTS_AT_SEED
