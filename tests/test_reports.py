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
    "S1-flat-cosymplectic": "30ea73738b9e917a476c65b49e6333d03bdf01ccb786254786cfba6b547184e1",
    "S2-sasakian-heisenberg": "1f538b2625c50fd6562b256e0ae7873fa847ce3efbeaa2cf4952adad5f5ba6bc",
    "S3-exp-deformation": "4551714161caa104cf8257edf9705c6925c00f3087d254f408c35b4dd575e26d",
    "S4-sphere-in-C2": "8b56d8803cc6953052be917d1d6274f806447d3a1c2fa0dd8b7682c892a3cd94",
    "S5-NxT2": "27195107a4921fc3894fd3fbd8bdfa5f212356304b5cde0901f0f83ee0b65e7d",
    "S6b-hyperplane-in-C2": "0716a39db25459d3c42a410cd54ed8a43118cccfd80d4b010bc4a9f0a27abd0c",
}

# every seed; seeds 1-3 list their digests in the order of DIGESTS
DIGESTS_AT_SEED = {
    0: DIGESTS,
    1: dict(zip(DIGESTS, [
        "29af5a9a04341a4922a7bff6926e376476702fc5b5e7b03c33344ce17a62ee9b",
        "1d51c62832e6c977575b13a895888c4443a795265a269de4bbdfbb5580835f8e",
        "fc9f5f5ce0d3c0501e917c4dda65df4794e044d7819eadf5a7b0f46aeb583e84",
        "8b6385cfc2b7a00d1aa265845253b2911ed81df9a70284a3aa4ea58707fd728a",
        "d2b95c35d6b3f0a37c5a9148a7598040680c603c0c3710539d70ac324972e28f",
        "4431a87bb16a6dde00d90e38b4ae623e0fb2fc5dbf9600a0448f7ef709b3baa8",
    ])),
    2: dict(zip(DIGESTS, [
        "3518aaef9ddc021284202425cc2401b12bf498387b5fb8f7f85d82fcfbe28cd8",
        "77d81e6bdb371ce89e4502639b860daaa85e205f9b8551bbb4ac8015cd8818b6",
        "6f578d1cd3777b49785c14b53d9da3c62f88a507ffa6c0957fbb3d5e3e87b677",
        "d3e2ad60d07a9205cb38e98d2ed1fdfc0f2e5dcd388d70b49064b7c39fe06487",
        "01aa7eef54fef3c355ae03b89c5792a433ef9169a4ac8eb2ec9013759235e4e6",
        "891c165e5d31e9b572521ee5a08879f69a2802fbab8d85900c52d7039b8094a5",
    ])),
    3: dict(zip(DIGESTS, [
        "ac27d29b2c8d1c959c1cf8bdf33c5297fe7ed1e1bbddd568d11705a56c2cc9ba",
        "2566cc646d115c6c776795512855f0f210c5ce4ca32d490de5ee3f84182ffeb4",
        "efc34b4327bd2d7b3f3b7510ba7813122dc39216da35509d06f29c973167ffe7",
        "7ebbc74fbcff7f498afd1814cba22cc23992c96502528a4ecd0dcdeee1fe6c47",
        "b2034bab73c93751326526d45c65e8cf81951eb3bc638a33f79908457704a818",
        "9763aa97cfe2eadf54228c067044f8d96205499b6b724ddcc98ab7041ee1bc13",
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
