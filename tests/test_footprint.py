"""The simulator loads one crypto runtime: the OpenSSL that ``cryptography``
bundles for Ed25519.

``hashlib`` and ``hmac`` load the system OpenSSL a second time through
``_hashlib``, and ``cryptography``'s key-serialization package pulls in its
ssh and pkcs12 code; the simulator needs neither. The check runs in a fresh
interpreter, since pytest and the other tests import ``hashlib`` themselves.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

UNWANTED = ("hashlib", "_hashlib", "hmac",
            "cryptography.hazmat.primitives.serialization")

PROGRAM = f"""
import sys

import anonbridge
import anonbridge.harness.cli
import anonbridge.harness.scenarios
from anonbridge.harness import builtin_config, run_scenario, sweep_depths

result = run_scenario(builtin_config("settlement_happy_path"))
assert result.passed
result.transcript.digest()
sweep_depths([4])
print(",".join(m for m in {UNWANTED!r} if m in sys.modules))
"""


def test_a_full_run_loads_no_second_openssl():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROGRAM], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == ""
