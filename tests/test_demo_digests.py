"""Demo stdout digests: each script in demos/ prints, byte for byte, the
text whose sha256 is pinned below.

A refactor that must keep the demos' output unchanged re-runs this test
instead of a hand comparison.  No demo reads a clock or a random source,
so the output is deterministic.  After an intended change of a demo's
output, take the new digest with

    PYTHONPATH=src python demos/<name>.py | sha256sum
"""

import hashlib
import os
import subprocess
import sys

import pytest

import cmforms

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DIGESTS = {
    "cyclic_algebra_tour.py":
        "c9cda3b2b74e737bc6bdadb2ccfae1cf274ff13f0cd14a66f4d67358d8226030",
    "first_type_forms.py":
        "fae0598eea5149a3271d269fd7f4449d2e0f219fafdcac286c946bbaf06d6275",
    "second_type_cyclic_only.py":
        "b7f515873014160185e980d1553765a2f2752e043233d6a0f0b912ce2692b625",
}


def test_every_demo_is_pinned():
    assert sorted(f for f in os.listdir(os.path.join(ROOT, "demos"))
                  if f.endswith(".py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_is_unchanged(name):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cmforms.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[name]
