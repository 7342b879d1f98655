"""`import cmforms` must stay light: every CLI run and every process that
uses the package pays for its imports before any work starts.  The
standard-library modules below cost about 13 ms and 1 MB together on a
2-core Xeon with Python 3.11 (`dataclasses` pulls in `inspect`, which
pulls in `ast`, `dis` and `tokenize`), and the package needs none of
them.

The check runs in a fresh interpreter, so no other test's imports leak in.
"""

import os
import subprocess
import sys

import cmforms

_HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")

_SCRIPT = """
import sys
import cmforms, cmforms.cli
print(" ".join(m for m in %r if m in sys.modules))
""" % (_HEAVY,)


def test_import_loads_no_heavy_stdlib_module():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cmforms.__file__)))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [], proc.stdout
