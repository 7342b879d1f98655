"""The traced benchmark run patches methods through each class's own
`__dict__` (perfbench/spans.py): installing and uninstalling every span
must work on the package as it is."""

import os
import subprocess
import sys

import cmforms

SCRIPT = """
import spans
from cmforms.field import FieldElement
original = FieldElement.__dict__["__mul__"]
tracer = spans.install(spans.Tracer())
assert FieldElement.__dict__["__mul__"] is not original
tracer.uninstall()
assert FieldElement.__dict__["__mul__"] is original
"""


def test_spans_install_and_uninstall():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cmforms.__file__)))
    perfbench = os.path.join(os.path.dirname(src), "perfbench")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, perfbench]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
