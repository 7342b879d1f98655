"""The traced benchmark run patches methods through each class's own
`__dict__` (perfbench/spans.py): installing and uninstalling every span
must work on the package as it is, and uninstalling must restore every
binding it patched.  perfbench/ is only read here."""

import os
import subprocess
import sys

import cmforms

SCRIPT = """
import sys
import spans
from cmforms import (calgebra, catalog, cli, dgroups, field, groups,
                     hermitian, linalg, polyn, residue, serialize)


def bindings():
    # every module attribute of cmforms, and every entry of the __dict__
    # of each class a cmforms module defines
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "cmforms" and not name.startswith("cmforms."):
            continue
        for attr, value in vars(mod).items():
            out[name, attr] = value
            if isinstance(value, type) and value.__module__ == name:
                for key, member in vars(value).items():
                    out[name, attr, key] = member
    return out


before = bindings()
tracer = spans.install(spans.Tracer())
during = bindings()
patched = [k for k in before if during[k] is not before[k]]
tracer.uninstall()
after = bindings()
assert ("cmforms.field", "FieldElement", "__mul__") in patched
assert not [k for k in before if after.get(k) is not before[k]]
print(len(patched))
"""


def test_spans_install_and_uninstall():
    # install reads each patched method from its class's own __dict__, so
    # a method moved to a base class fails here, not in the traced run
    src = os.path.dirname(os.path.dirname(os.path.abspath(cmforms.__file__)))
    perfbench = os.path.join(os.path.dirname(src), "perfbench")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, perfbench]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0
