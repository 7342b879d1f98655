"""Deciding forms, embedding catalog groups and checking the built-in
cyclic algebra must not import sympy: the package factors integers and
proves minimal polynomials irreducible itself, and only a cofactor beyond
the Miller-Rabin bound of `residue._factor` needs sympy.

Each case runs in a fresh interpreter, so no other test's imports leak in.
"""

import os
import subprocess
import sys
import textwrap

import cmforms

_NO_SYMPY = """
import io, json, os, sys, tempfile
from cmforms import (builtin_example, diagonal_form, gaussian_field,
                     make_cyclotomic, serialize, splitting_signature)
from cmforms.cli import main

root = tempfile.mkdtemp()

def write(name, doc):
    path = os.path.join(root, name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path

def run(*argv):
    out = io.StringIO()
    code = main(["--json"] + list(argv), out=out)
    assert code == 0, (argv, out.getvalue())

def qi_form(name, diag):
    return write(name, serialize.form_to_json(
        diagonal_form(gaussian_field(), diag)))

h1, h2 = qi_form("h1.json", [1, 1, -1]), qi_form("h2.json", [2, 3, -6])
run("invariants", "--form", h1)
# det -pq with two 30-digit primes: the det class needs no factorisation
run("invariants", "--form", qi_form(
    "big.json", [1, 1, -(10 ** 29 + 319) * (3 * 10 ** 29 + 7)]))
run("equivalent", "--form", h1, "--form2", h2)
# read from JSON, so the cubic min_poly of Q(zeta7)^+ is proved irreducible
h7 = write("h7.json", serialize.form_to_json(
    diagonal_form(make_cyclotomic(7), [1, 1, -1])))
run("admissible", "--form", h7)
run("embed-first-type", "C2")
table = write("table.json", {"table": [[0, 1], [1, 0]]})
field = write("field.json", serialize.field_to_json(gaussian_field()))
run("regular-embed", "--table", table, "--field", field, "--n", "4",
    "--cls", "other")
run("algebra", "check")
algebra, involution = builtin_example()
splitting_signature(algebra, involution, algebra.one())
assert "sympy" not in sys.modules, "sympy was imported"
"""

_FALLBACK = """
import sys
from cmforms.residue import _MR_BOUND, _factor
n = 10 ** 30 + 57
assert n >= _MR_BOUND and "sympy" not in sys.modules
assert _factor(12 * n)[2] == 2
assert "sympy" in sys.modules
"""


def _run_fresh(script):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cmforms.__file__)))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_forms_groups_and_the_algebra_run_without_sympy():
    _run_fresh(_NO_SYMPY)


def test_a_cofactor_beyond_the_proof_imports_sympy():
    _run_fresh(_FALLBACK)
