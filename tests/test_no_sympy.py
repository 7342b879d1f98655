"""Deciding forms, embedding catalog groups and checking the built-in
cyclic algebra must not import sympy: the package factors integers, proves
primes and proves minimal polynomials irreducible itself, and no module
under `cmforms` imports sympy at all.

Each script runs in a fresh interpreter, so no other test's imports leak
in; a static check reads every module's imports.
"""

import ast
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

def run(*argv, expect=0):
    out = io.StringIO()
    code = main(["--json"] + list(argv), out=out)
    assert code == expect, (argv, out.getvalue())

def qi_form(name, diag):
    return write(name, serialize.form_to_json(
        diagonal_form(gaussian_field(), diag)))

h1, h2 = qi_form("h1.json", [1, 1, -1]), qi_form("h2.json", [2, 3, -6])
run("invariants", "--form", h1)
# det -pq with two 30-digit primes: the det class needs no factorisation
big = qi_form("big.json", [1, 1, -(10 ** 29 + 319) * (3 * 10 ** 29 + 7)])
run("invariants", "--form", big)
run("equivalent", "--form", h1, "--form2", h2)
# rho leaves pq unsplit within its budget, so the places are not all known
run("equivalent", "--form", big, "--form2", h1, expect=3)
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

_BEYOND_THE_BOUND = """
import sys
from cmforms.residue import _MR_BOUND, _factor
n = 10 ** 30 + 57
assert n >= _MR_BOUND and "sympy" not in sys.modules
assert _factor(12 * n) == ({2: 2, 3: 1, n: 1}, {})
unproved = 10 * (10 ** 19 + 51) * (2 * 10 ** 19 + 11) + 1
assert _factor(12 * unproved) == ({2: 2, 3: 1}, {unproved: 1})
assert "sympy" not in sys.modules
"""


def _run_fresh(script):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cmforms.__file__)))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_forms_groups_and_the_algebra_run_without_sympy():
    _run_fresh(_NO_SYMPY)


def test_a_cofactor_beyond_the_proof_leaves_sympy_unimported():
    _run_fresh(_BEYOND_THE_BOUND)


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module


def test_no_module_imports_sympy():
    package = os.path.dirname(os.path.abspath(cmforms.__file__))
    sources = [os.path.join(root, name)
               for root, _, names in os.walk(package)
               for name in names if name.endswith(".py")]
    assert len(sources) > 10
    for path in sources:
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for module in _imported_modules(tree):
            assert module.split(".")[0] != "sympy", (path, module)
