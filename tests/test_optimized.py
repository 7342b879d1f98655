"""Errors on caller input, and failed exact checks, are raised, not
asserted: each case below must raise the same error under `python -O` as
without it, and never hang."""

import os
import subprocess
import sys

import pytest

import cmforms

CASES = [
    ("from cmforms.residue import hilbert_symbol\n"
     "hilbert_symbol(0, 1, 3)", "ValueError"),
    # p = 1 is no place: refused, not a valuation loop that never ends
    ("from cmforms.residue import hilbert_symbol\n"
     "hilbert_symbol(2, 3, 1)", "ValueError"),
    ("from cmforms.residue import rational_is_norm\n"
     "rational_is_norm(0, -1)", "ValueError"),
    ("from cmforms.field import CMField, rationals, zeta\n"
     "zeta(CMField(rationals(), [-2]), 4)", "FieldError"),
    ("from fractions import Fraction\n"
     "from cmforms.polyn import pdivmod\n"
     "pdivmod((Fraction(1), Fraction(1)), ())", "ZeroDivisionError"),
    ("from cmforms.polyn import cyclotomic\n"
     "cyclotomic(0)", "ValueError"),
    ("from cmforms.polyn import real_cyclotomic\n"
     "real_cyclotomic(2)", "ValueError"),
    # the minimal polynomial vanishes at the root: refused, not refined
    # forever
    ("from cmforms import polyn\n"
     "from cmforms.field import TotallyRealField\n"
     "F = TotallyRealField(polyn.real_cyclotomic(5))\n"
     "F.sign_of_coords(F.min_poly, 0)", "FieldError"),
    # a 2 x 2 times a 3 x 3 product is refused, not read in part
    ("from cmforms import linalg\n"
     "from cmforms.field import gaussian_field\n"
     "E = gaussian_field()\n"
     "linalg.mat_mul(linalg.identity(2, E.one(), E.zero()),\n"
     "               linalg.identity(3, E.one(), E.zero()))", "ValueError"),
    # a form over Q(zeta5) handed to Q(i) is refused, not read as (2, 1)
    ("from cmforms import HermitianForm, diagonal_form\n"
     "from cmforms.field import gaussian_field, make_cyclotomic\n"
     "H5 = diagonal_form(make_cyclotomic(5), [1, 1, -1])\n"
     "HermitianForm(gaussian_field(), H5.entries)", "FieldError"),
    # (x^2 - 2)^2 is not squarefree: refused, not isolated in (0, 5]
    ("from cmforms import polyn\n"
     "polyn.isolate_real_roots(polyn.pmul((-2, 0, 1), (-2, 0, 1)))",
     "ValueError"),
    ("from cmforms import polyn\n"
     "polyn.pmonic(())", "ValueError"),
    ("from cmforms import polyn\n"
     "polyn.root_bound((3,))", "ValueError"),
    # a descent step fed a wrong square root of -1 mod 13 fails its exact
    # check t^2 = a mod b, which no assert makes
    ("from cmforms import residue\n"
     "from cmforms.field import gaussian_field\n"
     "residue._sqrt_mod = lambda a, p: 0\n"
     "E = gaussian_field()\n"
     "residue.is_norm(E.from_rational(13), E)", "VerificationError"),
    # a separator above both roots of x^2 + x - 1 puts no sign change
    # between them: the built slot fails its certification
    ("from fractions import Fraction\n"
     "from cmforms import polyn\n"
     "from cmforms.field import TotallyRealField, weak_approx_find\n"
     "F = TotallyRealField(polyn.real_cyclotomic(5))\n"
     "F._separators = (Fraction(5),)\n"
     "weak_approx_find(F, (-1, 1))", "VerificationError"),
    # a conjugation that fixes sqrt(delta) puts x theta(x) outside F
    ("from cmforms.field import FieldElement, gaussian_field\n"
     "FieldElement.conjugate = lambda self: self\n"
     "E = gaussian_field()\n"
     "(E.one() + E.sqrt_delta()).relative_norm()", "VerificationError"),
    # the same wrong conjugation as E's Q-linear map: N(x) of the inverse
    # on numerators leaves F
    ("from cmforms.field import gaussian_field\n"
     "E = gaussian_field()\n"
     "E._conj = ([[(a, 1)] for a in range(E._dim)], 1)\n"
     "(E.one() + E.sqrt_delta()).inverse()", "VerificationError"),
    # x^2 - 1 in place of F's minimal polynomial: x - 1 has no inverse
    ("from fractions import Fraction\n"
     "from cmforms.field import make_cyclotomic\n"
     "E = make_cyclotomic(5)\n"
     "E.base.min_poly = (Fraction(-1), Fraction(0), Fraction(1))\n"
     "E._finv((Fraction(-1), Fraction(1)))", "VerificationError"),
    # a wrong image of y X fails the involution's checks on numerators
    ("from cmforms.calgebra import (Involution, builtin_example,\n"
     "                              verify_involution)\n"
     "algebra, involution = builtin_example()\n"
     "images = dict(involution.images)\n"
     "images[1, 1] = images[1, 1] + 1\n"
     "verify_involution(Involution(algebra, images))", "InvolutionError"),
]


@pytest.mark.parametrize("code, error", CASES, ids=[
    "hilbert_symbol", "hilbert_symbol_place", "rational_is_norm", "zeta",
    "pdivmod", "cyclotomic", "real_cyclotomic", "sign_of_coords", "mat_mul",
    "form_field", "isolate_real_roots", "pmonic", "root_bound",
    "descent_step", "weak_approx_find", "relative_norm", "inverse", "finv",
    "involution"])
def test_caller_input_errors_under_python_O(code, error):
    script = "try:\n%s\nexcept Exception as e:\n    print(type(e).__name__)\n" \
        % "".join("    %s\n" % line for line in code.splitlines())
    src = os.path.dirname(os.path.dirname(os.path.abspath(cmforms.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == error, proc.stderr
