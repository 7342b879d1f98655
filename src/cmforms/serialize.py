"""Shared JSON wire formats.

Rationals are ints or strings "[+-]p", "[+-]p/q" or "[+-]p.q" in ASCII
digits.  Floats, booleans, null and other strings ("1e9", "1_0", " 7")
are refused: a double is not the rational it was written as.  A field
is {"min_poly": [ints, constant first], "delta": [rationals]}.  Elements
of E are flat coordinate arrays of length 2s (F-part then sqrt(delta)-
part).  Forms and groups carry their field inline.
"""

from fractions import Fraction
import re

from .field import TotallyRealField, CMField
from .hermitian import HermitianForm
from . import linalg


def frac_to_str(q):
    q = Fraction(q)
    return "%d/%d" % (q.numerator, q.denominator) if q.denominator != 1 \
        else str(q.numerator)


_RATIONAL = re.compile(r"[+-]?[0-9]+(/(?P<den>[0-9]+)|\.[0-9]+)?")


def frac_from_str(s):
    """The one reader of a number on the wire: an int that is not a bool,
    or a string of ASCII digits, "p/q" or an exact decimal "p.q"."""
    m = _RATIONAL.fullmatch(s) if isinstance(s, str) else None
    if m and m["den"] is not None and not m["den"].strip("0"):
        raise ValueError("zero denominator in %r" % (s,))
    if m or (isinstance(s, int) and not isinstance(s, bool)):
        return Fraction(s)
    raise ValueError("a rational must be an int or a \"p/q\" string "
                     "(or \"p\", \"p.q\"), got %r" % (s,))


def field_to_json(cmfield):
    return {
        "min_poly": [int(c) for c in cmfield.base.min_poly],
        "delta": [frac_to_str(c) for c in cmfield.delta],
    }


def field_from_json(obj):
    base = TotallyRealField([frac_from_str(c) for c in obj["min_poly"]])
    delta = [frac_from_str(c) for c in obj["delta"]]
    if len(delta) != base.degree:
        raise ValueError("delta needs %d coordinates, one per basis element "
                         "of F, got %d" % (base.degree, len(delta)))
    return CMField(base, delta)


def element_to_json(x):
    return [frac_to_str(c) for c in x.coords]


def element_from_json(cmfield, arr):
    s = cmfield.s
    coords = [frac_from_str(c) for c in arr]
    if len(coords) != 2 * s:
        raise ValueError("element needs %d coordinates" % (2 * s))
    return cmfield.element(coords[:s], coords[s:])


def matrix_to_json(M):
    return [[element_to_json(x) for x in row] for row in M]


def matrix_from_json(cmfield, rows):
    return linalg.mat([[element_from_json(cmfield, x) for x in row]
                       for row in rows])


def form_to_json(H):
    return {"field": field_to_json(H.field),
            "entries": matrix_to_json(H.entries)}


def form_from_json(obj):
    f = field_from_json(obj["field"])
    return HermitianForm(f, matrix_from_json(f, obj["entries"]))


def group_to_json(cmfield, generators):
    return {"field": field_to_json(cmfield),
            "generators": [matrix_to_json(g) for g in generators]}


def group_from_json(obj):
    f = field_from_json(obj["field"])
    gens = [matrix_from_json(f, g) for g in obj["generators"]]
    return f, gens
