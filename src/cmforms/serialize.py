"""The JSON wire format, read and written by this module alone.

Rationals are ints or strings "[+-]p", "[+-]p/q" or "[+-]p.q" in ASCII
digits.  Floats, booleans, null and other strings ("1e9", "1_0", " 7")
are refused: a double is not the rational it was written as.  A field
is {"min_poly": [ints, constant first], "delta": [rationals]}.  An
element of E is the list of its 2s `coords` (the F-part, then the
sqrt(delta)-part), and one of L or A the lists of the three elements of
the level below that `Parent._split` gives and `Parent._join` reads.
Forms and groups carry their field inline, an algebra spec its E.  Every
array must be a list of the length its place needs, and every document a
JSON object with the keys it needs.
"""

from fractions import Fraction
import functools
import re

from .calgebra import (_LABELS, AlgebraElement, CubicExtElement,
                       CyclicAlgebra, CyclicCubicExtension, Involution,
                       verify_involution)
from .field import CMField, FieldElement, TotallyRealField
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


def _list(arr, what, n=None, unit="coordinates"):
    """The one reader of an array: arr, refused unless it is a JSON list
    of n entries (of any length if n is None)."""
    if isinstance(arr, list) and n in (None, len(arr)):
        return arr
    need = "a list" if n is None else "%d %s" % (n, unit)
    got = len(arr) if isinstance(arr, list) else type(arr).__name__
    raise ValueError("%s needs %s, got %s" % (what, need, got))


def read_key(obj, what, key):
    """The one reader of a key: obj[key], refused unless obj is a JSON
    object holding key; `what` names the document in the message."""
    if not isinstance(obj, dict):
        raise ValueError("%s needs a JSON object, got %s"
                         % (what, type(obj).__name__))
    if key not in obj:
        raise ValueError('%s needs the key "%s"' % (what, key))
    return obj[key]


def field_to_json(cmfield):
    return {"min_poly": [int(c) for c in cmfield.base.min_poly],
            "delta": [frac_to_str(c) for c in cmfield.delta]}


def field_from_json(obj):
    base = TotallyRealField([frac_from_str(c) for c in _list(
        read_key(obj, "a field", "min_poly"), "min_poly")])
    delta = _list(read_key(obj, "a field", "delta"), "delta", base.degree)
    return CMField(base, [frac_from_str(c) for c in delta])


def element_to_json(x):
    """x in E, L or A as nested lists of rational strings."""
    if x.parent._below is None:
        return [frac_to_str(c) for c in x.coords]
    return [element_to_json(c) for c in x.parent._split(x)]


_NAMES = {FieldElement: "an element of E", CubicExtElement: "an element of L",
          AlgebraElement: "an algebra element"}  # in error messages


def element_from_json(parent, arr):
    """The element of E, L or A that `element_to_json` writes as arr."""
    below = parent._below
    arr = _list(arr, _NAMES[parent._element], 3 if below else parent._dim)
    if below is None:
        return parent.from_rationals(map(frac_from_str, arr))
    return parent._join([element_from_json(below, a) for a in arr])


def matrix_to_json(M):
    return [[element_to_json(x) for x in row] for row in M]


def matrix_from_json(cmfield, rows):
    """Rows of elements of E; the form or group checks the shape."""
    return linalg.mat([[element_from_json(cmfield, x)
                        for x in _list(row, "a matrix row")]
                       for row in _list(rows, "a matrix")])


def form_to_json(H):
    return {"field": field_to_json(H.field),
            "entries": matrix_to_json(H.entries)}


def form_from_json(obj):
    f = field_from_json(read_key(obj, "a form", "field"))
    return HermitianForm(f, matrix_from_json(f, read_key(obj, "a form",
                                                          "entries")))


def group_to_json(cmfield, generators):
    return {"field": field_to_json(cmfield),
            "generators": [matrix_to_json(g) for g in generators]}


def group_from_json(obj):
    f = field_from_json(read_key(obj, "a group", "field"))
    return f, [matrix_from_json(f, g) for g in _list(
        read_key(obj, "a group", "generators"), "generators")]


def algebra_to_json(algebra, involution=None):
    """E, g, tau(y), c(y) and alpha, and the involution images of the
    y^i X^j in _LABELS order."""
    ext = algebra.ext
    obj = {"E": field_to_json(algebra.E),
           "g": list(map(element_to_json, ext.g)),
           "tau": list(map(element_to_json, ext.tau_poly)),
           "conj": list(map(element_to_json, ext.conj_poly)),
           "alpha": element_to_json(algebra.alpha)}
    if involution is not None:
        obj["involution"] = [element_to_json(involution.images[label])
                             for label in _LABELS]
    return obj


def algebra_from_json(obj):
    """(algebra, involution or None); an involution is re-verified and
    carries no splitting conjugator."""
    key = functools.partial(read_key, obj, "an algebra spec")
    E = field_from_json(key("E"))
    g, tau, conj = ([element_from_json(E, c) for c in _list(key(k), k)]
                    for k in ("g", "tau", "conj"))
    algebra = CyclicAlgebra(CyclicCubicExtension(E, g, tau, conj),
                            element_from_json(E, key("alpha")))
    involution = None
    if "involution" in obj:
        images = _list(obj["involution"], "the spec", 9, "involution images")
        involution = verify_involution(Involution(algebra, {
            label: element_from_json(algebra, arr)
            for label, arr in zip(_LABELS, images)}))
    return algebra, involution
