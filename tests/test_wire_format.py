"""The wire format lives in one module: `serialize` reads and writes every
element of E, L and A by one recursive rule and reads every key of a
document through one reader, and no other module of the package defines
a codec or reaches into another module's privates to read one."""

import ast
import io
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

import cmforms
from cmforms import (builtin_example, diagonal_form, gaussian_field, linalg,
                     make_cyclotomic, serialize)
from cmforms.cli import main

_SRC = os.path.dirname(os.path.abspath(cmforms.__file__))


# --- one codec for E, L and A ---------------------------------------------

_q = st.fractions(min_value=-9, max_value=9, max_denominator=5)


def _layout(x):
    """The wire layout written out level by level: E as 2s rational
    strings (a, then b), L as three E-lists, A as three L-lists."""
    if hasattr(x, "parts"):
        return [_layout(b) for b in x.parts]
    if hasattr(x, "coeffs"):
        return [_layout(c) for c in x.coeffs]
    return [serialize.frac_to_str(q) for q in x.a + x.b]


def _in_E(E, data):
    return E.element(*(data.draw(st.lists(_q, min_size=E.s, max_size=E.s))
                       for _ in "ab"))


_FIELDS = {"Q(i)": gaussian_field, "Q(zeta5)": lambda: make_cyclotomic(5),
           "Q(zeta9)": lambda: make_cyclotomic(9)}


@pytest.mark.parametrize("level", sorted(_FIELDS) + ["L", "A"])
@settings(max_examples=30, deadline=None, database=None)
@given(data=st.data())
def test_one_codec_round_trips_E_L_and_A(level, data):
    algebra, _ = builtin_example()
    ext = algebra.ext
    if level in _FIELDS:
        parent = _FIELDS[level]()
        x = _in_E(parent, data)
    else:
        parent = ext if level == "L" else algebra
        parts = [ext.element([_in_E(algebra.E, data) for _ in range(3)])
                 for _ in range(1 if level == "L" else 3)]
        x = parts[0] if level == "L" else algebra.element(*parts)
    arr = json.loads(json.dumps(serialize.element_to_json(x)))
    assert arr == _layout(x)
    y = serialize.element_from_json(parent, arr)
    assert y == x and type(y) is type(x) and y.parent is parent


# --- one key reader ---------------------------------------------------------

def _documents():
    """document name -> (a valid document, its reader)."""
    algebra, involution = builtin_example()
    E = gaussian_field()
    return {
        "a field": (serialize.field_to_json(E), serialize.field_from_json),
        "a form": (serialize.form_to_json(diagonal_form(E, [1, -1])),
                   serialize.form_from_json),
        "a group": (serialize.group_to_json(
            E, [linalg.identity(2, E.one(), E.zero())]),
            serialize.group_from_json),
        "an algebra spec": (serialize.algebra_to_json(algebra, involution),
                            serialize.algebra_from_json),
    }


@pytest.mark.parametrize("what", ["a field", "a form", "a group",
                                  "an algebra spec"])
def test_a_missing_key_or_a_non_object_names_the_document(what):
    doc, read = _documents()[what]
    read(doc)
    for key in sorted(set(doc) - {"involution"}):  # the images are optional
        broken = {k: v for k, v in doc.items() if k != key}
        with pytest.raises(ValueError,
                           match='^%s needs the key "%s"$' % (what, key)):
            read(broken)
    with pytest.raises(ValueError,
                       match="^%s needs a JSON object, got list$" % what):
        read([doc])


@pytest.mark.parametrize("argv, doc, message", [
    (["invariants", "--form"],
     lambda form: dict(form, field={"min_poly": form["field"]["min_poly"]}),
     'a field needs the key "delta"'),
    (["invariants", "--form"], lambda form: [form],
     "a form needs a JSON object, got list"),
    (["regular-embed", "--field", "@field", "--n", "3", "--table"],
     lambda form: {"rows": [[0]]}, 'a table needs the key "table"'),
], ids=["field without delta", "form as a list", "table without table"])
def test_the_cli_names_the_document_of_a_missing_key(tmp_path, argv, doc,
                                                     message):
    form = serialize.form_to_json(diagonal_form(gaussian_field(), [1, -1]))
    paths = {}
    for name, obj in (("doc", doc(form)), ("field", form["field"])):
        paths[name] = str(tmp_path / (name + ".json"))
        with open(paths[name], "w") as fh:
            json.dump(obj, fh)
    out = io.StringIO()
    argv = [paths["field"] if a == "@field" else a for a in argv]
    assert main(["--json"] + argv + [paths["doc"]], out=out) == 2
    assert json.loads(out.getvalue())["payload"] == {"message": message}


# --- the format in one module ---------------------------------------------

def _modules():
    for name in sorted(os.listdir(_SRC)):
        if name.endswith(".py"):
            with open(os.path.join(_SRC, name)) as fh:
                yield name, ast.parse(fh.read(), name)


def test_only_serialize_defines_codecs():
    codecs = [(name, node.name) for name, tree in _modules()
              if name != "serialize.py" for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and node.name.endswith(("_to_json", "_from_json"))]
    assert codecs == []


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def test_cli_reads_no_private_name_of_another_module():
    tree = dict(_modules())["cli.py"]
    modules, reads = {"cmforms"}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("cmforms")):
            if node.module in (None, "cmforms"):
                # from . import calgebra: the names are modules
                modules.update(a.asname or a.name for a in node.names)
            reads += [a.name for a in node.names if _private(a.name)]
        elif isinstance(node, ast.Import):
            modules.update((a.asname or a.name).split(".")[0]
                           for a in node.names
                           if a.name.startswith("cmforms"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in modules:
                reads.append(ast.unparse(node))
    assert reads == []
