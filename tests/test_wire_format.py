"""The wire format lives in one module: `serialize` reads and writes every
element of E, L and A by one recursive rule, and no other module of the
package defines a codec or reaches into another module's privates to
read one."""

import ast
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

import cmforms
from cmforms import (builtin_example, gaussian_field, make_cyclotomic,
                     serialize)

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
