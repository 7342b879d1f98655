"""CLI fuzz: a valid form, field, table, algebra-spec or algebra-element
document broken by exactly one wire-format violation must exit 2 with a
JSON error document carrying a nonempty message, never raise, hang or
answer ok.

Every scalar leaf of these documents is a number (a rational, or a table
index), so "a float, bool or null where a number belongs" is a mutation
of any leaf.  The other mutations are: a missing key, an E-coordinate
list or a field's delta one entry too short or too long, a non-square or
non-hermitian form, a table row that is not a permutation, eight
involution images instead of nine and a list of numbers sent as the
string of its digits.  A dropped key must also be named in the
message, with the document that lacks it.  Sizes stay small (dimension
<= 3, [F:Q] <= 3, table order <= 4) so the run takes a few seconds.
"""

import copy
import io
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from cmforms import (HermitianForm, diagonal_form, gaussian_field, linalg,
                     make_cyclotomic, serialize)
from cmforms.calgebra import builtin_example
from cmforms.serialize import (algebra_to_json,
                               element_to_json as _alg_element_to_json)
from cmforms.cli import main

# Q(i), Q(zeta5), Q(zeta8), Q(zeta7), Q(zeta9): [F:Q] = 1, 2, 2, 3, 3
_CYCLOTOMIC = (4, 5, 8, 7, 9)


def _cyclic_table(k):
    return [[(a + b) % k for b in range(k)] for a in range(k)]


def _form(r, diag, upper):
    """T^H diag(d) T over Q(zeta_r) for T unipotent upper triangular with
    entries from `upper`: hermitian and nondegenerate by construction."""
    E = make_cyclotomic(r)
    n = len(diag)
    D = diagonal_form(E, diag).entries
    T = [[E.one() if i == j else E.zero() for j in range(n)]
         for i in range(n)]
    coords = iter(upper)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = next(coords)
            T[i][j] = E.element([a], [b])
    TH = linalg.conj_transpose(linalg.mat(T))
    return HermitianForm(E, linalg.mat_mul(TH, linalg.mat_mul(D, T)))


@st.composite
def _form_docs(draw):
    r = draw(st.sampled_from(_CYCLOTOMIC))
    n = draw(st.integers(1, 3))
    diag = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=n,
                         max_size=n))
    upper = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                          min_size=n * (n - 1) // 2,
                          max_size=n * (n - 1) // 2))
    return serialize.form_to_json(_form(r, diag, upper))


# --- mutations ----------------------------------------------------------

def _nodes(doc, path=()):
    """(path, node) for every node of a JSON tree, the root included."""
    yield path, doc
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(doc, list):
        for k, v in enumerate(doc):
            yield from _nodes(v, path + (k,))


def _get(doc, path):
    for k in path:
        doc = doc[k]
    return doc


def _leaf_to_non_number(doc, data):
    leaves = [p for p, v in _nodes(doc) if not isinstance(v, (dict, list))]
    path = data.draw(st.sampled_from(leaves))
    bad = data.draw(st.sampled_from([0.1, 1.0, -2.5, True, False, None]))
    _get(doc, path[:-1])[path[-1]] = bad
    return "a non-number at %s" % (path,)


def _drop_key(doc, data):
    dicts = [p for p, v in _nodes(doc) if isinstance(v, dict) and v]
    path = data.draw(st.sampled_from(dicts))
    node = _get(doc, path)
    key = data.draw(st.sampled_from(sorted(node)))
    del node[key]
    return "missing key %r at %s" % (key, path)


def _coordinate_length(sites):
    """A mutation that adds or drops one coordinate of an E-element, the
    elements being the lists at `sites(doc)`."""
    def mutate(doc, data):
        path = data.draw(st.sampled_from(sites(doc)))
        coords = _get(doc, path)
        if data.draw(st.booleans()):
            coords.append("0")
        else:
            coords.pop()
        return "coordinate list of length %d at %s" % (len(coords), path)
    return mutate


def _form_entries(doc):
    n = len(doc["entries"])
    return [("entries", i, j) for i in range(n) for j in range(n)]


def _non_square(doc, data):
    rows = doc["entries"]
    i = data.draw(st.integers(0, len(rows) - 1))
    action = data.draw(st.sampled_from(["shorten", "lengthen", "drop"]))
    if action == "shorten":
        rows[i].pop()
    elif action == "lengthen":
        rows[i].append(rows[i][-1])
    else:
        rows.pop(i)
    return "non-square entries (%s row %d)" % (action, i)


def _non_hermitian(doc, data):
    # adding sqrt(delta) to entry (i, j), i <= j, breaks h_ij = conj(h_ji)
    n = len(doc["entries"])
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(i, n - 1))
    coords = doc["entries"][i][j]
    s = len(coords) // 2
    coords[s] = serialize.frac_to_str(serialize.frac_from_str(coords[s]) + 1)
    return "non-hermitian at (%d, %d)" % (i, j)


def _table_row_not_permutation(doc, data):
    table = doc["table"]
    n = len(table)
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    table[i][j] = table[i][(j + 1) % n] if n > 1 else n
    return "row %d is not a permutation" % i


def _eight_images(doc, data):
    k = data.draw(st.integers(0, 8))
    del doc["involution"][k]
    return "eight involution images"


def _spec_elements(doc):
    sites = [("alpha",)]
    sites += [(key, k) for key in ("g", "tau", "conj")
              for k in range(len(doc[key]))]
    sites += [("involution", m, p, q) for m in range(9) for p in range(3)
              for q in range(3)]
    return sites


def _element_coords(doc):
    return [(p, q) for p in range(3) for q in range(3)]


_GENERIC = [_leaf_to_non_number, _drop_key]

# kind -> (mutations, argv around the mutated document's path)
_KINDS = {
    "form": (_GENERIC + [_coordinate_length(_form_entries), _non_square,
                         _non_hermitian],
             lambda p, other: ["invariants", "--form", p]),
    "field": (_GENERIC + [_coordinate_length(lambda doc: [("delta",)])],
              lambda p, other: ["regular-embed", "--table", other["table"],
                                "--field", p, "--n", "4"]),
    "table": (_GENERIC + [_table_row_not_permutation],
              lambda p, other: ["regular-embed", "--table", p, "--field",
                                other["field"], "--n", "4"]),
    "spec": (_GENERIC + [_coordinate_length(_spec_elements), _eight_images],
             lambda p, other: ["algebra", "check", "--spec", p]),
    "element": ([_leaf_to_non_number, _coordinate_length(_element_coords)],
                lambda p, other: ["algebra", "norm", "--element", p]),
}


def _base_docs(kind):
    if kind == "form":
        return _form_docs()
    if kind == "field":
        return st.sampled_from(_CYCLOTOMIC).map(
            lambda r: serialize.field_to_json(make_cyclotomic(r)))
    if kind == "table":
        return st.integers(1, 4).map(lambda k: {"table": _cyclic_table(k)})
    algebra, involution = builtin_example()
    if kind == "spec":
        return st.just(algebra_to_json(algebra, involution))
    ext = algebra.ext
    return st.sampled_from([algebra.X(), algebra.one(), algebra.element(
        ext.element([1, 2]), ext.element([0, 1]), 1)]).map(
            _alg_element_to_json)


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_valid")
    paths = {}
    for name, doc in (("table", {"table": _cyclic_table(2)}),
                      ("field", serialize.field_to_json(gaussian_field()))):
        paths[name] = str(root / (name + ".json"))
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)
    return paths


def _run(argv):
    out = io.StringIO()
    code = main(["--json"] + argv, out=out)
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_one_violation_exits_2_with_a_message(kind, valid_inputs,
                                              tmp_path_factory):
    mutations, argv_of = _KINDS[kind]
    path = str(tmp_path_factory.mktemp("fuzz_" + kind) / "doc.json")

    @settings(max_examples=50, deadline=2000, derandomize=True,
              database=None)
    @given(base=_base_docs(kind), mutation=st.sampled_from(mutations),
           data=st.data())
    def check(base, mutation, data):
        doc = copy.deepcopy(base)
        what = mutation(doc, data)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code, result = _run(argv_of(path, valid_inputs))
        assert code == 2, (what, result)
        assert result["status"] == "error", (what, result)
        message = result["payload"]["message"]
        assert isinstance(message, str) and message, (what, result)

    check()


# --- a missing key, named with its document -----------------------------

_DOCUMENTS = {"field": "a field", "form": "a form", "spec": "an algebra spec",
              "table": "a table"}


@pytest.mark.parametrize("kind", sorted(_DOCUMENTS))
def test_a_dropped_key_is_named_with_its_document(kind, valid_inputs,
                                                  tmp_path_factory):
    argv_of = _KINDS[kind][1]
    path = str(tmp_path_factory.mktemp("fuzz_key_" + kind) / "doc.json")

    @settings(max_examples=30, deadline=2000, derandomize=True,
              database=None)
    @given(base=_base_docs(kind), data=st.data())
    def check(base, data):
        doc = copy.deepcopy(base)
        where = data.draw(st.sampled_from(
            [p for p, v in _nodes(doc) if isinstance(v, dict)]))
        node = _get(doc, where)
        # the involution images are optional in a spec
        key = data.draw(st.sampled_from(sorted(set(node) - {"involution"})))
        del node[key]
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code, result = _run(argv_of(path, valid_inputs))
        # the only nested documents are the field of a form and a spec's E
        what = "a field" if where else _DOCUMENTS[kind]
        assert code == 2, (where, key, result)
        assert result["payload"] == {
            "message": '%s needs the key "%s"' % (what, key)}, (where, key)

    check()


def test_unmutated_documents_are_accepted(valid_inputs, tmp_path):
    # the control: each command accepts the documents the fuzz breaks
    form = serialize.form_to_json(_form(5, [1, 1, -1], [(1, 0), (0, 1),
                                                         (2, -1)]))
    algebra, involution = builtin_example()
    cases = [
        (form, _KINDS["form"][1]),
        (serialize.field_to_json(make_cyclotomic(4)), _KINDS["field"][1]),
        ({"table": _cyclic_table(3)}, _KINDS["table"][1]),
        (algebra_to_json(algebra, involution), _KINDS["spec"][1]),
        (_alg_element_to_json(algebra.X()), _KINDS["element"][1]),
    ]
    for k, (doc, argv_of) in enumerate(cases):
        p = tmp_path / ("doc%d.json" % k)
        p.write_text(json.dumps(doc))
        code, result = _run(argv_of(str(p), valid_inputs))
        assert code == 0 and result["status"] == "ok", result


# --- a string of digits where a list of numbers belongs ----------------

def _list_to_digits(doc, data):
    """Replace a list of numbers by the string of its digits, which a
    reader that iterates it would take character by character."""
    lists = [p for p, v in _nodes(doc) if isinstance(v, list) and v
             and not any(isinstance(c, (dict, list)) for c in v)]
    path = data.draw(st.sampled_from(lists))
    _get(doc, path[:-1])[path[-1]] = "".join(map(str, _get(doc, path)))
    return "digits %r at %s" % (_get(doc, path), path)


@pytest.mark.parametrize("kind", ["element", "field", "form", "spec"])
def test_a_digit_string_in_place_of_a_list_exits_2(kind, valid_inputs,
                                                   tmp_path_factory):
    argv_of = _KINDS[kind][1]
    path = str(tmp_path_factory.mktemp("fuzz_digits_" + kind) / "doc.json")

    @settings(max_examples=30, deadline=2000, derandomize=True,
              database=None)
    @given(base=_base_docs(kind), data=st.data())
    def check(base, data):
        doc = copy.deepcopy(base)
        what = _list_to_digits(doc, data)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code, result = _run(argv_of(path, valid_inputs))
        assert code == 2, (what, result)
        assert result["payload"]["message"].endswith("got str"), \
            (what, result)

    check()


@pytest.mark.parametrize("site, digits, message", [
    (("entries", 0, 0), "10", "an element of E needs 2 coordinates"),
    (("field", "min_poly"), "01", "min_poly needs a list"),
])
def test_a_digit_string_is_not_read_as_its_characters(tmp_path, site, digits,
                                                      message):
    # over Q(i) "10" would read as the element 1, "01" as the polynomial x
    doc = serialize.form_to_json(diagonal_form(gaussian_field(), [1, 1, -1]))
    _get(doc, site[:-1])[site[-1]] = digits
    p = tmp_path / "form.json"
    p.write_text(json.dumps(doc))
    code, result = _run(["invariants", "--form", str(p)])
    assert code == 2 and message in result["payload"]["message"]


@pytest.mark.parametrize("path, bad", [
    (("entries", 0, 0, 0), 0.1),
    (("entries", 0, 0, 0), True),
    (("entries", 1, 1, 1), None),
    (("field", "delta", 0), -4.0),
    (("field", "min_poly", 1), True),
])
def test_a_non_number_is_refused(tmp_path, path, bad):
    doc = serialize.form_to_json(diagonal_form(gaussian_field(), [1, -1]))
    _get(doc, path[:-1])[path[-1]] = bad
    p = tmp_path / "form.json"
    p.write_text(json.dumps(doc))
    code, result = _run(["invariants", "--form", str(p)])
    assert code == 2
    assert "must be an int or a \"p/q\" string" in \
        result["payload"]["message"]


def test_ints_and_rational_strings_still_parse():
    assert serialize.frac_from_str("1/10") == serialize.frac_from_str(
        "0.1")
    assert serialize.frac_from_str(-7) == -7
    assert serialize.frac_from_str("3") == 3
    E = serialize.field_from_json({"min_poly": [0, 1], "delta": [-4]})
    assert E == gaussian_field()
    x = serialize.element_from_json(E, [1, "-1/10"])
    assert x == E.element([1], ["-1/10"])


# --- number strings that Fraction reads but the wire refuses ------------

def _exponent(v, data):
    return v + data.draw(st.sampled_from(["e0", "e3", "E-2", "e1000000"]))


def _underscore(v, data):
    # "1_" before the first digit: "-3/4" becomes "-1_3/4"
    i = next(k for k, ch in enumerate(v) if ch.isdigit())
    return v[:i] + "1_" + v[i:]


def _whitespace(v, data):
    pad = data.draw(st.sampled_from([" ", "\t", "\n", "  "]))
    where = data.draw(st.sampled_from(["before", "after", "both"]))
    return (pad if where != "after" else "") + v + \
        (pad if where != "before" else "")


@pytest.mark.parametrize("spoil", [_exponent, _underscore, _whitespace],
                         ids=["exponent", "underscore", "whitespace"])
def test_a_spoilt_number_string_exits_2_naming_it(spoil, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fuzz_strings") / "form.json")

    @settings(max_examples=30, deadline=2000, derandomize=True,
              database=None)
    @given(base=_form_docs(), data=st.data())
    def check(base, data):
        doc = copy.deepcopy(base)
        leaves = [p for p, v in _nodes(doc)
                  if not isinstance(v, (dict, list))]
        leaf = data.draw(st.sampled_from(leaves))
        bad = spoil(str(_get(doc, leaf)), data)
        _get(doc, leaf[:-1])[leaf[-1]] = bad
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code, result = _run(["invariants", "--form", path])
        assert code == 2, (leaf, bad, result)
        assert result["status"] == "error", (leaf, bad, result)
        assert repr(bad) in result["payload"]["message"], (bad, result)

    check()


def _form_with_coordinate(tmp_path, coord):
    doc = serialize.form_to_json(diagonal_form(gaussian_field(), [1, -1]))
    doc["entries"][0][0][0] = coord
    p = tmp_path / "form.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_a_huge_exponent_is_refused_at_once(tmp_path):
    path = _form_with_coordinate(tmp_path, "1e1000000")
    start = time.perf_counter()
    code, result = _run(["invariants", "--form", path])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and "'1e1000000'" in result["payload"]["message"]


@pytest.mark.parametrize("coord", ["1/0", "-3/000"])
def test_a_zero_denominator_has_its_own_message(tmp_path, coord):
    code, result = _run(["invariants", "--form",
                         _form_with_coordinate(tmp_path, coord)])
    assert code == 2
    assert result["payload"]["message"] == "zero denominator in %r" % coord


def test_a_short_delta_is_refused_not_padded(valid_inputs, tmp_path):
    # F = Q[x]/(x^2 + x - 1) has degree 2: delta = -3 must be sent as
    # ["-3", "0"], and ["-3"] is refused rather than read as (-3, 0)
    field = {"min_poly": [-1, 1, 1], "delta": ["-3"]}
    argv_of = _KINDS["field"][1]
    for delta, code in ((["-3"], 2), (["-3", "0"], 0), (["-3", "0", "0"], 2)):
        p = tmp_path / ("field%d.json" % len(delta))
        p.write_text(json.dumps(dict(field, delta=delta)))
        result_code, result = _run(argv_of(str(p), valid_inputs))
        assert result_code == code, result
        if code:
            assert "delta needs 2 coordinates" in result["payload"]["message"]
