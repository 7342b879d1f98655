import ast
import os
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import cmforms
from cmforms import (BudgetExceeded, FieldError, TotallyRealField,
                     NEGATIVE, POSITIVE, gaussian_field, make_cyclotomic,
                     rationals, validate_sign_pattern, weak_approx_find, zeta)


def test_totally_real_validation():
    TotallyRealField([-2, 0, 1])  # x^2 - 2
    with pytest.raises(FieldError):
        TotallyRealField([1, 0, 1])  # x^2 + 1 has no real root
    with pytest.raises(FieldError):
        TotallyRealField([-4, 0, 1])  # reducible
    with pytest.raises(FieldError):
        TotallyRealField([-2, 0, 2])  # not monic


def test_embedding_order_is_ascending():
    F = TotallyRealField([-2, 0, 1])
    # embedding 0 sends the generator to the smaller root -sqrt(2)
    assert F.sign_of_coords((Fraction(0), Fraction(1)), 0) < 0
    assert F.sign_of_coords((Fraction(0), Fraction(1)), 1) > 0


def test_certified_signs_near_zero():
    F = TotallyRealField([-2, 0, 1])
    # 99/70 is a convergent of sqrt(2): 99/70 - x is tiny but nonzero
    assert F.sign_of_coords((Fraction(99, 70), Fraction(-1)), 1) > 0
    assert F.sign_of_coords((Fraction(0), Fraction(0)), 0) == 0


def test_gaussian_arithmetic():
    E = gaussian_field()
    i = zeta(E, 4)
    assert i * i == E.from_rational(-1)
    x = E.from_rational(1) + i
    assert x.relative_norm() == E.from_rational(2)
    assert (x * x.conjugate()) == E.from_rational(2)
    assert x.inverse() * x == E.one()


def test_relative_norms():
    E = gaussian_field()
    i = zeta(E, 4)
    two_plus_3i = E.from_rational(2) + 3 * i
    n = two_plus_3i * two_plus_3i.conjugate()
    assert n == E.from_rational(13)


def test_cyclotomic_field_sqrt5():
    E = make_cyclotomic(5)
    z = zeta(E, 5)
    assert z ** 5 == E.one()
    assert sum((z ** k for k in range(1, 5)), E.zero()) == E.from_rational(-1)
    sqrt5 = 2 * (z + z ** 4) + 1
    assert sqrt5 * sqrt5 == E.from_rational(5)


@pytest.mark.parametrize("r", [3, 4, 5, 7, 8, 9, 12])
def test_primitive_root_orders(r):
    E = make_cyclotomic(r)
    z = zeta(E, r)
    assert z ** r == E.one()
    for k in range(1, r):
        assert z ** k != E.one()


def test_make_cyclotomic_rejects_bad_r():
    with pytest.raises(ValueError):
        make_cyclotomic(6)  # r = 2 mod 4
    with pytest.raises(ValueError):
        make_cyclotomic(2)


def test_zeta_in_larger_field():
    E = make_cyclotomic(12)
    z3 = zeta(E, 3)
    assert z3 ** 3 == E.one() and z3 != E.one()


@pytest.mark.parametrize("r", [0, -1, -4])
def test_zeta_refuses_r_below_one(r):
    # no r < 1 is the order of a primitive root
    with pytest.raises(FieldError):
        zeta(gaussian_field(), r)


def test_sign_at():
    E = make_cyclotomic(5)  # F = Q(sqrt 5) essentially, s = 2
    w = E.gen_F()  # zeta + zeta^{-1}, real values 2cos(2pi/5), 2cos(4pi/5)
    signs = sorted(w.sign_at(ell) for ell in range(E.s))
    assert signs == [-1, 1]
    with pytest.raises(FieldError):
        E.sqrt_delta().sign_at(0)  # not in F


def test_weak_approx_all_patterns():
    F = TotallyRealField([-2, 0, 1])
    for pattern in [(POSITIVE, POSITIVE), (POSITIVE, NEGATIVE),
                    (NEGATIVE, POSITIVE), (NEGATIVE, NEGATIVE)]:
        coords = weak_approx_find(F, pattern)
        for ell, want in enumerate(pattern):
            assert F.sign_of_coords(coords, ell) == want


def test_weak_approx_budget_exhaustion():
    F = rationals()
    with pytest.raises(BudgetExceeded):
        weak_approx_find(F, (POSITIVE,), budget=0)


def test_validate_sign_pattern():
    E = gaussian_field()
    validate_sign_pattern(E.base, (POSITIVE,))
    with pytest.raises(ValueError):
        validate_sign_pattern(E.base, (POSITIVE, NEGATIVE))
    with pytest.raises(ValueError):
        validate_sign_pattern(E.base, (0,))


_coord = st.fractions(min_value=-20, max_value=20, max_denominator=8)


def _elements(field):
    s = field.s
    return st.tuples(st.lists(_coord, min_size=s, max_size=s),
                     st.lists(_coord, min_size=s, max_size=s)) \
        .map(lambda ab: field.element(ab[0], ab[1]))


@given(_elements(make_cyclotomic(5)), _elements(make_cyclotomic(5)),
       _elements(make_cyclotomic(5)))
def test_field_axioms_cyclotomic5(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    if not x.is_zero():
        assert x * x.inverse() == x.field.one()


@given(_elements(gaussian_field()))
def test_norm_is_rational_and_positive(x):
    n = x * x.conjugate()
    assert n.is_rational()
    assert n.as_fraction() >= 0
    assert (n.as_fraction() == 0) == x.is_zero()


@given(_elements(make_cyclotomic(5)), _elements(make_cyclotomic(5)))
def test_additive_group_and_zero_from_the_coordinates(x, y):
    assert (x + y) - y == x and -(-x) == x
    assert x - x == 0 and 1 + x - 1 == x
    assert x.is_zero() == (not x) == (x == 0)
    assert (x == y) == (x.coords == y.coords)
    # an element of an equal field built apart is the same element
    twin = make_cyclotomic(5).element(x.a, x.b)
    assert twin == x and hash(twin) == hash(x)


@given(_elements(gaussian_field()), _elements(make_cyclotomic(5)))
def test_e_rationals_round_trip(x, z):
    for w in (x, z):
        qs = w.coords
        assert qs == w.a + w.b
        back = w.parent.from_rationals(qs)
        assert back == w and back.coords == w.coords and hash(back) == hash(w)
        assert all(type(q) is Fraction for q in back.coords)
    # integers come back as Fraction coordinates
    assert x.parent.from_rationals([1, 2]).coords == (Fraction(1), Fraction(2))


def test_element_is_a_parent_and_coordinates_with_read_only_views():
    E = make_cyclotomic(5)
    x = E.element([1, 2], [3, 4])
    assert x.parent is E and x.field is E
    assert x.coords == (1, 2, 3, 4) and x.a == (1, 2) and x.b == (3, 4)
    assert not hasattr(x, "__dict__")
    for view in ("a", "b", "field"):
        with pytest.raises(AttributeError):
            setattr(x, view, x.coords)


def test_one_coercion_refuses_another_field():
    E, E5 = gaussian_field(), make_cyclotomic(5)
    assert E.coerce(Fraction(1, 2)) == E.element([Fraction(1, 2)])
    for stranger in (E5.one(), "1", 0.5, None):
        with pytest.raises(FieldError, match="field mismatch"):
            E.coerce(stranger)
        with pytest.raises(FieldError, match="field mismatch"):
            E.one() + stranger
        assert E.one() != stranger


def _module_trees():
    """(module, syntax tree) for every module under src/cmforms."""
    src = os.path.dirname(os.path.abspath(cmforms.__file__))
    for module in sorted(os.listdir(src)):
        if module.endswith(".py"):
            with open(os.path.join(src, module)) as fh:
                yield module, ast.parse(fh.read(), module)


def _class_bodies():
    """(module, class name, base names, names bound in the class body) for
    every class under src/cmforms."""
    for module, tree in _module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bound = {n.name for n in node.body if isinstance(
                    n, (ast.FunctionDef, ast.AsyncFunctionDef))}
                bound |= {t.id for n in node.body if isinstance(n, ast.Assign)
                          for t in n.targets if isinstance(t, ast.Name)}
                bases = {b.id if isinstance(b, ast.Name) else b.attr
                         for b in node.bases}
                yield module, node.name, bases, bound


def test_field_parent_alone_states_the_parent_protocol():
    # coerce, zero and one live in field.Parent only, and its subclasses
    # read == and hash from Parent's _key instead of writing their own
    classes = list(_class_bodies())
    assert [(m, c) for m, c, _, bound in classes
            if bound & {"coerce", "zero", "one"}] == [("field.py", "Parent")]
    # the layout of the flat Q-coordinates is known in field only
    assert {(m, c) for m, c, _, bound in classes
            if bound & {"from_rationals", "_split", "_join"}} == {
        ("field.py", "Parent")}
    parents = {"Parent"}
    while True:
        more = {c for _, c, bases, _ in classes if bases & parents} - parents
        if not more:
            break
        parents |= more
    assert {"CMField", "CyclicCubicExtension", "CyclicAlgebra"} < parents
    assert [(m, c) for m, c, _, bound in classes if c in parents - {"Parent"}
            and bound & {"__eq__", "__hash__"}] == []


def test_field_alone_defines_the_integer_kernel():
    # _encode, _mul, _apply and _decode are defined in field and nowhere else
    kernel = {"_encode", "_mul", "_apply", "_decode"}
    defined = {(module, n.name) for module, tree in _module_trees()
               for n in ast.walk(tree)
               if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
               and n.name in kernel}
    assert defined == {("field.py", name) for name in kernel}


def test_field_alone_lays_out_the_coordinates():
    # outside field no module indexes `coords` or builds an element of L
    # or A from a coordinate tuple: Parent's _split and _join do that
    found = []
    for module, tree in _module_trees():
        for n in ast.walk(tree) if module != "field.py" else ():
            if isinstance(n, ast.Subscript) and isinstance(
                    n.value, ast.Attribute) and n.value.attr == "coords":
                found.append((module, n.lineno, "coords[...]"))
            if isinstance(n, ast.Call):
                name = getattr(n.func, "id", getattr(n.func, "attr", None))
                if name in {"CubicExtElement", "AlgebraElement"}:
                    found.append((module, n.lineno, name))
    assert found == []
