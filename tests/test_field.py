import ast
import itertools
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import cmforms
from cmforms import (FieldError, TotallyRealField, NEGATIVE, POSITIVE,
                     gaussian_field, make_cyclotomic, polyn,
                     validate_sign_pattern, weak_approx_find, zeta)
from cmforms import field as field_module
from oracles import signs_at_real_roots


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


def test_weak_approx_is_built_the_same_after_sign_queries(monkeypatch):
    # sign queries refine the isolators in place; the construction reads
    # the separators taken before any refinement, and searches nothing
    monkeypatch.setattr(field_module, "_candidates", _no_search)
    F = TotallyRealField(polyn.real_cyclotomic(7))
    pattern = (NEGATIVE, POSITIVE, POSITIVE)
    before = weak_approx_find(F, pattern)
    isolators = list(F._isolators)
    for k in range(40):
        coords = (Fraction(k, 7), Fraction(-1) ** k, Fraction(1, k + 1))
        for ell in range(F.degree):
            F.sign_of_coords(coords, ell)
    assert F._isolators != isolators
    assert weak_approx_find(F, pattern) == before
    assert before == (Fraction(3, 2), Fraction(1), Fraction(0))


def _no_search(*args, **kw):
    raise AssertionError("weak approximation enumerated candidates")


@pytest.mark.parametrize("r", [5, 7, 9, 11, 13, 17, 31, 41])
def test_weak_approx_meets_every_pattern_by_the_sympy_oracle(r, monkeypatch):
    # every pattern up to degree 8, 32 seeded random ones above; the
    # signs are read off sympy's root intervals, not sign_of_coords
    monkeypatch.setattr(field_module, "_candidates", _no_search)
    F = TotallyRealField(polyn.real_cyclotomic(r))
    s, rng = F.degree, random.Random(r)
    patterns = itertools.product((POSITIVE, NEGATIVE), repeat=s) \
        if s <= 8 else [tuple(rng.choice((POSITIVE, NEGATIVE))
                              for _ in range(s)) for _ in range(32)]
    for pattern in patterns:
        coords = weak_approx_find(F, pattern)
        assert len(coords) == s
        assert signs_at_real_roots(F.min_poly, coords) == pattern


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


_INVERSE_FIELDS = tuple(make_cyclotomic(r) for r in (4, 5, 8, 7))


@st.composite
def _elements_of_e_or_f(draw):
    """An element of Q(i), Q(zeta5), Q(zeta8) or Q(zeta7); about half lie
    in F, with b = 0."""
    E = draw(st.sampled_from(_INVERSE_FIELDS))
    a = draw(st.lists(_coord, min_size=E.s, max_size=E.s))
    in_F = draw(st.booleans())
    return E.element(a, [] if in_F else draw(
        st.lists(_coord, min_size=E.s, max_size=E.s)))


@given(_elements_of_e_or_f())
def test_inverse_is_a_two_sided_inverse(x):
    E = x.parent
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    assert x * x.inverse() == E.one() == x.inverse() * x
    assert x.inverse().inverse() == x


def test_inverse_of_zero_raises():
    for E in _INVERSE_FIELDS:
        with pytest.raises(ZeroDivisionError):
            E.zero().inverse()


def test_inverse_makes_no_product_and_no_relative_norm(monkeypatch):
    # theta(x) N(x)^-1 on numerators: N(x) comes from the table kernel
    xs = [E.element(list(range(1, E.s + 1)), b)
          for E in _INVERSE_FIELDS for b in ([], [Fraction(1, 3)] * E.s)]
    expected = [(x * x.conjugate()).a for x in xs]

    def refused(*args):
        raise AssertionError("inverse called an E-product")
    for name in ("__mul__", "__rmul__", "relative_norm"):
        monkeypatch.setattr(field_module.FieldElement, name, refused)
    inverses = [x.inverse() for x in xs]
    monkeypatch.undo()
    for x, y, n in zip(xs, inverses, expected):
        assert x * y == x.parent.one()
        assert y.relative_norm().a == x.parent._finv(n)


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
    # the kernel's functions are defined in field and nowhere else
    kernel = {"_encode", "_mul", "_prod", "_apply", "_image", "_sparse",
              "_same", "_decode"}
    defined = {(module, n.name) for module, tree in _module_trees()
               for n in ast.walk(tree)
               if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
               and n.name in kernel}
    assert defined == {("field.py", name) for name in kernel}


def test_calgebra_states_the_splitting_once():
    # in calgebra only S's integer rows (`_rows`) and the builder of the
    # maps they apply (`_maps`) read alpha_L, so X^3 = alpha and
    # X b = tau(b) X are stated there alone
    tree = dict(_module_trees())["calgebra.py"]

    def reads(node):
        return sum(isinstance(n, ast.Attribute) and n.attr == "alpha_L"
                   and isinstance(n.ctx, ast.Load) for n in ast.walk(node))
    allowed = sum(reads(fn) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef)
                  and fn.name in {"_rows", "_maps"})
    assert reads(tree) == allowed > 0


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
