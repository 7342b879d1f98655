import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cmforms
import oracles
from cmforms import calgebra, field, linalg
from cmforms.calgebra import (_LABELS, AlgebraElement, AlgebraError,
                              CyclicAlgebra,
                              CubicExtElement, CyclicCubicExtension,
                              IN_GROUP, Involution,
                              InvolutionError, NOT_DIVISION, NOT_IN_GROUP,
                              UNKNOWN,
                              builtin_example, is_division_candidate,
                              make_involution, splitting_signature,
                              unitary_membership, verify_involution)
from cmforms.field import CMField, FieldElement, make_cyclotomic, rationals
from cmforms.polyn import sign_variations
from cmforms.serialize import (algebra_from_json, algebra_to_json,
                               element_from_json, element_to_json)


@pytest.fixture(scope="module")
def builtin():
    return builtin_example()


def _random_L(ext, rng):
    E = ext.E
    def e():
        return E.element([Fraction(rng.randint(-4, 4), rng.randint(1, 2))],
                         [Fraction(rng.randint(-4, 4), 2)])
    return ext.element([e(), e(), e()])


def _random_A(algebra, rng):
    return algebra.element(*[_random_L(algebra.ext, rng) for _ in range(3)])


def test_extension_validation():
    E = make_cyclotomic(4)
    with pytest.raises(AlgebraError):
        # tau(y) = y is the identity
        CyclicCubicExtension(E, [-1, -2, 1, 1], [0, 1], [0, 1])
    with pytest.raises(AlgebraError):
        # tau(y) = y + 1 is not a root of g
        CyclicCubicExtension(E, [-1, -2, 1, 1], [1, 1], [0, 1])
    with pytest.raises(AlgebraError, match="c\\(y\\)"):
        # c(y) = -y is an involution but not a root of theta(g) = g, so c
        # is not multiplicative
        CyclicCubicExtension(E, [-1, -2, 1, 1], [-2, 0, 1], [0, -1])


def test_extension_field_axioms(builtin):
    algebra, _ = builtin
    ext = algebra.ext
    y = ext.gen()
    x = ext.element([1, 2, 3])
    assert x * x.inverse() == ext.one()
    # tau is a field automorphism of order 3
    a, b = ext.element([1, 1]), ext.element([0, 2, 1])
    assert ext.tau_of(a * b) == ext.tau_of(a) * ext.tau_of(b)
    assert ext.tau_of(ext.tau_of(ext.tau_of(y))) == y
    # conjugation fixes y and inverts i
    i = ext.from_E(ext.E.sqrt_delta())
    assert y.conjugate() == y
    assert i.conjugate() == -i


def test_signs_at_the_real_places_of_K(builtin):
    algebra, _ = builtin
    ext = algebra.ext
    y = ext.gen()
    # eta = 2cos(2 pi k/7): -1.80, -0.45, 1.25 in the order of K's places
    assert ext.s == 3
    assert [y.sign_at(ell) for ell in range(3)] == [-1, -1, 1]
    assert [(1 + y).sign_at(ell) for ell in range(3)] == [-1, 1, 1]
    assert ext.zero().sign_at(0) == 0
    with pytest.raises(AlgebraError, match="element of K"):
        ext.from_E(ext.E.sqrt_delta()).sign_at(0)
    # over Q(zeta5) the E-coordinates of a K-element may be irrational
    E5 = make_cyclotomic(5)
    ext5 = CyclicCubicExtension(E5, [-1, -2, 1, 1], [-2, 0, 1], [0, 1])
    with pytest.raises(AlgebraError, match="rational coordinates"):
        ext5.from_E(E5.gen_F()).sign_at(0)


def test_K_is_refused_over_a_larger_F():
    # over Q(zeta5), K = F(eta) has degree 6, not the 3 of Q[y]/(g)
    E5 = make_cyclotomic(5)
    ext5 = CyclicCubicExtension(E5, [-1, -2, 1, 1], [-2, 0, 1], [0, 1])
    algebra = CyclicAlgebra(ext5, E5.one())
    involution = make_involution(algebra, ext5.one())
    for attempt in (lambda: ext5.s, lambda: ext5.gen().sign_at(0),
                    lambda: splitting_signature(algebra, involution,
                                                algebra.one())):
        with pytest.raises(AlgebraError, match="F = Q"):
            attempt()


def test_parts_from_another_extension_are_refused(builtin):
    # the same cubic over Q(zeta5) is a different L from the built-in one
    algebra, _ = builtin
    L5 = CyclicCubicExtension(make_cyclotomic(5), [-1, -2, 1, 1], [-2, 0, 1],
                              [0, 1])
    y5 = L5.gen()
    for attempt in (lambda: algebra.element(y5),
                    lambda: algebra.element(0, None, y5),
                    lambda: algebra.from_L(y5),
                    lambda: algebra.one() + y5,
                    lambda: make_involution(algebra, L5.from_E(5))):
        with pytest.raises(AlgebraError, match="extension mismatch"):
            attempt()


def test_extension_over_qzeta5():
    # the same cubic and tau over E = Q(zeta5), where F has degree s = 2
    E = make_cyclotomic(5)
    ext = CyclicCubicExtension(E, [-1, -2, 1, 1], [-2, 0, 1], [0, 1])
    rng = random.Random(7)

    def e():
        return E.element([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                          for _ in range(2)],
                         [Fraction(rng.randint(-3, 3)) for _ in range(2)])
    for _ in range(5):
        x, y = ext.element([e(), e(), e()]), ext.element([e(), e(), e()])
        assert x * x.inverse() == ext.one()
        assert ext.tau_of(x * y) == ext.tau_of(x) * ext.tau_of(y)
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert x.conjugate().conjugate() == x
        assert (x * y).relative_norm() == \
            x.relative_norm() * y.relative_norm()


_SPLIT_L = """
from fractions import Fraction
from cmforms.calgebra import CyclicCubicExtension
from cmforms.field import make_cyclotomic
# g = (y - 1)(y - 2)(y - 3) splits; tau cycles the roots 1 -> 2 -> 3
ext = CyclicCubicExtension(make_cyclotomic(4), [-6, 11, -6, 1],
                           [-2, Fraction(11, 2), Fraction(-3, 2)], [0, 1])
x = ext.element([-1, 1])  # y - 1, a zero divisor
"""


def _assert_raises_zero_division(setup, call):
    scope = {}
    exec(setup, scope)
    with pytest.raises(ZeroDivisionError):
        eval(call, scope)
    # the check is a raise, not an assert: it holds under python -O too
    script = setup + """
try:
    %s
except ZeroDivisionError:
    print("ZeroDivisionError")
""" % call
    src = os.path.dirname(os.path.dirname(os.path.abspath(cmforms.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == "ZeroDivisionError", proc.stderr


def test_zero_divisor_inverse_raises():
    _assert_raises_zero_division(_SPLIT_L, "x.inverse()")


def test_relative_norm_transitive(builtin):
    algebra, _ = builtin
    ext = algebra.ext
    x = ext.element([1, 1])
    n = x.relative_norm()
    assert n.is_rational()  # x lies in K here, so the norm is rational
    # N(xy) = N(x) N(y)
    y = ext.element([ext.E.sqrt_delta(), ext.E.one()])
    assert (x * y).relative_norm() == x.relative_norm() * y.relative_norm()


def test_defining_relations(builtin):
    algebra, _ = builtin
    ext = algebra.ext
    X = algebra.X()
    assert X * X * X == algebra.element(algebra.alpha_L)
    rng = random.Random(1)
    for _ in range(20):
        b = _random_L(ext, rng)
        assert X * algebra.from_L(b) == algebra.from_L(ext.tau_of(b)) * X


def test_one_plus_x_times_one_minus_x(builtin):
    algebra, _ = builtin
    X = algebra.X()
    one = algebra.one()
    assert (one + X) * (one - X) == one - X * X


def test_splitting_homomorphism(builtin):
    algebra, _ = builtin
    rng = random.Random(2)
    for _ in range(20):
        x, y = _random_A(algebra, rng), _random_A(algebra, rng)
        lhs = algebra.splitting_matrix(x * y)
        rhs = linalg.mat_mul(algebra.splitting_matrix(x),
                             algebra.splitting_matrix(y))
        assert linalg.mat_eq(lhs, rhs)


def test_splitting_of_center_and_L(builtin):
    algebra, _ = builtin
    ext = algebra.ext
    lam = algebra.element(ext.from_E(ext.E.sqrt_delta()))
    M = algebra.splitting_matrix(lam)
    assert all(M[i][i] == M[0][0] for i in range(3))
    y = ext.gen()
    My = algebra.splitting_matrix(algebra.from_L(y))
    assert My[0][0] == y and My[1][1] == ext.tau_of(y)
    assert My[2][2] == ext.tau_of(ext.tau_of(y))


def test_reduced_norm(builtin):
    algebra, _ = builtin
    E = algebra.E
    assert algebra.reduced_norm(algebra.one()) == E.one()
    assert algebra.reduced_norm(algebra.X()) == algebra.alpha
    lam = E.from_rational(2) + E.sqrt_delta()
    assert algebra.reduced_norm(algebra.element(algebra.ext.from_E(lam))) \
        == lam ** 3
    rng = random.Random(3)
    for _ in range(20):
        x, y = _random_A(algebra, rng), _random_A(algebra, rng)
        assert algebra.reduced_norm(x * y) == \
            algebra.reduced_norm(x) * algebra.reduced_norm(y)


def test_inverse(builtin):
    algebra, _ = builtin
    rng = random.Random(4)
    for _ in range(5):
        x = _random_A(algebra, rng)
        if algebra.reduced_norm(x).is_zero():
            continue
        xi = algebra.inverse(x)
        assert x * xi == algebra.one() and xi * x == algebra.one()
    with pytest.raises(ZeroDivisionError):
        algebra.inverse(algebra.zero())


def _oracle_cases(algebra, random_L, rng):
    """Dense elements, single-part ones and ones with one zero part."""
    cases = [_parts_element(algebra, random_L, rng, range(3))
             for _ in range(4)]
    for k in range(3):
        cases.append(_parts_element(algebra, random_L, rng, (k,)))
        cases.append(_parts_element(algebra, random_L, rng,
                                    [j for j in range(3) if j != k]))
    return cases


def _parts_element(algebra, random_L, rng, ks):
    return algebra.element(*[random_L(rng) if k in ks else None
                             for k in range(3)])


def _assert_matches_elimination(algebra, x):
    # Nrd(x) = det S(x), the cofactor row is that of column 0 of S(x), and
    # x^-1 = row 0 of S(x)^-1, by exact elimination
    S = algebra.splitting_matrix(x)
    d = linalg.det(S)
    n, adj, den = algebra._norm_and_adjugate(x)
    assert d.is_in_E() and n.coords == d.coeffs[0].coords
    minors = [linalg.det([row[1:] for r, row in enumerate(S) if r != k])
              for k in range(3)]
    assert [field._decode(algebra.ext, a, den).coords for a in adj] == [
        (-m if k == 1 else m).coords for k, m in enumerate(minors)]
    if d.is_zero():
        with pytest.raises(ZeroDivisionError):
            algebra.inverse(x)
    else:
        assert [b.coords for b in algebra.inverse(x).parts] == [
            b.coords for b in linalg.inverse(S)[0]]


def test_cofactors_match_the_elimination_oracle(builtin):
    # on every L of _oracle_extensions(), so that the common denominator of
    # the maps of S is checked where it is not 1 (Q(sqrt(-3/2)), alpha with
    # a denominator) and where c(y) = -y; the split algebra's 1 - X and X
    # have Nrd 0 and 1
    rng = random.Random(12)
    for name, ext in _oracle_extensions().items():
        E, s = ext.E, ext.E.s
        algebra = builtin[0] if name == "qi" else CyclicAlgebra(
            ext, E.element([2] + [1] * (s - 1), [Fraction(1, 2)]))
        cases = []
        for _ in range(4 if name == "qi" else 2):
            cases += _oracle_cases(algebra,
                                   lambda r: _oracle_element(ext, r), rng)
        assert len(cases) >= 20
        for x in cases:
            _assert_matches_elimination(algebra, x)
        split = CyclicAlgebra(ext, 1)
        for x in (split.one() - split.X(), split.X()):
            _assert_matches_elimination(split, x)


def test_cofactors_match_the_elimination_oracle_over_qzeta5():
    E = make_cyclotomic(5)
    ext = CyclicCubicExtension(E, [-1, -2, 1, 1], [-2, 0, 1], [0, 1])
    algebra = CyclicAlgebra(ext, E.element([2, 1], [Fraction(1, 2), 0]))

    def random_L(rng):
        return ext.element([
            E.element([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                       for _ in range(2)],
                      [Fraction(rng.randint(-3, 3)) for _ in range(2)])
            for _ in range(3)])
    for x in _oracle_cases(algebra, random_L, random.Random(13)):
        _assert_matches_elimination(algebra, x)


_SPLIT_A = """
from cmforms.calgebra import CyclicAlgebra, builtin_example
algebra = CyclicAlgebra(builtin_example()[0].ext, 1)
x = algebra.one() - algebra.X()  # Nrd(1 - X) = 1 - alpha = 0
"""


def test_split_algebra_zero_divisor_has_no_inverse():
    scope = {}
    exec(_SPLIT_A, scope)
    assert scope["algebra"].reduced_norm(scope["x"]).is_zero()
    _assert_raises_zero_division(_SPLIT_A, "algebra.inverse(x)")


def _oracle_extensions():
    """The built-in L over Q(i), the Q(zeta5) one of the elimination test,
    one over Q(sqrt(-3/2)), whose structure table has denominator 2, and
    the built-in L on the generator i*eta, where c(y) = -y: there g is
    y^3 + i y^2 + 2y + i and tau(y) = -i y^2 - 2i, and on the generator
    eta + i/2, where tau and c = y - i have denominators too: there g is
    y^3 + (1 - 3i/2) y^2 - (11/4 + i) y - 5/4 + 9i/8 and tau(y) =
    y^2 - i y - 9/4 + i/2."""
    cubic = ([-1, -2, 1, 1], [-2, 0, 1], [0, 1])
    E = make_cyclotomic(4)
    i = E.element([0], [Fraction(1, 2)])  # sqrt(delta) = 2i
    return {"qi": builtin_example()[0].ext,
            "qzeta5": CyclicCubicExtension(make_cyclotomic(5), *cubic),
            "q-3/2": CyclicCubicExtension(
                CMField(rationals(), [Fraction(-3, 2)]), *cubic),
            "i-eta": CyclicCubicExtension(E, [i, 2, i, 1],
                                          [-2 * i, 0, -i], [0, -1]),
            "eta+i/2": CyclicCubicExtension(
                E, [Fraction(-5, 4) + Fraction(9, 8) * i,
                    Fraction(-11, 4) - i, 1 - Fraction(3, 2) * i, 1],
                [Fraction(-9, 4) + i / 2, -i, 1], [-i, 1])}


def _oracle_element(ext, rng):
    """A random element of L with some zero parts; now and then in E."""
    E, s = ext.E, ext.E.s

    def q():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4)) \
            if rng.random() < 0.7 else Fraction(0)

    if rng.random() < 0.15:  # an E-constant
        return ext.from_E(E.element([q() for _ in range(s)],
                                    [q() for _ in range(s)]))
    return ext.element([E.zero() if rng.random() < 0.2 else
                        E.element([q() for _ in range(s)],
                                  [q() for _ in range(s)])
                        for _ in range(3)])


def _assert_same(got, want):
    assert got.coords == want.coords
    assert hash(got) == hash(want)


_ORACLE_NAMES = ["qi", "qzeta5", "q-3/2", "i-eta", "eta+i/2"]


@pytest.mark.parametrize("name", _ORACLE_NAMES)
def test_l_product_matches_the_schoolbook_oracle(name):
    ext = _oracle_extensions()[name]
    assert name != "q-3/2" or ext._table[1] == 2
    rng = random.Random(21)
    pairs = [(ext.zero(), ext.gen()), (ext.one(), ext.gen()),
             (ext.gen(), ext.gen() * ext.gen())]
    pairs += [(_oracle_element(ext, rng), _oracle_element(ext, rng))
              for _ in range(150)]
    for x, y in pairs:
        _assert_same(x * y, oracles.schoolbook_lmul(x, y))


@pytest.mark.parametrize("name", _ORACLE_NAMES)
def test_tau_and_conjugation_match_the_combination_oracle(name):
    ext = _oracle_extensions()[name]
    assert name != "i-eta" or ext.gen().conjugate() == -ext.gen()
    tau_y, c_y = ext.element(ext.tau_poly), ext.element(ext.conj_poly)
    rng = random.Random(22)
    xs = [ext.zero(), ext.one(), ext.gen()]
    xs += [_oracle_element(ext, rng) for _ in range(150)]
    for x in xs:
        _assert_same(ext.tau_of(x), oracles.combine_images(x, tau_y))
        _assert_same(x.conjugate(),
                     oracles.combine_images(x, c_y, conjugate=True))
        # an E-scalar multiplies as its constant in L, either way round
        e = x.coeffs[1]
        _assert_same(e * x, ext.from_E(e) * x)
        _assert_same(x * e, ext.from_E(e) * x)


def test_tau_of_lifts_a_value_of_E_or_Q(builtin):
    # tau fixes E, so an E-element or a rational comes back lifted to L
    ext = builtin[0].ext
    for value in (ext.E.one(), 3, Fraction(1, 2)):
        got = ext.tau_of(value)
        assert type(got) is CubicExtElement and got == ext.from_E(value)


@pytest.mark.parametrize("name", _ORACLE_NAMES)
def test_l_rationals_round_trip(name):
    ext = _oracle_extensions()[name]
    rng = random.Random(23)
    for x in [ext.zero(), ext.gen()] + [_oracle_element(ext, rng)
                                        for _ in range(50)]:
        qs = x.coords
        assert len(qs) == 6 * ext.E.s
        _assert_same(ext.from_rationals(qs), x)


def test_algebra_rationals_are_labels_times_E_basis(builtin):
    # the flat index of lambda y^i X^j is k * 2s + p, (i, j) = _LABELS[k]
    # and p the index of lambda's coordinate in E
    algebra, _ = builtin
    E, rng = algebra.E, random.Random(24)
    m = 2 * E.s
    for x in [_random_A(algebra, rng) for _ in range(20)]:
        qs = x.coords
        assert qs == tuple(q for i, j in _LABELS
                           for q in x.parts[j].coeffs[i].coords)
        assert algebra.from_rationals(qs) == x
    basis, e = algebra._q_basis(), E._q_basis()
    assert basis == [b * ep for b in algebra.basis() for ep in e]
    assert len(basis) == 9 * m


def test_from_rationals_refuses_a_wrong_length(builtin):
    algebra, _ = builtin
    for parent, n in ((algebra.E, 2), (algebra.ext, 6), (algebra, 18)):
        assert len(parent.one().coords) == n
        for qs in ([1] * (n - 1), [1] * (n + 1), ()):
            with pytest.raises(ValueError, match="needs %d " % n):
                parent.from_rationals(qs)


def _assert_same_A(got, want):
    assert got.coords == want.coords
    assert hash(got) == hash(want)


def test_involution_matches_the_image_oracle(builtin):
    algebra, involution = builtin
    loaded = algebra_from_json(algebra_to_json(algebra, involution))[1]
    images = dict(involution.images)
    images[(1, 0)] = images[(1, 0)] + algebra.X()
    changed = Involution(algebra, images)
    rng = random.Random(25)
    xs = algebra.basis() + [algebra.zero(), algebra.one()]
    xs += [_random_A(algebra, rng) for _ in range(30)]
    for inv in (involution, loaded, changed):
        for x in xs:
            _assert_same_A(inv.apply(x), oracles.star_by_images(inv, x))
    # the changed image is what the changed map reads
    y = algebra.basis()[1]
    assert changed.apply(y) == involution.apply(y) + algebra.X()


def test_involution_images_are_read_only(builtin):
    algebra, involution = builtin
    with pytest.raises(TypeError):
        involution.images[(0, 0)] = algebra.one()
    assert involution.apply(algebra.one()) == algebra.one()


def test_e_multiplication_counts(builtin, monkeypatch):
    # pins the cost of the cofactor norm and inverse, of a product and of
    # the involution check, in E-multiplications and in L-multiplications;
    # an L-product, an A-product, tau, the conjugation and the involution
    # make no E-product, since all five are read off the integer kernel, so
    # the E-products left are the one each inverse in E makes; an A-product
    # (its table built with the built-in algebra) makes no L-product but
    # one `field._mul` call, and the reduced norm and the inverse make no
    # L-product: they run on the integer rows of S(x), encoding x once;
    # the involution check and membership build no element at all
    algebra, involution = builtin
    rng = random.Random(5)
    x = _random_A(algebra, rng)
    y = _random_A(algebra, rng)
    X = algebra.X()
    calls = {FieldElement: 0, CubicExtElement: 0}

    def counted(cls):
        mul = cls.__mul__

        def call(a, b):
            calls[cls] += 1
            return mul(a, b)
        monkeypatch.setattr(cls, "__mul__", call)
        monkeypatch.setattr(cls, "__rmul__", call)
    counted(FieldElement)
    counted(CubicExtElement)

    def count(fn):
        calls.update(dict.fromkeys(calls, 0))
        fn()
        return calls[FieldElement], calls[CubicExtElement]
    e_nrd, l_nrd = count(lambda: algebra.reduced_norm(x))
    e_inv, l_inv = count(lambda: algebra.inverse(x))
    e_xy, l_xy = count(lambda: X * y)
    e_inv_check, l_inv_check = count(lambda: verify_involution(involution))
    assert (l_nrd, l_inv, l_xy, l_inv_check) == (0, 0, 0, 0)
    assert e_nrd == 0 and e_inv <= 1 and e_xy == 0
    assert count(lambda: x * y) == (0, 0)
    xy, tables, mul = _product_oracle(algebra, x, y), [], calgebra._mul
    monkeypatch.setattr(calgebra, "_mul",
                        lambda t, a, b: tables.append(t) or mul(t, a, b))
    assert x * y == xy
    assert len(tables) == 1 and tables[0] is algebra._table
    assert e_inv_check == 0
    encodes, encode = [], field._encode
    for module in (field, calgebra):
        monkeypatch.setattr(module, "_encode",
                            lambda xs: encodes.append(xs) or encode(xs))
    algebra.reduced_norm(x)
    assert encodes == [(x,)]  # x, once
    b = x.parts[1]
    assert count(lambda: algebra.ext.tau_of(b)) == (0, 0)
    assert count(lambda: b.conjugate()) == (0, 0)
    assert count(lambda: involution.apply(x)) == (0, 0)


def test_involution_checks_call_no_linalg_and_no_decode(builtin,
                                                        monkeypatch):
    # verify_involution and unitary_membership run on numerators alone:
    # no matrix function, no decoded element, no element-level product
    algebra, involution = builtin
    h = algebra.from_L(algebra.ext.element([1, 1]))
    x = _random_A(algebra, random.Random(9))
    members = [unitary_membership(algebra, involution, h, y)
               for y in (x, -algebra.one())]

    def refused(*args, **kwargs):
        raise AssertionError("called")
    for name in dir(linalg):
        if callable(getattr(linalg, name)) and not name.startswith("__"):
            monkeypatch.setattr(linalg, name, refused)
    for module in (field, calgebra):
        monkeypatch.setattr(module, "_decode", refused)
    for cls in (FieldElement, CubicExtElement, AlgebraElement):
        monkeypatch.setattr(cls, "__mul__", refused)
        monkeypatch.setattr(cls, "__rmul__", refused)
    assert verify_involution(involution) is involution
    assert [unitary_membership(algebra, involution, h, y)
            for y in (x, -algebra.one())] == members == [NOT_IN_GROUP,
                                                         IN_GROUP]


def test_division_candidate_trivial(builtin):
    algebra, _ = builtin
    ext = algebra.ext
    split = CyclicAlgebra(ext, 1)
    v = is_division_candidate(split, budget=10)
    assert v == NOT_DIVISION and v.witness.relative_norm() == algebra.E.one()
    # alpha = N(y) is also a norm by construction
    ny = ext.gen().relative_norm()
    v2 = is_division_candidate(CyclicAlgebra(ext, ny), budget=3000)
    assert v2 == NOT_DIVISION


def test_division_candidate_builtin_unknown(builtin):
    algebra, _ = builtin
    # the shipped alpha is a genuine non-norm; the bounded search is honest
    assert is_division_candidate(algebra, budget=800) == UNKNOWN


def test_involution_axioms(builtin):
    algebra, involution = builtin
    verify_involution(involution)  # on 1, y, X + splitting compatibility
    star = involution.apply
    assert star(algebra.one()) == algebra.one()
    rng = random.Random(5)
    for _ in range(10):
        x, y = _random_A(algebra, rng), _random_A(algebra, rng)
        assert star(x * y) == star(y) * star(x)
        assert star(star(x)) == x


def test_builtin_is_built_once_with_conjugator():
    algebra, involution = builtin_example()
    assert builtin_example() is builtin_example()
    assert involution.splitting_conjugator is not None
    # the conjugator is what the splitting check compares against
    ext = algebra.ext
    wrong = Involution(algebra, involution.images,
                       linalg.identity(3, ext.one(), ext.zero()))
    with pytest.raises(InvolutionError, match="splitting compatibility"):
        verify_involution(wrong)


@pytest.mark.parametrize("label", _LABELS, ids=lambda l: "y%dX%d" % l)
def test_each_wrong_image_is_refused(builtin, label):
    # the generator checks see a wrong image of any basis element, not
    # only of 1, y and X; without the splitting conjugator as well
    algebra, involution = builtin
    images = dict(involution.images)
    images[label] = images[label] + 1
    for D in (involution.splitting_conjugator, None):
        with pytest.raises(InvolutionError):
            verify_involution(Involution(algebra, images, D))


def test_involution_requires_matching_beta(builtin):
    algebra, _ = builtin
    with pytest.raises(InvolutionError):
        make_involution(algebra, algebra.ext.from_E(3))
    with pytest.raises(InvolutionError):
        # beta = i is not conjugation-fixed
        make_involution(algebra, algebra.ext.from_E(
            algebra.E.sqrt_delta()))


def test_unitary_membership(builtin):
    algebra, involution = builtin
    ext, E = algebra.ext, algebra.E
    D = involution.splitting_conjugator
    i = algebra.element(E.sqrt_delta() * Fraction(1, 2))
    # central elements of norm one lie in every U(h)
    members = [algebra.one(), -algebra.one(), i, (3 + 4 * i) * Fraction(1, 5)]
    rng = random.Random(6)
    others = [_random_A(algebra, rng) for _ in range(8)]
    for h in (algebra.one(), algebra.from_L(ext.element([1, 1]))):
        # matrix oracle: S is injective, so x* h x = h iff
        # S(x)^H D S(h) S(x) = D S(h)
        G = linalg.mat_mul(D, algebra.splitting_matrix(h))
        rejected = 0
        for x in members + others:
            S = algebra.splitting_matrix(x)
            oracle = linalg.mat_eq(G, linalg.mat_mul(
                linalg.conj_transpose(S),
                linalg.mat_mul(G, S)))
            v = unitary_membership(algebra, involution, h, x)
            assert v == (IN_GROUP if oracle else NOT_IN_GROUP)
            if x in members:
                assert v == IN_GROUP and v.scalar == E.one()
            elif v == NOT_IN_GROUP:
                rejected += 1
        assert rejected >= 7  # generic elements are not unitary
    with pytest.raises(AlgebraError):
        unitary_membership(algebra, involution, algebra.X(), algebra.one())
    with pytest.raises(ZeroDivisionError, match="not invertible"):
        unitary_membership(algebra, involution, algebra.zero(),
                           algebra.one())


def _half_integer_A(algebra, rng):
    """A random element of A whose Q-coordinates lie in Z/2."""
    return algebra.from_rationals([Fraction(rng.randint(-3, 3), 2)
                                   for _ in range(algebra._dim)])


def _matrix_oracle(algebra, involution, h, x):
    """S is injective, so x* h x = h iff S(x)^H D S(h) S(x) = D S(h)."""
    G = linalg.mat_mul(involution.splitting_conjugator,
                       algebra.splitting_matrix(h))
    S = algebra.splitting_matrix(x)
    return linalg.mat_eq(G, linalg.mat_mul(linalg.conj_transpose(S),
                                           linalg.mat_mul(G, S)))


@pytest.mark.parametrize("name", _ORACLE_NAMES)
def test_split_membership_matches_the_matrix_oracle(name):
    # the split algebra alpha = 1 with beta = 1 over each oracle L, so
    # that the involution's map, A's table and L's conjugation carry the
    # denominators of Q(sqrt(-3/2)) and of eta + i/2, and c(y) = -y once,
    # in verify_involution and in membership; h = g* g is hermitian,
    # and g^-1 u g lies in U(h) for u = (1 - k)(1 + k)^-1, k = z - z*
    ext = _oracle_extensions()[name]
    algebra = CyclicAlgebra(ext, 1)
    involution = verify_involution(make_involution(algebra, ext.one()))
    star, one = involution.apply, algebra.one()
    rng = random.Random(23)
    seen = set()
    for _ in range(2):
        g, z = _half_integer_A(algebra, rng), _half_integer_A(algebra, rng)
        k = z - star(z)
        if algebra.reduced_norm(g).is_zero() or \
                algebra.reduced_norm(one + k).is_zero():
            continue
        h, g_inv = star(g) * g, algebra.inverse(g)
        u = (one - k) * algebra.inverse(one + k)
        for x in (one, g_inv * u * g, _half_integer_A(algebra, rng)):
            v = unitary_membership(algebra, involution, h, x)
            assert v == (IN_GROUP if _matrix_oracle(
                algebra, involution, h, x) else NOT_IN_GROUP)
            seen.add(v.status)
    assert seen == {IN_GROUP, NOT_IN_GROUP}


def test_singular_or_wrong_conjugator_is_refused(builtin):
    # a singular D raises ZeroDivisionError before any other check: the
    # zero matrix passes D S(x*) = S(x)^H D at the four x the check uses,
    # so only det D != 0 refuses it, and so does D = diag(tau(beta), 0,
    # 1/tau^2(beta)); with 2 in place of the 0, D is invertible and wrong
    algebra, involution = builtin
    ext = algebra.ext
    tb, z = ext.tau_of(ext.from_E(5)), ext.zero()

    def conjugator(middle):
        return linalg.mat([[tb, z, z], [z, ext.from_E(middle), z],
                           [z, z, ext.tau_of(tb).inverse()]])
    zero = linalg.mat([[z] * 3] * 3)
    for x in (algebra.one(), algebra.X(), algebra.from_L(ext.gen()),
              algebra.X() + algebra.from_L(ext.gen() ** 2)):
        S = algebra.splitting_matrix(x)
        assert linalg.mat_eq(
            linalg.mat_mul(zero, algebra.splitting_matrix(involution.apply(x))),
            linalg.mat_mul(linalg.conj_transpose(S), zero))
    for singular in (zero, conjugator(0)):
        with pytest.raises(ZeroDivisionError, match="singular"):
            verify_involution(Involution(algebra, involution.images,
                                         singular))
    with pytest.raises(InvolutionError, match="splitting compatibility"):
        verify_involution(Involution(algebra, involution.images,
                                     conjugator(2)))


def test_membership_closed_under_inverse(builtin):
    algebra, involution = builtin
    h = algebra.one()
    x = -algebra.one()
    assert unitary_membership(algebra, involution, h, x) == IN_GROUP
    assert unitary_membership(algebra, involution, h,
                              algebra.inverse(x)) == IN_GROUP


def test_splitting_signature(builtin):
    algebra, involution = builtin
    one = algebra.one()
    assert splitting_signature(algebra, involution, one) == \
        ((3, 0), (3, 0), (3, 0))
    assert splitting_signature(algebra, involution, -one) == \
        ((0, 3), (0, 3), (0, 3))
    # mixed diagonal part: h = 1 + eta has one conjugate below -1
    h = algebra.from_L(algebra.ext.element([1, 1]))
    assert involution.apply(h) == h
    sigs = splitting_signature(algebra, involution, h)
    assert sigs[0] == (2, 1)
    with pytest.raises(AlgebraError):
        splitting_signature(algebra, involution, algebra.X())
    with pytest.raises(AlgebraError):
        splitting_signature(algebra, involution, algebra.zero())


def test_splitting_signature_matches_descartes_oracle(builtin):
    # the built-in D = diag(5, 1, 1/5) is positive definite, so the
    # signature of D S(h) is that of the eigenvalues of S(h): Descartes'
    # rule on its characteristic polynomial, whose coefficients lie in K
    algebra, involution = builtin
    star = involution.apply
    K = algebra.ext.real_subfield
    h1 = algebra.from_L(algebra.ext.element([1, 1]))
    rng = random.Random(8)
    for _ in range(3):
        x = _random_A(algebra, rng)
        for h in (x + star(x), star(x) * x, star(x) * h1 * x):
            if algebra.reduced_norm(h).is_zero():
                continue
            coeffs = linalg.char_poly(algebra.splitting_matrix(h),
                                      algebra.ext.one())
            rows = [[c.as_fraction() for c in p.coeffs] for p in coeffs]
            expected = []
            for ell in range(K.degree):
                e_plus = sign_variations([K.sign_of_coords(r, ell)
                                          for r in rows])
                expected.append((e_plus, 3 - e_plus))
            assert splitting_signature(algebra, involution, h) == \
                tuple(expected)


def test_splitting_signature_with_indefinite_conjugator(builtin):
    # beta = 5 eta also has N(beta) = 125 = |alpha|^2, but the conjugates
    # of eta have mixed signs, so D = diag(tau(beta), 1, 1/tau^2(beta)) is
    # indefinite and S(h) alone says nothing.  h = 1 and x* x are congruent
    # and have the signs of the diagonal of D.
    algebra, _ = builtin
    ext = algebra.ext
    involution = verify_involution(make_involution(algebra, ext.gen() * 5))
    x = algebra.element(ext.element([1, 2]), ext.element([0, 1]), 1)
    for h in (algebra.one(), involution.apply(x) * x):
        assert splitting_signature(algebra, involution, h) == \
            ((2, 1), (2, 1), (1, 2))


def test_json_round_trip(builtin):
    algebra, involution = builtin
    obj = algebra_to_json(algebra, involution)
    obj2 = json.loads(json.dumps(obj))
    algebra2, involution2 = algebra_from_json(obj2)
    assert algebra2 == algebra
    for key in involution.images:
        assert involution2.images[key] == involution.images[key]
    # the wire format carries no splitting conjugator, so no signature
    # can be certified for a loaded involution
    with pytest.raises(AlgebraError, match="splitting conjugator"):
        splitting_signature(algebra2, involution2, algebra2.one())


def _product_oracle(algebra, x, y):
    """xy from the defining relations alone, not from S:
    (y^i X^j)(y^k X^l) = y^i tau^j(y^k) X^{j+l}, times alpha when
    j + l >= 3, extended bilinearly over E."""
    ext = algebra.ext
    gen = ext.gen()
    parts = [ext.zero()] * 3
    for j in range(3):
        for i in range(3):
            lam = x.parts[j].coeffs[i]
            for l in range(3):
                for k in range(3):
                    mu = y.parts[l].coeffs[k]
                    if lam.is_zero() or mu.is_zero():
                        continue
                    t = gen ** k
                    for _ in range(j):
                        t = ext.tau_of(t)
                    term = gen ** i * t * (lam * mu)
                    if j + l >= 3:
                        term = term * algebra.alpha
                    parts[(j + l) % 3] = parts[(j + l) % 3] + term
    return algebra.element(*parts)


def _product_algebras():
    """The built-in algebra, the Q(zeta5) one of the elimination test
    (Q-dimension 36) and the split algebra alpha = 1 on the built-in L."""
    builtin = builtin_example()[0]
    E = make_cyclotomic(5)
    ext = CyclicCubicExtension(E, [-1, -2, 1, 1], [-2, 0, 1], [0, 1])
    return {"builtin": builtin,
            "qzeta5": CyclicAlgebra(ext, E.element([2, 1],
                                                   [Fraction(1, 2), 0])),
            "split": CyclicAlgebra(builtin.ext, 1)}


@pytest.mark.parametrize("name", ["builtin", "qzeta5", "split"])
def test_product_matches_the_defining_relations(name):
    # every pair of Q-basis elements (each entry of the product table),
    # then random pairs, dense or with one or two zero parts, on either side
    algebra = _product_algebras()[name]
    basis = algebra._q_basis()
    for a in basis:
        for b in basis:
            assert a * b == _product_oracle(algebra, a, b)
    rng = random.Random(9)

    def random_L(r):
        return _oracle_element(algebra.ext, r)
    xs = _oracle_cases(algebra, random_L, rng)
    ys = _oracle_cases(algebra, random_L, rng)
    rng.shuffle(ys)
    for x, y in zip(xs + ys, ys + xs):
        assert x * y == _product_oracle(algebra, x, y)


def test_builtin_json_is_unchanged(builtin):
    # pins the wire format, including the j-major order of the nine
    # involution images
    text = json.dumps(algebra_to_json(*builtin), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "7e8a2cf387ce37fb734ed2eccaa040b821a848bb0803307ce3de3b1518a0ebe5"



# --- one representation: a parent and a coordinate tuple ----------------

_q = st.one_of(st.just(Fraction(0)),
               st.fractions(min_value=-4, max_value=4, max_denominator=3))
_E_COORDS = st.tuples(_q, _q)
_L_COORDS = st.tuples(_E_COORDS, _E_COORDS, _E_COORDS)
_COORDS = {"E": _E_COORDS, "L": _L_COORDS,
           "A": st.tuples(_L_COORDS, _L_COORDS, _L_COORDS)}


def _build(algebra, level, coords):
    """The element of L or A with these nested rational coordinates."""
    E, ext = algebra.E, algebra.ext

    def in_L(c):
        return ext.element([E.element([a], [b]) for a, b in c])
    return algebra.element(*map(in_L, coords)) if level == "A" \
        else in_L(coords)


@pytest.mark.parametrize("level", ["L", "A"])
@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_additive_group_and_zero_from_the_coordinates(builtin, level, data):
    algebra, _ = builtin
    x, y = (_build(algebra, level, data.draw(_COORDS[level]))
            for _ in range(2))
    assert (x + y) - y == x and -(-x) == x
    assert x.is_zero() == (not x) == (x == 0)
    assert (x == y) == (x.coords == y.coords)
    assert hash((x + y) - y) == hash(x)


@pytest.mark.parametrize("level", ["E", "L", "A"])
@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_flat_coordinates_round_trip(builtin, level, data):
    # the parent's constructor, _join of _split and the wire codec each
    # give back the element, its flat coordinates and its hash
    algebra, _ = builtin
    coords = data.draw(_COORDS[level])
    x = algebra.E.element(coords[:1], coords[1:]) if level == "E" \
        else _build(algebra, level, coords)
    parent = x.parent
    backs = [parent.from_rationals(x.coords),
             element_from_json(parent, element_to_json(x))]
    if level != "E":
        backs.append(parent._join(parent._split(x)))
    for back in backs:
        assert type(back) is type(x) and back == x
        assert back.coords == x.coords and hash(back) == hash(x)


def test_equal_elements_hash_equal_however_built(builtin):
    algebra, _ = builtin
    ext = algebra.ext
    rng = random.Random(3)
    for _ in range(5):
        b = _random_L(ext, rng)
        e = b.coeffs[0]
        for u, v in ((ext.from_E(e), ext.element([e])),
                     (algebra.from_L(b), algebra.element(b, 0, 0)),
                     (algebra.from_L(e), algebra.element(ext.from_E(e)))):
            assert u == v and hash(u) == hash(v)
        assert {algebra.from_L(b): b}[algebra.element(b, 0, None)] is b


def test_elements_are_a_parent_and_coordinates_with_read_only_views(builtin):
    algebra, _ = builtin
    y, X = algebra.ext.gen(), algebra.X()
    assert y.parent is y.ext is algebra.ext
    assert y.coeffs == algebra.ext._split(y)
    assert X.parent is X.algebra is algebra
    assert X.parts == algebra._split(X)
    for x, views in ((y, ("coeffs", "ext")), (X, ("parts", "algebra"))):
        assert not hasattr(x, "__dict__")
        for view in views:
            with pytest.raises(AttributeError):
                setattr(x, view, getattr(x, view))


def test_levels_mix_the_same_way_round(builtin):
    algebra, _ = builtin
    E, ext = algebra.E, algebra.ext
    e = E.sqrt_delta() + 1
    b = ext.gen() + e
    x = algebra.X() + b
    for low, high in ((E.one(), ext.one()), (E.one(), algebra.one()),
                      (ext.one(), algebra.one())):
        assert low == high and high == low
        assert not (low != high) and not (high != low)
    assert e != ext.gen() and ext.gen() != e
    # E and L commute; the result lies in L
    for r in (e + b, b + e, e * b, b * e):
        assert isinstance(r, CubicExtElement)
    assert e + b == b + e == ext.from_E(e) + b
    assert e - b == -(b - e) == ext.from_E(e) - b
    assert e * b == b * e == ext.from_E(e) * b
    # with A the lower operand is lifted on its own side
    for low in (e, b):
        lifted = algebra.coerce(low)
        for r in (low + x, low - x, low * x):
            assert isinstance(r, AlgebraElement)
        assert low + x == x + low == lifted + x
        assert low - x == lifted - x and x - low == x - lifted
        assert low * x == lifted * x and x * low == x * lifted
    assert b * algebra.X() != algebra.X() * b


def test_same_level_strangers_are_still_refused(builtin):
    algebra, _ = builtin
    other = CyclicAlgebra(algebra.ext, 1)
    E5 = make_cyclotomic(5)
    for attempt, error, text in (
            (lambda: algebra.one() + other.one(), AlgebraError,
             "algebra mismatch"),
            (lambda: other.one() * algebra.X(), AlgebraError,
             "algebra mismatch"),
            (lambda: algebra.E.one() * E5.one(), ValueError, "field mismatch"),
            (lambda: algebra.ext.one() + E5.one(), AlgebraError,
             "is not in E")):
        with pytest.raises(error, match=text):
            attempt()
    assert algebra.one() != other.one() and algebra.ext.one() != E5.one()


@pytest.mark.parametrize("level", ["L", "A"])
@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_a_lower_level_element_hashes_like_its_lift(builtin, level, data):
    # equal elements hash alike across levels, as a set or dict needs
    algebra, _ = builtin
    E, ext = algebra.E, algebra.ext
    assert len({E.one(), ext.one(), algebra.one(), 1}) == 1
    if level == "L":
        a, b = data.draw(_E_COORDS)
        low, lift = E.element([a], [b]), ext.from_E
    else:
        low, lift = _build(algebra, "L", data.draw(_L_COORDS)), algebra.from_L
    assert lift(low) == low and hash(lift(low)) == hash(low)
    assert len({low, lift(low)}) == 1
    q = data.draw(_q)
    assert hash(q) == hash(E.from_rational(q)) == hash(ext.from_E(q)) == \
        hash(algebra.element(q))


def test_division_mixes_levels_like_multiplication(builtin):
    algebra, _ = builtin
    E, ext = algebra.E, algebra.ext
    e, y = E.sqrt_delta() + 1, ext.gen()
    assert 1 / y == E.one() / y == ext.one() / y == y.inverse()
    assert isinstance(e / y, CubicExtElement)
    assert e / y == e * y.inverse() and y / e == y * e.inverse()
    assert Fraction(1, 2) / e == (2 * e).inverse()
    # A is noncommutative and keeps no /, from either side
    X = algebra.X()
    for attempt in (lambda: algebra.one() / X, lambda: X / y,
                    lambda: y / X, lambda: e / X, lambda: 1 / X):
        with pytest.raises(TypeError):
            attempt()


def test_equal_parents_compare_and_hash_alike(builtin):
    # the built-in algebra read back twice through the wire format: two
    # more L's and A's, equal to it and to each other, one dict key each
    algebra, involution = builtin
    A1, A2 = (algebra_from_json(algebra_to_json(algebra, involution))[0]
              for _ in range(2))
    L1, L2 = A1.ext, A2.ext
    assert L1 is not L2 and A1 is not A2
    for p, q in ((L1, L2), (A1, A2), (algebra.ext, L1), (algebra, A2)):
        assert p == q and hash(p) == hash(q)
    assert len({L1: 1, L2: 2, algebra.ext: 3}) == 1
    assert len({A1: 1, A2: 2, algebra: 3}) == 1
    # elements of equal parents mix as if the parents were one
    assert A1.X() * A2.X() == algebra.X() ** 2 and L1.gen() + L2.gen() == \
        2 * algebra.ext.gen()
    other = CyclicAlgebra(L1, algebra.alpha + 1)
    assert other != A1 and A1 != other
    assert A1 != L1 and L1 != A1 and L1 != A1.E
