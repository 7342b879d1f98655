import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import cmforms
from cmforms import linalg
from cmforms.calgebra import (AlgebraError, CyclicAlgebra,
                              CyclicCubicExtension, IN_GROUP, Involution,
                              InvolutionError, NOT_DIVISION, NOT_IN_GROUP,
                              UNKNOWN,
                              algebra_from_json, algebra_to_json,
                              builtin_example, is_division_candidate,
                              make_involution, splitting_signature,
                              unitary_membership, verify_involution)
from cmforms.field import make_cyclotomic
from cmforms.polyn import sign_variations


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
    assert ext.conj_of(y) == y
    assert ext.conj_of(i) == -i


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
        assert ext.conj_of(x * y) == ext.conj_of(x) * ext.conj_of(y)
        assert ext.conj_of(ext.conj_of(x)) == x
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


def test_zero_divisor_inverse_raises():
    scope = {}
    exec(_SPLIT_L, scope)
    with pytest.raises(ZeroDivisionError):
        scope["x"].inverse()
    # the check is a raise, not an assert: it holds under python -O too
    script = _SPLIT_L + """
try:
    x.inverse()
except ZeroDivisionError:
    print("ZeroDivisionError")
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cmforms.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == "ZeroDivisionError", proc.stderr


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
    verify_involution(involution)  # all 81 pairs + splitting compatibility
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
                linalg.conj_transpose(S, ext.conj_of), linalg.mat_mul(G, S)))
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
