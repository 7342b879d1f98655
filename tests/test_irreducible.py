"""The irreducibility proof of `field._is_irreducible`, which reads the
root isolators, against sympy's `Poly.is_irreducible` as oracle, and the
factor degrees mod q that prune it against sympy's factorisation mod q."""

from fractions import Fraction
import random

import pytest
import sympy

from cmforms import polyn
from cmforms.field import (FieldError, TotallyRealField, _factor_sizes,
                           _is_irreducible)


def _from_ints(*coeffs):
    return polyn.trim(Fraction(c) for c in coeffs)


def _shift(p, t):
    """p(x + t), which keeps p totally real."""
    out = ()
    for c in reversed(p):
        out = polyn.padd(polyn.pmul(out, _from_ints(t, 1)), (c,))
    return out


def _random_factor(rng):
    """A monic, totally real factor of degree 1-4."""
    kind = rng.choice([1, 2, 2, 3, 4])
    if kind == 1:
        return _from_ints(rng.randint(-5, 5), 1)
    if kind == 2:
        while True:
            b, c = rng.randint(-6, 6), rng.randint(-9, 9)
            if b * b - 4 * c > 0:
                return _from_ints(c, b, 1)
    r = rng.choice([7, 9, 14, 18] if kind == 3 else [15, 16, 20, 30])
    return _shift(polyn.real_cyclotomic(r), rng.randint(-2, 2))


def _sympy_irreducible(p):
    x = sympy.Symbol("x")
    return sympy.Poly(sum(int(c) * x ** i for i, c in enumerate(p)),
                      x).is_irreducible


def _decide(p):
    return _is_irreducible(p, polyn.isolate_real_roots(p))


def test_seeded_products_match_sympy():
    rng = random.Random(2006)
    checked = irreducible = 0
    while checked < 200:
        p = (Fraction(1),)
        for _ in range(rng.randint(1, 3)):
            p = polyn.pmul(p, _random_factor(rng))
        if not 2 <= polyn.degree(p) <= 6 or not polyn.is_squarefree(p):
            continue
        want = _sympy_irreducible(p)
        assert _decide(p) == want, p
        checked += 1
        irreducible += want
    assert 20 <= irreducible <= 180  # both answers are exercised


@pytest.mark.parametrize("coeffs", [
    (1, 0, -10, 0, 1),  # reducible mod every prime, yet irreducible
    (1, 0, -4, 0, 1),
])
def test_named_irreducible_quartics(coeffs):
    p = _from_ints(*coeffs)
    assert _decide(p) and _sympy_irreducible(p)
    assert TotallyRealField(list(coeffs)).degree == 4


@pytest.mark.parametrize("r", [5, 7, 9, 11, 13, 15, 16, 20, 31, 41])
def test_real_cyclotomic_polynomials_are_irreducible(r):
    p = polyn.real_cyclotomic(r)
    assert _decide(p) and _sympy_irreducible(p)
    assert TotallyRealField(p).min_poly == p


@pytest.mark.parametrize("r", [31, 41])
def test_factor_degrees_alone_prove_degree_15_and_20(r):
    # no size of S is left to try, so no subset of 15 or 20 roots is
    # enumerated (2^14 and 2^19 sets before the filter)
    assert _factor_sizes(polyn.real_cyclotomic(r)) == []


def test_factor_degrees_mod_match_sympy():
    rng = random.Random(41)
    x = sympy.Symbol("x")
    for _ in range(60):
        p = _from_ints(*[rng.randint(-20, 20)
                         for _ in range(rng.randint(1, 8))], 1)
        for q in (2, 3, 5, 7, 11):
            P = sympy.Poly([int(c) for c in reversed(p)], x, modulus=q)
            got = polyn.factor_degrees_mod(p, q)
            if sympy.gcd(P, P.diff(x)).degree() > 0:
                assert got is None
                continue
            assert sorted(got) == sorted(
                f.degree() for f, _ in P.factor_list()[1])


@pytest.mark.parametrize("p", [
    polyn.pmul(_from_ints(-2, 0, 1), _from_ints(-3, 0, 1)),
    polyn.pmul(polyn.pmul(_from_ints(-1, 1), _from_ints(-2, 1)),
               _from_ints(-3, 1)),
], ids=["(x2-2)(x2-3)", "(x-1)(x-2)(x-3)"])
def test_named_reducible_products(p):
    assert not _decide(p) and not _sympy_irreducible(p)
    with pytest.raises(FieldError,
                       match="minimal polynomial is reducible over Q"):
        TotallyRealField(p)


def test_the_proof_leaves_the_field_isolators_alone():
    p = polyn.real_cyclotomic(13)
    F = TotallyRealField(p)
    assert F._isolators == polyn.isolate_real_roots(p)
