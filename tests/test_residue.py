from fractions import Fraction

import pytest

from cmforms import (IS_NORM, IS_NOT_NORM, gaussian_field,
                     hilbert_symbol, is_norm, make_cyclotomic)
from cmforms.residue import UNKNOWN, rational_is_norm


def _sum_of_two_squares(n):
    """n > 0 is a sum of two rational squares iff every prime 3 mod 4
    divides n to an even power."""
    assert n > 0
    num, den = n.numerator, n.denominator
    for v in (num, den):
        while v % 2 == 0:
            v //= 2
        p = 3
        while p * p <= v:
            if v % p == 0:
                e = 0
                while v % p == 0:
                    v //= p
                    e += 1
                if p % 4 == 3 and e % 2 == 1:
                    return False
            p += 2
        if v > 1 and v % 4 == 3:
            return False
    return True


def test_hilbert_symbol_classics():
    # (-1,-1) fails at 2 and infinity
    assert hilbert_symbol(Fraction(-1), Fraction(-1), 0) == -1
    assert hilbert_symbol(Fraction(-1), Fraction(-1), 2) == -1
    assert hilbert_symbol(Fraction(-1), Fraction(-1), 3) == 1
    # squares are always represented
    assert hilbert_symbol(Fraction(4), Fraction(-7), 2) == 1


def test_hilbert_product_formula():
    # product over all relevant places is +1
    for a in [-1, 2, 3, -5, 6, 10, -14]:
        for b in [-1, 2, 3, -5, 7, 15]:
            places = {0, 2}
            for v in (a, b):
                v = abs(v)
                p = 2
                while p * p <= v:
                    if v % p == 0:
                        places.add(p)
                        while v % p == 0:
                            v //= p
                    p += 1
                if v > 1:
                    places.add(v)
            prod = 1
            for p in sorted(places):
                prod *= hilbert_symbol(Fraction(a), Fraction(b), p)
            assert prod == 1, (a, b)


def test_rational_is_norm_gaussian():
    # norms from Q(i) are the sums of two squares
    for d in range(1, 60):
        ok, _ = rational_is_norm(Fraction(d), Fraction(-4))
        assert ok == _sum_of_two_squares(Fraction(d))
    for d in range(-20, 0):
        ok, place = rational_is_norm(Fraction(d), Fraction(-4))
        assert not ok and place is not None


def test_is_norm_with_witness():
    E = gaussian_field()
    for d in [1, 2, 4, 5, 13, 25, Fraction(1, 2), Fraction(9, 5)]:
        v = is_norm(E.from_rational(d), E)
        assert v == IS_NORM
        w = v.witness
        assert w * w.conjugate() == E.from_rational(d)


def test_is_norm_negative_cases():
    E = gaussian_field()
    for d in [-1, 3, 7, 21, Fraction(3, 5)]:
        assert is_norm(E.from_rational(d), E) == IS_NOT_NORM


def test_is_norm_archimedean_obstruction_general_field():
    E = make_cyclotomic(5)
    w = E.gen_F()  # negative at one embedding: cannot be a norm
    assert is_norm(w, E) == IS_NOT_NORM


def test_is_norm_general_field_witness_or_unknown():
    E = make_cyclotomic(5)
    x = E.from_rational(1) + E.sqrt_delta()
    v = is_norm(x.relative_norm(), E)
    assert v == IS_NORM
    assert v.witness * v.witness.conjugate() == x.relative_norm()


def test_is_norm_rejects_zero():
    E = gaussian_field()
    with pytest.raises(ValueError):
        is_norm(E.zero(), E)


def test_an_unsplit_cofactor_leaves_the_decision_open():
    # p, q 30-digit primes, both 3 mod 4: rho leaves p q unsplit, so only
    # a place outside it can refute, and is_norm answers Unknown naming it
    p, q = 10 ** 29 + 319, 3 * 10 ** 29 + 7
    assert rational_is_norm(p * q, -4) == (None, [p * q])
    assert rational_is_norm(-p * q, -4) == (False, 0)
    assert rational_is_norm(Fraction(21 * p * q, 5), -4) == (False, 3)
    E = gaussian_field()
    v = is_norm(E.from_rational(p * q), E, budget=100)
    assert v == UNKNOWN and v.witness is None
    assert v.trace == ("cofactor %d neither proved prime nor split by 500000 "
                       "rho squarings" % (p * q),)
