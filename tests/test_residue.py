from fractions import Fraction
import random

import pytest

from cmforms import (IS_NORM, IS_NOT_NORM, CMField, gaussian_field,
                     hilbert_symbol, is_norm, make_cyclotomic, rationals)
from cmforms import residue
from cmforms.residue import UNKNOWN, _is_prime, _sqrt_mod, rational_is_norm
from test_search import _record_candidates


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


def _fields():
    """Q(sqrt delta) for delta in {-1, -2, -3, -7}, Q(i) as Q(zeta4)
    (delta = -4) and a non-integral delta = -3/2."""
    return ([CMField(rationals(), [delta]) for delta in (-1, -2, -3, -7)]
            + [make_cyclotomic(4), CMField(rationals(), [Fraction(-3, 2)])])


@pytest.mark.parametrize("E", _fields(),
                         ids=lambda E: "delta=%s" % E.delta[0])
def test_decided_norms_carry_descent_witnesses(E, monkeypatch):
    # IsNorm comes with a witness of norm d exactly when the Hilbert
    # symbols say so, and no search candidate is tried on the way
    tried = _record_candidates(monkeypatch)
    delta = E.delta[0]
    for d in [n for n in range(-200, 201) if n] + [Fraction(9, 5),
                                                   Fraction(-7, 12)]:
        decided, _ = rational_is_norm(d, delta)
        v = is_norm(E.from_rational(d), E)
        assert v == (IS_NORM if decided else IS_NOT_NORM), d
        if decided:
            assert v.witness * v.witness.conjugate() == E.from_rational(d)
    assert tried == []


@pytest.mark.parametrize("delta", [-1, -2, -3, -7])
def test_large_norms_carry_witnesses(delta, monkeypatch):
    # d = p^2 - delta q^2 around 1e24: far beyond the budgeted search
    E = CMField(rationals(), [delta])
    rng = random.Random(delta)
    tried = _record_candidates(monkeypatch)
    for _ in range(60):
        p, q = rng.randint(1, 10 ** 12), rng.randint(1, 10 ** 12)
        d = E.from_rational(p * p - delta * q * q)
        v = is_norm(d, E, budget=0)
        assert v == IS_NORM and v.witness * v.witness.conjugate() == d
    assert tried == []


def test_is_norm_factors_d_and_delta_once(monkeypatch):
    # 2 * 5^2 * 13 / 17 over Q(i): the numerators and denominators of d and
    # delta are each factored once, then the one descent step's
    # c = (t^2 + 1) / 442 = 1
    calls = []
    factor = residue._factor

    def counted(n):
        calls.append(n)
        return factor(n)
    monkeypatch.setattr(residue, "_factor", counted)
    E = gaussian_field()
    d = Fraction(2 * 5 ** 2 * 13, 17)
    v = is_norm(E.from_rational(d), E)
    assert v == IS_NORM and v.witness * v.witness.conjugate() == \
        E.from_rational(d)
    assert calls == [650, 17, 4, 1, 1]


def test_an_unsplit_descent_step_falls_back_on_the_search(monkeypatch):
    # were a descent step's cofactor left unsplit, the search would still
    # find the witness: 13 = N(3 + 2i) over Q(i)
    factor = residue._factor
    seen = []

    def unsplit_after_four(n):
        seen.append(n)
        return factor(n) if len(seen) <= 4 else ({}, {n: 1})
    monkeypatch.setattr(residue, "_factor", unsplit_after_four)
    tried = _record_candidates(monkeypatch)
    E = gaussian_field()
    v = is_norm(E.from_rational(13), E)
    assert v == IS_NORM and v.witness.relative_norm() == E.from_rational(13)
    assert len(seen) == 5 and tried


def test_sqrt_mod_matches_brute_force():
    for p in [p for p in range(2, 1000) if _is_prime(p)]:
        roots = {}
        for t in range(p):
            roots.setdefault(t * t % p, set()).add(t)
        for a in range(-1, p + 1):
            t = _sqrt_mod(a, p)
            if a % p in roots:
                assert t in roots[a % p], (a, p)
            else:
                assert t is None, (a, p)
