from fractions import Fraction
import itertools
import random
import time

import pytest

from cmforms import (IS_NORM, IS_NOT_NORM, CMField, gaussian_field,
                     hilbert_symbol, is_norm, make_cyclotomic, rationals)
from cmforms import residue
from cmforms.residue import (UNKNOWN, _factor, _is_prime, _root_mod,
                             _sqrt_mod, _square_class, rational_is_norm)
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


@pytest.mark.parametrize("p", [1, -1, -3])
def test_hilbert_symbol_refuses_non_places(p):
    # p = 1 would loop forever in the valuation, and p < 0 is no place
    with pytest.raises(ValueError):
        hilbert_symbol(2, 3, p)


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
                       "rho squarings" % (p * q),
                       "norm-witness search tried 100 candidates x in E, "
                       "none with N(x) = d up to a rational square")


def _record_factorings(monkeypatch):
    """The arguments of the outermost `residue._factor` calls, in order
    (not the n - 1 that `_is_prime` factors inside a call)."""
    calls, depth, factor = [], [], residue._factor

    def recorded(n):
        if not depth:
            calls.append(n)
        depth.append(1)
        try:
            return factor(n)
        finally:
            depth.pop()
    monkeypatch.setattr(residue, "_factor", recorded)
    return calls


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
    # delta are each factored once, and the one descent step's
    # c = (t^2 + 1) / 442 = 1 is not factored
    calls = _record_factorings(monkeypatch)
    E = gaussian_field()
    d = Fraction(2 * 5 ** 2 * 13, 17)
    v = is_norm(E.from_rational(d), E)
    assert v == IS_NORM and v.witness * v.witness.conjugate() == \
        E.from_rational(d)
    assert calls == [650, 17, 4, 1]


@pytest.mark.parametrize("E", _fields(),
                         ids=lambda E: "delta=%s" % E.delta[0])
def test_only_a_swap_factors_after_d_and_delta(E, monkeypatch):
    # no descent step factors its c: after d and delta, `_factor` sees only
    # a swap's modulus |b| < |a|, at most min(|delta'|, |d'|) for the
    # squarefree cores, never d' (its primes are known) and never 1; over
    # delta' = -1, |a| = 1 and no swap happens
    calls = _record_factorings(monkeypatch)
    delta, swaps = E.delta[0], []
    for d in [Fraction(n) for n in range(-200, 201) if n] + [
            Fraction(9, 5), Fraction(-7, 12)]:
        d_core = _square_class(abs(d.numerator * d.denominator))
        bound = min(d_core, _square_class(abs(delta.numerator
                                               * delta.denominator)))
        del calls[:]
        is_norm(E.from_rational(d), E)
        # a negative d is refused at the real place, before any factoring
        assert calls[:4] == ([abs(d.numerator), d.denominator,
                              abs(delta.numerator), delta.denominator]
                             if d > 0 else [])
        assert all(n <= bound for n in calls[4:]), (d, calls)
        assert not {d_core, 1} & set(calls[4:]), (d, calls)
        swaps += calls[4:]
    if _square_class(abs(delta.numerator * delta.denominator)) == 1:
        assert swaps == []


@pytest.mark.parametrize("d, calls", [(2, [2, 1, 7, 1]), (8, [8, 1, 7, 1])])
def test_a_swap_reuses_the_primes_of_d(d, calls, monkeypatch):
    # over delta = -7 the first swap's b is d' = 2, whose primes the
    # decision holds, and a later swap's b = -1 needs none
    recorded = _record_factorings(monkeypatch)
    E = CMField(rationals(), [-7])
    v = is_norm(E.from_rational(d), E)
    assert v == IS_NORM and v.witness * v.witness.conjugate() == \
        E.from_rational(d)
    assert recorded == calls


@pytest.mark.parametrize("delta, ks", [
    (-1, [144, 205, 207]), (-2, [144, 205, 207]), (-3, [144, 207, 504]),
    (-7, [144, 207, 424])])
def test_proth_primes_carry_witnesses(delta, ks, monkeypatch):
    # the first three k with P = k 2^130 + 1 proved prime and split in E:
    # no factoring after P's and delta's, and no search candidate
    E = CMField(rationals(), [delta])
    found = []
    for k in itertools.count(1):
        P = k * 2 ** 130 + 1
        if len(found) == 3:
            break
        if _is_prime(P) and rational_is_norm(P, delta)[0]:
            found.append(k)
    assert found == ks
    tried = _record_candidates(monkeypatch)
    calls = _record_factorings(monkeypatch)
    for k in ks:
        P = k * 2 ** 130 + 1
        del calls[:]
        v = is_norm(E.from_rational(P), E)
        assert v == IS_NORM and v.witness * v.witness.conjugate() == \
            E.from_rational(P)
        assert calls == [P, 1, -delta, 1]
    assert tried == []


def test_a_200_digit_smooth_norm_carries_a_witness(monkeypatch):
    # the product of the primes 1 mod 4 from 5 until it passes 10^200, over
    # Q(i): its descent steps' c are never factored
    n = 1
    for p in itertools.count(5, 4):
        if n > 10 ** 200:
            break
        if _is_prime(p):
            n *= p
    E = gaussian_field()
    tried = _record_candidates(monkeypatch)
    calls = _record_factorings(monkeypatch)
    v = is_norm(E.from_rational(n), E)
    assert v == IS_NORM and v.witness * v.witness.conjugate() == \
        E.from_rational(n)
    assert calls == [n, 1, 4, 1] and tried == []


def test_a_1500_digit_smooth_norm_is_factored_by_trial_division():
    # the 447 primes 1 mod 4 from 5 to 7,109 all lie below 2^13, so trial
    # division splits their product; rho peeled one prime a round (22 s)
    primes = [p for p in range(5, 7110, 4) if _is_prime(p)]
    n = 1
    for p in primes:
        n *= p
    assert len(primes) == 447 and len(str(n)) == 1500
    start = time.perf_counter()
    assert _factor(n) == (dict.fromkeys(primes, 1), {})
    E = gaussian_field()
    v = is_norm(E.from_rational(n), E)
    assert v == IS_NORM and v.witness * v.witness.conjugate() == \
        E.from_rational(n)
    assert time.perf_counter() - start < 5


def test_a_long_descent_keeps_a_flat_stack():
    # past 10^2000 the descent takes more steps than Python's default
    # recursion limit (1000); undone in lowest terms, x^2 + y^2 = n z^2
    # comes back with z = 1, since Z[i] is a principal ideal domain
    primes, n = [], 1
    for p in itertools.count(5, 4):
        if n > 10 ** 2000:
            break
        if _is_prime(p):
            primes.append(p)
            n *= p
    x, y, z = residue._descend(-1, n, _root_mod(-1, primes), [], primes)
    assert x * x + y * y == n * z * z and z == 1


def test_a_non_norm_fails_the_descent_instead_of_looping():
    # x^2 + y^2 = -z^2 has no solution: the step from (-1, -1) makes no
    # progress and is refused
    with pytest.raises(residue.VerificationError):
        residue._descend(-1, -1, 0, [], [])


def test_root_mod_matches_brute_force():
    # every squarefree m <= 500 and every square a mod m
    for m in range(1, 501):
        primes, _ = _factor(m)
        if any(e > 1 for e in primes.values()):
            continue
        for a in {t * t % m for t in range(m)}:
            t = _root_mod(a, list(primes))
            assert (t * t - a) % m == 0 and 2 * abs(t) <= m, (a, m, t)


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
