from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cmforms import polyn

import oracles


def test_basic_arithmetic():
    p = (Fraction(1), Fraction(2), Fraction(1))  # (x+1)^2
    q = (Fraction(1), Fraction(1))
    quot, rem = polyn.pdivmod(p, q)
    assert quot == q and rem == ()
    assert polyn.pmul(q, q) == p
    assert polyn.peval(p, Fraction(3)) == 16


def test_gcd_and_squarefree():
    p = polyn.pmul((Fraction(-1), Fraction(1)), (Fraction(-2), Fraction(1)))
    q = polyn.pmul((Fraction(-1), Fraction(1)), (Fraction(3), Fraction(1)))
    g = polyn.pgcd(p, q)
    assert polyn.degree(g) == 1 and polyn.peval(g, Fraction(1)) == 0
    assert polyn.is_squarefree(p)
    assert not polyn.is_squarefree(polyn.pmul(p, p))


def test_root_isolation_quadratic():
    # x^2 - 2: roots +-sqrt(2)
    p = (Fraction(-2), Fraction(0), Fraction(1))
    iso = polyn.isolate_real_roots(p)
    assert len(iso) == 2
    for lo, hi in iso:
        assert polyn.sturm_count(polyn.sturm_chain(p), lo, hi) == 1
    # refinement keeps the root bracketed
    lo, hi = polyn.refine_isolator(p, *iso[0])
    assert hi - lo < (iso[0][1] - iso[0][0])
    assert polyn.peval(p, lo) * polyn.peval(p, hi) < 0


def test_caller_input_is_refused_with_value_error():
    sqrt2_twice = polyn.pmul((-2, 0, 1), (-2, 0, 1))     # (x^2 - 2)^2
    with pytest.raises(ValueError, match="squarefree"):
        polyn.isolate_real_roots(sqrt2_twice)
    with pytest.raises(ValueError, match="zero polynomial"):
        polyn.pmonic(())
    for p in [(), (Fraction(3),)]:
        with pytest.raises(ValueError, match="nonconstant"):
            polyn.root_bound(p)


def test_count_real_roots():
    # x^2 + 1 has none; x^3 - x has three
    assert oracles.count_real_roots((Fraction(1), Fraction(0), Fraction(1))) == 0
    p = (Fraction(0), Fraction(-1), Fraction(0), Fraction(1))
    assert oracles.count_real_roots(p) == 3


def test_cyclotomic_polynomials():
    assert polyn.cyclotomic(1) == (Fraction(-1), Fraction(1))
    assert polyn.cyclotomic(4) == (Fraction(1), Fraction(0), Fraction(1))
    assert polyn.cyclotomic(5) == tuple(Fraction(1) for _ in range(5))
    # product of Phi_d over d | n is x^n - 1
    n = 12
    prod = (Fraction(1),)
    for d in range(1, n + 1):
        if n % d == 0:
            prod = polyn.pmul(prod, polyn.cyclotomic(d))
    expect = tuple([Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)])
    assert prod == expect


def test_real_cyclotomic():
    # minimal polynomial of zeta_7 + zeta_7^{-1} is y^3 + y^2 - 2y - 1
    assert polyn.real_cyclotomic(7) == (Fraction(-1), Fraction(-2),
                                        Fraction(1), Fraction(1))
    # degree is phi(r)/2 and the polynomial has all real roots
    for r in (5, 7, 9, 11, 12, 16):
        p = polyn.real_cyclotomic(r)
        d = polyn.degree(p)
        assert oracles.count_real_roots(p) == d


def test_interval_eval_contains_value():
    p = (Fraction(1), Fraction(-3), Fraction(0), Fraction(2))
    lo, hi = Fraction(1, 3), Fraction(1, 2)
    vlo, vhi = polyn.interval_eval(p, lo, hi)
    for x in (lo, hi, (lo + hi) / 2):
        assert vlo <= polyn.peval(p, x) <= vhi


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=5),
       st.lists(st.integers(-9, 9), min_size=1, max_size=5))
def test_pmul_matches_eval(a, b):
    p = tuple(Fraction(c) for c in a)
    q = tuple(Fraction(c) for c in b)
    x = Fraction(3, 2)
    assert polyn.peval(polyn.pmul(p, q), x) == \
        polyn.peval(p, x) * polyn.peval(q, x)


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=5),
       st.lists(st.integers(-9, 9), min_size=1, max_size=3))
def test_pdivmod_identity(a, b):
    p = polyn.trim(tuple(Fraction(c) for c in a))
    q = polyn.trim(tuple(Fraction(c) for c in b))
    if not q:
        return
    quot, rem = polyn.pdivmod(p, q)
    assert polyn.padd(polyn.pmul(quot, q), rem) == p
    assert polyn.degree(rem) < polyn.degree(q)
