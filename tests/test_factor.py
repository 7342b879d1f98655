"""Integer factoring and primality in `residue`, against sympy as oracle.

`_factor` proves its primes by Miller-Rabin below `_MR_BOUND` and hands a
larger cofactor to sympy; `_is_prime` is checked against a sieve.
"""

import random

import pytest
import sympy

from cmforms.residue import _MR_BOUND, _factor, _is_prime


def test_every_n_up_to_ten_thousand():
    for n in range(1, 10 ** 4 + 1):
        assert _factor(n) == sympy.factorint(n), n


def test_seeded_n_below_1e22():
    rng = random.Random(20061)
    for _ in range(300):
        n = rng.randrange(1, 10 ** 22)
        assert _factor(n) == sympy.factorint(n), n


@pytest.mark.parametrize("p, k", [(2, 70), (3, 40), (47, 9), (53, 2),
                                  (53, 7), (1009, 5), (1000003, 3),
                                  (99991, 4), (2 ** 31 - 1, 2)])
def test_prime_powers(p, k):
    assert _factor(p ** k) == {p: k}


def test_semiprimes_near_1e9():
    rng = random.Random(7)
    for _ in range(5):
        p = sympy.nextprime(10 ** 9 + rng.randrange(10 ** 6))
        q = sympy.nextprime(10 ** 9 + rng.randrange(10 ** 6))
        assert _factor(p * q) == sympy.factorint(p * q)


@pytest.mark.parametrize("n", [561, 41041, 3215031751])
def test_pseudoprimes_are_split(n):
    # Carmichael numbers, and a strong pseudoprime to the bases 2, 3, 5, 7
    assert not _is_prime(n)
    assert _factor(n) == sympy.factorint(n)


def test_a_cofactor_beyond_the_proof_takes_the_fallback():
    n = 12 * (10 ** 30 + 57)
    assert n // 12 >= _MR_BOUND
    assert _factor(n) == sympy.factorint(n)


def test_zero_is_refused():
    with pytest.raises(ValueError):
        _factor(0)


def test_is_prime_matches_a_sieve():
    limit = 10 ** 5
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, limit, i)))
    assert [n for n in range(limit) if _is_prime(n)] == \
        [n for n in range(limit) if sieve[n]]
