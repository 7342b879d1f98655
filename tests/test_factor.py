"""Integer factoring and primality in `residue`, against sympy as oracle.

`_factor` returns (primes, unsplit): its primes are proved by Miller-Rabin
below `_MR_BOUND` and by the n - 1 test above, and a cofactor it can
neither prove nor split within the rho budget stays unsplit.  `_is_prime`
is checked against a sieve, and above the bound against `sympy.isprime`.
"""

import random
from math import prod

import pytest
import sympy

from cmforms.residue import _MR_BOUND, _TRIAL_PRIMES, _factor, _is_prime

# n - 1 = 10 (10^19 + 51)(2 10^19 + 11): a 40-digit prime whose n - 1 has a
# cofactor beyond the rho budget, so the n - 1 test cannot prove it
UNPROVED_PRIME = 10 * (10 ** 19 + 51) * (2 * 10 ** 19 + 11) + 1


def _proved(n):
    """sympy's factorisation, in the shape of a complete `_factor`."""
    return sympy.factorint(n), {}


def test_every_n_up_to_ten_thousand():
    for n in range(1, 10 ** 4 + 1):
        assert _factor(n) == _proved(n), n


def test_seeded_n_below_1e22():
    rng = random.Random(20061)
    for _ in range(300):
        n = rng.randrange(1, 10 ** 22)
        assert _factor(n) == _proved(n), n


@pytest.mark.parametrize("p, k", [(2, 70), (3, 40), (47, 9), (53, 2),
                                  (53, 7), (1009, 5), (1000003, 3),
                                  (99991, 4), (2 ** 31 - 1, 2)])
def test_prime_powers(p, k):
    assert _factor(p ** k) == ({p: k}, {})


def test_semiprimes_near_1e9():
    rng = random.Random(7)
    for _ in range(5):
        p = sympy.nextprime(10 ** 9 + rng.randrange(10 ** 6))
        q = sympy.nextprime(10 ** 9 + rng.randrange(10 ** 6))
        assert _factor(p * q) == _proved(p * q)


@pytest.mark.parametrize("n", [561, 41041, 3215031751])
def test_pseudoprimes_are_split(n):
    # Carmichael numbers, and a strong pseudoprime to the bases 2, 3, 5, 7
    assert not _is_prime(n)
    assert _factor(n) == _proved(n)


def test_a_prime_beyond_the_bound_is_proved_by_n_minus_1():
    # 10^30 + 56 = 2^3 3 79043 3998741 290240017 454197539
    n = 12 * (10 ** 30 + 57)
    assert n // 12 >= _MR_BOUND
    assert _factor(n) == _proved(n)


def test_a_cofactor_beyond_the_proof_stays_unsplit():
    assert sympy.isprime(UNPROVED_PRIME) and UNPROVED_PRIME >= _MR_BOUND
    assert not _is_prime(UNPROVED_PRIME)
    assert _factor(12 * UNPROVED_PRIME) == ({2: 2, 3: 1},
                                           {UNPROVED_PRIME: 1})


def test_a_square_cofactor_counts_as_its_root_twice():
    # two 30-digit primes: rho does not split p q within its budget
    p, q = 10 ** 29 + 319, 3 * 10 ** 29 + 7
    assert _factor(p * q) == ({}, {p * q: 1})
    assert _factor(5 * (p * q) ** 2) == ({5: 1}, {p * q: 2})


@pytest.mark.parametrize("n", [
    (10 ** 10 + 19) ** 3, 7 * (10 ** 10 + 19) ** 6, (10 ** 25 + 13) ** 3,
    53 ** 2 * 59 ** 5 * (10 ** 25 + 13) ** 5])
def test_a_power_cofactor_counts_as_its_root_j_times(n):
    assert _factor(n) == _proved(n)


def test_small_primes_beyond_the_bound_are_split():
    # every prime below about 1e10 falls to rho within the budget
    rng = random.Random(10)
    for _ in range(4):
        n = prod(_random_prime(rng, 10) for _ in range(3))
        assert n >= _MR_BOUND and _factor(n) == _proved(n), n
    n = (10 ** 10 + 19) * _random_prime(rng, 15)
    assert n >= _MR_BOUND and _factor(n) == _proved(n)


def test_primes_past_the_trial_bound_skip_the_scan():
    # from 2^26 up a prime is tested by one gcd with the trial primes'
    # product, not by all 1,028 of them; a trial prime in n still is found
    rng = random.Random(26)
    large = [sympy.nextprime(rng.randrange(lo, 10 * lo))
             for lo in (1 << 26, 10 ** 9, 10 ** 12, 10 ** 15, 10 ** 17)]
    large.append(sympy.prevprime(10 ** 18))
    for p in large:
        assert (1 << 26) <= p <= 10 ** 18
        assert _factor(p) == _proved(p) == ({p: 1}, {})
        for _ in range(3):
            n = p * prod(rng.choice(_TRIAL_PRIMES) ** rng.randint(1, 3)
                         for _ in range(rng.randint(1, 3)))
            assert _factor(n) == _proved(n), n
    assert _factor(_TRIAL_PRIMES[-1] * large[0]) == \
        _proved(_TRIAL_PRIMES[-1] * large[0])


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


def _random_prime(rng, digits):
    return sympy.nextprime(rng.randrange(10 ** (digits - 1), 10 ** digits))


@pytest.mark.parametrize("digits", [25, 30, 40])
def test_a_proof_above_the_bound_agrees_with_sympy(digits):
    # a True from `_is_prime` is a proof, so sympy's BPSW test agrees
    rng = random.Random(digits)
    proved = 0
    for _ in range(10):
        p, q = _random_prime(rng, digits), _random_prime(rng, digits)
        assert not _is_prime(p * q)
        if _is_prime(p):
            assert sympy.isprime(p)
            proved += 1
    assert proved >= 3


@pytest.mark.parametrize("n", [
    # Chernick's Carmichael numbers (6k+1)(12k+1)(18k+1)
    1296005097246682578520326409,
    1296000003697560003516447601114735321,
    # psi_12, a strong pseudoprime to the bases up to 37, and psi_13 =
    # _MR_BOUND, one to every base in _MR_BASES (Sorenson and Webster)
    318665857834031151167461,
    3317044064679887385961981,
])
def test_no_composite_is_proved(n):
    assert not sympy.isprime(n) and not _is_prime(n)
    primes, unsplit = _factor(n)
    assert all(sympy.isprime(p) for p in primes)
    assert prod(p ** e for part in (primes, unsplit)
                for p, e in part.items()) == n


def test_products_of_proved_primes_match_sympy():
    # a power of a large prime that the n - 1 test proves, times primes
    # below 10^7
    rng = random.Random(21)
    proved = [p for p in (_random_prime(rng, rng.choice([26, 28, 30]))
                          for _ in range(12)) if _is_prime(p)]
    assert len(proved) >= 6
    for p in proved:
        n = p ** rng.randint(1, 3) * prod(
            sympy.randprime(2, 10 ** 7) for _ in range(rng.randint(0, 3)))
        assert _factor(n) == _proved(n), n
