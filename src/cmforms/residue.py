"""Norm-residue decisions for CM quadratic extensions.

Over F = Q the question "is d a norm from E = Q(sqrt(delta))?" is decided
completely by Hilbert symbols at 2, infinity and the primes meeting d or
delta.  Over larger totally real F we fall back on the archimedean
obstruction and a bounded witness search, reporting Unknown otherwise.
One search, `_norm_witness`, serves every base field: over Q it only
supplies the witness of a decided IsNorm.

`is_norm` answers with a `field.Verdict`: IsNorm carries a witness x with
N(x) = d when the search finds one, IsNotNorm the obstructing place.
The prime supports come from `_factor`: trial division, Brent's rho and a
Miller-Rabin proof of primality below 3.3e24; sympy factors only a
cofactor beyond that bound.  `_square_class` reads n modulo squares from
the same steps within a squaring budget, and never calls sympy.
"""

from collections import Counter
from fractions import Fraction
import itertools
from math import gcd, isqrt, prod

from .field import NEGATIVE, Verdict, _SMALL_PRIMES, _candidates


IS_NORM = "IsNorm"
IS_NOT_NORM = "IsNotNorm"
UNKNOWN = "Unknown"

NormResidueVerdict = Verdict  # the former class name, kept public


# Sorenson and Webster (2015): below _MR_BOUND, a strong probable prime to
# every base in _MR_BASES is prime.
_MR_BASES = _SMALL_PRIMES[:13]  # the primes up to 41
_MR_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Is n a strong probable prime to every base in _MR_BASES?  A proof
    for n < _MR_BOUND."""
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # n - 1 = d 2^s, d odd: base a witnesses that n is composite unless
    # a^d = 1 or a^(d 2^k) = -1 for some k < s
    return not any(pow(a, d, n) != 1 and all(pow(a, d << k, n) != n - 1
                                             for k in range(s))
                   for a in _MR_BASES)


def _rho_split(n, steps=None):
    """A proper factor of the odd composite n by Brent's rho (Cohen, GTM
    138, 8.5): batched gcds, and the next c when a gcd comes out as n.
    With `steps`, None once that many squarings mod n found no factor
    (counted at the end of each doubling round)."""
    used = 0
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if steps is not None and used >= steps:
                return None
            x, k = y, 0
            for _ in range(r):
                y = (y * y + c) % n
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g, k = gcd(q, n), k + 128
            used += r + min(k, r)
            r *= 2
        if g == n:  # the batch overshot: redo it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _factor(n):
    """{prime: exponent} for an integer n >= 1: trial division below 50,
    then cofactors that `_is_prime` proves prime or `_rho_split` splits.
    sympy factors a cofactor >= _MR_BOUND, where that proof stops."""
    if n < 1:
        raise ValueError("can only factor an integer n >= 1, got %r" % (n,))
    out = Counter()
    for p in _SMALL_PRIMES:
        while n % p == 0:
            n, out[p] = n // p, out[p] + 1
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m >= _MR_BOUND:
            import sympy
            out.update(sympy.factorint(m))
        elif _is_prime(m):
            out[m] += 1
        else:
            g = _rho_split(m)
            stack += [g, m // g]
    return dict(out)


def _square_class(n, steps):
    """n >= 1 modulo squares, without sympy: the product of the factors of
    odd exponent that trial division below 50, `_is_prime` and `_rho_split`
    within `steps` squarings per cofactor find.  A cofactor left unsplit
    stays whole unless `isqrt` shows it a square, so this is the squarefree
    part of n wherever the factoring completes."""
    odd, stack = set(), [n]
    while stack:
        m = stack.pop()
        p = next((p for p in _SMALL_PRIMES if m % p == 0), None)
        if p is not None:
            odd ^= {p}
            stack.append(m // p)
        elif m > 1 and isqrt(m) ** 2 != m:
            g = (None if m < _MR_BOUND and _is_prime(m)
                 else _rho_split(m, steps))
            if g is None:
                odd ^= {m}
            else:
                stack += [g, m // g]
    return prod(odd)


def _factor_support(*fracs):
    return sorted({p for q in fracs for n in (q.numerator, q.denominator)
                   for p in _factor(abs(n))})


def _val(q, p):
    """p-adic valuation of a nonzero Fraction."""
    v, n, d = 0, q.numerator, q.denominator
    while n % p == 0:
        n, v = n // p, v + 1
    while d % p == 0:
        d, v = d // p, v - 1
    return v


def _unit_residue(q, p, m):
    """The p-adic unit part of a nonzero Fraction q, as an integer mod m."""
    u = q / Fraction(p) ** _val(q, p)
    return u.numerator * pow(u.denominator, -1, m) % m


def _legendre(a, p):
    return 0 if a % p == 0 else (1 if pow(a, (p - 1) // 2, p) == 1 else -1)


def hilbert_symbol(a, b, p):
    """Hilbert symbol (a, b)_p for nonzero rationals; p = 0 means infinity.

    Serre, A Course in Arithmetic, III.1.2: with a = p^alpha u and
    b = p^beta v, the symbol at odd p is (-1)^(alpha beta (p-1)/2)
    (u/p)^beta (v/p)^alpha, and at 2 it is (-1)^e with
    e = eps(u) eps(v) + alpha omega(v) + beta omega(u), eps(u) = (u-1)/2
    and omega(u) = (u^2-1)/8 for the units reduced mod 8."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("the Hilbert symbol needs nonzero arguments")
    if p == 0:
        return -1 if (a < 0 and b < 0) else 1
    alpha, beta = _val(a, p), _val(b, p)
    if p == 2:
        u, v = _unit_residue(a, 2, 8), _unit_residue(b, 2, 8)
        e = ((u - 1) // 2 * ((v - 1) // 2) + alpha * ((v * v - 1) // 8)
             + beta * ((u * u - 1) // 8))
        return -1 if e % 2 else 1
    u, v = _unit_residue(a, p, p), _unit_residue(b, p, p)
    s = _legendre(-1, p) if alpha % 2 and beta % 2 else 1
    if alpha % 2:
        s *= _legendre(v, p)
    if beta % 2:
        s *= _legendre(u, p)
    return s


def rational_is_norm(d, delta):
    """Is d in N(Q(sqrt(delta))^x)?  Complete local-global decision.

    d is a norm iff the form x^2 - delta*y^2 represents d over Q, iff the
    Hilbert symbol (delta, d)_v is trivial at every place v; checking the
    support of d and delta plus {2, infinity} suffices.
    """
    d, delta = Fraction(d), Fraction(delta)
    if d == 0:
        raise ValueError("d must be nonzero")
    for p in [0, 2] + _factor_support(d, delta):
        if hilbert_symbol(delta, d, p) != 1:
            return False, p
    return True, None


def _is_rational_square(q):
    if q >= 0:
        rn, rd = isqrt(q.numerator), isqrt(q.denominator)
        if rn * rn == q.numerator and rd * rd == q.denominator:
            return Fraction(rn, rd)
    return None


def _norm_witness(d, cmfield, budget):
    """x in E with N(x) = d, or None, from the first `budget` candidates
    x = a + b*sqrt(delta) of `_candidates(2s)`: wherever N(x) = r^2 * d for
    a rational r, x/r is a witness.  x and its conjugate have the same
    norm, so a candidate whose b has a negative first nonzero coordinate
    is skipped and not counted."""
    s = cmfield.s
    k = next(j for j, c in enumerate(d.a) if c)
    candidates = (v for v in _candidates(2 * s)
                  if next((c for c in v[s:] if c), 0) >= 0)
    for coords in itertools.islice(candidates, max(budget, 0)):
        x = cmfield.element(coords[:s], coords[s:])
        n = x.relative_norm().a
        # N(x) = q * d for a rational q, compared in F-coordinates
        q = n[k] / d.a[k]
        if all(nj == q * dj for nj, dj in zip(n, d.a)):
            r = _is_rational_square(q)
            if r:
                return x / r
    return None


def is_norm(d, cmfield, budget=10 ** 4):
    """Three-valued norm-residue test for d in F over the CM field E/F."""
    d = cmfield.coerce(d)
    if not d.is_in_F():
        raise ValueError("is_norm expects an element of F")
    if d.is_zero():
        raise ValueError("d must be nonzero")

    # archimedean obstruction: relative norms are totally positive
    for ell in range(cmfield.s):
        if d.sign_at(ell) == NEGATIVE:
            return Verdict(IS_NOT_NORM, obstruction=("real place", ell))

    # over Q the Hilbert symbols decide, and the search only adds a witness
    if cmfield.s == 1:
        ok, bad_p = rational_is_norm(d.a[0], cmfield.delta[0])
        if not ok:
            return Verdict(IS_NOT_NORM, obstruction=("prime", bad_p))
    witness = _norm_witness(d, cmfield, budget)
    if witness is None and cmfield.s > 1:
        return Verdict(UNKNOWN)
    return Verdict(IS_NORM, witness=witness)
