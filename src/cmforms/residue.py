"""Norm-residue decisions for CM quadratic extensions.

Over F = Q, "is d a norm from E = Q(sqrt(delta))?" is decided by Hilbert
symbols at 2, infinity and the primes of d and delta, complete within the
factoring budget, and Lagrange's descent builds a decided norm's witness.
Over larger totally real F the archimedean obstruction and the bounded
search `_norm_witness` answer, or Unknown; over Q the search runs only
while a cofactor of d or delta stays unsplit.  `is_norm`'s `field.Verdict`
carries a witness x with N(x) = d (IsNorm, when found), the obstructing
place (IsNotNorm) or, over Q, the unsplit cofactors (Unknown).  `_factor`
is the one integer factoriser, and `_is_prime` the one proof of primality:
Miller-Rabin below 3.3e24, Pocklington's n - 1 test above.
"""

from fractions import Fraction
import itertools
from math import gcd, isqrt, prod

from .field import (NEGATIVE, VerificationError, Verdict, _SMALL_PRIMES,
                    _candidates)


IS_NORM = "IsNorm"
IS_NOT_NORM = "IsNotNorm"
UNKNOWN = "Unknown"

NormResidueVerdict = Verdict  # the former class name, kept public


# Sorenson and Webster (2015): below _MR_BOUND, a strong probable prime to
# every base in _MR_BASES is prime.
_MR_BASES = _SMALL_PRIMES[:13]  # the primes up to 41
_MR_BOUND = 3317044064679887385961981


def _primes_below(n):
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return tuple(itertools.compress(range(n), sieve))


# `_factor`'s trial divisors: a cofactor without them below 2^26 is prime
_TRIAL_PRIMES = _primes_below(1 << 13)
_TRIAL_PRODUCT = prod(_TRIAL_PRIMES)

# Brent-rho squarings per cofactor >= _MR_BOUND, enough for its primes below
# about 1e10; a smaller composite has one below 1.9e12 and gets no budget.
_RHO_STEPS = 5 * 10 ** 5


def _is_prime(n):
    """Is n proved prime?  Miller-Rabin to the bases _MR_BASES below
    _MR_BOUND; above, Pocklington's n - 1 test (Brillhart, Lehmer and
    Selfridge 1975, Thm 4) on the primes `_factor(n - 1)` proves: if their
    part F of n - 1 has F^2 > n and each prime q | F has a base a with
    gcd(a^((n-1)/q) - 1, n) = 1, each prime factor of n is 1 mod F, so n
    is prime.  False if Miller-Rabin finds n composite, None if F fails."""
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # n - 1 = d 2^s, d odd: base a witnesses that n is composite unless
    # a^d = 1 or a^(d 2^k) = -1 for some k < s
    strong = all(pow(a, d, n) == 1 or any(pow(a, d << k, n) == n - 1
                                          for k in range(s))
                 for a in _MR_BASES)
    if not strong or n < _MR_BOUND:
        return strong
    # a^(n-1) = 1 mod n for every base, since n passed them all
    primes, _ = _factor(n - 1)
    return (prod(q ** e for q, e in primes.items()) ** 2 > n
            and all(any(gcd(pow(a, (n - 1) // q, n) - 1, n) == 1
                        for a in _MR_BASES) for q in primes)) or None


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


def _iroot(m, k):
    """floor(m^(1/k)) for m >= 1, by Newton's method from above."""
    r = 1 << -(-m.bit_length() // k)
    while (s := ((k - 1) * r + m // r ** (k - 1)) // k) < r:
        r = s
    return r


def _factor(n):
    """(primes, unsplit) for an integer n >= 1: {prime: exponent} and
    {cofactor: multiplicity}, whose product is n.  Trial division by
    _TRIAL_PRIMES until p^2 > n, skipped for an n >= 2^26 that none of
    them divides (one gcd); then a cofactor below 2^26 or one that
    `_is_prime` proves is a prime, a j-th power is its root j times (a
    root is > 2^13, so j <= bits / 13), and
    any other is split by `_rho_split` (within _RHO_STEPS squarings from
    _MR_BOUND up) or kept unsplit."""
    if n < 1:
        raise ValueError("can only factor an integer n >= 1, got %r" % (n,))
    primes, unsplit = {}, {}
    # from 2^26 up, p^2 > n cannot end the scan, which divides out nothing
    # when gcd(n, _TRIAL_PRODUCT) = 1
    trial = _TRIAL_PRIMES if n < 1 << 26 or gcd(n, _TRIAL_PRODUCT) > 1 \
        else ()
    for p in trial:
        if p * p > n:
            break
        while n % p == 0:
            n, primes[p] = n // p, primes.get(p, 0) + 1
    stack = [(n, 1)] if n > 1 else []
    while stack:
        m, k = stack.pop()
        if m < 1 << 26 or _is_prime(m):
            primes[m] = primes.get(m, 0) + k
        elif j := next((j for j in range(m.bit_length() // 13, 1, -1)
                        if _iroot(m, j) ** j == m), 0):
            stack.append((_iroot(m, j), j * k))
        elif g := _rho_split(m, _RHO_STEPS if m >= _MR_BOUND else None):
            stack += [(g, k), (m // g, k)]
        else:
            unsplit[m] = unsplit.get(m, 0) + k
    return primes, unsplit


def _square_split(*parts):
    """(odd, r) with n_1 ... n_k = prod(odd) r^2 for the `_factor` outputs
    `parts` of coprime n_i: `odd` holds the factors of odd multiplicity."""
    factors = [f for part in parts for half in part for f in half.items()]
    return ([m for m, e in factors if e % 2],
            prod(m ** (e // 2) for m, e in factors))


def _square_class(n):
    """n >= 1 modulo squares: the product of the primes and unsplit
    cofactors of odd multiplicity in `_factor(n)`."""
    return prod(_square_split(_factor(n))[0])


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
    """Hilbert symbol (a, b)_p for nonzero rationals; p must be 0 (for
    infinity) or a prime, and p = 1 or p < 0 is refused.

    Serre, A Course in Arithmetic, III.1.2: with a = p^alpha u and
    b = p^beta v, the symbol at odd p is (-1)^(alpha beta (p-1)/2)
    (u/p)^beta (v/p)^alpha, and at 2 it is (-1)^e with
    e = eps(u) eps(v) + alpha omega(v) + beta omega(u), eps(u) = (u-1)/2
    and omega(u) = (u^2-1)/8 for the units reduced mod 8."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("the Hilbert symbol needs nonzero arguments")
    if p != 0 and p < 2:  # _val would never end at p = 1
        raise ValueError("p must be 0 or a prime, got %r" % (p,))
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
    """Is d in N(Q(sqrt(delta))^x)?  d is a norm iff x^2 - delta y^2
    represents d over Q, iff the Hilbert symbol (delta, d)_v is 1 at every
    place v; the primes of d and delta, 2 and infinity suffice, so this is
    complete within the factoring budget.  (None, cofactors) says no known
    place obstructs, but `_factor` left these unsplit."""
    return _local_global(d, delta)[:2]


def _local_global(d, delta):
    """`rational_is_norm`'s answer and the `_factor` outputs it read."""
    d, delta = Fraction(d), Fraction(delta)
    if d == 0:
        raise ValueError("d must be nonzero")
    parts = [_factor(abs(n)) for n in (d.numerator, d.denominator,
                                       delta.numerator, delta.denominator)]
    for p in [0, 2] + sorted({p for primes, _ in parts for p in primes}):
        if hilbert_symbol(delta, d, p) != 1:
            return False, p, parts
    unsplit = sorted({m for _, rest in parts for m in rest})
    return (None, unsplit, parts) if unsplit else (True, None, parts)


def _sqrt_mod(a, p):
    """A square root of a modulo the prime p, or None if a is no square mod
    p: Tonelli-Shanks (Cohen, GTM 138, Algorithm 1.5.1)."""
    a %= p
    if a == 0 or p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    e = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = q 2^e, q odd
    q = (p - 1) >> e
    n = next(n for n in itertools.count(2) if pow(n, (p - 1) // 2, p) != 1)
    # x^2 = a b holds while the order 2^m of b drops to 1
    z, x, b = pow(n, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while b != 1:
        m = next(m for m in itertools.count(1) if pow(b, 1 << m, p) == 1)
        t = pow(z, 1 << (e - m - 1), p)
        z, e, x, b = t * t % p, m, x * t % p, b * t * t % p
    return x


def _root_mod(a, primes):
    """t with t^2 = a mod m, |t| <= m/2, for m the product of the distinct
    `primes`, by `_sqrt_mod` at each and the CRT; a non-square's root of
    None counts as 0 and fails the caller's exact check."""
    m = prod(primes)
    return (sum((_sqrt_mod(a, p) or 0) * (m // p) * pow(m // p, -1, p)
                for p in primes) + m // 2) % m - m // 2


def _descend(a, b, t, pa, pb):
    """Integers (x, y, z), z != 0, with x^2 - a y^2 = b z^2 for squarefree
    a and b with primes pa and pb, b a norm from Q(sqrt a) and t^2 = a mod
    b, or None if `_factor` leaves a swap's modulus unsplit.  Lagrange's
    descent (Cremona and Rusin, Math. Comp. 72, 2003): for |a| <= |b|,
    |t| <= |b|/2 gives t^2 - a = b c, |c| <= |b|/4 + 1, b = N(t + sqrt a) /
    N(u) for N(u) = c, and t stays a root of a mod c, so no step factors c.
    For |a| > |b| the roles swap: b = b0 r^2, b0's root mod a from pa, and
    `_factor` runs only on a b that a step made, never on |b| = 1.  The
    steps loop (only a swap recurses) and are undone in lowest terms."""
    steps = []
    while b != 1 and a != 1 and abs(a) <= abs(b):
        m = abs(b)
        t = (t + m // 2) % m - m // 2
        c, rem = divmod(t * t - a, b)
        if rem or c == b:  # c == b only for b = a = -1, which no x solves
            raise VerificationError("no descent from (%d, %d) at t = %d"
                                    % (a, b, t))
        steps.append((t, c))
        b = c
    if b == 1 or a == 1:
        x, y, z = (1, 0, 1) if b == 1 else (b + 1, b - 1, 2)
    else:  # X^2 - b0 Y^2 = a Z^2 is x^2 - a y^2 = b z^2
        r, unsplit = 1, ()
        if steps:
            (_, unsplit) = parts = _factor(abs(b)) if abs(b) > 1 else ({}, {})
            pb, r = _square_split(parts)
        b0 = b // (r * r)
        if unsplit or not (s := _descend(b0, a, _root_mod(b0, pa), pb, pa)):
            return None
        x, y, z = r * s[0], r * s[2], s[1]
    for t, c in reversed(steps):
        x, y, z = t * x - a * y, x - t * y, c * z
        g = gcd(x, y, z)
        x, y, z = x // g, y // g, z // g
    return x, y, z


def _descent_witness(d, cmfield, parts):
    """x in E = Q(sqrt(delta)) with N(x) = d by `_descend` from the split
    `_local_global` factorings `parts`, checked exactly, or None."""
    q, delta = d.a[0], cmfield.delta[0]
    (pb, rb), (pa, ra) = _square_split(*parts[:2]), _square_split(*parts[2:])
    # d = b u^2 and delta = a v^2 for squarefree integers a, b
    u, v = Fraction(rb, q.denominator), Fraction(ra, delta.denominator)
    a, b = int(delta / v ** 2), int(q / u ** 2)
    s = _descend(a, b, _root_mod(a, pb), pa, pb)
    if s is None:
        return None
    w = cmfield.element([s[0] * u / s[2]], [s[1] * u / (v * s[2])])
    if w * w.conjugate() != d:
        raise VerificationError("N(x) != d for the descent's witness")
    return w


def _norm_witness(d, cmfield, budget):
    """x in E with N(x) = d, or None, from the first `budget` candidates
    x = a + b*sqrt(delta) of `_candidates(2s)`: wherever N(x) = r^2 * d for
    a rational r, x/r is a witness.  x and its conjugate have the same
    norm, so a candidate whose b has a negative first nonzero coordinate
    is skipped and not counted."""
    k = next(j for j, c in enumerate(d.a) if c)
    candidates = (x for x in map(cmfield.from_rationals,
                                 _candidates(cmfield._dim))
                  if next((c for c in x.b if c), 0) >= 0)
    for x in itertools.islice(candidates, max(budget, 0)):
        n = x.relative_norm().a
        # N(x) = q * d for a rational q, compared in F-coordinates
        q = n[k] / d.a[k]
        if q > 0 and all(nj == q * dj for nj, dj in zip(n, d.a)):
            rn, rd = isqrt(q.numerator), isqrt(q.denominator)
            if rn * rn == q.numerator and rd * rd == q.denominator:
                return x / Fraction(rn, rd)
    return None


def is_norm(d, cmfield, budget=10 ** 4):
    """Three-valued norm-residue test for d in F over the CM field E/F.
    Over Q a decided IsNorm carries the descent's witness (none only if a
    swap's modulus >= 3.3e24 stays unsplit); `budget` bounds the search,
    which runs only while the decision is open: over larger F, or while a
    cofactor of d or delta stays unsplit.  An Unknown's trace names each
    unsplit cofactor and the candidates the search tried."""
    d = cmfield.coerce(d)
    if not d.is_in_F():
        raise ValueError("is_norm expects an element of F")
    if d.is_zero():
        raise ValueError("d must be nonzero")

    # archimedean obstruction: relative norms are totally positive
    for ell in range(cmfield.s):
        if d.sign_at(ell) == NEGATIVE:
            return Verdict(IS_NOT_NORM, obstruction=("real place", ell))

    # over Q the Hilbert symbols decide and the descent builds the witness
    decided, reason, parts = (_local_global(d.a[0], cmfield.delta[0])
                              if cmfield.s == 1 else (None, (), None))
    if decided is False:
        return Verdict(IS_NOT_NORM, obstruction=("prime", reason))
    witness = (_descent_witness(d, cmfield, parts) if decided
               else _norm_witness(d, cmfield, budget))
    if witness is None and not decided:
        # `_candidates` is endless, so the search took budget candidates
        return Verdict(UNKNOWN, trace=[
            "cofactor %d neither proved prime nor split by %d rho squarings"
            % (m, _RHO_STEPS) for m in reason] + [
            "norm-witness search tried %d candidates x in E, none with "
            "N(x) = d up to a rational square" % max(budget, 0)])
    return Verdict(IS_NORM, witness=witness)
