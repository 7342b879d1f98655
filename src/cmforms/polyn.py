"""Dense univariate polynomials over Q, plus certified real-root machinery.

Coefficient convention: tuple of Fractions, constant term first, no trailing
zeros.  The zero polynomial is the empty tuple.  Everything here is exact;
no floats enter any decision.
"""

from fractions import Fraction
from functools import lru_cache


def trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(Fraction(x) for x in c)


def degree(p):
    return len(p) - 1


def padd(p, q):
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                 for i in range(n)])


def pneg(p):
    return tuple(-c for c in p)


def psub(p, q):
    return padd(p, pneg(q))


def pscale(p, s):
    s = Fraction(s)
    if s == 0:
        return ()
    return tuple(c * s for c in p)


def pmul(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def pdivmod(p, q):
    """Euclidean division; q must be nonzero."""
    if not q:
        raise ZeroDivisionError("division by zero polynomial")
    r = list(p)
    d = degree(q)
    lead = q[-1]
    quot = [Fraction(0)] * max(len(p) - d, 1)
    while len(r) - 1 >= d and any(c != 0 for c in r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < d:
            break
        s = r[-1] / lead
        k = len(r) - 1 - d
        quot[k] = s
        for i, b in enumerate(q):
            r[k + i] -= s * b
        r.pop()
    return trim(quot), trim(r)


def pmod(p, q):
    return pdivmod(p, q)[1]


def peval(p, x):
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def pderiv(p):
    return trim([i * c for i, c in enumerate(p)][1:])


def pmonic(p):
    if not p:
        raise ValueError("the zero polynomial has no monic multiple")
    return tuple(c / p[-1] for c in p)


def pgcd(p, q):
    while q:
        p, q = q, pmod(p, q)
    return pmonic(p) if p else ()


def is_squarefree(p):
    return degree(pgcd(p, pderiv(p))) == 0


def interval_eval(p, lo, hi):
    """Exact interval Horner: returns (lo, hi) enclosing p([lo, hi])."""
    a = b = Fraction(p[-1] if p else 0)
    lo, hi = Fraction(lo), Fraction(hi)
    for c in reversed(p[:-1]):
        prods = (a * lo, a * hi, b * lo, b * hi)
        a, b = min(prods) + c, max(prods) + c
    return a, b


def sign_variations(values):
    """Sign changes in a sequence, zeros skipped."""
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def sturm_chain(p):
    chain = [p, pderiv(p)]
    while chain[-1] and degree(chain[-1]) > 0:
        rem = pmod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(pneg(rem))
    return [c for c in chain if c]


def sturm_count(chain, a, b):
    """Number of distinct real roots in (a, b]."""
    va = sign_variations([peval(c, a) for c in chain])
    vb = sign_variations([peval(c, b) for c in chain])
    return va - vb


def root_bound(p):
    """Cauchy bound: all real roots lie in (-B, B)."""
    if not p or degree(p) < 1:
        raise ValueError("root_bound needs a nonconstant polynomial")
    lead = abs(p[-1])
    b = 1 + max(abs(c) / lead for c in p[:-1])
    return Fraction(b)


def isolate_real_roots(p):
    """Disjoint open-ish rational intervals (lo, hi], one distinct real root
    each, sorted increasingly.  p must be squarefree."""
    p = pmonic(trim(p))
    if not is_squarefree(p):
        raise ValueError("root isolation requires a squarefree polynomial")
    chain = sturm_chain(p)
    b = root_bound(p)
    out = []
    stack = [(-b, b)]
    while stack:
        lo, hi = stack.pop()
        n = sturm_count(chain, lo, hi)
        if n == 0:
            continue
        if n == 1:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        # keep endpoints off the roots so (lo, hi] counting stays clean
        while peval(p, mid) == 0:
            mid = (lo + mid) / 2
        stack.append((lo, mid))
        stack.append((mid, hi))
    out.sort(key=lambda iv: iv[0] + iv[1])
    return out


def refine_isolator(p, lo, hi):
    """One bisection step of an isolating interval for a root of p."""
    mid = (lo + hi) / 2
    v = peval(p, mid)
    if v == 0:
        # only possible for a rational root; pin it tightly
        w = (hi - lo) / 4
        return mid - w, mid + w
    if (peval(p, lo) < 0) != (v < 0):
        return lo, mid
    return mid, hi


# --- integer polynomials mod a prime q (int lists, constant first) -------

def _mod_q(a, q):
    a = [int(c) % q for c in a]
    while a and not a[-1]:
        a.pop()
    return a


def _divmod_q(a, b, q):
    """(quotient, remainder) of a by the nonzero b over F_q."""
    a, nb = list(a), len(b)
    quot = [0] * max(len(a) - nb + 1, 0)
    inv = pow(b[-1], -1, q)
    for i in range(len(a) - nb, -1, -1):
        c = quot[i] = a[i + nb - 1] * inv % q
        if c:
            for j, bj in enumerate(b):
                a[i + j] = (a[i + j] - c * bj) % q
    return _mod_q(quot, q), _mod_q(a[:nb - 1], q)


def _gcd_q(a, b, q):
    while b:
        a, b = b, _divmod_q(a, b, q)[1]
    return a


def _mulmod_q(a, b, f, q):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _divmod_q(_mod_q(out, q), f, q)[1]


def _powmod_q(a, e, f, q):
    out = [1]
    while e:
        if e & 1:
            out = _mulmod_q(out, a, f, q)
        e >>= 1
        if e:
            a = _mulmod_q(a, a, f, q)
    return out


def factor_degrees_mod(p, q):
    """Degrees of the irreducible factors of the monic p in Z[x] mod the
    prime q, by distinct-degree factorisation, or None if p mod q is not
    squarefree (q divides the discriminant)."""
    f = _mod_q(p, q)
    if len(_gcd_q(f, _mod_q(pderiv(p), q), q)) > 1:
        return None
    degrees, h, d = [], [0, 1], 0  # h = x^(q^d) mod f
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _powmod_q(h, q, f, q)
        # gcd(x^(q^d) - x, f) is the product of the factors of degree d
        hx = h + [0] * (2 - len(h))
        hx[1] -= 1
        g = _gcd_q(f, _mod_q(hx, q), q)
        if len(g) > 1:
            degrees += [d] * ((len(g) - 1) // d)
            f = _divmod_q(f, g, q)[0]
            h = _divmod_q(h, f, q)[1]
    if len(f) > 1:
        degrees.append(len(f) - 1)
    return degrees


@lru_cache(maxsize=None)
def cyclotomic(n):
    """n-th cyclotomic polynomial over Q, constant first."""
    if n < 1:
        raise ValueError("cyclotomic(n) needs n >= 1")
    p = tuple([Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)])  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            q, r = pdivmod(p, cyclotomic(d))
            assert not r
            p = q
    return p


@lru_cache(maxsize=None)
def real_cyclotomic(r):
    """Minimal polynomial of zeta_r + zeta_r^{-1} for r >= 3.

    Uses Phi_r(z) = z^d * Psi(z + 1/z) with d = phi(r)/2, peeled off
    leading coefficient by leading coefficient.
    """
    if r < 3:
        raise ValueError("real_cyclotomic(r) needs r >= 3")
    phi = cyclotomic(r)
    d = degree(phi) // 2
    rem = list(phi) + [Fraction(0)] * 4
    psi = [Fraction(0)] * (d + 1)
    zsq1 = (Fraction(1), Fraction(0), Fraction(1))  # 1 + z^2
    for k in range(d, -1, -1):
        c = rem[d + k]
        psi[k] = c
        term = pmul((Fraction(0),) * (d - k) + (c,), _pow(zsq1, k))
        for i, t in enumerate(term):
            rem[i] -= t
    assert all(x == 0 for x in rem)
    return trim(psi)


def _pow(p, k):
    out = (Fraction(1),)
    for _ in range(k):
        out = pmul(out, p)
    return out
