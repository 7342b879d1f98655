"""Oracles that do not use cmforms' own arithmetic.

Everything here is written against the wire format and the mathematics,
never against cmforms internals, so that a defect in the package's field,
linear-algebra or signature code cannot also hide in the check:

- `Cyclo`: exact arithmetic in Q(zeta_r) on the power basis of zeta, with
  conversion into cmforms' coordinates a + b*sqrt(delta) over
  F = Q(zeta + zeta^-1).  Workload inputs such as T^H H T are built here.
- `EArith`: exact arithmetic on serialized elements of E = F(sqrt(delta))
  (the CLI's JSON payloads), for exact invariance checks g^H H g = H.
- `numeric_signatures`: signature of a hermitian matrix at every real
  embedding of F, from eigenvalues at 50 significant digits (mpmath).
- `gauss_det`, `sum_of_two_squares`: exact determinants over Q(i) and the
  norm test for Q(i)/Q.
"""

from fractions import Fraction
from math import gcd

import mpmath


# --- rational polynomials, constant coefficient first ------------------------

def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _pmul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _pmod_monic(p, f):
    """Remainder of p modulo the monic polynomial f."""
    p = _trim(p)
    n = len(f) - 1
    while len(p) > n:
        c = p[-1]
        shift = len(p) - 1 - n
        for i in range(n):
            p[shift + i] -= c * f[i]
        p.pop()
        p = _trim(p)
    return p


def _pad(p, n):
    p = list(p)
    return tuple(p + [Fraction(0)] * (n - len(p)))


def _cyclotomic(r):
    """Phi_r with integer coefficients, by dividing x^r - 1 by Phi_d, d | r."""
    p = [-1] + [0] * (r - 1) + [1]
    for d in range(1, r):
        if r % d == 0:
            q = _cyclotomic(d)
            # exact division by the monic q
            quot = [0] * (len(p) - len(q) + 1)
            rem = list(p)
            for k in range(len(quot) - 1, -1, -1):
                c = rem[k + len(q) - 1]
                quot[k] = c
                for i, qc in enumerate(q):
                    rem[k + i] -= c * qc
            assert not any(rem)
            p = quot
    return p


def _solve(M, rhs):
    """Gauss-Jordan over Fractions; M is square and invertible."""
    n = len(M)
    A = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(M, rhs)]
    for c in range(n):
        piv = next(r for r in range(c, n) if A[r][c] != 0)
        A[c], A[piv] = A[piv], A[c]
        inv = 1 / A[c][c]
        A[c] = [x * inv for x in A[c]]
        for r in range(n):
            if r != c and A[r][c] != 0:
                f = A[r][c]
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return [A[r][n] for r in range(n)]


class Cyclo:
    """Q(zeta_r): elements are tuples of Fractions on 1, zeta, ..., zeta^(n-1)."""

    def __init__(self, r):
        self.r = r
        self.phi = [Fraction(c) for c in _cyclotomic(r)]
        self.n = len(self.phi) - 1
        self.s = self.n // 2
        w = self.add(self.zeta_pow(1), self.zeta_pow(-1))
        sd = self.sub(self.zeta_pow(1), self.zeta_pow(-1))
        basis, wp = [], self.one()
        for _ in range(self.s):
            basis.append(wp)
            wp = self.mul(wp, w)
        basis += [self.mul(b, sd) for b in basis]
        # columns of the change of basis to (w^j, w^j * sqrt(delta))
        self._cols = [[basis[j][i] for j in range(self.n)]
                      for i in range(self.n)]

    def elt(self, coeffs):
        return _pad(_pmod_monic([Fraction(c) for c in coeffs], self.phi),
                    self.n)

    def one(self):
        return self.elt([1])

    def zeta_pow(self, k):
        k %= self.r
        return self.elt([0] * k + [1])

    def add(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple(a - b for a, b in zip(x, y))

    def mul(self, x, y):
        return _pad(_pmod_monic(_pmul(x, y), self.phi), self.n)

    def conj(self, x):
        acc = [Fraction(0)] * self.r
        for k, c in enumerate(x):
            acc[(-k) % self.r] += c
        return self.elt(acc)

    def to_coords(self, x):
        """(a, b) with x = a(w) + b(w) sqrt(delta), the cmforms layout."""
        c = _solve(self._cols, x)
        return c[:self.s], c[self.s:]

    # matrices are tuples of row tuples
    def mat_mul(self, A, B):
        n, m, k = len(A), len(B[0]), len(B)
        zero = self.elt([])
        out = []
        for i in range(n):
            row = []
            for j in range(m):
                acc = zero
                for t in range(k):
                    acc = self.add(acc, self.mul(A[i][t], B[t][j]))
                row.append(acc)
            out.append(tuple(row))
        return tuple(out)

    def conj_transpose(self, A):
        return tuple(tuple(self.conj(A[i][j]) for i in range(len(A)))
                     for j in range(len(A[0])))

    def det(self, A):
        """Laplace expansion; the matrices here are at most 3x3."""
        if len(A) == 1:
            return A[0][0]
        acc = self.elt([])
        for j in range(len(A)):
            minor = tuple(row[:j] + row[j + 1:] for row in A[1:])
            term = self.mul(A[0][j], self.det(minor))
            acc = self.add(acc, term) if j % 2 == 0 else self.sub(acc, term)
        return acc


# --- exact arithmetic on serialized elements of E ------------------------------

class EArith:
    """E = Q[x]/(min_poly) (sqrt(delta)) from a serialized field."""

    def __init__(self, field_json):
        self.f = [Fraction(c) for c in field_json["min_poly"]]
        self.s = len(self.f) - 1
        self.delta = [Fraction(c) for c in field_json["delta"]]

    def parse(self, arr):
        c = [Fraction(v) for v in arr]
        return _pad(c[:self.s], self.s), _pad(c[self.s:], self.s)

    def _fmul(self, u, v):
        return _pad(_pmod_monic(_pmul(u, v), self.f), self.s)

    def mul(self, x, y):
        (a1, b1), (a2, b2) = x, y
        a = self._fmul(a1, a2)
        d = self._fmul(self.delta, self._fmul(b1, b2))
        b = [p + q for p, q in zip(self._fmul(a1, b2), self._fmul(a2, b1))]
        return tuple(p + q for p, q in zip(a, d)), tuple(b)

    def add(self, x, y):
        return (tuple(p + q for p, q in zip(x[0], y[0])),
                tuple(p + q for p, q in zip(x[1], y[1])))

    def conj(self, x):
        return x[0], tuple(-c for c in x[1])

    def matrix(self, rows):
        return [[self.parse(x) for x in row] for row in rows]

    def mat_mul(self, A, B):
        zero = (_pad([], self.s), _pad([], self.s))
        out = []
        for i in range(len(A)):
            row = []
            for j in range(len(B[0])):
                acc = zero
                for t in range(len(B)):
                    acc = self.add(acc, self.mul(A[i][t], B[t][j]))
                row.append(acc)
            out.append(row)
        return out

    def conj_transpose(self, A):
        return [[self.conj(A[i][j]) for i in range(len(A))]
                for j in range(len(A[0]))]

    def invariant(self, H, g):
        """Exact test of g^H H g == H."""
        return self.mat_mul(self.conj_transpose(g),
                            self.mat_mul(H, g)) == H


# --- numeric signatures ------------------------------------------------------

_DPS = 50


def numeric_signatures(field_json, rows):
    """(e_plus, e_minus) of a serialized hermitian matrix at each real
    embedding of F, embeddings ordered by ascending root.  Raises if an
    eigenvalue is too close to zero to be signed at this precision."""
    E = EArith(field_json)
    H = E.matrix(rows)
    n = len(H)
    with mpmath.workdps(_DPS):
        coeffs = [mpmath.mpf(c.numerator) / c.denominator
                  for c in reversed(E.f)]
        if E.s == 1:
            roots = [-coeffs[1] / coeffs[0]]
        else:
            roots = sorted(mpmath.re(z) for z in
                           mpmath.polyroots(coeffs, maxsteps=200,
                                            extraprec=200))
        out = []
        for theta in roots:
            def at(v):
                return mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator
                                   * theta ** j for j, c in enumerate(v))
            sd = mpmath.mpc(0, mpmath.sqrt(-at(E.delta)))
            M = mpmath.matrix(n, n)
            for i in range(n):
                for j in range(n):
                    a, b = H[i][j]
                    M[i, j] = at(a) + at(b) * sd
            eig = mpmath.eighe(M, eigvals_only=True)
            if min(abs(e) for e in eig) < mpmath.mpf(10) ** (-_DPS // 2):
                raise ArithmeticError("eigenvalue too close to zero to sign")
            pos = sum(1 for e in eig if e > 0)
            out.append((pos, n - pos))
    return out


def is_admissible_signature(sigs, n):
    """Signature n-2 at the first embedding, definite at the others."""
    p, m = sigs[0]
    return abs(p - m) == n - 2 and all(abs(p - m) == n for p, m in sigs[1:])


# --- Q(i) ----------------------------------------------------------------------

def gauss_det(rows):
    """Exact determinant of a serialized hermitian matrix over
    Q(i) = Q(sqrt(-4)), whose elements are [a, b] meaning a + 2b*i; the
    determinant is rational."""
    M = [[(Fraction(x[0]), 2 * Fraction(x[1])) for x in row] for row in rows]
    n = len(M)
    det = (Fraction(1), Fraction(0))

    def mul(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c] != (0, 0)), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = (-det[0], -det[1])
        p = M[c][c]
        det = mul(det, p)
        norm = p[0] * p[0] + p[1] * p[1]
        pinv = (p[0] / norm, -p[1] / norm)
        for r in range(c + 1, n):
            f = mul(M[r][c], pinv)
            M[r] = [(a[0] - g[0], a[1] - g[1])
                    for a, g in zip(M[r], (mul(f, y) for y in M[c]))]
    if det[1] != 0:
        raise ArithmeticError("determinant of a hermitian matrix is real")
    return det[0]


# --- Q(i) norms ----------------------------------------------------------------

def sum_of_two_squares(q):
    """Is the rational q > 0 a sum of two rational squares?"""
    q = Fraction(q)
    if q <= 0:
        return False
    for v in (q.numerator, q.denominator):
        p = 2
        while p * p <= v:
            e = 0
            while v % p == 0:
                v //= p
                e += 1
            if p % 4 == 3 and e % 2:
                return False
            p += 1
        if v > 1 and v % 4 == 3:
            return False
    return True


def multiplicative_order(r, m):
    """Order of r in (Z/m)^x; 1 for m = 1."""
    if m == 1:
        return 1
    assert gcd(r, m) == 1
    n, x = 1, r % m
    while x != 1:
        x = (x * r) % m
        n += 1
    return n
