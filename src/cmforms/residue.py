"""Norm-residue decisions for CM quadratic extensions.

Over F = Q the question "is d a norm from E = Q(sqrt(delta))?" is decided
completely by Hilbert symbols at 2, infinity and the primes meeting d or
delta.  Over larger totally real F we fall back on a bounded witness
search and the archimedean obstruction, reporting Unknown otherwise.
"""

from fractions import Fraction
from math import isqrt

from .field import FieldElement, NEGATIVE, _maxnorm_vectors


IS_NORM = "IsNorm"
IS_NOT_NORM = "IsNotNorm"
UNKNOWN = "Unknown"


class NormResidueVerdict:
    def __init__(self, status, witness=None, obstruction=None):
        self.status = status
        self.witness = witness          # element of E when decided IsNorm
        self.obstruction = obstruction  # descriptor when decided IsNotNorm

    def __repr__(self):
        return "NormResidueVerdict(%s)" % self.status

    def __eq__(self, other):
        if isinstance(other, str):
            return self.status == other
        return isinstance(other, NormResidueVerdict) and self.status == other.status


def _factor_support(*fracs):
    import sympy
    primes = set()
    for q in fracs:
        for n in (q.numerator, q.denominator):
            primes.update(sympy.factorint(abs(n)).keys())
    primes.discard(1)
    return sorted(primes)


def _val(q, p):
    """p-adic valuation of a nonzero Fraction."""
    v = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def _unit_part(q, p):
    return q / Fraction(p) ** _val(q, p)


def _legendre(a, p):
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def hilbert_symbol(a, b, p):
    """Hilbert symbol (a, b)_p for nonzero rationals; p = 0 means infinity."""
    a, b = Fraction(a), Fraction(b)
    assert a != 0 and b != 0
    if p == 0:
        return -1 if (a < 0 and b < 0) else 1
    if p == 2:
        alpha, beta = _val(a, 2), _val(b, 2)
        u = _unit_part(a, 2)
        v = _unit_part(b, 2)
        # reduce units mod 8 via integer representatives
        uu = (u.numerator * pow(u.denominator, -1, 8)) % 8
        vv = (v.numerator * pow(v.denominator, -1, 8)) % 8
        eps_u = (uu - 1) // 2 % 2
        eps_v = (vv - 1) // 2 % 2
        omega_u = (uu * uu - 1) // 8 % 2
        omega_v = (vv * vv - 1) // 8 % 2
        e = eps_u * eps_v + alpha * omega_v + beta * omega_u
        return -1 if e % 2 else 1
    alpha, beta = _val(a, p), _val(b, p)
    u = _unit_part(a, p)
    v = _unit_part(b, p)
    uu = (u.numerator * pow(u.denominator, -1, p)) % p
    vv = (v.numerator * pow(v.denominator, -1, p)) % p
    s = 1
    if alpha % 2 and beta % 2:
        s *= _legendre(-1, p) * _legendre(uu, p) * _legendre(vv, p)
    elif alpha % 2:
        s *= _legendre(vv, p)
    elif beta % 2:
        s *= _legendre(uu, p)
    return s


def rational_is_norm(d, delta):
    """Is d in N(Q(sqrt(delta))^x)?  Complete local-global decision.

    d is a norm iff the form x^2 - delta*y^2 represents d over Q, iff the
    Hilbert symbol (delta, d)_v is trivial at every place v; checking the
    support of d and delta plus {2, infinity} suffices.
    """
    d, delta = Fraction(d), Fraction(delta)
    assert d != 0
    for p in [0, 2] + _factor_support(d, delta):
        if hilbert_symbol(delta, d, p) != 1:
            return False, p
    return True, None


def _is_rational_square(q):
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def rational_norm_witness(d, cmfield, budget=10 ** 4):
    """Bounded search for x in E with N(x) = d * (rational square)."""
    count = 0
    bound = 1
    while count < budget:
        for p, q in _maxnorm_vectors(2, bound):
            if q < 0:
                continue
            count += 1
            x = cmfield.element([Fraction(p)], [Fraction(q)])
            n = x.relative_norm()
            if not n.is_rational():
                continue
            ratio = n.as_fraction() / d
            r = _is_rational_square(ratio)
            if r:
                return x / r
            if count >= budget:
                return None
        bound += 1
    return None


def is_norm(d, cmfield, budget=10 ** 4):
    """Three-valued norm-residue test for d in F over the CM field E/F."""
    if isinstance(d, FieldElement):
        if not d.is_in_F():
            raise ValueError("is_norm expects an element of F")
    else:
        d = cmfield.from_rational(d)
    if d.is_zero():
        raise ValueError("d must be nonzero")

    # archimedean obstruction: relative norms are totally positive
    for ell in range(cmfield.s):
        if d.sign_at(ell) == NEGATIVE:
            return NormResidueVerdict(IS_NOT_NORM,
                                      obstruction=("real place", ell))

    if cmfield.s == 1:
        dq = Fraction(d.a[0])
        # delta as a rational (degree-one base)
        base_root = -cmfield.base.min_poly[0]
        from .polyn import peval
        deltaq = peval(cmfield.delta, base_root)
        ok, bad_p = rational_is_norm(dq, deltaq)
        if not ok:
            return NormResidueVerdict(IS_NOT_NORM, obstruction=("prime", bad_p))
        witness = rational_norm_witness(dq, cmfield, budget)
        return NormResidueVerdict(IS_NORM, witness=witness)

    # general F: bounded witness search only
    witness = _general_witness_search(d, cmfield, budget)
    if witness is not None:
        return NormResidueVerdict(IS_NORM, witness=witness)
    return NormResidueVerdict(UNKNOWN)


def _general_witness_search(d, cmfield, budget):
    s = cmfield.s
    dinv = d.inverse()
    count = 0
    bound = 1
    while count < budget and bound <= 6:
        for coords in _maxnorm_vectors(2 * s, bound):
            count += 1
            x = cmfield.element(coords[:s], coords[s:])
            ratio = x.relative_norm() * dinv
            if ratio.is_rational():
                r = _is_rational_square(ratio.as_fraction())
                if r:
                    return x / r
            if count >= budget:
                break
        bound += 1
    return None
