"""Metacyclic groups G_{m,r} = <X, Y | X^m = 1, Y^n = X^t, YXY^{-1} = X^r>
with (m, r) = 1, r < m, s = gcd(r-1, m), t = m/s and n the multiplicative
order of r mod m.

Elements carry the normal form X^a Y^b, 0 <= a < m, 0 <= b < n.  These are
the noncyclic finite groups that can sit inside division algebras of odd
prime degree, and the verdict machinery reproduces the representation-
theoretic exclusion for second-type lattices.  `second_type_verdict`
answers with a `field.Verdict` whose `trace` records the argument; p is
proved prime by the deterministic Miller-Rabin test of `residue._is_prime`
(p < 3.3e24), and subgroups come from the product closure of `groups`.
"""

from dataclasses import dataclass
from functools import partial
from math import gcd

from .field import VerificationError, Verdict
from .groups import _closure
from .residue import _MR_BASES, _MR_BOUND, _is_prime


class InvalidDGroupError(ValueError):
    pass


CYCLIC_POSSIBLE = "CyclicPossible"
EXCLUDED_BY_AMITSUR = "ExcludedByAmitsur"
EXCLUDED_BY_REDUCIBILITY = "ExcludedByReducibility"


@dataclass(frozen=True)
class DGroupParams:
    m: int
    r: int
    s: int
    t: int
    n: int


def _mult_order(r, m):
    o, x = 1, r % m
    while x != 1:
        x = (x * r) % m
        o += 1
        if o > m:
            raise InvalidDGroupError("r has no finite order mod m")
    return o


def validate(m, r):
    if m < 1 or r < 1:
        raise InvalidDGroupError("need m >= 1 and r >= 1")
    if m > 1 and r >= m:
        raise InvalidDGroupError("need r < m")
    if gcd(m, r) != 1:
        raise InvalidDGroupError("need gcd(m, r) = 1")
    if m == 1:
        return DGroupParams(1, 1, 1, 1, 1)
    s = gcd(r - 1, m)
    return DGroupParams(m, r, s, m // s, _mult_order(r, m))


def order(params):
    return params.m * params.n


def multiply(params, x, y):
    """(a, b) * (a', b') with Y X = X^r Y and Y^n = X^t (X^t is central)."""
    a, b = x
    a2, b2 = y
    m, n, t, r = params.m, params.n, params.t, params.r
    a_out = (a + a2 * pow(r, b, m)) % m
    b_out = b + b2
    if b_out >= n:
        b_out -= n
        a_out = (a_out + t) % m
    return (a_out, b_out)


def identity():
    return (0, 0)


def _generated(params, gens):
    """The subgroup generated by gens, sorted, by a product closure capped
    at the group order."""
    return sorted(_closure(identity(), gens, partial(multiply, params),
                           order(params)))


def elements(params):
    """Closure of {X, Y} under multiply; must agree with the normal forms."""
    return _generated(params, [(1 % params.m, 0), (0, 1 % params.n)])


def element_order(params, x):
    """Order via the quotient by <X>: project to Z/n, then land in <X>."""
    n, m = params.n, params.m
    b = x[1]
    nb = n // gcd(b, n) if b else 1
    p = identity()
    for _ in range(nb):
        p = multiply(params, p, x)
    assert p[1] == 0
    a = p[0]
    return nb * (m // gcd(a, m) if a else 1)


def max_element_order(params):
    return max(element_order(params, e) for e in elements(params))


def is_cyclic(params):
    return params.n == 1


def commutator_subgroup(params):
    """Closure of all commutators; for G_{m,r} this is <X^s> of order t."""
    elems = elements(params)
    inv = {}
    for g in elems:
        # g^-1 = g^(k-1) for g of order k
        inv[g], p = identity(), g
        while p != identity():
            inv[g], p = p, multiply(params, p, g)
    comms = {multiply(params, multiply(params, g, h),
                      multiply(params, inv[g], inv[h]))
             for g in elems for h in elems}
    return _generated(params, sorted(comms))


def irreducible_degrees(params):
    """Multiset of irreducible character degrees.

    Every irreducible comes by induction from the normal cyclic <X>: an
    orbit of size d of the multiply-by-r action on Z/m contributes n/d
    irreducibles of degree d."""
    m, n = params.m, params.n
    seen = [False] * m
    degrees = []
    for a in range(m):
        if seen[a]:
            continue
        orbit = []
        b = a
        while not seen[b]:
            seen[b] = True
            orbit.append(b)
            b = (b * params.r) % m
        d = len(orbit)
        if n % d != 0:
            raise RuntimeError("orbit size does not divide n")
        degrees.extend([d] * (n // d))
    degrees.sort()
    if sum(d * d for d in degrees) != m * n:
        raise VerificationError("the squared degrees do not sum to |G|")
    return degrees


def amitsur_filter(params, p):
    """Necessary condition for G_{m,r} to sit in a division algebra of odd
    prime degree p: n divides p."""
    _check_odd_prime(p)
    return p % params.n == 0


def _check_odd_prime(p):
    """Refuse p unless `residue._is_prime` proves it an odd prime."""
    if p in _MR_BASES[1:]:
        return
    if p >= _MR_BOUND and p % 2:
        raise ValueError("p must be below %d to be proved prime" % _MR_BOUND)
    if p == 2 or not _is_prime(p):
        raise ValueError("p must be an odd prime")


def faithful_reducible_exists(params, p):
    """In the contested case n = p: can a faithful rep of G split into
    summands all of dimension < p?  Degrees divide p, so all summands are
    1-dimensional; their common kernel is the commutator subgroup, which is
    trivial iff G is abelian."""
    _check_odd_prime(p)
    if params.n != p:
        raise ValueError("oracle applies to the n = p case")
    return len(commutator_subgroup(params)) == 1


EmbeddabilityVerdict = Verdict  # the former class name, kept public


def second_type_verdict(params, p, split=None):
    """Can G_{m,r} appear in a second-type lattice of U(p1, p2), p1+p2 = p?

    The verdict is independent of the positive split, mirroring the
    compact-subgroup argument."""
    _check_odd_prime(p)
    if split is not None:
        p1, p2 = split
        if p1 <= 0 or p2 <= 0 or p1 + p2 != p:
            raise ValueError("split must be positive with p1 + p2 = p")
    trace = ["params m=%d r=%d n=%d" % (params.m, params.r, params.n)]
    if not amitsur_filter(params, p):
        trace.append("n does not divide p: excluded by the division-algebra "
                     "subgroup classification")
        return Verdict(EXCLUDED_BY_AMITSUR, trace=trace)
    if params.n == 1:
        trace.append("n = 1: group is cyclic of order m")
        return Verdict(CYCLIC_POSSIBLE, trace=trace)
    assert params.n == p
    if faithful_reducible_exists(params, p):
        raise VerificationError("a faithful reducible rep exists")
    trace.append("n = p: any rep inside U(p1) x U(p2) splits into degree-1 "
                 "summands, but the group is nonabelian, so no faithful "
                 "reducible rep exists")
    return Verdict(EXCLUDED_BY_REDUCIBILITY, trace=trace)


def enumerate_params(max_m):
    """All valid (m, r) with 1 <= m <= max_m."""
    # m = 1 has the one parameter r = 1, every larger m each r < m
    return [validate(m, r) for m in range(1, max_m + 1)
            for r in range(1, max(m, 2)) if gcd(m, r) == 1]
