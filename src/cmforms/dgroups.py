"""Metacyclic groups G_{m,r} = <X, Y | X^m = 1, Y^n = X^t, YXY^{-1} = X^r>
with (m, r) = 1, r < m, s = gcd(r-1, m), t = m/s and n the multiplicative
order of r mod m.

Elements carry the normal form X^a Y^b, 0 <= a < m, 0 <= b < n.  These are
the noncyclic finite groups that can sit inside division algebras of odd
prime degree, and the verdict machinery reproduces the representation-
theoretic exclusion for second-type lattices.  `second_type_verdict`
answers with a `field.Verdict` whose `trace` records the argument; p is
proved prime by `residue._is_prime` (Miller-Rabin below 3.3e24, the n - 1
test within the factoring budget above), and refused unproved.  Verdicts
read the invariants (m, r, s, t, n) alone: the commutator subgroup is
<X^s>, of order t, so G is abelian iff t = 1.  Only `elements` builds the
group, by the product closure of `groups`.
"""

from collections import namedtuple
from functools import lru_cache, partial
from math import gcd

from .field import VerificationError, Verdict
from .groups import _closure
from .residue import _is_prime


class InvalidDGroupError(ValueError):
    pass


CYCLIC_POSSIBLE = "CyclicPossible"
EXCLUDED_BY_AMITSUR = "ExcludedByAmitsur"
EXCLUDED_BY_REDUCIBILITY = "ExcludedByReducibility"


DGroupParams = namedtuple("DGroupParams", "m r s t n")


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


def elements(params):
    """Closure of {X, Y} under multiply, sorted and capped at the group
    order; must agree with the normal forms."""
    return sorted(_closure(identity(), [(1 % params.m, 0), (0, 1 % params.n)],
                           partial(multiply, params), order(params))[0])


def is_cyclic(params):
    return params.n == 1


def irreducible_degrees(params):
    """Multiset of irreducible character degrees.

    Every irreducible comes by induction from the normal cyclic <X>: an
    orbit of size d of the multiply-by-r action on Z/m contributes n/d
    irreducibles of degree d.  d divides n since r^n = 1 mod m, and the
    orbits partition Z/m, so the squared degrees sum to n * m = |G|."""
    m, n = params.m, params.n
    seen = [False] * m
    degrees = []
    for a in range(m):
        if seen[a]:
            continue
        d, b = 0, a
        while not seen[b]:
            seen[b] = True
            d += 1
            b = (b * params.r) % m
        degrees.extend([d] * (n // d))
    degrees.sort()
    return degrees


def amitsur_filter(params, p):
    """Necessary condition for G_{m,r} to sit in a division algebra of odd
    prime degree p: n divides p."""
    check_odd_prime(p)
    return p % params.n == 0


@lru_cache(maxsize=64)
def check_odd_prime(p):
    """Refuse p unless `residue._is_prime` proves it an odd prime, naming
    the n - 1 test when p passed Miller-Rabin.  A proved p is cached, so a
    verdict and its sub-tests, or a sweep's rows, prove it once."""
    if not (proved := _is_prime(p)) or p == 2:
        raise ValueError("p must be an odd prime" + (
            " that the n - 1 test proves" if proved is None else ""))


def faithful_reducible_exists(params, p):
    """In the contested case n = p: can a faithful rep of G split into
    summands all of dimension < p?  Degrees divide p, so all summands are
    1-dimensional; their common kernel is the commutator subgroup <X^s>,
    of order t, so one exists iff G is abelian, that is iff t = 1."""
    check_odd_prime(p)
    if params.n != p:
        raise ValueError("oracle applies to the n = p case")
    return params.t == 1


EmbeddabilityVerdict = Verdict  # the former class name, kept public


def second_type_verdict(params, p, split=None):
    """Can G_{m,r} appear in a second-type lattice of U(p1, p2), p1+p2 = p?

    The verdict is independent of the positive split, mirroring the
    compact-subgroup argument."""
    check_odd_prime(p)
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
