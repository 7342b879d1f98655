"""Reference computations that the tests check the library against.

Nothing under src/ calls them: each states directly a fact that the
library reaches another way, or no longer needs.
"""

from math import gcd

from cmforms import dgroups, polyn


def count_real_roots(p):
    """Distinct real roots of p: a Sturm count over (-B, B], B the Cauchy
    bound."""
    p = polyn.pmonic(polyn.trim(p))
    b = polyn.root_bound(p)
    return polyn.sturm_count(polyn.sturm_chain(p), -b, b)


def element_order(params, x):
    """Order via the quotient by <X>: project to Z/n, then land in <X>."""
    n, m = params.n, params.m
    b = x[1]
    nb = n // gcd(b, n) if b else 1
    p = dgroups.identity()
    for _ in range(nb):
        p = dgroups.multiply(params, p, x)
    assert p[1] == 0
    a = p[0]
    return nb * (m // gcd(a, m) if a else 1)


def max_element_order(params):
    return max(element_order(params, e) for e in dgroups.elements(params))
