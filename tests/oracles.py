"""Reference computations that the tests check the library against.

Nothing under src/ calls them: each states directly a fact that the
library reaches another way, or no longer needs.
"""

from math import gcd

from cmforms import ClosureCapExceeded, dgroups, polyn
from cmforms.calgebra import _LABELS


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


def bfs_closure(identity, gens, mul, cap):
    """Breadth-first product closure: every product of gens reached from
    identity, in the order found; raises ClosureCapExceeded on reaching
    more than cap elements.  Each element is multiplied by every
    generator, |G| * |S| products in all."""
    elems = {identity: None}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                p = mul(x, g)
                if p not in elems:
                    if len(elems) >= cap:
                        raise ClosureCapExceeded(
                            "closure exceeded cap %d" % cap)
                    elems[p] = None
                    new.append(p)
        frontier = new
    return list(elems)


def table_generators(table):
    """Each element, in table order, that the closure of those before it
    misses (the identity alone for the trivial group), each closure made
    anew by `bfs_closure`."""
    e = table[0].index(0)
    gens, reached = [], {e}
    for g in range(len(table)):
        if g not in reached:
            gens.append(g)
            reached = set(bfs_closure(e, gens, lambda a, b: table[a][b],
                                      len(table)))
    return gens or [e]


def schoolbook_lmul(x, y):
    """x * y in L = E[y]/(g) without L's structure table: the convolution
    of the E-coordinates, then y^4 and y^3 folded away by long division
    by the monic cubic g."""
    ext = x.parent
    prod = [ext.E.zero()] * 5
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            prod[i + j] = prod[i + j] + a * b
    for k in (4, 3):  # y^k = -y^(k-3) (g0 + g1 y + g2 y^2)
        c, prod[k] = prod[k], ext.E.zero()
        for t in range(3):
            prod[k - 3 + t] = prod[k - 3 + t] - c * ext.g[t]
    return ext.element(prod[:3])


def combine_images(x, image_of_y, conjugate=False):
    """sum c_i * image_of_y^i over the E-coordinates c_i of x, with theta
    applied to each c_i if `conjugate`, every product through
    `schoolbook_lmul`: tau(x) for image_of_y = tau(y), and the conjugation
    c(x) for image_of_y = c(y) and conjugate=True."""
    ext = x.parent
    out, power = ext.zero(), ext.one()
    for c in x.coeffs:
        c = c.conjugate() if conjugate else c
        out = out + schoolbook_lmul(ext.from_E(c), power)
        power = schoolbook_lmul(power, image_of_y)
    return out


def star_by_images(involution, x):
    """x* for an element x of A, from the nine basis images alone: the sum
    of theta(lambda) * images[(i, j)] over the E-coordinates lambda of
    y^i X^j in x, each part of an image multiplied by theta(lambda)
    through `schoolbook_lmul`."""
    algebra = involution.algebra
    ext = algebra.ext
    acc = algebra.zero()
    for i, j in _LABELS:
        lam = x.parts[j].coeffs[i]
        if not lam.is_zero():
            c = ext.from_E(lam.conjugate())
            acc = acc + algebra.element(*[
                schoolbook_lmul(p, c) for p in involution.images[(i, j)].parts])
    return acc
