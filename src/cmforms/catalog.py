"""Built-in catalog of finite subgroups of U(2) x U(1) with exact
cyclotomic generator matrices.

Entries are accepted by machine verification (`verify_entry`), not
provenance.  `build_catalog` is the only source of the entries;
`catalog()` builds them once per process and shares the result.
"""

import functools

from . import linalg
from .field import cyclotomic_field_containing
from .groups import MatrixGroup, invariant_under
from .hermitian import diagonal_form


class CatalogEntry:
    def __init__(self, name, cyclotomic_r, field, generators, expected_order):
        self.name = name
        self.cyclotomic_r = cyclotomic_r
        self.field = field
        self.generators = tuple(linalg.mat(g) for g in generators)
        self.expected_order = expected_order

    def __repr__(self):
        return "CatalogEntry(%s, order=%d)" % (self.name, self.expected_order)


def verify_entry(entry):
    """Closure of the expected order, every element unitary: fixes I_3.

    Unitarity is checked on the generators: a form fixed by each generator
    is fixed by every product of them, so by the whole group."""
    group = MatrixGroup(entry.field, entry.generators)
    if group.order != entry.expected_order:
        raise ValueError("%s: closure order %d != expected %d"
                         % (entry.name, group.order, entry.expected_order))
    if not invariant_under(diagonal_form(entry.field, [1, 1, 1]),
                           group.generators):
        raise ValueError("%s: non-unitary element" % entry.name)
    return group


def _block(field, u2, u1):
    """3x3 block diagonal: 2x2 unitary part plus a U(1) scalar."""
    zero = field.zero()
    return linalg.mat([
        [u2[0][0], u2[0][1], zero],
        [u2[1][0], u2[1][1], zero],
        [zero, zero, u1],
    ])


def _diag2(a, b):
    zero = a.field.zero()
    return ((a, zero), (zero, b))


def _u2_j(field):
    one, zero = field.one(), field.zero()
    return ((zero, one), (-one, zero))


def _2t_gens(field, i):
    """Generators i, j and omega = (-1 + i + j + k)/2 of the binary
    tetrahedral group 2T, for i a square root of -1 in field; i and j
    generate Q8."""
    one = field.one()
    omega = (((-1 + i) / 2, (1 + i) / 2), ((-1 + i) / 2, (-1 - i) / 2))
    return [_block(field, u2, one)
            for u2 in (_diag2(i, -i), _u2_j(field), omega)]


def build_catalog():
    """Construct all entries programmatically with exact cyclotomic data."""
    entries = []

    # cyclic groups C_k acting as diag(zeta_k, 1) x 1
    for k in [2, 3, 4, 5, 7, 8, 9, 12]:
        f, zk = cyclotomic_field_containing(4 if k == 2 else k)
        z = f.from_rational(-1) if k == 2 else zk
        entries.append(CatalogEntry(
            "C%d" % k, 4 if k == 2 else k, f,
            [_block(f, _diag2(z, f.one()), f.one())], k))

    # cyclic crossed with a U(1) scalar: diag(zeta_5, 1, zeta_5)
    f5, z5 = cyclotomic_field_containing(5)
    entries.append(CatalogEntry(
        "C5xU1_5", 5, f5, [_block(f5, _diag2(z5, f5.one()), z5)], 5))

    # a scalar center: zeta_3 * I_2 x zeta_3
    f3, z3 = cyclotomic_field_containing(3)
    entries.append(CatalogEntry(
        "center_zeta3", 3, f3, [_block(f3, _diag2(z3, z3), z3)], 3))

    # quaternion group Q8 over Q(i)
    f4, i = cyclotomic_field_containing(4)
    t_gens = _2t_gens(f4, i)
    entries.append(CatalogEntry("Q8", 4, f4, t_gens[:2], 8))
    entries.append(CatalogEntry(
        "Q8xU1_4", 4, f4,
        t_gens[:2] + [_block(f4, _diag2(f4.one(), f4.one()), i)], 32))

    # binary dihedral 2D_n of order 4n: <diag(z_{2n}, z_{2n}^{-1}), j>
    for n in [3, 4, 5, 6]:
        f, z2n = cyclotomic_field_containing(2 * n)
        entries.append(CatalogEntry(
            "2D%d" % n, 2 * n, f,
            [_block(f, _diag2(z2n, z2n.inverse()), f.one()),
             _block(f, _u2_j(f), f.one())], 4 * n))

    # binary tetrahedral 2T over Q(i)
    entries.append(CatalogEntry("2T", 4, f4, t_gens, 24))

    # binary octahedral 2O over Q(zeta_8): 2T plus diag(zeta_8, zeta_8^{-1})
    f8, z8 = cyclotomic_field_containing(8)
    o_gens = _2t_gens(f8, z8 ** 2) + [
        _block(f8, _diag2(z8, z8.inverse()), f8.one())]
    entries.append(CatalogEntry("2O", 8, f8, o_gens, 48))

    # binary icosahedral 2I over Q(zeta_5), Klein's generator pair:
    # diag(z^3, z^2) and (1/sqrt5) [[-(z - z^4), z^2 - z^3],
    #                               [  z^2 - z^3, z - z^4 ]]
    z = z5
    sqrt5 = 2 * (z + z ** 4) + 1
    inv5 = sqrt5.inverse()
    a, b = z - z ** 4, z ** 2 - z ** 3
    klein_t = ((-a * inv5, b * inv5), (b * inv5, a * inv5))
    i_gens = [_block(f5, _diag2(z ** 3, z ** 2), f5.one()),
              _block(f5, klein_t, f5.one())]
    entries.append(CatalogEntry("2I", 5, f5, i_gens, 120))

    return entries


@functools.cache
def catalog():
    """All built-in entries as a tuple, built once per process.

    Every call returns the same entries; callers must not modify them."""
    return tuple(build_catalog())


def catalog_entry(name):
    for e in catalog():
        if e.name == name:
            return e
    raise KeyError("no catalog entry named %r" % name)
