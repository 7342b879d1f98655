"""Finite matrix groups over a CM field: closure from generators, the
group-average construction of invariant positive definite forms, the
regular representation of an abstract group, and the two embedding
pipelines producing admissible invariant forms.
"""

from . import linalg
from .field import weak_approx_find, POSITIVE, NEGATIVE, VerificationError
from .hermitian import (HermitianForm, diagonal_form, direct_sum,
                        is_admissible, twist_determinant, equivalent,
                        NOT_EQUIVALENT, signature_profile)


class ClosureCapExceeded(RuntimeError):
    """The product closure exceeded the cap; the group is likely infinite."""


class UnknownClassError(RuntimeError):
    """Could not certify a second admissible determinant class."""


def _mat_key(M):
    return tuple((x.a, x.b) for row in M for x in row)


def closure(generators, cap=10 ** 4):
    """Breadth-first product closure; exact matrix equality throughout."""
    gens = [linalg.mat(g) for g in generators]
    field = gens[0][0][0].field
    n = len(gens[0])
    ident = linalg.identity(n, field.one(), field.zero())
    elems = {_mat_key(ident): ident}
    frontier = [ident]
    while frontier:
        new = []
        for M in frontier:
            for g in gens:
                P = linalg.mat_mul(M, g)
                k = _mat_key(P)
                if k not in elems:
                    if len(elems) >= cap:
                        raise ClosureCapExceeded(
                            "closure exceeded cap %d" % cap)
                    elems[k] = P
                    new.append(P)
        frontier = new
    return list(elems.values())


class MatrixGroup:
    """A finite group of invertible matrices over E, closed by construction."""

    def __init__(self, cmfield, generators, cap=10 ** 4):
        if not generators:
            raise ValueError("need at least one generator (use the identity "
                             "for the trivial group)")
        self.field = cmfield
        self.generators = [linalg.mat(g) for g in generators]
        self.dim = len(self.generators[0])
        self.elements = closure(self.generators, cap)
        self.order = len(self.elements)

    @classmethod
    def from_elements(cls, cmfield, elements):
        """Wrap an already-closed element list (no closure recomputation)."""
        g = cls.__new__(cls)
        g.field = cmfield
        g.generators = [linalg.mat(m) for m in elements]
        g.elements = g.generators
        g.dim = len(g.elements[0])
        g.order = len(g.elements)
        return g

    def conj_transpose(self, M):
        return linalg.conj_transpose(M, lambda x: x.conjugate())


def average_form(group, seed=None):
    """The group-average of a positive definite seed: sum_g g^H S g.

    The output is invariant under every group element (verified) and
    positive definite at every real embedding."""
    field = group.field
    n = group.dim
    if seed is None:
        seed = diagonal_form(field, [1] * n)
    if seed.dim != n:
        raise ValueError("seed dimension mismatch")
    if any(sig != (n, 0) for sig in signature_profile(seed)):
        raise ValueError("seed must be positive definite at every embedding")
    acc = None
    for g in group.elements:
        term = linalg.mat_mul(group.conj_transpose(g),
                              linalg.mat_mul(seed.entries, g))
        acc = term if acc is None else linalg.mat_add(acc, term)
    H = HermitianForm(field, acc)
    if not invariant_under(H, group.elements, group.conj_transpose):
        raise VerificationError("averaged form is not invariant")
    if any(sig != (n, 0) for sig in signature_profile(H)):
        raise VerificationError("averaged form is not positive definite")
    return H


def invariant_under(H, matrices, conj):
    """Exact check g^H H g = H for every matrix g."""
    return all(linalg.mat_eq(
        linalg.mat_mul(conj(g), linalg.mat_mul(H.entries, g)), H.entries)
        for g in matrices)


def embed_first_type(entry, budget=20):
    """Realize a catalog group inside a first-type admissible pair.

    Picks a totally-positive-except-first element alpha by weak
    approximation, forms diag(1, 1, alpha), and verifies admissibility and
    exact invariance under the whole group."""
    field = entry.field
    pattern = (NEGATIVE,) + (POSITIVE,) * (field.s - 1)
    alpha_coords = weak_approx_find(field.base, pattern, budget)
    alpha = field.element(alpha_coords)
    H = diagonal_form(field, [field.one(), field.one(), alpha])
    if not is_admissible(H):
        raise VerificationError("diag(1, 1, alpha) is not admissible")
    group = MatrixGroup(field, entry.generators)
    if not invariant_under(H, group.elements, group.conj_transpose):
        raise VerificationError(
            "catalog group does not preserve the admissible form")
    return field, H, group


# --- abstract groups and the regular representation ----------------------

class NotAGroupError(ValueError):
    pass


def check_table(table):
    """Validate a multiplication table (list of rows of indices)."""
    n = len(table)
    for row in table:
        if len(row) != n or sorted(row) != list(range(n)):
            raise NotAGroupError("rows must be permutations of 0..n-1")
    cols = list(zip(*table))
    for col in cols:
        if sorted(col) != list(range(n)):
            raise NotAGroupError("columns must be permutations of 0..n-1")
    e = next((i for i in range(n)
              if all(table[i][j] == j and table[j][i] == j for j in range(n))),
             None)
    if e is None:
        raise NotAGroupError("no identity element")
    for i in range(n):
        if not any(table[i][j] == e for j in range(n)):
            raise NotAGroupError("element %d has no inverse" % i)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise NotAGroupError("associativity fails at (%d,%d,%d)"
                                         % (a, b, c))
    return e


class IntegralRep:
    """A faithful integer matrix representation of a finite group."""

    def __init__(self, table, matrices):
        self.table = [list(r) for r in table]
        self.matrices = [tuple(tuple(int(x) for x in row) for row in M)
                         for M in matrices]
        self.m = len(self.matrices[0]) if self.matrices else 0
        self.group_order = len(self.table)
        if len(self.matrices) != self.group_order:
            raise ValueError("need one matrix per group element")
        # homomorphism + faithfulness
        for a in range(self.group_order):
            for b in range(self.group_order):
                if _int_mat_mul(self.matrices[a], self.matrices[b]) \
                        != self.matrices[self.table[a][b]]:
                    raise ValueError("matrix map is not a homomorphism")
        if len(set(self.matrices)) != self.group_order:
            raise ValueError("matrix map is not faithful")


def _int_mat_mul(A, B):
    n = len(A)
    return tuple(tuple(sum(A[i][t] * B[t][j] for t in range(n))
                       for j in range(n)) for i in range(n))


def regular_rep(table):
    """Left regular representation by permutation matrices."""
    check_table(table)
    n = len(table)
    mats = []
    for g in range(n):
        M = [[0] * n for _ in range(n)]
        for h in range(n):
            M[table[g][h]][h] = 1
        mats.append(M)
    return IntegralRep(table, mats)


def _embed_int_matrix(M, field, n):
    """View an m x m integer matrix inside GL(n; E), padded by identity."""
    m = len(M)
    one, zero = field.one(), field.zero()
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i < m and j < m:
                row.append(field.from_rational(M[i][j]))
            else:
                row.append(one if i == j else zero)
        rows.append(row)
    return linalg.mat(rows)


DEFAULT_CLASS = "default"
OTHER_CLASS = "other"


def regular_embed(rep, cmfield, n, class_selector=DEFAULT_CLASS,
                  budget=20, norm_budget=10 ** 4):
    """Admissible invariant form containing rep's group, in dimension n.

    Builds the averaged positive definite block from the integral
    representation, pads with an identity block, and closes with a
    weak-approximation negative slot; class_selector = "other" lands in a
    different determinant class via the twisting construction."""
    if n < rep.m + 1:
        raise ValueError("need n >= m + 1 to fit the negative slot")
    field = cmfield
    embedded = [_embed_int_matrix(M, field, rep.m) for M in rep.matrices]
    group = MatrixGroup.from_elements(field, embedded)
    H_G = average_form(group)

    pad = n - 1 - rep.m
    positive_block = H_G if pad == 0 else direct_sum(
        H_G, diagonal_form(field, [1] * pad))

    if field.s == 1:
        alpha = field.from_rational(-1)
    else:
        pattern = (NEGATIVE,) + (POSITIVE,) * (field.s - 1)
        alpha = field.element(weak_approx_find(field.base, pattern, budget))
    H = direct_sum(positive_block, diagonal_form(field, [alpha]))
    if not is_admissible(H):
        raise VerificationError("embedded form is not admissible")

    if class_selector == OTHER_CLASS:
        H = _other_class(H, positive_block, field, norm_budget)

    rho = [_embed_int_matrix(M, field, n) for M in rep.matrices]
    conj = lambda g: linalg.conj_transpose(g, lambda x: x.conjugate())
    if not invariant_under(H, rho, conj):
        raise VerificationError("representation does not preserve the form")
    if len(set(_mat_key(g) for g in rho)) != rep.group_order:
        raise VerificationError("embedded representation is not faithful")
    return H, rho


def _other_class(H_default, positive_block, field, norm_budget):
    """Find a diagonal admissible form in a different determinant class and
    twist the positive block by its determinant."""
    n = H_default.dim
    candidates = [-1, -2, -3, -5, -6, -7, -10, -11, -13, -14, -15]
    for c in candidates:
        if field.s == 1:
            tail = field.from_rational(c)
        else:
            pattern = (NEGATIVE,) + (POSITIVE,) * (field.s - 1)
            tail = field.element(weak_approx_find(field.base, pattern)) \
                * field.from_rational(-c)
        H_prime = diagonal_form(field, [1] * (n - 1) + [tail])
        if not is_admissible(H_prime):
            continue
        verdict = equivalent(H_default, H_prime, norm_budget)
        if verdict == NOT_EQUIVALENT:
            twisted = twist_determinant(positive_block, H_prime)
            if equivalent(twisted, H_default, norm_budget) != NOT_EQUIVALENT:
                raise VerificationError(
                    "twisted form is not in a second determinant class")
            return twisted
    raise UnknownClassError(
        "no second admissible class certified with the implemented norm test")
