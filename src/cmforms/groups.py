"""Finite matrix groups over a CM field and their admissible invariant forms.

One product closure, `_closure` (Dimino's: the identity first, then the
closure grown coset by coset), backs `closure`, `MatrixGroup` (every one
the closure of its generators, on which its facts are checked),
`_generators`, the generating set `regular_embed` closes, and the
metacyclic groups of `dgroups`.  Both embedding pipelines close a
positive block by `hermitian.with_slot`, and choose only the slot: the
negative alpha of `_with_negative_slot`, or c*alpha/det(block) in
`_other_class`.
`embed_first_type` forms diag(1, 1, alpha) for a catalog group,
`regular_embed` the group-averaged block of a regular representation plus
alpha, in the default determinant class or, by `_other_class`, in a
second one.  Running out of a closure cap or of the norm budget for a
second class raises a `field.BudgetExceeded`.
"""

from . import linalg
from .field import (BudgetExceeded, FieldElement, FieldError, NEGATIVE,
                    POSITIVE, VerificationError, weak_approx_find)
from .hermitian import (HermitianForm, NOT_EQUIVALENT, diagonal_form,
                        direct_sum, equivalent, signature_profile, with_slot)


class ClosureCapExceeded(BudgetExceeded):
    """The product closure exceeded the cap; the group is likely infinite."""


class UnknownClassError(BudgetExceeded):
    """Could not certify a second admissible determinant class."""


def _closure(identity, gens, mul, cap):
    """Dimino's closure: every product of gens, identity first.

    Generators are taken in turn, and one already in the closure H of
    those before it is skipped.  A new one s grows H by right cosets:
    each representative t (s first, then each r*g for a representative
    r and a used generator g that is not yet known) adds the products
    h*t for h in H.  The union holds the identity and is closed under
    right multiplication by every used generator, so it is the closure,
    of a monoid too.  Elements are told apart by their own == and hash
    and listed coset by coset; a product already known (cosets of a
    monoid can meet) is not added again.  Returns the elements and the
    generators used; raises ClosureCapExceeded on reaching more than
    cap elements."""
    elems = {identity: None}
    used = []

    def add(p):
        if p not in elems:
            if len(elems) >= cap:
                raise ClosureCapExceeded("closure exceeded cap %d" % cap)
            elems[p] = None

    for s in gens:
        if s in elems:
            continue
        H = list(elems)[1:]  # h * t for h = identity is t itself
        used.append(s)
        reps = []

        def coset(t):
            add(t)
            for h in H:
                add(mul(h, t))
            reps.append(t)
        coset(s)
        for r in reps:  # grows while it is read
            for g in used:
                t = mul(r, g)
                if t not in elems:
                    coset(t)
    return list(elems), used


def closure(generators, cap=10 ** 4):
    """Product closure of matrices, the identity first; exact matrix
    equality throughout.  The generators must be square matrices of one
    size over a CM field: any other entry is refused with a FieldError
    naming it."""
    gens = [linalg.mat(g) for g in generators]
    if not gens:
        raise ValueError("need at least one generator (use the identity "
                         "for the trivial group)")
    n = len(gens[0])
    for k, g in enumerate(gens):
        if not n or len(g) != n or any(len(row) != n for row in g):
            raise ValueError(
                "generator %d is %s; generators must be nonempty square "
                "matrices of one size (generator 0 has %d rows)"
                % (k, linalg.shape(g), n))
        for x in (x for row in g for x in row):
            if not isinstance(x, FieldElement):
                raise FieldError("generator %d has the entry %r; entries "
                                 "must be elements of a CM field" % (k, x))
    field = gens[0][0][0].field
    ident = linalg.identity(n, field.one(), field.zero())
    return _closure(ident, gens, linalg.mat_mul, cap)[0]


class MatrixGroup:
    """A finite group of invertible matrices over E, closed by construction.
    An entry outside E is refused with a ValueError naming it."""

    def __init__(self, cmfield, generators, cap=10 ** 4):
        self.field = cmfield
        self.generators = [linalg.mat(map(cmfield.coerce, r) for r in g)
                           for g in generators]
        self.elements = closure(self.generators, cap)
        self.dim = len(self.generators[0])
        self.order = len(self.elements)


def average_form(group):
    """The group average sum_g g^H g of the identity form.

    The output is positive definite at every real embedding and invariant
    under every group element.  Invariance is verified on
    `group.generators`: a form invariant under the generators is invariant
    under every product of them, hence under the group they generate."""
    acc = None
    for g in group.elements:
        term = linalg.mat_mul(linalg.conj_transpose(g), g)
        acc = term if acc is None else linalg.mat_add(acc, term)
    H = HermitianForm(group.field, acc)
    if not invariant_under(H, group.generators):
        raise VerificationError("averaged form is not invariant")
    if any(sig != (group.dim, 0) for sig in signature_profile(H)):
        raise VerificationError("averaged form is not positive definite")
    return H


def invariant_under(H, matrices):
    """Exact check g^H H g = H for every matrix g.  Raises ValueError on
    a g that is not square of H's size."""
    for g in matrices:
        if len(g) != H.dim or any(len(row) != H.dim for row in g):
            raise ValueError("matrix is %s, the form is %s"
                             % (linalg.shape(g), linalg.shape(H.entries)))
        if not linalg.mat_eq(linalg.mat_mul(
                linalg.conj_transpose(g), linalg.mat_mul(H.entries, g)),
                H.entries):
            return False
    return True


def _with_negative_slot(block):
    """(block + (alpha), alpha) by `with_slot`: alpha in F built by
    `weak_approx_find`, negative at the distinguished embedding and
    positive at the others."""
    field = block.field
    pattern = (NEGATIVE,) + (POSITIVE,) * (field.s - 1)
    alpha = field.element(weak_approx_find(field.base, pattern))
    return with_slot(block, alpha), alpha


def embed_first_type(entry):
    """Realize a catalog group inside a first-type admissible pair.

    Forms diag(1, 1, alpha) with the negative slot alpha, built with no
    search, and verifies exact invariance under the whole group: under
    its generators, which implies invariance under every product of them.
    The closure is still built, for the group's order."""
    field = entry.field
    H, _ = _with_negative_slot(diagonal_form(field, [1, 1]))
    group = MatrixGroup(field, entry.generators)
    if not invariant_under(H, group.generators):
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
        # a bool or float equals an index but is not one
        if (len(row) != n or sorted(row) != list(range(n))
                or any(type(v) is not int for v in row)):
            raise NotAGroupError("rows must be permutations of 0..n-1")
    for col in zip(*table):
        if sorted(col) != list(range(n)):
            raise NotAGroupError("columns must be permutations of 0..n-1")
    e = next((i for i in range(n)
              if all(table[i][j] == j and table[j][i] == j for j in range(n))),
             None)
    if e is None:
        raise NotAGroupError("no identity element")
    # each row is a permutation and so contains e: inverses exist
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise NotAGroupError("associativity fails at (%d,%d,%d)"
                                         % (a, b, c))
    return e


class IntegralRep:
    """A faithful integer representation of the group `check_table` proves,
    checked on `generators`: rho(e) = 1 and rho(a) rho(g) = rho(ag) for each
    a and generator g give rho(ab) = rho(a) rho(b) by induction on b's word."""

    def __init__(self, table, matrices):
        e = check_table(table)
        self.table = [list(r) for r in table]
        self.generators = _generators(self.table)
        self.matrices = rho = [tuple(tuple(int(x) for x in row) for row in M)
                               for M in matrices]
        self.group_order = n = len(self.table)
        if len(rho) != n:
            raise ValueError("need one matrix per group element")
        self.m = m = len(rho[0])
        one = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
        if rho[e] != one or any(
                _int_mat_mul(rho[a], rho[g]) != rho[self.table[a][g]]
                for a in range(n) for g in self.generators):
            raise ValueError("matrix map is not a homomorphism")
        if len(set(rho)) != n:
            raise ValueError("matrix map is not faithful")


def _int_mat_mul(A, B):
    n = len(A)
    return tuple(tuple(sum(A[i][t] * B[t][j] for t in range(n))
                       for j in range(n)) for i in range(n))


def regular_rep(table):
    """Left regular representation by permutation matrices."""
    n = len(table)
    # g sends e_h to e_{gh}; built lazily, once IntegralRep checked the table
    return IntegralRep(table, ([[int(table[g][h] == i) for h in range(n)]
                                for i in range(n)] for g in range(n)))


def _generators(table):
    """A generating set of the group of a multiplication table: each
    element, in table order, that the closure of those before it misses
    (the identity alone for the trivial group)."""
    e = table[0].index(0)  # 0 * e = 0
    # _closure skips exactly the elements the earlier ones generate
    gens = _closure(e, range(len(table)), lambda a, b: table[a][b],
                    len(table))[1]
    return gens or [e]


def _embed_int_matrix(M, field, n):
    """View an m x m integer matrix inside GL(n; E), padded by identity.
    Entries of one integer value share one (immutable) element of E."""
    m = len(M)
    ints = [[M[i][j] if i < m and j < m else int(i == j) for j in range(n)]
            for i in range(n)]
    elem = {q: field.from_rational(q) for q in {q for r in ints for q in r}}
    return linalg.mat([[elem[q] for q in row] for row in ints])


DEFAULT_CLASS = "default"
OTHER_CLASS = "other"


def regular_embed(rep, cmfield, n, class_selector=DEFAULT_CLASS, *,
                  norm_budget=10 ** 4):
    """Admissible invariant form containing rep's group, in dimension n.

    Averages over the group closed from rep.generators for a positive
    definite block, pads it with an identity block, and closes with the
    negative slot; class_selector = "other" lands in a different
    determinant class via the twisting construction, which alone spends
    `norm_budget`.  rho holds the image of every element, in table order;
    it is faithful, as `IntegralRep` proved rep an injective homomorphism
    and the identity padding keeps images distinct."""
    if n < rep.m + 1:
        raise ValueError("need n >= m + 1 to fit the negative slot")
    gens = rep.generators
    H_G = average_form(MatrixGroup(cmfield, [
        _embed_int_matrix(rep.matrices[g], cmfield, rep.m) for g in gens]))
    pad = n - 1 - rep.m
    positive_block = H_G if pad == 0 else direct_sum(
        H_G, diagonal_form(cmfield, [1] * pad))
    H, alpha = _with_negative_slot(positive_block)
    if class_selector == OTHER_CLASS:
        H = _other_class(H, positive_block, alpha, norm_budget)
    rho = [_embed_int_matrix(M, cmfield, n) for M in rep.matrices]
    if not invariant_under(H, [rho[g] for g in gens]):
        raise VerificationError("representation does not preserve the form")
    return H, rho


def _other_class(H_default, positive_block, alpha, norm_budget):
    """positive_block (verified positive definite by `average_form`) closed
    by the slot c*alpha/det(positive_block), so of determinant c*alpha, for
    the first c in 1, 2, 3, 5, ..., 15 whose form is certified not
    equivalent to H_default."""
    for c in [1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15]:
        twisted = with_slot(positive_block, alpha * c / positive_block.det)
        if equivalent(H_default, twisted, norm_budget) == NOT_EQUIVALENT:
            return twisted
    raise UnknownClassError(
        "no second admissible class certified with the implemented norm test")
