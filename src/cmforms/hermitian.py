"""Hermitian matrices over a CM field: signature profiles at all real
embeddings, the (dim, signatures, det class) invariant, the equivalence
decision, admissibility, direct sums, and the one admissible closure
`with_slot`: a positive definite block plus one slot, certified admissible.

A form is diagonalised once by congruence, P H P^H = diag(d_1, ..., d_n)
with det P = +-1 (`linalg.congruence_diagonal`).  The pivots d_i lie in F;
their product is det H, and by Sylvester's law of inertia the signature at
each real embedding counts the d_i that are positive there.

The entries may also lie in the CM field L of `calgebra`, with K in place
of F: a form reads only conjugate(), sign_at and the field's s.
"""

from fractions import Fraction

from . import linalg
from .field import POSITIVE, VerificationError, Verdict
from .residue import is_norm, IS_NORM, IS_NOT_NORM, UNKNOWN, _square_class


EQUIVALENT = "Equivalent"
NOT_EQUIVALENT = "NotEquivalent"
UNKNOWN_EQUIVALENCE = UNKNOWN


class DegenerateFormError(ValueError):
    pass


class HermitianForm:
    """A nondegenerate hermitian matrix over E = F(sqrt(delta)), or over L.
    Rational entries are coerced; an entry of another field is refused
    with a ValueError naming it."""

    def __init__(self, cmfield, entries):
        self.field = cmfield
        self.entries = linalg.mat(map(cmfield.coerce, r) for r in entries)
        self.dim = len(self.entries)
        if any(len(r) != self.dim for r in self.entries):
            raise ValueError("matrix must be square")
        for j in range(self.dim):
            for k in range(j, self.dim):
                if self.entries[j][k] != self.entries[k][j].conjugate():
                    raise ValueError("matrix is not hermitian at (%d,%d)" % (j, k))
        pivots = linalg.congruence_diagonal(self.entries)
        if not pivots or any(d.is_zero() for d in pivots):
            raise DegenerateFormError("form is degenerate")
        self.pivots = tuple(pivots)
        det = pivots[0]
        for d in pivots[1:]:
            det = det * d
        self.det = det

    def __eq__(self, other):
        return (isinstance(other, HermitianForm) and self.field == other.field
                and self.entries == other.entries)

    def __repr__(self):
        return "HermitianForm(dim=%d)" % self.dim


def diagonal_form(cmfield, diag):
    """Hermitian form diag(d_1, ..., d_n); entries coerced into E."""
    diag = list(diag)
    zero = cmfield.zero()
    n = len(diag)
    return HermitianForm(cmfield, [[diag[i] if i == j else zero
                                    for j in range(n)] for i in range(n)])


def signature_at(H, ell):
    """(e_+, e_-) of H at the ell-th real embedding: by Sylvester's law of
    inertia, e_+ counts the pivots of H's diagonalisation positive there."""
    e_plus = sum(1 for d in H.pivots if d.sign_at(ell) == POSITIVE)
    return (e_plus, H.dim - e_plus)


def signature_profile(H):
    """Signature pairs at every embedding, ordered like the embeddings."""
    return tuple(signature_at(H, ell) for ell in range(H.field.s))


class FormInvariant:
    """The classifying triple: dimension, signature profile, det class."""

    def __init__(self, dim, signatures, det_class):
        self.dim = dim
        self.signatures = signatures
        self.det_class = det_class

    def sigma(self):
        return tuple(abs(p - m) for p, m in self.signatures)

    def __repr__(self):
        return "FormInvariant(dim=%d, sigma=%s)" % (self.dim, self.sigma())


def invariants(H):
    det = H.det
    # any representative of det modulo norms is its class: when det is
    # rational, strip the square factors that the budgeted factoring finds
    if det.is_rational():
        det = H.field.from_rational(_squarefree_kernel(det.as_fraction()))
    return FormInvariant(H.dim, signature_profile(H), det)


def _squarefree_kernel(q):
    return Fraction((-1 if q < 0 else 1) * _square_class(
        abs(q.numerator * q.denominator)))


def equivalent(H1, H2, budget=10 ** 4):
    """Theorem-of-classification decision: compare the invariant triples.

    The Verdict carries `is_norm`'s witness, obstruction or trace for
    det H1 / det H2, or the differing ("dimension" or "signatures", ...)."""
    if H1.field != H2.field:
        raise ValueError("forms live over different CM fields")
    if H1.dim != H2.dim:
        return Verdict(NOT_EQUIVALENT,
                       obstruction=("dimension", H1.dim, H2.dim))
    prof1, prof2 = signature_profile(H1), signature_profile(H2)
    if prof1 != prof2:
        return Verdict(NOT_EQUIVALENT,
                       obstruction=("signatures", prof1, prof2))
    verdict = is_norm(H1.det / H2.det, H1.field, budget)
    status = {IS_NORM: EQUIVALENT,
              IS_NOT_NORM: NOT_EQUIVALENT}.get(verdict, UNKNOWN_EQUIVALENCE)
    return Verdict(status, witness=verdict.witness,
                   obstruction=verdict.obstruction, trace=verdict.trace)


def is_admissible(H):
    """Signature n-2 at the distinguished embedding, definite elsewhere."""
    n = H.dim
    prof = signature_profile(H)
    if abs(prof[0][0] - prof[0][1]) != n - 2:
        return False
    return all(abs(p - m) == n for p, m in prof[1:])


def direct_sum(H1, H2):
    if H1.field != H2.field:
        raise ValueError("forms live over different CM fields")
    zero = H1.field.zero()
    n, m = H1.dim, H2.dim
    rows = []
    for i in range(n):
        rows.append(list(H1.entries[i]) + [zero] * m)
    for i in range(m):
        rows.append([zero] * n + list(H2.entries[i]))
    return HermitianForm(H1.field, rows)


def with_slot(block, slot):
    """block + (slot) certified admissible, else VerificationError.  For a
    positive definite block, admissible iff slot is negative at the
    distinguished embedding and positive at the others."""
    H = direct_sum(block, diagonal_form(block.field, [slot]))
    if not is_admissible(H):
        raise VerificationError("block + (slot) is not admissible")
    return H


def twist_determinant(H_G, H_prime):
    """Append the slot beta = det(H_prime)/det(H_G), matching determinants.

    H_G must be positive definite at every embedding, H_prime an admissible
    form of dimension dim(H_G) + 1.  The result is admissible, invariant
    under anything fixing H_G, and has determinant exactly det(H_prime),
    hence lies in H_prime's class."""
    if H_prime.dim != H_G.dim + 1:
        raise ValueError("dimension mismatch: need dim(H_prime) = dim(H_G)+1")
    if not is_admissible(H_prime):
        raise ValueError("H_prime must be admissible")
    if any(sig != (H_G.dim, 0) for sig in signature_profile(H_G)):
        raise ValueError("H_G must be positive definite at every embedding")
    return with_slot(H_G, H_prime.det / H_G.det)
