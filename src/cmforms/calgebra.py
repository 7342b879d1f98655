"""Degree-three cyclic algebras A = L + LX + LX^2 over a CM field E, with
X^3 = alpha and X beta = tau(beta) X.

L is a cyclic cubic extension of E carrying both the Galois map tau and a
conjugation extending theta with totally real fixed field K.  L and A are
`field.Parent`s, keyed by E, g, tau(y), c(y) and by L, alpha, whose
`_split` reads an element's flat Q-coordinates as E-coefficients over
1, y, y^2 or L-parts over 1, X, X^2.  A product in L or A, tau, the
conjugation and an involution of A run on `field`'s integer kernel, off a
Q-structure table or a sparse Q-linear map; an inverse in L is
tau(x) tau^2(x) / N(x).  The structure of A is stated once, by the
splitting S: A -> Mat(3, L), an injective homomorphism (Reiner, Maximal
Orders, Sec. 9), on integer numerators: five Q-linear maps of L applied to
x's parts, encoded once, give S(x).  Everything in A goes through it: a
product xy is row 0 of S(x) S(y), one `field._mul` on A's Q-structure
table, read off S on the first product; Nrd(x) = det S(x) and the
inverse adj S(x) / Nrd(x) come from the cofactors of column 0 of S(x);
and signatures are those of the hermitian D S(h) over L, D the splitting
conjugator.  The nine E-basis elements y^i X^j have one order, _LABELS.
An involution of second kind is verified, and the unitary-group
membership x* h x = h decided, with no element built: on A's table, the
involution's Q-linear map and, for D S(x*) = S(x)^H D with det D != 0,
on S.  Membership and a bounded division search answer with a
`field.Verdict`.  `serialize` alone reads and writes its JSON.

The shipped example is the smallest classical tower: E = Q(i),
L = E(eta) with eta = zeta_7 + zeta_7^{-1}, alpha = 10 - 5i and the
involution built from beta = 5 (N_{K/Q}(5) = 125 = alpha * theta(alpha)).
"""

import functools
import itertools
import types
from fractions import Fraction
from operator import attrgetter, sub

from . import linalg
from .field import (CommutativeElement, Element, FieldElement, FieldError,
                    Parent, TotallyRealField, Verdict, _apply, _candidates,
                    _decode, _encode, _image, _mul, _prod, _same, _sparse,
                    make_cyclotomic)
from .hermitian import DegenerateFormError, HermitianForm, signature_profile
from .residue import UNKNOWN


class AlgebraError(ValueError):
    pass


def _map(E, images, on_E):
    """The Q-linear map of L or A sending e_p b_k to on_E(e_p) images[k],
    as `_encode`'s (rows, den): e_p runs over E's Q-basis and b_k over the
    E-basis y^i (of L) or y^i X^j in _LABELS order (of A), so row k*2s + p
    is that image.  tau and c of L, with on_E the identity and theta, and
    an involution of A, with theta."""
    e = E._q_basis()
    return _encode([on_E(ep) * w for w in images for ep in e])


def _cofactors(lrows, M):
    """(det, adj) of the 3 x 3 matrix M of `_encode`'s rows over d of L by
    `_prod` on L's table rows lrows, over t: the numerators over d^3 t^2
    of det M along column 0, and over d^2 t of row 0 of adj M."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = M

    def minor(a, b, c, e):  # the numerators of ab - ce
        return list(map(sub, _prod(lrows, a, b), _prod(lrows, c, e)))
    adj = (minor(m11, m22, m12, m21), minor(m02, m21, m01, m22),
           minor(m01, m12, m02, m11))
    terms = [_prod(lrows, m, _sparse(a))
             for m, a in zip((m00, m10, m20), adj)]
    return list(map(sum, zip(*terms))), adj


class CubicExtElement(CommutativeElement):
    """c0 + c1*y + c2*y^2 with E coefficients; `coeffs` and `ext` are
    read-only views."""

    __slots__ = ()
    _level = 2
    ext = property(attrgetter("parent"))
    coeffs = property(lambda self: self.parent._split(self))

    def __mul__(self, other):
        o = self._operand(other)
        if o is NotImplemented:
            return o
        return _mul(self.parent._table, self, o)

    __rmul__ = __mul__

    def inverse(self):
        """tau(x) tau^2(x) / N_{L/E}(x); zero divisors of a split L raise
        ZeroDivisionError like zero does."""
        n, adj = self._norm_and_adjugate()
        if n.is_zero():
            raise ZeroDivisionError("inverse of zero or a zero divisor in L")
        return adj * n.inverse()

    def conjugate(self):
        """The conjugation of L, theta-semilinear."""
        return _apply(self.ext._conj, self)

    def sign_at(self, ell):
        """Certified sign at the ell-th real place of K; the element must
        lie in K and have rational coordinates, and F must be Q."""
        if self.conjugate() != self:
            raise AlgebraError("sign_at requires an element of K")
        if not all(c.is_rational() for c in self.coeffs):
            raise AlgebraError("sign_at requires rational coordinates")
        return self.ext.real_subfield.sign_of_coords(
            [c.as_fraction() for c in self.coeffs], ell)

    def _norm_and_adjugate(self):
        t = self.ext.tau_of(self)
        adj = t * self.ext.tau_of(t)
        n = self * adj
        if not n.is_in_E():
            raise AlgebraError("norm did not land in E")
        return n.coeffs[0], adj

    def relative_norm(self):
        """N_{L/E}: x * tau(x) * tau^2(x), returned as an element of E."""
        return self._norm_and_adjugate()[0]

    def is_in_E(self):
        return not any(self.coeffs[1:])

    def __repr__(self):
        return "CubicExtElement(%r)" % (self.coeffs,)


class CyclicCubicExtension(Parent):
    """L = E[y]/(g) with Galois automorphism tau and conjugation c.

    tau_poly and conj_poly are the coordinate vectors (over the basis
    1, y, y^2) of tau(y) and c(y); c acts on E-coefficients by theta.  The
    structure table and the Q-linear maps tau and c are built once here."""

    _element = CubicExtElement

    def __init__(self, cmfield, g_coeffs, tau_poly, conj_poly):
        self.E = self._below = cmfield
        self._dim = 3 * cmfield._dim
        g = tuple(map(cmfield.coerce, g_coeffs))
        if len(g) != 4 or g[3] != cmfield.one():
            raise AlgebraError("g must be a monic cubic")
        self.g = g
        self._table = self._structure_table()
        self.tau_poly = tuple(map(cmfield.coerce, tau_poly))
        self.conj_poly = tuple(map(cmfield.coerce, conj_poly))
        t, c = self.element(self.tau_poly), self.element(self.conj_poly)
        self._tau = _map(cmfield, (self.one(), t, t * t), lambda e: e)
        self._conj = _map(cmfield, (self.one(), c, c * c),
                          FieldElement.conjugate)
        self._validate()

    def _lift(self, x):
        """A value in E or Q as the constant x; anything else is refused."""
        if isinstance(x, (int, Fraction, FieldElement)):
            try:
                return self.element([x])
            except FieldError:
                raise AlgebraError("%r is not in E" % (x,)) from None
        raise AlgebraError("extension mismatch: %r" % (x,))

    def _key(self):
        return self.E, self.g, self.tau_poly, self.conj_poly

    def _structure_table(self):
        """L's Q-structure table for `field._mul`, `_encode`'s (rows, den).
        The Q-basis of L is y^i e_p, at index i*m + p, e_p running over
        E's Q-basis e of m elements.  Entry [a][b] lists (k, n) for each
        nonzero Q-coordinate n / den of the product of basis elements a
        and b: e_p e_q y^(i+j), y^3 and y^4 read as their images mod g.
        Entries with equal i + j, p and q are shared."""
        E, e, g = self.E, self.E._q_basis(), self.g
        m = len(e)
        # y^3 = -(g0 + g1 y + g2 y^2); y^4 is y * y^3 reduced once more
        y34 = ((-g[0], -g[1], -g[2]),
               (g[2] * g[0], g[2] * g[1] - g[0], g[2] * g[2] - g[1]))
        prods = {}  # (k, p, q): e_p e_q y^k, k < 5
        for p, q in itertools.product(range(m), repeat=2):
            pq = e[p] * e[q]
            for k in range(5):
                prods[k, p, q] = self._join(
                    [pq * c for c in y34[k - 3]] if k > 2
                    else [E.zero()] * k + [pq])
        rows, den = _encode(list(prods.values()))
        entries = dict(zip(prods, rows))
        basis = list(itertools.product(range(3), range(m)))
        return [[entries[i + j, p, q] for j, q in basis]
                for i, p in basis], den

    # --- element constructors -------------------------------------------

    def element(self, coeffs):
        """c0 + c1 y + c2 y^2; each c_i goes through E's coerce."""
        cs = tuple(map(self.E.coerce, coeffs))
        if len(cs) > 3:
            raise AlgebraError("an element of L has at most 3 coordinates")
        return self._join(cs)

    def from_E(self, x):
        return self.element([x])

    def gen(self):
        return self.element([0, 1])

    def _validate(self):
        y = self.gen()
        t, cy = self.tau_of(y), y.conjugate()
        # g(tau(y)) = 0, and theta(g)(c(y)) = 0 since c is theta-semilinear
        for root, poly, msg in (
                (t, self.g, "tau(y) is not a root of g"),
                (cy, [c.conjugate() for c in self.g],
                 "c(y) is not a root of theta(g)")):
            acc = self.zero()
            for c in reversed(poly):  # Horner
                acc = acc * root + c
            if acc:
                raise AlgebraError(msg)
        if t == y:
            raise AlgebraError("tau must be nontrivial")
        if self.tau_of(self.tau_of(t)) != y:
            raise AlgebraError("tau^3 is not the identity")
        if cy.conjugate() != y:
            raise AlgebraError("conjugation is not an involution")

    # --- field maps -------------------------------------------------------

    def tau_of(self, x):
        return _apply(self._tau, self.coerce(x))

    @functools.cached_property
    def real_subfield(self):
        """K as a totally real field, Q[y]/(g); needs F = Q, where K has
        degree 3, and g to have rational coefficients."""
        if self.E.s > 1:
            raise AlgebraError("K extraction needs F = Q")
        if not all(c.is_rational() for c in self.g):
            raise AlgebraError("K extraction needs a rational cubic g")
        return TotallyRealField([c.as_fraction() for c in self.g])

    @property
    def s(self):
        """The degree of K, its number of real places; needs F = Q."""
        return self.real_subfield.degree


# --- the algebra ----------------------------------------------------------

# the labels (i, j) of the E-basis elements y^i X^j, j-major: the order of
# basis() and of the involution images on the wire
_LABELS = tuple((i, j) for j in range(3) for i in range(3))


class AlgebraElement(Element):
    """b0 + b1 X + b2 X^2 with parts in L; `parts` and `algebra` are
    read-only views."""

    __slots__ = ()
    _level = 3
    algebra = property(attrgetter("parent"))
    parts = property(lambda self: self.parent._split(self))

    def __mul__(self, other):
        return self.parent.multiply(self, self.parent.coerce(other))

    def __rmul__(self, other):
        return self.parent.multiply(self.parent.coerce(other), self)

    def inverse(self):
        return self.parent.inverse(self)

    def __repr__(self):
        return "AlgebraElement(%r)" % (self.parts,)


class CyclicAlgebra(Parent):
    """A(L/E, tau, alpha) with relations X^3 = alpha, X b = tau(b) X."""

    _element = AlgebraElement

    def __init__(self, ext, alpha):
        self.ext = self._below = ext
        self._dim = 3 * ext._dim
        self.E = ext.E
        alpha = self.E.coerce(alpha)
        if alpha.is_zero():
            raise AlgebraError("alpha must be nonzero")
        self.alpha = alpha
        self.alpha_L = ext.from_E(alpha)

    def _lift(self, x):
        """A value in L, E or Q as the part b0; another algebra's refused."""
        if isinstance(x, AlgebraElement):
            raise AlgebraError("algebra mismatch: %r" % (x,))
        return self.element(x)

    def _key(self):
        return self.ext, self.alpha

    # --- element constructors -------------------------------------------

    def element(self, b0, b1=None, b2=None):
        """b0 + b1 X + b2 X^2; each part goes through L's coerce, so an
        element of another extension raises AlgebraError."""
        lift = self.ext.coerce
        return self._join([lift(0 if b is None else b) for b in (b0, b1, b2)])

    def from_L(self, b):
        return self.element(b)

    def X(self):
        return self.element(None, self.ext.one())

    def basis(self):
        """The nine E-basis elements y^i X^j, in _LABELS order."""
        y = self.ext.gen()
        return [self.element(*[y ** i if k == j else None for k in range(3)])
                for i, j in _LABELS]

    def multiply(self, x, y):
        """xy, the parts of row 0 of S(x) S(y): one `field._mul` on A's
        Q-structure table."""
        return _mul(self._table, x, y)

    @functools.cached_property
    def _table(self):
        """A's Q-structure table for `field._mul`, `_encode`'s (rows, den),
        read off `_rows` once, on the first product.  The a-th Q-basis
        element is e X^j, e in L's Q-basis, so row 0 of its S is e in
        column j, and its product with the b-th is e times row j of S(b-th),
        the parts' numerators in turn, as `_join` lays them out."""
        lrows, t = self.ext._table
        S = [self._rows([(a, 1)], 1)[0] for a in range(self._dim)]
        return [[_sparse([n for v in s[j] for n in _prod(lrows, [(e, 1)], v)])
                 for s in S] for j in range(3) for e in range(len(lrows))], \
            self._maps[1] * t

    @functools.cached_property
    def _maps(self):
        """The Q-linear maps of L that make up S, b -> b, tau(b), tau^2(b),
        alpha tau(b) and alpha tau^2(b), `_encode`'s rows over one den."""
        ext, m = self.ext, self.ext._dim
        t = [ext.tau_of(b) for b in ext._q_basis()]
        tt = [ext.tau_of(b) for b in t]
        rows, den = _encode(ext._q_basis() + t + tt
                            + [self.alpha_L * b for b in t + tt])
        return [rows[i:i + m] for i in range(0, 5 * m, m)], den

    def _rows(self, xs, d):
        """S(x) as (rows, den) of `_encode`'s rows, from x's row xs over d:
        entry (k, c), tau^k(b_{(c - k) mod 3}) times alpha when c < k, is
        x's part b_{(c - k) mod 3} under `_maps`[k + 2(c < k)].  This is
        the one statement of X^3 = alpha and X b = tau(b) X; products, Nrd,
        the inverse, the involution checks and signatures read it."""
        (maps, den), m = self._maps, self.ext._dim
        parts = [[(a - c, n) for a, n in xs if c <= a < c + m]
                 for c in range(0, 3 * m, m)]
        return [[_sparse(_image(maps[k + 2 * (c < k)], parts[(c - k) % 3]))
                 for c in range(3)] for k in range(3)], d * den

    def splitting_matrix(self, x):
        """Image in Mat(3; L), the rows of `_rows` decoded."""
        (xs,), d = _encode((x,))
        rows, den = self._rows(xs, d)
        m = self.ext._dim
        return linalg.mat([[_decode(self.ext, [dict(v).get(a, 0)
                                               for a in range(m)], den)
                            for v in row] for row in rows])

    def _norm_and_adjugate(self, x):
        """(Nrd(x), adj, den): det S(x) and adj the numerators over den of
        row 0 of adj S(x), by `_cofactors` on `_rows`, x encoded once."""
        (xs,), d = _encode((x,))
        (rows, d), (lrows, t) = self._rows(xs, d), self.ext._table
        det, adj = _cofactors(lrows, rows)
        det = _decode(self.ext, det, d ** 3 * t * t)
        if not det.is_in_E():
            raise AlgebraError("reduced norm did not land in E")
        return det.coeffs[0], adj, d * d * t

    def reduced_norm(self, x):
        """Nrd(x) = det S(x), an element of E."""
        return self._norm_and_adjugate(x)[0]

    def inverse(self, x):
        """x^-1 = adj S(x) / Nrd(x) read off row 0, the parts of x^-1: the
        cofactor row scaled by Nrd(x)^-1 on its numerators.  Raises
        ZeroDivisionError if Nrd(x) = 0, i.e. if x is a zero divisor."""
        n, adj, den = self._norm_and_adjugate(x)
        if n.is_zero():
            raise ZeroDivisionError("inverse of zero or a zero divisor in A")
        lrows, t = self.ext._table
        (ninv,), e = _encode((self.ext.from_E(n.inverse()),))
        return _decode(self, [c for a in adj
                              for c in _prod(lrows, _sparse(a), ninv)],
                       den * e * t)


# --- division candidate ---------------------------------------------------

IS_DIVISION = "IsDivision"
NOT_DIVISION = "NotDivision"


def is_division_candidate(algebra, budget=10 ** 4):
    """Bounded search for gamma in L with N_{L/E}(gamma) = alpha.

    Tries the first `budget` candidates; the budget alone bounds the walk.
    A witness certifies NotDivision (alpha is a norm, so the algebra has
    zero divisors) and is the Verdict's `witness`; exhaustion yields
    Unknown, whose trace names the candidates tried, since no complete
    local test is implemented here."""
    ext = algebra.ext
    # simplest candidates first: small L1 norm, positive leading signs
    candidates = _candidates(ext._dim, l1_first=True)
    for c in itertools.islice(candidates, max(budget, 0)):
        gamma = ext.from_rationals(c)
        if gamma.relative_norm() == algebra.alpha:
            return Verdict(NOT_DIVISION, witness=gamma)
    # the enumerator is endless, so exhaustion means budget candidates
    return Verdict(UNKNOWN, trace=[
        "norm-witness search tried %d candidates gamma in L, none with "
        "N(gamma) = alpha" % max(budget, 0)])


# --- involutions of second kind -------------------------------------------

class InvolutionError(ValueError):
    pass


class Involution:
    """A theta-semilinear anti-automorphism given by basis images.

    images[(i, j)] is the image of y^i X^j, a read-only mapping; the map
    extends by lambda * y^i X^j  |->  theta(lambda) * images[(i, j)], and
    is built once as a sparse Q-linear map (`_map`)."""

    def __init__(self, algebra, images, splitting_conjugator=None):
        self.algebra = algebra
        if set(images) != set(_LABELS):
            raise InvolutionError("need images for all nine basis elements")
        self.images = types.MappingProxyType(
            {label: algebra.coerce(images[label]) for label in _LABELS})
        self._qmap = _map(algebra.E, self.images.values(),
                          FieldElement.conjugate)
        self.splitting_conjugator = splitting_conjugator

    def apply(self, x):
        return _apply(self._qmap, self.algebra.coerce(x))


def make_involution(algebra, beta):
    """The involution fixing K: conjugation on L and X |-> (beta/alpha) X^2.

    beta must lie in K with N_{K/F}(beta) = alpha * theta(alpha); this is
    exactly the compatibility the second-kind condition requires."""
    ext = algebra.ext
    beta = ext.coerce(beta)
    if beta.conjugate() != beta:
        raise InvolutionError("beta must be fixed by the conjugation on L")
    if beta.relative_norm() != algebra.alpha * algebra.alpha.conjugate():
        raise InvolutionError(
            "need N_{K/F}(beta) = alpha * theta(alpha) for a second-kind "
            "involution")
    gamma = beta * algebra.alpha.inverse()
    Xstar = algebra.element(None, None, gamma)  # gamma * X^2
    y = ext.gen()
    conj_y = [algebra.from_L((y ** i).conjugate()) for i in range(3)]
    images = {(i, j): (Xstar ** j) * conj_y[i] if j else conj_y[i]
              for i, j in _LABELS}
    tb, z = ext.tau_of(beta), ext.zero()
    conjugator = linalg.mat([[tb, z, z], [z, ext.one(), z],
                             [z, z, ext.tau_of(tb).inverse()]])
    return Involution(algebra, images, splitting_conjugator=conjugator)


def verify_involution(inv):
    """Check the involution axioms on generators; raises naming the first
    failure, returns the involution on success.  star is theta-semilinear
    and E central, so (ab)* = b* a* for a in the basis and b in 1, y, X
    gives it for all a, b (those b form an E-subalgebra; y, X generate A).
    Then x** is an E-algebra map, the identity once it fixes 1, y and X,
    and a* = 1* a* for all a gives 1* = 1, so star restricts to theta on E.
    A splitting conjugator D must have det D != 0 (else ZeroDivisionError)
    and D S(x*) = S(x)^H D, i.e. S(x*) = D^-1 S(x)^H D, at x = 1, X, y and
    X + y^2.  All on numerators, by rows of `_qmap` and A's table."""
    algebra, (q, qden) = inv.algebra, inv._qmap
    rows, _ = algebra._table
    # y^i X^j is the Q-basis element j m + 2 i s, m = dim_Q L
    at = [j * algebra.ext._dim + 2 * i * algebra.E.s for i, j in _LABELS]
    gens = (0, 1, 3)  # 1, y, X in _LABELS order
    for k in gens:
        for la, a in zip(_LABELS, at):
            if not _same(_sparse(_image(q, rows[a][at[k]])), 1,
                         _sparse(_prod(rows, q[at[k]], q[a])), qden):
                raise InvolutionError("(xy)* != y* x* at basis pair %s, %s"
                                      % (la, _LABELS[k]))
    for k in gens:  # x** = x: the numerators of e_b over qden^2
        if _sparse(_image(q, q[at[k]])) != [(at[k], qden * qden)]:
            raise InvolutionError("(x*)* != x at basis element %s"
                                  % (_LABELS[k],))
    if inv.splitting_conjugator is not None:
        (lrows, _), (crows, cden) = algebra.ext._table, algebra.ext._conj
        D, _ = _encode([algebra.ext.coerce(v)
                        for r in inv.splitting_conjugator for v in r])
        D = [D[i:i + 3] for i in (0, 3, 6)]
        if not any(_cofactors(lrows, D)[0]):
            raise ZeroDivisionError("the splitting conjugator is singular")

        def times(P, Q):  # the numerators of P Q, as one row
            return _sparse([n for i in range(3) for j in range(3)
                            for n in map(sum, zip(*(_prod(
                                lrows, P[i][k], Q[k][j]) for k in range(3))))])
        for xs in ([(at[0], 1)], [(at[3], 1)], [(at[1], 1)],
                   [(at[2], 1), (at[3], 1)]):  # 1, X, y, X + y^2
            S, d = algebra._rows(xs, 1)
            T, e = algebra._rows(_sparse(_image(q, xs)), qden)
            SH = [[_sparse(_image(crows, S[k][i])) for k in range(3)]
                  for i in range(3)]
            if not _same(times(D, T), e, times(SH, D), d * cden):
                raise InvolutionError("splitting compatibility fails")
    return inv


# --- unitary group membership and signatures ------------------------------

IN_GROUP = "InGroup"
NOT_IN_GROUP = "NotInGroup"


MembershipVerdict = Verdict  # the former class name, kept public


def unitary_membership(algebra, involution, h, x):
    """x is in U(h; A) iff x* h x = h, for h hermitian and invertible.

    This is the predicate "h^-1 x* h x is a central scalar lambda with
    lambda^3 = 1": x* h x is hermitian, so such a lambda lies in the
    totally real F, where lambda^3 = 1 forces lambda = 1, the scalar
    reported for members.  All on the numerators of h and x."""
    (q, qden), (rows, t) = involution._qmap, algebra._table
    (hs, xs), d = _encode((algebra.coerce(h), algebra.coerce(x)))
    if not _same(_sparse(_image(q, hs)), qden, hs, 1):
        raise AlgebraError("h is not hermitian under the involution")
    if not any(_cofactors(algebra.ext._table[0], algebra._rows(hs, d)[0])[0]):
        raise ZeroDivisionError("element is not invertible")
    xhx = _prod(rows, _sparse(_image(q, xs)), _sparse(_prod(rows, hs, xs)))
    if _same(_sparse(xhx), d * d * qden * t * t, hs, 1):
        return Verdict(IN_GROUP, scalar=algebra.E.one())
    return Verdict(NOT_IN_GROUP)


def splitting_signature(algebra, involution, h):
    """Signature pairs of the hermitian form of h, one pair per real
    embedding of K, the first being the distinguished one.

    S carries the involution to M -> D^-1 M^H D, D the involution's
    splitting conjugator, so x* h x = h becomes S(x)^H G S(x) = G for the
    hermitian matrix G = D S(h) over L, whose signatures
    `signature_profile` reads.  Needs D, so an involution loaded from JSON
    is refused, and so is F != Q."""
    (q, qden), ((hs,), _) = involution._qmap, _encode((algebra.coerce(h),))
    if not _same(_sparse(_image(q, hs)), qden, hs, 1):
        raise AlgebraError("h is not hermitian under the involution")
    D = involution.splitting_conjugator
    if D is None:
        raise AlgebraError("the involution has no splitting conjugator")
    G = linalg.mat_mul(D, algebra.splitting_matrix(h))
    try:
        return signature_profile(HermitianForm(algebra.ext, G))
    except DegenerateFormError:
        raise AlgebraError("h is degenerate") from None


# --- the shipped example --------------------------------------------------

@functools.cache
def builtin_example():
    """The vetted (L/E, alpha, involution) example, built once per process.

    Every call returns the same (algebra, involution) pair; callers must
    not modify it.  The involution carries its splitting conjugator, so
    verify_involution also checks splitting compatibility.

    E = Q(i); L = E(eta), eta = zeta_7 + zeta_7^{-1} with minimal cubic
    y^3 + y^2 - 2y - 1 and tau(eta) = eta^2 - 2; conjugation fixes eta and
    inverts i.  alpha = 10 - 5i has valuation 1 at the prime (2+i), which
    is inert in L/E, so alpha is not a relative norm and the algebra is a
    division algebra; beta = 5 matches norms since N(5) = 125 = |alpha|^2."""
    E = make_cyclotomic(4)
    ext = CyclicCubicExtension(
        E,
        [-1, -2, 1, 1],
        [-2, 0, 1],          # tau(y) = y^2 - 2
        [0, 1],              # c(y) = y
    )
    sqrt_delta = E.sqrt_delta()          # 2i
    alpha = E.from_rational(10) + Fraction(-5, 2) * sqrt_delta  # 10 - 5i
    algebra = CyclicAlgebra(ext, alpha)
    involution = verify_involution(make_involution(algebra, ext.from_E(5)))
    return algebra, involution
