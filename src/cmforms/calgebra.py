"""Degree-three cyclic algebras A = L + LX + LX^2 over a CM field E, with
X^3 = alpha and X beta = tau(beta) X.

L is a cyclic cubic extension of E carrying both the Galois map tau and a
conjugation extending theta with totally real fixed field K.  Arithmetic
uses that structure directly: tau and the conjugation act through their
images of y and y^2, and an inverse in L is tau(x) tau^2(x) / N_{L/E}(x).
Everything else in A goes through the splitting S: A -> Mat(3, L), an
injective homomorphism (Reiner, Maximal Orders, Sec. 9), by exact
elimination: reduced norms are det S(x), inverses are read off S(x)^-1,
and signatures come from one congruence diagonalisation of D S(h), D the
involution's splitting conjugator.  The module also provides a verified
involution of second kind and the unitary-group membership predicate
x* h x = h.

The shipped example is the smallest classical tower: E = Q(i),
L = E(eta) with eta = zeta_7 + zeta_7^{-1}, alpha = 10 - 5i and the
involution built from beta = 5 (N_{K/Q}(5) = 125 = alpha * theta(alpha)).
"""

import functools
from fractions import Fraction

from . import linalg, serialize
from .field import (FieldElement, POSITIVE, TotallyRealField,
                    _maxnorm_vectors, _power, make_cyclotomic)
from .residue import NormResidueVerdict, UNKNOWN


class AlgebraError(ValueError):
    pass


class CyclicCubicExtension:
    """L = E[y]/(g) with Galois automorphism tau and conjugation c.

    tau_poly and conj_poly are the coordinate vectors (over the basis
    1, y, y^2) of tau(y) and c(y); c acts on E-coefficients by theta.
    tau is applied as the E-linear map sum c_i y^i -> sum c_i tau(y^i),
    c as the theta-semilinear one, from the images of y and y^2 computed
    once here; y^3 and y^4 mod g do the same for multiplication."""

    def __init__(self, cmfield, g_coeffs, tau_poly, conj_poly):
        self.E = cmfield
        g = [self._coerce(c) for c in g_coeffs]
        if len(g) != 4 or g[3] != cmfield.one():
            raise AlgebraError("g must be a monic cubic")
        self.g = tuple(g)
        # y^3 = -(g0 + g1 y + g2 y^2); y^4 is y * y^3 reduced once more
        y3 = tuple(-c for c in g[:3])
        y4 = (g[2] * g[0], g[2] * g[1] - g[0], g[2] * g[2] - g[1])
        self._y34 = (y3, y4)
        self.tau_poly = tuple(self._coerce(c) for c in tau_poly)
        self.conj_poly = tuple(self._coerce(c) for c in conj_poly)
        t, c = self.element(self.tau_poly), self.element(self.conj_poly)
        self._tau_y12 = (t.coeffs, (t * t).coeffs)
        self._conj_y12 = (c.coeffs, (c * c).coeffs)
        self._validate()

    def _coerce(self, c):
        if isinstance(c, FieldElement):
            return c
        return self.E.from_rational(c)

    def _combine(self, head, tail, images):
        """head + sum tail[k] * images[k] on coordinate vectors over E,
        skipping zero tail coefficients."""
        out = list(head)
        for c, img in zip(tail, images):
            if not c.is_zero():
                out = [u + c * v for u, v in zip(out, img)]
        return CubicExtElement(self, tuple(out))

    # --- element constructors -------------------------------------------

    def element(self, coeffs):
        cs = [self._coerce(c) for c in coeffs]
        cs += [self.E.zero()] * (3 - len(cs))
        return CubicExtElement(self, tuple(cs[:3]))

    def from_E(self, x):
        return self.element([self._coerce(x)])

    def zero(self):
        return self.from_E(0)

    def one(self):
        return self.from_E(1)

    def gen(self):
        return self.element([0, 1])

    def _validate(self):
        y = self.gen()
        t, cy = self.tau_of(y), self.conj_of(y)
        # g(tau(y)) = 0, and theta(g)(c(y)) = 0 since c is theta-semilinear
        for root, poly, msg in (
                (t, self.g, "tau(y) is not a root of g"),
                (cy, [c.conjugate() for c in self.g],
                 "c(y) is not a root of theta(g)")):
            acc = self.from_E(poly[0])
            pw = self.one()
            for k in range(1, 4):
                pw = pw * root
                acc = acc + self.from_E(poly[k]) * pw
            if not acc.is_zero():
                raise AlgebraError(msg)
        if t == y:
            raise AlgebraError("tau must be nontrivial")
        if self.tau_of(self.tau_of(t)) != y:
            raise AlgebraError("tau^3 is not the identity")
        if self.conj_of(cy) != y:
            raise AlgebraError("conjugation is not an involution")

    # --- field maps -------------------------------------------------------

    def tau_of(self, x):
        zero = self.E.zero()
        return self._combine((x.coeffs[0], zero, zero), x.coeffs[1:],
                             self._tau_y12)

    def conj_of(self, x):
        zero = self.E.zero()
        c0, c1, c2 = (c.conjugate() for c in x.coeffs)
        return self._combine((c0, zero, zero), (c1, c2), self._conj_y12)

    @functools.cached_property
    def real_subfield(self):
        """K as a totally real field; needs g to have rational coefficients."""
        coeffs = []
        for c in self.g:
            if not c.is_rational():
                raise AlgebraError("K extraction needs a rational cubic g")
            coeffs.append(c.as_fraction())
        return TotallyRealField(coeffs)

    def __eq__(self, other):
        return (isinstance(other, CyclicCubicExtension) and self.E == other.E
                and self.g == other.g and self.tau_poly == other.tau_poly
                and self.conj_poly == other.conj_poly)


class CubicExtElement:
    """c0 + c1*y + c2*y^2 with E coefficients."""

    __slots__ = ("ext", "coeffs")

    def __init__(self, ext, coeffs):
        self.ext = ext
        self.coeffs = tuple(coeffs)

    def _check(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.ext.from_E(other)
        if not isinstance(other, CubicExtElement) or other.ext != self.ext:
            raise AlgebraError("extension mismatch")
        return other

    def __add__(self, other):
        o = self._check(other)
        return CubicExtElement(self.ext,
                               tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CubicExtElement(self.ext, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            # E-scalar: scale the coordinates
            return CubicExtElement(self.ext,
                                   tuple(c * other for c in self.coeffs))
        o = self._check(other)
        E = self.ext.E
        prod = [E.zero()] * 5
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(o.coeffs):
                prod[i + j] = prod[i + j] + a * b
        return self.ext._combine(prod[:3], prod[3:], self.ext._y34)

    __rmul__ = __mul__

    def inverse(self):
        """tau(x) tau^2(x) / N_{L/E}(x); zero divisors of a split L raise
        ZeroDivisionError like zero does."""
        n, adj = self._norm_and_adjugate()
        if n.is_zero():
            raise ZeroDivisionError("inverse of zero or a zero divisor in L")
        return adj * n.inverse()

    def __truediv__(self, other):
        return self * self._check(other).inverse()

    def __pow__(self, k):
        return _power(self, k, self.ext.one(), CubicExtElement.inverse)

    def tau(self):
        return self.ext.tau_of(self)

    def conj(self):
        return self.ext.conj_of(self)

    def _norm_and_adjugate(self):
        t = self.tau()
        adj = t * self.ext.tau_of(t)
        n = self * adj
        if not n.is_in_E():
            raise AlgebraError("norm did not land in E")
        return n.coeffs[0], adj

    def relative_norm(self):
        """N_{L/E}: x * tau(x) * tau^2(x), returned as an element of E."""
        return self._norm_and_adjugate()[0]

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def is_in_E(self):
        return self.coeffs[1].is_zero() and self.coeffs[2].is_zero()

    def is_conj_fixed(self):
        return self.conj() == self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            other = self.ext.from_E(other)
        return (isinstance(other, CubicExtElement) and other.ext == self.ext
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(tuple((c.a, c.b) for c in self.coeffs))

    def __repr__(self):
        return "CubicExtElement(%r)" % (self.coeffs,)


# --- the algebra ----------------------------------------------------------

class CyclicAlgebra:
    """A(L/E, tau, alpha) with relations X^3 = alpha, X b = tau(b) X."""

    def __init__(self, ext, alpha):
        self.ext = ext
        self.E = ext.E
        if isinstance(alpha, (int, Fraction)):
            alpha = self.E.from_rational(alpha)
        if not isinstance(alpha, FieldElement) or alpha.field != self.E:
            raise AlgebraError("alpha must be an element of E")
        if alpha.is_zero():
            raise AlgebraError("alpha must be nonzero")
        self.alpha = alpha
        self.alpha_L = ext.from_E(alpha)

    # --- element constructors -------------------------------------------

    def element(self, b0, b1=None, b2=None):
        z = self.ext.zero()
        parts = []
        for b in (b0, b1, b2):
            if b is None:
                parts.append(z)
            elif isinstance(b, CubicExtElement):
                parts.append(b)
            else:
                parts.append(self.ext.from_E(b))
        return AlgebraElement(self, tuple(parts))

    def from_L(self, b):
        return self.element(b)

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)

    def X(self):
        return self.element(None, self.ext.one())

    def basis(self):
        """The nine E-basis elements y^i X^j, ordered j-major."""
        y = self.ext.gen()
        out = []
        for j in range(3):
            for i in range(3):
                parts = [self.ext.zero()] * 3
                parts[j] = y ** i
                out.append(AlgebraElement(self, tuple(parts)))
        return out

    def multiply(self, x, y):
        b, c = x.parts, y.parts
        tau = self.ext.tau_of
        tc = [list(c), [tau(v) for v in c]]
        tc.append([tau(v) for v in tc[1]])
        out = [self.ext.zero()] * 3
        for i in range(3):
            if b[i].is_zero():
                continue
            for j in range(3):
                term = b[i] * tc[i][j]
                if i + j >= 3:
                    term = term * self.alpha
                out[(i + j) % 3] = out[(i + j) % 3] + term
        return AlgebraElement(self, tuple(out))

    def splitting_matrix(self, x):
        """Image in Mat(3; L): entry (r, c) is tau^r(b_{(c - r) mod 3}) for
        x = b0 + b1 X + b2 X^2, times alpha when c < r."""
        rows = [x.parts]
        for _ in range(2):
            rows.append([self.ext.tau_of(b) for b in rows[-1]])
        M = [[rows[r][(c - r) % 3] for c in range(3)] for r in range(3)]
        for r, c in ((1, 0), (2, 0), (2, 1)):
            M[r][c] = M[r][c] * self.alpha
        return linalg.mat(M)

    def reduced_norm(self, x):
        d = linalg.det(self.splitting_matrix(x))
        if not d.is_in_E():
            raise AlgebraError("reduced norm did not land in E")
        return d.coeffs[0]

    def inverse(self, x):
        """x^-1 from S(x)^-1 = S(x^-1): row 0 of S(y) is the parts
        (b0, b1, b2) of y.  Raises ZeroDivisionError if S(x) is singular,
        i.e. if x is a zero divisor."""
        inv = linalg.inverse(self.splitting_matrix(x))
        return AlgebraElement(self, inv[0])

    def __eq__(self, other):
        return (isinstance(other, CyclicAlgebra) and self.ext == other.ext
                and self.alpha == other.alpha)


class AlgebraElement:
    __slots__ = ("algebra", "parts")

    def __init__(self, algebra, parts):
        self.algebra = algebra
        self.parts = tuple(parts)

    def _check(self, other):
        if isinstance(other, (int, Fraction, FieldElement, CubicExtElement)):
            return self.algebra.element(other)
        if not isinstance(other, AlgebraElement) or other.algebra != self.algebra:
            raise AlgebraError("algebra mismatch")
        return other

    def __add__(self, other):
        o = self._check(other)
        return AlgebraElement(self.algebra,
                              tuple(a + b for a, b in zip(self.parts, o.parts)))

    __radd__ = __add__

    def __neg__(self):
        return AlgebraElement(self.algebra, tuple(-a for a in self.parts))

    def __sub__(self, other):
        return self + (-self._check(other))

    def __mul__(self, other):
        return self.algebra.multiply(self, self._check(other))

    def __rmul__(self, other):
        return self._check(other) * self

    def __pow__(self, k):
        return _power(self, k, self.algebra.one(), self.algebra.inverse)

    def is_zero(self):
        return all(p.is_zero() for p in self.parts)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, FieldElement, CubicExtElement)):
            other = self.algebra.element(other)
        return (isinstance(other, AlgebraElement)
                and other.algebra == self.algebra and self.parts == other.parts)

    def __repr__(self):
        return "AlgebraElement(%r)" % (self.parts,)


# --- division candidate ---------------------------------------------------

IS_DIVISION = "IsDivision"
NOT_DIVISION = "NotDivision"


def is_division_candidate(algebra, budget=10 ** 4):
    """Bounded search for gamma in L with N_{L/E}(gamma) = alpha.

    A witness certifies NotDivision (alpha is a norm, so the algebra has
    zero divisors); exhaustion yields Unknown since no complete local test
    is implemented here."""
    ext = algebra.ext
    E = algebra.E
    s = E.s
    dim = 3 * 2 * s
    count = 0
    bound = 1
    while count < budget and bound <= 8:
        shell = _maxnorm_vectors(dim, bound)
        if (2 * bound + 1) ** dim <= 300000:
            # simplest candidates first: small L1 norm, positive leading signs
            shell = sorted(shell, key=lambda c: (sum(abs(v) for v in c),
                                                 tuple(-v for v in c)))
        for coords in shell:
            count += 1
            parts = []
            for k in range(3):
                chunk = coords[k * 2 * s:(k + 1) * 2 * s]
                parts.append(E.element(chunk[:s], chunk[s:]))
            gamma = ext.element(parts)
            if gamma.relative_norm() == algebra.alpha:
                return NormResidueVerdict(NOT_DIVISION, witness=gamma)
            if count >= budget:
                break
        bound += 1
    return NormResidueVerdict(UNKNOWN)


# --- involutions of second kind -------------------------------------------

class InvolutionError(ValueError):
    pass


class Involution:
    """A theta-semilinear anti-automorphism given by basis images.

    images[(i, j)] is the image of y^i X^j; the map extends by
    lambda * y^i X^j  |->  theta(lambda) * images[(i, j)]."""

    def __init__(self, algebra, images, splitting_conjugator=None):
        self.algebra = algebra
        self.images = dict(images)
        if sorted(self.images) != [(i, j) for i in range(3) for j in range(3)]:
            raise InvolutionError("need images for all nine basis elements")
        self.splitting_conjugator = splitting_conjugator

    def apply(self, x):
        acc = self.algebra.zero()
        for j in range(3):
            for i in range(3):
                lam = x.parts[j].coeffs[i]
                if lam.is_zero():
                    continue
                c = lam.conjugate()
                img = self.images[(i, j)].parts
                acc = acc + AlgebraElement(self.algebra,
                                           tuple(p * c for p in img))
        return acc


def make_involution(algebra, beta):
    """The involution fixing K: conjugation on L and X |-> (beta/alpha) X^2.

    beta must lie in K with N_{K/F}(beta) = alpha * theta(alpha); this is
    exactly the compatibility the second-kind condition requires."""
    ext = algebra.ext
    if not isinstance(beta, CubicExtElement):
        beta = ext.from_E(beta)
    if not beta.is_conj_fixed():
        raise InvolutionError("beta must be fixed by the conjugation on L")
    lhs = beta * beta.tau() * beta.tau().tau()
    rhs = algebra.alpha * algebra.alpha.conjugate()
    if not (lhs.is_in_E() and lhs.coeffs[0] == rhs):
        raise InvolutionError(
            "need N_{K/F}(beta) = alpha * theta(alpha) for a second-kind "
            "involution")
    gamma = beta * algebra.alpha_L.inverse()
    Xstar = algebra.element(None, None, gamma)  # gamma * X^2
    y = ext.gen()
    images = {}
    for i in range(3):
        li = algebra.from_L(ext.conj_of(y ** i))
        for j in range(3):
            images[(i, j)] = (Xstar ** j) * li if j else li
    tb = ext.tau_of(beta)
    conjugator = linalg.mat([
        [tb, ext.zero(), ext.zero()],
        [ext.zero(), ext.one(), ext.zero()],
        [ext.zero(), ext.zero(), ext.tau_of(tb).inverse()],
    ])
    return Involution(algebra, images, splitting_conjugator=conjugator)


def verify_involution(inv, samples=None):
    """Check the involution axioms exhaustively on basis pairs.

    Raises naming the failing pair; returns the involution on success."""
    algebra = inv.algebra
    basis = algebra.basis()
    labels = [(i, j) for j in range(3) for i in range(3)]
    star = inv.apply
    stars = [star(a) for a in basis]
    # anti-multiplicativity on all 81 pairs
    for (la, a, sa) in zip(labels, basis, stars):
        for (lb, b, sb) in zip(labels, basis, stars):
            if star(a * b) != sb * sa:
                raise InvolutionError(
                    "(xy)* != y* x* at basis pair %s, %s" % (la, lb))
    # involutivity on the basis
    for (la, a, sa) in zip(labels, basis, stars):
        if star(sa) != a:
            raise InvolutionError("(x*)* != x at basis element %s" % (la,))
    # restriction to E is theta
    sq = algebra.E.sqrt_delta()
    for lam in (algebra.E.one(), sq, algebra.E.from_rational(3) + sq):
        if star(algebra.element(lam)) != algebra.element(lam.conjugate()):
            raise InvolutionError("star does not restrict to theta on E")
    # splitting compatibility: star corresponds to conjugate-transposition
    # up to the fixed conjugator D
    if inv.splitting_conjugator is not None:
        D = inv.splitting_conjugator
        Dinv = linalg.inverse(D)
        ext = algebra.ext
        if samples is None:
            samples = [algebra.one(), algebra.X(),
                       algebra.from_L(ext.gen()),
                       algebra.X() + algebra.from_L(ext.gen() ** 2)]
        for x in samples:
            lhs = algebra.splitting_matrix(star(x))
            ct = linalg.conj_transpose(algebra.splitting_matrix(x),
                                       ext.conj_of)
            rhs = linalg.mat_mul(Dinv, linalg.mat_mul(ct, D))
            if not linalg.mat_eq(lhs, rhs):
                raise InvolutionError("splitting compatibility fails")
    return inv


# --- unitary group membership and signatures ------------------------------

IN_GROUP = "InGroup"
NOT_IN_GROUP = "NotInGroup"


class MembershipVerdict:
    def __init__(self, status, scalar=None):
        self.status = status
        self.scalar = scalar

    def __eq__(self, other):
        if isinstance(other, str):
            return self.status == other
        return isinstance(other, MembershipVerdict) and \
            self.status == other.status and self.scalar == other.scalar

    def __repr__(self):
        return "MembershipVerdict(%s)" % self.status


def unitary_membership(algebra, involution, h, x):
    """x is in U(h; A) iff x* h x = h, for h hermitian and invertible.

    This is the predicate "h^-1 x* h x is a central scalar lambda with
    lambda^3 = 1": x* h x is hermitian, so such a lambda lies in the
    totally real F, where lambda^3 = 1 forces lambda = 1, the scalar
    reported for members."""
    if involution.apply(h) != h:
        raise AlgebraError("h is not hermitian under the involution")
    if algebra.reduced_norm(h).is_zero():
        raise ZeroDivisionError("element is not invertible")
    if involution.apply(x) * h * x == h:
        return MembershipVerdict(IN_GROUP, scalar=algebra.E.one())
    return MembershipVerdict(NOT_IN_GROUP)


def splitting_signature(algebra, involution, h):
    """Signature pairs of the hermitian form of h, one pair per real
    embedding of K, the first being the distinguished one.

    S carries the involution to M -> D^-1 M^H D, D the involution's
    splitting conjugator, so x* h x = h becomes S(x)^H G S(x) = G for the
    hermitian matrix G = D S(h) over L.  The pivots of one congruence
    diagonalisation of G lie in K; by Sylvester's law of inertia their
    signs at each real embedding give the signature there.  Needs D, so
    an involution loaded from JSON is refused, and needs F = Q."""
    if involution.apply(h) != h:
        raise AlgebraError("h is not hermitian under the involution")
    D = involution.splitting_conjugator
    if D is None:
        raise AlgebraError("the involution has no splitting conjugator")
    ext = algebra.ext
    G = linalg.mat_mul(D, algebra.splitting_matrix(h))
    if not linalg.mat_eq(G, linalg.conj_transpose(G, ext.conj_of)):
        raise AlgebraError("D S(h) is not hermitian")
    rows = []
    for d in linalg.congruence_diagonal(G, ext.conj_of):
        if d.is_zero():
            raise AlgebraError("h is degenerate")
        if not all(c.is_rational() for c in d.coeffs):
            raise AlgebraError("pivots of D S(h) must have rational "
                               "coordinates")
        rows.append([c.as_fraction() for c in d.coeffs])
    K = ext.real_subfield
    out = []
    for ell in range(K.degree):
        e_plus = sum(K.sign_of_coords(row, ell) == POSITIVE for row in rows)
        out.append((e_plus, 3 - e_plus))
    return tuple(out)


# --- JSON wire format -------------------------------------------------------

def _ext_element_to_json(x):
    return [serialize.element_to_json(c) for c in x.coeffs]


def _ext_element_from_json(ext, arr):
    return ext.element([serialize.element_from_json(ext.E, c) for c in arr])


def _alg_element_to_json(x):
    return [_ext_element_to_json(p) for p in x.parts]


def _alg_element_from_json(algebra, arr):
    return AlgebraElement(algebra,
                          tuple(_ext_element_from_json(algebra.ext, p)
                                for p in arr))


def algebra_to_json(algebra, involution=None):
    ext = algebra.ext
    obj = {
        "E": serialize.field_to_json(algebra.E),
        "g": [serialize.element_to_json(c) for c in ext.g],
        "tau": [serialize.element_to_json(c) for c in ext.tau_poly],
        "conj": [serialize.element_to_json(c) for c in ext.conj_poly],
        "alpha": serialize.element_to_json(algebra.alpha),
    }
    if involution is not None:
        obj["involution"] = [
            _alg_element_to_json(involution.images[(i, j)])
            for j in range(3) for i in range(3)]
    return obj


def algebra_from_json(obj):
    """Parse an algebra spec; any included involution is re-verified."""
    E = serialize.field_from_json(obj["E"])
    g = [serialize.element_from_json(E, c) for c in obj["g"]]
    tau = [serialize.element_from_json(E, c) for c in obj["tau"]]
    conj = [serialize.element_from_json(E, c) for c in obj["conj"]]
    ext = CyclicCubicExtension(E, g, tau, conj)
    algebra = CyclicAlgebra(ext, serialize.element_from_json(E, obj["alpha"]))
    involution = None
    if "involution" in obj:
        images = {}
        labels = [(i, j) for j in range(3) for i in range(3)]
        for label, arr in zip(labels, obj["involution"]):
            images[label] = _alg_element_from_json(algebra, arr)
        involution = verify_involution(Involution(algebra, images))
    return algebra, involution


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
