"""Totally real fields F = Q[x]/(f), CM extensions E = F(sqrt(delta)),
and certified sign evaluation at every real embedding; the `Parent` and
`Element` protocol that E, L and A share, and their one integer kernel.

An element x = a + b*sqrt(delta) of E carries the coordinates of a, then
those of b, over the power basis of F.  Elements of F are the ones with
b = 0.  All sign decisions go through exact interval refinement against
the stored root isolators; zero testing is exact coordinate comparison.
The isolators also prove the minimal polynomial irreducible
(`_is_irreducible`).  An element of E, L or A stores its flat
Q-coordinates, `coords`, which only `Parent.from_rationals`, `_split` and
`_join` lay out.  The integer kernel (Cohen, GTM 138, Sec. 4.2) reads and
writes only `coords`: `_encode` and `_decode` turn them into integer
numerators over one denominator and back, and between them `_prod` (by a
Q-structure table) and `_image` (by a Q-linear map) run on numerators
alone: once in `_mul` and `_apply`, chained (and compared by `_same`) in A.
E states the same two maps, its table and theta (`CMField._table` and
`_conj`, built on first use), for the code that runs on its numerators:
its inverse theta(x) N(x)^-1, `linalg.congruence_diagonal` and a form's
det.  E's product itself (`FieldElement.__mul__`) stays on `_fmul`.
"""

from fractions import Fraction
import functools
import itertools
from math import ceil, floor, lcm
from operator import add, attrgetter, neg, sub

from . import polyn


class FieldError(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    """A bounded search ran out of budget; existence is not refuted.  The
    CLI answers every such exception Unknown (exit 3)."""


class VerificationError(RuntimeError):
    """A computed result failed the exact check that certifies it."""


class Verdict(str):
    """A decision's status string, which it compares, hashes and
    json-serialises as, carrying the certificate: a `witness`, an
    `obstruction` (the refuting place or invariant), a membership `scalar`
    or a `trace` of the argument.  Unknown carries none."""

    __slots__ = ("_status", "witness", "obstruction", "scalar", "trace")

    def __new__(cls, status, witness=None, obstruction=None, scalar=None,
                trace=()):
        self = super().__new__(cls, status)
        # .status hands back this string; str(self) would copy per call
        self._status = str(status)
        self.witness = witness
        self.obstruction = obstruction
        self.scalar = scalar
        self.trace = tuple(trace)
        return self

    @property
    def status(self):
        return self._status

    def __repr__(self):
        return "Verdict(%s)" % self


POSITIVE = 1
NEGATIVE = -1
ZERO = 0


def _frac_tuple(coords):
    return tuple(c if type(c) is Fraction else Fraction(c) for c in coords)


class TotallyRealField:
    """Q[x]/(min_poly) with min_poly monic, irreducible and totally real.

    Real embeddings sigma_1..sigma_s are ordered by the midpoints of the
    root isolators.
    """

    def __init__(self, min_poly):
        p = polyn.trim(min_poly)
        if not p or polyn.degree(p) < 1:
            raise FieldError("minimal polynomial must be nonconstant")
        if p[-1] != 1:
            raise FieldError("minimal polynomial must be monic")
        if any(c.denominator != 1 for c in p):
            raise FieldError("minimal polynomial must have integer coefficients")
        if not polyn.is_squarefree(p):
            raise FieldError("minimal polynomial is not squarefree")
        self.min_poly = p
        self.degree = polyn.degree(p)
        # one isolating interval per distinct real root
        self._isolators = polyn.isolate_real_roots(p)
        if len(self._isolators) != self.degree:
            raise FieldError("polynomial is not totally real")
        if not _is_irreducible(p, self._isolators):
            raise FieldError("minimal polynomial is reducible over Q")
        # between consecutive roots, taken before `_refine` moves them
        self._separators = tuple(hi for _, hi in self._isolators[:-1])

    def _refine(self, ell):
        lo, hi = self._isolators[ell]
        self._isolators[ell] = polyn.refine_isolator(self.min_poly, lo, hi)

    def sign_of_coords(self, coords, ell):
        """Certified sign of sigma_ell(sum coords[i] * theta^i)."""
        coords = polyn.trim(coords)
        if not coords:
            return ZERO
        if ell < 0 or ell >= self.degree:
            raise FieldError("embedding index out of range")
        if len(coords) > self.degree:
            raise FieldError("coordinate vector too long")
        # coords has degree < deg(min_poly) and min_poly is irreducible, so
        # the value at the root is nonzero; refinement must terminate.
        while True:
            lo, hi = self._isolators[ell]
            a, b = polyn.interval_eval(coords, lo, hi)
            if a > 0:
                return POSITIVE
            if b < 0:
                return NEGATIVE
            self._refine(ell)

    def __eq__(self, other):
        return (isinstance(other, TotallyRealField)
                and self.min_poly == other.min_poly)

    def __hash__(self):
        return hash(self.min_poly)

    def __repr__(self):
        return "TotallyRealField(%s)" % (list(map(str, self.min_poly)),)


def _is_irreducible(p, isolators):
    """Is the monic, squarefree, totally real p in Z[x] irreducible?

    Gauss's lemma: p is reducible iff prod_{alpha in S} (x - alpha) is in
    Z[x] for a set S of at most deg(p)/2 of its roots.  Interval arithmetic
    over local copies of the root `isolators` encloses that product's
    coefficients.  An interval with no integer excludes S.  If each holds
    exactly one integer, the product, if integral, is that polynomial q,
    so p mod q decides.  Otherwise the intervals of S are refined.  Only
    the sizes of S that `_factor_sizes` leaves are tried."""
    n, iv = polyn.degree(p), list(isolators)
    for S in itertools.chain.from_iterable(itertools.combinations(
            range(n), k) for k in _factor_sizes(p)):
        while True:
            box = [(1, 1)]  # coefficient intervals, constant first
            for lo, hi in (iv[j] for j in S):
                # times (x - alpha) with alpha in [lo, hi]
                ends = [(-a * lo, -a * hi, -b * lo, -b * hi) for a, b in box]
                box = [(a + min(e), b + max(e)) for (a, b), e in
                       zip([(0, 0)] + box, ends + [(0,)])]
            lows, highs = zip(*((ceil(a), floor(b)) for a, b in box))
            if lows == highs and not polyn.pmod(p, polyn.trim(lows)):
                return False
            if lows == highs or any(a > b for a, b in zip(lows, highs)):
                break
            for j in S:
                iv[j] = polyn.refine_isolator(p, *iv[j])
    return True


def _factor_sizes(p):
    """The degrees k <= deg(p)/2 that a factor in Z[x] of the monic p can
    have.  Such a factor is, mod a prime q that leaves p squarefree, a
    product of irreducible factors of p mod q, so k is a sum of some of
    their degrees; the first five such q of _SMALL_PRIMES are used."""
    n = polyn.degree(p)
    sizes, used = set(range(1, n // 2 + 1)), 0
    for q in _SMALL_PRIMES:
        if used == 5 or not sizes:
            break
        degrees = polyn.factor_degrees_mod(p, q)
        if degrees is None:
            continue
        used += 1
        sums = {0}
        for d in degrees:
            sums |= {t + d for t in sums}
        sizes &= sums
    return sorted(sizes)


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


class Parent:
    """E, L or A: the CMField, CyclicCubicExtension or CyclicAlgebra.  It
    states `_element`, its element type; `_lift(x)`, the one place where a
    lower-level value is lifted or any other refused with a ValueError;
    `_key()`, the data that identifies it; `_dim`, its dimension over Q;
    and `_below`, the parent of the parts `_split` gives (None for E, over
    Q).  The rest is derived here."""

    def coerce(self, x):
        """x if it lies in this parent or an equal one, else _lift(x)."""
        if isinstance(x, self._element):
            if x.parent is self or x.parent == self:
                return x
        return self._lift(x)

    def zero(self):
        return self._lift(0)

    def one(self):
        return self._lift(1)

    def from_rationals(self, qs):
        """The element whose flat Q-coordinates `coords` are qs."""
        qs = _frac_tuple(qs)
        if len(qs) != self._dim:
            raise FieldError("%s needs %d rational coordinates, got %d"
                             % (type(self).__name__, self._dim, len(qs)))
        return self._element(self, qs)

    def _split(self, x):
        """x in L or A as three elements of the level below, whose `coords`
        make up x's: over 1, y, y^2 in E, or over 1, X, X^2 in L."""
        below, c, k = self._below, x.coords, self._below._dim
        return tuple(below._element(below, c[r:r + k])
                     for r in range(0, self._dim, k))

    def _join(self, parts):
        """The element whose `_split` is parts, padded with zeros to three."""
        qs = [q for x in parts for q in x.coords]
        return self._element(self, qs + [Fraction(0)] * (self._dim - len(qs)))

    def _q_basis(self):
        """The elements whose `coords` are the unit vectors."""
        n = self._dim
        return [self.from_rationals([int(a == b) for b in range(n)])
                for a in range(n)]

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class Element:
    """An element of E, L or A: its `parent` (the CMField,
    CyclicCubicExtension or CyclicAlgebra) and `coords`, its flat tuple of
    Q-coordinates: those of a then b in E, and in L and A those of each
    element of the parent's `_split` in turn.  +, -, ==, hash, truth,
    is_zero(), is_rational() and as_fraction() are read off `coords` (index
    0 is the coordinate of 1 at every level), and ** from a type's * and
    inverse().
    Each operand goes through the parent's `coerce` (see Parent), which
    lifts a lower-level value and refuses an element of another field
    with a ValueError (== answers False instead).  An operand from a higher
    level makes the operation return NotImplemented, so Python runs that
    level's reflected method, which lifts this element; equal elements of
    two levels hash alike.  A is noncommutative: only CommutativeElement,
    the base of E's and L's elements, derives /."""

    __slots__ = ("parent", "coords")
    _level = 0  # the level in the tower: E 1, L 2, A 3

    def __init__(self, parent, coords):
        self.parent = parent
        self.coords = tuple(coords)

    def _operand(self, other):
        """other in this element's parent, or NotImplemented if it lies in
        a higher level of the tower."""
        if getattr(other, "_level", 0) > self._level:
            return NotImplemented
        return self.parent.coerce(other)

    def __add__(self, other):
        o = self._operand(other)
        if o is NotImplemented:
            return o
        return type(self)(self.parent, map(add, self.coords, o.coords))

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.parent, map(neg, self.coords))

    def __sub__(self, other):
        o = self._operand(other)
        if o is NotImplemented:
            return o
        return type(self)(self.parent, map(sub, self.coords, o.coords))

    def __rsub__(self, other):
        return -self + other

    def __eq__(self, other):
        try:
            o = self._operand(other)
        except ValueError:  # another field, or no number
            return False
        return o if o is NotImplemented else self.coords == o.coords

    def __hash__(self):
        # without trailing zeros: a lift to a higher level hashes alike
        c = self.coords
        n = len(c)
        while n > 1 and not c[n - 1]:
            n -= 1
        return hash(c[:n] if n > 1 else c[0])

    def __bool__(self):
        return any(self.coords)

    def is_zero(self):
        return not any(self.coords)

    def is_rational(self):
        return not any(self.coords[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise FieldError("element is not rational")
        return self.coords[0]

    def __pow__(self, k):
        """Square-and-multiply; a negative k inverts first."""
        x = self.inverse() if k < 0 else self
        out, k = self.parent.one(), abs(k)
        while k:
            if k & 1:
                out = out * x
            k >>= 1
            if k:
                x = x * x
        return out


class CommutativeElement(Element):
    """An element of E or L: x / y = x * y^-1 either way round, with the
    levels mixed as for *."""

    __slots__ = ()

    def __truediv__(self, other):
        o = self._operand(other)
        return o if o is NotImplemented else self * o.inverse()

    def __rtruediv__(self, other):
        o = self._operand(other)
        return o if o is NotImplemented else o * self.inverse()


class FieldElement(CommutativeElement):
    """a + b*sqrt(delta) with a, b coordinate vectors over the basis of F;
    `a`, `b` and `field` are read-only views."""

    __slots__ = ()
    _level = 1
    field = property(attrgetter("parent"))
    a = property(lambda self: self.coords[:self.parent.s])
    b = property(lambda self: self.coords[self.parent.s:])

    # --- ring operations ------------------------------------------------

    def __mul__(self, other):
        o = self._operand(other)
        if o is NotImplemented:
            return o
        f = self.parent
        a, b, c, d = self.a, self.b, o.a, o.b
        return FieldElement(f, f._fadd(f._fmul(a, c),
                                       f._fmul(f.delta, f._fmul(b, d)))
                            + f._fadd(f._fmul(a, d), f._fmul(b, c)))

    __rmul__ = __mul__

    def inverse(self):
        """theta(x) N(x)^-1 on numerators: N(x) = x theta(x) by `_prod` on
        E's table, inverted by `_finv` unless it is rational, the result
        decoded once.  N(x) outside F raises VerificationError."""
        f = self.parent
        (xs,), d = _encode((self,))
        if not xs:
            raise ZeroDivisionError("inverse of zero")
        (rows, t), (crows, c) = f._table, f._conj
        cs = _sparse(_image(crows, xs))  # theta(x), over d c
        n = _prod(rows, xs, cs)          # N(x), over d^2 c t
        if any(n[f.s:]):
            raise VerificationError("N(x) does not lie in F")
        # (cs / d c) (d^2 c t / n) = cs d t / n
        if not any(n[1:]):  # a rational n needs no _finv
            return _decode(f, [v * d * t for v in _dense(cs, f._dim)], n[0])
        ninv = f._finv(_frac_tuple(n[:f.s])) + (_ZERO,) * f.s  # ns / e
        (ns,), e = _encode((FieldElement(f, ninv),))
        return _decode(f, [v * d for v in _prod(rows, cs, ns)], e)

    # --- structure ------------------------------------------------------

    def conjugate(self):
        """theta: fixes F, negates sqrt(delta)."""
        return FieldElement(self.parent, self.a + tuple(-x for x in self.b))

    def relative_norm(self):
        """x * theta(x); lands in F."""
        n = self * self.conjugate()
        if not n.is_in_F():
            raise VerificationError("x theta(x) does not lie in F")
        return n

    def is_in_F(self):
        return not any(self.b)

    def sign_at(self, ell):
        """Certified sign at the ell-th real embedding; element must be in F."""
        if not self.is_in_F():
            raise FieldError("sign_at requires an element of F")
        return self.field.base.sign_of_coords(self.a, ell)

    def __repr__(self):
        return "FieldElement(a=%s, b=%s)" % (list(map(str, self.a)),
                                             list(map(str, self.b)))


class CMField(Parent):
    """E = F(sqrt(delta)) with delta totally negative in F."""

    _element = FieldElement

    def __init__(self, base, delta_coords):
        self.base = base
        self.s = base.degree
        self._dim, self._below = 2 * self.s, None
        self.delta = _frac_tuple(_pad(delta_coords, self.s))
        for ell in range(self.s):
            if base.sign_of_coords(self.delta, ell) != NEGATIVE:
                raise FieldError("delta must be totally negative")

    # --- element constructors -------------------------------------------

    def element(self, a, b=None):
        s = self.s
        return FieldElement(self, _frac_tuple(_pad(a, s) + _pad(b or (), s)))

    def _lift(self, x):
        """A rational as an element of E; anything else is refused."""
        if isinstance(x, (int, Fraction)):
            return self.from_rational(x)
        raise FieldError("field mismatch: %r" % (x,))

    def _key(self):
        return self.base, self.delta

    def from_rational(self, q):
        return self.element([Fraction(q)])

    def sqrt_delta(self):
        return self.element((), [1])

    def gen_F(self):
        """The power-basis generator of F, as an element of E."""
        if self.s == 1:
            return self.from_rational(-self.base.min_poly[0])
        return self.element([0, 1])

    # --- kernel maps ------------------------------------------------------

    @functools.cached_property
    def _table(self):
        """E's Q-structure table for `_prod`, `_encode`'s (rows, den).  The
        a-th Q-basis element is w^p, times sqrt(delta) from a = s on (w the
        generator of F, p = a mod s), so the product of the a-th and b-th
        is w^(p+q) mod min_poly, in the b-part if one of them has
        sqrt(delta), times delta if both do.  Entries with equal p + q and
        sqrt(delta) count are shared."""
        s, zero = self.s, (_ZERO,) * self.s
        prods = {}
        for k in range(2 * s - 1):
            w = _frac_tuple(_pad(polyn.pmod((_ZERO,) * k + (Fraction(1),),
                                            self.base.min_poly), s))
            prods[k, 0], prods[k, 1] = w + zero, zero + w
            prods[k, 2] = self._fmul(self.delta, w) + zero
        rows, den = _encode([FieldElement(self, c) for c in prods.values()])
        entries = dict(zip(prods, rows))
        return [[entries[a % s + b % s, (a >= s) + (b >= s)]
                 for b in range(2 * s)] for a in range(2 * s)], den

    @functools.cached_property
    def _conj(self):
        """theta as a Q-linear map, `_encode`'s (rows, den)."""
        return _encode([x.conjugate() for x in self._q_basis()])

    # --- F arithmetic on raw coordinate vectors -------------------------

    def _fmul(self, u, v):
        w = polyn.pmod(polyn.pmul(polyn.trim(u), polyn.trim(v)),
                       self.base.min_poly)
        return _frac_tuple(_pad(w, self.s))

    def _fadd(self, u, v):
        return tuple(x + y for x, y in zip(u, v))

    def _finv(self, u):
        p = polyn.trim(u)
        if not p:
            raise ZeroDivisionError("inverse of zero in F")
        # extended Euclid: p*inv = 1 mod min_poly
        r0, r1 = self.base.min_poly, p
        s0, s1 = (), (Fraction(1),)
        while r1:
            q, r = polyn.pdivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, polyn.psub(s0, polyn.pmul(q, s1))
        if polyn.degree(r0) != 0:
            raise VerificationError(
                "u shares a factor with the minimal polynomial of F")
        inv = polyn.pscale(s0, 1 / r0[0])
        return _frac_tuple(_pad(inv, self.s))

    def __repr__(self):
        return "CMField(F=%r, delta=%s)" % (self.base, list(map(str, self.delta)))


def _pad(coords, s):
    c = list(coords)
    if len(c) > s:
        raise FieldError("coordinate vector too long")
    return c + [Fraction(0)] * (s - len(c))


# --- the integer kernel ----------------------------------------------------

_ZERO = Fraction(0)


def _encode(elements):
    """(rows, den) for elements of one level: row k lists (a, n) for each
    nonzero Q-coordinate n / den of elements[k], a its index in `coords`
    and den the lcm of all their denominators.  The one encoder of
    operands, of L's structure table and of the Q-linear maps tau, c and
    an involution of A."""
    ratios = [[q.as_integer_ratio() for q in x.coords] for x in elements]
    den = lcm(*[e for r in ratios for _, e in r])
    return [[(a, n * (den // e)) for a, (n, e) in enumerate(r) if n]
            for r in ratios], den


def _mul(table, x, y):
    """x y by the Q-structure table (rows, den) of their parent, rows[a][b]
    `_encode`'s row of the product of the a-th and b-th `_q_basis` element."""
    rows, den = table
    (xs, ys), d = _encode((x, y))
    return _decode(x.parent, _prod(rows, xs, ys), d * d * den)


def _prod(rows, xs, ys):
    """The numerators of xs ys, both `_encode`'s rows, by the table rows."""
    acc = [0] * len(rows)
    for a, u in xs:
        row = rows[a]
        for b, v in ys:
            uv = u * v
            for k, c in row[b]:
                acc[k] += uv * c
    return acc


def _apply(qmap, x):
    """x under the Q-linear map qmap of its parent, `_encode`'s (rows, den)
    with row a the image of the a-th element of `Parent._q_basis`."""
    rows, den = qmap
    (xs,), dx = _encode((x,))
    return _decode(x.parent, _image(rows, xs), dx * den)


def _image(rows, xs):
    """The numerators of the image of `_encode`'s row xs by the map rows."""
    acc = [0] * len(rows)
    for a, u in xs:
        for k, c in rows[a]:
            acc[k] += u * c
    return acc


def _sparse(acc):
    """`_encode`'s row of the numerators acc, for a further `_prod`."""
    return [(k, n) for k, n in enumerate(acc) if n]


def _dense(u, n):
    """The n numerators of `_encode`'s row u, for `_decode`."""
    acc = [0] * n
    for k, c in u:
        acc[k] = c
    return acc


def _same(u, du, v, dv):
    """Do `_encode`'s rows u over du and v over dv hold one vector?"""
    return [(k, n * dv) for k, n in u] == [(k, n * du) for k, n in v]


def _decode(parent, acc, den):
    """The element of parent whose `coords` are n / den, n in acc."""
    return parent.from_rationals([Fraction(n, den) if n else _ZERO
                                  for n in acc])


# --- constructions -------------------------------------------------------

def rationals():
    """Q as a degree-one totally real field (root of x)."""
    return TotallyRealField([0, 1])


def gaussian_field():
    """Q(i) as a CM field over Q."""
    return make_cyclotomic(4)


def make_cyclotomic(r):
    """Q(zeta_r) as a CM field over its maximal real subfield.

    F = Q(zeta_r + zeta_r^{-1}), delta = (zeta_r + zeta_r^{-1})^2 - 4,
    so that sqrt(delta) = zeta_r - zeta_r^{-1}.
    """
    if r < 3 or r % 4 == 2:
        raise FieldError("need r >= 3 with r != 2 mod 4")
    psi = polyn.real_cyclotomic(r)
    base = TotallyRealField(psi)
    # delta = w^2 - 4 reduced mod psi
    w2 = polyn.pmod((Fraction(0), Fraction(0), Fraction(1)), psi)
    delta = polyn.padd(w2, (Fraction(-4),))
    return CMField(base, _pad(list(delta), base.degree))


def zeta(field, r):
    """A primitive r-th root of unity in a field from make_cyclotomic.

    z0 = (w + sqrt(delta)) / 2 is the field's defining primitive root; its
    order k is found by iteration and z0^(k/r) is returned, so r may be any
    divisor of k; r < 1 is refused."""
    if r < 1:
        raise FieldError("r must be a positive integer, got %r" % (r,))
    w = field.gen_F()
    z0 = (w + field.sqrt_delta()) / 2
    one = field.one()
    p, k = z0, 1
    while p != one:
        p = p * z0
        k += 1
        if k > 16 * (2 * field.s + 1):
            raise FieldError("defining root is not torsion")
    if k % r:
        raise FieldError("field contains no primitive %d-th root" % r)
    return z0 ** (k // r)


def cyclotomic_field_containing(k):
    """(CMField, zeta_k) for any k >= 3; handles k = 2 mod 4 via k/2."""
    if k % 4 == 2:
        f = make_cyclotomic(k // 2)
        z = zeta(f, k // 2)
        return f, -(z ** (((k // 2) + 1) // 2))
    f = make_cyclotomic(k)
    return f, zeta(f, k)


# --- weak approximation --------------------------------------------------

def validate_sign_pattern(field, pattern):
    pattern = tuple(pattern)
    if len(pattern) != field.degree:
        raise FieldError("pattern length must equal the field degree")
    if any(p not in (POSITIVE, NEGATIVE) for p in pattern):
        raise FieldError("pattern entries must be +1 or -1")
    return pattern


def weak_approx_find(field, pattern):
    """Element of F with prescribed signs at every real embedding, by the
    approximation theorem (Neukirch II Sec. 3): the last sign times the
    product of x - r over the `_separators` r where the pattern changes
    sign.  Each sign is certified, or VerificationError is raised."""
    pattern = validate_sign_pattern(field, pattern)
    q = (Fraction(pattern[-1]),)
    for r, a, b in zip(field._separators, pattern, pattern[1:]):
        if a != b:
            q = polyn.pmul(q, (-r, Fraction(1)))
    coords = _frac_tuple(_pad(q, field.degree))
    if any(field.sign_of_coords(coords, ell) != e
           for ell, e in enumerate(pattern)):
        raise VerificationError("sign pattern %s not met" % (pattern,))
    return coords


def _candidates(dim, l1_first=False):
    """Nonzero integer vectors of length dim, the one enumerator behind every
    bounded search, endless: shells of max-norm 1, 2, ..., each in
    lexicographic order or, with `l1_first`, lazily by L1 norm and then in
    descending lexicographic order.  Callers take budgets with islice."""
    for norm in itertools.count(1):
        vecs = (v for l1 in range(norm, dim * norm + 1)
                for v in _l1_vectors(dim, norm, l1)) if l1_first else \
            itertools.product(range(-norm, norm + 1), repeat=dim)
        yield from (v for v in vecs if max(map(abs, v)) == norm)


def _l1_vectors(dim, norm, l1):
    """The vectors in [-norm, norm]^dim of L1 norm l1, lazily and in
    descending lexicographic order."""
    if not 0 <= l1 <= dim * norm:
        return ()
    if dim == 0:
        return [()]
    return ((v,) + tail for v in range(norm, -norm - 1, -1)
            for tail in _l1_vectors(dim - 1, norm, l1 - abs(v)))
