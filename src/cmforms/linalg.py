"""Exact dense linear algebra over any field-like element type.

Elements must support +, -, *, unary -, inverse() or /, equality, and
is_zero(); `congruence_diagonal` and `conj_transpose` read each entry's
own conjugate().  Matrices are tuples of tuples.  Used both for CM-field
matrices and for matrices over the cubic extension in the algebra module.
`mat_mul` skips zero terms: the catalog generators, the embedded integer
matrices and the diagonal forms are mostly zeros, so a product of two
such matrices costs far fewer than n^3 multiplications.
"""

from fractions import Fraction


def mat(rows):
    return tuple(tuple(r) for r in rows)


def identity(n, one, zero):
    return mat([[one if i == j else zero for j in range(n)] for i in range(n)])


def mat_add(A, B):
    return mat([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)])


def mat_scale(A, s):
    return mat([[s * a for a in r] for r in A])


def shape(M):
    """M's shape as text, "rows x width"; the widths of a ragged M are
    listed, as in "3 x 2/3"."""
    return "%d x %s" % (len(M), "/".join(
        map(str, sorted({len(r) for r in M}))) or "0")


def mat_mul(A, B):
    """A B, with every product that has a zero factor skipped.

    Each entry sums the terms A[i][t] B[t][j] with both factors nonzero,
    in increasing t; an entry with no such term is a zero of the element
    type.  Raises ValueError unless A's rows all have length len(B) and
    B's rows one common length."""
    k = len(B)
    widths = {len(r) for r in B}
    if any(len(r) != k for r in A) or len(widths) > 1:
        raise ValueError("cannot multiply a %s by a %s matrix"
                         % (shape(A), shape(B)))
    m = widths.pop() if widths else 0
    B_terms = [[(j, b) for j, b in enumerate(row) if not b.is_zero()]
               for row in B]
    zero = None
    out = []
    for row in A:
        acc = [None] * m
        for a, terms in zip(row, B_terms):
            if not terms or a.is_zero():
                continue
            for j, b in terms:
                p = a * b
                acc[j] = p if acc[j] is None else acc[j] + p
        if any(x is None for x in acc):
            if zero is None:
                zero = A[0][0] - A[0][0]
            acc = [zero if x is None else x for x in acc]
        out.append(tuple(acc))
    return tuple(out)


def mat_eq(A, B):
    """Entrywise equality; False when the shapes differ."""
    return len(A) == len(B) and all(
        len(ra) == len(rb) and all(a == b for a, b in zip(ra, rb))
        for ra, rb in zip(A, B))


def conj_transpose(A):
    """A^H; raises ValueError on an empty or ragged A."""
    if not A or len({len(r) for r in A}) > 1:
        raise ValueError("cannot transpose a %s matrix" % shape(A))
    return mat([[x.conjugate() for x in col] for col in zip(*A)])


def trace(A):
    acc = A[0][0]
    for i in range(1, len(A)):
        acc = acc + A[i][i]
    return acc


def det(A):
    """Gaussian elimination with exact division."""
    n = len(A)
    M = [list(r) for r in A]
    sign = 1
    result = None
    for col in range(n):
        piv = next((r for r in range(col, n) if not M[r][col].is_zero()), None)
        if piv is None:
            return A[0][0] - A[0][0]  # zero of the right type
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            sign = -sign
        p = M[col][col]
        result = p if result is None else result * p
        pinv = p.inverse()
        for r in range(col + 1, n):
            f = M[r][col] * pinv
            if f.is_zero():
                continue
            for c in range(col, n):
                M[r][c] = M[r][c] - f * M[col][c]
    return result if sign == 1 else -result


def congruence_diagonal(A):
    """Pivots d_1..d_n of a congruence P A P^H = diag(d) with det P = +-1.

    A must be hermitian for its entries' conjugate(); only its entries on
    and above the diagonal are read.  Each step pivots on the first nonzero
    diagonal entry of the Schur complement, moved to the front by a
    symmetric row/column swap.  If that whole diagonal is 0 but row k has an
    entry h = A[k][j] != 0, the substitution e_k += h e_j makes the pivot
    2 h conj(h) != 0, so no 2x2 pivots are needed; if row k is 0, its pivot
    is 0 and A is singular.  Hence prod(d) = det A, and by Sylvester's law
    of inertia the signs of the d_i give the inertia of A.  Raises
    ValueError if a pivot is not fixed by the conjugation."""
    n = len(A)
    M = [list(r) for r in A]
    for i in range(n):
        for j in range(i):
            M[i][j] = M[j][i].conjugate()
    pivots = []
    for k in range(n):
        row = M[k]
        p = next((i for i in range(k, n) if not M[i][i].is_zero()), None)
        if p is None:
            j = next((j for j in range(k + 1, n) if not row[j].is_zero()),
                     None)
            if j is None:
                pivots.append(row[k])
                continue
            h = row[j]
            norm = h * h.conjugate()
            row[k] = norm + norm
            for c in range(k + 1, n):
                if not M[j][c].is_zero():
                    row[c] = row[c] + h * M[j][c]
                M[c][k] = row[c].conjugate()
        elif p != k:
            M[k], M[p] = M[p], M[k]
            for r in M:
                r[k], r[p] = r[p], r[k]
            row = M[k]
        d = row[k]
        if d.conjugate() != d:
            raise ValueError("pivot %d is not fixed by the conjugation" % k)
        pivots.append(d)
        dinv = None
        # Schur complement on the upper triangle, lower by conjugation
        for i in range(k + 1, n):
            if row[i].is_zero():
                continue
            if dinv is None:
                dinv = d.inverse()
            f = row[i].conjugate() * dinv
            Mi = M[i]
            Mi[i] = Mi[i] - f * row[i]
            for j in range(i + 1, n):
                if not row[j].is_zero():
                    Mi[j] = Mi[j] - f * row[j]
                    M[j][i] = Mi[j].conjugate()
    return pivots


def inverse(A):
    n = len(A)
    nz = next((x for r in A for x in r if not x.is_zero()), None)
    if nz is None:
        raise ZeroDivisionError("matrix is singular")
    one = nz * nz.inverse()
    zero = nz - nz
    M = [list(r) + [one if i == j else zero for j in range(n)]
         for i, r in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not M[r][col].is_zero()), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        M[col], M[piv] = M[piv], M[col]
        pinv = M[col][col].inverse()
        M[col] = [x * pinv for x in M[col]]
        for r in range(n):
            if r == col or M[r][col].is_zero():
                continue
            f = M[r][col]
            M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return mat([row[n:] for row in M])


def char_poly(A, one):
    """Monic characteristic polynomial det(xI - A) via Faddeev-LeVerrier.

    Returns coefficients constant-first, length n+1, entries of the element
    type.  Requires division by small integers (char 0)."""
    n = len(A)
    zero = one - one
    coeffs = [zero] * (n + 1)
    coeffs[n] = one
    M = identity(n, one, zero)
    for k in range(1, n + 1):
        Mk = mat_mul(A, M)
        c = trace(Mk) * Fraction(1, k)
        coeffs[n - k] = -c
        M = mat_add(Mk, mat_scale(identity(n, one, zero), -c))
    return tuple(coeffs)
