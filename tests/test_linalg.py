import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cmforms import linalg
from cmforms.calgebra import builtin_example
from cmforms.field import gaussian_field, make_cyclotomic, zeta

E = gaussian_field()


def _emat(rows):
    return linalg.mat([[E.from_rational(x) for x in row] for row in rows])


def test_det_and_inverse():
    A = _emat([[2, 1], [1, 1]])
    assert linalg.det(A) == E.one()
    Ainv = linalg.inverse(A)
    I = linalg.identity(2, E.one(), E.zero())
    assert linalg.mat_eq(linalg.mat_mul(A, Ainv), I)
    assert linalg.mat_eq(linalg.mat_mul(Ainv, A), I)


def test_det_singular():
    A = _emat([[1, 2], [2, 4]])
    assert linalg.det(A).is_zero()


def test_char_poly_constant_first():
    A = _emat([[2, 1], [1, 2]])  # eigenvalues 1, 3: x^2 - 4x + 3
    assert linalg.char_poly(A, E.one()) == \
        (E.from_rational(3), E.from_rational(-4), E.one())


def test_char_poly_over_complex_entries():
    i = zeta(E, 4)
    A = linalg.mat([[E.zero(), i], [-i, E.zero()]])  # eigenvalues +-1
    assert linalg.char_poly(A, E.one()) == \
        (E.from_rational(-1), E.zero(), E.one())


def test_conj_transpose_and_trace():
    i = zeta(E, 4)
    A = linalg.mat([[E.one(), i], [E.zero(), -i]])
    At = linalg.conj_transpose(A)
    assert At[0][1] == E.zero() and At[1][0] == -i
    assert linalg.trace(A) == E.one() - i


@pytest.mark.parametrize("A, shape", [
    ((), "0 x 0"),
    (((E.one(),), (E.one(), E.zero())), "2 x 1/2"),
    (((E.one(), E.zero()), (E.one(),)), "2 x 1/2"),
])
def test_conj_transpose_refuses_empty_and_ragged_matrices(A, shape):
    with pytest.raises(ValueError, match="cannot transpose a %s matrix"
                       % shape):
        linalg.conj_transpose(A)


@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_char_poly_constant_term_is_det(rows):
    A = _emat(rows)
    coeffs = linalg.char_poly(A, E.one())
    # det(xI - A) at x = 0 is (-1)^n det(A)
    assert coeffs[0] == Fraction(-1) ** 3 * linalg.det(A)


@given(st.lists(st.lists(st.integers(-5, 5), min_size=2, max_size=2),
                min_size=2, max_size=2),
       st.lists(st.lists(st.integers(-5, 5), min_size=2, max_size=2),
                min_size=2, max_size=2))
def test_det_multiplicative(r1, r2):
    A, B = _emat(r1), _emat(r2)
    assert linalg.det(linalg.mat_mul(A, B)) == linalg.det(A) * linalg.det(B)


def test_mat_eq_is_false_on_any_shape_mismatch():
    I2 = linalg.identity(2, E.one(), E.zero())
    I3 = linalg.identity(3, E.one(), E.zero())
    assert linalg.mat_eq(I2, I2) and linalg.mat_eq(I3, I3)
    assert not linalg.mat_eq(I2, I3) and not linalg.mat_eq(I3, I2)
    assert not linalg.mat_eq(I2, (I2[0], I2[1][:1]))
    assert not linalg.mat_eq(I2, I2[:1])


@pytest.mark.parametrize("A, B, shapes", [
    ([[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1]], "a 2 x 3 by a 2 x 2 matrix"),
    ([[1, 0], [0, 1]], [[1, 0, 0]], "a 2 x 2 by a 1 x 3 matrix"),
    ([[1, 0], [0]], [[1, 0], [0, 1]], "a 2 x 1/2 by a 2 x 2 matrix"),
    ([[1, 0], [0, 1]], [[1, 0], [0]], "a 2 x 2 by a 2 x 1/2 matrix"),
], ids=["2x3 by 2x2", "2x2 by 1x3", "ragged A", "ragged B"])
def test_mat_mul_refuses_mismatched_shapes(A, B, shapes):
    with pytest.raises(ValueError, match=shapes):
        linalg.mat_mul(_emat(A), _emat(B))


def _schoolbook(A, B):
    """The dense product: every one of the n k m terms, zeros included."""
    return tuple(tuple(sum((A[i][t] * B[t][j] for t in range(1, len(B))),
                           A[i][0] * B[0][j])
                       for j in range(len(B[0]))) for i in range(len(A)))


@functools.cache
def _ring(name):
    """(element from small integer coordinates, number of coordinates)."""
    if name == "L":
        ext = builtin_example()[0].ext
        Qi = ext.E
        return (lambda c: ext.element([Qi.element([c[k]], [c[k + 1]])
                                       for k in (0, 2, 4)]), 6)
    F = gaussian_field() if name == "Q(i)" else make_cyclotomic(5)
    s = F.s
    return lambda c: F.element(c[:s], c[s:]), 2 * s


def _home(x):
    return x.field if hasattr(x, "field") else x.ext


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_mat_mul_equals_the_schoolbook_product(data):
    name = data.draw(st.sampled_from(["Q(i)", "Q(zeta5)", "L"]))
    element, ncoords = _ring(name)
    n, k, m = (data.draw(st.integers(1, 4)) for _ in range(3))
    # zero-heavy: two thirds of the draws are None (an explicit zero), and
    # random coordinates can be all zero too
    entry = st.one_of(st.none(), st.none(), st.lists(
        st.integers(-3, 3), min_size=ncoords, max_size=ncoords))

    def matrix(rows, cols, zero_row, zero_col, all_zero):
        M = [[data.draw(entry) for _ in range(cols)] for _ in range(rows)]
        return linalg.mat(
            [[element([0] * ncoords if c is None or all_zero
                      or i == zero_row or j == zero_col else c)
              for j, c in enumerate(row)] for i, row in enumerate(M)])

    def index(size):
        return data.draw(st.one_of(st.none(), st.integers(0, size - 1)))

    all_zero = data.draw(st.booleans())
    A = matrix(n, k, index(n), index(k), all_zero)
    B = matrix(k, m, index(k), index(m), False)
    P = linalg.mat_mul(A, B)
    dense = _schoolbook(A, B)
    assert len(P) == n and all(len(row) == m for row in P)
    assert linalg.mat_eq(P, dense)
    for x in (x for row in P for x in row):
        assert type(x) is type(A[0][0]) and _home(x) == _home(A[0][0])
    if all_zero:
        assert all(x.is_zero() for row in P for x in row)


@pytest.mark.parametrize("name", ["Q(i)", "Q(zeta5)", "L"])
def test_all_zero_product_of_nonzero_operands(name):
    # every term has a zero factor, so no entry has a term to sum
    element, ncoords = _ring(name)
    x, y, zero = (element([c] * ncoords) for c in (1, 2, 0))
    A = linalg.mat([[x, zero], [x, zero]])
    B = linalg.mat([[zero, zero, zero], [y, y, y]])
    P = linalg.mat_mul(A, B)
    assert len(P) == 2 and all(len(row) == 3 for row in P)
    for z in (z for row in P for z in row):
        assert z.is_zero() and type(z) is type(x) and _home(z) == _home(x)
