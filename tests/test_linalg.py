from fractions import Fraction

from hypothesis import given, strategies as st

from cmforms import linalg
from cmforms.field import gaussian_field, zeta

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
    At = linalg.conj_transpose(A, lambda x: x.conjugate())
    assert At[0][1] == E.zero() and At[1][0] == -i
    assert linalg.trace(A) == E.one() - i


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
