import random
from fractions import Fraction
from math import prod

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cmforms import (DegenerateFormError, EQUIVALENT, HermitianForm,
                     NOT_EQUIVALENT, diagonal_form, direct_sum, equivalent,
                     gaussian_field, invariants, is_admissible, linalg,
                     make_cyclotomic, signature_at, signature_profile,
                     twist_determinant, zeta)
from cmforms.calgebra import (AlgebraError, CyclicCubicExtension,
                              builtin_example)
from cmforms.field import FieldElement, VerificationError
from cmforms.hermitian import UNKNOWN_EQUIVALENCE, _squarefree_kernel, with_slot
from cmforms.polyn import sign_variations
from oracles import congruence_diagonal


def test_hermitian_validation():
    E = gaussian_field()
    i = zeta(E, 4)
    ok = linalg.mat([[E.from_rational(2), i], [-i, E.from_rational(3)]])
    H = HermitianForm(E, ok)
    assert H.dim == 2
    bad = linalg.mat([[E.from_rational(2), i], [i, E.from_rational(3)]])
    with pytest.raises(ValueError):
        HermitianForm(E, bad)
    with pytest.raises(DegenerateFormError):
        diagonal_form(E, [1, 0])


def test_a_form_refuses_entries_of_another_field():
    E, E5 = gaussian_field(), make_cyclotomic(5)
    H5 = diagonal_form(E5, [1, 1, -1])
    # over its own field the form is not admissible
    assert signature_profile(H5) == ((2, 1), (2, 1))
    assert not is_admissible(H5)
    with pytest.raises(ValueError, match=r"field mismatch: FieldElement"):
        HermitianForm(E, H5.entries)
    with pytest.raises(ValueError, match=r"field mismatch: FieldElement"):
        diagonal_form(E, [1, E5.one(), -1])
    # rationals are coerced into the field
    assert HermitianForm(E, [[1, 0], [0, Fraction(-1, 2)]]) == \
        diagonal_form(E, [1, Fraction(-1, 2)])


def test_a_form_over_L_refuses_entries_of_another_field():
    algebra, _ = builtin_example()
    ext = algebra.ext
    one, zero = ext.one(), ext.zero()
    e5_one = make_cyclotomic(5).one()
    for stranger, text in [(e5_one, "is not in E"),
                           (algebra.one(), "extension mismatch")]:
        with pytest.raises(AlgebraError, match=text):
            HermitianForm(ext, [[one, zero], [zero, stranger]])
    # comparing with an element of another field is False, not an error
    assert one != e5_one and algebra.one() != e5_one
    assert one == ext.E.one() and algebra.one() == one


def test_signature_diagonal():
    E = gaussian_field()
    H = diagonal_form(E, [1, 1, -1])
    assert signature_at(H, 0) == (2, 1)
    assert signature_profile(H) == ((2, 1),)


def test_signature_off_diagonal():
    # [[0, i], [-i, 0]] has eigenvalues +-1
    E = gaussian_field()
    i = zeta(E, 4)
    H = HermitianForm(E, linalg.mat([[E.zero(), i], [-i, E.zero()]]))
    assert signature_at(H, 0) == (1, 1)


def test_signature_varies_across_embeddings():
    E = make_cyclotomic(5)
    w = E.gen_F()  # one positive, one negative embedding
    H = diagonal_form(E, [E.one(), w])
    profile = signature_profile(H)
    assert sorted(profile) == [(1, 1), (2, 0)]


def test_invariants_and_det_class():
    E = gaussian_field()
    H = diagonal_form(E, [1, 1, -1])
    inv = invariants(H)
    assert inv.dim == 3
    assert set(inv.sigma()) == {1}
    assert inv.det_class == E.from_rational(-1)
    # det -4 lands in the same class as -1 (4 is a norm)
    inv2 = invariants(diagonal_form(E, [1, 1, -4]))
    assert inv2.det_class == E.from_rational(-1)


def test_equivalent_by_congruence():
    E = gaussian_field()
    i = zeta(E, 4)
    H = diagonal_form(E, [1, 2, -1])
    T = linalg.mat([[E.one(), i, E.zero()],
                    [E.zero(), E.one(), E.from_rational(2)],
                    [i, E.zero(), E.one() + i]])
    conj_T = linalg.conj_transpose(T)
    H2 = HermitianForm(E, linalg.mat_mul(conj_T,
                                         linalg.mat_mul(H.entries, T)))
    assert equivalent(H, H2) == EQUIVALENT


def test_not_equivalent_cases():
    E = gaussian_field()
    H1 = diagonal_form(E, [1, 1, -1])
    assert equivalent(H1, diagonal_form(E, [1, -1, -1])) == NOT_EQUIVALENT
    assert equivalent(H1, diagonal_form(E, [1, 1, -3])) == NOT_EQUIVALENT
    assert equivalent(H1, diagonal_form(E, [1, 1])) == NOT_EQUIVALENT
    assert equivalent(H1, diagonal_form(E, [1, 1, -4])) == EQUIVALENT


def test_admissibility():
    E = gaussian_field()
    assert is_admissible(diagonal_form(E, [1, 1, -1]))
    assert not is_admissible(diagonal_form(E, [1, 1, 1]))
    # a negated admissible form defines the same unitary group
    assert is_admissible(diagonal_form(E, [1, -1, -1]))
    # with two embeddings the form must be definite away from the first
    E5 = make_cyclotomic(5)
    w = E5.gen_F()  # roots 2cos(4pi/5) ~ -1.618 and 2cos(2pi/5) ~ 0.618
    lo = 1 + w  # negative at embedding 0, positive at embedding 1
    assert lo.sign_at(0) < 0 and lo.sign_at(1) > 0
    assert is_admissible(diagonal_form(E5, [E5.one(), E5.one(), lo]))
    # indefinite at the non-distinguished embedding: not admissible
    hi = w - 1
    assert hi.sign_at(0) < 0 and hi.sign_at(1) < 0
    assert not is_admissible(diagonal_form(E5, [E5.one(), E5.one(), hi,
                                                -E5.one()]))
    assert not is_admissible(diagonal_form(E5, [E5.one(), E5.one(), hi]))


def test_direct_sum():
    E = gaussian_field()
    H = direct_sum(diagonal_form(E, [1, 2]), diagonal_form(E, [-1]))
    assert H.dim == 3
    assert signature_at(H, 0) == (2, 1)


def test_twist_determinant():
    E = gaussian_field()
    positive = diagonal_form(E, [1, 2])
    H_other = diagonal_form(E, [1, 1, -3])
    assert is_admissible(H_other)
    twisted = twist_determinant(positive, H_other)
    assert twisted.dim == 3
    assert is_admissible(twisted)
    assert equivalent(twisted, H_other) == EQUIVALENT


def test_twist_determinant_into_a_non_diagonal_form():
    # H' = T^H diag(1, 1, -3) T with T unipotent: only det H' matters
    E = gaussian_field()
    i = zeta(E, 4)
    one, zero = E.one(), E.zero()
    T = linalg.mat([[one, i, 2 - i], [zero, one, 1 + i], [zero, zero, one]])
    conj_T = linalg.conj_transpose(T)
    H_prime = HermitianForm(E, linalg.mat_mul(
        conj_T, linalg.mat_mul(diagonal_form(E, [1, 1, -3]).entries, T)))
    assert any(not H_prime.entries[0][k].is_zero() for k in (1, 2))
    twisted = twist_determinant(diagonal_form(E, [1, 2]), H_prime)
    assert twisted.det == H_prime.det == E.from_rational(-3)
    assert equivalent(twisted, H_prime) == EQUIVALENT


def test_with_slot_certifies_the_slot_over_q_zeta5():
    E5 = make_cyclotomic(5)
    w = E5.gen_F()  # roots 2cos(4pi/5) ~ -1.618 and 2cos(2pi/5) ~ 0.618
    block = diagonal_form(E5, [1, 2])
    # positive at every place, then negative at every place
    for wrong in (E5.one(), w - 1):
        with pytest.raises(VerificationError):
            with_slot(block, wrong)
    slot = 1 + w  # negative at embedding 0, positive at embedding 1
    H = with_slot(block, slot)
    assert H == direct_sum(block, diagonal_form(E5, [slot]))
    assert H.det == block.det * slot
    assert is_admissible(H)


def _kernel_from_sympy(q):
    q = Fraction(q)
    factors = sympy.factorint(abs(q.numerator * q.denominator))
    return (-1 if q < 0 else 1) * prod(p for p, e in factors.items() if e % 2)


def test_det_kernel_matches_a_full_factorisation():
    # every prime factor below 10^6, so the bounded factoring completes
    rng = random.Random(20)
    primes = list(sympy.primerange(2, 10 ** 6))
    for _ in range(300):
        picks = [rng.choice(primes[:15] if rng.random() < 0.5 else primes)
                 for _ in range(rng.randint(0, 6))]
        n = prod(p ** rng.randint(1, 4) for p in picks)
        d = prod(rng.choice(primes[:15]) for _ in range(rng.randint(0, 2)))
        q = Fraction(rng.choice([-1, 1]) * n, d)
        assert _squarefree_kernel(q) == _kernel_from_sympy(q), q


def test_det_kernel_keeps_an_unsplit_cofactor_whole():
    # two 30-digit primes: rho splits neither within the step budget
    p, q = 10 ** 29 + 319, 3 * 10 ** 29 + 7
    assert _squarefree_kernel(Fraction(-p * q)) == -p * q
    assert _squarefree_kernel(Fraction(12 * (p * q) ** 2, 5)) == 15


def test_random_congruence_respects_invariants():
    random.seed(7)
    E = gaussian_field()
    i = zeta(E, 4)
    vals = [1, -1, 2, -2, 3, -3, 5, -5]
    for _ in range(10):
        H = diagonal_form(E, random.sample(vals, 3))
        # random invertible T over Z[i]
        while True:
            T = linalg.mat([[E.from_rational(random.randint(-2, 2))
                             + random.randint(-2, 2) * i
                             for _ in range(3)] for _ in range(3)])
            if not linalg.det(T).is_zero():
                break
        conj_T = linalg.conj_transpose(T)
        H2 = HermitianForm(E, linalg.mat_mul(
            conj_T, linalg.mat_mul(H.entries, T)))
        assert equivalent(H, H2) == EQUIVALENT
        assert invariants(H).sigma() == invariants(H2).sigma()


_FIELDS = (gaussian_field(), make_cyclotomic(5))
_coord = st.integers(-2, 2)


@st.composite
def _hermitian_matrices(draw):
    """Random hermitian matrices over Q(i) or Q(zeta5), n <= 4; about half
    have an all-zero diagonal, which needs the e_k += h e_j step."""
    E = draw(st.sampled_from(_FIELDS))
    n = draw(st.integers(1, 4))
    zero_diagonal = draw(st.booleans())
    coords = st.lists(_coord, min_size=E.s, max_size=E.s)
    M = [[None] * n for _ in range(n)]
    for j in range(n):
        M[j][j] = E.zero() if zero_diagonal else E.element(draw(coords))
        for k in range(j + 1, n):
            M[j][k] = E.element(draw(coords), draw(coords))
            M[k][j] = M[j][k].conjugate()
    return E, linalg.mat(M)


@settings(deadline=None)
@given(_hermitian_matrices())
def test_diagonalisation_matches_char_poly_and_det(case):
    E, M = case
    det = linalg.det(M)
    if det.is_zero():
        with pytest.raises(DegenerateFormError):
            HermitianForm(E, M)
        return
    H = HermitianForm(E, M)
    assert H.det == det
    # Descartes: all roots of det(xI - H) are real and nonzero
    coeffs = linalg.char_poly(M, E.one())
    descartes = []
    for ell in range(E.s):
        e_plus = sign_variations([c.sign_at(ell) for c in coeffs])
        descartes.append((e_plus, H.dim - e_plus))
    assert signature_profile(H) == tuple(descartes)


def _shifted_builtin_L():
    """The built-in L on the generator y' = eta + i/2, where
    c(y') = y' - i: its conjugation's Q-linear map has denominator 2."""
    ext = builtin_example()[0].ext
    E = ext.E
    i = E.sqrt_delta() / 2
    g = [E.zero()] * 4  # g(y' - i/2) by Horner, constant first
    for c in reversed(ext.g):
        g = [c - i / 2 * g[0]] + [g[k] - i / 2 * g[k + 1] for k in range(3)]
    # tau(y') = (y' - i/2)^2 - 2 + i/2
    tau = [i * i / 4 - 2 + i / 2, -i, E.one()]
    return CyclicCubicExtension(E, g, tau, [-i, 1])


_L, _SHIFTED_L = builtin_example()[0].ext, _shifted_builtin_L()
_frac = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def _oracle_cases(draw):
    """Random hermitian matrices: n <= 4 over Q(i), Q(zeta5) or Q(zeta8),
    3 x 3 over the built-in L or over the shifted one; about half have an
    all-zero diagonal."""
    P = draw(st.sampled_from(_FIELDS + (make_cyclotomic(8), _L, _SHIFTED_L)))
    n = draw(st.integers(1, 4)) if isinstance(P.one(), FieldElement) else 3
    zero_diagonal = draw(st.booleans())

    def element():
        return P.from_rationals(draw(st.lists(
            _frac, min_size=P._dim, max_size=P._dim)))
    M = [[None] * n for _ in range(n)]
    for j in range(n):
        z = element()
        M[j][j] = P.zero() if zero_diagonal else z + z.conjugate()
        for k in range(j + 1, n):
            M[j][k] = element() if draw(st.booleans()) else P.zero()
            M[k][j] = M[j][k].conjugate()
    return P, linalg.mat(M)


@settings(deadline=None)
@given(_oracle_cases())
def test_congruence_on_numerators_matches_the_element_oracle(case):
    P, M = case
    pivots = congruence_diagonal(M)
    assert linalg.congruence_diagonal(M) == pivots
    if any(d.is_zero() for d in pivots):
        with pytest.raises(DegenerateFormError):
            HermitianForm(P, M)
        return
    H = HermitianForm(P, M)
    det = pivots[0]
    for d in pivots[1:]:
        det = det * d
    assert H.pivots == tuple(pivots) and H.det == det


def test_the_shifted_L_has_a_conjugation_denominator():
    assert _SHIFTED_L._conj[1] != 1
    y = _SHIFTED_L.gen()
    assert y.conjugate() == y - _SHIFTED_L.coerce(_L.E.sqrt_delta() / 2)


def test_forms_over_E_make_no_E_product(monkeypatch):
    # the congruence, det and the inverse of a non-rational pivot product
    # run on E's table: not one FieldElement.__mul__ call
    forms = []
    for E in (gaussian_field(), make_cyclotomic(5)):
        w = E.gen_F() + E.sqrt_delta()
        dense = [[E.from_rational(2), w, 1 - w],
                 [w.conjugate(), E.from_rational(-5), 3 * w],
                 [1 - w.conjugate(), 3 * w.conjugate(), E.gen_F() + 7]]
        forms += [(E, dense), (E, [[E.gen_F() + k + 1 if j == k else 0
                                    for k in range(3)] for j in range(3)])]
    calls = []
    mul = FieldElement.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)
    monkeypatch.setattr(FieldElement, "__mul__", counted)
    monkeypatch.setattr(FieldElement, "__rmul__", counted)
    built = [HermitianForm(E, rows) for E, rows in forms]
    assert calls == []
    assert all(H.det == linalg.det(H.entries) for H in built)
    assert calls


def test_invariants_of_a_form_over_L():
    one, y = _L.one(), _L.gen()
    inv = invariants(diagonal_form(_L, [one, y]))
    # det = eta, not in E: the det is its own class representative
    assert inv.det_class == y and inv.dim == 2
    # a rational det is reduced mod squares, as over E
    assert invariants(diagonal_form(_L, [1, -12])).det_class == \
        _L.coerce(-3)


def test_equivalent_over_L_decides_obstructions_only():
    one, y = _L.one(), _L.gen()
    H = diagonal_form(_L, [one, y])
    v = equivalent(H, diagonal_form(_L, [one, one, y]))
    assert v == NOT_EQUIVALENT and v.obstruction[0] == "dimension"
    v = equivalent(H, diagonal_form(_L, [one, -one]))
    assert v == NOT_EQUIVALENT and v.obstruction[0] == "signatures"
    v = equivalent(H, diagonal_form(_L, [4, y]))
    assert v == UNKNOWN_EQUIVALENCE
    assert any("norm test from L to K" in line for line in v.trace)
