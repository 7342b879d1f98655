"""The verdict contract: every decision procedure answers with one
`Verdict` that behaves as its status string and carries its certificate."""

import inspect
import json

import pytest

import cmforms
from cmforms import (CYCLIC_POSSIBLE, EQUIVALENT, EXCLUDED_BY_AMITSUR,
                     EXCLUDED_BY_REDUCIBILITY, IN_GROUP, IS_NORM,
                     IS_NOT_NORM, NOT_DIVISION, NOT_EQUIVALENT, NOT_IN_GROUP,
                     UNKNOWN, CyclicAlgebra, Verdict, builtin_example,
                     diagonal_form, equivalent, gaussian_field,
                     hilbert_symbol, is_division_candidate, is_norm,
                     make_cyclotomic, second_type_verdict,
                     unitary_membership, validate)


# every public name of cmforms/__init__.py (the submodules aside)
PUBLIC_NAMES = {
    "AlgebraElement", "AlgebraError", "BudgetExceeded", "CMField",
    "CYCLIC_POSSIBLE", "CatalogEntry", "ClosureCapExceeded",
    "CubicExtElement", "CyclicAlgebra", "CyclicCubicExtension",
    "DEFAULT_CLASS", "DGroupParams", "DegenerateFormError", "EQUIVALENT",
    "EXCLUDED_BY_AMITSUR", "EXCLUDED_BY_REDUCIBILITY",
    "EmbeddabilityVerdict", "FieldElement", "FieldError", "FormInvariant",
    "HermitianForm", "IN_GROUP", "IS_NORM", "IS_NOT_NORM", "IntegralRep",
    "InvalidDGroupError", "Involution", "InvolutionError", "MatrixGroup",
    "MembershipVerdict", "NEGATIVE", "NOT_DIVISION", "NOT_EQUIVALENT",
    "NOT_IN_GROUP", "NormResidueVerdict", "NotAGroupError", "OTHER_CLASS",
    "POSITIVE", "TotallyRealField", "UNKNOWN", "UNKNOWN_EQUIVALENCE",
    "UnknownClassError", "Verdict", "ZERO", "amitsur_filter",
    "average_form", "builtin_example", "catalog", "catalog_entry",
    "check_table", "closure", "cyclotomic_field_containing",
    "diagonal_form", "direct_sum", "embed_first_type", "enumerate_params",
    "equivalent", "faithful_reducible_exists", "gaussian_field",
    "hilbert_symbol", "invariant_under", "invariants",
    "irreducible_degrees", "is_admissible", "is_cyclic",
    "is_division_candidate", "is_norm", "make_cyclotomic",
    "make_involution", "rationals", "regular_embed", "regular_rep",
    "second_type_verdict", "signature_at", "signature_profile",
    "splitting_signature", "twist_determinant", "unitary_membership",
    "validate", "validate_sign_pattern", "verify_entry",
    "verify_involution", "weak_approx_find", "zeta",
}


def test_public_names_pinned():
    public = {name for name, value in vars(cmforms).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        exec("from cmforms import %s" % name, {})


def test_one_verdict_class():
    assert (cmforms.NormResidueVerdict is cmforms.MembershipVerdict
            is cmforms.EmbeddabilityVerdict is Verdict)


def _behaves_as_status(v, status):
    assert isinstance(v, Verdict)
    assert v == status and v.status == status
    assert type(v.status) is str
    assert json.dumps(v) == json.dumps(status)
    assert json.dumps({"verdict": v}, indent=1) == \
        json.dumps({"verdict": status}, indent=1)
    assert hash(v) == hash(status) and {v: 1}[status] == 1


@pytest.fixture(scope="module")
def builtin():
    return builtin_example()


def test_is_norm_verdicts():
    E = gaussian_field()
    v = is_norm(5, E)
    _behaves_as_status(v, IS_NORM)
    assert v.witness * v.witness.conjugate() == E.from_rational(5)
    v = is_norm(3, E)
    _behaves_as_status(v, IS_NOT_NORM)
    kind, p = v.obstruction
    assert kind == "prime" and hilbert_symbol(-1, 3, p) == -1
    assert v.witness is None
    v = is_norm(-2, E)
    _behaves_as_status(v, IS_NOT_NORM)
    assert v.obstruction == ("real place", 0)


def test_equivalent_verdicts():
    E = gaussian_field()
    H1 = diagonal_form(E, [1, 1, -1])
    H2 = diagonal_form(E, [1, 1, -4])
    v = equivalent(H1, H2)
    _behaves_as_status(v, EQUIVALENT)
    w = v.witness
    assert w * w.conjugate() == H1.det / H2.det
    v = equivalent(H1, diagonal_form(E, [1, 1, -3]))
    _behaves_as_status(v, NOT_EQUIVALENT)
    assert v.obstruction[0] == "prime"
    v = equivalent(H1, diagonal_form(E, [1, -1, -1]))
    _behaves_as_status(v, NOT_EQUIVALENT)
    assert v.obstruction == ("signatures", ((2, 1),), ((1, 2),))
    v = equivalent(H1, diagonal_form(E, [1, -1]))
    _behaves_as_status(v, NOT_EQUIVALENT)
    assert v.obstruction == ("dimension", 3, 2)
    # over Q(zeta5) the det ratio 1/3 is no norm (3 is inert): Unknown
    E5 = make_cyclotomic(5)
    v = equivalent(diagonal_form(E5, [1, 1, -1]),
                   diagonal_form(E5, [1, 1, -3]), budget=10)
    _behaves_as_status(v, UNKNOWN)
    assert v.witness is None and v.obstruction is None


def test_division_verdicts(builtin):
    algebra, _ = builtin
    v = is_division_candidate(algebra, budget=5)
    _behaves_as_status(v, UNKNOWN)
    assert v.witness is None
    v = is_division_candidate(CyclicAlgebra(algebra.ext, 1), budget=10)
    _behaves_as_status(v, NOT_DIVISION)
    assert v.witness.relative_norm() == algebra.E.one()


def test_membership_verdicts(builtin):
    algebra, involution = builtin
    one = algebra.one()
    v = unitary_membership(algebra, involution, one, -one)
    _behaves_as_status(v, IN_GROUP)
    assert v.scalar == algebra.E.one()
    v = unitary_membership(algebra, involution, one, one + one)
    _behaves_as_status(v, NOT_IN_GROUP)
    assert v.scalar is None


@pytest.mark.parametrize("m, r, status", [
    (7, 2, EXCLUDED_BY_REDUCIBILITY), (5, 1, CYCLIC_POSSIBLE),
    (5, 2, EXCLUDED_BY_AMITSUR)])
def test_dgroup_verdicts(m, r, status):
    v = second_type_verdict(validate(m, r), 3)
    _behaves_as_status(v, status)
    assert isinstance(v.trace, tuple) and len(v.trace) == 2
    assert v.trace[0] == "params m=%d r=%d n=%d" % (m, r, validate(m, r).n)
