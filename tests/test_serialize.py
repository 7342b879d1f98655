import json
from fractions import Fraction

import pytest

from cmforms import (CMField, TotallyRealField, gaussian_field, linalg,
                     make_cyclotomic, serialize, zeta)


def test_fraction_strings():
    assert serialize.frac_to_str(Fraction(3, 4)) == "3/4"
    assert serialize.frac_to_str(Fraction(-5)) == "-5"
    assert serialize.frac_from_str("3/4") == Fraction(3, 4)


def test_field_round_trip():
    for E in (gaussian_field(), make_cyclotomic(5), make_cyclotomic(7)):
        obj = json.loads(json.dumps(serialize.field_to_json(E)))
        assert serialize.field_from_json(obj) == E


def test_element_round_trip():
    E = make_cyclotomic(5)
    x = zeta(E, 5) + E.from_rational(Fraction(2, 3))
    arr = serialize.element_to_json(x)
    assert serialize.element_from_json(E, arr) == x


def test_form_round_trip():
    E = gaussian_field()
    i = zeta(E, 4)
    from cmforms import HermitianForm
    M = [[E.from_rational(1), i, E.zero()],
         [-i, E.from_rational(-2), E.zero()],
         [E.zero(), E.zero(), E.from_rational(3)]]
    H = HermitianForm(E, linalg.mat(M))
    obj = json.loads(json.dumps(serialize.form_to_json(H)))
    H2 = serialize.form_from_json(obj)
    assert H2.field == E and linalg.mat_eq(H2.entries, H.entries)


def test_group_round_trip():
    E = gaussian_field()
    i = zeta(E, 4)
    gens = [linalg.mat([[i, E.zero()], [E.zero(), -i]])]
    obj = json.loads(json.dumps(serialize.group_to_json(E, gens)))
    E2, gens2 = serialize.group_from_json(obj)
    assert E2 == E
    assert linalg.mat_eq(gens2[0], gens[0])


def test_a_delta_of_the_wrong_length_is_refused():
    # x^2 + x - 1 has two real roots, so delta needs two coordinates
    obj = {"min_poly": [-1, 1, 1], "delta": ["-3"]}
    with pytest.raises(ValueError, match="delta needs 2 coordinates"):
        serialize.field_from_json(obj)
    assert serialize.field_from_json(dict(obj, delta=["-3", "0"])) == \
        CMField(TotallyRealField([-1, 1, 1]), [-3])
