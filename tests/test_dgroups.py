import os
import subprocess
import sys
from math import gcd

import pytest
from hypothesis import given, strategies as st

import cmforms
from cmforms import dgroups
from cmforms.dgroups import (CYCLIC_POSSIBLE, EXCLUDED_BY_AMITSUR,
                             EXCLUDED_BY_REDUCIBILITY, InvalidDGroupError,
                             amitsur_filter, enumerate_params,
                             faithful_reducible_exists, irreducible_degrees,
                             is_cyclic, second_type_verdict, validate)


def test_validate_params():
    p = validate(7, 2)
    assert (p.s, p.t, p.n) == (1, 7, 3)
    assert dgroups.order(p) == 21
    with pytest.raises(InvalidDGroupError):
        validate(6, 2)  # not coprime
    with pytest.raises(InvalidDGroupError):
        validate(5, 7)  # r >= m


def test_presentation_relations():
    p = validate(7, 2)
    X, Y = (1, 0), (0, 1)
    # X^m = 1
    e = dgroups.identity()
    acc = e
    for _ in range(p.m):
        acc = dgroups.multiply(p, acc, X)
    assert acc == e
    # Y^n = X^t
    acc = e
    for _ in range(p.n):
        acc = dgroups.multiply(p, acc, Y)
    assert acc == (p.t % p.m, 0)
    # Y X Y^{-1} = X^r
    yx = dgroups.multiply(p, Y, X)
    xry = dgroups.multiply(p, (p.r % p.m, 0), Y)
    assert yx == xry


def test_enumeration_matches_order():
    for p in enumerate_params(15):
        assert len(dgroups.elements(p)) == dgroups.order(p)


def test_element_order_against_brute_force():
    p = validate(8, 3)
    for x in dgroups.elements(p):
        acc = x
        k = 1
        while acc != dgroups.identity():
            acc = dgroups.multiply(p, acc, x)
            k += 1
        assert dgroups.element_order(p, x) == k


def test_cyclicity():
    assert is_cyclic(validate(5, 1))
    assert not is_cyclic(validate(7, 2))
    p = validate(5, 1)
    assert dgroups.max_element_order(p) == dgroups.order(p)


def test_irreducible_degrees():
    assert irreducible_degrees(validate(7, 2)) == [1, 1, 1, 3, 3]
    assert irreducible_degrees(validate(8, 3)) == [1, 1, 1, 1, 2, 2, 2]
    assert irreducible_degrees(validate(5, 1)) == [1] * 5


def test_commutator_subgroup_size():
    # [G, G] = <X^s> has order t
    for (m, r) in [(7, 2), (8, 3), (9, 2), (5, 1)]:
        p = validate(m, r)
        assert len(dgroups.commutator_subgroup(p)) == p.t


def test_amitsur_filter():
    assert amitsur_filter(validate(7, 2), 3)  # n = 3 divides 3
    assert not amitsur_filter(validate(5, 2), 3)  # n = 4
    assert amitsur_filter(validate(5, 1), 7)  # cyclic, n = 1
    with pytest.raises(ValueError):
        amitsur_filter(validate(7, 2), 4)  # p not an odd prime


def test_faithful_reducible_oracle():
    assert not faithful_reducible_exists(validate(7, 2), 3)
    assert not faithful_reducible_exists(validate(13, 3), 3)
    with pytest.raises(ValueError):
        faithful_reducible_exists(validate(5, 2), 3)  # n != p


def test_verdicts():
    assert second_type_verdict(validate(7, 2), 3) == EXCLUDED_BY_REDUCIBILITY
    assert second_type_verdict(validate(5, 1), 3) == CYCLIC_POSSIBLE
    assert second_type_verdict(validate(5, 2), 3) == EXCLUDED_BY_AMITSUR
    v = second_type_verdict(validate(7, 2), 3, split=(2, 1))
    assert v == EXCLUDED_BY_REDUCIBILITY
    assert v.trace
    with pytest.raises(ValueError):
        second_type_verdict(validate(7, 2), 3, split=(3, 0))


def test_reducibility_check_holds_under_python_O():
    # the check behind ExcludedByReducibility is a raise, not an assert
    script = """
from cmforms import dgroups, field
dgroups.faithful_reducible_exists = lambda params, p: True
try:
    dgroups.second_type_verdict(dgroups.validate(7, 2), 3)
except field.VerificationError:
    print("VerificationError")
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cmforms.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == "VerificationError", proc.stderr


def test_verdict_independent_of_split():
    p = validate(31, 2)  # n = 5
    verdicts = {second_type_verdict(p, 5, split=(a, 5 - a)).status
                for a in (1, 2, 3, 4)}
    assert len(verdicts) == 1


@given(st.integers(2, 20), st.integers(1, 19), st.data())
def test_multiply_associative(m, r, data):
    if r >= m or gcd(m, r) != 1:
        return
    p = validate(m, r)
    elems = dgroups.elements(p)
    pick = st.sampled_from(elems)
    x, y, z = data.draw(pick), data.draw(pick), data.draw(pick)
    lhs = dgroups.multiply(p, dgroups.multiply(p, x, y), z)
    rhs = dgroups.multiply(p, x, dgroups.multiply(p, y, z))
    assert lhs == rhs
