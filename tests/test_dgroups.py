import io
import json
import os
import subprocess
import sys
from functools import partial
from math import gcd

import pytest
from hypothesis import given, strategies as st

import cmforms
from cmforms import dgroups
from cmforms.cli import main
from cmforms.groups import ClosureCapExceeded, _closure
from cmforms.dgroups import (CYCLIC_POSSIBLE, EXCLUDED_BY_AMITSUR,
                             EXCLUDED_BY_REDUCIBILITY, InvalidDGroupError,
                             amitsur_filter, enumerate_params,
                             faithful_reducible_exists, irreducible_degrees,
                             is_cyclic, second_type_verdict, validate)

import oracles


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


def test_enumeration_starts_at_m_one():
    assert [(p.m, p.r) for p in enumerate_params(3)] == \
        [(1, 1), (2, 1), (3, 1), (3, 2)]
    assert enumerate_params(0) == [] and enumerate_params(-4) == []


def test_element_order_against_brute_force():
    p = validate(8, 3)
    for x in dgroups.elements(p):
        acc = x
        k = 1
        while acc != dgroups.identity():
            acc = dgroups.multiply(p, acc, x)
            k += 1
        assert oracles.element_order(p, x) == k


def test_cyclicity():
    assert is_cyclic(validate(5, 1))
    assert not is_cyclic(validate(7, 2))
    p = validate(5, 1)
    assert oracles.max_element_order(p) == dgroups.order(p)


def test_irreducible_degrees():
    assert irreducible_degrees(validate(7, 2)) == [1, 1, 1, 3, 3]
    assert irreducible_degrees(validate(8, 3)) == [1, 1, 1, 1, 2, 2, 2]
    assert irreducible_degrees(validate(5, 1)) == [1] * 5


def _commutator_closure(params):
    """Brute force: close all |G|^2 commutators g h g^-1 h^-1 under
    multiply, with g^-1 = g^(k-1) for g of order k."""
    elems = dgroups.elements(params)
    e = dgroups.identity()
    inv = {}
    for g in elems:
        inv[g], x = e, g
        while x != e:
            inv[g], x = x, dgroups.multiply(params, x, g)
    sub = {e}
    frontier = [e]
    gens = {dgroups.multiply(params, dgroups.multiply(params, g, h),
                             dgroups.multiply(params, inv[g], inv[h]))
            for g in elems for h in elems}
    while frontier:
        frontier = [y for y in {dgroups.multiply(params, x, c)
                                for x in frontier for c in gens}
                    if y not in sub]
        sub.update(frontier)
    return sub


def _closure_args(p):
    """(identity, generators X and Y, multiply, cap |G|) for G_{m,r}."""
    return (dgroups.identity(), [(1 % p.m, 0), (0, 1 % p.n)],
            partial(dgroups.multiply, p), dgroups.order(p))


def test_elements_match_breadth_first_closure():
    for p in enumerate_params(20):
        elems = dgroups.elements(p)
        assert elems == sorted(oracles.bfs_closure(*_closure_args(p)))
        assert len(elems) == dgroups.order(p)


@pytest.mark.parametrize("r", range(1, 17))
def test_the_closure_cap_fires_exactly_above_the_order(r):
    p = validate(17, r)
    identity, gens, mul, order = _closure_args(p)
    assert len(_closure(identity, gens, mul, order)[0]) == order
    with pytest.raises(ClosureCapExceeded, match="cap %d" % (order - 1)):
        _closure(identity, gens, mul, order - 1)


def test_commutator_subgroup_size():
    # [G, G] = <X^s> has order t, for every G_{m,r} with m <= 16
    for p in enumerate_params(16):
        comm = _commutator_closure(p)
        assert comm == {(k * p.s % p.m, 0) for k in range(p.m)}
        assert len(comm) == p.t


def test_degrees_square_to_the_order_and_divide_n():
    for p in enumerate_params(60):
        degrees = irreducible_degrees(p)
        assert sum(d * d for d in degrees) == dgroups.order(p)
        assert all(p.n % d == 0 for d in degrees)


def test_amitsur_filter():
    assert amitsur_filter(validate(7, 2), 3)  # n = 3 divides 3
    assert not amitsur_filter(validate(5, 2), 3)  # n = 4
    assert amitsur_filter(validate(5, 1), 7)  # cyclic, n = 1
    with pytest.raises(ValueError):
        amitsur_filter(validate(7, 2), 4)  # p not an odd prime


@pytest.mark.parametrize("p, message", [
    (2, "p must be an odd prime"),
    (4, "p must be an odd prime"),
    ((10 ** 9 + 7) * (10 ** 9 + 9), "p must be an odd prime"),
    # psi_13 passes Miller-Rabin to every base, and is not proved
    (3317044064679887385961981,
     "p must be an odd prime that the n - 1 test proves"),
    # a 40-digit prime whose n - 1 the budgeted factoring cannot finish
    (10 * (10 ** 19 + 51) * (2 * 10 ** 19 + 11) + 1,
     "p must be an odd prime that the n - 1 test proves"),
])
def test_a_refused_p_is_named_correctly(p, message):
    with pytest.raises(ValueError) as err:
        dgroups.check_odd_prime(p)
    assert str(err.value) == message


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


def test_p_is_proved_prime_once(monkeypatch):
    proofs = []
    is_prime = dgroups._is_prime

    def counted(n):
        proofs.append(n)
        return is_prime(n)
    monkeypatch.setattr(dgroups, "_is_prime", counted)
    p = 10 ** 18 + 3
    dgroups.check_odd_prime.cache_clear()
    assert second_type_verdict(validate(7, 2), p) == EXCLUDED_BY_AMITSUR
    assert proofs == [p]
    proofs.clear()
    dgroups.check_odd_prime.cache_clear()
    out = io.StringIO()
    assert main(["--json", "dgroup", "enumerate", "--max-m", "6",
                 "--p", str(p)], out=out) == 0
    assert len(out.getvalue().splitlines()) == 12
    assert proofs == [p]


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


def test_large_m_is_decided_from_the_invariants():
    # |G| = 300009: forming commutators would not return
    src = os.path.dirname(os.path.dirname(os.path.abspath(cmforms.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "cmforms", "--json", "dgroup", "check",
         "--m", "100003", "--r", "7120", "--p", "3"],
        capture_output=True, env=dict(os.environ, PYTHONPATH=src), text=True,
        timeout=10)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)["payload"]
    assert payload["verdict"] == EXCLUDED_BY_REDUCIBILITY
    assert payload["t"] == 100003


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
