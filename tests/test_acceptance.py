"""Acceptance gate: one test per criterion, each printing a PASS line.

All checks are exact (zero tolerance); each criterion carries a wall-clock
budget that is asserted.
"""

import itertools
import random
import time
from fractions import Fraction
from math import gcd

from cmforms import (EQUIVALENT, HermitianForm, IN_GROUP, IS_NORM,
                     IS_NOT_NORM, NOT_EQUIVALENT, TotallyRealField,
                     UNKNOWN_EQUIVALENCE, builtin_example, diagonal_form,
                     dgroups, embed_first_type, equivalent, gaussian_field,
                     invariant_under, invariants, is_admissible, is_norm,
                     linalg, regular_embed, regular_rep,
                     splitting_signature,
                     unitary_membership, verify_involution, weak_approx_find,
                     zeta, NEGATIVE, POSITIVE)
from cmforms.catalog import build_catalog
from cmforms.dgroups import (CYCLIC_POSSIBLE, amitsur_filter,
                             enumerate_params, faithful_reducible_exists,
                             irreducible_degrees, second_type_verdict,
                             validate)
from cmforms.groups import OTHER_CLASS

import oracles


def _report(num, elapsed, budget, detail):
    assert elapsed < budget, "criterion %d exceeded %ds budget" % (num, budget)
    print("ACCEPTANCE %d: PASS (%.1fs) - %s" % (num, elapsed, detail))


def test_criterion_1_first_type_pipeline():
    t0 = time.time()
    entries = build_catalog()
    assert len(entries) >= 10
    orders = {e.name: e.expected_order for e in entries}
    assert orders["Q8"] == 8 and orders["2T"] == 24
    assert orders["2O"] == 48 and orders["2I"] == 120
    for entry in entries:
        field, H, group = embed_first_type(entry)
        assert is_admissible(H)
        assert invariant_under(H, group.elements)
        assert group.order == entry.expected_order
    _report(1, time.time() - t0, 60,
            "%d catalog entries embedded with exact invariance" %
            len(entries))


def _sum_of_two_squares(q):
    q = Fraction(q)
    if q <= 0:
        return False
    for v in (q.numerator, q.denominator):
        while v % 2 == 0:
            v //= 2
        p = 3
        while p * p <= v:
            if v % p == 0:
                e = 0
                while v % p == 0:
                    v //= p
                    e += 1
                if p % 4 == 3 and e % 2 == 1:
                    return False
            p += 2
        if v > 1 and v % 4 == 3:
            return False
    return True


def test_criterion_2_equivalence_classification():
    t0 = time.time()
    rng = random.Random(20260823)
    E = gaussian_field()
    i = zeta(E, 4)
    vals = [1, -1, 2, -2, 3, -3, 5, -5]
    forms = [diagonal_form(E, [rng.choice(vals) for _ in range(3)])
             for _ in range(100)]
    for H in forms:
        for _ in range(20):
            while True:
                T = linalg.mat([[E.from_rational(rng.randint(-1, 1))
                                 + rng.randint(-1, 1) * i
                                 for _ in range(3)] for _ in range(3)])
                if not linalg.det(T).is_zero():
                    break
            H2 = HermitianForm(E, linalg.mat_mul(
                linalg.conj_transpose(T), linalg.mat_mul(H.entries, T)))
            assert equivalent(H, H2) == EQUIVALENT
    # independent oracle: same negative count and determinant ratio a sum
    # of two rational squares
    disagreements = 0
    for _ in range(100):
        d1 = [rng.choice(vals) for _ in range(3)]
        d2 = [rng.choice(vals) for _ in range(3)]
        H1, H2 = diagonal_form(E, d1), diagonal_form(E, d2)
        verdict = equivalent(H1, H2)
        assert verdict != UNKNOWN_EQUIVALENCE
        neg1 = sum(1 for v in d1 if v < 0)
        neg2 = sum(1 for v in d2 if v < 0)
        ratio = Fraction(1)
        for v in d1:
            ratio *= v
        for v in d2:
            ratio /= v
        oracle = neg1 == neg2 and _sum_of_two_squares(ratio)
        if (verdict == EQUIVALENT) != oracle:
            disagreements += 1
    assert disagreements == 0
    _report(2, time.time() - t0, 60,
            "2000 congruences Equivalent; oracle agreement on 100 pairs, "
            "no Unknown over Q")


def test_criterion_3_model_form():
    t0 = time.time()
    E = gaussian_field()
    H = diagonal_form(E, [1, 1, -1])
    assert is_admissible(H)
    assert set(invariants(H).sigma()) == {1}
    _report(3, time.time() - t0, 60,
            "diag(1,1,-1) admissible with sigma-profile {1}")


def _cyclic_table(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def _s3_table():
    perms = list(itertools.permutations(range(3)))
    idx = {p: k for k, p in enumerate(perms)}
    return [[idx[tuple(p[q[k]] for k in range(3))] for q in perms]
            for p in perms]


def test_criterion_4_regular_embeddings():
    t0 = time.time()
    E = gaussian_field()
    checked = 0
    for table in (_cyclic_table(2), _cyclic_table(3), _s3_table()):
        rep = regular_rep(table)
        n_G = rep.m + 1
        for n in range(n_G, n_G + 4):
            H, rho = regular_embed(rep, E, n)
            assert is_admissible(H)
            assert invariant_under(H, rho)
            assert len(set(rho)) == rep.group_order
            if n % 2 == 1:
                H_other, rho_o = regular_embed(rep, E, n, OTHER_CLASS)
                assert is_admissible(H_other)
                assert invariant_under(H_other, rho_o)
                assert equivalent(H, H_other) == NOT_EQUIVALENT
            checked += 1
    _report(4, time.time() - t0, 60,
            "%d regular embeddings admissible/faithful; odd-n classes "
            "NotEquivalent" % checked)


def test_criterion_5_dgroup_sweep():
    t0 = time.time()
    params_list = enumerate_params(30)
    nonabelian_np = 0
    for p in params_list:
        elems = dgroups.elements(p)
        assert len(elems) == dgroups.order(p)
        degrees = irreducible_degrees(p)
        assert sum(d * d for d in degrees) == dgroups.order(p)
        assert all(p.n % d == 0 for d in degrees)
        cyc = dgroups.is_cyclic(p)
        assert cyc == (p.n == 1)
        assert cyc == (oracles.max_element_order(p) == dgroups.order(p))
        if p.n == 3:
            assert second_type_verdict(p, 3) != CYCLIC_POSSIBLE
            assert not faithful_reducible_exists(p, 3)
            nonabelian_np += 1
    _report(5, time.time() - t0, 120,
            "%d groups swept (m <= 30); %d nonabelian n=3 cases excluded" %
            (len(params_list), nonabelian_np))


def test_criterion_6_amitsur_vs_order():
    t0 = time.time()
    count = 0
    for m in range(1, 101):
        for r in range(1, max(m, 2)):
            if r >= m and m > 1:
                continue
            if gcd(m, r) != 1:
                continue
            params = validate(m, r)
            # independent multiplicative order computation
            if m == 1:
                n = 1
            else:
                n, x = 1, r % m
                while x != 1:
                    x = (x * r) % m
                    n += 1
            for p in (3, 5, 7):
                assert amitsur_filter(params, p) == (p % n == 0)
                count += 1
    _report(6, time.time() - t0, 60,
            "%d (m,r,p) cases match the independent order computation" %
            count)


def test_criterion_7_norm_residue():
    t0 = time.time()
    E = gaussian_field()
    for d in range(-200, 201):
        if d == 0:
            continue
        verdict = is_norm(E.from_rational(d), E)
        expected = _sum_of_two_squares(d)
        assert verdict == (IS_NORM if expected else IS_NOT_NORM), d
        if expected:
            w = verdict.witness
            assert w * w.conjugate() == E.from_rational(d)
    _report(7, time.time() - t0, 30,
            "is_norm matches sum-of-two-squares for all 1 <= |d| <= 200 "
            "with verified witnesses")


def test_criterion_8_cyclic_algebra():
    t0 = time.time()
    algebra, involution = builtin_example()
    E = algebra.E
    X = algebra.X()
    assert X * X * X == algebra.element(algebra.alpha_L)
    assert algebra.reduced_norm(X) == algebra.alpha
    verify_involution(involution)
    rng = random.Random(8)
    ext = algebra.ext

    def rand_L():
        def e():
            return E.element([Fraction(rng.randint(-3, 3))],
                             [Fraction(rng.randint(-3, 3), 2)])
        return ext.element([e(), e(), e()])

    for _ in range(100):
        x = algebra.element(rand_L(), rand_L(), rand_L())
        y = algebra.element(rand_L(), rand_L(), rand_L())
        assert algebra.reduced_norm(x * y) == \
            algebra.reduced_norm(x) * algebra.reduced_norm(y)
    h = algebra.one()
    for x in (algebra.one(), -algebra.one()):
        v = unitary_membership(algebra, involution, h, x)
        assert v == IN_GROUP and v.scalar == E.one()
    sigs = splitting_signature(algebra, involution, algebra.one())
    assert all(s == (3, 0) for s in sigs)
    _report(8, time.time() - t0, 60,
            "relations, 100 norm products, 27 involution pairs, membership "
            "and signature all exact")


def test_criterion_9_weak_approximation():
    t0 = time.time()
    fields = [
        TotallyRealField([0, 1]),                     # Q
        TotallyRealField([-2, 0, 1]),                 # Q(sqrt 2)
        TotallyRealField([-1, -2, 1, 1]),             # Q(zeta_7 + zeta_7^-1)
    ]
    total = 0
    for F in fields:
        for pattern in itertools.product((POSITIVE, NEGATIVE),
                                         repeat=F.degree):
            coords = weak_approx_find(F, pattern)
            for ell, want in enumerate(pattern):
                assert F.sign_of_coords(coords, ell) == want
            total += 1
    _report(9, time.time() - t0, 30,
            "%d sign patterns built and certified" % total)
