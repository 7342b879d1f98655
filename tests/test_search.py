"""The bounded-search enumerator and the budget accounting of its callers."""

import itertools
import random

import pytest

from cmforms import (IS_NORM, UNKNOWN, builtin_example, gaussian_field,
                     is_division_candidate, is_norm)
from cmforms import calgebra
from cmforms.calgebra import NOT_DIVISION
from cmforms.field import FieldElement, _candidates, make_cyclotomic
from cmforms.residue import _norm_witness


def _brute_force(dim, max_norm, key=None):
    """All nonzero vectors of [-max_norm, max_norm]^dim, ordered by
    max-norm and then lexicographically or by key."""
    rng = range(-max_norm, max_norm + 1)
    vecs = [v for v in itertools.product(rng, repeat=dim) if any(v)]

    def order(v):
        return (max(map(abs, v)), key(v) if key else v)
    return sorted(vecs, key=order)


def _l1(v):
    return (sum(map(abs, v)), tuple(-x for x in v))


def _head(walk, n):
    return list(itertools.islice(walk, n))


@pytest.mark.parametrize("dim, max_norm", [(1, 4), (2, 3), (3, 2), (4, 2)])
def test_candidates_match_brute_force(dim, max_norm):
    # the walk is endless: its head is the shells up to max_norm, and
    # then it goes on into the next shell
    n = len(_brute_force(dim, max_norm))
    more = _head(_candidates(dim), n + 1)
    assert more[:n] == _brute_force(dim, max_norm)
    assert max(map(abs, more[n])) == max_norm + 1
    more = _head(_candidates(dim, l1_first=True), n + 1)
    assert more[:n] == _brute_force(dim, max_norm, key=_l1)
    assert max(map(abs, more[n])) == max_norm + 1


def _signed_units(dim, k):
    """The vectors of length dim with k entries +-1 and the rest 0."""
    for places in itertools.combinations(range(dim), k):
        for signs in itertools.product((1, -1), repeat=k):
            v = [0] * dim
            for j, sign in zip(places, signs):
                v[j] = sign
            yield tuple(v)


def test_candidates_l1_order_at_every_dimension():
    # whole shells at dimension 6 and the head of shell 1 at dimension 12
    # (3^12 points, once too many to sort) come in the L1 order
    shells = _brute_force(6, 2, key=_l1)
    assert _head(_candidates(6, l1_first=True), len(shells)) == shells
    head = sorted([*_signed_units(12, 1), *_signed_units(12, 2)], key=_l1)
    assert _head(_candidates(12, l1_first=True), len(head) + 1) == \
        head + [(1, 1, 1) + (0,) * 9]


@pytest.fixture(scope="module")
def builtin():
    return builtin_example()


@pytest.mark.parametrize("budget", [1, 50, 800])
def test_division_search_spends_its_budget(builtin, monkeypatch, budget):
    algebra, _ = builtin
    calls = []
    rel = calgebra.CubicExtElement.relative_norm

    def counted(self):
        calls.append(1)
        return rel(self)
    monkeypatch.setattr(calgebra.CubicExtElement, "relative_norm", counted)
    assert is_division_candidate(algebra, budget=budget) == UNKNOWN
    assert len(calls) == budget


def test_division_search_tries_one_first_over_q_zeta5():
    # L has Q-dimension 12 over E = Q(zeta5): gamma = 1 is the first
    # candidate, as at every other dimension
    E5 = make_cyclotomic(5)
    ext5 = calgebra.CyclicCubicExtension(E5, [-1, -2, 1, 1], [-2, 0, 1],
                                         [0, 1])
    v = is_division_candidate(calgebra.CyclicAlgebra(ext5, E5.one()), 2000)
    assert v == NOT_DIVISION and v.witness == ext5.one()


def _record_candidates(monkeypatch):
    """Coordinates of every E-element whose relative norm is taken outside
    FieldElement.inverse: the candidates a norm-witness search tries."""
    tried, depth = [], []
    rel, inv = FieldElement.relative_norm, FieldElement.inverse

    def recorded(self):
        if not depth:
            tried.append(tuple(int(c) for c in self.a + self.b))
        return rel(self)

    def inverse(self):
        depth.append(1)
        try:
            return inv(self)
        finally:
            depth.pop()
    monkeypatch.setattr(FieldElement, "relative_norm", recorded)
    monkeypatch.setattr(FieldElement, "inverse", inverse)
    return tried


def test_rational_norm_search_skips_negative_q(monkeypatch):
    # 3 is no norm from Q(i): the search tries exactly its first 40
    # candidates p + q i, those with q < 0 skipped and not counted
    E = gaussian_field()
    tried = _record_candidates(monkeypatch)
    assert _norm_witness(E.from_rational(3), E, budget=40) is None
    assert tried == [v for v in _brute_force(2, 4) if v[1] >= 0][:40]


def test_general_norm_search_spends_its_budget(monkeypatch):
    E8 = make_cyclotomic(8)
    # d = 3 + sqrt(2) has norm 7 to Q; the primes over 7 in Q(sqrt 2) are
    # inert in Q(zeta8), so d (valuation 1 there) is no norm: Unknown
    d = E8.element([3, 1])
    tried = _record_candidates(monkeypatch)
    assert is_norm(d, E8, budget=300) == UNKNOWN
    # x and its conjugate have one norm: a candidate whose sqrt(delta)-part
    # leads with a negative coordinate is skipped and not counted
    assert tried == [v for v in _brute_force(4, 2)
                     if _leads_nonnegative(v[2:])][:300]


def _leads_nonnegative(b):
    return next((c for c in b if c), 0) >= 0


def test_norm_search_decides_small_norms_over_q_zeta5():
    # independent oracle: d = N(x) is a norm by construction, so a budget
    # of 300 (all of max-norm 1 and most of max-norm 2 up to conjugation)
    # must find a witness for every small x
    E5 = make_cyclotomic(5)
    box = [v for v in itertools.product(range(-2, 3), repeat=4) if any(v)]
    sample = random.Random(5).sample(box, 59) + [(0, -2, -2, -1)]
    for v in sample:
        d = E5.element(v[:2], v[2:]).relative_norm()
        verdict = is_norm(d, E5, budget=300)
        assert verdict == IS_NORM, v
        assert verdict.witness.relative_norm() == d
