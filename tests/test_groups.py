import itertools
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from cmforms import (ClosureCapExceeded, DEFAULT_CLASS, MatrixGroup,
                     NOT_EQUIVALENT, NotAGroupError, OTHER_CLASS,
                     UnknownClassError, average_form, check_table, closure,
                     diagonal_form, embed_first_type, equivalent,
                     gaussian_field, groups, hermitian, invariant_under,
                     is_admissible, linalg, make_cyclotomic, regular_embed,
                     regular_rep, signature_profile, zeta)
from cmforms.catalog import catalog_entry
from cmforms.groups import _mat_key


def _s3_table():
    perms = list(itertools.permutations(range(3)))
    idx = {p: k for k, p in enumerate(perms)}
    return [[idx[tuple(p[q[k]] for k in range(3))] for q in perms]
            for p in perms]


def _cyclic_table(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def test_closure_cyclic():
    E = gaussian_field()
    i = zeta(E, 4)
    g = linalg.mat([[i]])
    elems = closure([g])
    assert len(elems) == 4


def test_closure_cap():
    E = gaussian_field()
    g = linalg.mat([[E.from_rational(2)]])  # infinite order
    with pytest.raises(ClosureCapExceeded):
        closure([g], cap=50)


@pytest.mark.parametrize("gens, shape", [
    ([[[0, 1, 0], [1, 0, 0]]], "generator 0 is 2 x 3"),
    ([[[0, 1, 0], [1, 0], [0, 0, 1]]], "generator 0 is 3 x 2/3"),
    ([[[1, 0], [0, 1]], [[1]]], "generator 1 is 1 x 1"),
    ([], "need at least one generator"),
], ids=["2x3", "ragged", "two sizes", "none"])
def test_closure_refuses_non_square_generators(gens, shape):
    E = gaussian_field()
    gens = [[[E.from_rational(c) for c in row] for row in g] for g in gens]
    for build in (closure, lambda g: MatrixGroup(E, g)):
        with pytest.raises(ValueError, match=shape):
            build(gens)


def test_matrix_group_orders():
    q8 = catalog_entry("Q8")
    group = MatrixGroup(q8.field, q8.generators)
    assert group.order == 8


def test_average_form_invariance():
    q8 = catalog_entry("Q8")
    group = MatrixGroup(q8.field, q8.generators)
    H = average_form(group)
    assert invariant_under(H, group.elements, group.conj_transpose)
    assert all(sig == (3, 0) for sig in signature_profile(H))


def test_embed_first_type_q8():
    field, H, group = embed_first_type(catalog_entry("Q8"))
    assert is_admissible(H)
    assert group.order == 8
    assert invariant_under(H, group.elements, group.conj_transpose)


def test_invariance_check_runs_under_optimize():
    # "verified exact invariance" must not be an assert that -O removes
    import cmforms
    src = os.path.dirname(os.path.dirname(os.path.abspath(cmforms.__file__)))
    script = "\n".join([
        "import sys",
        "from cmforms import groups",
        "from cmforms.catalog import catalog_entry",
        "if sys.flags.optimize != 1:",
        "    sys.exit(3)",
        "groups.invariant_under = lambda *args: False",
        "groups.embed_first_type(catalog_entry('C2'))",
    ])
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.rstrip().endswith(
        "VerificationError: catalog group does not preserve the "
        "admissible form")


def test_check_table():
    check_table(_cyclic_table(4))
    check_table(_s3_table())
    with pytest.raises(NotAGroupError):
        check_table([[0, 1], [0, 1]])
    with pytest.raises(NotAGroupError):
        # latin square that is not associative (order-5 loop)
        check_table([[0, 1, 2, 3, 4],
                     [1, 0, 3, 4, 2],
                     [2, 4, 0, 1, 3],
                     [3, 2, 4, 0, 1],
                     [4, 3, 1, 2, 0]])


def test_regular_rep_faithful():
    table = _s3_table()
    rep = regular_rep(table)
    assert rep.group_order == 6 and rep.m == 6
    assert len(set(rep.matrices)) == 6


def test_regular_embed_default():
    E = gaussian_field()
    rep = regular_rep(_cyclic_table(3))
    H, rho = regular_embed(rep, E, 4)
    assert H.dim == 4
    assert is_admissible(H)
    conj = lambda g: linalg.conj_transpose(g, lambda x: x.conjugate())
    assert invariant_under(H, rho, conj)
    assert len(set(_mat_key(g) for g in rho)) == 3


def test_regular_embed_other_class():
    E = gaussian_field()
    rep = regular_rep(_cyclic_table(2))
    H_def, _ = regular_embed(rep, E, 3, DEFAULT_CLASS)
    H_oth, rho = regular_embed(rep, E, 3, OTHER_CLASS)
    assert is_admissible(H_def) and is_admissible(H_oth)
    assert equivalent(H_def, H_oth) == NOT_EQUIVALENT
    conj = lambda g: linalg.conj_transpose(g, lambda x: x.conjugate())
    assert invariant_under(H_oth, rho, conj)


def test_regular_embed_dimension_check():
    E = gaussian_field()
    rep = regular_rep(_cyclic_table(3))
    with pytest.raises(ValueError):
        regular_embed(rep, E, 3)  # needs n >= m + 1 = 4


@pytest.fixture()
def counted(monkeypatch):
    """Calls of weak_approx_find and equivalent made from groups."""
    calls = {"weak_approx_find": 0, "equivalent": 0}
    for name in calls:
        def wrapper(*args, _orig=getattr(groups, name), _name=name, **kw):
            calls[_name] += 1
            return _orig(*args, **kw)
        monkeypatch.setattr(groups, name, wrapper)
    return calls


def test_other_class_unknown_builds_the_slot_once(counted):
    # over Q(zeta8) no candidate class is certified within the budget: one
    # weak-approximation search for the slot, one decision per candidate
    with pytest.raises(UnknownClassError):
        regular_embed(regular_rep(_cyclic_table(2)), make_cyclotomic(8), 3,
                      OTHER_CLASS, norm_budget=200)
    assert counted == {"weak_approx_find": 1, "equivalent": 11}


def test_other_class_is_decided_on_the_returned_form(counted):
    # det H_default = -4; c = -1 and -2 give det -1 and -2, ratios 4 and 2
    # that are norms from Q(i); c = -3 is the first other class, the
    # averaged block 2 I_2 twisted by beta = -3/4
    E = gaussian_field()
    H, _ = regular_embed(regular_rep(_cyclic_table(2)), E, 3, OTHER_CLASS)
    assert counted == {"weak_approx_find": 1, "equivalent": 3}
    assert H == diagonal_form(E, [2, 2, Fraction(-3, 4)])
    assert H.det == E.from_rational(-3)


def test_other_class_builds_no_h_prime(monkeypatch):
    # the default form takes three forms (the averaged block, the slot
    # alpha and their sum), and each of the 11 candidate twists two more
    # (its slot and the sum); no H' = diag(1, ..., 1, c alpha) is built
    made = []
    init = hermitian.HermitianForm.__init__

    def counted(self, *args):
        made.append(1)
        init(self, *args)
    monkeypatch.setattr(hermitian.HermitianForm, "__init__", counted)
    with pytest.raises(UnknownClassError):
        regular_embed(regular_rep(_cyclic_table(2)), make_cyclotomic(8), 3,
                      OTHER_CLASS, norm_budget=200)
    assert len(made) == 3 + 2 * 11
