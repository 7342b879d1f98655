import itertools
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from cmforms import (ClosureCapExceeded, DEFAULT_CLASS, IntegralRep,
                     MatrixGroup, NOT_EQUIVALENT, NotAGroupError, OTHER_CLASS,
                     UnknownClassError, average_form, check_table, closure,
                     diagonal_form, embed_first_type, equivalent,
                     gaussian_field, groups, hermitian, invariant_under,
                     is_admissible, linalg, make_cyclotomic, regular_embed,
                     regular_rep, signature_profile, zeta)
from cmforms.catalog import CatalogEntry, catalog, catalog_entry, verify_entry
from cmforms.field import FieldElement, FieldError, VerificationError

import oracles


def _sym_table(n):
    perms = list(itertools.permutations(range(n)))
    idx = {p: k for k, p in enumerate(perms)}
    return [[idx[tuple(p[q[k]] for k in range(n))] for q in perms]
            for p in perms]


def _s3_table():
    return _sym_table(3)


def _cyclic_table(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def _q8_table():
    # 4 * minus + unit, units 1, i, j, k as 0..3: the unit of u v is u ^ v,
    # and its sign is - for i^2, j^2, k^2 and for ji, kj, ik
    def mul(x, y):
        u, v = x % 4, y % 4
        minus = (x // 4) ^ (y // 4) ^ (u and v and (u == v or
                                                    (v - u) % 3 == 2))
        return 4 * minus + (u ^ v)
    return [[mul(x, y) for y in range(8)] for x in range(8)]


_TABLES = {"S3": _sym_table(3), "S4": _sym_table(4), "C32": _cyclic_table(32),
           "Q8": _q8_table(), "trivial": [[0]]}


def _matrix_closure_args(entry):
    """(identity, generators, mat_mul, cap) for closing a catalog entry."""
    field = entry.field
    ident = linalg.identity(len(entry.generators[0]), field.one(),
                            field.zero())
    return ident, list(entry.generators), linalg.mat_mul, 10 ** 4


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


@pytest.mark.parametrize("gens, entry", [
    ([[[1, 0], [0, 1]]], "generator 0 has the entry 1"),
    ([[["1", "0"], ["0", "1"]], [["1", "0"], ["0", Fraction(1, 2)]]],
     r"generator 1 has the entry Fraction\(1, 2\)"),
], ids=["ints", "a rational"])
def test_closure_refuses_entries_outside_a_field(gens, entry):
    # MatrixGroup lifts rationals into its field; closure has no field
    E = gaussian_field()
    gens = [[[E.from_rational(int(x)) if isinstance(x, str) else x
              for x in row] for row in g] for g in gens]
    with pytest.raises(FieldError, match=entry):
        closure(gens)


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
def test_closure_matches_breadth_first_on_the_catalog(entry):
    args = _matrix_closure_args(entry)
    elems, _ = groups._closure(*args)
    assert elems[0] == args[0]
    assert len(set(elems)) == len(elems) == entry.expected_order
    assert set(elems) == set(oracles.bfs_closure(*args))


@pytest.mark.parametrize("name", sorted(_TABLES))
def test_closure_matches_breadth_first_on_cayley_tables(name):
    table = _TABLES[name]
    e = check_table(table)
    n = len(table)

    def mul(a, b):
        return table[a][b]
    gens = oracles.table_generators(table)
    assert groups._generators(table) == gens
    for some in (gens, list(range(n)), list(reversed(range(n)))):
        elems, _ = groups._closure(e, some, mul, n)
        assert elems[0] == e and sorted(elems) == list(range(n))
        assert set(oracles.bfs_closure(e, some, mul, n)) == set(elems)


def test_closure_of_a_monoid():
    # a singular idempotent p, alone and with the swap w: cosets of <w>
    # meet, and the cap still counts distinct elements only
    E = gaussian_field()
    one, zero = E.one(), E.zero()
    ident = linalg.identity(2, one, zero)
    p = linalg.mat([[one, zero], [zero, zero]])
    w = linalg.mat([[zero, one], [one, zero]])
    assert closure([p]) == [ident, p]
    for gens in ([p], [w, p], [p, w]):
        args = ident, gens, linalg.mat_mul, 10 ** 4
        elems, _ = groups._closure(*args)
        assert set(elems) == set(oracles.bfs_closure(*args))
        assert len(set(elems)) == len(elems)
        assert len(closure(gens, cap=len(elems))) == len(elems)
        with pytest.raises(ClosureCapExceeded):
            closure(gens, cap=len(elems) - 1)


def test_closure_skips_repeated_generators_and_the_identity():
    args = _matrix_closure_args(catalog_entry("Q8"))
    ident, (a, b) = args[0], args[1]
    q8 = set(oracles.bfs_closure(*args))
    for gens in ([a, a, b], [ident, a, b], [a, ident, b, a, b]):
        elems, used = groups._closure(ident, gens, *args[2:])
        assert elems[0] == ident and set(elems) == q8 and used == [a, b]
    assert groups._closure(ident, [ident], linalg.mat_mul, 0) == ([ident], [])
    assert closure([ident], cap=0) == [ident]


def test_the_closure_cap_fires_exactly_above_the_order():
    two_i = catalog_entry("2I").generators
    assert len(closure(two_i, cap=120)) == 120
    with pytest.raises(ClosureCapExceeded, match="cap 119"):
        closure(two_i, cap=119)


def test_catalog_closures_make_few_matrix_products(monkeypatch):
    # orders summing to 362 close in 391 products, 142 of them for 2I;
    # multiplying every element by every generator took 818
    calls = [0]
    mul = linalg.mat_mul

    def counted(A, B):
        calls[0] += 1
        return mul(A, B)
    monkeypatch.setattr(linalg, "mat_mul", counted)
    for entry in catalog():
        closure(entry.generators)
    assert calls[0] <= 391


def test_matrix_group_refuses_entries_of_another_field():
    E, E5 = gaussian_field(), make_cyclotomic(5)
    g = linalg.identity(3, E5.one(), E5.zero())
    with pytest.raises(ValueError, match="field mismatch: FieldElement"):
        MatrixGroup(E, [g])


def test_matrix_group_orders():
    q8 = catalog_entry("Q8")
    group = MatrixGroup(q8.field, q8.generators)
    assert group.order == 8


def test_average_form_invariance():
    q8 = catalog_entry("Q8")
    group = MatrixGroup(q8.field, q8.generators)
    H = average_form(group)
    assert invariant_under(H, group.elements)
    assert all(sig == (3, 0) for sig in signature_profile(H))


def test_embed_first_type_q8():
    field, H, group = embed_first_type(catalog_entry("Q8"))
    assert is_admissible(H)
    assert group.order == 8
    assert invariant_under(H, group.elements)


def test_invariance_check_runs_under_optimize():
    # "verified exact invariance" must not be an assert that -O removes
    import cmforms
    src = os.path.dirname(os.path.dirname(os.path.abspath(cmforms.__file__)))
    for refuse in [
        # an invariance check that always fails
        ["groups.invariant_under = lambda *args: False",
         "groups.embed_first_type(catalog_entry('C2'))"],
        # a group of order 2 that moves the negative slot
        ["from cmforms.catalog import CatalogEntry",
         "from cmforms.field import gaussian_field",
         "E = gaussian_field()",
         "one, zero = E.one(), E.zero()",
         "g = [[zero, zero, one], [zero, one, zero], [one, zero, zero]]",
         "groups.embed_first_type(CatalogEntry('swap13', 4, E, [g], 2))"],
    ]:
        script = "\n".join([
            "import sys",
            "from cmforms import groups",
            "from cmforms.catalog import catalog_entry",
            "if sys.flags.optimize != 1:",
            "    sys.exit(3)",
        ] + refuse)
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.rstrip().endswith(
            "VerificationError: catalog group does not preserve the "
            "admissible form")


def test_embed_first_type_refuses_a_group_moving_the_slot():
    # the swap of coordinates 1 and 3 has order 2 and moves the negative
    # slot of diag(1, 1, alpha)
    E = gaussian_field()
    one, zero = E.one(), E.zero()
    entry = CatalogEntry("swap13", 4, E, [[[zero, zero, one],
                                           [zero, one, zero],
                                           [one, zero, zero]]], 2)
    assert MatrixGroup(E, entry.generators).order == 2
    with pytest.raises(VerificationError, match="does not preserve"):
        embed_first_type(entry)


def test_invariant_under_refuses_a_matrix_of_another_size():
    E = gaussian_field()
    H = diagonal_form(E, [1, 1, 1])
    I2 = linalg.identity(2, E.one(), E.zero())
    with pytest.raises(ValueError, match="matrix is 2 x 2, the form is 3 x 3"):
        invariant_under(H, [I2])
    ragged = (H.entries[0], H.entries[1], H.entries[2][:2])
    with pytest.raises(ValueError, match="matrix is 3 x 2/3"):
        invariant_under(H, [ragged])
    # orthonormal columns: g^H H g = I_2 once agreed with H in part
    tall = tuple(row[:2] for row in H.entries)
    with pytest.raises(ValueError, match="matrix is 3 x 2, the form is 3 x 3"):
        invariant_under(H, [tall])


def test_e_multiplication_counts(monkeypatch):
    # group facts are certified on the generators and the product skips
    # zero terms; the counts are upper bounds in E-multiplications
    two_i = catalog_entry("2I")
    rep = regular_rep(_s3_table())
    F8 = make_cyclotomic(8)
    calls = [0]
    mul = FieldElement.__mul__

    def counted(a, b):
        calls[0] += 1
        return mul(a, b)
    monkeypatch.setattr(FieldElement, "__mul__", counted)
    monkeypatch.setattr(FieldElement, "__rmul__", counted)

    def count(fn):
        calls[0] = 0
        fn()
        return calls[0]
    assert count(lambda: closure(two_i.generators)) <= 752
    assert count(lambda: embed_first_type(two_i)) <= 775
    assert count(lambda: verify_entry(two_i)) <= 774
    assert count(lambda: regular_embed(rep, F8, 7)) <= 141


def test_regular_embed_shares_one_element_per_integer():
    # the retained rho stays small: entries of one value are one object
    E = gaussian_field()
    _, rho = regular_embed(regular_rep(_s3_table()), E, 7)
    for g in rho:
        objects = {}
        for x in (x for row in g for x in row):
            objects.setdefault(x.as_fraction(), set()).add(id(x))
        assert set(objects) <= {0, 1}
        assert all(len(ids) == 1 for ids in objects.values())


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


@pytest.mark.parametrize("table, products", [
    (_sym_table(4), 72), (_cyclic_table(32), 32)], ids=["S4", "C32"])
def test_regular_rep_multiplies_by_the_generators_only(monkeypatch, table,
                                                       products):
    # rho(a) rho(g) = rho(ag) for every a and generator g: n * |S| integer
    # matrix products, where all pairs took n^2 (576 for S4, 1024 for C32)
    calls = [0]
    mul = groups._int_mat_mul

    def counted(A, B):
        calls[0] += 1
        return mul(A, B)
    monkeypatch.setattr(groups, "_int_mat_mul", counted)
    rep = regular_rep(table)
    assert calls[0] == len(table) * len(rep.generators) == products


def test_a_map_wrong_off_the_generators_is_refused():
    # doubling the image of one element that is not a generator (the
    # identity included) keeps the map faithful but not multiplicative
    table = _sym_table(4)
    rep = regular_rep(table)
    others = [k for k in range(len(table)) if k not in rep.generators]
    assert len(others) == 21
    for k in others:
        wrong = list(rep.matrices)
        wrong[k] = [[2 * x for x in row] for row in wrong[k]]
        with pytest.raises(ValueError, match="not a homomorphism"):
            IntegralRep(table, wrong)


def test_integral_rep_proves_the_table_a_group():
    # a Latin square with identity 0 that is not associative (an order-5
    # loop), with its left multiplication maps as the matrices
    loop = [[0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0]]
    matrices = [[[int(loop[g][h] == i) for h in range(5)] for i in range(5)]
                for g in range(5)]
    with pytest.raises(NotAGroupError, match="associativity fails"):
        IntegralRep(loop, matrices)


def test_regular_embed_default():
    E = gaussian_field()
    rep = regular_rep(_cyclic_table(3))
    H, rho = regular_embed(rep, E, 4)
    assert H.dim == 4
    assert is_admissible(H)
    assert invariant_under(H, rho)
    assert len(set(rho)) == 3


def test_regular_embed_other_class():
    E = gaussian_field()
    rep = regular_rep(_cyclic_table(2))
    H_def, _ = regular_embed(rep, E, 3, DEFAULT_CLASS)
    H_oth, rho = regular_embed(rep, E, 3, OTHER_CLASS)
    assert is_admissible(H_def) and is_admissible(H_oth)
    assert equivalent(H_def, H_oth) == NOT_EQUIVALENT
    assert invariant_under(H_oth, rho)


def test_regular_embed_dimension_check():
    E = gaussian_field()
    rep = regular_rep(_cyclic_table(3))
    with pytest.raises(ValueError):
        regular_embed(rep, E, 3)  # needs n >= m + 1 = 4


def test_regular_embed_takes_the_norm_budget_by_keyword_only():
    # a positional fifth argument (the old slot budget) is refused, not
    # read as the norm budget
    rep = regular_rep(_cyclic_table(2))
    with pytest.raises(TypeError):
        regular_embed(rep, gaussian_field(), 3, OTHER_CLASS, 20)


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
