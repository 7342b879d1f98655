"""The four seeded workloads.

A workload is built in two steps.  `raw(seed, passes)` makes every input
from the seed with the benchmark's own arithmetic and does not touch
cmforms; `setup(raw)` builds the cmforms objects the tasks share (fields,
catalog, algebra) and answers a few fixed priming tasks, so first-use
costs (the sympy import, the first catalog load) land in set-up and not
in the timed loop.  Tasks look cmforms functions up when they run
(`cm.equivalent`, not a name bound at set-up), so the traced run's
patches reach them.

Each pass is a list of `Task`s with a fixed composition; passes differ in
their seeded inputs, so every whole pass costs about the same.  A task's
`run` is the timed call into cmforms.  `finish` turns its result into
plain JSON data and `check` compares that with an oracle; both run after
the timed phase.  `check` returns OK or UNKNOWN and raises on a wrong
answer.
"""

import io
import itertools
import json
import random
from fractions import Fraction
from math import gcd

import oracle

OK = "ok"
UNKNOWN = "unknown"


class WrongAnswer(AssertionError):
    pass


def expect(cond, what):
    if not cond:
        raise WrongAnswer(what)


class Task:
    __slots__ = ("kind", "key", "run", "finish", "check")

    def __init__(self, kind, key, run, finish, check):
        self.kind, self.key = kind, key
        self.run, self.finish, self.check = run, finish, check


def _cli(argv):
    """One in-process CLI call: (exit code, stdout text)."""
    from cmforms import cli
    out = io.StringIO()
    rc = cli.main(argv, out=out)
    return rc, out.getvalue()


def _cli_json(result):
    rc, text = result
    return {"rc": rc, "doc": [json.loads(line) for line in text.splitlines()]}


def _squarefree_kernel(q):
    q = Fraction(q)
    sign = -1 if q < 0 else 1
    v = abs(q.numerator * q.denominator)
    k, p = 1, 2
    while p * p <= v:
        while v % (p * p) == 0:
            v //= p * p
        if v % p == 0:
            v //= p
            k *= p
        p += 1
    return sign * k * v


def _unknown_on(*exc_types):
    """Wrap a call so that budget exhaustion reads as the Unknown verdict."""
    def call(fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except exc_types:
            return UNKNOWN
    return call


# --- forms-qi ---------------------------------------------------------------

FORM_VALUES = [1, -1, 2, -2, 3, -3, 5, -5]
FORMS_PER_PASS = 60          # each gives one congruent and one diagonal task


def _random_T(rng, C, zeta):
    """3x3 T with entries in {-1,0,1} + {-1,0,1}*zeta and det T != 0."""
    while True:
        T = tuple(tuple(C.add(C.elt([rng.randint(-1, 1)]),
                              C.mul(C.elt([rng.randint(-1, 1)]), zeta))
                        for _ in range(3)) for _ in range(3))
        if any(C.det(T)):
            return T


def _congruent(rng, C, d):
    """(T^H D T as cmforms coordinates, det(T^H D T) in Q(zeta))."""
    zeta = C.zeta_pow(1)
    T = _random_T(rng, C, zeta)
    D = tuple(tuple(C.elt([d[i] if i == j else 0]) for j in range(3))
              for i in range(3))
    H2 = C.mat_mul(C.conj_transpose(T), C.mat_mul(D, T))
    return [[C.to_coords(x) for x in row] for row in H2], C.det(H2)


def _signature(d):
    pos = sum(1 for v in d if v > 0)
    return [pos, len(d) - pos]


def forms_qi_raw(seed, passes):
    rng = random.Random(seed)
    C = oracle.Cyclo(4)
    out = []
    for _ in range(passes):
        items = []
        for _ in range(FORMS_PER_PASS):
            d = [rng.choice(FORM_VALUES) for _ in range(3)]
            coords, det = _congruent(rng, C, d)
            assert not any(det[1:])     # hermitian over Q(i): det is rational
            items.append(("congruent", d, coords, det[0]))
            d2 = [rng.choice(FORM_VALUES) for _ in range(3)]
            items.append(("diagonal", d, d2, None))
        rng.shuffle(items)
        out.append(items)
    return out


def forms_qi_setup(raw):
    import cmforms as cm
    from cmforms import serialize
    E = cm.gaussian_field()

    def decide(H1, H2):
        inv = cm.invariants(H2)
        return cm.equivalent(H1, H2), inv

    def finish(result):
        verdict, inv = result
        return [verdict, inv.dim, [list(s) for s in inv.signatures],
                serialize.element_to_json(inv.det_class)]

    def run_congruent(d, coords):
        H1 = cm.diagonal_form(E, d)
        H2 = cm.HermitianForm(E, [[E.element(a, b) for a, b in row]
                                  for row in coords])
        return decide(H1, H2)

    def run_diagonal(d, d2):
        return decide(cm.diagonal_form(E, d), cm.diagonal_form(E, d2))

    def check_invariants(out, d2, det2):
        _, dim, sigs, det_class = out
        expect(dim == 3, "dimension")
        expect(sigs == [_signature(d2)], "signature (Sylvester)")
        expect(det_class == [str(_squarefree_kernel(det2)), "0"],
               "determinant class")

    def congruent_task(d, coords, det):
        def check(out):
            check_invariants(out, d, det)
            expect(out[0] == "Equivalent", "congruent pair must be Equivalent")
            return OK
        return Task("congruent", None, lambda: run_congruent(d, coords),
                    finish, check)

    def diagonal_task(d, d2):
        ratio = Fraction(1)
        for v in d:
            ratio *= v
        for v in d2:
            ratio /= v
        same = (_signature(d) == _signature(d2)
                and oracle.sum_of_two_squares(ratio))
        det2 = d2[0] * d2[1] * d2[2]

        def check(out):
            check_invariants(out, d2, det2)
            if out[0] == "Unknown":
                return UNKNOWN
            want = "Equivalent" if same else "NotEquivalent"
            expect(out[0] == want, "diagonal pair: want %s" % want)
            return OK
        return Task("diagonal", None, lambda: run_diagonal(d, d2),
                    finish, check)

    passes = [[congruent_task(a, b, c) if kind == "congruent"
               else diagonal_task(a, b) for kind, a, b, c in items]
              for items in raw]
    # priming: the first equivalence decision imports sympy
    decide(cm.diagonal_form(E, [1, 1, -1]),
           cm.diagonal_form(E, [1, 1, -4]))
    return passes


# --- embed-cyclotomic ---------------------------------------------------------

def _cyclic_table(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def _s3_table():
    perms = list(itertools.permutations(range(3)))
    idx = {p: k for k, p in enumerate(perms)}
    return [[idx[tuple(p[q[k]] for k in range(3))] for q in perms]
            for p in perms]


TABLES = {"C2": _cyclic_table(2), "C3": _cyclic_table(3), "S3": _s3_table()}
EMBED_FIELDS = (4, 5, 8)


def embed_raw(seed, passes):
    """Fixed inputs; the seed only orders each pass: one shuffle key per
    pass."""
    rng = random.Random(seed)
    return [rng.random() for _ in range(passes)]


def _check_embedded_form(form_json, matrices, order):
    """Admissible (numeric signatures), exactly invariant under every
    matrix, and faithful (order distinct matrices)."""
    field = form_json["field"]
    n = len(form_json["entries"])
    sigs = oracle.numeric_signatures(field, form_json["entries"])
    expect(oracle.is_admissible_signature(sigs, n), "admissible")
    E = oracle.EArith(field)
    H = E.matrix(form_json["entries"])
    for g in matrices:
        expect(E.invariant(H, E.matrix(g)), "exact invariance")
    if order is not None:
        expect(len({json.dumps(g) for g in matrices}) == order, "faithful")


def embed_setup(raw):
    import cmforms as cm
    from cmforms import serialize
    entries = cm.catalog()
    expected = {e.name: e.expected_order for e in entries}
    fields = {r: cm.make_cyclotomic(r) for r in EMBED_FIELDS}
    reps = {g: cm.regular_rep(t) for g, t in TABLES.items()}
    guarded = _unknown_on(cm.UnknownClassError)
    defaults = {}       # reference default-class forms for the oracle

    def cli_task(name):
        def finish(result):
            return _cli_json(result)

        def check(out):
            expect(out["rc"] == 0, "exit code %d" % out["rc"])
            payload = out["doc"][0]["payload"]
            f, gens = serialize.group_from_json(payload["group"])
            expect(serialize.group_to_json(f, gens) == payload["group"],
                   "group round trip")
            H = serialize.form_from_json(payload["form"])
            expect(serialize.form_to_json(H) == payload["form"],
                   "form round trip")
            expect(serialize.field_to_json(
                serialize.field_from_json(payload["field"]))
                == payload["field"], "field round trip")
            expect(payload["order"] == expected[name], "group order")
            _check_embedded_form(payload["form"],
                                 payload["group"]["generators"], None)
            return OK
        return Task("embed-first-type", name,
                    lambda: _cli(["--json", "embed-first-type", name]),
                    finish, check)

    def finish_regular(result):
        if result == UNKNOWN:
            return UNKNOWN
        H, rho = result
        return {"form": serialize.form_to_json(H),
                "rho": [serialize.matrix_to_json(g) for g in rho]}

    def regular_task(g, r):
        rep, E = reps[g], fields[r]

        def check(out):
            expect(out != UNKNOWN, "default class must be decided")
            _check_embedded_form(out["form"], out["rho"], len(TABLES[g]))
            return OK
        return Task("regular-default", (g, r),
                    lambda: cm.regular_embed(rep, E, rep.m + 1),
                    finish_regular, check)

    def other_task(g):
        rep, E = reps[g], fields[4]

        def finish(result):
            out = finish_regular(result)
            if out != UNKNOWN:
                if g not in defaults:
                    defaults[g] = serialize.form_to_json(
                        cm.regular_embed(rep, E, rep.m + 1)[0])
                out["default"] = defaults[g]
            return out

        def check(out):
            if out == UNKNOWN:
                return UNKNOWN
            _check_embedded_form(out["form"], out["rho"], len(TABLES[g]))
            base = out["default"]
            sig = oracle.numeric_signatures(base["field"], base["entries"])
            sig2 = oracle.numeric_signatures(out["form"]["field"],
                                             out["form"]["entries"])
            ratio = (oracle.gauss_det(base["entries"])
                     / oracle.gauss_det(out["form"]["entries"]))
            expect(sig != sig2 or not oracle.sum_of_two_squares(ratio),
                   "other class must not be equivalent to the default")
            return OK
        return Task("regular-other", g,
                    lambda: guarded(cm.regular_embed, rep, E, rep.m + 1,
                                    cm.OTHER_CLASS),
                    finish, check)

    passes = []
    for key in raw:
        tasks = ([cli_task(e.name) for e in entries]
                 + [regular_task(g, r) for g in TABLES for r in EMBED_FIELDS]
                 + [other_task(g) for g in TABLES])
        random.Random(key).shuffle(tasks)
        passes.append(tasks)
    # priming: first CLI call and first norm-residue decision
    _cli(["--json", "embed-first-type", "C2"])
    guarded(cm.regular_embed, reps["C2"], fields[4], reps["C2"].m + 1,
            cm.OTHER_CLASS)
    return passes


# --- cyclic-algebra -----------------------------------------------------------

ALGEBRA_KINDS = (["norm"] * 6 + ["inverse"] * 8 + ["member-random"] * 6
                 + ["member+1", "member-1", "signature-1", "signature-1+eta",
                    "involution"])


def _rand_L_coords(rng):
    """Coordinates as in acceptance criterion 8: three E-coefficients
    a + b*sqrt(-4) with a in [-3, 3] and b in [-3/2, 3/2]."""
    return [(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3), 2))
            for _ in range(3)]


def _rand_A_coords(rng):
    return [_rand_L_coords(rng) for _ in range(3)]


def algebra_raw(seed, passes):
    rng = random.Random(seed)
    out = []
    for _ in range(passes):
        items = []
        for kind in ALGEBRA_KINDS:
            if kind == "norm":
                arg = (_rand_A_coords(rng), _rand_A_coords(rng))
            elif kind in ("inverse", "member-random"):
                arg = _rand_A_coords(rng)
            else:
                arg = None
            items.append((kind, arg))
        rng.shuffle(items)
        out.append(items)
    return out


def algebra_setup(raw):
    import cmforms as cm
    algebra, involution = cm.builtin_example()
    E, ext = algebra.E, algebra.ext
    one = algebra.one()

    def element(coords):
        return algebra.element(*[ext.element([E.element([a], [b])
                                              for a, b in part])
                                 for part in coords])

    def ejson(x):
        return [str(c) for c in x.a + x.b]

    def norm_task(cx, cy):
        def run():
            x, y = element(cx), element(cy)
            return (algebra.reduced_norm(x * y), algebra.reduced_norm(x),
                    algebra.reduced_norm(y))

        def finish(result):
            nxy, nx, ny = result
            return {"nxy": ejson(nxy), "prod": ejson(nx * ny)}

        def check(out):
            expect(out["nxy"] == out["prod"], "Nrd(xy) = Nrd(x) Nrd(y)")
            return OK
        return Task("norm", None, run, finish, check)

    def inverse_task(cx):
        def run():
            x = element(cx)
            return x, algebra.inverse(x)

        def finish(result):
            x, xi = result
            return {"one": x * xi == one}

        def check(out):
            expect(out["one"], "x * x^-1 = 1")
            return OK
        return Task("inverse", None, run, finish, check)

    def membership_task(kind, arg):
        def run():
            if kind == "member-random":
                x = element(arg)
            else:
                x = one if kind == "member+1" else -one
            return x, cm.unitary_membership(algebra, involution, one, x)

        def finish(result):
            x, v = result
            out = {"status": v.status,
                   "scalar": ejson(v.scalar) if v.scalar is not None
                   else None}
            if kind == "member-random":
                nrd = algebra.reduced_norm(x)
                out["norm_one"] = nrd * nrd.conjugate() == E.one()
            return out

        def check(out):
            if kind != "member-random":
                expect(out["status"] == cm.IN_GROUP
                       and out["scalar"] == ejson(E.one()),
                       "+-1 is in U(h) with scalar 1")
            elif not out["norm_one"]:
                expect(out["status"] == cm.NOT_IN_GROUP,
                       "N(Nrd x) != 1 excludes x from U(h)")
            return OK
        return Task(kind, None, run, finish, check)

    def signature_task(kind):
        h = one if kind == "signature-1" else algebra.from_L(
            ext.element([1, 1]))
        want = [[3, 0]] * 3 if kind == "signature-1" else [[2, 1]] * 3

        def check(out):
            expect(out == want, "signature %s" % want)
            return OK
        return Task(kind, kind,
                    lambda: cm.splitting_signature(algebra, involution, h),
                    lambda sig: [list(s) for s in sig], check)

    def involution_task():
        def check(out):
            expect(out, "verify_involution returns the involution")
            return OK
        return Task("involution", "involution",
                    lambda: cm.verify_involution(involution) is involution,
                    lambda ok: ok, check)

    def task(kind, arg):
        if kind == "norm":
            return norm_task(*arg)
        if kind == "inverse":
            return inverse_task(arg)
        if kind.startswith("member"):
            return membership_task(kind, arg)
        if kind.startswith("signature"):
            return signature_task(kind)
        return involution_task()

    passes = [[task(kind, arg) for kind, arg in items] for items in raw]
    # priming: membership and the first real-subfield construction (sympy)
    cm.unitary_membership(algebra, involution, one, one)
    cm.splitting_signature(algebra, involution, one)
    return passes


# --- search-sweep -----------------------------------------------------------

DIVISION_BUDGET = 100
EQUIV_NORM_BUDGET = 300
OTHER_NORM_BUDGET = 200
EQUIV_PER_PASS = 12
ENUMERATE_PER_PASS = 16      # CLI `dgroup enumerate --max-m M --p 3`
ENUMERATE_MAX_M = (22, 28)
# API sweeps over every G_{m,r} with m <= M, the bulk of each pass, so the
# median latency is a dgroups latency, as the layer table says.
SWEEP_MAX_M = (15, 16, 17) * 13 + (16,)


def search_raw(seed, passes):
    rng = random.Random(seed)
    C = oracle.Cyclo(5)
    out = []
    for _ in range(passes):
        items = [("division", None), ("other", None)]
        for _ in range(EQUIV_PER_PASS):
            d = [rng.choice(FORM_VALUES) for _ in range(3)]
            items.append(("equivalent", (d, _congruent(rng, C, d)[0])))
        items += [("enumerate", rng.randint(*ENUMERATE_MAX_M))
                  for _ in range(ENUMERATE_PER_PASS)]
        items += [("sweep", m) for m in SWEEP_MAX_M]
        rng.shuffle(items)
        out.append(items)
    return out


def _mr_pairs(max_m):
    """Every valid (m, r) with m <= max_m, computed independently."""
    return {(1, 1)} | {(m, r) for m in range(2, max_m + 1)
                       for r in range(1, m) if gcd(m, r) == 1}


def _second_type(m, r, p):
    """The expected verdict: n must divide p, and n = p is reducible."""
    n = oracle.multiplicative_order(r, m)
    if p % n:
        return "ExcludedByAmitsur"
    return "CyclicPossible" if n == 1 else "ExcludedByReducibility"


def search_setup(raw):
    import cmforms as cm
    from cmforms import dgroups, serialize
    E5, E8 = cm.make_cyclotomic(5), cm.make_cyclotomic(8)
    rep2 = cm.regular_rep(TABLES["C2"])
    guarded = _unknown_on(cm.UnknownClassError)

    def division_task():
        def check(out):
            payload = out["doc"][0]["payload"]
            # alpha = 10 - 5i has odd valuation at (2+i), which is inert in
            # L/E, so the built-in algebra is a division algebra.
            if out["rc"] == 3:
                expect(payload["division"] == "Unknown", "unknown verdict")
                return UNKNOWN
            expect(out["rc"] == 0 and payload["division"] == "IsDivision",
                   "the built-in algebra is a division algebra")
            return OK
        argv = ["--json", "algebra", "check", "--division-budget",
                str(DIVISION_BUDGET)]
        return Task("division", "division", lambda: _cli(argv), _cli_json,
                    check)

    def other_task():
        def finish(result):
            if result == UNKNOWN:
                return UNKNOWN
            H, rho = result
            default, _ = cm.regular_embed(rep2, E8, 3)
            return {"form": serialize.form_to_json(H),
                    "rho": [serialize.matrix_to_json(g) for g in rho],
                    "vs_default": cm.equivalent(default, H)}

        def check(out):
            if out == UNKNOWN:
                return UNKNOWN
            _check_embedded_form(out["form"], out["rho"], 2)
            # no independent norm test over Q(zeta8): the package's own
            # verdict is the witness here
            expect(out["vs_default"] == "NotEquivalent", "other class")
            return OK
        return Task("other", "other",
                    lambda: guarded(cm.regular_embed, rep2, E8, 3,
                                    cm.OTHER_CLASS,
                                    norm_budget=OTHER_NORM_BUDGET),
                    finish, check)

    def equivalent_task(d, coords):
        def run():
            H1 = cm.diagonal_form(E5, d)
            H2 = cm.HermitianForm(E5, [[E5.element(a, b) for a, b in row]
                                       for row in coords])
            return cm.equivalent(H1, H2, EQUIV_NORM_BUDGET)

        def check(out):
            if out == "Unknown":
                return UNKNOWN
            expect(out == "Equivalent", "congruent pair must be Equivalent")
            return OK
        return Task("equivalent", None, run, lambda v: v, check)

    def enumerate_task(max_m):
        def check(out):
            expect(out["rc"] == 0, "exit code")
            rows = out["doc"]
            expect({(w["m"], w["r"]) for w in rows} == _mr_pairs(max_m)
                   and len(rows) == len(_mr_pairs(max_m)),
                   "enumerated (m, r) pairs")
            for w in rows:
                n = oracle.multiplicative_order(w["r"], w["m"])
                expect(w["n"] == n and w["cyclic"] == (n == 1), "cyclic")
                expect(w["verdict"] == _second_type(w["m"], w["r"], 3),
                       "verdict (CyclicPossible iff cyclic)")
            return OK
        argv = ["--json", "dgroup", "enumerate", "--max-m", str(max_m),
                "--p", "3"]
        return Task("enumerate", max_m, lambda: _cli(argv), _cli_json, check)

    def sweep_task(max_m):
        def run():
            return [(p.m, p.r, len(dgroups.elements(p)),
                     dgroups.irreducible_degrees(p),
                     dgroups.second_type_verdict(p, 3).status)
                    for p in dgroups.enumerate_params(max_m)]

        def check(rows):
            expect({(m, r) for m, r, *_ in rows} == _mr_pairs(max_m),
                   "swept (m, r) pairs")
            for m, r, size, degrees, verdict in rows:
                n = oracle.multiplicative_order(r, m)
                expect(size == m * n, "group order")
                expect(sum(d * d for d in degrees) == m * n,
                       "sum of squared degrees")
                expect(all(n % d == 0 for d in degrees), "degrees divide n")
                expect(verdict == _second_type(m, r, 3), "verdict")
            return OK
        return Task("sweep", max_m, run,
                    lambda rows: [list(w) for w in rows], check)

    def task(kind, arg):
        if kind == "division":
            return division_task()
        if kind == "other":
            return other_task()
        if kind == "equivalent":
            return equivalent_task(*arg)
        if kind == "enumerate":
            return enumerate_task(arg)
        return sweep_task(arg)

    passes = [[task(kind, arg) for kind, arg in items] for items in raw]
    # priming: the CLI and a norm search over a degree-2 base field
    _cli(["--json", "dgroup", "enumerate", "--max-m", "4", "--p", "3"])
    cm.equivalent(cm.diagonal_form(E5, [1, 1, -1]),
                  cm.diagonal_form(E5, [1, 1, -4]), 10)
    return passes


WORKLOADS = {
    "forms-qi": (forms_qi_raw, forms_qi_setup),
    "embed-cyclotomic": (embed_raw, embed_setup),
    "cyclic-algebra": (algebra_raw, algebra_setup),
    "search-sweep": (search_raw, search_setup),
}
