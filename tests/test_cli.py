import io
import itertools
import json
import os
import subprocess
import sys
import time

import pytest

import cmforms
from cmforms import (HermitianForm, cli, closure, diagonal_form,
                     gaussian_field, invariant_under, make_cyclotomic,
                     serialize, zeta)
from cmforms.calgebra import builtin_example
from cmforms.serialize import (algebra_to_json,
                               element_to_json as _alg_element_to_json)
from cmforms.cli import main


def _subprocess_env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cmforms.__file__)))
    return dict(os.environ, PYTHONPATH=src)


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def run_json(argv):
    code, text = run(argv)
    return code, json.loads(text)


@pytest.fixture()
def form_file(tmp_path):
    def write(name, diag):
        H = diagonal_form(gaussian_field(), diag)
        p = tmp_path / name
        p.write_text(json.dumps(serialize.form_to_json(H)))
        return str(p)
    return write


def test_invariants(form_file):
    code, doc = run_json(["invariants", "--form",
                          form_file("h.json", [1, 1, -1])])
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["payload"]["dim"] == 3
    assert doc["payload"]["sigma"] == [1]
    assert doc["payload"]["det_class"] == ["-1", "0"]
    assert doc["trace"]


def test_invariants_of_a_det_with_two_30_digit_primes(form_file):
    # det -pq is not factored: its class is kept whole, at once
    pq = (10 ** 29 + 319) * (3 * 10 ** 29 + 7)
    start = time.perf_counter()
    code, doc = run_json(["--json", "invariants", "--form",
                          form_file("h.json", [1, 1, -pq])])
    assert time.perf_counter() - start < 1
    assert code == 0
    assert doc["payload"]["det_class"] == [str(-pq), "0"]


def test_equivalent_exit_codes(form_file):
    h1 = form_file("h1.json", [1, 1, -1])
    h2 = form_file("h2.json", [1, 1, -4])
    h3 = form_file("h3.json", [1, 1, -3])
    code, doc = run_json(["equivalent", "--form", h1, "--form2", h2])
    assert code == 0 and doc["payload"] == {"verdict": "Equivalent"}
    # a NotEquivalent payload names the obstructing place
    code, doc = run_json(["equivalent", "--form", h1, "--form2", h3])
    assert code == 0 and doc["payload"] == {"verdict": "NotEquivalent",
                                            "obstruction": ["prime", 2]}


def test_admissible(form_file):
    code, doc = run_json(["admissible", "--form",
                          form_file("h.json", [1, 1, -1])])
    assert code == 0 and doc["payload"]["admissible"] is True
    code, doc = run_json(["admissible", "--form",
                          form_file("i3.json", [1, 1, 1])])
    assert code == 0 and doc["payload"]["admissible"] is False


def test_average_round_trip(tmp_path):
    from cmforms.catalog import catalog_entry
    e = catalog_entry("Q8")
    p = tmp_path / "g.json"
    p.write_text(json.dumps(serialize.group_to_json(e.field, e.generators)))
    code, doc = run_json(["average", "--group", str(p)])
    assert code == 0
    H = serialize.form_from_json(doc["payload"])
    assert H.dim == 3


@pytest.mark.parametrize("rows, shape", [
    ([[0, 1, 0], [1, 0, 0]], "generator 0 is 2 x 3"),
    ([[0, 1, 0], [1, 0], [0, 0, 1]], "generator 0 is 3 x 2/3"),
], ids=["2x3", "ragged"])
def test_average_refuses_non_square_generators(tmp_path, rows, shape):
    E = gaussian_field()
    g = [[E.from_rational(c) for c in row] for row in rows]
    p = tmp_path / "g.json"
    p.write_text(json.dumps(serialize.group_to_json(E, [g])))
    code, doc = run_json(["average", "--group", str(p)])
    assert code == 2 and doc["status"] == "error"
    assert shape in doc["payload"]["message"]


def test_embed_first_type():
    code, doc = run_json(["embed-first-type", "Q8"])
    assert code == 0
    H = serialize.form_from_json(doc["payload"]["form"])
    from cmforms import is_admissible
    assert is_admissible(H)
    assert doc["payload"]["order"] == 8


def test_embed_first_type_unknown_name():
    code, doc = run_json(["embed-first-type", "nope"])
    assert code == 2 and doc["status"] == "error"


def test_regular_embed(tmp_path):
    perms = list(itertools.permutations(range(3)))
    idx = {p: k for k, p in enumerate(perms)}
    table = [[idx[tuple(p[q[k]] for k in range(3))] for q in perms]
             for p in perms]
    tp = tmp_path / "s3.json"
    tp.write_text(json.dumps({"table": table}))
    fp = tmp_path / "f.json"
    fp.write_text(json.dumps(serialize.field_to_json(gaussian_field())))
    code, doc = run_json(["regular-embed", "--table", str(tp),
                          "--field", str(fp), "--n", "7"])
    assert code == 0
    H = serialize.form_from_json(doc["payload"]["form"])
    assert H.dim == 7
    # the payload's generators are the images of the generating set the
    # invariance was verified on; they close to S3 and preserve the form
    gens = [serialize.matrix_from_json(H.field, M)
            for M in doc["payload"]["generators"]]
    assert len(gens) == 2
    assert len(closure(gens)) == 6
    assert invariant_under(H, gens)


@pytest.mark.parametrize("table, got", [
    ([[0, 1], [1, 0]], "list"), (5, "int")], ids=["bare_list", "number"])
def test_regular_embed_needs_a_table_object(tmp_path, table, got):
    # a table is read like every other document: a JSON object
    tp = tmp_path / "t.json"
    tp.write_text(json.dumps(table))
    fp = tmp_path / "f.json"
    fp.write_text(json.dumps(serialize.field_to_json(gaussian_field())))
    code, doc = run_json(["regular-embed", "--table", str(tp),
                          "--field", str(fp), "--n", "3"])
    assert code == 2 and doc["payload"] == {
        "message": "a table needs a JSON object, got %s" % got}


def test_dgroup_check():
    code, doc = run_json(["dgroup", "check", "--m", "7", "--r", "2",
                          "--p", "3"])
    assert code == 0
    assert doc["payload"]["verdict"] == "ExcludedByReducibility"
    assert doc["trace"]
    code, doc = run_json(["dgroup", "check", "--m", "6", "--r", "2",
                          "--p", "3"])
    assert code == 2


@pytest.mark.parametrize("split", ["", "1,2,3", "1", "a,b"])
def test_dgroup_check_refuses_a_malformed_split(capsys, split):
    assert run(["dgroup", "check", "--m", "7", "--r", "2", "--p", "3",
                "--split", split]) == (2, "")
    assert ("argument --split: expected p1,p2 (two integers), got %r"
            % split) in capsys.readouterr().err


def test_dgroup_enumerate_json_lines():
    code, text = run(["dgroup", "enumerate", "--max-m", "6", "--p", "3"])
    assert code == 0
    rows = [json.loads(line) for line in text.splitlines()]
    assert all({"m", "r", "s", "t", "n", "order", "cyclic", "verdict"}
               <= set(row) for row in rows)
    assert any(row["verdict"] == "CyclicPossible" for row in rows)


def test_dgroup_enumerate_below_one_prints_no_rows():
    assert run(["dgroup", "enumerate", "--max-m", "0", "--p", "3"]) == (0, "")


def test_dgroup_enumerate_checks_p_before_any_row():
    # a bad p is refused alike with no row to build and with rows
    for max_m in ("0", "1"):
        code, doc = run_json(["dgroup", "enumerate", "--max-m", max_m,
                              "--p", "4"])
        assert code == 2 and doc["payload"]["message"] == \
            "p must be an odd prime"


@pytest.mark.parametrize("argv", [
    ["equivalent", "--form", "h1.json", "--form2", "h2.json",
     "--budget", "-1"],
    ["regular-embed", "--table", "t.json", "--field", "f.json", "--n", "3",
     "--norm-budget", "-1"],
    ["average", "--group", "g.json", "--closure-cap", "-1"],
    ["algebra", "check", "--division-budget", "-3"],
    ["dgroup", "enumerate", "--max-m", "-4"],
], ids=lambda argv: "%s %s" % (argv[0], argv[-2]))
def test_negative_budgets_are_refused(capsys, argv):
    # refused while parsing, before any input file is read
    assert run(argv) == (2, "")
    assert "must be >= 0, got %s" % argv[-1] in capsys.readouterr().err


def test_algebra_check():
    code, doc = run_json(["algebra", "check"])
    assert code == 0 and doc["payload"]["verified"] is True


def test_algebra_check_division_unknown():
    code, doc = run_json(["algebra", "check", "--division-budget", "200"])
    assert code == 3 and doc["status"] == "unknown"
    assert doc["payload"]["division"] == "Unknown"


def test_algebra_norm_and_membership(tmp_path):
    algebra, _ = builtin_example()
    xp = tmp_path / "x.json"
    xp.write_text(json.dumps(_alg_element_to_json(algebra.X())))
    code, doc = run_json(["algebra", "norm", "--element", str(xp)])
    assert code == 0
    assert doc["payload"]["norm"] == ["10", "-5/2"]
    hp = tmp_path / "h.json"
    hp.write_text(json.dumps(_alg_element_to_json(algebra.one())))
    mp = tmp_path / "m.json"
    mp.write_text(json.dumps(_alg_element_to_json(-algebra.one())))
    code, doc = run_json(["algebra", "membership", "--h", str(hp),
                          "--x", str(mp)])
    assert code == 0
    assert doc["payload"]["status"] == "InGroup"
    assert doc["payload"]["scalar"] == ["1", "0"]
    assert doc["trace"] == ["computed x* h x and compared it with h"]


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_algebra_json_of_the_wrong_length_is_refused(tmp_path):
    # extra coordinates, parts or involution images are an error, never
    # silently dropped
    algebra, involution = builtin_example()
    seven = [["7", "0"], ["0", "0"], ["0", "0"]]
    h = _write(tmp_path, "h.json", _alg_element_to_json(algebra.one()))
    x = _alg_element_to_json(-algebra.one())
    code, doc = run_json(["algebra", "membership", "--h", h, "--x",
                          _write(tmp_path, "x.json", x)])
    assert code == 0 and doc["payload"]["status"] == "InGroup"
    code, doc = run_json(["algebra", "membership", "--h", h, "--x",
                          _write(tmp_path, "x4.json", x + [seven])])
    assert code == 2 and "an algebra element" in doc["payload"]["message"]
    code, doc = run_json(["algebra", "membership", "--h", h, "--x",
                          _write(tmp_path, "x2.json", x[:2])])
    assert code == 2 and "an algebra element" in doc["payload"]["message"]
    y = _alg_element_to_json(algebra.X())
    y[1].append(["7", "0"])
    code, doc = run_json(["algebra", "norm", "--element",
                          _write(tmp_path, "y.json", y)])
    assert code == 2 and "an element of L" in doc["payload"]["message"]

    spec = algebra_to_json(algebra, involution)
    code, doc = run_json(["algebra", "check", "--spec",
                          _write(tmp_path, "spec.json", spec)])
    assert code == 0 and doc["payload"]["verified"] is True
    long_tau = dict(spec, tau=spec["tau"] + [["1", "0"]])
    code, doc = run_json(["algebra", "check", "--spec",
                          _write(tmp_path, "tau.json", long_tau)])
    assert code == 2 and "at most 3" in doc["payload"]["message"]
    for n in (8, 10):
        images = (spec["involution"] * 2)[:n]
        code, doc = run_json(["algebra", "check", "--spec",
                              _write(tmp_path, "inv%d.json" % n,
                                     dict(spec, involution=images))])
        assert code == 2
        assert "involution images" in doc["payload"]["message"]


def test_algebra_norm_reads_a_spec_without_involution(tmp_path):
    # the reduced norm needs no involution; check and membership do
    algebra, _ = builtin_example()
    spec = _write(tmp_path, "spec.json", algebra_to_json(algebra))
    x = _write(tmp_path, "x.json", _alg_element_to_json(algebra.X()))
    code, doc = run_json(["algebra", "norm", "--spec", spec, "--element", x])
    assert code == 0 and doc["payload"]["norm"] == ["10", "-5/2"]
    for argv in (["check"], ["membership", "--h", x, "--x", x]):
        code, doc = run_json(["algebra"] + argv + ["--spec", spec])
        assert code == 2
        assert doc["payload"]["message"] == \
            "algebra spec carries no involution data"


@pytest.mark.parametrize("argv, code", [
    (["check", "--m", "7", "--r", "2", "--p", "1000000000000000003"], 0),
    (["check", "--m", "7", "--r", "2",
      "--p", str((10 ** 9 + 7) * (10 ** 9 + 9))], 2),
    (["enumerate", "--max-m", "4", "--p", "1000000000000000003"], 0),
    # a 40-digit prime that the n - 1 test cannot prove: refused
    (["check", "--m", "7", "--r", "2", "--p",
      str(10 * (10 ** 19 + 51) * (2 * 10 ** 19 + 11) + 1)], 2),
    # beyond the Miller-Rabin bound, proved by the n - 1 test
    (["check", "--m", "7", "--r", "2", "--p", str(10 ** 25 + 13)], 0),
])
def test_dgroup_large_p_is_decided_quickly(argv, code):
    # primality by trial division up to sqrt(p) would run for minutes here
    proc = subprocess.run(
        [sys.executable, "-m", "cmforms", "--json", "dgroup"] + argv,
        capture_output=True, env=_subprocess_env(), text=True, timeout=30)
    assert proc.returncode == code, proc.stdout
    if code == 2:
        assert "p must be" in json.loads(proc.stdout)["payload"]["message"]


def test_equivalent_on_an_unsplit_det_is_unknown_quickly(tmp_path):
    # det -pq, p and q 30-digit primes: rho leaves pq unsplit, no known
    # place obstructs, and the witness search runs out, all within seconds
    p, q = 10 ** 29 + 319, 3 * 10 ** 29 + 7
    E = gaussian_field()
    paths = [_write(tmp_path, name, serialize.form_to_json(
        diagonal_form(E, [1, 1, d]))) for name, d in
        (("big.json", -p * q), ("h1.json", -1))]
    proc = subprocess.run(
        [sys.executable, "-m", "cmforms", "--json", "equivalent",
         "--form", paths[0], "--form2", paths[1]],
        capture_output=True, env=_subprocess_env(), text=True, timeout=10)
    assert proc.returncode == 3, proc.stdout
    doc = json.loads(proc.stdout)
    assert doc["payload"] == {"verdict": "Unknown"}
    assert doc["trace"][1] == ("cofactor %d neither proved prime nor split "
                               "by 500000 rho squarings" % (p * q))


@pytest.mark.parametrize("argv", [
    ["embed-first-type", "C2", "--budget", "0"],
    ["regular-embed", "--table", "t.json", "--field", "f.json", "--n", "3",
     "--budget", "0"],
], ids=lambda argv: argv[0])
def test_the_negative_slot_has_no_budget_flag(capsys, argv):
    # the slot is built, not searched for: no budget to set
    assert run(argv) == (2, "")
    assert "unrecognized arguments: --budget 0" in capsys.readouterr().err


def test_closure_cap_is_unknown(tmp_path):
    # Q8 has order 8, so a cap of 2 runs out before the group closes
    from cmforms.catalog import catalog_entry
    e = catalog_entry("Q8")
    gp = _write(tmp_path, "q8.json",
                serialize.group_to_json(e.field, e.generators))
    code, doc = run_json(["average", "--group", gp, "--closure-cap", "2"])
    assert code == 3 and doc["status"] == "unknown"
    assert "closure exceeded cap 2" in doc["payload"]["message"]


def test_uncertified_other_class_is_unknown(tmp_path):
    # over Q(zeta8) no second class is certified within norm budget 200
    tp = _write(tmp_path, "c2.json", {"table": [[0, 1], [1, 0]]})
    fp = _write(tmp_path, "q8.json",
                serialize.field_to_json(make_cyclotomic(8)))
    code, doc = run_json(["regular-embed", "--table", tp, "--field", fp,
                          "--n", "3", "--cls", "other",
                          "--norm-budget", "200"])
    assert code == 3 and doc["status"] == "unknown"
    assert "no second admissible class" in doc["payload"]["message"]


def test_error_on_missing_file():
    code, doc = run_json(["invariants", "--form", "missing.json"])
    assert code == 2 and doc["status"] == "error"
    assert "missing.json" in doc["payload"]["message"]


def test_compact_json_flag(form_file):
    code, text = run(["--json", "admissible", "--form",
                      form_file("h.json", [1, 1, -1])])
    assert code == 0 and text.count("\n") == 1
    json.loads(text)


def test_closed_stdout_exits_quietly():
    # the reader is gone before the first write, as after `| head -1`
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cmforms", "dgroup", "enumerate",
             "--max-m", "28", "--p", "3"],
            stdout=w, stderr=subprocess.PIPE, env=_subprocess_env(), text=True,
            timeout=120)
    finally:
        os.close(w)
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "" and proc.returncode == 1


_PARSE_TWICE = """
import io, sys
from cmforms import cli
assert cli.main(["--json", "embed-first-type"]) == 2  # no name
out = io.StringIO()
assert cli.main(["--json", "embed-first-type", "C2"], out=out) == 0
assert cli.build_parser.cache_info().misses == 1
sys.stdout.write(out.getvalue())
"""


def test_the_parser_is_built_once_and_reused_after_a_failed_parse():
    assert cli.build_parser() is cli.build_parser()
    env = _subprocess_env()
    reused = subprocess.run([sys.executable, "-c", _PARSE_TWICE], env=env,
                            capture_output=True, text=True, timeout=120)
    assert reused.returncode == 0, reused.stderr
    assert "the following arguments are required: name" in reused.stderr
    fresh = subprocess.run(
        [sys.executable, "-m", "cmforms", "--json", "embed-first-type", "C2"],
        env=env, capture_output=True, text=True, timeout=120)
    assert fresh.returncode == 0 and fresh.stdout
    assert reused.stdout == fresh.stdout


class _BrokenOut:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_enumerate_output_failure_propagates():
    with pytest.raises(BrokenPipeError) as info:
        main(["dgroup", "enumerate", "--max-m", "6"], out=_BrokenOut())
    # raised by the write itself, not from inside an error handler
    assert info.value.__context__ is None
    # a failure to build a row is still a command error
    code, doc = run_json(["dgroup", "enumerate", "--max-m", "6", "--p", "4"])
    assert code == 2 and doc["status"] == "error"


def test_form_commands_same_output_under_optimize(tmp_path):
    # every check behind the printed answers still runs under -O
    E5 = make_cyclotomic(5)
    w, z = E5.gen_F(), zeta(E5, 5)
    forms = {
        "qi_a": diagonal_form(gaussian_field(), [1, 1, -1]),
        "qi_b": diagonal_form(gaussian_field(), [1, 1, -4]),
        "z5_a": diagonal_form(E5, [E5.one(), E5.one(), 1 + w]),
        "z5_b": HermitianForm(E5, [[E5.zero(), z, E5.one()],
                                   [z.conjugate(), E5.zero(), E5.one()],
                                   [E5.one(), E5.one(), E5.zero()]]),
    }
    paths = {}
    for name, H in forms.items():
        paths[name] = str(tmp_path / (name + ".json"))
        with open(paths[name], "w") as fh:
            json.dump(serialize.form_to_json(H), fh)
    argvs = []
    for a, b in (("qi_a", "qi_b"), ("z5_a", "z5_b")):
        argvs += [["invariants", "--form", paths[a]],
                  ["admissible", "--form", paths[b]],
                  ["equivalent", "--form", paths[a], "--form2", paths[b],
                   "--budget", "200"]]
    script = ("import json, sys\n"
              "from cmforms.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    main(argv)\n")
    outputs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable] + flags + ["-c", script, json.dumps(argvs)],
            capture_output=True, env=_subprocess_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b'"status": "ok"') == len(argvs)
