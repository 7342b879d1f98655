import io
import itertools
import json
import os
import subprocess
import sys

import pytest

import cmforms
from cmforms import (HermitianForm, diagonal_form, gaussian_field,
                     make_cyclotomic, serialize, zeta)
from cmforms.calgebra import _alg_element_to_json, builtin_example
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


def test_equivalent_exit_codes(form_file):
    h1 = form_file("h1.json", [1, 1, -1])
    h2 = form_file("h2.json", [1, 1, -4])
    h3 = form_file("h3.json", [1, 1, -3])
    code, doc = run_json(["equivalent", "--form", h1, "--form2", h2])
    assert code == 0 and doc["payload"]["verdict"] == "Equivalent"
    code, doc = run_json(["equivalent", "--form", h1, "--form2", h3])
    assert code == 0 and doc["payload"]["verdict"] == "NotEquivalent"


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


def test_dgroup_check():
    code, doc = run_json(["dgroup", "check", "--m", "7", "--r", "2",
                          "--p", "3"])
    assert code == 0
    assert doc["payload"]["verdict"] == "ExcludedByReducibility"
    assert doc["trace"]
    code, doc = run_json(["dgroup", "check", "--m", "6", "--r", "2",
                          "--p", "3"])
    assert code == 2


def test_dgroup_enumerate_json_lines():
    code, text = run(["dgroup", "enumerate", "--max-m", "6", "--p", "3"])
    assert code == 0
    rows = [json.loads(line) for line in text.splitlines()]
    assert all({"m", "r", "s", "t", "n", "order", "cyclic", "verdict"}
               <= set(row) for row in rows)
    assert any(row["verdict"] == "CyclicPossible" for row in rows)


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
