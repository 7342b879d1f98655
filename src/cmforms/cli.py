"""Command-line surface: JSON in, JSON out.

Every command prints a single CommandResult document
{"status": "ok"|"error"|"unknown", "payload": ..., "trace": [...]} and
exits 0 (ok), 2 (error) or 3 (unknown); `dgroup enumerate` instead emits
one JSON object per line, one per enumerated group.  Run as a program,
it exits 1 without a traceback when its reader closes stdout early (as
`| head` does).

Budgets: weak-approximation max-norm 20, norm-witness search 10^4
candidates, closure cap 10^4 elements; all adjustable by flags, which,
like `--max-m`, refuse a negative value (exit 2).  Over Q the norm
budget bounds the search only when d or delta stays unsplit: a decided
norm gets its witness by descent.  Factoring spends at most 5*10^5
Brent-rho squarings per cofactor >= 3.3e24 (no flag); a cofactor it
leaves unsplit is named in the trace of an unknown result.
"""

import argparse
import functools
import json
import os
import sys

from . import calgebra, dgroups, groups, hermitian, serialize
from .catalog import catalog_entry
from .field import BudgetExceeded, VerificationError
from .residue import UNKNOWN


class CommandResult:
    def __init__(self, status, payload, trace=()):
        self.status = status
        self.payload = payload
        self.trace = list(trace)

    def to_json(self):
        return {"status": self.status, "payload": self.payload,
                "trace": self.trace}


EXIT_CODES = {"ok": 0, "error": 2, "unknown": 3}


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ValueError("cannot read %s: %s" % (path, e))


def _inv_payload(inv):
    return {
        "dim": inv.dim,
        "sigma": sorted(inv.sigma()),
        "signatures": [list(sig) for sig in inv.signatures],
        "det_class": serialize.element_to_json(inv.det_class),
    }


# --- command handlers -------------------------------------------------------

def cmd_invariants(args):
    H = serialize.form_from_json(_load_json(args.form))
    inv = hermitian.invariants(H)
    return CommandResult("ok", _inv_payload(inv),
                         ["parsed form of dimension %d" % H.dim,
                          "computed signature profile and determinant class"])


def cmd_equivalent(args):
    H1 = serialize.form_from_json(_load_json(args.form))
    H2 = serialize.form_from_json(_load_json(args.form2))
    verdict = hermitian.equivalent(H1, H2, args.budget)
    status = "unknown" if verdict == UNKNOWN else "ok"
    trace = ["compared dimensions, signature profiles and determinant "
             "classes"] + list(verdict.trace)
    payload = {"verdict": verdict}
    if verdict.obstruction is not None:
        payload["obstruction"] = verdict.obstruction
    return CommandResult(status, payload, trace)


def cmd_admissible(args):
    H = serialize.form_from_json(_load_json(args.form))
    ok = hermitian.is_admissible(H)
    profile = [list(s) for s in hermitian.signature_profile(H)]
    return CommandResult("ok", {"admissible": ok, "signatures": profile},
                         ["checked signature (n-2, definite elsewhere)"])


def cmd_average(args):
    field, gens = serialize.group_from_json(_load_json(args.group))
    group = groups.MatrixGroup(field, gens, args.closure_cap)
    H = groups.average_form(group)
    return CommandResult("ok", serialize.form_to_json(H),
                         ["closed group: order %d" % group.order,
                          "verified invariance and positive definiteness"])


def cmd_embed_first_type(args):
    entry = catalog_entry(args.name)
    field, H, group = groups.embed_first_type(entry, args.budget)
    payload = {
        "field": serialize.field_to_json(field),
        "form": serialize.form_to_json(H),
        "group": serialize.group_to_json(field, group.generators),
        "order": group.order,
    }
    return CommandResult("ok", payload,
                         ["weak approximation found the negative slot",
                          "verified admissibility",
                          "verified exact invariance under the generators "
                          "(%d of them); their closure has order %d"
                          % (len(group.generators), group.order)])


def cmd_regular_embed(args):
    table = serialize.read_key(_load_json(args.table), "a table", "table")
    field = serialize.field_from_json(_load_json(args.field))
    rep = groups.regular_rep(table)
    H, rho = groups.regular_embed(rep, field, args.n, args.cls,
                                  args.budget, args.norm_budget)
    payload = {
        "form": serialize.form_to_json(H),
        "generators": [serialize.matrix_to_json(rho[g])
                       for g in rep.generators],
        "class": args.cls,
    }
    return CommandResult("ok", payload,
                         ["validated multiplication table (order %d)"
                          % rep.group_order,
                          "averaged form over the regular representation",
                          "verified admissibility, invariance, faithfulness"])


def cmd_dgroup_check(args):
    params = dgroups.validate(args.m, args.r)
    verdict = dgroups.second_type_verdict(params, args.p, args.split)
    return CommandResult("ok", _dgroup_row(params, verdict),
                         list(verdict.trace))


def _dgroup_row(params, verdict=None):
    """The JSON row of one metacyclic group, with its verdict if given."""
    row = {"m": params.m, "r": params.r, "s": params.s, "t": params.t,
           "n": params.n, "order": dgroups.order(params),
           "cyclic": dgroups.is_cyclic(params)}
    if verdict is not None:
        row["verdict"] = verdict.status
    return row


def _dgroup_rows(args):
    """The rows of `dgroup enumerate`, one at a time, after p is checked."""
    if args.p is not None:
        dgroups.check_odd_prime(args.p)
    for params in dgroups.enumerate_params(args.max_m):
        yield _dgroup_row(params, None if args.p is None else
                          dgroups.second_type_verdict(params, args.p))


def _load_algebra(args, need_involution=True):
    """The --spec algebra, or the built-in one; a spec without involution
    images is refused where the command needs the involution."""
    if args.spec:
        algebra, involution = serialize.algebra_from_json(
            _load_json(args.spec))
        if involution is None and need_involution:
            raise ValueError("algebra spec carries no involution data")
        return algebra, involution
    return calgebra.builtin_example()


def cmd_algebra_check(args):
    algebra, involution = _load_algebra(args)
    X = algebra.X()
    if X ** 3 != algebra.element(algebra.alpha_L):
        raise VerificationError("X^3 != alpha")
    if algebra.reduced_norm(X) != algebra.alpha:
        raise VerificationError("reduced_norm(X) != alpha")
    trace = ["verified X^3 = alpha and reduced_norm(X) = alpha",
             "verified the involution axioms on the generators 1, y, X "
             "(27 basis pairs), which imply them on all of A"]
    payload = {"alpha": serialize.element_to_json(algebra.alpha),
               "verified": True}
    status = "ok"
    if args.division_budget:
        verdict = calgebra.is_division_candidate(algebra,
                                                 args.division_budget)
        payload["division"] = verdict.status
        if verdict == UNKNOWN:
            status = "unknown"
            trace.append("norm-witness search exhausted the budget")
        else:
            trace.append("found a norm witness: the algebra has zero "
                         "divisors")
    return CommandResult(status, payload, trace)


def cmd_algebra_norm(args):
    algebra, _ = _load_algebra(args, need_involution=False)
    x = serialize.element_from_json(algebra, _load_json(args.element))
    n = algebra.reduced_norm(x)
    return CommandResult("ok", {"norm": serialize.element_to_json(n)},
                         ["det S(x) by cofactor expansion along column 0, "
                          "verified to lie in E"])


def cmd_algebra_membership(args):
    algebra, involution = _load_algebra(args)
    h = serialize.element_from_json(algebra, _load_json(args.h))
    x = serialize.element_from_json(algebra, _load_json(args.x))
    verdict = calgebra.unitary_membership(algebra, involution, h, x)
    payload = {"status": verdict.status}
    if verdict.scalar is not None:
        payload["scalar"] = serialize.element_to_json(verdict.scalar)
    return CommandResult("ok", payload,
                         ["computed x* h x and compared it with h"])


# --- parser ------------------------------------------------------------------

@functools.cache
def build_parser():
    """The parser of every command, built once per process: parse_args
    leaves it unchanged, so each call of `main` reuses it."""
    p = argparse.ArgumentParser(
        prog="cmforms",
        description="Exact hermitian-form and cyclic-algebra pipelines "
                    "over CM fields.")
    p.add_argument("--json", action="store_true",
                   help="compact single-line JSON output")
    sub = p.add_subparsers(dest="command", required=True)

    def nonnegative(text):
        """The type of every budget, cap and bound flag."""
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be >= 0, got %d" % value)
        return value

    def split_pair(text):
        """The type of --split: exactly two comma-separated integers."""
        try:
            p1, p2 = map(int, text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                "expected p1,p2 (two integers), got %r" % text) from None
        return p1, p2

    norm_help = ("norm-witness search budget (over Q: only when d or delta"
                 " stays unsplit)")
    def add_budgets(sp, norm=False):
        sp.add_argument("--budget", type=nonnegative, default=20,
                        help="weak-approximation max-norm budget")
        if norm:
            sp.add_argument("--norm-budget", type=nonnegative,
                            default=10 ** 4, help=norm_help)

    sp = sub.add_parser("invariants", help="form invariants")
    sp.add_argument("--form", required=True)
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("equivalent", help="decide equivalence of two forms")
    sp.add_argument("--form", required=True)
    sp.add_argument("--form2", required=True)
    sp.add_argument("--budget", type=nonnegative, default=10 ** 4,
                    help=norm_help)
    sp.set_defaults(func=cmd_equivalent)

    sp = sub.add_parser("admissible", help="test the signature condition")
    sp.add_argument("--form", required=True)
    sp.set_defaults(func=cmd_admissible)

    sp = sub.add_parser("average", help="group-average an invariant form")
    sp.add_argument("--group", required=True)
    sp.add_argument("--closure-cap", type=nonnegative, default=10 ** 4)
    sp.set_defaults(func=cmd_average)

    sp = sub.add_parser("embed-first-type",
                        help="admissible form for a catalog group")
    sp.add_argument("name")
    add_budgets(sp)
    sp.set_defaults(func=cmd_embed_first_type)

    sp = sub.add_parser("regular-embed",
                        help="admissible form from a multiplication table")
    sp.add_argument("--table", required=True)
    sp.add_argument("--field", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--cls", choices=[groups.DEFAULT_CLASS,
                                      groups.OTHER_CLASS],
                    default=groups.DEFAULT_CLASS)
    add_budgets(sp, norm=True)
    sp.set_defaults(func=cmd_regular_embed)

    sp = sub.add_parser("dgroup", help="metacyclic group verdicts")
    dsub = sp.add_subparsers(dest="dgroup_command", required=True)
    spc = dsub.add_parser("check")
    spc.add_argument("--m", type=int, required=True)
    spc.add_argument("--r", type=int, required=True)
    spc.add_argument("--p", type=int, required=True)
    spc.add_argument("--split", type=split_pair,
                     help="p1,p2 with p1+p2=p")
    spc.set_defaults(func=cmd_dgroup_check)
    spe = dsub.add_parser("enumerate")
    spe.add_argument("--max-m", type=nonnegative, required=True)
    spe.add_argument("--p", type=int)
    spe.set_defaults(func=None, enumerate=True)

    sp = sub.add_parser("algebra", help="cyclic algebra checks")
    asub = sp.add_subparsers(dest="algebra_command", required=True)
    for name, func in [("check", cmd_algebra_check),
                       ("norm", cmd_algebra_norm),
                       ("membership", cmd_algebra_membership)]:
        spa = asub.add_parser(name)
        spa.add_argument("--spec", help="algebra spec JSON "
                                        "(default: built-in example)")
        if name == "check":
            spa.add_argument("--division-budget", type=nonnegative,
                             default=0,
                             help="run the norm-witness division search")
        if name == "norm":
            spa.add_argument("--element", required=True)
        if name == "membership":
            spa.add_argument("--h", required=True)
            spa.add_argument("--x", required=True)
        spa.set_defaults(func=func)

    return p


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    if getattr(args, "enumerate", False):
        rows = _dgroup_rows(args)
        while True:
            # only building a row is a command error; a failed write
            # propagates as it is
            try:
                row = next(rows, None)
            except Exception as e:
                result = CommandResult("error", {"message": str(e)})
                out.write(json.dumps(result.to_json()) + "\n")
                return 2
            if row is None:
                return 0
            out.write(json.dumps(row) + "\n")
    try:
        result = args.func(args)
    except BudgetExceeded as e:
        result = CommandResult("unknown", {"message": str(e)})
    except Exception as e:
        result = CommandResult("error", {"message": str(e)})
    doc = result.to_json()
    if args.json:
        out.write(json.dumps(doc, separators=(",", ":")) + "\n")
    else:
        out.write(json.dumps(doc, indent=1) + "\n")
    return EXIT_CODES[result.status]


def run():
    """Program entry point: main() on sys.stdout, quiet on a broken pipe."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; send what is still buffered to devnull so the
        # flush at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(run())
