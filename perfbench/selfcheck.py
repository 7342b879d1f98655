"""Self-check of the traced run.

    python3 perfbench/selfcheck.py [--seed 1] [workload ...]

For each workload, runs `run.py --trace 1` twice with the same seed and
requires:

- identical op counts (`*.calls`, `*.candidates`, `*.elements`) and
  `*_ratio` values in both runs: counts are the stable signal on a noisy
  box, so they must not depend on timing;
- every per-layer metric nonzero on the workloads where README.md says it
  should move an end-to-end metric (REQUIRED below).  A `*_ratio` is
  required to be defined (its call count nonzero), not nonzero: a search
  that decides nothing has ratio 0.

It prints the tracing overhead of each workload (tasks_per_s untraced
versus traced, over the same pass) and exits 1 on any violation.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

FQ, EC, CA, SS = ("forms-qi", "embed-cyclotomic", "cyclic-algebra",
                  "search-sweep")
ALL = (FQ, EC, CA, SS)

# metric -> workloads where it must be nonzero
REQUIRED = {
    "polyn.isolate_real_roots.self_s": ALL,
    "polyn.refine_isolator.calls": (EC,),
    "polyn.interval_eval.calls": (EC, CA),
    "polyn.interval_eval.self_s": (EC, CA),
    "field.mul.calls": (FQ, EC, CA),
    "field.mul.self_s": (FQ, EC, CA),
    "field.inverse.calls": (FQ, CA),
    "field.inverse.self_s": (FQ, CA),
    "field.sign_of_coords.calls": (EC, SS),
    "field.sign_of_coords.self_s": (EC, SS),
    "field.weak_approx_find.calls": (EC, SS),
    "field.weak_approx_find.self_s": (EC, SS),
    "linalg.mat_mul.calls": (EC,),
    "linalg.mat_mul.self_s": (EC,),
    "linalg.det.calls": (FQ, CA),
    "linalg.det.self_s": (FQ, CA),
    "linalg.char_poly.calls": (FQ,),
    "linalg.char_poly.self_s": (FQ,),
    "linalg.inverse.calls": (CA,),
    "linalg.inverse.self_s": (CA,),
    "hermitian.HermitianForm.calls": (FQ,),
    "hermitian.HermitianForm.self_s": (FQ,),
    "hermitian.signature_profile.calls": (FQ,),
    "hermitian.signature_profile.self_s": (FQ,),
    "hermitian.equivalent.calls": (FQ,),
    "hermitian.equivalent.self_s": (FQ,),
    "residue.is_norm.calls": (FQ, SS),
    "residue.is_norm.self_s": (FQ, SS),
    "residue.hilbert_symbol.calls": (FQ,),
    "residue.is_norm.candidates": (SS,),
    "residue.is_norm.decided_ratio": (SS,),
    "groups.closure.calls": (EC,),
    "groups.closure.self_s": (EC,),
    "groups.closure.elements": (EC,),
    "groups.invariant_under.self_s": (EC,),
    "groups.average_form.self_s": (EC,),
    "groups.regular_embed.calls": (EC,),
    "groups.regular_embed.self_s": (EC,),
    "catalog.catalog.calls": (EC,),
    "catalog.catalog.self_s": (EC,),
    "calgebra.lmul.calls": (CA,),
    "calgebra.lmul.self_s": (CA,),
    "calgebra.linverse.calls": (CA,),
    "calgebra.tau_of.calls": (CA,),
    "calgebra.tau_of.self_s": (CA,),
    "calgebra.multiply.calls": (CA,),
    "calgebra.multiply.self_s": (CA,),
    "calgebra.reduced_norm.calls": (CA,),
    "calgebra.reduced_norm.self_s": (CA,),
    "calgebra.splitting_signature.self_s": (CA,),
    "calgebra.unitary_membership.self_s": (CA,),
    "calgebra.verify_involution.self_s": (CA,),
    "calgebra.is_division_candidate.calls": (SS,),
    "calgebra.is_division_candidate.self_s": (SS,),
    "calgebra.is_division_candidate.candidates": (SS,),
    "calgebra.is_division_candidate.decided_ratio": (SS,),
    "dgroups.elements.self_s": (SS,),
    "dgroups.irreducible_degrees.self_s": (SS,),
    "dgroups.second_type_verdict.calls": (SS,),
    "dgroups.second_type_verdict.self_s": (SS,),
    "cli.main.calls": (EC, SS),
    "cli.main.self_s": (EC, SS),
    "serialize.self_s": (EC, SS),
}

DENOMINATOR = {
    "residue.is_norm.decided_ratio": "residue.is_norm.calls",
    "calgebra.is_division_candidate.decided_ratio":
        "calgebra.is_division_candidate.calls",
}


def deterministic(name):
    return name.endswith((".calls", ".candidates", ".elements", "_ratio"))


def traced_run(workload, seed):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s: traced run exited %d" % (workload,
                                                        proc.returncode))
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in last["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=list(ALL))
    args = ap.parse_args()
    problems = []
    for w in args.workloads:
        a, b = traced_run(w, args.seed), traced_run(w, args.seed)
        for name in sorted(a):
            if deterministic(name) and a[name] != b[name]:
                problems.append("%s: %s differs between runs: %r vs %r"
                                % (w, name, a[name], b[name]))
        for name, where in REQUIRED.items():
            if w not in where:
                continue
            probe = DENOMINATOR.get(name, name)
            if not a.get(probe):
                problems.append("%s: %s is zero" % (w, probe))
        print("%-17s overhead %.1f%% (untraced %.3f/s, traced %.3f/s), "
              "%d counts compared" % (
                  w, 100 * a["tracing.overhead_frac"],
                  a["tracing.tasks_per_s_untraced"],
                  a["tracing.tasks_per_s_traced"],
                  sum(1 for n in a if deterministic(n))), flush=True)
    for line in problems:
        print("PROBLEM:", line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
