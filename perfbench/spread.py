"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload forms-qi --seeds 1-10

Runs run.py once per seed, one run at a time, and prints for every
end-to-end metric in BENCHMARK.json its median, quartiles and the
interquartile distance as a share of the median, next to the metric's
bound.  A spread above a third of its bound is flagged; setup_s is judged
only by its median.  Exits 1 if a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range a-b")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print("seed %d: exit %d" % (seed, proc.returncode))
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print("seed %d: %s" % (seed, ", ".join(
            "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)
    for m in bench["end_to_end"]:
        xs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        flag = ""
        if m["name"] != "setup_s" and spread > m["bound"] / 3:
            flag = "  above a third of the bound"
        print("%-16s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f "
              "bound %.2f%s" % (m["name"], med, q1, q3, spread, m["bound"],
                                flag))
    return 0


if __name__ == "__main__":
    sys.exit(main())
