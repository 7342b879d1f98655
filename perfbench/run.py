"""cmforms benchmark: one seeded workload, closed loop, one client.

    python3 perfbench/run.py --workload forms-qi --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports cmforms from its
`src/` directory.  One process, no threads, one task at a time: the next
task starts when the previous answer is back, as for a caller of the
library.  The timed loop runs whole passes (see workloads.py), stopping at
the pass boundary nearest to `--seconds`, so every run sees the same task
mix.

Times are reported at a nominal machine speed.  The machine this was
built on changes speed by up to 2x within seconds (CPU time tracks wall
time, so it is speed, not waiting), which swamps run-to-run comparisons.
So a fixed Fraction loop that runs no cmforms code (`Gauge`) is timed
before and after every task, and each task's wall time is scaled by
NOMINAL_GAUGE_S over the median of the last few gauge readings.  The raw wall-clock
figures are in the report line.

--trace 0 prints the end-to-end metrics; --trace 1 runs the first pass
untraced, traced (spans.py) and untraced again, whatever `--seconds` says,
and prints the per-layer metrics and the tracing overhead.  Every answer
is checked against an oracle after the timed phase; a wrong answer or an
unexpected exception is a failure, and any failure makes the exit code 1.
The last stdout line is the result object; the line before it is a report
with the machine context, sample counts and the tail percentile used.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import workloads  # noqa: E402  (HERE is on sys.path as the script's dir)

PASSES = 8            # distinct seeded passes built per run; the loop cycles
SETUP_PROBES = 4      # fresh processes timing set-up, besides this one
MIN_PASSES = 2        # fewest whole passes a timed run makes, even past
                      # --seconds; the tail percentile is fixed from them
NOMINAL_GAUGE_S = 0.0025   # gauge time at the nominal machine speed
GAUGE_WINDOW = 5      # readings in the running median


class Gauge:
    """Running estimate of the machine's speed from a fixed Fraction loop
    (about 2.5 ms at nominal speed) that does not touch cmforms."""

    def __init__(self):
        self.readings = []

    def read(self):
        t0 = time.perf_counter()
        acc, third = Fraction(0), Fraction(1, 3)
        for i in range(600):
            acc += third * Fraction(i % 7 + 1, i % 5 + 1)
        self.readings.append(time.perf_counter() - t0)

    def scale(self):
        """Factor from wall time to time at nominal speed, from the last
        GAUGE_WINDOW readings."""
        return NOMINAL_GAUGE_S / statistics.median(
            self.readings[-GAUGE_WINDOW:])


def import_cmforms():
    """Import cmforms from this checkout's src/ or exit 2."""
    sys.path.insert(0, SRC)
    try:
        import cmforms
    except ImportError as e:
        sys.stderr.write("perfbench: cannot import cmforms from %s: %s\n"
                         % (SRC, e))
        sys.exit(2)
    if not os.path.abspath(cmforms.__file__).startswith(SRC + os.sep):
        sys.stderr.write("perfbench: cmforms came from %s, not %s\n"
                         % (cmforms.__file__, SRC))
        sys.exit(2)


def set_up(workload, seed):
    """(passes, wall seconds, nominal seconds) to import cmforms, build the
    inputs and prime.  The gauge is read before and after."""
    raw_fn, setup_fn = workloads.WORKLOADS[workload]
    raw = raw_fn(seed, PASSES)
    gauge = Gauge()
    for _ in range(3):
        gauge.read()
    t0 = time.perf_counter()
    import_cmforms()
    passes = setup_fn(raw)
    wall = time.perf_counter() - t0
    for _ in range(3):
        gauge.read()
    return passes, wall, wall * NOMINAL_GAUGE_S / statistics.median(
        gauge.readings)


def probe_setup(workload, seed):
    """(wall, nominal) set-up seconds of a fresh process running set_up."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("set-up probe exited %d" % proc.returncode)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["wall_s"], out["setup_s"]


class Loop:
    """Results of a closed loop: per task (task, answer, error), wall and
    nominal latency, and per pass (tasks, wall seconds, nominal seconds)."""

    def __init__(self, gauge):
        self.gauge = gauge
        self.results, self.wall, self.nominal, self.passes = [], [], [], []

    def run_pass(self, tasks):
        wall = nominal = 0.0
        for task in tasks:
            self.gauge.read()
            t0 = time.perf_counter()
            try:
                out, err = task.run(), None
            except Exception:
                out, err = None, traceback.format_exc(limit=3)
            dt = time.perf_counter() - t0
            self.gauge.read()       # readings bracket the task
            scale = self.gauge.scale()
            self.results.append((task, out, err))
            self.wall.append(dt)
            self.nominal.append(dt * scale)
            wall += dt
            nominal += dt * scale
        self.passes.append((len(tasks), wall, nominal))

    def tasks_per_s(self, col):
        """Tasks over the summed time of all passes (col 1 wall time, col
        2 nominal time)."""
        return (sum(p[0] for p in self.passes)
                / sum(p[col] for p in self.passes))


def closed_loop(passes, seconds, min_passes):
    """Whole passes, at least `min_passes`, stopping at the pass boundary
    nearest to `seconds` of wall time; returns (Loop, elapsed)."""
    loop = Loop(Gauge())
    t0 = time.perf_counter()
    while True:
        loop.run_pass(passes[len(loop.passes) % len(passes)])
        elapsed = time.perf_counter() - t0
        if (len(loop.passes) >= min_passes
                and elapsed + elapsed / len(loop.passes) / 2 >= seconds):
            return loop, elapsed


def verify(results):
    """Check every answer; (per-result status list, failure messages).

    Tasks with a key have fixed inputs, so an answer already checked for
    the same key is not checked again."""
    seen = {}
    statuses, failures = [], []
    for task, out, err in results:
        if err is not None:
            statuses.append("fail")
            failures.append("%s %r raised:\n%s" % (task.kind, task.key, err))
            continue
        try:
            canon = task.finish(out)
            memo = None
            if task.key is not None:
                memo = (task.kind, repr(task.key),
                        json.dumps(canon, sort_keys=True))
            status = seen.get(memo) if memo else None
            if status is None:
                status = task.check(canon)
                if memo:
                    seen[memo] = status
        except workloads.WrongAnswer as e:
            status = "fail"
            failures.append("%s %r: wrong answer: %s" % (task.kind, task.key,
                                                         e))
        except Exception:
            status = "fail"
            failures.append("%s %r: oracle raised:\n%s" % (
                task.kind, task.key, traceback.format_exc(limit=3)))
        statuses.append(status)
    return statuses, failures


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(samples):
    """The highest percentile of TAIL_LADDER that leaves at least ten of
    `samples` beyond it.  Called with the samples of the fewest passes a
    run makes, so all runs of a workload report the same percentile."""
    return next((p for p in TAIL_LADDER if samples * (1 - p / 100) >= 10),
                TAIL_LADDER[-1])


def percentile(xs, p):
    """Nearest-rank percentile of a list."""
    xs = sorted(xs)
    return xs[min(len(xs) - 1, max(0, math.ceil(p / 100 * len(xs)) - 1))]


def machine_context():
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "loadavg_at_start": list(os.getloadavg())}


def kind_summary(loop):
    by = {}
    for (task, _, _), dt in zip(loop.results, loop.nominal):
        by.setdefault(task.kind, []).append(dt)
    return {k: {"samples": len(v), "p50_ms": statistics.median(v) * 1e3}
            for k, v in sorted(by.items())}


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(args, context):
    passes, wall_setup, main_setup = set_up(args.workload, args.seed)
    loop, elapsed = closed_loop(passes, args.seconds, MIN_PASSES)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probes = [probe_setup(args.workload, args.seed)
              for _ in range(SETUP_PROBES)]
    setups = [main_setup] + [nominal for _, nominal in probes]
    wall_setups = [wall_setup] + [wall for wall, _ in probes]
    statuses, failures = verify(loop.results)
    attempted = len(loop.results)
    failed = statuses.count("fail")
    unknown = statuses.count(workloads.UNKNOWN)
    p = tail_percentile(MIN_PASSES * len(passes[0]))
    tail = percentile(loop.nominal, p)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "tasks_per_s": metric(loop.tasks_per_s(2), "1/s"),
        "latency_p50_ms": metric(statistics.median(loop.nominal) * 1e3,
                                 "ms"),
        "latency_tail_ms": metric(tail * 1e3, "ms"),
        "decided_frac": metric(1 - unknown / attempted, "ratio"),
        "verified_frac": metric(1 - failed / attempted, "ratio"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    report = {
        "workload": args.workload, "seed": args.seed, "trace": 0,
        "context": context, "seconds": args.seconds,
        "timed_s": elapsed, "passes": len(loop.passes),
        "tasks_per_pass": len(passes[0]),
        "distinct_passes": len(passes),
        "samples": attempted,
        "tail_percentile": p,
        "tail_samples_beyond": sum(1 for x in loop.nominal if x > tail),
        "setup_samples_s": setups,
        "gauge_median_ms": statistics.median(loop.gauge.readings) * 1e3,
        "gauge_samples": len(loop.gauge.readings),
        "wall_clock": {
            "setup_s": statistics.median(wall_setups),
            "setup_samples_s": wall_setups,
            "tasks_per_s": loop.tasks_per_s(1),
            "latency_p50_ms": statistics.median(loop.wall) * 1e3,
            "latency_tail_ms": percentile(loop.wall, p) * 1e3,
            "pass_s": [wall for _, wall, _ in loop.passes],
        },
        "unknown_frac": unknown / attempted,
        "failed_frac": failed / attempted,
        "kinds": kind_summary(loop),
        "failures": failures[:5],
    }
    return attempted, failed, metrics, report


def traced(args, context):
    import spans
    tracer = spans.Tracer()
    raw_fn, setup_fn = workloads.WORKLOADS[args.workload]
    raw = raw_fn(args.seed, PASSES)
    import_cmforms()
    spans.install(tracer)
    try:
        passes = setup_fn(raw)
    finally:
        tracer.uninstall()
    # pass 0 untraced, traced, untraced again: the two untraced runs
    # bracket the traced one, so a drift in machine speed cancels to first
    # order in the overhead.
    plain, traced_loop = Loop(Gauge()), Loop(Gauge())
    plain.run_pass(passes[0])
    spans.install(tracer)
    try:
        traced_loop.run_pass(passes[0])
    finally:
        tracer.uninstall()
    plain.run_pass(passes[0])
    statuses, failures = verify(traced_loop.results)
    # the traced answers must equal the untraced ones
    for i, ((task, a, ea), (_, b, eb)) in enumerate(
            zip(plain.results, traced_loop.results)):
        same = (ea is None) == (eb is None) and (
            ea is not None or json.dumps(task.finish(a), sort_keys=True)
            == json.dumps(task.finish(b), sort_keys=True))
        if not same:
            failures.append("%s %r: traced answer differs" % (task.kind,
                                                              task.key))
            statuses[i] = "fail"
    attempted = len(traced_loop.results)
    failed = statuses.count("fail")
    metrics = {name: metric(value, spans.unit(name))
               for name, value in spans.per_layer(tracer).items()}
    n = len(passes[0])
    tps_traced = n / traced_loop.passes[0][2]
    tps_plain = 2 * n / (plain.passes[0][2] + plain.passes[1][2])
    metrics["tracing.tasks_per_s_traced"] = metric(tps_traced, "1/s")
    metrics["tracing.tasks_per_s_untraced"] = metric(tps_plain, "1/s")
    metrics["tracing.overhead_frac"] = metric(1 - tps_traced / tps_plain,
                                              "ratio")
    report = {
        "workload": args.workload, "seed": args.seed, "trace": 1,
        "context": context, "samples": attempted,
        "spans": len(tracer.start),
        "unknown_frac": statuses.count(workloads.UNKNOWN) / attempted,
        "failed_frac": failed / attempted,
        "kinds": kind_summary(traced_loop),
        "failures": failures[:5],
    }
    return attempted, failed, metrics, report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        _, wall, nominal = set_up(args.workload, args.seed)
        print(json.dumps({"wall_s": wall, "setup_s": nominal}))
        return 0
    context = machine_context()
    run = traced if args.trace else untraced
    attempted, failed, metrics, report = run(args, context)
    for line in report["failures"]:
        sys.stderr.write("FAILED: %s\n" % line)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
