"""Benchmark entry point for oscdeform.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads (see workloads.py and
README.md) run in closed loop: one caller in one process, each task started
when the previous one has returned.  Every measurement happens in a fresh
interpreter started by this script (worker.py), from outside the library.

--trace 0 prints the end-to-end metrics: set-up time as the median of
several cold starts, then rate, latency and memory of one run of a fixed
number of rounds, about S seconds of task time.  Task times and set-up
times are scaled to a reference machine speed (metrics.at_reference_speed,
metrics.setup_at_reference_speed); the raw figures are printed beside
them.  --trace 1 prints the per-layer metrics: one
untraced and two traced runs of the same fixed set of tasks, which gives
the tracing overhead and shows whether the counts repeat.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  A full
report is also written to .bench_out/ in the checkout.  The exit code is
0 when the measurement completed (failed tasks are reported, not hidden)
and non-zero, with no result line, when it could not be made.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")

# Cold starts per run, split before and after the measured run so that
# their median spans the machine's speed over the whole run.
SETUP_RUNS = 5
DEADLINE_S = 170.0
# Seconds of task time per round at the reference machine speed.  A run
# times a number of whole rounds fixed by --seconds, so that every run of
# one seed, on either side of a comparison and on any machine, times
# exactly the same tasks: the percentiles and counts compare like for like.
ROUND_S = {"pole-march": 0.67, "closed-form": 0.21, "derive": 0.36,
           "verify-all": 4.4}
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The measurement could not be made."""


def timed_rounds(workload, seconds):
    """Rounds of a run: about --seconds of task time at reference speed."""
    return max(1, round(seconds / ROUND_S[workload]))


def trace_rounds(workload, seconds):
    """Rounds in each traced run: about a third of an untraced run."""
    return max(1, round(timed_rounds(workload, seconds) / 3))


def _remaining(t_end):
    left = t_end - time.monotonic()
    if left <= 1.0:
        raise BenchError("out of time before the %.0f s deadline" % DEADLINE_S)
    return left


def _first_line(cmd, t_end):
    """Spawn cmd; return the seconds until its first line of output, and the
    line.  Waits for the process to end."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.communicate(timeout=_remaining(t_end))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line:
        raise BenchError("%s exited with %s" % (" ".join(cmd[1:]),
                                                proc.returncode))
    return seconds, line


def _cold_start(workload, seed, t_end):
    """One cold start, timed next to a reference start.  Returns the
    seconds from spawning a fresh interpreter until it reports the first
    task's result, the reference start's seconds, and the import time the
    cold start measured itself."""
    ref_s, _ = _first_line([sys.executable, "-c", metrics.REFERENCE_START],
                           t_end)
    setup_s, line = _first_line([sys.executable, WORKER, "cold", workload,
                                 str(seed)], t_end)
    return setup_s, ref_s, json.loads(line)["import_s"]


def _worker_run(workload, seed, t_end, *extra):
    cmd = [sys.executable, WORKER, "run", workload, str(seed)]
    cmd += [str(x) for x in extra]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=_remaining(t_end))
    except subprocess.TimeoutExpired:
        raise BenchError("worker %s timed out" % " ".join(cmd[2:]))
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError("worker %s exited with %s"
                         % (" ".join(cmd[2:]), done.returncode))
    return json.loads(lines[-1])


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def _git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_record():
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k, "unset") for k in BLAS_VARS},
        "git_commit": _git_commit(),
        "loadavg_start": _loadavg(),
    }


def _task_summary(run):
    """Rate and latency of one run, at reference machine speed and raw."""
    tasks = run["tasks"]
    raw = [t["s"] for t in tasks]
    local = metrics.local_kernel_s(run["kernels"], len(tasks))
    ms = [1e3 * metrics.at_reference_speed(s, k) for s, k in zip(raw, local)]
    attempted, failed = metrics.fail_counts(tasks)
    pct, tail_ms = metrics.tail(ms)
    by_kind = {}
    for t, m in zip(tasks, ms):
        by_kind.setdefault(t["kind"], []).append(m)
    kernel = statistics.median(k for _, k in run["kernels"])
    return {
        "attempted": attempted,
        "failed": failed,
        "tasks_per_s": 1e3 * len(ms) / sum(ms),
        "p50_ms": statistics.median(ms),
        "tail_ms": tail_ms,
        "tail_pct": pct,
        "raw": {"tasks_per_s": len(raw) / sum(raw),
                "p50_ms": 1e3 * statistics.median(raw),
                "tail_ms": 1e3 * metrics.tail(raw)[1],
                "task_s": sum(raw)},
        "machine_speed": metrics.KERNEL_REF_S / kernel,
        "by_kind": {k: {"n": len(v), "median_ms": statistics.median(v),
                        "total_s": sum(v) / 1e3}
                    for k, v in sorted(by_kind.items())},
        "failures": [t for t in tasks if not t["ok"]][:20],
    }


def _verify_checks(run):
    """Checks passed and checks run in one full verify pass: each suite
    counted once, with its worst occurrence."""
    per_suite = {}
    for t in run["tasks"]:
        p, n = t.get("checks", (0, 0))
        old = per_suite.get(t["kind"], (n, n))
        per_suite[t["kind"]] = (min(old[0], p), max(old[1], n))
    return (sum(p for p, _ in per_suite.values()),
            sum(n for _, n in per_suite.values()))


def measure_end_to_end(workload, seed, seconds, t_end):
    before = SETUP_RUNS // 2 + 1
    cold = [_cold_start(workload, seed, t_end) for _ in range(before)]
    run = _worker_run(workload, seed, t_end, "--rounds",
                      timed_rounds(workload, seconds), "--check")
    cold += [_cold_start(workload, seed, t_end)
             for _ in range(SETUP_RUNS - before)]
    s = _task_summary(run)
    values = {
        "setup_s": metrics.setup_at_reference_speed(
            [(c[0], c[1]) for c in cold]),
        "tasks_per_s": s["tasks_per_s"],
        "task_ms.p50": s["p50_ms"],
        "task_ms.tail": s["tail_ms"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    report = {
        "setup_runs_s": [c[0] for c in cold],
        "reference_starts_s": [c[1] for c in cold],
        "import_s": [c[2] for c in cold],
        "summary": s,
        "fail_ratio": s["failed"] / s["attempted"],
        "digest": run["digest"],
        "versions": run["versions"],
        "run_cpus": run["cpus"],
    }
    if workload == "verify-all":
        report["verify_checks_per_pass"] = _verify_checks(run)
    return values, metrics.END_TO_END, s["attempted"], s["failed"], report


def measure_layers(workload, seed, seconds, t_end):
    rounds = trace_rounds(workload, seconds)
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, "spans-%s-s%d.bin.gz" % (workload, seed))
    plain = _worker_run(workload, seed, t_end, "--rounds", rounds)
    first = _worker_run(workload, seed, t_end, "--rounds", rounds, "--trace",
                        "--check", "--spans", spans)
    second = _worker_run(workload, seed, t_end, "--rounds", rounds, "--trace")
    tr, tr2 = first["trace"], second["trace"]
    times = {k: tuple(v) for k, v in tr["times"].items()}
    values, missing = metrics.layer_metrics(times, tr["counts"],
                                            set(tr["absent"]))
    s = _task_summary(first)
    keys = set(tr["counts"]) | set(tr2["counts"])
    mismatches = sorted(k for k in keys
                        if tr["counts"].get(k) != tr2["counts"].get(k))
    root_s = times.get("bench.task", (0, 0.0, 0.0))[1]
    untraced_rate = _task_summary(plain)["tasks_per_s"]
    values.update({
        "cli.import_s": statistics.median(
            r["import_s"] for r in (plain, first, second)),
        "trace.wall_s": tr["wall_s"],
        "trace.unaccounted_s": tr["wall_s"] - root_s,
        "trace.tasks_per_s": s["tasks_per_s"],
        "trace.untraced_tasks_per_s": untraced_rate,
        "trace.overhead_x": untraced_rate / s["tasks_per_s"],
        "trace.count_mismatches": len(mismatches),
    })
    digests = {plain["digest"], first["digest"], second["digest"]}
    report = {
        "rounds": rounds,
        "tasks": s["attempted"],
        "spans": tr["spans"],
        "paused_s": tr["paused_s"],
        "spans_file": os.path.relpath(spans, ROOT),
        "absent": tr["absent"],
        "absent_metrics": missing,
        "counts": tr["counts"],
        "count_mismatches": mismatches,
        "digest": first["digest"],
        "digests_agree": len(digests) == 1,
        "span_times": times,
        "summary": s,
        "fail_ratio": s["failed"] / s["attempted"],
        "versions": first["versions"],
        "run_cpus": first["cpus"],
    }
    return values, metrics.PER_LAYER, s["attempted"], s["failed"], report


def _fmt(v):
    return ("%.6g" % v) if isinstance(v, float) else str(v)


def print_report(args, values, defs, attempted, failed, report):
    rec = report["record"]
    print("oscdeform benchmark: workload=%s seed=%d seconds=%d trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("  python %s, numpy %s, scipy %s, nproc %s, commit %s"
          % (rec["python"], report["versions"]["numpy"],
             report["versions"]["scipy"], rec["nproc"], rec["git_commit"]))
    print("  BLAS threads: %s; measured run pinned to CPU %s"
          % (", ".join("%s=%s" % kv for kv in rec["blas_threads"].items()),
             report["run_cpus"]))
    print("  loadavg start: %s | end: %s"
          % (rec["loadavg_start"], rec["loadavg_end"]))
    s = report["summary"]
    print("  tasks %d, failed %d, fail_ratio %s ratio; tail = p%.2f of %d "
          "tasks" % (attempted, failed, _fmt(report["fail_ratio"]),
                     s["tail_pct"], attempted))
    print("  times at reference machine speed; this machine ran at %.3f of "
          "it (raw: %s)" % (s["machine_speed"], ", ".join(
              "%s %s" % (k, _fmt(v)) for k, v in s["raw"].items())))
    if "setup_runs_s" in report:
        print("  set-up at reference speed; raw: median %.4g s of %d cold "
              "starts, reference starts median %.4g s (%.4g s on the "
              "reference machine)"
              % (statistics.median(report["setup_runs_s"]),
                 len(report["setup_runs_s"]),
                 statistics.median(report["reference_starts_s"]),
                 metrics.START_REF_S))
    for f in s["failures"]:
        print("  FAILED %s (round %d): %s" % (f["kind"], f["round"],
                                             f.get("error") or f.get("value")))
    if "verify_checks_per_pass" in report:
        print("  verify checks per pass: %d/%d passed"
              % report["verify_checks_per_pass"])
    for name, unit in defs:
        print("  %-40s %14s %s" % (name, _fmt(values[name]), unit))
    if args.trace:
        print("  counts differing between the two traced runs: %s"
              % (", ".join(report["count_mismatches"]) or "none"))
        print("  metrics absent on this commit: %s"
              % (", ".join(report["absent_metrics"]) or "none"))
        print("  outputs identical untraced and traced: %s"
              % report["digests_agree"])
        print("  layer self times + benchmark's own time leave %.4g s of "
              "%.4g s traced wall time unaccounted (loop bookkeeping)"
              % (values["trace.unaccounted_s"], values["trace.wall_s"]))
    print("  output digest sha256 %s" % report["digest"])


def main(argv=None):
    p = argparse.ArgumentParser(description="oscdeform benchmark")
    p.add_argument("--workload", required=True, choices=list(ROUND_S))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    src = os.path.join(ROOT, "src", "oscdeform")
    if not os.path.isfile(os.path.join(src, "__init__.py")):
        print("error: no oscdeform sources at %s; run from the root of a "
              "checkout" % src, file=sys.stderr)
        return 2
    t_end = time.monotonic() + DEADLINE_S
    # byte-compile up front so that no cold start pays for it
    compileall.compile_dir(src, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    record = run_record()
    measure = measure_layers if args.trace else measure_end_to_end
    try:
        values, defs, attempted, failed, report = measure(
            args.workload, args.seed, args.seconds, t_end)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    record["loadavg_end"] = _loadavg()
    report["record"] = record
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "report-%s-s%d-t%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump({"args": vars(args), "values": values, **report}, fh,
                  indent=1, default=str)
    print_report(args, values, defs, attempted, failed, report)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in defs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
