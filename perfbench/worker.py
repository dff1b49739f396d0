"""One fresh interpreter of the benchmark: a cold start or a measured run.

    python3 perfbench/worker.py cold WORKLOAD SEED
    python3 perfbench/worker.py run WORKLOAD SEED --rounds R
                                [--trace] [--check] [--spans PATH]

`cold` imports oscdeform, generates the inputs and runs the first task,
then prints one JSON line; run.py times it from spawn to that line.

`run` runs the first task once untimed as a warm-up, then times the tasks
of the first R rounds one by one in seed order, in one thread.  After each
task, outside its timed interval, the result is
digested and, with --check, put through its oracle, then dropped, so no
result outlives its task.  A fixed calibration kernel runs after every
20 ms of task time, between tasks and, in an untraced run, inside a long
task from a timer signal, to record how fast the machine was at the time.
With --trace the tracer's spans and counters cover the tasks only.  The
last line of stdout is a JSON summary.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import resource
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

CALIBRATE_EVERY_S = 0.02


class _Node:
    __slots__ = ("left", "right", "value")

    def __init__(self, left, right, value):
        self.left = left
        self.right = right
        self.value = value


class _Leaf(_Node):
    __slots__ = ()


def _build(depth):
    if depth == 0:
        return _Leaf(None, None, 1.0)
    return _Node(_build(depth - 1), _build(depth - 1), float(depth))


def _eval(node, env):
    if isinstance(node, _Leaf):
        return node.value * env["x"]
    return _eval(node.left, env) + 0.5 * _eval(node.right, env)


def calibration_kernel():
    """Fixed work of about half a millisecond, made of what the library's
    interpreted code does most: allocate small slotted objects, walk them
    recursively with isinstance dispatch and dict lookups, and do float
    arithmetic and small numpy operations.  It runs with the cyclic
    collector off, so its time does not depend on how many objects the
    library keeps alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        s = _eval(_build(8), {"x": 1.5})
        for i in range(1000):
            s += (i * 0.5) % 7.0
        import numpy as np
        a = np.arange(32.0)
        for _ in range(10):
            s += float(a @ a)
        return s
    finally:
        if enabled:
            gc.enable()


def loaded_before_import():
    """Third-party modules already loaded; empty before the timed import."""
    return sorted(m for m in ("numpy", "scipy", "oscdeform")
                  if m in sys.modules)


def pin_one_cpu():
    """Keep the measured run on one CPU, so that the calibration kernels
    around a task ran where the task ran.  Called before numpy is loaded,
    so its BLAS thread pool is sized for that one CPU rather than
    oversubscribing it.  Returns the CPUs the run may use."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return sorted(os.sched_getaffinity(0))


def _error(exc):
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def finish_task(task, result, error, seconds, check, digest):
    """Digest a task's result and, with check, run its oracle.  Returns the
    task's record; an oracle that raises or misses marks it failed."""
    rec = {"kind": task.kind, "round": task.round, "s": seconds,
           "ok": error is None, "error": error}
    if error is not None:
        digest.update(("error %s\n" % task.kind).encode())
        return rec
    for item in task.render(result):
        if isinstance(item, float):
            digest.update(b"%.17g\n" % item)
        else:
            digest.update(str(item).encode() + b"\n")
    if check:
        try:
            value, threshold = task.check(result)
            value = float(value)
            rec["value"], rec["threshold"] = value, threshold
            rec["ok"] = math.isfinite(value) and value <= threshold
        except Exception as exc:  # an oracle that raises is a miss
            rec["ok"], rec["error"] = False, _error(exc)
    if task.kind.startswith("suite/"):
        import workloads
        rec["checks"] = workloads.checks_passed(result)
    return rec


def run_tasks(tasks, rounds, check=False, tr=None, kernel=calibration_kernel):
    """Time the tasks of the first `rounds` rounds one after another.  A
    task that raises is recorded as failed and the loop goes on.

    Returns (records, digest, kernels): kernels are (position, seconds) of
    the calibration kernel, position being the number of tasks run before,
    plus 0.5 for a kernel run inside a task.  Without a tracer a timer
    signal runs the kernel inside a task every CALIBRATE_EVERY_S, so that a
    task of seconds is scaled by the machine's speed while it ran; the
    kernel's time is taken out of the task's.
    """
    clock = time.perf_counter if tr is None else tr.now
    untimed = contextlib.nullcontext if tr is None else tr.paused
    task_id = tr.name_id("bench.task") if tr is not None else None
    digest = hashlib.sha256()
    records, kernels, inside = [], [], []
    since = CALIBRATE_EVERY_S
    timer = tr is None and hasattr(signal, "setitimer")
    if timer:
        def tick(signum, frame):
            k0 = time.perf_counter()
            kernel()
            inside.append(time.perf_counter() - k0)
        previous = signal.signal(signal.SIGALRM, tick)
    for task in tasks:
        if task.round >= rounds:
            break
        if since >= CALIBRATE_EVERY_S:
            with untimed():
                k0 = time.perf_counter()
                kernel()
                kernels.append((len(records), time.perf_counter() - k0))
            since = 0.0
        if tr is not None:
            tr.active = True
            sid = tr.open(task_id)
        start = clock()
        if timer:
            signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S,
                             CALIBRATE_EVERY_S)
        try:
            result, error = task.run(), None
        except Exception as exc:  # a failing task is counted, the run goes on
            result, error = None, _error(exc)
        finally:
            if timer:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = clock() - start - sum(inside)
            if tr is not None:
                tr.close(sid)
                tr.active = False
        kernels += [(len(records) + 0.5, k) for k in inside]
        inside.clear()
        since += elapsed
        with untimed():
            records.append(finish_task(task, result, error, elapsed, check,
                                       digest))
            del result
    if timer:
        signal.signal(signal.SIGALRM, previous)
    with untimed():
        k0 = time.perf_counter()
        kernel()
        kernels.append((len(records), time.perf_counter() - k0))
    return records, digest.hexdigest(), kernels


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=["cold", "run"])
    p.add_argument("workload")
    p.add_argument("seed", type=int)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--check", action="store_true")
    p.add_argument("--spans")
    args = p.parse_args(argv)

    # Only the standard library is loaded before the timed import, so that
    # import_s is what `import oscdeform` costs a fresh interpreter.
    preloaded = loaded_before_import()
    if preloaded:
        raise SystemExit("worker: %s loaded before the timed import"
                         % ", ".join(preloaded))
    cpus = pin_one_cpu() if args.mode == "run" else None
    t0 = time.perf_counter()
    import oscdeform  # noqa: F401  (timed: this is the user's import)
    import_s = time.perf_counter() - t0
    import workloads

    next(workloads.stream(args.workload, args.seed)).run()
    if args.mode == "cold":
        print(json.dumps({"import_s": import_s}), flush=True)
        # skip the interpreter's teardown: it is not part of set-up, and
        # the reference start skips it too
        os._exit(0)

    tr = absent = None
    if args.trace:
        import tracer
        tr = tracer.Tracer()
        absent = tracer.install(tr)
    loop_t0 = tr.now() if tr is not None else None
    records, digest, kernels = run_tasks(
        workloads.stream(args.workload, args.seed), args.rounds,
        check=args.check, tr=tr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy
    import scipy
    summary = {
        "import_s": import_s,
        "cpus": cpus,
        "peak_rss_mb": peak_rss_mb,
        "digest": digest,
        "tasks": records,
        "kernels": kernels,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tr is not None:
        summary["trace"] = {
            "wall_s": tr.now() - loop_t0,
            "times": tr.span_times(),
            "counts": dict(tr.counts),
            "absent": absent,
            "paused_s": tr.paused_s,
            "spans": len(tr.start),
        }
        if args.spans:
            tr.write(args.spans)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
