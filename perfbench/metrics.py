"""Metric definitions and the statistics behind them.

End-to-end metrics come from an untraced run; per-layer metrics from a
separate traced run (see tracer.py).  Each per-layer metric names the
end-to-end metric and workload it is expected to move; README.md lists
those predictions.
"""

from __future__ import annotations

import bisect
import statistics

from tracer import SUITE_NAMES

END_TO_END = (
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("task_ms.p50", "ms"),
    ("task_ms.tail", "ms"),
    ("peak_rss_mb", "MB"),
)

LAYERS = ("exprdsl", "numerics", "deform", "catalog", "apps", "verify", "cli",
          "bench")


def tail(values, beyond=10):
    """(percentile, value) of the highest percentile with at least `beyond`
    samples above it, by the nearest-rank rule: the (beyond+1)-th largest
    value, at percentile 100*(n-beyond)/n.  With `beyond` samples or fewer
    no percentile qualifies and the maximum is returned at 100."""
    s = sorted(values)
    n = len(s)
    if n <= beyond:
        return 100.0, s[-1]
    return 100.0 * (n - beyond) / n, s[n - beyond - 1]


# Calibration-kernel time (worker.calibration_kernel) on the reference
# machine, a 2-CPU x86 VM: the unit that times are scaled to.
KERNEL_REF_S = 0.0005


def at_reference_speed(seconds, kernel_s):
    """A duration measured while the calibration kernel took kernel_s,
    scaled to the time it would take at the reference machine speed.  The
    machines this runs on share their CPUs; their speed drifts by a third
    over tens of seconds, and the library's interpreted code drifts with
    the kernel."""
    return seconds * KERNEL_REF_S / kernel_s


# A fresh interpreter that loads the library's dependencies and none of the
# library, then reports at once.  Timed just before every cold start, it
# tells how fast the machine starts Python at that moment, as the kernel
# does for tasks.
REFERENCE_START = ("import os, numpy, scipy.integrate; print(flush=True); "
                   "os._exit(0)")
# Its time on the reference machine: the unit setup_s is scaled to.
START_REF_S = 0.8


def setup_at_reference_speed(starts):
    """setup_s from (cold start s, reference start s) pairs: the median of
    the cold starts, each scaled by the reference start timed next to it."""
    return statistics.median(c * START_REF_S / r for c, r in starts)


def local_kernel_s(kernels, n):
    """Calibration-kernel time around each of n tasks: the median of the two
    kernel runs before the task, those inside it and the two after it.
    kernels holds (position, seconds), position being the number of tasks
    run before, plus 0.5 for a kernel run inside a task."""
    pos = [p for p, _ in kernels]
    out = []
    for i in range(n):
        before = bisect.bisect_right(pos, i)
        after = bisect.bisect_left(pos, i + 1)
        near = kernels[max(0, before - 2):after + 2]
        out.append(statistics.median(s for _, s in near))
    return out


def fail_counts(records):
    """(attempted, failed) over task records; a record fails when its run
    raised or its oracle missed."""
    return len(records), sum(1 for r in records if not r["ok"])


# --- per-layer metrics from one traced run -----------------------------------
#
# (name, unit, boundary it needs, value from (times, counts)).  times maps a
# span name to (count, inclusive s, self s); counts is Tracer.counts.

def _inc(name):
    return lambda t, c: t.get(name, (0, 0.0, 0.0))[1]


def _own(name):
    return lambda t, c: t.get(name, (0, 0.0, 0.0))[2]


def _cnt(key):
    return lambda t, c: c.get(key, 0)


def _per_call(name, scale):
    def f(t, c):
        n, inc, _ = t.get(name, (0, 0.0, 0.0))
        return scale * inc / n if n else 0.0
    return f


def _ms_per_pole(t, c):
    poles = c.get("deform.poles_crossed", 0)
    inc = t.get("deform.integrate_first_integral", (0, 0.0, 0.0))[1]
    return 1e3 * inc / poles if poles else 0.0


_EV, _DF = "exprdsl.evaluate", "exprdsl.differentiate"
_IN, _FR = "numerics.integrate", "numerics.find_root"
_CI, _IFI = "numerics.CumulativeIntegral", "deform.integrate_first_integral"
_PT = "deform._pole_transit"

LAYER_METRICS = [
    (_EV + ".calls", "count", _EV, _cnt(_EV + ".calls")),
    (_EV + ".nodes", "count", _EV, _cnt(_EV + ".nodes")),
    (_EV + ".self_s", "s", _EV, _own(_EV)),
    (_DF + ".calls", "count", _DF, _cnt(_DF + ".calls")),
    (_DF + ".s", "s", _DF, _inc(_DF)),
    (_DF + ".nodes_out", "count", _DF, _cnt(_DF + ".nodes_out")),
    (_DF + ".distinct_out", "count", _DF, _cnt(_DF + ".distinct_out")),
    ("exprdsl.parse.s", "s", "exprdsl.parse", _inc("exprdsl.parse")),
    ("exprdsl.to_str.s", "s", "exprdsl.to_str", _inc("exprdsl.to_str")),
    (_IN + ".calls", "count", _IN, _cnt(_IN + ".calls")),
    (_IN + ".rhs_calls", "count", "scipy.integrate.solve_ivp",
     _cnt(_IN + ".rhs_calls")),
    (_IN + ".self_s", "s", _IN, _own(_IN)),
    (_FR + ".calls", "count", _FR, _cnt(_FR + ".calls")),
    (_FR + ".f_evals", "count", _FR, _cnt(_FR + ".f_evals")),
    (_FR + ".self_s", "s", _FR, _own(_FR)),
    (_CI + ".calls", "count", _CI + ".__call__", _cnt(_CI + ".calls")),
    (_CI + ".f_evals", "count", _CI + ".__init__", _cnt(_CI + ".f_evals")),
    (_CI + ".self_s", "s", _CI + ".__call__", _own(_CI)),
    ("numerics.residual_scan.s", "s", "numerics.residual_scan",
     _inc("numerics.residual_scan")),
    (_IFI + ".calls", "count", _IFI, _cnt(_IFI + ".calls")),
    (_IFI + ".self_s", "s", _IFI, _own(_IFI)),
    ("deform.poles_crossed", "count", _IFI, _cnt("deform.poles_crossed")),
    ("deform.ms_per_pole", "ms", _IFI, _ms_per_pole),
    (_PT + ".calls", "count", _PT, _cnt(_PT + ".calls")),
    (_PT + ".self_s", "s", _PT, _own(_PT)),
    ("deform._solve_position.calls", "count", "deform._solve_position",
     _cnt("deform._solve_position.calls")),
    ("deform._solve_velocity.calls", "count", "deform._solve_velocity",
     _cnt("deform._solve_velocity.calls")),
    ("deform.first_integral_velocity.calls", "count",
     "deform.first_integral_velocity",
     _cnt("deform.first_integral_velocity.calls")),
    ("deform.DeformedOscillator.s", "s", "deform.DeformedOscillator.__init__",
     _inc("deform.DeformedOscillator")),
    ("deform.generate_ode.s", "s", "deform.generate_ode",
     _inc("deform.generate_ode")),
    ("catalog.build.s", "s", "catalog.harmonic", _inc("catalog.build")),
    ("catalog.eval.calls", "count", "catalog.harmonic",
     _cnt("catalog.eval.calls")),
    ("catalog.eval.us_per_call", "us", "catalog.harmonic",
     _per_call("catalog.eval", 1e6)),
    ("catalog.hyp2f1.calls", "count", "catalog.hyp2f1",
     _cnt("catalog.hyp2f1.calls")),
    ("apps.beam_solve.approx.s", "s", "apps.beam_solve",
     _inc("apps.beam_solve.approx")),
    ("apps.rcd.eval.us_per_call", "us", "apps.rcd_travelling_wave",
     _per_call("apps.rcd.eval", 1e6)),
    ("apps.beam_series_compare.s", "s", "apps.beam_series_compare",
     _inc("apps.beam_series_compare")),
] + [
    ("verify.suite.%s.s" % s, "s", "verify.SUITES[%s]" % s,
     _inc("verify.suite.%s" % s)) for s in SUITE_NAMES
]

# Metrics of the traced run as a whole, filled in by run.py.
TRACE_METRICS = [
    ("cli.import_s", "s"),
] + [("layer.%s.self_s" % layer, "s") for layer in LAYERS] + [
    ("trace.wall_s", "s"),
    ("trace.unaccounted_s", "s"),
    ("trace.tasks_per_s", "1/s"),
    ("trace.untraced_tasks_per_s", "1/s"),
    ("trace.overhead_x", "ratio"),
    ("trace.count_mismatches", "count"),
]

PER_LAYER = ([(name, unit) for name, unit, _, _ in LAYER_METRICS]
             + TRACE_METRICS)


def layer_metrics(times, counts, absent):
    """Per-layer values of one traced run: {name: value}, plus the names
    whose boundary no longer exists (reported as 0 and listed)."""
    values, missing = {}, []
    for name, _, needs, fn in LAYER_METRICS:
        if needs in absent:
            missing.append(name)
            values[name] = 0
        else:
            values[name] = fn(times, counts)
    own = {layer: 0.0 for layer in LAYERS}
    for span, (_, _, self_s) in times.items():
        layer = span.split(".", 1)[0]
        own[layer] = own.get(layer, 0.0) + self_s
    for layer, s in own.items():
        values["layer.%s.self_s" % layer] = s
    return values, missing
