"""Span tracer for the benchmark's traced run.

The tracer wraps module-level functions of ``oscdeform`` from the outside:
each wrapper replaces the function in its defining module and at every
binding other modules imported (``deform.evaluate``, ``apps.find_root``,
``verify.SUITES[...]`` and so on).  Nothing under ``src/`` changes.

A wrapped call records a span (name, start, end, parent) in flat arrays
kept in memory and written out when the run ends.  Self time, the span's
duration minus the part its child spans cover, is derived from those
arrays afterwards.  Nested entries of the same name (recursion, or one
catalog factory calling another) open no new span: for ``evaluate`` they
count as ``nodes`` and only depth-0 entries count as ``calls``.

Counters that need no span (Newton solves, integrand evaluations, DOP853
right-hand-side calls) are plain integers in ``Tracer.counts``.  Every
wrapper checks ``Tracer.active``, so work done outside the traced window
(the cold task, the oracles) is neither timed nor counted.
"""

from __future__ import annotations

import array
import contextlib
import functools
import gzip
import json
import sys
import time
from collections import defaultdict


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.active = False
        self.names = []
        self._ids = {}
        self._depth = []
        self._calls_key = []
        self.name_of = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self._stack = []
        self.counts = defaultdict(int)
        self.paused_s = 0.0

    def now(self):
        """Clock reading with the benchmark's own bookkeeping taken out."""
        return self._clock() - self.paused_s

    def name_id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
            self._calls_key.append(name + ".calls")
        return i

    def open(self, name_id):
        i = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(self.now())
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def close(self, i):
        self.end[i] = self.now()
        self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Exclude the enclosed bookkeeping from every span's duration."""
        t0 = self._clock()
        try:
            yield
        finally:
            self.paused_s += self._clock() - t0

    def span_times(self):
        return span_times(self.names, self.name_of, self.start, self.end,
                          self.parent)

    def write(self, path):
        write_spans(path, self.names, self.name_of, self.start, self.end,
                    self.parent)


def span_times(names, name_of, start, end, parent):
    """Per span name: (count, inclusive seconds, self seconds).

    A span's self time is its duration minus the durations of its direct
    children; children of one span never overlap (one thread), so summing
    them measures the covered part exactly.
    """
    n = len(start)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    out = {}
    for i in range(n):
        d = end[i] - start[i]
        name = names[name_of[i]]
        c, inc, own = out.get(name, (0, 0.0, 0.0))
        out[name] = (c + 1, inc + d, own + d - child[i])
    return out


_FIELDS = (("name_of", "i"), ("start", "d"), ("end", "d"), ("parent", "i"))


def write_spans(path, names, name_of, start, end, parent):
    """Gzipped file: one JSON header line, then the four arrays raw."""
    cols = {"name_of": name_of, "start": start, "end": end, "parent": parent}
    header = {"names": list(names), "count": len(start),
              "fields": [[f, code] for f, code in _FIELDS],
              "byteorder": sys.byteorder}
    with gzip.open(path, "wb", compresslevel=1) as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        for field, code in _FIELDS:
            fh.write(array.array(code, cols[field]).tobytes())


def read_spans(path):
    """Inverse of write_spans: (names, name_of, start, end, parent)."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for field, code in header["fields"]:
            a = array.array(code)
            a.frombytes(fh.read(a.itemsize * header["count"]))
            cols[field] = a
    return (header["names"], cols["name_of"], cols["start"], cols["end"],
            cols["parent"])


def tree_size(e):
    """(nodes counted as a tree, distinct node objects) of an expression.

    The tree count memoizes on object identity, so it costs one visit per
    distinct node even when shared subtrees make the tree huge.
    """
    sizes = {}
    stack = [e]
    while stack:
        node = stack[-1]
        if id(node) in sizes:
            stack.pop()
            continue
        kids = [getattr(node, a) for a in ("arg", "left", "right")
                if hasattr(node, a)]
        todo = [k for k in kids if id(k) not in sizes]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        sizes[id(node)] = 1 + sum(sizes[id(k)] for k in kids)
    return sizes[id(e)], len(sizes)


# --- wrappers ----------------------------------------------------------------

def span_wrapper(tr, fn, name, *, nodes=None, count_arg=None, post=None,
                 name_for=None):
    """Wrap fn in a span named `name` (or name_for(args, kwargs)).

    nodes:     counter key incremented on every entry, nested ones included.
    count_arg: (position, key): the callable passed at that position is
               replaced by one that counts its calls under key.
    post:      post(result, args, kwargs) may return a replacement result.
    """
    fixed = tr.name_id(name) if name_for is None else None
    depth = tr._depth
    calls_key = tr._calls_key
    counts = tr.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tr.active:
            return fn(*args, **kwargs)
        nid = fixed if name_for is None else tr.name_id(name_for(args, kwargs))
        if nodes is not None:
            counts[nodes] += 1
        if depth[nid]:
            return fn(*args, **kwargs)
        counts[calls_key[nid]] += 1
        if count_arg is not None:
            pos, key = count_arg
            args = list(args)
            args[pos] = _counting(tr, args[pos], key)
        depth[nid] += 1
        sid = tr.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.close(sid)
            depth[nid] -= 1
        if post is not None:
            replaced = post(result, args, kwargs)
            if replaced is not None:
                result = replaced
        return result

    return wrapper


def count_wrapper(tr, fn, key, post=None):
    """Count calls of fn under key; post(result) may add counts."""
    counts = tr.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tr.active:
            return fn(*args, **kwargs)
        counts[key] += 1
        result = fn(*args, **kwargs)
        if post is not None:
            post(result)
        return result

    return wrapper


def _counting(tr, f, key):
    counts = tr.counts

    def counted(*args, **kwargs):
        if tr.active:
            counts[key] += 1
        return f(*args, **kwargs)
    return counted


# --- the layer boundaries of oscdeform ---------------------------------------

SUITE_NAMES = ("theorem", "catalog", "phase", "energy", "isochrony", "hyp2f1",
               "riccati", "rcd", "beam")
CATALOG_FACTORIES = ("harmonic", "time_quadrature", "case1", "case2", "case3",
                     "case4_riccati", "case4_series", "case5_power", "case6",
                     "case7")


def _rebind(orig, new, modules):
    """Replace every module-level binding of orig (including values of
    module-level dicts) in the given modules."""
    for m in modules:
        for key, value in list(vars(m).items()):
            if value is orig:
                setattr(m, key, new)
            elif type(value) is dict:
                for k, v in list(value.items()):
                    if v is orig:
                        value[k] = new


def install(tr):
    """Wrap the layer boundaries of the imported oscdeform package.

    Returns the names that no longer exist on this commit; their metrics
    are reported as absent instead of failing the run.
    """
    mods = [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "oscdeform"
                                  or name.startswith("oscdeform."))]
    absent = []

    def module(name):
        return sys.modules.get("oscdeform." + name)

    def function(modname, attr, make, extra=()):
        m = module(modname) if "." not in modname else sys.modules.get(modname)
        orig = getattr(m, attr, None)
        if not callable(orig):
            absent.append("%s.%s" % (modname, attr))
            return
        _rebind(orig, make(orig), mods + list(extra))

    def method(modname, cls_name, attr, make):
        cls = getattr(module(modname), cls_name, None)
        orig = None if cls is None else cls.__dict__.get(attr)
        if orig is None:
            absent.append("%s.%s.%s" % (modname, cls_name, attr))
            return
        setattr(cls, attr, make(orig))

    def span(name, **kw):
        return lambda fn: span_wrapper(tr, fn, name, **kw)

    def count(key, post=None):
        return lambda fn: count_wrapper(tr, fn, key, post)

    c = tr.counts

    # exprdsl
    function("exprdsl", "evaluate",
             span("exprdsl.evaluate", nodes="exprdsl.evaluate.nodes"))

    def diff_post(result, args, kwargs):
        with tr.paused():
            n, d = tree_size(result)
        c["exprdsl.differentiate.nodes_out"] += n
        c["exprdsl.differentiate.distinct_out"] += d

    function("exprdsl", "differentiate",
             span("exprdsl.differentiate", post=diff_post))
    function("exprdsl", "parse", span("exprdsl.parse"))
    function("exprdsl", "to_str", span("exprdsl.to_str"))

    # numerics
    function("numerics", "integrate", span("numerics.integrate"))

    def nfev(result):
        c["numerics.integrate.rhs_calls"] += int(getattr(result, "nfev", 0))

    # solve_ivp is wrapped where scipy defines it as well, so a lazy
    # `from scipy.integrate import solve_ivp` inside integrate still counts
    import scipy.integrate
    function("scipy.integrate", "solve_ivp",
             count("numerics.solve_ivp.calls", nfev),
             extra=(scipy.integrate,))
    function("numerics", "find_root",
             span("numerics.find_root",
                  count_arg=(0, "numerics.find_root.f_evals")))
    method("numerics", "CumulativeIntegral", "__init__",
           lambda fn: count_wrapper_arg(tr, fn, 1,
                                        "numerics.CumulativeIntegral.f_evals"))
    method("numerics", "CumulativeIntegral", "__call__",
           span("numerics.CumulativeIntegral"))
    function("numerics", "residual_scan", span("numerics.residual_scan"))

    # deform
    def poles(result, args, kwargs):
        meta = getattr(result, "meta", {})
        c["deform.poles_crossed"] += len(meta.get("poles_crossed") or ())

    function("deform", "integrate_first_integral",
             span("deform.integrate_first_integral", post=poles))
    function("deform", "_pole_transit", span("deform._pole_transit"))
    for name in ("_solve_position", "_solve_velocity",
                 "first_integral_velocity"):
        function("deform", name, count("deform.%s.calls" % name))
    method("deform", "DeformedOscillator", "__init__",
           span("deform.DeformedOscillator"))
    function("deform", "generate_ode", span("deform.generate_ode"))

    # catalog: factories build, the evaluators they return evaluate
    def eval_span(fn):
        return span_wrapper(tr, fn, "catalog.eval")

    def wrap_solution(result, args, kwargs):
        if callable(getattr(result, "evaluator", None)):
            result.evaluator = eval_span(result.evaluator)
            if result.v_evaluator is not None:
                result.v_evaluator = eval_span(result.v_evaluator)
            return result
        return eval_span(result) if callable(result) else None

    for name in CATALOG_FACTORIES:
        function("catalog", name, span("catalog.build", post=wrap_solution))
    function("catalog", "hyp2f1", count("catalog.hyp2f1.calls"))

    # apps
    def beam_mode(args, kwargs):
        mode = args[1] if len(args) > 1 else kwargs.get("mode")
        return "apps.beam_solve.%s" % mode

    function("apps", "beam_solve",
             span("apps.beam_solve", name_for=beam_mode))
    function("apps", "rcd_travelling_wave",
             lambda fn: span_wrapper(
                 tr, fn, "apps.rcd_travelling_wave",
                 post=lambda r, a, k: span_wrapper(tr, r, "apps.rcd.eval")))
    function("apps", "beam_series_compare", span("apps.beam_series_compare"))

    # verify and cli
    suites = getattr(module("verify"), "SUITES", {})
    for name in SUITE_NAMES:
        fn = suites.get(name)
        if fn is None:
            absent.append("verify.SUITES[%s]" % name)
            continue
        _rebind(fn, span_wrapper(tr, fn, "verify.suite.%s" % name), mods)
    function("cli", "main", span("cli.main"))
    return absent


def count_wrapper_arg(tr, fn, pos, key):
    """Wrap fn so the callable passed at `pos` counts its calls under key."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tr.active and len(args) > pos:
            args = list(args)
            args[pos] = _counting(tr, args[pos], key)
        return fn(*args, **kwargs)
    return wrapper
