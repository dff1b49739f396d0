"""Seeded task streams for the four benchmark workloads.

A task is one user-level job: one trajectory solve, one closed-form family
built and sampled on its grid, one derivation, or one verify suite.  Each
workload is an endless stream of *rounds*; a round holds a fixed mix of
task kinds whose parameters are drawn from ``random.Random`` seeded by
(workload, seed, round), so the same seed always yields the same tasks in
the same order.  Keeping the mix fixed per round keeps the cost of a round
nearly independent of the seed, which is what lets runs on different seeds
be compared.

The library receives only the generated inputs.  Every call goes through a
module attribute (``apps.beam_solve``, never a name imported from it) so
that the tracer's wrappers see it.

Each task carries a ``check`` oracle, run after the timed loop, that
returns ``(value, threshold)``; the task passes when the value is finite
and not above the threshold.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
import re

import numpy as np

from oscdeform import apps, catalog, cli, deform, exprdsl, numerics, verify

WORKLOADS = ("pole-march", "closed-form", "derive", "verify-all")


def worst(errors):
    """Largest absolute error, or inf as soon as one is not finite: a plain
    max() would drop a NaN, and a NaN error must fail its oracle."""
    out = 0.0
    for e in errors:
        if not math.isfinite(e):
            return math.inf
        out = max(out, abs(e))
    return out


class Task:
    """One job of a workload: ``run()`` does the timed work, ``check`` and
    ``render`` look at its result afterwards; ``inputs`` are the generated
    parameters."""

    __slots__ = ("kind", "round", "inputs", "run", "check", "render")

    def __init__(self, kind, rnd, inputs, run, check, render):
        self.kind = kind
        self.round = rnd
        self.inputs = inputs
        self.run = run
        self.check = check
        self.render = render


def stream(workload, seed):
    """Endless iterator over the tasks of a workload, in seed order."""
    make_round = _ROUNDS[workload]
    for rnd in itertools.count():
        rng = random.Random("%s/%d/%d" % (workload, seed, rnd))
        yield from make_round(rng, rnd)


def _near(rng, value, rel=0.1):
    return value * (1.0 + rng.uniform(-rel, rel))


def _render_states(traj):
    out = []
    for s in traj.states:
        out.extend((s.t, s.x, s.v))
    return out


# --- pole-march --------------------------------------------------------------
#
# One integrate_first_integral call per task, through 3-6 cotangent poles.
# Every family crosses its poles smoothly at any omega: at a pole x+g = 0
# and the crossing numerator g_t + g_x*v - f vanishes with it.  The class
# f = c*v + d is left out on purpose: integrate_first_integral refuses it
# with NonSmoothPoint at omega != 1, which is correct behaviour, not a
# failure of the benchmark.

_RTOL, _ATOL = 1e-12, 1e-14


def _off_pole_times(osc, lo, hi, count, margin=0.05):
    ts = np.linspace(lo, hi, count)
    return np.array([t for t in ts if abs(math.sin(osc.theta(t))) > margin])


def _march_task(rng, rnd, kind, f_src, g_src, w, al, poles=None, span=None):
    if span is None:
        th0 = math.pi / 2.0 + rng.uniform(-0.3, 0.3)
        t0 = (th0 - al) / w
        t1 = t0 + poles * math.pi / w
    else:
        t0, t1 = span
    x0 = rng.uniform(0.3, 0.45)
    grid = np.linspace(t0, t1, 129)

    def run():
        osc = deform.DeformedOscillator(f_src, g_src, w, alpha=al)
        traj = deform.integrate_first_integral(osc, t0, x0, t1, t_eval=grid,
                                               rtol=_RTOL, atol=_ATOL)
        return osc, traj

    def check(result):
        osc, traj = result
        ts = _off_pole_times(osc, t0 + 0.02, t1 - 0.02, 48)
        form = deform.generate_ode(osc)
        return numerics.residual_scan(form, traj.meta["x_of_t"], ts), 1e-6

    def render(result):
        return [kind] + _render_states(result[1])

    return Task(kind, rnd, (f_src, g_src, w, al, t0, t1, x0), run, check,
                render)


def _pole_march_round(rng, rnd):
    tasks = []
    # every round crosses 3, 4, 5 and 6 poles about equally often, so the
    # cost of a round hardly depends on the seed; the seed decides which
    # family gets which count
    offset = rng.randrange(4)
    slot = iter(range(9))

    def poles():
        return 3 + (next(slot) + offset) % 4

    def draw():
        return rng.uniform(0.8, 2.0), rng.uniform(0.2, 0.5)

    for k in (2, 3):
        w, al = draw()
        b = rng.uniform(0.1, 0.25)
        tasks.append(_march_task(rng, rnd, "g=b*x^%d" % k,
                                 "0", "%r*x^%d" % (b, k), w, al, poles()))
    for _ in range(2):
        w, al = draw()
        a, c = rng.uniform(-0.4, -0.15), rng.uniform(0.3, 0.6)
        tasks.append(_march_task(rng, rnd, "f=a*x+c*x^3",
                                 "%r*x + %r*x^3" % (a, c), "0", w, al,
                                 poles()))
    # the sin(theta)^k time deformations of verify.THEOREM_PAIRS, written
    # with the oscillator's own omega and alpha so they vanish at its poles
    for variant in range(3):
        w, al = draw()
        th = "sin(%r*t + %r)" % (w, al)
        f0, g0 = _near(rng, 0.3, 0.2), _near(rng, 0.15, 0.3)
        f_src, g_src = (("%r*%s" % (f0, th), "0"),
                        ("0", "%r*%s^2" % (g0, th)),
                        ("%r*%s" % (f0, th), "%r*%s^2" % (g0, th)))[variant]
        tasks.append(_march_task(rng, rnd, "sin(theta)^k/%d" % variant,
                                 f_src, g_src, w, al, poles()))
    w, al = draw()
    a, phi = rng.uniform(0.05, 0.15), rng.uniform(0.0, 1.0)
    tasks.append(_march_task(rng, rnd, "f=a*x*sin(t+phi)",
                             "%r*x*sin(t + %r)" % (a, phi), "0", w, al,
                             poles()))
    # implicit g = b*v: regular at the poles, but x = ... |sin(theta) -
    # b*omega*cos(theta)|^k branches where that bracket vanishes, so the
    # span stays strictly between two consecutive zeros of it
    w, al = draw()
    b = rng.uniform(0.1, 0.2)
    th_b = math.atan(b * w)
    span = ((th_b + 0.4 - al) / w, (th_b + math.pi - 0.4 - al) / w)
    tasks.append(_march_task(rng, rnd, "g=b*v", "0", "%r*v" % b, w, al,
                             span=span))
    return tasks


# --- closed-form -------------------------------------------------------------
#
# Each task builds one solution and samples it.  The catalog families are
# perturbed around verify._catalog_cases; their cost is milliseconds, so
# one beam approx solve (about 12 ms per sample) gets only a short grid and
# the slowest family stays below half of a round.

_CATALOG_SAMPLES = 200
_BEAM_SAMPLES = 9


def _catalog_task(rnd, kind, args, kwargs, lo, hi):
    grid = np.linspace(lo, hi, _CATALOG_SAMPLES)

    def run():
        sol = getattr(catalog, kind)(*args, **kwargs)
        rows = []
        for t in grid:
            t = float(t)
            rows.append((t, sol(t), sol.v_evaluator(t)))
        return sol, rows

    def check(result):
        sol = result[0]
        ts = _off_pole_times(sol.osc, lo + 0.02, hi - 0.02, 24)
        return numerics.residual_scan(sol.form, sol.evaluator, ts), 1e-6

    def render(result):
        return [kind] + [c for row in result[1] for c in row]

    return Task(kind, rnd, (args, kwargs), run, check, render)


def _case4_series_task(rng, rnd):
    mu, nu = _near(rng, 0.8), _near(rng, 0.5)
    w, al, t0, x0 = 1.0, 0.3, 0.5, _near(rng, 0.4)
    # the series is used where |cos(theta)| <= 0.9, away from its
    # direct-integration fallback near |w| = 1
    grid = [float(t) for t in np.linspace(0.16, 2.38, _CATALOG_SAMPLES)
            if abs(math.cos(w * t + al)) <= 0.9]

    def run():
        x_of_t = catalog.case4_series(mu, nu, w, al, t0, x0)
        return x_of_t, [(t, x_of_t(t)) for t in grid]

    def check(result):
        form = deform.generate_ode(deform.DeformedOscillator(
            "%r*x^2 + %r" % (mu, nu), "0", w, alpha=al))
        ts = np.array(grid[2:-2:4])
        return numerics.residual_scan(form, result[0], ts), 1e-6

    def render(result):
        return ["case4_series"] + [c for row in result[1] for c in row]

    return Task("case4_series", rnd, (mu, nu, x0), run, check, render)


def _rcd_task(rng, rnd, beta):
    params = {"beta": beta, "gamma": _near(rng, 0.4), "delta": _near(rng, 0.8),
              "A": _near(rng, 3.5), "omega": 1.0, "alpha": 0.0}
    grid = np.linspace(0.1, 2.0, _CATALOG_SAMPLES)
    kind = "rcd/beta=%s" % ("1" if beta == 1 else "frac")

    def run():
        wave = apps.rcd_travelling_wave(params)
        return wave, [(float(xi), wave(float(xi))) for xi in grid]

    def check(result):
        sys_ = apps.rcd_power_family(params["beta"], params["gamma"],
                                     params["delta"], omega=1.0)
        return (apps.rcd_residual(sys_, result[0], np.linspace(0.1, 2.0, 25)),
                1e-6)

    def render(result):
        return [kind] + [c for row in result[1] for c in row]

    return Task(kind, rnd, params, run, check, render)


def _beam_approx_task(rng, rnd):
    a = rng.uniform(2.0, 4.0)
    model = apps.BeamModel(a, 2.0 * a / 3.0, omega=1.0, c1=0.0)
    u0 = rng.uniform(0.03, 0.07)
    t = np.linspace(0.0, 2.0 * math.pi, _BEAM_SAMPLES)

    def run():
        return apps.beam_solve(model, "approx", (u0, 0.0), (0.0, t[-1]),
                               t_eval=t)

    def check(approx):
        direct = apps.beam_solve(model, "direct", (u0, 0.0), (0.0, t[-1]),
                                 t_eval=t, rtol=1e-12, atol=1e-14)
        return worst(d for p, q in zip(approx.states, direct.states)
                     for d in (p.x - q.x, p.v - q.v)), 1e-3

    def render(traj):
        return ["beam/approx"] + _render_states(traj)

    return Task("beam/approx", rnd, (a, u0), run, check, render)


def _closed_form_round(rng, rnd):
    n = _near
    c = n(rng, 0.5)
    branch_lo = math.atan(c) + 0.06
    al = n(rng, 0.3)
    th = "sin(t + %r)" % al
    one = (0.5, 0.5 + 2 * math.pi)
    cases = [
        ("harmonic", (n(rng, 1.2), n(rng, 1.0), n(rng, 0.3)), {}, (0.2, 6.2)),
        ("time_quadrature", ("%r*%s" % (n(rng, 0.3), th),
                             "%r*%s^2" % (n(rng, 0.2), th),
                             n(rng, 0.9), 1.0, al), {}, one),
        ("case1", (n(rng, 0.4), n(rng, 2.0), 1.0, 0.3), {}, one),
        ("case2", (n(rng, 0.3), 3, n(rng, 1.1), 1.0, 0.3), {}, one),
        # A well above verify's 1.3 keeps the bracket A + 2*delta*I(t)
        # positive over the whole grid under perturbation
        ("case3", (1.0, n(rng, 0.3), n(rng, 0.5), 3, n(rng, 2.0), 1.0, 0.3),
         {}, one),
        ("case4_riccati", (n(rng, 0.8), 0.0, 1.0, 0.3),
         {"t0": 0.5, "x0": n(rng, 0.4)}, one),
        ("case5_power", (n(rng, 0.25), 2, n(rng, 0.8), 1.0, 0.3), {},
         (0.2, 0.2 + 2 * math.pi)),
        ("case6", (n(rng, 0.7), n(rng, 0.5), 1.0, 0.3), {},
         (0.0, 2 * math.pi)),
        ("case7", (c, n(rng, 1.1), 1.0, 0.0), {},
         (branch_lo, branch_lo + math.pi - 0.12)),
    ]
    tasks = [_catalog_task(rnd, name, args, kw, lo, hi)
             for name, args, kw, (lo, hi) in cases]
    tasks.append(_case4_series_task(rng, rnd))
    tasks.append(_rcd_task(rng, rnd, 1))
    tasks.append(_rcd_task(rng, rnd, rng.uniform(1.3, 1.7)))
    tasks.append(_beam_approx_task(rng, rnd))
    return tasks


# --- derive ------------------------------------------------------------------
#
# Expression construction: random (f, g) from the DSL grammar through
# DeformedOscillator, generate_ode and to_str; differentiate chains; and
# beam_series_compare.  Order 6 of the series (2.5 s, 2.9M tree nodes) runs
# once per run, in round 0, so that it sets peak_rss_mb without swamping
# the rate; orders 4 and 5 run every round.

_DSL_PAIRS = 120
_CHAINS = 30
_CALLS = ("sin", "cos", "tanh", "asinh")


def _rand_expr(rng, depth, names):
    """Source text of a random expression that evaluates without a domain
    error anywhere: divisions, roots and logs only see 1 + (...)^2."""
    if depth == 0 or (depth == 1 and rng.random() < 0.3):
        if rng.random() < 0.7:
            return rng.choice(names)
        return repr(round(rng.uniform(0.1, 2.0), 3))
    def sub():
        return _rand_expr(rng, depth - 1, names)

    pick = rng.randrange(9)
    if pick < 3:
        return "(%s %s %s)" % (sub(), "+-*"[pick], sub())
    if pick == 3:
        return "%s(%s)" % (rng.choice(_CALLS), sub())
    if pick == 4:
        return "(%s)^%d" % (sub(), rng.randint(2, 3))
    if pick == 5:
        return "(%s)/(1 + (%s)^2)" % (sub(), sub())
    if pick == 6:
        return "sqrt(1 + (%s)^2)" % sub()
    if pick == 7:
        return "ln(1 + (%s)^2)" % sub()
    return "%s*%s" % (repr(round(rng.uniform(0.1, 2.0), 3)), sub())


def _points(rng, names, count=2):
    return [{n: rng.uniform(-1.0, 1.0) for n in names} for _ in range(count)]


def _dsl_pair_task(rng, rnd):
    names = ("t", "x", "v")
    f_src = _rand_expr(rng, 3, names)
    g_src = _rand_expr(rng, 3, names)
    w, al = rng.uniform(0.5, 3.0), rng.uniform(-1.0, 1.0)
    pts = _points(rng, names)
    keys = ("coeff_xdd", "coeff_xd", "remainder")

    def run():
        osc = deform.DeformedOscillator(f_src, g_src, w, alpha=al)
        form = deform.generate_ode(osc)
        return form, [exprdsl.to_str(form.exprs[k]) for k in keys]

    def check(result):
        form, texts = result
        printed = [exprdsl.parse(text) for text in texts]
        return worst(exprdsl.evaluate(form.exprs[key], p)
                     - exprdsl.evaluate(e, p)
                     for key, e in zip(keys, printed) for p in pts), 0.0

    def render(result):
        return list(result[1])

    return Task("dsl-pair", rnd, (f_src, g_src, w, al), run, check, render)


def _chain_task(rng, rnd):
    var = rng.choice(("x", "u"))
    src = _rand_expr(rng, 3, (var,))
    order = 3
    pts = [rng.uniform(-1.0, 1.0) for _ in range(3)]

    def run():
        chain = [exprdsl.parse(src)]
        for _ in range(order):
            chain.append(exprdsl.differentiate(chain[-1], var))
        return chain

    def values(e):
        return [exprdsl.evaluate(e, {var: p}) for p in pts]

    def check(chain):
        # Richardson central difference of the last-but-one derivative
        prev, last = chain[-2], chain[-1]
        h = 1e-3

        def f(z):
            return exprdsl.evaluate(prev, {var: z})

        def rel_err(p):
            d1 = (f(p + h) - f(p - h)) / (2.0 * h)
            d2 = (f(p + h / 2.0) - f(p - h / 2.0)) / h
            want = exprdsl.evaluate(last, {var: p})
            return ((4.0 * d2 - d1) / 3.0 - want) / (1.0 + abs(want))

        return worst(rel_err(p) for p in pts), 1e-6

    def render(chain):
        return [src] + values(chain[-1])

    return Task("chain", rnd, (src, var), run, check, render)


def _series_task(rng, rnd, order):
    a = rng.uniform(1.0, 4.0)
    model = apps.BeamModel(a, 2.0 * a / 3.0, omega=1.0, c1=0.0)

    def run():
        return apps.beam_series_compare(model, order=order)

    def check(sc):
        return abs(sc.g_coeffs[3] - sc.h_coeffs[3]), 1e-14

    def render(sc):
        return list(sc.g_coeffs) + list(sc.h_coeffs) + [sc.max_mismatch]

    return Task("series/%d" % order, rnd, (a, order), run, check, render)


def _derive_round(rng, rnd):
    tasks = [_dsl_pair_task(rng, rnd) for _ in range(_DSL_PAIRS)]
    tasks += [_chain_task(rng, rnd) for _ in range(_CHAINS)]
    tasks += [_series_task(rng, rnd, 4), _series_task(rng, rnd, 5)]
    if rnd == 0:
        tasks.append(_series_task(rng, rnd, 6))
    return tasks


# --- verify-all --------------------------------------------------------------
#
# cli.main(["verify", "--suite", name]) for each suite, in the order
# verify.SUITES lists them; one pass equals `verify --suite all`.  The
# inputs are fixed by the suites, so the seed is not used.

_PASSED_RE = re.compile(r"^(\d+)/(\d+) checks passed$", re.M)


def _suite_task(rnd, name):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", "--suite", name])
        return code, buf.getvalue()

    def check(result):
        code, text = result
        m = _PASSED_RE.search(text)
        if code != 0 or m is None:
            return math.inf, 0.0
        return int(m.group(2)) - int(m.group(1)), 0.0

    def render(result):
        return [result[0], result[1]]

    return Task("suite/%s" % name, rnd, name, run, check, render)


def _verify_round(rng, rnd):
    return [_suite_task(rnd, name) for name in verify.SUITES]


def checks_passed(result):
    """(passed, total) verify checks in one suite task's output."""
    m = _PASSED_RE.search(result[1])
    return (int(m.group(1)), int(m.group(2))) if m else (0, 0)


_ROUNDS = {
    "pole-march": _pole_march_round,
    "closed-form": _closed_form_round,
    "derive": _derive_round,
    "verify-all": _verify_round,
}
