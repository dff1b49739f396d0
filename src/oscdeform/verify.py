"""Named verification suites.

Each suite re-derives a family of identities numerically and reports one
Check per identity: (name, measured value, threshold, passed).  The CLI
`verify` command and the acceptance tests both run these, so the pass/fail
logic lives in exactly one place.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

import numpy as np

from . import apps, catalog
from .deform import (
    DeformedOscillator,
    energy,
    energy_rate,
    explicit_acceleration,
    generate_ode,
    integrate_first_integral,
    phase_function,
    riccati_family,
    riccati_fit_alpha,
    riccati_invariant,
    riccati_phase,
    riccati_phase_formula,
)
from .exprdsl import differentiate, function
from .numerics import (
    fd_derivatives,
    find_root,
    integrate,
    max_abs,
    residual_scan,
    trajectory_residual,
)

Check = namedtuple("Check", ["name", "value", "threshold", "passed"])


def _check(name, value, threshold):
    value = float(value)
    return Check(name, value, float(threshold),
                 bool(math.isfinite(value) and value < threshold))


# One deformation pair per dependence class, plus mixtures.  Time-dependent
# deformations vanish at the cotangent poles (powers of sin(theta)); a
# deformation with g_t - f nonzero there would make the crossing velocity
# diverge and the driver would rightly refuse it.
THEOREM_PAIRS = [
    ("0", "0"),
    ("0.3*sin(t + 0.3)", "0"),
    ("0", "0.2*sin(t + 0.3)^2"),
    ("0.25*sin(t + 0.3)", "0.1*sin(t + 0.3)^2"),
    ("-0.3*x + 0.5*x^3", "0"),
    ("0", "0.2*x^2"),
    ("0.1*x*sin(t + 0.4)", "0"),
    ("-0.75*v + 0.8", "0"),
    ("0", "0.15*v"),
    ("0.2*x", "0.1*sin(t + 0.3)^2"),
]


def _off_pole(osc, lo, hi, count, margin=0.05):
    ts = np.linspace(lo, hi, count)
    return np.array([t for t in ts
                     if abs(math.sin(osc.theta(t))) > margin])


def suite_theorem():
    """Trajectories of the first integral satisfy the generated ODE."""
    out = []
    for f_src, g_src in THEOREM_PAIRS:
        osc = DeformedOscillator(f_src, g_src, 1.0, alpha=0.3)
        if osc.g_depends_v:
            # stay between the branch points of the implicit velocity law
            t0, t1, v0 = 0.0, 2.8, 0.5
        else:
            t0, t1, v0 = 0.5, 0.5 + 2.0 * math.pi, None
        traj = integrate_first_integral(osc, t0, 0.4, t1, v0=v0,
                                        rtol=1e-12, atol=1e-14)
        ts = _off_pole(osc, t0 + 0.02, t1 - 0.02, 150)
        worst = residual_scan(generate_ode(osc), traj.meta["x_of_t"], ts)
        out.append(_check("theorem/f=%s,g=%s" % (f_src, g_src),
                          worst, 1e-6))
    return out


def _catalog_cases():
    c = 0.5
    branch_lo = math.atan(c) + 0.06
    return [
        (catalog.harmonic(1.2, 1.0, 0.3), (0.2, 6.2)),
        (catalog.time_quadrature("0.3*sin(t + 0.3)", "0.2*sin(t + 0.3)^2",
                                 0.9, 1.0, 0.3), (0.5, 0.5 + 2 * math.pi)),
        (catalog.case1(0.4, 2.0, 1.0, 0.3), (0.5, 0.5 + 2 * math.pi)),
        (catalog.case2(0.3, 3, 1.1, 1.0, 0.3), (0.5, 0.5 + 2 * math.pi)),
        (catalog.case3(1.0, 0.3, 0.5, 3, 1.3, 1.0, 0.3),
         (0.5, 0.5 + 2 * math.pi)),
        (catalog.case4_riccati(0.8, 0.0, 1.0, 0.3, t0=0.5, x0=0.4),
         (0.5, 0.5 + 2 * math.pi)),
        (catalog.case5_power(0.25, 2, 0.8, 1.0, 0.3),
         (0.2, 0.2 + 2 * math.pi)),
        (catalog.case6(0.7, 0.5, 1.0, 0.3), (0.0, 2 * math.pi)),
        (catalog.case7(c, 1.1, 1.0, 0.0),
         (branch_lo, branch_lo + math.pi - 0.12)),
    ]


def suite_catalog():
    """Every closed form passes a residual scan against its generated ODE
    and matches an independent integration of the first integral."""
    out = []
    for sol, (lo, hi) in _catalog_cases():
        ts = _off_pole(sol.osc, lo + 0.02, hi - 0.02, 200)
        worst = residual_scan(sol.form, sol.evaluator, ts)
        out.append(_check("catalog/%s/residual" % sol.case_id, worst, 1e-6))
        grid = np.linspace(lo, hi, 90)
        traj = integrate_first_integral(sol.osc, lo, sol(lo), hi,
                                        t_eval=grid)
        gap = max_abs(s.x - sol(s.t) for s in traj.states)
        out.append(_check("catalog/%s/rk-match" % sol.case_id, gap, 1e-6))
    return out


PHASE_PAIRS = [
    ("0", "0"),
    ("0.3*sin(t + 0.3)", "0"),
    ("0", "0.2*x^2"),
    ("-0.75*v + 0.8", "0"),
    ("0.2*x", "0.1*sin(t + 0.3)^2"),
]


def suite_phase():
    """|X| = 1 at random real states; arg X = -2(omega*t+alpha) along
    solutions after unwrapping."""
    out = []
    rng = np.random.default_rng(20240825)
    osc = DeformedOscillator("0.2*x", "0.1*sin(t)", 1.0, alpha=0.3)
    gaps = []
    for _ in range(1000):
        t = float(rng.uniform(-3.0, 3.0))
        x = float(rng.uniform(-2.0, 2.0))
        v = float(rng.uniform(-2.0, 2.0))
        gaps.append(abs(phase_function(osc, (t, x, v))) - 1.0)
    out.append(_check("phase/modulus", max_abs(gaps), 1e-12))

    for f_src, g_src in PHASE_PAIRS:
        posc = DeformedOscillator(f_src, g_src, 1.0, alpha=0.3)
        t0, t1 = 0.5, 0.5 + 2.0 * math.pi
        traj = integrate_first_integral(posc, t0, 0.4, t1,
                                        t_eval=np.linspace(t0, t1, 400),
                                        rtol=1e-12, atol=1e-14)
        al = traj.meta["alpha"]
        args = np.unwrap([cmath.phase(phase_function(posc, (s.t, s.x, s.v)))
                          for s in traj.states])
        drift = args + 2.0 * (posc.omega * traj.t + al)
        drift -= 2.0 * math.pi * round(drift[0] / (2.0 * math.pi))
        out.append(_check("phase/arg/f=%s,g=%s" % (f_src, g_src),
                          np.max(np.abs(drift)), 1e-7))
    return out


def suite_energy():
    """H = (v+f)^2 + omega^2 (x+g)^2 is constant when dg/dt = f and its
    rate matches the closed-form expression otherwise."""
    out = []
    t0, t1 = 0.5, 0.5 + 2.0 * math.pi

    def drift(osc):
        traj = integrate_first_integral(osc, t0, 0.4, t1,
                                        t_eval=np.linspace(t0, t1, 300),
                                        rtol=1e-12, atol=1e-14)
        h = [energy(osc, (s.t, s.x, s.v)) for s in traj.states]
        return max_abs(hi - h[0] for hi in h)

    out.append(_check("energy/drift/harmonic",
                      drift(DeformedOscillator("0", "0", 1.0, alpha=0.3)),
                      1e-8))
    out.append(_check(
        "energy/drift/gdot=f",
        drift(DeformedOscillator("0.3*cos(t)", "0.3*sin(t)", 1.0,
                                 alpha=0.3)),
        1e-8))

    osc = DeformedOscillator("0.2*x", "0", 1.0, alpha=0.3)
    traj = integrate_first_integral(osc, t0, 0.4, t1, rtol=1e-12,
                                    atol=1e-14)
    x_of_t, v_of_t = traj.meta["x_of_t"], traj.meta["v_of_t"]

    def h_of_t(tq):
        return energy(osc, (tq, x_of_t(tq), v_of_t(tq)))

    def rate_gap(t):
        _, dh, _ = fd_derivatives(h_of_t, t, 1e-3)
        return dh - energy_rate(osc, (t, x_of_t(t), v_of_t(t)))

    worst = max_abs(rate_gap(t)
                    for t in _off_pole(osc, t0 + 0.05, t1 - 0.05, 60).tolist())
    out.append(_check("energy/rate/generic", worst, 1e-6))
    return out


def _isochrony_checks(label, make_h, omega, alpha, n_list):
    """Crossing times, the roots of h near each pole (n*pi-alpha)/omega,
    sit at those poles for a 10x amplitude ratio, and their spacing does
    not move with amplitude."""
    spacings = []
    offsets = []
    for scale in (1.0, 10.0):
        h = make_h(scale)
        roots = []
        for n in n_list:
            tn = (n * math.pi - alpha) / omega
            roots.append(find_root(h, tn - 0.35 / omega, tn + 0.35 / omega))
            offsets.append(roots[-1] - tn)
        spacings.append(np.diff(roots))
    worst_t = max_abs(offsets)
    spacing_gap = float(np.max(np.abs(spacings[0] - spacings[1])))
    return [_check("isochrony/%s/crossing-times" % label, worst_t, 1e-6),
            _check("isochrony/%s/amplitude-independence" % label,
                   spacing_gap, 1e-6)]


def suite_isochrony():
    out = []

    def h_case2(scale):
        sol = catalog.case2(0.3, 3, 1.1 * scale, 1.0, 0.3)

        def h(t):
            return sol(t) + sol.osc.g(t, 0.0, 0.0)
        return h

    out += _isochrony_checks("case2", h_case2, 1.0, 0.3, [1, 2])

    def h_case4(scale):
        return catalog.case4_riccati(0.8, 0.0, 1.0, 0.3,
                                     t0=0.5, x0=0.05 * scale)

    out += _isochrony_checks("case4", h_case4, 1.0, 0.3, [1, 2])

    def h_case7(scale):
        sol = catalog.case7(0.5, 1.1 * scale, 1.0, 0.0)

        def h(t):
            return sol(t) + 0.5 * sol.v_evaluator(t)
        return h

    out += _isochrony_checks("case7", h_case7, 1.0, 0.0, [1, 2])
    return out


def suite_hyp2f1():
    """Closed-form identities of the series evaluator, and agreement of the
    two case-4 solution paths (direct quadrature vs hypergeometric)."""
    out = []
    gaps1, gaps2 = [], []
    for z in (0.1, 0.25, 0.5, 0.9):
        a = 0.7
        got = catalog.hyp2f1(a, 1.3, 1.3, z)
        want = (1.0 - z) ** (-a)
        gaps1.append((got - want) / abs(want))
        got = catalog.hyp2f1(1.0, 1.0, 2.0, z)
        want = -math.log1p(-z) / z
        gaps2.append((got - want) / abs(want))
    out.append(_check("hyp2f1/binomial-identity", max_abs(gaps1), 1e-12))
    out.append(_check("hyp2f1/log-identity", max_abs(gaps2), 1e-12))

    mu, nu, w, al, t0, x0 = 0.8, 0.5, 1.0, 0.3, 0.5, 0.4
    direct = catalog.case4_riccati(mu, nu, w, al, t0=t0, x0=x0)
    series = catalog.case4_series(mu, nu, w, al, t0, x0)
    worst = max_abs(series(t) - direct(t)
                    for t in np.linspace(0.16, 2.38, 60).tolist()
                    if abs(math.cos(w * t + al)) <= 0.9)
    out.append(_check("hyp2f1/case4-two-paths", worst, 1e-6))
    return out


def suite_riccati():
    """The quadratic-damping family: generated-form residual along
    integrated solutions, the closed tanh phase law, and the drift of the
    conserved quantity."""
    out = []
    for b, x0, v0, t1 in ((2.0, 1.0, 0.4, 1.2), (0.5, 1.0, 0.2, 0.8)):
        w = 1.0
        form = riccati_family(b, w)

        def rhs(t, y, form=form):
            x, v = y
            return [v, explicit_acceleration(form, (t, x, v))]

        grid = np.linspace(0.0, t1, 160)
        x_of_t, v_of_t = integrate(rhs, 0.0, (x0, v0), t1,
                                   rtol=1e-12, atol=1e-14)
        worst = trajectory_residual(form, x_of_t, v_of_t, grid[4:-4])
        out.append(_check("riccati/residual/b=%g" % b, worst, 1e-8))

        al = riccati_fit_alpha(b, w, (0.0, x0, v0))
        X = riccati_phase_formula(b, w, al)
        # the phase values are complex: reduce their moduli
        gap = max_abs(abs(riccati_phase((t, x_of_t(t), v_of_t(t)), w) - X(t))
                      for t in grid[::4].tolist())
        out.append(_check("riccati/phase-law/b=%g" % b, gap, 1e-6))

        E = riccati_invariant(b, w)
        e0 = E(x0, v0)
        drift = max_abs(E(x_of_t(t), v_of_t(t)) - e0 for t in grid.tolist())
        out.append(_check("riccati/invariant/b=%g" % b, drift, 1e-8))
    return out


def suite_rcd():
    """Travelling waves satisfy the phase-plane equation; the beta=1
    closed-form bracket matches quadrature; coefficient relations invert;
    the coefficients built from (f, g) match the power family's."""
    out = []
    xi = np.linspace(0.1, 2.0, 25)
    p1 = {"beta": 1, "gamma": 0.5, "delta": 1.0, "A": 3.0,
          "omega": 1.0, "alpha": 0.0}
    sys1 = apps.rcd_power_family(1.0, 0.5, 1.0, omega=1.0)
    out.append(_check("rcd/wave-residual/beta=1",
                      apps.rcd_residual(sys1, apps.rcd_travelling_wave(p1),
                                        xi), 1e-6))
    p2 = {"beta": 2.0, "gamma": 0.3, "delta": 0.6, "A": 4.0,
          "omega": 1.0, "alpha": 0.0}
    sys2 = apps.rcd_power_family(2.0, 0.3, 0.6, omega=1.0)
    out.append(_check("rcd/wave-residual/beta=2",
                      apps.rcd_residual(sys2, apps.rcd_travelling_wave(p2),
                                        xi), 1e-6))

    closed = apps.rcd_travelling_wave(p1)
    quad = apps.rcd_travelling_wave(p1, force_quadrature=True)
    gap = max_abs(closed(x) - quad(x) for x in np.linspace(0.1, 2.0, 40))
    out.append(_check("rcd/closed-vs-quadrature", gap, 1e-9))

    bare = apps.RcdSystem(sys2.D, sys2.B, sys2.Q, Vf=sys2.Vf, D0=sys2.D0)
    rng = np.random.default_rng(20240825)
    worst = max_abs(gap for u in 0.2 + 2.5 * rng.random(100)
                    for gap in (bare.alpha(u) - sys2.alpha(u),
                                bare.beta(u) - sys2.beta(u),
                                bare.gamma(u) - sys2.gamma(u)))
    out.append(_check("rcd/inverse-consistency", worst, 1e-9))

    built = apps.rcd_from_fg("-0.3*u + 0.6*u^2", "u", 1.0)
    worst = max_abs(gap for u in np.linspace(0.2, 3.0, 29)
                    for gap in (built.D(u) - sys2.D(u),
                                built.B(u) - sys2.B(u),
                                built.Q(u) - sys2.Q(u)))
    out.append(_check("rcd/from-fg-vs-power-family", worst, 1e-12))
    return out


def suite_beam():
    """The asinh deformation identity, the series regime match, and
    closed-form vs direct integration."""
    out = []
    model = apps.BeamModel(3.0, 2.0, omega=1.0, c1=0.0)
    ge = apps.beam_g_expr(model)
    g_fn = apps.beam_g(model)
    gp_fn = function(differentiate(ge, "u"), ("u",))
    a = model.alpha_coef
    rng = np.random.default_rng(42)
    gaps = []
    for u in (0.5 * rng.random(100)).tolist():
        g = g_fn(u)
        lhs = a * u / (1.0 + a * u * u)
        gaps.append(lhs + gp_fn(u) / (u + g))
    out.append(_check("beam/deformation-ode", max_abs(gaps), 1e-9))

    sc = apps.beam_series_compare(model, order=3)
    out.append(_check("beam/cubic-coefficients-symbolic",
                      abs(sc.g_coeffs[3] - sc.h_coeffs[3]), 1e-14))

    def cubic(h):
        return (g_fn(h) - g_fn(-h)) / (2.0 * h ** 3)

    h = 0.01
    a1, a2, a3 = cubic(h), cubic(h / 2.0), cubic(h / 4.0)
    b1, b2 = (4 * a2 - a1) / 3.0, (4 * a3 - a2) / 3.0
    sampled = (16 * b2 - b1) / 15.0
    out.append(_check("beam/cubic-coefficient-sampled",
                      abs(sampled - sc.h_coeffs[3]), 1e-10))

    t = np.linspace(0.0, 2.0 * math.pi, 257)
    direct = apps.beam_solve(model, "direct", (0.05, 0.0), (0.0, t[-1]),
                             t_eval=t, rtol=1e-12, atol=1e-14)
    approx = apps.beam_solve(model, "approx", (0.05, 0.0), (0.0, t[-1]),
                             t_eval=t)
    gap = max_abs(d for p, q in zip(approx.states, direct.states)
                  for d in (p.x - q.x, p.v - q.v))
    out.append(_check("beam/approx-vs-direct", gap, 1e-3))
    return out


SUITES = {
    "theorem": suite_theorem,
    "catalog": suite_catalog,
    "phase": suite_phase,
    "energy": suite_energy,
    "isochrony": suite_isochrony,
    "hyp2f1": suite_hyp2f1,
    "riccati": suite_riccati,
    "rcd": suite_rcd,
    "beam": suite_beam,
}


def run_suite(name):
    if name not in SUITES:
        raise KeyError("unknown suite %r; available: %s"
                       % (name, ", ".join(sorted(SUITES))))
    return SUITES[name]()


def format_report(checks):
    lines = []
    for c in checks:
        lines.append("%-45s %12.5e  <  %g  %s"
                     % (c.name, c.value, c.threshold,
                        "PASS" if c.passed else "FAIL"))
    return "\n".join(lines)
