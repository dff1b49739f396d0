"""Named verification suites.

Each suite re-derives a family of identities numerically and reports one
Check per identity: (name, measured value, threshold, passed).  The CLI
`verify` command and the acceptance tests both run these, so the pass/fail
logic lives in exactly one place.
"""

from __future__ import annotations

import cmath
import math
import random
from collections import namedtuple

import numpy as np

from . import apps, catalog
from .deform import (
    DeformedOscillator,
    energy,
    energy_rate,
    explicit_acceleration,
    first_integral_form,
    first_integral_velocity,
    generate_ode,
    generate_ode_time_varying,
    integrate_first_integral,
    integrate_form,
    phase_function,
    pole_interval,
    pole_times,
    riccati_family,
    riccati_fit_alpha,
    riccati_invariant,
    riccati_phase,
    riccati_phase_formula,
)
from .exprdsl import Var, _substitute, differentiate, function, parse
from .numerics import (
    fd_derivatives,
    find_root,
    max_abs,
    residual_scan,
    sample_trajectory,
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


def _off_pole(theta, lo, hi, count):
    """count evenly spaced times on [lo, hi], less those where
    |sin(theta(t))| <= 0.05."""
    ts = np.linspace(lo, hi, count)
    return np.array([t for t in ts if abs(math.sin(theta(t))) > 0.05])


def _theorem_residual(form, ode, velocity, ts):
    """The generated form `ode` at points of G = 0, pointwise: at each time
    t of ts, x from a fixed sequence in [-0.4, 0.4], v = velocity(t, x) a
    root of G and xdd from `form`, G = 0 differentiated.  The largest
    |coeff_xdd*xdd + coeff_xd*v + remainder| over 1 + the sum of its
    terms' moduli."""
    worst = 0.0
    for i, t in enumerate(ts.tolist()):
        x = 0.4 * math.cos(1.7 * i)
        v = velocity(t, x)
        a = explicit_acceleration(form, (t, x, v))
        terms = (ode.coeff_xdd(t, x, v) * a, ode.coeff_xd(t, x, v) * v,
                 ode.remainder(t, x, v))
        worst = max(worst, abs(sum(terms)) / (1.0 + sum(map(abs, terms))))
    return worst


def suite_theorem():
    """The generated ODE holds at every point of the first integral G = 0,
    with xdd from G = 0 differentiated: for each of THEOREM_PAIRS and for
    one frequency omega(t)."""
    out = []
    for f_src, g_src in THEOREM_PAIRS:
        osc = DeformedOscillator(f_src, g_src, 1.0, alpha=0.3)
        # between the branch points of the implicit velocity law where g
        # reads v
        t0, t1 = (0.0, 2.8) if osc.g_depends_v else (0.5, 0.5 + 2.0 * math.pi)
        worst = _theorem_residual(
            first_integral_form(osc.first_integral_root.pair),
            generate_ode(osc),
            lambda t, x: first_integral_velocity(osc, t, x, 0.5),
            _off_pole(osc.theta, t0 + 0.02, t1 - 0.02, 150))
        out.append(_check("theorem/f=%s,g=%s" % (f_src, g_src),
                          worst, 1e-13))

    # omega(t) = 1 + t/10, Phi = t + t^2/20 its integral from 0, alpha = 0.2
    f_src, g_src, w_src = "0.2*x + 0.1*sin(t)", "0.1*x^2", "1 + t/10"
    theta = "t + t^2/20 + 0.2"
    G = parse("(v + (%s))*sin(%s) - (%s)*cos(%s)*(x + (%s))"
              % (f_src, theta, w_src, theta, g_src))
    pair = (G, differentiate(G, "v"))
    law = function(pair, ("t", "x", "v"))

    def velocity(t, x):
        # f and g do not read v, so G is affine in v: one Newton step
        # from 0 is its root
        g0, g_v = law(t, x, 0.0)
        return -g0 / g_v

    worst = _theorem_residual(
        first_integral_form(pair),
        generate_ode_time_varying(f_src, g_src, w_src), velocity,
        _off_pole(function(parse(theta), ("t",)),
                  0.5 + 0.02, 0.5 + 2.0 * math.pi - 0.02, 150))
    out.append(_check("theorem/omega(t)=%s" % w_src, worst, 1e-13))
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
        ts = _off_pole(sol.osc.theta, lo + 0.02, hi - 0.02, 200)
        worst = residual_scan(sol.form, sol.evaluator, ts)
        out.append(_check("catalog/%s/residual" % sol.case_id, worst, 1e-6))
        grid = np.linspace(lo, hi, 90)
        traj = integrate_first_integral(sol.osc, lo, sol(lo), hi,
                                        t_eval=grid)
        gap = max_abs(s.x - sol(s.t) for s in traj.states)
        out.append(_check("catalog/%s/rk-match" % sol.case_id, gap, 1e-9))

    # f = a*x*sin(t + phi), a march kind no case has, across three poles
    # against x = C*sin(theta)*exp(a*cos(t + phi)), relative to 1 + |x|
    a, phi, t0, t1 = 0.1, 0.4, 0.5, 0.5 + 3.0 * math.pi
    osc = DeformedOscillator("%r*x*sin(t + %r)" % (a, phi), "0", 1.0,
                             alpha=0.3)
    C = 0.4 / (math.sin(osc.theta(t0)) * math.exp(a * math.cos(t0 + phi)))
    traj = integrate_first_integral(osc, t0, 0.4, t1,
                                    t_eval=np.linspace(t0, t1, 41))
    gap = max_abs((s.x - C * math.sin(osc.theta(s.t))
                   * math.exp(a * math.cos(s.t + phi))) / (1.0 + abs(s.x))
                  for s in traj.states)
    out.append(_check("catalog/f=%r*x*sin(t + %r)/rk-match" % (a, phi),
                      gap, 1e-13))
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
    rng = random.Random(20240825)
    osc = DeformedOscillator("0.2*x", "0.1*sin(t)", 1.0, alpha=0.3)
    gaps = []
    for _ in range(1000):
        t = rng.uniform(-3.0, 3.0)
        x = rng.uniform(-2.0, 2.0)
        v = rng.uniform(-2.0, 2.0)
        gaps.append(abs(phase_function(osc, (t, x, v))) - 1.0)
    out.append(_check("phase/modulus", max_abs(gaps), 1e-12))

    for f_src, g_src in PHASE_PAIRS:
        posc = DeformedOscillator(f_src, g_src, 1.0, alpha=0.3)
        t0, t1 = 0.5, 0.5 + 2.0 * math.pi
        traj = integrate_first_integral(posc, t0, 0.4, t1,
                                        t_eval=np.linspace(t0, t1, 400),
                                        rtol=1e-12, atol=1e-14)
        args = np.unwrap([cmath.phase(phase_function(posc, (s.t, s.x, s.v)))
                          for s in traj.states])
        ts = np.array([s.t for s in traj.states])
        drift = args + 2.0 * (posc.omega * ts + posc.alpha)
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
    traj = integrate_first_integral(osc, t0, 0.4, t1, t_eval=(),
                                    rtol=1e-12, atol=1e-14)
    x_of_t, v_of_t = traj.meta["x_of_t"], traj.meta["v_of_t"]

    def h_of_t(tq):
        return energy(osc, (tq, x_of_t(tq), v_of_t(tq)))

    def rate_gap(t):
        _, dh, _ = fd_derivatives(h_of_t, t, 1e-3)
        return dh - energy_rate(osc, (t, x_of_t(t), v_of_t(t)))

    ts = _off_pole(osc.theta, t0 + 0.05, t1 - 0.05, 60)
    worst = max_abs(rate_gap(t) for t in ts.tolist())
    out.append(_check("energy/rate/generic", worst, 1e-6))
    return out


def _isochrony_checks(label, make_h, omega, alpha):
    """Crossing times, the roots of h near each pole in [0.5, 0.5 + 2*pi],
    sit at those poles for a 10x amplitude ratio, and their spacing does
    not move with amplitude."""
    spacings = []
    offsets = []
    for scale in (1.0, 10.0):
        h = make_h(scale)
        roots = []
        for tn in pole_times(omega, alpha, 0.5, 0.5 + 2.0 * math.pi):
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

    out += _isochrony_checks("case2", h_case2, 1.0, 0.3)

    def h_case4(scale):
        return catalog.case4_riccati(0.8, 0.0, 1.0, 0.3,
                                     t0=0.5, x0=0.05 * scale)

    out += _isochrony_checks("case4", h_case4, 1.0, 0.3)

    def h_case7(scale):
        sol = catalog.case7(0.5, 1.1 * scale, 1.0, 0.0)

        def h(t):
            return sol(t) + 0.5 * sol.v_evaluator(t)
        return h

    out += _isochrony_checks("case7", h_case7, 1.0, 0.0)
    return out


def suite_hyp2f1():
    """_hyp2f1_m1 against F(1, 1; 3; z) = 2[(1 - z) ln(1 - z) + z]/z^2 and
    its dF/dz, on both sides of its switch, and agreement of the two case-4
    solution paths (direct quadrature vs hypergeometric)."""
    out = []
    value = catalog._hyp2f1_m1(1.0, 1.0)
    gaps_F, gaps_dF = [], []
    for z in ([k / 50.0 for k in range(5, 50)] + [0.6 - 1e-9, 0.6 + 1e-9]
              + [1.0 - 10.0 ** -k for k in range(2, 13)]):
        F, dF, _ = value(z, 1.0 - z)
        L = math.log1p(-z)
        r = (1.0 - z) * L + z
        want, dwant = 2.0 * r / z ** 2, 2.0 * (-L / z ** 2 - 2.0 * r / z ** 3)
        gaps_F.append((F - want) / abs(want))
        gaps_dF.append((dF - dwant) / (1.0 + abs(dwant)))
    out.append(_check("hyp2f1/F113-value", max_abs(gaps_F), 1e-13))
    out.append(_check("hyp2f1/F113-slope", max_abs(gaps_dF), 2e-12))

    mu, nu, w, al, t0, x0 = 0.8, 0.5, 1.0, 0.3, 0.5, 0.4
    direct = catalog.case4_riccati(mu, nu, w, al, t0=t0, x0=x0)
    series = catalog.case4_series(mu, nu, w, al, t0, x0)
    # the whole pole interval of t0, to 1e-3 from each pole
    lo, hi = pole_interval(w, al, t0)
    worst = max_abs(series(t) - direct(t)
                    for t in np.linspace(lo + 1e-3, hi - 1e-3, 60).tolist())
    out.append(_check("hyp2f1/case4-two-paths", worst, 1e-10))
    return out


def suite_riccati():
    """The quadratic-damping family: generated-form residual along
    integrated solutions, the closed tanh phase law, and the drift of the
    conserved quantity."""
    out = []
    for b, x0, v0, t1 in ((2.0, 1.0, 0.4, 1.2), (0.5, 1.0, 0.2, 0.8)):
        w = 1.0
        form = riccati_family(b, w)
        grid = np.linspace(0.0, t1, 160)
        x_of_t, v_of_t = integrate_form(form, 0.0, (x0, v0), t1,
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
    rng = random.Random(20240825)
    us = [0.2 + 2.5 * rng.random() for _ in range(100)]
    worst = max_abs(gap for u in us
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


def _beam_generated_ode(model, u0, ts):
    """DOP853 on the ODE that deform generates from the pair (0, g_beam in
    x), from (u0, 0) at ts[0] to rtol 1e-13, sampled on ts: the equation
    whose first integral beam_solve's approx mode solves in closed form.
    Its xdd coefficient u + g and the rest of it vanish together at
    u = 0, so the acceleration stays regular there."""
    g = _substitute(apps.beam_g_expr(model), {"u": Var("x")})
    form = generate_ode_time_varying("0", g, model.omega)
    x_of_t, v_of_t = integrate_form(form, ts[0], (u0, 0.0), ts[-1],
                                    rtol=1e-13, atol=1e-15)
    return sample_trajectory(lambda t: (x_of_t(t), v_of_t(t)), ts[0],
                             ts[-1], ts)


def _state_gap(one, other):
    """Largest x or v gap between two equally long sequences of states."""
    return max_abs(d for p, q in zip(one, other, strict=True)
                   for d in (p.x - q.x, p.v - q.v))


def suite_beam():
    """The asinh deformation identity, the series regime match,
    closed-form vs direct integration (the model gap h != g) and closed
    form vs the ODE of the deformation pair (rounding)."""
    out = []
    model = apps.BeamModel(3.0, 2.0, omega=1.0, c1=0.0)
    ge = apps.beam_g_expr(model)
    g_fn = apps.beam_g(model)
    gp_fn = function(differentiate(ge, "u"), ("u",))
    a = model.alpha_coef
    rng = random.Random(42)
    gaps = []
    for u in (0.5 * rng.random() for _ in range(100)):
        g = g_fn(u)
        lhs = a * u / (1.0 + a * u * u)
        gaps.append(lhs + gp_fn(u) / (u + g))
    out.append(_check("beam/deformation-ode", max_abs(gaps), 1e-9))

    # the u^3 coefficients by differentiate, an oracle of the model apart
    # from the Taylor-mode series of beam_series_compare, read below
    d3 = (ge, apps.beam_h_expr(model))
    for _ in range(3):
        d3 = tuple(differentiate(e, "u") for e in d3)
    g3, h3 = (c / 6.0 for c in function(d3, ("u",))(0.0))
    out.append(_check("beam/cubic-coefficients-symbolic",
                      abs(g3 - h3), 1e-14))

    def cubic(h):
        return (g_fn(h) - g_fn(-h)) / (2.0 * h ** 3)

    h = 0.01
    a1, a2, a3 = cubic(h), cubic(h / 2.0), cubic(h / 4.0)
    b1, b2 = (4 * a2 - a1) / 3.0, (4 * a3 - a2) / 3.0
    sampled = (16 * b2 - b1) / 15.0
    sc = apps.beam_series_compare(model, order=3)
    out.append(_check("beam/cubic-coefficient-sampled",
                      abs(sampled - sc.h_coeffs[3]), 1e-10))

    t = np.linspace(0.0, 2.0 * math.pi, 257)
    direct = apps.beam_solve(model, "direct", (0.05, 0.0), (0.0, t[-1]),
                             t_eval=t, rtol=1e-12, atol=1e-14)
    approx = apps.beam_solve(model, "approx", (0.05, 0.0), (0.0, t[-1]),
                             t_eval=t)
    out.append(_check("beam/approx-vs-direct",
                      _state_gap(approx.states, direct.states), 1e-3))
    # the first half period, through u = 0 at t = pi/2: the whole period
    # would add as much again to the suite's time
    ode = _beam_generated_ode(model, 0.05, t[:129])
    out.append(_check("beam/approx-vs-generated-ode",
                      _state_gap(approx.states[:129], ode.states), 1e-12))
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
