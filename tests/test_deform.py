import copy
import gc
import math
import re
import sys
import weakref

import numpy as np
import pytest

from oscdeform import apps, catalog, deform
from oscdeform.deform import (
    DeformedOscillator,
    energy,
    energy_rate,
    explicit_acceleration,
    first_integral_velocity,
    fit_alpha,
    generate_ode,
    generate_ode_time_varying,
    integrate_first_integral,
    phase_function,
    pole_interval,
    pole_times,
    riccati_family,
    riccati_fit_alpha,
    riccati_invariant,
    riccati_phase,
    riccati_phase_formula,
)
from oscdeform.errors import (
    CotangentPole,
    DegenerateParameters,
    NonSmoothPoint,
    SingularCoefficient,
    UnboundNameError,
    ZeroDenominator,
)
from oscdeform.exprdsl import evaluate, to_str
from oscdeform.numerics import (
    PhaseState,
    cheb_nodes_diff,
    integrate,
    residual_scan,
    trajectory_residual,
)


def test_oscillator_validation():
    with pytest.raises(ValueError):
        DeformedOscillator("0", "0", -1.0)
    with pytest.raises(UnboundNameError):
        DeformedOscillator("u^2", "0", 1.0)
    with pytest.raises(UnboundNameError):
        DeformedOscillator("m*x", "0", 1.0)
    osc = DeformedOscillator("m*x", "0", 1.0, params={"m": 2.0})
    assert osc.f(0.0, 3.0, 0.0) == 6.0
    assert to_str(osc.exprs["f"]) == "2*x"


def test_trees_compile_on_their_first_read():
    osc = DeformedOscillator("0.3*x*v", "0.2*sin(t)*x^2", 1.5, alpha=0.3)
    form = generate_ode(osc)
    for obj in (osc, form):
        assert not set(obj.exprs) & set(vars(obj))
    g = osc.g
    assert osc.g is g and vars(osc)["g"] is g
    point = {"t": 0.4, "x": 0.7, "v": -0.2}
    assert g(0.4, 0.7, -0.2) == evaluate(osc.exprs["g"], point)
    assert form.remainder(0.4, 0.7, -0.2) == evaluate(
        form.exprs["remainder"], point)
    with pytest.raises(AttributeError, match="no attribute 'h'"):
        osc.h
    twin = copy.copy(osc)
    assert twin.g is g and twin.f_x(0.4, 0.7, -0.2) == osc.f_x(0.4, 0.7, -0.2)


def test_oscillator_and_form_are_freed_without_the_collector():
    enabled = gc.isenabled()
    gc.disable()
    try:
        osc = DeformedOscillator("0.3*x*v", "0.2*sin(t)*x^2", 1.0)
        form = generate_ode(osc)
        explicit_acceleration(form, (0.4, 0.7, -0.2))
        osc.g_x(0.4, 0.7, -0.2)
        refs = [weakref.ref(osc), weakref.ref(form), weakref.ref(osc.g_x)]
        del osc, form
        assert [r() for r in refs] == [None] * 3
    finally:
        if enabled:
            gc.enable()


def test_generate_ode_trivial_oscillator():
    form = generate_ode(DeformedOscillator("0", "0", 2.0))
    # x*xdd + 4*x^2 = 0, evaluated at a known point of the circular orbit
    assert form.residual(0.0, 1.0, 0.0, -4.0) == 0.0
    assert form.coeff_xd(0.3, 0.7, -0.2) == 0.0


def test_generate_ode_case1_closed_form():
    # f = f0*sin(t), g = 0: x = (A - f0*t)*sin(t) solves the generated ODE
    f0, A = 0.5, 2.0
    form = generate_ode(DeformedOscillator("0.5*sin(t)", "0", 1.0))
    assert residual_scan(form, lambda t: (A - f0 * t) * math.sin(t),
                         np.linspace(0.1, 6.0, 80)) < 1e-7


def test_generate_ode_quadratic_velocity_shift_residual():
    # f = mu*x^2 + nu, g = 0, integrated through the first integral on a
    # pole-free window, must satisfy the generated ODE to 1e-8
    osc = DeformedOscillator("0.4*x^2 + 0.2", "0", 1.0, alpha=0.0)
    form = generate_ode(osc)

    def rhs(t, x):
        return first_integral_velocity(osc, t, x)

    x_of_t, = integrate(rhs, 0.4, 0.6, 2.6)
    worst = trajectory_residual(form, x_of_t, lambda t: rhs(t, x_of_t(t)),
                                np.linspace(0.5, 2.5, 60))
    assert worst < 1e-8


def test_explicit_acceleration_trivial_and_singular():
    form = generate_ode(DeformedOscillator("0", "0", 1.0))
    assert explicit_acceleration(form, (0.0, 1.0, 0.0)) == -1.0
    with pytest.raises(SingularCoefficient):
        explicit_acceleration(form, (0.0, 0.0, 1.0))


def test_explicit_acceleration_velocity_deformation_fd_oracle():
    # g = c*v: acceleration from the generated form matches a finite
    # difference of the closed-form solution
    c = 0.5
    osc = DeformedOscillator("0", "0.5*v", 1.0)
    form = generate_ode(osc)
    k = 1.0 / (1.0 + c * c)

    def x_of_t(t):
        return math.exp(-c * t * k) * abs(c * math.cos(t) - math.sin(t)) ** k

    t = 0.3
    h = 1e-4
    v = (x_of_t(t + h) - x_of_t(t - h)) / (2 * h)
    a_fd = (x_of_t(t + h) - 2 * x_of_t(t) + x_of_t(t - h)) / h ** 2
    a = explicit_acceleration(form, (t, x_of_t(t), v))
    assert a == pytest.approx(a_fd, abs=1e-5)


def test_first_integral_velocity_trivial_and_case1():
    osc = DeformedOscillator("0", "0", 1.0)
    assert first_integral_velocity(osc, math.pi / 2, 1.0) == pytest.approx(0.0)

    osc1 = DeformedOscillator("sin(t)", "0", 1.0)
    A = 2.0
    for t in np.linspace(0.3, 2.8, 15):
        x = (A - t) * math.sin(t)
        want = -math.sin(t) + (A - t) * math.cos(t)
        assert first_integral_velocity(osc1, t, x) == pytest.approx(
            want, abs=1e-10)


def test_first_integral_velocity_guards():
    osc = DeformedOscillator("0", "0", 1.0)
    with pytest.raises(CotangentPole):
        first_integral_velocity(osc, math.pi, 1.0)
    # a v-dependent f makes the relation implicit: the returned v is a
    # fixed point of v = omega*cot(theta)*(x+g) - f(v)
    osc_v = DeformedOscillator("-0.75*v + 1.0", "0", 1.0)
    v = first_integral_velocity(osc_v, 0.5, 1.0)
    assert v == pytest.approx(
        math.cos(0.5) / math.sin(0.5) * 1.0 - (-0.75 * v + 1.0), abs=1e-13)


def test_first_integral_velocity_velocity_shift():
    # f = -(3/4)v + b  =>  v = 4*omega*cot(theta)*x - 4b
    b = 0.7
    osc = DeformedOscillator("-0.75*v + 0.7", "0", 1.0, alpha=0.3)
    for t in [0.5, 1.2, 2.0]:
        for x in [0.3, 1.5]:
            want = 4.0 * math.cos(t + 0.3) / math.sin(t + 0.3) * x - 4.0 * b
            got = first_integral_velocity(osc, t, x)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_first_integral_velocity_regular_at_pole_for_velocity_g():
    # g = c*v makes the scaled first integral regular at sin(theta) = 0,
    # where the velocity is -x/c
    c = 0.5
    osc = DeformedOscillator("0", "0.5*v", 1.0)
    v = first_integral_velocity(osc, math.pi, 0.8)
    assert v == pytest.approx(-0.8 / c, rel=1e-12)
    # but v-independent g still refuses the pole
    osc2 = DeformedOscillator("-0.75*v", "0", 1.0)
    with pytest.raises(CotangentPole):
        first_integral_velocity(osc2, math.pi, 0.8)


def test_phase_function_trivial_and_unit_modulus():
    osc = DeformedOscillator("0", "0", 1.0)
    assert phase_function(osc, (0.0, 0.0, 1.0)) == pytest.approx(1.0 + 0.0j)

    rng = np.random.default_rng(2024)
    osc2 = DeformedOscillator("0.3*x + 0.1*v", "0.2*sin(t) + 0.1*x^2", 1.7)
    for _ in range(200):
        s = PhaseState(*(rng.uniform(-2, 2, size=3)))
        assert abs(abs(phase_function(osc2, s)) - 1.0) < 1e-14


def test_phase_function_zero_denominator():
    osc = DeformedOscillator("0", "0", 1.0)
    with pytest.raises(ZeroDenominator):
        phase_function(osc, (0.3, 0.0, 0.0))


def test_energy_trivial_constant():
    osc = DeformedOscillator("0", "0", 1.0)
    for t in np.linspace(0, 6, 25):
        H = energy(osc, (t, math.sin(t), math.cos(t)))
        assert H == pytest.approx(1.0, abs=1e-15)


def test_energy_conserved_for_gdot_equals_f():
    # g = sin t, f = cos t: dg/dt = f, so H is exactly conserved even though
    # the deformation is time-dependent
    osc = DeformedOscillator("cos(t)", "sin(t)", 1.0, alpha=0.3)
    traj = integrate_first_integral(osc, 0.5, 0.4, 0.5 + 2 * math.pi,
                                    t_eval=np.linspace(0.5, 0.5 + 2 * math.pi, 201))
    H = [energy(osc, s) for s in traj]
    assert max(H) - min(H) < 1e-8


def test_energy_rate_formula_matches_fd():
    osc = DeformedOscillator("0.2*x^2 + 0.1", "0.15*sin(t)", 1.0, alpha=0.0)
    h = 1e-3
    centers = [0.7, 1.1, 1.9, 2.3]
    stencil = sorted({c + d for c in centers
                      for d in (-h, -h / 2, 0.0, h / 2, h)})
    traj = integrate_first_integral(osc, 0.4, 0.5, 2.6, t_eval=stencil)
    H = {round(s.t, 9): energy(osc, s) for s in traj}
    states = {round(s.t, 9): s for s in traj}
    for c in centers:
        d1 = (H[round(c + h, 9)] - H[round(c - h, 9)]) / (2 * h)
        d2 = (H[round(c + h / 2, 9)] - H[round(c - h / 2, 9)]) / h
        hdot_fd = (4.0 * d2 - d1) / 3.0
        hdot = energy_rate(osc, states[round(c, 9)])
        assert hdot == pytest.approx(hdot_fd, abs=1e-7)


def test_energy_rate_requires_acceleration_for_velocity_g():
    osc = DeformedOscillator("0", "0.5*v", 1.0)
    with pytest.raises(ValueError):
        energy_rate(osc, (1.0, 0.5, -0.2))
    val = energy_rate(osc, (1.0, 0.5, -0.2), a=0.1)
    assert math.isfinite(val)


def test_fit_alpha_consistency_and_quadrant():
    rng = np.random.default_rng(7)
    osc = DeformedOscillator("0.1*x", "0.2*sin(t)", 1.3)
    for _ in range(50):
        t, x, v = rng.uniform(-2, 2, size=3)
        try:
            al = fit_alpha(osc, (t, x, v))
        except ZeroDenominator:
            continue
        assert -math.pi < al <= math.pi
        osc2 = DeformedOscillator("0.1*x", "0.2*sin(t)", 1.3, alpha=al)
        th = osc2.theta(t)
        xg = x + osc2.g(t, x, v)
        vf = v + osc2.f(t, x, v)
        # first integral holds at the fitted phase
        assert vf * math.sin(th) - 1.3 * math.cos(th) * xg == pytest.approx(
            0.0, abs=1e-12)
        # sin(theta) carries the sign of x+g
        if abs(xg) > 1e-12:
            assert math.copysign(1, math.sin(th)) == math.copysign(1, xg)


def test_integrate_first_integral_harmonic_exact():
    osc = DeformedOscillator("0", "0", 1.3, alpha=0.2)
    A = 0.8
    t0 = 0.4
    x0 = A * math.sin(1.3 * t0 + 0.2)
    t_eval = np.linspace(t0, t0 + 2 * math.pi / 1.3, 301)
    traj = integrate_first_integral(osc, t0, x0, float(t_eval[-1]), t_eval=t_eval)
    worst = max(abs(s.x - A * math.sin(1.3 * s.t + 0.2)) for s in traj)
    assert worst < 1e-9
    worst_v = max(abs(s.v - 1.3 * A * math.cos(1.3 * s.t + 0.2)) for s in traj)
    assert worst_v < 1e-8


_BEAM = apps.BeamModel(3.0, 2.0, omega=1.0, c1=0.0)

# every producer of a Trajectory: (t0, t1, trajectory sampled at t_eval)
_PRODUCERS = {
    "amplitude-frame g=0.2x^2": (0.3, 4.0, lambda ts: integrate_first_integral(
        DeformedOscillator("0", "0.2*x^2", 5.0), 0.3, 0.4, 4.0, t_eval=ts)),
    "amplitude-frame f=-0.75v+0.8": (
        0.3, 6.0, lambda ts: integrate_first_integral(
            DeformedOscillator("-0.75*v + 0.8", "0", 1.0), 0.3, 0.4, 6.0,
            t_eval=ts)),
    "implicit g=0.15v": (0.0, 2.8, lambda ts: integrate_first_integral(
        DeformedOscillator("0", "0.15*v", 1.0, alpha=0.3), 0.0, 0.4, 2.8,
        t_eval=ts, v0=0.5)),
    "beam direct": (0.0, 2 * math.pi, lambda ts: apps.beam_solve(
        _BEAM, "direct", (0.05, 0.0), (0.0, 2 * math.pi), t_eval=ts)),
    "beam approx": (0.0, 2 * math.pi, lambda ts: apps.beam_solve(
        _BEAM, "approx", (0.05, 0.0), (0.0, 2 * math.pi), t_eval=ts)),
}


@pytest.mark.parametrize("name", sorted(_PRODUCERS))
def test_trajectory_values_depend_on_t_alone(name):
    t0, t1, produce = _PRODUCERS[name]
    coarse = produce(np.linspace(t0, t1, 101))
    fine = produce(np.linspace(t0, t1, 201))
    # the shared times of the two grids carry the same states
    on_fine = {s.t: s for s in fine}
    assert [on_fine[s.t] for s in coarse] == coarse.states
    # the dense pair gives the same values queried forward and backward,
    # and the states are its values
    x_of_t, v_of_t = coarse.meta["x_of_t"], coarse.meta["v_of_t"]
    ts = coarse.t.tolist()
    forward = [(x_of_t(t), v_of_t(t)) for t in ts]
    backward = [(x_of_t(t), v_of_t(t)) for t in reversed(ts)][::-1]
    assert forward == backward
    assert forward == [(s.x, s.v) for s in coarse]


def test_amplitude_frame_stays_on_the_initial_branch():
    # x + 0.2x^2 = c has a root on each side of the fold x = -2.5; the
    # trajectory from x0 = -4 must keep the left one, not the root -1
    # nearest the target
    osc = DeformedOscillator("0", "0.2*x^2", 5.0)
    traj = integrate_first_integral(osc, 0.3, -4.0, 0.5)
    assert traj.states[0].x == -4.0
    assert np.all(traj.x < -2.5)


def test_pole_lattice():
    # the poles (n*pi - alpha)/omega over a window, the open cell between
    # two of them around a time, and the poles the driver crosses
    w, al = 2.0, 0.3
    poles = pole_times(w, al, 0.0, 5.0)
    assert poles == [(n * math.pi - al) / w for n in (1, 2, 3)]
    assert pole_times(w, al, 1.5, 2.9) == []
    assert pole_interval(w, al, 2.0) == (poles[0], poles[1])
    with pytest.raises(CotangentPole):
        pole_interval(1.0, 0.0, math.pi)
    osc = DeformedOscillator("0", "0.2*x^2", 5.0)
    traj = integrate_first_integral(osc, 0.3, 0.4, 2.0)
    assert traj.meta["poles_crossed"] == pole_times(5.0, 0.0, 0.3, 2.0)
    assert len(traj.meta["poles_crossed"]) == 3


def test_pole_start_stays_on_the_initial_branch():
    # theta(t0) = pi and x0 = -5 is the left root of x + 0.2x^2 = 0; with
    # f = 1 and v0 = -0.5 the crossing numerator g_x*v - f vanishes there,
    # while on the right root x = 0 it is -1 and the crossing is not smooth
    osc = DeformedOscillator("1", "0.2*x^2", 5.0)
    traj = integrate_first_integral(osc, math.pi / 5.0, -5.0, 0.8, v0=-0.5)
    assert traj.states[0].x == -5.0
    assert traj.meta["poles_crossed"] == [pytest.approx(math.pi / 5.0)]
    assert np.all(traj.x < -2.5)


def test_pole_start_is_the_first_of_several_transits():
    # case5 started on its pole t0 = pi - alpha crosses that pole and the
    # next two, each once, and stays on the closed form throughout
    sol = catalog.case5_power(0.25, 2, 0.8, 1.0, 0.3)
    t0 = math.pi - 0.3
    t1 = t0 + 2.5 * math.pi
    traj = integrate_first_integral(sol.osc, t0, sol(t0), t1,
                                    v0=sol.v_evaluator(t0), rtol=1e-12)
    poles = traj.meta["poles_crossed"]
    assert poles == [pytest.approx(t0 + k * math.pi) for k in range(3)]
    assert max(abs(s.x - sol(s.t)) / (1.0 + abs(s.x)) for s in traj) < 1e-10


def test_implicit_path_stays_on_the_branch_of_v0():
    # with g = 0.1v^2 the velocity law 0.1c v^2 - s v + c x = 0 has two
    # roots, near 0.4 and 9.9 at (t0, x0); v0 picks the second
    osc = DeformedOscillator("0", "0.1*v^2", 1.0, alpha=0.3)
    t0, x0 = 0.5, 0.4
    low = first_integral_velocity(osc, t0, x0)
    v0 = first_integral_velocity(osc, t0, x0, 10.0)
    assert low < 1.0 < 9.0 < v0
    traj = integrate_first_integral(osc, t0, x0, 0.55, v0=v0)
    assert (traj.states[0].x, traj.states[0].v) == (x0, v0)
    assert np.all(traj.v > 5.0)


def test_implicit_path_stops_at_a_fold_of_the_velocity_law():
    # case7's g = c*v: G'(v) = sin(theta) - c*omega*cos(theta) vanishes
    # where the closed form's velocity is undefined; the span up to just
    # before that t integrates and matches the closed form
    c, w, al, t0 = 0.3, 1.5, 0.2, 0.1
    t_fold = (math.atan(c * w) - al) / w
    osc = DeformedOscillator("0", "%r*v" % c, w, alpha=al)
    with pytest.raises(NonSmoothPoint) as info:
        integrate_first_integral(osc, t0, 0.3, 1.5)
    named = float(re.search(r"folds at t = (\S+):", str(info.value)).group(1))
    assert abs(named - t_fold) < 1e-6
    exact = catalog.case7(c, 1.0, w, al)
    sol = catalog.case7(c, 0.3 / exact(t0), w, al)
    traj = integrate_first_integral(osc, t0, sol(t0), t_fold - 1e-3)
    assert max(abs(s.x - sol(s.t)) for s in traj) < 1e-8


def test_integrate_first_integral_rejects_pole_start():
    osc = DeformedOscillator("0", "0", 1.0)
    with pytest.raises(CotangentPole):
        integrate_first_integral(osc, math.pi, 0.0, math.pi + 1.0)


def test_integrate_first_integral_nonsmooth_crossing():
    # g = sin t, f = 0: xd diverges logarithmically at the crossing, so the
    # pole restart must refuse rather than fabricate a continuation
    osc = DeformedOscillator("0", "sin(t)", 1.0)
    with pytest.raises(NonSmoothPoint):
        integrate_first_integral(osc, 0.5, 0.4, 0.5 + 2 * math.pi)


_SLOPE_PAIRS = [
    ("0", "0.2*x^2"),
    ("0", "0.15*x^3"),
    ("0.2*x", "0.1*sin(t + 0.3)^2"),
    ("-0.3*x + 0.5*x^3", "0"),
    ("-0.75*v + 0.8", "0"),          # f depends on v
]


@pytest.mark.parametrize("f_src,g_src", _SLOPE_PAIRS)
def test_numerator_slope_matches_richardson_difference(f_src, g_src):
    # the transit Jacobian's dN/dy, at the Chebyshev nodes of one pole
    # window, against a Richardson central difference of the numerator;
    # the array pass gives each node's numerator and state bit for bit
    osc = DeformedOscillator(f_src, g_src, 2.0, alpha=0.3)
    pole = (math.pi - 0.3) / 2.0
    ts, _ = cheb_nodes_diff(47, pole - 0.15, pole + 0.15)
    svec = np.array([math.sin(osc.theta(t)) for t in ts])
    cvec = np.array([math.cos(osc.theta(t)) for t in ts])
    m = len(ts)
    for y in (0.45, -0.7):
        N, dN, xs, vs = deform._crossing_numerators(
            osc, ts, np.full(m, y), svec, cvec, np.full(m, 0.4),
            np.zeros(m))
        for i, t in enumerate(ts.tolist()):
            s, c = svec[i], cvec[i]
            scalar = deform._crossing_numerator(osc, t, y, s, c, 0.4, 0.0)
            assert scalar == (N[i], xs[i], vs[i]), (t, y)

            def central(h):
                return (deform._crossing_numerator(osc, t, y + h, s, c,
                                                   xs[i], vs[i])[0]
                        - deform._crossing_numerator(osc, t, y - h, s, c,
                                                     xs[i], vs[i])[0]
                        ) / (2.0 * h)

            fd = (4.0 * central(5e-4) - central(1e-3)) / 3.0
            assert abs(dN[i] - fd) <= 1e-7 * (1.0 + abs(dN[i])), (t, y)


def test_pole_transit_solves_every_node_in_one_array_pass(monkeypatch):
    # one Newton per node and collocation pass made 194 solve_scalar calls
    # in this transit (48 nodes, 4 passes); the array pass leaves the entry
    # solve at the left edge and the smoothness test at the pole
    calls = []
    solve = deform.solve_scalar

    def counted(*args):
        calls.append(None)
        return solve(*args)

    # deform's binding of numerics.solve_scalar
    monkeypatch.setattr(deform, "solve_scalar", counted)
    osc = DeformedOscillator("0", "0.2*x^2", 5.0)
    pole = math.pi / 5.0
    a, b = pole - 0.06, pole + 0.06
    y_in = (0.3 + osc.g(a, 0.3, 0.0)) / math.sin(osc.theta(a))
    interp = deform._pole_transit(osc, a, b, pole, y_in, 0.3, 0.0)
    assert interp(a) == y_in
    assert len(calls) <= 2


def _case6_k1(d, t0, x0):
    # f = -0.5v + d, g = 0, omega = 1: x' = 2*cot(t)*x - 2d, solved by
    # x = d*sin(2t) + C*sin(t)^2
    C = (x0 - d * math.sin(2.0 * t0)) / math.sin(t0) ** 2
    return lambda t: d * math.sin(2.0 * t) + C * math.sin(t) ** 2


def _case6_k3(d, t0, x0):
    # catalog.case6: f = -0.75v + d, with c1 fitted to x(t0) = x0
    s, c = math.sin(t0), math.cos(t0)
    c1 = (3.0 * x0 - 2.0 * d * math.sin(2.0 * t0) - 8.0 * d * s ** 3 * c) / (
        3.0 * s ** 4)
    return catalog.case6(d, c1)


@pytest.mark.parametrize("b, closed_form, bound", [
    (-0.75, _case6_k3, 2e-9),    # k = 3: 1.39e-9 after the pole
    (-0.5, _case6_k1, 1e-11),    # k = 1: 7.7e-12 after the pole
], ids=["k=3", "k=1"])
def test_transit_with_a_re_expanding_mode_keeps_its_accuracy(b, closed_form,
                                                             bound):
    # f = b*v + 0.8, g = 0 crosses the pole at pi with the mode
    # (t - pi)^k, k = -b/(1 + b); the error after the pole, relative to
    # 1 + |x|, must not grow beyond what the transit gives today
    t0, x0 = 0.3, 0.4
    osc = DeformedOscillator("%r*v + 0.8" % b, "0", 1.0)
    traj = integrate_first_integral(osc, t0, x0, 6.0,
                                    t_eval=np.linspace(t0, 6.0, 401),
                                    rtol=1e-13, atol=1e-15)
    assert traj.meta["poles_crossed"] == [pytest.approx(math.pi)]
    exact = closed_form(0.8, t0, x0)
    after = [abs(s.x - exact(s.t)) / (1.0 + abs(s.x))
             for s in traj if s.t > math.pi + 0.3]
    assert max(after) < bound


@pytest.mark.parametrize("g_src", ["0", "0.1*sin(t + 0.3)^2"])
def test_solve_position_is_closed_form_when_g_is_free_of_x(g_src,
                                                           monkeypatch):
    def refuse(*args):
        raise AssertionError("solve_scalar called")

    # deform's binding of numerics.solve_scalar
    monkeypatch.setattr(deform, "solve_scalar", refuse)
    osc = DeformedOscillator("0.2*x", g_src, 1.0, alpha=0.3)
    for t, target in ((0.5, 0.37), (2.0, -1.25), (2.8, 1e-17)):
        assert (deform._solve_position(osc, t, target, 0.4)
                == target - osc.g(t, 0.0, 0.0))
    # f and g free of v: a march through a pole inverts nothing by Newton
    traj = integrate_first_integral(osc, 0.5, 0.4, 4.0)
    assert len(traj.meta["poles_crossed"]) == 1


def test_pole_march_position_solves_per_pole(monkeypatch):
    # a finite-difference transit Jacobian costs two more position solves
    # per node and Newton iteration: 569 solves per pole against 281
    calls = []
    solve = deform._solve_position

    def counted(*args):
        calls.append(None)
        return solve(*args)

    monkeypatch.setattr(deform, "_solve_position", counted)
    osc = DeformedOscillator("0", "0.2*x^2", 5.0)
    traj = integrate_first_integral(osc, 0.3, 0.4, 0.3 + 100 * math.pi / 5.0)
    poles = len(traj.meta["poles_crossed"])
    assert poles == 100
    assert len(calls) <= 300 * poles


# explicit pairs, (f, g, omega, alpha): g free of x and f free of v
_EXPLICIT_PAIRS = [
    ("-0.3*x + 0.5*x^3", "0", 1.3, 0.3),
    # the sin(theta)^k time deformations, with the oscillator's theta
    ("0.2*sin(1.3*t + 0.3)", "0", 1.3, 0.3),
    ("0", "0.15*sin(1.3*t + 0.3)^2", 1.3, 0.3),
    ("0.2*sin(1.3*t + 0.3)", "0.15*sin(1.3*t + 0.3)^2", 1.3, 0.3),
    ("0.1*x*sin(t + 0.4)", "0", 1.7, 0.2),
    # constant folding would drop theta's + 0 and its 1*t
    ("-0.3*x + 0.5*x^3", "0.1*sin(t)", 1.3, 0.0),
    ("0.2*x", "0.1*sin(t + 0.3)^2", 1.0, 0.3),
]


@pytest.mark.parametrize("f_src,g_src,omega,alpha", _EXPLICIT_PAIRS)
def test_amplitude_slope_is_the_crossing_numerator_over_the_sine(
        f_src, g_src, omega, alpha):
    osc = DeformedOscillator(f_src, g_src, omega, alpha=alpha)
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 200:
        t, y = rng.uniform(-10.0, 10.0), rng.uniform(-3.0, 3.0)
        th = osc.theta(t)
        s, c = math.sin(th), math.cos(th)
        if abs(s) < 0.05:
            continue
        num = deform._crossing_numerator(osc, t, y, s, c, 0.4, 0.0)[0]
        assert osc.amplitude_slope(t, y) == num / s, (t, y)
        checked += 1


def test_explicit_march_solves_states_only_in_the_transits(monkeypatch):
    # between poles the march calls the compiled amplitude_slope; each
    # transit solves one state at its left edge and one at its pole
    callers = []
    solve = deform._crossing_numerator

    def counted(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return solve(*args)

    monkeypatch.setattr(deform, "_crossing_numerator", counted)
    osc = DeformedOscillator("-0.3*x + 0.5*x^3", "0", 1.3, alpha=0.3)
    t0 = (math.pi / 2.0 - 0.3) / 1.3
    traj = integrate_first_integral(osc, t0, 0.4, t0 + 3.0 * math.pi / 1.3,
                                    t_eval=np.linspace(t0, t0 + 7.0, 50))
    assert len(traj.meta["poles_crossed"]) == 3
    assert callers == ["_pole_transit"] * 6


def test_time_varying_reduces_to_constant_omega():
    form_tv = generate_ode_time_varying("0.3*sin(t)", "0.1*t", "2")
    osc = DeformedOscillator("0.3*sin(t)", "0.1*t", 2.0)
    form = generate_ode(osc)
    rng = np.random.default_rng(12)
    for _ in range(30):
        t, x, v = rng.uniform(-1.5, 1.5, size=3)
        a = rng.uniform(-2, 2)
        assert form_tv.residual(t, x, v, a) == pytest.approx(
            form.residual(t, x, v, a), rel=1e-13, abs=1e-13)


def test_time_varying_residual_along_solution():
    form = generate_ode_time_varying("sin(t)", "t/5", "1 + t/10")

    def slope(t, x):
        # xd = omega(t)*cot(Phi(t) + alpha)*(x + g) - f with
        # Phi(t) = t + t^2/20, the integral of omega from 0, and alpha = 0.2
        th = t + t * t / 20.0 + 0.2
        return ((1.0 + t / 10.0) * math.cos(th) / math.sin(th)
                * (x + t / 5.0) - math.sin(t))

    # finite differences of a dense numerical solution need the integration
    # error well below the differencing noise floor
    x_of_t, = integrate(slope, 0.1, 0.7, 2.4, rtol=1e-12, atol=1e-14)
    worst = residual_scan(form, x_of_t, np.linspace(0.2, 2.3, 50))
    assert worst < 1e-7


def test_time_varying_validation():
    with pytest.raises(UnboundNameError):
        generate_ode_time_varying("x", "0", "1")
    with pytest.raises(UnboundNameError):
        generate_ode_time_varying("q*t", "0", "1")


def test_riccati_family_form_and_degenerates():
    form = riccati_family(2.0, 1.0)
    # xdd + 2 v^2/x - x = 0 at (x, v) = (1, 0) gives xdd = 1
    assert form.residual(0.0, 1.0, 0.0, 1.0) == 0.0
    with pytest.raises(DegenerateParameters):
        riccati_family(1.0, 1.0)
    with pytest.raises(DegenerateParameters):
        riccati_family(0.0, 1.0)


def test_riccati_invariant_and_phase_law():
    for b in (2.0, 0.5):
        w = 1.0
        E = riccati_invariant(b, w)

        def rhs(t, y, b=b):
            x, v = y
            return (v, -(b / w) * v * v / x + w * (b - w) * x)

        x_of_t, v_of_t = integrate(rhs, 0.0, (1.0, 0.1), 1.5)
        traj = [PhaseState(t, x_of_t(t), v_of_t(t))
                for t in np.linspace(0.0, 1.5, 61)]
        e0 = E(traj[0].x, traj[0].v)
        drift = max(abs(E(s.x, s.v) - e0) for s in traj)
        assert drift < 1e-7

        al = riccati_fit_alpha(b, w, traj[0])
        X = riccati_phase_formula(b, w, al)
        worst = max(abs(riccati_phase(s, w) - X(s.t)) for s in traj)
        assert worst < 1e-6
