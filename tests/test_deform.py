import collections
import copy
import functools
import gc
import math
import re
import sys
import weakref

import numpy as np
import pytest

from oscdeform import apps, catalog, deform, verify
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
    EvalDomainError,
    ImplicitNoRoot,
    NonSmoothPoint,
    SingularCoefficient,
    StepSizeUnderflow,
    UnboundNameError,
    ZeroDenominator,
)
from oscdeform.exprdsl import (
    Num,
    Var,
    _walk,
    add,
    depends_on,
    differentiate,
    evaluate,
    function,
    mul,
    sub,
    to_str,
)
from oscdeform.numerics import (
    PhaseState,
    cheb_nodes_diff,
    cheb_series,
    integrate,
    residual_scan,
    solve_scalar,
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


@pytest.mark.parametrize("name, build", [
    ("omega", lambda: DeformedOscillator("0", "0.15*v", math.inf)),
    ("omega", lambda: DeformedOscillator("0", "0", math.nan)),
    ("alpha", lambda: DeformedOscillator("0", "0", 1.0, alpha=math.nan)),
    ("alpha", lambda: DeformedOscillator("0", "0", 1.0, alpha=-math.inf)),
    ("alpha", lambda: catalog.harmonic(1.0, 1.0, math.nan)),
    ("omega", lambda: riccati_family(1.0, math.inf)),
    ("b", lambda: riccati_family(math.nan, 1.0)),
    # the other functions of the family, through riccati_family's check
    pytest.param("omega", lambda: riccati_invariant(1.0, math.inf),
                 id="omega-riccati_invariant"),
    pytest.param("b", lambda: riccati_invariant(math.nan, 1.0),
                 id="b-riccati_invariant"),
    pytest.param("omega", lambda: riccati_phase_formula(2.0, math.inf, 0.1),
                 id="omega-riccati_phase_formula"),
    pytest.param("b", lambda: riccati_phase_formula(-math.inf, 1.0, 0.1),
                 id="b-riccati_phase_formula"),
    pytest.param("b",
                 lambda: riccati_fit_alpha(math.nan, 1.0, (0.1, 0.5, 0.2)),
                 id="b-riccati_fit_alpha"),
    pytest.param("omega",
                 lambda: riccati_fit_alpha(2.0, math.nan, (0.1, 0.5, 0.2)),
                 id="omega-riccati_fit_alpha"),
])
def test_non_finite_parameters_are_refused_by_name(name, build):
    with pytest.raises(ValueError, match="^%s must be finite" % name):
        build()


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
    H = [energy(osc, s) for s in traj.states]
    assert max(H) - min(H) < 1e-8


def test_energy_rate_formula_matches_fd():
    osc = DeformedOscillator("0.2*x^2 + 0.1", "0.15*sin(t)", 1.0, alpha=0.0)
    h = 1e-3
    centers = [0.7, 1.1, 1.9, 2.3]
    stencil = sorted({c + d for c in centers
                      for d in (-h, -h / 2, 0.0, h / 2, h)})
    traj = integrate_first_integral(osc, 0.4, 0.5, 2.6, t_eval=stencil)
    H = {round(s.t, 9): energy(osc, s) for s in traj.states}
    states = {round(s.t, 9): s for s in traj.states}
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
    worst = max(abs(s.x - A * math.sin(1.3 * s.t + 0.2))
                for s in traj.states)
    assert worst < 1e-9
    worst_v = max(abs(s.v - 1.3 * A * math.cos(1.3 * s.t + 0.2))
                  for s in traj.states)
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
    on_fine = {s.t: s for s in fine.states}
    assert [on_fine[s.t] for s in coarse.states] == coarse.states
    # the dense pair gives the same values queried forward and backward,
    # and the states are its values
    x_of_t, v_of_t = coarse.meta["x_of_t"], coarse.meta["v_of_t"]
    ts = [s.t for s in coarse.states]
    forward = [(x_of_t(t), v_of_t(t)) for t in ts]
    backward = [(x_of_t(t), v_of_t(t)) for t in reversed(ts)][::-1]
    assert forward == backward
    assert forward == [(s.x, s.v) for s in coarse.states]


@pytest.mark.parametrize("name", ["amplitude-frame f=-0.75v+0.8",
                                  "amplitude-frame g=0.2x^2",
                                  "implicit g=0.15v"])
def test_driver_position_makes_no_velocity_solve(name, monkeypatch):
    """meta["x_of_t"] solves for x alone: at every sampled time it gives
    the state's x bit for bit and calls neither osc.transit_node, which
    solves the state, nor first_integral_velocity."""
    t0, t1, produce = _PRODUCERS[name]
    traj = produce(np.linspace(t0, t1, 41))
    calls = []
    # a property wins over the node function cached on the instance
    monkeypatch.setattr(DeformedOscillator, "transit_node", property(
        lambda osc: calls.append("transit_node")))
    monkeypatch.setattr(deform, "first_integral_velocity",
                        lambda *args, **kw: calls.append("first_integral"))
    x_of_t = traj.meta["x_of_t"]
    assert ([x_of_t(s.t).hex() for s in traj.states]
            == [s.x.hex() for s in traj.states])
    assert calls == []
    # the position's tree reads no guess of v; the state's does, where f
    # reads v
    osc = DeformedOscillator("-0.75*v + 0.8", "0", 1.0)
    assert depends_on(osc._frame[1], "v")
    assert not depends_on(osc._frame[0], "v")


def test_amplitude_frame_stays_on_the_initial_branch():
    # x + 0.2x^2 = c has a root on each side of the fold x = -2.5; the
    # trajectory from x0 = -4 must keep the left one, not the root -1
    # nearest the target
    osc = DeformedOscillator("0", "0.2*x^2", 5.0)
    traj = integrate_first_integral(osc, 0.3, -4.0, 0.5)
    assert traj.states[0].x == -4.0
    assert all(s.x < -2.5 for s in traj.states)


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
    assert all(s.x < -2.5 for s in traj.states)


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
    assert max(abs(s.x - sol(s.t)) / (1.0 + abs(s.x))
               for s in traj.states) < 1e-10


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
    assert all(s.v > 5.0 for s in traj.states)


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
    assert max(abs(s.x - sol(s.t)) for s in traj.states) < 1e-8


def test_implicit_path_blow_up_is_not_a_fold():
    # x' ~ x^3 escapes in finite time while G'(v) = sin(theta) -
    # 0.1*cos(theta) stays far from 0: the stalled march is reported as it
    # is, not as a fold of the velocity law
    osc = DeformedOscillator("-x^3", "0.1*v", 1.0, alpha=0.5)
    with pytest.raises(StepSizeUnderflow):
        integrate_first_integral(osc, 0.3, 3.0, 2.0)


def test_implicit_path_marches_x_and_v_to_the_closed_form():
    # a pole-march benchmark task (g = b*v, seed 42) that read 1.01e-6
    # against case7 when the path marched x alone, with a Newton solve for
    # v in every rhs call; the (x, v) march of G = 0 differentiated, from
    # one solve at t0, reads 6.3e-13
    c, w, al = 0.11471559930596027, 1.956673157824501, 0.4129035518421295
    t0, t1, x0 = 0.10625062220920832, 1.3029720287589153, 0.3186534295126709
    osc = DeformedOscillator("0", "%r*v" % c, w, alpha=al)
    traj = integrate_first_integral(osc, t0, x0, t1, rtol=1e-12, atol=1e-14)
    sol = catalog.case7(c, x0 / catalog.case7(c, 1.0, w, al)(t0), w, al)
    assert traj.states[0].x == x0
    assert max(abs(s.x - sol(s.t)) for s in traj.states) < 1e-9
    assert max(abs(s.v - sol.v_evaluator(s.t)) for s in traj.states) < 1e-9
    assert traj.meta["x_of_t"](t1) == traj.states[-1].x


@pytest.mark.parametrize("name", ["t0", "x0", "t1", "v0", "t_eval"])
def test_integrate_first_integral_refuses_non_finite_arguments(name):
    # t1 = inf overflowed in pole_times, t0 = -inf hit a math domain
    # error, x0 = NaN underflowed the step size, and a NaN time was
    # sampled; each is now a ValueError that names it
    osc = DeformedOscillator("0.1*x", "0.2*x^2", 1.0, alpha=0.3)
    args = dict(t0=0.5, x0=0.4, t1=1.5, v0=None, t_eval=[1.0])
    integrate_first_integral(osc, **args)
    message = "t_eval must lie within" if name == "t_eval" else (
        "^%s must be finite" % name)
    for bad in (math.nan, math.inf, -math.inf):
        value = [1.0, bad] if name == "t_eval" else bad
        with pytest.raises(ValueError, match=message):
            integrate_first_integral(osc, **dict(args, **{name: value}))


def test_integrate_first_integral_rejects_pole_start():
    osc = DeformedOscillator("0", "0", 1.0)
    with pytest.raises(CotangentPole):
        integrate_first_integral(osc, math.pi, 0.0, math.pi + 1.0)


def test_integrate_first_integral_nonsmooth_crossing():
    # g = sin t, f = 0: xd diverges logarithmically at the crossing, so the
    # pole piece must refuse rather than fabricate a continuation; its y is
    # unbounded and never chops, and the smoothness test names the pole
    osc = DeformedOscillator("0", "sin(t)", 1.0)
    with pytest.raises(NonSmoothPoint, match="unbounded") as info:
        integrate_first_integral(osc, 0.5, 0.4, 0.5 + 2 * math.pi)
    pole = float(re.search(r"pole t = ([-+.0-9e]+)", str(info.value))[1])
    assert abs(pole - math.pi) < 1e-12


def test_an_affine_crossing_tests_smoothness_at_the_solved_amplitude(
        monkeypatch):
    # f = 3x + 1e-5 from 0.1 before the pole at pi: N = -3*y*sin(t) - 1e-5
    # is 1e-5 at the pole, over the bound 1e-6*(1 + max|N|) = 4e-6 that N
    # at the solved amplitude gives (y decays as exp(-3t) from y_in = 10 at
    # |sin| = 0.1); N at the constant guess y_in would read 2.1e-5, as
    # 3*y_in*|sin| at the piece's right edge, and let the pole through
    osc = DeformedOscillator("3*x + 1e-5", "0", 1.0)
    assert osc.affine_crossing
    calls = []

    def recorded(*args):
        calls.append(args)
        return transit(*args)

    transit = deform._pole_transit
    monkeypatch.setattr(deform, "_pole_transit", recorded)
    with pytest.raises(NonSmoothPoint, match="unbounded") as info:
        integrate_first_integral(osc, math.pi - 0.1, 1.0, 5.0)
    assert "pole t = %r" % math.pi in str(info.value)
    # the first piece, [pi - 0.1, 5*pi/4], raises, as the reference does
    assert len(calls) == 1
    assert calls[0][1:4] == (math.pi - 0.1, 1.25 * math.pi, math.pi)
    _assert_reference_transit(transit, calls[0])


_SLOPE_PAIRS = [
    ("0", "0.2*x^2"),
    ("0", "0.15*x^3"),
    ("0.2*x", "0.1*sin(t + 0.3)^2"),
    ("-0.3*x + 0.5*x^3", "0"),
    ("-0.75*v + 0.8", "0"),          # f depends on v
    ("-0.5*v + 0.2*x", "0.15*x^3"),  # both Newton solves at each node
    ("0.25*sin(t + 0.3)", "0.1*sin(t + 0.3)^2"),  # t-only, explicit
    ("0.3*x*v - 0.2*x", "0.1*x^2"),  # 1 + f_v not a power of 2
]


@pytest.mark.parametrize("f_src,g_src", _SLOPE_PAIRS)
def test_numerator_slope_matches_richardson_difference(f_src, g_src):
    # the transit Jacobian's dN/dy, at the Chebyshev nodes of one pole
    # window, against a Richardson central difference of the numerator;
    # the node's state is the one solved step by step, and its numerator
    # is dg/dt - f evaluated there
    osc = DeformedOscillator(f_src, g_src, 2.0, alpha=0.3)
    pole = (math.pi - 0.3) / 2.0
    ts, _ = cheb_nodes_diff(47, pole - 0.15, pole + 0.15)
    for y in (0.45, -0.7):
        for t in ts.tolist():
            x, v, N, dN = osc.transit_node(0.4, 0.0, t, y)
            assert (x, v) == _reference_state(osc, 0.4, 0.0, t, y), (t, y)
            assert repr(N) == repr(evaluate(osc._numerator, {
                "t": t, "x": x, "v": v})), (t, y)

            def central(h):
                return (osc.transit_node(x, v, t, y + h)[2]
                        - osc.transit_node(x, v, t, y - h)[2]) / (2.0 * h)

            fd = (4.0 * central(5e-4) - central(1e-3)) / 3.0
            assert abs(dN - fd) <= 1e-7 * (1.0 + abs(dN)), (t, y)


@pytest.mark.parametrize("f_src,g_src", _SLOPE_PAIRS)
def test_numerator_slope_is_the_implicit_derivative_bit_for_bit(f_src,
                                                                 g_src):
    # dN/dy of the transit node is the slope tree evaluated in the frame,
    # bit for bit: differentiate's implicit-function rule, compiled with
    # evaluate's operations in evaluate's order.  It also matches implicit
    # differentiation of x + g = y*s and v + f = omega*y*c by hand, in
    # plain floats: dx = s/(1 + g_x), dv = (omega*c - f_x*dx)/(1 + f_v)
    # and dN = N_x*dx + (g_x - f_v)*dv, N_x = g_tx + g_xx*v - f_x, at the
    # node's solved state; within 2e-15 of 1 + the moduli of dN's two
    # terms, where the two orders of operations read at most 1.5e-16
    osc = DeformedOscillator(f_src, g_src, 2.0, alpha=0.3)
    e = osc.exprs
    n_x = sub(add(differentiate(e["g_t"], "x"),
                  mul(differentiate(e["g_x"], "x"), Var("v"))), e["f_x"])
    pole = (math.pi - 0.3) / 2.0
    ts, _ = cheb_nodes_diff(47, pole - 0.15, pole + 0.15)
    for y in (0.45, -0.7):
        for t in ts.tolist():
            x, v, _, dN = osc.transit_node(0.4, 0.0, t, y)
            assert dN.hex() == evaluate(osc._frame_slope, {
                "x": 0.4, "v": 0.0, "t": t, "u": y}).hex(), (t, y)
            state = {"t": t, "x": x, "v": v}
            g_x, f_v, f_x, N_x = (evaluate(tree, state) for tree in (
                e["g_x"], e["f_v"], e["f_x"], n_x))
            s, c = math.sin(osc.theta(t)), math.cos(osc.theta(t))
            dx = s / (1.0 + g_x)
            dv = (osc.omega * c - f_x * dx) / (1.0 + f_v)
            terms = N_x * dx, (g_x - f_v) * dv
            assert abs(dN - sum(terms)) <= 2e-15 * (
                1.0 + abs(terms[0]) + abs(terms[1])), (t, y)


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
    (-0.75, _case6_k3, 8e-10),   # k = 3: 7.9e-11 after the pole
    (-0.5, _case6_k1, 6e-12),    # k = 1: 5.7e-13 after the pole
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
             for s in traj.states if s.t > math.pi + 0.3]
    assert max(after) < bound


def test_a_one_ulp_nudge_barely_moves_the_k3_transit(monkeypatch):
    # the k = 3 pole piece of f = -0.75*v + 0.8 at pi, its input
    # amplitude y_in and the entry solve's guesses x_start and v_start
    # each moved by one ulp: the piece's exit y moves by at most 1.5e-10
    calls = []

    def recorded(*args):
        calls.append(args)
        return transit(*args)

    transit = deform._pole_transit
    monkeypatch.setattr(deform, "_pole_transit", recorded)
    osc = DeformedOscillator("-0.75*v + 0.8", "0", 1.0)
    integrate_first_integral(osc, 0.3, 0.4, 6.0, rtol=1e-13, atol=1e-15)
    args, = [args for args in calls if args[3] is not None]
    assert args[3] == pytest.approx(math.pi)
    exit_y = transit(*args)(args[2])
    for i in (4, 5, 6):          # y_in, x_start, v_start
        for toward in (math.inf, -math.inf):
            nudged = list(args)
            nudged[i] = math.nextafter(nudged[i], toward)
            assert abs(transit(*nudged)(args[2]) - exit_y) <= 1.5e-10, i


@pytest.mark.parametrize("g_src", ["0", "0.1*sin(t + 0.3)^2"])
def test_solve_position_is_closed_form_when_g_is_free_of_x(g_src,
                                                           monkeypatch):
    def refuse(*args):
        raise AssertionError("solve_scalar called")

    # deform's binding of numerics.solve_scalar
    monkeypatch.setattr(deform, "solve_scalar", refuse)
    osc = DeformedOscillator("0.2*x", g_src, 1.0, alpha=0.3)
    for t, y in ((0.5, 0.37), (2.0, -1.25), (2.8, 1e-17)):
        x = y * math.sin(osc.theta(t)) - osc.g(t, 0.0, 0.0)
        assert osc.amplitude_position(0.4, 0.0, t, y) == x
        assert osc.transit_node(0.4, 0.0, t, y)[0] == x
    # f and g free of v: a march through a pole inverts nothing by Newton
    traj = integrate_first_integral(osc, 0.5, 0.4, 4.0)
    assert len(traj.meta["poles_crossed"]) == 1


def test_pole_march_position_solves_per_pole():
    # each transit_node call solves one state: about 172 per pole, two
    # pieces of an entry solve and three or four Newton sweeps of 24 nodes
    # each, and the pole solve (the samples read amplitude_state); a
    # finite-difference transit Jacobian would cost two more per node and
    # Newton iteration
    calls = []
    osc = DeformedOscillator("0", "0.2*x^2", 5.0)
    node = osc.transit_node

    def counted(*args):
        calls.append(None)
        return node(*args)

    osc.transit_node = counted
    traj = integrate_first_integral(osc, 0.3, 0.4, 0.3 + 100 * math.pi / 5.0)
    poles = len(traj.meta["poles_crossed"])
    assert poles == 100
    assert len(calls) <= 180 * poles


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


# Newton families, (f, g, omega, alpha): g reads x, f reads v, or both
_NEWTON_PAIRS = [
    ("0", "0.2*x^2", 5.0, 0.0),
    ("0", "0.1*x^3 + 0.05*sin(t + 0.3)", 1.3, 0.3),
    ("-0.75*v + 0.8", "0", 1.0, 0.0),
    ("-0.5*v + 0.2*x", "0.15*x^3", 2.0, 0.3),
    ("0.3*x*v^2 - 0.2*v", "0.1*x^2", 1.7, 0.2),
]


def _outcome(fn, *args):
    """repr of fn(*args), or the type and message of what it raises."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


def _reference_state(osc, x0, v0, t, y):
    """The state (x, v) of amplitude y at t solved step by step: x + g =
    y*sin(theta) by solve_scalar on the position law from x0 where g
    reads x, v + f = omega*y*cos(theta) on the velocity law from v0 where
    f reads v, and otherwise each its target minus g or f."""
    th = osc.theta(t)
    x, v = y * math.sin(th), osc.omega * y * math.cos(th)
    if osc.g_depends_x:
        x = solve_scalar(osc.position_root.law, x0, 1e-14, t, x)
    else:
        x -= osc.g(t, 0.0, 0.0)
    if osc.f_depends_v:
        v = solve_scalar(osc.velocity_root.law, v0, 1e-14, t, x, v)
    else:
        v -= osc.f(t, x, 0.0)
    return x, v


def _reference_slope(osc, x0, v0, t, y):
    """The march's slope solved step by step: dg/dt - f, evaluated at
    _reference_state, over the sine."""
    x, v = _reference_state(osc, x0, v0, t, y)
    return (evaluate(osc._numerator, {"t": t, "x": x, "v": v})
            / math.sin(osc.theta(t)))


@pytest.mark.parametrize("f_src,g_src,omega,alpha",
                         _EXPLICIT_PAIRS + _NEWTON_PAIRS)
def test_amplitude_slope_is_the_crossing_numerator_over_the_sine(
        f_src, g_src, omega, alpha):
    osc = DeformedOscillator(f_src, g_src, omega, alpha=alpha)
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 200:
        t, y = rng.uniform(-10.0, 10.0), rng.uniform(-3.0, 3.0)
        if abs(math.sin(osc.theta(t))) < 0.05:
            continue
        # where no root exists, the same ImplicitNoRoot from the fallback
        assert (_outcome(osc.amplitude_slope, 0.4, 0.1, t, y)
                == _outcome(_reference_slope, osc, 0.4, 0.1, t, y)), (t, y)
        checked += 1


def _reference_node(osc, x0, v0, t, y):
    """transit_node solved step by step: _reference_state, the numerator
    evaluated there, and the slope tree evaluated in the frame."""
    x, v = _reference_state(osc, x0, v0, t, y)
    return (x, v, evaluate(osc._numerator, {"t": t, "x": x, "v": v}),
            evaluate(osc._frame_slope, {"x": x0, "v": v0, "t": t, "u": y}))


@pytest.mark.parametrize("f_src,g_src,omega,alpha", [
    _EXPLICIT_PAIRS[0], _EXPLICIT_PAIRS[3], _NEWTON_PAIRS[0],
    _NEWTON_PAIRS[2], _NEWTON_PAIRS[3]])
def test_march_is_the_march_on_the_step_by_step_slope(f_src, g_src, omega,
                                                       alpha, monkeypatch):
    # every state and the dense solution between them, with the node
    # function compiled and with the node solved step by step
    def march():
        osc = DeformedOscillator(f_src, g_src, omega, alpha=alpha)
        t0 = (math.pi / 2.0 + 0.2 - alpha) / omega
        traj = integrate_first_integral(
            osc, t0, 0.35, t0 + 3.0 * math.pi / omega,
            t_eval=np.linspace(t0, t0 + 3.0 * math.pi / omega, 61))
        ts = np.linspace(t0, t0 + 3.0 * math.pi / omega, 97).tolist()
        return ([repr(s) for s in traj.states], traj.meta["poles_crossed"],
                [repr(traj.meta["x_of_t"](t)) for t in ts])

    compiled = march()
    # a property wins over the node function cached on the instance
    monkeypatch.setattr(DeformedOscillator, "transit_node", property(
        lambda osc: functools.partial(_reference_node, osc)))
    assert compiled == march()
    assert len(compiled[1]) == 3


@pytest.mark.parametrize("f_src, g_src", [
    ("-0.3*x + 0.5*x^3", "0"), ("0", "0.2*x^2"), ("-0.75*v + 0.8", "0")],
    ids=["explicit", "g-reads-x", "f-reads-v"])
def test_two_marches_of_one_oscillator_generate_the_slope_once(
        f_src, g_src, monkeypatch):
    # the second march, from another (x0, v0), compiles nothing: its
    # slope, node and position functions are the oscillator's
    compiled = []

    def counted(e, names):
        compiled.append(names)
        return function(e, names)

    monkeypatch.setattr(deform, "function", counted)
    osc = DeformedOscillator(f_src, g_src, 1.3, alpha=0.3)
    t0 = (math.pi / 2.0 - 0.3) / 1.3
    marches = []
    for x0, v0 in ((0.4, None), (0.35, 0.2)):
        before = len(compiled)
        traj = integrate_first_integral(osc, t0, x0, t0 + 3.0, v0=v0)
        assert traj.meta["poles_crossed"]
        marches.append(compiled[before:])
    assert ("x", "v", "t", "u") in marches[0]
    assert marches[1] == []


_ROOTS = ("position_root", "velocity_root", "first_integral_root")


def _law_closures(osc):
    """The residual and slope closures each law of osc stands for, in the
    law's arguments: (x, t, u), (v, t, x, u) and (v, t, x)."""
    w = osc.omega
    return {
        "position_root": (
            lambda x, t, u: x + osc.g(t, x, 0.0) - u,
            lambda x, t, u: 1.0 + osc.g_x(t, x, 0.0)),
        "velocity_root": (
            lambda v, t, x, u: v + osc.f(t, x, v) - u,
            lambda v, t, x, u: 1.0 + osc.f_v(t, x, v)),
        "first_integral_root": (
            lambda v, t, x: ((v + osc.f(t, x, v)) * math.sin(osc.theta(t))
                             - w * math.cos(osc.theta(t))
                             * (x + osc.g(t, x, v))),
            lambda v, t, x: ((1.0 + osc.f_v(t, x, v)) * math.sin(osc.theta(t))
                             - w * math.cos(osc.theta(t)) * osc.g_v(t, x, v))),
    }


def test_oscillators_of_one_family_share_their_code_objects():
    # one (f, g) shape at two parameter points: each compiled function is
    # its own closure over its own constants, on one code object per shape
    a, b = (DeformedOscillator("a*x + c*x^3", "0", omega, alpha=alpha,
                               params={"a": p, "c": q})
            for omega, alpha, p, q in ((1.3, 0.3, -0.3, 0.5),
                                       (0.7, 1.1, 0.45, -2.5)))
    pairs = [(a.f, b.f), (a.first_integral_solve, b.first_integral_solve)]
    for name in _ROOTS:
        pairs.append((getattr(a, name).law, getattr(b, name).law))
    for fa, fb in pairs:
        assert fa is not fb and fa.__code__ is fb.__code__
    rng = np.random.default_rng(3)
    t, x, v = (rng.uniform(0.2, 2.0, size=7) for _ in range(3))
    for osc in (a, b):
        for ti, xi, vi in zip(t, x, v):
            ti, xi, vi = float(ti), float(xi), float(vi)
            assert repr(osc.f(ti, xi, vi)) == repr(evaluate(
                osc.exprs["f"], {"t": ti, "x": xi, "v": vi}))
    # the march's views of the amplitude frame, in each family they serve:
    # oscillators that differ in omega and alpha share each view's code
    # object, and x0 and v0 are arguments, so v0 = 0.1 beside g's 0.1
    # splits nothing.  The node function gives the state solved step by
    # step, the numerator evaluated there and the slope tree evaluated in
    # the frame; the slope is its numerator over the sine, and the
    # position its x
    for f_src, g_src in (("a*x + c*x^3", "0"), ("c*x", "a*x^3"),
                         ("a*v + c*x", "0.1*sin(t)"),
                         ("a*v + c*x", "0.1*x^3")):
        a, b = (DeformedOscillator(f_src, g_src, omega, alpha=alpha,
                                   params={"a": p, "c": q})
                for omega, alpha, p, q in ((1.3, 0.3, -0.3, 0.5),
                                           (0.7, 1.1, 0.45, -2.5)))
        for view in ("transit_node", "amplitude_slope", "amplitude_position"):
            fa, fb = getattr(a, view), getattr(b, view)
            assert fa is not fb and fa.__code__ is fb.__code__, view
        for osc in (a, b):
            for x0, v0 in ((0.4, 0.1), (0.35, -0.2)):
                for ti, yi in zip(t.tolist(), x.tolist()):
                    node = osc.transit_node(x0, v0, ti, yi)
                    assert list(map(repr, node)) == list(map(
                        repr, _reference_node(osc, x0, v0, ti, yi)))
                    assert osc.amplitude_position(x0, v0, ti, yi) == node[0]
                    if abs(math.sin(osc.theta(ti))) > 0.05:
                        assert repr(osc.amplitude_slope(x0, v0, ti, yi)) == (
                            repr(_reference_slope(osc, x0, v0, ti, yi)))


@pytest.mark.parametrize("f_src, g_src", [
    ("a*x + c*x^3", "0"),
    ("0", "b*x^2 + 0.1*sin(t)"),
    ("-0.75*v + 0.8 + c*x*v^2", "b*x^3"),
    ("0.2*x", "b*v + 0.1*x*v^2"),
], ids=["explicit", "g-reads-x", "f-reads-v", "g-reads-v"])
def test_each_law_is_the_residual_and_slope_it_replaces(f_src, g_src):
    # one family at two parameter points shares each law's code object,
    # and each law returns, by repr, the floats of the closures that
    # evaluate its residual and its slope on the oscillator's functions
    a, b = (DeformedOscillator(f_src, g_src, omega, alpha=alpha,
                               params={"a": p, "b": p, "c": q})
            for omega, alpha, p, q in ((1.3, 0.3, -0.3, 0.5),
                                       (0.7, 1.1, 0.45, -2.5)))
    # the position law is x + g(t, x) = u, for g free of v
    laws = _ROOTS[a.g_depends_v:]
    points = np.random.default_rng(11).uniform(0.2, 2.0, size=(9, 4))
    for law in laws:
        fa, fb = getattr(a, law).law, getattr(b, law).law
        assert fa is not fb and fa.__code__ is fb.__code__
        for osc, fn in ((a, fa), (b, fb)):
            residual, slope = _law_closures(osc)[law]
            for point in points.tolist():
                args = point[:fn.__code__.co_argcount]
                assert list(map(repr, fn(*args))) == [
                    repr(residual(*args)), repr(slope(*args))], (law, args)


# the variables of each root's solve, the guess first
_SOLVE_NAMES = {"position_root": ("x", "t", "u"),
                "velocity_root": ("v", "t", "x", "u"),
                "first_integral_root": ("v", "t", "x", "u")}


def _compiled_solve(osc, root):
    """The Solve tree root of osc compiled as one function of its
    guess and params, as osc.first_integral_solve is."""
    return function(getattr(osc, root), _SOLVE_NAMES[root])


def _scalar_solve(osc, root, args):
    """solve_scalar on the law of root at the arguments of its compiled
    solve: (x, t, u), (v, t, x, u), and (v, t, x, u) with u the tolerance
    of the first integral's."""
    law = getattr(osc, root).law
    if root == "first_integral_root":
        v, t, x, tol = args
        return _outcome(solve_scalar, law, v, tol, t, x)
    return _outcome(solve_scalar, law, args[0], 1e-14, *args[1:])


@pytest.mark.parametrize("f_src, g_src", [
    ("a*x + c*x^3", "0"),
    ("0", "b*x^2 + 0.1*sin(t)"),
    ("-0.75*v + 0.8 + c*x*v^2", "b*x^3"),
    ("0.2*x", "b*v + 0.1*x*v^2"),
], ids=["explicit", "g-reads-x", "f-reads-v", "g-reads-v"])
def test_each_generated_solve_is_solve_scalar_on_its_law(f_src, g_src):
    # the root, or the error, by repr, at seeded points; some stall and
    # end in the bracket or in ImplicitNoRoot
    osc = DeformedOscillator(f_src, g_src, 1.3, alpha=0.3,
                             params={"a": -0.3, "b": -0.3, "c": 0.5})
    rng = np.random.default_rng(5)
    for root in _ROOTS[osc.g_depends_v:]:
        solve = _compiled_solve(osc, root)
        for point in rng.uniform(-2.0, 2.0, size=(60, 4)).tolist():
            if root == "first_integral_root":
                point[3] = 1e-13 * (1.0 + abs(point[3]))
            args = point[:solve.__code__.co_argcount]
            assert _outcome(solve, *args) == _scalar_solve(osc, root, args)


@pytest.mark.parametrize("g_src, u, guess, stalls, error", [
    # Newton cycles 0, 1, 0, ... for 60 steps: the bracket finds the root
    ("x^3 - 3*x", -2.0, 0.0, True, None),
    # a zero slope at the guess
    ("-x + x^3", 1.0, 0.0, True, None),
    # no root: ImplicitNoRoot from the bracket
    ("x^2", -10.0, 0.0, True, ImplicitNoRoot),
    # the second step leaves the domain of ln: the law's error propagates
    ("ln(x)", -5.0, 2.0, False, EvalDomainError),
    # Newton converges
    ("0.2*x^2", 1.5, 0.4, False, None),
    # a triple root at 0: each step takes x to 2/3 of itself, and the
    # 60th and last step meets the tolerance
    ("x^3 - x", 0.0, 1.5 ** 32, False, None),
])
def test_generated_solve_stalls_where_solve_scalar_does(
        g_src, u, guess, stalls, error, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return solve_scalar(*args)

    # deform's binding of numerics.solve_scalar, read when the root is built
    monkeypatch.setattr(deform, "solve_scalar", counted)
    osc = DeformedOscillator("0", g_src, 1.0)
    got = _outcome(_compiled_solve(osc, "position_root"), guess, 0.5, u)
    assert calls == ([(osc.position_root.law, guess, 1e-14, 0.5, u)]
                     if stalls else [])
    assert got == _scalar_solve(osc, "position_root", (guess, 0.5, u))
    assert (got[0] if isinstance(got, tuple) else None) is error


def test_a_guess_within_the_tolerance_is_the_root():
    # |x + g - u| <= 1e-14*(1 + |x|) at the guess: no Newton step is taken
    osc = DeformedOscillator("-0.75*v + 0.8", "0.2*x^2", 1.0)
    x = 0.4
    u = x + 0.2 * x ** 2 + 1e-15
    assert osc.position_root.law(x, 0.5, u)[0] != 0.0
    assert _compiled_solve(osc, "position_root")(x, 0.5, u) == x == (
        solve_scalar(osc.position_root.law, x, 1e-14, 0.5, u))
    v = -0.3
    target = v + (-0.75 * v + 0.8) - 1e-15
    assert _compiled_solve(osc, "velocity_root")(v, 0.5, x, target) == v


def test_explicit_march_solves_states_only_in_the_transits():
    # the march solves states only in its pieces' collocations: each
    # piece solves one state at its left edge and one at its pole, if it
    # holds one, and its nodes, through transit_node; each sample solves
    # one state through the (x, v) view amplitude_state
    callers = []
    osc = DeformedOscillator("-0.3*x + 0.5*x^3", "0", 1.3, alpha=0.3)

    def count(name):
        fn = getattr(osc, name)

        def counted(*args):
            frame = sys._getframe(1)
            callers.append((name, frame.f_code.co_name, frame.f_lineno))
            return fn(*args)

        setattr(osc, name, counted)

    count("transit_node")
    count("amplitude_state")
    pieces = []
    transit = deform._pole_transit

    def recorded(*args):
        pieces.append(args)
        return transit(*args)

    deform._pole_transit = recorded
    try:
        t0 = (math.pi / 2.0 - 0.3) / 1.3
        traj = integrate_first_integral(osc, t0, 0.4, t0 + 3.0 * math.pi / 1.3,
                                        t_eval=np.linspace(t0, t0 + 7.0, 50))
    finally:
        deform._pole_transit = transit
    assert len(traj.meta["poles_crossed"]) == 3
    # three pole pieces between four pole-free ones: no piece splits
    assert len(pieces) == 7
    assert [args[3] is not None for args in pieces] == [False, True] * 3 + [
        False]
    names = [(name, caller) for name, caller, _ in callers]
    assert set(names) == {("transit_node", "_pole_transit"),
                          ("amplitude_state", "state_at")}
    assert names.count(("amplitude_state", "state_at")) == 50
    # one line of _pole_transit makes each piece's entry solve, one each
    # pole solve, and one map makes the nodes, 24 per Newton iteration
    lines = collections.Counter(
        line for name, caller, line in callers if caller == "_pole_transit")
    (_, nodes), (_, entries), (_, at_poles) = lines.most_common()
    assert (entries, at_poles) == (7, 3)
    assert nodes % 24 == 0


@pytest.mark.parametrize("f_src,g_src", _SLOPE_PAIRS)
def test_a_sampled_state_is_the_transit_nodes_bit_for_bit(f_src, g_src):
    # every sample of a march reads amplitude_state, whose (x, v) are the
    # first two values of transit_node at the same arguments, bit for bit
    osc = DeformedOscillator(f_src, g_src, 1.0, alpha=0.3)
    view, seen = osc.amplitude_state, []

    def checked(*args):
        got = view(*args)
        want = osc.transit_node(*args)[:2]
        assert [c.hex() for c in got] == [c.hex() for c in want], args
        seen.append(args)
        return got

    osc.amplitude_state = checked
    t0 = math.pi / 2.0 - 0.3
    traj = integrate_first_integral(osc, t0, 0.4, t0 + 2.0 * math.pi,
                                    t_eval=np.linspace(t0, t0 + 6.2, 61))
    assert len(traj.meta["poles_crossed"]) == 2
    assert len(seen) == len(traj.states) == 61


def _chebyshev_tail(Y):
    """The last two Chebyshev coefficients' magnitudes, summed, over the
    largest, of the series through Y at the extreme points cos(pi*j/n):
    a_k = (2/n) * sum of Y_j*cos(pi*j*k/n), halved at j = 0, n and at
    k = 0, n, each coefficient summed on its own."""
    n = len(Y) - 1
    half = [0.5 if j in (0, n) else 1.0 for j in range(n + 1)]
    a = [abs(half[k] * 2.0 / n * sum(half[j] * Y[j]
                                     * math.cos(math.pi * j * k / n)
                                     for j in range(n + 1)))
         for k in range(n + 1)]
    return (a[-2] + a[-1]) / max(a)


def _barycentric(ts, Y):
    """The barycentric interpolant through values Y at the Chebyshev
    extreme points ts, with the closed-form weights (-1)^j, halved at both
    ends, and the node values returned at the nodes: an evaluator
    independent of the Chebyshev series."""
    m = len(ts)
    wts = (-1.0) ** np.arange(m)
    wts[0] *= 0.5
    wts[m - 1] *= 0.5

    def ev(tq):
        d = tq - ts
        hit = np.nonzero(d == 0.0)[0]
        if hit.size:
            return float(Y[hit[0]])
        q = wts / d
        return float((q @ Y) / q.sum())

    return ev


def _pole_transit_loop(osc, a, b, pole, y_in, x_start, v_start):
    """The reference for deform._pole_transit on its node count: its
    Newton loop and its smoothness test as they were written before the
    loop's invariants were hoisted, every matrix rebuilt per iteration and
    a converged affine crossing confirmed by one more sweep, whose N the
    smoothness test reads, with y read from numerics.cheb_series through
    the solved values.  Returns that series, its nodes, the solved values,
    the number of linear solves and the Chebyshev tail of the solved y, or
    raises NonSmoothPoint where the numerator does not vanish at the pole,
    whether or not the series chops."""
    for bump in range(4):
        ts, D = cheb_nodes_diff(23 + bump, a, b)
        nodes = ts.tolist()
        svec = np.array([math.sin(osc.theta(t)) for t in nodes])
        if np.min(np.abs(svec[1:])) > 1e-8:
            break
    m = len(ts)
    x0, v0 = osc.transit_node(x_start, v_start, ts[0], y_in)[:2]
    xs, vs = [x0] * m, [v0] * m
    Y = np.full(m, float(y_in))
    scale = 1.0 + abs(y_in)
    solves = 0
    for _ in range(30):
        xs, vs, N, dN = zip(*map(osc.transit_node, xs, vs, nodes,
                                 Y.tolist()))
        N, dN = np.array(N), np.array(dN)
        if osc.affine_crossing and solves:
            break
        F = svec * (D @ Y) - N
        F[0] = Y[0] - y_in
        assert np.all(np.isfinite(F)) and np.all(np.isfinite(dN))
        J = svec[:, None] * D - np.diag(dN)
        J[0, :] = 0.0
        J[0, 0] = 1.0
        r = np.max(np.abs(J), axis=1)
        r[r == 0.0] = 1.0
        step = np.linalg.solve(J / r[:, None], F / r)
        solves += 1
        Y -= step
        if (not osc.affine_crossing
                and (np.max(np.abs(F / r)) <= 1e-12 * scale
                     or np.max(np.abs(step))
                     <= 1e-14 * (1.0 + np.max(np.abs(Y))))):
            break
    ev = cheb_series(Y, a, b)[0]
    tail = _chebyshev_tail(Y.tolist())
    if pole is not None:
        k = int(np.argmin(np.abs(ts - pole)))
        num_p = osc.transit_node(xs[k], vs[k], pole, ev(pole))[2]
        if abs(num_p) > 1e-6 * (1.0 + float(np.max(np.abs(N)))):
            raise NonSmoothPoint("N = %r at the pole t = %r" % (num_p, pole))
    return ev, ts, Y, solves, tail


# (f, g, omega, alpha, x0, poles)
_TRANSIT_FRAMES = {
    # affine: N = g_t is free of y, and one solve is exact
    "affine sin(theta)^2": ("0", "0.15*sin(1.3*t + 0.3)^2", 1.3, 0.3,
                            0.4, 3),
    "f=-0.3x+0.5x^3": ("-0.3*x + 0.5*x^3", "0", 1.3, 0.3, 0.4, 3),
    "g=0.2x^2": ("0", "0.2*x^2", 1.3, 0.3, 0.4, 3),
    # k = 3: the re-expanding mode (t - pi)^3; f reads v, affinely, so
    # N is affine in y and one solve is exact
    "affine k=3": ("-0.75*v + 0.8", "0", 1.0, 0.0, 0.4, 1),
    # pieces a quarter period, 7.85, wide, whose pole piece's 24-node
    # series does not chop, so that it splits
    "omega=0.2": ("-0.3*x + 0.5*x^3", "0", 0.2, 0.3, 0.4, 1),
}


def _frame_calls(name, monkeypatch):
    """The arguments of every _pole_transit call of the frame's march, and
    _pole_transit itself."""
    f_src, g_src, w, al, x0, poles = _TRANSIT_FRAMES[name]
    osc = DeformedOscillator(f_src, g_src, w, alpha=al)
    calls = []

    def recorded(*args):
        calls.append(args)
        return transit(*args)

    transit = deform._pole_transit
    monkeypatch.setattr(deform, "_pole_transit", recorded)
    t0 = 0.3 if name == "affine k=3" else (math.pi / 2.0 - al) / w
    traj = integrate_first_integral(osc, t0, x0,
                                    t0 + poles * math.pi / w + 0.5)
    assert len(traj.meta["poles_crossed"]) == poles
    assert osc.affine_crossing is name.startswith("affine")
    return calls, transit


@pytest.mark.parametrize("name", sorted(_TRANSIT_FRAMES))
def test_pole_transit_is_the_reference_loop_bit_for_bit(name, monkeypatch):
    # every piece of a march, called with the arguments the march gives
    # it, against the reference loop: the same bits of y at every node, at
    # the piece's exit, at its pole and between the nodes (so the same
    # solved values), and for an affine crossing one solve; or None where
    # the reference's series does not chop
    calls, transit = _frame_calls(name, monkeypatch)
    assert len(calls) >= 2 * _TRANSIT_FRAMES[name][5] + 1
    assert (sum(transit(*args) is None for args in calls) > 0) is (
        name == "omega=0.2")
    for args in calls:
        _assert_reference_transit(transit, args)


def _assert_reference_transit(transit, args):
    """transit(*args) raises NonSmoothPoint where the reference loop does,
    returns None where the reference's series does not chop (its tail is
    above 1e-12), and otherwise has the same bits of y at every node, at
    the piece's exit, at its pole and between the nodes; an affine
    crossing takes one solve."""
    try:
        want, ts, _, solves, tail = _pole_transit_loop(*args)
    except NonSmoothPoint:
        with pytest.raises(NonSmoothPoint):
            transit(*args)
        return
    got = transit(*args)
    if tail > 1e-12:
        assert got is None, (args, tail)
        return
    nodes = ts.tolist()
    between = [0.5 * (p + q) for p, q in zip(nodes, nodes[1:])]
    pole = [] if args[3] is None else [args[3]]
    for t in nodes + [args[2]] + pole + between:
        assert got(t).hex() == want(t).hex(), (args, t)
    # the pinned left edge is y_in itself
    assert got(args[1]) == args[4]
    if args[0].affine_crossing:
        assert solves == 1


@pytest.mark.parametrize("name", sorted(_TRANSIT_FRAMES))
def test_pole_transit_series_is_the_barycentric_interpolant(name,
                                                           monkeypatch):
    # the series every kept piece of a march returns, against the
    # barycentric interpolant through the reference loop's solved values:
    # at every node, at the piece's exit, at its pole and between the
    # nodes, within 6e-15*(1 + |y|)
    calls, transit = _frame_calls(name, monkeypatch)
    for args in calls:
        got = transit(*args)
        if got is None:
            continue
        _, ts, Y, _, _ = _pole_transit_loop(*args)
        want = _barycentric(ts, Y)
        nodes = ts.tolist()
        between = [0.5 * (p + q) for p, q in zip(nodes, nodes[1:])]
        pole = [] if args[3] is None else [args[3]]
        for t in nodes + [args[2]] + pole + between:
            y = want(t)
            assert abs(got(t) - y) <= 6e-15 * (1.0 + abs(y)), (args, t)


@pytest.mark.parametrize("f_src,t0,smooth", [
    ("0.3*x", 0.0, True), ("0.3*x", 2e-8, True),
    ("0.3*x + 0.05", 0.0, False), ("0.3*x + 0.05", 2e-8, False)])
def test_a_start_pole_transit_is_the_reference_loop(f_src, t0, smooth,
                                                    monkeypatch):
    # affine crossings whose first piece starts on the pole t = 0 or 2e-8
    # past it: the smoothness test reads N at the solved amplitude, as the
    # reference does, so N = 0.05 at the pole raises NonSmoothPoint in
    # both
    osc = DeformedOscillator(f_src, "0", 1.0)
    assert osc.affine_crossing
    calls = []

    def recorded(*args):
        calls.append(args)
        return transit(*args)

    transit = deform._pole_transit
    monkeypatch.setattr(deform, "_pole_transit", recorded)
    if smooth:
        integrate_first_integral(osc, t0, 0.0, 1.0, v0=1.0)
    else:
        with pytest.raises(NonSmoothPoint):
            integrate_first_integral(osc, t0, 0.0, 1.0, v0=1.0)
    # the march over [t0, 1] is one piece, which holds the pole at its
    # left edge, and where the crossing is not smooth its smoothness test
    # fails
    assert calls[0][1:4] == (t0, 1.0, 0.0)
    assert len(calls) == 1
    for args in calls:
        _assert_reference_transit(transit, args)


def test_a_piece_that_does_not_chop_splits_into_halves_that_do(
        monkeypatch):
    # omega = 0.2: the pole piece's 24-node series does not chop; it
    # splits into a quarter and the rest, its pole at the centre being no
    # split point, and a pole-free piece that does not chop into halves;
    # every piece the march keeps chops, and the pieces tile the span
    calls, transit = _frame_calls("omega=0.2", monkeypatch)
    kept, split = [], 0
    for args in calls:
        got = transit(*args)
        a, b, pole = args[1:4]
        if got is None:
            split += 1
            assert _pole_transit_loop(*args)[4] > 1e-12, args
            # the next call is its left part, whose right edge is the
            # split, at the midpoint or, where that is the pole, a quarter
            left = calls[calls.index(args) + 1]
            assert left[1] == a
            mid = left[2]
            if pole is not None and abs(pole - 0.5 * (a + b)) < 0.125 * (
                    b - a):
                assert mid in (0.5 * (a + b) - 0.25 * (b - a),
                               0.5 * (a + b) + 0.25 * (b - a))
                assert abs(mid - pole) >= 0.125 * (b - a)
            else:
                assert mid == 0.5 * (a + b)
        else:
            assert _pole_transit_loop(*args)[4] <= 1e-12, args
            kept.append((a, b))
    assert split >= 1
    assert all(p[1] == q[0] for p, q in zip(kept, kept[1:]))


def _bernoulli(a, c, w, al, t0, x0):
    """The exact solution of f = a*x + c*x^3, g = 0 through (t0, x0):
    x' = omega*cot(theta)*x - a*x - c*x^3 is linear in x^-2, so
    x = sign*sin(theta)*exp(-a*t)/sqrt(K + 2c*I(t)) with I the integral of
    sin(theta)^2*exp(-2as) from t0, taken by mpmath at 30 digits between
    consecutive queries, which must increase."""
    mpmath = pytest.importorskip("mpmath")
    ctx = mpmath.mp.clone()
    ctx.dps = 30
    s0 = math.sin(w * t0 + al)
    K = s0 * s0 * math.exp(-2.0 * a * t0) / (x0 * x0)
    sign = math.copysign(1.0, x0 / s0)
    last = [t0, ctx.mpf(0)]

    def exact(t):
        last[1] += ctx.quad(lambda s: ctx.sin(w * s + al) ** 2
                            * ctx.exp(-2 * a * s), [last[0], t])
        last[0] = t
        return float(sign * ctx.sin(w * t + al) * ctx.exp(-a * t)
                     / ctx.sqrt(K + 2 * c * last[1]))

    return exact


def _exact_kinds():
    """(f, g, omega, alpha, t0, x0, t1, exact x(t)) of every explicit
    pole-march kind, over 3 poles, and of f = -0.3x + 0.5x^3 at omega =
    0.2 over [0.5, 20]."""
    w, al = 1.3, 0.3
    t0 = (math.pi / 2.0 + 0.2 - al) / w
    t1 = t0 + 3.3 * math.pi / w
    th = "sin(1.3*t + 0.3)"
    kinds = {}
    for b, n in ((0.2, 2), (0.15, 3)):
        sol = catalog.case5_power(b, n, 0.35, w, al)
        kinds["g=b*x^%d" % n] = ("0", "%r*x^%d" % (b, n), w, al, t0,
                                 sol(t0), t1, sol)
    for name, f_src, g_src in (("f=f0*sin", "0.3*" + th, "0"),
                               ("g=g0*sin^2", "0", "0.15*%s^2" % th),
                               ("both", "0.3*" + th, "0.15*%s^2" % th)):
        sol = catalog.time_quadrature(f_src, g_src, 0.9, w, al)
        kinds["sin(theta)^k " + name] = (f_src, g_src, w, al, t0, sol(t0),
                                         t1, sol)
    a, phi, w2, al2, x0 = 0.1, 0.4, 1.7, 0.2, 0.4
    s0 = (math.pi / 2.0 + 0.2 - al2) / w2
    C = x0 / (math.sin(w2 * s0 + al2) * math.exp(a * math.cos(s0 + phi)))
    kinds["f=a*x*sin(t+phi)"] = (
        "%r*x*sin(t + %r)" % (a, phi), "0", w2, al2, s0, x0,
        s0 + 3.3 * math.pi / w2,
        lambda t: C * math.sin(w2 * t + al2) * math.exp(a * math.cos(t + phi)))
    # g = x with f = 0.3*x: x' = (2*omega*cot(theta) - 0.3)*x, one solve
    # per piece, as x + g and N are affine in the amplitude
    A = 0.4 / (math.sin(w * t0 + al) ** 2 * math.exp(-0.3 * t0))
    kinds["f=0.3x, g=x"] = (
        "0.3*x", "x", w, al, t0, 0.4, t1,
        lambda t: A * math.sin(w * t + al) ** 2 * math.exp(-0.3 * t))
    kinds["f=a*x+c*x^3"] = ("-0.3*x + 0.5*x^3", "0", w, al, t0, 0.4, t1,
                            lambda t: None)
    kinds["f=a*x+c*x^3, omega=0.2"] = ("-0.3*x + 0.5*x^3", "0", 0.2, 0.0,
                                       0.5, 0.4, 20.0, lambda t: None)
    return kinds


_EXACT_KINDS = _exact_kinds()


@pytest.mark.parametrize("name", sorted(_EXACT_KINDS))
def test_every_explicit_pole_march_kind_is_its_exact_solution(name):
    # at rtol 1e-12, over 3 poles (1 at omega = 0.2), x within
    # 1e-12*(1 + |x|) of the kind's exact solution at 41 samples; the
    # march between poles by DOP853 read 1.2e-11 on omega = 0.2
    f_src, g_src, w, al, t0, x0, t1, exact = _EXACT_KINDS[name]
    if f_src == "-0.3*x + 0.5*x^3":
        exact = _bernoulli(-0.3, 0.5, w, al, t0, x0)
    osc = DeformedOscillator(f_src, g_src, w, alpha=al)
    traj = integrate_first_integral(osc, t0, x0, t1,
                                    t_eval=np.linspace(t0, t1, 41),
                                    rtol=1e-12, atol=1e-14)
    assert len(traj.meta["poles_crossed"]) == (1 if w == 0.2 else 3)
    worst = max(abs(s.x - exact(s.t)) / (1.0 + abs(s.x))
                for s in traj.states)
    assert worst <= 1e-12, worst


def _tree_bits(tree):
    """The printed tree, and each node's type, or the bits of a constant."""
    return to_str(tree), [float(n.value).hex() if isinstance(n, Num)
                          else type(n).__name__ for n in _walk(tree)]


def test_time_varying_reduces_to_constant_omega():
    # one template: a constant omega(t) builds generate_ode's trees, node
    # for node and bit for bit
    for f, g in verify.THEOREM_PAIRS:
        form_tv = generate_ode_time_varying(f, g, "2")
        form = generate_ode(DeformedOscillator(f, g, 2.0))
        for name, tree in form.exprs.items():
            assert (_tree_bits(form_tv.exprs[name])
                    == _tree_bits(tree)), (f, g, name)


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


def test_time_varying_residual_with_x_dependent_deformations():
    # f and g read x under omega(t) = 1 + t/10
    form = generate_ode_time_varying("0.2*x + 0.1*sin(t)", "0.1*x^2",
                                     "1 + t/10")

    def slope(t, x):
        # xd = omega(t)*cot(Phi(t) + alpha)*(x + g) - f with
        # Phi(t) = t + t^2/20 and alpha = 0.2
        th = t + t * t / 20.0 + 0.2
        return ((1.0 + t / 10.0) * math.cos(th) / math.sin(th)
                * (x + 0.1 * x * x) - 0.2 * x - 0.1 * math.sin(t))

    x_of_t, = integrate(slope, 0.1, 0.7, 2.4, rtol=1e-12, atol=1e-14)
    worst = residual_scan(form, x_of_t, np.linspace(0.2, 2.3, 50))
    assert worst < 1e-7


def test_theorem_suite_kills_a_wrong_generated_form(monkeypatch):
    """The pointwise theorem suite reads every clean check ten times below
    its threshold.  A generated form off by about 1e-7 fails exactly the
    checks it touches, and the others keep their clean values: omega^2
    off (every pair), the remainder's f_t off (the pairs whose f reads t)
    and omega(t) off (its one check)."""
    clean = {c.name: c.value for c in verify.suite_theorem()}
    assert len(clean) == 11
    assert all(10.0 * value <= 1e-13 for value in clean.values())

    def failing():
        checks = verify.suite_theorem()
        for c in checks:
            assert c.passed or c.value > 1e-9, c
            if c.passed:
                assert c.value == clean[c.name], c
        return {c.name for c in checks if not c.passed}

    def name(f, g):
        return "theorem/f=%s,g=%s" % (f, g)

    monkeypatch.setattr(verify, "generate_ode", lambda osc: deform._lienard(
        osc.exprs, Num(osc.omega * math.sqrt(1.0 + 1e-7))))
    assert failing() == {name(f, g) for f, g in verify.THEOREM_PAIRS}

    monkeypatch.setattr(verify, "generate_ode", lambda osc: deform._lienard(
        dict(osc.exprs, f_t=mul(Num(1.0 + 1e-7), osc.exprs["f_t"])),
        Num(osc.omega)))
    reads_t = {name(f, g) for f, g in verify.THEOREM_PAIRS if "t" in f}
    assert len(reads_t) == 3
    assert failing() == reads_t

    monkeypatch.undo()
    monkeypatch.setattr(
        verify, "generate_ode_time_varying",
        lambda f, g, w: generate_ode_time_varying(f, g, "(%s)*(1 + 5e-8)" % w))
    assert failing() == {"theorem/omega(t)=1 + t/10"}


def test_time_varying_validation():
    # f and g may read t, x and v, omega only t
    with pytest.raises(UnboundNameError):
        generate_ode_time_varying("x*u", "0", "1")
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
