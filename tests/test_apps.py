"""Tests for the reaction-convection-diffusion and beam applications."""

import math

import numpy as np
import pytest

from oscdeform import apps, catalog, verify
from oscdeform.deform import explicit_acceleration, generate_ode_time_varying
from oscdeform.errors import (
    ApproxOutOfRegime,
    BracketZero,
    DomainViolation,
    NegativeAlpha,
    StepSizeUnderflow,
    UnboundNameError,
)
from oscdeform.exprdsl import differentiate, evaluate, function, parse
from oscdeform.numerics import find_root


def test_rcd_trivial_pair():
    """f = 0, g = 0 gives constant diffusion and a linear source."""
    sys = apps.rcd_from_fg("0", "0", omega=2.0, Vf=0.7, D0=1.5)
    for u in (0.3, 1.0, 2.4):
        assert abs(sys.D(u) - 1.5) < 1e-12
        assert abs(sys.B(u) + 0.7) < 1e-12
        assert abs(sys.Q(u) - 1.5 * 4.0 * u) < 1e-12


def test_rcd_power_family_matches_quadrature():
    """The closed-form coefficient triple for g = (beta-1)u,
    f = -gamma*u + delta*u^2 agrees with the generic exp-integral
    construction."""
    sysn = apps.rcd_from_fg("-0.5*u + u^2", "u", omega=1.0, Vf=0.3)
    sysc = apps.rcd_power_family(2.0, 0.5, 1.0, omega=1.0, Vf=0.3)
    for u in np.linspace(0.2, 3.0, 29):
        assert abs(sysn.D(u) - sysc.D(u)) < 1e-9
        assert abs(sysn.B(u) - sysc.B(u)) < 1e-9
        assert abs(sysn.Q(u) - sysc.Q(u)) < 1e-9


def test_rcd_coefficient_example_beta1():
    # beta=1, gamma=0, delta=1: D = 1, B = 3u - Vf, Q = u + u^3
    # (Q follows from gamma(u) = omega^2 u + f^2/u with f = u^2)
    sys = apps.rcd_from_fg("u^2", "0", omega=1.0, Vf=0.25)
    closed = apps.rcd_power_family(1.0, 0.0, 1.0, omega=1.0, Vf=0.25)
    for u in (0.5, 1.0, 2.0):
        assert abs(sys.D(u) - 1.0) < 1e-12
        assert abs(sys.B(u) - (3.0 * u - 0.25)) < 1e-12
        assert abs(sys.Q(u) - (u + u ** 3)) < 1e-12
        assert abs(closed.Q(u) - (u + u ** 3)) < 1e-12


def test_rcd_inverse_consistency():
    """A system built from bare D, B, Q callables recovers the same
    phase-plane coefficients alpha = (ln D)', beta = (Vf+B)/D, gamma = Q/D."""
    full = apps.rcd_power_family(2.0, 0.3, 0.6, omega=1.0, Vf=0.2)
    bare = apps.RcdSystem(full.D, full.B, full.Q, Vf=full.Vf, D0=full.D0)
    rng = np.random.default_rng(20240825)
    for u in 0.2 + 2.5 * rng.random(100):
        assert abs(bare.alpha(u) - full.alpha(u)) < 1e-9
        assert abs(bare.beta(u) - full.beta(u)) < 1e-9
        assert abs(bare.gamma(u) - full.gamma(u)) < 1e-9


def test_rcd_input_validation():
    with pytest.raises(ValueError):
        apps.RcdSystem(lambda u: 1.0, lambda u: 0.0, lambda u: u, Vf=-1.0)
    with pytest.raises(ValueError):
        apps.RcdSystem(lambda u: 1.0, lambda u: 0.0, lambda u: u, D0=0.0)
    with pytest.raises(UnboundNameError):
        apps.rcd_from_fg("x^2", "0", omega=1.0)
    sys = apps.rcd_from_fg("u^2", "0", omega=1.0)
    with pytest.raises(DomainViolation):
        sys.alpha(0.0)


@pytest.mark.parametrize("f, g", [
    ("-0.3*{0} + 0.6*{0}^2", "{0}"),
    ("0.2*sin({0})", "0.3*sin({0})"),
    ("-0.5*{0} + {0}^2", "0.4*{0}^3"),
    ("0.1*exp({0})", "0.2*cos({0}) - 0.2"),
    ("0.3*cos({0})", "0.1*{0}^3 - 0.2*{0} + 0.1*asinh({0})"),
])
def test_rcd_from_fg_is_the_lienard_form_over_u_plus_g(f, g):
    # (u + g)*(u'' + alpha u'^2 + beta u' + gamma) is the generalized
    # Lienard form of (f, g) with x = u, at any (u, u', u'')
    sys = apps.rcd_from_fg(f.format("u"), g.format("u"), 1.3)
    form = generate_ode_time_varying(f.format("x"), g.format("x"), 1.3)
    upg = function(parse("u + " + g.format("u")), ("u",))
    rng = np.random.default_rng(20240825)
    for u, up, upp in rng.uniform(-2.0, 2.0, (50, 3)).tolist():
        u = 0.2 + abs(u)
        want = form.residual(0.0, u, up, upp)
        scale = (abs(form.coeff_xdd(0.0, u, up) * upp)
                 + abs(form.coeff_xd(0.0, u, up) * up)
                 + abs(form.remainder(0.0, u, up)))
        got = sys.residual(0.0, u, up, upp) * upg(u)
        assert abs(got - want) <= 1e-14 * scale


def test_rcd_d_refuses_a_path_through_a_zero_of_u_plus_g():
    # alpha = 1/u: the integral of alpha from u = 1 diverges at 0, where D
    # read 0.2499... at u = -1e-3 and 0.9999... at u = -1
    sys = apps.rcd_from_fg("0", "-0.5*u", 1.0)
    assert abs(sys.D(0.5) - 0.5) < 1e-14
    assert sys.alpha(-1.0) == -1.0
    for coefficient in (sys.D, sys.B, sys.Q):
        for u in (-1e-3, -1.0, 0.0):
            with pytest.raises(DomainViolation):
                coefficient(u)
    # u + g = (u - 0.4)(u - 0.6) is positive at 1 and at 0.2, negative
    # between 0.4 and 0.6: the quadrature nodes on the way see the sign
    sys = apps.rcd_from_fg("0", "u^2 - 2*u + 0.24", 1.0)
    assert math.isfinite(sys.D(0.7)) and math.isfinite(sys.alpha(0.2))
    with pytest.raises(DomainViolation, match="changes sign"):
        sys.D(0.2)


@pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
def test_rcd_from_fg_refuses_a_non_finite_u_by_name(u):
    # D(nan) read "u + g vanishes or changes sign", D(inf) named t
    sys = apps.rcd_from_fg("0", "-0.5*u", 1.0)
    for coefficient in (sys.D, sys.B, sys.Q):
        with pytest.raises(ValueError,
                           match="^u must be finite, got %r$" % u):
            coefficient(u)


@pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("beta", [1.0, 1.5])
def test_travelling_wave_refuses_a_non_finite_xi_by_name(beta, xi):
    # power_law's evaluators name their argument t
    wave = apps.rcd_travelling_wave({"beta": beta, "gamma": 0.1,
                                     "delta": 0.2, "A": 5.0,
                                     "omega": 1.0, "alpha": 0.0})
    with pytest.raises(ValueError, match="^t must be finite, got %r$" % xi):
        wave(xi)


@pytest.mark.parametrize("name, value", [
    ("Vf", math.nan), ("Vf", math.inf), ("Vf", -math.inf),
    ("D0", math.nan), ("D0", math.inf),
])
def test_rcd_factories_refuse_a_non_finite_vf_or_d0(name, value):
    # NaN passed both the Vf < 0 and the D0 <= 0 test, and every
    # coefficient then read NaN (and Vf = inf gave B = -inf)
    factories = (
        lambda **kw: apps.rcd_power_family(1.0, 0.5, 1.0, **kw),
        lambda **kw: apps.rcd_from_fg("-0.3*u + 0.6*u^2", "u", 1.0, **kw))
    for factory in factories:
        with pytest.raises(ValueError, match="^%s must be finite" % name):
            factory(**{name: value})


def test_travelling_wave_trivial():
    wave = apps.rcd_travelling_wave({"beta": 1, "gamma": 0, "delta": 0,
                                     "A": 2.0, "omega": 1.0, "alpha": 0.3})
    for xi in np.linspace(0.1, 2.0, 21):
        assert abs(wave(xi) - math.sin(xi + 0.3) / 2.0) < 1e-14


def test_travelling_wave_closed_matches_quadrature():
    """For beta = 1 the bracket integral has an elementary antiderivative;
    it must agree with the generic quadrature path."""
    p = {"beta": 1, "gamma": 0.5, "delta": 1.0, "A": 3.0,
         "omega": 1.0, "alpha": 0.0}
    closed = apps.rcd_travelling_wave(p)
    quad = apps.rcd_travelling_wave(p, force_quadrature=True)
    for xi in np.linspace(0.1, 2.0, 40):
        assert abs(closed(xi) - quad(xi)) < 1e-9


@pytest.mark.parametrize("beta", [1.0, 2.0, 1.5])
def test_travelling_wave_is_case3_at_n2(beta):
    """The wave is the case-3 solution at n = 2, bit for bit."""
    wave = apps.rcd_travelling_wave({"beta": beta, "gamma": 0.3,
                                     "delta": 0.6, "A": 4.0,
                                     "omega": 1.0, "alpha": 0.0})
    sol = catalog.case3(beta, 0.3, 0.6, 2, 4.0, 1.0, 0.0)
    for xi in np.linspace(0.1, 2.0, 40):
        assert wave(xi) == sol(float(xi))


def test_travelling_wave_satisfies_phase_plane_equation():
    xi = np.linspace(0.1, 2.0, 25)
    p1 = {"beta": 1, "gamma": 0.5, "delta": 1.0, "A": 3.0,
          "omega": 1.0, "alpha": 0.0}
    sys1 = apps.rcd_power_family(1.0, 0.5, 1.0, omega=1.0)
    assert apps.rcd_residual(sys1, apps.rcd_travelling_wave(p1), xi) < 1e-6
    p2 = {"beta": 2.0, "gamma": 0.3, "delta": 0.6, "A": 4.0,
          "omega": 1.0, "alpha": 0.0}
    sys2 = apps.rcd_power_family(2.0, 0.3, 0.6, omega=1.0)
    assert apps.rcd_residual(sys2, apps.rcd_travelling_wave(p2), xi) < 1e-6


def test_travelling_wave_bracket_zero():
    # bracket A + delta*int = 0.3 - cos(xi), 0.3 at xi_ref = pi/2, vanishes
    # at acos(0.3) and 2*pi - acos(0.3); it is -0.7 at the pole 2*pi
    params = {"beta": 1, "gamma": 0.0, "delta": 1.0, "A": 0.3,
              "omega": 1.0, "alpha": 0.0}
    past_zero = [math.acos(0.3), 0.5, 5.5,
                 2.0 * math.pi + 2.0]       # B > 0 again, but the pole not
    for order in (past_zero, past_zero[::-1]):
        wave = apps.rcd_travelling_wave(params)
        for xi in order:
            with pytest.raises(BracketZero):
                wave(xi)
            # between the zeros: both sides of xi_ref, and past the pole pi
            assert all(math.isfinite(wave(x)) for x in (1.4, 2.0, 4.0))


def test_travelling_wave_fractional_beta_domain():
    wave = apps.rcd_travelling_wave({"beta": 1.5, "gamma": 0.1, "delta": 0.2,
                                     "A": 5.0, "omega": 1.0, "alpha": 0.0})
    assert math.isfinite(wave(1.0))
    with pytest.raises(DomainViolation):
        wave(3.5)  # sin < 0 there


def test_rcd_equilibrium_profile():
    """A constant profile at a root of Q leaves only |gamma(u*)|."""
    sys = apps.rcd_power_family(1.0, 0.4, 0.8, omega=1.0)
    assert sys.gamma(0.0) == 0.0
    xi = np.linspace(0.1, 2.0, 11)
    assert apps.rcd_residual(sys, lambda x: 0.0, xi) == 0.0


def test_rcd_residual_is_the_system_residual_scanned():
    sys = apps.rcd_power_family(2.0, 0.3, 0.6, omega=1.0)
    u, up, upp = 1.2, -0.4, 0.7
    assert sys.residual(0.0, u, up, upp) == (
        upp + sys.alpha(u) * up * up + sys.beta(u) * up + sys.gamma(u))
    # a NaN sample fails the scan instead of being skipped
    with pytest.warns(UserWarning):
        bad = apps.rcd_residual(sys, lambda x: math.nan if x > 1.0 else x,
                                np.linspace(0.5, 1.5, 11))
    assert bad == math.inf


def test_rcd_wrong_profile_fails():
    sys = apps.rcd_power_family(1.0, 0.4, 0.8, omega=1.0)
    bad = apps.rcd_residual(sys, lambda x: x, np.linspace(0.5, 1.5, 11))
    assert bad > 1e-2


def test_beam_g_defining_identity():
    """g solves alpha*u/(1+alpha*u^2) = -g'/(u+g), the condition for the
    deformation to reproduce the beam's velocity-squared coefficient."""
    model = apps.BeamModel(3.0, 2.0, omega=1.0, c1=0.4)
    ge = apps.beam_g_expr(model)
    gp = differentiate(ge, "u")
    a = model.alpha_coef
    rng = np.random.default_rng(42)
    for u in 0.5 * rng.random(100):
        u = float(u)
        g = evaluate(ge, {"u": u})
        lhs = a * u / (1.0 + a * u * u)
        rhs = -evaluate(gp, {"u": u}) / (u + g)
        assert abs(lhs - rhs) < 1e-9


def test_beam_g_at_origin():
    assert apps.beam_g(apps.BeamModel(3.0, 2.0, c1=0.0))(0.0) == 0.0
    assert abs(apps.beam_g(apps.BeamModel(4.0, 0.0, c1=0.7))(0.0) - 0.7) < 1e-14


def test_beam_g_negative_alpha():
    with pytest.raises(NegativeAlpha):
        apps.beam_g(apps.BeamModel(-2.0, 0.0))
    with pytest.raises(NegativeAlpha):
        apps.beam_g(apps.BeamModel(0.0, 0.0))


def test_beam_series_against_sampled_taylor():
    """Leading series g = -alpha u^3/3 + 4 alpha^2 u^5/15 + O(u^7), checked
    against Richardson-extrapolated odd-part sampling at u = 0.01."""
    a = 3.0
    g = apps.beam_g(apps.BeamModel(a, 2.0, c1=0.0))
    series = lambda u: -a * u ** 3 / 3.0 + (4.0 / 15.0) * a * a * u ** 5
    assert abs(g(0.01) - series(0.01)) < 1e-10

    def cubic_coeff(h):
        return (g(h) - g(-h)) / (2.0 * h ** 3)

    rich = (4.0 * cubic_coeff(0.005) - cubic_coeff(0.01)) / 3.0
    assert abs(rich - (-a / 3.0)) < 1e-6


def test_beam_series_tables():
    # g: [c1, 0, -a c1/2, -a/3, 3a^2 c1/8, 4a^2/15, -5a^3 c1/16]
    a, c1 = 3.0, 0.4
    sc = apps.beam_series_compare(apps.BeamModel(a, 2.0, c1=c1), order=6)
    expect = (c1, 0.0, -a * c1 / 2.0, -a / 3.0, 0.375 * a * a * c1,
              (4.0 / 15.0) * a * a, -(5.0 / 16.0) * a ** 3 * c1)
    for got, want in zip(sc.g_coeffs, expect):
        assert abs(got - want) < 1e-14
    # h = (beta-alpha)u^3/(1+alpha u^2): c3 = beta-alpha, c5 = alpha(alpha-beta)
    assert abs(sc.h_coeffs[3] - (2.0 - 3.0)) < 1e-14
    assert abs(sc.h_coeffs[5] - 3.0 * (3.0 - 2.0)) < 1e-14


@pytest.mark.parametrize("a", [1.0, 1.7, 2.3, 3.0, 3.9])
def test_beam_series_closed_coefficients(a):
    # g = c1 - a c1 u^2/2 - a u^3/3 + ... + 4 a^2 u^5/15: the odd
    # coefficients do not depend on c1
    for c1 in (0.0, 0.4):
        g = apps.beam_series_compare(apps.BeamModel(a, 2.0 * a / 3.0, c1=c1),
                                     order=5).g_coeffs
        assert abs(g[3] + a / 3.0) <= 2e-15 * (a / 3.0)
        assert abs(g[5] - 4.0 * a * a / 15.0) <= 2e-15 * (4.0 * a * a / 15.0)


def test_beam_series_regime_match():
    """At beta = 2*alpha/3 the u^3 coefficients of g and h coincide, which
    is what makes the closed-form mode accurate."""
    sc = apps.beam_series_compare(apps.BeamModel(3.0, 2.0, c1=0.0), order=3)
    assert sc.g_coeffs[3] == sc.h_coeffs[3] == -1.0
    off = apps.beam_series_compare(apps.BeamModel(3.0, 1.0, c1=0.0), order=3)
    assert abs(abs(off.g_coeffs[3] - off.h_coeffs[3]) - 1.0) < 1e-12
    five = apps.beam_series_compare(apps.BeamModel(1.0, 0.5, c1=0.0), order=5)
    assert abs(five.h_coeffs[5] - 0.5) < 1e-12


def test_beam_series_order_validation():
    with pytest.raises(ValueError):
        apps.beam_series_compare(apps.BeamModel(3.0, 2.0), order=7)
    # an integral float is its integer; range() raised TypeError on 3.0
    model = apps.BeamModel(3.0, 2.0)
    assert (apps.beam_series_compare(model, order=3.0)
            == apps.beam_series_compare(model, order=3))
    for order in (2.5, math.nan, 7):
        with pytest.raises(ValueError, match="from 0 to 6, got %r" % order):
            apps.beam_series_compare(model, order=order)


def test_beam_direct_zero_alpha_is_harmonic():
    model = apps.BeamModel(0.0, 0.0, omega=1.3)
    t = np.linspace(0.0, 2.0 * math.pi / 1.3, 200)
    traj = apps.beam_solve(model, "direct", (0.08, 0.0), (t[0], t[-1]),
                           t_eval=t, rtol=1e-12, atol=1e-14)
    for s in traj.states:
        assert abs(s.x - 0.08 * math.cos(1.3 * s.t)) < 1e-7
    # samples outside the span are refused, not extrapolated
    for outside in ([-0.1, 0.5], [0.5, 1.5]):
        with pytest.raises(ValueError):
            apps.beam_solve(model, "direct", (0.08, 0.0), (0.0, 1.0),
                            t_eval=outside)


def _beam_rhs_reference(model, u, v):
    """The acceleration of the hand-written right-hand side direct mode
    marched before the beam had an OdeForm."""
    a, b, w = model.alpha_coef, model.beta_coef, model.omega
    den = 1.0 + a * u * u
    cubic = (b - a) * (u * u * u) / den
    return -(a * u / den) * v * v - w * w * (u + cubic)


@pytest.mark.parametrize("a, b, w", [
    (3.0, 2.0, 1.0), (1.7, 0.5, 1.3), (0.0, 0.0, 1.3), (-0.5, 1.0, 0.8),
    (-4.0, 1.0, 1.0)])
def test_beam_form_is_the_hand_written_rhs(a, b, w):
    # bit for bit at random states inside 1 + alpha u^2 > 0, alpha < 0
    # included; at a state so large that the reference is not finite, the
    # form gives a non-finite value too instead of raising (a power u^3
    # would raise EvalDomainError there)
    model = apps.BeamModel(a, b, omega=w)
    form = apps._beam_form(model)
    reach = 2.0 if a >= 0.0 else 0.99 / math.sqrt(-a)
    rng = np.random.default_rng(31)
    for u, v in zip(rng.uniform(-reach, reach, 50).tolist(),
                    rng.uniform(-2.0, 2.0, 50).tolist()):
        assert repr(explicit_acceleration(form, (0.0, u, v))) == repr(
            _beam_rhs_reference(model, u, v))
    huge = (0.0, 1e200, 1e200)
    assert not math.isfinite(_beam_rhs_reference(model, *huge[1:]))
    assert not math.isfinite(explicit_acceleration(form, huge))


@pytest.mark.parametrize("x0", [0.6, 0.5, -0.5])
def test_beam_direct_refuses_a_start_outside_its_domain(x0):
    # 1 + alpha u0^2 <= 0: at x0 = 0.6 direct mode used to print a
    # trajectory, at 0.5 it raised an untyped ZeroDivisionError
    model = apps.BeamModel(-4.0, 1.0)
    with pytest.raises(DomainViolation, match="got u0 = %r" % x0):
        apps.beam_solve(model, "direct", (x0, 0.0), (0.0, 1.0))
    apps.beam_solve(model, "direct", (0.45, 0.0), (0.0, 0.1))


def test_beam_direct_march_to_the_domain_boundary_names_t_and_u():
    # from u0 = 0.45 the march reaches 1 - 4u^2 = 0 at u = 0.5, where the
    # coefficients diverge; its steps used to shrink to a bare underflow
    with pytest.raises(DomainViolation,
                       match=r"at t = 0\.036\d*, u = 0\.49999") as info:
        apps.beam_solve(apps.BeamModel(-4.0, 1.0), "direct", (0.45, 1.0),
                        (0.0, 1.0))
    assert isinstance(info.value.__cause__, StepSizeUnderflow)
    # u'' = -u + 10 u^3 escapes far from any boundary: its underflow stays
    with pytest.raises(StepSizeUnderflow, match="at t = 0.60"):
        apps.beam_solve(apps.BeamModel(0.0, -10.0), "direct", (1.0, 0.0),
                        (0.0, 5.0))


def test_beam_approx_matches_direct():
    model = apps.BeamModel(3.0, 2.0, omega=1.0, c1=0.0)
    t = np.linspace(0.0, 2.0 * math.pi, 257)
    direct = apps.beam_solve(model, "direct", (0.05, 0.0), (0.0, t[-1]),
                             t_eval=t, rtol=1e-12, atol=1e-14)
    approx = apps.beam_solve(model, "approx", (0.05, 0.0), (0.0, t[-1]),
                             t_eval=t)
    for a, d in zip(approx.states, direct.states):
        assert abs(a.x - d.x) < 1e-3
        assert abs(a.v - d.v) < 1e-3


def test_beam_approx_through_origin():
    # starting at u = 0 with velocity exercises the odd continuation of F
    model = apps.BeamModel(3.0, 2.0, omega=1.0, c1=0.0)
    t = np.linspace(0.0, 2.0 * math.pi, 129)
    direct = apps.beam_solve(model, "direct", (0.0, 0.05), (0.0, t[-1]),
                             t_eval=t, rtol=1e-12, atol=1e-14)
    approx = apps.beam_solve(model, "approx", (0.0, 0.05), (0.0, t[-1]),
                             t_eval=t)
    for a, d in zip(approx.states, direct.states):
        assert abs(a.x - d.x) < 1e-3


def test_beam_approx_near_zero_is_finite():
    # without the hand series below |u| = 1e-3, rho written as -g/(s(s+g))
    # underflows to a division by zero: F(1e-160) raises
    model = apps.BeamModel(3.0, 2.0)
    F, G, _ = apps._beam_implicit_funcs(model)
    for u in (1e-160, 1e-300, -1e-300):
        assert F(u) == u and G(u) == 1.0
    traj = apps.beam_solve(model, "approx", (1e-160, 0.0), (0.0, 1.0),
                           t_eval=[0.0, 0.5, 1.0])
    assert all(math.isfinite(s.x) and math.isfinite(s.v)
               for s in traj.states)
    assert traj.states[0].x == 1e-160


@pytest.mark.parametrize("a, u0", [(3.0, 0.3), (1.7, 0.2)])
def test_beam_approx_solves_the_ode_of_the_pair(monkeypatch, a, u0):
    # verify's beam/approx-vs-generated-ode comparison, over a whole
    # period on all 257 points, at two more starts (they read 1.6e-13 and
    # 4.8e-14), and the seeded fault F*(1 + 1e-8) failing it (3.1e-9 and
    # 2.0e-9), a fault approx-vs-direct lets through: that check's 1e-3
    # bounds the model gap h != g
    model = apps.BeamModel(a, 2.0 * a / 3.0)
    t = np.linspace(0.0, 2.0 * math.pi, 257)
    ode = verify._beam_generated_ode(model, u0, t)

    def gap():
        return verify._state_gap(apps.beam_solve(
            model, "approx", (u0, 0.0), (0.0, t[-1]), t_eval=t).states,
            ode.states)

    assert gap() < 1e-12
    exact = apps._beam_implicit_funcs

    def scaled(model):
        F, G, g_fn = exact(model)
        return (lambda u: F(u) * (1.0 + 1e-8)), G, g_fn

    monkeypatch.setattr(apps, "_beam_implicit_funcs", scaled)
    assert gap() > 1e-12


def _beam_period(model, u0):
    """Period from successive upward zero crossings of the direct solution."""
    t1 = 4.0 * math.pi
    traj = apps.beam_solve(model, "direct", (u0, 0.0), (0.0, t1),
                           t_eval=np.linspace(0.0, t1, 1200),
                           rtol=1e-12, atol=1e-14)
    x = traj.meta["x_of_t"]
    ts = [s.t for s in traj.states]
    ups = []
    for a, b in zip(ts[:-1], ts[1:]):
        if x(a) < 0.0 <= x(b):
            ups.append(find_root(x, a, b))
    return ups[1] - ups[0]


def test_beam_amplitude_period_sweep():
    """Report how the oscillation period drifts with amplitude.  The drift
    scales like u0^2 and shortens the period for this parameter set."""
    model = apps.BeamModel(3.0, 2.0, omega=1.0, c1=0.0)
    t_small = _beam_period(model, 0.05)
    t_large = _beam_period(model, 0.1)
    two_pi = 2.0 * math.pi
    assert abs(t_small - two_pi) < 1e-3
    assert abs(t_large - two_pi) < 1e-3
    assert t_large < t_small < two_pi
    ratio = (two_pi - t_large) / (two_pi - t_small)
    assert 10.0 < ratio < 22.0  # ~16 for quadratic scaling


def test_beam_approx_gates():
    with pytest.raises(ApproxOutOfRegime):
        apps.beam_solve(apps.BeamModel(3.0, 1.0), "approx", (0.05, 0.0),
                        (0.0, 1.0))
    with pytest.raises(ApproxOutOfRegime):
        apps.beam_solve(apps.BeamModel(3.0, 2.0, c1=0.1), "approx",
                        (0.05, 0.0), (0.0, 1.0))
    with pytest.raises(NegativeAlpha):
        apps.beam_solve(apps.BeamModel(-1.0, -2.0 / 3.0), "approx",
                        (0.05, 0.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        apps.beam_solve(apps.BeamModel(3.0, 2.0), "sideways", (0.05, 0.0),
                        (0.0, 1.0))


def test_beam_t_eval_is_checked_sorted_and_deduplicated():
    model = apps.BeamModel(3.0, 2.0)
    # approx at rest (K = 0) included
    for mode, ic in (("direct", (0.05, 0.0)), ("approx", (0.05, 0.0)),
                     ("approx", (0.0, 0.0))):
        traj = apps.beam_solve(model, mode, ic, (0.0, 1.0),
                               t_eval=[0.5, 0.2, 0.5])
        assert [s.t for s in traj.states] == [0.2, 0.5]
        with pytest.raises(ValueError):
            apps.beam_solve(model, mode, ic, (0.0, 1.0), t_eval=[0.5, 1.5])


def test_beam_model_validation():
    with pytest.raises(ValueError):
        apps.BeamModel(3.0, 2.0, omega=0.0)


def test_beam_refuses_a_nan_time():
    # NaN passed the span check: direct mode returned the state
    # (nan, nan, nan) and approx mode failed converting NaN to an integer
    model = apps.BeamModel(3.0, 2.0)
    for mode in ("direct", "approx"):
        with pytest.raises(ValueError, match="t_eval must lie within"):
            apps.beam_solve(model, mode, (0.05, 0.0), (0.0, 1.0),
                            t_eval=[0.5, math.nan])


# each construction, as a function of keyword arguments, with finite values
# of its float parameters
_CONSTRUCTIONS = {
    "BeamModel": (apps.BeamModel, dict(alpha_coef=3.0, beta_coef=2.0,
                                       omega=1.0, c1=0.0)),
    "rcd_power_family": (apps.rcd_power_family,
                         dict(beta=2.0, gamma=0.3, delta=0.6, omega=1.0,
                              Vf=0.3, D0=1.5)),
    "rcd_from_fg": (lambda **kw: apps.rcd_from_fg("-0.3*u", "u", **kw),
                    dict(omega=1.0, Vf=0.3, D0=1.5)),
}


@pytest.mark.parametrize("construction, name", [
    pytest.param(construction, name, id="%s-%s" % (construction, name))
    for construction, (_, args) in _CONSTRUCTIONS.items() for name in args])
def test_apps_refuse_non_finite_parameters_by_name(construction, name):
    # a NaN alpha_coef raised UnboundNameError: nan in approx mode, a NaN
    # beta_coef passed its gate, an infinite omega divided by zero, and the
    # rcd coefficients came back NaN or infinite
    build, args = _CONSTRUCTIONS[construction]
    build(**args)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^%s must be finite" % name):
            build(**dict(args, **{name: bad}))


@pytest.mark.parametrize("omega", [0.0, -1.0])
def test_travelling_wave_refuses_a_non_positive_omega(omega):
    # omega 0 divided by zero and omega -1 returned a profile, where case3
    # refuses both
    with pytest.raises(ValueError, match="^omega must be > 0"):
        apps.rcd_travelling_wave(dict(beta=1.0, gamma=0.5, delta=1.0,
                                      A=3.0, omega=omega))


def _distinct_nodes(e):
    seen = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(getattr(node, a) for a in ("arg", "left", "right")
                         if hasattr(node, a))
    return len(seen)


def test_repeated_derivatives_share_subtrees():
    # printed out as a tree, the 6th derivative has about 2.9 million nodes
    ge = apps.beam_g_expr(apps.BeamModel(3.0, 2.0))
    for _ in range(6):
        ge = differentiate(ge, "u")
    assert _distinct_nodes(ge) <= 10000


@pytest.mark.parametrize("c1, g_hex, h_hex", [
    (0.0,
     ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "-0x1.0000000000000p+0",
      "0x0.0p+0", "0x1.3333333333334p+1", "0x0.0p+0"],
     ["-0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "-0x1.0000000000000p+0",
      "0x0.0p+0", "0x1.8000000000000p+1", "0x0.0p+0"]),
    (0.4,
     ["0x1.999999999999ap-2", "0x0.0p+0", "-0x1.3333333333334p-1",
      "-0x1.0000000000000p+0", "0x1.599999999999ap+0",
      "0x1.3333333333334p+1", "-0x1.b000000000002p+1"],
     ["-0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "-0x1.0000000000000p+0",
      "0x0.0p+0", "0x1.8000000000000p+1", "0x0.0p+0"]),
])
def test_beam_series_coefficients_are_bitwise_stable(c1, g_hex, h_hex):
    # recorded from exprdsl.taylor, signed zeros included
    sc = apps.beam_series_compare(apps.BeamModel(3.0, 2.0, c1=c1), order=6)
    assert [c.hex() for c in sc.g_coeffs] == g_hex
    assert [c.hex() for c in sc.h_coeffs] == h_hex
