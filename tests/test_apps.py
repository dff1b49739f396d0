"""Tests for the reaction-convection-diffusion and beam applications."""

import math

import numpy as np
import pytest

from oscdeform import apps, catalog
from oscdeform.errors import (
    ApproxOutOfRegime,
    BracketZero,
    DomainViolation,
    NegativeAlpha,
    UnboundNameError,
)
from oscdeform.exprdsl import differentiate, evaluate
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
    # bracket A + delta*int = 0.3 - cos(xi) vanishes at acos(0.3)
    wave = apps.rcd_travelling_wave({"beta": 1, "gamma": 0.0, "delta": 1.0,
                                     "A": 0.3, "omega": 1.0, "alpha": 0.0})
    assert math.isfinite(wave(0.5))
    with pytest.raises(BracketZero):
        wave(math.acos(0.3))


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
        assert abs(got - want) < 1e-10
    # h = (beta-alpha)u^3/(1+alpha u^2): c3 = beta-alpha, c5 = alpha(alpha-beta)
    assert abs(sc.h_coeffs[3] - (2.0 - 3.0)) < 1e-12
    assert abs(sc.h_coeffs[5] - 3.0 * (3.0 - 2.0)) < 1e-12


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
        assert traj.t.tolist() == [0.2, 0.5]
        with pytest.raises(ValueError):
            apps.beam_solve(model, mode, ic, (0.0, 1.0), t_eval=[0.5, 1.5])


def test_beam_model_validation():
    with pytest.raises(ValueError):
        apps.BeamModel(3.0, 2.0, omega=0.0)


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
      "0x0.0p+0", "0x1.3333333333332p+1", "0x0.0p+0"],
     ["-0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "-0x1.0000000000000p+0",
      "0x0.0p+0", "0x1.8000000000000p+1", "0x0.0p+0"]),
    (0.4,
     ["0x1.999999999999ap-2", "0x0.0p+0", "-0x1.3333333333334p-1",
      "-0x1.0000000000000p+0", "0x1.5999999999999p+0",
      "0x1.3333333333332p+1", "-0x1.b000000000000p+1"],
     ["-0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "-0x1.0000000000000p+0",
      "0x0.0p+0", "0x1.8000000000000p+1", "0x0.0p+0"]),
])
def test_beam_series_coefficients_are_bitwise_stable(c1, g_hex, h_hex):
    # recorded from the tree-walking evaluator, signed zeros included
    sc = apps.beam_series_compare(apps.BeamModel(3.0, 2.0, c1=c1), order=6)
    assert [c.hex() for c in sc.g_coeffs] == g_hex
    assert [c.hex() for c in sc.h_coeffs] == h_hex
