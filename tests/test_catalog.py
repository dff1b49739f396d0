import math
import warnings

import numpy as np
import pytest
import scipy.special

from oscdeform import catalog
from oscdeform.deform import integrate_first_integral
from oscdeform.errors import (
    BracketZero,
    BranchViolation,
    CotangentPole,
    DegenerateParameters,
    DomainViolation,
    NoConvergence,
    NonSmoothPoint,
    NoRealRoot,
    PoleInRange,
    UnboundNameError,
)
from oscdeform.numerics import fd_derivatives, residual_scan


def first_integral_gap(sol, t):
    """|v - (omega*cot(theta)*(x+g) - f)| at one off-pole time."""
    osc = sol.osc
    x = sol(t)
    v = sol.v_evaluator(t)
    th = osc.theta(t)
    lhs = (v + osc.f(t, x, v)) * math.sin(th)
    rhs = osc.omega * math.cos(th) * (x + osc.g(t, x, v))
    return abs(lhs - rhs)


def make_all_solutions():
    """One representative per case, with a scan window inside its domain."""
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


def off_pole_samples(sol, lo, hi, count=200):
    osc = sol.osc
    ts = np.linspace(lo, hi, count)
    keep = [t for t in ts if abs(math.sin(osc.theta(t))) > 0.05]
    return np.array(keep)


def test_every_solution_satisfies_its_generated_ode():
    """Oracle duality: finite differences of each evaluator must satisfy the
    second-order form generated from the same deformation."""
    for sol, (lo, hi) in make_all_solutions():
        ts = off_pole_samples(sol, lo + 0.02, hi - 0.02)
        worst = residual_scan(sol.form, sol.evaluator, ts)
        assert worst < 1e-6, (sol.case_id, worst)


def test_every_solution_obeys_the_first_integral_law():
    for sol, (lo, hi) in make_all_solutions():
        for t in off_pole_samples(sol, lo + 0.02, hi - 0.02, 60):
            assert first_integral_gap(sol, float(t)) < 1e-7, sol.case_id


def test_velocity_evaluators_match_position_derivative():
    for sol, (lo, hi) in make_all_solutions():
        for t in off_pole_samples(sol, lo + 0.05, hi - 0.05, 25):
            _, v_fd, _ = fd_derivatives(sol.evaluator, float(t), 1e-3)
            assert abs(v_fd - sol.v_evaluator(float(t))) < 1e-6, sol.case_id


def test_solutions_match_first_integral_integration():
    """Each evaluator agrees with an independent integration of the first
    integral from matched initial data."""
    for sol, (lo, hi) in make_all_solutions():
        ts = np.linspace(lo, hi, 90)
        traj = integrate_first_integral(sol.osc, lo, sol(lo), hi, t_eval=ts)
        worst = max(abs(traj.x[i] - sol(traj.t[i])) for i in range(len(traj)))
        assert worst < 1e-6, (sol.case_id, worst)


def test_catalog_solution_rejects_unknown_case_id():
    with pytest.raises(ValueError):
        catalog.CatalogSolution("case99", lambda t: 0.0, None, None)


def test_integer_order_validation():
    for bad in (1, 0, 2.5, -3):
        with pytest.raises(ValueError):
            catalog.case2(0.3, bad, 1.0)
        with pytest.raises(ValueError):
            catalog.case5_power(0.3, bad, 1.0)
    with pytest.raises(ValueError):
        catalog.case3(1.0, 0.0, 1.0, 2.5, 1.0)


def test_harmonic_values():
    sol = catalog.harmonic(2.0, 3.0, 0.25)
    for t in (0.0, 0.4, 1.7):
        assert sol(t) == pytest.approx(2.0 * math.sin(3.0 * t + 0.25),
                                       abs=1e-15)
        assert sol.v_evaluator(t) == pytest.approx(
            6.0 * math.cos(3.0 * t + 0.25), abs=1e-14)


def test_case1_equals_general_quadrature():
    """The f = f0*sin(theta) closed form is the quadrature solution."""
    f0, A, w, al = 0.4, 2.0, 1.3, 0.6
    closed = catalog.case1(f0, A, w, al)
    # the quadrature anchors its amplitude constant at t_ref, the closed
    # form at t = 0; map one constant onto the other
    t_ref = (math.pi / 2.0 - al) / w
    gen = catalog.time_quadrature("%r*sin(%r*t + %r)" % (f0, w, al), "0",
                                  A - f0 * t_ref, w, al)
    for t in np.linspace(0.3, 5.0, 40):
        assert abs(closed(t) - gen(t)) < 1e-9


def test_case2_closed_form_value():
    g0, n, A = 0.3, 4, 1.1
    sol = catalog.case2(g0, n, A, 1.0, 0.0)
    t = 0.9
    s = math.sin(t)
    assert sol(t) == pytest.approx(s * (A + g0 * s ** 3 / 3.0), rel=1e-14)


def test_quadrature_refuses_unbounded_pole():
    # constant f leaves (omega*cos*g - f*sin)/sin^2 ~ -f/sin unbounded
    sol = catalog.time_quadrature("1", "0", 1.0, 1.0, 0.0)
    assert sol(2.0) is not None           # same pole interval: fine
    with pytest.raises(PoleInRange):
        sol(3.5)                          # crosses t = pi


def test_quadrature_crosses_removable_poles():
    # f = f0*sin(theta) keeps the integrand bounded, so spans may cross
    sol = catalog.time_quadrature("0.4*sin(t)", "0", 2.0, 1.0, 0.0)
    t = 4.0                               # beyond t = pi
    A0 = 2.0 + 0.4 * math.pi / 2.0        # amplitude is anchored at t_ref
    assert abs(sol(t) - (A0 - 0.4 * t) * math.sin(t)) < 1e-9


def test_case3_corrected_bracket_n2():
    """beta=1, gamma=0, delta=1, n=2: x = sin(t)/(A' - cos(t)) with the
    reference constant absorbed."""
    A = 3.0
    sol = catalog.case3(1.0, 0.0, 1.0, 2, A, 1.0, 0.0)
    t_ref = math.pi / 2.0
    for t in (0.4, 1.1, 2.9, 4.0):
        want = math.sin(t) / (A + math.cos(t_ref) - math.cos(t))
        assert sol(t) == pytest.approx(want, rel=1e-12)


def test_case3_branch_violation():
    # negative delta drags the bracket through zero; n=3 forbids B <= 0
    sol = catalog.case3(1.0, 0.0, -1.0, 3, 0.5, 1.0, 0.0)
    with pytest.raises(BranchViolation):
        for t in np.linspace(math.pi / 2.0, math.pi / 2.0 + 3.0, 120):
            sol(float(t))


def test_case3_bracket_zero_n2():
    # with beta = 1 and gamma = 0 the bracket is 0.3 - cos(t)
    sol = catalog.case3(1.0, 0.0, 1.0, 2, 0.3, 1.0, 0.0)
    with pytest.raises(BracketZero) as err:
        sol(math.acos(0.3))
    assert isinstance(err.value, BranchViolation)


def test_case3_fractional_beta_domain():
    sol = catalog.case3(1.5, 0.1, 0.3, 2, 1.2, 1.0, 0.0)
    lo, hi = sol.domain
    assert (lo, hi) == pytest.approx((0.0, math.pi))
    assert sol(1.0) is not None
    with pytest.raises(DomainViolation):
        sol(3.5)


def test_case4_nu0_closed_form():
    mu, A = 0.8, 0.4
    sol = catalog.case4_riccati(mu, 0.0, 1.0, 0.0, t0=math.pi / 2, x0=A)
    # x = sin(t) / (1/A + mu*(cos(pi/2) - cos(t))) for this anchoring
    for t in (0.3, 1.0, 2.2, 4.4):
        want = math.sin(t) / (1.0 / A - mu * math.cos(t))
        assert sol(t) == pytest.approx(want, rel=1e-13)


def test_case4_nu0_degenerate_and_zero():
    with pytest.raises(DegenerateParameters):
        catalog.case4_riccati(0.0, 0.1)
    sol = catalog.case4_riccati(0.8, 0.0, 1.0, 0.0, t0=1.0, x0=0.0)
    assert sol(2.0) == 0.0


def test_case4_nonzero_nu_domain():
    sol = catalog.case4_riccati(0.8, 0.2, 1.0, 0.3, t0=1.0, x0=0.4)
    lo, hi = sol.domain
    assert lo == pytest.approx(-0.3)
    assert hi == pytest.approx(math.pi - 0.3)
    with pytest.raises(DomainViolation):
        sol(hi + 0.1)


def test_case4_series_matches_direct():
    """The hypergeometric path and direct integration agree away from the
    series boundary |cos(theta)| -> 1."""
    mu, nu, w, al = 0.8, 0.2, 1.0, 0.3
    direct = catalog.case4_riccati(mu, nu, w, al, t0=1.0, x0=0.4)
    series = catalog.case4_series(mu, nu, w, al, t0=1.0, x0=0.4)
    lo, hi = direct.domain
    for t in np.linspace(lo + 0.2, hi - 0.2, 35):
        if abs(math.cos(w * t + al)) <= 0.9:
            assert abs(series(float(t)) - direct(float(t))) < 1e-8


def test_case4_series_fallback_warns():
    mu, nu = 0.8, 0.2
    series = catalog.case4_series(mu, nu, 1.0, 0.0, t0=1.2, x0=0.3)
    t_near_pole = 0.02                    # cos ~ 1 there
    with pytest.warns(UserWarning):
        val = series(t_near_pole)
    direct = catalog.case4_riccati(mu, nu, 1.0, 0.0, t0=1.2, x0=0.3)
    assert val == pytest.approx(direct(t_near_pole), abs=1e-9)


def test_case5_algebraic_n2():
    g0, A = 1.0, 0.6
    sol = catalog.case5_power(g0, 2, A, 1.0, 0.0)
    for t in (0.3, 1.2, 2.0, 3.6, 5.1):
        s = math.sin(t)
        assert sol(t) == pytest.approx(A * s / (1.0 - g0 * A * s), rel=1e-11)


def test_case5_no_real_root():
    # W(x) = x/(1+x) < 1, so amplitude 1.2 is unreachable at theta = pi/2
    sol = catalog.case5_power(1.0, 2, 1.2, 1.0, 0.0)
    with pytest.raises(NoRealRoot):
        sol(math.pi / 2)


def test_case5_satisfies_the_implicit_law():
    # x (1 + g0 x^m)^(-1/m) = A sin(theta) with m = n-1, on the branch
    # through x = 0, for both signs of g0 and of the target
    for g0 in (0.25, 1.0, -0.7):
        for n in (2, 3, 4):
            m = n - 1
            sol = catalog.case5_power(g0, n, 0.8, 1.3, 0.3)
            for t in np.linspace(0.0, 5.0, 41):
                x = sol(t)
                target = 0.8 * math.sin(1.3 * t + 0.3)
                assert 1.0 + g0 * x ** m > 0.0
                law = x * (1.0 + g0 * x ** m) ** (-1.0 / m)
                assert law == pytest.approx(target, rel=1e-14, abs=1e-15)
    # 1 + g0*target < 0 here, yet the root x = -0.6 exists
    sol = catalog.case5_power(1.0, 2, 1.5, 1.0, 0.0)
    assert sol(1.5 * math.pi) == pytest.approx(-0.6, rel=1e-14)


def test_case5_evaluator_is_pure():
    sol = catalog.case5_power(0.25, 2, 0.8, 1.0, 0.3)
    ts = np.linspace(0.2, 0.2 + 2 * math.pi, 200)
    forward = [sol(t) for t in ts]
    backward = [sol(t) for t in ts[::-1]][::-1]
    assert forward == backward


def test_case4_riccati_evaluator_is_pure():
    # nu != 0 integrates lazily; a value must not depend on which
    # earlier queries grew the cache
    ts = np.linspace(0.16, 2.38, 60)
    forward = catalog.case4_riccati(0.8, 0.5, 1.0, 0.3, t0=0.5, x0=0.4)
    backward = catalog.case4_riccati(0.8, 0.5, 1.0, 0.3, t0=0.5, x0=0.4)
    assert ([forward(t) for t in ts]
            == [backward(t) for t in ts[::-1]][::-1])


def test_case6_printed_value():
    sol = catalog.case6(1.0, 0.0, 1.0, 0.0)
    assert sol(math.pi / 4) == pytest.approx(4.0 / 3.0, rel=1e-14)
    # b = 0 reduces to the plain c1*sin^4 mode
    sol0 = catalog.case6(0.0, 0.7, 1.0, 0.0)
    t = 1.3
    assert sol0(t) == pytest.approx(0.7 * math.sin(t) ** 4, rel=1e-13)


def test_case7_c0_is_harmonic_magnitude():
    sol = catalog.case7(0.0, 1.4, 1.0, 0.0)
    for t in (0.2, 1.0, 2.5):
        assert sol(t) == pytest.approx(1.4 * abs(math.sin(t)), rel=1e-14)


def test_case7_branch_point():
    c = 0.5
    sol = catalog.case7(c, 1.0, 1.0, 0.0)
    tb = math.atan(c)                    # c*cos = sin there
    assert abs(sol(tb)) < 1e-12
    with pytest.raises(NonSmoothPoint):
        sol.v_evaluator(tb)


def test_hyp2f1_identities():
    """(1-z)^(-a) and -ln(1-z)/z at the canonical arguments."""
    for z in (0.1, 0.25, 0.5, 0.9):
        a = 0.7
        assert catalog.hyp2f1(a, 1.0, 1.0, z) == pytest.approx(
            (1.0 - z) ** (-a), rel=1e-12)
        assert catalog.hyp2f1(1.0, 1.0, 2.0, z) == pytest.approx(
            -math.log(1.0 - z) / z, rel=1e-12)
    assert catalog.hyp2f1(0.5, 1.0, 1.0, 0.25, rtol=1e-15) == pytest.approx(
        1.1547005383792515, abs=1e-13)
    assert catalog.hyp2f1(1.0, 1.0, 2.0, 0.5, rtol=1e-15) == pytest.approx(
        1.3862943611198906, abs=1e-13)


def test_hyp2f1_against_scipy():
    rng = np.random.default_rng(20240822)
    for _ in range(40):
        a, b = rng.uniform(-2.0, 2.0, size=2)
        c = rng.uniform(0.3, 3.0)
        z = rng.uniform(-0.85, 0.85)
        mine = catalog.hyp2f1(a, b, c, z)
        ref = float(scipy.special.hyp2f1(a, b, c, z))
        assert mine == pytest.approx(ref, rel=2e-11, abs=1e-12)


def test_hyp2f1_polynomial_termination():
    # negative integer a truncates the series exactly
    val = catalog.hyp2f1(-2.0, 1.5, 0.5, 0.3)
    want = 1.0 + (-2.0) * 1.5 / 0.5 * 0.3 \
        + ((-2.0) * (-1.0) / 2.0) * (1.5 * 2.5 / (0.5 * 1.5)) * 0.09
    assert val == pytest.approx(want, rel=1e-14)


def test_hyp2f1_input_validation():
    with pytest.raises(ValueError):
        catalog.hyp2f1(1.0, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        catalog.hyp2f1(1.0, 1.0, -1.0, 0.5)
    with pytest.raises(NoConvergence):
        catalog.hyp2f1(1.0, 1.0, 2.0, 0.9999)


def test_time_quadrature_rejects_state_dependence():
    with pytest.raises(UnboundNameError):
        catalog.time_quadrature("x", "0", 1.0)
    with pytest.raises(CotangentPole):
        catalog.time_quadrature("0", "0", 1.0, 1.0, 0.0, t_ref=math.pi)
