import math
import random
import sys
import threading

import numpy as np
import pytest
import scipy.special

from oscdeform import apps, catalog, numerics, verify
from oscdeform.deform import (
    integrate_first_integral,
    pole_interval,
    pole_times,
)
from oscdeform.errors import (
    BracketZero,
    BranchViolation,
    CotangentPole,
    DegenerateParameters,
    DomainViolation,
    EvalDomainError,
    NoConvergence,
    NonSmoothPoint,
    NoRealRoot,
    UnboundNameError,
)
from oscdeform.exprdsl import depends_on, parse
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
        worst = max(abs(s.x - sol(s.t)) for s in traj.states)
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


def test_quadrature_refuses_unbounded_pole(monkeypatch):
    # constant f leaves the slope (g_t - f)/sin(t) = -1/sin(t) unbounded at
    # t = pi, and no piece of the quadrature next to it certifies
    made = _recorded_quadratures(monkeypatch)
    sol = catalog.time_quadrature("1", "0", 1.0, 1.0, 0.0)
    (I,) = made
    assert sol(2.0) is not None           # same pole interval: fine
    with pytest.raises(NoConvergence, match="^the integral to t = 3.5 "):
        sol(3.5)                          # crosses t = pi
    # a second query costs the failing panel's budget again and leaves
    # the fitted pieces as the first left them
    fits, calls = dict(I._fits), len(I.calls)
    with pytest.raises(NoConvergence, match="^the integral to t = 3.5 "):
        sol.v_evaluator(3.5)
    assert I._fits == fits
    assert 0 < len(I.calls) - calls <= 17 * 64 * numerics._MAX_LEVEL


def test_quadrature_crosses_removable_poles():
    # f = f0*sin(theta) keeps the integrand bounded, so spans may cross
    sol = catalog.time_quadrature("0.4*sin(t)", "0", 2.0, 1.0, 0.0)
    t = 4.0                               # beyond t = pi
    A0 = 2.0 + 0.4 * math.pi / 2.0        # amplitude is anchored at t_ref
    assert abs(sol(t) - (A0 - 0.4 * t) * math.sin(t)) < 1e-9


def test_quadrature_crosses_poles_where_g_t_minus_f_vanishes():
    """f = 0.1*sin(t), g = 0.2*cos(t): g is not 0 at the poles, but g_t - f
    = -0.3*sin(t) is, so the slope -0.3 of y = (x + g)/sin(t) is bounded
    and x = -0.2*cos(t) + sin(t)*(C - 0.3*t) is smooth across all four
    poles of [0.5, 13]; v is its derivative, on the poles too."""
    sol = catalog.time_quadrature("0.1*sin(t)", "0.2*cos(t)", 1.0)
    t_ref = math.pi / 2.0
    C = (sol(t_ref) + 0.2 * math.cos(t_ref)) / math.sin(t_ref) + 0.3 * t_ref
    for t in np.linspace(0.5, 13.0, 251).tolist():
        exact = -0.2 * math.cos(t) + math.sin(t) * (C - 0.3 * t)
        assert abs(sol(t) - exact) <= 1e-14 * (1.0 + abs(exact)), t
    for t in (math.pi, 2.0 * math.pi):
        exact = -0.1 * math.sin(t) + math.cos(t) * (C - 0.3 * t)
        assert abs(sol.v_evaluator(t) - exact) <= 1e-14 * (1.0 + abs(exact))


_T_ONLY_PAIRS = [
    (f, g) for f, g in verify.THEOREM_PAIRS
    if not any(depends_on(parse(e), var) for e in (f, g) for var in "xv")
] + [("0.1*sin(t + 0.3)", "0.2*cos(t + 0.3)")]


@pytest.mark.parametrize("f, g", _T_ONLY_PAIRS)
def test_march_through_five_poles_is_the_quadrature(f, g):
    """The pole march of the first integral and time_quadrature integrate
    one slope in one amplitude frame, so from (0.5, 0.4) through the five
    poles of [0.5, 0.5 + 5*pi] they agree in x and v to 2e-12, the march
    at rtol 1e-12, the quadrature's A fitted to x = 0.4 at t0."""
    t0, x0, t1 = 0.5, 0.4, 0.5 + 5.0 * math.pi
    sol = catalog.time_quadrature(f, g, 0.0, 1.0, 0.3)
    A = (x0 - sol(t0)) / math.sin(t0 + 0.3)
    sol = catalog.time_quadrature(f, g, A, 1.0, 0.3)
    assert len(pole_times(1.0, 0.3, t0, t1)) == 5
    ts = np.linspace(t0, t1, 181).tolist()
    traj = integrate_first_integral(sol.osc, t0, x0, t1, t_eval=ts,
                                    rtol=1e-12, atol=1e-14)
    for s in traj.states:
        assert abs(s.x - sol(s.t)) <= 2e-12, s.t
        assert abs(s.v - sol.v_evaluator(s.t)) <= 2e-12, s.t


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


@pytest.mark.parametrize("k", [0, 4, -4, 10])
def test_case4_nu0_domain_follows_t0_across_periods(k):
    # the zeros of D around t0 repeat with theta's period 2*pi, however
    # many periods t0 lies from theta = 0
    mu, w, al, x0 = 3.0, 1.0, 0.3, 0.9
    ref = catalog.case4_riccati(mu, 0.0, w, al, t0=0.5, x0=x0).domain
    t0 = 0.5 + 2.0 * math.pi * k
    sol = catalog.case4_riccati(mu, 0.0, w, al, t0=t0, x0=x0)
    lo, hi = sol.domain
    assert lo - t0 == pytest.approx(ref[0] - 0.5, abs=1e-9)
    assert hi - t0 == pytest.approx(ref[1] - 0.5, abs=1e-9)
    # just past the zero of D, x is refused, not continued on the far side
    with pytest.raises(DomainViolation):
        sol(t0 + (ref[1] - 0.5) + 1e-6)


def test_case4_nonzero_nu_velocity_is_the_derivative_of_x():
    sol = catalog.case4_riccati(0.8, 0.5, 1.0, 0.3, t0=0.5, x0=0.4)
    lo, hi = sol.domain
    for t in np.linspace(lo + 0.3, hi - 0.3, 9).tolist():
        _, v_fd, _ = fd_derivatives(sol.evaluator, t, 1e-3)
        assert sol.v_evaluator(t) == pytest.approx(v_fd, abs=1e-7)


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


def test_case4_series_makes_two_pair_calls_per_sample(monkeypatch):
    """Each sample calls _hyp2f1_m1's value twice, once per pair, at
    z = cos^2(theta) and s = sin^2(theta), and equals the formula written
    from those two calls, bit for bit."""
    mu, nu, w, al, t0, x0 = 0.8, 0.2, 1.0, 0.3, 1.0, 0.4
    m1 = catalog._hyp2f1_m1
    root = math.sqrt(1.0 + 4.0 * (mu * nu / w ** 2))
    a, b = -0.25 - 0.25 * root, -0.25 + 0.25 * root
    pair1, pair2 = m1(a, b), m1(a + 0.5, b + 0.5)

    def u_du(th):
        wv, sn = -math.cos(th), math.sin(th)
        F1, dF1, _ = pair1(wv * wv, sn * sn)
        F2, dF2, _ = pair2(wv * wv, sn * sn)
        return (F1, wv * F2), (2.0 * wv * dF1, F2 + 2.0 * wv * wv * dF2)

    th0 = w * t0 + al
    (p1, p2), (dp1, dp2) = u_du(th0)
    C1 = w * math.sin(th0) * dp2 - mu * x0 * p2
    C2 = -(w * math.sin(th0) * dp1 - mu * x0 * p1)

    def two_pairs(t):
        th = w * t + al
        (p1, p2), (dp1, dp2) = u_du(th)
        return (w * math.sin(th) * (C1 * dp1 + C2 * dp2)
                / (mu * (C1 * p1 + C2 * p2)))

    calls = []

    def counted(a, b):
        value = m1(a, b)

        def count(z, s):
            calls.append((a, b, z, s))
            return value(z, s)
        return count

    monkeypatch.setattr(catalog, "_hyp2f1_m1", counted)
    x_of_t = catalog.case4_series(mu, nu, w, al, t0=t0, x0=x0)
    for t in np.linspace(0.3, 2.2, 25).tolist():
        before = len(calls)
        assert x_of_t(t).hex() == two_pairs(t).hex()
        th = w * t + al
        z, s = math.cos(th) ** 2, math.sin(th) ** 2
        assert calls[before:] == [(a, b, z, s), (a + 0.5, b + 0.5, z, s)]
    assert len(calls) == 2 * 26


# |w| = |cos(theta)| of the sweep: a coarse grid, then a fine one on both
# sides of 1 - 2e-3, where an earlier evaluator stopped, and up to 1
_SERIES_SWEEP = (0.0, 0.3, 0.6, 0.9, 0.99, 0.995, 0.997, 0.9975, 0.9979,
                 0.99799, 0.99801, 0.9981, 0.9985, 0.9988, 0.999, 0.9995,
                 0.9999, 1.0)


@pytest.mark.parametrize("mu, nu", [
    (0.8, 0.5), (0.8, 0.2), (2.0, 1.0), (0.5, -0.3),
    (1.0, -0.25), (0.5, -0.4998),       # mu*nu/omega^2 at and near -1/4
    (2.0, 10.0), (1.0, 12.0),           # 20 and 12: one pair a polynomial
])
def test_case4_series_has_a_value_over_the_whole_period(mu, nu,
                                                        monkeypatch):
    """Each |w| of the sweep below 1 gives a finite x, and a series started
    there returns x0.  At |w| = 1, on a pole, x is its limit 0 (here
    sin(theta) is a rounding error, so x is tiny, and exactly 0.0 where
    sin(theta) is 0.0), and a start raises CotangentPole.  No
    case4_series builds a case4_riccati."""
    def refuse(*args, **kwargs):
        raise AssertionError("case4_series built a case4_riccati")

    monkeypatch.setattr(catalog, "case4_riccati", refuse)
    al, x0 = 0.3, 0.4
    x_of_t = catalog.case4_series(mu, nu, 1.0, al, t0=0.5, x0=x0)
    for w in _SERIES_SWEEP:
        for sign in (1.0, -1.0):
            t = math.acos(-sign * w) - al       # -cos(t + al) = sign*w
            if w == 1.0:
                assert abs(x_of_t(t)) < 1e-12, sign
                with pytest.raises(CotangentPole):
                    catalog.case4_series(mu, nu, 1.0, al, t0=t, x0=x0)
            else:
                assert math.isfinite(x_of_t(t)), (w, sign)
                started = catalog.case4_series(mu, nu, 1.0, al, t0=t, x0=x0)
                assert started(t) == pytest.approx(x0, rel=1e-9), (w, sign)
    assert x_of_t(-al) == 0.0                   # theta = 0.0 exactly


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_case4_series_agrees_with_case4_riccati_near_the_poles(side):
    """Where the series used to stop, up to 1e-8 from |w| = 1 on both sides
    of the pole interval (-0.3, pi - 0.3), the hypergeometric path agrees
    with DOP853 on the first integral."""
    mu, nu, w, al, t0, x0 = 0.8, 0.5, 1.0, 0.3, 0.5, 0.4
    direct = catalog.case4_riccati(mu, nu, w, al, t0=t0, x0=x0)
    series = catalog.case4_series(mu, nu, w, al, t0, x0)
    for gap in (1e-1, 1e-2, 1e-4, 1e-6, 1e-8):
        th = math.acos(side * (1.0 - gap))     # -cos(theta) = -side*|w|
        t = (th - al) / w
        x = direct(t)
        assert abs(series(t) - x) <= 1e-10 * (1.0 + abs(x)), gap


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


def test_case4_riccati_beyond_the_last_breakpoint_is_pure():
    # the pole interval is (-0.3, pi - 0.3): each side of t0 = 0.5 is
    # integrated once, up to 0.0 and 2.5, and a time beyond is integrated
    # afresh from there; queries that start beyond either end change nothing
    def fresh():
        return catalog.case4_riccati(0.8, 0.5, 1.0, 0.3, t0=0.5, x0=0.4)

    ts = np.linspace(-0.25, 2.8, 80).tolist()
    want = [fresh()(t) for t in ts]
    for first in ([2.7, -0.2], [-0.2, 2.7], [2.8, 2.5, 0.0]):
        sol = fresh()
        for t in first:
            sol(t)
        assert [sol(t) for t in ts[::-1]][::-1] == want


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


def test_hyp2f1_identities(monkeypatch):
    """The suite's two checks of _hyp2f1_m1 against F(1, 1; 3; z) pass at
    least 10 times below their thresholds, and both fail when the sums'
    tail tolerance _PAIR_TOL is loosened from 3e-13 to 3e-9."""
    def identities():
        return [c for c in verify.suite_hyp2f1()
                if c.name.startswith("hyp2f1/F113-")]

    clean = identities()
    assert len(clean) == 2
    assert all(c.passed and 10.0 * c.value <= c.threshold for c in clean)
    monkeypatch.setattr(catalog, "_PAIR_TOL", 3e-9)
    assert not any(c.passed for c in identities())


def test_hyp2f1_polynomial_termination():
    """A non-positive integer a truncates the Gauss series: F(-2, 1.5;
    0.5; z) = 1 - 6z + 5z^2 is summed as that polynomial at every z, above
    the switch too."""
    value = catalog._hyp2f1_m1(-2.0, 1.5)
    for z in (0.3, 0.9, 1.0 - 1e-12):
        F, dF, terms = value(z, 1.0 - z)
        assert F == pytest.approx(1.0 - 6.0 * z + 5.0 * z * z,
                                  rel=1e-14, abs=1e-14)
        assert dF == pytest.approx(-6.0 + 10.0 * z, rel=1e-14)
        assert terms == 3


@pytest.mark.parametrize("name", ["mu", "nu", "omega", "alpha", "t0", "x0"])
def test_case4_series_refuses_non_finite_arguments(name):
    args = dict(mu=0.8, nu=0.2, omega=1.0, alpha=0.3, t0=1.0, x0=0.4)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^%s must be finite" % name):
            catalog.case4_series(**dict(args, **{name: bad}))


def test_case4_series_evaluator_refuses_a_non_finite_t():
    x_of_t = catalog.case4_series(0.8, 0.5, 1.0, 0.3, 0.5, 0.4)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^t must be finite"):
            x_of_t(bad)


def test_case4_series_refuses_mu_nu_over_omega_squared_above_400():
    """400 is the largest mu*nu/omega^2 the mpmath comparison certifies;
    past it the sums lose digits (1e4) or overflow in math.gamma (2e5)."""
    catalog.case4_series(1.0, 400.0, 1.0, 0.3, 0.5, 0.4)(1.0)
    for nu in (401.0, 1e4, 2e5):
        with pytest.raises(ValueError, match=r"^mu\*nu/omega\^2 > 400 "):
            catalog.case4_series(1.0, nu, 1.0, 0.3, 0.5, 0.4)


def _pairs(lam):
    """The (a, b) of case4_series's two pairs at mu*nu/omega^2 = lam."""
    root = math.sqrt(1.0 + 4.0 * lam)
    a, b = -0.25 - 0.25 * root, -0.25 + 0.25 * root
    return [(a, b), (a + 0.5, b + 0.5)]


# z from 0 to 1 - 1e-13: a grid, both sides of the switch, and up to 1
_PAIR_ZS = ([k / 40.0 for k in range(40)]
            + [catalog._Z_SWITCH + d for d in (-1e-9, 0.0, 1e-9)]
            + [1.0 - 10.0 ** -k for k in range(2, 14)])


@pytest.mark.parametrize("lam", [-0.2, 0.4, 0.75, 20.0, 100.0])
def test_hyp2f1_m1_matches_scipy(lam):
    """F and dF/dz = (ab/c) F(a+1, b+1; c+1; z) against scipy."""
    for a, b in _pairs(lam):
        c = a + b + 1.0
        value = catalog._hyp2f1_m1(a, b)
        for z in _PAIR_ZS:
            F, dF, _ = value(z, 1.0 - z)
            want = scipy.special.hyp2f1(a, b, c, z)
            dwant = a * b / c * scipy.special.hyp2f1(a + 1, b + 1, c + 1, z)
            assert abs(F - want) <= 1e-12 * (1.0 + abs(want)), (a, z)
            assert abs(dF - dwant) <= 1e-12 * (1.0 + abs(dwant)), (a, z)


# (pair, z, F, dF/dz) at mu*nu/omega^2 = 400, from 40-digit mpmath; here
# both series cancel terms near 1e6 times larger than F and dF/dz
_M1_AT_400 = (
    (0, 0.0, 1.0000000000000000, -199.99999999999997),
    (0, 0.1, 0.96346412903483640, -5.0383706630813085),
    (0, 0.2, -0.93402707227319307, -3.4329797609508341),
    (0, 0.3, 0.50792561410720534, 16.406820795973849),
    (0, 0.4, 0.38593555419202456, -16.292236810985773),
    (0, 0.5, -0.84120801167759700, 0.18719063918648254),
    (0, 0.6, 0.32843858172214877, 14.562596620764825),
    (0, 0.7, 0.43021773585642851, -13.482045570584507),
    (0, 0.8, -0.66504273916918742, 2.8440827565768895),
    (0, 0.9, 0.55343489520218289, 2.3417673200582703),
    (0, 0.99, -0.18425158830114549, 29.296632841511567),
    (0, 0.9999, 0.12907479262550224, -4.4030715840545545),
    (0, 0.99999999, 0.12735046886923168, -121.99689181878633),
    (0, 0.9999999999999, 0.12734912157862540, -268.60917400025239),
    (1, 0.0, 1.0000000000000000, -66.666666666666656),
    (1, 0.1, 0.022662872149672459, 4.9577784828579293),
    (1, 0.2, 0.016679748439957035, -2.6569755592331213),
    (1, 0.3, -0.069505964033766398, 1.1520083257040926),
    (1, 0.4, 0.062595636022176776, 0.51816869571220432),
    (1, 0.5, 0.00082150430658083590, -1.1897709247022156),
    (1, 0.6, -0.046820718646246538, 0.50029709874001715),
    (1, 0.7, 0.036069238009739317, 0.50419721725966926),
    (1, 0.8, -0.0045401023961101224, -0.91753572483314220),
    (1, 0.9, -0.0059068778749543496, 0.98211944710238277),
    (1, 0.99, -0.013683312615995459, -0.55848745185404246),
    (1, 0.9999, -0.0067232271207910013, 4.1068189030114204),
    (1, 0.99999999, -0.0062476661163309479, 9.9143229320891456),
    (1, 0.9999999999999, -0.0062475607272605684, 17.106909809395133),
)


def test_hyp2f1_m1_at_400_against_mpmath():
    values = [catalog._hyp2f1_m1(a, b) for a, b in _pairs(400.0)]
    for pair, z, want, dwant in _M1_AT_400:
        F, dF, _ = values[pair](z, 1.0 - z)
        assert abs(F - want) <= 1e-10 * (1.0 + abs(want)), (pair, z)
        assert abs(dF - dwant) <= 1e-10 * (1.0 + abs(dwant)), (pair, z)


def test_hyp2f1_m1_stops_only_once_the_terms_contract():
    """At mu*nu/omega^2 = 400 the first term ratios of the Gauss series
    exceed 1 (-200 z at k = 0), so at z near 3e-8 a term can be small
    while the next ones are not; a stop taken there read dF/dz 1e-12 off.
    (pair, z, F, dF/dz) from 40-digit mpmath."""
    values = [catalog._hyp2f1_m1(a, b) for a, b in _pairs(400.0)]
    for pair, z, want, dwant in (
            (0, 1e-08, 0.99999800000066333, -199.99986733335904),
            (0, 3e-08, 0.99999400000597000, -199.99960200023160),
            (1, 1e-08, 0.99999933333346467, -66.666640400003554),
            (1, 3e-08, 0.99999800000118200, -66.666587866698739)):
        F, dF, _ = values[pair](z, 1.0 - z)
        assert abs(F - want) <= 1e-15 * (1.0 + abs(want)), (pair, z)
        assert abs(dF - dwant) <= 1e-15 * (1.0 + abs(dwant)), (pair, z)


def test_hyp2f1_m1_sums_at_most_100_terms():
    """No sum runs past 100 terms for z in [0, 1) and mu*nu/omega^2 up to
    400, polynomial pairs (2, 6, 12, 20) and near-polynomial ones
    included."""
    rng = random.Random(36)
    lams = ([-0.25, -0.2, 0.0, 0.4, 0.75, 2.0, 6.0, 12.0, 20.0 - 1e-9, 20.0,
             20.0 + 1e-9, 100.0, 400.0]
            + [rng.uniform(-0.25, 400.0) for _ in range(6)])
    zs = ([k / 200.0 for k in range(200)]
          + [1.0 - 10.0 ** -k for k in range(3, 16)])
    most = 0
    for lam in lams:
        for a, b in _pairs(lam):
            value = catalog._hyp2f1_m1(a, b)
            most = max(most, max(value(z, 1.0 - z)[2] for z in zs))
    assert most <= 100


def test_hyp2f1_m1_tables_grown_by_threads_at_once_stay_exact():
    """Four threads share one value function for each branch, whose ratio
    tables grow mid-sum, with the interpreter switching threads every
    microsecond; every result is the one a fresh function gives."""
    (a, b), _ = _pairs(100.0)
    zs = (0.05, 0.3, 0.5, 0.6, 0.61, 0.75, 0.9, 0.999)
    want = {z: catalog._hyp2f1_m1(a, b)(z, 1.0 - z) for z in zs}
    got = []

    def work(value):
        got.extend((z, value(z, 1.0 - z)) for z in zs)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            value = catalog._hyp2f1_m1(a, b)
            threads = [threading.Thread(target=work, args=(value,))
                       for _ in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30.0)
            assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(got) == 16 * len(zs)
    assert all(r == want[z] for z, r in got)


def test_digamma_matches_scipy():
    for x in (1e-3, 0.3, 0.5, 0.75, 1.0, 2.5, 5.5, 9.99, 10.0, 12.3, 250.0,
              -0.5, -1.25, -3.7, -9.25, -10.2506, -1.000001, -3.00000025):
        want = scipy.special.digamma(x)
        assert abs(catalog._digamma(x) - want) <= 4e-15 * max(1.0, abs(want)), x


@pytest.mark.parametrize("t0", [None, 0.5])
@pytest.mark.parametrize("omega", [0.0, -1.0])
@pytest.mark.parametrize("build", [catalog.case4_riccati,
                                   catalog.case4_series])
def test_case4_refuses_a_non_positive_omega(build, omega, t0):
    # omega = 0 divided by zero deriving t0, or put t0 = 0.5 on a pole,
    # and case4_series was built at omega = -1
    with pytest.raises(ValueError, match="^omega must be finite and > 0"):
        build(0.8, 0.5, omega, t0=t0)


# each factory, as a function of keyword arguments, with finite values of
# its float parameters; power_law and rcd_travelling_wave name theirs as
# power_law's check does
_FACTORIES = {
    "harmonic": (catalog.harmonic, dict(A=1.0, omega=1.0, alpha=0.3)),
    "time_quadrature": (
        lambda **kw: catalog.time_quadrature("0.1*t", "0", **kw),
        dict(A=1.0, omega=1.0, alpha=0.3)),
    "case1": (catalog.case1, dict(f0=0.3, A=1.0, omega=1.0, alpha=0.3)),
    "case2": (lambda **kw: catalog.case2(n=2, **kw),
              dict(g0=0.3, A=1.0, omega=1.0, alpha=0.3)),
    "case3": (lambda **kw: catalog.case3(n=2, **kw),
              dict(beta=1.0, gamma=0.5, delta=1.0, A=1.0, omega=1.0,
                   alpha=0.3)),
    "case4_riccati": (catalog.case4_riccati,
                      dict(mu=0.8, nu=0.2, omega=1.0, alpha=0.3, t0=1.0,
                           x0=0.4)),
    "case5_power": (lambda **kw: catalog.case5_power(n=2, **kw),
                    dict(g0=0.3, A=1.0, omega=1.0, alpha=0.3)),
    "case6": (catalog.case6, dict(b=-0.5, c1=0.2, omega=1.0, alpha=0.3)),
    "case7": (catalog.case7, dict(c=0.3, A=1.0, omega=1.0, alpha=0.3)),
    "power_law": (
        lambda w, al, **kw: catalog.power_law(n=2, w=w, al=al,
                                              quadrature=False, **kw),
        dict(beta=1.0, gamma=0.5, delta=1.0, A=1.0, w=1.0, al=0.3,
             t_ref=1.2)),
    "rcd_travelling_wave": (
        lambda **kw: apps.rcd_travelling_wave(kw),
        dict(beta=1.0, gamma=0.5, delta=1.0, A=3.0, omega=1.0, alpha=0.3,
             xi_ref=1.2)),
}
_NAMED_AS = {"w": "omega", "al": "alpha", "xi_ref": "t_ref"}


@pytest.mark.parametrize("factory, name", [
    pytest.param(factory, name, id="%s-%s" % (factory, name))
    for factory, (_, args) in _FACTORIES.items() for name in args])
def test_factories_refuse_non_finite_parameters_by_name(factory, name):
    # NaN went through harmonic, case2, case3, case5_power, case7,
    # time_quadrature's A and rcd_travelling_wave into NaN values, and
    # case1, case6 and case4_riccati raised UnboundNameError: nan
    build, args = _FACTORIES[factory]
    build(**args)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^%s must be finite"
                           % _NAMED_AS.get(name, name)):
            build(**dict(args, **{name: bad}))


def _recorded_quadratures(monkeypatch):
    """Make catalog's CumulativeIntegral record each instance it builds,
    with its integrand and the times the integrand is called at."""
    made = []

    class Recorded(numerics.CumulativeIntegral):
        def __init__(self, f, origin):
            self.integrand, self.calls = f, []

            def counted(t):
                self.calls.append(t)
                return f(t)
            super().__init__(counted, origin)
            made.append(self)

    monkeypatch.setattr(catalog, "CumulativeIntegral", Recorded)
    return made


def test_time_quadrature_sample_integrates_its_partial_panel_once(
        monkeypatch):
    """x and then v at one t make one query.  In a fitted panel the first
    query costs the panel's 17 nodes and a query after it none.  Next to
    an unbounded pole, where the panel does not fit and splits, each piece
    costs its 17 nodes once, a sample's second query costs nothing, and f
    is read beyond t only at the nodes of the pieces that hold t."""
    made = _recorded_quadratures(monkeypatch)
    sol = catalog.time_quadrature("0.3*sin(t + 0.3)", "0.2*sin(t + 0.3)^2",
                                  0.9, 1.0, 0.3)
    (I,) = made
    for t, total in ((I.origin + 0.2, 17), (I.origin + 0.1, 17),
                     (I.origin - 0.1, 34), (I.origin - 0.2, 34)):
        sol(t)
        sol.v_evaluator(t)
        assert len(I.calls) == total
    assert I._fits[I.origin, 0.125] is not None
    assert I._fits[I.origin, -0.125] is not None

    # -0.3/sin(t) is unbounded at t = pi, 0.07 past the panel
    # [pi/2 + 1.25, pi/2 + 1.5]
    sol = catalog.time_quadrature("0.3", "0", 1.0)
    I = made[-1]
    sol(I.origin + 1.3)
    assert I._fits[I.origin + 1.25, 0.125] is None
    for t in (I.origin + 1.4, I.origin + 1.45, I.origin + 1.4):
        before, fitted = len(I.calls), len(I._fits)
        sol(t)
        assert len(I.calls) - before == 17 * (len(I._fits) - fitted)
        sol.v_evaluator(t)
        assert len(I.calls) - before == 17 * (len(I._fits) - fitted)
        # each key of _fits is a piece's near edge and half width
        nodes = {edge + h + h * x for edge, h in I._fits
                 if edge <= t <= edge + 2.0 * h for x in numerics._FIT_X}
        assert all(s in nodes for s in I.calls[before:] if s > t)
    assert len(set(I.calls)) == len(I.calls)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_time_quadrature_refuses_a_non_finite_t_by_name(t):
    # a NaN raised "cannot convert float NaN to integer" in pole_times, and
    # an infinite t an OverflowError, from x and v alike
    sol = catalog.time_quadrature("0.3*sin(t + 0.3)", "0.2*sin(t + 0.3)^2",
                                  0.9, 1.0, 0.3)
    for evaluate in (sol, sol.v_evaluator):
        with pytest.raises(ValueError,
                           match="^t must be finite, got %r$" % t):
            evaluate(t)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build", [
    lambda: catalog.case3(2.0, 0.3, 0.6, 2, 4.0, 1.0, 0.0),
    lambda: catalog.case3(1.5, 0.3, 0.6, 2, 4.0, 1.0, 0.0),
    lambda: catalog.case4_riccati(0.8, 0.5, 1.0, 0.3, t0=0.5, x0=0.4),
    lambda: catalog.case4_riccati(0.8, 0.0, 1.0, 0.3, t0=0.5, x0=0.4),
])
def test_domain_checked_evaluators_refuse_a_non_finite_t_by_name(build, t):
    # a NaN or infinite t read "outside the solution interval"
    sol = build()
    for evaluate in (sol, sol.v_evaluator):
        with pytest.raises(ValueError,
                           match="^t must be finite, got %r$" % t):
            evaluate(t)


def _closure_slope(osc):
    """The reference for time_quadrature's integrand, the march's slope
    osc.amplitude_slope: (g_t - f)/sin(theta) as a closure calling osc.g_t
    and osc.f."""
    w, al = osc.omega, osc.alpha

    def slope(t):
        return (osc.g_t(t, 0.0, 0.0) - osc.f(t, 0.0, 0.0)) / math.sin(
            w * t + al)
    return slope


_QUADRATURE_PAIRS = [
    ("0.3*sin(t + 0.3)", "0.2*sin(t + 0.3)^2", 1.0, 0.3),
    ("0", "0.2*sin(t)^3 + 0.1*t", 1.3, 0.0),
    ("0.1*t - 0.4*cos(2*t)", "0", 0.7, -0.2),
    ("0.2*exp(-t)", "0.05*t^2 - 0.1", 2.0, 1.1),
    ("0", "0", 1.0, 0.0),
]


@pytest.mark.parametrize("f, g, omega, alpha", _QUADRATURE_PAIRS)
def test_time_quadrature_integrand_is_the_closure_bit_for_bit(
        f, g, omega, alpha, monkeypatch):
    made = _recorded_quadratures(monkeypatch)
    sol = catalog.time_quadrature(f, g, 1.0, omega, alpha)
    compiled, closure = made[0].integrand, _closure_slope(sol.osc)
    rng = random.Random(5)
    for t in [rng.uniform(-6.0, 6.0) for _ in range(200)]:
        assert compiled(t).hex() == closure(t).hex()


@pytest.mark.parametrize("f, g, omega, alpha", _QUADRATURE_PAIRS)
def test_time_quadrature_state_is_the_closure_bit_for_bit(
        f, g, omega, alpha, monkeypatch):
    """x = (y_ref + J)*sin(theta) - g and v = omega*(y_ref + J)*cos(theta)
    - f, with J the recorded quadrature and y_ref = A + g(t_ref), at times
    between the poles around t_ref, where J exists for every pair."""
    made = _recorded_quadratures(monkeypatch)
    sol = catalog.time_quadrature(f, g, 0.7, omega, alpha)
    (J,) = made
    osc = sol.osc
    y_ref = 0.7 + osc.g(J.origin, 0.0, 0.0)
    lo, hi = pole_interval(omega, alpha, J.origin)
    rng = random.Random(7)
    for t in [rng.uniform(lo + 0.01, hi - 0.01) for _ in range(200)]:
        y, th = y_ref + J(t), omega * t + alpha
        x = y * math.sin(th) - osc.g(t, 0.0, 0.0)
        v = omega * y * math.cos(th) - osc.f(t, 0.0, 0.0)
        assert sol(t).hex() == x.hex()
        assert sol.v_evaluator(t).hex() == v.hex()


def test_time_quadrature_integrand_at_a_pole_is_typed(monkeypatch):
    made = _recorded_quadratures(monkeypatch)
    catalog.time_quadrature("0.1", "0", 1.0, 1.0, 0.0)
    with pytest.raises(EvalDomainError, match="division by zero"):
        made[0].integrand(0.0)


def _sin_pow_integrand(beta, gamma, n, w, al):
    """The reference for power_law's quadrature integrand:
    sin_pow(sin(theta), (n-1)*beta) * e^((n-1)*gamma*t)."""
    mb, mg = (n - 1) * beta, (n - 1) * gamma

    def integrand(t):
        s = math.sin(w * t + al)
        if beta.is_integer():
            return s ** int(mb) * math.exp(mg * t)
        if s <= 0.0:
            raise DomainViolation("sin(theta) <= 0 with fractional beta")
        return s ** mb * math.exp(mg * t)
    return integrand


@pytest.mark.parametrize("beta, gamma, n, omega, alpha", [
    (2.0, 0.3, 3, 1.0, 0.3), (1.0, -0.2, 2, 1.3, 0.0),
    (1.5, 0.4, 2, 1.0, 0.0), (0.7, -0.1, 4, 0.8, 0.5),
])
def test_power_law_integrand_is_sin_pow_bit_for_bit(
        beta, gamma, n, omega, alpha, monkeypatch):
    """Integer and fractional beta, on and off the domain sin(theta) > 0."""
    made = _recorded_quadratures(monkeypatch)
    catalog.power_law(beta, gamma, 0.5, n, 2.0, omega, alpha,
                      (math.pi / 2.0 - alpha) / omega, True)
    integrand = made[0].integrand
    reference = _sin_pow_integrand(beta, gamma, n, omega, alpha)
    rng = random.Random(6)
    for t in [rng.uniform(-6.0, 6.0) for _ in range(200)]:
        if beta.is_integer() or math.sin(omega * t + alpha) > 0.0:
            assert integrand(t).hex() == reference(t).hex()
        else:
            with pytest.raises(DomainViolation, match="fractional beta"):
                integrand(t)


def test_time_quadrature_rejects_state_dependence():
    with pytest.raises(UnboundNameError):
        catalog.time_quadrature("x", "0", 1.0)
