"""Closed-form solutions of the deformed-oscillator family.

Each factory returns a CatalogSolution bundling the pointwise evaluator
x(t), its velocity, the generating DeformedOscillator, and the generated
second-order form, so any solution can be checked against the ODE it is
claimed to solve.  Quadrature-backed evaluators accumulate their integrals
with numerics.CumulativeIntegral: certified Chebyshev pieces on a grid
fixed by the origin, which keeps them smooth enough to finite-difference.
"""

from __future__ import annotations

import functools
import math

from .deform import (
    POLE_GUARD,
    DeformedOscillator,
    generate_ode,
    pole_interval,
    pole_times,
)
from .exprdsl import bind
from .errors import (
    BracketZero,
    BranchViolation,
    CotangentPole,
    DegenerateParameters,
    DomainViolation,
    NoConvergence,
    NonSmoothPoint,
    NoRealRoot,
    SeriesDivergence,
)
from .numerics import CumulativeIntegral, _finite, integrate

CASE_IDS = ("harmonic", "time_quadrature", "case1", "case2", "case3",
            "case4_riccati", "case5_power", "case6", "case7")


class CatalogSolution:
    """A closed-form (or quadrature/root-finding backed) solution.

    evaluator(t) -> x and v_evaluator(t) -> xd are defined on `domain`
    (an open interval; poles and branch points excluded lazily by the
    evaluators).  osc/form expose the generating deformation and its
    second-order equation for residual checks; form is generated on first
    use.
    """

    def __init__(self, case_id, evaluator, v_evaluator, osc,
                 domain=(-math.inf, math.inf)):
        if case_id not in CASE_IDS:
            raise ValueError("unknown case_id %r" % (case_id,))
        self.case_id = case_id
        self.evaluator = evaluator
        self.v_evaluator = v_evaluator
        self.osc = osc
        self.domain = tuple(domain)

    @functools.cached_property
    def form(self):
        return generate_ode(self.osc)

    def __call__(self, t):
        return self.evaluator(t)


def _check_natural(n):
    """n as an int; ValueError unless it is an integer >= 2."""
    if not (isinstance(n, int) or (isinstance(n, float) and n.is_integer())):
        raise ValueError("n must be an integer, got %r" % (n,))
    n = int(n)
    if n < 2:
        raise ValueError("n must be >= 2, got %d" % n)
    return n


def _check_domain(domain, t):
    """Raise DomainViolation unless t lies in the open interval domain; a
    NaN or infinite t, which never does, raises a ValueError naming t."""
    lo, hi = domain
    if not lo < t < hi:
        _finite(t=t)
        raise DomainViolation(
            "t = %r outside the solution interval (%r, %r)" % (t, lo, hi))


# --- harmonic --------------------------------------------------------------------

def harmonic(A, omega=1.0, alpha=0.0):
    """x = A sin(omega*t + alpha)."""
    A, omega, alpha = _finite(A=A, omega=omega, alpha=alpha)
    osc = DeformedOscillator("0", "0", omega, alpha=alpha)

    def x_of_t(t):
        return A * math.sin(omega * t + alpha)

    def v_of_t(t):
        return A * omega * math.cos(omega * t + alpha)

    return CatalogSolution("harmonic", x_of_t, v_of_t, osc)


# --- t-only deformations: general quadrature and the two analytic specials ---------

def time_quadrature(f, g, A, omega=1.0, alpha=0.0):
    """General t-only deformation solved by quadrature in the pole
    march's amplitude frame: y = (x + g)/sin(theta) is A + g(t_ref) at the
    time t_ref where theta = pi/2, plus J(t), the integral from t_ref of
    the amplitude's slope osc.amplitude_slope, (g_t - f)/sin(theta); x and v
    are osc.amplitude_position and osc.amplitude_state at y.  J is a
    CumulativeIntegral, whose rule alone decides where x exists: it
    crosses a pole where g_t - f vanishes, and across one where it does
    not no piece certifies, so it raises NoConvergence naming t.  x and v
    read J(t) first, so a NaN or infinite t raises J's ValueError, which
    names t."""
    A, omega, alpha = _finite(A=A, omega=omega, alpha=alpha)
    osc = DeformedOscillator(bind(f, ("t",)), bind(g, ("t",)), omega,
                             alpha=alpha)
    # f and g read t alone: no view reads its x and v guesses, and the
    # slope reads no u
    t_ref = (math.pi / 2.0 - osc.alpha) / osc.omega
    J = CumulativeIntegral(lambda t: osc.amplitude_slope(0.0, 0.0, t, 0.0),
                           t_ref)
    y_ref = A + osc.g(t_ref, 0.0, 0.0)

    def x_of_t(t):
        return osc.amplitude_position(0.0, 0.0, t, y_ref + J(t))

    def v_of_t(t):
        return osc.amplitude_state(0.0, 0.0, t, y_ref + J(t))[1]

    return CatalogSolution("time_quadrature", x_of_t, v_of_t, osc)


def case1(f0, A, omega=1.0, alpha=0.0):
    """f = f0*sin(omega*t+alpha), g = 0:  x = (A - f0*t) sin(omega*t+alpha)."""
    f0, A, omega, alpha = _finite(f0=f0, A=A, omega=omega, alpha=alpha)
    osc = DeformedOscillator("%r*sin(%r*t + %r)" % (f0, omega, alpha), "0",
                             omega, alpha=alpha)

    def x_of_t(t):
        return (A - f0 * t) * math.sin(omega * t + alpha)

    def v_of_t(t):
        th = omega * t + alpha
        return -f0 * math.sin(th) + (A - f0 * t) * omega * math.cos(th)

    return CatalogSolution("case1", x_of_t, v_of_t, osc)


def case2(g0, n, A, omega=1.0, alpha=0.0):
    """g = g0*sin^n(omega*t+alpha), f = 0 (n integer > 1):
    x = sin(theta)*[A + g0*sin^(n-1)(theta)/(n-1)]."""
    n = _check_natural(n)
    g0, A, omega, alpha = _finite(g0=g0, A=A, omega=omega, alpha=alpha)
    osc = DeformedOscillator("0", "%r*sin(%r*t + %r)^%d" % (g0, omega, alpha, n),
                             omega, alpha=alpha)

    def x_of_t(t):
        s = math.sin(omega * t + alpha)
        return s * (A + g0 * s ** (n - 1) / (n - 1))

    def v_of_t(t):
        th = omega * t + alpha
        s = math.sin(th)
        return omega * math.cos(th) * (A + g0 * n * s ** (n - 1) / (n - 1))

    return CatalogSolution("case2", x_of_t, v_of_t, osc)


# --- power-law deformation of x with linear damping -----------------------------------

def power_law(beta, gamma, delta, n, A, w, al, t_ref, quadrature):
    """Evaluators of x = sin^beta(theta) e^(gamma*t) B(t)^(1/(1-n)) and its
    velocity, the solution for g = (beta-1)*x, f = -gamma*x + delta*x^n:

        B = A + (n-1)*delta*Int_{t_ref}^t sin^((n-1)beta)(theta) e^((n-1)gamma*tau) dtau.

    Returns (x_of_t, v_of_t, domain).  Where (n-1)*beta = 1 the integral has
    the elementary antiderivative
    e^(m gamma t)(m gamma sin(theta) - w cos(theta))/((m gamma)^2 + w^2),
    m = n-1, used unless `quadrature` is set.  For non-integer beta the
    domain is the interval around t_ref where sin(theta) > 0
    (DomainViolation outside).  Raises BracketZero where |B| is below
    1e-12*(1+|A|), BranchViolation where B < 0 with n > 2, and
    BracketZero where B has a zero between t_ref and t.  A NaN or infinite
    argument, an omega <= 0, or a NaN or infinite t given to an evaluator,
    raises a ValueError that names it.
    """
    beta, gamma, delta, A, w, al, t_ref = _finite(
        beta=beta, gamma=gamma, delta=delta, A=A, omega=w, alpha=al,
        t_ref=t_ref)
    if not w > 0.0:
        raise ValueError("omega must be > 0, got %r" % w)
    beta_integer = beta.is_integer()
    if beta_integer:
        domain = (-math.inf, math.inf)
    else:
        domain = pole_interval(w, al, t_ref)
        if math.sin(w * t_ref + al) < 0.0:
            raise DomainViolation(
                "fractional beta needs sin(omega*t_ref+alpha) > 0")

    def sin_pow(s, p):
        if beta_integer:
            return s ** int(p)
        if s <= 0.0:
            raise DomainViolation("sin(theta) <= 0 with fractional beta")
        return s ** p

    m = n - 1
    mb, mg, md = m * beta, m * gamma, m * delta
    if mb == 1.0 and not quadrature:
        den = mg * mg + w * w

        def anti(t):
            th = w * t + al
            return math.exp(mg * t) * (mg * math.sin(th)
                                       - w * math.cos(th)) / den

        ref = anti(t_ref)

        def accumulated(t):
            return anti(t) - ref
    else:
        # sin_pow's floats, with the branch on beta taken once
        if beta_integer:
            km = int(mb)

            def integrand(t):
                return math.sin(w * t + al) ** km * math.exp(mg * t)
        else:
            def integrand(t):
                s = math.sin(w * t + al)
                if s <= 0.0:
                    raise DomainViolation(
                        "sin(theta) <= 0 with fractional beta")
                return s ** mb * math.exp(mg * t)
        accumulated = CumulativeIntegral(integrand, t_ref)

    # B is monotone on each pole cell, where its integrand keeps one sign,
    # so it has a zero between t_ref and t exactly when B(t), or B at a
    # pole between them, has the sign opposite to A's.  B keeps A's sign at
    # each pole theta = n*pi with n strictly between the two ends of kept,
    # which widen one cell at a time.
    x_ref = (w * t_ref + al) / math.pi
    kept = [math.ceil(x_ref) - 1, math.floor(x_ref) + 1]

    def flips_at_a_pole(t, x):
        """Whether B has the sign opposite to A's at a pole between t_ref
        and t, x = theta(t)/pi; if not, kept widens to the cell of t."""
        for tp in pole_times(w, al, *sorted((t_ref, t))):
            if A * (A + md * accumulated(tp)) < 0.0:
                return True
        if t > t_ref:
            kept[1] = math.floor(x) + 1
        else:
            kept[0] = math.ceil(x) - 1
        return False

    def bracket(t):
        B = A + md * accumulated(t)
        if abs(B) < 1e-12 * (1.0 + abs(A)):
            raise BracketZero("bracket vanishes at t = %r" % (t,))
        if B < 0.0 and n != 2:
            raise BranchViolation(
                "bracket %r is not on the real branch for n = %d at t = %r"
                % (B, n, t))
        x = (w * t + al) / math.pi
        if A * B < 0.0 or not kept[0] < x < kept[1] and flips_at_a_pole(t, x):
            raise BracketZero("bracket changes sign between t_ref = %r and "
                              "t = %r" % (t_ref, t))
        return B

    p = 1.0 / (1 - n)

    def scaled(q, B):
        """q * B^(1/(1-n)); a division at n = 2, where B may be negative."""
        return q / B if n == 2 else q * B ** p

    def x_of_t(t):
        t = float(t)
        _check_domain(domain, t)
        B = bracket(t)
        q = sin_pow(math.sin(w * t + al), beta) * math.exp(gamma * t)
        return scaled(q, B)

    def v_of_t(t):
        t = float(t)
        _check_domain(domain, t)
        B = bracket(t)
        th = w * t + al
        s = math.sin(th)
        e = math.exp(gamma * t)
        xq = scaled(sin_pow(s, beta) * e, B)
        dq = beta * w * math.cos(th) * sin_pow(s, beta - 1.0) * e
        return scaled(dq, B) + gamma * xq - delta * xq ** n

    return x_of_t, v_of_t, domain


def case3(beta, gamma, delta, n, A, omega=1.0, alpha=0.0):
    """g = (beta-1)*x, f = -gamma*x + delta*x^n (n integer > 1), with B = A
    at theta = pi/2; see power_law for the solution, its domain and its
    errors."""
    n = _check_natural(n)
    beta, gamma, delta, A, omega, alpha = _finite(
        beta=beta, gamma=gamma, delta=delta, A=A, omega=omega, alpha=alpha)
    osc = DeformedOscillator("%r*x + %r*x^%d" % (-gamma, delta, n),
                             "%r*x" % (beta - 1.0), omega, alpha=alpha)
    x_of_t, v_of_t, domain = power_law(beta, gamma, delta, n, A, omega,
                                       alpha, (math.pi / 2.0 - alpha) / omega,
                                       False)
    return CatalogSolution("case3", x_of_t, v_of_t, osc, domain)


# --- quadratic velocity shift (Riccati-type first integral) ----------------------------

_DENSE_CHUNK = 0.25
_DENSE_RTOL = 1e-12
_DENSE_ATOL = 1e-14


def _case4_parameters(mu, nu, omega, alpha, t0, x0):
    """The arguments of the quadratic shift as floats, t0 by default the
    time where theta = pi/2; mu = 0 raises DegenerateParameters, and a NaN
    or infinite argument, or an omega <= 0, a ValueError that names it."""
    mu = float(mu)
    if mu == 0.0:
        raise DegenerateParameters("mu = 0 degenerates the quadratic shift")
    omega, alpha = float(omega), float(alpha)
    # the negated test refuses NaN as well
    if not 0.0 < omega < math.inf:
        raise ValueError("omega must be finite and > 0, got %r" % omega)
    if t0 is None:
        t0 = (math.pi / 2.0 - alpha) / omega
    return _finite(mu=mu, nu=nu, omega=omega, alpha=alpha, t0=t0, x0=x0)


def case4_riccati(mu, nu, omega=1.0, alpha=0.0, t0=None, x0=0.5):
    """f = mu*x^2 + nu, g = 0: first integral
    xd = omega*cot(theta)*x - mu*x^2 - nu.

    nu = 0 admits the closed form x = sin(theta)/D(t) with
    D = 1/y0 + (mu/omega)(cos(theta0) - cos(theta)); the solution is global
    until D vanishes.  For nu != 0 the evaluator integrates the first
    integral on the pole interval containing t0 (the trajectory has
    logarithmic velocity divergence at the poles, so the natural domain is
    one inter-pole interval): each side of t0 once, on its first query, as
    one dense solution from (t0, x0) to the last breakpoint
    t0 +- k*_DENSE_CHUNK at least one chunk from the pole.  A time beyond
    that breakpoint is integrated afresh from it, so a value depends on t
    alone, not on the order of earlier queries.  A NaN or infinite argument
    raises a ValueError that names it.
    """
    mu, nu, omega, alpha, t0, x0 = _case4_parameters(mu, nu, omega, alpha,
                                                     t0, x0)
    w, al = omega, alpha
    th0 = w * t0 + al
    s0 = math.sin(th0)
    if abs(s0) < POLE_GUARD:
        raise CotangentPole("t0 sits on a pole")
    osc = DeformedOscillator("%r*x^2 + %r" % (mu, nu), "0", omega, alpha=alpha)

    if nu == 0.0:
        y0 = x0 / s0
        if y0 == 0.0:
            # x identically zero
            return CatalogSolution("case4_riccati", lambda t: 0.0,
                                   lambda t: 0.0, osc)
        c0 = math.cos(th0)

        def D(t):
            return 1.0 / y0 + (mu / w) * (c0 - math.cos(w * t + al))

        # domain: nearest zeros of D around t0 (D depends on cos(theta))
        target = c0 + w / (mu * y0)
        if abs(target) >= 1.0:
            domain = (-math.inf, math.inf)
        else:
            # D vanishes on the two families theta = s + 2*pi*k, s = +-dth;
            # each family's zeros at k and k + 1 bracket theta0
            dth = math.acos(target)
            below, above = [], []
            for s in (dth, -dth):
                k = math.floor((th0 - s) / (2.0 * math.pi))
                below.append((s + 2.0 * math.pi * k - al) / w)
                above.append((s + 2.0 * math.pi * (k + 1) - al) / w)
            domain = (max(below), min(above))

        def x_of_t(t):
            _check_domain(domain, t)
            return math.sin(w * t + al) / D(t)

        def v_of_t(t):
            _check_domain(domain, t)
            th = w * t + al
            xq = math.sin(th) / D(t)
            return w * math.cos(th) / D(t) - mu * xq * xq

        return CatalogSolution("case4_riccati", x_of_t, v_of_t, osc, domain)

    lo, hi = pole_interval(w, al, t0)

    def rhs(t, x):
        th = w * t + al
        return w * math.cos(th) / math.sin(th) * x - mu * x * x - nu

    def dense(ta, xa, tb):
        return integrate(rhs, ta, xa, tb,
                         rtol=_DENSE_RTOL, atol=_DENSE_ATOL)[0]

    # each side's last breakpoint, and x integrated once from t0 to it
    ends = {s: t0 + s * max(0, math.floor(d / _DENSE_CHUNK) - 1) * _DENSE_CHUNK
            for s, d in ((1, hi - t0), (-1, t0 - lo))}
    side = functools.cache(lambda s: dense(t0, x0, ends[s]))

    def x_of_t(t):
        t = float(t)
        _check_domain((lo, hi), t)
        if t == t0:
            return x0
        s = 1 if t > t0 else -1
        T = ends[s]
        if s * (t - T) <= 0.0:
            return side(s)(t)
        return dense(T, side(s)(T) if T != t0 else x0, t)(t)

    def v_of_t(t):
        return rhs(t, x_of_t(t))

    return CatalogSolution("case4_riccati", x_of_t, v_of_t, osc, (lo, hi))


# --- F(a, b; a+b+1; z), the logarithmic case m = 1 of A&S 15.3.11 ----------------------

_Z_SWITCH = 0.6
_PAIR_TOL = 3e-13
_PAIR_TERMS = 200
_EULER_GAMMA = 0.5772156649015329


def _digamma(x):
    """psi(x) = Gamma'(x)/Gamma(x) at a finite x off the poles: the
    reflection psi(1 - x) - pi cot(pi x) below 1/2, the recurrence
    psi(x + 1) - 1/x up to x >= 10, and there the asymptotic series
    through x^-14, whose first omitted term is below 5e-17."""
    if x < 0.5:
        # cot(pi x) from x - round(x), which is exact
        return (_digamma(1.0 - x)
                - math.pi / math.tan(math.pi * (x - round(x))))
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    y = 1.0 / (x * x)
    return acc + math.log(x) - 0.5 / x - y * (
        1.0 / 12 - y * (1.0 / 120 - y * (1.0 / 252 - y * (
            1.0 / 240 - y * (1.0 / 132 - y * (691.0 / 32760 - y / 12))))))


def _contracts_from(ratio, last):
    """The least j >= 1 with |ratio(i)| <= 1 for every i >= j, where that
    holds for every i > last."""
    j = 1
    for i in range(1, last + 1):
        if abs(ratio(i)) > 1.0:
            j = i + 1
    return j


def _grown(table, k, entry):
    """table[0], a tuple of entry(0), entry(1), ..., swapped for one at
    least k + 1 long (twice as long, plus 16): a sum never sees its tuple
    change, whichever thread grows it."""
    tab = table[0]
    if len(tab) <= k:
        tab += tuple(entry(j) for j in range(len(tab), 2 * len(tab) + 16))
        table[0] = tab
    return tab


def _hyp2f1_m1(a, b):
    """F(a, b; c; z) and dF/dz at c = a + b + 1, for case4_series's a + b =
    -1/2 and 1/2, as a function value(z, s) -> (F, dF/dz, terms summed) of
    z >= 0 and s = 1 - z > 0, s as the caller has it (case4_series passes
    sin^2(theta), which keeps the digits that 1 - cos^2(theta) cancels near
    a pole).

    Where a or b is a non-positive integer, 1/Gamma vanishes there and the
    Gauss series is a polynomial, summed at every z.  Otherwise the Gauss
    series sums up to z = _Z_SWITCH, with dF/dz from the same terms t_k:
    d_k = (k+1) t_(k+1)/z = t_k (a+k)(b+k)/(c+k).  Above it A&S 15.3.11
    with m = 1 sums in s:

        F = A0 + A1 s sum_n e_n (ln s + h_n),
        dF/dz = -A1 sum_n e_n ((n+1)(ln s + h_n) + 1),

    e_n = (a+1)_n (b+1)_n s^n/(n! (n+1)!), A0 = Gamma(c)/(Gamma(a+1)
    Gamma(b+1)), A1 = a b A0 and h_n = psi(a+n+1) + psi(b+n+1) - psi(n+1)
    - psi(n+2), by recurrence from h_0; A0, A1 and h_0 are computed here,
    once, and each branch's z-free term ratios in a table grown on demand.
    Past the terms whose ratio exceeds its limit z (or s), each sum stops
    when geometric bounds on the tails of F and of dF/dz fall to _PAIR_TOL
    of |F| and of |dF/dz|; NoConvergence after _PAIR_TERMS terms.  The
    bounds need q_n = (a+n)(b+n)/(n(n+1)) < 1 from some n on, as for
    a + b < 1.  At a = b = 1 (verify's F(1, 1; 3; z)) q_n = (n+1)/n, and
    from z = 0.1 to 1 - 1e-12 the error measures 2.6e-15 of |F| and 1.6e-13
    of 1 + |dF/dz|.

    The switch z = 0.6 was measured on case4_series's benchmark grid
    (mu*nu/omega^2 near 0.4, z up to 0.81): its time per sample is flat
    within 3% for a switch from 0.55 to 0.7, and no sum then runs past 55
    terms for mu*nu/omega^2 from -1/4 to 400.  At 400 both series cancel
    terms up to 1e6 times larger than F and dF/dz around z = 0.5, which
    leaves errors up to 5e-11 (up to 9e-11 with the switch at 0.7); from
    -1/4 to 100 they stay within 3e-13 (1 + |value|)."""
    c = a + b + 1.0
    ab = a * b
    # past last, every factor is positive and g_k/k and q_n are below 1
    last = math.ceil(max(-a, -b, ab, ab / (1.0 - a - b))) + 1
    # t_(k+1)/t_k = g_k z/(k+1) and d_(k+1)/d_k = g_(k+1) z/(k+1)
    gauss_ratios = [()]

    def g(k):
        return (a + k) * (b + k) / (c + k)

    k0 = _contracts_from(lambda k: g(k) / k, last) - 1
    if any(p <= 0.0 and p.is_integer() for p in (a, b)):
        z_switch = math.inf
    else:
        z_switch = _Z_SWITCH
        A0 = math.gamma(c) / (math.gamma(a + 1.0) * math.gamma(b + 1.0))
        A1 = ab * A0
        inv_ab = 1.0 / ab
        h0 = (2.0 * _EULER_GAMMA - 1.0 + _digamma(a + 1.0)
              + _digamma(b + 1.0))
        # e_(n+1)/e_n = q_(n+1) s and h_(n+1) - h_n
        connection_steps = [()]

        def q(n):
            return (a + n) * (b + n) / (n * (n + 1.0))

        def step(n):
            n += 1.0
            return q(n), (1.0 / (a + n) + 1.0 / (b + n) - 1.0 / n
                          - 1.0 / (n + 1.0))

        n0 = _contracts_from(q, last) - 2

    def gauss(z):
        if z == 0.0:
            return 1.0, ab / c, 1
        K = _PAIR_TOL * (1.0 - z) / z     # tail <= |last term| z/(1 - z)
        tab = gauss_ratios[0]
        t = F = 1.0
        dF = 0.0
        for k in range(_PAIR_TERMS):
            try:
                gk = tab[k]
            except IndexError:
                tab = _grown(gauss_ratios, k, g)
                gk = tab[k]
            d = t * gk                  # d_k
            dF += d
            t = d * z / (k + 1)         # t_(k+1)
            F += t
            if k >= k0 and abs(t) <= K * abs(F) and abs(d) <= K * abs(dF):
                return F, dF, k + 1
        raise NoConvergence("2F1 series did not converge in %d terms"
                            % _PAIR_TERMS)

    def connection(s):
        L = math.log(s)
        KF = _PAIR_TOL * (1.0 - s) / s
        KD = _PAIR_TOL * (1.0 - s) ** 2
        tab = connection_steps[0]
        e, h = 1.0, h0
        S = dS = 0.0
        for n in range(_PAIR_TERMS):
            try:
                qn, dh = tab[n]
            except IndexError:
                tab = _grown(connection_steps, n, step)
                qn, dh = tab[n]
            br = L + h
            S += e * br
            dS += e * ((n + 1) * br + 1.0)
            e *= qn * s                 # e_(n+1)
            h += dh
            if n >= n0:
                # the tails from term n+1 on, over |A1|
                B = abs(e) * (abs(L) + abs(h))
                if (B <= KF * abs(inv_ab + s * S)
                        and (n + 2) * B + abs(e) <= KD * abs(dS)):
                    return A0 + A1 * s * S, -A1 * dS, n + 1
        raise NoConvergence("2F1 connection series did not converge in %d "
                            "terms" % _PAIR_TERMS)

    def value(z, s):
        return gauss(z) if z <= z_switch else connection(s)

    return value


def case4_series(mu, nu, omega=1.0, alpha=0.0, t0=None, x0=0.5):
    """Hypergeometric-series path for the quadratic-shift case.

    The substitution x = ud/(mu*u), tau = -omega*cos(theta) maps the first
    integral to u'' + (mu*nu/omega^2)/(1-w^2) u = 0 in w = tau/omega, solved
    by the even/odd pair
        phi1 = F(a, b; 1/2; w^2),  phi2 = w F(a+1/2, b+1/2; 3/2; w^2)
    with a+b = -1/2, ab = -(mu*nu/omega^2)/4.  Returns an evaluator t -> x.
    Both series have c = a+b+1, so a sample is two calls of _hyp2f1_m1's
    value, one per pair, at z = cos^2(theta) and 1 - z = sin^2(theta);
    each sums one loop, of at most 55 terms for mu*nu/omega^2 up to 400,
    anywhere in the period.  On a pole, where sin^2(theta) is 0, x is its
    limit 0: x falls like sin(theta)*ln|sin(theta)| there.  A t0 within
    POLE_GUARD of a pole raises CotangentPole, and u = 0 at a sample
    SeriesDivergence.  A NaN or infinite argument, or t, raises a
    ValueError that names it, and so does a mu*nu/omega^2 below -1/4 or
    above 400, past which the sums lose digits.
    """
    mu, nu, omega, alpha, t0, x0 = _case4_parameters(mu, nu, omega, alpha,
                                                     t0, x0)
    w_freq, al = omega, alpha
    lam = mu * nu / w_freq ** 2
    root = math.sqrt(1.0 + 4.0 * lam) if 1.0 + 4.0 * lam >= 0 else None
    if root is None:
        raise ValueError("mu*nu/omega^2 < -1/4 leaves the real series pair")
    if lam > 400.0:
        raise ValueError("mu*nu/omega^2 > 400 is past the range the series "
                         "is certified in")
    a = -0.25 - 0.25 * root
    b = -0.25 + 0.25 * root
    pair1 = _hyp2f1_m1(a, b)
    pair2 = _hyp2f1_m1(a + 0.5, b + 0.5)

    def phis(th, sn):
        """phi1, phi2 and their w-derivatives at theta, sn = sin(theta)."""
        wv = -math.cos(th)
        z, s = wv * wv, sn * sn
        F1, dF1, _ = pair1(z, s)
        F2, dF2, _ = pair2(z, s)
        return F1, wv * F2, 2.0 * wv * dF1, F2 + 2.0 * z * dF2

    th0 = w_freq * t0 + al
    s0 = math.sin(th0)
    if abs(s0) < POLE_GUARD:
        raise CotangentPole("t0 sits on a pole")
    p1, p2, dp1, dp2 = phis(th0, s0)
    # u(t0) = C1 phi1 + C2 phi2 = omega s0 W(phi1, phi2) = omega s0 != 0
    C1 = w_freq * s0 * dp2 - mu * x0 * p2
    C2 = -(w_freq * s0 * dp1 - mu * x0 * p1)

    def x_of_t(t):
        if not math.isfinite(t):
            _finite(t=t)
        th = w_freq * t + al
        sn = math.sin(th)
        if sn * sn == 0.0:
            return 0.0
        p1, p2, dp1, dp2 = phis(th, sn)
        u = C1 * p1 + C2 * p2
        if u == 0.0:
            raise SeriesDivergence("series denominator vanished at t = %r" % t)
        return w_freq * sn * (C1 * dp1 + C2 * dp2) / (mu * u)

    return x_of_t


# --- power-law position deformation -----------------------------------------------------

def case5_power(g0, n, A, omega=1.0, alpha=0.0):
    """g = g0*x^n, f = 0 (n integer > 1): implicit solution
    x (1 + g0 x^(n-1))^(-1/(n-1)) = A sin(theta) on the branch through x = 0.

    With m = n-1 and T = A sin(theta), raising the law to the m-th power
    gives x^m / (1 + g0 x^m) = T^m, so x = T (1 - g0 T^m)^(-1/m) in closed
    form; no real x exists where 1 - g0 T^m <= 0."""
    n = _check_natural(n)
    g0, A, omega, alpha = _finite(g0=g0, A=A, omega=omega, alpha=alpha)
    w, al = omega, alpha
    osc = DeformedOscillator("0", "%r*x^%d" % (g0, n), omega, alpha=alpha)
    m = n - 1

    def x_of_t(t):
        target = A * math.sin(w * t + al)
        base = 1.0 - g0 * target ** m
        if base <= 0.0:
            raise NoRealRoot(
                "implicit relation has no real solution at t = %r "
                "(target %r)" % (t, target))
        return target * base ** (-1.0 / m)

    def v_of_t(t):
        xq = x_of_t(t)
        G = g0 * xq ** m
        return w * A * math.cos(w * t + al) * (1.0 + G) ** (float(n) / m)

    return CatalogSolution("case5_power", x_of_t, v_of_t, osc)


# --- linear velocity shift ----------------------------------------------------------------

def case6(b, c1, omega=1.0, alpha=0.0):
    """f = -(3/4)v + b, g = 0:
    x = (1/(3*omega)) [2b sin(2theta) + 8b sin^3 cos + 3 c1 omega sin^4]."""
    b, c1, omega, alpha = _finite(b=b, c1=c1, omega=omega, alpha=alpha)
    w, al = omega, alpha
    osc = DeformedOscillator("-0.75*v + %r" % b, "0", omega, alpha=alpha)

    def x_of_t(t):
        th = w * t + al
        s = math.sin(th)
        c = math.cos(th)
        return (2.0 * b * math.sin(2.0 * th) + 8.0 * b * s ** 3 * c
                + 3.0 * c1 * w * s ** 4) / (3.0 * w)

    def v_of_t(t):
        th = w * t + al
        s = math.sin(th)
        c = math.cos(th)
        return ((4.0 * b / 3.0) * math.cos(2.0 * th)
                + (8.0 * b / 3.0) * (3.0 * s * s * c * c - s ** 4)
                + 4.0 * c1 * w * s ** 3 * c)

    return CatalogSolution("case6", x_of_t, v_of_t, osc)


# --- linear velocity deformation of position ------------------------------------------------

def case7(c, A, omega=1.0, alpha=0.0):
    """g = c*v, f = 0:
    x = A e^(-c*omega*theta/(1+c^2 omega^2)) |c omega cos(theta) - sin(theta)|^(1/(1+c^2 omega^2)).

    The solution is smooth between consecutive zeros of
    c*omega*cos(theta) - sin(theta); the velocity is undefined at those
    zeros (NonSmoothPoint)."""
    c, A, omega, alpha = _finite(c=c, A=A, omega=omega, alpha=alpha)
    w, al = omega, alpha
    osc = DeformedOscillator("0", "%r*v" % c, omega, alpha=alpha)
    k = 1.0 / (1.0 + c * c * w * w)

    def _branch_arg(th):
        return c * w * math.cos(th) - math.sin(th)

    def x_of_t(t):
        th = w * t + al
        q = _branch_arg(th)
        if q == 0.0:
            return 0.0
        return A * math.exp(-c * w * th * k) * abs(q) ** k

    def v_of_t(t):
        th = w * t + al
        q = _branch_arg(th)
        if abs(q) < 1e-9:
            raise NonSmoothPoint(
                "velocity undefined where c*omega*cos = sin (t = %r)" % (t,))
        return w * math.cos(th) * x_of_t(t) / (math.sin(th) - c * w * math.cos(th))

    return CatalogSolution("case7", x_of_t, v_of_t, osc)
