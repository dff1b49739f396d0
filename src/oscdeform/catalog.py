"""Closed-form solutions of the deformed-oscillator family.

Each factory returns a CatalogSolution bundling the pointwise evaluator
x(t), its velocity, the generating DeformedOscillator, and the generated
second-order form, so any solution can be checked against the ODE it is
claimed to solve.  Quadrature-backed evaluators accumulate their integrals
with fixed-order Gauss-Legendre panels, which keeps them smooth enough to
finite-difference.
"""

from __future__ import annotations

import functools
import math
import warnings

from .deform import DeformedOscillator, generate_ode
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
    PoleInRange,
    SeriesDivergence,
)
from .numerics import CumulativeIntegral, integrate

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


def _check_natural(n, least=2):
    if not (isinstance(n, int) or (isinstance(n, float) and n.is_integer())):
        raise ValueError("n must be an integer, got %r" % (n,))
    n = int(n)
    if n < least:
        raise ValueError("n must be >= %d, got %d" % (least, n))
    return n


def _pole_interval(omega, alpha, t_ref):
    """The open interval between consecutive zeros of sin(omega*t+alpha)
    containing t_ref."""
    th = omega * t_ref + alpha
    k = math.floor(th / math.pi)
    if th == k * math.pi:
        raise CotangentPole("reference time sits on a pole")
    lo = (k * math.pi - alpha) / omega
    hi = ((k + 1) * math.pi - alpha) / omega
    return lo, hi


def _check_domain(domain, t):
    """Raise DomainViolation unless t lies in the open interval domain."""
    lo, hi = domain
    if not lo < t < hi:
        raise DomainViolation(
            "t = %r outside the solution interval (%r, %r)" % (t, lo, hi))


# --- harmonic --------------------------------------------------------------------

def harmonic(A, omega=1.0, alpha=0.0):
    """x = A sin(omega*t + alpha)."""
    A, omega, alpha = float(A), float(omega), float(alpha)
    osc = DeformedOscillator("0", "0", omega, alpha=alpha)

    def x_of_t(t):
        return A * math.sin(omega * t + alpha)

    def v_of_t(t):
        return A * omega * math.cos(omega * t + alpha)

    return CatalogSolution("harmonic", x_of_t, v_of_t, osc)


# --- t-only deformations: general quadrature and the two analytic specials ---------

def time_quadrature(f, g, A, omega=1.0, alpha=0.0, t_ref=None):
    """General t-only deformation solved by quadrature:
    x = sin(theta)*[A + I(t)] with
    I = integral of (omega*cos(theta)*g - f*sin(theta))/sin^2(theta)."""
    osc = DeformedOscillator(bind(f, ("t",)), bind(g, ("t",)), omega,
                             alpha=alpha)
    A = float(A)
    w, al = osc.omega, osc.alpha
    if t_ref is None:
        t_ref = (math.pi / 2.0 - al) / w
    th_ref = w * t_ref + al
    if abs(math.sin(th_ref)) < 1e-9:
        raise CotangentPole("reference time sits on a pole")

    def integrand(t):
        th = w * t + al
        s = math.sin(th)
        return (w * math.cos(th) * osc.g(t, 0.0, 0.0)
                - osc.f(t, 0.0, 0.0) * s) / (s * s)

    I = CumulativeIntegral(integrand, t_ref)
    checked = {}

    def _guard_span(t):
        """Refuse integration spans that cross a pole where the integrand
        blows up (the accumulated quadrature would be garbage there)."""
        lo, hi = (t_ref, t) if t >= t_ref else (t, t_ref)
        n_lo = math.ceil((w * lo + al) / math.pi - 1e-12)
        n_hi = math.floor((w * hi + al) / math.pi + 1e-12)
        for n in range(n_lo, n_hi + 1):
            p = (n * math.pi - al) / w
            if not lo - 1e-12 <= p <= hi + 1e-12:
                continue
            flag = checked.get(n)
            if flag is None:
                far = max(abs(integrand(p - 1e-3)), abs(integrand(p + 1e-3)))
                near = max(abs(integrand(p - 1e-6)), abs(integrand(p + 1e-6)))
                flag = near > 100.0 * max(far, 1.0)
                checked[n] = flag
            if flag:
                raise PoleInRange(
                    "quadrature from %r to %r crosses the pole t = %r where "
                    "the integrand is unbounded" % (t_ref, t, p))

    def x_of_t(t):
        _guard_span(t)
        return math.sin(w * t + al) * (A + I(t))

    def v_of_t(t):
        _guard_span(t)
        th = w * t + al
        s = math.sin(th)
        if abs(s) < 1e-9:
            raise CotangentPole("velocity requested at a pole t = %r" % (t,))
        c = math.cos(th)
        return (w * c * (A + I(t))
                + w * c / s * osc.g(t, 0.0, 0.0) - osc.f(t, 0.0, 0.0))

    return CatalogSolution("time_quadrature", x_of_t, v_of_t, osc)


def case1(f0, A, omega=1.0, alpha=0.0):
    """f = f0*sin(omega*t+alpha), g = 0:  x = (A - f0*t) sin(omega*t+alpha)."""
    f0, A, omega, alpha = float(f0), float(A), float(omega), float(alpha)
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
    g0, A, omega, alpha = float(g0), float(A), float(omega), float(alpha)
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
    1e-12*(1+|A|) and BranchViolation where B < 0 with n > 2.
    """
    beta_integer = beta.is_integer()
    if beta_integer:
        domain = (-math.inf, math.inf)
    else:
        domain = _pole_interval(w, al, t_ref)
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
        accumulated = CumulativeIntegral(
            lambda t: sin_pow(math.sin(w * t + al), mb) * math.exp(mg * t),
            t_ref)

    def bracket(t):
        B = A + md * accumulated(t)
        if abs(B) < 1e-12 * (1.0 + abs(A)):
            raise BracketZero("bracket vanishes at t = %r" % (t,))
        if B < 0.0 and n != 2:
            raise BranchViolation(
                "bracket %r is not on the real branch for n = %d at t = %r"
                % (B, n, t))
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


def case3(beta, gamma, delta, n, A, omega=1.0, alpha=0.0, t_ref=None):
    """g = (beta-1)*x, f = -gamma*x + delta*x^n (n integer > 1); see
    power_law for the solution, its domain and its errors."""
    n = _check_natural(n)
    beta, gamma, delta = float(beta), float(gamma), float(delta)
    A, omega, alpha = float(A), float(omega), float(alpha)
    osc = DeformedOscillator("%r*x + %r*x^%d" % (-gamma, delta, n),
                             "%r*x" % (beta - 1.0), omega, alpha=alpha)
    if t_ref is None:
        t_ref = (math.pi / 2.0 - alpha) / omega
    x_of_t, v_of_t, domain = power_law(beta, gamma, delta, n, A, omega,
                                       alpha, t_ref, False)
    return CatalogSolution("case3", x_of_t, v_of_t, osc, domain)


# --- quadratic velocity shift (Riccati-type first integral) ----------------------------

_DENSE_CHUNK = 0.25
_DENSE_RTOL = 1e-12
_DENSE_ATOL = 1e-14


class _LazyDense:
    """Piecewise dense solution of dx/dt = rhs(t, x) from (t0, x0) within
    the open interval (lo, hi).

    Each side of t0 is cut at the fixed breakpoints t0 +- k*_DENSE_CHUNK.
    The dense pieces between them are integrated on demand, in order from
    t0, and cached; no breakpoint lies within one chunk of lo or hi.  A
    query beyond the last breakpoint integrates from it to t.  A value thus
    depends on t alone, not on the order of earlier queries.
    """

    def __init__(self, rhs, t0, x0, lo, hi):
        self.rhs = rhs
        self.t0 = float(t0)
        self.x0 = float(x0)
        self.lo = float(lo)
        self.hi = float(hi)
        # per side: the breakpoint states, and the dense pieces between them
        self._nodes = {+1: [(self.t0, self.x0)], -1: [(self.t0, self.x0)]}
        self._pieces = {+1: [], -1: []}
        self._full = {side: max(0, math.floor(dist / _DENSE_CHUNK) - 1)
                      for side, dist in ((+1, self.hi - self.t0),
                                         (-1, self.t0 - self.lo))}

    def _dense(self, ta, xa, tb):
        return integrate(self.rhs, ta, xa, tb,
                         rtol=_DENSE_RTOL, atol=_DENSE_ATOL)[0]

    def __call__(self, t):
        t = float(t)
        _check_domain((self.lo, self.hi), t)
        if t == self.t0:
            return self.x0
        side = 1 if t > self.t0 else -1
        nodes, pieces = self._nodes[side], self._pieces[side]
        full = self._full[side]
        k = min(int(abs(t - self.t0) // _DENSE_CHUNK), full)
        while len(pieces) < min(k + 1, full):
            ta, xa = nodes[-1]
            tb = self.t0 + side * len(nodes) * _DENSE_CHUNK
            piece = self._dense(ta, xa, tb)
            pieces.append(piece)
            nodes.append((tb, piece(tb)))
        if k < full:
            return pieces[k](t)
        ta, xa = nodes[k]
        if t == ta:
            return xa
        return self._dense(ta, xa, t)(t)


def case4_riccati(mu, nu, omega=1.0, alpha=0.0, t0=None, x0=0.5):
    """f = mu*x^2 + nu, g = 0: first integral
    xd = omega*cot(theta)*x - mu*x^2 - nu.

    nu = 0 admits the closed form x = sin(theta)/D(t) with
    D = 1/y0 + (mu/omega)(cos(theta0) - cos(theta)); the solution is global
    until D vanishes.  For nu != 0 the evaluator integrates the first
    integral lazily on the pole interval containing t0 (the trajectory has
    logarithmic velocity divergence at the poles, so the natural domain is
    one inter-pole interval).
    """
    mu, nu = float(mu), float(nu)
    omega, alpha = float(omega), float(alpha)
    if mu == 0.0:
        raise DegenerateParameters("mu = 0 degenerates the quadratic shift")
    w, al = omega, alpha
    if t0 is None:
        t0 = (math.pi / 2.0 - al) / w
    t0, x0 = float(t0), float(x0)
    th0 = w * t0 + al
    s0 = math.sin(th0)
    if abs(s0) < 1e-9:
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
            dth = math.acos(target)   # theta = +-dth (mod 2pi) zero D
            cands = []
            for k in range(-3, 4):
                for sgn in (dth, -dth):
                    cands.append((sgn + 2.0 * math.pi * k - al) / w)
            below = [c for c in cands if c < t0]
            above = [c for c in cands if c > t0]
            domain = (max(below) if below else -math.inf,
                      min(above) if above else math.inf)

        def x_of_t(t):
            _check_domain(domain, t)
            return math.sin(w * t + al) / D(t)

        def v_of_t(t):
            _check_domain(domain, t)
            th = w * t + al
            xq = math.sin(th) / D(t)
            return w * math.cos(th) / D(t) - mu * xq * xq

        return CatalogSolution("case4_riccati", x_of_t, v_of_t, osc, domain)

    lo, hi = _pole_interval(w, al, t0)

    def rhs(t, x):
        th = w * t + al
        return w * math.cos(th) / math.sin(th) * x - mu * x * x - nu

    dense = _LazyDense(rhs, t0, x0, lo, hi)

    def v_of_t(t):
        return rhs(t, dense(t))

    return CatalogSolution("case4_riccati", dense, v_of_t, osc, (lo, hi))


# --- Gauss hypergeometric series -------------------------------------------------------

def hyp2f1(a, b, c, z, rtol=1e-12):
    """Gauss series sum_k (a)_k (b)_k / (c)_k z^k / k! for |z| < 1."""
    if abs(z) >= 1.0:
        raise ValueError("series requires |z| < 1, got z = %r" % (z,))
    if float(c).is_integer() and c <= 0.0:
        raise ValueError("c must not be a non-positive integer")
    term = 1.0
    total = 1.0
    for k in range(10000):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        total += term
        if term == 0.0:
            return total
        # geometric bound on the remaining tail from the next term ratio
        nxt = abs((a + k + 1) * (b + k + 1) / ((c + k + 1) * (k + 2.0)) * z)
        if nxt < 1.0 and abs(term) * nxt / (1.0 - nxt) <= 0.3 * rtol * abs(total):
            return total
    raise NoConvergence("2F1 series did not converge in %d terms" % (k + 1))


def hyp2f1_deriv(a, b, c, z):
    """d/dz 2F1(a,b;c;z) = (a b / c) 2F1(a+1, b+1; c+1; z)."""
    return a * b / c * hyp2f1(a + 1.0, b + 1.0, c + 1.0, z)


def case4_series(mu, nu, omega=1.0, alpha=0.0, t0=None, x0=0.5):
    """Hypergeometric-series path for the quadratic-shift case.

    The substitution x = ud/(mu*u), tau = -omega*cos(theta) maps the first
    integral to u'' + (mu*nu/omega^2)/(1-w^2) u = 0 in w = tau/omega, solved
    by the even/odd pair
        phi1 = F(a, b; 1/2; w^2),  phi2 = w F(a+1/2, b+1/2; 3/2; w^2)
    with a+b = -1/2, ab = -(mu*nu/omega^2)/4.  Returns an evaluator t -> x.
    Near |w| -> 1 the series representation degenerates; the evaluator then
    falls back to the direct integration path with a warning.
    """
    mu, nu = float(mu), float(nu)
    omega, alpha = float(omega), float(alpha)
    if mu == 0.0:
        raise DegenerateParameters("mu = 0 degenerates the quadratic shift")
    w_freq, al = omega, alpha
    if t0 is None:
        t0 = (math.pi / 2.0 - al) / w_freq
    t0, x0 = float(t0), float(x0)
    lam = mu * nu / w_freq ** 2
    root = math.sqrt(1.0 + 4.0 * lam) if 1.0 + 4.0 * lam >= 0 else None
    if root is None:
        raise ValueError("mu*nu/omega^2 < -1/4 leaves the real series pair")
    a = -0.25 - 0.25 * root
    b = -0.25 + 0.25 * root

    def phi1(wv):
        return hyp2f1(a, b, 0.5, wv * wv)

    def dphi1(wv):
        return 2.0 * wv * hyp2f1_deriv(a, b, 0.5, wv * wv)

    def phi2(wv):
        return wv * hyp2f1(a + 0.5, b + 0.5, 1.5, wv * wv)

    def dphi2(wv):
        z = wv * wv
        return (hyp2f1(a + 0.5, b + 0.5, 1.5, z)
                + 2.0 * z * hyp2f1_deriv(a + 0.5, b + 0.5, 1.5, z))

    eps_hyp = 1e-3           # the series is not used this close to |w| = 1
    th0 = w_freq * t0 + al
    s0 = math.sin(th0)
    w0 = -math.cos(th0)
    if abs(w0) > 1.0 - eps_hyp:
        raise SeriesDivergence("t0 maps to |w| = %r too close to 1" % abs(w0))
    B1 = w_freq * s0 * dphi1(w0) - mu * x0 * phi1(w0)
    B2 = w_freq * s0 * dphi2(w0) - mu * x0 * phi2(w0)
    C1, C2 = B2, -B1
    if C1 == 0.0 and C2 == 0.0:
        raise ValueError("degenerate matching at t0")

    fallback = case4_riccati(mu, nu, omega, alpha, t0=t0, x0=x0)

    def x_of_t(t):
        th = w_freq * t + al
        wv = -math.cos(th)
        if abs(wv) > 1.0 - eps_hyp:
            warnings.warn("hypergeometric path degenerates at |w| = %r; "
                          "falling back to direct integration" % abs(wv))
            return fallback(t)
        u = C1 * phi1(wv) + C2 * phi2(wv)
        du = C1 * dphi1(wv) + C2 * dphi2(wv)
        if u == 0.0:
            raise SeriesDivergence("series denominator vanished at t = %r" % t)
        return w_freq * math.sin(th) * du / (mu * u)

    return x_of_t


# --- power-law position deformation -----------------------------------------------------

def case5_power(g0, n, A, omega=1.0, alpha=0.0):
    """g = g0*x^n, f = 0 (n integer > 1): implicit solution
    x (1 + g0 x^(n-1))^(-1/(n-1)) = A sin(theta) on the branch through x = 0.

    With m = n-1 and T = A sin(theta), raising the law to the m-th power
    gives x^m / (1 + g0 x^m) = T^m, so x = T (1 - g0 T^m)^(-1/m) in closed
    form; no real x exists where 1 - g0 T^m <= 0."""
    n = _check_natural(n)
    g0, A = float(g0), float(A)
    omega, alpha = float(omega), float(alpha)
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
    b, c1 = float(b), float(c1)
    omega, alpha = float(omega), float(alpha)
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
    c, A = float(c), float(A)
    omega, alpha = float(omega), float(alpha)
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
