"""Applications of the deformation construction.

Two consumers of the oscillator machinery: travelling-wave profiles of
reaction-convection-diffusion (RCD) systems, where the deformation pair
(f, g) generates the diffusion/convection/reaction coefficients, and the
large-amplitude cantilever beam equation, where a position deformation
g(u) built from asinh reproduces the velocity-squared coefficient.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import exprdsl
from .catalog import power_law
from .deform import OdeForm, generate_ode_time_varying, integrate_form
from .errors import (
    ApproxOutOfRegime,
    DomainViolation,
    NegativeAlpha,
    StepSizeUnderflow,
)
from .exprdsl import (
    Num,
    Var,
    _substitute,
    add,
    bind,
    differentiate,
    div,
    function,
    mul,
    taylor,
)
from .numerics import (
    CumulativeIntegral,
    _finite,
    fd_derivatives,
    residual_scan,
    sample_trajectory,
    solve_scalar,
)


class RcdSystem:
    """Travelling-wave RCD coefficients.

    D, B, Q are callables of u.  The equivalent phase-plane equation is

        u'' + alpha(u) u'^2 + beta(u) u' + gamma(u) = 0

    with alpha = (ln D)', beta = (Vf + B)/D, gamma = Q/D.  When the system
    was built from a deformation pair the exact coefficient callables are
    attached; otherwise they are recovered from D, B, Q numerically.
    """

    def __init__(self, D, B, Q, Vf=0.0, D0=1.0,
                 alpha=None, beta=None, gamma=None):
        self.Vf = float(Vf)
        self.D0 = float(D0)
        # the negated tests refuse NaN as well
        if not 0.0 <= self.Vf < math.inf:
            raise ValueError("Vf must be finite and >= 0, got %r" % self.Vf)
        if not 0.0 < self.D0 < math.inf:
            raise ValueError("D0 must be finite and > 0, got %r" % self.D0)
        self.D = D
        self.B = B
        self.Q = Q
        self._alpha = alpha
        self._beta = beta
        self._gamma = gamma

    def _dlnD(self, u):
        """(ln D)' by Richardson-extrapolated central differences of step
        1e-5."""
        def ln_d(x):
            d = self.D(x)
            if d <= 0.0:
                raise DomainViolation("D(u) <= 0 at u = %r" % (x,))
            return math.log(d)
        return fd_derivatives(ln_d, u, 1e-5)[1]

    def alpha(self, u):
        if self._alpha is not None:
            return self._alpha(u)
        return self._dlnD(u)

    def beta(self, u):
        if self._beta is not None:
            return self._beta(u)
        return (self.Vf + self.B(u)) / self.D(u)

    def gamma(self, u):
        if self._gamma is not None:
            return self._gamma(u)
        return self.Q(u) / self.D(u)

    def residual(self, xi, u, up, upp):
        """u'' + alpha(u) u'^2 + beta(u) u' + gamma(u) at one point."""
        return (upp + self.alpha(u) * up * up + self.beta(u) * up
                + self.gamma(u))


def rcd_from_fg(f, g, omega, Vf=0.0, D0=1.0):
    """Build the RCD coefficient triple generated by a deformation pair.

    f and g are expressions in u.  alpha, beta and gamma are read from the
    Lienard form of (f, g) in x = u (generate_ode_time_varying) over its
    xdd coefficient u + g: the u'^2 coefficient of the remainder, the xd
    coefficient and the remainder at u' = 0.  D = D0 exp(int_1^u alpha),
    B = beta*D - Vf, Q = gamma*D.  DomainViolation where u + g vanishes,
    and from D, B and Q where it does so or changes sign between 1 and u;
    a NaN or infinite omega, or u given to D, B or Q, raises a ValueError
    that names it.
    """
    omega, = _finite(omega=omega)
    form = generate_ode_time_varying(
        *(_substitute(bind(e, ("u",)), {"u": Var("x")}) for e in (f, g)),
        omega).exprs
    upg = form["coeff_xdd"]
    upg_fn = function(upg, ("x",))

    def over_upg(e):
        # e/(u + g) at u' = 0, as a function of u that refuses u + g = 0
        raw = function(_substitute(div(e, upg), {"v": Num(0.0)}), ("x",))

        def fn(uq):
            if abs(upg_fn(uq)) < 1e-300:
                raise DomainViolation("u + g vanishes at u = %r" % (uq,))
            return raw(uq)
        return fn

    alpha_fn = over_upg(mul(Num(0.5), differentiate(
        differentiate(form["remainder"], "v"), "v")))
    beta_fn = over_upg(form["coeff_xd"])
    gamma_fn = over_upg(form["remainder"])

    def same_side(s):
        # int_1^u alpha diverges through a zero of u + g: D checks its u
        # and each node of its quadrature
        if not upg_fn(s) * upg_fn(1.0) > 0.0:
            raise DomainViolation("u + g vanishes or changes sign between "
                                  "u = 1 and u = %r" % (s,))
        return s

    accum = CumulativeIntegral(lambda s: alpha_fn(same_side(s)), 1.0)

    def D(uq):
        uq, = _finite(u=uq)
        return D0 * math.exp(accum(same_side(uq)))

    # B and Q take D first, which refuses a NaN or infinite u by name
    def B(uq):
        d = D(uq)
        return beta_fn(uq) * d - Vf

    def Q(uq):
        d = D(uq)
        return gamma_fn(uq) * d

    return RcdSystem(D, B, Q, Vf=Vf, D0=D0,
                     alpha=alpha_fn, beta=beta_fn, gamma=gamma_fn)


def rcd_power_family(beta, gamma, delta, omega=1.0, Vf=0.0, D0=1.0):
    """Closed-form coefficients for g = (beta-1)u, f = -gamma*u + delta*u^2:

        D(u) = D0 u^((1-beta)/beta)
        B(u) = [-2 gamma/beta + (beta+2) delta u / beta] D(u) - Vf
        Q(u) = [omega^2 beta u + u (gamma - delta u)^2 / beta] D(u)

    valid on u > 0 (the D exponent is fractional in general).  A NaN or
    infinite parameter raises a ValueError that names it.
    """
    b, gam, dlt, w = _finite(beta=beta, gamma=gamma, delta=delta,
                             omega=omega)
    if b == 0.0:
        raise ValueError("beta must be nonzero")
    expo = (1.0 - b) / b

    def check(u):
        if u <= 0.0 and expo != 0.0:
            raise DomainViolation("power-family coefficients need u > 0")

    def D(u):
        check(u)
        return D0 * u ** expo

    def alpha_fn(u):
        if expo == 0.0:
            return 0.0
        check(u)
        return expo / u

    def beta_fn(u):
        return -2.0 * gam / b + (b + 2.0) * dlt * u / b

    def gamma_fn(u):
        return w * w * b * u + u * (gam - dlt * u) ** 2 / b

    def B(u):
        return beta_fn(u) * D(u) - Vf

    def Q(u):
        return gamma_fn(u) * D(u)

    return RcdSystem(D, B, Q, Vf=Vf, D0=D0,
                     alpha=alpha_fn, beta=beta_fn, gamma=gamma_fn)


def rcd_travelling_wave(params, force_quadrature=False):
    """Travelling-wave profile for the power family, which is
    catalog.case3 at n = 2:

        u(xi) = sin^beta(theta) e^(gamma xi) / B(xi),
        B = A + delta * int_{xi_ref}^xi sin^beta(theta) e^(gamma tau) dtau,

    theta = omega*xi + alpha.  For beta = 1 the integral has a closed
    antiderivative, used unless force_quadrature is set.  Raises
    BracketZero where B vanishes and DomainViolation outside the
    sin(theta) > 0 interval when beta is fractional, and a ValueError
    naming a NaN or infinite parameter, xi_ref as t_ref, or an omega <= 0
    (see catalog.power_law).
    """
    w = float(params.get("omega", 1.0))
    al = float(params.get("alpha", 0.0))
    # the default xi_ref, where theta = pi/2, needs omega > 0; power_law
    # refuses any other omega, whatever xi_ref is
    xi_ref = float(params.get("xi_ref", (math.pi / 2.0 - al) / w
                              if w > 0.0 else 0.0))
    return power_law(float(params["beta"]), float(params["gamma"]),
                     float(params["delta"]), 2, float(params["A"]), w, al,
                     xi_ref, force_quadrature)[0]


def rcd_residual(sys, u_of_xi, xi_samples):
    """Max absolute residual of u'' + alpha(u)u'^2 + beta(u)u' + gamma(u)
    along a profile (see RcdSystem.residual and numerics.residual_scan)."""
    return residual_scan(sys, u_of_xi, xi_samples)


# --- cantilever beam ---------------------------------------------------------------

class BeamModel:
    """Dimensionless large-deflection beam oscillator

        u'' + alpha u/(1+alpha u^2) u'^2
            + omega^2 [u + (beta-alpha) u^3/(1+alpha u^2)] = 0

    A NaN or infinite coefficient raises a ValueError that names it.
    """

    def __init__(self, alpha_coef, beta_coef, omega=1.0, c1=0.0):
        self.alpha_coef, self.beta_coef, self.omega, self.c1 = _finite(
            alpha_coef=alpha_coef, beta_coef=beta_coef, omega=omega, c1=c1)
        if not self.omega > 0.0:
            raise ValueError("omega must be > 0")


def beam_g_expr(model):
    """Position deformation generating the beam's u'^2 coefficient:

        g(u) = 0.5 [ (2 sqrt(alpha) c1 + asinh(sqrt(alpha) u))
                     / sqrt(alpha (1 + alpha u^2)) - u ]
    """
    a = model.alpha_coef
    if a <= 0.0:
        raise NegativeAlpha("the asinh construction needs alpha > 0")
    r = math.sqrt(a)  # a float: no evaluation computes it again
    text = ("0.5*((2*%r*%r + asinh(%r*u))"
            "/sqrt(%r*(1 + %r*u^2)) - u)" % (r, model.c1, r, a, a))
    return exprdsl.parse(text)


def beam_g(model):
    return function(beam_g_expr(model), ("u",))


def beam_h_expr(model):
    """Cubic restoring correction h(u) = (beta-alpha) u^3/(1+alpha u^2),
    as products: a huge u gives inf, where a power raises EvalDomainError."""
    a, b = model.alpha_coef, model.beta_coef
    return exprdsl.parse("(%r)*(u*u*u)/(1 + %r*u*u)" % (b - a, a))


def _beam_form(model):
    """BeamModel's equation as an OdeForm in (t, x, v), x = u, h from
    beam_h_expr: xdd + alpha x/(1 + alpha x^2)*v*xd + omega^2 (x + h)."""
    a, w, x = model.alpha_coef, model.omega, Var("x")
    h = _substitute(beam_h_expr(model), {"u": x})
    return OdeForm(Num(1.0), exprdsl.parse("%r*x/(1 + %r*x*x)*v" % (a, a)),
                   mul(Num(w * w), add(x, h)))


SeriesComparison = namedtuple("SeriesComparison",
                              ["g_coeffs", "h_coeffs", "max_mismatch"])


def beam_series_compare(model, order=6):
    """Taylor coefficients of g(u) and h(u) about u = 0 up to `order`,
    plus their largest coefficient mismatch (the approximation g ~ h is
    the basis of the closed-form beam solution).  The coefficients are
    read from the trees of beam_g_expr and beam_h_expr by exprdsl.taylor,
    with no symbolic differentiation; verify's
    beam/cubic-coefficients-symbolic check derives the cubic ones
    symbolically, as an independent oracle.  A non-integral order raises
    a ValueError that names it."""
    if isinstance(order, float) and order.is_integer():
        order = int(order)
    if not (isinstance(order, int) and 0 <= order <= 6):
        raise ValueError("order must be an integer from 0 to 6, got %r"
                         % (order,))
    g_coeffs = taylor(beam_g_expr(model), "u", 0.0, order)
    h_coeffs = taylor(beam_h_expr(model), "u", 0.0, order)
    mism = max(abs(gc - hc) for gc, hc in zip(g_coeffs, h_coeffs))
    return SeriesComparison(tuple(g_coeffs), tuple(h_coeffs), mism)


def _beam_implicit_funcs(model):
    """F(u) = u exp(int_0^u rho), rho = -(g/s)/(s+g) with g from beam_g
    (-g/(s(s+g)) underflows near s = 1e-160); d ln F/du = 1/(u+g), so
    F(u(t)) = K sin(omega t + phi) is the first integral of the pair (0, g).
    G = F/(u+g) = dF/du.  c1 = 0 gives g = O(u^3): g/u, rho are 0 at 0."""
    g_fn = beam_g(model)

    def rho(s):
        g = g_fn(s)
        return -(g / s) / (s + g) if s else 0.0

    Q = CumulativeIntegral(rho, 0.0)

    def F(u):
        return u * math.exp(Q(float(u)))

    def G(u):
        return math.exp(Q(float(u))) / (1.0 + (g_fn(u) / u if u else 0.0))

    return F, G, g_fn


def beam_solve(model, mode, ic, t_span, t_eval=None,
               rtol=1e-10, atol=1e-12):
    """Integrate the beam oscillator.

    mode "direct" marches the beam's OdeForm (_beam_form) in (u, du/dt)
    with deform.integrate_form, for any alpha; a start with 1 + alpha u0^2
    <= 0 raises DomainViolation, and so does a march that reaches
    1 + alpha u^2 = 0, naming its t and u.  mode "approx" evaluates the
    closed-form implicit solution F(u) = K sin(omega t + phi) of the pair
    (0, beam_g), exact when the cubic correction h matches the deformation
    series — hence gated to beta = 2*alpha/3 (and c1 = 0), the regime where
    that holds through u^3.  verify checks it against DOP853 on the ODE of the
    pair, marched by integrate_form as well.

    meta["x_of_t"] and meta["v_of_t"] give u and du/dt; their values depend
    on t alone, and the states are their values at t_eval (see
    sample_trajectory).
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must be increasing")
    u0, v0 = float(ic[0]), float(ic[1])

    if mode == "direct":
        if not 1.0 + model.alpha_coef * u0 * u0 > 0.0:
            raise DomainViolation("direct mode needs 1 + alpha*u0^2 > 0, "
                                  "got u0 = %r" % u0)
        try:
            x_of_t, v_of_t = integrate_form(_beam_form(model), t0, (u0, v0),
                                            t1, rtol=rtol, atol=atol)
        except StepSizeUnderflow as exc:
            # the coefficients diverge as 1 + alpha u^2 falls to 0, and the
            # steps shrink to nothing just before it
            u = exc.state[0]
            if 1.0 + model.alpha_coef * u * u > 1e-6:
                raise
            raise DomainViolation(
                "direct mode reached 1 + alpha*u^2 = 0 at t = %r, u = %r"
                % (exc.t, u)) from exc
        return sample_trajectory(lambda t: (x_of_t(t), v_of_t(t)),
                                 t0, t1, t_eval)

    if mode != "approx":
        raise ValueError("mode must be 'approx' or 'direct'")
    a, b, w = model.alpha_coef, model.beta_coef, model.omega
    if a <= 0.0:
        raise NegativeAlpha("approximate mode needs alpha > 0")
    if abs(b - 2.0 * a / 3.0) > 1e-9:
        raise ApproxOutOfRegime(
            "closed-form mode requires beta = 2*alpha/3; got beta = %r"
            % (b,))
    if model.c1 != 0.0:
        raise ApproxOutOfRegime("closed-form mode requires c1 = 0")

    F, G, g_fn = _beam_implicit_funcs(model)
    F0, G0 = F(u0), G(u0)
    th0 = math.atan2(F0, v0 * G0 / w)
    K = math.hypot(F0, v0 * G0 / w)
    if K == 0.0:
        return sample_trajectory(lambda t: (0.0, 0.0), t0, t1, t_eval)
    phi = th0 - w * t0

    def law(u, target):
        return F(u) - target, G(u)

    def state_at(t):
        t = float(t)
        # F(u) ~ u near 0, so the target itself is a guess from t alone
        target = K * math.sin(w * t + phi)
        u = solve_scalar(law, target, 1e-14, target)
        return u, w * K * math.cos(w * t + phi) / G(u)

    return sample_trajectory(state_at, t0, t1, t_eval)
