"""Phase-space deformation machinery.

A harmonic oscillator in the deformed coordinates (x+g, xd+f) obeys

    (xd + f) = omega * cot(omega*t + alpha) * (x + g)

for arbitrary C^1 deformations f(t,x,v), g(t,x,v).  Eliminating the
cotangent produces a generalized Lienard-type second-order ODE whose
coefficients are assembled here symbolically from f, g and their partial
derivatives.  The module also provides the phase (generating) function,
the deformed energy and its exact rate law, the time-varying-frequency ODE
generation, and a quadratic-damping family with a complex tanh phase law.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import (
    CotangentPole,
    DegenerateParameters,
    ImplicitNoRoot,
    NonSmoothPoint,
    SingularCoefficient,
    ZeroDenominator,
)
from .exprdsl import (
    Num,
    Var,
    add,
    array_function,
    bind,
    depends_on,
    differentiate,
    div,
    function,
    mul,
    powe,
    sub,
)
from .numerics import (
    cheb_interp,
    cheb_nodes_diff,
    integrate,
    sample_trajectory,
    solve_elementwise,
    solve_scalar,
)

# the variables of a deformation and of a generated coefficient
_TXV = ("t", "x", "v")

# |sin(omega*t + alpha)| below which the explicit slope field is refused
_POLE_GUARD = 1e-9


class DeformedOscillator:
    """A harmonic oscillator composed with deformations x -> x+g, xd -> xd+f.

    f and g may be Expr trees or source strings over the variables t, x, v;
    named parameters are bound through `params` at construction.  omega is
    the base frequency (> 0) and alpha the phase constant of the first
    integral.
    """

    def __init__(self, f, g, omega, alpha=0.0, params=None):
        f = bind(f, _TXV, params)
        g = bind(g, _TXV, params)
        if not omega > 0:
            raise ValueError("omega must be positive")
        self.omega = float(omega)
        self.alpha = float(alpha)
        self.exprs = {"f": f, "g": g,
                      "f_t": differentiate(f, "t"),
                      "f_x": differentiate(f, "x"),
                      "f_v": differentiate(f, "v"),
                      "g_t": differentiate(g, "t"),
                      "g_x": differentiate(g, "x"),
                      "g_v": differentiate(g, "v")}
        for name, tree in self.exprs.items():
            setattr(self, name, function(tree, _TXV))
        self.f_depends_v = depends_on(f, "v")
        self.g_depends_v = depends_on(g, "v")

    def theta(self, t):
        return self.omega * t + self.alpha

    # what only the amplitude-frame march uses is built on its first use,
    # so an oscillator that never marches costs only its partials

    @functools.cached_property
    def g_depends_x(self):
        return depends_on(self.exprs["g"], "x")

    @functools.cached_property
    def numerator_exprs(self):
        """The trees of dg/dt - f = g_t + g_x*v - f for v-independent g,
        and of its x-partial g_tx + g_xx*v - f_x."""
        e = self.exprs
        v = Var("v")
        return (sub(add(e["g_t"], mul(e["g_x"], v)), e["f"]),
                sub(add(differentiate(e["g_t"], "x"),
                        mul(differentiate(e["g_x"], "x"), v)), e["f_x"]))

    @functools.cached_property
    def numerator(self):
        """dg/dt - f (numerator_exprs) as one function of (t, x, v)."""
        return function(self.numerator_exprs[0], _TXV)

    @functools.cached_property
    def transit_arrays(self):
        """Array forms (exprdsl.array_function) of what the pole transit
        reads, from the trees in exprs: (g, g_x) of (t, x); (f, f_v) of
        (t, x, v); and (numerator, numerator_x, g_x, f_v, f_x) of
        (t, x, v), the numerator and the partials of its slope."""
        e = self.exprs
        return (array_function((e["g"], e["g_x"]), ("t", "x")),
                array_function((e["f"], e["f_v"]), _TXV),
                array_function(self.numerator_exprs
                               + (e["g_x"], e["f_v"], e["f_x"]), _TXV))


class OdeForm:
    """Second-order form  coeff_xdd*xdd + coeff_xd*xd + remainder = 0.

    Coefficients are Expr trees in (t, x, v), kept in `exprs` for printing
    and evaluated as functions of (t, x, v).
    """

    def __init__(self, coeff_xdd, coeff_xd, remainder):
        self.exprs = {"coeff_xdd": coeff_xdd, "coeff_xd": coeff_xd,
                      "remainder": remainder}
        self.coeff_xdd = function(coeff_xdd, _TXV)
        self.coeff_xd = function(coeff_xd, _TXV)
        self.remainder = function(remainder, _TXV)

    def residual(self, t, x, v, a):
        return (self.coeff_xdd(t, x, v) * a
                + self.coeff_xd(t, x, v) * v
                + self.remainder(t, x, v))


def generate_ode(osc):
    """Assemble the generalized Lienard form generated by (f, g, omega).

    The construction substitutes f, g and their six partials into a fixed
    template; no simplification beyond constant folding is attempted.
    Correctness is established by residual checks, not by the printed shape.
    """
    e = osc.exprs
    f, g = e["f"], e["g"]
    f_t, f_x, f_v = e["f_t"], e["f_x"], e["f_v"]
    g_t, g_x, g_v = e["g_t"], e["g_x"], e["g_v"]
    x = Var("x")
    v = Var("v")
    xpg = add(x, g)
    w2 = Num(osc.omega ** 2)

    coeff_xdd = sub(mul(add(Num(1.0), f_v), xpg), mul(add(v, f), g_v))
    coeff_xd = sub(sub(mul(f_x, xpg), mul(f, sub(g_x, Num(1.0)))), g_t)
    remainder = sub(add(mul(xpg, add(f_t, mul(w2, xpg))),
                        sub(mul(f, f), mul(f, g_t))),
                    mul(mul(v, v), g_x))
    return OdeForm(coeff_xdd, coeff_xd, remainder)


def explicit_acceleration(form, state):
    """Solve the form for xdd at a phase-space point."""
    t, x, v = state
    c0 = form.coeff_xdd(t, x, v)
    if abs(c0) <= 1e-12:
        # plain floats, so a numpy scalar's repr np.float64(...) never
        # reaches the message
        raise SingularCoefficient(
            "coefficient of xdd is %r at t=%r, x=%r, v=%r"
            % (float(c0), float(t), float(x), float(v)))
    return -(form.coeff_xd(t, x, v) * v + form.remainder(t, x, v)) / c0


def first_integral_velocity(osc, t, x, v_start=0.0):
    """Velocity selected by the first integral at (t, x).

    Solves G(v) = (v+f)*sin(theta) - omega*cos(theta)*(x+g) = 0.  For
    v-independent f, g this reduces to the explicit slope field (with the
    cotangent-pole guard); when g depends on v the scaled form stays regular
    even at the poles of the cotangent, and Newton starts from v_start, which
    picks the root when the law has several.
    """
    th = osc.theta(t)
    s = math.sin(th)
    c = math.cos(th)
    w = osc.omega

    if not (osc.f_depends_v or osc.g_depends_v):
        if abs(s) < _POLE_GUARD:
            raise CotangentPole("sin(omega*t+alpha) = %r at t = %r" % (s, t))
        return w * c / s * (x + osc.g(t, x, 0.0)) - osc.f(t, x, 0.0)

    if abs(s) < _POLE_GUARD and not osc.g_depends_v:
        raise CotangentPole(
            "implicit velocity is singular at the pole when g is v-independent")

    def G(v):
        return (v + osc.f(t, x, v)) * s - w * c * (x + osc.g(t, x, v))

    def Gp(v):
        return _velocity_law_slope(osc, t, x, v)

    scale = abs(w * c * x) + abs(s) + 1.0
    return solve_scalar(G, Gp, v_start, 1e-13 * scale)


def _velocity_law_slope(osc, t, x, v):
    """G'(v) = (1+f_v)*sin(theta) - omega*cos(theta)*g_v, the v-derivative
    of first_integral_velocity's G; where it vanishes, the root v(t, x)
    folds and the velocity is not smooth."""
    th = osc.theta(t)
    return ((1.0 + osc.f_v(t, x, v)) * math.sin(th)
            - osc.omega * math.cos(th) * osc.g_v(t, x, v))


def phase_function(osc, state):
    """Ratio a/conj(a) with a = (v+f) - i*omega*(x+g); unit modulus for real
    states and real deformations; equals exp(-2i(omega*t+alpha)) on solutions."""
    t, x, v = state
    fa = osc.f(t, x, v)
    ga = osc.g(t, x, v)
    amp = complex(v + fa, -osc.omega * (x + ga))
    if amp == 0:
        raise ZeroDenominator("(v+f) and omega*(x+g) both vanish")
    return amp / amp.conjugate()


def energy(osc, state):
    """Deformed energy H = (v+f)^2 + omega^2 (x+g)^2 (non-negative)."""
    t, x, v = state
    fa = osc.f(t, x, v)
    ga = osc.g(t, x, v)
    return (v + fa) ** 2 + osc.omega ** 2 * (x + ga) ** 2


def energy_rate(osc, state, a=None):
    """Exact dH/dt along solutions: 2*omega^2*(x+g)*(dg/dt - f)/sin^2(theta).

    dg/dt is the total derivative g_t + g_x*v + g_v*a; the acceleration is
    required only when g depends on v.
    """
    t, x, v = state
    th = osc.theta(t)
    s = math.sin(th)
    if abs(s) < _POLE_GUARD:
        raise CotangentPole("sin(omega*t+alpha) = %r at t = %r" % (s, t))
    gdot = osc.g_t(t, x, v) + osc.g_x(t, x, v) * v
    if osc.g_depends_v:
        if a is None:
            raise ValueError("acceleration required: g depends on v")
        gdot += osc.g_v(t, x, v) * a
    ga = osc.g(t, x, v)
    fa = osc.f(t, x, v)
    return 2.0 * osc.omega ** 2 * (x + ga) * (gdot - fa) / (s * s)


def fit_alpha(osc, state):
    """Phase constant alpha consistent with the state under the first
    integral, normalized to (-pi, pi]; the branch makes sin(theta) carry the
    sign of x+g."""
    t, x, v = state
    fa = osc.f(t, x, v)
    ga = osc.g(t, x, v)
    num = osc.omega * (x + ga)
    den = v + fa
    if num == 0.0 and den == 0.0:
        raise ZeroDenominator("state sits at the deformed equilibrium")
    alpha = math.atan2(num, den) - osc.omega * t
    alpha = math.remainder(alpha, 2.0 * math.pi)
    if alpha <= -math.pi:
        alpha += 2.0 * math.pi
    return alpha


# --- first-integral integration driver -------------------------------------------

def _solve_position(osc, t, target, x_start):
    """Solve x + g(t, x) = target near x_start (g v-independent here);
    when g is free of x the solution is target - g(t)."""
    if not osc.g_depends_x:
        return target - osc.g(t, 0.0, 0.0)

    def h(x):
        return x + osc.g(t, x, 0.0) - target

    def hp(x):
        return 1.0 + osc.g_x(t, x, 0.0)

    return solve_scalar(h, hp, x_start, 1e-14)


def _solve_velocity(osc, t, x, target, v_start):
    """Solve v + f(t, x, v) = target for the velocity."""
    if not osc.f_depends_v:
        return target - osc.f(t, x, 0.0)

    def r(v):
        return v + osc.f(t, x, v) - target

    def rp(v):
        return 1.0 + osc.f_v(t, x, v)

    return solve_scalar(r, rp, v_start, 1e-14)


def _crossing_numerator(osc, t, y, s, c, x_start, v_start):
    """dg/dt - f at the state (x, v) of deformed amplitude y at time t,
    where s and c are sin and cos of theta(t): x solves x + g = y*s and v
    solves v + f = omega*y*c.  Returns (dg/dt - f, x, v)."""
    x = _solve_position(osc, t, y * s, x_start)
    vv = _solve_velocity(osc, t, x, osc.omega * y * c, v_start)
    return osc.numerator(t, x, vv), x, vv


def _crossing_numerators(osc, ts, Y, svec, cvec, xs, vs):
    """_crossing_numerator at every node at once, and the exact slope:
    returns the arrays (N, dN/dy, x, v), where x solves x + g = y*s from
    xs and v solves v + f = omega*y*c from vs (solve_elementwise, or the
    closed form when g is free of x or f of v), N = dg/dt - f, and dN/dy
    comes from implicit differentiation of both relations (g
    v-independent):

        dx/dy = s/(1 + g_x),   dv/dy = (omega*c - f_x*dx/dy)/(1 + f_v),
        dN/dy = (g_tx + g_xx*v - f_x)*dx/dy + (g_x - f_v)*dv/dy.

    Each element is bit for bit what the scalar functions give at its
    node.  A non-finite slope is returned as it is, without a warning.
    """
    position, velocity, numerator = osc.transit_arrays
    with np.errstate(all="ignore"):
        x_target = Y * svec
        if osc.g_depends_x:
            def position_law(x, t, target):
                g, g_x = position(t, x)
                return x + g - target, 1.0 + g_x

            x = solve_elementwise(position_law, xs, (ts, x_target), 1e-14,
                                  lambda i: _solve_position(
                                      osc, ts[i], x_target[i], xs[i]))
        else:  # g reads no x
            x = x_target - position(ts, xs)[0]
        v_target = osc.omega * Y * cvec
        if osc.f_depends_v:
            def velocity_law(v, t, x, target):
                f, f_v = velocity(t, x, v)
                return v + f - target, 1.0 + f_v

            v = solve_elementwise(velocity_law, vs, (ts, x, v_target), 1e-14,
                                  lambda i: _solve_velocity(
                                      osc, ts[i], x[i], v_target[i], vs[i]))
        else:  # f reads no v
            v = v_target - velocity(ts, x, vs)[0]
        N, N_x, g_x, f_v, f_x = numerator(ts, x, v)
        dx = svec / (1.0 + g_x)
        dv = (osc.omega * cvec - f_x * dx) / (1.0 + f_v)
        return N, N_x * dx + (g_x - f_v) * dv, x, v


def _poles_inside(osc, t0, t1, margin):
    """Cotangent pole times (n*pi - alpha)/omega strictly inside (t0, t1)."""
    w, al = osc.omega, osc.alpha
    n_lo = math.ceil((w * (t0 + margin) + al) / math.pi)
    n_hi = math.floor((w * (t1 - margin) + al) / math.pi)
    return [(n * math.pi - al) / w for n in range(n_lo, n_hi + 1)]


def _pole_transit(osc, a, b, pole, y_in, x_start, v_start):
    """Continue the deformed amplitude y = (x+g)/sin(theta) through the
    cotangent pole inside (a, b).

    Marching through the pole is ill-conditioned: the linearized amplitude
    equation has a mode ~ (t-pole)^k with k = (g_x - f_v)/(1 + f_v) at the
    crossing, which collapses below machine precision approaching the pole
    and re-expands afterwards, so any restart from local data loses the
    amplitude.  Instead the sine-multiplied equation

        sin(theta) * dy/dt = dg/dt - f      (regular at the pole)

    is collocated on Chebyshev nodes spanning the whole window with the
    left-edge value pinned, which recovers the re-expanding mode from the
    region where it is numerically visible.  Each Newton iteration solves
    every node's x and v in one array pass (_crossing_numerators, on the
    oscillator's transit_arrays), and its Jacobian sin(theta)*D -
    diag(dN/dy) is exact: dN/dy comes from implicit differentiation at
    each node's solved state.  Only the entry solve at the left edge and
    the smoothness test at the pole solve one state at a time.  Returns a
    polynomial interpolant for y on [a, b] through 48 nodes or, when a node
    lands on the pole, a few more.  The entry solves for x and v start from
    x_start and v_start.  Raises NonSmoothPoint when no smooth crossing
    exists: the numerator does not vanish at the pole, or an iterate's
    amplitude leaves the range of x + g (or of v + f) at some node.
    """
    for bump in range(4):
        ts, D = cheb_nodes_diff(47 + bump, a, b)
        thetas = [osc.theta(t) for t in ts.tolist()]
        svec = np.array([math.sin(th) for th in thetas])
        # a node sitting on the pole would contribute a zero row; node 0 is
        # exempt because its row is replaced by the boundary condition
        # (which is what allows a window that starts exactly on the pole)
        if np.min(np.abs(svec[1:])) > 1e-8:
            break
    cvec = np.array([math.cos(th) for th in thetas])
    m = len(ts)

    # the entry solves start from the initial condition; later solves at
    # a node start where that node's last iteration ended
    num0, x0, v0 = _crossing_numerator(osc, ts[0], y_in, svec[0], cvec[0],
                                       x_start, v_start)
    xs = np.full(m, x0)
    vs = np.full(m, v0)
    if abs(svec[0]) > 1e-8:
        Y = y_in + (num0 / svec[0]) * (ts - ts[0])
    else:
        Y = np.full(m, float(y_in))
    scale = 1.0 + abs(y_in)
    fail = NonSmoothPoint(
        "no smooth continuation of the deformed amplitude y = (x+g)/sin "
        "through the pole t = %r; the deformation leaves the crossing "
        "velocity unbounded there" % pole)

    converged = False
    for _ in range(30):
        try:
            N, dN, xs, vs = _crossing_numerators(osc, ts, Y, svec, cvec,
                                                 xs, vs)
        except ImplicitNoRoot as exc:
            raise NonSmoothPoint(
                "no smooth continuation of the deformed amplitude y = "
                "(x+g)/sin through the pole t = %r: at a collocation node "
                "the amplitude left the range of x + g = y*sin(theta) or "
                "of v + f = omega*y*cos(theta) (%s)" % (pole, exc)) from exc
        F = svec * (D @ Y) - N
        F[0] = Y[0] - y_in
        if not (np.all(np.isfinite(F)) and np.all(np.isfinite(dN))):
            raise fail
        J = svec[:, None] * D - np.diag(dN)
        J[0, :] = 0.0
        J[0, 0] = 1.0
        # rows whose sine and dN both vanish (neutral crossings) make the
        # raw system numerically singular; equilibrate before judging
        # convergence or solving
        r = np.max(np.abs(J), axis=1)
        r[r == 0.0] = 1.0
        if np.max(np.abs(F / r)) <= 1e-12 * scale:
            converged = True
            break
        try:
            step = np.linalg.solve(J / r[:, None], F / r)
        except np.linalg.LinAlgError:
            raise fail
        Y -= step
        if not np.all(np.isfinite(Y)):
            raise fail
        if np.max(np.abs(step)) <= 1e-14 * (1.0 + np.max(np.abs(Y))):
            converged = True
            break
    if not converged:
        raise fail

    interp = cheb_interp(ts, Y)
    # a smooth crossing requires the numerator to vanish with the sine
    k = int(np.argmin(np.abs(ts - pole)))
    num_p = _crossing_numerator(osc, pole, interp(pole), 0.0,
                                math.cos(osc.theta(pole)), xs[k], vs[k])[0]
    n_scale = 1.0 + float(np.max(np.abs(N)))
    if abs(num_p) > 1e-6 * n_scale:
        raise fail
    return interp


def integrate_first_integral(osc, t0, x0, t1, t_eval=None, v0=None,
                             rtol=1e-10, atol=1e-12):
    """Integrate dx/dt given by the first integral from (t0, x0) to t1 > t0.

    The slope field has cotangent poles at t_n = (n*pi - alpha)/omega, where
    solutions cross x+g = 0.  For v-independent g the driver works in the
    deformed amplitude y = (x+g)/sin(theta): it marches dy/dt between
    poles and crosses each pole by spectral collocation of the regular
    sine-multiplied equation (see _pole_transit); x is recovered by solving
    x + g(t,x) = y*sin(theta) and v from v + f = omega*y*cos(theta), so no
    quantity is ever divided by a small sine.  When g depends on v the
    scaled first integral is regular at the poles and no splitting is
    performed; a fold of the velocity law, where the v-derivative of G
    leaves the sign it has at the start, raises NonSmoothPoint naming its t.

    Every Newton solve for x starts from x0 and every one for v from v0
    (by default the first integral's velocity at (t0, x0)), so a law with
    several roots stays on the initial condition's branch.  When t0 sits on
    a pole, v0 also pins the crossing amplitude.  meta["x_of_t"] and
    meta["v_of_t"] are the dense solution; their values depend on t alone,
    and the states are their values at t_eval (see sample_trajectory).
    """
    if not t1 > t0:
        raise ValueError("driver requires t1 > t0")
    w = osc.omega
    delta = 1e-6 / w

    start_pole = None
    if abs(math.sin(osc.theta(t0))) < 2.0 * w * delta:
        if osc.g_depends_v:
            raise CotangentPole("initial time sits on a cotangent pole; "
                                "start the span away from "
                                "(n*pi - alpha)/omega")
        # starting exactly on a crossing: x+g must vanish and v0 pins the
        # deformed amplitude through y = (v+f)/(omega*cos(theta))
        if v0 is None:
            raise CotangentPole("initial time sits on a cotangent pole; "
                                "provide v0 to pin the crossing amplitude")
        if abs(x0 + osc.g(t0, x0, v0)) > 1e-9 * (1.0 + abs(x0)):
            raise CotangentPole("initial position is off the crossing "
                                "x+g = 0 at a pole start")
        start_pole = (round(osc.theta(t0) / math.pi) * math.pi
                      - osc.alpha) / w

    if osc.g_depends_v:
        # regular at poles: integrate straight through, up to a fold of the
        # velocity law, where G'(v) leaves the sign it has at the start
        v_start = 0.0 if v0 is None else v0
        slope0 = _velocity_law_slope(
            osc, t0, x0, first_integral_velocity(osc, t0, x0, v_start))

        def x_rhs(t, x):
            v = first_integral_velocity(osc, t, x, v_start)
            if not _velocity_law_slope(osc, t, x, v) * slope0 > 0.0:
                raise NonSmoothPoint(
                    "the velocity law G(v) = (v+f)*sin(theta) - "
                    "omega*cos(theta)*(x+g) = 0 folds at t = %r: G'(v) "
                    "leaves the sign it has at the start" % t)
            return v

        x_dense, = integrate(x_rhs, t0, x0, t1, rtol=rtol, atol=atol)

        def state_at(tq):
            x = x_dense(tq)
            return x, first_integral_velocity(osc, float(tq), x, v_start)

        return sample_trajectory(state_at, t0, t1, t_eval,
                                 {"alpha": osc.alpha, "poles_crossed": []})

    if v0 is None:
        v0 = first_integral_velocity(osc, t0, x0)

    # v-independent g: march the deformed amplitude between poles and hand
    # each pole window to the collocation transit
    poles = _poles_inside(osc, t0, t1, 2.0 * delta)
    half = 0.3 / w           # collocation half-width around each pole

    def y_rhs(t, y):
        th = osc.theta(t)
        s, c = math.sin(th), math.cos(th)
        num, _, _ = _crossing_numerator(osc, t, y, s, c, x0, v0)
        return num / s

    if start_pole is None:
        y0 = (x0 + osc.g(t0, x0, 0.0)) / math.sin(osc.theta(t0))
    else:
        y0 = (v0 + osc.f(t0, x0, v0)) / (w * math.cos(osc.theta(t0)))
        if t1 > t0 + 1e-13:
            # the start pole is the first transit window, which begins at t0
            poles.insert(0, start_pole)
    pieces = []              # (lo, hi, y callable)
    poles_crossed = []

    cur_t, cur_y = t0, y0
    for p in poles:
        wa, wb = max(p - half, t0), min(p + half, t1)
        if cur_t < wa - 1e-13:
            y_dense, = integrate(y_rhs, cur_t, cur_y, wa,
                                 rtol=rtol, atol=atol)
            pieces.append((cur_t, wa, y_dense))
            cur_t, cur_y = wa, y_dense(wa)
        interp = _pole_transit(osc, cur_t, wb, p, cur_y, x0, v0)
        pieces.append((cur_t, wb, interp))
        cur_t, cur_y = wb, interp(wb)
        poles_crossed.append(p)
    if cur_t < t1 - 1e-13 or not pieces:
        y_dense, = integrate(y_rhs, cur_t, cur_y, t1, rtol=rtol, atol=atol)
        pieces.append((cur_t, t1, y_dense))

    def y_at(tq):
        for lo, hi, fn in pieces:
            if lo - 1e-12 <= tq <= hi + 1e-12:
                return fn(min(max(tq, lo), hi))
        raise ValueError("time %r outside the integrated span" % tq)

    def state_at(tq):
        tq = float(tq)
        y, th = y_at(tq), osc.theta(tq)
        x = _solve_position(osc, tq, y * math.sin(th), x0)
        return x, _solve_velocity(osc, tq, x, w * y * math.cos(th), v0)

    return sample_trajectory(state_at, t0, t1, t_eval,
                             {"alpha": osc.alpha,
                              "poles_crossed": poles_crossed})


# --- time-varying frequency --------------------------------------------------------

def generate_ode_time_varying(f, g, omega, params=None):
    """Second-order form for t-dependent deformations with frequency omega(t).

    The first integral is xd = omega(t)*cot(Phi(t)+alpha)*(x+g) - f with
    Phi the antiderivative of omega; eliminating the cotangent gives

        (x+g)*xdd + [(f - g') - (omega'/omega)(x+g)]*xd + f'(x+g)
          + omega^2 (x+g)^2 + f(f - g') - (omega'/omega) f (x+g) = 0.
    """
    f, g, omega = (bind(e, ("t",), params) for e in (f, g, omega))
    fp = differentiate(f, "t")
    gp = differentiate(g, "t")
    wp = differentiate(omega, "t")
    x = Var("x")
    xpg = add(x, g)
    lam = div(wp, omega)            # omega'/omega
    fmg = sub(f, gp)                # f - g'

    coeff_xdd = xpg
    coeff_xd = sub(fmg, mul(lam, xpg))
    remainder = sub(add(add(mul(fp, xpg), mul(powe(omega, Num(2.0)),
                                              mul(xpg, xpg))),
                        mul(f, fmg)),
                    mul(lam, mul(f, xpg)))
    return OdeForm(coeff_xdd, coeff_xd, remainder)


# --- quadratic-damping family with tanh phase law ------------------------------------

def riccati_family(b, omega):
    """Form  xdd + (b/omega)*xd^2/x - omega*(b-omega)*x = 0  (x != 0).

    Rejected degenerate parameters: b = omega collapses the linear term and
    b = 0 breaks the phase-law normalization.
    """
    if not omega > 0:
        raise ValueError("omega must be positive")
    if abs(b - omega) < 1e-12:
        raise DegenerateParameters("b = omega collapses the linear term")
    if abs(b) < 1e-12:
        raise DegenerateParameters("b = 0 is excluded by the phase law")
    x = Var("x")
    v = Var("v")
    coeff_xdd = Num(1.0)
    coeff_xd = mul(Num(b / omega), div(v, x))
    remainder = mul(Num(-omega * (b - omega)), x)
    return OdeForm(coeff_xdd, coeff_xd, remainder)


def riccati_phase(state, omega):
    """Phase function (v - i*omega*x)/(v + i*omega*x) of the plain oscillator."""
    t, x, v = state
    den = complex(v, omega * x)
    if den == 0:
        raise ZeroDenominator("v and omega*x both vanish")
    return complex(v, -omega * x) / den


def _riccati_s(b, omega):
    return cmath.sqrt(complex(b * b - omega * omega))


def riccati_fit_alpha(b, omega, state):
    """Complex phase constant alpha matching the tanh law at one state."""
    if abs(b) < 1e-12 or abs(b - omega) < 1e-12:
        raise DegenerateParameters("b = 0 and b = omega are excluded")
    s = _riccati_s(b, omega)
    X0 = riccati_phase(state, omega)
    target = 1j * (b * X0 + omega) / s
    return cmath.atanh(target) / s - state[0]


def riccati_phase_formula(b, omega, alpha):
    """The closed-form phase law  X(t) = -(omega + i*s*tanh(s*(t+alpha)))/b
    with s = sqrt(b^2 - omega^2) (imaginary s turns tanh into tan)."""
    s = _riccati_s(b, omega)

    def X(t):
        return -(omega + 1j * s * cmath.tanh(s * (t + alpha))) / b
    return X


def riccati_invariant(b, omega):
    """Conserved quantity of the family:
    E = v^2 * x^(2b/omega) - omega^2 (b-omega)/(b+omega) * x^(2(b+omega)/omega)."""
    if abs(b + omega) < 1e-12:
        raise DegenerateParameters("b = -omega degenerates the invariant")
    p = 2.0 * b / omega
    q = 2.0 * (b + omega) / omega
    k = omega * omega * (b - omega) / (b + omega)

    def E(x, v):
        return v * v * x ** p - k * x ** q
    return E
