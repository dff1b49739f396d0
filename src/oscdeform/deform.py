"""Phase-space deformation machinery.

A harmonic oscillator in the deformed coordinates (x+g, xd+f) obeys

    (xd + f) = omega * cot(omega*t + alpha) * (x + g)

for arbitrary C^1 deformations f(t,x,v), g(t,x,v).  Eliminating the
cotangent produces a generalized Lienard-type second-order ODE whose
coefficients are assembled here symbolically from f, g and their partial
derivatives by one template (_lienard), for a constant omega and for a
frequency omega(t).  The module also provides the phase (generating)
function, the deformed energy and its exact rate law, and a
quadratic-damping family with a complex tanh phase law.
"""

from __future__ import annotations

import cmath
import functools
import math
from bisect import bisect_right

import numpy as np

from .errors import (
    CotangentPole,
    DegenerateParameters,
    ImplicitNoRoot,
    NonSmoothPoint,
    SingularCoefficient,
    StepSizeUnderflow,
    ZeroDenominator,
)
from .exprdsl import (
    Num,
    Solve,
    Sub,
    Var,
    _substitute,
    add,
    bind,
    depends_on,
    differentiate,
    div,
    function,
    mul,
    parse,
    powe,
    sub,
)
from .numerics import (
    _finite,
    cheb_nodes_diff,
    cheb_series,
    integrate,
    sample_trajectory,
    solve_scalar,
)

# the variables of a deformation and of a generated coefficient
_TXV = ("t", "x", "v")
# the variables of the amplitude frame: the guesses of x and v, the time
# and the deformed amplitude y = (x + g)/sin(theta)
_FRAME = ("x", "v", "t", "u")

# the amplitude frame's constant texts, parsed once: Expr nodes are
# immutable, so every oscillator substitutes into the same trees
_X, _V, _DYDT, _POSITION, _VELOCITY, _FIRST_INTEGRAL = map(
    parse, ("u*sin(w*t + a)", "w*u*cos(w*t + a)", "n/sin(w*t + a)",
            "x + g - u", "v + f - u",
            "(v + f)*sin(w*t + a) - w*cos(w*t + a)*(x + g)"))

# |sin(omega*t + alpha)| below which a time counts as sitting on a
# cotangent pole: the explicit slope field refuses it, and so do the
# Riccati closed forms for their start t0
POLE_GUARD = 1e-9


def pole_times(omega, alpha, lo, hi):
    """The cotangent pole times t_n = (n*pi - alpha)/omega whose n*pi lies
    in [omega*lo + alpha, omega*hi + alpha], in increasing order."""
    n_lo = math.ceil((omega * lo + alpha) / math.pi)
    n_hi = math.floor((omega * hi + alpha) / math.pi)
    return [(n * math.pi - alpha) / omega for n in range(n_lo, n_hi + 1)]


def pole_interval(omega, alpha, t):
    """The open interval between the consecutive cotangent poles around t;
    raises CotangentPole when t sits on one."""
    th = omega * t + alpha
    k = math.floor(th / math.pi)
    if th == k * math.pi:
        raise CotangentPole("reference time sits on a pole")
    return (k * math.pi - alpha) / omega, ((k + 1) * math.pi - alpha) / omega


class _CompiledOnRead:
    """Reads each tree in `exprs`, a dict of Expr trees in (t, x, v), as
    its compiled function (exprdsl.function).  A tree is compiled on the
    first read of its name, which then holds the function as a plain
    attribute; a run reads only a few of the trees."""

    def __getattr__(self, name):
        # through __dict__: copy and pickle probe an instance before
        # __init__ has set exprs
        tree = self.__dict__.get("exprs", {}).get(name)
        if tree is None:
            raise AttributeError("%r object has no attribute %r"
                                 % (type(self).__name__, name))
        fn = self.__dict__[name] = function(tree, _TXV)
        return fn


def _partials(f, g):
    """The trees of f and g, Expr trees in (t, x, v), and of their six
    first partials, keyed f, g, f_t, f_x, f_v, g_t, g_x, g_v."""
    e = {"f": f, "g": g}
    for name, tree in (("f", f), ("g", g)):
        for var in _TXV:
            e[name + "_" + var] = differentiate(tree, var)
    return e


class DeformedOscillator(_CompiledOnRead):
    """A harmonic oscillator composed with deformations x -> x+g, xd -> xd+f.

    f and g may be Expr trees or source strings over the variables t, x, v;
    named parameters are bound through `params` at construction.  omega is
    the base frequency (> 0) and alpha the phase constant of the first
    integral; a NaN or infinite omega or alpha raises a ValueError that
    names it.  `exprs` holds the trees of f, g and their six first
    partials; each reads as its function of (t, x, v), as in osc.g_x.
    The amplitude frame (_frame) is compiled once, when read, into the
    march's views of (x guess, v guess, t, y): transit_node,
    amplitude_position and amplitude_state, which
    catalog.time_quadrature also reads for a t-only deformation, with its
    slope amplitude_slope; transit_node also gives N's slope dN/dy, which
    differentiate derives from the frame through its Solve nodes
    (_frame_slope);
    first_integral_solve is the compiled velocity of the first integral.
    """

    def __init__(self, f, g, omega, alpha=0.0, params=None):
        f = bind(f, _TXV, params)
        g = bind(g, _TXV, params)
        self.omega = float(omega)
        self.alpha = float(alpha)
        # the negated test refuses NaN as well
        if not 0.0 < self.omega < math.inf:
            raise ValueError("omega must be finite and > 0, got %r"
                             % self.omega)
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite, got %r" % self.alpha)
        self.exprs = _partials(f, g)
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
    def _numerator(self):
        """The tree, in (t, x, v), of N = dg/dt - f = g_t + g_x*v - f, for
        v-independent g: what the amplitude's slope and the pole transit
        read."""
        e = self.exprs
        return sub(add(e["g_t"], mul(e["g_x"], Var("v"))), e["f"])

    @functools.cached_property
    def _frame(self):
        """The trees, in _FRAME, of the state (x, v) of deformed amplitude
        u at time t and of _numerator at it: x solves x + g =
        u*sin(w*t + a) and v solves v + f = w*u*cos(w*t + a).  Where g
        reads x, x is position_root from the guess x, and where f reads
        v, v is velocity_root from the guess v; otherwise each is its
        target minus g or f.  Unfolded (as parsed), so theta's floats even
        at alpha = 0 or omega = 1."""
        e = self.exprs
        holes = {"w": Num(self.omega), "a": Num(self.alpha)}
        x, v = (_substitute(tree, holes) for tree in (_X, _V))
        if self.g_depends_x:
            x = _substitute(self.position_root, {"u": x})
        else:
            x = Sub(x, e["g"])
        if self.f_depends_v:
            v = _substitute(self.velocity_root, {"x": x, "u": v})
        else:
            v = Sub(v, _substitute(e["f"], {"x": x}))
        return x, v, _substitute(self._numerator, {"x": x, "v": v})

    @functools.cached_property
    def _frame_slope(self):
        """dN/dy, _frame's N differentiated in u through its x and v, its
        Solves by the implicit-function rule, in _FRAME: only the pole
        transit reads it, so the other views never build it."""
        return differentiate(self._frame[2], "u")

    @functools.cached_property
    def transit_node(self):
        """(x, v, N) of _frame and its dN/dy, what the pole transit reads
        at a node, as one function of (x, v, t, u), x and v the guesses."""
        return function(self._frame + (self._frame_slope,), _FRAME)

    @functools.cached_property
    def amplitude_state(self):
        """(x, v) of _frame alone, as one function of (x, v, t, u)."""
        return function(self._frame[:2], _FRAME)

    @functools.cached_property
    def affine_crossing(self):
        """N is affine in u, its slope free of u (every Solve of the frame
        reads u): one Newton solve of a pole transit is exact."""
        return not depends_on(self._frame_slope, "u")

    @functools.cached_property
    def amplitude_slope(self):
        """dy/dt = N/sin(theta), the amplitude's slope, as one function of
        (x, v, t, u), x and v the guesses."""
        return function(_substitute(_DYDT, {
            "n": self._frame[2], "w": Num(self.omega),
            "a": Num(self.alpha)}), _FRAME)

    @functools.cached_property
    def amplitude_position(self):
        """x of _frame alone, as one function of (x, v, t, u): no velocity
        solve."""
        return function(self._frame[0], _FRAME)

    def _root(self, residual, names, tol):
        """The Solve tree of an implicit relation: the root near the guess
        names[0] of its law at names[1:], to tol, as solve_scalar finds
        it.  The law (the tree's .law) is function() of the pair (h,
        dh/dnames[0]), h the template residual with f, g, w = omega and
        a = alpha substituted unfolded and its slope from differentiate,
        in the variables names, the unknown first."""
        h = _substitute(residual, dict(
            self.exprs, w=Num(self.omega), a=Num(self.alpha)))
        pair = (h, differentiate(h, names[0]))
        return Solve(pair, names, (Var(names[0]), tol)
                     + tuple(map(Var, names[1:])),
                     solve_scalar, function(pair, names))

    @functools.cached_property
    def position_root(self):
        """x + g(t, x) = u solved for x from the guess x, for g free of v,
        in (x, t, u); its law is (x + g - u, 1 + g_x)."""
        return self._root(_POSITION, ("x", "t", "u"), Num(1e-14))

    @functools.cached_property
    def velocity_root(self):
        """v + f(t, x, v) = u solved for v from the guess v, in
        (v, t, x, u); its law is (v + f - u, 1 + f_v)."""
        return self._root(_VELOCITY, ("v", "t", "x", "u"), Num(1e-14))

    @functools.cached_property
    def first_integral_root(self):
        """The first integral G = (v + f)*sin(theta) -
        omega*cos(theta)*(x + g) = 0 solved for v from the guess v, to the
        tolerance u, in (v, t, x, u); its law is (G, G_v) of (v, t, x),
        with theta = w*t + a unfolded, as in amplitude_slope.  Where G_v
        vanishes, the root v(t, x) folds and the velocity is not smooth."""
        return self._root(_FIRST_INTEGRAL, ("v", "t", "x"), Var("u"))

    @functools.cached_property
    def first_integral_solve(self):
        """first_integral_root as one function of (v, t, x, u), v the
        guess and u the tolerance."""
        return function(self.first_integral_root, ("v", "t", "x", "u"))


class OdeForm(_CompiledOnRead):
    """Second-order form  coeff_xdd*xdd + coeff_xd*xd + remainder = 0.

    Coefficients are Expr trees in (t, x, v), kept in `exprs` for printing
    and read as functions of (t, x, v).
    """

    def __init__(self, coeff_xdd, coeff_xd, remainder):
        self.exprs = {"coeff_xdd": coeff_xdd, "coeff_xd": coeff_xd,
                      "remainder": remainder}

    def residual(self, t, x, v, a):
        return (self.coeff_xdd(t, x, v) * a
                + self.coeff_xd(t, x, v) * v
                + self.remainder(t, x, v))


def first_integral_form(pair):
    """G = 0 differentiated along its solutions, G_v*xdd + G_x*xd + G_t =
    0, as a fresh OdeForm, from pair = (G, G_v), Expr trees in (t, x, v)
    (as in first_integral_root.pair)."""
    G, G_v = pair
    return OdeForm(G_v, differentiate(G, "x"), differentiate(G, "t"))


def _lienard(e, omega):
    """The generalized Lienard form of the first integral
    (xd + f) = omega*cot(Phi + alpha)*(x + g), Phi' = omega: eliminating
    the cotangent gives, with lam = omega'/omega,

        [(1 + f_v)(x+g) - (xd+f) g_v]*xdd
          + [f_x (x+g) - f (g_x - 1) - g_t - lam (x+g)]*xd
          + (x+g)(f_t + omega^2 (x+g)) + f^2 - f g_t - xd^2 g_x
          - lam f (x+g) = 0.

    e is the dict of _partials(f, g) and omega an Expr tree in t.  Only
    constants fold, so for a Num omega lam folds to 0 and its terms
    vanish.  Correctness is established by residual checks, not by the
    printed shape.
    """
    f, g = e["f"], e["g"]
    f_t, f_x, f_v = e["f_t"], e["f_x"], e["f_v"]
    g_t, g_x, g_v = e["g_t"], e["g_x"], e["g_v"]
    x, v = Var("x"), Var("v")
    xpg = add(x, g)
    w2 = powe(omega, Num(2.0))
    lam = div(differentiate(omega, "t"), omega)

    coeff_xdd = sub(mul(add(Num(1.0), f_v), xpg), mul(add(v, f), g_v))
    coeff_xd = sub(sub(sub(mul(f_x, xpg), mul(f, sub(g_x, Num(1.0)))), g_t),
                   mul(lam, xpg))
    remainder = sub(sub(add(mul(xpg, add(f_t, mul(w2, xpg))),
                            sub(mul(f, f), mul(f, g_t))),
                        mul(mul(v, v), g_x)),
                    mul(mul(lam, f), xpg))
    return OdeForm(coeff_xdd, coeff_xd, remainder)


def generate_ode(osc):
    """The generalized Lienard form of the oscillator's first integral,
    with its constant omega (see _lienard)."""
    return _lienard(osc.exprs, Num(osc.omega))


def generate_ode_time_varying(f, g, omega, params=None):
    """The generalized Lienard form with the frequency omega(t), Phi its
    antiderivative (see _lienard): f and g in (t, x, v) and omega in t,
    with `params` bound; a constant omega gives generate_ode's trees."""
    f, g = (bind(e, _TXV, params) for e in (f, g))
    return _lienard(_partials(f, g), bind(omega, ("t",), params))


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


def integrate_form(form, t0, state0, t1, rtol=1e-10, atol=1e-12):
    """March a second-order form as the first-order system x' = v,
    v' = explicit_acceleration(form, (t, x, v)) from state0 = (x0, v0) at
    t0 to t1 (t1 < t0 marches backwards), with DOP853 (numerics.integrate).
    Returns the dense solution (x_of_t, v_of_t)."""
    def rhs(t, y):
        return y[1], explicit_acceleration(form, (t, *y))
    return integrate(rhs, t0, state0, t1, rtol=rtol, atol=atol)


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
        if abs(s) < POLE_GUARD:
            raise CotangentPole("sin(omega*t+alpha) = %r at t = %r" % (s, t))
        return w * c / s * (x + osc.g(t, x, 0.0)) - osc.f(t, x, 0.0)

    if abs(s) < POLE_GUARD and not osc.g_depends_v:
        raise CotangentPole(
            "implicit velocity is singular at the pole when g is v-independent")

    scale = abs(w * c * x) + abs(s) + 1.0
    return osc.first_integral_solve(v_start, t, x, 1e-13 * scale)


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
    if abs(s) < POLE_GUARD:
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

def _pole_transit(osc, a, b, pole, y_in, x_start, v_start):
    """Solve the deformed amplitude y = (x+g)/sin(theta) on the piece
    [a, b] from y(a) = y_in, through the cotangent pole inside it, or on a
    piece with no pole (pole None).

    Marching through a pole is ill-conditioned: the linearized amplitude
    equation has a mode ~ (t-pole)^k with k = (g_x - f_v)/(1 + f_v) at the
    crossing, which collapses below machine precision approaching the pole
    and re-expands afterwards, so any restart from local data loses the
    amplitude.  Instead the sine-multiplied equation

        sin(theta) * dy/dt = dg/dt - f      (regular at the pole)

    is collocated on 24 Chebyshev nodes spanning the piece, a few more when
    a node lands on the pole, with the left-edge value pinned.  Newton
    starts from the constant y_in; each iteration computes every node by
    one call of osc.transit_node, its x and v solved inside from that
    node's last x and v (first from the entry solve's, at a from x_start
    and v_start), which also gives the numerator N and its slope dN/dy,
    differentiated exactly through the frame's solves (osc._frame_slope),
    so the Jacobian sin(theta)*D - diag(dN/dy) is exact.  Newton stops
    after the step taken from a negligible residual, or at a negligible
    step; an affine crossing (osc.affine_crossing: dN/dy free of y) stops
    after its one solve, which is exact, with N at the solved amplitude N -
    dN*step.  Returns the solved values' Chebyshev series
    (numerics.cheb_series), y(t) on [a, b] and y_in itself at a; or None
    where the piece is unresolved: the series does not chop, or Newton
    fails (a non-finite or singular system, or 30 iterations).  An iterate
    that leaves the range of x + g (or of v + f) at a node raises the
    solve's ImplicitNoRoot.  A converged series through a pole, chopping or
    not, passes the smoothness test, N at the pole against N at the solved
    amplitude, or raises NonSmoothPoint: the crossing velocity is unbounded.
    """
    w, al = osc.omega, osc.alpha
    for bump in range(4):
        ts, D = cheb_nodes_diff(23 + bump, a, b)
        nodes = ts.tolist()
        sines = [math.sin(w * t + al) for t in nodes]
        # a node sitting on the pole would contribute a zero row; node 0 is
        # exempt because its row is replaced by the boundary condition
        # (which allows a piece that starts on the pole)
        if min(map(abs, sines[1:])) > 1e-8:
            break
    m, svec = len(nodes), np.array(sines)
    # the Jacobian less diag(dN/dy); row 0 is the boundary condition's
    SD = svec[:, None] * D
    SD[0], SD[0, 0] = 0.0, 1.0
    xs, vs = osc.transit_node(x_start, v_start, a, y_in)[:2]
    xs, vs = [xs] * m, [vs] * m
    Y = np.full(m, float(y_in))
    scale = 1.0 + abs(y_in)
    for _ in range(30):
        xs, vs, N, dN = zip(*map(osc.transit_node, xs, vs, nodes,
                                 Y.tolist()))
        F = svec * (D @ Y) - N
        F[0] = Y[0] - y_in
        if not (np.isfinite(F).all() and all(map(math.isfinite, dN))):
            return None
        J = SD.copy()
        J.ravel()[m + 1::m + 1] -= dN[1:]
        # rows whose sine and dN both vanish (neutral crossings) make the
        # raw system numerically singular; equilibrate before judging
        # convergence or solving
        r = np.abs(J).max(axis=1)
        r[r == 0.0] = 1.0
        F /= r
        try:
            step = np.linalg.solve(J / r[:, None], F)
        except np.linalg.LinAlgError:
            return None
        Y -= step
        if not np.isfinite(Y).all():
            return None
        if osc.affine_crossing:
            # N is affine in y: the solve is exact, and N - dN*step is N at
            # the solved Y, which the smoothness test reads
            N = np.subtract(N, np.multiply(dN, step))
            break
        if (np.abs(F).max() <= 1e-12 * scale
                or np.abs(step).max() <= 1e-14 * (1.0 + np.abs(Y).max())):
            break
    else:
        return None
    y, chops = cheb_series(Y, a, b)
    if pole is not None:
        # a smooth crossing requires the numerator to vanish with the sine;
        # tested before the chop, as y never chops where N does not vanish
        k = int(np.argmin(np.abs(ts - pole)))
        num_p = osc.transit_node(xs[k], vs[k], pole, y(pole))[2]
        if abs(num_p) > 1e-6 * (1.0 + float(np.max(np.abs(N)))):
            raise NonSmoothPoint(
                "no smooth continuation of the deformed amplitude y = "
                "(x+g)/sin through the pole t = %r; the deformation leaves "
                "the crossing velocity unbounded there" % pole)
    return y if chops else None


def integrate_first_integral(osc, t0, x0, t1, t_eval=None, v0=None,
                             rtol=1e-10, atol=1e-12):
    """Integrate dx/dt given by the first integral from (t0, x0) to t1 > t0.

    The slope field has cotangent poles at t_n = (n*pi - alpha)/omega, where
    solutions cross x+g = 0.  For v-independent g the driver solves the
    deformed amplitude y = (x+g)/sin(theta) on pieces a quarter period
    wide, cut at theta = n*pi +- pi/4, so each crossed pole lies inside a
    piece of its own; each piece is Chebyshev collocation of the regular
    sine-multiplied equation (see _pole_transit), pinned at its left edge
    to the last piece's exit.  A piece left unresolved splits into halves,
    or, where its pole would be the split, into a quarter and the rest, at
    most 8 times; then the march raises NonSmoothPoint.  x is recovered by
    solving x + g(t,x) = y*sin(theta) and v from v + f = omega*y*cos(theta),
    so no quantity is ever divided by a small sine: each node and each
    sample is one call of a function compiled once per oscillator
    (osc.transit_node, osc.amplitude_state), with solve_scalar's Newton
    loop inline where g reads x or f reads v.  Every Newton solve for x
    starts from x0 and every one for v from v0 (by default the first
    integral's velocity at (t0, x0)), so a law with several roots stays on
    the initial condition's branch.  When t0 sits on a pole, v0 also pins
    the crossing amplitude.  The collocation resolves y to its chop test,
    so rtol and atol govern only the path below.

    When g depends on v the first integral G = 0 is regular at the poles:
    one solve at t0 from the guess v0 (0 by default) gives v, and
    integrate_form marches (x, v) on G_v*xdd + G_x*xd + G_t = 0, G = 0
    differentiated (Hairer & Wanner, Solving ODEs II, ch. VII), at rtol
    and atol.  A fold of the velocity law raises NonSmoothPoint naming its
    t: G_v leaves its starting sign, or the march stalls with |G_v| below
    1e-6 of it.

    meta["x_of_t"] and meta["v_of_t"] are the dense solution; their values
    depend on t alone, and the states are their values at t_eval (see
    sample_trajectory).  meta["x_of_t"] solves for x alone
    (osc.amplitude_position), with no velocity solve.  A NaN or infinite
    t0, x0, t1 or v0 raises a ValueError that names it.
    """
    _finite(t0=t0, x0=x0, t1=t1, v0=0.0 if v0 is None else v0)
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
        # G = 0 differentiated, its coeff_xdd G_v read through the fold
        # rule; a march that stalls as G_v falls to 0 has met a fold
        v_start = first_integral_velocity(osc, t0, x0,
                                          0.0 if v0 is None else v0)
        form = first_integral_form(osc.first_integral_root.pair)
        g_v = form.coeff_xdd
        last = [t0, g_v(t0, x0, v_start)]  # the last stage's t and G_v
        slope0 = last[1]
        fold = ("the velocity law G(v) = (v+f)*sin(theta) - omega*cos(theta)"
                "*(x+g) = 0 folds at t = %r: G'(v) = %r, %r at the start")

        def coeff_xdd(t, x, v):
            last[:] = t, g_v(t, x, v)
            if not last[1] * slope0 > 0.0:
                raise NonSmoothPoint(fold % (t, last[1], slope0))
            return last[1]

        form.coeff_xdd = coeff_xdd
        try:
            x_of_t, v_of_t = integrate_form(form, t0, (x0, v_start), t1,
                                            rtol=rtol, atol=atol)
        except (StepSizeUnderflow, SingularCoefficient) as exc:
            if abs(last[1]) > 1e-6 * abs(slope0):
                raise
            raise NonSmoothPoint(fold % (*last, slope0)) from exc
        return sample_trajectory(lambda tq: (x_of_t(tq), v_of_t(tq)), t0, t1,
                                 t_eval, {"poles_crossed": [],
                                          "x_of_t": x_of_t, "v_of_t": v_of_t})

    if v0 is None:
        v0 = first_integral_velocity(osc, t0, x0)

    # v-independent g: no cut within pi/8 of theta at t0 or t1
    poles = pole_times(w, osc.alpha, t0 + 2.0 * delta, t1 - 2.0 * delta)
    if start_pole is None:
        y = (x0 + osc.g(t0, x0, 0.0)) / math.sin(osc.theta(t0))
    else:
        y = (v0 + osc.f(t0, x0, v0)) / (w * math.cos(osc.theta(t0)))
        if t1 > t0 + 1e-13:
            # the start pole belongs to the first piece, which begins at t0
            poles.insert(0, start_pole)
    quarter = 0.5 * math.pi
    cuts = [((n + 0.5) * quarter - osc.alpha) / w for n in range(
        math.ceil((w * t0 + osc.alpha) / quarter - 0.25),
        math.floor((w * t1 + osc.alpha) / quarter - 0.75) + 1)]
    edges = [t0] + cuts + [t1]
    todo = [(a, b, 0) for a, b in zip(edges[-2::-1], edges[:0:-1])]
    pieces = []              # (lo, hi, y callable), in increasing time
    crossed = 0              # poles already in a kept piece
    while todo:
        a, b, depth = todo.pop()
        pole = (poles[crossed] if crossed < len(poles)
                and poles[crossed] <= b else None)
        try:
            interp, cause = _pole_transit(osc, a, b, pole, y, x0, v0), None
        except ImplicitNoRoot as exc:
            interp, cause = None, exc
        if interp is None:
            if depth == 8:
                raise NonSmoothPoint(
                    "no smooth continuation of the deformed amplitude y = "
                    "(x+g)/sin %s: %s" % (
                        "through the pole t = %r" % pole if pole is not None
                        else "on [%r, %r]" % (a, b),
                        "its collocation does not resolve y on a piece of "
                        "width %.3g" % (b - a) if cause is None else
                        "at a collocation node the amplitude left the range "
                        "of x + g = y*sin(theta) or of v + f = "
                        "omega*y*cos(theta) (%s)" % cause)) from cause
            mid = 0.5 * (a + b)
            if pole is not None and abs(pole - mid) < 0.125 * (b - a):
                mid += (0.25 if pole < mid else -0.25) * (b - a)
            todo += [(mid, b, depth + 1), (a, mid, depth + 1)]
            continue
        pieces.append((a, b, interp))
        y = interp(b)
        crossed += pole is not None
    lows = [lo for lo, _, _ in pieces]

    def y_at(tq):
        if not t0 - 1e-12 <= tq <= t1 + 1e-12:
            raise ValueError("time %r outside the integrated span" % tq)
        lo, hi, fn = pieces[max(bisect_right(lows, tq) - 1, 0)]
        return fn(min(max(tq, lo), hi))

    def state_at(tq):
        tq = float(tq)
        return osc.amplitude_state(x0, v0, tq, y_at(tq))

    def x_of_t(tq):
        tq = float(tq)
        return osc.amplitude_position(x0, v0, tq, y_at(tq))

    return sample_trajectory(state_at, t0, t1, t_eval,
                             {"poles_crossed": poles,
                              "x_of_t": x_of_t})


# --- quadratic-damping family with tanh phase law ------------------------------------

def _riccati_parameters(b, omega):
    """b and omega as floats; a NaN or infinite b or omega, or an omega
    <= 0, raises a ValueError that names it."""
    b, omega = float(b), float(omega)
    # the negated test refuses NaN as well
    if not 0.0 < omega < math.inf:
        raise ValueError("omega must be finite and > 0, got %r" % omega)
    if not math.isfinite(b):
        raise ValueError("b must be finite, got %r" % b)
    return b, omega


def riccati_family(b, omega):
    """Form  xdd + (b/omega)*xd^2/x - omega*(b-omega)*x = 0  (x != 0).

    Rejected degenerate parameters: b = omega collapses the linear term and
    b = 0 breaks the phase-law normalization.  A NaN or infinite b or omega
    raises a ValueError that names it, as in the other riccati_ functions
    that take them.
    """
    b, omega = _riccati_parameters(b, omega)
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
    b, omega = _riccati_parameters(b, omega)
    if abs(b) < 1e-12 or abs(b - omega) < 1e-12:
        raise DegenerateParameters("b = 0 and b = omega are excluded")
    s = _riccati_s(b, omega)
    X0 = riccati_phase(state, omega)
    target = 1j * (b * X0 + omega) / s
    return cmath.atanh(target) / s - state[0]


def riccati_phase_formula(b, omega, alpha):
    """The closed-form phase law  X(t) = -(omega + i*s*tanh(s*(t+alpha)))/b
    with s = sqrt(b^2 - omega^2) (imaginary s turns tanh into tan)."""
    b, omega = _riccati_parameters(b, omega)
    s = _riccati_s(b, omega)

    def X(t):
        return -(omega + 1j * s * cmath.tanh(s * (t + alpha))) / b
    return X


def riccati_invariant(b, omega):
    """Conserved quantity of the family:
    E = v^2 * x^(2b/omega) - omega^2 (b-omega)/(b+omega) * x^(2(b+omega)/omega)."""
    b, omega = _riccati_parameters(b, omega)
    if abs(b + omega) < 1e-12:
        raise DegenerateParameters("b = -omega degenerates the invariant")
    p = 2.0 * b / omega
    q = 2.0 * (b + omega) / omega
    k = omega * omega * (b - omega) / (b + omega)

    def E(x, v):
        return v * v * x ** p - k * x ** q
    return E
