"""Shared numerical kernels: IVP integration, trajectory sampling,
quadrature, root finding, Chebyshev collocation, and finite-difference
residual scanning.

The solver is DOP853 (8th-order embedded Runge-Kutta; Hairer, Norsett &
Wanner, Solving ODEs I, sec. II.5-6), run by integrate itself in plain
floats: scipy's algorithm step for step on scipy's tableau, with no numpy
array per stage and no call into solve_ivp.  It returns the dense
solution, one callable per component evaluating the DOP853 interpolant
as scipy's OdeSolution does.  Its sums run in another order than
numpy's, so values agree with scipy's to rounding, not bit for bit, with
the same right-hand-side calls and steps (tests/test_numerics.py holds
the two together).  Every Trajectory is built by sample_trajectory from
a pure state_at(t).
Root finding on a bracket is Brent's method from scipy (brentq) behind a
sign check that raises the typed NoSignChange.  Quadrature is a small
self-contained routine so its node placement stays explicit and
reproducible.  Every implicit relation (the first integral's position
and velocity, the beam's F(u) = K sin(omega*t + phi)) is inverted
pointwise by one safeguarded scalar solver, solve_scalar.  scipy is
imported by the first call that needs it, not with this module.
"""

from __future__ import annotations

import functools
import math
import warnings
from bisect import bisect_left, bisect_right
from collections import namedtuple

import numpy as np

from .errors import (
    EvalDomainError,
    ImplicitNoRoot,
    NonFiniteState,
    NoSignChange,
    StepSizeUnderflow,
)

# scipy's DOP853 step control
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_EPS = math.ulp(1.0)

PhaseState = namedtuple("PhaseState", ["t", "x", "v"])
PhaseState.__doc__ = "A point of phase space: time, position, velocity."


class Trajectory:
    """An ordered sequence of PhaseStates with strictly increasing time."""

    def __init__(self, states, meta=None):
        states = [PhaseState(*s) for s in states]
        for a, b in zip(states, states[1:]):
            if not b.t > a.t:
                raise ValueError("trajectory times must strictly increase "
                                 "(%r then %r)" % (a.t, b.t))
        self.states = states
        self.meta = dict(meta) if meta else {}

    def __len__(self):
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    def __getitem__(self, i):
        return self.states[i]

    @property
    def t(self):
        return np.array([s.t for s in self.states])

    @property
    def x(self):
        return np.array([s.x for s in self.states])

    @property
    def v(self):
        return np.array([s.v for s in self.states])


def sample_trajectory(state_at, t0, t1, t_eval=None, meta=None):
    """Trajectory of the pure state_at(t) -> (x, v) sampled at t_eval.

    t_eval defaults to 257 points on [t0, t1]; a time outside [t0, t1]
    raises ValueError, and the times are sorted and deduplicated.  meta
    gains the projections of state_at as "x_of_t" and "v_of_t".
    """
    if t_eval is None:
        t_eval = np.linspace(t0, t1, 257)
    t_eval = np.asarray(t_eval, dtype=float)
    if np.any(t_eval < t0) or np.any(t_eval > t1):
        raise ValueError("t_eval must lie within [t0, t1]")
    states = [PhaseState(t, *state_at(t)) for t in np.unique(t_eval).tolist()]
    return Trajectory(states, dict(meta or {},
                                   x_of_t=lambda t: state_at(t)[0],
                                   v_of_t=lambda t: state_at(t)[1]))


@functools.cache
def _dop853():
    """The DOP853 tableau, read once from scipy.integrate.DOP853, as float
    lists with the zero coefficients left out: the stages after the first
    and the three extra dense-output stages as (c, [(j, a_j)]), and B, E3,
    E5 and each row of D as [(j, coefficient)]."""
    # imported here: scipy.integrate is most of the library's import time
    from scipy.integrate import DOP853

    def terms(row):
        return [(j, float(a)) for j, a in enumerate(row) if a != 0.0]

    def stages(A, C, first):
        return [(float(c), terms(a[:s]))
                for s, (a, c) in enumerate(zip(A, C), first)]

    return (stages(DOP853.A[1:], DOP853.C[1:], 1),
            stages(DOP853.A_EXTRA, DOP853.C_EXTRA, DOP853.n_stages + 1),
            terms(DOP853.B), terms(DOP853.E3), terms(DOP853.E5),
            [terms(row) for row in DOP853.D])


def _dot(K, terms, i):
    """Component i of sum_j a_j*K[j], summed in order from 0.0."""
    acc = 0.0
    for j, a in terms:
        acc += K[j][i] * a
    return acc


def _advance(y, K, terms, h):
    """y + (sum_j a_j*K[j])*h, componentwise: one Runge-Kutta stage or step."""
    return tuple([yi + _dot(K, terms, i) * h for i, yi in enumerate(y)])


def _rms(values):
    """scipy's RMS norm: the 2-norm over the square root of the length."""
    return math.sqrt(sum([v * v for v in values])) / len(values) ** 0.5


def _initial_step(field, t0, y0, f0, t1, direction, rtol, atol):
    """scipy's select_initial_step for DOP853's error order 7 (Hairer,
    Norsett & Wanner, Solving ODEs I, sec. II.4); one call of field."""
    interval = abs(t1 - t0)
    scale = [atol + abs(yi) * rtol for yi in y0]
    d0 = _rms([yi / si for yi, si in zip(y0, scale)])
    d1 = _rms([fi / si for fi, si in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = field(t0 + h0 * direction,
               tuple([yi + h0 * direction * fi for yi, fi in zip(y0, f0)]))
    d2 = _rms([(a - b) / si for a, b, si in zip(f1, f0, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        d = max(d1, d2)
        # 0.01/0 is inf in numpy: d1 = 0 with a NaN d2
        h1 = (0.01 / d) ** 0.125 if d else math.inf
    return min(100 * h0, h1, interval)


def integrate(rhs, t0, y0, t1, rtol=1e-10, atol=1e-12):
    """Integrate an initial-value problem from t0 to t1 with the DOP853
    adaptive pair; t1 < t0 integrates backwards.

    y0 is a number, with rhs(t, x) -> dx/dt called on a float, or a pair,
    with rhs(t, (x, v)) -> (dx/dt, dv/dt) called on a tuple of two floats.
    Returns the dense solution over the span, one callable t -> float per
    component: (x_of_t,) or (x_of_t, v_of_t).

    The steps are scipy's DOP853 taken in plain floats (Hairer, Norsett &
    Wanner, Solving ODEs I, sec. II.5-6): the same tableau, initial step,
    step control, error norm and dense output, so rhs is called as often
    as by solve_ivp(method="DOP853", dense_output=True), at the same stages
    of the same steps.  Only the order of the sums differs from numpy's:
    step sizes agree to the rounding of the error estimate and values to
    rounding, not bit for bit (tests/test_numerics.py holds the two
    together).  A step that would fall below ten spacings of t (or is
    NaN) raises StepSizeUnderflow, and an accepted non-finite state
    NonFiniteState.
    """
    if not (math.isfinite(t0) and math.isfinite(t1)) or t0 == t1:
        raise ValueError("t-span must be finite and non-degenerate")
    if not (rtol > 0 and atol > 0):
        raise ValueError("tolerances must be positive")
    if np.ndim(y0) == 0:
        y = (float(y0),)

        def field(t, y):
            return (float(rhs(t, y[0])),)
    else:
        y = np.asarray(y0, dtype=float)
        if y.shape != (2,):
            raise ValueError("y0 must be a number or a pair")
        y = tuple(y.tolist())

        def field(t, y):
            a, b = rhs(t, y)
            return (float(a), float(b))
    if rtol < 100 * _EPS:
        warnings.warn("rtol %r is too small; using %r" % (rtol, 100 * _EPS))
        rtol = 100 * _EPS
    stages, extra, B, E3, E5, D = _dop853()
    t, t1 = float(t0), float(t1)
    direction = 1.0 if t1 > t else -1.0
    f = field(t, y)
    h_abs = _initial_step(field, t, y, f, t1, direction, rtol, atol)
    ts = [t]
    steps = []              # (t_old, h, y_old, reversed F rows per component)
    while direction * (t - t1) < 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:      # a NaN step size fails here too
                raise StepSizeUnderflow(
                    "required step size is less than spacing between "
                    "numbers at t = %r" % t)
            t_new = t + h_abs * direction
            if direction * (t_new - t1) > 0:
                t_new = t1
            h = t_new - t
            h_abs = abs(h)
            K = [f]
            for c, a in stages:
                K.append(field(t + c * h, _advance(y, K, a, h)))
            y_new = _advance(y, K, B, h)
            f_new = field(t + h, y_new)
            K.append(f_new)
            err5 = err3 = 0.0
            for i, yi in enumerate(y):
                # max() keeps a NaN of y_new, as np.maximum does
                scale = atol + max(abs(y_new[i]), abs(yi)) * rtol
                e5 = _dot(K, E5, i) / scale
                e3 = _dot(K, E3, i) / scale
                err5 += e5 * e5
                err3 += e3 * e3
            # squares of np.linalg.norm, as scipy takes them
            r5, r3 = math.sqrt(err5), math.sqrt(err3)
            err5, err3 = r5 * r5, r3 * r3
            error = (h_abs * err5 / math.sqrt((err5 + 0.01 * err3) * len(y))
                     if err5 else 0.0)
            if error < 1:
                factor = (_MAX_FACTOR if error == 0 else
                          min(_MAX_FACTOR, _SAFETY * error ** -0.125))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** -0.125)
            rejected = True
        if not all(map(math.isfinite, y_new)):
            raise NonFiniteState("integration produced non-finite state at "
                                 "t = %r" % t_new)
        for c, a in extra:
            K.append(field(t + c * h, _advance(y, K, a, h)))
        rows = []
        for i, yi in enumerate(y):
            dy = y_new[i] - yi
            F = [dy, h * f[i] - dy, 2 * dy - h * (f_new[i] + f[i])]
            F += [h * _dot(K, d, i) for d in D]
            rows.append(F[::-1])
        steps.append((t, h, y, rows))
        t, y, f = t_new, y_new, f_new
        ts.append(t)

    # OdeSolution's segment rule: the lower index at a step time
    last = len(steps) - 1
    if direction > 0:
        def segment(t):
            return min(max(bisect_left(ts, t) - 1, 0), last)
    else:
        ts.reverse()

        def segment(t):
            return last - min(max(bisect_right(ts, t) - 1, 0), last)

    def component(i):
        pieces = [(t_old, h, y_old[i], rows[i])
                  for t_old, h, y_old, rows in steps]

        def at(t):
            # Dop853DenseOutput's Horner loop, on floats
            t = float(t)
            t_old, h, y_old, rows = pieces[segment(t)]
            x = (t - t_old) / h
            y = 0.0
            for j, f in enumerate(rows):
                y += f
                y *= x if j % 2 == 0 else 1 - x
            return y + y_old
        return at

    return tuple(component(i) for i in range(len(y)))


# --- quadrature ---------------------------------------------------------------

_PANEL_WIDTH = 0.25
_PANEL_NODES = 24


@functools.cache
def _gauss_legendre():
    """The (node, weight) pairs of the _PANEL_NODES-point rule on [-1, 1],
    as plain floats, so F(t) is a float and not a numpy scalar."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(_PANEL_NODES)
    return tuple(zip(gl_x.tolist(), gl_w.tolist()))


class CumulativeIntegral:
    """Smooth evaluator of F(t) = integral of f from origin to t.

    Fixed-order Gauss-Legendre panels of constant width are accumulated
    lazily in both directions from the origin; the partial panel containing
    t is evaluated with the same rule.  Because node placement varies
    smoothly with t, F is smooth in t (unlike adaptive quadrature whose
    subdivision pattern jumps), which matters when F feeds finite
    differences.
    """

    def __init__(self, f, origin):
        self.f = f
        self.origin = float(origin)
        self._rule = _gauss_legendre()
        self._fwd = [0.0]   # _fwd[k] = F(origin + k*_PANEL_WIDTH)
        self._bwd = [0.0]   # _bwd[k] = F(origin - k*_PANEL_WIDTH)

    def _panel(self, a, b):
        c = 0.5 * (a + b)
        h = 0.5 * (b - a)
        total = 0.0
        for xi, wi in self._rule:
            total += wi * self.f(c + h * xi)
        return h * total

    def __call__(self, t):
        t = float(t)
        s = (t - self.origin) / _PANEL_WIDTH
        if s >= 0:
            k = int(math.floor(s))
            while len(self._fwd) <= k:
                a = self.origin + (len(self._fwd) - 1) * _PANEL_WIDTH
                self._fwd.append(self._fwd[-1]
                                 + self._panel(a, a + _PANEL_WIDTH))
            base = self._fwd[k]
            edge = self.origin + k * _PANEL_WIDTH
        else:
            # full panels strictly between t and the origin, so the rule
            # never samples beyond t (where f may be singular)
            kk = int(math.floor(-s))
            while len(self._bwd) <= kk:
                b = self.origin - (len(self._bwd) - 1) * _PANEL_WIDTH
                self._bwd.append(self._bwd[-1]
                                 - self._panel(b - _PANEL_WIDTH, b))
            base = self._bwd[kk]
            edge = self.origin - kk * _PANEL_WIDTH
        if t == edge:
            return base
        return base + self._panel(edge, t)


# --- root finding ---------------------------------------------------------------

def find_root(f, lo, hi, tol=1e-12):
    """Root of f on a sign-changing bracket [lo, hi].

    Brent's method (scipy's brentq); stops once the bracket is narrower than
    about tol*(1+|x|).  Raises NoSignChange unless f(lo) and f(hi) have
    strictly opposite signs, so a NaN end is rejected.
    """
    lo = float(lo)
    hi = float(hi)
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    if not (flo < 0.0 < fhi or fhi < 0.0 < flo):
        raise NoSignChange("f(%g)=%g and f(%g)=%g do not change sign"
                           % (lo, flo, hi, fhi))
    from scipy.optimize import brentq
    return brentq(f, lo, hi, xtol=tol, rtol=max(tol, 4.0 * math.ulp(1.0)),
                  maxiter=200)


_BRACKET_WIDTHS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 256.0)


def solve_scalar(h, dh, guess, tol):
    """Root of h near guess, for inverting an implicit relation pointwise.

    Newton steps from guess stop once |h(x)| <= tol*(1 + |x|).  When Newton
    stalls (zero or non-finite derivative, non-finite iterate, 60 steps
    spent) the root is bracketed instead: find_root runs on the first of a
    fixed set of widening brackets centred on guess whose ends change sign.
    A bracket whose ends have the same sign or leave the domain of h is
    skipped; any other error of h or dh propagates.  Raises ImplicitNoRoot
    when no bracket changes sign.
    """
    x = guess = float(guess)
    for _ in range(60):
        hx = h(x)
        if abs(hx) <= tol * (1.0 + abs(x)):
            return x
        d = dh(x)
        if d == 0.0 or not math.isfinite(d):
            break
        x_new = x - hx / d
        if not math.isfinite(x_new):
            break
        x = x_new
    for width in _BRACKET_WIDTHS:
        try:
            return find_root(h, guess - width, guess + width, tol=1e-15)
        except (NoSignChange, EvalDomainError):
            continue
    raise ImplicitNoRoot("no root within %g of %r" % (_BRACKET_WIDTHS[-1], guess))


# --- Chebyshev collocation -------------------------------------------------------

def cheb_nodes_diff(n, a, b):
    """Chebyshev extreme points mapped to [a, b] (ascending) and the
    spectral differentiation matrix acting on values at those points
    (Trefethen, Spectral Methods in MATLAB, ch. 6: cheb.m, with the
    diagonal from the negative row sums)."""
    j = np.arange(n + 1)
    xc = np.cos(math.pi * j / n)          # 1 ... -1
    c = np.where((j == 0) | (j == n), 2.0, 1.0) * (-1.0) ** j
    dx = xc[:, None] - xc[None, :] + np.eye(n + 1)
    D = np.outer(c, 1.0 / c) / dx
    D -= np.diag(D.sum(axis=1))
    ts = a + (b - a) * (1.0 - xc) / 2.0   # ascending in t
    return ts, D * (-2.0 / (b - a))


def cheb_interp(ts, Y):
    """Barycentric interpolant through values Y at the Chebyshev extreme
    points ts produced by cheb_nodes_diff.

    The weights for this node family are known in closed form, so the
    evaluation is reproducible bit for bit; a generic weight computation
    that reorders nodes for conditioning would make repeated runs differ
    in the last ulp.
    """
    n = len(ts) - 1
    wts = (-1.0) ** np.arange(n + 1)
    wts[0] *= 0.5
    wts[n] *= 0.5

    def ev(tq):
        d = tq - ts
        hit = np.nonzero(d == 0.0)[0]
        if hit.size:
            return float(Y[hit[0]])
        q = wts / d
        return float((q @ Y) / q.sum())

    return ev


# --- finite-difference residual scanning ------------------------------------------

def fd_derivatives(x_of_t, t, h):
    """Richardson-extrapolated central first and second derivatives."""
    x0 = x_of_t(t)
    xp = x_of_t(t + h)
    xm = x_of_t(t - h)
    xph = x_of_t(t + 0.5 * h)
    xmh = x_of_t(t - 0.5 * h)
    v_h = (xp - xm) / (2.0 * h)
    v_h2 = (xph - xmh) / h
    a_h = (xp - 2.0 * x0 + xm) / (h * h)
    a_h2 = (xph - 2.0 * x0 + xmh) / (0.25 * h * h)
    return x0, (4.0 * v_h2 - v_h) / 3.0, (4.0 * a_h2 - a_h) / 3.0


def max_abs(values):
    """Largest |value|, or inf as soon as a value is not finite: max() would
    keep its running maximum past a NaN, and a NaN must fail a check."""
    worst = 0.0
    for r in values:
        if not math.isfinite(r):
            return math.inf
        worst = max(worst, abs(r))
    return worst


def residual_scan(form, x_of_t, t_samples, h=1e-3):
    """Max |form.residual(t, x, xd, xdd)| over samples, with xd and xdd from
    Richardson-extrapolated central differences of x_of_t; inf, with a
    warning, at the first non-finite residual."""
    def residual(t):
        x0, v, a = fd_derivatives(x_of_t, t, h)
        r = form.residual(t, x0, v, a)
        if not math.isfinite(r):
            warnings.warn("non-finite residual at t = %r" % (t,))
        return r

    return max_abs(residual(t)
                   for t in np.asarray(t_samples, dtype=float).tolist())


def trajectory_residual(form, x_of_t, v_of_t, t_samples, h=5e-3):
    """Max |residual| along a trajectory using the integrator's velocity and a
    Richardson finite difference of v for the acceleration.

    Differencing v (already one derivative) instead of x twice keeps the
    round-off amplification one power of h lower.
    """
    def residual(t):
        v, a, _ = fd_derivatives(v_of_t, t, h)
        return form.residual(t, x_of_t(t), v, a)

    return max_abs(residual(t)
                   for t in np.asarray(t_samples, dtype=float).tolist())
