"""Shared numerical kernels: IVP integration, trajectory sampling,
quadrature, root finding, Chebyshev collocation, and finite-difference
residual scanning.

The solver is DOP853 (8th-order embedded Runge-Kutta), scipy's algorithm
step for step in plain floats (see integrate), which returns the dense
solution.  It marches a scalar (case4's Riccati law) or a pair: every
second-order form in (x, v) goes through deform.integrate_form, the first
integral's implicit path (g reads v) included.  sample_trajectory samples
a pure state_at(t) once per distinct time, in increasing order, into a
Trajectory, the record of those states and of the solution's meta.  Root
finding on a bracket is Brent's method in plain floats, scipy's brentq
step for step, behind a sign check that raises the typed NoSignChange.
Quadrature has one rule: it fits each piece of a fixed dyadic grid once by
a Chebyshev series, splits a piece whose fit does not certify into halves,
and sums the antiderivatives (CumulativeIntegral); its Clenshaw sum, the
one Chebyshev evaluator, also sums the pole transit's series
(cheb_series).  Every implicit relation inverted pointwise (x and v of the
amplitude frame, the implicit path's velocity at its start, the beam's
F(u) = K sin(omega*t + phi)) goes through one safeguarded scalar solver,
solve_scalar, from a law that returns the residual and its slope in one
call; the oscillator's relations run its Newton loop inside their
generated code (exprdsl.Solve) and call it only where Newton stalls.
Nothing here imports scipy; the tests use it as the oracle.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from bisect import bisect_left, bisect_right
from collections import namedtuple

import numpy as np

from .errors import (
    EvalDomainError,
    ImplicitNoRoot,
    NoConvergence,
    NonFiniteState,
    NoSignChange,
    OscdeformError,
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
    """The record sample_trajectory returns: its PhaseStates, in strictly
    increasing time, and its meta dict."""

    def __init__(self, states, meta):
        self.states = states
        self.meta = meta


def _finite(**values):
    """The values as floats, in order; a NaN or infinite one raises a
    ValueError that names it."""
    out = []
    for name, value in values.items():
        value = float(value)
        if not math.isfinite(value):
            raise ValueError("%s must be finite, got %r" % (name, value))
        out.append(value)
    return out


def linspace(start, stop, num):
    """numpy.linspace(start, stop, num) for num >= 2 as a list of floats,
    bit for bit: i*step + start, and stop itself last (numpy differs only
    where the step underflows to 0 but stop - start does not)."""
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [float(stop)]


def sample_trajectory(state_at, t0, t1, t_eval=None, meta=None):
    """Trajectory of the pure state_at(t) -> (x, v) sampled at t_eval.

    t_eval defaults to 257 points on [t0, t1]; a time outside [t0, t1],
    or NaN, raises ValueError, and the times are sorted and deduplicated
    (of equal times, 0.0 and -0.0 too, the first given is kept); an empty
    t_eval samples no state.  Where meta lacks "x_of_t" or "v_of_t", it
    gains that projection of state_at.
    """
    ts = linspace(t0, t1, 257) if t_eval is None else list(map(float, t_eval))
    # the negated test refuses NaN as well
    if not all(t0 <= t <= t1 for t in ts):
        raise ValueError("t_eval must lie within [t0, t1]")
    states = [PhaseState(t, *state_at(t)) for t in sorted(set(ts))]
    return Trajectory(states, {"x_of_t": lambda t: state_at(t)[0],
                               "v_of_t": lambda t: state_at(t)[1],
                               **(meta or {})})


# The DOP853 tableau (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.5:
# the coefficients of dop853.f, as scipy.integrate.DOP853 holds them), with
# the zero coefficients left out: the stages after the first and the three
# extra dense-output stages as (c, [(j, a_j)]), and B, E3, E5 and each row of
# D as [(j, coefficient)].  tests/test_numerics.py holds every literal to
# scipy's arrays bit for bit.
_DOP853 = (
    # stages
    [
        (0.05260015195876773,
         [(0, 0.05260015195876773)]),
        (0.0789002279381516,
         [(0, 0.0197250569845379), (1, 0.0591751709536137)]),
        (0.1183503419072274,
         [(0, 0.02958758547680685), (2, 0.08876275643042054)]),
        (0.2816496580927726,
         [(0, 0.2413651341592667), (2, -0.8845494793282861),
          (3, 0.924834003261792)]),
        (0.3333333333333333,
         [(0, 0.037037037037037035), (3, 0.17082860872947386),
          (4, 0.12546768756682242)]),
        (0.25,
         [(0, 0.037109375), (3, 0.17025221101954405),
          (4, 0.06021653898045596), (5, -0.017578125)]),
        (0.3076923076923077,
         [(0, 0.03709200011850479), (3, 0.17038392571223998),
          (4, 0.10726203044637328), (5, -0.015319437748624402),
          (6, 0.008273789163814023)]),
        (0.6512820512820513,
         [(0, 0.6241109587160757), (3, -3.3608926294469414),
          (4, -0.868219346841726), (5, 27.59209969944671),
          (6, 20.154067550477894), (7, -43.48988418106996)]),
        (0.6,
         [(0, 0.47766253643826434), (3, -2.4881146199716677),
          (4, -0.590290826836843), (5, 21.230051448181193),
          (6, 15.279233632882423), (7, -33.28821096898486),
          (8, -0.020331201708508627)]),
        (0.8571428571428571,
         [(0, -0.9371424300859873), (3, 5.186372428844064),
          (4, 1.0914373489967295), (5, -8.149787010746927),
          (6, -18.52006565999696), (7, 22.739487099350505),
          (8, 2.4936055526796523), (9, -3.0467644718982196)]),
        (1.0,
         [(0, 2.273310147516538), (3, -10.53449546673725),
          (4, -2.0008720582248625), (5, -17.9589318631188),
          (6, 27.94888452941996), (7, -2.8589982771350235),
          (8, -8.87285693353063), (9, 12.360567175794303),
          (10, 0.6433927460157636)]),
    ],
    # extra
    [
        (0.1,
         [(0, 0.056167502283047954), (6, 0.25350021021662483),
          (7, -0.2462390374708025), (8, -0.12419142326381637),
          (9, 0.15329179827876568), (10, 0.00820105229563469),
          (11, 0.007567897660545699), (12, -0.008298)]),
        (0.2,
         [(0, 0.03183464816350214), (5, 0.028300909672366776),
          (6, 0.053541988307438566), (7, -0.05492374857139099),
          (10, -0.00010834732869724932), (11, 0.0003825710908356584),
          (12, -0.00034046500868740456), (13, 0.1413124436746325)]),
        (0.7777777777777778,
         [(0, -0.42889630158379194), (5, -4.697621415361164),
          (6, 7.683421196062599), (7, 4.06898981839711),
          (8, 0.3567271874552811), (12, -0.0013990241651590145),
          (13, 2.9475147891527724), (14, -9.15095847217987)]),
    ],
    # B
    [(0, 0.054293734116568765), (5, 4.450312892752409),
     (6, 1.8915178993145003), (7, -5.801203960010585),
     (8, 0.3111643669578199), (9, -0.1521609496625161),
     (10, 0.20136540080403034), (11, 0.04471061572777259)],
    # E3
    [(0, -0.18980075407240762), (5, 4.450312892752409),
     (6, 1.8915178993145003), (7, -5.801203960010585),
     (8, -0.4226823213237919), (9, -0.1521609496625161),
     (10, 0.20136540080403034), (11, 0.02265179219836082)],
    # E5
    [(0, 0.01312004499419488), (5, -1.2251564463762044),
     (6, -0.4957589496572502), (7, 1.6643771824549864),
     (8, -0.35032884874997366), (9, 0.3341791187130175),
     (10, 0.08192320648511571), (11, -0.022355307863886294)],
    # D
    [
     [(0, -8.428938276109013), (5, 0.5667149535193777),
      (6, -3.0689499459498917), (7, 2.38466765651207), (8, 2.117034582445028),
      (9, -0.871391583777973), (10, 2.2404374302607883),
      (11, 0.6315787787694688), (12, -0.08899033645133331),
      (13, 18.148505520854727), (14, -9.194632392478356),
      (15, -4.436036387594894)],
     [(0, 10.427508642579134), (5, 242.28349177525817),
      (6, 165.20045171727028), (7, -374.5467547226902),
      (8, -22.113666853125306), (9, 7.733432668472264),
      (10, -30.674084731089398), (11, -9.332130526430229),
      (12, 15.697238121770845), (13, -31.139403219565178),
      (14, -9.35292435884448), (15, 35.81684148639408)],
     [(0, 19.985053242002433), (5, -387.0373087493518),
      (6, -189.17813819516758), (7, 527.8081592054236),
      (8, -11.57390253995963), (9, 6.8812326946963),
      (10, -1.0006050966910838), (11, 0.7777137798053443),
      (12, -2.778205752353508), (13, -60.19669523126412),
      (14, 84.32040550667716), (15, 11.99229113618279)],
     [(0, -25.69393346270375), (5, -154.18974869023643),
      (6, -231.5293791760455), (7, 357.6391179106141), (8, 93.40532418362432),
      (9, -37.45832313645163), (10, 104.0996495089623),
      (11, 29.8402934266605), (12, -43.53345659001114),
      (13, 96.32455395918828), (14, -39.17726167561544),
      (15, -149.72683625798564)],
    ],
)


@functools.cache
def _kernels(n):
    """DOP853's first slope, step and dense-output stages for a state of
    n components, each written out from _DOP853 as one straight-line
    function of floats and compiled once:

        slope(rhs, t, y) -> the n-tuple rhs(t, y), as a stage calls it
        step(rhs, t, y, f, h) -> (y_new, f_new, E5 sums, E3 sums, K)
        dense(rhs, t, y, K, h) -> per component, h*sum_j D_j*K[j] per row

    The n-tuples y and f are the state and slope at t; K holds every
    stage of the step, flattened, and dense adds the three extra stages.
    Each coefficient is a repr literal and each sum reads
    0.0 + K[j0]*a_j0 + K[j1]*a_j1 + ... in the tableau's order, so every
    value is the tableau loop's, bit for bit.  rhs gets a float when n is
    1 and an n-tuple otherwise; each of its results goes through float().
    """
    stages, extra, B, E3, E5, D = _DOP853
    comps = range(n)

    def tup(items):
        return "(%s,)" % ", ".join(items)

    def dot(terms, i):
        return " + ".join(["0.0"] + ["k%d_%d*%r" % (j, i, a)
                                     for j, a in terms])

    def stage(j, t, args):
        ks = ["k%d_%d" % (j, i) for i in comps]
        if n == 1:
            return ["%s = float(rhs(%s, %s))" % (ks[0], t, args[0])]
        return (["%s = rhs(%s, %s)" % (", ".join(ks), t, tup(args))]
                + ["%s = float(%s)" % (k, k) for k in ks])

    def stages_from(first, table):
        return [line for j, (c, a) in enumerate(table, first)
                for line in stage(j, "t + %r*h" % c,
                                  ["y%d + (%s)*h" % (i, dot(a, i))
                                   for i in comps])]

    last = len(stages) + 1          # f_new, the slope at the step's end
    ys = tup(["y%d" % i for i in comps])
    K = tup(["k%d_%d" % (j, i) for j in range(last + 1) for i in comps])
    slope = (["def slope(rhs, t, y):", "%s = y" % ys]
             + stage(0, "t", ["y%d" % i for i in comps])
             + ["return %s" % tup(["k0_%d" % i for i in comps])])
    step = (["def step(rhs, t, y, f, h):",
             "%s = y" % ys,
             "%s = f" % tup(["k0_%d" % i for i in comps])]
            + stages_from(1, stages)
            + ["yn%d = y%d + (%s)*h" % (i, i, dot(B, i)) for i in comps]
            + stage(last, "t + h", ["yn%d" % i for i in comps])
            + ["return (%s, %s, %s, %s, %s)" % (
                tup(["yn%d" % i for i in comps]),
                tup(["k%d_%d" % (last, i) for i in comps]),
                tup([dot(E5, i) for i in comps]),
                tup([dot(E3, i) for i in comps]), K)])
    dense = (["def dense(rhs, t, y, K, h):", "%s = y" % ys, "%s = K" % K]
             + stages_from(last + 1, extra)
             + ["return %s" % tup([tup(["h*(%s)" % dot(d, i) for d in D])
                                   for i in comps])])
    scope = {}
    exec("".join("\n    ".join(fn) + "\n" for fn in (slope, step, dense)),
         scope)
    return scope["slope"], scope["step"], scope["dense"]


def _rms(values):
    """scipy's RMS norm: the 2-norm over the square root of the length."""
    return math.sqrt(sum([v * v for v in values])) / len(values) ** 0.5


def _initial_step(slope, rhs, t0, y0, f0, t1, direction, rtol, atol):
    """scipy's select_initial_step for DOP853's error order 7 (Hairer,
    Norsett & Wanner, Solving ODEs I, sec. II.4); one call of rhs, through
    slope (_kernels)."""
    interval = abs(t1 - t0)
    scale = [atol + abs(yi) * rtol for yi in y0]
    d0 = _rms([yi / si for yi, si in zip(y0, scale)])
    d1 = _rms([fi / si for fi, si in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = slope(rhs, t0 + h0 * direction,
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
    together).  Each step runs as one generated straight-line function of
    floats for the state's size (_kernels), built from the tableau on
    first use: the same rhs calls, steps and bits as a loop over the
    tableau.  A step that would fall below ten spacings of t (or is
    NaN) raises StepSizeUnderflow, and an accepted non-finite state
    NonFiniteState.
    """
    if not (math.isfinite(t0) and math.isfinite(t1)) or t0 == t1:
        raise ValueError("t-span must be finite and non-degenerate")
    if not (rtol > 0 and atol > 0):
        raise ValueError("tolerances must be positive")
    try:
        y = tuple(y0)
    except TypeError:           # not iterable: a number
        y = (y0,)
    else:
        if len(y) != 2:
            raise ValueError("y0 must be a number or a pair")
    y = tuple([float(c) for c in y])
    if rtol < 100 * _EPS:
        warnings.warn("rtol %r is too small; using %r" % (rtol, 100 * _EPS))
        rtol = 100 * _EPS
    slope, step, dense = _kernels(len(y))
    t, t1 = float(t0), float(t1)
    direction = 1.0 if t1 > t else -1.0
    f = slope(rhs, t, y)
    h_abs = _initial_step(slope, rhs, t, y, f, t1, direction, rtol, atol)
    ts = [t]
    # per component, each step's (t_old, h, y_old, reversed F rows)
    pieces = tuple([] for _ in y)
    while direction * (t - t1) < 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:      # a NaN step size fails here too
                raise StepSizeUnderflow(
                    "required step size is less than spacing between "
                    "numbers at t = %r" % t, t, y)
            t_new = t + h_abs * direction
            if direction * (t_new - t1) > 0:
                t_new = t1
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new, sums5, sums3, K = step(rhs, t, y, f, h)
            err5 = err3 = 0.0
            for i, yi in enumerate(y):
                # max() keeps a NaN of y_new, as np.maximum does
                scale = atol + max(abs(y_new[i]), abs(yi)) * rtol
                e5 = sums5[i] / scale
                e3 = sums3[i] / scale
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
        hD = dense(rhs, t, y, K, h)
        for i, yi in enumerate(y):
            dy = y_new[i] - yi
            F = [dy, h * f[i] - dy, 2 * dy - h * (f_new[i] + f[i])]
            F += hD[i]
            pieces[i].append((t, h, yi, F[::-1]))
        t, y, f = t_new, y_new, f_new
        ts.append(t)

    # OdeSolution's segment rule: the lower index at a step time
    last = len(pieces[0]) - 1
    if direction > 0:
        def segment(t):
            return min(max(bisect_left(ts, t) - 1, 0), last)
    else:
        ts.reverse()

        def segment(t):
            return last - min(max(bisect_right(ts, t) - 1, 0), last)

    def component(pieces):
        def at(t):
            # Dop853DenseOutput's Horner loop on floats, unrolled
            t = float(t)
            t_old, h, y_old, (f0, f1, f2, f3, f4, f5, f6) = pieces[segment(t)]
            x = (t - t_old) / h
            return ((((((((0.0 + f0) * x + f1) * (1 - x) + f2) * x + f3)
                       * (1 - x) + f4) * x + f5) * (1 - x) + f6) * x + y_old)
        return at

    return tuple(component(p) for p in pieces)


# --- quadrature ---------------------------------------------------------------

_PANEL_WIDTH = 0.25

# A piece's fit reads f at the _FIT_NODES first-kind Chebyshev points
# cos(pi*(j + 1/2)/n); the DCT-II rows (2/n)*T_k(x_j), in plain floats,
# T_k(x_j) taken at k*(2j + 1) reduced mod 4n exactly, as _cheb does,
# turn those values into Chebyshev coefficients (see CumulativeIntegral).
_FIT_NODES = 17
_FIT_X = tuple(math.cos(math.pi * (j + 0.5) / _FIT_NODES)
               for j in range(_FIT_NODES))
_FIT_DCT = tuple(tuple(2.0 / _FIT_NODES * math.cos(
    math.pi * (k * (2 * j + 1) % (4 * _FIT_NODES)) / (2 * _FIT_NODES))
    for j in range(_FIT_NODES)) for k in range(_FIT_NODES))
_CHOP = 1e-12
# A fit also certifies when its half width times its tail is at most
# _FLOOR, and a piece that does not splits at most _MAX_LEVEL times below
# its panel (see CumulativeIntegral).
_FLOOR = 1e-14
_MAX_LEVEL = 40


def _chebyshev(f, c, h):
    """f's Chebyshev coefficients on the piece c + h*x, x in [-1, 1] (h < 0
    runs it high to low), from its values at the first-kind points, with
    two zeros appended; their largest magnitude; and the magnitude of the
    last two, the tail.  An OscdeformError at a node propagates."""
    ys = [f(c + h * x) for x in _FIT_X]
    a = [sum(map(operator.mul, row, ys)) for row in _FIT_DCT] + [0.0, 0.0]
    a[0] *= 0.5
    return (a, max(map(abs, a)),
            abs(a[_FIT_NODES - 2]) + abs(a[_FIT_NODES - 1]))


def _antiderivative(f, c, h):
    """The Chebyshev coefficients B of the integral of f from c - h to
    c + h*x on the piece c + h*x, or None if f's fit does not certify (a
    non-finite value never does).  An OscdeformError at a node
    propagates."""
    a, scale, tail = _chebyshev(f, c, h)
    if not (scale < math.inf
            and (tail <= _CHOP * scale or abs(h) * tail <= _FLOOR)):
        return None
    # int T_0 = T_1, int T_k = T_(k+1)/(2(k+1)) - T_(k-1)/(2(k-1)); B_0
    # makes the sum 0 at x = -1, where T_k = (-1)^k
    B = [0.0, h * (a[0] - 0.5 * a[2])] + [
        h * (a[k - 1] - a[k + 1]) / (2 * k) for k in range(2, _FIT_NODES + 1)]
    B[0] = sum(B[1::2]) - sum(B[2::2])
    return B


def _clenshaw(B, x):
    """The sum of B[k]*T_k(x) by Clenshaw's recurrence."""
    x2, b1, b2 = 2.0 * x, 0.0, 0.0
    for b in B[:0:-1]:
        b1, b2 = x2 * b1 - b2 + b, b1
    return B[0] + x * b1 - b2


class CumulativeIntegral:
    """Smooth evaluator of F(t) = integral of f from origin to t.

    Panels of constant width, fixed by the origin, the side and the index,
    are accumulated lazily in both directions from the origin.  The first
    query that reaches a piece (a panel to begin with) fits f on it once,
    at _FIT_NODES Chebyshev points of the first kind (interior points:
    never the piece's edges), and keeps the series of the fit's
    antiderivative (Trefethen, Approximation Theory and Approximation
    Practice, ch. 3 and 19).  The fit certifies when its last two
    coefficients sum to at most _CHOP = 1e-12 of its largest, a fixed ratio
    that admits the beam's rho, whose coefficients level off at a noise
    plateau near 1e-14, while a smooth f decays to rounding well within 17
    terms; or when that tail times the piece's half width h is at most
    _FLOOR = 1e-14, which admits a piece whose values are rounding noise
    next to its largest, as rho's are next to u = 0.
    A piece whose fit does not certify (a node gives a non-finite value, or
    the coefficients do not chop) splits into two halves at its centre, and
    so on down a fixed dyadic grid, set by the origin, the side, the panel
    index and the level (Pachon, Platte & Trefethen, Piecewise-smooth
    chebfuns, IMA J. Numer. Anal. 30, 2010).  A query is then the
    accumulated sum of whole panels plus, in t's own panel, the certified
    pieces before t and one Clenshaw sum in the piece that holds t, with no
    integrand call once each piece is fitted.  An OscdeformError at a node
    of a piece that lies wholly between the origin and t propagates; one at
    a node of the piece that holds t, beyond t, only splits that piece, so
    f is read beyond t only at the nodes of t's own pieces.  A query that
    would split a piece _MAX_LEVEL = 40 levels below its panel, or visit
    more than 64*_MAX_LEVEL pieces of one panel, raises NoConvergence,
    which names t, and forgets the pieces it fitted in that panel: so a
    noisy or fast-oscillating f costs a bounded number of calls per query
    and leaves nothing behind (a query 1e-6 before the unbounded pole of
    -0.3/sin(t) visits 2,024 pieces of its panel).  F is smooth in t
    (unlike adaptive quadrature, whose subdivision pattern follows the
    query), which matters when F feeds finite differences, and a pure
    function of t, whatever the order of queries.  So it keeps the value
    of its last query and returns it when the same float (matched on its
    bits: 0.0 is not -0.0) is asked for again: x and v of one sample ask
    for one t, and so do F and dF/du at one Newton iterate.  A NaN or
    infinite t raises a ValueError that names t.
    """

    def __init__(self, f, origin):
        self.f = f
        self.origin = float(origin)
        # per side: _acc[side][k] = F(origin + side*k*_PANEL_WIDTH)
        self._acc = {1: [0.0], -1: [0.0]}
        # (near edge, signed half width): _antiderivative of that piece,
        # or the (OscdeformError, traceback) of the node that raised it
        self._fits = {}
        self._visits = 0  # pieces the current panel's query may still visit
        self._last = (math.nan, math.nan)  # (t, F(t)) of the last query

    def _part(self, edge, far, h, t, whole):
        """The integral of f over the piece from edge to far, of half width
        h (negative below the origin), from edge to t, or to far if the
        piece is `whole`: wholly between the origin and t."""
        self._visits -= 1
        if self._visits < 0:
            raise NoConvergence(
                "the integral to t = %r did not certify in %d pieces of a "
                "panel" % (t, 64 * _MAX_LEVEL))
        fit = self._fits.get((edge, h), ())
        if fit == ():       # not fitted yet
            try:
                fit = _antiderivative(self.f, edge + h, h)
            except OscdeformError as exc:
                fit = (exc, exc.__traceback__)
            self._fits[edge, h] = fit
        if type(fit) is list:
            return _clenshaw(fit, ((far if whole else t) - edge) / h - 1.0)
        if whole and fit is not None:
            raise fit[0].with_traceback(fit[1])
        if abs(h) <= 0.5 * _PANEL_WIDTH / 2 ** _MAX_LEVEL:
            raise NoConvergence(
                "the integral to t = %r did not certify on a piece of width "
                "%.3g" % (t, 2.0 * abs(h)))
        mid, h = edge + h, 0.5 * h
        if whole or (t - mid) * h > 0.0:
            return (self._part(edge, mid, h, t, True)
                    + self._part(mid, far, h, t, whole))
        return self._part(edge, mid, h, t, False)

    def _panel_part(self, edge, far, h, t, whole):
        """_part over a panel, within its budget of pieces."""
        self._visits = 64 * _MAX_LEVEL
        fitted = len(self._fits)
        try:
            return self._part(edge, far, h, t, whole)
        except NoConvergence:
            for piece in list(self._fits)[fitted:]:
                del self._fits[piece]
            raise

    def __call__(self, t):
        t = float(t)
        last_t, last_F = self._last
        if t == last_t and (t or math.copysign(1.0, t)
                            == math.copysign(1.0, last_t)):
            return last_F
        if not math.isfinite(t):
            raise ValueError("t must be finite, got %r" % (t,))
        s = (t - self.origin) / _PANEL_WIDTH
        side = 1 if s >= 0 else -1
        h = 0.5 * side * _PANEL_WIDTH
        # whole panels strictly between the origin and t, then t's own
        k = int(math.floor(side * s))
        acc = self._acc[side]
        while len(acc) <= k:
            j = len(acc)
            acc.append(acc[-1] + self._panel_part(
                self.origin + side * (j - 1) * _PANEL_WIDTH,
                self.origin + side * j * _PANEL_WIDTH, h, t, True))
        F = acc[k]
        edge = self.origin + side * k * _PANEL_WIDTH
        if t != edge:
            F += self._panel_part(
                edge, self.origin + side * (k + 1) * _PANEL_WIDTH, h, t, False)
        self._last = (t, F)
        return F


# --- root finding ---------------------------------------------------------------

def find_root(f, lo, hi, tol=1e-12):
    """Root of f on a sign-changing bracket [lo, hi].

    Brent's method (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4) in plain floats, scipy's brentq (brentq.c)
    step for step with xtol = tol, rtol = max(tol, 4*ulp(1)) and at most
    200 iterations, so it returns brentq's bits; it stops once the bracket
    is narrower than about tol*(1+|x|).  f(lo) and f(hi) are evaluated
    once.  Raises NoSignChange unless they have strictly opposite signs, so
    a NaN end is rejected; EvalDomainError at a NaN value inside the
    bracket; NoConvergence when the iterations run out.
    """
    lo = float(lo)
    hi = float(hi)
    flo = float(f(lo))
    if flo == 0.0:
        return lo
    fhi = float(f(hi))
    if fhi == 0.0:
        return hi
    if not (flo < 0.0 < fhi or fhi < 0.0 < flo):
        raise NoSignChange("f(%g)=%g and f(%g)=%g do not change sign"
                           % (lo, flo, hi, fhi))
    rtol = max(tol, 4.0 * _EPS)
    # xcur is the best estimate, xblk the other end of the bracket and
    # xpre the previous estimate; spre and scur are the last two steps
    xpre, fpre, xcur, fcur = lo, flo, hi, fhi
    xblk = fblk = spre = scur = 0.0
    for _ in range(200):
        if fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (tol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf     # bisect unless interpolation steps short
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:        # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:                   # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                pass                    # C's inf or NaN, which bisects
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
        if fcur != fcur:
            raise EvalDomainError("f(%r) is NaN" % xcur)
    raise NoConvergence("no root found on [%r, %r] in 200 iterations"
                        % (lo, hi))


_BRACKET_WIDTHS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 256.0)


def solve_scalar(law, guess, tol, *params):
    """Root of h near guess, for inverting an implicit relation pointwise,
    where law(x, *params) returns the pair (h(x), dh/dx(x)).

    Newton steps from guess stop once |h(x)| <= tol*(1 + |x|).  When Newton
    stalls (zero or non-finite derivative, non-finite iterate, 60 steps
    spent) the root is bracketed instead: find_root runs on the first of a
    fixed set of widening brackets centred on guess whose ends change sign.
    A bracket whose ends have the same sign or leave the domain of the law
    is skipped; any other error of the law propagates.  Raises
    ImplicitNoRoot when no bracket changes sign.

    exprdsl.Solve generates this Newton loop inline, with the same
    operations in the same order, and calls solve_scalar where it stalls,
    so this function is the bracket fallback of every generated solve;
    the two must change together.
    """
    x = guess = float(guess)
    for _ in range(60):
        hx, d = law(x, *params)
        if abs(hx) <= tol * (1.0 + abs(x)):
            return x
        if d == 0.0 or not math.isfinite(d):
            break
        x_new = x - hx / d
        if not math.isfinite(x_new):
            break
        x = x_new

    def h(x):
        return law(x, *params)[0]

    for width in _BRACKET_WIDTHS:
        try:
            return find_root(h, guess - width, guess + width, tol=1e-15)
        except (NoSignChange, EvalDomainError):
            continue
    raise ImplicitNoRoot("no root within %g of %r" % (_BRACKET_WIDTHS[-1], guess))


# --- Chebyshev collocation -------------------------------------------------------

@functools.cache
def _cheb(n):
    """The n+1 Chebyshev extreme points cos(pi*j/n) on [-1, 1], their
    differentiation matrix and the matrix that turns values there into
    Chebyshev coefficients, read-only, once per n."""
    j = np.arange(n + 1)
    xc = np.cos(math.pi * j / n)          # 1 ... -1
    c = np.where((j == 0) | (j == n), 2.0, 1.0) * (-1.0) ** j
    dx = xc[:, None] - xc[None, :] + np.eye(n + 1)
    D = np.outer(c, 1.0 / c) / dx
    D -= np.diag(D.sum(axis=1))
    # a_k = (2/n) * sum of y_j*T_k(x_j), halved at j = 0, n and k = 0, n,
    # with T_k(x_j) = cos(pi*j*k/n) taken at j*k reduced mod 2n, exactly
    hw = 1.0 / np.abs(c)
    V = (2.0 / n) * np.outer(hw, hw) * np.cos(
        math.pi * (np.outer(j, j) % (2 * n)) / n)
    for a in (xc, D, V):
        a.flags.writeable = False
    return xc, D, V


def cheb_nodes_diff(n, a, b):
    """Chebyshev extreme points mapped to [a, b] (ascending) and the
    spectral differentiation matrix acting on values at those points
    (Trefethen, Spectral Methods in MATLAB, ch. 6: cheb.m, with the
    diagonal from the negative row sums).  Both are new arrays."""
    xc, D = _cheb(n)[:2]
    ts = a + (b - a) * (1.0 - xc) / 2.0   # ascending in t
    return ts, D * (-2.0 / (b - a))


def cheb_series(Y, a, b):
    """The Chebyshev series through values Y at cheb_nodes_diff's points
    on [a, b], as a function of t summed by _clenshaw (t = b is x = -1
    exactly), which returns the node value Y[0] itself at t = a, where a
    collocation pins it; and whether it chops: its last two coefficients
    sum to at most _CHOP of its largest, as a CumulativeIntegral fit's
    must."""
    B = (_cheb(len(Y) - 1)[2] @ Y).tolist()
    chops = abs(B[-2]) + abs(B[-1]) <= _CHOP * max(map(abs, B))
    first = float(Y[0])

    def series(t):
        return first if t == a else _clenshaw(B, 1.0 - 2.0 * (t - a) / (b - a))

    return series, chops


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


def residual_scan(form, x_of_t, t_samples):
    """Max |form.residual(t, x, xd, xdd)| over samples, with xd and xdd from
    Richardson-extrapolated central differences of x_of_t of step 1e-3;
    inf, with a warning, at the first non-finite residual."""
    def residual(t):
        x0, v, a = fd_derivatives(x_of_t, t, 1e-3)
        r = form.residual(t, x0, v, a)
        if not math.isfinite(r):
            warnings.warn("non-finite residual at t = %r" % (t,))
        return r

    return max_abs(residual(float(t)) for t in t_samples)


def trajectory_residual(form, x_of_t, v_of_t, t_samples):
    """Max |residual| along a trajectory using the integrator's velocity and a
    Richardson finite difference of v, of step 5e-3, for the acceleration.

    Differencing v (already one derivative) instead of x twice keeps the
    round-off amplification one power of h lower.
    """
    def residual(t):
        v, a, _ = fd_derivatives(v_of_t, t, 5e-3)
        return form.residual(t, x_of_t(t), v, a)

    return max_abs(residual(float(t)) for t in t_samples)
