import inspect
import itertools
import json
import math
import random
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, solve_ivp
from scipy.integrate._ivp.common import OdeSolution
from scipy.optimize import brentq

from oscdeform import apps, catalog, cli, numerics
from oscdeform.errors import (
    DomainViolation,
    EvalDomainError,
    ImplicitNoRoot,
    NoConvergence,
    NonFiniteState,
    NoSignChange,
    OscdeformError,
    StepSizeUnderflow,
)
from oscdeform.numerics import (
    CumulativeIntegral,
    PhaseState,
    Trajectory,
    cheb_nodes_diff,
    cheb_series,
    fd_derivatives,
    find_root,
    integrate,
    linspace,
    max_abs,
    residual_scan,
    sample_trajectory,
    solve_scalar,
    trajectory_residual,
)


class _Form:
    """Duck-typed stand-in for an ODE form: residual built from a callable."""

    def __init__(self, fn):
        self._fn = fn

    def residual(self, t, x, v, a):
        return self._fn(t, x, v, a)


def _circle(t):
    return math.cos(t), -math.sin(t)


def test_sample_trajectory_sorts_and_deduplicates_times():
    traj = sample_trajectory(_circle, 0.0, 1.0, [0.5, 0.25, 1.0, 0.5, 0.0])
    assert isinstance(traj, Trajectory)
    assert [s.t for s in traj.states] == [0.0, 0.25, 0.5, 1.0]
    assert all(s == PhaseState(s.t, *_circle(s.t)) for s in traj.states)
    # the default grid: 257 times spanning [t0, t1]
    ts = [s.t for s in sample_trajectory(_circle, 0.0, 1.0).states]
    assert len(ts) == 257 and (ts[0], ts[-1]) == (0.0, 1.0)
    assert all(a < b for a, b in zip(ts, ts[1:]))


def _bits(values):
    return [float(v).hex() for v in values]


def test_sample_trajectory_is_numpys_grid_and_dedupe_bit_for_bit():
    # the default grid is np.linspace(t0, t1, 257), and cli._grid's
    # linspace is np.linspace at any count, bit for bit
    rng = random.Random(7)
    spans = [(0.0, 1.0), (0.5, 0.5 + 2.0 * math.pi), (-3.0, 1e-3),
             (2.0, 2.0), (-0.0, 0.0)]
    spans += [sorted((rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)))
              for _ in range(200)]
    for t0, t1 in spans:
        ts = [s.t for s in sample_trajectory(lambda t: (t, t), t0, t1).states]
        assert _bits(ts) == _bits(np.unique(np.linspace(t0, t1, 257)))
        for n, (a, b) in itertools.product((2, 3, 101), ((t0, t1), (t1, t0))):
            assert _bits(linspace(a, b, n)) == _bits(np.linspace(a, b, n))
    # the dedupe is np.unique's on unsorted times with repeats
    t_eval = [rng.choice((0.75, -1.5, 1e-300, 2.5, 0.1)) for _ in range(60)]
    got = [s.t for s in sample_trajectory(_circle, -2.0, 3.0, t_eval).states]
    assert _bits(got) == _bits(np.unique(t_eval))
    # with both zeros, it keeps the first given; np.unique keeps either,
    # by an order its sort leaves unspecified
    for zeros in ((0.0, -0.0), (-0.0, 0.0)):
        got = sample_trajectory(_circle, -2.0, 3.0,
                                [1.0, *zeros, 1.0, -1.5, *zeros]).states
        assert _bits(s.t for s in got) == _bits([-1.5, zeros[0], 1.0])
        assert [s.t for s in got] == np.unique([1.0, *zeros, -1.5]).tolist()


def test_sample_trajectory_refuses_a_time_outside_the_span():
    for t_eval in ([0.5, 1.5], [-0.1, 0.5]):
        with pytest.raises(ValueError):
            sample_trajectory(_circle, 0.0, 1.0, t_eval)


def test_sample_trajectory_refuses_a_nan_time():
    with pytest.raises(ValueError, match="t_eval must lie within"):
        sample_trajectory(_circle, 0.0, 1.0, [0.5, math.nan])


def test_sample_trajectory_of_no_times_keeps_the_solution():
    calls = []

    def state_at(t):
        calls.append(t)
        return _circle(t)

    traj = sample_trajectory(state_at, 0.0, 1.0, (), {"k": 1})
    assert traj.states == [] and calls == []
    assert traj.meta["x_of_t"](0.3) == math.cos(0.3)
    assert traj.meta["v_of_t"](0.3) == -math.sin(0.3)
    assert traj.meta["k"] == 1


def test_trajectory_is_only_its_states_and_meta():
    """A Trajectory is a record of two members, not a sequence: a reader
    of len(traj) or traj.x fails loudly."""
    traj = sample_trajectory(lambda t: (2.0 * t, 3.0 * t), 0.0, 1.0,
                             [1.0, 0.0])
    assert traj.states == [PhaseState(0.0, 0.0, 0.0),
                           PhaseState(1.0, 2.0, 3.0)]
    assert vars(traj).keys() == {"states", "meta"}
    assert [k for k in vars(Trajectory) if not k.startswith("__")] == []
    with pytest.raises(TypeError):
        len(traj)
    with pytest.raises(TypeError):
        iter(traj)
    with pytest.raises(AttributeError):
        traj.x


def test_sample_trajectory_keeps_the_projections_meta_has():
    """sample_trajectory adds only the projections meta lacks."""
    def x_only(t):
        return 5.0 * t

    traj = sample_trajectory(_circle, 0.0, 1.0, (), {"x_of_t": x_only})
    assert traj.meta["x_of_t"] is x_only
    assert traj.meta["v_of_t"](0.3) == -math.sin(0.3)


def _oscillator(t, y):
    """x'' = -x as a first-order system in y = (x, v)."""
    return (y[1], -y[0])


def test_integrate_validation():
    with pytest.raises(ValueError):
        integrate(_oscillator, 0.0, (1.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        integrate(_oscillator, 0.0, (1.0, 0.0), 1.0, rtol=0.0)
    with pytest.raises(ValueError):
        integrate(_oscillator, 0.0, (1.0,), 1.0)
    with pytest.raises(ValueError):
        integrate(_oscillator, 0.0, (1.0, 0.0, 0.0), 1.0)


def test_integrate_harmonic_round_trip():
    x_of_t, v_of_t = integrate(_oscillator, 0.0, (1.0, 0.0), 2 * math.pi)
    assert x_of_t(2 * math.pi) == pytest.approx(1.0, abs=1e-8)
    assert v_of_t(2 * math.pi) == pytest.approx(0.0, abs=1e-8)


def test_integrate_exponential_first_order():
    x_of_t, = integrate(lambda t, x: x, 0.0, 1.0, 1.0)
    assert x_of_t(1.0) == pytest.approx(math.e, rel=1e-10)


def test_integrate_calls_rhs_only_inside_the_solver():
    calls = [0]

    def rhs(t, x):
        calls[0] += 1
        return -x + math.sin(t)

    integrate(rhs, 0.0, 0.5, 4.0)
    sol = solve_ivp(lambda t, y: (-y[0] + math.sin(t),), (0.0, 4.0), [0.5],
                    method="DOP853", rtol=1e-10, atol=1e-12,
                    dense_output=True)
    assert calls[0] == sol.nfev


def _close(got, want):
    """Agreement with scipy's value to 1e-13*(1 + |value|): the sums of
    the stages run in another order than numpy's, so not bit for bit."""
    return abs(got - want) <= 1e-13 * (1.0 + abs(want))


def test_dense_solution_matches_solve_ivp_t_eval():
    grid = np.linspace(0.0, 2 * math.pi, 33)
    x_of_t, v_of_t = integrate(_oscillator, 0.0, (1.0, 0.0), 2 * math.pi)
    sol = solve_ivp(_oscillator, (0.0, 2 * math.pi), [1.0, 0.0],
                    method="DOP853", rtol=1e-10, atol=1e-12, t_eval=grid)
    for t, x, v in zip(grid.tolist(), sol.y[0].tolist(), sol.y[1].tolist()):
        assert _close(x_of_t(t), x) and _close(v_of_t(t), v)


# (rhs, t0, y0, t1): forward and backward spans, a number and a pair, a
# span of one step, and a pair and a number at rest at signed zeros
_DENSE_CASES = {
    "number forward": (lambda t, x: -x + math.sin(3.0 * t), 0.2, 0.7, 5.0),
    "number backward": (lambda t, x: -x + math.sin(3.0 * t), 5.0, 0.7, 0.2),
    "pair forward": (_oscillator, -1.0, (1.0, 0.3), 7.5),
    "pair backward": (_oscillator, 7.5, (1.0, 0.3), -1.0),
    "one step": (lambda t, x: 1.0, 0.0, 0.25, 1e-3),
    "pair at rest": (_oscillator, 0.0, (-0.0, 0.0), -2.0),
    "number at rest": (lambda t, x: x, 0.0, -0.0, 1.0),
}


@pytest.mark.parametrize("name", sorted(_DENSE_CASES))
def test_dense_solution_is_scipys_interpolant_bit_for_bit(name, monkeypatch):
    """integrate takes scipy's DOP853 steps: it calls rhs at the same stages
    of the same steps as solve_ivp, so with the same nfev, and its dense
    solution is scipy's to rounding, a float, with the sign of a zero
    kept."""
    rhs, t0, y0, t1 = _DENSE_CASES[name]
    pair = np.ndim(y0) == 1
    scipy_times = []

    def field(t, y):
        scipy_times.append(float(t))
        return rhs(t, y) if pair else (rhs(t, y[0]),)

    sol = solve_ivp(field, (t0, t1), np.atleast_1d(np.asarray(y0, float)),
                    method="DOP853", rtol=1e-10, atol=1e-12,
                    dense_output=True)
    assert len(scipy_times) == sol.nfev
    if name == "one step":
        assert len(sol.t) == 2
    rng = np.random.default_rng(11)
    # random times, every step time as a float and as a numpy scalar, and
    # both ends
    queries = (rng.uniform(min(t0, t1), max(t0, t1), 200).tolist()
               + sol.t.tolist() + list(sol.t) + [t0, t1])
    expected = [sol.sol(t).tolist() for t in queries]

    def refuse(*args, **kwargs):
        raise AssertionError("scipy called")

    # neither the steps nor the evaluation call into scipy
    monkeypatch.setattr(OdeSolution, "__call__", refuse)
    monkeypatch.setattr(scipy.integrate, "solve_ivp", refuse)
    times = []

    def counted(t, y):
        times.append(t)
        return rhs(t, y)

    dense = integrate(counted, t0, y0, t1)
    # the same rhs calls, so the same steps: every attempt makes 12 calls
    # from its start and every accepted step 3 more, so a step accepted in
    # one and rejected in the other would put calls a step apart.  A step
    # size itself differs at about 1e-8: the error estimate is a sum that
    # cancels to a few ulps, whose rounding depends on the summation order
    assert len(times) == sol.nfev
    assert all(abs(a - b) <= 1e-6 * (1.0 + abs(b))
               for a, b in zip(times, scipy_times))
    assert len(dense) == (2 if pair else 1)
    for t, want in zip(queries, expected):
        for fn, w in zip(dense, want):
            got = fn(t)
            assert type(got) is float
            assert _close(got, w)
            assert math.copysign(1.0, got) == math.copysign(1.0, w)


def _horner_loop(pieces, segment, t):
    """The reference for the dense solution's evaluation: Dop853DenseOutput's
    Horner loop over a step's rows, on floats, as a loop."""
    t = float(t)
    t_old, h, y_old, rows = pieces[segment(t)]
    x = (t - t_old) / h
    y = 0.0
    for j, f in enumerate(rows):
        y += f
        y *= x if j % 2 == 0 else 1 - x
    return y + y_old


@pytest.mark.parametrize("name", sorted(_DENSE_CASES))
def test_dense_solution_is_the_horner_loop_bit_for_bit(name):
    """The unrolled evaluation of each component is the Horner loop over
    the same step's rows: the same bits, the sign of a zero included, at
    random times, at every step time and at both ends."""
    rhs, t0, y0, t1 = _DENSE_CASES[name]
    rng = random.Random(23)
    for fn in integrate(rhs, t0, y0, t1):
        cells = inspect.getclosurevars(fn).nonlocals
        pieces, segment = cells["pieces"], cells["segment"]
        steps = [p[0] for p in pieces] + [t1]
        queries = ([rng.uniform(min(t0, t1), max(t0, t1)) for _ in range(200)]
                   + steps + [np.float64(t) for t in steps] + [t0])
        for t in queries:
            assert fn(t).hex() == _horner_loop(pieces, segment, t).hex(), t


def _dot(K, terms, i):
    """Component i of sum_j a_j*K[j], summed in order from 0.0."""
    acc = 0.0
    for j, a in terms:
        acc += K[j][i] * a
    return acc


def _advance(y, K, terms, h):
    """y + (sum_j a_j*K[j])*h, componentwise: one Runge-Kutta stage or step."""
    return tuple([yi + _dot(K, terms, i) * h for i, yi in enumerate(y)])


def _loop_kernels(n):
    """The reference for numerics._kernels(n): the same first slope, step
    and dense stages as a loop over the tableau, each stage through a field
    that hands rhs a float (n = 1) or a tuple and takes float() of its
    result; the first slope is that field itself."""
    stages, extra, B, E3, E5, D = numerics._DOP853

    def field(rhs, t, y):
        return ((float(rhs(t, y[0])),) if n == 1
                else tuple([float(k) for k in rhs(t, y)]))

    def step(rhs, t, y, f, h):
        K = [f]
        for c, a in stages:
            K.append(field(rhs, t + c * h, _advance(y, K, a, h)))
        y_new = _advance(y, K, B, h)
        K.append(field(rhs, t + h, y_new))
        return (y_new, K[-1], [_dot(K, E5, i) for i in range(n)],
                [_dot(K, E3, i) for i in range(n)], K)

    def dense(rhs, t, y, K, h):
        K = list(K)
        for c, a in extra:
            K.append(field(rhs, t + c * h, _advance(y, K, a, h)))
        return [[h * _dot(K, d, i) for d in D] for i in range(n)]
    return field, step, dense


@pytest.mark.parametrize("name", sorted(_DENSE_CASES))
def test_generated_step_is_the_tableau_loop_bit_for_bit(name, monkeypatch):
    """The straight-line step makes the tableau loop's floating-point
    operations in its order: the same rhs calls at the same times and
    states, and dense values equal bit for bit, the sign of a zero
    included."""
    rhs, t0, y0, t1 = _DENSE_CASES[name]
    queries = np.linspace(t0, t1, 301).tolist()

    def run():
        calls = []

        def counted(t, y):
            calls.append([c.hex() for c in np.atleast_1d(y).tolist()]
                         + [t.hex()])
            return rhs(t, y)

        dense = integrate(counted, t0, y0, t1)
        return calls, [fn(t).hex() for fn in dense for t in queries]

    calls, values = run()
    monkeypatch.setattr(numerics, "_kernels", _loop_kernels)
    assert run() == (calls, values)


def test_tableau_literals_are_scipys_bit_for_bit():
    """Every coefficient of numerics._DOP853 is scipy's float, and the
    entries it leaves out are exactly scipy's zeros."""
    stages, extra, B, E3, E5, D = numerics._DOP853
    n = DOP853.n_stages

    def full(terms, size):
        assert all(a != 0.0 for _, a in terms)
        row = [0.0] * size
        for j, a in terms:
            row[j] = a
        return row

    def hexes(rows):
        return [[float(a).hex() for a in row] for row in rows]

    assert hexes([[c for c, _ in stages]]) == hexes([DOP853.C[1:]])
    assert hexes([full(a, n) for _, a in stages]) == hexes(DOP853.A[1:])
    assert hexes([DOP853.A[0]]) == hexes([[0.0] * n]) and DOP853.C[0] == 0.0
    assert hexes([[c for c, _ in extra]]) == hexes([DOP853.C_EXTRA])
    assert (hexes([full(a, DOP853.A_EXTRA.shape[1]) for _, a in extra])
            == hexes(DOP853.A_EXTRA))
    for terms, ref in ((B, DOP853.B), (E3, DOP853.E3), (E5, DOP853.E5)):
        assert hexes([full(terms, len(ref))]) == hexes([ref])
    assert (hexes([full(d, DOP853.D.shape[1]) for d in D])
            == hexes(DOP853.D))


def test_integrate_tolerance_controls_error():
    def run(rtol):
        x_of_t, _ = integrate(_oscillator, 0.0, (1.0, 0.0), 20 * math.pi,
                              rtol=rtol, atol=rtol * 1e-2)
        return abs(x_of_t(20 * math.pi) - 1.0)

    loose = run(1e-5)
    tight = run(1e-11)
    assert tight < loose
    assert tight < 1e-9


def test_integrate_backwards_span_normalized():
    x_of_t, = integrate(lambda t, x: x, 1.0, math.e, 0.0)
    assert x_of_t(1.0) == math.e
    assert x_of_t(0.0) == pytest.approx(1.0, rel=1e-9)


def test_integrate_dense_output():
    x_of_t, v_of_t = integrate(_oscillator, 0.0, (0.0, 1.0), 3.0)
    for t in [0.3, 1.1, 2.9]:
        assert x_of_t(t) == pytest.approx(math.sin(t), abs=1e-9)
        assert v_of_t(t) == pytest.approx(math.cos(t), abs=1e-9)


def test_integrate_system_kind():
    # rotation written as a generic 2-component system
    x_of_t, _ = integrate(lambda t, y: (y[1], -y[0]), 0.0, (1.0, 0.0),
                          math.pi)
    assert x_of_t(math.pi) == pytest.approx(-1.0, abs=1e-9)


def test_integrate_blowup_raises():
    # x = 1/(1 - t) leaves every float before t = 1
    with pytest.raises((StepSizeUnderflow, NonFiniteState)):
        integrate(lambda t, x: x * x, 0.0, 1.0, 2.0)


def test_integrate_refuses_an_accepted_non_finite_state():
    # near the largest float a growing step overflows the state while the
    # error estimate, relative to that infinite state, reads zero
    with pytest.raises(NonFiniteState, match="non-finite state"):
        integrate(lambda t, x: 1e300, 0.0, 1.7e308, 1e12)


def test_integrate_hands_rhs_plain_floats(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy called")

    monkeypatch.setattr(scipy.integrate, "solve_ivp", refuse)
    monkeypatch.setattr(OdeSolution, "__call__", refuse)
    seen = []

    def number(t, x):
        seen.append((t, x))
        return -x

    def pair(t, y):
        seen.append((t, y))
        return y[1], -y[0]

    x_of_t, = integrate(number, np.float64(0.0), np.float64(0.5), 1.0)
    assert seen and all(type(t) is float and type(x) is float
                        for t, x in seen)
    assert type(x_of_t(np.float64(0.5))) is float
    seen.clear()
    dense = integrate(pair, 0.0, np.array([1.0, 0.0]), -1.0)
    assert seen and all(type(t) is float and type(y) is tuple and len(y) == 2
                        and all(type(c) is float for c in y)
                        for t, y in seen)
    assert all(type(fn(-0.5)) is float for fn in dense)


@pytest.mark.parametrize("start, x0", [(0.5, 1.0), (0.0, 0.0), (-1.0, 1.0)])
def test_integrate_nan_rhs_is_typed(start, x0):
    # NaN past t = start: every step across it is rejected until the step
    # size underflows.  Past t0 from rest, the initial step's probe is NaN
    # after a zero slope (numpy's 0.01/0 = inf); on all of the span the
    # initial step itself is NaN, where scipy's solver loops forever
    def rhs(t, x):
        return math.nan if t > start else -x

    with pytest.raises(OscdeformError):
        integrate(rhs, 0.0, x0, 1.0)


def test_cumulative_integral_matches_antiderivative():
    F = CumulativeIntegral(math.cos, 0.0)
    for t in np.linspace(-3.0, 5.0, 41):
        # a plain float, so no numpy scalar leaks into results or messages
        assert type(F(t)) is float
        assert F(t) == pytest.approx(math.sin(t), abs=1e-13)


def test_cumulative_integral_is_smooth_for_finite_differences():
    # second derivative of the accumulated integral of cos is -sin; the
    # Richardson stencil must see a smooth function, not panel-boundary kinks
    F = CumulativeIntegral(math.cos, 0.0)
    rng = np.random.default_rng(3)
    for t in rng.uniform(-2.0, 4.0, size=25):
        _, d1, d2 = fd_derivatives(F, float(t), 1e-3)
        assert d1 == pytest.approx(math.cos(t), abs=1e-9)
        assert d2 == pytest.approx(-math.sin(t), abs=1e-7)


def test_cumulative_integral_is_the_same_in_any_query_order():
    """Shuffled and repeated queries, 0.0 and -0.0 among them, give for
    each t the bits that a fresh instance gives for t alone."""
    def f(t):
        return math.exp(0.3 * t) * math.cos(2.0 * t)

    ts = [0.0, -0.0, 0.1, -0.1, 0.25, -0.25, 0.5, 1.37, -2.9, 3.6,
          0.49999999999999994, -1e-300]
    rng = random.Random(23)
    for origin in (0.0, 0.1, -0.6):
        fresh = {t.hex(): CumulativeIntegral(f, origin)(t).hex() for t in ts}
        queries = ts * 3
        rng.shuffle(queries)
        queries += [t for t in ts for _ in range(3)]
        F = CumulativeIntegral(f, origin)
        assert [F(t).hex() for t in queries] == [fresh[t.hex()]
                                                for t in queries]


def _piece_nodes(edge, h):
    """The nodes at which CumulativeIntegral fits f on the piece from edge
    to edge + 2h, its key in _fits."""
    c = edge + h
    return [c + h * x for x in numerics._FIT_X]


def _panel(F, side, k):
    """The key in F._fits of panel k on `side` of the origin."""
    return F.origin + side * k * 0.25, 0.125 * side


def test_cumulative_integral_remembers_its_last_query_by_bits(monkeypatch):
    """A repeated query costs no integrand call, and each piece is fitted
    once.  f raises below -0.1, so the panel [-0.15, 0.1] stops at its
    first node, which raises beyond t = 0, and splits; its half [-0.025,
    0.1], which holds t, fits.  -0.0 after 0.0 is another float and is
    computed, from the same pieces.  f is read beyond t only at the nodes
    of t's own pieces."""
    calls, fitted = [], []

    def f(t):
        calls.append(t)
        if t < -0.1:
            raise DomainViolation("below -0.1")
        return math.cos(t)

    def antiderivative(f, c, h, fit=numerics._antiderivative):
        fitted.append((c, h))
        return fit(f, c, h)

    monkeypatch.setattr(numerics, "_antiderivative", antiderivative)
    F = CumulativeIntegral(f, 0.1)
    for t, total in ((0.0, 18), (0.0, 18), (-0.0, 18), (-0.0, 18),
                     (0.3, 35), (0.3, 35), (0.2, 35), (0.0, 35)):
        F(t)
        assert len(calls) == total
        assert F._last[0].hex() == t.hex()
    assert len(fitted) == len(set(fitted)) == 3
    assert isinstance(F._fits[0.1, -0.125][0], DomainViolation)
    assert F._fits[0.1, -0.0625] is not None
    assert calls == (_piece_nodes(0.1, -0.125)[:1]
                     + _piece_nodes(0.1, -0.0625)
                     + _piece_nodes(0.1, 0.125))


def test_cumulative_integral_fits_a_panel_once_at_its_nodes():
    """The first query in a panel evaluates f at the panel's 17
    first-kind Chebyshev points, inside it, and nowhere else; every later
    query in a fitted panel, or beyond it, makes no call for it."""
    calls = []

    def f(t):
        calls.append(t)
        return math.exp(0.3 * t) * math.cos(2.0 * t)

    def nodes(c, h):
        return sorted(c + h * x for x in numerics._FIT_X)

    F = CumulativeIntegral(f, 0.1)
    F(0.3)
    assert len(numerics._FIT_X) == 17
    assert sorted(calls) == nodes(0.1 + 0.125, 0.125)
    assert all(0.1 < t < 0.35 for t in calls)
    for t in (0.2, 0.34, 0.1000001, 0.3499999, 0.2):
        F(t)
    assert len(calls) == 17
    F(0.5)      # the next panel up, [0.35, 0.6]
    F(-0.05)    # the first panel down, [-0.15, 0.1]
    assert len(calls) == 51
    assert sorted(calls[34:]) == nodes(0.1 - 0.125, -0.125)
    for t in (0.4, 0.36, -0.1, 0.0, 0.2):
        F(t)
    assert len(calls) == 51


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_cumulative_integral_refuses_a_non_finite_t_by_name(t):
    # a NaN raised "cannot convert float NaN to integer" and an infinite t
    # an OverflowError
    F = CumulativeIntegral(math.cos, 0.0)
    before = F(0.3)
    with pytest.raises(ValueError, match="^t must be finite, got %r$" % t):
        F(t)
    assert F(0.3) == before


def _gauss_legendre_integral(f, origin, t):
    """F(t) by numpy's 24-point Gauss-Legendre rule, leggauss(24): full
    0.25-wide panels from the origin, each low to high, and the partial
    panel from the last edge to t."""
    nodes, weights = np.polynomial.legendre.leggauss(24)
    rule = list(zip(nodes.tolist(), weights.tolist()))
    w = 0.25

    def panel(a, b):
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        return h * math.fsum(wi * f(c + h * xi) for xi, wi in rule)

    s = (t - origin) / w
    side = 1 if s >= 0 else -1
    k = math.floor(side * s)
    parts = [side * panel(*sorted((origin + side * j * w,
                                   origin + side * (j + 1) * w)))
             for j in range(k)]
    return math.fsum(parts + [panel(origin + side * k * w, t)])


def _quad_integral(f, origin, t):
    """F(t) by scipy's adaptive quad, which refines toward a domain edge."""
    value, _ = scipy.integrate.quad(f, min(origin, t), max(origin, t),
                                    epsabs=0.0, epsrel=1e-13, limit=200)
    return value if t >= origin else -value


def _quadrature_of(monkeypatch, build):
    """The CumulativeIntegral that build() makes in catalog or apps."""
    made = []

    class Recorded(CumulativeIntegral):
        def __init__(self, f, origin):
            super().__init__(f, origin)
            made.append(self)

    monkeypatch.setattr(catalog, "CumulativeIntegral", Recorded)
    monkeypatch.setattr(apps, "CumulativeIntegral", Recorded)
    build()
    (F,) = made
    return F


def _time_quadrature():
    # g_t - f = sin(theta)*(0.4*cos(theta) - 0.3) vanishes at the poles,
    # so the slope (g_t - f)/sin(theta) is bounded across theta = pi
    catalog.time_quadrature("0.3*sin(t + 0.3)", "0.2*sin(t + 0.3)^2",
                            0.9, 1.0, 0.3)


def _power_law(beta):
    def build():
        apps.rcd_travelling_wave({"beta": beta, "gamma": 0.4, "delta": 0.8,
                                  "A": 3.5, "omega": 1.0, "alpha": 0.0},
                                 force_quadrature=True)
    return build


def _beam_rho():
    apps._beam_implicit_funcs(apps.BeamModel(3.0, 2.0, omega=1.0, c1=0.0))


def _rcd_alpha():
    # g = u: alpha ~ 1/u at u = 0, inside the panel [0, 0.25]
    apps.rcd_from_fg("-0.3*u + 0.6*u^2", "u", 1.0)


@pytest.mark.parametrize("build, lo, hi, reference", [
    (_time_quadrature, -2.0, 7.5, _gauss_legendre_integral),
    (_power_law(2.0), -2.5, 6.0, _gauss_legendre_integral),
    # fractional beta: sin(theta) > 0 on (0, pi); queries come within
    # 1e-3 of both edges, where the Gauss-Legendre panels read 4.1e-14 off
    (_power_law(1.5), 1e-3, math.pi - 1e-3, _quad_integral),
    (_beam_rho, -0.6, 0.6, _gauss_legendre_integral),
    (_rcd_alpha, 0.2, 3.0, _gauss_legendre_integral),
], ids=["time_quadrature", "power_law-beta=2", "power_law-beta=1.5",
        "beam-rho", "rcd_from_fg-alpha"])
def test_cumulative_integral_matches_gauss_legendre_on_the_paper_integrands(
        monkeypatch, build, lo, hi, reference):
    """On each closed form's integrand, F stays within 1e-14*(1 + |F|) of
    a reference that shares no code with the library: numpy's 24-point
    Gauss-Legendre panels, or scipy's quad where a domain edge is near.
    On every certified piece the series of the antiderivative stays
    within an error estimate of the partial integral from the piece's
    near edge: |h|*(twice the tail + 17 eps times the largest
    coefficient), plus the error of rounding the nodes, 2 eps (|c| + |h|)
    times the sum of k^2 |a_k| (c the centre, a_k the coefficients)."""
    F = _quadrature_of(monkeypatch, build)
    f, origin = F.f, F.origin
    for t in np.linspace(lo, hi, 97).tolist():
        ref = reference(f, origin, t)
        assert abs(F(t) - ref) <= 1e-14 * (1.0 + abs(ref)), t
    fitted = {piece: fit for piece, fit in F._fits.items()
              if isinstance(fit, list)}
    assert fitted
    eps = math.ulp(1.0)
    for (edge, h), B in fitted.items():
        a, scale, tail = numerics._chebyshev(f, edge + h, h)
        slope = sum(k * k * abs(a[k]) for k in range(1, 17))
        err = (abs(h) * (2.0 * tail + 17 * eps * scale)
               + 2.0 * eps * (abs(edge + h) + abs(h)) * slope)
        assert 0.0 < err < 1e-12
        for x in np.linspace(-1.0, 1.0, 9).tolist()[1:]:
            partial = reference(f, edge, edge + h * (x + 1.0))
            assert abs(numerics._clenshaw(B, x) - partial) <= err


def test_cumulative_integral_is_the_closed_form_up_to_an_unbounded_pole(
        monkeypatch):
    """time_quadrature with f = 0.3 and g = 0: the integrand -0.3/sin(t)
    is unbounded at t = pi, and I(t) = -0.3*ln(tan(t/2)).  The panels next
    to the pole split into certified pieces, and I is within
    1e-12*(1 + |I|) of the closed form up to 1e-6 before the pole.  At
    1e-8 before it, where the values at a piece's nodes are rounding noise
    on all but the narrowest pieces, the query would visit more pieces of
    the panel than it may, and raises NoConvergence, which names t."""
    F = _quadrature_of(
        monkeypatch, lambda: catalog.time_quadrature("0.3", "0", 1.0))
    assert F.origin == math.pi / 2.0
    ts = np.linspace(F.origin, math.pi - 1e-3, 41).tolist()
    for t in ts + [math.pi - 10.0 ** -k for k in range(2, 7)]:
        exact = -0.3 * math.log(math.tan(0.5 * t))
        assert abs(F(t) - exact) <= 1e-12 * (1.0 + abs(exact)), t
    # [pi/2 + 1.25, pi/2 + 1.5] ends 0.07 before the pole, and
    # [pi/2 + 1.5, pi/2 + 1.75] holds it
    assert F._fits[_panel(F, 1, 5)] is None
    assert F._fits[_panel(F, 1, 6)] is None
    assert all(F._fits[_panel(F, 1, k)] is not None for k in range(5))
    t = math.pi - 1e-8
    with pytest.raises(NoConvergence, match=re.escape("t = %r " % t)):
        F(t)


def test_cumulative_integral_refuses_a_fast_oscillation_in_bounded_work():
    """f = 1 + 1e-7*sin(1e9*t) certifies on no piece wider than about
    1e-7, so the panel [0, 0.25] needs far more pieces than a query may
    visit in one panel, 64*_MAX_LEVEL.  The query to 0.3 raises
    NoConvergence naming t after at most 17 calls per visited piece, and
    forgets the pieces it fitted, so asking again costs as much again and
    keeps nothing."""
    calls = []

    def f(t):
        calls.append(t)
        return 1.0 + 1e-7 * math.sin(1e9 * t)

    F = CumulativeIntegral(f, 0.0)
    budget = 17 * 64 * numerics._MAX_LEVEL
    for _ in range(2):
        before = len(calls)
        with pytest.raises(NoConvergence, match=re.escape("t = 0.3 ")):
            F(0.3)
        assert 0 < len(calls) - before <= budget
        assert F._fits == {}
    assert len(calls) == 2 * (len(calls) - before)


def test_cumulative_integral_raises_a_node_error_as_f_raised_it():
    """An OscdeformError at a node of a piece wholly before t propagates
    with f's own frame last in its traceback and no exception of the
    lookup as its context; asking again raises it with a traceback of
    the same length."""
    def f(t):
        if t < -0.1:
            raise DomainViolation("below -0.1")
        return math.cos(t)

    F = CumulativeIntegral(f, 0.1)
    depths = []
    for _ in range(2):
        with pytest.raises(DomainViolation) as info:
            F(-0.5)
        assert info.value.__context__ is None
        tb = info.value.__traceback__
        frames = []
        while tb is not None:
            frames.append(tb.tb_frame.f_code.co_name)
            tb = tb.tb_next
        assert frames[-1] == "f"
        depths.append(len(frames))
    assert depths[0] == depths[1]


def test_cumulative_integral_that_splits_is_the_same_forward_and_reversed(
        monkeypatch):
    """Next to the unbounded pole of -0.3/sin(t), and near both domain
    edges of fractional-beta power_law, panels split; queries run forward
    on one instance and reversed on another give the same bits."""
    pole = np.linspace(0.6, math.pi - 1e-3, 61).tolist() + [
        math.pi - 10.0 ** -k for k in range(4, 7)]
    edges = np.linspace(1e-3, math.pi - 1e-3, 61).tolist() + [
        1e-4, math.pi - 1e-4]
    for build, ts in (
            (lambda: catalog.time_quadrature("0.3", "0", 1.0), pole),
            (_power_law(1.5), edges)):
        F = _quadrature_of(monkeypatch, build)
        G = CumulativeIntegral(F.f, F.origin)
        forward = [F(t).hex() for t in ts]
        assert forward == [G(t).hex() for t in reversed(ts)][::-1]
        assert any(abs(h) < 0.125 for _, h in F._fits)


def test_find_root_basic():
    assert find_root(lambda x: x * x - 2.0, 1.0, 2.0) == pytest.approx(
        math.sqrt(2.0), abs=1e-12)
    assert find_root(math.sin, 3.0, 4.0) == pytest.approx(math.pi, abs=1e-12)
    cubic = lambda x: x ** 3 - 2.0 * x - 5.0
    assert cubic(find_root(cubic, 2.0, 3.0)) == pytest.approx(0.0, abs=1e-10)


def test_find_root_converges_superlinearly():
    # Brent's method needs 8 evaluations on each, the two ends included; a
    # bisection-bound regula falsi needs 36-39
    cases = ((lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0, 2.0945514815423265),
             (lambda x: x * x - 2.0, 1.0, 2.0, math.sqrt(2.0)))
    for f, lo, hi, exact in cases:
        calls = []

        def counted(x, f=f):
            calls.append(x)
            return f(x)

        root = find_root(counted, lo, hi, tol=1e-12)
        assert len(calls) <= 8
        assert abs(root - exact) <= 1e-12 * (1.0 + abs(exact))


def test_find_root_rejects_non_finite_end():
    with pytest.raises(NoSignChange):
        find_root(lambda x: math.nan if x == 0.0 else x, 0.0, 1.0)


def test_find_root_endpoint_root_and_no_sign_change():
    assert find_root(lambda x: x - 1.0, 1.0, 2.0) == 1.0
    with pytest.raises(NoSignChange):
        find_root(lambda x: x * x + 1.0, -1.0, 1.0)


def _brentq(f, lo, hi, tol):
    """brentq as find_root documents it."""
    return brentq(f, lo, hi, xtol=tol, rtol=max(tol, 4.0 * math.ulp(1.0)),
                  maxiter=200)


def _evaluations(solve, f, lo, hi, tol):
    """The root solve(f, lo, hi, tol) returns, or "no convergence", and
    the points where it evaluated f."""
    xs = []

    def counted(x):
        xs.append(x)
        return f(x)

    try:
        root = solve(counted, lo, hi, tol)
    except (NoConvergence, RuntimeError):   # brentq raises RuntimeError
        root = "no convergence"
    return root, xs


# sign-changing brackets [root - below, root + above] of four families, each
# monotone on the brackets drawn
_ROOT_FAMILIES = {
    "sin": (lambda p: lambda x: math.sin(x) - p, lambda p: math.asin(p)),
    "cubic": (lambda p: lambda x: x ** 3 + x - (p ** 3 + p), lambda p: p),
    "exp": (lambda p: lambda x: math.exp(2.0 * x) - p - 1.0,
            lambda p: 0.5 * math.log(p + 1.0)),
    "atan": (lambda p: lambda x: math.atan(40.0 * (x - p)) + 0.01,
             lambda p: p - math.tan(0.01) / 40.0),
}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(family=st.sampled_from(sorted(_ROOT_FAMILIES)),
       p=st.floats(0.0, 0.9),
       below=st.floats(1e-9, 0.6), above=st.floats(1e-9, 0.6),
       tol=st.sampled_from([1e-12, 1e-15]))
def test_find_root_is_brentq_bit_for_bit(family, p, below, above, tol):
    """The plain-float Brent evaluates f at brentq's points, in its order,
    and returns its float: the ends once each, then one point per
    iteration."""
    make_f, root_of = _ROOT_FAMILIES[family]
    f, root = make_f(p), root_of(p)
    lo, hi = root - below, root + above
    flo, fhi = f(lo), f(hi)
    if flo == 0.0 or fhi == 0.0 or (flo < 0.0) == (fhi < 0.0):
        return                          # the rounded root left the bracket
    expected = _evaluations(_brentq, f, lo, hi, tol)
    got = _evaluations(find_root, f, lo, hi, tol)
    assert [x.hex() for x in got[1]] == [x.hex() for x in expected[1]]
    assert float(got[0]).hex() == float(expected[0]).hex()


def test_find_root_iteration_cap_is_typed_and_is_brentqs():
    # a jump at 0.3 across a bracket 1e300 wide needs about 1000
    # bisections to shrink to tol*(1+|x|); both stop after 200 iterations
    def step(x):
        return -1.0 if x < 0.3 else 1.0

    got = _evaluations(find_root, step, -1e300, 1e300, 1e-300)
    assert got == _evaluations(_brentq, step, -1e300, 1e300, 1e-300)
    assert got[0] == "no convergence" and len(got[1]) == 202
    with pytest.raises(NoConvergence):
        find_root(step, -1e300, 1e300, tol=1e-300)


def _nan_near_zero(x):
    """x(x + 0.9)(x - 0.6), undefined (NaN) on |x| < 0.3."""
    return math.nan if abs(x) < 0.3 else x * (x + 0.9) * (x - 0.6)


def test_find_root_nan_inside_the_bracket_is_typed():
    # the first secant step from [-0.5, 0.5] lands at 0.259
    with pytest.raises(EvalDomainError, match=r"f\(0\.25"):
        find_root(_nan_near_zero, -0.5, 0.5)


def test_solve_scalar_skips_a_bracket_with_a_nan_inside():
    # Newton stalls at once; the bracket of half-width 0.5 changes sign
    # but steps into the NaN, so the root at -0.9 comes from the next one
    root = solve_scalar(lambda x: (_nan_near_zero(x), 0.0), 0.0, 1e-14)
    assert root == pytest.approx(-0.9, abs=1e-14)


def test_find_root_implicit_inversion_matches_algebraic():
    # invert W(x) = x/(1 + g0*x), whose exact inverse is x = y/(1 - g0*y)
    g0 = 0.3
    W = lambda x: x / (1.0 + g0 * x)
    rng = np.random.default_rng(5)
    for y in rng.uniform(0.05, 0.9, size=12):
        x_exact = y / (1.0 - g0 * y)
        x_root = find_root(lambda x: W(x) - y, 0.0, 10.0, tol=1e-15)
        assert x_root == pytest.approx(x_exact, abs=1e-12)


def test_cheb_nodes_diff_differentiates_polynomials_exactly():
    ts, D = cheb_nodes_diff(12, 0.5, 2.0)
    assert (ts[0], ts[-1]) == (0.5, 2.0) and np.all(np.diff(ts) > 0)
    assert np.max(np.abs(D @ ts ** 5 - 5.0 * ts ** 4)) < 1e-10


@pytest.mark.parametrize("n", [23, 24, 25, 26, 47, 48, 49, 50])
def test_cheb_coefficient_matrix_is_exact_to_rounding(n):
    # the values-to-coefficients matrix of every node count the transit
    # uses, against the same matrix in long double with pi = arccos(-1):
    # cos(pi*j*k/n) at the unreduced argument, up to pi*n, reads 4.6e-16
    # to 7.2e-16 off; reduced mod 2n first, at most 7.2e-17
    j = np.arange(n + 1)
    pi = np.arccos(np.longdouble(-1.0))
    hw = np.where((j == 0) | (j == n), np.longdouble(0.5), np.longdouble(1))
    exact = (np.longdouble(2.0) / n * np.outer(hw, hw)
             * np.cos(pi * np.outer(j, j).astype(np.longdouble) / n))
    assert np.max(np.abs(numerics._cheb(n)[2] - exact)) <= 2e-16


@pytest.mark.parametrize("f", [math.exp, math.sin])
def test_cheb_series_reads_exp_and_sin_to_rounding(f):
    # the 24-point series on [1, 1.6], summed by _clenshaw at 97 points
    # between the nodes, within 1e-15 relative
    ts, _ = cheb_nodes_diff(23, 1.0, 1.6)
    series, chops = cheb_series(np.array([f(t) for t in ts.tolist()]),
                                1.0, 1.6)
    assert chops
    for t in np.linspace(1.0, 1.6, 99)[1:-1].tolist():
        assert abs(series(t) - f(t)) <= 1e-15 * abs(f(t)), t


def test_cheb_series_reproduces_polynomials():
    ts, _ = cheb_nodes_diff(12, 0.5, 2.0)
    series = cheb_series(ts ** 7 - 3.0 * ts, 0.5, 2.0)[0]
    assert abs(series(1.234) - (1.234 ** 7 - 3.0 * 1.234)) < 1e-12


def test_cheb_series_chops_on_the_last_two_coefficients():
    # on 24 points exp's series falls to rounding by degree 20, against a
    # largest coefficient of about 4; a T_22 or T_23 part of 1e-11 does
    # not chop (the rule is 1e-12 of the largest), one of 1e-12 does
    ts, _ = cheb_nodes_diff(23, 0.5, 2.0)
    x = np.arccos(np.clip(1.0 - (ts - 0.5) / 0.75, -1.0, 1.0))

    def chops(Y):
        return cheb_series(Y, 0.5, 2.0)[1]

    assert chops(np.exp(ts))
    for k in (22, 23):
        assert chops(np.exp(ts) + 1e-12 * np.cos(k * x))
        assert not chops(np.exp(ts) + 1e-11 * np.cos(k * x))
    assert not chops(np.abs(ts - 1.1))


def test_fd_derivatives_on_sine():
    x0, v, a = fd_derivatives(math.sin, 0.7, 1e-3)
    assert x0 == math.sin(0.7)
    assert v == pytest.approx(math.cos(0.7), abs=1e-11)
    assert a == pytest.approx(-math.sin(0.7), abs=1e-8)


def test_residual_scan_harmonic():
    form = _Form(lambda t, x, v, a: a + x)
    ts = np.linspace(0.1, 6.0, 60)
    assert residual_scan(form, math.sin, ts) < 1e-8


def test_residual_scan_detects_wrong_function():
    form = _Form(lambda t, x, v, a: a + x)
    ts = np.linspace(1.0, 3.0, 10)
    assert residual_scan(form, lambda t: t * t, ts) > 1.0


def test_residual_scan_reports_non_finite():
    form = _Form(lambda t, x, v, a: float("nan") if t == 1.0 else 0.0)
    with pytest.warns(UserWarning):
        worst = residual_scan(form, math.sin, [0.5, 1.0, 1.5])
    assert math.isinf(worst)


def test_max_abs_is_inf_once_a_value_is_not_finite():
    assert max_abs([0.5, -2.0, 1.0]) == 2.0
    assert max_abs([]) == 0.0
    for bad in (math.nan, math.inf, -math.inf):
        assert max_abs([1.0, bad, 3.0]) == math.inf


def test_trajectory_residual_is_inf_on_a_nan_sample():
    # max(worst, nan) keeps worst, which hid a NaN state in a passing value
    form = _Form(lambda t, x, v, a: a + x)

    def x_of_t(t):
        return math.nan if t == 1.0 else math.sin(t)

    worst = trajectory_residual(form, x_of_t, math.cos, [0.5, 1.0, 1.5])
    assert worst == math.inf


def test_trajectory_residual_uses_velocity_channel():
    form = _Form(lambda t, x, v, a: a + x)
    worst = trajectory_residual(form, math.sin, math.cos,
                                np.linspace(0.2, 6.0, 40))
    assert worst < 1e-9


def test_solve_scalar_newton_converges():
    calls = []

    def law(x, c):
        calls.append(x)
        return x ** 3 - c, 3.0 * x * x

    root = solve_scalar(law, 1.0, 1e-14, 2.0)
    assert abs(root ** 3 - 2.0) <= 1e-14 * (1.0 + root)
    assert root == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-14)
    assert len(calls) < 10            # quadratic convergence, no bracketing


def test_solve_scalar_falls_back_to_brackets():
    # a zero derivative stalls Newton at once; around the guess 0 the
    # brackets of half-width 0.5 and 1 have no sign change and the one of
    # half-width 2 ends where the law is undefined, so the root comes from
    # the next one
    def law(x):
        if -2.5 < x < -1.5:
            raise EvalDomainError("outside the domain")
        return x - 3.0, 0.0

    assert solve_scalar(law, 0.0, 1e-14) == 3.0


def test_solve_scalar_brackets_a_newton_cycle():
    # x^3 - 2x + 2 from 0: Newton cycles 0, 1, 0, ... until its 60 steps
    # are spent; the brackets of half-width 0.5 and 1 keep one sign, so the
    # root comes from find_root on [-2, 2]
    xs = []

    def law(x, c):
        xs.append(x)
        return x * x * x - 2.0 * x + c, 3.0 * x * x - 2.0

    root = solve_scalar(law, 0.0, 1e-14, 2.0)
    assert xs[:60] == [0.0, 1.0] * 30
    assert root == find_root(lambda x: x * x * x - 2.0 * x + 2.0,
                             -2.0, 2.0, tol=1e-15)
    assert abs(root ** 3 - 2.0 * root + 2.0) <= 1e-14


@pytest.mark.parametrize("guess, slope", [(0.0, 0.0), (3.0, math.nan)],
                         ids=["zero-slope", "nan-slope"])
def test_solve_scalar_brackets_a_dead_slope(guess, slope):
    # x^2 - 4 whose law reads a zero or a NaN slope at the guess: Newton
    # stops after one call and the brackets find the root, here on the end
    # of the half-width 2 bracket
    xs = []

    def law(x):
        xs.append(x)
        return x * x - 4.0, slope

    root = solve_scalar(law, guess, 1e-14)
    assert xs[0] == guess and guess not in xs[1:]
    assert abs(root) == 2.0


def test_solve_scalar_no_root_is_typed():
    with pytest.raises(ImplicitNoRoot):
        solve_scalar(lambda x: (x * x + 1.0, 2.0 * x), 0.3, 1e-14)


def test_solve_scalar_propagates_foreign_errors():
    def law(x):
        raise TypeError("not a number")

    with pytest.raises(TypeError):
        solve_scalar(law, 0.0, 1e-14)

    def law_bracket(x):
        if x != 0.0:
            raise TypeError("only the guess evaluates")
        return 1.0, 0.0

    # the bracket fallback does not swallow it either
    with pytest.raises(TypeError):
        solve_scalar(law_bracket, 0.0, 1e-14)


# each command the library runs end to end, with only its required inputs
_NO_SCIPY_RUNS = [
    ["solve"],
    ["verify", "--suite", "all"],
    ["beam", "--alpha-coef", "3", "--beta-coef", "2", "--mode", "direct"],
    ["catalog", "--case", "case4_riccati", "--param", "mu=0.8",
     "--param", "nu=0.3"],
    ["rcd", "--param", "beta=1", "--param", "gamma=0.5", "--param",
     "delta=1", "--param", "A=25"],
]

_RUN_CLI = """
import contextlib, io, json, sys
from oscdeform import cli
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append([cli.main(argv), out.getvalue()])
print(json.dumps([runs, sorted(m for m, mod in sys.modules.items()
                               if m.split('.')[0] == 'scipy' and mod)]))
"""


def test_importing_the_library_loads_no_scipy_solver(capsys):
    # scipy is a test dependency only: each command loads no scipy module
    # where scipy is importable, and where every scipy import fails it
    # still exits 0 and prints the same
    def run(prelude):
        proc = subprocess.run([sys.executable, "-c", prelude + _RUN_CLI,
                               json.dumps(_NO_SCIPY_RUNS)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    runs, loaded = run("")
    assert loaded == []
    assert run("import sys; sys.modules['scipy'] = None\n") == [runs, []]
    assert len(runs) == len(_NO_SCIPY_RUNS)
    for argv, (code, out) in zip(_NO_SCIPY_RUNS, runs):
        assert code == 0, argv
        assert cli.main(argv) == 0
        assert out == capsys.readouterr().out, argv


def test_the_cli_loads_neither_numpy_random_nor_numpy_ma():
    # the verify draws come from random.Random and sampling dedupes without
    # np.unique, so no command pays for loading either
    runs = [["verify", "--suite", "all"], ["solve", "--samples", "3"],
            ["beam", "--alpha-coef", "3", "--beta-coef", "2",
             "--samples", "3"],
            ["catalog", "--case", "time_quadrature", "--f",
             "0.3*sin(t + 0.3)", "--g", "0.2*sin(t + 0.3)^2",
             "--param", "A=0.9", "--alpha", "0.3", "--samples", "3"]]
    script = ("import contextlib, io, json, sys\n"
              "from oscdeform import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    codes = [cli.main(a) for a in json.loads(sys.argv[1])]\n"
              "print(json.dumps([codes, sorted({'numpy.random', 'numpy.ma'}"
              " & set(sys.modules))]))\n")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0, 0, 0], []]
