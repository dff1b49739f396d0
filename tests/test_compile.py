"""Property tests of the expression compiler against the tree walker.

Random expression trees over (t, x, v) and over (u), with shared subtrees,
signed zeros and names outside the signature, and their first two
derivatives, go through exprdsl.function and exprdsl.evaluate at random
points.  Both must give the same float bit for bit, or raise the same
error type with the same message.  So must coefficient 0 of
exprdsl.taylor, which may raise only where the tree has no Taylor series.
"""

import math
import struct

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from oscdeform.errors import OscdeformError  # noqa: E402
from oscdeform.exprdsl import (  # noqa: E402
    FUNCTIONS,
    Add,
    Call,
    Div,
    Mul,
    Neg,
    Num,
    Param,
    Pow,
    Sub,
    Var,
    differentiate,
    evaluate,
    function,
    taylor,
)

SIGNATURES = (("t", "x", "v"), ("u",))


def _numbers():
    return st.one_of(
        st.sampled_from((0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 3.0)),
        st.floats(-4.0, 4.0, width=64),
    )


def _trees(names):
    leaves = st.one_of(
        st.sampled_from(names).map(Var),
        st.sampled_from(names).map(Var),
        _numbers().map(Num),
        # rarely, a name the signature does not bind
        st.sampled_from(("u", "t", "mu")).map(
            lambda n: Var(n) if n in ("t", "u") else Param(n)),
    )

    def grow(kids):
        return st.one_of(
            st.tuples(st.sampled_from((Add, Sub, Mul, Div, Pow)),
                      kids, kids).map(lambda p: p[0](p[1], p[2])),
            st.tuples(st.sampled_from(sorted(FUNCTIONS)), kids).map(
                lambda p: Call(*p)),
            kids.map(Neg),
            # integer exponents, as written and under a negation
            st.tuples(kids, st.integers(-3, 4)).map(
                lambda p: Pow(p[0], Num(abs(p[1])) if p[1] >= 0
                              else Neg(Num(-p[1])))),
            # the same node twice, and one pair in both orders
            st.tuples(st.sampled_from((Add, Mul, Div)), kids).map(
                lambda p: p[0](p[1], p[1])),
            st.tuples(st.sampled_from((Sub, Div, Pow)), kids, kids).map(
                lambda p: Add(p[0](p[1], p[2]), p[0](p[2], p[1]))),
        )

    return st.recursive(leaves, grow, max_leaves=16)


def _outcome(call):
    try:
        value = call()
    except OscdeformError as exc:
        return type(exc), str(exc)
    assert type(value) is float
    return struct.pack("<d", value)


def _point(draw_values, names, as_numpy):
    values = [float(v) for v in draw_values[:len(names)]]
    args = [np.float64(v) for v in values] if as_numpy else values
    return args, dict(zip(names, values))


@hypothesis.settings(max_examples=80, deadline=None, derandomize=True)
@hypothesis.given(
    data=st.data(),
    signature=st.sampled_from(SIGNATURES),
    as_numpy=st.booleans(),
)
def test_compiled_function_is_evaluate(data, signature, as_numpy):
    e = data.draw(_trees(signature))
    var = data.draw(st.sampled_from(signature))
    d1 = differentiate(e, var)
    d2 = differentiate(d1, var)
    fns = [(x, function(x, signature)) for x in (e, d1, d2)]
    for _ in range(2):
        raw = data.draw(st.lists(st.one_of(_numbers(),
                                           st.floats(-1e3, 1e3, width=64)),
                                 min_size=3, max_size=3))
        args, bindings = _point(raw, signature, as_numpy)
        for x, fn in fns:
            want = _outcome(lambda: evaluate(x, bindings))
            got = _outcome(lambda: fn(*args))
            assert got == want, (x, bindings)


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
@hypothesis.given(
    data=st.data(),
    signature=st.sampled_from(SIGNATURES),
    order=st.sampled_from((0, 4)),
)
def test_taylor_coefficient_0_is_evaluate(data, signature, order):
    e = data.draw(_trees(signature))
    var = data.draw(st.sampled_from(signature))
    at = data.draw(st.one_of(_numbers(), st.floats(-1e3, 1e3, width=64)))
    want = _outcome(lambda: evaluate(e, {var: at}))
    try:
        series = taylor(e, var, at, order)
    except OscdeformError as exc:
        got = type(exc), str(exc)
        if got != want:
            # only a point where e has no Taylor series raises on its own
            assert order > 0 and "no Taylor series" in got[1], (e, at)
            return
    else:
        assert len(series) == order + 1
        assert all(type(c) is float for c in series)
        got = struct.pack("<d", series[0])
    assert got == want, (e, at)


def test_signed_zero_constants_keep_their_sign():
    for signature in SIGNATURES:
        fn = function(Add(Num(-0.0), Mul(Num(-0.0), Num(1.0))), signature)
        got = fn(*[1.0] * len(signature))
        assert got == 0.0 and math.copysign(1.0, got) == -1.0
