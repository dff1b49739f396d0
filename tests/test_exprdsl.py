import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import weakref

import numpy as np
import pytest

from oscdeform import deform, exprdsl, verify
from oscdeform.errors import (
    EvalDomainError,
    ExprSyntaxError,
    UnboundNameError,
    UnknownFunctionError,
)
from oscdeform.exprdsl import (
    Add,
    Call,
    Div,
    Mul,
    Neg,
    Num,
    Param,
    Pow,
    Solve,
    Var,
    _substitute,
    _walk,
    bind,
    depends_on,
    differentiate,
    evaluate,
    function,
    parse,
    taylor,
    to_str,
)
from oscdeform.numerics import solve_scalar


def test_parse_number_forms():
    assert evaluate(parse("3"), {}) == 3.0
    assert evaluate(parse("3.5"), {}) == 3.5
    assert evaluate(parse(".5"), {}) == 0.5
    assert evaluate(parse("2e-3"), {}) == 2e-3
    assert evaluate(parse("1.25E2"), {}) == 125.0


def test_parse_precedence_and_associativity():
    # left-assoc chains
    assert evaluate(parse("10 - 4 - 3"), {}) == 3.0
    assert evaluate(parse("24/4/2"), {}) == 3.0
    # * binds tighter than +
    assert evaluate(parse("2 + 3*4"), {}) == 14.0
    # ^ binds tighter than *, and is right-associative
    assert evaluate(parse("2*3^2"), {}) == 18.0
    assert evaluate(parse("2^3^2"), {}) == 512.0


def test_unary_minus_binds_before_power():
    # the grammar reads '-x^2' as (-x)^2
    assert evaluate(parse("-x^2"), {"x": 3.0}) == 9.0
    assert evaluate(parse("-(x^2)"), {"x": 3.0}) == -9.0
    assert evaluate(parse("x^-1"), {"x": 4.0}) == 0.25


def test_variables_vs_parameters():
    e = parse("mu*x^2 + nu - v*sin(t)")
    params = {"mu": 1.0, "nu": 2.0}
    bound = bind(e, ("t", "x", "v"), params)
    assert evaluate(bound, {"t": 0.0, "x": 1.0, "v": 1.0}) == 3.0
    with pytest.raises(UnboundNameError) as info:
        bind(e, ("t", "x", "v"))
    assert info.value.name == "mu"
    with pytest.raises(UnboundNameError) as info:
        bind(e, ("t", "x"), params)
    assert info.value.name == "v"
    assert "may use only t, x" in str(info.value)
    assert depends_on(e, "x")
    assert not depends_on(e, "u")


def test_all_functions_evaluate():
    vals = {
        "sin": math.sin(0.7),
        "cos": math.cos(0.7),
        "tan": math.tan(0.7),
        "cot": math.cos(0.7) / math.sin(0.7),
        "exp": math.exp(0.7),
        "ln": math.log(0.7),
        "sqrt": math.sqrt(0.7),
        "abs": 0.7,
        "asinh": math.asinh(0.7),
        "sinh": math.sinh(0.7),
        "cosh": math.cosh(0.7),
        "tanh": math.tanh(0.7),
    }
    for name, expected in vals.items():
        got = evaluate(parse("%s(z)" % name), {"z": 0.7})
        assert got == pytest.approx(expected, rel=0, abs=0)


def test_syntax_errors_carry_offsets():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("x + * y")
    assert exc.value.offset == 4
    with pytest.raises(ExprSyntaxError):
        parse("(x + y")
    with pytest.raises(ExprSyntaxError):
        parse("x @ y")
    with pytest.raises(UnknownFunctionError):
        parse("gamma(x)")


def test_unbound_name():
    with pytest.raises(UnboundNameError) as exc:
        evaluate(parse("mu*x"), {"x": 2.0})
    assert exc.value.name == "mu"


def test_domain_errors():
    with pytest.raises(EvalDomainError):
        evaluate(parse("ln(x)"), {"x": 0.0})
    with pytest.raises(EvalDomainError):
        evaluate(parse("sqrt(x)"), {"x": -1.0})
    with pytest.raises(EvalDomainError):
        evaluate(parse("1/x"), {"x": 0.0})
    with pytest.raises(EvalDomainError):
        evaluate(parse("cot(t)"), {"t": 0.0})
    with pytest.raises(EvalDomainError):
        evaluate(parse("x^0.5"), {"x": -2.0})
    with pytest.raises(EvalDomainError):
        evaluate(parse("x^p"), {"x": 0.0, "p": -1.0})


def test_integer_exponent_of_negative_base_allowed():
    assert evaluate(parse("x^3"), {"x": -2.0}) == -8.0
    assert evaluate(parse("x^-2"), {"x": -2.0}) == 0.25


def _check_derivative(text, var, bindings, h=1e-6):
    e = parse(text)
    d = differentiate(e, var)
    up = dict(bindings)
    dn = dict(bindings)
    up[var] = bindings[var] + h
    dn[var] = bindings[var] - h
    fd = (evaluate(e, up) - evaluate(e, dn)) / (2 * h)
    sym = evaluate(d, bindings)
    assert sym == pytest.approx(fd, rel=1e-7, abs=1e-7)


def test_differentiate_matches_finite_differences():
    rng = np.random.default_rng(20240817)
    cases = [
        ("x^3 + 2*x*v - sin(t)", "x"),
        ("x^3 + 2*x*v - sin(t)", "v"),
        ("cos(w*t)*exp(-t)", "t"),
        ("cot(t + 0.3)", "t"),
        ("sqrt(1 + x^2)", "x"),
        ("asinh(2*x)/x", "x"),
        ("tanh(x)*sinh(x) + cosh(x)", "x"),
        ("ln(x^2 + 1)", "x"),
        ("x^v", "x"),
        ("x^v", "v"),
        ("abs(x)^3", "x"),
        ("tan(x/4)", "x"),
    ]
    for text, var in cases:
        for _ in range(4):
            bindings = {
                "t": float(rng.uniform(0.2, 1.2)),
                "x": float(rng.uniform(0.5, 2.0)),
                "v": float(rng.uniform(0.5, 2.0)),
                "w": 2.0,
            }
            _check_derivative(text, var, bindings)


def test_differentiate_constant_and_param():
    assert evaluate(differentiate(parse("mu"), "x"), {"mu": 3.0}) == 0.0
    assert evaluate(differentiate(parse("7"), "t"), {}) == 0.0
    with pytest.raises(ValueError):
        differentiate(parse("x"), "mu")


def test_folding_keeps_trees_small():
    # d/dx of a t-only expression collapses to the literal zero node
    d = differentiate(parse("sin(w*t) + cos(t)^2"), "x")
    assert isinstance(d, Num) and d.value == 0.0
    d2 = differentiate(parse("x"), "x")
    assert isinstance(d2, Num) and d2.value == 1.0


def test_print_round_trip_exact_evaluation():
    rng = np.random.default_rng(11)
    texts = [
        "x - (y - z)",
        "x - y - z",
        "a/(b*c)",
        "a/b*c",
        "(x^2)^3",
        "x^2^3",
        "-x^2",
        "-(x^2)",
        "2^-2",
        "-x - -y",
        "(a + b)*(a - b)",
        "sin(x)^2 + cos(x)^2",
        "1/(1 + cot(t)^2)",
        "x*y/(z + 1) - 4.25e-2*x",
        "sqrt(abs(x - y))",
    ]
    for text in texts:
        e = parse(text)
        printed = to_str(e)
        e2 = parse(printed)
        for _ in range(5):
            b = {
                "x": float(rng.uniform(0.2, 2.0)),
                "y": float(rng.uniform(0.2, 2.0)),
                "z": float(rng.uniform(0.2, 2.0)),
                "a": float(rng.uniform(0.2, 2.0)),
                "b": float(rng.uniform(0.2, 2.0)),
                "c": float(rng.uniform(0.2, 2.0)),
                "t": float(rng.uniform(0.2, 1.2)),
            }
            assert evaluate(e, b) == evaluate(e2, b)


def _rand_tree(rng, depth):
    """A random tree in x and the parameter k1: Neg, sin, Add, Mul, integer
    powers and fractional powers of abs over numbers, x and k1."""
    if depth == 0:
        k = rng.integers(0, 3)
        if k == 0:
            return Num(round(float(rng.uniform(-3, 3)), 3))
        if k == 1:
            return Var("x")
        return Param("k1")
    kind = rng.integers(0, 6)
    if kind == 0:
        return Neg(_rand_tree(rng, depth - 1))
    if kind == 1:
        return Call("sin", _rand_tree(rng, depth - 1))
    a = _rand_tree(rng, depth - 1)
    b = _rand_tree(rng, depth - 1)
    if kind == 2:
        return Add(a, b)
    if kind == 3:
        return Mul(a, b)
    if kind == 4:
        return Pow(a, Num(float(rng.integers(0, 4))))
    return Pow(Call("abs", a), Num(round(float(rng.uniform(0.5, 2.0)), 2)))


def test_print_round_trip_random_trees():
    rng = np.random.default_rng(7)
    for _ in range(200):
        e = _rand_tree(rng, int(rng.integers(1, 5)))
        printed = to_str(e)
        e2 = parse(printed)
        b = {"x": float(rng.uniform(0.3, 1.7)), "k1": 1.25}
        try:
            want = evaluate(e, b)
        except EvalDomainError:
            continue
        assert evaluate(e2, b) == want, printed


def _printed_digest():
    """sha256 over the printed text and the pre-order walk of the theorem
    pairs' Lienard coefficients and partials, and of 200 random trees and
    their derivatives in x; a Num is walked as the bits of its value."""
    h = hashlib.sha256()

    def put(tree):
        walk = [float(n.value).hex() if type(n) is Num else type(n).__name__
                for n in _walk(tree)]
        h.update(("%s\n%s\n" % (to_str(tree), " ".join(walk))).encode())

    for f, g in verify.THEOREM_PAIRS:
        osc = deform.DeformedOscillator(f, g, 1.0, alpha=0.3)
        form = deform.generate_ode(osc)
        for key in ("coeff_xdd", "coeff_xd", "remainder"):
            put(form.exprs[key])
        for key in ("f_t", "f_x", "f_v", "g_t", "g_x", "g_v"):
            put(osc.exprs[key])
    rng = np.random.default_rng(37)
    for _ in range(200):
        e = _rand_tree(rng, int(rng.integers(1, 5)))
        put(e)
        put(differentiate(e, "x"))
    return h.hexdigest()


def test_printed_text_and_walk_order_are_pinned():
    # computed before to_str, differentiate, the folding constructors and
    # _walk dispatched on type(e): every character, every constant's bits
    # and the walk order are kept
    assert _printed_digest() == (
        "36e8c179bb2d1d8e065a1905325e2c55dbfd16d5d499586c2f7cbba6ce30cfab")


# one construct nested n levels deep, each level one level of parse's limit
_NESTINGS = {
    "parentheses": lambda n: "(" * n + "x" + ")" * n,
    "unary minus": lambda n: "-" * n + "x",
    "call arguments": lambda n: "sin(" * n + "x" + ")" * n,
    "right-nested powers": lambda n: "0.5^" * n + "x",
    # n operators, each one level over its left operand
    "sums": lambda n: "+".join(["x"] * (n + 1)),
    "products": lambda n: "*".join(["x"] * (n + 1)),
    # the first term's levels count toward the sum it starts
    "a sum led by a sum": lambda n: ("(" + "+".join(["x"] * (n // 2 + 1))
                                     + ")" + "+x" * (n - n // 2)),
}


@pytest.mark.parametrize("construct", sorted(_NESTINGS))
def test_nesting_at_the_limit_goes_through_the_oscillator(construct):
    text = _NESTINGS[construct](exprdsl._MAX_NESTING)
    osc = deform.DeformedOscillator(text, text, 1.0, alpha=0.3)
    form = deform.generate_ode(osc)
    for key in ("coeff_xdd", "coeff_xd", "remainder"):
        assert to_str(form.exprs[key])
    assert math.isfinite(osc.amplitude_slope(0.3, 0.2, 0.4, 1e-12))


@pytest.mark.parametrize("construct", sorted(_NESTINGS))
def test_nesting_past_the_limit_is_a_syntax_error(construct):
    text = _NESTINGS[construct](exprdsl._MAX_NESTING + 1)
    with pytest.raises(ExprSyntaxError, match="^nested deeper than 100 "):
        parse(text)


def test_a_solve_node_has_no_text_form():
    # the amplitude frame's x solves x + g(t, x) = y*sin(theta) for x
    x = deform.DeformedOscillator("0", "0.2*x^2", 1.0)._frame[0]
    assert type(x) is Solve
    with pytest.raises(TypeError, match="^a Solve node has no text form: "):
        str(x)
    for call in (lambda: to_str("x"),
                 lambda: differentiate("x", "u")):
        with pytest.raises(TypeError, match="^not an Expr node: 'x'$"):
            call()


def test_a_solve_differentiates_by_the_implicit_function_rule():
    # x + b*x = u solved for x from the guess t to the tolerance v: the
    # root is u/(1 + b), its derivative in u folds to the constant
    # 1/(1 + b), bit for bit, and the guess and the tolerance move nothing
    b = 0.3
    h = parse("x + %r*x - u" % b)
    pair = (h, differentiate(h, "x"))
    root = Solve(pair, ("x", "u"), (Var("t"), Var("v"), Var("u")),
                 solve_scalar, function(pair, ("x", "u")))
    d = differentiate(root, "u")
    assert type(d) is Num and d.value.hex() == (1.0 / (1.0 + b)).hex()
    for var in ("t", "v"):
        d = differentiate(root, var)
        assert type(d) is Num and d.value == 0.0, var


def test_the_frames_nested_solves_differentiate_to_their_differences():
    # the amplitude frame's v solves v + f(t, x, v) = w*u*cos(theta) for v
    # at x, which solves x + g(t, x) = u*sin(theta): the derivatives of v
    # in u and in t, through both roots, against Richardson central
    # differences, within 1e-9 relative
    osc = deform.DeformedOscillator("-0.5*v + 0.2*x + 0.1*v^3",
                                    "0.15*x^3", 2.0, alpha=0.3)
    v = osc._frame[1]
    assert type(v) is Solve and type(v.args[3]) is Solve
    for var in ("u", "t"):
        slope = function(differentiate(v, var), ("x", "v", "t", "u"))
        for t, u in ((0.4, 0.8), (1.1, -1.3), (2.5, 0.35)):
            point = {"x": 0.3, "v": -0.2, "t": t, "u": u}

            def central(h):
                up, down = dict(point), dict(point)
                up[var] += h
                down[var] -= h
                return (evaluate(v, up) - evaluate(v, down)) / (2.0 * h)

            want = (4.0 * central(5e-4) - central(1e-3)) / 3.0
            got = slope(*point.values())
            assert abs(got - want) <= 1e-9 * abs(want), (var, t, u)


def test_substitute_params():
    e = parse("mu*x^2 + nu*v")
    e2 = bind(e, ("x", "v"), {"mu": 2.0, "nu": -1.5})
    assert evaluate(e2, {"x": 3.0, "v": 2.0}) == 2.0 * 9.0 - 1.5 * 2.0
    # partial substitution leaves nu free, which bind reports
    with pytest.raises(UnboundNameError) as info:
        bind(e, ("x", "v"), {"mu": 2.0})
    assert info.value.name == "nu"
    # text and numbers are accepted as well as trees
    assert evaluate(bind("1.5", ("u",)), {}) == 1.5
    assert evaluate(bind(2, ("u",)), {}) == 2.0
    # only parameters are bound: a variable's name among them is ignored
    e3 = bind("x + mu", ("x",), {"x": 5.0, "mu": 1.0})
    assert evaluate(e3, {"x": 3.0}) == 4.0


def _distinct_nodes(e):
    seen = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(getattr(node, a) for a in ("arg", "left", "right")
                         if hasattr(node, a))
    return len(seen)


def test_substitution_keeps_a_graph_a_graph():
    # each level of the chain reads the one below twice, so as a tree its
    # derivative has more than 2^30 nodes; as a graph it has a few hundred
    e = Var("x")
    for _ in range(30):
        e = Mul(Call("sin", e), e)
    d = differentiate(e, "x")
    x_of_tu = Mul(Var("u"), Call("sin", Var("t")))
    start = time.perf_counter()
    r = _substitute(d, {"x": x_of_tu})
    assert time.perf_counter() - start < 1.0
    assert _distinct_nodes(r) <= _distinct_nodes(d) + _distinct_nodes(x_of_tu)
    t, u = 0.7, 1.3
    assert (function(r, ("t", "u"))(t, u)
            == function(d, ("t", "x"))(t, u * math.sin(t)))


def test_function_is_evaluate_with_positional_variables():
    e = parse("x*sin(t) - v^2")
    fn = function(e, ("t", "x", "v"))
    assert fn(0.3, 2.0, 1.5) == evaluate(e, {"t": 0.3, "x": 2.0, "v": 1.5})
    g = function(parse("u^3 - u"), ("u",))
    assert g(2.0) == 6.0


def test_str_dunder_is_printer():
    e = parse("x + 2*v")
    assert str(e) == to_str(e)


@pytest.mark.parametrize("text, names, args, message", [
    ("1/x", ("x",), (0.0,), "division by zero"),
    ("x^-1", ("x",), (0.0,), "zero raised to a negative power"),
    ("x^(v - 2)", ("x", "v"), (0.0, 1.0), "zero raised to a negative power"),
    ("x^0.5", ("x",), (-2.0,), "fractional power of negative base -2.0"),
    ("x^400", ("x",), (1e10,), "overflow in power"),
    ("x^v", ("x", "v"), (10.0, 400.0), "overflow in power"),
    ("exp(x)", ("x",), (1000.0,), "overflow in exp"),
    ("cosh(x)", ("x",), (1000.0,), "overflow in cosh"),
    ("sin(x)", ("x",), (math.inf,), "domain error in sin(inf)"),
    ("ln(x)", ("x",), (0.0,), "ln of non-positive value 0.0"),
    ("sqrt(x)", ("x",), (-1.0,), "sqrt of negative value -1.0"),
    ("cot(t)", ("t",), (0.0,), "cot pole at 0.0"),
    # the first error in evaluation order wins: the divisor comes first
    ("ln(x)/x", ("x",), (0.0,), "division by zero"),
])
def test_function_raises_each_domain_error_as_evaluate(text, names, args,
                                                       message):
    e = parse(text)
    for call in (lambda: evaluate(e, dict(zip(names, args))),
                 lambda: function(e, names)(*args)):
        with pytest.raises(EvalDomainError) as info:
            call()
        assert str(info.value) == message


def test_function_raises_for_a_free_name_when_called_not_when_built():
    fn = function(parse("mu*x"), ("x",))
    with pytest.raises(UnboundNameError) as info:
        fn(2.0)
    assert info.value.name == "mu"
    # a variable outside the signature is free in the same way
    with pytest.raises(UnboundNameError) as info:
        function(parse("u + x"), ("x",))(1.0)
    assert info.value.name == "u"
    # reached after a domain error, the name is never reached
    with pytest.raises(EvalDomainError):
        function(parse("1/x + mu"), ("x",))(0.0)


def test_function_takes_only_distinct_variables():
    for names in (("x", "x"), ("y",), ("t", "mu")):
        with pytest.raises(ValueError):
            function(parse("x"), names)


def test_constant_power_beyond_the_double_range_stays_unfolded():
    # folding 2^1099 would overflow; the node stays, and evaluating it
    # raises the typed error
    d = differentiate(parse("2^1100*x"), "x")
    with pytest.raises(EvalDomainError, match="overflow in power"):
        function(d, ("x",))(1.0)
    assert to_str(differentiate(parse("x*2^1100"), "x")) == "2^1100"


def test_function_shares_equal_subexpressions_only():
    # equal structures share one value; the same operands in the other
    # order are a different value
    s = parse("sin(x)")
    for e in (parse("(x - v) + (v - x)"), parse("x/v - v/x"),
              parse("x^v + v^x"), parse("sin(x)*sin(x) + sin(x)^2"),
              Add(Mul(s, s), Div(s, Add(s, s)))):
        fn = function(e, ("t", "x", "v"))
        for x, v in ((1.0, 3.0), (2.5, 0.75)):
            assert fn(0.0, x, v) == evaluate(e, {"x": x, "v": v}), to_str(e)


def test_compiled_functions_are_freed_without_the_collector():
    # a compiled function that reached itself through its globals would
    # be a reference cycle, left to the collector
    e = parse("sin(x)*v + 1/x")
    enabled = gc.isenabled()
    gc.disable()
    try:
        fn = function(e, ("x", "v"))
        fn(0.5, 0.5)
        ref = weakref.ref(fn)
        del fn
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


_NO_NUMPY = """
import json, sys, types
sys.modules["numpy"] = None
# a stub package: the real __init__ imports the modules that use numpy
package = types.ModuleType("oscdeform")
package.__path__ = [sys.argv[1]]
sys.modules["oscdeform"] = package
from oscdeform import exprdsl
fn = exprdsl.function(tuple(map(exprdsl.parse, json.loads(sys.argv[2]))),
                      ("x", "v"))
print(json.dumps([list(map(repr, fn(0.5, -2.0))),
                  sorted(m for m in sys.modules if m.startswith("oscdeform"))]))
"""


def test_the_compiler_runs_without_numpy():
    texts = ["sin(x)*v + 1/x", "x^2 - v^-3", "sqrt(x)*exp(v)"]
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY,
         os.path.dirname(exprdsl.__file__), json.dumps(texts)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    values, modules = json.loads(proc.stdout)
    assert values == [repr(evaluate(parse(text), {"x": 0.5, "v": -2.0}))
                      for text in texts]
    assert modules == ["oscdeform", "oscdeform.errors", "oscdeform.exprdsl"]


def test_trees_of_one_shape_keep_their_own_constants():
    # one code object for the shape c*x, each function with its own float:
    # signed zeros, infinities and NaNs of either sign
    x = Var("x")
    constants = (-0.0, 0.0, math.inf, -math.inf, math.nan, -math.nan, 2.5)
    fns = [function(Mul(Num(c), x), ("x",)) for c in constants]
    assert len({fn.__code__ for fn in fns}) == 1
    for c, fn in zip(constants, fns):
        got, want = fn(1.0), evaluate(Mul(Num(c), x), {"x": 1.0})
        assert repr(got) == repr(want) == repr(c)
        assert math.copysign(1.0, got) == math.copysign(1.0, c)
    # within one tree, two constants share an argument only when their
    # bits are equal: the divisor (read first) is +nan, the dividend -nan
    e = Div(Num(-math.nan), Num(math.nan))
    got = function(e, ("x",))(1.0)
    assert math.copysign(1.0, got) == math.copysign(1.0, evaluate(e, {}))


def test_trees_of_one_shape_raise_for_their_own_free_name():
    fns = {name: function(parse("x + " + name), ("x",))
           for name in ("a", "b")}
    assert fns["a"].__code__ is fns["b"].__code__
    for name, fn in fns.items():
        with pytest.raises(UnboundNameError) as info:
            fn(1.0)
        assert info.value.name == name


def test_compiled_shapes_stay_within_the_cache_bound():
    # x^k for 300 values of k: an int exponent is part of the shape
    before = exprdsl._make.cache_info()
    for k in range(300):
        assert function(parse("x^%d" % k), ("x",))(1.5) == 1.5 ** k
    info = exprdsl._make.cache_info()
    assert info.misses - before.misses >= 300 - 256
    assert info.currsize <= info.maxsize == 256


# the source the code generator wrote before it knew Solve, for a tuple
# of trees with a call, a division, an int and a fractional power
_SOURCE_WITHOUT_SOLVE = """def make(_k0):
    def body(t, x, v):
        _0 = float(v)
        if _0 == 0.0:
            raise EvalDomainError("division by zero")
        _1 = float(x)
        try:
            _2 = sin(_1)
        except OverflowError:
            raise EvalDomainError("overflow in sin") from None
        except ValueError:
            raise EvalDomainError("domain error in sin(%r)" % _1) from None
        _3 = _2 / _0
        _4 = -_1
        if _4 == 0.0:
            raise EvalDomainError("zero raised to a negative power")
        try:
            _5 = _4 ** -3
        except OverflowError:
            raise EvalDomainError("overflow in power") from None
        _6 = _3 - _5
        if _1 < 0.0:
            raise EvalDomainError("fractional power of negative base %r" % _1)
        if _1 == 0.0 and _0 < 0.0:
            raise EvalDomainError("zero raised to a negative power")
        try:
            _7 = _1 ** _0
        except OverflowError:
            raise EvalDomainError("overflow in power") from None
        _8 = _7 * _k0
        return (_6, _8,)
    return body
"""


def test_a_tree_without_a_solve_generates_the_source_it_did_before():
    e = (parse("sin(x)/v - (-x)^-3"), parse("x^v*2.5"))
    assert (exprdsl._Codegen(("t", "x", "v")).source(e)
            == _SOURCE_WITHOUT_SOLVE)


def _cube_root(residual, guess, *params):
    """Solve of residual(x, t) = 0 with its x-derivative as the slope, in
    (x, t), from the tree guess at the trees params; its solve is
    solve_scalar, and records the guess of each call."""
    calls = []
    pair = (residual, differentiate(residual, "x"))
    law = function(pair, ("x", "t"))

    def solve(law, guess, tol, *params):
        calls.append(guess)
        return solve_scalar(law, guess, tol, *params)

    return Solve(pair, ("x", "t"), (guess, Num(1e-14)) + params, solve,
                 law), calls


def test_a_solve_is_its_newton_loop_and_calls_its_solve_on_a_stall():
    # x^3 - t = 0 from the guess u: Newton converges where the slope is
    # alive, and calls solve where the slope starts at zero and where the
    # first step leaves the double range (from u = 1e-160 the slope is
    # 3e-320)
    root, calls = _cube_root(parse("x^3 - t"), Var("u"), Var("t"))
    e = Add(root, Mul(root, Var("t")))
    fn = function(e, ("t", "u"))
    for t, u, stalls in ((8.0, 1.0, False), (-3.0, 2.5, False),
                         (0.5, 0.0, True), (8.0, 1e-160, True)):
        want = evaluate(e, {"t": t, "u": u})
        del calls[:]
        assert repr(fn(t, u)) == repr(want)
        # the root is computed once and read twice
        assert calls == ([u] if stalls else [])
    assert depends_on(e, "u") and not depends_on(root, "x")
    # a substitution reaches the guess and the params, not the law
    moved = _substitute(root, {"u": Num(2.0), "t": Num(27.0)})
    assert moved.law is root.law
    assert function(moved, ())() == evaluate(root, {"t": 27.0, "u": 2.0})


def test_a_solve_in_a_solve_and_a_free_name_in_a_law():
    # the inner root is a param of the outer one: x^3 = x_inner + t
    inner, _ = _cube_root(parse("x^3 - t"), Var("u"), Var("t"))
    outer, _ = _cube_root(parse("x^3 - t"), Num(1.5), Add(inner, Var("t")))
    fn = function(outer, ("t", "u"))
    assert repr(fn(8.0, 1.0)) == repr(evaluate(outer, {"t": 8.0, "u": 1.0}))
    # a law that reads a name it does not bind raises when called, at the
    # first Newton step, as its law does
    free, _ = _cube_root(parse("x^3 - t*k"), Num(1.0), Var("t"))
    fn = function(free, ("t",))
    for call in (lambda: fn(2.0), lambda: free.law(1.0, 2.0)):
        with pytest.raises(UnboundNameError) as info:
            call()
        assert info.value.name == "k"


# z(u) stays within [0.36, 0.71] for u in [0.1, 0.8], where every function
# in FUNCTIONS and all its derivatives are defined
_Z = "(0.3 + 0.7*u - 0.4*u^2 + 0.2*u^3)"
_TAYLOR_TREES = ["%s(%s)" % (fn, _Z) for fn in sorted(exprdsl.FUNCTIONS)] + [
    "3.25", "u", "-(%s)" % _Z, "u + %s" % _Z, "u - %s" % _Z, "u*%s" % _Z,
    "(1 + u)/(2 + u*%s)" % _Z, "%s^5" % _Z, "(u - 0.45)^3",
    "(%s)^-3" % _Z, "%s^0.7" % _Z, "%s^(0.5*u - 1)" % _Z,
    # a graph: the differentiated trees share their subtrees
    "asinh(2*u)/sqrt(3*(1 + 3*u^2))",
]


@pytest.mark.parametrize("text", _TAYLOR_TREES)
def test_taylor_is_repeated_differentiation(text):
    e = parse(text)
    chain = [e]
    for _ in range(6):
        chain.append(differentiate(chain[-1], "u"))
    derivatives = function(tuple(chain), ("u",))
    rng = np.random.default_rng(15)
    for at in rng.uniform(0.1, 0.8, 4).tolist():
        got = taylor(e, "u", at, 6)
        assert all(type(c) is float for c in got) and len(got) == 7
        # coefficient 0 is evaluate's float, bit for bit
        assert got[0].hex() == evaluate(e, {"u": at}).hex()
        for k, (g, d) in enumerate(zip(got, derivatives(at))):
            w = d / math.factorial(k)
            assert abs(g - w) <= 1e-13 * max(1.0, abs(w)), (text, at, k)


def test_taylor_keeps_the_sign_of_a_zero_in_coefficient_0():
    for text in ("-0*u", "u*-0 + -0", "-0/u", "sin(-0*u)", "-(0*u)^3",
                 "tanh(-0*u)*u", "(u - 2)*0"):
        want = evaluate(parse(text), {"u": 2.0})
        assert want == 0.0
        for order in (0, 4):
            got = taylor(parse(text), "u", 2.0, order)[0]
            assert math.copysign(1.0, got) == math.copysign(1.0, want), text


def test_taylor_reads_a_shared_node_once(monkeypatch):
    calls = []
    jet_call = exprdsl._jet_call
    monkeypatch.setattr(exprdsl, "_jet_call",
                        lambda fn, z: calls.append(fn) or jet_call(fn, z))
    want = taylor(parse("(sin(u) + sin(u))*sin(u)"), "u", 0.25, 3)
    assert calls == ["sin"] * 3
    del calls[:]
    shared = Call("sin", Var("u"))
    assert taylor(Mul(Add(shared, shared), shared), "u", 0.25, 3) == want
    assert calls == ["sin"]


def test_taylor_about_a_point_of_a_non_analytic_node_raises_by_name():
    cases = [("abs(u)", 0.0, "abs"), ("sqrt(u*u)", 0.0, "sqrt"),
             ("u^1.5", 0.0, "non-integer power"),
             ("u^0.5", -1.0, "fractional power of negative base"),
             ("ln(u)", 0.0, "ln of non-positive"),
             ("sqrt(u)", -0.5, "sqrt of negative"),
             ("1/u", 0.0, "division by zero")]
    for text, at, what in cases:
        with pytest.raises(EvalDomainError, match=what):
            taylor(parse(text), "u", at, 6)
    # order 0 is evaluate: abs and sqrt at 0 are defined there
    assert taylor(parse("abs(u)"), "u", 0.0, 0) == [0.0]
    assert taylor(parse("sqrt(u*u)"), "u", 0.0, 0) == [0.0]


def test_taylor_refuses_a_free_name_and_a_solve():
    for text, name in (("u*t", "t"), ("mu*u", "mu")):
        with pytest.raises(UnboundNameError) as info:
            taylor(parse(text), "u", 0.5, 3)
        assert info.value.name == name
    root, _ = _cube_root(parse("x^3 - t"), Num(1.0), Var("u"))
    with pytest.raises(TypeError, match="Solve"):
        taylor(Add(root, Var("u")), "u", 8.0, 3)
    with pytest.raises(ValueError):
        taylor(parse("u"), "mu", 0.0, 3)
    with pytest.raises(ValueError, match="got 2.0"):
        taylor(parse("u"), "u", 0.0, 2.0)
