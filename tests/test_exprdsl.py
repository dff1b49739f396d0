import gc
import math
import time
import warnings
import weakref

import numpy as np
import pytest

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
    Var,
    _substitute,
    array_function,
    bind,
    depends_on,
    differentiate,
    evaluate,
    function,
    parse,
    to_str,
)


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


def test_print_round_trip_random_trees():
    rng = np.random.default_rng(7)

    def rand_tree(depth):
        if depth == 0:
            k = rng.integers(0, 3)
            if k == 0:
                return Num(round(float(rng.uniform(-3, 3)), 3))
            if k == 1:
                return Var("x")
            return Param("k1")
        kind = rng.integers(0, 6)
        if kind == 0:
            return Neg(rand_tree(depth - 1))
        if kind == 1:
            return Call("sin", rand_tree(depth - 1))
        a = rand_tree(depth - 1)
        b = rand_tree(depth - 1)
        if kind == 2:
            return Add(a, b)
        if kind == 3:
            return Mul(a, b)
        if kind == 4:
            return Pow(a, Num(float(rng.integers(0, 4))))
        return Pow(Call("abs", a), Num(round(float(rng.uniform(0.5, 2.0)), 2)))

    for _ in range(200):
        e = rand_tree(int(rng.integers(1, 5)))
        printed = to_str(e)
        e2 = parse(printed)
        b = {"x": float(rng.uniform(0.3, 1.7)), "k1": 1.25}
        try:
            want = evaluate(e, b)
        except EvalDomainError:
            continue
        assert evaluate(e2, b) == want, printed


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


@pytest.mark.parametrize("text, bad", [
    ("exp(x)", 1000.0),        # a function that overflows
    ("sin(x)", math.inf),      # a function outside its domain
    ("2^x", 2000.0),           # a power that overflows
])
def test_array_form_raises_the_scalar_error_of_a_failing_element(text,
                                                                  bad):
    e = parse(text)
    with pytest.raises(EvalDomainError) as scalar:
        function(e, ("x",))(bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvalDomainError) as array:
            array_function((e,), ("x",))(np.array([0.5, bad, 1.0]))
    assert str(array.value) == str(scalar.value)


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
        for make, arg in (
                (lambda: function(e, ("x", "v")), 0.5),
                (lambda: array_function((e, parse("x^2")), ("x", "v")),
                 np.array([0.5, 2.0]))):
            fn = make()
            fn(arg, arg)
            ref = weakref.ref(fn)
            del fn
            assert ref() is None
    finally:
        if enabled:
            gc.enable()
