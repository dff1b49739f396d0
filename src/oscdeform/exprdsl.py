"""Runtime math-expression DSL: parse, evaluate, differentiate, print.

Grammar (whitespace insignificant)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' factor)?
    base   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')' | '-' base

The identifiers ``t``, ``x``, ``v``, ``u`` are variables; any other
identifier is a named parameter that must be bound before evaluation.
Every user expression enters the library through ``bind``, which
substitutes parameters and checks which variables it uses, and is
evaluated through ``function``.
Function names are fixed: sin, cos, tan, cot, exp, ln, sqrt, abs, asinh,
sinh, cosh, tanh.

Trees are immutable; evaluation is plain IEEE-double arithmetic with domain
errors raised (never silent NaN).  Differentiation is symbolic with constant
folding (0*e -> 0, 1*e -> e and friends), which keeps the generated
derivative trees small enough to evaluate thousands of times.
"""

from __future__ import annotations

import math
import re

from .errors import (
    EvalDomainError,
    ExprSyntaxError,
    UnboundNameError,
    UnknownFunctionError,
)

VARIABLES = ("t", "x", "v", "u")


# --- node types ------------------------------------------------------------

class Expr:
    """Base class for expression-tree nodes."""

    __slots__ = ()

    def __str__(self):
        return to_str(self)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, to_str(self))


class Num(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", float(value))

    def __setattr__(self, name, value):
        raise AttributeError("Expr nodes are immutable")


class _Named(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):
        raise AttributeError("Expr nodes are immutable")


class Var(_Named):
    """One of the declared variables t, x, v, u."""
    __slots__ = ()


class Param(_Named):
    """A named constant, bound at evaluation time."""
    __slots__ = ()


class _Unary(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg):
        object.__setattr__(self, "arg", arg)

    def __setattr__(self, name, value):
        raise AttributeError("Expr nodes are immutable")


class Neg(_Unary):
    __slots__ = ()


class Call(Expr):
    __slots__ = ("fn", "arg")

    def __init__(self, fn, arg):
        if fn not in FUNCTIONS:
            raise ValueError("unknown function: %s" % fn)
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "arg", arg)

    def __setattr__(self, name, value):
        raise AttributeError("Expr nodes are immutable")


class _Binary(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __setattr__(self, name, value):
        raise AttributeError("Expr nodes are immutable")


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Pow(_Binary):
    __slots__ = ()


# --- scalar function kernels ------------------------------------------------

def _fn_cot(z):
    s = math.sin(z)
    if s == 0.0:
        raise EvalDomainError("cot pole at %r" % z)
    return math.cos(z) / s


def _fn_ln(z):
    if z <= 0.0:
        raise EvalDomainError("ln of non-positive value %r" % z)
    return math.log(z)


def _fn_sqrt(z):
    if z < 0.0:
        raise EvalDomainError("sqrt of negative value %r" % z)
    return math.sqrt(z)


def _fn_tan(z):
    if math.cos(z) == 0.0:
        raise EvalDomainError("tan pole at %r" % z)
    return math.tan(z)


FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": _fn_tan,
    "cot": _fn_cot,
    "exp": math.exp,
    "ln": _fn_ln,
    "sqrt": _fn_sqrt,
    "abs": abs,
    "asinh": math.asinh,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
}


# --- parsing ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(text):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError("unexpected character %r" % text[pos], pos)
        for kind in ("num", "ident", "op"):
            val = m.group(kind)
            if val is not None:
                tokens.append((kind, val, pos))
                break
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError("expected %r" % op, pos)
        self.next()

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError("unexpected trailing input %r" % val, pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                node = Add(node, rhs) if val == "+" else Sub(node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.factor()
                node = Mul(node, rhs) if val == "*" else Div(node, rhs)
            else:
                return node

    def factor(self):
        node = self.base()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            return Pow(node, self.factor())
        return node

    def base(self):
        kind, val, pos = self.next()
        if kind == "num":
            return Num(float(val))
        if kind == "ident":
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "(":
                if val not in FUNCTIONS:
                    raise UnknownFunctionError("unknown function %r" % val, pos)
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            if val in VARIABLES:
                return Var(val)
            return Param(val)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "op" and val == "-":
            return Neg(self.base())
        raise ExprSyntaxError("expected a value, got %r" % (val or "end of input"), pos)


def parse(text):
    """Parse expression text into an Expr tree."""
    return _Parser(text).parse()


def as_expr(obj):
    """Coerce a string / number / Expr into an Expr."""
    if isinstance(obj, Expr):
        return obj
    if isinstance(obj, str):
        return parse(obj)
    if isinstance(obj, (int, float)):
        return Num(obj)
    raise TypeError("cannot interpret %r as an expression" % (obj,))


# --- evaluation --------------------------------------------------------------

def _syntactic_int_exponent(node):
    """Integer exponent detected from the tree shape (Num with integral value,
    possibly under a chain of negations).  Returns the int or None."""
    sign = 1
    while isinstance(node, Neg):
        sign = -sign
        node = node.arg
    if isinstance(node, Num) and float(node.value).is_integer() and abs(node.value) < 2**31:
        return sign * int(node.value)
    return None


def evaluate(e, bindings):
    """Evaluate an Expr at the given name->value bindings."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, (Var, Param)):
        try:
            return float(bindings[e.name])
        except KeyError:
            raise UnboundNameError(e.name) from None
    if isinstance(e, Neg):
        return -evaluate(e.arg, bindings)
    if isinstance(e, Add):
        return evaluate(e.left, bindings) + evaluate(e.right, bindings)
    if isinstance(e, Sub):
        return evaluate(e.left, bindings) - evaluate(e.right, bindings)
    if isinstance(e, Mul):
        return evaluate(e.left, bindings) * evaluate(e.right, bindings)
    if isinstance(e, Div):
        den = evaluate(e.right, bindings)
        if den == 0.0:
            raise EvalDomainError("division by zero")
        return evaluate(e.left, bindings) / den
    if isinstance(e, Pow):
        base = evaluate(e.left, bindings)
        k = _syntactic_int_exponent(e.right)
        try:
            if k is not None:
                if base == 0.0 and k < 0:
                    raise EvalDomainError("zero raised to a negative power")
                return base ** k
            p = evaluate(e.right, bindings)
            if base < 0.0:
                raise EvalDomainError(
                    "fractional power of negative base %r" % base)
            if base == 0.0 and p < 0.0:
                raise EvalDomainError("zero raised to a negative power")
            return base ** p
        except OverflowError:
            raise EvalDomainError("overflow in power") from None
    if isinstance(e, Call):
        z = evaluate(e.arg, bindings)
        try:
            return FUNCTIONS[e.fn](z)
        except OverflowError:
            raise EvalDomainError("overflow in %s" % e.fn) from None
        except ValueError:
            raise EvalDomainError("domain error in %s(%r)" % (e.fn, z)) from None
    raise TypeError("not an Expr node: %r" % (e,))


# --- folding constructors ----------------------------------------------------

def _num(e, value=None):
    if not isinstance(e, Num):
        return False
    return True if value is None else e.value == value


def add(a, b):
    if _num(a) and _num(b):
        return Num(a.value + b.value)
    if _num(a, 0.0):
        return b
    if _num(b, 0.0):
        return a
    return Add(a, b)


def sub(a, b):
    if _num(a) and _num(b):
        return Num(a.value - b.value)
    if _num(b, 0.0):
        return a
    if _num(a, 0.0):
        return neg(b)
    return Sub(a, b)


def mul(a, b):
    if _num(a) and _num(b):
        return Num(a.value * b.value)
    if _num(a, 0.0) or _num(b, 0.0):
        return Num(0.0)
    if _num(a, 1.0):
        return b
    if _num(b, 1.0):
        return a
    return Mul(a, b)


def div(a, b):
    if _num(a, 0.0):
        return Num(0.0)
    if _num(b, 1.0):
        return a
    if _num(a) and _num(b) and b.value != 0.0:
        return Num(a.value / b.value)
    return Div(a, b)


def neg(a):
    if _num(a):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def powe(a, b):
    if _num(b, 1.0):
        return a
    if _num(b, 0.0):
        return Num(1.0)
    if _num(a) and _num(b) and float(b.value).is_integer() and b.value >= 0:
        return Num(a.value ** b.value)
    return Pow(a, b)


# --- differentiation ----------------------------------------------------------

def differentiate(e, var):
    """Exact symbolic derivative of e with respect to a variable name."""
    if var not in VARIABLES:
        raise ValueError("not a variable: %r" % (var,))
    return _diff(e, var)


def _diff(e, var):
    if isinstance(e, (Num, Param)):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0) if e.name == var else Num(0.0)
    if isinstance(e, Neg):
        return neg(_diff(e.arg, var))
    if isinstance(e, Add):
        return add(_diff(e.left, var), _diff(e.right, var))
    if isinstance(e, Sub):
        return sub(_diff(e.left, var), _diff(e.right, var))
    if isinstance(e, Mul):
        return add(mul(_diff(e.left, var), e.right),
                   mul(e.left, _diff(e.right, var)))
    if isinstance(e, Div):
        return div(sub(mul(_diff(e.left, var), e.right),
                       mul(e.left, _diff(e.right, var))),
                   mul(e.right, e.right))
    if isinstance(e, Pow):
        da = _diff(e.left, var)
        if isinstance(e.right, Num):
            c = e.right.value
            return mul(mul(Num(c), powe(e.left, Num(c - 1.0))), da)
        db = _diff(e.right, var)
        # d(a^b) = a^b * (db*ln a + b*da/a)
        return mul(Pow(e.left, e.right),
                   add(mul(db, Call("ln", e.left)),
                       mul(e.right, div(da, e.left))))
    if isinstance(e, Call):
        u = e.arg
        du = _diff(u, var)
        fn = e.fn
        if fn == "sin":
            outer = Call("cos", u)
        elif fn == "cos":
            outer = neg(Call("sin", u))
        elif fn == "tan":
            outer = add(Num(1.0), powe(Call("tan", u), Num(2.0)))
        elif fn == "cot":
            outer = neg(add(Num(1.0), powe(Call("cot", u), Num(2.0))))
        elif fn == "exp":
            outer = Call("exp", u)
        elif fn == "ln":
            return div(du, u)
        elif fn == "sqrt":
            return div(du, mul(Num(2.0), Call("sqrt", u)))
        elif fn == "abs":
            # u/|u| * du; undefined (division by zero) at u = 0
            return div(mul(u, du), Call("abs", u))
        elif fn == "asinh":
            return div(du, Call("sqrt", add(Num(1.0), mul(u, u))))
        elif fn == "sinh":
            outer = Call("cosh", u)
        elif fn == "cosh":
            outer = Call("sinh", u)
        elif fn == "tanh":
            outer = sub(Num(1.0), powe(Call("tanh", u), Num(2.0)))
        else:  # pragma: no cover - impossible by construction
            raise TypeError("no derivative rule for %s" % fn)
        return mul(outer, du)
    raise TypeError("not an Expr node: %r" % (e,))


# --- printing -----------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e):
    if isinstance(e, (Add, Sub)):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _wrap(e):
    return "(" + to_str(e) + ")"


def to_str(e):
    """Canonical text form; parse(to_str(e)) evaluates identically to e."""
    if isinstance(e, Num):
        v = e.value
        if float(v).is_integer() and abs(v) < 1e15:
            return str(int(v))
        return repr(v)
    if isinstance(e, (Var, Param)):
        return e.name
    if isinstance(e, Neg):
        inner = e.arg
        if _prec(inner) >= _PREC_ATOM or isinstance(inner, Neg):
            return "-" + to_str(inner)
        return "-" + _wrap(inner)
    if isinstance(e, Call):
        return "%s(%s)" % (e.fn, to_str(e.arg))
    if isinstance(e, (Add, Sub)):
        op = " + " if isinstance(e, Add) else " - "
        left = to_str(e.left) if _prec(e.left) >= _PREC_ADD else _wrap(e.left)
        right = to_str(e.right) if _prec(e.right) > _PREC_ADD else _wrap(e.right)
        return left + op + right
    if isinstance(e, (Mul, Div)):
        op = "*" if isinstance(e, Mul) else "/"
        left = to_str(e.left) if _prec(e.left) >= _PREC_MUL else _wrap(e.left)
        right = to_str(e.right) if _prec(e.right) > _PREC_MUL else _wrap(e.right)
        return left + op + right
    if isinstance(e, Pow):
        lp = _prec(e.left)
        if lp >= _PREC_ATOM or isinstance(e.left, Neg):
            left = to_str(e.left)
        else:
            left = _wrap(e.left)  # wraps Add/Sub/Mul/Div and nested Pow bases
        rp = _prec(e.right)
        right = to_str(e.right) if rp >= _PREC_NEG else _wrap(e.right)
        return left + "^" + right
    raise TypeError("not an Expr node: %r" % (e,))


# --- the expression boundary ---------------------------------------------------

def _walk(e):
    yield e
    if isinstance(e, (Neg, Call)):
        yield from _walk(e.arg)
    elif isinstance(e, _Binary):
        yield from _walk(e.left)
        yield from _walk(e.right)


def depends_on(e, name):
    """True if e references the variable `name`."""
    return any(isinstance(n, Var) and n.name == name for n in _walk(e))


def _substitute(e, values):
    """Replace parameter nodes found in `values` by numeric constants."""
    if isinstance(e, Param) and e.name in values:
        return Num(values[e.name])
    if isinstance(e, (Num, Var, Param)):
        return e
    if isinstance(e, Neg):
        return Neg(_substitute(e.arg, values))
    if isinstance(e, Call):
        return Call(e.fn, _substitute(e.arg, values))
    cls = type(e)
    return cls(_substitute(e.left, values), _substitute(e.right, values))


def bind(e, allowed, params=None):
    """The expression e (text, a number or an Expr) with `params` substituted
    and checked for use: UnboundNameError names the first parameter left
    free, or the first variable outside `allowed` (with the allowed ones)."""
    e = as_expr(e)
    if params:
        e = _substitute(e, params)
    for n in _walk(e):
        if isinstance(n, Param):
            raise UnboundNameError(n.name)
        if isinstance(n, Var) and n.name not in allowed:
            raise UnboundNameError(n.name, allowed)
    return e


# the argument lists of function(); each writes its bindings dict out
# literally, which costs less per call than building it with zip
_SIGNATURES = {
    ("t", "x", "v"): lambda e: lambda t, x, v: evaluate(
        e, {"t": t, "x": x, "v": v}),
    ("u",): lambda e: lambda u: evaluate(e, {"u": u}),
}


def function(e, names):
    """e as a positional function of the variables `names`, ("t", "x", "v")
    or ("u",): function(e, ("u",))(0.5) is evaluate(e, {"u": 0.5})."""
    return _SIGNATURES[tuple(names)](e)
