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
errors raised (never silent NaN).  ``evaluate`` walks the tree and is the
reference; ``function`` compiles an expression, when it is called, into
one Python function that computes each distinct subexpression once, with
the same operations in the same order and the same errors.
``array_function`` compiles several expressions into one function of numpy
arrays whose elements are the scalar functions' floats, bit for bit, and
which raises an error they raise.  Differentiation is symbolic with
constant folding (0*e -> 0, 1*e -> e and friends) and returns a graph: a
subtree shared in its input is differentiated once, and its derivative is
shared in the output, so repeated derivatives grow with the number of
distinct subexpressions rather than the printed size.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np

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

    def __setattr__(self, name, value):
        raise AttributeError("Expr nodes are immutable")


class Num(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", float(value))


class _Named(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        object.__setattr__(self, "name", name)


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


class Neg(_Unary):
    __slots__ = ()


class Call(Expr):
    __slots__ = ("fn", "arg")

    def __init__(self, fn, arg):
        if fn not in FUNCTIONS:
            raise ValueError("unknown function: %s" % fn)
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "arg", arg)


class _Binary(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


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
        try:
            return Num(a.value ** b.value)
        except OverflowError:
            pass  # kept unfolded: evaluating it raises "overflow in power"
    return Pow(a, b)


# --- differentiation ----------------------------------------------------------

def differentiate(e, var):
    """Exact symbolic derivative of e with respect to a variable name."""
    if var not in VARIABLES:
        raise ValueError("not a variable: %r" % (var,))
    return _diff(e, var, {})


def _diff(e, var, done):
    """Derivative of e.  done maps id(node) to the derivative of each inner
    node already differentiated in this call, so a subtree shared in the
    input is differentiated once and its derivative is shared in the
    output."""
    if isinstance(e, (Num, Param)):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0) if e.name == var else Num(0.0)
    key = id(e)
    r = done.get(key)
    if r is not None:
        return r
    if isinstance(e, Neg):
        r = neg(_diff(e.arg, var, done))
    elif isinstance(e, Add):
        r = add(_diff(e.left, var, done), _diff(e.right, var, done))
    elif isinstance(e, Sub):
        r = sub(_diff(e.left, var, done), _diff(e.right, var, done))
    elif isinstance(e, Mul):
        r = add(mul(_diff(e.left, var, done), e.right),
                mul(e.left, _diff(e.right, var, done)))
    elif isinstance(e, Div):
        r = div(sub(mul(_diff(e.left, var, done), e.right),
                    mul(e.left, _diff(e.right, var, done))),
                mul(e.right, e.right))
    elif isinstance(e, Pow):
        da = _diff(e.left, var, done)
        if isinstance(e.right, Num):
            c = e.right.value
            r = mul(mul(Num(c), powe(e.left, Num(c - 1.0))), da)
        else:
            db = _diff(e.right, var, done)
            # d(a^b) = a^b * (db*ln a + b*da/a)
            r = mul(e, add(mul(db, Call("ln", e.left)),
                           mul(e.right, div(da, e.left))))
    elif isinstance(e, Call):
        r = _chain_rule(e.fn, e.arg, _diff(e.arg, var, done))
    else:
        raise TypeError("not an Expr node: %r" % (e,))
    done[key] = r
    return r


def _chain_rule(fn, u, du):
    """Derivative of fn(u), given the derivative du of u."""
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


def _substitute(e, values, done=None):
    """e with each Var or Param named in `values` replaced by that Expr,
    unfolded; memoised on id(node) in done, so a subtree shared in e (a
    graph from differentiate) is copied once and stays shared."""
    if isinstance(e, _Named):
        return values.get(e.name, e)
    if isinstance(e, Num):
        return e
    done = {} if done is None else done
    r = done.get(id(e))
    if r is None:
        if isinstance(e, Neg):
            r = Neg(_substitute(e.arg, values, done))
        elif isinstance(e, Call):
            r = Call(e.fn, _substitute(e.arg, values, done))
        else:
            r = type(e)(_substitute(e.left, values, done),
                        _substitute(e.right, values, done))
        done[id(e)] = r
    return r


def bind(e, allowed, params=None):
    """e (text, a number or an Expr) with `params` substituted as Num nodes
    and checked: UnboundNameError names the first parameter left free, or
    the first variable outside `allowed` (with the allowed ones)."""
    e = as_expr(e)
    if params:
        e = _substitute(e, {name: Num(value) for name, value in params.items()
                            if name not in VARIABLES})
    for n in _walk(e):
        if isinstance(n, Param):
            raise UnboundNameError(n.name)
        if isinstance(n, Var) and n.name not in allowed:
            raise UnboundNameError(n.name, allowed)
    return e


# --- compilation ----------------------------------------------------------------

class _Unreachable(Exception):
    """Raised while generating code past a name that is never bound."""


_OPERATORS = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


class _Codegen:
    """Python source for one Expr: a function of `names` that does
    evaluate's operations in evaluate's order, each distinct subexpression
    once.  A subexpression met again, as the same node or as an equal
    structure, reuses the local that holds its value.

    Only generated local names, the argument names, the names of FUNCTIONS
    and repr of finite floats go into the source; every other constant and
    every unbound name is passed in through the function's globals."""

    def __init__(self, names, scope):
        self.names = names
        self.scope = scope
        self.lines = []
        self.by_id = {}   # id(node) -> text of its value in the code
        self.by_key = {}  # structure -> local holding its value
        self.nonzero = set()  # divisors already tested against 0

    def source(self, e):
        try:
            self.emit("return %s" % self.operand(e))
        except _Unreachable:
            pass
        return "def body(%s):\n%s\n" % (", ".join(self.names),
                                       "\n".join(self.lines))

    def emit(self, *lines):
        self.lines.extend("    " + line for line in lines)

    def outside(self, value):
        """A global name through which value reaches the code."""
        name = "_c%d" % len(self.scope)
        self.scope[name] = value
        return name

    def local(self, key, lines, *args):
        """The local holding structure `key`; lines(name, *args) is its
        code."""
        name = self.by_key.get(key)
        if name is None:
            name = self.by_key[key] = "_%d" % len(self.by_key)
            self.emit(*lines(name, *args))
        return name

    def operand(self, e):
        """Text of e's value, after emitting the code that computes it.
        Like evaluate, it recurses once per level of the tree."""
        text = self.by_id.get(id(e))
        if text is not None:
            return text
        if isinstance(e, Num):
            text = ("(%r)" % e.value if math.isfinite(e.value)
                    else self.outside(e.value))
        elif isinstance(e, Var) and e.name in self.names:
            text = self.variable(e.name)
        elif isinstance(e, (Var, Param)):
            self.emit("raise UnboundNameError(%s)" % self.outside(e.name))
            raise _Unreachable
        elif isinstance(e, Neg):
            a = self.operand(e.arg)
            text = self.local(("-", a), _assignment, "-" + a)
        elif isinstance(e, Pow):
            base = self.operand(e.left)
            k = _syntactic_int_exponent(e.right)
            p = k if k is not None else self.operand(e.right)
            text = self.local(("**", base, p), self.power_lines, base, p,
                              k is not None)
        elif isinstance(e, Call):
            z = self.operand(e.arg)
            text = self.local((e.fn, z), self.call_lines, e.fn, z)
        elif isinstance(e, _Binary):
            op = _OPERATORS[type(e)]
            if op == "/":  # the divisor first, as evaluate does
                b = self.operand(e.right)
                if b not in self.nonzero:
                    self.nonzero.add(b)
                    self.emit("if %s:" % self.zero_test(b),
                              '    raise EvalDomainError("division by zero")')
                a = self.operand(e.left)
            else:
                a, b = self.operand(e.left), self.operand(e.right)
            text = self.local((op, a, b), _assignment,
                              "%s %s %s" % (a, op, b))
        else:
            raise TypeError("not an Expr node: %r" % (e,))
        self.by_id[id(e)] = text
        return text

    def variable(self, name):
        return self.local(("float", name), _assignment, "float(%s)" % name)

    def zero_test(self, b):
        return "%s == 0.0" % b

    def power_lines(self, name, base, p, integral):
        """name = base ** p with evaluate's guards; an integral p is the
        int exponent evaluate reads from the tree, which it never
        evaluates."""
        lines = []
        if not integral:
            lines += ["if %s < 0.0:" % base,
                      "    raise EvalDomainError("
                      '"fractional power of negative base %%r" %% %s)' % base]
        if not integral or p < 0:
            negative = "" if integral else " and %s < 0.0" % p
            lines += ["if %s == 0.0%s:" % (base, negative),
                      "    raise EvalDomainError("
                      '"zero raised to a negative power")']
        return lines + _guarded(name, "%s ** %s" % (base, p), "power")

    def call_lines(self, name, fn, z):
        return _guarded(name, "%s(%s)" % (fn, z), fn, z)


class _ArrayCodegen(_Codegen):
    """The array form of _Codegen: a function of one 1-d float array per
    name that returns a tuple with one array per Expr.

    A value that depends on a name is an array: + - * / act on it whole,
    each function and power runs per element through the same math kernel
    as the scalar code (_each, _each_pow), and each guard tests every
    element and names the first that fails, so an element gets the scalar
    code's float bit for bit or the first error any element meets.  Values
    free of the names stay floats and run the scalar code.  The body runs
    under np.errstate(all="ignore"): Python floats give inf and nan without
    a warning, and so does the array form."""

    def __init__(self, names, scope):
        super().__init__(names, scope)
        self.arrays = set(names)  # texts whose value is an array

    def source(self, *es):
        arrays = self.arrays
        try:
            values = [self.operand(e) for e in es]
            self.emit("return (%s,)" % ", ".join(
                "%s.copy()" % v if v in self.names else
                v if v in arrays else
                "_full(%s, %s)" % (self.names[0], v) for v in values))
        except _Unreachable:
            pass
        return "def body(%s):\n    with errstate(all=\"ignore\"):\n%s\n" % (
            ", ".join(self.names), "\n".join("    " + line
                                             for line in self.lines))

    def local(self, key, lines, *args):
        name = super().local(key, lines, *args)
        # key holds the operator and the texts of the operands
        if any(o in self.arrays for o in key[1:]):
            self.arrays.add(name)
        return name

    def variable(self, name):
        return name

    def zero_test(self, b):
        if b in self.arrays:
            return "not %s.all()" % b
        return super().zero_test(b)

    def power_lines(self, name, base, p, integral):
        arrays = self.arrays
        if not (base in arrays or p in arrays):
            return super().power_lines(name, base, p, integral)
        lines = []
        if not integral:
            test, value = (("(%s < 0.0).any()" % base,
                            "float(%s[%s < 0.0][0])" % (base, base))
                           if base in arrays else ("%s < 0.0" % base, base))
            lines += ["if %s:" % test,
                      "    raise EvalDomainError("
                      '"fractional power of negative base %%r" %% %s)' % value]
        if not integral or p < 0:
            lines += ["if %s:" % ("not %s.all()" % base if integral else
                                  "((%s == 0.0) & (%s < 0.0)).any()"
                                  % (base, p)),
                      "    raise EvalDomainError("
                      '"zero raised to a negative power")']
        return lines + ["%s = _each_pow(%s, %s)" % (name, base, p)]

    def call_lines(self, name, fn, z):
        if z not in self.arrays:
            return super().call_lines(name, fn, z)
        return ["%s = _each(%r, %s)" % (name, fn, z)]


def _assignment(name, value):
    return ["%s = %s" % (name, value)]


def _guarded(name, expr, what, arg=None):
    """Lines of name = expr, raising OverflowError (and, for a function
    call, ValueError) as evaluate raises them."""
    lines = ["try:",
             "    %s = %s" % (name, expr),
             "except OverflowError:",
             '    raise EvalDomainError("overflow in %s") from None' % what]
    if arg is not None:
        lines += ["except ValueError:",
                  '    raise EvalDomainError("domain error in %s(%%r)" %% %s)'
                  " from None" % (what, arg)]
    return lines


def _each(fn, z):
    """FUNCTIONS[fn] on each element of the array z; the first element
    that fails raises what the scalar code raises for it."""
    kernel = FUNCTIONS[fn]
    values = []
    for value in z.tolist():
        try:
            values.append(kernel(value))
        except OverflowError:
            raise EvalDomainError("overflow in %s" % fn) from None
        except ValueError:
            raise EvalDomainError("domain error in %s(%r)"
                                  % (fn, value)) from None
    return np.array(values)


def _each_pow(base, p):
    """base ** p per element, where base or p (a float or an int) is an
    array; overflow raises as the scalar code does."""
    bs, qs = (a.tolist() if isinstance(a, np.ndarray) else itertools.repeat(a)
              for a in (base, p))
    try:
        return np.array([b ** q for b, q in zip(bs, qs)])
    except OverflowError:
        raise EvalDomainError("overflow in power") from None


def _full(like, value):
    """The array of like's shape holding value."""
    return np.full(like.shape, value)


_SCOPE = dict(FUNCTIONS, EvalDomainError=EvalDomainError,
              UnboundNameError=UnboundNameError)
_ARRAY_SCOPE = dict(_SCOPE, _each=_each, _each_pow=_each_pow, _full=_full,
                    errstate=np.errstate)


def function(e, names):
    """e as a positional function of the variables `names`, distinct names
    from VARIABLES: function(e, ("u",))(0.5) is evaluate(e, {"u": 0.5}),
    the same float or the same error.  e is compiled when function is
    called, into one Python function (see _Codegen)."""
    return _compile(_Codegen, _SCOPE, (e,), names)


def array_function(es, names):
    """The expressions es as one positional function of the variables
    `names` on numpy arrays: called with one 1-d float array per name, all
    of one length, it returns a tuple with one new array per expression,
    whose element i is function(e, names) at element i of the arguments,
    bit for bit.  When an element fails, it raises the error that the
    scalar function raises for some element, and no numpy warning.  The
    expressions are compiled when array_function is called, as function
    does (see _ArrayCodegen)."""
    return _compile(_ArrayCodegen, _ARRAY_SCOPE, tuple(es), names)


def _compile(codegen, globals_, es, names):
    names = tuple(names)
    if len(set(names)) != len(names) or not set(names) <= set(VARIABLES):
        raise ValueError("not distinct variables: %r" % (names,))
    scope = dict(globals_)
    exec(codegen(names, scope).source(*es), scope)
    # body's globals are scope: leaving body in it would make every
    # compiled function a reference cycle, freed only by the collector
    return scope.pop("body")
