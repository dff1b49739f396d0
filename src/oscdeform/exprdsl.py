"""Runtime math-expression DSL: parse, evaluate, differentiate, print.

Grammar (whitespace insignificant)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' factor)?
    base   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')' | '-' base

Parentheses, call arguments, unary minus signs and right-nested powers
nest at most 100 levels deep, and a '+'/'-' or '*'/'/' chain, each
operator one level over its left operand, builds a tree at most 100
levels high, its operands' levels counted; deeper text raises
ExprSyntaxError.

The identifiers ``t``, ``x``, ``v``, ``u`` are variables; any other
identifier is a named parameter that must be bound before evaluation.
Every user expression enters the library through ``bind``, which
substitutes parameters and checks which variables it uses, and is
evaluated through ``function``.
Function names are fixed: sin, cos, tan, cot, exp, ln, sqrt, abs, asinh,
sinh, cosh, tanh.

Trees are immutable; evaluation is plain IEEE-double arithmetic with domain
errors raised (never silent NaN).  ``evaluate`` walks the tree and is the
reference; ``function`` compiles an expression, or a tuple of them, when
it is called, into one Python function that computes each distinct
subexpression once, with the same operations in the same order and the
same errors.  The constants are arguments of the generated code, so each
shape is compiled once.  A Solve node is the root of an implicit relation
in one unknown, as numerics.solve_scalar finds it; function runs that
Newton loop inside the generated code and calls solve_scalar, which
reaches the code as a constant, only where Newton stalls.  The module
computes in Python floats and imports no numpy.  Differentiation is
symbolic with constant folding (0*e -> 0, 1*e -> e and friends) and
returns a graph: a subtree shared in its input is differentiated once,
and its derivative is shared in the output, so repeated derivatives grow
with the number of distinct subexpressions rather than the printed size.
``taylor`` reads a tree about a point as its truncated Taylor series, by
Taylor-mode arithmetic on each node once, with no symbolic differentiation.
"""

from __future__ import annotations

import functools
import math
import re
import struct

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


class Solve(Expr):
    """The root near a guess of an implicit relation in one unknown, as
    solve(law, guess, tol, *params) finds it, where solve is
    numerics.solve_scalar and law is function(pair, names): pair holds
    the trees of the residual and its slope in the variables `names`, the
    unknown first.  args holds the trees of guess, tol and the params,
    which bind names[1:]; they are the node's only children.  function
    runs solve's Newton loop inline and calls solve only where Newton
    stalls (_Codegen.newton).  differentiate reads it by the
    implicit-function rule (_d_solve), through its params alone."""

    __slots__ = ("pair", "names", "args", "solve", "law")

    def __init__(self, pair, names, args, solve, law):
        for slot, value in zip(self.__slots__,
                               (pair, names, tuple(args), solve, law)):
            object.__setattr__(self, slot, value)

    def __repr__(self):
        return "Solve(%s)" % ", ".join(map(to_str, self.pair))


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
        tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


# the deepest nesting parse accepts: parentheses, call arguments, unary
# minus signs and right-nested powers, each one level as the parser enters
# it (it recurses seven frames per level), and the highest tree a +- or
# */ chain builds, each operator one level over its left operand
_MAX_NESTING = 100


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.height = 0  # levels of the tree last parsed, a leaf 0

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

    def too_deep(self, pos):
        return ExprSyntaxError("nested deeper than %d levels" % _MAX_NESTING,
                               pos)

    def nested(self, parse, pos):
        """parse() one level deeper; pos is the offset of the token that
        opens the level."""
        if self.depth == _MAX_NESTING:
            raise self.too_deep(pos)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError("unexpected trailing input %r" % val, pos)
        return node

    def chain(self, operand, ops, make):
        """operand() joined by the operators in ops, left-nested, make[k]
        building the node of ops[k].  Each operator puts the tree one level
        over its left operand, and a tree more than _MAX_NESTING levels
        high, its operands' levels counted, is refused."""
        node = operand()
        height = self.height
        # peek() and next() inlined: each operand passes here twice
        kind, val, pos = self.tokens[self.i]
        while kind == "op" and val in ops:
            self.i += 1
            node = make[ops.index(val)](node, operand())
            if self.height > height:
                height = self.height
            height += 1
            if height > _MAX_NESTING:
                raise self.too_deep(pos)
            kind, val, pos = self.tokens[self.i]
        self.height = height
        return node

    def expr(self):
        return self.chain(self.term, "+-", (Add, Sub))

    def term(self):
        return self.chain(self.factor, "*/", (Mul, Div))

    def factor(self):
        node = self.base()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            height = self.height
            node = Pow(node, self.nested(self.factor, pos))
            self.height = max(height, self.height) + 1
        return node

    def base(self):
        kind, val, pos = self.next()
        self.height = 0
        if kind == "num":
            return Num(float(val))
        if kind == "ident":
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "(":
                if val not in FUNCTIONS:
                    raise UnknownFunctionError("unknown function %r" % val, pos)
                self.next()
                arg = self.nested(self.expr, pos)
                self.expect_op(")")
                self.height += 1
                return Call(val, arg)
            if val in VARIABLES:
                return Var(val)
            return Param(val)
        if kind == "op" and val == "(":
            node = self.nested(self.expr, pos)
            self.expect_op(")")
            return node
        if kind == "op" and val == "-":
            node = Neg(self.nested(self.base, pos))
            self.height += 1
            return node
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
    if isinstance(e, Solve):
        return e.solve(e.law, *(evaluate(a, bindings) for a in e.args))
    raise TypeError("not an Expr node: %r" % (e,))


# --- folding constructors ----------------------------------------------------

def add(a, b):
    if type(a) is Num:
        if type(b) is Num:
            return Num(a.value + b.value)
        if a.value == 0.0:
            return b
    elif type(b) is Num and b.value == 0.0:
        return a
    return Add(a, b)


def sub(a, b):
    if type(b) is Num:
        if type(a) is Num:
            return Num(a.value - b.value)
        if b.value == 0.0:
            return a
    elif type(a) is Num and a.value == 0.0:
        return neg(b)
    return Sub(a, b)


def mul(a, b):
    if type(a) is Num:
        if type(b) is Num:
            return Num(a.value * b.value)
        if a.value == 0.0:
            return Num(0.0)
        if a.value == 1.0:
            return b
    elif type(b) is Num:
        if b.value == 0.0:
            return Num(0.0)
        if b.value == 1.0:
            return a
    return Mul(a, b)


def div(a, b):
    a_num = type(a) is Num
    if a_num and a.value == 0.0:
        return Num(0.0)
    if type(b) is Num:
        if b.value == 1.0:
            return a
        if a_num and b.value != 0.0:
            return Num(a.value / b.value)
    return Div(a, b)


def neg(a):
    t = type(a)
    if t is Num:
        return Num(-a.value)
    if t is Neg:
        return a.arg
    return Neg(a)


def powe(a, b):
    if type(b) is Num:
        c = b.value
        if c == 1.0:
            return a
        if c == 0.0:
            return Num(1.0)
        if type(a) is Num and c.is_integer() and c >= 0:
            try:
                return Num(a.value ** c)
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
    output.  The children are differentiated first, left to right, and
    _DERIVATIVES combines them, so the recursion is one frame per level."""
    t = type(e)
    if t is Var:
        return Num(1.0) if e.name == var else Num(0.0)
    if t is Num or t is Param:
        return Num(0.0)
    key = id(e)
    r = done.get(key)
    if r is None:
        rule = _DERIVATIVES.get(t)
        if rule is None:
            if t is not Solve:
                raise TypeError(_no_rule(e, "symbolic derivative"))
            r = _d_solve(e, var, done)
        elif t is Neg or t is Call:
            r = rule(e, _diff(e.arg, var, done))
        else:
            r = rule(e, _diff(e.left, var, done), _diff(e.right, var, done))
        done[key] = r
    return r


def _d_pow(e, da, db):
    if type(e.right) is Num:
        c = e.right.value
        return mul(mul(Num(c), powe(e.left, Num(c - 1.0))), da)
    # d(a^b) = a^b * (db*ln a + b*da/a)
    return mul(e, add(mul(db, Call("ln", e.left)),
                      mul(e.right, div(da, e.left))))


def _d_solve(e, var, done):
    """Derivative of e, a Solve, by the implicit-function rule dr = -(sum
    of h_p*dp over the params p)/h_r, the unknown bound to e itself, so
    generated code runs e's Newton loop once; guess and tol move nothing."""
    h, h_r = e.pair
    at = dict(zip(e.names, (e,) + e.args[2:]))
    total = Num(0.0)
    for name, p in zip(e.names[1:], e.args[2:]):
        dp = _diff(p, var, done)
        if type(dp) is not Num or dp.value != 0.0:
            total = add(total, mul(_substitute(_diff(h, name, {}), at), dp))
    return div(neg(total), _substitute(h_r, at))


# node type -> its derivative, from the node and the derivatives of its
# children: of arg for Neg and Call, of left and right for the others
_DERIVATIVES = {
    Neg: lambda e, da: neg(da),
    Call: lambda e, da: _chain_rule(e.fn, e.arg, da),
    Add: lambda e, da, db: add(da, db),
    Sub: lambda e, da, db: sub(da, db),
    Mul: lambda e, da, db: add(mul(da, e.right), mul(e.left, db)),
    Div: lambda e, da, db: div(sub(mul(da, e.right), mul(e.left, db)),
                               mul(e.right, e.right)),
    Pow: _d_pow,
}


def _no_rule(e, what):
    """The message for a node that has no `what` (a Solve), or for an
    object that is not a node."""
    if type(e) is Solve:
        return "a Solve node has no %s: %r" % (what, e)
    return "not an Expr node: %r" % (e,)


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


# --- Taylor series --------------------------------------------------------------

def taylor(e, var, at, order):
    """Taylor coefficients [c_0, ..., c_order] of e about var = at, as
    floats: e = sum of c_k (var - at)^k + O((var - at)^(order + 1)).

    One more reading of the tree beside evaluate and function, with no
    symbolic differentiation: each node's truncated series comes from its
    children's by the recurrences of Taylor-mode arithmetic (Griewank &
    Walther, Evaluating Derivatives, 2nd ed., ch. 13), once per node, so a
    subtree shared in a graph is read once.  + and - go term by term, * by
    the Cauchy product and / by its inverse; an integer power by Miller's
    recurrence (repeated products where the base's constant term is 0),
    any other power as exp(b ln a); sqrt by c*c = z, sin/cos and sinh/cosh
    by their coupled recurrences, and exp, ln, asinh, tan, cot and tanh
    through the series of their derivative, integrated term by term.
    c_0 is evaluate(e, {var: at}): the same float operations in the same
    order, so the same bits, signed zeros included, and the same errors.

    Where e has no Taylor series at `at` and order > 0, EvalDomainError is
    raised: abs or sqrt of an argument whose constant term is 0, or a
    non-integer power of a base whose constant term is <= 0.  Another
    variable or a parameter raises UnboundNameError, and a Solve node a
    TypeError."""
    if var not in VARIABLES:
        raise ValueError("not a variable: %r" % (var,))
    if not (isinstance(order, int) and order >= 0):
        raise ValueError("order must be an integer >= 0, got %r" % (order,))
    zeros, at, done = [0.0] * order, float(at), {}

    def jet(e):
        if isinstance(e, Num):
            return [e.value] + zeros
        if isinstance(e, _Named):
            if isinstance(e, Var) and e.name == var:
                return ([at, 1.0] + zeros)[:order + 1]
            raise UnboundNameError(e.name)
        r = done.get(id(e))
        if r is not None:
            return r
        if isinstance(e, Neg):
            r = [-a for a in jet(e.arg)]
        elif isinstance(e, (Add, Sub)):
            a, b = jet(e.left), jet(e.right)
            r = ([p + q for p, q in zip(a, b)] if isinstance(e, Add)
                 else [p - q for p, q in zip(a, b)])
        elif isinstance(e, Mul):
            a, b = jet(e.left), jet(e.right)
            r = [_cauchy(a, b, k) for k in range(order + 1)]
        elif isinstance(e, Div):
            b = jet(e.right)  # the divisor first, as evaluate does
            if b[0] == 0.0:
                raise EvalDomainError("division by zero")
            r = _quotient(jet(e.left), b)
        elif isinstance(e, Pow):
            r = _jet_power(jet(e.left), e.right, jet)
        elif isinstance(e, Call):
            r = _jet_call(e.fn, jet(e.arg))
        else:
            raise TypeError("taylor has no rule for %r" % (e,))
        done[id(e)] = r
        return r

    return jet(e)


def _cauchy(a, b, k):
    """Coefficient k of the product of the series a and b."""
    s = a[0] * b[k]
    for j in range(1, k + 1):
        s += a[j] * b[k - j]
    return s


def _quotient(a, b):
    """Series of a/b, b[0] != 0."""
    c = []
    for k in range(len(a)):
        s = a[k]
        for j in range(1, k + 1):
            s -= b[j] * c[k - j]
        c.append(s / b[0])
    return c


def _integral(z, c0, rule):
    """Series c of F(z) with c_0 = c0, from F'(z) = w: c' = w z'.
    rule(c, i) is w_i, which c_0 .. c_i determine."""
    c, w = [c0], []
    for k in range(1, len(z)):
        w.append(rule(c, k - 1))
        s = z[1] * w[k - 1]
        for j in range(2, k + 1):
            s += j * z[j] * w[k - j]
        c.append(s / k)
    return c


def _log(a, c0):
    """Series of ln(a) with c_0 = c0, from ln' = 1/a."""
    w = _quotient([1.0] + [0.0] * (len(a) - 1), a)
    return _integral(a, c0, lambda c, i: w[i])


def _exp(z, c0):
    """Series of exp(z) with c_0 = c0, from exp' = exp."""
    return _integral(z, c0, lambda c, i: c[i])


def _jet_power(a, exponent, jet):
    """Series of a^exponent, c_0 as evaluate computes it."""
    k = _syntactic_int_exponent(exponent)
    b = None if k is not None else jet(exponent)
    base, n = a[0], len(a)
    try:
        if k is not None:
            if base == 0.0 and k < 0:
                raise EvalDomainError("zero raised to a negative power")
            c0 = base ** k
        else:
            if base < 0.0:
                raise EvalDomainError(
                    "fractional power of negative base %r" % base)
            if base == 0.0 and b[0] < 0.0:
                raise EvalDomainError("zero raised to a negative power")
            c0 = base ** b[0]
    except OverflowError:
        raise EvalDomainError("overflow in power") from None
    if n == 1 or k == 0:
        return [c0] + [0.0] * (n - 1)
    if k is None:
        if base == 0.0:
            raise EvalDomainError("a non-integer power of a base with "
                                  "constant term 0 has no Taylor series")
        ln_a = _log(a, math.log(base))
        return _exp([_cauchy(b, ln_a, i) for i in range(n)], c0)
    if base == 0.0:  # a = O(var - at), so a^k = O((var - at)^k)
        c = a if k < n else [0.0] * n
        for _ in range(k - 1 if k < n else 0):
            c = [_cauchy(c, a, i) for i in range(n)]
        return [c0] + c[1:]
    # Miller: a c' = k a' c
    c = [c0]
    for m in range(1, n):
        s = (k + 1 - m) * a[1] * c[m - 1]
        for j in range(2, m + 1):
            s += ((k + 1) * j - m) * a[j] * c[m - j]
        c.append(s / (m * base))
    return c


def _sqrt(z, c0):
    """Series of sqrt(z) with c_0 = c0 != 0: c*c = z."""
    c = [c0]
    for k in range(1, len(z)):
        s = z[k]
        for j in range(1, k):
            s -= c[j] * c[k - j]
        c.append(s / (2.0 * c0))
    return c


# fn -> (its companion, the signs in fn' = s1*companion, companion' = s2*fn)
_PAIRS = {"sin": ("cos", 1.0, -1.0), "cos": ("sin", -1.0, 1.0),
          "sinh": ("cosh", 1.0, 1.0), "cosh": ("sinh", 1.0, 1.0)}

# fn -> (a, b) in fn' = a + b*fn^2
_SQUARE_RULES = {"tan": (1.0, 1.0), "cot": (-1.0, -1.0), "tanh": (1.0, -1.0)}


def _jet_call(fn, z):
    """Series of fn(z), c_0 as evaluate computes it."""
    z0, n = z[0], len(z)
    try:
        c0 = FUNCTIONS[fn](z0)
        if fn in _PAIRS and n > 1:
            other, s1, s2 = _PAIRS[fn]
            g = [FUNCTIONS[other](z0)]
    except OverflowError:
        raise EvalDomainError("overflow in %s" % fn) from None
    except ValueError:
        raise EvalDomainError("domain error in %s(%r)" % (fn, z0)) from None
    if n == 1:
        return [c0]
    if fn in ("abs", "sqrt") and z0 == 0.0:
        raise EvalDomainError("%s of an argument with constant term 0 has "
                              "no Taylor series" % fn)
    if fn == "abs":
        return [c0] + [a if z0 > 0.0 else -a for a in z[1:]]
    if fn == "sqrt":
        return _sqrt(z, c0)
    if fn == "exp":
        return _exp(z, c0)
    if fn == "ln":
        return _log(z, c0)
    if fn == "asinh":  # asinh' = 1/sqrt(1 + z^2)
        q = [1.0 + z0 * z0] + [_cauchy(z, z, k) for k in range(1, n)]
        w = _quotient([1.0] + [0.0] * (n - 1), _sqrt(q, math.sqrt(q[0])))
        return _integral(z, c0, lambda c, i: w[i])
    if fn in _SQUARE_RULES:
        a, b = _SQUARE_RULES[fn]
        return _integral(z, c0, lambda c, i: b * _cauchy(c, c, i)
                         + (a if i == 0 else 0.0))
    f = [c0]
    for k in range(1, n):
        df, dg = z[1] * g[k - 1], z[1] * f[k - 1]
        for j in range(2, k + 1):
            df += j * z[j] * g[k - j]
            dg += j * z[j] * f[k - j]
        f.append(s1 * df / k)
        g.append(s2 * dg / k)
    return f


# --- printing -----------------------------------------------------------------

# binary node type -> its precedence in print; any other node prints bare
# wherever an atom (5) does, a Neg too: -x^2 parses as (-x)^2
_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Pow: 4}

# binary node type -> (its operator in print, and the least precedence of a
# left and of a right operand printed bare)
_INFIX = {Add: (" + ", 1, 2), Sub: (" - ", 1, 2), Mul: ("*", 2, 3),
          Div: ("/", 2, 3), Pow: ("^", 5, 3)}

# the operators of the binary nodes in generated code, where a Pow has its
# own rule (_power)
_OPERATORS = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


def to_str(e):
    """Canonical text form; parse(to_str(e)) evaluates identically to e."""
    t = type(e)
    infix = _INFIX.get(t)
    if infix is not None:
        op, bare_left, bare_right = infix
        left, right = to_str(e.left), to_str(e.right)
        if _PREC.get(type(e.left), 5) < bare_left:
            left = "(" + left + ")"
        if _PREC.get(type(e.right), 5) < bare_right:
            right = "(" + right + ")"
        return left + op + right
    if t is Num:
        v = e.value
        if v.is_integer() and abs(v) < 1e15:
            return str(int(v))
        return repr(v)
    if t is Var or t is Param:
        return e.name
    if t is Call:
        return e.fn + "(" + to_str(e.arg) + ")"
    if t is Neg:
        if type(e.arg) in _PREC:
            return "-(" + to_str(e.arg) + ")"
        return "-" + to_str(e.arg)
    raise TypeError(_no_rule(e, "text form"))


# --- the expression boundary ---------------------------------------------------

def _walk(e):
    """The nodes of e in pre-order, left child first."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        t = type(e)
        if t in _PREC:  # a binary node
            stack += (e.right, e.left)
        elif t is Neg or t is Call:
            stack.append(e.arg)
        elif t is Solve:
            stack += reversed(e.args)


def depends_on(e, name):
    """True if e references the variable `name`."""
    return any(type(n) is Var and n.name == name for n in _walk(e))


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
        elif isinstance(e, _Binary):
            r = type(e)(_substitute(e.left, values, done),
                        _substitute(e.right, values, done))
        else:  # a Solve: its args are its only children
            r = Solve(e.pair, e.names,
                      (_substitute(a, values, done) for a in e.args),
                      e.solve, e.law)
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
        t = type(n)
        if t is Param:
            raise UnboundNameError(n.name)
        if t is Var and n.name not in allowed:
            raise UnboundNameError(n.name, allowed)
    return e


# --- compilation ----------------------------------------------------------------

class _Unreachable(Exception):
    """Raised while generating code past a name that is never bound."""



class _Codegen:
    """Python source for one Expr: a function of `names` that does
    evaluate's operations in evaluate's order, each distinct subexpression
    once.  A subexpression met again, as the same node or as an equal
    structure, reuses the local that holds its value.

    The source defines make(<constants>), which returns that function,
    body: every float and every unbound name is an argument of make, which
    body reads as a closure cell, so trees of one shape have one source.
    Only generated names, the argument names, int exponents, the names in
    _SCOPE and the fixed literals of the Newton loop (newton) go into it.
    Constants are told apart by their bits: 0.0 and -0.0, or NaNs of
    opposite sign, are two arguments, and equal ones share one, as equal
    structures share a local.  A Solve's solve and law are arguments too."""

    def __init__(self, names):
        self.names = names
        self.constants = {}  # bits of a float, or a name -> argument
        self.values = []  # make's arguments, in order
        self.lines = []
        self.by_id = {}   # id(node) -> text of its value in the code
        self.by_key = {}  # structure -> local holding its value
        self.nonzero = set()  # divisors already tested against 0

    def source(self, e):
        """The source for e, an Expr, or a tuple of them whose values body
        returns as a tuple, computed in order."""
        try:
            if isinstance(e, tuple):
                self.emit("return (%s,)" % ", ".join(map(self.operand, e)))
            else:
                self.emit("return %s" % self.operand(e))
        except _Unreachable:
            pass
        return "def make(%s):\n    def body(%s):\n%s\n    return body\n" % (
            ", ".join(self.constants.values()), ", ".join(self.names),
            "\n".join("        " + line for line in self.lines))

    def emit(self, *lines):
        self.lines.extend(lines)

    def constant(self, value):
        """The argument of make through which value reaches the code."""
        key = struct.pack("d", value) if isinstance(value, float) else value
        name = self.constants.get(key)
        if name is None:
            name = self.constants[key] = "_k%d" % len(self.values)
            self.values.append(value)
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
            text = self.constant(e.value)
        elif isinstance(e, Var) and e.name in self.names:
            text = self.local(("float", e.name), _assignment,
                              "float(%s)" % e.name)
        elif isinstance(e, (Var, Param)):
            self.emit("raise UnboundNameError(%s)" % self.constant(e.name))
            raise _Unreachable
        elif isinstance(e, Neg):
            a = self.operand(e.arg)
            text = self.local(("-", a), _assignment, "-" + a)
        elif isinstance(e, Pow):
            base = self.operand(e.left)
            k = _syntactic_int_exponent(e.right)
            p = k if k is not None else self.operand(e.right)
            text = self.local(("**", base, p), _power, base, p,
                              k is not None)
        elif isinstance(e, Call):
            z = self.operand(e.arg)
            text = self.local((e.fn, z), _guarded, "%s(%s)" % (e.fn, z),
                              e.fn, z)
        elif isinstance(e, _Binary):
            op = _OPERATORS[type(e)]
            if op == "/":  # the divisor first, as evaluate does
                b = self.operand(e.right)
                if b not in self.nonzero:
                    self.nonzero.add(b)
                    self.emit("if %s == 0.0:" % b,
                              '    raise EvalDomainError("division by zero")')
                a = self.operand(e.left)
            else:
                a, b = self.operand(e.left), self.operand(e.right)
            text = self.local((op, a, b), _assignment,
                              "%s %s %s" % (a, op, b))
        elif isinstance(e, Solve):
            args = tuple(map(self.operand, e.args))
            text = self.local((e.solve, e.law) + args, self.newton, e, args)
        else:
            raise TypeError("not an Expr node: %r" % (e,))
        self.by_id[id(e)] = text
        return text

    def newton(self, x, e, args):
        """Lines of x = the root that e, a Solve, finds from the texts args
        of its guess, tol and params: solve_scalar's Newton loop, its
        operations in its order, with the law's residual and slope computed
        at each step as the law computes them, and e.solve called where
        Newton stalls.  The loop's locals are its own; after it only x is
        read, and their names may be used again."""
        guess, tol, *params = args
        stall = "%s = %s(%s)" % (x, self.constant(e.solve), ", ".join(
            (self.constant(e.law),) + args))
        self.emit("%s = float(%s)" % (x, guess), "for _ in range(60):")
        start, outer = len(self.lines), (
            self.names, self.by_id, self.by_key, self.nonzero)
        self.names, self.by_id = e.names, {}
        self.by_key, self.nonzero = dict(self.by_key), set(self.nonzero)
        # the law's variables read the unknown and the params
        self.by_key.update(zip([("float", name) for name in e.names],
                               [x] + params))
        try:
            h, d = map(self.operand, e.pair)
            step = "_%d" % len(self.by_key)
        finally:
            # on _Unreachable the body ends in the raise of the law's call
            self.lines[start:] = ["    " + line for line in self.lines[start:]]
            self.names, self.by_id, self.by_key, self.nonzero = outer
        return ["    if abs(%s) <= %s * (1.0 + abs(%s)):" % (h, tol, x),
                "        break",
                "    if %s == 0.0 or not isfinite(%s) or not isfinite("
                "%s := %s - %s / %s):" % (d, d, step, x, h, d),
                "        " + stall,
                "        break",
                "    %s = %s" % (x, step),
                "else:",
                "    " + stall]


def _assignment(name, value):
    return ["%s = %s" % (name, value)]


def _power(name, base, p, integral):
    """Lines of name = base ** p with evaluate's guards; an integral p is
    the int exponent evaluate reads from the tree, which it never
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


def function(e, names):
    """e as a positional function of the variables `names`, distinct names
    from VARIABLES: function(e, ("u",))(0.5) is evaluate(e, {"u": 0.5}),
    the same float or the same error.  e may be a tuple of trees: the
    function then returns the tuple of their values, evaluated in order,
    each subexpression they share once.  e is compiled when function is
    called, into one Python function (see _Codegen).  Trees that differ
    only in their constants share one code object, compiled once, and each
    function is bound to its own constants."""
    names = tuple(names)
    if len(set(names)) != len(names) or not set(names) <= set(VARIABLES):
        raise ValueError("not distinct variables: %r" % (names,))
    gen = _Codegen(names)
    return _make(gen.source(e))(*gen.values)


_SCOPE = dict(FUNCTIONS, EvalDomainError=EvalDomainError,
              UnboundNameError=UnboundNameError, isfinite=math.isfinite)


@functools.lru_cache(maxsize=256)
def _make(source):
    """The function make that source defines in _SCOPE: one per shape,
    while its shape is among the last 256 compiled."""
    made = {}
    exec(source, _SCOPE, made)
    return made["make"]
