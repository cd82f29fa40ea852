"""Closed-form expression ASTs with exact forward-mode differentiation.

Metric entries and densities are given as small closed-form expressions
("exp(2*x*y)", "3+cos(y)", ...).  This module parses them into an immutable
AST, evaluates them on scalars or numpy arrays, and differentiates them
exactly with dual numbers.  Second derivatives come from nesting duals
(dual-over-dual), so user-defined manifolds reach the same accuracy as the
built-in catalog.

Expressions are evaluated by one evaluator: a ``Program`` lowers one or
several expressions into a straight-line program over registers, a
hash-consed DAG in which a subexpression that they share is one register,
computed once per pass and dropped after its last use.  ``eval_expr``,
``eval_dual`` and ``eval_dual2`` run programs; given an expression they
compile it into a program of its own, given a Program they return one
result per output.  Each register applies the operation that the
expression node names (the Dual methods, the function table, ``_pow`` and
the division-by-zero check), so a value does not depend on which
expressions share the program, and a pass raises the error that the first
failing expression would raise alone.

``eval_dual`` with a tuple of k names is vector forward mode: each name is
seeded with a one-hot tangent row, so one pass yields the value and the
(k, ...) stack of partials in all k names; the Dual arithmetic broadcasts
the rows, each row computed apart from the others.  A Dual computes its
value exactly as plain evaluation does (``tan`` by ``np.tan``, powers by
``**``), so the value of a jet equals ``eval_expr`` and each partial row
equals the single-name pass bit for bit.

Grammar (see docs/grammar.md for the EBNF):

    expr   = term  { ("+"|"-") term }
    term   = factor { ("*"|"/") factor }
    factor = "-" factor | power
    power  = atom [ "^" factor ]          # right-associative, binds above unary minus
    atom   = NUMBER | "pi" | "e" | IDENT | FUNC "(" expr ")" | "(" expr ")"

so "-x^2" is -(x^2) and "2*x^2" is 2*(x^2).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ExprSyntaxError, UnboundVariable, UnknownIdentifier

__all__ = [
    "Expr", "Num", "Const", "Var", "Neg", "BinOp", "Call",
    "Program", "parse", "to_source", "eval_expr", "eval_dual", "eval_dual2",
    "substitute", "variables", "Dual",
]

_FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "cosh", "sinh")
_CONSTANTS = {"pi": math.pi, "e": math.e}


# ---------------------------------------------------------------------------
# AST node types
# ---------------------------------------------------------------------------

class Expr:
    """Marker base class; nodes are frozen dataclasses compared structurally."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Const(Expr):
    name: str  # "pi" or "e"


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


# ---------------------------------------------------------------------------
# Parsing (recursive descent)
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, src):
        self.src = src
        self.pos = 0

    def error(self, expected):
        raise ExprSyntaxError(self.pos, expected)

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def take(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def parse(self):
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.src):
            self.error("end of input")
        return e

    def expr(self):
        e = self.term()
        while True:
            c = self.peek()
            if c == "+":
                self.pos += 1
                e = BinOp("+", e, self.term())
            elif c == "-":
                self.pos += 1
                e = BinOp("-", e, self.term())
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            c = self.peek()
            if c == "*":
                self.pos += 1
                e = BinOp("*", e, self.factor())
            elif c == "/":
                self.pos += 1
                e = BinOp("/", e, self.factor())
            else:
                return e

    def factor(self):
        if self.take("-"):
            return Neg(self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            return BinOp("^", base, self.factor())
        return base

    def atom(self):
        c = self.peek()
        if c == "(":
            self.pos += 1
            e = self.expr()
            if not self.take(")"):
                self.error("')'")
            return e
        if c.isdigit() or c == ".":
            return self.number()
        if c.isalpha() or c == "_":
            return self.identifier()
        self.error("a number, name or '('")

    def number(self):
        start = self.pos
        src = self.src
        while self.pos < len(src) and (src[self.pos].isdigit() or src[self.pos] == "."):
            self.pos += 1
        if self.pos < len(src) and src[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(src) and src[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(src) and src[self.pos].isdigit():
                while self.pos < len(src) and src[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # "2e" was "2" followed by the constant e? no: reject
        text = src[start:self.pos]
        try:
            return Num(float(text))
        except ValueError:
            self.pos = start
            self.error("a number")

    def identifier(self):
        start = self.pos
        src = self.src
        while self.pos < len(src) and (src[self.pos].isalnum() or src[self.pos] == "_"):
            self.pos += 1
        name = src[start:self.pos]
        if self.peek() == "(":
            if name not in _FUNCTIONS:
                raise UnknownIdentifier(name, offset=start)
            self.pos += 1
            arg = self.expr()
            if not self.take(")"):
                self.error("')'")
            return Call(name, arg)
        if name in _CONSTANTS:
            return Const(name)
        return Var(name)


def parse(src: str) -> Expr:
    """Parse expression source into an AST.

    Raises ExprSyntaxError (with byte offset) on malformed input and
    UnknownIdentifier when an unrecognized function is applied.
    """
    return _Parser(src).parse()


# ---------------------------------------------------------------------------
# Canonical printing
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _print(e, parent_prec):
    if isinstance(e, Num):
        s = repr(e.value)
        return f"({s})" if e.value < 0 and parent_prec > _PREC["+"] else s
    if isinstance(e, Const):
        return e.name
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({_print(e.arg, 0)})"
    if isinstance(e, Neg):
        s = "-" + _print(e.arg, _PREC["neg"])
        return f"({s})" if parent_prec > _PREC["neg"] else s
    if isinstance(e, BinOp):
        p = _PREC[e.op]
        if e.op == "^":
            # right-assoc: base needs atom precedence, exponent binds like a factor
            s = _print(e.left, _PREC["atom"]) + "^" + _print(e.right, _PREC["neg"])
        else:
            # left-assoc: right operand of - and / must bind tighter
            s = _print(e.left, p) + e.op + _print(e.right, p + 1)
        return f"({s})" if parent_prec > p else s
    raise TypeError(f"not an Expr: {e!r}")


def to_source(e: Expr) -> str:
    """Canonical printer; parse(to_source(e)) reproduces e."""
    return _print(e, 0)


# ---------------------------------------------------------------------------
# Dual numbers (value + tangent, or a stack of tangent rows); nestable for
# second derivatives
# ---------------------------------------------------------------------------

def _sin(x):
    return x.sin() if isinstance(x, Dual) else np.sin(x)


def _cos(x):
    return x.cos() if isinstance(x, Dual) else np.cos(x)


def _exp(x):
    return x.exp() if isinstance(x, Dual) else np.exp(x)


def _log(x):
    if isinstance(x, Dual):
        return x.log()
    if np.any(np.asarray(x) <= 0):
        raise DomainError("log of a nonpositive value")
    return np.log(x)


def _tan(x):
    return x.tan() if isinstance(x, Dual) else np.tan(x)


def _ipow(x, k):
    return x.ipow(k) if isinstance(x, Dual) else x ** k


def _sqrt(x):
    if isinstance(x, Dual):
        return x.sqrt()
    if np.any(np.asarray(x) < 0):
        raise DomainError("sqrt of a negative value")
    return np.sqrt(x)


class Dual:
    """a + b*eps with eps^2 = 0; components may be floats, arrays or Duals.

    __array_ufunc__ is disabled so numpy arrays defer to the reflected
    operators instead of broadcasting over the Dual as an object scalar.
    """

    __slots__ = ("val", "eps")
    __array_ufunc__ = None
    __array_priority__ = 1000

    def __init__(self, val, eps):
        self.val = val
        self.eps = eps

    def __add__(self, o):
        if isinstance(o, Dual):
            return Dual(self.val + o.val, self.eps + o.eps)
        return Dual(self.val + o, self.eps)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, Dual):
            return Dual(self.val - o.val, self.eps - o.eps)
        return Dual(self.val - o, self.eps)

    def __rsub__(self, o):
        return Dual(o - self.val, -self.eps)

    def __neg__(self):
        return Dual(-self.val, -self.eps)

    def __mul__(self, o):
        if isinstance(o, Dual):
            return Dual(self.val * o.val, self.val * o.eps + self.eps * o.val)
        return Dual(self.val * o, self.eps * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Dual):
            q = self.val / o.val
            return Dual(q, (self.eps - q * o.eps) / o.val)
        return Dual(self.val / o, self.eps / o)

    def __rtruediv__(self, o):
        q = o / self.val
        return Dual(q, -q * self.eps / self.val)

    def sin(self):
        return Dual(_sin(self.val), _cos(self.val) * self.eps)

    def cos(self):
        return Dual(_cos(self.val), -(_sin(self.val) * self.eps))

    def tan(self):
        c = _cos(self.val)
        return Dual(_tan(self.val), self.eps / (c * c))

    def exp(self):
        v = _exp(self.val)
        return Dual(v, v * self.eps)

    def log(self):
        return Dual(_log(self.val), self.eps / self.val)

    def sqrt(self):
        v = _sqrt(self.val)
        return Dual(v, self.eps / (2.0 * v))

    def cosh(self):
        if isinstance(self.val, Dual):
            return (self.exp() + (-self).exp()) * 0.5
        return Dual(np.cosh(self.val), np.sinh(self.val) * self.eps)

    def sinh(self):
        if isinstance(self.val, Dual):
            return (self.exp() - (-self).exp()) * 0.5
        return Dual(np.sinh(self.val), np.cosh(self.val) * self.eps)

    def ipow(self, k):
        """Integer power, k an int or an array of integral floats (valid for
        any nonzero base, and for zero where k >= 0); the value is
        ``base ** k`` as in plain evaluation."""
        if isinstance(k, np.ndarray):
            # where k == 0 the derivative is 0 * base^0, never 0 * base^-1
            return Dual(_ipow(self.val, k),
                        k * _ipow(self.val, np.where(k == 0, 0, k - 1)) * self.eps)
        if k == 0:
            return Dual(_ipow(self.val, 0), self.eps * 0.0)
        return Dual(_ipow(self.val, k), k * _ipow(self.val, k - 1) * self.eps)


def _primitive_value(x):
    while isinstance(x, Dual):
        x = x.val
    return x


def _exp_valued(x, value):
    """exp of ``x`` whose innermost value is the given ``value``."""
    if not isinstance(x, Dual):
        return value
    v = _exp_valued(x.val, value)
    return Dual(v, v * x.eps)


def _is_flat(x):
    """x is not a Dual, or every derivative it carries is exactly 0."""
    return not isinstance(x, Dual) or (_is_flat(x.val) and _is_flat(x.eps)
                                       and not np.any(_primitive_value(x.eps)))


def _integral_power(expo):
    """The exponent as an int, or as an array of integral floats, if it is
    integral at every point and every derivative it carries is exactly 0;
    else None."""
    if not _is_flat(expo):
        return None
    e = _primitive_value(expo)
    if isinstance(e, np.ndarray) and e.ndim:
        return e if (np.trunc(e) == e).all() else None
    return int(e) if float(e).is_integer() else None


def _pow(base, expo):
    """base ^ expo with the real-domain rules: any base for an integral
    power (``_integral_power``, the same for a scalar or an array
    exponent), positive base otherwise."""
    expo_primitive = _primitive_value(expo)
    base_primitive = _primitive_value(base)
    k = _integral_power(expo)
    if k is not None:
        negative = k < 0  # a bool, or a bool array for an array exponent
        if negative is not False and np.any(negative & (np.asarray(base_primitive) == 0)):
            raise DomainError("zero raised to a negative power")
        return _ipow(base, k)
    if np.any(np.asarray(base_primitive) <= 0):
        raise DomainError("fractional power of a nonpositive base")
    value = base_primitive ** expo_primitive
    if isinstance(base, Dual) or isinstance(expo, Dual):
        # d(b^e) = b^e d(e log b), with b^e itself computed as above
        lb = base.log() if isinstance(base, Dual) else np.log(base)
        return _exp_valued(expo * lb if isinstance(expo, Dual) else lb * expo, value)
    return value


def _cosh(x):
    return x.cosh() if isinstance(x, Dual) else np.cosh(x)


def _sinh(x):
    return x.sinh() if isinstance(x, Dual) else np.sinh(x)


# module-level functions, so that a compiled Program pickles
_CALL_TABLE = {
    "sin": _sin, "cos": _cos, "exp": _exp, "log": _log, "sqrt": _sqrt,
    "tan": _tan, "cosh": _cosh, "sinh": _sinh,
}


def _div(a, b):
    if np.any(np.asarray(_primitive_value(b)) == 0):
        raise DomainError("division by zero")
    return a / b


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div, "^": _pow}


# ---------------------------------------------------------------------------
# Programs: expressions lowered to one straight-line pass over registers
# ---------------------------------------------------------------------------

class Program:
    """Expressions lowered to one straight-line program over registers.

    The program is a hash-consed DAG: every distinct subtree of the
    expressions is one register, so a subexpression they share is computed
    once.  Registers are numbered in first-use order, the order of a
    left-to-right post-order walk of the expressions in turn, which is the
    order in which each expression alone evaluates its nodes; a pass
    therefore raises the error that the first failing expression raises
    alone.  Two subtrees are the same node only if they are equal to the
    bit: a literal 0.0 and -0.0 stay apart.

    ``outputs`` holds the register of each expression.  The instructions
    come as ``(dest, fn, a, b, dead)``: ``fn`` applied to registers a (and
    b), or, with ``fn`` None, the variable named ``a`` read from the
    environment; ``dead`` lists the registers whose last use this is, which
    the pass drops at once.  Constants are preloaded.
    """

    __slots__ = ("registers", "code", "outputs")

    def __init__(self, exprs):
        keys = {}
        registers = []
        code = []

        def lower(e):
            """The register of ``e``, its operands lowered first."""
            value = op = None
            if isinstance(e, Num):
                key, value = (Num, repr(e.value)), e.value
            elif isinstance(e, Const):
                key, value = (Const, e.name), _CONSTANTS[e.name]
            elif isinstance(e, Var):
                key, op = (Var, e.name), (None, e.name, None)
            elif isinstance(e, Neg):
                a = lower(e.arg)
                key, op = (Neg, a), (operator.neg, a, None)
            elif isinstance(e, Call):
                a = lower(e.arg)
                key, op = (Call, e.fn, a), (_CALL_TABLE[e.fn], a, None)
            elif isinstance(e, BinOp):
                a, b = lower(e.left), lower(e.right)
                key, op = (BinOp, e.op, a, b), (_BINARY[e.op], a, b)
            else:
                raise TypeError(f"not an Expr: {e!r}")
            if key not in keys:
                keys[key] = len(registers)
                registers.append(value)
                if op is not None:
                    code.append((keys[key],) + op)
            return keys[key]

        self.outputs = tuple(lower(e) for e in exprs)
        self.registers = tuple(registers)
        last = {}
        for k, (_, fn, a, b) in enumerate(code):
            if fn is not None:
                last[a] = last[b] = k
        kept = set(self.outputs)
        self.code = tuple(
            (dest, fn, a, b, () if fn is None else
             tuple(r for r in {a, b} - kept if r is not None and last[r] == k))
            for k, (dest, fn, a, b) in enumerate(code))


def _program(e):
    return e if isinstance(e, Program) else Program((e,))


def _run(program, env):
    """The outputs of ``program`` with its variables bound by ``env``."""
    regs = list(program.registers)
    for dest, fn, a, b, dead in program.code:
        if fn is None:
            try:
                regs[dest] = env[a]
            except KeyError:
                raise UnboundVariable(a) from None
        elif b is None:
            regs[dest] = fn(regs[a])
        else:
            regs[dest] = fn(regs[a], regs[b])
        for r in dead:
            regs[r] = None
    return [regs[r] for r in program.outputs]


def eval_expr(e, env: dict):
    """Evaluate with variables bound to scalars or numpy arrays.

    ``e`` is an expression, or a Program, for the list of its outputs'
    values from one pass."""
    out = _run(_program(e), env)
    return out if isinstance(e, Program) else out[0]


def eval_dual(e, env: dict, wrt):
    """Return (value, partials) by forward-mode dual evaluation.

    ``wrt`` is a variable name, giving d/d<wrt>, or a tuple of k names,
    giving the (k, ...) stack of partials, row r in wrt[r], from the same
    single pass.  ``e`` is an expression, or a Program, for the list of
    (value, partials) of its outputs from one pass.
    """
    denv = dict(env)
    if isinstance(wrt, str):
        if wrt in env:
            v = env[wrt]
            denv[wrt] = Dual(v, np.ones_like(v) if np.ndim(v) else 1.0)

        def zero(out):
            return np.zeros_like(env[wrt]) if np.ndim(env.get(wrt, 0.0)) else 0.0
    else:
        for r, name in enumerate(wrt):
            if name in env:
                tangent = np.zeros((len(wrt),) + np.shape(env[name]))
                tangent[r] = 1.0
                denv[name] = Dual(env[name], tangent)

        def zero(out):
            return np.zeros((len(wrt),) + np.shape(out))
    outs = [(out.val, out.eps) if isinstance(out, Dual) else (out, zero(out))
            for out in _run(_program(e), denv)]
    return outs if isinstance(e, Program) else outs[0]


def eval_dual2(e, env: dict, wrt1: str, wrt2: str):
    """Return (value, d1, d2, d1 d2) via nested duals.

    wrt1 == wrt2 gives the plain second derivative in that coordinate.
    ``e`` is an expression, or a Program, for the list of its outputs'
    tuples from one pass.
    """
    def seed(name, v):
        one = np.ones_like(v) if np.ndim(v) else 1.0
        zero = np.zeros_like(v) if np.ndim(v) else 0.0
        inner = Dual(v, one if name == wrt1 else zero)
        outer_eps = Dual(one if name == wrt2 else zero, zero)
        return Dual(inner, outer_eps)

    def split(out):
        if not isinstance(out, Dual):
            return out, 0.0, 0.0, 0.0
        inner, outer = out.val, out.eps
        return (inner.val if isinstance(inner, Dual) else inner,
                inner.eps if isinstance(inner, Dual) else 0.0,
                outer.val if isinstance(outer, Dual) else outer,
                outer.eps if isinstance(outer, Dual) else 0.0)

    outs = [split(out) for out in _run(_program(e), {k: seed(k, v) for k, v in env.items()})]
    return outs if isinstance(e, Program) else outs[0]


def substitute(e: Expr, bindings: dict) -> Expr:
    """Replace variables by numeric constants (used for coordinate slices)."""
    if isinstance(e, Var) and e.name in bindings:
        return Num(float(bindings[e.name]))
    if isinstance(e, Neg):
        return Neg(substitute(e.arg, bindings))
    if isinstance(e, BinOp):
        return BinOp(e.op, substitute(e.left, bindings), substitute(e.right, bindings))
    if isinstance(e, Call):
        return Call(e.fn, substitute(e.arg, bindings))
    return e


def variables(e: Expr) -> set:
    """Free variable names of the expression."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Neg):
        return variables(e.arg)
    if isinstance(e, Call):
        return variables(e.arg)
    if isinstance(e, BinOp):
        return variables(e.left) | variables(e.right)
    return set()
