"""Closed-form expression ASTs with exact forward-mode differentiation.

Metric entries and densities are given as small closed-form expressions
("exp(2*x*y)", "3+cos(y)", ...).  This module parses them into an immutable
AST, evaluates them on scalars or numpy arrays, and differentiates them
exactly in forward mode, to second order, so user-defined manifolds reach
the same accuracy as the built-in catalog.

Expressions are evaluated by one evaluator: a ``Program`` lowers one or
several expressions into a straight-line program over registers, a
hash-consed DAG in which a subexpression that they share is computed
once per pass.  ``eval_expr``, ``eval_dual`` and ``eval_dual2`` run
programs; given an expression they compile it into a program of its own,
given a Program one result per output (``eval_dual`` one flat list of
rows).  A jet pass runs value and tangent instructions of one flat
program: a tangent register holds the partial of a register in one
seeded name that its subtree contains, and applies the forward-mode rule
of the operation to that row in a fixed order, so a value does not
depend on which expressions share the program, a row does not depend on
which other names are seeded, and a pass raises the error that the first
failing expression would raise alone.  Values are computed as plain
evaluation computes them (``tan`` by ``np.tan``, powers by ``**``), so
the value of a jet equals ``eval_expr``, and its first-order rows equal
the single-name pass bit for bit.

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
    "variables",
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
# Run-time operations on values, with the real-domain checks
# ---------------------------------------------------------------------------

def _log(x):
    if np.any(np.asarray(x) <= 0):
        raise DomainError("log of a nonpositive value")
    return np.log(x)


def _sqrt(x):
    if np.any(np.asarray(x) < 0):
        raise DomainError("sqrt of a negative value")
    return np.sqrt(x)


def _div(a, b):
    if np.any(np.asarray(b) == 0):
        raise DomainError("division by zero")
    return a / b


def _integral(e):
    """The exponent as an int or an integral array if integral everywhere."""
    if isinstance(e, np.ndarray) and e.ndim:
        return e if (np.trunc(e) == e).all() else None
    return int(e) if float(e).is_integer() else None


def _ipow(base, k):
    if np.any(np.less(k, 0) & (np.asarray(base) == 0)):
        raise DomainError("zero raised to a negative power")
    return base ** k


def _fpow(base, expo):
    if np.any(np.asarray(base) <= 0):
        raise DomainError("fractional power of a nonpositive base")
    return base ** expo


def _pow(base, expo):
    """Any base for an exponent integral at every point, else a positive one."""
    k = _integral(expo)
    return _fpow(base, expo) if k is None else _ipow(base, k)


def _pred(k):  # k - 1, or 0 where k is 0
    return np.where(k == 0, 0, k - 1) if isinstance(k, np.ndarray) else k - 1 if k else 0


# module-level functions, so that a compiled Program pickles
_CALL_TABLE = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": _log, "sqrt": _sqrt,
               "tan": np.tan, "cosh": np.cosh, "sinh": np.sinh}


# ---------------------------------------------------------------------------
# Programs: expressions and their tangents lowered to one straight-line pass
# ---------------------------------------------------------------------------
# While a program is lowered, a jet is a register, or a (value, rows) pair
# of jets, its rows keyed by the names in which it is not constant; a
# second-order jet's value and rows are jets in wrt1.

def _parts(x):
    return x if type(x) is tuple else (x, {})


def _regs(x):
    """The registers of a jet, its innermost value first."""
    if type(x) is not tuple:
        return [x]
    return _regs(x[0]) + [r for e in x[1].values() for r in _regs(e)]


def _pairs(x, y):
    """(register of x, the one in its place in y or None) per register of x."""
    if type(x) is not tuple:
        return [(x, y if type(y) is not tuple else _regs(y)[0])]
    yv, ye = _parts(y)
    return _pairs(x[0], yv) + [p for c, e in x[1].items() for p in _pairs(e, ye.get(c))]


class _Branch:
    """A power whose exponent is not a literal: the integral code (register
    ``k`` holding the exponent) if the exponent's rows are all 0 and its
    value is integral at every point, else the fractional code."""

    __slots__ = ("expo", "rows", "k", "integral", "fractional", "reads")

    def __call__(self, regs, env):
        k = regs[self.k] = (None if any(np.any(regs[r]) for r in self.rows)
                            else _integral(regs[self.expo]))
        _exec(self.fractional if k is None else self.integral, regs, env)


class _Lowering:
    """One program under construction.  Jet arithmetic applies, row by row,
    each operation's forward-mode rule in a fixed order (a db + da b,
    (da - q db)/b, ...), without the terms whose rows are structurally 0.
    Instructions are hash-consed: sin(x) is also the derivative of cos(x).
    Register 0 is the unit seed, folded away since x * 1.0 is x."""

    def __init__(self):
        self.registers, self.code, self.keys = [1.0], [], {}

    def reg(self, value=None):
        self.registers.append(value)
        return len(self.registers) - 1

    def const(self, value):
        key = (type(value), repr(value))
        if key not in self.keys:
            self.keys[key] = self.reg(value)
        return self.keys[key]

    def op(self, fn, a, b=None):
        if fn is operator.mul and (a == 0 or b == 0):
            return b if a == 0 else a
        key = (fn, a, b)
        if key not in self.keys:
            self.keys[key] = self.reg()
            self.code.append((self.keys[key], fn, a, b))
        return self.keys[key]

    def add(self, a, b, fn=operator.add):
        if a is None or b is None:
            return a if b is None else b if fn is operator.add else self.neg(b)
        if type(a) is int and type(b) is int:
            return self.op(fn, a, b)
        (av, ae), (bv, be) = _parts(a), _parts(b)
        return self.add(av, bv, fn), {c: self.add(ae.get(c), be.get(c), fn) for c in {**ae, **be}}

    def neg(self, a):
        if type(a) is int:
            return self.op(operator.neg, a)
        return self.neg(a[0]), {c: self.neg(e) for c, e in a[1].items()}

    def mul(self, a, b):
        if a is None or b is None:
            return None
        if type(a) is int and type(b) is int:
            return self.op(operator.mul, a, b)
        (av, ae), (bv, be) = _parts(a), _parts(b)
        return self.mul(av, bv), {c: self.add(self.mul(av, be.get(c)), self.mul(ae.get(c), bv))
                                  for c in {**ae, **be}}

    def div(self, a, b, fn=operator.truediv):
        """a / b, ``fn`` dividing the innermost values (``_div`` checks the
        divisor); a row of b alone gives (-q db) / b."""
        if type(a) is int and type(b) is int:
            return self.op(fn, a, b)
        (av, ae), (bv, be) = _parts(a), _parts(b)
        q = self.div(av, bv, fn)
        top = {c: self.add(e, self.mul(q, be.get(c)), operator.sub) for c, e in ae.items()}
        top.update({c: self.mul(self.neg(q), e) for c, e in be.items() if c not in ae})
        return q, {c: self.div(e, bv) for c, e in top.items()}

    def call(self, fn, a):
        if type(a) is int:
            return self.op(_CALL_TABLE[fn], a)
        v, value = a[0], self.call(fn, a[0])
        if not a[1]:
            return value, {}
        if fn in ("tan", "log", "sqrt"):
            over = (self.mul(self.call("cos", v), self.call("cos", v)) if fn == "tan" else
                    v if fn == "log" else self.mul(self.const(2.0), value))
            return value, {c: self.div(e, over) for c, e in a[1].items()}
        f = value if fn == "exp" else self.call(
            {"sin": "cos", "cos": "sin", "cosh": "sinh", "sinh": "cosh"}[fn], v)
        rows = {c: self.mul(f, e) for c, e in a[1].items()}
        return value, {c: self.neg(e) for c, e in rows.items()} if fn == "cos" else rows

    def ipow(self, a, k, fn=operator.pow):
        """a ** k for the register k of an integral exponent: the value by
        ``fn`` (``_ipow`` checks it), the rows (k a^pred(k)) da."""
        known = self.registers[k]
        if type(a) is int:
            return a if fn is operator.pow and known == 1 else self.op(fn, a, k)
        value = self.ipow(a[0], k, fn)
        if not a[1]:
            return value, {}
        # a known k multiplies as a float, as numpy would convert it
        f = self.mul(k if known is None else self.const(float(known)),
                     self.ipow(a[0], self.op(_pred, k) if known is None
                               else self.const(_pred(known))))
        return value, {c: self.mul(f, e) for c, e in a[1].items()}

    def fpow(self, a, b):
        """a ** b for a positive base: d(a^b) = a^b d(b log a)."""
        value = self.op(_fpow, _regs(a)[0], _regs(b)[0])
        if type(a) is int and type(b) is int:
            return value

        def valued(x):  # the jet x with a^b for its value
            if type(x) is not tuple:
                return value
            v = valued(x[0])
            return v, {c: self.mul(v, e) for c, e in x[1].items()}
        return valued(self.mul(b, self.call("log", a)))

    def pow(self, a, b):
        """a ^ b for an exponent that is not a literal, by the rule of
        ``_pow``."""
        if type(a) is int and type(b) is int:
            return self.op(_pow, a, b)
        key = (_Branch, tuple(_regs(a)), tuple(_regs(b)))
        if key in self.keys:  # the same power again
            return self.keys[key]
        branch = _Branch()
        branch.k = start = self.reg()
        integral, branch.integral = self.block(self.ipow, a, branch.k, _ipow)
        jet, branch.fractional = self.block(self.fpow, a, b)
        # the fractional jet has a register wherever the integral one has
        branch.integral += tuple((r, operator.pos, self.const(0.0) if s is None else s, None, ())
                                 for r, s in _pairs(jet, integral))
        branch.expo, *branch.rows = _regs(b)
        branch.reads = tuple({r for ins in branch.integral + branch.fractional
                              for r in _reads(ins) if r < start} | set(_regs(b)))
        self.code.append((None, None, branch, None))
        self.keys[key] = jet
        return jet

    def block(self, lower, *args):
        """``lower(*args)`` and its code, lowered apart: none of it is shared."""
        saved, self.code, self.keys = (self.code, self.keys), [], dict(self.keys)
        jet, code = lower(*args), tuple(ins + ((),) for ins in self.code)
        self.code, self.keys = saved
        return jet, code


def _literal(e):
    """The value of a number or a constant, maybe negated, else None."""
    if isinstance(e, Neg):
        v = _literal(e.arg)
        return None if v is None else -v
    return e.value if isinstance(e, Num) else _CONSTANTS[e.name] if isinstance(e, Const) else None


def _reads(ins):
    fn, a, b = ins[1:4]
    if fn is None:
        return a.reads if isinstance(a, _Branch) else ()
    return (a,) if b is None else (a, b)


def _compile(exprs, variant):
    """(registers, code, outputs) of ``exprs`` lowered in post-order.

    ``variant`` is (0,) for values, (1, *names) for the rows in the names,
    or (2, wrt1, wrt2) for second-order jets; an output is (value, row in
    each name) or (value, d1, d2, d12), None where structurally 0.  Value
    instructions come in the order in which each expression alone
    evaluates its nodes, so a pass raises the error that the first failing
    expression raises alone; a literal 0.0 and -0.0 stay apart."""
    order, *names = variant
    L = _Lowering()

    def lower(e):
        """e's jet, its operands lowered first; a repeated subtree adds no
        instruction, since its operations are the same registers' again."""
        cls = type(e)
        if cls is BinOp:
            a = lower(e.left)
            k = _literal(e.right) if e.op == "^" else None
            if k is not None and float(k).is_integer():  # resolved here
                return L.ipow(a, L.const(int(k)), _ipow if k < 0 else operator.pow)
            if k is not None:
                return L.fpow(a, L.const(k))
            b = lower(e.right)
            return (L.add(a, b, operator.add if e.op == "+" else operator.sub) if e.op in "+-"
                    else L.mul(a, b) if e.op == "*" else L.div(a, b, _div) if e.op == "/"
                    else L.pow(a, b))
        if cls is Num or cls is Const:
            return L.const(e.value if cls is Num else _CONSTANTS[e.name])
        if cls is Neg or cls is Call:
            return L.neg(lower(e.arg)) if cls is Neg else L.call(e.fn, lower(e.arg))
        if cls is not Var:
            raise TypeError(f"not an Expr: {e!r}")
        if (None, e.name) not in L.keys:
            L.keys[None, e.name] = r = L.reg()
            L.code.append((r, None, e.name, None))
        r = L.keys[None, e.name]
        if order < 2:
            return (r, {e.name: 0}) if e.name in names else r
        # a jet at the top is an outer one, even with no row in wrt2
        inner = (r, {e.name: 0}) if e.name == names[0] else r
        return inner, {e.name: 0} if e.name == names[1] else {}

    outputs = []
    for e in exprs:
        val, eps = _parts(lower(e))
        if order == 2:
            (val, eps1), (d2, eps12) = _parts(val), _parts(eps.get(names[1]))
            outputs.append((val, eps1.get(names[0]), d2, eps12.get(names[0])))
        else:
            outputs.append((val, *(eps.get(n) for n in names)))
    kept = {r for out in outputs for r in out}
    dead = [()] * len(L.code)  # the registers whose last use each instruction is
    for r, k in {r: k for k, ins in enumerate(L.code) for r in _reads(ins)}.items():
        dead[k] += (r,) * (r not in kept)
    return tuple(L.registers), tuple(ins + (d,) for ins, d in zip(L.code, dead)), outputs


def _exec(code, regs, env):
    for dest, fn, a, b, dead in code:
        if fn is None:
            if a.__class__ is not str:
                a(regs, env)
            elif a not in env:
                raise UnboundVariable(a)
            else:
                regs[dest] = env[a]
        elif b is None:
            regs[dest] = fn(regs[a])
        else:
            regs[dest] = fn(regs[a], regs[b])
        for r in dead:
            regs[r] = None


class Program:
    """Expressions lowered to straight-line programs over registers, one
    for each kind of pass, compiled on first use and kept (``_compile``).
    A jet pass has a tangent register for each register and each seeded
    name that its subtree contains, so no row is 0 by construction; each
    register is dropped after its last use."""

    __slots__ = ("exprs", "_compiled")

    def __init__(self, exprs):
        self.exprs = tuple(exprs)
        self._compiled = {}

    def _run(self, variant, env):
        """The registers after one pass over ``env``, each dropped after its
        last use unless it is an output's, and the variant's ``outputs``."""
        if variant not in self._compiled:
            self._compiled[variant] = _compile(self.exprs, variant)
        registers, code, outputs = self._compiled[variant]
        regs = list(registers)
        _exec(code, regs, env)
        return regs, outputs


def _program(e):
    return e if isinstance(e, Program) else Program((e,))


def _results(e, variant, env):
    """Each output's (value, row...) from one pass, a row ``_full``, or None."""
    regs, outputs = _program(e)._run(variant, env)
    return [(regs[v], *(None if r is None else _full(regs[r], getattr(regs[v], "shape", ()))
                        for r in rows)) for v, *rows in outputs]


def _full(x, shape):
    """``x``, or a copy broadcast to ``shape`` (a constant row is a scalar)."""
    if getattr(x, "shape", ()) == shape:
        return x
    full = np.empty(np.broadcast_shapes(x.shape, shape) if getattr(x, "shape", ()) else shape)
    full[...] = x
    return full


def eval_expr(e, env: dict):
    """Evaluate with variables bound to scalars or numpy arrays.

    ``e`` is an expression, or a Program, for the list of its outputs'
    values from one pass."""
    values = [val for val, in _results(e, (0,), env)]
    return values if isinstance(e, Program) else values[0]


def eval_dual(e, env: dict, wrt):
    """Return (value, partials) by forward-mode evaluation.

    ``wrt`` is a variable name, giving d/d<wrt>, or a tuple of k names,
    giving the (k, ...) stack of partials, row r in wrt[r].  Given a
    Program ``e``, it returns one flat list from one pass: each output's
    value, then its partials in the names of wrt that its expression
    contains, in wrt order, a constant as a scalar; the other partials are
    exactly 0 and not in the list.
    """
    names = (wrt,) if isinstance(wrt, str) else tuple(wrt)
    if isinstance(e, Program):
        regs, outputs = e._run((1, *names), env)
        return [regs[r] for out in outputs for r in out if r is not None]
    val, *rows = _results(e, (1, *names), env)[0]
    if isinstance(wrt, str):
        return val, (rows[0] if rows[0] is not None else np.zeros_like(env[wrt])
                     if np.ndim(env.get(wrt, 0.0)) else 0.0)
    return val, np.array([np.zeros(np.shape(val)) if r is None else r for r in rows], float)


def eval_dual2(e, env: dict, wrt1: str, wrt2: str):
    """Return (value, d1, d2, d1 d2) by second-order forward mode; wrt1 ==
    wrt2 gives the plain second derivative in that coordinate.  ``e`` is an
    expression, or a Program, for the list of its outputs' tuples from one
    pass."""
    results = [(val, *(np.zeros(np.shape(val)) if r is None else r for r in parts))
               for val, *parts in _results(e, (2, wrt1, wrt2), env)]
    return results if isinstance(e, Program) else results[0]


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
