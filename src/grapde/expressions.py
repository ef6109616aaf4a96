"""Tiny expression language for nonlinearities: parser, printer, derivatives.

Grammar (EBNF)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := unary ('^' factor)?          # '^' is right-associative
    unary  := '-' unary | atom
    atom   := number | 'u' | 'v' | 'w' | ident '(' 'x' ')'? |
              func '(' expr ')' | '(' expr ')'

Note the base of '^' is a ``unary``, so ``-u^2`` parses as ``(-u)^2``; write
``-(u^2)`` for the other reading.  Identifiers that are not function names
denote per-vertex coefficient tables; ``gamma`` and ``gamma(x)`` are the
same coefficient.

Symbolic differentiation is closed over the node set; ``abs`` differentiates
to ``sign`` with ``sign(0) = 0``.  Simplification is limited to constant
folding and 0/1 identities.

``evaluate`` walks the tree on every call; ``compile_expr`` turns a tree into
straight-line numpy code once, with the same results and the same domain
errors, for expressions evaluated many times.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Coeff",
    "Call",
    "Neg",
    "Bin",
    "ParseError",
    "EvalDomainError",
    "parse_expr",
    "to_source",
    "differentiate",
    "evaluate",
    "compile_expr",
    "coefficient_names",
]

FUNCTIONS = ("abs", "sqrt", "sin", "cos", "exp", "log", "atan", "sign")
VARIABLES = ("u", "v", "w")


class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class EvalDomainError(ArithmeticError):
    """log of a non-positive value, sqrt of a negative value, etc."""


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Coeff(Expr):
    name: str


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Bin(Expr):
    op: str
    left: Expr
    right: Expr


# --- lexer --------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(source: str):
    tokens = []
    pos = 0
    line, line_start = 1, 0
    while pos < len(source):
        if source[pos] == "\n":
            line += 1
            line_start = pos + 1
            pos += 1
            continue
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(source) - len(stripped)
            raise ParseError(
                f"unexpected character {source[bad_at]!r}", line, bad_at - line_start + 1
            )
        col = m.start(m.lastgroup) - line_start + 1
        kind = m.lastgroup
        text = m.group(kind)
        tokens.append((kind, text, line, col))
        pos = m.end()
    tokens.append(("eof", "", line, len(source) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, line, col = self.next()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}, found {text or 'end of input'!r}", line, col)

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, line, col = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected {text!r}", line, col)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, text, _, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                e = Bin(text, e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, text, _, _ = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                e = Bin(text, e, self.factor())
            else:
                return e

    def factor(self) -> Expr:
        e = self.unary()
        kind, text, _, _ = self.peek()
        if kind == "op" and text == "^":
            self.next()
            return Bin("^", e, self.factor())
        return e

    def unary(self) -> Expr:
        kind, text, _, _ = self.peek()
        if kind == "op" and text == "-":
            self.next()
            return Neg(self.unary())
        return self.atom()

    def atom(self) -> Expr:
        kind, text, line, col = self.next()
        if kind == "num":
            return Num(float(text))
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "ident":
            if text in VARIABLES:
                return Var(text)
            nkind, ntext, _, _ = self.peek()
            if nkind == "op" and ntext == "(":
                if text in FUNCTIONS:
                    self.next()
                    arg = self.expr()
                    self.expect_op(")")
                    return Call(text, arg)
                # coefficient applied at the current vertex: ident '(' 'x' ')'
                self.next()
                akind, atext, aline, acol = self.next()
                if akind != "ident" or atext != "x":
                    raise ParseError(f"unknown identifier {text!r}", line, col)
                self.expect_op(")")
                return Coeff(text)
            if text == "x":
                raise ParseError("unknown identifier 'x' (vertices have no coordinate)", line, col)
            return Coeff(text)
        raise ParseError(f"unexpected {text or 'end of input'!r}", line, col)


def parse_expr(source: str) -> Expr:
    return _Parser(source).parse()


# --- printer ------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(e: Expr) -> int:
    if isinstance(e, Bin):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _PREC["neg"]
    return _PREC["atom"]


def _fmt_num(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def to_source(e: Expr) -> str:
    """Print with minimal parentheses; parse(to_source(e)) == e structurally."""
    if isinstance(e, Num):
        if e.value < 0:
            # negative literals do not exist in the grammar
            return f"(0 - {_fmt_num(-e.value)})"
        return _fmt_num(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Coeff):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({to_source(e.arg)})"
    if isinstance(e, Neg):
        inner = to_source(e.arg)
        # a '^' or binary child would bind differently after the minus
        if _prec(e.arg) < _PREC["atom"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Bin):
        lp, rp = _prec(e.left), _prec(e.right)
        left = to_source(e.left)
        right = to_source(e.right)
        if e.op in "+-":
            if lp < 1:
                left = f"({left})"
            if rp <= 1:
                right = f"({right})"
        elif e.op in "*/":
            if lp < 2:
                left = f"({left})"
            if rp <= 2:
                right = f"({right})"
        else:  # '^': base must be a unary, exponent a factor
            if lp < 3 or (isinstance(e.left, Bin) and e.left.op == "^"):
                left = f"({left})"
            if rp < 3:
                right = f"({right})"
        return f"{left} {e.op} {right}" if e.op in "+-" else f"{left}{e.op}{right}"
    raise TypeError(f"not an expression: {e!r}")


# --- simplifying constructors ------------------------------------------

def _is_num(e, value=None):
    return isinstance(e, Num) and (value is None or e.value == value)


def s_add(a, b):
    if _is_num(a) and _is_num(b):
        return Num(a.value + b.value)
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return Bin("+", a, b)


def s_sub(a, b):
    if _is_num(a) and _is_num(b):
        return Num(a.value - b.value)
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return s_neg(b)
    return Bin("-", a, b)


def s_mul(a, b):
    if _is_num(a) and _is_num(b):
        return Num(a.value * b.value)
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    return Bin("*", a, b)


def s_div(a, b):
    if _is_num(a, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b) and b.value != 0:
        return Num(a.value / b.value)
    return Bin("/", a, b)


def s_pow(a, b):
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return Num(1.0)
    if _is_num(a) and _is_num(b):
        try:
            return Num(float(a.value**b.value))
        except (OverflowError, ValueError, ZeroDivisionError):
            pass
    return Bin("^", a, b)


def s_neg(a):
    if _is_num(a):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


# --- differentiation ----------------------------------------------------

def differentiate(e: Expr, var: str) -> Expr:
    """Exact symbolic partial derivative with respect to u, v or w."""
    if var not in VARIABLES:
        raise ValueError(f"can only differentiate with respect to {VARIABLES}")
    return _diff(e, var)


def _diff(e: Expr, var: str) -> Expr:
    if isinstance(e, (Num, Coeff)):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0 if e.name == var else 0.0)
    if isinstance(e, Neg):
        return s_neg(_diff(e.arg, var))
    if isinstance(e, Bin):
        a, b = e.left, e.right
        da, db = _diff(a, var), _diff(b, var)
        if e.op == "+":
            return s_add(da, db)
        if e.op == "-":
            return s_sub(da, db)
        if e.op == "*":
            return s_add(s_mul(da, b), s_mul(a, db))
        if e.op == "/":
            return s_div(s_sub(s_mul(da, b), s_mul(a, db)), s_pow(b, Num(2.0)))
        # power rule; general case needs the logarithmic form
        if _is_num(db, 0.0):
            return s_mul(s_mul(b, s_pow(a, s_sub(b, Num(1.0)))), da)
        return s_mul(
            s_pow(a, b),
            s_add(s_mul(db, Call("log", a)), s_div(s_mul(b, da), a)),
        )
    if isinstance(e, Call):
        a = e.arg
        da = _diff(a, var)
        if _is_num(da, 0.0):
            return Num(0.0)
        if e.fn == "abs":
            return s_mul(Call("sign", a), da)
        if e.fn == "sign":
            return Num(0.0)
        if e.fn == "sqrt":
            return s_div(da, s_mul(Num(2.0), Call("sqrt", a)))
        if e.fn == "sin":
            return s_mul(Call("cos", a), da)
        if e.fn == "cos":
            return s_neg(s_mul(Call("sin", a), da))
        if e.fn == "exp":
            return s_mul(Call("exp", a), da)
        if e.fn == "log":
            return s_div(da, a)
        if e.fn == "atan":
            return s_div(da, s_add(Num(1.0), s_pow(a, Num(2.0))))
    raise TypeError(f"not an expression: {e!r}")


# --- evaluation ---------------------------------------------------------

def _domain_message(what: str, e: Expr) -> str:
    return f"{what} in {to_source(e)!r}"


def _missing_message(name: str) -> str:
    return f"missing coefficient table {name!r}"


# +, - and * call the operator functions: CPython specializes `a + b` on two
# floats after a few calls, and the specialized add returns the other NaN, so
# the sign of a NaN result would depend on how often the line had run before
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_UFUNCS = {
    "abs": np.abs, "sign": np.sign, "sqrt": np.sqrt, "sin": np.sin,
    "cos": np.cos, "exp": np.exp, "log": np.log, "atan": np.arctan,
}
# argument test against 0 that makes the call a domain error, and its message
_CALL_GUARDS = {
    "sqrt": (np.less, "sqrt of a negative value"),
    "log": (np.less_equal, "log of a non-positive value"),
}


def evaluate(e: Expr, env: dict):
    """Evaluate over scalars or aligned numpy arrays.

    ``env`` maps 'u', 'v', 'w' and coefficient names to values.  Domain
    violations raise EvalDomainError naming the offending subexpression.
    Each guard tests element by element, a power where its result is NaN at
    a base that is not NaN, so a stack of samples raises exactly where one
    of its samples alone would.
    """
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Coeff):
        try:
            return env[e.name]
        except KeyError:
            raise EvalDomainError(_missing_message(e.name)) from None
    if isinstance(e, Neg):
        return -evaluate(e.arg, env)
    if isinstance(e, Bin):
        a = evaluate(e.left, env)
        b = evaluate(e.right, env)
        if e.op in _ARITH:
            return _ARITH[e.op](a, b)
        if e.op == "/":
            if np.any(b == 0):
                raise EvalDomainError(_domain_message("division by zero", e))
            return a / b
        if np.any((a == 0) & (b < 0)):
            raise EvalDomainError(_domain_message("zero to a negative power", e))
        with np.errstate(invalid="ignore"):
            out = np.power(a, b)
        if np.any(np.isnan(out)) and np.any(np.isnan(out) > np.isnan(a)):
            raise EvalDomainError(_domain_message("invalid power", e))
        return out
    if isinstance(e, Call) and e.fn in _UFUNCS:
        a = evaluate(e.arg, env)
        if e.fn in _CALL_GUARDS:
            test, what = _CALL_GUARDS[e.fn]
            if np.any(test(a, 0)):
                raise EvalDomainError(_domain_message(what, e))
        return _UFUNCS[e.fn](a)
    raise TypeError(f"not an expression: {e!r}")


# --- compilation --------------------------------------------------------


class _Compiler:
    """Straight-line code for one tree, one statement per node in evaluation order.

    Each node's value goes to a fresh local, deleted once its parent has
    used it, so no more intermediate arrays are alive at a time than in the
    tree walk.  A variable or coefficient is read from ``env`` where
    ``evaluate`` first reads it, and reused after.  Guards run where
    ``evaluate`` checks them, so the first error raised is the same.
    ``np.count_nonzero`` of a boolean array or scalar is ``np.any`` of it,
    at a fraction of the call cost.
    """

    def __init__(self):
        self.lines = []
        self.consts = {}
        self.names = {}
        self.temps = set()

    def temp(self, value: str, *used: str) -> str:
        """Assign ``value`` to a fresh local, then delete the operands it used."""
        name = f"t{len(self.lines)}"
        self.lines.append(f"{name} = {value}")
        self.release(*used)
        self.temps.add(name)
        return name

    def release(self, *used: str):
        dead = [x for x in used if x in self.temps]
        if dead:
            self.lines.append(f"del {', '.join(dead)}")

    def raise_if(self, test: str, message: str):
        self.lines.append(f"if {test}:")
        self.lines.append(f"    raise EvalDomainError({message!r})")

    def const(self, value) -> str:
        # finite floats print exactly; anything else is bound by name
        if type(value) is float and math.isfinite(value):
            return repr(value)
        name = f"k{len(self.consts)}"
        self.consts[name] = value
        return name

    def emit(self, e: Expr) -> str:
        if isinstance(e, Num):
            return self.const(e.value)
        if isinstance(e, (Var, Coeff)):
            if e.name not in self.names:
                name = self.names[e.name] = f"x{len(self.names)}"
                if isinstance(e, Var):
                    self.lines.append(f"{name} = env[{e.name!r}]")
                else:
                    self.lines += [
                        "try:",
                        f"    {name} = env[{e.name!r}]",
                        "except KeyError:",
                        f"    raise EvalDomainError({_missing_message(e.name)!r}) from None",
                    ]
            return self.names[e.name]
        if isinstance(e, Neg):
            a = self.emit(e.arg)
            return self.temp(f"-{a}", a)
        if isinstance(e, Bin):
            a = self.emit(e.left)
            b = self.emit(e.right)
            if e.op in _ARITH:
                return self.temp(f"{_ARITH[e.op].__name__}({a}, {b})", a, b)
            if e.op == "/":
                # a nonzero literal divisor cannot trip the guard
                if not (isinstance(e.right, Num) and e.right.value != 0):
                    self.raise_if(
                        f"np.count_nonzero({b} == 0)", _domain_message("division by zero", e)
                    )
                return self.temp(f"{a} / {b}", a, b)
            # a nonnegative literal exponent cannot trip the zero-base guard
            if not (isinstance(e.right, Num) and e.right.value >= 0):
                self.raise_if(
                    f"np.count_nonzero(({a} == 0) & ({b} < 0))",
                    _domain_message("zero to a negative power", e),
                )
            if isinstance(e.right, Num) and float(e.right.value).is_integer():
                # an integer power is NaN only where its base is NaN
                return self.temp(f"np.power({a}, {b})", a, b)
            out = f"t{len(self.lines)}"
            self.lines += [
                "with np.errstate(invalid='ignore'):",
                f"    {out} = np.power({a}, {b})",
            ]
            self.raise_if(
                f"np.count_nonzero(np.isnan({out}))"
                f" and np.count_nonzero(np.isnan({out}) > np.isnan({a}))",
                _domain_message("invalid power", e),
            )
            self.release(a, b)
            self.temps.add(out)
            return out
        if isinstance(e, Call) and e.fn in _UFUNCS:
            a = self.emit(e.arg)
            if e.fn in _CALL_GUARDS:
                test, what = _CALL_GUARDS[e.fn]
                self.raise_if(
                    f"np.count_nonzero(np.{test.__name__}({a}, 0))", _domain_message(what, e)
                )
            return self.temp(f"np.{_UFUNCS[e.fn].__name__}({a})", a)
        raise TypeError(f"not an expression: {e!r}")


def compile_expr(e: Expr):
    """Compile ``e`` once into a function ``env -> value``.

    The function applies the same numpy operations as ``evaluate(e, env)``
    in the same order, so its results are bit-identical, and its guards test
    the same elements, so it raises the same EvalDomainError messages: the
    invalid-power guard fires where a NaN result sits at a base that is not
    NaN.  Three guards that cannot fire are left out: division by a nonzero
    literal, the zero-base check of a power with a nonnegative literal
    exponent, and the invalid-power check of a power with an integer literal
    exponent.
    """
    c = _Compiler()
    result = c.emit(e)
    body = "".join(f"    {line}\n" for line in c.lines)
    source = f"def compiled(env):\n{body}    return {result}\n"
    namespace = {"np": np, "EvalDomainError": EvalDomainError, **c.consts}
    namespace.update((f.__name__, f) for f in _ARITH.values())
    exec(compile(source, "<grapde expression>", "exec"), namespace)
    return namespace["compiled"]


def coefficient_names(e: Expr) -> set:
    if isinstance(e, Coeff):
        return {e.name}
    if isinstance(e, Neg):
        return coefficient_names(e.arg)
    if isinstance(e, Call):
        return coefficient_names(e.arg)
    if isinstance(e, Bin):
        return coefficient_names(e.left) | coefficient_names(e.right)
    return set()
