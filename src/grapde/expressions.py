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
"""

from __future__ import annotations

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

def evaluate(e: Expr, env: dict):
    """Evaluate over scalars or aligned numpy arrays.

    ``env`` maps 'u', 'v', 'w' and coefficient names to values.  Domain
    violations raise EvalDomainError naming the offending subexpression.
    """
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Coeff):
        try:
            return env[e.name]
        except KeyError:
            raise EvalDomainError(f"missing coefficient table {e.name!r}") from None
    if isinstance(e, Neg):
        return -evaluate(e.arg, env)
    if isinstance(e, Bin):
        a = evaluate(e.left, env)
        b = evaluate(e.right, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if np.any(b == 0):
                raise EvalDomainError(f"division by zero in {to_source(e)!r}")
            return a / b
        with np.errstate(invalid="ignore"):
            out = np.power(a, b)
        if np.any(np.isnan(out)) and not np.any(np.isnan(a)):
            raise EvalDomainError(f"invalid power in {to_source(e)!r}")
        return out
    if isinstance(e, Call):
        a = evaluate(e.arg, env)
        if e.fn == "abs":
            return np.abs(a)
        if e.fn == "sign":
            return np.sign(a)
        if e.fn == "sqrt":
            if np.any(np.asarray(a) < 0):
                raise EvalDomainError(f"sqrt of a negative value in {to_source(e)!r}")
            return np.sqrt(a)
        if e.fn == "sin":
            return np.sin(a)
        if e.fn == "cos":
            return np.cos(a)
        if e.fn == "exp":
            return np.exp(a)
        if e.fn == "log":
            if np.any(np.asarray(a) <= 0):
                raise EvalDomainError(f"log of a non-positive value in {to_source(e)!r}")
            return np.log(a)
        if e.fn == "atan":
            return np.arctan(a)
    raise TypeError(f"not an expression: {e!r}")


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
