"""Tiny expression grammar for boundary functions on the command line.

Grammar (standard precedence, ``^`` right-associative, unary minus):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Identifiers are the variables ``x``, ``y``, ``t`` and the functions
``abs``, ``exp``, ``sin``, ``cos``, ``sqrt``, ``log``.  Parsing reports the
1-based column of the offending token; evaluation reports domain failures
(``log`` of a nonpositive value, division by zero, ...) with the column of
the operator instead of silently producing non-finite values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ExprError, ExprDomainError

_FUNCS = {
    "abs": np.abs,
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "log": np.log,
}
_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
        "^": np.power}
_VARS = ("x", "y", "t")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))")


@dataclass
class _Token:
    kind: str
    text: str
    column: int  # 1-based


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = len(text) - len(stripped) + 1
            raise ExprError(f"unexpected character {stripped[0]!r} at column "
                            f"{col}", column=col)
        kind = m.lastgroup
        tok_text = m.group(0).lstrip()
        col = m.end() - len(tok_text) + 1
        tokens.append(_Token(kind, tok_text, col))
        pos = m.end()
    return tokens


@dataclass
class Node:
    """Expression tree node: a constant, a variable, or an operation."""

    kind: str        # "num" | "var" | "neg" | "call" | one of "+-*/^"
    column: int
    value: float = 0.0
    name: str = ""
    args: tuple = ()

    def variables(self):
        if self.kind == "var":
            return {self.name}
        out = set()
        for a in self.args:
            out |= a.variables()
        return out

    def __str__(self):
        if self.kind == "num":
            return repr(self.value)
        if self.kind == "var":
            return self.name
        if self.kind == "neg":
            return f"(-{self.args[0]})"
        if self.kind == "call":
            return f"{self.name}({self.args[0]})"
        return f"({self.args[0]} {self.kind} {self.args[1]})"

    def __call__(self, **env):
        return _eval(self, env)


def _eval(node, env):
    if node.kind == "num":
        return node.value
    if node.kind == "var":
        return env[node.name]
    if node.kind == "neg":
        return -_eval(node.args[0], env)
    args = [_eval(a, env) for a in node.args]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if node.kind == "call":
            out = _FUNCS[node.name](*args)
            what = f"{node.name} evaluated outside its domain"
        else:
            out = _OPS[node.kind](*args)
            what = f"operator {node.kind!r} produced a non-finite value"
    if not np.all(np.isfinite(out)):
        raise ExprDomainError(f"{what} at column {node.column}",
                              where=node.column)
    return out


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def expect_op(self, op):
        tok = self.peek()
        if tok is None or tok.kind != "op" or tok.text != op:
            col = tok.column if tok else len(self.text) + 1
            raise ExprError(f"expected {op!r} at column {col}", column=col)
        return self.next()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ExprError(f"unexpected token {tok.text!r} at column "
                            f"{tok.column}", column=tok.column)
        return node

    def expr(self, ops="+-"):
        # left-associative chain of ops, "+-" over terms, "*/" over unaries
        operand = self.unary if ops == "*/" else (lambda: self.expr("*/"))
        node = operand()
        while (tok := self.peek()) and tok.kind == "op" and tok.text in ops:
            self.next()
            node = Node(tok.text, tok.column, args=(node, operand()))
        return node

    def unary(self):
        tok = self.peek()
        if tok and tok.kind == "op" and tok.text == "-":
            self.next()
            return Node("neg", tok.column, args=(self.unary(),))
        return self.power()

    def power(self):
        node = self.atom()
        tok = self.peek()
        if tok and tok.kind == "op" and tok.text == "^":
            self.next()
            rhs = self.unary()  # right-associative, allows -n exponents
            node = Node("^", tok.column, args=(node, rhs))
        return node

    def atom(self):
        tok = self.next()
        if tok is None:
            col = len(self.text) + 1
            raise ExprError(f"unexpected end of expression at column {col}",
                            column=col)
        if tok.kind == "num":
            if not np.isfinite(value := float(tok.text)):
                raise ExprError(f"number {tok.text!r} is not finite at column "
                                f"{tok.column}", column=tok.column)
            return Node("num", tok.column, value=value)
        if tok.kind == "ident":
            if tok.text in _FUNCS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Node("call", tok.column, name=tok.text, args=(arg,))
            if tok.text in _VARS:
                return Node("var", tok.column, name=tok.text)
            raise ExprError(f"unknown identifier {tok.text!r} at column "
                            f"{tok.column}", column=tok.column)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprError(f"unexpected token {tok.text!r} at column "
                        f"{tok.column}", column=tok.column)


def parse_expr(text):
    """Parse an expression string into an evaluable tree."""
    return _Parser(text).parse()


def boundary_function(node):
    """Vectorized f(points) of planar points from an expression in x and y."""
    names = node.variables()
    if extra := names - {"x", "y"}:
        raise ExprError(f"variable(s) {sorted(extra)} not allowed here")

    def f(pts):
        pts = np.asarray(pts, dtype=float)
        env = {"x": pts[:, 0], "y": pts[:, 1]}
        out = node(**{k: v for k, v in env.items() if k in names})
        return np.broadcast_to(np.asarray(out, dtype=float),
                               (len(pts),)).copy()

    return f


def line_function(node):
    """Vectorized g(t) from an expression in the single variable t."""
    names = node.variables()
    if extra := names - {"t"}:
        raise ExprError(f"variable(s) {sorted(extra)} not allowed here")

    def g(t):
        t = np.asarray(t, dtype=float)
        out = node(**({"t": t} if "t" in names else {}))
        return np.broadcast_to(np.asarray(out, dtype=float), t.shape).copy()

    return g
