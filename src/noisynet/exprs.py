"""Closed boolean expression language for protocol transmissions.

Expressions are built from atoms -- the node's own input bit, a received
bit ``rx[t]`` (defined as 0 when the node is not a neighbor of the sender
of transmission t), internal random bits -- and a small set of
connectives.  The language is closed (no host callbacks) so that protocol
transformations can inspect and rewrite transmission functions
symbolically.

Internal randomness comes in three flavors:

* ``Rand(i)``    -- fair coin, one per (node, i);
* ``Noise(i, eps)`` -- Bernoulli(eps) bit, one per (node, i), used by the
  receiver-side re-noising steps of the protocol transformations;
* ``MaskBit(src, j)`` -- bit j of a categorical mask source attached to the
  protocol (a regeneration table outcome shared across its coordinates).

:func:`evaluate` reads every atom through one callable, ``value(atom)``,
which returns the atom's bit as an int or as a numpy array of bits.  The
connectives are generic over both, so the exact channel engine can
evaluate an expression over a whole grid of noise assignments in one
call.  The caller decides what an atom means: a sampled trace returns the
bits it drew, the exact engine returns grid columns, and a pure boolean
function raises ``ValueError`` for the atoms it cannot read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: int


@dataclass(frozen=True)
class OwnInput(Expr):
    index: int = 0


@dataclass(frozen=True)
class Received(Expr):
    t: int  # global transmission index, 0-based


@dataclass(frozen=True)
class Rand(Expr):
    i: int


@dataclass(frozen=True)
class Noise(Expr):
    i: int
    eps: float


@dataclass(frozen=True)
class MaskBit(Expr):
    src: int  # index into the protocol's mask source list
    j: int


@dataclass(frozen=True)
class Not(Expr):
    arg: Expr


@dataclass(frozen=True)
class Xor(Expr):
    args: tuple


@dataclass(frozen=True)
class And(Expr):
    args: tuple


@dataclass(frozen=True)
class Or(Expr):
    args: tuple


@dataclass(frozen=True)
class Maj(Expr):
    """Strict majority; ties (even arity) evaluate to 0."""

    args: tuple


@dataclass(frozen=True)
class Thresh(Expr):
    args: tuple
    k: int


@dataclass(frozen=True)
class Table(Expr):
    """Arbitrary truth table over the argument bits (big-endian index)."""

    args: tuple
    table: tuple

    def __post_init__(self):
        if len(self.table) != 2 ** len(self.args):
            raise ValueError("truth table must have 2^arity entries")


#: The atom types: every leaf other than :class:`Const`.
ATOMS = (OwnInput, Received, Rand, Noise, MaskBit)


def mux(sel: Expr, if0: Expr, if1: Expr) -> Table:
    """sel == 0 -> if0, sel == 1 -> if1."""
    return Table(args=(sel, if0, if1), table=(0, 0, 1, 1, 0, 1, 0, 1))


def evaluate(expr: Expr, value):
    """Evaluate with atom bits from ``value(atom)`` (ints or arrays)."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, ATOMS):
        return value(expr)
    if isinstance(expr, Not):
        return 1 ^ evaluate(expr.arg, value)
    if isinstance(expr, Xor):
        return reduce(lambda a, b: a ^ b, (evaluate(a, value) for a in expr.args))
    if isinstance(expr, And):
        return reduce(lambda a, b: a & b, (evaluate(a, value) for a in expr.args))
    if isinstance(expr, Or):
        return reduce(lambda a, b: a | b, (evaluate(a, value) for a in expr.args))
    if isinstance(expr, Maj):
        total = sum(evaluate(a, value) for a in expr.args)
        return 1 * (total > len(expr.args) / 2)
    if isinstance(expr, Thresh):
        total = sum(evaluate(a, value) for a in expr.args)
        return 1 * (total >= expr.k)
    if isinstance(expr, Table):
        wide = len(expr.args) > 8  # a uint8 index would wrap past 8 bits
        idx = 0
        for a in expr.args:
            bit = evaluate(a, value)
            if wide and not isinstance(bit, int):
                bit = np.asarray(bit, dtype=np.int64)
            idx = (idx << 1) | bit
        if isinstance(idx, int):
            return expr.table[idx]
        return np.asarray(expr.table, dtype=np.uint8)[idx]
    raise TypeError(f"not an expression: {expr!r}")


def atoms(expr: Expr) -> set:
    """All atom nodes (leaves other than constants) in the expression."""
    out = set()
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, ATOMS):
            out.add(e)
        elif isinstance(e, Not):
            stack.append(e.arg)
        elif isinstance(e, (Xor, And, Or, Maj, Thresh, Table)):
            stack.extend(e.args)
    return out


def substitute(expr: Expr, mapping) -> Expr:
    """Rewrite atoms via ``mapping(atom) -> Expr | None`` (None keeps it)."""
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, ATOMS):
        repl = mapping(expr)
        return expr if repl is None else repl
    if isinstance(expr, Not):
        return Not(substitute(expr.arg, mapping))
    if isinstance(expr, Xor):
        return Xor(tuple(substitute(a, mapping) for a in expr.args))
    if isinstance(expr, And):
        return And(tuple(substitute(a, mapping) for a in expr.args))
    if isinstance(expr, Or):
        return Or(tuple(substitute(a, mapping) for a in expr.args))
    if isinstance(expr, Maj):
        return Maj(tuple(substitute(a, mapping) for a in expr.args))
    if isinstance(expr, Thresh):
        return Thresh(tuple(substitute(a, mapping) for a in expr.args), expr.k)
    if isinstance(expr, Table):
        return Table(tuple(substitute(a, mapping) for a in expr.args), expr.table)
    raise TypeError(f"not an expression: {expr!r}")


# --- textual form -----------------------------------------------------------


def to_text(expr: Expr) -> str:
    if isinstance(expr, Const):
        return f"const({expr.value})"
    if isinstance(expr, OwnInput):
        return "in" if expr.index == 0 else f"in[{expr.index}]"
    if isinstance(expr, Received):
        return f"rx[{expr.t}]"
    if isinstance(expr, Rand):
        return f"rand[{expr.i}]"
    if isinstance(expr, Noise):
        return f"noise[{expr.i},{float(expr.eps)!r}]"
    if isinstance(expr, MaskBit):
        return f"mask[{expr.src},{expr.j}]"
    if isinstance(expr, Not):
        return f"not({to_text(expr.arg)})"
    if isinstance(expr, Xor):
        return "xor(" + ",".join(to_text(a) for a in expr.args) + ")"
    if isinstance(expr, And):
        return "and(" + ",".join(to_text(a) for a in expr.args) + ")"
    if isinstance(expr, Or):
        return "or(" + ",".join(to_text(a) for a in expr.args) + ")"
    if isinstance(expr, Maj):
        return "maj(" + ",".join(to_text(a) for a in expr.args) + ")"
    if isinstance(expr, Thresh):
        return f"thresh({expr.k};" + ",".join(to_text(a) for a in expr.args) + ")"
    if isinstance(expr, Table):
        bits = "".join(str(b) for b in expr.table)
        return f"table({bits};" + ",".join(to_text(a) for a in expr.args) + ")"
    raise TypeError(f"not an expression: {expr!r}")


class ExprSyntaxError(ValueError):
    pass


class _Parser:
    def __init__(self, text: str):
        self.text = text.replace(" ", "")
        self.pos = 0

    def error(self, msg):
        raise ExprSyntaxError(f"{msg} at position {self.pos} in {self.text!r}")

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> Expr:
        e = self.expr()
        if self.pos != len(self.text):
            self.error("trailing input")
        return e

    def word(self) -> str:
        start = self.pos
        while self.peek() and (self.peek().isalnum() or self.peek() in "._"):
            self.pos += 1
        if start == self.pos:
            self.error("expected a name")
        return self.text[start:self.pos]

    def number(self) -> float:
        start = self.pos
        while self.peek() and (self.peek().isdigit() or self.peek() in ".eE+-"):
            self.pos += 1
        try:
            return float(self.text[start:self.pos])
        except ValueError:
            self.error("bad number")

    def int_index(self) -> int:
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected an integer")
        return int(self.text[start:self.pos])

    def arg_list(self) -> tuple:
        args = [self.expr()]
        while self.peek() == ",":
            self.pos += 1
            args.append(self.expr())
        return tuple(args)

    def expr(self) -> Expr:
        name = self.word()
        if name == "in":
            if self.peek() == "[":
                self.pos += 1
                idx = self.int_index()
                self.expect("]")
                return OwnInput(idx)
            return OwnInput(0)
        if name == "rx":
            self.expect("[")
            t = self.int_index()
            self.expect("]")
            return Received(t)
        if name == "rand":
            self.expect("[")
            i = self.int_index()
            self.expect("]")
            return Rand(i)
        if name == "noise":
            self.expect("[")
            i = self.int_index()
            self.expect(",")
            eps = self.number()
            self.expect("]")
            return Noise(i, eps)
        if name == "mask":
            self.expect("[")
            src = self.int_index()
            self.expect(",")
            j = self.int_index()
            self.expect("]")
            return MaskBit(src, j)
        if name == "const":
            self.expect("(")
            v = self.int_index()
            self.expect(")")
            if v not in (0, 1):
                self.error("const must be 0 or 1")
            return Const(v)
        if name == "not":
            self.expect("(")
            a = self.expr()
            self.expect(")")
            return Not(a)
        if name in ("xor", "and", "or", "maj"):
            self.expect("(")
            args = self.arg_list()
            self.expect(")")
            cls = {"xor": Xor, "and": And, "or": Or, "maj": Maj}[name]
            return cls(args)
        if name == "thresh":
            self.expect("(")
            k = self.int_index()
            self.expect(";")
            args = self.arg_list()
            self.expect(")")
            return Thresh(args, k)
        if name == "table":
            self.expect("(")
            start = self.pos
            while self.peek() in "01":
                self.pos += 1
            bits = tuple(int(b) for b in self.text[start:self.pos])
            self.expect(";")
            args = self.arg_list()
            self.expect(")")
            return Table(args, bits)
        self.error(f"unknown form {name!r}")


def parse(text: str) -> Expr:
    """Parse the textual expression syntax emitted by :func:`to_text`."""
    return _Parser(text).parse()
