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
and is generic over the domain of bits it returns, given the value of a
1 bit as ``one``:

* ``one=1`` with 0/1 ints -- one bit per atom;
* ``one=1`` with 0/1 numpy arrays -- one bit per element (truth tables);
* ``one`` = all-ones ``uint64`` with packed words -- 64 rows per machine
  word (bit-slicing, Biham 1997), the exact engine's enumeration grid.
* ``one=1`` with places of a run list (``engine._Fn``) -- a compiled plan.

Every connective is written with ``^ & |`` and ``one`` only: ``Not`` is
``one ^ x``, ``Maj`` and ``Thresh`` add their arguments with a bit-sliced
ripple counter, and ``Table`` runs a Shannon mux tree compiled once per
table.  These formulas are exact in all four domains.  The caller
decides what an atom means: the exact engine returns packed grid
columns, and a pure boolean function raises ``ValueError`` for the atoms
it cannot read.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass, fields


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


def evaluate(expr: Expr, value, one=1):
    """Evaluate with atom bits from ``value(atom)``; ``one`` is the value of
    a 1 bit in their domain (1 for ints and 0/1 arrays, all-ones for packed
    words)."""
    if isinstance(expr, Const):
        return one if expr.value else 0
    if isinstance(expr, ATOMS):
        return value(expr)
    if isinstance(expr, Not):
        return one ^ evaluate(expr.arg, value, one)
    if isinstance(expr, (Xor, And, Or)):
        return functools.reduce(
            _FOLDS[type(expr)], (evaluate(a, value, one) for a in expr.args)
        )
    if isinstance(expr, (Maj, Thresh)):
        # a Maj tie (even arity, half the bits set) is 0
        k = len(expr.args) // 2 + 1 if isinstance(expr, Maj) else expr.k
        return _at_least(k, [evaluate(a, value, one) for a in expr.args], one)
    if isinstance(expr, Table):
        bits = [evaluate(a, value, one) for a in expr.args]
        return _mux_tree(_shannon(expr.table), bits, one)
    raise TypeError(f"not an expression: {expr!r}")


_FOLDS = {Xor: operator.xor, And: operator.and_, Or: operator.or_}


def _at_least(k: int, bits: list, one):
    """Whether at least ``k`` of ``bits`` are 1.

    A ripple-carry counter keeps the running count as little-endian bit
    slices, so no sum can wrap; the count is then compared with ``k`` from
    its low bit up."""
    if k <= 0:
        return one
    if k > len(bits):
        return 0
    # ints are 0/1, or only 0 among words, so their plain sum is exact
    if all(type(b) is int for b in bits):
        return one if sum(bits) >= k else 0
    count: list = []
    for j, carry in enumerate(bits, 1):
        for i, c in enumerate(count):
            count[i], carry = c ^ carry, c & carry
        if j & (j - 1) == 0:  # j is a power of two: the count gains a bit
            count.append(carry)
    # compare from the low bit up, ge meaning "count >= k" on the bits seen
    # so far: where k has a 1 the count needs a 1 as well, where k has a 0 a
    # 1 in the count settles it.  Below k's lowest 1 the answer is yes.
    low = (k & -k).bit_length() - 1
    ge = count[low]
    for i in range(low + 1, len(count)):
        ge = count[i] & ge if k >> i & 1 else count[i] | ge
    return ge


@functools.lru_cache(maxsize=1024)
def _shannon(table: tuple):
    """A truth table as a mux tree: a constant 0 or 1, or a triple
    ``(m, if0, if1)`` that selects on the first of the table's last ``m``
    arguments.  Equal halves fold into one subtree."""
    half = len(table) // 2
    if half == 0:
        return table[0]
    if table[:half] == table[half:]:
        return _shannon(table[:half])
    m = len(table).bit_length() - 1
    return (m, _shannon(table[:half]), _shannon(table[half:]))


def _mux_tree(node, bits: list, one):
    """Evaluate a :func:`_shannon` tree on the table's argument bits."""
    if not isinstance(node, tuple):
        return one if node else 0
    m, if0, if1 = node
    s = bits[-m]
    if type(s) is int:  # 0/1, or only 0 among words: it picks one side
        return _mux_tree(if1 if s else if0, bits, one)
    if if0 == 0 and if1 == 1:
        return s
    a, b = _mux_tree(if0, bits, one), _mux_tree(if1, bits, one)
    return a ^ (s & (a ^ b))  # a where s is 0, b where s is 1


def nodes(expr: Expr) -> list:
    """Every node of the expression, itself first, breadth first."""
    out = [expr]
    for e in out:  # the loop reaches what it appends
        if isinstance(e, Not):
            out.append(e.arg)
        elif isinstance(e, (Xor, And, Or, Maj, Thresh, Table)):
            out.extend(e.args)
    return out


def atoms(expr: Expr) -> set:
    """All atom nodes (leaves other than constants) in the expression."""
    return {e for e in nodes(expr) if isinstance(e, ATOMS)}


def substitute(expr: Expr, mapping) -> Expr:
    """Rewrite atoms via ``mapping(atom) -> Expr | None`` (None keeps it)."""
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, ATOMS):
        repl = mapping(expr)
        return expr if repl is None else repl
    if isinstance(expr, Not):
        return Not(substitute(expr.arg, mapping))
    if isinstance(expr, (Xor, And, Or, Maj, Thresh, Table)):
        args = tuple(substitute(a, mapping) for a in expr.args)
        if isinstance(expr, Thresh):
            return Thresh(args, expr.k)
        if isinstance(expr, Table):
            return Table(args, expr.table)
        return type(expr)(args)
    raise TypeError(f"not an expression: {expr!r}")


# --- textual form -----------------------------------------------------------

#: The text name of each form.  An atom is written ``name[f1,f2]`` (input 0
#: as bare ``in``); ``const`` and ``not`` take their one field in
#: parentheses; a connective is ``name(``, its leading field and ``;``
#: (``thresh``'s k, ``table``'s bits), its arguments between commas, ``)``.
NAMES = {
    OwnInput: "in", Received: "rx", Rand: "rand", Noise: "noise", MaskBit: "mask",
    Const: "const", Not: "not", Xor: "xor", And: "and", Or: "or", Maj: "maj",
    Thresh: "thresh", Table: "table",
}
_FORMS = {name: cls for cls, name in NAMES.items()}
#: Each form's fields other than ``args``, as (name, annotation) pairs
_FIELDS = {
    cls: [(f.name, f.type) for f in fields(cls) if f.name != "args"] for cls in NAMES
}
_INT = re.compile("[0-9]+")
_FLOAT = re.compile("[0-9.eE+-]*")  # ASCII: float() also reads other digits
_BITS = re.compile("[01]*")


def to_text(expr: Expr) -> str:
    cls = type(expr)
    if cls not in NAMES:
        raise TypeError(f"not an expression: {expr!r}")
    vals = [_field_text(getattr(expr, name), kind) for name, kind in _FIELDS[cls]]
    if cls in ATOMS:
        return "in" if expr == OwnInput(0) else f"{NAMES[cls]}[{','.join(vals)}]"
    if cls in (Const, Not):
        return f"{NAMES[cls]}({vals[0]})"
    lead = "".join(v + ";" for v in vals)
    return f"{NAMES[cls]}({lead}{','.join(map(to_text, expr.args))})"


def _field_text(value, kind: str) -> str:
    if kind == "Expr":
        return to_text(value)
    if kind == "float":
        return repr(float(value))
    if kind == "tuple":  # a truth table's bits
        return "".join(map(str, value))
    return str(value)


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

    def word(self) -> str:
        start = self.pos
        while self.peek() and (self.peek().isalnum() or self.peek() in "._"):
            self.pos += 1
        if start == self.pos:
            self.error("expected a name")
        return self.text[start:self.pos]

    def number(self) -> float:
        text = _FLOAT.match(self.text, self.pos)[0]
        self.pos += len(text)
        try:
            return float(text)
        except ValueError:
            self.error("bad number")

    def field(self, kind: str):
        if kind == "Expr":
            return self.expr()
        if kind == "float":
            return self.number()
        m = (_BITS if kind == "tuple" else _INT).match(self.text, self.pos)
        if m is None:
            self.error("expected an integer")
        self.pos = m.end()
        return tuple(map(int, m[0])) if kind == "tuple" else int(m[0])

    def expr(self) -> Expr:
        name = self.word()
        cls = _FORMS.get(name)
        if cls is None:
            self.error(f"unknown form {name!r}")
        kinds = [kind for _, kind in _FIELDS[cls]]
        if cls in ATOMS:
            if cls is OwnInput and self.peek() != "[":
                return OwnInput(0)
            vals = []
            for kind in kinds:
                self.expect("," if vals else "[")
                vals.append(self.field(kind))
            self.expect("]")
            return cls(*vals)
        self.expect("(")
        if cls in (Const, Not):
            val = self.field(kinds[0])
            self.expect(")")
            if cls is Const and val not in (0, 1):
                self.error("const must be 0 or 1")
            return cls(val)
        lead = []
        for kind in kinds:
            lead.append(self.field(kind))
            self.expect(";")
        args = [self.expr()]
        while self.peek() == ",":
            self.pos += 1
            args.append(self.expr())
        self.expect(")")  # before the constructor: a Table checks its arity
        return cls(tuple(args), *lead)


def parse(text: str) -> Expr:
    """Parse the textual expression syntax emitted by :func:`to_text`."""
    parser = _Parser(text)
    expr = parser.expr()
    if parser.pos != len(parser.text):
        parser.error("trailing input")
    return expr
