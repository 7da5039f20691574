"""Expression DSL: evaluation, substitution, and text round trips."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisynet import engine, exprs
from noisynet.protocol import InputRole, Protocol
from noisynet.rng import RngStream
from noisynet.exprs import (
    And,
    Const,
    ExprSyntaxError,
    Maj,
    MaskBit,
    Noise,
    Not,
    Or,
    OwnInput,
    Rand,
    Received,
    Table,
    Thresh,
    Xor,
    mux,
    parse,
    to_text,
)


def ev(e, own=0, rx=None, rand=None, noise=None, mask=None):
    def value(atom):
        if isinstance(atom, OwnInput):
            return own
        if isinstance(atom, Received):
            return rx[atom.t]
        if isinstance(atom, Rand):
            return rand[atom.i]
        if isinstance(atom, Noise):
            return noise[atom.i]
        return mask[(atom.src, atom.j)]

    return exprs.evaluate(e, value)


def test_boolean_ops():
    assert ev(Xor((Const(1), Const(1), Const(1)))) == 1
    assert ev(And((Const(1), Const(0)))) == 0
    assert ev(Or((Const(0), Const(1)))) == 1
    assert ev(Not(Const(0))) == 1
    assert ev(Maj((Const(1), Const(1), Const(0)))) == 1
    assert ev(Maj((Const(1), Const(0), Const(0)))) == 0
    assert ev(Thresh((Const(1), Const(1), Const(0)), 2)) == 1
    assert ev(Thresh((Const(1), Const(0), Const(0)), 2)) == 0


def test_mux_selects_correct_branch():
    for sel in (0, 1):
        for a in (0, 1):
            for b in (0, 1):
                got = ev(mux(Const(sel), Const(a), Const(b)))
                assert got == (a if sel == 0 else b)


def test_maj_even_tie_is_zero():
    assert ev(Maj((Const(1), Const(0)))) == 0
    assert ev(Maj((Const(1), Const(1), Const(0), Const(0)))) == 0


def test_atoms_collects_leaves():
    e = Xor((OwnInput(0), Received(3), Noise(1, 0.1), MaskBit(0, 2), Rand(4)))
    got = exprs.atoms(e)
    assert OwnInput(0) in got and Received(3) in got
    assert Noise(1, 0.1) in got and MaskBit(0, 2) in got and Rand(4) in got
    assert exprs.atoms(Const(1)) == set()


def test_substitute():
    e = Xor((Received(0), Received(1)))

    def m(atom):
        if atom == Received(0):
            return Const(1)
        return None

    out = exprs.substitute(e, m)
    assert out == Xor((Const(1), Received(1)))


@pytest.mark.parametrize(
    "e",
    [
        OwnInput(0),
        OwnInput(2),
        Received(7),
        Rand(1),
        Noise(3, 0.125),
        MaskBit(0, 4),
        Const(1),
        Not(Received(0)),
        Xor((OwnInput(0), Received(1), Const(0))),
        And((Received(0), Received(1))),
        Or((Const(0), Const(1))),
        Maj((Received(0), Received(1), Received(2))),
        Thresh((Received(0), Received(1), Received(2)), 2),
        mux(Received(0), Const(0), OwnInput(0)),
        Table((Received(0),), (1, 0)),
        Noise(3, 0.123456789),
    ],
)
def test_text_round_trip(e):
    assert parse(to_text(e)) == e


def test_parse_bare_in_terminates():
    assert parse("in") == OwnInput(0)
    assert parse("rx[12]") == Received(12)


def test_parse_errors():
    for bad in [
        "", "xor(", "frob(rx[0])", "rx[0]garbage", "const(2)",
        "table(0110;rx[0]", "rx[]", "noise[0,]", "noise[0,1e]", "mask[1]",
        "thresh(;rx[0])", "table(2;rx[0])", "in[", "rx[-1]", "const()", "xor()",
        "noise[0,\u0660.\u0663]", "noise[0,0.\u0663]",
    ]:
        with pytest.raises(ExprSyntaxError):
            parse(bad)


def test_table_arity_checked():
    with pytest.raises(ValueError):
        Table((Const(0),), (0, 1, 0))


# -- properties --------------------------------------------------------------

_leaves = st.one_of(
    st.builds(Const, st.integers(0, 1)),
    st.builds(OwnInput, st.integers(0, 3)),
    st.builds(Received, st.integers(0, 20)),
    st.builds(Rand, st.integers(0, 5)),
    st.builds(Noise, st.integers(0, 5), st.floats(0.0, 1.0)),
    st.builds(MaskBit, st.integers(0, 3), st.integers(0, 5)),
)


def _table(args):
    n = 2 ** len(args)
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    return bits.map(lambda table: Table(tuple(args), tuple(table)))


def _compound(children):
    args = st.lists(children, min_size=1, max_size=4).map(tuple)
    return st.one_of(
        children.map(Not),
        args.map(Xor),
        args.map(And),
        args.map(Or),
        args.map(Maj),
        st.builds(Thresh, args, st.integers(0, 4)),
        st.lists(children, min_size=1, max_size=3).flatmap(_table),
    )


expressions = st.recursive(_leaves, _compound, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(expressions)
def test_text_round_trip_property(e):
    assert parse(to_text(e)) == e


@settings(max_examples=200, deadline=None)
@given(expressions, st.integers(0, 2**32 - 1))
def test_array_evaluation_matches_scalar_evaluation(e, seed):
    width = 8
    gen = np.random.default_rng(seed)
    columns = {a: gen.integers(0, 2, size=width) for a in exprs.atoms(e)}
    got = np.broadcast_to(exprs.evaluate(e, columns.__getitem__), (width,))
    for i in range(width):
        want = exprs.evaluate(e, lambda atom: int(columns[atom][i]))
        assert got[i] == want


def _uint8_inputs(n):
    """Column i holds bit i (big-endian) of every n-bit input, as uint8."""
    idx = np.arange(2**n)
    return [((idx >> (n - 1 - i)) & 1).astype(np.uint8) for i in range(n)]


@pytest.mark.parametrize("n", [9, 12])
def test_wide_table_on_uint8_columns_matches_its_table(n):
    # the table index has n bits: it must not wrap at 8 on uint8 columns
    bits = np.random.default_rng(n).integers(0, 2, 2**n)
    f = Table(tuple(OwnInput(i) for i in range(n)), tuple(bits.tolist()))
    cols = _uint8_inputs(n)
    assert np.array_equal(exprs.evaluate(f, lambda atom: cols[atom.index]), bits)


@pytest.mark.parametrize(
    "f", [Thresh((OwnInput(0),) * 256, 1), Maj((OwnInput(0),) * 258)],
    ids=["thresh-256", "maj-258"],
)
def test_uint8_counts_past_255(f):
    # x0 = 1 sets all 256 (258) arguments; a count held in 8 bits wraps to 0 (2)
    cols = _uint8_inputs(2)
    assert list(exprs.evaluate(f, lambda atom: cols[atom.index])) == [0, 0, 1, 1]


@pytest.mark.parametrize("width", [1, 63, 64, 65, 130])  # partial and whole words
@settings(max_examples=200, deadline=None)
@given(expressions, st.integers(0, 2**32 - 1))
def test_packed_evaluation_matches_scalar_evaluation(width, e, seed):
    gen = np.random.default_rng(seed)
    columns = {a: gen.integers(0, 2, size=width) for a in exprs.atoms(e)}
    words = {a: engine._to_words(col) for a, col in columns.items()}
    got = engine._codes([exprs.evaluate(e, words.__getitem__, engine.ONES)], width)
    for i in range(width):
        want = exprs.evaluate(e, lambda atom: int(columns[atom][i]))
        assert got[i] == want


def _one_node_protocol(output_expr) -> Protocol:
    """One node, no transmissions, whose output is ``output_expr``."""
    return Protocol(
        n_nodes=1, adjacency={0: set()}, roles={0: InputRole(1)}, schedule=[],
        output_node=0, output_expr=output_expr, eps=0.1,
    )


@settings(max_examples=150, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(["bit", "bit", "zero", "one"]), min_size=1, max_size=12),
    data=st.data(),
)
def test_at_least_is_the_count_in_every_domain(kinds, data):
    """``_at_least(k, bits, one)`` is ``sum >= k`` for k from -1 to n + 1,
    each bit free or a constant 0 or 1: on 0/1 arrays over every
    assignment of the free bits, on packed words mixed with int 0 and
    ``ONES``, and through a compiled ``execute``."""
    n = len(kinds)
    k = data.draw(st.integers(-1, n + 1))
    free = [i for i, kind in enumerate(kinds) if kind == "bit"]
    rows = 2 ** len(free)
    cols = {i: (np.arange(rows) >> j) & 1 for j, i in enumerate(free)}
    count = sum(cols.values(), np.full(rows, kinds.count("one")))
    want = (count >= k).astype(int)
    consts = {"zero": 0, "one": 1}
    bits = [cols[i] if i in cols else consts[kind] for i, kind in enumerate(kinds)]
    assert np.array_equal(np.broadcast_to(exprs._at_least(k, bits, 1), rows), want)
    consts["one"] = engine.ONES
    words = [engine._to_words(cols[i]) if i in cols else consts[kind] for i, kind in enumerate(kinds)]
    assert np.array_equal(engine._codes([exprs._at_least(k, words, engine.ONES)], rows), want)
    args = [Rand(i) if kind == "bit" else Const(int(kind == "one")) for i, kind in enumerate(kinds)]
    p = _one_node_protocol(Thresh(tuple(args), k))
    for run in range(8):
        drawn = RngStream(run, ("count",)).random(len(free)) < 0.5
        expected = int(drawn.sum() + kinds.count("one") >= k)
        assert engine.execute(p, {0: 0}, RngStream(run, ("count",))).output == expected


def test_maj_of_three_costs_four_plan_steps():
    """Two steps add the first two bits; the third adds only the carry
    into the top bit and the top bit itself, without a carry out of it."""
    p = _one_node_protocol(Maj((Rand(0), Rand(1), Rand(2))))
    engine.execute(p, {0: 0}, RngStream(0))
    names = p.__dict__["_run"].__code__.co_varnames
    # the v{i} locals past the leaves: three Rand bits and the input bit
    assert sum(re.fullmatch(r"v\d+", n) is not None for n in names) - 4 == 4
