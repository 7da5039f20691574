"""Constraints on the seeded instance generators."""

from noisynet import random_instances as ri
from noisynet import trees
from noisynet.exprs import Received, atoms
from noisynet.protocol import InputRole
from noisynet.rng import RngStream
from tree_helpers import random_move_to_root_levels


def test_tiny_protocol_shape_constraints():
    rng = RngStream(2)
    for i in range(60):
        p = ri.random_tiny_protocol(rng, i)
        k, n = p.k_blocks(), p.n_per_block()
        assert k <= 3 and n <= 2
        assert p.T <= 6
        assert ri.max_input_sends(p) <= 2
        assert p.schedule[-1].sender == p.output_node
        assert p.output_expr == p.schedule[-1].expr


def test_tiny_protocol_reads_single_block_per_transmission():
    """Every transmission's received input broadcasts come from one block,
    the structure the transcript-tree construction requires."""
    rng = RngStream(3)
    for i in range(40):
        p = ri.random_tiny_protocol(rng, i)
        sender_of = {t: tr.sender for t, tr in enumerate(p.schedule)}
        for tr in p.schedule:
            blocks = set()
            for a in atoms(tr.expr):
                if isinstance(a, Received):
                    src = sender_of[a.t]
                    role = p.roles[src]
                    if isinstance(role, InputRole):
                        blocks.add(role.block)
            assert len(blocks) <= 1, (i, blocks)


def test_tiny_protocol_deterministic_in_seed():
    a = ri.random_tiny_protocol(RngStream(5), 7)
    b = ri.random_tiny_protocol(RngStream(5), 7)
    assert a.schedule == b.schedule
    assert a.adjacency == b.adjacency


def test_random_spaces_are_valid():
    rng = RngStream(6)
    for k in (1, 2, 4):
        spaces = ri.random_spaces(rng.spawn("k", k), k)
        assert len(spaces) == k
        for sp in spaces:
            assert abs(sum(sp.probs) - 1.0) <= 1e-9
            assert all(h in (-1, 1) for h in sp.h)


def test_random_oblivious_tree_levels():
    rng = RngStream(7)
    spaces = ri.random_spaces(rng, 3)
    t, levels = ri.random_oblivious_tree(rng, spaces, 5)
    assert trees.level_blocks(t) == levels
    assert trees.depth(t) == 5


def test_move_to_root_levels_precondition():
    rng = RngStream(8)
    for i in range(30):
        r = rng.spawn("i", i)
        k = 1 + int(r.spawn("k").integers(3))
        d = 1 + int(r.spawn("d").integers(5))
        levels = random_move_to_root_levels(r, k, d)
        assert levels[-1] not in levels[:-1]


def test_readonce_tree_order():
    rng = RngStream(9)
    spaces = ri.random_spaces(rng, 4)
    t, order = ri.random_readonce_tree(rng, spaces)
    assert trees.is_read_once(t)
    assert trees.level_blocks(t) == order
    assert len(set(order)) == len(order)
