"""Decision trees: hierarchy predicates, leaf functionals, and the
rearrangement algorithms with their certified postconditions."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisynet import random_instances as ri
from noisynet import reductions
from noisynet.errors import TreeCapExceeded
from noisynet.rng import RngStream
from noisynet.trees import (
    BlockSpace,
    Tree,
    alternations,
    collapse_to_read_once,
    count_paths,
    depth,
    expand_superqueries,
    is_ordered,
    is_read_once,
    leaf_correlations,
    leaf_law,
    level_blocks,
    merge_superqueries,
    query_multiset,
    readonce_advantage,
    reorder,
    single_query_advantage,
    tree_advantage,
    tree_from_json,
    tree_to_json,
)
from tree_helpers import (
    BAD_TREE_TEXTS,
    bit_tree,
    bitstring_space,
    evaluate,
    functions_covered,
    line_tree,
    random_move_to_root_levels,
    random_tree_for_levels,
    trees_equal,
    uniform_bit_space,
)


def exhaustive_advantage(t, spaces):
    """Brute-force oracle: enumerate all assignments, group by leaf."""
    corr = {}
    for combo in itertools.product(*[range(sp.size) for sp in spaces]):
        p = 1.0
        f = 1.0
        for j, s in enumerate(combo):
            p *= spaces[j].probs[s]
            f *= spaces[j].h[s]
        path = evaluate(t, list(combo))
        corr[path] = corr.get(path, 0.0) + p * f
    return sum(abs(v) for v in corr.values())


# -- block spaces ------------------------------------------------------------


def test_block_space_validation():
    with pytest.raises(ValueError):
        BlockSpace((0, 1), (0.6, 0.6), (1, -1))
    with pytest.raises(ValueError):
        BlockSpace((0, 1), (0.5, 0.5), (1, 2))
    with pytest.raises(ValueError):
        BlockSpace((0, 1), (0.5,), (1, -1))


def test_bitstring_space():
    sp = bitstring_space(
        2,
        {(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 0.25},
        lambda v: -1 if sum(v) % 2 else 1,
    )
    assert sp.size == 4 and sp.h == (1, -1, -1, 1)


# -- hierarchy predicates ----------------------------------------------------


def test_level_blocks_and_depth():
    t = bit_tree([0, 1, 0])
    assert level_blocks(t) == [0, 1, 0]
    assert depth(t) == 3
    assert not is_ordered(t)


def test_alternation_examples():
    assert alternations(bit_tree([0, 1, 0])) == {3}
    assert alternations(bit_tree([0, 1, 2, 0, 1])) == {4, 5}
    assert alternations(bit_tree([0, 0, 1, 1])) == set()
    assert alternations(bit_tree([0, 1, 1, 0])) == {4}


def test_ordered_and_read_once():
    assert is_ordered(bit_tree([0, 0, 1, 1, 2]))
    assert not is_ordered(bit_tree([0, 1, 0]))
    assert is_read_once(bit_tree([2, 0, 1]))
    assert not is_read_once(bit_tree([0, 0, 1]))


def test_non_oblivious_rejected():
    for text in BAD_TREE_TEXTS.values():
        with pytest.raises(ValueError):
            tree_from_json(text)


def test_construction_rejects_inconsistent_levels():
    good = ([0, 1], [[[0, 1]], [[0, 1]]], [[0], [0]], [[[0, 0]], [[0, 0]]])
    assert depth(Tree(*good)) == 2
    bad = [
        ([0, 1], [[[0, 1]], [[0, 1]]], [[0], [0]], [[[0, 1]], [[0, 0]]]),  # no node 1
        ([0, 1], [[[0, 1]], [[0, 1]]], [[0], [0, 0]], [[[0, 0]], [[0, 0]] * 2]),  # orphan
        ([0, 1], [[[0, 2]], [[0, 1]]], [[0], [0]], [[[0, 0]], [[0, 0]]]),  # branch >= arity
        ([0, 1], [[[0, 1]], [[0, 1]]], [[0], [1]], [[[0, 0]], [[0, 0]]]),  # no row 1
        ([0, 1], [[[0, 1]], [[0, 1]]], [[0, 0], [0]], [[[0, 0]], [[0, 0]]]),  # two roots
        ([0], [[[0, 1]], [[0, 1]]], [[0], [0]], [[[0, 0]], [[0, 0]]]),  # ragged levels
    ]
    for args in bad:
        with pytest.raises(ValueError):
            Tree(*args)


def test_count_paths_cap():
    t = bit_tree([0] * 17)
    with pytest.raises(TreeCapExceeded) as info:
        count_paths(t)
    assert info.value.size == 2**17


def test_evaluate_walks_branches():
    t = line_tree([(0, (0, 1)), (1, (1, 0))])
    assert evaluate(t, [0, 0]) == (0, 1)
    assert evaluate(t, [1, 1]) == (1, 0)


# -- leaf functionals --------------------------------------------------------


def test_tree_advantage_matches_bruteforce():
    rng = RngStream(31)
    for i in range(25):
        r = rng.spawn("case", i)
        k = 1 + int(r.spawn("k").integers(3))
        d = 1 + int(r.spawn("d").integers(4))
        spaces = ri.random_spaces(r, k)
        t, _ = ri.random_oblivious_tree(r, spaces, d)
        got, weighting = tree_advantage(t, spaces)
        assert abs(got - exhaustive_advantage(t, spaces)) <= 1e-12
        # the weighting attains the advantage by construction
        corr = leaf_correlations(t, spaces)
        attained = sum(weighting[p] * v for p, v in corr.items())
        assert abs(attained - got) <= 1e-12


def test_leaf_law_sums_to_one():
    spaces = [uniform_bit_space(), uniform_bit_space()]
    t = bit_tree([0, 1, 0])
    law = leaf_law(t, [np.array(sp.probs) for sp in spaces])
    assert abs(sum(law.values()) - 1.0) <= 1e-12


def test_single_query_advantage_noisy_bit():
    # (x, z) block with z ~ Bern(0.1); querying x xor z has advantage 0.8
    sp = BlockSpace(
        values=((0, 0), (0, 1), (1, 0), (1, 1)),
        probs=(0.45, 0.05, 0.45, 0.05),
        h=(1, 1, -1, -1),
    )
    branch = tuple(x ^ z for x, z in sp.values)
    assert abs(single_query_advantage(branch, 2, sp) - 0.8) <= 1e-12


# -- merge / expand ----------------------------------------------------------


@st.composite
def oblivious_trees(draw):
    """A random oblivious tree over 1-3 blocks of 2-3 values: each level
    queries one block with one arity, each node its own branch function."""
    sizes = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    spaces = []
    for size in sizes:
        raw = draw(st.lists(st.floats(0.05, 1.0), min_size=size, max_size=size))
        probs = tuple(w / sum(raw) for w in raw[:-1])
        probs += (1.0 - sum(probs),)
        h = draw(st.lists(st.sampled_from([-1, 1]), min_size=size, max_size=size))
        spaces.append(BlockSpace(tuple(range(size)), probs, tuple(h)))
    n_levels = draw(st.integers(1, 5))
    levels = draw(
        st.lists(
            st.tuples(st.integers(0, len(sizes) - 1), st.integers(2, 3)),
            min_size=n_levels,
            max_size=n_levels,
        )
    )

    rows, kids, n = [], [], 1
    for block, arity in levels:
        values = st.integers(0, arity - 1)
        rows.append(
            [
                draw(st.lists(values, min_size=sizes[block], max_size=sizes[block]))
                for _ in range(n)
            ]
        )
        kids.append(np.arange(n * arity).reshape(n, arity))
        n *= arity
    kids[-1] = np.zeros_like(kids[-1])
    t = Tree([b for b, _a in levels], rows, [np.arange(len(r)) for r in rows], kids)
    return t, spaces


@settings(max_examples=60, deadline=None)
@given(oblivious_trees())
def test_merge_expand_round_trip_preserves_law(case):
    t, spaces = case
    merged, record = merge_superqueries(t)
    assert len(alternations(merged)) == len(alternations(t))
    back = expand_superqueries(merged, record)
    mus = [np.array(sp.probs) for sp in spaces]
    law0, law1 = leaf_law(t, mus), leaf_law(back, mus)
    paths = sorted(set(law0) | set(law1))
    a = np.array([law0.get(q, 0.0) for q in paths])
    b = np.array([law1.get(q, 0.0) for q in paths])
    assert 0.5 * np.abs(a - b).sum() <= 1e-12
    a0, _ = tree_advantage(t, spaces)
    a1, _ = tree_advantage(merged, spaces)
    a2, _ = tree_advantage(back, spaces)
    assert abs(a0 - a1) <= 1e-12 and abs(a0 - a2) <= 1e-12


def test_merge_makes_runs_single_levels():
    t = bit_tree([0, 0, 1, 1, 1])
    merged, record = merge_superqueries(t)
    assert level_blocks(merged) == [0, 1]
    assert record == [(0, [2, 2]), (1, [2, 2, 2])]
    assert [len(record[i][1]) for i in range(2)] == [2, 3]


# -- move-to-root steps of reorder -------------------------------------------


def test_reorder_moves_a_fresh_last_block_to_the_root():
    """A last block queried nowhere else goes to the root in reorder's
    first step (cut level 0) and stays there; the rest keeps its order
    up to the later steps, which all cut below the root."""
    rng = RngStream(51)
    for i in range(30):
        r = rng.spawn("case", i)
        d = 1 + int(r.spawn("d").integers(4))
        levels = random_move_to_root_levels(r, 3, d)
        a, b = sorted(set(range(3)) - {levels[-1]})
        levels = [a, b, a] + levels  # an alternation, so reorder takes steps
        spaces = ri.random_spaces(r, 3, max_size=2)
        t = random_tree_for_levels(r, spaces, levels)
        a0, _ = tree_advantage(t, spaces)
        out, cert = reorder(t, spaces)
        assert cert[0]["cut_level"] == 0 and cert[0]["advantage_before"] == a0
        assert all(step["cut_level"] > 0 for step in cert[1:-1])
        assert level_blocks(out)[0] == levels[-1] and is_ordered(out)
        for step in cert[:-1]:
            assert step["advantage_after"] >= step["advantage_before"] - 1e-9
        assert tree_advantage(out, spaces)[0] == cert[-1]["advantage"] >= a0 - 1e-9
        assert functions_covered(out, t)


def test_reorder_promotes_the_branch_with_the_larger_correlation():
    """Two last-level nodes with different branch functions on block 1:
    the step that moves block 1 below its first query promotes the one
    with the larger correlation.  Promoting the constant one would drop
    the advantage from 0.9 to 0.8; the identity gives 1."""
    sp0 = uniform_bit_space()
    sp1 = BlockSpace((0, 1), (0.9, 0.1), (1, -1))
    id_branch = (0, 1)
    const_branch = (0, 0)
    # the root reads block 1 and learns nothing; its child reads block 0,
    # whose left child asks the informative query, its right child the
    # useless one
    t = Tree(
        [1, 0, 1],
        [[const_branch], [id_branch], [id_branch, const_branch]],
        [[0], [0], [0, 1]],
        [[[0]], [[0, 1]], [[0, 0], [0, 0]]],
    )
    out, cert = reorder(t, [sp0, sp1])
    assert level_blocks(out) == [1, 1, 0]
    assert out.branch(1, 0) == id_branch
    assert cert[0]["cut_level"] == 1
    assert cert[0]["advantage_before"] == pytest.approx(0.9, abs=1e-12)
    assert cert[0]["advantage_after"] == pytest.approx(1.0, abs=1e-12)


# -- reorder / collapse ------------------------------------------------------


def test_reorder_properties_random():
    rng = RngStream(61)
    for i in range(60):
        r = rng.spawn("case", i)
        k = 1 + int(r.spawn("k").integers(3))
        d = 1 + int(r.spawn("d").integers(6))
        spaces = ri.random_spaces(r, k, max_size=2)
        t, levels = ri.random_oblivious_tree(r, spaces, d)
        a0, _ = tree_advantage(t, spaces)
        out, cert = reorder(t, spaces)
        assert is_ordered(out)
        assert not alternations(out)
        assert query_multiset(out) == query_multiset(t)
        a1, _ = tree_advantage(out, spaces)
        assert a1 >= a0 - 1e-9
        # stepwise advantages in the certificate never decrease
        for step in cert:
            if "advantage_after" in step:
                assert step["advantage_after"] >= step["advantage_before"] - 1e-9


def test_reorder_certificate_terminates():
    spaces = [uniform_bit_space() for _ in range(3)]
    t = bit_tree([0, 1, 2, 0, 1, 0])
    out, cert = reorder(t, spaces)
    assert cert[-1]["alternations"] == 0
    assert len(cert) <= (3 * 6) ** 2 + 1


def test_collapse_requires_ordered():
    with pytest.raises(ValueError):
        collapse_to_read_once(bit_tree([0, 1, 0]))


def test_collapse_and_product_bound():
    t = bit_tree([0, 0, 1])
    ro, record = collapse_to_read_once(t)
    assert is_read_once(ro)
    spaces = [uniform_bit_space(), uniform_bit_space()]
    value, weighting, alphas = readonce_advantage(ro, spaces)
    bound = 1.0
    for a in alphas.values():
        bound *= a
    assert value <= bound + 1e-9


def test_readonce_noisy_product_case():
    """Two noisy single-bit queries at eps=0.1: advantage 0.8^2 = 0.64."""
    sp = BlockSpace(
        values=((0, 0), (0, 1), (1, 0), (1, 1)),
        probs=(0.45, 0.05, 0.45, 0.05),
        h=(1, 1, -1, -1),
    )
    branch = tuple(x ^ z for x, z in sp.values)
    t = line_tree([(0, branch), (1, branch)])
    value, _w, alphas = readonce_advantage(t, [sp, sp])
    assert abs(value - 0.64) <= 1e-9
    assert abs(alphas[0] - 0.8) <= 1e-12 and abs(alphas[1] - 0.8) <= 1e-12


def test_functions_covered_contract():
    t = bit_tree([0, 1])
    assert functions_covered(t, t)
    other = line_tree([(0, (0, 0)), (1, (0, 1))])
    assert not functions_covered(other, t)  # constant branch not in input
    # child relabeling is allowed
    relabeled = line_tree([(0, (1, 0)), (1, (0, 1))])
    assert functions_covered(relabeled, t)


# -- serialization -----------------------------------------------------------


def _transcript_tree():
    """A transcript tree, whose block values nest (x bits, noise bits)."""
    p = ri.random_tiny_protocol(RngStream(0, ("tree-text",)), 0)
    _ro, art, _report = reductions.protocol_to_read_once(p, ri.max_input_sends(p))
    return art.root, art.spaces


def test_tree_json_round_trip():
    rng = RngStream(71)
    spaces = ri.random_spaces(rng, 2)
    for t, spaces in [(ri.random_oblivious_tree(rng, spaces, 3)[0], spaces), _transcript_tree()]:
        text = tree_to_json(t, spaces, meta={"note": "case"})
        back, back_spaces, meta = tree_from_json(text)
        assert trees_equal(t, back)
        assert meta == {"note": "case"}
        assert [sp.values for sp in back_spaces] == [sp.values for sp in spaces]
        a0, _ = tree_advantage(t, spaces)
        a1, _ = tree_advantage(back, back_spaces)
        assert abs(a0 - a1) <= 1e-12


def test_tree_json_leaf_root():
    text = tree_to_json(Tree([], [], [], []), [])
    root, spaces, _meta = tree_from_json(text)
    assert depth(root) == 0 and spaces == []
