"""Tree helpers the tests share: small block spaces, hand-built and
random trees, a root-to-leaf walk, structural equality, the query-label
cover check and tree files the loader must reject."""

import json

import numpy as np

from noisynet import random_instances as ri
from noisynet.trees import BlockSpace, Tree, depth


def uniform_bit_space(h_of_bit=None) -> BlockSpace:
    """One uniform bit; default target (-1)^x."""
    h = h_of_bit or (lambda b: -1 if b else 1)
    return BlockSpace(values=(0, 1), probs=(0.5, 0.5), h=(h(0), h(1)))


def bitstring_space(n: int, mu: dict, h) -> BlockSpace:
    """Block of n bits with an explicit law; ``h`` maps bit tuples to +/-1."""
    vals = sorted(mu)
    if any(len(v) != n for v in vals):
        raise ValueError("support keys must have length n")
    return BlockSpace(
        values=tuple(vals),
        probs=tuple(mu[v] for v in vals),
        h=tuple(h(v) for v in vals),
    )


def line_tree(levels, arity=2) -> Tree:
    """One node per level, given as (block, branch) pairs; each node's
    children all repeat the next level's node."""
    return Tree(
        [b for b, _branch in levels],
        [[list(branch)] for _b, branch in levels],
        [[0]] * len(levels),
        [[[0] * arity]] * len(levels),
    )


def bit_tree(levels) -> Tree:
    """Deterministic binary tree over bit blocks: branch = identity."""
    return line_tree([(b, (0, 1)) for b in levels])


def random_tree_for_levels(rng, spaces, levels) -> Tree:
    """Full random binary tree over the given level blocks."""
    return ri._random_tree_for_levels(rng.spawn("tree"), spaces, levels)


def random_move_to_root_levels(rng, k: int, depth: int) -> list:
    """A level sequence whose last block appears only at the last level."""
    if k < 1 or depth < 1:
        raise ValueError("need k >= 1 and depth >= 1")
    r = rng.spawn("levels")
    last = int(r.integers(k))
    if k == 1:
        # a single block can only satisfy the precondition at depth 1
        return [0]
    rest = [b for b in range(k) if b != last]
    levels = [rest[int(r.spawn("l", i).integers(len(rest)))] for i in range(depth - 1)]
    return levels + [last]


def evaluate(t, assignment) -> tuple:
    """Root-to-leaf walk; ``assignment[j]`` is block j's value index.

    Returns the leaf's path (tuple of child choices).
    """
    path = []
    node = 0
    for l, b in enumerate(t.blocks):
        c = t.branch(l, node)[assignment[b]]
        path.append(c)
        node = t.children[l][node, c]
    return tuple(path)


def trees_equal(a, b) -> bool:
    """Same blocks, arities and branch function on every path (node
    sharing aside)."""
    if a.blocks != b.blocks or a.arities != b.arities:
        return False
    na = nb = np.zeros(1, dtype=np.intp)
    for l in range(depth(a)):
        if not np.array_equal(a.rows[l][a.row_of[l][na]], b.rows[l][b.row_of[l][nb]]):
            return False
        na, nb = a.children[l][na].ravel(), b.children[l][nb].ravel()
    return True


def query_functions(t) -> list:
    """All (block, branch, arity) labels in the tree (deduplicated)."""
    out = []
    for l, b in enumerate(t.blocks):
        for r in np.unique(t.row_of[l]).tolist():
            key = (b, tuple(t.rows[l][r].tolist()), t.arities[l])
            if key not in out:
                out.append(key)
    return out


def functions_covered(out_tree, in_tree) -> bool:
    """Every output label appears in the input up to child relabeling.

    Two labels match up to relabeling when some bijection of child
    indices carries one branch function to the other; for branch
    functions this is equivalent to inducing the same partition of the
    value set by outcome.
    """

    def partition(branch, arity):
        groups: dict = {}
        for s, c in enumerate(branch):
            groups.setdefault(c, []).append(s)
        return frozenset(tuple(g) for g in groups.values())

    have = {
        (b, partition(branch, a)) for b, branch, a in query_functions(in_tree)
    }
    return all(
        (b, partition(branch, a)) in have
        for b, branch, a in query_functions(out_tree)
    )


def _tree_text(nodes, root):
    """Tree file over two uniform bits from (block, branch, children)
    triples."""
    doc = {
        "version": 1,
        "spaces": [{"values": [0, 1], "probs": [0.5, 0.5], "h": [1, -1]}] * 2,
        "nodes": [
            {"block": b, "branch": list(br), "children": list(kids)}
            for b, br, kids in nodes
        ],
        "root": root,
        "meta": {},
    }
    return json.dumps(doc)


#: tree files the loader rejects: root's children query different blocks;
#: one child is a leaf and the other is not; node 1 sits at depths 1 and 2;
#: a query of a block with no space; a branch longer than its block space
BAD_TREE_TEXTS = {
    "no-such-block": _tree_text([(5, (0, 1), (-1, -1))], 0),
    "branch-length": _tree_text([(0, (0, 1, 1), (-1, -1))], 0),
    "non-oblivious": _tree_text(
        [(1, (0, 1), (-1, -1)), (0, (0, 1), (-1, -1)), (0, (0, 1), (0, 1))], 2
    ),
    "unbalanced": _tree_text([(1, (0, 1), (-1, -1)), (0, (0, 1), (0, -1))], 1),
    "two-depths": _tree_text(
        [
            (1, (0, 1), (-1, -1)),
            (1, (0, 1), (0, 0)),
            (1, (0, 1), (1, 1)),
            (0, (0, 1), (2, 1)),
        ],
        3,
    ),
}
