"""Balanced oblivious decision trees over finite per-block value sets,
the oblivious / ordered / read-once hierarchy, and the rearrangement
algorithms (move-to-root, reordering, read-once collapse).

A tree queries k independent blocks; block j takes values in a finite
set carried by a :class:`BlockSpace` together with its distribution and
a +/-1 block target h_j.  The global target is the product
f(x) = h_1(x_1) ... h_k(x_k).  Noisy-query trees fit this shape by
folding the noise into the block value: a block value is then a pair
(input part, noise part) with a product law, and h depends only on the
input part.

All rearrangements assume a product distribution and a product target;
that assumption is what makes the leaf correlation factorize as

    E[f 1_leaf] = prod_j E[h_j(X_j) 1{block-j branch choices on the path}]

which the exact advantage, move-to-root and reorder all exploit.

A :class:`Tree` is stored level by level, as an ordered branching
program, and the functionals make one pass over the levels with every
root path's masked block weights as arrays, in path order.  Trees are
immutable and may share arrays.  Which nodes are distinct is part of a
tree: the nodes of a level are distinct exactly where a rearrangement
made them so (a node's children may all be one node), and
:func:`tree_to_json` writes each node once, so the sharing shows in the
tree text.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import TreeCapExceeded

MAX_TREE_PATHS = 2**16


# -- block spaces -----------------------------------------------------------


@dataclass(frozen=True)
class BlockSpace:
    """Finite value set for one block with its law and +/-1 target."""

    values: tuple
    probs: tuple
    h: tuple  # +1/-1 per value

    def __post_init__(self):
        if not (len(self.values) == len(self.probs) == len(self.h)):
            raise ValueError("values, probs and h must have equal length")
        if abs(sum(self.probs) - 1.0) > 1e-9:
            raise ValueError("block distribution must sum to 1")
        if any(p < 0 for p in self.probs):
            raise ValueError("negative probability")
        if any(v not in (-1, 1) for v in self.h):
            raise ValueError("h values must be +1 or -1")

    @property
    def size(self) -> int:
        return len(self.values)

    def mu(self) -> np.ndarray:
        return np.array(self.probs, dtype=float)

    def signed(self) -> np.ndarray:
        return self.mu() * np.array(self.h, dtype=float)


# -- tree structure ---------------------------------------------------------


def _frozen(arrays, ndim):
    out = tuple(np.asarray(a, dtype=np.intp) for a in arrays)
    for a in out:
        if a.ndim != ndim:
            raise ValueError(f"tree level arrays must have {ndim} dimensions")
        a.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Tree:
    """Balanced oblivious tree, one entry per level, root level first.

    Level l queries ``blocks[l]``; the root is node 0 of level 0.  The
    i-th node of level l branches by row ``row_of[l][i]`` of ``rows[l]``
    (one child choice per block value) to node ``children[l][i, c]`` of
    level l + 1; the last level's children are the single leaf 0.  Every
    node below the root is some node's child.  A lone leaf has no levels.
    """

    blocks: tuple
    rows: tuple
    row_of: tuple
    children: tuple

    def __post_init__(self):
        put = object.__setattr__
        put(self, "blocks", tuple(int(b) for b in self.blocks))
        put(self, "rows", _frozen(self.rows, 2))
        put(self, "row_of", _frozen(self.row_of, 1))
        put(self, "children", _frozen(self.children, 2))
        n = len(self.blocks)
        if not len(self.rows) == len(self.row_of) == len(self.children) == n:
            raise ValueError("tree levels disagree in number")
        for l, (rows, row_of, kids) in enumerate(zip(self.rows, self.row_of, self.children)):
            if (l == 0 and len(row_of) != 1) or kids.shape[0] != len(row_of):
                raise ValueError("level node counts do not match")
            if not kids.size:
                raise ValueError("internal node needs children")
            # bincount rejects negative entries itself
            if len(np.bincount(rows.ravel())) > kids.shape[1]:
                raise ValueError("branch target out of range")
            if len(np.bincount(row_of)) > len(rows):
                raise ValueError("branch row out of range")
            n_next = len(self.row_of[l + 1]) if l + 1 < n else 1
            reached = np.bincount(kids.ravel(), minlength=n_next)
            if len(reached) != n_next or not reached.all():
                raise ValueError("child index out of range, or a node nobody's child")

    @property
    def arities(self) -> list:
        return [kids.shape[1] for kids in self.children]

    def branch(self, level: int, node: int) -> tuple:
        """The child choice per block value at one node."""
        return tuple(self.rows[level][self.row_of[level][node]].tolist())


def depth(t) -> int:
    return len(t.blocks)


def level_blocks(t) -> list:
    """Block queried at each level (root first)."""
    return list(t.blocks)


def alternations(t) -> set:
    """1-based levels l >= 3 whose block was queried before l-1 but not at l-1."""
    lb = level_blocks(t)
    return {
        i + 1 for i in range(2, len(lb)) if lb[i] != lb[i - 1] and lb[i] in lb[: i - 1]
    }


def is_ordered(t) -> bool:
    """Each block's queries occupy consecutive levels."""
    return not alternations(t)


def is_read_once(t) -> bool:
    return len(t.blocks) == len(set(t.blocks))


def count_paths(t) -> int:
    total = math.prod(t.arities)
    if total > MAX_TREE_PATHS:
        raise TreeCapExceeded(f"{total} tree paths exceed {MAX_TREE_PATHS}", size=total)
    return total


def query_multiset(t) -> dict:
    """block -> number of levels querying it."""
    return {b: t.blocks.count(b) for b in t.blocks}


# -- path walks -------------------------------------------------------------


def _roots(nodes):
    """Walk state with one empty path per starting node: (owner, paths,
    nodes, masks), ``owner[i]`` being the start path i descends from."""
    nodes = np.asarray(nodes, dtype=np.intp)
    return np.arange(len(nodes)), np.zeros((len(nodes), 0), np.intp), nodes, {}


def _walk(t, state, levels, support=None):
    """Extend every path of ``state`` through ``levels``, in path order.

    ``masks[j]`` holds, one row per path, the block-j values its choices
    admit (blocks it never queried are absent).  With ``support`` (a
    boolean row per owner and block), a path is dropped once the block
    it queries admits no supported value: zero-mass pruning.
    """
    owner, paths, nodes, masks = state
    for l in levels:
        b, arity, n = t.blocks[l], t.arities[l], len(nodes)
        branch = t.rows[l][t.row_of[l][nodes]]
        hit = branch[:, None, :] == np.arange(arity)[:, None]
        if b in masks or support is not None:
            hit &= (masks[b] if b in masks else support[b][owner])[:, None, :]
        hit = hit.reshape(n * arity, branch.shape[1])
        keep = hit.any(axis=1) if support is not None else np.ones(n * arity, bool)
        parent = np.repeat(np.arange(n), arity)[keep]
        owner, nodes = owner[parent], t.children[l][nodes].ravel()[keep]
        paths = np.column_stack([paths[parent], np.tile(np.arange(arity), n)[keep]])
        masks = {j: m[parent] for j, m in masks.items()}
        masks[b] = hit[keep]
    return owner, paths, nodes, masks


def _products(ws, state):
    """Per path: prod_j of the sums of block j's weights (one row per
    owner) that its choices admit, block order."""
    owner, _paths, _nodes, masks = state
    prod = np.ones(len(owner))
    for j, w in enumerate(ws):
        prod = prod * (w[owner] * masks.get(j, True)).sum(axis=1)
    return prod


# -- leaf functionals -------------------------------------------------------


def _leaf_products(t, weights) -> dict:
    """path -> prod_j sum(masked weights_j); zero-mass subtrees pruned.

    ``weights[j]`` is a signed weight vector over block j's values.  A
    block never queried on a path contributes its full vector sum.
    """
    count_paths(t)
    ws = [np.asarray(w, dtype=float)[None, :] for w in weights]
    state = _walk(t, _roots([0]), range(depth(t)), [w != 0 for w in ws])
    return dict(zip(map(tuple, state[1].tolist()), _products(ws, state)))


def leaf_correlations(t, spaces) -> dict:
    """path -> E[f 1_leaf] with f = prod h_j under the spaces' law."""
    return _leaf_products(t, [sp.signed() for sp in spaces])


def leaf_law(t, conditionals) -> dict:
    """path -> reach probability under explicit per-block laws."""
    return _leaf_products(t, conditionals)


def tree_advantage(t, spaces):
    """Exact advantage for the product target, plus the sign weighting."""
    corr = leaf_correlations(t, spaces)
    value = sum(abs(v) for v in corr.values())
    weighting = {path: (1 if v >= 0 else -1) for path, v in corr.items()}
    return value, weighting


# -- rearrangements ---------------------------------------------------------


def _move_below(t, cut, spaces):
    """Move-to-root applied to the subtree below every path to level ``cut``.

    The levels above ``cut`` get one node per path (no pruning), and each
    path gets its own block laws, one row per path: a block queried above
    ``cut`` has its law renormalised on the values the path admits (a
    zero-mass path falls back to uniform; it adds no advantage), and any
    other block keeps its prior law ``sp.mu()``.  Below a path, the
    candidates are the last-level nodes it reaches; the one whose branch
    has the largest |beta(v)| goes up to level ``cut``, ties toward the
    first in path order.  Its children all share the path's own copy of
    the subtree minus the last level.

    A block not queried above ``cut`` keeps ``mu`` rather than
    ``mu / mu.sum()``, and ``mu.sum()`` need not be exactly 1.0.  The
    target block is always queried above a positive cut, so the betas do
    not see this; the other blocks enter the choice only through the
    signs of their factor sums, which a positive scale keeps, unless a
    sum that is zero in exact arithmetic rounds to 0.0 on one side only.
    """
    last = depth(t) - 1
    target, arity = t.blocks[last], t.arities[last]
    above = _walk(t, _roots([0]), range(cut))
    mus = [np.tile(sp.mu(), (len(above[0]), 1)) for sp in spaces]
    for j, admitted in above[3].items():
        w = mus[j] * admitted
        s = w.sum(axis=1)[:, None]
        mus[j] = np.divide(w, s, out=np.full_like(w, 1.0 / w.shape[1]), where=s > 0)
    signed = [m * np.array(sp.h, dtype=float) for m, sp in zip(mus, spaces)]
    cand = _walk(t, _roots(above[2]), range(cut, last), [m != 0 for m in mus])
    owner, _paths, nodes, _masks = cand
    # the optimal signs of the candidates' children; a pruned child's
    # product has a zero factor, so it signs +1 like an unreached leaf
    corr = _products(signed, _walk(t, cand, [last]))
    b = np.where(corr >= 0, 1.0, -1.0).reshape(-1, arity)
    # beta(v) = sum_c b(v, c) E[h 1{branch_v = c}] from compressed sums,
    # one per distinct (path, branch row)
    n_rows, sig = len(t.rows[last]), signed[target]
    keys, inverse = np.unique(owner * n_rows + t.row_of[last][nodes], return_inverse=True)
    sums = np.array(
        [
            [sig[k // n_rows][t.rows[last][k % n_rows] == c].sum() for c in range(arity)]
            for k in keys.tolist()
        ]
    ).reshape(-1, arity)[inverse]
    beta = 0.0
    for c in range(arity):
        beta = beta + b[:, c] * sums[:, c]
    betas, chosen = beta.tolist(), {}
    for i, p in enumerate(owner.tolist()):
        if p not in chosen or abs(betas[i]) > abs(betas[chosen[p]]) + 1e-15:
            chosen[p] = i
    n_paths = len(above[0])
    if len(chosen) != n_paths:
        raise ValueError("no reachable node at the last level")
    star = np.array([chosen[p] for p in range(n_paths)], dtype=np.intp)

    row_of, kids, at = [], [], np.zeros(1, np.intp)
    for l in range(cut):
        row_of.append(t.row_of[l][at])
        kids.append(np.arange(len(at) * t.arities[l]).reshape(-1, t.arities[l]))
        at = t.children[l][at].ravel()
    row_of.append(t.row_of[last][nodes[star]])
    kids.append(np.repeat(np.arange(n_paths)[:, None], arity, axis=1))
    owner = np.arange(n_paths)
    for l in range(cut, last):
        n_next = len(t.row_of[l + 1])
        keys, inverse = np.unique(owner[:, None] * n_next + t.children[l][at], return_inverse=True)
        row_of.append(t.row_of[l][at])
        kids.append(inverse.reshape(len(at), -1))
        owner, at = keys // n_next, keys % n_next
    kids[-1] = np.zeros_like(kids[-1])  # the new last level reaches the leaf
    return Tree(
        t.blocks[:cut] + (target,) + t.blocks[cut:last],
        t.rows[:cut] + (t.rows[last],) + t.rows[cut:last],
        row_of,
        kids,
    )


def merge_superqueries(t):
    """Merge maximal runs of same-block levels into single superqueries.

    Returns (tree, record); ``record[i] = (block, [arities of the merged
    levels])`` lets :func:`expand_superqueries` restore a tree with the
    original per-level shape (and an identical leaf law).  Alternation
    count is invariant under the merge.  A merged level's nodes are
    those of its run's first level, and a superquery's outcome code
    lists the run's choices as mixed-radix digits, first slowest.
    """
    runs = [(b, len(list(g))) for b, g in itertools.groupby(t.blocks)]
    record, rows, row_of, kids, i = [], [], [], [], 0
    for _b, n_levels in runs:
        ar = t.arities[i : i + n_levels]
        space = math.prod(ar)
        if space > MAX_TREE_PATHS:
            raise TreeCapExceeded(
                f"superquery outcome space {space} exceeds {MAX_TREE_PATHS}", size=space
            )
        record.append((t.blocks[i], ar))
        if n_levels == 1:
            rows.append(t.rows[i])
            row_of.append(t.row_of[i])
            kids.append(t.children[i])
        else:
            # branch: follow each value through the run; children: follow
            # the code digits structurally
            n, size = len(t.row_of[i]), t.rows[i].shape[1]
            node, code = np.repeat(np.arange(n)[:, None], size, axis=1), 0
            reach = np.arange(n)[:, None]
            for l in range(i, i + n_levels):
                c = t.rows[l][t.row_of[l][node], np.arange(size)]
                code, node = code * t.arities[l] + c, t.children[l][node, c]
                reach = t.children[l][reach].reshape(n, -1)
            rows.append(code)
            row_of.append(np.arange(n))
            kids.append(reach)
        i += n_levels
    return Tree([b for b, _n in runs], rows, row_of, kids), record


def expand_superqueries(t, record):
    """Split each superquery back into a chain of smaller queries.

    ``record`` must list (block, arities) per level of ``t`` with the
    product of arities matching the node's arity.  The expanded chain
    at a node queries the same block once per sub-level, with one node
    per prefix of the chain; sub-level m branches on digit m of the
    superquery's outcome code, so the leaf law is unchanged.
    """
    if len(record) != depth(t):
        raise ValueError("record length does not match tree depth")
    blocks, rows, row_of, kids = [], [], [], []
    for l, (block, arities) in enumerate(record):
        if block != t.blocks[l]:
            raise ValueError("record block mismatch")
        if math.prod(arities) != t.arities[l]:
            raise ValueError("record arities do not match node arity")
        n = len(t.row_of[l])
        for m, a in enumerate(arities):
            before = math.prod(arities[:m])  # node (v, prefix): v * before + prefix
            blocks.append(block)
            rows.append(t.rows[l] // math.prod(arities[m + 1 :]) % a)
            row_of.append(np.repeat(t.row_of[l], before))
            if m + 1 < len(arities):
                kids.append(np.arange(n * before * a).reshape(-1, a))
            else:
                kids.append(t.children[l].reshape(-1, a))
    return Tree(blocks, rows, row_of, kids)


def reorder(t, spaces):
    """Rearrange an oblivious tree into an ordered one, advantage
    non-decreasing at every step.

    Each iteration works on the superquery-merged tree and takes one
    step: the last superquery moves just below the last earlier run of
    its block, or to the root when there is none.  That is, with
    ``cut`` the level after that run (0 when the block is fresh),
    move-to-root is applied to every subtree rooted at level ``cut``,
    each under the block laws of its path (:func:`_move_below`).  The
    pair (alternation count, -depth of last alternation) strictly
    decreases lexicographically, which bounds the iteration count; the
    per-step log, with each step's ``cut_level``, is returned as a
    termination certificate.
    """
    cert = []
    current = t
    guard = (len(spaces) * max(1, depth(t))) ** 2 + 1
    adv_before, _ = tree_advantage(current, spaces)
    for _step in range(guard):
        alts = alternations(current)
        if not alts:
            cert.append({"alternations": 0, "advantage": adv_before})
            return current, cert
        merged, record = merge_superqueries(current)
        lb = level_blocks(merged)
        cut = max((i + 1 for i, b in enumerate(lb[:-1]) if b == lb[-1]), default=0)
        new_merged = _move_below(merged, cut, spaces)
        current = expand_superqueries(new_merged, record[:cut] + record[-1:] + record[cut:-1])
        adv_after, _ = tree_advantage(current, spaces)
        cert.append(
            {
                "cut_level": cut,
                "alternations": len(alts),
                "last_alternation": max(alts),
                "advantage_before": adv_before,
                "advantage_after": adv_after,
            }
        )
        adv_before = adv_after  # the next step starts from this tree
    raise RuntimeError("reorder failed to terminate within its bound")


def collapse_to_read_once(t):
    """Merge each block's consecutive run into one query (ordered input).

    For noisy-query trees the block's noise component simply stays part
    of the block value, i.e. it becomes the collapsed query's internal
    randomness.
    """
    if not is_ordered(t):
        raise ValueError("collapse requires an ordered tree")
    merged, record = merge_superqueries(t)
    if not is_read_once(merged):
        raise AssertionError("collapse of an ordered tree must be read-once")
    return merged, record


# -- read-once analysis -----------------------------------------------------


def single_query_advantage(branch, arity, space) -> float:
    """Advantage of one query g: S_j -> outcomes for target h_j."""
    sig, branch = space.signed(), np.asarray(branch)
    # an outcome no value takes adds abs(0.0), which leaves the sum as is
    outcomes = [c for c in np.unique(branch).tolist() if c < arity]
    return float(sum(abs(sig[branch == c].sum()) for c in outcomes))


def readonce_advantage(t, spaces):
    """Exact advantage of a read-once tree plus per-block query bounds.

    Returns (advantage, weighting, alphas) where alphas[j] is the
    largest single-query advantage among nodes querying block j;
    asserts advantage <= prod_j alpha_j (blocks never queried
    contribute |E h_j| <= 1 and are excluded from the product).
    """
    if not is_read_once(t):
        raise ValueError("requires a read-once tree")
    value, weighting = tree_advantage(t, spaces)
    alphas = {
        b: max(single_query_advantage(rows[r], a, spaces[b]) for r in np.unique(row_of).tolist())
        for b, rows, row_of, a in zip(t.blocks, t.rows, t.row_of, t.arities)
    }
    bound = math.prod(alphas.values())
    if value > bound + 1e-9:
        raise AssertionError(
            f"read-once advantage {value} exceeds product bound {bound}"
        )
    return value, weighting, alphas


# -- serialization ----------------------------------------------------------


def _space_to_json(sp: BlockSpace) -> dict:
    return {"values": list(sp.values), "probs": list(sp.probs), "h": list(sp.h)}


def _tuples(v):
    """A JSON value with its lists, at any depth, turned into tuples."""
    lists = [v] if isinstance(v, list) else []
    for x in lists:  # the loop reaches the lists it appends: all nested ones
        lists.extend(y for y in x if isinstance(y, list))
    for x in reversed(lists):  # inner lists first
        x[:] = [tuple(y) if isinstance(y, list) else y for y in x]
    return tuple(v) if isinstance(v, list) else v


def _space_from_json(d: dict) -> BlockSpace:
    return BlockSpace(
        values=tuple(_tuples(v) for v in d["values"]),
        probs=tuple(d["probs"]),
        h=tuple(d["h"]),
    )


def tree_to_json(t, spaces, meta=None) -> str:
    """Tree text: each node once, after its children (depth first,
    children in order); a leaf child is -1."""
    kids = [  # no children to visit below the last level
        c.tolist() if l + 1 < depth(t) else [[]] * len(c) for l, c in enumerate(t.children)
    ]
    index = [[-1] * len(r) for r in t.row_of]
    order, stack = [], [(0, 0)] if t.blocks else []
    while stack:
        l, v = stack[-1]
        todo = [(l + 1, c) for c in kids[l][v] if index[l + 1][c] < 0]
        if todo:
            stack.extend(reversed(todo))
            continue
        stack.pop()
        if index[l][v] < 0:
            index[l][v] = len(order)
            children = [index[l + 1][c] for c in kids[l][v]] or [-1] * t.arities[l]
            order.append({"block": t.blocks[l], "branch": list(t.branch(l, v)), "children": children})
    doc = {
        "version": 1,
        "spaces": [_space_to_json(sp) for sp in spaces],
        "nodes": order,
        "root": index[0][0] if t.blocks else -1,
        "meta": meta or {},
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def tree_from_json(text: str):
    """Read a tree text; rejects a tree that is unbalanced, not
    oblivious, reaches one node at two depths, or does not fit its block
    spaces (ValueError)."""
    doc = json.loads(text)
    if doc.get("version") != 1:
        raise ValueError("unsupported tree file version")
    spaces = [_space_from_json(d) for d in doc["spaces"]]
    nodes = doc["nodes"]
    if any(c != -1 and not 0 <= c < i for i, nd in enumerate(nodes) for c in nd["children"]):
        raise ValueError("node order in tree file is not topological")
    blocks, rows, kids = [], [], []
    level, seen = [] if doc["root"] == -1 else [doc["root"]], set()
    while level:
        nds = [nodes[i] for i in level]
        if len({(nd["block"], len(nd["children"]), len(nd["branch"])) for nd in nds}) != 1:
            raise ValueError("tree is not oblivious (or has ragged arity)")
        block = nds[0]["block"]
        if block not in range(len(spaces)) or len(nds[0]["branch"]) != spaces[block].size:
            raise ValueError("a level queries no block space or mis-sizes its branch")
        below = [c for nd in nds for c in nd["children"]]
        if -1 in below and set(below) != {-1}:
            raise ValueError("tree is not balanced")
        seen.update(level)
        level = [] if -1 in below else list(dict.fromkeys(below))
        if seen.intersection(level):
            raise ValueError("tree file reaches one node at two depths")
        pos = {c: k for k, c in enumerate(level)}
        blocks.append(block)
        rows.append([nd["branch"] for nd in nds])
        kids.append([[pos.get(c, 0) for c in nd["children"]] for nd in nds])
    root = Tree(blocks, rows, [np.arange(len(r)) for r in rows], kids)
    return root, spaces, doc.get("meta", {})
