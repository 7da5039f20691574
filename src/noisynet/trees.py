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

Trees are immutable; rearranged trees share subtree structure with
their inputs (children tuples may repeat one object).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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


# -- tree structure ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Leaf:
    pass


@dataclass(frozen=True, eq=False)
class Node:
    """Internal node: query ``block``; ``branch[value index] = child index``."""

    block: int
    branch: tuple
    children: tuple

    def __post_init__(self):
        if not self.children:
            raise ValueError("internal node needs children")
        if any(not 0 <= c < len(self.children) for c in self.branch):
            raise ValueError("branch target out of range")


_LEAF = Leaf()


def depth(t) -> int:
    """Common leaf depth; rejects unbalanced trees."""
    memo: dict = {}

    def rec(v):
        if isinstance(v, Leaf):
            return 0
        got = memo.get(id(v))
        if got is not None:
            return got
        ds = {rec(c) for c in v.children}
        if len(ds) != 1:
            raise ValueError("tree is not balanced")
        d = ds.pop() + 1
        memo[id(v)] = d
        return d

    return rec(t)


def level_blocks(t) -> list:
    """Block queried at each level (root first); rejects non-oblivious trees."""
    out = []
    frontier = [t]
    while frontier and not isinstance(frontier[0], Leaf):
        blocks = {v.block for v in frontier}
        arities = {len(v.children) for v in frontier}
        if len(blocks) != 1 or len(arities) != 1:
            raise ValueError("tree is not oblivious (or has ragged arity)")
        out.append(blocks.pop())
        seen: dict = {}
        nxt = []
        for v in frontier:
            for c in v.children:
                if id(c) not in seen:
                    seen[id(c)] = True
                    nxt.append(c)
        if any(isinstance(c, Leaf) for c in nxt) and any(
            not isinstance(c, Leaf) for c in nxt
        ):
            raise ValueError("tree is not balanced")
        frontier = nxt
    return out


def level_arities(t) -> list:
    out = []
    v = t
    while not isinstance(v, Leaf):
        out.append(len(v.children))
        v = v.children[0]
    return out


def is_ordered(t) -> bool:
    """Oblivious, and each block's queries occupy consecutive levels."""
    lb = level_blocks(t)
    seen = set()
    for i, b in enumerate(lb):
        if b in seen and lb[i - 1] != b:
            return False
        seen.add(b)
    return True


def is_read_once(t) -> bool:
    lb = level_blocks(t)
    return len(lb) == len(set(lb))


def alternations(t) -> set:
    """1-based levels l >= 3 whose block was queried before l-1 but not at l-1."""
    lb = level_blocks(t)
    out = set()
    for i in range(2, len(lb)):
        if lb[i] != lb[i - 1] and lb[i] in lb[: i - 1]:
            out.add(i + 1)
    return out


def count_paths(t) -> int:
    total = 1
    for a in level_arities(t):
        total *= a
        if total > MAX_TREE_PATHS:
            raise TreeCapExceeded(f"tree has more than {MAX_TREE_PATHS} paths")
    return total


def evaluate(t, assignment) -> tuple:
    """Root-to-leaf walk; ``assignment[j]`` is block j's value index.

    Returns the leaf's path (tuple of child choices).
    """
    path = []
    v = t
    while not isinstance(v, Leaf):
        c = v.branch[assignment[v.block]]
        path.append(c)
        v = v.children[c]
    return tuple(path)


# -- leaf functionals -------------------------------------------------------


def _leaf_products(t, weights) -> dict:
    """path -> prod_j sum(masked weights_j); zero-mass subtrees pruned.

    ``weights[j]`` is a signed weight vector over block j's values.  A
    block never queried on a path contributes its full vector sum.
    """
    count_paths(t)
    base = [np.asarray(w, dtype=float) for w in weights]
    out: dict = {}

    def rec(v, path, vecs):
        if isinstance(v, Leaf):
            prod = 1.0
            for w in vecs:
                prod *= w.sum()
            out[path] = prod
            return
        j = v.block
        branch = np.asarray(v.branch)
        for c in range(len(v.children)):
            wc = vecs[j] * (branch == c)
            if not wc.any():
                continue
            nv = list(vecs)
            nv[j] = wc
            rec(v.children[c], path + (c,), nv)

    rec(t, (), list(base))
    return out


def leaf_correlations(t, spaces, mu=None) -> dict:
    """path -> E[f 1_leaf] with f = prod h_j, under mu (or the spaces' law)."""
    hs = [np.array(sp.h, dtype=float) for sp in spaces]
    mus = [sp.mu() for sp in spaces] if mu is None else [np.asarray(m) for m in mu]
    return _leaf_products(t, [m * h for m, h in zip(mus, hs)])


def leaf_law(t, conditionals) -> dict:
    """path -> reach probability under explicit per-block laws."""
    return _leaf_products(t, conditionals)


def tree_advantage(t, spaces, mu=None):
    """Exact advantage for the product target, plus the sign weighting."""
    corr = leaf_correlations(t, spaces, mu=mu)
    value = sum(abs(v) for v in corr.values())
    weighting = {path: (1 if v >= 0 else -1) for path, v in corr.items()}
    return value, weighting


# -- rearrangements ---------------------------------------------------------


def _cut_last_level(t, r):
    """Replace level r-1 internal nodes (those above the leaves) by leaves."""
    memo: dict = {}

    def rec(v, d):
        if d == r - 1:
            return _LEAF
        got = memo.get(id(v))
        if got is None:
            got = Node(
                v.block, v.branch, tuple(rec(c, d + 1) for c in v.children)
            )
            memo[id(v)] = got
        return got

    return rec(t, 0)


def move_to_root(t, spaces, mu=None):
    """Move the last level's block (queried nowhere else) to the root.

    Among the nodes querying that block at the last level, the branch
    function with the largest |beta(v)| is promoted, where
    beta(v) = E[h(X_block) b(branch_v(X_block))] and b is the optimal
    sign weighting of the input tree; ties break toward the first node
    in path order.  Returns (tree, witness weighting, info).  The
    witness b_hat certifies adv(out) >= adv(in): its correlation equals
    E[|alpha|] |beta(v*)| >= adv(in).
    """
    lb = level_blocks(t)
    if not lb:
        raise ValueError("depth-0 tree has nothing to move")
    target = lb[-1]
    if target in lb[:-1]:
        raise ValueError("target block must be queried only at the last level")
    r = len(lb)
    mus = [sp.mu() for sp in spaces] if mu is None else [np.asarray(m) for m in mu]
    hs = [np.array(sp.h, dtype=float) for sp in spaces]
    signed = [m * h for m, h in zip(mus, hs)]
    corr = _leaf_products(t, signed)
    b = {path: (1.0 if v >= 0 else -1.0) for path, v in corr.items()}

    # walk to the last internal level, carrying per-block masked weights
    # for alpha (blocks other than the target; the target is untouched
    # above the last level by the precondition)
    last_nodes: list = []  # (path, node, alpha)

    def rec(v, d, path, w_mu, w_sig):
        if d == r - 1:
            alpha = 1.0
            for j in range(len(spaces)):
                if j == target:
                    continue
                pj = w_mu[j].sum()
                alpha = 0.0 if pj <= 0.0 else alpha * (w_sig[j].sum() / pj)
            last_nodes.append((path, v, alpha))
            return
        j = v.block
        branch = np.asarray(v.branch)
        for c in range(len(v.children)):
            mask = branch == c
            wm = w_mu[j] * mask
            if not wm.any():
                continue
            nm, ns = list(w_mu), list(w_sig)
            nm[j] = wm
            ns[j] = w_sig[j] * mask
            rec(v.children[c], d + 1, path + (c,), nm, ns)

    rec(t, 0, (), list(mus), list(signed))
    if not last_nodes:
        raise ValueError("no reachable node at the last level")

    sig_k = signed[target]
    best = None
    for path, v, _alpha in last_nodes:
        branch = np.asarray(v.branch)
        beta = sum(
            b.get(path + (c,), 1.0) * float(sig_k[branch == c].sum())
            for c in range(len(v.children))
        )
        if best is None or abs(beta) > abs(best[2]) + 1e-15:
            best = (path, v, beta)
    v_star_path, v_star, beta_star = best

    t_minus = _cut_last_level(t, r) if r > 1 else _LEAF
    arity = len(v_star.children)
    out = Node(target, v_star.branch, (t_minus,) * arity)

    witness = {}
    for path, _v, alpha in last_nodes:
        s = 1.0 if alpha >= 0 else -1.0
        for c in range(arity):
            witness[(c,) + path] = s * b.get(v_star_path + (c,), 1.0)
    info = {
        "target_block": target,
        "chosen_path": v_star_path,
        "beta": beta_star,
        "candidates": len(last_nodes),
    }
    return out, witness, info


def _strides(arities):
    """Mixed-radix place values of a run's arities (first slowest), and
    the run's outcome count."""
    out, acc = [], 1
    for a in reversed(arities):
        out.append(acc)
        acc *= a
    return list(reversed(out)), acc


def merge_superqueries(t):
    """Merge maximal runs of same-block levels into single superqueries.

    Returns (tree, record); ``record[i] = (block, [arities of the merged
    levels])`` lets :func:`expand_superqueries` restore a tree with the
    original per-level shape (and an identical leaf law).  Alternation
    count is invariant under the merge.
    """
    lb = level_blocks(t)
    ar = level_arities(t)
    runs = []
    i = 0
    while i < len(lb):
        j = i
        while j + 1 < len(lb) and lb[j + 1] == lb[i]:
            j += 1
        runs.append((i, j + 1))
        i = j + 1
    record = [(lb[i], ar[i:j]) for i, j in runs]

    memo: dict = {}

    def rec(v, run_idx):
        if isinstance(v, Leaf):
            return _LEAF
        got = memo.get((id(v), run_idx))
        if got is not None:
            return got
        i, j = runs[run_idx]
        arities = ar[i:j]
        st, total = _strides(arities)
        if total > MAX_TREE_PATHS:
            raise TreeCapExceeded("superquery outcome space too large")
        block = v.block
        nvals = len(v.branch)
        # branch: follow the value through the run; child(code): follow
        # the code digits structurally
        branch = []
        for s in range(nvals):
            node, code = v, 0
            for lvl in range(i, j):
                c = node.branch[s]
                code += c * st[lvl - i]
                node = node.children[c]
            branch.append(code)
        children = []
        for code in range(total):
            node = v
            for lvl in range(i, j):
                node = node.children[(code // st[lvl - i]) % ar[lvl]]
            children.append(rec(node, run_idx + 1))
        got = Node(block, tuple(branch), tuple(children))
        memo[(id(v), run_idx)] = got
        return got

    merged = rec(t, 0) if runs else t
    return merged, record


def expand_superqueries(t, record):
    """Split each superquery back into a chain of smaller queries.

    ``record`` must list (block, arities) per level of ``t`` with the
    product of arities matching the node's arity.  The expanded chain
    at a node queries the same block once per sub-level; sub-level m
    branches on digit m of the superquery's outcome code, so the leaf
    law is unchanged.
    """
    lb = level_blocks(t)
    if len(record) != len(lb):
        raise ValueError("record length does not match tree depth")

    memo: dict = {}

    def rec(v, lvl):
        if isinstance(v, Leaf):
            return _LEAF
        got = memo.get((id(v), lvl))
        if got is not None:
            return got
        block, arities = record[lvl]
        if block != v.block:
            raise ValueError("record block mismatch")
        st, total = _strides(arities)
        if total != len(v.children):
            raise ValueError("record arities do not match node arity")

        def _build_chain(m, prefix):
            # sub-level m; branch by digit m of each value's full code
            digit = tuple((code // st[m]) % arities[m] for code in v.branch)
            if m == len(arities) - 1:
                kids = []
                for c in range(arities[m]):
                    code = sum(d * st[i] for i, d in enumerate(prefix + (c,)))
                    kids.append(rec(v.children[code], lvl + 1))
                return Node(v.block, digit, tuple(kids))
            kids = tuple(
                _build_chain(m + 1, prefix + (c,)) for c in range(arities[m])
            )
            return Node(v.block, digit, kids)

        got = _build_chain(0, ())
        memo[(id(v), lvl)] = got
        return got

    return rec(t, 0)


def _conditional_mu(vecs):
    """Normalize masked weight vectors; zero-mass blocks fall back to
    uniform (they contribute nothing to the advantage)."""
    out = []
    for w in vecs:
        s = w.sum()
        if s <= 0:
            out.append(np.full(len(w), 1.0 / len(w)))
        else:
            out.append(w / s)
    return out


def reorder(t, spaces):
    """Rearrange an oblivious tree into an ordered one, advantage
    non-decreasing at every step.

    Each iteration works on the superquery-merged tree.  If the last
    superquery's block is fresh (queried nowhere earlier) it is moved
    to the root, pushing the last alternation one level deeper;
    otherwise the last superquery alternates with an earlier run at
    level r'' and move-to-root is applied to every subtree rooted just
    below r'', removing that alternation.  The pair (alternation count,
    -depth of last alternation) strictly decreases lexicographically,
    which bounds the iteration count; the per-step log is returned as a
    termination certificate.
    """
    cert = []
    current = t
    guard = (len(spaces) * max(1, len(level_blocks(t)))) ** 2 + 1
    adv_before, _ = tree_advantage(current, spaces)
    for _step in range(guard):
        alts = alternations(current)
        if not alts:
            cert.append({"alternations": 0, "advantage": adv_before})
            return current, cert
        merged, record = merge_superqueries(current)
        lb = level_blocks(merged)
        rq = len(lb)
        if lb[-1] not in lb[:-1]:
            new_merged, _w, info = move_to_root(merged, spaces)
            new_record = [record[-1]] + record[:-1]
            case = "fresh-last-block"
        else:
            r2 = max(i for i in range(rq - 1) if lb[i] == lb[-1])
            cut = r2 + 1

            def rebuild(v, d, vecs):
                if d == cut:
                    sub, _w, _i = move_to_root(
                        v, spaces, mu=_conditional_mu(vecs)
                    )
                    return sub
                branch = np.asarray(v.branch)
                kids = []
                for c in range(len(v.children)):
                    nv = list(vecs)
                    nv[v.block] = vecs[v.block] * (branch == c)
                    kids.append(rebuild(v.children[c], d + 1, nv))
                return Node(v.block, v.branch, tuple(kids))

            new_merged = rebuild(merged, 0, [sp.mu() for sp in spaces])
            new_record = record[:cut] + [record[-1]] + record[cut:-1]
            info = {"cut_level": cut}
            case = "last-level-alternation"
        current = expand_superqueries(new_merged, new_record)
        adv_after, _ = tree_advantage(current, spaces)
        cert.append(
            {
                "case": case,
                "alternations": len(alts),
                "last_alternation": max(alts),
                "advantage_before": adv_before,
                "advantage_after": adv_after,
                "info": {k: v for k, v in info.items() if k != "chosen_path"},
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


def query_functions(t) -> list:
    """All (block, branch, arity) labels in the tree (deduplicated)."""
    seen: dict = {}
    out = []
    stack = [t]
    visited = set()
    while stack:
        v = stack.pop()
        if isinstance(v, Leaf) or id(v) in visited:
            continue
        visited.add(id(v))
        key = (v.block, v.branch, len(v.children))
        if key not in seen:
            seen[key] = True
            out.append(key)
        stack.extend(v.children)
    return out


def query_multiset(t) -> dict:
    """block -> number of levels querying it."""
    out: dict = {}
    for b in level_blocks(t):
        out[b] = out.get(b, 0) + 1
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


# -- read-once analysis -----------------------------------------------------


def single_query_advantage(branch, arity, space, mu=None) -> float:
    """Advantage of one query g: S_j -> outcomes for target h_j."""
    sig = space.signed() if mu is None else np.asarray(mu) * np.array(space.h, float)
    branch = np.asarray(branch)
    return float(sum(abs(sig[branch == c].sum()) for c in range(arity)))


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
    alphas: dict = {}
    stack = [t]
    seen = set()
    while stack:
        v = stack.pop()
        if isinstance(v, Leaf) or id(v) in seen:
            continue
        seen.add(id(v))
        a = single_query_advantage(v.branch, len(v.children), spaces[v.block])
        alphas[v.block] = max(alphas.get(v.block, 0.0), a)
        stack.extend(v.children)
    bound = 1.0
    for a in alphas.values():
        bound *= a
    if value > bound + 1e-9:
        raise AssertionError(
            f"read-once advantage {value} exceeds product bound {bound}"
        )
    return value, weighting, alphas


# -- serialization ----------------------------------------------------------


def _space_to_json(sp: BlockSpace) -> dict:
    return {"values": list(sp.values), "probs": list(sp.probs), "h": list(sp.h)}


def _space_from_json(d: dict) -> BlockSpace:
    def freeze(v):
        return tuple(freeze(x) for x in v) if isinstance(v, list) else v

    return BlockSpace(
        values=tuple(freeze(v) for v in d["values"]),
        probs=tuple(d["probs"]),
        h=tuple(d["h"]),
    )


def tree_to_json(t, spaces, meta=None) -> str:
    nodes: dict = {}
    order: list = []

    def rec(v):
        if isinstance(v, Leaf):
            return -1
        if id(v) in nodes:
            return nodes[id(v)]
        kids = [rec(c) for c in v.children]
        idx = len(order)
        nodes[id(v)] = idx
        order.append(
            {"block": v.block, "branch": list(v.branch), "children": kids}
        )
        return idx

    root = rec(t)
    doc = {
        "version": 1,
        "spaces": [_space_to_json(sp) for sp in spaces],
        "nodes": order,
        "root": root,
        "meta": meta or {},
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def tree_from_json(text: str):
    doc = json.loads(text)
    if doc.get("version") != 1:
        raise ValueError("unsupported tree file version")
    spaces = [_space_from_json(d) for d in doc["spaces"]]
    built: list = [None] * len(doc["nodes"])
    for i, nd in enumerate(doc["nodes"]):
        kids = tuple(_LEAF if c == -1 else built[c] for c in nd["children"])
        if any(k is None for k in kids):
            raise ValueError("node order in tree file is not topological")
        built[i] = Node(nd["block"], tuple(nd["branch"]), kids)
    root = _LEAF if doc["root"] == -1 else built[doc["root"]]
    return root, spaces, doc.get("meta", {})


def trees_equal(a, b) -> bool:
    """Structural equality (nodes compare by identity otherwise)."""
    if isinstance(a, Leaf) and isinstance(b, Leaf):
        return True
    if isinstance(a, Leaf) or isinstance(b, Leaf):
        return False
    if a.block != b.block or a.branch != b.branch:
        return False
    if len(a.children) != len(b.children):
        return False
    return all(trees_equal(x, y) for x, y in zip(a.children, b.children))
