"""Seeded random instances for the property suites: tiny protocols that
survive the full reduction chain, and random decision trees for the
rearrangement and product-bound suites.

Tiny protocols follow the cluster shape of decomposed networks: one
auxiliary hub per input block, adjacent exactly to that block's inputs,
with the hubs forming a clique that carries the transcript.  That keeps
every transmission's input reads inside a single block, which is the
structure the transcript-tree construction needs.
"""

from __future__ import annotations

import numpy as np

from .exprs import And, Const, Maj, Not, Or, OwnInput, Received, Xor
from .protocol import AuxRole, InputRole, Protocol, Transmission
from .trees import BlockSpace, Tree

_SHAPES = [(1, 1), (2, 1), (3, 1), (1, 2)]  # (k blocks, n bits per block)
_EPSES = [0.1, 0.2, 0.25]


def _random_expr(r, pool, depth):
    """Small random expression over a non-empty atom pool."""
    if depth == 0 or len(pool) == 1 or r.random() < 0.3:
        return pool[r.integers(len(pool))]
    op = r.integers(5)
    if op == 0:
        return Not(_random_expr(r.spawn("n"), pool, depth - 1))
    n_args = 2 + r.integers(min(2, len(pool)))
    args = tuple(
        _random_expr(r.spawn("a", i), pool, depth - 1) for i in range(n_args)
    )
    if op == 1:
        return Xor(args)
    if op == 2:
        return And(args)
    if op == 3:
        return Or(args)
    if len(args) == 2:
        args = args + (Const(r.integers(2)),)
    return Maj(args[:3])


def random_tiny_protocol(rng, index: int) -> Protocol:
    """A random general protocol with k <= 3 blocks of n <= 2 bits,
    at most 6 transmissions, suitable for exact-chain checks."""
    r = rng.spawn("tiny", index)
    k, n = _SHAPES[r.integers(len(_SHAPES))]
    eps = _EPSES[r.integers(len(_EPSES))]
    nk = k * n
    aux = [nk + j for j in range(k)]
    adjacency = {v: set() for v in range(nk + k)}
    blocks = {j + 1: list(range(j * n, (j + 1) * n)) for j in range(k)}
    for j, members in blocks.items():
        hub = aux[j - 1]
        for v in members:
            adjacency[v].add(hub)
            adjacency[hub].add(v)
        if len(members) == 2 and r.random() < 0.5:
            a, b = members
            adjacency[a].add(b)
            adjacency[b].add(a)
    for a in aux:
        for b in aux:
            if a != b:
                adjacency[a].add(b)

    roles = {}
    for j, members in blocks.items():
        for v in members:
            roles[v] = InputRole(j)
    for h in aux:
        roles[h] = AuxRole(int(r.spawn("fix", h).integers(2)))

    extra = 6 - k - nk  # transmissions beyond one per input node
    schedule = []
    tx_of: dict = {}  # node -> its transmission indices so far
    for j, members in blocks.items():
        for v in members:
            reps = 1
            if extra > 0 and r.spawn("reps", v).random() < 0.5:
                reps, extra = 2, extra - 1
            for rep in range(reps):
                pool = [OwnInput(0)]
                for w in members:
                    for t in tx_of.get(w, []):
                        if w != v and adjacency[v] & {w}:
                            pool.append(Received(t))
                expr = (
                    OwnInput(0)
                    if rep == 0 or r.spawn("e", v, rep).random() < 0.6
                    else Xor((OwnInput(0), pool[-1] if len(pool) > 1 else Const(0)))
                )
                tx_of.setdefault(v, []).append(len(schedule))
                schedule.append(Transmission(v, expr))
        hub = aux[j - 1]
        pool = [Const(roles[hub].fixed_bit)]
        for v in members:
            pool.extend(Received(t) for t in tx_of.get(v, []))
        pool.extend(Received(t) for t in sorted(s for h in aux for s in tx_of.get(h, [])))
        rr = r.spawn("hub", j)
        if len(pool) > 1 and rr.random() < 0.5:
            # bias toward parity-like transcripts so advantages are
            # nontrivial in a decent fraction of instances
            expr = Xor(tuple(pool[1:])) if len(pool) > 2 else pool[1]
        else:
            expr = _random_expr(rr, pool, 2)
        tx_of.setdefault(hub, []).append(len(schedule))
        schedule.append(Transmission(hub, expr))

    last = schedule[-1]
    return Protocol(
        n_nodes=nk + k,
        adjacency=adjacency,
        roles=roles,
        schedule=schedule,
        output_node=last.sender,
        output_expr=last.expr,
        eps=eps,
    )


def max_input_sends(p: Protocol) -> int:
    counts = p.tx_counts()
    return max((counts[v] for v in p.input_nodes()), default=0)


# -- random trees ------------------------------------------------------------


def random_spaces(rng, k: int, max_size: int = 3) -> list:
    """k random block spaces with random laws and +/-1 targets."""
    out = []
    for j in range(k):
        r = rng.spawn("space", j)
        size = 2 + int(r.integers(max_size - 1)) if max_size > 2 else 2
        raw = [0.25 + r.random() for _ in range(size)]
        total = sum(raw)
        probs = tuple(w / total for w in raw)
        probs = probs[:-1] + (1.0 - sum(probs[:-1]),)
        h = tuple(1 if r.spawn("h", i).random() < 0.5 else -1 for i in range(size))
        out.append(BlockSpace(tuple(range(size)), probs, h))
    return out


def random_oblivious_tree(rng, spaces, depth: int):
    """Full random binary oblivious tree: random level blocks, random branch
    functions per node."""
    r = rng.spawn("tree")
    k = len(spaces)
    levels = [int(r.spawn("lvl", i).integers(k)) for i in range(depth)]
    return _random_tree_for_levels(r, spaces, levels), levels


def _random_tree_for_levels(r, spaces, levels):
    """Full binary tree, one node per path; a node draws its branch from the
    substream of its depth-first pre-order number."""
    rows, number = [], np.zeros(1, dtype=np.intp)
    for d, b in enumerate(levels):
        rows.append(
            [
                [int(r.spawn("node", n).spawn("b", s).integers(2))
                 for s in range(spaces[b].size)]
                for n in number.tolist()
            ]
        )
        # child c follows its parent and c sibling subtrees of this size
        size = 2 ** (len(levels) - d - 1) - 1
        number = (number[:, None] + 1 + np.arange(2) * size).ravel()
    kids = [np.arange(len(rw) * 2).reshape(-1, 2) for rw in rows]
    if kids:
        kids[-1] = np.zeros_like(kids[-1])
    return Tree(levels, rows, [np.arange(len(rw)) for rw in rows], kids)


def random_readonce_tree(rng, spaces):
    """Binary read-once tree: a random permutation of a random non-empty subset
    of the blocks, one level each."""
    r = rng.spawn("ro")
    k = len(spaces)
    count = 1 + int(r.integers(k))
    order = []
    remaining = list(range(k))
    for i in range(count):
        j = int(r.spawn("pick", i).integers(len(remaining)))
        order.append(remaining.pop(j))
    return _random_tree_for_levels(r, spaces, order), order
