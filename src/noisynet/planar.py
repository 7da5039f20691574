"""Random planar networks and their cluster decomposition.

Networks are N points placed uniformly at random in the unit square, with
an edge between every pair at Euclidean distance strictly below the
transmission radius R.  The decomposition tessellates the square into
floor(1/R)^2 cells, picks a spread-out family of cells (row and column
congruent to 1 mod 3), filters them by the transmission load of their
neighborhoods, and turns the lightest-transmitting nodes of each surviving
cell into an input block; everything else becomes auxiliary with input
fixed to 0.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyS2, UndersizedCell
from .rng import RngStream


class PlanarNetwork:
    """Node positions in [0,1]^2 with radius-R adjacency (strict <)."""

    def __init__(self, positions, radius: float, seed_record=None):
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError("positions must be an (N, 2) array")
        # NaN passes both bounds, and ``tessellate`` would index a cell with it
        if not np.isfinite(positions).all():
            raise ValueError("positions must be finite")
        if positions.size and (positions.min() < 0.0 or positions.max() > 1.0):
            raise ValueError("positions must lie in the unit square")
        if not (math.isfinite(radius) and radius >= 0):
            raise ValueError(f"radius must be finite and >= 0, got {radius}")
        self.positions = positions
        self._xy = np.ascontiguousarray(positions.T)  # x and y columns, for _close
        self.radius = float(radius)
        self.seed_record = seed_record
        self._tree = None
        self._adjacency = None

    @property
    def n_nodes(self) -> int:
        return len(self.positions)

    @property
    def tree(self):
        """k-d tree over the positions (``scipy.spatial.cKDTree``) for
        ``neighbors`` and ``edge_array``; sliding midpoints build faster than
        medians.  ``neighbors`` sorts what it finds; ``edge_array`` returns
        its pairs in no order."""
        if self._tree is None:
            # imported here: scipy costs most of ``import noisynet``
            from scipy.spatial import cKDTree

            self._tree = cKDTree(self.positions, balanced_tree=False)
        return self._tree

    def _node(self, i: int) -> int:
        if not 0 <= i < self.n_nodes:
            raise ValueError(f"node id {i} is not in range({self.n_nodes})")
        return i

    def _close(self, a, b):
        """Whether nodes ``a`` and ``b`` (indices or index arrays) lie at
        distance strictly below the radius: the one edge rule, in the
        arithmetic of ``np.linalg.norm(p[a] - p[b], axis=-1)``."""
        x, y = self._xy
        dx, dy = x[a] - x[b], y[a] - y[b]
        return np.sqrt(dx * dx + dy * dy) < self.radius

    def neighbors(self, i: int) -> list:
        """Indices at distance < radius from node i (excluding i)."""
        i = self._node(i)
        cand = np.asarray(
            self.tree.query_ball_point(self.positions[i], self.radius), dtype=np.intp
        )
        cand = cand[cand != i]
        return np.sort(cand[self._close(i, cand)]).tolist()

    def edge_array(self) -> np.ndarray:
        """All edges as an (E, 2) array of i < j, in no particular order."""
        pairs = self.tree.query_pairs(self.radius, output_type="ndarray")
        # query_pairs uses <=; enforce the strict-< rule.
        return pairs[self._close(pairs[:, 0], pairs[:, 1])]

    def edge_pairs(self):
        """All edges as a sorted list of (i, j) with i < j."""
        return sorted(map(tuple, self.edge_array().tolist()))

    @property
    def adjacency(self) -> dict:
        """node -> sorted neighbor list; built lazily and cached."""
        if self._adjacency is None:
            e = self.edge_array()
            both = np.concatenate([e, e[:, ::-1]])
            self._adjacency = dict(
                enumerate(_group(both[:, 0], both[:, 1], self.n_nodes))
            )
        return self._adjacency

    def has_edge(self, i: int, j: int) -> bool:
        return self._node(i) != self._node(j) and bool(self._close(i, j))

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": 1,
                "n": self.n_nodes,
                "radius": self.radius,
                "seed": self.seed_record,
                "positions": self.positions.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "PlanarNetwork":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("a network file must hold a JSON object")
        positions, radius, n = (obj.get(key) for key in ("positions", "radius", "n"))
        # a bool is no number; the constructor rejects NaN and infinities
        if not (isinstance(positions, list) and all(
                isinstance(q, list) and len(q) == 2 and {type(c) for c in q} <= {int, float}
                for q in positions)):
            raise ValueError("network key 'positions' must be a list of [x, y] number pairs")
        if type(radius) not in (int, float):
            raise ValueError(f"network key 'radius' must be a number, got {radius!r}")
        if type(n) is not int:
            raise ValueError(f"network key 'n' must be an int, got {n!r}")
        net = cls(positions, radius, seed_record=obj.get("seed"))
        if net.n_nodes != n:
            raise ValueError("node count mismatch in network file")
        return net


def sample_network(N: int, R: float, rng: RngStream) -> PlanarNetwork:
    """N iid uniform positions in the unit square with radius-R adjacency."""
    if N < 1:
        raise ValueError("N must be >= 1")
    positions = rng.numpy_generator().random((N, 2))
    return PlanarNetwork(positions, R, seed_record={"seed": rng.seed, "key": list(rng.key)})


def _group(keys, values, n: int) -> list:
    """For each key 0..n-1, the ascending list of the values paired with it."""
    order = np.lexsort((values, keys))
    bounds = np.searchsorted(keys[order], np.arange(n + 1)).tolist()
    values = values[order].tolist()
    return [values[bounds[k] : bounds[k + 1]] for k in range(n)]


#: Below this radius ``is_connected`` lists the edges: its cell key reaches
#: (1.5 / R)^2, which must stay below 2^63 (the cell proof holds to 1e-13).
_CELL_MIN_RADIUS = 1e-9


def _components(n: int, a, b):
    """``(count, labels)`` of the graph on n vertices with edges a[k]-b[k]."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    graph = coo_matrix((np.ones(len(a), dtype=bool), (a, b)), shape=(n, n))
    return connected_components(graph, directed=False)


def is_connected(net: PlanarNetwork) -> bool:
    """Whole-graph connectivity of the strict-< edge set, on grid cells.

    Nodes are keyed by cell ``floor(pos / side)``, side = R/1.5.  A computed
    ``pos / side`` in cell k is within (k + 1)2^-53 of the exact one, so for
    R >= 1e-13 ``_close`` puts two nodes of one cell less than 0.95 R apart
    (sqrt(2)/1.5 = 0.943 plus rounding), and nodes of cells 3 apart on an
    axis more than 1.3 R apart: each cell is one union, and edges join the
    12 forward cells 2 or fewer apart.  Round 1 tests the first nodes of each
    neighbouring cell pair, round 2 every cross pair of the cell pairs round
    1 left in different components.  Every union is inside a cell or a pair
    ``_close`` accepted, so the answer is that of the strict-< edge set.
    """
    n = net.n_nodes
    if n <= 1:
        return True
    if net.radius < _CELL_MIN_RADIUS:
        return _components(n, *net.edge_array().T)[0] == 1
    col, row = np.floor(net._xy / (net.radius / 1.5)).astype(np.int64)
    width = int(row.max()) + 3  # row +- 2 never reaches another column's cells
    key = col * width + row
    order = np.argsort(key)
    key = key[order]
    start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    cells, size = key[start], np.diff(np.r_[start, n])
    # neighbouring non-empty cell pairs (a, b) as indices into ``cells``,
    # over the forward (column, row) offsets 2 or fewer apart on each axis
    step = [1, 2] + [c * width + r for c in (1, 2) for r in range(-2, 3)]
    want = (cells + np.array(step)[:, None]).ravel()
    b = np.searchsorted(cells, want)
    found = np.flatnonzero(cells[np.minimum(b, len(cells) - 1)] == want)
    a, b = found % len(cells), b[found]
    hit = net._close(order[start[a]], order[start[b]])
    k, label = _components(len(cells), a[hit], b[hit])
    if k == 1:
        return True
    # a pair of one-node cells was tested in round 1
    keep = (label[a] != label[b]) & (size[a] * size[b] > 1)
    a, b = a[keep], b[keep]
    count = size[a] * size[b]
    pair = np.repeat(np.arange(len(a)), count)
    t = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    nb = size[b][pair]
    hit = net._close(order[start[a][pair] + t // nb], order[start[b][pair] + t % nb])
    return _components(k, label[a][pair[hit]], label[b][pair[hit]])[0] == 1


def chernoff_bound(mu: float) -> float:
    """Tail bound exp(-0.15 mu) on Pr[X <= mu/2] for iid indicator sums."""
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    return math.exp(-0.15 * mu)


@dataclass(eq=False)
class Tessellation:
    """Partition of the unit square into floor(1/R)^2 equal cells.

    Rows and columns are 1-based; a point on a gridline belongs to the
    lower-index cell.  Cell (r, c) has the row-major index (r-1)*m + c-1.
    """

    m: int  # cells per side
    side: float
    cell: np.ndarray  # node -> row-major cell index

    @property
    def M(self) -> int:
        return self.m * self.m


def _cells_per_side(net: PlanarNetwork) -> int:
    if not 0 < net.radius <= 1:
        raise ValueError(f"tessellation requires 0 < R <= 1, got R = {net.radius}")
    return int(math.floor(1.0 / net.radius))


def tessellate(net: PlanarNetwork) -> Tessellation:
    m = _cells_per_side(net)
    side = 1.0 / m
    # column from x, row from y; ceil puts a gridline point in the lower cell
    col, row = np.clip(np.ceil(net.positions / side), 1, m).astype(np.intp).T
    return Tessellation(m=m, side=side, cell=(row - 1) * m + (col - 1))


@dataclass
class Decomposition:
    """Certified (n, k, d, D) cluster decomposition of a network."""

    n: int
    k: int
    d: float
    D: float
    input_blocks: list  # k sorted node lists, |block| == n
    aux_blocks: list  # k sorted node lists
    aux0: list
    cells: list = field(default_factory=list)  # (row, col) per block
    fixed_bit: int = 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": 1,
                "n": self.n,
                "k": self.k,
                "d": self.d,
                "D": self.D,
                "input_blocks": self.input_blocks,
                "aux_blocks": self.aux_blocks,
                "aux0": self.aux0,
                "cells": [list(c) for c in self.cells],
                "fixed_bit": self.fixed_bit,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Decomposition":
        obj = json.loads(text)
        return cls(
            n=obj["n"],
            k=obj["k"],
            d=obj["d"],
            D=obj["D"],
            input_blocks=obj["input_blocks"],
            aux_blocks=obj["aux_blocks"],
            aux0=obj["aux0"],
            cells=[tuple(c) for c in obj.get("cells", [])],
            fixed_bit=obj.get("fixed_bit", 0),
        )


def decompose(net: PlanarNetwork, tx_counts: dict, T: int) -> Decomposition:
    """Build the certified decomposition from a transmission profile.

    ``tx_counts`` maps node -> number of transmissions it makes in the
    protocol being decomposed; the counts must sum to ``T``.  A node
    without a key counts 0, and keys outside ``range(N)`` are ignored.
    """
    counts = [tx_counts.get(i, 0) for i in range(net.n_nodes)]
    if sum(counts) != T:
        raise ValueError(f"tx_counts sum to {sum(counts)}, expected T={T}")
    return _decompose(net, np.asarray(counts), T)


def decompose_for_uniform_counts(net: PlanarNetwork) -> Decomposition:
    """Decompose assuming each node transmits exactly once (T = N)."""
    return _decompose(net, np.ones(net.n_nodes), net.n_nodes)


def _decompose(net: PlanarNetwork, counts: np.ndarray, T: int) -> Decomposition:
    """:func:`decompose` on ``counts[i]``, node i's count."""
    tess = tessellate(net)
    N, m, M = net.n_nodes, tess.m, tess.M
    mu = N / M
    sizes = np.bincount(tess.cell, minlength=M)
    under = np.flatnonzero(sizes < mu / 2).tolist()
    if under:  # report the first in row-major order
        cell = (under[0] // m + 1, under[0] % m + 1)
        raise UndersizedCell(f"cell {cell} holds {sizes[under[0]]} nodes, below mu/2 = {mu / 2:g}")

    # lexsort is stable, so each cell's run of ``rank``, from start[j] to
    # start[j + 1], lists its nodes by (count, id)
    rank = np.lexsort((counts, tess.cell))
    start = np.concatenate(([0], np.cumsum(sizes))).tolist()
    loads = np.bincount(tess.cell, weights=counts, minlength=M).reshape(m, m)
    D = 18 * T / M
    # the cells at rows and columns 1 mod 3 whose clipped 3x3 block sends < D
    s2 = [
        (r, c)
        for r in range(1, m + 1, 3)
        for c in range(1, m + 1, 3)
        if loads[max(r - 2, 0) : r + 1, max(c - 2, 0) : c + 1].sum() < D
    ]
    if not s2:
        raise EmptyS2("no cell passed the transmission filter")

    n = math.ceil(N / (4 * M))
    input_blocks, aux_blocks = [], []
    claimed = np.zeros(N, dtype=bool)
    for r, c in s2:
        j = (r - 1) * m + c - 1
        block = np.sort(rank[start[j] : min(start[j] + n, start[j + 1])])
        # in each neighbourhood row the cells c-1..c+1 make one run of rank
        lo, hi = max(c - 2, 0), min(c + 1, m)
        rows = range(max(r - 2, 0), min(r + 1, m))
        near = np.concatenate([rank[start[i * m + lo] : start[i * m + hi]] for i in rows])
        # cells 3 apart have disjoint neighbourhoods: only the block is claimed
        claimed[block] = True
        aux = np.sort(near[~claimed[near]])
        claimed[aux] = True
        input_blocks.append(block.tolist())
        aux_blocks.append(aux.tolist())
    aux0 = np.flatnonzero(~claimed).tolist()
    return Decomposition(n, len(s2), D / n, D, input_blocks, aux_blocks, aux0, s2)


def verify_decomposition(net: PlanarNetwork, dec: Decomposition) -> dict:
    """Check the block-size and confinement properties, with witnesses."""
    report = {
        "p1_ok": True,
        "p1_witnesses": [],
        "p2_ok": True,
        "p2_witnesses": [],
        "partition_ok": True,
        "partition_witnesses": [],
    }
    for j, blk in enumerate(dec.input_blocks, start=1):
        if len(blk) != dec.n:
            report["p1_ok"] = False
            report["p1_witnesses"].append({"block": j, "size": len(blk)})

    all_blocks = (
        [("I", j + 1, b) for j, b in enumerate(dec.input_blocks)]
        + [("A", j + 1, b) for j, b in enumerate(dec.aux_blocks)]
        + [("A", 0, dec.aux0)]
    )
    sizes = [len(b) for _, _, b in all_blocks]
    nodes = np.concatenate([np.asarray(b, dtype=np.int64) for _, _, b in all_blocks])
    owner = np.repeat(np.arange(len(all_blocks)), sizes)
    # in a stable sort by node, a repeated node follows its latest earlier entry
    order = np.argsort(nodes, kind="stable")
    again = nodes[order[1:]] == nodes[order[:-1]]
    for here, before in sorted(zip(order[1:][again].tolist(), order[:-1][again].tolist())):
        report["partition_ok"] = False
        report["partition_witnesses"].append(
            {
                "node": int(nodes[here]),
                "blocks": [all_blocks[owner[i]][:2] for i in (before, here)],
            }
        )
    distinct = np.delete(nodes[order], np.flatnonzero(again) + 1)
    inside = (distinct >= 0) & (distinct < net.n_nodes)
    seen = np.zeros(net.n_nodes, dtype=bool)
    seen[distinct[inside]] = True
    missing = np.flatnonzero(~seen)
    for name, ids in (("missing", missing), ("out_of_range", distinct[~inside])):
        if len(ids):
            report["partition_ok"] = False
            report["partition_witnesses"].append({name: ids[:10].tolist()})

    lists = np.split(nodes, np.cumsum(sizes)[:-1])
    k = len(dec.input_blocks)
    for j, v, w in _confinement_witnesses(net, lists[:k], lists[k:-1]):
        report["p2_ok"] = False
        report["p2_witnesses"].append({"block": j, "edge": [v, w]})
    report["ok"] = report["p1_ok"] and report["p2_ok"] and report["partition_ok"]
    return report


def _confinement_witnesses(net: PlanarNetwork, blocks, auxes) -> Iterator[tuple]:
    """The edges ``(j, v, w)`` from a node v of input block j (1-based) to
    a node w outside block j and aux block j, ordered by j, v's place in
    its block, then w.  ``blocks`` and ``auxes`` hold int arrays; ids
    outside ``range(N)`` are skipped, as the partition check reports them.

    Nodes are sorted once by column-major grid cells of side
    max(R, 1/sqrt(N)), so keys stay below (sqrt(N) + 1)^2.  Each block tests
    with ``_close`` only the nodes in its coordinate box widened by
    h = R(1 + 2^-48) + 2^-500, found in the cells under the box.  If
    ``_close`` joins v and w, the rounded dx*dx + dy*dy is below R^2; the
    subtraction, square and sum each err by a factor within 1 +- 2^-53, the
    square also by 2^-1075 on underflow, so the exact |x_w - x_v| <
    (R + 2^-537)(1 + 2^-51), which the rounded h exceeds (by its relative
    term above R = 2^-480, its absolute one below); likewise for y.
    Rounding is monotone, so the rounded box ends keep every such w.
    """
    N, R = net.n_nodes, net.radius
    x, y = net._xy
    side = max(R, 1 / math.sqrt(max(N, 1)))
    width = int(1 / side) + 1  # cells per axis: a coordinate is at most 1
    key = (x / side).astype(np.int64) * width + (y / side).astype(np.int64)
    order = np.argsort(key)
    key = key[order]
    h = R * (1 + 2**-48) + 2**-500
    allowed = np.zeros(N, dtype=bool)
    for j, blk in enumerate(blocks):
        blk = blk[(blk >= 0) & (blk < N)]
        if not len(blk):
            continue
        xb, yb = x[blk], y[blk]
        x0, x1, y0, y1 = xb.min() - h, xb.max() + h, yb.min() - h, yb.max() + h
        c0, c1, r0, r1 = (int(min(max(c / side, 0), width - 1)) for c in (x0, x1, y0, y1))
        cols = np.arange(c0, c1 + 1) * width
        runs = zip(key.searchsorted(cols + r0), key.searchsorted(cols + r1, "right"))
        w = np.concatenate([order[a:b] for a, b in runs])
        xw, yw = x[w], y[w]
        w = w[(xw >= x0) & (xw <= x1) & (yw >= y0) & (yw <= y1)]
        aux = auxes[j][(auxes[j] >= 0) & (auxes[j] < N)]
        allowed[blk] = allowed[aux] = True
        w = np.sort(w[~allowed[w]])
        allowed[blk] = allowed[aux] = False
        v, w = np.repeat(blk, len(w)), np.tile(w, len(blk))
        hit = net._close(v, w)
        yield from zip([j + 1] * int(hit.sum()), v[hit].tolist(), w[hit].tolist())


def s1_neighborhoods_disjoint(net: PlanarNetwork, dec: Decomposition) -> bool:
    """S1: the selected cells lie on the m x m grid (rows and columns
    1..m), and every two are at least 3 apart in row or column.

    A cell's neighbourhood, the cells whose closed regions come within R
    of its region, is its 3x3 block (cell side >= R), so this says the
    neighbourhoods of distinct selected cells are disjoint.
    """
    m = _cells_per_side(net)
    cells = np.array(dec.cells, dtype=np.intp).reshape(-1, 2)
    gap = np.abs(cells[:, None] - cells[None]).max(axis=2)[np.triu_indices(len(cells), 1)]
    return bool(((cells >= 1) & (cells <= m)).all() and (gap >= 3).all())
