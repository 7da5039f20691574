"""Random planar networks, tessellation, and cluster decomposition."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisynet import planar
from noisynet.errors import EmptyS2, UndersizedCell
from noisynet.planar import (
    Decomposition,
    PlanarNetwork,
    chernoff_bound,
    decompose,
    decompose_for_uniform_counts,
    is_connected,
    sample_network,
    tessellate,
    verify_decomposition,
)
from noisynet.protocol import check_bounded_counts
from noisynet.rng import RngStream


def _scipy_loaded_after(code: str) -> str:
    """The scipy modules loaded in a fresh interpreter after ``code``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code += (
        "; import sys; "
        "print([m for m in ('scipy.spatial', 'scipy.sparse', 'scipy.stats') "
        "if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_import_leaves_scipy_unloaded():
    """scipy loads on first use (k-d tree, connectivity, E3), not on import."""
    assert _scipy_loaded_after("import noisynet") == "[]"


def test_decompose_and_verify_leave_scipy_unloaded():
    code = (
        "from noisynet.planar import *; from noisynet.rng import RngStream; "
        "net = sample_network(2000, 0.2, RngStream(1)); "
        "assert verify_decomposition(net, decompose_for_uniform_counts(net))['ok']"
    )
    assert _scipy_loaded_after(code) == "[]"


def test_radius_zero_disconnected():
    net = sample_network(50, 0.0, RngStream(0))
    assert not is_connected(net)
    assert net.edge_pairs() == []


def test_large_radius_connected():
    net = sample_network(30, 1.5, RngStream(1))
    assert is_connected(net)
    assert len(net.neighbors(0)) == 29


def test_edge_rule_is_strict():
    net = PlanarNetwork([[0.0, 0.0], [0.5, 0.0], [0.0, 0.6]], radius=0.5)
    assert not net.has_edge(0, 1)  # distance exactly R
    assert net.edge_pairs() == []
    net2 = PlanarNetwork([[0.0, 0.0], [0.49, 0.0]], radius=0.5)
    assert net2.has_edge(0, 1)
    assert net2.edge_pairs() == [(0, 1)]


@st.composite
def boundary_networks(draw):
    """Up to 14 points with a radius R: points on the gridlines of an m x m
    grid, a coincident pair, and pairs at distance R or within rounding of
    it, along both axes and across a 3-4-5 triangle scaled by s = R/5."""
    s = draw(st.floats(0.001, 0.19))
    m = draw(st.integers(1, 12))
    coord = st.one_of(st.integers(0, m).map(lambda k: k / m), st.floats(0, 1))
    pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=8))
    x, y = draw(st.tuples(st.floats(0, 0.04), st.floats(0, 0.04)))
    for dx, dy in ((0, 0), (5, 0), (0, 5), (3, 4), (4, 3)):
        pts.append((x + dx * s, y + dy * s))
    return pts + pts[:1], draw(st.sampled_from([5 * s, 1 / m]))


# (0, 0)-(R, 0) is at distance exactly R; at s = 0.01 the 3-4-5 pair is too,
# by sqrt, although its squared distance rounds below R*R.  The second puts
# points on the gridlines of a 4 x 4 grid, some exactly R = 1/4 apart.
@example(([(0.0, 0.0), (0.05, 0.0), (0.03, 0.04)], 0.05))
@example(([(0.5, 0.5), (0.5, 0.25), (0.25, 0.25), (0.75, 0.0)], 0.25))
@settings(max_examples=200, deadline=None)
@given(boundary_networks())
def test_edge_rule_matches_the_norm_and_brute_force(case):
    pts, R = case
    net = PlanarNetwork(pts, radius=R)
    n = net.n_nodes
    a, b = (ix.ravel() for ix in np.indices((n, n)))
    p = net.positions
    want = np.linalg.norm(p[a] - p[b], axis=-1) < R
    assert np.array_equal(net._close(a, b), want)
    adj = want.reshape(n, n) & ~np.eye(n, dtype=bool)
    for i in range(n):
        assert net.neighbors(i) == np.flatnonzero(adj[i]).tolist()
        assert [net.has_edge(i, j) for j in range(n)] == adj[i].tolist()
    assert net.edge_pairs() == list(zip(*np.nonzero(np.triu(adj))))
    seen, stack = {0}, [0]
    while stack:
        for w in np.flatnonzero(adj[stack.pop()]).tolist():
            if w not in seen:
                seen.add(w)
                stack.append(w)
    assert is_connected(net) == (len(seen) == n)


def test_neighbors_match_edges():
    net = sample_network(80, 0.25, RngStream(2))
    pairs = set(net.edge_pairs())
    for i in range(net.n_nodes):
        for j in net.neighbors(i):
            assert (min(i, j), max(i, j)) in pairs
    adj = net.adjacency
    for i, j in pairs:
        assert j in adj[i] and i in adj[j]
    for i in range(net.n_nodes):
        assert net.neighbors(i) == adj[i]
    assert sum(map(len, adj.values())) == 2 * len(pairs)


@pytest.mark.parametrize("factor", [0.5, 0.9, 1.1, 1.5])
def test_is_connected_matches_search_over_adjacency(factor):
    N = 300
    net = sample_network(N, factor * math.sqrt(math.log(N) / N), RngStream(9, (factor,)))
    seen, stack = {0}, [0]
    while stack:
        for w in net.adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    assert is_connected(net) == (len(seen) == N)


def _reaches_all(adj) -> bool:
    """Whether a search from node 0 over a boolean adjacency matrix reaches
    every node."""
    seen, stack = {0}, [0]
    while stack:
        for w in np.flatnonzero(adj[stack.pop()]).tolist():
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


@st.composite
def cell_networks(draw):
    """2-150 points and a radius R for the cell rule of ``is_connected``:
    R from 0 through radii on both sides of the cell guard to above sqrt(2).
    Points lie on multiples of the cell side R/1.5 or of R (from the origin
    or from a drawn point; coincident where they repeat or are clipped), on
    a walk whose steps are R or just below it in drawn directions (a path
    that any missed neighbouring cell breaks), and anywhere."""
    guard = planar._CELL_MIN_RADIUS
    tiny = [1e-13, np.nextafter(guard, 0), guard, 3 * guard]
    R = draw(st.one_of(st.floats(1e-6, 0.4), st.sampled_from([0.0, *tiny, 1.3, 2.0])))

    def clip(v):
        return min(max(v, 0.0), 1.0)

    base = draw(st.sampled_from([0.0, 0.5, draw(st.floats(0, 1))]))
    step = draw(st.sampled_from([R / 1.5, R]))
    lattice = st.integers(-2, 6).map(lambda k: clip(base + k * step))
    n = draw(st.integers(1, 107))
    pts = draw(st.lists(st.tuples(lattice, lattice), min_size=n, max_size=n))
    x, y = pts[-1]
    stride = R * draw(st.sampled_from([1.0, 1 - 1e-9, 0.9, 0.6]))
    n = draw(st.integers(1, 40))
    for angle in draw(st.lists(st.floats(0, 2 * math.pi), min_size=n, max_size=n)):
        x, y = clip(x + stride * math.cos(angle)), clip(y + stride * math.sin(angle))
        pts.append((x, y))
    return pts + draw(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), max_size=3)), R


# A pair at computed distance exactly R = 0.1 on a diagonal: it shares a
# cell of any side above R/sqrt(2) and must not be united.
@example(([(0.0, 0.0), (0.07071067811865475, 0.07071067811865475)], 0.1))
@settings(max_examples=100, deadline=None)
@given(cell_networks())
def test_is_connected_matches_search_over_close(case):
    pts, R = case
    net = PlanarNetwork(pts, radius=R)
    a, b = np.indices((net.n_nodes, net.n_nodes))
    assert is_connected(net) == _reaches_all(net._close(a, b))


@pytest.mark.parametrize(
    "offset", [(c, r) for c in range(-2, 3) for r in range(-2, 3) if (c, r) != (0, 0)]
)
def test_is_connected_finds_an_edge_to_every_cell_two_apart(offset):
    """Two nodes whose cells are ``offset`` apart, at distance < 0.97 R."""
    R = 0.06
    side = R / 1.5

    def coords(o):
        """Both nodes' coordinates on one axis, in cell sides: the first in
        cell 3, the second in cell 3 + o, at most 1.02 sides apart."""
        if o > 0:
            return 3.99, 3 + o + 0.01
        if o < 0:
            return 3.01, 4 + o - 0.01
        return 3.5, 3.5

    (x0, x1), (y0, y1) = map(coords, offset)
    net = PlanarNetwork([[x0 * side, y0 * side], [x1 * side, y1 * side]], R)
    cells = np.floor(net.positions / side).astype(int).tolist()
    assert cells == [[3, 3], [3 + offset[0], 3 + offset[1]]]
    assert is_connected(net)


def test_is_connected_matches_components_of_the_edge_list():
    """The 12 networks of the benchmark's connectivity shape."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    N = 10000
    threshold = math.sqrt(math.log(N) / N)
    for factor in (0.4, 0.55, 0.7, 0.85, 1.0, 1.25):
        for key in range(2):
            net = sample_network(N, factor * threshold, RngStream(20, (factor, key)))
            e = net.edge_array()
            graph = coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(N, N))
            want = connected_components(graph, directed=False)[0] == 1
            assert is_connected(net) == want, (factor, key)


def test_is_connected_lists_no_edges_above_the_cell_guard(monkeypatch):
    guard = planar._CELL_MIN_RADIUS
    pair = [(0.5, 0.5), (0.5 + 0.9 * guard, 0.5)]
    below = PlanarNetwork(pair, np.nextafter(guard, 0))
    assert is_connected(below)

    def refuse(self):
        raise AssertionError("k-d tree or edge list built")

    monkeypatch.setattr(PlanarNetwork, "tree", property(refuse))
    monkeypatch.setattr(PlanarNetwork, "edge_array", refuse)
    assert is_connected(PlanarNetwork(pair, guard))
    assert is_connected(sample_network(2000, 0.08, RngStream(21)))
    assert not is_connected(sample_network(2000, 0.03, RngStream(21)))
    with pytest.raises(AssertionError, match="built"):
        is_connected(below)


@pytest.mark.parametrize(
    "call",
    [
        lambda net: net.neighbors(-1),
        lambda net: net.neighbors(3),
        lambda net: net.has_edge(1, -2),
        lambda net: net.has_edge(-1, 0),
        lambda net: net.has_edge(0, 7),
    ],
)
def test_node_ids_outside_the_network_are_rejected(call):
    net = PlanarNetwork([[0.0, 0.0], [0.1, 0.0], [0.9, 0.9]], 0.2)
    with pytest.raises(ValueError, match="node id"):
        call(net)


def test_positions_validated():
    with pytest.raises(ValueError):
        PlanarNetwork([[0.0, 1.5]], radius=0.1)
    with pytest.raises(ValueError):
        PlanarNetwork([[0.0, 0.0]], radius=-1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_positions_are_rejected(bad):
    """NaN passes both unit-square bounds, so finiteness is checked first."""
    with pytest.raises(ValueError, match="positions must be finite"):
        PlanarNetwork([[0.5, bad], [0.2, 0.3]], radius=0.9)


def test_network_json_round_trip():
    net = sample_network(20, 0.3, RngStream(3))
    back = PlanarNetwork.from_json(net.to_json())
    assert back.n_nodes == net.n_nodes
    assert back.radius == net.radius
    assert np.array_equal(back.positions, net.positions)
    assert back.edge_pairs() == net.edge_pairs()


def test_tessellation_covers_all_nodes():
    net = sample_network(200, 0.3, RngStream(4))
    tess = tessellate(net)
    assert tess.m == 3 and tess.M == 9
    assert tess.cell.shape == (200,)
    assert 0 <= tess.cell.min() and tess.cell.max() < tess.M
    for i, (x, y) in enumerate(net.positions):
        r, c = tess.cell[i] // tess.m + 1, tess.cell[i] % tess.m + 1
        assert (c - 1) * tess.side <= x <= c * tess.side + 1e-12
        assert (r - 1) * tess.side <= y <= r * tess.side + 1e-12


def test_tessellation_of_gridline_points_follows_the_ceil_rule():
    for m in (3, 5, 7):
        grid = np.arange(m + 1) / m
        pts = np.array([(x, y) for x in grid for y in grid] + [(0.5, 0.0), (1.0, 0.5)])
        tess = tessellate(PlanarNetwork(pts, radius=1.0 / m))
        assert tess.m == m and tess.cell.shape == (len(pts),)
        for i, (x, y) in enumerate(pts):
            col = min(max(1, math.ceil(x / tess.side)), m)
            row = min(max(1, math.ceil(y / tess.side)), m)
            assert tess.cell[i] == (row - 1) * m + col - 1


def test_chernoff_bound_values():
    assert math.isclose(chernoff_bound(20), math.exp(-3.0))
    assert chernoff_bound(0) == 1.0
    with pytest.raises(ValueError):
        chernoff_bound(-1)


def test_decompose_uniform_counts_properties():
    N = 4000
    R = math.sqrt(10 * math.log(N) / N)
    net = sample_network(N, R, RngStream(5))
    dec = decompose_for_uniform_counts(net)
    M = int(math.floor(1.0 / R)) ** 2
    assert dec.n == math.ceil(N / (4 * M))
    assert dec.D == 18 * N / M
    assert dec.d == dec.D / dec.n
    report = verify_decomposition(net, dec)
    assert report["ok"], report
    assert planar.s1_neighborhoods_disjoint(net, dec)
    back = Decomposition.from_json(dec.to_json())
    assert back.input_blocks == dec.input_blocks
    assert back.cells == dec.cells


@pytest.mark.parametrize(
    "cells, ok",
    [
        ([(-1, -1), (1, 1)], False),  # off the grid: its clipped block is empty
        ([(6, 6)], False),  # off the 5 x 5 grid
        ([(1, 1), (1, 1)], False),
        ([(1, 1), (3, 3)], False),
        ([], True),
        ([(1, 1)], True),
        ([(1, 1), (4, 4)], True),
    ],
)
def test_s1_needs_grid_cells_three_apart(cells, ok):
    net = sample_network(2000, 0.2, RngStream(1))  # m = 5
    dec = dataclasses.replace(decompose_for_uniform_counts(net), cells=cells)
    assert planar.s1_neighborhoods_disjoint(net, dec) is ok


def test_confinement_witnesses_match_brute_force():
    N = 4000
    R = math.sqrt(10 * math.log(N) / N)
    net = sample_network(N, R, RngStream(5))
    dec = decompose_for_uniform_counts(net)
    # move every third aux node of each block into A_0
    aux_blocks = [[v for i, v in enumerate(b) if i % 3] for b in dec.aux_blocks]
    aux0 = sorted(dec.aux0 + [v for b in dec.aux_blocks for v in b[::3]])
    bad = Decomposition(
        dec.n, dec.k, dec.d, dec.D, dec.input_blocks, aux_blocks, aux0, dec.cells
    )
    report = verify_decomposition(net, bad)
    p = net.positions
    want = []
    for j, blk in enumerate(bad.input_blocks, start=1):
        allowed = set(blk) | set(bad.aux_blocks[j - 1])
        for v in blk:
            dist = np.sqrt(((p - p[v]) ** 2).sum(axis=1))
            for w in np.flatnonzero(dist < R).tolist():
                if w not in allowed:
                    want.append({"block": j, "edge": [v, w]})
    assert want
    assert report["p2_witnesses"] == want
    assert not report["p2_ok"] and report["p1_ok"] and report["partition_ok"]


def test_partition_reports_missing_and_out_of_range_ids():
    N = 2000
    R = math.sqrt(10 * math.log(N) / N)
    net = sample_network(N, R, RngStream(1))
    dec = decompose_for_uniform_counts(net)
    # two nodes leave the blocks and two ids outside 0..N-1 come in, so the
    # count of distinct ids is still N
    aux_blocks = [list(b) for b in dec.aux_blocks]
    gone = sorted([aux_blocks[0].pop(), aux_blocks[-1].pop()])
    bad = Decomposition(
        dec.n, dec.k, dec.d, dec.D, dec.input_blocks, aux_blocks,
        dec.aux0 + [N + 7, -1], dec.cells,
    )
    report = verify_decomposition(net, bad)
    assert not report["partition_ok"] and not report["ok"]
    assert report["partition_witnesses"] == [
        {"missing": gone},
        {"out_of_range": [-1, N + 7]},
    ]


@pytest.mark.parametrize("change", ["id N", "id -1", "empty"])
def test_verify_skips_input_block_ids_outside_the_network(change):
    """An id outside range(N) in an input block is the partition check's
    ``out_of_range`` and takes no part in confinement; an empty input block
    fails P1."""
    N = 2000
    net = _net(N, 1)
    dec = decompose_for_uniform_counts(net)
    first, aux0 = {
        "id N": (dec.input_blocks[0] + [N], dec.aux0),
        "id -1": (dec.input_blocks[0] + [-1], dec.aux0),
        "empty": ([], dec.aux0 + dec.input_blocks[0]),
    }[change]
    bad = Decomposition(
        dec.n, dec.k, dec.d, dec.D, [first] + dec.input_blocks[1:], dec.aux_blocks,
        aux0, dec.cells,
    )
    report = verify_decomposition(net, bad)
    assert not report["ok"] and not report["p1_ok"]
    assert report["p1_witnesses"] == [{"block": 1, "size": len(first)}]
    assert report["p2_ok"] and report["p2_witnesses"] == []
    if change == "empty":
        assert report["partition_ok"]
    else:
        assert report["partition_witnesses"] == [{"out_of_range": first[-1:]}]


@st.composite
def confinement_cases(draw):
    """1-34 points, a radius R from 0 and tiny values to the largest float
    (whose box widening overflows), and input and aux blocks drawn over the
    nodes.  Points lie on a lattice counted from either side of the square
    (so blocks sit at its edges and corners) of step R, R/5 (3-4-5
    triangles tie R), or 2^-700 or 1e-170 (squares that underflow), repeat
    (coincident points), or lie anywhere.  Blocks are any lists of nodes:
    spread out, empty, or repeating a node."""
    tiny_to_huge = [0.0, 1e-300, 1e-13, 0.05, 1.5, sys.float_info.max]
    R = draw(st.one_of(st.floats(1e-6, 1.2), st.sampled_from(tiny_to_huge)))
    step = draw(st.sampled_from([R, R / 5, 2.0**-700, 1e-170]))

    def lattice(k, from_top):
        v = min(k * step, 1.0)
        return 1.0 - v if from_top else v

    coord = st.one_of(
        st.tuples(st.integers(0, 8), st.booleans()).map(lambda t: lattice(*t)), st.floats(0, 1)
    )
    pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=30))
    pts += draw(st.lists(st.sampled_from(pts), max_size=4))
    node = st.integers(0, len(pts) - 1)
    k = draw(st.integers(0, 4))
    blocks = draw(st.lists(st.lists(node, max_size=8), min_size=k, max_size=k))
    auxes = draw(st.lists(st.lists(node, max_size=len(pts)), min_size=k, max_size=k))
    return pts, R, blocks, auxes


# Two points 2^-700 apart at R = 1e-300: their squared distance underflows
# to 0, so ``_close`` joins them although they are farther apart than R.
# Then a 3-4-5 pair at computed distance exactly R = 0.05, which ``_close``
# does not join (see the edge rule's test), beside a repeated block node;
# and a block at a corner of the square.
@example(([(0.0, 0.0), (2.0**-700, 0.0), (0.5, 0.5)], 1e-300, [[0]], [[]]))
@example(([(0.0, 0.0), (0.05, 0.0), (0.03, 0.04)], 0.05, [[0], [1, 1]], [[], [0]]))
@example(([(1.0, 1.0), (0.9, 1.0), (1.0, 0.8), (0.0, 0.0)], 0.25, [[0]], [[1]]))
@settings(max_examples=150, deadline=None)
@given(confinement_cases())
def test_confinement_matches_brute_force_at_ties_edges_and_tiny_radii(case):
    pts, R, blocks, auxes = case
    net = PlanarNetwork(pts, radius=R)
    dec = Decomposition(1, len(blocks), 1.0, 1.0, blocks, auxes, [], [])
    p = net.positions
    want = []
    for j, blk in enumerate(blocks, start=1):
        allowed = set(blk) | set(auxes[j - 1])
        for v in blk:
            dist = np.sqrt(((p - p[v]) ** 2).sum(axis=1))
            want += [
                {"block": j, "edge": [v, w]}
                for w in np.flatnonzero(dist < R).tolist()
                if w not in allowed
            ]
    report = verify_decomposition(net, dec)
    assert report["p2_witnesses"] == want
    assert report["p2_ok"] == (not want)


def test_verify_builds_no_k_d_tree(monkeypatch):
    net, bad = _bad_decompositions()

    def refuse(self):
        raise AssertionError("k-d tree built")

    monkeypatch.setattr(PlanarNetwork, "tree", property(refuse))
    assert verify_decomposition(net, decompose_for_uniform_counts(net))["ok"]
    assert verify_decomposition(net, bad["aux_to_aux0"])["p2_witnesses"]


def test_decompose_rejects_wrong_total():
    net = sample_network(100, 0.4, RngStream(6))
    with pytest.raises(ValueError):
        decompose(net, {i: 1 for i in range(100)}, T=99)


def test_undersized_cell_raises():
    # all mass in one corner leaves other cells empty
    pts = np.random.default_rng(0).random((60, 2)) * 0.2
    net = PlanarNetwork(pts, radius=0.3)
    with pytest.raises(UndersizedCell):
        decompose_for_uniform_counts(net)


def test_empty_s2_is_defensive():
    # The filter keeps cells whose neighborhood transmits < 18T/M bits.
    # Since the spread-out cells have disjoint neighborhoods and there are
    # about M/9 of them, heaviness everywhere would need 2T transmissions;
    # the exception therefore cannot fire on valid inputs and only guards
    # against corrupted count profiles.
    from noisynet.errors import NoisyNetError

    assert issubclass(EmptyS2, NoisyNetError)
    net = sample_network(10, 0.6, RngStream(7))
    dec = decompose_for_uniform_counts(net)
    assert dec.k >= 1


# -- byte pins on the decomposition and its certificate --------------------
#
# perfbench and E2 run only uniform counts; these pin the non-uniform and
# malformed cases byte for byte.


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _report_sha(report: dict) -> str:
    return _sha(json.dumps(report, sort_keys=True))


def _net(N: int, seed: int) -> PlanarNetwork:
    return sample_network(N, math.sqrt(10 * math.log(N) / N), RngStream(seed))


def _random_counts(N: int, seed: int) -> dict:
    """Counts in {0, ..., 3}, so the (count, id) ranking has ties."""
    return dict(enumerate(np.random.default_rng(seed).integers(0, 4, N).tolist()))


DECOMPOSE_PINS = {
    (4000, 5): "fa78dad4c1846a4f2969e3cfedbf0124721d026bb007ff394bc80095affaf8d5",
    (2000, 1): "5318be8cdd96cbc2bdc2f01ee54820f41dedc84b62c00ab70de52ca55764569d",
    (3000, 2): "01dbe03221499030bbee1aeff489b7ca14c3fbf2e126c012b78c31ae2c8969a2",
}


@pytest.mark.parametrize("N, seed", sorted(DECOMPOSE_PINS))
def test_decompose_of_nonuniform_counts_is_pinned(N, seed):
    net = _net(N, seed)
    counts = _random_counts(N, seed)
    dec = decompose(net, counts, sum(counts.values()))
    assert _sha(dec.to_json()) == DECOMPOSE_PINS[N, seed]


def test_decompose_reads_missing_keys_as_zero_and_ignores_outside_keys():
    N = 3000
    net = _net(N, 2)
    counts = _random_counts(N, 2)
    rng = np.random.default_rng(12)
    for v in rng.choice(N, size=N // 4, replace=False).tolist():
        del counts[v]  # zero and nonzero counts alike
    T = sum(counts.values())
    missing = decompose(net, counts, T)
    assert _sha(missing.to_json()) == (
        "efddb51dd5a1665ca186c7b4cfd77a98c7204d3c6519a98f72b6e470f785eceb"
    )
    outside = dict(counts)
    outside.update({N: 50, N + 9: 7, -1: 40, -N: 3})
    assert _sha(decompose(net, outside, T).to_json()) == _sha(missing.to_json())
    with pytest.raises(ValueError, match=f"tx_counts sum to {T}, expected T={T + 1}"):
        decompose(net, outside, T + 1)


def _bad_decompositions():
    """Certificates that fail P1, P2 or the partition, by name."""
    net = _net(4000, 5)
    dec = decompose_for_uniform_counts(net)
    out = {}

    def bad(name, **kw):
        fields = dict(
            n=dec.n, k=dec.k, d=dec.d, D=dec.D, input_blocks=dec.input_blocks,
            aux_blocks=dec.aux_blocks, aux0=dec.aux0, cells=dec.cells,
        )
        fields.update(kw)
        out[name] = Decomposition(**fields)

    bad(
        "aux_to_aux0",
        aux_blocks=[[v for i, v in enumerate(b) if i % 3] for b in dec.aux_blocks],
        aux0=sorted(dec.aux0 + [v for b in dec.aux_blocks for v in b[::3]]),
    )
    bad(
        "missing_and_out_of_range",
        aux_blocks=[b[:-1] for b in dec.aux_blocks],
        aux0=dec.aux0 + [4000 + 7, -1],
    )
    first = dec.input_blocks[0]
    bad(
        "node_in_two_blocks",
        aux_blocks=[dec.aux_blocks[0], dec.aux_blocks[1] + [first[0]]]
        + dec.aux_blocks[2:],
        aux0=dec.aux0 + [dec.input_blocks[1][0]],
    )
    bad("short_block", input_blocks=[first[1:]] + dec.input_blocks[1:],
        aux0=dec.aux0 + [first[0]])
    bad("repeated_node", input_blocks=[first + [first[0]]] + dec.input_blocks[1:])
    return net, out


VERIFY_PINS = {
    "aux_to_aux0": "ac02ebb21c90f222e03004ac5f787c4895eb56d00427371a606e73f26296f719",
    "missing_and_out_of_range": (
        "cdc4c9e8481c7bc0f54d8fe1ed38e437ddb3a17506f06f3b75bd63e139344920"
    ),
    "node_in_two_blocks": "1a13636e997e35cebd982849c3abd6fd2463af640ee0e5d5a828a5e52a36dd7c",
    "short_block": "66730373594ffa8edbdb7fc57a3ecfd1f2d60538f28e3bda2e2821dc6ef47a56",
    "repeated_node": "c2959cffc1cecb13ed91005a95bf1c1d92d9d033bbc98407c3c2eab3ed8e0b64",
}


def test_verify_reports_on_bad_decompositions_are_pinned():
    net, bad = _bad_decompositions()
    assert sorted(bad) == sorted(VERIFY_PINS)
    got = {name: _report_sha(verify_decomposition(net, dec)) for name, dec in bad.items()}
    assert got == VERIFY_PINS


def test_bounded_counts_reports_are_pinned():
    N = 4000
    net = _net(N, 5)
    counts = _random_counts(N, 5)
    dec = decompose(net, counts, sum(counts.values()))
    report = check_bounded_counts(counts, dec, d=dec.d, D=dec.D)
    assert report["ok"]
    heavy = dict(counts)
    for blk in dec.input_blocks[::2]:
        heavy[blk[0]] = 1000  # over d
    for blk in dec.aux_blocks[1::3]:
        for v in blk[:40]:
            heavy[v] = 60  # over D, not over d
    for v in dec.input_blocks[-1]:
        del heavy[v]
    tripped = check_bounded_counts(heavy, dec, d=dec.d, D=dec.D)
    assert not tripped["p3_ok"] and not tripped["p4_ok"]
    assert _report_sha(report) == (
        "7be7db78d4c179cb2de07a2565887a2ee3c6e3cbc7f156e9f477aeb55d53222f"
    )
    assert _report_sha(tripped) == (
        "7f10df88659e75136cebb0ab2bffa447b9f79b3ed6c248b64d35e50875406658"
    )


def test_undersized_and_empty_messages_are_pinned():
    pts = np.random.default_rng(0).random((60, 2)) * 0.2
    with pytest.raises(UndersizedCell) as under:
        decompose_for_uniform_counts(PlanarNetwork(pts, radius=0.3))
    pts = np.random.default_rng(1).random((300, 2))
    pts[:40] = pts[:40] * 0.15 + 0.8  # a heavy corner outside the selected cell
    net = PlanarNetwork(pts, radius=0.3)
    tess = tessellate(net)
    # nodes outside the one selected neighbourhood carry negative counts, so
    # the selected load exceeds D = 18T/M = 2T: a corrupted profile
    counts = {
        v: 1 if max(divmod(cell, tess.m)) <= 1 else -1
        for v, cell in enumerate(tess.cell.tolist())
    }
    with pytest.raises(EmptyS2) as empty:
        decompose(net, counts, sum(counts.values()))
    assert str(under.value) == "cell (1, 2) holds 0 nodes, below mu/2 = 3.33333"
    assert str(empty.value) == "no cell passed the transmission filter"
