"""Random planar networks, tessellation, and cluster decomposition."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
from noisynet.rng import RngStream


def test_import_leaves_scipy_unloaded():
    """scipy loads on first use (k-d tree, connectivity, E3), not on import."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, noisynet; "
        "print([m for m in ('scipy.spatial', 'scipy.sparse', 'scipy.stats') "
        "if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


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


def test_positions_validated():
    with pytest.raises(ValueError):
        PlanarNetwork([[0.0, 1.5]], radius=0.1)
    with pytest.raises(ValueError):
        PlanarNetwork([[0.0, 0.0]], radius=-1.0)


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
    assert sorted(v for cell in tess.members.values() for v in cell) == list(
        range(200)
    )
    for i, (x, y) in enumerate(net.positions):
        r, c = tess.cell_of[i]
        assert (c - 1) * tess.side <= x <= c * tess.side + 1e-12
        assert (r - 1) * tess.side <= y <= r * tess.side + 1e-12


def test_tessellation_of_gridline_points_follows_the_ceil_rule():
    for m in (3, 5, 7):
        grid = np.arange(m + 1) / m
        pts = np.array([(x, y) for x in grid for y in grid] + [(0.5, 0.0), (1.0, 0.5)])
        tess = tessellate(PlanarNetwork(pts, radius=1.0 / m))
        assert tess.m == m
        members = {(r, c): [] for r in range(1, m + 1) for c in range(1, m + 1)}
        for i, (x, y) in enumerate(pts):
            col = min(max(1, math.ceil(x / tess.side)), m)
            row = min(max(1, math.ceil(y / tess.side)), m)
            assert tess.cell_of[i] == (row, col)
            members[(row, col)].append(i)
        assert tess.members == members


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
