"""The protocol transformation chain and its exactness guarantees."""

import dataclasses
import itertools
import math

import pytest

from noisynet import advantage as adv
from noisynet import engine, exprs, random_instances as ri, reductions, trees
from noisynet.errors import TreeCapExceeded
from noisynet.exprs import Const, MaskBit, Noise, OwnInput, Rand, Received, Xor
from noisynet.protocol import (
    NOISY_COPY,
    SEMI_NOISY,
    AuxRole,
    InputRole,
    Protocol,
    Transmission,
    protocol_from_text,
    star_adjacency,
    star_xor,
)
from noisynet.rng import RngStream


# -- semi-noisy --------------------------------------------------------------


def test_semi_noisy_star_fidelity_and_counts():
    p = star_xor(2, reps=1, eps=0.1)
    p1, report = reductions.to_semi_noisy(p)
    assert p1.klass == SEMI_NOISY
    # every input transmission becomes 3, auxiliary ones stay single
    t_input = sum(isinstance(p.roles[tr.sender], InputRole) for tr in p.schedule)
    assert (t_input, p.T - t_input) == (2, 1)
    assert p1.T == p.T + 2 * t_input
    tv = reductions.check_simulation_fidelity(p, p1, report)
    assert tv <= 1e-12


def test_semi_noisy_preserves_output_law():
    p = star_xor(2, reps=2, eps=0.2)
    p1, _ = reductions.to_semi_noisy(p)
    ch0 = engine.exact_channel(p)
    ch1 = engine.exact_channel(p1)
    assert ch0.total_variation(ch1) <= 1e-12


def test_semi_noisy_structure():
    p = star_xor(2, reps=1, eps=0.1)
    p1, report = reductions.to_semi_noisy(p)
    inputs = set(p1.input_nodes())
    assert inputs == set(report["prime_of"].values())
    for tr in p1.schedule:
        if tr.sender in inputs:
            assert tr.expr == OwnInput(0) and tr.noisy
        else:
            assert not tr.noisy


def test_semi_noisy_rejects_input_output_node():
    adjacency = {0: {1}, 1: {0}}
    roles = {0: InputRole(1), 1: InputRole(1)}
    schedule = [Transmission(0, OwnInput(0))]
    p = Protocol(
        n_nodes=2,
        adjacency=adjacency,
        roles=roles,
        schedule=schedule,
        output_node=0,
        output_expr=OwnInput(0),
        eps=0.1,
    )
    with pytest.raises(ValueError):
        reductions.to_semi_noisy(p)


# -- noisy-copy --------------------------------------------------------------


def test_noisy_copy_structure_and_counts():
    p = star_xor(2, reps=2, eps=0.1)
    p1, _ = reductions.to_semi_noisy(p)
    d = 2
    p2, report = reductions.to_noisy_copy(p1, d)
    assert p2.klass == NOISY_COPY
    counts = p2.tx_counts()
    for v in p2.input_nodes():
        assert counts[v] == 1
    for t in report["broadcast_of"].values():
        assert p2.schedule[t].eps == pytest.approx(0.1**d)
    assert report["eps_d"] == pytest.approx(0.01)
    # the masks are internal randomness, left for fix_randomness
    assert not p2.is_deterministic() and "fixed" not in report
    assert reductions.fix_randomness(p2)[0].is_deterministic()


def test_noisy_copy_advantage_never_drops():
    rng = RngStream(13)
    for i in range(10):
        p = ri.random_tiny_protocol(rng, i)
        d = ri.max_input_sends(p)
        p1, _ = reductions.to_semi_noisy(p)
        p2, _ = reductions.to_noisy_copy(p1, d)
        a1 = reductions.stage_advantage(p1)
        a2 = reductions.stage_advantage(p2)
        assert a2 >= a1 - 1e-9, (i, a1, a2)


def test_noisy_copy_rejects_excess_sends():
    p = star_xor(1, reps=3, eps=0.1)
    p1, _ = reductions.to_semi_noisy(p)
    with pytest.raises(ValueError):
        reductions.to_noisy_copy(p1, 2)


# -- fix_randomness ----------------------------------------------------------


def test_fix_randomness_identity_when_deterministic():
    p = star_xor(2, reps=1, eps=0.1)
    fixed, report = reductions.fix_randomness(p)
    assert report is None
    assert fixed is p


def test_fix_randomness_averaging_property():
    """The best fixing is at least as good as the randomized protocol."""
    rng = RngStream(29)
    found = 0
    for i in range(20):
        p = ri.random_tiny_protocol(rng, i)
        p1, _ = reductions.to_semi_noisy(p)
        d = ri.max_input_sends(p)
        p2, report = reductions.to_noisy_copy(p1, d)
        if p2.is_deterministic():
            continue
        found += 1
        fixed, rep = reductions.fix_randomness(p2)
        assert rep["advantage"] >= rep["advantage_randomized"] - 1e-12
        # the reported advantage is the exact advantage of the fixed protocol
        got = reductions.stage_advantage(fixed)
        assert abs(got - rep["advantage"]) <= 1e-9
    assert found >= 3


def test_fix_randomness_does_not_depend_on_the_pass_size(monkeypatch):
    """Each input's correlations are added in input order, however many
    inputs share a pass, so the reports are the same floats."""
    rng = RngStream(29)
    found = 0
    for i in range(20):
        p = ri.random_tiny_protocol(rng, i)
        p1, _ = reductions.to_semi_noisy(p)
        mu = adv.uniform_distribution(len(p1.input_nodes()))
        p2, _ = reductions.to_noisy_copy(p1, ri.max_input_sends(p))
        if p2.is_deterministic() or len(mu) < 4:
            continue
        found += 1
        grid = math.prod(pr.size for pr in engine._collect_primitives(p2))
        reports = []
        # one input per pass, three per pass (the last one short), all in one
        for rows in (1, 3 * grid, 2**30):
            monkeypatch.setattr(engine, "PASS_ROWS", rows)
            reports.append(reductions.fix_randomness(p2)[1])
        assert reports[1] == reports[0] and reports[2] == reports[0]
    assert found >= 3


def _every_fixing(p):
    """``p`` with its internal random atoms replaced by constants, once per
    joint outcome of its internal primitives."""
    internal = [pr for pr in engine._collect_primitives(p) if pr.internal]
    for outcomes in itertools.product(*(range(pr.size) for pr in internal)):
        bits = {c: b for pr, o in zip(internal, outcomes) for c, b in pr.decode(o).items()}

        def fixed(node, expr):
            def m(atom):
                if isinstance(atom, (Rand, Noise, MaskBit)):
                    return Const(bits[engine._internal_key(node, atom)])
                return None

            return exprs.substitute(expr, m)

        schedule = [
            Transmission(tr.sender, fixed(tr.sender, tr.expr), tr.noisy, tr.eps)
            for tr in p.schedule
        ]
        out = fixed(p.output_node, p.output_expr)
        yield dataclasses.replace(
            p, schedule=schedule, output_expr=out, mask_sources=[]
        )


def _gated(p):
    """``p`` with its output ANDed with a random bit of the output node: the
    fixing rand[0] = 1 keeps the output, rand[0] = 0 makes it constant."""
    out = exprs.And((p.output_expr, Rand(0)))
    last = p.schedule[-1]
    schedule = p.schedule[:-1] + [Transmission(last.sender, out, last.noisy, last.eps)]
    return dataclasses.replace(p, schedule=schedule, output_expr=out)


def test_fix_randomness_picks_the_best_fixing():
    """The reported advantage is the largest over every fixing, each fixed
    protocol scored through its exact output channel.  The regeneration
    masks of these instances give every fixing the same advantage; the
    gated variants are the cases where a worse fixing exists."""
    rng = RngStream(29)
    found = spread = 0
    for i in range(40):
        p = ri.random_tiny_protocol(rng, i)
        for q in (p, _gated(p)):
            q1, _ = reductions.to_semi_noisy(q)
            q2, _ = reductions.to_noisy_copy(q1, ri.max_input_sends(q))
            internal = [pr for pr in engine._collect_primitives(q2) if pr.internal]
            if not internal or math.prod(pr.size for pr in internal) > 64:
                continue
            found += 1
            advs = [reductions.stage_advantage(f) for f in _every_fixing(q2)]
            spread += max(advs) > min(advs) + 1e-6
            _fixed, report = reductions.fix_randomness(q2)
            assert abs(max(advs) - report["advantage"]) <= 1e-12, (i, advs, report)
    assert found >= 3 and spread >= 3


# -- transcript tree ---------------------------------------------------------


def chain_to_tree(p, d):
    p1, _ = reductions.to_semi_noisy(p)
    p2, _ = reductions.to_noisy_copy(p1, d)
    p2, _ = reductions.fix_randomness(p2)
    art = reductions.to_xnd_tree(p2)
    return p2, art


def test_xnd_tree_leaf_law_matches_protocol():
    rng = RngStream(37)
    for i in range(10):
        p = ri.random_tiny_protocol(rng, i)
        p2, art = chain_to_tree(p, ri.max_input_sends(p))
        tv = reductions.check_leaf_law(p2, art)
        assert tv <= 1e-12, (i, tv)


def test_tree_depth_cap_reports_the_depth(monkeypatch):
    p2, art = chain_to_tree(star_xor(2, reps=2, eps=0.2), 2)
    depth = art.report["depth"]
    monkeypatch.setattr(reductions, "MAX_TREE_DEPTH", depth - 1)
    with pytest.raises(TreeCapExceeded) as info:
        reductions.to_xnd_tree(p2)
    assert info.value.size == depth


def test_xnd_tree_advantage_at_least_protocol():
    rng = RngStream(43)
    for i in range(10):
        p = ri.random_tiny_protocol(rng, i)
        p2, art = chain_to_tree(p, ri.max_input_sends(p))
        a2 = reductions.stage_advantage(p2)
        at, _w = trees.tree_advantage(art.root, art.spaces)
        assert at >= a2 - 1e-9, (i, a2, at)


def test_xnd_tree_depth_one_single_transmission():
    """A semi-noisy single relay of one input bit: depth-1 tree with the
    protocol's exact advantage 1 - 2 eps."""
    adjacency = star_adjacency(1)
    roles = {0: InputRole(1), 1: AuxRole(0)}
    eps = 0.2
    schedule = [
        Transmission(0, OwnInput(0)),
        Transmission(1, Received(0), noisy=False),
    ]
    p1 = Protocol(
        n_nodes=2,
        adjacency=adjacency,
        roles=roles,
        schedule=schedule,
        output_node=1,
        output_expr=Received(0),
        eps=eps,
        klass=SEMI_NOISY,
    )
    p2, _ = reductions.to_noisy_copy(p1, 1)
    p2, _ = reductions.fix_randomness(p2)
    art = reductions.to_xnd_tree(p2)
    assert trees.depth(art.root) == 1
    a_p = reductions.stage_advantage(p1)
    a_t, _w = trees.tree_advantage(art.root, art.spaces)
    assert abs(a_p - (1 - 2 * eps)) <= 1e-12
    assert abs(a_t - a_p) <= 1e-12


def test_xnd_tree_reads_a_non_neighbor_transmission_as_zero():
    """Aux nodes 1 and 2 are not adjacent, so node 2's rx[1] is 0 in the
    protocol and must be 0 in the tree, not the transcript bit."""
    p2 = protocol_from_text(
        "nodes 3\neps 0.01\nclass noisy-copy\n"
        "node 0 input block=1\nnode 1 aux fix=0\nnode 2 aux fix=0\n"
        "edge 0 1\nedge 0 2\ntx 0 := in\ntx 1 noiseless := rx[0]\n"
        "tx 2 noiseless := xor(rx[1],rx[0])\nout 2 := xor(rx[1],rx[0])\n"
    )
    art = reductions.to_xnd_tree(p2)
    assert reductions.check_leaf_law(p2, art) <= 1e-12


# -- edge links --------------------------------------------------------------
# A link with ε = 0 copies the bit and one with ε = 1 flips it; neither
# draws a bit.  Every stage must hear such a link as ``Protocol.link`` says.


def _relay(eps, where):
    """Two inputs, their XOR at hub 2, relayed to node 3; the input links
    (``where == "input"``) or the hub's link (``"aux"``) have noise ``eps``."""
    over = {"input": (0, 1), "aux": (2,)}[where]
    schedule = [
        Transmission(0, OwnInput(0), eps=eps if 0 in over else None),
        Transmission(1, OwnInput(0), eps=eps if 1 in over else None),
        Transmission(2, Xor((Received(0), Received(1))), eps=eps if 2 in over else None),
        Transmission(3, Received(2)),
    ]
    return Protocol(
        n_nodes=4,
        adjacency={0: {2}, 1: {2}, 2: {0, 1, 3}, 3: {2}},
        roles={0: InputRole(1), 1: InputRole(1), 2: AuxRole(0), 3: AuxRole(0)},
        schedule=schedule,
        output_node=3,
        output_expr=Received(2),
        eps=0.1,
    )


@pytest.mark.parametrize("eps", [0.0, 1.0])
@pytest.mark.parametrize("where", ["input", "aux"])
def test_semi_noisy_hears_edge_links_exactly(where, eps):
    p = _relay(eps, where)
    p1, report = reductions.to_semi_noisy(p)
    assert reductions.check_simulation_fidelity(p, p1, report) <= 1e-12
    assert engine.exact_channel(p).total_variation(engine.exact_channel(p1)) <= 1e-12
    links = {p.link(w, t) for t in range(p.T) for w in range(p.n_nodes)}
    assert links == {None, (0, 0.1), (int(eps), None)}
    # an edge link draws no bit: the hub, which hears the inputs, reads no
    # noise, where a degenerate Noise(i, 0.0) or Noise(i, 1.0) would be one
    hub_noise = [pr for pr in engine._collect_primitives(p1) if pr.key[:2] == ("noise", 2)]
    assert (hub_noise == []) == (where == "input")


@pytest.mark.parametrize("eps", ["0.0", "1.0"])
def test_xnd_tree_hears_edge_input_broadcasts(eps):
    # noisy copies are never edge links (ε^d with 0 < ε < 1/2), but a
    # noisy-copy protocol read from text may have them
    p2 = protocol_from_text(
        "nodes 3\neps 0.1\nclass noisy-copy\n"
        "node 0 input block=1\nnode 1 input block=1\nnode 2 aux fix=0\n"
        f"edge 0 2\nedge 1 2\ntx 0 eps={eps} := in\ntx 1 eps={eps} := in\n"
        "tx 2 noiseless := xor(rx[0],rx[1])\nout 2 := xor(rx[0],rx[1])\n"
    )
    art = reductions.to_xnd_tree(p2)
    assert reductions.check_leaf_law(p2, art) <= 1e-12
    assert abs(reductions.stage_advantage(p2) - 1.0) <= 1e-12


def test_random_protocols_with_one_edge_link():
    """One transmission of each instance gets ε = 0 or 1.  The semi-noisy
    stage keeps the law; through an auxiliary link the whole chain runs,
    and an input link's override is refused by the noisy-copy stage."""
    rng = RngStream(61)
    chains = 0
    for i in range(24):
        p = ri.random_tiny_protocol(rng, i)
        r = rng.spawn("edge", i)
        t, eps = int(r.integers(p.T)), float(r.integers(2))
        schedule = list(p.schedule)
        schedule[t] = dataclasses.replace(schedule[t], eps=eps)
        q = dataclasses.replace(p, schedule=schedule)
        q1, report = reductions.to_semi_noisy(q)
        assert reductions.check_simulation_fidelity(q, q1, report) <= 1e-12, i
        d = ri.max_input_sends(q)
        if isinstance(q.roles[schedule[t].sender], InputRole):
            with pytest.raises(ValueError, match="overrides unsupported"):
                reductions.to_noisy_copy(q1, d)
            continue
        chains += 1
        q2, art = chain_to_tree(q, d)
        assert reductions.check_leaf_law(q2, art) <= 1e-12, i
        _ro, _art, chain = reductions.protocol_to_read_once(q, d)
        assert chain["monotone"], (i, chain["advantages"])
    assert chains >= 5


# -- full chain --------------------------------------------------------------


def test_chain_monotone_on_sample():
    rng = RngStream(53)
    for i in range(30):
        p = ri.random_tiny_protocol(rng, i)
        d = ri.max_input_sends(p)
        _ro, _art, report = reductions.protocol_to_read_once(p, d)
        assert report["monotone"], (i, report["advantages"])


def test_chain_reports_certificates():
    rng = RngStream(59)
    p = ri.random_tiny_protocol(rng, 4)
    d = ri.max_input_sends(p)
    ro, art, report = reductions.protocol_to_read_once(p, d, D=float(p.T))
    assert trees.is_read_once(ro)
    for cert in report["query_certificates"]:
        assert 0.0 <= cert["alpha"] <= 1.0 + 1e-12
        assert cert["bound_at_levels"] >= 7 / 8
        assert cert["bound_at_3D"] >= 7 / 8


def test_chain_rejects_mismatched_output():
    p = star_xor(2, reps=1, eps=0.1)
    bad = dataclasses.replace(
        p, output_expr=Xor((Received(0), Received(1), Received(2)))
    )
    with pytest.raises(ValueError):
        reductions.protocol_to_read_once(bad, 1)
