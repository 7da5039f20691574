"""The protocol transformation chain: general protocol -> semi-noisy ->
noisy-copy -> oblivious noisy decision tree -> read-once tree.

Each stage preserves the outcome law it must preserve and never loses
advantage, so a lower bound on what the final read-once tree can do for
blockwise parity is a lower bound for the original protocol.  The chain
has one target, decided here: the parity of all inputs (the product of
the block parities, :func:`advantage.parity_sign`) under uniform inputs.
The stages:

* :func:`to_semi_noisy` -- replaces every transmission by an input
  sender with a 3-transmission gadget on an extended network: the
  sender announces what it would have sent for input 0 and for input 1
  (noiseless), then a fresh input node broadcasts the raw input bit
  (noisy); receivers re-noise internally when the two announcements
  agree, otherwise select the announcement matching their noisy copy of
  the input.  The joint law of the simulated received bits equals the
  original one exactly.
* :func:`to_noisy_copy` -- fronts the schedule with one epsilon^d-noisy
  broadcast per input node; receivers regenerate the d epsilon-noisy
  copies they previously saw via regeneration masks, which leaves the
  per-input outcome law unchanged.
* :func:`fix_randomness` -- fixes internal randomness to its
  parity-advantage-maximizing assignment; by averaging, no advantage is
  lost.
* :func:`to_xnd_tree` -- unrolls the deterministic auxiliary transcript
  into a binary decision tree; the channel noise of the input
  broadcasts becomes per-(block, sender) noise vectors folded into the
  block value, so each level queries one block through its noisy copy.
* :func:`protocol_to_read_once` -- composes the chain with tree
  reordering and the read-once collapse and certifies per-query
  advantages.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from . import advantage as adv_mod
from . import engine, exprs, trees
from .errors import TreeCapExceeded
from .exprs import Const, MaskBit, Noise, OwnInput, Received, Xor, mux
from .noise import regen_table
from .protocol import (
    NOISY_COPY,
    SEMI_NOISY,
    AuxRole,
    InputRole,
    MaskSource,
    Protocol,
    Transmission,
)

MAX_BLOCK_SPACE = 2**12
#: Longest auxiliary transcript :func:`to_xnd_tree` unrolls.
MAX_TREE_DEPTH = 16
#: The stages :func:`protocol_to_read_once` scores, in chain order.
STAGES = ("general", "semi_noisy", "noisy_copy", "xnd_tree", "ordered", "read_once")


# -- stage 1: semi-noisy -----------------------------------------------------


def to_semi_noisy(p: Protocol):
    """Rewrite ``p`` so input nodes only ever broadcast their raw bit.

    Returns (p1, report); the report carries the node/transmission maps
    and matched probe pairs for checking that the law of the simulated
    received bits equals the original law.
    """
    inputs = p.input_nodes()
    if not inputs:
        raise ValueError("the protocol has no input node")
    if p.roles.get(p.output_node) is None or isinstance(
        p.roles[p.output_node], InputRole
    ):
        raise ValueError("the output node must be auxiliary")
    for tr in p.schedule:
        if tr.sender in inputs and not tr.noisy:
            raise ValueError("noiseless transmissions by input nodes unsupported")

    prime_of = {v: p.n_nodes + i for i, v in enumerate(inputs)}
    adjacency = {v: set(p.adjacency.get(v, ())) for v in range(p.n_nodes)}
    for v in inputs:
        vp = prime_of[v]
        adjacency[vp] = {v} | set(p.adjacency.get(v, ()))
        adjacency[v].add(vp)
        for w in p.adjacency.get(v, ()):
            adjacency[w].add(vp)
    roles = {}
    for v in range(p.n_nodes):
        role = p.roles[v]
        roles[v] = AuxRole(0) if isinstance(role, InputRole) else role
    for v in inputs:
        roles[prime_of[v]] = InputRole(p.roles[v].block)

    schedule: list = []
    recv: dict = {}  # (reader, original t) -> Expr
    next_noise = dict.fromkeys(range(p.n_nodes), 0)
    probe_pairs: list = []

    def heard(w, t, got):
        """``got``, transmission ``t``'s bit, as ``w`` hears it over ``p.link``."""
        flip, eps = p.link(w, t)
        got = exprs.Not(got) if flip else got
        if eps is None:
            return got
        next_noise[w] += 1
        return Xor((got, Noise(next_noise[w] - 1, eps)))

    def rewrite(expr, reader, own=None):
        def m(atom):
            if isinstance(atom, Received):
                return recv.get((reader, atom.t), Const(0))
            if isinstance(atom, OwnInput) and own is not None:
                return Const(own)
            return None

        return exprs.substitute(expr, m)

    for t, tr in enumerate(p.schedule):
        v = tr.sender
        aux = isinstance(p.roles[v], AuxRole)
        r0 = Received(len(schedule))
        if aux:
            schedule.append(Transmission(v, rewrite(tr.expr, v), noisy=False))
        else:
            # announce the bit for input 0 and for input 1, then v' sends x
            r1, c = Received(r0.t + 1), Received(r0.t + 2)
            schedule.append(Transmission(v, rewrite(tr.expr, v, own=0), noisy=False))
            schedule.append(Transmission(v, rewrite(tr.expr, v, own=1), noisy=False))
            schedule.append(Transmission(prime_of[v], OwnInput(0), noisy=True, eps=tr.eps))
            same = exprs.Not(Xor((r0, r1)))
        # the nodes ``p.link`` lets hear t: the sender's neighbours
        for w in sorted(p.adjacency.get(v, ())):
            got = heard(w, t, r0)
            recv[(w, t)] = got if aux else mux(same, mux(c, r0, r1), got)
            probe_pairs.append(((w, Received(t)), (w, recv[(w, t)])))

    out_expr = rewrite(p.output_expr, p.output_node)
    p1 = Protocol(
        n_nodes=p.n_nodes + len(inputs),
        adjacency=adjacency,
        roles=roles,
        schedule=schedule,
        output_node=p.output_node,
        output_expr=out_expr,
        eps=p.eps,
        klass=SEMI_NOISY,
    )
    return p1, {"prime_of": prime_of, "probe_pairs": probe_pairs}


def check_simulation_fidelity(p: Protocol, p1: Protocol, report):
    """Max-over-inputs TV between the original received-bit law and the
    simulated one (input keys are matched positionally)."""
    orig_probes = [pr for pr, _ in report["probe_pairs"]]
    new_probes = [pr for _, pr in report["probe_pairs"]]
    ch0 = engine.exact_channel(p, orig_probes)
    ch1 = engine.exact_channel(p1, new_probes)
    return ch0.total_variation(ch1)


# -- stage 2: noisy-copy -----------------------------------------------------


def to_noisy_copy(p1: Protocol, d: int):
    """One epsilon^d broadcast per input node, masks regenerating the d
    epsilon-noisy copies.  The masks are internal randomness, which
    :func:`fix_randomness` fixes as a step of its own.

    Returns (p2, report).
    """
    if p1.klass not in (SEMI_NOISY, NOISY_COPY):
        raise ValueError("to_noisy_copy expects a semi-noisy protocol")
    eps = p1.eps
    if not 0.0 < eps < 0.5:
        raise ValueError("regeneration requires eps in (0, 1/2)")
    for tr in p1.schedule:
        if tr.noisy and tr.eps is not None and tr.eps != eps:
            raise ValueError("per-transmission noise overrides unsupported here")
    inputs = p1.input_nodes()
    counts = p1.tx_counts()
    if d < 1:
        why = "" if any(counts[v] for v in inputs) else ": no input node broadcasts"
        raise ValueError(f"d must be at least 1, got {d}{why}")
    for v in inputs:
        if counts[v] > d:
            raise ValueError(f"input node {v} sends {counts[v]} > d = {d} times")

    eps_d = eps**d
    schedule: list = []
    t0 = {}
    for v in inputs:
        t0[v] = len(schedule)
        schedule.append(Transmission(v, OwnInput(0), noisy=True, eps=eps_d))

    table = regen_table(d, eps)
    mask_sources: list = []
    src_idx: dict = {}

    def source_for(reader, v):
        key = (reader, v)
        if key not in src_idx:
            src_idx[key] = len(mask_sources)
            mask_sources.append(MaskSource(reader, table))
        return src_idx[key]

    occurrence = {}
    occ_count: dict = {}
    for t, tr in enumerate(p1.schedule):
        if tr.sender in t0:
            occurrence[t] = (tr.sender, occ_count.get(tr.sender, 0))
            occ_count[tr.sender] = occ_count.get(tr.sender, 0) + 1

    def rewrite(expr, reader, old_to_new):
        def m(atom):
            if not isinstance(atom, Received):
                return None
            told = atom.t
            if told in occurrence:
                v, i = occurrence[told]
                if p1.link(reader, told) is None:
                    return Const(0)
                return Xor(
                    (Received(t0[v]), MaskBit(source_for(reader, v), i))
                )
            return Received(old_to_new[told])

        return exprs.substitute(expr, m)

    old_to_new: dict = {}
    for t, tr in enumerate(p1.schedule):
        if t in occurrence:
            continue
        new_expr = rewrite(tr.expr, tr.sender, old_to_new)
        old_to_new[t] = len(schedule)
        schedule.append(Transmission(tr.sender, new_expr, noisy=False))
    out_expr = rewrite(p1.output_expr, p1.output_node, old_to_new)

    p2 = Protocol(
        n_nodes=p1.n_nodes,
        adjacency=dict(p1.adjacency),
        roles=dict(p1.roles),
        schedule=schedule,
        output_node=p1.output_node,
        output_expr=out_expr,
        eps=eps,
        klass=NOISY_COPY,
        mask_sources=mask_sources,
    )
    report = {
        "d": d,
        "eps_d": eps_d,
        "broadcast_of": t0,
        "aux_map": old_to_new,
        "mask_sources": len(mask_sources),
    }
    return p2, report


def fix_randomness(p: Protocol):
    """Replace internal random atoms by the constants maximizing the
    exact parity advantage of the output under uniform inputs; by
    averaging, the best fixing is at least as good as the randomized
    protocol.  Returns (fixed protocol, report), or ``(p, None)`` when
    ``p`` has no internal randomness.
    """
    prims = engine._collect_primitives(p)
    internal = [pr for pr in prims if pr.internal]
    if not internal:
        return p, None
    external = [pr for pr in prims if not pr.internal]
    # one joint grid with the internal primitives varying slowest, so each
    # internal assignment owns a contiguous slab of external outcomes
    grid = engine._grid_rows(prims)
    p_int = engine._grid_weights(internal)
    ext_weights = engine._grid_weights(external)
    n_assign, inner = len(p_int), len(ext_weights)
    w_ext = np.tile(ext_weights, n_assign)
    inputs = engine.all_input_assignments(p)
    px = 1.0 / len(inputs)
    signed = np.array([px * adv_mod.parity_sign(engine.assignment_key(p, x)) for x in inputs])

    # bins (input, internal assignment, output bit) over the input-axis
    # passes; each input's correlations are added in input order
    corr = np.zeros(n_assign * 2)
    outer_codes = (np.arange(grid) // inner) * 2
    passes = engine._exact_passes(p, internal + external, inputs, p.all_expressions()[-1:])
    for i, codes in passes:
        k = len(codes) // grid
        index = np.repeat(np.arange(k) * n_assign * 2, grid)
        index += np.tile(outer_codes, k) + codes
        weights = np.multiply.outer(signed[i : i + k], w_ext).ravel()
        per_input = np.bincount(index, weights=weights, minlength=k * n_assign * 2)
        for row in per_input.reshape(k, -1):
            corr += row
    corr = corr.reshape(n_assign, 2)
    advs = np.abs(corr).sum(axis=1)
    r_star = int(np.argmax(advs))  # first maximal assignment
    adv_before = float(np.abs((corr * p_int[:, None]).sum(axis=0)).sum())
    # the internal grid is mixed-radix, first primitive slowest
    outcomes = np.unravel_index(r_star, [pr.size for pr in internal])
    chosen = {pr.key: int(out) for pr, out in zip(internal, outcomes)}
    bits = {col: b for pr in internal for col, b in pr.decode(chosen[pr.key]).items()}

    def subst_for(node):
        def m(atom):
            if isinstance(atom, (exprs.Rand, Noise, MaskBit)):
                return Const(bits[engine._internal_key(node, atom)])
            return None

        return m

    schedule = [
        Transmission(
            tr.sender,
            exprs.substitute(tr.expr, subst_for(tr.sender)),
            tr.noisy,
            tr.eps,
        )
        for tr in p.schedule
    ]
    out_expr = exprs.substitute(p.output_expr, subst_for(p.output_node))
    fixed_p = replace(p, schedule=schedule, output_expr=out_expr, mask_sources=[])
    if not fixed_p.is_deterministic():
        raise AssertionError("randomness fixing left random atoms behind")
    report = {
        "assignments": n_assign,
        "chosen": {str(k): int(v) for k, v in chosen.items()},
        "advantage": float(advs[r_star]),
        "advantage_randomized": adv_before,
        "identity": False,  # a key `reduce --stage copy` prints
    }
    return fixed_p, report


# -- stage 3: transcript tree ------------------------------------------------


@dataclass
class XndTreeArtifact:
    """Transcript tree with its block spaces and provenance report."""

    root: trees.Tree
    spaces: list  # BlockSpace per block (tree index order)
    block_ids: list  # original 1-based block index per tree block
    block_nodes: list  # input nodes per tree block, x-part order
    eps_d: float
    report: dict = field(default_factory=dict)

    def conditionals_for(self, x_key: tuple) -> list:
        """Per-block law over extended values given the input bits.

        ``x_key`` lists input bits in canonical input order (block-major).
        A value's probability is 2^-nb times its noise vectors', so the
        noise law is ``probs`` times 2^nb, exactly.
        """
        out = []
        pos = 0
        for b, sp in enumerate(self.spaces):
            nb = len(self.block_nodes[b])
            x_part = tuple(x_key[pos : pos + nb])
            pos += nb
            match = np.array([val[0] == x_part for val in sp.values])
            out.append(np.where(match, np.multiply(sp.probs, 2.0**nb), 0.0))
        return out


def to_xnd_tree(p2: Protocol) -> XndTreeArtifact:
    """Unroll the auxiliary transcript of a deterministic noisy-copy
    protocol into an oblivious binary decision tree.

    Each auxiliary transmission becomes one level; its sender's reads of
    the input broadcasts appear as x XOR z with one noise vector z per
    (block, sender) pair shared across that sender's levels.  A level's
    branch depends only on the block value and the earlier transcript
    bits its expression reads, so each level is evaluated once, as a
    table with one row per assignment of those bits; every prefix's node
    takes the row its bits index.  Reads of transmissions from
    non-neighbors are 0, as in the protocol; for the input broadcasts
    the tree's query ignores those coordinates and the pair is recorded
    as an added edge (the adjacency normalization).  Levels reading no
    input at all are assigned the first block; their branch is constant
    across its values.
    """
    if p2.klass != NOISY_COPY:
        raise ValueError("expects a noisy-copy protocol")
    if not p2.is_deterministic():
        raise ValueError("fix internal randomness before building the tree")
    eps_d = None
    t0 = {}  # input node -> schedule index of its broadcast
    aux_sched = []
    for t, tr in enumerate(p2.schedule):
        if isinstance(p2.roles[tr.sender], InputRole):
            t0[tr.sender] = t
            e = p2.tx_eps(tr)
            if eps_d is None:
                eps_d = e
            elif eps_d != e:
                raise ValueError("input broadcasts must share one noise level")
        else:
            aux_sched.append((t, tr))
    T = len(aux_sched)
    if T > MAX_TREE_DEPTH:
        raise TreeCapExceeded(
            f"transcript length {T} exceeds the tree cap {MAX_TREE_DEPTH}", size=T
        )
    if T == 0:
        raise ValueError("protocol has no auxiliary transcript")
    aux_new_index = {t: i for i, (t, _tr) in enumerate(aux_sched)}
    blocks = p2.blocks()
    block_ids = sorted(blocks)
    block_index = {j: i for i, j in enumerate(block_ids)}
    node_block = {v: j for j, vs in blocks.items() for v in vs}

    # per level: the block it reads and the earlier levels it reads; a
    # read that ``p2.link`` gives no link is 0 and reads nothing
    level_block: list = []
    level_bits: list = []
    added_edges: list = []
    lambdas = [set() for _ in block_ids]
    for t, tr in aux_sched:
        read_blocks = set()
        reads = set()
        bits = set()
        for atom in exprs.atoms(tr.expr):
            if not isinstance(atom, Received) or p2.link(tr.sender, atom.t) is None:
                continue
            if atom.t in aux_new_index:
                bits.add(aux_new_index[atom.t])
            else:
                sender = p2.schedule[atom.t].sender
                read_blocks.add(node_block[sender])
                reads.add(sender)
        if len(read_blocks) > 1:
            raise ValueError(
                f"transmission {t} reads several blocks; not a single query"
            )
        else:
            j = read_blocks.pop() if read_blocks else block_ids[0]
        b = block_index[j]
        level_block.append(b)
        level_bits.append(sorted(bits))
        if reads:
            lambdas[b].add(tr.sender)
            for v in blocks[j]:
                if v not in reads:
                    added_edges.append((tr.sender, v))
    lambdas = [sorted(s) for s in lambdas]

    # block spaces: values (x part, z parts per lambda); x is uniform and
    # the target is the block parity
    spaces = []
    columns = []  # per block: x as each broadcast's sent bit, z as its channel bits
    for b, j in enumerate(block_ids):
        nodes = blocks[j]
        nb = len(nodes)
        nz = len(lambdas[b])
        space = 2 ** (nb * (1 + nz))
        if space > MAX_BLOCK_SPACE:
            raise TreeCapExceeded(
                f"block {j} value space {space} exceeds {MAX_BLOCK_SPACE}", size=space
            )
        values, probs, hs = [], [], []
        px = 0.5**nb
        for x in itertools.product((0, 1), repeat=nb):
            for zs in itertools.product(
                itertools.product((0, 1), repeat=nb), repeat=nz
            ):
                pz = 1.0
                for zvec in zs:
                    for zb in zvec:
                        pz *= eps_d if zb else 1.0 - eps_d
                values.append((x, zs))
                probs.append(px * pz)
                hs.append(-1 if sum(x) % 2 else 1)
        spaces.append(
            trees.BlockSpace(tuple(values), tuple(probs), tuple(hs))
        )
        flat = np.array([x + sum(zs, ()) for x, zs in values])  # a column per bit
        columns.append((
            {t0[v]: flat[:, i] for i, v in enumerate(nodes)},
            {("chan", s, t0[v]): flat[:, nb * (1 + li) + i]
             for li, s in enumerate(lambdas[b]) for i, v in enumerate(nodes)},
        ))

    # one branch table per level, the level's expression run by ``_Sim``:
    # rows index the read transcript bits (big-endian over the sorted
    # levels), columns the block values
    tables, row_of = [], []
    for level, (_t, tr) in enumerate(aux_sched):
        b = level_block[level]
        bits = level_bits[level]
        row = np.arange(2 ** len(bits))[:, None]
        sent, chan = columns[b]
        sim = engine._Sim(p2, {}, chan, 1)
        sim.sent = dict(sent)
        for i, k in enumerate(bits):
            sim.sent[aux_sched[k][0]] = row >> len(bits) - 1 - i & 1
        tables.append(np.broadcast_to(sim.ev(tr.sender, tr.expr), (len(row), spaces[b].size)))
        # node q of this level is the transcript prefix with bits q
        # (big-endian); it takes the row its read bits index
        r = np.zeros(2**level, dtype=np.intp)
        for k in bits:
            r = r << 1 | np.arange(2**level) >> level - 1 - k & 1
        row_of.append(r)
    kids = [np.arange(2 ** (i + 1)).reshape(-1, 2) for i in range(T)]
    kids[-1] = np.zeros_like(kids[-1])

    return XndTreeArtifact(
        root=trees.Tree(level_block, tables, row_of, kids),
        spaces=spaces,
        block_ids=block_ids,
        block_nodes=[blocks[j] for j in block_ids],
        eps_d=eps_d,
        report={
            "depth": T,
            "added_edges": added_edges,
            "level_block": level_block,
            "level_sender": [tr.sender for _t, tr in aux_sched],
        },
    )


def check_leaf_law(p2: Protocol, art: XndTreeArtifact) -> float:
    """Max-over-inputs TV between the protocol's auxiliary transcript law
    and the tree's leaf law."""
    inputs = set(p2.input_nodes())
    aux = [(tr.sender, tr.expr) for tr in p2.schedule if tr.sender not in inputs]
    ch = engine.exact_channel(p2, aux)
    tree_law = np.zeros_like(ch.law)
    for i, key in enumerate(ch.keys):
        for path, prob in trees.leaf_law(art.root, art.conditionals_for(key)).items():
            code = 0
            for bit in path:
                code = (code << 1) | bit
            tree_law[i, code] += prob
    return ch.total_variation(engine.Channel(ch.keys, tree_law))


# -- full chain --------------------------------------------------------------


def stage_advantage(p: Protocol) -> float:
    """Exact parity advantage of ``p``'s output under uniform inputs."""
    mu = adv_mod.uniform_distribution(len(p.input_nodes()))
    return adv_mod.advantage_exact(engine.exact_channel(p), adv_mod.parity_sign, mu).value


def protocol_to_read_once(p: Protocol, d: int, D=None):
    """Full chain to a read-once noisy tree with stage-wise advantages
    and per-collapsed-query certificates.

    The certificate reports every collapsed query's exact advantage
    beside the closed-form bound (constant 1) at the query's actual
    depth and at the budget depth 3D (when ``D`` is given).  The report's
    ``protocols`` are the semi-noisy and the fixed noisy-copy stages, for
    law checks that would otherwise rebuild them.
    """
    if p.schedule and p.output_expr != p.schedule[-1].expr:
        raise ValueError(
            "the chain requires the declared output to be the last "
            "transmitted bit"
        )
    adv0 = stage_advantage(p)
    p1, rep1 = to_semi_noisy(p)
    adv1 = stage_advantage(p1)
    p2, rep2 = to_noisy_copy(p1, d)
    p2, rep2["fixed"] = fix_randomness(p2)
    adv2 = stage_advantage(p2)
    art = to_xnd_tree(p2)
    ordered, cert = trees.reorder(art.root, art.spaces)
    # each step logs the advantage before it; the last entry, the ordered
    # tree's
    adv_tree = cert[0]["advantage_before"] if len(cert) > 1 else cert[0]["advantage"]
    adv_ordered = cert[-1]["advantage"]
    readonce, _rec = trees.collapse_to_read_once(ordered)
    adv_ro, _weighting, alphas = trees.readonce_advantage(readonce, art.spaces)

    query_certs = []
    counts = trees.query_multiset(ordered)
    for b, alpha in sorted(alphas.items()):
        n_b = len(art.block_nodes[b])
        ell = counts.get(b, 0)
        entry = {
            "block": art.block_ids[b],
            "levels": ell,
            "alpha": alpha,
            "bound_at_levels": adv_mod.alpha_bound(n_b, ell, art.eps_d, 1.0),
        }
        if D is not None:
            entry["bound_at_3D"] = adv_mod.alpha_bound(n_b, 3 * D, art.eps_d, 1.0)
        query_certs.append(entry)

    chain = (adv0, adv1, adv2, adv_tree, adv_ordered, adv_ro)
    report = {
        "advantages": dict(zip(STAGES, chain)),
        # the slack absorbs rounding only: steps reach -2.2e-15 on the chain
        "monotone": all(a <= b + 1e-9 for a, b in zip(chain, chain[1:])),
        "protocols": (p1, p2),
        "semi_noisy": rep1,
        "noisy_copy": rep2,
        "tree": art.report,
        "reorder_certificate": cert,
        "query_certificates": query_certs,
        "alphas": {art.block_ids[b]: a for b, a in alphas.items()},
    }
    return readonce, art, report
