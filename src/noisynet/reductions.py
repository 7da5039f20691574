"""The protocol transformation chain: general protocol -> semi-noisy ->
noisy-copy -> oblivious noisy decision tree -> read-once tree.

Each stage preserves the outcome law it must preserve and never loses
advantage, so a lower bound on what the final read-once tree can do for
blockwise parity is a lower bound for the original protocol.  The
stages:

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
  per-input outcome law unchanged.  Internal randomness is then fixed
  to its advantage-maximizing assignment (:func:`fix_randomness`).
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
from dataclasses import dataclass, field

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


# -- stage 1: semi-noisy -----------------------------------------------------


def to_semi_noisy(p: Protocol):
    """Rewrite ``p`` so input nodes only ever broadcast their raw bit.

    Returns (p1, report); the report carries the node/transmission maps
    and matched probe pairs for checking that the law of the simulated
    received bits equals the original law.
    """
    inputs = p.input_nodes()
    if p.roles.get(p.output_node) is None or isinstance(
        p.roles[p.output_node], InputRole
    ):
        raise ValueError("the output node must be auxiliary")
    for tr in p.schedule:
        if tr.sender in inputs and not tr.noisy:
            raise ValueError("noiseless transmissions by input nodes unsupported")

    prime_of = {v: p.n_nodes + i for i, v in enumerate(inputs)}
    n_nodes1 = p.n_nodes + len(inputs)
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
    next_noise = {v: 0 for v in range(n_nodes1)}
    gadget_of: dict = {}
    probe_pairs: list = []

    def fresh_noise(w, eps):
        i = next_noise[w]
        next_noise[w] += 1
        return Noise(i, eps)

    def recv_expr(w, t):
        got = recv.get((w, t))
        return got if got is not None else Const(0)

    def rewrite(expr, reader, own=None):
        def m(atom):
            if isinstance(atom, Received):
                return recv_expr(reader, atom.t)
            if isinstance(atom, OwnInput) and own is not None:
                return Const(own)
            return None

        return exprs.substitute(expr, m)

    for t, tr in enumerate(p.schedule):
        eps_t = p.tx_eps(tr)
        nbrs = sorted(p.adjacency.get(tr.sender, ()))
        if isinstance(p.roles[tr.sender], AuxRole):
            new_expr = rewrite(tr.expr, tr.sender)
            idx = len(schedule)
            schedule.append(Transmission(tr.sender, new_expr, noisy=False))
            gadget_of[t] = [idx]
            for w in nbrs:
                if tr.noisy and 0.0 < eps_t < 1.0:
                    recv[(w, t)] = Xor(
                        (Received(idx), fresh_noise(w, eps_t))
                    )
                else:
                    recv[(w, t)] = Received(idx)
        else:
            v = tr.sender
            b0 = rewrite(tr.expr, v, own=0)
            b1 = rewrite(tr.expr, v, own=1)
            i0 = len(schedule)
            schedule.append(Transmission(v, b0, noisy=False))
            schedule.append(Transmission(v, b1, noisy=False))
            i2 = i0 + 2
            schedule.append(
                Transmission(prime_of[v], OwnInput(0), noisy=True, eps=tr.eps)
            )
            gadget_of[t] = [i0, i0 + 1, i2]
            for w in nbrs:
                r0, r1, c = Received(i0), Received(i1 := i0 + 1), Received(i2)
                same = exprs.Not(Xor((r0, r1)))
                recv[(w, t)] = mux(
                    same, mux(c, r0, r1), Xor((r0, fresh_noise(w, eps_t)))
                )
        for w in nbrs:
            probe_pairs.append(((w, Received(t)), (w, recv[(w, t)])))

    out_expr = rewrite(p.output_expr, p.output_node)
    p1 = Protocol(
        n_nodes=n_nodes1,
        adjacency=adjacency,
        roles=roles,
        schedule=schedule,
        output_node=p.output_node,
        output_expr=out_expr,
        eps=p.eps,
        klass=SEMI_NOISY,
        meta={
            "stage": "semi-noisy",
            "prime_of": prime_of,
            "gadget_of": gadget_of,
        },
    )
    report = {
        "prime_of": prime_of,
        "gadget_of": gadget_of,
        "probe_pairs": probe_pairs,
        "t_aux": sum(
            1 for tr in p.schedule if isinstance(p.roles[tr.sender], AuxRole)
        ),
        "t_input": sum(
            1 for tr in p.schedule if isinstance(p.roles[tr.sender], InputRole)
        ),
    }
    return p1, report


def check_simulation_fidelity(p: Protocol, p1: Protocol, report):
    """Max-over-inputs TV between the original received-bit law and the
    simulated one (input keys are matched positionally)."""
    orig_probes = [pr for pr, _ in report["probe_pairs"]]
    new_probes = [pr for _, pr in report["probe_pairs"]]
    ch0 = engine.exact_channel(p, orig_probes)
    ch1 = engine.exact_channel(p1, new_probes)
    return ch0.total_variation(ch1)


# -- stage 2: noisy-copy -----------------------------------------------------


def to_noisy_copy(p1: Protocol, d: int, f=None, mu=None, fix=True):
    """One epsilon^d broadcast per input node, masks regenerating the d
    epsilon-noisy copies, internal randomness fixed.

    Returns (p2, report).  ``f`` (input key -> +/-1) and ``mu`` are
    needed when ``fix`` is true and the protocol reads randomness.
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
                if not p1.is_neighbor(reader, v):
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
        meta={**p1.meta, "stage": "noisy-copy", "d": d, "eps_d": eps_d},
    )
    report = {
        "d": d,
        "eps_d": eps_d,
        "broadcast_of": t0,
        "aux_map": old_to_new,
        "mask_sources": len(mask_sources),
        "fixed": None,
    }
    if fix and not p2.is_deterministic():
        if f is None or mu is None:
            raise ValueError("fixing randomness needs the target f and mu")
        p2, fix_report = fix_randomness(p2, f, mu)
        report["fixed"] = fix_report
    return p2, report


def fix_randomness(p: Protocol, f, mu):
    """Replace internal random atoms by the constants maximizing the
    exact output advantage; by averaging, the best fixing is at least
    as good as the randomized protocol.
    """
    adv_mod.validate_distribution(mu)
    prims = engine._collect_primitives(p)
    internal = [pr for pr in prims if pr.internal]
    if not internal:
        return p, {"assignments": 1, "chosen": {}, "identity": True}
    external = [pr for pr in prims if not pr.internal]
    # one joint grid with the internal primitives varying slowest, so each
    # internal assignment owns a contiguous slab of external outcomes
    grid = engine._grid_rows(prims)
    p_int = engine._grid_weights(internal)
    ext_weights = engine._grid_weights(external)
    n_assign, inner = len(p_int), len(ext_weights)
    w_ext = np.tile(ext_weights, n_assign)
    support = [(x_key, px) for x_key, px in mu.items() if px != 0.0]
    order = engine.input_order(p)
    inputs = [dict(zip(order, x_key)) for x_key, _px in support]
    signed = np.array([px * f(tuple(x_key)) for x_key, px in support])

    # bins (input, internal assignment, output bit) over the input-axis
    # passes; each input's correlations are added in ``mu`` order
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
    fixed_p = p.with_(schedule=schedule, output_expr=out_expr, mask_sources=[])
    if not fixed_p.is_deterministic():
        raise AssertionError("randomness fixing left random atoms behind")
    report = {
        "assignments": n_assign,
        "chosen": {str(k): int(v) for k, v in chosen.items()},
        "advantage": float(advs[r_star]),
        "advantage_randomized": adv_before,
        "identity": False,
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
    lambdas: list  # per tree block: sorted aux senders with a noise vector
    noise_probs: list  # per tree block: each value's noise-vector probability
    eps_d: float
    report: dict = field(default_factory=dict)

    def conditionals_for(self, x_key: tuple) -> list:
        """Per-block law over extended values given the input bits.

        ``x_key`` lists input bits in canonical input order (block-major).
        """
        out = []
        pos = 0
        for b, sp in enumerate(self.spaces):
            nb = len(self.block_nodes[b])
            x_part = tuple(x_key[pos : pos + nb])
            pos += nb
            match = np.array([val[0] == x_part for val in sp.values])
            out.append(np.where(match, self.noise_probs[b], 0.0))
        return out


def to_xnd_tree(p2: Protocol, mu_blocks=None) -> XndTreeArtifact:
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
    t0_of = {}  # schedule index of broadcast -> input node
    aux_sched = []
    for t, tr in enumerate(p2.schedule):
        if isinstance(p2.roles[tr.sender], InputRole):
            t0_of[t] = tr.sender
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

    # per level: the block it reads, the input broadcasts and the earlier
    # levels it adjacently reads
    level_block: list = []
    level_reads: list = []
    level_bits: list = []
    added_edges: list = []
    lambdas = [set() for _ in block_ids]
    for t, tr in aux_sched:
        read_blocks = set()
        reads = set()
        bits = set()
        for atom in exprs.atoms(tr.expr):
            if not isinstance(atom, Received):
                continue
            sender = p2.schedule[atom.t].sender
            if not p2.is_neighbor(tr.sender, sender):
                continue
            if atom.t in t0_of:
                read_blocks.add(node_block[sender])
                reads.add(sender)
            else:
                bits.add(aux_new_index[atom.t])
        if len(read_blocks) > 1:
            raise ValueError(
                f"transmission {t} reads several blocks; not a single query"
            )
        else:
            j = read_blocks.pop() if read_blocks else block_ids[0]
        b = block_index[j]
        level_block.append(b)
        level_reads.append(reads)
        level_bits.append(sorted(bits))
        if reads:
            lambdas[b].add(tr.sender)
            for v in blocks[j]:
                if v not in reads:
                    added_edges.append((tr.sender, v))
    lambdas = [sorted(s) for s in lambdas]

    # block spaces: values (x part, z parts per lambda)
    if mu_blocks is None:
        mu_blocks = [None] * len(block_ids)
    spaces = []
    noise_probs = []
    for b, j in enumerate(block_ids):
        nodes = blocks[j]
        nb = len(nodes)
        nz = len(lambdas[b])
        space = 2 ** (nb * (1 + nz))
        if space > MAX_BLOCK_SPACE:
            raise TreeCapExceeded(
                f"block {j} value space {space} exceeds {MAX_BLOCK_SPACE}", size=space
            )
        mu_j = mu_blocks[b]
        values, probs, hs, pzs = [], [], [], []
        for x in itertools.product((0, 1), repeat=nb):
            px = mu_j[x] if mu_j is not None else 0.5**nb
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
                pzs.append(pz)
        spaces.append(
            trees.BlockSpace(tuple(values), tuple(probs), tuple(hs))
        )
        noise_probs.append(np.array(pzs))

    # one branch table per level: rows index the read transcript bits
    # (big-endian over the sorted levels), columns the block values
    tables, row_of = [], []
    for level, (_t, tr) in enumerate(aux_sched):
        b = level_block[level]
        sp = spaces[b]
        bits = level_bits[level]
        row = np.arange(2 ** len(bits))[:, None]
        shift = {k: len(bits) - 1 - i for i, k in enumerate(bits)}
        reads = level_reads[level]
        li = lambdas[b].index(tr.sender) if reads else None
        cols = {  # input node -> x XOR z over the block's values
            v: np.array([x[vi] ^ zs[li][vi] for x, zs in sp.values])
            for vi, v in enumerate(blocks[block_ids[b]])
            if v in reads
        }

        def value(atom):
            if isinstance(atom, OwnInput):
                return p2.roles[tr.sender].fixed_bit
            if atom.t in t0_of:
                return cols.get(t0_of[atom.t], 0)
            k = aux_new_index[atom.t]
            return row >> shift[k] & 1 if k in shift else 0

        tables.append(np.broadcast_to(exprs.evaluate(tr.expr, value), (len(row), sp.size)))
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
        lambdas=lambdas,
        noise_probs=noise_probs,
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
    aux = [(tr.sender, tr.expr) for tr in p2.schedule if tr.sender not in p2.input_nodes()]
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


def stage_advantage(p: Protocol, f, mu) -> float:
    ch = engine.exact_channel(p)
    return adv_mod.advantage_exact(ch, f, mu).value


def protocol_to_read_once(
    p: Protocol,
    d: int,
    mu_blocks=None,
    D=None,
    alpha_c: float = 1.0,
):
    """Full chain to a read-once noisy tree with stage-wise advantages
    and per-collapsed-query certificates.

    ``mu_blocks`` optionally gives each block's input law (uniform by
    default).  The certificate compares every collapsed query's exact
    advantage against the closed-form bound at the query's actual depth
    and at the budget depth 3D (when ``D`` is given).
    """
    f = adv_mod.parity_sign
    if p.schedule and p.output_expr != p.schedule[-1].expr:
        raise ValueError(
            "the chain requires the declared output to be the last "
            "transmitted bit"
        )
    blocks = p.blocks()
    block_ids = sorted(blocks)
    if mu_blocks is None:
        mu_list = [
            adv_mod.uniform_distribution(len(blocks[j])) for j in block_ids
        ]
    else:
        mu_list = list(mu_blocks)
    mu = adv_mod.product_distribution(mu_list)

    adv0 = stage_advantage(p, f, mu)
    p1, rep1 = to_semi_noisy(p)
    adv1 = stage_advantage(p1, f, mu)
    p2, rep2 = to_noisy_copy(p1, d, f=f, mu=mu)
    adv2 = stage_advantage(p2, f, mu)
    art = to_xnd_tree(p2, mu_blocks=mu_list)
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
            "bound_at_levels": adv_mod.alpha_bound(n_b, ell, art.eps_d, alpha_c),
        }
        if D is not None:
            entry["bound_at_3D"] = adv_mod.alpha_bound(
                n_b, 3 * D, art.eps_d, alpha_c
            )
        query_certs.append(entry)

    report = {
        "advantages": {
            "general": adv0,
            "semi_noisy": adv1,
            "noisy_copy": adv2,
            "xnd_tree": adv_tree,
            "ordered": adv_ordered,
            "read_once": adv_ro,
        },
        # the slack absorbs rounding only: steps reach -2.2e-15 on the chain
        "monotone": bool(
            adv0 <= adv1 + 1e-9
            and adv1 <= adv2 + 1e-9
            and adv2 <= adv_tree + 1e-9
            and adv_tree <= adv_ordered + 1e-9
            and adv_ordered <= adv_ro + 1e-9
        ),
        "semi_noisy": rep1,
        "noisy_copy": rep2,
        "tree": art.report,
        "reorder_certificate": cert,
        "query_certificates": query_certs,
        "alphas": {art.block_ids[b]: a for b, a in alphas.items()},
    }
    return readonce, art, report
