"""Protocols on noisy broadcast networks.

A protocol is a fixed-length schedule of single-bit transmissions on a
communication graph.  Each transmission is driven by a closed boolean
expression evaluated at the sender; receivers get independent noisy copies
(or exact copies, for transmissions flagged noiseless), as
:meth:`Protocol.link` states.  The declared answer is computed by the
sender of the last transmission.

Node roles split the vertex set into input nodes (one input bit each,
grouped into blocks) and auxiliary nodes (input fixed).  The ``klass`` tag
tracks the protocol hierarchy used by the transformation chain:
``general`` -> ``semi-noisy`` (input nodes broadcast only their input bit,
auxiliary transmissions noiseless) -> ``noisy-copy`` (semi-noisy with
exactly one broadcast per input node).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

from . import exprs
from .exprs import Expr, Maj, OwnInput, Received, Xor
from .noise import RegenTable

GENERAL = "general"
SEMI_NOISY = "semi-noisy"
NOISY_COPY = "noisy-copy"


@dataclass(frozen=True)
class InputRole:
    block: int  # 1-based block index


@dataclass(frozen=True)
class AuxRole:
    fixed_bit: int = 0


@dataclass(frozen=True)
class Transmission:
    sender: int
    expr: Expr
    noisy: bool = True
    eps: float | None = None  # override of the protocol noise parameter


@dataclass(frozen=True)
class MaskSource:
    """Categorical internal random source (a regeneration mask) at a node."""

    node: int
    table: RegenTable


@dataclass
class Protocol:
    n_nodes: int
    adjacency: dict  # node -> frozenset of neighbors
    roles: dict  # node -> InputRole | AuxRole
    schedule: list  # list[Transmission]
    output_node: int
    output_expr: Expr
    eps: float
    klass: str = GENERAL
    mask_sources: list = field(default_factory=list)

    def __post_init__(self):
        self.adjacency = {v: frozenset(nb) for v, nb in self.adjacency.items()}
        self.validate()

    # -- structure ---------------------------------------------------------

    @property
    def T(self) -> int:
        return len(self.schedule)

    def input_nodes(self) -> list:
        return sorted(
            v for v, r in self.roles.items() if isinstance(r, InputRole)
        )

    def blocks(self) -> dict:
        """block index -> sorted list of its input nodes."""
        out: dict = {}
        for v in self.input_nodes():
            out.setdefault(self.roles[v].block, []).append(v)
        return {j: sorted(vs) for j, vs in sorted(out.items())}

    def n_per_block(self) -> int:
        sizes = {len(vs) for vs in self.blocks().values()}
        if len(sizes) != 1:
            raise ValueError("blocks have unequal sizes")
        return sizes.pop()

    def k_blocks(self) -> int:
        return len(self.blocks())

    def tx_counts(self) -> dict:
        counts = {v: 0 for v in range(self.n_nodes)}
        for tr in self.schedule:
            counts[tr.sender] += 1
        return counts

    def tx_eps(self, tr: Transmission) -> float:
        return self.eps if tr.eps is None else tr.eps

    def link(self, node: int, t: int):
        """How ``node`` hears transmission ``t``: the one read rule of every
        stage.  ``None`` when ``node`` is not a neighbour of the sender (the
        read is 0); else ``(flip, eps)``: the sent bit XOR ``flip``, XOR a
        Bernoulli(eps) channel bit (the engine's ``("chan", node, t)``)
        unless ``eps`` is None.  A noiseless or ε = 0 link copies the bit
        and an ε = 1 link flips it; only a link with 0 < ε < 1 draws a bit."""
        tr = self.schedule[t]
        if tr.sender not in self.adjacency.get(node, ()):
            return None
        eps = self.tx_eps(tr) if tr.noisy else 0.0
        if eps in (0.0, 1.0):
            return int(eps), None
        return 0, eps

    # -- validation --------------------------------------------------------

    def validate(self):
        # every node id the protocol names must be one of its nodes
        named = [*self.roles, *self.adjacency, *(w for nb in self.adjacency.values() for w in nb),
                 *(tr.sender for tr in self.schedule), self.output_node,
                 *(src.node for src in self.mask_sources)]
        for v in named:
            if v not in range(self.n_nodes):
                raise ValueError(f"node {v} is not one of the {self.n_nodes} nodes")
        for v in range(self.n_nodes):
            if v not in self.roles:
                raise ValueError(f"node {v} has no role")
            if isinstance(self.roles[v], AuxRole) and self.roles[v].fixed_bit not in (0, 1):
                raise ValueError(f"node {v} has fixed bit {self.roles[v].fixed_bit}, not 0 or 1")
            if v in self.adjacency.get(v, frozenset()):
                raise ValueError(f"node {v} is its own neighbor")
        for v, nb in self.adjacency.items():
            for w in nb:
                if v not in self.adjacency.get(w, frozenset()):
                    raise ValueError(f"adjacency not symmetric at ({v},{w})")
        # noise levels must lie in [0, 1]; NaN fails every comparison
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError(f"eps = {self.eps!r} is outside [0, 1]")
        for i, tr in enumerate(self.schedule):
            if tr.eps is not None and not 0.0 <= tr.eps <= 1.0:
                raise ValueError(f"transmission {i} eps = {tr.eps!r} is outside [0, 1]")
        noise_eps: dict = {}  # (node, i) -> the eps of its first noise[i, eps]
        # the output expression comes last, at index T
        for i, (node, expr) in enumerate(self.all_expressions()):
            where = f"transmission {i}" if i < self.T else "the output expression"
            for e in exprs.nodes(expr):
                if isinstance(e, (Xor, exprs.And, exprs.Or)) and not e.args:
                    raise ValueError(f"{where} has {exprs.to_text(e)}, a fold of no arguments")
                if isinstance(e, Received) and e.t >= i:
                    raise ValueError(f"{where} reads rx[{e.t}] (dangling index)")
                if isinstance(e, OwnInput) and e.index != 0:
                    raise ValueError(f"{where} reads in[{e.index}]; nodes hold one input bit")
                if isinstance(e, exprs.MaskBit):
                    if e.src >= len(self.mask_sources):
                        raise ValueError(f"{where} reads unknown mask source")
                    t = self.mask_sources[e.src].table.t
                    if not 0 <= e.j < t:
                        raise ValueError(f"{where} reads mask bit {e.j} of a {t}-bit mask")
                if isinstance(e, exprs.Noise):
                    if not 0.0 <= e.eps <= 1.0:
                        raise ValueError(f"{where} noise eps = {e.eps!r} is outside [0, 1]")
                    first = noise_eps.setdefault((node, e.i), e.eps)
                    if first != e.eps:
                        msg = f"but node {node} already reads noise[{e.i}] with eps {first!r}"
                        raise ValueError(f"{where} reads {exprs.to_text(e)}, {msg}")
        if self.schedule and self.schedule[-1].sender != self.output_node:
            raise ValueError("output node must send the last transmission")
        if self.klass in (SEMI_NOISY, NOISY_COPY):
            self._validate_semi_noisy()
        if self.klass == NOISY_COPY:
            counts = self.tx_counts()
            for v in self.input_nodes():
                if counts[v] != 1:
                    raise ValueError(
                        f"noisy-copy protocol: input node {v} sends {counts[v]} times"
                    )

    def _validate_semi_noisy(self):
        inputs = set(self.input_nodes())
        for i, tr in enumerate(self.schedule):
            if tr.sender in inputs:
                if tr.expr != OwnInput(0):
                    raise ValueError(
                        f"semi-noisy protocol: input sender {tr.sender} at {i} "
                        "must transmit its raw input"
                    )
                if not tr.noisy:
                    raise ValueError("input broadcasts must be noisy")
            elif tr.noisy:
                raise ValueError(
                    f"semi-noisy protocol: auxiliary transmission {i} must be noiseless"
                )

    def is_deterministic(self) -> bool:
        """True when no expression reads internal randomness."""
        for node, expr in self.all_expressions():
            for atom in exprs.atoms(expr):
                if isinstance(atom, (exprs.Rand, exprs.Noise, exprs.MaskBit)):
                    return False
        return True

    def all_expressions(self):
        """(evaluating node, expression) pairs, schedule order then output."""
        out = [(tr.sender, tr.expr) for tr in self.schedule]
        out.append((self.output_node, self.output_expr))
        return out


def complete_adjacency(n_nodes: int) -> dict:
    return {
        v: frozenset(w for w in range(n_nodes) if w != v) for v in range(n_nodes)
    }


def star_adjacency(n_leaves: int) -> dict:
    """Leaves 0..n-1 around center node n."""
    adj = {i: frozenset({n_leaves}) for i in range(n_leaves)}
    adj[n_leaves] = frozenset(range(n_leaves))
    return adj


# -- bounded-protocol check ------------------------------------------------


def check_bounded_counts(tx_counts: dict, dec, d: float, D: float) -> dict:
    """Per-block transmission budgets (P3, P4) from a count profile."""
    report = {"p3_ok": True, "p3_witnesses": [], "p4_ok": True, "p4_witnesses": []}
    for j, (inp, aux) in enumerate(zip(dec.input_blocks, dec.aux_blocks), start=1):
        counts = list(map(tx_counts.get, inp, repeat(0)))
        for v, c in zip(inp, counts):
            if c > d:
                report["p3_ok"] = False
                report["p3_witnesses"].append({"block": j, "node": v, "count": c})
        total = sum(counts) + sum(map(tx_counts.get, aux, repeat(0)))
        if total > D:
            report["p4_ok"] = False
            report["p4_witnesses"].append({"block": j, "count": total})
    report["ok"] = report["p3_ok"] and report["p4_ok"]
    return report


# -- reference protocol builders -------------------------------------------


def _repeat(schedule: list, sender: int, expr: Expr, r: int) -> Expr:
    """Append ``r`` transmissions of ``expr`` by ``sender``; return what a
    receiver decodes from them: the one received bit, or their majority."""
    first = len(schedule)
    schedule.extend(Transmission(sender=sender, expr=expr) for _ in range(r))
    received = tuple(Received(t) for t in range(first, first + r))
    return Maj(received) if r > 1 else received[0]


def _xor(decoded: list) -> Expr:
    return Xor(tuple(decoded)) if len(decoded) > 1 else decoded[0]


def _block_roles(dec, n_nodes: int) -> dict:
    """Input block roles for ``dec``'s input nodes, then the fixed-input
    auxiliary role for every other node of ``range(n_nodes)``."""
    roles = {v: InputRole(j) for j, blk in enumerate(dec.input_blocks, 1) for v in blk}
    for v in range(n_nodes):
        roles.setdefault(v, AuxRole(dec.fixed_bit))
    return roles


def star_xor(n: int, reps: int = 1, eps: float = 0.1) -> Protocol:
    """n leaves broadcast their bit ``reps`` times; the center XORs the
    majority-decoded values and announces the result."""
    if n < 1 or reps < 1:
        raise ValueError("need n >= 1 and reps >= 1")
    center = n
    roles = {i: InputRole(1) for i in range(n)}
    roles[center] = AuxRole(0)
    schedule = []
    out_expr = _xor([_repeat(schedule, leaf, OwnInput(0), reps) for leaf in range(n)])
    schedule.append(Transmission(sender=center, expr=out_expr))
    return Protocol(
        n_nodes=n + 1,
        adjacency=star_adjacency(n),
        roles=roles,
        schedule=schedule,
        output_node=center,
        output_expr=out_expr,
        eps=eps,
    )


def _common_neighbor(p_adj: dict, nodes, exclude) -> int | None:
    cands = None
    for v in nodes:
        nb = set(p_adj.get(v, ()))
        cands = nb if cands is None else cands & nb
    if not cands:
        return None
    cands -= set(exclude)
    return min(cands) if cands else None


def repetition_majority_parity(net, dec, r: int, eps: float = 0.1) -> Protocol:
    """All input nodes broadcast r times to a shared aggregator, which
    majority-decodes every bit and announces the XOR.

    ``net`` may be None, in which case all nodes are assumed adjacent.
    The aggregator is the smallest-index auxiliary node adjacent to every
    input node.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    inputs = sorted(v for blk in dec.input_blocks for v in blk)
    n_nodes = (
        net.n_nodes
        if net is not None
        else max(inputs + dec.aux0 + [v for b in dec.aux_blocks for v in b]) + 1
    )
    if net is not None:
        adjacency = {v: frozenset(nb) for v, nb in net.adjacency.items()}
    else:
        adjacency = complete_adjacency(n_nodes)
    agg = _common_neighbor(adjacency, inputs, exclude=inputs)
    if agg is None:
        raise ValueError("no auxiliary aggregator adjacent to all input nodes")
    schedule = []
    out_expr = _xor([_repeat(schedule, v, OwnInput(0), r) for v in inputs])
    schedule.append(Transmission(sender=agg, expr=out_expr))
    return Protocol(
        n_nodes=n_nodes,
        adjacency=adjacency,
        roles=_block_roles(dec, n_nodes),
        schedule=schedule,
        output_node=agg,
        output_expr=out_expr,
        eps=eps,
    )


def cluster_sum(net, dec, r_local: int, r_up: int, eps: float = 0.1) -> Protocol:
    """Blockwise parity aggregation along a relay chain of block leaders.

    Each block's members broadcast their bit ``r_local`` times to a block
    leader, who majority-decodes them and folds the block parity into a
    running parity that is relayed leader-to-leader (via shortest paths in
    the network, with ``r_up``-fold repetition per hop).  The last leader
    announces the overall parity.
    """
    from collections import deque

    if r_local < 1 or r_up < 1:
        raise ValueError("repetition factors must be >= 1")
    n_nodes = net.n_nodes
    adjacency = {v: frozenset(nb) for v, nb in net.adjacency.items()}
    inputs = set(v for blk in dec.input_blocks for v in blk)
    leaders = []
    for blk in dec.input_blocks:
        leader = _common_neighbor(adjacency, blk, exclude=inputs)
        if leader is None:
            raise ValueError(f"no leader adjacent to all of block {blk}")
        leaders.append(leader)

    def shortest_path(a, b):
        if a == b:
            return [a]
        prev = {a: None}
        q = deque([a])
        while q:
            u = q.popleft()
            for w in sorted(adjacency[u]):
                if w not in prev:
                    prev[w] = u
                    if w == b:
                        path = [b]
                        while prev[path[-1]] is not None:
                            path.append(prev[path[-1]])
                        return path[::-1]
                    q.append(w)
        raise ValueError("network is disconnected between block leaders")

    schedule = []
    # Local phase: every input node broadcasts r_local times.
    decoded = {
        v: _repeat(schedule, v, OwnInput(0), r_local)
        for blk in dec.input_blocks
        for v in sorted(blk)
    }
    # Upward phase: fold block parities along the leader relay chain.
    running = None  # expression for the carried parity, at the current holder
    holder = None
    for leader, blk in zip(leaders, dec.input_blocks):
        if holder is not None:  # relay the parity to this block's leader
            for relay in shortest_path(holder, leader)[:-1]:
                running = _repeat(schedule, relay, running, r_up)
        block_parity = Xor(tuple(decoded[v] for v in sorted(blk)))
        running = block_parity if running is None else Xor((running, block_parity))
        holder = leader
    schedule.append(Transmission(sender=holder, expr=running))
    return Protocol(
        n_nodes=n_nodes,
        adjacency=adjacency,
        roles=_block_roles(dec, n_nodes),
        schedule=schedule,
        output_node=holder,
        output_expr=running,
        eps=eps,
    )


# -- protocol file format ---------------------------------------------------


def protocol_to_text(p: Protocol) -> str:
    lines = [f"nodes {p.n_nodes}", f"eps {float(p.eps)!r}", f"class {p.klass}"]
    for v in range(p.n_nodes):
        role = p.roles[v]
        if isinstance(role, InputRole):
            lines.append(f"node {v} input block={role.block}")
        else:
            lines.append(f"node {v} aux fix={role.fixed_bit}")
    for v in sorted(p.adjacency):
        for w in sorted(p.adjacency[v]):
            if v < w:
                lines.append(f"edge {v} {w}")
    for src in p.mask_sources:
        lines.append(f"masksrc {src.node} {src.table.to_json()}")
    for tr in p.schedule:
        flag = "" if tr.noisy else " noiseless"
        epss = "" if tr.eps is None else f" eps={float(tr.eps)!r}"
        lines.append(f"tx {tr.sender}{flag}{epss} := {exprs.to_text(tr.expr)}")
    lines.append(f"out {p.output_node} := {exprs.to_text(p.output_expr)}")
    return "\n".join(lines) + "\n"


def protocol_from_text(text: str) -> Protocol:
    n_nodes = None
    eps = 0.1
    klass = GENERAL
    roles: dict = {}
    edges = []
    schedule = []
    mask_sources = []
    output = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            head, *rest = line.split(None, 1)
            body = rest[0] if rest else ""
            if head == "nodes":
                n_nodes = int(body)
            elif head == "eps":
                eps = float(body)
            elif head == "class":
                klass = body.strip()
            elif head == "node":
                parts = body.split()
                v = int(parts[0])
                if parts[1] == "input":
                    block = int(parts[2].partition("=")[2])
                    roles[v] = InputRole(block)
                elif parts[1] == "aux":
                    fix = int(parts[2].partition("=")[2])
                    roles[v] = AuxRole(fix)
                else:
                    raise ValueError(f"unknown role {parts[1]!r}")
            elif head == "edge":
                a, b = body.split()
                edges.append((int(a), int(b)))
            elif head == "masksrc":
                node_s, table_json = body.split(None, 1)
                mask_sources.append(
                    MaskSource(int(node_s), RegenTable.from_json(table_json))
                )
            elif head == "tx":
                lhs, expr_text = body.split(":=", 1)
                toks = lhs.split()
                sender = int(toks[0])
                noisy = "noiseless" not in toks
                tr_eps = None
                for tok in toks[1:]:
                    if tok.startswith("eps="):
                        tr_eps = float(tok[4:])
                schedule.append(
                    Transmission(sender, exprs.parse(expr_text), noisy, tr_eps)
                )
            elif head == "out":
                node_s, expr_text = body.split(":=", 1)
                output = (int(node_s), exprs.parse(expr_text))
            else:
                raise ValueError(f"unknown directive {head!r}")
        except (ValueError, IndexError) as exc:  # a token too few reads past the list
            raise ValueError(f"line {lineno}: {exc}") from exc
    if n_nodes is None:
        raise ValueError("missing 'nodes' line")
    if output is None:
        raise ValueError("missing 'out' line")
    adjacency = {v: set() for v in range(n_nodes)}
    for a, b in edges:  # Protocol.validate rejects an end outside range(n_nodes)
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    return Protocol(
        n_nodes=n_nodes,
        adjacency=adjacency,
        roles=roles,
        schedule=schedule,
        output_node=output[0],
        output_expr=output[1],
        eps=eps,
        klass=klass,
        mask_sources=mask_sources,
    )
