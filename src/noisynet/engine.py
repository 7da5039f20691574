"""Protocol execution: sampled traces and exact outcome laws.

The exact engine enumerates every random primitive a protocol actually
reads -- channel noise bits of (receiver, transmission) pairs that some
later expression consumes, internal fair/biased bits, and categorical
regeneration masks -- and pushes the whole assignment grid through the
schedule with vectorized expression evaluation.  Primitives that no
expression reads do not enlarge the grid, so the enumeration cost tracks
the information the protocol uses rather than the raw receiver count.

The grid is bit-sliced: each binary primitive is a column of packed
``uint64`` words, 64 grid rows (or Monte-Carlo trials) per word, and
expressions run on whole words with ``one = ONES`` (see :mod:`exprs`).
Mask primitives keep one outcome index per row; a mask bit is packed the
first time an expression reads it.  Outcome codes are unpacked for the
first ``n`` rows only, so the pad rows of the last word never reach a
law, and ``np.bincount`` adds the same weights in the same row order as
an unpacked grid would.  ``execute`` runs the same schedule on Python
ints with ``one = 1``: a batch of one.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import exprs, noise
from .errors import CapExceeded
from .protocol import InputRole, Protocol

DEFAULT_CAP_BITS = 24


# -- primitives -------------------------------------------------------------


@dataclass(frozen=True)
class _Primitive:
    key: tuple  # ("chan", reader, t) | ("rand", node, i) | ("noise", node, i) | ("mask", src)
    probs: tuple

    @property
    def size(self) -> int:
        return len(self.probs)

    @property
    def internal(self) -> bool:
        return self.key[0] != "chan"


def _internal_key(node, atom) -> tuple:
    """Primitive key of a ``Rand`` or ``Noise`` atom read by ``node``."""
    return ("rand" if isinstance(atom, exprs.Rand) else "noise", node, atom.i)


def _collect_primitives(p: Protocol, probes=()):
    """All random primitives read anywhere in the protocol (plus probes)."""
    prims: dict = {}
    noise_eps: dict = {}
    contexts = list(p.all_expressions()) + [(node, e) for node, e in probes]
    for node, expr in contexts:
        for atom in exprs.atoms(expr):
            if isinstance(atom, exprs.Received):
                tr = p.schedule[atom.t]
                if not p.is_neighbor(node, tr.sender) or not tr.noisy:
                    continue
                eps = p.tx_eps(tr)
                if eps in (0.0, 1.0):
                    continue
                prims[("chan", node, atom.t)] = _Primitive(
                    ("chan", node, atom.t), (1 - eps, eps)
                )
            elif isinstance(atom, exprs.Rand):
                key = _internal_key(node, atom)
                prims[key] = _Primitive(key, (0.5, 0.5))
            elif isinstance(atom, exprs.Noise):
                key = _internal_key(node, atom)
                if key in noise_eps and noise_eps[key] != atom.eps:
                    raise ValueError(f"conflicting eps for noise atom {key}")
                noise_eps[key] = atom.eps
                prims[key] = _Primitive(key, (1 - atom.eps, atom.eps))
            elif isinstance(atom, exprs.MaskBit):
                key = ("mask", atom.src)
                prims[key] = _Primitive(key, p.mask_sources[atom.src].table.index_probs)
    return [prims[k] for k in sorted(prims)]


#: The value of a 1 bit in packed words: all 64 rows set.
ONES = np.uint64(2**64 - 1)


def _to_words(bits) -> np.ndarray:
    """Pack 0/1 rows into ``uint64`` words, row r at bit r % 64 of word r // 64."""
    packed = np.packbits(np.asarray(bits, dtype=bool), bitorder="little")
    packed = np.concatenate([packed, np.zeros(-len(packed) % 8, np.uint8)])
    return packed.view("<u8")


def _column_words(stride: int, total: int) -> np.ndarray:
    """Packed bits of a binary grid column that flips every ``stride`` rows."""
    n_words = (total + 63) // 64
    if stride % 64 == 0:  # each word lies inside one run
        return np.where(np.arange(n_words) * 64 // stride % 2 == 1, ONES, np.uint64(0))
    if 64 % stride == 0:  # every word holds the same runs
        word = sum(1 << b for b in range(64) if b // stride % 2)
        return np.full(n_words, word, dtype=np.uint64)
    return _to_words(np.arange(total) // stride % 2)


class _Draws:
    """Values of the random primitives over ``n`` rows.

    ``bits`` holds each binary primitive's bits and ``masks`` each mask
    source's outcome indices (keyed ``("mask", src)``).  Packed draws hold
    the bits as words and ``one = ONES``; a batch of one holds Python ints
    and ``one = 1``.
    """

    def __init__(self, p: Protocol, n: int, bits: dict, masks: dict, packed=True):
        self.n = n
        self.packed = packed
        self.one = ONES if packed else 1
        self.bits = bits
        self.masks = masks
        self._p = p
        self._mask_bits: dict = {}

    def mask_bit(self, src: int, j: int):
        key = (src, j)
        if key not in self._mask_bits:
            t = self._p.mask_sources[src].table.t
            col = noise.mask_bit(self.masks[("mask", src)], t, j)
            self._mask_bits[key] = _to_words(col) if self.packed else int(col)
        return self._mask_bits[key]


def _grid_weights(prims) -> np.ndarray:
    """Weight of each row of the joint outcome grid of ``prims`` (the first
    one varying slowest): 1.0 times its primitives' probabilities, in order."""
    weights = np.ones(1)
    for pr in prims:
        weights = np.multiply.outer(weights, pr.probs).ravel()
    return weights


def _enumeration_arrays(p: Protocol, prims, cap_bits: int) -> _Draws:
    """Packed draws over the joint outcome grid of ``prims`` (the first one
    varying slowest); :func:`_grid_weights` gives the rows' weights."""
    total = math.prod(pr.size for pr in prims)
    if total > 2**cap_bits:
        raise CapExceeded(
            f"enumeration size {total} exceeds 2^{cap_bits}", size=total
        )
    bits, masks = {}, {}
    stride = total
    for pr in prims:
        stride //= pr.size
        if pr.key[0] == "mask":
            masks[pr.key] = np.arange(total) // stride % pr.size
        else:
            bits[pr.key] = _column_words(stride, total)
    return _Draws(p, total, bits, masks)


def _sampled_arrays(p: Protocol, prims, trials: int, rng, packed=True):
    gen = rng.numpy_generator()
    bits, masks = {}, {}
    for pr in prims:
        if pr.size == 2:  # a one-coordinate mask is drawn like a bit
            draw = gen.random(trials) < pr.probs[1]
        else:
            draw = gen.choice(pr.size, size=trials, p=np.asarray(pr.probs))
        if pr.key[0] == "mask":
            masks[pr.key] = np.asarray(draw, dtype=np.intp) if packed else int(draw[0])
        else:
            bits[pr.key] = _to_words(draw) if packed else int(draw[0])
    rng.counter += trials * len(prims)
    return _Draws(p, trials, bits, masks, packed)


# -- simulation -------------------------------------------------------------


class _Sim:
    """One run of the schedule for one input over every row of ``draws``."""

    def __init__(self, p: Protocol, x_bits: dict, draws: _Draws):
        self.p = p
        self.x_bits = x_bits
        self.draws = draws
        self.one = draws.one
        self.sent: list = []
        self._rx: dict = {}

    def value(self, node, atom):
        """The bits of ``atom`` as ``node`` reads them, in the draws' domain."""
        if isinstance(atom, exprs.Received):
            return self.rx_value(node, atom.t)
        if isinstance(atom, exprs.OwnInput):
            role = self.p.roles[node]
            own = self.x_bits[node] if isinstance(role, InputRole) else role.fixed_bit
            return self.one if own else 0
        if isinstance(atom, exprs.MaskBit):
            return self.draws.mask_bit(atom.src, atom.j)
        return self.draws.bits[_internal_key(node, atom)]

    def rx_value(self, node, t):
        key = (node, t)
        if key in self._rx:
            return self._rx[key]
        tr = self.p.schedule[t]
        if not self.p.is_neighbor(node, tr.sender):
            val = 0
        elif not tr.noisy:
            val = self.sent[t]
        else:
            eps = self.p.tx_eps(tr)
            if eps == 0.0:
                val = self.sent[t]
            elif eps == 1.0:
                val = self.one ^ self.sent[t]
            else:
                val = self.sent[t] ^ self.draws.bits[("chan", node, t)]
        self._rx[key] = val
        return val

    def run(self, probes=()):
        def ev(node, expr):
            return exprs.evaluate(expr, functools.partial(self.value, node), self.one)

        for tr in self.p.schedule:
            self.sent.append(ev(tr.sender, tr.expr))
        output = ev(self.p.output_node, self.p.output_expr)
        probe_vals = [ev(node, e) for node, e in probes]
        return output, probe_vals


def _codes(values, n: int) -> np.ndarray:
    """Outcome code of each of the first ``n`` rows: the row's bit in each
    of ``values`` (packed words or constants), the first value highest."""
    if not values:
        return np.zeros(n, dtype=np.uint8)
    words = np.empty((len(values), (n + 63) // 64), dtype="<u8")
    for i, v in enumerate(values):
        words[i] = v
    bits = np.unpackbits(words.view(np.uint8), axis=1, count=n, bitorder="little")
    # the narrowest type that holds every code keeps the shifts cheap
    m = len(values)
    code = bits[0].astype(np.uint8 if m <= 8 else np.uint16 if m <= 16 else np.int64)
    for row in bits[1:]:
        code <<= 1
        code |= row
    return code


# -- input assignments ------------------------------------------------------


def input_order(p: Protocol) -> list:
    """Canonical input-node order: by (block, node index)."""
    return [v for j, blk in sorted(p.blocks().items()) for v in blk]


def all_input_assignments(p: Protocol, limit=2**20) -> list:
    order = input_order(p)
    if 2 ** len(order) > limit:
        raise CapExceeded(f"2^{len(order)} input assignments exceed the cap")
    out = []
    for bits in itertools.product((0, 1), repeat=len(order)):
        out.append(dict(zip(order, bits)))
    return out


def assignment_key(p: Protocol, x_bits: dict) -> tuple:
    return tuple(x_bits[v] for v in input_order(p))


# -- channels ---------------------------------------------------------------


def law_tv(a: dict, b: dict) -> float:
    """Total variation distance between two laws (outcome -> probability);
    an outcome missing from one side has probability 0 there."""
    return 0.5 * sum(abs(a.get(c, 0.0) - b.get(c, 0.0)) for c in set(a) | set(b))


@dataclass
class Channel:
    """Exact (or estimated) outcome law per input assignment.

    ``rows`` maps an input key (bit tuple in canonical input order) to a
    dict outcome -> probability.
    """

    rows: dict
    outcome: str = "output"
    exact: bool = True
    meta: dict = field(default_factory=dict)

    def row(self, key):
        return self.rows[tuple(key)]

    def total_variation(self, other: "Channel") -> float:
        """Max over inputs of the TV distance between matching rows."""
        worst = 0.0
        for key, row in self.rows.items():
            worst = max(worst, law_tv(row, other.rows[key]))
        return worst


def _outcome_values(sim_output, sim_sent, outcome, probe_vals):
    if outcome == "output":
        return [sim_output]
    if outcome == "transcript":
        return sim_sent
    if outcome == "probes":
        return probe_vals
    raise ValueError(f"unknown outcome kind {outcome!r}")


def _outcome_law(p, x_bits, draws, outcome, weights=None, probes=()):
    """Law of ``outcome`` for one input over the rows of ``draws`` with the
    given ``weights``, or over equally likely trials when ``weights`` is None."""
    sim = _Sim(p, x_bits, draws)
    output, probe_vals = sim.run(probes=probes)
    codes = _codes(_outcome_values(output, sim.sent, outcome, probe_vals), draws.n)
    agg = np.bincount(codes, weights=weights)
    if weights is None:
        agg = agg / draws.n
    nz = np.flatnonzero(agg)
    return dict(zip(nz.tolist(), agg[nz].tolist()))


def exact_channel(
    p: Protocol,
    inputs=None,
    outcome: str = "output",
    probes=(),
    cap_bits: int = DEFAULT_CAP_BITS,
) -> Channel:
    """Exact outcome law by enumerating all read random primitives."""
    if inputs is None:
        inputs = all_input_assignments(p)
    prims = _collect_primitives(p, probes=probes)
    draws, weights = _enumeration_arrays(p, prims, cap_bits), _grid_weights(prims)
    rows = {
        assignment_key(p, x_bits): _outcome_law(
            p, x_bits, draws, outcome, weights, probes
        )
        for x_bits in inputs
    }
    return Channel(rows=rows, outcome=outcome, exact=True)


def sampled_channel(
    p: Protocol, inputs, trials: int, rng, outcome: str = "output"
) -> Channel:
    """Monte-Carlo estimate of the outcome law, vectorized over trials."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    prims = _collect_primitives(p)
    rows = {
        assignment_key(p, x_bits): _outcome_law(
            p, x_bits, _sampled_arrays(p, prims, trials, rng.spawn("mc", i)), outcome
        )
        for i, x_bits in enumerate(inputs)
    }
    return Channel(rows=rows, outcome=outcome, exact=False, meta={"trials": trials})


# -- sampled execution ------------------------------------------------------


@dataclass
class ExecutionTrace:
    sent: list  # the bit of each transmission, in schedule order
    output: int


def execute(p: Protocol, x_bits: dict, rng) -> ExecutionTrace:
    """Sample one full run: a batch of one through the Monte-Carlo sampler,
    on Python ints (expressions evaluate faster on ints than on words)."""
    draws = _sampled_arrays(p, _collect_primitives(p), 1, rng, packed=False)
    sim = _Sim(p, x_bits, draws)
    output, _ = sim.run()
    return ExecutionTrace(sent=[int(b) for b in sim.sent], output=int(output))


# -- error probability ------------------------------------------------------


@dataclass
class ErrorEstimate:
    value: float
    method: str
    per_input: dict
    ci: tuple | None = None
    trials: int | None = None


def error_probability(
    p: Protocol,
    f,
    method: str = "exact",
    trials: int = 100_000,
    rng=None,
    cap_bits: int = DEFAULT_CAP_BITS,
    z: float = 3.0,
) -> ErrorEstimate:
    """Worst-case-over-inputs probability that the output differs from f.

    ``f`` maps a canonical input bit tuple to {0, 1}.  The Monte-Carlo
    method reports the max of the per-input upper confidence bounds.
    """
    inputs = all_input_assignments(p)
    if method == "exact":
        ch = exact_channel(p, inputs, outcome="output", cap_bits=cap_bits)
        per_input = {
            key: 1.0 - row.get(f(key), 0.0) for key, row in ch.rows.items()
        }
        worst = max(per_input.values())
        return ErrorEstimate(worst, "exact", per_input)
    if method != "mc":
        raise ValueError("method must be 'exact' or 'mc'")
    if rng is None:
        raise ValueError("Monte-Carlo error estimation needs an rng stream")
    ch = sampled_channel(p, inputs, trials, rng, outcome="output")
    per_input = {}
    for key, row in ch.rows.items():
        err = 1.0 - row.get(f(key), 0.0)
        per_input[key] = (err, wilson_interval(err, trials, z))
    point = max(v[0] for v in per_input.values())
    upper = max(v[1][1] for v in per_input.values())
    return ErrorEstimate(upper, "mc", per_input, ci=(point, upper), trials=trials)


def wilson_interval(p_hat: float, n: int, z: float) -> tuple:
    """Wilson score interval for a binomial proportion observed as ``p_hat``
    over ``n`` trials (Wilson 1927).  Unlike the normal interval it keeps a
    positive width when no or every trial succeeds."""
    z2n = z * z / n
    centre = (p_hat + z2n / 2) / (1 + z2n)
    half = z / (1 + z2n) * math.sqrt(p_hat * (1 - p_hat) / n + z2n / (4 * n))
    return (max(centre - half, 0.0), min(centre + half, 1.0))


def parity_of_inputs(key: tuple) -> int:
    return sum(key) % 2
