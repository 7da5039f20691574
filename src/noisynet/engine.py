"""Protocol execution: sampled traces and exact outcome laws.

An exact or sampled channel is the law of a probe list: ``(node, expr)``
pairs, each evaluated at its node once the schedule has run, their bits
packed into one outcome code, the first probe highest.  The output law
is the law of ``p.all_expressions()[-1:]``, the transcript law that of
``[(tr.sender, tr.expr) for tr in p.schedule]``.

The exact engine enumerates every random primitive the protocol and the
probes actually read -- channel noise bits of (receiver, transmission)
pairs that some expression consumes, internal fair/biased bits, and
categorical regeneration masks -- and pushes the whole assignment grid
through the schedule with vectorized expression evaluation.  Primitives
that nothing reads do not enlarge the grid, so the enumeration cost
tracks the information the protocol uses rather than the raw receiver
count.

Every primitive is read as the big-endian bit columns of its outcome
index (``_Primitive.columns``): a binary primitive is the one column of
its key, a t-bit mask source the t columns ``("mask", src, j)``.  Each
draw builder fills one dict of columns, and ``_Sim`` reads every random
atom from it.  The grid is bit-sliced: a column is packed ``uint64``
words, 64 grid rows (or Monte-Carlo trials) per word, and expressions
run on whole words with ``one = ONES`` (see :mod:`exprs`).  Outcome
codes are unpacked for the first ``n`` rows only, so the pad rows of the
last word never reach a law, and ``np.bincount`` adds the same weights
in the same row order as an unpacked grid would.

``execute`` samples one run on Python ints through a plan compiled once
per protocol (``_plan``): one function per transmission, every atom and
form resolved when it is built, so a Monte-Carlo trial costs a few
microseconds.  The packed passes interpret the schedule through ``_Sim``
instead: a ``chain`` round runs about 1,000 protocols and 580 probe sets
about once each, and a prototype that compiled them too made that round
slower (2.09 to 2.38 s at seed 1, 0.22 s of it compiling).  Both read a
link by one rule (``_link``).

The packed Monte-Carlo sampler draws each two-outcome primitive (a
channel bit, a ``Rand`` or ``Noise`` bit, a one-coordinate mask) as
words from the stream's raw Philox output, with the law of
``random() < p``: a 53-bit integer is compared with ceil(p * 2^53) one
bit per level, most significant first, one raw word per packed word with
an undecided lane (:func:`_bernoulli_words`), about 7.3 raw words per 64
trials instead of 64 doubles.  Wider masks go through
``Generator.choice``, their indices decoded into columns once;
``execute`` draws one ``random()`` per primitive.

The input assignment is the slowest grid axis: one ``_Sim`` pass runs
many inputs, each own-input bit a packed column, and the exact law of m
probes is one dense ``(inputs x 2^m)`` array of outcome-code
probabilities from one ``np.bincount`` per pass.  Each input keeps its
own contiguous run of rows, so its row of the law holds the same floats
as a pass of its own.  A pass holds as many inputs as fit in
``PASS_ROWS`` rows (or one input whose grid is larger): longer passes
save little time and raise peak memory.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import exprs, noise
from .errors import CapExceeded
from .protocol import InputRole, Protocol

#: Caps of exact enumeration: at most 2^CAP_BITS grid rows per input and
#: 2^CAP_BITS law entries (inputs x outcome codes), over at most
#: 2^MAX_INPUT_BITS input assignments.
CAP_BITS = 24
MAX_INPUT_BITS = 20
#: Rows of (inputs x grid) in one exact pass.  A ``chain`` round runs
#: about as fast with 2^24-row passes but peaks at 103 MB of RSS against
#: 85 MB at 2^16 rows; one input per pass also peaks at 85 MB but takes
#: about 1.4x as long.
PASS_ROWS = 2**16


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

    @functools.cached_property
    def columns(self) -> tuple:
        """Keys of the big-endian bit columns of the outcome index: the key
        itself for a binary primitive, ``("mask", src, j)`` for bit j of a
        mask."""
        if self.key[0] != "mask":
            return (self.key,)
        return tuple(self.key + (j,) for j in range(self.size.bit_length() - 1))

    def decode(self, index) -> dict:
        """Each column's bit of the outcome ``index`` (an int or index array)."""
        w = len(self.columns)
        return {col: noise.mask_bit(index, w, j) for j, col in enumerate(self.columns)}


def _internal_key(node, atom) -> tuple:
    """Column key of a ``Rand``, ``Noise`` or ``MaskBit`` atom read by
    ``node``; for a ``Rand`` or ``Noise`` bit it is the primitive's key."""
    if isinstance(atom, exprs.MaskBit):
        return ("mask", atom.src, atom.j)
    return ("rand" if isinstance(atom, exprs.Rand) else "noise", node, atom.i)


def _link(p: Protocol, node, t):
    """How ``node`` reads transmission ``t``: ``None`` when it is not a
    neighbour of the sender (the read is 0), else ``(flip, eps)``: the sent
    bit XOR ``flip``, XOR the Bernoulli(eps) channel bit ``("chan", node,
    t)`` unless ``eps`` is None.  A noiseless or ε = 0 link copies the bit
    and an ε = 1 link flips it; only a link with 0 < ε < 1 draws a bit."""
    tr = p.schedule[t]
    if not p.is_neighbor(node, tr.sender):
        return None
    eps = p.tx_eps(tr) if tr.noisy else 0.0
    if eps in (0.0, 1.0):
        return int(eps), None
    return 0, eps


def _collect_primitives(p: Protocol, probes=()) -> tuple:
    """The protocol's primitive table plus the primitives the ``(node,
    expr)`` probes add.  The table is collected once and kept on the
    protocol as ``_primitives``: a protocol is validated once in
    ``__post_init__`` and never mutated (``with_`` builds a new one)."""
    if "_primitives" not in p.__dict__:
        p.__dict__["_primitives"] = _add_primitives(p, (), p.all_expressions())
    return _add_primitives(p, p.__dict__["_primitives"], probes)


def _add_primitives(p: Protocol, table: tuple, contexts) -> tuple:
    """``table`` plus the primitives the ``(node, expr)`` ``contexts`` read,
    in key order (``table`` itself if they add none); a ``Noise`` atom whose
    ε differs from its key's entry is an error."""
    prims = {pr.key: pr for pr in table}
    for node, expr in contexts:
        for atom in exprs.atoms(expr):
            if isinstance(atom, exprs.Received):
                _flip, eps = _link(p, node, atom.t) or (0, None)
                if eps is not None:
                    key = ("chan", node, atom.t)
                    prims[key] = _Primitive(key, (1 - eps, eps))
            elif isinstance(atom, exprs.Rand):
                key = _internal_key(node, atom)
                prims[key] = _Primitive(key, (0.5, 0.5))
            elif isinstance(atom, exprs.Noise):
                key = _internal_key(node, atom)
                new = _Primitive(key, (1 - atom.eps, atom.eps))
                if prims.setdefault(key, new) != new:
                    raise ValueError(f"conflicting eps for noise atom {key}")
            elif isinstance(atom, exprs.MaskBit):
                key = ("mask", atom.src)
                prims[key] = _Primitive(key, p.mask_sources[atom.src].table.index_probs)
    if len(prims) == len(table):
        return table
    return tuple(prims[k] for k in sorted(prims))


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


def _grid_rows(prims) -> int:
    """Rows of the joint outcome grid of ``prims``, at most 2^CAP_BITS."""
    grid = math.prod(pr.size for pr in prims)
    if grid > 2**CAP_BITS:
        raise CapExceeded(f"enumeration size {grid} exceeds 2^{CAP_BITS}", size=grid)
    return grid


def _grid_weights(prims) -> np.ndarray:
    """Weight of each row of the joint outcome grid of ``prims`` (the first
    one varying slowest): 1.0 times its primitives' probabilities, in order."""
    _grid_rows(prims)
    weights = np.ones(1)
    for pr in prims:
        weights = np.multiply.outer(weights, pr.probs).ravel()
    return weights


def _enumeration_arrays(prims, reps: int = 1) -> dict:
    """Packed bit columns over ``reps`` copies of the joint outcome grid of
    ``prims`` (the first one varying slowest); :func:`_grid_weights` gives
    one grid's weights.  A w-bit primitive whose index steps every
    ``stride`` rows has bit j flip every ``stride << (w - 1 - j)`` rows.
    Every column's period divides the grid, so the copies are the grid's
    rows again."""
    stride = _grid_rows(prims)
    n = reps * stride
    bits = {}
    for pr in prims:
        stride //= pr.size
        w = len(pr.columns)
        for j, col in enumerate(pr.columns):
            bits[col] = _column_words(stride << (w - 1 - j), n)
    return bits


def _bernoulli_words(bitgen, p: float, trials: int) -> np.ndarray:
    """``trials`` Bernoulli(p) bits packed into ``uint64`` words (trial r
    at bit r % 64 of word r // 64), drawn from ``bitgen.random_raw``.

    Let c = ceil(p * 2^53).  Lane k of word w is 1 iff a uniform 53-bit
    integer is below c: exactly the law of ``Generator.random() < p``,
    whose double is such an integer times 2^-53.  The integer is drawn one
    bit per level, most significant bit first.  At each level one raw word
    is taken per packed word that still has an undecided lane, in word
    order; a lane's bit is bit k of its word's raw word.  At a level where
    c has a 1 bit, undecided lanes whose random bit is 0 become 1; where c
    has a 0 bit, undecided lanes whose random bit is 1 become 0.  Drawing
    stops after c's lowest set bit, or when no lane is undecided;
    still-undecided lanes are 0.  c = 0 gives all zeros and c >= 2^53 all
    ones, with no draws.  Lanes past ``trials`` in the last word are never
    drawn and are 0.  Each level halves the undecided lanes, so a packed
    word takes about 7.3 raw words.
    """
    n_words = (trials + 63) // 64
    out = np.zeros(n_words, dtype=np.uint64)
    c = math.ceil(p * 2.0**53)
    if c <= 0:
        return out
    undecided = np.full(n_words, ONES)
    if trials % 64:
        undecided[-1] = np.uint64((1 << trials % 64) - 1)
    if c >= 2**53:
        return undecided
    words = np.arange(n_words)  # the packed words that hold undecided lanes
    lowest = (c & -c).bit_length() - 1
    for level in range(52, lowest - 1, -1):
        raw = bitgen.random_raw(len(words))
        if c >> level & 1:
            out[words] |= undecided & ~raw
            undecided &= raw
        else:
            undecided &= ~raw
        live = np.flatnonzero(undecided)
        if len(live) < len(words):
            if not len(live):
                break
            words, undecided = words[live], undecided[live]
    return out


def _sampled_arrays(prims, trials: int, rng) -> dict:
    """Packed bit columns of ``trials`` draws of ``prims``: a two-outcome
    primitive (a one-coordinate mask too) straight from raw words, a wider
    mask's ``Generator.choice`` indices decoded once."""
    gen = rng.numpy_generator()
    bits = {}
    for pr in prims:
        if pr.size == 2:
            bits[pr.columns[0]] = _bernoulli_words(gen.bit_generator, pr.probs[1], trials)
        else:
            index = gen.choice(pr.size, size=trials, p=np.asarray(pr.probs))
            for col, col_bits in pr.decode(index).items():
                bits[col] = _to_words(col_bits)
    return bits


# -- simulation -------------------------------------------------------------


class _Sim:
    """One run of the schedule over every row of the bit columns ``bits``.

    ``x_bits`` maps each input node to its bit, and ``one`` is the value
    of a 1 bit, in the columns' domain: packed words (one input per run of
    rows) and ``one = ONES`` in the exact and sampled passes; 0/1 ints and
    ``one = 1`` give the run :func:`execute`'s plan compiles.
    """

    def __init__(self, p: Protocol, x_bits: dict, bits: dict, one):
        self.p = p
        self.x_bits = x_bits
        self.bits = bits
        self.one = one
        self.sent: list = []
        self._rx: dict = {}

    def value(self, node, atom):
        """The bits of ``atom`` as ``node`` reads them, in the columns' domain."""
        if isinstance(atom, exprs.Received):
            return self.rx_value(node, atom.t)
        if isinstance(atom, exprs.OwnInput):
            role = self.p.roles[node]
            if isinstance(role, InputRole):
                return self.x_bits[node]
            return self.one if role.fixed_bit else 0
        return self.bits[_internal_key(node, atom)]

    def rx_value(self, node, t):
        key = (node, t)
        if key in self._rx:
            return self._rx[key]
        link = _link(self.p, node, t)
        val = 0
        if link is not None:
            flip, eps = link
            val = self.one ^ self.sent[t] if flip else self.sent[t]
            if eps is not None:
                val = val ^ self.bits[("chan", node, t)]
        self._rx[key] = val
        return val

    def run(self, probes) -> list:
        """Run the schedule, then return the bits of each ``(node, expr)``
        probe."""

        def ev(node, expr):
            return exprs.evaluate(expr, functools.partial(self.value, node), self.one)

        for tr in self.p.schedule:
            self.sent.append(ev(tr.sender, tr.expr))
        return [ev(node, e) for node, e in probes]


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


def input_order(p: Protocol) -> tuple:
    """Canonical input-node order: by (block, node index).  Kept on the
    protocol as ``_input_order``, as :func:`_collect_primitives` keeps its
    table."""
    if "_input_order" not in p.__dict__:
        order = tuple(v for _j, blk in sorted(p.blocks().items()) for v in blk)
        p.__dict__["_input_order"] = order
    return p.__dict__["_input_order"]


def all_input_assignments(p: Protocol) -> list:
    """Every input assignment, at most 2^MAX_INPUT_BITS of them."""
    order = input_order(p)
    if len(order) > MAX_INPUT_BITS:
        raise CapExceeded(
            f"2^{len(order)} input assignments exceed 2^{MAX_INPUT_BITS}",
            size=2 ** len(order),
        )
    return [dict(zip(order, bits)) for bits in itertools.product((0, 1), repeat=len(order))]


def assignment_key(p: Protocol, x_bits: dict) -> tuple:
    return tuple(x_bits[v] for v in input_order(p))


# -- channels ---------------------------------------------------------------


class Channel:
    """Exact (or estimated) outcome law per input assignment.

    ``law[i, c]`` is the probability of outcome code ``c`` on input
    ``keys[i]`` (a bit tuple in canonical input order); a code packs the
    outcome's bits, the first highest, so ``law`` has 2^m columns.
    """

    def __init__(self, keys, law):
        self.keys = [tuple(k) for k in keys]
        self.law = np.asarray(law, dtype=float)

    def total_variation(self, other: "Channel") -> float:
        """Max over inputs of the TV distance between the rows of one key."""
        if other.keys != self.keys or other.law.shape != self.law.shape:
            raise ValueError("the channels' input keys or outcome columns differ")
        return float((0.5 * np.abs(self.law - other.law).sum(axis=1)).max(initial=0.0))


def _exact_passes(p: Protocol, prims, inputs, probes):
    """Yield ``(i, codes)`` per pass: the codes of ``probes`` on the inputs
    ``inputs[i:i + k]`` over the enumeration grid of ``prims``, the input
    varying slowest, so each input owns one contiguous run of grid rows."""
    grid = _grid_rows(prims)
    per_pass = max(1, PASS_ROWS // grid)
    rows = bits = None
    for i in range(0, len(inputs), per_pass):
        chunk = inputs[i : i + per_pass]
        if rows != len(chunk) * grid:
            rows, bits = len(chunk) * grid, _enumeration_arrays(prims, reps=len(chunk))
        # each input node's bit, packed over one run of grid rows per input
        x_bits = {
            v: _to_words(np.repeat([x[v] for x in chunk], grid)) for v in input_order(p)
        }
        yield i, _codes(_Sim(p, x_bits, bits, ONES).run(probes), rows)


def exact_channel(p: Protocol, probes=None) -> Channel:
    """Exact law of the ``(node, expr)`` probe list over every input
    assignment, the first probe highest in the code; ``None`` is the output
    probe ``p.all_expressions()[-1:]``, and the transcript law is that of
    ``[(tr.sender, tr.expr) for tr in p.schedule]``.  Enumerates every
    random primitive the protocol and the probes read, the inputs as the
    slowest grid axis; at most 2^CAP_BITS grid rows per input and law
    entries in all."""
    probes = p.all_expressions()[-1:] if probes is None else list(probes)
    inputs = all_input_assignments(p)
    width = 2 ** len(probes)
    if len(inputs) * width > 2**CAP_BITS:
        raise CapExceeded(
            f"law size {len(inputs)} x {width} exceeds 2^{CAP_BITS}",
            size=len(inputs) * width,
        )
    prims = _collect_primitives(p, probes)
    weights = _grid_weights(prims)
    grid = len(weights)
    law = np.empty((len(inputs), width))
    for i, codes in _exact_passes(p, prims, inputs, probes):
        k = len(codes) // grid
        index = np.repeat(np.arange(k) * width, grid) + codes
        law[i : i + k] = np.bincount(
            index, weights=np.tile(weights, k), minlength=k * width
        ).reshape(k, width)
    keys = [assignment_key(p, x_bits) for x_bits in inputs]
    return Channel(keys, law)


def sampled_channel(p: Protocol, inputs, trials: int, rng, probes=None) -> Channel:
    """Monte-Carlo estimate of the law of the probe list, as in
    :func:`exact_channel` (``None`` is the output probe), vectorized over
    trials."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    probes = p.all_expressions()[-1:] if probes is None else list(probes)
    width = 2 ** len(probes)
    prims = _collect_primitives(p, probes)
    law = np.empty((len(inputs), width))
    for i, x_bits in enumerate(inputs):
        bits = _sampled_arrays(prims, trials, rng.spawn("mc", i))
        # each input bit is the same in every trial: a constant word
        own = {v: ONES if x_bits[v] else 0 for v in input_order(p)}
        codes = _codes(_Sim(p, own, bits, ONES).run(probes), trials)
        law[i] = np.bincount(codes, minlength=width) / trials
    keys = [assignment_key(p, x_bits) for x_bits in inputs]
    return Channel(keys, law)


# -- sampled execution ------------------------------------------------------


@dataclass
class ExecutionTrace:
    sent: list  # the bit of each transmission, in schedule order
    output: int


def _plan(p: Protocol) -> tuple:
    """``(inputs, draws, steps)``: ``p`` compiled for :func:`execute`, built
    on its first call and kept on the protocol as ``_plan``, as
    :func:`_collect_primitives` keeps its table.

    A run is one list ``v`` of 0/1 ints: the sent bits at 0..T-1, then the
    bit columns of the primitives in table order, then the bits of the
    input nodes ``inputs`` that read their input.  ``draws`` holds p_1 per
    two-outcome primitive, the normalised cumulative sum and the width per
    wider mask.  ``steps`` holds one function of ``v`` per transmission,
    then one for the output, every atom resolved by ``_Sim``'s rules."""
    if "_plan" in p.__dict__:
        return p.__dict__["_plan"]
    T = len(p.schedule)
    slots: dict = {}  # column key or input node -> its place in v
    draws = []
    for pr in _collect_primitives(p):
        for col in pr.columns:
            slots[col] = T + len(slots)
        if pr.size == 2:
            draws.append(float(pr.probs[1]))
        else:
            cdf = np.cumsum(pr.probs)
            draws.append(((cdf / cdf[-1]).tolist(), len(pr.columns)))
    inputs = []

    def atom(node, a):
        if isinstance(a, exprs.Received):
            t, link = a.t, _link(p, node, a.t)
            if link is None:
                return lambda v: 0
            flip, eps = link
            if eps is not None:
                c = slots[("chan", node, t)]
                return lambda v: v[t] ^ v[c]
            return (lambda v: 1 ^ v[t]) if flip else operator.itemgetter(t)
        if isinstance(a, exprs.OwnInput):
            role = p.roles[node]
            if not isinstance(role, InputRole):
                bit = 1 if role.fixed_bit else 0
                return lambda v: bit
            if node not in slots:
                slots[node] = T + len(slots)
                inputs.append(node)
            return operator.itemgetter(slots[node])
        return operator.itemgetter(slots[_internal_key(node, a)])

    steps = tuple(
        exprs.compile_int(e, functools.partial(atom, node))
        for node, e in p.all_expressions()
    )
    p.__dict__["_plan"] = tuple(inputs), tuple(draws), steps
    return p.__dict__["_plan"]


def execute(p: Protocol, x_bits: dict, rng) -> ExecutionTrace:
    """Sample one full run through the protocol's :func:`_plan`.  One
    uniform per primitive is mapped to an outcome as the packed sampler's
    draws are: a two-outcome primitive is 1 iff u < p_1, a wider one takes
    the outcome ``Generator.choice`` gives, the first whose normalised
    cumulative sum exceeds u (``bisect_right`` is ``np.searchsorted`` with
    ``side="right"``)."""
    inputs, draws, steps = _plan(p)
    T = len(p.schedule)
    v = [0] * T
    for d, u in zip(draws, rng.numpy_generator().random(len(draws)).tolist()):
        if type(d) is float:
            v.append(1 if u < d else 0)
        else:
            cdf, w = d
            index = bisect.bisect_right(cdf, u)
            v += [noise.mask_bit(index, w, j) for j in range(w)]
    v += [int(x_bits[node]) for node in inputs]
    for t in range(T):
        v[t] = steps[t](v)
    return ExecutionTrace(sent=v[:T], output=steps[T](v))


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
    z: float = 3.0,
) -> ErrorEstimate:
    """Worst-case-over-inputs probability that the output differs from f.

    ``f`` maps a canonical input bit tuple to {0, 1}.  The Monte-Carlo
    method reports the max of the per-input upper confidence bounds.
    """
    if method == "exact":
        ch = exact_channel(p)
        per_input = {
            key: 1.0 - vec[f(key)] for key, vec in zip(ch.keys, ch.law.tolist())
        }
        worst = max(per_input.values())
        return ErrorEstimate(worst, "exact", per_input)
    if method != "mc":
        raise ValueError("method must be 'exact' or 'mc'")
    if rng is None:
        raise ValueError("Monte-Carlo error estimation needs an rng stream")
    ch = sampled_channel(p, all_input_assignments(p), trials, rng)
    per_input = {}
    for key, vec in zip(ch.keys, ch.law.tolist()):
        err = 1.0 - vec[f(key)]
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
