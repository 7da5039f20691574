"""Workload inputs and operations.

This module imports only ``noisynet`` and the standard library, so that a
fresh interpreter which imports it (see ``probe.py``) pays for the program's
own import and input generation and nothing else.

Every workload is a list of inputs made from the seed; one operation runs
the program on one input.  Operations look functions up through their
module (``planar.sample_network``), never through a local name, so that the
traced run's wrappers see every call.  An operation builds a fresh
``RngStream`` from the (seed, key) pair it is given, so that a round repeated
on the same inputs repeats the same draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from noisynet import advantage, engine, planar, protocol, random_instances, reductions, rng
from noisynet.errors import UndersizedCell

#: (n leaves, reps) of the star-XOR instances that ride along the chain;
#: every one fits the transcript-tree cap.
CHAIN_STARS = ((2, 1), (1, 3), (3, 1), (2, 2))
#: How many of the 200 random instances have each shape: (blocks k, bits
#: per block n, transmissions T, an edge inside a block).  The counts are
#: the generator's own frequencies, measured over 6000 instances.  The
#: chain's cost spans 4 ms to 430 ms across shapes, so a mix left to the
#: seed would move throughput by about 6% from seed to seed.
CHAIN_MIX = {
    (1, 1, 2, False): 25, (1, 1, 3, False): 25,
    (1, 2, 3, False): 6, (1, 2, 3, True): 7,
    (1, 2, 4, False): 14, (1, 2, 4, True): 12,
    (1, 2, 5, False): 5, (1, 2, 5, True): 6,
    (2, 1, 4, False): 12, (2, 1, 5, False): 25, (2, 1, 6, False): 12,
    (3, 1, 6, False): 51,
}
CHAIN_DRAWS = 20_000  # generator calls allowed to fill the mix

#: Criterion 5 and E2: N = 20000 at R = sqrt(10 ln N / N).
DECOMPOSE_N = 20000
DECOMPOSE_NETWORKS = 12

#: Radii as multiples of sqrt(ln N / N).  0.4 is always disconnected and
#: 1.25 always connected at this N; the factors between straddle the
#: transition, so the seed decides those.
CONNECTIVITY_N = 10000
CONNECTIVITY_FACTORS = (0.4, 0.55, 0.7, 0.85, 1.0, 1.25)
CONNECTIVITY_REPEATS = 2

#: (n leaves, reps) of the Monte-Carlo star-XOR protocols.  Odd reps keep
#: the per-input error the same for every input.
MC_STARS = ((1, 3), (2, 1), (2, 3), (3, 1), (3, 3), (4, 1))
#: Trial counts chosen so that the scalar path (250-500 us per trial) and
#: the vectorised path (50-220 ns per trial per input) take comparable
#: shares of an operation, as measured on a 2-core Xeon virtual machine.
MC_SCALAR_TRIALS = 1000
MC_VECTOR_TRIALS = 400_000
MC_Z = 5.0

#: The one operation that fails at this commit.  Its inputs, streams
#: included, do not depend on the seed, so it fails in every run.
KNOWN_FAULT = (
    "engine.error_probability floors the variance at 1e-12: with no error "
    "observed in 1e5 trials its z=5 upper bound is 1.6e-8, below the exact "
    "error 3.4e-8"
)
MC_FAULT_SEED = 20150209
MC_FAULT_STAR = (1, 5, 0.0015)
MC_FAULT_VECTOR_TRIALS = 100_000


@dataclass(frozen=True)
class ChainInput:
    p: protocol.Protocol
    d: int
    star: tuple | None  # (n, reps, eps) for star-XOR instances


@dataclass(frozen=True)
class NetworkInput:
    N: int
    R: float
    seed: int
    key: tuple


@dataclass(frozen=True)
class MonteCarloInput:
    p: protocol.Protocol
    star: tuple  # (n, reps, eps)
    scalar_trials: int
    vector_trials: int
    seed: int
    key: tuple
    known_fault: str | None = None


def _uniform(stream, lo, hi):
    return lo + (hi - lo) * float(stream.random())


def chain_shape(p: protocol.Protocol) -> tuple:
    inputs = set(p.input_nodes())
    inner_edge = any(p.adjacency[v] & inputs for v in inputs)
    return (p.k_blocks(), p.n_per_block(), p.T, inner_edge)


def chain_inputs(seed: int) -> list:
    """Seeded random instances, the first ones of each shape up to its
    count in ``CHAIN_MIX``, then the star-XOR instances."""
    base = rng.RngStream(seed, ("perfbench", "chain"))
    wanted = dict(CHAIN_MIX)
    out = []
    for i in range(CHAIN_DRAWS):
        if not any(wanted.values()):
            break
        p = random_instances.random_tiny_protocol(base, i)
        shape = chain_shape(p)
        if wanted.get(shape, 0) > 0:
            wanted[shape] -= 1
            out.append(ChainInput(p, random_instances.max_input_sends(p), None))
    if any(wanted.values()):
        raise RuntimeError(f"{CHAIN_DRAWS} instances left shapes unfilled: {wanted}")
    for n, reps in CHAIN_STARS:
        eps = _uniform(base.spawn("star-eps", n, reps), 0.05, 0.3)
        p = protocol.star_xor(n, reps=reps, eps=eps)
        out.append(ChainInput(p, random_instances.max_input_sends(p), (n, reps, eps)))
    return out


def decompose_inputs(seed: int) -> list:
    N = DECOMPOSE_N
    R = math.sqrt(10 * math.log(N) / N)
    return [
        NetworkInput(N, R, seed, ("perfbench", "decompose", i))
        for i in range(DECOMPOSE_NETWORKS)
    ]


def connectivity_inputs(seed: int) -> list:
    N = CONNECTIVITY_N
    threshold = math.sqrt(math.log(N) / N)
    return [
        NetworkInput(N, f * threshold, seed, ("perfbench", "connectivity", f, r))
        for r in range(CONNECTIVITY_REPEATS)
        for f in CONNECTIVITY_FACTORS
    ]


def montecarlo_inputs(seed: int) -> list:
    base = rng.RngStream(seed, ("perfbench", "montecarlo"))
    out = []
    for n, reps in MC_STARS:
        eps = _uniform(base.spawn("eps", n, reps), 0.05, 0.3)
        out.append(
            MonteCarloInput(
                protocol.star_xor(n, reps=reps, eps=eps), (n, reps, eps),
                MC_SCALAR_TRIALS, MC_VECTOR_TRIALS,
                seed, ("perfbench", "montecarlo", n, reps),
            )
        )
    n, reps, eps = MC_FAULT_STAR
    out.append(
        MonteCarloInput(
            protocol.star_xor(n, reps=reps, eps=eps), MC_FAULT_STAR,
            MC_SCALAR_TRIALS, MC_FAULT_VECTOR_TRIALS,
            MC_FAULT_SEED, ("perfbench", "montecarlo", "fault"), KNOWN_FAULT,
        )
    )
    return out


# -- operations --------------------------------------------------------------


def chain_op(inp: ChainInput):
    """Criterion 2 / E5 / ``reduce``: semi-noisy, fidelity, full chain."""
    p1, rep1 = reductions.to_semi_noisy(inp.p)
    tv = reductions.check_simulation_fidelity(inp.p, p1, rep1)
    _ro, _art, report = reductions.protocol_to_read_once(inp.p, inp.d)
    return tv, report


def decompose_op(inp: NetworkInput):
    """``noisynet decompose``: sample, decompose, certify, check budgets.

    A cell below mu/2 is an outcome of the geometry, not a fault: it is
    returned, and the check confirms it by its own count.  ``EmptyS2``
    cannot occur here: the selected cells' neighbourhoods are disjoint, so
    their loads sum to at most N, while 25 of them at D = 18N/M each would
    need 2.3 N.
    """
    net = planar.sample_network(inp.N, inp.R, rng.RngStream(inp.seed, inp.key))
    try:
        dec = planar.decompose_for_uniform_counts(net)
    except UndersizedCell as exc:
        return net, exc, None, None, None
    report = planar.verify_decomposition(net, dec)
    disjoint = planar.s1_neighborhoods_disjoint(net, dec)
    counts = {v: 1 for v in range(net.n_nodes)}
    bounded = protocol.check_bounded_counts(counts, dec, d=dec.d, D=dec.D)
    return net, dec, report, disjoint, bounded


def connectivity_op(inp: NetworkInput):
    """E1 / ``gen-network``: sample, then whole-graph connectivity."""
    net = planar.sample_network(inp.N, inp.R, rng.RngStream(inp.seed, inp.key))
    return net, planar.is_connected(net)


def montecarlo_op(inp: MonteCarloInput):
    """One protocol estimated by both samplers.

    The scalar path is ``advantage --method mc``; the vectorised one is
    ``run-protocol --method mc``.
    """
    p = inp.p

    def evaluator(x_key, r):
        x_bits = dict(zip(engine.input_order(p), x_key))
        return engine.execute(p, x_bits, r).output

    mu = advantage.uniform_distribution(len(p.input_nodes()))
    stream = rng.RngStream(inp.seed, inp.key)
    adv = advantage.advantage_mc(
        evaluator, advantage.parity_sign, mu, inp.scalar_trials, stream.spawn("scalar")
    )
    err = engine.error_probability(
        p, engine.parity_of_inputs, method="mc", trials=inp.vector_trials,
        rng=stream.spawn("vector"), z=MC_Z,
    )
    return adv, err


INPUTS = {
    "chain": chain_inputs,
    "decompose": decompose_inputs,
    "connectivity": connectivity_inputs,
    "montecarlo": montecarlo_inputs,
}

OPS = {
    "chain": chain_op,
    "decompose": decompose_op,
    "connectivity": connectivity_op,
    "montecarlo": montecarlo_op,
}
