"""Exact and sampled protocol execution against closed-form oracles."""

import dataclasses
import hashlib
import itertools
import math
import operator
import re
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from noisynet import engine, exprs, noise, random_instances as ri, reductions
from noisynet.errors import CapExceeded
from noisynet.engine import (
    Channel,
    error_probability,
    exact_channel,
    execute,
    parity_of_inputs,
    sampled_channel,
)
from noisynet.planar import Decomposition
from noisynet.exprs import parse
from noisynet.protocol import (
    AuxRole,
    InputRole,
    MaskSource,
    Protocol,
    Transmission,
    cluster_sum,
    repetition_majority_parity,
    star_xor,
)
from noisynet.rng import RngStream


def majority_error(r, eps, bit):
    """Exact per-bit decode error of an r-fold repetition with strict
    majority (ties decode to 0)."""
    if bit == 0:
        # decoded 1 iff more than r/2 copies flipped
        return float(binom.sf(math.floor(r / 2), r, eps))
    # decoded 0 iff at least half the copies flipped (ties hurt 1-inputs)
    return float(binom.sf(math.ceil(r / 2) - 1, r, eps))


def test_star_xor_two_leaves_error():
    eps = 0.1
    p = star_xor(2, reps=1, eps=eps)
    est = error_probability(p, parity_of_inputs, method="exact")
    assert abs(est.value - 2 * eps * (1 - eps)) <= 1e-12
    for key, err in est.per_input.items():
        assert abs(err - 2 * eps * (1 - eps)) <= 1e-12


def test_star_xor_single_leaf_error_is_eps():
    p = star_xor(1, reps=1, eps=0.2)
    est = error_probability(p, parity_of_inputs, method="exact")
    assert abs(est.value - 0.2) <= 1e-12


@pytest.mark.parametrize("r", [3, 4, 5])
def test_repetition_majority_error(r):
    eps = 0.2
    p = star_xor(1, reps=r, eps=eps)
    est = error_probability(p, parity_of_inputs, method="exact")
    assert abs(est.per_input[(0,)] - majority_error(r, eps, 0)) <= 1e-12
    assert abs(est.per_input[(1,)] - majority_error(r, eps, 1)) <= 1e-12
    assert abs(est.value - max(majority_error(r, eps, b) for b in (0, 1))) <= 1e-12


def test_repetition_majority_parity_builder():
    dec = Decomposition(
        n=1,
        k=2,
        d=3,
        D=3,
        input_blocks=[[0], [1]],
        aux_blocks=[[2], [2]],
        aux0=[],
    )
    r, eps = 3, 0.1
    p = repetition_majority_parity(None, dec, r, eps=eps)
    assert p.T == 2 * r + 1
    est = error_probability(p, parity_of_inputs, method="exact")
    q = majority_error(r, eps, 0)  # odd r: symmetric in the bit
    assert abs(est.value - 2 * q * (1 - q)) <= 1e-12


@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_cluster_sum_parity_error(eps):
    # blocks {0, 1} and {3, 4} with adjacent leaders 2 and 5: four local
    # broadcasts and one leader hop, each flipped with probability eps
    edges = [(0, 2), (1, 2), (3, 5), (4, 5), (2, 5)]
    adjacency = {v: set() for v in range(6)}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    net = SimpleNamespace(n_nodes=6, adjacency=adjacency)
    dec = Decomposition(
        n=2, k=2, d=1, D=3, input_blocks=[[0, 1], [3, 4]],
        aux_blocks=[[2], [5]], aux0=[],
    )
    p = cluster_sum(net, dec, r_local=1, r_up=1, eps=eps)
    assert p.T == 6 and p.output_node == 5
    est = error_probability(p, parity_of_inputs, method="exact")
    want = (1 - (1 - 2 * eps) ** 5) / 2
    assert abs(est.value - want) <= 1e-12
    assert all(abs(err - want) <= 1e-12 for err in est.per_input.values())


def test_monte_carlo_within_3_sigma():
    eps, trials = 0.1, 100_000
    p = star_xor(2, reps=1, eps=eps)
    truth = 2 * eps * (1 - eps)
    est = error_probability(
        p, parity_of_inputs, method="mc", trials=trials, rng=RngStream(17)
    )
    assert est.method == "mc" and est.trials == trials
    for key, (err, (lo, hi)) in est.per_input.items():
        assert lo - 1e-12 <= truth <= hi + 1e-12
    assert est.value >= truth - 1e-12  # reported upper confidence bound


def test_monte_carlo_upper_bound_holds_at_zero_observed_errors():
    # exact error 3.37e-8: 1e5 trials almost surely see no error at all
    p = star_xor(1, reps=5, eps=0.0015)
    exact = error_probability(p, parity_of_inputs, method="exact")
    assert abs(exact.value - 3.37e-8) < 1e-10
    est = error_probability(
        p, parity_of_inputs, method="mc", trials=100_000,
        rng=RngStream(20150209, ("zero-errors",)), z=5.0,
    )
    assert all(err == 0.0 for err, _ci in est.per_input.values())
    assert est.value >= exact.value
    for key, (_err, (lo, hi)) in est.per_input.items():
        assert lo <= exact.per_input[key] <= hi


def test_wilson_interval_closed_form():
    n, z = 100_000, 5.0
    lo, hi = engine.wilson_interval(0.0, n, z)
    assert lo == 0.0 and math.isclose(hi, z * z / (n + z * z))
    lo, hi = engine.wilson_interval(1.0, n, z)
    assert math.isclose(hi, 1.0) and math.isclose(lo, n / (n + z * z))
    lo, hi = engine.wilson_interval(0.5, n, z)
    assert math.isclose(0.5 - lo, hi - 0.5)


def _transcript(p):
    """The probe list whose law is the transcript law."""
    return [(tr.sender, tr.expr) for tr in p.schedule]


def test_exact_channel_rows_are_distributions():
    p = star_xor(2, reps=2, eps=0.15)
    for probes in (None, _transcript(p)):
        ch = exact_channel(p, probes)
        assert len(ch.keys) == 4
        assert np.all(np.abs(ch.law.sum(axis=1) - 1.0) <= 1e-12)
        assert np.all(ch.law >= 0)


def test_sampled_channel_close_to_exact():
    p = star_xor(2, reps=1, eps=0.1)
    exact = exact_channel(p)
    mc = sampled_channel(p, engine.all_input_assignments(p), 40_000, RngStream(23))
    assert mc.keys == exact.keys
    assert np.all(np.abs(mc.law - exact.law) < 0.02)


@pytest.mark.parametrize("stride", [1, 2, 3, 32, 64, 96, 128])
@pytest.mark.parametrize("total", [1, 63, 64, 65, 384])
def test_grid_column_words_unpack_to_the_column(stride, total):
    rows = np.arange(total)
    words = engine._column_words(stride, total)
    assert np.array_equal(engine._codes([words], total), rows // stride % 2)


def test_enumeration_columns_are_the_big_endian_bits_of_each_index():
    prims = [
        engine._Primitive(("mask", 0), (0.25,) * 4),
        engine._Primitive(("rand", 1, 0), (0.5, 0.5)),
        engine._Primitive(("mask", 1), (0.125,) * 8),
    ]
    assert prims[2].columns == (("mask", 1, 0), ("mask", 1, 1), ("mask", 1, 2))
    bits = engine._enumeration_arrays(prims, reps=3)
    rows = np.arange(3 * 64)
    for pr, stride in zip(prims, (16, 8, 1)):  # the first primitive slowest
        index = rows // stride % pr.size
        for j, col in enumerate(pr.columns):
            got = engine._codes([bits[col]], len(rows))
            assert np.array_equal(got, noise.mask_bit(index, len(pr.columns), j))


def test_sampled_channel_rejects_zero_trials():
    p = star_xor(1, reps=1, eps=0.1)
    with pytest.raises(ValueError, match="trials"):
        sampled_channel(p, engine.all_input_assignments(p), 0, RngStream(23))
    with pytest.raises(ValueError, match="trials"):
        error_probability(
            p, parity_of_inputs, method="mc", trials=0, rng=RngStream(23)
        )


def test_execute_trace_is_deterministic():
    p = star_xor(2, reps=2, eps=0.3)
    t1 = execute(p, {0: 1, 1: 0}, RngStream(5, ("trace",)))
    t2 = execute(p, {0: 1, 1: 0}, RngStream(5, ("trace",)))
    assert t1.output == t2.output
    assert t1.sent == t2.sent


def _law_case(name):
    if name == "star_xor":
        return star_xor(2, reps=2, eps=0.2)
    if name.startswith("tiny"):
        return ri.random_tiny_protocol(RngStream(7), int(name[4:]))
    # noisy copy with its randomness left in: Noise atoms from the
    # semi-noisy stage and MaskBit atoms from the regeneration masks; at
    # d = 1 every mask has one coordinate, so it is drawn like a bit
    d1 = name == "noisy_copy_d1"
    p = ri.random_tiny_protocol(RngStream(7), 2 if d1 else 1)
    p1, _ = reductions.to_semi_noisy(p)
    p2, _ = reductions.to_noisy_copy(p1, 1 if d1 else ri.max_input_sends(p))
    prims = engine._collect_primitives(p2)
    assert {"noise", "mask"} <= {pr.key[0] for pr in prims}
    assert not d1 or {pr.size for pr in prims if pr.key[0] == "mask"} == {2}
    return p2


def _assert_counts_in_binomial_range(counts, row, n, alpha=1e-6):
    """Every outcome code's count over n runs lies in the central 1 - alpha
    range of Binomial(n, p) at its exact probability p = row[code]; an
    impossible outcome must never occur."""
    assert set(counts) <= set(range(len(row))), dict(counts)
    got = np.array([counts[c] for c in range(len(row))])
    lo, hi = binom.interval(1 - alpha, n, np.minimum(row, 1.0))
    bad = np.flatnonzero((got < lo) | (got > hi))
    assert not len(bad), [(int(c), got[c], row[c]) for c in bad]


@pytest.mark.parametrize(
    "case", ["star_xor", "tiny0", "tiny1", "tiny2", "noisy_copy", "noisy_copy_d1"]
)
def test_execute_law_matches_exact_law(case):
    p = _law_case(case)
    outputs = exact_channel(p)
    transcripts = exact_channel(p, _transcript(p))
    rng = RngStream(17, ("execute-law", case))
    trials = 1000
    for x_bits in engine.all_input_assignments(p):
        key = engine.assignment_key(p, x_bits)
        out, sent = Counter(), Counter()
        for i in range(trials):
            t = execute(p, x_bits, rng.spawn(*key, i))
            out[t.output] += 1
            # pack as the transcript outcome does: first transmission highest
            sent[int("".join(map(str, t.sent)) or "0", 2)] += 1
        i = outputs.keys.index(key)
        _assert_counts_in_binomial_range(out, outputs.law[i], trials)
        _assert_counts_in_binomial_range(sent, transcripts.law[i], trials)


@pytest.mark.parametrize("case", ["noisy_copy_d1", "noisy_copy"])
def test_sampled_channel_law_with_masks(case):
    """One-coordinate masks are drawn like bits, wider ones by index."""
    p = _law_case(case)
    exact = exact_channel(p)
    trials = 2000
    mc = sampled_channel(p, engine.all_input_assignments(p), trials, RngStream(29))
    assert mc.keys == exact.keys
    for freqs, row in zip(mc.law.tolist(), exact.law):
        counts = Counter({c: round(f * trials) for c, f in enumerate(freqs) if f})
        _assert_counts_in_binomial_range(counts, row, trials)


#: sha256 of the transcript laws ``sampled_channel`` estimates from 2000
#: trials per input: one-coordinate (``noisy_copy_d1``) and two-coordinate
#: (``noisy_copy``) regeneration masks on the packed path
_SAMPLED_LAW_SHA256 = {
    "noisy_copy": "cdafd226f0fca6ca54a12aa3c98a4ffbdce96cb56c613c4d0396fb4b6e5205c6",
    "noisy_copy_d1": "32a804b8068738439ce71c36eb30f826f2b013209426ab0ef3e3868508137bad",
}


@pytest.mark.parametrize("case", sorted(_SAMPLED_LAW_SHA256))
def test_sampled_channel_laws_are_pinned(case):
    p = _law_case(case)
    xs = engine.all_input_assignments(p)
    rng = RngStream(37, ("law-pin", case))
    law = sampled_channel(p, xs, 2000, rng, _transcript(p)).law
    assert hashlib.sha256(law.tobytes()).hexdigest() == _SAMPLED_LAW_SHA256[case]


def _not_received():
    """Node 1 announces the complement of the bit it hears from node 0, so
    the pad lanes of the output's last word are set."""
    out = parse("not(rx[0])")
    return Protocol(
        n_nodes=2,
        adjacency={0: frozenset({1}), 1: frozenset({0})},
        roles={0: InputRole(1), 1: AuxRole(0)},
        schedule=[
            Transmission(sender=0, expr=exprs.OwnInput(0)), Transmission(sender=1, expr=out)
        ],
        output_node=1,
        output_expr=out,
        eps=0.2,
    )


#: sha256 of the output laws ``sampled_channel`` estimates, computed when
#: every law was counted from unpacked codes: trial counts around a word
#: boundary, and an output whose pad lanes are set
_ONE_BIT_LAW_SHA256 = {
    ("star_xor", 1): "94b5e5683baeea24c24128521f595d5bcc874bf4763236cadd45ceb710a40414",
    ("star_xor", 63): "abfbaff8c3da8bf13ccbd01753700cf13e285569d4fc9482942d85ae7fa4752c",
    ("star_xor", 64): "85ad21e1bd4ac137a123968e71e111fb9703d762170737f11fbebdc9409190ce",
    ("star_xor", 65): "3191b5b0427794fcc5f053d26627af22c02a9e60091ab2914e170a89f24d7921",
    ("star_xor", 1000): "f8e79f79263f8e265b750dc32fafdee9f16634d5dd8a5bcd6589beae854c5382",
    ("not_received", 1): "c9a2fb79c96caefae3797082eb0820d925a5170c74bcba2446db9484124acb82",
    ("not_received", 63): "92f2197272ef1f4705d5caaf7906af1dd312d6eba45d30eaf2931dc4468f8382",
    ("not_received", 64): "141d5128c398c66b12df568c9948a5f0627231ac36c8e1274af8f71e8b2f0dde",
    ("not_received", 65): "83a8caedb7b308739f4a60510dae8e30b53d0b62966565dd29f9b488ef7fee3b",
    ("not_received", 1000): "54f336f954c67e7d791f5614aed5bb31b36fe125272e2e662ef330b064cf44f9",
}


@pytest.mark.parametrize("case, trials", sorted(_ONE_BIT_LAW_SHA256))
def test_one_bit_laws_are_pinned(case, trials):
    p = star_xor(2, reps=3, eps=0.2) if case == "star_xor" else _not_received()
    xs = engine.all_input_assignments(p)
    law = sampled_channel(p, xs, trials, RngStream(43, ("one-bit-pin", case, trials))).law
    assert hashlib.sha256(law.tobytes()).hexdigest() == _ONE_BIT_LAW_SHA256[case, trials]


@settings(max_examples=25, deadline=None)
@given(
    index=st.integers(0, 10_000), trials=st.integers(1, 200), seed=st.integers(0, 2**32)
)
@example(index=0, trials=1, seed=0)
def test_one_bit_law_is_the_bincount_of_its_codes(index, trials, seed):
    """A one-probe row counts the same trials as unpacking the output's
    codes would, down to the float."""
    p = ri.random_tiny_protocol(RngStream(59), index)
    xs = engine.all_input_assignments(p)
    law = sampled_channel(p, xs, trials, RngStream(seed)).law
    prims = engine._collect_primitives(p)
    bits = engine._sampled_arrays(prims, trials, RngStream(seed).spawn("mc"))
    for i, x_bits in enumerate(xs):
        own = {v: engine.ONES if x_bits[v] else 0 for v in engine.input_order(p)}
        values = engine._Sim(p, own, bits, engine.ONES).run(p.all_expressions()[-1:])
        want = np.bincount(engine._codes(values, trials), minlength=2) / trials
        assert np.array_equal(law[i], want)


@settings(max_examples=25, deadline=None)
@given(
    index=st.integers(0, 10_000),
    trials=st.integers(1, 200),
    seed=st.integers(0, 2**32),
    several=st.booleans(),
)
def test_a_sampled_row_does_not_depend_on_the_other_inputs(index, trials, seed, several):
    """Every input runs on the one draw of the call, so row i of a call
    over all inputs is the row of a call over input i alone."""
    p = ri.random_tiny_protocol(RngStream(61), index)
    xs = engine.all_input_assignments(p)
    probes = _transcript(p) + p.all_expressions()[-1:] if several else None
    law = sampled_channel(p, xs, trials, RngStream(seed), probes).law
    for i, x_bits in enumerate(xs):
        alone = sampled_channel(p, [x_bits], trials, RngStream(seed), probes).law
        assert np.array_equal(law[i], alone[0])


def test_sampled_channel_draws_the_primitives_once(monkeypatch):
    p = star_xor(3)
    calls = Counter()
    sampled_arrays = engine._sampled_arrays

    def counted(*args):
        calls["draws"] += 1
        return sampled_arrays(*args)

    monkeypatch.setattr(engine, "_sampled_arrays", counted)
    xs = engine.all_input_assignments(p)
    assert len(xs) == 8
    sampled_channel(p, xs, 100, RngStream(7))
    assert calls["draws"] == 1
    sampled_channel(p, xs, 100, RngStream(7), _transcript(p))
    assert calls["draws"] == 2


def test_error_probability_mc_needs_rng():
    p = star_xor(1, reps=1, eps=0.1)
    with pytest.raises(ValueError):
        error_probability(p, parity_of_inputs, method="mc")
    with pytest.raises(ValueError):
        error_probability(p, parity_of_inputs, method="bogus")


@pytest.mark.parametrize("z", [0.0, -1.0, math.nan, math.inf])
def test_error_probability_mc_rejects_a_bad_z(z):
    """A negative z inverts the Wilson interval, and 0 gives it no width."""
    p = star_xor(1, reps=1, eps=0.1)
    with pytest.raises(ValueError, match="z must be finite and positive"):
        error_probability(p, parity_of_inputs, method="mc", trials=10, rng=RngStream(1), z=z)


def test_channel_tv_rejects_unequal_keys_or_columns():
    keys = [(0,), (1,)]
    ch = Channel(keys, [[0.75, 0.25], [0.0, 1.0]])
    assert ch.total_variation(Channel(keys, [[0.25, 0.75], [0.5, 0.5]])) == 0.5
    with pytest.raises(ValueError, match="keys"):
        ch.total_variation(Channel(keys[::-1], ch.law[::-1]))
    with pytest.raises(ValueError, match="columns"):
        ch.total_variation(Channel(keys, np.eye(2)[:, :1]))


_LAW_ROW = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8).filter(
    lambda row: sum(row) > 0
)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_channel_tv_is_the_max_law_tv_over_rows(data):
    m = data.draw(st.integers(0, 3), label="bits")
    keys = list(itertools.product((0, 1), repeat=2))[: data.draw(st.integers(1, 4))]

    def law():
        rows = [data.draw(_LAW_ROW) for _ in keys]
        dense = np.zeros((len(keys), 2**m))
        for i, row in enumerate(rows):
            row = row[: 2**m]
            dense[i, : len(row)] = np.array(row) / max(sum(row), 1e-300)
        return dense

    a, b = Channel(keys, law()), Channel(keys, law())
    want = max(
        0.5 * sum(abs(x - y) for x, y in zip(ra, rb))
        for ra, rb in zip(a.law.tolist(), b.law.tolist())
    )
    assert abs(a.total_variation(b) - want) <= 1e-15


def _pass_case(name):
    """(protocol, probes) for the pass-size invariance test."""
    kind, index = name.split("-")
    p = ri.random_tiny_protocol(RngStream(13), int(index))
    p1, report = reductions.to_semi_noisy(p)
    if kind == "tiny":
        return p, [pr for pr, _ in report["probe_pairs"]]
    if kind == "semi":
        return p1, [pr for _, pr in report["probe_pairs"]]
    p2, _ = reductions.to_noisy_copy(p1, ri.max_input_sends(p))
    aux = [(tr.sender, tr.expr) for tr in p2.schedule if tr.sender not in p2.input_nodes()]
    return p2, aux


@pytest.mark.parametrize("outcome", ["output", "transcript", "probes"])
@pytest.mark.parametrize(
    "case", ["tiny-0", "tiny-3", "semi-0", "semi-3", "copy-0", "copy-3"]
)
def test_exact_law_does_not_depend_on_the_pass_size(monkeypatch, case, outcome):
    p, probes = _pass_case(case)
    probes = {
        "output": p.all_expressions()[-1:],
        "transcript": _transcript(p),
        "probes": probes,
    }[outcome]
    grid = math.prod(pr.size for pr in engine._collect_primitives(p, probes))
    laws = []
    # one input per pass, three per pass (the last one short), all in one
    for rows in (1, 3 * grid, 2**30):
        monkeypatch.setattr(engine, "PASS_ROWS", rows)
        laws.append(exact_channel(p, probes).law)
    assert len(engine.all_input_assignments(p)) % 3 != 0
    for law in laws[1:]:
        assert np.array_equal(law, laws[0])
    assert np.allclose(laws[0].sum(axis=1), 1.0, rtol=0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    index=st.integers(0, 10_000),
    semi=st.booleans(),
    in_a=st.lists(st.integers(0, 5), max_size=2),
    in_b=st.lists(st.integers(0, 5), max_size=2),
)
@example(index=0, semi=False, in_a=[0], in_b=[])
def test_probe_law_summed_over_extra_probes_is_the_law_of_the_rest(index, semi, in_a, in_b):
    """The law of probes A + B summed over the bits of B is the law of A.
    B holds the fidelity probes, which read links no expression of the
    protocol reads; A holds the output probe, so the output law is also
    checked against a law that holds transcript bits."""
    p = ri.random_tiny_protocol(RngStream(71), index)
    p1, report = reductions.to_semi_noisy(p)
    p = p1 if semi else p
    transcript = _transcript(p)
    a = p.all_expressions()[-1:] + [transcript[t % p.T] for t in in_a]
    b = [pair[semi] for pair in report["probe_pairs"]] + [transcript[t % p.T] for t in in_b]
    if (index, semi) == (0, False):  # the example: the fidelity probes grow the grid
        assert len(engine._collect_primitives(p, b)) > len(engine._collect_primitives(p))
    n = len(engine.all_input_assignments(p))
    law_ab = exact_channel(p, a + b).law.reshape(n, 2 ** len(a), 2 ** len(b))
    law_a = exact_channel(p, a).law
    assert np.abs(law_ab.sum(axis=2) - law_a).max() <= 1e-12
    output = law_a.reshape(n, 2, -1).sum(axis=2)
    assert np.abs(output - exact_channel(p).law).max() <= 1e-12


#: sha256 of the repr of 200 ``execute`` transcripts, as the per-primitive
#: draws gave them; the one-uniform-per-primitive batch of one must match
_EXECUTE_SHA256 = {
    "star_xor": "d24e4d7958da5db75961509fd9818a7527ab28dd6c13ef0b02b4fc4067210764",
    "noisy_copy": "a238e94951459708a07888b3b6dceea9ffc76aa90c67cd15d11a55e65ad8a156",
}


@pytest.mark.parametrize("case", sorted(_EXECUTE_SHA256))
def test_execute_transcripts_are_pinned(case):
    p = star_xor(3, reps=2, eps=0.2) if case == "star_xor" else _law_case(case)
    xs = engine.all_input_assignments(p)
    traces = []
    for i in range(200):
        t = execute(p, xs[i % len(xs)], RngStream(5, ("execute-pin", case, i)))
        traces.append((t.sent, t.output))
    assert hashlib.sha256(repr(traces).encode()).hexdigest() == _EXECUTE_SHA256[case]


class _ScriptedBits:
    """A bit generator whose ``random_raw`` hands out a fixed word list in
    order and counts what it has handed out."""

    def __init__(self, words):
        self.words = np.asarray(words, dtype=np.uint64)
        self.used = 0

    def random_raw(self, size):
        out = self.words[self.used : self.used + size]
        assert len(out) == size, "the script ran out of words"
        self.used += size
        return out.copy()


def _splitmix64(seed: int, n: int) -> np.ndarray:
    """n SplitMix64 outputs (Steele, Lea and Flood 2014) from ``seed``."""
    with np.errstate(over="ignore"):
        z = np.uint64(seed) + np.uint64(0x9E3779B97F4A7C15) * np.arange(
            1, n + 1, dtype=np.uint64
        )
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _bernoulli_oracle(words, p: float, trials: int):
    """Lane bits and raw words used under the packed draw rule, lane by lane.

    Each lane's 53-bit integer gets one raw bit per level, most
    significant first, while its comparison with c = ceil(p * 2^53) is
    open: its prefix equals c's and c has a set bit below.  A level takes
    one word per packed word holding an open lane, in word order.  The
    undrawn low bits stay 0, and a lane is 1 iff its integer is below c.
    """
    c = math.ceil(p * 2.0**53)
    n_words = (trials + 63) // 64
    lane = np.arange(n_words * 64)
    live = lane < trials
    k = np.zeros(len(lane), dtype=np.uint64)
    used = 0
    for level in range(53, 0, -1):
        # open: bits 52..level equal to c's, and c's lower bits not all 0
        is_open = live & (k >> np.uint64(level) == c >> level) & (c % 2**level != 0)
        active = np.flatnonzero(is_open.reshape(n_words, 64).any(axis=1))
        if not len(active):
            break
        raw = np.zeros(n_words, dtype=np.uint64)
        raw[active] = words[used : used + len(active)]
        used += len(active)
        bit = (raw[lane // 64] >> (lane % 64).astype(np.uint64)) & np.uint64(1)
        k[is_open] |= bit[is_open] << np.uint64(level - 1)
    return live & (k < c), used


_P_EDGES = [0.0, 2.0**-53, 0.5, 1 / 3, 1 - 2.0**-53, 1.0]
_TRIAL_EDGES = [1, 63, 64, 65, 400_001]


@pytest.mark.parametrize("trials", _TRIAL_EDGES)
@pytest.mark.parametrize("p", _P_EDGES)
@pytest.mark.parametrize("script", ["splitmix", "zeros", "ones"])
def test_bernoulli_words_match_the_integer_comparison(script, p, trials):
    n_words = (trials + 63) // 64
    words = {
        "splitmix": lambda: _splitmix64(trials, 53 * n_words),
        "zeros": lambda: np.zeros(53 * n_words, dtype=np.uint64),
        "ones": lambda: np.full(53 * n_words, engine.ONES),
    }[script]()
    bitgen = _ScriptedBits(words)
    got = engine._bernoulli_words(bitgen, p, trials)
    want, used = _bernoulli_oracle(words, p, trials)
    assert got.dtype == np.uint64 and len(got) == n_words
    bits = np.unpackbits(got.view(np.uint8), bitorder="little").astype(bool)
    assert np.array_equal(bits, want)
    assert bitgen.used == used
    if script == "zeros":  # every integer is 0
        assert bits[:trials].all() == (p > 0)
    if script == "ones":  # every integer is 2^53 - 1
        assert not bits[:trials].any() or p == 1.0


@settings(max_examples=60, deadline=None)
@given(
    p=st.one_of(
        st.floats(0.0, 1.0),
        st.integers(0, 2**53).map(lambda c: c * 2.0**-53),
    ),
    trials=st.integers(1, 2000),
    seed=st.integers(0, 2**32),
)
def test_bernoulli_words_property(p, trials, seed):
    words = _splitmix64(seed, 53 * ((trials + 63) // 64))
    bitgen = _ScriptedBits(words)
    got = engine._bernoulli_words(bitgen, p, trials)
    want, used = _bernoulli_oracle(words, p, trials)
    assert np.array_equal(np.unpackbits(got.view(np.uint8), bitorder="little"), want)
    assert bitgen.used == used


def test_bernoulli_words_frequency():
    trials = 200_000
    bitgen = np.random.Philox(key=np.array([3, 1], dtype=np.uint64))
    for p in (0.05, 0.3, 0.5):
        words = engine._bernoulli_words(bitgen, p, trials)
        ones = int(np.unpackbits(words.view(np.uint8)).sum())
        lo, hi = binom.interval(1 - 1e-6, trials, p)
        assert lo <= ones <= hi


def test_sampled_channel_repeats_under_a_seed_and_key():
    p = _law_case("noisy_copy_d1")
    xs = engine.all_input_assignments(p)
    a = sampled_channel(p, xs, 5000, RngStream(31, ("repeat",)), _transcript(p))
    b = sampled_channel(p, xs, 5000, RngStream(31, ("repeat",)), _transcript(p))
    assert a.keys == b.keys and np.array_equal(a.law, b.law)
    c = sampled_channel(p, xs, 5000, RngStream(31, ("other",)), _transcript(p))
    assert not np.array_equal(a.law, c.law)


def test_caps_report_their_size(monkeypatch):
    with pytest.raises(CapExceeded) as info:
        exact_channel(star_xor(21))  # 2^21 input assignments
    assert info.value.size == 2**21
    p = star_xor(2, reps=2, eps=0.2)
    grid = math.prod(pr.size for pr in engine._collect_primitives(p))
    assert grid == 16
    monkeypatch.setattr(engine, "CAP_BITS", 2)  # a law of 4 inputs x 2 codes
    with pytest.raises(CapExceeded) as info:
        exact_channel(p)
    assert info.value.size == 8
    monkeypatch.setattr(engine, "CAP_BITS", 3)  # the law fits, the grid not
    with pytest.raises(CapExceeded) as info:
        exact_channel(p)
    assert info.value.size == grid
    monkeypatch.setattr(engine, "CAP_BITS", 4)
    assert exact_channel(p).law.shape == (4, 2)


def test_primitive_table_is_kept_per_protocol():
    p = star_xor(2, reps=2, eps=0.2)
    table = engine._collect_primitives(p)
    assert engine._collect_primitives(p) is table
    assert engine._collect_primitives(dataclasses.replace(p, eps=0.3)) is not table
    probe = [(p.output_node, p.output_expr)]
    assert engine._collect_primitives(p, probe) == table
    order = engine.input_order(p)
    assert engine.input_order(p) is order and order == (0, 1)
    assert engine.input_order(dataclasses.replace(p, eps=0.3)) is not order


def test_output_law_of_a_warm_protocol_walks_no_atoms(monkeypatch):
    """The output probe's primitives are in the kept table, so neither
    channel walks its atoms again."""
    p = _every_form_protocol()
    exact_channel(p)  # builds the table
    calls = Counter()
    atoms = exprs.atoms

    def counted(expr):
        calls["atoms"] += 1
        return atoms(expr)

    monkeypatch.setattr(exprs, "atoms", counted)
    exact_channel(p)
    sampled_channel(p, engine.all_input_assignments(p)[:2], 4, RngStream(1))
    assert calls["atoms"] == 0


def test_probe_noise_eps_must_match_the_table():
    p = _every_form_protocol()  # node 4 reads noise[0,0.3]
    table = engine._collect_primitives(p)
    assert engine._collect_primitives(p, [(4, parse("noise[0,0.3]"))]) is table
    # node 3 has no noise[0] yet: the probe adds it to the table
    grown = engine._collect_primitives(p, [(3, parse("noise[0,0.4]"))])
    assert len(grown) == len(table) + 1 and set(table) < set(grown)
    against_table = [(4, parse("noise[0,0.4]"))]
    between_probes = [(3, parse("noise[0,0.4]")), (3, parse("noise[0,0.2]"))]
    for probes in (against_table, between_probes):
        with pytest.raises(ValueError, match=r"conflicting eps for noise atom \('noise'"):
            exact_channel(p, probes)


# -- the compiled plan of ``execute`` against ``_Sim`` -----------------------


def _every_form_protocol():
    """Every expression form, every kind of link and of own-input read:
    node 0 and node 2 are not neighbours, transmissions 1 and 2 cross
    ε = 0 and ε = 1 links, transmission 3 is noiseless and node 3 is an
    auxiliary node with fixed bit 1."""
    tx = [
        (0, "in", None, True),
        (1, "xor(in,rand[0])", 0.0, True),
        (2, "not(in)", 1.0, True),
        (3, "maj(rx[0],rx[1],in,const(0))", None, False),
        (3, "xor(thresh(0;rx[2]),rx[0],thresh(3;rx[1],rx[3]))", None, True),
        (4, "table(01101001;rx[3],noise[0,0.3],mask[0,0])", None, True),
        (4, "and(or(rx[2],mask[1,0]),not(mask[1,1]),maj(rx[3],rx[4]),xor(rx[0],const(1)))",
         None, True),
    ]
    roles = [InputRole(1), InputRole(1), InputRole(2), AuxRole(1), AuxRole(0)]
    return Protocol(
        n_nodes=5,
        adjacency={0: {3}, 1: {3}, 2: {4}, 3: {0, 1, 4}, 4: {2, 3}},
        roles=dict(enumerate(roles)),
        schedule=[Transmission(v, parse(e), noisy, eps) for v, e, eps, noisy in tx],
        output_node=4,
        output_expr=parse("xor(rx[6],rx[5],rand[1],thresh(2;rx[4],rx[3],noise[1,0.5]))"),
        eps=0.3,
        mask_sources=[
            MaskSource(4, noise.regen_table(1, 0.2)), MaskSource(4, noise.regen_table(2, 0.1)),
        ],
    )


def _sim_trace(p, x_bits, rng):
    """The run ``execute`` samples, interpreted by ``_Sim`` on ints from the
    same uniforms: a two-outcome primitive is 1 iff u < p_1, a wider one
    takes ``np.searchsorted(cdf / cdf[-1], u, side="right")``."""
    prims = engine._collect_primitives(p)
    bits = {}
    for pr, u in zip(prims, rng.random(len(prims)).tolist()):
        if pr.size == 2:
            bits[pr.columns[0]] = int(u < pr.probs[1])
        else:
            cdf = np.cumsum(pr.probs)
            bits.update(pr.decode(int(np.searchsorted(cdf / cdf[-1], u, side="right"))))
    sim = engine._Sim(p, x_bits, bits, 1)
    [output] = sim.run(p.all_expressions()[-1:])
    return [int(b) for b in sim.sent], int(output)


def _assert_plan_matches_sim(p, runs: int, rng):
    xs = engine.all_input_assignments(p)
    for i in range(runs):
        x_bits = xs[i % len(xs)]
        t = execute(p, x_bits, rng.spawn(i))
        assert (t.sent, t.output) == _sim_trace(p, x_bits, rng.spawn(i)), (i, x_bits)


def test_plan_matches_sim_on_every_form():
    p = _every_form_protocol()
    kinds = {pr.key[0]: pr.size for pr in engine._collect_primitives(p)}
    assert kinds == {"chan": 2, "rand": 2, "noise": 2, "mask": 4}
    _assert_plan_matches_sim(p, 2000, RngStream(41, ("plan-forms",)))
    # the forms reach both values of every transmission and of the output
    xs = engine.all_input_assignments(p)
    runs = [execute(p, xs[i % 8], RngStream(43, (i,))) for i in range(400)]
    for t in range(p.T):
        assert {r.sent[t] for r in runs} == {0, 1}, t
    assert {r.output for r in runs} == {0, 1}


@settings(max_examples=100, deadline=None)
@given(
    index=st.integers(0, 10_000),
    stage=st.sampled_from(["general", "semi-noisy", "noisy-copy"]),
)
def test_plan_matches_sim_on_random_protocols(index, stage):
    p = ri.random_tiny_protocol(RngStream(53), index)
    if stage != "general":
        p, _ = reductions.to_semi_noisy(p)
    if stage == "noisy-copy":
        p, _ = reductions.to_noisy_copy(p, ri.max_input_sends(p))
    _assert_plan_matches_sim(p, 24, RngStream(59, ("plan-random", index, stage)))


def test_plan_is_kept_per_protocol():
    p = star_xor(2, reps=2, eps=0.2)
    assert "_plan" not in p.__dict__
    execute(p, {0: 1, 1: 0}, RngStream(61))
    plan = p.__dict__["_plan"]
    execute(p, {0: 0, 1: 0}, RngStream(62))
    assert p.__dict__["_plan"] is plan
    assert "_plan" not in dataclasses.replace(p, eps=0.3).__dict__


def test_run_is_compiled_on_the_first_execute_and_kept(monkeypatch):
    p = star_xor(2, reps=2, eps=0.2)
    assert "_run" not in p.__dict__
    built = []
    compile_run = engine._compile
    monkeypatch.setattr(engine, "_compile", lambda q: built.append(q) or compile_run(q))
    execute(p, {0: 1, 1: 0}, RngStream(61))
    run = p.__dict__["_run"]
    execute(p, {0: 0, 1: 0}, RngStream(62))
    assert p.__dict__["_run"] is run and built == [p]
    assert "_run" not in dataclasses.replace(p, eps=0.3).__dict__


def test_run_source_holds_no_protocol_text():
    """The compiled function's constants are ints, floats and None, and
    it reads only its own locals and the names its namespace binds."""
    p = _every_form_protocol()
    execute(p, engine.all_input_assignments(p)[0], RngStream(63))
    code = p.__dict__["_run"].__code__
    assert {type(c) for c in code.co_consts} <= {int, float, type(None)}
    fixed = {"rng", "numpy_generator", "random", "tolist", "bisect_right", "ExecutionTrace", "int"}
    assert all(n in fixed or re.fullmatch(r"(node|cdf)\d+", n) for n in code.co_names)
    assert all(re.fullmatch(r"[uv]\d+|m|x_bits|rng", n) for n in code.co_varnames)


def test_missing_input_node_is_a_key_error():
    p = star_xor(2, reps=1, eps=0.1)
    for _compiled in (False, True):
        with pytest.raises(KeyError):
            execute(p, {0: 1}, RngStream(65))
    assert "_run" in p.__dict__


@pytest.mark.parametrize("form", ["Xor", "And", "Or"])
def test_an_empty_fold_compiles_nothing(form):
    q = star_xor(1, reps=1, eps=0.1)
    q.output_expr = getattr(exprs, form)(())  # set past validate, which rejects it
    for _attempt in range(2):
        with pytest.raises(TypeError):
            execute(q, {0: 1}, RngStream(67))
    assert "_run" not in q.__dict__


def _run_program(prog: dict, leaves) -> list:
    """The run list of a ``_Fn`` program: 0, 1, ``leaves``, then each step."""
    v = [0, 1, *leaves]
    for step in prog:
        if type(step) is tuple:
            op, i, j = step
            v.append(op(v[i], v[j]))
    return v


def test_fn_operators_match_ints():
    """``^ & |`` on 0, 1, places a = v[2] and b = v[3] and their composed
    xor give, as an int or through the program, the ints' result on every
    leaf pair; a 0/1 int operand folds, and an equal step is shared."""
    prog = {i: i for i in range(4)}
    a, b = engine._Fn(prog, 2), engine._Fn(prog, 3)
    operands = [0, 1, a, b, a ^ b]
    for op in (operator.xor, operator.and_, operator.or_):
        for x, y in itertools.product(operands, repeat=2):
            bit = op(x, y)
            for leaves in itertools.product((0, 1), repeat=2):
                v = _run_program(prog, leaves)
                want = op(*(u if type(u) is int else v[u.i] for u in (x, y)))
                assert (bit if type(bit) is int else v[bit.i]) == want, (op, x, y, leaves)
    for x in (a, a ^ b):
        for y in (x ^ 0, 0 ^ x, x & 1, 1 & x, x | 0, 0 | x):
            assert y is x
        assert [x & 0, 0 & x, x | 1, 1 | x] == [0, 0, 1, 1]
    size = len(prog)
    assert [(b ^ a).i, (a & b).i, (1 ^ a).i] == [(a ^ b).i, (b & a).i, (a ^ 1).i]
    assert len(prog) == size


def _plan_size(p) -> int:
    _inputs, _draws, steps, _places = engine._plan(p)
    return len(steps)


def test_plan_is_linear_in_the_forms():
    """The plan has one step per connective of the forms ``_Sim`` builds, a
    shared subterm once: a ``Maj`` of r bits is a ripple counter of at most
    2 ceil(log2(r + 1)) steps per bit, a ``Table`` of n arguments at most
    three steps per node of its 2^n-leaf mux tree."""
    p = star_xor(2, reps=31, eps=0.2)
    # per leaf: 31 noisy links and one counter; then one xor of the two
    assert _plan_size(p) <= 2 * (31 + 2 * 5 * 31) + 1
    _assert_plan_matches_sim(p, 40, RngStream(71, ("plan-maj",)))
    q = star_xor(1, reps=12, eps=0.2)
    bits = np.random.default_rng(73).integers(0, 2, 2**12).tolist()
    q.output_expr = exprs.Table(tuple(exprs.Received(t) for t in range(12)), tuple(bits))
    assert _plan_size(q) <= 12 + 1 + 3 * (2**12 - 1)
    _assert_plan_matches_sim(q, 40, RngStream(79, ("plan-table",)))


def test_execute_runs_a_wide_fold():
    """An Xor of 2,000 received bits runs as a flat loop of steps; the
    output announces it, so its steps are shared with the last send."""
    wide = exprs.Xor(tuple(exprs.Received(t) for t in range(2000)))
    p = Protocol(
        n_nodes=2,
        adjacency={0: frozenset({1}), 1: frozenset({0})},
        roles={0: InputRole(1), 1: AuxRole(0)},
        schedule=[Transmission(sender=0, expr=exprs.OwnInput(0))] * 2000
        + [Transmission(sender=1, expr=wide)],
        output_node=1,
        output_expr=wide,
        eps=0.2,
    )
    assert _plan_size(p) == 2000 + 1999
    _assert_plan_matches_sim(p, 4, RngStream(83, ("plan-xor",)))


@pytest.mark.parametrize("form", ["Xor", "And", "Or"])
def test_plan_and_interpreter_reject_an_empty_fold(form):
    q = star_xor(1, reps=1, eps=0.1)
    q.output_expr = getattr(exprs, form)(())  # set past validate, which rejects it
    with pytest.raises(TypeError):
        execute(q, {0: 1}, RngStream(67))
    with pytest.raises(TypeError):
        exact_channel(q)


@pytest.mark.parametrize("form", ["Xor", "And", "Or"])
def test_validate_rejects_an_empty_fold(form):
    empty = getattr(exprs, form)(())
    p = star_xor(1, reps=1, eps=0.1)
    with pytest.raises(ValueError, match=rf"^the output expression has {form.lower()}\(\)"):
        dataclasses.replace(p, output_expr=empty)
    first = p.schedule[0]
    nested = exprs.Not(exprs.Maj((first.expr, exprs.Table((empty,), (1, 0)), exprs.Const(0))))
    with pytest.raises(ValueError, match=r"^transmission 0 has "):
        dataclasses.replace(
            p, schedule=[Transmission(first.sender, nested)] + p.schedule[1:]
        )


@pytest.mark.parametrize("block", [0, -1])
def test_validate_rejects_a_block_below_one(block):
    # blocks are 1-based, in code as in the text's block=j
    p = star_xor(2, reps=1, eps=0.1)
    with pytest.raises(ValueError, match=rf"^node 1 has block {block}; blocks count from 1$"):
        dataclasses.replace(p, roles={**p.roles, 1: InputRole(block)})


@pytest.mark.parametrize("klass", ["bogus", "Semi-Noisy", ""])
def test_validate_rejects_an_unknown_class(klass):
    p = star_xor(2, reps=1, eps=0.1)
    with pytest.raises(ValueError, match=rf"^unknown protocol class {klass!r}$"):
        dataclasses.replace(p, klass=klass)
