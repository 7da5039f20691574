"""Noise regeneration: exactness of the mask-law construction."""

import itertools

import pytest

from noisynet.bits import BitVector
from noisynet.noise import (
    MAX_REGEN_T,
    RegenTable,
    iid_noisy_law,
    noisy_copy,
    regen_output_law,
    regen_table,
    regenerate,
)
from noisynet.rng import RngStream


def law_tv(a, b):
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


@pytest.mark.parametrize("t", [1, 2, 3, 4])
@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, 0.3, 0.45])
@pytest.mark.parametrize("b", [0, 1])
def test_regeneration_exact(t, eps, b):
    """Output law from a gamma-noisy copy equals t iid eps-noisy copies.

    The target law is computed by direct enumeration, independent of the
    mask construction.
    """
    table = regen_table(t, eps)
    gamma = eps**t
    c_law = {b: 1 - gamma, 1 - b: gamma}
    got = regen_output_law(c_law, table)
    want = iid_noisy_law(b, eps, t)
    assert law_tv(got, want) <= 1e-12


def test_pair_equation_holds():
    t, eps = 3, 0.2
    table = regen_table(t, eps)
    gamma = eps**t
    for bits in itertools.product((0, 1), repeat=t):
        u = BitVector(bits)
        comp = BitVector(1 - x for x in bits)
        w = sum(bits)
        target = eps**w * (1 - eps) ** (t - w)
        got = (1 - gamma) * table.probs[u] + gamma * table.probs[comp]
        assert abs(got - target) <= 1e-12


def test_table_rejects_bad_eps_and_t():
    with pytest.raises(ValueError):
        regen_table(0, 0.1)
    with pytest.raises(ValueError):
        regen_table(MAX_REGEN_T + 1, 0.1)
    with pytest.raises(ValueError):
        regen_table(2, 0.5)
    with pytest.raises(ValueError):
        regen_table(2, 0.0)


@pytest.mark.parametrize("t, eps", [(16, 0.1), (18, 0.01)])
def test_large_table_passes_its_own_validation(t, eps):
    """A plain running sum over 2^t masks drifts past the 1e-12 tolerance;
    both tables raised 'mask probabilities sum to ...' in validate."""
    table = regen_table(t, eps)
    assert len(table.probs) == 2**t


def test_table_json_round_trip():
    table = regen_table(2, 0.3)
    back = RegenTable.from_json(table.to_json())
    assert back.t == table.t and back.epsilon == table.epsilon
    for u, p in table.probs.items():
        assert abs(back.probs[u] - p) <= 1e-15


def test_regenerate_sampling_matches_law():
    t, eps, b = 2, 0.2, 1
    table = regen_table(t, eps)
    gamma = eps**t
    rng = RngStream(99)
    counts = {}
    trials = 40000
    for i in range(trials):
        r = rng.spawn("trial", i)
        c = noisy_copy(b, gamma, r.spawn("chan"))
        y = regenerate(c, table, r.spawn("mask"))
        counts[y] = counts.get(y, 0) + 1
    want = iid_noisy_law(b, eps, t)
    emp = {k: v / trials for k, v in counts.items()}
    assert law_tv(emp, want) < 0.02


def test_noisy_copy_extremes():
    rng = RngStream(1)
    assert noisy_copy(0, 0.0, rng.spawn("a")) == 0
    assert noisy_copy(1, 1.0, rng.spawn("b")) == 0
