"""Noise regeneration: exactness of the mask-law construction."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisynet import reductions
from noisynet.cli import main
from noisynet.noise import (
    MAX_REGEN_T,
    RegenTable,
    iid_noisy_law,
    mask_bit,
    regen_output_law,
    regen_table,
)
from noisynet.protocol import protocol_to_text, star_xor


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
    assert got.shape == want.shape == (2**t,)
    assert 0.5 * np.abs(got - want).sum() <= 1e-12


@pytest.mark.parametrize("eps", [0.49996, 0.49999, 0.5 - 1e-12])
@pytest.mark.parametrize("b", [0, 1])
def test_one_bit_table_near_one_half(eps, b):
    # the exact t = 1 table is p_0 = 1, p_1 = 0 for every eps
    table = regen_table(1, eps)
    assert table.p_w == (1.0, 0.0)
    got = regen_output_law({b: 1 - eps, 1 - b: eps}, table)
    assert 0.5 * np.abs(got - iid_noisy_law(b, eps, 1)).sum() <= 1e-12


def test_pair_equation_holds():
    t, eps = 3, 0.2
    table = regen_table(t, eps)
    gamma = eps**t
    for u in itertools.product((0, 1), repeat=t):
        comp = tuple(1 - x for x in u)
        w = sum(u)
        target = eps**w * (1 - eps) ** (t - w)
        got = (1 - gamma) * table.p_w[sum(u)] + gamma * table.p_w[sum(comp)]
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


@pytest.mark.parametrize("t, eps", [(16, 0.1), (18, 0.01), (20, 0.01)])
def test_large_table_passes_its_own_validation(t, eps):
    """A plain running sum over 2^t masks drifts past the 1e-12 tolerance;
    the 16- and 18-bit tables raised 'mask probabilities sum to ...' in
    validate, and a table of 2^20 stored masks took minutes to build."""
    table = regen_table(t, eps)
    assert len(table.index_probs) == 2**t


def test_validate_checks_weights_and_pair_equations():
    p_w = list(regen_table(3, 0.2).p_w)
    with pytest.raises(ValueError, match="4 weight probabilities"):
        RegenTable(3, 0.2, p_w[:-1])
    # moving mass between weights 0 and 3 keeps the sum but breaks the pair
    p_w[0], p_w[3] = p_w[0] - 1e-3, p_w[3] + 1e-3
    with pytest.raises(ValueError, match="pair equation"):
        RegenTable(3, 0.2, p_w)


def test_table_json_round_trip():
    table = regen_table(2, 0.3)
    back = RegenTable.from_json(table.to_json())
    assert back.t == table.t and back.epsilon == table.epsilon
    for u in itertools.product((0, 1), repeat=table.t):
        assert abs(back.p_w[sum(u)] - table.p_w[sum(u)]) <= 1e-15


def test_mask_bit_reads_the_big_endian_bits_of_the_index():
    t = 5
    index = np.arange(2**t)
    for i in range(2**t):
        assert [mask_bit(i, t, j) for j in range(t)] == [int(c) for c in format(i, "05b")]
    for j in range(t):
        assert mask_bit(index, t, j).tolist() == [mask_bit(i, t, j) for i in range(2**t)]
    with pytest.raises(ValueError):
        mask_bit(0, t, t)


def _per_mask_prob(t, eps, u):
    """The probability of mask ``u`` as the table stored it per mask before
    it kept weights only: the solution of u's pair equation."""
    gamma = eps**t
    w = sum(u)
    p = (
        (1 - gamma) * eps**w * (1 - eps) ** (t - w)
        - gamma * eps ** (t - w) * (1 - eps) ** w
    ) / (1 - 2 * gamma)
    return max(p, 0.0)


_EPS = st.one_of(
    st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
    st.floats(0.0, 1e-9, exclude_min=True),
    st.floats(0.5 - 1e-9, 0.5, exclude_max=True),
)


@settings(max_examples=300, deadline=None)
@given(t=st.integers(1, MAX_REGEN_T), eps=_EPS)
@example(t=MAX_REGEN_T, eps=1e-16)  # eps**t underflows
@example(t=1, eps=0.5 - 1e-9)  # the quotient's sum check fails
@example(t=MAX_REGEN_T, eps=0.5 - 1e-9)
def test_weight_table_equals_the_per_mask_formula(t, eps):
    if eps**t < 1e-300:
        with pytest.raises(ValueError, match="underflows"):
            regen_table(t, eps)
        return
    table = regen_table(t, eps)
    per_mask = [_per_mask_prob(t, eps, (1,) * w + (0,) * (t - w)) for w in range(t + 1)]
    try:
        RegenTable(t, eps, per_mask)
    except ValueError:
        # at t = 1, 1 - 2 gamma cancels near 1/2 and the quotient fails its
        # sum check; the table is the factored form (1, 0) there
        assert t == 1 and 0.5 - eps < 1e-4
        assert table.p_w == (1.0, 0.0)
    else:
        assert [p.hex() for p in table.p_w] == [p.hex() for p in per_mask]
    if t <= 12:
        back = RegenTable.from_json(table.to_json())
        assert [p.hex() for p in back.p_w] == [p.hex() for p in table.p_w]


def _noisy_copy_text():
    """A noisy-copy protocol with one 2-bit mask source, as text."""
    p1, _ = reductions.to_semi_noisy(star_xor(1, reps=2, eps=0.1))
    p2, _ = reductions.to_noisy_copy(p1, 2, fix=False)
    return protocol_to_text(p2)


_MALFORMED = {
    "missing_mask": lambda probs: {k: v for k, v in probs.items() if k != "01"},
    "extra_key": lambda probs: {**probs, "000": 0.0},
    "wrong_length_key": lambda probs: {k if k != "01" else "1": v for k, v in probs.items()},
    # "01" comes first and is right, so only the weight check can see "10"
    "unequal_weight": lambda probs: {**probs, "10": 2 * probs["10"]},
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_table_is_rejected(case, tmp_path, capsys):
    text = _noisy_copy_text()
    line = next(ln for ln in text.splitlines() if ln.startswith("masksrc"))
    prefix, obj = line[: line.index("{")], json.loads(line[line.index("{") :])
    bad = json.dumps({**obj, "probs": _MALFORMED[case](obj["probs"])})
    with pytest.raises(ValueError):
        RegenTable.from_json(bad)
    path = tmp_path / "p.txt"
    path.write_text(text)
    assert main(["advantage", "--protocol-file", str(path)]) == 0
    path.write_text(text.replace(line, prefix + bad))
    assert main(["advantage", "--protocol-file", str(path)]) == 1
    assert "error:" in capsys.readouterr().err
