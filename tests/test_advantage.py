"""Advantage functional and closed-form bound evaluators."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import beta

from noisynet import advantage as adv
from noisynet.engine import Channel, exact_channel, execute, input_order
from noisynet.protocol import star_xor
from noisynet.rng import RngStream


def chan(rows):
    """A channel from dict laws, one column per outcome in sorted order."""
    outcomes = sorted({c for row in rows.values() for c in row})
    law = [[row.get(c, 0.0) for c in outcomes] for row in rows.values()]
    return Channel(rows, law)


def parity(x):
    return adv.parity_sign(x)


def advantage_bruteforce(ch: Channel, f, mu: dict) -> float:
    """Max over all sign weightings; oracle for small outcome sets."""
    width = ch.law.shape[1]
    if width > 16:
        raise ValueError("outcome set too large for brute force")
    row_of = {key: i for i, key in enumerate(ch.keys)}
    best = 0.0
    for signs in itertools.product((-1, 1), repeat=width):
        a = np.array(signs, dtype=float)
        total = sum(mu[x] * f(x) * float(ch.law[row_of[tuple(x)]] @ a) for x in mu)
        best = max(best, abs(total))
    return best


# -- distributions -----------------------------------------------------------


def test_uniform_distribution():
    mu = adv.uniform_distribution(3)
    assert len(mu) == 8 and abs(sum(mu.values()) - 1.0) < 1e-12


def test_validate_distribution():
    with pytest.raises(ValueError):
        adv.validate_distribution({(0,): 0.7, (1,): 0.7})
    with pytest.raises(ValueError):
        adv.validate_distribution({(0,): 1.5, (1,): -0.5})


# -- advantage ---------------------------------------------------------------


def test_exact_matches_bruteforce_on_protocol_channel():
    p = star_xor(2, reps=1, eps=0.1)
    ch = exact_channel(p)
    mu = adv.uniform_distribution(2)
    exact = adv.advantage_exact(ch, parity, mu)
    brute = advantage_bruteforce(ch, parity, mu)
    assert abs(exact.value - brute) <= 1e-12
    assert abs(exact.value - 0.64) <= 1e-12  # (1-2*0.1)^2


def test_exact_matches_bruteforce_on_synthetic_channel():
    rows = {
        (0,): {"a": 0.7, "b": 0.2, "c": 0.1},
        (1,): {"a": 0.3, "b": 0.3, "c": 0.4},
    }
    mu = {(0,): 0.6, (1,): 0.4}
    exact = adv.advantage_exact(chan(rows), parity, mu)
    assert abs(exact.value - advantage_bruteforce(chan(rows), parity, mu)) <= 1e-12


def test_achieving_weighting_attains_value():
    p = star_xor(2, reps=2, eps=0.2)
    ch = exact_channel(p)
    mu = adv.uniform_distribution(2)
    est = adv.advantage_exact(ch, parity, mu)
    assert set(est.weighting.tolist()) <= {-1, 1}
    attained = abs(
        sum(
            mu[x] * parity(x) * (row @ est.weighting)
            for x, row in zip(ch.keys, ch.law)
        )
    )
    assert abs(attained - est.value) <= 1e-12


def test_postprocessing_never_increases_advantage():
    rows = {
        (0,): {0: 0.5, 1: 0.3, 2: 0.2},
        (1,): {0: 0.1, 1: 0.6, 2: 0.3},
    }
    mu = {(0,): 0.5, (1,): 0.5}
    full = adv.advantage_exact(chan(rows), parity, mu).value
    merged_rows = {
        x: {0: r[0] + r[2], 1: r[1]} for x, r in rows.items()
    }
    merged = adv.advantage_exact(chan(merged_rows), parity, mu).value
    assert merged <= full + 1e-12


def test_perfect_and_useless_channels():
    perfect = chan({(0,): {0: 1.0}, (1,): {1: 1.0}})
    useless = chan({(0,): {0: 0.5, 1: 0.5}, (1,): {0: 0.5, 1: 0.5}})
    mu = {(0,): 0.5, (1,): 0.5}
    assert abs(adv.advantage_exact(perfect, parity, mu).value - 1.0) <= 1e-12
    assert abs(adv.advantage_exact(useless, parity, mu).value) <= 1e-12


def test_advantage_mc_close_to_exact():
    p = star_xor(2, reps=1, eps=0.1)
    mu = adv.uniform_distribution(2)
    order = input_order(p)

    def evaluator(x_key, rng):
        return execute(p, dict(zip(order, x_key)), rng).output

    est = adv.advantage_mc(evaluator, parity, mu, trials=20000, rng=RngStream(3))
    assert est.method == "monte-carlo"
    assert abs(est.value - 0.64) < 0.03
    lo, hi = est.ci
    assert lo <= est.value <= hi


def _star_evaluator(p):
    order = input_order(p)
    return lambda x_key, r: execute(p, dict(zip(order, x_key)), r).output


def test_advantage_mc_reads_one_eval_stream_in_trial_order():
    """The outcomes are ``execute`` run in trial order on one fresh
    ``rng.spawn("eval")``: no trial has a stream of its own."""
    p = star_xor(3, reps=3, eps=0.2)
    evaluate = _star_evaluator(p)
    seen = []

    def recording(x_key, r):
        seen.append((x_key, evaluate(x_key, r)))
        return seen[-1][1]

    rng = RngStream(11, ("addressing",))
    adv.advantage_mc(recording, parity, adv.uniform_distribution(3), 300, rng)
    replay = rng.spawn("eval")
    assert len(seen) == 300
    assert [evaluate(x, replay) for x, _ in seen] == [out for _, out in seen]


def test_advantage_mc_trial_i_reads_raw_words_ik_to_ik_plus_k():
    """An evaluator that reads k doubles gets, at trial i, the raw words
    [ik, (i+1)k) of the eval stream, as a batch of ``random_raw`` would."""
    k, trials = 3, 50
    rng = RngStream(4, ("addressing",))
    seen = []

    def draws(x_key, r):
        seen.append(r.random(k).tolist())
        return len(seen)  # every outcome distinct: the plug-in path

    est = adv.advantage_mc(draws, parity, adv.uniform_distribution(2), trials, rng)
    raw = rng.spawn("eval").numpy_generator().bit_generator.random_raw(trials * k)
    assert seen == ((raw >> 11) * 2.0**-53).reshape(trials, k).tolist()
    assert est.ci is None and est.interval is None and est.level is None


def test_advantage_mc_keeps_the_plug_in_for_an_unbalanced_target():
    p = star_xor(2, reps=1, eps=0.1)
    mu = {(0, 0): 0.4, (0, 1): 0.2, (1, 0): 0.2, (1, 1): 0.2}  # sum mu f = 0.2
    rng = RngStream(5, ("plug-in",))
    est = adv.advantage_mc(_star_evaluator(p), parity, mu, 2000, rng)
    assert est.ci is None and est.interval is None
    want = adv.advantage_exact(exact_channel(p), parity, mu).value
    assert abs(est.value - want) < 0.1


@pytest.mark.parametrize(
    "n, k",
    [(1, 0), (1, 1), (2, 1), (10, 0), (10, 3), (10, 10), (1000, 0), (1000, 1),
     (1000, 500), (1000, 999), (1000, 1000), (100_000, 0), (100_000, 1),
     (100_000, 37_519), (100_000, 50_000), (100_000, 99_999), (100_000, 100_000)],
)
@pytest.mark.parametrize("level", [0.5, 0.95, 0.99])
def test_clopper_pearson_matches_scipy_beta_quantiles(n, k, level):
    lo, hi = adv.clopper_pearson(k, n, level)
    want_lo = 0.0 if k == 0 else beta.ppf((1 - level) / 2, k, n - k + 1)
    want_hi = 1.0 if k == n else beta.ppf((1 + level) / 2, k + 1, n - k)
    assert abs(lo - want_lo) <= 1e-12 and abs(hi - want_hi) <= 1e-12


@pytest.mark.parametrize("k, n, level", [(-1, 5, 0.95), (6, 5, 0.95), (0, 0, 0.95),
                                          (2, 5, 1.0), (2, 5, 0.0)])
def test_clopper_pearson_rejects_bad_arguments(k, n, level):
    with pytest.raises(ValueError):
        adv.clopper_pearson(k, n, level)


@pytest.mark.parametrize("n, eps", [(3, 0.45), (1, 0.1)], ids=["adv-0.001", "adv-0.8"])
def test_advantage_mc_interval_covers_the_exact_advantage(n, eps):
    """At least 88 of 100 seeded 95% intervals hold the exact advantage;
    P(Bin(100, 0.95) <= 87) = 0.0015."""
    p = star_xor(n, reps=1, eps=eps)
    mu = adv.uniform_distribution(n)
    exact = adv.advantage_exact(exact_channel(p), parity, mu).value
    evaluate = _star_evaluator(p)
    covered = 0
    for seed in range(100):
        est = adv.advantage_mc(evaluate, parity, mu, 1000, RngStream(seed, ("coverage",)))
        assert est.interval == "clopper-pearson" and est.level == 0.95
        lo, hi = est.ci
        assert lo <= est.value <= hi
        covered += lo <= exact <= hi
    assert covered >= 88


def test_advantage_mc_loads_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys; from noisynet import advantage as a, engine as e, protocol as pr; "
        "from noisynet.rng import RngStream; p = pr.star_xor(2); o = e.input_order(p); "
        "est = a.advantage_mc(lambda x, r: e.execute(p, dict(zip(o, x)), r).output, "
        "a.parity_sign, a.uniform_distribution(2), 200, RngStream(1)); "
        "assert est.ci is not None; print([m for m in sys.modules if m.startswith('scipy')])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_bruteforce_outcome_cap():
    rows = {(0,): {c: 1.0 / 17 for c in range(17)}}
    with pytest.raises(ValueError):
        advantage_bruteforce(chan(rows), parity, {(0,): 1.0})


def test_advantage_mc_rejects_zero_trials():
    with pytest.raises(ValueError, match="trials"):
        adv.advantage_mc(
            lambda x, r: 0, adv.parity_sign, adv.uniform_distribution(1), 0,
            RngStream(0, ("t",)),
        )


# -- closed-form bounds ------------------------------------------------------


def test_gks_depth_bound_example():
    # eps = 1/4, delta = 1/64: (1/16) * log2(16) / (50 * log2(4)^2) = 1/800
    got = adv.gks_depth_bound(0.25, 1 / 64, s=1.0)
    assert abs(got - 0.00125) <= 1e-15
    assert abs(adv.gks_depth_bound(0.25, 1 / 64, s=10.0) - 0.0125) <= 1e-12


def test_gks_depth_bound_ranges():
    with pytest.raises(ValueError):
        adv.gks_depth_bound(0.5, 0.01, 1.0)
    with pytest.raises(ValueError):
        adv.gks_depth_bound(0.1, 1 / 16, 1.0)


def test_alpha_bound_floor_and_monotonicity():
    assert adv.alpha_bound(10, 0.0, 0.1, c=1.0) == 7 / 8
    vals = [adv.alpha_bound(10, D, 0.1, c=1.0) for D in (0, 0.01, 0.02, 0.05, 0.1)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert 7 / 8 < vals[-1] < 1.0
    assert adv.alpha_bound(10, 1e9, 0.1, c=1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        adv.alpha_bound(0, 1.0, 0.1, c=1.0)


def test_min_transmission_ratio_monotone_in_n():
    vals = [
        adv.min_transmission_ratio(2.0 ** (2**m), 0.1) for m in range(3, 7)
    ]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_min_transmission_ratio_grid_scan_oracle():
    """Binary search agrees with a left-to-right scan of the same grid."""
    ratio, s_min = 2 ** (1 / 16), 1 / 256
    for N in (1e4, 1e9, 1e18):
        rhs = math.log2(math.log2(N))
        i = 0
        while adv._min_s_lhs_log2(s_min * ratio**i, 0.1, 72.0) < rhs:
            i += 1
        assert adv.min_transmission_ratio(N, 0.1) == s_min * ratio**i


def test_min_transmission_ratio_errors():
    with pytest.raises(ValueError):
        adv.min_transmission_ratio(1.0, 0.1)
    with pytest.raises(ValueError):
        adv.min_transmission_ratio(100.0, 0.6)
    with pytest.raises(ValueError):
        # an absurd requirement exceeds the grid maximum
        adv.min_transmission_ratio(1e10, 0.1, c_prime=1e-9, c_pp=1e300)
