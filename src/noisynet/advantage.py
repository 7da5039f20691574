"""The advantage functional, its estimators, and closed-form bound
evaluators.

For an algorithm A with outcome set C, a target f: S -> {+1,-1} and an
input distribution mu, the advantage is

    adv = max over a: C -> [-1,+1] of |E[f(X) a(A(X))]|
        = sum over c of |E[f(X) 1{A(X)=c}]|,

the maximum being achieved by the sign weighting
a(c) = sign E[f(X) | A(X)=c].

Logarithms in the bound evaluators are base 2 (the asymptotic claims
are base-invariant; a fixed convention keeps regression values stable);
the Chernoff-style cell bound uses the natural exponential.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .engine import Channel


# -- distributions ----------------------------------------------------------


def uniform_distribution(n_bits: int) -> dict:
    p = 1.0 / 2**n_bits
    return {bits: p for bits in itertools.product((0, 1), repeat=n_bits)}


def validate_distribution(mu: dict):
    """Probabilities at least -1e-12, summing to 1 within 1e-12."""
    total = sum(mu.values())
    if any(p < -1e-12 for p in mu.values()):
        raise ValueError("negative probability")
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"distribution sums to {total}")


def parity_sign(key: tuple) -> int:
    """(-1)^(number of ones)."""
    return -1 if sum(key) % 2 else 1


# -- advantage --------------------------------------------------------------


@dataclass
class AdvantageEstimate:
    value: float
    method: str  # "exact" | "monte-carlo"
    trials: int | None = None
    ci: tuple | None = None
    level: float | None = None
    seed_record: dict | None = None
    weighting: np.ndarray | None = None


def advantage_exact(ch: Channel, f, mu: dict) -> AdvantageEstimate:
    """Exact advantage of a finite channel, plus the achieving weighting
    (+/-1 per outcome code).

    ``f`` maps input keys to +/-1 and ``mu`` assigns them probabilities.
    """
    validate_distribution(mu)
    row_of = {key: i for i, key in enumerate(ch.keys)}
    corr = np.zeros(ch.law.shape[1])
    for x, px in mu.items():
        if px == 0.0:
            continue
        corr += (px * f(x)) * ch.law[row_of[tuple(x)]]
    # one term at a time over ascending codes: np.sum would pair them up
    value = sum(abs(v) for v in corr.tolist())
    weighting = np.where(corr >= 0, 1, -1)
    return AdvantageEstimate(value=value, method="exact", weighting=weighting)


def advantage_mc(evaluator, f, mu: dict, trials: int, rng) -> AdvantageEstimate:
    """Plug-in Monte-Carlo advantage with a 95% percentile bootstrap
    confidence interval over 200 resamples.

    ``evaluator(x_key, rng)`` returns one sampled outcome.  The plug-in
    estimator sum_c |mean(f * 1_c)| carries a positive bias of order
    sqrt(|C| / trials); the exact method is preferred whenever it fits.
    """
    validate_distribution(mu)
    level, bootstrap = 0.95, 200
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    keys = sorted(mu)
    probs = np.array([mu[k] for k in keys])
    gen = rng.spawn("mu").numpy_generator()
    xs = [keys[i] for i in gen.choice(len(keys), size=trials, p=probs).tolist()]
    fs = np.array([f(x) for x in xs], dtype=float)
    outcomes = [evaluator(x, rng.spawn("eval", i)) for i, x in enumerate(xs)]
    out_index = {c: j for j, c in enumerate(sorted(set(outcomes)))}
    codes = np.array([out_index[c] for c in outcomes])

    def plugin(sample_idx):
        sums = np.bincount(
            codes[sample_idx], weights=fs[sample_idx], minlength=len(out_index)
        )
        return float(np.abs(sums).sum() / len(sample_idx))

    base_idx = np.arange(trials)
    value = plugin(base_idx)
    boot_gen = rng.spawn("bootstrap").numpy_generator()
    boot = sorted(
        plugin(boot_gen.integers(0, trials, size=trials)) for _ in range(bootstrap)
    )
    lo = boot[int((1 - level) / 2 * (bootstrap - 1))]
    hi = boot[int((1 + level) / 2 * (bootstrap - 1))]
    return AdvantageEstimate(
        value=value,
        method="monte-carlo",
        trials=trials,
        ci=(lo, hi),
        level=level,
        seed_record={"seed": rng.seed, "key": list(rng.key)},
    )


# -- closed-form bounds -----------------------------------------------------


def _log2(x: float) -> float:
    # not math.log2, which rounds differently: pinned values use this quotient
    return math.log(x) / math.log(2.0)


def gks_depth_bound(eps: float, delta: float, s: float) -> float:
    """Depth lower bound eps^2 log(1/4 delta) / (50 log^2(1/eps)) * s."""
    if not 0 < eps < 0.5:
        raise ValueError("eps must be in (0, 1/2)")
    if not 0 < delta < 1 / 16:
        raise ValueError("delta must be in (0, 1/16)")
    if not 0 <= s < math.inf:
        raise ValueError("s must be finite and >= 0")
    return eps**2 * _log2(1.0 / (4 * delta)) / (50 * _log2(1.0 / eps) ** 2) * s


def alpha_bound(n: int, D: float, eps: float, c: float) -> float:
    """max(1 - exp(-c D log^2(1/eps) / (eps^2 n)), 7/8).

    The hidden constant of the asymptotic statement must be supplied
    explicitly as ``c``.
    """
    if not (1 <= n < math.inf and 0 <= D < math.inf and 0 < eps < 1
            and 0 < c < math.inf):
        raise ValueError("bad parameters for alpha bound")
    expo = c * D * _log2(1.0 / eps) ** 2 / (eps**2 * n)
    return max(1.0 - math.exp(-expo), 7.0 / 8.0)


def _min_s_lhs_log2(S: float, eps: float, c_prime: float) -> float:
    # log2 of S * log2(1/eps^(c'S))^2 / eps^(2 c' S)
    return (
        math.log2(S)
        + 2 * math.log2(c_prime * S * math.log2(1.0 / eps))
        + 2 * c_prime * S * math.log2(1.0 / eps)
    )


def min_transmission_ratio(
    N: float, eps: float, c_prime: float = 72.0, c_pp: float = 1.0
) -> float:
    """Smallest S on the geometric grid 2^(i/16) / 256, S <= 4096, with
    S log^2(1/eps^(c'S)) / eps^(2 c' S) >= c'' log N.

    The left side is strictly increasing in S, so a binary search over the
    grid applies.  Comparison is done in log space to avoid overflow.
    """
    if not 0 < eps < 0.5:
        raise ValueError("eps must be in (0, 1/2)")
    if not 1 < N < math.inf:
        raise ValueError("N must be finite and exceed 1")
    if not (0 < c_prime < math.inf and 0 < c_pp < math.inf):
        raise ValueError("c_prime and c_pp must be finite and positive")
    rhs_log2 = math.log2(c_pp * math.log2(N))
    ratio, s_min, s_max = 2 ** (1 / 16), 1 / 256, 4096.0
    n_steps = int(math.floor(math.log(s_max / s_min) / math.log(ratio)))
    lo, hi = 0, n_steps
    if _min_s_lhs_log2(s_min, eps, c_prime) >= rhs_log2:
        return s_min
    if _min_s_lhs_log2(s_min * ratio**n_steps, eps, c_prime) < rhs_log2:
        raise ValueError("grid maximum too small for this N")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _min_s_lhs_log2(s_min * ratio**mid, eps, c_prime) >= rhs_log2:
            hi = mid
        else:
            lo = mid
    return s_min * ratio**hi
