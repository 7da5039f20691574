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

from . import exprs
from .engine import Channel


# -- distributions ----------------------------------------------------------


def uniform_distribution(n_bits: int) -> dict:
    p = 1.0 / 2**n_bits
    return {bits: p for bits in itertools.product((0, 1), repeat=n_bits)}


def mu_star(n: int) -> dict:
    """Mass 1/2 on the all-zero string, 1/(2n) on each weight-1 string."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = {(0,) * n: 0.5}
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        out[e] = 1.0 / (2 * n)
    return out


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


# -- sensitivity ------------------------------------------------------------


def truth_table(f, n: int) -> np.ndarray:
    """Vector of f over all 2^n inputs (big-endian index order)."""
    if n > 20:
        raise ValueError("enumeration capped at n = 20")
    idx = np.arange(2**n)
    if isinstance(f, exprs.Expr):
        cols = {i: ((idx >> (n - 1 - i)) & 1).astype(np.uint8) for i in range(n)}

        def value(atom):
            if isinstance(atom, exprs.OwnInput):
                return cols[atom.index]
            if isinstance(atom, exprs.Received):
                raise ValueError("pure boolean functions cannot read rx")
            raise ValueError("pure boolean functions cannot read randomness")

        vals = exprs.evaluate(f, value)
        return np.broadcast_to(np.asarray(vals, dtype=np.uint8), (2**n,))
    return np.array(
        [int(f(tuple((x >> (n - 1 - i)) & 1 for i in range(n)))) for x in idx],
        dtype=np.uint8,
    )


def sensitivity(f, n: int) -> int:
    """Max over inputs of the number of single-bit flips changing f."""
    tt = truth_table(f, n)
    idx = np.arange(2**n)
    per_input = np.zeros(2**n, dtype=np.int64)
    for i in range(n):
        per_input += tt != tt[idx ^ (1 << (n - 1 - i))]
    return int(per_input.max())


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
    return eps**2 * _log2(1.0 / (4 * delta)) / (50 * _log2(1.0 / eps) ** 2) * s


def alpha_bound(n: int, D: float, eps: float, c: float) -> float:
    """max(1 - exp(-c D log^2(1/eps) / (eps^2 n)), 7/8).

    The hidden constant of the asymptotic statement must be supplied
    explicitly as ``c``.
    """
    if n < 1 or D < 0 or not 0 < eps < 1 or c <= 0:
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
    if N <= 1:
        raise ValueError("N must exceed 1")
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
