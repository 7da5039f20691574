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
    interval: str | None = None  # how ``ci`` was made: "clopper-pearson"
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
    """Monte-Carlo advantage over ``trials`` inputs drawn from ``mu``.

    ``evaluator(x_key, r)`` returns one sampled outcome and draws its
    randomness from ``r``, never from a stream it ``spawn``s off ``r``:
    every trial reads the one stream ``rng.spawn("eval")``, in trial order,
    so an evaluator that reads k raw words per call (``engine.execute``
    reads one double, one word, per primitive) gives trial i the words
    [ik, (i+1)k) of that stream.  The inputs come from ``rng.spawn("mu")``.

    For outcomes in {0, 1} and a target balanced under ``mu``
    (|sum mu f| <= 1e-12, as parity is under uniform inputs), the advantage
    is |2 pi - 1|, where pi is the probability that f(X) (-1)^A(X) = +1.
    The estimate is |2 pi^ - 1| over the trials, and ``ci`` is the exact
    Clopper-Pearson 95% interval for pi mapped through |2 pi - 1|: it holds
    the advantage with probability at least 0.95, and its lower end is 0
    when the interval for pi contains 1/2.  Otherwise the estimate is the
    plug-in sum_c |mean(f * 1_c)|, biased upward by about
    sqrt(|C| / trials), and ``ci`` is None.
    """
    validate_distribution(mu)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    keys = sorted(mu)
    f_keys = np.array([f(k) for k in keys], dtype=float)
    probs = np.array([mu[k] for k in keys])
    gen = rng.spawn("mu").numpy_generator()
    drawn = gen.choice(len(keys), size=trials, p=probs)
    stream = rng.spawn("eval")
    outcomes = [evaluator(keys[i], stream) for i in drawn.tolist()]
    fs = f_keys[drawn]
    record = {"seed": rng.seed, "key": list(rng.key)}
    if set(outcomes) <= {0, 1} and abs(float(probs @ f_keys)) <= 1e-12:
        level = 0.95
        agree = int(np.count_nonzero(fs * (1 - 2 * np.array(outcomes)) > 0))
        lo, hi = clopper_pearson(agree, trials, level)
        ends = (abs(2 * lo - 1), abs(2 * hi - 1))
        return AdvantageEstimate(
            value=abs(2 * agree - trials) / trials,
            method="monte-carlo",
            trials=trials,
            ci=(0.0 if lo <= 0.5 <= hi else min(ends), max(ends)),
            level=level,
            interval="clopper-pearson",
            seed_record=record,
        )
    out_index = {c: j for j, c in enumerate(sorted(set(outcomes)))}
    codes = np.array([out_index[c] for c in outcomes])
    sums = np.bincount(codes, weights=fs, minlength=len(out_index))
    return AdvantageEstimate(
        value=float(np.abs(sums).sum() / trials),
        method="monte-carlo",
        trials=trials,
        seed_record=record,
    )


# -- exact binomial interval ------------------------------------------------


def clopper_pearson(k: int, n: int, level: float = 0.95) -> tuple:
    """Exact interval for a binomial proportion seen as ``k`` successes in
    ``n`` trials (Clopper and Pearson, 1934): the (1 - level)/2 quantile of
    Beta(k, n - k + 1) and the (1 + level)/2 quantile of Beta(k + 1, n - k),
    with ends 0 at k = 0 and 1 at k = n.  It covers every proportion with
    probability at least ``level``.  Pure Python, to about 1e-13."""
    if not (0 <= k <= n and n >= 1 and 0.0 < level < 1.0):
        raise ValueError(f"need 0 <= k <= n, n >= 1 and 0 < level < 1, got {k}, {n}, {level}")
    tail = (1.0 - level) / 2
    lo = 0.0 if k == 0 else _beta_quantile(tail, k, n - k + 1)
    hi = 1.0 if k == n else 1.0 - _beta_quantile(tail, n - k, k + 1)
    return lo, hi


def _beta_quantile(q: float, a: float, b: float) -> float:
    """The x with I_x(a, b) = q, for 0 < q < 1/2.

    Newton steps on log I against log x (near 0, I is about a power of x),
    started at the normal approximation (Abramowitz and Stegun 26.2.23 for
    the normal quantile) and kept inside the bracket that every evaluation
    shrinks; a step that leaves it bisects instead.  Two to five
    evaluations at 1,000 trials.
    """
    t = math.sqrt(-2.0 * math.log(q))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    mean = a / (a + b)
    x = mean - z * math.sqrt(mean * (1.0 - mean) / (a + b + 1.0))
    if not 0.0 < x < 1.0:
        x = mean
    lo, hi, log_q = 0.0, 1.0, math.log(q)
    for _ in range(200):
        cdf, density = _beta_cdf(x, a, b)
        if cdf < q:
            lo = x
        else:
            hi = x
        nxt = 2.0  # outside the bracket
        if cdf > 0.0 and density > 0.0:
            log_nxt = math.log(x) + (log_q - math.log(cdf)) * cdf / (x * density)
            if log_nxt < 0.0:
                nxt = math.exp(log_nxt)
                # Newton converges quadratically: a step this small leaves
                # an error far below it
                if abs(nxt - x) <= 1e-9 * nxt:
                    return nxt
        x = nxt if lo < nxt < hi else 0.5 * (lo + hi)
    raise ArithmeticError(f"no Beta({a}, {b}) quantile found for {q}")


def _beta_cdf(x: float, a: float, b: float) -> tuple:
    """The regularized incomplete beta I_x(a, b) and the Beta(a, b) density
    at x, for 0 < x < 1: the continued fraction where it converges fast
    (x < (a + 1) / (a + b + 2)), else through I_x(a, b) = 1 - I_(1-x)(b, a)."""
    front = math.exp(a * math.log(x) + b * math.log1p(-x)
                     + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    density = front / (x * (1.0 - x))
    if x * (a + b + 2.0) < a + 1.0:
        return front * _beta_fraction(x, a, b) / a, density
    return 1.0 - front * _beta_fraction(1.0 - x, b, a) / b, density


def _beta_fraction(x: float, a: float, b: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method
    (Numerical Recipes, 3rd ed., 6.4)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 100_000):
        m2 = 2 * m
        for num in (m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
                    -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            return h
    raise ArithmeticError(f"the continued fraction of I_{x}({a}, {b}) did not converge")


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
