"""Bit-level noise primitives.

The channel model is the exact-epsilon binary symmetric channel: a
transmitted bit is received XORed with an independent Bernoulli(eps) flip.
On top of it this module provides the noise regeneration law: a single
gamma-noisy copy of a source bit with gamma = eps**t, XORed with a t-bit
mask drawn from it, gives t bits whose joint law equals t independent
eps-noisy copies of the source.  The regeneration mask distribution is
obtained by solving, for each complementary pair of masks (u, ~u),

    (1 - gamma) * p[u] + gamma * p[~u] = eps**|u| * (1-eps)**(t-|u|)

which is the unique mask law, independent of the received bit, with the
required property.  Nonnegativity of the solution holds for eps < 1/2.

A mask's probability depends only on its weight |u|, so a table keeps the
t+1 weight probabilities ``p_w``.  A mask is named by its outcome index:
outcome i is the mask whose bits are the t big-endian bits of i (bit 0 is
the most significant), and :func:`mask_bit` is the one decoder.
"""

from __future__ import annotations

import functools
import itertools
import json
import math

import numpy as np

#: Largest supported regeneration block: the engine enumerates all 2^t
#: outcomes of a mask source.
MAX_REGEN_T = 20

_PAIR_TOL = 1e-12


def mask_bit(index, t: int, j: int):
    """Bit ``j`` of the t-bit mask with outcome ``index`` (an int or an
    index array): bit j of the big-endian binary expansion of the index."""
    if not 0 <= j < t:
        raise ValueError(f"mask bit {j} outside a {t}-bit mask")
    return (index >> (t - 1 - j)) & 1


class RegenTable:
    """Regeneration mask distribution over {0,1}^t.

    ``p_w[w]`` is the probability of each mask of weight w.  The table
    satisfies, for every weight w and gamma = eps**t,
    ``(1-gamma) p_w[w] + gamma p_w[t-w] == eps^w (1-eps)^(t-w)``.
    """

    def __init__(self, t: int, epsilon: float, p_w):
        self.t = t
        self.epsilon = epsilon
        self.p_w = tuple(p_w)
        self.validate()

    @functools.cached_property
    def index_probs(self) -> tuple:
        """The probability of each outcome index, in index order."""
        return tuple(self.p_w[i.bit_count()] for i in range(2**self.t))

    def validate(self):
        t, eps, gamma = self.t, self.epsilon, self.epsilon**self.t
        if not 0.0 < eps < 0.5:
            raise ValueError(f"regeneration requires 0 < eps < 1/2, got {eps}")
        if len(self.p_w) != t + 1:
            raise ValueError(f"a {t}-bit table needs {t + 1} weight probabilities")
        total = math.fsum(math.comb(t, w) * p for w, p in enumerate(self.p_w))
        if abs(total - 1.0) > _PAIR_TOL:
            raise ValueError(f"mask probabilities sum to {total}, not 1")
        if any(p < -_PAIR_TOL for p in self.p_w):
            raise ValueError("negative mask probability")
        for w, p in enumerate(self.p_w):
            target = eps**w * (1 - eps) ** (t - w)
            got = (1 - gamma) * p + gamma * self.p_w[t - w]
            if abs(got - target) > _PAIR_TOL:
                raise ValueError(f"pair equation violated at mask weight {w}")

    def to_json(self) -> str:
        probs = {format(i, f"0{self.t}b"): p for i, p in enumerate(self.index_probs)}
        return json.dumps({"t": self.t, "epsilon": self.epsilon, "probs": probs})

    @classmethod
    def from_json(cls, text: str) -> "RegenTable":
        obj = json.loads(text)
        if not isinstance(obj, dict) or set(obj) != {"t", "epsilon", "probs"}:
            raise ValueError("a table holds exactly t, epsilon and probs")
        t, probs = obj["t"], obj["probs"]
        if type(t) is not int or not 1 <= t <= MAX_REGEN_T or type(probs) is not dict:
            raise ValueError(f"a table needs t in 1..{MAX_REGEN_T} and a probs map")
        p_w: dict = {}
        for mask, p in probs.items():
            if len(mask) != t or set(mask) - {"0", "1"} or type(p) not in (int, float):
                raise ValueError(f"bad entry {mask!r}: {p!r} in a {t}-bit table")
            w = mask.count("1")
            if p_w.setdefault(w, p) != p:
                raise ValueError(f"masks of weight {w} differ in probability")
        if len(probs) != 2**t:
            raise ValueError("table must cover all masks")
        return cls(t, obj["epsilon"], [p_w[w] for w in range(t + 1)])


def regen_table(t: int, eps: float) -> RegenTable:
    """Build the regeneration mask table for block size ``t``.

    Requires 1 <= t <= MAX_REGEN_T and 0 < eps < 1/2; for eps >= 1/2 the
    solved system can go negative and the construction is rejected.
    """
    if not 1 <= t <= MAX_REGEN_T:
        raise ValueError(f"t must be in 1..{MAX_REGEN_T}, got {t}")
    if not 0.0 < eps < 0.5:
        raise ValueError(f"regeneration requires 0 < eps < 1/2, got {eps}")
    gamma = eps**t
    if gamma < 1e-300:
        raise ValueError(f"eps**t underflows for t={t}, eps={eps}")
    p_w = []
    for w in range(t + 1):
        # Solve the 2x2 pair system for (p[u], p[~u]) at |u| = w.
        p = (
            (1 - gamma) * eps**w * (1 - eps) ** (t - w)
            - gamma * eps ** (t - w) * (1 - eps) ** w
        ) / (1 - 2 * gamma)
        p_w.append(max(p, 0.0))
    try:
        return RegenTable(t, eps, p_w)
    except ValueError:
        if t != 1:
            raise
    # At t = 1, gamma = eps and p_0 divides (1-eps)^2 - eps^2 by 1 - 2 eps;
    # near 1/2 both cancel and the sum check fails (1.000000000001041 at
    # 0.49996).  The difference of squares is (1 - 2 eps)((1 - eps) + eps),
    # so 1 - 2 eps cancels symbolically: p_0 = (1 - eps) + eps, p_1 = 0.
    # Only here, where the quotient fails its own check: the tables the E4
    # bytes were made with keep their floats.
    return RegenTable(t, eps, [(1 - eps) + eps, 0.0])


def regen_output_law(c_law: dict, table: RegenTable) -> np.ndarray:
    """Exact law of the t bits ``c`` XOR mask, the mask drawn from
    ``table``, for an input bit law.

    ``c_law`` maps bit -> probability; the result is the probability of
    each of the 2^t output codes (big-endian, as outcome indices are).
    E4 and the tests compare it with :func:`iid_noisy_law`.
    """
    probs = np.array(table.index_probs)
    out = np.zeros(len(probs))
    for c, pc in c_law.items():
        # output c XOR mask i has code i, every bit flipped when c is 1
        out[np.arange(len(probs)) ^ (c * (len(probs) - 1))] += pc * probs
    return out


def iid_noisy_law(b: int, eps: float, t: int) -> np.ndarray:
    """Law of t independent eps-noisy copies of bit ``b``, over the 2^t
    big-endian codes."""
    return np.array(
        [
            math.prod(eps if y != b else 1 - eps for y in bits)
            for bits in itertools.product((0, 1), repeat=t)
        ]
    )
