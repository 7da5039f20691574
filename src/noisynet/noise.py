"""Bit-level noise primitives.

The channel model is the exact-epsilon binary symmetric channel: a
transmitted bit is received XORed with an independent Bernoulli(eps) flip.
On top of the channel primitives this module provides the noise
regeneration sampler: given a single gamma-noisy copy of a source bit with
gamma = eps**t, it emits t bits whose joint law equals t independent
eps-noisy copies of the source.  The regeneration mask distribution is
obtained by solving, for each complementary pair of masks (u, ~u),

    (1 - gamma) * p[u] + gamma * p[~u] = eps**|u| * (1-eps)**(t-|u|)

which is the unique mask law, independent of the received bit, with the
required property.  Nonnegativity of the solution holds for eps < 1/2.
"""

from __future__ import annotations

import itertools
import json
import math

from .bits import BitVector
from .rng import RngStream

#: Largest supported regeneration block; tables are stored explicitly.
MAX_REGEN_T = 20

_PAIR_TOL = 1e-12


def noisy_copy(b: int, eps: float, rng: RngStream) -> int:
    """Return ``b`` XOR an independent Bernoulli(eps) flip (one rng draw)."""
    return int(b) ^ rng.bernoulli(eps)


class RegenTable:
    """Mask distribution over {0,1}^t used by :func:`regenerate`.

    ``probs`` maps each mask (as a BitVector) to its probability.  The table
    satisfies, for every mask u with complement ~u and gamma = eps**t,
    ``(1-gamma) p[u] + gamma p[~u] == eps^|u| (1-eps)^(t-|u|)``.
    """

    def __init__(self, t: int, epsilon: float, probs: dict):
        self.t = t
        self.epsilon = epsilon
        self.probs = dict(probs)
        self._masks = sorted(self.probs, key=BitVector.to_index)
        self._prob_list = [self.probs[m] for m in self._masks]
        self.validate()

    @property
    def gamma(self) -> float:
        return self.epsilon**self.t

    def validate(self):
        if len(self.probs) != 2**self.t:
            raise ValueError("table must cover all masks")
        total = math.fsum(self.probs.values())
        if abs(total - 1.0) > _PAIR_TOL:
            raise ValueError(f"mask probabilities sum to {total}, not 1")
        if any(p < -_PAIR_TOL for p in self.probs.values()):
            raise ValueError("negative mask probability")
        eps, t, gamma = self.epsilon, self.t, self.gamma
        for u, p in self.probs.items():
            comp = BitVector(1 - b for b in u)
            w = sum(u)
            target = eps**w * (1 - eps) ** (t - w)
            got = (1 - gamma) * p + gamma * self.probs[comp]
            if abs(got - target) > _PAIR_TOL:
                raise ValueError(f"pair equation violated at mask {u.to_string()}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "t": self.t,
                "epsilon": self.epsilon,
                "probs": {m.to_string(): p for m, p in self.probs.items()},
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "RegenTable":
        obj = json.loads(text)
        probs = {BitVector.from_string(s): p for s, p in obj["probs"].items()}
        return cls(obj["t"], obj["epsilon"], probs)

    def sample_mask(self, rng: RngStream) -> BitVector:
        return self._masks[rng.choice_index(self._prob_list)]

    def outcomes(self):
        """(mask, probability) pairs in index order."""
        return list(zip(self._masks, self._prob_list))


def regen_table(t: int, eps: float) -> RegenTable:
    """Build the regeneration mask table for block size ``t``.

    Requires 1 <= t <= MAX_REGEN_T and 0 < eps < 1/2; for eps >= 1/2 the
    solved system can go negative and the construction is rejected.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if t > MAX_REGEN_T:
        raise ValueError(f"t={t} exceeds the supported maximum {MAX_REGEN_T}")
    if not 0.0 < eps < 0.5:
        raise ValueError(f"regeneration requires 0 < eps < 1/2, got {eps}")
    gamma = eps**t
    if gamma < 1e-300:
        raise ValueError(f"eps**t underflows for t={t}, eps={eps}")
    probs = {}
    for mask_bits in itertools.product((0, 1), repeat=t):
        u = BitVector(mask_bits)
        w = sum(mask_bits)
        # Solve the 2x2 pair system for (p[u], p[~u]).
        p = (
            (1 - gamma) * eps**w * (1 - eps) ** (t - w)
            - gamma * eps ** (t - w) * (1 - eps) ** w
        ) / (1 - 2 * gamma)
        probs[u] = max(p, 0.0)
    return RegenTable(t, eps, probs)


def regenerate(c: int, table: RegenTable, rng: RngStream) -> BitVector:
    """Expand one gamma-noisy copy into ``t`` eps-noisy copies.

    ``c`` must be a gamma-noisy copy of the source with gamma = eps**t;
    under that precondition the output law equals t independent eps-noisy
    copies of the source bit.
    """
    mask = table.sample_mask(rng)
    return BitVector(int(c) ^ m for m in mask)


def regen_output_law(c_law: dict, table: RegenTable) -> dict:
    """Exact output law of :func:`regenerate` for an input bit law.

    ``c_law`` maps bit -> probability; the result maps BitVector -> prob.
    Used by tests to compare against the iid product law by enumeration.
    """
    out: dict = {}
    for c, pc in c_law.items():
        for mask, pm in table.outcomes():
            v = BitVector(int(c) ^ m for m in mask)
            out[v] = out.get(v, 0.0) + pc * pm
    return out


def iid_noisy_law(b: int, eps: float, t: int) -> dict:
    """Law of t independent eps-noisy copies of bit ``b``."""
    out = {}
    for bits in itertools.product((0, 1), repeat=t):
        p = 1.0
        for y in bits:
            p *= eps if y != b else 1 - eps
        out[BitVector(bits)] = p
    return out
