"""Counter-based splittable random streams.

Every random draw in this package comes from an :class:`RngStream`, which is
a thin wrapper around numpy's Philox counter-based generator.  A stream is
identified by a 64-bit seed and a key tuple (domain tag plus integer
indices); the Philox key is derived by hashing both, so streams with
distinct keys are statistically independent and a given (seed, key) pair
always reproduces the same sequence of draws regardless of thread schedule.
"""

from __future__ import annotations

import hashlib
import operator

import numpy as np

#: Generator family identifier; it changes whenever a seed would name other draws.
RNG_VERSION = "philox4x64-sha256-v3"


def _key_text(part) -> str:
    """Text hashed for one key part; equal numbers give equal text on every
    numpy version (``repr(np.int64(3))`` is ``'np.int64(3)'`` under numpy 2)."""
    if isinstance(part, str):
        return repr(str(part))
    if isinstance(part, float):
        return repr(float(part))
    try:
        return repr(operator.index(part))
    except TypeError:
        raise TypeError(
            f"rng key parts must be str, int or float, not {type(part).__name__}"
        ) from None


def _derive_key(seed: int, key: tuple) -> np.ndarray:
    """Hash (seed, key tuple) into a 2-word Philox key."""
    h = hashlib.sha256()
    h.update(str(int(seed)).encode())
    for part in key:
        h.update(b"\x1f")
        h.update(_key_text(part).encode())
    digest = h.digest()
    return np.frombuffer(digest[:16], dtype=np.uint64)


class RngStream:
    """A keyed, counter-based random stream.

    Streams are value-like: they carry no shared state and may be handed to
    other threads.  ``spawn`` derives an independent substream by extending
    the key tuple; the parent stream is unaffected.
    """

    def __init__(self, seed: int, key: tuple = ()):
        self.seed = int(seed)
        self.key = tuple(key)
        self._bitgen = np.random.Philox(key=_derive_key(self.seed, self.key))
        self._gen = np.random.Generator(self._bitgen)

    def spawn(self, *subkey) -> "RngStream":
        """Independent substream keyed by ``key + subkey``."""
        return RngStream(self.seed, self.key + tuple(subkey))

    def random(self, size=None):
        return self._gen.random(size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size=size)

    def numpy_generator(self) -> np.random.Generator:
        """Expose the underlying generator for bulk numpy sampling."""
        return self._gen

    def __repr__(self):
        return f"RngStream(seed={self.seed}, key={self.key})"
