"""Counter-based splittable random streams.

Every random draw in this package comes from an :class:`RngStream`, which is
a thin wrapper around numpy's Philox counter-based generator.  A stream is
identified by a 64-bit seed and a key tuple (domain tag plus integer
indices); the Philox key is derived by hashing both, so streams with
distinct keys are statistically independent and a given (seed, key) pair
always reproduces the same sequence of draws regardless of thread schedule.
"""

from __future__ import annotations

import functools
import hashlib
import operator

import numpy as np

#: Generator family identifier; it changes whenever a seed would name other draws.
RNG_VERSION = "philox4x64-sha256-v5"


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


@functools.cache
def _keyed_generator():
    """A function from a 16-byte key to a ``Generator`` on ``Philox`` under
    that key.  The key reaches Philox through numpy's seed-sequence
    interface: a ``SeedSequence`` would first gather OS entropy, which the
    key overrides.  Defined on first use, so that importing the package
    does not load ``numpy.random``."""
    from numpy.random import Generator, Philox
    from numpy.random.bit_generator import ISeedSequence

    class KeySequence(ISeedSequence):
        def __init__(self, key: bytes):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            # Philox asks for its key as generate_state(2, np.uint64)
            return np.frombuffer(self.key, dtype=dtype, count=n_words)

    return lambda key: Generator(Philox(KeySequence(key)))


class RngStream:
    """A keyed, counter-based random stream.

    Streams are value-like: they carry no shared state and may be handed to
    other threads.  ``spawn`` derives an independent substream by extending
    the key tuple; the parent stream is unaffected.  The Philox key is the
    first 16 bytes of the sha256 of ``str(seed)`` followed by ``\\x1f`` and
    the text of each key part; a stream keeps those bytes, so a substream
    hashes them with only its own parts appended.
    """

    def __init__(self, seed: int, key: tuple = ()):
        self.seed = int(seed)
        self.key = ()
        self._text = str(self.seed).encode()
        self._extend(tuple(key))

    def _extend(self, parts: tuple):
        """Append ``parts`` to the key and build the generator it names."""
        self.key += parts
        for part in parts:
            self._text += b"\x1f" + _key_text(part).encode()
        self._gen = _keyed_generator()(hashlib.sha256(self._text).digest()[:16])

    def spawn(self, *subkey) -> "RngStream":
        """Independent substream keyed by ``key + subkey``."""
        child = object.__new__(RngStream)
        child.seed, child.key, child._text = self.seed, self.key, self._text
        child._extend(subkey)
        return child

    def random(self, size=None):
        return self._gen.random(size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size=size)

    def numpy_generator(self) -> np.random.Generator:
        """Expose the underlying generator for bulk numpy sampling."""
        return self._gen

    def __repr__(self):
        return f"RngStream(seed={self.seed}, key={self.key})"
