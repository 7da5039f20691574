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
#: Most doubles :meth:`RngStream.uniforms` draws in one block.
MAX_BLOCK = 4096


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

    ``spawn`` derives an independent substream by extending the key tuple;
    the parent stream is unaffected.  The Philox key is the first 16 bytes
    of the sha256 of ``str(seed)`` followed by ``\\x1f`` and the text of
    each key part; a stream keeps those bytes, so a substream hashes them
    with only its own parts appended.

    A stream is mutable: its generator advances with every draw, and
    :meth:`uniforms` keeps a block of drawn doubles.  Use one stream from
    one thread at a time, and give each thread its own ``spawn``.
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
        # the doubles of the last uniforms block, the count served, and the
        # generator state before the block when it may be left unfinished
        self._block, self._pos, self._saved = [], 0, None

    def spawn(self, *subkey) -> "RngStream":
        """Independent substream keyed by ``key + subkey``."""
        child = object.__new__(RngStream)
        child.seed, child.key, child._text = self.seed, self.key, self._text
        child._extend(subkey)
        return child

    def uniforms(self, k: int) -> list:
        """The next ``k`` doubles of ``random()``, as a list of floats.

        They are served from a block drawn with one ``random(n)``: the
        first block holds exactly the first request, each later one twice
        the last, up to ``MAX_BLOCK`` (or the request, if larger).  A block
        larger than its request keeps the generator state it started from,
        so any other read first puts the generator just after the doubles
        served (:meth:`_sync`): a seed names the same draws whatever the
        reads interleave."""
        block, pos = self._block, self._pos
        end = pos + k
        if end <= len(block):
            self._pos = end
            return block[pos:end]
        need = end - len(block)  # the doubles the next block serves
        size = 2 * len(block)
        if size > MAX_BLOCK:
            size = MAX_BLOCK
        if size > need:
            self._saved = self._gen.bit_generator.state
        else:
            size = need
        new = self._gen.random(size).tolist()
        self._block, self._pos = new, need
        if pos < len(block) or size > need:
            return block[pos:] + new[:need]
        return new  # used up, so never read again

    def _sync(self):
        """Rewind the generator to just after the doubles served from the
        block, and drop the block's rest."""
        if self._pos < len(self._block):
            bitgen = self._gen.bit_generator
            bitgen.state = self._saved
            bitgen.random_raw(self._pos)  # random() reads one raw word per double
        self._block, self._pos, self._saved = [], 0, None

    def random(self, size=None):
        self._sync()
        return self._gen.random(size)

    def integers(self, low, high=None, size=None):
        self._sync()
        return self._gen.integers(low, high, size=size)

    def numpy_generator(self) -> np.random.Generator:
        """Expose the underlying generator for bulk numpy sampling, at the
        stream's position; it stays there until the next ``uniforms``."""
        self._sync()
        return self._gen

    def __repr__(self):
        return f"RngStream(seed={self.seed}, key={self.key})"
