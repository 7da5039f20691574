"""Fixed-length bit vectors."""

from __future__ import annotations


class BitVector:
    """An immutable sequence of {0,1} with fixed length."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        bits = tuple(int(b) for b in bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("BitVector is immutable")

    def __len__(self):
        return len(self.bits)

    def __getitem__(self, i):
        return self.bits[i]

    def __iter__(self):
        return iter(self.bits)

    def __eq__(self, other):
        return isinstance(other, BitVector) and self.bits == other.bits

    def __hash__(self):
        return hash(self.bits)

    def __repr__(self):
        return f"BitVector({''.join(map(str, self.bits))!r})"

    def to_string(self) -> str:
        return "".join(map(str, self.bits))

    @classmethod
    def from_string(cls, s: str) -> "BitVector":
        return cls(int(ch) for ch in s)

    def to_index(self) -> int:
        """Big-endian integer encoding (first bit is most significant)."""
        idx = 0
        for b in self.bits:
            idx = (idx << 1) | b
        return idx
