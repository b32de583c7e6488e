"""Bit-packed GF(2) coding vectors.

Coefficients are packed LSB-first into one arbitrary-precision integer, so
the decoders eliminate word-wide through the int machinery instead of
looping over coefficients. Public coefficient indices are 1-based.
"""

from __future__ import annotations

# Generation-size cap. Not a hard architectural limit: raise it before
# building larger vectors if a sweep needs more headroom.
MAX_LENGTH = 1024

_FLAG_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class DimensionError(ValueError):
    """Vector lengths, generation sizes or payload lengths do not line up."""


def bit_flags(word: int) -> bytes:
    """One 0/1 byte per bit of ``word`` >= 0, LSB first: byte i is bit i.

    The result has ``max(1, word.bit_length())`` bytes, so
    ``itertools.compress(items, bit_flags(word))`` yields the items at the
    set bits of ``word`` in C, provided ``word < 2**len(items)``.
    """
    return bin(word)[:1:-1].encode().translate(_FLAG_BYTES)


class CodingVector:
    """Length-``length`` vector over GF(2); coefficient i sits at bit i-1 of ``word``."""

    __slots__ = ("length", "word")

    def __init__(self, length: int, word: int = 0) -> None:
        if not 1 <= length <= MAX_LENGTH:
            raise DimensionError(f"vector length {length} outside [1, {MAX_LENGTH}]")
        if not 0 <= word < (1 << length):
            raise ValueError(f"word {word:#x} does not fit in {length} bits")
        self.length = length
        self.word = word

    def __eq__(self, other):
        if type(other) is not CodingVector:
            return NotImplemented
        return self.length == other.length and self.word == other.word

    def __repr__(self) -> str:
        return f"CodingVector({self.length}, {self.word:#x})"
