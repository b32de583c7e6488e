"""Bit-packed GF(2) coding vectors.

Coefficients are packed LSB-first into one arbitrary-precision integer, so
the decoders eliminate word-wide through the int machinery instead of
looping over coefficients. Public coefficient indices are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

# Generation-size cap. Not a hard architectural limit: raise it before
# building larger vectors if a sweep needs more headroom.
MAX_LENGTH = 1024


class DimensionError(ValueError):
    """Vector lengths, generation sizes or payload lengths do not line up."""


@dataclass(frozen=True)
class CodingVector:
    """Length-``length`` vector over GF(2); coefficient i sits at bit i-1 of ``word``."""

    length: int
    word: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.length <= MAX_LENGTH:
            raise DimensionError(
                f"vector length {self.length} outside [1, {MAX_LENGTH}]"
            )
        if not 0 <= self.word < (1 << self.length):
            raise ValueError(f"word {self.word:#x} does not fit in {self.length} bits")

    @classmethod
    def from_coefficients(cls, coefficients: Iterable[int]) -> "CodingVector":
        word = 0
        length = 0
        for i, c in enumerate(coefficients):
            if c not in (0, 1):
                raise ValueError(f"coefficient {c!r} at position {i + 1} is not a bit")
            word |= c << i
            length = i + 1
        return cls(length, word)

    @classmethod
    def zero(cls, length: int) -> "CodingVector":
        return cls(length, 0)

    @classmethod
    def unit(cls, length: int, index: int) -> "CodingVector":
        """Standard basis vector with a single 1 at ``index`` (1-based)."""
        if not 1 <= index <= length:
            raise IndexError(f"unit index {index} outside [1, {length}]")
        return cls(length, 1 << (index - 1))

    def coefficient(self, index: int) -> int:
        if not 1 <= index <= self.length:
            raise IndexError(f"index {index} outside [1, {self.length}]")
        return (self.word >> (index - 1)) & 1

    def coefficients(self) -> list[int]:
        return [(self.word >> i) & 1 for i in range(self.length)]

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[int]:
        return iter(self.coefficients())
