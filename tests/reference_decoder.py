"""Dense, step-by-step rendition of the progressive decoder.

Kept deliberately naive: a persistent k-row augmented matrix, one appended
row per arrival, explicit swap/eliminate/back-substitute/truncate phases
built from the row operations below. The packed production decoder must
match it call for call; tests diff the two.

The coefficient-level view of a ``CodingVector`` (building one from a
coefficient list, reading coefficients back, zero and unit vectors) lives
here too: the package itself only builds ``CodingVector(k, word)``.
"""

from __future__ import annotations

from typing import Iterable

from sysnc.codec import ProgressiveDecoder, TransmittedPacket
from sysnc.gf2 import MAX_LENGTH, CodingVector, DimensionError


def from_coefficients(coefficients: Iterable[int]) -> CodingVector:
    """The vector whose coefficient i+1 is ``coefficients[i]``."""
    word = 0
    length = 0
    for i, c in enumerate(coefficients):
        if c not in (0, 1):
            raise ValueError(f"coefficient {c!r} at position {i + 1} is not a bit")
        word |= c << i
        length = i + 1
    return CodingVector(length, word)


def zero(length: int) -> CodingVector:
    return CodingVector(length, 0)


def unit(length: int, index: int) -> CodingVector:
    """Standard basis vector with a single 1 at ``index`` (1-based)."""
    if not 1 <= index <= length:
        raise IndexError(f"unit index {index} outside [1, {length}]")
    return CodingVector(length, 1 << (index - 1))


def coefficient(v: CodingVector, index: int) -> int:
    if not 1 <= index <= v.length:
        raise IndexError(f"index {index} outside [1, {v.length}]")
    return (v.word >> (index - 1)) & 1


def coefficients(v: CodingVector) -> list[int]:
    return [(v.word >> i) & 1 for i in range(v.length)]


def decoded_indices(dec: ProgressiveDecoder) -> frozenset[int]:
    """The 1-based indices the decoder has released."""
    return frozenset(dec.recovered_payloads)


def degree(v: CodingVector) -> int:
    """Number of non-zero coefficients."""
    return v.word.bit_count()


def leftmost_one(v: CodingVector) -> int | None:
    """1-based position of the first non-zero coefficient; None for the zero vector."""
    if v.word == 0:
        return None
    return (v.word & -v.word).bit_length()


def xor_rows(a: CodingVector, b: CodingVector) -> CodingVector:
    if a.length != b.length:
        raise DimensionError(f"cannot XOR lengths {a.length} and {b.length}")
    return CodingVector(a.length, a.word ^ b.word)


class BitMatrix:
    """Row stack of equal-width coding vectors, optionally augmented with payloads.

    The matrix is mutable and meant to be owned by a single decoder session;
    row operations move augmented payloads together with their rows.
    """

    def __init__(
        self,
        width: int,
        rows: Iterable[CodingVector] = (),
        payloads: Iterable[bytes] | None = None,
    ) -> None:
        if not 1 <= width <= MAX_LENGTH:
            raise DimensionError(f"matrix width {width} outside [1, {MAX_LENGTH}]")
        self.width = width
        self._rows: list[CodingVector] = []
        self._payloads: list[bytes] | None = None if payloads is None else []
        payloads = [] if payloads is None else list(payloads)
        rows = list(rows)
        if self._payloads is not None and len(payloads) != len(rows):
            raise DimensionError("payload count does not match row count")
        for i, row in enumerate(rows):
            self.append_row(row, payloads[i] if self._payloads is not None else None)

    @property
    def row_count(self) -> int:
        return len(self._rows)

    @property
    def augmented(self) -> bool:
        return self._payloads is not None

    @property
    def rows(self) -> tuple[CodingVector, ...]:
        return tuple(self._rows)

    @property
    def payloads(self) -> tuple[bytes, ...] | None:
        return None if self._payloads is None else tuple(self._payloads)

    def row(self, i: int) -> CodingVector:
        self._check_index(i)
        return self._rows[i - 1]

    def payload(self, i: int) -> bytes:
        self._check_index(i)
        if self._payloads is None:
            raise DimensionError("matrix carries no payload column")
        return self._payloads[i - 1]

    def append_row(self, row: CodingVector, payload: bytes | None = None) -> None:
        if row.length != self.width:
            raise DimensionError(
                f"row length {row.length} does not match matrix width {self.width}"
            )
        if (payload is not None) != self.augmented:
            raise DimensionError("payload presence must be uniform across rows")
        self._rows.append(row)
        if self._payloads is not None:
            assert payload is not None
            self._payloads.append(payload)

    def xor_into(self, src: int, dst: int) -> None:
        """row[dst] ^= row[src]; augmented payloads are XORed alike."""
        self._check_index(src)
        self._check_index(dst)
        self._rows[dst - 1] = xor_rows(self._rows[dst - 1], self._rows[src - 1])
        if self._payloads is not None:
            self._payloads[dst - 1] = bytes(
                x ^ y for x, y in zip(self._payloads[dst - 1], self._payloads[src - 1])
            )

    def truncate(self, count: int) -> None:
        """Keep only the top ``count`` rows."""
        if count < 0:
            raise IndexError(f"cannot keep {count} rows")
        del self._rows[count:]
        if self._payloads is not None:
            del self._payloads[count:]

    def copy(self) -> "BitMatrix":
        return BitMatrix(self.width, self._rows, self._payloads)

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= len(self._rows):
            raise IndexError(f"row index {i} outside [1, {len(self._rows)}]")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return (
            self.width == other.width
            and self._rows == other._rows
            and self._payloads == other._payloads
        )


def swap_rows(m: BitMatrix, i: int, j: int) -> BitMatrix:
    """Exchange rows i and j (1-based) in place; payloads move with their rows."""
    m._check_index(i)
    m._check_index(j)
    m._rows[i - 1], m._rows[j - 1] = m._rows[j - 1], m._rows[i - 1]
    if m._payloads is not None:
        m._payloads[i - 1], m._payloads[j - 1] = m._payloads[j - 1], m._payloads[i - 1]
    return m



def back_substitute(m: BitMatrix, k: int) -> BitMatrix:
    """Propagate every single-coefficient row among the top k rows.

    Scanning rows k down to 1, a row of degree 1 has its column cleared from
    all other rows in that range (payloads XORed alike). Returns ``m``,
    modified in place.
    """
    top = min(k, m.row_count)
    for i in range(top, 0, -1):
        if degree(m.row(i)) != 1:
            continue
        j = leftmost_one(m.row(i))
        assert j is not None
        for other in range(1, top + 1):
            if other != i and coefficient(m.row(other), j) == 1:
                m.xor_into(i, other)
    return m


class DenseProgressiveDecoder:
    def __init__(self, k: int, payload_len: int) -> None:
        self.k = k
        self.payload_len = payload_len
        self.matrix = BitMatrix(
            k, [zero(k)] * k, [bytes(payload_len)] * k
        )
        self.recovered: dict[int, bytes] = {}

    @property
    def decoded_indices(self) -> frozenset[int]:
        return frozenset(self.recovered)

    def receive(self, pkt: TransmittedPacket) -> set[int]:
        k = self.k
        word = pkt.coding_vector.word
        payload = bytearray(pkt.payload)
        # Clear entries matching already-decoded packets, folding their
        # payloads into the incoming one.
        for i, recovered in self.recovered.items():
            if (word >> (i - 1)) & 1:
                word ^= 1 << (i - 1)
                for b, x in enumerate(recovered):
                    payload[b] ^= x
        if word == 0:
            return set()
        m = self.matrix
        m.append_row(CodingVector(k, word), bytes(payload))  # row k+1
        for i in range(1, k + 1):
            one_in_diag = True
            if coefficient(m.row(i), i) == 0:
                one_in_diag = False
                j = i + 1
                while True:
                    if leftmost_one(m.row(j)) == i:
                        swap_rows(m, i, j)
                        one_in_diag = True
                    j += 1
                    if j > k + 1 or one_in_diag:
                        break
            if one_in_diag:
                for j in range(1, k + 2):
                    if j != i and coefficient(m.row(j), i) == 1:
                        m.xor_into(i, j)
        back_substitute(m, k)
        m.truncate(k)
        newly = set()
        for i in range(1, k + 1):
            if degree(m.row(i)) == 1:
                idx = leftmost_one(m.row(i))
                assert idx is not None
                if idx not in self.recovered:
                    self.recovered[idx] = m.payload(i)
                    newly.add(idx)
        return newly

    def nonzero_rows(self) -> set[tuple[int, bytes]]:
        return {
            (row.word, self.matrix.payload(i + 1))
            for i, row in enumerate(self.matrix.rows)
            if row.word
        }
