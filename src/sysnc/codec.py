"""Transmission schemes and decoders for binary network coding.

Three encoders share one packet format: ``systematic`` sends the source
packets first and uniform random GF(2) combinations afterwards,
``straightforward`` sends uniform random combinations from the start, and
``ordered-uncoded`` cycles through the plain source packets. Uniform sampling
deliberately includes the all-zero vector; decoders absorb it as a no-op.

Decoding comes in three flavours:

* :class:`ProgressiveDecoder` eliminates incrementally on every arrival and
  releases each source packet as soon as its unit vector enters the row
  space of the received coding vectors.
* :func:`full_rank_decode` is the classical all-or-nothing batch eliminator.
* :func:`rref_decodable_set` is a deliberately independent list-based RREF
  used as ground truth in tests; it shares no code with the decoder above.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .gf2 import (
    MAX_LENGTH,
    BitMatrix,
    CodingVector,
    DimensionError,
    degree,
    leftmost_one,
)

SCHEMES = ("systematic", "straightforward", "ordered-uncoded")


@dataclass(frozen=True)
class SourceMessage:
    """A message split into k equal-length source packets."""

    packets: tuple[bytes, ...]

    def __post_init__(self) -> None:
        if len(self.packets) < 1:
            raise ValueError("a message needs at least one source packet")
        lengths = {len(p) for p in self.packets}
        if len(lengths) != 1:
            raise ValueError(f"source packets have mixed lengths {sorted(lengths)}")
        if lengths == {0}:
            raise ValueError("source packets must carry at least one byte")

    @property
    def k(self) -> int:
        return len(self.packets)

    @property
    def payload_len(self) -> int:
        return len(self.packets[0])

    @cached_property
    def packet_words(self) -> tuple[int, ...]:
        return tuple(int.from_bytes(p, "big") for p in self.packets)


@dataclass(frozen=True)
class TransmittedPacket:
    """What crosses the channel: a coding vector, its payload, and the send index."""

    coding_vector: CodingVector
    payload: bytes
    sequence_index: int

    def __post_init__(self) -> None:
        if self.sequence_index < 1:
            raise ValueError("sequence_index is 1-based")


def combine_words(packet_words: Sequence[int], vector_word: int) -> int:
    """XOR of the payload words selected by the set bits of ``vector_word``."""
    acc = 0
    w = vector_word
    while w:
        low = w & -w
        acc ^= packet_words[low.bit_length() - 1]
        w ^= low
    return acc


def coding_word(scheme: str, k: int, n: int, rng) -> int:
    """Packed coding vector of packet n (1-based) under ``scheme``, the one
    statement of the scheme rules. Unit vectors cost no draw; a coded packet
    takes one ``rng.getrandbits(k)``, whose bit i-1 weights source packet i."""
    if n < 1:
        raise ValueError("packet index n is 1-based")
    if scheme == "ordered-uncoded":
        return 1 << ((n - 1) % k)
    if scheme == "systematic" and n <= k:
        return 1 << (n - 1)
    return rng.getrandbits(k)


def _encode(scheme: str, msg: SourceMessage, n: int, rng) -> TransmittedPacket:
    word = coding_word(scheme, msg.k, n, rng)
    payload = combine_words(msg.packet_words, word).to_bytes(msg.payload_len, "big")
    return TransmittedPacket(CodingVector(msg.k, word), payload, n)


def encode_systematic(msg: SourceMessage, n: int, rng) -> TransmittedPacket:
    """Packet n is source packet n for n <= k, a uniform random combination after."""
    return _encode("systematic", msg, n, rng)


def encode_straightforward(msg: SourceMessage, n: int, rng) -> TransmittedPacket:
    """Every packet is a uniform random combination of the source packets."""
    return _encode("straightforward", msg, n, rng)


def encode_ordered_uncoded(msg: SourceMessage, n: int, rng=None) -> TransmittedPacket:
    """Cyclic repetition of the source packets: packet n carries s_((n-1) mod k)+1."""
    return _encode("ordered-uncoded", msg, n, rng)


SCHEME_ENCODERS: dict[str, Callable[..., TransmittedPacket]] = {
    "systematic": encode_systematic,
    "straightforward": encode_straightforward,
    "ordered-uncoded": encode_ordered_uncoded,
}


class ProgressiveDecoder:
    """Per-arrival GF(2) eliminator with partial recovery.

    The receiver state is the reduced row space of everything received so
    far, kept as one pivot row per leading column: entries of an incoming
    vector that match decoded packets are cleared first (their recovered
    payloads are XORed into the incoming payload), the remainder is reduced
    against the pivot rows, a surviving remainder becomes a new pivot and its
    column is cleared from the other rows, and every row left with a single
    coefficient releases the corresponding source packet. Linearly dependent
    arrivals reduce to zero and are absorbed. The decoded set therefore
    grows monotonically and never misses a packet whose unit vector lies in
    the received row space.

    A decoder is single-owner state: one session mutates it from one thread;
    distinct sessions are independent.
    """

    def __init__(self, k: int, payload_len: int) -> None:
        if not 1 <= k <= MAX_LENGTH:
            raise DimensionError(f"generation size {k} outside [1, {MAX_LENGTH}]")
        if payload_len < 1:
            raise ValueError("payload_len must be positive")
        self.k = k
        self.payload_len = payload_len
        self._pivot_rows: dict[int, int] = {}  # leading column -> row word
        self._pivot_pay: dict[int, int] = {}  # leading column -> payload word
        self._decoded: set[int] = set()
        self._recovered: dict[int, bytes] = {}

    @property
    def decoded_indices(self) -> frozenset[int]:
        return frozenset(self._decoded)

    @property
    def decoded_count(self) -> int:
        return len(self._decoded)

    @property
    def recovered_payloads(self) -> dict[int, bytes]:
        return dict(self._recovered)

    def receive(self, pkt: TransmittedPacket) -> set[int]:
        """Fold one packet into the state; returns the newly decoded indices."""
        if pkt.coding_vector.length != self.k:
            raise DimensionError(
                f"coding vector length {pkt.coding_vector.length} != k={self.k}"
            )
        if len(pkt.payload) != self.payload_len:
            raise DimensionError(
                f"payload length {len(pkt.payload)} != {self.payload_len}"
            )
        return self.receive_words(
            pkt.coding_vector.word, int.from_bytes(pkt.payload, "big")
        )

    def receive_words(self, vec: int, pay: int) -> set[int]:
        """Packed-word fast path of :meth:`receive` (no packet object needed)."""
        rows = self._pivot_rows
        pays = self._pivot_pay
        # Reduce against existing pivot rows, scanning columns left to right.
        # Decoded packets are unit pivot rows, so this also masks them out of
        # the incoming vector while folding their payloads in.
        pivot_col = 0
        col = 0
        while True:
            high = vec >> col
            if not high:
                break
            col += (high & -high).bit_length()
            row = rows.get(col)
            if row is not None:
                vec ^= row
                pay ^= pays[col]
            elif not pivot_col:
                pivot_col = col
        if not vec:
            return set()  # dependent or zero packet: nothing new
        rows[pivot_col] = vec
        pays[pivot_col] = pay
        # Clear the new leading column from every other row that carries it.
        changed = [pivot_col]
        bit = 1 << (pivot_col - 1)
        for c, row in rows.items():
            if row & bit and c != pivot_col:
                rows[c] = row ^ vec
                pays[c] ^= pay
                changed.append(c)
        newly: set[int] = set()
        for c in changed:
            if rows[c].bit_count() == 1 and c not in self._decoded:
                self._decoded.add(c)
                self._recovered[c] = pays[c].to_bytes(self.payload_len, "big")
                newly.add(c)
        return newly


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
            if other != i and m.row(other).coefficient(j) == 1:
                m.xor_into(i, other)
    return m


def full_rank_decode(
    packets: Iterable[TransmittedPacket], k: int
) -> dict[int, bytes] | None:
    """Classical batch Gaussian elimination: all k payloads or nothing.

    Returns ``{index: payload}`` for every source packet when the stacked
    coding vectors have rank k, else None. Rank-deficient batches recover
    nothing even when individual packets would be decodable.
    """
    rows: list[list[int]] = []
    payload_len: int | None = None
    for pkt in packets:
        if pkt.coding_vector.length != k:
            raise DimensionError(
                f"coding vector length {pkt.coding_vector.length} != k={k}"
            )
        if payload_len is None:
            payload_len = len(pkt.payload)
        elif len(pkt.payload) != payload_len:
            raise DimensionError("mixed payload lengths in one batch")
        rows.append([pkt.coding_vector.word, int.from_bytes(pkt.payload, "big")])
    # Forward elimination to echelon form, pivoting column by column.
    rank = 0
    for col in range(1, k + 1):
        bit = 1 << (col - 1)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][0] & bit), None)
        if pivot is None:
            return None  # early exit: this column can never gain a pivot
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        vec, pay = rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][0] & bit:
                rows[r][0] ^= vec
                rows[r][1] ^= pay
        rank += 1
    # Back substitution: clear above each pivot, leaving unit rows.
    for i in range(rank - 1, -1, -1):
        vec, pay = rows[i]
        bit = vec & -vec
        for r in range(i):
            if rows[r][0] & bit:
                rows[r][0] ^= vec
                rows[r][1] ^= pay
    assert payload_len is not None
    return {
        rows[i][0].bit_length(): rows[i][1].to_bytes(payload_len, "big")
        for i in range(rank)
    }


def rref_decodable_set(vectors: Iterable[CodingVector], k: int) -> set[int]:
    """Ground-truth decodable set: indices whose unit vector lies in the row space.

    Textbook reduced-row-echelon form over coefficient lists. Kept free of
    the packed-integer machinery on purpose so it can serve as an oracle for
    the progressive decoder.
    """
    mat: list[list[int]] = []
    for v in vectors:
        if v.length != k:
            raise DimensionError(f"vector length {v.length} != k={k}")
        mat.append(v.coefficients())
    pivot_cols: list[int] = []
    row = 0
    for col in range(k):
        pivot = next((r for r in range(row, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        for r in range(len(mat)):
            if r != row and mat[r][col]:
                mat[r] = [a ^ b for a, b in zip(mat[r], mat[row])]
        pivot_cols.append(col)
        row += 1
    return {
        col + 1
        for r, col in enumerate(pivot_cols)
        if sum(mat[r]) == 1
    }
