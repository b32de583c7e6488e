"""Transmission schemes and decoders for binary network coding.

One encoder, :func:`encode`, serves three schemes with one packet format:
``systematic`` sends the source packets first and uniform random GF(2)
combinations afterwards, ``straightforward`` sends uniform random
combinations from the start, and ``ordered-uncoded`` cycles through the plain
source packets. Uniform sampling deliberately includes the all-zero vector;
decoders absorb it as a no-op.

Decoding comes in two flavours:

* :class:`ProgressiveDecoder` eliminates incrementally on every arrival and
  releases each source packet as soon as its unit vector enters the row
  space of the received coding vectors.
* :func:`full_rank_decode` is the classical all-or-nothing batch eliminator.

Both key each pivot row by its lowest set bit, as a power of two. The
progressive decoder, and the count-only trial kernel
``simulator._first_reach`` with it, keep the row space in one reduced form:

* ``decoded`` is a bitmask of the decoded columns, whose unit rows are not
  stored;
* ``rows`` maps the key of every other pivot row to the row, and the keys
  make up the bitmask ``pivots``;
* no row holds a decoded column or another row's key.

An arrival is therefore reduced by one XOR per set bit of
``vec & (pivots | decoded)``, in any order, since no XOR brings in a bit of
either mask. A nonzero remainder becomes the row of its lowest set bit, that
bit is cleared from every other row, and a packet is decoded exactly when its
row is a unit vector.

Payload folds that select many words by one mask walk the mask in C:
``itertools.compress(words, gf2.bit_flags(mask))`` yields the words at the
set bits of ``mask``, lowest first, from a list indexed by column (bit i
selects ``words[i]``). The encoder's :func:`combine_words`, the decoder's
fold of decoded columns over ``_words`` and the back substitution of
:func:`full_rank_decode` are such folds; each costs one XOR per set bit,
as a lowest-bit loop would, without its interpreter steps per bit. The
list must be at least ``mask.bit_length()`` long: ``compress`` stops at the
shorter input without an error.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from functools import partial
from itertools import compress

from .gf2 import MAX_LENGTH, CodingVector, DimensionError, bit_flags

SCHEMES = ("systematic", "straightforward", "ordered-uncoded")


class SourceMessage:
    """A message split into k equal-length source packets, ``packets``, each
    also held as one big-endian integer in ``packet_words``."""

    def __init__(self, packets: tuple[bytes, ...]) -> None:
        if len(packets) < 1:
            raise ValueError("a message needs at least one source packet")
        lengths = {len(p) for p in packets}
        if len(lengths) != 1:
            raise ValueError(f"source packets have mixed lengths {sorted(lengths)}")
        if lengths == {0}:
            raise ValueError("source packets must carry at least one byte")
        self.packets = packets
        self.k = len(packets)
        self.payload_len = len(packets[0])
        self.packet_words = tuple(int.from_bytes(p, "big") for p in packets)


class TransmittedPacket:
    """What crosses the channel: a coding vector and its payload, all a
    decoder reads. ``payload_word`` is the payload as one big-endian integer;
    a caller that already holds it passes it in, by keyword."""

    def __init__(
        self,
        coding_vector: CodingVector,
        payload: bytes,
        *,
        payload_word: int | None = None,
    ) -> None:
        self.coding_vector = coding_vector
        self.payload = payload
        if payload_word is None:
            payload_word = int.from_bytes(payload, "big")
        self.payload_word = payload_word


def combine_words(packet_words: Sequence[int], vector_word: int) -> int:
    """XOR of the payload words selected by the set bits of ``vector_word``:
    bit i selects ``packet_words[i]``. Needs ``0 <= vector_word <
    2**len(packet_words)``; a higher bit would be dropped, not rejected."""
    acc = 0
    for w in compress(packet_words, bit_flags(vector_word)):
        acc ^= w
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


def encode(scheme: str, msg: SourceMessage, n: int, rng) -> TransmittedPacket:
    """Packet n (1-based) of ``scheme`` for ``msg``, its coding vector drawn by
    :func:`coding_word` from ``rng``; ordered-uncoded never draws."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    word = coding_word(scheme, msg.k, n, rng)
    if word and not word & (word - 1):  # a unit vector carries its source packet
        i = word.bit_length() - 1
        payload, pay = msg.packets[i], msg.packet_words[i]
    else:
        pay = combine_words(msg.packet_words, word)
        payload = pay.to_bytes(msg.payload_len, "big")
    return TransmittedPacket(CodingVector(msg.k, word), payload, payload_word=pay)


# One ``encoder(msg, n, rng)`` per scheme, for callers that pick it by name.
SCHEME_ENCODERS: dict[str, Callable[..., TransmittedPacket]] = {
    scheme: partial(encode, scheme) for scheme in SCHEMES
}


class ProgressiveDecoder:
    """Per-arrival GF(2) eliminator with partial recovery.

    The state is the reduced row space of the module docstring. Each row
    carries its payload word above its k coding bits, ``row | pay << k``, so
    one XOR combines a row and its payload; a decoded column keeps its
    payload word on its own. An arrival is reduced against the state,
    payload and all; a dependent or zero arrival reduces to zero and is
    absorbed. Each row that becomes a unit vector releases its source
    packet, converted to bytes once, so the decoded set grows monotonically
    and never misses a packet whose unit vector lies in the received row
    space.

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
        self._mask = (1 << k) - 1  # the coding bits of a row
        self._decoded = 0  # bitmask of the decoded columns
        self._pivots = 0  # bitmask of the keys of _rows
        self._rows: dict[int, int] = {}  # lowest set bit -> non-unit row | pay << k
        self._words = [0] * k  # payload word of each decoded column, by column
        self._recovered: dict[int, bytes] = {}

    @property
    def decoded_count(self) -> int:
        return len(self._recovered)

    @property
    def recovered_payloads(self) -> dict[int, bytes]:
        return dict(self._recovered)

    def receive(self, pkt: TransmittedPacket) -> set[int]:
        """Fold one packet into the state; returns the newly decoded indices."""
        vector = pkt.coding_vector
        if vector.length != self.k:
            raise DimensionError(f"coding vector length {vector.length} != k={self.k}")
        if len(pkt.payload) != self.payload_len:
            raise DimensionError(
                f"payload length {len(pkt.payload)} != {self.payload_len}"
            )
        return self.receive_words(vector.word, pkt.payload_word)

    def receive_words(self, vec: int, pay: int) -> set[int]:
        """Packed-word fast path of :meth:`receive` (no packet object needed)."""
        k = self.k
        done = vec & self._decoded
        if done:  # a decoded column's row is its unit vector
            vec ^= done
            for w in compress(self._words, bit_flags(done)):
                pay ^= w
        rows = self._rows
        if not rows and vec and not vec & (vec - 1):
            # A new unit vector and no row to clear its column from.
            self._decoded |= vec
            col = vec.bit_length()
            self._words[col - 1] = pay
            self._recovered[col] = pay.to_bytes(self.payload_len, "big")
            return {col}
        row = vec | pay << k
        hits = vec & self._pivots
        while hits:
            low = hits & -hits
            row ^= rows[low]
            hits ^= low
        mask = self._mask
        vec = row & mask
        if not vec:
            return set()  # dependent or zero packet: nothing new
        low = vec & -vec
        found = 0  # keys of the rows that become unit vectors
        for key, r in rows.items():
            if r & low:
                rows[key] = r = r ^ row
                if r & mask == key:
                    found |= key
        rows[low] = row
        if vec == low:
            found |= low
        else:
            self._pivots |= low
            if not found:
                return set()
        self._decoded |= found
        self._pivots &= ~found
        words = self._words
        recovered = self._recovered
        newly: set[int] = set()
        while found:
            key = found & -found
            found ^= key
            pay = rows.pop(key) >> k
            col = key.bit_length()
            words[col - 1] = pay
            recovered[col] = pay.to_bytes(self.payload_len, "big")
            newly.add(col)
        return newly


def full_rank_decode(
    packets: Iterable[TransmittedPacket], k: int
) -> dict[int, bytes] | None:
    """Classical batch Gaussian elimination: all k payloads or nothing.

    Returns ``{index: payload}`` for every source packet when the stacked
    coding vectors have rank k, else None. Rank-deficient batches recover
    nothing even when individual packets would be decodable. Every packet is
    validated before any elimination.
    """
    batch = list(packets)
    payload_len: int | None = None
    for pkt in batch:
        if pkt.coding_vector.length != k:
            raise DimensionError(
                f"coding vector length {pkt.coding_vector.length} != k={k}"
            )
        if payload_len is None:
            payload_len = len(pkt.payload)
        elif len(pkt.payload) != payload_len:
            raise DimensionError("mixed payload lengths in one batch")
    # Forward elimination into an echelon keyed by lowest set bit, until rank k.
    rows: dict[int, int] = {}
    words: dict[int, int] = {}
    for pkt in batch:
        if len(rows) == k:
            break
        vec, pay = pkt.coding_vector.word, pkt.payload_word
        while vec:
            low = vec & -vec
            row = rows.get(low)
            if row is None:
                rows[low] = vec
                words[low] = pay
                break
            vec ^= row
            pay ^= words[low]
    if len(rows) < k:
        return None
    # Back substitution from the highest column down: every other bit of a
    # row lies above its key, in a column already solved.
    solved = [0] * k  # payload word of each column, by column
    for col in range(k - 1, -1, -1):
        key = 1 << col
        pay = words[key]
        for w in compress(solved, bit_flags(rows[key] ^ key)):
            pay ^= w
        solved[col] = pay
    assert payload_len is not None
    return {
        col: pay.to_bytes(payload_len, "big") for col, pay in enumerate(solved, 1)
    }
