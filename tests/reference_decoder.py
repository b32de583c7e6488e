"""Dense, step-by-step rendition of the progressive decoder.

Kept deliberately naive: a persistent k-row augmented matrix, one appended
row per arrival, explicit swap/eliminate/back-substitute/truncate phases
built from the public gf2 operations. The packed production decoder must
match it call for call; tests diff the two.
"""

from __future__ import annotations

from sysnc.codec import TransmittedPacket
from sysnc.gf2 import BitMatrix, CodingVector, degree, leftmost_one, swap_rows


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


class DenseProgressiveDecoder:
    def __init__(self, k: int, payload_len: int) -> None:
        self.k = k
        self.payload_len = payload_len
        self.matrix = BitMatrix(
            k, [CodingVector.zero(k)] * k, [bytes(payload_len)] * k
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
            if m.row(i).coefficient(i) == 0:
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
                    if j != i and m.row(j).coefficient(i) == 1:
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
