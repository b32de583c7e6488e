import pytest
from hypothesis import given, strategies as st

from oracles import set_bits
from reference_decoder import (
    BitMatrix,
    coefficient,
    coefficients,
    degree,
    from_coefficients,
    leftmost_one,
    swap_rows,
    unit,
    xor_rows,
    zero,
)
from sysnc.gf2 import MAX_LENGTH, CodingVector, DimensionError, bit_flags

vectors = st.integers(1, 64).flatmap(
    lambda n: st.builds(CodingVector, st.just(n), st.integers(0, 2**n - 1))
)


def same_length_pair(max_len=64):
    return st.integers(1, max_len).flatmap(
        lambda n: st.tuples(
            st.builds(CodingVector, st.just(n), st.integers(0, 2**n - 1)),
            st.builds(CodingVector, st.just(n), st.integers(0, 2**n - 1)),
        )
    )


class TestBitFlags:
    @given(st.one_of(
        st.integers(0, 2**70),
        st.integers(0, MAX_LENGTH).map(lambda n: (1 << n) - 1),
        st.integers(0, MAX_LENGTH).map(lambda n: 1 << n),
        st.integers(0, 2**(MAX_LENGTH + 1)),
    ))
    def test_flags_exactly_the_set_bits(self, w):
        flags = bit_flags(w)
        assert len(flags) == max(1, w.bit_length())
        assert set(flags) <= {0, 1}
        assert [i for i, f in enumerate(flags) if f] == set_bits(w)

    def test_examples(self):
        assert bit_flags(0) == b"\x00"
        assert bit_flags(1) == b"\x01"
        assert bit_flags(0b110) == b"\x00\x01\x01"


class TestDegree:
    def test_counts_ones(self):
        assert degree(from_coefficients([0, 1, 1])) == 2

    def test_zero_vector(self):
        assert degree(zero(3)) == 0

    def test_all_ones(self):
        assert degree(from_coefficients([1, 1, 1, 1])) == 4

    @given(same_length_pair())
    def test_xor_degree_identity(self, pair):
        a, b = pair
        overlap = (a.word & b.word).bit_count()
        assert degree(xor_rows(a, b)) == degree(a) + degree(b) - 2 * overlap


class TestLeftmostOne:
    @pytest.mark.parametrize(
        "coeffs,expected",
        [([0, 0, 1], 3), ([1, 0, 1], 1), ([0, 0, 0], None)],
    )
    def test_examples(self, coeffs, expected):
        assert leftmost_one(from_coefficients(coeffs)) == expected

    @given(vectors)
    def test_position_is_first_one(self, v):
        pos = leftmost_one(v)
        if pos is None:
            assert v.word == 0
        else:
            assert coefficient(v, pos) == 1
            assert all(coefficient(v, j) == 0 for j in range(1, pos))


class TestXorRows:
    def test_elementwise(self):
        a = from_coefficients([1, 1, 0])
        b = from_coefficients([0, 1, 1])
        assert coefficients(xor_rows(a, b)) == [1, 0, 1]

    @given(vectors)
    def test_self_inverse_and_identity(self, v):
        assert xor_rows(v, v) == zero(v.length)
        assert xor_rows(v, zero(v.length)) == v

    @given(same_length_pair())
    def test_commutative(self, pair):
        a, b = pair
        assert xor_rows(a, b) == xor_rows(b, a)

    @given(st.integers(1, 32).flatmap(
        lambda n: st.tuples(*([st.builds(CodingVector, st.just(n),
                                         st.integers(0, 2**n - 1))] * 3))
    ))
    def test_associative(self, triple):
        a, b, c = triple
        assert xor_rows(xor_rows(a, b), c) == xor_rows(a, xor_rows(b, c))

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            xor_rows(zero(3), zero(4))


class TestSwapRows:
    def _matrix(self):
        return BitMatrix(
            2,
            [from_coefficients([1, 0]),
             from_coefficients([0, 1])],
            [b"A", b"B"],
        )

    def test_swap_same_index_is_noop(self):
        m = self._matrix()
        before = m.copy()
        assert swap_rows(m, 1, 1) == before

    def test_swap_exchanges_rows_and_payloads(self):
        m = self._matrix()
        swap_rows(m, 1, 2)
        assert coefficients(m.row(1)) == [0, 1]
        assert m.payload(1) == b"B"
        assert m.payload(2) == b"A"

    def test_swap_twice_restores(self):
        m = self._matrix()
        before = m.copy()
        swap_rows(swap_rows(m, 1, 2), 1, 2)
        assert m == before

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            swap_rows(self._matrix(), 1, 3)


class TestRepresentation:
    @given(st.integers(1, 256).flatmap(
        lambda n: st.lists(st.integers(0, 1), min_size=n, max_size=n)
    ))
    def test_round_trip_against_coefficient_list(self, coeffs):
        v = from_coefficients(coeffs)
        assert coefficients(v) == coeffs
        assert [coefficient(v, i) for i in range(1, len(coeffs) + 1)] == coeffs
        assert v.length == len(coeffs)
        assert degree(v) == sum(coeffs)
        first = next((i + 1 for i, c in enumerate(coeffs) if c), None)
        assert leftmost_one(v) == first

    def test_length_cap(self):
        zero(MAX_LENGTH)
        with pytest.raises(DimensionError):
            zero(MAX_LENGTH + 1)

    def test_word_must_fit(self):
        with pytest.raises(ValueError):
            CodingVector(2, 4)

    def test_equal_only_to_a_coding_vector(self):
        assert CodingVector(3, 5) == CodingVector(3, 5)
        assert CodingVector(3, 5) != (3, 5)

    def test_repr_shows_length_and_word_in_hex(self):
        assert repr(CodingVector(3, 5)) == "CodingVector(3, 0x5)"

    def test_unit_vector(self):
        assert coefficients(unit(4, 3)) == [0, 0, 1, 0]
        with pytest.raises(IndexError):
            unit(4, 5)


class TestBitMatrix:
    def test_width_checked(self):
        m = BitMatrix(3)
        with pytest.raises(DimensionError):
            m.append_row(zero(4))

    def test_truncate_keeps_top(self):
        m = BitMatrix(2, [unit(2, 1), unit(2, 2)])
        m.truncate(1)
        assert m.rows == (unit(2, 1),)

    def test_xor_into_moves_payloads(self):
        m = BitMatrix(
            2,
            [from_coefficients([1, 1]), unit(2, 2)],
            [bytes([0b1100]), bytes([0b1010])],
        )
        m.xor_into(2, 1)
        assert coefficients(m.row(1)) == [1, 0]
        assert m.payload(1) == bytes([0b0110])

    def test_payload_uniformity(self):
        m = BitMatrix(2)
        m.append_row(zero(2))
        with pytest.raises(DimensionError):
            m.append_row(zero(2), b"x")
