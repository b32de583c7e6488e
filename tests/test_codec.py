import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    combine_words_loop,
    decodable_by_rowspace,
    insert_rank,
    rref_decodable_set,
)
from reference_decoder import (
    BitMatrix,
    DenseProgressiveDecoder,
    back_substitute,
    coefficients,
    decoded_indices,
    from_coefficients,
    unit,
    zero,
)
from sysnc import codec
from sysnc.codec import (
    SCHEME_ENCODERS,
    SCHEMES,
    ProgressiveDecoder,
    SourceMessage,
    TransmittedPacket,
    combine_words,
    encode,
    full_rank_decode,
)
from sysnc.gf2 import MAX_LENGTH, CodingVector, DimensionError


class StubBits:
    """Feeds getrandbits from a fixed list of draw values."""

    def __init__(self, *words):
        self.words = list(words)

    def getrandbits(self, k):
        return self.words.pop(0)


def word(*coeffs):
    return sum(c << i for i, c in enumerate(coeffs))


MSG3 = SourceMessage((b"aa", b"bb", b"cc"))


def packet_fields(pkt):
    return pkt.coding_vector, pkt.payload, pkt.payload_word


def xor_bytes(*parts):
    acc = bytearray(len(parts[0]))
    for part in parts:
        for i, x in enumerate(part):
            acc[i] ^= x
    return bytes(acc)


def make_packet(coeffs, payload):
    return TransmittedPacket(from_coefficients(coeffs), payload)


def decoder_rows(dec):
    """The decoder's nonzero rows: leading column -> (row word, payload),
    with each decoded column as its unit row."""
    rows = {col: (1 << (col - 1), pay) for col, pay in dec.recovered_payloads.items()}
    for key, row in dec._rows.items():
        pay = (row >> dec.k).to_bytes(dec.payload_len, "big")
        rows[key.bit_length()] = (row & dec._mask, pay)
    return rows


class TestEncoders:
    def test_systematic_phase_is_the_source_packet(self):
        pkt = encode("systematic", MSG3, 2, StubBits())
        assert coefficients(pkt.coding_vector) == [0, 1, 0]
        assert pkt.payload == b"bb"

    def test_systematic_coded_phase_draws_uniform_vector(self):
        pkt = encode("systematic", MSG3, 5, StubBits(word(1, 0, 1)))
        assert coefficients(pkt.coding_vector) == [1, 0, 1]
        assert pkt.payload == xor_bytes(b"aa", b"cc")

    def test_systematic_zero_draw_is_legal(self):
        pkt = encode("systematic", MSG3, 4, StubBits(0))
        assert pkt.coding_vector.word == 0
        assert pkt.payload == b"\x00\x00"

    def test_straightforward_always_coded(self):
        msg = SourceMessage((b"a", b"b"))
        pkt = encode("straightforward", msg, 1, StubBits(word(1, 1)))
        assert pkt.payload == xor_bytes(b"a", b"b")
        assert encode("straightforward", msg, 7, StubBits(0)).coding_vector.word == 0

    def test_straightforward_independent_draws(self):
        rng = random.Random(5)
        first = encode("straightforward", MSG3, 1, rng)
        second = encode("straightforward", MSG3, 2, rng)
        rng2 = random.Random(5)
        assert packet_fields(encode("straightforward", MSG3, 1, rng2)) == packet_fields(first)
        assert packet_fields(encode("straightforward", MSG3, 2, rng2)) == packet_fields(second)

    @pytest.mark.parametrize("n,expected", [(1, 0), (4, 0), (6, 2), (3, 2), (5, 1)])
    def test_ordered_uncoded_cycles(self, n, expected):
        pkt = encode("ordered-uncoded", MSG3, n, None)
        assert pkt.payload == MSG3.packets[expected]
        assert pkt.coding_vector == unit(3, expected + 1)

    def test_indices_are_one_based(self):
        for scheme in SCHEMES:
            with pytest.raises(ValueError):
                encode(scheme, MSG3, 0, StubBits(0))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            encode("systematc", MSG3, 1, StubBits(0))

    def test_unit_packets_reuse_the_source_packet(self, monkeypatch):
        def no_combining(*args):
            raise AssertionError("a unit packet combined payloads")

        monkeypatch.setattr(codec, "combine_words", no_combining)
        for pkt, i in [
            (encode("systematic", MSG3, 2, StubBits()), 1),
            (encode("straightforward", MSG3, 1, StubBits(word(0, 0, 1))), 2),
            (encode("ordered-uncoded", MSG3, 4, None), 0),
        ]:
            assert pkt.payload is MSG3.packets[i]
            assert pkt.payload_word == MSG3.packet_words[i]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_payload_word_is_the_payload(self, seed):
        rng = random.Random(seed)
        msg, packets = random_instance(rng)
        packets.append(encode("ordered-uncoded", msg, rng.randint(1, 3 * msg.k), None))
        for pkt in packets:
            hand = TransmittedPacket(pkt.coding_vector, pkt.payload)
            assert packet_fields(hand) == packet_fields(pkt)
            for p in (pkt, hand):
                assert p.payload_word == int.from_bytes(p.payload, "big")

    def test_payload_word_is_keyword_only(self):
        """A third positional argument, such as a send index, is refused
        rather than taken for the payload word."""
        with pytest.raises(TypeError):
            TransmittedPacket(from_coefficients([1, 0]), b"a", 3)

    def test_message_validation(self):
        with pytest.raises(ValueError):
            SourceMessage((b"a", b"bb"))
        with pytest.raises(ValueError):
            SourceMessage(())
        with pytest.raises(ValueError):
            SourceMessage((b"", b""))


# Generation sizes on either side of a 30-bit CPython digit and of 64-bit
# machine words, up to the cap.
COMBINE_KS = [1, 29, 30, 31, 60, 63, 64, 65, MAX_LENGTH]


def edge_words(k):
    """Zero, all-ones, top-bit-only and bottom-bit-only words of k bits."""
    return [0, (1 << k) - 1, 1 << (k - 1), 1]


class TestCombineWords:
    @pytest.mark.parametrize("k", COMBINE_KS)
    def test_edge_words_match_the_lowest_bit_loop(self, k):
        rng = random.Random(k)
        packet_words = [rng.getrandbits(64) for _ in range(k)]
        for w in edge_words(k):
            assert combine_words(packet_words, w) == combine_words_loop(packet_words, w)

    @given(
        st.sampled_from(COMBINE_KS).flatmap(
            lambda k: st.tuples(
                st.just(k),
                st.integers(0, 2**32 - 1),
                st.one_of(st.sampled_from(edge_words(k)), st.integers(0, 2**k - 1)),
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_lowest_bit_loop(self, case):
        k, seed, w = case
        rng = random.Random(seed)
        packet_words = [rng.getrandbits(rng.choice((8, 64, 1500 * 8))) for _ in range(k)]
        assert combine_words(packet_words, w) == combine_words_loop(packet_words, w)


class TestProgressiveDecoder:
    def test_systematic_packet_decodes_immediately(self):
        dec = ProgressiveDecoder(3, 2)
        assert dec.receive(make_packet([1, 0, 0], b"aa")) == {1}
        assert dec.recovered_payloads == {1: b"aa"}

    def test_pair_resolves_together(self):
        dec = ProgressiveDecoder(3, 2)
        assert dec.receive(make_packet([1, 1, 0], xor_bytes(b"aa", b"bb"))) == set()
        assert dec.receive(make_packet([0, 1, 0], b"bb")) == {1, 2}
        assert dec.recovered_payloads == {1: b"aa", 2: b"bb"}

    def test_rank_two_cycle_decodes_nothing(self):
        dec = ProgressiveDecoder(3, 2)
        dec.receive(make_packet([1, 1, 0], xor_bytes(b"aa", b"bb")))
        dec.receive(make_packet([0, 1, 1], xor_bytes(b"bb", b"cc")))
        dec.receive(make_packet([1, 0, 1], xor_bytes(b"aa", b"cc")))
        assert decoded_indices(dec) == frozenset()
        assert len(decoder_rows(dec)) <= 3

    def test_dimension_mismatch(self):
        dec = ProgressiveDecoder(3, 2)
        with pytest.raises(DimensionError):
            dec.receive(make_packet([1, 0], b"aa"))
        with pytest.raises(DimensionError):
            dec.receive(make_packet([1, 0, 0], b"a"))

    def test_zero_packet_absorbed(self):
        dec = ProgressiveDecoder(2, 1)
        assert dec.receive(make_packet([0, 0], b"\x00")) == set()
        assert decoder_rows(dec) == {}

    def test_workspace_capped_at_k_rows(self):
        dec = ProgressiveDecoder(2, 1)
        rng = random.Random(3)
        msg = SourceMessage((b"x", b"y"))
        for n in range(1, 40):
            dec.receive(encode("straightforward", msg, n, rng))
        assert len(decoder_rows(dec)) <= 2
        assert decoded_indices(dec) == frozenset({1, 2})


def random_instance(rng, max_k=8):
    k = rng.randint(1, max_k)
    length = rng.randint(1, 3)
    msg = SourceMessage(
        tuple(bytes(rng.randrange(256) for _ in range(length)) for _ in range(k))
    )
    packets = []
    for n in range(1, rng.randint(0, 2 * k + 3) + 1):
        if rng.random() < 0.45:
            packets.append(encode("systematic", msg, rng.randint(1, k), rng))
        else:
            packets.append(encode("straightforward", msg, n, rng))
    rng.shuffle(packets)
    return msg, packets


class TestDecoderProperties:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_and_sources(self, seed):
        rng = random.Random(seed)
        msg, packets = random_instance(rng)
        dec = ProgressiveDecoder(msg.k, msg.payload_len)
        decoded = set()
        for pkt in packets:
            newly = dec.receive(pkt)
            assert newly.isdisjoint(decoded), "an index decoded twice"
            decoded |= newly
            assert decoded_indices(dec) == frozenset(decoded)
        oracle = rref_decodable_set([p.coding_vector for p in packets], msg.k)
        assert decoded == oracle
        for i in decoded:
            assert dec.recovered_payloads[i] == msg.packets[i - 1]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_reference_step_by_step(self, seed):
        rng = random.Random(seed)
        msg, packets = random_instance(rng)
        fast = ProgressiveDecoder(msg.k, msg.payload_len)
        dense = DenseProgressiveDecoder(msg.k, msg.payload_len)
        for pkt in packets:
            assert fast.receive(pkt) == dense.receive(pkt)
            assert set(decoder_rows(fast).values()) == dense.nonzero_rows()
        assert decoded_indices(fast) == dense.decoded_indices

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_duplicates_change_nothing(self, seed):
        rng = random.Random(seed)
        msg, packets = random_instance(rng)
        dec = ProgressiveDecoder(msg.k, msg.payload_len)
        for pkt in packets:
            dec.receive(pkt)
        before = decoded_indices(dec)
        rows = decoder_rows(dec)
        for pkt in packets:
            assert dec.receive(pkt) == set()
        assert decoded_indices(dec) == before
        assert decoder_rows(dec) == rows

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_arrival_order_is_irrelevant(self, seed):
        rng = random.Random(seed)
        msg, packets = random_instance(rng)
        final_sets = []
        for _ in range(3):
            rng.shuffle(packets)
            dec = ProgressiveDecoder(msg.k, msg.payload_len)
            for pkt in packets:
                dec.receive(pkt)
            final_sets.append(decoded_indices(dec))
        oracle = rref_decodable_set([p.coding_vector for p in packets], msg.k)
        assert all(s == frozenset(oracle) for s in final_sets)


class TestBackSubstitute:
    def test_clears_column_of_degree_one_row(self):
        m = BitMatrix(
            2,
            [from_coefficients([1, 1]),
             from_coefficients([0, 1])],
            [xor_bytes(b"a", b"b"), b"b"],
        )
        back_substitute(m, 2)
        assert [coefficients(r) for r in m.rows] == [[1, 0], [0, 1]]
        assert m.payloads == (b"a", b"b")

    def test_identity_is_fixed_point(self):
        m = BitMatrix(2, [unit(2, 1), unit(2, 2)],
                      [b"a", b"b"])
        back_substitute(m, 2)
        assert m.rows == (unit(2, 1), unit(2, 2))

    def test_no_degree_one_rows_unchanged(self):
        rows = [
            from_coefficients([1, 1, 0]),
            from_coefficients([0, 1, 1]),
            zero(3),
        ]
        m = BitMatrix(3, rows, [b"x", b"y", b"\x00"])
        back_substitute(m, 3)
        assert m.rows == tuple(rows)


class TestFullRankDecode:
    def test_full_rank_recovers_everything(self):
        msg = SourceMessage((b"a", b"b"))
        packets = [
            make_packet([1, 0], b"a"),
            make_packet([1, 1], xor_bytes(b"a", b"b")),
        ]
        assert full_rank_decode(packets, 2) == {1: b"a", 2: b"b"}

    def test_every_packet_validated_after_full_rank(self):
        full = [make_packet([1, 0], b"a"), make_packet([0, 1], b"b")]
        with pytest.raises(DimensionError):
            full_rank_decode([*full, make_packet([1, 0, 0], b"a")], 2)
        with pytest.raises(DimensionError):
            full_rank_decode([*full, make_packet([1, 1], b"ab")], 2)

    # 30 and 31 sit on a 30-bit CPython digit, 63..65 and 128 on 64-bit words;
    # MAX_LENGTH walks 1024-entry payload lists.
    @pytest.mark.parametrize(
        "k,scheme",
        [
            (k, scheme)
            for k in (30, 31, 63, 64, 65, 128)
            for scheme in ("systematic", "straightforward")
        ]
        + [(MAX_LENGTH, "systematic")],
    )
    def test_matches_progressive_decoder_across_word_boundaries(self, k, scheme):
        rng = random.Random(f"{scheme}|{k}")
        msg = SourceMessage(tuple(rng.randbytes(5) for _ in range(k)))
        source = dict(enumerate(msg.packets, 1))
        dec = ProgressiveDecoder(k, msg.payload_len)
        received = []
        for n in range(1, 4 * k + 1):
            pkt = SCHEME_ENCODERS[scheme](msg, n, rng)
            if rng.random() < 0.2:
                continue  # erased
            received.append(pkt)
            for i in dec.receive(pkt):
                assert dec.recovered_payloads[i] == source[i]
            if dec.decoded_count == k:
                break
        assert dec.recovered_payloads == source
        assert full_rank_decode(received, k) == source
        assert full_rank_decode(received[:-1], k) is None

    def test_rank_deficient_recovers_nothing(self):
        assert full_rank_decode([make_packet([1, 1], b"x")], 2) is None

    def test_blind_to_partial_decodability(self):
        packets = [
            make_packet([1, 1, 0], xor_bytes(b"a", b"b")),
            make_packet([0, 1, 0], b"b"),
            make_packet([0, 0, 0], b"\x00"),
        ]
        vectors = [p.coding_vector for p in packets]
        assert insert_rank([v.word for v in vectors]) == 2
        assert rref_decodable_set(vectors, 3) == {1, 2}
        assert full_rank_decode(packets, 3) is None

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_all_or_nothing_matches_oracle(self, seed):
        rng = random.Random(seed)
        msg, packets = random_instance(rng)
        result = full_rank_decode(packets, msg.k)
        oracle = rref_decodable_set([p.coding_vector for p in packets], msg.k)
        if len(oracle) == msg.k:
            assert result == {i + 1: p for i, p in enumerate(msg.packets)}
        else:
            assert result is None


class TestRrefOracle:
    def test_examples(self):
        rows = [from_coefficients(c) for c in ([1, 1, 0], [0, 1, 0])]
        assert rref_decodable_set(rows, 3) == {1, 2}
        identity = [unit(4, i) for i in range(1, 5)]
        assert rref_decodable_set(identity, 4) == {1, 2, 3, 4}
        assert rref_decodable_set([from_coefficients([1, 1])], 2) == set()

    @given(st.integers(1, 4), st.lists(st.integers(0, 15), max_size=6))
    def test_matches_rowspace_enumeration(self, k, words):
        words = [w & ((1 << k) - 1) for w in words]
        vectors = [CodingVector(k, w) for w in words]
        assert rref_decodable_set(vectors, k) == decodable_by_rowspace(words, k)
