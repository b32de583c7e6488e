import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import rref_decodable_set, rref_first_reach
from sysnc.analysis import full_decode_prob, ou_partial_decode_prob
from sysnc.codec import (
    SCHEME_ENCODERS,
    SCHEMES,
    ProgressiveDecoder,
    coding_word,
    unit_sends,
)
from sysnc.gf2 import MAX_LENGTH
from sysnc import simulator
from sysnc.simulator import (
    bench_decoders,
    derive_stream,
    make_test_message,
    run_trials,
    scheme_seed,
    _count_block,
    _first_reach,
    _mix,
)


def first_reach_of(counts, k):
    """First n at which each count c in [0, k] is reached, from the decoded
    count after every n (counts[0] = 0); len(counts) if never."""
    return [next((n for n, d in enumerate(counts) if d >= c), len(counts))
            for c in range(k + 1)]


class TestErase:
    """The erasure channel's configuration."""

    def test_p_validated(self):
        for p in (-0.1, 1.5):
            with pytest.raises(ValueError):
                run_trials("systematic", 2, [1], (1, 2), p, 0, 1)

    def test_k_validated_before_any_work(self, monkeypatch):
        """A generation size outside [1, MAX_LENGTH] is rejected before any
        block runs; k = 0 with no M would otherwise divide by zero."""
        monkeypatch.setattr(simulator, "_count_block", None)  # no block may run
        for k, m_list in ((0, []), (0, [1]), (-1, [1]), (MAX_LENGTH + 1, [1]), (2000, [1])):
            with pytest.raises(ValueError, match="generation size"):
                run_trials("systematic", k, m_list, (1, 2), 0.1, 0, 1)

    def test_k_at_the_limit_runs(self):
        [counts] = run_trials("straightforward", MAX_LENGTH, [1], (1, 2), 1.0, 0, 1)
        assert counts == [0, 0]


class TestStreams:
    def test_derive_stream_reproducible(self):
        a = derive_stream(7, 3, "channel").random()
        b = derive_stream(7, 3, "channel").random()
        assert a == b

    def test_roles_are_independent(self):
        assert derive_stream(7, 3, "channel").random() != derive_stream(7, 3, "encoder").random()

    def test_scheme_seed_separates_schemes(self):
        seeds = {scheme_seed(11, s) for s in SCHEMES}
        assert len(seeds) == len(SCHEMES)

    def test_mixed_seeds_are_frozen(self):
        """Every simulated byte hangs on these hashes of the labels."""
        assert _mix("encoder", 12345678, 77) == 17510146567738611529
        assert scheme_seed(20150501, "straightforward") == 12864699377442434980

    def test_message_fixed(self):
        assert make_test_message(3, 8).packets == make_test_message(3, 8).packets
        assert len(set(make_test_message(6, 8).packets)) == 6


class TestTrialPaths:
    @given(
        st.sampled_from(SCHEMES),
        st.integers(1, 8),
        st.integers(0, 200),
        st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
    )
    @settings(max_examples=120, deadline=None)
    def test_packed_path_matches_packet_path(self, scheme, k, trial, p):
        """The count-only trial against the packet path: the scheme's encoder
        and the channel fed the same derived streams, with the decoded set of
        the packets received up to each n taken from the RREF oracle."""
        n_hi = 2 * k + 4
        sub = scheme_seed(77, scheme)
        msg = make_test_message(k, 8)
        enc_rng = derive_stream(sub, trial, "encoder")
        channel = derive_stream(sub, trial, "channel").random
        received = []
        expected = [0]
        for n in range(1, n_hi + 1):
            pkt = SCHEME_ENCODERS[scheme](msg, n, enc_rng)
            if channel() >= p:
                received.append(pkt.coding_vector)
            expected.append(len(rref_decodable_set(received, k)))
        assert _first_reach(scheme, k, n_hi, p, sub, trial, range(k + 1)) == first_reach_of(
            expected, k)

    @given(st.sampled_from(SCHEMES), st.integers(1, 8), st.integers(0, 100))
    @settings(max_examples=120, deadline=None)
    def test_counts_monotone_and_bounded(self, scheme, k, trial):
        n_hi = 2 * k + 3
        first = _first_reach(scheme, k, n_hi, 0.3, 5, trial, range(k + 1))
        assert len(first) == k + 1 and first[0] == 0
        assert all(1 <= n <= n_hi + 1 for n in first[1:])
        assert all(a <= b for a, b in zip(first, first[1:]))

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("k", [1, 2, 40, 63, 64, 65, 128])
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0])
    def test_kernel_matches_progressive_decoder(self, scheme, k, p):
        """The count-only kernel and its aggregation against the payload
        decoder, fed the same coding_word vectors and channel stream, across
        the one- and two-machine-word boundaries of k."""
        n_hi, trials, m_list = 2 * k + 8, 4, sorted({1, (k + 1) // 2, k})
        sub = scheme_seed(2015, scheme)
        success = [[0] * (n_hi + 1) for _ in m_list]
        for trial in range(trials):
            encoder = derive_stream(sub, trial, "encoder")
            channel = derive_stream(sub, trial, "channel").random
            receive = ProgressiveDecoder(k, 1).receive_words
            counts = [0]
            for n in range(1, n_hi + 1):
                vec = coding_word(scheme, k, n, encoder)
                counts.append(counts[-1] + (len(receive(vec, 0)) if channel() >= p else 0))
            first = _first_reach(scheme, k, n_hi, p, sub, trial, range(k + 1))
            assert first == first_reach_of(counts, k)
            for row, m in zip(success, m_list):
                for n in range(1, n_hi + 1):
                    row[n] += counts[n] >= m
        block = (scheme, k, n_hi, p, sub, 0, trials, tuple(m_list))
        assert _count_block(block) == success


class RecordingStream(random.Random):
    """A derived stream that logs each ``getrandbits`` call, with its width
    and word, and counts its ``random`` draws."""

    def __init__(self, seed):
        super().__init__(seed)
        self.bits = []
        self.draws = 0

    def getrandbits(self, k):
        word = super().getrandbits(k)
        self.bits.append((k, word))
        return word

    def random(self):
        self.draws += 1
        return super().random()


class TestDraws:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_kernel_draws_what_coding_word_draws(self, scheme, monkeypatch):
        """The kernel reads one channel draw per send until the rank break
        (full rank, or n_hi), and its encoder calls are exactly those
        coding_word makes for the same sends: one getrandbits(k) per coded
        send, dropped or not, and none for a unit send."""
        rng = random.Random(35)
        coded_drops = 0
        for _ in range(400):
            k = rng.choice([1, 2, 3, 5, 8, 40, 65])
            n_hi = rng.randint(1, 3 * k + 5)
            p = rng.choice([0.0, 0.1, 0.5, 0.9, 1.0])
            seed, trial = rng.getrandbits(32), rng.randrange(10**6)
            last = min(rref_first_reach(scheme, k, n_hi, p, seed, trial)[k], n_hi)
            streams = {}
            monkeypatch.setattr(simulator, "derive_stream", lambda s, t, role: streams.setdefault(
                role, RecordingStream(_mix(role, s, t))))
            _first_reach(scheme, k, n_hi, p, seed, trial, range(k + 1))
            monkeypatch.undo()
            assert list(streams) == ["encoder", "channel"]
            assert streams["channel"].draws == last
            replay = RecordingStream(_mix("encoder", seed, trial))
            for n in range(1, last + 1):
                coding_word(scheme, k, n, replay)
            assert streams["encoder"].bits == replay.bits, (scheme, k, n_hi, p, seed, trial)
            assert len(replay.bits) == max(0, last - unit_sends(scheme, k))
            channel = random.Random(_mix("channel", seed, trial)).random
            coded_drops += sum(channel() < p and n > unit_sends(scheme, k)
                               for n in range(1, last + 1))
        assert (coded_drops > 100) == (scheme != "ordered-uncoded"), coded_drops


def received(scheme, k, n_hi, p, seed, trial):
    """(n, coding word) of each packet of one trial that the channel lets
    through, replayed from the trial's derived streams."""
    encoder = derive_stream(seed, trial, "encoder")
    channel = derive_stream(seed, trial, "channel").random
    sent = [(n, coding_word(scheme, k, n, encoder)) for n in range(1, n_hi + 1)]
    return [(n, vec) for n, vec in sent if channel() >= p]


def unit_phase_count(scheme, k, n_hi, p, seed, trial):
    """How many packets one trial decodes from unit vectors before its first
    coded arrival, the kernel's ``done`` when it starts solving."""
    decoded = 0
    for _, vec in received(scheme, k, n_hi, p, seed, trial):
        vec &= ~decoded
        if vec & (vec - 1):
            break
        decoded |= vec
    return decoded.bit_count()


class TestForwardEchelonKernel:
    """The forward-echelon kernel against its earlier form, which keeps the
    row space fully reduced after every arrival (``rref_first_reach``)."""

    def test_matches_rref_kernel_on_random_configs(self):
        """The full list, and the entries of a random M set, which may hold
        counts the unit vectors reach, counts above them and M = K."""
        rng = random.Random(1501)
        below = above = 0
        for _ in range(2000):
            scheme = rng.choice(SCHEMES)
            k = rng.choice([1, 2, 3, 5, 8, 13, 40, 63, 64, 65, 100, 128])
            n_hi = rng.randint(1, 3 * k + 5)
            p = rng.choice([0.0, 0.1, 0.3, 0.5, 0.9, 1.0])
            args = (scheme, k, n_hi, p, rng.getrandbits(32), rng.randrange(10**6))
            expected = rref_first_reach(*args)
            assert _first_reach(*args, range(k + 1)) == expected, args
            ms = rng.sample(range(1, k + 1), rng.randint(1, min(k, 4)))
            if rng.random() < 0.5:
                ms.append(k)
            first = _first_reach(*args, ms)
            assert [first[m] for m in ms] == [expected[m] for m in ms], (args, ms)
            done = unit_phase_count(*args)
            below += any(m <= done for m in ms)
            above += any(m > done for m in ms)
        assert below > 500 and above > 500, (below, above)

    @pytest.mark.parametrize("scheme, k, n_hi, p", [
        # systematic around the phase boundary: unit phase only, exactly
        # the unit phase, and one coded send after it
        *(("systematic", k, n_hi, p) for k in (5, 40) for n_hi in (k - 1, k, k + 1)
          for p in (0.1, 0.3)),
        # a lossless and a dead channel
        *((scheme, 6, 20, p) for scheme in SCHEMES for p in (0.0, 1.0)),
        # one source packet: every coded word is 0 or the unit vector
        *((scheme, 1, 6, p) for scheme in SCHEMES for p in (0.0, 0.5)),
        # ordered-uncoded over several cycles of its k sends
        ("ordered-uncoded", 4, 30, 0.7), ("ordered-uncoded", 7, 50, 0.5),
    ])
    def test_phase_boundaries(self, scheme, k, n_hi, p):
        for trial in range(40):
            args = (scheme, k, n_hi, p, 2015, trial)
            assert _first_reach(*args, range(k + 1)) == rref_first_reach(*args), args

    def test_unit_vectors_after_coded_rows(self):
        """Three coded packets, then e_4 decodes packet 4 on its own at n=4,
        and e_3 at n=6 completes the rank."""
        args = ("straightforward", 5, 12, 0.1, 2015, 5)
        assert received(*args)[:5] == [
            (1, 0b10111), (2, 0b1011), (3, 0b10001), (4, 0b1000), (6, 0b100)
        ]
        assert _first_reach(*args, range(6)) == rref_first_reach(*args) == [0, 4, 6, 6, 6, 6]

    def test_trial_ending_below_full_rank(self):
        """Seven packets arrive at K=8, so the rank stays below 8, yet four
        packets are decoded, at n = 4, 5, 10 and 12."""
        args = ("straightforward", 8, 12, 0.3, 2015, 0)
        assert len(received(*args)) == 7
        expected = [0, 4, 5, 10, 12, 13, 13, 13, 13]
        assert _first_reach(*args, range(9)) == rref_first_reach(*args) == expected

    def test_rank_deficient_trial_at_the_requested_m(self):
        """26 of 30 dense packets arrive at K=40, independent, so 14 columns
        are free and no packet is decoded: the solves of the free columns
        alone place the counts, and M = 20 and M = 40 are both never
        reached."""
        args = ("straightforward", 40, 30, 0.1, 2015, 0)
        assert len(received(*args)) == 26
        first = _first_reach(*args, [20, 40])
        assert [first[20], first[40]] == [31, 31]
        assert rref_first_reach(*args) == [0] + [31] * 40

    def test_systematic_trial_receiving_every_unit_vector(self):
        """No loss: the K systematic packets decode one each, and the trial
        stops at n = K."""
        args = ("systematic", 6, 20, 0.0, 2015, 3)
        assert _first_reach(*args, range(7)) == rref_first_reach(*args) == list(range(7))


class TestRunTrials:
    def test_lossless_systematic_is_certain_at_n_equal_k(self):
        [counts] = run_trials("systematic", 3, [3], (3, 5), 0.0, 1, trials=50)
        assert counts == [50, 50, 50]

    @given(st.sampled_from(SCHEMES), st.integers(1, 8), st.data())
    @settings(max_examples=300, deadline=None)
    def test_estimates_monotone_in_n_m_and_p(self, scheme, k, data):
        """A trial's streams do not depend on p, so a packet erased at p1 is
        erased at every p2 > p1 too. For one seed the counts are therefore
        exactly non-decreasing in N, and non-increasing in M and in p at
        every (M, N)."""
        ms = sorted(data.draw(st.sets(st.integers(1, k), min_size=1)))
        n_lo = data.draw(st.integers(1, 2 * k + 4))
        n_hi = data.draw(st.integers(n_lo, 3 * k + 4))
        ps = sorted({0.0, 1.0, *data.draw(st.lists(st.floats(0, 1), max_size=3))})
        seed, trials = data.draw(st.integers(0, 2**32)), data.draw(st.integers(1, 40))
        runs = [run_trials(scheme, k, ms, (n_lo, n_hi), p, seed, trials) for p in ps]
        for counts in runs:
            assert all(row == sorted(row) for row in counts)  # in N
            for fewer, more in zip(counts, counts[1:]):  # in M
                assert all(a >= b for a, b in zip(fewer, more))
        for lower, higher in zip(runs, runs[1:]):  # in p
            for a_row, b_row in zip(lower, higher):
                assert all(a >= b for a, b in zip(a_row, b_row))

    def test_deterministic_and_worker_invariant(self):
        args = ("systematic", 5, [3, 5], (5, 10), 0.2, 99, 600)
        assert run_trials(*args) == run_trials(*args)
        assert run_trials(*args) == run_trials(*args, workers=2)
        # Fewer trials than workers, and blocks of unequal size.
        for trials in (1, 601):
            args = ("straightforward", 5, [3, 5], (5, 10), 0.2, 99, trials)
            assert run_trials(*args) == run_trials(*args, workers=2)

    @given(st.sampled_from(SCHEMES), st.integers(1, 70), st.sampled_from([1, 2]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_counts_for_an_m_list_match_one_call_per_m(self, scheme, k, workers, data):
        """Each trial's kernel stops once the smallest M of the list is
        placed, so the counts of a list of M, unsorted and with repeats,
        must equal those of one run per M, under any worker count."""
        ms = data.draw(st.lists(st.integers(1, k), min_size=1, max_size=5))
        n_lo = data.draw(st.integers(1, 2 * k + 4))
        n_hi = data.draw(st.integers(n_lo, 2 * k + 8))
        p = data.draw(st.sampled_from([0.0, 0.1, 0.3, 0.7]))
        seed, trials = data.draw(st.integers(0, 2**32)), data.draw(st.integers(1, 12))
        args = (scheme, k, ms, (n_lo, n_hi), p, seed, trials)
        each = [run_trials(scheme, k, [m], *args[3:])[0] for m in ms]
        assert run_trials(*args, workers=workers) == each

    def test_capped_blocks_add_up_to_the_same_counts(self, monkeypatch):
        args = ("straightforward", 5, [3, 5], (5, 10), 0.2, 99, 601)
        whole = run_trials(*args)
        monkeypatch.setattr(simulator, "BLOCK_WORK", 70)  # 7 trials of 10 sends: 86 blocks
        assert run_trials(*args) == run_trials(*args, workers=2) == whole

    def test_systematic_estimate_matches_analysis(self):
        # frozen expectation 0.891 (exact 891/1000); a million-trial run has
        # a standard error of about 0.0003. The counts do not depend on the
        # worker count (test_deterministic_and_worker_invariant).
        [[count]] = run_trials("systematic", 2, [2], (3, 3), 0.1, 424242, trials=10**6,
                               workers=min(2, os.cpu_count() or 1))
        assert count / 10**6 == pytest.approx(full_decode_prob(2, 3, 0.1), abs=0.002)

    def test_ordered_uncoded_estimate_matches_analysis(self):
        [[count]] = run_trials("ordered-uncoded", 2, [2], (4, 4), 0.5, 424242, trials=10**6,
                               workers=min(2, os.cpu_count() or 1))
        assert count / 10**6 == pytest.approx(
            float(ou_partial_decode_prob(2, 2, 4, 0.5)), abs=0.002
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            run_trials("bogus", 2, [1], (1, 2), 0.1, 1, 1)
        with pytest.raises(ValueError):
            run_trials("systematic", 2, [3], (1, 2), 0.1, 1, 1)
        with pytest.raises(ValueError):
            run_trials("systematic", 2, [1], (4, 2), 0.1, 1, 1)
        with pytest.raises(ValueError):
            run_trials("systematic", 2, [1], (1, 2), 0.1, 1, 0)
        with pytest.raises(ValueError):
            run_trials("systematic", 2, [1], (1, 2), 0.1, 1, 1, workers=0)

    def test_curve_validation(self):
        """One count per M and per n of the range, each between 0 and the
        number of trials, so every estimate count / trials lies in [0, 1]."""
        counts = run_trials("straightforward", 3, [1, 3], (2, 9), 0.5, 4, trials=7)
        assert len(counts) == 2
        for row in counts:
            assert len(row) == 8 and all(0 <= c <= 7 for c in row)
        with pytest.raises(ValueError):
            run_trials("straightforward", 3, [1, 3], (2, 9), 0.5, 4, trials=0)


class TestBenchDecode:
    def test_rejects_zero_repetitions(self):
        with pytest.raises(ValueError):
            bench_decoders([1], 0)

    @pytest.mark.parametrize("decoder", simulator.BENCH_DECODERS)
    def test_stream_short_of_full_rank_raises(self, decoder):
        """Four packets that carry only source packets 1 and 2 of K = 3 never
        reach full rank, so the timed decode raises instead of timing it."""
        msg = make_test_message(3, 8)
        stream = [SCHEME_ENCODERS["ordered-uncoded"](msg, n, None) for n in (1, 2, 4, 5)]
        with pytest.raises(RuntimeError, match="never reached full rank"):
            simulator._timed_decode(decoder, 3, stream)

    def test_single_repetition_no_aggregation_failure(self):
        rows = [r for r in bench_decoders([1, 2, 3], 1) if r[0] == "gepd"]
        assert [k for _, k, *_ in rows] == [1, 2, 3]
        for _, _, median_ns, p25_ns, p75_ns, repetitions in rows:
            assert median_ns == p25_ns == p75_ns > 0
            assert repetitions == 1

    def test_medians_grow_with_k_up_to_timer_noise(self):
        # workload grows with k; allow generous slack for scheduler jitter,
        # and ignore the sub-microsecond regime below k=5 entirely
        rows = bench_decoders(list(range(1, 31, 3)) + [30], 50)
        meds = {k: median_ns for d, k, median_ns, *_ in rows if d == "gepd"}
        ks = sorted(meds)
        for prev, cur in zip(ks, ks[1:]):
            slack = 0.5 if cur <= 4 else 0.75
            assert meds[cur] >= slack * meds[prev], (prev, cur, meds)

    def test_decoders_share_each_stream_in_alternating_order(self, monkeypatch):
        calls = []

        def fake(decoder, k, stream):
            calls.append((decoder, k, stream))
            return 1

        monkeypatch.setattr(simulator, "_timed_decode", fake)
        rows = bench_decoders([2, 5], 3, seed=9)
        assert [(r[0], r[1], r[5]) for r in rows] == [
            ("ge", 2, 3), ("ge", 5, 3), ("gepd", 2, 3), ("gepd", 5, 3)
        ]
        warm, timed = calls[:4], calls[4:]
        assert [(d, k) for d, k, _ in warm] == [
            ("ge", 2), ("gepd", 2), ("ge", 5), ("gepd", 5)
        ]
        assert [(d, k) for d, k, _ in timed] == [
            ("ge", 2), ("gepd", 2), ("ge", 5), ("gepd", 5),
            ("gepd", 2), ("ge", 2), ("gepd", 5), ("ge", 5),
            ("ge", 2), ("gepd", 2), ("ge", 5), ("gepd", 5),
        ]
        for first, second in zip(timed[::2], timed[1::2]):
            assert first[2] is second[2]
        words = [[p.coding_vector.word for p in s] for _, _, s in timed[::2]]
        assert words[0] != words[2]  # a fresh stream per repetition
