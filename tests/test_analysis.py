import math
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    approx_tail_loop,
    at_least_oracle,
    cond_full_decode_prob_exact,
    cond_full_oracle,
    cond_sum_loop,
    full_decode_loop,
    full_decode_oracle,
    full_decode_prob_exact,
    full_rank_prob_exact,
    full_rank_prob_oracle,
    min_packets_for_target,
    ou_tail_loop,
    rank_product_loop,
    sf_full_decode_loop,
)
from sysnc import analysis
from sysnc.analysis import (
    cond_full_decode_prob,
    cond_full_decode_probs,
    decode_prob_ratio,
    full_decode_prob,
    full_decode_probs,
    full_rank_prob,
    ou_partial_decode_prob,
    ou_partial_decode_sweep,
    partial_decode_prob_approx,
    sf_full_decode_prob,
)


class TestFullRankProb:
    def test_empty_product(self):
        assert full_rank_prob(0, 5, 2) == 1.0
        assert full_rank_prob(0, 0, 3) == 1.0

    def test_single_unknown(self):
        assert full_rank_prob(1, 1, 2) == 0.5

    def test_frozen_enumerations(self):
        # 6 invertible matrices among the 16 binary 2x2; 42 rank-2 among the
        # 64 binary 3x2 stacks (verified by the enumeration oracle below).
        assert full_rank_prob(2, 2, 2) == pytest.approx(0.375, abs=1e-15)
        assert full_rank_prob(2, 3, 2) == pytest.approx(0.65625, abs=1e-15)

    def test_short_reception_is_zero(self):
        assert full_rank_prob(3, 2, 2) == 0.0

    @pytest.mark.parametrize("k,r", [(1, 1), (2, 2), (2, 3), (3, 3), (3, 5), (4, 4)])
    def test_against_enumeration(self, k, r):
        oracle = full_rank_prob_oracle(k, r)
        assert full_rank_prob(k, r, 2) == pytest.approx(float(oracle), abs=1e-12)
        assert full_rank_prob_exact(k, r, 2) == oracle

    def test_rejects_tiny_field(self):
        with pytest.raises(ValueError):
            full_rank_prob(2, 2, 1)


class TestCondFullDecodeProb:
    def test_all_systematic_reception_is_certain(self):
        for k in (1, 2, 5, 17):
            for q in (2, 3):
                assert cond_full_decode_prob(k, k, k, q) == 1.0

    def test_frozen_examples(self):
        assert cond_full_decode_prob(1, 1, 2, 2) == pytest.approx(0.75, abs=1e-15)
        assert cond_full_decode_prob(2, 2, 3, 2) == pytest.approx(2 / 3, abs=1e-15)
        assert cond_full_decode_prob_exact(2, 2, 3, 2) == Fraction(2, 3)

    def test_domain(self):
        with pytest.raises(ValueError):
            cond_full_decode_prob(3, 2, 5)  # r < k
        with pytest.raises(ValueError):
            cond_full_decode_prob(3, 6, 5)  # r > n

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_against_enumeration(self, k):
        for n in range(k, 7):
            for r in range(k, n + 1):
                oracle = cond_full_oracle(k, r, n)
                assert cond_full_decode_prob(k, r, n, 2) == pytest.approx(
                    float(oracle), abs=1e-12
                )
                assert cond_full_decode_prob_exact(k, r, n, 2) == oracle


class TestFullDecodeProb:
    def test_lossless_minimal_transmission(self):
        for k in (1, 3, 8):
            assert full_decode_prob(k, k, 0.0, 2) == 1.0

    def test_single_packet(self):
        for p in (0.0, 0.25, 0.9):
            assert full_decode_prob(1, 1, p, 2) == pytest.approx(1 - p, abs=1e-15)

    def test_frozen_example(self):
        assert full_decode_prob(2, 3, 0.1, 2) == pytest.approx(0.891, abs=1e-12)
        assert full_decode_prob_exact(2, 3, Fraction(1, 10), 2) == Fraction(891, 1000)

    def test_total_loss(self):
        assert full_decode_prob(2, 5, 1.0, 2) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            full_decode_prob(3, 2, 0.1)

    @pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)])
    def test_against_enumeration(self, p):
        for k in (1, 2, 3):
            for n in range(k, 6):
                oracle = full_decode_oracle(k, n, p)
                assert full_decode_prob(k, n, float(p), 2) == pytest.approx(
                    float(oracle), abs=1e-12
                )
                assert full_decode_prob_exact(k, n, p, 2) == oracle

    def test_large_parameters_stay_in_range(self):
        # log-space weight path
        assert 0.0 <= full_decode_prob(100, 400, 0.3) <= 1.0
        assert full_decode_prob(100, 400, 0.3) > 0.999


# T(q): the least t with 1.0 - q**-t == 1.0, past which every factor of the
# float rank product is exactly 1.0.
T_ONE = {2: 54, 3: 35, 4: 27, 16: 14}


class TestBitwiseAgainstLoops:
    """The float closed forms equal their plain term-by-term loops exactly,
    with excess r - k on both sides of T(q) - 1."""

    @pytest.mark.parametrize("q", sorted(T_ONE))
    def test_threshold(self, q):
        t = T_ONE[q]
        assert 1.0 - float(q) ** -(t - 1) != 1.0
        assert 1.0 - float(q) ** -t == 1.0

    @pytest.mark.parametrize("q", sorted(T_ONE))
    def test_full_rank_prob(self, q):
        rng = random.Random(q)
        t = T_ONE[q]
        cases = [(k, k + e) for k in (1, 2, t - 1, t, 3 * t) for e in range(t + 3)]
        cases += [(rng.randint(0, 200), rng.randint(0, 260)) for _ in range(3000)]
        for k, r in cases:
            assert full_rank_prob(k, r, q) == rank_product_loop(k, r, q), (k, r)

    @pytest.mark.parametrize("q", sorted(T_ONE))
    def test_cond_and_full_decode(self, q):
        rng = random.Random(100 + q)
        pmf = analysis._receive_pmf
        for _ in range(6):
            k = rng.randint(1, 25)
            n = k + rng.randint(T_ONE[q] - 5, T_ONE[q] + 15)
            row = cond_full_decode_probs(k, n, q)
            assert row == [cond_sum_loop(k, r, n, q) for r in range(k, n + 1)], (k, n)
            r = rng.randint(k, n)
            assert cond_full_decode_prob(k, r, n, q) == row[r - k]
            ps = (0.1, 0.3)
            assert full_decode_probs(k, n, ps, q) == [
                full_decode_loop(k, n, p, q, pmf) for p in ps
            ], (k, n)
            for p in ps:
                assert full_decode_prob(k, n, p, q) == full_decode_loop(k, n, p, q, pmf)
                assert sf_full_decode_prob(k, n, p, q) == sf_full_decode_loop(k, n, p, q, pmf)
        # Large k: the hypergeometric terms pass their mode long before
        # h = k - 1, so the past-mode cut in the conditional sum fires. With
        # n > 2k the first terms of some rows are also far below the running
        # sum, which a cut that did not wait for the mode would skip.
        for k, n in ((60, 200), (150, 190), (150, 300), (150, 330)):
            row = cond_full_decode_probs(k, n, q)
            assert row == [cond_sum_loop(k, r, n, q) for r in range(k, n + 1)], (k, n)

    def test_partial_approx(self):
        """A left fold on every Python; the builtin ``sum`` of floats is
        compensated from Python 3.12 on and would differ there."""
        pmf = analysis._receive_pmf
        for k in (5, 20, 40, 150):
            for n in range(2, 2 * k + 2, 3):
                for p in (0.1, 0.3, 0.5):
                    for m in {1, min(k - 1, n) // 2 + 1, min(k - 1, n)}:
                        assert partial_decode_prob_approx(k, m, n, p) == approx_tail_loop(
                            k, m, n, p, pmf
                        ), (k, m, n, p)

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 40, 150])
    def test_ou_sweep(self, k):
        """The carried, band-limited ordered-uncoded sweep and its one-N
        forms equal one whole Poisson-binomial program per N, across the
        wraps at N = K, 2K and 3K."""
        n_hi = 3 * k + 1
        mid = (k + 1) // 2
        msets = [(1,), (k,), (k, mid), (1, k // 3 + 1, k)]
        every = sorted({m for ms in msets for m in ms})
        one_n = range(1, n_hi + 1, 1 if k < 40 else 13)
        for p in (0.0, 0.1, 0.5, 1.0):
            loop = {
                n: dict(zip(every, ou_tail_loop(k, every, n, p)))
                for n in range(1, n_hi + 1)
            }
            for ms in msets:
                expect = [[loop[n][m] for m in ms] for n in range(1, n_hi + 1)]
                assert list(ou_partial_decode_sweep(k, ms, 1, n_hi, p)) == expect, (ms, p)
                # a sweep that starts inside the first round and crosses N = K
                n_lo, n_to = mid + 1, mid + k + 2
                assert list(ou_partial_decode_sweep(k, ms, n_lo, n_to, p)) == expect[n_lo - 1:n_to]
                for n in one_n:
                    assert list(ou_partial_decode_sweep(k, ms, n, n, p)) == [expect[n - 1]], (
                        ms, n, p
                    )
            for n in one_n:
                for m in every:
                    assert ou_partial_decode_prob(k, m, n, p) == loop[n][m], (m, n, p)

    @pytest.mark.parametrize("k", [2, 3, 9, 33])
    def test_ou_sweep_before_every_packet_is_sent(self, k):
        """At N < K the packets not yet sent shift the distribution once, for
        float and Fraction p, with bands that drop counts before, among and
        after them (min M above N + 1 drops the shifted-in zeros too): the
        values and the types of one whole program per N."""
        msets = [(1,), (k,), (k - 1, k), (k // 2 + 1,), (1, k // 3 + 1, k)]
        for p in (0.0, 0.3, 1.0, Fraction(0), Fraction(1, 3), Fraction(1)):
            for ms in msets:
                expect = [ou_tail_loop(k, list(ms), n, p) for n in range(1, k)]
                for got in (
                    list(ou_partial_decode_sweep(k, ms, 1, k - 1, p)),
                    [next(ou_partial_decode_sweep(k, ms, n, n, p)) for n in range(1, k)],
                ):
                    assert got == expect, (ms, p)
                    assert [list(map(type, r)) for r in got] == [
                        list(map(type, r)) for r in expect
                    ], (ms, p)

    def test_ou_sweep_steps_only_sent_packets(self, monkeypatch):
        """One DP step for the one packet sent, none for the K - 1 unsent."""
        steps = []
        step = analysis._pb_step
        monkeypatch.setattr(analysis, "_pb_step", lambda *args: steps.append(1) or step(*args))
        assert ou_partial_decode_prob(10**4, 1, 1, 0.5) == 0.5
        assert len(steps) == 1


class TestExactPaths:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_prefix_product_matches_definition(self, q):
        for k in range(0, 7):
            for r in range(k, k + 6):
                direct = Fraction(1)
                for j in range(k):
                    direct *= 1 - Fraction(1, q ** (r - j))
                assert full_rank_prob_exact(k, r, q) == direct

    @pytest.mark.parametrize("n", [65, 100, 200])
    def test_log_space_weights_within_1e12(self, n):
        """Above n = 64 the channel weights are taken in log space."""
        for k in (5, 20, 40):
            for p in (0.1, 0.3):
                exact = full_decode_prob_exact(k, n, Fraction(p))
                assert abs(full_decode_prob(k, n, p) - exact) < 1e-12, (k, p)
                sf_exact = sum(
                    math.comb(n, r) * (1 - Fraction(p)) ** r * Fraction(p) ** (n - r)
                    * full_rank_prob_exact(k, r)
                    for r in range(k, n + 1)
                )
                assert abs(sf_full_decode_prob(k, n, p) - sf_exact) < 1e-12, (k, p)


class TestPartialDecodeProbApprox:
    def test_lossless(self):
        assert partial_decode_prob_approx(5, 3, 10, 0.0) == 1.0

    def test_frozen_example(self):
        assert partial_decode_prob_approx(4, 2, 4, 0.5) == pytest.approx(0.6875, abs=1e-15)

    def test_short_transmission_counts_only_sent_packets(self):
        for p in (0.1, 0.4):
            assert partial_decode_prob_approx(4, 2, 2, p) == pytest.approx(
                (1 - p) ** 2, abs=1e-15
            )

    def test_threshold_equal_k_uses_exact_expression(self):
        assert partial_decode_prob_approx(3, 3, 5, 0.2) == pytest.approx(
            full_decode_prob(3, 5, 0.2), abs=1e-15
        )

    def test_unreachable_threshold_is_zero(self):
        # m > min(k, n): the tail over the systematic arrivals is empty
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert partial_decode_prob_approx(4, 3, 2, 0.1) == 0.0
            assert partial_decode_prob_approx(4, 4, 2, 0.1) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            partial_decode_prob_approx(4, 5, 6, 0.1)
        with pytest.raises(ValueError):
            partial_decode_prob_approx(4, 0, 6, 0.1)


class TestSfFullDecodeProb:
    def test_frozen_examples(self):
        assert sf_full_decode_prob(1, 1, 0.0, 2) == 0.5
        assert sf_full_decode_prob(2, 2, 0.0, 2) == pytest.approx(0.375, abs=1e-15)
        assert sf_full_decode_prob(3, 7, 1.0, 2) == 0.0

    def test_lossless_equals_rank_probability(self):
        for k, n in ((2, 4), (3, 5)):
            assert sf_full_decode_prob(k, n, 0.0, 2) == pytest.approx(
                full_rank_prob(k, n, 2), abs=1e-15
            )

    def test_never_beats_systematic(self):
        for k in (1, 2, 4, 7):
            for n in range(k, k + 8):
                for p in (0.0, 0.1, 0.3, 0.6):
                    assert sf_full_decode_prob(k, n, p) <= full_decode_prob(k, n, p) + 1e-12


class TestOuPartialDecodeProb:
    def test_single_round(self):
        for p in (0.0, 0.3, 0.8):
            assert ou_partial_decode_prob(2, 2, 2, p) == pytest.approx(
                (1 - p) ** 2, abs=1e-15
            )

    def test_frozen_examples(self):
        assert ou_partial_decode_prob(2, 1, 2, 0.5) == pytest.approx(0.75, abs=1e-15)
        assert ou_partial_decode_prob(2, 2, 4, 0.5) == pytest.approx(0.5625, abs=1e-15)

    def test_exact_arithmetic_passes_through(self):
        assert ou_partial_decode_prob(2, 2, 4, Fraction(1, 2)) == Fraction(9, 16)

    def test_untransmitted_packets_cannot_be_recovered(self):
        # full recovery impossible while some packet was never sent
        assert ou_partial_decode_prob(3, 3, 2, 0.0) == 0

    def test_domain(self):
        for args in ((3, (1,), 5, 4), (3, (1,), 0, 4), (3, (0,), 1, 4), (3, (4,), 1, 4)):
            with pytest.raises(ValueError):
                ou_partial_decode_sweep(*args, 0.1)
        with pytest.raises(ValueError):
            ou_partial_decode_sweep(3, (1,), 1, 4, 1.5)
        with pytest.raises(ValueError):
            ou_partial_decode_prob(3, 1, 0, 0.1)

    @given(
        st.integers(1, 5),
        st.integers(1, 12),
        st.fractions(0, 1, max_denominator=8),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_against_subset_enumeration(self, k, n, p, data):
        m = data.draw(st.integers(1, k))
        copies = [(n - i) // k + 1 if i <= n else 0 for i in range(1, k + 1)]
        survive = [1 - p**c if c else Fraction(0) for c in copies]
        assert ou_partial_decode_prob(k, m, n, p) == at_least_oracle(survive, m)


class TestDecodeProbRatio:
    def test_frozen_examples(self):
        assert decode_prob_ratio(2, 2, 3, 2) == pytest.approx(16 / 9, abs=1e-12)
        assert decode_prob_ratio(1, 1, 1, 2) == pytest.approx(2.0, abs=1e-15)

    def test_always_exceeds_one(self):
        for k in (1, 3, 6):
            for r in range(k, k + 5):
                for n in range(r, k + 8):
                    assert decode_prob_ratio(k, r, n, 2) > 1.0

    def test_approaches_one_for_long_coded_tails(self):
        # numerical sweep: with k=5 and r=k+5 the advantage shrinks below 5%
        # once at least 30 coded packets were sent
        for n in range(35, 60, 5):
            assert 1.0 < decode_prob_ratio(5, 10, n, 2) < 1.05

    def test_domain(self):
        with pytest.raises(ValueError):
            decode_prob_ratio(3, 2, 4)  # r < k
        with pytest.raises(ValueError):
            decode_prob_ratio(2, 4, 3)  # r > n


class TestBinomials:
    @pytest.mark.parametrize("k,n", [(3, 10), (5, 8), (4, 4), (6, 9)])
    def test_hypergeometric_sum_collapses(self, k, n):
        # the support-weighted binomial products over the systematic count
        # add up to the plain binomial, on both sides of n = 2k
        for r in range(k, n + 1):
            h_min = max(0, r - n + k)
            total = sum(
                math.comb(k, h) * math.comb(n - k, r - h)
                for h in range(h_min, min(k, r) + 1)
            )
            assert total == math.comb(n, r)


class TestMinPacketsForTarget:
    def test_constant_function_hits_first_candidate(self):
        assert min_packets_for_target(lambda n: 1.0, 0.7, 3, 10) == 3

    def test_ordered_uncoded_examples(self):
        # P[>= 10 of 20 | n, p=0.1] crosses 0.7 at n=12: at n=11 the exact
        # tail is 2*0.9^10 = 0.6973568802 which is still below target.
        assert ou_partial_decode_prob(20, 10, 11, Fraction(1, 10)) == Fraction(
            3486784401, 5000000000
        )
        fn10 = lambda n: float(ou_partial_decode_prob(20, 10, n, 0.1))
        assert fn10(11) == pytest.approx(0.6973568802, abs=1e-9)
        assert min_packets_for_target(fn10, 0.7, 1, 160) == 12
        assert min_packets_for_target(fn10, 0.69, 1, 160) == 11
        fn20 = lambda n: float(ou_partial_decode_prob(20, 20, n, 0.1))
        assert min_packets_for_target(fn20, 0.7, 20, 160) == 39

    def test_unreachable_plateau(self):
        fn = lambda n: partial_decode_prob_approx(5, 4, n, 0.5)
        assert min_packets_for_target(fn, 0.99, 4, 200) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            min_packets_for_target(lambda n: 1.0, 0.0, 1, 5)
        with pytest.raises(ValueError):
            min_packets_for_target(lambda n: 1.0, 0.5, 5, 4)


class TestRangeAndMonotonicity:
    @given(
        st.integers(1, 10),
        st.integers(0, 12),
        st.floats(0, 1),
        st.sampled_from([2, 3, 4]),
    )
    @settings(max_examples=200, deadline=None)
    def test_probabilities_stay_in_unit_interval(self, k, extra, p, q):
        n = k + extra
        values = [
            full_decode_prob(k, n, p, q),
            sf_full_decode_prob(k, n, p, q),
            float(ou_partial_decode_prob(k, max(1, k // 2), n, p)),
            full_rank_prob(k, n, q),
        ]
        if k > 1:
            values.append(partial_decode_prob_approx(k, k - 1, n, p, q))
        for v in values:
            assert 0.0 <= v <= 1.0

    @given(st.integers(1, 8), st.integers(0, 8), st.floats(0.01, 0.99))
    @settings(max_examples=150, deadline=None)
    def test_full_prob_monotone_in_n(self, k, extra, p):
        n = k + extra
        assert full_decode_prob(k, n + 1, p) >= full_decode_prob(k, n, p) - 1e-12

    @given(st.integers(1, 8), st.integers(0, 8),
           st.floats(0.0, 0.98), st.floats(0.001, 0.02))
    @settings(max_examples=150, deadline=None)
    def test_full_prob_monotone_in_p(self, k, extra, p, dp):
        n = k + extra
        assert full_decode_prob(k, n, p + dp) <= full_decode_prob(k, n, p) + 1e-12

    @given(st.integers(1, 8), st.integers(0, 8),
           st.floats(0.01, 0.99), st.sampled_from([2, 3, 4]))
    @settings(max_examples=150, deadline=None)
    def test_full_prob_monotone_in_q(self, k, extra, p, q):
        n = k + extra
        assert full_decode_prob(k, n, p, q + 1) >= full_decode_prob(k, n, p, q) - 1e-12

    @given(st.integers(2, 9), st.integers(1, 15), st.floats(0.01, 0.99), st.data())
    @settings(max_examples=150, deadline=None)
    def test_partial_approx_monotone(self, k, n, p, data):
        m = data.draw(st.integers(1, min(k - 1, n) if min(k - 1, n) >= 1 else 1))
        if m + 1 <= k - 1:
            assert partial_decode_prob_approx(k, m + 1, n, p) <= (
                partial_decode_prob_approx(k, m, n, p) + 1e-12
            )
        assert partial_decode_prob_approx(k, m, n + 1, p) >= (
            partial_decode_prob_approx(k, m, n, p) - 1e-12
        )
