import collections
import itertools
import math
import random
import sys
import threading
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    at_least_oracle,
    binomial_tail_exact,
    channel_average_loop,
    cond_full_decode_prob_exact,
    cond_full_oracle,
    cond_window_loop,
    full_decode_oracle,
    full_decode_prob_exact,
    full_rank_prob_exact,
    full_rank_prob_oracle,
    min_packets_for_target,
    ou_full_quotient,
    ou_tail_loop,
    rank_product_loop,
    receive_pmf_loop,
    sf_full_decode_loop,
)
from sysnc import analysis, cli
from sysnc.analysis import (
    cond_full_decode_prob,
    cond_full_decode_probs,
    decode_prob_ratio,
    full_decode_prob,
    full_decode_probs,
    full_rank_prob,
    ou_partial_decode_prob,
    ou_partial_decode_probs,
    partial_decode_prob_approx,
    sf_full_decode_prob,
)

# T(q): the least t with 1.0 - q**-t == 1.0, past which every factor of the
# float rank product is exactly 1.0.
T_ONE = {2: 54, 3: 35, 4: 27, 16: 14}


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

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            full_rank_prob(-1, 0)


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
        with pytest.raises(ValueError):
            cond_full_decode_probs(3, 2)  # n < k

    @pytest.mark.parametrize("q", sorted(T_ONE))
    def test_certain_from_excess_t(self, q):
        """From r - k = T(q) on, every W(k - h, r - h) exceeds
        1 - q^-T / (q - 1) >= 1 - 2^-54 in exact arithmetic, and so does their
        hypergeometric average: 1.0 is its correctly rounded value."""
        t = T_ONE[q]
        for k in (1, 2, 7, 60, 500):
            for r in (k + t, k + t + 1, k + t + 9):
                for n in (r, r + 1, r + k, 3 * r):
                    assert cond_full_decode_prob(k, r, n, q) == 1.0, (k, r, n)
                    if k <= 7:
                        assert float(cond_full_decode_prob_exact(k, r, n, q)) == 1.0

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


# The relative bound of a float ordered-uncoded probability against its exact
# value at the same p. The worst measured in ``test_ou_sweep`` is 9.5e-15
# (K = 150, M = 150, N = 451, p = 0.9); written out as 1 - p**c, the survive
# probability cancels there and read 2.1e-14, and near p = 1 it read past
# this bound (``test_near_p_one_within_ou_rel``). The arithmetic alone stays
# below 5e-15 out to K = 10^4. The smallest normal float is added as an absolute slack:
# what underflow loses stays below it.
OU_REL = 1e-12


def assert_within_ou_rel(got: list, exact: list, context) -> None:
    for g, e in zip(got, exact, strict=True):
        assert abs(g - e) <= OU_REL * e + sys.float_info.min, (context, g, float(e))


# The relative bound of a float cond_full_decode_prob against its exact
# value. Each hypergeometric term d steps from the window's anchor carries at
# most 2d + 1 roundings, but the terms that carry many are far smaller than
# the sum. The worst measured over 2,169 random (K <= 200, K <= r <= N,
# q in {2, 3, 4, 16}) points is 7.8e-16, where the earlier sum of every
# term read 1.1e-15, as it did over 15,100 points out to K = 1000.
COND_REL = 4e-15


def assert_within_cond_rel(got: list, exact: list, context) -> None:
    for g, e in zip(got, exact, strict=True):
        assert abs(g - e) <= COND_REL * e, (context, g, float(e))


class TestBitwiseAgainstLoops:
    """The float closed forms equal their plain term-by-term loops exactly,
    with excess r - k on both sides of T(q) - 1. The systematic conditional
    sum and ordered-uncoded have no float loop to match: the first is judged
    against its exact value, and the second equals the exact loop for a
    Fraction p."""

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
        """The conditional row within COND_REL of its exact value; the channel
        averages of that row, and the straightforward one, equal their loops."""
        rng = random.Random(100 + q)
        for _ in range(6):
            k = rng.randint(1, 25)
            n = k + rng.randint(T_ONE[q] - 5, T_ONE[q] + 15)
            row = cond_full_decode_probs(k, n, q)
            exact = [cond_full_decode_prob_exact(k, r, n, q) for r in range(k, n + 1)]
            assert_within_cond_rel(row, exact, (k, n))
            r = rng.randint(k, n)
            assert cond_full_decode_prob(k, r, n, q) == row[r - k]
            ps = (0.1, 0.3)
            assert full_decode_probs(k, n, ps, q) == [
                channel_average_loop(n, k, p, row) for p in ps
            ], (k, n)
            for p in ps:
                assert full_decode_prob(k, n, p, q) == channel_average_loop(n, k, p, row)
                assert sf_full_decode_prob(k, n, p, q) == sf_full_decode_loop(k, n, p, q)
        # Large k: the hypergeometric mode lies far from both ends of the h
        # range, so the recurrences run long on both sides of it, and the
        # past-mode cut fires. A few r of each row, since the exact sum is slow.
        for k, n in ((60, 200), (150, 190), (150, 300), (150, 330), (500, 600)):
            row = cond_full_decode_probs(k, n, q)
            rs = (k, k + 1, min(k + T_ONE[q] - 1, n), (k + n) // 2)
            exact = [cond_full_decode_prob_exact(k, r, n, q) for r in rs]
            assert_within_cond_rel([row[r - k] for r in rs], exact, (k, n))

    @pytest.mark.parametrize("q", sorted(T_ONE))
    def test_cut_changes_no_bit(self, q):
        """The conditional sum equals its window summed without the past-mode
        cut, bit for bit, on random points, whole rows, and near-lossless
        points, where the mode lies in the window and the walk runs both ways
        from it: an anchor elsewhere would round differently there."""
        t = T_ONE[q]
        points = [(k, r, n) for k in range(1, 200, 3) for r in range(k, k + t)
                  for n in range(r, r + 4)]
        rng = random.Random(300 + q)
        for _ in range(1500):
            k = rng.randint(1, 300)
            n = k + rng.randint(0, 2 * k + 60)
            points.append((k, rng.randint(k, min(n, k + t)), n))
        for k, r, n in points:
            assert cond_full_decode_prob(k, r, n, q) == cond_window_loop(k, r, n, q), (k, r, n)
        for k, n in ((1, 80), (40, 120), (150, 300), (1000, 1100)):
            row = cond_full_decode_probs(k, n, q)
            assert row == [cond_window_loop(k, r, n, q) for r in range(k, n + 1)], (k, n)

    def test_receive_weights(self):
        """The channel-weight row equals the per-r weight, on both sides of the
        switch to log space, with r_lo below, at and above n / 2."""
        rng = random.Random(7)
        for n in (1, 2, 63, 64, 65, 66, 100, 129, 1000):
            for r_lo in {0, 1, n // 3, n // 2, n // 2 + 1, n - 1, n}:
                for p in (0.0, 1.0, 0.5, 1e-9, 1 - 1e-9, rng.random()):
                    assert analysis._receive_pmfs(n, r_lo, p) == [
                        receive_pmf_loop(n, r, p) for r in range(r_lo, n + 1)
                    ], (n, r_lo, p)

    def test_log_factorial_table_any_growth_order(self, monkeypatch):
        """The log-space weights read one shared lgamma table: its entries,
        and so every weight, are the same whichever n first grew it, from
        nothing to n = 100,000 (the CLI's N cap) or in small steps."""
        orders = [(1000, 65, 66, 129), (65, 66, 129, 1000), (129, 66, 65, 1000)]
        for order in orders:
            monkeypatch.setattr(analysis, "_LOG_FACTORIALS", [])
            for n in order:
                for r_lo in (0, n // 3, n // 2, n - 1, n):
                    for p in (0.1, 0.5, 0.9):
                        assert analysis._receive_pmfs(n, r_lo, p) == [
                            receive_pmf_loop(n, r, p) for r in range(r_lo, n + 1)
                        ], (order, n, r_lo, p)
        monkeypatch.setattr(analysis, "_LOG_FACTORIALS", [])
        n = 100_000
        for p in (0.1, 0.5):
            mode = math.floor((n + 1) * (1 - p))
            for r_lo in (mode - 3, mode, mode + 2):
                got = analysis._receive_pmfs(n, r_lo, p)
                assert got == [receive_pmf_loop(n, r, p) for r in range(r_lo, n + 1)], (p, r_lo)
        assert len(analysis._LOG_FACTORIALS) == n + 1

    def test_log_factorial_table_grown_from_threads(self, monkeypatch):
        """Threads growing the shared table in interleaved steps, with a short
        switch interval, leave every entry at its own index. Without the lock
        on growth, about half of these rounds append an entry twice."""
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                monkeypatch.setattr(analysis, "_LOG_FACTORIALS", [])
                threads = [
                    threading.Thread(target=lambda s: [analysis._log_factorials(n)
                                                       for n in range(s, 20_000, 4)], args=(s,))
                    for s in range(4)
                ]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=60)
                assert not any(th.is_alive() for th in threads)
                table = analysis._LOG_FACTORIALS
                assert table == [math.lgamma(i + 1) for i in range(len(table))]
        finally:
            sys.setswitchinterval(previous)

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 40, 150])
    def test_ou_sweep(self, k):
        """Ordered-uncoded across the wraps at N = K, 2K and 3K: for a
        Fraction p the exact Poisson-binomial loop's values, and for a float
        p within OU_REL of the exact value at the same p. K >= 40 reads a
        few N, and the exact loop at one of them."""
        mid = (k + 1) // 2
        msets = [(1,), (k,), (k, mid), (1, k // 3 + 1, k)]
        every = sorted({m for ms in msets for m in ms})
        ns = range(1, 3 * k + 2) if k < 40 else (1, k - 1, k, k + 1, 3 * k + 1)
        if k >= 40:
            exact = ou_partial_decode_probs(k, every, 3 * k + 1, Fraction(1, 10))
            assert exact == ou_tail_loop(k, every, 3 * k + 1, Fraction(1, 10))
        for p in (0.0, 0.1, 0.5, 0.9, 1.0):
            for n in ns:
                exact = ou_partial_decode_probs(k, every, n, Fraction(p))
                if k < 40:
                    loop = ou_tail_loop(k, every, n, Fraction(p))
                    assert exact == loop, (n, p)
                    assert list(map(type, exact)) == list(map(type, loop)), (n, p)
                got = ou_partial_decode_probs(k, every, n, p)
                assert all(type(x) is float for x in got)
                assert_within_ou_rel(got, exact, (n, p))
                for ms in msets:
                    assert ou_partial_decode_probs(k, ms, n, p) == [
                        got[every.index(m)] for m in ms
                    ]
                assert ou_partial_decode_prob(k, mid, n, p) == got[every.index(mid)]

    @pytest.mark.parametrize("k", [2, 3, 9, 33])
    def test_ou_sweep_before_every_packet_is_sent(self, k):
        """At N < K the packets not yet sent are never recovered: for a
        Fraction p the exact loop's values and types, for a float p floats
        within OU_REL of them."""
        msets = [(1,), (k,), (k - 1, k), (k // 2 + 1,), (1, k // 3 + 1, k)]
        every = sorted({m for ms in msets for m in ms})
        for p in (Fraction(0), Fraction(3, 8), Fraction(1)):
            for n in range(1, k):
                loop = dict(zip(every, ou_tail_loop(k, every, n, p)))
                for ms in msets:
                    exact = ou_partial_decode_probs(k, ms, n, p)
                    expect = [loop[m] for m in ms]
                    assert exact == expect, (ms, n, p)
                    assert list(map(type, exact)) == list(map(type, expect)), (ms, n, p)
                    got = ou_partial_decode_probs(k, ms, n, float(p))
                    assert all(type(x) is float for x in got)
                    assert_within_ou_rel(got, exact, (ms, n, p))

    def test_ou_sweep_steps_only_sent_packets(self):
        """N < K costs O(K) work: at K = 10^4 each N runs fewer than 10 lines
        of ``analysis`` per packet, where a DP step over the whole distribution
        for each unsent packet would run O(K^2) lines."""
        k = 10**4
        budget = 3 * 10 * k

        def count_lines(frame, event, arg):
            nonlocal budget
            budget -= event == "line"
            if budget < 0:
                raise AssertionError("N < K costs more than O(K) lines")
            return count_lines

        def trace_analysis(frame, event, arg):
            return count_lines if frame.f_code.co_filename == analysis.__file__ else None

        previous = sys.gettrace()
        sys.settrace(trace_analysis)
        try:
            got = [ou_partial_decode_prob(k, 1, n, 0.5) for n in (1, k // 2, k - 1)]
        finally:
            sys.settrace(previous)
        assert got == [0.5, 1.0, 1.0]

    def test_systematic_sweep_work_count(self, monkeypatch):
        """The systematic sweep starts its anchor binomials from ``math.comb``
        once per N and steps them along r, and its channel weights read one
        lgamma table: at most 3 ``comb`` per N and n_max + 1 ``lgamma`` in the
        whole command. Fresh binomials per receive count, or an lgamma row
        per (N, p), exceed these counts."""
        calls = collections.Counter()

        def counted(name):
            real = getattr(math, name)

            def call(*args):
                calls[name] += 1
                return real(*args)

            return call

        n_min, n_max = 150, 300
        argv = ["analyze", "--scheme", "systematic", "--k", "150", "--m", "150",
                "--n-min", str(n_min), "--n-max", str(n_max), "--p", "0.1,0.3"]
        cfg = cli.config_from_args(cli.build_parser().parse_args(argv))
        monkeypatch.setattr(analysis, "_LOG_FACTORIALS", [])
        for name in ("comb", "lgamma"):
            monkeypatch.setattr(math, name, counted(name))
        text = cli.run(cfg)
        monkeypatch.undo()
        assert len(text.splitlines()) == 1 + 2 * (n_max - n_min + 1)
        assert calls["comb"] <= 3 * (n_max - n_min + 1), calls
        assert calls["lgamma"] <= n_max + 1, calls

    def test_ou_full_recovery_builds_no_pmf(self, monkeypatch):
        """M = K is the closed product: a call asking only for it builds no
        binomial pmf, and a call asking for any M < K builds the two pmfs
        once for all its M. The M = K entry is the same value whichever
        other M are asked, so ``--m K`` and ``--m M,K`` print the same row."""
        sizes = []
        real = analysis._binomial_pmf

        def counted(a, s):
            sizes.append(a)
            return real(a, s)

        monkeypatch.setattr(analysis, "_binomial_pmf", counted)
        for k, ns in ((1, (1, 2, 5)), (2, (1, 2, 3)), (7, (3, 7, 20)),
                      (150, (149, 150, 301)), (1000, (999, 2500, 8000))):
            # Fraction pmfs of a thousand entries take seconds; small K has them.
            ps = (0.0, 1e-9, 0.1, 0.5, 0.9, 1.0) + ((Fraction(3, 10),) if k < 150 else ())
            for n in ns:
                for p in ps:
                    sizes.clear()
                    [full] = ou_partial_decode_probs(k, (k,), n, p)
                    assert ou_partial_decode_probs(k, (k, k), n, p) == [full, full]
                    assert sizes == [], (k, n, p)
                    for ms in ((1,), (k, k // 2), (1, k, k - 1, k)) if k > 1 else ():
                        sizes.clear()
                        got = ou_partial_decode_probs(k, ms, n, p)
                        assert len(sizes) == 2, (k, ms, n, p)
                        assert [g for g, m in zip(got, ms) if m == k] == [full] * ms.count(k)


class TestCondWindow:
    """The conditional sum as W_inf = W(k, r) plus the corrections
    H(h) (W(k - h, r - h) - W_inf) over the window h > k - min(k, T - 1 - e),
    anchored at the mode clamped into the window (``analysis._cond_full``),
    judged against its exact value in each regime of that window."""

    @staticmethod
    def window(k, r, n, q):
        """(first h of the window in the support, hypergeometric mode)."""
        e = r - k
        return max(k + 1 - min(k, T_ONE[q] - 1 - e), r - n + k), (k + 1) * (r + 1) // (n + 2)

    def test_rank_rows_never_rise(self):
        """The premise that every correction lies in [0, 1]."""
        for q in T_ONE:
            for row in analysis._rank_rows(q):
                assert row[0] == 1.0
                assert all(a >= b for a, b in itertools.pairwise(row)), q

    @pytest.mark.parametrize("q", sorted(T_ONE))
    def test_mode_inside_the_window(self, q):
        t = T_ONE[q]
        # r = n and r = n - 1 put the mode at k, the window's top; a few more
        # coded sends put it strictly inside, with terms on both sides.
        cases = [(k, k + e, k + e + d) for k in (5, 60, 150) for e in (0, 1, t // 2, t - 2)
                 for d in (0, 1)]
        inside = []
        for k, e, d in itertools.product((60, 150), (0, 1, 4), range(2, 60)):
            lo, mode = self.window(k, k + e, k + e + d, q)
            if lo < mode < k:
                inside.append((k, k + e, k + e + d))
        assert len(inside) >= 4
        for k, r, n in cases + inside[:: len(inside) // 4]:
            exact = cond_full_decode_prob_exact(k, r, n, q)
            assert_within_cond_rel([cond_full_decode_prob(k, r, n, q)], [exact], (k, r, n))

    @pytest.mark.parametrize("q", sorted(T_ONE))
    def test_window_covers_the_support(self, q):
        t = T_ONE[q]
        for e in (0, 3, t // 2):
            for k in (1, 2, t - 1 - e):
                r = k + e
                for n in (r, r + 1, r + 5, 3 * r):
                    assert self.window(k, r, n, q)[0] == max(1, r - n + k)
                    exact = cond_full_decode_prob_exact(k, r, n, q)
                    assert_within_cond_rel(
                        [cond_full_decode_prob(k, r, n, q)], [exact], (k, r, n))

    @pytest.mark.parametrize("q", sorted(T_ONE))
    def test_last_row_below_certainty(self, q):
        """e = T - 1, the last row of the table: every float W is 1.0 there."""
        e = T_ONE[q] - 1
        for k in (1, 3, 30):
            for n in (k + e, k + e + 1, 2 * k + e + 20):
                exact = cond_full_decode_prob_exact(k, k + e, n, q)
                assert_within_cond_rel([cond_full_decode_prob(k, k + e, n, q)], [exact], (k, n))

    def test_large_k_where_the_last_term_underflows(self):
        k, n = 2000, 2600
        for r in (k, k + 1):
            assert math.comb(n - k, r - k) / math.comb(n, r) == 0.0  # H(k)
            exact = cond_full_decode_prob_exact(k, r, n, 2)
            assert_within_cond_rel([cond_full_decode_prob(k, r, n, 2)], [exact], (k, r, n))


class TestCarriedAnchors:
    """``cond_full_decode_probs`` takes the anchor's binomials C(k, h0),
    C(m, r - h0) and C(n, r) from r - 1 by one exact step each; whole rows
    equal ``cond_window_loop``, which takes fresh ``math.comb`` at every r."""

    @staticmethod
    def anchor_sides(k, n, q):
        """For each r of the row below e = T - 1: +1 where the window clamp
        lo sets h0 (lo > mode), -1 where the mode does, 0 where they meet."""
        t = T_ONE[q]
        sides = []
        for r in range(k, min(n, k + t - 2) + 1):
            lo, mode = TestCondWindow.window(k, r, n, q)
            sides.append((lo > mode) - (lo < mode))
        return sides

    def assert_row(self, k, n, q, rng):
        row = cond_full_decode_probs(k, n, q)
        assert row == [cond_window_loop(k, r, n, q) for r in range(k, n + 1)], (k, n, q)
        for r in rng.sample(range(k, n + 1), min(3, n - k + 1)):
            assert cond_full_decode_prob(k, r, n, q) == row[r - k], (k, r, n, q)

    @pytest.mark.parametrize("q", sorted(T_ONE))
    def test_rows_where_h0_switches_between_clamp_and_mode(self, q):
        t = T_ONE[q]
        switching = [(k, n) for k in (1, 2, 3, 5, 10, 40, 150)
                     for n in range(k, k + 4 * t, 3)
                     if {1, -1} <= set(self.anchor_sides(k, n, q))]
        assert len(switching) >= 6, switching
        rng = random.Random(600 + q)
        for k, n in switching[:: len(switching) // 6]:
            self.assert_row(k, n, q, rng)

    @pytest.mark.parametrize("q", sorted(T_ONE))
    def test_rows_where_few_coded_packets_bound_the_window(self, q):
        """N = K (one r), and m = N - K < T(q), where the support's lower
        end r - m, not the rank table, sets the window's first h."""
        t = T_ONE[q]
        rng = random.Random(700 + q)
        for k in (1, 5, 40, 150):
            for m in (0, 1, 2, t // 2, t - 3, t - 2):
                n = k + m
                if 0 < m < t - 2 and k > 1:
                    assert any(r - m > max(1, r - t + 2) for r in range(k, n + 1))
                self.assert_row(k, n, q, rng)

    @pytest.mark.parametrize("q", sorted(T_ONE))
    def test_rows_where_the_last_term_underflows(self, q):
        """K = 1000 and 2000: H(K) = C(m, e) / C(n, r) is 0.0 in floats, so
        the anchor's integers run to thousands of bits along the row."""
        rng = random.Random(800 + q)
        for k, n in ((1000, 1500), (2000, 2600)):
            assert math.comb(n - k, 0) / math.comb(n, k) == 0.0
            self.assert_row(k, n, q, rng)


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

    def test_is_ordered_uncoded_at_min_k_n(self):
        """The systematic sender sends the K source packets first, so the
        approximation is ordered-uncoded's recovered count after min(K, N)
        sends, bit for bit."""
        rng = random.Random(20150501)
        for _ in range(400):
            k = rng.randint(1, 300)
            m, n, p = rng.randint(1, k), rng.randint(1, 2 * k + 3), rng.random()
            assert partial_decode_prob_approx(k, m, n, p) == ou_partial_decode_prob(
                k, m, min(k, n), p
            ), (k, m, n, p)

    def test_within_ou_rel_of_the_exact_tail(self):
        """Within OU_REL of the exact P[Bin(min(K, N), 1 - p) >= M] at the
        same p, out to K = 1000 and from p = 1e-9 to 0.99999, with N below,
        at and past K. At (1000, 899, 946, 0.5) the channel-weight fold it
        replaced read 1.46e-12 off, in log space past n = 64."""
        for k, ns in ((2, (1, 2, 3)), (40, (21, 39, 40, 80)), (65, (64, 65, 130)),
                      (150, (100, 149, 150, 200)), (1000, (946, 1000, 1500))):
            for n in ns:
                top = min(k - 1, n)
                ms = sorted({1, top // 2 + 1, (9 * top) // 10, top} - {0})
                if (k, n) == (1000, 946):
                    ms.append(899)
                for p in (1e-9, 1e-5, 0.05, 0.3, 0.5, 0.9, 0.99999):
                    exact = binomial_tail_exact(min(k, n), ms, p)
                    got = [partial_decode_prob_approx(k, m, n, p) for m in ms]
                    assert_within_ou_rel(got, exact, (k, n, p))

    def test_fraction_p_gives_the_exact_tail(self):
        for k, n in ((1, 1), (5, 3), (5, 5), (5, 9), (20, 13), (20, 60)):
            for p in (Fraction(0), Fraction(1, 10), Fraction(2, 3), Fraction(1)):
                for m in range(1, k + 1):
                    [exact] = binomial_tail_exact(min(k, n), (m,), p)
                    assert partial_decode_prob_approx(k, m, n, p) == exact, (k, m, n, p)


class TestSfFullDecodeProb:
    def test_frozen_examples(self):
        assert sf_full_decode_prob(1, 1, 0.0, 2) == 0.5
        assert sf_full_decode_prob(2, 2, 0.0, 2) == pytest.approx(0.375, abs=1e-15)
        assert sf_full_decode_prob(3, 7, 1.0, 2) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            sf_full_decode_prob(3, 2, 0.1)  # n < k

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
        for args in ((3, (1,), 0, 0.1), (3, (0,), 1, 0.1), (3, (4,), 1, 0.1), (3, (1,), 1, 1.5)):
            with pytest.raises(ValueError):
                ou_partial_decode_probs(*args)
        with pytest.raises(ValueError):
            ou_partial_decode_prob(3, 1, 0, 0.1)

    def test_past_float_comb_overflow(self):
        """K = 1100 at p = 1/2, where the exact values are integer sums over
        powers of 2. At N = 1100 each packet went out once, so P is
        sum_{y >= m} C(1100, y) / 2^1100, and C(1100, 550) > 10^329 is past
        the float range. At N = 1650, X ~ Bin(550, 3/4) and Y ~ Bin(550, 1/2),
        so P is sum_x C(550, x) 3^x sum_{y >= m - x} C(550, y) / 2^1650."""

        def at_least(a: int) -> list[int]:  # sum_{y >= j} C(a, y), j = 0..a
            return list(itertools.accumulate(math.comb(a, y) for y in range(a, -1, -1)))[::-1]

        ms = (1, 550, 600, 700, 800, 900, 1000, 1100)
        once, twice = at_least(1100), at_least(550)
        exact = [Fraction(once[m], 2**1100) for m in ms]
        assert_within_ou_rel(ou_partial_decode_probs(1100, ms, 1100, 0.5), exact, 1100)
        exact = [
            Fraction(sum(math.comb(550, x) * 3**x * twice[max(m - x, 0)]
                         for x in range(max(0, m - 550), 551)), 2**1650)
            for m in ms
        ]
        assert_within_ou_rel(ou_partial_decode_probs(1100, ms, 1650, 0.5), exact, 1650)

    @pytest.mark.parametrize("k", [1000, 10**4])
    def test_full_recovery_within_ou_rel_at_large_k(self, k):
        """M = K within OU_REL of the exact product, correctly rounded, with
        N across the wraps out to the 8K cap and p from 1e-9 to 0.9. Past
        the float range the exact value rounds to 0.0 and so does M = K."""
        ns = (k - 1, k, k + 1, 2 * k - 1, 2 * k + 1, 4 * k + k // 2, 8 * k - 1, 8 * k)
        for p in (1e-9, 1e-5, 0.05, 0.3, 0.5, 0.9):
            got = [ou_partial_decode_prob(k, k, n, p) for n in ns]
            exact = [num / den for num, den in (ou_full_quotient(k, n, p) for n in ns)]
            assert_within_ou_rel(got, exact, (k, p))

    def test_near_p_one_within_ou_rel(self):
        """Near p = 1 with c = N div K >= 2, 1 - p^c written out cancels: at
        K = 60, M = 60, N = 120, p = 0.99999 it read 2.5e-11 off, and at
        K = 10, M = 5, N = 30, p = 0.9999999 4.0e-10. M = K and M < K stay
        within OU_REL of the exact value at the same p, and p = 1 gives +0.0."""
        for k in (1, 2, 5, 10, 60):
            every = sorted({1, (k + 1) // 2, k})
            for n in (2 * k, 2 * k + 1, 3 * k, 5 * k + 1):
                for p in (0.999, 0.9999, 0.99999, 0.9999999):
                    got = ou_partial_decode_probs(k, every, n, p)
                    exact = ou_partial_decode_probs(k, every, n, Fraction(p))
                    assert_within_ou_rel(got, exact, (k, n, p))
                got = ou_partial_decode_probs(k, every, n, 1.0)
                assert [math.copysign(1.0, x) for x in got] == [1.0] * len(every)

    def test_fraction_p_gives_the_exact_product(self):
        for k, n in ((1, 3), (7, 6), (7, 7), (7, 30), (1000, 999), (1000, 1001),
                     (1000, 4500), (1000, 8000)):
            for p in (Fraction(0), Fraction(1, 10), Fraction(3, 10), Fraction(9, 10), Fraction(1)):
                [full] = ou_partial_decode_probs(k, (k,), n, p)
                assert type(full) is Fraction
                assert full == Fraction(*ou_full_quotient(k, n, p)), (k, n, p)

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

    def test_at_least_one_in_floats(self):
        """The systematic probability is W(k, r) plus non-negative float
        corrections, and both read exactly 1.0 from r - k = T(q) on."""
        for q in T_ONE:
            for k in (1, 2, 5, 30):
                for r in range(k, k + 60):
                    for n in range(r, r + 50, 3):
                        assert decode_prob_ratio(k, r, n, q) >= 1.0, (k, r, n, q)

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


# How far the float systematic full-recovery probability may break its
# orderings. Over 12,800 random (K <= 100, K <= N <= 3K, 0.01 <= p <= 0.9)
# points it fell from N to N + 1 in 542 (worst 2.6e-13), rose from p to
# p + dp (0.001 <= dp <= 0.02) in 307 (worst 5.6e-14), and straightforward
# exceeded it in 501 (worst 4.4e-16, 2 ulp of 1.0); the exact-quotient sum it
# replaced read 541, 306 and 447 there, with the same worst cases.
FULL_MONOTONE_ABS = 1e-12
SF_ABOVE_FULL_ABS = 2e-15


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
            values.append(partial_decode_prob_approx(k, k - 1, n, p))
        for v in values:
            assert 0.0 <= v <= 1.0

    @given(st.integers(1, 60), st.floats(0.0, 0.98), st.floats(0.001, 0.02), st.data())
    @settings(max_examples=200, deadline=None)
    def test_ou_monotone_in_n_and_p_within_8_ulp(self, k, p, dp, data):
        """The exact value is non-decreasing in N and non-increasing in p; the
        float one may break that by rounding, and the worst measured over
        120,000 random configs was 6 ulp."""
        m = data.draw(st.integers(1, k))
        n = data.draw(st.integers(1, 4 * k))
        base = ou_partial_decode_prob(k, m, n, p)
        more_n = ou_partial_decode_prob(k, m, n + 1, p)
        more_p = ou_partial_decode_prob(k, m, n, p + dp)
        assert more_n >= base - 8 * math.ulp(base)
        assert more_p <= base + 8 * math.ulp(max(base, more_p))

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

    @given(st.integers(1, 100), st.floats(0.01, 0.9), st.floats(0.001, 0.02), st.data())
    @settings(max_examples=100, deadline=None)
    def test_full_prob_orderings_where_weights_are_logs(self, k, p, dp, data):
        """Systematic full recovery is non-decreasing in N, non-increasing in
        p and never below straightforward's, within FULL_MONOTONE_ABS and
        SF_ABOVE_FULL_ABS, for K <= 100 and K <= N <= 3K: mostly past n = 64,
        where the log-space channel weights break each ordering by rounding."""
        n = data.draw(st.integers(k, 3 * k))
        base, more_p = full_decode_probs(k, n, (p, min(p + dp, 0.9)))
        assert full_decode_prob(k, n + 1, p) >= base - FULL_MONOTONE_ABS
        assert more_p <= base + FULL_MONOTONE_ABS
        assert sf_full_decode_prob(k, n, p) <= base + SF_ABOVE_FULL_ABS

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
