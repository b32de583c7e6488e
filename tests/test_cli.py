import argparse
import contextlib
import functools
import io
import math
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import min_packets_for_target
from sysnc import analysis, cli, simulator
from sysnc.codec import SCHEMES
from sysnc.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    MODES,
    build_parser,
    main,
)
from sysnc.simulator import run_trials

_CPUS = os.cpu_count() or 1


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_full_recovery_row(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--scheme", "systematic", "--k", "2", "--m", "2",
             "--n", "3", "--p", "0.1"],
            capsys,
        )
        assert code == EXIT_OK
        header, row = out.strip().splitlines()
        assert header == "scheme,K,M,N,p,q,prob,kind"
        fields = row.split(",")
        assert fields[:6] == ["systematic", "2", "2", "3", "0.1", "2"]
        assert float(fields[6]) == pytest.approx(0.891, abs=1e-9)
        assert fields[7] == "exact"

    def test_partial_recovery_row_is_approx(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--scheme", "systematic", "--k", "4", "--m", "2",
             "--n", "4", "--p", "0.5"],
            capsys,
        )
        assert code == EXIT_OK
        fields = out.strip().splitlines()[1].split(",")
        assert float(fields[6]) == pytest.approx(0.6875, abs=1e-12)
        assert fields[7] == "approx"

    def test_m_exceeding_k_rejected(self, capsys):
        code, _, err = run_cli(
            ["analyze", "--scheme", "systematic", "--k", "2", "--m", "3",
             "--n", "3", "--p", "0.1"],
            capsys,
        )
        assert code == EXIT_CONFIG
        assert "M exceeds K" in err

    def test_straightforward_partial_has_no_closed_form(self, capsys):
        code, _, err = run_cli(
            ["analyze", "--scheme", "straightforward", "--k", "4", "--m", "2",
             "--n", "6", "--p", "0.1"],
            capsys,
        )
        assert code == EXIT_CONFIG
        assert "simulate" in err

    def test_range_clamped_per_family(self, capsys):
        # M=2 rows start at N=2, M=4 rows only from N=4
        code, out, _ = run_cli(
            ["analyze", "--scheme", "systematic", "--k", "4", "--m", "2,4",
             "--n-min", "2", "--n-max", "5", "--p", "0.1"],
            capsys,
        )
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [(r[2], r[3]) for r in rows] == [
            ("2", "2"), ("2", "3"), ("2", "4"), ("2", "5"), ("4", "4"), ("4", "5")
        ]

    @pytest.mark.parametrize("k", [8000, 10**4])
    def test_ordered_uncoded_underflow_prints_zero(self, k, capsys):
        """M = N = K at p = 0.1: every packet must survive its one send, so
        the value is 0.9^K < 1e-366, which rounds to 0.0. A DP whose top entry
        stuck at the smallest subnormal printed 2.47032822921e-323."""
        code, out, err = run_cli(
            ["analyze", "--scheme", "ordered-uncoded", "--k", str(k), "--m", str(k),
             "--n", str(k), "--p", "0.1"],
            capsys,
        )
        assert code == EXIT_OK, err
        assert out.strip().splitlines()[1].split(",")[6] == "0"

    @pytest.mark.parametrize("n", [1100, 1650])
    def test_ordered_uncoded_past_float_comb_overflow(self, n, capsys):
        """K = 1100, where C(1100, 550) > 10^329 is past the float range:
        exit 0, and each row prints the value that ``test_analysis`` checks
        against the exact one."""
        ms = (1, 550, 1100)
        code, out, err = run_cli(
            ["analyze", "--scheme", "ordered-uncoded", "--k", "1100",
             "--m", ",".join(map(str, ms)), "--n", str(n), "--p", "0.5"],
            capsys,
        )
        assert code == EXIT_OK, err
        probs = [row.split(",")[6] for row in out.strip().splitlines()[1:]]
        assert probs == [
            f"{x:.12g}" for x in analysis.ou_partial_decode_probs(1100, ms, n, 0.5)
        ]

    def test_rows_sorted_lexicographically(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--scheme", "ordered-uncoded", "--k", "3", "--m", "3,1",
             "--n-min", "1", "--n-max", "3", "--p", "0.3,0.1"],
            capsys,
        )
        assert code == EXIT_OK
        keys = [tuple(line.split(",")[:6]) for line in out.strip().splitlines()[1:]]
        parsed = [(s, int(k), int(m), int(n), float(p), int(q))
                  for s, k, m, n, p, q in keys]
        assert parsed == sorted(parsed)


class TestSimulate:
    ARGS = ["simulate", "--scheme", "systematic", "--k", "3", "--m", "2,3",
            "--n-min", "3", "--n-max", "6", "--p", "0.1,0.4",
            "--trials", "400", "--seed", "11"]

    def test_deterministic_bytes(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.ARGS + ["--out", str(out1)]) == EXIT_OK
        assert main(self.ARGS + ["--out", str(out2), "--workers", "2"]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_required(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--scheme", "systematic", "--k", "3", "--m", "2",
             "--n", "3", "--p", "0.1", "--trials", "10"],
            capsys,
        )
        assert code == EXIT_CONFIG
        assert "--seed" in err

    def test_lossless_estimate_is_exactly_one(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--scheme", "systematic", "--k", "3", "--m", "3",
             "--n", "3", "--p", "0", "--trials", "50", "--seed", "1"],
            capsys,
        )
        assert code == EXIT_OK
        fields = out.strip().splitlines()[1].split(",")
        assert fields == ["systematic", "3", "3", "3", "0", "50", "1", "1", "0"]

    def test_join_compatible_keys_with_analyze(self, capsys):
        code, sim_out, _ = run_cli(
            ["simulate", "--scheme", "systematic", "--k", "3", "--m", "3",
             "--n-min", "3", "--n-max", "4", "--p", "0.25",
             "--trials", "20", "--seed", "3"],
            capsys,
        )
        assert code == EXIT_OK
        code, ana_out, _ = run_cli(
            ["analyze", "--scheme", "systematic", "--k", "3", "--m", "3",
             "--n-min", "3", "--n-max", "4", "--p", "0.25"],
            capsys,
        )
        assert code == EXIT_OK
        sim_keys = {tuple(line.split(",")[:5]) for line in sim_out.strip().splitlines()[1:]}
        ana_keys = {tuple(line.split(",")[:5]) for line in ana_out.strip().splitlines()[1:]}
        assert sim_keys == ana_keys


class TestMetrics:
    def test_ordered_uncoded_exact_values(self, capsys):
        code, out, _ = run_cli(
            ["metrics", "--scheme", "ordered-uncoded", "--k", "20", "--m", "10,20",
             "--p", "0.1", "--p-hat", "0.7"],
            capsys,
        )
        assert code == EXIT_OK
        rows = {r.split(",")[2]: r.split(",") for r in out.strip().splitlines()[1:]}
        # exact Poisson-binomial tails: P(11) = 0.6973568802 just misses 0.7
        assert rows["10"][5:] == ["12", "39", "27"]
        assert rows["20"][5:] == ["39", "39", "0"]

    def test_systematic_full_recovery_target(self, capsys):
        code, out, _ = run_cli(
            ["metrics", "--scheme", "systematic", "--k", "20", "--m", "20",
             "--p", "0.1", "--p-hat", "0.7"],
            capsys,
        )
        assert code == EXIT_OK
        fields = out.strip().splitlines()[1].split(",")
        assert fields[5:] == ["25", "25", "0"]

    @pytest.mark.parametrize("scheme,m", [("systematic", "2,4"), ("straightforward", "4")])
    def test_closed_forms_keep_q(self, scheme, m, capsys):
        # only the simulated straightforward M < K column is GF(2)-only
        code, out, _ = run_cli(
            ["metrics", "--scheme", scheme, "--k", "4", "--m", m, "--p", "0.1",
             "--p-hat", "0.7", "--q", "4", "--workers", "2"],
            capsys,
        )
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 1 + len(m.split(","))

    def test_unreachable_cells(self, capsys):
        # the systematic-only approximation plateaus below the target, and
        # full recovery, which would bound it, needs N = 30, past the cap
        code, out, _ = run_cli(
            ["metrics", "--scheme", "systematic", "--k", "6", "--m", "5",
             "--p", "0.5", "--p-hat", "0.99", "--n-max", "20"],
            capsys,
        )
        assert code == EXIT_OK
        fields = out.strip().splitlines()[1].split(",")
        assert fields[5:] == ["unreachable"] * 3

    def test_p_hat_required(self, capsys):
        code, _, err = run_cli(
            ["metrics", "--scheme", "ordered-uncoded", "--k", "4", "--m", "2",
             "--p", "0.1"],
            capsys,
        )
        assert code == EXIT_CONFIG
        assert "--p-hat" in err

    def test_sf_partial_needs_trials_and_seed(self, capsys):
        code, _, err = run_cli(
            ["metrics", "--scheme", "straightforward", "--k", "6", "--m", "3",
             "--p", "0.1", "--p-hat", "0.7"],
            capsys,
        )
        assert code == EXIT_CONFIG

    def test_sf_partial_via_simulation(self, capsys):
        code, out, _ = run_cli(
            ["metrics", "--scheme", "straightforward", "--k", "4", "--m", "2,4",
             "--p", "0.1", "--p-hat", "0.7", "--trials", "3000", "--seed", "5",
             "--n-max", "20"],
            capsys,
        )
        assert code == EXIT_OK
        rows = {r.split(",")[2]: r.split(",") for r in out.strip().splitlines()[1:]}
        assert int(rows["2"][5]) <= int(rows["2"][6])
        assert rows["4"][5] == rows["4"][6]  # partial==full when M=K

    def test_sf_partial_never_past_full(self, capsys):
        # one simulated trial misses M=1 until n=8, while the closed form
        # reaches full recovery at n=6
        code, out, err = run_cli(
            ["metrics", "--scheme", "straightforward", "--k", "2", "--m", "1,2",
             "--p", "0.5", "--p-hat", "0.5", "--trials", "1", "--seed", "0"],
            capsys,
        )
        assert code == EXIT_OK, err
        rows = {r.split(",")[2]: r.split(",") for r in out.strip().splitlines()[1:]}
        assert rows["1"][5:] == [rows["2"][6], rows["2"][6], "0"]

    def test_sf_partial_simulates_once_per_p(self, monkeypatch, capsys):
        calls = []

        def counting_run_trials(scheme, k, m_list, *args, **kwargs):
            calls.append(list(m_list))
            return run_trials(scheme, k, m_list, *args, **kwargs)

        monkeypatch.setattr(cli, "run_trials", counting_run_trials)
        code, out, err = run_cli(
            ["metrics", "--scheme", "straightforward", "--k", "6", "--m", "4,2,6,4",
             "--p", "0.1,0.3", "--p-hat", "0.7", "--trials", "200", "--seed", "5"],
            capsys,
        )
        assert code == EXIT_OK, err
        assert calls == [[2, 4], [2, 4]]
        assert len(out.strip().splitlines()) == 1 + 2 * 4

    @pytest.mark.parametrize("mode,range_flags", [
        ("metrics", ["--p-hat", "0.7"]), ("simulate", ["--n-min", "3", "--n-max", "12"]),
    ])
    def test_a_repeated_p_is_simulated_once(self, mode, range_flags, monkeypatch, capsys):
        simulated = []

        def recording_run_trials(scheme, k, m_list, n_range, p, *args, **kwargs):
            simulated.append(p)
            return run_trials(scheme, k, m_list, n_range, p, *args, **kwargs)

        monkeypatch.setattr(cli, "run_trials", recording_run_trials)
        code, out, err = run_cli(
            [mode, "--scheme", "straightforward", "--k", "6", "--m", "3,6",
             "--p", "0.1,0.3,0.1", "--trials", "200", "--seed", "5", *range_flags],
            capsys,
        )
        assert code == EXIT_OK, err
        assert simulated == [0.1, 0.3]
        rows = [row.split(",") for row in out.strip().splitlines()[1:]]
        repeated = [row for row in rows if row[4 if mode == "simulate" else 3] == "0.1"]
        assert repeated[::2] == repeated[1::2]

    def test_systematic_full_search_builds_each_row_once(self, monkeypatch, capsys):
        argv = ["metrics", "--scheme", "systematic", "--k", "100", "--m", "100",
                "--p-hat", "0.99", "--p"]
        ps = ["0.1", "0.15", "0.3"]
        alone = []
        for p in ps:
            code, out, err = run_cli(argv + [p], capsys)
            assert code == EXIT_OK, err
            alone.append(out.strip().splitlines()[1])
        rows_built = []

        def counting_rows(k, n, *args):
            rows_built.append(n)
            return cond_full_decode_probs(k, n, *args)

        cond_full_decode_probs = analysis.cond_full_decode_probs
        monkeypatch.setattr(analysis, "cond_full_decode_probs", counting_rows)
        code, out, err = run_cli(argv + [",".join(ps)], capsys)
        assert code == EXIT_OK, err
        assert out.strip().splitlines()[1:] == alone
        n_full = max(int(row.split(",")[6]) for row in alone)
        assert rows_built == list(range(100, n_full + 1))

    def test_ordered_uncoded_scan_stops_at_the_last_target(self, monkeypatch, capsys):
        """The default cap is 8K = 160, but each (M, p) column is read once
        per N from N = M up to its own N_hat only, also with a p repeated."""
        reads: dict[tuple, list[int]] = {}

        def recording_probs(k, ms, n, p):
            for m in ms:
                reads.setdefault((m, p), []).append(n)
            return probs(k, ms, n, p)

        probs = analysis.ou_partial_decode_probs
        monkeypatch.setattr(analysis, "ou_partial_decode_probs", recording_probs)
        code, out, err = run_cli(
            ["metrics", "--scheme", "ordered-uncoded", "--k", "20", "--m", "10,20",
             "--p", "0.1,0.3,0.1", "--p-hat", "0.7"],
            capsys,
        )
        assert code == EXIT_OK, err
        n_hat = {(int(r[2]), float(r[3])): int(r[5])
                 for r in (row.split(",") for row in out.strip().splitlines()[1:])}
        assert max(n_hat.values()) < 160
        assert reads == {(m, p): list(range(m, n + 1)) for (m, p), n in n_hat.items()}

    @pytest.mark.parametrize("scheme", ["systematic", "ordered-uncoded"])
    def test_each_column_computed_up_to_its_target(self, scheme, monkeypatch, capsys):
        """The two K=40 metrics commands of the analysis-sweep benchmark:
        each (M, p) column is computed once per N from N = M, and only up to
        its own N_hat, which is at most its p's N_hat_full. The systematic
        M < K approximation reads N only through min(K, N), so it is
        computed up to min(K, N_hat). Each scheme's own functions are spied
        on: the approximation calls ``ou_partial_decode_probs`` itself."""
        computed: dict[tuple[int, float], list[int]] = {}

        def spy(function, columns_and_n):
            def recording(*args):
                columns, n = columns_and_n(*args)
                for column in columns:
                    computed.setdefault(column, []).append(n)
                return function(*args)
            return recording

        spied = {
            "systematic": {
                "full_decode_probs": lambda k, n, ps, q: ([(k, p) for p in ps], n),
                "partial_decode_prob_approx": lambda k, m, n, p: ([(m, p)], n),
            },
            "ordered-uncoded": {
                "ou_partial_decode_probs": lambda k, ms, n, p: ([(m, p) for m in ms], n),
            },
        }[scheme]
        for name, columns_and_n in spied.items():
            monkeypatch.setattr(analysis, name, spy(getattr(analysis, name), columns_and_n))
        code, out, err = run_cli(
            ["metrics", "--scheme", scheme, "--k", "40", "--m", "20,40",
             "--p", "0.1,0.15,0.3", "--p-hat", "0.99"],
            capsys,
        )
        assert code == EXIT_OK, err
        n_hat = {(int(r[2]), float(r[3])): int(r[5])
                 for r in (row.split(",") for row in out.strip().splitlines()[1:])}
        assert computed.keys() == n_hat.keys()
        for (m, p), ns in computed.items():
            last = n_hat[m, p] if scheme == "ordered-uncoded" or m == 40 else min(40, n_hat[m, p])
            assert ns == list(range(m, last + 1)), (m, p)
            assert n_hat[m, p] <= n_hat[40, p]


def metrics_oracle(scheme, k, ms, ps, q, p_hat, n_max, trials, seed):
    """The metrics CSV from ``min_packets_for_target`` per (M, p) over the
    per-N closed forms, each search starting at N = M; the straightforward
    M < K column reads the same ``run_trials`` counts as the CLI."""
    n_cap = n_max if n_max is not None else cli.SEARCH_CAP_FACTOR * k
    full_at = {
        "systematic": lambda n, p: analysis.full_decode_prob(k, n, p, q),
        "straightforward": lambda n, p: analysis.sf_full_decode_prob(k, n, p, q),
        "ordered-uncoded": lambda n, p: float(analysis.ou_partial_decode_prob(k, k, n, p)),
    }[scheme]
    partial = sorted({m for m in ms if m < k})
    rows = []
    for p in ps:
        n_full = min_packets_for_target(lambda n: full_at(n, p), p_hat, k, n_cap)
        if scheme == "straightforward" and partial:
            counts = run_trials(scheme, k, partial, (partial[0], n_cap), p, seed, trials)
            simulated = dict(zip(partial, counts))
        for m in ms:
            if m == k:
                n_part = n_full
            else:
                if scheme == "systematic":
                    prob = lambda n: analysis.partial_decode_prob_approx(k, m, n, p)
                elif scheme == "ordered-uncoded":
                    prob = lambda n: float(analysis.ou_partial_decode_prob(k, m, n, p))
                else:
                    prob = lambda n: simulated[m][n - partial[0]] / trials
                n_part = min_packets_for_target(prob, p_hat, m, n_cap)
            if n_full is not None:  # full recovery recovers any M
                n_part = n_full if n_part is None else min(n_part, n_full)
            delta = None if n_part is None or n_full is None else n_full - n_part
            cells = ",".join(
                "unreachable" if v is None else str(v) for v in (n_part, n_full, delta)
            )
            rows.append((m, p, f"{scheme},{k},{m},{p:g},{p_hat:g},{cells}"))
    lines = ["scheme,K,M,p,P_hat,N_hat_partial,N_hat_full,delta_N"]
    lines += [line for _, _, line in sorted(rows, key=lambda r: r[:2])]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(6))
def test_closed_form_rows_skip_removed_columns(seed, monkeypatch):
    """At random configs and N, a random subset of the columns gets exactly
    the rows that the whole set gives for those columns, and a column left
    out of the subset costs no call of the closed forms."""
    asked = []

    def spy(name, columns_of):
        function = getattr(analysis, name)

        def recording(*args):
            asked.extend(columns_of(*args))
            return function(*args)

        monkeypatch.setattr(analysis, name, recording)

    # The systematic approximation calls ou_partial_decode_probs itself.
    spy("full_decode_probs", lambda k, n, ps, q: [(k, p) for p in ps])
    spy("sf_full_decode_prob", lambda k, n, p, q: [(k, p)])
    spy("ou_partial_decode_probs", lambda k, ms, n, p: [(m, p) for m in ms])
    approx = analysis.partial_decode_prob_approx
    rng = random.Random(seed)
    for _ in range(20):
        scheme = rng.choice(("systematic", "straightforward", "ordered-uncoded"))
        k = rng.randint(1, 8)
        ms = rng.sample(range(1, k + 1), rng.randint(1, k))
        ps = rng.sample((0.0, 0.05, 0.1, 0.3, 0.5, 1.0), rng.randint(1, 3))
        cfg = argparse.Namespace(mode="analyze", scheme=scheme, k=k, q=rng.choice((2, 3)))
        n = rng.randint(1, 3 * k)
        columns = [(m, p) for m in ms for p in ps]
        subset = [column for column in columns if rng.random() < 0.5]
        whole = cli._closed_form_rows(cfg, columns, n, approx)
        asked.clear()
        rows = cli._closed_form_rows(cfg, subset, n, approx)
        context = (scheme, k, n, cfg.q, subset)
        assert sorted(rows) == sorted(row for row in whole if row[:2] in subset), context
        assert set(asked) <= set(subset), context


@pytest.mark.parametrize("seed", range(4))
def test_closed_form_rows_non_increasing_in_m(seed):
    """At random (scheme, K <= 60, N <= 3K, p), with p = 0, 1 and 0.99999
    among them, P at one N does not rise from M to M + 1, bitwise: over every
    M for ordered-uncoded, and over the approximation's M < K for systematic.
    The systematic pair (M = K - 1, M = K) is left out: the approximation
    ignores the coded packets and falls below the exact full-recovery row, by
    up to 0.6."""
    rng = random.Random(seed)
    for _ in range(40):
        scheme = rng.choice(("systematic", "ordered-uncoded"))
        k = rng.randint(1, 60)
        n = rng.randint(1, 3 * k)
        p = rng.choice((0.0, 1.0, 0.99999, 0.05, 0.5, rng.random()))
        cfg = argparse.Namespace(mode="analyze", scheme=scheme, k=k, q=2)
        ms = range(1, k + 1 if scheme == "ordered-uncoded" else k)
        rows = cli._closed_form_rows(cfg, [(m, p) for m in ms], n,
                                     analysis.partial_decode_prob_approx)
        probs = dict((m, prob) for m, _, prob in rows)
        # A systematic column starts at N = M, so its rows are M <= N.
        assert sorted(probs) == [m for m in ms if m <= n or scheme == "ordered-uncoded"]
        for m in sorted(probs)[1:]:
            assert probs[m - 1] >= probs[m], (scheme, k, n, p, m, probs[m - 1], probs[m])


@pytest.mark.parametrize("seed", range(8))
def test_closed_form_rows_monotone_in_n_and_p(seed):
    """At random (scheme, K <= 60, N <= 3K, q, two p), with p = 0, 1 and
    0.99999 among them, P of every column does not fall from N to N + 1, and
    does not rise from the smaller p to the larger, up to rounding:
    - ordered-uncoded and the systematic approximation within 8 ulp; over
      300 seeds the worst drops were 5 ulp in N and 4 in p for
      ordered-uncoded, and 4 in N and 3 in p for the approximation;
    - systematic and straightforward full recovery within 1e-12 relative;
      over 300 seeds the worst drops were 1.32e-13 in N and 1.8e-14 in p."""
    rng = random.Random(seed)
    approx = functools.cache(analysis.partial_decode_prob_approx)

    def at_least(before, after, m, context):
        ulps = scheme == "ordered-uncoded" or (scheme == "systematic" and m < k)
        slack = 8 * math.ulp(before) if ulps else 1e-12 * before
        assert after >= before - slack, (*context, m, before, after)

    for _ in range(40):
        scheme = rng.choice(SCHEMES)
        k = rng.randint(1, 60)
        n = rng.randint(1, 3 * k)
        p_lo, p_hi = sorted(rng.choice((0.0, 1.0, 0.99999, 0.05, 0.5, rng.random()))
                            for _ in range(2))
        q = 2 if scheme == "ordered-uncoded" else rng.choice((2, 3))
        cfg = argparse.Namespace(mode="analyze", scheme=scheme, k=k, q=q)
        ms = [k] if scheme == "straightforward" else range(1, k + 1)
        columns = [(m, p) for m in ms for p in (p_lo, p_hi)]
        now, later = ({(m, p): prob for m, p, prob in
                       cli._closed_form_rows(cfg, columns, at_n, approx)}
                      for at_n in (n, n + 1))
        for (m, p), prob in now.items():
            at_least(prob, later[m, p], m, (scheme, k, n, q, p))
        for at_n, rows in ((n, now), (n + 1, later)):
            for m in ms:
                if (m, p_lo) in rows:
                    at_least(rows[m, p_hi], rows[m, p_lo], m, (scheme, k, at_n, q, p_lo, p_hi))


@pytest.mark.parametrize("seed", range(8))
def test_metrics_scan_matches_per_target_search(seed, capsys):
    """Random small configs of every scheme, with repeated M and p, p in
    {0, 1}, P_hat = 1 and caps below and above the targets: the metrics scan
    prints what the per-(M, p) search of the same probabilities gives, and
    no row needs more packets for partial recovery than for full."""
    rng = random.Random(seed)
    for _ in range(12):
        scheme = rng.choice(("systematic", "straightforward", "ordered-uncoded"))
        k = rng.randint(1, 8)
        ms = [rng.randint(1, k) for _ in range(rng.randint(1, 3))]
        ms += [k] * rng.randint(0, 1) + ms[:rng.randint(0, 1)]  # M = K, a repeated M
        ps = [rng.choice((0.0, 1.0, 0.05, 0.1, 0.3, 0.5, round(rng.random(), 3)))
              for _ in range(rng.randint(1, 3))]
        ps += ps[:rng.randint(0, 1)]  # a repeated p
        simulated = scheme == "straightforward" and min(ms) < k
        # The simulator and ordered-uncoded take q = 2 only.
        q = 2 if simulated or scheme == "ordered-uncoded" else rng.choice((2, 3))
        p_hat = rng.choice((0.5, 0.7, 0.9, 0.99, 1.0))
        n_max = rng.choice((None, rng.randint(k, 3 * k), rng.randint(3 * k, 8 * k)))
        trials, sim_seed = rng.randint(1, 40), rng.randint(0, 9)
        argv = ["metrics", "--scheme", scheme, "--k", str(k),
                "--m", ",".join(map(str, ms)), "--p", ",".join(map(str, ps)),
                "--q", str(q), "--p-hat", str(p_hat)]
        argv += [] if n_max is None else ["--n-max", str(n_max)]
        argv += ["--trials", str(trials), "--seed", str(sim_seed)] if simulated else []
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_OK, (argv, err)
        assert out == metrics_oracle(
            scheme, k, ms, ps, q, p_hat, n_max, trials, sim_seed
        ), argv
        for row in out.splitlines()[1:]:
            n_partial, n_full, delta = row.split(",")[5:]
            if n_full != "unreachable":
                assert int(n_partial) <= int(n_full) and int(delta) >= 0, (argv, row)


class TestBench:
    def test_shape_and_comment_header(self, capsys):
        code, out, _ = run_cli(["bench", "--k", "3", "--trials", "2"], capsys)
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "decoder,K,median_ns,p25_ns,p75_ns,repetitions"
        rows = [line.split(",") for line in lines[2:]]
        assert [(r[0], r[1]) for r in rows] == [
            ("ge", "1"), ("ge", "2"), ("ge", "3"),
            ("gepd", "1"), ("gepd", "2"), ("gepd", "3"),
        ]
        assert all(int(r[5]) == 2 for r in rows)


class TestConfigHandling:
    @pytest.mark.parametrize("argv", [
        ["analyze", "--scheme", "systematic", "--k", "4", "--m", "2,4", "--n", "6",
         "--p", "0.1"],
        ["simulate", "--scheme", "straightforward", "--k", "4", "--m", "4", "--n-min", "4",
         "--n-max", "6", "--p", "0.1", "--trials", "5", "--seed", "1"],
        ["metrics", "--scheme", "ordered-uncoded", "--k", "4", "--m", "2", "--n-max", "9",
         "--p", "0.1", "--p-hat", "0.9"],
        ["bench", "--k", "2", "--trials", "3", "--seed", "0"],
    ], ids=MODES)
    def test_config_is_the_parsed_flags(self, argv):
        """The run config is the parsed Namespace: the subcommand as ``mode``
        and, on every subcommand, every field of ``_FIELDS``, each flag not
        given at its default. ``_validate`` reads fields whose flag the
        subcommand does not take, such as ``q`` on simulate."""
        cfg = cli.config_from_args(build_parser().parse_args(argv))
        assert set(vars(cfg)) == {"mode", *cli._FIELDS}
        assert cfg.mode == argv[0]
        given = {word[2:].replace("-", "_") for word in argv if word.startswith("--")}
        if "n" in given:
            assert cfg.n_min == cfg.n_max == cfg.n
            given |= {"n_min", "n_max"}
        for key, (_, default, _) in cli._FIELDS.items():
            if key not in given:
                assert getattr(cfg, key) == default, key

    @pytest.mark.parametrize("mode,flags", [
        ("analyze", "--scheme --k --m --n --n-min --n-max --p --q --out --workers"),
        ("simulate", "--scheme --k --m --n --n-min --n-max --p --trials --seed --out "
                     "--workers"),
        ("metrics", "--scheme --k --m --n-max --p --q --trials --seed --p-hat --out "
                    "--workers"),
        ("bench", "--k --trials --seed --out"),
    ], ids=MODES)
    def test_each_subcommand_takes_its_fields_as_flags(self, mode, flags):
        """Each subcommand takes these flags and no other: one per field of
        ``_FIELDS`` that names it, ``_`` written ``-``. Any other flag,
        ``--config`` among them, is unrecognized."""
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices[mode]
        taken = [s for a in sub._actions for s in a.option_strings if s.startswith("--")]
        assert sorted(taken) == sorted(flags.split() + ["--help"])
        keys = [f"--{key.replace('_', '-')}"
                for key, (_, _, modes) in cli._FIELDS.items() if mode in modes]
        assert sorted(keys) == sorted(flags.split())

    @pytest.mark.parametrize("mode,flag", [
        (mode, flag) for mode, flags in {
            "analyze": "--scheme --k --m --p", "simulate": "--scheme --k --m --p",
            "metrics": "--scheme --k --m --p --p-hat", "bench": "--k",
        }.items() for flag in flags.split()
    ])
    def test_missing_required_flag_is_named(self, mode, flag, capsys):
        """A valid command without one flag its subcommand requires exits 2
        with nothing on stdout and one line that names that flag."""
        argv = [mode, *_BASES[mode]]
        assert run_cli(argv, capsys)[0] == EXIT_OK
        at = argv.index(flag)
        assert run_cli(argv[:at] + argv[at + 2:], capsys) == (
            EXIT_CONFIG, "", f"config error: the following arguments are required: {flag}\n")

    @pytest.mark.parametrize("mode", MODES)
    def test_config_flag_is_unrecognized(self, mode, tmp_path, capsys):
        """The flags are the one input path: ``--config`` exits 2 with one
        line, also naming a readable JSON file of valid settings."""
        path = tmp_path / "x.json"
        path.write_text('{"k": 2}')
        argv = [mode, *_BASES[mode], "--config", str(path)]
        assert run_cli(argv, capsys) == (
            EXIT_CONFIG, "", f"config error: unrecognized arguments: --config {path}\n")

    @pytest.mark.parametrize("argv", [
        ["analyze", "--scheme", "systematic", "--k", "4", "--m", "2,4", "--n", "5"],
        ["simulate", "--scheme", "straightforward", "--k", "4", "--m", "2,4",
         "--n-min", "3", "--n-max", "6", "--trials", "50", "--seed", "1"],
        ["metrics", "--scheme", "ordered-uncoded", "--k", "4", "--m", "2,4",
         "--p-hat", "0.9"],
    ], ids=lambda argv: argv[0])
    def test_negative_zero_p_reads_as_zero(self, argv, capsys):
        """A p of -0 prints as 0, so its rows join with those of p = 0."""
        outs = {}
        for p in (["--p", "0"], ["--p", "-0"], ["--p=0,0.1"], ["--p=-0.0,0.1"]):
            code, outs[p[-1]], err = run_cli(argv + p, capsys)
            assert code == EXIT_OK, err
        assert outs["-0"] == outs["0"]
        assert outs["--p=-0.0,0.1"] == outs["--p=0,0.1"]
        assert ",-0," not in outs["-0"] + outs["--p=-0.0,0.1"]

    def test_p_prints_every_digit_it_needs(self, capsys):
        """A p or P_hat that ``%g`` would round prints in full, so distinct p
        key distinct rows; one that ``%g`` keeps prints as before."""
        code, out, err = run_cli(
            ["analyze", "--scheme", "ordered-uncoded", "--k", "2", "--m", "2", "--n", "3",
             "--p", "0.1234567,0.1234568,1e-05,0.1"], capsys)
        assert code == EXIT_OK, err
        assert [row.split(",")[4] for row in out.splitlines()[1:]] == [
            "1e-05", "0.1", "0.1234567", "0.1234568"]
        code, out, err = run_cli(
            ["metrics", "--scheme", "ordered-uncoded", "--k", "2", "--m", "2",
             "--p", "0.1", "--p-hat", "0.9999999"], capsys)
        assert code == EXIT_OK, err
        assert out.splitlines()[1].startswith("ordered-uncoded,2,2,0.1,0.9999999,")

    @pytest.mark.parametrize("argv,message", [
        (["analyze", "--scheme", "systematic", "--k", "2", "--m", "2", "--n", "3",
          "--p", "1.0000001"], "erasure probability 1.0000001 outside [0, 1]"),
        (["metrics", "--scheme", "systematic", "--k", "2", "--m", "2", "--p", "0.1",
          "--p-hat", "1.0000001"], "target probability 1.0000001 outside (0, 1]"),
    ])
    def test_out_of_range_p_is_named_in_full(self, argv, message, capsys):
        assert run_cli(argv, capsys) == (EXIT_CONFIG, "", f"config error: {message}\n")

    def test_n_shorthand_conflicts_with_range(self, capsys):
        code, _, err = run_cli(
            ["analyze", "--scheme", "systematic", "--k", "2", "--m", "2",
             "--n", "3", "--n-min", "2", "--p", "0.1"],
            capsys,
        )
        assert code == EXIT_CONFIG
        assert "--n " in err or "--n conflicts" in err

    @pytest.mark.parametrize(
        "bad",
        [
            ["analyze", "--scheme", "systematic", "--k", "0", "--m", "1", "--n", "1", "--p", "0.1"],
            ["analyze", "--scheme", "systematic", "--k", "2", "--m", "2", "--n", "3", "--p", "1.2"],
            ["analyze", "--scheme", "systematic", "--k", "2", "--m", "2", "--n", "3", "--p", "0.1", "--q", "1"],
            ["analyze", "--scheme", "systematic", "--k", "2", "--m", "2", "--p", "0.1"],
            ["simulate", "--scheme", "systematic", "--k", "2", "--m", "2", "--n", "3", "--p", "0.1", "--trials", "0", "--seed", "1"],
            # K beyond gf2.MAX_LENGTH wherever a decoder runs
            ["simulate", "--scheme", "systematic", "--k", "2000", "--m", "1", "--n", "3", "--p", "0.1", "--trials", "1", "--seed", "1"],
            ["bench", "--k", "2000", "--trials", "1"],
            ["metrics", "--scheme", "straightforward", "--k", "2000", "--m", "1", "--p", "0.1", "--p-hat", "0.5", "--trials", "1", "--seed", "1"],
            # values of the wrong type
            ["analyze", "--scheme", "systematic", "--k", "4.0", "--m", "2", "--n", "4", "--p", "0.1"],
            ["analyze", "--scheme", "systematic", "--k", "4", "--m", "2.5", "--n", "4", "--p", "0.1"],
            ["analyze", "--scheme", "systematic", "--k", "true", "--m", "1", "--n", "4", "--p", "0.1"],
            ["analyze", "--scheme", "systematic", "--k", "2", "--m", "2", "--n", "3", "--p", "0.1", "--out", "{tmp}/missing/rows.csv"],
            # the simulator is GF(2) only
            ["simulate", "--scheme", "systematic", "--k", "2", "--m", "2", "--n", "3", "--p", "0.1", "--trials", "1", "--seed", "1", "--q", "4"],
            ["metrics", "--scheme", "straightforward", "--k", "4", "--m", "2", "--p", "0.1", "--p-hat", "0.5", "--trials", "1", "--seed", "1", "--q", "4"],
            # flags the subcommand does not read
            ["metrics", "--scheme", "systematic", "--k", "4", "--m", "2", "--p", "0.1", "--p-hat", "0.7", "--n-min", "50"],
            ["metrics", "--scheme", "systematic", "--k", "4", "--m", "2", "--p", "0.1", "--p-hat", "0.7", "--n", "50"],
            ["bench", "--k", "2", "--trials", "1", "--q", "7", "--scheme", "systematic"],
            ["bench", "--k", "2", "--trials", "1", "--workers", "2"],
            ["analyze", "--scheme", "systematic", "--k", "2", "--m", "2", "--n", "3", "--p", "0.1", "--trials", "5", "--seed", "1"],
            ["analyze", "--scheme", "systematic", "--k", "2", "--m", "2", "--n", "3", "--p", "0.1", "--p-hat", "0.5"],
            ["simulate", "--scheme", "systematic", "--k", "2", "--m", "2", "--n", "3", "--p", "0.1", "--trials", "1", "--seed", "1", "--p-hat", "0.5"],
            # a malformed value is one line too, not a usage message
            ["analyze", "--scheme", "systematic", "--k", "two", "--m", "2", "--n", "3", "--p", "0.1"],
            # more flags the subcommand does not read, a range given in part,
            # and a list where one value goes
            ["analyze", "--scheme", "systematic", "--k", "2", "--m", "2", "--n", "3", "--p", "0.1", "--seed", "3"],
            ["simulate", "--scheme", "systematic", "--k", "2", "--m", "2", "--n-max", "3", "--p", "0.1", "--trials", "1", "--seed", "1"],
            ["metrics", "--scheme", "systematic", "--k", "4", "--m", "2", "--p", "0.1", "--p-hat", "0.5,0.7"],
            ["bench", "--k", "2", "--trials", "1", "--m", "2"],
            # an --out that passes validation but cannot be written
            pytest.param(
                ["analyze", "--scheme", "systematic", "--k", "2", "--m", "2", "--n", "3", "--p", "0.1", "--out", "/dev/full"],
                marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full"),
            ),
            # an empty list item, and a p that is not a number
            ["analyze", "--scheme", "systematic", "--k", "2", "--m", "2", "--n", "3", "--p", "0.1,,0.2"],
            ["analyze", "--scheme", "systematic", "--k", "2", "--m", "2", "--n", "3", "--p", "nan"],
            # a q too large for a float
            ["analyze", "--scheme", "systematic", "--k", "2", "--m", "2", "--n", "3", "--p", "0.1", "--q", "1" + "0" * 400],
            ["metrics", "--scheme", "systematic", "--k", "2", "--m", "2", "--p", "0.1", "--p-hat", "0.5", "--q", "1" + "0" * 400],
            # probabilities too large for a float
            ["metrics", "--scheme", "systematic", "--k", "2", "--m", "2", "--p", "0.1", "--p-hat", "1" + "0" * 400],
            ["analyze", "--scheme", "systematic", "--k", "2", "--m", "2", "--n", "3", "--p", "1" + "0" * 400],
            # an empty --out names no file
            ["analyze", "--scheme", "systematic", "--k", "2", "--m", "2", "--n", "3", "--p", "0.1", "--out", ""],
            ["analyze", "--scheme", "systematic", "--k", "2", "--m", "2", "--n", "3", "--p", "0.1", "--out="],
            # more workers than CPUs
            ["simulate", "--scheme", "systematic", "--k", "2", "--m", "2", "--n", "3", "--p", "0.1", "--trials", "4", "--seed", "1", "--workers", str(_CPUS + 1)],
            ["metrics", "--scheme", "straightforward", "--k", "4", "--m", "2", "--p", "0.1", "--p-hat", "0.5", "--trials", "4", "--seed", "1", "--workers", str(_CPUS + 1)],
            # work sizes past the closed-form caps
            ["analyze", "--scheme", "systematic", "--k", "10001", "--m", "1", "--n", "1", "--p", "0.5"],
            ["analyze", "--scheme", "ordered-uncoded", "--k", "1", "--m", "1", "--n", "100001", "--p", "0.5"],
            ["metrics", "--scheme", "straightforward", "--k", "10001", "--m", "10001", "--p", "0.5", "--p-hat", "0.5", "--n-max", "10001"],
            ["metrics", "--scheme", "systematic", "--k", "1", "--m", "1", "--p", "0.5", "--p-hat", "0.5", "--n-max", "100001"],
            # --n is an int, not beside --n-min/--n-max, and only for the
            # subcommands that take it
            ["analyze", "--scheme", "systematic", "--k", "2", "--m", "2", "--p", "0.1", "--n", "3", "--n-max", "4"],
            ["simulate", "--scheme", "systematic", "--k", "2", "--m", "2", "--p", "0.1", "--trials", "1", "--seed", "1", "--n", "3", "--n-min", "2"],
            ["analyze", "--scheme", "systematic", "--k", "2", "--m", "2", "--p", "0.1", "--n", "3.0"],
            ["bench", "--k", "2", "--trials", "1", "--n", "3"],
            # a target probability outside (0, 1]
            ["metrics", "--scheme", "systematic", "--k", "4", "--m", "2", "--p", "0.1", "--p-hat", "0"],
            ["metrics", "--scheme", "ordered-uncoded", "--k", "4", "--m", "2", "--p", "0.1", "--p-hat", "1.5"],
            # the N cap holds for simulate too
            ["simulate", "--scheme", "systematic", "--k", "2", "--m", "1", "--n-min", "1", "--n-max", "100001", "--p", "0.1", "--trials", "1", "--seed", "1"],
            # metrics reads --trials and --seed only when it simulates
            ["metrics", "--scheme", "systematic", "--k", "4", "--m", "2,4", "--p", "0.1", "--p-hat", "0.7", "--trials", "9", "--seed", "3"],
            ["metrics", "--scheme", "straightforward", "--k", "4", "--m", "4", "--p", "0.1", "--p-hat", "0.7", "--trials", "9", "--seed", "3"],
            ["metrics", "--scheme", "ordered-uncoded", "--k", "4", "--m", "2", "--p", "0.1", "--p-hat", "0.7", "--seed", "3"],
            # the subcommand is the mode; no flag names another
            ["analyze", "--scheme", "systematic", "--k", "2", "--m", "2", "--n", "3", "--p", "0.1", "--mode", "simulate"],
            # simulate takes no --q: the simulator is GF(2) only
            ["simulate", "--scheme", "systematic", "--k", "2", "--m", "2", "--n", "3", "--p", "0.1", "--trials", "1", "--seed", "1", "--q", "2"],
            # no workers, no repetitions, and an unknown scheme
            ["simulate", "--scheme", "systematic", "--k", "2", "--m", "2", "--n", "3", "--p", "0.1", "--trials", "1", "--seed", "1", "--workers", "0"],
            ["bench", "--k", "2", "--trials", "0"],
            ["analyze", "--k", "2", "--m", "2", "--n", "3", "--p", "0.1", "--scheme", "fountain"],
            # M and p missing or out of range, and N ranges with no valid N
            ["analyze", "--scheme", "systematic", "--k", "2", "--n", "3", "--p", "0.1"],
            ["analyze", "--scheme", "systematic", "--k", "2", "--m", "0", "--n", "3", "--p", "0.1"],
            ["analyze", "--scheme", "systematic", "--k", "2", "--m", "2", "--n", "3"],
            ["analyze", "--scheme", "systematic", "--k", "2", "--m", "2", "--n-min", "5", "--n-max", "3", "--p", "0.1"],
            ["analyze", "--scheme", "systematic", "--k", "5", "--m", "5", "--n-min", "1", "--n-max", "3", "--p", "0.1"],
            ["metrics", "--scheme", "systematic", "--k", "5", "--m", "5", "--p", "0.1", "--p-hat", "0.7", "--n-max", "4"],
            # ordered-uncoded codes nothing, so it takes no q but 2
            ["analyze", "--scheme", "ordered-uncoded", "--k", "4", "--m", "2", "--n", "4", "--p", "0.1", "--q", "3"],
            ["metrics", "--scheme", "ordered-uncoded", "--k", "10", "--m", "3,7,10", "--p", "0.05,0.2,0.4", "--p-hat", "0.99", "--q", "7"],
        ],
    )
    def test_config_errors_exit_2(self, bad, tmp_path, capsys, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a rejected config started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(simulator, "ProcessPoolExecutor", no_pool, raising=False)
        code, out, err = run_cli([arg.format(tmp=tmp_path) for arg in bad], capsys)
        assert code == EXIT_CONFIG
        assert err.startswith("config error:") and err.count("\n") == 1
        assert out == ""

    def test_output_file_written_with_newlines(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(["analyze", "--scheme", "systematic", "--k", "2", "--m", "2",
                     "--n", "3", "--p", "0.1", "--out", str(out)])
        assert code == EXIT_OK
        text = out.read_bytes().decode("utf-8")
        assert text.endswith("\n") and "\r" not in text

    @pytest.mark.skipif(os.name != "posix", reason="POSIX descriptors")
    @pytest.mark.parametrize("stdout", ["broken pipe", "closed"])
    def test_unwritable_stdout_exits_2(self, stdout):
        """A stdout that cannot take the rows is reported as an unwritable
        --out is: exit 2 and one line on stderr, with no traceback and nothing
        from the interpreter's own flush at exit."""
        argv = [sys.executable, "-m", "sysnc.cli", "analyze", "--scheme", "systematic",
                "--k", "2", "--m", "2", "--n", "3", "--p", "0.1"]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        if stdout == "closed":  # the shell's >&- starts the CLI without a stdout
            run = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *argv],
                                 stderr=subprocess.PIPE, env=env, text=True, timeout=120)
        else:
            read_end, write_end = os.pipe()
            os.close(read_end)  # the reader has gone: the first write fails
            try:
                run = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE,
                                     env=env, text=True, timeout=120)
            finally:
                os.close(write_end)
        assert run.returncode == EXIT_CONFIG
        assert run.stderr.startswith("config error: cannot write stdout")
        assert run.stderr.count("\n") == 1, run.stderr

    @staticmethod
    def interrupt_long_run(workers, send):
        """Start a run far too long to finish in its own session, call
        ``send(pid)`` 1 s in, once it computes, and return its exit code,
        stderr, stdout and the seconds from the signal to its exit."""
        argv = [sys.executable, "-m", "sysnc.cli", "simulate", "--scheme", "systematic",
                "--k", "40", "--m", "40", "--n-min", "40", "--n-max", "80", "--p", "0.1",
                "--trials", "2000000", "--seed", "1", "--workers", str(workers)]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=env, text=True, start_new_session=True)
        try:
            time.sleep(1.0)  # start-up takes about 50 ms
            send(proc.pid)
            sent = time.monotonic()
            out, err = proc.communicate(timeout=60)
            waited = time.monotonic() - sent
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        return proc.returncode, err, out, waited

    @pytest.mark.skipif(os.name != "posix", reason="POSIX signals and sessions")
    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=pytest.mark.skipif(
        _CPUS < 2, reason="needs 2 CPUs"))])
    def test_ctrl_c_exits_130_with_one_line(self, workers):
        """Ctrl-C sends SIGINT to the whole foreground process group, pool
        workers included. A run far too long to finish is interrupted once it
        computes: it exits 130 with one line and no traceback."""
        code, err, out, _ = self.interrupt_long_run(
            workers, lambda pid: os.killpg(pid, signal.SIGINT))
        assert (code, err, out) == (130, "interrupted\n", "")  # 128 + SIGINT

    @pytest.mark.skipif(os.name != "posix", reason="POSIX signals and sessions")
    @pytest.mark.skipif(_CPUS < 2, reason="needs 2 CPUs")
    def test_sigint_to_the_parent_alone_waits_one_block(self):
        """``kill -INT <pid>`` interrupts the parent but not its pool workers,
        and the pool cannot stop a block a worker has started. Blocks of at
        most ``simulator.BLOCK_WORK`` units of trials x N x ceil(K / 64)
        (409 trials, about 0.02 s each here) bound the wait: exit 130
        with one line within 5 s of the signal, where one block per worker
        would run on for about half a minute."""
        code, err, out, waited = self.interrupt_long_run(
            2, lambda pid: os.kill(pid, signal.SIGINT))
        assert (code, err, out) == (130, "interrupted\n", "")
        assert waited < 5.0, waited


# Small valid commands, so that fuzzed flags appended to them reach past the
# parser into validation and the run itself.
_BASES = {
    "analyze": ["--scheme", "systematic", "--k", "3", "--m", "2,3", "--n", "4", "--p", "0.1"],
    "simulate": ["--scheme", "straightforward", "--k", "3", "--m", "2,3", "--n", "4",
                 "--p", "0.1", "--trials", "3", "--seed", "1"],
    "metrics": ["--scheme", "straightforward", "--k", "3", "--m", "2,3", "--p", "0.1",
                "--p-hat", "0.5", "--trials", "3", "--seed", "1"],
    "bench": ["--k", "2", "--trials", "1"],
}
_FLAG_TOKENS = sorted(f"--{key.replace('_', '-')}" for key in cli._FIELDS)
_FLAG_TOKENS += ["--config", "--bogus", "--n-m", "-k", "-h"]
_VALUES = ["0", "1", "2", "3", "0.1", "0.5", "2,3", "0,0.3", "systematic",
           "straightforward", "ordered-uncoded"]
_GARBAGE = ["-1", "1.5", "nan", "inf", "1e3", "1,,2", "", ",", "x"]
_PATHS = {"--out": ["{tmp}/out.csv", "{tmp}", "{tmp}/missing/out.csv"]}
# Work sizes past the caps, which every subcommand that reads the flag
# rejects before any work.
_CAPPED = {
    "--k": ["10001"],
    "--n": ["100001", "1000000000000000000"],
    "--n-max": ["100001", "1000000000000000000"],
}
_PAIRS = st.one_of(
    st.tuples(st.sampled_from(_FLAG_TOKENS), st.sampled_from(_VALUES)),
    st.tuples(st.sampled_from(_FLAG_TOKENS), st.sampled_from(_GARBAGE)),
    *(st.tuples(st.just(flag), st.sampled_from(values))
      for flag, values in {**_PATHS, **_CAPPED}.items()),
)


class TestArgvFuzz:
    @pytest.fixture(scope="class")
    def tmp(self, tmp_path_factory):
        return tmp_path_factory.mktemp("argv")

    @given(
        st.sampled_from(MODES + ("bogus",)),
        st.booleans(),
        st.lists(_PAIRS, max_size=3),
        st.lists(st.sampled_from(_FLAG_TOKENS + _VALUES + _GARBAGE), max_size=2),
    )
    @settings(max_examples=400, deadline=None)
    def test_exit_0_or_one_config_error_line(self, tmp, mode, based, pairs, tail):
        """Any argv of real subcommands and flags with small or garbage
        values exits 0, or exits 2 with one ``config error:`` line on stderr
        and nothing on stdout; no exception escapes ``main``."""
        words = [mode, *_BASES.get(mode, []) * based]
        words += [word for pair in pairs for word in pair] + tail
        argv = [word.format(tmp=tmp) for word in words]
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)  # a fuzzed --out value is a path relative to tmp
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:  # -h prints help and exits
            code = exc.code
        finally:
            os.chdir(cwd)
        if code == EXIT_CONFIG:
            assert err.getvalue().startswith("config error:"), argv
            assert err.getvalue().count("\n") == 1 and out.getvalue() == "", argv
        else:
            assert code == EXIT_OK and err.getvalue() == "", (argv, code, err.getvalue())
