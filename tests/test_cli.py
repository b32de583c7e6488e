import argparse
import contextlib
import io
import json
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
from sysnc.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    MODES,
    ExperimentConfig,
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
        """The default cap is 8K = 160, but each scan reads its sweeps only up
        to the largest N_hat among its distinct columns, also with a p repeated."""
        reads: dict[tuple, list[int]] = {}

        def recording_sweep(k, ms, n_lo, n_hi, p):
            ns = reads.setdefault(tuple(ms), [])
            for n, probs in zip(range(n_lo, n_hi + 1), sweep(k, ms, n_lo, n_hi, p)):
                ns.append(n)
                yield probs

        sweep = analysis.ou_partial_decode_sweep
        monkeypatch.setattr(analysis, "ou_partial_decode_sweep", recording_sweep)
        code, out, err = run_cli(
            ["metrics", "--scheme", "ordered-uncoded", "--k", "20", "--m", "10,20",
             "--p", "0.1,0.3,0.1", "--p-hat", "0.7"],
            capsys,
        )
        assert code == EXIT_OK, err
        rows = [r.split(",") for r in out.strip().splitlines()[1:]]
        assert max(reads[(20,)]) == max(int(r[6]) for r in rows) < 160
        assert max(reads[(10,)]) == max(int(r[5]) for r in rows if r[2] == "10")


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
                    prob = lambda n: analysis.partial_decode_prob_approx(k, m, n, p, q)
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
        q = 2 if simulated else rng.choice((2, 3))
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
    def test_round_trip(self):
        cfg = ExperimentConfig(
            mode="simulate", scheme="systematic", k=4, m=(2, 4), n_min=4,
            n_max=8, p=(0.1, 0.3), q=2, trials=100, seed=7, p_hat=None,
            out="x.csv", workers=2,
        )
        raw = vars(cfg)
        assert set(raw) == set(cli._FIELDS)
        assert ExperimentConfig(**raw) == cfg
        assert ExperimentConfig(**json.loads(json.dumps(raw))) == cfg
        assert ExperimentConfig(**{**raw, "k": 5}) != cfg

    @pytest.mark.parametrize("mode,flags", [
        ("analyze", "--scheme --k --m --n --n-min --n-max --p --q --out --workers --config"),
        ("simulate", "--scheme --k --m --n --n-min --n-max --p --trials --seed --out "
                     "--workers --config"),
        ("metrics", "--scheme --k --m --n-max --p --q --trials --seed --p-hat --out "
                    "--workers --config"),
        ("bench", "--k --trials --seed --out --config"),
    ], ids=MODES)
    def test_config_file_keys_are_the_flags(self, mode, flags, tmp_path, capsys):
        """Each subcommand takes its flags, and a config file the same keys,
        ``-`` written ``_`` (``n`` too, where it takes ``--n``), but no
        ``config``: a file naming any other flag or field is rejected."""
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices[mode]
        taken = [s for a in sub._actions for s in a.option_strings if s.startswith("--")]
        assert sorted(taken) == sorted(flags.split() + ["--help"])
        readable = {flag[2:].replace("-", "_") for flag in flags.split()} - {"config"}
        path = tmp_path / "cfg.json"
        for key in {*cli._FIELDS, "n", "config", "help"}:
            path.write_text(json.dumps({key: None}))
            code, _, err = run_cli([mode, "--config", str(path)], capsys)
            assert code == EXIT_CONFIG
            assert (err == f"config error: config keys not read by {mode}: [{key!r}]\n") == (
                key not in readable), (key, err)

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "scheme": "systematic", "k": 2, "m": [2], "n_min": 3, "n_max": 3,
            "p": [0.1],
        }))
        code, out, _ = run_cli(
            ["analyze", "--config", str(path), "--p", "0.2"], capsys
        )
        assert code == EXIT_OK
        assert out.strip().splitlines()[1].split(",")[4] == "0.2"

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"k": 2, "mn": 1}))
        code, _, err = run_cli(["analyze", "--config", str(path)], capsys)
        assert code == EXIT_CONFIG
        assert "mn" in err

    def test_config_file_n_reads_as_the_flag(self, tmp_path, capsys):
        """A config file holds the flags' keys, ``n`` among them: it sets
        n_min and n_max as ``--n`` does, and a flag still overrides it."""
        argv = ["analyze", "--scheme", "systematic", "--k", "2", "--m", "2", "--p", "0.1"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 3}))
        for flags, file_and_flags in (
            (["--n", "3"], ["--config", str(path)]),
            (["--n-min", "3", "--n-max", "4"], ["--config", str(path), "--n-max", "4"]),
        ):
            code, expected, err = run_cli(argv + flags, capsys)
            assert code == EXIT_OK, err
            assert run_cli(argv + file_and_flags, capsys) == (EXIT_OK, expected, "")

    def test_config_key_in_a_config_file_is_not_read(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        for key, value in (("config", "other.json"), ("mode", "simulate")):
            path.write_text(json.dumps({"k": 2, key: value}))
            code, _, err = run_cli(["analyze", "--config", str(path)], capsys)
            assert code == EXIT_CONFIG
            assert err == f"config error: config keys not read by analyze: [{key!r}]\n"

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
            # config-file values of the wrong type
            ["analyze", {"scheme": "systematic", "k": "4", "m": [2], "n_min": 4, "n_max": 4, "p": [0.1]}],
            ["analyze", {"scheme": "systematic", "k": 4, "m": 2, "n_min": 4, "n_max": 4, "p": [0.1]}],
            ["analyze", {"scheme": "systematic", "k": True, "m": [1], "n_min": 4, "n_max": 4, "p": [0.1]}],
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
            # config-file keys the subcommand does not read
            ["analyze", "--scheme", "systematic", "--k", "2", "--m", "2", "--n", "3", "--p", "0.1", {"p_hat": 0.5, "trials": 9, "seed": 3}],
            ["simulate", "--scheme", "systematic", "--k", "2", "--m", "2", "--n", "3", "--p", "0.1", "--trials", "1", "--seed", "1", {"p_hat": 0.5}],
            ["metrics", "--scheme", "systematic", "--k", "4", "--m", "2", "--p", "0.1", "--p-hat", "0.7", {"n_min": 50}],
            ["bench", "--k", "2", "--trials", "1", {"workers": 2}],
            # an --out that passes validation but cannot be written
            pytest.param(
                ["analyze", "--scheme", "systematic", "--k", "2", "--m", "2", "--n", "3", "--p", "0.1", "--out", "/dev/full"],
                marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full"),
            ),
            # config files that are not UTF-8, or nested past the recursion limit
            ["analyze", b"\xff\xfe{"],
            ["analyze", b"[" * 200000],
            # a q too large for a float
            ["analyze", "--scheme", "systematic", "--k", "2", "--m", "2", "--n", "3", "--p", "0.1", "--q", "1" + "0" * 400],
            ["metrics", "--scheme", "systematic", "--k", "2", "--m", "2", "--p", "0.1", "--p-hat", "0.5", "--q", "1" + "0" * 400],
            # an empty --out names no file
            ["analyze", "--scheme", "systematic", "--k", "2", "--m", "2", "--n", "3", "--p", "0.1", "--out", ""],
            ["analyze", "--scheme", "systematic", "--k", "2", "--m", "2", "--n", "3", "--p", "0.1", {"out": ""}],
            # more workers than CPUs
            ["simulate", "--scheme", "systematic", "--k", "2", "--m", "2", "--n", "3", "--p", "0.1", "--trials", "4", "--seed", "1", "--workers", str(_CPUS + 1)],
            ["metrics", "--scheme", "straightforward", "--k", "4", "--m", "2", "--p", "0.1", "--p-hat", "0.5", "--trials", "4", "--seed", "1", {"workers": _CPUS + 1}],
            # work sizes past the closed-form caps
            ["analyze", "--scheme", "systematic", "--k", "10001", "--m", "1", "--n", "1", "--p", "0.5"],
            ["analyze", "--scheme", "ordered-uncoded", "--k", "1", "--m", "1", "--n", "100001", "--p", "0.5"],
            ["metrics", "--scheme", "straightforward", "--k", "10001", "--m", "10001", "--p", "0.5", "--p-hat", "0.5", "--n-max", "10001"],
            ["metrics", "--scheme", "systematic", "--k", "1", "--m", "1", "--p", "0.5", "--p-hat", "0.5", "--n-max", "100001"],
            # a config-file n is read as --n is: an int, not beside n_min/n_max,
            # and only by the subcommands that take --n
            ["analyze", "--scheme", "systematic", "--k", "2", "--m", "2", "--p", "0.1", {"n": 3, "n_min": 2}],
            ["simulate", "--scheme", "systematic", "--k", "2", "--m", "2", "--p", "0.1", "--trials", "1", "--seed", "1", {"n": 3, "n_max": 4}],
            ["analyze", "--scheme", "systematic", "--k", "2", "--m", "2", "--p", "0.1", {"n": "3"}],
            ["metrics", "--scheme", "systematic", "--k", "4", "--m", "2", "--p", "0.1", "--p-hat", "0.7", {"n": 50}],
            # a target probability outside (0, 1]
            ["metrics", "--scheme", "systematic", "--k", "4", "--m", "2", "--p", "0.1", "--p-hat", "0"],
            ["metrics", "--scheme", "ordered-uncoded", "--k", "4", "--m", "2", "--p", "0.1", "--p-hat", "1.5"],
            # the N cap holds for simulate too
            ["simulate", "--scheme", "systematic", "--k", "2", "--m", "1", "--n-min", "1", "--n-max", "100001", "--p", "0.1", "--trials", "1", "--seed", "1"],
            # metrics reads --trials and --seed only when it simulates
            ["metrics", "--scheme", "systematic", "--k", "4", "--m", "2,4", "--p", "0.1", "--p-hat", "0.7", "--trials", "9", "--seed", "3"],
            ["metrics", "--scheme", "straightforward", "--k", "4", "--m", "4", "--p", "0.1", "--p-hat", "0.7", {"trials": 9, "seed": 3}],
            ["metrics", "--scheme", "ordered-uncoded", "--k", "4", "--m", "2", "--p", "0.1", "--p-hat", "0.7", "--seed", "3"],
            # the subcommand is the mode; a config file cannot name another
            ["analyze", "--scheme", "systematic", "--m", "2", "--n", "3", "--p", "0.1", {"mode": "simulate", "k": 2}],
            # simulate takes no --q: the simulator is GF(2) only
            ["simulate", "--scheme", "systematic", "--k", "2", "--m", "2", "--n", "3", "--p", "0.1", "--trials", "1", "--seed", "1", "--q", "2"],
        ],
    )
    def test_config_errors_exit_2(self, bad, tmp_path, capsys, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a rejected config started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(simulator, "ProcessPoolExecutor", no_pool, raising=False)
        argv = []
        for arg in bad:
            if isinstance(arg, (dict, bytes)):  # the contents of a config file
                path = tmp_path / "cfg.json"
                path.write_bytes(arg if isinstance(arg, bytes) else json.dumps(arg).encode())
                argv += ["--config", str(path)]
            else:
                argv.append(arg.format(tmp=tmp_path))
        code, out, err = run_cli(argv, capsys)
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
_FLAG_TOKENS = sorted({f"--{key.replace('_', '-')}" for mode in MODES for key in cli._keys(mode)})
_FLAG_TOKENS += ["--config", "--bogus", "--n-m", "-k", "-h"]
_VALUES = ["0", "1", "2", "3", "0.1", "0.5", "2,3", "0,0.3", "systematic",
           "straightforward", "ordered-uncoded"]
_GARBAGE = ["-1", "1.5", "nan", "inf", "1e3", "1,,2", "", ",", "x"]
_PATHS = {
    "--out": ["{tmp}/out.csv", "{tmp}", "{tmp}/missing/out.csv"],
    "--config": ["{tmp}/good.json", "{tmp}/list.json", "{tmp}/broken.json",
                 "{tmp}/unread.json", "{tmp}/missing.json"],
}
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
        path = tmp_path_factory.mktemp("argv")
        (path / "good.json").write_text(json.dumps({"k": 3, "m": [3], "p": [0.2]}))
        (path / "list.json").write_text("[1, 2]")
        (path / "broken.json").write_text("{")
        (path / "unread.json").write_text(json.dumps({"p_hat": 0.5, "trials": 2}))
        return path

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
