"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The heavy criteria (3, 4, 5) are Monte Carlo reproductions pinned to fixed
seeds; the whole module runs in a few minutes on one core.
"""

import math
import random
from fractions import Fraction

from oracles import cond_full_decode_prob_exact, cond_full_oracle, rref_decodable_set
from reference_decoder import decoded_indices
from sysnc import analysis, cli
from sysnc.codec import ProgressiveDecoder, SourceMessage, encode
from sysnc.simulator import bench_decoders, run_trials

MASTER_SEED = 20150501


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_closed_form_matches_enumeration():
    """Conditional full-decoding probability vs exhaustive enumeration over
    every reception pattern and coded coefficient assignment (K<=4, N<=8)."""
    worst = 0.0
    points = 0
    for k in range(1, 5):
        for n in range(k, 9):
            for r in range(k, n + 1):
                expected = cond_full_oracle(k, r, n)
                got = analysis.cond_full_decode_prob(k, r, n)
                worst = max(worst, abs(got - float(expected)))
                points += 1
                exact = cond_full_decode_prob_exact(k, r, n, 2)
                assert exact == expected, (k, r, n)
    ok = worst <= 1e-12
    _report(1, ok, f"{points} grid points, max |float - enumeration| = {worst:.2e}")
    assert ok


def test_criterion_2_systematic_beats_straightforward_on_grid():
    """Strict advantage of the systematic conditional probability over the
    plain full-rank probability over GF(2)."""
    min_gap = float("inf")
    points = 0
    for k in range(1, 13):
        for r in range(k, k + 13):
            for n in range(r, k + 13):
                f = analysis.cond_full_decode_prob(k, r, n)
                w = analysis.full_rank_prob(k, r)
                assert f >= w - 1e-12, (k, r, n)
                assert f > w, (k, r, n, "strictness")
                min_gap = min(min_gap, f - w)
                points += 1
    _report(2, True, f"{points} grid points, min strict gap = {min_gap:.2e}")


def test_criterion_3_validation_curves_k40():
    """Empirical curves (10^5 trials, K=40) against the closed forms: full
    recovery within 3 binomial standard errors everywhere; half recovery
    within 0.03 of the systematic-only approximation for p <= 0.15."""
    failures = []
    summary = []
    trials = 100_000
    for p in (0.1, 0.15, 0.3):
        half, full = run_trials(
            "systematic", 40, [20, 40], (40, 80), p, MASTER_SEED, trials=trials
        )
        z_worst = 0.0
        for n, count in enumerate(full, 40):
            est = count / trials
            theory = analysis.full_decode_prob(40, n, p)
            se = math.sqrt(theory * (1 - theory) / trials)
            if se == 0.0:
                if est != theory:
                    failures.append(f"p={p} N={n}: est {est} != degenerate {theory}")
                continue
            z = abs(est - theory) / se
            z_worst = max(z_worst, z)
            if z > 3.0:
                failures.append(f"p={p} N={n}: |z| = {z:.2f} > 3")
        gap_worst = 0.0
        if p <= 0.15:
            for n, count in enumerate(half, 40):
                est = count / trials
                approx = analysis.partial_decode_prob_approx(40, 20, n, p)
                gap = abs(est - approx)
                gap_worst = max(gap_worst, gap)
                if gap > 0.03:
                    failures.append(f"p={p} N={n}: |sim - approx| = {gap:.4f} > 0.03")
        summary.append(f"p={p}: max|z|={z_worst:.2f}, max half-gap={gap_worst:.1e}")
    ok = not failures
    _report(3, ok, "; ".join(summary) + (f"; {failures}" if failures else ""))
    assert ok, failures


def _metrics_rows(args: list[str]) -> dict[int, dict[str, str]]:
    cfg = cli.config_from_args(cli.build_parser().parse_args(args))
    lines = cli.run(cfg).strip().splitlines()
    rows = {}
    for line in lines[1:]:
        scheme, k, m, p, p_hat, n_partial, n_full, delta = line.split(",")
        rows[int(m)] = {"partial": n_partial, "full": n_full, "delta": delta}
    return rows


def _ordered_uncoded_tail(k: int, m: int, n: int, p: Fraction) -> Fraction:
    """Exact P[at least m of k source packets recovered after n cyclic
    uncoded sends], built from first principles with no call into sysnc.

    The first ``n % k`` packets go out ``n // k + 1`` times and the rest
    ``n // k`` times; a packet is lost only if every copy is erased, so the
    recovered count is the sum of two independent binomials.
    """
    copies, extra = divmod(n, k)
    more, less = 1 - p ** (copies + 1), 1 - p**copies
    return sum(
        math.comb(extra, a) * more**a * (1 - more) ** (extra - a)
        * math.comb(k - extra, b) * less**b * (1 - less) ** (k - extra - b)
        for a in range(extra + 1)
        for b in range(k - extra + 1)
        if a + b >= m
    )


def test_criterion_4_scheme_metrics_k20():
    """Delay metrics at P_hat=0.7, K=20, p=0.1 across the three schemes.

    N_hat = min{N : P(N) >= P_hat}. The expected ordered-uncoded values come
    from the exact binomial oracle ``_ordered_uncoded_tail``: at N <= K every
    send is a distinct source packet, so P(11) = P[>= 10 of 11] = 2*0.9^10,
    just below 0.7, and N_hat(M=10) = 12, delta_N = 39 - 12 = 27. The paper
    reports 11 and 28, which only a target in (0.67596, 0.6973568802]
    would give; the threshold stays at 0.7.
    """
    p_hat = "0.7"
    base = ["--k", "20", "--p", "0.1", "--p-hat", p_hat, "--n-max", "60"]
    ou = _metrics_rows(["metrics", "--scheme", "ordered-uncoded", "--m", "10,20"] + base)
    sf = _metrics_rows(
        ["metrics", "--scheme", "straightforward", "--m", "10,20",
         "--trials", "100000", "--seed", str(MASTER_SEED)] + base
    )
    sysm = _metrics_rows(["metrics", "--scheme", "systematic", "--m", "10,20"] + base)

    target, p = Fraction(p_hat), Fraction(1, 10)
    assert _ordered_uncoded_tail(20, 10, 11, p) == 2 * (1 - p) ** 10 < target

    def oracle_n_hat(m: int) -> int:
        return next(n for n in range(1, 61) if _ordered_uncoded_tail(20, m, n, p) >= target)

    n_partial, n_full = oracle_n_hat(10), oracle_n_hat(20)
    assert (n_partial, n_full) == (12, 39)
    paper_gap = "the paper's 11 and 28 need P_hat <= 2*0.9^10 = 0.6973568802 < 0.7"

    checks = [
        (f"ordered-uncoded n_hat(M=10) == {n_partial} (exact oracle)",
         ou[10]["partial"] == str(n_partial), f"got {ou[10]['partial']}; {paper_gap}"),
        ("ordered-uncoded n_hat(M=20) == 39", ou[20]["full"] == "39",
         f"got {ou[20]['full']}"),
        (f"ordered-uncoded delta_N == {n_full - n_partial} (exact oracle)",
         ou[10]["delta"] == str(n_full - n_partial),
         f"got {ou[10]['delta']}; {paper_gap}"),
        ("straightforward n_hat(M=10) == 24 +- 1 (simulated)",
         abs(int(sf[10]["partial"]) - 24) <= 1, f"got {sf[10]['partial']}"),
        ("straightforward delta_N == 1", sf[10]["delta"] == "1",
         f"got {sf[10]['delta']} (full n_hat {sf[10]['full']})"),
        (f"systematic n_hat(M=10) <= ordered-uncoded n_hat(M=10) = {n_partial}",
         int(sysm[10]["partial"]) <= n_partial,
         f"got {sysm[10]['partial']}; the paper states <= 11, but {paper_gap}"),
        ("systematic full n_hat <= straightforward full n_hat",
         int(sysm[20]["full"]) <= int(sf[20]["full"]),
         f"got {sysm[20]['full']} vs {sf[20]['full']}"),
    ]
    failures = [f"{name}: {detail}" for name, ok, detail in checks if not ok]
    _report(
        4,
        not failures,
        f"{sum(ok for _, ok, _ in checks)}/{len(checks)} checks passed"
        + (f"; failing: {failures}" if failures else ""),
    )
    assert not failures, failures


def test_criterion_5_progressive_decoder_is_oracle_optimal():
    """10^5 random instances (K <= 12, mixed systematic/coded packets in
    arbitrary order): decoded set must equal the RREF ground truth and every
    recovered payload must equal its source packet. Zero tolerance."""
    rng = random.Random(MASTER_SEED + 5)
    messages = {
        k: SourceMessage(
            tuple(bytes((k * 31 + i * 7 + b) % 256 for b in range(4)) for i in range(k))
        )
        for k in range(1, 13)
    }
    instances = 100_000
    for instance in range(instances):
        k = rng.randint(1, 12)
        msg = messages[k]
        packets = []
        for n in range(1, rng.randint(0, 2 * k + 4) + 1):
            if rng.random() < 0.45:
                packets.append(encode("systematic", msg, rng.randint(1, k), rng))
            else:
                packets.append(encode("straightforward", msg, n, rng))
        rng.shuffle(packets)
        decoder = ProgressiveDecoder(k, msg.payload_len)
        for pkt in packets:
            decoder.receive(pkt)
        oracle = rref_decodable_set([p.coding_vector for p in packets], k)
        if decoded_indices(decoder) != frozenset(oracle):
            _report(5, False, f"decoded-set mismatch at instance {instance}")
            raise AssertionError(
                f"instance {instance}: k={k}, "
                f"vectors={[p.coding_vector.word for p in packets]}, "
                f"decoder={sorted(decoded_indices(decoder))}, oracle={sorted(oracle)}"
            )
        for i in decoded_indices(decoder):
            if decoder.recovered_payloads[i] != msg.packets[i - 1]:
                _report(5, False, f"payload mismatch at instance {instance}")
                raise AssertionError(f"instance {instance}: payload {i} corrupted")
    _report(5, True, f"{instances} instances, zero mismatches")


def test_criterion_6_binomial_sum_identities():
    """The systematic-count sum collapses to C(N, r) on both sides of N = 2K."""
    points = 0
    for k in range(1, 21):
        n_values = list(range(k, 2 * k)) + list(range(2 * k, 2 * k + 7))
        for n in n_values:
            for r in range(k, n + 1):
                h_min = max(0, r - n + k)
                total = sum(
                    math.comb(k, h) * math.comb(n - k, r - h)
                    for h in range(h_min, min(k, r) + 1)
                )
                assert total == math.comb(n, r), (k, n, r)
                points += 1
    _report(6, True, f"{points} exact identities on both branches")


def test_criterion_7_progressive_decoder_not_slower_than_batch():
    """Qualitative cost ordering at K=30 under lossless straightforward
    streams (absolute times are hardware-bound; only the ordering counts).
    Both decoders are timed on each stream in turn, so a change in host
    speed during the run hits them alike."""
    reps = 100
    (_, _, ge_ns, *_), (_, _, gepd_ns, *_) = bench_decoders(
        [30], reps, seed=MASTER_SEED
    )
    ok = gepd_ns <= ge_ns
    _report(
        7, ok,
        f"median over {reps} reps: gepd {gepd_ns / 1e3:.0f}us vs ge {ge_ns / 1e3:.0f}us",
    )
    assert ok


def test_criterion_8_simulation_is_deterministic(tmp_path, monkeypatch):
    """Byte-identical simulate CSV across repeated runs and worker counts."""
    # --workers is capped at the CPU count; lift the cap so that three
    # workers run on a smaller host too.
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    args = ["simulate", "--scheme", "systematic", "--k", "8", "--m", "4,8",
            "--n-min", "8", "--n-max", "20", "--p", "0.2,0.4",
            "--trials", "3000", "--seed", "3117"]
    outputs = []
    for tag, extra in (("a", []), ("b", []), ("w2", ["--workers", "2"]),
                       ("w3", ["--workers", "3"])):
        path = tmp_path / f"{tag}.csv"
        assert cli.main(args + ["--out", str(path)]) == 0
        outputs.append(path.read_bytes())
    ok = all(blob == outputs[0] for blob in outputs)
    _report(8, ok, f"{len(outputs)} runs (workers 1,1,2,3) byte-identical: {ok}")
    assert ok
