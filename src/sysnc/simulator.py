"""Erasure-channel Monte Carlo harness and decoder timing benchmark.

Reproducibility contract: every random draw comes from a stream derived by a
fixed mixing function, so results are bit-identical across runs and across
any parallel scheduling of trials.

* ``scheme_seed = blake2b("scheme|<scheme>|<master_seed>")`` isolates schemes;
* per trial, ``derive_stream(seed, trial, "encoder")`` feeds the encoder and
  ``derive_stream(seed, trial, "channel")`` feeds the erasure channel, so
  changing the loss probability never perturbs the coded coefficients of a
  given trial;
* encoder draws happen for every coded packet in sequence order, whether or
  not the channel later drops it.

A trial counts decoded packets from its coding vectors alone, which fix the
decodable set, so it builds no payload. The vectors come from
:func:`codec.coding_word`, the one scheme rule the packet encoders use too.
The count-only kernel :func:`_first_reach` keeps just the row space, as a
forward echelon whose rows carry recipe bits that name the arrivals they
combine. After the last arrival, triangular solves of that echelon, one per
arrival taken latest first, give the first n at which each packet is
decoded, and so the first n at which each count is reached. They stop as
soon as every count the caller asks for is placed, usually after one or two
solves. The tests hold the kernel to the fully reduced form that
:class:`codec.ProgressiveDecoder` keeps after every arrival, and to the
kernel's earlier form in that shape. :func:`run_trials` returns, for each
M, the number of trials that decoded at least M packets after each N; a
caller divides by the trial count.
"""

from __future__ import annotations

import hashlib
import random
import time
from itertools import accumulate
from operator import add

from .codec import (
    SCHEME_ENCODERS,
    SCHEMES,
    ProgressiveDecoder,
    SourceMessage,
    TransmittedPacket,
    coding_word,
    full_rank_decode,
)

BENCH_DECODERS = ("ge", "gepd")

# The most work in one block of run_trials, in trials x n_hi x ceil(k / 64).
# A pool cannot stop a block once a worker has started it, so this bounds how
# long an interrupted run waits: a unit takes about 1 us at K=40 and at
# K=1024, and about 27 us in the tiny trials (K = N = 1) whose stream
# derivations outweigh it, so no block runs much past a second.
BLOCK_WORK = 1 << 15


def _mix(tag: str, label, index: int) -> int:
    key = f"{tag}|{label}|{index}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def derive_stream(seed: int, trial_index: int, role: str) -> random.Random:
    """Deterministic per-trial random stream for one role ('encoder'/'channel')."""
    return random.Random(_mix(role, seed, trial_index))


def scheme_seed(master_seed: int, scheme: str) -> int:
    """Sub-seed isolating one transmission scheme under a master seed."""
    return _mix("scheme", scheme, master_seed)


def make_test_message(k: int, payload_len: int) -> SourceMessage:
    """Fixed, distinguishable source payloads for benchmarks."""
    return SourceMessage(
        tuple(
            hashlib.shake_256(f"payload|{i}".encode()).digest(payload_len)
            for i in range(1, k + 1)
        )
    )


def _first_reach(
    scheme: str, k: int, n_hi: int, p: float, seed: int, trial_index: int, ms
) -> list[int]:
    """For each count m of ``ms``, entry m of the returned list of k + 1 is
    the first n in [0, n_hi] at which one trial has m packets decoded, or
    n_hi + 1 if it never gets there. Entries at other counts may be left at
    n_hi + 1, an upper bound; ``range(k + 1)`` asks for all of them.

    Which packets are decodable depends only on the received coding vectors,
    so no payload is kept. Every arrival is masked by ``~decoded``, the
    bitmask of the columns decoded while only unit vectors had arrived: until
    the first coded (non-unit) arrival, a new unit vector just decodes its
    column. Ordered-uncoded sends only unit vectors, so it never leaves that
    path and its count is the number of distinct ones received.

    From the first coded arrival on, each innovative arrival is stored as
    ``vec << k | 1 << j``: recipe bit j marks the j-th stored arrival, sent at
    ``arrivals[j]``. The rows form a forward echelon keyed by their highest
    coding bit, ``rows[row.bit_length()]``, so an arrival is reduced by one
    XOR per row whose key it holds, and it is dependent when no coding bit is
    left. The stored arrivals A are independent and the echelon is E = L·A,
    with L the recipe bits, unit lower triangular. A decodable column c has
    one expression e_c = x·A, and its packet is first decoded at
    ``arrivals[j]`` for the highest j with x_j = 1. That bit x_j is y_j[c],
    where y_j solves E·y = (recipe bit j of each row) with its free
    (non-pivot) coordinates 0: one solve in ascending key order, one parity
    per row. A free live column f counts as a unit vector sent after n_hi:
    its solve (E·z = 0, z_f = 1) covers exactly the columns never decoded.
    The sources go latest first, the free columns and then the stored
    arrivals from the last, each placing at its time the columns it covers
    that no later source did. They stop once fewer columns are left
    unplaced than the smallest m - done over the m of ``ms`` above the
    unit-vector count ``done``, since every count asked for is then placed.
    Masking projects out the columns decoded before, and since all their
    unit vectors arrived before any stored row, the projection hides no
    earlier decode.
    """
    encoder = derive_stream(seed, trial_index, "encoder")
    channel = derive_stream(seed, trial_index, "channel").random
    first = [n_hi + 1] * (k + 1)
    first[0] = 0
    done = decoded = 0
    arrivals: list[int] = []
    rows = [0] * (2 * k + 1)  # rows[b]: the stored row of bit length b > k
    for n in range(1, n_hi + 1):
        vec = coding_word(scheme, k, n, encoder) & ~decoded
        if channel() < p or not vec:
            continue
        if not arrivals and not vec & (vec - 1):
            # A new unit vector and no coded row yet.
            decoded |= vec
            done += 1
            first[done] = n
            if done == k:
                return first
            continue
        row = vec << k | 1 << len(arrivals)
        top = row.bit_length()
        while rows[top]:
            row ^= rows[top]
            top = row.bit_length()
        if top > k:  # innovative
            rows[top] = row
            arrivals.append(n)
            if len(arrivals) == k - done:
                break
    need = min((m - done for m in ms if m > done), default=0)
    if not arrivals or not need:
        return first
    # (coding bits, key bit, row) of each stored row, lowest key first
    stored = [(row >> k, 1 << row.bit_length() - k - 1, row) for row in rows if row]

    def solve(x: int, j: int) -> int:
        for coding, key, row in stored:
            if ((coding & x).bit_count() ^ row >> j) & 1:
                x |= key
        return x

    unplaced = free = ((1 << k) - 1) ^ decoded
    for _, key, _ in stored:
        free ^= key
    left = k - done  # unplaced.bit_count()
    j = len(arrivals)  # no row holds recipe bit j: a free column's zero side
    while free and left >= need:
        col = free & -free
        free ^= col
        placed = solve(col, j) & unplaced  # never decoded: first stays n_hi + 1
        unplaced ^= placed
        left -= placed.bit_count()
    while left >= need:
        j -= 1
        placed = solve(0, j) & unplaced
        unplaced ^= placed
        count = placed.bit_count()
        first[done + left - count + 1:done + left + 1] = [arrivals[j]] * count
        left -= count
    return first


def _count_block(args) -> list[list[int]]:
    """Success counts per (M, n) for a contiguous block of trials (worker
    unit): each trial adds one hit per M at the first n that reaches it,
    asking its kernel for the M of ``m_list`` alone, and one prefix sum over
    n turns hits into counts."""
    scheme, k, n_hi, p, seed, start, stop, m_list = args
    hits = [[0] * (n_hi + 2) for _ in m_list]  # index n_hi + 1: never reached
    for trial in range(start, stop):
        first = _first_reach(scheme, k, n_hi, p, seed, trial, m_list)
        for row, m in zip(hits, m_list):
            row[first[m]] += 1
    return [list(accumulate(row[:n_hi + 1])) for row in hits]


def run_trials(
    scheme: str,
    k: int,
    m_list: list[int],
    n_range: tuple[int, int],
    p: float,
    seed: int,
    trials: int,
    *,
    workers: int = 1,
) -> list[list[int]]:
    """Success counts behind the estimates of P[decoded >= m]: for each m of
    ``m_list``, in order, the list of how many of ``trials`` trials had at
    least m packets decoded after n sends, for n = n_lo..n_hi of ``n_range``
    (entry n - n_lo). Each packet is erased with probability p; ``seed`` is
    the master seed of the derived streams.

    Each trial draws the coding vector of every packet, drops packets through
    the channel, and eliminates the surviving vectors, noting the first n at
    which each M of ``m_list`` is reached (one pass per trial). Trials run
    in contiguous blocks of at most ``BLOCK_WORK`` units of trials x n_hi x
    ceil(k / 64), one block per worker if that is fewer, and the counts are
    integer sums over the blocks. Trials are independent and carry their own
    derived streams, so any ``workers`` partitioning yields bit-identical
    results.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"erasure probability {p} outside [0, 1]")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if trials < 1:
        raise ValueError("trials must be positive")
    if workers < 1:
        raise ValueError("workers must be positive")
    for m in m_list:
        if not 1 <= m <= k:
            raise ValueError(f"recovery threshold m={m} outside [1, {k}]")
    n_lo, n_hi = n_range
    if not 1 <= n_lo <= n_hi:
        raise ValueError(f"bad transmission range [{n_lo}, {n_hi}]")
    sub_seed = scheme_seed(seed, scheme)
    m_tuple = tuple(m_list)
    trial_work = n_hi * -(-k // 64)
    step = min(-(-trials // workers), max(1, BLOCK_WORK // trial_work))
    blocks = [
        (scheme, k, n_hi, p, sub_seed, start, min(start + step, trials), m_tuple)
        for start in range(0, trials, step)
    ]
    totals = [[0] * (n_hi + 1) for _ in m_tuple]
    pool = None
    try:
        if workers == 1:
            counted = map(_count_block, blocks)
        else:
            # Imported here: the pool's 35 modules would add about a quarter to the
            # start-up of every single-process run. Ctrl-C reaches the parent alone.
            import signal
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(workers, initializer=signal.signal,
                                       initargs=(signal.SIGINT, signal.SIG_IGN))
            counted = pool.map(_count_block, blocks)
        for counts in counted:  # add the blocks up per (M, n)
            for total, row in zip(totals, counts):
                total[:] = map(add, total, row)
    finally:
        if pool is not None:  # an interrupted run drops the blocks not yet started
            pool.shutdown(cancel_futures=True)
    return [total[n_lo:] for total in totals]


def bench_decoders(
    k_values: list[int], repetitions: int, *, seed: int = 0
) -> list[tuple[str, int, int, int, int, int]]:
    """Time full recovery from a lossless stream of straightforward packets
    with 8-byte payloads, by both decoders of ``BENCH_DECODERS``.

    For each k, pre-built packet streams are fed to the decoder until all k
    source packets are out: the progressive decoder ("gepd") eliminates per
    arrival, while the batch eliminator ("ge") reruns from scratch on every
    arrival from the k-th onward (the receiver cannot know the rank without
    eliminating). Each stream is built outside the timed section and decoded
    by both in turn, in ``BENCH_DECODERS`` order on even repetitions and
    reversed on odd ones. Repetitions form the outer loop and every k is
    timed once per repetition, so a change in host speed during the run hits
    both decoders and all k alike. Medians and quartiles over ``repetitions``
    runs, one ``(decoder, k, median_ns, p25_ns, p75_ns, repetitions)`` per
    (decoder, k), in ``BENCH_DECODERS`` order and then the order of
    ``k_values``; absolute numbers are hardware-relative and only the
    ordering between decoders on one host is meaningful.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    # One stream at a time: all of them would be repetitions * sum(k + 96) packets.
    msgs = [make_test_message(k, 8) for k in k_values]
    for k, msg in zip(k_values, msgs):
        stream = _bench_stream(msg, k, seed, 0)
        for decoder in BENCH_DECODERS:
            _timed_decode(decoder, k, stream)  # warm-up, discarded
    times = [[[] for _ in k_values] for _ in BENCH_DECODERS]  # [decoder][k]
    turns = list(enumerate(BENCH_DECODERS))
    for rep in range(repetitions):
        for i, (k, msg) in enumerate(zip(k_values, msgs)):
            stream = _bench_stream(msg, k, seed, rep)
            for d, decoder in turns if rep % 2 == 0 else turns[::-1]:
                times[d][i].append(_timed_decode(decoder, k, stream))
    results = []
    for decoder, d_times in zip(BENCH_DECODERS, times):
        for k, k_times in zip(k_values, d_times):
            p25, med, p75 = _quartiles(k_times)
            results.append((decoder, k, med, p25, p75, repetitions))
    return results


def _bench_stream(
    msg: SourceMessage, k: int, seed: int, rep: int
) -> list[TransmittedPacket]:
    # k + 96 uniform packets: the chance of still lacking full rank is ~2^-96.
    rng = derive_stream(scheme_seed(seed, f"bench-k{k}"), rep, "encoder")
    return [
        SCHEME_ENCODERS["straightforward"](msg, n, rng) for n in range(1, k + 97)
    ]


def _timed_decode(decoder: str, k: int, stream: list[TransmittedPacket]) -> int:
    if decoder == "gepd":
        start = time.perf_counter_ns()
        dec = ProgressiveDecoder(k, len(stream[0].payload))
        for pkt in stream:
            dec.receive(pkt)
            if dec.decoded_count == k:
                dec.recovered_payloads  # deliver bytes, as "ge" does
                return time.perf_counter_ns() - start
    else:
        start = time.perf_counter_ns()
        received: list[TransmittedPacket] = []
        for pkt in stream:
            received.append(pkt)
            if len(received) >= k and full_rank_decode(received, k) is not None:
                return time.perf_counter_ns() - start
    raise RuntimeError(f"stream of {len(stream)} packets never reached full rank")


def _quartiles(times: list[int]) -> tuple[int, int, int]:
    if len(times) == 1:
        return times[0], times[0], times[0]
    import statistics  # only bench reaches here

    q = statistics.quantiles(times, n=4, method="inclusive")
    return round(q[0]), round(statistics.median(times)), round(q[2])

