"""Brute-force enumeration oracles shared by the test modules.

Everything here recomputes quantities from first principles (exhaustive
enumeration, exact rational arithmetic) so the closed-form implementations
can be checked against values they had no hand in producing. The ``*_exact``
functions are the closed forms over ``Fraction``; they may use any
algebraically equal form, such as a prefix product, since exact arithmetic
has no rounding to keep. The ``*_loop`` functions are the plain float loops
of the rank product, the channel weights and the channel averages, term by
term in their stated order: the float implementations must equal them bit
for bit. The systematic conditional sum takes its terms from a ratio
recurrence, so ``cond_full_decode_prob_exact`` judges it within a stated
relative bound; ``cond_window_loop`` is the same sum without its past-mode
cut, which it must equal bit for bit, since the cut may skip only terms that
change no bit.
``rref_decodable_set`` is a list-based RREF that shares no code with the
packed decoders it judges. ``set_bits`` and ``combine_words_loop`` walk a
mask one lowest set bit at a time, the loop that the C-level mask walks of
``gf2.bit_flags`` and ``codec.combine_words`` must equal.
``binomial_tail_exact`` is the binomial tail over integers, the judge of the
systematic small-p approximation, and ``ou_full_quotient`` is
ordered-uncoded's full-recovery product over integers.
``min_packets_for_target`` is the paper's N_hat = min{N : P(N) >= P_hat} as
a plain linear search, the judge of the CLI's one first-N scan.
``rref_first_reach`` is the simulator's trial kernel kept in its earlier
form, which holds the received row space fully reduced after every arrival,
as ``codec.ProgressiveDecoder`` does; it judges the forward-echelon kernel
``simulator._first_reach``.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, exp, lgamma, log, log1p
from typing import Iterable

from sysnc.analysis import _EXACT_WEIGHT_LIMIT, _rank_rows
from sysnc.codec import coding_word
from sysnc.gf2 import CodingVector, DimensionError
from sysnc.simulator import derive_stream


def set_bits(word: int) -> list[int]:
    """Indices of the set bits of ``word``, lowest first, by the lowest-bit
    loop: isolate the lowest set bit, record it, clear it."""
    bits = []
    while word:
        low = word & -word
        bits.append(low.bit_length() - 1)
        word ^= low
    return bits


def combine_words_loop(packet_words: list[int], vector_word: int) -> int:
    """XOR of ``packet_words[i]`` over the set bits i of ``vector_word``, one
    lowest-bit step at a time; a bit past the list raises IndexError."""
    acc = 0
    for i in set_bits(vector_word):
        acc ^= packet_words[i]
    return acc


def insert_rank(words: list[int]) -> int:
    """Rank of a stack of bit-packed GF(2) rows, by pivot insertion."""
    pivots: dict[int, int] = {}
    for w in words:
        while w:
            low = (w & -w).bit_length()
            if low in pivots:
                w ^= pivots[low]
            else:
                pivots[low] = w
                break
    return len(pivots)


def rref_decodable_set(vectors: Iterable[CodingVector], k: int) -> set[int]:
    """Ground-truth decodable set: indices whose unit vector lies in the row space.

    Textbook reduced-row-echelon form over coefficient lists. Kept free of
    the packed-integer machinery on purpose so it can serve as an oracle for
    the decoders.
    """
    mat: list[list[int]] = []
    for v in vectors:
        if v.length != k:
            raise DimensionError(f"vector length {v.length} != k={k}")
        mat.append([(v.word >> i) & 1 for i in range(k)])
    pivot_cols: list[int] = []
    row = 0
    for col in range(k):
        pivot = next((r for r in range(row, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        for r in range(len(mat)):
            if r != row and mat[r][col]:
                mat[r] = [a ^ b for a, b in zip(mat[r], mat[row])]
        pivot_cols.append(col)
        row += 1
    return {
        col + 1
        for r, col in enumerate(pivot_cols)
        if sum(mat[r]) == 1
    }


def rowspace(words: list[int]) -> set[int]:
    """Every GF(2) combination of the given rows (exponential; tiny k only)."""
    span = {0}
    for w in words:
        span |= {w ^ s for s in span}
    return span


def decodable_by_rowspace(words: list[int], k: int) -> set[int]:
    """Indices i with the unit vector e_i in the row space."""
    span = rowspace(words)
    return {i for i in range(1, k + 1) if (1 << (i - 1)) in span}


@lru_cache(maxsize=None)
def _full_rank_fraction(k: int, sys_mask: int, coded_count: int) -> Fraction:
    """P[rank k] for fixed received systematic packets (bit mask) plus
    ``coded_count`` coded packets, enumerating every coefficient assignment."""
    sys_words = [1 << i for i in range(k) if (sys_mask >> i) & 1]
    good = 0
    total = 0
    for coded in product(range(1 << k), repeat=coded_count):
        total += 1
        if insert_rank(sys_words + list(coded)) == k:
            good += 1
    return Fraction(good, total)


def full_rank_prob_oracle(k: int, r: int, q: int = 2) -> Fraction:
    """P[r uniform GF(2) vectors of length k have rank k], by enumeration."""
    assert q == 2, "enumeration oracle is binary"
    return _full_rank_fraction(k, 0, r)


def cond_full_oracle(k: int, r: int, n: int) -> Fraction:
    """Systematic-scheme P[all k decodable | r of n arrived], averaging over
    every reception pattern and every coded coefficient assignment."""
    patterns = list(combinations(range(1, n + 1), r))
    acc = Fraction(0)
    for pat in patterns:
        sys_mask = 0
        coded = 0
        for i in pat:
            if i <= k:
                sys_mask |= 1 << (i - 1)
            else:
                coded += 1
        acc += _full_rank_fraction(k, sys_mask, coded)
    return acc / len(patterns)


def full_decode_oracle(k: int, n: int, p: Fraction) -> Fraction:
    """Systematic-scheme P[all k decodable after n sends], enumerating every
    erasure pattern exactly."""
    acc = Fraction(0)
    for pattern in range(1 << n):
        r = pattern.bit_count()
        if r < k:
            continue
        weight = (1 - p) ** r * p ** (n - r)
        sys_mask = pattern & ((1 << k) - 1)
        coded = (pattern >> k).bit_count()
        acc += weight * _full_rank_fraction(k, sys_mask, coded)
    return acc


def at_least_oracle(probs: list[Fraction], threshold: int) -> Fraction:
    """P[at least ``threshold`` successes], enumerating all outcome patterns."""
    acc = Fraction(0)
    for pattern in range(1 << len(probs)):
        if pattern.bit_count() < threshold:
            continue
        term = Fraction(1)
        for i, s in enumerate(probs):
            term *= s if (pattern >> i) & 1 else 1 - s
        acc += term
    return acc


def full_rank_prob_exact(k: int, r: int, q: int = 2) -> Fraction:
    """``analysis.full_rank_prob`` in exact arithmetic."""
    if q < 2:
        raise ValueError(f"field size q={q} must be at least 2")
    if k < 0 or r < 0:
        raise ValueError("counts must be non-negative")
    if k == 0:
        return Fraction(1)
    if r < k:
        return Fraction(0)
    return _rank_prefix_exact(k, r - k, q)[k]


def cond_full_decode_prob_exact(k: int, r: int, n: int, q: int = 2) -> Fraction:
    """``analysis.cond_full_decode_prob`` in exact arithmetic."""
    if q < 2:
        raise ValueError(f"field size q={q} must be at least 2")
    if not 1 <= k <= r <= n:
        raise ValueError(f"need 1 <= k <= r <= n, got k={k}, r={r}, n={n}")
    m, e = n - k, r - k
    h_min = max(0, r - m)
    # W(j, j + e) = prod_{t=e+1}^{e+j} (q^t - 1) / q^t = top[j] / q^power[j],
    # so over the common denominator C(n, r) q^power[-1] every term is an
    # integer, and only the final quotient is reduced.
    top, power = [1], [0]
    for t in range(e + 1, r - h_min + 1):
        top.append(top[-1] * (q**t - 1))
        power.append(power[-1] + t)
    total = comb(m, e) * q ** power[-1]
    for h in range(h_min, k):
        total += comb(k, h) * comb(m, r - h) * top[k - h] * q ** (power[-1] - power[k - h])
    return Fraction(total, comb(n, r) * q ** power[-1])


def full_decode_prob_exact(k: int, n: int, p: Fraction, q: int = 2) -> Fraction:
    """``analysis.full_decode_prob`` in exact arithmetic."""
    if not 0 <= p <= 1:
        raise ValueError(f"erasure probability {p} outside [0, 1]")
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    total = Fraction(0)
    for r in range(k, n + 1):
        weight = comb(n, r) * (1 - p) ** r * p ** (n - r)
        total += weight * cond_full_decode_prob_exact(k, r, n, q)
    return total


def _rank_prefix_exact(j_max: int, e: int, q: int) -> list[Fraction]:
    """W(j, j + e) in exact arithmetic for j = 0..j_max, by the prefix product
    W(j + 1, j + 1 + e) = W(j, j + e) * (1 - q^-(e + j + 1))."""
    w = [Fraction(1)]
    for t in range(e + 1, e + j_max + 1):
        w.append(w[-1] * (1 - Fraction(1, q**t)))
    return w


def rank_product_loop(k: int, r: int, q: int) -> float:
    """prod_{j=0}^{k-1} (1 - q^(j-r)) in floats, factor by factor from j = 0."""
    if r < k:
        return 0.0
    prod = 1.0
    for j in range(k):
        prod *= 1.0 - float(q) ** (j - r)
    return prod


def cond_window_loop(k: int, r: int, n: int) -> float:
    """``cond_full_decode_prob`` in floats with every correction of its window
    added: W_inf plus H(h) (W(k - h, r - h) - W_inf) for each h of the window,
    below the anchor from it downwards and then from it upwards, each H(h) from
    its neighbour by the ratio recurrence and the anchor an exact quotient."""
    rows = _rank_rows()
    e, m = r - k, n - k
    if e >= len(rows) - 1:
        return 1.0
    row = rows[e]
    w_inf = row[min(k, len(row) - 1)]
    lo = max(k + 1 - min(k, len(row) - 1), r - m)
    h0 = max((k + 1) * (r + 1) // (n + 2), lo)
    top = comb(k, h0) * comb(m, r - h0) / comb(n, r)
    acc, t = w_inf, top
    for h in range(h0, lo, -1):
        t = t * (h * (m - r + h)) / ((k - h + 1) * (r - h + 1))
        acc += t * (row[k - h + 1] - w_inf)
    t = top
    for h in range(h0, k + 1):
        acc += t * (row[k - h] - w_inf)
        t = t * ((k - h) * (r - h)) / ((h + 1) * (m - r + h + 1))
    return min(acc, 1.0)


def receive_pmf_loop(n: int, r: int, p: float) -> float:
    """P[exactly r of n packets arrive], each erased with probability p, on
    its own: C(n,r) (1-p)^r p^(n-r) from the exact integer binomial up to
    n = ``analysis._EXACT_WEIGHT_LIMIT``, and above it
    exp(((lgamma(n+1) - lgamma(r+1)) - lgamma(n-r+1)) + r log1p(-p) + (n-r) log p)."""
    if p == 0:
        return 1.0 if r == n else 0.0
    if p == 1:
        return 1.0 if r == 0 else 0.0
    if n <= _EXACT_WEIGHT_LIMIT:
        return comb(n, r) * (1.0 - p) ** r * p ** (n - r)
    log_comb = lgamma(n + 1) - lgamma(r + 1) - lgamma(n - r + 1)
    return exp(log_comb + r * log1p(-p) + (n - r) * log(p))


def channel_average_loop(n: int, r_lo: int, p: float, v: list[float]) -> float:
    """sum_{r=r_lo}^{n} receive_pmf_loop(n, r, p) * v[r - r_lo], skipping zero
    weights, clamped to 1."""
    total = 0.0
    for r in range(r_lo, n + 1):
        w = receive_pmf_loop(n, r, p)
        if w:
            total += w * v[r - r_lo]
    return min(total, 1.0)


def sf_full_decode_loop(k: int, n: int, p: float, q: int) -> float:
    """channel_average_loop(n, k, p, .) of rank_product_loop(k, r, q), r = k..n."""
    return channel_average_loop(n, k, p, [rank_product_loop(k, r, q) for r in range(k, n + 1)])


def binomial_tail_exact(n: int, ms: Iterable[int], p) -> list[Fraction]:
    """P[Bin(n, 1 - p) >= m] for each m of ``ms``, exactly at the value of p.

    With p = a/d and b = d - a, the tail is b^m U(m) / d^n, where
    U(r) = sum_{j >= r} C(n, j) b^(j - r) a^(n - j) runs down from
    U(n + 1) = 0 by U(r) = C(n, r) a^(n - r) + b U(r + 1), in integers.
    """
    p = Fraction(p)
    a, d = p.numerator, p.denominator
    b = d - a
    u = [0] * (n + 2)
    a_pow, c = 1, 1  # a^(n - r) and C(n, r), from r = n down
    for r in range(n, -1, -1):
        u[r] = c * a_pow + b * u[r + 1]
        a_pow, c = a_pow * a, c * r // (n - r + 1)
    return [Fraction(b**m * u[m], d**n) if m <= n else Fraction(0) for m in ms]


def ou_full_quotient(k: int, n: int, p) -> tuple[int, int]:
    """P[all k packets recovered after n sends] of ordered-uncoded, exactly at
    the value of p, as an integer numerator and denominator: with
    c, a = divmod(n, k) and p = u/d, (d^(c+1) - u^(c+1))^a (d^c - u^c)^(k-a)
    over d^(a(c+1) + (k-a)c). Not reduced, so that K = 10^4 with millions of
    bits costs no gcd; int true division of the two rounds correctly."""
    p = Fraction(p)
    u, d = p.numerator, p.denominator
    c, a = divmod(n, k)
    num = (d ** (c + 1) - u ** (c + 1)) ** a * (d**c - u**c) ** (k - a)
    return num, d ** (a * (c + 1) + (k - a) * c)


def ou_tail_loop(k: int, ms: list[int], n: int, p) -> list:
    """Ordered-uncoded P[at least m of k recovered after n sends] for each m of
    ``ms``: the whole Poisson-binomial program over packets 1..k, then each
    tail summed from count m up as a left fold, clamped to [0, 1] in floats."""
    dist = [1]
    for i in range(1, k + 1):
        copies = (n - i) // k + 1 if i <= n else 0
        s = 1 - p**copies if copies else 0
        nxt = [dist[0] * (1 - s)]
        for j in range(1, len(dist)):
            nxt.append(dist[j] * (1 - s) + dist[j - 1] * s)
        nxt.append(dist[-1] * s)
        dist = nxt
    tails = []
    for m in ms:
        acc = dist[0] * 0
        for j in range(m, k + 1):
            acc = acc + dist[j]
        tails.append(min(max(acc, 0.0), 1.0) if isinstance(acc, float) else acc)
    return tails


def min_packets_for_target(
    prob_fn: Callable[[int], float],
    p_hat: float,
    n_start: int,
    n_max: int,
) -> int | None:
    """Smallest n in [n_start, n_max] with prob_fn(n) >= p_hat; None if the cap
    is reached first (e.g. an approximation that plateaus below the target).

    Linear scan, relying on prob_fn being non-decreasing in n.
    """
    if not 0 < p_hat <= 1:
        raise ValueError(f"target probability {p_hat} outside (0, 1]")
    if n_start < 1 or n_max < n_start:
        raise ValueError(f"bad search range [{n_start}, {n_max}]")
    for n in range(n_start, n_max + 1):
        if prob_fn(n) >= p_hat:
            return n
    return None


def rref_first_reach(
    scheme: str, k: int, n_hi: int, p: float, seed: int, trial_index: int
) -> list[int]:
    """For each count c in [0, k], the first n in [0, n_hi] at which one
    trial has c packets decoded, or n_hi + 1 if it never gets there.

    Which packets are decodable depends only on the received coding vectors,
    so the state is their row space alone, in the reduced form of the
    :mod:`codec` module docstring that ``ProgressiveDecoder`` keeps too
    (``decoded``, ``rows`` and ``pivots``), without payloads. An arrival is
    masked by ``~decoded`` first, so only ``vec & pivots`` needs reducing.
    Ordered-uncoded sends only unit vectors, so it never keeps a row and its
    count is the number of distinct ones received.
    """
    encoder = derive_stream(seed, trial_index, "encoder")
    channel = derive_stream(seed, trial_index, "channel").random
    first = [n_hi + 1] * (k + 1)
    first[0] = 0
    done = decoded = pivots = 0
    rows: dict[int, int] = {}
    for n in range(1, n_hi + 1):
        vec = coding_word(scheme, k, n, encoder) & ~decoded
        if channel() < p or not vec:
            continue
        if not rows and not vec & (vec - 1):
            # A new unit vector and no row to clear its column from.
            decoded |= vec
            done += 1
            first[done] = n
        else:
            hits = vec & pivots
            while hits:
                low = hits & -hits
                vec ^= rows[low]
                hits ^= low
            if not vec:
                continue  # already in the row space
            low = vec & -vec
            units = []
            for key, row in rows.items():
                if row & low:
                    rows[key] = row = row ^ vec
                    if row == key:
                        units.append(key)
            if vec == low:
                units.append(low)
            else:
                rows[low] = vec
                pivots |= low
            if not units:
                continue
            for key in units:
                rows.pop(key, None)
                decoded |= key
            pivots &= ~decoded
            first[done + 1:done + len(units) + 1] = [n] * len(units)
            done += len(units)
        if done == k:
            break
    return first
