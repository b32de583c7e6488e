"""Closed-form decoding probabilities.

The three transmission schemes are modelled over a packet erasure channel
with loss probability p:

* systematic: exact full-recovery probability (conditional on the receive
  count and averaged over the channel) plus a small-p approximation for
  recovering at least m < k packets;
* straightforward: full-recovery probability from the rank statistics of
  uniform random GF(q) matrices (no closed form exists for its partial
  recovery, which is available through simulation only);
* ordered-uncoded: exact partial/full recovery via a Poisson-binomial tail.

All probability functions are pure. They compute in floats: exact integer
binomials with one correctly rounded division per term, and log-space
weights once factorials overflow doubles. The ``*_exact`` paths over
``fractions.Fraction`` that judge them live with the other oracles in
``tests/oracles.py``.

Every float result is bit-identical to the plain term-by-term loop its
docstring states, so tables and sweeps may share work but never reorder a
float operation. The rank product W(k, r) = prod_{t=r-k+1}^{r} (1 - q^-t)
is read from a per-q table: once q^-t <= 2^-54, ``1.0 - q**-t`` rounds to
exactly 1.0, and multiplying by an exact 1.0 changes nothing, so only the
factors below that t need storing (see ``_rank_rows``). That table is the
only state kept between calls. Work shared across p, M or N (the ``*_probs``
functions) lives inside one call and is returned, never cached, so repeating
a computation repeats its work. Float sums are written-out left folds:
since Python 3.12 the builtin ``sum`` of floats is compensated and rounds
differently from the loop.

Four kinds of work are skipped because they provably cannot change a bit:

* Carry (``ou_partial_decode_sweep``). From n - 1 sends to n, only packet
  i = ((n - 1) mod k) + 1 gains a copy, so the Poisson-binomial state after
  packets 1..i-1 is the one already computed for n - 1; the sweep keeps the
  state after packet i for n + 1 (after packet k, n + 1 starts afresh).
* Band. The recovered count can grow by at most one per packet, so after
  packet t no count below min(ms) - (k - t) can reach a requested tail; the
  DP step drops it. Every count it keeps is the full program's
  ``dist[j] * stay + dist[j - 1] * s``, the same operations in the same order.
* Unsent packets (``ou_partial_decode_sweep``, N < K). A packet not yet sent
  survives with probability 0, and its DP step only shifts the distribution
  up by one count, so the sweep shifts once for all of them.
* Past-mode cut (``_cond_full``). Once the hypergeometric quotients fall and
  one is below half an ulp of the running sum, no later term can move the
  sum; the argument is stated at the cut.
"""

from __future__ import annotations

import math

# Above this n the erasure-channel weights C(n,r)(1-p)^r p^(n-r) switch to
# log space; below it, exact integer binomials keep full double precision.
_EXACT_WEIGHT_LIMIT = 64


def full_rank_prob(k: int, r: int, q: int = 2) -> float:
    """Probability that r uniform random GF(q) combinations of k unknowns have rank k.

    prod_{j=0}^{k-1} (1 - q^(j-r)); 1 for k == 0 (empty product), 0 for r < k.
    The value is exactly that of the float loop over j = 0..k-1, multiplying
    by ``1.0 - float(q) ** (j - r)``. It is read from the per-q table of
    ``_rank_rows`` rather than looped: the factors with r - j >= T(q), where
    ``1.0 - q**-(r-j)`` rounds to exactly 1.0, leave the product unchanged,
    so W(k, k + e) depends only on e and min(k, T(q) - 1 - e). The table is
    built once per q and kept for the process; nothing else is cached.
    """
    _check_field(q)
    if k < 0 or r < 0:
        raise ValueError("counts must be non-negative")
    if k == 0:
        return 1.0
    if r < k:
        return 0.0
    return _rank_lookup(_rank_rows(q), k, r - k)


def cond_full_decode_prob(k: int, r: int, n: int, q: int = 2) -> float:
    """Probability of recovering all k source packets of the systematic scheme,
    given that exactly r of the n transmitted packets arrived.

    The r arrivals are a uniform r-subset of the n sends; conditioning on the
    number h of systematic packets among them, the k - h missing packets must
    be solvable from the r - h received coded ones:

        [ C(n-k, r-k) + sum_{h=h_min}^{k-1} C(k,h) C(n-k, r-h) W(k-h, r-h) ]
          / C(n, r),    h_min = max(0, r - n + k)

    with W the full-rank probability above. Each binomial ratio is an exact
    integer quotient rounded once, so the result is accurate for any n.
    """
    _check_field(q)
    if not 1 <= k <= r <= n:
        raise ValueError(f"need 1 <= k <= r <= n, got k={k}, r={r}, n={n}")
    return _cond_full(k, r, n, _comb_row(k), _comb_row(n - k), _rank_rows(q))


def cond_full_decode_probs(k: int, n: int, q: int = 2) -> list[float]:
    """``cond_full_decode_prob(k, r, n, q)`` for r = k..n, in that order, with
    the binomial rows C(k, .) and C(n-k, .) built once for the whole list."""
    _check_field(q)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    ck, cnk, rows = _comb_row(k), _comb_row(n - k), _rank_rows(q)
    return [_cond_full(k, r, n, ck, cnk, rows) for r in range(k, n + 1)]


def full_decode_prob(k: int, n: int, p: float, q: int = 2) -> float:
    """Probability that a systematic-scheme receiver recovers all k packets
    after n transmissions over an erasure channel with loss probability p."""
    [prob] = full_decode_probs(k, n, (p,), q)
    return prob


def full_decode_probs(k: int, n: int, ps, q: int = 2) -> list[float]:
    """``full_decode_prob(k, n, p, q)`` for each p of ``ps``; the conditional
    probabilities given each receive count are computed once for all of them."""
    for p in ps:
        _check_erasure(p)
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    cond = cond_full_decode_probs(k, n, q)
    return [_channel_average(n, k, p, cond) for p in ps]


def partial_decode_prob_approx(
    k: int, m: int, n: int, p: float, q: int = 2
) -> float:
    """Small-p approximation for recovering at least m of k source packets.

    Counts only the min(k, n) transmitted systematic packets: for small p
    the m recovered packets are almost surely systematic, so the probability
    reduces to a binomial tail. For m == k <= n the exact full-recovery
    expression is used instead (the approximation is stated for m < k only).
    When m exceeds min(k, n) the approximation can never reach the threshold,
    and the tail is empty: the result is 0.
    """
    _check_erasure(p)
    if not 1 <= m <= k:
        raise ValueError(f"need 1 <= m <= k, got m={m}, k={k}")
    if n < 1:
        raise ValueError("need n >= 1")
    n_min = min(k, n)
    if m == k <= n:
        return full_decode_prob(k, n, p, q)
    return _channel_average(n_min, m, p, [1.0] * (n_min - m + 1))


def sf_full_decode_prob(k: int, n: int, p: float, q: int = 2) -> float:
    """Full-recovery probability of the straightforward scheme: the receive
    count must reach k and the received uniform random matrix must have full rank."""
    _check_erasure(p)
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    _check_field(q)
    rows = _rank_rows(q)
    ranks = [_rank_lookup(rows, k, e) for e in range(n - k + 1)]
    return _channel_average(n, k, p, ranks)


def ou_partial_decode_prob(k: int, m: int, n: int, p) -> "float | fractions.Fraction":
    """Exact probability that cyclic repetition delivers at least m of k packets
    within n sends.

    Packet i goes out ``(n - i) // k + 1`` times (0 if i > n) and survives
    with probability 1 - p^copies; the recovered count is a sum of
    independent non-identical Bernoullis, evaluated with the standard
    Poisson-binomial dynamic program and summed as a left fold from count m
    up. Works in whatever arithmetic ``p`` supports (float or Fraction).
    """
    [[prob]] = ou_partial_decode_sweep(k, (m,), n, n, p)
    return prob


def ou_partial_decode_sweep(k: int, ms, n_lo: int, n_hi: int, p):
    """``ou_partial_decode_prob(k, m, n, p)`` for each m of ``ms``, for
    n = n_lo..n_hi, in that order: an iterator of one list per n, each
    computed as it is read, all read from one distribution of the recovered
    count. The arguments are checked when it is called.

    Bit-identical to one full dynamic program per n, but the DP state before
    the packet that n's send repeats is carried over from n - 1, counts
    that cannot reach min(ms) are dropped, and the packets not yet sent are
    one shift (see the module docstring).
    """
    for m in ms:
        if not 1 <= m <= k:
            raise ValueError(f"need 1 <= m <= k, got m={m}, k={k}")
    if not 1 <= n_lo <= n_hi:
        raise ValueError(f"bad N range [{n_lo}, {n_hi}]")
    _check_erasure(p)
    return _ou_sweep(k, ms, n_lo, n_hi, p)


def _ou_sweep(k: int, ms, n_lo: int, n_hi: int, p):
    m_lo = min(ms, default=k)
    # Packet t keeps count 0 while t <= k - m_lo; each later packet drops the
    # lowest count, so the final state holds counts m_lo..k.
    keep_zero = k - m_lo

    def survive(i: int, n: int):
        copies = (n - i) // k + 1 if i <= n else 0
        return 1 - p**copies if copies else 0

    prefix = [1]  # the DP state after packets 1..i-1, i = ((n - 1) mod k) + 1
    for t in range(1, (n_lo - 1) % k + 1):
        prefix = _pb_step(prefix, survive(t, n_lo), t <= keep_zero)
    for n in range(n_lo, n_hi + 1):
        i = (n - 1) % k + 1  # the one packet whose copy count n - 1 -> n raises
        dist = _pb_step(prefix, survive(i, n), i <= keep_zero)
        prefix = dist if i < k else [1]
        for t in range(i + 1, min(n, k) + 1):
            dist = _pb_step(dist, survive(t, n), t <= keep_zero)
        if n < k:
            # Packets n+1..k are not yet sent: s = 0. Each such step keeps
            # every entry (x * 1 + y * 0 == x for finite x, y) and appends
            # dist[-1] * 0; a packet past keep_zero also drops the lowest.
            unsent = [dist[-1] * 0] * (k - n)
            dist = (dist + unsent)[k - max(n, keep_zero):]
        tails = [_tail(dist, m - m_lo) for m in ms]
        # the DP can overshoot 1 by an ulp
        yield [min(max(x, 0.0), 1.0) if isinstance(x, float) else x for x in tails]


def _pb_step(dist: list, s, keep_low: bool) -> list:
    """One packet of the Poisson-binomial program: entry j becomes
    ``dist[j] * stay + dist[j - 1] * s``, the top one ``dist[-1] * s``. Without
    ``keep_low`` the lowest entry, ``dist[0] * stay``, is not computed, so
    the result starts one count higher than ``dist``."""
    stay = 1 - s
    nxt = [dist[0] * stay] if keep_low else []
    nxt.extend([hi * stay + lo * s for hi, lo in zip(dist[1:], dist)])
    nxt.append(dist[-1] * s)
    return nxt


def _tail(dist: list, start: int):
    """dist[start] + dist[start + 1] + ..., a left fold from a zero of the
    entries' own type (``sum`` of floats is compensated since Python 3.12)."""
    acc = dist[0] * 0
    for x in dist[start:]:
        acc = acc + x
    return acc


def decode_prob_ratio(k: int, r: int, n: int, q: int = 2) -> float:
    """How much likelier full recovery from r arrivals is with the systematic
    scheme than with the straightforward one. Exceeds 1 for every finite n
    and tends to 1 as n - k grows."""
    cond = cond_full_decode_prob(k, r, n, q)  # checks 1 <= k <= r <= n first
    # The divisor is W(k, r) >= prod_{j>=1} (1 - 2^-j) > 0.2887 on that domain.
    return cond / full_rank_prob(k, r, q)


# Per-q tables of the rank product, built on first use and kept for the life
# of the process. Each depends on q alone; it is the only state this module
# keeps between calls.
_RANK_TABLES: dict[int, list[list[float]]] = {}


def _rank_rows(q: int) -> list[list[float]]:
    """The float rank products W(c, c + e) of ``full_rank_prob``, as rows[e][c].

    Let T be the least t with ``1.0 - q**-t == 1.0``; larger t give the same
    exact 1.0, since q**-t only shrinks. A factor that is exactly 1.0 changes
    no product, so W(k, k + e) equals the product of its factors with t < T
    only: rows[e][min(k, T - 1 - e)] for e < T, and 1.0 beyond (T is 54 for
    q = 2, 35 for q = 3 and 27 for q = 4). Each row is built from the next by
    rows[e][c + 1] = rows[e + 1][c] * (1 - q^-(e+1)), which is the loop's own
    last multiplication, so every entry is bit-identical to the loop's value.
    """
    rows = _RANK_TABLES.get(q)
    if rows is None:
        t_one = 1
        while 1.0 - float(q) ** -t_one != 1.0:
            t_one += 1
        rows = [[1.0]]  # e = T - 1: every factor is 1.0
        for e in range(t_one - 2, -1, -1):
            factor = 1.0 - float(q) ** -(e + 1)
            rows.append([1.0] + [w * factor for w in rows[-1]])
        rows.reverse()
        _RANK_TABLES[q] = rows
    return rows


def _rank_lookup(rows: list[list[float]], k: int, e: int) -> float:
    """W(k, k + e) from the table ``rows`` of ``_rank_rows``."""
    if e >= len(rows):
        return 1.0
    row = rows[e]
    return row[min(k, len(row) - 1)]


def _comb_row(n: int) -> list[int]:
    return [math.comb(n, i) for i in range(n + 1)]


def _cond_full(
    k: int, r: int, n: int, ck: list[int], cnk: list[int], rows: list[list[float]]
) -> float:
    """``cond_full_decode_prob`` from the binomial rows ck[h] = C(k, h) and
    cnk[s] = C(n - k, s) and the rank table. Every float operation is the
    term-by-term sum's, in its order; W(k - h, r - h) only comes from the
    table, and the sum stops where no remaining term can change it."""
    den = math.comb(n, r)
    e = r - k
    row = rows[e] if e < len(rows) else [1.0]
    w = row + [row[-1]] * (k + 1 - len(row))  # w[j] = W(j, j + e), j = 0..k
    acc = cnk[e] / den
    prev = 0.0
    for h in range(max(0, r - n + k), k):
        quot = ck[h] * cnk[r - h] / den
        # Past-mode cut: no later term can change acc. C(k,h) C(n-k,r-h) is
        # log-concave in h (a hypergeometric pmf), so once it falls it keeps
        # falling. Rounding is monotone, so quot < prev shows the fall, and
        # every later quotient is <= quot; W <= 1, so every later term is <=
        # its quotient. acc never decreases, so each later term stays below
        # half an ulp of the acc it meets and the addition rounds back to acc.
        if quot < prev and quot < math.ulp(acc) / 2:
            break
        acc += quot * w[k - h]
        prev = quot
    return min(acc, 1.0)


def _channel_average(n: int, r_lo: int, p: float, v: list[float]) -> float:
    """min(1, sum over r = r_lo..n of P[r of n arrive] * v[r - r_lo]): v, the
    decoding probability given r arrivals, averaged over the channel. A left
    fold; it skips zero weights, whose 0.0 would not change the sum."""
    total = 0.0
    for r in range(r_lo, n + 1):
        w = _receive_pmf(n, r, p)
        if w:
            total += w * v[r - r_lo]
    return min(total, 1.0)


def _receive_pmf(n: int, r: int, p: float) -> float:
    """P[exactly r of n packets arrive] when each is erased with probability p."""
    if p == 0:
        return 1.0 if r == n else 0.0
    if p == 1:
        return 1.0 if r == 0 else 0.0
    if n <= _EXACT_WEIGHT_LIMIT:
        return math.comb(n, r) * (1.0 - p) ** r * p ** (n - r)
    log_comb = math.lgamma(n + 1) - math.lgamma(r + 1) - math.lgamma(n - r + 1)
    return math.exp(log_comb + r * math.log1p(-p) + (n - r) * math.log(p))


def _check_field(q: int) -> None:
    if q < 2:
        raise ValueError(f"field size q={q} must be at least 2")


def _check_erasure(p: float) -> None:
    if not 0 <= p <= 1:
        raise ValueError(f"erasure probability {p} outside [0, 1]")
