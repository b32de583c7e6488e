"""Closed-form decoding probabilities.

The three transmission schemes are modelled over a packet erasure channel
with loss probability p:

* systematic: exact full-recovery probability (conditional on the receive
  count and averaged over the channel) plus a small-p approximation for
  recovering at least m < k packets: the distinct source packets among the
  first min(k, n) sends, which is ordered-uncoded's tail at min(k, n) sends
  and exact for n <= k;
* straightforward: full-recovery probability from the rank statistics of
  uniform random GF(2) matrices (no closed form exists for its partial
  recovery, which is available through simulation only);
* ordered-uncoded: exact partial recovery as the tail of a sum of two
  binomials, and full recovery, which needs every packet, as the product
  (1 - p^(c+1))^a (1 - p^c)^(k-a) of their top terms, c, a = divmod(n, k).

All probability functions are pure. Systematic and straightforward compute
in floats, and the ``*_exact`` paths over ``fractions.Fraction`` that judge
them live with the other oracles in ``tests/oracles.py``. The rank products,
the channel weights (exact integer binomials up to n = ``_EXACT_WEIGHT_LIMIT``
= 64, and log space above it) and the channel averages are bit-identical to
the plain term-by-term loops their docstrings state, so tables and sweeps may
share work but never reorder a float operation. The systematic conditional sum
is W(k, r) plus at most T = 54 non-negative corrections, each hypergeometric
weight taken from its neighbour by a ratio recurrence from one exact integer
quotient per receive count r, and is judged against the exact sum within a
stated relative bound. Along a row of r the quotient's three binomials are
carried from r to r + 1 by one exact small-integer step each, so
``math.comb`` runs only where the walk starts (``_cond_full``).
Ordered-uncoded, and with it the systematic approximation, is computed in
the arithmetic of p: a ``Fraction`` p gives the exact value, and a float
result is judged against it within a stated relative bound, also near p = 1,
where a float 1 - p^c would cancel and is taken from ``expm1`` and ``log1p``
instead (``_survives``).

The rank product W(k, r) = prod_{t=r-k+1}^{r} (1 - 2^-t) is read from a
table: from t = T = 54 on, ``1.0 - 2.0**-t`` rounds to exactly 1.0, and
multiplying by an exact 1.0 changes nothing, so only the factors below T
need storing (see ``_rank_rows``). The log-space channel weights read
lgamma(i + 1) from one table grown on demand (``_log_factorials``). Those
two tables of constants are the only state kept between calls. Work shared
across p, M or N (the ``*_probs`` functions) lives inside one call and is
returned, never cached, so repeating a computation repeats its work. Float
sums are written-out left folds: since Python 3.12 the builtin ``sum`` of
floats is compensated and rounds differently from the loop.

Systematic work is skipped where its value is known (``_cond_full``): the
hypergeometric weights sum to exactly 1, so the terms whose W is the
constant W(k, r) need not be added, and the past-mode cut drops terms that
provably cannot change a bit; the arguments are stated there.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading

# Above this n the erasure-channel weights C(n,r)(1-p)^r p^(n-r) switch to
# log space; below it, exact integer binomials keep full double precision.
_EXACT_WEIGHT_LIMIT = 64


def full_rank_prob(k: int, r: int) -> float:
    """Probability that r uniform random GF(2) combinations of k unknowns have rank k.

    prod_{j=0}^{k-1} (1 - 2^(j-r)); 1 for k == 0 (empty product), 0 for r < k.
    The value is exactly that of the float loop over j = 0..k-1, multiplying
    by ``1.0 - 2.0 ** (j - r)``, read from the table of ``_rank_rows``,
    which is built once and kept for the process; nothing else is cached.
    """
    if k < 0 or r < 0:
        raise ValueError("counts must be non-negative")
    if r < k:
        return 0.0
    rows = _rank_rows()
    if r - k >= len(rows):
        return 1.0
    row = rows[r - k]
    return row[min(k, len(row) - 1)]


def cond_full_decode_prob(k: int, r: int, n: int) -> float:
    """Probability of recovering all k source packets of the systematic scheme,
    given that exactly r of the n transmitted packets arrived.

    The r arrivals are a uniform r-subset of the n sends; conditioning on the
    number h of systematic packets among them, the k - h missing packets must
    be solvable from the r - h received coded ones:

        [ C(n-k, r-k) + sum_{h=h_min}^{k-1} C(k,h) C(n-k, r-h) W(k-h, r-h) ]
          / C(n, r),    h_min = max(0, r - n + k)

    with W the full-rank probability above. In floats it is never below
    ``full_rank_prob(k, r)``, and it is exactly 1.0, the correctly rounded
    value, from r - k = T = 54 on, where every W exceeds 1 - 2^-T (T as in
    ``_rank_rows``; ``_cond_full`` gives the terms).
    It is the last entry of ``cond_full_decode_probs``' walk over r from k,
    stopped at r, so it equals that row's entry bit for bit; from r - k =
    T - 1 on, that entry is the walk's padded exact 1.0, returned unwalked.
    """
    if not 1 <= k <= r <= n:
        raise ValueError(f"need 1 <= k <= r <= n, got k={k}, r={r}, n={n}")
    rows = _rank_rows()
    if r - k >= len(rows) - 1:  # past the stop of ``_cond_full``'s walk
        return 1.0
    return _cond_full(k, r, n, rows)[-1]


def cond_full_decode_probs(k: int, n: int) -> list[float]:
    """``cond_full_decode_prob(k, r, n)`` for r = k..n, in that order."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return _cond_full(k, n, n, _rank_rows())


def full_decode_prob(k: int, n: int, p: float) -> float:
    """Probability that a systematic-scheme receiver recovers all k packets
    after n transmissions over an erasure channel with loss probability p."""
    [prob] = full_decode_probs(k, n, (p,))
    return prob


def full_decode_probs(k: int, n: int, ps) -> list[float]:
    """``full_decode_prob(k, n, p)`` for each p of ``ps``; the conditional
    probabilities given each receive count are computed once for all of them."""
    for p in ps:
        _check_erasure(p)
    cond = cond_full_decode_probs(k, n)
    return [_channel_average(n, k, p, cond) for p in ps]


def partial_decode_prob_approx(k: int, m: int, n: int, p) -> "float | fractions.Fraction":
    """Small-p approximation for recovering at least m of k systematic-scheme
    packets after n sends: the probability that at least m distinct source
    packets arrive among the first min(k, n) sends.

    The systematic sender sends the k source packets first, so this is
    ordered-uncoded's recovered count at min(k, n) sends, read from the same
    binomial tail in the arithmetic of ``p`` (a ``Fraction`` p gives the exact
    tail). For n <= k every send is a source packet, so the value is exact;
    for n > k it ignores what the coded packets recover, and so bounds the
    exact value from below. When m exceeds min(k, n) the tail is empty: 0.
    """
    [prob] = ou_partial_decode_probs(k, (m,), min(k, n), p)
    return prob


def sf_full_decode_prob(k: int, n: int, p: float) -> float:
    """Full-recovery probability of the straightforward scheme: the receive
    count must reach k and the received uniform random matrix must have full rank."""
    _check_erasure(p)
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    rows = _rank_rows()
    # W(k, k + e) for e = 0..n - k as ``full_rank_prob`` reads it: from the
    # at most T rows of the table, then exact 1.0.
    ranks = [row[min(k, len(row) - 1)] for row in rows[: n - k + 1]]
    ranks += [1.0] * (n - k + 1 - len(ranks))
    return _channel_average(n, k, p, ranks)


def ou_partial_decode_prob(k: int, m: int, n: int, p) -> "float | fractions.Fraction":
    """Exact probability that cyclic repetition delivers at least m of k
    packets within n sends, in the arithmetic of ``p`` (float or Fraction)."""
    [prob] = ou_partial_decode_probs(k, (m,), n, p)
    return prob


def ou_partial_decode_probs(k: int, ms, n: int, p) -> list:
    """``ou_partial_decode_prob(k, m, n, p)`` for each m of ``ms``, all read
    from one distribution of the recovered count.

    With c, a = divmod(n, k), the first a packets go out c + 1 times and the
    other k - a go out c times (c = 0: not yet sent). A packet is lost only
    if every copy is erased, so the recovered count is X + Y with
    X ~ Bin(a, 1 - p^(c+1)) and Y ~ Bin(k - a, 1 - p^c), and
    P[X + Y >= m] = sum_x P[X = x] P[Y >= m - x], a left fold over x.
    Full recovery needs every packet, so m = k is the product
    (1 - p^(c+1))^a (1 - p^c)^(k-a), whatever else ``ms`` asks; the two
    pmfs are built only when some m < k is asked.
    """
    for m in ms:
        if not 1 <= m <= k:
            raise ValueError(f"need 1 <= m <= k, got m={m}, k={k}")
    if n < 1:
        raise ValueError("need n >= 1")
    _check_erasure(p)
    c, a = divmod(n, k)
    s_more, s_less = _survives(p, c + 1), _survives(p, c)
    full = s_more**a * s_less ** (k - a)
    if all(m == k for m in ms):
        return [full for _ in ms]
    more = _binomial_pmf(a, s_more)
    less = _binomial_pmf(k - a, s_less)
    at_least = list(itertools.accumulate(reversed(less)))[::-1]  # P[Y >= j]
    probs = []
    for m in ms:
        if m == k:
            probs.append(full)
            continue
        acc = more[0] * 0
        for x in range(max(0, m - k + a), a + 1):
            acc = acc + more[x] * at_least[max(m - x, 0)]
        # A float fold can overshoot 1 by an ulp; a Fraction never exceeds
        # 1, so min returns it unchanged.
        probs.append(min(acc, 1.0))
    return probs


def _survives(p, c: int):
    """1 - p^c, the probability that some of c copies is received. For a
    float p < 1 with p^c > 1/2 and c >= 2 the subtraction cancels, so there
    it is -expm1(c log1p(p - 1)), where p > 1/2 makes p - 1 exact (at p = 1
    that form would give -0.0). Everywhere else, and for a ``Fraction`` p,
    it is 1 - p**c as written."""
    power = p**c
    if isinstance(p, float) and c >= 2 and 0.5 < power and p < 1:
        return -math.expm1(c * math.log1p(p - 1))
    return 1 - power


def _binomial_pmf(a: int, s) -> list:
    """P[Bin(a, s) = x] for x = 0..a, in the arithmetic of ``s``.

    1 at the mode, the ratio recurrence P(x + 1) / P(x) = (a - x) s /
    ((x + 1)(1 - s)) out to both ends, then each entry divided by the
    left-fold sum. No entry exceeds the mode's, so nothing overflows for
    any a; entries far in the tails may underflow to 0.
    """
    stay = 1 - s
    mode = min(a, math.floor((a + 1) * s))
    pmf = [0] * (a + 1)
    pmf[mode] = 1
    for x in range(mode, a):  # mode < a only if s < 1
        pmf[x + 1] = pmf[x] * (a - x) * s / ((x + 1) * stay)
    for x in range(mode, 0, -1):  # mode > 0 only if s > 0
        pmf[x - 1] = pmf[x] * x * stay / ((a - x + 1) * s)
    total = s * 0
    for w in pmf:
        total = total + w
    return [w / total for w in pmf]


def decode_prob_ratio(k: int, r: int, n: int) -> float:
    """How much likelier full recovery from r arrivals is with the systematic
    scheme than with the straightforward one: exactly, above 1 for finite n
    and tending to 1 as n - k grows; in floats >= 1.0, and 1.0 from r - k = T = 54."""
    cond = cond_full_decode_prob(k, r, n)  # checks 1 <= k <= r <= n first
    # The divisor is W(k, r) >= prod_{j>=1} (1 - 2^-j) > 0.2887 on that domain.
    return cond / full_rank_prob(k, r)


# Built on first use and kept for the life of the process: the table is a
# constant. With ``_LOG_FACTORIALS`` it is the only state this module keeps
# between calls.
@functools.cache
def _rank_rows() -> list[list[float]]:
    """The float rank products W(c, c + e) of ``full_rank_prob``, as rows[e][c].

    Let T be the least t with ``1.0 - 2.0**-t == 1.0``, which is 54; larger t
    give the same exact 1.0, since 2.0**-t only shrinks. A factor that is
    exactly 1.0 changes no product, so W(k, k + e) equals the product of its
    factors with t < T only: rows[e][min(k, T - 1 - e)] for e < T, and 1.0
    beyond. Each row is built from the next by rows[e][c + 1] = rows[e + 1][c]
    * (1 - 2^-(e+1)), which is the loop's own last multiplication, so every
    entry is bit-identical to the loop's value.
    """
    t_one = 1
    while 1.0 - 2.0 ** -t_one != 1.0:
        t_one += 1
    rows = [[1.0]]  # e = T - 1: every factor is 1.0
    for e in range(t_one - 2, -1, -1):
        factor = 1.0 - 2.0 ** -(e + 1)
        rows.append([1.0] + [w * factor for w in rows[-1]])
    rows.reverse()
    return rows


def _cond_full(k: int, r_hi: int, n: int, rows: list[list[float]]) -> list[float]:
    """``cond_full_decode_prob(k, r, n)`` for r = k..r_hi, from the rank
    table ``rows``: one walk along r, always started at r = k.

    With e = r - k and L = min(k, T - 1 - e), W(k - h, r - h) is the constant
    W_inf = rows[e][L] = W(k, r) for every h <= k - L, and the hypergeometric
    terms H(h) = C(k,h) C(m,r-h) / C(n,r), m = n - k, sum to exactly 1, so

        cond = W_inf + sum_{h > k - L} H(h) (W(k - h, r - h) - W_inf):

    at most L terms, each correction in [0, 1] since no table row rises. Only
    the largest of them, at the mode clamped into the window, is an exact
    integer quotient rounded once (H(k) = C(m,e) / C(n,r) underflows to 0.0
    at large k, as at k = 2000, n = 2600). Every other H(h) follows from its
    neighbour towards that anchor by the ratio

        H(h + 1) / H(h) = (k - h)(r - h) / ((h + 1)(m - r + h + 1)),

    one float multiplication by the integer numerator and one division by
    the integer denominator. Both are at most (k + 1)(n + 1), below 2^52 at
    every size the CLI accepts, so each is exact as a float, and a term d
    steps from the anchor carries at most 2d + 1 roundings.

    The anchor's three integers C(k, h0), C(m, r - h0) and C(n, r) come from
    ``math.comb`` at r = k only; each later r takes them from r - 1 by one
    exact multiply and floor division, so the quotient, and every bit of the
    result, is that of fresh binomials.
    """
    m = n - k
    # From e = T - 1 on every W, and so cond, is exactly 1.0.
    stop = min(r_hi, k + len(rows) - 2)
    out = []
    for r in range(k, stop + 1):
        row = rows[r - k]
        last = min(k, len(row) - 1)  # L
        w_inf, lo = row[last], max(k + 1 - last, r - m)  # lo: the window's first h
        # The ratio above is >= 1 exactly when (h + 1)(n + 2) <= (k + 1)(r + 1),
        # so H peaks at h = mode. The mode lies in the support [max(0, r - m), k]:
        # mode <= k since r < n + 1, and (k+1)(r+1) - (r-m)(n+2) = (m+1)(n-r+1) > 0.
        h0 = max((k + 1) * (r + 1) // (n + 2), lo)
        if r == k:
            ck, cm, cn = math.comb(k, h0), math.comb(m, r - h0), math.comb(n, r)
        else:
            # From r - 1 to r, h0 = max(mode, lo) rises by 0 or 1: the mode by
            # at most 1 since (k + 1) / (n + 2) < 1, and lo by at most 1 since
            # both its arms, max(1, r - T + 2) and r - m, do. So exactly one of
            # h0 and j = r - h0 rises by 1, and its binomial steps with it.
            cn = cn * (n - r + 1) // r
            if h0 > h_prev:
                ck = ck * (k - h_prev) // h0
            else:
                cm = cm * (m - r + h0 + 1) // (r - h0)
        h_prev = h0
        top = ck * cm / cn
        acc, t = w_inf, top
        for h in range(h0, lo, -1):  # below the mode, when it lies in the window
            t = t * (h * (m - r + h)) / ((k - h + 1) * (r - h + 1))
            acc += t * (row[k - h + 1] - w_inf)
        t = top
        for h in range(h0, k + 1):
            # Past-mode cut: no later term can change acc. From h = mode on, the
            # exact ratio is an integer quotient a/b < 1, so at most 1 - 1/b with
            # b < 2^52, and its two roundings scale it by at most (1 + 2^-53)^2:
            # each computed term is <= the one before it. Each addend is a term
            # times a correction in [0, 1], so once acc + t rounds to acc, every
            # later addend x has 0 <= x <= t, and acc + x rounds to acc as well.
            if acc + t == acc:
                break
            acc += t * (row[k - h] - w_inf)
            t = t * ((k - h) * (r - h)) / ((h + 1) * (m - r + h + 1))
        out.append(min(acc, 1.0))
    out += [1.0] * (r_hi - stop)
    return out


def _channel_average(n: int, r_lo: int, p: float, v: list[float]) -> float:
    """min(1, sum over r = r_lo..n of P[r of n arrive] * v[r - r_lo]): v, the
    decoding probability given r arrivals, averaged over the channel. A left
    fold; it skips zero weights, whose 0.0 would not change the sum."""
    total = 0.0
    for w, x in zip(_receive_pmfs(n, r_lo, p), v):
        if w:
            total += w * x
    return min(total, 1.0)


def _receive_pmfs(n: int, r_lo: int, p: float) -> list[float]:
    """P[exactly r of n packets arrive] for r = r_lo..n, when each is erased
    with probability p: C(n,r) (1-p)^r p^(n-r), from exact integer binomials
    up to n = _EXACT_WEIGHT_LIMIT and in log space above, where log1p(-p) and
    log(p) are evaluated once for the whole row and each lgamma(i + 1) is read
    from the table of ``_log_factorials``."""
    rs = range(r_lo, n + 1)
    if p == 0:
        return [1.0 if r == n else 0.0 for r in rs]
    if p == 1:
        return [1.0 if r == 0 else 0.0 for r in rs]
    if n <= _EXACT_WEIGHT_LIMIT:
        return [math.comb(n, r) * (1.0 - p) ** r * p ** (n - r) for r in rs]
    got, lost = math.log1p(-p), math.log(p)
    lg = _log_factorials(n)
    lg_n = lg[n]
    return [math.exp(lg_n - lg[r] - lg[n - r] + r * got + (n - r) * lost) for r in rs]


# lgamma(i + 1) at i = 0, 1, ..., grown on demand and kept for the life of the
# process, like the rank tables: each entry is a constant of i alone. Growth
# reads the length and then appends, so it holds the lock; readers need not.
_LOG_FACTORIALS: list[float] = []
_LOG_FACTORIALS_GROWING = threading.Lock()


def _log_factorials(n: int) -> list[float]:
    """The table of lgamma(i + 1), grown to hold at least i = 0..n. Each entry
    is the value ``math.lgamma(i + 1)`` returns, whatever order the table grew in."""
    table = _LOG_FACTORIALS
    if len(table) <= n:
        with _LOG_FACTORIALS_GROWING:
            table.extend(map(math.lgamma, range(len(table) + 1, n + 2)))
    return table


def _check_erasure(p: float) -> None:
    if not 0 <= p <= 1:
        raise ValueError(f"erasure probability {p} outside [0, 1]")
