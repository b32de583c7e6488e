"""Command-line front end: analysis tables, simulations, delay metrics, benchmarks.

Every subcommand emits CSV (UTF-8, comma-separated, one header row; ``#``
comment lines only before the header) so curves can be re-plotted with any
tool. ``analyze`` and ``simulate`` share key-column encodings and are
join-compatible on (scheme, K, M, N, p). Their rows come from two sources,
``_closed_form_rows`` (the closed forms of given (M, p) columns at one N) and
``_simulated_rows``, and ``metrics`` reads the same two: its
N_hat = min{N >= M : P(N) >= P_hat} comes from one loop up N that asks at
each N only for the (M, p) and full-recovery (K, p) columns still live. A
column ends at its first N with P >= P_hat, or where (K, p) does, since full
recovery recovers any M.

The run config is the parsed flags: ``build_parser`` gives every subcommand
the flags it takes, and argparse rejects a command missing a required one.
Each flag's parser checks its value on its own, such as its range, so
``config_from_args`` checks only the rules between flags, or between a flag
and the subcommand.

Exit codes: 0 success, 2 configuration error, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys

from . import analysis
from .codec import SCHEMES
from .gf2 import MAX_LENGTH
from .simulator import bench_decoders, run_trials

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTERRUPTED = 130  # the shell's 128 + SIGINT

MODES = ("analyze", "simulate", "metrics", "bench")
DEFAULT_REPETITIONS = 100
SEARCH_CAP_FACTOR = 8  # metrics mode scans n up to 8k unless --n-max narrows it
# Work-size caps. The systematic closed form (analyze, and metrics' searches)
# sums at most T = 54 terms per receive count r < K + T of each N, with
# one big-integer quotient of up to N bits whose binomials start from
# math.comb once per N and step along r. The channel weights read a shared
# lgamma table of at most MAX_CLOSED_FORM_N + 1 entries. The simulator keeps
# counts for every N of its range, so the N cap holds for every subcommand
# that takes one. The K cap also keeps the ratio recurrence's integers exact.
MAX_CLOSED_FORM_K = 10_000
MAX_CLOSED_FORM_N = 100_000


class ConfigError(ValueError):
    """Configuration that violates a precondition of the requested operation."""


def _comma_list(kind):
    parse = lambda text: tuple(kind(x) for x in text.split(","))
    parse.__name__ = f"comma-separated {kind.__name__}"  # argparse's error names it
    return parse


def _bounded(kind, lo, hi=math.inf, low_open=False):
    """A parser of one ``kind`` value in [lo, hi], or (lo, hi] if ``low_open``,
    where a callable ``hi`` is read at each parse and an inf ``hi`` is no bound."""
    def parse(text):
        value, top = kind(text), hi() if callable(hi) else hi
        if not (lo < value if low_open else lo <= value) or not value <= top:
            shown = text if len(text) <= 24 else f"{text[:20]}..."  # a --p of 400 digits
            raise argparse.ArgumentTypeError(
                f"{shown} outside {'(' if low_open else '['}{_fmt_p(lo)}, {_fmt_p(top)}]")
        return abs(value)  # every lo >= 0: only -0.0, which would print "-0", changes
    parse.__name__ = kind.__name__
    return parse


def _writable(path: str) -> str:
    """``--out``: a path that names a file this process may create or replace."""
    if not path or os.path.isdir(path) or not os.access(
            os.path.dirname(os.path.abspath(path)), os.W_OK):
        raise argparse.ArgumentTypeError(f"cannot write {path!r}")
    return path


# The run config is the parsed flags: a Namespace with the subcommand as
# ``mode`` and, whatever the subcommand, one attribute per key here. Each key
# is the flag --<key> (_ written -): the parser of its value, which checks
# that value on its own (a range, or a writable path), its value when not
# given, and the subcommands that take it. Every subcommand that takes a key
# of _REQUIRED requires it. --n sets both ends of the N range.
_CURVES = ("analyze", "simulate", "metrics")
_FIELDS = {
    "scheme": (str, None, _CURVES),
    "k": (_bounded(int, 1), None, MODES),
    "m": (_comma_list(_bounded(int, 1)), (), _CURVES),
    "n": (_bounded(int, 1, MAX_CLOSED_FORM_N), None, ("analyze", "simulate")),
    "n_min": (_bounded(int, 1, MAX_CLOSED_FORM_N), None, ("analyze", "simulate")),
    "n_max": (_bounded(int, 1, MAX_CLOSED_FORM_N), None, _CURVES),
    "p": (_comma_list(_bounded(float, 0, 1)), (), _CURVES),
    "trials": (_bounded(int, 1), None, ("simulate", "metrics", "bench")),
    "seed": (int, None, ("simulate", "metrics", "bench")),
    "p_hat": (_bounded(float, 0, 1, low_open=True), None, ("metrics",)),
    "out": (_writable, None, MODES),
    # A pool starts every worker process at once.
    "workers": (_bounded(int, 1, lambda: os.cpu_count() or 1), 1, _CURVES),
}
_REQUIRED = {"scheme", "k", "m", "p", "p_hat"}
_HELP = {
    "m": "comma-separated thresholds",
    "n": "shorthand for --n-min N --n-max N",
    "p": "comma-separated probabilities",
    "trials": "trials (repetitions for bench)",
}


def _no_closed_form(cfg: argparse.Namespace) -> bool:
    """Straightforward recovery of some M < K has no closed form; only the
    simulator estimates it."""
    return cfg.scheme == "straightforward" and any(m < cfg.k for m in cfg.m)


def _validate(cfg: argparse.Namespace) -> argparse.Namespace:
    """Check the rules between ``cfg``'s fields, or a field and the subcommand
    (each flag's parser has checked it alone), and fill in the defaults derived
    from other fields, so that the ``cmd_*`` functions only compute."""
    simulates = cfg.mode == "simulate" or (cfg.mode == "metrics" and _no_closed_form(cfg))
    if (simulates or cfg.mode == "bench") and cfg.k > MAX_LENGTH:
        raise ConfigError(f"K={cfg.k} exceeds the decoder limit of {MAX_LENGTH}")
    if cfg.mode in ("analyze", "metrics") and cfg.k > MAX_CLOSED_FORM_K:
        raise ConfigError(f"K={cfg.k} exceeds the closed-form limit of {MAX_CLOSED_FORM_K}")
    if cfg.mode == "bench":
        cfg.trials = DEFAULT_REPETITIONS if cfg.trials is None else cfg.trials
        cfg.seed = cfg.seed or 0
        return cfg
    if max(cfg.m) > cfg.k:
        raise ConfigError("M exceeds K")
    if cfg.mode in ("analyze", "simulate"):
        if cfg.n_min is None or cfg.n_max is None:
            raise ConfigError("--n (or --n-min/--n-max) is required")
        if cfg.n_min > cfg.n_max:
            raise ConfigError(f"bad N range [{cfg.n_min}, {cfg.n_max}]")
    if cfg.mode == "analyze":
        if _no_closed_form(cfg):
            raise ConfigError(
                "straightforward partial recovery has no closed form; use simulate"
            )
        if cfg.scheme != "ordered-uncoded" and max(cfg.m) > cfg.n_max:
            raise ConfigError(f"no valid N in [{cfg.n_min}, {cfg.n_max}] for "
                              f"scheme={cfg.scheme}, M={max(cfg.m)}")
    if simulates:
        if cfg.trials is None:
            raise ConfigError("--trials is required")
        if cfg.seed is None:
            raise ConfigError("--seed is required (no wall-clock default)")
    elif cfg.trials is not None or cfg.seed is not None:  # only metrics gets here
        raise ConfigError("metrics reads --trials and --seed only for straightforward M < K")
    if cfg.mode == "metrics":
        cfg.n_max = SEARCH_CAP_FACTOR * cfg.k if cfg.n_max is None else cfg.n_max
        if cfg.n_max < cfg.k:
            raise ConfigError(f"search cap {cfg.n_max} is below K={cfg.k}")
    return cfg


def _fmt_prob(x: float) -> str:
    return f"{x:.12g}"


def _fmt_p(p: float) -> str:
    """``%g`` where it reads back as ``p``, else ``repr``, so that two p
    never print alike and a row keys the p it was computed at."""
    text = f"{p:g}"
    return text if float(text) == p else repr(p)


def _closed_form_rows(cfg: argparse.Namespace, columns, n: int, approx) -> list:
    """(M, p, probability) of the closed form at N = ``n`` for each (M, p) of
    ``columns``, and no work for any other column. A column starts at N = M;
    ordered-uncoded's also has rows below it, each an exact 0 that costs
    nothing, as fewer than M packets were sent. Straightforward M < K has no
    closed form, and its columns give no rows. ``approx`` is the caller's
    cache of ``analysis.partial_decode_prob_approx``, which reads N only
    through min(K, N), so one value per (M, min(K, N), p) serves every N."""
    assert cfg.scheme and cfg.k
    k, scheme = cfg.k, cfg.scheme
    rows = []
    by_p: dict[float, list[int]] = {}  # p -> the M of its columns computed at N
    for m, p in columns:
        if n >= m and (m == k or scheme != "straightforward"):
            by_p.setdefault(p, []).append(m)
        elif scheme == "ordered-uncoded":
            rows.append((m, p, 0.0))  # fewer than M packets sent
    # Each N's systematic conditional decoding probabilities serve every p,
    # so its (K, p) columns take their values from one call, in by_p's order.
    full_ps = [p for p, ms in by_p.items() if k in ms]
    full = iter(analysis.full_decode_probs(k, n, full_ps)
                if scheme == "systematic" and full_ps else ())
    for p, ms in by_p.items():
        if scheme == "ordered-uncoded":
            probs = analysis.ou_partial_decode_probs(k, ms, n, p)
        elif scheme == "straightforward":  # only its M = K columns got here
            probs = [analysis.sf_full_decode_prob(k, n, p)] * len(ms)
        else:
            at_k = next(full) if k in ms else None
            probs = [at_k if m == k else approx(k, m, min(k, n), p) for m in ms]
        rows.extend(zip(ms, itertools.repeat(p), probs))
    return rows


def _simulated_rows(cfg: argparse.Namespace, ms, n_lo: int, n_hi: int):
    """(M, N, p, estimate) of the simulation for each M of ``ms`` and N in
    [n_lo, n_hi]: one set of trials per distinct p, then N outermost, so each
    (M, p) comes in ascending N."""
    assert cfg.scheme and cfg.k and cfg.trials is not None and cfg.seed is not None
    counts = {p: run_trials(cfg.scheme, cfg.k, list(ms), (n_lo, n_hi), p, cfg.seed,
                            cfg.trials, workers=cfg.workers) for p in dict.fromkeys(cfg.p)}
    for i, n in enumerate(range(n_lo, n_hi + 1)):
        for p in cfg.p:
            for m, m_counts in zip(ms, counts[p]):
                yield m, n, p, m_counts[i] / cfg.trials


def cmd_analyze(cfg: argparse.Namespace) -> list[str]:
    assert cfg.scheme and cfg.k and cfg.n_min and cfg.n_max
    columns = [(m, p) for m in cfg.m for p in cfg.p]
    approx = functools.cache(analysis.partial_decode_prob_approx)
    rows = [(m, n, p, prob) for n in range(cfg.n_min, cfg.n_max + 1)
            for m, p, prob in _closed_form_rows(cfg, columns, n, approx)]
    kind = lambda m: "approx" if cfg.scheme == "systematic" and m < cfg.k else "exact"
    lines = ["scheme,K,M,N,p,q,prob,kind"]  # q, the field size, is always 2
    lines.extend(
        f"{cfg.scheme},{cfg.k},{m},{n},{_fmt_p(p)},2,{_fmt_prob(prob)},{kind(m)}"
        for m, n, p, prob in sorted(rows, key=lambda r: r[:3])
    )
    return lines


def cmd_simulate(cfg: argparse.Namespace) -> list[str]:
    assert cfg.scheme and cfg.k and cfg.n_min and cfg.n_max
    rows = _simulated_rows(cfg, cfg.m, cfg.n_min, cfg.n_max)
    lines = ["scheme,K,M,N,p,trials,seed,prob_sim,stderr"]
    for m, n, p, est in sorted(rows, key=lambda r: r[:3]):
        stderr = (est * (1.0 - est) / cfg.trials) ** 0.5
        lines.append(
            f"{cfg.scheme},{cfg.k},{m},{n},{_fmt_p(p)},{cfg.trials},{cfg.seed},"
            f"{_fmt_prob(est)},{_fmt_prob(stderr)}"
        )
    return lines


def cmd_metrics(cfg: argparse.Namespace) -> list[str]:
    assert cfg.scheme and cfg.k and cfg.p_hat and cfg.n_max
    k, p_hat = cfg.k, cfg.p_hat
    cell = lambda v: "unreachable" if v is None else str(v)
    # Every row prints N_hat_full, so the (K, p) columns are searched too.
    live = {(m, p) for m in (*cfg.m, k) for p in cfg.p}
    n_lo = min(cfg.m)
    simulated = None  # the straightforward M < K rows, one group per N
    if _no_closed_form(cfg):
        partial = sorted({m for m in cfg.m if m < k})
        simulated = itertools.groupby(_simulated_rows(cfg, partial, n_lo, cfg.n_max),
                                      key=lambda row: row[1])
    approx = functools.cache(analysis.partial_decode_prob_approx)
    found: dict[tuple[int, float], int] = {}
    for n in range(n_lo, cfg.n_max + 1):
        rows = _closed_form_rows(cfg, live, n, approx)
        if simulated is not None:
            rows += [(m, p, est) for m, _, p, est in next(simulated)[1]]
        # A column ends at its first N >= M with P >= P_hat, or where its
        # (K, p) column ends, since recovering all K packets recovers any M.
        for m, p, prob in rows:
            if prob >= p_hat and n >= m and (m, p) in live:
                ended = [c for c in live if c[1] == p] if m == k else [(m, p)]
                found.update(dict.fromkeys(ended, n))
                live.difference_update(ended)
        if not live:
            break
    lines = ["scheme,K,M,p,P_hat,N_hat_partial,N_hat_full,delta_N"]
    for m, p in sorted((m, p) for p in cfg.p for m in cfg.m):
        n_partial, n_full = found.get((m, p)), found.get((k, p))
        # N_hat_partial <= N_hat_full, so delta_N is never negative, and
        # unreachable exactly when N_hat_full is.
        delta = None if n_full is None else n_full - n_partial
        lines.append(f"{cfg.scheme},{k},{m},{_fmt_p(p)},{_fmt_p(p_hat)},"
                     f"{cell(n_partial)},{cell(n_full)},{cell(delta)}")
    return lines


def cmd_bench(cfg: argparse.Namespace) -> list[str]:
    assert cfg.k and cfg.trials is not None and cfg.seed is not None
    # Rows come by decoder ("ge", then "gepd"), then K.
    results = bench_decoders(list(range(1, cfg.k + 1)), cfg.trials, seed=cfg.seed)
    lines = [
        "# timing values are hardware-relative; compare decoders within one run only",
        "decoder,K,median_ns,p25_ns,p75_ns,repetitions",
    ]
    lines.extend(",".join(map(str, r)) for r in results)
    return lines


_COMMANDS = {
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "metrics": cmd_metrics,
    "bench": cmd_bench,
}


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a ConfigError, so that ``main``
    prints it as its one ``config error:`` line and exits 2."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sysnc",
        description="Binary network-coding toolkit: analysis, simulation, "
        "delay metrics and decoder benchmarks, all emitting CSV.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        sp = sub.add_parser(mode, allow_abbrev=False)
        for key, (kind, _, modes) in _FIELDS.items():
            if mode in modes:
                sp.add_argument(f"--{key.replace('_', '-')}", type=kind, help=_HELP.get(key),
                                required=key in _REQUIRED,
                                choices=SCHEMES if key == "scheme" else None)
        sp.set_defaults(**{key: default for key, (_, default, _) in _FIELDS.items()})
    return parser


def config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """``args``, parsed by ``build_parser``, validated as the run config, with
    ``--n`` read as both ``n_min`` and ``n_max``, which it may not stand beside."""
    if args.n is not None:
        if args.n_min is not None or args.n_max is not None:
            raise ConfigError("--n conflicts with --n-min/--n-max")
        args.n_min = args.n_max = args.n
    return _validate(args)


def run(cfg: argparse.Namespace) -> str:
    lines = _COMMANDS[cfg.mode](cfg)
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = config_from_args(build_parser().parse_args(argv))
        text = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    try:  # validation cannot foresee a full device or a closed pipe
        if cfg.out is not None:
            with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        elif sys.stdout is None:
            raise OSError("stdout is closed")
        else:
            print(text, end="", flush=True)
    except OSError as exc:
        where = "stdout" if cfg.out is None else f"--out {cfg.out!r}"
        print(f"config error: cannot write {where}: {exc}", file=sys.stderr)
        if cfg.out is None and sys.stdout is not None:  # exit flushes it to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
