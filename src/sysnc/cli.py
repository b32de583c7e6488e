"""Command-line front end: analysis tables, simulations, delay metrics, benchmarks.

Every subcommand emits CSV (UTF-8, comma-separated, one header row; ``#``
comment lines only before the header) so curves can be re-plotted with any
tool. ``analyze`` and ``simulate`` share key-column encodings and are
join-compatible on (scheme, K, M, N, p). Their rows come from two sources,
``_closed_form_rows`` and ``_simulated_rows``, and ``metrics`` reads the same
two: its N_hat = min{N >= M : P(N) >= P_hat} is a first-N scan over them.

Exit codes: 0 success, 2 configuration error, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
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
# sums at most T(q) <= 54 terms per receive count r < K + T(q) of each N, with
# one big-integer quotient of up to N bits whose binomials start from
# math.comb once per N and step along r. The channel weights read a shared
# lgamma table of at most MAX_CLOSED_FORM_N + 1 entries. The simulator keeps
# counts for every N of its range, so the N cap holds for every subcommand
# that takes one. The K cap also keeps the ratio recurrence's integers exact.
MAX_CLOSED_FORM_K = 10_000
MAX_CLOSED_FORM_N = 100_000


class ConfigError(ValueError):
    """Configuration that violates a precondition of the requested operation."""


# Each config field: its scalar type ("m" and "p" hold tuples of it, given
# comma-separated as flags), its default when missing or None, and the
# subcommands that read it as the flag --<key> (_ written -) or a config key.
_CURVES = ("analyze", "simulate", "metrics")
_FIELDS = {
    "mode": (str, None, ()),  # the subcommand itself
    "scheme": (str, None, _CURVES),
    "k": (int, None, MODES),
    "m": (int, (), _CURVES),
    "n_min": (int, None, ("analyze", "simulate")),
    "n_max": (int, None, _CURVES),
    "p": (float, (), _CURVES),
    "q": (int, 2, ("analyze", "metrics")),
    "trials": (int, None, ("simulate", "metrics", "bench")),
    "seed": (int, None, ("simulate", "metrics", "bench")),
    "p_hat": (float, None, ("metrics",)),
    "out": (str, None, MODES),
    "workers": (int, 1, _CURVES),
}
_LISTS = ("m", "p")
_HELP = {
    "m": "comma-separated thresholds",
    "n": "shorthand for --n-min N --n-max N",
    "p": "comma-separated probabilities",
    "trials": "trials (repetitions for bench)",
}


def _keys(mode: str) -> list[str]:
    """The config keys ``mode`` reads, one per flag but ``--config``: those of
    its fields, and ``n`` wherever it reads the N range ``n`` sets."""
    keys = [key for key, (_, _, modes) in _FIELDS.items() if mode in modes]
    if "n_min" in keys:
        keys.insert(keys.index("n_min"), "n")
    return keys


def _typed(key: str, value):
    kind = _FIELDS[key][0]
    fits = lambda x: type(x) is kind or (kind is float and type(x) is int)
    if key not in _LISTS and fits(value):
        return value
    if key in _LISTS and isinstance(value, (list, tuple)) and all(map(fits, value)):
        return tuple(kind(x) for x in value)
    raise ConfigError(f"config value {key}={value!r} has the wrong type")


class ExperimentConfig(argparse.Namespace):
    """The settings of one run: an attribute per field of ``_FIELDS``, each
    type-checked, at its default when missing or None."""

    def __init__(self, /, **values) -> None:
        unknown = values.keys() - _FIELDS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, (_, default, _) in _FIELDS.items():
            value = values.get(key)
            setattr(self, key, default if value is None else _typed(key, value))


def _no_closed_form(cfg: ExperimentConfig) -> bool:
    """Straightforward recovery of some M < K has no closed form; only the
    simulator estimates it."""
    return cfg.scheme == "straightforward" and any(m < cfg.k for m in cfg.m)


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    """Check ``cfg`` against every rule of its subcommand, and fill in the
    defaults derived from its other fields, so that the ``cmd_*`` functions
    only compute."""
    if cfg.k is None:
        raise ConfigError("--k is required")
    if cfg.k < 1:
        raise ConfigError("K must be at least 1")
    if cfg.q < 2:
        raise ConfigError("q must be at least 2")
    try:
        float(cfg.q)  # the closed forms compute in floats of q
    except OverflowError:
        raise ConfigError("q is too large for a float") from None
    if cfg.workers < 1:
        raise ConfigError("--workers must be at least 1")
    cpus = os.cpu_count() or 1
    if cfg.workers > cpus:
        # The pool would start every worker process at once.
        raise ConfigError(f"--workers {cfg.workers} exceeds the {cpus} CPUs of this host")
    if cfg.out is not None:
        out_dir = os.path.dirname(os.path.abspath(cfg.out))
        if not cfg.out or os.path.isdir(cfg.out) or not os.access(out_dir, os.W_OK):
            raise ConfigError(f"cannot write --out {cfg.out!r}")
    simulates = cfg.mode == "simulate" or (cfg.mode == "metrics" and _no_closed_form(cfg))
    if (simulates or cfg.mode == "bench") and cfg.k > MAX_LENGTH:
        raise ConfigError(f"K={cfg.k} exceeds the decoder limit of {MAX_LENGTH}")
    if cfg.mode in ("analyze", "metrics") and cfg.k > MAX_CLOSED_FORM_K:
        raise ConfigError(
            f"K={cfg.k} exceeds the closed-form limit of {MAX_CLOSED_FORM_K}"
        )
    if cfg.n_max is not None and cfg.n_max > MAX_CLOSED_FORM_N:
        raise ConfigError(f"N={cfg.n_max} exceeds the limit of {MAX_CLOSED_FORM_N}")
    if simulates and cfg.q != 2:
        raise ConfigError(f"the simulator is GF(2) only; q={cfg.q} is not supported")
    if cfg.mode == "bench":
        cfg.trials = DEFAULT_REPETITIONS if cfg.trials is None else cfg.trials
        if cfg.trials < 1:
            raise ConfigError("repetitions (--trials) must be at least 1")
        cfg.seed = cfg.seed or 0
        return cfg
    if cfg.scheme is None:
        raise ConfigError("--scheme is required")
    if cfg.scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {cfg.scheme!r}; expected one of {SCHEMES}")
    if not cfg.m:
        raise ConfigError("--m is required")
    for m in cfg.m:
        if m < 1:
            raise ConfigError("M must be at least 1")
        if m > cfg.k:
            raise ConfigError("M exceeds K")
    if not cfg.p:
        raise ConfigError("--p is required")
    for p in cfg.p:
        if not 0 <= p <= 1:
            raise ConfigError(f"erasure probability {p:g} outside [0, 1]")
    if cfg.mode in ("analyze", "simulate"):
        if cfg.n_min is None or cfg.n_max is None:
            raise ConfigError("--n (or --n-min/--n-max) is required")
        if not 1 <= cfg.n_min <= cfg.n_max:
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
        if cfg.trials is None or cfg.trials < 1:
            raise ConfigError("--trials must be at least 1")
        if cfg.seed is None:
            raise ConfigError("--seed is required (no wall-clock default)")
    elif cfg.trials is not None or cfg.seed is not None:  # only metrics gets here
        raise ConfigError("metrics reads --trials and --seed only for straightforward M < K")
    if cfg.mode == "metrics":
        if cfg.p_hat is None:
            raise ConfigError("--p-hat is required")
        if not 0 < cfg.p_hat <= 1:
            raise ConfigError(f"target probability {cfg.p_hat:g} outside (0, 1]")
        cfg.n_max = SEARCH_CAP_FACTOR * cfg.k if cfg.n_max is None else cfg.n_max
        if cfg.n_max < cfg.k:
            raise ConfigError(f"search cap {cfg.n_max} is below K={cfg.k}")
    return cfg


def _fmt_prob(x: float) -> str:
    return f"{x:.12g}"


def _fmt_p(p: float) -> str:
    return f"{p:g}"


def _closed_form_rows(cfg: ExperimentConfig, ms, n_lo: int, n_hi: int):
    """(M, N, p, probability, kind) of the closed form for each M of ``ms``
    and N in [n_lo, n_hi], computed as it is read: N outermost, so each
    (M, p) comes in ascending N. A row family starts at N = M, or at N = 1
    for ordered-uncoded."""
    assert cfg.scheme and cfg.k
    k, q, scheme = cfg.k, cfg.q, cfg.scheme
    ns = range(n_lo, n_hi + 1)
    if scheme == "ordered-uncoded":
        for n in ns:
            for p in cfg.p:
                for m, prob in zip(ms, analysis.ou_partial_decode_probs(k, ms, n, p)):
                    yield m, n, p, prob, "exact"
        return
    # The M < K approximation reads N only through min(K, N), so one value
    # per (M, p, min(K, N)) serves every N of this call.
    approx: dict[tuple[int, float, int], float] = {}
    # N outermost: each N's conditional decoding probabilities serve every p.
    for n in ns:
        ms_n = [m for m in ms if n >= m]
        if not ms_n:
            continue
        full = [None] * len(cfg.p)
        if k in ms_n and scheme == "straightforward":  # every M is K
            full = [analysis.sf_full_decode_prob(k, n, p, q) for p in cfg.p]
        elif k in ms_n:
            full = analysis.full_decode_probs(k, n, cfg.p, q)
        for p, full_p in zip(cfg.p, full):
            for m in ms_n:
                if m == k:
                    yield m, n, p, full_p, "exact"
                    continue
                key = (m, p, min(k, n))
                if key not in approx:
                    approx[key] = analysis.partial_decode_prob_approx(k, m, n, p, q)
                yield m, n, p, approx[key], "approx"


def _simulated_rows(cfg: ExperimentConfig, ms, n_lo: int, n_hi: int):
    """(M, N, p, estimate) of the simulation for each M of ``ms`` and N in
    [n_lo, n_hi]: one set of trials per p, each (M, p) in ascending N."""
    assert cfg.scheme and cfg.k and cfg.trials is not None and cfg.seed is not None
    for p in cfg.p:
        counts = run_trials(
            cfg.scheme, cfg.k, list(ms), (n_lo, n_hi), p, cfg.seed, cfg.trials,
            workers=cfg.workers,
        )
        for m, m_counts in zip(ms, counts):
            for n, count in zip(range(n_lo, n_hi + 1), m_counts):
                yield m, n, p, count / cfg.trials


def _first_n(rows, p_hat: float, columns: int) -> dict[tuple[int, float], int]:
    """(M, p) -> the first N >= M at which ``rows`` reach p_hat. The scan
    stops once all ``columns`` distinct (M, p) have."""
    found: dict[tuple[int, float], int] = {}
    for m, n, p, prob, *_ in rows:
        if prob >= p_hat and n >= m and (m, p) not in found:
            found[m, p] = n
            if len(found) == columns:
                break
    return found


def cmd_analyze(cfg: ExperimentConfig) -> list[str]:
    assert cfg.scheme and cfg.k and cfg.n_min and cfg.n_max
    rows = _closed_form_rows(cfg, cfg.m, cfg.n_min, cfg.n_max)
    lines = ["scheme,K,M,N,p,q,prob,kind"]
    lines.extend(
        f"{cfg.scheme},{cfg.k},{m},{n},{_fmt_p(p)},{cfg.q},{_fmt_prob(prob)},{kind}"
        for m, n, p, prob, kind in sorted(rows, key=lambda r: r[:3])
    )
    return lines


def cmd_simulate(cfg: ExperimentConfig) -> list[str]:
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


def cmd_metrics(cfg: ExperimentConfig) -> list[str]:
    assert cfg.scheme and cfg.k and cfg.p_hat and cfg.n_max
    k, p_hat = cfg.k, cfg.p_hat
    cell = lambda v: "unreachable" if v is None else str(v)
    ps = len(set(cfg.p))
    # Full recovery does not depend on M; for M = K it is the partial value too.
    n_fulls = _first_n(_closed_form_rows(cfg, (k,), k, cfg.n_max), p_hat, ps)
    # The M < K targets are a scan of their own, so that a target never reached
    # (the approximation's plateau) does not keep the full-recovery rows
    # computing. Recovering all K packets recovers any M, so once every full
    # target is found, the partial scan reads nothing past the last of them.
    partial = sorted({m for m in cfg.m if m < k})
    n_hi = max(n_fulls.values()) if len(n_fulls) == ps else cfg.n_max
    source = _simulated_rows if _no_closed_form(cfg) else _closed_form_rows
    scan = source(cfg, partial, partial[0], n_hi) if partial else ()
    n_partials = _first_n(scan, p_hat, len(partial) * ps)
    rows = []
    for p in cfg.p:
        n_full = n_fulls.get((k, p))
        for m in cfg.m:
            # N_hat_full bounds N_hat_partial: where the approximation plateaus
            # below P_hat, or a simulated estimate's sampling noise lags. So
            # delta_N is never negative, and unreachable exactly when N_hat_full is.
            n_partial = min(filter(None, (n_partials.get((m, p)), n_full)), default=None)
            delta = None if n_full is None else n_full - n_partial
            rows.append((m, p, cell(n_partial), cell(n_full), cell(delta)))
    lines = ["scheme,K,M,p,P_hat,N_hat_partial,N_hat_full,delta_N"]
    lines.extend(
        f"{cfg.scheme},{k},{m},{_fmt_p(p)},{_fmt_p(p_hat)},{np},{nf},{dn}"
        for m, p, np, nf, dn in sorted(rows, key=lambda r: r[:2])
    )
    return lines


def cmd_bench(cfg: ExperimentConfig) -> list[str]:
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


def _comma_list(kind):
    parse = lambda text: tuple(kind(x) for x in text.split(","))
    parse.__name__ = f"comma-separated {kind.__name__}"  # argparse's error names it
    return parse


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
        for key in _keys(mode):
            kind = _FIELDS["n_max" if key == "n" else key][0]
            if key in _LISTS:
                kind = _comma_list(kind)
            choices = SCHEMES if key == "scheme" else None
            sp.add_argument(f"--{key.replace('_', '-')}", type=kind, choices=choices,
                            help=_HELP.get(key))
        sp.add_argument("--config", dest="config_file")
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    file_values: dict = {}
    if args.config_file:
        import json  # only a --config run reads JSON

        try:
            with open(args.config_file, encoding="utf-8") as fh:
                file_values = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            # ValueError covers malformed JSON and bytes that are not UTF-8;
            # RecursionError, JSON nested deeper than the parser recurses.
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError("config file must hold a JSON object")
        unread = sorted(set(file_values) - set(_keys(args.mode)))
        if unread:
            raise ConfigError(f"config keys not read by {args.mode}: {unread}")
    flag_values = {
        key: value for key, value in vars(args).items()
        if key != "config_file" and value is not None
    }
    merged = {**_read_n(file_values), **_read_n(flag_values), "mode": args.mode}
    return _validate(ExperimentConfig(**merged))


def _read_n(values: dict) -> dict:
    """``values`` with its ``n`` read as ``--n`` is: as both ``n_min`` and
    ``n_max``, which it may not be given beside."""
    n = values.pop("n", None)
    if n is None:
        return values
    if type(n) is not int:
        raise ConfigError(f"config value n={n!r} has the wrong type")
    if values.get("n_min") is not None or values.get("n_max") is not None:
        raise ConfigError("--n conflicts with --n-min/--n-max")
    return {**values, "n_min": n, "n_max": n}


def run(cfg: ExperimentConfig) -> str:
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
