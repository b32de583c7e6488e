"""The four benchmark workloads: inputs made from a seed, one unit of work, and
the checks that every output of a unit is correct.

A unit is a fixed amount of work: the trial, row and generation counts below
are constants, identical on every commit. A run repeats its workload's unit
until its time is up.

Importing this module imports sysnc, so set-up time includes it.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

from sysnc import analysis, cli, codec, simulator

# The seed the frozen digests in golden.json were taken at.
DEFAULT_SEED = 20150501

def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Checks:
    """Counts checked outputs and failed ones; each failure goes to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def crashed(self, what: str) -> None:
        self.check(False, f"{what} raised\n{traceback.format_exc()}")


@dataclass
class Unit:
    """What one unit of work produced."""

    work: int = 0  # trials, CSV rows or generations, per the workload
    digests: list = field(default_factory=list)  # one per output, None if it failed
    texts: list = field(default_factory=list)
    gen_s: list = field(default_factory=list)  # decode-stream: time of each decoded generation
    payload_bytes: int = 0  # decode-stream: source bytes recovered


# -- CLI workloads ------------------------------------------------------------


@dataclass(frozen=True)
class CliWorkload:
    """CLI invocations run in-process through ``cli.config_from_args`` and
    ``cli.run``. With ``trials`` set, every command is a seeded ``simulate``."""

    name: str
    commands: tuple[tuple[str, ...], ...]
    work_name: str
    trials: int | None = None
    warm_commands: tuple[tuple[str, ...], ...] = ()
    long_ops: bool = True  # commands run 0.1 s to several seconds

    @property
    def seeded(self) -> bool:
        return self.trials is not None

    def argvs(self, seed: int, *, trials: int | None = None, workers: int = 1):
        extra = []
        if self.seeded:
            extra = ["--trials", str(trials or self.trials), "--seed", str(seed)]
        return [[*cmd, *extra, "--workers", str(workers)] for cmd in self.commands]

    @staticmethod
    def configs(argvs):
        parser = cli.build_parser()
        return [cli.config_from_args(parser.parse_args(argv)) for argv in argvs]

    def prepare(self, seed: int):
        return seed, self.configs(self.argvs(seed))

    def warm_up(self, inputs) -> None:
        seed, _ = inputs
        if self.seeded:
            argvs = self.argvs(seed, trials=max(1, self.trials // 50))
        else:
            argvs = [[*cmd, "--workers", "1"] for cmd in self.warm_commands]
        for cfg in self.configs(argvs):
            cli.run(cfg)

    def expected_trials(self, inputs) -> int:
        return sum(cfg.trials * len(cfg.p) for cfg in inputs[1] if cfg.mode == "simulate")

    def run_unit(self, inputs, checks: Checks, tracer=None) -> Unit:
        _, configs = inputs
        unit = Unit()
        for op, cfg in enumerate(configs):
            if tracer is not None:
                tracer.op = op
            try:
                text = cli.run(cfg)
            except Exception:
                checks.crashed(f"{self.name} command {op}")
                unit.digests.append(None)
                unit.texts.append(None)
                continue
            unit.digests.append(digest(text))
            unit.texts.append(text)
            if self.seeded:
                unit.work += cfg.trials * len(cfg.p)
            else:
                unit.work += text.count("\n") - 1  # CSV rows below the header
        return unit

    def gate(self, seed: int, first: Unit, checks: Checks) -> None:
        """Checks run once per run, untimed, beyond the digest comparison."""
        if not self.seeded:
            paper = "ordered-uncoded,20,10,0.1,0.7,12,39,27"
            checks.check(
                any(t and paper in t.splitlines() for t in first.texts),
                f"paper row {paper!r} missing from the metrics output",
            )
            return
        for text in first.texts:
            if text is not None:
                tolerance_check(text, checks)
        # The parallel path is checked, not timed: on a 2-core host its wall
        # time varies far more than the serial path's.
        small = min(self.trials, 200)
        one, two = (
            cli.run(self.configs(self.argvs(seed, trials=small, workers=w)[:1])[0])
            for w in (1, 2)
        )
        checks.check(one == two, f"{self.name}: simulate --workers 2 differs from --workers 1")


def tolerance_check(text: str, checks: Checks, z_max: float = 5.0) -> None:
    """Simulated full-recovery estimates (M = K) must lie within z_max binomial
    standard errors of the closed forms. The larger of the standard errors at
    the closed-form value and at the estimate is used, so a point estimated
    at exactly 0 or 1 is not held to a zero-width interval."""
    exact = {
        "systematic": lambda k, n, p: analysis.full_decode_prob(k, n, p),
        "straightforward": lambda k, n, p: analysis.sf_full_decode_prob(k, n, p),
        "ordered-uncoded": lambda k, n, p: analysis.ou_partial_decode_prob(k, k, n, p),
    }
    worst = (0.0, "")
    for line in text.splitlines()[1:]:
        scheme, k, m, n, p, trials, _seed, est, _err = line.split(",")
        if m != k:
            continue
        k, n, p, trials, est = int(k), int(n), float(p), int(trials), float(est)
        ref = float(exact[scheme](k, n, p))
        sigma = max(math.sqrt(ref * (1 - ref) / trials), math.sqrt(est * (1 - est) / trials))
        z = abs(est - ref) / sigma if sigma else (0.0 if est == ref else math.inf)
        worst = max(worst, (z, line))
    checks.check(worst[0] <= z_max, f"estimate {z_max:g}+ stderr from the closed form: {worst}")


SIM_PAPER = CliWorkload(
    "sim-paper",
    tuple(
        ("simulate", "--scheme", s, "--k", "40", "--m", "20,40",
         "--n-min", "40", "--n-max", "80", "--p", "0.1,0.15,0.3")
        for s in codec.SCHEMES
    ),
    work_name="trials",
    trials=100,
)

SIM_DENSE = CliWorkload(
    "sim-dense",
    (("simulate", "--scheme", "straightforward", "--k", "128", "--m", "64,128",
      "--n-min", "128", "--n-max", "160", "--p", "0.1"),),
    work_name="trials",
    trials=25,
)

_K150 = ("--k", "150", "--n-min", "150", "--n-max", "300", "--p", "0.1,0.3")
_PAPER_ROW = ("--k", "20", "--m", "10,20", "--p", "0.1", "--p-hat", "0.7")
ANALYSIS_SWEEP = CliWorkload(
    "analysis-sweep",
    (
        ("analyze", "--scheme", "systematic", "--m", "75,150", *_K150),
        ("analyze", "--scheme", "straightforward", "--m", "150", *_K150),
        ("analyze", "--scheme", "ordered-uncoded", "--m", "75,150", *_K150),
        # P_hat=0.99 at K=40 pushes the search past n=64, where the channel
        # weights switch to log space.
        ("metrics", "--scheme", "systematic", "--k", "40", "--m", "20,40",
         "--p", "0.1,0.15,0.3", "--p-hat", "0.99"),
        ("metrics", "--scheme", "ordered-uncoded", "--k", "40", "--m", "20,40",
         "--p", "0.1,0.15,0.3", "--p-hat", "0.99"),
        ("metrics", "--scheme", "systematic", *_PAPER_ROW),
        ("metrics", "--scheme", "ordered-uncoded", *_PAPER_ROW),
    ),
    work_name="CSV rows",
    warm_commands=(
        ("analyze", "--scheme", "systematic", "--k", "20", "--m", "10,20",
         "--n-min", "20", "--n-max", "40", "--p", "0.1"),
        ("metrics", "--scheme", "ordered-uncoded", *_PAPER_ROW),
    ),
)


# -- decode-stream ------------------------------------------------------------


@dataclass(frozen=True)
class Generation:
    index: int
    scheme: str
    msg: codec.SourceMessage
    source: dict  # index -> payload, what the receiver must recover


@dataclass(frozen=True)
class DecodeWorkload:
    """A receiver decoding whole generations from the packet-object path.

    The sender keeps sending (rateless) until the progressive decoder holds
    all K packets; the batch decoder then runs once on the same arrivals as a
    cross-check. Generations alternate systematic and straightforward.
    """

    name: str = "decode-stream"
    work_name: str = "generations"
    k: int = 64
    payload_len: int = 1500
    p: float = 0.1
    generations: int = 40
    seeded: bool = True
    long_ops: bool = False  # a generation takes a few milliseconds

    def prepare(self, seed: int) -> tuple[int, list[Generation]]:
        gens = []
        for g in range(self.generations):
            rng = random.Random(f"decode-stream|{seed}|{g}")
            packets = tuple(rng.randbytes(self.payload_len) for _ in range(self.k))
            msg = codec.SourceMessage(packets)
            source = {i + 1: pkt for i, pkt in enumerate(packets)}
            gens.append(Generation(g, codec.SCHEMES[g % 2], msg, source))
        return seed, gens

    def warm_up(self, inputs) -> None:
        seed, gens = inputs
        for gen in gens[:2]:
            self._decode(seed, gen)

    def expected_trials(self, inputs) -> int:
        return len(inputs[1])

    def _decode(self, seed: int, gen: Generation):
        k = self.k
        enc_rng = simulator.derive_stream(seed, gen.index, "encoder")
        channel = simulator.derive_stream(seed, gen.index, "channel").random
        encode = codec.SCHEME_ENCODERS[gen.scheme]
        decoder = codec.ProgressiveDecoder(k, self.payload_len)
        received = []
        # Needing 4K sends at p=0.1 has probability far below 2^-100.
        for n in range(1, 4 * k + 1):
            pkt = encode(gen.msg, n, enc_rng)
            if channel() >= self.p:
                decoder.receive(pkt)
                received.append(pkt)
                if decoder.decoded_count == k:
                    break
        batch = codec.full_rank_decode(received, k)
        return n, received, decoder, batch

    def run_unit(self, inputs, checks: Checks, tracer=None) -> Unit:
        seed, gens = inputs
        unit = Unit()
        transcript = []
        for gen in gens:
            if tracer is not None:
                tracer.op = gen.index
            start = perf_counter()
            try:
                sent, received, decoder, batch = self._decode(seed, gen)
            except Exception:
                checks.crashed(f"decode-stream generation {gen.index}")
                continue
            unit.gen_s.append(perf_counter() - start)
            unit.work += 1
            ok = decoder.recovered_payloads == gen.source and batch == gen.source
            if checks.check(ok, f"decode-stream generation {gen.index} recovered wrong payloads"):
                unit.payload_bytes += self.k * self.payload_len
            transcript.append(f"{gen.index},{gen.scheme},{sent},{len(received)}")
        unit.digests.append(digest("\n".join(transcript)))
        return unit

    def gate(self, seed: int, first: Unit, checks: Checks) -> None:
        """Nothing beyond run_unit, which checks every generation."""


DECODE_STREAM = DecodeWorkload()

WORKLOADS = {w.name: w for w in (SIM_PAPER, SIM_DENSE, ANALYSIS_SWEEP, DECODE_STREAM)}
