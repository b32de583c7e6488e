#!/usr/bin/env python3
"""sysnc benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload sim-paper --seed 1 --seconds 20 --trace 0

Run it from a checkout of the repository; it imports sysnc from ``src/``.
Workloads, metric names and units are listed in ``BENCHMARK.json`` at the
root, and ``perfbench/README.md`` says why each exists.

With ``--trace 0`` the run repeats the workload's unit of work for about
``--seconds``, interleaved with a fixed reference kernel and with set-up
measured in fresh processes, and reports the end-to-end metrics. With
``--trace 1`` it runs the unit untraced for half that time, then twice with
every cross-module call wrapped in a span, and reports the per-layer metrics
and the tracing overhead. Both print a readable report followed by one JSON
line. Every output is checked; the run exits 0 only when all checks pass.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
REF_PERIOD = 0.2  # seconds between reference-kernel samples inside long commands


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def host_line() -> str:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (
        f"host: python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
        f"loadavg {load}, commit {commit()}"
    )


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()[:12]
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line[:12]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def probe_setup(args) -> float:
    """Set-up time of one fresh process: import, input generation, warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


# Fixed inputs of the reference kernel.
REF_WORDS = [(i * 0x9E3779B97F4A7C15) & (2**64 - 1) for i in range(1, 301)]
REF_PAYLOADS = [int.from_bytes(hashlib.shake_256(b"%d" % i).digest(1500), "big") for i in range(32)]


def reference_s() -> float:
    """Time a fixed mix of what sysnc spends its time on (about 1 ms): seeding
    and drawing from ``random.Random``, GF(2) elimination of 64-bit words in a
    dict, XOR and byte conversion of 1500-byte integers, and big binomials in
    float products. It never changes, so unit time over its time tracks sysnc
    while most of the host's speed swings cancel (see README.md, "Noise")."""
    start = perf_counter()
    for s in range(6):
        draw = random.Random(s * 7919 + 1).getrandbits
        for _ in range(40):
            draw(64)
    rows: dict[int, int] = {}
    for v in REF_WORDS:
        while v:
            row = rows.get(v.bit_length())
            if row is None:
                rows[v.bit_length()] = v
                break
            v ^= row
    x = 0
    for i in range(200):
        x ^= REF_PAYLOADS[i % 32]
        if i % 20 == 0:
            x = int.from_bytes(x.to_bytes(1500, "big"), "big")
    t = 0.0
    for n in range(120, 140):
        t += math.comb(n, n // 2) / math.comb(n + 1, n // 2) * (1.0 - 2.0 ** -(n % 30))
    return perf_counter() - start


class ReferenceTimer:
    """While active, runs the reference kernel from a SIGALRM handler every
    ``period`` seconds, so that its samples are spread evenly over time,
    through long commands too. ``busy_s`` totals the time the handler took,
    which the caller subtracts from what it timed."""

    def __init__(self, samples: list, period: float) -> None:
        self.samples = samples
        self.period = period
        self.busy_s = 0.0
        self.ticking = False

    def _tick(self, signum, frame) -> None:
        if self.ticking:  # a tick that arrived during a stalled tick
            return
        self.ticking = True
        start = perf_counter()
        self.samples.append(reference_s())
        self.busy_s += perf_counter() - start
        self.ticking = False

    def __enter__(self) -> "ReferenceTimer":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


@dataclass
class Samples:
    units: list = field(default_factory=list)
    unit_s: list = field(default_factory=list)  # per unit, net of the reference timer
    setups: list = field(default_factory=list)  # seconds, one per fresh process
    refs: list = field(default_factory=list)  # seconds, one per reference-kernel run


def time_unit(wl, inputs, checks, timer=None, tracer=None):
    """Run one unit; its time is wall time minus what ``timer`` took."""
    busy = timer.busy_s if timer else 0.0
    began = perf_counter()
    with timer or contextlib.nullcontext():
        unit = wl.run_unit(inputs, checks, tracer)
    return unit, perf_counter() - began - (timer.busy_s - busy if timer else 0.0)


def timed_units(wl, inputs, checks, reference, seconds: float, at_least: int, probe=None):
    """Repeat the unit for about ``seconds`` and at least ``at_least`` times;
    every unit's outputs must match ``reference`` (the first unit's, when
    None). The reference kernel runs between units and, for workloads whose
    commands run long, every REF_PERIOD seconds during them. ``probe``, when
    given, is called SETUP_PROBES times spread evenly over the run, between
    units."""
    out = Samples()
    timer = ReferenceTimer(out.refs, REF_PERIOD)
    start = perf_counter()
    out.refs.append(reference_s())
    # Stop before a unit that would likely end past the deadline, so that
    # long units (analysis-sweep) keep a run close to ``seconds``.
    while len(out.units) < at_least or (
        perf_counter() + (perf_counter() - start) / len(out.units) <= start + seconds
    ):
        if probe is not None:
            due = min(SETUP_PROBES, 1 + int(SETUP_PROBES * (perf_counter() - start) / seconds))
            out.setups.extend(probe() for _ in range(due - len(out.setups)))
        unit, unit_s = time_unit(wl, inputs, checks, timer if wl.long_ops else None)
        out.unit_s.append(unit_s)
        out.refs.append(reference_s())
        reference = compare(wl, unit, reference, checks)
        if out.units:
            unit.texts = []  # only the first unit's outputs are checked further
        out.units.append(unit)
    if probe is not None:
        out.setups.extend(probe() for _ in range(SETUP_PROBES - len(out.setups)))
    return out


def compare(wl, unit, reference, checks):
    if reference is None:
        reference = unit.digests
    for i, (got, want) in enumerate(zip(unit.digests, reference, strict=True)):
        checks.check(got is not None and got == want, f"{wl.name} output {i}: sha256 {got} != {want}")
    return reference


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def end_to_end(wl, run: Samples) -> tuple[dict, list[str]]:
    units, setups, walls = run.units, run.setups, run.unit_s
    wall = statistics.median(walls)
    ref = statistics.median(run.refs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    values = {"setup_s": statistics.median(setups), "cost_ref": wall / ref, "peak_rss_mb": rss_mb}
    named = {"trials": "trials_per_s", "CSV rows": "points_per_s", "generations": "generations_per_s"}
    ref_q = quartiles(run.refs)
    lines = [
        f"setup_s       {values['setup_s']:.4f} s    median of {len(setups)} fresh-process set-ups "
        f"(import, inputs, warm-up); min {min(setups):.4f} max {max(setups):.4f}",
        f"cost_ref      {wall / ref:.3f} ref  median unit time / median reference-kernel time",
        f"wall_s        {wall:.4f} s    median of {len(units)} units; p25 {quartiles(walls)[0]:.4f} "
        f"p75 {quartiles(walls)[2]:.4f} max {max(walls):.4f}",
        f"{named[wl.work_name]:<13} {units[0].work / wall:.2f} 1/s  {units[0].work} {wl.work_name} "
        f"per unit, at the median unit",
        f"reference_s   {ref * 1e3:.3f} ms  median of {len(run.refs)} reference-kernel runs; "
        f"p25 {ref_q[0] * 1e3:.3f} p75 {ref_q[2] * 1e3:.3f}",
        f"peak_rss_mb   {rss_mb:.2f} MB",
    ]
    if wl.work_name == "generations":
        samples = [t * 1e3 for u in units for t in u.gen_s]
        cuts = statistics.quantiles(samples, n=100, method="inclusive")
        goodput = sum(u.payload_bytes for u in units) / sum(samples) * 1e3 / 1e6
        lines += [
            f"gen_decode_ms.p50 {statistics.median(samples):.4f} ms  over {len(samples)} generations",
            f"gen_decode_ms.p99 {cuts[98]:.4f} ms  ({sum(x > cuts[98] for x in samples)} samples above)",
            f"goodput_mb_s  {goodput:.3f} MB/s  recovered source bytes per second, as run",
        ]
    return values, lines


def per_layer(wl, inputs, checks, reference, seconds, spec) -> tuple[dict, list[str]]:
    from tracing import ARRIVAL_CLASSES, Tracer

    plain = timed_units(wl, inputs, checks, reference, seconds / 2, 1)
    reference = reference or plain.units[0].digests
    tracer = Tracer()
    traced = []
    with tracer:
        for _ in range(2):
            tracer.reset()
            unit, unit_s = time_unit(wl, inputs, checks, tracer=tracer)
            compare(wl, unit, reference, checks)
            traced.append((unit_s, *tracer.summary(), tracer.nesting_errors()))
            tracer.reset()  # free the spans before the next unit
    for _, _, counts, nesting in traced:
        arrivals = counts.get("codec.receive_words.calls", 0)
        classified = sum(counts.get(f"codec.receive_words.{c}", 0) for c in ARRIVAL_CLASSES)
        checks.check(nesting == 0, f"{nesting} spans open or outside their parent")
        checks.check(arrivals == classified, f"arrivals {arrivals} != classified {classified}")
        trials, expected = counts.get("trials", 0), wl.expected_trials(inputs)
        checks.check(trials == expected, f"traced trials {trials} != configured {expected}")
    checks.check(traced[0][2] == traced[1][2], "counts differ between the two traced units")

    counts = traced[0][2]
    arrivals = counts.get("codec.receive_words.calls", 0)
    innovative = (counts.get("codec.receive_words.unit_innovative", 0)
                  + counts.get("codec.receive_words.coded_innovative", 0))
    traced_s = statistics.median(t for t, *_ in traced)
    plain_s = statistics.median(plain.unit_s)
    values = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_s":
            values[name] = traced_s - plain_s
        elif name == "codec.innovative_ratio":
            values[name] = innovative / arrivals if arrivals else 0.0
        elif m["unit"] == "s":
            values[name] = statistics.median(times.get(name, 0.0) for _, times, _, _ in traced)
        else:
            values[name] = counts.get(name, 0)
    lines = [f"{n:<44} {v}" for n, v in values.items()]
    lines.append(f"trace.overhead_s: median traced unit {traced_s:.4f} s ({len(traced)} units) "
                 f"minus median untraced unit {plain_s:.4f} s ({len(plain.units)} units)")
    return values, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "sysnc" / "__init__.py").is_file():
        print(f"error: no sysnc sources under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    started = perf_counter()
    sys.path.insert(0, str(src))
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    inputs = wl.prepare(args.seed)
    wl.warm_up(inputs)
    if args.setup_probe:
        print(perf_counter() - started)
        return 0

    checks = workloads.Checks()
    golden = json.loads((HERE / "golden.json").read_text())[wl.name]
    default_seed = args.seed == workloads.DEFAULT_SEED or not wl.seeded
    reference = golden if default_seed else None

    print(f"# sysnc benchmark: workload {wl.name}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"# {host_line()}")
    if args.trace:
        units = None
        values, lines = per_layer(wl, inputs, checks, reference, args.seconds, spec)
        wanted = spec["per_layer"]
    else:
        run = timed_units(wl, inputs, checks, reference, args.seconds, 2,
                          probe=lambda: probe_setup(args))
        units = run.units
        values, lines = end_to_end(wl, run)
        wanted = spec["end_to_end"]

    # Untimed gates: the frozen digests at the default seed, then the
    # workload's own checks on the first unit.
    try:
        if not default_seed:
            compare(wl, wl.run_unit(wl.prepare(workloads.DEFAULT_SEED), checks), golden, checks)
        if units:
            wl.gate(args.seed, units[0], checks)
    except Exception:
        checks.crashed(f"{wl.name} gate")

    for line in lines:
        print(line)
    rate = checks.failed / checks.attempted
    print(f"error_rate    {rate:g}  ({checks.failed} failed of {checks.attempted} checked outputs)")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
