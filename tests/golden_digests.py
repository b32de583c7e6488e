"""Frozen sha256 digests of the CSV output of small fixed CLI configs.

A refactor that keeps these digests keeps the ``analyze``, ``simulate`` and
``metrics`` bytes. Rewrite a digest only for an intended output change, and
say why in CHANGES.md. ``tests/test_golden.py`` checks every digest, and the
digests of one unit of each benchmark workload against
``perfbench/golden.json``; so does running this module, under any interpreter
and without pytest:

    PYTHONPATH=src python tests/golden_digests.py

which prints one line per mismatch and exits 1 if there is any.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from sysnc.cli import EXIT_OK, main

_SIM = ("--k", "12", "--m", "6,12", "--n-min", "12", "--n-max", "20",
        "--p", "0,0.1,0.4", "--trials", "1000", "--seed", "20150501")
_ANA = ("--k", "12", "--n-min", "12", "--n-max", "24", "--p", "0.1,0.3")
_PAPER_ROW = ("--k", "20", "--m", "10,20", "--p", "0.1", "--p-hat", "0.7")
# Wide enough that the rank products reach excess r - k >= 53, where every
# factor of the GF(2) product rounds to 1.0, and n > 64, where the channel
# weights switch to log space.
_ANA_WIDE = ("--k", "30", "--n-min", "60", "--n-max", "100", "--p", "0.1,0.3")

GOLDEN = {
    "analyze-systematic": (
        ("analyze", "--scheme", "systematic", "--m", "6,12", *_ANA),
        "c01e1418c9475447d08754c37d29ed41d3f1c118aaef4172c781afaa4ac136b2",
    ),
    "analyze-straightforward": (
        ("analyze", "--scheme", "straightforward", "--m", "12", *_ANA),
        "36cba6283992bdd8afcad2e882e7929c4e4265b08a64f9f77b12136ea764efc3",
    ),
    "analyze-ordered-uncoded": (
        ("analyze", "--scheme", "ordered-uncoded", "--m", "6,12", *_ANA),
        "550698edbe5edb9c7e8c9bf392a51fe68fed9a7daaa2600ceb2acea1835f56cb",
    ),
    "analyze-systematic-wide": (
        ("analyze", "--scheme", "systematic", "--m", "15,30", *_ANA_WIDE),
        "89eadc63a6a5433dbaf7318dc23a67b858e1b6425c63dbc8aee9e253ab2b810b",
    ),
    "analyze-straightforward-wide": (
        ("analyze", "--scheme", "straightforward", "--m", "30", *_ANA_WIDE),
        "a817c61a64ec5ed81f96a7e59f2cf41c8bb6375e93e4cfc3808fbb3e18854e9f",
    ),
    # N runs from below K across the wraps at N = K, 2K and 3K, where the
    # copy count of every packet has grown by one.
    "analyze-ordered-uncoded-wide": (
        ("analyze", "--scheme", "ordered-uncoded", "--k", "10", "--m", "1,5,10",
         "--n-min", "1", "--n-max", "35", "--p", "0,0.1,0.5"),
        "5e8ad6384b1be57066c9eea6d8ca160b9963e769ed38c0b4c3c3f6d0a2a7776a",
    ),
    # The M < K approximation rows run from N < K to N well past K, where
    # they read N only through min(K, N).
    "analyze-systematic-partial": (
        ("analyze", "--scheme", "systematic", "--k", "60", "--m", "30,60",
         "--n-min", "40", "--n-max", "130", "--p", "0.1,0.3"),
        "994ea66f1174143e0b790b4fc19fc4b2604e22066acd6c5686d76a8c38dbc7fc",
    ),
    # The same past n = 64, with M up to K - 1 and p down to 1e-5: the
    # approximation is ordered-uncoded's tail at min(K, N), whose 12 printed
    # digits here are those of the exact binomial tail.
    "analyze-systematic-partial-k150": (
        ("analyze", "--scheme", "systematic", "--k", "150", "--m", "1,75,140,149",
         "--n-min", "100", "--n-max", "200", "--p", "1e-5,0.3,0.5,0.9"),
        "3ac6651ea9bcedb71aa03099b2babdb434ce9d168e90f95e622b6ebc8eac8200",
    ),
    "simulate-systematic": (
        ("simulate", "--scheme", "systematic", *_SIM),
        "73c38f4d49dfc8f5b7621763f06d28970c2cf2dd9721bf0faddda1edcd2a1c2e",
    ),
    "simulate-straightforward": (
        ("simulate", "--scheme", "straightforward", *_SIM),
        "5a80b4b7617bc463d098298f07dc9ee0944549b770738886fb49a491e595e3eb",
    ),
    "simulate-ordered-uncoded": (
        ("simulate", "--scheme", "ordered-uncoded", *_SIM),
        "1637ce663e262b650963b690e4a3df60a8e6580913d288ad8302605f83da4c5a",
    ),
    "metrics-systematic": (
        ("metrics", "--scheme", "systematic", *_PAPER_ROW),
        "c0009f4f813f898774b7e8cabd8499e83facff546e4ff8f4bf8f63d8ce238c5c",
    ),
    # Holds the paper's row ordered-uncoded,20,10,0.1,0.7,12,39,27.
    "metrics-ordered-uncoded": (
        ("metrics", "--scheme", "ordered-uncoded", *_PAPER_ROW),
        "52fd781da787a7b8394d49f571e480bae8bed0e070e4c92c8eb4a75de3f7a443",
    ),
    # P_hat = 0.99 at p = 0.3 takes the search past n = 64.
    "metrics-systematic-p99": (
        ("metrics", "--scheme", "systematic", "--k", "40", "--m", "20,40",
         "--p", "0.1,0.3", "--p-hat", "0.99"),
        "3d0c0c4305b2450e556fd0fa3369f1642ddef4f9fec568629fa551205d8bd49c",
    ),
    # M < K: the partial column comes from simulation.
    "metrics-straightforward": (
        ("metrics", "--scheme", "straightforward", "--k", "8", "--m", "4,8",
         "--p", "0.1", "--p-hat", "0.7", "--trials", "1000", "--seed", "7"),
        "e5f0ff6a69af3731d0e39e34e856e633d601a013e18e0308f1b634623d26fed2",
    ),
    # Several M < K at several p: each p's simulated column covers every M.
    "metrics-straightforward-multi-m": (
        ("metrics", "--scheme", "straightforward", "--k", "12", "--m", "3,6,9,12",
         "--p", "0.1,0.3", "--p-hat", "0.7", "--trials", "1000", "--seed", "7"),
        "fe3f09555a3997848762910943a5827a99564427c5619f07c39a3e5d9c3b5521",
    ),
    # P_hat = 0.99 puts each (M, p) target at a different N across the wraps
    # at N = K, 2K, ...
    "metrics-ordered-uncoded-p99-wraps": (
        ("metrics", "--scheme", "ordered-uncoded", "--k", "10", "--m", "3,7,10",
         "--p", "0.05,0.2,0.4", "--p-hat", "0.99"),
        "4360045e978e3ea1865b4ec2f48f6f93c197b701103bd08d600993dbeb93460c",
    ),
    # An --n-max above partial recovery's target and below full recovery's.
    "metrics-systematic-capped": (
        ("metrics", "--scheme", "systematic", "--k", "20", "--m", "10,20",
         "--p", "0.1,0.3", "--p-hat", "0.99", "--n-max", "30"),
        "13fd1d4e4e0dfc940ffbeea3a956cf73155ded0f561f1132c3d7939713473f32",
    ),
    # The M = 19 approximation plateaus below P_hat at both p, so full
    # recovery's N_hat is each M < K target.
    "metrics-systematic-full-caps-partial": (
        ("metrics", "--scheme", "systematic", "--k", "20", "--m", "19,20",
         "--p", "0.1,0.3", "--p-hat", "0.99"),
        "13af504f96cd88afba68ccba8dc17e1c4a37124ae5db2ceec0ac60164a076af2",
    ),
    # The p = 0.02 targets end at N = 12 and 37, the p = 0.6 ones at N = 110.
    "metrics-systematic-targets-far-apart": (
        ("metrics", "--scheme", "systematic", "--k", "30", "--m", "10,30",
         "--p", "0.02,0.6", "--p-hat", "0.99"),
        "60697d9a980c8ca980f0ab42ca1f37a14c3843de0dabfe713f551aa4475b02d8",
    ),
    # Full recovery is unreachable under the cap at both p, M = 5 is not.
    "metrics-ordered-uncoded-full-unreachable": (
        ("metrics", "--scheme", "ordered-uncoded", "--k", "10", "--m", "5,10",
         "--p", "0.1,0.5", "--p-hat", "0.99", "--n-max", "25"),
        "8fad78c595909f1c275e5296695cef58e4d9b492bb6828b17d6e007b31c0a0bc",
    ),
    # At K = 1000 the p = 0.1 full-recovery column ends at N = 5000, and the
    # p = 0.3 one is unreachable, so it scans to the N = 8K cap.
    "metrics-ordered-uncoded-k1000": (
        ("metrics", "--scheme", "ordered-uncoded", "--k", "1000", "--m", "500,1000",
         "--p", "0.1,0.3", "--p-hat", "0.99"),
        "7b922bac59cedbb856877addf433efe3974f439573137d076b42bad65fdf0977",
    ),
    # Simulated M < K at two p: at p = 0.3, M = 5 is reached under the cap
    # and full recovery is not.
    "metrics-straightforward-two-p-capped": (
        ("metrics", "--scheme", "straightforward", "--k", "10", "--m", "5,9,10",
         "--p", "0.05,0.3", "--p-hat", "0.7", "--n-max", "16", "--trials", "400",
         "--seed", "2"),
        "83753279e4ad51e697e2a58a809b523b32e59ba258a04b649519dfde33f00d22",
    ),
    # Full recovery only, so nothing is simulated; p = 1 never reaches P_hat.
    "metrics-straightforward-full": (
        ("metrics", "--scheme", "straightforward", "--k", "16", "--m", "16",
         "--p", "0,0.1,0.3,1", "--p-hat", "0.9"),
        "60dbc1c4005c4010df17baf9254bfbf779e609a61a108aedb08914a1e4f6761c",
    ),
    # Repeated --m and --p values each print their own rows.
    "metrics-ordered-uncoded-repeated": (
        ("metrics", "--scheme", "ordered-uncoded", "--k", "8", "--m", "4,8,4",
         "--p", "0.2,0.1,0.2", "--p-hat", "0.9"),
        "8b2fdb66ca65d9b2618da7fc03f22da0d17a9a5124c8cd19bdd6ee0698865cd8",
    ),
    "metrics-straightforward-repeated": (
        ("metrics", "--scheme", "straightforward", "--k", "6", "--m", "3,6,3",
         "--p", "0.1,0.3,0.1", "--p-hat", "0.7", "--trials", "500", "--seed", "3"),
        "d78e39cc9dc8c4d16fdcc582a2a1c7a3a82611cf08b056a412ca9af7c47926f2",
    ),
    # P_hat = 1 with p = 0 and 1 beside repeats.
    "metrics-systematic-repeated-p-hat-1": (
        ("metrics", "--scheme", "systematic", "--k", "6", "--m", "3,6,3",
         "--p", "0.3,0,0.3,1", "--p-hat", "1", "--n-max", "200"),
        "9136c0f141ec874c401ee2af7d6a4116ddbdddb490e6f163fd263e8f96f2b003",
    ),
    # p = 0 and p = 1 leave one nonzero channel weight per N, in both the
    # M < K approximation and the full-recovery average, past n = 64 too.
    "analyze-systematic-p0-p1": (
        ("analyze", "--scheme", "systematic", "--k", "8", "--m", "3,8",
         "--n-min", "2", "--n-max", "70", "--p", "0,1"),
        "ae1e0eddea580b4a9fe6b460a4ec3d93888933ddc072b069c754bfaa534148f8",
    ),
    "analyze-straightforward-p0-p1": (
        ("analyze", "--scheme", "straightforward", "--k", "8", "--m", "8",
         "--n-min", "8", "--n-max", "70", "--p", "0,1"),
        "9743b4bca1302a1a0a0b8349085d7ab4cbdf37fb713625f83ee830ce7803d574",
    ),
    # An odd trial count, so that two workers get blocks of 500 and 499.
    "simulate-straightforward-odd-trials": (
        ("simulate", "--scheme", "straightforward", "--k", "6", "--m", "3,6",
         "--n-min", "4", "--n-max", "12", "--p", "0.2", "--trials", "999",
         "--seed", "11"),
        "099eabf77a726128365ead68540f08e10b138ea742d728a32ec504d60f1b680e",
    ),
}


def cases():
    """(name, workers) of every check: each simulate config runs with one
    and with two workers, every other config with one."""
    for name in GOLDEN:
        for workers in ((1, 2) if name.startswith("simulate") else (1,)):
            yield name, workers


def run_case(name: str, workers: int) -> tuple[int, str]:
    """The exit code and stdout of the CLI on GOLDEN[name]'s argv."""
    argv, _ = GOLDEN[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--workers", str(workers)])
    return code, out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# The digests of one unit of each benchmark workload at its default seed.
BENCH_GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


def run_bench_unit(name: str) -> tuple[int, list]:
    """The failed checks and the digests of one unit of workload ``name``.
    ``perfbench/workloads.py`` is read from its file, and registered in
    ``sys.modules`` only while it runs, as its dataclasses need."""
    module = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(module, PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[module] = workloads
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[module]
    wl = workloads.WORKLOADS[name]
    checks = workloads.Checks()
    unit = wl.run_unit(wl.prepare(workloads.DEFAULT_SEED), checks)
    return checks.failed, unit.digests


if __name__ == "__main__":
    failed = 0
    for name, workers in cases():
        code, out = run_case(name, workers)
        if code != EXIT_OK or digest(out) != GOLDEN[name][1]:
            failed += 1
            print(f"MISMATCH {name} workers={workers}: exit {code}, sha256 {digest(out)}")
    bench_failed = 0
    for name in sorted(BENCH_GOLDEN):
        checks_failed, digests = run_bench_unit(name)
        if checks_failed or digests != BENCH_GOLDEN[name]:
            bench_failed += 1
            print(f"MISMATCH benchmark unit {name}: {checks_failed} failed checks")
    version = sys.version.split()[0]
    print(f"{failed} of {len(list(cases()))} digests differ under Python {version}")
    print(f"{bench_failed} of {len(BENCH_GOLDEN)} benchmark-unit digest lists differ")
    sys.exit(1 if failed or bench_failed else 0)
