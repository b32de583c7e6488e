"""Frozen output digests. The CLI output of every config in
``golden_digests.GOLDEN`` keeps its sha256 digest, and so does one unit of
each benchmark workload (``perfbench/workloads.py``) at its default seed,
against ``perfbench/golden.json``: an output drift fails here before the
benchmark's own gate sees it. The whole module runs in a few seconds."""

import pytest

from golden_digests import BENCH_GOLDEN, GOLDEN, cases, digest, run_bench_unit, run_case
from sysnc.cli import EXIT_OK


@pytest.mark.parametrize(
    "name,workers", [pytest.param(n, w, id=f"{n}-w{w}") for n, w in cases()]
)
def test_cli_output_digest(name, workers):
    code, out = run_case(name, workers)
    assert code == EXIT_OK
    assert digest(out) == GOLDEN[name][1], out


@pytest.mark.parametrize("name", sorted(BENCH_GOLDEN))
def test_benchmark_unit_digests(name):
    failed, digests = run_bench_unit(name)
    assert failed == 0
    assert digests == BENCH_GOLDEN[name]
