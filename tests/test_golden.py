"""Frozen output digests. The CLI output of every config in
``golden_digests.GOLDEN`` keeps its sha256 digest, and so does one unit of
each benchmark workload (``perfbench/workloads.py``) at its default seed,
against ``perfbench/golden.json``: an output drift fails here before the
benchmark's own gate sees it. The whole module runs in a few seconds."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from golden_digests import GOLDEN, cases, digest, run_case
from sysnc.cli import EXIT_OK

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BENCH_GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


@pytest.mark.parametrize(
    "name,workers", [pytest.param(n, w, id=f"{n}-w{w}") for n, w in cases()]
)
def test_cli_output_digest(name, workers):
    code, out = run_case(name, workers)
    assert code == EXIT_OK
    assert digest(out) == GOLDEN[name][1], out


def load_workloads():
    """``perfbench/workloads.py``, read from its file; it is registered in
    ``sys.modules`` only while it runs, as its dataclasses need."""
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


@pytest.mark.parametrize("name", sorted(BENCH_GOLDEN))
def test_benchmark_unit_digests(name):
    workloads = load_workloads()
    wl = workloads.WORKLOADS[name]
    checks = workloads.Checks()
    unit = wl.run_unit(wl.prepare(workloads.DEFAULT_SEED), checks)
    assert checks.failed == 0
    assert unit.digests == BENCH_GOLDEN[name]
