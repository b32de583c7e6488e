"""Smoke test of the experiment scripts the README documents: each runs at a
tiny size and writes its CSVs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,args,outputs",
    [
        ("scheme_metrics.py", ["--k", "4", "--trials", "50"], ["scheme_metrics.csv"]),
    ],
    ids=["scheme_metrics"],
)
def test_script_writes_csv(script, args, outputs, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        lines = (tmp_path / name).read_text(encoding="utf-8").splitlines()
        assert len(lines) >= 2 and "," in lines[-1], (name, lines)
