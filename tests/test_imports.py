"""The package imports only the standard library and itself, so it runs with
no third-party module and none of the oracles under ``tests/``; and a
single-process run imports nothing it does not execute."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sysnc"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_or_sysnc(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            roots = ["sysnc" if node.level else node.module.split(".")[0]]
        else:
            continue
        for root in roots:
            assert root == "sysnc" or root in sys.stdlib_module_names, (
                path.name, node.lineno, root
            )


# Modules that only some runs use: the process pool for --workers > 1,
# statistics for bench, json for --config, fractions for the exact oracles.
LAZY = ("concurrent.futures", "multiprocessing", "statistics", "json", "fractions")
# Modules no run needs: the package's records are plain classes, and its
# annotations are never evaluated. dataclasses would also bring in inspect.
UNUSED = ("dataclasses", "inspect", "typing")

_COLD_RUN = """
import io, sys
from contextlib import redirect_stdout
sys.path.insert(0, {src!r})
from sysnc import cli
with redirect_stdout(io.StringIO()):
    assert cli.main(["analyze", "--scheme", "systematic", "--k", "2", "--m", "2",
                     "--n", "3", "--p", "0.1"]) == 0
    assert cli.main(["simulate", "--scheme", "straightforward", "--k", "3",
                     "--m", "2,3", "--n", "4", "--p", "0.1", "--trials", "5",
                     "--seed", "1", "--workers", "1"]) == 0
print(" ".join(name for name in {lazy!r} if name in sys.modules))
"""


def test_single_process_run_imports_no_lazy_module():
    """A plain ``analyze`` or ``--workers 1`` ``simulate`` in a fresh
    interpreter (``-S``: no site hooks) loads none of the modules in LAZY
    and UNUSED."""
    code = _COLD_RUN.format(src=str(PACKAGE.parent), lazy=LAZY + UNUSED)
    run = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []
