"""The package imports only the standard library and itself, so it runs with
no third-party module and none of the oracles under ``tests/``."""

import ast
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
