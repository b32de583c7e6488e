"""The CLI output of every config in ``golden_digests.GOLDEN`` keeps its
frozen sha256 digest. The whole module runs in a few seconds."""

import pytest

from golden_digests import GOLDEN, cases, digest, run_case
from sysnc.cli import EXIT_OK


@pytest.mark.parametrize(
    "name,workers", [pytest.param(n, w, id=f"{n}-w{w}") for n, w in cases()]
)
def test_cli_output_digest(name, workers):
    code, out = run_case(name, workers)
    assert code == EXIT_OK
    assert digest(out) == GOLDEN[name][1], out
