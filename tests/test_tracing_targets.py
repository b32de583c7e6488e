"""The benchmark's tracer (``perfbench/tracing.py``) wraps package names by
their dotted paths. A rename in the package would leave a name untraced and
break ``perfbench/run.py --trace 1``; these tests catch that in-process."""

import importlib.util
import random
from pathlib import Path

from sysnc import analysis, cli, codec, gf2, simulator

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Targets the tracer still names although the package no longer has them.
STALE = {
    "trace: sysnc.simulator.combine_words not found; left untraced",
    "trace: sysnc.analysis.poisson_binomial_tail not found; left untraced",
    # the N_hat reference search, moved to tests/oracles.py; the package's one
    # search is the loop over N in cli.cmd_metrics
    "trace: sysnc.analysis.min_packets_for_target not found; left untraced",
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def namespaces():
    owners = (analysis, cli, codec, gf2, simulator, codec.ProgressiveDecoder, gf2.CodingVector)
    return [dict(vars(owner)) for owner in owners] + [dict(codec.SCHEME_ENCODERS)]


def test_tracer_finds_its_targets_and_restores_them(capsys):
    before = namespaces()
    tracer = load_tracer()
    try:
        tracer.install()
        lines = capsys.readouterr().err.splitlines()
        assert set(lines) <= STALE and len(lines) == len(set(lines)), lines
        for argv in (
            ["simulate", "--scheme", "systematic", "--k", "3", "--m", "3", "--n", "5",
             "--p", "0.1,0.3", "--trials", "2", "--seed", "1"],
            ["analyze", "--scheme", "systematic", "--k", "3", "--m", "2,3", "--n", "5",
             "--p", "0.1"],
            # the simulated M < K column beside the closed-form full recovery
            ["metrics", "--scheme", "straightforward", "--k", "3", "--m", "2,3",
             "--p", "0.1,0.2,0.3", "--p-hat", "0.5", "--trials", "4", "--seed", "1"],
        ):
            cli.run(cli.config_from_args(cli.build_parser().parse_args(argv)))
        msg = codec.SourceMessage((b"a", b"b"))
        decoder = codec.ProgressiveDecoder(2, 1)
        rng = random.Random(1)
        for n in (1, 2):
            decoder.receive(codec.SCHEME_ENCODERS["systematic"](msg, n, rng))
        assert decoder.decoded_count == 2
    finally:
        tracer.uninstall()
    _, counts = tracer.summary()
    for name in ("codec.encode", "gf2.CodingVector", "codec.receive",
                 "codec.receive_words", "analysis.partial_decode_prob_approx",
                 "analysis.sf_full_decode_prob"):
        assert counts.get(f"{name}.calls", 0) > 0, name
    assert counts["cli.run.calls"] == 3
    # one call per p: simulate's two, and the three of metrics' M < K column
    assert counts["simulator.run_trials.calls"] == 2 + 3
    # One encoder stream per simulated trial and p, as the benchmark's traced
    # self-check counts them: a kernel that derived fewer would fail it.
    assert counts["trials"] == 2 * 2 + 4 * 3
    assert namespaces() == before
