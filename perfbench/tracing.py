"""In-memory spans around the calls one sysnc module makes into another.

The tracer wraps public names from outside the package: it swaps module
attributes, class attributes and ``codec.SCHEME_ENCODERS`` entries for thin
wrappers that open a span, call the original and close the span, and puts
every original back on exit. Nothing under ``src/`` knows about it.

A span is (name, start, end, parent, op). ``op`` is the index of the CLI
invocation or decoded generation the span belongs to. A span's self time is
its duration minus the durations of its direct children; a layer's self time
is the sum over the spans named ``<layer>.*``. Spans named ``trace.*`` are
the tracer's own bookkeeping: they belong to no layer, and their time is kept
out of the parent's self time.
"""

from __future__ import annotations

import sys
import weakref
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("gf2", "codec", "analysis", "simulator", "cli")

# Module-level functions wrapped under a span of the same dotted name. Names
# missing from the package (renamed or deleted later) are skipped.
ANALYSIS_FUNCTIONS = (
    "cond_full_decode_prob",
    "full_rank_prob",
    "full_decode_prob",
    "sf_full_decode_prob",
    "ou_partial_decode_prob",
    "partial_decode_prob_approx",
    "poisson_binomial_tail",
)

ARRIVAL_CLASSES = ("unit_innovative", "unit_dependent", "coded_innovative", "coded_dependent")


class Tracer:
    """Span recorder; install() wraps the sysnc names, uninstall() restores them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []
        self.op = 0
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.ops = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        i = len(self.start)
        stack = self.stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.ops.append(self.op)
        self.end.append(-1.0)
        stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            i = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(i)

        return traced

    # -- installing the wrappers ------------------------------------------

    def _swap(self, owner, attr: str, make) -> None:
        if isinstance(owner, dict):
            if attr not in owner:
                return self._missing(f"SCHEME_ENCODERS[{attr!r}]")
            original = owner[attr]
            owner[attr] = make(original)
        else:
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is None:
                return self._missing(f"{getattr(owner, '__name__', owner)}.{attr}")
            setattr(owner, attr, make(original))
        self._restore.append((owner, attr, original))

    @staticmethod
    def _missing(what: str) -> None:
        print(f"trace: {what} not found; left untraced", file=sys.stderr)

    def install(self) -> None:
        from sysnc import analysis, cli, codec, gf2, simulator

        swap = self._swap
        swap(cli, "run", lambda f: self.wrap("cli.run", f))
        swap(cli, "run_trials", lambda f: self.wrap("simulator.run_trials", f))
        swap(simulator, "derive_stream", self._derive_stream)
        swap(codec, "combine_words", lambda f: self.wrap("codec.combine_words", f))
        swap(simulator, "combine_words", lambda f: self.wrap("codec.combine_words", f))
        swap(codec.ProgressiveDecoder, "receive_words", self._receive_words)
        swap(codec.ProgressiveDecoder, "receive", lambda f: self.wrap("codec.receive", f))
        swap(codec, "full_rank_decode", lambda f: self.wrap("codec.full_rank_decode", f))
        for scheme in list(codec.SCHEME_ENCODERS):
            swap(codec.SCHEME_ENCODERS, scheme, lambda f: self.wrap("codec.encode", f))
        swap(gf2.CodingVector, "__init__", lambda f: self.wrap("gf2.CodingVector", f))
        for fname in ANALYSIS_FUNCTIONS:
            swap(analysis, fname, lambda f, fname=fname: self.wrap(f"analysis.{fname}", f))
        swap(analysis, "min_packets_for_target", self._min_packets)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers that also count --------------------------------------------

    def _derive_stream(self, fn):
        traced = self.wrap("simulator.derive_stream", fn)

        def derive_stream(seed, trial_index, role):
            if role == "encoder":  # one encoder stream per trial or generation
                self.counts["trials"] += 1
            return traced(seed, trial_index, role)

        return derive_stream

    def _min_packets(self, fn):
        traced = self.wrap("analysis.min_packets_for_target", fn)

        def min_packets_for_target(prob_fn, *args, **kwargs):
            def counted(n):
                self.counts["analysis.min_packets_for_target.evals"] += 1
                return prob_fn(n)

            return traced(counted, *args, **kwargs)

        return min_packets_for_target

    def _receive_words(self, fn):
        """Classify every arrival as unit/coded and innovative/dependent.

        Innovation is decided by an independent GF(2) basis per decoder (an
        arrival is innovative when it raises the rank), so the count does not
        depend on how the decoder stores its rows.
        """
        traced = self.wrap("codec.receive_words", fn)
        classify_id = self.name_id("trace.classify")
        bases: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

        def receive_words(decoder, vec, pay):
            try:
                return traced(decoder, vec, pay)
            finally:
                i = self.begin(classify_id)
                basis = bases.setdefault(decoder, {})
                innovative = False
                v = vec
                while v:
                    top = v.bit_length()
                    row = basis.get(top)
                    if row is None:
                        basis[top] = v
                        innovative = True
                        break
                    v ^= row
                shape = "unit" if vec and not vec & (vec - 1) else "coded"
                kind = "innovative" if innovative else "dependent"
                self.counts[f"codec.receive_words.{shape}_{kind}"] += 1
                self.finish(i)

        return receive_words

    # -- summaries -------------------------------------------------------------

    def summary(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time per span name and per layer, and every count, for the
        spans recorded since the last reset()."""
        names, parent = self.name, self.parent
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        child = array("d", bytes(8 * len(dur)))
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += dur[i]
        self_s: dict[str, float] = {}
        calls: Counter[str] = Counter()
        for i, nid in enumerate(names):
            name = self.names[nid]
            self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
            calls[name] += 1
        times = {f"{n}.self_s": t for n, t in self_s.items()}
        for layer in LAYERS:
            times[f"{layer}.self_s"] = sum(
                t for n, t in self_s.items() if n.split(".", 1)[0] == layer
            )
        counts = {f"{n}.calls": c for n, c in calls.items()}
        counts.update(self.counts)
        counts["trace.spans"] = len(dur)
        return times, counts

    def nesting_errors(self) -> int:
        """Spans left open, ending before they start, or reaching outside
        their parent's interval or operation."""
        bad = len(self.stack)
        start, end, ops = self.start, self.end, self.ops
        for i, p in enumerate(self.parent):
            if end[i] < start[i]:
                bad += 1
            elif p >= 0 and not (
                start[p] <= start[i] and end[i] <= end[p] and ops[i] == ops[p]
            ):
                bad += 1
        return bad
