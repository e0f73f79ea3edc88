"""Call spans around the aifv layers, recorded from outside the program.

Each traced function is replaced, in the module namespace where its
callers look it up, by a wrapper that records one span per call: name,
start, end, parent span and the benchmark operation it belongs to.
Spans stay in memory and are written out once, at exit.  The per-layer
numbers (calls, busy seconds, self seconds) are derived from the spans.

``bitstrings`` and ``modes`` are not wrapped: they are called millions
of times per build, so per-call spans would distort the run.  Their cost
shows up inside their callers' self time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field


def _block_counts(counters, blocks):
    counters["markov.scc_blocks"] += len(blocks.blocks)
    counters["markov.absorbing_blocks"] += blocks.n_absorbing


def _iterations(counters, result):
    counters["builder.iterations"] += result[1].iterations


def _decoded_symbols(counters, result):
    counters["forest.decode.symbols"] += len(result)


def _encoded_bits(counters, result):
    counters["forest.encode.bits"] += len(result)


# (module, attribute it is looked up under, span name, hook that counts
# work in the call's result).
# A function called from several modules is wrapped in each of them
# under one span name.
TRACED = (
    ("aifv.builder", "transition_matrix", "markov.transition_matrix", None),
    ("aifv.builder", "block_decompose", "markov.block_decompose", _block_counts),
    ("aifv.builder", "stationary", "markov.stationary", None),
    ("aifv.builder", "cost_update_general", "markov.cost_update_general", None),
    ("aifv.builder", "initial_costs", "optimizer.initial_costs", None),
    ("aifv.builder", "build_ilp", "optimizer.build_ilp", None),
    ("aifv.builder", "solve_ilp", "optimizer.solve_ilp", None),
    ("aifv.optimizer", "check_assignment", "optimizer.check_assignment", None),
    ("aifv.builder", "decode_solution", "optimizer.decode_solution", None),
    ("aifv.builder", "brute_force_binary", "optimizer.brute_force_binary", None),
    ("aifv.builder", "flip_tree", "builder.flip_tree", None),
    ("aifv.builder", "construct", "builder.construct", _iterations),
    ("aifv.bench", "construct", "builder.construct", _iterations),
    ("aifv.cli", "construct", "builder.construct", _iterations),
    ("aifv.bench", "encode", "forest.encode", _encoded_bits),
    ("aifv.cli", "encode", "forest.encode", _encoded_bits),
    ("aifv.cli", "decode", "forest.decode", _decoded_symbols),
    ("aifv.cli", "pack_bits", "forest.pack_bits", None),
    ("aifv.cli", "unpack_bits", "forest.unpack_bits", None),
    ("aifv.cli", "parse_codebook", "forest.parse_codebook", None),
    ("aifv.bench", "range_encode", "bench.range_encode", None),
    ("aifv.bench", "sample_inversion", "bench.sample_inversion", None),
    ("aifv.bench", "extended_huffman", "bench.extended_huffman", None),
    ("aifv.bench", "run_theoretical", "bench.run_theoretical", None),
    ("aifv.bench", "run_simulation", "bench.run_simulation", None),
    ("aifv.cli", "main", "cli.main", None),
)


@dataclass
class Tracer:
    """Span recorder; records only while ``active`` is set."""

    active: bool = False
    op_id: int = 0
    spans: list = field(default_factory=list)  # (name, start, end, parent, op)
    counters: defaultdict = field(default_factory=lambda: defaultdict(int))
    _stack: list = field(default_factory=list)
    _restore: list = field(default_factory=list)

    def install(self, modules) -> None:
        """Wrap every function in ``TRACED``; ``modules`` maps names to
        imported modules."""
        for mod_name, attr, name, hook in TRACED:
            module = modules[mod_name]
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, hook))
            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """Records one span around a block of the benchmark itself."""
        if not self.active:
            yield
            return
        index = self._open()
        try:
            yield
        finally:
            self._close(index, name)

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index, name)
            if hook is not None:
                hook(tracer.counters, result)
            return result

        return traced

    def _open(self) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([None, time.perf_counter(), 0.0, parent, self.op_id])
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str) -> None:
        span = self.spans[index]
        span[0] = name
        span[2] = time.perf_counter()
        self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


@dataclass
class LayerTotals:
    calls: dict
    busy: dict   # seconds, counting nested same-name spans once
    self_s: dict  # busy minus the time direct child spans cover


def layer_totals(spans) -> LayerTotals:
    calls: dict = defaultdict(int)
    busy: dict = defaultdict(float)
    self_s: dict = defaultdict(float)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            busy[name] += end - start
    return LayerTotals(dict(calls), dict(busy), dict(self_s))


def coverage(spans, phase: str) -> float:
    """Share of the ``phase`` spans' time covered by their direct child
    spans, i.e. by wrapped calls into the program."""
    total = covered = 0.0
    phase_ids = set()
    for i, (name, start, end, parent, _) in enumerate(spans):
        if name == phase:
            total += end - start
            phase_ids.add(i)
    for name, start, end, parent, _ in spans:
        if parent in phase_ids:
            covered += end - start
    return covered / total if total else 0.0
