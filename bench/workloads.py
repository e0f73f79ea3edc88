"""The three benchmark workloads and their output checks.

Every workload has two timed phases, reported as ``phase1_s`` and
``phase2_s``.  Inputs come from the seed only.  Seed 0 uses the paper's
named sources and the paper's simulation seed.

The sources are fixed where their choice alone would move the timing by
more than the benchmark's bounds: the N=5 build takes 5 to 16 s across
the binary grid, and codec throughput follows the source's entropy.
There the seed draws what the program reads: the symbol files, the
simulation sequences, the check messages and the ``eval`` sources.
"""

from __future__ import annotations

import hashlib
import heapq
import io
import math
import os
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field

from aifv import bench, builder, cli, forest as forest_mod
from aifv.builder import BuildConfig
from aifv.sources import SourceDistribution

# the paper's skewed binary source, p0 = 0.9
P0_PERCENT = 90


def binary_source(percent: int) -> tuple[float, float]:
    # the same float pair as the package's 0.51..0.99 grid
    return (percent / 100, (100 - percent) / 100)


def polynomial_source(m: int, power: int) -> tuple[float, ...]:
    weights = [(i + 1) ** power for i in range(m)]
    return tuple(w / sum(weights) for w in weights)


def entropy(probs) -> float:
    return -sum(x * math.log2(x) for x in probs)


def huffman_length(probs) -> float:
    """Expected Huffman code length: the sum of all merged weights."""
    heap = list(probs)
    heapq.heapify(heap)
    total = 0.0
    while len(heap) > 1:
        merged = heapq.heappop(heap) + heapq.heappop(heap)
        total += merged
        heapq.heappush(heap, merged)
    return total


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def draw_symbols(rng: random.Random, probs, count: int) -> list[int]:
    cum, acc = [], 0.0
    for x in probs:
        acc += x
        cum.append(acc)
    return rng.choices(range(len(probs)), cum_weights=cum, k=count)


@dataclass
class Checks:
    """Counts checked operations and compares outputs with pinned values.

    ``pins`` maps each key to its value for every seed (``any_seed``) or
    for seed 0 only (``seed0``); ``None`` turns pinning off.  The first
    value seen for a key is kept in ``observed``; a later repetition that
    differs from it is a determinism failure.
    """

    pins: dict | None
    seed: int
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)
    observed: dict = field(default_factory=dict)

    def op(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.messages.extend(f"{label}: {e}" for e in errors)

    def pin(self, key: str, value, seeded: bool = False) -> list[str]:
        errors = []
        if key in self.observed and self.observed[key] != value:
            errors.append(f"{key} changed between repetitions")
        self.observed.setdefault(key, value)
        if self.pins is None or (seeded and self.seed != 0):
            return errors
        pinned = self.pins["seed0" if seeded else "any_seed"]
        if key not in pinned:
            errors.append(f"{key} has no pinned value")
        elif pinned[key] != value:
            errors.append(f"{key} is {value!r}, pinned {pinned[key]!r}")
        return errors


def round_trip_errors(forest, probs, rng: random.Random, count: int) -> list[str]:
    symbols = draw_symbols(rng, probs, count)
    bits = forest_mod.encode(forest, symbols)
    if forest_mod.decode(forest, bits, count) != symbols:
        return [f"round trip of {count} symbols changed them"]
    return []


def length_errors(length: float, probs) -> list[str]:
    h, hl = entropy(probs), huffman_length(probs)
    if h - 1e-12 <= length <= hl + 1e-12:
        return []
    return [f"expected length {length} outside [entropy {h}, huffman {hl}]"]


class Workload:
    name = ""
    setup_reps = 3

    def __init__(self, seed: int, smoke: bool, workdir: str, checks: Checks):
        self.seed, self.smoke, self.workdir, self.checks = seed, smoke, workdir, checks

    def prepare(self) -> None:
        """One set-up; runs ``setup_reps`` times before timing."""

    def phases(self):
        """The two timed phases as (work, check, work units) each.

        ``work()`` is the timed call into the program and returns its
        output; ``check(output)`` runs untimed and records the checked
        operations in ``self.checks``.
        """
        raise NotImplementedError

    def finish(self) -> dict:
        """Checks made once after timing; returns extra reported values."""
        return {}


class BuildBinary(Workload):
    """N=5 continuous-family build, then the N=3 G-optimality check."""

    name = "build-binary"
    # one G-check takes about 1 s; several per repetition give it as
    # much measured time as a noisy machine needs
    gchecks_per_rep = 2

    def __init__(self, *args):
        super().__init__(*args)
        self.n_build, self.n_check = (3, 2) if self.smoke else (5, 3)
        self.probs = binary_source(P0_PERCENT)
        self.messages = 2000
        self.inputs = {"p0_percent": P0_PERCENT, "build_delay": self.n_build,
                       "gcheck_delay": self.n_check, "check_message_symbols": self.messages}

    def prepare(self) -> None:
        # lets lazy imports and the G-check's partition tables fill
        builder.check_g_optimality_binary(binary_source(75), self.n_check)

    def _errors(self, key, forest, report) -> list[str]:
        errors = length_errors(report.expected_len, self.probs)
        errors += round_trip_errors(forest, self.probs, random.Random(f"{self.seed}/{key}"),
                                    self.messages)
        errors += self.checks.pin(f"{key}.codebook_sha256", sha256(forest_mod.format_codebook(forest)))
        errors += self.checks.pin(f"{key}.expected_len", repr(report.expected_len))
        return errors

    def build(self):
        return builder.construct(self.probs, BuildConfig(n=self.n_build))

    def check_build(self, out) -> None:
        forest, report = out
        errors = self._errors("build", forest, report)
        errors += self.checks.pin("build.f_optimal", report.f_optimal)
        if not report.f_optimal:
            errors.append("build did not certify F-optimality")
        self.checks.op("build", errors)

    def gchecks(self):
        return [builder.check_g_optimality_binary(self.probs, self.n_check)
                for _ in range(self.gchecks_per_rep)]

    def check_gchecks(self, outs) -> None:
        for forest, report in outs:
            errors = self._errors("gcheck", forest, report)
            errors += self.checks.pin("gcheck.g_checked", report.g_checked)
            if not report.g_checked:
                errors.append("G-check did not certify G-optimality")
            self.checks.op("gcheck", errors)

    def phases(self):
        return ((self.build, self.check_build, 1),
                (self.gchecks, self.check_gchecks, self.gchecks_per_rep))


class PaperTables(Workload):
    """The redundancy table over 49 binary sources and the poly-5 simulation."""

    name = "paper-tables"

    def __init__(self, *args):
        super().__init__(*args)
        if self.seed == 0:
            fractions = [(i, 100) for i in range(51, 100)]
        else:
            # 49 distinct binary sources of the same 0.51..0.99 family
            draws = random.Random(self.seed).sample(range(5100, 9901), 49)
            fractions = [(j, 10000) for j in sorted(draws)]
        if self.smoke:
            fractions = fractions[:2]
        self.eval_sources = tuple(
            (f"p0={num / den:.{len(str(den)) - 1}f}",
             SourceDistribution((num / den, (den - num) / den)))
            for num, den in fractions)
        m = 3 if self.smoke else 5
        powers = (0, 2) if self.smoke else (0, 1, 2)
        self.sim_sources = tuple(
            (f"P{power}(M={m})", SourceDistribution(polynomial_source(m, power)))
            for power in powers)
        self.sizes = (32, 128) if self.smoke else (32, 128, 512, 2048)
        self.trials = 5 if self.smoke else 100
        self.eval_cfg = bench.TheoreticalRun(
            sources=self.eval_sources, aifv_delays=(1, 2, 3), aifvm_orders=(2,),
            ext_huffman_orders=(2, 5, 8))
        self.sim_cfg = bench.SimulationRun(
            sources=self.sim_sources, seq_sizes=self.sizes, trials=self.trials,
            seed=self.seed, aifv_delays=(2, 3))
        self.inputs = {"eval_sources": len(self.eval_sources), "eval_aifv": [1, 2, 3],
                       "eval_aifvm": [2], "eval_ext_huffman": [2, 5, 8],
                       "sim_sources": len(self.sim_sources), "sim_alphabet": m,
                       "sim_aifv": [2, 3], "sim_sizes": list(self.sizes),
                       "sim_trials": self.trials, "sim_seed": self.seed}

    def prepare(self) -> None:
        bench.run_theoretical(bench.TheoreticalRun(
            sources=self.eval_sources[:1], aifv_delays=(1,), ext_huffman_orders=(2,)))

    def phases(self):
        return ((lambda: bench.run_theoretical(self.eval_cfg), self.check_eval, 1),
                (lambda: bench.run_simulation(self.sim_cfg), self.check_simulation, 1))

    def check_eval(self, eval_rows) -> None:
        errors = self.checks.pin("eval.csv_sha256", sha256(bench.rows_to_csv(eval_rows)),
                                 seeded=True)
        huffman = {r.source: r.mean_bits_per_sym for r in eval_rows if r.coder == "huffman"}
        for r in eval_rows:
            if not r.entropy - 1e-12 <= r.mean_bits_per_sym <= huffman[r.source] + 1e-12:
                errors.append(f"{r.source} {r.coder}: {r.mean_bits_per_sym} outside "
                              f"[entropy, huffman]")
        self.checks.op("eval", errors)

    def check_simulation(self, sim_rows) -> None:
        errors = self.checks.pin("simulate.csv_sha256", sha256(bench.rows_to_csv(sim_rows)),
                                 seeded=True)
        expected_rows = len(self.sim_sources) * len(self.sizes) * 4
        if len(sim_rows) != expected_rows:
            errors.append(f"{len(sim_rows)} simulation rows, expected {expected_rows}")
        self.checks.op("simulate", errors)

    def finish(self) -> dict:
        # the tables only encode; round-trip the longest simulated
        # sequence of each source through aifv-2 and the range coder
        for label, dist in self.sim_sources:
            seq = [int(s) for s in bench.sample_inversion(dist.probs, self.sizes[-1], self.seed)]
            forest, _ = builder.construct(dist.probs, BuildConfig(n=2))
            errors = []
            if forest_mod.decode(forest, forest_mod.encode(forest, seq), len(seq)) != seq:
                errors.append("aifv-2 round trip changed the sequence")
            data = bench.range_encode(dist.probs, seq)
            if bench.range_decode(dist.probs, data, len(seq)) != seq:
                errors.append("range coder round trip changed the sequence")
            self.checks.op(f"round trip {label}", errors)
        return {}


class CodecStream(Workload):
    """Long seeded symbol files through ``aifv encode`` / ``aifv decode``."""

    name = "codec-stream"
    probe_messages = 150

    def __init__(self, *args):
        super().__init__(*args)
        binary = binary_source(P0_PERCENT)
        poly = polynomial_source(3 if self.smoke else 5, 2)
        self.symbols = 2000 if self.smoke else 60000
        # (name, source, delay or None for Huffman)
        self.books = (("huffman", binary, None),
                      (f"aifv{3 if self.smoke else 4}", binary, 3 if self.smoke else 4),
                      (f"p2-aifv{2 if self.smoke else 3}", poly, 2 if self.smoke else 3))
        self.inputs = {"p0_percent": P0_PERCENT, "poly_alphabet": len(poly),
                       "codebooks": [b[0] for b in self.books],
                       "symbols_per_stream": self.symbols,
                       "probe_messages_per_codebook": self.probe_messages}

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def prepare(self) -> None:
        self.streams = {}
        for name, probs, n in self.books:
            if n is None:
                forest = builder.huffman(probs)
            else:
                forest, _ = builder.construct(probs, BuildConfig(n=n))
            with open(self._path(name + ".book"), "w") as fh:
                fh.write(forest_mod.format_codebook(forest))
            symbols = draw_symbols(random.Random(f"{self.seed}/{name}"), probs, self.symbols)
            with open(self._path(name + ".sym"), "w") as fh:
                fh.write(" ".join(map(str, symbols)) + "\n")
            self.streams[name] = (forest, symbols)

    def _cli(self, argv) -> list[int]:
        """Runs ``aifv`` once per codebook; ``argv(name)`` builds the
        arguments.  Returns the exit codes."""
        with redirect_stdout(io.StringIO()):
            return [cli.main(argv(name)) for name, _, _ in self.books]

    def check_encode(self, codes) -> None:
        for (name, _, _), code in zip(self.books, codes):
            errors = [] if code == 0 else [f"exit code {code}"]
            with open(self._path(name + ".bin"), "rb") as fh:
                errors += self.checks.pin(f"{name}.stream_sha256", sha256(fh.read()), seeded=True)
            self.checks.op(f"{name} encode", errors)

    def check_decode(self, codes) -> None:
        for (name, _, _), code in zip(self.books, codes):
            errors = [] if code == 0 else [f"exit code {code}"]
            with open(self._path(name + ".out")) as fh:
                if [int(t) for t in fh.read().split()] != self.streams[name][1]:
                    errors.append("decoded stream differs from the input")
            self.checks.op(f"{name} decode", errors)

    def encode_all(self) -> list[int]:
        p = self._path
        return self._cli(lambda name: ["encode", "--codebook", p(name + ".book"),
                                       "--input", p(name + ".sym"), "-o", p(name + ".bin")])

    def decode_all(self) -> list[int]:
        p = self._path
        return self._cli(lambda name: ["decode", "--codebook", p(name + ".book"),
                                       "--input", p(name + ".bin"), "-L", str(self.symbols),
                                       "-o", p(name + ".out")])

    def phases(self):
        msym = len(self.books) * self.symbols / 1e6
        return ((self.encode_all, self.check_encode, msym),
                (self.decode_all, self.check_decode, msym))

    def finish(self) -> dict:
        for name, probs, _ in self.books:
            forest = self.streams[name][0]
            errors = self.checks.pin(f"{name}.codebook_sha256",
                                     sha256(forest_mod.format_codebook(forest)))
            errors += length_errors(builder.expected_code_length(forest, probs), probs)
            self.checks.op(f"{name} codebook", errors)
        return self.truncation_probes()

    def truncation_probes(self) -> dict:
        """Drop the last 1..8 bits of short messages and decode the full
        count; a decode that returns a wrong result without raising
        ``DecodeError`` accepts a corrupt stream."""
        rng = random.Random(self.seed)
        probes = accepted = 0
        for name, probs, _ in self.books:
            forest = self.streams[name][0]
            for _ in range(self.probe_messages):
                message = draw_symbols(rng, probs, rng.randint(1, 16))
                bits = forest_mod.encode(forest, message)
                for drop in range(1, min(8, len(bits)) + 1):
                    probes += 1
                    try:
                        out = forest_mod.decode(forest, bits[:-drop], len(message))
                    except forest_mod.DecodeError:
                        continue
                    accepted += out != message
        return {"truncation_probes": probes, "truncation_accepted": accepted}


WORKLOADS = {w.name: w for w in (BuildBinary, PaperTables, CodecStream)}
