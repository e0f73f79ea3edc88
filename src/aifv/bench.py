"""Baseline coders and the benchmark drivers.

Two kinds of runs: theoretical rows evaluate stationary expected lengths
straight from the codebooks, simulation rows draw seeded random
sequences (:func:`sample_inversion`), count the bits each coder would
emit for them, and average per symbol (termination included for the
forest codes, flush bytes for the range coder).  The counts come from walks that step every trial of
a source at once and read off the count at each sequence size, with no
text built: :func:`encoded_lengths` for the forest codes and
:func:`range_lengths` for the range coder.  Trial 0 of each cell is also
encoded and decoded in full as a check.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial

import numpy as np

from .builder import (
    BuildConfig,
    check_limits,
    construct,
    expected_code_length,
    folded_codebook_size,
    huffman,
    huffman_lengths,
)
from .forest import CodeForest, DecodeError, decode, encode, termination_codeword
from .sources import SourceDistribution, entropy, relative_redundancy

RANGE_TOP = 1 << 24
RANGE_BOT = 1 << 16
RANGE_MASK = (1 << 32) - 1
FREQ_TOTAL = 1 << 16


class RangeCodingError(ValueError):
    pass


def extended_huffman(p, order: int) -> float:
    """Expected bits per symbol of the Huffman code over ``order``-symbol
    blocks of the base alphabet."""
    probs = tuple(p)
    m = len(probs)
    if order < 1:
        raise ValueError("block order must be at least 1")
    if m ** order > 10 ** 6:
        raise ValueError("block alphabet too large")
    # block probabilities in itertools.product order, each the product
    # 1.0 * p[s1] * ... * p[s_order] taken left to right
    block_probs = [1.0]
    for _ in range(order):
        block_probs = [q * x for q in block_probs for x in probs]
    lengths = huffman_lengths(tuple(block_probs))
    return sum(q * ln for q, ln in zip(block_probs, lengths)) / order


def scaled_frequencies(p) -> list[int]:
    """Probabilities as integer frequencies summing to exactly 2**16."""
    probs = tuple(p)
    freqs = [max(1, round(x * FREQ_TOTAL)) for x in probs]
    freqs[freqs.index(max(freqs))] += FREQ_TOTAL - sum(freqs)
    if min(freqs) < 1:
        raise RangeCodingError("distribution too skewed for a 16-bit table")
    return freqs


def _frequency_table(p) -> tuple[list[int], list[int]]:
    """Each symbol's frequency, and its slot start in the 16-bit table
    followed by the total."""
    freqs = scaled_frequencies(p)
    return freqs, list(itertools.accumulate(freqs, initial=0))


def _shift_out(low: int, span: int) -> tuple[int, int, int]:
    """The range coder's step after each symbol: ``low`` and ``span``
    once the top byte of ``low`` is shifted out while the interval
    ``[low, low + span)`` lies within it, and how many bytes went.  When
    it does not but the span has fallen below ``RANGE_BOT``, the span is
    cut to end at the next multiple of ``RANGE_BOT``, which brings it
    within.  A span of at least ``RANGE_TOP`` never lies within one top
    byte and shifts nothing out, so the coders call this only below it.
    """
    shifts = 0
    while span < RANGE_TOP:
        if (low ^ (low + span)) >= RANGE_TOP:
            if span >= RANGE_BOT:
                break
            span = -low & (RANGE_BOT - 1)
        shifts += 1
        span <<= 8
        low = (low << 8) & RANGE_MASK
    return low, span, shifts


def range_encode(p, symbols) -> bytes:
    """32-bit carryless range coder with a static 16-bit frequency table;
    each byte shifted out of ``low`` is written."""
    freqs, cums = _frequency_table(p)
    m = len(freqs)
    low, span, out = 0, RANGE_MASK, bytearray()
    for s in symbols:
        if not 0 <= s < m:
            raise ValueError(f"symbol {s} outside alphabet of {m}")
        r = span // FREQ_TOTAL
        low, span = (low + cums[s] * r) & RANGE_MASK, freqs[s] * r
        if span < RANGE_TOP:
            top = low
            low, span, shifts = _shift_out(top, span)
            out += top.to_bytes(4, "big")[:shifts]
    return bytes(out) + low.to_bytes(4, "big")


def symbol_rows(sequences, m: int, sizes) -> np.ndarray:
    """``sequences`` as a 2-D array, once every symbol lies in the
    ``m``-ary alphabet and every prefix size is at most the row length;
    otherwise ValueError, naming the first symbol outside the alphabet
    in row order as ``encode`` does."""
    rows = np.asarray(sequences)
    if rows.ndim != 2:
        raise ValueError(f"expected a 2-D array of symbols, got {rows.ndim} dimensions")
    outside = (rows < 0) | (rows >= m)
    if outside.any():
        raise ValueError(f"symbol {rows[outside][0]} outside alphabet of {m}")
    if any(not 0 <= n <= rows.shape[1] for n in sizes):
        raise ValueError(f"prefix sizes must lie in 0..{rows.shape[1]}, got {list(sizes)}")
    return rows


def encoded_lengths(forest: CodeForest, sequences, sizes) -> list[list[int]]:
    """For each ``n`` of ``sizes``, the length of ``encode(forest, row[:n])``
    for each row of a 2-D array of symbols, termination codeword included,
    with no text built.

    Every row walks the forest at once, one column per step, through
    flat (tree, symbol) tables of codeword length and next tree; the
    count at size n is the running total after n steps plus the
    termination codeword of the tree reached.
    """
    m = forest.symbol_count
    rows = symbol_rows(sequences, m, sizes)
    # row k * m + s: tree k's codeword length for s, and the row start of its link
    lengths = np.array([cw.length for t in forest.trees for cw in t.codewords], dtype=np.int64)
    starts = np.array([link * m for t in forest.trees for link in t.links], dtype=np.intp)
    ends = np.array([termination_codeword(t.mode).length for t in forest.trees], dtype=np.int64)
    total = np.zeros(len(rows), dtype=np.int64)
    start = np.zeros(len(rows), dtype=np.intp)
    wanted, longest, counts = set(sizes), max(sizes, default=0), {}
    for n in range(longest + 1):
        if n in wanted:
            counts[n] = (total + ends[start // m]).tolist()
        if n == longest:
            break
        step = start + rows[:, n]
        total += lengths[step]
        start = starts[step]
    return [counts[n] for n in sizes]


# bits shifted out by _shift_out for a bit length e of low ^ (low + span):
# one byte per leading zero byte in 32 bits
_SHARED_BITS = np.array([8 * max(0, (32 - e) // 8) for e in range(34)], dtype=np.int64)


def range_lengths(p, sequences, sizes) -> list[list[int]]:
    """For each ``n`` of ``sizes``, ``len(range_encode(p, row[:n]))`` for
    each row of a 2-D array of symbols, with no bytes built.

    Every row steps at once, one column per step.  After each symbol
    :func:`_shift_out` shifts out the leading bytes that ``low`` and
    ``low + span`` share, and the span cannot reach ``RANGE_TOP`` first,
    since ``low ^ (low + span)`` is at least half the span; so their
    count is read off the bit length of that xor.  A row then left with
    a span below ``RANGE_BOT`` is one that takes the cut branch; those
    few rows finish the step in :func:`_shift_out` on Python ints.
    """
    freqs, cums = _frequency_table(p)
    rows = symbol_rows(sequences, len(freqs), sizes)
    freq = np.array(freqs, dtype=np.int64)
    cum = np.array(cums[:-1], dtype=np.int64)
    low = np.zeros(len(rows), dtype=np.int64)
    span = np.full(len(rows), RANGE_MASK, dtype=np.int64)
    shifted = np.zeros(len(rows), dtype=np.int64)  # bits
    x = np.empty_like(low)
    wanted, longest, counts = set(sizes), max(sizes, default=0), {}
    for n in range(longest + 1):
        if n in wanted:
            counts[n] = (shifted // 8 + 4).tolist()
        if n == longest:
            break
        column = rows[:, n]
        r = span >> 16
        low += cum.take(column) * r  # stays below 2**32: low + span never exceeds it
        np.multiply(freq.take(column), r, out=span)
        np.add(low, span, out=x)
        x ^= low
        bits = _SHARED_BITS.take(np.frexp(x)[1])
        low <<= bits
        low &= RANGE_MASK
        span <<= bits
        shifted += bits
        if not len(rows) or span[span.argmin()] >= RANGE_BOT:
            continue
        for i in np.flatnonzero(span < RANGE_BOT):  # the cut branch
            lo, sp, shifts = _shift_out(int(low[i]), int(span[i]))
            low[i], span[i], shifted[i] = lo, sp, shifted[i] + 8 * shifts
    return [counts[n] for n in sizes]


def range_decode(p, data: bytes, count: int) -> list[int]:
    """Decode ``count`` symbols; reads zero bytes past the end of ``data``."""
    if count < 0:
        raise ValueError(f"symbol count must not be negative, got {count}")
    freqs, cums = _frequency_table(p)
    stream = iter(data)
    code = 0
    for _ in range(4):
        code = code << 8 | next(stream, 0)
    low, span, out = 0, RANGE_MASK, []
    for _ in range(count):
        r = span // FREQ_TOTAL
        v = ((code - low) & RANGE_MASK) // r
        if v >= FREQ_TOTAL:
            raise RangeCodingError("corrupt range-coded stream")
        s = bisect_right(cums, v) - 1
        low, span = (low + cums[s] * r) & RANGE_MASK, freqs[s] * r
        if span < RANGE_TOP:
            low, span, shifts = _shift_out(low, span)
            for _ in range(shifts):
                code = (code << 8 | next(stream, 0)) & RANGE_MASK
        out.append(s)
    return out


def sample_inversion(p, length: int, seed: int) -> np.ndarray:
    """i.i.d. symbols by inverting the CDF of PCG64 uniform variates."""
    probs = np.asarray(tuple(p), dtype=float)
    cum = np.cumsum(probs)
    rng = np.random.default_rng(seed)
    u = rng.random(length)
    idx = np.searchsorted(cum, u, side="right")
    return np.minimum(idx, len(probs) - 1)


# ---------------------------------------------------------------------------
# experiment drivers

CSV_HEADER = ("source,coder,N_or_m,codebook_size,seq_len,trials,seed,"
              "mean_bits_per_sym,entropy,rel_redundancy")


@dataclass(frozen=True)
class ExperimentRow:
    source: str
    coder: str
    n_or_m: int
    codebook_size: int
    seq_len: int
    trials: int
    seed: int
    mean_bits_per_sym: float
    entropy: float
    rel_redundancy: float

    def csv(self) -> str:
        return (f"{self.source},{self.coder},{self.n_or_m},{self.codebook_size},"
                f"{self.seq_len},{self.trials},{self.seed},"
                f"{self.mean_bits_per_sym!r},{self.entropy!r},{self.rel_redundancy!r}")


def rows_to_csv(rows) -> str:
    return "\n".join([CSV_HEADER] + [r.csv() for r in rows]) + "\n"


@dataclass(frozen=True)
class TheoreticalRun:
    sources: tuple[tuple[str, SourceDistribution], ...]
    aifv_delays: tuple[int, ...] = ()
    aifvm_orders: tuple[int, ...] = ()
    ext_huffman_orders: tuple[int, ...] = ()
    include_huffman: bool = True
    tolerance: float = 1e-14
    max_depth: int | None = None

    def __post_init__(self):
        check_limits(self.tolerance, self.max_depth)
        _check_rows(self.sources, ("aifv delay", self.aifv_delays),
                    ("aifvm order", self.aifvm_orders),
                    ("ext-huffman order", self.ext_huffman_orders))
        if not (self.include_huffman or self.aifv_delays or self.aifvm_orders
                or self.ext_huffman_orders):
            raise ValueError("no coder to run: huffman is off and no aifv, aifvm "
                             "or ext-huffman order is given")


@dataclass(frozen=True)
class SimulationRun:
    sources: tuple[tuple[str, SourceDistribution], ...]
    seq_sizes: tuple[int, ...]
    trials: int
    seed: int
    aifv_delays: tuple[int, ...] = ()
    aifvm_orders: tuple[int, ...] = ()
    include_huffman: bool = True
    include_range: bool = True
    tolerance: float = 1e-14
    max_depth: int | None = None

    def __post_init__(self):
        check_limits(self.tolerance, self.max_depth)
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must not be negative, got {self.seed}")
        if not self.seq_sizes:
            raise ValueError("no sequence sizes given")
        if any(size < 1 for size in self.seq_sizes):
            raise ValueError(f"sequence sizes must be at least 1, got {self.seq_sizes}")
        _check_rows(self.sources, ("aifv delay", self.aifv_delays),
                    ("aifvm order", self.aifvm_orders), ("sequence size", self.seq_sizes))
        if not (self.include_huffman or self.include_range or self.aifv_delays
                or self.aifvm_orders):
            raise ValueError("no coder to run: huffman and range are off and no aifv "
                             "or aifvm order is given")


def _check_rows(sources, *lists) -> None:
    """ValueError unless there are sources and no source label, nor any
    value of the (name, values) ``lists``, would repeat a row."""
    if not sources:
        raise ValueError("no sources given")
    for what, values in (("source", [label for label, _ in sources]), *lists):
        seen = set()
        for value in values:
            if value in seen:
                raise ValueError(f"{what} {value!r} given twice")
            seen.add(value)


def _build_for(label_cache, dist, family, n, tolerance, max_depth):
    """The forest and report of one build, made once per call's cache."""
    key = (dist.probs, family, n)
    if key not in label_cache:
        cfg = BuildConfig(n=n, family=family, tolerance=tolerance, max_depth=max_depth)
        label_cache[key] = construct(dist.probs, cfg)
    return label_cache[key]


def run_theoretical(cfg: TheoreticalRun) -> list[ExperimentRow]:
    rows = []
    cache: dict = {}
    for label, dist in cfg.sources:
        h = entropy(dist)
        if cfg.include_huffman:
            hf = huffman(dist.probs)
            length = expected_code_length(hf, dist.probs)
            rows.append(ExperimentRow(label, "huffman", 1, dist.m, 0, 0, 0,
                                      length, h, relative_redundancy(length, h)))
        for order in cfg.ext_huffman_orders:
            length = extended_huffman(dist.probs, order)
            rows.append(ExperimentRow(label, f"ext-huffman-{order}", order,
                                      dist.m ** order, 0, 0, 0,
                                      length, h, relative_redundancy(length, h)))
        for kind, family, values in (("aifv", "continuous", cfg.aifv_delays),
                                     ("aifvm", "aifvm", cfg.aifvm_orders)):
            for value in values:
                forest, report = _build_for(cache, dist, family, value, cfg.tolerance,
                                            cfg.max_depth)
                # the build checked its forest's length and reports it
                length = report.expected_len
                rows.append(ExperimentRow(label, f"{kind}-{value}", value,
                                          folded_codebook_size(forest), 0, 0, 0,
                                          length, h, relative_redundancy(length, h)))
    return rows


def _check_first_trial(cell: str, seq: list[int], bits: int, encoder, decoder,
                       unit: int) -> None:
    """Encode and decode one trial in full: its text, of ``unit`` bits
    per item, must be ``bits`` bits long and decode back to ``seq``."""
    text = encoder(seq)
    if unit * len(text) != bits:
        raise RuntimeError(f"{cell}, trial 0: encode wrote {unit * len(text)} bits, "
                           f"the length walk counted {bits}")
    try:
        same = decoder(text, len(seq)) == seq
    except (DecodeError, RangeCodingError) as e:
        raise RuntimeError(f"{cell}, trial 0: decode failed: {e}") from None
    if not same:
        raise RuntimeError(f"{cell}, trial 0: decode did not return the sequence")


def run_simulation(cfg: SimulationRun) -> list[ExperimentRow]:
    """Average coded bits per symbol over seeded trials.

    Trial ``t`` of every source draws one sequence with seed
    ``cfg.seed + t`` at the longest size, and each size takes a prefix
    of it, which is what ``sample_inversion`` draws at that size with
    that seed; so runs are reproducible and cells are comparable.  Each
    coder's counts at every size come from one walk over all trials
    (:func:`encoded_lengths`, :func:`range_lengths`); trial 0 of each
    (source, coder, size) cell is also encoded and decoded in full as a
    check.
    """
    rows = []
    cache: dict = {}
    for label, dist in cfg.sources:
        h = entropy(dist)
        forests = [("huffman", 1, dist.m, huffman(dist.probs))] if cfg.include_huffman else []
        for kind, family, values in (("aifv", "continuous", cfg.aifv_delays),
                                     ("aifvm", "aifvm", cfg.aifvm_orders)):
            for value in values:
                forest = _build_for(cache, dist, family, value, cfg.tolerance, cfg.max_depth)[0]
                forests.append((f"{kind}-{value}", value, folded_codebook_size(forest), forest))
        # (name, N or m, codebook size, length walk, encoder, decoder, bits per text item)
        coders = [(name, n_or_m, book, partial(encoded_lengths, forest),
                   partial(encode, forest), partial(decode, forest), 1)
                  for name, n_or_m, book, forest in forests]
        if cfg.include_range:
            coders.append(("range", 32, dist.m, partial(range_lengths, dist.probs),
                           partial(range_encode, dist.probs),
                           partial(range_decode, dist.probs), 8))
        sequences = np.empty((cfg.trials, max(cfg.seq_sizes)),
                             dtype=np.min_scalar_type(dist.m - 1))
        for t in range(cfg.trials):
            sequences[t] = sample_inversion(dist.probs, sequences.shape[1], cfg.seed + t)
        first = sequences[0].tolist()
        bits = [[[unit * c for c in counts] for counts in walk(sequences, cfg.seq_sizes)]
                for _, _, _, walk, _, _, unit in coders]
        for i, size in enumerate(cfg.seq_sizes):
            for (name, n_or_m, book, _, encoder, decoder, unit), by_size in zip(coders, bits):
                _check_first_trial(f"{label}, {name}, size {size}", first[:size],
                                   by_size[i][0], encoder, decoder, unit)
                mean = sum(c / size for c in by_size[i]) / cfg.trials
                rows.append(ExperimentRow(label, name, n_or_m, book, size,
                                          cfg.trials, cfg.seed, mean, h,
                                          relative_redundancy(mean, h)))
    return rows
