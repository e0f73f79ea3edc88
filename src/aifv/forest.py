"""Linked code forests: the data model, decodability rules, and the codec.

A code tree maps every source symbol to a codeword plus a link naming the
tree used next; the attached mode is the query set a decoder reads ahead
into.  A forest of such trees is the complete coding rule: encoding walks
the links, decoding matches each tree's expansions (codeword plus a query
of the linked mode, the strings Rule 1 checks), and a final termination
codeword protects the last symbol from trailing garbage.

The codec works on tables built once per call and dropped with it: the
encoder reads per-tree (codeword text, link) rows, the length walk
per-tree (codeword length, link) rows; the decoder keys each lookup on
the window of the next W_k + e stream bits, W_k being tree k's widest
expansion and e a widening chosen from the stream's length, so a window
seen before in the same call gives the whole run of steps it decides in
one dictionary lookup.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .bitstrings import (
    BitString,
    EMPTY,
    WordSet,
    append_all,
    comparable,
    flipped,
    is_prefix,
    reduced,
)
from .modes import Mode, is_basic_mode

log = logging.getLogger("aifv.forest")


class DecodeError(Exception):
    """The bit stream cannot be decoded against the given forest."""


class CodebookError(ValueError):
    """A codebook file is malformed or inconsistent."""


@dataclass(frozen=True)
class CodeTree:
    codewords: tuple[BitString, ...]
    links: tuple[int, ...]
    mode: Mode

    def __post_init__(self):
        if len(self.codewords) != len(self.links):
            raise ValueError("one (codeword, link) entry per symbol required")


@dataclass(frozen=True)
class CodeForest:
    trees: tuple[CodeTree, ...]
    n: int

    def __post_init__(self):
        if not self.trees:
            raise ValueError("a forest needs at least one tree")
        m = len(self.trees[0].codewords)
        for t in self.trees:
            if len(t.codewords) != m:
                raise ValueError("all trees must cover the same alphabet")
            for link in t.links:
                if not 0 <= link < len(self.trees):
                    raise ValueError(f"link {link} outside forest of {len(self.trees)}")

    @property
    def symbol_count(self) -> int:
        return len(self.trees[0].codewords)


def expansions(forest: CodeForest, k: int) -> tuple[tuple[WordSet, ...], WordSet]:
    """Per-symbol expanded codewords of tree ``k`` and their union."""
    tree = forest.trees[k]
    per = tuple(
        append_all(cw, forest.trees[link].mode.words)
        for cw, link in zip(tree.codewords, tree.links)
    )
    union: set[BitString] = set()
    for ws in per:
        union |= ws
    return per, frozenset(union)


def validate_rule1(forest: CodeForest) -> list[str]:
    """Every way the forest breaks a decodability condition, tree by
    tree; an empty list means it is decodable.

    For every tree: (a) expanded codewords, counted per symbol occurrence,
    are mutually incomparable; (b) each expanded codeword extends some
    query of the tree's own mode; (c) the mode belongs to the basic
    family for the forest's delay bound.
    """
    issues = []
    for k in range(len(forest.trees)):
        tree = forest.trees[k]
        per, _ = expansions(forest, k)
        occurrences = [(m, w) for m, ws in enumerate(per) for w in sorted(ws, key=lambda x: x.text)]

        for i, (m1, w1) in enumerate(occurrences):
            for m2, w2 in occurrences[i + 1:]:
                if comparable(w1, w2):
                    issues.append(
                        f"tree {k}: Rule 1a: expansions not prefix-free: "
                        f"'{w1}' and '{w2}' (symbols {m1}, {m2})"
                    )
        for m, w in occurrences:
            if not any(is_prefix(q, w) for q in tree.mode.words):
                issues.append(
                    f"tree {k}: Rule 1b: expansion '{w}' of symbol {m} "
                    f"has no prefix in mode {tree.mode.render()}"
                )
        if not is_basic_mode(tree.mode.words, forest.n):
            issues.append(
                f"tree {k}: Rule 1c: mode {tree.mode.render()} is not a "
                f"basic mode for delay {forest.n}"
            )
    return issues


@dataclass
class FullnessReport:
    per_tree: list[bool]
    root_mode_ok: bool

    @property
    def ok(self) -> bool:
        return self.root_mode_ok and all(self.per_tree)


def validate_full(forest: CodeForest) -> FullnessReport:
    """Check the no-wasted-codeword condition: each mode reduces its own
    expansion union, and the initial tree carries the empty-string mode."""
    per = []
    for k, tree in enumerate(forest.trees):
        _, union = expansions(forest, k)
        per.append(reduced(union) == tree.mode.words)
    root_ok = forest.trees[0].mode.words == frozenset({EMPTY})
    return FullnessReport(per, root_ok)


def flip_tree(tree: CodeTree, mirror: Sequence[int], mode: Mode) -> CodeTree:
    """Bit-flip a tree: codewords flipped, link ``l`` sent to ``mirror[l]``,
    the tree holding the flipped mode, and ``mode`` (the flip of the
    tree's mode) as its mode."""
    return CodeTree(
        codewords=tuple(flipped(cw) for cw in tree.codewords),
        links=tuple(mirror[l] for l in tree.links),
        mode=mode,
    )


def _termination_codeword(mode: Mode) -> BitString:
    # shortest query; ties broken lexicographically
    return min(mode.words, key=lambda w: (w.length, w.text))


def encode(forest: CodeForest, symbols: Iterable[int]) -> str:
    """Encode a symbol sequence; returns '0'/'1' text including the
    termination codeword."""
    m = forest.symbol_count
    # (codeword text, link) per symbol, per tree, built once per call
    rows = [tuple(zip([cw.text for cw in t.codewords], t.links)) for t in forest.trees]
    out: list[str] = []
    k = 0
    for s in symbols:
        if not 0 <= s < m:
            raise ValueError(f"symbol {s} outside alphabet of {m}")
        text, k = rows[k][s]
        out.append(text)
    out.append(_termination_codeword(forest.trees[k].mode).text)
    return "".join(out)


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
    ends = np.array([_termination_codeword(t.mode).length for t in forest.trees], dtype=np.int64)
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


Step = tuple[int, int, int]  # (symbol, codeword length, link)


def _match(table: list[tuple[str, Step]], window: str, pos: int, k: int) -> Step:
    """The step of the one symbol of tree ``k`` whose expansion starts
    ``window``, the stream from bit ``pos`` on."""
    matches = {step for text, step in table if window.startswith(text)}
    if not matches:
        raise DecodeError(f"no symbol matches at bit {pos} in tree {k}")
    if len(matches) > 1:
        first, second = sorted(matches)[:2]
        raise DecodeError(
            f"ambiguous decode at bit {pos}: symbols {first[0]} and {second[0]} "
            f"both match (forest violates prefix-freeness)"
        )
    (step,) = matches
    return step


def decode(forest: CodeForest, bits: str, count: int) -> list[int]:
    """Decode exactly ``count`` symbols from '0'/'1' text.

    Each step finds the symbols of the current tree whose expansion (its
    codeword followed by a query of the linked tree's mode) the stream
    continues with, and consumes that symbol's codeword; the query bits
    are lookahead only and must be present, which the encoder's
    termination codeword ensures for the last symbol.  A valid forest
    admits at most one such symbol per step; two mean the forest
    violates its own rules.

    No expansion of tree k is longer than its widest, W_k bits, so the
    window of the next W_k stream bits decides a step.  The decoder
    looks up windows of W_k + e bits instead, and a window seen before
    in the same call gives the whole run of steps it decides: every
    step whose own W-bit window lies inside it, the bits they consume
    and the tree reached.  A new window is stepped out through a memo
    of single steps keyed on their W-bit windows; its run stops before
    a step that does not fit, matches nothing or is ambiguous, and that
    step raises from its own bit position when the count still needs
    it.  Within W_k + e bits of the end the window is shorter; its
    length then fixes its position, so it never stands for a different
    stream, and its steps are stepped out to the end.  Symbols a run
    decodes past ``count`` are dropped.

    The widening e is the largest for which the windows that could
    occur, the sum over trees of 2^(W_k + e), number at most 1/32 of
    the stream's bits, which bounds the memo by the stream: 0 on short
    streams, where runs would mostly be new, and a few bits on long
    ones (9, 3 and 2 on 60,000 symbols of a Huffman, an AIFV-4 and an
    AIFV-3 code, giving 10, 9.3 and 2.0 symbols per lookup).
    """
    if count < 0:
        raise ValueError(f"symbol count must not be negative, got {count}")
    trees = forest.trees
    query = [max((w.length for w in t.mode.words), default=0) for t in trees]
    widths = [max((cw.length + query[link] for cw, link in zip(t.codewords, t.links)), default=0)
              for t in trees]
    e = max(0, (len(bits) // (32 * sum(1 << w for w in widths))).bit_length() - 1)
    spans = [w + e for w in widths]
    # per tree: the (expansion text, step) list and the single-step memo,
    # built when a run first enters the tree; and the run memo
    steps: list[tuple[list[tuple[str, Step]], dict[str, Step]] | None] = [None] * len(trees)
    runs: list[dict[str, tuple[list[int], int, int]]] = [{} for _ in trees]

    def run(k: int, window: str, pos: int) -> tuple[list[int], int, int]:
        symbols: list[int] = []
        off = 0
        tail = len(window) < spans[k]
        # a longer run repeats a (tree, offset) state: a cycle of empty codewords
        for _ in range(len(trees) * (len(window) + 1)):
            end = off + widths[k]
            if end > len(window) and not tail:
                break
            entry = steps[k]
            if entry is None:
                tree = trees[k]
                per, _ = expansions(forest, k)
                entry = steps[k] = ([(w.text, (s, tree.codewords[s].length, tree.links[s]))
                                     for s, ws in enumerate(per) for w in ws], {})
            table, memo = entry
            sub = window[off:end]
            found = memo.get(sub)
            if found is None:
                try:
                    found = memo[sub] = _match(table, sub, pos + off, k)
                except DecodeError:
                    if not symbols:
                        raise
                    break
            s, length, k = found
            symbols.append(s)
            off += length
        return symbols, off, k

    out: list[int] = []
    k = pos = 0
    while len(out) < count:
        window = bits[pos:pos + spans[k]]
        found = runs[k].get(window)
        if found is None:
            found = runs[k][window] = run(k, window, pos)
        symbols, length, k = found
        out += symbols
        pos += length
    del out[count:]
    log.debug("decode symbols=%d bits=%d widening=%d runs=%d steps=%d", count, len(bits), e,
              sum(map(len, runs)), sum(len(entry[1]) for entry in steps if entry))
    return out


def decoding_delay_bound(forest: CodeForest) -> int:
    """Longest query over every mode reachable through links from the
    initial tree; bounds the decoder lookahead."""
    seen = {0}
    stack = [0]
    while stack:
        k = stack.pop()
        for link in forest.trees[k].links:
            if link not in seen:
                seen.add(link)
                stack.append(link)
    queried = {forest.trees[k].links[s] for k in seen for s in range(forest.symbol_count)}
    return max(max((w.length for w in forest.trees[k].mode.words), default=0) for k in queried)


# ---------------------------------------------------------------------------
# codebook and bitstream files


def format_codebook(forest: CodeForest) -> str:
    lines = [f"AIFV1 N={forest.n} M={forest.symbol_count} K={len(forest.trees)}"]
    for k, tree in enumerate(forest.trees):
        lines.append(f"TREE {k} MODE {tree.mode.render()}")
        for s, (cw, link) in enumerate(zip(tree.codewords, tree.links)):
            lines.append(f"SYM {s} CODE {cw.render()} LINK {link}")
    return "\n".join(lines) + "\n"


def parse_codebook(text: str) -> CodeForest:
    """The forest a :func:`format_codebook` text describes; a malformed
    line, a header count below 1 or a link outside the forest raises
    :class:`CodebookError` naming its line number."""
    numbered = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not numbered:
        raise CodebookError("empty codebook")
    no, line = numbered[0]
    head = line.split()
    if len(head) != 4 or head[0] != "AIFV1":
        raise CodebookError(f"line {no}: bad header: {line!r}")
    try:
        fields = dict(part.split("=", 1) for part in head[1:])
        n, m, k_total = int(fields["N"]), int(fields["M"]), int(fields["K"])
    except (ValueError, KeyError) as e:
        raise CodebookError(f"line {no}: bad header fields: {line!r}") from e
    for name, value in (("N", n), ("M", m), ("K", k_total)):
        if value < 1:
            raise CodebookError(f"line {no}: header {name}={value} is below 1")

    def integer(token: str, what: str, no: int) -> int:
        try:
            return int(token)
        except ValueError:
            raise CodebookError(f"line {no}: {what} {token!r} is not an integer") from None

    def bits(token: str, no: int) -> BitString:
        try:
            return BitString.from_text(token)
        except ValueError as e:
            raise CodebookError(f"line {no}: {e}") from None

    trees: list[CodeTree] = []
    i = 1
    for k in range(k_total):
        if i >= len(numbered):
            raise CodebookError(f"missing TREE {k}")
        no, line = numbered[i]
        parts = line.split(None, 3)
        if (len(parts) != 4 or parts[0] != "TREE" or integer(parts[1], "TREE index", no) != k
                or parts[2] != "MODE"):
            raise CodebookError(f"line {no}: expected 'TREE {k} MODE ...', got {line!r}")
        mode_words = frozenset(bits(t, no) for t in parts[3].split(","))
        i += 1
        codewords, links = [], []
        for s in range(m):
            if i >= len(numbered):
                raise CodebookError(f"missing SYM {s} of TREE {k}")
            no, line = numbered[i]
            sp = line.split()
            if (len(sp) != 6 or sp[0] != "SYM" or integer(sp[1], "SYM index", no) != s
                    or sp[2] != "CODE" or sp[4] != "LINK"):
                raise CodebookError(f"line {no}: expected 'SYM {s} CODE .. LINK ..', got {line!r}")
            codewords.append(bits(sp[3], no))
            link = integer(sp[5], "LINK", no)
            if not 0 <= link < k_total:
                raise CodebookError(f"line {no}: LINK {link} outside forest of {k_total}")
            links.append(link)
            i += 1
        trees.append(CodeTree(tuple(codewords), tuple(links), Mode(mode_words, n)))
    if i != len(numbered):
        raise CodebookError(f"line {numbered[i][0]}: trailing content after {k_total} trees")
    return CodeForest(tuple(trees), n)


def pack_bits(bits: str) -> bytes:
    """Pack '0'/'1' text MSB-first, zero-padded to a byte boundary."""
    bad = bits.strip("01")
    if bad:
        raise ValueError(f"not a bit string: {bad[0]!r} at position {bits.index(bad[0])}")
    if not bits:
        return b""
    size = (len(bits) + 7) // 8
    return int(bits.ljust(8 * size, "0"), 2).to_bytes(size, "big")


def unpack_bits(data: bytes) -> str:
    if not data:
        return ""
    return format(int.from_bytes(data, "big"), f"0{8 * len(data)}b")
