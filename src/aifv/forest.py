"""Linked code forests: the data model, decodability rules, and the codec.

A code tree maps every source symbol to a codeword plus a link naming the
tree used next; the attached mode is the query set a decoder reads ahead
into.  A forest of such trees is the complete coding rule: encoding walks
the links, decoding matches codeword-plus-query pairs, and a final
termination codeword protects the last symbol from trailing garbage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .bitstrings import (
    BitString,
    EMPTY,
    WordSet,
    append_all,
    comparable,
    flipped,
    interval_of,
    is_prefix,
    merge_intervals,
    reduced,
)
from .modes import Mode, flip_mode, is_basic_mode


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


@dataclass
class TreeCheck:
    prefix_free: bool = True
    covered_by_mode: bool = True
    basic_mode: bool = True
    interval_consistent: bool = True
    issues: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.prefix_free and self.covered_by_mode and self.basic_mode


@dataclass
class Rule1Report:
    per_tree: list[TreeCheck]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.per_tree)

    @property
    def issues(self) -> list[str]:
        return [msg for c in self.per_tree for msg in c.issues]


def validate_rule1(forest: CodeForest) -> Rule1Report:
    """Check each tree's decodability conditions.

    For every tree: (a) expanded codewords, counted per symbol occurrence,
    are mutually incomparable; (b) each expanded codeword extends some
    query of the tree's own mode; (c) the mode belongs to the basic
    family for the forest's delay bound.  The same (a) and (b) are
    re-derived from the interval picture and cross-checked against the
    string picture.
    """
    report = Rule1Report([])
    for k in range(len(forest.trees)):
        check = TreeCheck()
        tree = forest.trees[k]
        per, _ = expansions(forest, k)
        occurrences = [(m, w) for m, ws in enumerate(per) for w in sorted(ws, key=lambda x: x.text)]

        for i, (m1, w1) in enumerate(occurrences):
            for m2, w2 in occurrences[i + 1:]:
                if (m1, w1) == (m2, w2):
                    continue
                if comparable(w1, w2):
                    check.prefix_free = False
                    check.issues.append(
                        f"tree {k}: Rule 1a: expansions not prefix-free: "
                        f"'{w1}' and '{w2}' (symbols {m1}, {m2})"
                    )
        for m, w in occurrences:
            if not any(is_prefix(q, w) for q in tree.mode.words):
                check.covered_by_mode = False
                check.issues.append(
                    f"tree {k}: Rule 1b: expansion '{w}' of symbol {m} "
                    f"has no prefix in mode {tree.mode.render()}"
                )
        if not is_basic_mode(tree.mode.words, forest.n):
            check.basic_mode = False
            check.issues.append(
                f"tree {k}: Rule 1c: mode {tree.mode.render()} is not a "
                f"basic mode for delay {forest.n}"
            )

        # Interval formulation of (a) and (b); must agree with the above.
        ivs = [interval_of(w) for _, w in occurrences]
        disjoint = all(
            not ivs[i].overlaps(ivs[j])
            for i in range(len(ivs)) for j in range(i + 1, len(ivs))
        )
        mode_union = merge_intervals(interval_of(q) for q in tree.mode.words)
        contained = all(any(mi.contains(iv) for mi in mode_union) for iv in ivs)
        if disjoint != check.prefix_free or contained != check.covered_by_mode:
            check.interval_consistent = False
            check.issues.append(
                f"tree {k}: interval-form check disagrees with string form "
                f"(disjoint={disjoint}, contained={contained})"
            )
        report.per_tree.append(check)
    return report


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


def flip_tree(tree: CodeTree, link_remap: Mapping[int, int]) -> CodeTree:
    """Bit-flip a tree: codewords and mode flipped, links remapped to the
    trees holding the flipped modes."""
    try:
        links = tuple(link_remap[l] for l in tree.links)
    except KeyError as e:
        raise ValueError(f"link remap misses tree {e.args[0]}") from None
    return CodeTree(
        codewords=tuple(flipped(cw) for cw in tree.codewords),
        links=links,
        mode=flip_mode(tree.mode),
    )


def _termination_codeword(mode: Mode) -> BitString:
    # shortest query; ties broken lexicographically
    return min(mode.words, key=lambda w: (w.length, w.text))


def encode(forest: CodeForest, symbols: Iterable[int]) -> str:
    """Encode a symbol sequence; returns '0'/'1' text including the
    termination codeword."""
    out: list[str] = []
    k = 0
    for s in symbols:
        if not 0 <= s < forest.symbol_count:
            raise ValueError(f"symbol {s} outside alphabet of {forest.symbol_count}")
        tree = forest.trees[k]
        out.append(tree.codewords[s].text)
        k = tree.links[s]
    out.append(_termination_codeword(forest.trees[k].mode).text)
    return "".join(out)


def _query_matches(mode: Mode, bits: str, pos: int) -> bool:
    for q in mode.words:
        if bits.startswith(q.text, pos):
            return True
    return False


def decode(forest: CodeForest, bits: str, count: int) -> list[int]:
    """Decode exactly ``count`` symbols from '0'/'1' text.

    Each step consumes one codeword after confirming a query of the
    linked tree's mode matches the following bits; the query bits are
    lookahead only and must be present, which the encoder's termination
    codeword ensures for the last symbol.  A valid forest admits at most
    one candidate per step; two candidates mean the forest violates its
    own rules.
    """
    out: list[int] = []
    k = 0
    pos = 0
    for _ in range(count):
        tree = forest.trees[k]
        match: int | None = None
        for s in range(forest.symbol_count):
            cw = tree.codewords[s]
            if not bits.startswith(cw.text, pos):
                continue
            if _query_matches(forest.trees[tree.links[s]].mode, bits, pos + cw.length):
                if match is not None:
                    raise DecodeError(
                        f"ambiguous decode at bit {pos}: symbols {match} and {s} "
                        f"both match (forest violates prefix-freeness)"
                    )
                match = s
        if match is None:
            raise DecodeError(f"no symbol matches at bit {pos} in tree {k}")
        pos += tree.codewords[match].length
        k = tree.links[match]
        out.append(match)
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
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise CodebookError("empty codebook")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "AIFV1":
        raise CodebookError(f"bad header: {lines[0]!r}")
    try:
        fields = dict(part.split("=", 1) for part in head[1:])
        n, m, k_total = int(fields["N"]), int(fields["M"]), int(fields["K"])
    except (ValueError, KeyError) as e:
        raise CodebookError(f"bad header fields: {lines[0]!r}") from e

    trees: list[CodeTree] = []
    i = 1
    for k in range(k_total):
        if i >= len(lines):
            raise CodebookError(f"missing TREE {k}")
        parts = lines[i].split(None, 3)
        if len(parts) != 4 or parts[0] != "TREE" or int(parts[1]) != k or parts[2] != "MODE":
            raise CodebookError(f"expected 'TREE {k} MODE ...', got {lines[i]!r}")
        mode_words = frozenset(BitString.from_text(t) for t in parts[3].split(","))
        i += 1
        codewords, links = [], []
        for s in range(m):
            if i >= len(lines):
                raise CodebookError(f"missing SYM {s} of TREE {k}")
            sp = lines[i].split()
            if (len(sp) != 6 or sp[0] != "SYM" or int(sp[1]) != s
                    or sp[2] != "CODE" or sp[4] != "LINK"):
                raise CodebookError(f"expected 'SYM {s} CODE .. LINK ..', got {lines[i]!r}")
            codewords.append(BitString.from_text(sp[3]))
            links.append(int(sp[5]))
            i += 1
        trees.append(CodeTree(tuple(codewords), tuple(links), Mode(mode_words, n)))
    if i != len(lines):
        raise CodebookError(f"trailing content after {k_total} trees")
    return CodeForest(tuple(trees), n)


def pack_bits(bits: str) -> bytes:
    """Pack '0'/'1' text MSB-first, zero-padded to a byte boundary."""
    out = bytearray()
    for i in range(0, len(bits), 8):
        chunk = bits[i:i + 8].ljust(8, "0")
        out.append(int(chunk, 2))
    return bytes(out)


def unpack_bits(data: bytes) -> str:
    return "".join(format(b, "08b") for b in data)
