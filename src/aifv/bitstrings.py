"""Exact binary-string algebra: prefix relations, flips and tree reduction.

Codewords, decoder queries, and mode members are short binary strings that
must be manipulated without any rounding.  A string is stored as a
``(length, value)`` pair with the first bit in the most significant
position, so appending, prefix tests and common prefixes are plain
integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable

# Longest representable string.  Module-level so callers can raise it
# before building unusually deep structures.
LMAX = 64


class CapacityError(ValueError):
    """An operation would exceed the configured LMAX."""


@dataclass(frozen=True)
class BitString:
    """An immutable bit string; ``length == 0`` is the empty string."""

    length: int
    value: int

    def __post_init__(self):
        if not 0 <= self.length <= LMAX:
            raise CapacityError(f"length {self.length} outside 0..{LMAX}")
        if not 0 <= self.value < (1 << self.length):
            raise ValueError(f"value {self.value} does not fit {self.length} bits")

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        """Parse '0'/'1' text; '' and '-' both denote the empty string."""
        if text in ("", "-"):
            return EMPTY
        if set(text) - {"0", "1"}:
            raise ValueError(f"not a bit string: {text!r}")
        return cls(len(text), int(text, 2))

    @property
    def text(self) -> str:
        return format(self.value, f"0{self.length}b") if self.length else ""

    def render(self) -> str:
        """Textual form for files and messages; empty renders as '-'."""
        return self.text or "-"

    def bit(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.value >> (self.length - 1 - i)) & 1

    def __len__(self) -> int:
        return self.length

    def __str__(self) -> str:
        return self.render()


EMPTY = BitString(0, 0)

WordSet = FrozenSet[BitString]


def append(w: BitString, w2: BitString) -> BitString:
    if w.length + w2.length > LMAX:
        raise CapacityError(f"append would exceed {LMAX} bits")
    return BitString(w.length + w2.length, (w.value << w2.length) | w2.value)


def is_prefix(w: BitString, w2: BitString) -> bool:
    """True when ``w`` is a (not necessarily proper) prefix of ``w2``."""
    if w.length > w2.length:
        return False
    return (w2.value >> (w2.length - w.length)) == w.value


def comparable(w: BitString, w2: BitString) -> bool:
    """True when either string is a prefix of the other."""
    return is_prefix(w, w2) or is_prefix(w2, w)


def strip_prefix(prefix: BitString, w: BitString) -> BitString:
    """Remove ``prefix`` from the front of ``w``."""
    if not is_prefix(prefix, w):
        raise ValueError(f"'{prefix}' is not a prefix of '{w}'")
    rest = w.length - prefix.length
    return BitString(rest, w.value & ((1 << rest) - 1))


def flipped(w: BitString) -> BitString:
    """Swap every 0 and 1; involutive."""
    return BitString(w.length, w.value ^ ((1 << w.length) - 1))


def flip_words(words: Iterable[BitString]) -> WordSet:
    return frozenset(flipped(w) for w in words)


def strip_prefix_all(prefix: BitString, words: Iterable[BitString]) -> WordSet:
    return frozenset(strip_prefix(prefix, w) for w in words)


def append_all(w: BitString, words: Iterable[BitString]) -> WordSet:
    return frozenset(append(w, w2) for w2 in words)


def common_prefix(words: WordSet) -> BitString:
    """Longest string that prefixes every member of a non-empty set."""
    if not words:
        raise ValueError("common prefix of an empty set is undefined")
    it = iter(words)
    acc = next(it)
    for w in it:
        n = min(acc.length, w.length)
        a, b = acc.value >> (acc.length - n), w.value >> (w.length - n)
        x = a ^ b
        keep = n if x == 0 else n - x.bit_length()
        acc = BitString(keep, a >> (n - keep))
        if acc.length == 0:
            return EMPTY
    return acc


def children(w: BitString) -> tuple[BitString, BitString]:
    return (BitString(w.length + 1, w.value << 1),
            BitString(w.length + 1, (w.value << 1) | 1))


def extensions_to_length(w: BitString, n: int) -> WordSet:
    """All length-``n`` strings having ``w`` as a prefix."""
    if w.length > n:
        raise ValueError(f"'{w}' is longer than {n}")
    pad = n - w.length
    return frozenset(BitString(n, (w.value << pad) | tail) for tail in range(1 << pad))


def expand_to_length(words: Iterable[BitString], n: int) -> WordSet:
    out: set[BitString] = set()
    for w in words:
        out |= extensions_to_length(w, n)
    return frozenset(out)


def full_nodes(words: WordSet, depth_bound: int | None = None) -> WordSet:
    """Prefixes of members whose whole subtree is covered by ``words``.

    A trie node is full when it is a member itself or both its children
    exist in the trie and are full.  Only prefixes of members are
    reported; deeper extensions of a member are full by definition but
    carry no information for reduction.
    """
    if not words:
        raise ValueError("empty word set")
    if depth_bound is not None:
        for w in words:
            if w.length > depth_bound:
                raise ValueError(f"member '{w}' exceeds depth bound {depth_bound}")
    nodes: set[BitString] = set()
    for w in words:
        for ln in range(w.length + 1):
            nodes.add(BitString(ln, w.value >> (w.length - ln)))
    # A node under a member is covered outright, which matters when the
    # input is not prefix-free.
    covered: set[BitString] = set()
    for node in sorted(nodes, key=lambda w: w.length):
        if node in words:
            covered.add(node)
        elif node.length and BitString(node.length - 1, node.value >> 1) in covered:
            covered.add(node)
    full: set[BitString] = set()
    for node in sorted(nodes, key=lambda w: -w.length):
        if node in covered:
            full.add(node)
            continue
        c0, c1 = children(node)
        if c0 in full and c1 in full:
            full.add(node)
    return frozenset(full)


def reduced(words: WordSet) -> WordSet:
    """Cut every full subtree down to its root; idempotent, prefix-free."""
    full = full_nodes(words)
    return frozenset(w for w in full
                     if not any(is_prefix(p, w) and p != w for p in full))
