"""Exact binary-string algebra: prefix relations, flips and reduction.

Codewords, decoder queries, and mode members are short binary strings that
must be manipulated without any rounding.  A string is stored as a
``(length, value)`` pair with the first bit in the most significant
position, so appending and prefix tests are plain integer arithmetic.
A word set is reduced by merging sibling pairs ``w0``, ``w1`` into
their parent ``w`` from the deepest length up, which leaves the largest
subtrees whose leaves the set covers.
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


def flipped(w: BitString) -> BitString:
    """Swap every 0 and 1; involutive."""
    return BitString(w.length, w.value ^ ((1 << w.length) - 1))


def flip_words(words: Iterable[BitString]) -> WordSet:
    return frozenset(flipped(w) for w in words)


def append_all(w: BitString, words: Iterable[BitString]) -> WordSet:
    return frozenset(append(w, w2) for w2 in words)


def reduced(words: WordSet) -> WordSet:
    """The fewest strings covering the same leaves: drop every member with
    a proper prefix among the members, then, deepest length first,
    replace each sibling pair ``w0``, ``w1`` with its parent ``w``.
    Idempotent; the result is prefix-free."""
    if not words:
        raise ValueError("empty word set")
    levels: dict[int, set[int]] = {}  # kept values by length
    for w in sorted(words, key=lambda w: w.length):
        if not any(w.value >> (w.length - ln) in levels.get(ln, ()) for ln in range(w.length)):
            levels.setdefault(w.length, set()).add(w.value)
    for ln in range(max(levels), 0, -1):
        level = levels.get(ln, set())
        parents = {v >> 1 for v in level if not v & 1 and v | 1 in level}
        if parents:
            level -= {p << 1 for p in parents} | {p << 1 | 1 for p in parents}
            levels.setdefault(ln - 1, set()).update(parents)
    return frozenset(BitString(ln, v) for ln, level in levels.items() for v in level)
