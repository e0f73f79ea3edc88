"""Decoder-query sets (modes) and their enumeration.

A mode is the prefix-free string set a decoder queries to resolve one
symbol.  The basic family for delay ``n`` is obtained by reducing
``'0' + Lb  union  '1' + Ub`` over all non-empty ``Lb, Ub`` of length
``n - 1``.  A mode of the continuous subfamily is identified by the pair
``(k1, k2)`` and covers ``[k1 / 2**n, 1 - k2 / 2**n)`` of the unit
interval: it drops the ``k1`` outermost length-``n`` leaves on the '0'
side and the ``k2`` outermost on the '1' side.  Its words are the
largest dyadic cells that tile that interval, written out directly from
its two ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

from .bitstrings import (
    BitString,
    EMPTY,
    WordSet,
    append,
    flip_words,
    reduced,
)

# Full basic-family enumeration explodes as (2**2**(n-1) - 1)**2; four is
# the last size a desk machine enumerates comfortably.
MAX_BASIC_DELAY = 4
MAX_CONTINUOUS_DELAY = 8


@dataclass(frozen=True)
class Mode:
    """A prefix-free query set together with its delay bound."""

    words: WordSet
    n: int

    def render(self) -> str:
        return ",".join(w.render() for w in sorted(self.words, key=lambda w: w.text))

    def sort_key(self) -> tuple[str, ...]:
        return tuple(sorted(w.text for w in self.words))

    def __str__(self) -> str:
        return self.render()


class ContinuousModeId(NamedTuple):
    k1: int
    k2: int


def is_basic_mode(words: WordSet, n: int) -> bool:
    """Membership test for the delay-``n`` basic family.

    Equivalent to being the reduction of a two-sided length-``n`` leaf
    set: reduced, member lengths at most ``n``, and (unless the set is
    the bare empty string) covering both first bits.
    """
    if not words:
        return False
    if any(w.length > n for w in words):
        return False
    if reduced(words) != words:
        return False
    if words == frozenset({EMPTY}):
        return True
    first_bits = {w.bit(0) for w in words}
    return first_bits == {0, 1}


def enumerate_basic_modes(n: int) -> list[Mode]:
    """All basic modes for delay ``n``, canonically ordered."""
    if not 1 <= n <= MAX_BASIC_DELAY:
        raise ValueError(f"basic-mode enumeration supports 1..{MAX_BASIC_DELAY}, got {n}")
    half = [BitString(n - 1, v) for v in range(1 << (n - 1))]
    zero, one = BitString(1, 0), BitString(1, 1)
    seen: set[WordSet] = set()
    out: list[Mode] = []
    for lb_mask in range(1, 1 << len(half)):
        lbs = frozenset(append(zero, half[i]) for i in range(len(half)) if lb_mask >> i & 1)
        for ub_mask in range(1, 1 << len(half)):
            ubs = frozenset(append(one, half[i]) for i in range(len(half)) if ub_mask >> i & 1)
            words = reduced(lbs | ubs)
            if words not in seen:
                seen.add(words)
                out.append(Mode(words, n))
    expected = ((1 << (1 << (n - 1))) - 1) ** 2
    if len(out) != expected:
        raise AssertionError(f"basic-mode count {len(out)} != {expected}")
    out.sort(key=Mode.sort_key)
    return out


@cache
def basic_family(n: int) -> tuple[tuple[Mode, ...], dict[WordSet, int]]:
    """The basic modes for delay ``n`` in :func:`enumerate_basic_modes`
    order, and each one's index by its words; built once per process."""
    modes = tuple(enumerate_basic_modes(n))
    return modes, {m.words: i for i, m in enumerate(modes)}


def enumerate_continuous_ids(n: int) -> list[ContinuousModeId]:
    if not 1 <= n <= MAX_CONTINUOUS_DELAY:
        raise ValueError(f"continuous enumeration supports 1..{MAX_CONTINUOUS_DELAY}, got {n}")
    r = 1 << (n - 1)
    return [ContinuousModeId(k1, k2) for k1 in range(r) for k2 in range(r)]


def mode_from_id(n: int, cid: ContinuousModeId) -> Mode:
    """The continuous mode ``(k1, k2)``: the largest aligned cells tiling
    ``[k1, 2**n - k2)``, in units of ``2**-n``.  From ``lo = k1``, each
    step takes the largest cell at ``lo`` that ends by ``hi``; a cell of
    ``2**j`` units is the word of length ``n - j`` with value
    ``lo >> j``."""
    r = 1 << (n - 1)
    if not (0 <= cid.k1 < r and 0 <= cid.k2 < r):
        raise ValueError(f"id {cid} out of range for delay {n}")
    lo, hi = cid.k1, (1 << n) - cid.k2
    words = []
    while lo < hi:
        size = lo & -lo or 1 << n
        while lo + size > hi:
            size >>= 1
        j = size.bit_length() - 1
        words.append(BitString(n - j, lo >> j))
        lo += size
    return Mode(frozenset(words), n)


def flip_mode(mode: Mode) -> Mode:
    return Mode(flip_words(mode.words), mode.n)
