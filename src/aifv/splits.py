"""Binary alphabets: every tree of the modes a build solves as a split,
priced at once.

With two symbols a tree is two abutting pieces, so the list of a mode's
splits, (first piece, closing piece) pairs, depends on no price.  A
:class:`SplitTable` holds every split of the family modes a build solves
(one of each mirror pair, or every mode) as flat (depth, link, depth,
link) columns, built once per process, and :func:`brute_force_binary`
prices the whole table with one gather per iteration and takes each
mode's minimum.

For the interval families (``continuous``, ``aifvm``) the table is
built by arithmetic: a first piece depends only on the mode's left
margin, a closing piece only on its right margin, and a mode's splits
join the two on where the first piece ends.  Among splits of equal cost
the choice is that of the tree search (:func:`aifv.optimizer.solve_ilp`):
least bound at the first piece, then table order, so a binary tree is
the one the search returns, bit for bit.  The full basic family, which
covers discontinuous link modes as well (delays 1 to 3), takes its
table from each mode's leaf-set partitions, in mask order, and works
over basic-mode indices: link ``i`` is the basic family's mode ``i``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import groupby
from typing import Sequence

import numpy as np

from .bitstrings import BitString
from .forest import CodeTree
from .modes import ContinuousModeId, Mode, basic_family
from .optimizer import BOUND_SLACK


@dataclass(frozen=True, eq=False)
class SplitTable:
    """Every two-piece tree of some modes of one binary family, as flat
    columns: split ``s`` gives its first piece the codeword
    ``(depth_a[s], value_a[s])`` and link ``link_a[s]``, and its closing
    piece ``(depth_b[s], value_b[s])`` and ``link_b[s]``.  The table's
    mode ``j`` is the family's mode ``modes[j]``, and its splits are rows
    ``starts[j]`` to ``starts[j + 1]``; links are the family's modes.

    An interval family's table also holds its links (``ids``, link ``i``
    being mode ``i``), delay and depth bound, from which the tree
    search's bound is read to choose among equal-cost splits as the
    search does; the full family's table has none of them (``ids`` is
    None), and its first piece is symbol 0's.
    """

    depth_a: np.ndarray
    link_a: np.ndarray
    value_a: np.ndarray
    depth_b: np.ndarray
    link_b: np.ndarray
    value_b: np.ndarray
    starts: np.ndarray
    modes: tuple[int, ...]
    ids: tuple[ContinuousModeId, ...] | None = None
    n: int = 0
    d_max: int = 0

    def __len__(self) -> int:
        return len(self.depth_a)

    def tree(self, choice: int, mode: Mode) -> CodeTree:
        """The tree of a split chosen by :func:`brute_force_binary`:
        ``choice`` is a row, plus ``len(self)`` when symbol 1 takes the
        first piece."""
        row = choice % len(self)
        a = BitString(int(self.depth_a[row]), int(self.value_a[row])), int(self.link_a[row])
        b = BitString(int(self.depth_b[row]), int(self.value_b[row])), int(self.link_b[row])
        (cw0, l0), (cw1, l1) = (b, a) if choice >= len(self) else (a, b)
        return CodeTree((cw0, cw1), (l0, l1), mode)


@cache
def interval_split_table(n: int, d_max: int, ids: tuple[ContinuousModeId, ...],
                         modes: tuple[int, ...]) -> SplitTable:
    """The splits of the modes ``modes``, in that order, of an interval
    family whose links (and modes) are ``ids``, built once per process
    and (delay, depth bound, links, modes).

    Positions are in units of ``2^-(d_max + n)``.  A first piece starts
    at its mode's start ``K1 << d_max``, so its link's left margin is
    ``(K1 << d) mod 2^n`` at depth d: the first pieces depend only on K1.
    A closing piece ends at ``(2^n - K2) << d_max``, so its right margin
    is ``(K2 << d) mod 2^n``: the closing pieces depend only on K2.  A
    mode's splits join the two lists on where the first piece ends, in
    the search's order: first pieces in (depth, k2) order, then closing
    pieces by depth.

    No split is deeper than ``2n``, so a larger depth bound gives the
    same table as ``2n``, which keeps every position within int64.  (Two
    pieces of link widths ``w1, w2 <= 2^n`` at depths ``d1 <= d2`` tile a
    mode of width ``M >= 2`` when ``w1 2^-d1 + w2 2^-d2 = M``: then
    ``2^(d2 - d1)`` divides ``w2``, so ``d2 - d1 <= n``, and
    ``2^(n - d1) (1 + 2^(d1 - d2)) >= M`` gives ``d1 <= n``.)
    """
    d_max = min(d_max, 2 * n)
    full = 1 << n
    k1s, k2s = (np.array(side, dtype=np.int64) for side in zip(*ids))
    # link indices by left margin, k2 ascending, and by right margin
    by_k1: dict[int, list[int]] = {}
    by_k2: dict[int, list[int]] = {}
    for i, (k1, k2) in sorted(enumerate(ids), key=lambda pair: pair[1]):
        by_k1.setdefault(k1, []).append(i)
        by_k2.setdefault(k2, []).append(i)
    # depth, link and value columns in their narrowest types
    types = [np.min_scalar_type(d_max), np.min_scalar_type(len(ids) - 1),
             np.min_scalar_type((1 << d_max) - 1)]

    def pieces(chunks):
        """The (key, depth, link, value) columns of chunks that each give
        keys, a depth, links and values for a run of pieces."""
        return [np.concatenate([c[0] for c in chunks]),
                *(np.concatenate([np.broadcast_to(c[j], len(c[2])) for c in chunks]).astype(t)
                  for j, t in zip((1, 2, 3), types))]

    # a left margin's first pieces, keyed by length, in (depth, k2) order
    firsts = {}
    for k1_mode in by_k1:
        chunks = []
        for d in range(d_max + 1):
            links = by_k1.get((k1_mode << d) & (full - 1))
            if links is not None:
                chunks.append(((full - k1s[links] - k2s[links]) << (d_max - d), d, links,
                               (k1_mode << d) >> n))
        firsts[k1_mode] = pieces(chunks)
    # every right margin's closing pieces in one list, keyed and sorted by
    # (margin slot, length), then depth: one piece per (start, depth)
    span = (full << d_max) + 1
    slot = {k2: j for j, k2 in enumerate(sorted(by_k2))}
    chunks = []
    for k2_mode, j in slot.items():
        end = (full - k2_mode) << d_max
        for d in range(d_max + 1):
            links = by_k2.get((k2_mode << d) & (full - 1))
            if links is not None:
                length = (full - k1s[links] - k2s[links]) << (d_max - d)
                chunks.append((j * span + length, d, links, (end - length) >> (n + d_max - d)))
    closing = pieces(chunks)
    order = np.lexsort((closing[1], closing[0]))
    closing = [col[order] for col in closing]
    parts: list[list[np.ndarray]] = [[] for _ in range(6)]
    counts = []
    # consecutive modes of one left margin share their first pieces
    for k1_mode, group in groupby((ids[i] for i in modes), key=lambda cid: cid.k1):
        group = list(group)
        first = firsts[k1_mode]
        # per mode and first piece, the length its closing piece must have
        want = np.array([(full - k1_mode - cid.k2) << d_max for cid in group])[:, None] - first[0]
        keys = np.where(want > 0, want + span * np.array([[slot[cid.k2]] for cid in group]),
                        -1).ravel()
        lo = np.searchsorted(closing[0], keys, "left")
        hits = np.searchsorted(closing[0], keys, "right") - lo
        counts.extend(hits.reshape(len(group), -1).sum(axis=1).tolist())
        fi = np.repeat(np.arange(len(keys)) % len(first[0]), hits)
        ci = np.repeat(lo - (np.cumsum(hits) - hits), hits) + np.arange(int(hits.sum()))
        for part, col, at in zip(parts, first[1:] + closing[1:], [fi] * 3 + [ci] * 3):
            part.append(col[at])
    columns = []
    for part in parts:
        columns.append(np.concatenate(part))
        part.clear()  # one column at a time: the pieces go as their column is made
    starts = np.zeros(len(modes) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    return SplitTable(*columns, starts, modes, ids, n, d_max)


@cache
def full_split_table(n: int, modes: tuple[int, ...]) -> SplitTable:
    """The splits of the modes ``modes``, in that order, of the full
    basic family of delay ``n``: every ordered two-way partition of a
    mode's length-``n`` leaves, in mask order over the leaves sorted by
    value, symbol 0 taking the first part.  A part's codeword is its
    leaves' common prefix and its link the basic mode covering their
    suffixes; built once per process, delay and modes.

    A mode is read as the bit mask of the leaves it covers: word ``w``
    covers the leaf values ``[w << (n - |w|), (w + 1) << (n - |w|))``.
    """
    if not 1 <= n <= 3:
        raise ValueError("the full basic family is split for delays 1..3")
    family = basic_family(n)[0]

    def cover(cells):
        """The leaf mask of (value, depth) cells."""
        return sum(((1 << (1 << (n - d))) - 1) << (v << (n - d)) for v, d in cells)

    index_of = {cover((w.value, w.length) for w in m.words): i for i, m in enumerate(family)}
    parts = []
    for i in modes:
        mask = cover((w.value, w.length) for w in family[i].words)
        leaves = [v for v in range(1 << n) if mask >> v & 1]
        rows = []
        for split in range(1, (1 << len(leaves)) - 1):
            row = []
            for part in ([v for i, v in enumerate(leaves) if split >> i & 1],
                         [v for i, v in enumerate(leaves) if not split >> i & 1]):
                depth = n - (part[0] ^ part[-1]).bit_length()
                rest = (1 << (n - depth)) - 1
                row += [depth, index_of[cover((v & rest, n - depth) for v in part)],
                        part[0] >> (n - depth)]
            rows.append(row)
        parts.append(np.array(rows, dtype=np.uint8))  # depths, values and links fit a byte
    starts = np.cumsum([0] + [len(part) for part in parts])
    return SplitTable(*np.concatenate(parts).T, starts, modes)


def brute_force_binary(
    table: SplitTable,
    probs: Sequence[float],
    costs: Sequence[float],
    below: Sequence[float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per mode of ``table``, the cheapest of its splits and its cost
    ``p0 * (depth + cost) + p1 * (depth + cost)``, ``costs[i]`` pricing
    link ``i``: one gather and one minimum per mode over the whole table.

    Returns ``(choice, objective)``: ``choice[i]`` is the row of the
    table's mode ``i``'s split, plus ``len(table)`` when symbol 1 takes
    the first piece, and -1 when no split costs less than ``below[i]``.
    Without ``below`` every mode must have a split, else
    :class:`ValueError` names the first that has none.

    An interval family's choice is the tree :func:`solve_ilp` returns:
    among the splits of least cost, the one whose first piece has the
    least search bound, then the first in table order, which puts the
    splits where symbol 0 takes the first piece before those where
    symbol 1 does (none when the two are equally likely).  Of the full
    family's splits of least cost it is the first in mask order.
    """
    if len(probs) != 2:
        raise ValueError("the split search requires a binary alphabet")
    c = np.asarray(costs, dtype=float)
    p0, p1 = (float(x) for x in probs)
    k, size = len(table.starts) - 1, len(table)
    # d + c[l] in numpy rounds as the search's Python floats do
    xa = table.depth_a + c[table.link_a]
    xb = table.depth_b + c[table.link_b]
    costs_by_first = [p0 * xa + p1 * xb]
    if table.ids is not None and p0 != p1:
        costs_by_first.append(p1 * xa + p0 * xb)
    counts = np.diff(table.starts)
    has = counts > 0
    if below is None and not has.all():
        first = int(np.argmin(has))
        k1, k2 = table.ids[table.modes[first]]
        raise ValueError(f"no tree of mode ({k1}, {k2}) fits depth bound {table.d_max}")
    best = np.full(k, np.inf)
    for g in costs_by_first:
        best[has] = np.minimum(best[has], np.minimum.reduceat(g, table.starts[:-1][has]))
    found = has if below is None else best < np.asarray(below, dtype=float)
    at_best = np.repeat(np.where(found, best, np.nan), counts)
    cand = np.concatenate([np.flatnonzero(g == at_best) + a * size
                           for a, g in enumerate(costs_by_first)])
    mode_of = np.searchsorted(table.starts, cand % size, "right") - 1
    rank = np.zeros(len(cand))
    if table.ids is not None:
        tied = np.bincount(mode_of, minlength=k)[mode_of] > 1
        rank[tied] = _search_bounds(table, (p0, p1), c, xa, cand[tied])
    order = np.lexsort((cand, rank, mode_of))
    first = np.ones(len(order), dtype=bool)
    first[1:] = mode_of[order][1:] != mode_of[order][:-1]
    choice = np.full(k, -1, dtype=np.int64)
    choice[mode_of[order][first]] = cand[order][first]
    return choice, np.where(found, best, np.inf)


def _search_bounds(table: SplitTable, probs: tuple[float, float], c: np.ndarray,
                   xa: np.ndarray, cand: np.ndarray) -> list[float]:
    """The bound :func:`solve_ilp` pops each split's first piece at, as
    its floats round: the piece's cost plus the relaxation of the
    closing symbol over the room the piece leaves, less the slack."""
    n, d_max = table.n, table.d_max
    full, scale = 1 << n, 1 << (n + d_max)
    flat = c.tolist()
    widths = [full - cid.k1 - cid.k2 for cid in table.ids]
    min_cost = min(flat)
    alpha_min = min(cost + math.log2(width / full) for width, cost in zip(widths, flat))
    size = len(table)
    out = []
    for choice in cand.tolist():
        row = choice % size
        p_a, p_b = probs if choice < size else probs[::-1]
        room = widths[int(table.link_b[row])] << (d_max - int(table.depth_b[row]))
        ent = (0.0 - p_b * math.log2(p_b)) + p_b * (
            math.log2(p_b) - math.log2(room / scale) + alpha_min)
        floor = p_b * min_cost
        out.append(p_a * float(xa[row]) + ((floor if floor > ent else ent) - BOUND_SLACK))
    return out
