"""Exact single-tree optimisation.

One tree of a forest assigns each symbol a codeword and a link, paying
``len(codeword) + cost(linked mode)`` weighted by the symbol probability.
Restricted to continuous link modes, a feasible tree is exactly an
abutting tiling of the tree's own interval ``[K1/2^n, 1 - K2/2^n)`` by
per-symbol intervals of the form ``cell(codeword)`` shrunk by the linked
mode's margins.  The paper states the problem as an integer program; here
a best-first branch-and-bound walks the tiling left to right, bounded
below by a width-entropy relaxation, and returns a provably optimal tree.
:func:`check_assignment` then checks every solved tree as a tiling:
pieces on their depth's grid, abutting from the interval's start to its
end, every link an index of the search table.  The integer model
itself lives in the tests (``tests/oracles.py``), where it checks this
search and that check.

A caller that already holds a tree for the mode passes that tree's cost
under the current prices as a cutoff, and the search returns a cheaper
tree or None; without a cutoff the first tree the search completes is
optimal.  Every iteration of the forest construction thus runs the same
search.

Every fact of a tree problem has one owner.  One :class:`SearchTable`
per build holds what no link price changes: the delay, the depth bound,
the probabilities and the links, link ``i`` being the family's mode
``i``.  It fills, as the searches ask, the pieces that fit at each
(position, tree interval end, symbols left), the candidate symbols of
each placed set and the probability sums of every symbol set.
:func:`link_prices` turns each iteration's cost vector, in the table's
link order, into the :class:`LinkPrices` every tree of that iteration
reads.  A tree's problem is its mode and those prices.  A piece costs
its depth plus the price at its link index, and a solved tree's link
indices are its forest links.  An expansion pushes only its best
surviving child and a popped child pushes its next sibling (partial
expansion, Yoshizumi et al., AAAI 2000), so the heap holds one entry per
expansion instead of one per child, yet pops the same states in the
same order.

A binary alphabet needs no search: :mod:`aifv.splits` solves every
tree of an iteration at once, choosing among trees of equal cost the
one this search returns.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

from .bitstrings import BitString
from .forest import CodeTree
from .modes import ContinuousModeId, Mode

NODE_BUDGET_DEFAULT = 10_000_000

# Safety margin subtracted from float lower bounds so rounding can never
# prune the true optimum; final objectives are compared at 1e-12.
BOUND_SLACK = 1e-9


class ResourceLimitError(RuntimeError):
    """The branch-and-bound node budget was exhausted."""


class ModelError(AssertionError):
    """An assignment or model is internally inconsistent (a bug)."""


def initial_costs(modes: Sequence[Mode]) -> list[float]:
    """Starting link costs, in the order of ``modes``: the log-measure a
    mode's words leave uncovered.

    A tree whose mode covers ``leaves`` of the ``2^n`` length-``n``
    strings produces codewords about ``n - log2(leaves)`` bits longer,
    which prices the link before any iteration has run.  The continuous
    mode ``(k1, k2)`` covers ``2^n - k1 - k2`` of them.
    """
    return [m.n - math.log2(sum(1 << (m.n - w.length) for w in m.words)) for m in modes]


def aifvm_link_ids(n: int) -> list[ContinuousModeId]:
    """Link modes available to the classic m-tree construction: the empty
    mode plus the one-sided powers of two."""
    ids = [ContinuousModeId(0, 0)]
    ids += [ContinuousModeId(1 << j, 0) for j in range(n - 1)]
    return ids


_NO_PIECES: tuple[tuple, tuple, tuple] = ((), (), ())


class SearchTable:
    """What the tree searches of one build read that no link price
    changes, filled as the searches ask for it.

    The table is fixed by the delay, the depth bound, the links and the
    symbol probabilities, and checks their shape once for the build.
    Link ``i`` is ``links[i]``, in the caller's order: the family's mode
    ``i``.  The table holds the probability sum and entropy term of
    every symbol set, the candidate symbols of each placed set, and the
    pieces that fit at each (position, tree interval end, symbols left)
    as three parallel tuples: their depths, their link indices, and the
    log2 of the room each leaves as a share of the unit interval.  A
    depth-d piece linked by index ``i`` is ``widths[i] << (d_max - d)``
    wide.  A key without pieces shares one empty entry, and equal
    log-room values share one float.
    """

    def __init__(self, n: int, d_max: int, links: Sequence[ContinuousModeId],
                 probs: Sequence[float]):
        if not probs:
            raise ValueError("one probability per symbol required")
        if d_max < 1:
            raise ValueError("depth bound must be at least 1")
        self.n, self.d_max = n, d_max
        self.links = tuple(links)
        self.probs = probs = tuple(float(x) for x in probs)
        self.scale = 1 << (d_max + n)
        # per k1, its links' (k2, index) pairs, k2 ascending
        by_k1: dict[int, list[tuple[int, int]]] = {}
        for idx, c in enumerate(self.links):
            by_k1.setdefault(c.k1, []).append((c.k2, idx))
        self.by_k1 = {k1: tuple(zip(*sorted(pairs))) for k1, pairs in by_k1.items()}
        self.widths = tuple((1 << n) - c.k1 - c.k2 for c in self.links)
        self.min_width = min(self.widths)
        m = len(probs)
        self.psum = psum = [0.0] * (1 << m)
        self.hsum = hsum = [0.0] * (1 << m)
        for mask in range(1, 1 << m):
            low = mask & -mask
            sym = low.bit_length() - 1
            psum[mask] = psum[mask ^ low] + probs[sym]
            hsum[mask] = hsum[mask ^ low] - probs[sym] * math.log2(probs[sym])
        # keyed by ((end * scale + x) * m + symbols left); x < end <= scale
        self.piece_lists: dict[int, tuple[tuple, tuple, tuple]] = {}
        self._room_logs: dict[int, float] = {}  # room left -> its log2 share
        self._cands: dict[int, list[int]] = {}

    def pieces_at(self, x: int, end: int, rem_after: int) -> tuple[tuple, tuple, tuple]:
        """Every piece that can start at ``x`` in a tree whose interval
        ends at ``end``, with ``rem_after`` symbols still to place after
        it, in (depth, k2) order, as the parallel tuples (depths, link
        indices, log-room terms); the log-room term is 0.0 when no symbol
        remains.

        A depth-d piece linked to (k1, k2) is ``(2^n - k1 - k2) << (d_max - d)``
        wide and x fixes its k1.  The room it leaves must be at least
        ``min_width`` times ``rem_after`` (and none after the last
        symbol), which bounds k2 from below.  A width bound from above
        could never exclude a piece: every family allows link (0, 0),
        whose depth-0 piece spans the whole unit interval, so one
        remaining symbol's widest piece already covers any room left.
        """
        key = (end * self.scale + x) * len(self.probs) + rem_after
        out = self.piece_lists.get(key)
        if out is None:
            pieces = tuple(self._fit(x, end, rem_after))
            out = self.piece_lists[key] = tuple(zip(*pieces)) if pieces else _NO_PIECES
        return out

    def _fit(self, x: int, end: int, rem_after: int):
        n, d_max = self.n, self.d_max
        full_width = 1 << n
        room = end - x
        lo = self.min_width * rem_after
        for d in range(d_max + 1):
            unit = d_max - d
            if x & ((1 << unit) - 1):
                continue  # x is not on the grid of depth-d pieces
            shift = n + unit
            k1 = (x & ((1 << shift) - 1)) >> unit
            entries = self.by_k1.get(k1)
            if entries is None:
                continue
            k2s, idxs = entries
            free = full_width - k1
            if rem_after:
                i = bisect_left(k2s, free - ((room - lo) >> unit))
                j = len(k2s)
            else:
                if room & ((1 << unit) - 1):
                    continue
                i = bisect_left(k2s, free - (room >> unit))
                j = bisect_right(k2s, free - (room >> unit), i)
            for t in range(i, j):
                pe = x + ((free - k2s[t]) << unit)
                yield d, idxs[t], self._room_log(end - pe) if rem_after else 0.0

    def _room_log(self, left: int) -> float:
        out = self._room_logs.get(left)
        if out is None:
            out = self._room_logs[left] = math.log2(left / self.scale)
        return out

    def candidates(self, used_mask: int) -> list[int]:
        """The unplaced symbols, ascending, that come first among the
        unplaced ones of their probability."""
        cands = self._cands.get(used_mask)
        if cands is None:
            probs = self.probs
            cands = self._cands[used_mask] = [
                sym for sym in range(len(probs))
                if not used_mask >> sym & 1 and not any(
                    not (used_mask >> s2 & 1) and probs[s2] == probs[sym]
                    for s2 in range(sym))
            ]
        return cands


@dataclass(frozen=True)
class LinkPrices:
    """One iteration's link costs, shared by every tree solved against
    them.

    ``flat[i]`` is the cost of link ``i`` of ``table``, the search table
    the prices were made for.  ``alpha_min`` is the least link cost plus
    the log of the share of the cell the link keeps.
    """

    table: SearchTable
    flat: tuple[float, ...]
    min_cost: float
    alpha_min: float


def link_prices(table: SearchTable, costs: Sequence[float]) -> LinkPrices:
    """The link costs as every tree solve against them reads them;
    ``costs`` holds one cost per link of ``table``, in its order."""
    if len(costs) != len(table.links):
        raise ValueError(f"{len(costs)} costs given for {len(table.links)} links")
    flat = tuple(map(float, costs))
    full = 1 << table.n
    return LinkPrices(
        table=table,
        flat=flat,
        min_cost=min(flat),
        alpha_min=min(cost + math.log2(width / full)
                      for width, cost in zip(table.widths, flat)),
    )


@dataclass(frozen=True)
class IlpModel:
    """One tree's problem: its mode and the current link prices, which
    name the search table that holds the rest."""

    mode_id: ContinuousModeId
    prices: LinkPrices


def build_ilp(mode_id: ContinuousModeId, prices: LinkPrices) -> IlpModel:
    """The problem of one tree of the given mode, checked for shape."""
    n = prices.table.n
    r = 1 << (n - 1)
    if not (0 <= mode_id.k1 < r and 0 <= mode_id.k2 < r):
        raise ValueError(f"mode id {mode_id} out of range for delay {n}")
    return IlpModel(mode_id, prices)


@dataclass(frozen=True)
class TreeSolution:
    codewords: tuple[BitString, ...]
    links: tuple[int, ...]  # link indices of the search table
    objective: float
    order: tuple[int, ...]  # symbols in left-to-right interval order


def check_assignment(model: IlpModel, solution: TreeSolution) -> list[str]:
    """Every way the solved pieces fail to tile the tree's interval.

    Positions are in units of ``2^-(d_max + n)``.  Symbol ``s``'s piece
    starts at its codeword's cell ``v << (n + d_max - d)`` plus its
    link's left margin ``k1 << (d_max - d)`` and is
    ``(2^n - k1 - k2) << (d_max - d)`` wide.  Taken in ``order``, the
    first piece must start at ``k1 << d_max`` of the tree's mode, each
    next one where the last ended, and the last end at
    ``(2^n - k2) << d_max``; every depth is at most ``d_max`` and every
    link is an index into the table's links.
    """
    table, mode_id = model.prices.table, model.mode_id
    n, d_max, links = table.n, table.d_max, table.links
    m = len(table.probs)
    tree = f"mode ({mode_id.k1}, {mode_id.k2})"
    if sorted(solution.order) != list(range(m)):
        return [f"{tree}: order {solution.order} is not a permutation of {m} symbols"]
    bad = []
    x = mode_id.k1 << d_max
    for pos, sym in enumerate(solution.order):
        cw, idx = solution.codewords[sym], solution.links[sym]
        at = f"{tree}, symbol {sym} at position {pos}"
        if not 0 <= idx < len(links):
            bad.append(f"{at}: link index {idx} out of range for {len(links)} links")
            return bad  # no margins to continue the tiling with
        if not (cw.length <= d_max and 0 <= cw.value < 1 << cw.length):
            bad.append(f"{at}: codeword {cw.render()} is no cell of depth at most {d_max}")
            return bad  # no position to continue the tiling from
        link = links[idx]
        unit = d_max - cw.length
        start = (cw.value << (n + unit)) + (link.k1 << unit)
        if start != x:
            bad.append(f"{at}: piece starts at {start}, previous piece ends at {x}")
        x = start + (table.widths[idx] << unit)
    end = ((1 << n) - mode_id.k2) << d_max
    if x != end:
        bad.append(f"{tree}: last piece ends at {x}, the tree's interval at {end}")
    return bad


def solve_ilp(
    model: IlpModel,
    node_budget: int = NODE_BUDGET_DEFAULT,
    below: float | None = None,
) -> TreeSolution | None:
    """Provably optimal tree for the model, or with ``below`` the optimal
    tree among those that cost less than ``below``, None if there is none.

    Best-first search over (interval position, placed-symbol set) states,
    each bounded below by its cost so far plus a relaxation of the rest.
    The cutoff starts at ``below``, which warm-starts the search from a
    tree the caller already holds, or else at infinity, and the first
    complete tiling popped sets it to its own cost: no state left can
    lead to a cheaper tree.  A search without ``below`` that empties its
    heap has tried every tiling, so the depth bound admits none and the
    solve raises :class:`ValueError`.  States are deduplicated by
    position and placed set; symbols of equal probability are placed in
    ascending index order.  Deterministic: ties in the bound fall back to
    insertion order, which also decides among trees of equal cost.

    The search reads its link costs and bound constants from
    ``model.prices``, and its pieces, candidate symbols and probability
    sums from the search table those prices were made for, which every
    solve of a build shares and fills.  A piece's cost is its depth plus
    the price at its link index, and each piece carries the log of the
    room it leaves, so a child's bound costs a few float operations.
    Children are merged lazily: an expansion bounds and prunes all of its
    children, sorts the survivors by (bound, insertion number) and pushes
    only the first, and popping a child pushes its next sibling.  The
    heap thus pops the same states in the same order, under the same
    node budget, as one holding every child.  States point to their
    parents, and the path is rebuilt once at the end.

    A returned tree names its links by index.  It is checked by
    :func:`check_assignment` as a tiling of the mode's interval, and its
    objective is recomputed from the pieces; either failure raises
    :class:`ModelError`.
    """
    prices = model.prices
    table = prices.table
    n, d_max, probs = table.n, table.d_max, table.probs
    m = len(probs)
    flat = prices.flat
    min_cost, alpha_min = prices.min_cost, prices.alpha_min
    scale, widths = table.scale, table.widths
    mode_id = model.mode_id
    start = mode_id.k1 << d_max
    end = ((1 << n) - mode_id.k2) << d_max
    log2 = math.log2
    psum, hsum = table.psum, table.hsum
    pieces_at, candidates = table.pieces_at, table.candidates

    full_mask = (1 << m) - 1
    nodes = 0
    # A state's node is None at the start, else (parent node, symbol,
    # depth, link index); g accumulates p * (depth + link cost).
    best = None  # the cheapest tree so far, (g, node)
    cutoff = math.inf if below is None else below

    heap: list = []
    heappush, heappop = heapq.heappush, heapq.heappop

    def push_child(group: tuple, i: int) -> None:
        kids, x, used, node = group
        f2, seq2, g2, sym, d, idx = kids[i]
        heappush(heap, (f2, seq2, x + (widths[idx] << (d_max - d)), used | (1 << sym), g2,
                        (node, sym, d, idx), group, i))

    # A state's lower bound on the cost still to come: the entropy of the
    # unplaced probabilities over the log share of the interval left to
    # them, priced at alpha_min, and at least their total times the least
    # link cost; 0.0 once every symbol is placed.
    p_total = psum[full_mask]
    ent = hsum[full_mask] + p_total * (
        log2(p_total) - log2((end - start) / scale) + alpha_min)
    heap.append((max(ent, p_total * min_cost) - BOUND_SLACK, 0, start, 0, 0.0, None, None, 0))
    seq = 0
    closed: dict[tuple[int, int], float] = {}
    while heap:
        f, _, x, used, g, node, group, i = heappop(heap)
        nodes += 1
        if nodes > node_budget:
            raise ResourceLimitError(f"node budget {node_budget} exhausted "
                                     f"for mode ({mode_id.k1}, {mode_id.k2})")
        if f >= cutoff:
            break
        if group is not None and i + 1 < len(group[0]):
            push_child(group, i + 1)
        state = (x, used)
        prev = closed.get(state)
        if prev is not None and prev <= g:
            continue
        closed[state] = g
        if used == full_mask:
            # the last piece ends at ``end`` and the tree costs f = g < cutoff
            best, cutoff = (g, node), g - 1e-15
            continue
        depths, idxs, room_logs = pieces_at(x, end, (full_mask ^ used).bit_count() - 1)
        kids = []
        for sym in candidates(used):
            p = probs[sym]
            left = full_mask ^ used ^ (1 << sym)
            if not left:
                for d, idx in zip(depths, idxs):
                    g2 = g + p * (d + flat[idx])
                    if g2 < cutoff:
                        seq += 1
                        kids.append((g2, seq, g2, sym, d, idx))
                continue
            # the same bound at the piece's end, the symbol's terms hoisted;
            # the conditional is max(ent, floor) without the call
            p_total, h_total = psum[left], hsum[left]
            log_p, floor = log2(p_total), p_total * min_cost
            for d, idx, room_log in zip(depths, idxs, room_logs):
                ent = h_total + p_total * (log_p - room_log + alpha_min)
                g2 = g + p * (d + flat[idx])
                f2 = g2 + ((floor if floor > ent else ent) - BOUND_SLACK)
                if f2 < cutoff:
                    seq += 1
                    kids.append((f2, seq, g2, sym, d, idx))
        if kids:
            kids.sort()
            push_child((kids, x, used, node), 0)

    if best is None:
        if below is None:
            raise ValueError(f"no tree of mode ({mode_id.k1}, {mode_id.k2}) "
                             f"fits depth bound {d_max}")
        return None  # no tree costs less than ``below``

    objective, node = best
    path = []
    while node is not None:
        node, sym, d, idx = node
        path.append((sym, d, idx))
    path.reverse()
    order = tuple(sym for sym, _, _ in path)
    codewords: list = [None] * m
    links: list = [0] * m
    x = start
    for sym, d, idx in path:
        codewords[sym] = BitString(d, x >> (n + d_max - d))
        links[sym] = idx
        x += widths[idx] << (d_max - d)
    recomputed = sum(probs[s] * (codewords[s].length + flat[links[s]]) for s in range(m))
    solution = TreeSolution(tuple(codewords), tuple(links), float(recomputed), order)
    bad = check_assignment(model, solution)
    if bad:
        raise ModelError(f"solver output is no tiling: {bad[:3]}")
    if abs(recomputed - objective) > 1e-9:
        raise ModelError("objective mismatch between search and recomputation")
    return solution


def decode_solution(solution: TreeSolution, mode: Mode) -> CodeTree:
    """The solved tree, whose tiling :func:`solve_ilp` has checked, as a
    code tree of the given mode.  Its link indices are the forest's tree
    indices, since link ``i`` of the search table is the family's mode
    ``i``."""
    return CodeTree(solution.codewords, solution.links, mode)
