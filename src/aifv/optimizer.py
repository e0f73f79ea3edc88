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

Every fact of a tree problem has one owner.  One :class:`PieceTable`
per process and (delay, depth bound, links), from :func:`piece_table`,
holds what neither a probability nor a price changes: the links, link
``i`` being the family's mode ``i``, and, filled as the searches ask,
the pieces that fit at each (position, tree interval end, symbols left).
Every build over the same links shares it.  One :class:`SearchTable` per
build adds the probabilities: the probability sums of every symbol set
and the candidate symbols of each placed set.  :func:`link_prices` turns
each iteration's cost vector, in the table's link order, into the
:class:`LinkPrices` every tree of that iteration reads; they also keep
each piece list's order by cost, which goes with them at the end of the
iteration.  A tree's problem is its mode and those prices.  A piece
costs its depth plus the price at its link index, and a solved tree's
link indices are its forest links.  An expansion makes no child: each
candidate symbol pushes one stream that makes its children in ascending
piece cost, keyed by a bound on all of them, only when that key comes
up (partial expansion, Yoshizumi et al., AAAI 2000, with selective
child generation, Felner et al., AAAI 2012).  The heap pops the same
states in the same order as one holding every child, and most children
are never bounded.

A binary alphabet needs no search: :mod:`aifv.splits` solves every
tree of an iteration at once, choosing among trees of equal cost the
one this search returns.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cache
from operator import add
from typing import Sequence

from .bitstrings import BitString
from .forest import CodeTree
from .modes import ContinuousModeId, Mode

NODE_BUDGET_DEFAULT = 10_000_000

# Safety margin subtracted from float lower bounds so rounding can never
# prune the true optimum; final objectives are compared at 1e-12.
BOUND_SLACK = 1e-9


# The mode families and starting-cost rules a build takes, and the error
# it raises, defined apart from the builder so the command line reads
# them without loading its numpy layers.
FAMILIES = ("continuous", "aifvm", "full-binary")
INIT_RULES = ("formula", "huffman-floor")


class BuildError(RuntimeError):
    pass


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


_NO_PIECES: tuple[tuple, tuple, float] = ((), (), 0.0)


class PieceTable:
    """The pieces that fit in the trees of one delay, depth bound and
    link list, which no probability and no link price changes, filled as
    the searches ask for them.

    Link ``i`` is ``links[i]``, in the caller's order: the family's mode
    ``i``.  A depth-d piece linked by index ``i`` is
    ``widths[i] << (d_max - d)`` wide.  The pieces that fit at each
    (position, tree interval end, symbols left) are kept as two parallel
    tuples, their depths and their link indices, with the log2 of the
    largest room any of them leaves as a share of the unit interval.  A
    key without pieces shares one empty entry.
    """

    def __init__(self, n: int, d_max: int, links: Sequence[ContinuousModeId]):
        if d_max < 1:
            raise ValueError("depth bound must be at least 1")
        self.n, self.d_max = n, d_max
        self.links = tuple(links)
        self.scale = 1 << (d_max + n)
        # per k1, its links' (k2, index) pairs, k2 ascending
        by_k1: dict[int, list[tuple[int, int]]] = {}
        for idx, c in enumerate(self.links):
            by_k1.setdefault(c.k1, []).append((c.k2, idx))
        self.by_k1 = {k1: tuple(zip(*sorted(pairs))) for k1, pairs in by_k1.items()}
        self.widths = tuple((1 << n) - c.k1 - c.k2 for c in self.links)
        self.min_width = min(self.widths)
        # keyed by ((symbols left * (scale + 1) + end) * scale + x); x < end <= scale
        self.piece_lists: dict[int, tuple[tuple, tuple, float]] = {}

    def pieces_at(self, x: int, end: int, rem_after: int) -> tuple[tuple, tuple, float]:
        """Every piece that can start at ``x`` in a tree whose interval
        ends at ``end``, with ``rem_after`` symbols still to place after
        it, in (depth, k2) order, as ``(depths, link indices, log room)``:
        the last is ``log2`` of the largest room a piece leaves, as a
        share of the unit interval, and 0.0 when no symbol remains.

        A depth-d piece linked to (k1, k2) is ``(2^n - k1 - k2) << (d_max - d)``
        wide and x fixes its k1.  The room it leaves must be at least
        ``min_width`` times ``rem_after`` (and none after the last
        symbol), which bounds k2 from below.  A width bound from above
        could never exclude a piece: every family allows link (0, 0),
        whose depth-0 piece spans the whole unit interval, so one
        remaining symbol's widest piece already covers any room left.
        """
        key = (rem_after * (self.scale + 1) + end) * self.scale + x
        out = self.piece_lists.get(key)
        if out is None:
            pieces = tuple(self._fit(x, end, rem_after))
            if pieces:
                depths, idxs, ends = zip(*pieces)
                room_log = math.log2((end - min(ends)) / self.scale) if rem_after else 0.0
                out = depths, idxs, room_log
            else:
                out = _NO_PIECES
            self.piece_lists[key] = out
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
                yield d, idxs[t], x + ((free - k2s[t]) << unit)


@cache
def piece_table(n: int, d_max: int, links: tuple[ContinuousModeId, ...]) -> PieceTable:
    """The piece table of ``links`` at delay ``n`` and depth bound
    ``d_max``, one per process, shared by every build over them."""
    return PieceTable(n, d_max, links)


class SearchTable:
    """What the tree searches of one build read that no link price
    changes.

    The build's piece table, shared with every build of the same delay,
    depth bound and links, gives the pieces and the links: link ``i`` is
    the family's mode ``i``.  Per build the table holds the probability
    sum and entropy term of every symbol set, and fills the candidate
    symbols of each placed set as the searches ask for them.
    """

    def __init__(self, pieces: PieceTable, probs: Sequence[float]):
        if not probs:
            raise ValueError("one probability per symbol required")
        self.pieces = pieces
        self.n, self.d_max, self.links = pieces.n, pieces.d_max, pieces.links
        self.scale, self.widths = pieces.scale, pieces.widths
        self.probs = probs = tuple(float(x) for x in probs)
        m = len(probs)
        self.psum = psum = [0.0] * (1 << m)
        self.hsum = hsum = [0.0] * (1 << m)
        for mask in range(1, 1 << m):
            low = mask & -mask
            sym = low.bit_length() - 1
            psum[mask] = psum[mask ^ low] + probs[sym]
            hsum[mask] = hsum[mask ^ low] - probs[sym] * math.log2(probs[sym])
        self._cands: dict[int, list[int]] = {}

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


@dataclass(eq=False)
class LinkPrices:
    """One iteration's link costs, shared by every tree solved against
    them.

    ``flat[i]`` is the cost of link ``i`` of ``table``, the search table
    the prices were made for.  ``alpha_min`` is the least link cost plus
    the log of the share of the cell the link keeps.  ``bounded`` counts
    the children the solves against these prices have bounded.  The
    prices keep, per piece list a search has read, its pieces in
    ascending cost (:meth:`cost_order`); they go with the prices, at the
    end of the iteration.
    """

    table: SearchTable
    flat: tuple[float, ...]
    min_cost: float
    alpha_min: float
    bounded: int = 0
    _orders: dict = field(default_factory=dict, repr=False)

    def cost_order(self, x: int, end: int, rem_after: int) -> tuple:
        """The pieces of ``pieces_at(x, end, rem_after)`` by cost, as
        ``(pieces, costs, order)``: ``costs[j]`` is piece j's depth plus
        its link's price, and ``order`` the piece positions in ascending
        cost, ties in table order."""
        key = (x, end, rem_after)
        out = self._orders.get(key)
        if out is None:
            pieces = self.table.pieces.pieces_at(x, end, rem_after)
            costs = list(map(add, pieces[0], map(self.flat.__getitem__, pieces[1])))
            order = sorted(range(len(costs)), key=costs.__getitem__)
            out = self._orders[key] = (pieces, costs, order)
        return out


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
    the order in which children are made, by expansion, candidate symbol
    and piece, which also decides among trees of equal cost.

    The search reads its link costs and bound constants from
    ``model.prices``, its pieces from the build's piece table, and its
    candidate symbols and probability sums from the search table those
    prices were made for, which every solve of a build shares and fills.
    A piece's cost is its depth plus the price at its link index, and
    each piece carries the log of the room it leaves, so a child's bound
    costs a few float operations.

    Children are made lazily (partial expansion with selective child
    generation, after Felner et al., AAAI 2012).  An expansion makes no
    child: it pushes one stream per candidate symbol, which walks the
    pieces in ascending cost (:meth:`LinkPrices.cost_order`).  A stream's
    key is ``g + p * A`` at its next piece of cost ``A``, plus the rest
    bound at the largest room log among the pieces; IEEE add, multiply
    and max are monotone, so the key bounds every child the stream has
    yet to make and never falls.  A popped stream makes children while it
    stays the heap's least entry, drops each against the cutoff in force
    at its expansion, and pushes the rest of itself; it is no node.
    Child ``j`` of candidate ``i`` takes the tie key
    ``base + i * (P + 1) + 1 + j`` for the expansion's first key
    ``base`` and its ``P`` pieces, its stream ``base + i * (P + 1)``:
    keys rise in the order of the expansion, candidate and piece, and a
    stream sorts just below its children.  The heap thus pops the same
    states in the same order, under the same node budget, as one holding
    every surviving child, and stops before bounding most of them.  The
    last symbol's children are bounded by their cost and made at once,
    up to the first at the cutoff.  States point to their parents, and
    the path is rebuilt once at the end.

    A returned tree names its links by index.  It is checked by
    :func:`check_assignment` as a tiling of the mode's interval, and its
    objective is recomputed from the pieces; either failure raises
    :class:`ModelError`.
    """
    prices = model.prices
    table = prices.table
    n, d_max, probs = table.n, table.d_max, table.probs
    m = len(probs)
    min_cost, alpha_min = prices.min_cost, prices.alpha_min
    scale, widths = table.scale, table.widths
    mode_id = model.mode_id
    start = mode_id.k1 << d_max
    end = ((1 << n) - mode_id.k2) << d_max
    log2 = math.log2
    psum, hsum = table.psum, table.hsum
    cost_order, candidates = prices.cost_order, table.candidates

    full_mask = (1 << m) - 1
    nodes = bounded = 0
    # A state's node is None at the start, else (parent node, symbol,
    # depth, link index); g accumulates p * (depth + link cost).
    best = None  # the cheapest tree so far, (g, node)
    cutoff = math.inf if below is None else below

    # Heap entries are (bound, tie, x, used, g, node, stream, t): a state
    # when ``stream`` is None, else the children not yet made of one
    # candidate of the state's expansion, from row t of its cost order on.
    heappush, heappop = heapq.heappush, heapq.heappop

    # A state's lower bound on the cost still to come: the entropy of the
    # unplaced probabilities over the log share of the interval left to
    # them, priced at alpha_min, and at least their total times the least
    # link cost; 0.0 once every symbol is placed.
    p_total = psum[full_mask]
    ent = hsum[full_mask] + p_total * (
        log2(p_total) - log2((end - start) / scale) + alpha_min)
    heap: list = [(max(ent, p_total * min_cost) - BOUND_SLACK, 0, start, 0, 0.0, None, None, 0)]
    ties = 1  # the next expansion's first tie key
    closed: dict[tuple[int, int], float] = {}
    while heap:
        f, tie, x, used, g, node, stream, t = heappop(heap)
        if stream is not None:
            # make the stream's children, each dropped against the cutoff
            # of its expansion, while the stream stays the heap's least
            # entry; f bounds every child left, so none was due before
            (depths, idxs, _), costs, order, rest, sym, p, cut, h_total, p_total, \
                log_p, floor = stream
            while True:
                j = order[t]
                d, idx = depths[j], idxs[j]
                x2 = x + (widths[idx] << (d_max - d))
                ent = h_total + p_total * (log_p - log2((end - x2) / scale) + alpha_min)
                g2 = g + p * costs[j]
                f2 = g2 + ((floor if floor > ent else ent) - BOUND_SLACK)
                bounded += 1
                if f2 < cut:
                    heappush(heap, (f2, tie + 1 + j, x2, used | (1 << sym), g2,
                                    (node, sym, d, idx), None, 0))
                t += 1
                if t == len(order):
                    break
                f = (g + p * costs[order[t]]) + rest
                if f >= cut:
                    break
                if heap and heap[0][:2] < (f, tie):
                    heappush(heap, (f, tie, x, used, g, node, stream, t))
                    break
            continue
        nodes += 1
        if nodes > node_budget:
            raise ResourceLimitError(f"node budget {node_budget} exhausted "
                                     f"for mode ({mode_id.k1}, {mode_id.k2})")
        if f >= cutoff:
            break
        state = (x, used)
        prev = closed.get(state)
        if prev is not None and prev <= g:
            continue
        closed[state] = g
        if used == full_mask:
            # the last piece ends at ``end`` and the tree costs f = g < cutoff
            best, cutoff = (g, node), g - 1e-15
            continue
        rem_after = (full_mask ^ used).bit_count() - 1
        pieces, costs, order = cost_order(x, end, rem_after)
        if not order:
            continue
        # child j of candidate i takes tie key base + i * stride + 1 + j
        # and its stream base + i * stride: keys rise with candidate and
        # piece, and lie above every earlier expansion's
        base, stride = ties, len(order) + 1
        cands = candidates(used)
        ties += len(cands) * stride
        if not rem_after:
            # the last symbol: a child's bound is its cost, ascending here
            (sym,) = cands
            p = probs[sym]
            depths, idxs, _ = pieces
            for j in order:
                g2 = g + p * costs[j]
                bounded += 1
                if g2 >= cutoff:
                    break
                d, idx = depths[j], idxs[j]
                heappush(heap, (g2, base + 1 + j, end, full_mask, g2, (node, sym, d, idx),
                                None, 0))
            continue
        cost, room_log = costs[order[0]], pieces[2]
        for sym in cands:
            p = probs[sym]
            left = full_mask ^ used ^ (1 << sym)
            # the bound at a piece's end with the symbol's terms hoisted;
            # at the largest room log of the pieces it bounds the rest of
            # every child, so the cheapest child left bounds them all
            p_total, h_total = psum[left], hsum[left]
            log_p, floor = log2(p_total), p_total * min_cost
            ent = h_total + p_total * (log_p - room_log + alpha_min)
            rest = (floor if floor > ent else ent) - BOUND_SLACK
            f2 = (g + p * cost) + rest
            if f2 < cutoff:
                heappush(heap, (f2, base, x, used, g, node,
                                (pieces, costs, order, rest, sym, p, cutoff, h_total, p_total,
                                 log_p, floor), 0))
            base += stride
    prices.bounded += bounded

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
    flat = prices.flat
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
