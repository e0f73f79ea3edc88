"""Exact single-tree optimisation.

One tree of a forest assigns each symbol a codeword and a link, paying
``len(codeword) + cost(linked mode)`` weighted by the symbol probability.
Restricted to continuous link modes, a feasible tree is exactly an
abutting tiling of the tree's own interval ``[K1/2^n, 1 - K2/2^n)`` by
per-symbol intervals of the form ``cell(codeword)`` shrunk by the linked
mode's margins.  That tiling view drives both halves of this module:

* an explicit integer model over binary variables (symbol depth
  selectors, link selectors, chain-adjacency indicators, codeword bits)
  with every coefficient scaled by ``2**(d_max + n)`` so feasibility is
  checked in exact integer arithmetic, and
* a best-first branch-and-bound that walks the tiling left to right,
  bounded below by a width-entropy relaxation, returning a provably
  optimal tree whose variable assignment is then verified against every
  row of the model.

The model's variables and coefficient rows depend only on the family
(delay, alphabet size, depth bound, link restriction), so a
:class:`ModelStructure` builds them once, compiled to flat integer
arrays.  The link costs change once per iteration of the forest
construction, so :meth:`ModelStructure.price` turns them once into the
:class:`LinkPrices` every tree of that iteration reads: the allowed
links grouped by left margin with their costs, and the width and cost
extremes the search bounds use.  A tree's model adds only its mode's
boundary right-hand sides to these, the search enumerates only the
pieces that fit the mode's interval, and every solve is still checked
against every row.

Inside one solve the search memoises the pieces at each (position,
symbols left) pair, each with the log-room term of its bound, and the
candidate symbols of each placed set; nothing outlives the solve.  An
expansion pushes only its best surviving child and a popped child
pushes its next sibling (partial expansion, Yoshizumi et al., AAAI
2000), so the heap holds one entry per expansion instead of one per
child, yet pops the same states in the same order.

For binary alphabets and small delays an independent partition search
over the mode's full leaf set covers discontinuous link modes as well.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .bitstrings import BitString, WordSet, common_prefix, expand_to_length, reduced, strip_prefix_all
from .forest import CodeTree
from .modes import ContinuousModeId, Mode, is_basic_mode, mode_from_id

NODE_BUDGET_DEFAULT = 10_000_000

# Safety margin subtracted from float lower bounds so rounding can never
# prune the true optimum; final objectives are compared at 1e-12.
BOUND_SLACK = 1e-9


class ResourceLimitError(RuntimeError):
    """The branch-and-bound node budget was exhausted."""


class ModelError(AssertionError):
    """An assignment or model is internally inconsistent (a bug)."""


def initial_costs(n: int) -> dict[ContinuousModeId, float]:
    """Starting link costs: the log-measure a mode's margins take away.

    A tree whose interval keeps the fraction ``(2^n - k1 - k2) / 2^n``
    of the unit interval produces codewords about that many bits longer,
    which prices the link before any iteration has run.
    """
    if n < 1:
        raise ValueError("delay must be at least 1")
    out = {}
    for k1 in range(1 << (n - 1)):
        for k2 in range(1 << (n - 1)):
            out[ContinuousModeId(k1, k2)] = n - math.log2((1 << n) - k1 - k2)
    return out


def aifvm_link_ids(n: int) -> list[ContinuousModeId]:
    """Link modes available to the classic m-tree construction: the empty
    mode plus the one-sided powers of two."""
    ids = [ContinuousModeId(0, 0)]
    ids += [ContinuousModeId(1 << j, 0) for j in range(n - 1) if (1 << j) < (1 << (n - 1))]
    return ids


@dataclass(frozen=True)
class Row:
    tag: str
    coeffs: dict
    sense: str  # 'le' or 'eq'
    rhs: int
    scale: int


class ModelStructure:
    """The mode- and cost-independent part of the tree model.

    Variables: ``t[m,d]`` symbol depth selectors, ``u[m,k1,k2]`` link
    selectors, ``w/wb[m,i]`` codeword bits and their flips, ``v`` chain
    adjacency indicators, and ``k[j,m,d]`` carrying the linked margins at
    the active depth.  Interval rows are scaled by ``2**(d_max + n)``.

    Every coefficient depends only on the delay, the alphabet size, the
    depth bound and the link restriction, so one structure serves every
    tree of a family.  The rows are kept only in compiled form: flat
    int64 arrays of column, coefficient and row start, which
    :func:`check_assignment` evaluates with one exact integer product.
    ``rhs0`` holds the right-hand sides of mode (0, 0); a mode moves only
    the four boundary rows of each symbol, by ``k1 << d_max`` or
    ``k2 << d_max`` with the sign in ``k1_shift`` or ``k2_shift``.
    """

    def __init__(self, n: int, m: int, d_max: int, aifvm: bool = False):
        if d_max < 1:
            raise ValueError("depth bound must be at least 1")
        self.n, self.m_symbols, self.d_max = n, m, d_max
        r = 1 << (n - 1)
        scale = 1 << (d_max + n)
        link_ids = tuple(ContinuousModeId(a, b) for a in range(r) for b in range(r))
        allowed = set(aifvm_link_ids(n)) if aifvm else set(link_ids)
        self.link_ids = link_ids
        self.allowed_links = tuple(c for c in link_ids if c in allowed)

        variables: dict = {}
        for sym in range(m):
            for d in range(d_max + 1):
                variables[("t", sym, d)] = 1
            for cid in link_ids:
                variables[("u", sym, cid.k1, cid.k2)] = 1
            for i in range(d_max):
                variables[("w", sym, i)] = 1
                variables[("wb", sym, i)] = 1
            for j in (1, 2):
                for d in range(d_max + 1):
                    variables[("k", j, sym, d)] = r - 1
            variables[("vL", sym)] = 1
            variables[("vR", sym)] = 1
        for sym in range(m):
            for sym2 in range(m):
                if sym != sym2:
                    variables[("v", sym, sym2)] = 1

        rows: list[Row] = []
        k1_shift: list[int] = []
        k2_shift: list[int] = []

        def add(tag, coeffs, sense, rhs, scale_=1, s1=0, s2=0):
            rows.append(Row(tag, coeffs, sense, rhs, scale_))
            k1_shift.append(s1)
            k2_shift.append(s2)

        def le(tag, coeffs, rhs, scale_=1, s1=0, s2=0):
            add(tag, coeffs, "le", rhs, scale_, s1, s2)

        def eq(tag, coeffs, rhs):
            add(tag, coeffs, "eq", rhs)

        for sym in range(m):
            for i in range(d_max):
                le(f"cw_consis1[{sym},{i}]", {("w", sym, i): 1, ("wb", sym, i): 1}, 1)
            for i in range(d_max - 1):
                le(f"cw_consis2[{sym},{i}]",
                   {("w", sym, i + 1): 1, ("wb", sym, i + 1): 1,
                    ("w", sym, i): -1, ("wb", sym, i): -1}, 0)
            eq(f"pick_t[{sym}]", {("t", sym, d): 1 for d in range(d_max + 1)}, 1)
            eq(f"pick_u[{sym}]", {("u", sym, c.k1, c.k2): 1 for c in link_ids}, 1)
            eq(f"chain_in[{sym}]",
               {("v", s2, sym): 1 for s2 in range(m) if s2 != sym} | {("vL", sym): 1}, 1)
            eq(f"chain_out[{sym}]",
               {("v", sym, s2): 1 for s2 in range(m) if s2 != sym} | {("vR", sym): 1}, 1)
            depth_coeffs = {("w", sym, i): 1 for i in range(d_max)}
            depth_coeffs |= {("wb", sym, i): 1 for i in range(d_max)}
            depth_coeffs |= {("t", sym, d): -d for d in range(d_max + 1) if d}
            eq(f"depth[{sym}]", depth_coeffs, 0)
            for j in (1, 2):
                for d in range(d_max + 1):
                    le(f"k_gate[{j},{sym},{d}]",
                       {("k", j, sym, d): 1, ("t", sym, d): -(r - 1)}, 0)
                sel = {("u", sym, c.k1, c.k2): (c.k1 if j == 1 else c.k2)
                       for c in link_ids if (c.k1 if j == 1 else c.k2)}
                sel |= {("k", j, sym, d): -1 for d in range(d_max + 1)}
                eq(f"k_select[{j},{sym}]", sel, 0)
        eq("pick_vL", {("vL", sym): 1 for sym in range(m)}, 1)
        eq("pick_vR", {("vR", sym): 1 for sym in range(m)}, 1)

        cw = [1 << (d_max + n - i - 1) for i in range(d_max)]
        kc = [1 << (d_max - d) for d in range(d_max + 1)]
        for sym in range(m):
            for sym2 in range(m):
                if sym == sym2:
                    continue
                neg = {("wb", sym, i): -cw[i] for i in range(d_max)}
                neg |= {("w", sym2, i): -cw[i] for i in range(d_max)}
                neg |= {("k", 2, sym, d): -kc[d] for d in range(d_max + 1)}
                neg |= {("k", 1, sym2, d): -kc[d] for d in range(d_max + 1)}
                le(f"adjacency[{sym},{sym2}]", neg | {("v", sym, sym2): scale}, 0, scale)
                pos = {name: -c for name, c in neg.items()}
                le(f"adjacency_full[{sym},{sym2}]",
                   pos | {("v", sym, sym2): scale}, 2 * scale, scale)
            neg_l = {("w", sym, i): -cw[i] for i in range(d_max)}
            neg_l |= {("k", 1, sym, d): -kc[d] for d in range(d_max + 1)}
            le(f"left[{sym}]", neg_l | {("vL", sym): scale}, scale, scale, s1=-1)
            le(f"left_full[{sym}]",
               {name: -c for name, c in neg_l.items()} | {("vL", sym): scale},
               scale, scale, s1=1)
            neg_r = {("wb", sym, i): -cw[i] for i in range(d_max)}
            neg_r |= {("k", 2, sym, d): -kc[d] for d in range(d_max + 1)}
            le(f"right[{sym}]", neg_r | {("vR", sym): scale}, scale, scale, s2=-1)
            le(f"right_full[{sym}]",
               {name: -c for name, c in neg_r.items()} | {("vR", sym): scale},
               scale, scale, s2=1)

        if aifvm:
            for sym in range(m):
                eq(f"aifvm[{sym}]",
                   {("u", sym, c.k1, c.k2): 1 for c in link_ids if c in allowed}, 1)

        self.variables = variables
        self.column = {name: j for j, name in enumerate(variables)}
        self.tags = [row.tag for row in rows]
        self.scales = [row.scale for row in rows]
        cols, coefs, starts = [], [], []
        for row in rows:
            starts.append(len(cols))
            for name, c in row.coeffs.items():
                cols.append(self.column[name])
                coefs.append(c)
        self.cols = np.array(cols, dtype=np.intp)
        self.coefs = np.array(coefs, dtype=np.int64)
        self.starts = np.array(starts, dtype=np.intp)
        self.is_eq = np.array([row.sense == "eq" for row in rows])
        self.rhs0 = np.array([row.rhs for row in rows], dtype=np.int64)
        self.k1_shift = np.array(k1_shift, dtype=np.int64)
        self.k2_shift = np.array(k2_shift, dtype=np.int64)
        # the largest |value| for which no row sum can leave int64
        self.value_limit = (1 << 62) // int(np.add.reduceat(np.abs(self.coefs), self.starts).max())

    def rows(self, rhs: np.ndarray) -> list[Row]:
        """The rows written out, with the given right-hand sides."""
        names = list(self.variables)
        ends = [*self.starts[1:], len(self.cols)]
        return [
            Row(tag,
                {names[j]: int(c) for j, c in zip(self.cols[lo:hi], self.coefs[lo:hi])},
                "eq" if is_eq else "le", int(bound), scale)
            for tag, lo, hi, is_eq, bound, scale
            in zip(self.tags, self.starts, ends, self.is_eq, rhs, self.scales)
        ]

    def price(self, costs: Mapping[ContinuousModeId, float]) -> LinkPrices:
        """The link costs as every tree solve against them reads them;
        ``costs`` must price every link id of the delay."""
        table = {c: float(costs[c]) for c in self.link_ids}
        full = 1 << self.n
        allowed = self.allowed_links
        by_k1: dict[int, tuple[list[int], list[float]]] = {}
        for c in allowed:  # k2 ascending within each k1
            k2s, link_costs = by_k1.setdefault(c.k1, ([], []))
            k2s.append(c.k2)
            link_costs.append(table[c])
        return LinkPrices(
            structure=self,
            costs=table,
            by_k1=by_k1,
            min_width=min(full - c.k1 - c.k2 for c in allowed),
            min_cost=min(table[c] for c in allowed),
            alpha_min=min(table[c] + math.log2((full - c.k1 - c.k2) / full) for c in allowed),
        )


@dataclass(frozen=True)
class LinkPrices:
    """One iteration's link costs, shared by every tree solved against
    them.

    ``costs`` prices every link id of the delay; ``by_k1`` maps each left
    margin to its allowed right margins, ascending, and their costs.
    ``min_width`` is the narrowest linked piece, ``2^n - k1 - k2`` in
    units of ``2^-n`` of the codeword's cell; ``alpha_min`` is the least
    link cost plus the log of the share of the cell the link keeps.
    """

    structure: ModelStructure
    costs: dict[ContinuousModeId, float]
    by_k1: dict[int, tuple[list[int], list[float]]]
    min_width: int
    min_cost: float
    alpha_min: float


@dataclass
class IlpModel:
    """One tree's model: a shared structure plus the tree's mode, the
    symbol probabilities and the current link prices."""

    structure: ModelStructure
    mode_id: ContinuousModeId
    probs: tuple[float, ...]
    prices: LinkPrices
    rhs: np.ndarray  # every row's right-hand side for this mode

    @property
    def rows(self) -> list[Row]:
        return self.structure.rows(self.rhs)

    @property
    def objective(self) -> dict:
        """name tuple -> float coefficient"""
        s = self.structure
        out = {}
        for sym, p in enumerate(self.probs):
            for d in range(1, s.d_max + 1):
                out[("t", sym, d)] = p * d
            for c in s.link_ids:
                out[("u", sym, c.k1, c.k2)] = p * self.prices.costs[c]
        return out


def build_ilp(
    structure: ModelStructure,
    mode_id: ContinuousModeId,
    probs: Sequence[float],
    prices: LinkPrices,
) -> IlpModel:
    """The model for one tree of the given mode: the shared structure
    with the mode's boundary right-hand sides and the link prices."""
    s = structure
    if len(probs) != s.m_symbols:
        raise ValueError("one probability per symbol required")
    if prices.structure is not s:
        raise ValueError("link prices were built for another model structure")
    r = 1 << (s.n - 1)
    if not (0 <= mode_id.k1 < r and 0 <= mode_id.k2 < r):
        raise ValueError(f"mode id {mode_id} out of range for delay {s.n}")
    rhs = s.rhs0 + (mode_id.k1 << s.d_max) * s.k1_shift + (mode_id.k2 << s.d_max) * s.k2_shift
    return IlpModel(
        structure=s, mode_id=mode_id,
        probs=tuple(float(x) for x in probs),
        prices=prices,
        rhs=rhs,
    )


def check_assignment(model: IlpModel, assignment: Mapping) -> list[str]:
    """Every violated row tag, evaluated in exact integer arithmetic.

    Values must be integers; one whose magnitude could overflow a row
    sum in int64 raises :class:`ModelError` instead of being evaluated.
    """
    s = model.structure
    bad = []
    cols, values = [], []
    for name, value in assignment.items():
        j = s.column.get(name)
        if j is None:
            bad.append(f"unknown variable {name}")
            continue
        if not 0 <= value <= s.variables[name]:
            bad.append(f"variable {name} out of bounds: {value}")
        cols.append(j)
        values.append(value)
    x = np.zeros(len(s.column), dtype=np.int64)
    if values:
        given = np.array(values)
        if given.dtype.kind not in "biu" or np.abs(given).max() > s.value_limit:
            raise ModelError("assignment values must be integers of moderate size")
        x[cols] = given
    lhs = np.add.reduceat(s.coefs * x[s.cols], s.starts)
    violated = np.where(s.is_eq, lhs != model.rhs, lhs > model.rhs)
    for i in np.flatnonzero(violated):
        bad.append(f"{s.tags[i]}: value {int(lhs[i])} vs rhs {int(model.rhs[i])}")
    return bad


def dump_model(model: IlpModel) -> str:
    """Textual model: one constraint per line, integer coefficients."""
    s = model.structure
    lines = [
        f"# tree model: delay={s.n} symbols={s.m_symbols} "
        f"depth<={s.d_max} mode=({model.mode_id.k1},{model.mode_id.k2})",
        f"# interval rows scaled by 2^(d_max+n) = {1 << (s.d_max + s.n)}",
        "min " + " + ".join(
            f"{c:.12g}*{'.'.join(map(str, name))}" for name, c in model.objective.items()
        ),
    ]
    for row in model.rows:
        terms = " + ".join(f"{c}*{'.'.join(map(str, name))}" for name, c in row.coeffs.items())
        op = "<=" if row.sense == "le" else "=="
        lines.append(f"{row.tag}: {terms} {op} {row.rhs}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class TreeSolution:
    codewords: tuple[BitString, ...]
    link_ids: tuple[ContinuousModeId, ...]
    objective: float
    order: tuple[int, ...]  # symbols in left-to-right interval order
    assignment: dict


def _assignment_from_pieces(model: IlpModel, pieces: list[tuple], order: list[int]) -> dict:
    assignment: dict = {}
    for sym, (d, v, k1, k2) in enumerate(pieces):
        assignment[("t", sym, d)] = 1
        for i in range(d):
            bit = (v >> (d - 1 - i)) & 1
            assignment[("w", sym, i)] = bit
            assignment[("wb", sym, i)] = 1 - bit
        assignment[("u", sym, k1, k2)] = 1
        if k1:
            assignment[("k", 1, sym, d)] = k1
        if k2:
            assignment[("k", 2, sym, d)] = k2
    assignment[("vL", order[0])] = 1
    assignment[("vR", order[-1])] = 1
    for a, b in zip(order, order[1:]):
        assignment[("v", a, b)] = 1
    return assignment


def solve_ilp(model: IlpModel, node_budget: int = NODE_BUDGET_DEFAULT) -> TreeSolution:
    """Provably optimal tree for the model.

    A greedy first-feasible dive supplies the incumbent (so a feasible
    model can never be reported infeasible), then best-first search over
    (interval position, placed-symbol set) states runs to proof.  States
    are deduplicated by position and placed set; symbols of equal
    probability are placed in ascending index order.  Deterministic:
    ties in the bound fall back to insertion order.

    Everything that depends only on the link costs comes precomputed in
    ``model.prices``.  Within one solve, the pieces that fit at a
    (position, symbols left) pair and the candidate symbols of a placed
    set are computed once, and each piece carries the log of the room it
    leaves, so a child's bound costs a few float operations.  Children
    are merged lazily: an expansion bounds and prunes all of its
    children, sorts the survivors by (bound, insertion number) and
    pushes only the first, and popping a child pushes its next sibling.
    The heap thus pops the same states in the same order, under the
    same node budget, as one holding every child.  States point to their
    parents, and the path is rebuilt once at the end.
    """
    s = model.structure
    n, d_max, m = s.n, s.d_max, s.m_symbols
    probs = model.probs
    prices = model.prices
    by_k1 = prices.by_k1
    min_width = prices.min_width
    min_cost, alpha_min = prices.min_cost, prices.alpha_min
    scale = 1 << (d_max + n)
    full_width = 1 << n
    mode_id = model.mode_id
    start = mode_id.k1 << d_max
    end = (full_width - mode_id.k2) << d_max
    log2 = math.log2

    full_mask = (1 << m) - 1
    psum = [0.0] * (1 << m)
    hsum = [0.0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        sym = low.bit_length() - 1
        psum[mask] = psum[mask ^ low] + probs[sym]
        hsum[mask] = hsum[mask ^ low] - probs[sym] * log2(probs[sym])

    piece_memo: dict[tuple[int, int], list[tuple]] = {}

    def pieces_at(x: int, rem_after: int) -> list[tuple]:
        """Every piece that can start at ``x`` with ``rem_after`` symbols
        still to place after it, in (depth, k2) order, as
        ``(d, v, k1, k2, piece end, depth + link cost, log2 of the room
        left as a share of the unit interval)``, the last 0.0 when no
        symbol remains.

        A depth-d piece linked to (k1, k2) is ``(2^n - k1 - k2) << (d_max - d)``
        wide and x fixes its k1.  The room it leaves must be at least
        ``min_width`` times ``rem_after`` (and none after the last
        symbol), which bounds k2 from below.  A width bound from above
        could never exclude a piece: every family allows link (0, 0),
        whose depth-0 piece spans the whole unit interval, so one
        remaining symbol's widest piece already covers any room left.
        """
        out = piece_memo.get((x, rem_after))
        if out is not None:
            return out
        room = end - x
        lo = min_width * rem_after
        out = []
        for d in range(d_max + 1):
            unit = d_max - d
            if x & ((1 << unit) - 1):
                continue  # x is not on the grid of depth-d pieces
            shift = n + unit
            v = x >> shift
            k1 = (x & ((1 << shift) - 1)) >> unit
            entries = by_k1.get(k1)
            if entries is None:
                continue
            k2s, link_costs = entries
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
                k2 = k2s[t]
                pe = x + ((free - k2) << unit)
                out.append((d, v, k1, k2, pe, d + link_costs[t],
                            log2((end - pe) / scale) if rem_after else 0.0))
        piece_memo[(x, rem_after)] = out
        return out

    cand_memo: dict[int, list[int]] = {}

    def candidates(used_mask: int) -> list[int]:
        """The unplaced symbols, ascending, that come first among the
        unplaced ones of their probability."""
        cands = cand_memo.get(used_mask)
        if cands is None:
            cands = [
                sym for sym in range(m)
                if not used_mask >> sym & 1 and not any(
                    not (used_mask >> s2 & 1) and probs[s2] == probs[sym]
                    for s2 in range(sym))
            ]
            cand_memo[used_mask] = cands
        return cands

    nodes = 0

    def spend(phase: str) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise ResourceLimitError(
                f"node budget {node_budget} exhausted in the {phase} "
                f"for mode ({mode_id.k1}, {mode_id.k2})"
            )

    # A state's node is None at the start, else (parent node, symbol,
    # piece); g accumulates p * (depth + link cost).
    def dive() -> tuple[float, tuple] | None:
        # first feasible solution, largest pieces first for big symbols
        stack = [(start, 0, 0.0, None)]
        while stack:
            x, used, g, node = stack.pop()
            spend("dive")
            if used == full_mask:
                if x == end:
                    return g, node
                continue
            pieces = pieces_at(x, (full_mask ^ used).bit_count() - 1)
            children = []
            for sym in sorted(candidates(used), key=lambda s: (-probs[s], s)):
                for piece in pieces:
                    children.append(((piece[4] - x, -piece[5]), sym, piece))
            children.sort(key=lambda c: c[0])
            for _, sym, piece in children:
                stack.append((piece[4], used | (1 << sym), g + probs[sym] * piece[5],
                              (node, sym, piece)))
        return None

    best = dive()  # the incumbent, (g, node)
    cutoff = math.inf if best is None else best[0] - 1e-15

    heap: list = []
    heappush, heappop = heapq.heappush, heapq.heappop

    def push_child(group: tuple, i: int) -> None:
        kids, used, g, node = group
        f2, seq2, sym, piece = kids[i]
        heappush(heap, (f2, seq2, piece[4], used | (1 << sym), g + probs[sym] * piece[5],
                        (node, sym, piece), group, i))

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
        spend("proof")
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
            if x == end and (best is None or g < best[0]):
                best = (g, node)
                cutoff = g - 1e-15
            continue
        pieces = pieces_at(x, (full_mask ^ used).bit_count() - 1)
        kids = []
        for sym in candidates(used):
            p = probs[sym]
            left = full_mask ^ used ^ (1 << sym)
            if not left:
                for piece in pieces:
                    f2 = g + p * piece[5]
                    if f2 < cutoff:
                        seq += 1
                        kids.append((f2, seq, sym, piece))
                continue
            # the same bound at the piece's end, the symbol's terms hoisted
            p_total, h_total = psum[left], hsum[left]
            log_p, floor = log2(p_total), p_total * min_cost
            for piece in pieces:
                ent = h_total + p_total * (log_p - piece[6] + alpha_min)
                f2 = g + p * piece[5] + (max(ent, floor) - BOUND_SLACK)
                if f2 < cutoff:
                    seq += 1
                    kids.append((f2, seq, sym, piece))
        if kids:
            kids.sort()
            push_child((kids, used, g, node), 0)

    if best is None:
        raise ModelError(f"no feasible tree for mode {model.mode_id} (model bug)")

    objective, node = best
    path = []
    while node is not None:
        node, sym, piece = node
        path.append((sym, *piece[:4]))
    path.reverse()
    order = [sym for sym, *_ in path]
    pieces = [None] * m
    for sym, d, v, k1, k2 in path:
        pieces[sym] = (d, v, k1, k2)
    assignment = _assignment_from_pieces(model, pieces, order)
    bad = check_assignment(model, assignment)
    if bad:
        raise ModelError(f"solver output violates the model: {bad[:3]}")
    codewords = tuple(BitString(d, v) for d, v, _, _ in pieces)
    link_ids = tuple(ContinuousModeId(k1, k2) for _, _, k1, k2 in pieces)
    recomputed = sum(
        probs[s] * (pieces[s][0] + prices.costs[link_ids[s]]) for s in range(m)
    )
    if abs(recomputed - objective) > 1e-9:
        raise ModelError("objective mismatch between search and recomputation")
    return TreeSolution(codewords, link_ids, float(recomputed), tuple(order), assignment)


def decode_solution(
    model: IlpModel,
    solution: TreeSolution,
    index_of: Callable[[ContinuousModeId], int] | None = None,
    mode: Mode | None = None,
) -> CodeTree:
    """The solved tree as a code tree, read from its tiling pieces, whose
    assignment :func:`solve_ilp` has checked against every row.

    Links are resolved to forest indices through ``index_of``; the
    default is the canonical continuous ordering ``k1 * 2^(n-1) + k2``.
    ``mode`` is the tree's own mode, ``mode_from_id`` of the model's
    mode id, which callers decoding many trees build once.
    """
    s = model.structure
    if index_of is None:
        index_of = lambda cid: cid.k1 * (1 << (s.n - 1)) + cid.k2  # noqa: E731
    if mode is None:
        mode = mode_from_id(s.n, model.mode_id)
    return CodeTree(solution.codewords, tuple(map(index_of, solution.link_ids)), mode)


# ---------------------------------------------------------------------------
# binary brute force over full leaf-set partitions

_PARTITION_CACHE: dict[tuple[int, WordSet], list] = {}


def _partition_table(n: int, mode: Mode) -> list[tuple[int, WordSet, int, WordSet]]:
    """All ordered two-way partitions of the mode's length-``n`` leaf set,
    each reduced to (codeword length, linked words) for both symbols."""
    key = (n, mode.words)
    cached = _PARTITION_CACHE.get(key)
    if cached is not None:
        return cached
    leaves = sorted(expand_to_length(mode.words, n), key=lambda w: w.value)
    table = []
    for mask in range(1, (1 << len(leaves)) - 1):
        w_set = frozenset(leaves[i] for i in range(len(leaves)) if mask >> i & 1)
        wbar = frozenset(leaves[i] for i in range(len(leaves)) if not mask >> i & 1)
        entry = []
        for part in (w_set, wbar):
            head = common_prefix(part)
            linked = reduced(strip_prefix_all(head, part))
            entry.extend((head.length, linked))
        table.append(tuple(entry))
    _PARTITION_CACHE[key] = table
    return table


def brute_force_binary(
    n: int,
    mode: Mode,
    probs: Sequence[float],
    costs: Mapping[WordSet, float],
    index_of: Mapping[WordSet, int],
) -> tuple[CodeTree, float]:
    """Optimal binary-alphabet tree for one mode by trying every split of
    its leaf set; links may be any basic mode present in ``costs``.
    Ties keep the first partition in mask order.
    """
    if len(probs) != 2:
        raise ValueError("partition search requires a binary alphabet")
    if not 1 <= n <= 3:
        raise ValueError("partition search supports delays 1..3")
    if not is_basic_mode(mode.words, n):
        raise ValueError(f"not a basic mode: {mode}")
    p0, p1 = probs
    best = None
    best_mask = -1
    for mask_index, entry in enumerate(_partition_table(n, mode)):
        len0, linked0, len1, linked1 = entry
        value = p0 * (len0 + costs[linked0]) + p1 * (len1 + costs[linked1])
        if best is None or value < best:
            best = value
            best_mask = mask_index + 1
    leaves = sorted(expand_to_length(mode.words, n), key=lambda w: w.value)
    w_set = frozenset(leaves[i] for i in range(len(leaves)) if best_mask >> i & 1)
    wbar = frozenset(leaves[i] for i in range(len(leaves)) if not best_mask >> i & 1)
    head0, head1 = common_prefix(w_set), common_prefix(wbar)
    linked0 = reduced(strip_prefix_all(head0, w_set))
    linked1 = reduced(strip_prefix_all(head1, wbar))
    tree = CodeTree(
        codewords=(head0, head1),
        links=(index_of[linked0], index_of[linked1]),
        mode=mode,
    )
    return tree, float(best)
