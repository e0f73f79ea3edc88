"""Slow, direct oracles the tests check the running code against.

* Word-set algebra on leaves and prefixes: a word set expanded to its
  length-``n`` leaves, the common prefix of a set and the set with a
  prefix stripped.  The running code reads leaf sets as integer bit
  masks.
* The trie reduction: a word set's full trie nodes, the minimal ones
  kept, and each continuous mode built from its list of length-``n``
  leaves numbered from the outer edges.  The running code merges sibling
  pairs and writes a mode's cells straight from its interval.
* The dyadic-interval layer: exact half-open intervals, the cell a
  string names, their union, and a mode's interval.  Rule 1 and the
  continuous mode ids were first stated in these terms.
* The integer tree model of the paper, written out row by row: binary
  symbol depth selectors ``t``, link selectors ``u``, codeword bits
  ``w``/``wb``, chain-adjacency indicators ``v``/``vL``/``vR`` and
  margin carriers ``k``, with every interval row scaled by
  ``2**(d_max + n)`` so it holds in exact integers.  A tree is feasible
  exactly when its pieces tile the mode's interval, which
  :func:`aifv.optimizer.check_assignment` checks directly.
* The full basic family's brute force, one mode at a time: each
  mode's leaf-set partitions listed as word sets, each part reduced to
  its common prefix and the linked mode by the word-set algebra, and a
  loop keeping the first cheapest.  The running code reads the
  partitions off leaf bit masks into one split table and takes every
  mode's minimum over it at once.
* A binary family's split table of some modes, gathered row by row
  from the table of every mode.  The running code builds the table of
  the modes a build solves directly.
* Huffman code lengths from one heap of (weight, id, symbols below)
  nodes, every symbol below a merge one level deeper, and the extended
  Huffman code over blocks whose probabilities multiply along each
  ``itertools.product`` tuple.  The running code merges from two
  queues, sorted leaves and first-in first-out merged nodes, reads the
  depths off parent links, and builds the block probabilities by
  repeated outer product.
* The range coder as an encoder and a decoder object, each keeping
  ``low`` and ``span`` as attributes and normalising in a method.  The
  running coder is one loop per direction on local variables, and both
  directions normalise through one function.
* The tree chain as a dense K x K transition matrix, its blocks read
  off the dense reachability closure, from repeated boolean squaring of
  ``(mat > 0) | I``, and its stationary distributions sliced from the
  matrix.  The running code keeps one successor dict per tree and finds
  the blocks by one linear-time Tarjan pass over the edges.
* The symbol file grammar: every token matched against ``-?[0-9]+`` and
  read by ``int``.  The running reader looks the alphabet's names up in
  a table first and falls back to the grammar for any other token.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import re
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from aifv.bench import (
    FREQ_TOTAL,
    RANGE_BOT,
    RANGE_MASK,
    RANGE_TOP,
    RangeCodingError,
    scaled_frequencies,
)
from aifv.bitstrings import EMPTY, LMAX, BitString, CapacityError, WordSet, is_prefix, reduced
from aifv.forest import CodeTree
from aifv.markov import BlockDecomposition, Chain, SingularChainError
from aifv.modes import (
    ContinuousModeId,
    Mode,
    basic_family,
    enumerate_continuous_ids,
    is_basic_mode,
    mode_from_id,
)
from aifv.optimizer import IlpModel, LinkPrices, ModelError, TreeSolution, initial_costs
from aifv.sources import as_probs
from aifv.splits import SplitTable

# ---------------------------------------------------------------------------
# word-set algebra on leaves and prefixes


def strip_prefix(prefix: BitString, w: BitString) -> BitString:
    """Remove ``prefix`` from the front of ``w``."""
    if not is_prefix(prefix, w):
        raise ValueError(f"'{prefix}' is not a prefix of '{w}'")
    rest = w.length - prefix.length
    return BitString(rest, w.value & ((1 << rest) - 1))


def strip_prefix_all(prefix: BitString, words: Iterable[BitString]) -> WordSet:
    return frozenset(strip_prefix(prefix, w) for w in words)


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


# ---------------------------------------------------------------------------
# the trie reduction and leaf-listed continuous modes


def full_nodes(words: WordSet, depth_bound: int | None = None) -> WordSet:
    """Prefixes of members whose whole subtree is covered by ``words``.

    A trie node is full when it is a member itself or both its children
    exist in the trie and are full.  Only prefixes of members are
    reported; deeper extensions of a member are full by definition but
    carry no information for reduction.  A member longer than
    ``depth_bound`` raises.
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
        c0 = BitString(node.length + 1, node.value << 1)
        c1 = BitString(node.length + 1, (node.value << 1) | 1)
        if c0 in full and c1 in full:
            full.add(node)
    return frozenset(full)


def trie_reduced(words: WordSet) -> WordSet:
    """The full nodes with no proper prefix among them."""
    full = full_nodes(words)
    return frozenset(w for w in full
                     if not any(is_prefix(p, w) and p != w for p in full))


def leaf_number(w: BitString) -> int:
    """Position of a length-``n`` leaf on its side of the tree.

    Leaves under '0' count up toward the midpoint, leaves under '1'
    count down from it, so number ``j`` on either side sits ``j`` cells
    away from the outer edge and both sides end at ``2**(n-1) - 1``
    beside the midpoint.
    """
    n = w.length
    if n < 1:
        raise ValueError("leaf must have length >= 1")
    tail = w.value & ((1 << (n - 1)) - 1)
    if w.bit(0) == 0:
        return tail
    return ((1 << (n - 1)) - 1) ^ tail


def mode_from_leaves(n: int, cid: ContinuousModeId) -> Mode:
    """The continuous mode ``cid``: every length-``n`` leaf whose number
    on its side reaches that side's margin, trie-reduced."""
    keep = [w for w in (BitString(n, v) for v in range(1 << n))
            if leaf_number(w) >= (cid.k1 if w.bit(0) == 0 else cid.k2)]
    return Mode(trie_reduced(frozenset(keep)), n)


# ---------------------------------------------------------------------------
# dyadic intervals


def is_prefix_free(words: Iterable[BitString]) -> bool:
    ws = sorted(words, key=lambda w: (w.length, w.value))
    for i, a in enumerate(ws):
        for b in ws[i + 1:]:
            if is_prefix(a, b):
                return False
    return True


@dataclass(frozen=True)
class DyadicInterval:
    """Half-open interval [num_low, num_high) / 2**exp with exact endpoints."""

    num_low: int
    num_high: int
    exp: int

    def __post_init__(self):
        if self.exp < 0 or self.exp > LMAX:
            raise CapacityError(f"exponent {self.exp} outside 0..{LMAX}")
        if not self.num_low < self.num_high:
            raise ValueError("empty or reversed interval")
        if self.num_low < 0 or self.num_high > (1 << self.exp):
            raise ValueError("endpoints outside [0, 1]")
        # Canonical form: smallest exponent representing both endpoints.
        lo, hi, e = self.num_low, self.num_high, self.exp
        while e > 0 and lo % 2 == 0 and hi % 2 == 0:
            lo //= 2
            hi //= 2
            e -= 1
        object.__setattr__(self, "num_low", lo)
        object.__setattr__(self, "num_high", hi)
        object.__setattr__(self, "exp", e)

    def rescaled(self, exp: int) -> tuple[int, int]:
        if exp < self.exp:
            raise ValueError("cannot coarsen exactly")
        s = exp - self.exp
        return self.num_low << s, self.num_high << s

    def overlaps(self, other: "DyadicInterval") -> bool:
        e = max(self.exp, other.exp)
        alo, ahi = self.rescaled(e)
        blo, bhi = other.rescaled(e)
        return alo < bhi and blo < ahi

    def contains(self, other: "DyadicInterval") -> bool:
        e = max(self.exp, other.exp)
        alo, ahi = self.rescaled(e)
        blo, bhi = other.rescaled(e)
        return alo <= blo and bhi <= ahi

    def __str__(self) -> str:
        return f"[{self.num_low}/2^{self.exp}, {self.num_high}/2^{self.exp})"


def interval_of(w: BitString) -> DyadicInterval:
    """Map a string to its probability interval: the dyadic cell it names."""
    return DyadicInterval(w.value, w.value + 1, w.length)


def merge_intervals(intervals: Iterable[DyadicInterval]) -> tuple[DyadicInterval, ...]:
    """Union of intervals as a sorted tuple of maximal disjoint pieces."""
    items = list(intervals)
    if not items:
        return ()
    e = max(iv.exp for iv in items)
    spans = sorted(iv.rescaled(e) for iv in items)
    out: list[tuple[int, int]] = [spans[0]]
    for lo, hi in spans[1:]:
        if lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return tuple(DyadicInterval(lo, hi, e) for lo, hi in out)


def id_of_mode(mode: Mode) -> ContinuousModeId | None:
    """Inverse of :func:`mode_from_id`; ``None`` for discontinuous modes."""
    if not is_basic_mode(mode.words, mode.n):
        raise ValueError(f"not a basic mode for delay {mode.n}: {mode}")
    leaves = expand_to_length(mode.words, mode.n)
    top = (1 << (mode.n - 1)) - 1
    zero_side = sorted(leaf_number(w) for w in leaves if w.bit(0) == 0)
    one_side = sorted(leaf_number(w) for w in leaves if w.bit(0) == 1)
    for side in (zero_side, one_side):
        if not side or side[-1] != top or side != list(range(side[0], top + 1)):
            return None
    return ContinuousModeId(zero_side[0], one_side[0])


def mode_interval(mode: Mode) -> tuple[DyadicInterval, ...]:
    """Union of the members' probability intervals, merged."""
    return merge_intervals(interval_of(w) for w in mode.words)


def id_interval(n: int, cid: ContinuousModeId) -> DyadicInterval:
    return DyadicInterval(cid.k1, (1 << n) - cid.k2, n)


def flip_id(cid: ContinuousModeId) -> ContinuousModeId:
    return ContinuousModeId(cid.k2, cid.k1)


def id_costs(n: int) -> dict[ContinuousModeId, float]:
    """The starting cost of every continuous mode for delay ``n``, keyed
    by its id in :func:`enumerate_continuous_ids` order."""
    ids = enumerate_continuous_ids(n)
    return dict(zip(ids, initial_costs([mode_from_id(n, cid) for cid in ids])))


# ---------------------------------------------------------------------------
# the integer tree model, row by row


@dataclass(frozen=True)
class Row:
    tag: str
    coeffs: dict
    sense: str  # 'le' or 'eq'
    rhs: int
    scale: int


def allowed_links(prices: LinkPrices) -> tuple[ContinuousModeId, ...]:
    """The links the prices allow, ascending."""
    return tuple(sorted(prices.table.links))


@functools.cache
def reference_variables(n: int, m: int, d_max: int) -> dict:
    """Every variable of the model with its upper bound; each is at least 0."""
    r = 1 << (n - 1)
    variables = {}
    for sym in range(m):
        for d in range(d_max + 1):
            variables[("t", sym, d)] = 1
        for cid in enumerate_continuous_ids(n):
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
    return variables


@functools.cache
def reference_rows(n, m, mode_id, d_max, allowed=None) -> tuple[Row, ...]:
    """Every row of one mode's model.  ``allowed``, a tuple of link ids,
    adds one row per symbol restricting its link to them (the AIFV-m
    family); ``None`` allows every link of the delay."""
    r = 1 << (n - 1)
    scale = 1 << (d_max + n)
    link_ids = enumerate_continuous_ids(n)
    rows = []

    def le(tag, coeffs, rhs, scale_=1):
        rows.append(Row(tag, coeffs, "le", rhs, scale_))

    def eq(tag, coeffs, rhs, scale_=1):
        rows.append(Row(tag, coeffs, "eq", rhs, scale_))

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
        le(f"left[{sym}]", neg_l | {("vL", sym): scale},
           scale - (mode_id.k1 << d_max), scale)
        le(f"left_full[{sym}]",
           {name: -c for name, c in neg_l.items()} | {("vL", sym): scale},
           scale + (mode_id.k1 << d_max), scale)
        neg_r = {("wb", sym, i): -cw[i] for i in range(d_max)}
        neg_r |= {("k", 2, sym, d): -kc[d] for d in range(d_max + 1)}
        le(f"right[{sym}]", neg_r | {("vR", sym): scale},
           scale - (mode_id.k2 << d_max), scale)
        le(f"right_full[{sym}]",
           {name: -c for name, c in neg_r.items()} | {("vR", sym): scale},
           scale + (mode_id.k2 << d_max), scale)

    if allowed is not None:
        for sym in range(m):
            eq(f"allowed[{sym}]", {("u", sym, c.k1, c.k2): 1 for c in allowed}, 1)
    return tuple(rows)


def model_rows(model: IlpModel) -> tuple[Row, ...]:
    """The rows of one tree's model, its links restricted to those its
    prices allow when that is not every link."""
    table = model.prices.table
    allowed = allowed_links(model.prices)
    if set(allowed) == set(enumerate_continuous_ids(table.n)):
        allowed = None
    return reference_rows(table.n, len(table.probs), model.mode_id, table.d_max, allowed)


def reference_check(model: IlpModel, assignment: dict) -> list[str]:
    """Every bound and row the assignment violates, in Python integers;
    a variable absent from the assignment is 0."""
    table = model.prices.table
    variables = reference_variables(table.n, len(table.probs), table.d_max)
    bad = []
    for name, value in assignment.items():
        if name not in variables:
            bad.append(f"unknown variable {name}")
        elif not 0 <= value <= variables[name]:
            bad.append(f"variable {name} out of bounds: {value}")
    for row in model_rows(model):
        val = sum(c * assignment.get(name, 0) for name, c in row.coeffs.items())
        ok = val <= row.rhs if row.sense == "le" else val == row.rhs
        if not ok:
            bad.append(f"{row.tag}: value {val} vs rhs {row.rhs}")
    return bad


def assignment_from_pieces(pieces: list[tuple], order: list[int]) -> dict:
    """The model's nonzero variables for one tree: ``pieces[sym]`` is
    ``(depth, codeword value, k1, k2)`` and ``order`` the symbols from
    left to right."""
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


def solution_assignment(model: IlpModel, solution: TreeSolution) -> dict:
    """The model assignment of a solved tree's pieces, its link indices
    read in the model's search table."""
    links = [model.prices.table.links[idx] for idx in solution.links]
    pieces = [(cw.length, cw.value, cid.k1, cid.k2)
              for cw, cid in zip(solution.codewords, links)]
    return assignment_from_pieces(pieces, list(solution.order))


def tree_from_assignment(model: IlpModel, assignment: dict) -> CodeTree:
    """The tree read back from a model assignment, with every depth,
    codeword bit, link and margin variable checked, and links resolved
    to their index in the model's search table."""
    table = model.prices.table
    n, m = table.n, len(table.probs)
    allowed_link_vars = frozenset(
        ("u", sym, c.k1, c.k2) for sym in range(m) for c in table.links)
    links_of = [[] for _ in range(m)]
    for name, value in assignment.items():
        if value and name in allowed_link_vars:
            links_of[name[1]].append(ContinuousModeId(name[2], name[3]))
    codewords, links = [], []
    for sym in range(m):
        depths = [d for d in range(table.d_max + 1) if assignment.get(("t", sym, d))]
        if len(depths) != 1:
            raise ModelError(f"symbol {sym} has {len(depths)} active depths")
        d = depths[0]
        value = 0
        for i in range(d):
            w = assignment.get(("w", sym, i), 0)
            wb = assignment.get(("wb", sym, i), 0)
            if w + wb != 1:
                raise ModelError(f"symbol {sym} bit {i} unset inside codeword")
            value = (value << 1) | w
        chosen = links_of[sym]
        if len(chosen) != 1:
            raise ModelError(f"symbol {sym} has {len(chosen)} active links")
        cid = chosen[0]
        for j, kj in ((1, cid.k1), (2, cid.k2)):
            if assignment.get(("k", j, sym, d), 0) != kj:
                raise ModelError(f"margin variable k[{j},{sym},{d}] inconsistent")
        codewords.append(BitString(d, value))
        links.append(table.links.index(cid))
    return CodeTree(tuple(codewords), tuple(links), mode_from_id(n, model.mode_id))


# ---------------------------------------------------------------------------
# the full basic family's brute force, one mode at a time


def partition_table(n: int, index: int) -> tuple[tuple[BitString, int, BitString, int], ...]:
    """All ordered two-way partitions of the length-``n`` leaf set of
    basic mode ``index``, in mask order, each reduced to (codeword,
    linked mode index) for both symbols."""
    modes, index_of = basic_family(n)
    leaves = sorted(expand_to_length(modes[index].words, n), key=lambda w: w.value)
    table = []
    for mask in range(1, (1 << len(leaves)) - 1):
        w_set = frozenset(leaves[i] for i in range(len(leaves)) if mask >> i & 1)
        wbar = frozenset(leaves[i] for i in range(len(leaves)) if not mask >> i & 1)
        entry = []
        for part in (w_set, wbar):
            head = common_prefix(part)
            entry.extend((head, index_of[reduced(strip_prefix_all(head, part))]))
        table.append(tuple(entry))
    return tuple(table)


def brute_force_partition(n: int, index: int, probs, costs) -> tuple[CodeTree, float]:
    """Optimal binary-alphabet tree for basic mode ``index`` of delay
    ``n`` by trying every split of its leaf set; ``costs[i]`` prices a
    link to basic mode ``i``.  Ties keep the first partition in mask
    order."""
    if len(probs) != 2:
        raise ValueError("partition search requires a binary alphabet")
    if not 1 <= n <= 3:
        raise ValueError("partition search supports delays 1..3")
    modes = basic_family(n)[0]
    if not 0 <= index < len(modes):
        raise ValueError(f"no basic mode {index} for delay {n}: the family has {len(modes)}")
    p0, p1 = probs
    best = best_entry = None
    for entry in partition_table(n, index):
        head0, link0, head1, link1 = entry
        value = p0 * (head0.length + costs[link0]) + p1 * (head1.length + costs[link1])
        if best is None or value < best:
            best, best_entry = value, entry
    head0, link0, head1, link1 = best_entry
    return CodeTree((head0, head1), (link0, link1), modes[index]), float(best)


def mode_rows(table: SplitTable, modes: tuple[int, ...]) -> SplitTable:
    """The splits of the family modes ``modes`` gathered from ``table``,
    a split table that lists each of them: in ``modes`` order and, per
    mode, in table order."""
    at = [table.modes.index(i) for i in modes]
    counts = np.diff(table.starts)[at]
    starts = np.zeros(len(modes) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    rows = np.repeat(table.starts[:-1][at] - starts[:-1], counts) + np.arange(starts[-1])
    columns = (table.depth_a, table.link_a, table.value_a,
               table.depth_b, table.link_b, table.value_b)
    return SplitTable(*(col[rows] for col in columns), starts, modes, table.ids, table.n,
                      table.d_max)


# ---------------------------------------------------------------------------
# the range coder on objects


class _RangeEncoder:
    def __init__(self):
        self.low = 0
        self.span = RANGE_MASK
        self.out = bytearray()

    def _normalize(self):
        while True:
            if (self.low ^ (self.low + self.span)) < RANGE_TOP:
                pass
            elif self.span < RANGE_BOT:
                self.span = (-self.low) & (RANGE_BOT - 1)
            else:
                break
            self.out.append((self.low >> 24) & 0xFF)
            self.span = (self.span << 8) & RANGE_MASK
            self.low = (self.low << 8) & RANGE_MASK

    def encode(self, cum_low: int, freq: int, total: int):
        r = self.span // total
        self.low = (self.low + cum_low * r) & RANGE_MASK
        self.span = freq * r
        self._normalize()

    def finish(self) -> bytes:
        for _ in range(4):
            self.out.append((self.low >> 24) & 0xFF)
            self.low = (self.low << 8) & RANGE_MASK
        return bytes(self.out)


class _RangeDecoder:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.low = 0
        self.span = RANGE_MASK
        self.code = 0
        for _ in range(4):
            self.code = ((self.code << 8) | self._byte()) & RANGE_MASK

    def _byte(self) -> int:
        b = self.data[self.pos] if self.pos < len(self.data) else 0
        self.pos += 1
        return b

    def _normalize(self):
        while True:
            if (self.low ^ (self.low + self.span)) < RANGE_TOP:
                pass
            elif self.span < RANGE_BOT:
                self.span = (-self.low) & (RANGE_BOT - 1)
            else:
                break
            self.code = ((self.code << 8) | self._byte()) & RANGE_MASK
            self.span = (self.span << 8) & RANGE_MASK
            self.low = (self.low << 8) & RANGE_MASK

    def cum_value(self, total: int) -> int:
        r = self.span // total
        v = (self.code - self.low) & RANGE_MASK
        cum = v // r
        if cum >= total:
            raise RangeCodingError("corrupt range-coded stream")
        return cum

    def consume(self, cum_low: int, freq: int, total: int):
        r = self.span // total
        self.low = (self.low + cum_low * r) & RANGE_MASK
        self.span = freq * r
        self._normalize()


def range_encode_reference(p, symbols) -> bytes:
    """32-bit range coder with a static 16-bit frequency table."""
    freqs = scaled_frequencies(p)
    cums = [0]
    for f in freqs:
        cums.append(cums[-1] + f)
    enc = _RangeEncoder()
    for s in symbols:
        enc.encode(cums[s], freqs[s], FREQ_TOTAL)
    return enc.finish()


def range_decode_reference(p, data: bytes, count: int) -> list[int]:
    freqs = scaled_frequencies(p)
    cums = [0]
    for f in freqs:
        cums.append(cums[-1] + f)
    dec = _RangeDecoder(data)
    out = []
    for _ in range(count):
        v = dec.cum_value(FREQ_TOTAL)
        s = 0
        while cums[s + 1] <= v:
            s += 1
        dec.consume(cums[s], freqs[s], FREQ_TOTAL)
        out.append(s)
    return out


# ---------------------------------------------------------------------------
# Huffman lengths from one heap


def heap_huffman_lengths(p) -> list[int]:
    """Optimal code lengths, ties resolved by symbol index."""
    probs = as_probs(p)
    # (weight, id, symbols below): merged nodes take ids len(probs) upward
    heap = [(w, i, (i,)) for i, w in enumerate(probs)]
    heapq.heapify(heap)
    depth = [0] * len(probs)
    for next_id in range(len(probs), 2 * len(probs) - 1):
        w1, _, a = heapq.heappop(heap)
        w2, _, b = heapq.heappop(heap)
        for s in a + b:
            depth[s] += 1
        heapq.heappush(heap, (w1 + w2, next_id, a + b))
    out = [0] * len(probs)
    for ln, sym in zip(sorted(depth), sorted(range(len(probs)), key=lambda s: (-probs[s], s))):
        out[sym] = ln
    return out


def product_extended_huffman(p, order: int) -> float:
    """Expected bits per symbol of the heap Huffman code over
    ``order``-symbol blocks, each block's probability multiplied along
    its tuple."""
    probs = tuple(p)
    blocks = list(itertools.product(range(len(probs)), repeat=order))
    block_probs = [1.0 for _ in blocks]
    for i, block in enumerate(blocks):
        for s in block:
            block_probs[i] *= probs[s]
    lengths = heap_huffman_lengths(tuple(block_probs))
    return sum(q * ln for q, ln in zip(block_probs, lengths)) / order


# ---------------------------------------------------------------------------
# the dense chain and its blocks from its reachability closure


def dense_transition_matrix(forest, probs) -> np.ndarray:
    """Tree-to-tree transition probabilities induced by the links."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or len(p) != forest.symbol_count:
        raise ValueError("one probability per symbol required")
    k_total = len(forest.trees)
    mat = np.zeros((k_total, k_total))
    for k, tree in enumerate(forest.trees):
        for s, link in enumerate(tree.links):
            mat[k, link] += p[s]
    return mat


def chain_from_matrix(mat: np.ndarray) -> Chain:
    """The successor dicts of :mod:`aifv.markov` for a dense matrix: one
    entry per positive element, in column order."""
    return [{int(j): float(row[j]) for j in np.flatnonzero(row > 0.0)} for row in mat]


def dense_stationary(mat: np.ndarray, blocks: BlockDecomposition) -> list[np.ndarray]:
    """The stationary distributions of :func:`aifv.markov.stationary`,
    each solved on its block sliced out of the dense matrix."""
    k_total = mat.shape[0]
    out = []
    for j in range(blocks.n_absorbing):
        idx = np.array(blocks.blocks[j])
        sub = mat[np.ix_(idx, idx)]
        size = len(idx)
        a = np.vstack([sub.T - np.eye(size), np.ones((1, size))])
        b = np.zeros(size + 1)
        b[-1] = 1.0
        sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
        if rank < size:
            raise SingularChainError(f"stationary system rank {rank} < {size}")
        pi = np.zeros(k_total)
        pi[idx] = sol
        out.append(pi)
    return out


def block_decompose_closure(mat: np.ndarray) -> BlockDecomposition:
    """The blocks of :func:`aifv.markov.block_decompose`: the absorption
    blocks first in its order, then the transient blocks by how many
    states they reach, a topological order of their own.

    The reachability closure of ``(mat > 0) | I`` comes from repeated
    squaring, at most ceil(log2 K) + 1 matrix products; two states share
    a block iff each reaches the other.
    """
    reach = (mat > 0.0) | np.eye(mat.shape[0], dtype=bool)
    while True:
        r = reach.astype(float)
        closed = (r @ r) > 0.0
        if np.array_equal(closed, reach):
            break
        reach = closed
    same = reach & reach.T
    first = np.argmax(same, axis=1)  # smallest state of each state's block
    reps = np.flatnonzero(first == np.arange(len(first)))
    n_reached = reach[reps].sum(axis=1)
    absorbing = n_reached == same[reps].sum(axis=1)
    # absorbing blocks sort first because a transient one reaches >= 2 states
    key = np.where(absorbing, 0, n_reached)
    ordered = reps[np.lexsort((reps, key))]
    return BlockDecomposition(
        blocks=tuple(tuple(np.flatnonzero(same[r]).tolist()) for r in ordered),
        n_absorbing=int(absorbing.sum()),
    )


# ---------------------------------------------------------------------------
# the symbol file grammar


def parse_symbols(path: str, text: str) -> list[int]:
    """The symbols :func:`aifv.cli.read_symbols` reads from ``text``, or
    its error for the first token that is not ``-?[0-9]+``."""
    tokens = text.split()
    for tok in tokens:
        if not re.fullmatch(r"-?[0-9]+", tok):
            raise ValueError(f"{path}: symbol token {tok!r} is not an integer")
    return [int(tok) for tok in tokens]
