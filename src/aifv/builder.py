"""Forest construction: iterate per-tree optimisation against virtual
linking costs until the costs stop moving.

Each iteration solves every mode's tree independently (mirror-symmetric
mode pairs are solved once and bit-flipped), derives the tree chain's
block structure and per-block expected lengths, and re-prices the links.
An invariant cost vector certifies that the best-performing block is the
optimal forest for the fixed mode family; the worst block's expected
length is non-increasing throughout, so intermediate results only ever
improve.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .bitstrings import BitString, EMPTY, expand_to_length
from .forest import CodeForest, CodeTree, flip_tree, validate_full, validate_rule1
from .markov import (
    block_decompose,
    cost_update_general,
    costs_invariant,
    expected_length,
    stationary,
    transition_matrix,
    worst_block_invariant,
)
from .modes import (
    Mode,
    enumerate_basic_modes,
    enumerate_continuous_ids,
    flip_mode,
    mode_from_id,
)
from .optimizer import (
    NODE_BUDGET_DEFAULT,
    ModelStructure,
    aifvm_link_ids,
    brute_force_binary,
    build_ilp,
    decode_solution,
    initial_costs,
    solve_ilp,
)
from .sources import as_probs

log = logging.getLogger("aifv.builder")

HUFFMAN_FLOOR_COST = 1e6

# A freshly solved tree replaces the previous iteration's tree only when
# it is better by more than this margin.  Equal-cost ties otherwise flip
# with 1e-15-level cost noise and the iteration orbits its fixed point
# instead of landing on it.
RETAIN_EPS = 1e-12

# Monotonicity of the worst-block expected length is exact in real
# arithmetic; tree retention and float noise can wiggle it by at most
# the retention margin.
TRACE_SLACK = 1e-11

FAMILIES = ("continuous", "aifvm", "full-binary")


class BuildError(RuntimeError):
    pass


@dataclass(frozen=True)
class BuildConfig:
    n: int
    family: str = "continuous"
    max_depth: int | None = None
    tolerance: float = 1e-14
    max_iterations: int = 200
    init: str = "formula"  # or "huffman-floor"
    symmetry_reuse: bool = True
    node_budget: int = NODE_BUDGET_DEFAULT

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("delay must be at least 1")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.init not in ("formula", "huffman-floor"):
            raise ValueError(f"unknown init rule {self.init!r}")


@dataclass(frozen=True)
class OptimalityReport:
    converged: bool
    e_optimal: bool
    f_optimal: bool
    g_checked: bool | None
    iterations: int
    tolerance: float
    block_lbars: tuple[float, ...]
    selected_block: int
    expected_len: float
    max_lbar_trace: tuple[float, ...]
    iteration_lbars: tuple[tuple[float, ...], ...]
    max_dcost_trace: tuple[float, ...]
    stepg_converged: bool


def default_depth(m: int, n: int) -> int:
    return 3 * max(1, math.ceil(math.log2(m))) + n


def _leafset_cost(mode: Mode) -> float:
    leaves = expand_to_length(mode.words, mode.n)
    return mode.n - math.log2(len(leaves))


class _Family:
    """A fixed mode family plus the per-mode tree solver for it."""

    def __init__(self, cfg: BuildConfig, probs: tuple[float, ...]):
        self.cfg = cfg
        self.probs = probs
        n = cfg.n
        self.depth = cfg.max_depth or default_depth(len(probs), n)
        if cfg.family == "full-binary":
            if len(probs) != 2:
                raise BuildError("the full basic family is solvable for binary alphabets only")
            if n > 3:
                raise BuildError("full basic family supported for delays 1..3")
            self.modes = enumerate_basic_modes(n)
            self.ids = None
            self.index_of_words = {m.words: i for i, m in enumerate(self.modes)}
        else:
            ids = enumerate_continuous_ids(n) if cfg.family == "continuous" else aifvm_link_ids(n)
            self.ids = ids
            self.modes = [mode_from_id(n, cid) for cid in ids]
            self.index_of_id = {cid: i for i, cid in enumerate(ids)}
            self.base_costs = initial_costs(n)
            self.structure = ModelStructure(n, len(probs), self.depth,
                                            aifvm=(cfg.family == "aifvm"))
        # index 0 must be the empty-string mode: it anchors the encoder
        if self.modes[0].words != frozenset({EMPTY}):
            raise AssertionError("canonical ordering must put the empty mode first")
        self.k = len(self.modes)
        self.mirror = self._mirror_map()

    def _mirror_map(self) -> list[int] | None:
        per_words = {m.words: i for i, m in enumerate(self.modes)}
        out = []
        for m in self.modes:
            j = per_words.get(flip_mode(m).words)
            if j is None:
                return None  # family not closed under flipping
            out.append(j)
        return out

    def initial_cost_vector(self) -> np.ndarray:
        if self.cfg.init == "huffman-floor":
            return np.array([0.0 if m.words == frozenset({EMPTY}) else HUFFMAN_FLOOR_COST
                             for m in self.modes])
        if self.cfg.family == "full-binary":
            return np.array([_leafset_cost(m) for m in self.modes])
        return np.array([self.base_costs[cid] for cid in self.ids])

    def price(self, costs: np.ndarray) -> dict:
        """The link-cost table every tree solve of one iteration reads:
        keyed by word set for the full family, by continuous id (every
        id of the delay, with the starting cost for those outside the
        family) otherwise."""
        if self.cfg.family == "full-binary":
            return {m.words: costs[i] for i, m in enumerate(self.modes)}
        table = dict(self.base_costs)
        for cid, i in self.index_of_id.items():
            table[cid] = float(costs[i])
        return table

    def solve_tree(self, index: int, table: dict) -> tuple[CodeTree, float]:
        cfg = self.cfg
        if cfg.family == "full-binary":
            return brute_force_binary(cfg.n, self.modes[index], self.probs,
                                      table, self.index_of_words)
        model = build_ilp(self.structure, self.ids[index], self.probs, table)
        sol = solve_ilp(model, node_budget=cfg.node_budget)
        tree = decode_solution(model, sol.assignment,
                               index_of=self.index_of_id.__getitem__,
                               mode=self.modes[index])
        return tree, sol.objective


def _mirror_pins_consistent(blocks, mirror: list[int]) -> bool:
    """True when every mirror-paired absorption block pins mirrored trees,
    which keeps the updated cost vector exactly mirror-symmetric."""
    for j in range(blocks.n_absorbing):
        b = blocks.blocks[j]
        mirrored = sorted(mirror[i] for i in b)
        if mirrored == list(b):
            continue  # self-mirrored blocks are symmetric under any pin
        if mirror[b[0]] != mirrored[0]:
            return False
    return True


def construct(p, cfg: BuildConfig) -> tuple[CodeForest, OptimalityReport]:
    """Build an optimal forest for a stationary memoryless source.

    Runs the generalized cost update until the whole cost vector is
    invariant (within ``cfg.tolerance``) or the iteration limit is hit,
    then emits the best-performing absorption block, reindexed with the
    empty-string mode at tree 0.
    """
    probs = as_probs(p)
    fam = _Family(cfg, probs)
    k = fam.k
    costs = fam.initial_cost_vector()
    reuse = cfg.symmetry_reuse and fam.mirror is not None

    max_lbar_trace: list[float] = []
    iteration_lbars: list[tuple[float, ...]] = []
    dcost_trace: list[float] = []
    converged = False
    stepg = False
    trees: list[CodeTree] = []
    blocks = None
    lbars: list[float] = []
    iterations = 0

    mirror_links = dict(enumerate(fam.mirror)) if reuse else None
    prev_trees: list[CodeTree] | None = None
    for iteration in range(1, cfg.max_iterations + 1):
        iterations = iteration
        table = fam.price(costs)
        trees = [None] * k
        for i in range(k):
            j = fam.mirror[i] if reuse else i
            if reuse and j < i and trees[j] is not None:
                trees[i] = flip_tree(trees[j], mirror_links)
                continue
            fresh, fresh_obj = fam.solve_tree(i, table)
            trees[i] = fresh
            if prev_trees is not None:
                prev = prev_trees[i]
                prev_obj = sum(
                    probs[s] * (prev.codewords[s].length + costs[prev.links[s]])
                    for s in range(len(probs))
                )
                if prev_obj <= fresh_obj + RETAIN_EPS:
                    trees[i] = prev
        prev_trees = trees
        forest_all = CodeForest(tuple(trees), cfg.n)
        lengths = [sum(cw.length * probs[s] for s, cw in enumerate(t.codewords))
                   for t in trees]
        mat = transition_matrix(forest_all, probs)
        blocks = block_decompose(mat)
        pis = stationary(mat, blocks)
        new_costs, lbars, j_star = cost_update_general(lengths, mat, blocks, pis)
        if reuse:
            if _mirror_pins_consistent(blocks, fam.mirror):
                # exact mathematics guarantees mirror symmetry here, so
                # averaging only cancels rounding noise
                new_costs = 0.5 * (new_costs + new_costs[np.array(fam.mirror)])
            else:
                log.info("mirror pinning broke; solving all modes independently from now on")
                reuse = False

        max_lbar = max(lbars)
        if max_lbar_trace and max_lbar > max_lbar_trace[-1] + TRACE_SLACK:
            raise BuildError(
                f"iteration {iteration}: worst-block expected length increased "
                f"from {max_lbar_trace[-1]!r} to {max_lbar!r}"
            )
        max_lbar_trace.append(max_lbar)
        iteration_lbars.append(tuple(lbars))
        dcost_trace.append(float(np.max(np.abs(new_costs - costs), initial=0.0)))

        stepg = worst_block_invariant(
            new_costs[np.array(blocks.blocks[j_star])], costs,
            blocks.blocks[j_star], cfg.tolerance,
        )
        full_inv = costs_invariant(new_costs, costs, cfg.tolerance)
        costs = new_costs
        if blocks.n_absorbing > 1 or len(blocks.blocks) > 1:
            log.debug("iteration %d: %d blocks (%d absorbing)",
                      iteration, len(blocks.blocks), blocks.n_absorbing)
        if full_inv:
            converged = True
            break

    if not converged:
        log.warning("no fixed point within %d iterations", cfg.max_iterations)

    j_best = int(np.argmin(lbars))
    root = 0  # family index of the empty-string mode
    if root not in blocks.blocks[j_best]:
        candidates = [j for j in range(blocks.n_absorbing) if root in blocks.blocks[j]]
        if not candidates:
            raise BuildError("no absorption block contains the empty-string mode")
        j_best = min(candidates, key=lambda j: lbars[j])
        log.info("best block lacks the root mode; emitting block %d instead", j_best)

    member = list(blocks.blocks[j_best])
    new_index = {old: new for new, old in enumerate(member)}
    emitted = []
    for old in member:
        t = trees[old]
        emitted.append(CodeTree(t.codewords, tuple(new_index[l] for l in t.links), t.mode))
    forest = CodeForest(tuple(emitted), cfg.n)

    rule1 = validate_rule1(forest)
    if not rule1.ok:
        raise BuildError(f"constructed forest violates its rules: {rule1.issues[:3]}")
    if not validate_full(forest).ok:
        raise BuildError("constructed forest is not full")
    expected = expected_code_length(forest, probs)
    if abs(expected - lbars[j_best]) > 1e-9:
        raise BuildError("emitted block's expected length disagrees with the iteration")

    report = OptimalityReport(
        converged=converged,
        e_optimal=converged or stepg,
        f_optimal=converged,
        g_checked=None,
        iterations=iterations,
        tolerance=cfg.tolerance,
        block_lbars=tuple(lbars),
        selected_block=j_best,
        expected_len=expected,
        max_lbar_trace=tuple(max_lbar_trace),
        iteration_lbars=tuple(iteration_lbars),
        max_dcost_trace=tuple(dcost_trace),
        stepg_converged=stepg,
    )
    return forest, report


def construct_aifvm(p, m: int, cfg: BuildConfig | None = None) -> tuple[CodeForest, OptimalityReport]:
    """Classic m-tree construction: delay m with links restricted to the
    empty mode and the one-sided powers of two."""
    if cfg is None:
        cfg = BuildConfig(n=m, family="aifvm")
    else:
        cfg = replace(cfg, n=m, family="aifvm")
    return construct(p, cfg)


def check_g_optimality_binary(p, n: int, cfg: BuildConfig | None = None):
    """Build over the full basic family (binary alphabets, delay <= 3) and
    report whether the run certifies a globally optimal codebook."""
    if cfg is None:
        cfg = BuildConfig(n=n, family="full-binary")
    else:
        cfg = replace(cfg, n=n, family="full-binary")
    forest, report = construct(p, cfg)
    return forest, replace(report, g_checked=report.f_optimal)


def expected_code_length(forest: CodeForest, p) -> float:
    """Stationary expected bits per symbol of a closed forest."""
    probs = as_probs(p)
    mat = transition_matrix(forest, probs)
    blocks = block_decompose(mat)
    if blocks.n_absorbing != 1:
        raise ValueError("expected length needs a single closed forest")
    (pi,) = stationary(mat, blocks)
    lengths = [sum(cw.length * probs[s] for s, cw in enumerate(t.codewords))
               for t in forest.trees]
    return expected_length(lengths, pi)


def huffman_lengths(p) -> list[int]:
    """Optimal code lengths; likelier symbols never get longer codes
    (ties resolved by symbol index), so the assignment is deterministic."""
    probs = as_probs(p)
    heap = [(w, i, i) for i, w in enumerate(probs)]
    heapq.heapify(heap)
    merges: list[tuple[int, int]] = []
    next_id = len(probs)
    nodes = len(probs)
    while nodes > 1:
        w1, _, a = heapq.heappop(heap)
        w2, _, b = heapq.heappop(heap)
        merges.append((a, b))
        heapq.heappush(heap, (w1 + w2, next_id, next_id))
        next_id += 1
        nodes -= 1
    depth = {next_id - 1: 0}
    for idx in range(len(merges) - 1, -1, -1):
        a, b = merges[idx]
        d = depth[len(probs) + idx]
        depth[a] = depth[b] = d + 1
    multiset = sorted(depth[i] for i in range(len(probs)))
    out = [0] * len(probs)
    for ln, sym in zip(multiset, sorted(range(len(probs)), key=lambda s: (-probs[s], s))):
        out[sym] = ln
    return out


def huffman(p) -> CodeForest:
    """Optimal instantaneous code as a one-tree forest with canonical
    codeword assignment (sorted by length, then symbol index)."""
    probs = as_probs(p)
    lengths = huffman_lengths(probs)
    order = sorted(range(len(probs)), key=lambda s: (lengths[s], s))
    codewords: list[BitString | None] = [None] * len(probs)
    code = 0
    prev = lengths[order[0]]
    for s in order:
        code <<= lengths[s] - prev
        prev = lengths[s]
        codewords[s] = BitString(lengths[s], code)
        code += 1
    tree = CodeTree(tuple(codewords), (0,) * len(probs),
                    Mode(frozenset({EMPTY}), 1))
    return CodeForest((tree,), 1)


def folded_codebook_size(forest: CodeForest) -> int:
    """Symbol-codeword pairs to memorise; mirror-symmetric tree pairs are
    stored once since one is the bit-flip of the other."""
    present = {t.mode.words for t in forest.trees}
    trees = 0.0
    for t in forest.trees:
        fw = flip_mode(t.mode).words
        if fw == t.mode.words:
            trees += 1.0
        elif fw in present:
            trees += 0.5
        else:
            trees += 1.0
    return int(round(trees)) * forest.symbol_count
