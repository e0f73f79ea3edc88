"""Forest construction: iterate per-tree optimisation against virtual
linking costs until the costs stop moving.

The links start at the costs :func:`initial_costs` reads off the
family's modes.  Each iteration solves every mode's tree independently
(of a mirror-symmetric mode pair, one tree is solved and the other is
its bit-flip, whose links and mode the family's mirror map gives),
derives the tree chain's block structure and per-block expected
lengths, and re-prices the links.
An invariant cost vector certifies that the best-performing block is the
optimal forest for the fixed mode family; the worst block's expected
length is non-increasing throughout, so intermediate results only ever
improve.
"""

from __future__ import annotations

import logging
import math
import operator
import time
from collections import deque
from dataclasses import dataclass, replace
from functools import cache, partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .bitstrings import BitString, EMPTY
from .forest import CodeForest, CodeTree, flip_tree, validate_full, validate_rule1
from .markov import (
    block_decompose,
    cost_update_general,
    expected_length,
    stationary,
    transition_matrix,
    worst_block_invariant,
)
from .modes import (
    ContinuousModeId,
    Mode,
    basic_family,
    enumerate_continuous_ids,
    flip_mode,
    mode_from_id,
)
from .optimizer import (
    FAMILIES,
    INIT_RULES,
    BuildError,
    SearchTable,
    aifvm_link_ids,
    build_ilp,
    decode_solution,
    initial_costs,
    link_prices,
    piece_table,
    solve_ilp,
)
from .sources import as_probs
from .splits import brute_force_binary, full_split_table, interval_split_table

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

def check_limits(tolerance: float, max_depth: int | None) -> None:
    """Reject a convergence tolerance or a tree depth bound no build can use."""
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError("tolerance must be finite and positive")
    if max_depth is not None and max_depth < 1:
        raise ValueError("depth bound must be at least 1")


@dataclass(frozen=True)
class BuildConfig:
    n: int
    family: str = "continuous"
    max_depth: int | None = None
    tolerance: float = 1e-14
    max_iterations: int = 200
    init: str = "formula"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("delay must be at least 1")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.init not in INIT_RULES:
            raise ValueError(f"unknown init rule {self.init!r}")
        check_limits(self.tolerance, self.max_depth)
        if self.max_iterations < 1:
            raise ValueError("iteration limit must be at least 1")
        if self.family == "full-binary" and self.max_depth is not None:
            raise ValueError("the full-binary family takes no depth bound")


@dataclass(frozen=True)
class OptimalityReport:
    """What a build measured: per iteration, each absorbing block's
    expected length and the largest cost change; how it stopped; and the
    block it emitted.  The optimality flags and the iteration count are
    read off these."""

    converged: bool
    g_checked: bool | None
    tolerance: float
    selected_block: int
    expected_len: float
    iteration_lbars: tuple[tuple[float, ...], ...]
    max_dcost_trace: tuple[float, ...]
    stepg_converged: bool

    @property
    def f_optimal(self) -> bool:
        """The whole cost vector is invariant."""
        return self.converged

    @property
    def e_optimal(self) -> bool:
        """The whole cost vector, or the worst block's, is invariant."""
        return self.converged or self.stepg_converged

    @property
    def iterations(self) -> int:
        return len(self.iteration_lbars)


def default_depth(m: int, n: int) -> int:
    return 3 * max(1, math.ceil(math.log2(m))) + n


class ModeFamily(NamedTuple):
    """A family's modes as every build of its delay reads them: the
    modes, an interval family's links (``ids``, link ``i`` being mode
    ``i``; None for the full family), each mode's mirror image (None
    when the family is not closed under flipping), the modes a build
    with mirror reuse solves (the lesser of each mirror pair) and each
    mode's ``formula`` starting cost."""

    modes: tuple[Mode, ...]
    ids: tuple[ContinuousModeId, ...] | None
    mirror: tuple[int, ...] | None
    solved: tuple[int, ...]
    costs: tuple[float, ...]


@cache
def mode_family(family: str, n: int) -> ModeFamily:
    """The modes of ``family`` at delay ``n``, made once per process and
    (family, delay); the full family's are :func:`basic_family`'s."""
    if family == "full-binary":
        modes, ids = basic_family(n)[0], None
    else:
        ids = tuple(enumerate_continuous_ids(n) if family == "continuous" else aifvm_link_ids(n))
        modes = tuple(mode_from_id(n, cid) for cid in ids)
    # index 0 must be the empty-string mode: it anchors the encoder
    if modes[0].words != frozenset({EMPTY}):
        raise AssertionError("canonical ordering must put the empty mode first")
    per_words = {m.words: i for i, m in enumerate(modes)}
    mirror = tuple(per_words.get(flip_mode(m).words) for m in modes)
    if None in mirror:
        mirror = None  # family not closed under flipping
    solved = tuple(range(len(modes)) if mirror is None else
                   (i for i, j in enumerate(mirror) if j >= i))
    return ModeFamily(modes, ids, mirror, solved, tuple(initial_costs(modes)))


class _Family:
    """A fixed mode family plus its tree solver: for a binary alphabet
    the split table of the modes the build solves (``splits``), looked up
    once for the ``solved`` modes and once more for every mode should
    mirror reuse switch off, otherwise the search table every tree solve
    of the build shares (``table``)."""

    def __init__(self, cfg: BuildConfig, probs: tuple[float, ...]):
        self.cfg = cfg
        self.probs = probs
        n = cfg.n
        self.table = self.splits = None
        self.bounded = 0  # children the last iteration's tree searches bounded
        self.priced = 0  # splits the last iteration's split minimum priced
        if cfg.family == "full-binary":
            if len(probs) != 2:
                raise BuildError("the full basic family is solvable for binary alphabets only")
            if n > 3:
                raise BuildError("full basic family supported for delays 1..3")
        family = mode_family(cfg.family, n)
        self.modes, self.mirror, self.solved = family.modes, family.mirror, family.solved
        self.starting_costs = family.costs
        if cfg.family == "full-binary":
            self.split_table = partial(full_split_table, n)
        else:
            depth = default_depth(len(probs), n) if cfg.max_depth is None else cfg.max_depth
            # link i of the table is mode i of the family
            if len(probs) == 2:
                self.split_table = partial(interval_split_table, n, depth, family.ids)
            else:
                self.table = SearchTable(piece_table(n, depth, family.ids), probs)
        if self.table is None:
            self.splits = self.split_table(self.solved)
        self.mirror_index = None if self.mirror is None else np.array(self.mirror)

    def initial_cost_vector(self) -> np.ndarray:
        if self.cfg.init == "huffman-floor":
            # every mode but the empty-string mode, mode 0, costs the floor
            costs = np.full(len(self.modes), HUFFMAN_FLOOR_COST)
            costs[0] = 0.0
            return costs
        return np.array(self.starting_costs)

    def solve_trees(
        self, todo: Sequence[int], costs: np.ndarray, below: list[float] | None
    ) -> list[tuple[float, Callable[[], CodeTree]] | None]:
        """The optimal cost of each mode in ``todo`` (every mode, or the
        family's ``solved`` modes) and a call that makes its tree, so
        that a caller keeping its previous tree makes none.  With
        ``below``, a mode's entry is None when no tree costs less than
        its cutoff.  A binary family's trees come from one minimum over
        the split table of the modes in ``todo``, the others' from one
        tree search each, all against one iteration's prices."""
        if self.splits is None:
            prices = link_prices(self.table, costs)
            out = []
            for i, cutoff in zip(todo, below or [None] * len(todo)):
                sol = solve_ilp(build_ilp(self.table.links[i], prices), below=cutoff)
                out.append(None if sol is None else
                           (sol.objective, partial(decode_solution, sol, self.modes[i])))
            self.bounded = prices.bounded
            return out
        if len(todo) != len(self.splits.modes):
            # mirror reuse switched off: every mode from now on
            self.splits = self.split_table(tuple(todo))
        table = self.splits
        choice, objective = brute_force_binary(table, self.probs, costs, below)
        self.priced = len(table)
        return [None if choice[pos] < 0 else
                (float(objective[pos]), partial(table.tree, int(choice[pos]), self.modes[i]))
                for pos, i in enumerate(todo)]


def _mirror_pins_consistent(blocks, mirror: Sequence[int]) -> bool:
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

    The family's modes, mirror map and starting costs are made once per
    process (:func:`mode_family`).  From the second iteration on, each
    tree solve starts from the cost of the mode's previous tree under
    the new prices, less ``RETAIN_EPS``, and keeps that tree unless the
    solve returns a cheaper one.  A binary build solves all of an
    iteration's trees by one minimum over the split table of the modes
    it solves; any other build runs one tree search per mode, all
    sharing one :class:`SearchTable` and the process's piece table.
    A kept tree keeps its expected codeword length, and an iteration
    that keeps every tree makes no Markov pass: the update is a function
    of the forest and the source alone, so it would return the last
    blocks, lbars and costs bit for bit, and the build converges there.
    Each iteration logs one ``AIFV_LOG=DEBUG`` line: trees solved,
    mirrored, placed (first iteration), kept and replaced, the piece
    lists in the process's piece table so far, the splits the split
    minimum priced, the children the iteration's tree searches bounded,
    the seconds spent in tree solves and in the Markov layer (0 when no
    pass was made), and the chain's blocks and absorbing blocks.

    The full basic family's F-optimum is G-optimal, so for
    ``family="full-binary"`` the report's ``g_checked`` is whether the
    run converged; the other families leave it None.
    """
    probs = as_probs(p)
    fam = _Family(cfg, probs)
    k = len(fam.modes)
    costs = fam.initial_cost_vector()
    reuse = fam.mirror is not None

    iteration_lbars: list[tuple[float, ...]] = []
    dcost_trace: list[float] = []
    converged = False

    prev_trees: list[CodeTree] | None = None
    lengths: list[float] = []
    for iteration in range(1, cfg.max_iterations + 1):
        trees = [None] * k
        solve_s = time.perf_counter()
        todo = fam.solved if reuse else range(k)
        if prev_trees is None:
            prev_objs = below = None
        else:
            # Python floats: the search compares the cutoff in its inner loop
            flat = costs.tolist()
            prev_objs = [sum(probs[s] * (t.codewords[s].length + flat[t.links[s]])
                             for s in range(len(probs)))
                         for t in map(prev_trees.__getitem__, todo)]
            below = [obj - RETAIN_EPS for obj in prev_objs]
        kept = replaced = 0
        for pos, (i, found) in enumerate(zip(todo, fam.solve_trees(todo, costs, below))):
            if prev_objs is None:
                trees[i] = found[1]()
            elif found is None or prev_objs[pos] <= found[0] + RETAIN_EPS:
                trees[i] = prev_trees[i]
                kept += 1
            else:
                trees[i] = found[1]()
                replaced += 1
        for i in range(k):
            if trees[i] is None:
                j = fam.mirror[i]
                # mirror reuse has been on since the first iteration, so the
                # previous tree of a kept tree's mirror is already its flip
                trees[i] = (prev_trees[i] if prev_trees is not None and trees[j] is prev_trees[j]
                            else flip_tree(trees[j], fam.mirror, fam.modes[i]))
        solve_s = time.perf_counter() - solve_s
        solved = len(todo)
        placed = solved if prev_trees is None else 0
        unchanged = prev_trees is not None and all(map(operator.is_, trees, prev_trees))
        if unchanged:
            # the last pass's blocks, lbars and (updated) costs stand
            new_costs, markov_s = costs, 0.0
        else:
            lengths = [lengths[i] if prev_trees is not None and t is prev_trees[i] else
                       sum(cw.length * probs[s] for s, cw in enumerate(t.codewords))
                       for i, t in enumerate(trees)]
            markov_s = time.perf_counter()
            chain = transition_matrix(CodeForest(tuple(trees), cfg.n), probs)
            blocks = block_decompose(chain)
            pis = stationary(chain, blocks)
            new_costs, lbars, j_star = cost_update_general(lengths, chain, blocks, pis)
            markov_s = time.perf_counter() - markov_s
        prev_trees = trees
        log.debug("iteration=%d solved=%d mirrored=%d placed=%d kept=%d replaced=%d "
                  "piece_lists=%d splits=%d bounded=%d solve_s=%.6f markov_s=%.6f blocks=%d "
                  "absorbing=%d", iteration, solved, k - solved, placed, kept, replaced,
                  0 if fam.table is None else len(fam.table.pieces.piece_lists),
                  fam.priced, fam.bounded, solve_s, markov_s,
                  len(blocks.blocks), blocks.n_absorbing)
        if reuse and not unchanged:
            if _mirror_pins_consistent(blocks, fam.mirror):
                # exact mathematics guarantees mirror symmetry here, so
                # averaging only cancels rounding noise
                new_costs = 0.5 * (new_costs + new_costs[fam.mirror_index])
            else:
                log.info("mirror pinning broke; solving all modes independently from now on")
                reuse = False

        if iteration_lbars and lbars[j_star] > max(iteration_lbars[-1]) + TRACE_SLACK:
            raise BuildError(
                f"iteration {iteration}: worst-block expected length increased "
                f"from {max(iteration_lbars[-1])!r} to {lbars[j_star]!r}"
            )
        iteration_lbars.append(tuple(lbars))
        dcost_trace.append(float(np.max(np.abs(new_costs - costs), initial=0.0)))

        stepg = worst_block_invariant(new_costs, costs, blocks.blocks[j_star], cfg.tolerance)
        costs = new_costs
        if dcost_trace[-1] <= cfg.tolerance:
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

    issues = validate_rule1(forest)
    if issues:
        raise BuildError(f"constructed forest violates its rules: {issues[:3]}")
    if not validate_full(forest).ok:
        raise BuildError("constructed forest is not full")
    expected = expected_code_length(forest, probs)
    if abs(expected - lbars[j_best]) > 1e-9:
        raise BuildError("emitted block's expected length disagrees with the iteration")

    report = OptimalityReport(
        converged=converged,
        g_checked=converged if cfg.family == "full-binary" else None,
        tolerance=cfg.tolerance,
        selected_block=j_best,
        expected_len=expected,
        iteration_lbars=tuple(iteration_lbars),
        max_dcost_trace=tuple(dcost_trace),
        stepg_converged=stepg,
    )
    return forest, report


def check_g_optimality_binary(p, n: int, cfg: BuildConfig | None = None):
    """Build over the full basic family (binary alphabets, delay <= 3) and
    report whether the run certifies a globally optimal codebook."""
    return construct(p, replace(cfg or BuildConfig(n=n), n=n, family="full-binary"))


def expected_code_length(forest: CodeForest, p) -> float:
    """Stationary expected bits per symbol of a closed forest."""
    probs = as_probs(p)
    chain = transition_matrix(forest, probs)
    blocks = block_decompose(chain)
    if blocks.n_absorbing != 1:
        raise ValueError("expected length needs a single closed forest")
    (pi,) = stationary(chain, blocks)
    lengths = [sum(cw.length * probs[s] for s, cw in enumerate(t.codewords))
               for t in forest.trees]
    return expected_length(lengths, pi)


def huffman_lengths(p) -> list[int]:
    """Optimal code lengths; likelier symbols never get longer codes
    (ties resolved by symbol index), so the assignment is deterministic."""
    probs = as_probs(p)
    m = len(probs)
    # (weight, id) nodes, merged nodes taking ids m upward.  Rounded sums
    # of ever larger pairs never decrease, so merged nodes queue up in
    # (weight, id) order, and the fronts of the two queues pop as one
    # heap over every node would.
    leaves = deque(sorted((w, i) for i, w in enumerate(probs)))
    merged: deque[tuple[float, int]] = deque()
    parent = [0] * (2 * m - 1)
    for node in range(m, 2 * m - 1):
        (w1, a), (w2, b) = [(leaves if leaves and (not merged or leaves[0] < merged[0])
                             else merged).popleft() for _ in range(2)]
        parent[a] = parent[b] = node
        merged.append((w1 + w2, node))
    # a node's parent has a larger id, so depths fill from the root down
    depth = [0] * (2 * m - 1)
    for node in range(2 * m - 3, -1, -1):
        depth[node] = depth[parent[node]] + 1
    out = [0] * m
    for ln, sym in zip(sorted(depth[:m]), sorted(range(m), key=lambda s: (-probs[s], s))):
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
