"""Markov machinery behind forest construction.

The trees of a forest form a finite Markov chain through their links.
Construction needs the chain's stationary behaviour (expected code
length) and a virtual per-tree linking cost whose fixed point certifies
optimality.  Chains met mid-iteration are not always irreducible, so the
matrix is first block-triangularised by strongly connected components,
found by one linear-time depth-first pass (Tarjan's algorithm) over the
chain's edges; components without outgoing edges ("absorption blocks")
each carry an independent sub-forest with its own stationary
distribution.  The transient components follow in order of how many
states they reach, which makes the permuted matrix block
lower-triangular, and one linear solve prices all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class SingularChainError(np.linalg.LinAlgError):
    """A cost-update linear system is exactly singular."""


def transition_matrix(forest, probs: Sequence[float]) -> np.ndarray:
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


@dataclass(frozen=True)
class BlockDecomposition:
    """Strongly connected components in block-lower-triangular order.

    Blocks ``0 .. n_absorbing-1`` have no outgoing edges and come first,
    ordered by smallest contained state.  The transient blocks follow,
    ordered by how many states they reach, then by smallest contained
    state; a block reaches strictly more states than any block it feeds,
    so every edge leaving a block points to an earlier one.  States
    inside a block are listed in ascending original index.
    """

    blocks: tuple[tuple[int, ...], ...]
    n_absorbing: int


def block_decompose(mat: np.ndarray) -> BlockDecomposition:
    """Group mutually reachable states; absorption blocks first, then a
    topological order so the permuted matrix is block lower-triangular.

    One iterative pass of Tarjan's algorithm over the successor lists of
    ``mat > 0`` finds the blocks in O(K + E), each one after every block
    it has edges into.  So when a block is found, the states it reaches
    make one int bitset: its own states and those of the blocks it feeds.
    """
    k_total = mat.shape[0]
    src, dst = np.nonzero(mat > 0.0)
    succ = dst.tolist()
    start = np.searchsorted(src, np.arange(k_total + 1)).tolist()
    nxt = start[:-1]  # position of each state's next successor to look at
    visit = [-1] * k_total  # depth-first visit number
    low = [0] * k_total  # smallest visit number seen from the state's subtree
    block_of = [-1] * k_total  # -1 until found; visited and -1 means on the stack
    stack: list[int] = []
    reach: list[int] = []  # bitset of the states each found block reaches
    found = []  # (sort key, states) per block
    counter = 0
    for root in range(k_total):
        if visit[root] >= 0:
            continue
        work = [root]
        while work:
            v = work[-1]
            if visit[v] < 0:
                visit[v] = low[v] = counter
                counter += 1
                stack.append(v)
            e, end = nxt[v], start[v + 1]
            while e < end and visit[succ[e]] >= 0:
                w = succ[e]
                if block_of[w] < 0 and visit[w] < low[v]:
                    low[v] = visit[w]
                e += 1
            if e < end:
                nxt[v] = e + 1
                work.append(succ[e])
                continue
            work.pop()
            if work and low[v] < low[work[-1]]:
                low[work[-1]] = low[v]
            if low[v] < visit[v]:
                continue
            j = len(reach)
            states = []
            while not states or states[-1] != v:
                states.append(stack.pop())
                block_of[states[-1]] = j
            bits = 0
            for s in states:
                bits |= 1 << s
            fed = {block_of[w] for s in states for w in succ[start[s]:start[s + 1]]} - {j}
            for b in fed:
                bits |= reach[b]
            reach.append(bits)
            states.sort()
            # absorbing blocks sort first because a transient one reaches >= 2 states
            found.append(((bits.bit_count() if fed else 0, states[0]), tuple(states)))
    found.sort()
    return BlockDecomposition(
        blocks=tuple(states for _, states in found),
        n_absorbing=sum(1 for (n_reached, _), _ in found if n_reached == 0),
    )


def stationary(mat: np.ndarray, blocks: BlockDecomposition) -> list[np.ndarray]:
    """One stationary distribution per absorption block.

    Each is the unique positive solution of the transposed balance
    equations on the block, solved with a normalisation row appended,
    and embedded as a length-K vector with zeros elsewhere.
    """
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


def expected_length(lengths: Sequence[float], pi: np.ndarray) -> float:
    lv = np.asarray(lengths, dtype=float)
    if lv.shape != np.shape(pi):
        raise ValueError("length/distribution size mismatch")
    return float(pi @ lv)


def _solve(a: np.ndarray, b: np.ndarray, blocks: BlockDecomposition, j: int) -> np.ndarray:
    """``np.linalg.solve`` of absorbing block ``j``'s pinned system or, from
    the first transient ``j``, the transient one; SingularChainError names
    the block at fault if it is exactly singular."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        kind = "pinned system of absorbing"
    if j >= blocks.n_absorbing:
        # block lower-triangular: at fault is its diagonal block nearest to singular
        kind = "transient system at"
        bounds = np.cumsum([0] + [len(block) for block in blocks.blocks[j:]])
        dets = [abs(np.linalg.det(a[s:e, s:e])) for s, e in zip(bounds, bounds[1:])]
        j += int(np.argmin(dets))
    raise SingularChainError(f"{kind} block {j} (first tree {blocks.blocks[j][0]}) is singular")


def cost_update_general(
    lengths: Sequence[float],
    mat: np.ndarray,
    blocks: BlockDecomposition,
    pis: list[np.ndarray],
) -> tuple[np.ndarray, list[float], int]:
    """Cost update that works for any chain shape.

    Absorption blocks are solved against their own expected length with
    their first state pinned at zero; all transient states are then
    solved at once against the worst absorption-block length plus the
    inflow of the priced absorption blocks.  Returns the cost vector,
    the absorption blocks' expected lengths, and the index of the worst
    one.
    """
    lv = np.asarray(lengths, dtype=float)
    lbars = [expected_length(lv, pi) for pi in pis]
    j_star = int(np.argmax(lbars))

    costs = np.zeros(mat.shape[0])
    for j in range(blocks.n_absorbing):
        rest = np.array(blocks.blocks[j][1:], dtype=int)
        if len(rest):
            a = mat[np.ix_(rest, rest)] - np.eye(len(rest))
            costs[rest] = _solve(a, lbars[j] - lv[rest], blocks, j)
    trans = np.array([i for b in blocks.blocks[blocks.n_absorbing:] for i in b], dtype=int)
    if len(trans):
        rows = mat[trans]
        a = rows[:, trans] - np.eye(len(trans))
        # costs[trans] is still zero, so rows @ costs is the absorbing inflow
        costs[trans] = _solve(a, lbars[j_star] - lv[trans] - rows @ costs,
                              blocks, blocks.n_absorbing)
    return costs, lbars, j_star


def costs_invariant(c_new: Sequence[float], c_old: Sequence[float], tol: float = 1e-14) -> bool:
    """Fixed-point test: no cost moved by more than ``tol``."""
    a, b = np.asarray(c_new, dtype=float), np.asarray(c_old, dtype=float)
    if a.shape != b.shape:
        raise ValueError("cost vectors differ in length")
    return bool(np.max(np.abs(a - b), initial=0.0) <= tol)


def worst_block_invariant(
    c_new_block: np.ndarray,
    c_old: np.ndarray,
    block_states: Sequence[int],
    tol: float,
) -> bool:
    """Termination test of the generalized update: the worst block's new
    costs equal its old ones rebased so the block's first state is zero."""
    old = np.asarray([c_old[i] for i in block_states], dtype=float)
    rebased = old - old[0]
    return bool(np.max(np.abs(c_new_block - rebased), initial=0.0) <= tol)
