"""Markov machinery behind forest construction.

The trees of a forest form a finite Markov chain through their links.
Construction needs the chain's stationary behaviour (expected code
length) and a virtual per-tree linking cost whose fixed point certifies
optimality.  A tree has one link per symbol, so the chain is kept as
successor lists, never as a K x K matrix.  Chains met mid-iteration are
not always irreducible, so the states are first split into strongly
connected components by one linear-time depth-first pass (Tarjan's
algorithm) over the successor lists; components without outgoing edges
("absorption blocks") each carry an independent sub-forest with its own
stationary distribution, solved densely on the block alone.  The
transient components follow in the order the pass finds them, each
after every component it feeds, so every edge leaving a component points
to an earlier one and their costs follow by forward substitution in that
order: one division for a single state, a small dense solve for a larger
component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class SingularChainError(np.linalg.LinAlgError):
    """A cost-update linear system is exactly singular."""


# per state, the probability of moving to each successor state
Chain = list[dict[int, float]]


def transition_matrix(forest, probs: Sequence[float]) -> Chain:
    """Tree-to-tree transition probabilities induced by the links, as one
    successor dict per tree; a successor's entry sums the probabilities
    of the symbols linking to it, in symbol order."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or len(p) != forest.symbol_count:
        raise ValueError("one probability per symbol required")
    ps = p.tolist()
    chain = []
    for tree in forest.trees:
        row: dict[int, float] = {}
        for q, link in zip(ps, tree.links):
            row[link] = row.get(link, 0.0) + q
        chain.append(row)
    return chain


@dataclass(frozen=True)
class BlockDecomposition:
    """Strongly connected components in block-lower-triangular order.

    Blocks ``0 .. n_absorbing-1`` have no outgoing edges and come first,
    ordered by smallest contained state.  The transient blocks follow in
    the order Tarjan's pass finds them, each after every block it feeds,
    so every edge leaving a block points to an earlier one.  States
    inside a block are listed in ascending original index.
    """

    blocks: tuple[tuple[int, ...], ...]
    n_absorbing: int


def block_decompose(chain: Chain) -> BlockDecomposition:
    """Group mutually reachable states; absorption blocks first, then a
    topological order so the permuted chain is block lower-triangular.

    One iterative pass of Tarjan's algorithm over the successor lists
    finds the blocks in O(K + E), each one after every block it has
    edges into, so a block is absorbing when every edge of its states
    stays inside it.
    """
    k_total = len(chain)
    succ = [list(row) for row in chain]
    nxt = [0] * k_total  # position of each state's next successor to look at
    visit = [-1] * k_total  # depth-first visit number
    low = [0] * k_total  # smallest visit number seen from the state's subtree
    block_of = [-1] * k_total  # -1 until found; visited and -1 means on the stack
    stack: list[int] = []
    absorbing: list[tuple[int, ...]] = []
    transient: list[tuple[int, ...]] = []
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
            out = succ[v]
            e, end = nxt[v], len(out)
            while e < end and visit[out[e]] >= 0:
                w = out[e]
                if block_of[w] < 0 and visit[w] < low[v]:
                    low[v] = visit[w]
                e += 1
            if e < end:
                nxt[v] = e + 1
                work.append(out[e])
                continue
            work.pop()
            if work and low[v] < low[work[-1]]:
                low[work[-1]] = low[v]
            if low[v] < visit[v]:
                continue
            j = len(absorbing) + len(transient)
            states = []
            while not states or states[-1] != v:
                states.append(stack.pop())
                block_of[states[-1]] = j
            leaves = any(block_of[w] != j for s in states for w in succ[s])
            (transient if leaves else absorbing).append(tuple(sorted(states)))
    absorbing.sort()  # blocks are disjoint, so by smallest state
    return BlockDecomposition(blocks=tuple(absorbing + transient), n_absorbing=len(absorbing))


def _dense_block(chain: Chain, idx: Sequence[int]) -> np.ndarray:
    """The chain's transitions among the states ``idx``, in that order."""
    pos = {s: i for i, s in enumerate(idx)}
    sub = np.zeros((len(idx), len(idx)))
    for i, s in enumerate(idx):
        for w, q in chain[s].items():
            if w in pos:
                sub[i, pos[w]] = q
    return sub


def stationary(chain: Chain, blocks: BlockDecomposition) -> list[np.ndarray]:
    """One stationary distribution per absorption block.

    Each is the unique positive solution of the transposed balance
    equations on the block, solved with a normalisation row appended,
    and embedded as a length-K vector with zeros elsewhere.
    """
    k_total = len(chain)
    out = []
    for j in range(blocks.n_absorbing):
        idx = blocks.blocks[j]
        sub = _dense_block(chain, idx)
        size = len(idx)
        a = np.vstack([sub.T - np.eye(size), np.ones((1, size))])
        b = np.zeros(size + 1)
        b[-1] = 1.0
        sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
        if rank < size:
            raise SingularChainError(f"stationary system rank {rank} < {size}")
        pi = np.zeros(k_total)
        pi[list(idx)] = sol
        out.append(pi)
    return out


def expected_length(lengths: Sequence[float], pi: np.ndarray) -> float:
    lv = np.asarray(lengths, dtype=float)
    if lv.shape != np.shape(pi):
        raise ValueError("length/distribution size mismatch")
    return float(pi @ lv)


def _singular(blocks: BlockDecomposition, j: int) -> SingularChainError:
    kind = "pinned system of absorbing" if j < blocks.n_absorbing else "transient system at"
    return SingularChainError(f"{kind} block {j} (first tree {blocks.blocks[j][0]}) is singular")


def _solve(a: np.ndarray, b: np.ndarray, blocks: BlockDecomposition, j: int) -> np.ndarray:
    """``np.linalg.solve`` of block ``j``'s system: the pinned one of an
    absorbing block, the own one of a transient block.  An exactly
    singular system raises SingularChainError naming the block."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        raise _singular(blocks, j) from None


def cost_update_general(
    lengths: Sequence[float],
    chain: Chain,
    blocks: BlockDecomposition,
    pis: list[np.ndarray],
) -> tuple[np.ndarray, list[float], int]:
    """Cost update that works for any chain shape.

    Absorption blocks are solved against their own expected length with
    their first state pinned at zero.  The transient blocks are then
    priced in block order against the worst absorption-block length plus
    the inflow of the blocks already priced, which are all the blocks
    their edges leave to.  A single state takes one division, a larger
    system a dense solve.  Returns the cost vector, the absorption
    blocks' expected lengths, and the index of the worst one.
    """
    lv = np.asarray(lengths, dtype=float)
    lbars = [expected_length(lv, pi) for pi in pis]
    j_star = int(np.argmax(lbars))

    ls = lv.tolist()
    costs = [0.0] * len(chain)
    for j, block in enumerate(blocks.blocks):
        idx, lbar = (block[1:], lbars[j]) if j < blocks.n_absorbing else (block, lbars[j_star])
        inside = set(idx)
        # (P - I) c = lbar - L on idx, with every edge leaving idx at a
        # state already priced (the pinned state costs zero)
        rhs = [lbar - ls[s] - sum(q * costs[w] for w, q in chain[s].items() if w not in inside)
               for s in idx]
        if len(idx) == 1:
            (s,) = idx
            diag = chain[s].get(s, 0.0) - 1.0
            if diag == 0.0:
                raise _singular(blocks, j)
            costs[s] = rhs[0] / diag
        elif idx:
            sol = _solve(_dense_block(chain, idx) - np.eye(len(idx)), np.array(rhs), blocks, j)
            for s, c in zip(idx, sol.tolist()):
                costs[s] = c
    return np.array(costs), lbars, j_star


def worst_block_invariant(c_new: np.ndarray, c_old: np.ndarray, block: Sequence[int],
                          tol: float) -> bool:
    """Termination test of the generalized update: the new costs of the
    worst block's states equal their old ones rebased so the block's
    first state is zero."""
    idx = list(block)
    rebased = c_old[idx] - c_old[idx[0]]
    return bool(np.max(np.abs(c_new[idx] - rebased), initial=0.0) <= tol)
