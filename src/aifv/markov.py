"""Markov machinery behind forest construction.

The trees of a forest form a finite Markov chain through their links.
Construction needs the chain's stationary behaviour (expected code
length) and a virtual per-tree linking cost whose fixed point certifies
optimality.  Chains met mid-iteration are not always irreducible, so the
matrix is first block-triangularised by strongly connected components,
read off the chain's reachability closure; components without outgoing
edges ("absorption blocks") each carry an independent sub-forest with
its own stationary distribution.  The transient components follow in
order of how many states they reach, which makes the permuted matrix
block lower-triangular, and one linear solve prices all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .sources import as_probs

# Pivot magnitudes below this are treated as singular in cost solves.
PIVOT_TOL = 1e-12


class SingularChainError(np.linalg.LinAlgError):
    """A cost-update linear system is numerically singular."""


def transition_matrix(forest, probs: Sequence[float]) -> np.ndarray:
    """Tree-to-tree transition probabilities induced by the links."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or len(p) != forest.symbol_count:
        raise ValueError("one probability per symbol required")
    as_probs(p)
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

    @property
    def order(self) -> tuple[int, ...]:
        return tuple(i for b in self.blocks for i in b)


def block_decompose(mat: np.ndarray) -> BlockDecomposition:
    """Group mutually reachable states; absorption blocks first, then a
    topological order so the permuted matrix is block lower-triangular.

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
        sol, _, rank, _ = scipy.linalg.lstsq(a, b)
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


def _lu_solve_checked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a)
    if np.min(np.abs(np.diag(lu))) < PIVOT_TOL:
        raise SingularChainError("pivot below tolerance; chain cannot reach the pinned tree")
    return scipy.linalg.lu_solve((lu, piv), b)


def cost_update_general(
    lengths: Sequence[float],
    mat: np.ndarray,
    blocks: BlockDecomposition,
    pis: list[np.ndarray] | None = None,
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
    if pis is None:
        pis = stationary(mat, blocks)
    lbars = [expected_length(lv, pi) for pi in pis]
    j_star = int(np.argmax(lbars))

    costs = np.zeros(mat.shape[0])
    for j in range(blocks.n_absorbing):
        rest = np.array(blocks.blocks[j][1:], dtype=int)
        if len(rest):
            a = mat[np.ix_(rest, rest)] - np.eye(len(rest))
            costs[rest] = _lu_solve_checked(a, lbars[j] - lv[rest])
    trans = np.array([i for b in blocks.blocks[blocks.n_absorbing:] for i in b], dtype=int)
    if len(trans):
        rows = mat[trans]
        a = rows[:, trans] - np.eye(len(trans))
        # costs[trans] is still zero, so rows @ costs is the absorbing inflow
        costs[trans] = _lu_solve_checked(a, lbars[j_star] - lv[trans] - rows @ costs)
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
