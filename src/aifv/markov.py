"""Markov machinery behind forest construction.

The trees of a forest form a finite Markov chain through their links.
Construction needs the chain's stationary behaviour (expected code
length) and a virtual per-tree linking cost whose fixed point certifies
optimality.  Chains met mid-iteration are not always irreducible, so the
matrix is first block-triangularised by strongly connected components;
components without outgoing edges ("absorption blocks") each carry an
independent sub-forest with its own stationary distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

# Pivot magnitudes below this are treated as singular in cost solves.
PIVOT_TOL = 1e-12


class SingularChainError(np.linalg.LinAlgError):
    """A cost-update linear system is numerically singular."""


def transition_matrix(forest, probs: Sequence[float]) -> np.ndarray:
    """Tree-to-tree transition probabilities induced by the links."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or len(p) != forest.symbol_count:
        raise ValueError("one probability per symbol required")
    if np.any(p <= 0) or abs(p.sum() - 1.0) > 1e-12:
        raise ValueError("probabilities must be strictly positive and sum to 1")
    k_total = len(forest.trees)
    mat = np.zeros((k_total, k_total))
    for k, tree in enumerate(forest.trees):
        for s, link in enumerate(tree.links):
            mat[k, link] += p[s]
    return mat


@dataclass(frozen=True)
class BlockDecomposition:
    """Strongly connected components in block-lower-triangular order.

    Blocks ``0 .. n_absorbing-1`` have no outgoing edges and come first;
    every later block has at least one edge into an earlier one.  States
    inside a block are listed in ascending original index, blocks are
    ordered deterministically by smallest contained index.
    """

    blocks: tuple[tuple[int, ...], ...]
    n_absorbing: int

    @property
    def order(self) -> tuple[int, ...]:
        return tuple(i for b in self.blocks for i in b)


def _tarjan_sccs(adj: list[list[int]]) -> list[list[int]]:
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < len(adj[v]):
                w = adj[v][pi]
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return sccs


def block_decompose(mat: np.ndarray) -> BlockDecomposition:
    """Group mutually reachable states; absorption blocks first, then a
    topological order so the permuted matrix is block lower-triangular."""
    n = mat.shape[0]
    adj = [[j for j in range(n) if mat[i, j] > 0.0] for i in range(n)]
    sccs = _tarjan_sccs(adj)
    comp_of = {}
    for c, comp in enumerate(sccs):
        for v in comp:
            comp_of[v] = c
    out_edges: list[set[int]] = [set() for _ in sccs]
    for v in range(n):
        for w in adj[v]:
            if comp_of[v] != comp_of[w]:
                out_edges[comp_of[v]].add(comp_of[w])

    placed: list[int] = []
    placed_set: set[int] = set()
    absorbing = sorted((c for c in range(len(sccs)) if not out_edges[c]),
                       key=lambda c: sccs[c][0])
    placed.extend(absorbing)
    placed_set.update(absorbing)
    remaining = set(range(len(sccs))) - placed_set
    while remaining:
        ready = sorted((c for c in remaining if out_edges[c] <= placed_set),
                       key=lambda c: sccs[c][0])
        if not ready:
            raise AssertionError("cycle across components; SCC computation broken")
        placed.append(ready[0])
        placed_set.add(ready[0])
        remaining.discard(ready[0])
    return BlockDecomposition(
        blocks=tuple(tuple(sccs[c]) for c in placed),
        n_absorbing=len(absorbing),
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
    """Block-wise cost update that works for any chain shape.

    Absorption blocks are solved against their own expected length with
    their first state pinned at zero; the remaining blocks are solved in
    full against the worst absorption-block length plus the inflow of
    already-priced blocks, gathered over all of them at once.  Returns
    the cost vector, the absorption blocks' expected lengths, and the
    index of the worst one.
    """
    lv = np.asarray(lengths, dtype=float)
    if pis is None:
        pis = stationary(mat, blocks)
    lbars = [expected_length(lv, pi) for pi in pis]
    j_star = int(np.argmax(lbars))
    lbar_star = lbars[j_star]

    costs = np.zeros(mat.shape[0])
    order = np.array(blocks.order)
    done = 0  # states order[:done] are priced
    for j, idx_t in enumerate(blocks.blocks):
        idx = np.array(idx_t)
        size = len(idx)
        rows = mat[idx]
        sub = rows[:, idx]
        if j < blocks.n_absorbing:
            c = np.zeros(size)
            if size > 1:
                a = sub[1:, 1:] - np.eye(size - 1)
                rhs = np.full(size - 1, lbars[j]) - lv[idx][1:]
                c[1:] = _lu_solve_checked(a, rhs)
        else:
            priced = order[:done]
            inflow = rows[:, priced] @ costs[priced]
            a = sub - np.eye(size)
            rhs = np.full(size, lbar_star) - lv[idx] - inflow
            c = _lu_solve_checked(a, rhs)
        costs[idx] = c
        done += size
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
