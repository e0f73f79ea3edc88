import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aifv.forest import CodeForest
from aifv.markov import (
    BlockDecomposition,
    SingularChainError,
    _lu_solve_checked,
    block_decompose,
    cost_update_general,
    costs_invariant,
    expected_length,
    stationary,
    transition_matrix,
    worst_block_invariant,
)
from conftest import make_tree


def cost_update_simple(lengths, mat, lbar):
    """Per-tree linking costs when every tree can reach tree 0.

    Pins the initial tree at zero and solves the remaining states
    against the chain-wide expected length.
    """
    lv = np.asarray(lengths, dtype=float)
    k_total = mat.shape[0]
    costs = np.zeros(k_total)
    if k_total == 1:
        return costs
    sub = mat[1:, 1:] - np.eye(k_total - 1)
    rhs = np.full(k_total - 1, lbar) - lv[1:]
    costs[1:] = _lu_solve_checked(sub, rhs)
    return costs


def cost_update_blockwise(lengths, mat, blocks, pis=None):
    """The generalized cost update with each transient block's inflow
    summed one earlier block at a time."""
    lv = np.asarray(lengths, dtype=float)
    if pis is None:
        pis = stationary(mat, blocks)
    lbars = [expected_length(lv, pi) for pi in pis]
    j_star = int(np.argmax(lbars))
    lbar_star = lbars[j_star]

    costs = np.zeros(mat.shape[0])
    block_cost = []
    for j, idx_t in enumerate(blocks.blocks):
        idx = np.array(idx_t)
        size = len(idx)
        sub = mat[np.ix_(idx, idx)]
        if j < blocks.n_absorbing:
            c = np.zeros(size)
            if size > 1:
                a = sub[1:, 1:] - np.eye(size - 1)
                rhs = np.full(size - 1, lbars[j]) - lv[idx][1:]
                c[1:] = _lu_solve_checked(a, rhs)
        else:
            inflow = np.zeros(size)
            for j2 in range(j):
                idx2 = np.array(blocks.blocks[j2])
                inflow += mat[np.ix_(idx, idx2)] @ block_cost[j2]
            a = sub - np.eye(size)
            rhs = np.full(size, lbar_star) - lv[idx] - inflow
            c = _lu_solve_checked(a, rhs)
        block_cost.append(c)
        costs[idx] = c
    return costs, lbars, j_star


def _tarjan_sccs(adj):
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    sccs = []
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


def block_decompose_tarjan(mat):
    """The decomposition by Tarjan's SCC algorithm and a topological sort
    that places the ready block with the smallest state first."""
    n = mat.shape[0]
    adj = [[j for j in range(n) if mat[i, j] > 0.0] for i in range(n)]
    sccs = _tarjan_sccs(adj)
    comp_of = {}
    for c, comp in enumerate(sccs):
        for v in comp:
            comp_of[v] = c
    out_edges = [set() for _ in sccs]
    for v in range(n):
        for w in adj[v]:
            if comp_of[v] != comp_of[w]:
                out_edges[comp_of[v]].add(comp_of[w])

    absorbing = sorted((c for c in range(len(sccs)) if not out_edges[c]),
                       key=lambda c: sccs[c][0])
    placed = list(absorbing)
    placed_set = set(absorbing)
    remaining = set(range(len(sccs))) - placed_set
    while remaining:
        ready = sorted((c for c in remaining if out_edges[c] <= placed_set),
                       key=lambda c: sccs[c][0])
        assert ready, "cycle across components"
        placed.append(ready[0])
        placed_set.add(ready[0])
        remaining.discard(ready[0])
    return BlockDecomposition(
        blocks=tuple(tuple(sccs[c]) for c in placed),
        n_absorbing=len(absorbing),
    )


def assert_matches_tarjan(mat, blocks):
    """Same blocks and the same absorption blocks in the same order as
    the oracle, and every edge between blocks points to an earlier one."""
    ref = block_decompose_tarjan(mat)
    assert blocks.n_absorbing == ref.n_absorbing
    assert blocks.blocks[:ref.n_absorbing] == ref.blocks[:ref.n_absorbing]
    assert set(blocks.blocks) == set(ref.blocks)
    order = np.array(blocks.order)
    assert sorted(order.tolist()) == list(range(mat.shape[0]))
    block_of = np.empty(len(order), dtype=int)
    for j, b in enumerate(blocks.blocks):
        block_of[list(b)] = j
    src, dst = np.nonzero(mat > 0.0)
    assert np.all(block_of[dst] <= block_of[src]), "edge points to a later block"


def random_stochastic(rng, k):
    m = np.array([[rng.random() for _ in range(k)] for _ in range(k)])
    return m / m.sum(axis=1, keepdims=True)


def test_transition_matrix_single_tree():
    t = make_tree(1, [""], [("0", 0), ("1", 0)])
    f = CodeForest((t,), 1)
    assert np.array_equal(transition_matrix(f, [0.5, 0.5]), [[1.0]])


def test_transition_matrix_two_cycle():
    t0 = make_tree(2, [""], [("0", 1), ("1", 1)])
    t1 = make_tree(2, [""], [("0", 0), ("1", 0)])
    f = CodeForest((t0, t1), 2)
    assert np.array_equal(transition_matrix(f, [0.3, 0.7]), [[0, 1], [1, 0]])


def test_transition_matrix_demo_row0(demo_forest):
    pa, pb, pc = 0.5, 0.3, 0.2
    mat = transition_matrix(demo_forest, [pa, pb, pc])
    # tree 0 links: symbol a -> 1, b -> 2, c -> 0
    assert np.allclose(mat[0], [pc, pa, pb, 0.0, 0.0])
    assert np.allclose(mat.sum(axis=1), 1.0)


def test_transition_matrix_rejects_bad_distribution(demo_forest):
    with pytest.raises(ValueError):
        transition_matrix(demo_forest, [0.5, 0.5, 0.1])
    with pytest.raises(ValueError):
        transition_matrix(demo_forest, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="strictly positive"):
        transition_matrix(demo_forest, [float("nan"), 0.5, 0.5])


def test_block_decompose_irreducible():
    blocks = block_decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert blocks.blocks == ((0, 1),)
    assert blocks.n_absorbing == 1


def test_block_decompose_feeder():
    blocks = block_decompose(np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert blocks.blocks == ((0,), (1,))
    assert blocks.n_absorbing == 1


def test_block_decompose_two_disjoint_cycles():
    blocks = block_decompose(np.eye(2))
    assert blocks.blocks == ((0,), (1,))
    assert blocks.n_absorbing == 2


def test_block_decompose_partition_and_triangularity():
    rng = random.Random(4)
    for _ in range(60):
        k = rng.randrange(2, 9)
        mat = np.zeros((k, k))
        for i in range(k):
            targets = rng.sample(range(k), rng.randrange(1, min(3, k) + 1))
            for t in targets:
                mat[i, t] = 1.0
            mat[i] /= mat[i].sum()
        blocks = block_decompose(mat)
        assert sorted(blocks.order) == list(range(k))
        start = {}
        pos = 0
        for j, b in enumerate(blocks.blocks):
            for s in b:
                start[s] = j
            pos += len(b)
        for i in range(k):
            for j in range(k):
                if mat[i, j] > 0 and start[i] != start[j]:
                    assert start[j] < start[i], "edge points to a later block"
        for j in range(blocks.n_absorbing):
            members = set(blocks.blocks[j])
            for s in members:
                assert all(mat[s, t] == 0 for t in range(k) if t not in members)


@st.composite
def sparse_chains(draw):
    """Up to 40 shuffled states cut into runs of self-loops, cycles and
    feeder chains; a cycle or feeder run after the first also leads into
    an earlier run.  A few random extra edges follow."""
    k = draw(st.integers(1, 40))
    labels = draw(st.permutations(range(k)))
    mat = np.zeros((k, k))
    pos = 0
    while pos < k:
        run = labels[pos:pos + draw(st.integers(1, min(6, k - pos)))]
        kind = draw(st.sampled_from(("loops", "cycle", "feeder")))
        for a, b in zip(run, run[1:]):
            mat[a, a if kind == "loops" else b] = 1.0
        if kind == "loops" or pos == 0:
            mat[run[-1], run[-1]] = 1.0
        else:
            mat[run[-1], labels[draw(st.integers(0, pos - 1))]] = 1.0
        if kind == "cycle":
            mat[run[-1], run[0]] = 1.0
        pos += len(run)
    for i, j in draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                              max_size=k // 4)):
        mat[i, j] = 1.0
    return mat / mat.sum(axis=1, keepdims=True)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sparse_chains())
def test_block_decompose_matches_tarjan_on_sparse_chains(mat):
    assert_matches_tarjan(mat, block_decompose(mat))


def test_stationary_symmetric_cycle():
    mat = np.array([[0.0, 1.0], [1.0, 0.0]])
    (pi,) = stationary(mat, block_decompose(mat))
    assert np.allclose(pi, [0.5, 0.5])


def test_stationary_hand_solved():
    # balance equations of [[.5,.5],[1,0]] give (2/3, 1/3)
    mat = np.array([[0.5, 0.5], [1.0, 0.0]])
    (pi,) = stationary(mat, block_decompose(mat))
    assert np.allclose(pi, [2 / 3, 1 / 3], atol=1e-12)


def test_stationary_singleton():
    mat = np.array([[1.0]])
    (pi,) = stationary(mat, block_decompose(mat))
    assert pi == pytest.approx([1.0])


def test_stationary_balance_random_chains():
    rng = random.Random(17)
    for _ in range(25):
        k = rng.randrange(2, 51)
        mat = random_stochastic(rng, k)
        blocks = block_decompose(mat)
        assert blocks.n_absorbing == 1  # dense positive matrix is irreducible
        (pi,) = stationary(mat, blocks)
        assert np.all(pi >= -1e-12)
        assert abs(pi.sum() - 1.0) <= 1e-10
        assert np.max(np.abs(pi @ mat - pi)) <= 1e-10


def test_expected_length():
    assert expected_length([1.0, 1.0], np.array([0.5, 0.5])) == pytest.approx(1.0)
    assert expected_length([1.0, 2.0], np.array([2 / 3, 1 / 3])) == pytest.approx(4 / 3)


def test_cost_update_simple_k1():
    assert np.array_equal(cost_update_simple([1.0], np.array([[1.0]]), 1.0), [0.0])


def test_cost_update_simple_hand_solved():
    mat = np.array([[0.5, 0.5], [1.0, 0.0]])
    costs = cost_update_simple([1.0, 2.0], mat, 4 / 3)
    assert np.allclose(costs, [0.0, 2 / 3], atol=1e-12)


def test_cost_update_simple_self_consistent():
    rng = random.Random(23)
    for _ in range(20):
        k = rng.randrange(2, 8)
        mat = random_stochastic(rng, k)
        lengths = [1 + rng.random() for _ in range(k)]
        blocks = block_decompose(mat)
        (pi,) = stationary(mat, blocks)
        lbar = expected_length(lengths, pi)
        costs = cost_update_simple(lengths, mat, lbar)
        again = cost_update_simple(lengths, mat, lbar)
        assert np.array_equal(costs, again)
        # the defining linear identity holds on the non-pinned states
        resid = lengths + (mat - np.eye(k)) @ costs - lbar
        assert np.max(np.abs(resid)) <= 1e-9


def test_cost_update_simple_singular_raises():
    # tree 1 never reaches tree 0
    mat = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(SingularChainError):
        cost_update_simple([1.0, 2.0], mat, 1.0)


def test_cost_update_general_matches_simple_on_irreducible():
    rng = random.Random(31)
    for _ in range(20):
        k = rng.randrange(2, 10)
        mat = random_stochastic(rng, k)
        lengths = [1 + rng.random() for _ in range(k)]
        blocks = block_decompose(mat)
        (pi,) = stationary(mat, blocks)
        lbar = expected_length(lengths, pi)
        simple = cost_update_simple(lengths, mat, lbar)
        general, lbars, j_star = cost_update_general(lengths, mat, blocks)
        assert j_star == 0
        assert lbars == pytest.approx([lbar])
        assert np.max(np.abs(general - simple)) <= 1e-12


def test_cost_update_general_disjoint_singletons():
    mat = np.eye(2)
    costs, lbars, j_star = cost_update_general([1.0, 2.0], mat, block_decompose(mat))
    assert np.array_equal(costs, [0.0, 0.0])
    assert lbars == pytest.approx([1.0, 2.0])
    assert j_star == 1


def test_cost_update_general_feeder_chain():
    # state 1 feeds the absorbing state 0 and never self-loops:
    # its cost solves (0 - 1) c = lbar_star - L_1 - P_{1,0} * C_0
    mat = np.array([[1.0, 0.0], [1.0, 0.0]])
    lengths = [1.0, 2.5]
    costs, lbars, j_star = cost_update_general(lengths, mat, block_decompose(mat))
    assert lbars == pytest.approx([1.0])
    assert j_star == 0
    assert costs[0] == 0.0
    assert costs[1] == pytest.approx(2.5 - 1.0)


def test_costs_invariant_tolerances():
    assert costs_invariant([1.0, 2.0], [1.0, 2.0])
    assert not costs_invariant([1.0, 2.0 + 1e-13], [1.0, 2.0], tol=1e-14)
    assert costs_invariant([1.0, 2.0 + 0.5e-14], [1.0, 2.0], tol=1e-14)


def test_worst_block_invariant_rebases():
    c_old = np.array([5.0, 7.0, 9.0])
    block = np.array([0.0, 2.0])
    assert worst_block_invariant(block, c_old, [1, 2], tol=1e-14)
    assert not worst_block_invariant(np.array([0.0, 2.1]), c_old, [1, 2], tol=1e-14)


@st.composite
def block_triangular_chains(draw):
    """A chain with known SCC blocks under shuffled state labels: the
    first ``n_absorbing`` blocks are closed, every later block has edges
    into earlier ones, and blocks of two or more states are complete."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=8))
    n_absorbing = draw(st.integers(1, min(3, len(sizes) - 1)))
    k = sum(sizes)
    labels = draw(st.permutations(range(k)))
    blocks, pos = [], 0
    for size in sizes:
        blocks.append(labels[pos:pos + size])
        pos += size
    mat = np.zeros((k, k))
    for j, block in enumerate(blocks):
        earlier = [s for b in blocks[:j] for s in b]
        transient = j >= n_absorbing
        for i in block:
            for t in block:
                mat[i, t] = draw(st.integers(0 if transient and len(block) == 1 else 1, 9))
            if transient:
                for t in draw(st.lists(st.sampled_from(earlier), min_size=1, max_size=3,
                                       unique=True)):
                    mat[i, t] = draw(st.integers(1, 9))
    mat /= mat.sum(axis=1, keepdims=True)
    lengths = draw(st.lists(st.floats(1.0, 3.0), min_size=k, max_size=k))
    return mat, lengths, n_absorbing


@settings(max_examples=200, deadline=None, derandomize=True)
@given(block_triangular_chains())
def test_cost_update_general_matches_blockwise_inflow(chain):
    mat, lengths, n_absorbing = chain
    blocks = block_decompose(mat)
    assert blocks.n_absorbing == n_absorbing
    costs, lbars, j_star = cost_update_general(lengths, mat, blocks)
    ref, ref_lbars, ref_j = cost_update_blockwise(lengths, mat, blocks)
    assert (lbars, j_star) == (ref_lbars, ref_j)
    # only the inflow's summation order differs, so rounding scales with
    # the size of the costs it sums
    assert np.max(np.abs(costs - ref)) <= 1e-15 * max(1.0, np.max(np.abs(ref)))


def test_cost_update_general_matches_blockwise_on_build_chains(monkeypatch):
    import aifv.builder as builder

    chains = []

    def capture(lengths, mat, blocks, pis):
        chains.append((lengths, mat, blocks, pis))
        return cost_update_general(lengths, mat, blocks, pis)

    monkeypatch.setattr(builder, "cost_update_general", capture)
    builder.construct((0.9, 0.1), builder.BuildConfig(n=4))
    assert len(chains) > 1
    assert any(len(blocks.blocks) > 1 for _, _, blocks, _ in chains)
    for lengths, mat, blocks, pis in chains:
        assert_matches_tarjan(mat, blocks)
        costs = cost_update_general(lengths, mat, blocks, pis)[0]
        ref = cost_update_blockwise(lengths, mat, blocks, pis)[0]
        assert np.max(np.abs(costs - ref)) <= 1e-15
