import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aifv.forest import CodeForest
from aifv.markov import (
    BlockDecomposition,
    SingularChainError,
    _solve,
    block_decompose,
    cost_update_general,
    expected_length,
    stationary,
    transition_matrix,
    worst_block_invariant,
)
from conftest import make_tree
from oracles import (
    block_decompose_closure,
    chain_from_matrix,
    dense_stationary,
    dense_transition_matrix,
)


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
    # the whole chain is taken as one absorbing block pinned at tree 0
    whole = BlockDecomposition(blocks=(tuple(range(k_total)),), n_absorbing=1)
    costs[1:] = _solve(sub, rhs, whole, 0)
    return costs


def cost_update_blockwise(lengths, mat, blocks, pis):
    """The generalized cost update with each transient block's inflow
    summed one earlier block at a time."""
    lv = np.asarray(lengths, dtype=float)
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
                c[1:] = _solve(a, rhs, blocks, j)
        else:
            inflow = np.zeros(size)
            for j2 in range(j):
                idx2 = np.array(blocks.blocks[j2])
                inflow += mat[np.ix_(idx, idx2)] @ block_cost[j2]
            a = sub - np.eye(size)
            rhs = np.full(size, lbar_star) - lv[idx] - inflow
            c = _solve(a, rhs, blocks, j)
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


def state_order(blocks):
    """The states block by block: the permutation that makes the
    transition matrix block lower-triangular."""
    return tuple(i for b in blocks.blocks for i in b)


def assert_same_blocks(mat, blocks, ref):
    """Same blocks and the same absorption blocks in the same order as
    the oracle's decomposition ``ref``, and every edge between blocks
    points to an earlier one; transient blocks may come in any such
    order."""
    assert blocks.n_absorbing == ref.n_absorbing
    assert blocks.blocks[:ref.n_absorbing] == ref.blocks[:ref.n_absorbing]
    assert set(blocks.blocks) == set(ref.blocks)
    order = np.array(state_order(blocks))
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
    assert transition_matrix(f, [0.5, 0.5]) == [{0: 1.0}]


def test_transition_matrix_two_cycle():
    t0 = make_tree(2, [""], [("0", 1), ("1", 1)])
    t1 = make_tree(2, [""], [("0", 0), ("1", 0)])
    f = CodeForest((t0, t1), 2)
    assert transition_matrix(f, [0.3, 0.7]) == [{1: 1.0}, {0: 1.0}]


def test_transition_matrix_demo_row0(demo_forest):
    pa, pb, pc = 0.5, 0.3, 0.2
    chain = transition_matrix(demo_forest, [pa, pb, pc])
    # tree 0 links: symbol a -> 1, b -> 2, c -> 0
    assert chain[0] == {1: pa, 2: pb, 0: pc}
    assert all(sum(row.values()) == pytest.approx(1.0) for row in chain)
    assert chain == chain_from_matrix(dense_transition_matrix(demo_forest, [pa, pb, pc]))


def test_block_decompose_irreducible():
    blocks = block_decompose([{1: 1.0}, {0: 1.0}])
    assert blocks.blocks == ((0, 1),)
    assert blocks.n_absorbing == 1


def test_block_decompose_feeder():
    blocks = block_decompose([{0: 1.0}, {0: 1.0}])
    assert blocks.blocks == ((0,), (1,))
    assert blocks.n_absorbing == 1


def test_block_decompose_two_disjoint_cycles():
    blocks = block_decompose([{0: 1.0}, {1: 1.0}])
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
        blocks = block_decompose(chain_from_matrix(mat))
        assert sorted(state_order(blocks)) == list(range(k))
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
    assert_same_blocks(mat, block_decompose(chain_from_matrix(mat)), block_decompose_tarjan(mat))


@st.composite
def link_graphs(draw):
    """Up to 300 states, each with 1 to 5 random successors (itself
    allowed), as a chain's links draw them."""
    k = draw(st.integers(1, 300))
    rng = draw(st.randoms(use_true_random=False))
    mat = np.zeros((k, k))
    for i in range(k):
        mat[i, [rng.randrange(k) for _ in range(rng.randint(1, 5))]] = 1.0
    return mat / mat.sum(axis=1, keepdims=True)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(sparse_chains(), link_graphs()))
def test_block_decompose_matches_closure_in_order(mat):
    assert_same_blocks(mat, block_decompose(chain_from_matrix(mat)), block_decompose_closure(mat))


def test_block_decompose_deep_feeder_path():
    """A path deeper than the recursion limit: each state feeds the
    next and the last loops on itself."""
    k = 5000
    assert k > sys.getrecursionlimit()
    chain = [{s + 1: 1.0} for s in range(k - 1)] + [{k - 1: 1.0}]
    blocks = block_decompose(chain)
    assert blocks.n_absorbing == 1
    assert blocks.blocks == tuple((s,) for s in reversed(range(k)))


def test_stationary_symmetric_cycle():
    chain = [{1: 1.0}, {0: 1.0}]
    (pi,) = stationary(chain, block_decompose(chain))
    assert np.allclose(pi, [0.5, 0.5])


def test_stationary_hand_solved():
    # balance equations of [[.5,.5],[1,0]] give (2/3, 1/3)
    chain = [{0: 0.5, 1: 0.5}, {0: 1.0}]
    (pi,) = stationary(chain, block_decompose(chain))
    assert np.allclose(pi, [2 / 3, 1 / 3], atol=1e-12)


def test_stationary_singleton():
    chain = [{0: 1.0}]
    (pi,) = stationary(chain, block_decompose(chain))
    assert pi == pytest.approx([1.0])


def test_stationary_balance_random_chains():
    rng = random.Random(17)
    for _ in range(25):
        k = rng.randrange(2, 51)
        mat = random_stochastic(rng, k)
        chain = chain_from_matrix(mat)
        blocks = block_decompose(chain)
        assert blocks.n_absorbing == 1  # dense positive matrix is irreducible
        (pi,) = stationary(chain, blocks)
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
        chain = chain_from_matrix(mat)
        (pi,) = stationary(chain, block_decompose(chain))
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
    with pytest.raises(SingularChainError, match=r"^pinned system of absorbing block 0 "
                                                 r"\(first tree 0\) is singular$"):
        cost_update_simple([1.0, 2.0], mat, 1.0)


def test_cost_update_general_names_a_singular_transient_block():
    # state 2's self-loop rounds to 1, so its own system 0 * c = r is
    # exactly singular although its edge to state 0 makes it transient
    chain = [{0: 1.0}, {0: 0.5, 2: 0.5}, {0: 1e-20, 2: 1.0}]
    blocks = block_decompose(chain)
    assert blocks.blocks == ((0,), (2,), (1,))
    with pytest.raises(SingularChainError, match=r"^transient system at block 1 "
                                                 r"\(first tree 2\) is singular$"):
        cost_update_general([1.0, 2.0, 3.0], chain, blocks, stationary(chain, blocks))


def test_cost_update_general_names_a_singular_two_state_transient_block():
    """States 1 and 2 link to each other with a probability that rounds
    to 1, so their block's own system [[-1, 1], [1, -1]] is exactly
    singular although 1e-20 edges to state 0 make it transient; the
    singleton block of state 3, priced after it, is not at fault."""
    chain = [{0: 1.0}, {0: 1e-20, 2: 1.0}, {0: 1e-20, 1: 1.0}, {3: 0.5, 1: 0.5}]
    blocks = block_decompose(chain)
    assert blocks.blocks == ((0,), (1, 2), (3,))
    with pytest.raises(SingularChainError, match=r"^transient system at block 1 "
                                                 r"\(first tree 1\) is singular$"):
        cost_update_general([1.0, 2.0, 3.0, 4.0], chain, blocks, stationary(chain, blocks))


def test_cost_update_general_matches_simple_on_irreducible():
    rng = random.Random(31)
    for _ in range(20):
        k = rng.randrange(2, 10)
        mat = random_stochastic(rng, k)
        lengths = [1 + rng.random() for _ in range(k)]
        chain = chain_from_matrix(mat)
        blocks = block_decompose(chain)
        (pi,) = stationary(chain, blocks)
        lbar = expected_length(lengths, pi)
        simple = cost_update_simple(lengths, mat, lbar)
        general, lbars, j_star = cost_update_general(lengths, chain, blocks, [pi])
        assert j_star == 0
        assert lbars == pytest.approx([lbar])
        assert np.max(np.abs(general - simple)) <= 1e-12


def test_cost_update_general_disjoint_singletons():
    chain = [{0: 1.0}, {1: 1.0}]
    blocks = block_decompose(chain)
    costs, lbars, j_star = cost_update_general([1.0, 2.0], chain, blocks,
                                               stationary(chain, blocks))
    assert np.array_equal(costs, [0.0, 0.0])
    assert lbars == pytest.approx([1.0, 2.0])
    assert j_star == 1


def test_cost_update_general_feeder_chain():
    # state 1 feeds the absorbing state 0 and never self-loops:
    # its cost solves (0 - 1) c = lbar_star - L_1 - P_{1,0} * C_0
    chain = [{0: 1.0}, {0: 1.0}]
    lengths = [1.0, 2.5]
    blocks = block_decompose(chain)
    costs, lbars, j_star = cost_update_general(lengths, chain, blocks, stationary(chain, blocks))
    assert lbars == pytest.approx([1.0])
    assert j_star == 0
    assert costs[0] == 0.0
    assert costs[1] == pytest.approx(2.5 - 1.0)


def test_worst_block_invariant_rebases():
    c_old = np.array([5.0, 7.0, 9.0])
    # only the block's states are compared: state 0 moves freely
    assert worst_block_invariant(np.array([3.0, 0.0, 2.0]), c_old, [1, 2], tol=1e-14)
    assert not worst_block_invariant(np.array([5.0, 0.0, 2.1]), c_old, [1, 2], tol=1e-14)


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
    links = chain_from_matrix(mat)
    blocks = block_decompose(links)
    assert blocks.n_absorbing == n_absorbing
    pis = stationary(links, blocks)
    assert all(np.array_equal(a, b) for a, b in zip(pis, dense_stationary(mat, blocks)))
    costs, lbars, j_star = cost_update_general(lengths, links, blocks, pis)
    ref, ref_lbars, ref_j = cost_update_blockwise(lengths, mat, blocks, pis)
    assert (lbars, j_star) == (ref_lbars, ref_j)
    # only the inflow's summation order differs, so rounding scales with
    # the size of the costs it sums
    assert np.max(np.abs(costs - ref)) <= 1e-15 * max(1.0, np.max(np.abs(ref)))


def build_chains(monkeypatch, probs, cfg):
    """(forest, probs, lengths, chain, blocks, pis) of every cost update
    of one build: the forest and probabilities its chain was built from,
    and the arguments of the update."""
    import aifv.builder as builder

    made, chains = [], []

    def capture_chain(forest, p):
        made.append((forest, p))
        return transition_matrix(forest, p)

    def capture_update(lengths, chain, blocks, pis):
        chains.append(made[-1] + (lengths, chain, blocks, pis))
        return cost_update_general(lengths, chain, blocks, pis)

    monkeypatch.setattr(builder, "transition_matrix", capture_chain)
    monkeypatch.setattr(builder, "cost_update_general", capture_update)
    builder.construct(probs, cfg)
    return chains


def test_cost_update_general_matches_blockwise_on_build_chains(monkeypatch):
    from aifv.builder import BuildConfig

    chains = build_chains(monkeypatch, (0.9, 0.1), BuildConfig(n=4))
    assert len(chains) > 1
    assert any(len(blocks.blocks) > 1 for *_, blocks, _ in chains)
    for forest, probs, lengths, chain, blocks, pis in chains:
        mat = dense_transition_matrix(forest, probs)
        assert chain == chain_from_matrix(mat)
        assert_same_blocks(mat, blocks, block_decompose_tarjan(mat))
        assert_same_blocks(mat, blocks, block_decompose_closure(mat))
        costs = cost_update_general(lengths, chain, blocks, pis)[0]
        ref = cost_update_blockwise(lengths, mat, blocks, pis)[0]
        assert np.max(np.abs(costs - ref)) <= 1e-15


@st.composite
def link_forests(draw):
    """Up to 40 trees over 2 to 5 symbols, each tree linking to trees at
    most ``spread`` indices away (0 gives all self-loops), with symbol
    probabilities from integer weights and a length per tree."""
    m = draw(st.integers(2, 5))
    k = draw(st.integers(1, 40))
    spread = draw(st.integers(0, k))
    trees = []
    for i in range(k):
        links = draw(st.lists(st.integers(max(0, i - spread), min(k - 1, i + spread)),
                              min_size=m, max_size=m))
        trees.append(make_tree(1, [""], [("", link) for link in links]))
    weights = draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
    probs = [w / sum(weights) for w in weights]
    lengths = draw(st.lists(st.floats(0.0, 3.0), min_size=k, max_size=k))
    return CodeForest(tuple(trees), 1), probs, lengths


@settings(max_examples=200, deadline=None, derandomize=True)
@given(link_forests())
def test_link_chain_matches_the_dense_chain(case):
    """The chain built from the links gives the dense oracle's blocks,
    bit-identical stationary distributions, and costs equal to the
    dense blockwise update up to the inflow's summation order."""
    forest, probs, lengths = case
    mat = dense_transition_matrix(forest, probs)
    chain = transition_matrix(forest, probs)
    assert chain == chain_from_matrix(mat)
    blocks = block_decompose(chain)
    assert_same_blocks(mat, blocks, block_decompose_closure(mat))
    pis = stationary(chain, blocks)
    ref_pis = dense_stationary(mat, blocks)
    assert len(pis) == len(ref_pis) == blocks.n_absorbing
    assert all(np.array_equal(a, b) for a, b in zip(pis, ref_pis))
    costs, lbars, j_star = cost_update_general(lengths, chain, blocks, pis)
    ref, ref_lbars, ref_j = cost_update_blockwise(lengths, mat, blocks, pis)
    assert (lbars, j_star) == (ref_lbars, ref_j)
    assert np.all(np.abs(costs - ref) <= 1e-15 * np.maximum(1.0, np.abs(ref)))


def test_markov_layer_allocates_no_dense_chain(monkeypatch):
    """The four Markov calls on the first chain of the p0=0.9, N=5 build
    (K=256) allocate less than a quarter of one dense K x K matrix."""
    from aifv.builder import BuildConfig

    forest, probs, lengths, *_ = build_chains(monkeypatch, (0.9, 0.1),
                                              BuildConfig(n=5, max_iterations=1))[0]
    k = len(forest.trees)
    assert k == 256
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        chain = transition_matrix(forest, probs)
        blocks = block_decompose(chain)
        cost_update_general(lengths, chain, blocks, stationary(chain, blocks))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < k * k * 8 // 4
