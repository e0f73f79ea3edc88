import gc
import heapq
import itertools
import logging
import math
import random
import re
import tracemalloc
from functools import cache, partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aifv.bitstrings import (
    BitString,
    EMPTY,
    append_all,
    comparable,
    is_prefix,
    reduced,
)
from aifv.modes import (
    ContinuousModeId,
    basic_family,
    enumerate_continuous_ids,
    mode_from_id,
)
import aifv.builder
from aifv.builder import BuildConfig, construct, default_depth, mode_family
from aifv.optimizer import (
    BOUND_SLACK,
    ModelError,
    PieceTable,
    ResourceLimitError,
    SearchTable,
    TreeSolution,
    aifvm_link_ids,
    build_ilp,
    check_assignment,
    decode_solution,
    initial_costs,
    link_prices,
    piece_table,
    solve_ilp,
)
from aifv.splits import brute_force_binary, full_split_table, interval_split_table
from aifv.sources import sources_polynomial
from oracles import (
    allowed_links,
    assignment_from_pieces,
    brute_force_partition,
    common_prefix,
    expand_to_length,
    flip_id,
    id_costs,
    id_interval,
    id_of_mode,
    interval_of,
    merge_intervals,
    mode_rows,
    model_rows,
    partition_table,
    reference_check,
    reference_variables,
    solution_assignment,
    strip_prefix_all,
    tree_from_assignment,
    trie_reduced,
)

B = BitString.from_text


def family_links(n, aifvm):
    return aifvm_link_ids(n) if aifvm else enumerate_continuous_ids(n)


def full_table(n):
    """The full basic family's split table of every mode."""
    return full_split_table(n, tuple(range(len(basic_family(n)[0]))))


def interval_table(n, d_max, links):
    """The split table of every mode of the interval family ``links``."""
    return interval_split_table(n, d_max, tuple(links), tuple(range(len(links))))


def search_table(n, d_max, links, probs):
    """The search table of one build over ``links``, its pieces read
    from the process's piece table."""
    return SearchTable(piece_table(n, d_max, tuple(links)), probs)


def priced(table, costs):
    """Prices for ``table`` from a cost per link id."""
    return link_prices(table, [costs[cid] for cid in table.links])


def tree_model(n, mode_id, probs, costs, d_max, aifvm=False):
    """One tree's model, priced for it alone."""
    return build_ilp(mode_id, priced(search_table(n, d_max, family_links(n, aifvm), probs), costs))


def link_ids(model, solution):
    """A solved tree's links as mode ids."""
    return tuple(model.prices.table.links[idx] for idx in solution.links)


@pytest.mark.parametrize("n", range(1, 9))
def test_initial_costs_of_continuous_modes(n):
    """Mode ``(k1, k2)`` covers ``2^n - k1 - k2`` of the length-n strings,
    so its starting cost is ``n - log2`` of that count, bit for bit."""
    ids = enumerate_continuous_ids(n)
    costs = initial_costs([mode_from_id(n, cid) for cid in ids])
    assert costs == [n - math.log2((1 << n) - k1 - k2) for k1, k2 in ids]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_initial_costs_of_basic_modes(n):
    """A basic mode's starting cost is ``n - log2`` of its leaf count."""
    modes = basic_family(n)[0]
    assert initial_costs(modes) == [n - math.log2(len(expand_to_length(m.words, n)))
                                    for m in modes]


def test_initial_costs_examples():
    assert initial_costs([mode_from_id(1, ContinuousModeId(0, 0))]) == pytest.approx([0.0])
    modes = [mode_from_id(2, ContinuousModeId(k1, k2)) for k1, k2 in ((0, 0), (1, 1), (1, 0))]
    assert initial_costs(modes) == pytest.approx([0.0, 1.0, 2 - math.log2(3)])


def _count(variables, kind):
    return sum(1 for name in variables if name[0] == kind)


def test_variable_counts_n2_m2_d4():
    variables = reference_variables(2, 2, 4)
    assert _count(variables, "t") == 10  # 2 symbols x depths 0..4
    assert _count(variables, "u") == 8  # 2 symbols x 4 link modes
    assert _count(variables, "v") == 2
    assert _count(variables, "vL") == 2
    assert _count(variables, "vR") == 2
    assert _count(variables, "w") == 8 and _count(variables, "wb") == 8
    # margin carriers span the same depth range as the depth selectors
    assert _count(variables, "k") == 2 * 2 * 5


def test_aifvm_flag_adds_m_rows():
    probs = (0.4, 0.3, 0.2, 0.1)
    base = model_rows(tree_model(3, ContinuousModeId(0, 0), probs, id_costs(3), 6))
    restr = model_rows(tree_model(3, ContinuousModeId(0, 0), probs, id_costs(3), 6,
                                  aifvm=True))
    extra = [r for r in restr if r.tag.startswith("allowed")]
    assert len(restr) - len(base) == 4
    assert len(extra) == 4
    assert aifvm_link_ids(3) == [ContinuousModeId(0, 0), ContinuousModeId(1, 0),
                                 ContinuousModeId(2, 0)]


def test_mode_00_boundary_rows():
    model = tree_model(2, ContinuousModeId(0, 0), (0.5, 0.5), id_costs(2), 4)
    for tag in ("left[0]", "right[0]"):
        (row,) = [r for r in model_rows(model) if r.tag == tag]
        assert row.rhs == row.scale  # unscaled right-hand side is exactly 1


def test_solve_n1_full_tree():
    model = tree_model(1, ContinuousModeId(0, 0), (0.5, 0.5), id_costs(1), 4)
    sol = solve_ilp(model)
    assert {cw.text for cw in sol.codewords} == {"0", "1"}
    assert sol.links == (0, 0)
    assert link_ids(model, sol) == (ContinuousModeId(0, 0), ContinuousModeId(0, 0))
    assert sol.objective == pytest.approx(1.0)


def test_solver_output_satisfies_model_exactly():
    model = tree_model(3, ContinuousModeId(2, 1), (0.5, 0.3, 0.2), id_costs(3), 8)
    sol = solve_ilp(model)
    assert check_assignment(model, sol) == []
    assert reference_check(model, solution_assignment(model, sol)) == []


def _standalone_tree_ok(n, own_mode, codewords, ids):
    """Rule-1 + fullness check for a single tree, built from string
    primitives only (independent of the tiling search)."""
    occurrences = []
    for cw, cid in zip(codewords, ids):
        linked = mode_from_id(n, cid)
        for w in append_all(cw, linked.words):
            occurrences.append(w)
    for i, w1 in enumerate(occurrences):
        for w2 in occurrences[i + 1:]:
            if comparable(w1, w2):
                return False
    own = mode_from_id(n, own_mode)
    for w in occurrences:
        if not any(is_prefix(q, w) for q in own.words):
            return False
    return reduced(frozenset(occurrences)) == own.words


def test_exhaustive_oracle_n2():
    """Enumerate every full decodable tree directly and compare optima."""
    n, d_small = 2, 3
    costs = id_costs(n)
    ids = enumerate_continuous_ids(n)
    all_cw = [BitString(ln, v) for ln in range(d_small + 1) for v in range(1 << ln)]
    choices = [(cw, cid) for cw in all_cw for cid in ids]
    rng = random.Random(2)
    dists = [(0.5, 0.5), (0.9, 0.1), (0.7, 0.3)]
    dists += [(p, 1 - p) for p in (rng.uniform(0.51, 0.99) for _ in range(3))]
    for mode_id in ids:
        for probs in dists:
            best = math.inf
            for (cw0, l0), (cw1, l1) in itertools.product(choices, choices):
                if not _standalone_tree_ok(n, mode_id, (cw0, cw1), (l0, l1)):
                    continue
                value = (probs[0] * (cw0.length + costs[l0])
                         + probs[1] * (cw1.length + costs[l1]))
                best = min(best, value)
            sol = solve_ilp(tree_model(n, mode_id, probs, costs, d_small))
            assert sol.objective == pytest.approx(best, abs=1e-12), (mode_id, probs)


def test_model_feasible_set_is_exactly_the_valid_trees():
    """Bidirectional model check at delay 2, depth 2, two symbols, with
    every link allowed and with the AIFV-m links only.

    Every (codeword, link) pair that forms a valid full tree of allowed
    links must admit a feasible assignment under some chain order, and
    every other pair must violate at least one row under every order.
    Under each order, the tiling check passes exactly when every row
    holds.  Codewords one bit deeper than the bound are tried too.
    """
    n, d_small = 2, 2
    costs = id_costs(n)
    ids = enumerate_continuous_ids(n)
    all_cw = [BitString(ln, v) for ln in range(d_small + 2) for v in range(1 << ln)]
    choices = [(cw, cid) for cw in all_cw for cid in ids]
    for aifvm in (False, True):
        allowed = set(family_links(n, aifvm))
        for mode_id in ids:
            model = tree_model(n, mode_id, (0.6, 0.4), costs, d_small, aifvm)
            links = model.prices.table.links
            # a link outside the family has no index: give it one past the end
            index = {cid: links.index(cid) if cid in links else len(links) for cid in ids}
            for (cw0, l0), (cw1, l1) in itertools.product(choices, choices):
                case = (aifvm, mode_id, cw0.text, l0, cw1.text, l1)
                valid = (max(cw0.length, cw1.length) <= d_small and {l0, l1} <= allowed
                         and _standalone_tree_ok(n, mode_id, (cw0, cw1), (l0, l1)))
                pieces = [(cw0.length, cw0.value, l0.k1, l0.k2),
                          (cw1.length, cw1.value, l1.k1, l1.k2)]
                feasible = False
                for order in ((0, 1), (1, 0)):
                    in_model = not reference_check(model, assignment_from_pieces(pieces, order))
                    tiles = not check_assignment(
                        model, TreeSolution((cw0, cw1), (index[l0], index[l1]), 0.0, order))
                    assert tiles == in_model, (case, order)
                    feasible |= in_model
                assert feasible == valid, case


def test_check_assignment_names_mode_symbol_and_position():
    """Each fault of a tiling is named with the tree's mode and the
    symbol and position of the piece where it shows."""
    mode_id = ContinuousModeId(1, 0)  # [4, 16) in units of 2^-(d_max + n)
    aifvm = tree_model(2, mode_id, (0.6, 0.4), id_costs(2), 2, aifvm=True)
    every = tree_model(2, mode_id, (0.6, 0.4), id_costs(2), 2)
    c00, c01, c10 = ContinuousModeId(0, 0), ContinuousModeId(0, 1), ContinuousModeId(1, 0)

    def faults(model, cw0, l0, cw1, l1, order=(0, 1)):
        links = model.prices.table.links
        index = [links.index(c) if c in links else len(links) for c in (l0, l1)]
        return check_assignment(model, TreeSolution((B(cw0), B(cw1)), tuple(index), 0.0, order))

    # "01" is [4, 8) and "1" is [8, 16)
    assert faults(aifvm, "01", c00, "1", c00) == []
    assert faults(aifvm, "01", c00, "1", c00, order=(0, 0)) == [
        "mode (1, 0): order (0, 0) is not a permutation of 2 symbols"]
    assert faults(aifvm, "01", c00, "100", c00) == [
        "mode (1, 0), symbol 1 at position 1: codeword 100 is no cell of depth at most 2"]
    assert faults(aifvm, "01", c01, "1", c00) == [
        "mode (1, 0), symbol 0 at position 0: link index 2 out of range for 2 links"]
    assert check_assignment(aifvm, TreeSolution((B("01"), B("1")), (0, -1), 0.0, (0, 1))) == [
        "mode (1, 0), symbol 1 at position 1: link index -1 out of range for 2 links"]
    assert faults(aifvm, "01", c00, "1", c10) == [
        "mode (1, 0), symbol 1 at position 1: piece starts at 10, previous piece ends at 8"]
    assert faults(every, "01", c00, "1", c01) == [
        "mode (1, 0): last piece ends at 14, the tree's interval at 16"]
    assert faults(every, "01", c00, "1", c00, order=(1, 0)) == [
        "mode (1, 0), symbol 1 at position 0: piece starts at 8, previous piece ends at 4",
        "mode (1, 0), symbol 0 at position 1: piece starts at 4, previous piece ends at 16",
        "mode (1, 0): last piece ends at 8, the tree's interval at 16"]


def test_decoded_tree_tiles_its_interval():
    rng = random.Random(8)
    for n in (2, 3):
        costs = id_costs(n)
        for _ in range(6):
            ids = enumerate_continuous_ids(n)
            mode_id = rng.choice(ids)
            m = rng.randrange(2, 5)
            raw = [rng.uniform(0.05, 1.0) for _ in range(m)]
            probs = tuple(x / sum(raw) for x in raw)
            model = tree_model(n, mode_id, probs, costs, 3 + n)
            sol = solve_ilp(model)
            tree = decode_solution(sol, mode_from_id(n, mode_id))
            assert tree == tree_from_assignment(model, solution_assignment(model, sol))
            assert _standalone_tree_ok(n, mode_id, tree.codewords, link_ids(model, sol))
            pieces = []
            for cw, cid in zip(tree.codewords, link_ids(model, sol)):
                linked = mode_from_id(n, cid)
                pieces.extend(interval_of(w) for w in append_all(cw, linked.words))
            assert merge_intervals(pieces) == (id_interval(n, mode_id),)


def test_decode_solution_links_canonical():
    mode_id = ContinuousModeId(0, 0)
    model = tree_model(2, mode_id, (0.9, 0.1), id_costs(2), 5)
    sol = solve_ilp(model)
    tree = decode_solution(sol, mode_from_id(2, mode_id))
    assert tree.mode == mode_from_id(2, mode_id)
    assert tree.links == sol.links
    for link, cid in zip(tree.links, link_ids(model, sol)):
        assert link == cid.k1 * 2 + cid.k2


def test_binary_expansions_bounded_by_delay():
    rng = random.Random(12)
    for n in (2, 3):
        costs = id_costs(n)
        for _ in range(8):
            p0 = rng.uniform(0.5, 0.99)
            mode_id = rng.choice(enumerate_continuous_ids(n))
            model = tree_model(n, mode_id, (p0, 1 - p0), costs, 3 + n)
            sol = solve_ilp(model)
            for cw, cid in zip(sol.codewords, link_ids(model, sol)):
                linked = mode_from_id(n, cid)
                assert all(cw.length + w.length <= n for w in linked.words)


def full_rows(n, index):
    """Basic mode ``index``'s rows of the full split table, each as
    (codeword, link) for symbol 0 and then symbol 1."""
    table = full_table(n)
    return [(BitString(int(table.depth_a[s]), int(table.value_a[s])), int(table.link_a[s]),
             BitString(int(table.depth_b[s]), int(table.value_b[s])), int(table.link_b[s]))
            for s in range(table.starts[index], table.starts[index + 1])]


def test_partition_count_and_worked_example():
    modes, index_of = basic_family(3)
    table = full_rows(3, index_of[frozenset({B("001"), B("01"), B("1")})])
    assert len(table) == 126
    # leaves sorted by value: 001,010,011,100,101,110,111; W = {001,010} is mask 3
    head0, link0, head1, link1 = table[3 - 1]
    assert head0.length == 1 and {w.text for w in modes[link0].words} == {"01", "10"}
    assert head1.length == 0 and {w.text for w in modes[link1].words} == {"011", "1"}


def test_partition_trivial_n1():
    (only,), _ = basic_family(1)
    assert only.words == frozenset({EMPTY})
    table = full_rows(1, 0)
    assert len(table) == 2
    for head0, link0, head1, link1 in table:
        assert head0.length == 1 and head1.length == 1
        assert link0 == link1 == 0


def test_full_split_table_lists_the_partitions_of_every_mode():
    """Read off leaf bit masks, each mode's rows are its leaf-set
    partitions as the word-set algebra lists them, in mask order."""
    for n in (1, 2, 3):
        for index in range(len(basic_family(n)[0])):
            assert full_rows(n, index) == list(partition_table(n, index)), (n, index)


def test_brute_force_matches_ilp_on_continuous_links():
    rng = random.Random(42)
    for n in (2, 3):
        cont_costs = id_costs(n)
        family, index_of = basic_family(n)
        costs = [math.inf if id_of_mode(m) is None else cont_costs[id_of_mode(m)]
                 for m in family]
        for _ in range(20):
            p0 = rng.uniform(0.51, 0.99)
            probs = (p0, 1 - p0)
            _, bf_obj = brute_force_binary(full_table(n), probs, costs)
            for cid in enumerate_continuous_ids(n):
                index = index_of[mode_from_id(n, cid).words]
                sol = solve_ilp(tree_model(n, cid, probs, cont_costs, 3 + n))
                assert bf_obj[index] == pytest.approx(sol.objective, abs=1e-12), (n, cid, p0)


def test_brute_force_guards():
    with pytest.raises(ValueError, match="binary alphabet"):
        brute_force_binary(full_table(1), (0.3, 0.3, 0.4), [0.0])
    with pytest.raises(ValueError, match="delays 1..3"):
        full_split_table(4, (0,))


@pytest.mark.parametrize("n, index", [(1, 1), (2, 9), (3, 225), (2, -1)])
def test_brute_force_rejects_an_index_outside_the_family(n, index):
    """The per-mode partition loop, kept as the full family's oracle,
    names a mode index outside the family."""
    size = len(basic_family(n)[0])
    with pytest.raises(ValueError, match=f"^no basic mode {index} for delay {n}: "
                                         f"the family has {size}$"):
        brute_force_partition(n, index, (0.5, 0.5), [0.0] * size)


def _recomputed_partitions(n, mode):
    """Every (codewords, linked words) split of the mode's leaves in mask
    order, each part re-derived from its leaves by the trie reduction."""
    leaves = sorted(expand_to_length(mode.words, n), key=lambda w: w.value)
    out = []
    for mask in range(1, (1 << len(leaves)) - 1):
        parts = (frozenset(w for i, w in enumerate(leaves) if mask >> i & 1),
                 frozenset(w for i, w in enumerate(leaves) if not mask >> i & 1))
        heads = tuple(common_prefix(part) for part in parts)
        out.append((heads, tuple(trie_reduced(strip_prefix_all(h, part))
                                 for h, part in zip(heads, parts))))
    return out


def test_brute_force_returns_first_minimal_partition():
    # costs from a few values make ties common, so the mask order shows
    rng = random.Random(9)
    for n in (1, 2, 3):
        family, index_of = basic_family(n)
        partitions = [_recomputed_partitions(n, m) for m in family]
        for _ in range(3):
            costs = [rng.choice((0.0, 0.5, 1.0, 1.5)) for _ in family]
            p0 = rng.choice((0.5, 0.75, rng.uniform(0.51, 0.99)))
            table = full_table(n)
            choice, objective = brute_force_binary(table, (p0, 1 - p0), costs)
            for index, mode in enumerate(family):
                best = None
                for heads, linked in partitions[index]:
                    links = tuple(index_of[w] for w in linked)
                    value = (p0 * (heads[0].length + costs[links[0]])
                             + (1 - p0) * (heads[1].length + costs[links[1]]))
                    if best is None or value < best[0]:
                        best = (value, heads, links)
                tree = table.tree(int(choice[index]), mode)
                assert objective[index] == best[0]
                assert tree.codewords == best[1]
                assert tree.links == best[2]
                assert tree.mode == mode


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 3), p0=st.sampled_from([0.5, 0.75, 0.9]) | st.floats(0.5, 0.99),
       pool=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5]) | st.floats(0.0, 3.0),
                     min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 16))
def test_full_family_split_minimum_matches_the_partition_loop(n, p0, pool, seed):
    """Every mode's tree and cost from the full family's split table, all
    modes at once, are the per-mode partition loop's, bit for bit."""
    family = basic_family(n)[0]
    rng = random.Random(seed)
    costs = [rng.choice(pool) for _ in family]
    probs = (p0, 1 - p0)
    table = full_table(n)
    choice, objective = brute_force_binary(table, probs, costs)
    for index, mode in enumerate(family):
        tree, obj = brute_force_partition(n, index, probs, costs)
        assert table.tree(int(choice[index]), mode) == tree
        assert objective[index] == obj


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 5), aifvm=st.booleans(),
       p0=st.sampled_from([0.5, 0.75, 0.9]) | st.floats(0.5, 0.99),
       pool=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5]), min_size=1, max_size=4),
       on_start=st.booleans(), extra_depth=st.sampled_from([None, -1, 0, 1, 40]),
       cutoffs=st.none() | st.lists(st.sampled_from([math.inf, 0.5, 1.0, 2.0])
                                    | st.floats(0.0, 4.0), min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 16))
def test_split_minimum_is_the_tree_search(n, aifvm, p0, pool, on_start, extra_depth, cutoffs,
                                          seed):
    """Over an interval family's split table, every mode's tree, links and
    symbol-order cost are the tree search's bit for bit, cold or below a
    cutoff: costs drawn from a few values make ties common, and the
    choice among tied trees follows the search's.  A mode has no tree
    below its cutoff exactly when the search returns None, and a depth
    bound some mode cannot meet raises the search's error.  A depth
    bound far above ``2n`` gives the same trees as the search's."""
    if aifvm and n == 1:
        n = 2
    probs = (p0, 1 - p0)
    links = family_links(n, aifvm)
    d_max = default_depth(2, n) if extra_depth is None else max(1, n + extra_depth)
    rng = random.Random(seed)
    id_cost = id_costs(n)
    costs = [rng.choice(pool) + (id_cost[cid] if on_start else 0.0) for cid in links]
    below = None if cutoffs is None else [rng.choice(cutoffs) for _ in links]
    table = interval_table(n, d_max, links)
    prices = link_prices(search_table(n, d_max, links, probs), costs)
    try:
        choice, objective = brute_force_binary(table, probs, costs, below)
    except ValueError as e:
        assert below is None
        with pytest.raises(ValueError, match=f"^{re.escape(str(e))}$"):
            for cid in links:
                solve_ilp(build_ilp(cid, prices))
        return
    for i, cid in enumerate(links):
        sol = solve_ilp(build_ilp(cid, prices), below=None if below is None else below[i])
        if sol is None:
            assert choice[i] == -1, cid
            continue
        tree = table.tree(int(choice[i]), mode_from_id(n, cid))
        assert (tree.codewords, tree.links) == (sol.codewords, sol.links), cid
        assert objective[i] == sol.objective, cid


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 5), family=st.sampled_from(["continuous", "aifvm", "full-binary"]),
       p0=st.sampled_from([0.5, 0.75, 0.9]) | st.floats(0.5, 0.99),
       pool=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5]) | st.floats(0.0, 3.0),
                     min_size=1, max_size=4),
       extra_depth=st.sampled_from([None, -1, 0, 1]),
       cutoffs=st.none() | st.lists(st.sampled_from([math.inf, 0.5, 1.0, 2.0])
                                    | st.floats(0.0, 4.0), min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 16))
def test_split_minimum_over_the_solved_modes_is_the_whole_tables(n, family, p0, pool,
                                                                   extra_depth, cutoffs, seed):
    """The split table of the modes a build with mirror reuse solves (one
    of each mirror pair), built directly, is the whole table's rows of
    those modes; over it every mode's choice, read as a row of the
    family's whole table, and its cost are the whole table's, bit for
    bit, cold or below a cutoff, ties included; a depth bound some mode
    cannot meet raises the whole table's error."""
    if family == "full-binary":
        n = min(n, 3)
    elif family == "aifvm":
        n = max(n, 2)
    fam = mode_family(family, n)
    if family == "full-binary":
        whole, solved = full_table(n), full_split_table(n, fam.solved)
    else:
        d_max = default_depth(2, n) if extra_depth is None else max(1, n + extra_depth)
        whole = interval_table(n, d_max, fam.ids)
        solved = interval_split_table(n, d_max, fam.ids, fam.solved)
    assert_same_split_table(solved, mode_rows(whole, fam.solved))
    assert solved.modes == fam.solved
    rng = random.Random(seed)
    costs = [rng.choice(pool) for _ in fam.modes]
    below = None if cutoffs is None else [rng.choice(cutoffs) for _ in fam.modes]
    probs = (p0, 1 - p0)
    try:
        choice, objective = brute_force_binary(whole, probs, costs, below)
    except ValueError as e:
        with pytest.raises(ValueError, match=f"^{re.escape(str(e))}$"):
            brute_force_binary(solved, probs, costs, below)
        return
    solved_choice, solved_objective = brute_force_binary(
        solved, probs, costs, None if below is None else [below[i] for i in fam.solved])
    for j, i in enumerate(fam.solved):
        assert solved_objective[j] == objective[i]
        c = int(solved_choice[j])
        if c < 0:
            assert choice[i] == -1
            continue
        row = whole.starts[i] + c % len(solved) - solved.starts[j]
        assert row + (c >= len(solved)) * len(whole) == choice[i]


def assert_same_split_table(table, other):
    """The two tables list the same splits of the same modes, column by
    column, types included."""
    for field in ("depth_a", "link_a", "value_a", "depth_b", "link_b", "value_b", "starts"):
        a, b = getattr(table, field), getattr(other, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    assert (table.modes, table.ids, table.n, table.d_max) == (other.modes, other.ids, other.n,
                                                              other.d_max)


@pytest.mark.parametrize("family, delays", [("continuous", range(1, 7)), ("aifvm", range(2, 5)),
                                            ("full-binary", range(1, 4))])
def test_solved_mode_split_tables_are_the_whole_tables_rows(family, delays):
    """At the default depth bound, the split table of the modes a build
    with mirror reuse solves, built directly, is the gather of those
    modes' rows from the table of every mode, column by column."""
    for n in delays:
        fam = mode_family(family, n)
        if family == "full-binary":
            whole, solved = full_table(n), full_split_table(n, fam.solved)
        else:
            whole = interval_table(n, default_depth(2, n), fam.ids)
            solved = interval_split_table(n, default_depth(2, n), fam.ids, fam.solved)
        assert_same_split_table(solved, mode_rows(whole, fam.solved))


def test_a_second_full_binary_build_builds_no_partition_table():
    """The full family's partitions are listed once per process, delay
    and modes, into the split table of the modes a build solves: a build
    after the first at the same delay finds the table."""
    aifv.builder.check_g_optimality_binary((0.75, 0.25), 3)
    info = full_split_table.cache_info()
    aifv.builder.check_g_optimality_binary((0.9, 0.1), 3)
    assert full_split_table.cache_info().misses == info.misses
    assert full_split_table.cache_info().hits == info.hits + 1
    solved = mode_family("full-binary", 3).solved
    assert full_split_table(3, solved) is full_split_table(3, solved)


def test_a_second_binary_build_builds_no_split_table():
    """An interval family's split table is built once per process and
    (delay, depth bound, links, modes): later builds at the same delay
    and depth, from other sources, find it."""
    construct((0.75, 0.25), BuildConfig(n=4))
    info = interval_split_table.cache_info()
    construct((0.9, 0.1), BuildConfig(n=4))
    construct((0.6, 0.4), BuildConfig(n=4, max_depth=default_depth(2, 4)))
    assert interval_split_table.cache_info().misses == info.misses
    assert interval_split_table.cache_info().hits == info.hits + 2
    fam = mode_family("continuous", 4)
    table = interval_split_table(4, default_depth(2, 4), fam.ids, fam.solved)
    assert table is interval_split_table(4, default_depth(2, 4), fam.ids, fam.solved)


def test_a_second_search_build_fills_no_piece_list():
    """The pieces of a build over three or more symbols come from one
    piece table per process and (delay, depth bound, links): a second
    build of the same source finds every piece list it reads already
    there, and a build of another source adds to the same lists."""
    probs = sources_polynomial(5)[2]
    construct(probs, BuildConfig(n=2))
    info = piece_table.cache_info()
    table = piece_table(2, default_depth(5, 2), tuple(enumerate_continuous_ids(2)))
    filled = dict(table.piece_lists)
    construct(probs, BuildConfig(n=2, max_depth=default_depth(5, 2)))
    assert filled and table.piece_lists == filled
    assert all(table.piece_lists[key] is lists for key, lists in filled.items())
    construct(sources_polynomial(5)[0], BuildConfig(n=2))
    assert table.piece_lists.keys() >= filled.keys()
    assert piece_table.cache_info().misses == info.misses
    assert piece_table.cache_info().hits == info.hits + 3


def test_six_quinary_builds_keep_only_their_piece_tables():
    """The simulation's six builds (P0-P2 at N=2 and 3), from an empty
    piece store, leave under 4 MB allocated: the two piece tables and no
    iteration's cost orders (measured: 1.3 MB in 583 and 2052 lists; the
    orders of every iteration, kept, would add 9 MB)."""
    fresh = cache(piece_table.__wrapped__)
    tracing = tracemalloc.is_tracing()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(aifv.builder, "piece_table", fresh)
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for n in (2, 3):
                for probs in sources_polynomial(5):
                    construct(probs, BuildConfig(n=n))
            gc.collect()  # free lists hold what the builds let go
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            if not tracing:
                tracemalloc.stop()
    assert fresh.cache_info().currsize == 2
    assert kept < 4_000_000


def test_split_table_memory_at_delay_6():
    """A fresh N=6 continuous build leaves one split table, of the modes
    it solves (one of each mirror pair); built alone that table keeps
    under 0.3 MB and its build peaks under 1.3 MB (measured: 0.25 MB
    kept, 1.16 MB peak; the table of every mode plus a gathered copy of
    the solved modes' rows kept 0.58 MB).  From N=6 to N=8 the table
    grows 64-fold (8x the splits per bit) and the build's per-margin
    temporaries 16-fold, so these bounds hold the N=8 build under
    64 * 0.3 + 16 * 1.3 = 40 MB (measured at N=8: 10.8 MB kept, 22 MB
    peak)."""
    fam = mode_family("continuous", 6)
    fresh = cache(interval_split_table.__wrapped__)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(aifv.builder, "interval_split_table", fresh)
        construct((0.9, 0.1), BuildConfig(n=6))
    assert fresh.cache_info().currsize == 1
    assert fresh(6, default_depth(2, 6), fam.ids, fam.solved).modes == fam.solved
    assert fresh.cache_info().currsize == 1
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        table = interval_split_table.__wrapped__(6, default_depth(2, 6), fam.ids, fam.solved)
        kept, peak = (size - base for size in tracemalloc.get_traced_memory())
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(table) == 16896
    assert kept < 300_000
    assert peak < 1_300_000


def test_symmetric_modes_equal_objectives():
    rng = random.Random(77)
    for n in (2, 3):
        base = id_costs(n)
        # perturb costs but keep the mirror symmetry C[(a,b)] == C[(b,a)]
        sym_costs = dict(base)
        for cid in list(sym_costs):
            bump = rng.uniform(0, 0.2)
            sym_costs[cid] = base[cid] + bump
            sym_costs[flip_id(cid)] = sym_costs[cid]
        for cid in enumerate_continuous_ids(n):
            probs = (0.8, 0.2)
            a = solve_ilp(tree_model(n, cid, probs, sym_costs, 3 + n))
            b = solve_ilp(tree_model(n, flip_id(cid), probs, sym_costs, 3 + n))
            assert a.objective == pytest.approx(b.objective, abs=1e-12)


def test_objective_recompute_consistency():
    model = tree_model(3, ContinuousModeId(1, 2), (0.4, 0.3, 0.2, 0.1), id_costs(3), 9)
    sol = solve_ilp(model)
    probs, costs = model.prices.table.probs, id_costs(3)
    recomputed = sum(probs[s] * (sol.codewords[s].length + costs[cid])
                     for s, cid in enumerate(link_ids(model, sol)))
    assert recomputed == pytest.approx(sol.objective, abs=1e-12)


def _sweep_node_budget(model, below):
    """Raise the budget one node at a time until the solve succeeds; each
    shortfall must name its budget and mode.  Returns the budget that
    sufficed."""
    for budget in itertools.count(1):
        try:
            assert solve_ilp(model, node_budget=budget, below=below) is not None
            return budget
        except ResourceLimitError as e:
            assert str(e) == f"node budget {budget} exhausted for mode (1, 0)"


def test_node_budget_enforced():
    """Raising the budget one node at a time, a solve runs out, naming
    its budget and mode, until the budget covers the search."""
    model = tree_model(3, ContinuousModeId(0, 0), (0.2,) * 5, id_costs(3), 12)
    with pytest.raises(ResourceLimitError, match=r"^node budget 3 exhausted for mode \(0, 0\)$"):
        solve_ilp(model, node_budget=3)
    model = tree_model(2, ContinuousModeId(1, 0), (0.5, 0.3, 0.2), id_costs(2), 4)
    assert _sweep_node_budget(model, below=None) > 1


def test_warm_solve_budget_runs_out_in_the_proof():
    """A solve given a cutoff spends its budget in the same single
    best-first search as a cold one, and runs out the same way."""
    model = tree_model(2, ContinuousModeId(1, 0), (0.5, 0.3, 0.2), id_costs(2), 4)
    below = solve_ilp(model).objective + 1.0
    assert _sweep_node_budget(model, below=below) > 1


def test_depth_bound_without_a_tree_is_a_value_error():
    # mode (0, 1) of delay 2 keeps [0, 3/4), which no two pieces of depth
    # at most 1 tile
    model = tree_model(2, ContinuousModeId(0, 1), (0.9, 0.1), id_costs(2), 1)
    with pytest.raises(ValueError, match=r"^no tree of mode \(0, 1\) fits depth bound 1$"):
        solve_ilp(model)
    assert solve_ilp(model, below=100.0) is None


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 3),
    aifvm=st.booleans(),
    weights=st.lists(st.integers(1, 20), min_size=1, max_size=3),
    extra_depth=st.integers(0, 2),
    bumps=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4),
)
def test_solver_output_satisfies_reference_model(n, aifvm, weights, extra_depth, bumps):
    """Every solve of every family mode, its pieces made into a model
    assignment, satisfies every bound and row of the row-by-row model,
    and reads back as the tree :func:`decode_solution` returns."""
    probs = tuple(w / sum(weights) for w in weights)
    costs = {cid: c0 + bumps[i % len(bumps)]
             for i, (cid, c0) in enumerate(id_costs(n).items())}
    links = family_links(n, aifvm)
    prices = priced(search_table(n, n + 2 + extra_depth, links, probs), costs)
    for cid in links:
        model = build_ilp(cid, prices)
        sol = solve_ilp(model)
        assert check_assignment(model, sol) == []
        assignment = solution_assignment(model, sol)
        assert reference_check(model, assignment) == [], cid
        tree = decode_solution(sol, mode_from_id(n, cid))
        assert tree == tree_from_assignment(model, assignment), cid


def test_build_ilp_guards():
    """The tables check the problem's shape once, the prices their
    length, and each tree model its mode."""
    links = tuple(enumerate_continuous_ids(2))
    with pytest.raises(ValueError, match="one probability per symbol"):
        SearchTable(piece_table(2, 4, links), ())
    with pytest.raises(ValueError, match="depth bound"):
        piece_table(2, 0, links)
    table = SearchTable(piece_table(2, 4, links), (1.0,))
    for count in (3, 5):
        with pytest.raises(ValueError, match=f"^{count} costs given for 4 links$"):
            link_prices(table, [0.0] * count)
    prices = link_prices(table, [0.0] * 4)
    with pytest.raises(ValueError, match="out of range for delay 2"):
        build_ilp(ContinuousModeId(2, 0), prices)
    assert build_ilp(ContinuousModeId(1, 1), prices).prices is prices


# ---------------------------------------------------------------------------
# oracle for the search: the tree search with its prices derived inside the
# solve and the pieces enumerated and filtered per (state, symbol)


def solve_ilp_reference(model, node_budget=10_000_000, below=None):
    """The branch-and-bound written without shared prices: every link is
    priced for this tree alone, and every piece that ends inside the
    interval is generated for each symbol, then filtered by the room
    left for the other symbols.  With ``below``, states and children
    bounded at or above it are cut until a tree is found, and None
    means no tree costs less."""
    table = model.prices.table
    n, d_max, probs = table.n, table.d_max, table.probs
    m = len(probs)
    costs = dict(zip(table.links, model.prices.flat))
    scale = 1 << (d_max + n)
    start = model.mode_id.k1 << d_max
    end = ((1 << n) - model.mode_id.k2) << d_max
    r = 1 << (n - 1)

    allowed = allowed_links(model.prices)
    by_k1 = {}
    for cid in allowed:
        by_k1.setdefault(cid.k1, []).append((cid.k2, costs[cid]))
    for lst in by_k1.values():
        lst.sort()
    min_width = min((1 << n) - c.k1 - c.k2 for c in allowed)
    max_width = max((1 << n) - c.k1 - c.k2 for c in allowed) << d_max
    min_cost = min(costs[c] for c in allowed)
    alpha_min = min(costs[c] + math.log2(((1 << n) - c.k1 - c.k2) / (1 << n)) for c in allowed)

    full_mask = (1 << m) - 1
    psum = [0.0] * (1 << m)
    hsum = [0.0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        sym = low.bit_length() - 1
        psum[mask] = psum[mask ^ low] + probs[sym]
        hsum[mask] = hsum[mask ^ low] - probs[sym] * math.log2(probs[sym])

    def lower_bound(x, rem_mask):
        if not rem_mask:
            return 0.0
        p_total = psum[rem_mask]
        frac = (end - x) / scale
        ent = hsum[rem_mask] + p_total * (math.log2(p_total) - math.log2(frac) + alpha_min)
        return max(ent, p_total * min_cost) - BOUND_SLACK

    def pieces_at(x):
        for d in range(d_max + 1):
            shift = n + d_max - d
            v = x >> shift
            off = x - (v << shift)
            g = 1 << (d_max - d)
            if off & (g - 1):
                continue
            k1 = off >> (d_max - d)
            if k1 >= r:
                continue
            entries = by_k1.get(k1)
            if not entries:
                continue
            for k2, cost in entries:
                piece_end = x + (((1 << n) - k1 - k2) << (d_max - d))
                if piece_end <= end:
                    yield d, v, k1, k2, piece_end, d + cost

    def candidates(used_mask):
        cands = []
        for sym in range(m):
            if used_mask >> sym & 1:
                continue
            dup = any(
                not (used_mask >> s2 & 1) and probs[s2] == probs[sym]
                for s2 in range(sym)
            )
            if not dup:
                cands.append(sym)
        return cands

    nodes = 0

    def spend():
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise ResourceLimitError(f"node budget {node_budget} exhausted")

    best = None

    def limit():
        if best is not None:
            return best[0] - 1e-15
        return math.inf if below is None else below

    heap = []
    seq = 0
    heapq.heappush(heap, (lower_bound(start, full_mask), seq, start, 0, 0.0, ()))
    closed = {}
    while heap:
        f, _, x, used, g, path = heapq.heappop(heap)
        spend()
        if f >= limit():
            break
        state = (x, used)
        prev = closed.get(state)
        if prev is not None and prev <= g:
            continue
        closed[state] = g
        if used == full_mask:
            if x == end and (best is None or g < best[0]):
                best = (g, path)
            continue
        for sym in candidates(used):
            new_used = used | (1 << sym)
            left = full_mask ^ new_used
            rem_after = bin(left).count("1")
            for d, v, k1, k2, pe, cost in pieces_at(x):
                if left:
                    if end - pe < min_width * rem_after or end - pe > max_width * rem_after:
                        continue
                elif pe != end:
                    continue
                g2 = g + probs[sym] * cost
                f2 = g2 + lower_bound(pe, left)
                if f2 >= limit():
                    continue
                seq += 1
                heapq.heappush(heap, (f2, seq, pe, new_used, g2, path + ((sym, d, v, k1, k2),)))

    if best is None:
        if below is not None:
            return None
        raise ModelError(f"no feasible tree for mode {model.mode_id}")
    objective, path = best
    order = [sym for sym, *_ in path]
    pieces = [None] * m
    for sym, d, v, k1, k2 in path:
        pieces[sym] = (d, v, k1, k2)
    assert reference_check(model, assignment_from_pieces(pieces, order)) == []
    codewords = tuple(BitString(d, v) for d, v, _, _ in pieces)
    ids = [ContinuousModeId(k1, k2) for _, _, k1, k2 in pieces]
    recomputed = sum(probs[s] * (pieces[s][0] + costs[ids[s]]) for s in range(m))
    assert abs(recomputed - objective) <= 1e-9
    links = tuple(table.links.index(cid) for cid in ids)
    return TreeSolution(codewords, links, float(recomputed), tuple(order))


def assert_same_tree(model):
    got, want = solve_ilp(model), solve_ilp_reference(model)
    assert (got.codewords, got.links, got.order) == (want.codewords, want.links,
                                                     want.order), model.mode_id
    assert got.objective == want.objective, model.mode_id


def least_budget(solve, model):
    """The least node budget under which ``solve`` finishes the model."""
    hi = 1
    while True:
        try:
            solve(model, node_budget=hi)
            break
        except ResourceLimitError:
            hi *= 2
    lo = hi // 2  # exhausted at lo, or lo is 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            solve(model, node_budget=mid)
            hi = mid
        except ResourceLimitError:
            lo = mid
    return hi


# Costs and probabilities full of ties: each link costs a value drawn
# from a small pool, added to its starting cost or not.
REFERENCE_CASES = dict(
    n=st.integers(1, 4),
    aifvm=st.booleans(),
    weights=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    pool=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5]) | st.floats(0.0, 3.0),
                  min_size=1, max_size=6),
    on_start=st.booleans(),
    seed=st.integers(0, 2 ** 16),
)


def drawn_prices(table, pool, on_start, seed):
    """The prices for ``table`` of one drawn case of ``REFERENCE_CASES``;
    a link costs the same whatever its index in the table."""
    rng = random.Random(seed)
    costs = {cid: rng.choice(pool) + (c0 if on_start else 0.0)
             for cid, c0 in id_costs(table.n).items()}
    return priced(table, costs)


def case_table(n, aifvm, weights, links=None, fresh=False):
    """A search table of one drawn case of ``REFERENCE_CASES``, its links
    in the family's order unless ``links`` are given; its pieces come
    from the process's piece table, or with ``fresh`` from an empty one."""
    probs = tuple(w / sum(weights) for w in weights)
    links = tuple(family_links(n, aifvm) if links is None else links)
    return SearchTable((PieceTable if fresh else piece_table)(n, n + 2, links), probs)


def reference_models(n, aifvm, weights, pool, on_start, seed):
    """Every tree model of one drawn case of ``REFERENCE_CASES``."""
    prices = drawn_prices(case_table(n, aifvm, weights), pool, on_start, seed)
    for cid in prices.table.links:
        yield build_ilp(cid, prices)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**REFERENCE_CASES)
def test_solver_matches_reference_search(n, aifvm, weights, pool, on_start, seed):
    """Same trees and bit-equal objectives as the per-(state, symbol)
    search."""
    for model in reference_models(n, aifvm, weights, pool, on_start, seed):
        assert_same_tree(model)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(**REFERENCE_CASES)
def test_solver_node_count_matches_reference(n, aifvm, weights, pool, on_start, seed):
    """The search spends exactly the reference's nodes: the least budget
    under which each solves is the same."""
    for model in reference_models(n, aifvm, weights, pool, on_start, seed):
        assert least_budget(solve_ilp, model) == least_budget(solve_ilp_reference, model), \
            model.mode_id


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**REFERENCE_CASES, offset=st.floats(1e-9, 2.0), above=st.booleans())
def test_solve_below_a_cutoff_matches_the_cold_solve(n, aifvm, weights, pool, on_start, seed,
                                                     offset, above):
    """With a cutoff ``b`` the search returns None exactly when the cold
    optimum costs at least ``b``, and otherwise a checked tree of the cold
    optimum's cost."""
    for model in reference_models(n, aifvm, weights, pool, on_start, seed):
        cold = solve_ilp(model)
        b = cold.objective + (offset if above else -offset)
        warm = solve_ilp(model, below=b)
        if cold.objective >= b:
            assert warm is None, model.mode_id
        else:
            assert abs(warm.objective - cold.objective) <= 1e-12, model.mode_id
            assert check_assignment(model, warm) == []


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 3),
    aifvm=st.booleans(),
    weights=st.lists(st.integers(1, 3), min_size=5, max_size=6)
    | st.lists(st.integers(1, 1000), min_size=5, max_size=6, unique=True),
    extra_depth=st.integers(0, 6),
    pool=REFERENCE_CASES["pool"],
    on_start=st.booleans(),
    seed=st.integers(0, 2 ** 16),
    pick=st.integers(0, 2 ** 16),
    offset=st.sampled_from([None, 0.5, -1e-9]),
)
def test_solver_matches_reference_at_five_and_six_symbols(n, aifvm, weights, extra_depth, pool,
                                                         on_start, seed, pick, offset):
    """The simulation's alphabet and one symbol more, with tied and with
    distinct weights: cold, and below a cutoff just above or below the
    optimum, the search returns the reference's tree, or None where it
    does, its objective bit for bit, and spends its least node budget."""
    probs = tuple(w / sum(weights) for w in weights)
    table = search_table(n, n + 2 + extra_depth, family_links(n, aifvm), probs)
    prices = drawn_prices(table, pool, on_start, seed)
    model = build_ilp(table.links[pick % len(table.links)], prices)
    below = None if offset is None else solve_ilp_reference(model).objective + offset
    got, want = solve_ilp(model, below=below), solve_ilp_reference(model, below=below)
    if want is None:
        assert got is None and offset < 0
    else:
        assert (got.codewords, got.links, got.order, got.objective) == (
            want.codewords, want.links, want.order, want.objective)
    budget = least_budget(partial(solve_ilp, below=below), model)
    solve_ilp_reference(model, node_budget=budget, below=below)
    with pytest.raises(ResourceLimitError):
        solve_ilp_reference(model, node_budget=budget - 1, below=below)


@pytest.mark.parametrize("d_max", [3, 4])
def test_a_stream_drops_children_against_the_cutoff_of_its_expansion(d_max):
    """Four equal symbols at delay 1, below a cutoff 0.1 above the
    optimum: the tree the search completes lowers the cutoff under
    children its streams have yet to make.  The search that holds every
    child pops one of them and stops there; a stream that dropped them
    against the lowered cutoff would empty the heap one node earlier."""
    table = search_table(1, d_max, [ContinuousModeId(0, 0)], (0.25,) * 4)
    model = build_ilp(ContinuousModeId(0, 0), link_prices(table, [1.0]))
    below = solve_ilp_reference(model).objective + 0.1
    budget = least_budget(partial(solve_ilp, below=below), model)
    assert budget == least_budget(partial(solve_ilp_reference, below=below), model) == 6


@settings(max_examples=30, deadline=None, derandomize=True)
@given(**REFERENCE_CASES, other_seed=st.integers(0, 2 ** 16), pick=st.integers(0, 2 ** 16),
       offset=st.sampled_from([None, 0.5, -1e-9]))
def test_shared_table_solves_like_a_fresh_one(n, aifvm, weights, pool, on_start, seed,
                                              other_seed, pick, offset):
    """A solve through a table that the other modes of the build have
    filled, under other prices, returns what a solve with a fresh table,
    its piece table empty, returns, cold or below a cutoff, and spends
    the same nodes."""
    table = case_table(n, aifvm, weights)
    mode_id = table.links[pick % len(table.links)]
    other = drawn_prices(table, pool, not on_start, other_seed)
    for cid in table.links:
        if cid != mode_id:
            solve_ilp(build_ilp(cid, other))
    filled = len(table.pieces.piece_lists)
    model = build_ilp(mode_id, drawn_prices(table, pool, on_start, seed))

    def fresh_model():
        return build_ilp(mode_id, drawn_prices(case_table(n, aifvm, weights, fresh=True), pool,
                                               on_start, seed))

    below = None if offset is None else solve_ilp(fresh_model()).objective + offset

    def shared(mdl, node_budget=10_000_000):
        return solve_ilp(mdl, node_budget=node_budget, below=below)

    def fresh(mdl, node_budget=10_000_000):
        return solve_ilp(fresh_model(), node_budget=node_budget, below=below)

    assert shared(model) == fresh(model)
    assert least_budget(shared, model) == least_budget(fresh, model)
    assert len(table.pieces.piece_lists) >= filled


@settings(max_examples=30, deadline=None, derandomize=True)
@given(**REFERENCE_CASES)
def test_shuffled_links_give_the_same_pieces_and_trees(n, aifvm, weights, pool, on_start, seed):
    """A table given its links in another order yields the same pieces,
    read through its links, and solves every mode to the same tree."""
    ordered = case_table(n, aifvm, weights, fresh=True)
    links = list(ordered.links)
    random.Random(seed).shuffle(links)
    shuffled = case_table(n, aifvm, weights, links, fresh=True)
    prices = [drawn_prices(t, pool, on_start, seed) for t in (ordered, shuffled)]
    for cid in ordered.links:
        a, b = (solve_ilp(build_ilp(cid, p)) for p in prices)
        assert (a.codewords, a.order, a.objective) == (b.codewords, b.order, b.objective)
        assert [ordered.links[i] for i in a.links] == [shuffled.links[i] for i in b.links]
    assert ordered.pieces.piece_lists.keys() == shuffled.pieces.piece_lists.keys()
    for key, (depths, idxs, room_log) in ordered.pieces.piece_lists.items():
        depths2, idxs2, room_log2 = shuffled.pieces.piece_lists[key]
        assert (depths, room_log) == (depths2, room_log2)
        assert [ordered.links[i] for i in idxs] == [shuffled.links[i] for i in idxs2]


def recorded_build(p, n):
    """Build ``p`` at delay ``n``, recording every price object the build
    made, the model of every tree it searched for, and the cost vector
    and split table of every split minimum it took."""
    made, solved, minima = [], [], []
    price, solve, split = (aifv.builder.link_prices, aifv.builder.solve_ilp,
                           aifv.builder.brute_force_binary)

    def counting_price(*args):
        made.append(price(*args))
        return made[-1]

    def recording_solve(model, **kwargs):
        solved.append(model)
        return solve(model, **kwargs)

    def recording_split(table, probs, costs, below=None):
        minima.append((table, costs.copy()))
        return split(table, probs, costs, below)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(aifv.builder, "link_prices", counting_price)
        mp.setattr(aifv.builder, "solve_ilp", recording_solve)
        mp.setattr(aifv.builder, "brute_force_binary", recording_split)
        _, report = construct(p, BuildConfig(n=n))
    return made, solved, minima, report


@pytest.fixture(scope="module")
def n4_build():
    """The N=4 p0=0.9 build, with what :func:`recorded_build` records."""
    return recorded_build((0.9, 0.1), 4)


@pytest.fixture(scope="module")
def quinary_build():
    """The simulation's alphabet: the P2 (M=5), N=2 build, with what
    :func:`recorded_build` records."""
    return recorded_build(sources_polynomial(5)[2], 2)


def test_prices_built_once_per_iteration(n4_build, quinary_build):
    """A binary build takes one split minimum per iteration over one
    table and runs no tree search; a build over more symbols makes one
    price object per iteration, which all its tree searches read."""
    made, solved, minima, report = n4_build
    assert made == [] and solved == []
    assert len(minima) == report.iterations
    assert len({id(table) for table, _ in minima}) == 1
    made, solved, minima, report = quinary_build
    assert minima == []
    assert len(made) == report.iterations
    # four modes, one of them the mirror of another
    assert len(solved) == 3 * report.iterations
    assert {id(model.prices) for model in solved} == {id(p) for p in made}


def test_iteration_debug_lines_account_for_every_solve(caplog):
    """One ``AIFV_LOG=DEBUG`` line per iteration and no other: every
    solved tree is placed (first iteration), kept or replaced, every mode
    is solved or mirrored, and the chain has at least one absorbing
    block.  Every iteration but the last spends time in the Markov
    layer; the last keeps every tree, makes no pass (``markov_s`` is 0)
    and repeats the chain's blocks.  A binary build reads one split
    table, of the modes it solves, whose size each line gives, and
    bounds no child; a build over more symbols searches one tree per
    solved mode, its shared piece lists only grow, and each line gives
    the children that iteration's searches bounded, as counted on its
    prices."""
    for p, n, binary in (((0.9, 0.1), 4, True), (sources_polynomial(5)[2], 2, False)):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="aifv.builder"):
            made, solved_models, minima, report = recorded_build(p, n)
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "aifv.builder" and r.levelno == logging.DEBUG]
        assert all(message.startswith("iteration=") for message in messages)
        lines = [dict(field.split("=") for field in message.split()) for message in messages]
        assert [int(line["iteration"]) for line in lines] == list(range(1, report.iterations + 1))
        counts = [{k: int(v) for k, v in line.items() if not k.endswith("_s")}
                  for line in lines]
        for c, line in zip(counts, lines):
            assert c["solved"] == c["placed"] + c["kept"] + c["replaced"]
            assert c["solved"] + c["mirrored"] == len(enumerate_continuous_ids(n))
            assert float(line["solve_s"]) > 0
            assert c["blocks"] >= c["absorbing"] >= 1
        assert all(float(line["markov_s"]) > 0 for line in lines[:-1])
        assert float(lines[-1]["markov_s"]) == 0
        assert counts[-1]["kept"] == counts[-1]["solved"]
        assert [counts[-1][f] for f in ("blocks", "absorbing")] == [counts[-2][f] for f in
                                                                      ("blocks", "absorbing")]
        assert counts[0]["placed"] == counts[0]["solved"]
        assert all(c["placed"] == 0 for c in counts[1:])
        piece_lists = [c["piece_lists"] for c in counts]
        splits = [c["splits"] for c in counts]
        bounded = [c["bounded"] for c in counts]
        if binary:
            assert sum(c["kept"] for c in counts) > sum(c["replaced"] for c in counts) > 0
            assert piece_lists == [0] * len(lines) and solved_models == []
            assert splits == [len(table) for table, _ in minima] and splits[0] > 0
            assert all(table.modes == mode_family("continuous", n).solved for table, _ in minima)
            assert bounded == [0] * len(lines)
        else:
            assert sum(c["solved"] for c in counts) == len(solved_models)
            assert piece_lists[0] > 0 and piece_lists == sorted(piece_lists)
            assert splits == [0] * len(lines) and minima == []
            assert bounded == [prices.bounded for prices in made] and min(bounded) > 0


def test_solver_matches_reference_on_build_costs(n4_build):
    """At every iteration's costs of the N=4 build, the tree search
    matches the reference search, the split minimum over every mode
    picks the search's tree, and the split minimum the build took, over
    the modes it solves, picks the same trees."""
    _, _, minima, _ = n4_build
    probs = (0.9, 0.1)
    d_max = default_depth(2, 4)
    links = enumerate_continuous_ids(4)
    whole = interval_table(4, d_max, links)
    for table, costs in minima:
        prices = link_prices(search_table(4, d_max, links, probs), costs)
        choice, objective = brute_force_binary(whole, probs, costs)
        for i, cid in enumerate(links):
            model = build_ilp(cid, prices)
            assert_same_tree(model)
            sol = solve_ilp(model)
            tree = whole.tree(int(choice[i]), mode_from_id(4, cid))
            assert (tree.codewords, tree.links, objective[i]) == (sol.codewords, sol.links,
                                                                  sol.objective)
        solved_choice, solved_objective = brute_force_binary(table, probs, costs)
        for j, i in enumerate(table.modes):
            mode = mode_from_id(4, links[i])
            assert table.tree(int(solved_choice[j]), mode) == whole.tree(int(choice[i]), mode)
            assert solved_objective[j] == objective[i]


def test_solver_matches_reference_on_quinary_build_costs(quinary_build):
    """The simulation's alphabet: every iteration's prices of the
    P2 (M=5), N=2 build, trees and node counts."""
    made, _, _, report = quinary_build
    assert len(made) == report.iterations > 1
    for prices in made:
        for cid in enumerate_continuous_ids(2):
            model = build_ilp(cid, prices)
            assert_same_tree(model)
            assert least_budget(solve_ilp, model) == least_budget(solve_ilp_reference, model)
