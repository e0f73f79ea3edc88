import heapq
import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from aifv.bitstrings import (
    BitString,
    EMPTY,
    append_all,
    comparable,
    interval_of,
    is_prefix,
    merge_intervals,
    reduced,
)
from aifv.modes import (
    ContinuousModeId,
    Mode,
    enumerate_basic_modes,
    enumerate_continuous_ids,
    flip_id,
    id_interval,
    mode_from_id,
)
import aifv.builder
from aifv.builder import BuildConfig, construct, default_depth
from aifv.forest import CodeTree
from aifv.optimizer import (
    BOUND_SLACK,
    ModelError,
    ModelStructure,
    ResourceLimitError,
    Row,
    TreeSolution,
    _assignment_from_pieces,
    _partition_table,
    aifvm_link_ids,
    brute_force_binary,
    build_ilp,
    check_assignment,
    decode_solution,
    dump_model,
    initial_costs,
    solve_ilp,
)
from aifv.sources import sources_polynomial

B = BitString.from_text


def tree_model(n, m, mode_id, probs, costs, d_max, aifvm=False):
    """One tree's model on a structure of its own."""
    structure = ModelStructure(n, m, d_max, aifvm)
    return build_ilp(structure, mode_id, probs, structure.price(costs))


def test_initial_costs_examples():
    c1 = initial_costs(1)
    assert c1[ContinuousModeId(0, 0)] == pytest.approx(0.0)
    c2 = initial_costs(2)
    assert c2[ContinuousModeId(0, 0)] == pytest.approx(0.0)
    assert c2[ContinuousModeId(1, 1)] == pytest.approx(1.0)
    assert c2[ContinuousModeId(1, 0)] == pytest.approx(2 - math.log2(3))


def _count(model, kind):
    return sum(1 for name in model.structure.variables if name[0] == kind)


def test_variable_counts_n2_m2_d4():
    model = tree_model(2, 2, ContinuousModeId(0, 0), (0.5, 0.5), initial_costs(2), 4)
    assert _count(model, "t") == 10  # 2 symbols x depths 0..4
    assert _count(model, "u") == 8  # 2 symbols x 4 link modes
    assert _count(model, "v") == 2
    assert _count(model, "vL") == 2
    assert _count(model, "vR") == 2
    assert _count(model, "w") == 8 and _count(model, "wb") == 8
    # margin carriers span the same depth range as the depth selectors
    assert _count(model, "k") == 2 * 2 * 5


def test_aifvm_flag_adds_m_rows():
    base = tree_model(3, 4, ContinuousModeId(0, 0), (0.4, 0.3, 0.2, 0.1), initial_costs(3), 6)
    restr = tree_model(3, 4, ContinuousModeId(0, 0), (0.4, 0.3, 0.2, 0.1), initial_costs(3), 6,
                      aifvm=True)
    extra = [r for r in restr.rows if r.tag.startswith("aifvm")]
    assert len(restr.rows) - len(base.rows) == 4
    assert len(extra) == 4
    assert aifvm_link_ids(3) == [ContinuousModeId(0, 0), ContinuousModeId(1, 0),
                                 ContinuousModeId(2, 0)]


def test_mode_00_boundary_rows():
    model = tree_model(2, 2, ContinuousModeId(0, 0), (0.5, 0.5), initial_costs(2), 4)
    for tag in ("left[0]", "right[0]"):
        (row,) = [r for r in model.rows if r.tag == tag]
        assert row.rhs == row.scale  # unscaled right-hand side is exactly 1


def test_solve_n1_full_tree():
    model = tree_model(1, 2, ContinuousModeId(0, 0), (0.5, 0.5), initial_costs(1), 4)
    sol = solve_ilp(model)
    assert {cw.text for cw in sol.codewords} == {"0", "1"}
    assert sol.link_ids == (ContinuousModeId(0, 0), ContinuousModeId(0, 0))
    assert sol.objective == pytest.approx(1.0)


def test_solver_output_satisfies_model_exactly():
    model = tree_model(3, 3, ContinuousModeId(2, 1), (0.5, 0.3, 0.2), initial_costs(3), 8)
    sol = solve_ilp(model)
    assert check_assignment(model, sol.assignment) == []


def _standalone_tree_ok(n, own_mode, codewords, link_ids):
    """Rule-1 + fullness check for a single tree, built from string
    primitives only (independent of the tiling search)."""
    occurrences = []
    for cw, cid in zip(codewords, link_ids):
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
    costs = initial_costs(n)
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
            sol = solve_ilp(tree_model(n, 2, mode_id, probs, costs, d_small))
            assert sol.objective == pytest.approx(best, abs=1e-12), (mode_id, probs)


def test_model_feasible_set_is_exactly_the_valid_trees():
    """Bidirectional model check at delay 2, depth 2, two symbols.

    Every (codeword, link) pair that forms a valid full tree must admit a
    feasible assignment under some chain order, and every invalid pair
    must violate at least one row under every chain order.
    """
    n, d_small = 2, 2
    costs = initial_costs(n)
    ids = enumerate_continuous_ids(n)
    all_cw = [BitString(ln, v) for ln in range(d_small + 1) for v in range(1 << ln)]
    choices = [(cw, cid) for cw in all_cw for cid in ids]
    for mode_id in ids:
        model = tree_model(n, 2, mode_id, (0.6, 0.4), costs, d_small)
        for (cw0, l0), (cw1, l1) in itertools.product(choices, choices):
            valid = _standalone_tree_ok(n, mode_id, (cw0, cw1), (l0, l1))
            feasible = False
            for order in ((0, 1), (1, 0)):
                pieces = [(cw0.length, cw0.value, l0.k1, l0.k2),
                          (cw1.length, cw1.value, l1.k1, l1.k2)]
                assignment = _assignment_from_pieces(model, pieces, list(order))
                if not check_assignment(model, assignment):
                    feasible = True
            assert feasible == valid, (mode_id, cw0.text, l0, cw1.text, l1)


def tree_from_assignment(model, assignment):
    """Reference reader: the tree read back from a model assignment, with
    every depth, codeword bit, link and margin variable checked, for
    comparison with :func:`decode_solution`, which reads the tiling."""
    s = model.structure
    allowed_link_vars = frozenset(
        ("u", sym, c.k1, c.k2) for sym in range(s.m_symbols) for c in s.allowed_links)
    links_of = [[] for _ in range(s.m_symbols)]
    for name, value in assignment.items():
        if value and name in allowed_link_vars:
            links_of[name[1]].append(ContinuousModeId(name[2], name[3]))
    codewords, links = [], []
    for sym in range(s.m_symbols):
        depths = [d for d in range(s.d_max + 1) if assignment.get(("t", sym, d))]
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
        links.append(cid.k1 * (1 << (s.n - 1)) + cid.k2)
    return CodeTree(tuple(codewords), tuple(links), mode_from_id(s.n, model.mode_id))


def test_decoded_tree_tiles_its_interval():
    rng = random.Random(8)
    for n in (2, 3):
        costs = initial_costs(n)
        for _ in range(6):
            ids = enumerate_continuous_ids(n)
            mode_id = rng.choice(ids)
            m = rng.randrange(2, 5)
            raw = [rng.uniform(0.05, 1.0) for _ in range(m)]
            probs = tuple(x / sum(raw) for x in raw)
            model = tree_model(n, m, mode_id, probs, costs, 3 + n)
            sol = solve_ilp(model)
            tree = decode_solution(model, sol)
            assert tree == tree_from_assignment(model, sol.assignment)
            assert _standalone_tree_ok(n, mode_id, tree.codewords, sol.link_ids)
            pieces = []
            for cw, cid in zip(tree.codewords, sol.link_ids):
                linked = mode_from_id(n, cid)
                pieces.extend(interval_of(w) for w in append_all(cw, linked.words))
            assert merge_intervals(pieces) == (id_interval(n, mode_id),)


def test_decode_solution_links_canonical():
    model = tree_model(2, 2, ContinuousModeId(0, 0), (0.9, 0.1), initial_costs(2), 5)
    sol = solve_ilp(model)
    tree = decode_solution(model, sol)
    for link, cid in zip(tree.links, sol.link_ids):
        assert link == cid.k1 * 2 + cid.k2


def test_binary_expansions_bounded_by_delay():
    rng = random.Random(12)
    for n in (2, 3):
        costs = initial_costs(n)
        for _ in range(8):
            p0 = rng.uniform(0.5, 0.99)
            mode_id = rng.choice(enumerate_continuous_ids(n))
            model = tree_model(n, 2, mode_id, (p0, 1 - p0), costs, 3 + n)
            sol = solve_ilp(model)
            for cw, cid in zip(sol.codewords, sol.link_ids):
                linked = mode_from_id(n, cid)
                assert all(cw.length + w.length <= n for w in linked.words)


def test_partition_count_and_worked_example():
    mode = Mode(frozenset({B("001"), B("01"), B("1")}), 3)
    table = _partition_table(3, mode)
    assert len(table) == 126
    # leaves sorted by value: 001,010,011,100,101,110,111; W = {001,010} is mask 3
    len0, linked0, len1, linked1 = table[3 - 1]
    assert len0 == 1 and {w.text for w in linked0} == {"01", "10"}
    assert len1 == 0 and {w.text for w in linked1} == {"011", "1"}


def test_partition_trivial_n1():
    mode = Mode(frozenset({EMPTY}), 1)
    table = _partition_table(1, mode)
    assert len(table) == 2
    for len0, linked0, len1, linked1 in table:
        assert len0 == 1 and len1 == 1
        assert linked0 == linked1 == frozenset({EMPTY})


def _basic_cost_tables(n):
    family = enumerate_basic_modes(n)
    index_of = {m.words: i for i, m in enumerate(family)}
    return family, index_of


def test_brute_force_matches_ilp_on_continuous_links():
    rng = random.Random(42)
    for n in (2, 3):
        cont_costs = initial_costs(n)
        family, index_of = _basic_cost_tables(n)
        from aifv.modes import id_of_mode
        words_costs = {}
        for m in family:
            cid = id_of_mode(m)
            words_costs[m.words] = cont_costs[cid] if cid is not None else math.inf
        for _ in range(20):
            p0 = rng.uniform(0.51, 0.99)
            probs = (p0, 1 - p0)
            for cid in enumerate_continuous_ids(n):
                mode = mode_from_id(n, cid)
                _, bf_obj = brute_force_binary(n, mode, probs, words_costs, index_of)
                sol = solve_ilp(tree_model(n, 2, cid, probs, cont_costs, 3 + n))
                assert bf_obj == pytest.approx(sol.objective, abs=1e-12), (n, cid, p0)


def test_brute_force_guards():
    mode = Mode(frozenset({EMPTY}), 1)
    with pytest.raises(ValueError):
        brute_force_binary(1, mode, (0.3, 0.3, 0.4), {}, {})
    with pytest.raises(ValueError):
        brute_force_binary(4, Mode(frozenset({EMPTY}), 4), (0.5, 0.5), {}, {})


def test_symmetric_modes_equal_objectives():
    rng = random.Random(77)
    for n in (2, 3):
        base = initial_costs(n)
        # perturb costs but keep the mirror symmetry C[(a,b)] == C[(b,a)]
        sym_costs = dict(base)
        for cid in list(sym_costs):
            bump = rng.uniform(0, 0.2)
            sym_costs[cid] = base[cid] + bump
            sym_costs[flip_id(cid)] = sym_costs[cid]
        for cid in enumerate_continuous_ids(n):
            probs = (0.8, 0.2)
            a = solve_ilp(tree_model(n, 2, cid, probs, sym_costs, 3 + n))
            b = solve_ilp(tree_model(n, 2, flip_id(cid), probs, sym_costs, 3 + n))
            assert a.objective == pytest.approx(b.objective, abs=1e-12)


def test_objective_recompute_consistency():
    model = tree_model(3, 4, ContinuousModeId(1, 2), (0.4, 0.3, 0.2, 0.1), initial_costs(3), 9)
    sol = solve_ilp(model)
    recomputed = sum(
        model.probs[s] * (sol.codewords[s].length + model.prices.costs[sol.link_ids[s]])
        for s in range(4)
    )
    assert recomputed == pytest.approx(sol.objective, abs=1e-12)


def test_node_budget_enforced():
    model = tree_model(3, 5, ContinuousModeId(0, 0), (0.2,) * 5, initial_costs(3), 12)
    with pytest.raises(ResourceLimitError, match=r"exhausted in the dive for mode \(0, 0\)"):
        solve_ilp(model, node_budget=3)
    # raise the budget one node at a time: it runs out in the dive, then
    # in the proof, then suffices
    model = tree_model(2, 3, ContinuousModeId(1, 0), (0.5, 0.3, 0.2), initial_costs(2), 4)
    phases = []
    for budget in itertools.count(1):
        try:
            solve_ilp(model, node_budget=budget)
            break
        except ResourceLimitError as e:
            found = re.fullmatch(rf"node budget {budget} exhausted in the (dive|proof) "
                                 r"for mode \(1, 0\)", str(e))
            assert found, str(e)
            phases.append(found.group(1))
    dives = phases.count("dive")
    assert phases == ["dive"] * dives + ["proof"] * (len(phases) - dives)
    assert 0 < dives < len(phases)


def test_model_dump_mentions_scaling():
    model = tree_model(2, 2, ContinuousModeId(1, 0), (0.5, 0.5), initial_costs(2), 4)
    text = dump_model(model)
    assert "2^(d_max+n) = 64" in text
    assert "adjacency[0,1]" in text


# ---------------------------------------------------------------------------
# oracles for the shared model structure: the per-mode row construction and
# the row-by-row evaluator, both written out directly


def reference_rows(n, m, mode_id, d_max, aifvm=False):
    """Every row of one mode's model, built for that mode alone."""
    r = 1 << (n - 1)
    scale = 1 << (d_max + n)
    link_ids = [ContinuousModeId(a, b) for a in range(r) for b in range(r)]
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

    if aifvm:
        allowed = set(aifvm_link_ids(n))
        for sym in range(m):
            eq(f"aifvm[{sym}]",
               {("u", sym, c.k1, c.k2): 1 for c in link_ids if c in allowed}, 1)
    return rows


def reference_check(model, assignment):
    """Row-by-row evaluation of every bound and row, in Python integers."""
    variables = model.structure.variables
    bad = []
    for name, value in assignment.items():
        if name not in variables:
            bad.append(f"unknown variable {name}")
        elif not 0 <= value <= variables[name]:
            bad.append(f"variable {name} out of bounds: {value}")
    for row in model.rows:
        val = sum(c * assignment.get(name, 0) for name, c in row.coeffs.items())
        ok = val <= row.rhs if row.sense == "le" else val == row.rhs
        if not ok:
            bad.append(f"{row.tag}: value {val} vs rhs {row.rhs}")
    return bad


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 3), m=st.integers(1, 3), d_max=st.integers(1, 6), aifvm=st.booleans())
def test_shared_structure_rows_match_per_mode_construction(n, m, d_max, aifvm):
    structure = ModelStructure(n, m, d_max, aifvm)
    probs = (1 / m,) * m
    prices = structure.price(initial_costs(n))
    for cid in enumerate_continuous_ids(n):
        model = build_ilp(structure, cid, probs, prices)
        assert model.rows == reference_rows(n, m, cid, d_max, aifvm), cid


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 3),
    aifvm=st.booleans(),
    weights=st.lists(st.integers(1, 20), min_size=1, max_size=3),
    pick=st.integers(0, 10 ** 6),
    at_upper=st.booleans(),
    delta=st.integers(-3, 3),
    unknown=st.booleans(),
)
def test_compiled_check_matches_row_by_row_oracle(n, aifvm, weights, pick, at_upper, delta,
                                                  unknown):
    m = len(weights)
    probs = tuple(w / sum(weights) for w in weights)
    structure = ModelStructure(n, m, 2 + n, aifvm)
    names = list(structure.variables)
    prices = structure.price(initial_costs(n))
    for cid in aifvm_link_ids(n) if aifvm else enumerate_continuous_ids(n):
        model = build_ilp(structure, cid, probs, prices)
        sol = solve_ilp(model)
        assert check_assignment(model, sol.assignment) == []
        assert reference_check(model, sol.assignment) == []
        # one variable moved to a value near or past one of its bounds
        name = names[pick % len(names)]
        perturbed = dict(sol.assignment)
        perturbed[name] = (structure.variables[name] if at_upper else 0) + delta
        if unknown:
            perturbed[("z", 0)] = 1
        assert check_assignment(model, perturbed) == reference_check(model, perturbed), (cid, name)


# ---------------------------------------------------------------------------
# oracle for the search: the tree search with its prices derived inside the
# solve and the pieces enumerated and filtered per (state, symbol)


def solve_ilp_reference(model, node_budget=10_000_000):
    """The branch-and-bound written without shared prices: every link is
    priced for this tree alone, and every piece that ends inside the
    interval is generated for each symbol, then filtered by the room
    left for the other symbols."""
    s = model.structure
    n, d_max, m = s.n, s.d_max, s.m_symbols
    probs = model.probs
    scale = 1 << (d_max + n)
    start = model.mode_id.k1 << d_max
    end = ((1 << n) - model.mode_id.k2) << d_max
    r = 1 << (n - 1)

    allowed = s.allowed_links
    by_k1 = {}
    for cid in allowed:
        by_k1.setdefault(cid.k1, []).append((cid.k2, model.prices.costs[cid]))
    for lst in by_k1.values():
        lst.sort()
    min_width = min((1 << n) - c.k1 - c.k2 for c in allowed)
    max_width = max((1 << n) - c.k1 - c.k2 for c in allowed) << d_max
    min_cost = min(model.prices.costs[c] for c in allowed)
    alpha_min = min(
        model.prices.costs[c] + math.log2(((1 << n) - c.k1 - c.k2) / (1 << n)) for c in allowed
    )

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

    def candidates(used_mask, key):
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
        cands.sort(key=key)
        return cands

    nodes = 0

    def spend():
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise ResourceLimitError(f"node budget {node_budget} exhausted")

    def dive():
        stack = [(start, 0, 0.0, ())]
        while stack:
            x, used, g, path = stack.pop()
            spend()
            if used == full_mask:
                if x == end:
                    return g, path
                continue
            children = []
            for sym in candidates(used, key=lambda s: (-probs[s], s)):
                left = full_mask ^ used ^ (1 << sym)
                rem_after = bin(left).count("1")
                for d, v, k1, k2, pe, cost in pieces_at(x):
                    if left:
                        if end - pe < min_width * rem_after or end - pe > max_width * rem_after:
                            continue
                    elif pe != end:
                        continue
                    children.append(((pe - x, -cost), (sym, d, v, k1, k2, pe, cost)))
            children.sort(key=lambda c: c[0])
            for _, (sym, d, v, k1, k2, pe, cost) in children:
                stack.append((pe, used | (1 << sym), g + probs[sym] * cost,
                              path + ((sym, d, v, k1, k2),)))
        return None

    best = dive()
    heap = []
    seq = 0
    heapq.heappush(heap, (lower_bound(start, full_mask), seq, start, 0, 0.0, ()))
    closed = {}
    while heap:
        f, _, x, used, g, path = heapq.heappop(heap)
        spend()
        if best is not None and f >= best[0] - 1e-15:
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
        for sym in candidates(used, key=lambda s: s):
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
                if best is not None and f2 >= best[0] - 1e-15:
                    continue
                seq += 1
                heapq.heappush(heap, (f2, seq, pe, new_used, g2, path + ((sym, d, v, k1, k2),)))

    if best is None:
        raise ModelError(f"no feasible tree for mode {model.mode_id}")
    objective, path = best
    order = [sym for sym, *_ in path]
    pieces = [None] * m
    for sym, d, v, k1, k2 in path:
        pieces[sym] = (d, v, k1, k2)
    assignment = _assignment_from_pieces(model, pieces, order)
    assert check_assignment(model, assignment) == []
    codewords = tuple(BitString(d, v) for d, v, _, _ in pieces)
    link_ids = tuple(ContinuousModeId(k1, k2) for _, _, k1, k2 in pieces)
    recomputed = sum(
        probs[s] * (pieces[s][0] + model.prices.costs[link_ids[s]]) for s in range(m)
    )
    assert abs(recomputed - objective) <= 1e-9
    return TreeSolution(codewords, link_ids, float(recomputed), tuple(order), assignment)


def assert_same_tree(model):
    got, want = solve_ilp(model), solve_ilp_reference(model)
    assert (got.codewords, got.link_ids, got.order) == (want.codewords, want.link_ids,
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


def reference_models(n, aifvm, weights, pool, on_start, seed):
    """Every tree model of one drawn case of ``REFERENCE_CASES``."""
    m = len(weights)
    probs = tuple(w / sum(weights) for w in weights)
    rng = random.Random(seed)
    costs = {cid: rng.choice(pool) + (c0 if on_start else 0.0)
             for cid, c0 in initial_costs(n).items()}
    structure = ModelStructure(n, m, n + 2, aifvm)
    prices = structure.price(costs)
    for cid in aifvm_link_ids(n) if aifvm else enumerate_continuous_ids(n):
        yield build_ilp(structure, cid, probs, prices)


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


def recorded_build(p, n):
    """Build ``p`` at delay ``n``, recording every price object the build
    made and the prices of every tree it solved."""
    made, solved = [], []
    price, solve = ModelStructure.price, aifv.builder.solve_ilp

    def counting_price(self, costs):
        made.append(price(self, costs))
        return made[-1]

    def recording_solve(model, **kwargs):
        solved.append(model.prices)
        return solve(model, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ModelStructure, "price", counting_price)
        mp.setattr(aifv.builder, "solve_ilp", recording_solve)
        _, report = construct(p, BuildConfig(n=n))
    return made, solved, report


@pytest.fixture(scope="module")
def n4_build():
    """The N=4 p0=0.9 build, with every price object it made and the
    prices of every tree it solved."""
    return recorded_build((0.9, 0.1), 4)


def test_prices_built_once_per_iteration(n4_build):
    made, solved, report = n4_build
    assert len(made) == report.iterations
    assert len(solved) > 10 * report.iterations
    assert {id(p) for p in solved} == {id(p) for p in made}


def test_solver_matches_reference_on_build_costs(n4_build):
    made, _, _ = n4_build
    probs = (0.9, 0.1)
    assert made[0].structure.d_max == default_depth(2, 4)
    for prices in made:
        for cid in enumerate_continuous_ids(4):
            assert_same_tree(build_ilp(prices.structure, cid, probs, prices))


def test_solver_matches_reference_on_quinary_build_costs():
    """The simulation's alphabet: every iteration's prices of the
    P2 (M=5), N=2 build, trees and node counts."""
    source = sources_polynomial(5)[2]
    made, _, report = recorded_build(source, 2)
    assert len(made) == report.iterations > 1
    for prices in made:
        for cid in enumerate_continuous_ids(2):
            model = build_ilp(prices.structure, cid, source.probs, prices)
            assert_same_tree(model)
            assert least_budget(solve_ilp, model) == least_budget(solve_ilp_reference, model)
