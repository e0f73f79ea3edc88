import gc
import hashlib
import itertools
import logging
import math
import random
import tracemalloc
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import aifv.builder
import aifv.modes
from aifv import markov
from aifv.builder import (
    BuildConfig,
    check_g_optimality_binary,
    construct,
    default_depth,
    expected_code_length,
    folded_codebook_size,
    huffman,
    huffman_lengths,
    mode_family,
)
from aifv.forest import decode, encode, format_codebook, validate_full, validate_rule1
from aifv.markov import SingularChainError
from aifv.modes import flip_mode
from aifv.sources import sources_binary_grid, sources_polynomial
from aifv.splits import full_split_table, interval_split_table
from conftest import report_record, worst_trace
from oracles import heap_huffman_lengths


def entropy(probs):
    return -sum(x * math.log2(x) for x in probs)


def test_n1_is_huffman():
    probs = (0.4, 0.35, 0.25)
    forest, report = construct(probs, BuildConfig(n=1))
    assert report.iterations == 1
    assert report.f_optimal and report.converged and report.e_optimal
    assert len(forest.trees) == 1
    hlens = sorted(huffman_lengths(probs))
    assert sorted(cw.length for cw in forest.trees[0].codewords) == hlens
    assert report.expected_len == pytest.approx(
        expected_code_length(huffman(probs), probs))


def test_aifv2_equivalence_spot():
    probs = (0.9, 0.1)
    _, r_cont = construct(probs, BuildConfig(n=2))
    _, r_m = construct(probs, BuildConfig(n=2, family="aifvm"))
    assert abs(r_cont.expected_len - r_m.expected_len) <= 1e-12


def test_aifvm_m1_is_huffman():
    probs = (0.6, 0.25, 0.15)
    forest, report = construct(probs, BuildConfig(n=1, family="aifvm"))
    assert len(forest.trees) == 1
    assert report.expected_len == pytest.approx(
        expected_code_length(huffman(probs), probs))


def test_aifvm_restriction_never_beats_unrestricted():
    probs = (0.9, 0.1)
    _, free = construct(probs, BuildConfig(n=3))
    _, restricted = construct(probs, BuildConfig(n=3, family="aifvm"))
    assert restricted.expected_len >= free.expected_len - 1e-12


def test_aifvm_gains_only_on_skewed_sources():
    # growing the tree count helps the classic family only when the
    # dominant symbol is very likely
    for p0, expect_gain in ((0.55, False), (0.75, False), (0.95, True)):
        _, m2 = construct((p0, 1 - p0), BuildConfig(n=2, family="aifvm"))
        _, m4 = construct((p0, 1 - p0), BuildConfig(n=4, family="aifvm"))
        gain = m2.expected_len - m4.expected_len
        if expect_gain:
            assert gain > 0.1
        else:
            assert abs(gain) <= 1e-12


def test_emitted_forest_is_valid_and_coded(demo_forest):
    from aifv.forest import decoding_delay_bound

    rng = random.Random(3)
    probs = (0.7, 0.2, 0.1)
    forest, report = construct(probs, BuildConfig(n=2))
    assert validate_rule1(forest) == []
    assert validate_full(forest).ok
    assert decoding_delay_bound(forest) <= 2
    for _ in range(50):
        seq = [rng.randrange(3) for _ in range(rng.randrange(0, 20))]
        bits = encode(forest, seq)
        assert decode(forest, bits, len(seq)) == seq


def test_huffman_floor_property():
    rng = random.Random(31)
    for _ in range(12):
        m = rng.randrange(2, 5)
        raw = [rng.uniform(0.05, 1.0) for _ in range(m)]
        probs = tuple(x / sum(raw) for x in raw)
        h_len = expected_code_length(huffman(probs), probs)
        for n in (1, 2, 3):
            _, report = construct(probs, BuildConfig(n=n))
            assert report.expected_len <= h_len + 1e-12
            assert report.expected_len >= entropy(probs) - 1e-12


def test_huffman_floor_init_starts_at_huffman():
    probs = (0.8, 0.15, 0.05)
    h_len = expected_code_length(huffman(probs), probs)
    _, report = construct(probs, BuildConfig(n=2, init="huffman-floor"))
    assert worst_trace(report)[0] == pytest.approx(h_len, abs=1e-12)
    _, formula = construct(probs, BuildConfig(n=2))
    assert report.expected_len == pytest.approx(formula.expected_len, abs=1e-12)


def test_monotone_traces_randomized():
    rng = random.Random(1234)
    for _ in range(40):
        m = rng.randrange(2, 5)
        raw = [rng.uniform(0.02, 1.0) for _ in range(m)]
        probs = tuple(x / sum(raw) for x in raw)
        n = rng.choice((1, 2, 3))
        init = rng.choice(("formula", "huffman-floor"))
        _, report = construct(probs, BuildConfig(n=n, init=init))
        trace = worst_trace(report)
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
        assert report.converged


def test_determinism_bit_identical():
    probs = (0.62, 0.23, 0.15)
    f1, r1 = construct(probs, BuildConfig(n=2))
    f2, r2 = construct(probs, BuildConfig(n=2))
    assert f1 == f2
    assert r1 == r2


def unpaired(family, n):
    """The family's modes with no mirror map, as if not closed under
    flipping: a build solves every mode."""
    fam = mode_family(family, n)
    return fam._replace(mirror=None, solved=tuple(range(len(fam.modes))))


def test_symmetry_reuse_matches_independent():
    rng = random.Random(9)
    for _ in range(6):
        p0 = rng.uniform(0.51, 0.99)
        probs = (p0, 1 - p0)
        _, with_reuse = construct(probs, BuildConfig(n=3))
        with pytest.MonkeyPatch.context() as mp:
            # a family that looks not mirror-closed is solved mode by mode
            mp.setattr(aifv.builder, "mode_family", unpaired)
            _, without = construct(probs, BuildConfig(n=3))
        assert abs(with_reuse.expected_len - without.expected_len) <= 1e-12


# SHA-256 of format_codebook(forest) + repr(report), build after build,
# over the builds of test_mirror_reuse_fallback_solves_every_mode,
# computed while a build gathered its solved modes' split table from the
# table of every mode.
FALLBACK_DIGEST = "e01b852470ffe9fd21b8b7ddfc1ab514376959012f3faf97491434df469c5a17"


def test_mirror_reuse_fallback_solves_every_mode(caplog):
    """With mirror pinning broken at every check, a binary build solves
    the lesser mode of each mirror pair at the first iteration and every
    mode from the second on: it reaches the L of a build without mirror
    reuse, each later DEBUG line counts the split table of every mode,
    and its codebook and report are pinned."""
    digest = hashlib.sha256()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(aifv.builder, "_mirror_pins_consistent", lambda blocks, mirror: False)
        for p0 in (0.55, 0.7, 0.9, 0.99):
            probs = (p0, 1 - p0)
            for family, delays in (("continuous", range(2, 6)), ("full-binary", (2, 3))):
                for n in delays:
                    cfg = BuildConfig(n=n, family=family)
                    caplog.clear()
                    with caplog.at_level(logging.DEBUG, logger="aifv.builder"):
                        forest, report = construct(probs, cfg)
                    splits = [int(dict(field.split("=") for field in r.getMessage().split())
                                  ["splits"])
                              for r in caplog.records if r.levelno == logging.DEBUG]
                    fam = mode_family(family, n)
                    every = tuple(range(len(fam.modes)))
                    if family == "full-binary":
                        solved, whole = (full_split_table(n, modes) for modes in
                                         (fam.solved, every))
                    else:
                        solved, whole = (interval_split_table(n, default_depth(2, n), fam.ids,
                                                              modes)
                                         for modes in (fam.solved, every))
                    assert report.iterations > 1 and len(solved) < len(whole)
                    assert splits == [len(solved)] + [len(whole)] * (report.iterations - 1)
                    digest.update((format_codebook(forest) + repr(report)).encode())
                    with pytest.MonkeyPatch.context() as unmirrored:
                        unmirrored.setattr(aifv.builder, "mode_family", unpaired)
                        _, without = construct(probs, cfg)
                    assert abs(report.expected_len - without.expected_len) <= 1e-12
    assert digest.hexdigest() == FALLBACK_DIGEST


@pytest.mark.parametrize("cfg, flips", [
    (BuildConfig(n=3, family="full-binary"), 225),
    (BuildConfig(n=4), 64),
])
def test_a_process_flips_each_family_mode_once(monkeypatch, cfg, flips):
    """Mirrored trees take their mode from the family, and the family is
    made once per process, so a process flips each mode's words once, to
    pair the modes, however many builds and iterations it runs."""
    calls = []
    flip_words = aifv.modes.flip_words
    monkeypatch.setattr(aifv.modes, "flip_words", lambda ws: calls.append(ws) or flip_words(ws))
    mode_family.cache_clear()
    reports = [construct(probs, cfg)[1] for probs in ((0.9, 0.1), (0.7, 0.3))]
    assert min(report.iterations for report in reports) > 1
    assert len(calls) == flips


@pytest.mark.parametrize("cfg", [BuildConfig(n=3, family="full-binary"), BuildConfig(n=4),
                                 BuildConfig(n=3, family="aifvm")])
def test_a_second_build_of_a_family_makes_no_mode(monkeypatch, cfg):
    """A build after the first of its family and delay, from another
    source, makes no mode, flips none and prices no starting cost."""
    construct((0.75, 0.25), cfg)
    calls = {"mode_from_id": 0, "flip_words": 0, "initial_costs": 0}
    for module, name in ((aifv.builder, "mode_from_id"), (aifv.modes, "flip_words"),
                         (aifv.builder, "initial_costs")):
        def counted(*args, fn=getattr(module, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, counted)
    _, report = construct((0.9, 0.1), cfg)
    assert report.converged
    assert calls == {"mode_from_id": 0, "flip_words": 0, "initial_costs": 0}


def test_cached_families_stay_small():
    """Every family of delays 1 to 7 (the full family to 3), made once
    per process, keeps under 10 MB (measured: 7.5 MB, 5.8 MB of it the
    4096 continuous modes of delay 7)."""
    fresh = cache(mode_family.__wrapped__)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for n in range(1, 8):
            for family in ("continuous", "aifvm", "full-binary")[:3 if n <= 3 else 2]:
                fresh(family, n)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert fresh.cache_info().currsize == 17
    assert kept < 10_000_000


def build_cases():
    """Binary builds of every family, and builds over three to five
    symbols."""
    binary = st.builds(
        lambda p0, family, n, init: ((p0, 1 - p0), BuildConfig(
            n=min(n, 3) if family == "full-binary" else max(n, 2 if family == "aifvm" else 1),
            family=family, init=init)),
        st.sampled_from([0.5, 0.6, 0.75, 0.9]) | st.floats(0.51, 0.99),
        st.sampled_from(["continuous", "aifvm", "full-binary"]), st.integers(1, 5),
        st.sampled_from(["formula", "huffman-floor"]))
    multi = st.builds(
        lambda weights, n: (tuple(w / sum(weights) for w in weights), BuildConfig(n=n)),
        st.lists(st.integers(1, 20), min_size=3, max_size=5), st.integers(1, 2))
    return binary | multi


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=build_cases())
def test_a_final_iteration_that_keeps_every_tree_makes_no_markov_pass(case):
    """A build of delay 2 or more converges on an iteration that keeps
    every tree, and that iteration makes no Markov pass: a converged
    build calls ``transition_matrix`` once per iteration, the last call
    being :func:`expected_code_length`'s.  What the pass would have
    given is what the build kept, bit for bit: a fresh pass over the
    last forest gives the last pass's lbars and raw costs, so it would
    also have taken the same mirror averaging, and the kept costs are
    the last pass's (the cost change is 0.0)."""
    probs, cfg = case
    chains, raw, kept = [], [], []
    tm, update, invariant = (aifv.builder.transition_matrix, aifv.builder.cost_update_general,
                             aifv.builder.worst_block_invariant)

    def recording_update(*args):
        raw.append(update(*args))
        return raw[-1]

    def recording_invariant(c_new, *args):
        kept.append(c_new.copy())
        return invariant(c_new, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(aifv.builder, "transition_matrix", lambda *a: chains.append(a) or tm(*a))
        mp.setattr(aifv.builder, "cost_update_general", recording_update)
        mp.setattr(aifv.builder, "worst_block_invariant", recording_invariant)
        _, report = construct(probs, cfg)
    assert report.converged
    if cfg.n == 1 and report.iterations == 1:
        return  # one mode: the first pass already fixes the costs
    assert len(chains) == report.iterations and len(raw) == report.iterations - 1
    assert report.max_dcost_trace[-1] == 0.0
    assert report.iteration_lbars[-1] == report.iteration_lbars[-2]
    forest, _ = chains[-2]  # the last pass's forest, every tree of it kept
    lengths = [sum(cw.length * probs[s] for s, cw in enumerate(t.codewords))
               for t in forest.trees]
    chain = markov.transition_matrix(forest, probs)
    blocks = markov.block_decompose(chain)
    costs, lbars, _ = markov.cost_update_general(lengths, chain, blocks,
                                                 markov.stationary(chain, blocks))
    assert np.array_equal(costs, raw[-1][0]) and lbars == raw[-1][1]
    assert tuple(lbars) == report.iteration_lbars[-1]
    assert np.array_equal(kept[-1], kept[-2])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(weights=st.lists(st.sampled_from([1, 2, 4]) | st.integers(1, 10 ** 6),
                        min_size=2, max_size=40))
def test_huffman_lengths_are_the_heap_merges(weights):
    """The two-queue merge gives the lengths of one heap over all nodes,
    ties included."""
    probs = tuple(w / sum(weights) for w in weights)
    assert huffman_lengths(probs) == heap_huffman_lengths(probs)


def test_huffman_lengths_on_the_binary_grid_blocks():
    """The eval's block alphabets: every grid source at orders 2, 5, 8."""
    for dist in sources_binary_grid():
        for order in (2, 5, 8):
            blocks = [math.prod(dist.probs[s] for s in block)
                      for block in itertools.product(range(2), repeat=order)]
            assert huffman_lengths(blocks) == heap_huffman_lengths(blocks)


@pytest.mark.parametrize("build", [
    *(pytest.param(lambda p0=p0, n=n: construct((p0, 1 - p0), BuildConfig(n=n)),
                   id=f"p0={p0}-N{n}")
      for p0 in (0.6, 0.75, 0.9, 0.95) for n in (3, 4)),
    pytest.param(lambda: construct(sources_polynomial(5)[2], BuildConfig(n=2)), id="P2-M5-N2"),
    pytest.param(lambda: construct((0.9, 0.1), BuildConfig(n=3, family="aifvm")), id="aifvm3"),
    *(pytest.param(lambda p0=p0: check_g_optimality_binary((p0, 1 - p0), 3), id=f"full3-p0={p0}")
      for p0 in (0.6, 0.9)),
])
def test_warm_start_builds_what_cold_solves_build(build):
    """Seeding each solve with the previous tree's cost changes no
    codebook and no report: the same builds with every tree solved cold
    (with no cutoff: a tree search without ``below``, a split minimum
    below infinity) and the previous tree kept by the retention rule
    alone."""
    forest, report = build()
    solve, split = aifv.builder.solve_ilp, aifv.builder.brute_force_binary
    cold_calls = []

    def cold_solve(model, below=None):
        cold_calls.append(below)
        return solve(model)

    def cold_split(table, probs, costs, below=None):
        cold_calls.append(below)
        return split(table, probs, costs, None if below is None else [math.inf] * len(below))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(aifv.builder, "solve_ilp", cold_solve)
        mp.setattr(aifv.builder, "brute_force_binary", cold_split)
        cold_forest, cold_report = build()
    # every iteration after the first passed a cutoff that was dropped
    assert sum(below is not None for below in cold_calls) >= report.iterations - 1 > 0
    assert format_codebook(forest) == format_codebook(cold_forest)
    assert repr(report) == repr(cold_report)


def test_fixed_point_self_consistency():
    probs = (0.85, 0.15)
    forest, report = construct(probs, BuildConfig(n=2))
    assert report.f_optimal
    # one more full pass from the converged forest reproduces its length
    again, report2 = construct(probs, BuildConfig(n=2, max_iterations=report.iterations + 1))
    assert report2.expected_len == pytest.approx(report.expected_len, abs=1e-14)


def test_g_check_binary():
    forest, report = check_g_optimality_binary((0.75, 0.25), 2)
    assert report.g_checked is True
    _, cont = construct((0.75, 0.25), BuildConfig(n=2))
    assert abs(report.expected_len - cont.expected_len) <= 1e-12


def test_g_check_uniform_binary():
    forest, report = check_g_optimality_binary((0.5, 0.5), 2)
    assert report.g_checked is True
    assert report.expected_len == pytest.approx(1.0, abs=1e-12)


def test_g_check_guards():
    from aifv.builder import BuildError
    with pytest.raises(BuildError):
        check_g_optimality_binary((0.3, 0.3, 0.4), 2)
    with pytest.raises(BuildError):
        check_g_optimality_binary((0.6, 0.4), 4)


def test_huffman_examples():
    f = huffman((0.5, 0.25, 0.25))
    assert [cw.length for cw in f.trees[0].codewords] == [1, 2, 2]
    assert expected_code_length(f, (0.5, 0.25, 0.25)) == pytest.approx(1.5)
    f2 = huffman((0.9, 0.1))
    assert [cw.length for cw in f2.trees[0].codewords] == [1, 1]
    f3 = huffman((0.5625, 0.1875, 0.1875, 0.0625))
    assert [cw.length for cw in f3.trees[0].codewords] == [1, 2, 3, 3]
    assert expected_code_length(f3, (0.5625, 0.1875, 0.1875, 0.0625)) == pytest.approx(1.6875)


def test_expected_code_length_rejects_bad_distribution(demo_forest):
    with pytest.raises(ValueError, match="sum to 1"):
        expected_code_length(demo_forest, [0.5, 0.5, 0.1])
    with pytest.raises(ValueError, match="strictly positive"):
        expected_code_length(demo_forest, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="strictly positive"):
        expected_code_length(demo_forest, [float("nan"), 0.5, 0.5])


def test_tiny_but_nonzero_pivot_builds():
    """The chain of the (1 - 1e-13, 1e-13) source at N=3 reaches its pinned
    tree through a pivot of about 1e-13; only an exactly singular system
    is refused."""
    forest, report = construct((1 - 1e-13, 1e-13), BuildConfig(n=3))
    assert len(forest.trees) == 4
    assert report.converged
    assert report.expected_len == 0.2500000000002374


def test_exactly_singular_chain_names_its_block():
    # 1 - 1e-20 rounds to 1, so a tree's self-loop does too
    with pytest.raises(SingularChainError, match=r"^pinned system of absorbing block 0 "
                                                 r"\(first tree 0\) is singular$"):
        construct((1 - 1e-20, 1e-20), BuildConfig(n=3))


def test_folded_codebook_size():
    probs = (0.9, 0.1)
    forest, _ = construct(probs, BuildConfig(n=3))
    k = len(forest.trees)
    folded = folded_codebook_size(forest)
    assert folded % forest.symbol_count == 0
    assert folded <= k * forest.symbol_count
    mirrored = sum(
        1 for t in forest.trees
        if flip_mode(t.mode).words != t.mode.words
        and flip_mode(t.mode).words in {u.mode.words for u in forest.trees}
    )
    assert folded == (k - mirrored // 2) * forest.symbol_count


def test_delay_monotonicity_spot():
    for p0 in (0.6, 0.8, 0.95):
        probs = (p0, 1 - p0)
        lens = [construct(probs, BuildConfig(n=n))[1].expected_len for n in (1, 2, 3)]
        assert lens[1] <= lens[0] + 1e-12
        assert lens[2] <= lens[1] + 1e-12


def test_rising_worst_block_length_is_a_build_error(monkeypatch, tmp_path, capsys):
    import aifv.builder as builder
    from aifv.builder import BuildError
    from aifv.cli import main
    from aifv.markov import cost_update_general

    calls = []

    def rising(lengths, mat, blocks, pis):
        costs, lbars, j_star = cost_update_general(lengths, mat, blocks, pis)
        calls.append(None)
        return costs, [lb + len(calls) for lb in lbars], j_star

    monkeypatch.setattr(builder, "cost_update_general", rising)
    with pytest.raises(BuildError, match=r"^iteration 2: worst-block expected length "
                                         r"increased from \S+ to \S+$"):
        construct((0.9, 0.1), BuildConfig(n=3))

    dist = tmp_path / "binary.dist"
    dist.write_text("a0 0.9\na1 0.1\n")
    book = tmp_path / "book.aifv"
    capsys.readouterr()
    assert main(["construct", "--dist", str(dist), "-N", "3", "-o", str(book)]) == 2
    assert "error: iteration 2: worst-block expected length increased" in capsys.readouterr().err
    assert not book.exists()


# SHA-256 of format_codebook(forest) + report_record(report) for a small
# build matrix, computed before the tree solver shared its piece lists
# across a build, when the text was repr(report) (report_record renders
# it unchanged); any change to a forest, a trace or a float of a report
# moves one.
# Five were re-pinned when the cost update moved onto successor lists,
# whose inflow sums round differently in max_dcost_trace alone.
OUTPUT_PINS = [
    ((0.6, 0.4), 2, "6f381967837ce18b07bd65f3a8784b877f114532175a3d30e5427f153e01162e"),
    ((0.6, 0.4), 3, "d5e8931716e7cba65148b5c3386e6655dcf08dfbc9d8904a7776bc849033eaae"),
    ((0.6, 0.4), 4, "962d45d81ff31ee0702d8e1cf9b54e3ed3122868824fd82c7eae116607d4586a"),
    ((0.9, 0.1), 2, "094295a1ac4117f3f07f6b892726bd1f873de5790d079d951bb821b3077fba66"),
    ((0.9, 0.1), 3, "6340ecbbe8f68d76c6d64dcb7d2851692eda7abd1ce9f5ac13f9c528488fb9be"),
    ((0.9, 0.1), 4, "f44857a82c1a8a2d5668af03d7d6d8080982016b70355d37ba1ab71d06983a31"),
    ((0.4, 0.25, 0.15, 0.12, 0.08), 3,
     "76bbb0f18c9ef4abf60317bfc0062d3bfda47d23c9591de0b26a61439126ae3e"),
]


@pytest.mark.parametrize("probs, n, digest", OUTPUT_PINS)
def test_build_output_is_pinned(probs, n, digest):
    """Codebook text and report are bit-identical to the pinned builds."""
    forest, report = construct(probs, BuildConfig(n=n))
    text = format_codebook(forest) + report_record(report)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# The same digest for classic m-tree builds, whose sparse link list makes
# a tree's link index differ from the continuous family's index; computed
# before links were carried as search-table indices.
AIFVM_PINS = [
    ((0.9, 0.1), 2, "5c72b8094872b226d283df35dc6f60cd0096346a0719416e28ca0e70e7b4d9a2"),
    ((0.9, 0.1), 3, "cd10c63b25a925d55e06aafc609f7de6a8edf49700b65b96c9962f679c4f774b"),
    ((0.9, 0.1), 4, "06c4dc9d1fc0f977169da7ec36b7ce77767bb913641cf726e7b82479c7ed8f81"),
    ((0.4, 0.25, 0.15, 0.12, 0.08), 2,
     "8e28127bd05d3c5b6795c393f5dfd92237b6b9c1b422c7f9a7af3180928ea7df"),
]


@pytest.mark.parametrize("probs, m, digest", AIFVM_PINS)
def test_aifvm_output_is_pinned(probs, m, digest):
    forest, report = construct(probs, BuildConfig(n=m, family="aifvm"))
    text = format_codebook(forest) + report_record(report)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# The same digest for the full basic family's G-check, computed before
# ``construct`` set ``g_checked`` itself.  The last four were computed
# while the brute force still priced links by word set: tie-prone sources,
# where its first-partition-in-mask-order rule decides the trees, and N=1.
GCHECK_PINS = [
    ((0.9, 0.1), 2, "3b7d182d056af287e4f4dc6129511700767ca8ee1e4f43226e3a4f4963c71dd2"),
    ((0.9, 0.1), 3, "fbfe2bea03e6afce2e976eaef9c0697956a1ea76b38daf37989707122cfeed84"),
    ((0.6, 0.4), 3, "074e8a61882a5a95f9c084a8f8f7f5c9631bd69ea6011082eeb252121941b035"),
    ((0.5, 0.5), 2, "b0c1ed5d1ad567bb8cc58bbc04220b404d2bdacc03601fed5275efdcf8427d56"),
    ((0.5, 0.5), 3, "2a141f449d3e3a053944b9a057912a996e5d566a95b67262bcd6bbda4f8fe914"),
    ((0.75, 0.25), 3, "f89873ffcbe312fceaee33fc385813f7591c9a322d008db24124bd64f9eb1ce9"),
    ((0.9, 0.1), 1, "2a5cd79bd3d1ddf4bafc065a84b6293d8fc9ae7ba4ec3c1c1c1e254c413a25cf"),
]


@pytest.mark.parametrize("probs, n, digest", GCHECK_PINS)
def test_gcheck_output_is_pinned(probs, n, digest):
    forest, report = check_g_optimality_binary(probs, n)
    text = format_codebook(forest) + report_record(report)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_huffman_floor_gcheck_output_is_pinned():
    """The same digest for a G-check started from the Huffman-floor costs,
    computed while the brute force still priced links by word set."""
    forest, report = check_g_optimality_binary((0.9, 0.1), 3,
                                               BuildConfig(n=3, init="huffman-floor"))
    text = format_codebook(forest) + report_record(report)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "85bcd880ee70c4444325d5f10cb1b56f624153a44ebfaa5697e84708229b296a")


# The same digest with ``max_dcost_trace`` emptied, for every build of the
# three lists above, computed before the cost update moved onto successor
# lists: that move may round the cost trace differently, and nothing else.
REDUCED_PINS = [
    ("continuous", (0.6, 0.4), 2,
     "c1dadc5fef2847374363038eeccf93b7a4b067a5a7db2ce99c294c5f343e5aae"),
    ("continuous", (0.6, 0.4), 3,
     "1ceebc8934f8e424db347926c2289e6f241931368288e2d684a372b2a77b6d35"),
    ("continuous", (0.6, 0.4), 4,
     "ab76cc7ce9ee884ac7bde41de64b7e5e8e47316029adcd8c7232e31bdce344ba"),
    ("continuous", (0.9, 0.1), 2,
     "2dbb9102bb1ddcb3aa84e6efdec8d31a26bab516f4ab6c154b4530b1b4bc596e"),
    ("continuous", (0.9, 0.1), 3,
     "52b00e0ca3589c2745bb828cdbc74cc0ca7303c05fcca488ab102c8f7ee46e57"),
    ("continuous", (0.9, 0.1), 4,
     "79411369f4e8c65c2a4eb81fae8b5378b7aa56c2a48ccb5293b2e8cbeff57765"),
    ("continuous", (0.4, 0.25, 0.15, 0.12, 0.08), 3,
     "58e90f64ddd6537527cbc26f1550f54a6d9b15a45066de705c009c27f3879c1c"),
    ("aifvm", (0.9, 0.1), 2,
     "2dbb9102bb1ddcb3aa84e6efdec8d31a26bab516f4ab6c154b4530b1b4bc596e"),
    ("aifvm", (0.9, 0.1), 3,
     "9e79e8d5227b0c20df385a261340f6704600dee1414dfc2d11aeb2fed4dfbd9d"),
    ("aifvm", (0.9, 0.1), 4,
     "0fdf458eae1d60c513ce158e66a1315fd09967277f6f1cef655261bc811d90db"),
    ("aifvm", (0.4, 0.25, 0.15, 0.12, 0.08), 2,
     "6f0979cb98d5c804ddbfb0dce0d0ab537db8995bf2d198dff1139bed141260dd"),
    ("full-binary", (0.9, 0.1), 2,
     "df64e54ad4cb6375eb283e5676b2196e429e604ade5130b9cbd99af330f6945c"),
    ("full-binary", (0.9, 0.1), 3,
     "9d159443c56065782d4d5e011923f3bf5faece60c623ee003cf828d5de9b7765"),
    ("full-binary", (0.6, 0.4), 3,
     "c842b89115f388cb9a008ce266ac4df2a2281363de68a9b3f3fd7d4d86448bd1"),
]


@pytest.mark.parametrize("family, probs, n, digest", REDUCED_PINS)
def test_build_output_but_the_cost_trace_is_pinned(family, probs, n, digest):
    forest, report = construct(probs, BuildConfig(n=n, family=family))
    text = format_codebook(forest) + report_record(replace(report, max_dcost_trace=()))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# Builds with several optimal trees of equal cost, where the tree search
# keeps the one whose pieces come first: the SHA-256 of report_record(report),
# computed while a greedy dive still set each first solve's cutoff and
# sometimes kept another of the tied trees, and of the codebook the
# search without it emits.  N=1 binary gives huffman((0.9, 0.1))'s code.
TIED_PINS = [
    ("continuous", (0.9, 0.1), 1,
     "1ae5c0f7d7bb2e6ed5a4f620f9e45c5e2d8452c291f34f53d1b7c4b0666c0610",
     "276cfd5316015b6bef5659124f697449e0e55d3b5bf5e5fd9bf00c6223db9fff"),
    ("aifvm", (0.51, 0.49), 2,
     "2c6e0e2a405615bc5523d852116f0ac95ea7ebd81c3ba8e071053d4a53cce4e4",
     "f0ca2055e65977d404f2433f8ea7b08c733bcbad2f41ae4d66c69e090211e201"),
    ("continuous", (0.55, 0.45), 4,
     "a8f2cf2f61c70fa107ad75d79261e9a72694ecd521b2ba6d18730cddd982b9fa",
     "52bc78a4a7819557c99a4d462becf4cb16c9374f5b8c0cefc825e69db148a44e"),
    ("continuous", sources_polynomial(3)[0].probs, 1,
     "6a3ab3f8d60fdb42777e5ac5cb170139b9aae2991037d1c5899543f79a829a84",
     "b5a6ec4ffdd8034cf2fc8280ffdffe4dcc6617a4405c2a500914efb4a62d2510"),
]


@pytest.mark.parametrize("family, probs, n, report_digest, codebook_digest", TIED_PINS)
def test_tied_build_is_pinned(family, probs, n, report_digest, codebook_digest):
    forest, report = construct(probs, BuildConfig(n=n, family=family))
    assert hashlib.sha256(report_record(report).encode()).hexdigest() == report_digest
    assert hashlib.sha256(format_codebook(forest).encode()).hexdigest() == codebook_digest


def test_n1_binary_is_the_huffman_code():
    forest, _ = construct((0.9, 0.1), BuildConfig(n=1))
    assert format_codebook(forest) == format_codebook(huffman((0.9, 0.1)))


@pytest.mark.parametrize("probs, n", [((0.9, 0.1), 2), ((0.6, 0.4), 3), ((0.5, 0.5), 1)])
def test_full_binary_construct_is_the_g_check(probs, n):
    """``construct`` over the full family reports the certification the
    G-check reports; the other families leave it unset."""
    forest, report = construct(probs, BuildConfig(n=n, family="full-binary"))
    g_forest, g_report = check_g_optimality_binary(probs, n)
    assert format_codebook(forest) == format_codebook(g_forest)
    assert report == g_report
    assert report.g_checked is True
    for family in ("continuous", "aifvm"):
        assert construct(probs, BuildConfig(n=n, family=family))[1].g_checked is None


def test_full_binary_family_takes_no_depth_bound():
    with pytest.raises(ValueError, match="^the full-binary family takes no depth bound$"):
        BuildConfig(n=2, family="full-binary", max_depth=4)
    with pytest.raises(ValueError, match="full-binary"):
        check_g_optimality_binary((0.9, 0.1), 2, BuildConfig(n=2, max_depth=4))


@pytest.mark.parametrize("tol", [0.0, -1e-14, math.inf, -math.inf, math.nan])
def test_build_config_rejects_a_tolerance_not_finite_and_positive(tol):
    with pytest.raises(ValueError, match="^tolerance must be finite and positive$"):
        BuildConfig(n=3, tolerance=tol)


@pytest.mark.parametrize("limit", [0, -1])
def test_build_config_rejects_an_iteration_limit_below_one(limit):
    with pytest.raises(ValueError, match="^iteration limit must be at least 1$"):
        BuildConfig(n=2, max_iterations=limit)


def test_build_stops_at_the_first_cost_change_within_tolerance():
    """Rebuilt with each cost change of its own trace as the tolerance, a
    build converges at the first iteration whose change is at most that
    value: a change equal to the tolerance stops it."""
    _, report = construct((0.9, 0.1), BuildConfig(n=4))
    trace = report.max_dcost_trace
    for tol in sorted({d for d in trace if d > 0}):
        _, cut = construct((0.9, 0.1), BuildConfig(n=4, tolerance=tol))
        first = next(i for i, d in enumerate(trace, 1) if d <= tol)
        assert cut.converged
        assert cut.iterations == first
        assert cut.max_dcost_trace == trace[:first]
