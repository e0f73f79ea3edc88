import random

import pytest
from hypothesis import given, settings, strategies as st

from aifv.bitstrings import BitString
from aifv.builder import BuildConfig, construct
from aifv.forest import (
    CodeForest,
    DecodeError,
    decode,
    decoding_delay_bound,
    encode,
    expansions,
    flip_tree,
    format_codebook,
    pack_bits,
    parse_codebook,
    unpack_bits,
    validate_full,
    validate_rule1,
)
from conftest import make_tree

B = BitString.from_text


def texts(ws):
    return {w.text for w in ws}


def test_expansions_worked_example(demo_forest):
    per, union = expansions(demo_forest, 0)
    assert texts(per[0]) == {"011", "10"}
    assert texts(per[1]) == {"00", "010"}
    assert texts(per[2]) == {"11"}
    per, union = expansions(demo_forest, 2)
    assert texts(union) == {"00", "0100", "0101", "011", "10"}


def test_validate_rule1_passes_demo(demo_forest):
    report = validate_rule1(demo_forest)
    assert report.ok
    assert all(c.interval_consistent for c in report.per_tree)
    assert report.issues == []


def test_validate_full_demo(demo_forest):
    report = validate_full(demo_forest)
    assert report.ok


def test_rule1a_collision_detected():
    # two symbols sharing the empty codeword and the empty-mode link
    t = make_tree(2, [""], [("", 0), ("", 0)])
    bad = CodeForest((t,), 2)
    report = validate_rule1(bad)
    assert not report.ok
    assert any("Rule 1a" in msg for msg in report.issues)
    assert all(c.interval_consistent for c in report.per_tree)


def test_rule1c_overlong_mode_detected():
    t0 = make_tree(2, [""], [("0", 0), ("1", 1)])
    t1 = make_tree(2, ["011", "10"], [("10", 0), ("011", 0)])
    bad = CodeForest((t0, t1), 2)
    report = validate_rule1(bad)
    assert not report.per_tree[1].basic_mode
    assert any("Rule 1c" in msg for msg in report.issues)


def test_huffman_style_forest_is_full():
    t = make_tree(1, [""], [("0", 0), ("10", 0), ("11", 0)])
    forest = CodeForest((t,), 1)
    assert validate_rule1(forest).ok
    assert validate_full(forest).ok
    assert decoding_delay_bound(forest) == 0


def test_missing_leaf_not_full():
    t = make_tree(1, [""], [("0", 0), ("10", 0)])
    forest = CodeForest((t,), 1)
    assert validate_rule1(forest).ok
    report = validate_full(forest)
    assert not report.per_tree[0]


def test_encode_worked_example(demo_forest):
    assert encode(demo_forest, [0, 2, 1, 0]) == "1010110"


def test_encode_empty_and_single(demo_forest):
    assert encode(demo_forest, []) == ""
    assert encode(demo_forest, [0]) == "10"


def test_decode_worked_example(demo_forest):
    assert decode(demo_forest, "1010110", 4) == [0, 2, 1, 0]
    assert decode(demo_forest, "", 0) == []


def test_termination_guards_against_suffixes(demo_forest):
    # without the termination codeword a trailing '11' flips the last symbol
    assert decode(demo_forest, "10101" + "11", 4) == [0, 2, 1, 2]
    # with it, any suffix is harmless
    assert decode(demo_forest, "1010110" + "11", 4) == [0, 2, 1, 0]


def test_decode_ambiguity_raises():
    t = make_tree(2, [""], [("", 0), ("", 0)])
    bad = CodeForest((t,), 2)
    with pytest.raises(DecodeError, match="ambiguous"):
        decode(bad, "0", 1)


def test_decode_truncation_raises(demo_forest):
    with pytest.raises(DecodeError):
        decode(demo_forest, "11", 2)  # second symbol has nothing to match


@pytest.fixture(scope="module")
def binary_forest():
    """The optimal delay-3 forest of the p0=0.9 binary source."""
    return construct((0.9, 0.1), BuildConfig(n=3))[0]


def test_decode_empty_stream_raises(binary_forest):
    # the first symbol's codeword and lookahead are both missing
    with pytest.raises(DecodeError):
        decode(binary_forest, "", 1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_truncated_stream_raises_or_round_trips(binary_forest, demo_forest, data):
    forest = data.draw(st.sampled_from((binary_forest, demo_forest)))
    message = data.draw(st.lists(st.integers(0, forest.symbol_count - 1), max_size=20))
    bits = encode(forest, message)
    cut = data.draw(st.integers(0, max(0, len(bits) - 1)))
    try:
        out = decode(forest, bits[:cut], len(message))
    except DecodeError:
        return
    assert out == message


def test_decode_short_count_stops_early(demo_forest):
    bits = encode(demo_forest, [0, 2, 1, 0])
    assert decode(demo_forest, bits, 3) == [0, 2, 1]


def test_delay_bound_examples(demo_forest):
    assert decoding_delay_bound(demo_forest) == 3


def test_delay_bound_within_n(demo_forest):
    report = validate_rule1(demo_forest)
    assert report.ok
    assert decoding_delay_bound(demo_forest) <= demo_forest.n


def test_flip_forest_preserves_rules(demo_forest):
    # append bit-flipped copies of trees 1..4, links remapped into the copies
    remap = {0: 0, 1: 5, 2: 6, 3: 7, 4: 8}
    flipped_trees = tuple(flip_tree(demo_forest.trees[k], remap) for k in (1, 2, 3, 4))
    augmented = CodeForest(demo_forest.trees + flipped_trees, 3)
    assert validate_rule1(augmented).ok
    inverse = {v: k for k, v in remap.items()}
    for k in (1, 2, 3, 4):
        again = flip_tree(flip_tree(demo_forest.trees[k], remap), inverse)
        assert again == demo_forest.trees[k]
    for orig, fl in zip((1, 2, 3, 4), flipped_trees):
        for cw, fcw in zip(demo_forest.trees[orig].codewords, fl.codewords):
            assert cw.length == fcw.length


def test_flip_tree_missing_remap(demo_forest):
    with pytest.raises(ValueError, match="remap"):
        flip_tree(demo_forest.trees[1], {0: 0})


def test_round_trip_exhaustive_short_sequences(demo_forest):
    import itertools

    for length in range(0, 6):
        for seq in itertools.product(range(3), repeat=length):
            bits = encode(demo_forest, seq)
            assert decode(demo_forest, bits, length) == list(seq)


def test_round_trip_random_sequences(demo_forest):
    rng = random.Random(99)
    for _ in range(300):
        seq = [rng.randrange(3) for _ in range(rng.randrange(0, 13))]
        bits = encode(demo_forest, seq)
        assert decode(demo_forest, bits, len(seq)) == seq
        junk = "".join(rng.choice("01") for _ in range(rng.randrange(0, 9)))
        assert decode(demo_forest, bits + junk, len(seq)) == seq


def test_codebook_round_trip(demo_forest):
    text = format_codebook(demo_forest)
    assert text.splitlines()[0] == "AIFV1 N=3 M=3 K=5"
    back = parse_codebook(text)
    assert back == demo_forest


def test_codebook_rejects_garbage():
    from aifv.forest import CodebookError
    with pytest.raises(CodebookError):
        parse_codebook("nonsense")
    with pytest.raises(CodebookError):
        parse_codebook("AIFV1 N=2 M=2 K=1\nTREE 0 MODE -\nSYM 0 CODE 0 LINK 0\n")


def test_bit_packing():
    bits = "1010110"
    assert pack_bits(bits) == bytes([0b10101100])
    assert unpack_bits(pack_bits(bits)).startswith(bits)
    assert pack_bits("") == b""
    long = "1" * 16 + "01"
    assert unpack_bits(pack_bits(long))[:18] == long
