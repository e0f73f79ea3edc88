import itertools
import logging
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aifv.bitstrings import BitString
from aifv.builder import BuildConfig, construct, huffman
from aifv.forest import (
    CodeForest,
    CodeTree,
    DecodeError,
    decode,
    decoding_delay_bound,
    encode,
    encoded_lengths,
    expansions,
    flip_tree,
    format_codebook,
    pack_bits,
    parse_codebook,
    unpack_bits,
    validate_full,
    validate_rule1,
)
from aifv.modes import enumerate_basic_modes, flip_mode
from aifv.sources import sources_polynomial
from conftest import make_tree
from oracles import interval_of, merge_intervals

B = BitString.from_text


def texts(ws):
    return {w.text for w in ws}


def rule1_by_intervals(forest):
    """Rules 1a and 1b in interval form, per tree: (the cells of the
    expansions, one per symbol occurrence, are pairwise disjoint; each
    lies inside the union of the cells of the tree's mode)."""
    out = []
    for k, tree in enumerate(forest.trees):
        per, _ = expansions(forest, k)
        ivs = [interval_of(w) for ws in per for w in ws]
        disjoint = all(not a.overlaps(b) for a, b in itertools.combinations(ivs, 2))
        mode_union = merge_intervals(interval_of(q) for q in tree.mode.words)
        contained = all(any(mi.contains(iv) for mi in mode_union) for iv in ivs)
        out.append((disjoint, contained))
    return out


def assert_rule1_forms_agree(forest):
    """Each tree's Rule 1a and 1b hold in interval form exactly when the
    string check names no break of that rule for the tree."""
    issues = validate_rule1(forest)
    assert rule1_by_intervals(forest) == [
        tuple(not any(msg.startswith(f"tree {k}: Rule {rule}:") for msg in issues)
              for rule in ("1a", "1b"))
        for k in range(len(forest.trees))
    ]


def test_expansions_worked_example(demo_forest):
    per, union = expansions(demo_forest, 0)
    assert texts(per[0]) == {"011", "10"}
    assert texts(per[1]) == {"00", "010"}
    assert texts(per[2]) == {"11"}
    per, union = expansions(demo_forest, 2)
    assert texts(union) == {"00", "0100", "0101", "011", "10"}


def test_validate_rule1_passes_demo(demo_forest):
    assert validate_rule1(demo_forest) == []
    assert_rule1_forms_agree(demo_forest)


def test_validate_full_demo(demo_forest):
    report = validate_full(demo_forest)
    assert report.ok


def test_rule1a_collision_detected():
    # two symbols sharing the empty codeword and the empty-mode link
    t = make_tree(2, [""], [("", 0), ("", 0)])
    bad = CodeForest((t,), 2)
    assert any("Rule 1a" in msg for msg in validate_rule1(bad))
    assert_rule1_forms_agree(bad)


@st.composite
def small_forests(draw):
    """Forests of one to three trees over basic modes of delay at most 3,
    with random codewords of up to three bits and random links."""
    n = draw(st.integers(1, 3))
    modes = enumerate_basic_modes(n)
    m = draw(st.integers(1, 3))
    k_total = draw(st.integers(1, 3))
    codeword = st.builds(lambda ln, v: BitString(ln, v % (1 << ln)),
                         st.integers(0, 3), st.integers(0, 7))
    trees = tuple(
        CodeTree(tuple(draw(st.lists(codeword, min_size=m, max_size=m))),
                 tuple(draw(st.lists(st.integers(0, k_total - 1), min_size=m, max_size=m))),
                 draw(st.sampled_from(modes)))
        for _ in range(k_total)
    )
    return CodeForest(trees, n)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(forest=small_forests())
# Rule 1a broken: two symbols share codeword and link
@example(forest=CodeForest((make_tree(2, [""], [("", 0), ("", 0)]),), 2))
# Rule 1b broken: tree 1's expansion '00' has no prefix in its mode {01, 1}
@example(forest=CodeForest((make_tree(2, [""], [("0", 0), ("1", 1)]),
                            make_tree(2, ["01", "1"], [("00", 0), ("1", 0)])), 2))
def test_rule1_string_form_matches_interval_form(forest):
    assert_rule1_forms_agree(forest)


def test_rule1c_overlong_mode_detected():
    t0 = make_tree(2, [""], [("0", 0), ("1", 1)])
    t1 = make_tree(2, ["011", "10"], [("10", 0), ("011", 0)])
    bad = CodeForest((t0, t1), 2)
    issues = validate_rule1(bad)
    assert any(msg.startswith("tree 1: Rule 1c:") for msg in issues)


def test_huffman_style_forest_is_full():
    t = make_tree(1, [""], [("0", 0), ("10", 0), ("11", 0)])
    forest = CodeForest((t,), 1)
    assert validate_rule1(forest) == []
    assert validate_full(forest).ok
    assert decoding_delay_bound(forest) == 0


def test_missing_leaf_not_full():
    t = make_tree(1, [""], [("0", 0), ("10", 0)])
    forest = CodeForest((t,), 1)
    assert validate_rule1(forest) == []
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


def decode_reference(forest, bits, count):
    """Reference decoder: for each symbol of the current tree, match its
    codeword, then any query of its linked tree's mode, as separate
    string scans."""
    if count < 0:
        raise ValueError(f"symbol count must not be negative, got {count}")

    def query_matches(mode, pos):
        return any(bits.startswith(q.text, pos) for q in mode.words)

    out = []
    k = 0
    pos = 0
    for _ in range(count):
        tree = forest.trees[k]
        match = None
        for s in range(forest.symbol_count):
            cw = tree.codewords[s]
            if not bits.startswith(cw.text, pos):
                continue
            if query_matches(forest.trees[tree.links[s]].mode, pos + cw.length):
                if match is not None:
                    raise DecodeError(
                        f"ambiguous decode at bit {pos}: symbols {match} and {s} "
                        f"both match (forest violates prefix-freeness)"
                    )
                match = s
        if match is None:
            raise DecodeError(f"no symbol matches at bit {pos} in tree {k}")
        pos += tree.codewords[match].length
        k = tree.links[match]
        out.append(match)
    return out


def outcome(codec, *args):
    try:
        return codec(*args)
    except (DecodeError, ValueError) as e:
        return type(e), str(e)


def encode_reference(forest, symbols):
    """Reference encoder: each symbol's codeword text formatted as it is
    met, then the termination codeword (the shortest query of the final
    tree's mode, ties broken lexicographically)."""
    out = []
    k = 0
    for s in symbols:
        if not 0 <= s < forest.symbol_count:
            raise ValueError(f"symbol {s} outside alphabet of {forest.symbol_count}")
        tree = forest.trees[k]
        out.append(tree.codewords[s].text)
        k = tree.links[s]
    mode = forest.trees[k].mode
    out.append(min(mode.words, key=lambda w: (w.length, w.text)).text)
    return "".join(out)


@pytest.fixture(scope="module")
def codec_forests(demo_forest, binary_forest):
    """Forests of every shape the decoder meets: multi-tree binary and
    ternary, a one-tree Huffman code, the delay-4 binary forest with six
    empty codewords, so runs of steps that consume no bits, and two that
    break Rule 1a, the second with three symbols matching at once; and a
    one-symbol code whose only codeword is empty, so every run of empty
    codewords cycles."""
    p2 = sources_polynomial(3)[2]
    return (
        demo_forest,
        binary_forest,
        construct(p2, BuildConfig(n=2))[0],
        huffman(sources_polynomial(4)[1]),
        construct((0.9, 0.1), BuildConfig(n=4))[0],
        CodeForest((make_tree(2, [""], [("", 0), ("", 0)]),), 2),
        CodeForest((make_tree(2, [""], [("1", 0), ("", 0), ("", 0), ("0", 0)]),), 2),
        CodeForest((make_tree(2, [""], [("", 0)]),), 2),
    )


def messages(forest):
    """Short messages, long ones whose windows repeat, and streams long
    enough for the decoder to widen its windows on every forest whose
    codewords are not all empty (the delay-4 forest needs about 4000
    symbols)."""
    symbol = st.integers(0, forest.symbol_count - 1)
    return st.one_of(st.lists(symbol, max_size=20),
                     st.lists(symbol, min_size=200, max_size=260),
                     st.builds(lambda rng, n: [rng.randrange(forest.symbol_count)
                                               for _ in range(n)],
                               st.randoms(use_true_random=False), st.integers(4000, 4400)))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.data())
def test_decoder_matches_reference(codec_forests, data):
    """Equal symbols, or the same error with the same message, on intact,
    truncated (also within the widened window of the end), bit-flipped
    and suffixed streams and on streams shorter than tree 0's widest
    expansion, one symbol short, exact and one symbol over."""
    forest = data.draw(st.sampled_from(codec_forests))
    message = data.draw(messages(forest))
    bits = encode(forest, message)
    damage = data.draw(st.sampled_from(("intact", "truncated", "flipped", "suffixed", "short")))
    if damage == "truncated":
        # anywhere, or inside the last W_max + e bits, where windows are
        # cut short (e is below the bit length of the stream's size)
        widest = max((w.length for k in range(len(forest.trees))
                      for w in expansions(forest, k)[1]), default=0)
        last = max(0, len(bits) - 1)
        bits = bits[:data.draw(st.one_of(
            st.integers(0, last),
            st.integers(max(0, len(bits) - widest - len(bits).bit_length()), last)))]
    elif damage == "short":
        widest = max(w.length for w in expansions(forest, 0)[1])
        bits = bits[:data.draw(st.integers(0, max(0, widest - 1)))]
    elif damage == "flipped" and bits:
        i = data.draw(st.integers(0, len(bits) - 1))
        bits = bits[:i] + "10"[int(bits[i])] + bits[i + 1:]
    elif damage == "suffixed":
        bits += data.draw(st.text("01", max_size=12))
    count = len(message) + data.draw(st.integers(-1, 1))
    assert (outcome(decode, forest, bits, count)
            == outcome(decode_reference, forest, bits, count))


def test_decode_logs_one_line_per_call(codec_forests, demo_forest, caplog):
    """One DEBUG line per call, read off the memos: symbols, stream bits,
    the widening e, runs built and single-step windows matched.  A
    4000-symbol stream widens on every forest that emits bits, and its
    runs stay within the bound the widening keeps, 1/32 of the bits; the
    worked example is too short to widen."""
    pattern = re.compile(r"decode symbols=(\d+) bits=(\d+) widening=(\d+) runs=(\d+) steps=(\d+)")
    rng = random.Random(5)
    caplog.set_level(logging.DEBUG, logger="aifv.forest")
    for forest in codec_forests:
        if validate_rule1(forest) or not any(
                cw.length for t in forest.trees for cw in t.codewords):
            continue
        message = [rng.randrange(forest.symbol_count) for _ in range(4000)]
        bits = encode(forest, message)
        caplog.clear()
        assert decode(forest, bits, len(message)) == message
        (record,) = caplog.records
        symbols, n_bits, e, runs, steps = map(int, pattern.fullmatch(record.getMessage()).groups())
        assert (symbols, n_bits) == (len(message), len(bits))
        assert e >= 1 and 1 <= runs <= n_bits // 32 and steps >= 1
    caplog.clear()
    decode(demo_forest, "1010110", 4)
    assert caplog.records[0].getMessage() == "decode symbols=4 bits=7 widening=0 runs=4 steps=4"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_encoder_matches_reference(codec_forests, data):
    """Equal text, or ValueError with the same message, also for the empty
    message and with an out-of-range symbol at any position."""
    forest = data.draw(st.sampled_from(codec_forests))
    message = data.draw(messages(forest))
    if data.draw(st.booleans()):
        bad = data.draw(st.one_of(st.integers(max_value=-1),
                                  st.integers(min_value=forest.symbol_count)))
        message.insert(data.draw(st.integers(0, len(message))), bad)
    assert encode(forest, []) == encode_reference(forest, [])
    assert outcome(encode, forest, message) == outcome(encode_reference, forest, message)


@pytest.fixture(scope="module")
def walk_forests(demo_forest, binary_forest):
    """A one-tree Huffman code, continuous and m-tree forests at N <= 3,
    an M=5 forest, and the worked forest with its empty codeword."""
    return (
        huffman(sources_polynomial(4)[1]),
        binary_forest,
        construct((0.7, 0.3), BuildConfig(n=2))[0],
        construct((0.8, 0.2), BuildConfig(n=3, family="aifvm"))[0],
        construct(sources_polynomial(5)[2], BuildConfig(n=2))[0],
        demo_forest,
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_encoded_lengths_match_encode(walk_forests, data):
    """For each prefix size asked for, in any order, one count per row,
    each the length of the encoded text of that row's prefix, for any
    integer dtype and for arrays of one row or one column."""
    forest = data.draw(st.sampled_from(walk_forests))
    n_rows = data.draw(st.integers(1, 6))
    n_cols = data.draw(st.one_of(st.just(1), st.integers(0, 70)))
    rows = data.draw(st.lists(st.lists(st.integers(0, forest.symbol_count - 1),
                                       min_size=n_cols, max_size=n_cols),
                              min_size=n_rows, max_size=n_rows))
    dtype = data.draw(st.sampled_from((np.uint8, np.int16, np.int64)))
    array = np.array(rows, dtype=dtype).reshape(n_rows, n_cols)
    sizes = data.draw(st.lists(st.integers(0, n_cols), min_size=1, max_size=4, unique=True))
    assert encoded_lengths(forest, array, sizes) == [
        [len(encode(forest, row[:n])) for row in rows] for n in sizes]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_encoded_lengths_reject_symbols_outside_the_alphabet(walk_forests, data):
    """The first symbol outside the alphabet, in row order, raises the
    ValueError that ``encode`` raises on its row."""
    forest = data.draw(st.sampled_from(walk_forests))
    n_rows, n_cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 12))
    rows = [[data.draw(st.integers(0, forest.symbol_count - 1)) for _ in range(n_cols)]
            for _ in range(n_rows)]
    for _ in range(data.draw(st.integers(1, 3))):
        bad = data.draw(st.one_of(st.integers(-300, -1),
                                  st.integers(forest.symbol_count, 300)))
        rows[data.draw(st.integers(0, n_rows - 1))][data.draw(st.integers(0, n_cols - 1))] = bad
    first_bad_row = next(row for row in rows
                         if any(not 0 <= s < forest.symbol_count for s in row))
    with pytest.raises(ValueError) as expected:
        encode(forest, first_bad_row)
    with pytest.raises(ValueError) as got:
        encoded_lengths(forest, np.array(rows), [n_cols])
    assert str(got.value) == str(expected.value)


def test_decode_short_count_stops_early(demo_forest):
    bits = encode(demo_forest, [0, 2, 1, 0])
    assert decode(demo_forest, bits, 3) == [0, 2, 1]


def test_decode_rejects_negative_count(demo_forest):
    bits = encode(demo_forest, [0, 2, 1, 0])
    assert decode(demo_forest, bits, 0) == []
    with pytest.raises(ValueError, match="must not be negative"):
        decode(demo_forest, bits, -1)


def test_delay_bound_examples(demo_forest):
    assert decoding_delay_bound(demo_forest) == 3


def test_delay_bound_within_n(demo_forest):
    assert validate_rule1(demo_forest) == []
    assert decoding_delay_bound(demo_forest) <= demo_forest.n


def test_flip_forest_preserves_rules(demo_forest):
    # append bit-flipped copies of trees 1..4, links remapped into the copies
    remap = [0, 5, 6, 7, 8]
    trees = demo_forest.trees
    flipped_trees = tuple(flip_tree(trees[k], remap, flip_mode(trees[k].mode))
                          for k in (1, 2, 3, 4))
    augmented = CodeForest(trees + flipped_trees, 3)
    assert validate_rule1(augmented) == []
    inverse = [0] * len(augmented.trees)
    for k, v in enumerate(remap):
        inverse[v] = k
    for k, fl in zip((1, 2, 3, 4), flipped_trees):
        assert flip_tree(fl, inverse, trees[k].mode) == trees[k]
        for cw, fcw in zip(trees[k].codewords, fl.codewords):
            assert cw.length == fcw.length


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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(bits=st.text("01", max_size=200))
def test_pack_bits_round_trip(bits):
    """One byte per started eight bits, the bits first, zeros after."""
    packed = pack_bits(bits)
    assert len(packed) == -(-len(bits) // 8)
    unpacked = unpack_bits(packed)
    assert unpacked[:len(bits)] == bits
    assert unpacked[len(bits):] == "0" * (8 * len(packed) - len(bits))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(bits=st.text("01", max_size=40), bad=st.characters(blacklist_characters="01"),
       data=st.data())
def test_pack_bits_rejects_non_bits(bits, bad, data):
    at = data.draw(st.integers(0, len(bits)))
    with pytest.raises(ValueError, match="not a bit string"):
        pack_bits(bits[:at] + bad + bits[at:])


# int(..., 2) accepts a digit separator, surrounding whitespace and
# non-ASCII digits
@pytest.mark.parametrize("text", ["1_0", " 1", "1\n", "0\u0661"])
def test_pack_bits_rejects_int_literal_extras(text):
    with pytest.raises(ValueError, match="not a bit string"):
        pack_bits(text)
