import random

import pytest
from hypothesis import example, given, settings, strategies as st

from aifv.bitstrings import (
    BitString,
    CapacityError,
    EMPTY,
    append,
    comparable,
    flipped,
    flip_words,
    is_prefix,
    reduced,
)
from oracles import (
    DyadicInterval,
    common_prefix,
    expand_to_length,
    full_nodes,
    interval_of,
    is_prefix_free,
    merge_intervals,
    strip_prefix,
    trie_reduced,
)

B = BitString.from_text


def words(*texts):
    return frozenset(B(t) for t in texts)


def all_strings(max_len):
    out = [EMPTY]
    for ln in range(1, max_len + 1):
        out.extend(BitString(ln, v) for v in range(1 << ln))
    return out


def definitional_full_nodes(ws, depth_bound):
    """Oracle for the covered-subtree predicate, straight from its definition.

    A prefix is full when every suffix extension is comparable with some
    member; checking extensions out to the depth bound is equivalent
    because members never exceed it.  Restricted to prefixes of members,
    matching the trie the library reports.
    """
    trie = {BitString(ln, w.value >> (w.length - ln)) for w in ws for ln in range(w.length + 1)}
    out = set()
    for p in trie:
        depth = max(depth_bound, p.length)
        exts = expand_to_length([p], depth)
        if all(any(comparable(w, e) for w in ws) for e in exts):
            out.add(p)
    return frozenset(out)


def test_append_examples():
    assert append(B("10"), B("1")) == B("101")
    assert append(EMPTY, B("01")) == B("01")
    # composing per-symbol codewords end to end
    acc = EMPTY
    for part in ("", "101", "01", "", "10"):
        acc = append(acc, B(part))
    assert acc == B("1010110")


def test_append_capacity():
    long = BitString(60, 0)
    with pytest.raises(CapacityError):
        append(long, BitString(10, 0))


def test_strip_prefix_examples():
    assert strip_prefix(B("0"), B("010")) == B("10")
    assert strip_prefix(EMPTY, B("11")) == B("11")
    assert frozenset(strip_prefix(B("0"), w) for w in words("001", "010")) == words("01", "10")
    with pytest.raises(ValueError):
        strip_prefix(B("1"), B("01"))


def test_flip_examples():
    assert flipped(B("011")) == B("100")
    assert flipped(EMPTY) == EMPTY
    assert flip_words(words("01", "1")) == words("10", "0")


def test_flip_involution():
    rng = random.Random(7)
    for _ in range(200):
        ln = rng.randrange(0, 12)
        w = BitString(ln, rng.randrange(1 << ln))
        assert flipped(flipped(w)) == w


def test_prefix_relations():
    assert is_prefix(B("10"), B("101"))
    assert not is_prefix(B("11"), B("10"))
    for w in all_strings(4):
        assert is_prefix(EMPTY, w)
    assert comparable(B("101"), B("10"))
    assert not comparable(B("01"), B("00"))


def test_common_prefix():
    assert common_prefix(words("001", "010")) == B("0")
    assert common_prefix(words("011", "100", "101", "110", "111")) == EMPTY
    assert common_prefix(words("1010")) == B("1010")
    with pytest.raises(ValueError):
        common_prefix(frozenset())


def test_full_nodes_examples():
    assert EMPTY in full_nodes(words("00", "01", "1"))
    assert full_nodes(words("01", "10"), 2) == words("01", "10")
    assert full_nodes(words("010", "011", "10"), 3) == words("01", "010", "011", "10")


def test_full_nodes_matches_definitional_oracle():
    rng = random.Random(21)
    for _ in range(100):
        pool = all_strings(4)[1:]
        ws = frozenset(rng.sample(pool, rng.randrange(1, 6)))
        bound = max(w.length for w in ws)
        assert full_nodes(ws, bound) == definitional_full_nodes(ws, bound)


def test_reduced_examples():
    assert reduced(words("00", "01", "1")) == frozenset({EMPTY})
    assert reduced(words("010", "011", "10")) == words("01", "10")
    assert reduced(words("01", "10")) == words("01", "10")


def test_reduced_idempotent_and_prefix_free():
    rng = random.Random(5)
    for _ in range(200):
        pool = all_strings(4)[1:]
        ws = frozenset(rng.sample(pool, rng.randrange(1, 7)))
        r = reduced(ws)
        assert is_prefix_free(r)
        assert reduced(r) == r


bit_strings = st.integers(0, 8).flatmap(
    lambda ln: st.integers(0, (1 << ln) - 1).map(lambda v: BitString(ln, v)))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(ws=st.frozensets(bit_strings, min_size=1, max_size=24))
@example(ws=words("", "0", "01"))
@example(ws=words("0", "01", "1"))
@example(ws=words("00", "001", "01", "1"))
@example(ws=words("0000", "0001", "001", "01", "11"))
def test_reduced_matches_trie_oracle(ws):
    # sets need not be prefix-free and may hold the empty string
    assert reduced(ws) == trie_reduced(ws)


def test_reduced_rejects_empty_set():
    with pytest.raises(ValueError, match="empty word set"):
        reduced(frozenset())


def test_reduced_unique_on_fixed_length_sets():
    # distinct equal-length leaf sets reduce to distinct sets: exhaustive
    # at n = 3, a seeded 5000-set sample of the 2^16 - 1 sets at n = 4
    n = 3
    leaves = [BitString(n, v) for v in range(1 << n)]
    seen = {}
    for mask in range(1, 1 << len(leaves)):
        ws = frozenset(leaves[i] for i in range(len(leaves)) if mask >> i & 1)
        r = reduced(ws)
        assert r not in seen, f"collision between masks {seen.get(r)} and {mask}"
        seen[r] = mask

    rng = random.Random(4)
    leaves4 = [BitString(4, v) for v in range(16)]
    seen4 = {}
    for mask in rng.sample(range(1, 1 << 16), 5000):
        ws = frozenset(leaves4[i] for i in range(16) if mask >> i & 1)
        r = reduced(ws)
        assert seen4.setdefault(r, mask) == mask
        ws_back = expand_to_length(r, 4)
        assert ws_back == ws  # reduction loses nothing at fixed length


def test_interval_examples():
    assert interval_of(EMPTY) == DyadicInterval(0, 1, 0)
    assert interval_of(B("10")) == DyadicInterval(2, 3, 2)  # [1/2, 3/4)
    assert interval_of(B("001")) == DyadicInterval(1, 2, 3)  # [1/8, 1/4)


def test_interval_nesting_and_disjointness():
    rng = random.Random(11)
    for _ in range(200):
        ln = rng.randrange(0, 8)
        w = BitString(ln, rng.randrange(1 << ln))
        ext_len = rng.randrange(1, 4)
        tail = BitString(ext_len, rng.randrange(1 << ext_len))
        inner = interval_of(append(w, tail))
        assert interval_of(w).contains(inner)
        assert inner != interval_of(w)
    a = interval_of(append(B("0"), B("1")))
    b = interval_of(append(B("1"), B("0")))
    assert not a.overlaps(b)


def test_prefix_free_intervals_disjoint():
    rng = random.Random(13)
    for _ in range(100):
        pool = all_strings(5)[1:]
        ws = frozenset(rng.sample(pool, rng.randrange(2, 8)))
        if not is_prefix_free(ws):
            continue
        ivs = [interval_of(w) for w in ws]
        for i, a in enumerate(ivs):
            for b in ivs[i + 1:]:
                assert not a.overlaps(b)


def test_merge_intervals():
    got = merge_intervals([interval_of(B("01")), interval_of(B("1"))])
    assert got == (DyadicInterval(1, 4, 2),)
    got = merge_intervals([interval_of(B("0")), interval_of(B("10"))])
    assert got == (DyadicInterval(0, 3, 2),)
    got = merge_intervals([interval_of(B("00")), interval_of(B("11"))])
    assert got == (DyadicInterval(0, 1, 2), DyadicInterval(3, 4, 2))
