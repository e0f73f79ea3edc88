import random
import re

import pytest

from aifv.bitstrings import BitString, EMPTY
from aifv.modes import (
    ContinuousModeId,
    Mode,
    enumerate_basic_modes,
    enumerate_continuous_ids,
    flip_mode,
    is_basic_mode,
    mode_from_id,
)
from oracles import (
    DyadicInterval,
    expand_to_length,
    flip_id,
    id_interval,
    id_of_mode,
    leaf_number,
    mode_from_leaves,
    mode_interval,
)

B = BitString.from_text


def mode_of(n, *texts):
    return Mode(frozenset(B(t) for t in texts), n)


def test_basic_mode_counts():
    assert len(enumerate_basic_modes(1)) == 1
    assert len(enumerate_basic_modes(2)) == 9
    assert len(enumerate_basic_modes(3)) == 225
    with pytest.raises(ValueError):
        enumerate_basic_modes(5)


def test_basic_modes_n1():
    (only,) = enumerate_basic_modes(1)
    assert only.words == frozenset({EMPTY})


def test_basic_modes_n2_family():
    got = {m.render() for m in enumerate_basic_modes(2)}
    assert got == {
        "-", "01,1", "0,10", "00,1", "0,11",
        "01,10", "00,11", "00,10", "01,11",
    }


def test_every_enumerated_mode_is_basic():
    for n in (1, 2, 3):
        for m in enumerate_basic_modes(n):
            assert is_basic_mode(m.words, n)


def test_continuous_id_counts():
    assert len(enumerate_continuous_ids(1)) == 1
    assert len(enumerate_continuous_ids(2)) == 4
    assert len(enumerate_continuous_ids(3)) == 16
    assert enumerate_continuous_ids(1) == [ContinuousModeId(0, 0)]


def test_leaf_numbering_oracle():
    # by the two side formulas: '0'-side reads the tail, '1'-side its flip
    assert leaf_number(B("00")) == 0
    assert leaf_number(B("01")) == 1
    assert leaf_number(B("10")) == 1
    assert leaf_number(B("11")) == 0
    assert leaf_number(B("010")) == 2
    assert leaf_number(B("110")) == 1
    assert leaf_number(B("111")) == 0


def test_mode_from_id_examples():
    assert mode_from_id(2, ContinuousModeId(0, 0)).words == frozenset({EMPTY})
    assert mode_from_id(4, ContinuousModeId(0, 0)).words == frozenset({EMPTY})
    assert mode_from_id(2, ContinuousModeId(1, 0)) == mode_of(2, "01", "1")
    assert mode_from_id(3, ContinuousModeId(2, 1)) == mode_of(3, "01", "10", "110")


def test_mode_from_id_matches_leaf_oracle():
    # every id up to n = 6, a seeded sample at n = 7 and 8
    rng = random.Random(8)
    for n in range(1, 9):
        ids = enumerate_continuous_ids(n)
        if n > 6:
            ids = rng.sample(ids, 64)
        for cid in ids:
            assert mode_from_id(n, cid) == mode_from_leaves(n, cid), (n, cid)


def test_mode_from_id_range_check():
    for n, cid in ((1, ContinuousModeId(1, 0)), (3, ContinuousModeId(0, 4)),
                   (3, ContinuousModeId(-1, 0))):
        with pytest.raises(ValueError, match=re.escape(f"id {cid} out of range for delay {n}")):
            mode_from_id(n, cid)


def test_id_of_mode_examples():
    assert id_of_mode(mode_of(2, "")) == ContinuousModeId(0, 0)
    got = id_of_mode(mode_of(2, "01", "10"))
    assert got == ContinuousModeId(1, 1)
    assert id_interval(2, got) == DyadicInterval(1, 3, 2)  # [1/4, 3/4)
    assert id_of_mode(mode_of(2, "00", "11")) is None
    with pytest.raises(ValueError):
        id_of_mode(mode_of(2, "0"))  # one-sided set is not basic


def test_id_round_trips():
    for n in (1, 2, 3):
        for cid in enumerate_continuous_ids(n):
            mode = mode_from_id(n, cid)
            assert id_of_mode(mode) == cid
        for mode in enumerate_basic_modes(n):
            cid = id_of_mode(mode)
            if cid is not None:
                assert mode_from_id(n, cid) == mode


def test_mode_interval_examples():
    assert mode_interval(mode_of(1, "")) == (DyadicInterval(0, 1, 0),)
    assert mode_interval(mode_of(2, "01", "1")) == (DyadicInterval(1, 4, 2),)
    assert mode_interval(mode_of(2, "0", "10")) == (DyadicInterval(0, 3, 2),)


def test_continuous_interval_identity():
    for n in (1, 2, 3, 4):
        for cid in enumerate_continuous_ids(n):
            ivs = mode_interval(mode_from_id(n, cid))
            assert ivs == (id_interval(n, cid),)


def test_flip_mode_examples():
    assert flip_mode(mode_of(2, "01", "1")) == mode_of(2, "10", "0")
    assert flip_mode(mode_of(1, "")) == mode_of(1, "")
    m = mode_from_id(2, ContinuousModeId(1, 0))
    assert id_of_mode(flip_mode(m)) == ContinuousModeId(0, 1)
    assert flip_id(ContinuousModeId(1, 0)) == ContinuousModeId(0, 1)


def test_flip_mode_involution_and_closure():
    for n in (2, 3):
        family = set(enumerate_basic_modes(n))
        for m in family:
            fm = flip_mode(m)
            assert fm in family
            assert flip_mode(fm) == m


def test_flip_matches_id_swap():
    rng = random.Random(3)
    for n in (2, 3, 4):
        ids = enumerate_continuous_ids(n)
        for cid in rng.sample(ids, min(len(ids), 8)):
            assert id_of_mode(flip_mode(mode_from_id(n, cid))) == flip_id(cid)


def test_mode_expansion_covers_both_sides():
    for n in (2, 3):
        for m in enumerate_basic_modes(n):
            leaves = expand_to_length(m.words, n)
            sides = {w.bit(0) for w in leaves}
            assert sides == {0, 1}
