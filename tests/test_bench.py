import hashlib
import importlib
import importlib.util
import math
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import aifv.bench
from aifv.bench import (
    RangeCodingError,
    SimulationRun,
    TheoreticalRun,
    extended_huffman,
    range_decode,
    range_encode,
    range_lengths,
    rows_to_csv,
    run_simulation,
    run_theoretical,
    sample_inversion,
    scaled_frequencies,
)
from aifv.sources import (
    SourceDistribution,
    entropy,
    relative_redundancy,
    sources_binary_grid,
    sources_polynomial,
)
from oracles import product_extended_huffman, range_decode_reference, range_encode_reference


def test_binary_grid():
    grid = sources_binary_grid()
    assert len(grid) == 49
    assert grid[0].probs == (0.51, 0.49)
    assert grid[-1].probs == (0.99, 0.01)


def test_polynomial_sources_and_entropy_anchors():
    p0, p1, p2 = sources_polynomial(5)
    assert p0.probs == (0.2,) * 5
    assert p1.probs == tuple((i + 1) / 15 for i in range(5))
    assert p2.probs == tuple((i + 1) ** 2 / 55 for i in range(5))
    assert entropy(p0) == pytest.approx(2.3219, abs=5e-5)
    assert entropy(p1) == pytest.approx(2.1493, abs=5e-5)
    assert entropy(p2) == pytest.approx(1.8427, abs=5e-5)


def test_entropy_and_redundancy():
    assert entropy((0.5, 0.5)) == pytest.approx(1.0)
    assert entropy((0.75, 0.25)) == pytest.approx(0.811278, abs=1e-6)
    # 0.84375 / h2(0.75) - 1, evaluated directly
    assert relative_redundancy(0.84375, entropy((0.75, 0.25))) == pytest.approx(
        0.0400256, abs=1e-6)
    with pytest.raises(ValueError):
        relative_redundancy(1.0, 0.0)


def test_extended_huffman_examples():
    assert extended_huffman((0.75, 0.25), 2) == pytest.approx(0.84375)
    assert extended_huffman((0.6, 0.4), 1) == pytest.approx(1.0)
    assert extended_huffman((0.5, 0.5), 3) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        extended_huffman((0.5, 0.5), 25)


def test_extended_huffman_improves_along_divisibility_chain():
    # order kn never beats order n from below: the n-blocks of any order-n
    # code compose into a feasible order-kn code.  (Rates at incomparable
    # orders, e.g. 5 vs 8, genuinely cross for some sources.)
    for p0 in (0.51, 0.64, 0.75, 0.9, 0.99):
        probs = (p0, 1 - p0)
        chain = [extended_huffman(probs, n) for n in (1, 2, 4, 8)]
        for a, b in zip(chain, chain[1:]):
            assert b <= a + 1e-12
        assert extended_huffman(probs, 5) <= chain[0] + 1e-12


@settings(max_examples=300, deadline=None, derandomize=True)
@given(weights=st.lists(st.sampled_from([1, 2, 3]) | st.integers(1, 1000), min_size=2,
                        max_size=6),
       order=st.integers(1, 4))
def test_extended_huffman_is_the_heap_code_over_product_blocks(weights, order):
    """Block probabilities by repeated outer product and the two-queue
    Huffman merge give the heap code's length over blocks multiplied
    along their tuples, bit for bit."""
    probs = tuple(w / sum(weights) for w in weights)
    assert extended_huffman(probs, order) == product_extended_huffman(probs, order)


def test_extended_huffman_on_the_eval_grid_is_the_heap_code():
    for dist in sources_binary_grid():
        for order in (2, 5, 8):
            assert (extended_huffman(dist.probs, order)
                    == product_extended_huffman(dist.probs, order))


def test_scaled_frequencies_total():
    for probs in [(0.5, 0.5), (0.99, 0.01), (0.2,) * 5]:
        freqs = scaled_frequencies(probs)
        assert sum(freqs) == 1 << 16
        assert min(freqs) >= 1


def test_range_round_trip_small():
    rng = random.Random(5)
    for probs in [(0.5, 0.5), (0.9, 0.1), (0.2,) * 5]:
        for _ in range(5):
            n = rng.randrange(0, 200)
            seq = [rng.randrange(len(probs)) for _ in range(n)]
            data = range_encode(probs, seq)
            assert range_decode(probs, data, n) == seq


def test_range_round_trip_long_and_entropy_bound():
    probs = (0.6, 0.3, 0.1)
    seq = [int(s) for s in sample_inversion(probs, 10_000, 7)]
    data = range_encode(probs, seq)
    assert range_decode(probs, data, len(seq)) == seq
    bits_per_sym = 8 * len(data) / len(seq)
    assert bits_per_sym >= entropy(probs) - 1e-9
    assert bits_per_sym <= entropy(probs) + 0.2  # flush overhead only


def test_range_overhead_shrinks_with_length():
    probs = (0.2,) * 5
    h = entropy(probs)
    reds = []
    for size in (32, 128, 512, 2048):
        total = 0.0
        for t in range(40):
            seq = [int(s) for s in sample_inversion(probs, size, 1000 + t)]
            total += 8 * len(range_encode(probs, seq)) / size
        reds.append(total / 40 / h - 1)
    assert reds[0] > reds[-1]


def test_range_coder_rejects_symbols_outside_alphabet_and_negative_count():
    probs = (0.5, 0.5)
    for bad in (-1, 2):
        with pytest.raises(ValueError, match=f"symbol {bad} outside alphabet of 2"):
            range_encode(probs, [0, bad, 1])
    with pytest.raises(ValueError, match="symbol count must not be negative, got -1"):
        range_decode(probs, range_encode(probs, [0, 1]), -1)


def outcome(fn, *args):
    """The value of a call, or the type and message of what it raised."""
    try:
        return fn(*args)
    except RangeCodingError as err:
        return type(err), str(err)


@st.composite
def coded_inputs(draw):
    """A distribution ``scaled_frequencies`` accepts, some of its
    probabilities near the 2**-16 floor, and a message over it."""
    m = draw(st.integers(2, 64))
    weights = draw(st.lists(st.one_of(st.floats(1e-6, 3e-5), st.floats(0.01, 1.0)),
                            min_size=m, max_size=m))
    probs = [w / sum(weights) for w in weights]
    try:
        scaled_frequencies(probs)
    except RangeCodingError:
        assume(False)
    symbols = draw(st.lists(st.integers(0, m - 1), max_size=600))
    return probs, symbols


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=coded_inputs(), data=st.data())
def test_range_coder_matches_object_oracle(case, data):
    """The one-loop coder writes the oracle's bytes, and reads back what
    the oracle reads, or fails as it fails, on the stream, a truncated
    stream, a stream with one byte flipped and no stream at all."""
    probs, symbols = case
    encoded = range_encode(probs, symbols)
    assert encoded == range_encode_reference(probs, symbols)
    cut = data.draw(st.integers(0, len(encoded) - 1), label="cut")
    at = data.draw(st.integers(0, len(encoded) - 1), label="flip at")
    mask = data.draw(st.integers(1, 255), label="flip mask")
    flipped = bytearray(encoded)
    flipped[at] ^= mask
    for stream in (encoded, encoded[:cut], bytes(flipped), b""):
        assert (outcome(range_decode, probs, stream, len(symbols))
                == outcome(range_decode_reference, probs, stream, len(symbols)))


def test_range_encodings_are_pinned():
    """SHA-256 over a seeded matrix of encodings (M 2 to 9, lengths 0 to
    300, one symbol at the frequency floor in a third of the cases), as
    the object coder wrote them."""
    digest = hashlib.sha256()
    for m in (2, 3, 5, 9):
        for seed in (0, 1, 2):
            rng = random.Random(100 * m + seed)
            raw = [rng.uniform(0.01, 1.0) for _ in range(m)]
            if seed == 2:
                raw[-1] = 1e-5 * sum(raw[:-1])
            probs = [x / sum(raw) for x in raw]
            for n in (0, 1, 17, 300):
                encoded = range_encode(probs, rng.choices(range(m), weights=probs, k=n))
                digest.update(len(encoded).to_bytes(4, "big") + encoded)
    assert digest.hexdigest() == (
        "5eabfdc1c46a04480933daa5a247f18ecd7ac1f02b72d1364e85a620345f4305")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=coded_inputs(), data=st.data())
def test_range_lengths_match_range_encode(case, data):
    """For every prefix size asked for, in any order, the walk counts
    the bytes ``range_encode`` writes for each row of an equal-length
    batch, near-floor probabilities included."""
    probs, first = case
    m = len(probs)
    others = data.draw(st.lists(st.lists(st.integers(0, m - 1), min_size=len(first),
                                         max_size=len(first)), max_size=4), label="rows")
    rows = [first] + others
    sizes = data.draw(st.lists(st.integers(0, len(first)), min_size=1, max_size=5,
                               unique=True), label="sizes")
    dtype = data.draw(st.sampled_from((np.uint8, np.int16, np.int64)), label="dtype")
    batch = np.array(rows, dtype=dtype).reshape(len(rows), len(first))
    assert range_lengths(probs, batch, sizes) == [
        [len(range_encode(probs, row[:n])) for row in rows] for n in sizes]


def test_range_lengths_through_the_cut_branch():
    """Two symbols at the 2**-16 frequency floor, drawn a quarter of the
    time each, send ``range_encode``'s loop through its cut branch
    thousands of times in 50 messages of 500 symbols."""
    probs = (1 - 2 / 65536, 1 / 65536, 1 / 65536)
    rows = np.array([sample_inversion((0.5, 0.25, 0.25), 500, seed) for seed in range(50)],
                    dtype=np.uint8)
    sizes = (500, 0, 1, 2, 7, 100, 333, 499)
    assert range_lengths(probs, rows, sizes) == [
        [len(range_encode(probs, row[:n].tolist())) for row in rows] for n in sizes]


def test_range_lengths_reject_what_range_encode_rejects():
    probs = (0.5, 0.5)
    for bad in (-1, 2):
        with pytest.raises(ValueError, match=f"^symbol {bad} outside alphabet of 2$"):
            range_lengths(probs, np.array([[0, 1, 1], [0, bad, 1]]), (3,))
    with pytest.raises(ValueError, match=r"^prefix sizes must lie in 0\.\.3, got \[2, 4\]$"):
        range_lengths(probs, np.zeros((2, 3), dtype=np.uint8), (2, 4))
    with pytest.raises(ValueError, match="^expected a 2-D array of symbols, got 1 dimensions$"):
        range_lengths(probs, np.zeros(3, dtype=np.uint8), (2,))


def test_sample_inversion_draws_prefixes_of_longer_draws():
    """A draw is the prefix of any longer draw with the same seed, which
    lets the simulation draw each trial once, at its longest size."""
    rng = random.Random(3)
    for probs in ((0.3, 0.7), sources_polynomial(5)[2].probs):
        for seed in (0, 1, 7, 12345, 2 ** 40):
            longest = sample_inversion(probs, 2048, seed)
            for n in (0, 1, 31, 32, 33, 128, 1000, 2047, rng.randrange(2048)):
                assert np.array_equal(sample_inversion(probs, n, seed), longest[:n])


def test_sample_inversion_deterministic_and_calibrated():
    a = sample_inversion((0.3, 0.7), 1000, 42)
    b = sample_inversion((0.3, 0.7), 1000, 42)
    assert np.array_equal(a, b)
    big = sample_inversion((0.3, 0.7), 100_000, 9)
    freq = np.bincount(big, minlength=2) / len(big)
    sigma = math.sqrt(0.3 * 0.7 / len(big))
    assert abs(freq[0] - 0.3) <= 3 * sigma


def test_run_theoretical_rows():
    grid = [("p0=0.75", SourceDistribution((0.75, 0.25)))]
    rows = run_theoretical(TheoreticalRun(
        sources=tuple(grid), aifv_delays=(1, 2), aifvm_orders=(2,),
        ext_huffman_orders=(2,),
    ))
    assert len(rows) == 5
    by_coder = {r.coder: r for r in rows}
    assert by_coder["ext-huffman-2"].mean_bits_per_sym == pytest.approx(0.84375)
    assert by_coder["aifv-2"].mean_bits_per_sym <= by_coder["huffman"].mean_bits_per_sym + 1e-12
    assert by_coder["aifv-2"].mean_bits_per_sym == pytest.approx(
        by_coder["aifvm-2"].mean_bits_per_sym, abs=1e-12)
    for r in rows:
        assert r.rel_redundancy >= -1e-12
        assert r.seq_len == 0 and r.trials == 0


def test_run_simulation_rows_and_bounds():
    src = [("demo", SourceDistribution((0.8, 0.2)))]
    cfg = SimulationRun(sources=tuple(src), seq_sizes=(64, 256), trials=30,
                        seed=11, aifv_delays=(2,))
    rows = run_simulation(cfg)
    assert len(rows) == 2 * 3  # huffman, aifv-2, range per size
    h = entropy((0.8, 0.2))
    for r in rows:
        assert r.mean_bits_per_sym >= h - 3 * 0.05  # loose statistical floor
        assert r.trials == 30 and r.seed == 11
    aifv_rows = {r.seq_len: r for r in rows if r.coder == "aifv-2"}
    assert aifv_rows[256].mean_bits_per_sym <= aifv_rows[64].mean_bits_per_sym + 0.05


def test_csv_deterministic():
    src = [("d", SourceDistribution((0.7, 0.3)))]
    cfg = SimulationRun(sources=tuple(src), seq_sizes=(32,), trials=5, seed=3,
                        aifv_delays=(2,))
    a = rows_to_csv(run_simulation(cfg))
    b = rows_to_csv(run_simulation(cfg))
    assert a == b
    assert a.splitlines()[0].startswith("source,coder,N_or_m")


def test_simulation_csv_is_pinned():
    """SHA-256 of the CSV of every coder kind over a binary and an M=5
    source at two sizes, as the simulation wrote it when it still
    encoded every trial to text."""
    cfg = SimulationRun(
        sources=(("p0=0.80", SourceDistribution((0.8, 0.2))),
                 ("P2(M=5)", sources_polynomial(5)[2])),
        seq_sizes=(16, 96), trials=6, seed=7, aifv_delays=(2, 3), aifvm_orders=(2,))
    csv = rows_to_csv(run_simulation(cfg))
    assert len(csv.splitlines()) == 1 + 2 * 2 * 5
    assert hashlib.sha256(csv.encode()).hexdigest() == (
        "b5c442c38a6e530dddba3d28ad9012ea99efd52b952ff0842efe5a620d0b3e28")


def test_simulation_draws_once_per_trial_and_range_codes_once_per_cell(monkeypatch):
    """Each trial of a source is drawn once, at the longest size, and only
    trial 0 of each (source, size) cell goes through ``range_encode``."""
    calls = {"range_encode": 0, "sample_inversion": 0}
    for name in calls:
        real = getattr(aifv.bench, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(aifv.bench, name, counted)
    sources = (("a", SourceDistribution((0.8, 0.2))), ("b", sources_polynomial(3)[2]))
    sizes = (40, 8, 130)
    cfg = SimulationRun(sources=sources, seq_sizes=sizes, trials=7, seed=2, aifv_delays=(2,))
    assert len(run_simulation(cfg)) == len(sources) * len(sizes) * 3
    assert calls == {"range_encode": len(sources) * len(sizes),
                     "sample_inversion": len(sources) * 7}


@pytest.mark.parametrize("fault, message", [
    ("decode", "decode did not return the sequence"),
    ("count", "encode wrote"),
    ("range decode", "decode did not return the sequence"),
    ("range count", "encode wrote"),
])
def test_simulation_names_the_cell_whose_check_fails(monkeypatch, fault, message):
    """Trial 0 of each cell is encoded and decoded in full; a wrong count
    or round trip raises, naming the source, coder, size and trial."""
    coder, _, what = fault.rpartition(" ")
    walk, decoder = {"": ("encoded_lengths", "decode"),
                     "range": ("range_lengths", "range_decode")}[coder]
    real_walk, real_decode = getattr(aifv.bench, walk), getattr(aifv.bench, decoder)

    def bad_decode(code, data, count):
        out = real_decode(code, data, count)
        return out if count != 24 else [1 - out[0]] + out[1:]

    def bad_walk(code, sequences, sizes):
        counts = real_walk(code, sequences, sizes)
        at = list(sizes).index(24)
        counts[at] = [counts[at][0] + 1] + counts[at][1:]
        return counts

    if what == "decode":
        monkeypatch.setattr(aifv.bench, decoder, bad_decode)
    else:
        monkeypatch.setattr(aifv.bench, walk, bad_walk)
    cfg = SimulationRun(sources=(("demo", SourceDistribution((0.8, 0.2))),),
                        seq_sizes=(16, 24), trials=3, seed=5,
                        aifv_delays=() if coder else (2,),
                        include_huffman=False, include_range=bool(coder))
    cell = f"demo, {coder or 'aifv-2'}, size 24, trial 0"
    with pytest.raises(RuntimeError, match=f"^{cell}: {message}"):
        run_simulation(cfg)


def test_traced_names_resolve_to_callables(monkeypatch):
    """Every (module, attribute) the benchmark's tracer wraps by name is
    a callable of the package, so a rename fails here before it fails a
    traced benchmark run."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module_name, attr, *_ in tracing.TRACED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_benchmark_smoke_run_passes():
    """``bench/run.py --smoke`` runs every workload at tiny sizes, traced
    and untraced, through the package as the benchmark calls it; a traced
    function whose signature stops matching its callers fails here."""
    root = Path(__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, str(root / "bench" / "run.py"), "--smoke"],
                         cwd=root, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    assert run.stdout.splitlines()[-1] == '{"smoke": "ok"}'
