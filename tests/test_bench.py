import importlib
import importlib.util
import math
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aifv.bench import (
    SimulationRun,
    TheoreticalRun,
    extended_huffman,
    range_decode,
    range_encode,
    rows_to_csv,
    run_simulation,
    run_theoretical,
    scaled_frequencies,
)
from aifv.sources import (
    SourceDistribution,
    entropy,
    relative_redundancy,
    sample_inversion,
    sources_binary_grid,
    sources_polynomial,
)


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
    ext = extended_huffman((0.75, 0.25), 2)
    assert ext.per_symbol_expected == pytest.approx(0.84375)
    one = extended_huffman((0.6, 0.4), 1)
    assert one.per_symbol_expected == pytest.approx(1.0)
    uniform = extended_huffman((0.5, 0.5), 3)
    assert uniform.per_symbol_expected == pytest.approx(1.0)
    with pytest.raises(ValueError):
        extended_huffman((0.5, 0.5), 25)


def test_extended_huffman_improves_along_divisibility_chain():
    # order kn never beats order n from below: the n-blocks of any order-n
    # code compose into a feasible order-kn code.  (Rates at incomparable
    # orders, e.g. 5 vs 8, genuinely cross for some sources.)
    for p0 in (0.51, 0.64, 0.75, 0.9, 0.99):
        probs = (p0, 1 - p0)
        chain = [extended_huffman(probs, n).per_symbol_expected for n in (1, 2, 4, 8)]
        for a, b in zip(chain, chain[1:]):
            assert b <= a + 1e-12
        assert extended_huffman(probs, 5).per_symbol_expected <= chain[0] + 1e-12


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
