#!/usr/bin/env python3
"""Benchmark of the aifv package: forest builds, the paper's tables, and
the file codec.

    python3 bench/run.py --workload build-binary --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --smoke        # tiny sizes, checks names and schema

Runs one workload in this process with BLAS pinned to one thread, prints
its metrics one per line with their units, checks every output, and ends
with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace
1`` the per-layer ones.  Exits 1 when any output check fails, 2 when the
package sources are missing.  Result and span files go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import metadata
from pathlib import Path

import tracing
from speed import timed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

PHASES = ("phase1", "phase2")

# the workload-specific name and unit of each workload's two phases; a unit
# ending in "/s" is reported as work units per second
PHASE_NAMES = {
    "build-binary": (("build_s", "s"), ("gcheck_s", "s")),
    "paper-tables": (("eval_s", "s"), ("simulate_s", "s")),
    "codec-stream": (("encode_msym_s", "Msym/s"), ("decode_msym_s", "Msym/s")),
}


def git_sha() -> str:
    """The checked-out commit, read without running git."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = ROOT / ".git" / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, inputs: dict) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "seed": seed,
        "inputs": inputs,
    }


# times `import aifv.cli` inside a fresh interpreter; prints own and scaled seconds
IMPORT_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); from speed import timed; "
                "print(*timed(lambda: __import__('aifv.cli'))[1:])")


def fresh_import_seconds() -> float:
    """Scaled seconds a new interpreter takes to load the CLI, as every
    ``aifv`` command pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(HERE)], env=env,
                         check=True, capture_output=True, text=True).stdout
    return float(out.split()[1])


def per_unit(samples, scaled: bool = True) -> float:
    """Seconds per unit of work over all repetitions of a phase."""
    return sum(s[1 if scaled else 0] for s in samples) / sum(s[2] for s in samples)


def per_layer(tracer, extra: dict, samples: dict, traced_samples: dict) -> dict:
    """Per-layer values of one traced repetition."""
    totals = tracing.layer_totals(tracer.spans)
    calls, busy, self_s, counters = totals.calls, totals.busy, totals.self_s, tracer.counters
    reps = len(traced_samples["phase1"])
    out = {}

    def add(name, value, unit, per_rep=True):
        out[name] = (value / reps if per_rep else value, unit)

    for layer in ("markov.transition_matrix", "markov.block_decompose", "markov.stationary",
                  "markov.cost_update_general", "optimizer.build_ilp",
                  "optimizer.check_assignment", "optimizer.decode_solution",
                  "optimizer.solve_ilp", "optimizer.brute_force_binary", "builder.construct",
                  "forest.decode", "forest.unpack_bits", "forest.encode", "forest.pack_bits",
                  "bench.range_encode", "bench.sample_inversion", "bench.extended_huffman"):
        add(f"{layer}.calls", calls.get(layer, 0), "count")
        add(f"{layer}.s", busy.get(layer, 0.0), "s")
    for layer in ("optimizer.solve_ilp", "builder.construct", "bench.run_theoretical",
                  "bench.run_simulation", "cli.main"):
        add(f"{layer}.self_s", self_s.get(layer, 0.0), "s")
    add("optimizer.initial_costs.calls", calls.get("optimizer.initial_costs", 0), "count")
    add("forest.parse_codebook.s", busy.get("forest.parse_codebook", 0.0), "s")
    for name in ("markov.scc_blocks", "markov.absorbing_blocks", "builder.iterations",
                 "forest.decode.symbols", "forest.encode.bits"):
        add(name, counters.get(name, 0), "count")
    solved = calls.get("optimizer.solve_ilp", 0) + calls.get("optimizer.brute_force_binary", 0)
    mirrored = calls.get("builder.flip_tree", 0)
    add("builder.trees_solved", solved, "count")
    add("builder.trees_mirrored", mirrored, "count")
    add("builder.mirror_reuse_base", solved + mirrored, "count")
    add("builder.mirror_reuse_ratio", mirrored / (solved + mirrored) if solved + mirrored else 0.0,
        "share", per_rep=False)
    add("forest.decode.truncation_probes", extra.get("truncation_probes", 0), "count", False)
    add("forest.decode.truncation_accepted", extra.get("truncation_accepted", 0), "count", False)
    for phase in PHASES:
        add(f"trace.{phase}_coverage", tracing.coverage(tracer.spans, phase), "share",
            per_rep=False)
        add(f"trace.{phase}_overhead_s",
            per_unit(traced_samples[phase]) - per_unit(samples[phase]), "s",
            per_rep=False)
    return out


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Set up, measure and check one workload; returns the result line
    plus what is only written to the result file."""
    import workloads
    from aifv import bench, builder, cli, optimizer

    pins = None if smoke else json.loads((HERE / "expected.json").read_text())[name]
    checks = workloads.Checks(pins, seed)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".bench_work")
    tracer = tracing.Tracer()
    # phase -> [(wall seconds, scaled seconds, work units)] per repetition
    samples = {phase: [] for phase in PHASES}
    traced_samples = {phase: [] for phase in PHASES}
    setup = []
    extra = {}
    try:
        wl = workloads.WORKLOADS[name](seed, smoke, workdir, checks)
        for _ in range(wl.setup_reps):
            setup.append(fresh_import_seconds() + timed(wl.prepare)[2])
        if trace:
            tracer.install({"aifv.bench": bench, "aifv.builder": builder,
                            "aifv.cli": cli, "aifv.optimizer": optimizer})
        start = time.perf_counter()
        rep = 0
        while True:
            # traced runs alternate traced and untraced repetitions; the
            # difference between the two is the tracing overhead
            tracer.active = trace and rep % 2 == 0
            rep_start = time.perf_counter()
            try:
                for phase, (work, check, units) in zip(PHASES, wl.phases()):
                    tracer.op_id += 1
                    out, secs, scaled = timed(work, tracer.span(phase))
                    (traced_samples if tracer.active else samples)[phase].append(
                        (secs, scaled, units))
                    check(out)
            except Exception:
                traceback.print_exc()
                checks.op(f"repetition {rep}", ["raised"])
                break
            finally:
                tracer.active = False
            rep += 1
            # stop before a repetition as long as the last would overrun
            now = time.perf_counter()
            if rep >= (2 if trace else 1) and now + (now - rep_start) > start + seconds:
                break
        try:
            extra = wl.finish()
        except Exception:
            traceback.print_exc()
            checks.op("final checks", ["raised"])
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    correct = checks.failed == 0 and all(samples.values())
    metrics = {}
    if correct and trace:
        metrics = per_layer(tracer, extra, samples, traced_samples)
    elif correct:
        metrics = {
            "phase1_s": (per_unit(samples["phase1"]), "s"),
            "phase2_s": (per_unit(samples["phase2"]), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    human = {}
    if all(samples.values()):
        # wall-clock figures, not scaled to the nominal machine speed
        for phase, (label, unit) in zip(PHASES, PHASE_NAMES[name]):
            wall = per_unit(samples[phase], scaled=False)
            human[label] = (1 / wall if unit.endswith("/s") else wall, unit)
    if "truncation_probes" in extra:
        human["corrupt_accept_rate"] = (
            extra["truncation_accepted"] / extra["truncation_probes"], "share")
    human["error_rate"] = (checks.failed / max(checks.attempted, 1), "share")
    return {
        "line": {
            "correct": correct,
            "attempted": max(checks.attempted, 1),
            "failed": checks.failed if checks.attempted else 1,
            "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
        },
        "human": human,
        "samples": {"untraced": samples, "traced": traced_samples, "setup": setup},
        "failures": checks.messages,
        "observed": checks.observed,
        "extra": extra,
        "env": environment(seed, wl.inputs),
        "tracer": tracer,
    }


def report(name: str, seed: int, trace: bool, result: dict) -> None:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    print(f"env {json.dumps(result['env'], sort_keys=True)}")
    print(f"repetitions untraced={len(result['samples']['untraced']['phase1'])} "
          f"traced={len(result['samples']['traced']['phase1'])}")
    for label, (value, unit) in result["human"].items():
        print(f"metric {label} {value:.6g} {unit}")
    for label, m in result["line"]["metrics"].items():
        print(f"metric {label} {m['value']:.6g} {m['unit']}")
    for msg in result["failures"]:
        print(f"FAIL {msg}")
    if trace:
        spans_path = out / f"spans-{name}-seed{seed}.jsonl"
        result["tracer"].write(spans_path)
        print(f"spans {spans_path.relative_to(ROOT)} ({len(result['tracer'].spans)} spans)")
    record = {k: result[k] for k in ("line", "human", "samples", "failures", "observed",
                                     "extra", "env")}
    (out / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result["line"]))


def smoke_test() -> int:
    """Every workload at tiny sizes, untraced and traced: the result line
    must carry exactly the metric names and units of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys: {sorted(spec)}")
    import workloads

    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the runner's")
    for name in workloads.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            line = run_one(name, 0, 0, trace, smoke=True)["line"]
            if set(line) != {"correct", "attempted", "failed", "metrics"} or not line["correct"]:
                problems.append(f"{name} trace={int(trace)}: bad result line {line}")
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: m["unit"] for k, m in line["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={int(trace)}: metrics differ: "
                                f"{sorted(set(got) ^ set(want))}")
    for p in problems:
        print(f"FAIL {p}")
    print(json.dumps({"smoke": "ok" if not problems else "failed"}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("build-binary", "paper-tables", "codec-stream"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; without --workload, check every workload's output schema")
    args = parser.parse_args(argv)
    if not (SRC / "aifv" / "__init__.py").is_file():
        print(f"error: package sources not found at {SRC / 'aifv'}", file=sys.stderr)
        return 2
    if args.workload is None and not args.smoke:
        parser.error("--workload is required")
    # pinned before numpy is first imported
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return smoke_test()
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    report(args.workload, args.seed, bool(args.trace), result)
    return 0 if result["line"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
