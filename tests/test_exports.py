"""The package's public names load their home module on first use."""

import importlib
import os
import subprocess
import sys

import pytest

import aifv

# each public name of ``aifv`` and the module that defines it
HOMES = {
    "bitstrings": ("BitString", "CapacityError", "EMPTY", "append", "comparable", "flipped",
                   "is_prefix", "reduced"),
    "builder": ("BuildConfig", "OptimalityReport", "check_g_optimality_binary", "construct",
                "expected_code_length", "folded_codebook_size", "huffman"),
    "bench": ("encoded_lengths", "sample_inversion"),
    "forest": ("CodeForest", "CodeTree", "DecodeError", "decode", "decoding_delay_bound",
               "encode", "format_codebook", "parse_codebook", "validate_full",
               "validate_rule1"),
    "modes": ("ContinuousModeId", "Mode", "enumerate_basic_modes", "enumerate_continuous_ids",
              "mode_from_id"),
    "optimizer": ("BuildError", "LinkPrices", "ResourceLimitError", "SearchTable", "build_ilp",
                  "link_prices", "solve_ilp"),
    "sources": ("SourceDistribution", "entropy", "relative_redundancy", "sources_binary_grid",
                "sources_polynomial"),
    "splits": ("brute_force_binary",),
}


def test_every_export_is_its_home_modules_object():
    assert sorted(aifv.__all__) == sorted(name for names in HOMES.values() for name in names)
    for module, names in HOMES.items():
        home = importlib.import_module(f"aifv.{module}")
        for name in names:
            assert getattr(aifv, name) is getattr(home, name), name


def test_moved_names_keep_their_old_import_path():
    """``BuildError`` is defined with the solver's errors and still
    imports from the builder."""
    from aifv.builder import BuildError

    assert BuildError is aifv.BuildError


def test_star_import_gives_every_export():
    namespace = {}
    exec("from aifv import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(aifv.__all__)
    assert namespace["encoded_lengths"] is aifv.encoded_lengths


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'aifv' has no attribute 'no_such_name'"):
        aifv.no_such_name
    with pytest.raises(ImportError):
        from aifv import no_such_name  # noqa: F401


def test_importing_the_package_loads_no_submodule():
    code = ("import sys, aifv\n"
            "print(sorted(m for m in sys.modules if m.startswith('aifv.') or m == 'numpy'))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout == "[]\n"
