"""Bounded-delay AIFV code forests: construction, coding, benchmarks.

The names below load their submodule on first use (PEP 562), so
``import aifv`` and the codec commands load no numpy; only the builder
and the benchmark layers do.
"""

from importlib import import_module

_EXPORTS = {
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
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
