"""Bounded-delay AIFV code forests: construction, coding, benchmarks."""

from .bitstrings import (
    BitString,
    CapacityError,
    EMPTY,
    append,
    comparable,
    flipped,
    is_prefix,
    reduced,
)
from .builder import (
    BuildConfig,
    BuildError,
    OptimalityReport,
    check_g_optimality_binary,
    construct,
    expected_code_length,
    folded_codebook_size,
    huffman,
)
from .forest import (
    CodeForest,
    CodeTree,
    DecodeError,
    decode,
    decoding_delay_bound,
    encode,
    encoded_lengths,
    format_codebook,
    parse_codebook,
    validate_full,
    validate_rule1,
)
from .modes import (
    ContinuousModeId,
    Mode,
    enumerate_basic_modes,
    enumerate_continuous_ids,
    mode_from_id,
)
from .optimizer import (
    LinkPrices,
    ResourceLimitError,
    SearchTable,
    build_ilp,
    link_prices,
    solve_ilp,
)
from .sources import (
    SourceDistribution,
    entropy,
    relative_redundancy,
    sample_inversion,
    sources_binary_grid,
    sources_polynomial,
)
from .splits import brute_force_binary

__version__ = "0.1.0"
