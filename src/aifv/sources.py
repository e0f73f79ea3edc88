"""Source models and information-theoretic metrics for the benchmarks."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SourceDistribution:
    probs: tuple[float, ...]

    def __post_init__(self):
        as_probs(self.probs)

    @property
    def m(self) -> int:
        return len(self.probs)

    def __iter__(self):
        return iter(self.probs)


def as_probs(p) -> tuple[float, ...]:
    """The probabilities of ``p`` (a sequence or a ``SourceDistribution``)
    as floats; ValueError unless they form a distribution over at least
    two symbols, each strictly positive, summing to 1 within 1e-12."""
    probs = tuple(float(x) for x in getattr(p, "probs", p))
    if len(probs) < 2:
        raise ValueError("alphabet needs at least two symbols")
    if not all(x > 0 for x in probs):
        raise ValueError("probabilities must be strictly positive")
    if abs(sum(probs) - 1.0) > 1e-12:
        raise ValueError("probabilities must sum to 1")
    return probs


def sources_binary_grid() -> list[SourceDistribution]:
    """Binary sources with the dominant probability swept 0.51 .. 0.99."""
    return [SourceDistribution((i / 100, (100 - i) / 100)) for i in range(51, 100)]


def sources_polynomial(m: int) -> tuple[SourceDistribution, ...]:
    """Uniform, linear, and quadratic weights over an m-ary alphabet."""
    if m < 2:
        raise ValueError("alphabet needs at least two symbols")
    out = []
    for power in (0, 1, 2):
        weights = [(i + 1) ** power for i in range(m)]
        total = sum(weights)
        out.append(SourceDistribution(tuple(w / total for w in weights)))
    return tuple(out)


def entropy(p) -> float:
    probs = tuple(p)
    h = -sum(x * math.log2(x) for x in probs)
    if h <= 0:
        raise ValueError("degenerate source has no positive entropy")
    return h


def relative_redundancy(length: float, h: float) -> float:
    if h <= 0:
        raise ValueError("entropy must be positive")
    return length / h - 1.0
