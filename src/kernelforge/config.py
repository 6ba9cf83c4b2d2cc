"""Shared value types: truncation control, series results, points in C^2."""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from functools import lru_cache

MAX_TERMS_ENV = "KERNELFORGE_MAX_TERMS"

# The stopping policy that every series loop shares.  A series stops after
# CONSECUTIVE_SMALL consecutive terms whose tail estimate, SAFETY_FACTOR times
# the ratio-based one, is within tolerance; the series over vanishing orders N
# stop after at most MAX_OUTER_TERMS orders.
MAX_OUTER_TERMS = 500
CONSECUTIVE_SMALL = 3
SAFETY_FACTOR = 4.0
# machine epsilon, the unit of the rounding terms in tail bounds
EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class TruncationConfig:
    """The two settable controls of every infinite series in the library.

    tolerance  target bound on the truncation error of a sum (CLI
               --tolerance)
    max_terms  hard cap on the terms of each inner series
               (KERNELFORGE_MAX_TERMS)
    """

    tolerance: float = 1e-12
    max_terms: int = 100_000

    def __post_init__(self):
        # written so that a NaN tolerance is refused too
        if not self.tolerance > 0:
            raise ValueError(
                f"tolerance must be positive, got {self.tolerance}")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


def default_config() -> TruncationConfig:
    """Default truncation settings, honoring the KERNELFORGE_MAX_TERMS override."""
    return _config_for(os.environ.get(MAX_TERMS_ENV))


@lru_cache(maxsize=8)
def _config_for(cap: str | None) -> TruncationConfig:
    # Every call without a cfg lands here, so the parse is cached per value of
    # the variable; a bad value raises, which lru_cache never caches.
    if cap is None:
        return TruncationConfig()
    try:
        max_terms = int(cap)
    except ValueError:
        raise ValueError(
            f"{MAX_TERMS_ENV} must be an integer, got {cap!r}") from None
    return TruncationConfig(max_terms=max(1, max_terms))


@dataclass(frozen=True)
class SeriesResult:
    """Value of a truncated series together with cost and error accounting."""

    value: complex
    terms_used: int
    tail_bound: float

    def __post_init__(self):
        if self.tail_bound < 0:
            raise ValueError("tail_bound must be nonnegative")
        if self.terms_used < 0:
            raise ValueError("terms_used must be nonnegative")


@dataclass(frozen=True)
class Point2:
    """A point (z1, z2) in C^2; domain checks live with each space."""

    z1: complex
    z2: complex

    def in_bidisk(self) -> bool:
        return abs(self.z1) < 1.0 and abs(self.z2) < 1.0

    def in_ball(self) -> bool:
        return abs(self.z1) ** 2 + abs(self.z2) ** 2 < 1.0
