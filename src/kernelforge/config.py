"""Shared value types: truncation control, series results, points in C^2."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

MAX_TERMS_ENV = "KERNELFORGE_MAX_TERMS"


@dataclass(frozen=True)
class TruncationConfig:
    """Controls every infinite series and adaptive quadrature in the library.

    tolerance          target bound on the truncation error of a sum
    max_terms          hard cap on inner-series terms
    max_outer_terms    hard cap on the vanishing-order series over N
    consecutive_small  number of consecutive below-threshold terms required
                       before a series is declared converged (guards against
                       accidental small terms)
    safety_factor      multiplier applied to ratio-based tail estimates so the
                       reported bound errs on the conservative side
    """

    tolerance: float = 1e-12
    max_terms: int = 100_000
    max_outer_terms: int = 500
    consecutive_small: int = 3
    safety_factor: float = 4.0

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_terms < 1 or self.max_outer_terms < 1:
            raise ValueError("term caps must be at least 1")
        if self.consecutive_small < 1:
            raise ValueError("consecutive_small must be at least 1")


def default_config() -> TruncationConfig:
    """Default truncation settings, honoring the KERNELFORGE_MAX_TERMS override."""
    cfg = TruncationConfig()
    cap = os.environ.get(MAX_TERMS_ENV)
    if cap is not None:
        cfg = replace(cfg, max_terms=max(1, int(cap)))
    return cfg


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
