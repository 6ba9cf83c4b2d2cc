"""Shared stopping policy and value types: series results, points in C^2."""

from __future__ import annotations

import sys
from dataclasses import dataclass

# The stopping policy that every series loop shares.  A series stops after
# CONSECUTIVE_SMALL consecutive terms whose tail estimate, SAFETY_FACTOR times
# the ratio-based one, is within TOLERANCE, the target bound on each truncated
# sum's error; the series over vanishing orders N stop after at most
# MAX_OUTER_TERMS orders, and every other series after at most MAX_TERMS
# terms.
TOLERANCE = 1e-12
MAX_OUTER_TERMS = 500
MAX_TERMS = 100_000
CONSECUTIVE_SMALL = 3
SAFETY_FACTOR = 4.0
# machine epsilon, the unit of the rounding terms in tail bounds
EPS = sys.float_info.epsilon


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
