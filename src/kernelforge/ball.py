"""Weighted Bergman spaces on the unit ball in C^2 with weight
|z2|^{2 theta} (1-|z|^2)^alpha (1-|z1|^2)^beta, expanded along the variety
z2 = 0.

Convention fixed here and verified in tests: the 2D norm integrates against
the UN-normalized area element, while the 1D restriction norms use the
probability-normalized measure of index alpha+beta+theta+N+1.  That makes
the embedding identity ||z2^N g(z1)||^2 = embed_const(N) ||g||^2 literal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import (CONSECUTIVE_SMALL, MAX_OUTER_TERMS, SAFETY_FACTOR,
                     Point2, SeriesResult, TruncationConfig, default_config)
from .errors import ConvergenceError, DomainError
from .poly2 import BiPoly
from .specfun import hyp2f1, log_gamma

from .bidisk import NormExpansion, disk_norm_sq, expand


@dataclass(frozen=True)
class BallParams:
    alpha: float
    beta: float
    theta: float

    def __post_init__(self):
        for name in ("alpha", "beta", "theta"):
            if not -1 < getattr(self, name) < math.inf:  # NaN, inf fail too
                raise DomainError(f"{name} must be finite and exceed -1")


def _require_ball(*points: Point2) -> None:
    for p in points:
        if not p.in_ball():
            raise DomainError(f"point ({p.z1}, {p.z2}) is not inside the ball")


def embed_const(params: BallParams, N: int) -> float:
    """||z2^N g(z1)||^2 / ||g||^2_{1D, index alpha+beta+theta+N+1} =
    Gamma(alpha+1) Gamma(theta+N+1) /
    [(alpha+beta+theta+N+2) Gamma(alpha+theta+N+2)]."""
    if N < 0:
        raise DomainError("N must be >= 0")
    al, be, th = params.alpha, params.beta, params.theta
    return math.exp(log_gamma(al + 1.0) + log_gamma(th + N + 1.0)
                    - log_gamma(al + th + N + 2.0)) / (al + be + th + N + 2.0)


def _z2_transform(f: BiPoly, N: int):
    """d^N f / dz2^N restricted to z2 = 0."""
    return f.differentiate(2, N).restrict_z2_zero()


def ball_norm_expansion(params: BallParams, f: BiPoly) -> NormExpansion:
    """||f||^2 = sum_N [embed_const(N)/(N!)^2] ||d^N f/dz2^N at z2=0||^2
    in the 1D space of index alpha+beta+theta+N+1."""
    s_base = params.alpha + params.beta + params.theta + 1.0
    return expand(range(f.degree_in(2) + 1), lambda N: _z2_transform(f, N),
                  lambda N: embed_const(params, N) / math.factorial(N) ** 2,
                  lambda g, N: disk_norm_sq(g, s_base + N))


def ball_qN_kernel(params: BallParams, N: int, z: Point2, w: Point2) -> complex:
    """Kernel of the subspace of order N along z2 = 0:
    (z2 conj(w2))^N / [embed_const(N) (1 - z1 conj(w1))^{alpha+beta+theta+N+3}]."""
    if N < 0:
        raise DomainError("N must be >= 0")
    _require_ball(z, w)
    al, be, th = params.alpha, params.beta, params.theta
    x = z.z1 * complex(w.z1).conjugate()
    return ((z.z2 * complex(w.z2).conjugate()) ** N / embed_const(params, N)
            * (1.0 - x) ** (-(al + be + th + N + 3.0)))


def ball_full_kernel(params: BallParams, z: Point2, w: Point2,
                     cfg: TruncationConfig | None = None) -> SeriesResult:
    """Closed-form reproducing kernel: Gamma(alpha+theta+2) /
    [Gamma(alpha+1) Gamma(theta+1) (1-z1 conj(w1))^{alpha+beta+theta+3}] times
    [(alpha+theta+2) 2F1(alpha+theta+3, 1; theta+1; x)
      + beta 2F1(alpha+theta+2, 1; theta+1; x)],
    x = z2 conj(w2) / (1 - z1 conj(w1)).

    The bracket is summed as one series: with F = 2F1(alpha+theta+2, 1;
    theta+1; x) it equals ([alpha+beta+2 - beta x] F + theta) / (1 - x)
    (DLMF 15.5), exactly."""
    cfg = cfg or default_config()
    _require_ball(z, w)
    al, be, th = params.alpha, params.beta, params.theta
    u = 1.0 - z.z1 * complex(w.z1).conjugate()
    x = z.z2 * complex(w.z2).conjugate() / u
    if abs(x) >= 1.0:
        raise DomainError(
            f"kernel argument |x| = {abs(x):.6f} >= 1; distance to the "
            f"boundary sphere is too small for the series form")
    f = hyp2f1(al + th + 2.0, 1.0, th + 1.0, x, cfg)
    pref = math.exp(log_gamma(al + th + 2.0) - log_gamma(al + 1.0)
                    - log_gamma(th + 1.0)) * u ** (-(al + be + th + 3.0))
    slope = (al + be + 2.0 - be * x) / (1.0 - x)
    value = pref * (slope * f.value + th / (1.0 - x))
    return SeriesResult(value, f.terms_used, abs(pref * slope) * f.tail_bound)


def ball_full_kernel_series(params: BallParams, z: Point2, w: Point2,
                            cfg: TruncationConfig | None = None) -> SeriesResult:
    """Cross-check path: direct summation of ball_qN_kernel over N with a
    geometric tail bound."""
    cfg = cfg or default_config()
    _require_ball(z, w)
    u = 1.0 - z.z1 * complex(w.z1).conjugate()
    x = z.z2 * complex(w.z2).conjugate() / u
    q = abs(x)
    if q >= 1.0:
        raise DomainError(f"series ratio |x| = {q:.6f} >= 1 at these points")
    total = 0.0 + 0.0j
    tail = math.inf
    small_streak = 0
    for N in range(MAX_OUTER_TERMS):
        term = ball_qN_kernel(params, N, z, w)
        total += term
        # term ratio tends to |x| as the embed constants vary slowly in N
        tail = SAFETY_FACTOR * abs(term) * q / (1.0 - q) if q > 0 else 0.0
        if tail <= cfg.tolerance * max(1.0, abs(total)):
            small_streak += 1
            if small_streak >= CONSECUTIVE_SMALL:
                return SeriesResult(total, N + 1, tail)
        else:
            small_streak = 0
    raise ConvergenceError(
        f"ball kernel series did not converge in {MAX_OUTER_TERMS} terms",
        terms_used=MAX_OUTER_TERMS, tail_estimate=tail)


def ball_hardy_norm_expansion(beta: float, theta: float,
                              f: BiPoly) -> NormExpansion:
    """Surface-measure norm expansion: weights 1/[(beta+theta+N+1) (N!)^2],
    1D indices beta+theta+N; the alpha -> -1 limit with the (alpha+1)(alpha+2)
    normalization."""
    if not -1 < beta + theta < math.inf:  # NaN and inf fail too
        raise DomainError(
            "ball_hardy_norm_expansion requires a finite beta + theta > -1")
    return expand(range(f.degree_in(2) + 1), lambda N: _z2_transform(f, N),
                  lambda N: 1.0 / ((beta + theta + N + 1.0)
                                   * math.factorial(N) ** 2),
                  lambda g, N: disk_norm_sq(g, beta + theta + N))
