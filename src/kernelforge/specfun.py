"""Special-function core: log-Gamma, Pochhammer symbols, Gauss 2F1,
generalized 3F2 at unit argument, and the entire function E_theta.

All series carry explicit truncation-error accounting via SeriesResult.
The 3F2 at x=1 converges only algebraically (term decay ~ n^{-(s+1)} where
s is the parameter excess), so for small excess the sum is rewritten via
Thomae's two-term relation into an equivalent representation with a larger
excess before summing; the rewriting is exact and its Gamma prefactor is
evaluated in log space with sign tracking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import (CONSECUTIVE_SMALL, SAFETY_FACTOR, SeriesResult,
                     TruncationConfig, default_config)
from .errors import ConvergenceError, DomainError

_INT_EPS = 1e-9


def _is_nonpositive_integer(x: float) -> bool:
    return x <= _INT_EPS and abs(x - round(x)) <= _INT_EPS


def log_gamma(x: float) -> float:
    """Natural logarithm of Gamma(x) for x > 0."""
    if x <= 0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _signed_log_gamma(x: float) -> tuple[float, float]:
    """(log|Gamma(x)|, sign) for any non-pole real x."""
    if _is_nonpositive_integer(x):
        raise DomainError(f"Gamma pole at x = {x}")
    if x > 0:
        return math.lgamma(x), 1.0
    # Gamma alternates sign on the negative axis: positive on (-2,-1), ...
    sign = 1.0 if math.floor(x) % 2 == 0 else -1.0
    return math.lgamma(x), sign


def pochhammer(x: float, n: int) -> float:
    """Rising factorial x(x+1)...(x+n-1); the empty product is 1."""
    if n < 0:
        raise DomainError(f"pochhammer requires n >= 0, got {n}")
    if n == 0:
        return 1.0
    # An integer zero anywhere in the product forces an exact 0.
    if _is_nonpositive_integer(x) and -round(x) < n:
        return 0.0
    if n <= 30:
        out = 1.0
        for k in range(n):
            out *= x + k
        return out
    # Large n: log-Gamma differences avoid overflow; track signs of the
    # finitely many negative factors when x < 0.
    if x > 0:
        return math.exp(math.lgamma(x + n) - math.lgamma(x))
    lg_top, sg_top = _signed_log_gamma(x + n)
    lg_bot, sg_bot = _signed_log_gamma(x)
    return sg_top * sg_bot * math.exp(lg_top - lg_bot)


def hyp2f1(a: float, b: float, c: float, x: complex,
           cfg: TruncationConfig | None = None) -> SeriesResult:
    """Gauss hypergeometric series sum_n (a)_n (b)_n / ((c)_n n!) x^n, |x| < 1."""
    cfg = cfg or default_config()
    if _is_nonpositive_integer(c):
        raise DomainError(f"hyp2f1: c = {c} is a non-positive integer")
    ax = abs(x)
    if ax >= 1.0:
        raise DomainError(f"hyp2f1 requires |x| < 1, got |x| = {ax}")

    tolerance = cfg.tolerance
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    small_streak = 0
    tail = math.inf
    # term is t_n = t_{n-1} * ratio * x, and ratio tends to 1: while
    # q = |x| max(1, |next ratio|) < 1 a geometric tail bound applies, and
    # before that no term may count toward the stop
    ratio = a * b / c
    for n in range(1, cfg.max_terms + 1):
        term *= ratio * x
        total += term
        ratio = (a + n) * (b + n) / ((c + n) * (n + 1))
        q = ax * abs(ratio)
        if q < ax:
            q = ax
        tail = SAFETY_FACTOR * abs(term) * q / (1.0 - q) if q < 1.0 else math.inf
        if tail <= tolerance or tail <= tolerance * abs(total):
            small_streak += 1
            if small_streak >= CONSECUTIVE_SMALL:
                return SeriesResult(total, n, tail)
        else:
            small_streak = 0
    raise ConvergenceError(
        f"hyp2f1({a},{b},{c},{x}) did not converge in {cfg.max_terms} terms",
        terms_used=cfg.max_terms, tail_estimate=tail)


@dataclass(frozen=True)
class _Rep3F2:
    """One Thomae-equivalent representation of a 3F2(...;1) value."""

    uppers: tuple[float, float, float]
    lowers: tuple[float, float]
    log_pref: float
    sign: float

    @property
    def excess(self) -> float:
        return sum(self.lowers) - sum(self.uppers)

    def terminating_length(self) -> int | None:
        """Number of terms if some upper parameter truncates the series."""
        hits = [-round(u) for u in self.uppers if _is_nonpositive_integer(u)]
        return int(min(hits)) + 1 if hits else None


def _thomae_step(rep: _Rep3F2, which: int) -> _Rep3F2 | None:
    """Apply Thomae's relation with rep.uppers[which] as distinguished
    parameter; returns None when a Gamma pole or a lower-parameter pole
    makes the transformed form unusable."""
    a = rep.uppers[which]
    b, c = [u for i, u in enumerate(rep.uppers) if i != which]
    d, e = rep.lowers
    s = rep.excess
    new_uppers = (d - a, e - a, s)
    new_lowers = (s + b, s + c)
    if any(_is_nonpositive_integer(l) for l in new_lowers):
        return None
    log_pref, sign = rep.log_pref, rep.sign
    try:
        for arg in (d, e, s):
            lg, sg = _signed_log_gamma(arg)
            log_pref += lg
            sign *= sg
        for arg in (a, s + b, s + c):
            lg, sg = _signed_log_gamma(arg)
            log_pref -= lg
            sign *= sg
    except DomainError:
        return None
    return _Rep3F2(new_uppers, new_lowers, log_pref, sign)


def _rep_candidates(rep: _Rep3F2) -> list[_Rep3F2]:
    """rep and the distinct representations within two Thomae steps of it."""
    seen = {}
    frontier = [rep]
    seen[tuple(round(p, 9) for p in rep.uppers + rep.lowers)] = rep
    for _ in range(2):
        nxt = []
        for r in frontier:
            for which in range(3):
                t = _thomae_step(r, which)
                if t is None:
                    continue
                key = tuple(round(p, 9) for p in t.uppers + t.lowers)
                if key not in seen:
                    seen[key] = t
                    nxt.append(t)
        frontier = nxt
    return list(seen.values())


def _rep_cost(rep: _Rep3F2, tol: float, cap: int) -> float:
    n_term = rep.terminating_length()
    if n_term is not None:
        return float(n_term)
    s = rep.excess
    if s <= 0.05:
        return math.inf
    # terms decay like n^{-(s+1)}; tail ~ n^{-s}/s reaches tol at roughly:
    est = (1.0 / (tol * s)) ** (1.0 / s)
    return est if est <= cap else math.inf


def _sum_3f2_rep(rep: _Rep3F2, cfg: TruncationConfig) -> SeriesResult:
    a1, a2, a3 = rep.uppers
    b1, b2 = rep.lowers
    s = rep.excess
    total = 1.0
    term = 1.0
    small_streak = 0
    tail = math.inf
    n_stop = rep.terminating_length()
    scale = rep.sign * math.exp(rep.log_pref)
    for n in range(cfg.max_terms):
        term = term * ((a1 + n) * (a2 + n) * (a3 + n)) / ((b1 + n) * (b2 + n) * (n + 1))
        total += term
        if n_stop is not None and n + 1 >= n_stop:
            return SeriesResult(complex(scale * total), n + 1, 0.0)
        # algebraic tail: sum_{m>n} C m^{-(s+1)} ~ |t_n| * n / s
        tail = SAFETY_FACTOR * abs(term) * max(n + 1, 1) / max(s, 1e-3)
        if tail <= cfg.tolerance * max(1.0, abs(total)):
            small_streak += 1
            if small_streak >= CONSECUTIVE_SMALL:
                return SeriesResult(complex(scale * total), n + 1,
                                    abs(scale) * tail)
        else:
            small_streak = 0
    raise ConvergenceError(
        f"3F2 representation {rep.uppers}/{rep.lowers} did not converge "
        f"in {cfg.max_terms} terms",
        terms_used=cfg.max_terms, tail_estimate=abs(scale) * tail)


def hyp3f2_unit(a1: float, a2: float, a3: float, b1: float, b2: float,
                cfg: TruncationConfig | None = None) -> SeriesResult:
    """3F2(a1,a2,a3; b1,b2; 1).

    Requires b1+b2-a1-a2-a3 > 0 unless an upper parameter truncates the
    series.  Sums the cheapest of the representations within two Thomae
    steps, the literal series among them.
    """
    cfg = cfg or default_config()
    for b in (b1, b2):
        if _is_nonpositive_integer(b):
            raise DomainError(f"hyp3f2_unit: lower parameter {b} is a non-positive integer")
    base = _Rep3F2((a1, a2, a3), (b1, b2), 0.0, 1.0)
    if base.terminating_length() is None and base.excess <= 0:
        raise DomainError(
            f"hyp3f2_unit diverges at x=1: excess {base.excess} <= 0")
    candidates = _rep_candidates(base)
    best = min(candidates, key=lambda r: _rep_cost(r, cfg.tolerance, cfg.max_terms))
    if math.isinf(_rep_cost(best, cfg.tolerance, cfg.max_terms)):
        # no representation is predicted to converge within the cap; try the
        # literal series anyway so the failure carries real diagnostics
        best = base
    return _sum_3f2_rep(best, cfg)


def mittag_e(theta: float, x: complex,
             cfg: TruncationConfig | None = None) -> SeriesResult:
    """Entire function sum_N x^N / Gamma(theta + N + 1) for theta > -1."""
    cfg = cfg or default_config()
    if theta <= -1:
        raise DomainError(f"mittag_e requires theta > -1, got {theta}")
    tolerance = cfg.tolerance
    ax = abs(x)
    term = complex(math.exp(-math.lgamma(theta + 1.0)))
    total = term
    small_streak = 0
    tail = math.inf
    for n in range(cfg.max_terms):
        term = term * x / (theta + n + 1.0)
        total += term
        q = ax / (theta + n + 2.0)
        if q < 1.0:
            tail = SAFETY_FACTOR * abs(term) * q / (1.0 - q)
            if tail <= tolerance or tail <= tolerance * abs(total):
                small_streak += 1
                if small_streak >= CONSECUTIVE_SMALL:
                    return SeriesResult(total, n + 1, tail)
            else:
                small_streak = 0
    raise ConvergenceError(
        f"mittag_e({theta}, {x}) did not converge in {cfg.max_terms} terms",
        terms_used=cfg.max_terms, tail_estimate=tail)
