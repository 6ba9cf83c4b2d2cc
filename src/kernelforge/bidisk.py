"""Weighted Bergman spaces on the bidisk with the |z1-z2|^{2 theta}
|1 - conj(z2) z1|^{2 vartheta} weight: sigma constants, kernels on and off
the diagonal, per-degree kernel Taylor blocks, the a/b coefficient families,
diagonal restriction transforms, and the norm expansions (Bergman and Hardy
flavors).

Series organization: the subspace kernels are double series.  The tail
rules assume that the inner term mu_n c_n(z) conj(c_n(w)) is at most
(rz rw)^n in modulus, where rz = max |z_i|, rw = max |w_i|, and that the
order-N term of the outer sum is at most |z1-z2|^N |w1-w2|^N sigma_N /
(1 - rz rw).  Both assumptions are known to be false: the coefficients of
c_n sum to 1/mu_n, so the inner term is only bounded by (rz rw)^n / mu_n,
which grows like n^(s+2N+1).  The tail_bound of q_kernel and full_kernel is
therefore an estimate, not a bound (ROADMAP, "True tail bounds for the
bidisk double series").

q_kernel takes the inner coefficients c_n(z), the t^n coefficients of
(1 - t z1)^-(a+N) (1 - t z2)^-(b+N), from their three-term recurrence in n:
O(1) per term, and no cancellation when z1 and z2 point apart, unlike the
binomial sum (_c_coeffs, which only taylor_blocks uses).  The recurrence's
coefficients and the geometric tail advance by one addition or product per
term.  sigma has one cache, keyed by the weight's four exponents and the
truncation settings, so sigma(params.shifted(N)) and the order-N reads of
q_kernel and full_kernel share entries and a warm series builds no
BidiskParams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .config import (CONSECUTIVE_SMALL, EPS, MAX_OUTER_TERMS, SAFETY_FACTOR,
                     Point2, SeriesResult, TruncationConfig, default_config)
from .errors import ConvergenceError, DomainError
from .poly2 import BiPoly, UniPoly
from .specfun import hyp3f2_unit, log_gamma, pochhammer


@dataclass(frozen=True)
class BidiskParams:
    """Weight exponents (alpha, beta, vartheta) plus the diagonal-vanishing
    exponent theta."""

    alpha: float
    beta: float
    theta: float
    vartheta: float = 0.0

    def __post_init__(self):
        # written as `not lo < x < inf` so that NaN and inf fail too
        for name in ("alpha", "beta", "theta", "vartheta"):
            if not -1 < getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be finite and exceed -1")
        if not (self.alpha + self.beta + 2 * self.theta + 2 * self.vartheta
                + 3 > 0):
            raise DomainError(
                "alpha + beta + 2 theta + 2 vartheta + 3 must be positive")

    @property
    def a(self) -> float:
        return self.alpha + self.theta + self.vartheta + 2.0

    @property
    def b(self) -> float:
        return self.beta + self.theta + self.vartheta + 2.0

    @property
    def s(self) -> float:
        """Index of the diagonal restriction space; note a + b = s + 2."""
        return self.alpha + self.beta + 2 * self.theta + 2 * self.vartheta + 2.0

    def shifted(self, dN: int) -> "BidiskParams":
        """Same weight with theta raised by dN (indexes the order-N subspace)."""
        return replace(self, theta=self.theta + dN)


def _require_bidisk(*points: Point2) -> None:
    for p in points:
        if not p.in_bidisk():
            raise DomainError(f"point ({p.z1}, {p.z2}) is not inside the bidisk")


@lru_cache(maxsize=4096)
def _sigma_cached(al: float, be: float, th: float, vt: float,
                  cfg: TruncationConfig) -> SeriesResult:
    """sigma and its tail bound for the weight exponents (alpha, beta, theta,
    vartheta), from 1/sigma = (beta+1) Gamma(alpha+2) Gamma(theta+1) /
    [(a+b-1) Gamma(alpha+theta+2)] times 3F2(theta+1, a, a; alpha+theta+2,
    a+b; 1).  The order-N subspace's sigma_N is the entry at theta + N."""
    a = al + th + vt + 2.0
    b = be + th + vt + 2.0
    r = hyp3f2_unit(th + 1.0, a, a, al + th + 2.0, a + b, cfg)
    logs = (log_gamma(al + 2.0), log_gamma(th + 1.0), log_gamma(al + th + 2.0))
    pref = ((be + 1.0) * math.exp(logs[0] + logs[1] - logs[2])
            / (al + be + 2 * th + 2 * vt + 3.0))
    val = 1.0 / (pref * r.value).real
    # the prefactor's log-Gammas, exp and four products round too
    rounding = 4 * EPS * (sum(map(abs, logs)) + 4) * val
    return SeriesResult(complex(val), r.terms_used,
                        val * val * (pref * r.tail_bound) + rounding)


def sigma(params: BidiskParams, cfg: TruncationConfig | None = None) -> float:
    """The kernel value at the origin, i.e. the reciprocal total mass of the
    weight."""
    return _sigma_cached(params.alpha, params.beta, params.theta,
                         params.vartheta, cfg or default_config()).value.real


def sigma_gamma_form(params: BidiskParams) -> float:
    """Closed Gamma-quotient form of sigma, valid only at vartheta = 0."""
    if params.vartheta != 0.0:
        raise DomainError("the closed Gamma form requires vartheta = 0")
    al, be, th = params.alpha, params.beta, params.theta
    log_inv = (log_gamma(al + 2.0) + log_gamma(be + 2.0) + log_gamma(th + 1.0)
               + log_gamma(al + be + 2 * th + 3.0)
               - log_gamma(al + th + 2.0) - log_gamma(be + th + 2.0)
               - log_gamma(al + be + th + 3.0))
    return math.exp(-log_inv)


def diag_kernel(params: BidiskParams, z: Point2, w1: complex,
                cfg: TruncationConfig | None = None) -> complex:
    """Kernel against a diagonal point: P(z, (w1, w1)) =
    sigma / [(1 - conj(w1) z1)^a (1 - conj(w1) z2)^b]."""
    _require_bidisk(z, Point2(w1, w1))
    wc = complex(w1).conjugate()
    return (sigma(params, cfg)
            * (1.0 - wc * z.z1) ** (-params.a)
            * (1.0 - wc * z.z2) ** (-params.b))


def _c_coeffs(params: BidiskParams, N: int, n: int) -> tuple:
    """Coefficients (a+N)_j / j! * (b+N)_{n-j} / (n-j)! for j = 0..n."""
    a, b = params.a + N, params.b + N
    left = [1.0] * (n + 1)
    for j in range(1, n + 1):
        left[j] = left[j - 1] * (a + j - 1.0) / j
    right = [1.0] * (n + 1)
    for j in range(1, n + 1):
        right[j] = right[j - 1] * (b + j - 1.0) / j
    return tuple(left[j] * right[n - j] for j in range(n + 1))


def q_kernel(params: BidiskParams, N: int, z: Point2, w: Point2,
             cfg: TruncationConfig | None = None) -> SeriesResult:
    """Kernel of the order-N subspace as the double series
    (z1-z2)^N (conj(w1)-conj(w2))^N sigma_N sum_n [n!/(s+2N+2)_n]
    c_n(z) conj(c_n(w))."""
    cfg = cfg or default_config()
    if N < 0:
        raise DomainError("N must be >= 0")
    _require_bidisk(z, w)
    sN = _sigma_cached(params.alpha, params.beta, params.theta + N,
                       params.vartheta, cfg)
    pref = ((z.z1 - z.z2) ** N
            * (complex(w.z1).conjugate() - complex(w.z2).conjugate()) ** N
            * sN.value.real)
    s2 = params.s + 2.0 * N + 2.0
    rz = max(abs(z.z1), abs(z.z2))
    rw = max(abs(w.z1), abs(w.z2))
    q = rz * rw
    # (n+1) c_{n+1} = P_n c_n - R_n c_{n-1} with P_n = (A+n) z1 + (B+n) z2
    # and R_n = (A+B+n-1) z1 z2, so P and R advance by z1+z2 and z1 z2 per
    # step; conj(c_n(w)) follows the same recurrence on (conj(w1), conj(w2))
    A, B = params.a + N, params.b + N
    z1, z2 = complex(z.z1), complex(z.z2)
    v1, v2 = complex(w.z1).conjugate(), complex(w.z2).conjugate()
    zs, zz, vs, vv = z1 + z2, z1 * z2, v1 + v2, v1 * v2
    Pz, Pv = A * z1 + B * z2, A * v1 + B * v2
    Rz, Rv = (A + B - 1.0) * zz, (A + B - 1.0) * vv
    cz = cv = 1.0 + 0.0j
    cz_prev = cv_prev = 0.0j
    tolerance = cfg.tolerance
    # tail is SAFETY_FACTOR q^(n+1) / (1-q) for the terms after n, which
    # assumes |mu_n c_n(z) conj(c_n(w))| <= (rz rw)^n.  That is false: the c
    # coefficients sum to (s+2N+2)_n / n! = 1/mu_n, so the term is only
    # bounded by (rz rw)^n / mu_n (see the module docstring)
    tail = SAFETY_FACTOR / (1.0 - q)
    total = 0.0 + 0.0j
    mu = 1.0
    small_streak = 0
    for n in range(cfg.max_terms):
        total += mu * cz * cv
        tail *= q
        if tail <= tolerance or tail <= tolerance * abs(total):
            small_streak += 1
            if small_streak >= CONSECUTIVE_SMALL:
                break
        else:
            small_streak = 0
        m = n + 1.0
        mu *= m / (s2 + n)
        cz, cz_prev = (Pz * cz - Rz * cz_prev) / m, cz
        cv, cv_prev = (Pv * cv - Rv * cv_prev) / m, cv
        Pz += zs
        Pv += vs
        Rz += zz
        Rv += vv
    else:
        raise ConvergenceError(
            f"q_kernel inner series did not converge in {cfg.max_terms} terms",
            terms_used=cfg.max_terms, tail_estimate=abs(pref) * tail)
    return SeriesResult(pref * total, n + 1,
                        abs(pref) * tail + abs(sN.tail_bound) * abs(total))


def full_kernel(params: BidiskParams, z: Point2, w: Point2,
                cfg: TruncationConfig | None = None) -> SeriesResult:
    """Reproducing kernel as the sum over vanishing orders N of q_kernel."""
    cfg = cfg or default_config()
    _require_bidisk(z, w)
    dz = z.z1 - z.z2
    dw = complex(w.z1).conjugate() - complex(w.z2).conjugate()
    rz = max(abs(z.z1), abs(z.z2))
    rw = max(abs(w.z1), abs(w.z2))
    inner_bound = 1.0 / (1.0 - rz * rw)
    dzdw = abs(dz * dw)
    total = 0.0 + 0.0j
    terms = 0
    tail = math.inf
    small_streak = 0
    al, be, th, vt = params.alpha, params.beta, params.theta, params.vartheta
    sig_next = _sigma_cached(al, be, th + 1, vt, cfg).value.real
    for N in range(MAX_OUTER_TERMS):
        part = q_kernel(params, N, z, w, cfg)
        total += part.value
        terms += part.terms_used
        sig_after = _sigma_cached(al, be, th + (N + 2), vt, cfg).value.real
        head = dzdw ** (N + 1) * sig_next * inner_bound
        # the outer terms decay at the asymptotic ratio |dz dw|/4 < 1
        ratio = min(dzdw * sig_after / sig_next, 0.999)
        tail = SAFETY_FACTOR * head / (1.0 - ratio)
        sig_next = sig_after
        if tail <= cfg.tolerance * max(1.0, abs(total)):
            small_streak += 1
            if small_streak >= CONSECUTIVE_SMALL:
                return SeriesResult(total, terms, tail)
        else:
            small_streak = 0
    raise ConvergenceError(
        f"full_kernel did not converge in {MAX_OUTER_TERMS} outer terms",
        terms_used=terms, tail_estimate=tail)


def taylor_blocks(params: BidiskParams, max_degree: int,
                  cfg: TruncationConfig | None = None) -> list:
    """Per-degree Taylor coefficient matrices K_d of the full kernel:
    K_d = sum_{N <= d} sigma_N [(d-N)!/(s+2N+2)_{d-N}] v_N v_N^T with v_N the
    monomial coefficient vector of (z1-z2)^N c_{d-N}(z).  Finite and exact
    apart from sigma evaluation; positive semidefinite by construction."""
    cfg = cfg or default_config()
    if max_degree < 0:
        raise DomainError("max_degree must be >= 0")
    blocks = []
    for d in range(max_degree + 1):
        block = np.zeros((d + 1, d + 1))
        for N in range(d + 1):
            n = d - N
            sig = sigma(params.shifted(N), cfg)
            mu = math.factorial(n) / pochhammer(params.s + 2.0 * N + 2.0, n)
            # coefficients in ascending powers of z1, times (z1 - z2) one
            # factor at a time: one convolution with the binomial
            # coefficients of (z1 - z2)^N would cancel in its alternating sums
            v = np.asarray(_c_coeffs(params, N, n))
            for _ in range(N):
                v = np.convolve(v, [-1.0, 1.0])
            block += sig * mu * np.outer(v, v)
        blocks.append(block)
    return blocks


def coeff_a(params: BidiskParams, k: int, N: int) -> float:
    """a_{k,N} = (-1)^{N-k}/(k!(N-k)!) (a+k)_{N-k} / (s+N+k+2)_{N-k}
    written with the underlying weight exponents."""
    if not 0 <= k <= N:
        raise DomainError(f"need 0 <= k <= N, got k={k}, N={N}")
    al, be, th, vt = params.alpha, params.beta, params.theta, params.vartheta
    sign = -1.0 if (N - k) % 2 else 1.0
    return (sign / (math.factorial(k) * math.factorial(N - k))
            * pochhammer(al + th + vt + k + 2.0, N - k)
            / pochhammer(al + be + 2 * th + 2 * vt + N + k + 3.0, N - k))


def coeff_b(theta: float, k: int, N: int) -> float:
    """Hardy-limit coefficients b_{k,N}; the alpha = beta = -1, vartheta = 0
    degeneration of a_{k,N}."""
    if not 0 <= k <= N:
        raise DomainError(f"need 0 <= k <= N, got k={k}, N={N}")
    sign = -1.0 if (N - k) % 2 else 1.0
    return (sign / (math.factorial(k) * math.factorial(N - k))
            * pochhammer(theta + k + 1.0, N - k)
            / pochhammer(2 * theta + N + k + 1.0, N - k))


def diagonal_transform(f: BiPoly, N: int, coeff) -> UniPoly:
    """sum_k coeff(k) d^{N-k} of the diagonal restriction of d^k f / dz1^k."""
    out = UniPoly()
    for k in range(N + 1):
        restricted = f.differentiate(1, k).restrict_diagonal()
        out = out + restricted.differentiate(N - k).scale(coeff(k))
    return out


def restriction_transform(params: BidiskParams, f: BiPoly, N: int) -> UniPoly:
    """The 1D polynomial sum_k a_{k,N} d^{N-k} [d^k f restricted to the
    diagonal]; inverts the order-N projection followed by division by
    (z1-z2)^N and diagonal restriction."""
    return diagonal_transform(f, N, lambda k: coeff_a(params, k, N))


def disk_norm_sq(p: UniPoly, s: float) -> float:
    """Norm in the probability-normalized 1D space of index s, via monomial
    norms m!/(s+2)_m."""
    total = 0.0
    for m, c in p.coeffs.items():
        total += abs(c) ** 2 * math.factorial(m) / pochhammer(s + 2.0, m)
    return total


@dataclass(frozen=True)
class NormExpansion:
    """Per-vanishing-order contributions to ||f||^2 and their sum."""

    terms: tuple
    total: float


def expand(orders, transform, weight, norm1d) -> NormExpansion:
    """The norm expansion shared by every space: ||f||^2 = sum over N in
    orders of weight(N) norm1d(transform(N), N), where transform(N) is the
    order-N restriction of f to the zero variety and norm1d its 1D
    monomial-norm sum.  The weight is only evaluated for nonzero transforms."""
    terms = []
    for N in orders:
        t = transform(N)
        terms.append((N, 0.0 if t.is_zero() else weight(N) * norm1d(t, N)))
    return NormExpansion(tuple(terms), sum(v for _, v in terms))


def norm_expansion(params: BidiskParams, f: BiPoly,
                   cfg: TruncationConfig | None = None) -> NormExpansion:
    """||f||^2 = sum_N (1/sigma_N) || transform_N f ||^2 in the 1D space of
    index s + 2N; finite for polynomials since transforms of order beyond
    deg f vanish."""
    cfg = cfg or default_config()
    return expand(range(max(f.total_degree, 0) + 1),
                  lambda N: restriction_transform(params, f, N),
                  lambda N: 1.0 / sigma(params.shifted(N), cfg),
                  lambda t, N: disk_norm_sq(t, params.s + 2.0 * N))


def hardy_norm_expansion(theta: float, f: BiPoly) -> NormExpansion:
    """Weighted Hardy norm expansion: weights
    Gamma(2 theta + 2N + 2) / [(2 theta + 2N + 1) Gamma(theta + N + 1)^2],
    1D indices 2 theta + 2N, coefficients b_{k,N}."""
    if not -0.5 < theta < math.inf:  # NaN and inf fail too
        raise DomainError(
            "hardy_norm_expansion requires a finite theta > -1/2")
    return expand(
        range(max(f.total_degree, 0) + 1),
        lambda N: diagonal_transform(f, N, lambda k: coeff_b(theta, k, N)),
        lambda N: math.exp(log_gamma(2 * theta + 2 * N + 2.0)
                           - 2.0 * log_gamma(theta + N + 1.0))
        / (2 * theta + 2 * N + 1.0),
        lambda t, N: disk_norm_sq(t, 2 * theta + 2.0 * N))
