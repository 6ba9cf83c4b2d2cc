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

The inner coefficients c_n(z), the t^n coefficients of (1 - t z1)^-(a+N)
(1 - t z2)^-(b+N), come from their three-term recurrence in n: O(1) per
term, and no cancellation when z1 and z2 point apart, unlike the binomial
sum (_c_coeffs, which only taylor_blocks uses).  _inner_sums is the one loop
that sums the inner series: it runs the recurrence of many (pair, order)
cells as one numpy array recurrence, whose coefficients and geometric tail
advance by one addition or product per term.  The outer sum stops once:
_outer_tails fixes each pair's last order N_hi from the points and sigma_N
before any series runs, and the kernel is the sum of the orders 0 .. N_hi
(_outer_result).  full_kernels runs those orders of all its pairs in one
_inner_sums pass; q_kernel is one cell of _inner_sums times its prefactor,
and full_kernel calls it one order at a time.  sigma has one cache, keyed
by the weight's four exponents and the truncation settings, so
sigma(params.shifted(N)) and the order-N reads of the kernels share entries
and a warm series builds no BidiskParams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .config import (CONSECUTIVE_SMALL, DEFAULT_CONFIG, EPS, MAX_OUTER_TERMS,
                     MAX_TERMS, SAFETY_FACTOR, Point2, SeriesResult,
                     TruncationConfig)
from .errors import ConvergenceError, DomainError
from .poly2 import BiPoly
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
    try:
        r = hyp3f2_unit(th + 1.0, a, a, al + th + 2.0, a + b, cfg)
        logs = (log_gamma(al + 2.0), log_gamma(th + 1.0),
                log_gamma(al + th + 2.0))
        pref = ((be + 1.0) * math.exp(logs[0] + logs[1] - logs[2])
                / (al + be + 2 * th + 2 * vt + 3.0))
    except OverflowError:
        raise DomainError(f"the 3F2 form of bidisk sigma at (alpha, beta, "
                          f"theta, vartheta) = ({al}, {be}, {th}, {vt}) is "
                          f"not finite in double precision") from None
    val = 1.0 / (pref * r.value).real
    # the prefactor's log-Gammas, exp and four products round too
    rounding = 4 * EPS * (sum(map(abs, logs)) + 4) * val
    return SeriesResult(complex(val), r.terms_used,
                        val * val * (pref * r.tail_bound) + rounding)


def sigma(params: BidiskParams,
          cfg: TruncationConfig = DEFAULT_CONFIG) -> float:
    """The kernel value at the origin, i.e. the reciprocal total mass of the
    weight."""
    return _sigma_cached(params.alpha, params.beta, params.theta,
                         params.vartheta, cfg).value.real


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
                cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
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


def _inner_error(tail_estimate: float):
    """The error of an inner series that has not stopped in MAX_TERMS
    terms."""
    return ConvergenceError(
        f"q_kernel inner series did not converge in {MAX_TERMS} terms",
        terms_used=MAX_TERMS, tail_estimate=tail_estimate)


def q_kernel(params: BidiskParams, N: int, z: Point2, w: Point2,
             cfg: TruncationConfig = DEFAULT_CONFIG) -> SeriesResult:
    """Kernel of the order-N subspace as the double series
    (z1-z2)^N (conj(w1)-conj(w2))^N sigma_N sum_n [n!/(s+2N+2)_n]
    c_n(z) conj(c_n(w)): the prefactor times one cell of _inner_sums."""
    if N < 0:
        raise DomainError("N must be >= 0")
    _require_bidisk(z, w)
    sN = _sigma_cached(params.alpha, params.beta, params.theta + N,
                       params.vartheta, cfg)
    pref = ((z.z1 - z.z2) ** N
            * (complex(w.z1).conjugate() - complex(w.z2).conjugate()) ** N
            * sN.value.real)
    (total,), (terms,), (tail,) = (a.tolist() for a in _inner_sums(
        params, [(z, w)], np.array([0]), np.array([N]), cfg))
    if terms < 0:
        raise _inner_error(abs(pref) * tail)
    return SeriesResult(pref * total, terms,
                        abs(pref) * tail + abs(sN.tail_bound) * abs(total))


def _outer_tails(params: BidiskParams, pairs: list, cfg: TruncationConfig):
    """Each pair's order count N_hi + 1 and outer tail estimate t_N at N_hi,
    and the sigma_N they read.  t_N = SAFETY_FACTOR head / (1 - ratio) takes
    the next order's term as head = |dz dw|^(N+1) sigma_(N+1) / (1 - rz rw),
    which assumes an inner sum of at most 1/(1 - rz rw), and the decay ratio
    from the next two sigma_N.  N_hi, the pair's last order, ends the first
    CONSECUTIVE_SMALL orders in a row with t_N <= tolerance, or is
    MAX_OUTER_TERMS - 1 (see _outer_result)."""
    al, be, th, vt = params.alpha, params.beta, params.theta, params.vartheta
    sig = [_sigma_cached(al, be, th + N, vt, cfg).value.real for N in (0, 1)]
    counts, tails = [], []
    for z, w in pairs:
        dzdw = abs((z.z1 - z.z2)
                   * (complex(w.z1).conjugate() - complex(w.z2).conjugate()))
        inner_bound = 1.0 / (1.0 - max(abs(z.z1), abs(z.z2))
                             * max(abs(w.z1), abs(w.z2)))
        streak = 0
        for N in range(MAX_OUTER_TERMS):
            if len(sig) == N + 2:
                sig.append(
                    _sigma_cached(al, be, th + N + 2, vt, cfg).value.real)
            head = dzdw ** (N + 1) * sig[N + 1] * inner_bound
            # the outer terms decay at the asymptotic ratio |dz dw|/4 < 1;
            # the ratio is capped at 0.999, and a nan ratio stays nan
            ratio = dzdw * sig[N + 2] / sig[N + 1]
            tail = (SAFETY_FACTOR * head
                    / (1.0 - (0.999 if ratio > 0.999 else ratio)))
            streak = streak + 1 if tail <= cfg.tolerance else 0
            if streak == CONSECUTIVE_SMALL:
                break
        counts.append(N + 1)
        tails.append(tail)
    return counts, tails, sig


def _outer_result(total: complex, terms: int, tail: float,
                  cfg: TruncationConfig) -> SeriesResult:
    """The kernel as the sum `total` of its orders 0 .. N_hi.  Where the
    tail estimates did not end within MAX_OUTER_TERMS orders, the sum stands
    if the last estimate is within tolerance max(1, |total|), and raises
    ConvergenceError otherwise (and where either is nan)."""
    if not tail <= cfg.tolerance * max(1.0, abs(total)):
        raise ConvergenceError(
            f"full_kernel did not converge in {MAX_OUTER_TERMS} outer terms",
            terms_used=terms, tail_estimate=tail)
    return SeriesResult(total, terms, tail)


def full_kernel(params: BidiskParams, z: Point2, w: Point2,
                cfg: TruncationConfig = DEFAULT_CONFIG) -> SeriesResult:
    """Reproducing kernel as the sum of q_kernel over the vanishing orders
    0 .. N_hi (_outer_tails), with the tail estimate at N_hi."""
    _require_bidisk(z, w)
    (count,), (tail,), _ = _outer_tails(params, [(z, w)], cfg)
    # by its module-global name, so that a wrapper installed there
    # (bench/tracer.py) sees every order and its terms
    parts = [q_kernel(params, N, z, w, cfg) for N in range(count)]
    return _outer_result(sum(p.value for p in parts),
                         sum(p.terms_used for p in parts), tail, cfg)


# full_kernels runs at most _CHUNK_PAIRS pairs at a time, to keep arrays small
_CHUNK_PAIRS = 256


def full_kernels(params: BidiskParams, pairs,
                 cfg: TruncationConfig = DEFAULT_CONFIG) -> list:
    """The reproducing kernel at every (z, w) in pairs, in order, each
    full_kernel(params, z, w): the sum over the vanishing orders 0 .. N_hi
    of q_kernel, with the inner series of all (pair, order) cells run as one
    array recurrence.  Every pair is checked before any series runs; of the
    pairs that raise, the first one's error is raised, as a loop over
    full_kernel would raise it."""
    pairs = list(pairs)
    for z, w in pairs:
        _require_bidisk(z, w)
    out = []
    for start in range(0, len(pairs), _CHUNK_PAIRS):
        out += _full_kernels_chunk(params, pairs[start:start + _CHUNK_PAIRS],
                                   cfg)
    return out


def _full_kernels_chunk(params: BidiskParams, pairs: list,
                        cfg: TruncationConfig) -> list:
    """One _inner_sums pass over the orders 0 .. N_hi of every pair
    (_outer_tails), and each pair's sum of its orders."""
    counts, tails, sig = _outer_tails(params, pairs, cfg)
    # cell (i, N) for N < counts[i], in pair order
    pair_of, order = np.nonzero(
        np.arange(max(counts)) < np.array(counts)[:, None])
    sums, terms, inner_tails = _inner_sums(params, pairs, pair_of, order, cfg)
    # q_kernel's prefactors and parts as Python forms them, so that they
    # round as full_kernel's do: numpy's complex ** and products can differ
    # in the last bits, which cancelling parts magnify
    dz = [z.z1 - z.z2 for z, _ in pairs]
    dw = [complex(w.z1).conjugate() - complex(w.z2).conjugate()
          for _, w in pairs]
    prefs = [dz[i] ** N * dw[i] ** N * sig[N]
             for i, N in zip(pair_of.tolist(), order.tolist())]
    parts = [p * s for p, s in zip(prefs, sums.tolist())]
    failed = np.flatnonzero(terms < 0)
    terms = terms.tolist()
    out, start = [], 0
    for count, tail in zip(counts, tails):
        end = start + count
        # a pair's first failing inner series raises before its outer error
        if failed.size and failed[0] < end:
            k = failed[0]
            raise _inner_error(abs(prefs[k]) * float(inner_tails[k]))
        out.append(_outer_result(sum(parts[start:end]),
                                 sum(terms[start:end]), tail, cfg))
        start = end
    return out


def _inner_sums(params: BidiskParams, pairs: list, pair_of, order,
                cfg: TruncationConfig):
    """q_kernel's inner sum, before the prefactor, of each cell j, pair
    pair_of[j] at order order[j] (integer arrays), as flat arrays over the
    cells: the sums, the terms each used (-1 where MAX_TERMS terms did not
    converge) and the tail estimate at the last term.  A cell stops after
    CONSECUTIVE_SMALL terms whose tail is within tolerance, relative to its
    sum where that exceeds 1, and drops out of the arrays once it has
    stopped."""
    z1, z2, w1, w2 = np.array([(z.z1, z.z2, w.z1, w.z2) for z, w in pairs],
                              dtype=complex).T
    # the recurrence runs on both halves of one array, c_n(z) of every cell,
    # then conj(c_n(w))
    x1 = np.concatenate([z1[pair_of], w1[pair_of].conj()])
    x2 = np.concatenate([z2[pair_of], w2[pair_of].conj()])
    A = np.tile(params.a + order, 2)
    B = np.tile(params.b + order, 2)
    s2 = params.s + 2.0 * order + 2.0
    q = (np.maximum(abs(z1), abs(z2)) * np.maximum(abs(w1), abs(w2)))[pair_of]
    # (n+1) c_{n+1} = P_n c_n - R_n c_{n-1} with P_n = (A+n) x1 + (B+n) x2
    # and R_n = (A+B+n-1) x1 x2, so P and R advance by x1+x2 and x1 x2 per
    # step
    xs, xx = x1 + x2, x1 * x2
    P, R = A * x1 + B * x2, (A + B - 1.0) * xx
    c = np.ones_like(P)
    c_prev = np.zeros_like(P)
    # tail is SAFETY_FACTOR q^(n+1) / (1-q) for the terms after n, which
    # assumes |mu_n c_n(z) conj(c_n(w))| <= (rz rw)^n.  That is false: the c
    # coefficients sum to (s+2N+2)_n / n! = 1/mu_n, so the term is only
    # bounded by (rz rw)^n / mu_n (see the module docstring)
    tail = SAFETY_FACTOR / (1.0 - q)
    total = np.zeros_like(q, dtype=complex)
    mu = np.ones_like(q)
    # whether each of the last two terms was small
    small1 = small2 = np.zeros(q.shape, dtype=bool)
    cell = np.arange(q.size)
    live = cell.size
    sums = np.zeros(q.size, dtype=complex)
    terms = np.full(q.size, -1, dtype=np.int64)
    tails = np.zeros(q.size)
    tolerance = cfg.tolerance
    # inf and nan run on through the arrays without a warning, as through
    # Python's complex arithmetic
    with np.errstate(all="ignore"):
        for n in range(MAX_TERMS):
            term = mu * c[:cell.size]
            term *= c[cell.size:]
            total += term
            tail *= q
            small = tail <= tolerance * np.fmax(1.0, np.abs(total))
            done = small & small1
            done &= small2
            small1, small2 = small, small1
            if np.count_nonzero(done):
                idx = cell[done]
                sums[idx], tails[idx] = total[done], tail[done]
                terms[idx] = n + 1
                # a nan tail is never small, so a stopped cell stays stopped
                # until it is dropped with the others
                tail[done] = np.nan
                live -= idx.size
                if not live:
                    break
                if 2 * live <= cell.size:
                    keep = terms[cell] < 0
                    cell, s2, q, tail, total, mu, small1, small2 = (
                        a[keep] for a in (cell, s2, q, tail, total, mu,
                                          small1, small2))
                    keep = np.tile(keep, 2)
                    xs, xx, P, R, c, c_prev = (
                        a[keep] for a in (xs, xx, P, R, c, c_prev))
            m = n + 1.0
            mu *= m / (s2 + n)
            c_next = P * c
            c_next -= R * c_prev
            # dividing the float view by m divides each part by the real m,
            # where a complex array / m would divide by complex(m)
            parts = c_next.view(float)
            parts /= m
            c, c_prev = c_next, c
            P += xs
            R += xx
        else:
            unstopped = terms[cell] < 0
            tails[cell[unstopped]] = tail[unstopped]
    return sums, terms, tails


def taylor_blocks(params: BidiskParams, max_degree: int,
                  cfg: TruncationConfig = DEFAULT_CONFIG) -> list:
    """Per-degree Taylor coefficient matrices K_d of the full kernel:
    K_d = sum_{N <= d} sigma_N [(d-N)!/(s+2N+2)_{d-N}] v_N v_N^T with v_N the
    monomial coefficient vector of (z1-z2)^N c_{d-N}(z).  Finite and exact
    apart from sigma evaluation; positive semidefinite by construction."""
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


def _coeff(a: float, s: float, k: int, N: int) -> float:
    """(-1)^{N-k}/(k!(N-k)!) (a+k)_{N-k} / (s+N+k+1)_{N-k}."""
    if not 0 <= k <= N:
        raise DomainError(f"need 0 <= k <= N, got k={k}, N={N}")
    sign = -1.0 if (N - k) % 2 else 1.0
    return (sign / (math.factorial(k) * math.factorial(N - k))
            * pochhammer(a + k, N - k) / pochhammer(s + N + k + 1.0, N - k))


def coeff_a(params: BidiskParams, k: int, N: int) -> float:
    """a_{k,N} = (-1)^{N-k}/(k!(N-k)!) (a+k)_{N-k} / (s+N+k+1)_{N-k}."""
    return _coeff(params.a, params.s, k, N)


def coeff_b(theta: float, k: int, N: int) -> float:
    """Hardy-limit coefficients b_{k,N}: a_{k,N} at alpha = beta = -1,
    vartheta = 0, where a = theta + 1 and s = 2 theta."""
    return _coeff(theta + 1.0, 2.0 * theta, k, N)


def _binomial_weights(a: float, b: float, s: float, N: int) -> np.ndarray:
    """diagonal_transform's weights (-1)^(N-j) (a+j)_(N-j) (b+N-j)_j /
    [(s+N+j+1)_(N-j) (s+N+1)_j] for these a, b and s, as running products."""
    i = np.arange(N)
    den = s + N + 1.0 + i
    return (np.cumprod(np.concatenate((-(a + i) / den, [1.0]))[::-1])[::-1]
            * np.cumprod(np.concatenate(([1.0], (b + N - 1.0 - i) / den))))


# the largest total degree of a polynomial that a norm expansion takes, in
# every space: every C(1029, j) is finite in double precision, C(1030, 515)
# is not
MAX_DEGREE = 1029
# C(m, j) as floats for 0 <= m, j < its size, grown by _binomial_table
_binomials = np.ones((1, 1))


def _binomial_table(size: int) -> np.ndarray:
    """C(m, j) as floats for 0 <= m, j < size, by Pascal's rule; exact while
    finite, which they are for m <= MAX_DEGREE (DomainError past it)."""
    global _binomials
    if size > MAX_DEGREE + 1:
        raise DomainError(f"binomial coefficients C({size - 1}, j) are "
                          f"not finite in double precision")
    if len(_binomials) < size:
        binom = np.zeros((size, size))
        binom[:, 0] = 1.0
        for m in range(1, size):
            binom[m, 1:] = binom[m - 1, 1:] + binom[m - 1, :-1]
        _binomials = binom
    return _binomials[:size, :size]


def diagonal_transform(f: BiPoly, N: int, weights) -> BiPoly:
    """sum_j w_j d1^j d2^(N-j) f restricted once to the diagonal, from
    weights[j] = j! (N-j)! w_j: c z1^m z2^n goes to c M[m, n] z1^(m+n-N),
    M[m, n] = sum_j weights[j] C(m, j) C(n, N-j).  With d/dz1 = d1 + d2 on
    the diagonal it is sum_k c_k d^{N-k} [d1^k f restricted] for w_j =
    sum_{k<=j} c_k C(N-k, j-k), whose terms grow like 2^N times it."""
    if N < 0:
        raise DomainError("N must be >= 0")
    binom = _binomial_table(max(f.total_degree, N) + 1)
    M = ((binom[:, :N + 1] * weights) @ binom[:, N::-1].T).tolist()
    out: dict = {}
    for (m, n), c in f.coeffs.items():
        if m + n >= N:
            out[m + n - N, 0] = out.get((m + n - N, 0), 0) + c * M[m][n]
    return BiPoly(out)


def restriction_transform(params: BidiskParams, f: BiPoly, N: int) -> BiPoly:
    """The polynomial in z1 sum_k a_{k,N} d^{N-k} [d^k f restricted to the
    diagonal], taken as one operator restricted once; inverts the order-N
    projection followed by division by (z1-z2)^N and diagonal restriction."""
    return diagonal_transform(
        f, N, _binomial_weights(params.a, params.b, params.s, N))


def disk_norm_sq(p: BiPoly, s: float) -> float:
    """Norm of a polynomial in z1 in the probability-normalized 1D space of
    index s, via monomial norms m!/(s+2)_m taken as running products."""
    total, norm = 0.0, 1.0
    for m in range(p.degree_in(1) + 1):
        total += abs(p.coeffs.get((m, 0), 0)) ** 2 * norm
        norm *= (m + 1.0) / (s + 2.0 + m)
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
    return NormExpansion(tuple(terms), sum((v for _, v in terms), 0.0))


def norm_expansion(params: BidiskParams, f: BiPoly,
                   cfg: TruncationConfig = DEFAULT_CONFIG) -> NormExpansion:
    """||f||^2 = sum_N (1/sigma_N) || transform_N f ||^2 in the 1D space of
    index s + 2N; finite for polynomials since transforms of order beyond
    deg f vanish."""
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

    def weight(N):
        try:
            return math.exp(log_gamma(2 * theta + 2 * N + 2.0)
                            - 2.0 * log_gamma(theta + N + 1.0)
                            ) / (2 * theta + 2 * N + 1.0)
        except OverflowError:
            raise DomainError(f"Hardy norm weight of order {N} at theta = "
                              f"{theta} is not finite in double precision"
                              ) from None

    return expand(
        range(max(f.total_degree, 0) + 1),
        lambda N: diagonal_transform(f, N, _binomial_weights(
            theta + 1.0, theta + 1.0, 2.0 * theta, N)),
        weight, lambda t, N: disk_norm_sq(t, 2 * theta + 2.0 * N))
