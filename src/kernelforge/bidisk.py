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
sum (which only taylor_blocks uses, for exact monomial coefficients, all
orders in one array).  _inner_sums is the one loop that sums the inner
series: it runs the recurrence of many (pair, order) cells as one numpy
array recurrence, whose coefficients and geometric tail advance by one
addition or product per term.  The outer sum stops once: _outer_tails fixes
each pair's last order N_hi from the points and sigma_N before any series
runs, and the kernel is the sum of the orders 0 .. N_hi (_outer_result).
_order_terms forms each cell's order-N term, the factor (z1-z2)^N
conj(w1-w2)^N sigma_N times its inner sum: full_kernels runs the orders of
a chunk of pairs in one pass of it, q_kernel is one cell of it, and
full_kernel calls q_kernel one order at a time.  sigma has one cache, keyed
by the weight's four exponents: the kernels, taylor_blocks and
norm_expansion read sigma_N as its entry at theta + N, so they share entries
and a warm series builds no BidiskParams.

Both full kernels sum each pair in its Moebius frame (_frame; ROADMAP, "A
Möbius frame for each bidisk pair"): the weight is covariant under one disk
automorphism applied to both coordinates, so K(z, w) = F K(psi z, psi w)
with a closed factor F.  The centre c is the gyromidpoint of z1 and z2 or
that of w1 and w2, whichever leaves the smaller max|psi(z_i)|
max|psi(w_i)|, the rate of the moved series; a pair with a point on the
diagonal z1 = z2 moves it to the origin up to rounding, the paper's reduction.
The series run on the moved rows, and tail_bound is |F| times their
estimate plus the rounding of F and of the map, of the order of (a+b) EPS
|log(1-|c|^2)| relative to |K| (derived in _frame).  Where c is 0, or the
frame is not finite, the pair stays where it is, with F = 1, and its
results are those of the direct series to the last bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .config import (CONSECUTIVE_SMALL, EPS, MAX_OUTER_TERMS, MAX_TERMS,
                     SAFETY_FACTOR, TOLERANCE, Point2, SeriesResult)
from .errors import ConvergenceError, DomainError
from .poly2 import BiPoly
from .specfun import hyp3f2_unit, log_gamma


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
def _sigma_cached(al: float, be: float, th: float,
                  vt: float) -> SeriesResult:
    """sigma and its tail bound for the weight exponents (alpha, beta, theta,
    vartheta), the cache's whole key, from 1/sigma = (beta+1) Gamma(alpha+2)
    Gamma(theta+1) / [(a+b-1) Gamma(alpha+theta+2)] times 3F2(theta+1, a, a;
    alpha+theta+2, a+b; 1).  The order-N subspace's sigma_N is the entry at
    theta + N."""
    a = al + th + vt + 2.0
    b = be + th + vt + 2.0
    try:
        r = hyp3f2_unit(th + 1.0, a, a, al + th + 2.0, a + b)
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


def sigma(params: BidiskParams) -> float:
    """The kernel value at the origin, i.e. the reciprocal total mass of the
    weight."""
    return _sigma_cached(params.alpha, params.beta, params.theta,
                         params.vartheta).value.real


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


def diag_kernel(params: BidiskParams, z: Point2, w1: complex) -> complex:
    """Kernel against a diagonal point: P(z, (w1, w1)) =
    sigma / [(1 - conj(w1) z1)^a (1 - conj(w1) z2)^b]."""
    _require_bidisk(z, Point2(w1, w1))
    wc = complex(w1).conjugate()
    return (sigma(params)
            * (1.0 - wc * z.z1) ** (-params.a)
            * (1.0 - wc * z.z2) ** (-params.b))


def _inner_error(tail_estimate: float):
    """The error of an inner series that has not stopped in MAX_TERMS
    terms, with that series' tail estimate (in its pair's frame)."""
    return ConvergenceError(
        f"q_kernel inner series did not converge in {MAX_TERMS} terms",
        terms_used=MAX_TERMS, tail_estimate=tail_estimate)


def q_kernel(params: BidiskParams, N: int, z: Point2,
             w: Point2) -> SeriesResult:
    """Kernel of the order-N subspace as the double series
    (z1-z2)^N (conj(w1)-conj(w2))^N sigma_N sum_n [n!/(s+2N+2)_n]
    c_n(z) conj(c_n(w)): one cell of _order_terms."""
    if N < 0:
        raise DomainError("N must be >= 0")
    _require_bidisk(z, w)
    sN = _sigma_cached(params.alpha, params.beta, params.theta + N,
                       params.vartheta)
    (part,), (terms,), (tail,) = (a.tolist() for a in _order_terms(
        params, _coords([(z, w)]), np.array([0]), np.array([N]),
        sN.value.real))
    if terms < 0:
        raise _inner_error(tail)
    # sigma_N's error moves the part by its share tail(sigma_N) / sigma_N
    return SeriesResult(part, terms,
                        tail + abs(part) * sN.tail_bound / sN.value.real)


def _coords(pairs) -> np.ndarray:
    """The coordinate rows (z1, z2, w1, w2) of the (z, w) pairs."""
    return np.array([(z.z1, z.z2, w.z1, w.z2) for z, w in pairs],
                    dtype=complex)


def _gyromidpoint(p, q):
    """The hyperbolic midpoint of p and q in the unit disk, x / (1 +
    sqrt(1 - |x|^2)) with x = (gp p + gq q) / (gp + gq - 1) and g = 1 / (1 -
    |.|^2): the same bits for (q, p); for q = p, p up to rounding of about
    EPS / (1 - |p|^2) relative (1 - 1.1e-16 goes to 1.0)."""
    gp, gq = 1.0 / (1.0 - abs(p) ** 2), 1.0 / (1.0 - abs(q) ** 2)
    x = (gp * p + gq * q) / (gp + gq - 1.0)
    return x / (1.0 + np.sqrt(1.0 - abs(x) ** 2))


def _frame(params: BidiskParams, coords):
    """Each pair's Moebius frame, for the rows (z1, z2, w1, w2) of coords:
    the moved rows, the factor F and its rounding relative to |K|, with
    K(z, w) = F K(psi z, psi w).

    psi(t) = (t - c) / (1 - conj(c) t) takes c to 0.  It is -phi_c, under
    which, applied to both coordinates, the weight is covariant (ROADMAP, "A
    Möbius frame for each bidisk pair"), and K(-z, -w) = K(z, w); so F =
    (1-|c|^2)^(a+b) / [(1-conj(c) z1)^a (1-conj(c) z2)^b conj((1-conj(c)
    w1)^a (1-conj(c) w2)^b)], formed as the exp of a sum of logs, since its
    powers alone leave double range near the circle.  c is the gyromidpoint
    of z1 and z2, or that of w1 and w2, whichever gives the smaller
    max|psi(z_i)| max|psi(w_i)|, the rate of the moved series.  A row stays
    as it is, with F = 1 and no rounding, where c is 0, the frame is not
    finite, or a moved point rounds onto the circle.

    The rounding, to first order in EPS and relative to |K|:
    - log F sums five terms l_k, the exponents times log(1-|c|^2) and
      log(1-conj(c) t); each rounds by 2 EPS |l_k|, and their sum by 4 EPS
      sum|l_k|;
    - the arguments round by EPS (1 + 2|c|^2/(1-|c|^2)) and EPS (1 + 3g)
      relative, g = max|c t|/|1-conj(c) t| <= |c|/min|1-conj(c) t|, times
      their exponents;
    - exp and the product F K add 3 EPS;
    - each moved coordinate rounds by EPS (6 + 3g) relative, which moves
      K(psi z, psi w) by (a+b) q/(1-q) times that on each side, q the
      rate: exact for the product kernel, an estimate otherwise.
    Away from the circle the first term leads, a small multiple of (a+b)
    EPS |log(1-|c|^2)|."""
    a, b = params.a, params.b
    rows = np.arange(len(coords))
    with np.errstate(all="ignore"):
        # column 0 the gyromidpoint of (z1, z2), column 1 that of (w1, w2),
        # each applied to the whole row
        c = _gyromidpoint(coords[:, 0::2], coords[:, 1::2])
        den = 1.0 - c.conj()[:, :, None] * coords[:, None]
        moved = (coords[:, None] - c[:, :, None]) / den
        radii = abs(moved)
        rz = np.maximum(radii[:, :, 0], radii[:, :, 1])
        rw = np.maximum(radii[:, :, 2], radii[:, :, 3])
        rate = rz * rw
        pick = (rate[:, 1] < rate[:, 0]).astype(int)
        c, den, moved, rate, radius = (v[rows, pick] for v in (
            c, den, moved, rate, np.maximum(rz, rw)))
        size = abs(c)
        c2 = size * size
        l0 = (a + b) * np.log1p(-c2)
        logs = np.log(den) * [a, b, a, b]
        F = np.exp(l0 - (logs[:, 0] + logs[:, 1]
                         + (logs[:, 2] + logs[:, 3]).conj()))
        g = size / abs(den).min(axis=1)
        rounding = EPS * (
            6.0 * (abs(l0) + abs(logs).sum(axis=1)) + 3.0
            + (abs(a) + abs(b)) * (2.0 * c2 / (1.0 - c2) + 2.0 + 6.0 * g
                                   + (12.0 + 6.0 * g) * rate / (1.0 - rate)))
        # nan compares false, so a frame that is not finite keeps c = 0;
        # with F finite and not 0, so are its logs and the rounding
        moves = ((c != 0) & (radius < 1.0)
                 & (abs(F) >= sys.float_info.min) & (abs(F) < np.inf))
    return (np.where(moves[:, None], moved, coords), np.where(moves, F, 1.0),
            np.where(moves, rounding, 0.0))


def _outer_tails(params: BidiskParams, coords):
    """Each pair's order count N_hi + 1 and outer tail estimate t_N at N_hi,
    for the rows (z1, z2, w1, w2) of coords, and the sigma_N they read.
    t_N = SAFETY_FACTOR head / (1 - ratio) takes the next order's term as
    head = |dz dw|^(N+1) sigma_(N+1) / (1 - rz rw), which assumes an inner
    sum of at most 1/(1 - rz rw), and the decay ratio from the next two
    sigma_N.  N_hi, the pair's last order, ends the first CONSECUTIVE_SMALL
    orders in a row with t_N <= TOLERANCE, or is MAX_OUTER_TERMS - 1 (see
    _outer_result)."""
    al, be, th, vt = params.alpha, params.beta, params.theta, params.vartheta
    sig = [_sigma_cached(al, be, th + N, vt).value.real for N in (0, 1)]
    counts, tails = [], []
    for z1, z2, w1, w2 in coords.tolist():
        dzdw = abs((z1 - z2) * (w1.conjugate() - w2.conjugate()))
        inner_bound = 1.0 / (1.0 - max(abs(z1), abs(z2))
                             * max(abs(w1), abs(w2)))
        streak = 0
        for N in range(MAX_OUTER_TERMS):
            if len(sig) == N + 2:
                sig.append(_sigma_cached(al, be, th + N + 2, vt).value.real)
            head = dzdw ** (N + 1) * sig[N + 1] * inner_bound
            # the outer terms decay at the asymptotic ratio |dz dw|/4 < 1;
            # the ratio is capped at 0.999, and a nan ratio stays nan
            ratio = dzdw * sig[N + 2] / sig[N + 1]
            tail = (SAFETY_FACTOR * head
                    / (1.0 - (0.999 if ratio > 0.999 else ratio)))
            streak = streak + 1 if tail <= TOLERANCE else 0
            if streak == CONSECUTIVE_SMALL:
                break
        counts.append(N + 1)
        tails.append(tail)
    return counts, tails, sig


def _outer_result(total: complex, terms: int, tail: float, F: complex,
                  rounding: float) -> SeriesResult:
    """The kernel K = F total from the sum `total` of its orders 0 .. N_hi
    in the pair's frame and the frame's F and rounding (_frame), with
    tail_bound |F| tail plus the rounding.  Where the tail estimates did not
    end within MAX_OUTER_TERMS orders, the sum stands if |F| tail is within
    TOLERANCE max(1, |K|), and raises ConvergenceError otherwise (and where
    either is nan)."""
    value, tail = F * total, abs(F) * tail
    if not tail <= TOLERANCE * max(1.0, abs(value)):
        raise ConvergenceError(
            f"full_kernel did not converge in {MAX_OUTER_TERMS} outer terms",
            terms_used=terms, tail_estimate=tail)
    return SeriesResult(value, terms, tail + rounding * abs(value))


def full_kernel(params: BidiskParams, z: Point2, w: Point2) -> SeriesResult:
    """Reproducing kernel as F times the sum of q_kernel over the vanishing
    orders 0 .. N_hi (_outer_tails) at the pair moved to its frame
    (_frame), with the tail estimate at N_hi."""
    _require_bidisk(z, w)
    moved, F, rounding = _frame(params, _coords([(z, w)]))
    (count,), (tail,), _ = _outer_tails(params, moved)
    z1, z2, w1, w2 = moved[0].tolist()
    z, w = Point2(z1, z2), Point2(w1, w2)
    # by its module-global name, so that a wrapper installed there
    # (bench/tracer.py) sees every order and its terms
    parts = [q_kernel(params, N, z, w) for N in range(count)]
    return _outer_result(sum(p.value for p in parts),
                         sum(p.terms_used for p in parts), tail,
                         *F.tolist(), *rounding.tolist())


# full_kernels runs at most _CHUNK_PAIRS pairs at a time, to keep arrays small
_CHUNK_PAIRS = 256


def full_kernels(params: BidiskParams, pairs) -> list:
    """The reproducing kernel at every (z, w) in pairs, in order, each
    full_kernel(params, z, w), with the (pair, order) cells of up to
    _CHUNK_PAIRS pairs, moved to their frames, in one _order_terms pass.
    Every pair is checked before any series runs; of the pairs that raise,
    the first one's error is raised, as a loop over full_kernel would raise
    it."""
    pairs = list(pairs)
    for z, w in pairs:
        _require_bidisk(z, w)
    out = []
    for start in range(0, len(pairs), _CHUNK_PAIRS):
        coords, F, rounding = _frame(
            params, _coords(pairs[start:start + _CHUNK_PAIRS]))
        counts, tails, sig = _outer_tails(params, coords)
        # cell (i, N) for N < counts[i], in pair order
        pair_of, order = np.nonzero(
            np.arange(max(counts)) < np.array(counts)[:, None])
        parts, terms, inner_tails = _order_terms(
            params, coords, pair_of, order, np.take(sig, order))
        failed = np.flatnonzero(terms < 0)
        parts, terms = parts.tolist(), terms.tolist()
        end = 0
        for count, tail, f, r in zip(counts, tails, F.tolist(),
                                     rounding.tolist()):
            begin, end = end, end + count
            # an inner series' error comes before its pair's outer one
            if failed.size and failed[0] < end:
                raise _inner_error(float(inner_tails[failed[0]]))
            out.append(_outer_result(sum(parts[begin:end]),
                                     sum(terms[begin:end]), tail, f, r))
    return out


def _order_terms(params: BidiskParams, coords, pair_of, order, sig):
    """The order-N term of the kernel at each cell j, pair pair_of[j] at
    order N = order[j] (integer arrays), with row i of coords the
    coordinates (z1, z2, w1, w2) of pair i and sig the cell's sigma_N (per
    cell, or one): the factor (z1-z2)^N conj(w1-w2)^N sigma_N times the inner
    sum (_inner_sums).  Flat arrays over the cells: the terms, the inner
    terms each used (-1 where MAX_TERMS terms did not converge) and the
    inner tail estimate times the factor's modulus."""
    sums, terms, tails = _inner_sums(params, coords, pair_of, order)
    z1, z2, w1, w2 = coords[pair_of].T
    factor = (z1 - z2) ** order * (w1 - w2).conj() ** order * sig
    return factor * sums, terms, abs(factor) * tails


def _inner_sums(params: BidiskParams, coords, pair_of, order):
    """The inner sum sum_n [n!/(s+2N+2)_n] c_n(z) conj(c_n(w)) of each cell
    j, pair pair_of[j] at order N = order[j] (integer arrays), with row i of
    coords the coordinates (z1, z2, w1, w2) of pair i, as flat arrays over
    the cells: the sums, the terms each used (-1 where MAX_TERMS terms did not
    converge) and the tail estimate at the last term.  A cell stops after
    CONSECUTIVE_SMALL terms whose tail is within TOLERANCE, relative to its
    sum where that exceeds 1, and drops out of the arrays once it has
    stopped."""
    z1, z2, w1, w2 = coords.T
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
    # whether each of the last CONSECUTIVE_SMALL - 1 terms was small, the
    # latest first
    recent = [np.zeros(q.shape, dtype=bool)] * (CONSECUTIVE_SMALL - 1)
    cell = np.arange(q.size)
    live = cell.size
    sums = np.zeros(q.size, dtype=complex)
    terms = np.full(q.size, -1, dtype=np.int64)
    tails = np.zeros(q.size)
    tolerance = TOLERANCE
    # inf and nan run on through the arrays without a warning, as through
    # Python's complex arithmetic
    with np.errstate(all="ignore"):
        for n in range(MAX_TERMS):
            # not in place: numpy multiplies a one-element complex array in
            # place with other roundings than it does longer arrays
            term = mu * c[:cell.size] * c[cell.size:]
            total += term
            tail *= q
            small = tail <= tolerance * np.fmax(1.0, np.abs(total))
            done = small
            for flag in recent:
                done = done & flag
            recent = [small, *recent][:CONSECUTIVE_SMALL - 1]
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
                    cell, s2, q, tail, total, mu, *recent = (
                        a[keep] for a in (cell, s2, q, tail, total, mu,
                                          *recent))
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


# the array passes take a chunk of orders or of f's terms at a time, as
# full_kernels takes pairs, so that each intermediate array holds about
# _CHUNK_ENTRIES numbers in the norm expansions' transforms, and about
# _TAYLOR_CHUNK in taylor_blocks, whose blocks alone hold about
# max_degree^3 / 3 and which adds to every block once per chunk
_CHUNK_ENTRIES = 2048
_TAYLOR_CHUNK = 1 << 18


def taylor_blocks(params: BidiskParams, max_degree: int) -> list:
    """Per-degree Taylor coefficient matrices K_d of the full kernel:
    K_d = sum_{N <= d} sigma_N [(d-N)!/(s+2N+2)_{d-N}] v_N v_N^T with v_N the
    monomial coefficient vector of (z1-z2)^N c_{d-N}(z).  Finite and exact
    apart from sigma evaluation; positive semidefinite by construction.

    The vectors of every order N and inner degree n are rows of one array,
    built a chunk of orders at a time: c_n's coefficients (a+N)_j/j!
    (b+N)_{n-j}/(n-j)!, then the N factors (z1 - z2) one at a time; each K_d
    is then one product V_d^T diag(sigma_N mu) V_d over its rows."""
    if max_degree < 0:
        raise DomainError("max_degree must be >= 0")
    size = max_degree + 1
    orders = np.arange(size)
    # (a+N)_j/j! and (b+N)_j/j! as running products over j, one row per N
    ab = np.concatenate((params.a + orders, params.b + orders))
    left_right = np.ones((2 * size, size))
    for j in range(1, size):
        left_right[:, j] = left_right[:, j - 1] * (ab + j - 1.0) / j
    left, right = left_right[:size], left_right[size:]
    # sigma_N n!/(s+2N+2)_n
    weight = disk_norms(params.s + 2.0 * orders, size) * np.array(
        [[_sigma_cached(params.alpha, params.beta, params.theta + N,
                        params.vartheta).value.real] for N in range(size)])
    blocks = [np.zeros((d + 1, d + 1)) for d in range(size)]
    step = max(1, _TAYLOR_CHUNK // size ** 2)
    for lo in range(0, size, step):
        hi = min(lo + step, size)
        # the rows of order N are n = 0 .. max_degree - N; the orders run
        # down, so that the rows of the orders >= k lead
        down = np.arange(hi - 1, lo - 1, -1)
        counts = size - down
        N = np.repeat(down, counts)
        n = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts,
                                                counts)
        rows = np.where(orders <= n[:, None], left[N] * right[
            N[:, None], np.maximum(n[:, None] - orders, 0)], 0.0)
        # times (z1 - z2) one factor at a time, as np.convolve(v, [-1, 1]):
        # one convolution with the binomial coefficients of (z1 - z2)^N
        # would cancel in its alternating sums
        led = np.cumsum(counts)
        for k in range(1, hi):
            r = led[hi - 1 - max(k, lo)]
            rows[:r, 1:] = rows[:r, :-1] - rows[:r, 1:]
            rows[:r, 0] = -rows[:r, 0]
        # K_d reads the rows of N + n = d, in ascending N
        by_degree = np.lexsort((N, N + n))
        # as u^T u with u = sqrt(sigma_N mu) v, which numpy forms exactly
        # symmetric
        rows = rows[by_degree] * np.sqrt(weight[N, n][by_degree, None])
        bounds = np.searchsorted((N + n)[by_degree],
                                 np.arange(size + 1)).tolist()
        for d in range(lo, size):
            u = rows[bounds[d]:bounds[d + 1], :d + 1]
            blocks[d] += u.T @ u
    return blocks


def _coeff(a: float, s: float, k: int, N: int) -> float:
    """(-1)^{N-k}/(k!(N-k)!) (a+k)_{N-k} / (s+N+k+1)_{N-k}."""
    if not 0 <= k <= N:
        raise DomainError(f"need 0 <= k <= N, got k={k}, N={N}")
    # factor i is below 2/(i+1), so no partial product overflows; the int
    # quotient 1/k! is correctly rounded and underflows rather than raise
    out = -1.0 if (N - k) % 2 else 1.0
    for i in range(N - k):
        out *= (a + k + i) / ((s + N + k + 1.0 + i) * (i + 1))
    return out * (1 / math.factorial(k))


def coeff_a(params: BidiskParams, k: int, N: int) -> float:
    """a_{k,N} = (-1)^{N-k}/(k!(N-k)!) (a+k)_{N-k} / (s+N+k+1)_{N-k}."""
    return _coeff(params.a, params.s, k, N)


def coeff_b(theta: float, k: int, N: int) -> float:
    """Hardy-limit coefficients b_{k,N}: a_{k,N} at alpha = beta = -1,
    vartheta = 0, where a = theta + 1 and s = 2 theta."""
    return _coeff(theta + 1.0, 2.0 * theta, k, N)


def _binomial_weight_rows(a: float, b: float, s: float, lo: int,
                          hi: int) -> np.ndarray:
    """diagonal_transform's weights (-1)^(N-j) (a+j)_(N-j) (b+N-j)_j /
    [(s+N+j+1)_(N-j) (s+N+1)_j] for these a, b and s, row N - lo for the
    orders N = lo .. hi-1 and column j < hi (0 past N), as running
    products."""
    N = np.arange(lo, hi)[:, None]
    i = np.arange(hi)
    den = s + N + 1.0 + i
    # the product over N > i >= j, then over i < j
    down = np.where(i < N, -(a + i) / den, 1.0)
    up = np.ones_like(den)
    up[:, 1:] = (b + N - 1.0 - i[:-1]) / den[:, :-1]
    return np.where(i <= N, np.cumprod(down[:, ::-1], axis=1)[:, ::-1]
                    * np.cumprod(up, axis=1), 0.0)


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


def _transform_rows(f: BiPoly, lo: int, weights: np.ndarray) -> np.ndarray:
    """diagonal_transform of f at the orders N = lo .. lo + len(weights) - 1,
    row N - lo of weights holding that order's weights: row N - lo of the
    result holds the z1^p coefficients, p <= deg f - lo, of the order-N
    transform.  One pass over f's terms, a chunk at a time, evaluates
    M_N[m, n] at each term and every order."""
    count, hi = weights.shape
    degree = f.total_degree
    binom = _binomial_table(max(degree + 1, hi))
    width = max(degree + 1 - lo, 0)
    terms = len(f.coeffs)
    m, n = np.fromiter(f.coeffs, np.dtype((np.intp, 2)), terms).T
    c = np.fromiter(f.coeffs.values(), complex, terms)
    rows = np.arange(count)[:, None]
    out = np.zeros(count * width, dtype=complex)
    step = max(1, _CHUNK_ENTRIES // hi)
    for start in range(0, terms, step):
        chunk = slice(start, start + step)
        first, second = binom[m[chunk], :hi], binom[n[chunk], :hi]
        M = np.empty((count, len(first)))
        for i in range(count):
            N = lo + i
            M[i] = (first[:, :N + 1] * second[:, N::-1]) @ weights[i, :N + 1]
        # term t adds c_t M_N[m_t, n_t] at p = m_t + n_t - N, row N - lo
        p = m[chunk] + n[chunk] - lo - rows
        keep = p >= 0
        np.add.at(out, (p + rows * width)[keep], (c[chunk] * M)[keep])
    return out.reshape(count, width)


def diagonal_transform(f: BiPoly, N: int, weights) -> BiPoly:
    """sum_j w_j d1^j d2^(N-j) f restricted once to the diagonal, from
    weights[j] = j! (N-j)! w_j: c z1^m z2^n goes to c M[m, n] z1^(m+n-N),
    M[m, n] = sum_j weights[j] C(m, j) C(n, N-j).  With d/dz1 = d1 + d2 on
    the diagonal it is sum_k c_k d^{N-k} [d1^k f restricted] for w_j =
    sum_{k<=j} c_k C(N-k, j-k), whose terms grow like 2^N times it.  The
    single-order case of the norm expansions' pass (_transform_rows)."""
    if N < 0:
        raise DomainError("N must be >= 0")
    with np.errstate(all="ignore"):
        row = _transform_rows(f, N, np.asarray(weights, dtype=float)[None])
    return BiPoly({(p, 0): c for p, c in enumerate(row[0].tolist())})


def restriction_transform(params: BidiskParams, f: BiPoly, N: int) -> BiPoly:
    """The polynomial in z1 sum_k a_{k,N} d^{N-k} [d^k f restricted to the
    diagonal], taken as one operator restricted once; inverts the order-N
    projection followed by division by (z1-z2)^N and diagonal restriction."""
    return diagonal_transform(f, N, _binomial_weight_rows(
        params.a, params.b, params.s, N, N + 1)[0])


def disk_norms(x, size: int) -> np.ndarray:
    """The monomial norms m!/(x+2)_m, m < size, of the probability-normalized
    1D space of index x[i] in row i: running products of (k+1)/(x+2+k)."""
    k = np.arange(size - 1)
    norms = np.ones((len(x), size))
    norms[:, 1:] = (k + 1.0) / (x[:, None] + 2.0 + k)
    return np.cumprod(norms, axis=1)


@dataclass(frozen=True)
class NormExpansion:
    """Per-vanishing-order contributions to ||f||^2 and their sum."""

    terms: tuple
    total: float


def expand(f: BiPoly, orders: int, transforms, norms, weight) -> NormExpansion:
    """The norm expansion shared by every space: ||f||^2 = sum over the
    orders N < `orders` of weight(N) times the 1D monomial-norm sum of f's
    order-N restriction to the zero variety.  transforms(lo, hi) gives the
    restrictions of the orders lo .. hi-1 as rows of z1 coefficients, at
    most deg f + 1 each, and norms(rows, lo) the norm sum of each row; the
    orders come a chunk of about _CHUNK_ENTRIES coefficients at a time.  The
    weight is only evaluated where a row is not zero.  DomainError past
    total degree MAX_DEGREE, and where a term, named by its order, or the
    total is not finite in double precision."""
    if f.total_degree > MAX_DEGREE:
        raise DomainError(f"polynomial degree {f.total_degree} exceeds "
                          f"{MAX_DEGREE}, the largest a norm expansion takes: "
                          f"its binomial coefficients are not finite in "
                          f"double precision")
    terms = []
    step = max(1, _CHUNK_ENTRIES // (max(f.total_degree, 0) + 1))
    for lo in range(0, orders, step):
        hi = min(lo + step, orders)
        # overflow shows as a term that is not finite
        with np.errstate(all="ignore"):
            rows = transforms(lo, hi)
            sums = norms(rows, lo).tolist()
        for N, nonzero, s in zip(range(lo, hi), rows.any(axis=1).tolist(),
                                 sums):
            try:
                term = weight(N) * s if nonzero else 0.0
            except OverflowError:
                term = math.inf
            if not math.isfinite(term):
                raise DomainError(f"norm expansion term of order {N} is not "
                                  f"finite in double precision")
            terms.append((N, term))
    total = sum((v for _, v in terms), 0.0)
    if not math.isfinite(total):
        raise DomainError("norm expansion total is not finite in double "
                          "precision")
    return NormExpansion(tuple(terms), total)


def disk_expansion(f: BiPoly, orders: int, transforms, x0: float,
                   step: float, weight) -> NormExpansion:
    """expand with the norms of disk_norms: the order-N row of
    transforms(lo, hi) lies in the 1D space of index x0 + step N."""
    return expand(f, orders, transforms, lambda rows, lo: (
        np.abs(rows) ** 2 * disk_norms(x0 + step * np.arange(
            lo, lo + len(rows)), rows.shape[1])).sum(axis=1), weight)


def norm_expansion(params: BidiskParams, f: BiPoly) -> NormExpansion:
    """||f||^2 = sum_N (1/sigma_N) || transform_N f ||^2 in the 1D space of
    index s + 2N; finite for polynomials since transforms of order beyond
    deg f vanish."""
    al, be, th, vt = params.alpha, params.beta, params.theta, params.vartheta
    return disk_expansion(
        f, max(f.total_degree, 0) + 1,
        lambda lo, hi: _transform_rows(f, lo, _binomial_weight_rows(
            params.a, params.b, params.s, lo, hi)),
        params.s, 2.0,
        lambda N: 1.0 / _sigma_cached(al, be, th + N, vt).value.real)


def hardy_norm_expansion(theta: float, f: BiPoly) -> NormExpansion:
    """Weighted Hardy norm expansion: weights
    Gamma(2 theta + 2N + 2) / [(2 theta + 2N + 1) Gamma(theta + N + 1)^2],
    1D indices 2 theta + 2N, coefficients b_{k,N}."""
    if not -0.5 < theta < math.inf:  # NaN and inf fail too
        raise DomainError(
            "hardy_norm_expansion requires a finite theta > -1/2")
    return disk_expansion(
        f, max(f.total_degree, 0) + 1,
        lambda lo, hi: _transform_rows(f, lo, _binomial_weight_rows(
            theta + 1.0, theta + 1.0, 2.0 * theta, lo, hi)),
        2 * theta, 2.0,
        lambda N: math.exp(log_gamma(2 * theta + 2 * N + 2.0)
                           - 2.0 * log_gamma(theta + N + 1.0)
                           ) / (2 * theta + 2 * N + 1.0))
