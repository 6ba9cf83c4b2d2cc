"""Gaussian-weighted entire function spaces over C^2 with the extra
|z1-z2|^{2 theta} factor: sigma constant, kernels, coefficient family c_{k,N},
restriction transform and norm expansion.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import Point2, SeriesResult
from .errors import DomainError
from .poly2 import BiPoly
from .specfun import log_gamma, mittag_e

from .bidisk import (MAX_DEGREE, NormExpansion, _transform_rows,
                     diagonal_transform, expand)


@dataclass(frozen=True)
class FockParams:
    alpha: float
    beta: float
    theta: float = 0.0

    def __post_init__(self):
        # written as `not lo < x < inf` so that NaN and inf fail too
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise DomainError("alpha and beta must be finite and positive")
        # every weight and kernel takes the logs of these two
        if not (0 < self.alpha * self.beta < math.inf
                and self.alpha + self.beta < math.inf):
            raise DomainError(
                f"alpha beta or alpha + beta is 0 or not finite in double "
                f"precision at alpha = {self.alpha}, beta = {self.beta}")
        if not -1 < self.theta < math.inf:
            raise DomainError("theta must be finite and exceed -1")

    @property
    def gamma(self) -> float:
        """Index of the 1D restriction space (Gaussian weight e^{-gamma |z|^2})."""
        return self.alpha + self.beta


def fock_moment(gamma: float, p: float) -> float:
    """int |z|^{2p} e^{-gamma |z|^2} dA over C = Gamma(p+1) / gamma^{p+1}, for
    real p > -1."""
    return math.exp(log_gamma(p + 1.0) - (p + 1.0) * math.log(gamma))


def fock_sigma(params: FockParams) -> float:
    """sigma = (alpha beta)^{theta+1} / [(alpha+beta)^theta Gamma(theta+1)]."""
    al, be, th = params.alpha, params.beta, params.theta
    try:
        return math.exp((th + 1.0) * math.log(al * be)
                        - th * math.log(al + be) - log_gamma(th + 1.0))
    except OverflowError:
        raise DomainError(f"Gaussian-space sigma at {params} is not finite "
                          f"in double precision") from None


def _sigma_exp(params: FockParams, expo: complex, z, w) -> complex:
    """sigma e^expo, the kernel at z and w, or DomainError when that is not
    finite in double precision."""
    try:
        value = fock_sigma(params) * cmath.exp(expo)
    except OverflowError:
        value = math.inf
    if not cmath.isfinite(value):
        raise DomainError(f"Fock kernel at z = {z}, w = {w} is not finite in "
                          f"double precision")
    return value


def fock_diag_kernel(params: FockParams, z: Point2, w1: complex) -> complex:
    """P(z, (w1, w1)) = sigma e^{conj(w1)(alpha z1 + beta z2)}."""
    wc = complex(w1).conjugate()
    return _sigma_exp(params, wc * (params.alpha * z.z1 + params.beta * z.z2),
                      z, w1)


def fock_q0_kernel(params: FockParams, z: Point2, w: Point2) -> complex:
    """Kernel of the subspace of diagonal-vanishing order 0:
    sigma e^{(alpha conj(w1) + beta conj(w2))(alpha z1 + beta z2)/(alpha+beta)}."""
    al, be = params.alpha, params.beta
    expo = ((al * complex(w.z1).conjugate() + be * complex(w.z2).conjugate())
            * (al * z.z1 + be * z.z2) / (al + be))
    return _sigma_exp(params, expo, z, w)


def fock_full_kernel(params: FockParams, z: Point2, w: Point2) -> SeriesResult:
    """Full kernel sigma Gamma(theta+1) e^{...} E_theta(alpha beta
    (z1-z2)(conj(w1)-conj(w2))/(alpha+beta)) with E_theta evaluated by its
    entire series."""
    al, be, th = params.alpha, params.beta, params.theta
    wc1 = complex(w.z1).conjugate()
    wc2 = complex(w.z2).conjugate()
    expo = (al * wc1 + be * wc2) * (al * z.z1 + be * z.z2) / (al + be)
    arg = al * be * (z.z1 - z.z2) * (wc1 - wc2) / (al + be)
    try:
        pref = (math.exp((th + 1.0) * math.log(al * be)
                         - th * math.log(al + be)) * cmath.exp(expo))
    except OverflowError:
        pref = math.inf
    if not (cmath.isfinite(arg) and cmath.isfinite(pref)):
        raise DomainError(f"Fock kernel at z = ({z.z1}, {z.z2}), w = ({w.z1}, "
                          f"{w.z2}) is not finite in double precision")
    e = mittag_e(th, arg)
    return SeriesResult(pref * e.value, e.terms_used, abs(pref) * e.tail_bound)


def coeff_c(params: FockParams, k: int, N: int) -> float:
    """c_{k,N} = (-1)^{N-k} C(N,k) (alpha/(alpha+beta))^{N-k}."""
    if not 0 <= k <= N:
        raise DomainError(f"need 0 <= k <= N, got k={k}, N={N}")
    sign = -1.0 if (N - k) % 2 else 1.0
    return sign * math.comb(N, k) * (params.alpha / params.gamma) ** (N - k)


def _weight_rows(params: FockParams, lo: int, hi: int) -> np.ndarray:
    """fock_restriction_transform's weights (-alpha/gamma)^(N-j)
    (beta/gamma)^j, row N - lo for the orders N = lo .. hi-1 and column
    j < hi (0 past N)."""
    u, v = -params.alpha / params.gamma, params.beta / params.gamma
    N, j = np.arange(lo, hi)[:, None], np.arange(hi)
    return np.where(j <= N, u ** np.maximum(N - j, 0) * v ** j, 0.0)


def fock_restriction_transform(params: FockParams, f: BiPoly, N: int) -> BiPoly:
    """(1/N!) sum_k c_{k,N} d^{N-k} of the diagonal restriction of the k-th
    z1-derivative of f, a polynomial in z1; inverts projection, division by
    (z1-z2)^N, and diagonal restriction: ((beta d1 - alpha d2)/gamma)^N f / N!
    restricted once, weights (-alpha/gamma)^(N-j) (beta/gamma)^j."""
    return diagonal_transform(f, N, _weight_rows(params, N, N + 1)[0])


def fock_norm_expansion(params: FockParams, f: BiPoly) -> NormExpansion:
    """||f||^2 = sum_N fock_moment(delta, theta + N) ||transform_N f||^2 in
    the 1D space of index alpha+beta, delta = alpha beta / (alpha+beta), with
    monomial norms n!/gamma^{n+1}.  Each coefficient's term is formed in logs,
    exp(log w_N + 2 log|c_n| + log n! - (n+1) log gamma) with the weight
    w_N = Gamma(theta+N+1) / delta^{theta+N+1}, so that neither the weight
    nor n! leaves double range on its own."""
    log_delta = math.log(params.alpha * params.beta / params.gamma)
    log_g = math.log(params.gamma)
    # log n! for n <= deg f (expand refuses a degree past MAX_DEGREE)
    log_factorial = np.array([log_gamma(n + 1.0) for n in
                              range(min(f.total_degree, MAX_DEGREE) + 1)])

    def norms(rows, lo):
        width = rows.shape[1]
        p = params.theta + np.arange(lo, lo + len(rows)) + 1.0
        log_w = np.array([log_gamma(x) - x * log_delta for x in p.tolist()])
        return np.exp(log_w[:, None] + 2.0 * np.log(np.abs(rows))
                      + log_factorial[:width]
                      - (np.arange(width) + 1.0) * log_g).sum(axis=1)

    return expand(f, max(f.total_degree, 0) + 1,
                  lambda lo, hi: _transform_rows(f, lo,
                                                 _weight_rows(params, lo, hi)),
                  norms, lambda N: 1.0)
