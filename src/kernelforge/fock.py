"""Gaussian-weighted entire function spaces over C^2 with the extra
|z1-z2|^{2 theta} factor: sigma constant, kernels, coefficient family c_{k,N},
restriction transform and norm expansion.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .config import Point2, SeriesResult, TruncationConfig, default_config
from .errors import DomainError
from .poly2 import BiPoly, UniPoly
from .specfun import log_gamma, mittag_e

from .bidisk import NormExpansion, diagonal_transform, expand


@dataclass(frozen=True)
class FockParams:
    alpha: float
    beta: float
    theta: float = 0.0

    def __post_init__(self):
        # written as `not lo < x < inf` so that NaN and inf fail too
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise DomainError("alpha and beta must be finite and positive")
        if not -1 < self.theta < math.inf:
            raise DomainError("theta must be finite and exceed -1")

    @property
    def gamma(self) -> float:
        """Index of the 1D restriction space (Gaussian weight e^{-gamma |z|^2})."""
        return self.alpha + self.beta


def fock_sigma(params: FockParams) -> float:
    """sigma = (alpha beta)^{theta+1} / [(alpha+beta)^theta Gamma(theta+1)]."""
    al, be, th = params.alpha, params.beta, params.theta
    return math.exp((th + 1.0) * math.log(al * be)
                    - th * math.log(al + be) - log_gamma(th + 1.0))


def fock_diag_kernel(params: FockParams, z: Point2, w1: complex) -> complex:
    """P(z, (w1, w1)) = sigma e^{conj(w1)(alpha z1 + beta z2)}."""
    wc = complex(w1).conjugate()
    return fock_sigma(params) * cmath.exp(
        wc * (params.alpha * z.z1 + params.beta * z.z2))


def fock_q0_kernel(params: FockParams, z: Point2, w: Point2) -> complex:
    """Kernel of the subspace of diagonal-vanishing order 0:
    sigma e^{(alpha conj(w1) + beta conj(w2))(alpha z1 + beta z2)/(alpha+beta)}."""
    al, be = params.alpha, params.beta
    expo = ((al * complex(w.z1).conjugate() + be * complex(w.z2).conjugate())
            * (al * z.z1 + be * z.z2) / (al + be))
    return fock_sigma(params) * cmath.exp(expo)


def fock_full_kernel(params: FockParams, z: Point2, w: Point2,
                     cfg: TruncationConfig | None = None) -> SeriesResult:
    """Full kernel sigma Gamma(theta+1) e^{...} E_theta(alpha beta
    (z1-z2)(conj(w1)-conj(w2))/(alpha+beta)) with E_theta evaluated by its
    entire series."""
    cfg = cfg or default_config()
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
    e = mittag_e(th, arg, cfg)
    return SeriesResult(pref * e.value, e.terms_used, abs(pref) * e.tail_bound)


def coeff_c(params: FockParams, k: int, N: int) -> float:
    """c_{k,N} = (-1)^{N-k} C(N,k) (alpha/(alpha+beta))^{N-k}."""
    if not 0 <= k <= N:
        raise DomainError(f"need 0 <= k <= N, got k={k}, N={N}")
    sign = -1.0 if (N - k) % 2 else 1.0
    return sign * math.comb(N, k) * (params.alpha / params.gamma) ** (N - k)


def fock_restriction_transform(params: FockParams, f: BiPoly, N: int) -> UniPoly:
    """(1/N!) sum_k c_{k,N} d^{N-k} of the diagonal restriction of the k-th
    z1-derivative of f; inverts projection, division by (z1-z2)^N, and
    diagonal restriction."""
    if N < 0:
        raise DomainError("N must be >= 0")
    return diagonal_transform(
        f, N, lambda k: coeff_c(params, k, N) / math.factorial(N))


def fock_disk_norm_sq(p: UniPoly, gamma: float) -> float:
    """1D Gaussian-space norm via monomial norms n!/gamma^{n+1}."""
    total = 0.0
    for n, c in p.coeffs.items():
        total += abs(c) ** 2 * math.exp(log_gamma(n + 1.0)
                                        - (n + 1.0) * math.log(gamma))
    return total


def fock_norm_expansion(params: FockParams, f: BiPoly) -> NormExpansion:
    """||f||^2 = sum_N [(alpha+beta)^{theta+N+1} Gamma(theta+N+1) /
    (alpha beta)^{theta+N+1}] ||N! transform_N f||^2_{alpha+beta} / (N!)^2,
    i.e. with the transform already carrying the 1/N!."""
    al, be, th = params.alpha, params.beta, params.theta
    return expand(range(max(f.total_degree, 0) + 1),
                  lambda N: fock_restriction_transform(params, f, N),
                  lambda N: math.exp(
                      (th + N + 1.0) * math.log((al + be) / (al * be))
                      + log_gamma(th + N + 1.0)),
                  lambda t, N: fock_disk_norm_sq(t, params.gamma))
