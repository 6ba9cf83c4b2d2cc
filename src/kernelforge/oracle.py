"""Independent ground truth: Gram matrices of monomials, block-diagonal by
total degree (rotation invariance of every weight makes cross-degree inner
products vanish).

Exact blocks exist for integer theta (binomial expansion of |z1-z2|^{2theta}
against 1D radial moments); everything else goes through dimension-reduced
adaptive quadrature.  Kernel Taylor blocks are the exact inverses of the Gram
blocks.  Each builder checks its parameters by constructing the space's
parameter class, which holds the space's domain.

The orthogonal parts Q_N f of f that vanish to order exactly N along the
space's variety {u = 0} (u = z1 - z2, or z2 on the ball) all come from one
Cholesky factorisation per degree block.  Within total degree d the
subspaces of order at least o are nested, and the basis u^k v^(d-k),
k = d..0, spans each of them with its first d-o+1 columns, so
orthonormalising it in order gives every Q_N f at once.  The complement v
makes u^(d-1) v orthogonal to u^d in the block.  It is z1 + z2 wherever the
weight is symmetric in z1 and z2, z1 on the ball, and alpha z1 + beta z2 on
the Gaussian space, whose weight factors in u and v, so that the basis is
orthogonal there.  A fixed v fails: scaled to a unit diagonal, the basis's
Gram matrix reaches condition number 1.7e12 at bidisk degree 14 with
v = z2, and 1e17 with v = z1 + z2 on the Gaussian space at alpha = 1,
beta = 100, theta = 1, degree 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, lapack
from scipy.special import roots_genlaguerre, roots_jacobi, roots_legendre

from .ball import BallParams
from .bidisk import BidiskParams
from .errors import ConditioningError, DomainError, QuadratureError
from .fock import FockParams
from .poly2 import BiPoly
from .specfun import log_gamma

COND_LIMIT = 1e12
_REMAINDER_TERMS = 1000


def disk_moment(alpha: float, p: int) -> float:
    """int |z|^{2p} dA_alpha over the unit disk = p! / (alpha+2)_p."""
    return math.exp(log_gamma(p + 1.0) + log_gamma(alpha + 2.0)
                    - log_gamma(alpha + 2.0 + p))


def fock_moment(gamma: float, p: int) -> float:
    """int |z|^{2p} e^{-gamma |z|^2} dA over C = p! / gamma^{p+1}."""
    return math.exp(log_gamma(p + 1.0) - (p + 1.0) * math.log(gamma))


@dataclass
class GramBlocks:
    """Per-degree Hermitian Gram matrices of monomials plus provenance."""

    space: str
    params: dict
    blocks: list = field(default_factory=list)
    exact: bool = True
    quad_error: float | None = None

    @property
    def max_degree(self) -> int:
        return len(self.blocks) - 1

    def inner_product(self, f: BiPoly, g: BiPoly) -> complex:
        """<f, g> in the space; requires deg <= max_degree."""
        deg = max(f.total_degree, g.total_degree)
        if deg > self.max_degree:
            raise DomainError(
                f"degree {deg} exceeds Gram table max degree {self.max_degree}")
        total = 0.0 + 0.0j
        for block, fv, gv in zip(self.blocks, _degree_vectors(f, deg),
                                 _degree_vectors(g, deg)):
            if fv is not None and gv is not None:
                total += fv @ (block @ np.conj(gv))
        return total

    def norm_sq(self, f: BiPoly) -> float:
        return self.inner_product(f, f).real


def _degree_vectors(f: BiPoly, max_degree: int) -> list:
    """f's coefficients by total degree d = 0..max_degree, which must be at
    least f's, in one pass: entry d is indexed by the power of z1, or None
    where f has no term of degree d."""
    vecs = [None] * (max_degree + 1)
    for (m, n), c in f.coeffs.items():
        vec = vecs[m + n]
        if vec is None:
            vec = vecs[m + n] = np.zeros(m + n + 1, dtype=complex)
        vec[m] = c
    return vecs


def _require_integer_theta(theta: float) -> int:
    # the range test comes first, so that NaN and inf fail before round()
    if not (0 <= theta < math.inf and abs(theta - round(theta)) <= 1e-12):
        raise DomainError(f"exact Gram blocks need integer theta >= 0, got {theta}")
    return int(round(theta))


def _binomial_gram_blocks(theta: float, max_degree: int, moment1,
                          moment2) -> list:
    """Blocks of degree 0..max_degree for integer theta: |z1-z2|^{2 theta}
    expanded binomially against per-variable radial moments; moment_i(p) is
    the p-th absolute moment of variable i."""
    th = _require_integer_theta(theta)
    binom = [math.comb(th, i) for i in range(th + 1)]
    blocks = []
    for degree in range(max_degree + 1):
        size = degree + 1
        block = np.zeros((size, size))
        for m1 in range(size):
            n1 = degree - m1
            for m2 in range(m1, size):
                shift = m1 - m2
                total = 0.0
                for i in range(th + 1):
                    j = i + shift
                    if 0 <= j <= th:
                        sign = -1.0 if (i + j) % 2 else 1.0
                        total += (sign * binom[i] * binom[j]
                                  * moment1(m1 + i) * moment2(n1 + th - i))
                block[m1, m2] = total
                block[m2, m1] = total
        blocks.append(block)
    return blocks


def gram_bidisk_exact(alpha: float, beta: float, theta: float,
                      max_degree: int) -> GramBlocks:
    """Exact bidisk Gram blocks for integer theta, vartheta = 0."""
    BidiskParams(alpha, beta, theta)
    blocks = _binomial_gram_blocks(theta, max_degree,
                                   lambda p: disk_moment(alpha, p),
                                   lambda p: disk_moment(beta, p))
    return GramBlocks("bidisk", {"alpha": alpha, "beta": beta,
                                 "theta": float(round(theta)), "vartheta": 0.0},
                      blocks)


def gram_fock_exact(alpha: float, beta: float, theta: float,
                    max_degree: int) -> GramBlocks:
    """Exact Fock Gram blocks for integer theta."""
    FockParams(alpha, beta, theta)
    blocks = _binomial_gram_blocks(theta, max_degree,
                                   lambda p: fock_moment(alpha, p),
                                   lambda p: fock_moment(beta, p))
    return GramBlocks("fock", {"alpha": alpha, "beta": beta,
                               "theta": float(round(theta))}, blocks)


def gram_hardy_torus_exact(theta: float, max_degree: int) -> GramBlocks:
    """Torus Gram blocks for the weighted Hardy norm, integer theta.

    All torus moments equal 1, so entries are pure binomial sums."""
    blocks = _binomial_gram_blocks(theta, max_degree, lambda p: 1.0,
                                   lambda p: 1.0)
    return GramBlocks("hardy_bidisk", {"theta": float(round(theta))}, blocks)


def ball_monomial_norm(alpha: float, beta: float, theta: float,
                       m: int, n: int) -> float:
    """||z1^m z2^n||^2 in the weighted ball space (2D norm unnormalized)."""
    return math.exp(
        log_gamma(m + 1.0) + log_gamma(n + theta + alpha + beta + 2.0)
        - log_gamma(m + n + theta + alpha + beta + 3.0)
        + log_gamma(n + theta + 1.0) + log_gamma(alpha + 1.0)
        - log_gamma(n + theta + alpha + 2.0))


def ball_monomial_norms(alpha: float, beta: float, theta: float,
                        max_degree: int) -> GramBlocks:
    """Diagonal Gram blocks of the ball space (radial weights make monomials
    orthogonal)."""
    BallParams(alpha, beta, theta)
    blocks = []
    for d in range(max_degree + 1):
        diag = [ball_monomial_norm(alpha, beta, theta, m, d - m)
                for m in range(d + 1)]
        blocks.append(np.diag(diag))
    return GramBlocks("ball", {"alpha": alpha, "beta": beta, "theta": theta},
                      blocks)


def ball_hardy_monomial_norm(beta: float, theta: float, m: int, n: int) -> float:
    """Surface-measure norm of z1^m z2^n: the alpha -> -1 limit of
    (alpha+1)(alpha+2) times the ball norm."""
    return math.exp(log_gamma(m + 1.0) + log_gamma(n + theta + beta + 1.0)
                    - log_gamma(m + n + theta + beta + 2.0))


# ---------------------------------------------------------------------------
# numeric Gram blocks (non-integer parameters)
# ---------------------------------------------------------------------------

# gram_numeric doubles its quadrature order from QUAD_START_ORDER up to
# QUAD_MAX_ORDER, the largest order it computes, until no block's entries
# change by more than QUAD_TOLERANCE of that block's largest entry (or of 1,
# if larger), so that the small low-degree blocks are held to the same rule
# as the large high-degree ones.  Integer theta integrands are polynomial
# after the angular reduction and converge at the first doubling; non-integer
# vartheta weights converge spectrally.  Non-integer theta puts an algebraic
# kink along t1 = t2 that tensor Gauss rules resolve only at an algebraic
# rate.  At degree 6, on the bidisk (alpha, beta) = (0.4, 0.7), theta <= 0.5
# fails, theta = 0.75 converges only at order 512 and theta >= 1.25 by order
# 256; on the Gaussian space (1.3, 0.7), theta = 1.5 fails and theta = 2.5
# converges.  scipy's Gauss-Laguerre rule is not finite at order 512, so a
# Gaussian-space call that has not converged by order 256 fails there.  Each
# failure raises QuadratureError.
QUAD_TOLERANCE = 1e-10
QUAD_START_ORDER = 32
QUAD_MAX_ORDER = 512


def _angular_nodes(n: int, theta: float):
    """Nodes/weights on (0, pi); graded toward 0 when the angular factor has
    an integrable singularity there (theta < 0)."""
    x, w = roots_legendre(n)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    if theta < 0:
        psi = math.pi * u ** 3
        wpsi = wu * 3.0 * math.pi * u ** 2
    else:
        psi = math.pi * u
        wpsi = wu * math.pi
    return psi, wpsi


def _angular_reduce(t1, t2, psi, wpsi, max_delta, theta, vartheta):
    """cang[delta, i, j] = int_0^pi cos(delta psi) W(t1_i, t2_j, psi) dpsi,
    accumulated in angular chunks to bound memory."""
    cross = np.sqrt(np.outer(t1, t2))
    gap = np.subtract.outer(np.sqrt(t1), np.sqrt(t2)) ** 2
    mix = 1.0 + np.outer(t1, t2)
    deltas = np.arange(max_delta + 1)
    cang = np.zeros((max_delta + 1, t1.size, t2.size))
    chunk = max(1, (1 << 22) // (t1.size * t2.size))
    for k0 in range(0, psi.size, chunk):
        ps = psi[k0:k0 + chunk]
        # |z1 - z2|^2 = t1 + t2 - 2 cross cos(psi), written without the
        # cancellation that makes it 0 (and 0 ** theta inf for theta < 0)
        # when t1 == t2 and cos(psi) rounds to 1
        g_diff = gap[:, :, None] + 4.0 * cross[:, :, None] * np.sin(ps / 2) ** 2
        wgt = g_diff ** theta
        if vartheta != 0.0:
            wgt = wgt * (mix[:, :, None] - 2.0 * cross[:, :, None] * np.cos(ps)) ** vartheta
        cosmat = np.cos(np.outer(deltas, ps)) * wpsi[k0:k0 + chunk]
        cang += np.einsum("dk,ijk->dij", cosmat, wgt)
    return cang


def _bidisk_radial(p: BidiskParams, n: int):
    """Gauss-Jacobi in r = |z_i| for the disk weights (1 - r^2)^alpha, with
    the weight's factor (1 + r)^alpha and the area element's r in the
    weights."""
    def rule(a):
        x, w = roots_jacobi(n, a, 0.0)
        s = 0.5 * (x + 1.0)
        return s ** 2, w * 2.0 ** (-a - 1.0) * (1.0 + s) ** a * s
    return (rule(p.alpha), rule(p.beta),
            4.0 * (p.alpha + 1.0) * (p.beta + 1.0) / math.pi)


def _gaussian_radial(p: FockParams, n: int):
    """Gauss-Laguerre in t = |z_i|^2 for the weights e^{-alpha t} and
    e^{-beta t}."""
    # at order 512 scipy's weights overflow; gram_numeric refuses the
    # non-finite rule, so the overflow warning says nothing more
    with np.errstate(over="ignore", invalid="ignore"):
        u, w = roots_genlaguerre(n, 0.0)
    return (u / p.alpha, w / p.alpha), (u / p.beta, w / p.beta), 1.0 / math.pi


def _blocks_at_order(rule, theta, vartheta, max_degree):
    """Gram blocks of degree 0..max_degree from a radial rule
    ((t1, w1), (t2, w2), const) of order n = t1.size: entry (m1, m2) of block
    d is const sum_ij w1_i w2_j t1_i^{a/2} t2_j^{b/2} cang[|m1-m2|, i, j],
    a = m1 + m2, b = 2d - a, with the angular reduction at order 2n."""
    (t1, w1), (t2, w2), const = rule
    psi, wpsi = _angular_nodes(2 * t1.size, theta)
    cang = _angular_reduce(t1, t2, psi, wpsi, max_degree, theta, vartheta)
    # cos(delta psi) pairs only with powers (sqrt(t1 t2))^{delta + even} of the
    # angular weight, so t^{a/2} cang[delta] has integral powers of t (a and
    # delta share parity) and plain Laguerre nodes integrate it exactly for
    # integer theta.
    half = np.arange(2 * max_degree + 1)[:, None] / 2.0
    integrals = const * np.einsum("ai,bj,dij->abd", w1 * t1 ** half,
                                  w2 * t2 ** half, cang)
    blocks = []
    for d in range(max_degree + 1):
        m = np.arange(d + 1)
        a = m[:, None] + m[None, :]
        blocks.append(integrals[a, 2 * d - a, np.abs(m[:, None] - m[None, :])])
    return blocks


def gram_numeric(space: str, params: dict, max_degree: int) -> GramBlocks:
    """Gram blocks by adaptive tensor quadrature for arbitrary valid
    parameters; the attached quad_error is the largest entry change at the
    last doubling of the order."""
    if space == "bidisk":
        p = BidiskParams(params["alpha"], params["beta"], params["theta"],
                         params.get("vartheta", 0.0))
        radial, vartheta = _bidisk_radial, p.vartheta
    elif space == "fock":
        p = FockParams(params["alpha"], params["beta"], params["theta"])
        radial, vartheta = _gaussian_radial, 0.0
    else:
        raise DomainError(f"gram_numeric does not support space {space!r}")

    def compute(n, err):
        rule = radial(p, n)
        if not all(np.isfinite(x).all() for var in rule[:2] for x in var):
            raise QuadratureError(
                f"gram_numeric({space}): the radial rule of order {n} is not "
                f"finite; the last change was {err:.3e}")
        return _blocks_at_order(rule, p.theta, vartheta, max_degree)

    n, err = QUAD_START_ORDER, math.inf
    prev = compute(n, err)
    while n < QUAD_MAX_ORDER:
        n *= 2
        cur = compute(n, err)
        diffs = [np.abs(c - q) for c, q in zip(cur, prev)]
        err = float(np.max([np.max(x) for x in diffs]))
        # each block against its own largest entry, at least 1; NaN fails
        scales = [max(np.max(np.abs(c)), 1.0) for c in cur]
        rel = [np.max(x) / s for x, s in zip(diffs, scales)]
        if np.max(rel) <= QUAD_TOLERANCE:
            return GramBlocks(space, dict(params), cur, exact=False,
                              quad_error=err)
        prev = cur
    d = int(np.argmax(rel))
    i, j = np.unravel_index(np.argmax(diffs[d]), diffs[d].shape)
    raise QuadratureError(
        f"gram_numeric({space}) did not converge: entry {(d, int(i), int(j))} "
        f"changed by {diffs[d][i, j]:.3e} against its block's scale "
        f"{scales[d]:.3e} at order {n}")


# ---------------------------------------------------------------------------
# kernel reconstruction and projections
# ---------------------------------------------------------------------------

def gram_kernel_blocks(gram: GramBlocks) -> list:
    """Per-degree kernel Taylor blocks K_d = G_d^{-1}.

    Because the Gram table is block-diagonal by total degree, these inverses
    are the exact Taylor blocks of the true kernel, not truncation artifacts."""
    return [cho_solve((_cholesky(g, f"Gram block degree {d}"), False),
                      np.eye(d + 1))
            for d, g in enumerate(gram.blocks)]


def _check_conditioning(m: np.ndarray, what: str) -> None:
    """ConditioningError naming `what` unless the real symmetric m, scaled to
    a unit diagonal, is positive definite with condition number at most
    COND_LIMIT.  The scaled number is the one that matters: it bounds how far
    relative rounding in m's entries moves what is solved with m, and
    Cholesky's accuracy, whatever the spread of m's diagonal."""
    s = 1.0 / np.sqrt(np.diag(m))
    eig = np.linalg.eigvalsh(m * np.outer(s, s))
    # false when the least eigenvalue is not positive (the largest is, as
    # the trace is) and for NaN
    if not eig[-1] <= COND_LIMIT * eig[0]:
        raise ConditioningError(
            f"{what} is not positive definite with condition number at most "
            f"{COND_LIMIT:.0e}")


def _cholesky(m: np.ndarray, what: str) -> np.ndarray:
    """The upper Cholesky factor R, m = R^T R, of the real symmetric m, after
    _check_conditioning(m, what)."""
    _check_conditioning(m, what)
    r, info = lapack.dpotrf(m)
    if info:
        raise ConditioningError(f"{what}: Cholesky factorisation failed at "
                                f"column {info}")
    return r


def kernel_from_blocks(kernel_blocks: list, z1, z2, w1, w2) -> complex:
    """Evaluate sum_d sum_{i,j} K_d[i,j] mono_i(z) conj(mono_j(w))."""
    total = 0.0 + 0.0j
    for d, kd in enumerate(kernel_blocks):
        mz = np.array([z1 ** m * z2 ** (d - m) for m in range(d + 1)])
        mw = np.array([w1 ** m * w2 ** (d - m) for m in range(d + 1)])
        total += mz @ kd @ np.conj(mw)
    return total


def kernel_remainders(gram: GramBlocks, z1, z2, w1, w2,
                      max_degree: int) -> list:
    """r[D], D = 0..max_degree, bounds the truncation error of
    kernel_from_blocks with this space's blocks up to degree D: the sum over
    d > D of bounds b_d on |K_d(z, w)|.

    ball: b_d sums the moduli of the orthogonal monomial terms.  bidisk
    (vartheta = 0) and fock: f of degree d has the norm of (z1-z2)^theta f in
    the theta = 0 product space, whose degree-n kernel is at most c_n on the
    unit polydisk (c_n = (alpha+beta+4)_n / n! for the bidisk and
    alpha beta (alpha+beta)^n / n! for fock), so Bernstein's inequality on
    the circle gives b_d = C(d+theta, theta)^2 c_{d+theta} q^d with
    q = max|z_i| max|w_i|.  Past the first b_{d+1} < b_d beyond max_degree
    the rest is bounded geometrically: a bound for bidisk and fock, whose
    ratio b_{d+1}/b_d decreases in d, an estimate for the ball.  inf if b_d
    still grows at degree _REMAINDER_TERMS."""
    p = gram.params
    al, be, th = p["alpha"], p["beta"], p["theta"]
    if gram.space == "ball":
        x, y = abs(z1 * w1), abs(z2 * w2)

        def bound(d):
            return sum(x ** m * y ** (d - m)
                       / ball_monomial_norm(al, be, th, m, d - m)
                       for m in range(d + 1))
    elif gram.space in ("bidisk", "fock") and p.get("vartheta", 0.0) == 0.0:
        q = max(abs(z1), abs(z2)) * max(abs(w1), abs(w2))
        t = int(th)

        def bound(d):
            n = d + t
            log_c = (math.log(al * be) + n * math.log(al + be)
                     if gram.space == "fock" else
                     log_gamma(al + be + 4.0 + n) - log_gamma(al + be + 4.0))
            return (q ** d * math.comb(n, t) ** 2
                    * math.exp(log_c - log_gamma(n + 1.0)))
    else:
        raise DomainError(f"no Taylor remainder bound for {gram.space!r}")
    terms, tail = [], math.inf
    for d in range(_REMAINDER_TERMS):
        terms.append(bound(d))
        if d > max_degree and (terms[-1] < terms[-2] or not terms[-1]):
            ratio = terms[-1] / terms[-2] if terms[-1] else 0.0
            tail = terms[-1] * ratio / (1.0 - ratio)
            break
    return [tail + math.fsum(terms[D + 1:]) for D in range(max_degree + 1)]


def kernel_section(kernel_blocks: list, w1, w2) -> BiPoly:
    """The function z -> K(z, w) as a polynomial in z (degree-truncated)."""
    coeffs: dict = {}
    for d, kd in enumerate(kernel_blocks):
        mw = np.conj(np.array([w1 ** m * w2 ** (d - m) for m in range(d + 1)]))
        vec = kd @ mw
        for m in range(d + 1):
            coeffs[(m, d - m)] = coeffs.get((m, d - m), 0) + vec[m]
    return BiPoly(coeffs)


def _powers(form: np.ndarray, n: int) -> list:
    """Coefficient vectors of form^0, ..., form^n for a linear form
    [coefficient of z2, coefficient of z1] (index m is the power of z1)."""
    out = [np.ones(1)]
    for _ in range(n):
        out.append(np.convolve(out[-1], form))
    return out


def _flag_basis(upow: list, g: np.ndarray) -> np.ndarray:
    """Basis of the degree-d block, d = len(g) - 1, adapted to vanishing
    along {u = 0}, given upow = _powers(u, n) for some n >= d: column i is
    u^{d-i} v^i, so the first d-o+1 columns span the block's functions that
    vanish to order o.  The complement v is the linear form for which
    u^{d-1} v is g-orthogonal to u^d (see the module docstring)."""
    d = len(g) - 1
    if d:
        gu, prev = g @ upow[d], upow[d - 1]
        v = np.array([gu[1:] @ prev, -(gu[:-1] @ prev)])
        vpow = _powers(v / v[np.argmax(np.abs(v))], d)
    else:
        vpow = upow
    return np.column_stack([np.convolve(upow[d - i], vpow[i])
                            for i in range(d + 1)])


def order_parts(gram: GramBlocks, f: BiPoly) -> list:
    """[Q_0 f, ..., Q_D f] with D = max(deg f, 0): the orthogonal parts of f
    that vanish to order exactly N along the space's variety, so that
    f = sum_N Q_N f and ||f||^2 = sum_N ||Q_N f||^2.

    One Cholesky factorisation per degree block d: with E = _flag_basis and
    E^T G_d E = R^T R, the rows w_i of R^{-T} E^T are G_d-orthonormal and
    w_0..w_j span what the first j+1 columns of E span, so the degree-d part
    of Q_{d-i} f is <f, w_i> w_i.  Each order's normal matrix is a leading
    submatrix of E^T G_d E, no worse conditioned after scaling than the whole
    (eigenvalue interlacing), so one check covers them all."""
    if f.total_degree > gram.max_degree:
        raise DomainError("polynomial degree exceeds the Gram table")
    # the variety is {u = 0}: u = z2 on the ball, z1 - z2 elsewhere
    upow = _powers(np.array([1.0, 0.0] if gram.space == "ball"
                            else [-1.0, 1.0]), f.total_degree)
    parts = [{} for _ in range(max(f.total_degree, 0) + 1)]
    for d, fv in enumerate(_degree_vectors(f, f.total_degree)):
        if fv is None:
            continue
        g = gram.blocks[d]
        # the Gram block's own conditioning bounds how far the rounding in
        # its entries moves the parts (this catches a near-null direction
        # that the flag basis isolates and so scales away)
        _check_conditioning(g, f"Gram block degree {d}")
        basis = _flag_basis(upow, g)
        r = _cholesky(basis.T @ g @ basis, f"projection block degree {d}")
        # r has a positive diagonal, so this solve cannot fail
        rows = lapack.dtrtrs(r, basis.T, trans=1)[0]
        coef = rows @ (g @ fv)
        keys = [(m, d - m) for m in range(d + 1)]
        for i, row in enumerate((coef[:, None] * rows).tolist()):
            parts[d - i].update(zip(keys, row))
    return [BiPoly(p) for p in parts]


def project(gram: GramBlocks, f: BiPoly, order: int) -> tuple[BiPoly, BiPoly]:
    """Orthogonal projections (P_order f, Q_order f) onto the subspace of
    functions vanishing to the given order along the space's variety, and
    onto its part that vanishes to exactly that order."""
    if order < 0:
        raise DomainError(f"vanishing order must be >= 0, got {order}")
    parts = order_parts(gram, f)[order:]
    return sum(parts, BiPoly()), parts[0] if parts else BiPoly()
