"""Independent ground truth: Gram matrices of monomials, block-diagonal by
total degree (rotation invariance of every weight makes cross-degree inner
products vanish).

Exact blocks are G_d = B^T diag(mu) B: column m of B holds z1^m z2^(d-m) in
an orthogonal basis with norms mu.  On the Gaussian space this holds at
every theta, the weight separating in u = z1 - z2 and v = (alpha z1 +
beta z2)/(alpha + beta); on the bidisk and the torus at integer theta, where
(z1-z2)^theta maps into the theta = 0 product space.  Other bidisk
parameters go through dimension-reduced adaptive quadrature.  Kernel Taylor
blocks are the exact inverses of the Gram blocks.  Each builder checks its
parameters by constructing the space's parameter class.

The orthogonal parts Q_N f of f that vanish to order exactly N along the
space's variety {u = 0} (u = z1 - z2, or z2 on the ball) all come from one
Cholesky factorisation per degree block, taken for all of f's degree blocks
at once on a stack padded with the identity.  Within total degree d the
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

scipy, for the Gauss rules of the quadrature, is imported inside the
functions that call it, on first use, so that importing kernelforge, summing
the series kernels and inverting exact Gram blocks never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .ball import BallParams
from .bidisk import BidiskParams, _binomial_table
from .errors import ConditioningError, DomainError, QuadratureError
from .fock import FockParams, fock_moment
from .poly2 import BiPoly
from .specfun import log_gamma

COND_LIMIT = 1e12
_REMAINDER_TERMS = 1000


def disk_moment(alpha: float, p: int) -> float:
    """int |z|^{2p} dA_alpha over the unit disk = p! / (alpha+2)_p."""
    return math.exp(log_gamma(p + 1.0) + log_gamma(alpha + 2.0)
                    - log_gamma(alpha + 2.0 + p))


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
        fvecs = _degree_vectors(f, deg)
        total = 0.0 + 0.0j
        for block, fv, gv in zip(self.blocks, fvecs, fvecs if g is f
                                 else _degree_vectors(g, deg)):
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


def _require_integer_theta(theta: float, what: str = "exact Gram blocks") -> int:
    # the range test comes first, so that NaN and inf fail before round()
    if not (0 <= theta < math.inf and abs(theta - round(theta)) <= 1e-12):
        raise DomainError(f"{what} need integer theta >= 0, got {theta}")
    return int(round(theta))


def _binomial_gram_blocks(theta: float, max_degree: int, moment1,
                          moment2) -> list:
    """Blocks for integer theta: the orthogonal basis is z1^k z2^(d+theta-k)
    in the theta = 0 product space, with norms mu_k = moment1(k)
    moment2(d+theta-k) (moment_i(p) the p-th absolute moment of variable i),
    and column m of B holds z1^m z2^(d-m) (z1-z2)^theta."""
    th = _require_integer_theta(theta)
    u = _powers(np.array([-1.0, 1.0]), th)[-1]
    mom1, mom2 = (np.array([mom(p) for p in range(max_degree + th + 1)])
                  for mom in (moment1, moment2))
    # B[r, m] = u[r - m]: B's first d + th + 1 rows and d + 1 columns are
    # the B of degree d
    shift = np.subtract.outer(np.arange(max_degree + th + 1),
                              np.arange(max_degree + 1))
    big_b = np.where((shift >= 0) & (shift <= th),
                     u[np.clip(shift, 0, th)], 0.0)
    blocks = []
    for d in range(max_degree + 1):
        b = big_b[:d + th + 1, :d + 1]
        g = b.T @ ((mom1[:d + th + 1] * mom2[d + th::-1])[:, None] * b)
        blocks.append(0.5 * (g + g.T))  # exactly symmetric
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
    """Exact Gaussian-space Gram blocks for every theta > -1.  With gamma =
    alpha + beta and delta = alpha beta / gamma, alpha |z1|^2 + beta |z2|^2 =
    gamma |v|^2 + delta |u|^2 and the Jacobian is 1, so the u^i v^(d-i) have
    norms mu_i = fock_moment(delta, i + theta) fock_moment(gamma, d - i), and
    column m of C holds z1^m z2^(d-m) = (v + (beta/gamma) u)^m
    (v - (alpha/gamma) u)^(d-m) in powers of u."""
    gamma = FockParams(alpha, beta, theta).gamma
    pow1, pow2 = (_powers(np.array([1.0, c]), max_degree)
                  for c in (beta / gamma, -alpha / gamma))
    mom_u, mom_v = (np.array([fock_moment(g, i + t)
                              for i in range(max_degree + 1)])
                    for g, t in ((alpha * beta / gamma, theta), (gamma, 0.0)))
    blocks = []
    for d in range(max_degree + 1):
        c = np.column_stack([np.convolve(pow1[m], pow2[d - m])
                             for m in range(d + 1)])
        g = c.T @ ((mom_u[:d + 1] * mom_v[d::-1])[:, None] * c)
        blocks.append(0.5 * (g + g.T))  # exactly symmetric
    return GramBlocks("fock", {"alpha": alpha, "beta": beta, "theta": theta},
                      blocks)


def gram_hardy_torus_exact(theta: float, max_degree: int) -> GramBlocks:
    """Torus Gram blocks for the weighted Hardy norm, integer theta: all torus
    moments equal 1, so entries are pure binomial sums."""
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
    # ball_monomial_norm's six log-Gamma terms from tables over m, n and
    # m + n, their arguments and sum formed in its order, so that every
    # entry is the same double
    idx = range(max_degree + 1)
    lg_m = np.array([log_gamma(m + 1.0) for m in idx])
    lg_mid = np.array([log_gamma(n + theta + alpha + beta + 2.0)
                       for n in idx])
    lg_sum = np.array([log_gamma(d + theta + alpha + beta + 3.0)
                       for d in idx])
    lg_n = np.array([log_gamma(n + theta + 1.0) for n in idx])
    lg_last = np.array([log_gamma(n + theta + alpha + 2.0) for n in idx])
    deg, m = np.tril_indices(max_degree + 1)  # entry m of block deg, in order
    n = deg - m
    norms = [math.exp(x) for x in (
        lg_m[m] + lg_mid[n] - lg_sum[deg] + lg_n[n] + log_gamma(alpha + 1.0)
        - lg_last[n]).tolist()]
    return GramBlocks("ball", {"alpha": alpha, "beta": beta, "theta": theta},
                      [np.diag(norms[d * (d + 1) // 2:(d + 1) * (d + 2) // 2])
                       for d in idx])


def ball_hardy_monomial_norm(beta: float, theta: float, m: int, n: int) -> float:
    """Surface-measure norm of z1^m z2^n: the alpha -> -1 limit of
    (alpha+1)(alpha+2) times the ball norm."""
    return math.exp(log_gamma(m + 1.0) + log_gamma(n + theta + beta + 1.0)
                    - log_gamma(m + n + theta + beta + 2.0))


# ---------------------------------------------------------------------------
# numeric Gram blocks (bidisk, non-integer parameters)
# ---------------------------------------------------------------------------

# gram_numeric doubles its quadrature order from QUAD_START_ORDER up to
# QUAD_MAX_ORDER, the largest order it computes, until no block's entries
# change by more than QUAD_TOLERANCE of that block's largest entry (or of 1,
# if larger), so that the small low-degree blocks are held to the same rule
# as the large high-degree ones.  Integer theta integrands converge at the
# first doubling; non-integer vartheta weights converge spectrally.
# Non-integer theta puts an algebraic kink along t1 = t2 that tensor Gauss
# rules resolve only at an algebraic rate: at degree 6 and (alpha, beta) =
# (0.4, 0.7), theta <= 0.5 fails, theta = 0.75 converges only at order 512
# and theta >= 1.25 by order 256.  Each failure raises QuadratureError.
QUAD_TOLERANCE = 1e-10
QUAD_START_ORDER = 32
QUAD_MAX_ORDER = 512


def _angular_nodes(n: int, theta: float):
    """Nodes/weights on (0, pi); graded toward 0 when the angular factor has
    an integrable singularity there (theta < 0)."""
    from scipy.special import roots_legendre
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
    from scipy.special import roots_jacobi

    def rule(a):
        x, w = roots_jacobi(n, a, 0.0)
        s = 0.5 * (x + 1.0)
        return s ** 2, w * 2.0 ** (-a - 1.0) * (1.0 + s) ** a * s
    return (rule(p.alpha), rule(p.beta),
            4.0 * (p.alpha + 1.0) * (p.beta + 1.0) / math.pi)


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
    # delta share parity).
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
    """Bidisk Gram blocks by adaptive tensor quadrature for arbitrary valid
    parameters; the attached quad_error is the largest entry change at the
    last doubling of the order.  The Gaussian space needs no quadrature:
    gram_fock_exact is exact at every theta."""
    if space != "bidisk":
        raise DomainError(f"gram_numeric serves the bidisk only, not {space!r}; "
                          f"gram_fock_exact is exact at every theta")
    p = BidiskParams(params["alpha"], params["beta"], params["theta"],
                     params.get("vartheta", 0.0))

    def compute(n, err):
        rule = _bidisk_radial(p, n)
        if not all(np.isfinite(x).all() for var in rule[:2] for x in var):
            raise QuadratureError(
                f"gram_numeric({space}): the radial rule of order {n} is not "
                f"finite; the last change was {err:.3e}")
        return _blocks_at_order(rule, p.theta, p.vartheta, max_degree)

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
    n = len(gram.blocks)
    g = np.eye(n)[None].repeat(n, 0)  # block d, padded with the identity
    for d, block in enumerate(gram.blocks):
        g[d, :d + 1, :d + 1] = block
    inv_low = _solve_lower(_cholesky(g, "Gram block", range(n)),
                           np.broadcast_to(np.eye(n), g.shape))
    kernel = inv_low.transpose(0, 2, 1) @ inv_low
    return [kernel[d, :d + 1, :d + 1] for d in range(n)]


def _check_conditioning(m: np.ndarray, what: str, degrees) -> None:
    """ConditioningError naming `what` and the degree degrees[i] of the first
    m[i] that fails, unless every real symmetric matrix of the stack m,
    scaled to a unit diagonal, is positive definite with condition number at
    most COND_LIMIT.  The scaled number is the one that matters: it bounds
    how far relative rounding in m's entries moves what is solved with m,
    and Cholesky's accuracy, whatever the spread of m's diagonal.  Padding a
    block with the identity keeps its verdict: the eigenvalues of a unit
    diagonal matrix bracket 1, so the padding moves neither extreme."""
    diag = np.diagonal(m, axis1=1, axis2=2)
    s = 1.0 / np.sqrt(np.where(diag > 0, diag, 1.0))
    eig = np.linalg.eigvalsh(m * (s[:, :, None] * s[:, None, :]))
    # true where a diagonal entry or the least eigenvalue is not positive
    # (the largest then is, as the trace is) and for NaN
    bad = ~(diag > 0).all(axis=1) | ~(eig[:, -1] <= COND_LIMIT * eig[:, 0])
    if bad.any():
        raise ConditioningError(
            f"{what} degree {degrees[np.argmax(bad)]} is not positive "
            f"definite with condition number at most {COND_LIMIT:.0e}")


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
    (vartheta = 0) and fock, integer theta only (DomainError otherwise): f
    of degree d has the norm of (z1-z2)^theta f in the theta = 0 product
    space, whose degree-n kernel is at most c_n on the unit polydisk (c_n =
    (alpha+beta+4)_n / n! for the bidisk and alpha beta (alpha+beta)^n / n!
    for fock), so Bernstein's inequality on the circle gives b_d =
    C(d+theta, theta)^2 c_{d+theta} q^d with q = max|z_i| max|w_i|.  Past
    the first b_{d+1} < b_d beyond max_degree the rest is bounded
    geometrically: a bound for bidisk and fock, whose ratio b_{d+1}/b_d
    decreases in d, an estimate for the ball.  inf if b_d still grows at
    degree _REMAINDER_TERMS."""
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
        t = _require_integer_theta(th, "Taylor remainder bounds")

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
    [coefficient of z2, coefficient of z1] (index m is the power of z1; v
    and u take the places of z2 and z1 in gram_fock_exact)."""
    out = [np.ones(1)]
    for _ in range(n):
        out.append(np.convolve(out[-1], form))
    return out


def _form_powers(form: np.ndarray, binom: np.ndarray) -> np.ndarray:
    """out[..., a, j] = C(a, j) form[..., 1]^j form[..., 0]^(a-j) for a, j <
    len(binom): row a holds the coefficients of form^a, for a stack of
    linear forms [coefficient of z2, coefficient of z1]."""
    a = np.arange(len(binom))
    pow0, pow1 = (form[..., i, None] ** a for i in (0, 1))
    # the exponent a - j is clipped to 0 where j > a and C(a, j) = 0, so
    # that 0.0 ** -1 never forms
    return (binom * pow1[..., None, :]
            * pow0[..., np.maximum(a[:, None] - a, 0)])


def _cholesky(m: np.ndarray, what: str, degrees) -> np.ndarray:
    """The lower Cholesky factors of the stack m, or ConditioningError naming
    `what` and the degree degrees[i] of the first m[i] that fails
    _check_conditioning or has none."""
    _check_conditioning(m, what, degrees)
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        # the factorisation fails for the whole stack; name the block
        for d, block in zip(degrees, m):
            try:
                np.linalg.cholesky(block)
            except np.linalg.LinAlgError:
                raise ConditioningError(f"{what} degree {d}: Cholesky "
                                        f"factorisation failed") from None
        raise


def _solve_lower(low: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """low^{-1} rhs for a stack of lower triangular matrices with positive
    diagonals, by forward substitution on the whole stack at once."""
    out = np.empty_like(rhs)
    for i in range(rhs.shape[1]):
        out[:, i] = (rhs[:, i] - np.einsum("bj,bjc->bc", low[:, i, :i],
                                          out[:, :i])) / low[:, i, i, None]
    return out


def _order_pass(gram: GramBlocks, f: BiPoly):
    """(g, fv, degrees, parts) for the degrees d_0 < ... < d_{k-1} that f
    has: g[b] is block d_b of the Gram table and fv[b] f's coefficient
    vector of degree d_b, both padded with the identity and with zeros to
    size n = max(deg f, 0) + 1, and parts[b, i] is the degree-d_b component
    of Q_{d_b-i} f (zero for i > d_b).

    In each block the basis E has column i = u^{d-i} v^i, so its first
    d-o+1 columns span the block's functions that vanish to order o; the
    complement v makes u^{d-1} v g-orthogonal to u^d (see the module
    docstring).  With E^T G E = L L^T the rows w_i of L^{-1} E^T are
    G-orthonormal and w_0..w_j span what the first j+1 columns of E span, so
    the part is <f, w_i> w_i.  Each order's normal matrix is a leading
    submatrix of E^T G E, no worse conditioned after scaling than the whole
    (eigenvalue interlacing), so one check covers them all.  Every step runs
    on the whole stack at once."""
    if f.total_degree > gram.max_degree:
        raise DomainError("polynomial degree exceeds the Gram table")
    n = max(f.total_degree, 0) + 1
    degrees = sorted({m + k for m, k in f.coeffs})
    slot = {d: b for b, d in enumerate(degrees)}
    g = np.eye(n)[None].repeat(len(degrees), 0)
    for b, d in enumerate(degrees):
        g[b, :d + 1, :d + 1] = gram.blocks[d]
    fv = np.zeros((len(degrees), n), dtype=complex)
    for (m, k), c in f.coeffs.items():
        fv[slot[m + k], m] = c
    # the Gram block's own conditioning bounds how far the rounding in its
    # entries moves the parts (this catches a near-null direction that the
    # flag basis isolates and so scales away)
    _check_conditioning(g, "Gram block", degrees)
    binom = _binomial_table(n)
    # the variety is {u = 0}: u = z2 on the ball, z1 - z2 elsewhere; a row
    # of zeros after the powers of u stands for the columns past degree d
    u = np.array([1.0, 0.0] if gram.space == "ball" else [-1.0, 1.0])
    upow = np.vstack([_form_powers(u, binom), np.zeros(n)])
    deg = np.array(degrees, dtype=int)
    gu = np.einsum("bmn,bn->bm", g, upow[deg])
    prev = upow[deg - 1, :-1]
    v = np.stack([np.einsum("bm,bm->b", gu[:, 1:], prev),
                  -np.einsum("bm,bm->b", gu[:, :-1], prev)], axis=1)
    v[deg == 0] = u  # a degree-0 block has no complement; E = [1] there
    v /= np.where(abs(v[:, 0]) >= abs(v[:, 1]), v[:, 0], v[:, 1])[:, None]
    # E[b, m, i] = sum_j upow[d_b - i, j] vpow[b, i, m - j]: one product
    # with a Hankel view of the powers of v behind n - 1 zeros (entry (m, j)
    # is vpow[b, i, m - n + 1 + j]) against the powers of u reversed, and
    # the identity in the padding
    upow_exp = deg[:, None] - np.arange(n)
    vpow = np.zeros((len(degrees), n, 2 * n - 1))
    vpow[:, :, n - 1:] = _form_powers(v, binom)
    hankel = as_strided(vpow, vpow.shape[:2] + (n, n),
                        vpow.strides + vpow.strides[2:], writeable=False)
    basis = (np.einsum("bij,bimj->bmi",
                       upow[np.where(upow_exp < 0, n, upow_exp), ::-1], hankel)
             + (upow_exp < 0)[:, None, :] * np.eye(n))
    basis_t = basis.transpose(0, 2, 1)
    normal = basis_t @ g @ basis
    rows = _solve_lower(_cholesky(normal, "projection block", degrees), basis_t)
    coef = np.einsum("bim,bm->bi", rows, np.einsum("bmn,bn->bm", g, fv))
    return g, fv, degrees, coef[:, :, None] * rows


def order_parts(gram: GramBlocks, f: BiPoly) -> list:
    """[Q_0 f, ..., Q_D f] with D = max(deg f, 0): the orthogonal parts of f
    that vanish to order exactly N along the space's variety, so that
    f = sum_N Q_N f and ||f||^2 = sum_N ||Q_N f||^2 (see _order_pass)."""
    _, _, degrees, parts = _order_pass(gram, f)
    out = [{} for _ in range(max(f.total_degree, 0) + 1)]
    for d, block in zip(degrees, parts):
        keys = [(m, d - m) for m in range(d + 1)]
        for i, row in enumerate(block[:d + 1, :d + 1].tolist()):
            out[d - i].update(zip(keys, row))
    return [BiPoly(p) for p in out]


def order_norms(gram: GramBlocks, f: BiPoly) -> tuple[float, list]:
    """(||f||^2, [||Q_0 f||^2, ..., ||Q_D f||^2]), D = max(deg f, 0): the
    norms of f and of order_parts(gram, f) in the space, each the sum over
    degrees d of p G_d conj(p) for its degree-d components p."""
    g, fv, degrees, parts = _order_pass(gram, f)
    total = np.einsum("bm,bm->", np.einsum("bmn,bn->bm", g, fv),
                      fv.conj()).real
    norms = np.einsum("bim,bim->bi", parts @ g, parts.conj()).real
    order = np.array(degrees, dtype=int)[:, None] - np.arange(g.shape[-1])
    by_order = np.zeros(max(f.total_degree, 0) + 1)
    np.add.at(by_order, order[order >= 0], norms[order >= 0])
    return float(total), by_order.tolist()


def project(gram: GramBlocks, f: BiPoly, order: int) -> tuple[BiPoly, BiPoly]:
    """Orthogonal projections (P_order f, Q_order f) onto the subspace of
    functions vanishing to the given order along the space's variety, and
    onto its part that vanishes to exactly that order."""
    if order < 0:
        raise DomainError(f"vanishing order must be >= 0, got {order}")
    parts = order_parts(gram, f)[order:]
    return sum(parts, BiPoly()), parts[0] if parts else BiPoly()
