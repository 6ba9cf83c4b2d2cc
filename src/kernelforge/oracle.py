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
parameters by constructing the space's parameter class, or takes one.

The orthogonal parts Q_N f of f that vanish to order exactly N along the
space's variety {u = 0} (u = z1 - z2, or z2 on the ball) all come from one
Cholesky factorisation per degree block, taken for all of f's degree blocks
at once on a stack padded with the identity.  Within total degree d the
subspaces of order at least o are nested, and the basis u^k v^(d-k),
k = d..0, spans each of them with its first d-o+1 columns, so
orthonormalising it in order gives every Q_N f, and every ||Q_N f||^2 from
f's coordinates in the orthonormal basis, at once.  The complement v
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
from dataclasses import asdict, dataclass, field
from functools import lru_cache

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
    return math.prod(k / (alpha + 1.0 + k) for k in range(1, p + 1))


@dataclass
class GramBlocks:
    """Per-degree Hermitian Gram matrices of monomials plus provenance."""

    space: str
    params: dict
    blocks: list = field(default_factory=list)
    quad_error: float | None = None

    @property
    def exact(self) -> bool:
        """True for closed-form blocks, False for quadrature ones."""
        return self.quad_error is None

    @property
    def max_degree(self) -> int:
        return len(self.blocks) - 1

    def inner_product(self, f: BiPoly, g: BiPoly) -> complex:
        """<f, g> in the space; requires deg <= max_degree."""
        blocks, (fv, gv), _ = _degree_stack(self, (f, g))
        return complex(np.einsum("bm,bmn,bn->", fv, blocks, gv.conj()))

    def norm_sq(self, f: BiPoly) -> float:
        return self.inner_product(f, f).real


def _degree_stack(gram: GramBlocks, polys):
    """(g, vecs, degrees) for the degrees d_0 < ... < d_{k-1} that any of
    polys has: g[b] is block d_b of the Gram table and vecs[p, b] the
    coefficients of polys[p] of degree d_b indexed by the power of z1, padded
    with the identity and with zeros to size n = max(deg, 0) + 1 over the
    polynomials' degrees."""
    deg = max(p.total_degree for p in polys)
    if deg > gram.max_degree:
        raise DomainError(f"degree {deg} exceeds Gram table max degree "
                          f"{gram.max_degree}")
    n = max(deg, 0) + 1
    degrees = sorted({m + k for p in polys for m, k in p.coeffs})
    slot = {d: b for b, d in enumerate(degrees)}
    g = np.eye(n)[None].repeat(len(degrees), 0)
    for b, d in enumerate(degrees):
        g[b, :d + 1, :d + 1] = gram.blocks[d]
    vecs = np.zeros((len(polys), len(degrees), n), dtype=complex)
    for p, poly in enumerate(polys):
        for (m, k), c in poly.coeffs.items():
            vecs[p, slot[m + k], m] = c
    return g, vecs, degrees


def _require_integer_theta(theta: float) -> int:
    # the range test comes first, so that NaN and inf fail before round()
    if not (0 <= theta < math.inf and abs(theta - round(theta)) <= 1e-12):
        raise DomainError(f"exact Gram blocks need integer theta >= 0, got "
                          f"{theta}")
    return int(round(theta))


def _binomial_gram_blocks(theta: float, max_degree: int, moment1,
                          moment2) -> list:
    """Blocks for integer theta: the orthogonal basis is z1^k z2^(d+theta-k)
    in the theta = 0 product space, with norms mu_k = moment1(k)
    moment2(d+theta-k) (moment_i(p) the p-th absolute moment of variable i),
    and column m of B holds z1^m z2^(d-m) (z1-z2)^theta."""
    th = _require_integer_theta(theta)
    u = _form_powers(np.array([-1.0, 1.0]), _binomial_table(th + 1))[-1]
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
        # contiguous: numpy may round a product with a strided view otherwise
        b = np.ascontiguousarray(big_b[:d + th + 1, :d + 1])
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
    binom = _binomial_table(max_degree + 1)
    pow1, pow2 = (_form_powers(np.array([1.0, c]), binom)
                  for c in (beta / gamma, -alpha / gamma))
    mom_u, mom_v = (np.array([fock_moment(g, i + t)
                              for i in range(max_degree + 1)])
                    for g, t in ((alpha * beta / gamma, theta), (gamma, 0.0)))
    blocks = []
    for d in range(max_degree + 1):
        c = np.column_stack([np.convolve(pow1[m, :m + 1],
                                         pow2[d - m, :d - m + 1])
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


def _ball_log_norms(alpha: float, beta: float, theta: float):
    """Functions a, b, c of an index with log ||z1^m z2^n||^2 = a(m) + b(n) -
    c(m + n) in the weighted ball space."""
    return (lambda m: log_gamma(m + 1.0),
            lambda n: (log_gamma(n + theta + alpha + beta + 2.0)
                       + log_gamma(n + theta + 1.0) + log_gamma(alpha + 1.0)
                       - log_gamma(n + theta + alpha + 2.0)),
            lambda d: log_gamma(d + theta + alpha + beta + 3.0))


def ball_monomial_norm(alpha: float, beta: float, theta: float,
                       m: int, n: int) -> float:
    """||z1^m z2^n||^2 in the weighted ball space (2D norm unnormalized)."""
    a, b, c = _ball_log_norms(alpha, beta, theta)
    return math.exp(a(m) + b(n) - c(m + n))


def ball_monomial_norms(alpha: float, beta: float, theta: float,
                        max_degree: int) -> GramBlocks:
    """Diagonal Gram blocks of the ball space (radial weights make monomials
    orthogonal)."""
    BallParams(alpha, beta, theta)
    # ball_monomial_norm's terms and sum, so that every entry is its double
    a, b, c = (np.array([f(k) for k in range(max_degree + 1)])
               for f in _ball_log_norms(alpha, beta, theta))
    deg, m = np.tril_indices(max_degree + 1)  # entry m of block deg, in order
    norms = [math.exp(x) for x in (a[m] + b[deg - m] - c[deg]).tolist()]
    return GramBlocks("ball", {"alpha": alpha, "beta": beta, "theta": theta},
                      [np.diag(norms[d * (d + 1) // 2:(d + 1) * (d + 2) // 2])
                       for d in range(max_degree + 1)])


def ball_hardy_monomial_norm(beta: float, theta: float, m: int, n: int) -> float:
    """Surface-measure norm of z1^m z2^n, the alpha -> -1 limit of (alpha+1)
    (alpha+2) times the ball norm: m! / (x+1)_(m+1), x = n + theta + beta."""
    x = n + theta + beta
    return disk_moment(x, m) / (x + 1.0)


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
# entries of each temporary of _angular_reduce: 256 kB, within a core's L2
_REDUCE_CHUNK = 1 << 15


@lru_cache(maxsize=32)
def _angular_nodes(n: int, graded: bool):
    """Nodes/weights on (0, pi); graded toward 0 when the angular factor has
    an integrable singularity there (theta < 0).  Cached, read-only."""
    from scipy.special import roots_legendre
    x, w = roots_legendre(n)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    if graded:
        psi = math.pi * u ** 3
        wpsi = wu * 3.0 * math.pi * u ** 2
    else:
        psi = math.pi * u
        wpsi = wu * math.pi
    return _read_only(psi, wpsi)


def _angular_reduce(t1, t2, psi, wpsi, max_delta, theta, vartheta):
    """cang[delta, i, j] = int_0^pi cos(delta psi) W(t1_i, t2_j, psi) dpsi,
    with the integrand formed for a block of radial pairs (i, j) at a time,
    each block's temporaries _REDUCE_CHUNK entries or fewer, so that they
    stay in cache."""
    # |z1 - z2|^2 = gap + cross4 sin^2(psi/2), written without the
    # cancellation that makes it 0 (and 0 ** theta inf for theta < 0) when
    # t1 == t2 and cos(psi) rounds to 1; |1 - z1 conj(z2)|^2 = |z1 - z2|^2 +
    # (1 - t1)(1 - t2) likewise does not cancel as t1 t2 -> 1
    gap = np.subtract.outer(np.sqrt(t1), np.sqrt(t2)).ravel() ** 2
    cross4 = 4.0 * np.sqrt(np.outer(t1, t2)).ravel()
    damp = np.outer(1.0 - t1, 1.0 - t2).ravel()
    sin2 = np.sin(psi / 2) ** 2
    cosw = np.cos(np.outer(np.arange(max_delta + 1), psi)) * wpsi
    cang = np.empty((max_delta + 1, gap.size))
    chunk = max(1, _REDUCE_CHUNK // psi.size)
    wgt, base = np.empty((2, chunk, psi.size))
    for p0 in range(0, gap.size, chunk):
        s = slice(p0, p0 + chunk)
        w = wgt[:len(gap[s])]
        np.multiply.outer(cross4[s], sin2, out=w)
        w += gap[s, None]
        if vartheta != 0.0:
            b = np.add(w, damp[s, None], out=base[:len(w)])
            b **= vartheta
            w **= theta
            w *= b
        else:
            w **= theta
        np.matmul(cosw, w.T, out=cang[:, s])
    return cang.reshape(max_delta + 1, t1.size, t2.size)


@lru_cache(maxsize=32)
def _radial_rule(a: float, n: int):
    """(t, w): Gauss-Jacobi of order n in r = |z_i| for the disk weight
    (1 - r^2)^a, with nodes t = r^2 and the weight's factor (1 + r)^a and the
    area element's r in the weights w.  Cached, read-only."""
    from scipy.special import roots_jacobi
    x, w = roots_jacobi(n, a, 0.0)
    s = 0.5 * (x + 1.0)
    return _read_only(s ** 2, w * 2.0 ** (-a - 1.0) * (1.0 + s) ** a * s)


def _read_only(*arrays):
    for x in arrays:
        x.setflags(write=False)
    return arrays


def _blocks_at_order(params: BidiskParams, n: int, max_degree: int) -> list:
    """Gram blocks of degree 0..max_degree from the radial rules (t1, w1) and
    (t2, w2) of order n for alpha and beta: entry (m1, m2) of block d is
    const sum_ij w1_i w2_j t1_i^{a/2} t2_j^{b/2} cang[|m1-m2|, i, j],
    a = m1 + m2, b = 2d - a, const = 4 (alpha+1)(beta+1)/pi, with the
    angular reduction at order 2n.  QuadratureError naming n if a rule is not
    finite."""
    (t1, w1), (t2, w2) = (_radial_rule(a, n)
                          for a in (params.alpha, params.beta))
    if not all(np.isfinite(x).all() for x in (t1, w1, t2, w2)):
        raise QuadratureError(
            f"gram_numeric: the radial rule of order {n} is not finite")
    const = 4.0 * (params.alpha + 1.0) * (params.beta + 1.0) / math.pi
    psi, wpsi = _angular_nodes(2 * n, params.theta < 0)
    cang = _angular_reduce(t1, t2, psi, wpsi, max_degree, params.theta,
                           params.vartheta)
    # cos(delta psi) pairs only with powers (sqrt(t1 t2))^{delta + even} of the
    # angular weight, so t^{a/2} cang[delta] has integral powers of t (a and
    # delta share parity).
    half = np.arange(2 * max_degree + 1)[:, None] / 2.0
    integrals = const * (w1 * t1 ** half) @ cang @ (w2 * t2 ** half).T
    blocks = []
    for d in range(max_degree + 1):
        m = np.arange(d + 1)
        a = m[:, None] + m[None, :]
        blocks.append(integrals[np.abs(m[:, None] - m[None, :]), a, 2 * d - a])
    return blocks


def gram_numeric(params: BidiskParams, max_degree: int) -> GramBlocks:
    """Bidisk Gram blocks by adaptive tensor quadrature for arbitrary valid
    parameters; the attached quad_error is the largest entry change at the
    last doubling of the order.  The Gaussian space needs no quadrature:
    gram_fock_exact is exact at every theta."""
    n = QUAD_START_ORDER
    prev = _blocks_at_order(params, n, max_degree)
    while n < QUAD_MAX_ORDER:
        n *= 2
        cur = _blocks_at_order(params, n, max_degree)
        diffs = [np.abs(c - q) for c, q in zip(cur, prev)]
        err = float(np.max([np.max(x) for x in diffs]))
        # each block against its own largest entry, at least 1; NaN fails
        scales = [max(np.max(np.abs(c)), 1.0) for c in cur]
        rel = [np.max(x) / s for x, s in zip(diffs, scales)]
        if np.max(rel) <= QUAD_TOLERANCE:
            return GramBlocks("bidisk", asdict(params), cur, quad_error=err)
        prev = cur
    d = int(np.argmax(rel))
    i, j = np.unravel_index(np.argmax(diffs[d]), diffs[d].shape)
    raise QuadratureError(
        f"gram_numeric did not converge: entry {(d, int(i), int(j))} "
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
    inv_low = np.linalg.solve(_cholesky(g, ("Gram block",), range(n)),
                              np.broadcast_to(np.eye(n), g.shape))
    kernel = inv_low.transpose(0, 2, 1) @ inv_low
    return [kernel[d, :d + 1, :d + 1] for d in range(n)]


def _check_conditioning(m: np.ndarray, whats, degrees) -> None:
    """ConditioningError naming the first block of the stack m that fails:
    m holds one real symmetric block per degree in degrees for each name in
    whats, in that order, and each, scaled to a unit diagonal, must be finite
    and positive definite with condition number at most COND_LIMIT.  The
    scaled number bounds how far relative rounding in m's entries moves what
    is solved with m, and Cholesky's accuracy, whatever the spread of m's
    diagonal.  Padding with the identity keeps a verdict: the eigenvalues of
    a unit diagonal matrix bracket 1, so it moves neither extreme."""
    good = np.isfinite(m).all(axis=(1, 2))
    diag = np.diagonal(m, axis1=1, axis2=2)
    s = 1.0 / np.sqrt(np.where((diag > 0) & good[:, None], diag, 1.0))
    scaled = m * (s[:, :, None] * s[:, None, :])
    scaled[~good] = np.eye(m.shape[-1])  # eigvalsh fails on NaN entries
    eig = np.linalg.eigvalsh(scaled)
    # false for a matrix not finite, and where a diagonal entry or the least
    # eigenvalue is not positive (the largest then is, as the trace is)
    good &= (diag > 0).all(axis=1) & (eig[:, -1] <= COND_LIMIT * eig[:, 0])
    if not good.all():
        k, i = divmod(int(np.argmin(good)), len(degrees))
        raise ConditioningError(
            f"{whats[k]} degree {degrees[i]} is not positive definite with "
            f"condition number at most {COND_LIMIT:.0e}")


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
    d > D of bounds b_d = sum_{i+j=d} x^i y^j / mu(i, j) on |K_d(z, w)|,
    formed in logs.

    ball and fock: the monomials in (z1, z2) on the ball and in (u, v) on
    the Gaussian space (gram_fock_exact) are orthogonal with norms mu(i, j),
    and x, y are |z1 w1|, |z2 w2| or |u(z) u(w)|, |v(z) v(w)|.  Exact bidisk
    tables (integer theta, vartheta = 0): f of degree d has the norm of
    (z1-z2)^theta f in the theta = 0 product space, whose degree-n kernel is
    at most c_n = (alpha+beta+4)_n / n! on the unit polydisk, so Bernstein's
    inequality on the circle gives b_d = C(d+theta, theta)^2 c_{d+theta}
    q^d, q = max|z_i| max|w_i|: the form above at (x, y) = (q, 0).  Past the
    first b_{d+1} < (1 - 1e-9) b_d beyond max_degree the rest is bounded
    geometrically: a bound where b_{d+1}/b_d does not increase, on the
    bidisk and on the Gaussian space, whose b_d convolves the log-concave
    x^i / mu_u(i) and y^j / mu_v(j) (each mu a Gamma function over a
    geometric factor) and so is log-concave; an estimate on the ball.  inf
    if b_d still grows at degree _REMAINDER_TERMS."""
    al, be, th = map(gram.params.get, ("alpha", "beta", "theta"))
    log_b = log_c = lambda k: 0.0  # log mu(i, j) = a(i) + b(j) - c(i + j)
    if gram.space == "ball":
        x, y = abs(z1 * w1), abs(z2 * w2)
        log_a, log_b, log_c = _ball_log_norms(al, be, th)
    elif gram.space == "fock":
        g = al + be
        x = abs((z1 - z2) * (w1 - w2))
        y = abs((al * z1 + be * z2) * (al * w1 + be * w2)) / g ** 2
        # log fock_moment(delta, i + theta) and log fock_moment(gamma, j)
        log_delta, log_g = math.log(al * be / g), math.log(g)
        log_a = lambda i: log_gamma(i + th + 1.0) - (i + th + 1.0) * log_delta
        log_b = lambda j: log_gamma(j + 1.0) - (j + 1.0) * log_g
    elif gram.space == "bidisk" and gram.exact:
        x, y, t = max(abs(z1), abs(z2)) * max(abs(w1), abs(w2)), 0.0, int(th)
        s = al + be + 4.0  # 1/mu(d, 0) = C(d+t, t)^2 (s)_{d+t} / (d+t)!
        log_a = lambda d: (log_gamma(d + t + 1.0) - log_gamma(s + d + t)
                           + log_gamma(s) - 2 * math.log(math.comb(d + t, t)))
    else:
        kind = "exact" if gram.exact else "quadrature"
        raise DomainError(f"no Taylor remainder bound for {kind} "
                          f"{gram.space!r} blocks")
    lx, ly = (math.log(v) if v else -math.inf for v in (x, y))
    la, lb = np.empty(_REMAINDER_TERMS), np.empty(_REMAINDER_TERMS)
    terms, tail = [], math.inf
    for d in range(_REMAINDER_TERMS):
        # d log x - log mu_x(d), where x^0 = 1 also at x = 0
        la[d] = (d * lx if d else 0.0) - log_a(d)
        lb[d] = (d * ly if d else 0.0) - log_b(d)
        terms.append(math.exp(np.logaddexp.reduce(la[:d + 1] + lb[d::-1])
                              + log_c(d)))
        # a decrease must exceed the terms' rounding (about d eps |log b_d|),
        # or near a flat peak the last bits decide where the continuation
        # starts and r[D] moves by orders of magnitude between nearby points
        if d > max_degree and (terms[-1] < (1.0 - 1e-9) * terms[-2]
                               or not terms[-1]):
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


def _cholesky(m: np.ndarray, whats, degrees) -> np.ndarray:
    """The lower Cholesky factors of m's last stack, after
    _check_conditioning(m, whats, degrees), or ConditioningError naming
    whats[-1] and the degree of the first block of it that has none."""
    _check_conditioning(m, whats, degrees)
    last = m[-len(degrees):]
    try:
        return np.linalg.cholesky(last)
    except np.linalg.LinAlgError:
        # the factorisation fails for the whole stack; name the block
        for d, block in zip(degrees, last):
            try:
                np.linalg.cholesky(block)
            except np.linalg.LinAlgError:
                raise ConditioningError(f"{whats[-1]} degree {d}: Cholesky "
                                        f"factorisation failed") from None
        raise


def _order_pass(gram: GramBlocks, f: BiPoly):
    """(degrees, total, low, basis_t, coef), every step on the whole stack
    at once: the degrees d_0 < ... < d_{k-1} that f has, total = ||f||^2
    and, per block as _degree_stack lays it out, the Cholesky factor L of
    E^T G E = L L^T, E^T and coef = L^{-1} E^T G f, where E has column
    i = u^{d-i} v^i (see the module docstring).  The rows w_i of L^{-1} E^T
    are G-orthonormal and w_0..w_j span E's first j+1 columns, so the
    degree-d component p of Q_{d-i} f is coef_i w_i and p G conj(p) =
    |coef_i|^2 (Golub and Van Loan, Matrix Computations, 5.3).  One check
    covers the stack [G; E^T G E], Gram blocks named first: G's own
    conditioning bounds how far the rounding in its entries moves the parts
    (it catches a near-null direction that the flag basis isolates and so
    scales away), and each order's normal matrix is a leading submatrix of
    E^T G E, no worse conditioned after scaling (eigenvalue interlacing).
    E is built first with floating-point warnings off: a bad G may make it
    non-finite."""
    g, (fv,), degrees = _degree_stack(gram, (f,))
    n = g.shape[-1]
    binom = _binomial_table(n)
    # the variety is {u = 0}: u = z2 on the ball, z1 - z2 elsewhere; a row
    # of zeros after the powers of u stands for the columns past degree d
    u = np.array([1.0, 0.0] if gram.space == "ball" else [-1.0, 1.0])
    upow = np.vstack([_form_powers(u, binom), np.zeros(n)])
    deg = np.array(degrees, dtype=int)
    with np.errstate(all="ignore"):
        gu = np.einsum("bmn,bn->bm", g, upow[deg])
        prev = upow[deg - 1, :-1]
        v = np.stack([np.einsum("bm,bm->b", gu[:, 1:], prev),
                      -np.einsum("bm,bm->b", gu[:, :-1], prev)], axis=1)
        v[deg == 0] = u  # a degree-0 block has no complement; E = [1] there
        v /= np.where(abs(v[:, 0]) >= abs(v[:, 1]), v[:, 0], v[:, 1])[:, None]
        # E[b, m, i] = sum_j upow[d_b - i, j] vpow[b, i, m - j]: one product
        # with a Hankel view of the powers of v behind n - 1 zeros (entry
        # (m, j) is vpow[b, i, m - n + 1 + j]) against the powers of u
        # reversed, and the identity in the padding
        upow_exp = deg[:, None] - np.arange(n)
        vpow = np.zeros((len(degrees), n, 2 * n - 1))
        vpow[:, :, n - 1:] = _form_powers(v, binom)
        hankel = as_strided(vpow, vpow.shape[:2] + (n, n),
                            vpow.strides + vpow.strides[2:], writeable=False)
        upow_rev = upow[np.where(upow_exp < 0, n, upow_exp), ::-1]
        basis_t = (np.einsum("bij,bimj->bim", upow_rev, hankel)
                   + (upow_exp < 0)[:, :, None] * np.eye(n))
        normal = basis_t @ g @ basis_t.transpose(0, 2, 1)
    low = _cholesky(np.concatenate([g, normal]),
                    ("Gram block", "projection block"), degrees)
    gf = np.einsum("bmn,bn->bm", g, fv)
    total = np.einsum("bm,bm->", gf, fv.conj()).real
    coef = np.linalg.solve(low, basis_t @ gf[:, :, None])[:, :, 0]
    return degrees, float(total), low, basis_t, coef


def order_parts(gram: GramBlocks, f: BiPoly) -> list:
    """[Q_0 f, ..., Q_D f] with D = max(deg f, 0): the orthogonal parts of f
    that vanish to order exactly N along the space's variety, so that
    f = sum_N Q_N f and ||f||^2 = sum_N ||Q_N f||^2 (see _order_pass)."""
    degrees, _, low, basis_t, coef = _order_pass(gram, f)
    parts = coef[:, :, None] * np.linalg.solve(low, basis_t)
    out = [{} for _ in range(max(f.total_degree, 0) + 1)]
    for d, block in zip(degrees, parts):
        keys = [(m, d - m) for m in range(d + 1)]
        for i, row in enumerate(block[:d + 1, :d + 1].tolist()):
            out[d - i].update(zip(keys, row))
    return [BiPoly(p) for p in out]


def order_norms(gram: GramBlocks, f: BiPoly) -> tuple[float, list]:
    """(||f||^2, [||Q_0 f||^2, ..., ||Q_D f||^2]), D = max(deg f, 0): the
    norms of f and of order_parts(gram, f) in the space, each part's the sum
    of |coef_i|^2 over f's degree blocks (see _order_pass)."""
    degrees, total, _, _, coef = _order_pass(gram, f)
    norms = coef.real ** 2 + coef.imag ** 2
    order = np.array(degrees, dtype=int)[:, None] - np.arange(coef.shape[-1])
    by_order = np.zeros(max(f.total_degree, 0) + 1)
    np.add.at(by_order, order[order >= 0], norms[order >= 0])
    return total, by_order.tolist()


def project(gram: GramBlocks, f: BiPoly, order: int) -> tuple[BiPoly, BiPoly]:
    """Orthogonal projections (P_order f, Q_order f) onto the subspace of
    functions vanishing to the given order along the space's variety, and
    onto its part that vanishes to exactly that order."""
    if order < 0:
        raise DomainError(f"vanishing order must be >= 0, got {order}")
    parts = order_parts(gram, f)[order:]
    return sum(parts, BiPoly()), parts[0] if parts else BiPoly()
