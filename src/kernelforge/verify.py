"""Verification suites: every acceptance property expressed as a runnable,
seeded check returning a deterministic report dict.

Each suite returns {"suite", "seed", "passed", "items"} where items carry
(item, value, oracle, abs_err, rel_err, tol, passed).  The CLI and the
acceptance tests both consume these.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import bidisk, ball, fock, oracle
from .config import Point2
from .errors import DomainError
from .poly2 import BiPoly
from .specfun import pochhammer


def _item(name, value, ref, tol, scale=None):
    """value against ref within tol, relative to |scale| (default |ref|) when
    that exceeds one; scale=1 with ref=0 makes value an error measure."""
    value = complex(value)
    ref = complex(ref)
    scale = abs(ref) if scale is None else abs(scale)
    abs_err = abs(value - ref)
    rel_err = abs_err / max(scale, 1e-300)
    return {
        "item": name,
        "value": [value.real, value.imag],
        "oracle": [ref.real, ref.imag],
        "abs_err": abs_err,
        "rel_err": rel_err,
        "tol": tol,
        "passed": bool(abs_err <= tol * max(1.0, scale)),
    }


def _report(suite, seed, items):
    return {
        "suite": suite,
        "seed": seed,
        "passed": bool(all(it["passed"] for it in items)),
        "items": items,
    }


def _rand_point(rng, radius):
    r = radius * math.sqrt(rng.uniform(0, 1))
    phi = rng.uniform(0, 2 * math.pi)
    return r * complex(math.cos(phi), math.sin(phi))


# -- criterion 1 ------------------------------------------------------------

SIGMA_TUPLES = [
    (0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, 2.0), (1.0, 1.0, 1.0),
    (0.5, 0.25, 1.5), (2.0, 0.5, 0.5), (0.3, 0.1, 0.7), (1.5, 0.05, 2.2),
    (0.0, 3.0, 0.5), (3.0, 0.0, 0.5), (-0.5, -0.5, 0.25), (-0.9, 0.2, 1.1),
    (0.2, -0.9, 1.1), (4.0, 4.0, 3.0), (0.01, 0.01, 0.01), (2.5, 1.5, -0.5),
    (-0.3, 2.0, 2.5), (1.0, 0.0, 5.0), (0.0, 1.0, 5.0), (0.7, 0.7, 0.0),
]


def suite_sigma_consistency(seed: int = 0) -> dict:
    """Hypergeometric sigma against the closed Gamma form, vartheta = 0."""
    items = []
    for al, be, th in SIGMA_TUPLES:
        p = bidisk.BidiskParams(al, be, th, 0.0)
        items.append(_item(f"sigma({al},{be},{th},0)",
                           bidisk.sigma(p), bidisk.sigma_gamma_form(p), 1e-10))
    return _report("sigma-consistency", seed, items)


# -- criterion 2 ------------------------------------------------------------

def suite_sigma_integral(seed: int = 0) -> dict:
    """1/sigma against the d = 0 Gram entry, exact and quadrature oracles."""
    items = []
    for th in (0, 1, 2):
        p = bidisk.BidiskParams(0.4, 0.7, float(th), 0.0)
        g = oracle.gram_bidisk_exact(0.4, 0.7, float(th), 0)
        items.append(_item(f"1/sigma exact theta={th}",
                           1.0 / bidisk.sigma(p), g.blocks[0][0, 0], 1e-12))
    for vt in (0.5, 1.3):
        p = bidisk.BidiskParams(0.3, 0.6, 1.0, vt)
        gn = oracle.gram_numeric(p, 0)
        tol = max(gn.quad_error or 0.0, 1e-8)
        items.append(_item(f"1/sigma numeric vartheta={vt}",
                           1.0 / bidisk.sigma(p), gn.blocks[0][0, 0], tol))
    return _report("sigma-integral", seed, items)


# -- criterion 3 ------------------------------------------------------------

def suite_taylor_blocks(seed: int = 0) -> dict:
    """bidisk.taylor_blocks against inverted exact Gram blocks."""
    items = []
    for th in (0, 1, 2):
        for al in (0.0, 0.5, 1.0):
            for be in (0.0, 0.5, 1.0):
                p = bidisk.BidiskParams(al, be, float(th), 0.0)
                mine = bidisk.taylor_blocks(p, 8)
                ref = oracle.gram_kernel_blocks(
                    oracle.gram_bidisk_exact(al, be, float(th), 8))
                worst = 0.0
                for km, kr in zip(mine, ref):
                    scale = np.max(np.abs(kr))
                    worst = max(worst, np.max(np.abs(km - kr)) / scale)
                items.append(_item(f"taylor_blocks({al},{be},{th},0) d<=8",
                                   worst, 0.0, 1e-9, scale=1.0))
    return _report("taylor-blocks", seed, items)


# -- criterion 4 ------------------------------------------------------------

def suite_product_kernel(seed: int = 0) -> dict:
    """theta = vartheta = 0 full kernel against the product closed form."""
    rng = np.random.default_rng(seed)
    p = bidisk.BidiskParams(1.0, 0.5, 0.0, 0.0)
    pairs = [tuple(Point2(_rand_point(rng, 0.7), _rand_point(rng, 0.7))
                   for _ in range(2)) for _ in range(100)]
    results = bidisk.full_kernels(p, pairs)
    items = []
    for i, ((z, w), got) in enumerate(zip(pairs, results)):
        ref = ((1.0 - np.conj(w.z1) * z.z1) ** (-3.0)
               * (1.0 - np.conj(w.z2) * z.z2) ** (-2.5))
        items.append(_item(f"pair {i}", got.value, ref, 1e-10))
    return _report("product-kernel", seed, items)


# -- criterion 5 ------------------------------------------------------------

def _random_poly(rng, max_degree):
    coeffs = {}
    for m in range(max_degree + 1):
        for n in range(max_degree + 1 - m):
            if rng.uniform() < 0.5:
                coeffs[(m, n)] = complex(rng.standard_normal(),
                                         rng.standard_normal())
    if not coeffs:
        coeffs[(0, 0)] = 1.0 + 0.0j
    return BiPoly(coeffs)


def suite_bidisk_norm(seed: int = 0) -> dict:
    """Norm-expansion totals and per-term values against the Gram oracle."""
    rng = np.random.default_rng(seed)
    items = []
    grams = {}
    for i in range(50):
        th = int(rng.integers(0, 3))
        al = float(rng.choice([0.0, 0.5, 1.0]))
        be = float(rng.choice([0.0, 0.5, 1.0]))
        key = (al, be, th)
        if key not in grams:
            grams[key] = oracle.gram_bidisk_exact(al, be, float(th), 6)
        g = grams[key]
        f = _random_poly(rng, 6)
        p = bidisk.BidiskParams(al, be, float(th), 0.0)
        exp = bidisk.norm_expansion(p, f)
        ref_total, refs = oracle.order_norms(g, f)
        items.append(_item(f"poly {i} total ({al},{be},{th})",
                           exp.total, ref_total, 1e-9))
        for N, term in exp.terms:
            items.append(_item(f"poly {i} term N={N}", term, refs[N], 1e-9,
                               scale=ref_total))
    return _report("bidisk-norm", seed, items)


# -- criterion 6 ------------------------------------------------------------

def suite_hardy(seed: int = 0) -> dict:
    """Hardy norm expansion against torus Parseval oracles."""
    items = []
    tests = [BiPoly.parse(t) for t in
             ("1", "z1", "z2", "z1-z2", "z1*z2", "z1^2", "z1^2*z2", "z2^3")]
    for th in (0, 1):
        g = oracle.gram_hardy_torus_exact(float(th), 5)
        for f in tests:
            got = bidisk.hardy_norm_expansion(float(th), f).total
            items.append(_item(f"theta={th} f={f.format()}",
                               got, g.norm_sq(f), 1e-10))
    return _report("hardy", seed, items)


# -- criterion 7 ------------------------------------------------------------

def suite_ball(seed: int = 0) -> dict:
    items = []
    rng = np.random.default_rng(seed)
    for al, be, th in [(0.0, 0.0, 0.0), (0.5, 1.0, 0.25), (1.5, -0.5, 2.0)]:
        p = ball.BallParams(al, be, th)
        g = oracle.ball_monomial_norms(al, be, th, 8)
        for i in range(5):
            f = _random_poly(rng, 8)
            items.append(_item(f"norm ({al},{be},{th}) poly {i}",
                               ball.ball_norm_expansion(p, f).total,
                               g.norm_sq(f), 1e-10))
        for i in range(5):
            z = Point2(_rand_point(rng, 0.42), _rand_point(rng, 0.42))
            w = Point2(_rand_point(rng, 0.42), _rand_point(rng, 0.42))
            items.append(_item(
                f"kernel ({al},{be},{th}) pair {i}",
                ball.ball_full_kernel(p, z, w).value,
                ball.ball_full_kernel_series(p, z, w).value, 1e-8))
    p0 = ball.BallParams(0.7, 0.0, 0.0)
    for i in range(10):
        z = Point2(_rand_point(rng, 0.42), _rand_point(rng, 0.42))
        w = Point2(_rand_point(rng, 0.42), _rand_point(rng, 0.42))
        ref = (1.7 * 2.7 * (1.0 - z.z1 * np.conj(w.z1)
                            - z.z2 * np.conj(w.z2)) ** (-3.7))
        items.append(_item(f"collapse pair {i}",
                           ball.ball_full_kernel(p0, z, w).value, ref, 1e-10))
    return _report("ball", seed, items)


# -- criterion 8 ------------------------------------------------------------

def _e_theta(theta: float, x: complex) -> complex:
    """E_theta(x) = sum_n x^n / Gamma(theta+n+1), theta >= 0, not from that
    series: e^x at theta = 0, else Gamma(theta)^-1 int_0^1 (1-t)^(theta-1)
    e^(xt) dt by the 64-node Gauss-Jacobi rule in 2t - 1."""
    # within |x| <= 30 the rule agrees with mpmath to 1.8e-14 relative
    # (theta = 0.5, 1, 2.5); criterion 8 reaches about |x| = 15
    if not abs(x) <= 30.0:
        raise DomainError(f"E_theta reference needs |x| <= 30, got {abs(x)}")
    if theta == 0.0:
        return cmath.exp(x)
    s, w = oracle.gauss_jacobi(theta - 1.0, 64)
    return (complex(w @ np.exp(0.5 * x * (s + 1.0)))
            / (2.0 ** theta * math.gamma(theta)))


def _fock_reference(params, z: Point2, w: Point2) -> complex:
    """fock_full_kernel's value by another route.  In u1 = (alpha z1 +
    beta z2)/(alpha+beta), u2 = (z1 - z2)/(alpha+beta) the weight separates,
    with dA(z) = (alpha+beta)^2 dA(u): the kernel is (alpha+beta)^-(2 theta+2)
    times the 1D Gaussian kernel of index alpha+beta in u1 and the kernel
    delta^(theta+1) E_theta(delta u2 conj(v2)) of |u2|^(2 theta)
    e^(-delta |u2|^2), delta = alpha beta (alpha+beta)."""
    al, be, th = params.alpha, params.beta, params.theta
    ab = al + be
    u1, u2 = (al * z.z1 + be * z.z2) / ab, (z.z1 - z.z2) / ab
    v1, v2 = (al * w.z1 + be * w.z2) / ab, (w.z1 - w.z2) / ab
    delta = al * be * ab
    first = ab * cmath.exp(ab * u1 * v1.conjugate())
    second = delta ** (th + 1.0) * _e_theta(th, delta * u2 * v2.conjugate())
    return first * second / ab ** (2.0 * th + 2.0)


def suite_fock(seed: int = 0) -> dict:
    items = []
    rng = np.random.default_rng(seed)
    count = 0
    for th in (0.0, 0.5, 1.0, 2.5):
        p = fock.FockParams(1.3, 0.7, th)
        for _ in range(13):
            if count >= 50:
                break
            count += 1
            pts = rng.uniform(-2, 2, 8)
            z = Point2(complex(pts[0], pts[1]), complex(pts[2], pts[3]))
            w = Point2(complex(pts[4], pts[5]), complex(pts[6], pts[7]))
            items.append(_item(
                f"kernel theta={th} point {count}",
                fock.fock_full_kernel(p, z, w).value,
                _fock_reference(p, z, w), 1e-9))
    for th in (0, 1, 2):
        p = fock.FockParams(1.0, 2.0, float(th))
        g = oracle.gram_fock_exact(1.0, 2.0, float(th), 6)
        for i in range(5):
            f = _random_poly(rng, 6)
            items.append(_item(f"norm theta={th} poly {i}",
                               fock.fock_norm_expansion(p, f).total,
                               g.norm_sq(f), 1e-10))
    return _report("fock", seed, items)


# -- criterion 9 ------------------------------------------------------------

def suite_structural(seed: int = 0) -> dict:
    """Hermitian symmetry and positive semidefiniteness of kernel matrices."""
    rng = np.random.default_rng(seed)
    items = []
    for draw in range(10):
        space = ("bidisk", "ball", "fock")[draw % 3]
        if space == "bidisk":
            p = bidisk.BidiskParams(rng.uniform(-0.5, 2), rng.uniform(-0.5, 2),
                                    rng.uniform(0, 2), rng.uniform(0, 1))
            pts = [Point2(_rand_point(rng, 0.55), _rand_point(rng, 0.55))
                   for _ in range(10)]
        elif space == "ball":
            p = ball.BallParams(rng.uniform(-0.5, 2), rng.uniform(-0.5, 2),
                                rng.uniform(-0.5, 2))
            pts = [Point2(_rand_point(rng, 0.45), _rand_point(rng, 0.45))
                   for _ in range(10)]
            kernel = ball.ball_full_kernel
        else:
            p = fock.FockParams(rng.uniform(0.5, 2), rng.uniform(0.5, 2),
                                rng.uniform(-0.5, 2.5))
            pts = [Point2(complex(*rng.uniform(-1.5, 1.5, 2)),
                          complex(*rng.uniform(-1.5, 1.5, 2)))
                   for _ in range(10)]
            kernel = fock.fock_full_kernel
        # row i holds K(pts[i], pts[j]) for j = 0, 1, ...
        pairs = [(z, w) for z in pts for w in pts]
        if space == "bidisk":
            results = bidisk.full_kernels(p, pairs)
        else:
            results = [kernel(p, z, w) for z, w in pairs]
        mat = np.array([r.value for r in results],
                       dtype=complex).reshape(len(pts), len(pts))
        scale = np.max(np.abs(mat))
        herm = np.max(np.abs(mat - mat.conj().T)) / scale
        eigs = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
        psd_margin = eigs.min() / eigs.max()
        items.append(_item(f"hermitian {space} draw {draw}", herm, 0.0,
                           1e-10, scale=1.0))
        items.append({
            "item": f"psd {space} draw {draw}",
            "value": [psd_margin, 0.0], "oracle": [0.0, 0.0],
            "abs_err": max(0.0, -psd_margin), "rel_err": max(0.0, -psd_margin),
            "tol": 1e-8,
            "passed": bool(psd_margin >= -1e-8),
        })
    return _report("structural", seed, items)


# -- criterion 10 -----------------------------------------------------------

def suite_delta_identities(seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    items = []
    for draw in range(5):
        al, be = rng.uniform(-0.5, 2, 2)
        th, vt = rng.uniform(0, 2, 2)
        p = bidisk.BidiskParams(al, be, th, vt)
        worst = 0.0
        for N in range(1, 11):
            # n = N too: that sum is a_{N,N} N! = 1, which fixes coeff_a's scale
            for n in range(N + 1):
                total = sum(
                    bidisk.coeff_a(p, k, N) * math.factorial(n) * math.comb(k, n)
                    * pochhammer(al + th + vt + n + 2.0, k - n)
                    / pochhammer(al + be + 2 * th + 2 * vt + 2 * n + 4.0, k - n)
                    for k in range(n, N + 1))
                worst = max(worst, abs(total - (n == N)))
        items.append(_item(f"bidisk delta draw {draw}", worst, 0.0, 1e-10,
                           scale=1.0))
    for draw in range(5):
        al, be = rng.uniform(0.5, 2.5, 2)
        p = fock.FockParams(al, be, 0.0)
        ratio = al / (al + be)
        worst = 0.0
        for N in range(1, 11):
            # n = N too: that sum is c_{N,N} = 1, which fixes coeff_c's scale
            for n in range(N + 1):
                total = sum(
                    fock.coeff_c(p, k, N) / math.factorial(N)
                    * math.factorial(n) * math.comb(k, n) * ratio ** (k - n)
                    for k in range(n, N + 1))
                worst = max(worst, abs(total - (n == N)))
        items.append(_item(f"fock delta draw {draw}", worst, 0.0, 1e-10,
                           scale=1.0))
    return _report("delta-identities", seed, items)


SUITES = {
    "sigma-consistency": suite_sigma_consistency,
    "sigma-integral": suite_sigma_integral,
    "taylor-blocks": suite_taylor_blocks,
    "product-kernel": suite_product_kernel,
    "bidisk-norm": suite_bidisk_norm,
    "hardy": suite_hardy,
    "ball": suite_ball,
    "fock": suite_fock,
    "structural": suite_structural,
    "delta-identities": suite_delta_identities,
}


def run_suite(name: str, seed: int = 0) -> dict:
    if seed < 0:
        raise DomainError(f"verify seed must be non-negative, got {seed}")
    if name == "all":
        reports = [fn(seed) for fn in SUITES.values()]
        return {
            "suite": "all",
            "seed": seed,
            "passed": bool(all(r["passed"] for r in reports)),
            "reports": reports,
        }
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](seed)
