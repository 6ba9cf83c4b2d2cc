import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from kernelforge import oracle, verify
from kernelforge.ball import BallParams, ball_full_kernel
from kernelforge.bidisk import (BidiskParams, full_kernels,
                                restriction_transform, sigma)
from kernelforge.config import Point2
from kernelforge.errors import ConditioningError, DomainError, QuadratureError
from kernelforge.fock import (FockParams, fock_full_kernel,
                              fock_restriction_transform, fock_sigma)
from kernelforge.poly2 import BiPoly


def test_disk_and_fock_moments():
    assert oracle.disk_moment(0.0, 0) == pytest.approx(1.0)
    assert oracle.disk_moment(0.0, 1) == pytest.approx(0.5)
    assert oracle.fock_moment(1.0, 3) == pytest.approx(6.0)
    assert oracle.fock_moment(2.0, 1) == pytest.approx(0.25)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, -0.5, 2.5, 7.25, -0.75])
def test_disk_moment_within_rounding_of_exact(alpha):
    # p!/(alpha+2)_p in exact rationals: the running product uses at most
    # 0.4 of this bound here, the log-Gamma form up to 12.7 times it
    exact = Fraction(1)
    for p in range(60):
        got = Fraction(oracle.disk_moment(alpha, p))
        assert abs(got - exact) <= Fraction(p + 1, 2 ** 53) * exact
        exact *= (p + 1) / (Fraction(alpha) + 2 + p)


@pytest.mark.parametrize("be,th", [(0.0, 0.0), (0.5, 0.25), (-0.5, 1.25),
                                   (3.0, -0.75), (1.125, 2.5)])
def test_ball_hardy_monomial_norm_within_rounding_of_exact(be, th):
    # m!/(y)_(m+1), y = n + theta + beta + 1, in exact rationals: the
    # running product uses at most 0.56 of this bound here, the log-Gamma
    # form up to 17.8 times it
    for n in (0, 1, 7):
        y = n + Fraction(th) + Fraction(be) + 1
        exact = 1 / y
        for m in range(130):
            got = Fraction(oracle.ball_hardy_monomial_norm(be, th, m, n))
            assert abs(got - exact) <= Fraction(m + 2, 2 ** 53) * exact
            exact *= (m + 1) / (y + m + 1)


def test_bidisk_theta_zero_diagonal():
    g = oracle.gram_bidisk_exact(0.5, 1.0, 0.0, 4)
    for d in range(5):
        blk = g.blocks[d]
        assert np.allclose(blk, np.diag(np.diag(blk)))
        for m in range(d + 1):
            expect = oracle.disk_moment(0.5, m) * oracle.disk_moment(1.0, d - m)
            assert blk[m, m] == pytest.approx(expect, rel=1e-14)


def test_bidisk_theta_one_entries():
    g = oracle.gram_bidisk_exact(0.0, 0.0, 1.0, 2)
    assert g.blocks[0][0, 0] == pytest.approx(1.0)        # total weight mass
    assert g.blocks[1][0, 1] == pytest.approx(-0.25)      # <z1, z2>


def test_exact_grams_need_integer_theta():
    with pytest.raises(DomainError):
        oracle.gram_bidisk_exact(0.0, 0.0, 0.5, 2)


@pytest.mark.parametrize("th", [-0.5, 0.5, 1.5, 2.5])
def test_fock_exact_blocks_at_fractional_theta(th):
    # the weight separates in u = z1 - z2 and v = (alpha z1 + beta z2)/gamma
    # at every theta, so the Gaussian space has exact blocks here too
    g = oracle.gram_fock_exact(1.3, 0.7, th, 4)
    assert g.params["theta"] == th
    want = 1.0 / fock_sigma(FockParams(1.3, 0.7, th))
    assert abs(g.blocks[0][0, 0] - want) <= 1e-14 * want


def test_fock_exact_values():
    g = oracle.gram_fock_exact(1.0, 1.0, 0.0, 3)
    for d in range(4):
        for m in range(d + 1):
            assert g.blocks[d][m, m] == pytest.approx(
                math.factorial(m) * math.factorial(d - m))
    g1 = oracle.gram_fock_exact(1.0, 1.0, 1.0, 0)
    assert g1.blocks[0][0, 0] == pytest.approx(2.0)


def test_hardy_torus_values():
    g0 = oracle.gram_hardy_torus_exact(0.0, 2)
    assert g0.norm_sq(BiPoly.parse("z1-z2")) == pytest.approx(2.0)
    g1 = oracle.gram_hardy_torus_exact(1.0, 3)
    assert g1.norm_sq(BiPoly.parse("z1*z2")) == pytest.approx(2.0)


def _binomial_block(th, d, moment):
    """Block d of the Gram matrix for weight |z1-z2|^(2 th) against the
    product moments moment(p) moment(q), in exact rationals: entry (m1, m2)
    pairs z1^m1 z2^(d-m1) (z1-z2)^th with z1^m2 z2^(d-m2) (z1-z2)^th term
    by term, c[i] being the coefficient of z1^i z2^(th-i) in (z1-z2)^th."""
    c = [(-1) ** (th - i) * math.comb(th, i) for i in range(th + 1)]
    return [[sum(c[i] * c[j] * moment(m1 + i) * moment(d - m1 + th - i)
                 for i in range(th + 1) for j in range(th + 1)
                 if m1 + i == m2 + j)
             for m2 in range(d + 1)] for m1 in range(d + 1)]


# disk_moment(0, p) is 1/(p+1) only up to the rounding of its running product,
# so the reference takes the double the builder uses exactly: the test checks
# how the blocks are assembled from the moments, within 4 ulp
@pytest.mark.parametrize("build,moment", [
    (lambda th, d: oracle.gram_bidisk_exact(0.0, 0.0, th, d),
     lambda p: Fraction(oracle.disk_moment(0.0, p))),
    (oracle.gram_hardy_torus_exact, lambda p: Fraction(1)),
], ids=["bidisk", "torus"])
@pytest.mark.parametrize("th", range(4))
def test_exact_blocks_match_rational_binomial_sums(build, moment, th):
    for d, block in enumerate(build(th, 8).blocks):
        ref = np.array(_binomial_block(th, d, moment), dtype=float)
        assert np.array_equal(block, block.T)
        assert np.max(np.abs(block - ref)) <= 4 * np.spacing(np.max(np.abs(ref)))


@pytest.mark.parametrize("th", range(4))
def test_binomial_blocks_equal_convolution_assembly(th):
    # the reference builds column m of B as e_m convolved with the
    # coefficients of (z1 - z2)^th, one np.convolve per column
    mom = [oracle.disk_moment(0.5, p) for p in range(12 + th + 1)]
    u = np.array([(-1.0) ** (th - i) * math.comb(th, i)
                  for i in range(th + 1)])
    for d, block in enumerate(oracle.gram_bidisk_exact(0.5, 0.5, th,
                                                       12).blocks):
        b = np.array([np.convolve(mono, u) for mono in np.eye(d + 1)]).T
        g = b.T @ ((np.array(mom[:d + th + 1]) * mom[d + th::-1])[:, None]
                   * b)
        assert np.array_equal(block, 0.5 * (g + g.T))


@pytest.mark.parametrize("al,be,th", [(0.0, 0.0, 0.0), (0.5, 1.0, 0.25),
                                      (1.5, -0.5, 2.0), (-0.9, 3.0, 0.7)])
def test_ball_monomial_norms_equal_single_entries(al, be, th):
    for d, block in enumerate(oracle.ball_monomial_norms(al, be, th,
                                                         12).blocks):
        want = [oracle.ball_monomial_norm(al, be, th, m, d - m)
                for m in range(d + 1)]
        assert np.array_equal(block, np.diag(want))


def test_norm_sq_equals_inner_product():
    rng = np.random.default_rng(4)
    for g in (oracle.gram_bidisk_exact(0.3, 0.9, 2.0, 6),
              oracle.ball_monomial_norms(0.5, 1.0, 0.25, 6),
              oracle.gram_fock_exact(1.5, 0.5, 1.0, 6)):
        for _ in range(5):
            f = BiPoly({(m, d - m): complex(*rng.standard_normal(2))
                        for d in range(7) for m in range(d + 1)
                        if rng.random() < 0.5})
            # a copy of f is laid out as a second polynomial of the stack
            assert g.norm_sq(f) == g.inner_product(f, BiPoly(f.coeffs)).real
    with pytest.raises(DomainError):
        g.norm_sq(BiPoly.parse("z1^7"))


def _random_poly(rng, degrees):
    return BiPoly({(m, d - m): complex(*rng.standard_normal(2))
                   for d in degrees for m in range(d + 1)
                   if rng.random() < 0.6})


@pytest.mark.parametrize("gram", [
    oracle.gram_bidisk_exact(0.3, 0.9, 2.0, 7),
    oracle.ball_monomial_norms(0.5, 1.0, 0.25, 7),
    oracle.gram_fock_exact(1.5, 0.5, 0.5, 7)], ids=["bidisk", "ball", "fock"])
def test_inner_product_is_hermitian_and_pairs_degrees(gram):
    rng = np.random.default_rng(27)
    zero = BiPoly()
    for _ in range(10):
        f, g = (_random_poly(rng, range(int(rng.integers(0, 8))))
                for _ in range(2))
        fg, gf = gram.inner_product(f, g), gram.inner_product(g, f)
        scale = math.sqrt(gram.norm_sq(f) * gram.norm_sq(g))
        assert abs(fg - gf.conjugate()) <= 1e-13 * scale
        assert gram.inner_product(f, zero) == 0
        assert gram.inner_product(zero, f) == 0
        # no degree in common: every block pairs f's coefficients with zeros
        even = _random_poly(rng, range(0, 8, 2))
        odd = _random_poly(rng, range(1, 8, 2))
        assert gram.inner_product(even, odd) == 0
        assert gram.inner_product(odd, even) == 0
    assert gram.inner_product(zero, zero) == 0


def test_ball_monomial_norms():
    assert oracle.ball_monomial_norm(0, 0, 0, 0, 0) == pytest.approx(0.5)
    assert oracle.ball_monomial_norm(0, 0, 0, 0, 1) == pytest.approx(1 / 6)
    g = oracle.ball_monomial_norms(0.5, 1.0, 0.25, 3)
    assert np.allclose(g.blocks[2], np.diag(np.diag(g.blocks[2])))


def test_blocks_hermitian_positive():
    for g in (oracle.gram_bidisk_exact(0.3, 0.9, 2.0, 6),
              oracle.gram_fock_exact(1.5, 0.5, 1.0, 6)):
        for blk in g.blocks:
            assert np.max(np.abs(blk - blk.T)) < 1e-14 * max(np.max(np.abs(blk)), 1)
            assert np.linalg.eigvalsh(blk).min() > 0


def test_gram_numeric_matches_exact_bidisk():
    ge = oracle.gram_bidisk_exact(0.4, 0.7, 1.0, 3)
    gn = oracle.gram_numeric(BidiskParams(0.4, 0.7, 1.0), 3)
    assert ge.exact and not gn.exact and gn.quad_error is not None
    for a, b in zip(gn.blocks, ge.blocks):
        assert np.max(np.abs(a - b)) < 1e-8


@pytest.mark.parametrize("al,be", [(1.0, 1.0), (1.3, 0.7), (1.0, 100.0),
                                   (0.2, 3.5), (5.0, 0.5)])
def test_fock_exact_blocks_match_binomial_assembly(al, be):
    # at integer theta the (u, v) blocks agree with the binomial assembly
    # through (z1 - z2)^theta and the theta = 0 product moments
    for th in range(4):
        ref = oracle._binomial_gram_blocks(
            th, *(np.array([oracle.fock_moment(g, p) for p in range(13 + th)])
                  for g in (al, be)))
        for block, want in zip(oracle.gram_fock_exact(al, be, th, 12).blocks,
                               ref):
            assert np.array_equal(block, block.T)
            assert np.max(np.abs(block - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("th", [0.5, 1.5])
def test_fock_exact_kernel_matches_reference_at_fractional_theta(th):
    # the quadrature raised QuadratureError at these theta; the inverted
    # exact blocks give the kernel of verify's separated-coordinates form
    p = FockParams(1.3, 0.7, th)
    kb = oracle.gram_kernel_blocks(oracle.gram_fock_exact(1.3, 0.7, th, 30))
    rng = np.random.default_rng(8)
    for _ in range(6):
        x = rng.uniform(-0.35, 0.35, 8)
        z = Point2(complex(x[0], x[1]), complex(x[2], x[3]))
        w = Point2(complex(x[4], x[5]), complex(x[6], x[7]))
        want = verify._fock_reference(p, z, w)
        got = oracle.kernel_from_blocks(kb, z.z1, z.z2, w.z1, w.z2)
        assert abs(got - want) <= 1e-12 * abs(want)


# (Gram table to degree 16, library kernels over a list of pairs, largest
# real and imaginary part of the points' coordinates)
_REMAINDER_CASES = {
    "ball": (lambda: oracle.ball_monomial_norms(0.5, 1.0, 0.25, 16),
             lambda pairs: [ball_full_kernel(BallParams(0.5, 1.0, 0.25), z, w)
                            for z, w in pairs], 0.45),
    **{f"fock-theta={th}": (
        lambda th=th: oracle.gram_fock_exact(1.3, 0.7, th, 16),
        lambda pairs, th=th: [fock_full_kernel(FockParams(1.3, 0.7, th), z, w)
                              for z, w in pairs], 0.6)
       for th in (-0.5, 0.5, 1.0, 2.5)},
    **{f"bidisk-theta={th}": (
        lambda th=th: oracle.gram_bidisk_exact(1.0, 0.5, th, 16),
        lambda pairs, th=th: full_kernels(BidiskParams(1.0, 0.5, th), pairs),
        0.5) for th in (0, 1, 2)},
}


@pytest.mark.parametrize("case", sorted(_REMAINDER_CASES))
def test_kernel_remainders_bound_the_truncation(case):
    # r[D] against |K - K_D|, K_D the inverted Gram blocks' Taylor sum to
    # degree D and K the library kernel, up to a rounding floor
    gram, kernels, radius = _REMAINDER_CASES[case]
    g = gram()
    blocks = oracle.gram_kernel_blocks(g)
    rng = np.random.default_rng(11)
    pairs = [(Point2(*x[:2]), Point2(*x[2:]))
             for x in rng.uniform(-radius, radius, (8, 4, 2)) @ [1, 1j]]
    for (z, w), res in zip(pairs, kernels(pairs)):
        r = oracle.kernel_remainders(g, z.z1, z.z2, w.z1, w.z2, 16)
        for D in (4, 8, 12, 16):
            k_d = oracle.kernel_from_blocks(blocks[:D + 1], z.z1, z.z2,
                                            w.z1, w.z2)
            assert abs(res.value - k_d) <= r[D] + 1e-13 * abs(res.value)


def test_kernel_remainders_do_not_follow_rounding():
    # near z = w = (0.7, 0.7) on the ball the terms b_d have a flat peak
    # past degree 80; where the continuation started at the first b_{d+1} <
    # b_d, r[80] over these points ran from 6.79e6 to 2.41e16
    g = oracle.ball_monomial_norms(0.0, 0.0, 0.0, 80)
    rng = np.random.default_rng(0)
    points = 0.7 + 1e-12 * rng.uniform(-1, 1, (200, 4))
    tails = [oracle.kernel_remainders(g, *p, 80)[80] for p in points]
    assert max(tails) - min(tails) <= 1e-6 * min(tails)


def test_kernel_remainders_refuse_tables_without_a_bound():
    for g in (oracle.gram_hardy_torus_exact(1.0, 2),
              oracle.GramBlocks("bidisk", {"alpha": 0.4, "beta": 0.7,
                                           "theta": 0.5, "vartheta": 0.0},
                                quad_error=1e-12)):
        with pytest.raises(DomainError, match="no Taylor remainder bound"):
            oracle.kernel_remainders(g, 0.1, 0.2, 0.1, 0.2, 4)


@pytest.mark.parametrize("a", [-0.9, -0.5, 0.0, 0.3, 2.5, 7.3])
@pytest.mark.parametrize("n", [32, 64, 128, 256, 512, 1024])
def test_gauss_jacobi_moments_against_mpmath(a, n):
    # int (1-x)^a ((1+x)/2)^k dx = 2^(a+1) B(a+1, k+1); scipy's roots_jacobi
    # missed these by up to 1.4e-9 at n = 512 and 2.8e-8 at n = 1024
    x, w = oracle.gauss_jacobi(a, n)
    for k in sorted({0, 1, 5, 17, 60, min(2 * n - 1, 400)}):
        with mpmath.workdps(40):
            ref = float(2 ** mpmath.mpf(a + 1) * mpmath.beta(a + 1, k + 1))
        assert abs(w @ ((1.0 + x) / 2.0) ** k - ref) <= 1e-11 * ref, k


@pytest.mark.parametrize("a,n", [(-1.0, 8), (math.nan, 8), (math.inf, 8),
                                 (0.5, 0)])
def test_gauss_jacobi_refuses_a_weight_that_is_not_integrable(a, n):
    with pytest.raises(DomainError):
        oracle.gauss_jacobi(a, n)


def test_gram_numeric_matches_exact_bidisk_at_a_singular_weight():
    # the radial rule of (1 - r^2)^-0.9: 2.4e-12 of a block's scale with
    # scipy's Gauss-Jacobi nodes, 8.6e-14 with gauss_jacobi
    gn = oracle.gram_numeric(BidiskParams(-0.9, 0.2, 1.0), 6)
    for a, b in zip(gn.blocks, oracle.gram_bidisk_exact(-0.9, 0.2, 1.0,
                                                       6).blocks):
        assert np.max(np.abs(a - b)) <= 2e-13 * max(np.max(np.abs(b)), 1.0)


def test_gram_numeric_checks_each_block_on_its_own_scale(monkeypatch):
    # block 0 holds a stable 1e4 and block 1 entries near 1 that change by
    # 1e-8 per doubling: against the largest entry of the whole table the
    # changes look like 1e-12 and the call would return; against block 1's
    # own scale they are 1e-8 and it must not
    def blocks(params, n, max_degree):
        return [np.array([[1e4]]),
                np.full((2, 2), 1.0 + 1e-8 * math.log2(n))]
    monkeypatch.setattr(oracle, "_blocks_at_order", blocks)
    assert 1e-8 / 1e4 <= oracle.QUAD_TOLERANCE < 1e-8
    with pytest.raises(QuadratureError, match="against its block's scale"):
        oracle.gram_numeric(BidiskParams(0.4, 0.7, 1.0), 1)


def test_gram_numeric_fractional_theta_bidisk():
    p = BidiskParams(0.4, 0.7, 1.5, 0.5)
    gn = oracle.gram_numeric(p, 6)
    want = 1.0 / sigma(p)
    assert abs(gn.blocks[0][0, 0] - want) <= 1e-10 * want


def test_gram_numeric_non_finite_rule_is_named(monkeypatch):
    # a rule with NaN weights at order 128 and above: the call names the
    # order at once rather than run the quadrature and report a change of nan
    radial = oracle._radial_rule

    def nan_radial(a, n):
        t, w = radial(a, n)
        return t, w * math.nan if n >= 128 and a == 0.4 else w
    monkeypatch.setattr(oracle, "_radial_rule", nan_radial)
    with pytest.raises(QuadratureError, match="order 128") as info:
        oracle.gram_numeric(BidiskParams(0.4, 0.7, 0.5), 0)
    assert "nan" not in str(info.value)


def test_angular_reduce_equal_radii_negative_theta():
    # t1 == t2 and the graded node nearest 0 has cos(psi) == 1.0: the weight
    # |z1 - z2|^(2 theta) was 0 ** -0.5 = inf there
    t = np.array([0.25, 0.5])
    psi, wpsi = oracle._angular_nodes(32, True)
    assert math.cos(psi[0]) == 1.0
    cang = oracle._angular_reduce(t, t, psi, wpsi, 2, -0.5, 0.0)
    assert np.isfinite(cang).all()


def _weight_monomials(theta: int, vartheta: int) -> dict:
    """{(a1, a2, b1, b2): c}: (z1-z2)^theta (conj(z1)-conj(z2))^theta
    (1-z1 conj(z2))^vartheta (1-conj(z1) z2)^vartheta as the sum of the
    monomials c z1^a1 z2^a2 conj(z1)^b1 conj(z2)^b2."""
    factors = ([{(1, 0, 0, 0): 1, (0, 1, 0, 0): -1},
                {(0, 0, 1, 0): 1, (0, 0, 0, 1): -1}] * theta
               + [{(0, 0, 0, 0): 1, (1, 0, 0, 1): -1},
                  {(0, 0, 0, 0): 1, (0, 1, 1, 0): -1}] * vartheta)
    poly = {(0, 0, 0, 0): 1}
    for factor in factors:
        prod = {}
        for e, c in poly.items():
            for f, k in factor.items():
                key = tuple(x + y for x, y in zip(e, f))
                prod[key] = prod.get(key, 0) + c * k
        poly = prod
    return poly


@pytest.mark.parametrize("al,be,th,vt", [(0.4, 0.7, 1, 1), (0.3, 0.6, 0, 2),
                                         (1.0, 0.5, 2, 1)])
def test_gram_numeric_matches_exact_vartheta_weight(al, be, th, vt):
    # at integer (theta, vartheta) the weight is a polynomial in z and
    # conj(z), so each Gram entry is a finite sum of products of disk moments
    gn = oracle.gram_numeric(BidiskParams(al, be, th, vt), 4)
    weight = _weight_monomials(th, vt)
    for d, block in enumerate(gn.blocks):
        want = np.zeros((d + 1, d + 1))
        for m1 in range(d + 1):
            for m2 in range(d + 1):
                for (a1, a2, b1, b2), c in weight.items():
                    if m1 + a1 == m2 + b1 and a2 - m1 == b2 - m2:
                        want[m1, m2] += (c * oracle.disk_moment(al, m1 + a1)
                                         * oracle.disk_moment(be, d - m1 + a2))
        scale = max(np.max(np.abs(want)), 1.0)
        assert np.max(np.abs(block - want)) <= 1e-12 * scale, d


def test_angular_reduce_does_not_depend_on_the_chunk_split(monkeypatch):
    (t1, _), (t2, _) = oracle._radial_rule(0.4, 32), oracle._radial_rule(0.7, 32)
    psi, wpsi = oracle._angular_nodes(64, False)
    want = oracle._angular_reduce(t1, t2, psi, wpsi, 6, 0.75, 1.3)
    monkeypatch.setattr(oracle, "_REDUCE_CHUNK", 1)
    got = oracle._angular_reduce(t1, t2, psi, wpsi, 6, 0.75, 1.3)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_angular_reduce_memory_does_not_grow_with_order_squared():
    # the integrand over all n^2 radial pairs and 2n angles held 133 MB at
    # order 256; formed in blocks, only the n^2 (max_delta + 1) result and
    # the n^2 radial tables remain
    (t1, _), (t2, _) = (oracle._radial_rule(a, 256) for a in (0.4, 0.7))
    psi, wpsi = oracle._angular_nodes(512, False)
    tracemalloc.start()
    try:
        oracle._angular_reduce(t1, t2, psi, wpsi, 6, 0.75, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak


def test_quadrature_rules_are_cached_read_only():
    for rule, args in ((oracle._radial_rule, (0.4, 64)),
                       (oracle._angular_nodes, (128, False)),
                       (oracle.gauss_jacobi, (0.4, 64))):
        first, again = rule(*args), rule(*args)
        for x, y in zip(first, again):
            assert x is y
            with pytest.raises(ValueError, match="read-only"):
                x[0] = 0.0


def test_angular_rules_are_built_once_per_order_and_grading(monkeypatch):
    # the angular nodes depend on theta only through theta < 0, so a second
    # positive theta reuses every rule the first one built: one per order
    nodes, orders = oracle._angular_nodes, set()

    def recording(n, graded):
        orders.add(n)
        return nodes(n, graded)
    monkeypatch.setattr(oracle, "_angular_nodes", recording)
    nodes.cache_clear()
    oracle.gram_numeric(BidiskParams(0.3, 0.6, 1.0, 0.5), 0)
    oracle.gram_numeric(BidiskParams(0.3, 0.6, 1.5, 0.5), 0)
    assert nodes.cache_info().misses == len(orders)


def test_kernel_blocks_product_case():
    kb = oracle.gram_kernel_blocks(oracle.gram_bidisk_exact(0.0, 0.5, 0.0, 4))
    for d, blk in enumerate(kb):
        for m in range(d + 1):
            expect = 1.0 / (oracle.disk_moment(0.0, m)
                            * oracle.disk_moment(0.5, d - m))
            assert blk[m, m] == pytest.approx(expect, rel=1e-12)


def test_kernel_blocks_reject_ill_conditioned():
    g = oracle.gram_bidisk_exact(0.0, 0.0, 0.0, 1)
    g.blocks[1][:] = [[1.0, 1.0], [1.0, 1.0 + 1e-15]]
    with pytest.raises(ConditioningError):
        oracle.gram_kernel_blocks(g)


def test_kernel_blocks_accept_badly_scaled():
    # the monomial norms of this block spread over 1e14, but scaled to a
    # unit diagonal it is well conditioned and inverts accurately
    g = oracle.gram_fock_exact(1.0, 2.0, 1.0, 30)
    assert np.linalg.cond(g.blocks[30]) > oracle.COND_LIMIT
    for k, b in zip(oracle.gram_kernel_blocks(g), g.blocks):
        assert np.max(np.abs(k @ b - np.eye(len(b)))) < 1e-12


def test_reproducing_property_via_gram_pairing():
    # <f, K(., w)> = f(w) when paired through the same Gram blocks
    g = oracle.gram_bidisk_exact(0.0, 0.0, 1.0, 6)
    kb = oracle.gram_kernel_blocks(g)
    f = BiPoly.parse("z1^2*z2 - 3*z1 + (0,1)*z2^2")
    w1, w2 = 0.3 - 0.2j, 0.1 + 0.4j
    section = oracle.kernel_section(kb, w1, w2)
    assert abs(g.inner_product(f, section) - f.evaluate(w1, w2)) < 1e-9


def test_project_basic():
    g = oracle.gram_bidisk_exact(0.0, 0.0, 0.0, 4)
    f = BiPoly.parse("z1")
    p1, q1 = oracle.project(g, f, 1)
    # P_1[z1] = (1/2)(z1 - z2)
    assert p1.coeffs[(1, 0)] == pytest.approx(0.5)
    assert p1.coeffs[(0, 1)] == pytest.approx(-0.5)
    # member of the subspace projects to itself
    h = BiPoly.parse("z1^2 - z2^2")
    ph, _ = oracle.project(g, h, 1)
    assert (ph - h).max_abs_coeff() < 1e-12


def test_project_residual_orthogonality():
    rng = np.random.default_rng(0)
    g = oracle.gram_bidisk_exact(0.5, 0.0, 1.0, 5)
    f = BiPoly({(m, n): complex(*rng.standard_normal(2))
                for m in range(3) for n in range(3)})
    for N in range(1, 4):
        pN, _ = oracle.project(g, f, N)
        d = BiPoly.parse("z1-z2")
        basis_elt = d
        for _ in range(N - 1):
            basis_elt = basis_elt * d
        for extra in (BiPoly.parse("1"), BiPoly.parse("z1"), BiPoly.parse("z2^2")):
            gvec = basis_elt * extra
            assert abs(g.inner_product(f - pN, gvec)) < 1e-10


def test_project_qn_norms_sum_to_total():
    g = oracle.gram_fock_exact(1.0, 2.0, 1.0, 5)
    f = BiPoly.parse("z1^2*z2 + z2 - 2")
    total = sum(g.norm_sq(oracle.project(g, f, N)[1])
                for N in range(f.total_degree + 1))
    assert total == pytest.approx(g.norm_sq(f), rel=1e-12)


@pytest.mark.parametrize("space,al,be,th", [
    ("bidisk", 0.5, 1.0, 1), ("bidisk", 0.0, 2.0, 0), ("fock", 1.0, 2.0, 1)])
def test_restriction_transforms_match_projection_at_every_order(space, al, be,
                                                                th):
    # the paper's definition: project onto the functions vanishing to order
    # N along z1 = z2, divide by (z1 - z2)^N and restrict to the diagonal
    if space == "bidisk":
        g = oracle.gram_bidisk_exact(al, be, th, 5)
        params, transform = BidiskParams(al, be, th, 0.0), restriction_transform
    else:
        g = oracle.gram_fock_exact(al, be, th, 5)
        params, transform = FockParams(al, be, th), fock_restriction_transform
    rng = np.random.default_rng(31)
    for _ in range(20):
        degree = int(rng.integers(1, 6))
        f = BiPoly({(m, d - m): complex(*rng.standard_normal(2))
                    for d in range(degree + 1) for m in range(d + 1)})
        for N in range(degree + 1):
            ref = oracle.project(g, f, N)[0].divide_diag_power(N)
            ref = ref.restrict_diagonal().coeffs
            got = transform(params, f, N).coeffs
            for key in set(ref) | set(got):
                assert abs(got.get(key, 0) - ref.get(key, 0)) <= \
                    1e-10 * f.max_abs_coeff()


def test_projection_rejects_ill_conditioned():
    # the block of test_kernel_blocks_reject_ill_conditioned: z1 - z2 has
    # norm 1e-15 against monomials of norm 1
    g = oracle.gram_bidisk_exact(0.0, 0.0, 0.0, 1)
    g.blocks[1][:] = [[1.0, 1.0], [1.0, 1.0 + 1e-15]]
    f = BiPoly.parse("z1 + 2*z2")
    with pytest.raises(ConditioningError):
        oracle.project(g, f, 1)
    with pytest.raises(ConditioningError):
        oracle.order_parts(g, f)


def _middle_degree_gram(block2):
    """The theta = 0 bidisk Gram table up to degree 3 with block 2
    replaced."""
    g = oracle.gram_bidisk_exact(0.0, 0.0, 0.0, 3)
    g.blocks[2] = block2
    return g


_DEGREES_0_TO_3 = BiPoly.parse("1 + z1 + z2^2 + z1*z2 + z1^3")


def test_gram_check_names_a_middle_degree():
    # (z1 - z2)^2 has norm about 1e-8 against monomials of norm 1
    u2 = np.array([1.0, -2.0, 1.0]) / math.sqrt(6.0)
    g = _middle_degree_gram(np.eye(3) - (1 - 1e-16) * np.outer(u2, u2))
    for fn in (oracle.order_parts, oracle.order_norms):
        with pytest.raises(ConditioningError, match="Gram block degree 2"):
            fn(g, _DEGREES_0_TO_3)


def test_projection_check_names_a_middle_degree():
    # q is a rotation rounded to two decimals: scaled, the block
    # q diag(1, 1e-9, 1e-10) q^T has condition number 3.5e9 and passes, but
    # its flag basis gives a normal matrix of condition number 3.1e12
    q = np.array([[-0.31, 0.34, 0.89], [0.27, -0.86, 0.43],
                  [0.91, 0.37, 0.18]])
    g = _middle_degree_gram(q @ np.diag([1.0, 1e-9, 1e-10]) @ q.T)
    for fn in (oracle.order_parts, oracle.order_norms):
        with pytest.raises(ConditioningError,
                           match="projection block degree 2 is not"):
            fn(g, _DEGREES_0_TO_3)


def test_non_positive_diagonal_is_named_without_a_warning():
    # the check scales by 1/sqrt of the diagonal, which an entry <= 0 must
    # not reach
    g = oracle.gram_bidisk_exact(0.0, 0.0, 0.0, 1)
    g.blocks[1] = np.diag([1.0, -1.0])
    with pytest.raises(ConditioningError, match="Gram block degree 1 is not"):
        oracle.order_norms(g, BiPoly.parse("z1 + 2*z2"))
    with pytest.raises(ConditioningError, match="Gram block degree 1 is not"):
        oracle.gram_kernel_blocks(g)
    # the first block that fails is named, whichever way it fails
    g = oracle.gram_bidisk_exact(0.0, 0.0, 0.0, 2)
    g.blocks[1] = np.array([[1.0, 1.0 - 1e-14], [1.0 - 1e-14, 1.0]])
    g.blocks[2] = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ConditioningError, match="Gram block degree 1 is not"):
        oracle.order_norms(g, BiPoly.parse("z1 + z1^2"))
    with pytest.raises(ConditioningError, match="Gram block degree 1 is not"):
        oracle.gram_kernel_blocks(g)


@pytest.mark.parametrize("block3", [
    np.diag([1.0, 1.0, 1.0, -1.0]),  # fails by its least eigenvalue
    np.zeros((4, 4)),  # its flag basis divides 0 by 0
    np.full((4, 4), np.nan),
    np.diag([1.0, math.inf, 1.0, 1.0]),
], ids=["indefinite", "zero", "nan", "inf"])
def test_gram_block_is_named_before_an_earlier_projection_block(block3):
    # block 2 is test_projection_check_names_a_middle_degree's: it passes
    # as a Gram block and fails as a projection block.  Gram and projection
    # blocks are checked in one pass, and a failing Gram block of any degree
    # is named before any projection block, with no warning on the way.
    q = np.array([[-0.31, 0.34, 0.89], [0.27, -0.86, 0.43],
                  [0.91, 0.37, 0.18]])
    g = _middle_degree_gram(q @ np.diag([1.0, 1e-9, 1e-10]) @ q.T)
    g.blocks[3] = block3
    for fn in (oracle.order_parts, oracle.order_norms):
        with pytest.raises(ConditioningError,
                           match="Gram block degree 3 is not"):
            fn(g, _DEGREES_0_TO_3)
    with pytest.raises(ConditioningError, match="Gram block degree 3 is not"):
        oracle.gram_kernel_blocks(g)


def test_failed_factorisation_names_its_block(monkeypatch):
    # the stacked Cholesky fails for the whole stack; with the checks off,
    # an indefinite block 2 must still be named
    monkeypatch.setattr(oracle, "_check_conditioning", lambda *args: None)
    g = _middle_degree_gram(np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(ConditioningError,
                       match="projection block degree 2: Cholesky"):
        oracle.order_norms(g, _DEGREES_0_TO_3)


_ORDER_QUERIES = {
    "order_norms": oracle.order_norms,
    "order_parts": oracle.order_parts,
    "project": lambda g, f: oracle.project(g, f, 1),
}


@pytest.mark.parametrize("query", sorted(_ORDER_QUERIES))
def test_later_order_queries_reuse_the_table_factors(monkeypatch, query):
    # the first query on a table factors every block; later ones, of any
    # degree, run no eigensolve or factorisation and answer as a fresh table
    run = _ORDER_QUERIES[query]
    f = BiPoly.parse("(1,2)*z1^3 - z1*z2^2 + (0.5,-1)*z2 - 3")
    g = oracle.gram_fock_exact(1.3, 0.7, 1.0, 5)
    oracle.order_norms(g, BiPoly.parse("z1^5 - (0,2)*z2^2"))
    calls = []
    for name in ("eigvalsh", "cholesky"):
        def spy(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    got = run(g, f)
    assert calls == []
    monkeypatch.undo()
    assert got == run(oracle.gram_fock_exact(1.3, 0.7, 1.0, 5), f)


@pytest.mark.parametrize("what", ["Gram", "projection"])
def test_a_failing_block_leaves_the_other_degrees_answered(what):
    # a query is checked on its own degrees only, before and after the
    # failing block has been named once
    q = np.array([[-0.31, 0.34, 0.89], [0.27, -0.86, 0.43],
                  [0.91, 0.37, 0.18]])
    u2 = np.array([1.0, -2.0, 1.0]) / math.sqrt(6.0)
    block2 = {"Gram": np.eye(3) - (1 - 1e-16) * np.outer(u2, u2),
              "projection": q @ np.diag([1.0, 1e-9, 1e-10]) @ q.T}[what]
    g = _middle_degree_gram(block2)
    f = BiPoly.parse("1 - (0,1)*z1 + z1*z2^2 - 2*z2^3")
    with pytest.raises(ConditioningError, match=f"{what} block degree 2"):
        oracle.order_norms(g, _DEGREES_0_TO_3)
    good = oracle.gram_bidisk_exact(0.0, 0.0, 0.0, 3)
    for fn in (oracle.order_norms, oracle.order_parts):
        assert fn(g, f) == fn(good, f)


def test_zero_polynomial_on_an_empty_table():
    g = oracle.gram_bidisk_exact(0.0, 0.0, 0.0, -1)
    assert oracle.order_norms(g, BiPoly()) == (0.0, [0.0])
    assert oracle.project(g, BiPoly(), 0) == (BiPoly(), BiPoly())


def test_blocks_edited_after_the_first_order_query_are_not_seen():
    g = oracle.gram_bidisk_exact(0.0, 0.0, 0.0, 1)
    f = BiPoly.parse("z1 + 2*z2")
    before = oracle.order_norms(g, f)
    g.blocks[1][:] = [[1.0, 1.0], [1.0, 1.0 + 1e-15]]
    assert oracle.order_norms(g, f) == before
    with pytest.raises(ConditioningError, match="Gram block degree 1"):
        oracle.gram_kernel_blocks(g)


_NORM_POLYS = {
    "zero": "0",
    "constant": "(2,-1)",
    "sparse": "(1,2)*z2^5 + 3*z1^2 - (0,1)*z1*z2^4 + 0.5",
    "top-only": "z1^3*z2^3 - 2*z1^6",
}


@pytest.mark.parametrize("space", ["bidisk", "ball", "fock"])
@pytest.mark.parametrize("th", [0, 1, 2])
@pytest.mark.parametrize("poly", sorted(_NORM_POLYS))
def test_order_norms_agree_with_norms_of_order_parts(space, th, poly):
    build = {"bidisk": oracle.gram_bidisk_exact,
             "ball": oracle.ball_monomial_norms,
             "fock": oracle.gram_fock_exact}[space]
    g = build(0.5, 1.5, float(th), 7)
    f = BiPoly.parse(_NORM_POLYS[poly])
    total, norms = oracle.order_norms(g, f)
    want = [g.norm_sq(p) for p in oracle.order_parts(g, f)]
    assert len(norms) == len(want) == max(f.total_degree, 0) + 1
    tol = 1e-13 * g.norm_sq(f)
    assert abs(total - g.norm_sq(f)) <= tol
    assert all(abs(a - b) <= tol for a, b in zip(norms, want))


def _mp_gram_block(d, theta, moment1, moment2):
    """The integer-theta Gram block of degree d in the current mpmath
    precision: |z1-z2|^(2 theta) expanded binomially against the radial
    moments moment_i(p) of each variable."""
    block = mpmath.matrix(d + 1, d + 1)
    for a in range(d + 1):
        for b in range(d + 1):
            for i in range(theta + 1):
                j = i + a - b
                if 0 <= j <= theta:
                    block[a, b] += ((-1) ** (i + j) * math.comb(theta, i)
                                    * math.comb(theta, j) * moment1(a + i)
                                    * moment2(d - a + theta - i))
    return block


def _mp_order_norms(block, f):
    """||Q_N f||^2, N = 0..deg f, from the per-order normal systems: in the
    Gram block block(d) of each degree d of f, P_o f is the least-squares fit
    of f by the columns (z1-z2)^o z1^j z2^(d-o-j), and
    ||Q_N f||^2 = ||P_N f||^2 - ||P_N+1 f||^2."""
    norms = [mpmath.mpf(0)] * (f.total_degree + 1)
    for d in sorted({m + n for m, n in f.coeffs}):
        g = block(d)
        gf = g * mpmath.matrix([f.coeffs.get((m, d - m), 0)
                                for m in range(d + 1)])
        p_sq = [mpmath.mpf(0)] * (d + 2)
        for o in range(d + 1):
            basis = mpmath.matrix(d + 1, d - o + 1)
            for j in range(d - o + 1):
                for i in range(o + 1):
                    basis[i + j, j] = math.comb(o, i) * (-1) ** (o - i)
            rhs = basis.T * gf
            sol = mpmath.lu_solve(basis.T * g * basis, rhs)
            p_sq[o] = mpmath.re(sum(r * mpmath.conj(x)
                                    for r, x in zip(rhs, sol)))
        for o in range(d + 1):
            norms[o] += p_sq[o] - p_sq[o + 1]
    return norms


@pytest.mark.parametrize("space,al,be,th,degree", [
    ("bidisk", 2.0, 0.0, 2, 10), ("bidisk", 0.0, 0.0, 0, 14),
    ("fock", 2.0, 0.5, 2, 10), ("fock", 0.5, 2.0, 0, 10)])
def test_order_parts_against_mpmath(space, al, be, th, degree):
    # the reference solves the per-order normal systems at 50 digits, so it
    # shares no step with the one factorisation per block of order_parts
    rng = np.random.default_rng(degree)
    f = BiPoly({(m, d - m): complex(*rng.standard_normal(2))
                for d in (0, 1, 2, 3, degree - 1, degree)
                for m in range(d + 1)})
    with mpmath.workdps(50):
        if space == "bidisk":
            g = oracle.gram_bidisk_exact(al, be, th, degree)

            def moments(a):
                return lambda p: mpmath.factorial(p) / mpmath.rf(a + 2, p)
        else:
            g = oracle.gram_fock_exact(al, be, th, degree)

            def moments(a):
                return lambda p: mpmath.factorial(p) / mpmath.mpf(a) ** (p + 1)
        ref = _mp_order_norms(
            lambda d: _mp_gram_block(d, th, moments(al), moments(be)), f)
        total = float(sum(ref))
    parts = oracle.order_parts(g, f)
    assert len(parts) == degree + 1
    for part, want in zip(parts, ref):
        assert abs(g.norm_sq(part) - float(want)) <= 1e-12 * total


_NAN = float("nan")
# builder calls with a NaN parameter; before each builder checked its
# parameters through the space's parameter class, some returned NaN blocks,
# some raised a bare ValueError from round(nan), and gram_numeric with a NaN
# vartheta ran its whole quadrature ladder before a QuadratureError
_NAN_BUILDS = {
    "fock-exact-alpha": lambda: oracle.gram_fock_exact(_NAN, 1, 0, 2),
    "fock-exact-theta": lambda: oracle.gram_fock_exact(1, 1, _NAN, 2),
    "bidisk-exact-alpha": lambda: oracle.gram_bidisk_exact(_NAN, 0, 1, 2),
    "bidisk-exact-theta": lambda: oracle.gram_bidisk_exact(0, 0, _NAN, 2),
    "hardy-theta": lambda: oracle.gram_hardy_torus_exact(_NAN, 2),
    "hardy-theta-inf": lambda: oracle.gram_hardy_torus_exact(math.inf, 2),
    "ball-alpha": lambda: oracle.ball_monomial_norms(_NAN, 0, 0, 2),
    "numeric-bidisk-alpha": lambda: oracle.gram_numeric(
        BidiskParams(_NAN, 0.0, 1.0), 0),
    "numeric-bidisk-vartheta": lambda: oracle.gram_numeric(
        BidiskParams(0.0, 0.0, 1.0, _NAN), 0),
}


@pytest.mark.parametrize("case", sorted(_NAN_BUILDS))
def test_builders_reject_nan_parameters(case):
    with pytest.raises(DomainError):
        _NAN_BUILDS[case]()
