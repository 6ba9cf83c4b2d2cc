import cmath
import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from kernelforge import bidisk, cli, oracle, verify
from kernelforge.ball import (BallParams, ball_hardy_norm_expansion,
                              ball_norm_expansion, embed_const)
from kernelforge.bidisk import (BidiskParams, coeff_a, coeff_b, diag_kernel,
                                full_kernel, full_kernels,
                                hardy_norm_expansion,
                                norm_expansion, q_kernel,
                                restriction_transform, sigma,
                                sigma_gamma_form, taylor_blocks)
from kernelforge.config import (CONSECUTIVE_SMALL, EPS, MAX_OUTER_TERMS,
                               SAFETY_FACTOR, TOLERANCE, Point2,
                               SeriesResult)
from kernelforge.errors import ConvergenceError, DomainError
from kernelforge.fock import (FockParams, coeff_c, fock_norm_expansion,
                              fock_restriction_transform)
from kernelforge.poly2 import BiPoly
from kernelforge.specfun import log_gamma, pochhammer


def test_params_validation():
    with pytest.raises(DomainError):
        BidiskParams(-1.0, 0, 0, 0)
    with pytest.raises(DomainError):
        BidiskParams(-0.9, -0.9, -0.9, 0.0)  # mass condition fails
    p = BidiskParams(0.5, 0.25, 1.5, 0.75)
    assert p.a == pytest.approx(0.5 + 1.5 + 0.75 + 2)
    assert p.s == pytest.approx(p.a + p.b - 2)


def test_sigma_trivial_values():
    assert sigma(BidiskParams(0, 0, 0, 0)) == pytest.approx(1.0, rel=1e-12)
    assert sigma(BidiskParams(0, 0, 1, 0)) == pytest.approx(1.0, rel=1e-12)


def test_sigma_matches_gamma_form():
    p = BidiskParams(0.5, 0.25, 1.5, 0.0)
    assert sigma(p) == pytest.approx(sigma_gamma_form(p), rel=1e-12)


def test_sigma_small_excess_converges():
    # the Thomae form of largest excess (2.02) takes 49,051 terms; the literal
    # series (excess 0.48), once summed when a cost estimate passed the term
    # cap, did not converge within it
    p = BidiskParams(-0.6500383019843963, -0.5244096332704579,
                     0.10474667998505716, 0.04267424608896486)
    # 1/sigma from mpmath.hyp3f2 at 30 digits (10 s, so kept as a literal)
    assert sigma(p) == pytest.approx(1.0022654225773930, rel=1e-12)


def _sigma_mpmath(al, be, th, vt):
    """sigma at 40 digits: the closed Gamma form at vartheta = 0, else 1/sigma
    = (beta+1) Gamma(alpha+2) Gamma(theta+1) / [(s+1) Gamma(alpha+theta+2)]
    times 3F2(theta+1, a, a; alpha+theta+2, a+b; 1) from mpmath.hyp3f2."""
    with mpmath.workdps(40):
        al, be, th, vt = (mpmath.mpf(x) for x in (al, be, th, vt))
        if vt == 0:
            return mpmath.gammaprod(
                [al + th + 2, be + th + 2, al + be + th + 3],
                [al + 2, be + 2, th + 1, al + be + 2 * th + 3])
        a, b = al + th + vt + 2, be + th + vt + 2
        inv = ((be + 1) * mpmath.gammaprod([al + 2, th + 1], [al + th + 2])
               / (a + b - 1) * mpmath.hyp3f2(th + 1, a, a, al + th + 2, a + b, 1))
        return 1 / inv


@pytest.mark.parametrize("tup", [
    (0.5, 0.0, 447.5, 0.0),   # the worst warm-up read: 2.4e-12 off
    (0.5, 0.0, 1.5, 0.0),
    (3.0, 1.0, 250.0, 0.0),
    (0.0, 4.0, 37.0, 0.0),
    (-0.9, 2.7, 0.3, 0.0),
    (0.3, 0.7, 445.0, 0.5),   # 3.9e-12 off, mpmath's 3F2 in 0.06 s
])
def test_sigma_tail_bound_counts_rounding(tup):
    # each of these sums a terminating form, or one whose terms underflow to
    # 0 within six terms, so the truncation error is 0; the bound must still
    # cover the rounding of the log-Gamma prefactors
    r = bidisk._sigma_cached(*tup)
    assert abs(r.value.real - float(_sigma_mpmath(*tup))) <= r.tail_bound


def test_sigma_past_double_range_is_domain_error():
    # the 3F2's prefactor overflows from theta = 514 at alpha = beta = 0,
    # and the order-510 sigma of a norm expansion reads that entry
    with pytest.raises(DomainError, match=r"\(0, 0, 514, 0.0\)"):
        sigma(BidiskParams(0, 0, 514))
    with pytest.raises(DomainError, match=r"\(0, 0, 514, 0.0\)"):
        norm_expansion(BidiskParams(0, 0, 510), BiPoly.parse("z1^4"))


def test_sigma_gamma_form_requires_vartheta_zero():
    with pytest.raises(DomainError):
        sigma_gamma_form(BidiskParams(0, 0, 0, 0.5))


def test_diag_kernel_product_case():
    p = BidiskParams(0.7, 0.2, 0, 0)
    z, w1 = Point2(0.3 - 0.1j, 0.2j), 0.5
    got = diag_kernel(p, z, w1)
    expect = (1 - w1 * z.z1) ** -2.7 * (1 - w1 * z.z2) ** -2.2
    assert abs(got - expect) < 1e-12
    assert diag_kernel(p, Point2(0, 0), 0.4) == pytest.approx(sigma(p))


def test_diag_kernel_against_oracle():
    p = BidiskParams(0, 0, 1, 0)
    kb = oracle.gram_kernel_blocks(oracle.gram_bidisk_exact(0, 0, 1, 22))
    z = Point2(0.3, 0.2)
    got = diag_kernel(p, z, 0.5)
    ref = oracle.kernel_from_blocks(kb, z.z1, z.z2, 0.5, 0.5)
    assert abs(got - ref) < 1e-8


def test_q_kernel_diag_consistency():
    p = BidiskParams(0.5, 0.1, 1.3, 0.4)
    z = Point2(0.3, -0.25j)
    r = q_kernel(p, 0, z, Point2(0.4, 0.4))
    assert abs(r.value - diag_kernel(p, z, 0.4)) < 1e-9


def test_q_kernel_origin():
    r = q_kernel(BidiskParams(0, 0, 0, 0), 0, Point2(0, 0), Point2(0, 0))
    assert r.value.real == pytest.approx(1.0, rel=1e-12)


def test_q_kernel_matches_oracle_projection_blocks():
    # Q_1 evaluated pointwise vs the Gram-oracle kernel of the order-1 slice
    p = BidiskParams(0, 0, 0, 0)
    g = oracle.gram_bidisk_exact(0, 0, 0, 18)
    kb = oracle.gram_kernel_blocks(g)
    z, w = Point2(0.2, 0.1), Point2(0.4, -0.1)
    # oracle value: project the kernel section onto the N=1 slice
    section = oracle.kernel_section(kb, w.z1, w.z2)
    _, q1_section = oracle.project(g, section, 1)
    ref = q1_section.evaluate(z.z1, z.z2)
    got = q_kernel(p, 1, z, w).value
    assert abs(got - ref) < 1e-7


@pytest.mark.parametrize("N", [0, 5, 20, 40])
def test_q_kernel_tail_bound_counts_sigma_error(N):
    # sigma_N's error moves the order-N term by |term| tail(sigma_N) /
    # sigma_N; at N = 40 that share alone (2.5e-11) once exceeded the whole
    # reported bound (2.0e-11)
    p = BidiskParams(1.0, 0.5, 0.3, 0.2)
    r = q_kernel(p, N, Point2(0.9, -0.9), Point2(-0.9, 0.9))
    sN = bidisk._sigma_cached(p.alpha, p.beta, p.theta + N, p.vartheta)
    assert r.tail_bound >= abs(r.value) * sN.tail_bound / sN.value.real


def test_full_kernel_product_case():
    p = BidiskParams(1.0, 0.5, 0, 0)
    z, w = Point2(0.3j, 0.2), Point2(0.1, 0.4)
    r = full_kernel(p, z, w)
    expect = (1 - np.conj(w.z1) * z.z1) ** -3 * (1 - np.conj(w.z2) * z.z2) ** -2.5
    assert abs(r.value - expect) < 1e-11
    assert r.tail_bound < 1e-9


def test_full_kernel_diagonal_w():
    p = BidiskParams(0.3, 0.6, 0.8, 0.2)
    z = Point2(0.25, -0.3)
    r = full_kernel(p, z, Point2(0.35, 0.35))
    assert abs(r.value - diag_kernel(p, z, 0.35)) < 1e-9


def test_full_kernel_against_oracle_deg14():
    p = BidiskParams(0, 0, 1, 0)
    kb = oracle.gram_kernel_blocks(oracle.gram_bidisk_exact(0, 0, 1, 14))
    z, w = Point2(0.25, -0.1), Point2(0.3, 0.15j)
    ref = oracle.kernel_from_blocks(kb, z.z1, z.z2, w.z1, w.z2)
    assert abs(full_kernel(p, z, w).value - ref) < 1e-6


def test_full_kernel_domain():
    p = BidiskParams(0, 0, 0, 0)
    with pytest.raises(DomainError):
        full_kernel(p, Point2(1.2, 0), Point2(0, 0))


def test_taylor_blocks_trivial_and_product():
    p = BidiskParams(0.5, 1.0, 0, 0)
    blocks = taylor_blocks(p, 3)
    assert blocks[0][0, 0] == pytest.approx(sigma(p), rel=1e-12)
    for d, blk in enumerate(blocks):
        for m in range(d + 1):
            n = d - m
            expect = (math.gamma(2.5 + m) / math.gamma(2.5) / math.factorial(m)
                      * math.gamma(3.0 + n) / math.gamma(3.0) / math.factorial(n))
            assert blk[m, m] == pytest.approx(expect, rel=1e-10)
    # past degree 170, n!/(s+2N+2)_n was a quotient of two numbers past
    # double range, and ended in a bare OverflowError
    big = taylor_blocks(p, 180)
    assert all(np.isfinite(b).all() and (b == b.T).all() for b in big)
    for a, b in zip(big, taylor_blocks(p, 8)):
        assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b))


def _c_coeffs(params, N, n):
    """Coefficients (a+N)_j / j! * (b+N)_{n-j} / (n-j)! for j = 0..n."""
    a, b = params.a + N, params.b + N
    left = [1.0] * (n + 1)
    for j in range(1, n + 1):
        left[j] = left[j - 1] * (a + j - 1.0) / j
    right = [1.0] * (n + 1)
    for j in range(1, n + 1):
        right[j] = right[j - 1] * (b + j - 1.0) / j
    return tuple(left[j] * right[n - j] for j in range(n + 1))


def _convolved_taylor_blocks(params, max_degree):
    """taylor_blocks one (d, N) at a time, (z1 - z2)^N as N calls of
    np.convolve: the reference for the one-array build (degree 170 at
    most, past which n! is not a float)."""
    blocks = []
    for d in range(max_degree + 1):
        block = np.zeros((d + 1, d + 1))
        for N in range(d + 1):
            n = d - N
            mu = math.factorial(n) / pochhammer(params.s + 2.0 * N + 2.0, n)
            v = np.asarray(_c_coeffs(params, N, n))
            for _ in range(N):
                v = np.convolve(v, [-1.0, 1.0])
            block += sigma(params.shifted(N)) * mu * np.outer(v, v)
        blocks.append(block)
    return blocks


@pytest.mark.parametrize("tup", [(0, 0, 0, 0), (0.5, 1.0, 1.0, 0),
                                 (1.0, 0.5, 2.0, 0.3), (-0.5, 2.0, 0.5, 1.5),
                                 (3.0, -0.7, 0.5, 1.5)])
def test_taylor_blocks_match_convolution_reference(tup):
    # the rows and (z1 - z2) factors are the reference's to the bit; mu as a
    # running product of ratios and the sum over N as one matrix product
    # round differently, by up to 7 ulps of the block here
    p = BidiskParams(*tup)
    for got, ref in zip(taylor_blocks(p, 30), _convolved_taylor_blocks(p, 30)):
        assert np.max(np.abs(got - ref)) <= 10 * EPS * np.max(np.abs(ref))


def test_taylor_blocks_match_oracle():
    p = BidiskParams(0, 0, 1, 0)
    mine = taylor_blocks(p, 6)
    ref = oracle.gram_kernel_blocks(oracle.gram_bidisk_exact(0, 0, 1, 6))
    for a, b in zip(mine, ref):
        assert np.max(np.abs(a - b)) < 1e-9 * np.max(np.abs(b))


def test_coeff_a_values():
    p = BidiskParams(0.3, 0.7, 1.1, 0.2)
    assert coeff_a(p, 3, 3) == pytest.approx(1 / math.factorial(3))
    expect = -(p.alpha + p.theta + p.vartheta + 2) / (
        p.alpha + p.beta + 2 * p.theta + 2 * p.vartheta + 4)
    assert coeff_a(p, 0, 1) == pytest.approx(expect)
    with pytest.raises(DomainError):
        coeff_a(p, 2, 1)


def test_delta_identities_check_coeff_a(monkeypatch):
    # criterion 10's bidisk half summed only n < N, where the inversion sums
    # are 0 at any scale of coeff_a, so a doubled coeff_a passed
    monkeypatch.setattr("kernelforge.bidisk.coeff_a",
                        lambda p, k, N: 2.0 * coeff_a(p, k, N))
    report = verify.run_suite("delta-identities")
    assert not report["passed"]
    assert all(it["passed"] == it["item"].startswith("fock")
               for it in report["items"])


def test_coeff_b_degenerates_from_coeff_a():
    th = 0.8
    p = BidiskParams(-1 + 1e-12, -1 + 1e-12, th, 0.0)
    for N in range(4):
        for k in range(N + 1):
            assert coeff_b(th, k, N) == pytest.approx(coeff_a(p, k, N), rel=1e-9)


def _coeff_exact(a, s, k, N):
    """(-1)^{N-k}/(k!(N-k)!) (a+k)_{N-k} / (s+N+k+1)_{N-k} in exact
    rationals, at the binary values of a and s."""
    a, s = Fraction(a), Fraction(s)
    out = Fraction((-1) ** (N - k), math.factorial(k) * math.factorial(N - k))
    for i in range(N - k):
        out *= (a + k + i) / (s + N + k + 1 + i)
    return out


@pytest.mark.parametrize("N", [170, 171, 300])
def test_coeffs_stay_finite_and_keep_their_digits(N):
    # k! and the Pochhammer symbols leave double range from N = 170 on, where
    # a_{k,N} only underflows; every normal value is within 2 (N+1) EPS
    cases = [(coeff_a, p, p.a, p.s) for p in (
        BidiskParams(0, 0, 0), BidiskParams(0.4, 0.7, 0.75, 0.3),
        BidiskParams(3.0, -0.9, -0.9, -0.9))]
    cases += [(coeff_b, th, th + 1.0, 2.0 * th) for th in (0.0, 2.25)]
    for coeff, params, a, s in cases:
        for k in range(N + 1):
            value = coeff(params, k, N)
            assert math.isfinite(value), (params, k)
            if abs(value) >= sys.float_info.min:
                want = _coeff_exact(a, s, k, N)
                error = abs(Fraction(value) - want)
                assert error <= 2 * (N + 1) * EPS * abs(want), (params, k)


def test_restriction_transform_basics():
    p = BidiskParams(0, 0, 0, 0)
    assert restriction_transform(p, BiPoly.parse("1"), 0).coeffs == {(0, 0): 1.0 + 0j}
    t = restriction_transform(p, BiPoly.parse("z1 - z2"), 1)
    assert t.coeffs == {(0, 0): pytest.approx(1.0 + 0j)}


def test_restriction_transform_matches_oracle_projection():
    # transform of f at order N equals the oracle P_N[f], divided by the
    # diagonal power and restricted
    p = BidiskParams(0, 0, 0, 0)
    g = oracle.gram_bidisk_exact(0, 0, 0, 4)
    f = BiPoly.parse("z1")
    pn, _ = oracle.project(g, f, 1)
    ref = pn.divide_diag_power(1).restrict_diagonal()
    t = restriction_transform(p, f, 1)
    assert t.coeffs[(0, 0)] == pytest.approx(ref.coeffs[(0, 0)])
    assert t.coeffs[(0, 0)].real == pytest.approx(0.5)


def test_norm_expansion_trivial():
    p = BidiskParams(0.4, 0.9, 1.2, 0.3)
    exp = norm_expansion(p, BiPoly.parse("1"))
    assert len(exp.terms) == 1
    assert exp.total == pytest.approx(1.0 / sigma(p), rel=1e-10)


def test_norm_expansion_against_oracle():
    g = oracle.gram_bidisk_exact(0, 0, 1, 6)
    p = BidiskParams(0, 0, 1, 0)
    for text in ("z1", "z1 - z2", "z1^2*z2 + 3*z2^3 - z1"):
        f = BiPoly.parse(text)
        assert norm_expansion(p, f).total == pytest.approx(
            g.norm_sq(f), rel=1e-10)


def test_norm_expansion_restriction_inequality():
    # dropping all terms beyond N=0 can only shrink the norm
    rng = np.random.default_rng(4)
    g = oracle.gram_bidisk_exact(0.5, 0.5, 2, 5)
    p = BidiskParams(0.5, 0.5, 2, 0)
    for _ in range(5):
        f = BiPoly({(m, n): complex(*rng.standard_normal(2))
                    for m in range(3) for n in range(3)})
        lhs = _disk_norm_sq(f.restrict_diagonal(), p.s) / sigma(p)
        assert lhs <= g.norm_sq(f) * (1 + 1e-9)


def test_norm_expansion_equality_on_first_slice():
    # for f in the orthogonal complement slice Q_0, the N=0 term is everything
    g = oracle.gram_bidisk_exact(0, 0, 1, 4)
    p = BidiskParams(0, 0, 1, 0)
    f = BiPoly.parse("z1^2 + z1*z2 - 3")
    _, q0 = oracle.project(g, f, 0)
    exp = norm_expansion(p, q0)
    assert exp.terms[0][1] == pytest.approx(g.norm_sq(q0), rel=1e-9)
    assert exp.total == pytest.approx(g.norm_sq(q0), rel=1e-9)


def test_hardy_norm_expansion_values():
    assert hardy_norm_expansion(0.0, BiPoly.parse("1")).total == pytest.approx(1.0)
    assert hardy_norm_expansion(0.0, BiPoly.parse("z1 - z2")).total == \
        pytest.approx(2.0, rel=1e-12)
    assert hardy_norm_expansion(1.0, BiPoly.parse("z1*z2")).total == \
        pytest.approx(2.0, rel=1e-12)
    with pytest.raises(DomainError):
        hardy_norm_expansion(-0.5, BiPoly.parse("1"))


_MIXED_CANCEL = ("the transform weights of order N alternate in sign, and "
                 "their sum against C(m, j) C(m, N-j) at z1^m z2^m cancels: "
                 "at (0, 0, 0) 3.3e-10 relative off at m = 40, 7.3e-7 at "
                 "m = 60")


@pytest.mark.parametrize("n, m", [
    pytest.param(20, 0, id="20"), pytest.param(40, 0, id="40"),
    pytest.param(80, 0, id="80"), pytest.param(120, 0, id="120"),
    pytest.param(15, 15, id="z1^15*z2^15"),
    pytest.param(40, 40, id="z1^40*z2^40",
                 marks=pytest.mark.xfail(strict=True, reason=_MIXED_CANCEL)),
    pytest.param(60, 60, id="z1^60*z2^60",
                 marks=pytest.mark.xfail(strict=True, reason=_MIXED_CANCEL))])
def test_high_power_totals_do_not_cancel(n, m):
    # the transforms summed a_{k,N} d^{N-k} [d1^k f restricted] over k, terms
    # that alternate and grow like 2^N times the result: z1^40 came out 66.50
    # (true 1/41) on the bidisk and 47,150 (true 1) on the torus.  At theta =
    # 0 the bidisk is a product space, and |z1^n z2^m| = 1 on the torus
    f = BiPoly({(n, m): 1.0})
    for al in (0.0, 1.5):
        want = float(mpmath.factorial(n) / mpmath.rf(al + 2, n)
                     * mpmath.factorial(m) / mpmath.rf(2.7, m))
        got = norm_expansion(BidiskParams(al, 0.7, 0, 0), f).total
        assert abs(got - want) <= 1e-12 * want
    for th in (0.0, 0.5, 1.0):
        want = float(mpmath.gamma(2 * th + 1) / mpmath.gamma(th + 1) ** 2)
        assert abs(hardy_norm_expansion(th, f).total - want) <= 1e-12 * want


def test_hardy_weight_past_double_range_is_domain_error():
    # z1^505 is the last power whose order-N weights Gamma(2N+2)/N!^2 stay
    # finite; at z1^510 the weight of order 510 overflowed in math.exp and
    # escaped as a bare OverflowError
    total = hardy_norm_expansion(0.0, BiPoly.parse("z1^505")).total
    assert abs(total - 1.0) <= 1e-12
    with pytest.raises(DomainError, match="order 510"):
        hardy_norm_expansion(0.0, BiPoly.parse("z1^510"))


def test_norm_expansions_refuse_values_past_double_range(capsys):
    # every expansion raised a bare OverflowError on the first polynomial,
    # and all but the ball's returned inf on the second, whose norm on the
    # ball is 1.197e308 (and the CLI printed Infinity, which is not JSON)
    expansions = (lambda f: norm_expansion(BidiskParams(0, 0, 0), f),
                  lambda f: hardy_norm_expansion(0.0, f),
                  lambda f: ball_norm_expansion(BallParams(0, 0, 0), f),
                  lambda f: ball_hardy_norm_expansion(0.0, 0.0, f),
                  lambda f: fock_norm_expansion(FockParams(1, 1), f))
    huge = "(1.34e154,0) + (1.34e154,0)*z2"
    for text in ("(1e200,0)*z1^2", huge):
        f = BiPoly.parse(text)
        for i, expand in enumerate(expansions):
            if text == huge and i == 2:
                assert 1.19e308 < expand(f).total < math.inf
                continue
            with pytest.raises(DomainError, match="not finite in double"):
                expand(f)
    assert cli.main(["norm-expand", "--space", "fock", "--alpha", "1",
                     "--beta", "1", "--poly", huge]) == cli.EXIT_DOMAIN
    out, err = capsys.readouterr()
    assert out == "" and "order 0" in err


def _matrix_transform(f, N, weights):
    """diagonal_transform one order at a time: the whole (deg f + 1)^2
    matrix M_N = (C[:, :N+1] weights) C[:, N::-1]^T, read at f's terms; the
    reference for the one-pass transforms."""
    binom = bidisk._binomial_table(max(f.total_degree, N) + 1)
    M = ((binom[:, :N + 1] * weights) @ binom[:, N::-1].T).tolist()
    out: dict = {}
    for (m, n), c in f.coeffs.items():
        if m + n >= N:
            out[m + n - N, 0] = out.get((m + n - N, 0), 0) + c * M[m][n]
    return BiPoly(out)


def _binomial_weights(a, b, s, N):
    """The order-N row of bidisk._binomial_weight_rows, one order at a
    time."""
    i = np.arange(N)
    den = s + N + 1.0 + i
    return (np.cumprod(np.concatenate((-(a + i) / den, [1.0]))[::-1])[::-1]
            * np.cumprod(np.concatenate(([1.0], (b + N - 1.0 - i) / den))))


def _disk_norm_sq(p, s):
    """The 1D norm of a polynomial in z1, index s, one coefficient at a
    time: the reference for bidisk.disk_expansion's norms."""
    total, norm = 0.0, 1.0
    for m in range(p.degree_in(1) + 1):
        total += abs(p.coeffs.get((m, 0), 0)) ** 2 * norm
        norm *= (m + 1.0) / (s + 2.0 + m)
    return total


def _z2_coefficient(f, N):
    return BiPoly({(m, 0): c for (m, n), c in f.coeffs.items() if n == N})


# the order-N term of each expansion from the per-order matrix transform and
# the 1D norms' loops

def _bidisk_term(t, f, N):
    p = BidiskParams(*t)
    transform = _matrix_transform(f, N, _binomial_weights(p.a, p.b, p.s, N))
    return _disk_norm_sq(transform, p.s + 2.0 * N) / sigma(p.shifted(N))


def _hardy_term(th, f, N):
    transform = _matrix_transform(f, N, _binomial_weights(
        th + 1.0, th + 1.0, 2.0 * th, N))
    weight = math.exp(log_gamma(2 * th + 2 * N + 2.0)
                      - 2.0 * log_gamma(th + N + 1.0)) / (2 * th + 2 * N + 1.0)
    return weight * _disk_norm_sq(transform, 2 * th + 2.0 * N)


def _fock_term(t, f, N):
    """One coefficient at a time, each term in logs."""
    q = FockParams(*t)
    u, v = -q.alpha / q.gamma, q.beta / q.gamma
    transform = _matrix_transform(
        f, N, [u ** (N - j) * v ** j for j in range(N + 1)])
    log_delta = math.log(q.alpha * q.beta / q.gamma)
    p = q.theta + N + 1.0
    log_weight = log_gamma(p) - p * log_delta
    return sum(math.exp(log_weight + 2.0 * math.log(abs(c))
                        + log_gamma(n + 1.0) - (n + 1.0) * math.log(q.gamma))
               for (n, _), c in transform.coeffs.items())


# space -> (parameter tuples, the expansion, its reference order-N term)
_EXPANSIONS = {
    "bidisk": ([(0, 0, 0, 0), (0.5, 1.0, 1.0, 0), (1.0, 0.5, 2.0, 0.3),
                (-0.5, 2.0, 0.5, 1.5), (3.0, -0.7, 0.0, 0.0)],
               lambda t, f: norm_expansion(BidiskParams(*t), f),
               _bidisk_term),
    "hardy": ([0.0, 0.5, 1.0, 2.5, -0.3], hardy_norm_expansion, _hardy_term),
    "ball": ([(0, 0, 0), (0.5, 1.0, 0.25), (1.5, -0.5, 2.0),
              (-0.5, 3.0, 1.0)],
             lambda t, f: ball_norm_expansion(BallParams(*t), f),
             lambda t, f, N: embed_const(BallParams(*t), N) * _disk_norm_sq(
                 _z2_coefficient(f, N), sum(t) + 1.0 + N)),
    "ball-hardy": ([(0, 0), (0.5, 0.25), (-0.5, 2.0), (1.5, -0.9)],
                   lambda t, f: ball_hardy_norm_expansion(*t, f),
                   lambda t, f, N: _disk_norm_sq(_z2_coefficient(f, N),
                                                 sum(t) + N)
                   / (sum(t) + N + 1.0)),
    "fock": ([(1, 1, 0), (1.3, 0.7, 1.0), (0.2, 3.0, 0.5), (3.0, 3.0, 2.5),
              (1.0, 10.0, -0.5)],
             lambda t, f: fock_norm_expansion(FockParams(*t), f),
             _fock_term),
}


@pytest.mark.parametrize("space", sorted(_EXPANSIONS))
def test_expansions_match_per_order_reference(space):
    # the one pass over f's terms sums M_N[m, n] and the 1D norms in another
    # order than the per-order matrix and loops did: within 5.6 ulps of the
    # total here, the most on the Gaussian space, whose terms are formed as
    # exp of a sum of logs near 30 that rounds by an ulp of 30
    tuples, expansion, reference_term = _EXPANSIONS[space]
    rng = np.random.default_rng(28)
    polys = [BiPoly.parse("0"), BiPoly.parse("z1 - z2")]
    for d in range(11):
        keys = [(m, k - m) for k in range(d + 1) for m in range(k + 1)]
        for size in (len(keys), min(3, len(keys))):
            picked = rng.choice(len(keys), size=size, replace=False)
            polys.append(BiPoly({keys[i]: complex(*rng.standard_normal(2))
                                 for i in picked}))
    for t in tuples:
        for f in polys:
            got = expansion(t, f)
            want = [(N, reference_term(t, f, N)) for N, _ in got.terms]
            total = sum(v for _, v in want)
            assert [N for N, _ in got.terms] == list(range(len(want)))
            for (_, a), (_, b) in zip(got.terms, want):
                assert abs(a - b) <= 8 * EPS * total
            assert abs(got.total - total) <= 8 * EPS * total


def _derivative_transform(f, N, w):
    """sum_j w[j] d1^j d2^(N-j) f restricted to the diagonal, derivative by
    derivative: the reference for diagonal_transform's binomial form."""
    out = BiPoly()
    for j in range(N + 1):
        out += f.differentiate(1, j).differentiate(2, N - j).scale(w[j])
    return out.restrict_diagonal()


def test_transforms_match_derivative_arithmetic():
    # the weights w_j of each family in their factorial form: a_{j,N}
    # (b+N-j)_j / (s+N+1)_j on the bidisk and the torus, c_{j,N}
    # (beta/gamma)^j / N! on the Gaussian space
    rng = np.random.default_rng(12)
    for _ in range(40):
        d = int(rng.integers(0, 13))
        keys = {(int(m), int(rng.integers(0, d - m + 1)))
                for m in rng.integers(0, d + 1, size=8)}
        f = BiPoly({k: complex(*rng.standard_normal(2)) for k in keys})
        p = BidiskParams(*rng.uniform(-0.9, 3, 2), float(rng.integers(0, 3)),
                         float(rng.choice([0.0, 0.5])))
        th = float(rng.uniform(-0.4, 3))
        q = FockParams(*rng.uniform(0.2, 3, 2), float(rng.uniform(-0.5, 3)))
        for N in range(f.total_degree + 2):
            cases = (
                (restriction_transform(p, f, N),
                 [coeff_a(p, j, N) * pochhammer(p.b + N - j, j)
                  / pochhammer(p.s + N + 1.0, j) for j in range(N + 1)]),
                (bidisk.diagonal_transform(f, N, bidisk._binomial_weight_rows(
                    th + 1.0, th + 1.0, 2.0 * th, N, N + 1)[0]),
                 [coeff_b(th, j, N) * pochhammer(th + 1.0 + N - j, j)
                  / pochhammer(2.0 * th + N + 1.0, j) for j in range(N + 1)]),
                (fock_restriction_transform(q, f, N),
                 [coeff_c(q, j, N) * (q.beta / q.gamma) ** j
                  / math.factorial(N) for j in range(N + 1)]),
            )
            for got, w in cases:
                ref = _derivative_transform(f, N, w)
                assert ((got - ref).max_abs_coeff()
                        <= 1e-13 * ref.max_abs_coeff())


def test_binomial_table_refuses_a_power_past_1029_before_building_it(capsys):
    # z1^(10^20) ended in numpy's "Maximum allowed dimension exceeded", and
    # z1^40000 would have built a 12.8 GB table to refuse it
    one = np.ones(1)
    f = BiPoly.parse("z1^1029")
    assert bidisk.diagonal_transform(f, 0, one).coeffs == f.coeffs
    for text in ("z1^1030", f"z1^{10 ** 20}"):
        with pytest.raises(DomainError, match="not finite in double"):
            bidisk.diagonal_transform(BiPoly.parse(text), 0, one)
    for space in ("bidisk", "fock"):
        assert cli.main(["norm-expand", "--space", space, "--alpha", "0.5",
                         "--beta", "0.5", "--poly", f"z1^{10 ** 20}"]
                        ) == cli.EXIT_DOMAIN
    assert "not finite in double" in capsys.readouterr().err


def test_expansions_take_no_derivatives(capsys, monkeypatch):
    # the transforms read the binomial table in one pass over the terms;
    # a path that falls back to derivative arithmetic is several times
    # slower
    def no_derivatives(*args, **kwargs):
        raise AssertionError("BiPoly.differentiate called")

    monkeypatch.setattr(BiPoly, "differentiate", no_derivatives)
    f = BiPoly.parse("z1^3 - 2*z1*z2^2 + (0,1)*z2^5 + 0.5*z1^2*z2^2")
    assert norm_expansion(BidiskParams(0.5, 1.0, 1.0), f).total > 0
    assert hardy_norm_expansion(0.5, f).total > 0
    assert fock_norm_expansion(FockParams(1.3, 0.7, 1.0), f).total > 0
    for space in ("bidisk", "ball", "fock"):
        code = cli.main(["norm-expand", "--space", space, "--alpha", "1.3",
                         "--beta", "0.7", "--theta", "1", "--poly", f.format(),
                         "--oracle"])
        assert code == cli.EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize("th", [0, 1, 2])
def test_norm_expansion_terms_match_order_parts_at_degree_18(th):
    # each term is ||Q_N f||^2; the alternating transform sums were off by
    # up to 3e-11 of ||f||^2 at this degree
    rng = np.random.default_rng(18)
    g = oracle.gram_bidisk_exact(0.5, 1.0, th, 18)
    f = BiPoly({(m, d - m): complex(*rng.standard_normal(2))
                for d in range(19) for m in range(d + 1)})
    norm = g.norm_sq(f)
    parts = oracle.order_parts(g, f)
    for N, term in norm_expansion(BidiskParams(0.5, 1.0, th, 0), f).terms:
        assert abs(term - g.norm_sq(parts[N])) <= 1e-12 * norm


def _q_kernel_reference(params, N, z, w, terms):
    """q_kernel's series summed in mpmath to `terms` terms, with c_n from its
    binomial definition sum_j (A)_j/j! (B)_{n-j}/(n-j)! z1^j z2^{n-j}, and
    the sum of the moduli of those terms.  Those binomial sums cancel: at the
    near-boundary pair below, 40 digits leave an error of 2.8e-11 of the sum
    of the moduli, and 60, 80 and 100 digits all agree to 2.1e-15."""
    with mpmath.workdps(80):
        A = mpmath.mpf(params.a) + N
        B = mpmath.mpf(params.b) + N
        s2 = mpmath.mpf(params.s) + 2 * N + 2

        def scaled_powers(x, c):
            # (c)_j / j! x^j for j < terms
            out = [mpmath.mpc(1)]
            for j in range(1, terms):
                out.append(out[-1] * (c + j - 1) / j * x)
            return out

        def coefficients(x1, x2):
            left, right = scaled_powers(x1, A), scaled_powers(x2, B)
            return [mpmath.fsum(left[j] * right[n - j] for j in range(n + 1))
                    for n in range(terms)]

        cz = coefficients(mpmath.mpc(z.z1), mpmath.mpc(z.z2))
        cw = coefficients(mpmath.mpc(w.z1), mpmath.mpc(w.z2))
        pref = ((mpmath.mpc(z.z1) - mpmath.mpc(z.z2)) ** N
                * mpmath.conj(mpmath.mpc(w.z1) - mpmath.mpc(w.z2)) ** N
                * sigma(params.shifted(N)))
        mu = mpmath.mpf(1)
        value, moduli = mpmath.mpc(0), mpmath.mpf(0)
        for n in range(terms):
            t = pref * mu * cz[n] * mpmath.conj(cw[n])
            value += t
            moduli += abs(t)
            mu = mu * (n + 1) / (s2 + n)
        return complex(value), float(moduli)


_R = 0.8
_PRODUCT = (1.0, 0.5, 0.0, 0.0)
# (alpha, beta, theta, vartheta), z, w
_RECURRENCE_PAIRS = {
    "antipodal": (_PRODUCT, Point2(cmath.rect(_R, 0.4), -cmath.rect(_R, 0.4)),
                  Point2(cmath.rect(_R, -1.1), -cmath.rect(_R, -1.1))),
    "near-arguments": (_PRODUCT,
                       Point2(cmath.rect(_R, 0.3), cmath.rect(0.79, 0.36)),
                       Point2(cmath.rect(0.795, -0.2), cmath.rect(_R, -0.15))),
    "z2-zero": (_PRODUCT, Point2(cmath.rect(_R, 2.0), 0.0),
                Point2(cmath.rect(0.7, 0.5), cmath.rect(_R, -2.5))),
    "diagonal-z": (_PRODUCT, Point2(cmath.rect(_R, 1.2), cmath.rect(_R, 1.2)),
                   Point2(cmath.rect(0.6, -0.4), cmath.rect(_R, 2.2))),
    # 310 terms at N = 40
    "near-boundary": ((1.0, 4.0, 1.5, 0.0),
                      Point2(-0.153 + 0.938j, 0.152 - 0.928j),
                      Point2(-0.719 - 0.621j, 0.681 + 0.588j)),
}
# every pair at N = 0, 3 and 40, the near-boundary one only at N = 40
_RECURRENCE_CASES = [(pair, N) for pair in sorted(_RECURRENCE_PAIRS)
                     for N in (0, 3, 40) if pair != "near-boundary" or N == 40]


@pytest.mark.parametrize("pair, N", _RECURRENCE_CASES)
def test_q_kernel_recurrence_against_mpmath(pair, N):
    # the binomial sum for c_n cancels at antipodal points (relative error
    # 2.7e-2 at N=40); the recurrence must stay within rounding of the sum
    # of the moduli of the series' terms
    tup, z, w = _RECURRENCE_PAIRS[pair]
    p = BidiskParams(*tup)
    got = q_kernel(p, N, z, w)
    ref, moduli = _q_kernel_reference(p, N, z, w, got.terms_used)
    assert abs(got.value - ref) <= 1e-13 * moduli


def test_full_kernel_product_case_far_apart():
    # z1 = -z2 and w1 = -w2, where binomial sums for c_n cancel (they give
    # -0.464-0.053i here against the closed form -0.389+0.004i)
    p = BidiskParams(1.0, 0.5, 0.0, 0.0)
    z, w = Point2(0.8, -0.8), Point2(-0.8j, 0.8j)
    expect = (1 - np.conj(w.z1) * z.z1) ** -3 * (1 - np.conj(w.z2) * z.z2) ** -2.5
    assert abs(full_kernel(p, z, w).value - expect) < 1e-12


def test_full_kernel_tail_bound_holds_on_diagonal():
    # the frame takes the pair to the origin, where the series stop at once;
    # what is left of the error (1.4e-14) is the frame's rounding, which the
    # bound counts (in the direct frame it reported 0.0 against 6.8e-7)
    p = BidiskParams(1.0, 0.5, 0.0, 0.0)
    z = Point2(0.7, 0.7)
    r = full_kernel(p, z, z)
    assert abs(r.value - (1 - 0.49) ** -5.5) <= r.tail_bound


# (alpha, beta, theta, vartheta), z, w, terms_used, orders; counted with
# P_n, R_n and the tail recomputed from n at every inner term, so a faster
# loop must reach the same terms, not fewer.  The series run in each pair's
# frame: the first pair's is the identity (both gyromidpoints are 0), the
# second's takes it to the origin (111 terms in the direct frame), and the
# last two took 542 terms in 20 orders and 3,321 in 41 in the direct frame
_TERM_CASES = {
    "product-far-apart": ((1.0, 0.5, 0.0, 0.0), Point2(0.8, -0.8),
                          Point2(-0.8j, 0.8j), 7560, 108),
    "product-diagonal": ((1.0, 0.5, 0.0, 0.0), Point2(0.7, 0.7),
                         Point2(0.7, 0.7), 9, 3),
    "vartheta": ((0.3, 0.7, 1.0, 0.5), Point2(0.5 + 0.2j, -0.3j),
                 Point2(0.1 - 0.6j, 0.45), 483, 21),
    "large-beta": ((0.0, 4.0, 0.0, 0.0), Point2(0.85j, -0.6),
                   Point2(-0.8j, 0.7 + 0.1j), 1906, 30),
}


@pytest.mark.parametrize("case", sorted(_TERM_CASES))
def test_full_kernel_terms_per_order(case, monkeypatch):
    # full_kernel calls the module-level q_kernel once per order, so that a
    # wrapper installed there sees every order and its terms
    tup, z, w, terms, orders = _TERM_CASES[case]
    parts = []

    def counted(*args, **kwargs):
        out = q_kernel(*args, **kwargs)
        parts.append(out.terms_used)
        return out

    monkeypatch.setattr(bidisk, "q_kernel", counted)
    r = full_kernel(BidiskParams(*tup), z, w)
    assert (r.terms_used, len(parts), sum(parts)) == (terms, orders, terms)


def _outer_ends(params, pairs):
    """Each pair's N_hi: the last order full_kernels runs for it, in the
    pair's frame."""
    moved, _, _ = bidisk._frame(params, bidisk._coords(pairs))
    counts, _, _ = bidisk._outer_tails(params, moved)
    return [count - 1 for count in counts]


def _assert_reads_sigma_to(monkeypatch, p, last, run):
    """After sigma(p.shifted(k)) for k <= last, run() evaluates no 3F2, and
    it has not read sigma at order last + 1."""
    bidisk._sigma_cached.cache_clear()
    for k in range(last + 1):
        sigma(p.shifted(k))
    hyp3f2, calls = bidisk.hyp3f2_unit, []

    def counted(*args, **kwargs):
        calls.append(args)
        return hyp3f2(*args, **kwargs)

    monkeypatch.setattr(bidisk, "hyp3f2_unit", counted)
    run()
    assert calls == []
    sigma(p.shifted(last + 1))
    assert len(calls) == 1


def test_full_kernel_reads_warmed_sigma(monkeypatch):
    # a pair's series reads sigma up to order N_hi + 2, which is never past
    # MAX_OUTER_TERMS + 1 (the benchmark's warm-up of orders 0..501 relies on
    # this), and it sums the orders 0 .. N_hi
    tup, z, w, _, orders = _TERM_CASES["vartheta"]
    p = BidiskParams(*tup)
    (n_hi,) = _outer_ends(p, [(z, w)])
    assert orders - 1 == n_hi <= MAX_OUTER_TERMS - 1
    _assert_reads_sigma_to(monkeypatch, p, n_hi + 2,
                           lambda: full_kernel(p, z, w))


def _batch_pairs():
    """The pairs of _TERM_CASES, pairs on the diagonal (dz = 0), a
    near-antipodal pair and random pairs up to radius 0.95: costs from 60 to
    about 96,000 terms, and from 3 to more than 64 orders."""
    pairs = [(z, w) for _, z, w, _, _ in _TERM_CASES.values()]
    pairs += [(Point2(0.6, 0.6), Point2(0.3j, 0.3j)),
              (Point2(0.5 - 0.2j, 0.5 - 0.2j), Point2(0.9, -0.1)),
              (Point2(0.93, -0.93), Point2(0.93j, -0.93j)),
              (Point2(0.9 + 0.1j, -0.9), Point2(-0.5j, 0.6j))]
    rng = np.random.default_rng(20061)
    for _ in range(12):
        c = (0.95 * np.sqrt(rng.uniform(size=4))
             * np.exp(2j * np.pi * rng.uniform(size=4)))
        pairs.append((Point2(complex(c[0]), complex(c[1])),
                      Point2(complex(c[2]), complex(c[3]))))
    return pairs


def _orders_of(monkeypatch, run):
    """run() and the orders that each pair's outer series took, in order, as
    _outer_tails fixed them."""
    orders, outer_tails = [], bidisk._outer_tails

    def recorded(*args):
        out = outer_tails(*args)
        orders.extend(out[0])
        return out

    with monkeypatch.context() as m:
        m.setattr(bidisk, "_outer_tails", recorded)
        out = run()
    return out, orders


@pytest.mark.parametrize("tup", sorted({c[0] for c in _TERM_CASES.values()}))
def test_full_kernels_match_full_kernel(tup, monkeypatch):
    p = BidiskParams(*tup)
    pairs = _batch_pairs()
    ref, ref_orders = _orders_of(
        monkeypatch, lambda: [full_kernel(p, z, w) for z, w in pairs])

    def no_q_kernel(*args):
        raise AssertionError("the array path calls no q_kernel")

    monkeypatch.setattr(bidisk, "q_kernel", no_q_kernel)
    got, orders = _orders_of(monkeypatch, lambda: full_kernels(p, pairs))
    assert orders == ref_orders
    assert max(orders) > 64 and min(orders) == 3
    # one cell of _inner_sums rounds as many cells do, so the two paths
    # agree to the last bit
    assert got == ref


def test_full_kernels_are_the_same_in_chunks(monkeypatch):
    # a pair's result does not depend on the pairs that share its chunk, and
    # each chunk runs its inner series in one _inner_sums call
    p = BidiskParams(*_TERM_CASES["vartheta"][0])
    pairs = _batch_pairs()
    inner_sums, calls = bidisk._inner_sums, []

    def counted(*args):
        calls.append(len(args[1]))
        return inner_sums(*args)

    monkeypatch.setattr(bidisk, "_inner_sums", counted)
    one_by_one = [full_kernels(p, [pair])[0] for pair in pairs]
    assert calls == [1] * len(pairs)
    calls.clear()
    monkeypatch.setattr(bidisk, "_CHUNK_PAIRS", 5)
    assert full_kernels(p, pairs) == one_by_one
    assert calls == [5] * 4


def test_full_kernels_reads_warmed_sigma(monkeypatch):
    # as test_full_kernel_reads_warmed_sigma: sigma is read up to the
    # largest N_hi + 2 of the pairs and no further
    p = BidiskParams(*_TERM_CASES["vartheta"][0])
    pairs = _batch_pairs()
    last = max(_outer_ends(p, pairs)) + 2
    assert last <= MAX_OUTER_TERMS + 1
    _assert_reads_sigma_to(monkeypatch, p, last,
                           lambda: full_kernels(p, pairs))


def _outer_rule_reference(params, z, w, sums, tolerance):
    """The outer rule as a loop over orders N = 0, 1, ... on the inner sums
    `sums` of orders 0 .. len(sums) - 1: the sum, the order it stopped at
    and its tail estimate, or None if it did not stop within those orders.
    Its tail estimate at order N is SAFETY_FACTOR |dz dw|^(N+1) sigma_(N+1)
    / (1 - rz rw) / (1 - min(|dz dw| sigma_(N+2) / sigma_(N+1), 0.999)), and
    it stops after CONSECUTIVE_SMALL estimates in a row within the
    tolerance."""
    dz = z.z1 - z.z2
    dw = complex(w.z1).conjugate() - complex(w.z2).conjugate()
    rz, rw = max(abs(z.z1), abs(z.z2)), max(abs(w.z1), abs(w.z2))
    sig = [sigma(params.shifted(N)) for N in range(len(sums) + 2)]
    total, streak = 0j, 0
    for N, inner in enumerate(sums):
        total += dz ** N * dw ** N * sig[N] * inner
        ratio = min(abs(dz * dw) * sig[N + 2] / sig[N + 1], 0.999)
        tail = (SAFETY_FACTOR * abs(dz * dw) ** (N + 1) * sig[N + 1]
                / (1 - rz * rw) / (1 - ratio))
        streak = streak + 1 if tail <= tolerance else 0
        if streak == CONSECUTIVE_SMALL:
            return total, N, tail
    return None


def _bound_pairs():
    """Pairs on the diagonal (dz = 0), a near-antipodal pair, which takes
    more than 64 orders, and random pairs up to radius 0.99."""
    pairs = [(Point2(0.99, 0.99), Point2(0.5j, 0.5j)),
             (Point2(0.2 - 0.3j, 0.6), Point2(-0.98j, -0.98j)),
             (Point2(0.93, -0.93), Point2(0.93j, -0.93j))]
    rng = np.random.default_rng(20061)
    for _ in range(12):
        c = (0.99 * np.sqrt(rng.uniform(size=4))
             * np.exp(2j * np.pi * rng.uniform(size=4)))
        pairs.append((Point2(complex(c[0]), complex(c[1])),
                      Point2(complex(c[2]), complex(c[3]))))
    return pairs


@pytest.mark.parametrize("tolerance", [1e-6, 1e-10, 1e-14])
def test_outer_rule_stops_within_its_bound(tolerance, monkeypatch):
    # the outer rule stops at N_hi, the first order that ends
    # CONSECUTIVE_SMALL tails within the tolerance: full_kernels, which runs
    # orders 0 .. N_hi alone in each pair's frame, returns F times what the
    # rule over those orders returns there, with |F| times its estimate and
    # the frame's rounding
    monkeypatch.setattr(bidisk, "TOLERANCE", tolerance)
    p = BidiskParams(*_TERM_CASES["vartheta"][0])
    pairs = _bound_pairs()
    n_hi = _outer_ends(p, pairs)
    moved, F, rounding = bidisk._frame(p, bidisk._coords(pairs))
    sums, terms, _ = bidisk._inner_sums(
        p, moved, np.repeat(np.arange(len(pairs)), np.add(n_hi, 1)),
        np.concatenate([np.arange(n + 1) for n in n_hi]))
    got = full_kernels(p, pairs)
    assert min(n_hi) == CONSECUTIVE_SMALL - 1 and max(n_hi) > 64
    start = 0
    for row, f, r, n, g in zip(moved.tolist(), F.tolist(), rounding.tolist(),
                               n_hi, got):
        ref = _outer_rule_reference(
            p, Point2(*row[:2]), Point2(*row[2:]),
            sums[start:start + n + 1].tolist(), tolerance)
        assert ref is not None
        total, stop, tail = ref
        assert stop == n
        assert g.terms_used == terms[start:start + stop + 1].sum()
        assert g.tail_bound == pytest.approx(
            abs(f) * tail + r * abs(f * total), rel=1e-14)
        assert abs(g.value - f * total) <= 1e-13 * max(1.0, abs(f * total))
        start += n + 1


def test_inner_sums_stop_after_consecutive_small_tails(monkeypatch):
    # the geometric tail estimate falls with every term, so each further
    # small tail the rule asks for costs each cell one more term
    p = BidiskParams(*_TERM_CASES["vartheta"][0])
    pairs = [(z, w) for _, z, w, _, _ in _TERM_CASES.values()]
    coords = bidisk._coords(pairs)
    pair_of = np.repeat(np.arange(len(pairs)), 3)
    order = np.tile([0, 2, 7], len(pairs))
    _, terms, _ = bidisk._inner_sums(p, coords, pair_of, order)
    monkeypatch.setattr(bidisk, "CONSECUTIVE_SMALL", CONSECUTIVE_SMALL + 2)
    _, more, _ = bidisk._inner_sums(p, coords, pair_of, order)
    assert min(terms) > 0
    assert (more == terms + 2).all()


def test_outer_tails_stop_after_consecutive_small_tails(monkeypatch):
    # the outer tail estimate falls with every order here, so each further
    # small estimate the rule asks for costs each pair one more order
    p = BidiskParams(1.0, 0.5, 0.3, 0.2)
    rng = np.random.default_rng(7)
    coords = (0.6 * np.sqrt(rng.uniform(size=(12, 4)))
              * np.exp(2j * np.pi * rng.uniform(size=(12, 4))))
    counts, _, _ = bidisk._outer_tails(p, coords)
    monkeypatch.setattr(bidisk, "CONSECUTIVE_SMALL", CONSECUTIVE_SMALL + 2)
    more, _, _ = bidisk._outer_tails(p, coords)
    assert np.array_equal(more, np.add(counts, 2))


_SYMMETRY_TUPLES = [(0.0, 4.0, 0.0, 0.0), (3.0, 1.0, 0.0, 0.0),
                    (2.0, 2.0, 0.0, 0.0), (0.5, 0.0, 1.5, 0.0),
                    (0.3, 0.7, 1.0, 0.5)]


def _symmetry_pairs():
    """16 pairs with every coordinate uniform by area within radius 0.85."""
    rng = np.random.default_rng(20062)
    c = (0.85 * np.sqrt(rng.uniform(size=(16, 4)))
         * np.exp(2j * np.pi * rng.uniform(size=(16, 4))))
    return [(Point2(*map(complex, row[:2])), Point2(*map(complex, row[2:])))
            for row in c]


def _conjugate_swap(p, pairs):
    return p, [(w, z) for z, w in pairs]


def _rotation(p, pairs):
    lam = cmath.exp(0.7j)
    return p, [(Point2(lam * z.z1, lam * z.z2), Point2(lam * w.z1, lam * w.z2))
               for z, w in pairs]


def _coordinate_swap(p, pairs):
    return (BidiskParams(p.beta, p.alpha, p.theta, p.vartheta),
            [(Point2(z.z2, z.z1), Point2(w.z2, w.z1)) for z, w in pairs])


@pytest.mark.parametrize("tup", _SYMMETRY_TUPLES)
@pytest.mark.parametrize("move, conjugates", [
    (_conjugate_swap, True), (_rotation, False), (_coordinate_swap, False)],
    ids=["conjugate-swap", "rotation", "coordinate-swap"])
def test_full_kernels_keep_the_kernels_symmetries(tup, move, conjugates):
    # K(w, z) = conj K(z, w), K(lam z, lam w) = K(z, w) for |lam| = 1, and
    # swapping the coordinates with alpha and beta leaves K as it is: the
    # series are the same up to rounding, and so are their term counts
    p = BidiskParams(*tup)
    pairs = _symmetry_pairs()
    ref = full_kernels(p, pairs)
    got = full_kernels(*move(p, pairs))
    for r, g in zip(ref, got):
        value = g.value.conjugate() if conjugates else g.value
        assert g.terms_used == r.terms_used
        assert abs(value - r.value) <= 1e-12 * max(1.0, abs(r.value))


def _direct_kernels(params, pairs):
    """Each pair's kernel in the direct frame (c = 0): q_kernel at the
    unmoved points over the orders that _outer_tails fixes there, with the
    outer estimate at the last one."""
    counts, tails, _ = bidisk._outer_tails(params, bidisk._coords(pairs))
    out = []
    for (z, w), count, tail in zip(pairs, counts, tails):
        parts = [q_kernel(params, N, z, w) for N in range(count)]
        out.append(SeriesResult(sum(p.value for p in parts),
                                sum(p.terms_used for p in parts), tail))
    return out


@pytest.mark.parametrize("tup", [(0.5, 0.0, 1.5, 0.0), (0.3, 0.7, 1.0, 0.5),
                                 (1.0, 0.5, 0.3, 1.2)])
def test_full_kernels_keep_the_moebius_covariance(tup):
    # K(z, w) = F K(psi z, psi w) at fractional theta and at vartheta > 0,
    # where no closed form checks the kernel: near the origin the direct
    # series are short, and every pair's frame moves it
    p = BidiskParams(*tup)
    rng = np.random.default_rng(20064)
    c = (0.3 * np.sqrt(rng.uniform(size=(16, 4)))
         * np.exp(2j * np.pi * rng.uniform(size=(16, 4))))
    pairs = [(Point2(*map(complex, row[:2])), Point2(*map(complex, row[2:])))
             for row in c]
    _, F, _ = bidisk._frame(p, bidisk._coords(pairs))
    assert (F != 1.0).all()
    for g, r in zip(full_kernels(p, pairs), _direct_kernels(p, pairs)):
        assert abs(g.value - r.value) <= 1e-12 * max(1.0, abs(r.value))


# pairs whose gyromidpoints are both 0, so that the frame is the identity
_IDENTITY_PAIRS = [(Point2(0.93, -0.93), Point2(0.93j, -0.93j)),
                   (Point2(0.4 + 0.2j, -0.4 - 0.2j), Point2(0.1j, -0.1j)),
                   (Point2(0.0, 0.0), Point2(0.6, -0.6))]


def _is_identity_frame(params, pairs):
    """Whether the frame leaves every pair as it is, with F = 1 and no
    rounding."""
    coords = bidisk._coords(pairs)
    moved, F, rounding = bidisk._frame(params, coords)
    return bool((moved == coords).all() and (F == 1.0).all()
                and (rounding == 0.0).all())


@pytest.mark.parametrize("tup", [(1.0, 0.5, 0.0, 0.0), (0.3, 0.7, 1.0, 0.5)])
def test_identity_frames_sum_the_direct_series(tup):
    # at c = 0 the rows stay as they are, F is 1 and the rounding 0, so the
    # results are the direct frame's to the last bit
    p = BidiskParams(*tup)
    assert _is_identity_frame(p, _IDENTITY_PAIRS)
    assert full_kernels(p, _IDENTITY_PAIRS) == _direct_kernels(
        p, _IDENTITY_PAIRS)


def _oracle_pairs():
    """12 pairs with each point uniform by volume in the ball of radius 0.8
    in C^2, within reach of the exact oracle's degree cap."""
    rng = np.random.default_rng(20063)
    v = rng.normal(size=(12, 2, 2)) + 1j * rng.normal(size=(12, 2, 2))
    v *= (0.8 * rng.uniform(size=(12, 2, 1)) ** 0.25
          / np.linalg.norm(v, axis=2, keepdims=True))
    return [(Point2(*map(complex, z)), Point2(*map(complex, w)))
            for z, w in v]


@pytest.mark.parametrize("tup", [(0.5, 1.0, 1.0, 0.0), (1.0, 0.0, 2.0, 0.0)])
def test_full_kernels_match_the_exact_oracle(tup):
    # the exact Gram oracle at integer theta shares no algorithm with the
    # series; at the degree the CLI's --oracle picks (54 and 62 here) the
    # direct frame was 7.5e-12 and 1.1e-11 off it
    p = BidiskParams(*tup)
    pairs = _oracle_pairs()
    got = full_kernels(p, pairs)
    degree, _ = cli._oracle_degree(oracle.gram_bidisk_exact(*tup[:3], 0),
                                   pairs, got)
    blocks = oracle.gram_kernel_blocks(oracle.gram_bidisk_exact(*tup[:3],
                                                                degree))
    for (z, w), g in zip(pairs, got):
        ref = oracle.kernel_from_blocks(blocks, z.z1, z.z2, w.z1, w.z2)
        assert abs(g.value - ref) <= 1e-12 * abs(ref)


def test_full_kernels_raise_at_max_outer_terms(monkeypatch):
    # |dz dw| = 3.92, so the outer terms fall by about 0.98 per order and the
    # tail estimates do not end within MAX_OUTER_TERMS orders, nor is the
    # last one within the tolerance of the sum; the terms are those of every
    # order, the estimate the last order's, and sigma is read up to order
    # MAX_OUTER_TERMS + 1 and no further; no frame moves the pair (both its
    # gyromidpoints are 0)
    p = BidiskParams(1.0, 0.5, 0.0, 0.0)
    pair = (Point2(0.99, -0.99), Point2(0.99j, -0.99j))
    assert _is_identity_frame(p, [pair])
    errors = []

    def run():
        with pytest.raises(ConvergenceError) as info:
            full_kernels(p, [pair])
        errors.append(info.value)

    _assert_reads_sigma_to(monkeypatch, p, MAX_OUTER_TERMS + 1, run)
    (exc,) = errors
    assert str(exc) == "full_kernel did not converge in 500 outer terms"
    assert exc.terms_used == 724894
    assert exc.tail_estimate == pytest.approx(2695226514.0014634, rel=1e-12)


@pytest.mark.parametrize("tup, tail", [
    ((0.0, 4.0, 0.0, 0.0), 1952.3947885786088),
    ((0.3, 0.7, 1.0, 0.5), 5.468616443555659),
    ((1.0, 0.5, 0.0, 0.0), 89.58171902344006)])
def test_full_kernel_and_full_kernels_raise_at_the_order_cap(tup, tail,
                                                            monkeypatch):
    # with 20 orders at most, the first pair needs more; both paths raise
    # its outer error, with the terms of its 20 orders and the estimate at
    # the last one
    monkeypatch.setattr(bidisk, "MAX_OUTER_TERMS", 20)
    p = BidiskParams(*tup)
    z, w = _batch_pairs()[0]
    assert _is_identity_frame(p, [(z, w)])
    for run in (lambda: full_kernel(p, z, w),
                lambda: full_kernels(p, _batch_pairs())):
        with pytest.raises(ConvergenceError) as info:
            run()
        assert str(info.value) == ("full_kernel did not converge in 20 "
                                   "outer terms")
        assert info.value.terms_used == 1400
        assert info.value.tail_estimate == pytest.approx(tail, rel=1e-12)


def test_full_kernels_raise_in_pair_order(monkeypatch):
    # with 20 orders and 100 inner terms at most, the near-antipodal pair's
    # first inner series fails and the first batch pair's outer series does
    # not stop (its inner series do); the batch raises the earlier pair's
    # error, as a loop over full_kernel does
    monkeypatch.setattr(bidisk, "MAX_OUTER_TERMS", 20)
    monkeypatch.setattr(bidisk, "MAX_TERMS", 100)
    p = BidiskParams(1.0, 0.5, 0.0, 0.0)
    inner = (Point2(0.93, -0.93), Point2(0.93j, -0.93j))
    outer = _batch_pairs()[0]
    with pytest.raises(ConvergenceError, match="q_kernel inner series"):
        full_kernels(p, [inner, outer])
    with pytest.raises(ConvergenceError, match="20 outer terms") as info:
        full_kernels(p, [outer, inner])
    assert info.value.terms_used == 1400


@pytest.mark.parametrize("kernel", [
    full_kernel, lambda p, z, w: full_kernels(p, [(z, w)])[0]],
    ids=["full_kernel", "full_kernels"])
def test_kernels_at_the_order_cap_stand_within_the_tolerance_of_the_sum(
        kernel, monkeypatch):
    # with 60 orders at most, the estimate at the last order (3.7e-12) is
    # above the tolerance but within the tolerance of the kernel (about 41),
    # so the 60 orders' sum is the result; it is the product kernel
    # (1 - 0.49)^-5.5 to within that estimate
    monkeypatch.setattr(bidisk, "MAX_OUTER_TERMS", 60)
    p = BidiskParams(1.0, 0.5, 0.0, 0.0)
    z = Point2(0.7, -0.7)
    assert _is_identity_frame(p, [(z, z)])
    r = kernel(p, z, z)
    assert r.terms_used == 2640
    assert TOLERANCE < r.tail_bound
    assert r.tail_bound <= TOLERANCE * abs(r.value)
    assert abs(r.value - 0.51 ** -5.5) <= r.tail_bound


def test_full_kernels_check_every_pair_first(monkeypatch):
    def no_series(*args):
        raise AssertionError("a series ran before every pair was checked")

    monkeypatch.setattr(bidisk, "_inner_sums", no_series)
    pairs = _batch_pairs()
    pairs.insert(9, (Point2(0.2, 0.1), Point2(1.0, 0.0)))
    with pytest.raises(DomainError):
        full_kernels(BidiskParams(1.0, 0.5, 0.0, 0.0), pairs)


def test_full_kernels_raise_the_first_failing_pairs_error(monkeypatch):
    # with 60 terms per inner series three pairs fail in their frames (four
    # failed with 100 in the direct frame), each with its own tail estimate;
    # the batch raises what a loop over full_kernel raises
    p = BidiskParams(1.0, 0.5, 0.0, 0.0)
    monkeypatch.setattr(bidisk, "MAX_TERMS", 60)
    pairs = _batch_pairs()[4:]
    failures = []
    for z, w in pairs:
        try:
            full_kernel(p, z, w)
        except ConvergenceError as exc:
            failures.append(exc)
    assert len(failures) >= 2
    with pytest.raises(ConvergenceError) as info:
        full_kernels(p, pairs)
    assert str(info.value) == str(failures[0])
    assert info.value.terms_used == failures[0].terms_used
    assert info.value.tail_estimate == pytest.approx(
        failures[0].tail_estimate, rel=1e-12)
