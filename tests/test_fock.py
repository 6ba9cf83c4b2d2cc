import cmath
import math

import mpmath
import numpy as np
import pytest

from kernelforge import oracle, verify
from kernelforge.config import Point2
from kernelforge.errors import DomainError
from kernelforge.fock import (FockParams, coeff_c, fock_diag_kernel,
                              fock_full_kernel, fock_norm_expansion,
                              fock_q0_kernel, fock_restriction_transform,
                              fock_sigma)
from kernelforge.poly2 import BiPoly


def test_params_validation():
    with pytest.raises(DomainError):
        FockParams(0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        FockParams(1.0, 1.0, -1.0)
    assert FockParams(1.0, 2.0).gamma == pytest.approx(3.0)


def test_sigma_values():
    assert fock_sigma(FockParams(1, 1, 0)) == pytest.approx(1.0)
    assert fock_sigma(FockParams(2, 3, 0)) == pytest.approx(6.0)
    assert fock_sigma(FockParams(1, 1, 1)) == pytest.approx(0.5)


def test_diag_kernel():
    p = FockParams(1, 1, 0)
    z, w1 = Point2(0.4, -0.3j), 0.5 + 0.2j
    got = fock_diag_kernel(p, z, w1)
    expect = np.exp(np.conj(w1) * (z.z1 + z.z2))
    assert abs(got - expect) < 1e-12
    assert fock_diag_kernel(FockParams(2, 1, 1.5), Point2(0, 0), 0.7) == \
        pytest.approx(fock_sigma(FockParams(2, 1, 1.5)))


def test_q0_kernel_values():
    p = FockParams(1, 1, 1)
    assert fock_q0_kernel(p, Point2(1, 0), Point2(0, 1)) == \
        pytest.approx(math.exp(0.5) / 2)
    assert fock_q0_kernel(p, Point2(0, 0), Point2(0, 0)) == \
        pytest.approx(fock_sigma(p))
    # diagonal w reduces to the diagonal kernel
    z = Point2(0.3, -0.2)
    assert abs(fock_q0_kernel(p, z, Point2(0.4, 0.4))
               - fock_diag_kernel(p, z, 0.4)) < 1e-13


def test_full_kernel_theta_zero_product():
    p = FockParams(1.5, 0.5, 0)
    z, w = Point2(0.7 + 0.1j, -0.4), Point2(0.2, 1.1j)
    got = fock_full_kernel(p, z, w).value
    expect = (1.5 * 0.5 * np.exp(1.5 * z.z1 * np.conj(w.z1)
                                 + 0.5 * z.z2 * np.conj(w.z2)))
    assert abs(got - expect) < 1e-11 * abs(expect)


def test_full_kernel_diagonal_z():
    p = FockParams(1, 2, 0.7)
    got = fock_full_kernel(p, Point2(0.5, 0.5), Point2(0.3, -0.1)).value
    # Hermitian symmetry links it to the diagonal kernel at conjugate points
    expect = np.conj(fock_diag_kernel(p, Point2(0.3, -0.1), 0.5))
    assert abs(got - expect) < 1e-12 * abs(expect)


def test_full_kernel_vs_reference():
    rng = np.random.default_rng(8)
    for th in (0.0, 0.5, 1.0, 2.5):
        p = FockParams(1.3, 0.7, th)
        for _ in range(5):
            pts = rng.uniform(-2, 2, 8)
            z = Point2(complex(pts[0], pts[1]), complex(pts[2], pts[3]))
            w = Point2(complex(pts[4], pts[5]), complex(pts[6], pts[7]))
            a = fock_full_kernel(p, z, w).value
            b = verify._fock_reference(p, z, w)
            assert abs(a - b) <= 1e-10 * abs(a)


@pytest.mark.parametrize("z1,z2,w1,w2", [
    (math.nan, 0, 0, 0), (math.inf, 0, 0, 0), (30, 30, 30, 30)])
def test_full_kernel_not_finite_is_domain_error(z1, z2, w1, w2):
    # NaN and inf summed 100,000 terms of mittag_e before a ConvergenceError;
    # at (30, 30, 30, 30) the prefactor e^1800 raised OverflowError
    with pytest.raises(DomainError):
        fock_full_kernel(FockParams(1, 1), Point2(z1, z2), Point2(w1, w2))


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0, 2.5])
def test_reference_e_theta_against_mpmath(theta):
    # E_theta(x) = 1F1(1; theta+1; x) / Gamma(theta+1); the largest radius
    # sits just inside |x| = 30 so that rounding in x cannot cross it
    for r in (0.0, 1.0, 7.5, 15.0, 29.999):
        for k in range(16):
            x = r * cmath.exp(2j * math.pi * k / 16)
            with mpmath.workdps(30):
                ref = complex(mpmath.hyp1f1(1, theta + 1, x)
                              / mpmath.gamma(theta + 1))
            assert abs(verify._e_theta(theta, x) - ref) <= 1e-11 * abs(ref)


@pytest.mark.parametrize("theta,x", [(0.0, 30.5), (1.0, -31.0),
                                     (2.5, 25j + 25), (1.0, float("nan"))])
def test_reference_e_theta_refuses_outside_its_range(theta, x):
    with pytest.raises(DomainError):
        verify._e_theta(theta, x)


def test_full_kernel_against_oracle_blocks():
    p = FockParams(1, 1, 1)
    kb = oracle.gram_kernel_blocks(oracle.gram_fock_exact(1, 1, 1, 25))
    z, w = Point2(0.5, -0.5), Point2(1.0, 0.0)
    ref = oracle.kernel_from_blocks(kb, z.z1, z.z2, w.z1, w.z2)
    assert abs(fock_full_kernel(p, z, w).value - ref) < 1e-9


def test_coeff_c():
    p = FockParams(1, 1, 0)
    assert coeff_c(p, 2, 2) == 1.0
    assert coeff_c(p, 0, 1) == pytest.approx(-0.5)
    with pytest.raises(DomainError):
        coeff_c(p, 3, 2)


def test_delta_identities_check_coeff_c(monkeypatch):
    # criterion 10's Gaussian half typed c_{k,N}/N! out inline, so it passed
    # whatever coeff_c returned
    monkeypatch.setattr("kernelforge.fock.coeff_c",
                        lambda p, k, N: 2.0 * coeff_c(p, k, N))
    report = verify.run_suite("delta-identities")
    assert not report["passed"]
    assert all(it["passed"] == it["item"].startswith("bidisk")
               for it in report["items"])


def test_restriction_transform():
    p = FockParams(1, 1, 0)
    assert fock_restriction_transform(p, BiPoly.parse("1"), 0).coeffs == \
        {(0, 0): 1.0 + 0j}
    assert fock_restriction_transform(p, BiPoly.parse("z1"), 0).coeffs == \
        {(1, 0): 1.0 + 0j}
    t = fock_restriction_transform(p, BiPoly.parse("z1 - z2"), 1)
    assert t.coeffs == {(0, 0): pytest.approx(1.0 + 0j)}


def test_restriction_transform_matches_oracle_projection():
    p = FockParams(1.0, 2.0, 1.0)
    g = oracle.gram_fock_exact(1.0, 2.0, 1.0, 4)
    f = BiPoly.parse("z1^2 + z2")
    pn, _ = oracle.project(g, f, 1)
    ref = pn.divide_diag_power(1).restrict_diagonal()
    t = fock_restriction_transform(p, f, 1)
    for m in set(ref.coeffs) | set(t.coeffs):
        assert t.coeffs.get(m, 0) == pytest.approx(ref.coeffs.get(m, 0),
                                                   abs=1e-12)


def test_norm_expansion_examples():
    assert fock_norm_expansion(FockParams(1, 1, 0), BiPoly.parse("1")).total \
        == pytest.approx(1.0)
    assert fock_norm_expansion(FockParams(1, 1, 0),
                               BiPoly.parse("z1 - z2")).total \
        == pytest.approx(2.0)


def test_norm_expansion_against_oracle():
    rng = np.random.default_rng(12)
    for th in (0, 1, 2):
        p = FockParams(1.0, 2.0, float(th))
        g = oracle.gram_fock_exact(1.0, 2.0, float(th), 6)
        for _ in range(3):
            f = BiPoly({(m, n): complex(*rng.standard_normal(2))
                        for m in range(3) for n in range(3)})
            assert fock_norm_expansion(p, f).total == pytest.approx(
                g.norm_sq(f), rel=1e-11)


@pytest.mark.parametrize("n", [20, 40, 80, 120])
def test_high_power_totals_do_not_cancel(n):
    # ||z1^n||^2 = n! / (alpha^(n+1) beta) at theta = 0; the alternating
    # transform sums were off by 2.4e-6 relative at alpha = beta = 3, n = 40
    f = BiPoly.parse(f"z1^{n}")
    for al, be in ((3.0, 3.0), (1.3, 0.7)):
        want = float(mpmath.factorial(n) / (mpmath.mpf(al) ** (n + 1) * be))
        got = fock_norm_expansion(FockParams(al, be, 0.0), f).total
        assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("th", [0.0, 0.5, 1.5])
def test_norm_expansion_terms_match_order_parts_at_degree_18(th):
    # fractional theta is compared with the exact (u, v) Gram blocks
    rng = np.random.default_rng(18)
    g = oracle.gram_fock_exact(1.3, 0.7, th, 18)
    f = BiPoly({(m, d - m): complex(*rng.standard_normal(2))
                for d in range(19) for m in range(d + 1)})
    norm = g.norm_sq(f)
    parts = oracle.order_parts(g, f)
    for N, term in fock_norm_expansion(FockParams(1.3, 0.7, th), f).terms:
        assert abs(term - g.norm_sq(parts[N])) <= 1e-12 * norm


def test_restriction_inequality():
    # the N=0 term alone is a lower bound for the norm
    rng = np.random.default_rng(13)
    p = FockParams(1.0, 1.0, 1.0)
    g = oracle.gram_fock_exact(1.0, 1.0, 1.0, 4)
    for _ in range(5):
        f = BiPoly({(m, n): complex(*rng.standard_normal(2))
                    for m in range(3) for n in range(2)})
        # weight of the N=0 expansion term
        w0 = ((p.gamma / (p.alpha * p.beta)) ** (p.theta + 1)
              * math.gamma(p.theta + 1))
        # the 1D monomial norms n!/gamma^(n+1)
        lhs = w0 * sum(abs(c) ** 2 * math.factorial(n) / p.gamma ** (n + 1)
                       for (n, _), c in f.restrict_diagonal().coeffs.items())
        assert lhs <= g.norm_sq(f) * (1 + 1e-9)


@pytest.mark.parametrize("al,be,th", [(1.0, 2.0, 0), (1.3, 0.7, 1),
                                      (1.0, 1.0, 2)])
def test_norm_expansion_terms_against_projection(al, be, th):
    rng = np.random.default_rng(23)
    p = FockParams(al, be, float(th))
    g = oracle.gram_fock_exact(al, be, float(th), 6)
    for _ in range(4):
        f = BiPoly({(m, n): complex(*rng.standard_normal(2))
                    for m in range(4) for n in range(4) if m + n <= 6})
        for N, term in fock_norm_expansion(p, f).terms:
            _, qN = oracle.project(g, f, N)
            assert term == pytest.approx(g.norm_sq(qN), rel=1e-11)
