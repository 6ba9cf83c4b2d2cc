import math

import mpmath
import pytest

from kernelforge.config import TruncationConfig
from kernelforge.errors import ConvergenceError, DomainError
from kernelforge.specfun import (_sum_3f2_rep, hyp2f1, hyp3f2_unit,
                                 log_gamma, mittag_e, pochhammer)


def test_log_gamma_matches_math():
    for x in (0.5, 1.0, 3.7, 12.0):
        assert log_gamma(x) == pytest.approx(math.lgamma(x))


def test_log_gamma_rejects_nonpositive():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-2.5)


def test_pochhammer_small_cases():
    assert pochhammer(3.0, 0) == 1.0
    assert pochhammer(3.0, 4) == pytest.approx(3 * 4 * 5 * 6)
    assert pochhammer(-2.0, 5) == 0.0  # hits the zero factor
    assert pochhammer(-2.0, 2) == pytest.approx(2.0)


def test_pochhammer_large_n_consistent_with_gamma():
    x, n = 2.5, 100
    expect = math.exp(math.lgamma(x + n) - math.lgamma(x))
    assert pochhammer(x, n) == pytest.approx(expect, rel=1e-12)


def test_pochhammer_negative_x_large_n_sign():
    # (-0.5)_40 crosses zero once, so the product is negative
    direct = 1.0
    for k in range(40):
        direct *= -0.5 + k
    assert pochhammer(-0.5, 40) == pytest.approx(direct, rel=1e-10)


def test_hyp2f1_log_identity():
    # 2F1(1,1;2;x) = -log(1-x)/x
    import cmath
    for x in (0.1, 0.5, -0.7, 0.3 + 0.4j):
        r = hyp2f1(1.0, 1.0, 2.0, x)
        expect = -cmath.log(1 - x) / x
        assert abs(r.value - expect) < 1e-11
        assert r.tail_bound >= 0


def test_hyp2f1_binomial_identity():
    # 2F1(a, b; b; x) = (1-x)^{-a}
    r = hyp2f1(2.5, 3.0, 3.0, 0.4)
    assert r.value.real == pytest.approx(0.6 ** -2.5, rel=1e-12)


@pytest.mark.parametrize("a, b, c, x, tolerance", [
    (30.0, 1.0, 0.5, 0.97, 1e-12),
    # (a)_n nearly vanishes from n = 4, then the terms grow by ~1e105
    # before their ratio falls below 1
    (-3 + 1e-12, 40.0, 0.5, 0.97, 1e-6),
])
def test_hyp2f1_no_stop_while_terms_grow(a, b, c, x, tolerance):
    r = hyp2f1(a, b, c, x, TruncationConfig(tolerance=tolerance))
    with mpmath.workdps(30):
        ref = complex(mpmath.hyp2f1(a, b, c, x))
    assert abs(r.value - ref) <= r.tail_bound


def test_hyp2f1_domain():
    with pytest.raises(DomainError):
        hyp2f1(1, 1, 2, 1.0)
    with pytest.raises(DomainError):
        hyp2f1(1, 1, -3.0, 0.5)


def test_hyp2f1_respects_term_cap():
    cfg = TruncationConfig(max_terms=5)
    with pytest.raises(ConvergenceError):
        hyp2f1(1.0, 1.0, 2.0, 0.95, cfg)


def test_hyp3f2_terminating():
    # an upper parameter 0 truncates after one term
    r = hyp3f2_unit(0.0, 5.0, 7.0, 2.0, 3.0)
    assert r.value.real == pytest.approx(1.0)
    # -2 truncates after three terms: 1 + a..., compare direct sum
    r = hyp3f2_unit(-2.0, 1.5, 2.5, 3.0, 4.0)
    direct = sum(
        pochhammer(-2.0, n) * pochhammer(1.5, n) * pochhammer(2.5, n)
        / (pochhammer(3.0, n) * pochhammer(4.0, n) * math.factorial(n))
        for n in range(3))
    assert r.value.real == pytest.approx(direct, rel=1e-14)


def test_hyp3f2_accelerated_matches_literal():
    # moderate excess: both paths converge and must agree
    args = (0.7, 1.2, 0.9, 2.0, 4.5)
    fast = hyp3f2_unit(*args)
    slow = _sum_3f2_rep(args[:3], args[3:], 1.0,
                        TruncationConfig(tolerance=1e-13))
    assert fast.value.real == pytest.approx(slow.value.real, rel=1e-9)
    assert fast.terms_used <= slow.terms_used


def test_hyp3f2_choice_ignores_term_cap():
    # the 3F2 of the bidisk sigma in test_sigma_small_excess_converges: the
    # representation summed must not depend on max_terms (at 100,000 the
    # literal series was summed, and did not converge)
    al, be, th, vt = (-0.6500383019843963, -0.5244096332704579,
                      0.10474667998505716, 0.04267424608896486)
    a, b = al + th + vt + 2.0, be + th + vt + 2.0
    args = (th + 1.0, a, a, al + th + 2.0, a + b)
    r1 = hyp3f2_unit(*args, cfg=TruncationConfig(max_terms=100_000))
    r2 = hyp3f2_unit(*args, cfg=TruncationConfig(max_terms=1_000_000))
    assert (r1.value, r1.terms_used) == (r2.value, r2.terms_used)


@pytest.mark.parametrize("args", [
    # a two-step form built from 12 log-Gammas was 6.3e-12 and 2.6e-12 off,
    # against bounds of 1.1e-13 and 3.8e-13
    (-0.9997137315366746, 0.12123811823822628, -1.2451720471278422,
     1.6228208798745696, 4.790508861295182),
    (-2.000766409390101, -0.4974900366960382, 2.570394618943724,
     3.229306491233219, 4.515336009585204),
])
def test_hyp3f2_within_tail_bound_of_mpmath(args):
    r = hyp3f2_unit(*args)
    with mpmath.workdps(20):
        ref = complex(mpmath.hyp3f2(*args, 1))
    assert abs(r.value - ref) <= r.tail_bound


def test_hyp3f2_divergent_rejected():
    with pytest.raises(DomainError):
        hyp3f2_unit(2.0, 2.0, 2.0, 1.0, 1.0)  # excess -4


def test_mittag_theta_zero_is_exp():
    r = mittag_e(0.0, 2.0 + 1.0j)
    import cmath
    assert abs(r.value - cmath.exp(2.0 + 1.0j)) < 1e-12


def test_mittag_theta_one():
    # sum x^N / (N+1)! = (e^x - 1)/x
    x = 1.7
    r = mittag_e(1.0, x)
    assert r.value.real == pytest.approx((math.exp(x) - 1) / x, rel=1e-12)


def test_mittag_domain():
    with pytest.raises(DomainError):
        mittag_e(-1.0, 1.0)
