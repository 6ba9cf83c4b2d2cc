import math

import mpmath
import pytest

from kernelforge import ball, bidisk, specfun
from kernelforge.ball import BallParams
from kernelforge.config import CONSECUTIVE_SMALL, Point2
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


def test_pochhammer_near_integer_is_not_zero():
    # -3 + 1e-10 is not a non-positive integer, so no factor is exactly 0
    with mpmath.workdps(40):
        ref = float(mpmath.rf(mpmath.mpf(-3 + 1e-10), 5))
    assert pochhammer(-3 + 1e-10, 5) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("x,n", [(0.5, 31), (3.7, 150), (-30.5, 60),
                                 (2.5, 100), (-0.5, 40)])
def test_pochhammer_within_rounding_of_mpmath(x, n):
    # a running product rounds n times; exp(lgamma(x + n) - lgamma(x)) was
    # 1.6e-13 off at (3.7, 150).  (-0.5)_40 crosses zero once, so it is
    # negative
    with mpmath.workdps(40):
        ref = mpmath.rf(mpmath.mpf(x), n)
        assert abs((pochhammer(x, n) - ref) / ref) <= 1e-15


def test_pochhammer_past_double_range_is_a_domain_error():
    assert math.isfinite(pochhammer(2.0, 169))  # 170!
    with pytest.raises(DomainError, match="not finite"):
        pochhammer(2.0, 170)


def test_hyp3f2_unit_prefactor_with_a_negative_gamma_argument(monkeypatch):
    # the chosen Thomae form's prefactor takes Gamma(-0.953...), whose sign
    # comes from the negative axis
    args = (-1.7225508301479648, 2.49278638274345, 2.041012902950338,
            0.5620287074628949, 3.0188951265843267)
    seen = []
    signed = specfun._signed_log_gamma
    monkeypatch.setattr(specfun, "_signed_log_gamma",
                        lambda x: seen.append(x) or signed(x))
    r = hyp3f2_unit(*args)
    assert min(seen) < 0
    with mpmath.workdps(40):
        ref = complex(mpmath.hyp3f2(*args, 1))
    assert abs(r.value - ref) <= r.tail_bound


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
def test_hyp2f1_no_stop_while_terms_grow(a, b, c, x, tolerance,
                                         monkeypatch):
    monkeypatch.setattr(specfun, "TOLERANCE", tolerance)
    r = hyp2f1(a, b, c, x)
    with mpmath.workdps(30):
        ref = complex(mpmath.hyp2f1(a, b, c, x))
    assert abs(r.value - ref) <= r.tail_bound


def test_hyp2f1_domain():
    with pytest.raises(DomainError):
        hyp2f1(1, 1, 2, 1.0)
    with pytest.raises(DomainError):
        hyp2f1(1, 1, -3.0, 0.5)


def test_hyp2f1_respects_term_cap(monkeypatch):
    monkeypatch.setattr(specfun, "MAX_TERMS", 5)
    with pytest.raises(ConvergenceError):
        hyp2f1(1.0, 1.0, 2.0, 0.95)


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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(specfun, "TOLERANCE", 1e-13)
        slow = _sum_3f2_rep(args[:3], args[3:], 1.0)
    assert fast.value.real == pytest.approx(slow.value.real, rel=1e-9)
    assert fast.terms_used <= slow.terms_used


def test_hyp3f2_choice_ignores_term_cap(monkeypatch):
    # the 3F2 of the bidisk sigma in test_sigma_small_excess_converges: the
    # representation summed must not depend on the term cap (at 100,000 the
    # literal series was summed, and did not converge)
    al, be, th, vt = (-0.6500383019843963, -0.5244096332704579,
                      0.10474667998505716, 0.04267424608896486)
    a, b = al + th + vt + 2.0, be + th + vt + 2.0
    args = (th + 1.0, a, a, al + th + 2.0, a + b)
    monkeypatch.setattr(specfun, "MAX_TERMS", 100_000)
    r1 = hyp3f2_unit(*args)
    monkeypatch.setattr(specfun, "MAX_TERMS", 1_000_000)
    r2 = hyp3f2_unit(*args)
    assert (r1.value, r1.terms_used) == (r2.value, r2.terms_used)


@pytest.mark.parametrize("args", [
    # a two-step form built from 12 log-Gammas was 6.3e-12 and 2.6e-12 off,
    # against bounds of 1.1e-13 and 3.8e-13
    (-0.9997137315366746, 0.12123811823822628, -1.2451720471278422,
     1.6228208798745696, 4.790508861295182),
    (-2.000766409390101, -0.4974900366960382, 2.570394618943724,
     3.229306491233219, 4.515336009585204),
    # an upper parameter 5e-10 from -2 does not end the series after three
    # terms; doing so left the value 2.5e-13 off against a bound of 2.1e-15
    (-2 + 5e-10, 1.5, 1.0, 3.0, 4.0),
])
def test_hyp3f2_within_tail_bound_of_mpmath(args):
    r = hyp3f2_unit(*args)
    with mpmath.workdps(20):
        ref = complex(mpmath.hyp3f2(*args, 1))
    assert abs(r.value - ref) <= r.tail_bound


def test_hyp3f2_divergent_rejected():
    with pytest.raises(DomainError, match="diverges"):
        hyp3f2_unit(2.0, 2.0, 2.0, 1.0, 1.0)  # excess -4


def test_hyp3f2_excess_lost_to_rounding_is_not_called_divergent():
    # sigma's 3F2 at theta = 1e300 has excess beta + 1 = 1, rounded to 0 in
    # (b1 + b2) - (a1 + a2 + a3); the message blamed divergence
    with pytest.raises(DomainError, match="cannot be resolved in double "
                                          "precision"):
        bidisk.sigma(bidisk.BidiskParams(0, 0, 1e300, 0))
    with pytest.raises(DomainError, match="cannot be resolved"):
        hyp3f2_unit(1e17, 1.0, 1.0, 1e17, 1.5)  # excess 0.5, rounds to 0


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


def _mittag_mpmath(theta, x):
    """E_theta(x) = e^x x^-theta P(theta, x) (DLMF 8.7.1), e^x at theta = 0,
    at 40 digits."""
    with mpmath.workdps(40):
        x = mpmath.mpc(x)
        if theta == 0:
            return complex(mpmath.exp(x))
        return complex(mpmath.exp(x) * x ** -mpmath.mpf(theta)
                       * mpmath.gammainc(theta, 0, x, regularized=True))


_CANCELS = pytest.mark.xfail(
    strict=True, reason="ROADMAP, 'Stable `E_θ` over the whole plane, and "
                        "rounding you can see': the series cancels and its "
                        "tail_bound counts no rounding")


# each was off by the error given, against a tail_bound near 1e-13
@pytest.mark.parametrize("theta, x", [
    pytest.param(0.0, 40j, marks=_CANCELS),          # off by 2.94
    pytest.param(0.5, -30.0, marks=_CANCELS),        # off by 1.17e-5
    pytest.param(1.0, -20 + 5j, marks=_CANCELS),     # off by 5.0e-10
    (1.0, 2.0),
    (0.5, 3 + 1j),
])
def test_mittag_within_its_bound(theta, x):
    r = mittag_e(theta, x)
    assert abs(r.value - _mittag_mpmath(theta, x)) <= r.tail_bound


@_CANCELS
def test_hyp2f1_within_its_bound_near_the_unit_circle():
    # off by 0.0624 against a tail_bound of 2.75e-12
    a, b, c = 7.155143118341398, 4.554015136553035, 0.7798723382024035
    x = -0.027979607588170415 - 0.9500668689049111j
    r = hyp2f1(a, b, c, x)
    with mpmath.workdps(40):
        ref = complex(mpmath.hyp2f1(a, b, c, x))
    assert abs(r.value - ref) <= r.tail_bound


_SCALAR_SERIES = {
    "hyp2f1": lambda: specfun.hyp2f1(0.5, 1.5, 2.5, 0.6 + 0.2j),
    "mittag_e": lambda: specfun.mittag_e(0.5, 3.0 - 1.0j),
    "hyp3f2_unit": lambda: specfun.hyp3f2_unit(0.5, 0.7, 1.1, 4.6, 5.3),
    "ball_full_kernel_series": lambda: ball.ball_full_kernel_series(
        BallParams(0.5, 1.0, 0.25), Point2(0.3, 0.4j), Point2(-0.2, 0.5)),
}


@pytest.mark.parametrize("series", _SCALAR_SERIES.values(),
                         ids=list(_SCALAR_SERIES))
def test_series_stop_after_consecutive_small_tails(series, monkeypatch):
    # each tail estimate here falls with every term, so each further small
    # tail the stopping rule asks for costs one more term
    terms = series().terms_used
    for module in (specfun, ball):
        monkeypatch.setattr(module, "CONSECUTIVE_SMALL", CONSECUTIVE_SMALL + 2)
    assert series().terms_used == terms + 2
