import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelforge import bidisk, fock, oracle
from kernelforge.ball import (BallParams, ball_full_kernel,
                              ball_full_kernel_series,
                              ball_hardy_norm_expansion, ball_norm_expansion,
                              ball_qN_kernel, embed_const)
from kernelforge.config import Point2
from kernelforge.errors import DomainError
from kernelforge.poly2 import BiPoly


def test_params_validation():
    with pytest.raises(DomainError):
        BallParams(-1.0, 0, 0)
    BallParams(-0.5, 2.0, 0.25)


def test_embed_const_base_case():
    assert embed_const(BallParams(0, 0, 0), 0) == pytest.approx(0.5)


def test_embed_const_ratio_recursion():
    p = BallParams(0.5, 1.0, 0.25)
    for N in range(4):
        ratio = embed_const(p, N + 1) / embed_const(p, N)
        expect = ((p.theta + N + 1)
                  * (p.alpha + p.beta + p.theta + N + 2)
                  / ((p.alpha + p.beta + p.theta + N + 3)
                     * (p.alpha + p.theta + N + 2)))
        assert ratio == pytest.approx(expect, rel=1e-12)


def test_embed_const_matches_monomial_norms():
    p = BallParams(0.5, 1.0, 0.25)
    for N in range(5):
        assert embed_const(p, N) == pytest.approx(
            oracle.ball_monomial_norm(0.5, 1.0, 0.25, 0, N), rel=1e-12)


def test_norm_expansion_examples():
    p = BallParams(0, 0, 0)
    assert ball_norm_expansion(p, BiPoly.parse("1")).total == pytest.approx(0.5)
    assert ball_norm_expansion(p, BiPoly.parse("z2")).total == pytest.approx(1 / 6)
    cross = ball_norm_expansion(p, BiPoly.parse("z1 + z2")).total
    sep = (ball_norm_expansion(p, BiPoly.parse("z1")).total
           + ball_norm_expansion(p, BiPoly.parse("z2")).total)
    assert cross == pytest.approx(sep, rel=1e-12)
    # f = 0 has no vanishing orders, and its total was the int 0
    zero = ball_norm_expansion(p, BiPoly.parse("0")).total
    assert type(zero) is float and zero == 0.0


def test_norm_expansion_against_oracle():
    rng = np.random.default_rng(9)
    p = BallParams(1.5, -0.5, 2.0)
    g = oracle.ball_monomial_norms(1.5, -0.5, 2.0, 8)
    for _ in range(5):
        f = BiPoly({(m, n): complex(*rng.standard_normal(2))
                    for m in range(4) for n in range(4)})
        assert ball_norm_expansion(p, f).total == pytest.approx(
            g.norm_sq(f), rel=1e-11)


def test_qN_kernel_reproduces_z2_powers():
    p = BallParams(0, 0, 0)
    g = oracle.ball_monomial_norms(0, 0, 0, 8)
    w = Point2(0.2 - 0.1j, 0.25j)
    for N in (0, 1, 2):
        # truncated kernel section in z, high enough degree for exactness
        coeffs = {}
        from math import comb
        power = p.alpha + p.beta + p.theta + N + 3
        for m in range(9 - N):
            binom = 1.0
            for i in range(m):
                binom *= (power + i) / (i + 1)
            coeffs[(m, N)] = (np.conj(w.z2) ** N / embed_const(p, N)
                              * binom * np.conj(w.z1) ** m)
        section = BiPoly(coeffs)
        got = g.inner_product(BiPoly({(0, N): 1.0}), section)
        assert abs(got - w.z2 ** N) < 1e-12


def test_full_kernel_closed_vs_series():
    p = BallParams(0.5, 1.0, 0.25)
    z, w = Point2(0.2, 0.3), Point2(0.1, 0.4)
    a = ball_full_kernel(p, z, w)
    b = ball_full_kernel_series(p, z, w)
    assert abs(a.value - b.value) < 1e-10


def test_full_kernel_origin():
    p = BallParams(0.5, 1.0, 0.25)
    got = ball_full_kernel(p, Point2(0, 0), Point2(0, 0)).value
    assert got.real == pytest.approx(ball_qN_kernel(p, 0, Point2(0, 0),
                                                    Point2(0, 0)).real)
    assert got.real == pytest.approx(1.0 / embed_const(p, 0), rel=1e-12)


def test_full_kernel_collapse():
    p = BallParams(0.7, 0.0, 0.0)
    z, w = Point2(0.3, 0.35), Point2(0.2 - 0.1j, 0.25j)
    got = ball_full_kernel(p, z, w).value
    expect = 1.7 * 2.7 * (1 - z.z1 * np.conj(w.z1)
                          - z.z2 * np.conj(w.z2)) ** -3.7
    assert abs(got - expect) < 1e-12


def test_kernel_domain_checks():
    p = BallParams(0, 0, 0)
    with pytest.raises(DomainError):
        ball_full_kernel(p, Point2(0.9, 0.9), Point2(0, 0))
    with pytest.raises(DomainError):
        ball_qN_kernel(p, -1, Point2(0, 0), Point2(0, 0))


def test_hardy_norm_expansion():
    assert ball_hardy_norm_expansion(0, 0, BiPoly.parse("1")).total == \
        pytest.approx(1.0)
    assert ball_hardy_norm_expansion(0, 0, BiPoly.parse("z2")).total == \
        pytest.approx(0.5)
    assert ball_hardy_norm_expansion(0, 0, BiPoly.parse("z1")).total == \
        pytest.approx(0.5)
    with pytest.raises(DomainError):
        ball_hardy_norm_expansion(-0.6, -0.5, BiPoly.parse("1"))


@pytest.mark.parametrize("expand,oracle_norm,exact", [
    (lambda f: ball_norm_expansion(BallParams(0, 0, 0), f),
     lambda: oracle.ball_monomial_norm(0, 0, 0, 0, 120), 1 / (121 * 122)),
    (lambda f: ball_hardy_norm_expansion(0, 0, f),
     lambda: oracle.ball_hardy_monomial_norm(0, 0, 0, 120), 1 / 121),
], ids=["bergman", "hardy"])
def test_norm_expansions_at_high_z2_order(expand, oracle_norm, exact):
    # dividing by the integer (N!)^2 overflowed the float range from N = 99
    # on; the closed forms exponentiate log-Gamma differences near 460,
    # which carry about 1e-13 of relative rounding at N = 120
    total = expand(BiPoly.parse("z2^120")).total
    assert total == pytest.approx(oracle_norm(), rel=2e-13)
    assert total == pytest.approx(exact, rel=2e-13)


@pytest.mark.parametrize("expand", [
    lambda f: bidisk.hardy_norm_expansion(float("nan"), f),
    lambda f: ball_hardy_norm_expansion(float("nan"), 0.0, f),
    lambda f: ball_hardy_norm_expansion(0.0, float("nan"), f)],
    ids=["bidisk-theta", "ball-beta", "ball-theta"])
def test_hardy_norm_expansions_reject_nan(expand):
    # the checks were written as `x <= bound`, which NaN passes, and every
    # term came out NaN
    with pytest.raises(DomainError):
        expand(BiPoly.parse("z1^2 - z2"))


@pytest.mark.parametrize("make", [
    lambda: bidisk.BidiskParams(math.inf, 0.0, 0.0),
    lambda: bidisk.BidiskParams(0.0, 0.0, 0.0, math.inf),
    lambda: BallParams(math.inf, 0.0, 0.0),
    lambda: BallParams(0.0, 0.0, math.inf),
    lambda: fock.FockParams(math.inf, 1.0),
    lambda: fock.FockParams(1.0, 1.0, math.inf),
    lambda: bidisk.hardy_norm_expansion(math.inf, BiPoly.parse("z1^2 - z2")),
    lambda: ball_hardy_norm_expansion(math.inf, 0.0, BiPoly.parse("z1")),
    lambda: ball_hardy_norm_expansion(0.0, math.inf, BiPoly.parse("z1"))],
    ids=["bidisk-alpha", "bidisk-vartheta", "ball-alpha", "ball-theta",
         "fock-alpha", "fock-theta", "hardy-theta", "ball-hardy-beta",
         "ball-hardy-theta"])
def test_infinite_parameters_are_refused(make):
    # the checks were one-sided: the Hardy expansions returned a total of 0.0
    # or NaN, and the Gaussian space's sigma came out NaN
    with pytest.raises(DomainError):
        make()


@pytest.mark.parametrize("call", [
    lambda: ball_qN_kernel(BallParams(0, 1e300, 0), 0, Point2(0.1, 0.1),
                           Point2(0.1, 0.1)),
    lambda: ball_qN_kernel(BallParams(1000, 0, 1000), 0, Point2(0.1, 0.1),
                           Point2(0.1, 0.1)),
    lambda: fock.fock_q0_kernel(fock.FockParams(1, 1, 0), Point2(30, 30),
                                Point2(30, 30)),
    lambda: fock.fock_q0_kernel(fock.FockParams(100, 100, 5),
                                Point2(1.87, 1.87), Point2(1.87, 1.87)),
    lambda: fock.fock_diag_kernel(fock.FockParams(1, 1, 0), Point2(800, 800),
                                  800)],
    ids=["ball-qN-power", "ball-qN-embed-underflow", "fock-q0-exp",
         "fock-q0-product", "fock-diag-exp"])
def test_kernels_past_double_range_are_domain_errors(call):
    # these raised OverflowError or ZeroDivisionError, or returned inf when
    # only the product of two finite factors overflowed
    with pytest.raises(DomainError, match="double precision"):
        call()


def test_hardy_is_limit_of_weighted_norms():
    # (alpha+1)(alpha+2) ||f||^2 tends to the surface norm as alpha -> -1
    f = BiPoly.parse("z1^2*z2 - z2^2 + 2")
    target = ball_hardy_norm_expansion(0.3, 0.6, f).total
    prev_gap = None
    for eps in (1e-3, 1e-5):
        p = BallParams(-1 + eps, 0.3, 0.6)
        val = (eps) * (1 + eps) * ball_norm_expansion(p, f).total
        gap = abs(val - target)
        if prev_gap is not None:
            assert gap < prev_gap / 10
        prev_gap = gap
    assert prev_gap < 1e-4


@pytest.mark.parametrize("al,be,th", [(0.0, 0.0, 0.0), (0.5, 1.0, 0.25),
                                      (1.5, -0.5, 2.0)])
def test_norm_expansion_terms_against_projection(al, be, th):
    rng = np.random.default_rng(21)
    p = BallParams(al, be, th)
    g = oracle.ball_monomial_norms(al, be, th, 6)
    for _ in range(4):
        f = BiPoly({(m, n): complex(*rng.standard_normal(2))
                    for m in range(4) for n in range(4) if m + n <= 6})
        for N, term in ball_norm_expansion(p, f).terms:
            _, qN = oracle.project(g, f, N)
            assert term == pytest.approx(g.norm_sq(qN), rel=1e-12)


@pytest.mark.parametrize("be,th", [(0.0, 0.0), (0.3, 0.6), (-0.5, 1.0),
                                   (-0.9, 0.25), (1.5, 2.0)])
def test_hardy_norm_expansion_against_oracle(be, th):
    # monomials are orthogonal for the surface measure, so the N-th term is
    # the sum of |c_mN|^2 ||z1^m z2^N||^2 over m
    rng = np.random.default_rng(22)
    for _ in range(10):
        deg = int(rng.integers(0, 9))
        f = BiPoly({(m, n): complex(*rng.standard_normal(2))
                    for m in range(deg + 1) for n in range(deg + 1 - m)
                    if rng.uniform() < 0.6})
        exp = ball_hardy_norm_expansion(be, th, f)
        ref = {}
        for (m, n), c in f.coeffs.items():
            ref[n] = ref.get(n, 0.0) + abs(c) ** 2 * \
                oracle.ball_hardy_monomial_norm(be, th, m, n)
        for N, term in exp.terms:
            assert term == pytest.approx(ref.get(N, 0.0), rel=1e-13)
        assert exp.total == pytest.approx(sum(ref.values()), rel=1e-13)


def _ball_kernel_mpmath(p, z, w):
    """The two-2F1 closed form of ball_full_kernel's docstring, at 30
    digits."""
    with mpmath.workdps(30):
        al, be, th = (mpmath.mpf(v) for v in (p.alpha, p.beta, p.theta))
        u = 1 - mpmath.mpc(z.z1) * mpmath.conj(w.z1)
        x = mpmath.mpc(z.z2) * mpmath.conj(w.z2) / u
        pref = (mpmath.gamma(al + th + 2)
                / (mpmath.gamma(al + 1) * mpmath.gamma(th + 1))
                * u ** (-(al + be + th + 3)))
        return complex(pref * ((al + th + 2) * mpmath.hyp2f1(al + th + 3, 1, th + 1, x)
                               + be * mpmath.hyp2f1(al + th + 2, 1, th + 1, x)))


_index = st.floats(-1.0, 3.0, exclude_min=True)
_angle = st.floats(0.0, 2.0 * math.pi)


@st.composite
def _ball_point(draw):
    r = draw(st.floats(0.0, 0.99))
    split = draw(st.floats(0.0, math.pi / 2))
    return Point2(cmath.rect(r * math.cos(split), draw(_angle)),
                  cmath.rect(r * math.sin(split), draw(_angle)))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_index, _index, _index, _ball_point(), _ball_point())
def test_full_kernel_within_tail_bound_of_mpmath(al, be, th, z, w):
    p = BallParams(al, be, th)
    got = ball_full_kernel(p, z, w)
    ref = _ball_kernel_mpmath(p, z, w)
    assert abs(got.value - ref) <= got.tail_bound + 1e-12 * max(1.0, abs(ref))
