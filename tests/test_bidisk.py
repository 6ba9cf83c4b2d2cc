import cmath
import math

import mpmath
import numpy as np
import pytest

from kernelforge import bidisk, cli, oracle, verify
from kernelforge.bidisk import (BidiskParams, coeff_a, coeff_b, diag_kernel,
                                full_kernel, full_kernels,
                                hardy_norm_expansion,
                                norm_expansion, q_kernel,
                                restriction_transform, sigma,
                                sigma_gamma_form, taylor_blocks)
from kernelforge.config import (CONSECUTIVE_SMALL, DEFAULT_CONFIG,
                               MAX_OUTER_TERMS, SAFETY_FACTOR, Point2,
                               TruncationConfig)
from kernelforge.errors import ConvergenceError, DomainError
from kernelforge.fock import (FockParams, coeff_c, fock_norm_expansion,
                              fock_restriction_transform)
from kernelforge.poly2 import BiPoly
from kernelforge.specfun import pochhammer


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
    r = bidisk._sigma_cached(*tup, TruncationConfig())
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
    from kernelforge.bidisk import disk_norm_sq
    rng = np.random.default_rng(4)
    g = oracle.gram_bidisk_exact(0.5, 0.5, 2, 5)
    p = BidiskParams(0.5, 0.5, 2, 0)
    for _ in range(5):
        f = BiPoly({(m, n): complex(*rng.standard_normal(2))
                    for m in range(3) for n in range(3)})
        lhs = disk_norm_sq(f.restrict_diagonal(), p.s) / sigma(p)
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


@pytest.mark.parametrize("n", [20, 40, 80, 120])
def test_high_power_totals_do_not_cancel(n):
    # the transforms summed a_{k,N} d^{N-k} [d1^k f restricted] over k, terms
    # that alternate and grow like 2^N times the result: z1^40 came out 66.50
    # (true 1/41) on the bidisk and 47,150 (true 1) on the torus
    f = BiPoly.parse(f"z1^{n}")
    for al in (0.0, 1.5):
        want = float(mpmath.factorial(n) / mpmath.rf(al + 2, n))
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
                (bidisk.diagonal_transform(f, N, bidisk._binomial_weights(
                    th + 1.0, th + 1.0, 2.0 * th, N)),
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
    # the transforms read one binomial matrix product per order; a path
    # that falls back to derivative arithmetic is several times slower
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


@pytest.mark.xfail(strict=True, reason="ROADMAP, 'True tail bounds for the "
                   "bidisk double series': full_kernel's tail bound misses a "
                   "factor growing with n and drops the inner tails, so it "
                   "reports 0.0 against an error of 6.8e-7")
def test_full_kernel_tail_bound_holds_on_diagonal():
    p = BidiskParams(1.0, 0.5, 0.0, 0.0)
    z = Point2(0.7, 0.7)
    r = full_kernel(p, z, z)
    assert abs(r.value - (1 - 0.49) ** -5.5) <= r.tail_bound


# (alpha, beta, theta, vartheta), z, w, terms_used, orders; counted with
# P_n, R_n and the tail recomputed from n at every inner term, so a faster
# loop must reach the same terms, not fewer
_TERM_CASES = {
    "product-far-apart": ((1.0, 0.5, 0.0, 0.0), Point2(0.8, -0.8),
                          Point2(-0.8j, 0.8j), 7560, 108),
    "product-diagonal": ((1.0, 0.5, 0.0, 0.0), Point2(0.7, 0.7),
                         Point2(0.7, 0.7), 111, 3),
    "vartheta": ((0.3, 0.7, 1.0, 0.5), Point2(0.5 + 0.2j, -0.3j),
                 Point2(0.1 - 0.6j, 0.45), 542, 20),
    "large-beta": ((0.0, 4.0, 0.0, 0.0), Point2(0.85j, -0.6),
                   Point2(-0.8j, 0.7 + 0.1j), 3321, 41),
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


def _outer_ends(params, pairs, cfg=DEFAULT_CONFIG):
    """Each pair's N_hi: the last order full_kernels runs for it."""
    counts, _, _ = bidisk._outer_tails(params, pairs, cfg)
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
    for r, g in zip(ref, got):
        assert (g.terms_used, g.tail_bound) == (r.terms_used, r.tail_bound)
        assert abs(g.value - r.value) <= 1e-12 * max(1.0, abs(r.value))


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


def _outer_rule_reference(params, z, w, sums, cfg):
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
    sig = [sigma(params.shifted(N), cfg) for N in range(len(sums) + 2)]
    total, streak = 0j, 0
    for N, inner in enumerate(sums):
        total += dz ** N * dw ** N * sig[N] * inner
        ratio = min(abs(dz * dw) * sig[N + 2] / sig[N + 1], 0.999)
        tail = (SAFETY_FACTOR * abs(dz * dw) ** (N + 1) * sig[N + 1]
                / (1 - rz * rw) / (1 - ratio))
        streak = streak + 1 if tail <= cfg.tolerance else 0
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
def test_outer_rule_stops_within_its_bound(tolerance):
    # the outer rule stops at N_hi, the first order that ends
    # CONSECUTIVE_SMALL tails within the tolerance: full_kernels, which runs
    # orders 0 .. N_hi alone, returns what the rule over those orders returns
    cfg = TruncationConfig(tolerance)
    p = BidiskParams(*_TERM_CASES["vartheta"][0])
    pairs = _bound_pairs()
    n_hi = _outer_ends(p, pairs, cfg)
    sums, terms, _ = bidisk._inner_sums(
        p, pairs, np.repeat(np.arange(len(pairs)), np.add(n_hi, 1)),
        np.concatenate([np.arange(n + 1) for n in n_hi]), cfg)
    got = full_kernels(p, pairs, cfg)
    assert min(n_hi) == CONSECUTIVE_SMALL - 1 and max(n_hi) > 64
    start = 0
    for (z, w), n, g in zip(pairs, n_hi, got):
        ref = _outer_rule_reference(
            p, z, w, sums[start:start + n + 1].tolist(), cfg)
        assert ref is not None
        total, stop, tail = ref
        assert stop == n
        assert g.terms_used == terms[start:start + stop + 1].sum()
        assert g.tail_bound == pytest.approx(tail, rel=1e-14)
        assert abs(g.value - total) <= 1e-13 * max(1.0, abs(total))
        start += n + 1


def test_full_kernels_raise_at_max_outer_terms(monkeypatch):
    # |dz dw| = 3.92, so the outer terms fall by about 0.98 per order and the
    # tail estimates do not end within MAX_OUTER_TERMS orders, nor is the
    # last one within the tolerance of the sum; the terms are those of every
    # order, the estimate the last order's, and sigma is read up to order
    # MAX_OUTER_TERMS + 1 and no further
    p = BidiskParams(1.0, 0.5, 0.0, 0.0)
    pair = (Point2(0.99, -0.99), Point2(0.99j, -0.99j))
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
    r = kernel(p, z, z)
    assert r.terms_used == 2640
    assert DEFAULT_CONFIG.tolerance < r.tail_bound
    assert r.tail_bound <= DEFAULT_CONFIG.tolerance * abs(r.value)
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
    # with 100 terms per inner series four pairs fail, each with its own
    # tail estimate; the batch raises what a loop over full_kernel raises
    p = BidiskParams(1.0, 0.5, 0.0, 0.0)
    monkeypatch.setattr(bidisk, "MAX_TERMS", 100)
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
