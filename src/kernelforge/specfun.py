"""Special-function core: log-Gamma, Pochhammer symbols, Gauss 2F1,
generalized 3F2 at unit argument, and the entire function E_theta.

A Pochhammer symbol (x)_n is one running product at every n, n roundings;
DomainError where a partial product overflows (for x >= 0, where (x)_n does).

All series carry explicit truncation-error accounting via SeriesResult.
The 3F2 at x=1 converges only algebraically (term decay ~ n^{-(s+1)} where
s is the parameter excess), so it is summed in whichever of the ten forms
that Thomae's relations connect (written out in _thomae_forms) terminates
soonest or, failing that, has the largest excess.  The rewriting is exact;
its Gamma prefactor is evaluated in log space with sign tracking, and the
3F2's tail_bound adds the rounding of that prefactor and of the sum.
"""

from __future__ import annotations

import cmath
import math

from .config import (CONSECUTIVE_SMALL, EPS, MAX_TERMS, SAFETY_FACTOR,
                     TOLERANCE, SeriesResult)
from .errors import ConvergenceError, DomainError

_INT_EPS = 1e-9


def _is_nonpositive_integer(x: float) -> bool:
    # tolerant, for poles: a parameter this close to one is refused; an
    # exact zero of a product or a terminating series needs x == round(x)
    return x <= _INT_EPS and abs(x - round(x)) <= _INT_EPS


def _require_finite(name: str, *args) -> None:
    # a NaN or infinite parameter would run every term of a series and end
    # in ConvergenceError
    if not all(map(cmath.isfinite, args)):
        raise DomainError(f"{name} requires finite arguments, got {args}")


def _require_finite_sum(name: str, total: complex) -> None:
    # a sum past double range stays inf or NaN up to the term cap
    if not cmath.isfinite(total):
        raise DomainError(f"{name} is not finite in double precision")


def log_gamma(x: float) -> float:
    """Natural logarithm of Gamma(x) for x > 0."""
    if not x > 0:  # NaN fails too
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _signed_log_gamma(x: float) -> tuple[float, float]:
    """(log|Gamma(x)|, sign) for any non-pole real x."""
    if _is_nonpositive_integer(x):
        raise DomainError(f"Gamma pole at x = {x}")
    # Gamma alternates sign on the negative axis: positive on (-2,-1), ...
    return math.lgamma(x), 1.0 if x > 0 or math.floor(x) % 2 == 0 else -1.0


def pochhammer(x: float, n: int) -> float:
    """Rising factorial x(x+1)...(x+n-1) as a running product; the empty
    product is 1.  DomainError where a partial product is not finite in
    double precision, also where the symbol is, as at (-171 + 2**-44, 172)."""
    if n < 0:
        raise DomainError(f"pochhammer requires n >= 0, got {n}")
    # An integer zero anywhere in the product forces an exact 0.
    if x <= 0 and x == round(x) and -round(x) < n:
        return 0.0
    out = 1.0
    for k in range(n):
        out *= x + k
    if not math.isfinite(out):
        raise DomainError(f"pochhammer({x}, {n}) is not finite in double "
                          f"precision")
    return out


def hyp2f1(a: float, b: float, c: float, x: complex) -> SeriesResult:
    """Gauss hypergeometric series sum_n (a)_n (b)_n / ((c)_n n!) x^n, |x| < 1."""
    _require_finite("hyp2f1", a, b, c)
    if _is_nonpositive_integer(c):
        raise DomainError(f"hyp2f1: c = {c} is a non-positive integer")
    ax = abs(x)
    if not ax < 1.0:  # NaN fails too
        raise DomainError(f"hyp2f1 requires |x| < 1, got |x| = {ax}")

    tolerance = TOLERANCE
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    small_streak = 0
    tail = math.inf
    # term is t_n = t_{n-1} * ratio * x, and ratio tends to 1: while
    # q = |x| max(1, |next ratio|) < 1 a geometric tail bound applies, and
    # before that no term may count toward the stop
    ratio = a * b / c
    for n in range(1, MAX_TERMS + 1):
        term *= ratio * x
        total += term
        ratio = (a + n) * (b + n) / ((c + n) * (n + 1))
        q = ax * abs(ratio)
        if q < ax:
            q = ax
        tail = SAFETY_FACTOR * abs(term) * q / (1.0 - q) if q < 1.0 else math.inf
        if tail <= tolerance or tail <= tolerance * abs(total):
            small_streak += 1
            if small_streak >= CONSECUTIVE_SMALL:
                return SeriesResult(total, n, tail)
        else:
            small_streak = 0
    _require_finite_sum(f"hyp2f1({a},{b},{c},{x})", total)
    raise ConvergenceError(
        f"hyp2f1({a},{b},{c},{x}) did not converge in {MAX_TERMS} terms",
        terms_used=MAX_TERMS, tail_estimate=tail)


def _terminating_length(uppers) -> int | None:
    """Number of terms if some upper parameter truncates the series."""
    hits = [-round(u) for u in uppers if u <= 0 and u == round(u)]
    return int(min(hits)) + 1 if hits else None


def _thomae_forms(a1: float, a2: float, a3: float, d: float, e: float):
    """3F2(a1, a2, a3; d, e; 1) and the nine forms that Thomae's relations
    connect to it (DLMF 16.4), as (uppers, lowers, num, den) with prefactor
    prod Gamma(num) / prod Gamma(den).  With s the excess, a one upper and
    b, c the other two:

    - one step: Gamma(d)Gamma(e)Gamma(s) / [Gamma(a)Gamma(s+b)Gamma(s+c)]
      3F2(d-a, e-a, s; s+b, s+c), of excess a;
    - two steps: Gamma(f)Gamma(s) / [Gamma(f-a)Gamma(s+a)]
      3F2(g-c, g-b, a; g, s+a), of excess f-a, for (f, g) = (d, e), (e, d).

    Order: the series, the one-step forms for a1, a2, a3, then the two-step
    forms for a1 (f = d, then e), a2, a3.  A form whose lower parameter or
    Gamma argument is a pole is left out."""
    s = (d + e) - (a1 + a2 + a3)
    splits = ((a1, a2, a3), (a2, a1, a3), (a3, a1, a2))
    forms = [((a1, a2, a3), (d, e), (), ())]
    forms += [((d - a, e - a, s), (s + b, s + c), (d, e, s), (a, s + b, s + c))
              for a, b, c in splits]
    forms += [((g - c, g - b, a), (g, s + a), (f, s), (f - a, s + a))
              for a, b, c in splits for f, g in ((d, e), (e, d))]
    return [form for form in forms if not any(
        map(_is_nonpositive_integer, form[1] + form[2] + form[3]))]


def _sum_3f2_rep(uppers, lowers, prefactor: float) -> SeriesResult:
    """prefactor * 3F2(uppers; lowers; 1), summed term by term; the
    tail_bound adds the summation's rounding, eps (n+2) sum_k |t_k|."""
    a1, a2, a3 = uppers
    b1, b2 = lowers
    s = sum(lowers) - sum(uppers)
    total = 1.0
    term = 1.0
    abs_sum = 1.0
    small_streak = 0
    tail = math.inf
    n_stop = _terminating_length(uppers)
    scale = abs(prefactor)
    for n in range(MAX_TERMS):
        term = term * ((a1 + n) * (a2 + n) * (a3 + n)) / ((b1 + n) * (b2 + n) * (n + 1))
        total += term
        abs_sum += abs(term)
        if n_stop is not None and n + 1 >= n_stop:
            return SeriesResult(complex(prefactor * total), n + 1,
                                scale * EPS * (n + 3) * abs_sum)
        # algebraic tail: sum_{m>n} C m^{-(s+1)} ~ |t_n| * n / s
        tail = SAFETY_FACTOR * abs(term) * max(n + 1, 1) / max(s, 1e-3)
        if tail <= TOLERANCE * max(1.0, abs(total)):
            small_streak += 1
            if small_streak >= CONSECUTIVE_SMALL:
                return SeriesResult(complex(prefactor * total), n + 1,
                                    scale * (tail + EPS * (n + 3) * abs_sum))
        else:
            small_streak = 0
    raise ConvergenceError(
        f"3F2 representation {uppers}/{lowers} did not converge "
        f"in {MAX_TERMS} terms",
        terms_used=MAX_TERMS, tail_estimate=scale * tail)


def hyp3f2_unit(a1: float, a2: float, a3: float, b1: float,
                b2: float) -> SeriesResult:
    """3F2(a1,a2,a3; b1,b2; 1).

    Requires b1+b2-a1-a2-a3 > 0 unless an upper parameter truncates the
    series.  Of the ten Thomae forms (_thomae_forms), sums a terminating one
    if any (the shortest), else the one with the largest excess, the first
    in their order on a tie; the choice depends on the parameters alone, not
    on the tolerance or the term cap.  The tail_bound counts the rounding of
    the sum and of the prefactor's log-Gammas.
    """
    _require_finite("hyp3f2_unit", a1, a2, a3, b1, b2)
    for b in (b1, b2):
        if _is_nonpositive_integer(b):
            raise DomainError(f"hyp3f2_unit: lower parameter {b} is a non-positive integer")
    excess = (b1 + b2) - (a1 + a2 + a3)
    if _terminating_length((a1, a2, a3)) is None and excess <= 0:
        size = abs(a1) + abs(a2) + abs(a3) + abs(b1) + abs(b2)
        # the subtraction, or the caller's own sums, may have rounded a
        # positive excess away
        if -excess <= 8 * EPS * size:
            raise DomainError(
                f"hyp3f2_unit at x=1: the excess {excess} is within rounding "
                f"of parameters of size {size:.3g} and cannot be resolved in "
                f"double precision")
        raise DomainError(f"hyp3f2_unit diverges at x=1: excess {excess} <= 0")

    def rank(form):
        # terminating forms first, shortest first; then the largest excess
        # s, whose terms decay fastest (like n^-(s+1))
        n_stop = _terminating_length(form[0])
        return (0, n_stop) if n_stop is not None else (1, sum(form[0]) - sum(form[1]))

    uppers, lowers, num, den = min(_thomae_forms(a1, a2, a3, b1, b2), key=rank)
    log_pref, sign, log_size = 0.0, 1.0, 0.0
    for args, sense in ((num, 1.0), (den, -1.0)):
        for x in args:
            lg, sg = _signed_log_gamma(x)
            log_pref += sense * lg
            sign *= sg
            log_size += abs(lg)
    r = _sum_3f2_rep(uppers, lowers, sign * math.exp(log_pref))
    # each log-Gamma and the exp round relative to the value
    return SeriesResult(r.value, r.terms_used,
                        r.tail_bound + 4 * EPS * (log_size + 1) * abs(r.value))


def mittag_e(theta: float, x: complex) -> SeriesResult:
    """Entire function sum_N x^N / Gamma(theta + N + 1) for theta > -1.

    At theta = 0 it is e^x from cmath.exp, as the series cancels at
    Re x < 0.  cmath.exp forms e^Re x (cos Im x + i sin Im x): exp, cos and
    sin each within one ulp (EPS relative), each product rounded once
    (EPS/2); past Re x = 708.4 it forms e^(Re x - 1) e, exactly subtracted,
    with two more roundings.  As cos^2 + sin^2 = 1 the error is at most
    (2 + 3/2) EPS |e^x| plus EPS^2 terms, within 4 EPS |value|, plus a few
    math.ulp(0.0) for a result in the subnormal range."""
    _require_finite("mittag_e", theta, x)
    if theta <= -1:
        raise DomainError(f"mittag_e requires theta > -1, got {theta}")
    if theta == 0:
        try:
            value = cmath.exp(x)
            size = abs(value)  # may overflow where the parts do not
        except OverflowError:
            raise DomainError(f"mittag_e(0, {x}) = exp({x}) is not finite in "
                              f"double precision") from None
        return SeriesResult(value, 1, 4 * EPS * size + 4 * math.ulp(0.0))
    tolerance = TOLERANCE
    ax = abs(x)
    term = complex(math.exp(-math.lgamma(theta + 1.0)))
    total = term
    small_streak = 0
    tail = math.inf
    for n in range(MAX_TERMS):
        term = term * x / (theta + n + 1.0)
        total += term
        q = ax / (theta + n + 2.0)
        if q < 1.0:
            tail = SAFETY_FACTOR * abs(term) * q / (1.0 - q)
            if tail <= tolerance or tail <= tolerance * abs(total):
                small_streak += 1
                if small_streak >= CONSECUTIVE_SMALL:
                    return SeriesResult(total, n + 1, tail)
            else:
                small_streak = 0
    _require_finite_sum(f"mittag_e({theta}, {x})", total)
    raise ConvergenceError(
        f"mittag_e({theta}, {x}) did not converge in {MAX_TERMS} terms",
        terms_used=MAX_TERMS, tail_estimate=tail)
