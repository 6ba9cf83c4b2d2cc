"""Sparse complex polynomials in two variables.

These carry every test function f and all restriction transforms: a function
on the zero variety is a polynomial in z1, a BiPoly whose keys are all
(m, 0).  Arithmetic is exact in double-precision complex; canonical form
drops exactly-zero coefficients.
"""

from __future__ import annotations

import bisect
import cmath
import re
from dataclasses import dataclass, field

from .errors import DivisibilityError, DomainError

_DIV_TOL = 1e-10


def _clean(coeffs: dict) -> dict:
    return {k: complex(v) for k, v in coeffs.items() if v != 0}


@dataclass(frozen=True)
class BiPoly:
    """sum_{m,n} c_{m,n} z1^m z2^n with sparse coefficient storage."""

    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _clean(self.coeffs))

    @property
    def total_degree(self) -> int:
        return max((m + n for m, n in self.coeffs), default=-1)

    def degree_in(self, variable: int) -> int:
        idx = variable - 1
        return max((key[idx] for key in self.coeffs), default=-1)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "BiPoly") -> "BiPoly":
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return BiPoly(out)

    def scale(self, factor: complex) -> "BiPoly":
        return BiPoly({k: factor * c for k, c in self.coeffs.items()})

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + other.scale(-1)

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        out: dict = {}
        for (m1, n1), c1 in self.coeffs.items():
            for (m2, n2), c2 in other.coeffs.items():
                key = (m1 + m2, n1 + n2)
                out[key] = out.get(key, 0) + c1 * c2
        return BiPoly(out)

    def differentiate(self, variable: int, order: int = 1) -> "BiPoly":
        """Exact partial derivative d^order / d z_variable^order."""
        if variable not in (1, 2):
            raise DomainError("variable must be 1 or 2")
        if order < 0:
            raise DomainError("derivative order must be >= 0")
        out: dict = {}
        for (m, n), c in self.coeffs.items():
            power = m if variable == 1 else n
            if power < order:
                continue
            # one factor at a time, so each value rounds as it does under
            # repeated first derivatives
            for j in range(order):
                c = (power - j) * c
            out[(m - order, n) if variable == 1 else (m, n - order)] = c
        return BiPoly(out)

    def restrict_diagonal(self) -> "BiPoly":
        """f(z1, z2) -> f(z1, z1), a polynomial in z1."""
        out: dict = {}
        for (m, n), c in self.coeffs.items():
            out[(m + n, 0)] = out.get((m + n, 0), 0) + c
        return BiPoly(out)

    def divide_diag_power(self, power: int) -> "BiPoly":
        """Exact division by (z1 - z2)^power; raises DivisibilityError when
        the remainder, a polynomial in z2, is nonzero."""
        if power < 0:
            raise DomainError("power must be >= 0")
        out = self
        for _ in range(power):
            out = out._divide_diag_once()
        return out

    def _divide_diag_once(self) -> "BiPoly":
        # synthetic division by (z1 - z2) in z1; the coefficient of each
        # power of z1 is a polynomial in z2, kept as an {n: c} dict
        rows: dict = {}
        for (m, n), c in self.coeffs.items():
            rows.setdefault(m, {})[n] = c
        out: dict = {}
        carry: dict = {}
        for m in range(max(rows, default=0), -1, -1):
            row = dict(rows.get(m, {}))
            for n, c in carry.items():
                row[n + 1] = row.get(n + 1, 0) + c
            carry = row
            if m:
                out.update(((m - 1, n), c) for n, c in row.items())
        remainder = BiPoly({(0, n): c for n, c in carry.items()})
        if remainder.max_abs_coeff() > _DIV_TOL * max(1.0, self.max_abs_coeff()):
            raise DivisibilityError(
                "polynomial is not divisible by (z1 - z2)", remainder=remainder)
        return BiPoly(out)

    def evaluate(self, z1: complex, z2: complex) -> complex:
        return sum((c * z1 ** m * z2 ** n for (m, n), c in self.coeffs.items()),
                   0j)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    # ---- text form -------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "BiPoly":
        """Parse "c*z1^m*z2^n + ..."; coefficients are plain reals or
        "(re,im)" pairs; bare z1/z2 mean exponent 1.  A term is at most one
        coefficient times powers of z1 and z2 in any order, and the powers
        of a variable multiply: "z2*z1^2*3*z1" is 3 z1^3 z2.  Whitespace is
        ignored, except inside a number or a power ("2 3", "z1^1 2"), where
        it is a DomainError."""
        return _parse_bipoly(text)

    def format(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for (m, n), c in sorted(self.coeffs.items()):
            if c.imag == 0:
                coeff = f"{c.real:g}"
            else:
                coeff = f"({c.real:g},{c.imag:g})"
            factors = [coeff]
            if m:
                factors.append(f"z1^{m}" if m > 1 else "z1")
            if n:
                factors.append(f"z2^{n}" if n > 1 else "z2")
            parts.append("*".join(factors))
        return " + ".join(parts)


# one factor of a term: a power of z1 or z2, with or without a "*" before
# it, or the coefficient, with a "*" before it unless it leads the term
_FACTOR_RE = re.compile(
    r"\*?z(?P<var>[12])(\^(?P<power>\d+))?"
    r"|(?P<star>\*)?(?P<coeff>\([^)]*\)|[0-9.eE+-]+)")


# a blank between two characters of one number or one power: "2 3", "1.5 e3",
# "1e- 3", "z 1", "z1 ^2" or "z1^1 2"; it leads with the blank, which is
# rarer than digits, so that a search skips ahead quickly
_SPLIT_NUMBER_RE = re.compile(
    r"\s(?:(?<=[\d.]\s)\s*[\d.eE^]|(?<=[eE^]\s)\s*\S"
    r"|(?<=[eE][+-]\s)\s*\d|(?<=z\s)\s*[12])")


def _parse_coeff(text: str, term: str) -> complex:
    text = text.strip()
    try:
        if text.startswith("(") and text.endswith(")"):
            re_, im = text[1:-1].split(",")
            value = complex(float(re_), float(im))
        else:
            value = complex(float(text))
    except ValueError:
        raise DomainError(f"cannot parse coefficient {text!r} of polynomial "
                          f"term {term!r}") from None
    if not cmath.isfinite(value):
        raise DomainError(f"coefficient {text!r} of polynomial term {term!r} "
                          f"is not finite in double precision")
    return value


def _parse_bipoly(text: str) -> BiPoly:
    cleaned = "".join(text.split())
    if not cleaned:
        raise DomainError("empty polynomial text")
    # split into signed terms at top level (parens only hold coefficients)
    cuts = [0]
    depth = 0
    for i, ch in enumerate(cleaned):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif (ch in "+-" and depth == 0 and i > 0
              and cleaned[i - 1] not in "eE(,+-*^"):
            cuts.append(i)
    cuts.append(len(cleaned))
    blank = _SPLIT_NUMBER_RE.search(text)
    if blank:
        # the term around the blank, as written; the character before the
        # blank is the at.index(blank.start() - 1)-th of the cleaned text
        at = [i for i, ch in enumerate(text) if not ch.isspace()]
        k = bisect.bisect_right(cuts, at.index(blank.start() - 1)) - 1
        term = text[at[cuts[k]]:at[cuts[k + 1] - 1] + 1]
        raise DomainError(f"blank inside a number or power of polynomial "
                          f"term {term!r}")
    terms = [cleaned[a:b] for a, b in zip(cuts, cuts[1:])]

    out: dict = {}
    for raw in terms:
        term = raw
        sign = 1.0
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        coeffs, powers, pos = [], [0, 0], 0
        while pos < len(term):
            match = _FACTOR_RE.match(term, pos)
            if not match or (match["coeff"] is not None
                             and bool(pos) != bool(match["star"])):
                raise DomainError(f"cannot parse polynomial term: {raw!r}")
            if match["var"]:
                powers[int(match["var"]) - 1] += int(match["power"] or 1)
            else:
                coeffs.append(match["coeff"])
            pos = match.end()
        if not term or len(coeffs) > 1:
            raise DomainError(f"cannot parse polynomial term: {raw!r}")
        coeff = _parse_coeff(coeffs[0], raw) if coeffs else complex(1.0)
        key = tuple(powers)
        out[key] = out.get(key, 0) + sign * coeff
    return BiPoly(out)
