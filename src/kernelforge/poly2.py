"""Sparse complex polynomials in one and two variables.

These carry every test function f and all diagonal-restriction transforms.
Arithmetic is exact in double-precision complex; canonical form drops
exactly-zero coefficients.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import DivisibilityError, DomainError

_DIV_TOL = 1e-10


def _clean(coeffs: dict) -> dict:
    return {k: complex(v) for k, v in coeffs.items() if v != 0}


@dataclass(frozen=True)
class UniPoly:
    """sum_m c_m z^m with sparse coefficient storage."""

    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _clean(self.coeffs))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max(self.coeffs, default=-1)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "UniPoly") -> "UniPoly":
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return UniPoly(out)

    def scale(self, factor: complex) -> "UniPoly":
        return UniPoly({m: factor * c for m, c in self.coeffs.items()})

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        out: dict = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
        return UniPoly(out)

    def shift(self, k: int) -> "UniPoly":
        """Multiply by z^k."""
        return UniPoly({m + k: c for m, c in self.coeffs.items()})

    def differentiate(self, order: int = 1) -> "UniPoly":
        if order < 0:
            raise DomainError("derivative order must be >= 0")
        out = self
        for _ in range(order):
            out = UniPoly({m - 1: m * c for m, c in out.coeffs.items() if m >= 1})
        return out

    def evaluate(self, z: complex) -> complex:
        # Horner over the sparse support
        total = 0.0 + 0.0j
        prev = None
        for m in sorted(self.coeffs, reverse=True):
            if prev is not None:
                total *= z ** (prev - m)
            total += self.coeffs[m]
            prev = m
        if prev is not None:
            total *= z ** prev
        return total

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)


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
        out = self
        for _ in range(order):
            new: dict = {}
            for (m, n), c in out.coeffs.items():
                if variable == 1 and m >= 1:
                    new[(m - 1, n)] = new.get((m - 1, n), 0) + m * c
                elif variable == 2 and n >= 1:
                    new[(m, n - 1)] = new.get((m, n - 1), 0) + n * c
            out = BiPoly(new)
        return out

    def restrict_diagonal(self) -> UniPoly:
        """f(z1, z2) -> f(z1, z1)."""
        out: dict = {}
        for (m, n), c in self.coeffs.items():
            out[m + n] = out.get(m + n, 0) + c
        return UniPoly(out)

    def restrict_z2_zero(self) -> UniPoly:
        """f(z1, z2) -> f(z1, 0)."""
        return UniPoly({m: c for (m, n), c in self.coeffs.items() if n == 0})

    def divide_diag_power(self, power: int) -> "BiPoly":
        """Exact division by (z1 - z2)^power; raises DivisibilityError when
        the remainder is nonzero."""
        if power < 0:
            raise DomainError("power must be >= 0")
        out = self
        for _ in range(power):
            out = out._divide_diag_once()
        return out

    def _divide_diag_once(self) -> "BiPoly":
        # view as polynomial in z1 with UniPoly-in-z2 coefficients and run
        # synthetic division by (z1 - z2)
        scale = max((abs(c) for c in self.coeffs.values()), default=0.0)
        by_z1: dict[int, UniPoly] = {}
        for (m, n), c in self.coeffs.items():
            by_z1[m] = by_z1.get(m, UniPoly()) + UniPoly({n: c})
        deg1 = max(by_z1, default=-1)
        quotient: dict[int, UniPoly] = {}
        carry = UniPoly()
        for m in range(deg1, 0, -1):
            carry = by_z1.get(m, UniPoly()) + carry.shift(1)
            quotient[m - 1] = carry
        remainder = by_z1.get(0, UniPoly()) + carry.shift(1)
        if remainder.max_abs_coeff() > _DIV_TOL * max(1.0, scale):
            raise DivisibilityError(
                "polynomial is not divisible by (z1 - z2)", remainder=remainder)
        out: dict = {}
        for m, qpoly in quotient.items():
            for n, c in qpoly.coeffs.items():
                out[(m, n)] = out.get((m, n), 0) + c
        return BiPoly(out)

    def evaluate(self, z1: complex, z2: complex) -> complex:
        # Horner in z1 over UniPoly-in-z2 coefficients
        by_z1: dict[int, UniPoly] = {}
        for (m, n), c in self.coeffs.items():
            by_z1[m] = by_z1.get(m, UniPoly()) + UniPoly({n: c})
        total = 0.0 + 0.0j
        prev = None
        for m in sorted(by_z1, reverse=True):
            if prev is not None:
                total *= z1 ** (prev - m)
            total += by_z1[m].evaluate(z2)
            prev = m
        if prev is not None:
            total *= z1 ** prev
        return total

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    # ---- text form -------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "BiPoly":
        """Parse "c*z1^m*z2^n + ..."; coefficients are plain reals or
        "(re,im)" pairs; bare z1/z2 mean exponent 1."""
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


_TERM_RE = re.compile(
    r"^(?P<coeff>\([^)]*\)|[+-]?[0-9.eE+-]+)?"
    r"(?P<z1>\*?z1(\^(?P<m>\d+))?)?"
    r"(?P<z2>\*?z2(\^(?P<n>\d+))?)?$")


def _parse_coeff(text: str, term: str) -> complex:
    text = text.strip()
    try:
        if text.startswith("(") and text.endswith(")"):
            re_, im = text[1:-1].split(",")
            return complex(float(re_), float(im))
        return complex(float(text))
    except ValueError:
        raise DomainError(f"cannot parse coefficient {text!r} of polynomial "
                          f"term {term!r}") from None


def _parse_bipoly(text: str) -> BiPoly:
    cleaned = text.replace(" ", "")
    if not cleaned:
        raise DomainError("empty polynomial text")
    # split into signed terms at top level (parens only hold coefficients)
    terms = []
    depth = 0
    current = ""
    for i, ch in enumerate(cleaned):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and i > 0 and cleaned[i - 1] not in "eE(,+-*^":
            terms.append(current)
            current = ch
        else:
            current += ch
    terms.append(current)

    out: dict = {}
    for raw in terms:
        term = raw
        sign = 1.0
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        match = _TERM_RE.match(term)
        if not match or (match.group("coeff") is None and match.group("z1") is None
                         and match.group("z2") is None):
            raise DomainError(f"cannot parse polynomial term: {raw!r}")
        coeff_text = match.group("coeff")
        coeff = _parse_coeff(coeff_text, raw) if coeff_text else complex(1.0)
        m = int(match.group("m")) if match.group("m") else (1 if match.group("z1") else 0)
        n = int(match.group("n")) if match.group("n") else (1 if match.group("z2") else 0)
        key = (m, n)
        out[key] = out.get(key, 0) + sign * coeff
    return BiPoly(out)
