import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kernelforge.errors import DivisibilityError, DomainError
from kernelforge.poly2 import BiPoly


def test_polynomial_in_z1_arithmetic():
    p = BiPoly({(0, 0): 1, (2, 0): 3})
    q = BiPoly({(1, 0): 2})
    assert (p + q).coeffs == {(0, 0): 1, (1, 0): 2, (2, 0): 3}
    assert (p * q).coeffs == {(1, 0): 2, (3, 0): 6}
    assert p.scale(2).coeffs == {(0, 0): 2, (2, 0): 6}
    assert p.degree_in(1) == 2
    assert BiPoly().degree_in(1) == -1


def test_polynomial_in_z1_differentiate_and_evaluate():
    p = BiPoly({(3, 0): 2.0, (1, 0): 1.0})       # 2z^3 + z
    assert p.differentiate(1).coeffs == {(2, 0): 6.0, (0, 0): 1.0}
    assert p.differentiate(1, 4).is_zero()
    assert p.evaluate(2.0, 0.0) == pytest.approx(18.0)
    assert p.evaluate(0.0, 0.0) == 0.0


def test_bipoly_basics():
    f = BiPoly.parse("z1^2 - 2*z1*z2 + z2^2")
    assert f.total_degree == 2
    assert f.degree_in(1) == 2
    assert f.evaluate(0.5, 0.25) == pytest.approx(0.0625)


def test_diagonal_restriction():
    f = BiPoly.parse("z1^2*z2 + z1 - z2")
    g = f.restrict_diagonal()
    assert g.coeffs == {(3, 0): 1.0 + 0j}
    assert BiPoly.parse("3").restrict_diagonal().coeffs == {(0, 0): 3.0 + 0j}


def test_divide_diag_power():
    f = BiPoly.parse("z1^2 - z2^2")
    q = f.divide_diag_power(1)
    assert q.coeffs == {(1, 0): 1.0 + 0j, (0, 1): 1.0 + 0j}
    # (z1-z2)^3 / (z1-z2)^3 = 1
    d = BiPoly.parse("z1 - z2")
    cube = d * d * d
    assert cube.divide_diag_power(3).coeffs == {(0, 0): 1.0 + 0j}


def test_divide_diag_power_remainder():
    with pytest.raises(DivisibilityError):
        BiPoly.parse("z1").divide_diag_power(1)


def test_differentiate_partial():
    f = BiPoly.parse("z1^2*z2^3")
    assert f.differentiate(1).coeffs == {(1, 3): 2.0 + 0j}
    assert f.differentiate(2, 2).coeffs == {(2, 1): 6.0 + 0j}
    with pytest.raises(DomainError):
        f.differentiate(3)


def test_parse_and_format_roundtrip():
    for text in ("z1 - z2", "1", "(0,1)*z1*z2 + 2.5*z2^4", "-z1^2 + 3e-2*z2"):
        f = BiPoly.parse(text)
        again = BiPoly.parse(f.format())
        assert again.coeffs == f.coeffs


def test_parse_complex_coefficient():
    f = BiPoly.parse("(1,-2)*z1")
    assert f.coeffs == {(1, 0): complex(1, -2)}


@pytest.mark.parametrize("text, coeffs", [
    # each was refused as "cannot parse polynomial term"
    ("z2*z1", {(1, 1): 1}),
    ("z1*z1", {(2, 0): 1}),
    ("2*z2^2*z1", {(1, 2): 2}),
    ("z1*2", {(1, 0): 2}),
    ("z2*z1^2*(0,3)*z1 - z1^3*z2", {(3, 1): complex(-1, 3)}),
])
def test_parse_factors_in_any_order(text, coeffs):
    assert BiPoly.parse(text).coeffs == coeffs


def test_parse_rejects_garbage():
    for text in ("z3 + 1", "", "2*3*z1", "z12", "z1 +"):
        with pytest.raises(DomainError):
            BiPoly.parse(text)
    # a blank between two characters of one number or one power is refused
    # by name; blanks elsewhere are ignored
    for text, term in (("2 3*z1", "2 3*z1"), ("z2 - z1^1 2", "- z1^1 2"),
                       ("1.5 e3*z1", "1.5 e3*z1"), ("1e- 3*z2", "1e- 3*z2"),
                       ("1 .5*z1", "1 .5*z1"), ("z 1^2", "z 1^2"),
                       ("z1 ^2", "z1 ^2"), ("(1 2,3)*z1", "(1 2,3)*z1"),
                       ("z2 + (1, 2. 5)*z1", "+ (1, 2. 5)*z1")):
        with pytest.raises(DomainError, match=re.escape(repr(term))):
            BiPoly.parse(text)
    f = BiPoly.parse(" 2 * z1^2*z2 - ( 1 , -2.5e-1 ) * z2 +3\n")
    assert f.coeffs == {(2, 1): 2, (0, 1): complex(-1, 0.25), (0, 0): 3}


def test_format_keeps_every_digit():
    f = BiPoly.parse("0.1234567*z1 + 123456789*z2")
    assert f.format() == "123456789*z2 + 0.1234567*z1"
    g = BiPoly.parse("0.1*z1 + (0.3333333333333333,-1e-7)*z2^2")
    assert BiPoly.parse(g.format()).coeffs == g.coeffs
    assert BiPoly.parse("2*z1 - 3").format() == "-3 + 2*z1"


_finite = st.floats(allow_nan=False, allow_infinity=False)


def _number(x):
    """The tokens of x: its sign, if any, and the rest."""
    text = repr(x)
    return ["-", text[1:]] if text.startswith("-") else [text]


@st.composite
def _written_poly(draw):
    """A polynomial written as tokens: each term its signs, then powers of
    z1 and z2 and at most one coefficient in any order, joined by "*" (left
    out before some powers).  Returns the terms' token lists and the
    coefficients they stand for."""
    terms, coeffs = [], {}
    for i in range(draw(st.integers(1, 4))):
        signs = draw(st.sampled_from(["+", "-", "- -", "+-"] if i else
                                     ["", "", "-", "+"]))
        powers = draw(st.lists(st.tuples(st.sampled_from("12"),
                                         st.integers(0, 40)), max_size=3))
        factors = [f"z{v}^{m}" if m != 1 else f"z{v}" for v, m in powers]
        coeff = draw(st.none() | _finite | st.tuples(_finite, _finite))
        if coeff is None:
            value = complex(1.0)
        elif isinstance(coeff, tuple):
            value = complex(*coeff)
            factors.insert(0, ["(", *_number(coeff[0]), ",",
                               *_number(coeff[1]), ")"])
        else:
            value = complex(coeff)
            factors.insert(0, _number(coeff))
        if not factors:
            factors, value = [["1"]], complex(1.0)
        at = draw(st.integers(0, len(factors) - 1))
        factors.insert(at, factors.pop(0))
        tokens = [signs] if signs else []
        for j, factor in enumerate(factors):
            power = isinstance(factor, str)
            if j and not (power and draw(st.booleans())):
                tokens.append("*")
            tokens.extend([factor] if power else factor)
        key = (sum(m for v, m in powers if v == "1"),
               sum(m for v, m in powers if v == "2"))
        sign = -1.0 if signs.count("-") % 2 else 1.0
        coeffs[key] = coeffs.get(key, 0) + sign * value
        terms.append(tokens)
    return terms, BiPoly(coeffs).coeffs


_blank = st.sampled_from(["", " ", "\t", "\n", " \t\n "])


def _write(draw, terms):
    """The terms with random blanks between tokens, and each term's text."""
    written = ["".join(token + draw(_blank) for token in tokens).strip()
               for tokens in terms]
    return "".join(term + draw(_blank) for term in written), written


@settings(max_examples=80, derandomize=True, deadline=None)
@given(_written_poly(), st.data())
def test_parse_reads_blanks_between_tokens(poly, data):
    terms, coeffs = poly
    text, _ = _write(data.draw, terms)
    assert BiPoly.parse(text).coeffs == coeffs
    assert BiPoly.parse("".join(map("".join, terms))).coeffs == coeffs


@settings(max_examples=80, derandomize=True, deadline=None)
@given(_written_poly(), st.data())
def test_parse_refuses_a_blank_inside_a_number_or_power(poly, data):
    terms, _ = poly
    # a place inside a number or a power
    spots = [(i, j, k) for i, tokens in enumerate(terms)
             for j, token in enumerate(tokens) if token[-1].isdigit()
             for k in range(1, len(token))]
    assume(spots)
    i, j, k = data.draw(st.sampled_from(spots))
    token = terms[i][j]
    terms[i][j] = token[:k] + data.draw(st.sampled_from(" \t\n")) + token[k:]
    text, written = _write(data.draw, terms)
    with pytest.raises(DomainError, match=re.escape(repr(written[i]))):
        BiPoly.parse(text)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                       st.builds(complex, _finite, _finite), max_size=6))
def test_parse_reads_format_back(coeffs):
    f = BiPoly(coeffs)
    assert BiPoly.parse(f.format()).coeffs == f.coeffs
