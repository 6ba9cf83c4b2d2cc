import pytest

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
