"""Exact rational polynomial arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from baryzeros import RationalPoly, shift_coefficients

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)
coeff_lists = st.lists(rationals, min_size=1, max_size=7)


def test_shift_coefficients_square():
    "(z - 1)^2 = z^2 - 2z + 1"
    out = shift_coefficients([Fraction(1), Fraction(0), Fraction(0)], Fraction(-1))
    assert out == [Fraction(1), Fraction(-2), Fraction(1)]


def test_shift_coefficients_preserves_length():
    out = shift_coefficients([Fraction(2), Fraction(3)], Fraction(5))
    assert len(out) == 2


def test_from_coefficients_strips_leading_zeros():
    p = RationalPoly.from_coefficients([0, 0, 1, 2])
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert p.degree == 1


def test_zero_polynomial_flags():
    p = RationalPoly.from_coefficients([0, 0])
    assert p.is_zero
    assert not RationalPoly.from_coefficients([1]).is_zero


def test_monic_and_constant_term():
    p = RationalPoly.from_coefficients([1, 3, 1])
    assert p.coeffs[0] == 1
    assert p.constant_term == 1
    assert RationalPoly.from_coefficients([2, 0]).coeffs[0] != 1


def test_evaluation_known_values():
    p = RationalPoly.from_coefficients([1, 3, 1])
    assert p(Fraction(0)) == 1
    assert p(Fraction(1)) == 5
    assert p(Fraction(-1, 2)) == Fraction(-1, 4)


def test_shift_known_case():
    "Composing z^2 + 3z + 1 with z - 1 gives z^2 + z - 1."
    p = RationalPoly.from_coefficients([1, 3, 1])
    assert p.shift(Fraction(-1)).coeffs == (Fraction(1), Fraction(1), Fraction(-1))


def test_str_smoke():
    text = str(RationalPoly.from_coefficients([1, 1, -1]))
    assert "z" in text


@given(coeff_lists, rationals)
def test_shift_round_trip(coeffs, delta):
    "Shifting by delta then -delta restores the polynomial."
    p = RationalPoly.from_coefficients(coeffs)
    assert p.shift(delta).shift(-delta) == p


@given(coeff_lists, rationals, rationals)
def test_shift_matches_evaluation(coeffs, delta, x):
    "q = p shifted by delta satisfies q(x) = p(x + delta) exactly."
    p = RationalPoly.from_coefficients(coeffs)
    assert p.shift(delta)(x) == p(x + delta)


def test_pinned_to_rationals():
    with pytest.raises(TypeError):
        RationalPoly.from_coefficients([0.5, 1.0])
