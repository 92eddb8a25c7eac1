"""Exact rational polynomials, and the one shift that builds h-polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from baryzeros import FVector, RationalPoly, h_poly

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)
face_counts = st.builds(
    lambda middle, top: (1, *middle, top),
    st.lists(st.integers(0, 10**12), max_size=8),
    st.integers(1, 10**12),
)


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


@given(face_counts, rationals)
def test_h_poly_is_f_poly_at_z_minus_one(counts, x):
    "h_poly, built by the shift matrix, is the f-polynomial composed with z - 1."
    f = RationalPoly.from_coefficients(counts)
    assert h_poly(FVector(counts))(x) == f(x - 1)


def test_pinned_to_rationals():
    with pytest.raises(TypeError):
        RationalPoly.from_coefficients([0.5, 1.0])
