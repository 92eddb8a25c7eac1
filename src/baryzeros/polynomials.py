"""The exact rational polynomial container that root finding reads.

Coefficients are stored highest degree first, as `fractions.Fraction`
values, with no leading zeros (the zero polynomial is the single
coefficient 0).  Everything here is exact; floating point never enters.
The h-polynomials themselves are built by ``subdivision.shift_matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


@dataclass(frozen=True)
class RationalPoly:
    """A polynomial with exact rational coefficients, highest degree first."""

    coeffs: tuple[Fraction, ...]

    @classmethod
    def from_coefficients(cls, values: Iterable) -> "RationalPoly":
        cs = [_to_fraction(v) for v in values]
        while len(cs) > 1 and cs[0] == 0:
            cs.pop(0)
        if not cs:
            cs = [Fraction(0)]
        return cls(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (Fraction(0),)

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs[-1]

    def __call__(self, x):
        """Evaluate by Horner's rule.

        Works for any value supporting multiplication and addition with
        Fraction (exact rationals, mpmath numbers, complex, ...).
        """
        acc = x * 0  # zero of the argument's type
        for c in self.coeffs:
            acc = acc * x + c
        return acc
