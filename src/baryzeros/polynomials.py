"""Exact univariate polynomials over the rationals.

Coefficients are stored highest degree first, as `fractions.Fraction`
values, with no leading zeros (the zero polynomial is the single
coefficient 0).  Everything here is exact; floating point never enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def shift_coefficients(coeffs: Sequence[Fraction], delta: Fraction) -> list[Fraction]:
    """Coefficients of p(z + delta) given the coefficients of p, highest first.

    The length of the input list is preserved, so a leading zero stays a
    leading zero.  Synthetic Horner form: fold in one coefficient at a
    time, multiplying the partial result by (z + delta).
    """
    if not coeffs:
        return []
    result = [coeffs[0]]
    for a in coeffs[1:]:
        grown = [Fraction(0)] * (len(result) + 1)
        for idx, c in enumerate(result):
            grown[idx] += c
            grown[idx + 1] += c * delta
        grown[-1] += a
        result = grown
    return result


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

    def shift(self, delta) -> "RationalPoly":
        """Return q with q(z) = p(z + delta)."""
        return RationalPoly.from_coefficients(
            shift_coefficients(list(self.coeffs), _to_fraction(delta))
        )

    def __str__(self) -> str:
        parts = []
        n = self.degree
        for k, c in enumerate(self.coeffs):
            if c == 0 and n > 0:
                continue
            power = n - k
            if power == 0:
                parts.append(f"{c}")
            elif power == 1:
                parts.append(f"{c}*z")
            else:
                parts.append(f"{c}*z^{power}")
        return " + ".join(parts) if parts else "0"
