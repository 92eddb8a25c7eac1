"""The package's exact dyadic values as mpmath numbers, for the tests that
use mpmath as an oracle."""

from fractions import Fraction

from mpmath import mp
from mpmath.libmp import from_man_exp


def as_mp(value):
    """A root (x + iy) / 2^e as an mpc, or a Fraction with a power-of-two
    denominator as an mpf, exactly, at any working precision."""
    if isinstance(value, Fraction):
        shift = value.denominator.bit_length() - 1
        assert value.denominator == 1 << shift, value
        return mp.make_mpf(from_man_exp(value.numerator, -shift))
    x, y, e = value
    return mp.make_mpc((from_man_exp(x, -e), from_man_exp(y, -e)))
