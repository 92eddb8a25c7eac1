"""The package's exact dyadic values as mpmath numbers, for the tests that
use mpmath as an oracle, and which of find_roots' roots are certified real."""

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


def real_flags(rs) -> tuple:
    """True for each root of a RootSet that find_roots certified real: its
    imaginary part is exactly 0 only then."""
    return tuple(z.y == 0 for z in rs.roots)
