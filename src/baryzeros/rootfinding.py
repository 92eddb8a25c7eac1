"""Certified polynomial root finding for rational-coefficient polynomials.

mpmath's simultaneous iteration does the numeric work at a caller-chosen
precision.  On top of that this module deflates exact zero roots
symbolically, accepts a solution only when every backward residual is
tiny, and certifies realness by exact sign brackets evaluated in rational
arithmetic, so no floating-point step can silently lie about a root
being real.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .polynomials import RationalPoly

DEFAULT_PRECISION_BITS = 128
MAX_ITERATIONS = 200
_CERTIFY_DOUBLINGS = 16


class RootFindingError(RuntimeError):
    """The iteration failed to reach the requested residual target."""


@dataclass(frozen=True)
class RootSet:
    """Roots of one polynomial, sorted by ascending modulus.

    residuals[i] bounds |p(z_i)| relative to sum |a_j||z_i|^j; exact
    deflated zeros carry residual 0.  real_certified[i] is True only when
    an exact rational sign bracket around Re(z_i) was established.
    """

    roots: tuple
    residuals: tuple
    real_certified: tuple
    precision_bits: int

    def real_roots(self) -> tuple:
        return tuple(z for z, ok in zip(self.roots, self.real_certified) if ok)


def _mpf_to_fraction(x) -> Fraction:
    sign, man, exp, _ = mp.mpf(x)._mpf_
    if man == 0:
        if x == 0:
            return Fraction(0)
        raise ValueError(f"cannot convert {x!r} to an exact rational")
    value = Fraction(man) * Fraction(2) ** exp
    return -value if sign else value


def _backward_residual(coeffs, abs_coeffs, z):
    p = mp.mpc(0)
    scale = mp.mpf(0)
    az = abs(z)
    for a, aa in zip(coeffs, abs_coeffs):
        p = p * z + a
        scale = scale * az + aa
    if scale == 0:
        return abs(p)
    return abs(p) / scale


def _certify_real_root(poly: RationalPoly, approx, precision_bits: int) -> bool:
    """Exact sign bracket around the real part of an approximate root.

    Returns True when p changes sign (or vanishes) on a tiny rational
    interval around Re(approx); the interval starts at relative width
    2^(-precision_bits // 2) and is doubled a few times before giving up.
    Only simple real roots can be certified this way, which is all the
    callers need.
    """
    x = _mpf_to_fraction(mp.re(approx))
    base = max(abs(x), Fraction(1)) / Fraction(2) ** (precision_bits // 2)
    delta = base
    for _ in range(_CERTIFY_DOUBLINGS):
        lo = poly(x - delta)
        hi = poly(x + delta)
        if lo == 0 or hi == 0:
            return True
        if (lo < 0) != (hi < 0):
            return True
        delta *= 2
    return False


def find_roots(
    poly: RationalPoly,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> RootSet:
    """All complex roots of a rational polynomial, with certification.

    Exact zero roots are deflated symbolically first; the rest come from
    mpmath's simultaneous iteration run at ``precision_bits`` working
    precision.  Raises RootFindingError when the backward residual target
    2^(-precision_bits / 2) is not met, which usually means the precision
    is too low for the polynomial at hand.
    """
    if poly.is_zero or poly.degree < 1:
        raise ValueError("root finding needs a polynomial of degree >= 1")
    if precision_bits < 16:
        raise ValueError("precision_bits must be at least 16")

    work = list(poly.coeffs)
    zero_roots = 0
    while len(work) > 1 and work[-1] == 0:
        work.pop()
        zero_roots += 1
    degree = len(work) - 1

    with mp.workprec(precision_bits):
        zeros = tuple(mp.mpc(0) for _ in range(zero_roots))
        if degree == 0:
            residuals = tuple(mp.mpf(0) for _ in zeros)
            certified = tuple(True for _ in zeros)
            return RootSet(zeros, residuals, certified, precision_bits)

        coeffs = [mp.mpf(c.numerator) / mp.mpf(c.denominator) for c in work]
        abs_coeffs = [abs(a) for a in coeffs]
        try:
            raw = mp.polyroots(
                coeffs, maxsteps=MAX_ITERATIONS, extraprec=precision_bits // 2
            )
        except mp.libmp.libhyper.NoConvergence as exc:
            raise RootFindingError(
                f"no convergence after {MAX_ITERATIONS} steps at "
                f"{precision_bits} bits; retry with higher precision"
            ) from exc

        target = mp.mpf(2) ** (-(precision_bits // 2))
        ordered = sorted(
            (mp.mpc(r) for r in raw), key=lambda w: (abs(w), mp.re(w), mp.im(w))
        )
        tail_residuals = tuple(
            _backward_residual(coeffs, abs_coeffs, w) for w in ordered
        )
        worst = max(tail_residuals)
        if worst > target:
            raise RootFindingError(
                f"residual {mp.nstr(worst, 8)} missed target "
                f"{mp.nstr(target, 8)} at {precision_bits} bits; retry with "
                f"higher precision"
            )

        deflated = RationalPoly.from_coefficients(work)
        roots = zeros + tuple(ordered)
        residuals = tuple(mp.mpf(0) for _ in zeros) + tail_residuals
        certified = tuple(True for _ in zeros) + tuple(
            abs(mp.im(w)) <= max(abs(w), mp.mpf(1)) * target
            and _certify_real_root(deflated, w, precision_bits)
            for w in ordered
        )
    return RootSet(roots, residuals, certified, precision_bits)
