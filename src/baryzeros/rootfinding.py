"""Certified polynomial root finding for integer-coefficient polynomials.

A polynomial is a sequence of ints, highest degree first, as
``complexes.h_poly`` returns it.  Exact zero roots are deflated
symbolically first, and the rest is divided by its content.  Its roots
then take one of two routes, recorded in ``RootSet.method``:

- ``"isolated"``: when the integer Sturm sequence shows the deflated
  polynomial squarefree with every root real, each root is isolated in a
  dyadic interval by Sturm counts, refined by sign bisection and Newton
  steps in integer arithmetic, and rounded to nearest at precision_bits.
  One exact sign bracket certifies each result: the interval of reals
  that round to it, of relative half-width at most 2^-precision_bits.  No
  floating-point step is involved: precision_bits sets only that width
  and the precision of the returned numbers.
- ``"polyroots"``: otherwise (a repeated or a non-real root), mpmath's
  simultaneous iteration runs at a caller-chosen working precision, and
  realness is certified afterwards by the same integer sign test at
  dyadic points around each approximation, so no floating-point step can
  silently lie about a root being real.

Either way a solution is accepted only when every backward residual is
tiny.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_PRECISION_BITS = 128
MAX_ITERATIONS = 200
_CERTIFY_DOUBLINGS = 16
# Sign bisection narrows an isolated root to this relative width before
# Newton steps take over; Newton then works this many bits past the
# certified width.
_BISECT_BITS = 60
_GUARD_BITS = 32


class RootFindingError(RuntimeError):
    """The iteration failed to reach the requested residual target."""


@dataclass(frozen=True)
class RootSet:
    """Roots of one polynomial, sorted by ascending modulus.

    residuals[i] bounds |p(z_i)| relative to sum |a_j||z_i|^j; exact
    deflated zeros carry residual 0.  real_certified[i] is True only when
    an exact rational sign bracket around Re(z_i) was established.
    method is ``"isolated"`` when the roots came from exact isolation (or
    were all deflated zeros), ``"polyroots"`` when from mpmath's iteration.
    """

    roots: tuple
    residuals: tuple
    real_certified: tuple
    precision_bits: int
    method: str


def _backward_residual(coeffs, abs_coeffs, z):
    import mpmath as mp

    p = mp.mpc(0)
    scale = mp.mpf(0)
    az = abs(z)
    for a, aa in zip(coeffs, abs_coeffs):
        p = p * z + a
        scale = scale * az + aa
    # coeffs are zero-deflated: their nonzero constant keeps scale above 0
    return abs(p) / scale


# ---------------------------------------------------------------------------
# exact isolation of real roots
#
# Polynomials are integer coefficient lists, highest degree first.  A
# dyadic point a / 2^e is held as the pair (a, e) with e >= 0.


def _value(coeffs: list, a: int, e: int) -> int:
    """2^(e*n) * p(a / 2^e) for p of degree n: sum c_i a^(n-i) 2^(e*i).

    An integer with the sign of p(a / 2^e).
    """
    acc = 0
    shift = 0
    for c in coeffs:
        acc = acc * a + (c << shift)
        shift += e
    return acc


def _variations(seq: list, a: int, e: int) -> int:
    """Sign changes along the Sturm sequence at a / 2^e, zeros skipped."""
    count = 0
    last = 0
    for q in seq:
        v = _value(q, a, e)
        if v:
            if (v > 0) != (last > 0) and last:
                count += 1
            last = v
    return count


def _negated_remainder(a: list, b: list) -> list:
    """-(|lc b|^(deg a - deg b + 1) * a mod b), divided by its content.

    The factor is positive, so the result is a valid next Sturm member;
    [] when b divides a.
    """
    lead = b[0]
    scale = abs(lead)
    rem = list(a)
    steps = len(a) - len(b) + 1
    for i in range(steps):
        q = rem[i] if lead > 0 else -rem[i]
        rem = [scale * x for x in rem]
        for j, bj in enumerate(b):
            rem[i + j] -= q * bj
    rem = rem[steps:]
    while rem and rem[0] == 0:
        rem.pop(0)
    if not rem:
        return []
    g = math.gcd(*rem)
    return [-x // g for x in rem]


def _sturm_sequence(coeffs: list) -> list:
    """Sturm sequence of p in primitive integer form: p, p', then negated
    remainders down to a constant, or to gcd(p, p') when p has a repeated
    root."""
    n = len(coeffs) - 1
    seq = [coeffs, [(n - i) * c for i, c in enumerate(coeffs[:-1])]]
    while len(seq[-1]) > 1:
        rem = _negated_remainder(seq[-2], seq[-1])
        if not rem:
            break
        seq.append(rem)
    return seq


def _exponent_bound(coeffs: list) -> int:
    """E >= 1 with every root below 2^E in modulus (Cauchy's bound)."""
    lead = abs(coeffs[0]).bit_length()
    top = max(abs(c).bit_length() for c in coeffs[1:])
    return max(1, top - lead + 2)


def _isolate(seq: list):
    """Disjoint intervals (lo / 2^e, hi / 2^e], each holding one root;
    None unless the distinct real roots number the degree, that is unless
    every root is real and simple.

    Sturm counts V(x) - V(y) give the distinct roots in (x, y].  A search
    over the dyadic shells 2^j < |x| <= 2^(j+1) between the root bounds
    finds the shells holding roots; bisection splits a shell holding
    several.
    """
    p = seq[0]
    lo_exp = -_exponent_bound(p[::-1])
    top = _exponent_bound(p) - lo_exp + 1

    def grid(t):
        # 0 at t = 0, otherwise +-2^(lo_exp + |t| - 1): no root in (grid(-1), grid(1)]
        if t == 0:
            return 0, 0
        j = lo_exp + abs(t) - 1
        sign = 1 if t > 0 else -1
        return (sign << j, 0) if j >= 0 else (sign, -j)

    def count(t):
        return _variations(seq, *grid(t))

    v_neg, v_pos = count(-top), count(top)
    if v_neg - v_pos != len(p) - 1:
        return None
    shells = []
    work = [(-top, top, v_neg, v_pos)]
    while work:
        t0, t1, v0, v1 = work.pop()
        if v0 == v1:
            continue
        if t1 - t0 == 1:
            shells.append((grid(t0), grid(t1), v0, v1))
            continue
        tm = (t0 + t1) // 2
        vm = count(tm)
        work += [(t0, tm, v0, vm), (tm, t1, vm, v1)]

    isolated = []
    for (a0, e0), (a1, e1), v0, v1 in shells:
        e = max(e0, e1)
        work = [(a0 << (e - e0), a1 << (e - e1), e, v0, v1)]
        while work:
            lo, hi, e, v0, v1 = work.pop()
            if v0 == v1:
                continue
            if v0 - v1 == 1:
                isolated.append((lo, hi, e))
                continue
            mid = lo + hi
            vm = _variations(seq, mid, e + 1)
            work += [(2 * lo, mid, e + 1, v0, vm), (mid, 2 * hi, e + 1, vm, v1)]
    return isolated


def _bisect(p: list, lo: int, hi: int, e: int, s_hi: int, bits: int):
    """Halve (lo / 2^e, hi / 2^e], which holds one simple root and no zero,
    until its width is at most 2^-bits of either endpoint's modulus.

    s_hi is the sign of p(hi / 2^e).  Returns (lo, hi, e), with lo == hi
    when a midpoint is the root itself.
    """
    smaller = min(abs(lo), abs(hi))
    steps = max(0, (hi - lo).bit_length() + bits + 1 - smaller.bit_length())
    lo, hi, e = lo << steps, hi << steps, e + steps
    for _ in range(steps):
        mid = (lo + hi) >> 1
        v = _value(p, mid, e)
        if v == 0:
            return mid, mid, e
        if (v > 0) == (s_hi > 0):
            hi = mid
        else:
            lo = mid
    return lo, hi, e


def _newton(p: list, dp: list, a: int, e: int, bits: int):
    """Newton steps from a / 2^e, good to _BISECT_BITS, each step at twice
    the bits of the last, up to bits; (a, e) after the last, or None if
    p' vanished."""
    width = 2 * _BISECT_BITS
    while True:
        target = min(width, bits)
        grow = target - abs(a).bit_length()
        if grow > 0:
            a, e = a << grow, e + grow
        num = _value(p, a, e)
        den = _value(dp, a, e)
        if den == 0:
            return None
        if den < 0:
            num, den = -num, -den
        # p / p' at a / 2^e is num / (den * 2^e): round num / den to units of 2^-e
        a -= (2 * num + den) // (2 * den)
        if target == bits:
            return a, e
        width *= 2


def _rounded(p: list, a: int, e: int, lo: int, hi: int, le: int, s_hi: int, bits: int):
    """The root near a / 2^e rounded to nearest with a bits-bit mantissa.

    The root is the only one in the isolating interval (lo / 2^le,
    hi / 2^le], and p has the sign s_hi right of it there.  The candidate
    is certified by one exact sign bracket: an interval of reals that all
    round to it, of half-width at most 2^-bits of its modulus, whose ends
    inside the isolating interval have p's signs on either side of the
    root.  A candidate whose bracket misses the root gives way once to its
    neighbour.  Returns (c, e), or None.
    """
    for _ in range(2):
        if a == 0:
            return None
        grow = bits + 3 - abs(a).bit_length()
        if grow > 0:
            a, e = a << grow, e + grow
        shift = abs(a).bit_length() - bits
        mantissa = (abs(a) + (1 << (shift - 1))) >> shift
        half = 1 << (shift - 1)
        # Below a power of two the spacing halves.  A mantissa rounded up
        # to 2^bits keeps the finer spacing on both sides: a narrower
        # bracket than it could have, never a wider one.
        down = half // 2 if mantissa == 1 << (bits - 1) else half
        c = mantissa << shift
        left, right = c - down, c + half
        if a < 0:
            c, left, right = -c, -right, -left
        common = max(e, le)
        below = above = False
        if left << (common - e) > lo << (common - le):
            v = _value(p, left, e)
            if v == 0:
                return left, e
            below = (v > 0) == (s_hi > 0)
        if right << (common - e) < hi << (common - le):
            v = _value(p, right, e)
            if v == 0:
                return right, e
            above = (v > 0) != (s_hi > 0)
        if not (below or above):
            return c, e
        a = left - 1 if below else right + 1
    return None


def _refine(p: list, dp: list, lo: int, hi: int, e: int, bits: int):
    """The root in (lo / 2^e, hi / 2^e] as a dyadic (a, e), correctly
    rounded to bits when a sign bracket inside the interval proves it.

    Newton starts once from a bracket of _BISECT_BITS relative bits.  Near
    another root it may fall short of a certified rounding; bisection then
    runs all the way to bits + _GUARD_BITS.
    """
    v = _value(p, hi, e)
    if v == 0:
        return hi, e
    s_hi = 1 if v > 0 else -1
    final = bits + _GUARD_BITS
    near = _bisect(p, lo, hi, e, s_hi, _BISECT_BITS)
    if near[0] == near[1]:
        return near[1:]
    guess = _newton(p, dp, near[0] + near[1], near[2] + 1, final)
    if guess is not None:
        rounded = _rounded(p, *guess, lo, hi, e, s_hi, bits)
        if rounded is not None:
            return rounded
    # Newton left the bracket or fell short: bisection keeps the sign change.
    n_lo, n_hi, n_e = _bisect(p, *near, s_hi, final)
    if n_lo == n_hi:
        return n_hi, n_e
    return _rounded(p, n_hi, n_e, lo, hi, e, s_hi, bits) or (n_hi, n_e)


def _isolated_roots(ints: list, precision_bits: int):
    """Every root of the integer polynomial, all real and simple, as mpf
    values at precision_bits; None when the polynomial is not squarefree
    or has a non-real root."""
    import mpmath as mp

    seq = _sturm_sequence(ints)
    intervals = _isolate(seq)
    if intervals is None:
        return None
    roots = []
    for lo, hi, e in intervals:
        a, e = _refine(ints, seq[1], lo, hi, e, precision_bits)
        roots.append(mp.ldexp(mp.mpf(a), -e))
    return roots


def _certify_real_root(ints: list, approx, precision_bits: int) -> bool:
    """Exact sign bracket around the real part of an approximate root.

    Returns True when the integer polynomial changes sign (or vanishes) on
    a tiny dyadic interval around Re(approx); the interval starts at
    half-width max(|Re(approx)|, 1) * 2^(-precision_bits // 2) and is
    doubled a few times before giving up.  Only simple real roots can be
    certified this way, which is all the callers need.
    """
    import mpmath as mp

    x = mp.re(approx)
    sign, man, exp, _ = x._mpf_
    if not man and exp:
        raise ValueError(f"cannot convert {x!r} to an exact rational")
    half = precision_bits // 2
    # x = a / 2^e and the half-width delta / 2^e, both exact
    e = half + max(0, -exp)
    a = (-man if sign else man) << (exp + e)
    delta = max(abs(a), 1 << e) >> half
    for _ in range(_CERTIFY_DOUBLINGS):
        lo = _value(ints, a - delta, e)
        hi = _value(ints, a + delta, e)
        if lo == 0 or hi == 0 or (lo < 0) != (hi < 0):
            return True
        delta *= 2
    return False


def find_roots(
    coeffs,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> RootSet:
    """All complex roots of an integer polynomial, with certification.

    coeffs are the polynomial's ints, highest degree first.  A non-int
    coefficient raises TypeError; a zero leading coefficient or a degree
    below 1 raises ValueError.  Exact zero roots are deflated symbolically
    first, and the rest is divided by its content.  When that is
    squarefree with only real roots (its Sturm count equals its degree),
    every root is isolated and refined in exact integer arithmetic, rounded
    to nearest at precision_bits and certified by an exact sign bracket of
    relative half-width at most 2^-precision_bits; precision_bits then
    sets only that width and the precision of the returned values
    (``method == "isolated"``).  Otherwise the roots come from mpmath's
    simultaneous iteration at ``precision_bits`` working precision, and a
    real root is certified by an exact sign bracket afterwards
    (``method == "polyroots"``).  On either route every backward residual
    must meet 2^(-precision_bits / 2); RootFindingError is raised when it
    does not, or when the iteration does not converge, which usually means
    the precision is too low for the polynomial.
    """
    import mpmath as mp

    work = list(coeffs)
    for c in work:
        if not isinstance(c, int):
            raise TypeError(f"expected int coefficients, got {type(c).__name__}")
    if len(work) < 2:
        raise ValueError("root finding needs a polynomial of degree >= 1")
    if work[0] == 0:
        raise ValueError("the leading coefficient must be nonzero")
    if precision_bits < 16:
        raise ValueError("precision_bits must be at least 16")

    zero_roots = 0
    while work[-1] == 0:
        work.pop()
        zero_roots += 1
    degree = len(work) - 1
    # the primitive form: a positive divisor keeps the signs
    content = math.gcd(*work)
    ints = [c // content for c in work]

    with mp.workprec(precision_bits):
        zeros = tuple(mp.mpc(0) for _ in range(zero_roots))
        if degree == 0:
            residuals = tuple(mp.mpf(0) for _ in zeros)
            certified = tuple(True for _ in zeros)
            return RootSet(zeros, residuals, certified, precision_bits, "isolated")

        mp_coeffs = [mp.mpf(c) for c in work]
        abs_coeffs = [abs(a) for a in mp_coeffs]
        raw = _isolated_roots(ints, precision_bits)
        method = "isolated"
        if raw is None:
            method = "polyroots"
            try:
                raw = mp.polyroots(
                    mp_coeffs, maxsteps=MAX_ITERATIONS, extraprec=precision_bits // 2
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
            _backward_residual(mp_coeffs, abs_coeffs, w) for w in ordered
        )
        worst = max(tail_residuals)
        if worst > target:
            raise RootFindingError(
                f"residual {mp.nstr(worst, 8)} missed target "
                f"{mp.nstr(target, 8)} at {precision_bits} bits; retry with "
                f"higher precision"
            )

        if method == "isolated":
            tail_certified = tuple(True for _ in ordered)
        else:
            tail_certified = tuple(
                abs(mp.im(w)) <= max(abs(w), mp.mpf(1)) * target
                and _certify_real_root(ints, w, precision_bits)
                for w in ordered
            )
        roots = zeros + tuple(ordered)
        residuals = tuple(mp.mpf(0) for _ in zeros) + tail_residuals
        certified = tuple(True for _ in zeros) + tail_certified
    return RootSet(roots, residuals, certified, precision_bits, method)
