"""Certified polynomial root finding for integer-coefficient polynomials.

A polynomial is a sequence of ints, highest degree first, as
``complexes.h_poly`` returns it.  Exact zero roots are deflated
symbolically first, and the rest is divided by its content.  That part
must be squarefree: when its integer Sturm sequence does not end in a
constant, it has a repeated root and ValueError is raised.  Its real
roots are isolated in dyadic intervals by Sturm counts, refined by sign
bisection and Newton steps in integer arithmetic, and rounded to nearest
at precision_bits.  One exact sign bracket certifies each: the interval
of reals that round to it, of relative half-width at most
2^-precision_bits.  The roots then take one of two routes, which
``RootSet.method`` reads back from them:

- ``"isolated"``: the Sturm count equals the degree, so the real roots
  are all of them.
- ``"enclosed"``: otherwise (a non-real root).  The non-real roots come
  in conjugate pairs from the Weierstrass (Durand-Kerner) iteration on
  Gaussian integers, at precision_bits + 64 bits, and are certified by
  the disks D(z_i, n |W_i|), W_i = p(z_i) / (lc prod_{j != i} (z_i - z_j)):
  pairwise disjoint, each holds exactly one root (Braess and Hadeler,
  "Simultaneous inclusion of the zeros of a polynomial", Numer. Math. 21,
  1973; Carstensen, "Inclusion of the roots of a polynomial based on
  Gerschgorin's theorem", Numer. Math. 59, 1991).  Each radius is at most
  2^-precision_bits of its centre's modulus, and the disjointness test is
  exact, on squared integers.  When the disks do not separate, the
  working precision doubles a bounded number of times before
  RootFindingError is raised.

Floating point only picks the iteration's starting points; every
certificate is exact, and precision_bits sets only the certified widths
and the precision of the returned numbers.  The roots come back as exact
``Dyadic`` values (x + iy) / 2^e, each part rounded to nearest at
precision_bits.  Either way a solution is accepted only when every
backward residual, computed in integers from those values, is tiny.

``format_decimal`` renders a dyadic or a rational as the decimal text the
``zeros`` tables print.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .dynamics import MIN_PRECISION_BITS

# Sign bisection narrows an isolated root to this relative width before
# Newton steps take over; Newton then works this many bits past the
# certified width.
_BISECT_BITS = 8
_GUARD_BITS = 32
# The Weierstrass iteration starts at this many bits and ends this many
# past the certified width.  It takes at most _ENCLOSE_STEPS steps, and
# its working precision doubles at most _ENCLOSE_DOUBLINGS times when the
# disks do not separate.
_ENCLOSE_BITS = 64
_ENCLOSE_STEPS = 500
_ENCLOSE_DOUBLINGS = 3


class RootFindingError(RuntimeError):
    """A root could not be certified, or a backward residual missed its
    target."""


class Dyadic(NamedTuple):
    """The complex number (x + iy) / 2^e in lowest terms: e >= 0, and x
    and y are not both even unless e == 0."""

    x: int
    y: int
    e: int


def _dyadic(x: int, y: int, e: int) -> Dyadic:
    """(x + iy) / 2^e, e >= 0, in lowest terms."""
    both = x | y
    shift = min(e, (both & -both).bit_length() - 1) if both else e
    return Dyadic(x >> shift, y >> shift, e - shift)


def _round_mantissa(m: int, bits: int, sticky: bool = False, up: bool = False) -> tuple:
    """(r, shift) with r * 2^shift the integer m > 0 of more than bits bits
    rounded to a bits-bit mantissa: to nearest with ties to even, or up.
    sticky says the value lies strictly between m and m + 1."""
    shift = m.bit_length() - bits
    low = m & ((1 << shift) - 1)
    m >>= shift
    half = 1 << (shift - 1)
    if up:
        m += bool(low or sticky)
    else:
        m += low > half or (low == half and bool(sticky or m & 1))
    return m, shift


def _rounded_point(x: int, y: int, e: int, bits: int) -> Dyadic:
    """(x + iy) / 2^e with x and y each rounded to a bits-bit mantissa, to
    nearest with ties to even."""
    parts = []
    for v in (x, y):
        if abs(v).bit_length() > bits:
            m, shift = _round_mantissa(abs(v), bits)
            v = (m if v > 0 else -m) << shift
        parts.append(v)
    return _dyadic(*parts, e)


class RootSet(NamedTuple):
    """Roots of one polynomial, sorted by ascending modulus, then real
    part, then imaginary part.

    Each root is a :class:`Dyadic`, exact, with both parts rounded to
    nearest at find_roots' precision_bits; the roots are distinct, and
    the non-real ones come in exact conjugate pairs.
    A root's imaginary part is exactly 0 only when its sign bracket (or
    its exact deflation) certified it real, and nonzero only when its
    disk, disjoint from its mirror image, proved it non-real.
    residuals[i] is a Fraction at least |p(z_i)| / sum |a_j||z_i|^j,
    rounded up to precision_bits from the exact value (real z_i) or from
    an upper bound within about 2^-(precision_bits + 30) of it,
    relatively (non-real z_i); exact deflated zeros carry residual 0.
    """

    roots: tuple
    residuals: tuple

    @property
    def method(self) -> str:
        """``"isolated"`` when every root is certified real, ``"enclosed"``
        when one is non-real and so came from a Weierstrass disk."""
        return "enclosed" if any(z.y for z in self.roots) else "isolated"


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


def _gaussian_value(coeffs: list, x: int, y: int, e: int) -> tuple:
    """2^(e*n) * p((x + iy) / 2^e) for p of degree n, as a (re, im) pair."""
    re = im = 0
    shift = 0
    for c in coeffs:
        re, im = re * x - im * y + (c << shift), re * y + im * x
        shift += e
    return re, im


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
    remainders down to gcd(p, p') up to a constant factor, so its last
    member is a constant exactly when p is squarefree."""
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


def _isolate(seq: list) -> list:
    """Disjoint intervals (lo / 2^e, hi / 2^e], one around each distinct
    real root of seq[0], in no fixed order.

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

    shells = []
    work = [(-top, top, count(-top), count(top))]
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
    hi / 2^le], and p has the sign s_hi right of it there.  The candidate,
    a / 2^e rounded by ``_round_mantissa``, is certified by one exact sign
    bracket: an interval of reals that all round to it, of half-width at
    most 2^-bits of its modulus, whose ends inside the isolating interval
    have p's signs on either side of the root.  A candidate whose bracket
    misses the root gives way once to its neighbour.  Returns a real
    :class:`Dyadic`, or None; a root on a bracket's end goes through
    ``_rounded_point``.
    """
    # a has about bits + _GUARD_BITS bits unless Newton's last step cancelled it
    if abs(a).bit_length() < bits + 2:
        return None
    for _ in range(2):
        mantissa, shift = _round_mantissa(abs(a), bits)
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
                return _rounded_point(left, 0, e, bits)
            below = (v > 0) == (s_hi > 0)
        if right << (common - e) < hi << (common - le):
            v = _value(p, right, e)
            if v == 0:
                return _rounded_point(right, 0, e, bits)
            above = (v > 0) != (s_hi > 0)
        if not (below or above):
            return _dyadic(c, 0, e)
        a = left - 1 if below else right + 1
    return None


def _refine(p: list, dp: list, lo: int, hi: int, e: int, bits: int) -> Dyadic:
    """The root in (lo / 2^e, hi / 2^e] as a real :class:`Dyadic`,
    correctly rounded to bits: found exactly, or proven by a sign bracket
    inside the interval.

    Newton starts once from a bracket of _BISECT_BITS relative bits.  Near
    another root it may fall short of a certified rounding; bisection then
    runs all the way to bits + _GUARD_BITS, and RootFindingError is raised
    when even that bracket does not certify the rounding.
    """
    v = _value(p, hi, e)
    if v == 0:
        return _rounded_point(hi, 0, e, bits)
    s_hi = 1 if v > 0 else -1
    final = bits + _GUARD_BITS
    near = _bisect(p, lo, hi, e, s_hi, _BISECT_BITS)
    if near[0] == near[1]:
        return _rounded_point(near[1], 0, near[2], bits)
    guess = _newton(p, dp, near[0] + near[1], near[2] + 1, final)
    if guess is not None:
        rounded = _rounded(p, *guess, lo, hi, e, s_hi, bits)
        if rounded is not None:
            return rounded
    # Newton left the bracket or fell short: bisection keeps the sign change.
    n_lo, n_hi, n_e = _bisect(p, *near, s_hi, final)
    if n_lo == n_hi:
        return _rounded_point(n_hi, 0, n_e, bits)
    rounded = _rounded(p, n_hi, n_e, lo, hi, e, s_hi, bits)
    if rounded is None:
        raise RootFindingError(
            f"a real root's rounding to {bits} bits was not certified; retry with higher precision"
        )
    return rounded


def _weierstrass(p: list, points: list, f: int, count: int) -> list:
    """(P, D) at each of the first count Gaussian integer points X_i:
    P = 2^(f n) p(X_i / 2^f) and D = prod_{j != i} (X_i - X_j), exactly,
    as (re, im) pairs.

    The Weierstrass correction at z_i = X_i / 2^f is then
    W_i = P / (lc D 2^f).
    """
    out = []
    for i in range(count):
        x, y = points[i]
        pr, pi = _gaussian_value(p, x, y, f)
        dr, di = 1, 0
        for j, (u, v) in enumerate(points):
            if j != i:
                a, b = x - u, y - v
                dr, di = dr * a - di * b, dr * b + di * a
        out.append((pr, pi, dr, di))
    return out


def _disks(p: list, points: list, values: list, bits: int):
    """Radii r_i >= n |W_i| 2^f of disks around the points, or None unless
    the disks are pairwise disjoint and each r_i is at most 2^-bits of
    |X_i|.

    values are the (P, D) of the points, a real point and the upper half
    of each conjugate pair; the lower halves follow in points, in order.
    Each test is exact, on squared integers.
    """
    n2 = (len(p) - 1) ** 2
    lc2 = p[0] * p[0]
    radii = []
    for (x, y), (pr, pi, dr, di) in zip(points, values):
        den = lc2 * (dr * dr + di * di)
        if not den:
            return None
        q = -(-n2 * (pr * pr + pi * pi) // den)
        r = math.isqrt(q)
        r += r * r < q
        if (r * r) << (2 * bits) > x * x + y * y:
            return None
        radii.append(r)
    # a lower half has its upper half's radius
    radii += radii[2 * len(values) - len(points):]
    for i, (x, y) in enumerate(points):
        for j in range(i):
            u, v = points[j]
            if (x - u) ** 2 + (y - v) ** 2 <= (radii[i] + radii[j]) ** 2:
                return None
    return radii


def _times_power(a: int, s: int) -> int:
    """a * 2^s, rounded down."""
    return a << s if s >= 0 else a >> -s


def _polygon_moduli(p: list) -> list:
    """log2 of a modulus near each root of p, which has a nonzero constant
    term: the slopes of the upper Newton polygon of the points
    (j, log2 |c_j|), c_j the coefficient of z^j, each repeated along its
    edge's width."""
    points = [(j, math.log2(abs(c))) for j, c in enumerate(reversed(p)) if c]
    hull = []
    for j, y in points:
        while len(hull) > 1:
            (j0, y0), (j1, y1) = hull[-2], hull[-1]
            if (j1 - j0) * (y - y0) < (y1 - y0) * (j - j0):
                break
            hull.pop()
        hull.append((j, y))
    moduli = []
    for (j0, y0), (j1, y1) in zip(hull, hull[1:]):
        moduli += [(y0 - y1) / (j1 - j0)] * (j1 - j0)
    return moduli


def _enclose(p: list, reals: list, bits: int):
    """Disks that each hold one root of p, the squarefree polynomial that
    find_roots admitted, whose real roots are near the real
    :class:`Dyadic` values reals and whose other roots come in conjugate
    pairs.

    Returns (f, disks), each disk (x, y, r) the centre (x + iy) / 2^f and a
    radius at most r / 2^f, at most 2^-bits of the centre's modulus: the
    reals first, then the upper half of each pair, then the lower halves
    in the same order.

    The Weierstrass iteration z_i <- z_i - W_i, Newton's method on the map
    from the roots to the coefficients, runs on Gaussian integers, the
    lower halves kept the mirror images of the upper ones.  The scale 2^f
    gives the smallest root about w relative bits; w starts at
    _ENCLOSE_BITS and doubles whenever every correction is below 2^(-w/2)
    relative, up to bits + _ENCLOSE_BITS.  The disks D(z_i, n |W_i|) contain the
    Gerschgorin disks of diag(z) - W 1^T, whose characteristic polynomial
    is p / lc, so when they are pairwise disjoint each holds exactly one
    root; a disk disjoint from its mirror image holds a non-real root.
    The disks are tried once the iteration has settled at that precision;
    when they still overlap after it settles again, the working precision
    doubles, at most _ENCLOSE_DOUBLINGS times.
    """
    n = len(p) - 1
    lc = p[0]
    real_count = len(reals)
    pairs = (n - real_count) // 2
    moduli = _polygon_moduli(p)
    # The polygon's moduli are within a factor of about n of the roots',
    # and a scale that proves too coarse only costs a doubling.
    w = _ENCLOSE_BITS
    f = w + max(0, math.ceil(-min(moduli))) + n.bit_length()
    points = [(_times_power(x, f - e), 0) for x, _, e in reals]
    # Upper halves start spread over the upper half plane, off the
    # imaginary axis, at the moduli left after the real roots', one per
    # pair.  The angles are not symmetric about the imaginary axis: from a
    # mirror-symmetric start the iteration stays symmetric, and an even
    # polynomial's cluster on that axis would never separate.
    for x, _, e in reals:
        size = math.log2(abs(x)) - e
        moduli.remove(min(moduli, key=lambda m: abs(m - size)))
    for k, size in enumerate(sorted(moduli)[::2]):
        angle = math.pi * (k + 0.6) / (pairs + 0.5)
        unit, shift = 2 ** (size % 1 + 52), f + math.floor(size) - 52
        x, y = (_times_power(round(unit * t), shift) for t in (math.cos(angle), math.sin(angle)))
        points.append((x, y))

    target = bits + _ENCLOSE_BITS
    last = target << _ENCLOSE_DOUBLINGS
    count = real_count + pairs
    stalls = 0
    for _ in range(_ENCLOSE_STEPS):
        full = points + [(x, -y) for x, y in points[real_count:]]
        values = _weierstrass(p, full, f, count)
        if stalls:
            radii = _disks(p, full, values, bits)
            if radii is not None:
                return f, [(x, y, r) for (x, y), r in zip(full, radii)]
        converged = True
        for i, (pr, pi, dr, di) in enumerate(values):
            x, y = points[i]
            if not (dr or di):
                # two points coincide: move each by its own number of
                # units, so they part, and keep a real point on the axis
                points[i] = (x + i + 1, y + (i >= real_count))
                converged = False
                continue
            # W 2^f = P / (lc D), rounded to a Gaussian integer.  Bits of D
            # beyond 32 past those of the quotient cannot reach the units.
            size = max(abs(dr), abs(di)).bit_length()
            quotient = max(abs(pr), abs(pi)).bit_length() - size
            drop = size - max(quotient, 0) - 32
            if drop > 0:
                pr, pi, dr, di = pr >> drop, pi >> drop, dr >> drop, di >> drop
            nr, ni = pr * dr + pi * di, pi * dr - pr * di
            den = lc * (dr * dr + di * di)
            if den < 0:
                nr, ni, den = -nr, -ni, -den
            dx = (2 * nr + den) // (2 * den)
            dy = (2 * ni + den) // (2 * den)
            x, y = x - dx, y - dy
            # an upper half that crossed the real axis swaps with its mirror
            points[i] = (x, max(abs(y), 1)) if i >= real_count else (x, 0)
            if (dx * dx + dy * dy) << w > x * x + y * y:
                converged = False
        if not converged:
            continue
        if w == target:
            # Settled at the target precision: the disks are tried from the
            # next step on.  Settled twice and still overlapping, the roots
            # are closer than this precision resolves.
            stalls += 1
            if stalls < 2:
                continue
            if target == last:
                break
            target *= 2
            stalls = 0
        grow = min(2 * w, target) - w
        w += grow
        f += grow
        points = [(x << grow, y << grow) for x, y in points]
    raise RootFindingError(
        f"the root enclosures of a degree-{n} polynomial did not separate "
        f"within {_ENCLOSE_STEPS} steps and {target} bits; retry with "
        f"higher precision"
    )


def _residual(coeffs: list, abs_coeffs: list, z: Dyadic, guard: int) -> tuple:
    """(num, den) with num / den at least the backward residual
    |p(z)| / sum |a_j||z|^j of the nonzero z, and equal to it when z is
    real.

    For a non-real z, |p(z)| and |z| are square roots: |p(z)| is bounded
    above and |z| below at guard bits past their integer parts, so the
    bound is within about 2^-guard of the residual, relatively.
    """
    x, y, e = z
    if not y:
        return abs(_value(coeffs, x, e)), _value(abs_coeffs, abs(x), e)
    pr, pi = _gaussian_value(coeffs, x, y, e)
    square = (pr * pr + pi * pi) << (2 * guard)
    top = math.isqrt(square)
    top += top * top < square
    size = math.isqrt((x * x + y * y) << (2 * guard))
    return top << (guard * (len(coeffs) - 2)), _value(abs_coeffs, size, e + guard)


def find_roots(coeffs, precision_bits: int) -> RootSet:
    """All complex roots of an integer polynomial, each one certified.

    coeffs are the polynomial's ints, highest degree first, and the
    caller's precision_bits is at least MIN_PRECISION_BITS; a non-int
    coefficient raises TypeError, and a zero leading coefficient, a
    degree below 1 or a lower precision raises ValueError.  Exact zero
    roots, however many, are deflated symbolically first, and the rest is
    divided by its content; ValueError is raised, before any root is
    sought, when that part has a repeated root.  Every real root is
    isolated and refined in exact integer arithmetic, rounded to nearest
    at precision_bits and certified by an exact sign bracket of relative
    half-width at most 2^-precision_bits.  When that is every root,
    ``method == "isolated"``; otherwise (``method == "enclosed"``) each
    non-real root is the centre of a Weierstrass disk of relative radius
    at most 2^-precision_bits that holds exactly that root, its real and
    imaginary parts each rounded to nearest at precision_bits.
    precision_bits sets only these widths and the precision of the
    returned values.  Every backward residual must also meet
    2^(-precision_bits // 2), compared exactly in integers.
    RootFindingError is raised when it does not, when a real root's
    rounding cannot be certified, or when the disks fail to separate,
    which usually means the precision is too low for the polynomial.
    """
    work = list(coeffs)
    for c in work:
        if not isinstance(c, int):
            raise TypeError(f"expected int coefficients, got {type(c).__name__}")
    if len(work) < 2:
        raise ValueError("root finding needs a polynomial of degree >= 1")
    if work[0] == 0:
        raise ValueError("the leading coefficient must be nonzero")
    if precision_bits < MIN_PRECISION_BITS:
        raise ValueError(f"precision_bits must be at least {MIN_PRECISION_BITS}")

    zero_roots = 0
    while work[-1] == 0:
        work.pop()
        zero_roots += 1
    # the primitive form: a positive divisor keeps the signs
    content = math.gcd(*work)
    ints = [c // content for c in work]

    found = [Dyadic(0, 0, 0)] * zero_roots
    if len(ints) > 1:
        seq = _sturm_sequence(ints)
        if len(seq[-1]) > 1:
            raise ValueError("root finding needs a squarefree polynomial: a nonzero root is repeated")
        roots = [_refine(ints, seq[1], lo, hi, e, precision_bits) for lo, hi, e in _isolate(seq)]
        real_count = len(roots)
        if real_count < len(ints) - 1:
            f, disks = _enclose(ints, roots, precision_bits)
            roots += [_rounded_point(x, y, f, precision_bits) for x, y, _ in disks[real_count:]]
        found += roots
    top = max(z.e for z in found)

    def order(z: Dyadic) -> tuple:
        x, y, e = z
        s = top - e
        return (x * x + y * y) << (2 * s), x << s, y << s

    roots = tuple(sorted(found, key=order))

    abs_work = [abs(c) for c in work]
    bounds = [
        _residual(work, abs_work, z, precision_bits + _GUARD_BITS) if z.x or z.y else (0, 1)
        for z in roots
    ]
    residuals = tuple(rounded(num, den, precision_bits, up=True) for num, den in bounds)
    half = precision_bits // 2
    if any(num << half > den for num, den in bounds):
        raise RootFindingError(
            f"residual {format_decimal(max(residuals), 8, precision_bits)} missed "
            f"target {format_decimal(Fraction(1, 1 << half), 8, precision_bits)} at "
            f"{precision_bits} bits; retry with higher precision"
        )
    return RootSet(roots, residuals)


# ---------------------------------------------------------------------------
# rounding and decimal text
#
# A value rounded to a bits-bit mantissa is held as a Fraction whose
# denominator is a power of two.  Its text keeps the digit rule the zeros
# tables have always printed with, byte for byte (the tests hold it against
# the library that first printed them), so rows read as they always have.


def _fraction(m: int, s: int) -> Fraction:
    """m * 2^s."""
    return Fraction(m << s) if s >= 0 else Fraction(m, 1 << -s)


def rounded(num: int, den: int, bits: int, up: bool = False) -> Fraction:
    """num / den (den > 0) rounded to a bits-bit mantissa: to nearest with
    ties to even, or with up away from zero."""
    if not num:
        return Fraction(0)
    a = abs(num)
    s = a.bit_length() - den.bit_length() - bits - 1
    m, rest = divmod(a << -s, den) if s < 0 else divmod(a, den << s)
    m, shift = _round_mantissa(m, bits, bool(rest), up)
    return _fraction(m if num > 0 else -m, s + shift)


def rounded_sqrt(num: int, den: int, bits: int) -> Fraction:
    """The square root of num / den >= 0 rounded to nearest, ties to even,
    at a bits-bit mantissa."""
    if not num:
        return Fraction(0)
    # scale by 4^t so that the integer root has bits + 2 or more bits
    t = bits + 3 - (num.bit_length() - den.bit_length()) // 2
    n, rest = divmod(num << 2 * t, den) if t >= 0 else divmod(num, den << -2 * t)
    root = math.isqrt(n)
    root, shift = _round_mantissa(root, bits, bool(rest or root * root != n))
    return _fraction(root, shift - t)


# The digit budgets are sized with this float, as math.log(10, 2) gives
# it: math.log2(10) differs in the last bit and would move some budgets.
_LOG2_10 = math.log(10, 2)


def _decimal_text(man: int, exp: int, dps: int) -> str:
    """man * 2^exp with at most dps significant digits.

    The digit string is the value floored to about dps + 3 digits, through
    a fixed-point form of about that many bits, then rounded at digit dps
    from the next digit alone; the point goes in fixed position when the
    leading digit's exponent lies strictly between min(-(dps // 3), -5)
    and dps, and trailing zeros go.  For |value| beyond 2^+-3500 the
    tables' first printer divided by a rounded power of ten, so its last
    digit can differ from this exact one there.
    """
    if not man:
        return "0.0"
    sign = "-" if man < 0 else ""
    man = abs(man)
    bitprec = int((dps + 3) * _LOG2_10) + 10
    fixprec = max(bitprec - exp - man.bit_length(), 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    offset = exp + fixprec
    fixed = man << offset if offset >= 0 else man >> -offset
    scaled = fixed * 10**fixdps >> fixprec
    # a huge integer part: only its leading digits matter, and str() of an
    # int past 4300 digits raises
    drop = max(0, int(scaled.bit_length() * 0.30103) - dps - 10)
    digits = str(scaled // 10**drop)
    exponent = len(digits) + drop - fixdps - 1
    if len(digits) > dps and digits[dps] in "56789":
        up = str(int(digits[:dps]) + 1)
        if len(up) > dps:
            exponent += 1
        digits = up[:dps]
    else:
        digits = digits[:dps]
    split = 1
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            split = exponent + 1
        exponent = 0
    text = (digits[:split] + "." + digits[split:]).rstrip("0")
    if text[-1] == ".":
        text += "0"
    if exponent:
        text += f"e{exponent:+d}"
    return sign + text


def format_decimal(value, digits: int, bits: int) -> str:
    """value as decimal text with digits significant digits: a
    :class:`Dyadic` as ``(a + bj)`` or ``(a - bj)``, anything else a
    rational; each real number is first rounded to nearest at bits."""
    if isinstance(value, Dyadic):
        x, y, e = _rounded_point(*value, bits)
        sign = "-" if y < 0 else "+"
        return f"({_decimal_text(x, -e, digits)} {sign} {_decimal_text(abs(y), -e, digits)}j)"
    num, den = value.numerator, value.denominator
    if den & (den - 1) or abs(num).bit_length() > bits:
        value = rounded(num, den, bits)
        num, den = value.numerator, value.denominator
    return _decimal_text(num, 1 - den.bit_length(), digits)
