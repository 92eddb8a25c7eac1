"""Certified numeric root extraction for integer polynomials."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import from_rational

from baryzeros import RootFindingError, RootSet, find_roots, limit_h_coefficients, rootfinding
from baryzeros.cli import SUMMARY_DIGITS, _digits
from baryzeros.rootfinding import Dyadic, format_decimal, rounded_sqrt
from mp_values import as_mp, real_flags


def poly(*coeffs) -> tuple:
    "Integer coefficients of a rational polynomial, denominators cleared."
    scale = lcm(*(Fraction(c).denominator for c in coeffs))
    return tuple(int(c * scale) for c in coeffs)


def product(*roots) -> tuple:
    "Integer polynomial with exactly the given rational roots."
    coeffs = [Fraction(1)]
    for r in roots:
        coeffs = [a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return poly(*coeffs)


def assert_roots_match(rs, exact, bits):
    "Roots equal the exact rationals, sorted by modulus, to 2^-bits relative."
    expected = sorted(exact, key=lambda r: (abs(r), r))
    assert len(rs.roots) == len(expected)
    with mp.workprec(2 * bits):
        for z, r in zip(map(as_mp, rs.roots), expected):
            target = mp.mpf(r.numerator) / r.denominator
            assert mp.im(z) == 0
            assert abs(z - target) <= abs(target) * mp.mpf(2) ** -bits, (z, r)


def test_golden_ratio_roots():
    "z^2 + z - 1 has roots (-1 +/- sqrt(5)) / 2, sorted by modulus."
    rs = find_roots(poly(1, 1, -1), 128)
    assert len(rs.roots) == 2
    with mp.workprec(128):
        small = (mp.sqrt(5) - 1) / 2
        large = -(mp.sqrt(5) + 1) / 2
        assert abs(as_mp(rs.roots[0]) - small) < mp.mpf(2) ** -100
        assert abs(as_mp(rs.roots[1]) - large) < mp.mpf(2) ** -100
    assert all(real_flags(rs))
    assert as_mp(rs.roots[0]).real > 0 > as_mp(rs.roots[1]).real


def test_silver_ratio_roots():
    "z^2 + 2z - 1 has roots -1 +/- sqrt(2)."
    rs = find_roots(poly(1, 2, -1), 128)
    with mp.workprec(128):
        assert abs(as_mp(rs.roots[0]) - (mp.sqrt(2) - 1)) < mp.mpf(2) ** -100
        assert abs(as_mp(rs.roots[1]) - (-mp.sqrt(2) - 1)) < mp.mpf(2) ** -100
    assert all(real_flags(rs))


def test_residual_bound_holds():
    rs = find_roots(poly(1, 7, -10, 3), precision_bits=192)
    target = Fraction(1, 2 ** (192 // 2))
    assert all(r <= target for r in rs.residuals)


def test_zero_roots_deflated_exactly():
    "z^3 + z^2 = z^2 (z + 1): two exact zeros, then -1."
    rs = find_roots(poly(1, 1, 0, 0), 128)
    assert rs.method == "isolated"
    assert as_mp(rs.roots[0]) == 0 and as_mp(rs.roots[1]) == 0
    assert rs.residuals[0] == 0 and rs.residuals[1] == 0
    assert real_flags(rs)[0] and real_flags(rs)[1]
    assert abs(as_mp(rs.roots[2]) + 1) < mp.mpf(2) ** -60


def test_pure_monomial():
    rs = find_roots(poly(1, 0), 128)
    assert rs.method == "isolated"
    assert tuple(map(as_mp, rs.roots)) == (0,)
    assert rs.residuals == (0,)
    assert real_flags(rs) == (True,)


def test_complex_pair_not_certified_real():
    "z^2 + 1 has no real root: its two roots come from disjoint disks."
    rs = find_roots(poly(1, 0, 1), 128)
    assert rs.method == "enclosed"
    assert len(rs.roots) == 2
    assert not any(real_flags(rs))
    assert real_flags(rs) == (False, False)
    with mp.workprec(128):
        assert all(abs(abs(as_mp(z)) - 1) < mp.mpf(2) ** -100 for z in rs.roots)
    # the enclosure divides by a negative leading coefficient alike
    assert find_roots(poly(-1, 0, -1), 128) == rs


def test_distinct_integer_roots_certified():
    "(z - 1)(z - 2)(z - 3)(z - 4), all real and separated."
    rs = find_roots(poly(1, -10, 35, -50, 24), 128)
    assert rs.method == "isolated"
    assert real_flags(rs) == (True,) * 4
    seen = sorted(float(as_mp(z).real) for z in rs.roots)
    assert all(abs(a - b) < 1e-25 for a, b in zip(seen, (1.0, 2.0, 3.0, 4.0)))


def test_exact_dyadic_roots():
    "(2z - 1)(z + 3): bisection lands on both roots exactly."
    rs = find_roots(poly(2, 5, -3), precision_bits=192)
    assert rs.method == "isolated"
    assert tuple(map(as_mp, rs.roots)) == (mp.mpf(0.5), mp.mpf(-3))
    assert rs.residuals == (0, 0)
    assert all(real_flags(rs))


def test_one_positive_root_among_negative_ones():
    roots = (Fraction(1, 3), Fraction(-2), Fraction(-7, 5), Fraction(-11))
    rs = find_roots(product(*roots), precision_bits=256)
    assert rs.method == "isolated"
    assert all(real_flags(rs))
    assert sum(1 for z in rs.roots if as_mp(z).real > 0) == 1
    assert_roots_match(rs, roots, 256)


def test_roots_far_apart():
    "Roots near 2^-200, 1 and 2^200, as in deep subdivision h-polynomials."
    roots = (Fraction(3, 2**200), Fraction(-5, 7), Fraction(2**200 + 1))
    rs = find_roots(product(*roots), precision_bits=128)
    assert rs.method == "isolated"
    assert_roots_match(rs, roots, 128)
    target = Fraction(1, 2**64)
    assert all(r <= target for r in rs.residuals)


def test_clustered_roots_certified_by_bisection():
    """Roots 2^-100 apart: Newton from the 60-bit bracket cannot certify,
    from a bracket narrowed by sign bisection it does."""
    roots = (Fraction(1, 3), Fraction(1, 3) + Fraction(1, 2**100), Fraction(-2))
    rs = find_roots(product(*roots), precision_bits=256)
    assert rs.method == "isolated"
    assert_roots_match(rs, roots, 256)


@pytest.mark.parametrize(
    "bits, base, gap",
    [
        (192, Fraction(1), 60),
        (192, Fraction(1, 3), 100),
        (1024, Fraction(1), 60),
        (1024, Fraction(1, 3), 60),
        (1024, Fraction(1, 3), 100),
        (1024, Fraction(-5, 7), 300),
    ],
)
def test_clustered_roots_round_correctly(bits, base, gap):
    "A root 2^-gap (relative) from another rounds to nearest."
    roots = (base, base + base / 2**gap, Fraction(-3))
    rs = find_roots(product(*roots), precision_bits=bits)
    assert rs.method == "isolated"
    with mp.workprec(bits):
        for z, r in zip(map(as_mp, rs.roots), sorted(roots, key=lambda r: (abs(r), r))):
            assert z == mp.mpf(r.numerator) / mp.mpf(r.denominator), (z, r)


@pytest.mark.parametrize(
    "p",
    [
        product(-1, -1),  # (z + 1)^2
        (1, 0, -3, -2),  # (z + 1)^2 (z - 2)
        (1, -1, -4, 4, 4, -4),  # (z^2 - 2)^2 (z - 1)
        (1, 2, 3, 2, 1),  # (z^2 + z + 1)^2
        product(*(Fraction(1, 2),) * 3),  # (2z - 1)^3
        product(-1, -1, -1, 2),  # (z + 1)^3 (z - 2)
        product(3, 3, 3, 3, -2, -2),  # (z - 3)^4 (z + 2)^2
        product(0, -1, -1),  # z (z + 1)^2: deflated, still (z + 1)^2
    ],
    ids=[
        "square",
        "square-times-real",
        "real-pair-squared",
        "complex-pair-squared",
        "cube-of-half",
        "cube-times-real",
        "fourth-times-square",
        "zero-times-square",
    ],
)
def test_repeated_root_is_one_error(monkeypatch, p):
    """A repeated nonzero root is one ValueError with a fixed text, raised
    from the Sturm sequence before any root is isolated or enclosed."""

    def unreachable(*args):
        raise AssertionError("root search ran on a polynomial with a repeated root")

    monkeypatch.setattr(rootfinding, "_isolate", unreachable)
    monkeypatch.setattr(rootfinding, "_enclose", unreachable)
    with pytest.raises(ValueError) as excinfo:
        find_roots(p, 64)
    assert str(excinfo.value) == "root finding needs a squarefree polynomial: a nonzero root is repeated"


@pytest.mark.parametrize(
    "p, distinct",
    [
        ((1, -1, -2), 2),  # (z + 1)(z - 2)
        ((1, -1, -2, 2), 3),  # (z^2 - 2)(z - 1)
        ((1, 1, 1), 2),  # z^2 + z + 1
    ],
)
def test_residual_evaluated_once_per_distinct_root(monkeypatch, p, distinct):
    """Each root is one residual evaluation, and its entry in residuals is
    that root's own bound rounded up."""
    calls = []
    residual = rootfinding._residual

    def counted(*args):
        calls.append(args[2])
        return residual(*args)

    monkeypatch.setattr(rootfinding, "_residual", counted)
    rs = find_roots(p, 64)
    assert len(calls) == len(set(calls)) == distinct
    assert len(rs.roots) == len(p) - 1 == distinct
    abs_p = [abs(c) for c in p]
    for z, r in zip(rs.roots, rs.residuals):
        num, den = residual(p, abs_p, z, 64 + rootfinding._GUARD_BITS)
        assert r == rootfinding.rounded(num, den, 64, up=True), z


def with_pairs(p: tuple, pairs) -> tuple:
    "p times (z - u)^2 + v^2 for each (u, v): the conjugate roots u +- iv."
    coeffs = [Fraction(c) for c in p]
    for u, v in pairs:
        coeffs = [
            a - 2 * u * b + (u * u + v * v) * c
            for a, b, c in zip(coeffs + [0, 0], [0] + coeffs + [0], [0, 0] + coeffs)
        ]
    return poly(*coeffs)


def gaussian_value(p, re, im) -> tuple:
    "p at re + i im, exactly, as a (real, imaginary) pair."
    a = b = Fraction(0)
    for c in p:
        a, b = a * re - b * im + c, a * im + b * re
    return a, b


def exact(x) -> Fraction:
    "An mpf's exact value."
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


shifts = st.integers(-300, 300)
real_roots = st.builds(
    lambda a, c, s: Fraction(a, c) * Fraction(2) ** s,
    st.integers(1, 50) | st.integers(-50, -1),
    st.integers(1, 12),
    shifts,
)
pair_roots = st.builds(
    lambda a, b, c, s: (Fraction(a, c) * Fraction(2) ** s, Fraction(b, c) * Fraction(2) ** s),
    st.integers(-50, 50),
    st.integers(1, 50),
    st.integers(1, 12),
    shifts,
)


@settings(max_examples=40, deadline=None)
# an even polynomial whose pairs share a modulus: starts mirror-symmetric
# about the imaginary axis would never separate the cluster on it
@example(
    reals=[Fraction(1), Fraction(-1)],
    pairs=[(Fraction(0), Fraction(1))],
    layout="cluster",
    bits=16,
)
@given(
    st.lists(real_roots, max_size=3, unique=True),
    st.lists(pair_roots, min_size=1, max_size=3, unique=True),
    st.sampled_from(["apart", "cluster", "near-real"]),
    st.sampled_from([16, 64, 192, 512]),
)
def test_enclosures_hold_each_root_once(reals, pairs, layout, bits):
    """Real roots and conjugate pairs u +- iv of moduli 2^-300 to 2^300,
    with a pair 2^-100 from another, or 2^-100 off the real axis: each
    root lies in exactly one disk, the disks are disjoint, and each radius
    is at most 2^-bits of its centre's modulus."""
    u, v = pairs[0]
    if layout == "cluster":
        pairs.append((u + u / 2**100, v + v / 2**100))
    elif layout == "near-real":
        pairs.append((u or v, abs(u or v) / 2**100))
    p = with_pairs(product(*reals), pairs)
    calls = []
    enclose = rootfinding._enclose

    def recording(q, approx, b):
        found = enclose(q, approx, b)
        calls.append((q, found))
        return found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rootfinding, "_enclose", recording)
        rs = find_roots(p, bits)
    assert rs.method == "enclosed"
    assert len(rs.roots) == len(p) - 1
    assert list(real_flags(rs)) == [as_mp(z).imag == 0 for z in rs.roots]
    assert sum(real_flags(rs)) == len(reals)

    truth = [(r, 0) for r in reals] + [(a, s * b) for a, b in pairs for s in (1, -1)]
    enclosed = []
    for q, (f, disks) in calls:
        held = [z for z in truth if gaussian_value(q, *z) == (0, 0)]
        assert len(held) == len(disks) == len(q) - 1
        for a, b in held:
            inside = [(a * 2**f - x) ** 2 + (b * 2**f - y) ** 2 <= r * r for x, y, r in disks]
            assert inside.count(True) == 1, (a, b)
        for i, (x, y, r) in enumerate(disks):
            assert (r * r) << (2 * bits) <= x * x + y * y
            for x2, y2, r2 in disks[:i]:
                assert (x - x2) ** 2 + (y - y2) ** 2 > (r + r2) ** 2
        enclosed += held
    assert {z for z in truth if z[1]} <= set(enclosed)

    # every root near a returned value
    found = [(exact(z.real), exact(z.imag)) for z in map(as_mp, rs.roots)]
    for a, b in truth:
        near = [(a - x) ** 2 + (b - y) ** 2 <= (a * a + b * b) / 4 ** (bits - 2) for x, y in found]
        assert any(near), (a, b)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-50, max_value=50, max_denominator=12),
        min_size=1,
        max_size=7,
        unique=True,
    ),
    st.sampled_from([16, 64, 192, 512]),
)
def test_isolation_agrees_with_polyroots(roots, bits):
    """Distinct rational roots: the exact path matches polyroots at 2x
    precision (at least 128 bits: at 32 bits polyroots itself misses 76/3
    by 9e-6 relative in (z - 8)(z - 25)(z - 176/7)(z - 76/3))."""
    roots = [r for r in roots if r != 0] or [Fraction(1)]
    p = product(*roots)
    rs = find_roots(p, precision_bits=bits)
    assert rs.method == "isolated"
    assert all(real_flags(rs))
    with mp.workprec(max(2 * bits, 128)):
        coeffs = [mp.mpf(c) for c in p]
        ref = mp.polyroots(coeffs, maxsteps=400, extraprec=2 * bits)
        # by value: +-r tie in modulus, and the reference's error can break the tie
        ref = sorted(mp.re(w) for w in ref)
        for z, w in zip(sorted(mp.re(as_mp(z)) for z in rs.roots), ref):
            assert abs(z - w) <= abs(w) * mp.mpf(2) ** -bits, (z, w)
    for z, r in zip(map(as_mp, rs.roots), sorted(roots, key=lambda r: (abs(r), r))):
        nearest = from_rational(r.numerator, r.denominator, bits, "n")
        assert z.real._mpf_ == nearest and z.imag == 0, (z, r)


def test_near_tie_rounds_correctly():
    "Roots within 2^-31 ulp of a rounding tie still round to nearest."
    # z^2 + 2^57 z - 1 at 1024 bits: the small root is 2e-31 ulp past a tie
    rs = find_roots(poly(1, 2**57, -1), precision_bits=1024)
    assert rs.method == "isolated"
    with mp.workprec(4096):
        b = mp.mpf(2) ** 57
        exact = 2 / (b + mp.sqrt(b * b + 4))
    with mp.workprec(1024):
        assert as_mp(rs.roots[0]) == +exact
    # a hair below the tie between 1 - 2^-64 and 1, where the spacing doubles
    r = 1 - Fraction(1, 2**65) - Fraction(1, 2**164)
    rs = find_roots(product(r, -3), precision_bits=64)
    with mp.workprec(64):
        assert as_mp(rs.roots[0]) == 1 - mp.mpf(2) ** -64 != 1


@pytest.mark.parametrize("bits", [16, 64, 192])
def test_exact_tie_roots_round_to_even(bits):
    """(2^b z - (2^b + 1))(z + 3) at b bits: the root 1 + 2^-b lies exactly
    on a rounding bracket's end, halfway between 1 and 1 + 2^(1-b), and
    comes back rounded to even.  The mirrored tie, (2^b z - (2^b + 3))(z + 3),
    has its root 1 + 3 * 2^-b on the other end, halfway between the odd
    1 + 2^(1-b) and the even 1 + 2^(2-b), and rounds up to the even one."""
    rs = find_roots(product(1 + Fraction(1, 2**bits), -3), precision_bits=bits)
    assert rs.roots == (Dyadic(1, 0, 0), Dyadic(-3, 0, 0))
    assert real_flags(rs) == (True, True)
    rs = find_roots(product(1 + Fraction(3, 2**bits), -3), precision_bits=bits)
    assert rs.roots == (Dyadic(2 ** (bits - 2) + 1, 0, bits - 2), Dyadic(-3, 0, 0))
    assert real_flags(rs) == (True, True)


def test_modulus_sort_order():
    rs = find_roots(poly(1, 7, -10, 3), 128)
    mods = [abs(as_mp(z)) for z in rs.roots]
    assert mods == sorted(mods)


def test_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        find_roots(poly(5), 128)
    with pytest.raises(ValueError):
        find_roots(poly(0), 128)
    with pytest.raises(ValueError):
        find_roots(poly(1, 1), precision_bits=8)
    with pytest.raises(TypeError, match="int coefficients"):
        find_roots((1.0, 2), 128)
    with pytest.raises(TypeError, match="int coefficients"):
        find_roots((1, Fraction(1, 2)), 128)
    with pytest.raises(ValueError, match="leading coefficient"):
        find_roots((0, 1, 2), 128)


def test_newton_stops_where_the_derivative_vanishes():
    "Newton started at a zero of p' (p = z^2 - 2 at 0) takes no step and returns None."
    assert rootfinding._newton([1, 0, -2], [2, 0], 0, 0, 64) is None


def test_disks_reject_coincident_points():
    "Two equal points have a zero Weierstrass denominator, so no disks are drawn."
    p = [1, 0, -2]
    points = [(3, 0), (3, 0)]
    values = rootfinding._weierstrass(p, points, 1, len(points))
    assert values[0][2:] == (0, 0)
    assert rootfinding._disks(p, points, values, 16) is None


@pytest.mark.parametrize("bits", [64, 192, 512])
@pytest.mark.parametrize("g", [70, 80, 120, 300])
def test_coincident_real_starts_part(g, bits):
    """(2^g z - 2^g)(2^g z - 2^g - 1)(z^2 + 1): the real roots 1 and
    1 + 2^-g start on the same Gaussian integer of the enclosure's grid,
    where the Weierstrass denominator vanishes for both.  The nudge moves
    them apart along the real axis, and each root comes back rounded to
    nearest."""
    s = 2**g
    p = with_pairs(product(1, 1 + Fraction(1, s)), [(Fraction(0), Fraction(1))])
    rs = find_roots(p, precision_bits=bits)
    assert rs.method == "enclosed"
    assert rs.roots[:3] == (Dyadic(0, -1, 0), Dyadic(0, 1, 0), Dyadic(1, 0, 0))
    near = as_mp(rs.roots[3])
    assert near.imag == 0 and near.real._mpf_ == from_rational(s + 1, s, bits, "n")


def test_newton_that_lost_its_bits_falls_back_to_bisection(monkeypatch):
    """A Newton result with fewer bits than the rounding needs (here the
    point 1) is refused by _rounded, and bisection finds the same roots."""
    expected = find_roots([1, 0, -2], 64)
    calls = []

    def short(*args):
        calls.append(args)
        return 1, 0

    monkeypatch.setattr(rootfinding, "_newton", short)
    assert find_roots([1, 0, -2], 64) == expected
    assert len(calls) == 2


def test_precision_floor_respected():
    rs = find_roots(poly(1, 1, -1), precision_bits=16)
    assert all(r <= Fraction(1, 2**8) for r in rs.residuals)


def test_high_precision_tightens_residuals():
    rs = find_roots(poly(1, 15, -13, 3), precision_bits=512)
    target = Fraction(1, 2 ** (512 // 2))
    assert all(r <= target for r in rs.residuals)


def test_assorted_rational_polynomials():
    "Backward residuals hold across a mixed bag of fixed inputs."
    cases = [
        (1, 0, 0, -2),
        (2, -3, Fraction(1, 2)),
        (1, -1, 1, -1, 1),
        (3, 0, -7, 1),
        (1, 100, 1),
        (Fraction(1, 3), Fraction(-5, 2), 1, 7),
    ]
    for coeffs in cases:
        rs = find_roots(poly(*coeffs), 128)
        assert len(rs.roots) == len(coeffs) - 1, coeffs
        target = Fraction(1, 2 ** (128 // 2))
        assert all(r <= target for r in rs.residuals), coeffs


def test_rootset_is_frozen():
    rs = find_roots(poly(1, 1, -1), 128)
    assert isinstance(rs, RootSet)
    with pytest.raises(AttributeError):
        rs.roots = ()


def test_error_type():
    assert issubclass(RootFindingError, RuntimeError)


def test_missed_residual_target_raises(monkeypatch):
    "The residual gate fires on a residual above 2^-(bits // 2)."
    monkeypatch.setattr(rootfinding, "_residual", lambda *args: (1, 1))
    message = (
        "residual 1.0 missed target 2.3283064e-10 at 64 bits; "
        "retry with higher precision"
    )
    with pytest.raises(RootFindingError) as excinfo:
        find_roots((1, 1, -1), 64)
    assert str(excinfo.value) == message


def exact_residual(p, z) -> Fraction:
    "|p(z)| / sum |a_j| |z|^j of a real root z, in Fractions."
    value = scale = Fraction(0)
    for c in p:
        value = value * z + c
        scale = scale * abs(z) + abs(c)
    return abs(value) / scale


@pytest.mark.parametrize("bits", [16, 64, 192, 1024])
def test_residuals_are_exact_upper_bounds(bits):
    """A real root's residual is its exact backward residual rounded up at
    bits.  A non-real root's integer bound lies above the residual mpmath
    computes at 4 * bits + 512 bits, within 2^-(bits + 16) of it, and its
    rounded residual within 2^(2 - bits)."""
    p = with_pairs(product(Fraction(1, 3), Fraction(-7, 5)), [(Fraction(1, 3), Fraction(5, 7))])
    rs = find_roots(p, bits)
    assert rs.method == "enclosed" and sum(real_flags(rs)) == 2
    for z, r, real in zip(rs.roots, rs.residuals, real_flags(rs)):
        x, y, e = z
        if real:
            exact_value = exact_residual(p, Fraction(x, 2**e))
        else:
            with mp.workprec(4 * bits + 512):
                w = as_mp(z)
                value = abs(mp.polyval([mp.mpf(c) for c in p], w))
                scale = mp.polyval([mp.mpf(abs(c)) for c in p], abs(w))
                exact_value = exact(value / scale) * (1 - Fraction(1, 2 ** (4 * bits + 400)))
            num, den = rootfinding._residual(p, [abs(c) for c in p], z, bits + 32)
            bound = Fraction(num, den)
            assert exact_value <= bound <= exact_value * (1 + Fraction(1, 2 ** (bits + 16)))
        assert exact_value <= r <= exact_value * (1 + Fraction(4, 2**bits)), z
    assert max(rs.residuals) <= Fraction(1, 2 ** (bits // 2))


# ---------------------------------------------------------------------------
# decimal text: format_decimal against mpmath's nstr


def nstr_oracle(value, digits: int, bits: int) -> str:
    "What mpmath prints for value at a bits-bit working precision."
    with mp.workprec(bits):
        if isinstance(value, Dyadic):
            return mp.nstr(+as_mp(value), digits)
        return mp.nstr(mp.make_mpf(from_rational(value.numerator, value.denominator, bits, "n")), digits)


@st.composite
def dyadic_reals(draw, bits: int, digits: int) -> tuple:
    """(m, s) for the value m * 2^s: a random mantissa of up to bits bits, a
    decimal rounding boundary at digits digits (or a string of nines) and
    its neighbours one unit away, or a power of two and its neighbours;
    either sign, or zero.  |m * 2^s| stays within 2^-3400 and 2^3400."""
    kind = draw(st.sampled_from(["random", "boundary", "nines", "power", "zero"]))
    if kind == "zero":
        return 0, 0
    if kind == "random":
        m = draw(st.integers(1, 2**bits - 1))
    elif kind == "power":
        m = (1 << draw(st.integers(0, bits - 1))) + draw(st.sampled_from([-1, 0, 1]))
    else:
        if kind == "nines":
            head = 10**digits - 1
        else:
            head = draw(st.integers(10 ** (digits - 1), 10**digits - 1))
        tail = draw(st.sampled_from([5, 4, 6, 0, 9]))
        ten = draw(st.integers(-300, 300))
        q = Fraction(10 * head + tail) * Fraction(10) ** (ten - digits)
        q = rootfinding.rounded(q.numerator, q.denominator, bits)
        shift = q.denominator.bit_length() - 1
        m = q.numerator + draw(st.sampled_from([-1, 0, 1]))
        return m * draw(st.sampled_from([1, -1])), -shift
    s = draw(st.integers(-3400, 3400)) - m.bit_length()
    return m * draw(st.sampled_from([1, -1])), s


@st.composite
def formatted(draw, complex_values: bool):
    bits = draw(st.sampled_from([16, 53, 64, 65, 192, 512, 1024, 8192]) | st.integers(16, 8192))
    digits = draw(st.sampled_from([_digits(bits), SUMMARY_DIGITS, 8]))
    x, s = draw(dyadic_reals(bits, digits))
    if not complex_values:
        return Fraction(x) * Fraction(2) ** s, digits, bits
    y, t = draw(dyadic_reals(bits, digits))
    e = max(0, -s, -t)
    return Dyadic(x << (s + e), y << (t + e), e), digits, bits


@settings(max_examples=400, deadline=None)
@given(formatted(complex_values=False))
def test_format_decimal_matches_nstr(case):
    """Dyadic reals of 16 to 8192 bits, at the zeros table's digit counts
    and the gate's 8: the same text as mpmath's nstr."""
    value, digits, bits = case
    assert format_decimal(value, digits, bits) == nstr_oracle(value, digits, bits)


@settings(max_examples=150, deadline=None)
@given(formatted(complex_values=True))
def test_format_decimal_matches_nstr_complex(case):
    "Roots with either sign of each part print as mpmath prints an mpc."
    value, digits, bits = case
    assert format_decimal(value, digits, bits) == nstr_oracle(value, digits, bits)


@settings(max_examples=100, deadline=None)
@given(
    st.fractions(max_denominator=10**30).filter(lambda q: q != 0) | st.just(Fraction(0)),
    st.integers(16, 1024),
    st.sampled_from([8, 10, 20]),
)
def test_format_decimal_rounds_rationals_once(q, bits, digits):
    "A rational prints as mpmath prints the mpf it rounds to at bits."
    assert format_decimal(q, digits, bits) == nstr_oracle(q, digits, bits)


def test_format_decimal_fixed_forms():
    "The gate's error line, zero, and the fixed and exponent forms."
    assert format_decimal(1, 8, 192) == "1.0"
    assert format_decimal(Fraction(1, 2**96), 8, 192) == "1.2621774e-29"
    assert format_decimal(0, 20, 64) == "0.0"
    assert format_decimal(Dyadic(-3, 0, 1), 8, 64) == "(-1.5 + 0.0j)"
    assert format_decimal(Dyadic(1, -1, 0), 8, 64) == "(1.0 - 1.0j)"
    assert format_decimal(Fraction(-1, 10**5), 20, 192) == "-0.00001"
    assert format_decimal(Fraction(1, 10**7), 20, 192) == "1.0e-7"
    assert format_decimal(Fraction(10**19 - 1), 20, 192) == "9999999999999999999.0"
    assert format_decimal(Fraction(10**20), 20, 192) == "1.0e+20"


@pytest.mark.parametrize("shift", [-8000, -3600, 3600, 8000, 15000])
def test_format_decimal_beyond_mpmath_fixed_route(shift):
    """Beyond 2^+-3500 mpmath divides by a rounded power of ten; away from a
    rounding boundary the digits still agree."""
    value = Fraction(3**40 + 1) * Fraction(2) ** shift
    for digits in (8, 20):
        assert format_decimal(value, digits, 192) == nstr_oracle(value, digits, 192)


def test_rounded_sqrt_of_zero_is_zero():
    assert rounded_sqrt(0, 1, 16) == 0


@pytest.mark.parametrize("d", range(1, 17))
def test_limit_zeros_are_certified(d):
    """The limit h-polynomial of dimension d has d real roots, each isolated
    by an exact sign bracket: one at 0 and the rest negative, paired by
    z -> 1/z (it is palindromic), so -1 is a root exactly when d is even."""
    rs = find_roots(poly(*limit_h_coefficients(d)[1:]), 192)
    assert rs.method == "isolated"
    assert len(rs.roots) == d and all(real_flags(rs))
    assert rs.roots[0] == Dyadic(0, 0, 0)
    nonzero = [Fraction(z.x, 1 << z.e) for z in rs.roots[1:]]
    assert all(r < 0 for r in nonzero)
    assert (Dyadic(-1, 0, 0) in rs.roots) == (d % 2 == 0)
    for small, large in zip(nonzero, reversed(nonzero)):
        assert abs(small * large - 1) <= Fraction(1, 2**180)
    if d == 16:
        assert Fraction("-1.1575e-4") < nonzero[0] < Fraction("-1.1574e-4")
