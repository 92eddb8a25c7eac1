"""Certified numeric root extraction for integer polynomials."""

from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import from_rational

from baryzeros import RootFindingError, RootSet, find_roots, rootfinding


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
        for z, r in zip(rs.roots, expected):
            target = mp.mpf(r.numerator) / r.denominator
            assert mp.im(z) == 0
            assert abs(z - target) <= abs(target) * mp.mpf(2) ** -bits, (z, r)


def test_golden_ratio_roots():
    "z^2 + z - 1 has roots (-1 +/- sqrt(5)) / 2, sorted by modulus."
    rs = find_roots(poly(1, 1, -1))
    assert len(rs.roots) == 2
    with mp.workprec(rs.precision_bits):
        small = (mp.sqrt(5) - 1) / 2
        large = -(mp.sqrt(5) + 1) / 2
        assert abs(rs.roots[0] - small) < mp.mpf(2) ** -100
        assert abs(rs.roots[1] - large) < mp.mpf(2) ** -100
    assert all(rs.real_certified)
    assert rs.roots[0].real > 0 > rs.roots[1].real


def test_silver_ratio_roots():
    "z^2 + 2z - 1 has roots -1 +/- sqrt(2)."
    rs = find_roots(poly(1, 2, -1))
    with mp.workprec(rs.precision_bits):
        assert abs(rs.roots[0] - (mp.sqrt(2) - 1)) < mp.mpf(2) ** -100
        assert abs(rs.roots[1] - (-mp.sqrt(2) - 1)) < mp.mpf(2) ** -100
    assert all(rs.real_certified)


def test_residual_bound_holds():
    rs = find_roots(poly(1, 7, -10, 3), precision_bits=192)
    target = mp.mpf(2) ** -(192 // 2)
    assert all(r <= target for r in rs.residuals)
    assert rs.precision_bits == 192


def test_zero_roots_deflated_exactly():
    "z^3 + z^2 = z^2 (z + 1): two exact zeros, then -1."
    rs = find_roots(poly(1, 1, 0, 0))
    assert rs.method == "isolated"
    assert rs.roots[0] == 0 and rs.roots[1] == 0
    assert rs.residuals[0] == 0 and rs.residuals[1] == 0
    assert rs.real_certified[0] and rs.real_certified[1]
    assert abs(rs.roots[2] + 1) < mp.mpf(2) ** -60


def test_pure_monomial():
    rs = find_roots(poly(1, 0))
    assert rs.method == "isolated"
    assert rs.roots == (0,)
    assert rs.residuals == (0,)
    assert rs.real_certified == (True,)


def test_complex_pair_not_certified_real():
    "z^2 + 1 has no real root: its two roots come from disjoint disks."
    rs = find_roots(poly(1, 0, 1))
    assert rs.method == "enclosed"
    assert len(rs.roots) == 2
    assert not any(rs.real_certified)
    assert rs.real_certified == (False, False)
    with mp.workprec(rs.precision_bits):
        assert all(abs(abs(z) - 1) < mp.mpf(2) ** -100 for z in rs.roots)


def test_distinct_integer_roots_certified():
    "(z - 1)(z - 2)(z - 3)(z - 4), all real and separated."
    rs = find_roots(poly(1, -10, 35, -50, 24))
    assert rs.method == "isolated"
    assert rs.real_certified == (True,) * 4
    seen = sorted(float(z.real) for z in rs.roots)
    assert all(abs(a - b) < 1e-25 for a, b in zip(seen, (1.0, 2.0, 3.0, 4.0)))


def test_exact_dyadic_roots():
    "(2z - 1)(z + 3): bisection lands on both roots exactly."
    rs = find_roots(poly(2, 5, -3), precision_bits=192)
    assert rs.method == "isolated"
    assert rs.roots == (mp.mpf(0.5), mp.mpf(-3))
    assert rs.residuals == (0, 0)
    assert all(rs.real_certified)


def test_one_positive_root_among_negative_ones():
    roots = (Fraction(1, 3), Fraction(-2), Fraction(-7, 5), Fraction(-11))
    rs = find_roots(product(*roots), precision_bits=256)
    assert rs.method == "isolated"
    assert all(rs.real_certified)
    assert sum(1 for z in rs.roots if z.real > 0) == 1
    assert_roots_match(rs, roots, 256)


def test_roots_far_apart():
    "Roots near 2^-200, 1 and 2^200, as in deep subdivision h-polynomials."
    roots = (Fraction(3, 2**200), Fraction(-5, 7), Fraction(2**200 + 1))
    rs = find_roots(product(*roots), precision_bits=128)
    assert rs.method == "isolated"
    assert_roots_match(rs, roots, 128)
    target = mp.mpf(2) ** -64
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
        for z, r in zip(rs.roots, sorted(roots, key=lambda r: (abs(r), r))):
            assert z == mp.mpf(r.numerator) / mp.mpf(r.denominator), (z, r)


def test_repeated_root_gets_exact_multiplicity():
    "(z + 1)^2 (z - 2) is not squarefree: -1 twice and 2, each exact."
    rs = find_roots(product(-1, -1, 2))
    assert rs.method == "enclosed"
    assert rs.roots == (-1, -1, 2)
    assert rs.real_certified == (True,) * 3
    assert rs.residuals == (0, 0, 0)


@pytest.mark.parametrize(
    "roots",
    [(-1, -1), (Fraction(1, 2),) * 3, (-1, -1, -1, 2), (3, 3, 3, 3, -2, -2), (0, -1, -1)],
)
def test_powers_of_a_linear_factor_split_exactly(roots):
    """Where a gcd in the chain is a power of one linear factor, the Sturm
    sequence ends at that power's derivative, whose content is not 1."""
    rs = find_roots(product(*roots), precision_bits=64)
    assert rs.roots == tuple(sorted(roots, key=lambda r: (abs(r), r)))
    assert all(rs.real_certified)


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
    repeats=(1, 1),
)
@given(
    st.lists(real_roots, max_size=3, unique=True),
    st.lists(pair_roots, min_size=1, max_size=3, unique=True),
    st.sampled_from(["apart", "cluster", "near-real", "repeated"]),
    st.sampled_from([16, 64, 192, 512]),
    st.tuples(st.integers(1, 4), st.integers(1, 4)),
)
def test_enclosures_hold_each_root_once(reals, pairs, layout, bits, repeats):
    """Real roots and conjugate pairs u +- iv of moduli 2^-300 to 2^300,
    with a pair 2^-100 from another, or 2^-100 off the real axis, or the
    first real root and pair repeated: each root lies in exactly one disk,
    the disks are disjoint, each radius is at most 2^-bits of its centre's
    modulus, and every multiplicity is exact."""
    u, v = pairs[0]
    if layout == "cluster":
        pairs.append((u + u / 2**100, v + v / 2**100))
    elif layout == "near-real":
        pairs.append((u or v, abs(u or v) / 2**100))
    real_mult = dict.fromkeys(reals, 1)
    pair_mult = dict.fromkeys(pairs, 1)
    if layout == "repeated":
        pair_mult[pairs[0]] = repeats[1]
        if reals:
            real_mult[reals[0]] = repeats[0]
    p = with_pairs(
        product(*(r for r, m in real_mult.items() for _ in range(m))),
        [pair for pair, m in pair_mult.items() for _ in range(m)],
    )
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
    assert list(rs.real_certified) == [z.imag == 0 for z in rs.roots]
    assert sum(rs.real_certified) == sum(real_mult.values())

    truth = {(r, 0): m for r, m in real_mult.items()}
    for (a, b), m in pair_mult.items():
        truth[a, b] = truth[a, -b] = m
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

    # every root, with its multiplicity, near a returned value
    found = [(exact(z.real), exact(z.imag)) for z in rs.roots]
    for (a, b), m in truth.items():
        near = [(a - x) ** 2 + (b - y) ** 2 <= (a * a + b * b) / 4 ** (bits - 2) for x, y in found]
        assert near.count(True) >= m, (a, b)
    if layout == "repeated":
        assert sorted(Counter(rs.roots).values()) == sorted(truth.values())


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
    assert all(rs.real_certified)
    with mp.workprec(max(2 * bits, 128)):
        coeffs = [mp.mpf(c) for c in p]
        ref = mp.polyroots(coeffs, maxsteps=400, extraprec=2 * bits)
        # by value: +-r tie in modulus, and the reference's error can break the tie
        ref = sorted(mp.re(w) for w in ref)
        for z, w in zip(sorted(mp.re(z) for z in rs.roots), ref):
            assert abs(z - w) <= abs(w) * mp.mpf(2) ** -bits, (z, w)
    for z, r in zip(rs.roots, sorted(roots, key=lambda r: (abs(r), r))):
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
        assert rs.roots[0] == +exact
    # a hair below the tie between 1 - 2^-64 and 1, where the spacing doubles
    r = 1 - Fraction(1, 2**65) - Fraction(1, 2**164)
    rs = find_roots(product(r, -3), precision_bits=64)
    with mp.workprec(64):
        assert rs.roots[0] == 1 - mp.mpf(2) ** -64 != 1


def test_modulus_sort_order():
    rs = find_roots(poly(1, 7, -10, 3))
    mods = [abs(z) for z in rs.roots]
    assert mods == sorted(mods)


def test_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        find_roots(poly(5))
    with pytest.raises(ValueError):
        find_roots(poly(0))
    with pytest.raises(ValueError):
        find_roots(poly(1, 1), precision_bits=8)
    with pytest.raises(TypeError, match="int coefficients"):
        find_roots((1.0, 2))
    with pytest.raises(TypeError, match="int coefficients"):
        find_roots((1, Fraction(1, 2)))
    with pytest.raises(ValueError, match="leading coefficient"):
        find_roots((0, 1, 2))


def test_precision_floor_respected():
    rs = find_roots(poly(1, 1, -1), precision_bits=16)
    assert rs.precision_bits == 16
    assert all(r <= mp.mpf(2) ** -8 for r in rs.residuals)


def test_high_precision_tightens_residuals():
    rs = find_roots(poly(1, 15, -13, 3), precision_bits=512)
    target = mp.mpf(2) ** -(512 // 2)
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
        rs = find_roots(poly(*coeffs))
        assert len(rs.roots) == len(coeffs) - 1, coeffs
        target = mp.mpf(2) ** -(rs.precision_bits // 2)
        assert all(r <= target for r in rs.residuals), coeffs


def test_rootset_is_frozen():
    rs = find_roots(poly(1, 1, -1))
    assert isinstance(rs, RootSet)
    with pytest.raises(AttributeError):
        rs.roots = ()


def test_error_type():
    assert issubclass(RootFindingError, RuntimeError)


def test_missed_residual_target_raises(monkeypatch):
    "The residual gate fires on a residual above 2^-(bits // 2)."
    monkeypatch.setattr(rootfinding, "_backward_residual", lambda *args: mp.mpf(1))
    message = (
        "residual 1.0 missed target 2.3283064e-10 at 64 bits; "
        "retry with higher precision"
    )
    with pytest.raises(RootFindingError) as excinfo:
        find_roots((1, 1, -1), 64)
    assert str(excinfo.value) == message
