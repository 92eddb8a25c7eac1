"""Sieves, squarefree-divisor complexes, and explicit subdivision."""

import hashlib
import random
import sys
import tracemalloc
from array import array
from itertools import accumulate, count, islice
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baryzeros import (
    ConsistencyError,
    FVector,
    ResourceLimitError,
    build_sieve,
    chi_profile,
    complexes,
    dim_of,
    h_poly,
    mertens,
    shared_sieve,
    summary,
)
from baryzeros.checks import first_negative_euler
from baryzeros.complexes import (
    DIM1_START,
    SimplicialComplex,
    barycentric_subdivide,
    dimension_runs,
    explicit_complex,
)
from reference_tables import CHI_REFERENCE


def brute_mobius(k: int) -> int:
    "Moebius value by trial-division factorization."
    if k == 1:
        return 1
    value = 1
    p = 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            value = -value
        p += 1
    if k > 1:
        value = -value
    return value


def brute_weight(k: int) -> int:
    "Number of prime factors by trial division, -1 if k is not squarefree."
    count = 0
    p = 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return -1
            count += 1
        p += 1
    return count + (k > 1)


def test_sieve_mobius_against_trial_division():
    table = build_sieve(2000)
    chi = table.chi
    for k in range(1, 2001):
        assert chi[k - 1] - chi[k] == brute_mobius(k), k
        assert table.weight[k] == brute_weight(k), k


def test_sieve_small_limits_are_prefixes():
    "Every i*p > limit cut-off leaves the entries below it unchanged."
    big = build_sieve(2000)
    for limit in range(1, 13):
        table = build_sieve(limit)
        assert table.limit == limit
        assert table.weight == big.weight[: limit + 1], limit
        assert table.chi == big.chi[: limit + 1], limit


def linear_sieve(limit: int) -> tuple[list, list]:
    """Weights and Mertens running sums by the linear (Euler) sieve.

    An i >= 2 not yet reached is prime and gets weight 1.  Every composite
    i*p is reached exactly once, from its smallest prime p: it gets -1 when
    p divides i or i is not squarefree, and weight[i] + 1 otherwise.
    """
    weight = [0] * (limit + 1)
    primes = []
    for i in range(2, limit + 1):
        wi = weight[i]
        if wi == 0:
            wi = weight[i] = 1
            primes.append(i)
        next_weight = -1 if wi < 0 else wi + 1
        for p in primes:
            ip = i * p
            if ip > limit:
                break
            if i % p == 0:
                weight[ip] = -1
                break
            weight[ip] = next_weight
    prefix = [0] * (limit + 1)
    run = 0
    for k in range(1, limit + 1):
        w = weight[k]
        if w >= 0:
            run += -1 if w & 1 else 1
        prefix[k] = run
    return weight, prefix


def test_sieve_against_linear_sieve():
    """build_sieve slot for slot against the linear sieve: every limit up
    to 3000, p^2 - 1, p^2 and p^2 + 1 for p <= 60, the primorials up to
    510510 and 10^5.  The linear sieve at a limit is the prefix of its run
    at 510510, so it runs once."""
    weight, prefix = linear_sieve(510510)
    small_primes = [p for p in range(2, 61) if brute_weight(p) == 1]
    limits = [
        *range(1, 3001),
        *(p * p + e for p in small_primes for e in (-1, 0, 1)),
        2, 6, 30, 210, 2310, 30030, 510510,
        10**5,
    ]
    for limit in limits:
        table = build_sieve(limit)
        assert (table.weight.typecode, table.chi.typecode) == ("b", "i")
        assert table.weight.tolist() == weight[: limit + 1], limit
        assert table.chi.tolist() == [-m for m in prefix[: limit + 1]], limit


def test_sieve_memory():
    "The sieve holds one byte of weight and four of chi per slot."
    limit = 10**5
    tracemalloc.start()
    try:
        table = build_sieve(limit)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert table.limit == limit
    # weight and chi are each allocated once at their final size
    assert held <= 5.5 * limit, held
    assert sys.getsizeof(table.weight) == sys.getsizeof(array("b")) + limit + 1


def test_sieve_build_peak():
    "Building the sieve at 10^6 peaks at most half a byte per slot above what it holds."
    limit = 10**6
    tracemalloc.start()
    try:
        build_sieve(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * limit, peak


def test_sieve_bytes_at_a_million():
    """The sha256 of build_sieve(10**6)'s weight bytes and of its chi as
    little-endian int32, pinned from the build by one slice round per
    prime and a running sum per slot."""
    table = build_sieve(10**6)
    chi = array("i", table.chi)
    if sys.byteorder == "big":
        chi.byteswap()
    assert hashlib.sha256(table.weight.tobytes()).hexdigest() == (
        "2b3043066f4bec79acfcd4ba39c7a6f38727ee486875c2dee90ff8071627c43b"
    )
    assert hashlib.sha256(chi.tobytes()).hexdigest() == (
        "16ae2575ce7c522dd059c5e484cbc21ca7987cbe3bb83826a1671242401e1069"
    )


_BLOCK = complexes._BLOCK


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7]),
    st.sampled_from([0, 2**15 + 1, 2**16 + 1]),
    st.sampled_from([1, -1]),
    st.integers(0, 2**32 - 1),
)
def test_running_sums_match_accumulate(length, run, sign, seed):
    """_running_sums against itertools.accumulate, on weight bytes of
    seeded random face terms across block edges after a monotone run whose
    sum passes +-2^15 or +-2^16.  Slot 0 holds a 0 byte and sums to 0."""
    values = [sign] * run + random.Random(seed).choices((-1, 0, 1), k=length)
    weights = b"\0" + bytes({1: 1, -1: 2, 0: 0xFF}[v] for v in values)
    assert complexes._running_sums(weights).tolist() == [0, *accumulate(values)]


def test_running_sums_swap_on_big_endian_hosts(monkeypatch):
    """The sums are written as little-endian int32; where sys.byteorder is
    big they are swapped once into the native order."""
    weights = b"\1" * _BLOCK + b"\xff" * (2 * _BLOCK + 7)
    little = complexes._running_sums(weights)
    monkeypatch.setattr(sys, "byteorder", "big")
    swapped = complexes._running_sums(weights)
    monkeypatch.undo()
    swapped.byteswap()
    assert swapped == little


def test_sieve_guards(monkeypatch):
    monkeypatch.setattr("baryzeros.complexes.SIEVE_MEMORY_BUDGET", 100)
    assert build_sieve(100).limit == 100
    with pytest.raises(ResourceLimitError, match="exceeds the configured budget 100"):
        build_sieve(101)
    with pytest.raises(ValueError):
        build_sieve(0)


def test_mertens_prefix_sums():
    running = 0
    for x in range(1, 301):
        running += brute_mobius(x)
        assert mertens(x) == running, x


def test_mertens_known_values():
    assert mertens(1) == 1
    assert mertens(2) == 0
    assert mertens(6) == -1
    assert mertens(94) == 1
    assert mertens(10**4) == -23


def weight_count(d: int, x: int) -> int:
    "Count of squarefree k <= x with exactly d prime factors."
    weight = shared_sieve(x).weight
    return sum(1 for k in range(1, x + 1) if weight[k] == d)


def test_weight_counts_at_30():
    "Squarefree numbers up to 30 split by number of prime factors."
    assert weight_count(0, 30) == 1
    assert weight_count(1, 30) == 10
    assert weight_count(2, 30) == 7
    assert weight_count(3, 30) == 1
    assert weight_count(4, 30) == 0


def test_summary_counts_match_weight_rescans():
    "The one-pass f-vector in summary against one weight_count rescan per weight."
    for n in range(1, 2001):
        d = dim_of(n)
        expected = (1, *(weight_count(w, n) for w in range(1, d + 2)))
        assert summary(n).counts == expected, n


def test_dim_of_primorial_steps():
    assert DIM1_START == 6
    assert dim_of(DIM1_START) == 1
    assert dim_of(DIM1_START - 1) == 0
    assert dim_of(1) == -1
    assert dim_of(2) == 0
    assert dim_of(5) == 0
    assert dim_of(6) == 1
    assert dim_of(29) == 1
    assert dim_of(30) == 2
    assert dim_of(209) == 2
    assert dim_of(210) == 3
    assert dim_of(2310) == 4


# P_0 = 1 through P_16, the running products of the first 16 primes
PRIMORIALS = tuple(
    accumulate(islice((k for k in count(2) if brute_weight(k) == 1), 16), mul, initial=1)
)


def test_primorial_table_is_the_running_products_of_the_first_primes():
    assert complexes._PRIMORIALS == PRIMORIALS


def test_dim_of_steps_at_every_primorial_in_the_table():
    for j in range(1, 16):
        assert dim_of(PRIMORIALS[j] - 1) == j - 2, j
        assert dim_of(PRIMORIALS[j]) == j - 1, j


def test_dim_of_stops_at_the_table_end():
    with pytest.raises(ValueError, match=str(PRIMORIALS[16])):
        dim_of(PRIMORIALS[16])


def test_dimension_runs_walk_primorials_past_any_sieve():
    p = PRIMORIALS
    assert list(dimension_runs(p[9] - 3, p[13] + 2)) == [
        (7, p[9] - 3, p[9]),
        (8, p[9], p[10]),
        (9, p[10], p[11]),
        (10, p[11], p[12]),
        (11, p[12], p[13]),
        (12, p[13], p[13] + 2),
    ]


def test_dimension_runs_tile_the_range():
    for start, stop in [(1, 2), (1, 2311), (5, 6), (6, 30), (7, 211), (29, 31), (9, 9)]:
        runs = list(dimension_runs(start, stop))
        dims = [d for d, lo, hi in runs for _ in range(lo, hi)]
        assert dims == [dim_of(n) for n in range(start, stop)], (start, stop)
        assert all(lo < hi for _, lo, hi in runs)
        assert [d for d, _, _ in runs] == sorted({d for d, _, _ in runs})


def test_fvector_validation():
    with pytest.raises(ValueError):
        FVector(())
    with pytest.raises(ValueError):
        FVector((2, 3))
    with pytest.raises(ValueError):
        FVector((1, -1, 2))
    with pytest.raises(ValueError):
        FVector((1, 3, 0))


def test_fvector_accessors():
    fv = FVector((1, 3, 1))
    assert fv.dim == 1
    assert fv.count(-1) == 1
    assert fv.count(0) == 3
    assert fv.count(1) == 1
    with pytest.raises(IndexError):
        fv.count(2)
    assert fv.euler_char() == 1


def test_h_poly_known_cases():
    assert h_poly(FVector((1, 3, 1))) == (1, 1, -1)
    assert h_poly(FVector((1, 4, 2))) == (1, 2, -1)
    assert h_poly(FVector((1, 10, 7, 1))) == (1, 7, -10, 3)
    assert h_poly(FVector((1, 18, 20, 6))) == (1, 15, -13, 3)


def test_h_poly_degenerate_cases():
    """A single point has h(z) = z.  The empty complex has none: the
    f-polynomial at z - 1, a monic polynomial of degree dim + 1 and the
    constant term (-1)^dim * chi all give (1,) there, not chi = -1, so
    h_poly is defined only where shift_matrix is and raises below."""
    assert h_poly(FVector((1, 1))) == (1, 0)
    with pytest.raises(ValueError):
        h_poly(FVector((1,)))


def test_h_poly_constant_term_tracks_euler_char():
    for counts in ((1, 3, 1), (1, 10, 7, 1), (1, 18, 20, 6), (1, 5, 4)):
        fv = FVector(counts)
        h = h_poly(fv)
        assert h[0] == 1
        sign = -1 if fv.dim % 2 else 1
        assert h[-1] == sign * fv.euler_char()


def horner(coeffs, x):
    "The polynomial with these coefficients, highest degree first, at x."
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


@given(
    st.builds(
        lambda middle, top: (1, *middle, top),
        st.lists(st.integers(0, 10**12), max_size=8),
        st.integers(1, 10**12),
    ),
    st.fractions(min_value=-50, max_value=50, max_denominator=20),
)
def test_h_poly_is_f_poly_at_z_minus_one(counts, x):
    "h_poly, built by the shift matrix, is the f-polynomial composed with z - 1."
    h = h_poly(FVector(counts))
    assert all(type(c) is int for c in h)
    assert horner(h, x) == horner(counts, x - 1)


def test_summary_known_complexes():
    s6 = summary(6)
    assert (s6.dim, s6.counts, s6.euler_char()) == (1, (1, 3, 1), 1)
    s30 = summary(30)
    assert (s30.dim, s30.counts, s30.euler_char()) == (2, (1, 10, 7, 1), 3)
    s94 = summary(94)
    assert (s94.dim, s94.euler_char()) == (2, -1)
    s210 = summary(210)
    assert s210.dim == 3
    assert s210.count(3) == 1


def test_summary_cross_check_is_enforced(monkeypatch):
    table = shared_sieve(6)
    skewed = array("i", table.chi)
    skewed[6] -= 1
    monkeypatch.setattr(complexes, "_shared_sieve", table._replace(chi=skewed))
    with pytest.raises(
        ConsistencyError,
        match=r"^euler characteristic 1 and Mertens value 0 disagree at n=6$",
    ):
        summary(6)


def test_chi_profile_against_reference():
    chi = chi_profile(44)
    assert len(chi) == 45
    assert [chi[n] for n in range(1, 45)] == CHI_REFERENCE
    assert all(chi[n] == -mertens(n) for n in range(1, 45))


def test_first_negative_euler():
    assert first_negative_euler() == 94
    chi = chi_profile(94)
    assert chi[94] == -1
    assert all(chi[n] >= 0 for n in range(2, 94))


def test_first_negative_euler_not_found():
    assert first_negative_euler(50) is None


def test_from_facets_closure():
    c = SimplicialComplex.from_facets([(1, 2, 3)])
    assert len(c.simplices) == 8
    assert c.dim == 2
    assert c.f_vector().counts == (1, 3, 3, 1)
    assert c.euler_char() == 0
    c.validate()


def test_validate_rejects_missing_face():
    broken = SimplicialComplex(
        frozenset({frozenset(), frozenset({1}), frozenset({1, 2})})
    )
    with pytest.raises(ValueError):
        broken.validate()


def test_explicit_complex_small():
    c6 = explicit_complex(6)
    assert frozenset({2, 3}) in c6.simplices
    assert {frozenset({2}), frozenset({3}), frozenset({5})} <= c6.simplices
    assert c6.f_vector().counts == (1, 3, 1)
    c1 = explicit_complex(1)
    assert c1.simplices == frozenset({frozenset()})
    assert c1.dim == -1
    assert c1.f_vector().counts == (1,)


def test_explicit_complex_matches_summary():
    for n in (2, 6, 30, 94, 210):
        c = explicit_complex(n)
        c.validate()
        s = summary(n)
        assert c.f_vector() == s, n
        assert c.euler_char() == s.euler_char(), n


def test_explicit_complex_respects_bound(monkeypatch):
    monkeypatch.setattr("baryzeros.complexes.EXPLICIT_COMPLEX_BOUND", 10)
    assert explicit_complex(10).f_vector() == summary(10)
    with pytest.raises(ResourceLimitError, match="capped at n=10;"):
        explicit_complex(50)


def test_subdivide_known_face_counts():
    once = barycentric_subdivide(explicit_complex(6))
    assert once.f_vector().counts == (1, 4, 2)
    assert h_poly(once.f_vector()) == (1, 2, -1)
    big = barycentric_subdivide(explicit_complex(30))
    assert big.f_vector().counts == (1, 18, 20, 6)


def test_subdivide_trivial_complexes():
    point = SimplicialComplex.from_facets([(1,)])
    again = barycentric_subdivide(point)
    assert again.f_vector().counts == (1, 1)
    empty = explicit_complex(1)
    assert barycentric_subdivide(empty).f_vector().counts == (1,)


def test_subdivide_budget(monkeypatch):
    monkeypatch.setattr("baryzeros.complexes.SUBDIVISION_OUTPUT_CAP", 3)
    with pytest.raises(ResourceLimitError, match="exceed 3 simplices"):
        barycentric_subdivide(explicit_complex(30))


def test_shared_sieve_grows_monotonically():
    a = shared_sieve(10)
    assert a.limit >= 10
    b = shared_sieve(a.limit + 5)
    assert b.limit >= a.limit + 5
    assert shared_sieve(10).limit >= b.limit


def test_error_types_are_runtime_errors():
    assert issubclass(ConsistencyError, RuntimeError)
    assert issubclass(ResourceLimitError, RuntimeError)
