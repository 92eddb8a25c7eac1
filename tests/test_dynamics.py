"""Growth expansions, zero trajectories, and scaling limits."""

import importlib.util
import os
import sys
import tracemalloc
from fractions import Fraction
from math import factorial, gcd
from pathlib import Path

import pytest
from mpmath import mp

from baryzeros import (
    AlphaScan,
    FVector,
    alpha,
    alpha_scan,
    chi_profile,
    dim_of,
    eigen_rationals,
    find_roots,
    growth_expansion,
    h_poly,
    limit_h_coefficients,
    shared_sieve,
    subdivided_f,
    summary,
    trajectory,
)
from baryzeros import checks, dynamics, rootfinding
from baryzeros.checks import first_negative_euler
from baryzeros.cli import main
from baryzeros.complexes import DIM1_START
from mp_values import as_mp, real_flags
from reference_tables import ALPHA_DISCREPANCIES, ALPHA_REFERENCE

WORKLOADS = Path(__file__).parent.parent / "perfbench" / "workloads.py"


def test_subdivided_f_first_rounds():
    fv = FVector((1, 3, 1))
    assert subdivided_f(fv, 0) == (fv,)
    assert [f.counts for f in subdivided_f(fv, 2)] == [(1, 3, 1), (1, 4, 2), (1, 6, 4)]
    assert subdivided_f(FVector((1, 10, 7, 1)), 1)[1].counts == (1, 18, 20, 6)


def test_subdivided_f_guards():
    fv = FVector((1, 3, 1))
    with pytest.raises(ValueError, match="^subdivision depth must be nonnegative$"):
        subdivided_f(fv, -1)
    with pytest.raises(ValueError, match="^subdivision depth 65 exceeds the cap 64$"):
        subdivided_f(fv, 65)


@pytest.mark.parametrize("n", [30, 210, 30030])
def test_orbit_matches_subdivided_f_and_closed_form(n):
    "The orbit, one step per depth, against its k-step prefixes and the closed form."
    fv = summary(n)
    orbit = subdivided_f(fv, 64)
    expansion = growth_expansion(fv)
    assert len(orbit) == 65
    for k, fk in enumerate(orbit):
        assert fk.dim == fv.dim
        assert subdivided_f(fv, k) == orbit[: k + 1], k
        assert fk.counts == tuple(expansion.evaluate(i, k) for i in range(-1, fv.dim + 1))


def test_growth_expansion_line_complex():
    "Vertex counts of the repeatedly subdivided segment pair: 2^k + 2."
    g = growth_expansion(FVector((1, 3, 1)))
    assert g._fields == ("dim", "coefficients")
    assert g.evaluate(0, 0) == 3
    for k in range(0, 10):
        assert g.evaluate(0, k) == 2**k + 2
        assert g.evaluate(1, k) == 2**k
        assert g.evaluate(-1, k) == 1


def test_growth_expansion_leading_coefficients():
    "The top-eigenvalue row is f_top times the eigen weights."
    for n in (6, 30, 210):
        fv = summary(n)
        d = fv.dim
        g = growth_expansion(fv)
        weights = eigen_rationals(d)
        f_top = fv.count(d)
        for i in range(-1, d + 1):
            assert g.coefficients[0][i + 1] == f_top * weights[i + 1], (n, i)


def test_growth_expansion_reproduces_exact_counts():
    for counts in (
        (1, 2),
        (1, 3, 1),
        (1, 10, 7, 1),
        (1, 4, 2),
        (1, 343, 643, 359, 58, 1),
        (1, 3248, 7429, 5723, 1708, 152, 1),
    ):
        fv = FVector(counts)
        g = growth_expansion(fv)
        d = fv.dim
        for k, fk in enumerate(subdivided_f(fv, 12)):
            for i in range(-1, d + 1):
                assert g.evaluate(i, k) == fk.count(i), (counts, i, k)
            h = tuple(
                sum(factorial(d + 1 - j) ** k * q[i] for j, q in enumerate(g.h_rows))
                for i in range(d + 2)
            )
            assert h == h_poly(fk), (counts, k)


def test_c6_constant_is_exactly_22():
    """The c6 erratum's constant is exactly 22 (n = 30, d = 2).

    h_k / 6^k = sum_j r_j^k Q_j with r_j = (3 - j)! / 3!, where Q_j is
    growth_expansion's h_rows[j], and Q_0 is f_top times the limit
    h-polynomial, whose interior zero is -1.  To first order the interior
    root sits kappa * 3^-k from -1, with kappa = -Q_1(-1) / Q_0'(-1); the
    next term is about 16 * 6^-k.  At k = 12 the gap is the 22.003 * 3^-12
    that test_c6_interior_root_tolerance_as_stated prints."""
    fv = summary(30)
    q = growth_expansion(fv).h_rows
    assert q[0] == tuple(fv.count(2) * c for c in limit_h_coefficients(2)) == (
        0, Fraction(1, 2), Fraction(1, 2), 0,
    )

    def value(coeffs, z):
        total = Fraction(0)
        for c in coeffs:
            total = total * z + c
        return total

    slope = value([c * (len(q[0]) - 1 - i) for i, c in enumerate(q[0][:-1])], -1)
    kappa = -value(q[1], -1) / slope
    assert kappa == 22
    scaled = {}
    for entry in trajectory(30, [12, 16, 24], 512).entries:
        ((x, y, e),) = entry.interior
        assert y == 0
        scaled[entry.k] = (Fraction(x, 2**e) + 1) * 3**entry.k
        assert abs(scaled[entry.k] - kappa) <= Fraction(32, 2**entry.k), entry.k
    assert f"{float(scaled[12]):.3f}" == "22.003"


@pytest.mark.parametrize("n", [6, 10, 14, 30, 94, 210, 2310, 30030, 510510])
def test_alpha_from_the_h_side_expansion(n):
    """alpha_n = (-1)^d Q_d(0) / Q_0'(0), with Q_j growth_expansion's h_rows
    as in test_c6_constant_is_exactly_22: Q_0 is f_top times the limit
    h-polynomial, and Q_d, the row of the fixed base 1! = 1, holds the
    h-polynomial's constant term, (-1)^d chi."""
    fv = summary(n)
    d = fv.dim
    q = growth_expansion(fv).h_rows
    assert q[0] == tuple(fv.count(d) * c for c in limit_h_coefficients(d))
    assert q[-1][-1] == (-1) ** d * fv.euler_char()
    assert alpha(n).alpha == (-1) ** d * q[-1][-1] / q[0][-2]


def test_trajectory_works_at_the_requested_precision():
    """Every depth works at the bits it was given, however far ((d+1)!)^k
    grows, and still certifies rho_inf real with residuals within
    2^-(bits/2): dimension 6 to k = 64 at 192 bits."""
    t = trajectory(510510, range(65), 192)
    assert t.precision_bits == 192
    for e in t.entries:
        assert e.rootset.roots[-1].y == 0, e.k
        assert max(e.rootset.residuals) <= Fraction(1, 2**96), e.k


def test_trajectory_structure():
    t = trajectory(6, range(4))
    assert t.limit == alpha(6) == (6, 1, 1, 1)
    assert t.limit.h1 == 1
    assert t.base.counts == (1, 3, 1)
    assert [e.k for e in t.entries] == [0, 1, 2, 3]
    first = t.entries[0]
    assert first._fields == (
        "k", "rootset", "ratio_inf", "scaled_rho0", "ambiguous", "sum_rel_err", "prod_rel_err",
    )
    # the RootSet find_roots returned, method included
    assert first.rootset == find_roots(h_poly(t.base), t.precision_bits)
    rho_0, rho_inf = first.rootset.roots
    assert first.interior == ()
    with mp.workprec(t.precision_bits):
        assert abs(as_mp(rho_0) - (mp.sqrt(5) - 1) / 2) < mp.mpf(2) ** -60
        assert abs(as_mp(rho_inf) + (mp.sqrt(5) + 1) / 2) < mp.mpf(2) ** -60
        assert abs(as_mp(first.scaled_rho0) - abs(as_mp(rho_0))) == 0
    assert rho_inf.y == 0
    assert not first.ambiguous


def test_trajectory_vieta_errors_tiny():
    t = trajectory(6, range(7))
    for e in t.entries:
        assert e.sum_rel_err < 1e-9, e.k
        assert e.prod_rel_err < 1e-9, e.k


def test_trajectory_convergence_direction():
    "scaled_rho0 approaches |alpha| = 1 and ratio_inf approaches 1."
    t = trajectory(6, range(11))
    last = t.entries[-1]
    assert abs(float(last.scaled_rho0) - 1.0) < 1e-2
    assert abs(float(last.ratio_inf) - 1.0) < 1e-2


def gaussian_fraction(z) -> tuple:
    "A root (x + iy) / 2^e as a (real, imaginary) pair of Fractions."
    x, y, e = z
    return Fraction(x, 2**e), Fraction(y, 2**e)


@pytest.mark.parametrize(
    "n, k, bits", [(6, 6, 192), (30, 2, 16), (37, 3, 64), (210, 4, 192), (2310, 5, 1024)]
)
def test_trajectory_diagnostics_are_exact(n, k, bits):
    """The identity errors are the exact relative errors of the roots' sum
    and product, in Fractions (n = 37 and n = 30 have non-real roots at
    these depths); ratio_inf and scaled_rho0 are the exact values rounded
    to nearest at the trajectory's precision."""
    t = trajectory(n, [k], bits)
    (e,) = t.entries
    h = h_poly(subdivided_f(t.base, k)[k])
    roots = [gaussian_fraction(z) for z in e.rootset.roots]
    total = (sum(re for re, _ in roots), sum(im for _, im in roots))
    product = (Fraction(1), Fraction(0))
    for re, im in roots:
        product = (product[0] * re - product[1] * im, product[0] * im + product[1] * re)
    assert total[1] == product[1] == 0
    vieta_sum = Fraction(-h[1], h[0])
    vieta_prod = Fraction((-1) ** (len(h) - 1) * h[-1], h[0])
    assert e.sum_rel_err == abs(total[0] - vieta_sum) / max(1, abs(vieta_sum))
    assert e.prod_rel_err == abs(product[0] - vieta_prod) / max(1, abs(vieta_prod))
    growth = factorial(t.limit.dim + 1) ** k
    h1 = t.limit.h1
    with mp.workprec(4 * t.precision_bits):
        predicted = mp.mpf(h1.numerator) / h1.denominator * t.limit.f_top * growth
        ratio = abs(as_mp(e.rootset.roots[-1])) / predicted
        scaled = abs(as_mp(e.rootset.roots[0])) * growth
    with mp.workprec(t.precision_bits):
        assert as_mp(e.ratio_inf) == +ratio
        assert as_mp(e.scaled_rho0) == +scaled


def sturm_count(poly) -> int:
    "Distinct real roots of an integer polynomial by Sturm's theorem, in Fractions."

    def remainder(a, b):
        a = list(a)
        while len(a) >= len(b):
            q = Fraction(a[0]) / b[0]
            a = [x - q * y for x, y in zip(a, b + [0] * (len(a) - len(b)))][1:]
        while a and a[0] == 0:
            a.pop(0)
        return a

    n = len(poly) - 1
    seq = [list(poly), [(n - i) * c for i, c in enumerate(poly[:-1])]]
    while len(seq[-1]) > 1:
        rem = remainder(seq[-2], seq[-1])
        if not rem:
            break
        seq.append([-c for c in rem])

    def changes(signs):
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    at_pos = [q[0] > 0 for q in seq]
    at_neg = [(q[0] > 0) == (len(q) % 2 == 1) for q in seq]
    return changes(at_neg) - changes(at_pos)


@pytest.mark.parametrize(
    "n,k",
    [(30, 39), (210, 22), (2310, 15), (30030, 11), (510510, 9), (30, 64), (210, 64)],
)
def test_trajectory_certified_at_deep_depths(n, k):
    "Depths where polyroots gave up at 192 bits are certified at 192 bits now."
    t = trajectory(n, [k])
    (e,) = t.entries
    roots, residuals = e.rootset
    assert roots[-1].y == 0
    assert max(residuals) <= Fraction(1, 2 ** (t.precision_bits // 2))
    assert len(roots) == t.limit.dim + 1
    h = h_poly(subdivided_f(t.base, k)[k])
    assert sum(real_flags(find_roots(h, t.precision_bits))) == sturm_count(h)


def test_trajectory_walks_one_orbit(monkeypatch):
    "trajectory takes its face counts from one subdivided_f call at the deepest depth."
    calls = []
    walk = dynamics.subdivided_f

    def counting(fv, depth):
        calls.append(depth)
        return walk(fv, depth)

    monkeypatch.setattr(dynamics, "subdivided_f", counting)
    trajectory(30, range(6))
    assert calls == [5]


def test_trajectory_selected_depths():
    t = trajectory(6, [2, 5])
    assert [e.k for e in t.entries] == [2, 5]


def test_trajectory_guards():
    with pytest.raises(ValueError):
        trajectory(6, [-1])
    with pytest.raises(ValueError):
        trajectory(5, range(3))


@pytest.mark.parametrize("depths", [[5, 2], [2, 2]])
def test_trajectory_rejects_depths_out_of_order(depths):
    rule = "^depths must be nonempty, strictly ascending and nonnegative$"
    with pytest.raises(ValueError, match=rule):
        trajectory(6, depths)


def test_trajectory_checks_the_depth_cap_first():
    "A last depth above the cap fails on the cap, whatever the order."
    with pytest.raises(ValueError, match="^subdivision depth 65 exceeds the cap 64$"):
        trajectory(6, [70, 3, 65])


def benchmark_zeros_cells(monkeypatch) -> list:
    """(n, k, bits) of the first seed-1 benchmark zeros command in each
    (dimension, bits) cell."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body is processed
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    cells = {}
    for command in workloads.commands_for("zeros", 1, 15):
        facts = command.facts
        cells.setdefault((facts["dim"], facts["bits"]), (facts["n"], facts["k"], facts["bits"]))
    assert len(cells) == len(workloads.ZEROS_DEPTHS) * len(workloads.ZEROS_BITS)
    return list(cells.values())


def test_benchmark_zeros_certify_from_the_first_bracket(monkeypatch):
    """One benchmark zeros command per (dimension, bits) cell: every root
    certifies from the first _BISECT_BITS bracket, so _refine's fallback
    to full bisection never runs on the workload's h-polynomials."""
    cells = benchmark_zeros_cells(monkeypatch)
    widths = []
    bisect = rootfinding._bisect

    def recording(p, lo, hi, e, s_hi, bits):
        widths.append(bits)
        return bisect(p, lo, hi, e, s_hi, bits)

    monkeypatch.setattr(rootfinding, "_bisect", recording)
    for n, k, bits in cells:
        trajectory(n, range(k + 1), bits)
    assert widths and set(widths) == {rootfinding._BISECT_BITS}


def exact(x) -> Fraction:
    "The value of a finite mpf as a Fraction."
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def rounding_cell(x, bits: int) -> tuple:
    """The closed interval of reals that round to nearest to the nonzero
    mpf x with a bits-bit mantissa.  Below a power of two the spacing
    halves."""
    sign, man, exp, bc = x._mpf_
    m, ulp = man << (bits - bc), Fraction(2) ** (exp - (bits - bc))
    low = (m - Fraction(1, 4 if m == 1 << (bits - 1) else 2)) * ulp
    high = (m + Fraction(1, 2)) * ulp
    return (-high, -low) if sign else (low, high)


def test_benchmark_zeros_round_to_nearest(monkeypatch):
    """Every isolated row of the 192-bit benchmark zeros cells, d = 1..5:
    each root found at bits + 64 lies in the rounding cell of the matching
    root at the row's bits."""
    cells = [(n, k) for n, k, bits in benchmark_zeros_cells(monkeypatch) if bits == 192]
    assert sorted(dim_of(n) for n, _ in cells) == [1, 2, 3, 4, 5]
    rows = 0
    for n, k_max in cells:
        fv = summary(n)
        for k, counts in enumerate(subdivided_f(fv, k_max)):
            h = h_poly(counts)
            bits = 192
            coarse = find_roots(h, bits)
            if coarse.method != "isolated":
                continue
            rows += 1
            fine = find_roots(h, bits + 64)
            assert fine.method == "isolated"
            assert len(coarse.roots) == len(fine.roots) == fv.dim + 1
            pairs = zip(
                sorted(as_mp(z).real for z in coarse.roots),
                sorted(as_mp(z).real for z in fine.roots),
            )
            for x, y in pairs:
                if not x:
                    assert not y, (n, k)
                    continue
                low, high = rounding_cell(x, bits)
                assert low <= exact(y) <= high, (n, k, x)
    assert rows >= sum(k for _, k in cells)


def test_benchmark_zeros_certify_every_root_without_polyroots(monkeypatch):
    """One benchmark zeros command per (dimension, bits) cell, and the k <= 3
    probe set at 16, 64 and 192 bits: every h-polynomial's roots are
    certified, and the ones certified real number its real roots by an
    independent Sturm count, which counts each root once: find_roots
    admits only squarefree polynomials.  No command loads mpmath at all
    (test_commands_load_only_what_they_run), so no polyroots either."""
    probes = [
        (n, 3, bits)
        for n in (6, 7, 30, 31, 37, 210, 2310, 3090, 30030)
        for bits in (16, 64, 192)
    ]
    seen = []
    solve = dynamics.find_roots

    def checking(h, precision_bits):
        rs = solve(h, precision_bits)
        assert sum(real_flags(rs)) == sturm_count(h), (h, precision_bits)
        seen.append(rs.method)
        return rs

    monkeypatch.setattr(dynamics, "find_roots", checking)
    for n, k, bits in benchmark_zeros_cells(monkeypatch) + probes:
        trajectory(n, range(k + 1), bits)
    assert "enclosed" in seen and "isolated" in seen


def test_h_polynomials_to_2000_are_squarefree():
    """Every distinct f-vector of dimension >= 1 with n <= 2000, walked
    cumulatively from the sieve's weight bytes, at every depth k <= 8:
    with its zero roots deflated and its content divided out, the
    h-polynomial passes find_roots' squarefree test, a Sturm sequence
    ending in a constant."""
    weight = shared_sieve(2000).weight
    counts = [0] * 6
    seen = set()
    for n in range(1, 2001):
        if weight[n] >= 0:
            counts[weight[n]] += 1
        if n >= DIM1_START:
            seen.add(tuple(counts[: dim_of(n) + 2]))
    polys = 0
    for fv in seen:
        for fk in subdivided_f(FVector(fv), 8):
            h = list(h_poly(fk))
            while h[-1] == 0:
                h.pop()
            content = gcd(*h)
            seq = rootfinding._sturm_sequence([c // content for c in h])
            assert len(seq[-1]) == 1, fk
            polys += 1
    assert (len(seen), polys) == (1211, 10899)


def test_alpha_known_values():
    assert alpha(6).alpha == 1
    assert alpha(6).exponent == 0.0
    assert alpha(30).alpha == 6
    assert alpha(30).exponent == 1.0
    assert alpha(215).alpha == Fraction(-11, 2)
    assert alpha(219).alpha == -22
    assert alpha(39).alpha == 0
    assert alpha(39).exponent is None


def test_alpha_fields():
    rec = alpha(30)
    assert (rec.n, rec.dim, rec.chi, rec.f_top) == (30, 2, 3, 1)
    assert rec.h1 == Fraction(1, 2)


def test_alpha_guards():
    for n in (1, 2, 5):
        with pytest.raises(ValueError):
            alpha(n)
    with pytest.raises(ValueError):
        alpha_scan(5)
    with pytest.raises(ValueError):
        chi_profile(-5)
    with pytest.raises(ValueError):
        first_negative_euler(-5)


def test_alpha_scan_agrees_with_single_lookups():
    """Every n <= 2310, across the dimension changes at 6, 30, 210 and 2310:
    list(alpha_scan(N)) == [alpha(n) for n in 6..N] for each N of them,
    and a trajectory's limit is alpha(n) at five n."""
    records = list(alpha_scan(2310))
    assert [rec.n for rec in records] == list(range(6, 2311))
    for rec in records:
        single = alpha(rec.n)
        assert rec == single, rec.n
        assert rec.exponent == single.exponent, rec.n
    for n_max in (6, 30, 210, 2310):
        assert list(alpha_scan(n_max)) == records[: n_max - 5], n_max
    # chi = 0 at n = 39
    for n in (6, 30, 39, 210, 2310):
        assert trajectory(n, [0]).limit == alpha(n), n


@pytest.mark.parametrize("n_max", [6, 7, 29, 30, 31, 2310, 98000])
def test_alpha_scan_runs_tile_the_range(n_max):
    """The runs cover 6..n_max in order with no gap or overlap, and start
    exactly at the primorials >= 6 and at every n of weight d+1."""
    scan = alpha_scan(n_max)
    assert isinstance(scan, AlphaScan)
    assert scan.n_max == n_max
    assert len(scan) == n_max - 5
    runs = scan.runs
    assert runs[0].lo == 6
    for run, after in zip(runs, runs[1:]):
        assert run.chi, run
        assert run.lo + len(run.chi) == after.lo, run
    assert runs[-1].lo + len(runs[-1].chi) == n_max + 1

    weight = shared_sieve(n_max).weight
    primorials = {6, 30, 210, 2310, 30030}
    starts = {n for n in range(6, n_max + 1) if weight[n] == dim_of(n) + 1}
    assert primorials & set(range(6, n_max + 1)) <= starts
    assert [run.lo for run in runs] == sorted(starts)

    chi = chi_profile(n_max)
    for run in runs:
        assert run.dim == dim_of(run.lo) == dim_of(run.lo + len(run.chi) - 1), run.lo
        assert run.f_top == summary(run.lo).count(run.dim), run.lo
        assert run.chi == chi[run.lo : run.lo + len(run.chi)], run.lo


def test_alpha_scan_run_count():
    "One run per n of weight d+1: 254 of them for 97995 n up to 98000."
    assert len(alpha_scan(98000).runs) == 254


def test_alpha_scan_memory():
    "The scan holds runs: with the sieve built, 10^5 n cost well under 4 MiB."
    shared_sieve(10**5)
    tracemalloc.start()
    try:
        scan = alpha_scan(10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(scan) == 10**5 - 5
    assert peak <= 4 * 2**20, peak


def test_chi_command_memory():
    "chi streams its columns: with the sieve built, 10^5 rows peak under 2.5 MiB."
    shared_sieve(10**5)
    tracemalloc.start()
    try:
        assert main(["chi", "--to", "100000", "--out", os.devnull]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20, peak


def _scan_peak(monkeypatch, argv, n):
    "The tracemalloc peak of one CLI scan to n, started from no shared sieve."
    monkeypatch.setattr("baryzeros.complexes._shared_sieve", None)
    tracemalloc.start()
    try:
        assert main([*argv, "--to", str(n), "--out", os.devnull]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("argv, per_n", [(["chi"], 8), (["alpha"], 12)], ids=["chi", "alpha"])
def test_scan_memory_grows_with_the_sieve_alone(monkeypatch, argv, per_n):
    """A scan keeps one chi array, the sieve's: from 2*10^4 to 2*10^5 its
    peak, sieve build included, grows by at most per_n bytes per n (the
    sieve holds 5 per slot, and a copy of chi would cost 4 or 8 more)."""
    small, large = 2 * 10**4, 2 * 10**5
    _scan_peak(monkeypatch, argv, large)  # warms the per-dimension caches
    growth = _scan_peak(monkeypatch, argv, large) - _scan_peak(monkeypatch, argv, small)
    assert growth <= per_n * (large - small), growth / (large - small)


def test_chi_profile_is_the_sieves_read_only_array():
    "chi_profile hands out the sieve's own chi array, which nothing may write."
    chi = chi_profile(300)
    assert chi.obj is shared_sieve(300).chi
    assert len(chi) == 301
    with pytest.raises(TypeError):
        chi[94] = 0


def test_alpha_scan_runs_share_the_sieves_buffer():
    "Every run's chi is a slice of the sieve's chi array, not a copy."
    runs = alpha_scan(2310).runs
    sieve_chi = shared_sieve(2310).chi
    assert all(run.chi.obj is sieve_chi for run in runs)


def test_alpha_record_invariants():
    "A record holds (n, dim, chi, f_top); h1 and alpha derive from them."
    records = list(alpha_scan(2310))
    for rec in records + [alpha(rec.n) for rec in records]:
        assert rec._fields == ("n", "dim", "chi", "f_top"), rec.n
        assert rec.alpha * rec.h1 * rec.f_top == rec.chi, rec.n
        assert rec.h1 == eigen_rationals(rec.dim)[1], rec.n


def test_alpha_scan_against_reference_table():
    "Printed table entries, minus the nine known misprints, match exactly."
    records = {rec.n: rec for rec in alpha_scan(250)}
    for n, printed in ALPHA_REFERENCE.items():
        if n in ALPHA_DISCREPANCIES:
            continue
        assert records[n].alpha == printed, n


def test_alpha_reference_misprints_catalogued():
    "Each disputed cell: table shows one value, the definition another."
    for n, (printed, computed) in ALPHA_DISCREPANCIES.items():
        assert ALPHA_REFERENCE[n] == printed
        assert alpha(n).alpha == computed, n
        assert printed != computed


def test_alpha_scan_consumers_read_records_once(monkeypatch):
    """The verify check reads the runs once and builds no record: the
    same result from one-shot runs and a scan that cannot be iterated."""
    run = checks._check_alpha_identity
    expected = run()
    scan = dynamics.alpha_scan

    def one_shot(n_max):
        return AlphaScan(n_max, iter(scan(n_max).runs))

    def no_records(self):
        raise AssertionError("a consumer iterated the records")

    monkeypatch.setattr("baryzeros.checks.alpha_scan", one_shot)
    monkeypatch.setattr(AlphaScan, "__iter__", no_records)
    assert run() == expected
