"""Behaviour of h-polynomial zeros under repeated barycentric subdivision.

Face counts evolve by an exact integer transfer matrix, so every
polynomial whose roots are studied here is known exactly.  Its roots are
certified dyadic approximations, at the one precision the caller asks
for, and every diagnostic is computed exactly from them.
The module also computes the exact closed form of the face counts as a
sum of factorial powers, and the scaling limits of the smallest root
across all squarefree-divisor complexes.

The module imports ``rootfinding`` only when a polynomial is solved, so
the commands that only scan never compile it.  ``trajectory`` imports it
as it starts and solves through the module-level ``find_roots``, a
forwarder to ``rootfinding.find_roots``: the name the benchmark tracer
and the tests replace.  The precision floor ``MIN_PRECISION_BITS`` lives
here, beside the default, because every command loads this module and
the command line prints the floor in its help.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .complexes import (
    DIM1_START,
    FVector,
    chi_profile,
    dimension_runs,
    h_poly,
    shared_sieve,
    summary,
)
from .subdivision import eigen_rationals, shift_matrix, transfer_matrix

if TYPE_CHECKING:
    from .rootfinding import RootSet

MIN_PRECISION_BITS = 16
DEFAULT_TRAJECTORY_PRECISION = 192
MAX_SUBDIVISION_DEPTH = 64


def subdivided_f(fv: FVector, depth: int) -> tuple[FVector, ...]:
    """Face counts after 0, 1, ..., depth rounds of barycentric subdivision.

    Exact: one round multiplies the count vector by the integer transfer
    matrix of the ambient dimension, which never changes, so the orbit of
    depth + 1 FVectors takes depth steps.  The one check of the depth cap.
    """
    if depth < 0:
        raise ValueError("subdivision depth must be nonnegative")
    if depth > MAX_SUBDIVISION_DEPTH:
        raise ValueError(
            f"subdivision depth {depth} exceeds the cap {MAX_SUBDIVISION_DEPTH}"
        )
    matrix = transfer_matrix(fv.dim)
    orbit = [fv]
    for _ in range(depth):
        orbit.append(FVector(matrix.apply(orbit[-1].counts)))
    return tuple(orbit)


# ---------------------------------------------------------------------------
# exact growth expansion


class GrowthExpansion(NamedTuple):
    """Exact closed form f_i(k) = sum_j C[j][i] * ((d+1-j)!)^k.

    Valid for every k >= 0, not only asymptotically: the transfer matrix
    has the distinct eigenvalues 1!, 2!, ..., (d+1)! and the expansion is
    the corresponding eigendecomposition of the initial count vector.
    coefficients[j][i + 1] holds C[j][i] for i in -1..d; row j's base
    (d+1-j)! follows from dim.  h_rows carries the rows to the h-side.
    """

    dim: int
    coefficients: tuple

    def evaluate(self, i: int, k: int) -> Fraction:
        """Face count f_i after k subdivisions, from the closed form."""
        if not (-1 <= i <= self.dim):
            raise IndexError(f"i={i} outside -1..{self.dim}")
        if k < 0:
            raise ValueError("k must be nonnegative")
        d, rows = self
        return sum(
            (row[i + 1] * math.factorial(d + 1 - j) ** k for j, row in enumerate(rows)), Fraction(0)
        )

    @property
    def h_rows(self) -> tuple:
        """Q_0, ..., Q_d: row j through shift_matrix(dim), highest degree
        first, so the h-polynomial after k rounds is sum_j ((d+1-j)!)^k Q_j."""
        return tuple(shift_matrix(self.dim).apply(row)[::-1] for row in self.coefficients)


def growth_expansion(fv: FVector) -> GrowthExpansion:
    """Eigendecomposition of the subdivision dynamics started at fv.

    Back-substitution in the triangular eigenbasis: the (m+1)!-eigenvector
    is eigen_rationals(m) padded with zeros, so for m = d down to 1 it is
    peeled off the counts, scaled by what is left at index m.  The rest is
    the base-1 row (the eigenvalues 0! = 1! share it).
    """
    d = fv.dim
    if d < 0:
        raise ValueError("growth expansion needs dimension at least 0")
    rest = [Fraction(c) for c in fv.counts]
    rows = []
    for m in range(d, 0, -1):
        row = [rest[m + 1] * w for w in eigen_rationals(m)] + [Fraction(0)] * (d - m)
        rest = [r - x for r, x in zip(rest, row)]
        rows.append(tuple(row))
    rows.append(tuple(rest))
    return GrowthExpansion(d, tuple(rows))


# ---------------------------------------------------------------------------
# zero trajectories


class TrajectoryEntry(NamedTuple):
    """Root data of the h-polynomial after k subdivision rounds.

    rootset is the :class:`~baryzeros.rootfinding.RootSet` of find_roots at
    the trajectory's precision_bits, roots in ascending modulus: roots[0]
    is rho_0, roots[-1] is rho_inf, and interior the roots between.  ratio_inf
    compares |rho_inf| against the predicted magnitude H1 * f_d * ((d+1)!)^k
    and tends to 1; scaled_rho0 is |rho_0| * ((d+1)!)^k and tends to
    |limit.alpha|; both are Fractions rounded to precision_bits.
    ambiguous says an extreme root is less than twice as far out as its
    neighbour, compared exactly.  sum_rel_err and prod_rel_err compare the
    exact sum and product of the roots against the exact coefficient
    identities, as Fractions.
    """

    k: int
    rootset: RootSet
    ratio_inf: Fraction
    scaled_rho0: Fraction
    ambiguous: bool
    sum_rel_err: Fraction
    prod_rel_err: Fraction

    @property
    def interior(self) -> tuple:
        return self.rootset.roots[1:-1]


class ZeroTrajectory(NamedTuple):
    """Zero dynamics of one squarefree-divisor complex under subdivision:
    limit is its :class:`AlphaRecord`, whose alpha each entry's scaled_rho0
    tends to in modulus, and every entry works at precision_bits, the one
    the caller asked for."""

    limit: AlphaRecord
    base: FVector
    precision_bits: int
    entries: tuple


def _identity_errors(h: tuple, roots: tuple) -> tuple:
    """|sum - S| / max(1, |S|) and |product - P| / max(1, |P|) for the
    exact sum and product of the roots against the Vieta values
    S = -h_1 / h_0 and P = (-1)^n h_n / h_0.

    The non-real roots come in exact conjugate pairs, so their imaginary
    parts cancel from the sum, and each pair adds the factor x^2 + y^2
    to the product through its upper half.
    """
    top = max(e for _, _, e in roots)
    total = sum(x << (top - e) for x, _, e in roots)
    product, scale = 1, 0
    for x, y, e in roots:
        if y == 0:
            product, scale = product * x, scale + e
        elif y > 0:
            product, scale = product * (x * x + y * y), scale + 2 * e
    vieta_prod = h[-1] if (len(h) - 1) % 2 == 0 else -h[-1]

    def rel(num: int, shift: int, exact: int) -> Fraction:
        # |num / 2^shift - exact / h_0| / max(1, |exact / h_0|)
        diff = num * h[0] - (exact << shift)
        return Fraction(abs(diff), max(abs(h[0]), abs(exact)) << shift)

    return rel(total, top, -h[1]), rel(product, scale, vieta_prod)


def find_roots(coeffs: Sequence[int], precision_bits: int) -> RootSet:
    "``rootfinding.find_roots``, imported on the first call."
    from . import rootfinding

    return rootfinding.find_roots(coeffs, precision_bits)


def trajectory(
    n: int,
    depths: Sequence[int],
    precision_bits: int = DEFAULT_TRAJECTORY_PRECISION,
) -> ZeroTrajectory:
    """Root trajectories of the h-polynomial of the complex at n.

    Produces one entry per depth k in depths, a nonempty strictly
    ascending sequence such as range(k_max + 1).  Needs dimension at
    least 1 so that the smallest and largest roots are distinct objects.
    Every depth works at precision_bits, whatever k, and the result holds
    it once, with the complex's :class:`AlphaRecord` as its limit.  One
    :func:`subdivided_f` orbit to depths[-1] gives the exact face counts
    before the first root search, so a depth above the cap fails at once,
    and depths out of order fail next.  An entry holds find_roots' RootSet;
    every other value is exact, or rounded once from one at precision_bits.
    """
    from .rootfinding import rounded_sqrt

    rule = "depths must be nonempty, strictly ascending and nonnegative"
    if not depths or depths[0] < 0:
        raise ValueError(rule)
    fv = summary(n)
    d = fv.dim
    if d < 1:
        raise ValueError(f"n={n} has dimension {d}; trajectories need dim >= 1")
    limit = AlphaRecord(n, d, fv.euler_char(), fv.count(d))
    fac = math.factorial(d + 1)

    orbit = subdivided_f(fv, depths[-1])
    # the cap on depths[-1] came first, so this walks at most 65 depths
    if any(a >= b for a, b in itertools.pairwise(depths)):
        raise ValueError(rule)
    entries = []
    for k in depths:
        h = h_poly(orbit[k])
        rootset = find_roots(h, precision_bits)
        roots = rootset.roots
        growth = fac**k
        # squared moduli of rho_0, its neighbour, rho_inf's and rho_inf,
        # all in units of 4^-top
        top = max(z.e for z in roots)
        low, second, penultimate, high = (
            (x * x + y * y) << 2 * (top - e)
            for x, y, e in (roots[0], roots[1], roots[-2], roots[-1])
        )
        predicted = limit.h1.numerator * limit.f_top * growth
        sum_err, prod_err = _identity_errors(h, roots)
        entries.append(
            TrajectoryEntry(
                k=k,
                rootset=rootset,
                ratio_inf=rounded_sqrt(
                    high * limit.h1.denominator**2, predicted**2 << 2 * top, precision_bits
                ),
                scaled_rho0=rounded_sqrt(low * growth**2, 1 << 2 * top, precision_bits),
                ambiguous=second < 4 * low or high < 4 * penultimate,
                sum_rel_err=sum_err,
                prod_rel_err=prod_err,
            )
        )
    return ZeroTrajectory(limit, fv, precision_bits, tuple(entries))


# ---------------------------------------------------------------------------
# scaling limits of the smallest zero


class AlphaRecord(NamedTuple):
    """Exact scaling limit of the smallest h-polynomial zero at one n.

    alpha = chi / (H1 * f_d) where H1 is the linear limit coefficient of
    the ambient dimension and f_d the top face count, and exponent is
    log |alpha| / log (d+1)! (None when alpha = 0).  A named tuple of the
    four plain ints alpha depends on; h1, alpha and exponent are derived
    on demand, alpha and exponent through :func:`alpha_fields`.  A scan
    holds runs, not records (see :class:`AlphaScan`), and builds each
    record only as it is iterated.
    """

    n: int
    dim: int
    chi: int
    f_top: int

    @property
    def h1(self) -> Fraction:
        return eigen_rationals(self.dim)[1]

    @property
    def alpha(self) -> Fraction:
        return Fraction(*alpha_fields(self.dim, self.chi, self.f_top)[:2])

    @property
    def exponent(self) -> float | None:
        return alpha_fields(self.dim, self.chi, self.f_top)[2]


def alpha_fields(d: int, chi: int, f_top: int) -> tuple:
    """(numerator, denominator, exponent) of alpha = chi / (H1 * f_top) in
    dimension d: chi*q / (p*f_top) for H1 = p/q > 0, reduced by one gcd,
    and log |alpha| / log (d+1)!, None when chi = 0."""
    h1 = eigen_rationals(d)[1]
    num = chi * h1.denominator
    den = h1.numerator * f_top
    g = math.gcd(num, den)
    num //= g
    den //= g
    exponent = None
    if num:
        log_fac = math.log(math.factorial(d + 1))
        exponent = (math.log(abs(num)) - math.log(den)) / log_fac
    return num, den, exponent


def alpha(n: int) -> AlphaRecord:
    """Scaling limit of the smallest zero for the complex at n: the record
    of summary(n)'s dimension, Euler characteristic and top face count.

    The limit needs a root of largest modulus that separates from the
    rest, which requires dimension at least 1, hence n >= 6.
    """
    if n < DIM1_START:
        raise ValueError(f"alpha needs dimension >= 1, so n >= {DIM1_START}; got n={n}")
    fv = summary(n)
    return AlphaRecord(n, fv.dim, fv.euler_char(), fv.count(fv.dim))


class AlphaRun(NamedTuple):
    """Every n in lo .. lo + len(chi) - 1 has dimension dim and top face
    count f_top; chi[i] is the Euler characteristic at lo + i.  A scan's
    runs hold slices of :func:`chi_profile`'s view, not copies."""

    dim: int
    f_top: int
    lo: int
    chi: Sequence[int]


class AlphaScan:
    """Scaling limits for every n from 6 to n_max, held as runs.

    An alpha depends on n only through (dim, chi, f_top), and dim and
    f_top change only at the runs' starts, so consumers can work once per
    distinct value.  Iterating yields an :class:`AlphaRecord` per n, in
    order, built on demand from its run; len() counts them, and only the
    benchmark tracer reads it.  A slotted class, not a named tuple: its
    len() and its iteration are over the records, not over its two fields.
    """

    __slots__ = ("n_max", "runs")

    def __init__(self, n_max: int, runs: tuple):
        self.n_max = n_max
        self.runs = runs

    def __len__(self) -> int:
        return self.n_max - DIM1_START + 1

    def __iter__(self) -> Iterator[AlphaRecord]:
        for d, f_top, lo, chi in self.runs:
            for n, c in enumerate(chi, lo):
                yield AlphaRecord(n, d, c, f_top)


def alpha_scan(n_max: int) -> AlphaScan:
    """Scaling limits for every n from 6 to n_max, chi read in place from
    :func:`chi_profile`.

    A run of constant dimension d starts at the product of the first d+1
    primes, the least squarefree number with d+1 prime factors, so f_top
    counts the n of weight d+1 from there; each such n starts a new
    :class:`AlphaRun`.  ``index`` on the sieve's weight array finds them,
    so no Python loop walks every n.
    """
    if n_max < DIM1_START:
        raise ValueError(f"n_max must be at least {DIM1_START}")
    chi = chi_profile(n_max)
    weight = shared_sieve(n_max).weight
    runs = []
    for d, lo, hi in dimension_runs(DIM1_START, n_max + 1):
        starts = []
        at = lo
        with contextlib.suppress(ValueError):
            while True:
                at = weight.index(d + 1, at, hi)
                starts.append(at)
                at += 1
        for f_top, (start, stop) in enumerate(zip(starts, starts[1:] + [hi]), 1):
            runs.append(AlphaRun(d, f_top, start, chi[start:stop]))
    return AlphaScan(n_max, tuple(runs))
