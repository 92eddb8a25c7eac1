"""Behaviour of h-polynomial zeros under repeated barycentric subdivision.

Face counts evolve by an exact integer transfer matrix, so every
polynomial whose roots are studied here is known exactly; floating point
enters only in the final root approximation, at a precision that grows
with the subdivision depth.  The module also computes the exact closed
form of the face counts as a sum of factorial powers, and the scaling
limits of the smallest root across all squarefree-divisor complexes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .complexes import (
    FVector,
    chi_profile,
    dim_of,
    dimension_runs,
    h_poly,
    shared_sieve,
    summary,
)
from .rootfinding import find_roots
from .subdivision import eigen_rationals, transfer_matrix

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


@dataclass(frozen=True)
class GrowthExpansion:
    """Exact closed form f_i(k) = sum_j C[j][i] * ((d+1-j)!)^k.

    Valid for every k >= 0, not only asymptotically: the transfer matrix
    has the distinct eigenvalues 1!, 2!, ..., (d+1)! and the expansion is
    the corresponding eigendecomposition of the initial count vector.
    coefficients[j][i + 1] holds C[j][i] for i in -1..d.
    """

    dim: int
    bases: tuple
    coefficients: tuple

    def evaluate(self, i: int, k: int) -> Fraction:
        """Face count f_i after k subdivisions, from the closed form."""
        if not (-1 <= i <= self.dim):
            raise IndexError(f"i={i} outside -1..{self.dim}")
        if k < 0:
            raise ValueError("k must be nonnegative")
        return sum(
            (row[i + 1] * base**k for base, row in zip(self.bases, self.coefficients)),
            Fraction(0),
        )

    def leading(self, i: int) -> Fraction:
        """Coefficient of the dominant power ((d+1)!)^k for face size i."""
        return self.coefficients[0][i + 1]


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
    bases = tuple(math.factorial(d + 1 - j) for j in range(d + 1))
    rest = [Fraction(c) for c in fv.counts]
    rows = []
    for m in range(d, 0, -1):
        row = [rest[m + 1] * w for w in eigen_rationals(m)] + [Fraction(0)] * (d - m)
        rest = [r - x for r, x in zip(rest, row)]
        rows.append(tuple(row))
    rows.append(tuple(rest))
    return GrowthExpansion(d, bases, tuple(rows))


# ---------------------------------------------------------------------------
# zero trajectories


@dataclass(frozen=True)
class TrajectoryEntry:
    """Root data of the h-polynomial after k subdivision rounds.

    rho_0 and rho_inf are the roots of smallest and largest modulus,
    interior the rest.  ratio_inf compares |rho_inf| against the
    predicted magnitude H1 * f_d * ((d+1)!)^k and tends to 1;
    scaled_rho0 is |rho_0| * ((d+1)!)^k and tends to |alpha_n|.
    sum_rel_err and prod_rel_err compare the numeric root sum and
    product against the exact coefficient identities.
    """

    k: int
    precision_bits: int
    roots: tuple
    residuals: tuple
    rho_0: object
    rho_inf: object
    interior: tuple
    ratio_inf: object
    scaled_rho0: object
    rho_inf_real: bool
    ambiguous: bool
    sum_rel_err: object
    prod_rel_err: object


@dataclass(frozen=True)
class ZeroTrajectory:
    """Zero dynamics of one squarefree-divisor complex under subdivision."""

    n: int
    dim: int
    base: FVector
    chi: int
    h1: Fraction
    f_top: int
    entries: tuple


def _identity_errors(h: tuple, roots) -> tuple:
    import mpmath as mp

    exact_sum = Fraction(-h[1], h[0])
    exact_prod = Fraction(h[-1], h[0])
    if (len(h) - 1) % 2:
        exact_prod = -exact_prod
    num_sum = sum(roots, mp.mpc(0))
    num_prod = mp.mpc(1)
    for z in roots:
        num_prod *= z

    def rel(numeric, exact: Fraction):
        target = mp.mpf(exact.numerator) / mp.mpf(exact.denominator)
        return abs(numeric - target) / max(1, abs(target))

    return rel(num_sum, exact_sum), rel(num_prod, exact_prod)


def trajectory_precision(dim: int, k: int, requested: int) -> int:
    """Working precision for depth k: enough bits to hold ((d+1)!)^k
    exactly plus a fixed safety margin, or the requested floor."""
    needed = 64 + (math.factorial(dim + 1) ** k).bit_length()
    return max(requested, needed)


def trajectory(
    n: int,
    depths: Sequence[int],
    precision_bits: int = DEFAULT_TRAJECTORY_PRECISION,
) -> ZeroTrajectory:
    """Root trajectories of the h-polynomial of the complex at n.

    Produces one entry per depth k in depths, a nonempty ascending
    sequence such as range(k_max + 1).  Needs dimension at least 1 so
    that the smallest and largest roots are distinct objects.  Precision
    is raised automatically with k.  One :func:`subdivided_f` orbit to
    depths[-1] gives the exact face counts before the first root search,
    so a depth above the cap fails at once.
    """
    import mpmath as mp

    if not depths or depths[0] < 0:
        raise ValueError("depths must be nonempty, ascending and nonnegative")
    fv = summary(n)
    d = fv.dim
    if d < 1:
        raise ValueError(f"n={n} has dimension {d}; trajectories need dim >= 1")
    h1 = eigen_rationals(d)[1]
    f_top = fv.count(d)
    fac = math.factorial(d + 1)

    orbit = subdivided_f(fv, depths[-1])
    entries = []
    for k in depths:
        bits = trajectory_precision(d, k, precision_bits)
        h = h_poly(orbit[k])
        rootset = find_roots(h, precision_bits=bits)
        with mp.workprec(bits):
            roots = rootset.roots
            rho_0 = roots[0]
            rho_inf = roots[-1]
            interior = tuple(roots[1:-1])
            growth = mp.mpf(fac) ** k
            predicted = (
                mp.mpf(h1.numerator) / mp.mpf(h1.denominator) * f_top * growth
            )
            ratio_inf = abs(rho_inf) / predicted
            scaled_rho0 = abs(rho_0) * growth
            sep_low = abs(roots[1]) / abs(rho_0) if abs(rho_0) > 0 else mp.inf
            sep_high = (
                abs(rho_inf) / abs(roots[-2]) if abs(roots[-2]) > 0 else mp.inf
            )
            ambiguous = bool(sep_low < 2 or sep_high < 2)
            sum_err, prod_err = _identity_errors(h, roots)
        entries.append(
            TrajectoryEntry(
                k=k,
                precision_bits=bits,
                roots=roots,
                residuals=rootset.residuals,
                rho_0=rho_0,
                rho_inf=rho_inf,
                interior=interior,
                ratio_inf=ratio_inf,
                scaled_rho0=scaled_rho0,
                rho_inf_real=rootset.real_certified[-1],
                ambiguous=ambiguous,
                sum_rel_err=sum_err,
                prod_rel_err=prod_err,
            )
        )
    return ZeroTrajectory(n, d, fv, fv.euler_char(), h1, f_top, tuple(entries))


# ---------------------------------------------------------------------------
# scaling limits of the smallest zero


class AlphaRecord(NamedTuple):
    """Exact scaling limit of the smallest h-polynomial zero at one n.

    alpha = chi / (H1 * f_d) where H1 is the linear limit coefficient of
    the ambient dimension and f_d the top face count; alpha_num/alpha_den
    is alpha in lowest terms with alpha_den > 0, and exponent is
    log |alpha| / log (d+1)! (None when alpha = 0).  A named tuple of
    plain ints and a float, so that a scan's hundreds of thousands of
    records are cheap to build; h1 and alpha are derived as Fractions on
    demand.  Each record is itself tracked by the garbage collector: the
    collector untracks only exact tuples, so gc.is_tracked stays True
    for this tuple subclass after a collection.
    """

    n: int
    dim: int
    chi: int
    f_top: int
    alpha_num: int
    alpha_den: int
    exponent: float | None

    @property
    def h1(self) -> Fraction:
        return eigen_rationals(self.dim)[1]

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.alpha_num, self.alpha_den)


def _alpha_fields(chi, f_top, p, q, log_fac) -> tuple:
    """(alpha_num, alpha_den, exponent) of alpha = chi / (H1 * f_top) =
    chi*q / (p*f_top) for H1 = p/q > 0, reduced by one gcd; log_fac is
    log (d+1)!."""
    num = chi * q
    den = p * f_top
    g = math.gcd(num, den)
    num //= g
    den //= g
    exponent = None
    if num:
        exponent = (math.log(abs(num)) - math.log(den)) / log_fac
    return num, den, exponent


def _h1_log_fac(d: int) -> tuple:
    """(p, q, log (d+1)!) for H1 = p/q of dimension d."""
    h1 = eigen_rationals(d)[1]
    return h1.numerator, h1.denominator, math.log(math.factorial(d + 1))


def alpha(n: int) -> AlphaRecord:
    """Scaling limit of the smallest zero for the complex at n.

    The limit needs a root of largest modulus that separates from the
    rest, which requires dimension at least 1, hence n >= 6.
    """
    if n < 6:
        raise ValueError(f"alpha needs dimension >= 1, so n >= 6; got n={n}")
    fv = summary(n)
    d = fv.dim
    chi, f_top = fv.euler_char(), fv.count(d)
    return AlphaRecord(n, d, chi, f_top, *_alpha_fields(chi, f_top, *_h1_log_fac(d)))


def alpha_scan(n_max: int) -> list[AlphaRecord]:
    """AlphaRecord for every n from 6 to n_max, chi from :func:`chi_profile`.

    n is walked in runs of constant dimension d, which start at the
    product of the first d+1 primes, the least squarefree number with d+1
    prime factors; so f_top is a count of weight d+1 within the run.
    While d and f_top hold, alpha depends on chi alone, so its fields are
    computed once per chi value and shared until the next weight-(d+1) n.
    """
    if n_max < 6:
        raise ValueError("n_max must be at least 6")
    chi = chi_profile(n_max)
    weight = shared_sieve(n_max).weight
    records = []
    for d, lo, hi in dimension_runs(6, n_max + 1):
        p, q, log_fac = _h1_log_fac(d)
        f_top = 0
        fields: dict = {}
        for n in range(lo, hi):
            if weight[n] == d + 1:
                f_top += 1
                fields = {}
            c = chi[n]
            alpha_fields = fields.get(c)
            if alpha_fields is None:
                alpha_fields = fields[c] = _alpha_fields(c, f_top, p, q, log_fac)
            num, den, exponent = alpha_fields
            records.append(AlphaRecord(n, d, c, f_top, num, den, exponent))
    return records


@dataclass(frozen=True)
class ConjectureReport:
    """Exact audit of the scaling-limit growth bounds up to n_max.

    strong_violations lists n where alpha^2 > ((d+1)!)^3 (exponent above
    3/2), weak_violations where |alpha| > ((d+1)!)^2 (exponent above 2);
    both comparisons are exact, in the integers of alpha = a/b:
    a^2 > F^3 b^2 and |a| > F^2 b with F = (d+1)!.
    """

    n_max: int
    checked: int
    zero_count: int
    strong_violations: tuple
    weak_violations: tuple
    max_exponent: float
    argmax_n: int


def conjecture_report(n_max: int) -> ConjectureReport:
    strong = []
    weak = []
    checked = zero_count = 0
    best = None
    for rec in alpha_scan(n_max):
        checked += 1
        a, b = rec.alpha_num, rec.alpha_den
        if a == 0:
            zero_count += 1
            continue
        fac = math.factorial(rec.dim + 1)
        if a * a > fac**3 * b * b:
            strong.append(rec.n)
        if abs(a) > fac**2 * b:
            weak.append(rec.n)
        if best is None or rec.exponent > best.exponent:
            best = rec
    return ConjectureReport(
        n_max=n_max,
        checked=checked,
        zero_count=zero_count,
        strong_violations=tuple(strong),
        weak_violations=tuple(weak),
        max_exponent=best.exponent if best is not None else float("-inf"),
        argmax_n=best.n if best is not None else 0,
    )
