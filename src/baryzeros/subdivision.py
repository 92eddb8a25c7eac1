"""Exact counting data for barycentric subdivision of a simplex.

The objects here all live over a fixed ambient dimension d and are
indexed by simplex dimensions running from -1 (the empty simplex) to d.
Matrices over that index range are stored 0-based with a +1 offset and
exposed through an ``entry(i, j)`` accessor taking the -1-based indices.
One builder makes every such matrix but the descent recurrence's from
its entries over -1..d: the identity, transfer and shift matrices, the
shift's inverse and the enumerated descent counts.

``shift_matrix`` is the one step from face counts to h-coefficients
(composition with z - 1): ``complexes.h_poly`` and
``limit_h_coefficients`` both apply it, and it is the S of the
similarity S T S^-1 that ``verify`` checks.

Everything is exact: entries are Python ints or ``Fraction`` values.  The
rational routes run on integer numerators over a common denominator and
make each ``Fraction`` once, at the end.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import cache
from math import comb, factorial, lcm, prod
from operator import add, gt, mul
from typing import Callable, NamedTuple, Sequence

BRUTE_FORCE_DIMENSION_CAP = 5


@cache
def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind: set partitions of n blocks k."""
    if n < 0 or k < 0:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def _check_index_pair(i: int, d: int) -> None:
    if i < -1 or d < -1:
        raise ValueError(f"dimension indices start at -1, got i={i}, d={d}")
    if i >= 0 and i > d:
        raise ValueError(f"no {i}-simplices over a {d}-simplex (i > d)")


def subdivision_count(i: int, d: int) -> int:
    """Number of i-simplices of the subdivided d-simplex over a fixed top face.

    Closed form (i+1)! * S(d+1, i+1) with the empty-simplex conventions:
    the count is 1 for (i, d) = (-1, -1) and 0 for i = -1, d >= 0.
    """
    _check_index_pair(i, d)
    if i == -1:
        return 1 if d == -1 else 0
    return factorial(i + 1) * stirling2(d + 1, i + 1)


@cache
def subdivision_count_recurrence(i: int, d: int) -> int:
    """Same count as :func:`subdivision_count`, from the chain recurrence.

    Independent route used to cross-check the closed form:
    f(i, d) = sum_{j=i}^{d} C(d+1, j) * f(i-1, j-1).
    """
    _check_index_pair(i, d)
    if i == -1:
        return 1 if d == -1 else 0
    return sum(
        comb(d + 1, j) * subdivision_count_recurrence(i - 1, j - 1)
        for j in range(i, d + 1)
    )


@cache
def eigen_rationals(d: int) -> tuple[Fraction, ...]:
    """The rational weights (indexed -1..d) attached to dimension d.

    Characterised by the descending recurrence
        w_d = 1,
        w_i = (sum_{j>i} count(i, j) * w_j) / ((d+1)! - (i+1)!)
    for 0 <= i < d, with w_{-1} = 0 for d >= 0 (and 1 for d = -1).
    The resulting vector is the (d+1)!-eigenvector of the transfer matrix.

    The recurrence runs on integer numerators over one common denominator,
    the product of the divisors so far; each weight becomes a ``Fraction``
    once, at the end.
    """
    if d < -1:
        raise ValueError("d must be at least -1")
    if d == -1:
        return (Fraction(1),)
    top = factorial(d + 1)
    numerators = [1]  # w_d, w_{d-1}, ... over the common denominator
    denominator = 1
    for i in range(d - 1, -1, -1):
        counts = (subdivision_count(i, j) for j in range(d, i, -1))
        acc = sum(map(mul, counts, numerators))
        divisor = top - factorial(i + 1)
        numerators = [n * divisor for n in numerators]
        numerators.append(acc)
        denominator *= divisor
    return (
        Fraction(0),
        *(Fraction(n, denominator) for n in reversed(numerators)),
    )


def eigen_rationals_direct(d: int, i: int) -> Fraction:
    """Single eigen weight by the explicit chain-sum formula.

    Sums over all strictly increasing chains i = i_0 < i_1 < ... < i_L < d
    the product of count(i_m, i_{m+1}) / ((d+1)! - (i_m + 1)!) factors,
    where the last numerator uses i_{L+1} = d.  Slow (2^(d-1-i) chains);
    exists as an independent cross-check of :func:`eigen_rationals`,
    which also covers the boundary entries i = -1 and i = d that the
    chain formula leaves out.

    Each chain's term is an integer numerator over an integer denominator,
    and the terms add up over the product of all the divisors of i..d-1.
    """
    if not (0 <= i < d):
        raise ValueError(f"the chain-sum formula needs 0 <= i < d, got ({i}, {d})")
    top = factorial(d + 1)
    divisors = {a: top - factorial(a + 1) for a in range(i, d)}
    common = prod(divisors.values())
    total = 0
    middle = range(i + 1, d)
    for r in range(0, len(middle) + 1):
        for chosen in itertools.combinations(middle, r):
            nodes = (i, *chosen, d)
            numerator = prod(map(subdivision_count, nodes, nodes[1:]))
            denominator = prod(map(divisors.__getitem__, nodes[:-1]))
            total += numerator * (common // denominator)
    return Fraction(total, common)


@cache
def limit_h_coefficients(d: int) -> tuple[Fraction, ...]:
    """h-coefficients of the limit: the eigen weights composed with z - 1.

    The reversed :func:`shift_matrix` image of :func:`eigen_rationals`,
    highest degree first.  Entry index i runs 0..d+1, with index 0 the
    (always zero) z^(d+1) coefficient so the tuple lines up with the
    -1..d table convention.

    The shift runs on integer numerators over the least common denominator
    of the eigen weights, and each coefficient becomes a ``Fraction`` once.
    """
    if d < 0:
        raise ValueError("d must be at least 0")
    numerators, common = _common_numerators(eigen_rationals(d))
    shifted = shift_matrix(d).apply(numerators)
    return tuple(Fraction(n, common) for n in reversed(shifted))


def _common_numerators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of ``values`` over their least common denominator,
    and that denominator."""
    common = lcm(*(x.denominator for x in values))
    return [x.numerator * (common // x.denominator) for x in values], common


# ---------------------------------------------------------------------------
# matrices indexed -1..d


class SimplexMatrix(NamedTuple("SimplexMatrix", [("d", int), ("rows", tuple)])):
    """Square matrix whose rows/columns are indexed by dimensions -1..d."""

    __slots__ = ()

    def __new__(cls, d: int, rows: tuple[tuple, ...]):
        size = d + 2
        if len(rows) != size or any(len(r) != size for r in rows):
            raise ValueError("matrix shape does not match dimension range")
        return super().__new__(cls, d, rows)

    @property
    def size(self) -> int:
        return self.d + 2

    def entry(self, i: int, j: int):
        """Entry at -1-based indices (i, j), each in -1..d."""
        if not (-1 <= i <= self.d and -1 <= j <= self.d):
            raise IndexError(f"index ({i}, {j}) outside -1..{self.d}")
        return self.rows[i + 1][j + 1]

    def __matmul__(self, other: "SimplexMatrix") -> "SimplexMatrix":
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.rows))
        product = tuple(
            tuple(sum(map(mul, row, col)) for col in cols) for row in self.rows
        )
        return SimplexMatrix(self.d, product)

    def apply(self, vector: Sequence) -> tuple:
        """Matrix-vector product; the vector is indexed -1..d as well."""
        if len(vector) != self.size:
            raise ValueError("vector length mismatch")
        return tuple(sum(map(mul, row, vector)) for row in self.rows)


def _matrix(d: int, entry: Callable[[int, int], object]) -> SimplexMatrix:
    """The matrix of entry(i, j) for i and j in -1..d."""
    span = range(-1, d + 1)
    return SimplexMatrix(d, tuple(tuple(entry(i, j) for j in span) for i in span))


def identity_matrix(d: int) -> SimplexMatrix:
    return _matrix(d, lambda i, j: int(i == j))


@cache
def transfer_matrix(d: int) -> SimplexMatrix:
    """Upper-triangular matrix of subdivision counts, diagonal 0!..(d+1)!.

    Applying it to an f-vector (indexed -1..d) gives the f-vector of the
    barycentric subdivision.
    """
    if d < -1:
        raise ValueError("d must be at least -1")
    return _matrix(d, lambda i, j: subdivision_count(i, j) if i <= j else 0)


@cache
def shift_matrix(d: int) -> SimplexMatrix:
    """Matrix carrying f-polynomial coefficients to reversed h-coefficients.

    Applied to (a_{-1}, ..., a_d) it yields (b_{d+1}, ..., b_0) where
    sum a_i z^(d-i) composed with z - 1 equals sum b_i z^(d+1-i).
    """
    if d < 0:
        raise ValueError("d must be at least 0")
    # the sign (-1)^(d+1+i+j) as a parity test: the exponent is -1 at d = 0
    return _matrix(d, lambda i, j: (-1 if (d + 1 + i + j) % 2 else 1) * comb(d - j, i + 1))


def shift_matrix_inverse(d: int) -> SimplexMatrix:
    """Closed-form inverse of :func:`shift_matrix`."""
    if d < 0:
        raise ValueError("d must be at least 0")
    return _matrix(d, lambda i, j: comb(j + 1, d - i))


@cache
def descent_matrix(d: int) -> SimplexMatrix:
    """Descent-statistic matrix, built by the boustrophedon-style recurrence.

    Entry (i, j) counts permutations of d+2 letters with i+1 descents and
    first letter j+2.  Base case d = 0 is the 2x2 identity; each larger
    matrix is assembled from partial-sum pairs of the previous one: entry
    (i, j) is the sum of row i-1 of the previous matrix over the columns
    before j plus the sum of its row i over the columns from j on (rows
    outside -1..d-1 read as zero).  Both are running sums, so a level
    costs O(d^2) additions.
    """
    if d < 0:
        raise ValueError("d must be at least 0")
    if d == 0:
        return identity_matrix(0)
    prev = descent_matrix(d - 1).rows
    zero = (0,) * (d + 1)
    rows = []
    for upper, lower in zip((zero, *prev), (*prev, zero)):
        head = itertools.accumulate(upper, initial=0)
        tail = list(itertools.accumulate(reversed(lower), initial=0))
        rows.append(tuple(map(add, head, reversed(tail))))
    return SimplexMatrix(d, tuple(rows))


def descent_matrix_bruteforce(d: int) -> SimplexMatrix:
    """Descent matrix by enumerating all (d+2)! permutations.

    Exponentially slow; only meant to validate :func:`descent_matrix`.
    Raises for d above ``BRUTE_FORCE_DIMENSION_CAP`` to keep runtimes sane.
    """
    if d < 0:
        raise ValueError("d must be at least 0")
    if d > BRUTE_FORCE_DIMENSION_CAP:
        raise ValueError(
            f"brute force enumeration capped at d={BRUTE_FORCE_DIMENSION_CAP} "
            f"({factorial(BRUTE_FORCE_DIMENSION_CAP + 2)} permutations); got d={d}"
        )
    # (descents - 1, first letter - 2) of each permutation of d + 2 letters
    counts = Counter(
        (sum(map(gt, perm, perm[1:])) - 1, perm[0] - 2)
        for perm in itertools.permutations(range(1, d + 3))
    )
    return _matrix(d, lambda i, j: counts[i, j])


# ---------------------------------------------------------------------------
# determinant sign for column-dominant matrices


def _column_kind(column: Sequence, j: int) -> str:
    diag = column[j]
    off = [*column[:j], *column[j + 1 :]]
    if diag < 0 and all(x > 0 for x in off) and sum(off) < -diag:
        return "dominant"
    if all(x < 0 for x in column):
        return "negative"
    return "invalid"


def det_sign_check(rows: Sequence[Sequence]) -> int:
    """Exact determinant sign of a column-dominant matrix.

    Accepted shapes, validated before any elimination happens:
    every column has a negative diagonal entry, positive off-diagonal
    entries, and off-diagonal column sum strictly below the diagonal's
    absolute value; at most one column may instead be entirely negative
    (the replaced-column variant).  Entries may be ints, Fractions or
    floats, a float taken at its exact binary value.

    The whole matrix is first scaled by the least common denominator of
    its entries.  A uniform positive scale keeps every column's shape and
    the determinant's sign, so both the validation and the fraction-free
    Bareiss elimination run on integers, and the answer is exact.

    Bareiss pivots are leading principal minors, and none vanishes, so no
    row is swapped: a leading principal submatrix of an accepted matrix
    is accepted, and an accepted n x n matrix A has determinant sign
    (-1)^n.  With no all-negative column, -A is a strictly column
    diagonally dominant Z-matrix with a positive diagonal, so det(-A) > 0.
    With one, r, -A = G + (p - e_r) e_r^T, where p = -A e_r > 0 and G is
    -A with column r replaced by e_r, a nonsingular M-matrix; so G^-1 >= 0
    and det(-A) = det G (G^-1 p)_r > 0.
    """
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("need a nonempty square matrix")
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    scale = lcm(*(q for row in ratios for _, q in row))
    work = [[p * (scale // q) for p, q in row] for row in ratios]

    replaced = 0
    for j, column in enumerate(zip(*work)):
        kind = _column_kind(column, j)
        if kind == "invalid":
            raise ValueError(f"column {j} is neither dominant-form nor all-negative")
        if kind == "negative":
            replaced += 1
    if replaced > 1:
        raise ValueError("more than one replaced (all-negative) column")

    prev = 1
    for k in range(n - 1):
        top = work[k]
        pivot = top[k]
        for row in work[k + 1 :]:
            factor = row[k]
            row[k + 1 :] = [
                (x * pivot - factor * y) // prev
                for x, y in zip(row[k + 1 :], top[k + 1 :])
            ]
        prev = pivot
    return 1 if work[n - 1][n - 1] > 0 else -1
