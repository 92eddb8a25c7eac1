"""Subdivision counts, eigen weights, and the structured matrices."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baryzeros import (
    FVector,
    SimplexMatrix,
    descent_matrix,
    dim_of,
    eigen_rationals,
    growth_expansion,
    identity_matrix,
    limit_h_coefficients,
    mertens,
    shift_matrix,
    stirling2,
    subdivision_count,
    summary,
    transfer_matrix,
)
from baryzeros.checks import _descent_snake, _random_sign_matrix
from baryzeros.complexes import SimplicialComplex, explicit_complex
from baryzeros.subdivision import (
    descent_matrix_bruteforce,
    det_sign_check,
    eigen_rationals_direct,
    shift_matrix_inverse,
)
from reference_tables import (
    DESCENT_REFERENCE,
    F_COUNT_REFERENCE,
    F_LIMIT_REFERENCE,
    H_LIMIT_DISCREPANCIES,
    H_LIMIT_REFERENCE,
    TRANSFER_REFERENCE,
)
from test_complexes import horner


def brute_partition_count(n: int, k: int) -> int:
    "Count set partitions of an n-element set into k nonempty blocks."
    if n == 0:
        return 1 if k == 0 else 0
    count = 0
    for assignment in itertools.product(range(k), repeat=n):
        blocks = set(assignment)
        if len(blocks) == k and assignment[0] == 0:
            ordered = []
            for b in assignment:
                if b not in ordered:
                    ordered.append(b)
            if ordered == sorted(ordered):
                count += 1
    return count


def test_stirling2_against_brute_partitions():
    for n in range(0, 7):
        for k in range(0, n + 2):
            assert stirling2(n, k) == brute_partition_count(n, k), (n, k)


def test_stirling2_edges():
    assert stirling2(0, 0) == 1
    assert stirling2(5, 0) == 0
    assert stirling2(3, 5) == 0
    assert stirling2(-1, 2) == 0


def test_subdivision_count_table():
    "Every printed face-count cell, exactly; i > d cells live on the matrix."
    m = transfer_matrix(7)
    for (i, d), expected in F_COUNT_REFERENCE.items():
        assert m.entry(i, d) == expected, (i, d)
        if i <= d:
            assert subdivision_count(i, d) == expected, (i, d)


def test_subdivision_count_rejects_excess_dimension():
    with pytest.raises(ValueError):
        subdivision_count(3, 2)
    with pytest.raises(ValueError):
        subdivision_count(-2, 4)


def test_eigen_rationals_table():
    "Every printed eigen-weight cell, exactly."
    columns = {d: eigen_rationals(d) for d in range(-1, 8)}
    for (i, d), expected in F_LIMIT_REFERENCE.items():
        assert columns[d][i + 1] == expected, (i, d)


def eigen_rationals_by_fractions(d: int) -> tuple[Fraction, ...]:
    "The descending recurrence, one Fraction division per weight."
    if d == -1:
        return (Fraction(1),)
    values = {d: Fraction(1)}
    top = math.factorial(d + 1)
    for i in range(d - 1, -1, -1):
        acc = sum(subdivision_count(i, j) * values[j] for j in range(i + 1, d + 1))
        values[i] = acc / (top - math.factorial(i + 1))
    values[-1] = Fraction(0)
    return tuple(values[i] for i in range(-1, d + 1))


def test_eigen_rationals_match_fraction_recurrence():
    "The common-denominator recurrence against the Fraction one, d <= 16."
    for d in range(-1, 17):
        assert eigen_rationals(d) == eigen_rationals_by_fractions(d), d


def test_eigen_rationals_direct_rejects_boundary_indices():
    for i in (-1, 3, 5):
        with pytest.raises(ValueError):
            eigen_rationals_direct(3, i)


def test_limit_h_table_as_printed_except_disputed():
    for (i, d), expected in H_LIMIT_REFERENCE.items():
        if (i, d) in H_LIMIT_DISCREPANCIES:
            continue
        assert limit_h_coefficients(d)[i] == expected, (i, d)


def test_limit_h_disputed_cell():
    "The d = 0 limit polynomial is the constant 1, so its last coefficient is 1."
    (printed, computed) = H_LIMIT_DISCREPANCIES[(1, 0)]
    assert printed == 0
    assert computed == 1
    assert limit_h_coefficients(0) == (Fraction(0), Fraction(1))


def test_limit_h_matches_shift_of_fractions():
    "The integer shift against the shift matrix applied to the Fractions."
    for d in range(0, 17):
        expected = shift_matrix(d).apply(eigen_rationals(d))[::-1]
        assert all(isinstance(x, Fraction) for x in expected)
        assert limit_h_coefficients(d) == expected, d


def test_limit_polys_related_by_shift():
    "At d + 2 points, which pin down a polynomial of degree at most d + 1."
    for d in range(0, 17):
        f = eigen_rationals(d)
        h = limit_h_coefficients(d)
        for x in map(Fraction, range(d + 2)):
            assert horner(h, x) == horner(f, x - 1), (d, x)


def test_transfer_matrix_displays():
    for d, rows in TRANSFER_REFERENCE.items():
        assert transfer_matrix(d).rows == rows


def test_shift_matrix_carries_f_to_reversed_h():
    "The face counts (1, 3, 1) map to z^2 + z - 1, read lowest first."
    assert shift_matrix(1).apply((1, 3, 1)) == (-1, 1, 1)


def test_descent_matrix_displays():
    for d, rows in DESCENT_REFERENCE.items():
        assert descent_matrix(d).rows == rows


def descent_levels_by_entries(max_d: int):
    "Each level entry by entry from the previous one, zero outside -1..d-1."
    prev = ((1, 0), (0, 1))
    yield prev
    for d in range(1, max_d + 1):

        def prev_entry(i: int, j: int) -> int:
            if -1 <= i <= d - 1 and -1 <= j <= d - 1:
                return prev[i + 1][j + 1]
            return 0

        prev = tuple(
            tuple(
                sum(prev_entry(i - 1, l) for l in range(-1, j))
                + sum(prev_entry(i, l) for l in range(j, d))
                for j in range(-1, d + 1)
            )
            for i in range(-1, d + 1)
        )
        yield prev


def test_descent_matrix_matches_entrywise_recurrence():
    "The running-sum levels against the entry-by-entry recurrence, d <= 16."
    for d, rows in enumerate(descent_levels_by_entries(16)):
        assert descent_matrix(d).rows == rows, d


def test_descent_bruteforce_capped():
    with pytest.raises(ValueError):
        descent_matrix_bruteforce(6)


def test_descent_snake_examples():
    "The walk that descent-monotone-chain checks, pinned at d = 3 and 4."
    assert _descent_snake(3) == [1, 2, 4, 8, 11, 11, 14, 16]
    assert _descent_snake(4) == [1, 2, 4, 8, 16, 26, 26, 36, 48, 60, 66, 66]


def test_det_sign_single_entry():
    assert det_sign_check([(-5,)]) == -1


def test_det_sign_dominant_two_by_two():
    assert det_sign_check([(-3, 1), (2, -4)]) == 1


def test_det_sign_with_one_replaced_column():
    rows = [
        (-5, -2, 1),
        (1, -7, 2),
        (2, -1, -6),
    ]
    assert det_sign_check(rows) == -1


def test_det_sign_accepts_fractions():
    rows = [
        (Fraction(-3, 2), Fraction(1, 3)),
        (Fraction(1, 2), Fraction(-2)),
    ]
    assert det_sign_check(rows) == 1


def test_det_sign_rejects_bad_structure():
    "Each shape error is a ValueError with its message word for word."
    cases = [
        ([(5,)], "column 0 is neither dominant-form nor all-negative"),
        ([(-1, 3), (3, -1)], "column 0 is neither dominant-form nor all-negative"),
        (
            [(-3, 1), (Fraction(7, 2), -2)],
            "column 0 is neither dominant-form nor all-negative",
        ),
        ([(-2, 1), (1, -1)], "column 1 is neither dominant-form nor all-negative"),
        ([(-1, -1), (-1, -1)], "more than one replaced (all-negative) column"),
        ([(-1, 1), (1, -1), (1, 1)], "need a nonempty square matrix"),
        ([], "need a nonempty square matrix"),
    ]
    for rows, message in cases:
        with pytest.raises(ValueError) as err:
            det_sign_check(rows)
        assert str(err.value) == message, rows


def test_det_sign_mixed_denominators_in_a_column():
    "Column entries 1/3 and 1/4 share no denominator, nor do the rows."
    rows = [
        (Fraction(-7, 6), Fraction(1, 4)),
        (Fraction(1, 3), Fraction(-5, 4)),
    ]
    assert leibniz_det(rows) > 0
    assert det_sign_check(rows) == 1
    replaced = [
        (Fraction(-1, 3), Fraction(-1, 5)),
        (Fraction(1, 4), Fraction(-1, 7)),
    ]
    assert leibniz_det(replaced) > 0
    assert det_sign_check(replaced) == 1


def test_det_sign_takes_floats_at_their_binary_value():
    "A float entry is read exactly, as Fraction(x) reads it."
    floats = [(-1.5, 0.25), (0.5, -2.0)]
    exact = [tuple(map(Fraction, row)) for row in floats]
    assert det_sign_check(floats) == det_sign_check(exact) == 1
    assert det_sign_check([(-0.1, -0.3), (0.05, -0.2)]) == 1
    with pytest.raises(ValueError) as err:
        det_sign_check([(-1.0, 1.0), (1.0, -1.0)])
    assert str(err.value) == "column 0 is neither dominant-form nor all-negative"
    with pytest.raises(ValueError):
        det_sign_check([(float("nan"),)])


def leibniz_det(rows) -> Fraction:
    "Determinant as the signed sum over all permutations, in Fractions."
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


positive_fractions = st.builds(Fraction, st.integers(1, 30), st.integers(1, 12))


@st.composite
def column_dominant_matrices(draw):
    "Rows of a column-dominant matrix, one column maybe all negative."
    n = draw(st.integers(1, 4))
    columns = []
    for j in range(n):
        column = draw(st.lists(positive_fractions, min_size=n, max_size=n))
        column[j] = -(sum(column) - column[j] + draw(positive_fractions))
        columns.append(column)
    replaced = draw(st.none() | st.integers(0, n - 1))
    if replaced is not None:
        negated = draw(st.lists(positive_fractions, min_size=n, max_size=n))
        columns[replaced] = [-x for x in negated]
    return [tuple(row) for row in zip(*columns)]


@settings(max_examples=200, deadline=None)
@given(column_dominant_matrices())
def test_det_sign_against_leibniz(rows):
    det = leibniz_det(rows)
    expected = (det > 0) - (det < 0)
    assert det_sign_check(rows) == expected
    assert expected == (-1) ** len(rows)


def test_det_sign_of_every_small_accepted_matrix():
    """Every accepted integer matrix of size 1 to 3 with entries in -4..4,
    the replaced column anywhere or nowhere, has determinant sign (-1)^n,
    and det_sign_check says so.  A size-1 matrix is both shapes at once,
    so the distinct matrices number 4 + 228 + 3136."""
    seen = set()
    for n in (1, 2, 3):
        cells = list(itertools.product(range(-4, 5), repeat=n))
        dominant = [
            [c for c in cells if min(c[:j] + c[j + 1 :], default=1) > 0 and sum(c) < 0]
            for j in range(n)
        ]
        negative = [c for c in cells if max(c) < 0]
        for replaced in (None, *range(n)):
            choices = [negative if j == replaced else dominant[j] for j in range(n)]
            seen.update(tuple(zip(*columns)) for columns in itertools.product(*choices))
    assert len(seen) == 3368
    for rows in seen:
        det = leibniz_det(rows)
        assert (det > 0) - (det < 0) == det_sign_check(rows) == (-1) ** len(rows), rows


def random_sign_matrix_by_fractions(rng, n, replace_one, integral):
    "The reference for _random_sign_matrix: the same draws, summed as Fractions."

    def positive():
        if integral:
            return rng.randint(1, 12)
        return Fraction(rng.randint(1, 12), rng.randint(1, 4))

    columns = []
    for j in range(n):
        entries = [positive() for _ in range(n)]
        off_sum = sum(entries[i] for i in range(n) if i != j)
        entries[j] = -(off_sum + positive())
        columns.append(entries)
    if replace_one:
        j = rng.randrange(n)
        columns[j] = [-positive() for _ in range(n)]
    return [[columns[j][i] for j in range(n)] for i in range(n)]


def test_random_sign_matrices_match_fraction_draws():
    "Same draws, same matrices and entry types, same generator state after."
    for seed in (94, 7):
        ours, theirs = random.Random(seed), random.Random(seed)
        for idx in range(200):
            args = (1 + idx % 8, idx % 2 == 1, idx % 3 == 0)
            got = _random_sign_matrix(ours, *args)
            want = random_sign_matrix_by_fractions(theirs, *args)
            assert got == want, (seed, idx)
            assert [list(map(type, r)) for r in got] == [list(map(type, r)) for r in want]
        assert ours.random() == theirs.random()


_NOT_AT_LEAST_0 = (ValueError, "d must be at least 0")


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: mertens(0), ValueError, "x=0 must be at least 1", id="mertens"),
        pytest.param(lambda: dim_of(0), ValueError, "n must be at least 1", id="dim_of"),
        pytest.param(lambda: summary(0), ValueError, "n must be at least 1", id="summary"),
        pytest.param(
            lambda: explicit_complex(0), ValueError, "n must be at least 1", id="explicit_complex"
        ),
        pytest.param(
            lambda: SimplicialComplex(frozenset({frozenset({2})})).validate(),
            ValueError,
            "missing the empty simplex",
            id="validate",
        ),
        pytest.param(
            lambda: growth_expansion(FVector((1,))),
            ValueError,
            "growth expansion needs dimension at least 0",
            id="growth_expansion",
        ),
        pytest.param(
            lambda: growth_expansion(FVector((1, 2))).evaluate(1, 0),
            IndexError,
            "i=1 outside -1..0",
            id="evaluate-i",
        ),
        pytest.param(
            lambda: growth_expansion(FVector((1, 2))).evaluate(0, -1),
            ValueError,
            "k must be nonnegative",
            id="evaluate-k",
        ),
        pytest.param(
            lambda: eigen_rationals(-2), ValueError, "d must be at least -1", id="eigen_rationals"
        ),
        pytest.param(lambda: limit_h_coefficients(-1), *_NOT_AT_LEAST_0, id="limit_h_coefficients"),
        pytest.param(
            lambda: transfer_matrix(-2), ValueError, "d must be at least -1", id="transfer_matrix"
        ),
        pytest.param(lambda: shift_matrix(-1), *_NOT_AT_LEAST_0, id="shift_matrix"),
        pytest.param(lambda: shift_matrix_inverse(-1), *_NOT_AT_LEAST_0, id="shift_matrix_inverse"),
        pytest.param(lambda: descent_matrix(-1), *_NOT_AT_LEAST_0, id="descent_matrix"),
        pytest.param(
            lambda: descent_matrix_bruteforce(-1), *_NOT_AT_LEAST_0, id="descent_matrix_bruteforce"
        ),
        pytest.param(
            lambda: SimplexMatrix(1, ((1,),)),
            ValueError,
            "matrix shape does not match dimension range",
            id="SimplexMatrix",
        ),
        pytest.param(
            lambda: identity_matrix(1).entry(2, 0),
            IndexError,
            "index (2, 0) outside -1..1",
            id="entry",
        ),
        pytest.param(
            lambda: identity_matrix(1) @ identity_matrix(2),
            ValueError,
            "dimension mismatch",
            id="matmul",
        ),
        pytest.param(
            lambda: identity_matrix(1).apply((1,)),
            ValueError,
            "vector length mismatch",
            id="apply",
        ),
    ],
)
def test_library_argument_checks(call, error, message):
    "Each library entry point rejects an out-of-range argument with its own message."
    with pytest.raises(error) as excinfo:
        call()
    assert str(excinfo.value) == message
