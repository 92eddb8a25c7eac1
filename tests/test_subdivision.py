"""Subdivision counts, eigen weights, and the structured matrices."""

import itertools
from fractions import Fraction

import pytest

from baryzeros import (
    descent_matrix,
    eigen_rationals,
    limit_h_coefficients,
    shift_matrix,
    stirling2,
    subdivision_count,
    transfer_matrix,
)
from baryzeros.checks import _descent_snake
from baryzeros.subdivision import (
    descent_matrix_bruteforce,
    det_sign_check,
    eigen_rationals_direct,
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
    with pytest.raises(ValueError):
        det_sign_check([(5,)])
    with pytest.raises(ValueError):
        det_sign_check([(-1, 3), (3, -1)])
    with pytest.raises(ValueError):
        det_sign_check([(-1, -1), (-1, -1)])
    with pytest.raises(ValueError):
        det_sign_check([(-1, 1), (1, -1), (1, 1)])
