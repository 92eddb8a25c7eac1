"""End-to-end acceptance checks, one test per advertised guarantee.

Each test prints a single [acceptance] PASS/FAIL line.  The guarantees
that `verify` implements (c3 to c8) are asserted through its checks, the
only implementation of them: every suite runs once, and one test per check
reports it under the guarantee it backs.  Three checks assert
reference-table values or tolerances that the implementation demonstrably
cannot meet (two tables contain misprinted cells, and one convergence
tolerance is reached four rounds later than stated); those tests fail by
design and their messages carry the measured numbers.  The companion tests
around them cover the same ground at the values the mathematics supports.
"""

import time
from fractions import Fraction

import pytest
from mpmath import mp

from baryzeros import (
    alpha_scan,
    checks,
    chi_profile,
    complexes,
    descent_matrix,
    eigen_rationals,
    limit_h_coefficients,
    trajectory,
    transfer_matrix,
)
from baryzeros.checks import first_negative_euler, run_suite
from mp_values import as_mp
from reference_tables import (
    ALPHA_DISCREPANCIES,
    ALPHA_REFERENCE,
    CHI_REFERENCE,
    DESCENT_REFERENCE,
    F_COUNT_REFERENCE,
    F_LIMIT_REFERENCE,
    H_LIMIT_DISCREPANCIES,
    H_LIMIT_REFERENCE,
)


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] {criterion}: {status}"
    if detail:
        line = f"{line} ({detail})"
    print(line)
    assert ok, line


def test_c1_euler_characteristics_and_first_negative():
    started = time.perf_counter()
    chi = chi_profile(200)
    exact = [chi[n] for n in range(1, 45)] == CHI_REFERENCE
    first = first_negative_euler(200) == 94 and chi[94] == -1
    elapsed = time.perf_counter() - started
    report(
        "c1 euler characteristics n=1..44 and first negative at 94",
        exact and first and elapsed < 1.0,
        f"elapsed {elapsed:.3f}s",
    )


def test_c2_face_count_table():
    m = transfer_matrix(7)
    ok = all(m.entry(i, d) == v for (i, d), v in F_COUNT_REFERENCE.items())
    report("c2 face-count table d<=7 entry-exact", ok)


def test_c2_eigen_weight_table():
    ok = all(
        eigen_rationals(d)[i + 1] == v for (i, d), v in F_LIMIT_REFERENCE.items()
    )
    report("c2 eigen-weight table d<=7 entry-exact", ok)


def test_c2_limit_coefficient_table_minus_disputed_cell():
    ok = all(
        limit_h_coefficients(d)[i] == v
        for (i, d), v in H_LIMIT_REFERENCE.items()
        if (i, d) not in H_LIMIT_DISCREPANCIES
    )
    corrected = limit_h_coefficients(0)[1] == 1
    report(
        "c2 limit-coefficient table d<=7, 44 undisputed cells plus corrected cell",
        ok and corrected,
    )


def test_c2_limit_coefficient_table_as_printed():
    "Red by design: one printed cell contradicts the definition."
    mismatches = [
        (i, d, str(printed), str(limit_h_coefficients(d)[i]))
        for (i, d), printed in H_LIMIT_REFERENCE.items()
        if limit_h_coefficients(d)[i] != printed
    ]
    report(
        "c2 limit-coefficient table d<=7 as printed, every cell",
        not mismatches,
        "cell (i=1, d=0) is printed as 0 but the d=0 limit polynomial is "
        f"the constant 1, forcing the value 1; mismatches {mismatches}",
    )


def test_c2_descent_matrix_displays():
    ok = all(
        descent_matrix(d).rows == rows for d, rows in DESCENT_REFERENCE.items()
    )
    report("c2 descent matrices d=0..4 entrywise", ok)


def snapshot_dim2(k: int):
    t = trajectory(30, [k], precision_bits=512)
    return t.entries[0]


def test_c6_interior_root_tolerance_as_stated():
    "Red by design: 1e-6 at k=12 is off by a factor of about 41."
    e = snapshot_dim2(12)
    with mp.workprec(512):
        gap = abs(as_mp(e.interior[0]) + 1)
        product = mp.mpc(1)
        for z in e.interior:
            product *= as_mp(z)
        prod_gap = abs(product + 1)
        ok = gap <= mp.mpf(1e-6) and prod_gap <= mp.mpf(1e-6)
        detail = (
            f"measured gap {mp.nstr(gap, 10)} = 22.003 * 3^-12; the gap "
            "contracts by a factor of 3 per round (22.0 * 3^-k) and first "
            "drops below 1e-6 at k=16; in dimension 2 the interior product "
            "is that single root, so both parts miss together; "
            "raising precision does not move it (identical at 512+ bits)"
        )
    report(
        "c6 interior root and interior product within 1e-6 of -1 at k=12",
        bool(ok),
        detail,
    )


def test_c7_alpha_printed_entries_minus_misprints():
    records = {r.n: r for r in alpha_scan(250)}
    ok = all(
        records[n].alpha == printed
        for n, printed in ALPHA_REFERENCE.items()
        if n not in ALPHA_DISCREPANCIES
    )
    spots = (
        records[39].alpha == 0
        and records[215].alpha == Fraction(-11, 2)
        and records[219].alpha == -22
    )
    report(
        "c7 alpha table: 43 undisputed printed entries exact, spot values",
        ok and spots,
    )


def test_c7_alpha_table_as_printed():
    "Red by design: nine printed dimension-one cells contradict the definition."
    records = {r.n: r for r in alpha_scan(250)}
    mismatches = {
        n: (str(printed), str(records[n].alpha))
        for n, printed in ALPHA_REFERENCE.items()
        if records[n].alpha != printed
    }
    report(
        "c7 alpha table as printed, all 52 entries",
        not mismatches,
        "printed vs defining ratio chi/(H1*f_top): "
        f"{mismatches}; each printed cell fails chi = alpha*H1*f_top "
        "against the exact Euler characteristic at that n",
    )


# Every `verify` check, in run order, with the guarantee it backs; `verify`
# marks the checks no numbered guarantee names.
CHECKS = {
    "count-closed-form-vs-recurrence": "c3",
    "transfer-upper-triangular-factorial-diagonal": "c3",
    "transfer-eigenvector": "c3",
    "eigen-chain-sum-formula": "c3",
    "shift-matrix-inverse": "c3",
    "transfer-descent-similarity": "c3",
    "descent-recurrence-vs-enumeration": "c3",
    "descent-rotational-symmetry": "c3",
    "descent-first-row-two-powers": "c3",
    "descent-monotone-chain": "c3",
    "limit-h-structure": "c3",
    "descent-eigenvector": "c3",
    "limit-h-linear-coefficient-bounds": "c3",
    "determinant-sign-random": "c3",
    "euler-equals-minus-mertens": "c8",
    "first-negative-euler": "verify",
    "explicit-complex-face-counts": "verify",
    "explicit-subdivision-vs-transfer": "c4",
    "random-subdivision-invariance": "c4",
    "growth-expansion-exact": "c5",
    "trajectory-dim1-convergence": "c6",
    "trajectory-dim2-snapshot": "c6",
    "trajectory-dim2-interior-deep": "c6",
    "alpha-defining-identity": "c7",
}

# guarantee -> (suite, wall-time bound in seconds) on the whole suite's run;
# the c6 bound on the zeros suite is test_c6_total_runtime's
TIME_LIMITS = {"c4": ("complex", 10.0), "c8": ("complex", 10.0)}


@pytest.fixture(scope="module")
def verify_run():
    """run_suite("all") once, from an empty shared sieve so that the 10^5
    sieve build is timed, recording each suite's wall time."""
    elapsed = {}

    def timed(key, suite):
        def run():
            started = time.perf_counter()
            results = suite()
            elapsed[key] = time.perf_counter() - started
            return results

        return run

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(complexes, "_shared_sieve", None)
        for key, suite in list(checks.SUITES.items()):
            patch.setitem(checks.SUITES, key, timed(key, suite))
        results = run_suite("all")
    return {result.name: result for result in results}, elapsed


def test_verify_runs_exactly_the_listed_checks(verify_run):
    results, _ = verify_run
    names = list(results)
    report(
        "verify runs exactly the listed checks, in order",
        names == list(CHECKS),
        f"{len(names)} checks run, {len(CHECKS)} listed",
    )


@pytest.mark.parametrize("name", list(CHECKS), ids=list(CHECKS))
def test_verify_check(verify_run, name):
    results, elapsed = verify_run
    guarantee = CHECKS[name]
    result = results.get(name)
    ok = result is not None and result.passed
    detail = result.detail if result is not None else "not run"
    if guarantee in TIME_LIMITS:
        suite, limit = TIME_LIMITS[guarantee]
        ok = ok and elapsed[suite] < limit
        detail += f"; {suite} suite {elapsed[suite]:.3f}s, bound {limit:.0f}s"
    report(f"{guarantee} {name}", ok, detail)


def test_c3_structural_lemma_suite(verify_run):
    results, _ = verify_run
    lemmas = [name for name, guarantee in CHECKS.items() if guarantee == "c3"]
    failures = [
        name for name in lemmas if name not in results or not results[name].passed
    ]
    report(
        "c3 structural lemma suite, all exact checks",
        not failures,
        f"{len(lemmas)} checks, failures {failures}",
    )


def test_c6_total_runtime(verify_run):
    _, elapsed = verify_run
    report(
        "c6 trajectory computations complete in under 60s",
        elapsed["zeros"] < 60.0,
        f"zeros suite elapsed {elapsed['zeros']:.3f}s",
    )
