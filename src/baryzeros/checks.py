"""Executable invariant suites behind the command line ``verify``.

Each check is a generator of failure texts, declared once with
``@_check(suite, name, scope)``, which files it in its suite and makes it
return a CheckResult.  Each suite returns a list of CheckResult records;
nothing in here asserts, so the CLI and the test suite can render or
aggregate the outcomes as they see fit.  Comparisons are exact rational
arithmetic except where a numeric tolerance is the very thing under test,
and every randomized check runs from a fixed seed, so the suites are
deterministic.
"""

from __future__ import annotations

import functools
import marshal
import math
import os
import random
from array import array
from fractions import Fraction
from itertools import accumulate, count
from typing import NamedTuple

from .complexes import (
    SimplicialComplex,
    barycentric_subdivide,
    chi_profile,
    dim_of,
    explicit_complex,
    shared_sieve,
    summary,
)
from .dynamics import (
    alpha_fields,
    alpha_scan,
    growth_expansion,
    subdivided_f,
    trajectory,
)
from .subdivision import (
    BRUTE_FORCE_DIMENSION_CAP,
    _common_numerators,
    descent_matrix,
    descent_matrix_bruteforce,
    det_sign_check,
    eigen_rationals,
    eigen_rationals_direct,
    identity_matrix,
    limit_h_coefficients,
    shift_matrix,
    shift_matrix_inverse,
    subdivision_count,
    subdivision_count_recurrence,
    transfer_matrix,
)

DEFAULT_SEED = 94
CORE_MAX_DIM = 10
EXACT_TABLE_MAX_DIM = 12
CHAIN_FORMULA_MAX_DIM = 8
MERTENS_LIMIT = 100_000
FIRST_NEGATIVE = 94
RANDOM_COMPLEX_INSTANCES = 50
DET_SIGN_INSTANCES = 100
ALPHA_IDENTITY_LIMIT = 10_000
GROWTH_DEPTH = 20


class CheckResult(NamedTuple):
    """Outcome of one named invariant check."""

    name: str
    passed: bool
    detail: str = ""


def _verdict(name: str, failures: list[str], scope: str) -> CheckResult:
    if failures:
        head = failures[0]
        if len(failures) > 1:
            head += f" (+{len(failures) - 1} more)"
        return CheckResult(name, False, head)
    return CheckResult(name, True, scope)


_DECLARED: dict[str, list] = {"core": [], "complex": [], "zeros": []}


def _check(suite: str, name: str, scope: str):
    """File a generator of failure texts in suite's list, as a function
    that returns the check's CheckResult; scope is its pass text."""

    def declare(failures):
        @functools.wraps(failures)
        def check() -> CheckResult:
            return _verdict(name, list(failures()), scope)

        _DECLARED[suite].append(check)
        return check

    return declare


# ---------------------------------------------------------------------------
# core: exact counting identities


@_check(
    "core",
    "count-closed-form-vs-recurrence",
    f"all pairs -1 <= i <= d <= {EXACT_TABLE_MAX_DIM}",
)
def _check_count_routes():
    yield from (
        f"(i={i}, d={d}): {subdivision_count(i, d)} != "
        f"{subdivision_count_recurrence(i, d)}"
        for d in range(-1, EXACT_TABLE_MAX_DIM + 1)
        for i in range(-1, d + 1)
        if subdivision_count(i, d) != subdivision_count_recurrence(i, d)
    )


@_check("core", "transfer-upper-triangular-factorial-diagonal", f"d <= {CORE_MAX_DIM}")
def _check_transfer_structure():
    for d in range(-1, CORE_MAX_DIM + 1):
        m = transfer_matrix(d)
        for i in range(-1, d + 1):
            if m.entry(i, i) != math.factorial(i + 1):
                yield f"diagonal (i={i}, d={d})"
            for j in range(-1, i):
                if m.entry(i, j) != 0:
                    yield f"lower entry (i={i}, j={j}, d={d})"


def _eigenvector_failures(matrix, vector):
    """M v = (d+1)! v for M = matrix(d), v = vector(d) and d <= CORE_MAX_DIM,
    on the integer numerators of v over one denominator."""
    for d in range(0, CORE_MAX_DIM + 1):
        numerators, _ = _common_numerators(vector(d))
        scaled = tuple(math.factorial(d + 1) * x for x in numerators)
        if matrix(d).apply(numerators) != scaled:
            yield f"d={d}"


@_check("core", "transfer-eigenvector", f"d <= {CORE_MAX_DIM}, exact")
def _check_transfer_eigenvector():
    "T w = (d+1)! w for the transfer matrix T and its weights w."
    return _eigenvector_failures(transfer_matrix, eigen_rationals)


@_check("core", "eigen-chain-sum-formula", f"0 <= i < d <= {CHAIN_FORMULA_MAX_DIM}")
def _check_chain_formula():
    for d in range(1, CHAIN_FORMULA_MAX_DIM + 1):
        vec = eigen_rationals(d)
        for i in range(0, d):
            if eigen_rationals_direct(d, i) != vec[i + 1]:
                yield f"(i={i}, d={d})"


@_check("core", "shift-matrix-inverse", f"d <= {CORE_MAX_DIM}, both orders")
def _check_shift_inverse():
    for d in range(0, CORE_MAX_DIM + 1):
        ident = identity_matrix(d)
        s = shift_matrix(d)
        s_inv = shift_matrix_inverse(d)
        if s @ s_inv != ident or s_inv @ s != ident:
            yield f"d={d}"


@_check("core", "transfer-descent-similarity", f"d <= {CORE_MAX_DIM}, exact")
def _check_similarity():
    for d in range(0, CORE_MAX_DIM + 1):
        conjugated = shift_matrix(d) @ transfer_matrix(d) @ shift_matrix_inverse(d)
        if conjugated != descent_matrix(d):
            yield f"d={d}"


@_check(
    "core",
    "descent-recurrence-vs-enumeration",
    f"d <= {BRUTE_FORCE_DIMENSION_CAP}, full permutation counts",
)
def _check_descent_bruteforce():
    yield from (
        f"d={d}"
        for d in range(0, BRUTE_FORCE_DIMENSION_CAP + 1)
        if descent_matrix_bruteforce(d) != descent_matrix(d)
    )


@_check("core", "descent-rotational-symmetry", f"d <= {CORE_MAX_DIM}")
def _check_descent_rotation():
    for d in range(0, CORE_MAX_DIM + 1):
        m = descent_matrix(d)
        for i in range(-1, d + 1):
            for j in range(-1, d + 1):
                if m.entry(i, j) != m.entry(d - 1 - i, d - 1 - j):
                    yield f"(i={i}, j={j}, d={d})"


@_check("core", "descent-first-row-two-powers", f"d <= {CORE_MAX_DIM}")
def _check_descent_two_powers():
    for d in range(0, CORE_MAX_DIM + 1):
        m = descent_matrix(d)
        for j in range(0, d + 1):
            if m.entry(0, j) != 2 ** (d - j):
                yield f"(j={j}, d={d})"


def _descent_snake(d: int) -> list[int]:
    """Descent-matrix entries along the snake through the upper half: rows
    0..(d-1)//2 read right to left, the last one halting mid-matrix."""
    m = descent_matrix(d)
    i_max = (d - 1) // 2
    stop = -1 if d % 2 == 0 else (d - 1) // 2
    seq = []
    for i in range(0, i_max + 1):
        last = stop if i == i_max else -1
        for j in range(d, last - 1, -1):
            seq.append(m.entry(i, j))
    return seq


@_check(
    "core", "descent-monotone-chain", f"snake through the upper half, 1 <= d <= {CORE_MAX_DIM}"
)
def _check_descent_monotone_chain():
    for d in range(1, CORE_MAX_DIM + 1):
        seq = _descent_snake(d)
        for pos, (a, b) in enumerate(zip(seq, seq[1:])):
            if a > b:
                yield f"d={d}, position {pos}: {a} > {b}"


@_check(
    "core",
    "limit-h-structure",
    f"ends zero, positive interior, sum 1, palindrome, 1 <= d <= {EXACT_TABLE_MAX_DIM}",
)
def _check_limit_h_structure():
    for d in range(1, EXACT_TABLE_MAX_DIM + 1):
        coeffs = limit_h_coefficients(d)
        if len(coeffs) != d + 2:
            yield f"d={d}: wrong length"
            continue
        if coeffs[0] != 0 or coeffs[d + 1] != 0:
            yield f"d={d}: nonzero end coefficient"
        if any(coeffs[i] <= 0 for i in range(1, d + 1)):
            yield f"d={d}: interior coefficient not positive"
        if sum(coeffs) != 1:
            yield f"d={d}: coefficient sum {sum(coeffs)} != 1"
        if any(coeffs[i] != coeffs[d + 1 - i] for i in range(0, d + 2)):
            yield f"d={d}: not palindromic"
        if coeffs[1] != eigen_rationals(d)[1]:
            yield f"d={d}: linear coefficient mismatch"


@_check("core", "descent-eigenvector", f"d <= {CORE_MAX_DIM}, exact")
def _check_limit_h_eigenvector():
    "D h = (d+1)! h for the descent matrix D and the limit h-coefficients h."
    return _eigenvector_failures(descent_matrix, limit_h_coefficients)


@_check(
    "core",
    "limit-h-linear-coefficient-bounds",
    f"exact rational comparison, 1 <= d <= {EXACT_TABLE_MAX_DIM}",
)
def _check_limit_h_first_bounds():
    for d in range(1, EXACT_TABLE_MAX_DIM + 1):
        h1 = limit_h_coefficients(d)[1]
        fac = math.factorial(d + 1)
        if h1 > Fraction(2 ** (d + 1), fac):
            yield f"d={d}: upper bound"
        if h1 * h1 < Fraction(2**d, (fac * d) ** 2):
            yield f"d={d}: lower bound"


def _random_sign_matrix(rng: random.Random, n: int, replace_one: bool, integral: bool):
    """A column-dominant matrix, with one all-negative column if replace_one.
    Entries are ints in 1..12, or fractions p/q with q in 1..4, drawn and
    summed as integer numerators over 12 and made Fractions at the end."""
    scale = 12

    def positive():
        if integral:
            return rng.randint(1, 12)
        return rng.randint(1, 12) * scale // rng.randint(1, 4)

    columns = []
    for j in range(n):
        entries = [positive() for _ in range(n)]
        off_sum = sum(entries) - entries[j]
        entries[j] = -(off_sum + positive())
        columns.append(entries)
    if replace_one:
        j = rng.randrange(n)
        columns[j] = [-positive() for _ in range(n)]
    if integral:
        return [list(row) for row in zip(*columns)]
    return [[Fraction(x, scale) for x in row] for row in zip(*columns)]


@_check(
    "core",
    "determinant-sign-random",
    f"{DET_SIGN_INSTANCES} seeded instances, sizes 1..8, with and without a replaced column",
)
def _check_det_sign_random():
    rng = random.Random(DEFAULT_SEED)
    for idx in range(DET_SIGN_INSTANCES):
        n = 1 + idx % 8
        rows = _random_sign_matrix(rng, n, idx % 2 == 1, idx % 3 == 0)
        expected = -1 if n % 2 else 1
        got = det_sign_check(rows)
        if got != expected:
            yield f"instance {idx} (n={n}): sign {got} != {expected}"


def core_suite() -> list[CheckResult]:
    """Exact identities of the counting tables, matrices and limits."""
    return [check() for check in _DECLARED["core"]]


# ---------------------------------------------------------------------------
# complex: sieve versus explicit geometry


# n per block of the face route, so that no list spans the whole range
_FACE_BLOCK = 4096


@_check(
    "complex", "euler-equals-minus-mertens", f"two routes agree for n <= {MERTENS_LIMIT}"
)
def _check_euler_vs_mertens():
    """chi summed over the faces, each squarefree k of weight w one face
    of dimension w - 1, against the sieve's chi, minus its running Moebius
    sum; the two routes compare block by block for n = 1..MERTENS_LIMIT."""
    table = shared_sieve(MERTENS_LIMIT)
    # the empty simplex enters at k = 1 (weight 0), a squareful k adds nothing
    step = {w: (-1) ** (w + 1) for w in range(dim_of(MERTENS_LIMIT) + 2)}
    step[-1] = 0
    # each weight byte, read as signed, to its face term as a signed byte; a
    # weight step does not cover maps to 2, which no face term equals, so the
    # two routes part at its n
    face = bytes(step.get(w, 2) & 0xFF for w in (*range(128), *range(-128, 0)))
    weights = memoryview(table.weight)
    stop = MERTENS_LIMIT + 1
    carry = 0
    for lo in range(1, stop, _FACE_BLOCK):
        hi = min(lo + _FACE_BLOCK, stop)
        terms = memoryview(weights[lo:hi].tobytes().translate(face)).cast("b")
        faces = list(accumulate(terms, initial=carry))[1:]
        sieve = table.chi[lo:hi].tolist()
        if faces != sieve:
            yield from (
                f"n={n}: chi {c} != -M {-s}"
                for n, c, s in zip(count(lo), faces, sieve)
                if c != s
            )
        carry = faces[-1]


def first_negative_euler(limit: int = 200) -> int | None:
    """Smallest n >= 2 with negative Euler characteristic, if any <= limit."""
    chi = chi_profile(limit)
    for n in range(2, limit + 1):
        if chi[n] < 0:
            return n
    return None


@_check("complex", "first-negative-euler", f"n = {FIRST_NEGATIVE} with value -1")
def _check_first_negative():
    found = first_negative_euler(200)
    chi = chi_profile(200)
    if found != FIRST_NEGATIVE:
        yield f"first negative at {found}, expected {FIRST_NEGATIVE}"
    elif chi[found] != -1:
        yield f"chi({found}) = {chi[found]}, expected -1"


@_check("complex", "explicit-complex-face-counts", "n in (6, 30, 94, 210), validated")
def _check_explicit_f_vectors():
    for n in (6, 30, 94, 210):
        cx = explicit_complex(n)
        cx.validate()
        fv = summary(n)
        if cx.f_vector() != fv:
            yield f"n={n}: f-vector mismatch"


@_check("complex", "explicit-subdivision-vs-transfer", "n in (6, 30), k <= 2, exact")
def _check_explicit_subdivision():
    for n in (6, 30):
        base = explicit_complex(n)
        orbit = subdivided_f(base.f_vector(), 2)
        current = base
        for k in (1, 2):
            current = barycentric_subdivide(current)
            current.validate()
            # one scan of each complex; dim and chi follow from its face counts
            fv = current.f_vector()
            if fv != orbit[k]:
                yield f"n={n}, k={k}: f-vector mismatch"
            if fv.dim != orbit[0].dim:
                yield f"n={n}, k={k}: dimension changed"
            if fv.euler_char() != orbit[0].euler_char():
                yield f"n={n}, k={k}: Euler characteristic changed"


def _random_complex(rng: random.Random) -> SimplicialComplex:
    vertex_count = rng.randint(3, 9)
    labels = rng.sample(range(2, 60), vertex_count)
    facets = []
    for _ in range(rng.randint(1, 7)):
        size = rng.randint(1, min(4, vertex_count))
        facets.append(frozenset(rng.sample(labels, size)))
    return SimplicialComplex.from_facets(facets)


@_check(
    "complex",
    "random-subdivision-invariance",
    f"{RANDOM_COMPLEX_INSTANCES} seeded complexes, <= 1000 simplices each",
)
def _check_random_subdivision_invariance():
    rng = random.Random(DEFAULT_SEED)
    for idx in range(RANDOM_COMPLEX_INSTANCES):
        cx = _random_complex(rng)
        cx.validate()
        if len(cx.simplices) > 1000:
            yield f"instance {idx}: generator exceeded 1000 simplices"
            continue
        sub = barycentric_subdivide(cx)
        sub.validate()
        # one scan of each complex; dim and chi follow from its face counts
        fv, sub_fv = cx.f_vector(), sub.f_vector()
        if sub_fv.dim != fv.dim:
            yield f"instance {idx}: dimension changed"
        if sub_fv.euler_char() != fv.euler_char():
            yield f"instance {idx}: Euler characteristic changed"
        if sub_fv != subdivided_f(fv, 1)[1]:
            yield f"instance {idx}: f-vector != transfer matrix product"


def complex_suite() -> list[CheckResult]:
    """Sieve identities and explicit subdivision geometry."""
    return [check() for check in _DECLARED["complex"]]


# ---------------------------------------------------------------------------
# zeros: growth expansion and root trajectories


@_check(
    "zeros", "growth-expansion-exact", f"n in (6, 14, 30, 210), every k <= {GROWTH_DEPTH}, exact"
)
def _check_growth_expansion():
    for n in (6, 14, 30, 210):
        fv = summary(n)
        d, chi, f_top = fv.dim, fv.euler_char(), fv.count(fv.dim)
        expansion = growth_expansion(fv)
        q = expansion.h_rows
        if q[0] != tuple(f_top * c for c in limit_h_coefficients(d)):
            yield f"n={n}: Q_0 is not f_top times the limit h-polynomial"
        for i in range(-1, d + 1):
            for j in range(d - i + 1, d + 1):
                if expansion.coefficients[j][i + 1] != 0:
                    yield f"n={n}, i={i}, j={j}: expected zero coefficient"
        # Q_j(0) = 0 for j < d, Q_d(0) = (-1)^d chi, and alpha = (-1)^d Q_d(0) / Q_0'(0)
        for j, row in enumerate(q):
            if row[-1] != (j == d) * (-1) ** d * chi:
                yield f"n={n}, j={j}: constant term {row[-1]}"
        if Fraction(*alpha_fields(d, chi, f_top)[:2]) * q[0][-2] != (-1) ** d * q[d][-1]:
            yield f"n={n}: alpha is not (-1)^d Q_d(0) / Q_0'(0)"
        for k, exact in enumerate(subdivided_f(fv, GROWTH_DEPTH)):
            for i in range(-1, d + 1):
                if expansion.evaluate(i, k) != exact.count(i):
                    yield f"n={n}, k={k}, i={i}: closed form mismatch"


def _gap_squared(z) -> Fraction:
    "|z + 1|^2 of the dyadic root z, exactly."
    x, y, e = z
    return Fraction((x + (1 << e)) ** 2 + y * y, 1 << (2 * e))


@_check(
    "zeros", "trajectory-dim1-convergence", "n=6, k <= 16, geometric error bound 8/2^k from k=4"
)
def _check_trajectory_dim1():
    run = trajectory(6, range(17))
    for entry in run.entries:
        k = entry.k
        if entry.sum_rel_err >= 1e-9 or entry.prod_rel_err >= 1e-9:
            yield f"k={k}: coefficient identity error above 1e-9"
        if k < 4:
            continue
        tol = 8 * 2.0**-k
        if abs(entry.ratio_inf - 1) > tol:
            yield f"k={k}: largest-root ratio off by {float(abs(entry.ratio_inf - 1)):.6g}"
        if abs(entry.scaled_rho0 - 1) > tol:
            yield f"k={k}: scaled smallest root off by {float(abs(entry.scaled_rho0 - 1)):.6g}"
        if entry.rootset.roots[-1].y:
            yield f"k={k}: largest root not certified real"
        if not entry.rootset.roots[-1].x < 0:
            yield f"k={k}: largest root not negative"
        if entry.ambiguous:
            yield f"k={k}: extreme roots flagged ambiguous"


@_check(
    "zeros", "trajectory-dim2-snapshot", "n=30, k=12 at 512 bits, interior root within 1e-4 of -1"
)
def _check_trajectory_dim2():
    run = trajectory(30, [12], precision_bits=512)
    entry = run.entries[0]
    if abs(entry.ratio_inf - 1) > 1e-3:
        yield f"largest-root ratio off by {float(abs(entry.ratio_inf - 1)):.6g}"
    if abs(entry.scaled_rho0 - 6) > 1e-2:
        yield f"scaled smallest root off by {float(abs(entry.scaled_rho0 - 6)):.6g}"
    if len(entry.interior) != 1:
        yield f"expected one interior root, got {len(entry.interior)}"
    else:
        # the interior product is that one root
        gap2 = _gap_squared(entry.interior[0])
        if gap2 > Fraction(1e-4) ** 2:
            yield f"interior root and product {float(gap2) ** 0.5:.6g} away from -1"
    if entry.rootset.roots[-1].y:
        yield "largest root not certified real"
    if not entry.rootset.roots[-1].x < 0:
        yield "largest root not negative"
    if entry.sum_rel_err >= 1e-9 or entry.prod_rel_err >= 1e-9:
        yield "coefficient identity error above 1e-9"
    if entry.ambiguous:
        yield "extreme roots flagged ambiguous"


@_check(
    "zeros",
    "trajectory-dim2-interior-deep",
    "n=30, k=16 at 512 bits, interior root within 1e-6 of -1",
)
def _check_trajectory_dim2_deeper():
    run = trajectory(30, [16], precision_bits=512)
    entry = run.entries[0]
    gap2 = _gap_squared(entry.interior[0])
    if gap2 > Fraction(1e-6) ** 2:
        yield f"interior root still {float(gap2) ** 0.5:.6g} away from -1 at k=16"


@_check(
    "zeros",
    "alpha-defining-identity",
    f"all n <= {ALPHA_IDENTITY_LIMIT} with dimension >= 1, exact",
)
def _check_alpha_identity():
    """alpha * H1 * f_top == chi, as a * p * f_top == chi * b * q for
    alpha = a/b and H1 = p/q, once per distinct (d, chi, f_top) of the
    scan's runs.  Each run sits where the sieve says: its chi at its offset
    in the sieve's chi, and d == dim_of(n); in a right dimension, f_top
    equals the top face count that summary counts over the faces at the
    run's first and last n.  A run's chi may be a list or a view, so it is
    compared as a buffer and searched as a list."""
    spot = {6: Fraction(1), 30: Fraction(6)}
    seen = dict.fromkeys(spot)
    sieve_chi = memoryview(shared_sieve(ALPHA_IDENTITY_LIMIT).chi)
    for d, f_top, lo, chi in alpha_scan(ALPHA_IDENTITY_LIMIT).runs:
        hi = lo + len(chi)
        h1 = eigen_rationals(d)[1]
        for c in dict.fromkeys(chi):
            a, b, _ = alpha_fields(d, c, f_top)
            if a * h1.numerator * f_top != c * b * h1.denominator:
                yield f"n={lo + list(chi).index(c)}: defining identity broken"
        if array("i", chi) != sieve_chi[lo:hi]:
            yield from (
                f"n={n}: Euler characteristic disagrees with sieve"
                for n, c in enumerate(chi, lo)
                if c != sieve_chi[n]
            )
        if d < 1 or dim_of(lo) != d or dim_of(hi - 1) != d:
            yield f"n={lo}: dimension {d} wrong or below 1"
        else:
            for n in (lo, hi - 1):
                faces = summary(n).count(d)
                if faces != f_top:
                    yield f"n={n}: top face count {f_top} != {faces} from the faces"
        for n in spot:
            if lo <= n < hi:
                seen[n] = Fraction(*alpha_fields(d, chi[n - lo], f_top)[:2])
    for n, expected in spot.items():
        if seen[n] != expected:
            yield f"n={n}: alpha {seen[n]} != {expected}"


def zeros_suite() -> list[CheckResult]:
    """Growth closed form, root trajectories and scaling limits."""
    return [check() for check in _DECLARED["zeros"]]


SUITES = {
    "core": core_suite,
    "complex": complex_suite,
    "zeros": zeros_suite,
}


def run_suite(name: str) -> list[CheckResult]:
    """Run one named suite, or all of them in order."""
    if name == "all":
        return [result for suite in SUITES.values() for result in suite()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; pick all, core, complex or zeros")
    return SUITES[name]()


def _run_all_split() -> list[CheckResult]:
    """run_suite("all")'s results, with the complex suite in a forked worker
    when this process may use more than one CPU.

    The worker runs SUITES["complex"] while this process runs the other
    suites in order.  It sends its results through a pipe as marshalled
    (name, passed, detail) tuples and exits 0, or sends the message of
    what it raised and exits 1; it always leaves through os._exit, so no
    exit handler, finally clause or stdout buffer of this process runs in
    it.  A worker that raised or died is one RuntimeError here, and the
    worker is reaped on every path.  With one CPU, or without
    os.sched_getaffinity or os.fork, this is run_suite("all")."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None or not hasattr(os, "fork") or len(affinity(0)) < 2:
        return run_suite("all")
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        # an interrupt or exit leaves through the finally clause, with 2
        code = 2
        try:
            os.close(read)
            try:
                payload = [tuple(result) for result in SUITES["complex"]()]
            except Exception as exc:
                payload = str(exc) or type(exc).__name__
            with open(write, "wb") as pipe:
                marshal.dump(payload, pipe)
            code = 1 if isinstance(payload, str) else 0
        finally:
            os._exit(code)
    os.close(write)
    pipe = open(read, "rb")
    try:
        ran = {name: suite() for name, suite in SUITES.items() if name != "complex"}
        data = pipe.read()
    finally:
        # closed first, so that a worker still writing fails and leaves
        pipe.close()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code == 1:
        raise RuntimeError(marshal.loads(data))
    if code:
        raise RuntimeError(f"the complex suite's worker ended with status {code}")
    ran["complex"] = [CheckResult(*result) for result in marshal.loads(data)]
    return [result for name in SUITES for result in ran[name]]
