"""Apply listed source mutations to a copy and expect a named test to fail.

Usage, from anywhere::

    python tools/mutants.py

Each entry of ``MUTANTS`` names a file, a text in it, the text that
replaces it, and the pytest id of the test that must catch the change.
For each entry the script copies ``src``, ``tests`` and ``pyproject.toml``
to a fresh temporary directory, replaces the text (it must occur exactly
once), and runs that one test there with the copy's ``src`` first on the
path.  Before any mutant runs, each named test must pass on an unmutated
copy, so a test that fails anyway cannot count as a kill.  Nothing is
written inside the checkout.

It prints one line per mutant and exits 1 if a mutant survives, if an old
text is not found exactly once, or if a named test fails unmutated.  Only
the standard library is used, besides pytest itself.  It is not part of
tier-1 (the pipe test it runs starts subprocesses; about 90 s in all).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    what: str
    path: str
    old: str
    new: str
    test: str


MUTANTS = [
    Mutant(
        "the check decorator reports no failures",
        "src/baryzeros/checks.py",
        "return _verdict(name, list(failures()), scope)",
        "return _verdict(name, [], scope)",
        "tests/test_cli.py::test_guard_checks_can_fail",
    ),
    Mutant(
        "alpha-defining-identity filed in the complex suite",
        "src/baryzeros/checks.py",
        '    "zeros",\n    "alpha-defining-identity",',
        '    "complex",\n    "alpha-defining-identity",',
        "tests/test_acceptance.py::test_verify_runs_exactly_the_listed_checks",
    ),
    Mutant(
        "cli.main's broken-pipe branch deleted",
        "src/baryzeros/cli.py",
        "        if isinstance(exc, BrokenPipeError) and args.out is None:\n"
        "            # The reader of stdout has gone (``| head``): stop quietly.\n"
        "            return 0\n",
        "",
        "tests/test_cli.py::test_closed_stdout_pipe_ends_quietly",
    ),
    Mutant(
        "summary's cross-check with the sieve deleted",
        "src/baryzeros/complexes.py",
        "    if chi != sieve_chi:\n"
        "        raise ConsistencyError(\n"
        '            f"euler characteristic {chi} and Mertens value "\n'
        '            f"{-sieve_chi} disagree at n={n}"\n'
        "        )\n",
        "",
        "tests/test_complexes.py::test_summary_cross_check_is_enforced",
    ),
    Mutant(
        "_round_mantissa rounds ties up, not to even",
        "src/baryzeros/rootfinding.py",
        "m += low > half or (low == half and bool(sticky or m & 1))",
        "m += low >= half",
        "tests/test_rootfinding.py::test_exact_tie_roots_round_to_even",
    ),
    Mutant(
        "alpha-defining-identity's top face count comparison deleted",
        "src/baryzeros/checks.py",
        "        else:\n"
        "            for n in (lo, hi - 1):\n"
        "                faces = summary(n).count(d)\n"
        "                if faces != f_top:\n"
        '                    yield f"n={n}: top face count {f_top} != {faces} from the faces"\n',
        "",
        "tests/test_cli.py::test_guard_checks_can_fail[alpha-defining-identity-top-faces]",
    ),
    Mutant(
        "_enclose's coincident-point nudge moves every point by one unit",
        "src/baryzeros/rootfinding.py",
        "points[i] = (x + i + 1, y + (i >= real_count))",
        "points[i] = (x + 1, y + (i >= real_count))",
        "tests/test_rootfinding.py::test_coincident_real_starts_part",
    ),
    Mutant(
        "det_sign_check's sign negated",
        "src/baryzeros/subdivision.py",
        "return 1 if work[n - 1][n - 1] > 0 else -1",
        "return -1 if work[n - 1][n - 1] > 0 else 1",
        "tests/test_subdivision.py::test_det_sign_of_every_small_accepted_matrix",
    ),
    Mutant(
        "_alpha_block writes ok for rows below dimension 1",
        "src/baryzeros/cli.py",
        '(d, c, None, None, None, None, "skipped")',
        '(d, c, None, None, None, None, "ok")',
        "tests/test_cli.py::test_alpha_single_low_dimension_is_skipped",
    ),
    Mutant(
        "_sieve_limit rejects the cap itself",
        "src/baryzeros/cli.py",
        "if not (least <= value <= limit):",
        "if not (least <= value < limit):",
        "tests/test_cli.py::test_every_sieve_sized_option_has_one_cap",
    ),
    Mutant(
        "_eigenvector_failures compares against d! instead of (d+1)!",
        "src/baryzeros/checks.py",
        "scaled = tuple(math.factorial(d + 1) * x for x in numerators)",
        "scaled = tuple(math.factorial(d) * x for x in numerators)",
        "tests/test_cli.py::test_verify_bytes[core]",
    ),
    Mutant(
        "explicit-subdivision-vs-transfer compares the dimension with itself",
        "src/baryzeros/checks.py",
        "if fv.dim != orbit[0].dim:",
        "if fv.dim != fv.dim:",
        "tests/test_cli.py::test_guard_checks_can_fail[explicit-subdivision-vs-transfer-dimension]",
    ),
    Mutant(
        "_running_sums drops the carry between blocks",
        "src/baryzeros/complexes.py",
        "carry += int.from_bytes(sums[-2:], \"little\") - (1 << 15)",
        "carry = 0",
        "tests/test_complexes.py::test_sieve_against_linear_sieve",
    ),
    Mutant(
        "build_sieve's large-prime passes skip m = 1",
        "src/baryzeros/complexes.py",
        "weights[2:] = raw[2:].translate(_ZERO_TO_ONE)",
        "weights[2:] = raw[2:]",
        "tests/test_complexes.py::test_sieve_mobius_against_trial_division",
    ),
    Mutant(
        "euler-equals-minus-mertens' face table built from (-1)^w",
        "src/baryzeros/checks.py",
        "step = {w: (-1) ** (w + 1) for w in range(dim_of(MERTENS_LIMIT) + 2)}",
        "step = {w: (-1) ** w for w in range(dim_of(MERTENS_LIMIT) + 2)}",
        "tests/test_cli.py::test_verify_bytes[complex]",
    ),
    Mutant(
        "_running_sums starts its carry at 0, so slot 0's term is kept",
        "src/baryzeros/complexes.py",
        "carry = 1",
        "carry = 0",
        "tests/test_complexes.py::test_sieve_against_linear_sieve",
    ),
    Mutant(
        "_TERM_PLUS_ONE maps the squareful mark to the term -1",
        "src/baryzeros/complexes.py",
        'for w in range(0xFF)) + b"\\1"',
        'for w in range(0xFF)) + b"\\0"',
        "tests/test_complexes.py::test_sieve_bytes_at_a_million",
    ),
    Mutant(
        "_Parser.error falls back to argparse's usage and error",
        "src/baryzeros/cli.py",
        'self.exit(2, f"error: {message}\\n")',
        "super().error(message)",
        "tests/test_cli.py::test_usage_errors_are_one_line",
    ),
    Mutant(
        "AlphaRecord.alpha ignores the top face count",
        "src/baryzeros/dynamics.py",
        "return Fraction(*alpha_fields(self.dim, self.chi, self.f_top)[:2])",
        "return Fraction(*alpha_fields(self.dim, self.chi, 1)[:2])",
        "tests/test_dynamics.py::test_alpha_record_invariants",
    ),
    Mutant(
        "main no longer turns a ValueError into an error line",
        "src/baryzeros/cli.py",
        "CliError, ValueError, OSError,",
        "CliError, OSError,",
        "tests/test_cli.py::test_cli_contract",
    ),
    Mutant(
        "zeros rejects the depth cap itself",
        "src/baryzeros/cli.py",
        "if not (0 <= args.k <= MAX_SUBDIVISION_DEPTH):",
        "if not (0 <= args.k < MAX_SUBDIVISION_DEPTH):",
        "tests/test_cli.py::test_zeros_accepts_the_depth_cap",
    ),
    Mutant(
        "trajectory-dim1-convergence tests rho_0 for realness",
        "src/baryzeros/checks.py",
        "        if entry.rootset.roots[-1].y:\n            yield f\"k={k}: largest root not certified real\"",
        "        if entry.rootset.roots[0].y:\n            yield f\"k={k}: largest root not certified real\"",
        "tests/test_cli.py::test_guard_checks_can_fail[trajectory-dim1-convergence-rho_inf_real]",
    ),
    Mutant(
        "_sieve_limit ignores the option's least value",
        "src/baryzeros/cli.py",
        "if not (least <= value <= limit):",
        "if not (1 <= value <= limit):",
        "tests/test_cli.py::test_range_errors_exit_2",
    ),
    Mutant(
        "find_roots rejects the precision floor itself",
        "src/baryzeros/rootfinding.py",
        "if precision_bits < MIN_PRECISION_BITS:",
        "if precision_bits <= MIN_PRECISION_BITS:",
        "tests/test_rootfinding.py::test_precision_floor_respected",
    ),
    Mutant(
        "zeros rejects the precision floor itself",
        "src/baryzeros/cli.py",
        "if not (MIN_PRECISION_BITS <= bits <= MAX_PRECISION_BITS):",
        "if not (MIN_PRECISION_BITS < bits <= MAX_PRECISION_BITS):",
        "tests/test_cli.py::test_zeros_rows_use_the_requested_precision",
    ),
    Mutant(
        "trajectory's limit takes f_{d-1} as its top face count",
        "src/baryzeros/dynamics.py",
        "limit = AlphaRecord(n, d, fv.euler_char(), fv.count(d))",
        "limit = AlphaRecord(n, d, fv.euler_char(), fv.count(d - 1))",
        "tests/test_dynamics.py::test_trajectory_structure",
    ),
    Mutant(
        "DIM1_START one past the first n of dimension 1",
        "src/baryzeros/complexes.py",
        "DIM1_START = _PRIMORIALS[2]",
        "DIM1_START = _PRIMORIALS[2] + 1",
        "tests/test_dynamics.py::test_alpha_scan_runs_tile_the_range[6]",
    ),
    Mutant(
        "zeros' metadata reads chi from the top face count",
        "src/baryzeros/cli.py",
        '"chi": run.limit.chi,',
        '"chi": run.limit.f_top,',
        "tests/test_cli.py::test_zeros_metadata_is_the_alpha_row",
    ),
    Mutant(
        "growth-expansion-exact compares Q_0 with the f-side eigen weights",
        "src/baryzeros/checks.py",
        "if q[0] != tuple(f_top * c for c in limit_h_coefficients(d)):",
        "if q[0] != tuple(f_top * c for c in eigen_rationals(d)):",
        "tests/test_acceptance.py::test_verify_check[growth-expansion-exact]",
    ),
    Mutant(
        "growth-expansion-exact checks the constant term of Q_d only",
        "src/baryzeros/checks.py",
        "for j, row in enumerate(q):",
        "for j, row in enumerate(q[d:], d):",
        "tests/test_cli.py::test_guard_checks_can_fail[growth-expansion-exact-constant]",
    ),
    Mutant(
        "growth-expansion-exact takes alpha from the rows it checks",
        "src/baryzeros/checks.py",
        "Fraction(*alpha_fields(d, chi, f_top)[:2]) * q[0][-2]",
        "(-1) ** d * q[d][-1] / q[0][-2] * q[0][-2]",
        "tests/test_cli.py::test_guard_checks_can_fail[growth-expansion-exact-alpha]",
    ),
    Mutant(
        "growth-expansion-exact drops f_top from Q_0",
        "src/baryzeros/checks.py",
        "if q[0] != tuple(f_top * c for c in limit_h_coefficients(d)):",
        "if q[0] != tuple(limit_h_coefficients(d)):",
        "tests/test_acceptance.py::test_verify_check[growth-expansion-exact]",
    ),
    Mutant(
        "growth-expansion-exact reads alpha with f_top = 1",
        "src/baryzeros/checks.py",
        "alpha_fields(d, chi, f_top)",
        "alpha_fields(d, chi, 1)",
        "tests/test_acceptance.py::test_verify_check[growth-expansion-exact]",
    ),
    Mutant(
        "the package root imports the root finder eagerly again",
        "src/baryzeros/__init__.py",
        '__version__ = "0.1.0"\n',
        'from .rootfinding import RootFindingError, RootSet, find_roots\n\n__version__ = "0.1.0"\n',
        "tests/test_cli.py::test_commands_load_only_what_they_run[chi]",
    ),
    Mutant(
        "run leaves a failed stdout flush to the interpreter's exit",
        "src/baryzeros/cli.py",
        "        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())\n",
        "        pass\n",
        "tests/test_cli.py::test_full_stdout_is_one_error_line[chi]",
    ),
    Mutant(
        "find_roots admits a polynomial with a repeated root",
        "src/baryzeros/rootfinding.py",
        "        if len(seq[-1]) > 1:\n"
        '            raise ValueError("root finding needs a squarefree polynomial: a nonzero root is repeated")\n',
        "",
        "tests/test_rootfinding.py::test_repeated_root_is_one_error",
    ),
    Mutant(
        "RootSet.method's condition inverted",
        "src/baryzeros/rootfinding.py",
        'return "enclosed" if any(z.y for z in self.roots) else "isolated"',
        'return "enclosed" if not any(z.y for z in self.roots) else "isolated"',
        "tests/test_rootfinding.py::test_complex_pair_not_certified_real",
    ),
    Mutant(
        "run leaves argparse's --help output to the interpreter's exit",
        "src/baryzeros/cli.py",
        "    try:\n"
        "        code, ended = main(), True\n"
        "    except SystemExit as exc:\n"
        "        # argparse leaves main here after --help or a usage error, its text\n"
        "        # still in stdout's buffer: a failed write of it is this command's\n"
        "        # error.\n"
        "        code, ended = exc.code, False\n",
        "    code, ended = main(), True\n",
        "tests/test_cli.py::test_full_stdout_is_one_error_line[help]",
    ),
    Mutant(
        "run reports --help's closed pipe as an error",
        "src/baryzeros/cli.py",
        "if not (ended or isinstance(exc, BrokenPipeError)):",
        "if not ended:",
        "tests/test_cli.py::test_run_ends_a_failed_flush_once[help-closed-pipe]",
    ),
]


def _copy(into: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", into)


def _passes(tree: Path, test: str) -> bool:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test]
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True)
    return done.returncode == 0


def main() -> int:
    problems = 0
    with tempfile.TemporaryDirectory() as scratch:
        clean = Path(scratch) / "clean"
        _copy(clean)
        for test in dict.fromkeys(m.test for m in MUTANTS):
            if not _passes(clean, test):
                print(f"mutants: FAILS UNMUTATED {test}")
                problems += 1
        for index, mutant in enumerate(MUTANTS):
            tree = Path(scratch) / f"mutant{index}"
            _copy(tree)
            target = tree / mutant.path
            text = target.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                print(f"mutants: OLD TEXT FOUND {text.count(mutant.old)} TIMES: {mutant.what}")
                problems += 1
                continue
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            survived = _passes(tree, mutant.test)
            problems += survived
            status = "SURVIVED" if survived else "killed"
            print(f"mutants: {status}: {mutant.what} ({mutant.test})")
            shutil.rmtree(tree)
    print(f"mutants: {len(MUTANTS)} listed, {problems} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
