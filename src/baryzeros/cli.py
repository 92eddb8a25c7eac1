"""Command line front end.

Subcommands reproduce the reference tables (``tables``), scan Euler
characteristics against the Mertens function (``chi``), emit exact
scaling limits (``alpha``), follow root trajectories under repeated
subdivision (``zeros``) and run the invariant suites (``verify``).

Output is deterministic: identical invocations produce byte-identical
bytes.  Rationals render canonically as ``p/q`` with positive reduced
denominator; arbitrary-precision values render with a digit count tied
to the working precision, which is itself recorded in the row.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import sys
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Sequence, TextIO

import mpmath as mp

from . import __version__
from .checks import run_suite
from .complexes import (
    DEFAULT_SIEVE_LIMIT,
    ResourceLimitError,
    chi_profile,
    dim_of,
    dimension_runs,
    mertens,
    shared_sieve,
)
from .dynamics import DEFAULT_TRAJECTORY_PRECISION, alpha, alpha_scan, trajectory
from .rootfinding import RootFindingError
from .subdivision import (
    descent_matrix,
    eigen_rationals,
    limit_h_coefficients,
    transfer_matrix,
)

SIEVE_LIMIT_ENV = "BARYZEROS_SIEVE_LIMIT"
MAX_TABLE_DIM = 16
MAX_PRECISION_BITS = 8192
SUMMARY_DIGITS = 20


class CliError(Exception):
    """A user-facing invocation problem (bad range, bad environment)."""


def _sieve_limit() -> int:
    raw = os.environ.get(SIEVE_LIMIT_ENV)
    if raw is None:
        return DEFAULT_SIEVE_LIMIT
    try:
        value = int(raw)
    except ValueError:
        raise CliError(f"{SIEVE_LIMIT_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise CliError(f"{SIEVE_LIMIT_ENV} must be positive, got {value}")
    return value


def _digits(bits: int) -> int:
    return max(8, int(bits * 0.30103) + 1)


# ---------------------------------------------------------------------------
# output
#
# Rows stream to the open handle one at a time; every check a command
# makes runs before its first byte goes out, so a rejected command writes
# nothing and creates no --out file.


@contextlib.contextmanager
def _output(out: str | None) -> Iterator[TextIO]:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            yield handle
    else:
        yield sys.stdout


def _spell_flags(row: Sequence) -> list:
    return [("true" if v else "false") if type(v) is bool else v for v in row]


def _write_csv(handle: TextIO, header: list[str], rows: Iterable) -> None:
    """csv.writer rows: None is an empty cell, a boolean reads true/false.

    Each column holds one type in every row, so the first row tells
    whether any cell is a boolean; only such a table is spelled cell by
    cell, and the long scans go to csv.writer as they are.
    """
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return
    rows = chain([first], rows)
    writer.writerows(map(_spell_flags, rows) if bool in map(type, first) else rows)


_JSON_VALUE = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}


def _write_json(
    handle: TextIO, command: str, metadata: dict, header: list[str], rows: Iterable
) -> None:
    """The bytes of json.dumps(payload, indent=2) + "\n", written row by row.

    The envelope comes from json.dumps with an empty row list; each row is
    its pre-encoded keys joined to its values, encoded as json.dumps does
    with ensure_ascii (str, int, bool and None are the types rows hold).
    """
    payload = {"command": command, "format": "json", "metadata": metadata, "rows": []}
    head = json.dumps(payload, indent=2)
    handle.write(head[: -len("[]\n}")] + "[")
    keys = [f',\n      {encode_basestring_ascii(key)}: ' for key in header]
    keys[0] = keys[0][1:]
    separator = "\n    {"
    for row in rows:
        fields = "".join([k + _JSON_VALUE[type(v)](v) for k, v in zip(keys, row)])
        handle.write(separator + fields + "\n    }")
        separator = ",\n    {"
    # json.dumps closes an empty list at once and a full one on its own line
    handle.write("]\n}\n" if separator == "\n    {" else "\n  ]\n}\n")


def _emit_table(args, command: str, metadata: dict, header: list[str], rows: Iterable) -> None:
    with _output(args.out) as handle:
        if args.format == "json":
            metadata = {"version": __version__, **metadata}
            _write_json(handle, command, metadata, header, rows)
        else:
            _write_csv(handle, header, rows)


# ---------------------------------------------------------------------------
# subcommands


def _tables_payload(kind: str, max_d: int) -> tuple[list[str], list[list]]:
    if kind == "f":
        header = ["i"] + [f"d={d}" for d in range(-1, max_d + 1)]
        matrix = transfer_matrix(max_d)
        rows = [
            [i] + [matrix.entry(i, d) for d in range(-1, max_d + 1)]
            for i in range(-1, max_d + 1)
        ]
    elif kind == "F":
        header = ["i"] + [f"d={d}" for d in range(-1, max_d + 1)]
        columns = {d: eigen_rationals(d) for d in range(-1, max_d + 1)}
        rows = []
        for i in range(-1, max_d + 1):
            row: list = [i]
            for d in range(-1, max_d + 1):
                row.append(str(columns[d][i + 1]) if i <= d else None)
            rows.append(row)
    elif kind == "H":
        header = ["i"] + [f"d={d}" for d in range(0, max_d + 1)]
        columns = {d: limit_h_coefficients(d) for d in range(0, max_d + 1)}
        rows = []
        for i in range(0, max_d + 2):
            row = [i]
            for d in range(0, max_d + 1):
                row.append(str(columns[d][i]) if i <= d + 1 else None)
            rows.append(row)
    else:
        header = ["d", "i", "j", "value"]
        rows = []
        for d in range(0, max_d + 1):
            matrix = descent_matrix(d)
            for i in range(-1, d + 1):
                for j in range(-1, d + 1):
                    rows.append([d, i, j, matrix.entry(i, j)])
    return header, rows


def _cmd_tables(args) -> int:
    if not (0 <= args.max_d <= MAX_TABLE_DIM):
        raise CliError(f"--max-d must be between 0 and {MAX_TABLE_DIM}")
    header, rows = _tables_payload(args.kind, args.max_d)
    _emit_table(args, "tables", {"kind": args.kind, "max_d": args.max_d}, header, rows)
    return 0


def _cmd_chi(args) -> int:
    limit = _sieve_limit()
    if not (1 <= args.start <= args.stop):
        raise CliError("need 1 <= --from <= --to")
    if args.stop > limit:
        raise CliError(f"--to {args.stop} exceeds the sieve limit {limit}")
    chi, mm = chi_profile(args.stop)
    header = ["n", "chi", "mertens", "dim"]
    dims = chain.from_iterable(
        repeat(d, hi - lo) for d, lo, hi in dimension_runs(args.start, args.stop + 1)
    )
    ns = range(args.start, args.stop + 1)
    rows = zip(ns, chi[args.start :], mm[args.start :], dims)
    _emit_table(
        args,
        "chi",
        {"from": args.start, "to": args.stop, "sieve_limit": limit},
        header,
        rows,
    )
    return 0


_ALPHA_HEADER = ["n", "dim", "chi", "f_top", "h1", "alpha", "exponent", "status"]


@functools.cache
def _h1_text(d: int) -> str:
    return str(eigen_rationals(d)[1])


def _alpha_row(rec) -> list:
    """A record's row from its integers: alpha renders as Fraction does."""
    n, d, chi, f_top, num, den, exponent = rec
    return [
        n,
        d,
        chi,
        f_top,
        _h1_text(d),
        f"{num}/{den}" if den != 1 else str(num),
        None if exponent is None else repr(exponent),
        "ok",
    ]


def _skipped_alpha_row(n: int) -> list:
    return [n, dim_of(n), -mertens(n), None, None, None, None, "skipped"]


def _cmd_alpha(args) -> int:
    limit = _sieve_limit()
    metadata: dict = {"sieve_limit": limit}
    if args.n is not None:
        if not (1 <= args.n <= limit):
            raise CliError(f"--n must be between 1 and the sieve limit {limit}")
        if dim_of(args.n) < 1:
            rows = [_skipped_alpha_row(args.n)]
        else:
            rows = [_alpha_row(alpha(args.n))]
        metadata["n"] = args.n
    else:
        if not (1 <= args.stop <= limit):
            raise CliError(f"--to must be between 1 and the sieve limit {limit}")
        # The skipped rows read the sieve lazily; build it (or fail its
        # budget) before the first byte.
        shared_sieve(args.stop)
        records = alpha_scan(args.stop) if args.stop >= 6 else []
        skipped = range(1, min(args.stop, 5) + 1)
        rows = chain(map(_skipped_alpha_row, skipped), map(_alpha_row, records))
        metadata["to"] = args.stop
    _emit_table(args, "alpha", metadata, _ALPHA_HEADER, rows)
    return 0


def _cmd_zeros(args) -> int:
    limit = _sieve_limit()
    if not (1 <= args.n <= limit):
        raise CliError(f"--n must be between 1 and the sieve limit {limit}")
    if args.precision_bits < 16:
        raise CliError("--precision-bits must be at least 16")
    if args.precision_bits > MAX_PRECISION_BITS:
        raise CliError(f"--precision-bits must be at most {MAX_PRECISION_BITS}")
    run = trajectory(args.n, args.k, precision_bits=args.precision_bits)
    header = [
        "k",
        "precision_bits",
        "rho_0",
        "rho_inf",
        "ratio_inf",
        "scaled_rho0",
        "rho_inf_real",
        "ambiguous",
        "sum_rel_err",
        "prod_rel_err",
        "max_residual",
        "interior",
        "roots",
    ]
    rows = []
    for entry in run.entries:
        digits = _digits(entry.precision_bits)
        with mp.workprec(entry.precision_bits):
            rows.append(
                [
                    entry.k,
                    entry.precision_bits,
                    mp.nstr(entry.rho_0, digits),
                    mp.nstr(entry.rho_inf, digits),
                    mp.nstr(entry.ratio_inf, SUMMARY_DIGITS),
                    mp.nstr(entry.scaled_rho0, SUMMARY_DIGITS),
                    bool(entry.rho_inf_real),
                    bool(entry.ambiguous),
                    mp.nstr(entry.sum_rel_err, SUMMARY_DIGITS),
                    mp.nstr(entry.prod_rel_err, SUMMARY_DIGITS),
                    mp.nstr(max(entry.residuals), SUMMARY_DIGITS),
                    ";".join(mp.nstr(z, digits) for z in entry.interior),
                    ";".join(mp.nstr(z, digits) for z in entry.roots),
                ]
            )
    metadata = {
        "n": args.n,
        "dim": run.dim,
        "k_max": args.k,
        "requested_precision_bits": args.precision_bits,
        "h1": str(run.h1),
        "f_top": run.f_top,
        "chi": run.chi,
    }
    _emit_table(args, "zeros", metadata, header, rows)
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite)
    lines = []
    failed = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        if not result.passed:
            failed += 1
        suffix = f": {result.detail}" if result.detail else ""
        lines.append(f"{status} {result.name}{suffix}")
    lines.append(f"{len(results) - failed} passed, {failed} failed")
    with _output(args.out) as handle:
        handle.write("\n".join(lines) + "\n")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=["csv", "json"], default="csv", help="output format"
    )
    parser.add_argument("--out", help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="baryzeros",
        description="Exact subdivision combinatorics of squarefree-divisor "
        "complexes and the zeros of their h-polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tables = sub.add_parser("tables", help="emit the exact coefficient tables")
    tables.add_argument(
        "--kind",
        required=True,
        choices=["f", "F", "H", "Hmatrix"],
        help="which table: subdivision counts, eigenvector weights, "
        "limit h-coefficients, or the descent matrices",
    )
    tables.add_argument(
        "--max-d", dest="max_d", type=int, required=True, help="largest dimension"
    )
    _add_output_options(tables)

    chi = sub.add_parser("chi", help="Euler characteristics against Mertens values")
    chi.add_argument("--from", dest="start", type=int, default=1, help="first n")
    chi.add_argument("--to", dest="stop", type=int, required=True, help="last n")
    _add_output_options(chi)

    alpha_parser = sub.add_parser("alpha", help="exact scaling limits of the smallest zero")
    target = alpha_parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--n", type=int, help="single n")
    target.add_argument("--to", dest="stop", type=int, help="all n up to this bound")
    _add_output_options(alpha_parser)

    zeros = sub.add_parser("zeros", help="root trajectories under repeated subdivision")
    zeros.add_argument("--n", type=int, required=True, help="complex index n")
    zeros.add_argument("--k", type=int, required=True, help="largest subdivision depth")
    zeros.add_argument(
        "--precision-bits",
        dest="precision_bits",
        type=int,
        default=DEFAULT_TRAJECTORY_PRECISION,
        help=f"working precision floor in bits, 16 to {MAX_PRECISION_BITS}",
    )
    _add_output_options(zeros)

    verify = sub.add_parser("verify", help="run the invariant suites")
    verify.add_argument(
        "--suite",
        choices=["all", "core", "complex", "zeros"],
        default="all",
        help="which suite to run",
    )
    verify.add_argument("--out", help="write the report to this file")
    return parser


_DISPATCH = {
    "tables": _cmd_tables,
    "chi": _cmd_chi,
    "alpha": _cmd_alpha,
    "zeros": _cmd_zeros,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _DISPATCH[args.command](args)
        sys.stdout.flush()
        return code
    except (CliError, ValueError, OSError, ResourceLimitError, RootFindingError) as exc:
        if isinstance(exc, BrokenPipeError) and not args.out:
            # The reader of stdout has gone (``| head``): stop quietly, and
            # point stdout at devnull so the flush at exit cannot fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
