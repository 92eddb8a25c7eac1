"""Command line front end.

Subcommands reproduce the reference tables (``tables``), scan Euler
characteristics against the Mertens function (``chi``), emit exact
scaling limits (``alpha``), follow root trajectories under repeated
subdivision (``zeros``) and run the invariant suites (``verify``).

Output is deterministic: identical invocations produce byte-identical
bytes.  Rationals render canonically as ``p/q`` with positive reduced
denominator; arbitrary-precision values render with a digit count tied
to the working precision, which is itself recorded in the row, in the
decimal form of ``rootfinding.format_decimal``.

A command loads only what it runs: ``verify`` imports the suites
(``checks``) when it starts, and no other command does; only ``zeros``
and the zeros suite of ``verify`` solve a polynomial, so only they load
the root finder (``rootfinding``); the CSV writer imports ``csv`` and the
JSON writer ``json``.

``main`` runs one command and returns its exit code; the tests and the
tools call it in-process.  ``run`` is the process entry of both
``python -m baryzeros`` and the ``baryzeros`` script: it calls ``main``
and ends the process with its code, and it alone touches the process's
stdout descriptor.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import os
import sys
from itertools import chain, islice, starmap, takewhile, zip_longest
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from . import __version__
from .complexes import DIM1_START, chi_profile, dimension_runs
from .dynamics import (
    DEFAULT_TRAJECTORY_PRECISION,
    MAX_SUBDIVISION_DEPTH,
    MIN_PRECISION_BITS,
    alpha,
    alpha_fields,
    alpha_scan,
    trajectory,
)
from .subdivision import (
    descent_matrix,
    eigen_rationals,
    limit_h_coefficients,
    transfer_matrix,
)

DEFAULT_SIEVE_LIMIT = 10**6
SIEVE_LIMIT_ENV = "BARYZEROS_SIEVE_LIMIT"
MAX_TABLE_DIM = 16
MAX_PRECISION_BITS = 8192
SUMMARY_DIGITS = 20


class CliError(Exception):
    """A user-facing invocation problem (bad range, bad environment)."""


def _sieve_limit(option: str, value: int, least: int) -> int:
    """The sieve cap, from the environment or the default, once least <=
    --option's value <= cap is checked; every sieve-sized option reads it here."""
    raw = os.environ.get(SIEVE_LIMIT_ENV)
    try:
        limit = DEFAULT_SIEVE_LIMIT if raw is None else int(raw)
    except ValueError:
        raise CliError(f"{SIEVE_LIMIT_ENV} must be an integer, got {raw!r}") from None
    if limit < 1:
        raise CliError(f"{SIEVE_LIMIT_ENV} must be positive, got {limit}")
    if not (least <= value <= limit):
        raise CliError(f"--{option} must be between {least} and the sieve limit {limit}")
    return limit


def _digits(bits: int) -> int:
    return max(8, int(bits * 0.30103) + 1)


# ---------------------------------------------------------------------------
# output
#
# Rows stream to the open handle in batches; every check a command makes
# runs before its first byte goes out, so a rejected command writes
# nothing and creates no --out file.
#
# Rows reach a writer in blocks (firsts, keys, tail): a run of first
# cells, one key per first cell, and the block's tail, where tail(key)
# gives the cells after the first.  A scan's rows repeat a few thousand
# tails over hundreds of thousands of n, so each block renders the text
# after the first cell once per distinct key, on the key's first row, and
# each batch of up to _BATCH_ROWS rows is one %-format of a repeated row
# template over (first cell, text) pairs.  Every table keeps to one
# contract: the first cell is an int (n, k, i or d) and renders as %d
# does, and each column holds one type in every row.  So chi keys on chi
# and alpha on chi within a run of one (dim, f_top), the fields their
# tails are derived from, and every other table on the tail itself: True
# == 1 as a dict key, but no column holds both.
#
# 512 rows keep a batch of the widest table, alpha as JSON at about 194
# bytes a row, near 97 KiB: under glibc's default 128 KiB mmap threshold,
# so a batch string reuses heap pages instead of faulting in a fresh map.

_BATCH_ROWS = 512


def _output(out: str | None) -> contextlib.AbstractContextManager[TextIO]:
    if out is None:
        return contextlib.nullcontext(sys.stdout)
    return open(out, "w", encoding="utf-8", newline="")


class _Texts(dict):
    """render(key) by key, each rendered on its first lookup."""

    def __init__(self, render: Callable):
        self.render = render

    def __missing__(self, key):
        text = self[key] = self.render(key)
        return text


def _row_batches(blocks: Iterable[tuple], lead: str, tail_text: Callable) -> Iterator[str]:
    """lead + str(first) + tail_text(tail(key)) per row.  tail_text runs
    once per distinct key of each block, and each batch of up to
    _BATCH_ROWS rows of a block is one string, formatted by one % in C.
    keys may be any iterable; each batch reads its share in order."""
    row = lead.replace("%", "%%") + "%d%s"
    for firsts, keys, tail in blocks:
        texts = _Texts(lambda key: tail_text(tail(key)))
        keys = iter(keys)
        for at in range(0, len(firsts), _BATCH_ROWS):
            part = firsts[at : at + _BATCH_ROWS]
            # interleaved by slice assignment: faster than chaining zip pairs
            cells = [None] * (2 * len(part))
            cells[::2] = part
            cells[1::2] = map(texts.__getitem__, islice(keys, len(part)))
            yield row * len(part) % tuple(cells)


def _write_csv(handle: TextIO, header: list[str], blocks: Iterable) -> None:
    """csv.writer rows: None is an empty cell, a boolean reads true/false.

    A field's quoting depends on the row only when it is the row's one
    field, so a tail renders beside a placeholder first cell.
    """
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")

    def line(cells: Sequence) -> str:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow([("true" if v else "false") if type(v) is bool else v for v in cells])
        return buffer.getvalue()

    def tail_text(cells: Sequence) -> str:
        return line([0, *cells])[1:]

    handle.write(line(header))
    handle.writelines(_row_batches(blocks, "", tail_text))


def _write_json(
    handle: TextIO, command: str, metadata: dict, header: list[str], blocks: Iterable
) -> None:
    """The bytes of json.dumps(payload, indent=2) + "\n", written in batches.

    The envelope comes from json.dumps with an empty row list; each row is
    its pre-encoded keys joined to its values, encoded as json.dumps does
    with ensure_ascii (str, int, bool and None are the types rows hold).
    """
    import json
    from json.encoder import encode_basestring_ascii

    json_value = {
        str: encode_basestring_ascii,
        int: int.__repr__,
        bool: lambda v: "true" if v else "false",
        type(None): lambda v: "null",
    }
    payload = {"command": command, "format": "json", "metadata": metadata, "rows": []}
    head = json.dumps(payload, indent=2)
    handle.write(head[: -len("[]\n}")] + "[")
    keys = [f',\n      {encode_basestring_ascii(key)}: ' for key in header]

    def tail_text(cells: Sequence) -> str:
        return "".join([k + json_value[type(v)](v) for k, v in zip(keys[1:], cells)]) + "\n    }"

    batches = _row_batches(blocks, ",\n    {" + keys[0][1:], tail_text)
    first = next(batches, None)
    if first is None:
        # json.dumps closes an empty list at once and a full one on its own line
        handle.write("]\n}\n")
        return
    handle.write(first[1:])  # the first row takes no comma
    handle.writelines(batches)
    handle.write("\n  ]\n}\n")


def _emit_table(args, command: str, metadata: dict, header: list[str], blocks: Iterable) -> None:
    with _output(args.out) as handle:
        if args.format == "json":
            metadata = {"version": __version__, **metadata}
            _write_json(handle, command, metadata, header, blocks)
        else:
            _write_csv(handle, header, blocks)


# ---------------------------------------------------------------------------
# subcommands


def _tables_payload(kind: str, max_d: int) -> tuple[list[str], Sequence[int], list[tuple]]:
    """The header, first cells and tails of a table.  f, F and H read one
    column per d row by row, a short column giving empty cells; Hmatrix
    has one (d, i, j, value) row per descent_matrix(d) entry."""
    if kind == "Hmatrix":
        firsts, tails = [], []
        for d in range(0, max_d + 1):
            rows = enumerate(descent_matrix(d).rows, -1)
            tails += [(i, j, value) for i, row in rows for j, value in enumerate(row, -1)]
            firsts += [d] * (d + 2) ** 2
        return ["d", "i", "j", "value"], firsts, tails
    low = 0 if kind == "H" else -1
    dims = range(low, max_d + 1)
    if kind == "f":
        columns = zip(*transfer_matrix(max_d).rows)
    else:
        values = eigen_rationals if kind == "F" else limit_h_coefficients
        columns = [map(str, values(d)) for d in dims]
    tails = list(zip_longest(*columns))
    return ["i", *(f"d={d}" for d in dims)], range(low, low + len(tails)), tails


def _cmd_tables(args) -> int:
    if not (0 <= args.max_d <= MAX_TABLE_DIM):
        raise CliError(f"--max-d must be between 0 and {MAX_TABLE_DIM}")
    header, firsts, tails = _tables_payload(args.kind, args.max_d)
    metadata = {"kind": args.kind, "max_d": args.max_d}
    _emit_table(args, "tables", metadata, header, [(firsts, tails, tuple)])
    return 0


def _cmd_chi(args) -> int:
    if not (1 <= args.start <= args.stop):
        raise CliError("need 1 <= --from <= --to")
    limit = _sieve_limit("to", args.stop, 1)
    chi = chi_profile(args.stop)
    # one block per dimension run, keyed on chi; the Mertens value is -chi
    blocks = (
        (range(lo, hi), chi[lo:hi], lambda c, d=d: (c, -c, d))
        for d, lo, hi in dimension_runs(args.start, args.stop + 1)
    )
    _emit_table(
        args,
        "chi",
        {"from": args.start, "to": args.stop, "sieve_limit": limit},
        ["n", "chi", "mertens", "dim"],
        blocks,
    )
    return 0


_ALPHA_HEADER = ["n", "dim", "chi", "f_top", "h1", "alpha", "exponent", "status"]


def _alpha_block(d: int, f_top: int | None, lo: int, chi: Sequence[int]) -> tuple:
    """The block of a run of rows lo .. lo + len(chi) - 1 of dimension d
    and top face count f_top, keyed on chi.  f_top None marks rows below
    dimension 1; h1 renders once per run, and alpha as Fraction does."""
    if f_top is None:
        return range(lo, lo + len(chi)), chi, lambda c: (d, c, None, None, None, None, "skipped")
    h1 = str(eigen_rationals(d)[1])

    def tail(c: int) -> tuple:
        num, den, exponent = alpha_fields(d, c, f_top)
        text = f"{num}/{den}" if den != 1 else str(num)
        return d, c, f_top, h1, text, None if exponent is None else repr(exponent), "ok"

    return range(lo, lo + len(chi)), chi, tail


def _cmd_alpha(args) -> int:
    option, stop = ("n", args.n) if args.n is not None else ("to", args.stop)
    limit = _sieve_limit(option, stop, 1)
    first = stop if option == "n" else 1
    # the runs below dimension 1 from first to stop; takewhile reads no
    # dimension past them, so an --n past the primorials fails here
    low = list(takewhile(lambda run: run[0] < 1, dimension_runs(first, stop + 1)))
    # builds the sieve, or fails its budget, before the first byte
    chi = chi_profile(stop)
    if stop < DIM1_START:
        high = ()
    elif option == "to":
        high = alpha_scan(stop).runs
    else:
        record = alpha(stop)
        high = [(record.dim, record.f_top, stop, [record.chi])]
    runs = chain([(d, None, lo, chi[lo:hi]) for d, lo, hi in low], high)
    metadata = {"sieve_limit": limit, option: stop}
    _emit_table(args, "alpha", metadata, _ALPHA_HEADER, starmap(_alpha_block, runs))
    return 0


def _cmd_zeros(args) -> int:
    _sieve_limit("n", args.n, DIM1_START)
    bits = args.precision_bits
    if not (MIN_PRECISION_BITS <= bits <= MAX_PRECISION_BITS):
        raise CliError(
            f"--precision-bits must be between {MIN_PRECISION_BITS} and {MAX_PRECISION_BITS}"
        )
    if not (0 <= args.k <= MAX_SUBDIVISION_DEPTH):
        raise CliError(f"--k must be between 0 and {MAX_SUBDIVISION_DEPTH}")
    run = trajectory(args.n, range(args.k + 1), bits)
    # trajectory has loaded rootfinding: a rejected command never compiles it
    from .rootfinding import format_decimal

    digits = _digits(bits)
    rows = []
    for entry in run.entries:
        # rootset.roots is rho_0, the interior roots, then rho_inf
        texts = [format_decimal(z, digits, bits) for z in entry.rootset.roots]
        rows.append({
            "precision_bits": bits,
            "rho_0": texts[0],
            "rho_inf": texts[-1],
            "ratio_inf": format_decimal(entry.ratio_inf, SUMMARY_DIGITS, bits),
            "scaled_rho0": format_decimal(entry.scaled_rho0, SUMMARY_DIGITS, bits),
            "rho_inf_real": entry.rootset.roots[-1].y == 0,
            "ambiguous": entry.ambiguous,
            "sum_rel_err": format_decimal(entry.sum_rel_err, SUMMARY_DIGITS, bits),
            "prod_rel_err": format_decimal(entry.prod_rel_err, SUMMARY_DIGITS, bits),
            "max_residual": format_decimal(max(entry.rootset.residuals), SUMMARY_DIGITS, bits),
            "interior": ";".join(texts[1:-1]),
            "roots": ";".join(texts),
        })
    metadata = {
        "n": args.n,
        "dim": run.limit.dim,
        "k_max": args.k,
        "requested_precision_bits": bits,
        "h1": str(run.limit.h1),
        "f_top": run.limit.f_top,
        "chi": run.limit.chi,
    }
    tails = [tuple(row.values()) for row in rows]
    blocks = [([entry.k for entry in run.entries], tails, tuple)]
    _emit_table(args, "zeros", metadata, ["k", *rows[0]], blocks)
    return 0


def _cmd_verify(args) -> int:
    from .checks import run_suite

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


class _Parser(argparse.ArgumentParser):
    "argparse with its usage errors on one line, as every other error: exit 2."

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=["csv", "json"], default="csv", help="output format"
    )
    parser.add_argument("--out", help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        help=f"working precision of every row in bits, {MIN_PRECISION_BITS} to {MAX_PRECISION_BITS}",
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
    # RuntimeError is the base of ConsistencyError, ResourceLimitError and
    # RootFindingError
    except (CliError, ValueError, OSError, RuntimeError) as exc:
        if isinstance(exc, BrokenPipeError) and args.out is None:
            # The reader of stdout has gone (``| head``): stop quietly.
            return 0
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    "The process entry: run the command line in sys.argv and exit with its code."
    try:
        code, ended = main(), True
    except SystemExit as exc:
        # argparse leaves main here after --help or a usage error, its text
        # still in stdout's buffer: a failed write of it is this command's
        # error.
        code, ended = exc.code, False
    try:
        sys.stdout.flush()
    except OSError as exc:
        # A write to stdout failed: its reader has gone, which ends a
        # command quietly, or its device is full.  Unless main has ended
        # the command, that is one error line.  Stdout then points at
        # devnull, so the flush at exit cannot fail again.
        if not (ended or isinstance(exc, BrokenPipeError)):
            print(f"error: {exc}", file=sys.stderr)
            code = 2
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    # The process ends here: stdout is flushed and any --out file closed,
    # and nothing the package holds needs a finalizer.  Frozen objects are
    # left out of the collections that interpreter shutdown runs, which
    # would otherwise walk every object the imports made.
    gc.freeze()
    sys.exit(code)
