"""Output checks for one pass of a workload.

Each check reads the stdout files the commands wrote, after the children
have exited, so none of it is timed or counted in their RSS.  A check
returns, per command, a problem string (None when the output is right)
and the number of data rows the command emitted.
"""

from __future__ import annotations

import csv
import json
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

GOLDEN = Path("tests/golden")
_VERIFY_TAIL = re.compile(r"(\d+) passed, 0 failed")
_JSON_ROWS = re.compile(r'"rows"\s*:\s*\[')
_SEPARATORS = re.compile(r"[\s,]*")
_CHUNK = 1 << 20


class OutputError(Exception):
    """An output differs from what the checks require."""


def _cell(value) -> str:
    """A JSON row value as the CSV renderer writes it."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _ratio(text: str) -> tuple[int, int]:
    num, _, den = text.partition("/")
    return int(num), int(den or 1)


def _starts_with(path: Path, golden: Path) -> bool:
    want = golden.read_bytes()
    with open(path, "rb") as handle:
        return handle.read(len(want)) == want


def iter_json_rows(path: Path):
    """Yield the envelope with an empty row list, then each row.

    Reads in chunks: the alpha JSON takes about 200 bytes per n, and
    decoding it whole would cost the checker ten times that in memory.
    """
    decoder = json.JSONDecoder()
    with open(path, encoding="utf-8") as handle:
        buf = handle.read(_CHUNK)
        head = _JSON_ROWS.search(buf)
        if head is None:
            raise OutputError("no rows array in the JSON envelope")
        yield json.loads(buf[: head.start()] + '"rows": []}')
        pos = head.end()
        while True:
            if len(buf) - pos < _CHUNK // 2:
                buf, pos = buf[pos:] + handle.read(_CHUNK), 0
            pos = _SEPARATORS.match(buf, pos).end()
            if buf.startswith("]", pos):
                if (buf[pos + 1 :] + handle.read()).strip() != "}":
                    raise OutputError("unexpected bytes after the rows array")
                return
            try:
                row, pos = decoder.raw_decode(buf, pos)
            except json.JSONDecodeError as exc:
                raise OutputError(f"bad JSON row: {exc}") from None
            yield row


# ---------------------------------------------------------------------------
# scan: chi, alpha CSV, alpha JSON and the alpha point lookup at one N


def check_scan(commands, paths) -> tuple[list, list]:
    problems, rows = [], []
    for start in range(0, len(commands), 4):
        p, r = _check_scan_pass(commands[start : start + 4], paths[start : start + 4])
        problems += p
        rows += r
    return problems, rows


def _check_scan_pass(commands, paths) -> tuple[list, list]:
    n_max = commands[0].facts["n"]
    chi_path, csv_path, json_path, point_path = paths
    problems = {label: None for label in ("chi", "alpha_csv", "alpha_json", "alpha_point")}

    def fail(label, text):
        if problems[label] is None:
            problems[label] = text

    if not _starts_with(chi_path, GOLDEN / "chi_1_44.csv"):
        fail("chi", "does not start with tests/golden/chi_1_44.csv")
    if not _starts_with(csv_path, GOLDEN / "alpha_to_219.csv"):
        fail("alpha_csv", "does not start with tests/golden/alpha_to_219.csv")

    last_alpha = None
    with open(chi_path, newline="") as chi_file, open(csv_path, newline="") as alpha_file:
        chi_rows = csv.reader(chi_file)
        alpha_rows = csv.reader(alpha_file)
        json_rows = iter_json_rows(json_path)
        chi_header = next(chi_rows, None)
        alpha_header = next(alpha_rows, None)
        envelope = next(json_rows)
        meta = envelope.get("metadata", {})
        if (envelope.get("command"), meta.get("to")) != ("alpha", n_max):
            fail("alpha_json", f"envelope says {envelope.get('command')} to {meta.get('to')}")
        if chi_header != ["n", "chi", "mertens", "dim"]:
            fail("chi", f"header {chi_header}")
        for n in range(1, n_max + 1):
            crow = next(chi_rows, None)
            arow = next(alpha_rows, None)
            jrow = next(json_rows, None)
            if crow is None or arow is None or jrow is None:
                for label, row in (("chi", crow), ("alpha_csv", arow), ("alpha_json", jrow)):
                    if row is None:
                        fail(label, f"ends before n={n}")
                break
            if int(crow[0]) != n or int(crow[1]) != -int(crow[2]):
                fail("chi", f"row {crow}: n out of order or chi != -mertens")
            if int(arow[0]) != n or arow[2] != crow[1]:
                fail("alpha_csv", f"row {arow}: n out of order or chi differs from chi --to")
            elif arow[7] == "ok":
                p, q = _ratio(arow[5])
                r, s = _ratio(arow[4])
                if p * r * int(arow[3]) != int(arow[2]) * q * s:
                    fail("alpha_csv", f"row {arow}: alpha * h1 * f_top != chi")
            elif n >= 6 or arow[7] != "skipped":
                fail("alpha_csv", f"row {arow}: status {arow[7]}")
            if list(jrow) != alpha_header or [_cell(v) for v in jrow.values()] != arow:
                fail("alpha_json", f"row {jrow} differs from CSV row {arow}")
            last_alpha = arow
        else:
            if next(chi_rows, None) is not None:
                fail("chi", f"rows past n={n_max}")
            if next(alpha_rows, None) is not None:
                fail("alpha_csv", f"rows past n={n_max}")
            if next(json_rows, None) is not None:
                fail("alpha_json", f"rows past n={n_max}")

    with open(point_path, newline="") as handle:
        point = list(csv.reader(handle))
    if point != [alpha_header, last_alpha]:
        fail("alpha_point", f"rows {point[1:]} differ from range row {last_alpha}")
    rows = [n_max, n_max, n_max, len(point) - 1]
    return list(problems.values()), rows


# ---------------------------------------------------------------------------
# zeros: every trajectory row meets its own stated guarantees


def _check_zeros_one(command, path) -> tuple[str | None, int]:
    facts = command.facts
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    if [r.get("k") for r in rows] != [str(k) for k in range(facts["k"] + 1)]:
        return f"depth column is not 0..{facts['k']}", len(rows)
    for row in rows:
        bits = int(row["precision_bits"])
        if bits < facts["bits"]:
            return f"k={row['k']}: {bits} bits, below the requested {facts['bits']}", len(rows)
        if Fraction(Decimal(row["max_residual"])) > Fraction(1, 2 ** (bits // 2)):
            return f"k={row['k']}: residual {row['max_residual']} above 2^-{bits // 2}", len(rows)
        if row["rho_inf_real"] != "true":
            return f"k={row['k']}: largest root not certified real", len(rows)
        if len(row["roots"].split(";")) != facts["dim"] + 1:
            return f"k={row['k']}: expected {facts['dim'] + 1} roots", len(rows)
    return None, len(rows)


def check_zeros(commands, paths) -> tuple[list, list]:
    results = [_check_zeros_one(c, p) for c, p in zip(commands, paths)]
    return [r[0] for r in results], [r[1] for r in results]


# ---------------------------------------------------------------------------
# verify: the suites pass, and the tables agree with the goldens and
# across formats


def _check_verify_one(path) -> tuple[str | None, int]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    tail = _VERIFY_TAIL.fullmatch(lines[-1]) if lines else None
    if tail is None:
        return f"last line {lines[-1:]} is not 'N passed, 0 failed'", len(lines)
    checks = lines[:-1]
    if int(tail.group(1)) != len(checks) or not all(x.startswith("PASS ") for x in checks):
        return "a check did not pass", len(lines)
    return None, len(lines)


def _table_csv(path) -> tuple[list, list]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _check_golden(header, rows, kind) -> str | None:
    golden = GOLDEN / f"tables_{kind}_d7.csv"
    if not golden.exists():
        return None
    want_header, want_rows = _table_csv(golden)
    column = {name: idx for idx, name in enumerate(header)}
    if any(name not in column for name in want_header):
        return f"columns {want_header} missing"
    got = {row[0]: row for row in rows}
    for want in want_rows:
        row = got.get(want[0])
        if row is None or [row[column[name]] for name in want_header] != want:
            return f"row i={want[0]} differs from {golden}"
    return None


def check_verify(commands, paths) -> tuple[list, list]:
    problems = [None] * len(commands)
    rows = [0] * len(commands)
    csv_tables = {}
    for idx, (command, path) in enumerate(zip(commands, paths)):
        if command.label == "verify":
            problems[idx], rows[idx] = _check_verify_one(path)
        elif command.label == "tables_csv":
            header, body = _table_csv(path)
            csv_tables[command.facts["kind"]] = (header, body)
            rows[idx] = len(body)
            problems[idx] = _check_golden(header, body, command.facts["kind"])
            if command.facts["kind"] == "Hmatrix":
                want = sum((d + 2) ** 2 for d in range(command.facts["max_d"] + 1))
                if len(body) != want:
                    problems[idx] = f"{len(body)} rows, expected {want}"
    for idx, (command, path) in enumerate(zip(commands, paths)):
        if command.label != "tables_json":
            continue
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        header, body = csv_tables[command.facts["kind"]]
        got = [[_cell(v) for v in row.values()] for row in payload["rows"]]
        rows[idx] = len(got)
        if payload["metadata"].get("max_d") != command.facts["max_d"]:
            problems[idx] = "metadata max_d differs from the request"
        elif any(list(row) != header for row in payload["rows"]) or got != body:
            problems[idx] = "JSON rows differ from the CSV rows"
    return problems, rows


CHECKS = {"scan": check_scan, "zeros": check_zeros, "verify": check_verify}
