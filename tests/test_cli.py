"""Command line interface: formats, golden files, and exit codes."""

import contextlib
import csv
import gc
import hashlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from array import array
from fractions import Fraction
from math import factorial, log
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import baryzeros
from baryzeros import (
    AlphaScan,
    FVector,
    RootFindingError,
    SimplexMatrix,
    __version__,
    checks,
    cli,
    complexes,
    eigen_rationals,
    rootfinding,
    shared_sieve,
    summary,
)
from baryzeros.checks import SUITES
from baryzeros.cli import DEFAULT_SIEVE_LIMIT, _write_csv, _write_json, build_parser, main
from baryzeros.complexes import SimplicialComplex

GOLDEN = Path(__file__).parent / "golden"
TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"
# Child interpreters import the package this process imported, whether it
# is installed or found through pytest's pythonpath setting.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(
            None,
            [str(Path(baryzeros.__file__).parents[1]), os.environ.get("PYTHONPATH")],
        )
    ),
}


def run_cli(capsys, *argv) -> str:
    code = main(list(argv))
    assert code == 0, argv
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


def run_cli_error(capsys, *argv) -> str:
    "A rejected command exits 2 with a one-line error and writes no stdout."
    code = main(list(argv))
    assert code == 2, argv
    captured = capsys.readouterr()
    assert captured.out == "", argv
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1, argv
    return captured.err


@pytest.mark.parametrize(
    "name, argv",
    [
        ("tables_f_d7.csv", ("tables", "--kind", "f", "--max-d", "7")),
        ("tables_F_d7.csv", ("tables", "--kind", "F", "--max-d", "7")),
        ("tables_H_d7.csv", ("tables", "--kind", "H", "--max-d", "7")),
        ("chi_1_44.csv", ("chi", "--from", "1", "--to", "44")),
        ("alpha_to_219.csv", ("alpha", "--to", "219")),
    ],
)
def test_golden_files_byte_exact(capsys, name, argv):
    out = run_cli(capsys, *argv)
    assert out == (GOLDEN / name).read_text()


def test_reruns_are_byte_identical(capsys):
    commands = [
        ("tables", "--kind", "Hmatrix", "--max-d", "4"),
        ("chi", "--from", "1", "--to", "100"),
        ("alpha", "--to", "50"),
        ("zeros", "--n", "6", "--k", "5"),
        ("zeros", "--n", "30", "--k", "2", "--format", "json"),
    ]
    for argv in commands:
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second, argv


def test_out_file_matches_stdout(capsys, tmp_path):
    target = tmp_path / "out"
    for argv in (
        ("chi", "--from", "1", "--to", "20"),
        ("alpha", "--to", "40", "--format", "json"),
    ):
        out = run_cli(capsys, *argv)
        code = main([*argv, "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == out.encode(), argv


# As in the CLI's tables: the first cell is an int and each column holds
# one type in every row (None may stand in for a str).
_COLUMNS = st.sampled_from(
    [
        st.integers(),
        st.integers(max_value=-1),
        st.text(),
        st.none() | st.text(),
        st.booleans(),
    ]
)


@st.composite
def _tables(draw):
    header = draw(st.lists(st.text(), min_size=1, max_size=5, unique=True))
    row = st.tuples(st.integers(), *(draw(_COLUMNS) for _ in header[1:]))
    rows = draw(st.lists(row, max_size=6))
    if draw(st.booleans()):
        # As in a scan: each row its own first cell, at most three tails.
        tails = draw(st.lists(row, min_size=1, max_size=3))
        rows = [(first, *draw(st.sampled_from(tails))[1:]) for first, *_ in rows]
    return header, rows


def _blocks(rows, cuts):
    """Rows as the writers take them: blocks of (first cells, keys, tail)
    split at the cuts, some of them empty, each tail its own key."""
    edges = [0, *sorted(min(cut, len(rows)) for cut in cuts), len(rows)]
    return iter(
        [
            ([row[0] for row in rows[lo:hi]], iter([tuple(row[1:]) for row in rows[lo:hi]]), tuple)
            for lo, hi in zip(edges, edges[1:])
        ]
    )


# Where blocks end (cuts may repeat, giving empty blocks) and where
# batches end: every row its own batch, a few rows a batch, or the CLI's
# own size.
_CUTS = st.lists(st.integers(0, 6), max_size=4)
_BATCHES = st.sampled_from([1, 2, 3, cli._BATCH_ROWS])

# True and 1 are equal dict keys with one hash, but render apart; they
# meet only in different columns.
_FLAG_COUNTS = (
    ["n", "flag", "count"],
    [(7, True, 1), (8, False, 0), (9, False, 1), (10, True, 1)],
)
# A % in a header is a literal in the writers' row templates.
_PERCENT = (["%d%s", "%%", "a%"], [(-3, 5, "%s"), (4, 5, "%d"), (12, -1, "")])


@given(
    table=_tables(),
    cuts=_CUTS,
    batch_rows=_BATCHES,
    command=st.text(),
    metadata=st.dictionaries(st.text(), st.one_of(st.integers(), st.text(), st.none())),
)
@example(table=_FLAG_COUNTS, cuts=[], batch_rows=4096, command="c", metadata={})
@example(table=(["n", "flag"], []), cuts=[], batch_rows=4096, command="c", metadata={})
@example(table=(["n", "flag"], []), cuts=[0, 0], batch_rows=1, command="c", metadata={})
@example(table=_PERCENT, cuts=[0, 1, 1, 3], batch_rows=2, command="%d", metadata={"%": "%s"})
def test_streamed_json_equals_json_dumps(table, cuts, batch_rows, command, metadata):
    header, rows = table
    payload = {
        "command": command,
        "format": "json",
        "metadata": metadata,
        "rows": [dict(zip(header, row)) for row in rows],
    }
    handle = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_BATCH_ROWS", batch_rows)
        _write_json(handle, command, metadata, header, _blocks(rows, cuts))
    assert handle.getvalue() == json.dumps(payload, indent=2) + "\n"


@given(table=_tables(), cuts=_CUTS, batch_rows=_BATCHES)
@example(table=_FLAG_COUNTS, cuts=[], batch_rows=4096)
@example(table=(["n", "flag"], []), cuts=[], batch_rows=4096)
@example(table=_PERCENT, cuts=[2, 0, 2], batch_rows=1)
def test_streamed_csv_equals_buffered_writer(table, cuts, batch_rows):
    header, rows = table
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        cells = []
        for value in row:
            if value is None:
                cells.append("")
            elif isinstance(value, bool):
                cells.append("true" if value else "false")
            else:
                cells.append(value)
        writer.writerow(cells)
    handle = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_BATCH_ROWS", batch_rows)
        _write_csv(handle, header, _blocks(rows, cuts))
    assert handle.getvalue() == expected.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ("chi", "--from", "29990", "--to", "30100"),
        ("chi", "--from", "29990", "--to", "30100", "--format", "json"),
        ("alpha", "--to", "2310"),
        ("alpha", "--to", "2310", "--format", "json"),
    ],
)
def test_scan_bytes_across_batch_edges(capsys, monkeypatch, argv):
    """Batches of 7 rows end inside every block and at neither end of most:
    chi crosses dimension 4 to 5 at 30030, alpha has a run per top face
    count, and both print what the CLI's own batch size prints."""
    expected = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "_BATCH_ROWS", 7)
    assert run_cli(capsys, *argv) == expected


def test_json_payload_shape(capsys):
    out = run_cli(capsys, "tables", "--kind", "H", "--max-d", "2", "--format", "json")
    payload = json.loads(out)
    assert payload["command"] == "tables"
    assert payload["format"] == "json"
    assert payload["metadata"]["version"] == __version__
    assert payload["metadata"]["kind"] == "H"
    assert payload["rows"][1] == {"i": 1, "d=0": "1", "d=1": "1", "d=2": "1/2"}


def test_chi_rows(capsys):
    out = run_cli(capsys, "chi", "--from", "13", "--to", "13")
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["n", "chi", "mertens", "dim"]
    assert rows[1] == ["13", "3", "-3", "1"]


def test_alpha_single_value_uses_definition(capsys):
    out = run_cli(capsys, "alpha", "--n", "22")
    rows = list(csv.reader(out.splitlines()))
    record = dict(zip(rows[0], rows[1]))
    assert record["alpha"] == "1/6"
    assert record["status"] == "ok"


def test_alpha_single_low_dimension_is_skipped(capsys):
    out = run_cli(capsys, "alpha", "--n", "4")
    rows = list(csv.reader(out.splitlines()))
    record = dict(zip(rows[0], rows[1]))
    assert record["status"] == "skipped"
    assert record["alpha"] == ""
    assert record["chi"] == "1"


def test_alpha_range_marks_low_dimensions(capsys):
    out = run_cli(capsys, "alpha", "--to", "10")
    rows = list(csv.reader(out.splitlines()))[1:]
    statuses = [row[7] for row in rows]
    assert statuses == ["skipped"] * 5 + ["ok"] * 5


def test_alpha_zero_has_empty_exponent(capsys):
    out = run_cli(capsys, "alpha", "--n", "39")
    rows = list(csv.reader(out.splitlines()))
    record = dict(zip(rows[0], rows[1]))
    assert record["alpha"] == "0"
    assert record["exponent"] == ""


def _alpha_oracle_rows(n_max: int) -> list[list]:
    "alpha --to rows from Fraction(chi, h1*f_top), str(h1) and the exponent formula."
    rows = []
    for n in range(1, n_max + 1):
        fv = summary(n)
        d, chi = fv.dim, fv.euler_char()
        if d < 1:
            rows.append([n, d, chi, None, None, None, None, "skipped"])
            continue
        h1 = eigen_rationals(d)[1]
        f_top = fv.count(d)
        value = Fraction(chi, h1 * f_top)
        exponent = None
        if value:
            exponent = repr(
                (log(abs(value.numerator)) - log(value.denominator))
                / log(factorial(d + 1))
            )
        rows.append([n, d, chi, f_top, str(h1), str(value), exponent, "ok"])
    return rows


def test_alpha_scan_bytes_match_fraction_oracle(capsys, monkeypatch):
    """alpha --to 2310, beyond the goldens' 219: dimensions 1-4, negative,
    zero and integer alpha, in CSV and JSON."""
    monkeypatch.delenv("BARYZEROS_SIEVE_LIMIT", raising=False)
    header = ["n", "dim", "chi", "f_top", "h1", "alpha", "exponent", "status"]
    rows = _alpha_oracle_rows(2310)
    alphas = [row[5] for row in rows if row[7] == "ok"]
    assert {row[1] for row in rows if row[7] == "ok"} == {1, 2, 3, 4}
    assert "0" in alphas
    assert any(a.startswith("-") and "/" in a for a in alphas)
    assert any(a.lstrip("-").isdigit() and a != "0" for a in alphas)

    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([header, *rows])
    assert run_cli(capsys, "alpha", "--to", "2310") == buffer.getvalue()

    payload = {
        "command": "alpha",
        "format": "json",
        "metadata": {"version": __version__, "sieve_limit": DEFAULT_SIEVE_LIMIT, "to": 2310},
        "rows": [dict(zip(header, row)) for row in rows],
    }
    out = run_cli(capsys, "alpha", "--to", "2310", "--format", "json")
    assert out == json.dumps(payload, indent=2) + "\n"


def test_alpha_range_reads_records_once(capsys, monkeypatch):
    """alpha --to streams the scan's runs once and builds no record: the
    same bytes from one-shot runs and a scan that cannot be iterated."""
    monkeypatch.delenv("BARYZEROS_SIEVE_LIMIT", raising=False)
    argvs = [("alpha", "--to", "300"), ("alpha", "--to", "300", "--format", "json")]
    expected = [run_cli(capsys, *argv) for argv in argvs]
    scan = baryzeros.cli.alpha_scan

    def no_records(self):
        raise AssertionError("alpha --to iterated the records")

    monkeypatch.setattr(
        "baryzeros.cli.alpha_scan", lambda n: AlphaScan(n, iter(scan(n).runs))
    )
    monkeypatch.setattr(AlphaScan, "__iter__", no_records)
    assert [run_cli(capsys, *argv) for argv in argvs] == expected


def _json_rows(out: str) -> list[str]:
    "The text of each row object of a JSON table, as printed."
    return [block.split("\n    }")[0] for block in out.split("\n    {")[1:]]


def test_range_rows_equal_point_rows(capsys, monkeypatch):
    """A row of alpha --to equals alpha --n at the same n, and chi --from a
    slice of chi --to: the range renders from records and tails it caches,
    the point from summary(n) alone."""
    monkeypatch.delenv("BARYZEROS_SIEVE_LIMIT", raising=False)
    primorial_edges = [29, 30, 209, 210, 2309, 2310, 30029, 30030, 30031]
    ns = primorial_edges + random.Random(20171).sample(range(6, 100001), 191)
    csv_lines = run_cli(capsys, "alpha", "--to", "100000").splitlines()
    json_rows = _json_rows(run_cli(capsys, "alpha", "--to", "100000", "--format", "json"))
    for n in ns:
        assert run_cli(capsys, "alpha", "--n", str(n)).splitlines()[1] == csv_lines[n], n
        point = run_cli(capsys, "alpha", "--n", str(n), "--format", "json")
        assert _json_rows(point) == [json_rows[n - 1]], n

    whole = run_cli(capsys, "chi", "--to", "30100").splitlines()
    part = run_cli(capsys, "chi", "--from", "30000", "--to", "30100").splitlines()
    assert part == whole[:1] + whole[30000:]
    whole = _json_rows(run_cli(capsys, "chi", "--to", "30100", "--format", "json"))
    part = run_cli(capsys, "chi", "--from", "30000", "--to", "30100", "--format", "json")
    assert _json_rows(part) == whole[29999:]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("chi", "--to", "100000"),
            "a15d484b6be91780aca80fd22fa3e01ccb033f97786ce5835ad91896dac1713b",
        ),
        (
            ("chi", "--to", "100000", "--format", "json"),
            "defc9b90f5a492cb4c81a130afc774a82523871720dbc91a35dfde003740b5fa",
        ),
        (
            ("alpha", "--to", "100000"),
            "ae646f4f88ac115b23a8ccf93e8c5e3fb1377662e5ca315dfbc3e9fb71ecf0cf",
        ),
        (
            ("alpha", "--to", "100000", "--format", "json"),
            "956224106b56e261757a9e9c7845ca66b2cfc0edbbf470c09c6ea59fc109d3a9",
        ),
        (
            ("alpha", "--to", "1000000"),
            "f5a846547419078bdeb75bb5555bf6b12a7308fbbc6944e2ca6734581329497a",
        ),
        (
            ("chi", "--to", "1000000", "--format", "json"),
            "5fa80b0bbfb078370d7816d9fedb28d2e94aefab91f5f3ebecb8483aefa94873",
        ),
    ],
    ids=["chi-csv", "chi-json", "alpha-csv", "alpha-json", "alpha-cap-csv", "chi-cap-json"],
)
def test_scan_bytes_at_benchmark_scale(capsys, monkeypatch, argv, digest):
    """The sha256 of a full scan at the benchmark's N, where the goldens
    stop at 219: every dimension up to 5 and every tail a scan repeats.
    At the default sieve limit, 10^6, dimension 6 appears and the runs
    are at their longest."""
    monkeypatch.delenv("BARYZEROS_SIEVE_LIMIT", raising=False)
    out = run_cli(capsys, *argv)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("tables", "--kind", "H", "--max-d", "16"),
            "3a70671f2c80503ea86b15c03e6e90bf4ebedb6c1b96fe76afdb01fe62df4f4e",
        ),
        (
            ("tables", "--kind", "H", "--max-d", "16", "--format", "json"),
            "dfc1ec48e83cd53cf060ade8a84592532c529b7baedb58ddc701e238e751f7d4",
        ),
        (
            ("tables", "--kind", "F", "--max-d", "16"),
            "152539934f37f246bcdd54c62ba414509316943bf9585fcfca5bb172025e0d9f",
        ),
        (
            ("tables", "--kind", "F", "--max-d", "16", "--format", "json"),
            "0c1dd9679d74b64f69b4b8b3aa0dde498002bab0141b938c55febb0a83ad099e",
        ),
        (
            ("tables", "--kind", "f", "--max-d", "16"),
            "6937cabf65d3145ba163d2ca468d5e67a03e9f39d7702d5dfdfc4bd755a07757",
        ),
        (
            ("tables", "--kind", "f", "--max-d", "16", "--format", "json"),
            "021575194d160aa62b89771c176b916aa4e5bbfb2d2f0d89a1a6895fe74771e2",
        ),
        (
            ("tables", "--kind", "Hmatrix", "--max-d", "16"),
            "6590a2abda35890fdcef05c8177d062232e9477fb749dbd30c38a2828afc8cc3",
        ),
        (
            ("tables", "--kind", "Hmatrix", "--max-d", "16", "--format", "json"),
            "234ff6ba30e4a0ec3df003b366769923779ecde632aa8e91639c645e4cc0adc6",
        ),
    ],
    ids=["H-csv", "H-json", "F-csv", "F-json", "f-csv", "f-json", "Hmatrix-csv", "Hmatrix-json"],
)
def test_limit_table_bytes_at_full_size(capsys, argv, digest):
    """The sha256 of the tables at the largest accepted max-d, where the
    goldens stop at d = 7: every face count, eigen weight, h-coefficient and
    descent entry the subdivision routes build up to d = 16."""
    out = run_cli(capsys, *argv)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "suite, digest",
    [
        ("all", "2aef4470e60417087b0f45ad8638bf0b1de508b719e3130e6c0f2c1569af3d94"),
        ("core", "7d41a49e14c6fe30ad2af8b017eea4743c1ba85f20fd700546b79000561c7691"),
        ("complex", "edc4e5e2ad4dd9fbf092732cbc0f27e7962a2e709c9153df27ad45fd13b5a3b1"),
        ("zeros", "c0444442fc548d91ec547e52fcd715afe60b0ec601bc3e476fe998199fb917ea"),
    ],
    ids=["all", "core", "complex", "zeros"],
)
def test_verify_bytes(capsys, suite, digest):
    """The sha256 of each suite's report: every check's name, pass text
    and place in the order, and the closing count."""
    out = run_cli(capsys, "verify", "--suite", suite)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The three columns that state exact facts about the returned roots; the
# rest of a zeros table is pinned without them as well.
_EXACT_COLUMNS = ("sum_rel_err", "prod_rel_err", "max_residual")


def without_exact_columns(out: str, fmt: str) -> str:
    "A zeros table with the exact columns removed, re-rendered."
    if fmt == "json":
        payload = json.loads(out)
        for row in payload["rows"]:
            for key in _EXACT_COLUMNS:
                del row[key]
        return json.dumps(payload, indent=2) + "\n"
    rows = list(csv.reader(io.StringIO(out)))
    keep = [i for i, name in enumerate(rows[0]) if name not in _EXACT_COLUMNS]
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([[r[i] for i in keep] for r in rows])
    return buffer.getvalue()


@pytest.mark.parametrize(
    "argv, digest, rest_digest",
    [
        (
            ("zeros", "--n", "37", "--k", "4"),
            "619c17b6b130491a4bb0a9b957625e54f68076eb25cb92bb06c72f58c56a9145",
            "0e11df7055bf401c2e81df47f0553ec7f684a97f430629df349aa92b230f14cc",
        ),
        (
            ("zeros", "--n", "2310", "--k", "8", "--precision-bits", "1024"),
            "2596565e9ca9db3cc9bb37f9197058b69796fe8ae05d5a5d47b5180a284ed30d",
            "b53db706ab941980e91d24e130d0ce31c417497288fdda05d20d1977dc9f2098",
        ),
        (
            ("zeros", "--n", "30", "--k", "12", "--precision-bits", "512", "--format", "json"),
            "c3f11aa95793172326d4c19c9cfcda392dd59cb80e671e82a32c1493716dfe14",
            "9393a8096b7e546afb091f19fb5e83bbdbf9bf287e4de9ff07a27ab7a4b88b8e",
        ),
    ],
    ids=["non-real", "dim4-1024", "dim2-json"],
)
def test_zeros_bytes(capsys, argv, digest, rest_digest):
    """The sha256 of zeros tables that no golden holds: non-real roots at
    k = 2 and 3 (n = 37), dimension 4 at 1024 bits, and the JSON form;
    rest_digest pins the table without its exact columns."""
    out = run_cli(capsys, *argv)
    rest = without_exact_columns(out, "json" if "json" in argv else "csv")
    assert hashlib.sha256(rest.encode()).hexdigest() == rest_digest
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_zeros_rows(capsys):
    out = run_cli(capsys, "zeros", "--n", "6", "--k", "4")
    rows = list(csv.reader(out.splitlines()))
    assert rows[0][0] == "k"
    body = rows[1:]
    assert [row[0] for row in body] == ["0", "1", "2", "3", "4"]
    real_flags = {row[6] for row in body}
    assert real_flags == {"true"}
    assert all(row[11] == "" for row in body), "no interior roots in dimension 1"


def test_zeros_rows_use_the_requested_precision(capsys):
    "--precision-bits is the precision of every row, at 16 bits as at 64."
    tables = []
    for bits in ("16", "64"):
        out = run_cli(capsys, "zeros", "--n", "2310", "--k", "6", "--precision-bits", bits)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["precision_bits"] for row in rows] == [bits] * 7
        tables.append(out)
    assert tables[0] != tables[1]


def test_zeros_json_metadata(capsys):
    out = run_cli(capsys, "zeros", "--n", "30", "--k", "1", "--format", "json")
    payload = json.loads(out)
    md = payload["metadata"]
    assert (md["n"], md["dim"], md["k_max"]) == (30, 2, 1)
    assert len(payload["rows"]) == 2


@pytest.mark.parametrize("n", [6, 30, 39, 2310])
def test_zeros_metadata_is_the_alpha_row(capsys, n):
    "zeros' dim, chi, f_top and h1 at n are the cells of alpha's row at n."
    zeros = json.loads(run_cli(capsys, "zeros", "--n", str(n), "--k", "0", "--format", "json"))
    (row,) = json.loads(run_cli(capsys, "alpha", "--n", str(n), "--format", "json"))["rows"]
    keys = ("dim", "chi", "f_top", "h1")
    assert [zeros["metadata"][key] for key in keys] == [row[key] for key in keys]


def test_verify_passes_and_reports(capsys):
    out = run_cli(capsys, "verify", "--suite", "core")
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("0 failed")


def test_verify_all_suites_green(capsys):
    out = run_cli(capsys, "verify", "--suite", "all")
    assert "FAIL" not in out


def test_verify_reports_a_failing_check(capsys, monkeypatch):
    "A failed check prints its FAIL line, counts in the total and exits 1."
    monkeypatch.setattr(checks, "FIRST_NEGATIVE", 95)
    assert main(["verify", "--suite", "complex"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL first-negative-euler: first negative at 94, expected 95" in lines
    assert lines[-1] == "4 passed, 1 failed"


@pytest.fixture
def forks(monkeypatch):
    """verify --suite all with two CPUs whatever the machine has: the pids
    of the workers it forked, as this process saw them."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", counted)
    return pids


def test_worker_suite_failure_prints_at_its_place(capsys, monkeypatch, forks):
    """A check that fails in the worker's suite (complex) prints its FAIL
    line where the one-process run prints it, and counts in the total."""
    monkeypatch.setattr(checks, "FIRST_NEGATIVE", 95)
    assert main(["verify", "--suite", "all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(forks) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert main(["verify", "--suite", "all"]) == 1
    assert lines == capsys.readouterr().out.splitlines()
    assert "FAIL first-negative-euler: first negative at 94, expected 95" in lines
    assert lines[-1] == "23 passed, 1 failed"


def _raises():
    raise ZeroDivisionError("boom")


_TEST_PID = os.getpid()


def _dies():
    "Ends the worker it runs in; in the test's own process it raises."
    if os.getpid() == _TEST_PID:
        raise AssertionError("the complex suite ran in the parent")
    os._exit(3)


@pytest.mark.parametrize(
    "suite, run, err",
    [
        ("complex", _raises, "error: boom\n"),
        ("complex", _dies, "error: the complex suite's worker ended with status 3\n"),
        ("core", _raises, None),
    ],
    ids=["worker-raises", "worker-dies", "parent-raises"],
)
def test_verify_all_failure_is_one_error_and_reaps_the_worker(
    capsys, monkeypatch, forks, suite, run, err
):
    """A suite that raises or dies in the worker is one error line and exit
    2; one that raises in this process propagates as it does with one
    process.  Either way the worker has been reaped."""
    monkeypatch.setitem(SUITES, suite, run)
    if err is None:
        with pytest.raises(ZeroDivisionError, match="boom"):
            main(["verify", "--suite", "all"])
    else:
        assert main(["verify", "--suite", "all"]) == 2
        assert capsys.readouterr() == ("", err)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_all_in_one_process(capsys, monkeypatch):
    """With one CPU the parent runs every suite itself and forks nothing:
    the report is test_verify_bytes' digest for all."""

    def no_fork():
        raise AssertionError("forked with one CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)
    out = run_cli(capsys, "verify", "--suite", "all")
    digest = "2aef4470e60417087b0f45ad8638bf0b1de508b719e3130e6c0f2c1569af3d94"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_euler_check_names_each_disagreeing_n(monkeypatch):
    "The route from the faces against a skewed Mertens sum names the first n."
    table = shared_sieve(checks.MERTENS_LIMIT)
    skewed = array("i", table.chi)
    skewed[6] -= 1
    skewed[checks.MERTENS_LIMIT] += 2
    monkeypatch.setattr(complexes, "_shared_sieve", table._replace(chi=skewed))
    result = checks._check_euler_vs_mertens()
    assert result.detail == "n=6: chi 1 != -M 0 (+1 more)"
    assert not result.passed


def test_euler_check_fails_on_a_weight_without_a_face_term(monkeypatch):
    """A weight byte the face-term table does not cover, 9 at n = 210,
    parts the route from the faces from the sieve's chi at that n."""
    table = shared_sieve(checks.MERTENS_LIMIT)
    weight = array("b", table.weight)
    weight[210] = 9
    monkeypatch.setattr(complexes, "_shared_sieve", table._replace(weight=weight))
    result = checks._check_euler_vs_mertens()
    assert result.detail == "n=210: chi 4 != -M -1 (+99790 more)"
    assert not result.passed


def _bumped(d, i, j):
    "A matrix oracle whose d-dimensional matrix has entry (i, j) one too large."

    def wrap(oracle):
        def bumped(dim):
            matrix = oracle(dim)
            if dim != d:
                return matrix
            rows = [list(row) for row in matrix.rows]
            rows[i + 1][j + 1] += 1
            return SimplexMatrix(d, tuple(map(tuple, rows)))

        return bumped

    return wrap


def _value_bumped(args, delta):
    "An oracle whose value at args is off by delta."
    return lambda oracle: lambda *a: oracle(*a) + delta * (a == args)


def _coefficients_edited(d, edit):
    "A coefficient-tuple oracle whose d-dimensional tuple passes through edit."

    def wrap(oracle):
        def edited(dim):
            coeffs = oracle(dim)
            return edit(coeffs) if dim == d else coeffs

        return edited

    return wrap


def _coefficient_bumped(d, i, delta):
    "A coefficient-tuple oracle whose d-dimensional entry i is off by delta."
    return _coefficients_edited(d, lambda c: (*c[:i], c[i] + delta, *c[i + 1 :]))


def _sign_flipped_at_size_3(oracle):
    return lambda rows: -oracle(rows) if len(rows) == 3 else oracle(rows)


def _depth_one_top_bumped(oracle):
    "An orbit whose depth-1 top face count is one too large."

    def bumped(fv, depth):
        orbit = oracle(fv, depth)
        if depth < 1:
            return orbit
        counts = orbit[1].counts
        return (orbit[0], FVector((*counts[:-1], counts[-1] + 1)), *orbit[2:])

    return bumped


def _top_face_bumped(oracle):
    def bumped(n):
        counts = oracle(n).counts
        return FVector((*counts[:-1], counts[-1] + (n == 30)))

    return bumped


# -1 + i: negative, but not certified real, since only a root find_roots
# certified real has an imaginary part of exactly 0
_NOT_REAL = rootfinding.Dyadic(-1, 1, 0)


def _entries_edited(edit):
    "A trajectory oracle whose every entry passes through edit(entry)."

    def wrap(oracle):
        def edited(*args, **kwargs):
            run = oracle(*args, **kwargs)
            return run._replace(entries=tuple(map(edit, run.entries)))

        return edited

    return wrap


def _entries_replaced(**fields):
    "A trajectory oracle whose every entry has the given fields replaced."
    return _entries_edited(lambda e: e._replace(**fields))


def _roots_edited(edit):
    "A trajectory oracle whose every entry's rootset.roots passes through edit(roots)."
    return _entries_edited(
        lambda e: e._replace(rootset=e.rootset._replace(roots=edit(e.rootset.roots)))
    )


def _rho_inf_set(z):
    "A trajectory oracle whose every entry's largest root is z."
    return _roots_edited(lambda roots: (*roots[:-1], z))


def _growth_bumped(j, i, dim=None):
    """A growth_expansion oracle whose coefficients[j][i] is one too large,
    only in dimension dim if one is given."""

    def wrap(oracle):
        def bumped(fv):
            expansion = oracle(fv)
            if dim not in (None, fv.dim):
                return expansion
            rows = [list(row) for row in expansion.coefficients]
            rows[j][i] += 1
            return expansion._replace(coefficients=tuple(map(tuple, rows)))

        return bumped

    return wrap


def _chi_at_94_doubled(oracle):
    "A chi_profile oracle that reads chi(94) = -2."

    def edited(limit):
        chi = oracle(limit)
        return [*chi[:94], -2, *chi[95:]]

    return edited


def _extra_simplex(vertices):
    """A subdivision oracle whose output gains a disjoint simplex on
    vertices(output) fresh vertices."""

    def wrap(oracle):
        def extended(cx):
            sub = oracle(cx)
            extra = SimplicialComplex.from_facets([[(-v,) for v in range(1, vertices(sub) + 1)]])
            return SimplicialComplex(sub.simplices | extra.simplices)

        return extended

    return wrap


# a disjoint simplex one dimension up, and one isolated vertex
_HIGHER_SIMPLEX = _extra_simplex(lambda sub: sub.dim + 2)
_ISOLATED_VERTEX = _extra_simplex(lambda sub: 1)


def _denominator_bumped(oracle):
    def bumped(d, chi, f_top):
        num, den, exponent = oracle(d, chi, f_top)
        return num, den + 1, exponent

    return bumped


def _first_interior_moved(roots):
    "The first interior root (x + iy) / 2^e moved 2^-8 to the right."
    z = roots[1]
    return (roots[0], z._replace(x=z.x + (1 << z.e - 8)), *roots[2:])


_interior_shifted = _roots_edited(_first_interior_moved)


def _runs_edited(edit):
    "An alpha_scan oracle whose runs pass through edit(runs) first."

    def wrap(oracle):
        def edited(n_max):
            scan = oracle(n_max)
            return AlphaScan(scan.n_max, edit(scan.runs))

        return edited

    return wrap


def _chi_rotated_at_30(runs):
    "The run holding n = 30 with its chi rotated by one, as a list."
    return tuple(
        run._replace(chi=[*run.chi[1:], *run.chi[:1]])
        if run.lo <= 30 < run.lo + len(run.chi)
        else run
        for run in runs
    )


def _first_dim_2(runs):
    "The first run with its dimension set to 2."
    return (runs[0]._replace(dim=2), *runs[1:])


def _second_top_bumped(runs):
    "The second run, n = 10..13, with its top face count one too large."
    return (runs[0], runs[1]._replace(f_top=runs[1].f_top + 1), *runs[2:])


_BROKEN_ORACLES = [
    ("_check_count_routes", "subdivision_count_recurrence", _value_bumped((2, 5), 1),
     "count-closed-form-vs-recurrence", "(i=2, d=5): 540 != 541"),
    ("_check_transfer_structure", "transfer_matrix", _bumped(4, 1, 0),
     "transfer-upper-triangular-factorial-diagonal", "lower entry (i=1, j=0, d=4)"),
    ("_check_shift_inverse", "shift_matrix_inverse", _bumped(3, 0, 0),
     "shift-matrix-inverse", "d=3"),
    ("_check_similarity", "descent_matrix", _bumped(6, 0, 0),
     "transfer-descent-similarity", "d=6"),
    ("_check_descent_bruteforce", "descent_matrix_bruteforce", _bumped(2, 0, 0),
     "descent-recurrence-vs-enumeration", "d=2"),
    ("_check_explicit_f_vectors", "summary", _top_face_bumped,
     "explicit-complex-face-counts", "n=30: f-vector mismatch"),
    ("_check_trajectory_dim1", "trajectory", _entries_replaced(ambiguous=True),
     "trajectory-dim1-convergence", "k=4: extreme roots flagged ambiguous"),
    ("_check_alpha_identity", "alpha_fields", _denominator_bumped,
     "alpha-defining-identity", "n=6: defining identity broken"),
    pytest.param("_check_alpha_identity", "alpha_scan", _runs_edited(_chi_rotated_at_30),
                 "alpha-defining-identity", "n=30: Euler characteristic disagrees with sieve",
                 id="alpha-defining-identity-euler"),
    pytest.param("_check_alpha_identity", "alpha_scan", _runs_edited(_first_dim_2),
                 "alpha-defining-identity", "n=6: dimension 2 wrong or below 1",
                 id="alpha-defining-identity-dimension"),
    # a run that holds neither spot value: only the count over the faces sees it
    pytest.param("_check_alpha_identity", "alpha_scan", _runs_edited(_second_top_bumped),
                 "alpha-defining-identity", "n=10: top face count 3 != 2 from the faces",
                 id="alpha-defining-identity-top-faces"),
    ("_check_transfer_eigenvector", "eigen_rationals", _coefficient_bumped(3, 1, Fraction(1, 7)),
     "transfer-eigenvector", "d=3"),
    ("_check_chain_formula", "eigen_rationals_direct", _value_bumped((4, 1), 1),
     "eigen-chain-sum-formula", "(i=1, d=4)"),
    ("_check_descent_rotation", "descent_matrix", _bumped(5, 1, 2),
     "descent-rotational-symmetry", "(i=1, j=2, d=5)"),
    ("_check_descent_two_powers", "descent_matrix", _bumped(5, 0, 2),
     "descent-first-row-two-powers", "(j=2, d=5)"),
    ("_check_descent_monotone_chain", "descent_matrix", _bumped(2, 0, 0),
     "descent-monotone-chain", "d=2, position 2: 5 > 4"),
    ("_check_limit_h_eigenvector", "descent_matrix", _bumped(5, 1, 2),
     "descent-eigenvector", "d=5"),
    ("_check_limit_h_structure", "limit_h_coefficients", _coefficient_bumped(3, 2, Fraction(1, 5)),
     "limit-h-structure", "d=3: coefficient sum 6/5 != 1"),
    ("_check_limit_h_first_bounds", "limit_h_coefficients", _coefficient_bumped(2, 1, 10),
     "limit-h-linear-coefficient-bounds", "d=2: upper bound"),
    ("_check_det_sign_random", "det_sign_check", _sign_flipped_at_size_3,
     "determinant-sign-random", "instance 2 (n=3): sign 1 != -1"),
    ("_check_explicit_subdivision", "subdivided_f", _depth_one_top_bumped,
     "explicit-subdivision-vs-transfer", "n=6, k=1: f-vector mismatch"),
    ("_check_random_subdivision_invariance", "subdivided_f", _depth_one_top_bumped,
     "random-subdivision-invariance", "instance 0: f-vector != transfer matrix product"),
    ("_check_growth_expansion", "subdivided_f", _depth_one_top_bumped,
     "growth-expansion-exact", "n=6, k=1, i=1: closed form mismatch"),
    ("_check_trajectory_dim2", "trajectory", _interior_shifted,
     "trajectory-dim2-snapshot", "interior root and product 0.00394765 away from -1"),
    ("_check_trajectory_dim2_deeper", "trajectory", _interior_shifted,
     "trajectory-dim2-interior-deep", "interior root still 0.00390676 away from -1 at k=16"),
    # one case per remaining failure branch, so each check's every branch fires
    pytest.param("_check_transfer_structure", "transfer_matrix", _bumped(4, 1, 1),
                 "transfer-upper-triangular-factorial-diagonal", "diagonal (i=1, d=4)",
                 id="transfer-upper-triangular-factorial-diagonal-entry"),
    pytest.param("_check_limit_h_structure", "limit_h_coefficients",
                 _coefficients_edited(3, lambda c: c[:-1]),
                 "limit-h-structure", "d=3: wrong length", id="limit-h-structure-length"),
    pytest.param("_check_limit_h_structure", "limit_h_coefficients", _coefficient_bumped(3, 0, 1),
                 "limit-h-structure", "d=3: nonzero end coefficient", id="limit-h-structure-ends"),
    pytest.param("_check_limit_h_structure", "limit_h_coefficients", _coefficient_bumped(3, 2, -1),
                 "limit-h-structure", "d=3: interior coefficient not positive",
                 id="limit-h-structure-interior"),
    pytest.param("_check_limit_h_structure", "limit_h_coefficients",
                 _coefficients_edited(3, lambda c: (c[0], c[1] + Fraction(1, 100),
                                                    c[2] - Fraction(1, 100), *c[3:])),
                 "limit-h-structure", "d=3: not palindromic", id="limit-h-structure-palindrome"),
    pytest.param("_check_limit_h_structure", "eigen_rationals",
                 _coefficient_bumped(3, 1, Fraction(1, 7)),
                 "limit-h-structure", "d=3: linear coefficient mismatch",
                 id="limit-h-structure-linear"),
    pytest.param("_check_limit_h_first_bounds", "limit_h_coefficients",
                 _coefficients_edited(2, lambda c: (c[0], 0, *c[2:])),
                 "limit-h-linear-coefficient-bounds", "d=2: lower bound",
                 id="limit-h-linear-coefficient-bounds-lower"),
    pytest.param("_check_first_negative", "chi_profile", _chi_at_94_doubled,
                 "first-negative-euler", "chi(94) = -2, expected -1", id="first-negative-euler-value"),
    pytest.param("_check_random_subdivision_invariance", "_random_complex",
                 lambda oracle: lambda rng: SimplicialComplex.from_facets([range(100, 111)]),
                 "random-subdivision-invariance", "instance 0: generator exceeded 1000 simplices",
                 id="random-subdivision-invariance-generator"),
    pytest.param("_check_random_subdivision_invariance", "barycentric_subdivide", _HIGHER_SIMPLEX,
                 "random-subdivision-invariance", "instance 0: dimension changed",
                 id="random-subdivision-invariance-dimension"),
    pytest.param("_check_random_subdivision_invariance", "barycentric_subdivide", _ISOLATED_VERTEX,
                 "random-subdivision-invariance", "instance 0: Euler characteristic changed",
                 id="random-subdivision-invariance-euler"),
    # the Euler branch adds one failure per (n, k): (+3 more) without it
    pytest.param("_check_explicit_subdivision", "barycentric_subdivide", _ISOLATED_VERTEX,
                 "explicit-subdivision-vs-transfer", "n=6, k=1: f-vector mismatch (+7 more)",
                 id="explicit-subdivision-vs-transfer-euler"),
    # one dimension up: the f-vector, dimension and Euler branches for every (n, k)
    pytest.param("_check_explicit_subdivision", "barycentric_subdivide", _HIGHER_SIMPLEX,
                 "explicit-subdivision-vs-transfer", "n=6, k=1: f-vector mismatch (+11 more)",
                 id="explicit-subdivision-vs-transfer-dimension"),
    pytest.param("_check_growth_expansion", "growth_expansion", _growth_bumped(0, 1),
                 "growth-expansion-exact", "n=6: Q_0 is not f_top times the limit h-polynomial",
                 id="growth-expansion-exact-leading"),
    # Q_1 of n = 30 (d = 2): a constant term that must be 0, with Q_0 and Q_d right
    pytest.param("_check_growth_expansion", "growth_expansion", _growth_bumped(1, 0, dim=2),
                 "growth-expansion-exact", "n=30, j=1: constant term -1",
                 id="growth-expansion-exact-constant"),
    pytest.param("_check_growth_expansion", "alpha_fields", _denominator_bumped,
                 "growth-expansion-exact", "n=6: alpha is not (-1)^d Q_d(0) / Q_0'(0)",
                 id="growth-expansion-exact-alpha"),
    pytest.param("_check_growth_expansion", "growth_expansion", _growth_bumped(1, 2),
                 "growth-expansion-exact", "n=6, i=1, j=1: expected zero coefficient",
                 id="growth-expansion-exact-zero"),
    # (id label, broken trajectory, first failure)
    *(
        pytest.param(check, "trajectory", broken, name, first, id=f"{name}-{label}")
        for check, name, cases in [
            ("_check_trajectory_dim1", "trajectory-dim1-convergence", [
                ("sum_rel_err", _entries_replaced(sum_rel_err=1),
                 "k=0: coefficient identity error above 1e-9"),
                ("ratio_inf", _entries_replaced(ratio_inf=2), "k=4: largest-root ratio off by 1"),
                ("scaled_rho0", _entries_replaced(scaled_rho0=2),
                 "k=4: scaled smallest root off by 1"),
                ("rho_inf_real", _rho_inf_set(_NOT_REAL), "k=4: largest root not certified real"),
                ("rho_inf", _rho_inf_set(rootfinding.Dyadic(1, 0, 0)),
                 "k=4: largest root not negative"),
            ]),
            ("_check_trajectory_dim2", "trajectory-dim2-snapshot", [
                ("ratio_inf", _entries_replaced(ratio_inf=2), "largest-root ratio off by 1"),
                ("scaled_rho0", _entries_replaced(scaled_rho0=7), "scaled smallest root off by 1"),
                ("interior", _roots_edited(lambda roots: (roots[0], roots[-1])),
                 "expected one interior root, got 0"),
                ("rho_inf_real", _rho_inf_set(_NOT_REAL), "largest root not certified real"),
                ("rho_inf", _rho_inf_set(rootfinding.Dyadic(1, 0, 0)), "largest root not negative"),
                ("sum_rel_err", _entries_replaced(sum_rel_err=1),
                 "coefficient identity error above 1e-9"),
                ("ambiguous", _entries_replaced(ambiguous=True), "extreme roots flagged ambiguous"),
            ]),
        ]
        for label, broken, first in cases
    ),
]


@pytest.mark.parametrize(
    "check, oracle, broken, name, first",
    _BROKEN_ORACLES,
    # a case's id is its check's name, unless it names its own
    ids=[getattr(case, "id", None) or case[3] for case in _BROKEN_ORACLES],
)
def test_guard_checks_can_fail(monkeypatch, check, oracle, broken, name, first):
    """A check fed one wrong oracle value fails and names that value first;
    a first failure that states its count of the rest must match in full."""
    monkeypatch.setattr(checks, oracle, broken(getattr(checks, oracle)))
    result = getattr(checks, check)()
    assert result.passed is False
    assert result.name == name
    assert (result.detail if " (+" in first else result.detail.partition(" (+")[0]) == first


def test_run_suite_rejects_an_unknown_name():
    with pytest.raises(ValueError) as excinfo:
        checks.run_suite("nope")
    assert str(excinfo.value) == "unknown suite 'nope'; pick all, core, complex or zeros"


def test_verdict_names_the_first_failure_and_counts_the_rest():
    result = checks._verdict("name", ["a", "b", "c"], "scope")
    assert result == checks.CheckResult("name", False, "a (+2 more)")
    assert checks._verdict("name", [], "scope") == checks.CheckResult("name", True, "scope")


def test_range_errors_exit_2(capsys, monkeypatch, tmp_path):
    err = run_cli_error(capsys, "chi", "--from", "0", "--to", "10")
    assert err.startswith("error:")
    run_cli_error(capsys, "chi", "--from", "9", "--to", "3")
    run_cli_error(capsys, "tables", "--kind", "f", "--max-d", "20")
    for n in ("5", "1", "0"):
        err = run_cli_error(capsys, "zeros", "--n", n, "--k", "2")
        assert err == "error: --n must be between 6 and the sieve limit 1000000\n", n
    for bits in ("15", "8193", "14300", "1000000000"):
        err = run_cli_error(capsys, "zeros", "--n", "30", "--k", "2", "--precision-bits", bits)
        assert err == "error: --precision-bits must be between 16 and 8192\n", bits
    for n, k in (("30", "65"), ("30", str(10**20)), ("6", "-1")):
        err = run_cli_error(capsys, "zeros", "--n", n, "--k", k)
        assert err == "error: --k must be between 0 and 64\n", k

    # the library's own errors, past the CLI's checks, end in one line too
    errors = [RootFindingError("residual missed target"), ValueError("a library guard")]

    def fail(*args, **kwargs):
        raise errors.pop(0)

    monkeypatch.setattr("baryzeros.cli.trajectory", fail)
    err = run_cli_error(capsys, "zeros", "--n", "30", "--k", "39")
    assert err == "error: residual missed target\n"
    err = run_cli_error(capsys, "zeros", "--n", "30", "--k", "39")
    assert err == "error: a library guard\n"

    missing = str(tmp_path / "missing" / "x.csv")
    for argv in (("chi", "--to", "10"), ("verify", "--suite", "core")):
        err = run_cli_error(capsys, *argv, "--out", missing)
        assert missing in err, argv
        # an empty --out names no file; only an absent one means stdout
        err = run_cli_error(capsys, *argv, "--out", "")
        assert err == "error: [Errno 2] No such file or directory: ''\n", argv

    # Every check runs before the first byte: no --out file, no stdout.
    target = tmp_path / "x.csv"
    err = run_cli_error(capsys, "chi", "--to", "0", "--out", str(target))
    assert err == "error: need 1 <= --from <= --to\n"
    assert not target.exists()
    monkeypatch.setenv("BARYZEROS_SIEVE_LIMIT", "50")
    err = run_cli_error(capsys, "alpha", "--to", "51")
    assert err == "error: --to must be between 1 and the sieve limit 50\n"
    monkeypatch.delenv("BARYZEROS_SIEVE_LIMIT")

    monkeypatch.setattr("baryzeros.complexes._shared_sieve", None)
    monkeypatch.setattr("baryzeros.complexes.SIEVE_MEMORY_BUDGET", 100)
    err = run_cli_error(capsys, "chi", "--to", "1000", "--out", str(target))
    assert err == "error: sieve limit 4096 exceeds the configured budget 100\n"
    assert not target.exists()


@pytest.mark.parametrize(
    "certifier, message",
    [
        ("_disks", "error: the root enclosures of a degree-"),
        ("_rounded", "error: a real root's rounding to "),
    ],
    ids=["disks", "rounding"],
)
def test_uncertified_roots_exit_2_without_fallback(capsys, monkeypatch, certifier, message):
    """Disks that never separate, or a real root whose rounding no sign
    bracket certifies, end zeros in one error line and exit 2."""
    monkeypatch.setattr(rootfinding, certifier, lambda *args: None)
    err = run_cli_error(capsys, "zeros", "--n", "37", "--k", "3")
    assert err.startswith(message)
    assert "retry with higher precision" in err


@pytest.mark.parametrize(
    "argv", [("alpha", "--n", "6"), ("zeros", "--n", "6", "--k", "2")], ids=["alpha", "zeros"]
)
def test_failed_cross_check_exits_2(capsys, monkeypatch, argv):
    "A chi = -M mismatch in summary ends the command in one error line, no traceback."
    table = shared_sieve(6)
    skewed = array("i", table.chi)
    skewed[6] -= 1
    monkeypatch.setattr(complexes, "_shared_sieve", table._replace(chi=skewed))
    err = run_cli_error(capsys, *argv)
    assert err == "error: euler characteristic 1 and Mertens value 0 disagree at n=6\n"


def test_bad_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["tables", "--kind", "q", "--max-d", "2"])
    assert excinfo.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ("alpha", "--n", "abc"),
        ("alpha", "--n", "1e3"),
        ("zeros", "--n", "30", "--precision-bits", "15"),
        ("chi", "--to", "44", "--format", "xml"),
        ("verify", "--suite", "nope"),
        ("alpha",),
        (),
    ],
    ids=["not-int", "float-text", "missing-k", "bad-format", "bad-suite", "no-target", "no-command"],
)
def test_usage_errors_are_one_line(capsys, argv):
    """argparse's own errors end as the CLI's do: exit 2, no stdout and
    one stderr line starting with error:."""
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    captured = capsys.readouterr()
    assert (excinfo.value.code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err


@pytest.mark.parametrize(
    "text, digits", [("30_0", "300"), ("\u0663\u0660", "30")], ids=["underscore", "arabic-indic"]
)
def test_option_values_are_read_with_int(capsys, text, digits):
    "Option values are read with int(), so its other spellings of a number are accepted."
    assert run_cli(capsys, "alpha", "--n", text) == run_cli(capsys, "alpha", "--n", digits)


# The contract's grammar: every subcommand and option, each value good
# (in range, or one of the choices) or bad (at a bound: 0, 1, each cap and
# cap + 1; or empty, negative, float text or not a number); options left
# out or repeated, an unknown flag, a bad --format, and --out to a fresh
# file, into a missing directory or empty.  Each fault is drawn once in
# 20, so most commands succeed.  Sizes stay cheap: a sieve limit of 500 to
# 5000, --k at most 8 and 16 to 64 bits.
_BAD_TEXT = st.sampled_from(["", "-7", "2.5", "1e3", "abc"])
_RARELY = st.sampled_from([False] * 19 + [True])


def _number(low: int, high: int, bounds: list) -> tuple:
    "(good, bad) values of an integer option."
    return st.integers(low, high).map(str), st.sampled_from(list(map(str, bounds))) | _BAD_TEXT


@st.composite
def _commands(draw) -> tuple:
    "(sieve limit, argv, --out target kind) for one command of the grammar."
    limit = draw(st.integers(500, 5000))
    sized = _number(1, limit, [0, 1, limit, limit + 1])
    # alpha takes one of its two targets, or rarely both
    targets = ["--n", "--to"] if draw(_RARELY) else [draw(st.sampled_from(["--n", "--to"]))]
    options = {
        "tables": {
            "--kind": (st.sampled_from(["f", "F", "H", "Hmatrix"]), st.sampled_from(["q", ""])),
            "--max-d": _number(0, 16, [-1, 0, 16, 17]),
        },
        "chi": {"--from": sized, "--to": sized},
        "alpha": dict.fromkeys(targets, sized),
        "zeros": {
            "--n": sized,
            "--k": _number(0, 8, [-1, 0, 65]),
            "--precision-bits": _number(16, 64, [15, 16, 8193]),
        },
        "verify": {
            "--suite": (st.sampled_from(["all", "core", "complex", "zeros"]), st.just("nope"))
        },
    }
    # verify is the slowest command, so it is drawn once in 17
    command = draw(st.sampled_from(["tables", "chi", "alpha", "zeros"] * 4 + ["verify"]))
    argv = [command]
    for option, (good, bad) in options[command].items():
        if not draw(_RARELY):
            argv += [option, draw(bad if draw(_RARELY) else good)]
    if draw(st.booleans()):
        formats = ["xml", ""] if draw(_RARELY) else ["csv", "json"]
        argv += ["--format", draw(st.sampled_from(formats))]
    if draw(_RARELY):
        argv += argv[1:3]
    if draw(_RARELY):
        argv.append("--bogus")
    outs = ["missing", "empty"] if draw(_RARELY) else [None, "file"]
    return limit, argv, draw(st.sampled_from(outs))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=_commands())
# an --n past P_16 under a cap that admits it reaches dim_of's ValueError
@example(case=(10**20, ["alpha", "--n", str(10**20)], None))
def test_cli_contract(case):
    """Every drawn command ends in one of three ways.  Exit 0, with no
    stderr and output that parses (CSV rows of one width, or JSON), in
    stdout or, with stdout empty, in the --out file.  Exit 2, with no
    stdout, no --out file and one stderr line starting error:.  Or, for
    verify only, exit 1 with its FAIL lines.  A traceback fails the test."""
    limit, argv, out = case
    saved = os.environ.get("BARYZEROS_SIEVE_LIMIT")
    os.environ["BARYZEROS_SIEVE_LIMIT"] = str(limit)
    try:
        with tempfile.TemporaryDirectory() as scratch:
            target = {
                None: None,
                "file": os.path.join(scratch, "out"),
                "missing": os.path.join(scratch, "missing", "out"),
                "empty": "",
            }[out]
            if target is not None:
                argv = [*argv, "--out", target]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            written = bool(target) and os.path.exists(target)
            text = Path(target).read_text(encoding="utf-8") if written else stdout.getvalue()
    finally:
        if saved is None:
            os.environ.pop("BARYZEROS_SIEVE_LIMIT", None)
        else:
            os.environ["BARYZEROS_SIEVE_LIMIT"] = saved
    err = stderr.getvalue()
    if code == 2:
        assert (stdout.getvalue(), written) == ("", False), argv
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), argv
        return
    assert err == "", argv
    if target:
        assert written and stdout.getvalue() == "", argv
    if argv[0] == "verify":
        *lines, tally = text.splitlines()
        failed = sum(line.startswith("FAIL ") for line in lines)
        assert all(line.startswith(("PASS ", "FAIL ")) for line in lines), argv
        assert tally == f"{len(lines) - failed} passed, {failed} failed", argv
        assert code == (1 if failed else 0), argv
    elif build_parser().parse_args(argv).format == "json":
        assert code == 0 and isinstance(json.loads(text)["rows"], list), argv
    else:
        rows = list(csv.reader(io.StringIO(text)))
        assert code == 0 and len({len(row) for row in rows}) == 1, argv


def test_sieve_limit_env_override(capsys, monkeypatch):
    monkeypatch.setenv("BARYZEROS_SIEVE_LIMIT", "50")
    err = run_cli_error(capsys, "chi", "--from", "1", "--to", "100")
    assert "error:" in err
    monkeypatch.setenv("BARYZEROS_SIEVE_LIMIT", "not-a-number")
    run_cli_error(capsys, "chi", "--from", "1", "--to", "10")


_N_RANGE = "--n must be between 1 and the sieve limit 1000000"
# zeros takes n from 6, the first n of dimension 1
_ZEROS_N_RANGE = "--n must be between 6 and the sieve limit 1000000"


@pytest.mark.parametrize(
    "env, argv, message",
    [
        ("0", ("chi", "--to", "10"), "BARYZEROS_SIEVE_LIMIT must be positive, got 0"),
        ("-3", ("chi", "--to", "10"), "BARYZEROS_SIEVE_LIMIT must be positive, got -3"),
        (None, ("alpha", "--n", "0"), _N_RANGE),
        (None, ("alpha", "--n", "1000001"), _N_RANGE),
        (None, ("zeros", "--n", "0", "--k", "2"), _ZEROS_N_RANGE),
        (None, ("zeros", "--n", "1000001", "--k", "2"), _ZEROS_N_RANGE),
    ],
)
def test_range_guards_exit_2(capsys, monkeypatch, env, argv, message):
    "Out-of-range limits and n end in one error line, exit 2 and no stdout."
    monkeypatch.delenv("BARYZEROS_SIEVE_LIMIT", raising=False)
    if env is not None:
        monkeypatch.setenv("BARYZEROS_SIEVE_LIMIT", env)
    assert run_cli_error(capsys, *argv) == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [("chi", "--to"), ("alpha", "--to"), ("alpha", "--n"), ("zeros", "--k", "1", "--n")],
    ids=["chi-to", "alpha-to", "alpha-n", "zeros-n"],
)
def test_every_sieve_sized_option_has_one_cap(capsys, monkeypatch, argv):
    "Each sieve-sized option accepts the cap itself and rejects one more, in one message."
    monkeypatch.setenv("BARYZEROS_SIEVE_LIMIT", "50")
    assert main([*argv, "50"]) == 0
    assert capsys.readouterr().err == ""
    err = run_cli_error(capsys, *argv, "51")
    least = 6 if argv[0] == "zeros" else 1
    assert err == f"error: {argv[-1]} must be between {least} and the sieve limit 50\n"


def test_zeros_accepts_the_depth_cap(capsys):
    "--k takes the depth cap itself; one more is the range error above."
    rows = list(csv.DictReader(io.StringIO(run_cli(capsys, "zeros", "--n", "6", "--k", "64"))))
    assert [int(row["k"]) for row in rows] == list(range(65))


def test_missed_residual_target_exits_2(capsys, monkeypatch):
    "A residual above its target ends zeros in the gate's one error line."
    monkeypatch.setattr(rootfinding, "_residual", lambda *args: (1, 1))
    err = run_cli_error(capsys, "zeros", "--n", "30", "--k", "2")
    assert err == (
        "error: residual 1.0 missed target 1.2621774e-29 at 192 bits; "
        "retry with higher precision\n"
    )


@pytest.mark.parametrize("code", [0, 1, 2])
def test_run_exits_with_mains_code_after_main_returns(monkeypatch, code):
    "cli.run freezes the collector only once main has returned, then exits with its code."
    events = []

    def fake_main():
        events.append("main")
        return code

    monkeypatch.setattr(cli, "main", fake_main)
    # patched, so that this process is never frozen
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    with pytest.raises(SystemExit) as excinfo:
        cli.run()
    assert (excinfo.value.code, events) == (code, ["main", "freeze"])


class _FailingStdout(io.StringIO):
    "A stdout whose flush raises error, as a full device or a gone reader does."

    def __init__(self, error: OSError):
        super().__init__()
        self.error = error

    def flush(self):
        raise self.error

    def fileno(self):
        return 1


FULL = OSError(28, "No space left on device")


@pytest.mark.parametrize(
    "leaves, error, code, err",
    [
        (SystemExit(0), FULL, 2, "error: [Errno 28] No space left on device\n"),
        (SystemExit(0), BrokenPipeError(32, "Broken pipe"), 0, ""),
        (2, FULL, 2, ""),
        (FULL, FULL, 2, "error: [Errno 28] No space left on device\n"),
        (BrokenPipeError(32, "Broken pipe"), FULL, 0, ""),
    ],
    ids=[
        "help-full",
        "help-closed-pipe",
        "main-returned",
        "help-write-full",
        "help-write-closed-pipe",
    ],
)
def test_run_ends_a_failed_flush_once(capsys, monkeypatch, leaves, error, code, err):
    """A flush that fails after argparse's SystemExit (--help), or a write
    of argparse's that fails in main (stdout unbuffered), is the command's
    one error line, or a quiet end for a closed pipe; after main has
    returned, main has already reported it.  Either way stdout then points
    at devnull."""

    def fake_main():
        if isinstance(leaves, BaseException):
            raise leaves
        return leaves

    moved = []
    monkeypatch.setattr(cli, "main", fake_main)
    monkeypatch.setattr(gc, "freeze", lambda: None)
    # undone at once: the test runner's own capture calls os.dup2
    with monkeypatch.context() as patch, pytest.raises(SystemExit) as excinfo:
        patch.setattr(sys, "stdout", _FailingStdout(error))
        patch.setattr(os, "dup2", lambda fd, to: moved.append(to) or os.close(fd))
        cli.run()
    assert (excinfo.value.code, capsys.readouterr().err, moved) == (code, err, [1])


@pytest.mark.parametrize(
    "argv, out, code",
    [
        (("chi", "--to", "100000"), False, 0),
        (("chi", "--to", "100000"), True, 0),
        (("zeros", "--n", "30", "--k", "4", "--format", "json"), True, 0),
        (("chi", "--from", "9", "--to", "3"), False, 2),
        (("--help",), False, 0),
    ],
    ids=["chi", "chi-out", "zeros-json-out", "range-error", "help"],
)
def test_module_entry_point(capsysbinary, monkeypatch, tmp_path, argv, out, code):
    """python -m baryzeros, stdout read from a pipe or written to --out,
    prints the bytes and exits with the code of an in-process main run."""
    # argparse wraps --help to the terminal's width
    monkeypatch.setenv("COLUMNS", "80")
    try:
        assert main(list(argv)) == code
    except SystemExit as exc:  # --help
        assert exc.code == code
    expected = capsysbinary.readouterr()
    target = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "baryzeros", *argv, *(("--out", str(target)) if out else ())],
        capture_output=True,
        env={**CHILD_ENV, "COLUMNS": "80"},
    )
    assert (proc.returncode, proc.stderr) == (code, expected.err)
    if out:
        assert (proc.stdout, target.read_bytes()) == (b"", expected.out)
    else:
        assert proc.stdout == expected.out
    if code == 2:
        assert proc.stderr.startswith(b"error:") and proc.stderr.count(b"\n") == 1


def test_closed_stdout_pipe_ends_quietly():
    "A reader that stops early (| head -c 5) is a normal end: exit 0, no stderr."
    for argv, head in (
        (("chi", "--to", "50000", "--format", "json"), b'{\n  "'),
        (("alpha", "--to", "30"), b""),
        # one line read of an output larger than a pipe buffer
        (("chi", "--to", "100000"), b"n,chi,mertens,dim\n"),
        (("alpha", "--to", "100000", "--format", "json"), b"{\n"),
    ):
        proc = subprocess.Popen(
            [sys.executable, "-m", "baryzeros", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=CHILD_ENV,
        )
        assert proc.stdout.read(len(head)) == head
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (0, b""), argv


_FULL_ARGV = {
    "chi": ("chi", "--to", "10"),
    "zeros-json": ("zeros", "--n", "30", "--k", "3", "--format", "json"),
    "tables": ("tables", "--kind", "f", "--max-d", "3"),
    "help": ("zeros", "--help"),
}


@pytest.mark.parametrize(
    "argv, unbuffered",
    [
        pytest.param(argv, unbuffered, id=name + "-unbuffered" * unbuffered)
        for unbuffered in (False, True)
        for name, argv in _FULL_ARGV.items()
    ],
)
def test_full_stdout_is_one_error_line(argv, unbuffered):
    """A write to a full device is one error line and exit 2, with stdout
    buffered or not (PYTHONUNBUFFERED): the flush at exit does not fail a
    second time.  argparse's --help leaves main through SystemExit with its
    text still buffered, or has its failed write raised out of main, and
    ends the same way."""
    env = {k: v for k, v in CHILD_ENV.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "baryzeros", *argv], stdout=full, stderr=subprocess.PIPE, env=env
        )
    assert (proc.returncode, proc.stderr) == (2, b"error: [Errno 28] No space left on device\n")


def test_tracer_sites_resolve():
    "Every name the benchmark tracer wraps exists where its callers look it up."
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name, modules in tracer.SITES.items():
        home, attr = name.rsplit(".", 1)
        for module_name in (home, *modules):
            module = importlib.import_module(f"baryzeros.{module_name}")
            assert callable(getattr(module, attr, None)), (name, module_name)
    spans = {f"checks.{suite.__name__}" for suite in SUITES.values()}
    assert spans == set(tracer.SUITE_SPANS)


@pytest.mark.parametrize(
    "argv",
    [
        ("chi", "--to", "300"),
        ("alpha", "--to", "300"),
        ("zeros", "--n", "30", "--k", "3"),
        ("verify", "--suite", "core"),
        ("verify", "--suite", "all"),
    ],
    ids=["chi", "alpha", "zeros", "verify", "verify-all"],
)
def test_traced_run_prints_the_same_bytes(tmp_path, argv):
    """The benchmark's traced mode runs each command kind to the CLI's own
    stdout.  The spans are this process's: a forked verify worker leaves
    without the tracer's exit, so it writes neither spans nor stdout."""
    spans = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(TRACER), "--spans", str(spans), "--", *argv],
        capture_output=True,
        env=CHILD_ENV,
    )
    plain = subprocess.run(
        [sys.executable, "-m", "baryzeros", *argv], capture_output=True, env=CHILD_ENV
    )
    assert (traced.returncode, plain.returncode) == (0, 0), traced.stderr
    assert traced.stdout == plain.stdout
    names = [span[0] for span in json.loads(spans.read_text())["spans"]]
    assert names[0] == "tracer"
    if argv[-1] == "all":
        # with one CPU the complex suite runs here, at its place
        suites = ["checks.core_suite", "checks.complex_suite", "checks.zeros_suite"]
        if len(os.sched_getaffinity(0)) > 1:
            suites.remove("checks.complex_suite")
        assert [name for name in names if name.startswith("checks.")] == suites


# Runs one command in a fresh interpreter (with no command, only imports
# the package and its CLI) and reports, as the last line of stderr, its
# exit code and which of the heavy modules it imported that the bare
# interpreter had not (site may preload some).  dataclasses and inspect
# are on the list so that no record idiom brings them back; the probe
# reads sys.modules before it imports json itself.
_LOADED_PROBE = """
import sys
bare = set(sys.modules)
from baryzeros.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
sys.stdout.flush()
heavy = (
    "mpmath", "baryzeros.checks", "baryzeros.rootfinding", "dataclasses", "inspect", "csv", "json"
)
heavy = [m for m in heavy if m in sys.modules and m not in bare]
import json
sys.stderr.write(json.dumps([code, heavy]))
"""


@pytest.mark.parametrize(
    "argv, loaded",
    [
        ((), []),
        (("chi", "--to", "50"), ["csv"]),
        (("alpha", "--to", "50"), ["csv"]),
        (("alpha", "--n", "50"), ["csv"]),
        (("tables", "--kind", "f", "--max-d", "3"), ["csv"]),
        (("zeros", "--n", "30", "--k", "2"), ["baryzeros.rootfinding", "csv"]),
        (("verify", "--suite", "core"), ["baryzeros.checks"]),
        (("verify", "--suite", "complex"), ["baryzeros.checks"]),
        (("verify", "--suite", "zeros"), ["baryzeros.checks", "baryzeros.rootfinding"]),
        (("verify", "--suite", "all"), ["baryzeros.checks", "baryzeros.rootfinding"]),
        (("chi", "--to", "50", "--format", "json"), ["json"]),
        (("alpha", "--to", "50", "--format", "json"), ["json"]),
        (("tables", "--kind", "H", "--max-d", "3", "--format", "json"), ["json"]),
        (("zeros", "--n", "30", "--k", "2", "--format", "json"), ["baryzeros.rootfinding", "json"]),
    ],
    ids=[
        "import",
        "chi",
        "alpha-to",
        "alpha-n",
        "tables",
        "zeros",
        "verify",
        "verify-complex",
        "verify-zeros",
        "verify-all",
        "chi-json",
        "alpha-json",
        "tables-json",
        "zeros-json",
    ],
)
def test_commands_load_only_what_they_run(argv, loaded):
    """mpmath loads for no command, the verify suites for no command but
    verify, the root finder only for zeros and the zeros suite, csv only
    for CSV output and json only for JSON output, and dataclasses and
    inspect for none."""
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_PROBE, *argv],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert json.loads(proc.stderr.splitlines()[-1]) == [0, loaded], proc.stderr


# Names that only verify and the tests use, each with the module that
# defines it; the package root does not export them.
_HOME_ONLY = {
    "subdivision": (
        "descent_matrix_bruteforce",
        "det_sign_check",
        "eigen_rationals_direct",
        "shift_matrix_inverse",
        "subdivision_count_recurrence",
    ),
    "complexes": ("SimplicialComplex", "barycentric_subdivide", "explicit_complex"),
    "checks": (
        "CheckResult",
        "complex_suite",
        "core_suite",
        "first_negative_euler",
        "run_suite",
        "zeros_suite",
    ),
}


def test_package_names_resolve():
    """Every public name resolves, and each oracle and suite name resolves
    in the module that defines it and nowhere in the package root."""
    for name in baryzeros.__all__:
        assert getattr(baryzeros, name) is not None, name
    assert set(baryzeros.__all__) <= set(dir(baryzeros))
    for home, names in _HOME_ONLY.items():
        module = importlib.import_module(f"baryzeros.{home}")
        for name in names:
            assert getattr(module, name).__module__ == module.__name__, name
            assert not hasattr(baryzeros, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        baryzeros.no_such_name
