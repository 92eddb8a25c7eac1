"""Record what the command line prints on a fixed probe list, and compare.

Usage, from anywhere::

    python tools/samebytes.py record OUT.json [--src DIR]
    python tools/samebytes.py compare A.json B.json

``record`` imports ``baryzeros`` from DIR (default: this checkout's
``src``) and runs every probe in this process through ``cli.main``, with
``BARYZEROS_SIEVE_LIMIT`` set or unset as the probe says and the working
directory in a fresh temporary directory, so that no ``--out`` path lands
in a checkout.  argparse's ``SystemExit`` counts as the exit code it
carries; any other exception is recorded as its type and message.  For
each probe it writes the sha256 of stdout and of stderr and the exit code.
A few probes (ids starting ``-m``) run as ``python -m baryzeros`` child
processes from DIR instead, so that the process entry is compared too;
one that writes ``--out`` also records the sha256 of that file.

``compare`` names each probe whose record differs between the two files,
or that only one of them holds, and exits 1 if there is any.

The probes are every distinct command of the benchmark's ``scan``,
``zeros`` and ``verify`` workloads at seeds 1-3 (read through
``perfbench/workloads.py``, which is only imported) plus a fixed list:
the scans at 10^6, point lookups, every table, every suite, ``zeros``
across dimensions and precisions and at the depth cap, and the error
paths that exit 2.  The child probes are a scan, a ``zeros``, a suite,
``verify --suite all`` (whose complex suite runs in a forked worker when
the process may use more than one CPU), a JSON ``--out``, an error that
exits 2, ``--help`` and ``zeros --help`` (whose ``--precision-bits`` line
prints the precision floor).  Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIEVE_LIMIT_ENV = "BARYZEROS_SIEVE_LIMIT"
SEEDS = (1, 2, 3)
SECONDS = 15


class _Digest(io.TextIOBase):
    "A text stream that keeps only the sha256 of what is written to it."

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text):
        self.hash.update(text.encode())
        return len(text)


def _workload_commands() -> list[tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location(
        "samebytes_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [
        tuple(command.argv)
        for name in ("scan", "zeros", "verify")
        for seed in SEEDS
        for command in workloads.commands_for(name, seed, SECONDS)
    ]


def probes() -> list[tuple[str | None, tuple[str, ...]]]:
    "(sieve limit or None, argv) pairs, each once, in a fixed order."
    found = [(None, argv) for argv in _workload_commands()]
    for command in ("chi", "alpha"):
        found += [
            (None, (command, "--to", "1000000")),
            (None, (command, "--to", "1000000", "--format", "json")),
        ]
    found += [(None, ("alpha", "--n", str(n))) for n in (1, 5, 6, 219, 99000)]
    found += [
        (None, ("tables", "--kind", kind, "--max-d", str(d), *fmt))
        for kind in ("f", "F", "H", "Hmatrix")
        for d in range(17)
        for fmt in ((), ("--format", "json"))
    ]
    found += [(None, ("verify", "--suite", s)) for s in ("all", "core", "complex", "zeros")]
    found += [
        (None, ("zeros", "--n", str(n), "--k", "12", "--precision-bits", str(bits)))
        for n in (6, 7, 30, 37, 210, 2310, 3090, 30030, 510510)
        for bits in (16, 192, 1024)
    ]
    # the depth cap itself
    found.append((None, ("zeros", "--n", "6", "--k", "64")))
    # the error paths of tests/test_cli.py::test_range_errors_exit_2
    missing = os.path.join("missing", "x.csv")
    found += [
        (None, ("chi", "--from", "0", "--to", "10")),
        (None, ("chi", "--from", "9", "--to", "3")),
        (None, ("tables", "--kind", "f", "--max-d", "20")),
        *((None, ("zeros", "--n", n, "--k", "2")) for n in ("5", "1", "0")),
        *(
            (None, ("zeros", "--n", "30", "--k", "2", "--precision-bits", bits))
            for bits in ("15", "8193", "14300", "1000000000")
        ),
        (None, ("zeros", "--n", "30", "--k", "65")),
        (None, ("zeros", "--n", "30", "--k", str(10**20))),
        (None, ("zeros", "--n", "6", "--k", "-1")),
        *(
            (None, (*argv, "--out", out))
            for argv in (("chi", "--to", "10"), ("verify", "--suite", "core"))
            for out in (missing, "")
        ),
        (None, ("chi", "--to", "0", "--out", "x.csv")),
        # one past the default sieve cap, for each bound message
        (None, ("chi", "--to", "1000001")),
        (None, ("alpha", "--to", "1000001")),
        ("50", ("alpha", "--to", "51")),
        ("200000000", ("chi", "--to", "200000000")),
        ("abc", ("chi", "--to", "10")),
        ("0", ("alpha", "--n", "6")),
        # an --n past P_16 under a cap that admits it: dim_of's ValueError
        ("100000000000000000000", ("alpha", "--n", "100000000000000000000")),
        # argparse's own usage errors
        (None, ("alpha", "--n", "abc")),
        (None, ("alpha", "--n", "1e3")),
        (None, ("zeros", "--n", "30", "--precision-bits", "15")),
        (None, ("chi", "--to", "44", "--format", "xml")),
        (None, ("verify", "--suite", "nope")),
        (None, ("alpha",)),
        (None, ()),
    ]
    return list(dict.fromkeys(found))


# Run as ``python -m baryzeros`` children; argparse wraps --help to COLUMNS.
ENTRY_PROBES = (
    ("chi", "--to", "100000"),
    ("zeros", "--n", "30", "--k", "12"),
    ("verify", "--suite", "core"),
    # with more than one CPU, the suites' forked worker
    ("verify", "--suite", "all"),
    ("alpha", "--to", "100000", "--format", "json", "--out", "out.json"),
    ("chi", "--from", "9", "--to", "3"),
    ("--help",),
    ("zeros", "--help"),
)


def probe_id(limit: str | None, argv: tuple[str, ...]) -> str:
    prefix = f"{SIEVE_LIMIT_ENV}={limit} " if limit is not None else ""
    words = " ".join(repr(a) if a == "" or " " in a else a for a in argv)
    return prefix + (words or "(no arguments)")


def _run(main, limit: str | None, argv: tuple[str, ...]) -> dict:
    if limit is None:
        os.environ.pop(SIEVE_LIMIT_ENV, None)
    else:
        os.environ[SIEVE_LIMIT_ENV] = limit
    out, err = _Digest(), _Digest()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is itself a finding
            code = f"{type(exc).__name__}: {exc}"
    return {"stdout": out.hash.hexdigest(), "stderr": err.hash.hexdigest(), "exit": code}


def _run_child(src: Path, argv: tuple[str, ...]) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src.resolve()), "COLUMNS": "80"}
    env.pop(SIEVE_LIMIT_ENV, None)
    proc = subprocess.run([sys.executable, "-m", "baryzeros", *argv], capture_output=True, env=env)
    found = {
        "stdout": hashlib.sha256(proc.stdout).hexdigest(),
        "stderr": hashlib.sha256(proc.stderr).hexdigest(),
        "exit": proc.returncode,
    }
    if "--out" in argv:
        out = Path(argv[argv.index("--out") + 1])
        found["out"] = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
        out.unlink(missing_ok=True)
    return found


def record(path: Path, src: Path) -> int:
    sys.path.insert(0, str(src.resolve()))
    from baryzeros import cli

    saved = os.environ.get(SIEVE_LIMIT_ENV)
    results = {}
    with tempfile.TemporaryDirectory() as scratch:
        here = os.getcwd()
        os.chdir(scratch)
        try:
            for limit, argv in probes():
                results[probe_id(limit, argv)] = _run(cli.main, limit, argv)
            for argv in ENTRY_PROBES:
                results["-m " + probe_id(None, argv)] = _run_child(src, argv)
        finally:
            os.chdir(here)
            if saved is None:
                os.environ.pop(SIEVE_LIMIT_ENV, None)
            else:
                os.environ[SIEVE_LIMIT_ENV] = saved
    path.write_text(
        json.dumps({"package": cli.__file__, "probes": results}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(f"samebytes: {len(results)} probes recorded from {cli.__file__}")
    return 0


def compare(a: Path, b: Path) -> int:
    left, right = (json.loads(p.read_text(encoding="utf-8"))["probes"] for p in (a, b))
    differ = [key for key in dict.fromkeys([*left, *right]) if left.get(key) != right.get(key)]
    for key in differ:
        print(f"differs: {key}")
    print(f"samebytes: {len(differ)} of {len(left.keys() | right.keys())} probes differ")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="samebytes", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run the probes and write their digests")
    rec.add_argument("out", type=Path)
    rec.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding baryzeros")
    cmp_ = sub.add_parser("compare", help="name the probes whose records differ")
    cmp_.add_argument("a", type=Path)
    cmp_.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "record":
        return record(args.out, args.src)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
