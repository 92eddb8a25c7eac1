"""Run the tier-1 suite and pass only on its known state.

Usage, from anywhere::

    python tools/tier1.py [extra pytest arguments]

The suite fails three acceptance tests by design (README, "Known
reference-data discrepancies"), so pytest's own exit code is 1 on every
run and cannot tell that state from a new failure.  This script runs the
tier-1 command::

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

with ``--junitxml`` added, reads each test's outcome from the report and
exits 0 only when every test passed except exactly the three by-design
ones, and nothing errored or was skipped.  It prints the counts and names
each unexpected failure, error, skip or pass.  Only the standard library
is used, besides pytest itself.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

BY_DESIGN = frozenset(
    f"tests/test_acceptance.py::{name}"
    for name in (
        "test_c2_limit_coefficient_table_as_printed",
        "test_c6_interior_root_tolerance_as_stated",
        "test_c7_alpha_table_as_printed",
    )
)


def node_id(classname: str, name: str) -> str:
    """The pytest node id of a JUnit test case: the longest dotted prefix of
    classname that is a file under ROOT is the module, the rest a class."""
    parts = classname.split(".") if classname else []
    for cut in range(len(parts), 0, -1):
        path = "/".join(parts[:cut]) + ".py"
        if (ROOT / path).is_file():
            return "::".join([path, *parts[cut:], name])
    return "::".join([*parts, name])


def outcomes(report: Path) -> dict[str, str]:
    "passed, failed, error or skipped by node id."
    found = {}
    for case in ET.parse(report).getroot().iter("testcase"):
        tags = {child.tag for child in case}
        outcome = next((tag for tag in ("error", "failure", "skipped") if tag in tags), "passed")
        found[node_id(case.get("classname", ""), case.get("name", ""))] = (
            "failed" if outcome == "failure" else outcome
        )
    return found


def main(argv: list[str]) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as scratch:
        report = Path(scratch) / "tier1.xml"
        command = [
            sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
            f"--junitxml={report}", *argv,
        ]
        code = subprocess.run(command, cwd=ROOT, env=env).returncode
        if not report.is_file():
            print(f"tier1: pytest wrote no report (exit {code})")
            return 1
        found = outcomes(report)
    by_kind: dict[str, list[str]] = {"passed": [], "failed": [], "error": [], "skipped": []}
    for test, outcome in found.items():
        by_kind[outcome].append(test)
    unexpected = [
        *([f"pytest exited {code}"] if code not in (0, 1) else []),
        *(f"unexpected failure: {t}" for t in by_kind["failed"] if t not in BY_DESIGN),
        *(f"unexpected pass: {t}" for t in by_kind["passed"] if t in BY_DESIGN),
        *(f"missing: {t}" for t in sorted(BY_DESIGN - found.keys())),
        *(f"error: {t}" for t in by_kind["error"]),
        *(f"skipped: {t}" for t in by_kind["skipped"]),
    ]
    print(
        f"tier1: {len(by_kind['passed'])} passed, {len(by_kind['failed'])} failed "
        f"({len(BY_DESIGN & set(by_kind['failed']))} by design), "
        f"{len(by_kind['error'])} errors, {len(by_kind['skipped'])} skipped"
    )
    for line in unexpected:
        print(f"tier1: {line}")
    print("tier1: OK" if not unexpected else "tier1: NOT OK")
    return 0 if not unexpected else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
