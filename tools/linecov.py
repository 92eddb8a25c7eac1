"""Report the lines of ``src/baryzeros/*.py`` that no tier-1 test runs.

Usage, from anywhere::

    python tools/linecov.py [extra pytest arguments]

The script runs the test suite in this process through ``pytest.main``,
with a plugin object that installs a ``sys.settrace`` / ``threading.settrace``
line tracer for the session.  The tracer records only lines of the
package's own modules.  A module's executable lines are the line numbers
that ``co_lines()`` gives over every code object compiled from its source;
each one no traced frame reached is printed, by module, as ranges.

Only the standard library is used.  Tests that start the program as a
subprocess (``python -m baryzeros``, the benchmark tracer) run in another
interpreter, so lines only they reach are reported as not run.  The
report ignores test outcomes, so the suite's by-design failures do not
matter; the exit code is 0 unless pytest could not run the suite.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "baryzeros"


def executable_lines(path: Path) -> set[int]:
    """Line numbers of every instruction compiled from path's source.  A
    module's code starts with an instruction at line 0, which no line event
    reports, and some instructions have no line; neither counts."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if isinstance(const, CodeType))
    return lines


class LineTrace:
    """pytest plugin: records the lines run in the given files, by real path,
    from session start to session finish."""

    def __init__(self, paths):
        self.hits = {os.path.realpath(path): set() for path in paths}
        self._locals = {path: self._local_tracer(hits) for path, hits in self.hits.items()}
        self._by_name = {}

    @staticmethod
    def _local_tracer(hits: set):
        def trace(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return trace

        return trace

    def _trace(self, frame, event, arg):
        name = frame.f_code.co_filename
        local = self._by_name.get(name, False)
        if local is False:
            local = self._by_name[name] = self._locals.get(os.path.realpath(name))
        return local

    def pytest_sessionstart(self, session):
        threading.settrace(self._trace)
        sys.settrace(self._trace)

    def pytest_sessionfinish(self, session, exitstatus):
        sys.settrace(None)
        threading.settrace(None)


def _ranges(lines: list[int]) -> str:
    spans = []
    for line in lines:
        if spans and spans[-1][1] == line - 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv: list[str]) -> int:
    import pytest

    paths = sorted(PACKAGE.glob("*.py"))
    plugin = LineTrace(paths)
    os.chdir(ROOT)
    code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *argv],
                       plugins=[plugin])
    total = 0
    for path in paths:
        missed = sorted(executable_lines(path) - plugin.hits[os.path.realpath(path)])
        total += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {len(missed)} lines not run: {_ranges(missed)}")
    print(f"{total} executable lines not run in {len(paths)} modules")
    return 0 if code in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED) else int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
