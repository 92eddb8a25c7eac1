"""Run one ``baryzeros`` command in-process, with spans around each layer.

    python perfbench/tracer.py --spans FILE [--off] -- ARGV...

The tracer replaces public functions at the names their callers look them
up by (``cli.alpha_scan``, ``dynamics.find_roots``, ``mpmath.polyroots``,
the ``checks.SUITES`` entries, ...), then calls ``baryzeros.cli.main``.
Each span records its name, start, end, parent and a few counts; the spans
are kept in memory and written to FILE as JSON when the command ends.
With ``--off`` no function is wrapped, which gives the same in-process
run without tracing, for measuring the tracer's overhead.  Stdout is the
command's own, byte for byte.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

# span name -> modules whose global of the same base name callers look up
SITES = {
    "complexes.build_sieve": ["complexes"],
    "complexes.chi_profile": ["cli", "checks", "complexes"],
    "complexes.summary": ["dynamics", "checks"],
    "complexes.h_poly": ["dynamics"],
    "complexes.explicit_complex": ["checks"],
    "complexes.barycentric_subdivide": ["checks"],
    "dynamics.alpha": ["cli"],
    "dynamics.alpha_scan": ["cli", "checks", "dynamics"],
    "dynamics.trajectory": ["cli", "checks"],
    "dynamics.subdivided_f": ["dynamics", "checks"],
    "dynamics.growth_expansion": ["checks"],
    "rootfinding.find_roots": ["dynamics"],
    "subdivision.transfer_matrix": ["cli", "checks", "dynamics"],
    "subdivision.eigen_rationals": ["cli", "checks", "dynamics"],
    "subdivision.eigen_rationals_direct": ["checks"],
    "subdivision.limit_h_coefficients": ["cli", "checks"],
    "subdivision.descent_matrix": ["cli", "checks"],
    "subdivision.descent_matrix_bruteforce": ["checks"],
    "subdivision.subdivision_count": ["checks"],
    "subdivision.subdivision_count_recurrence": ["checks"],
    "subdivision.identity_matrix": ["checks"],
    "subdivision.shift_matrix": ["checks"],
    "subdivision.shift_matrix_inverse": ["checks"],
    "subdivision.det_sign_check": ["checks"],
}

# span names of the checks.SUITES entries
SUITE_SPANS = ("checks.core_suite", "checks.complex_suite", "checks.zeros_suite")


def _sieve_note(args, kwargs, result, exc) -> dict:
    return {"entries": result.limit + 1} if exc is None else {}


def _scan_note(args, kwargs, result, exc) -> dict:
    return {"records": len(result)} if exc is None else {}


def _roots_note(args, kwargs, result, exc) -> dict:
    bits = kwargs.get("precision_bits", args[1] if len(args) > 1 else None)
    return {"bits": bits}


NOTES = {
    "complexes.build_sieve": _sieve_note,
    "dynamics.alpha_scan": _scan_note,
    "rootfinding.find_roots": _roots_note,
}


class Tracer:
    """Spans as [name, start, end, parent, notes], parent -1 for the root."""

    def __init__(self, start: float):
        self.spans = [["tracer", start, None, -1, {}]]
        self.stack = [0]

    def wrap(self, name, fn):
        note = NOTES.get(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), None, stack[-1], {}]
            spans.append(span)
            stack.append(idx)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                span[4]["error"] = type(error).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if note is not None:
                    span[4].update(note(args, kwargs, result, exc))

        return traced

    def install(self) -> None:
        """Wrap every site in SITES, the checks suites and mpmath.polyroots."""
        import mpmath

        from baryzeros import checks

        for name, modules in SITES.items():
            attr = name.rsplit(".", 1)[1]
            for module_name in modules:
                module = importlib.import_module(f"baryzeros.{module_name}")
                setattr(module, attr, self.wrap(name, getattr(module, attr)))
        for key, suite in list(checks.SUITES.items()):
            checks.SUITES[key] = self.wrap(f"checks.{suite.__name__}", suite)
        mpmath.polyroots = self.wrap("mpmath.polyroots", mpmath.polyroots)

    def close(self) -> None:
        self.spans[0][2] = time.perf_counter()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="write the spans here")
    parser.add_argument("--off", action="store_true", help="wrap nothing")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    tracer = Tracer(_T0)
    importer = tracer.wrap("import", importlib.import_module)
    cli = importer("baryzeros.cli")
    if not opts.off:
        tracer.install()
    try:
        return tracer.wrap("cli.main", cli.main)(argv)
    finally:
        sys.stdout.flush()
        tracer.close()
        with open(opts.spans, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans}, handle)


if __name__ == "__main__":
    sys.exit(main())
