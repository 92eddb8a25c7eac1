"""The baryzeros benchmark: times real CLI commands, or traces them per layer.

    python3 perfbench/run.py --workload {scan,zeros,verify} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout.  It needs only the standard library
and the interpreter that runs it, with ``mpmath`` importable.  The seed
draws the workload's command list (``workloads.py``); the list grows with
``--seconds``.

``--trace 0`` runs the list once, one ``python -m baryzeros`` child at a
time (a closed loop with one client), stdout to a file.  Wall time is
taken around each child and peak RSS from that child's own rusage
(``os.wait4``).  Outputs are checked after the list has run, outside the
timed intervals (``outputs.py``).  It prints the end-to-end metrics of
BENCHMARK.json.  Times are scaled to a reference speed; see REF_S.

``--trace 1`` runs the same list through ``tracer.py``, each command once
traced and once untraced, each in a fresh process, and prints the
per-layer metrics.  ``<layer>.s`` is a layer's total time, including the
layers it calls; ``<layer>.self_s`` leaves them out.

Every run writes its full record (environment, each child's argv, exit
code, wall, RSS, stdout sha256 and check verdict) to
``.perfbench/results/``.  The last line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from outputs import CHECKS, OutputError  # noqa: E402
from tracer import SITES, SUITE_SPANS  # noqa: E402
from workloads import ITEM_LABELS, WORKLOADS, commands_for  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
# A run ends within 180 s; a child still running at this point is killed.
RUN_DEADLINE_S = 170
SETUP_REPEATS = 9
SETUP_ARGV = ("-c", "import baryzeros.cli")
# The reference program: fixed pure-Python work in a fresh interpreter,
# independent of the code under test.  It runs before every timed child
# and once at the end.  The machines this runs on are shared, and their
# speed drifts by 10-30% over tens of seconds; a child's wall time scaled
# by REF_S over the mean of the reference walls just before and after it
# drifts about a third as much.  REF_S fixes the unit: it is near the
# reference's wall on the 2-vCPU Intel Xeon VM the benchmark was tuned on,
# so scaled times read roughly as seconds there.
REF_ARGV = ("-c", "s = 0\nfor i in range(300_000):\n    s += i * i")
REF_S = 0.1


@dataclass
class Child:
    """One child process: a CLI command, a traced command, or a set-up import."""

    label: str
    argv: tuple
    op: int = 0
    exit: int = 0
    wall_s: float = 0.0
    ref_s: float = 0.0
    rss_mib: float = 0.0
    stdout_bytes: int = 0
    sha256: str = ""
    rows: int = 0
    problem: str | None = None

    @property
    def ok(self) -> bool:
        return self.exit == 0 and self.problem is None

    @property
    def scaled_s(self) -> float:
        """Wall time at reference speed (see REF_S)."""
        return self.wall_s * REF_S / self.ref_s if self.ref_s > 0 else self.wall_s


class Runner:
    """Starts children one at a time, each ended by the run's deadline.

    With ``scale`` set, every timed child runs between two runs of the
    reference program, which its scaled time needs.
    """

    def __init__(self, deadline: float, scale: bool):
        self.deadline = deadline
        self.scale = scale
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.pid = None
        self.unclosed = None
        signal.signal(signal.SIGALRM, self._expire)

    def _expire(self, signum, frame) -> None:
        if self.pid is not None:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def run(self, child: Child, args: list, out: Path) -> Child:
        """Run ``python args``; time it and take its own peak RSS."""
        left = self.deadline - time.perf_counter()
        if left <= 0:
            child.exit, child.problem = -1, "not started: the run's deadline passed"
            return child
        err = out.with_suffix(".err")
        with open(out, "wb") as stdout, open(err, "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=stdout, stderr=stderr, env=self.env)
            self.pid = proc.pid
            signal.setitimer(signal.ITIMER_REAL, left)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                self.pid = None
            child.wall_s = time.perf_counter() - start
        proc.returncode = child.exit = os.waitstatus_to_exitcode(status)
        child.rss_mib = usage.ru_maxrss / 1024
        digest = hashlib.sha256()
        with open(out, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
                child.stdout_bytes += len(block)
        child.sha256 = digest.hexdigest()
        if child.exit != 0:
            last = err.read_text(errors="replace").strip().splitlines()[-1:]
            child.problem = f"exit {child.exit}: {' '.join(last)[:300]}"
        return child

    def reference(self) -> float:
        """Run the reference program; it closes the previous timed child."""
        wall = self.run(Child("reference", REF_ARGV), list(REF_ARGV), WORK / "out" / "reference.out").wall_s
        if self.unclosed is not None:
            self.unclosed.ref_s = (self.unclosed.ref_s + wall) / 2
        self.unclosed = None
        return wall

    def timed(self, child: Child, args: list, out: Path) -> Child:
        """Run a child, after the reference program when scaling."""
        if not self.scale:
            return self.run(child, args, out)
        before = self.reference()
        self.run(child, args, out)
        child.ref_s, self.unclosed = before, child
        return child

    def close(self) -> None:
        """Run the reference program that closes the last timed child."""
        if self.unclosed is not None:
            self.reference()


def setup_child(runner: Runner, idx: int) -> Child:
    """One fresh ``import baryzeros.cli``, the set-up every command pays."""
    return runner.timed(Child("setup", SETUP_ARGV), list(SETUP_ARGV), WORK / "out" / f"setup-{idx}.out")


def run_list(runner: Runner, workload: str, commands, launches: dict, setup: list | None = None) -> dict:
    """Run every command once per launch, as ``python launch(argv, stdout path)``.

    The launches of one command run back to back, and set-up samples (when
    a list is given for them) are spread over the run, so drift in the
    machine's speed reaches all of them alike.  The first launch's outputs
    are checked.  Returns the children per launch.
    """
    runs = {tag: ([], []) for tag in launches}
    setup_before = Counter(i * len(commands) // SETUP_REPEATS for i in range(SETUP_REPEATS))
    for idx, command in enumerate(commands):
        for _ in range(setup_before[idx] if setup is not None else 0):
            setup.append(setup_child(runner, len(setup)))
        for tag, launch in launches.items():
            path = WORK / "out" / f"{tag}-{idx}.out"
            children, paths = runs[tag]
            child = Child(command.label, command.argv, command.op)
            children.append(runner.timed(child, launch(command.argv, path), path))
            paths.append(path)
    runner.close()
    children, paths = next(iter(runs.values()))
    try:
        problems, rows = CHECKS[workload](commands, paths)
    except (OutputError, ValueError, KeyError, IndexError, StopIteration) as exc:
        problems, rows = [f"output check raised {exc!r}"] * len(children), [0] * len(children)
    for child, problem, count in zip(children, problems, rows):
        child.rows = count
        if child.problem is None:
            child.problem = problem
    return {tag: children for tag, (children, _) in runs.items()}


# ---------------------------------------------------------------------------
# end-to-end metrics


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples above it.

    Below 21 samples no percentile above the median has ten samples beyond
    it, so the tail falls back to the median.
    """
    ordered = sorted(samples)
    if len(ordered) < 21:
        return statistics.median(ordered), f"median (too few for a tail) of {len(ordered)}"
    idx = len(ordered) - 11
    return ordered[idx], f"p{100 * (idx + 1) / len(ordered):.0f} of {len(ordered)}"


def end_to_end(workload: str, children: list[Child], setup: list[Child]) -> tuple[dict, list[str]]:
    ok = [c for c in children if c.ok]
    counted = [c for c in ok if c.label in ITEM_LABELS[workload]]
    # An operation's time is the sum over its commands; a failed one counts
    # as infinitely slow.
    op_time: dict = {}
    for c in children:
        op_time[c.op] = op_time.get(c.op, 0.0) + (c.scaled_s if c.ok else math.inf)
    samples = list(op_time.values())
    tail_value, tail_label = tail(samples)
    metrics = {
        "setup_s": (statistics.median(c.scaled_s for c in setup), "s"),
        "wall_s": (sum(c.scaled_s for c in children), "s"),
        "op_p50_s": (statistics.median(samples), "s"),
        "op_tail_s": (tail_value, "s"),
        "peak_rss_mb": (max(c.rss_mib for c in children), "MiB"),
        "ok_frac": (len(ok) / len(children), "frac"),
        "items_per_s": (sum(c.rows for c in counted) / sum(c.scaled_s for c in counted) if counted else 0.0, "1/s"),
    }
    raw = [c.wall_s for c in children]
    notes = [
        f"op_p50_s is the median and op_tail_s the {tail_label} operation samples",
        f"unscaled wall: total {sum(raw):.4f} s, median {statistics.median(raw):.4f} s; "
        f"reference median {statistics.median(c.ref_s for c in children):.4f} s against REF_S {REF_S} s",
    ]
    if workload == "scan":
        for label in ITEM_LABELS["scan"]:
            mine = [c for c in children if c.label == label]
            notes.append(
                f"cmd_s.{label} {statistics.median(c.scaled_s for c in mine):.4f} s   "
                f"cmd_rss_mb.{label} {statistics.median(c.rss_mib for c in mine):.1f} MiB   "
                f"(medians of {len(mine)})"
            )
    return metrics, notes


# ---------------------------------------------------------------------------
# per-layer metrics from the traced run


def layer_totals(spans_files: list[Path]) -> dict:
    """Per span name: total and self seconds, calls, failures and summed notes."""
    totals: dict = {}
    for path in spans_files:
        spans = json.loads(path.read_text())["spans"]
        inner = [0.0] * len(spans)
        for name, start, end, parent, notes in spans:
            if parent >= 0:
                inner[parent] += end - start
        for (name, start, end, parent, notes), covered in zip(spans, inner):
            entry = totals.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "failures": 0, "notes": {}})
            entry["s"] += end - start
            entry["self_s"] += end - start - covered
            entry["calls"] += 1
            entry["failures"] += "error" in notes
            for key, value in notes.items():
                if key != "error" and value is not None:
                    entry["notes"][key] = entry["notes"].get(key, 0) + value
    return totals


def per_layer(traced: list[Child], untraced: list[Child], totals: dict) -> dict:
    def get(name, field):
        return totals.get(name, {}).get(field, 0)

    def note(name, key):
        return totals.get(name, {}).get("notes", {}).get(key, 0)

    roots_calls = get("rootfinding.find_roots", "calls")
    roots_failed = get("rootfinding.find_roots", "failures")
    traced_wall = sum(c.wall_s for c in traced)
    untraced_wall = sum(c.wall_s for c in untraced)
    metrics = {
        "complexes.build_sieve.s": (get("complexes.build_sieve", "s"), "s"),
        "complexes.build_sieve.calls": (get("complexes.build_sieve", "calls"), "count"),
        "complexes.build_sieve.entries": (note("complexes.build_sieve", "entries"), "count"),
        "complexes.chi_profile.s": (get("complexes.chi_profile", "s"), "s"),
        "complexes.summary.s": (get("complexes.summary", "s"), "s"),
        "complexes.summary.calls": (get("complexes.summary", "calls"), "count"),
        "complexes.h_poly.s": (get("complexes.h_poly", "s"), "s"),
        "complexes.barycentric_subdivide.s": (get("complexes.barycentric_subdivide", "s"), "s"),
        "dynamics.alpha_scan.s": (get("dynamics.alpha_scan", "s"), "s"),
        "dynamics.alpha_scan.records": (note("dynamics.alpha_scan", "records"), "count"),
        "dynamics.trajectory.self_s": (get("dynamics.trajectory", "self_s"), "s"),
        "dynamics.subdivided_f.s": (get("dynamics.subdivided_f", "s"), "s"),
        "dynamics.growth_expansion.s": (get("dynamics.growth_expansion", "s"), "s"),
        "rootfinding.find_roots.s": (get("rootfinding.find_roots", "s"), "s"),
        "rootfinding.find_roots.self_s": (get("rootfinding.find_roots", "self_s"), "s"),
        "rootfinding.find_roots.calls": (roots_calls, "count"),
        "rootfinding.find_roots.failures": (roots_failed, "count"),
        "rootfinding.find_roots.bits_mean": (
            note("rootfinding.find_roots", "bits") / roots_calls if roots_calls else 0.0,
            "bits",
        ),
        # No calls means no failed call.
        "rootfinding.find_roots.ok_ratio": (
            (roots_calls - roots_failed) / roots_calls if roots_calls else 1.0,
            "frac",
        ),
        "mpmath.polyroots.s": (get("mpmath.polyroots", "s"), "s"),
        "mpmath.polyroots.calls": (get("mpmath.polyroots", "calls"), "count"),
        "cli.main.self_s": (get("cli.main", "self_s"), "s"),
        "cli.output_bytes": (sum(c.stdout_bytes for c in traced), "bytes"),
        "import.s": (get("import", "s"), "s"),
        # Interpreter start and exit, outside every span: with the self
        # times of all spans it adds up to the traced commands' wall.
        "interpreter.s": (traced_wall - get("tracer", "s"), "s"),
        "trace.overhead_frac": ((traced_wall - untraced_wall) / untraced_wall, "frac"),
        "trace.accounted_frac": (get("tracer", "s") / traced_wall, "frac"),
    }
    for name in [*SUITE_SPANS, *(site for site in SITES if site.startswith("subdivision."))]:
        metrics[f"{name}.s"] = (get(name, "s"), "s")
    return metrics


# ---------------------------------------------------------------------------
# environment, report and entry point


def environment(seed: int) -> dict:
    import mpmath

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def select(metrics: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json declares under ``kind``, in its order."""
    out = {}
    for spec in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]:
        if spec["name"] not in metrics:
            raise SystemExit(f"{spec['name']} is declared but not measured")
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise SystemExit(f"{spec['name']}: unit {unit} != declared {spec['unit']}")
        out[spec["name"]] = {"value": value if math.isfinite(value) else None, "unit": unit}
    return out


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="baryzeros benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    missing = [p for p in ("src/baryzeros/cli.py", "tests/golden", "BENCHMARK.json") if not (ROOT / p).exists()]
    if missing:
        print(f"error: run from a baryzeros checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    shutil.rmtree(WORK / "out", ignore_errors=True)
    (WORK / "out").mkdir(parents=True)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    runner = Runner(time.perf_counter() + RUN_DEADLINE_S, scale=not args.trace)
    try:
        # The first import in a fresh checkout also compiles the bytecode.
        warmup = setup_child(runner, -1)
        setup: list[Child] = []
        commands = commands_for(args.workload, args.seed, args.seconds)
        if args.trace:
            def traced_launch(*flags):
                return lambda argv, path: [
                    str(HERE / "tracer.py"), "--spans", str(path.with_suffix(".spans")), *flags, "--", *argv
                ]

            runs = run_list(
                runner, args.workload, commands,
                {"traced": traced_launch(), "untraced": traced_launch("--off")},
            )
            children, untraced = runs["traced"], runs["untraced"]
            for child, plain in zip(children, untraced):
                if child.ok and plain.sha256 != child.sha256:
                    child.problem = "stdout differs between the traced and untraced runs"
            totals = layer_totals(sorted((WORK / "out").glob("traced-*.spans")))
            metrics = per_layer(children, untraced, totals)
            notes = [
                f"{name}: {t['calls']} calls, {t['s']:.4f} s total, {t['self_s']:.4f} s self"
                for name, t in sorted(totals.items())
            ]
            kind = "per_layer"
        else:
            cli = {"run": lambda argv, path: ["-m", "baryzeros", *argv]}
            children = run_list(runner, args.workload, commands, cli, setup)["run"]
            metrics, notes = end_to_end(args.workload, children, setup)
            kind = "end_to_end"
    finally:
        shutil.rmtree(WORK / "out", ignore_errors=True)

    failed = sum(not c.ok for c in children)
    result = {
        "correct": failed == 0,
        "attempted": len(children),
        "failed": failed,
        "metrics": select(metrics, kind),
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "setup": [asdict(c) for c in [warmup, *setup]],
        "commands": [asdict(c) for c in children],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "notes": notes,
    }
    record_path = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print("environment " + json.dumps(record["environment"]))
    for child in children:
        if not child.ok:
            print(f"FAILED {' '.join(child.argv)}: {child.problem}")
    for line in notes:
        print(line)
    for name, entry in result["metrics"].items():
        print(f"{name:40s} {entry['value']} {entry['unit']}")
    print(f"record written to {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
