"""Command lists of the benchmark workloads, drawn from a seed.

Each workload is a list of ``baryzeros`` argv lists plus what the output
checks need to know about each command.  The program sees only the argv;
the seed never reaches it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace

# A tenth of the CLI's default sieve cap of 10^6.  At the cap one pass of
# the four scan commands takes 40-70 s and 2.4 GB, and on a shared VM its
# time swung by 27-41% (IQR over median) between runs; at this size a run
# repeats the pass a few times, and the per-command medians hold steady.
SCAN_RANGE = (95_000, 100_000)
SCAN_PASS_S = 4

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
ZEROS_BITS = (192, 512, 1024)
# Depths k drawn per dimension d: the upper half of 0..K_d, where K_d is the
# first depth at which `zeros` fails at the 192-bit floor (ROADMAP item 2:
# 39, 22, 15, 11 for d = 2..5; for d = 1 nothing fails up to the cap of 64).
# Draws stop two below K_d because some n fail one depth early (n = 54 at
# k = 38), and the benchmark admits no failing command.
ZEROS_DEPTHS = {1: (32, 64), 2: (20, 37), 3: (11, 20), 4: (8, 13), 5: (6, 9)}

# Commands whose output rows count as items for items_per_s: each
# workload's main product.  Table rows in `verify` are left out, because
# their number swings with the drawn --max-d while they cost little time.
ITEM_LABELS = {
    "scan": ("chi", "alpha_csv", "alpha_json", "alpha_point"),
    "zeros": ("zeros",),
    "verify": ("verify",),
}

TABLE_KINDS = ("f", "F", "H", "Hmatrix")
TABLE_MAX_D = (12, 16)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the facts its output checks need.

    ``op`` numbers the operation the command belongs to: the commands of
    one operation together give one result, and their times add up in the
    per-operation metrics.
    """

    label: str
    argv: tuple
    op: int = 0
    facts: dict = field(default_factory=dict)


def primorial(m: int) -> int:
    """Product of the first m primes."""
    out = 1
    for p in PRIMES[:m]:
        out *= p
    return out


def _scan(rng: random.Random, seconds: int) -> list[Command]:
    # One pass per SCAN_PASS_S seconds, each at its own N.  A pass is one
    # operation: four views of the same table, which the output checks
    # compare with one another.
    commands = []
    for op in range(max(1, round(seconds / SCAN_PASS_S))):
        n = rng.randint(*SCAN_RANGE)
        to = ("--to", str(n))
        facts = {"n": n}
        commands += [
            Command("chi", ("chi", *to), op, facts),
            Command("alpha_csv", ("alpha", *to), op, facts),
            Command("alpha_json", ("alpha", *to, "--format", "json"), op, facts),
            Command("alpha_point", ("alpha", "--n", str(n)), op, facts),
        ]
    return commands


def _zeros(rng: random.Random, seconds: int) -> list[Command]:
    # Stratified: every (dimension, precision) cell gets the same number of
    # draws, each from its own slice of the depth range, so the total work
    # barely moves with the seed.
    per_cell = max(1, math.ceil(seconds / 4))
    commands = []
    for d, (k_low, k_high) in ZEROS_DEPTHS.items():
        lo = primorial(d + 1)
        hi = min(2 * lo, primorial(d + 2))
        for bits in ZEROS_BITS:
            for j in range(per_cell):
                n = rng.randrange(lo, hi)
                k = k_low + int((j + rng.random()) * (k_high - k_low + 1) / per_cell)
                argv = ("zeros", "--n", str(n), "--k", str(k), "--precision-bits", str(bits))
                commands.append(Command("zeros", argv, facts={"n": n, "k": k, "bits": bits, "dim": d}))
    rng.shuffle(commands)
    return _one_op_each(commands)


def _verify(rng: random.Random, seconds: int) -> list[Command]:
    commands = [Command("verify", ("verify", "--suite", "all")) for _ in range(2 * seconds)]
    for kind in TABLE_KINDS:
        max_d = rng.randint(*TABLE_MAX_D)
        base = ("tables", "--kind", kind, "--max-d", str(max_d))
        facts = {"kind": kind, "max_d": max_d}
        commands.append(Command("tables_csv", base, facts=facts))
        commands.append(Command("tables_json", (*base, "--format", "json"), facts=facts))
    rng.shuffle(commands)
    return _one_op_each(commands)


def _one_op_each(commands: list[Command]) -> list[Command]:
    return [replace(c, op=i) for i, c in enumerate(commands)]


_DRAWS = {"scan": _scan, "zeros": _zeros, "verify": _verify}
WORKLOADS = tuple(_DRAWS)


def commands_for(workload: str, seed: int, seconds: int) -> list[Command]:
    """The workload's command list; the same seed gives the same list."""
    return _DRAWS[workload](random.Random(f"{workload}:{seed}"), seconds)
