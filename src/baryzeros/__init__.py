"""Exact barycentric-subdivision combinatorics and h-polynomial zeros.

The package studies the simplicial complex attached to the squarefree
integers up to n (one simplex per squarefree k, namely its set of prime
divisors).  It provides:

- exact subdivision counting tables, transfer matrices, descent
  matrices and their rational limit data (``subdivision``),
- sieves, f-vectors and explicit complexes with the Euler
  characteristic / Mertens cross-check (``complexes``),
- certified root finding in exact dyadic arithmetic, and the decimal
  text of its values (``rootfinding``, loaded on first use),
- root trajectories under repeated subdivision, the exact growth
  expansion of face counts and exact scaling limits (``dynamics``),
- runnable invariant suites (``checks``) and a deterministic CLI
  (``cli``, console script ``baryzeros``).

The root exports what the commands compute.  The oracles that only
``verify`` checks them against, and the suites, are imported from their
defining modules (``subdivision``, ``complexes``, ``checks``).  Importing
the package loads neither ``checks`` nor ``rootfinding``: the root
exports ``RootFindingError``, ``RootSet`` and ``find_roots`` through a
module ``__getattr__`` that imports ``rootfinding`` when one of them is
first read, so only a command that solves a polynomial compiles it.  The
package needs nothing beyond the standard library.
"""

from .complexes import (
    ConsistencyError,
    FVector,
    ResourceLimitError,
    SieveTable,
    build_sieve,
    chi_profile,
    dim_of,
    h_poly,
    mertens,
    shared_sieve,
    summary,
)
from .dynamics import (
    AlphaRecord,
    AlphaRun,
    AlphaScan,
    GrowthExpansion,
    TrajectoryEntry,
    ZeroTrajectory,
    alpha,
    alpha_scan,
    growth_expansion,
    subdivided_f,
    trajectory,
)
from .subdivision import (
    SimplexMatrix,
    descent_matrix,
    eigen_rationals,
    identity_matrix,
    limit_h_coefficients,
    shift_matrix,
    stirling2,
    subdivision_count,
    transfer_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaRecord",
    "AlphaRun",
    "AlphaScan",
    "ConsistencyError",
    "FVector",
    "GrowthExpansion",
    "ResourceLimitError",
    "RootFindingError",
    "RootSet",
    "SieveTable",
    "SimplexMatrix",
    "TrajectoryEntry",
    "ZeroTrajectory",
    "__version__",
    "alpha",
    "alpha_scan",
    "build_sieve",
    "chi_profile",
    "descent_matrix",
    "dim_of",
    "eigen_rationals",
    "find_roots",
    "growth_expansion",
    "h_poly",
    "identity_matrix",
    "limit_h_coefficients",
    "mertens",
    "shared_sieve",
    "shift_matrix",
    "stirling2",
    "subdivided_f",
    "subdivision_count",
    "summary",
    "trajectory",
    "transfer_matrix",
]


def __getattr__(name: str):
    "The root finder's exports, read from ``rootfinding`` (PEP 562)."
    if name in ("RootFindingError", "RootSet", "find_roots"):
        from . import rootfinding

        return getattr(rootfinding, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
