"""Exact barycentric-subdivision combinatorics and h-polynomial zeros.

The package studies the simplicial complex attached to the squarefree
integers up to n (one simplex per squarefree k, namely its set of prime
divisors).  It provides:

- exact subdivision counting tables, transfer matrices, descent
  matrices and their rational limit data (``subdivision``),
- sieves, f-vectors and explicit complexes with the Euler
  characteristic / Mertens cross-check (``complexes``),
- certified arbitrary-precision root finding (``rootfinding``),
- root trajectories under repeated subdivision, the exact growth
  expansion of face counts and exact scaling limits (``dynamics``),
- runnable invariant suites (``checks``) and a deterministic CLI
  (``cli``, console script ``baryzeros``).

Importing the package loads neither mpmath nor ``checks``: the functions
that compute with mpmath import it when called, and the five ``checks``
names below are served on first access.
"""

from .complexes import (
    ConsistencyError,
    FVector,
    ResourceLimitError,
    SieveTable,
    SimplicialComplex,
    barycentric_subdivide,
    build_sieve,
    chi_profile,
    dim_of,
    explicit_complex,
    first_negative_euler,
    h_poly,
    mertens,
    shared_sieve,
    summary,
)
from .dynamics import (
    AlphaRecord,
    AlphaRun,
    AlphaScan,
    ConjectureReport,
    GrowthExpansion,
    TrajectoryEntry,
    ZeroTrajectory,
    alpha,
    alpha_scan,
    conjecture_report,
    growth_expansion,
    subdivided_f,
    trajectory,
    trajectory_precision,
)
from .rootfinding import RootFindingError, RootSet, find_roots
from .subdivision import (
    SimplexMatrix,
    descent_matrix,
    descent_matrix_bruteforce,
    det_sign_check,
    eigen_rationals,
    eigen_rationals_direct,
    identity_matrix,
    limit_h_coefficients,
    shift_matrix,
    shift_matrix_inverse,
    stirling2,
    subdivision_count,
    subdivision_count_recurrence,
    transfer_matrix,
)

__version__ = "0.1.0"

_CHECKS_NAMES = ("CheckResult", "complex_suite", "core_suite", "run_suite", "zeros_suite")


def __getattr__(name: str):
    if name in _CHECKS_NAMES:
        from . import checks

        return getattr(checks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_CHECKS_NAMES})

__all__ = [
    "AlphaRecord",
    "AlphaRun",
    "AlphaScan",
    "CheckResult",
    "ConjectureReport",
    "ConsistencyError",
    "FVector",
    "GrowthExpansion",
    "ResourceLimitError",
    "RootFindingError",
    "RootSet",
    "SieveTable",
    "SimplexMatrix",
    "SimplicialComplex",
    "TrajectoryEntry",
    "ZeroTrajectory",
    "__version__",
    "alpha",
    "alpha_scan",
    "barycentric_subdivide",
    "build_sieve",
    "chi_profile",
    "complex_suite",
    "conjecture_report",
    "core_suite",
    "descent_matrix",
    "descent_matrix_bruteforce",
    "det_sign_check",
    "dim_of",
    "eigen_rationals",
    "eigen_rationals_direct",
    "explicit_complex",
    "find_roots",
    "first_negative_euler",
    "growth_expansion",
    "h_poly",
    "identity_matrix",
    "limit_h_coefficients",
    "mertens",
    "run_suite",
    "shared_sieve",
    "shift_matrix",
    "shift_matrix_inverse",
    "stirling2",
    "subdivided_f",
    "subdivision_count",
    "subdivision_count_recurrence",
    "summary",
    "trajectory",
    "trajectory_precision",
    "transfer_matrix",
    "zeros_suite",
]
