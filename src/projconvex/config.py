"""Shared numeric tolerances and randomness defaults.

All tolerance constants live on a single mutable instance so callers can
tighten or loosen them globally; library code reads them at call time.
"""

from dataclasses import dataclass


@dataclass
class Tolerances:
    exact: float = 1e-12        # vector-arithmetic identities
    matrix: float = 1e-9        # determinant scaling, eigen residuals
    frontier: float = 1e-8      # membership of root-found frontier points
    boundary_band: float = 1e-10  # |margin| below this classifies as boundary
    flatness: float = 1e-9
    coplanarity: float = 1e-12
    fiber_gradient: float = 1e-12  # Newton-decrement stop of the vinberg solvers
    center_residual: float = 1e-10


TOL = Tolerances()

DEFAULT_SEED = 1729

# Degeneration verdict: least-squares slope of log ||D_k|| against k above
# this flags the normalizing diagonals as unbounded.
DNORM_SLOPE_THRESHOLD = 1e-2
