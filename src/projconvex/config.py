"""Shared numeric tolerances and randomness defaults.

The tolerance constants live on one frozen instance, so no caller can change
them for another.  A function whose tolerance callers vary takes it as an
argument whose default is the constant here, as `fixed_point_dynamics`,
`dirichlet_domain` and `domain.support` take `tol` for `TOL.frontier`.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
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
