"""Volume of truncated cones, its minimization over fibers, and what follows:
the duality map sending a functional to its unit-slice centroid, the radial
characteristic surface, and spherical centers.

Everything is evaluated in chart coordinates.  For a functional with raw
coefficient vector v, the solid between the apex and the slice {<v,.> = 1}
has volume (n+1)^{-1} * integral of <v, lift(x)>^{-(n+1)} over the chart
region; the gradient and Hessian reduce to exact slice moments:

    grad W(v)  = -(n+1) V(v) mu(slice)
    hess W(v)  =  (n+1)(n+2) V(v) E[x x^T over slice]

Polytope and radial-graph cones use closed forms: over a chart simplex with
lifted vertices P_sigma the cone volume is |det P_sigma| / ((n+1)! prod_j
<v, p_j>), |det P_sigma| cached by the cone, and these weights feed the
simplex-moment kernel of the chart moments (domain._simplex_moments).
Ellipsoid cones use exact conic sections.  The kernel's OutsideDualConeError
is the only dual-cone test of a Newton trial.  A fixed-seed Monte-Carlo
estimator is kept as an independent cross-check.

V is a Laplace transform of the cone, so log V is strictly convex on the
open dual cone (it is the cone's universal barrier).  Both solvers minimize
a convex function built from it: the fiber minimum minimizes log V on
{phi(q) = 1}, and the spherical center minimizes log V(v) + (n+1)|v|^2/2,
whose gradient (n+1)(v - mu(v)) vanishes exactly where a functional is its
own slice centroid.  On an ellipsoid cone, V(v) = K (-v^T Q^-1 v)^(-(n+1)/2)
for the cone's quadric Q, and both minima have closed forms: the fiber
minimizer Q q / (q^T Q q) and the eigenvector of Q's negative eigenvalue.
Polytope and radial-graph cones share one Newton loop on the exact
moments, which takes full steps near the minimum and backtracks on the
decrease of F farther out.

The slice kernel, the closed forms and the Newton loop also take a stack: a
(K, n+1) array whose row i is the functional (or the problem) i,
independent of the other rows.  A stack of K fiber problems advances in
lockstep, one slice call per step for all rows still moving, and every
output row is bit for bit what the one-functional call returns for that
row; `characteristic_points` is built on it.  One 1-d functional takes the
plain one-vector operations.
"""

from dataclasses import dataclass
from math import factorial, log

import numpy as np

from .config import DEFAULT_SEED, TOL
from .domain import (
    ConvexCone,
    ConvexDomain,
    _ball_volume,
    _dot,
    _matvec,
    _norm,
    _outer,
    _simplex_moments,
    validate,
)
from .errors import (
    ConvergenceFailureError,
    InvalidInputError,
    OutsideDualConeError,
)
from .projgeom import (
    DualFunctional,
    ProjPoint,
    ProjTransform,
    minimal_rotation,
    null_space,
)

# Newton iterations a fiber minimization and each spherical-center solve
# may take.
_FIBER_ITERATIONS = 80
_CENTER_ITERATIONS = 60

# Newton step rule for the self-concordant barrier F (see `_newton`).  Below
# a decrement of 1/4 the full step stays in the cone and converges
# quadratically, so it is taken as is (Nesterov 2004, Introductory lectures
# on convex optimization, section 4.1).  A longer step backtracks from the
# full step until F falls by a quarter of the decrease that its linear model
# predicts; on a self-concordant F every step up to the damped 1/(1 + lambda)
# meets this, so the halving ends.
_FULL_STEP = 0.25
_DECREASE = 0.25


@dataclass
class VolumeResult:
    value: float
    estimator: str  # "exact" | "quadrature"
    error_bound: float


@dataclass
class FiberMinimum:
    phi: np.ndarray       # raw coefficient vector, phi(q) = 1
    value: float          # minimal truncated-cone volume on the fiber
    centroid: np.ndarray  # centroid of the unit slice (equals q at optimum)
    residual: float       # tangential gradient fraction at the solution
    iterations: int


def _raw_coeffs(phi):
    if isinstance(phi, DualFunctional):
        return phi.coeffs.copy()
    v = np.atleast_1d(np.asarray(phi, dtype=float))
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("non-finite functional coefficients")
    return v


def _as_cone(c):
    return c.cone() if isinstance(c, ConvexDomain) else c


def _require_dual(cone: ConvexCone, v):
    m = cone.dual_margin(v)
    if m <= 0:
        raise OutsideDualConeError(
            "functional is not strictly positive on the closed cone",
            margin=m)


class _SliceData:
    """Volume of the truncated cone plus exact moments of the unit slice,
    for one functional or for each row of a stack."""

    __slots__ = ("volume", "slice_area", "centroid", "second_moment")

    def __init__(self, volume, slice_area, centroid, second_moment):
        self.volume, self.slice_area = volume, slice_area
        self.centroid, self.second_moment = centroid, second_moment

    def set_rows(self, idx, other):
        for name in self.__slots__:
            getattr(self, name)[idx] = getattr(other, name)

    def take(self, idx):
        """The data of the selected rows of a stack."""
        return _SliceData(*(getattr(self, name)[idx] for name in self.__slots__))


def _pow(x, e):
    """x ** e for each entry of an array, by the scalar pow: numpy's
    vectorized power may round otherwise than one functional's pow."""
    return np.array([xi ** e for xi in x.tolist()])


def _raise_rows(bad):
    """Raise OutsideDualConeError if a stack has failing rows; `rows` lists them."""
    if bad.any():
        raise OutsideDualConeError("functional rows outside the dual cone",
                                   rows=np.flatnonzero(bad).tolist())


def _slice_exact(cone: ConvexCone, v) -> _SliceData:
    """Slice data of one functional v, or of each row of a (K, n+1) stack.

    A stack's rows are bit-identical to one-functional calls.  A functional
    outside the open dual cone raises OutsideDualConeError; for a stack, its
    data `rows` lists every failing row.
    """
    n = cone.domain.dim
    tri = cone.triangulation
    if tri is not None:
        pts, simps, lifts, dets = tri
        g = _matvec(lifts, v)
        if v.ndim > 1:
            _raise_rows(~(g.min(axis=1) > 0))
        elif not np.min(g) > 0:
            raise OutsideDualConeError(
                "functional vanishes on the cone closure",
                witness=pts[int(np.argmin(g))])
        # the roof simplex of sigma has vertices p_j / g_j, so its cone has
        # volume |det P_sigma| / ((n+1)! prod g_j), and its slice area is
        # (n+1) |v| times that; (..., k, n+1, n+1), C-ordered (an index array
        # mid-way would not be), so that sums over k run as for one functional
        rv = np.take(lifts / g[..., None], simps, axis=-2)
        w = dets / np.take(g, simps, axis=-1).prod(axis=-1)
        total, mu, e2 = _simplex_moments(rv, w)
        vol = total / factorial(n + 1)
        return _SliceData(vol, (n + 1) * vol * _norm(v), mu, e2)
    # ellipsoid cone: exact conic section via the inverse quadric.
    # The section center is the pole of the slicing plane; the restricted
    # inverse form is Qinv minus its rank-one part along the pole.
    qinv, qdet, inner = cone._quadric_inverse
    u = _matvec(qinv, v)
    s = _dot(v, u)       # negative iff v or -v is interior to the dual cone
    side = _dot(v, inner)        # and then positive iff v is
    if v.ndim > 1:
        _raise_rows(~((s < 0) & (side > 0)))
    elif not (s < 0 and side > 0):
        raise OutsideDualConeError("slice of the cone is empty or unbounded",
                                   pairing=float(s))
    vv = _dot(v, v)
    det_restricted = qdet * s / vv   # of the form on the plane; det Q < 0
    mu = u / s[..., None]
    c0 = -1.0 / s                  # section level, positive
    root = _pow(c0, n / 2.0) if v.ndim > 1 else c0 ** (n / 2.0)
    area = _ball_volume(n) * root / np.sqrt(det_restricted)
    e2 = _outer(mu) + (c0 / (n + 2.0))[..., None, None] * (
        qinv - _outer(u) / s[..., None, None])
    h = 1.0 / np.sqrt(vv)
    return _SliceData(area * h / (n + 1.0), area, mu, e2)


# ---------------------------------------------------------------------------
# public operations


def volume_functional(c, phi) -> VolumeResult:
    """Volume of the cone truncated by the unit level of the functional."""
    cone = _as_cone(c)
    v = _raw_coeffs(phi)
    _require_dual(cone, v)
    data = _slice_exact(cone, v)
    return VolumeResult(data.volume, "exact", 0.0)


def volume_functional_quadrature(c, phi, samples=20000, seed=None) -> VolumeResult:
    """Fixed-seed Monte-Carlo estimate with a standard-error bound.

    Independent of the exact path; used as a cross-check oracle.
    """
    cone = _as_cone(c)
    v = _raw_coeffs(phi)
    _require_dual(cone, v)
    dom = cone.domain
    n = dom.dim
    rng = np.random.default_rng(DEFAULT_SEED if seed is None else seed)
    vol_chart = dom.backend.moments()[0]
    xs = dom.random_interior(rng, size=samples)
    g = dom.chart.lift_many(xs) @ v
    vals = g ** (-(n + 1.0))
    est = vol_chart / (n + 1.0) * float(vals.mean())
    stderr = vol_chart / (n + 1.0) * float(vals.std(ddof=1)) / np.sqrt(samples)
    return VolumeResult(est, "quadrature", stderr)


def grad_volume(c, phi):
    """Gradient of the truncated-cone volume with respect to raw coefficients."""
    cone = _as_cone(c)
    v = _raw_coeffs(phi)
    _require_dual(cone, v)
    data = _slice_exact(cone, v)
    n = cone.domain.dim
    return -(n + 1.0) * data.volume * data.centroid


def slice_centroid(c, phi):
    """Centroid of the flat slice where the functional equals one."""
    cone = _as_cone(c)
    v = _raw_coeffs(phi)
    _require_dual(cone, v)
    return _slice_exact(cone, v).centroid


def _newton_step(v, data, basis, ridge, live=None):
    """Newton decrement and step of F at v, for one problem or a stack.  A
    stack's rows outside `live` solve the identity in place of their Hessian:
    LAPACK solves each matrix on its own, so the other rows keep their
    floats, and a stopped row with a singular Hessian cannot fail the batch."""
    n1 = v.shape[-1]
    mu = data.centroid
    bt = basis.swapaxes(-1, -2)
    grad = _matvec(bt, ridge * v - n1 * mu)
    hess = n1 * ((n1 + 1.0) * data.second_moment - n1 * _outer(mu))
    hess = bt @ hess @ basis + ridge * np.eye(basis.shape[-1])
    if live is not None:
        idle = np.ones(len(hess), dtype=bool)
        idle[live] = False
        hess[idle] = np.eye(basis.shape[-1])
    if v.ndim == 1:
        step = np.linalg.solve(hess, -grad)
        return np.sqrt(max(-float(grad @ step), 0.0)), basis @ step
    try:
        step = np.linalg.solve(hess, -grad[..., None])[..., 0]
    except np.linalg.LinAlgError:   # a singular row: its step stays nan
        step = np.full_like(grad, np.nan)
        for i in range(len(grad)):
            try:
                step[i] = np.linalg.solve(hess[i], -grad[i])
            except np.linalg.LinAlgError:
                pass
    return np.sqrt(np.maximum(-_dot(grad, step), 0.0)), _matvec(basis, step)


def _objective(v, volume, ridge):
    """F = log V + ridge |v|^2 / 2 at v, or at each row of a stack, from the
    slice volume; a stack takes the scalar log of each entry (see `_pow`)."""
    if v.ndim == 1:
        return log(volume) + 0.5 * ridge * _dot(v, v)
    return np.array([log(x) for x in volume.tolist()]) + 0.5 * ridge * _dot(v, v)


def _newton(cone, v, basis, ridge, max_iter):
    """Newton on F(w) = log V(w) + ridge |w|^2 / 2 over v + span(basis).

    log V is strictly convex on the open dual cone (it is the cone's
    universal barrier, a self-concordant function), with gradient -(n+1) mu
    and Hessian (n+1)[(n+2) E[x x^T] - (n+1) mu mu^T] from the moments of one
    slice.  With lambda the Newton decrement, a step below `_FULL_STEP` is
    taken in full and only halved while it leaves the cone; a longer one
    starts at the full step and halves until the trial is in the cone and
    lowers F by `_DECREASE` s lambda^2.  The loop stops once lambda is at
    most TOL.fiber_gradient.  `basis` has orthonormal columns.  Returns the
    last iterate, its slice data, the iteration count and the Newton step
    that stop declined (zero when the loop ended otherwise).

    A stack is K independent problems advanced in lockstep: v is (K, n+1),
    basis (K, n+1, d), and row i of every input and output is problem i.
    Each step makes one `_slice_exact` call for all rows still moving; a
    row that stops drops out, a row halves its own step, and each row ends
    with its own iterate, iteration count and declined step, bit-identical
    to the one-problem run.  If the starting slice fails, the stack raises
    the OutsideDualConeError of `_slice_exact`, which lists the rows.
    """
    data = _slice_exact(cone, v)
    if v.ndim > 1:
        return _lockstep_newton(cone, v, data, basis, ridge, max_iter)
    declined = np.zeros(v.size)
    it = 0
    for it in range(1, max_iter + 1):
        try:
            lam, direction = _newton_step(v, data, basis, ridge)
        except np.linalg.LinAlgError:
            break
        if lam <= TOL.fiber_gradient:
            declined = direction
            break
        if not np.isfinite(lam):
            break
        bound = _objective(v, data.volume, ridge)
        drop = _DECREASE * lam * lam
        s = 1.0
        while s > 1e-14:
            v_try = v + s * direction
            try:
                new = _slice_exact(cone, v_try)
            except OutsideDualConeError:
                new = None
            if new is not None and (lam < _FULL_STEP or _objective(
                    v_try, new.volume, ridge) <= bound - s * drop):
                v, data = v_try, new
                break
            s *= 0.5
        else:
            break
    return v, data, it, declined


def _lockstep_newton(cone, v, data, basis, ridge, max_iter):
    """The stacked loop of `_newton`; `live` holds the rows still moving."""
    v = v.copy()
    its = np.zeros(len(v), dtype=int)
    declined = np.zeros_like(v)
    live = np.arange(len(v))
    for it in range(1, max_iter + 1):
        if not live.size:
            break
        its[live] = it
        # the step of every row: a copy of live rows would compact each
        # row's basis, and BLAS sums a compacted matrix in another order
        lam, direction = _newton_step(v, data, basis, ridge, live)
        lam, direction = lam[live], direction[live]
        done = lam <= TOL.fiber_gradient
        declined[live[done]] = direction[done]
        # rows that take a step: not converged, and a finite decrement (a
        # singular Hessian leaves lam nan, which stops the row here)
        go = ~done & np.isfinite(lam)
        rows, direction, lam = live[go], direction[go], lam[go]
        bound = _objective(v[rows], data.volume[rows], ridge)
        drop = _DECREASE * lam * lam
        s = np.ones(rows.size)
        moved = np.zeros(rows.size, dtype=bool)
        trial = np.arange(rows.size)
        while trial.size:
            v_try = v[rows[trial]] + s[trial, None] * direction[trial]
            ok = np.ones(trial.size, dtype=bool)
            while ok.any():
                try:
                    new = _slice_exact(cone, v_try[ok])
                    break
                except OutsideDualConeError as exc:
                    ok[np.flatnonzero(ok)[exc.data["rows"]]] = False
            if ok.any():
                t = trial[ok]
                keep = (lam[t] < _FULL_STEP) | (_objective(v_try[ok], new.volume, ridge)
                                                <= bound[t] - s[t] * drop[t])
                ok[np.flatnonzero(ok)[~keep]] = False
                idx = rows[t[keep]]
                v[idx] = v_try[ok]
                data.set_rows(idx, new.take(keep))
                moved[t[keep]] = True
            trial = trial[~ok]
            s[trial] *= 0.5
            trial = trial[s[trial] > 1e-14]
        live = rows[moved]
    return v, data, its, declined


def _fiber_bases(q):
    """null_space(row[None, :]) for each nonzero row of q, from one batched
    SVD and in that function's layout: the basis of a row is a column slice
    of a C-ordered square matrix, so BLAS products with it sum as they do
    with the one-row basis."""
    _, _, vh = np.linalg.svd(q[:, None, :], full_matrices=True)
    return np.ascontiguousarray(np.swapaxes(vh, 1, 2))[:, :, 1:]


def _fiber_certificate(q, basis, mu):
    """Tangential gradient fraction and centroid error of a fiber solve, and
    whether they certify it (at most 1e-8 and 1e-6)."""
    residual = (_norm(_matvec(basis.swapaxes(-1, -2), mu))
                / np.maximum(_norm(mu), 1e-300))
    cert = _norm(mu - q) / np.maximum(_norm(q), 1e-300)
    return residual, cert, ~((residual > 1e-8) | (cert > 1e-6))


def _quadric_fiber(cone, q):
    """Fiber minimizer of an ellipsoid cone at q, or at each row of a stack,
    in closed form.

    On this cone V(v) = K (-v^T Q^-1 v)^(-(n+1)/2) with K constant, and the
    slice centroid of v is Q^-1 v / (v^T Q^-1 v) (see `_slice_exact`).  So
    phi = Q q / (q^T Q q) lies on the fiber phi(q) = 1 with centroid q: the
    gradient of log V is normal to the fiber there, and phi is the minimizer.
    """
    u = _matvec(cone._quadric[0], q)
    return u / _dot(q, u)[..., None]


def _fiber_minimum(cone, q, basis):
    """Functional, slice data and iteration count of the fiber minimum at q,
    or at each row of a stack (basis: the fiber directions): the closed form
    on an ellipsoid cone, taking 0 iterations; elsewhere Newton on log V (see
    `_newton`) from the chart functional scaled into the fiber.  The slice
    data come from the slice kernel, so a certificate measures them."""
    if cone.triangulation is None:
        phi = _quadric_fiber(cone, q)
        return (phi, _slice_exact(cone, phi),
                np.zeros(len(q), dtype=int) if q.ndim > 1 else 0)
    v_inf = cone.domain.chart.infinity
    v, data, it, _ = _newton(cone, v_inf / _dot(v_inf, q)[..., None], basis,
                             0.0, _FIBER_ITERATIONS)
    return v, data, it


def min_volume_on_fiber(c, q) -> FiberMinimum:
    """Minimize the truncated volume over functionals with phi(q) = 1.

    In closed form on an ellipsoid cone, by Newton elsewhere (see
    `_fiber_minimum`).  Certifies that the optimal slice centroid reproduces q.
    """
    cone = _as_cone(c)
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if not cone.contains_vector(q) > 0:
        raise InvalidInputError("base point is not strictly inside the cone")
    t_basis = null_space(q[None, :])
    v, data, it = _fiber_minimum(cone, q, t_basis)
    mu = data.centroid
    residual, cert, ok = _fiber_certificate(q, t_basis, mu)
    if not ok:
        raise ConvergenceFailureError(
            "fiber minimization did not converge",
            residual=float(residual), centroid_error=cert, iterations=it)
    return FiberMinimum(v, data.volume, mu, float(residual), it)


def theta(c, phi) -> ProjPoint:
    """Projectivized centroid of the unit slice of a dual-cone functional."""
    mu = slice_centroid(c, phi)
    return ProjPoint(mu, canonicalize=False)


def theta_inverse(c, p) -> np.ndarray:
    """Raw functional with unit minimal fiber volume whose slice centroid lifts p."""
    cone = _as_cone(c)
    if isinstance(p, ProjPoint):
        q = p.coords.copy()
        if cone.domain.chart.height(q) < 0:
            q = -q
    else:
        q = cone.domain.chart.lift(np.asarray(p, dtype=float))
    fm = min_volume_on_fiber(cone, q)
    n1 = q.size
    return fm.phi * fm.value ** (1.0 / n1)


def characteristic_point(c, q) -> np.ndarray:
    """Point of the radial characteristic surface on the ray through q."""
    cone = _as_cone(c)
    q = np.atleast_1d(np.asarray(q, dtype=float))
    qhat = q / np.linalg.norm(q)
    fm = min_volume_on_fiber(cone, qhat)
    t = fm.value ** (-1.0 / qhat.size)
    return t * qhat


def _characteristic_rows(cone, qs):
    """`characteristic_point` at each row of a (K, n+1) array, all fiber
    solves in one closed form or one lockstep Newton: the points p = t q,
    bit-identical to that call, nan where it raises; their tangent functionals
    l = phi / t (l.p = 1 = V(l), so the surface lies in {l.y >= 1}); the mask."""
    q = qs / _norm(qs)[:, None]
    rows = np.flatnonzero(cone.contains_vector(q) > 0)
    while True:
        basis = _fiber_bases(q[rows])
        try:
            phi, data, _ = _fiber_minimum(cone, q[rows], basis)
            break
        except OutsideDualConeError as exc:   # starting slices that fail
            rows = np.delete(rows, exc.data["rows"])
    good = _fiber_certificate(q[rows], basis, data.centroid)[2]
    rows = rows[good]
    t = _pow(data.volume[good], -1.0 / q.shape[1])[:, None]
    pts, tangents = np.full_like(q, np.nan), np.full_like(q, np.nan)
    pts[rows], tangents[rows] = t * q[rows], phi[good] / t
    return pts, tangents, ~np.isnan(pts[:, 0])


def characteristic_points(c, qs) -> np.ndarray:
    """Points of the radial characteristic surface on the rays through the
    rows of a (K, n+1) array, all fiber solves in one lockstep Newton.

    Row by row bit-identical to `characteristic_point`; if a row fails, the
    error is the one a loop of `characteristic_point` calls raises first.
    """
    cone = _as_cone(c)
    qs = np.atleast_2d(np.asarray(qs, dtype=float))
    pts, _, ok = _characteristic_rows(cone, qs)
    for i in np.flatnonzero(~ok):   # raises at the first failing row
        pts[i] = characteristic_point(cone, qs[i])
    return pts


@dataclass
class SphericalCenter:
    center: ProjPoint
    rotation: ProjTransform  # orthogonal, carries the center to the chart pole
    residual: float
    iterations: int


def spherical_center(dom: ConvexDomain) -> SphericalCenter:
    """Unique direction whose chart sees the domain centroid at the origin.

    F(v) = log V(v) + (n+1)|v|^2/2 is strictly convex on the open dual cone
    with gradient (n+1)(v - mu(v)), so its minimizer is the one functional
    equal to its own slice centroid; it is a unit vector, and the
    fiber-minimizing functional at its direction is parallel to it.  The
    residual is the chart distance between the center and the direction of
    that fiber minimizer, computed anew.

    On an ellipsoid cone mu(v) = Q^-1 v / (v^T Q^-1 v), so the center is the
    unit eigenvector of the quadric Q's one negative eigenvalue, oriented
    into the cone, with 0 iterations, and its fiber minimizer is the closed
    form of `_quadric_fiber`.  Elsewhere Newton on F (see `_newton`) starts
    at the chart functional, and a Newton fiber minimization started at the
    iterate gives the minimizer, counting the last step it declined, so a
    check that takes no step still reports a measured length.
    """
    validate(dom)
    cone = dom.cone()
    chart = dom.chart
    if cone.triangulation is None:
        quad, inner = cone._quadric
        axis = np.linalg.eigh(quad)[1][:, 0]
        q = axis if axis @ inner > 0 else -axis
        it = 0
        w = _quadric_fiber(cone, q)
    else:
        v, _, it, _ = _newton(cone, chart.infinity, np.eye(dom.dim + 1),
                              dom.dim + 1.0, _CENTER_ITERATIONS)
        q = v / np.linalg.norm(v)
        w, _, _, declined = _newton(cone, q, null_space(q[None, :]), 0.0,
                                    _CENTER_ITERATIONS)
        w = w + declined
    x = chart.to_chart(q)
    gn = float(np.linalg.norm(chart.to_chart(w) - x))
    if gn > 100 * TOL.center_residual:
        raise ConvergenceFailureError(
            "spherical center iteration did not converge",
            best=x, residual=gn, iterations=it)
    rot = minimal_rotation(q, chart.infinity)
    return SphericalCenter(
        center=ProjPoint(q, canonicalize=False),
        rotation=ProjTransform(rot),
        residual=gn,
        iterations=it,
    )
