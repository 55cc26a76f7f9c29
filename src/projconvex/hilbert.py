"""Hilbert metric on a properly-convex domain, geodesics, chord projection,
and thin-triangle measurement.

Distances are half the log of the cross-ratio of the chord endpoints with the
two points, computed in chart coordinates; the half makes the Klein-model
value agree with the hyperbolic metric.
"""

from dataclasses import dataclass

import numpy as np

from .config import TOL
from .domain import Chord, ConvexDomain, chord, support
from .errors import (
    InfiniteDistanceError,
    InvalidInputError,
    ProjectionUndefinedError,
)
from .projgeom import DualFunctional, ProjPoint, ProjSubspace, pencil_core


def _chart_pair(dom, x, y):
    xc = dom.chart_coords(x)
    yc = dom.chart_coords(y)
    return xc, yc


def _distance_and_chord(dom: ConvexDomain, xc, yc):
    """Distance of two distinct interior chart points, and the parameters
    (t_lo, t_hi) of the chord endpoints on the line xc + t (yc - xc)."""
    for name, c in (("x", xc), ("y", yc)):
        if dom.backend.contains_margin(c) <= 0:
            raise InvalidInputError(f"point {name} is not inside the domain")
    d = yc - xc
    t_lo, t_hi = dom.backend.chord_params(xc, d)
    step = np.linalg.norm(d)
    ax = -t_lo * step          # |a_minus - x|
    ay = (1.0 - t_lo) * step   # |a_minus - y|
    bx = t_hi * step           # |a_plus - x|
    by = (t_hi - 1.0) * step   # |a_plus - y|
    if min(ax, ay, bx, by) <= TOL.exact * max(1.0, step):
        raise InfiniteDistanceError(
            "chord endpoint coincides with an argument point")
    return 0.5 * abs(np.log((bx * ay) / (by * ax))), t_lo, t_hi


def _distance_chart(dom: ConvexDomain, xc, yc):
    if np.linalg.norm(yc - xc) <= TOL.exact:
        return 0.0
    return _distance_and_chord(dom, xc, yc)[0]


def distance(dom: ConvexDomain, x, y) -> float:
    """Hilbert distance between two interior points."""
    xc, yc = _chart_pair(dom, x, y)
    return _distance_chart(dom, xc, yc)


def _param_at_distance(t_lo, t_hi, r):
    """Line parameter at Hilbert distance r from t = 0 towards t_hi.

    Inverts d(t) = 0.5 log(t_hi (t - t_lo) / ((t_hi - t)(-t_lo))) in closed
    form, written in w = exp(-2r) so that it cannot overflow.
    """
    s = -2.0 * np.asarray(r, dtype=float)
    return t_hi * t_lo * np.expm1(s) / (t_hi * np.exp(s) - t_lo)


def geodesic(dom: ConvexDomain, x, y, k: int):
    """k+1 points on the segment from x to y, equally spaced in arclength."""
    if k < 1:
        raise InvalidInputError("need at least one segment")
    xc, yc = _chart_pair(dom, x, y)
    d = yc - xc
    if np.linalg.norm(d) <= TOL.exact:
        ts = np.zeros(k - 1)
    else:
        total, t_lo, t_hi = _distance_and_chord(dom, xc, yc)
        ts = _param_at_distance(t_lo, t_hi, total * np.arange(1, k) / k)
    return [xc] + [xc + t * d for t in ts] + [yc]


@dataclass
class ChordProjection:
    """Projection data onto a chord along the core of its support pencil."""

    chord: Chord
    h_plus: DualFunctional
    h_minus: DualFunctional
    core: ProjSubspace
    condition: float


def chord_projection(dom: ConvexDomain, target: Chord) -> ChordProjection:
    h_plus = support(dom, target.a_plus)
    h_minus = support(dom, target.a_minus)
    core = pencil_core(h_plus, h_minus)
    basis = np.vstack([core.basis,
                       target.a_minus.coords[None, :],
                       target.a_plus.coords[None, :]]).T
    cond = float(np.linalg.cond(basis))
    proj = ChordProjection(target, h_plus, h_minus, core, cond)
    proj._basis = basis
    return proj


def project_to_chord(proj: ChordProjection, x) -> ProjPoint:
    """Write x as (core part) + (chord part) and return the chord part."""
    if isinstance(x, ProjPoint):
        vec = x.coords
    else:
        vec = np.asarray(x, dtype=float)
    basis = proj._basis
    try:
        coef = np.linalg.solve(basis, vec)
    except np.linalg.LinAlgError as exc:
        raise ProjectionUndefinedError("support pencil decomposition is singular") from exc
    k = proj.core.basis.shape[0]
    u = basis[:, k:] @ coef[k:]
    nu = np.linalg.norm(u)
    if nu <= TOL.exact * np.linalg.norm(vec):
        raise ProjectionUndefinedError("point lies on the projection core")
    return ProjPoint(u if coef[k:].sum() >= 0 else -u, canonicalize=False)


def _golden_min(fn, lo, hi, tol=1e-10, max_iter=200):
    """Golden-section minimum of a quasiconvex function on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    xm = 0.5 * (a + b)
    return xm, fn(xm)


def metric_ball(dom: ConvexDomain, center, radius, samples=64):
    """Boundary of the metric ball as chart points, one per sampled ray."""
    c = dom.chart_coords(center)
    if dom.backend.contains_margin(c) <= 0:
        raise InvalidInputError("ball center is not inside the domain")
    if dom.dim != 2:
        raise InvalidInputError("metric balls are drawn in 2-d charts only")
    out = []
    for ang in 2 * np.pi * np.arange(samples) / samples:
        u = np.array([np.cos(ang), np.sin(ang)])
        t_lo, t_hi = dom.backend.chord_params(c, u)
        out.append(c + _param_at_distance(t_lo, t_hi, radius) * u)
    return np.array(out)


@dataclass
class ThinTriangleResult:
    delta: float
    degenerate: bool
    side_maxima: list


def thin_triangle_delta(dom: ConvexDomain, triangle, m: int = 64,
                        threads: int = 1) -> ThinTriangleResult:
    """Sampled thinness of a geodesic triangle.

    For m+1 points (endpoints included) on each side, measures the Hilbert
    distance to the union of the other two sides by golden-section search
    along each of them; returns the max.  A sampled lower bound of the true
    sup, nondecreasing when m doubles.  `threads` is accepted and ignored:
    the search holds the GIL, so threads cannot speed it up.
    """
    verts = [dom.chart_coords(p) for p in triangle]
    if len(verts) != 3:
        raise InvalidInputError("triangle needs exactly three vertices")
    for i in range(3):
        if np.linalg.norm(verts[i] - verts[(i + 1) % 3]) <= TOL.exact:
            raise InvalidInputError("triangle vertices must be pairwise distinct")
    e1 = verts[1] - verts[0]
    e2 = verts[2] - verts[0]
    mat = np.vstack([e1, e2])
    if np.linalg.matrix_rank(mat, tol=1e-12) < 2:
        return ThinTriangleResult(0.0, True, [0.0, 0.0, 0.0])

    sides = [(verts[0], verts[1]), (verts[1], verts[2]), (verts[2], verts[0])]

    def dist_to_side(p, side):
        a, b = side

        def f(s):
            return _distance_chart(dom, p, (1 - s) * a + s * b)

        return _golden_min(f, 0.0, 1.0)[1]

    def sample_gap(side_idx, t):
        a, b = sides[side_idx]
        p = (1 - t) * a + t * b
        others = [sides[(side_idx + 1) % 3], sides[(side_idx + 2) % 3]]
        return min(dist_to_side(p, s) for s in others)

    gaps = np.array([sample_gap(i, t) for i in range(3)
                     for t in np.linspace(0.0, 1.0, m + 1)]).reshape(3, m + 1)
    side_maxima = gaps.max(axis=1)
    return ThinTriangleResult(float(side_maxima.max()), False,
                              [float(v) for v in side_maxima])
