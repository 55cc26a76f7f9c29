"""Hilbert metric on a properly-convex domain, geodesics, chord projection,
and thin-triangle measurement.

Distances are half the log of the cross-ratio of the chord endpoints with the
two points, computed in chart coordinates; the half makes the Klein-model
value agree with the hyperbolic metric.  `distances` takes many pairs at once
through one array chord query, which the lockstep thin-triangle searches use;
a metric ball queries the chords of all its rays at once.
"""

from dataclasses import dataclass

import numpy as np

from .config import TOL
from .domain import Chord, ConvexDomain, _any, _dot, chord, support
from .errors import (
    GeometryError,
    InfiniteDistanceError,
    InvalidInputError,
    ProjectionUndefinedError,
)
from .projgeom import DualFunctional, ProjPoint, ProjSubspace, pencil_core


def _chart_pair(dom, x, y):
    xc = dom.chart_coords(x)
    yc = dom.chart_coords(y)
    return xc, yc


def _cross_ratio(t_lo, t_hi, step):
    """Hilbert distance of x and y: half the log cross-ratio of x, y and the
    chord endpoints at t_lo and t_hi on the line x + t (y - x), step = |y - x|.

    Scalars or arrays, elementwise; raises InfiniteDistanceError if an
    endpoint coincides with x or y anywhere.
    """
    ax = -t_lo * step          # |a_minus - x|
    ay = (1.0 - t_lo) * step   # |a_minus - y|
    bx = t_hi * step           # |a_plus - x|
    by = (t_hi - 1.0) * step   # |a_plus - y|
    near = TOL.exact * np.maximum(1.0, step)
    if _any((ax <= near) | (ay <= near) | (bx <= near) | (by <= near)):
        raise InfiniteDistanceError(
            "chord endpoint coincides with an argument point")
    return 0.5 * abs(np.log((bx * ay) / (by * ax)))


def _distance_and_chord(dom: ConvexDomain, xc, yc):
    """Distance of two interior chart points, and the parameters (t_lo, t_hi)
    of the chord endpoints on the line xc + t (yc - xc).  Coincident points
    give (0.0, None, None) without any check."""
    d = yc - xc
    step = np.sqrt(d.dot(d))  # np.linalg.norm(d), without its overhead
    if step <= TOL.exact:
        return 0.0, None, None
    for name, c in (("x", xc), ("y", yc)):
        if dom.backend.contains_margin(c) <= 0:
            raise InvalidInputError(f"point {name} is not inside the domain")
    t_lo, t_hi = dom.backend.chord_params(xc, d)
    return _cross_ratio(t_lo, t_hi, step), t_lo, t_hi


def _distance_chart(dom: ConvexDomain, xc, yc):
    return _distance_and_chord(dom, xc, yc)[0]


def distance(dom: ConvexDomain, x, y) -> float:
    """Hilbert distance between two interior points."""
    xc, yc = _chart_pair(dom, x, y)
    return _distance_chart(dom, xc, yc)


def distances(dom: ConvexDomain, xs, ys):
    """Hilbert distances between the rows of two (N, n) arrays of chart points.

    Row by row bit-identical to `distance`, from one array chord query.  The
    checks are those of `distance`: a row of coincident points gives 0, and
    if a row fails, the error is the one a loop of `distance` calls raises.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    d = ys - xs
    step = np.sqrt(_dot(d, d))
    out = np.zeros(len(d))
    live = step > TOL.exact
    if not live.any():
        return out
    b = dom.backend
    try:
        if (_any(b.contains_margin(xs[live]) <= 0)
                or _any(b.contains_margin(ys[live]) <= 0)):
            raise InvalidInputError("point is not inside the domain")
        t_lo, t_hi = b.chord_params(xs[live], d[live])
        out[live] = _cross_ratio(t_lo, t_hi, step[live])
    except GeometryError:
        for x, y in zip(xs, ys):  # raises at the first failing row
            _distance_chart(dom, x, y)
        raise
    return out


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
    total, t_lo, t_hi = _distance_and_chord(dom, xc, yc)
    if t_lo is None:
        ts = np.zeros(k - 1)
    else:
        ts = _param_at_distance(t_lo, t_hi, total * np.arange(1, k) / k)
    d = yc - xc
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


_INVPHI = float((np.sqrt(5.0) - 1.0) / 2.0)


def _golden_min(fn, lo, hi, tol=1e-10, max_iter=200):
    """Golden-section minima of quasiconvex functions, one per bracket
    [lo[i], hi[i]], searched in lockstep.

    fn(k, s) returns the values of functions k[j] at s[j] for lists k and s.
    One call evaluates both interior points of every bracket, then one call
    per step the new points of the brackets still wider than tol, and a last
    call the midpoints: each bracket takes the steps of a search of its own.
    The bookkeeping is on Python floats, so a single search pays no array
    overhead per step.  Returns the midpoints and the values there.
    """
    a, b = [float(v) for v in lo], [float(v) for v in hi]
    every = list(range(len(a)))
    c = [bi - _INVPHI * (bi - ai) for ai, bi in zip(a, b)]
    d = [ai + _INVPHI * (bi - ai) for ai, bi in zip(a, b)]
    f = list(fn(every + every, c + d))
    fc, fd = f[:len(a)], f[len(a):]
    for _ in range(max_iter):
        k = [i for i in every if b[i] - a[i] > tol]
        if not k:
            break
        left = [fc[i] < fd[i] for i in k]
        s = []
        for i, lft in zip(k, left):
            if lft:  # the minimum is in [a, d]; c moves up to d
                b[i], d[i], fd[i] = d[i], c[i], fc[i]
                c[i] = b[i] - _INVPHI * (b[i] - a[i])
                s.append(c[i])
            else:    # it is in [c, b]; d moves down to c
                a[i], c[i], fc[i] = c[i], d[i], fd[i]
                d[i] = a[i] + _INVPHI * (b[i] - a[i])
                s.append(d[i])
        for i, lft, v in zip(k, left, fn(k, s)):
            if lft:
                fc[i] = v
            else:
                fd[i] = v
    xm = [0.5 * (ai + bi) for ai, bi in zip(a, b)]
    return xm, fn(every, xm)


def metric_ball(dom: ConvexDomain, center, radius, samples=64):
    """Boundary of the metric ball as chart points, one per sampled ray."""
    c = dom.chart_coords(center)
    if dom.backend.contains_margin(c) <= 0:
        raise InvalidInputError("ball center is not inside the domain")
    if dom.dim != 2:
        raise InvalidInputError("metric balls are drawn in 2-d charts only")
    ang = 2 * np.pi * np.arange(samples) / samples
    u = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    t_lo, t_hi = dom.backend.chord_params(c, u)
    return c + _param_at_distance(t_lo, t_hi, radius)[:, None] * u


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
    sup, nondecreasing when m doubles.  The 6(m+1) searches run in lockstep
    (`_golden_min`), so a call makes one `distances` call, one array chord
    query, per search step: about 50 in all, each of at most 12(m+1) rows.
    `threads` is ignored; it stays because `perfbench/workload_metric.py`
    passes it.
    """
    if m < 1:
        raise InvalidInputError("need at least one segment per side", m=m)
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

    # side i runs from a[i] to b[i]; search k = 2 (i (m + 1) + j) + o runs
    # from sample j of side i to side i + 1 + o (mod 3)
    a = np.array(verts)
    b = np.roll(a, -1, axis=0)
    t = np.linspace(0.0, 1.0, m + 1)[None, :, None]
    p = ((1 - t) * a[:, None] + t * b[:, None]).reshape(-1, a.shape[1])
    p = np.repeat(p, 2, axis=0)
    other = np.tile((np.arange(3)[:, None] + [1, 2]) % 3, (1, m + 1)).ravel()
    qa, qb = a[other], b[other]

    def gap(k, s):
        s = np.array(s)[:, None]
        return distances(dom, p[k], (1 - s) * qa[k] + s * qb[k]).tolist()

    _, gaps = _golden_min(gap, np.zeros(len(p)), np.ones(len(p)))
    side_maxima = np.reshape(gaps, (3, m + 1, 2)).min(axis=2).max(axis=1)
    return ThinTriangleResult(float(side_maxima.max()), False,
                              [float(v) for v in side_maxima])
