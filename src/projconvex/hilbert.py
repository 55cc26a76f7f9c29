"""Hilbert metric on a properly-convex domain, geodesics, chord projection,
and thin-triangle measurement.

Distances are half the log of the cross-ratio of the chord endpoints with the
two points, computed in chart coordinates; the half makes the Klein-model
value agree with the hyperbolic metric.  A distance asks the backend one
query, `segment_chord`, which checks both points and returns the chord;
`distances` asks it once for many pairs, which the lockstep thin-triangle
searches use.  A metric ball queries the chords of all its rays at once with
`chord_params`.
"""

from dataclasses import dataclass
from math import sqrt
from operator import sub

import numpy as np

from .config import TOL
from .domain import Chord, ConvexDomain, _length, _plain_dot, chord, support
from .errors import (
    GeometryError,
    InfiniteDistanceError,
    InvalidInputError,
    ProjectionUndefinedError,
)
from .projgeom import DualFunctional, ProjPoint, ProjSubspace, pencil_core


def _cross_ratio(t_lo, t_hi, step):
    """Hilbert distance of x and y: half the log cross-ratio of x, y and the
    chord endpoints at t_lo and t_hi on the line x + t (y - x), step = |y - x|.

    One pair in Python floats (`distances` works arrays alike); raises
    InfiniteDistanceError if an endpoint coincides with x or y.  The log is
    np.log: `math.log` differed from numpy's array log on 148 of 200,000
    random inputs, np.log of a float on none.
    """
    ax = -t_lo * step          # |a_minus - x|
    ay = (1.0 - t_lo) * step   # |a_minus - y|
    bx = t_hi * step           # |a_plus - x|
    by = (t_hi - 1.0) * step   # |a_plus - y|
    near = TOL.exact * max(1.0, step)
    if ax <= near or ay <= near or bx <= near or by <= near:
        raise InfiniteDistanceError(
            "chord endpoint coincides with an argument point")
    return 0.5 * abs(np.log((bx * ay) / (by * ax)))


def _distance_and_chord(dom: ConvexDomain, xc, yc):
    """Distance of two interior chart points, and the parameters (t_lo, t_hi)
    of the chord endpoints on the line xc + t (yc - xc), in one pass of
    Python floats on a small backend (`domain._FLOAT_TERMS`).  Coincident
    points give (0.0, None, None) without any check."""
    x, y = xc.tolist(), yc.tolist()
    d = list(map(sub, y, x))
    step = sqrt(_plain_dot(d, d))
    if step <= TOL.exact:
        return 0.0, None, None
    t_lo, t_hi = dom.backend.segment_chord(x, y, d, step)
    return _cross_ratio(t_lo, t_hi, step), t_lo, t_hi


def _distance_chart(dom: ConvexDomain, xc, yc):
    return _distance_and_chord(dom, xc, yc)[0]


def distance(dom: ConvexDomain, x, y) -> float:
    """Hilbert distance between two interior points."""
    return _distance_chart(dom, dom.chart_coords(x), dom.chart_coords(y))


def distances(dom: ConvexDomain, xs, ys):
    """Hilbert distances between the rows of two (N, n) arrays of chart points.

    Row by row bit-identical to `distance`, from one array chord query.  The
    checks are those of `distance`: a row of coincident points gives 0, and
    if a row fails, the error is the one a loop of `distance` calls raises.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    d = ys - xs
    step = _length(d)
    out = np.zeros(len(d))
    live = step > TOL.exact
    if not live.any():
        return out
    step = step[live]
    try:
        t_lo, t_hi = dom.backend.segment_chord(xs[live], ys[live], d[live], step)
        ax, ay = -t_lo * step, (1.0 - t_lo) * step
        bx, by = t_hi * step, (t_hi - 1.0) * step
        near = TOL.exact * np.maximum(1.0, step)
        if ((ax <= near) | (ay <= near) | (bx <= near) | (by <= near)).any():
            raise InfiniteDistanceError(
                "chord endpoint coincides with an argument point")
    except GeometryError:
        for x, y in zip(xs, ys):  # raises at the first failing row
            _distance_chart(dom, x, y)
        raise
    out[live] = 0.5 * abs(np.log((bx * ay) / (by * ax)))
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
    xc, yc = dom.chart_coords(x), dom.chart_coords(y)
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
    cond = float(np.linalg.cond(_pencil_basis(core, target)))
    return ChordProjection(target, h_plus, h_minus, core, cond)


def _pencil_basis(core: ProjSubspace, target: Chord):
    """Columns: the core's basis vectors, then the chord's two endpoints."""
    return np.vstack([core.basis,
                      target.a_minus.coords[None, :],
                      target.a_plus.coords[None, :]]).T


def project_to_chord(proj: ChordProjection, x) -> ProjPoint:
    """Write x as (core part) + (chord part) and return the chord part."""
    if isinstance(x, ProjPoint):
        vec = x.coords
    else:
        vec = np.asarray(x, dtype=float)
    basis = _pencil_basis(proj.core, proj.chord)
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


def _golden_min(fn, lo, hi):
    """Golden-section minima of quasiconvex functions, one per bracket
    [lo[i], hi[i]], searched in lockstep.

    fn(k, s) returns the values of functions k[j] at s[j] for index and
    point arrays k and s.  One call evaluates both interior points of every
    bracket, then one call per step (at most 200) the new points of the
    brackets still wider than 1e-10, and a last call the midpoints: each
    bracket takes the steps of a search of its own, in the same floats.
    Returns the midpoints and the values there.
    """
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    every = np.arange(len(a))
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    f = np.asarray(fn(np.concatenate([every, every]), np.concatenate([c, d])), dtype=float)
    fc, fd = f[:len(a)], f[len(a):]
    for _ in range(200):
        k = np.flatnonzero(b - a > 1e-10)
        if not k.size:
            break
        left = fc[k] < fd[k]
        kl, kr = k[left], k[~left]
        # in [a, d]: c moves up to d; in [c, b]: d moves down to c
        b[kl], d[kl], fd[kl] = d[kl], c[kl], fc[kl]
        c[kl] = b[kl] - _INVPHI * (b[kl] - a[kl])
        a[kr], c[kr], fc[kr] = c[kr], d[kr], fd[kr]
        d[kr] = a[kr] + _INVPHI * (b[kr] - a[kr])
        v = np.asarray(fn(k, np.where(left, c[k], d[k])), dtype=float)
        fc[kl], fd[kr] = v[left], v[~left]
    xm = 0.5 * (a + b)
    return xm, np.asarray(fn(every, xm), dtype=float)


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
        s = s[:, None]
        return distances(dom, p[k], (1 - s) * qa[k] + s * qb[k])

    _, gaps = _golden_min(gap, np.zeros(len(p)), np.ones(len(p)))
    side_maxima = np.reshape(gaps, (3, m + 1, 2)).min(axis=2).max(axis=1)
    return ThinTriangleResult(float(side_maxima.max()), False,
                              [float(v) for v in side_maxima])
