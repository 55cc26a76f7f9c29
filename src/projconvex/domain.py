"""Properly-convex domains in an affine patch, their cones, and duality.

A domain is a chart (hyperplane at infinity plus cached frame) and a backend
holding the set in chart coordinates: an ellipsoid, with closed forms, or a
polytope.  One class holds a polytope in two forms, unit-normal half-spaces
and a vertex array, and computes the form its constructor did not set on
first use: a vertex list's facets from the hull that also checks its convex
position, a half-space list's vertices from their intersection.  Both are
closed forms in chart dimensions 1 and 2 (a polygon's facet lines are
clipped by the other half-planes); above, one qhull run makes each, a 3-d
half-space list's around its Chebyshev center (one LP).  Its constructors
keep the input kinds: half-space lists, vertex lists and radial graphs (PL
star-shaped regions used for numerically computed hypersurfaces, whose
surface points are the vertices).  Every polytope query is exact:
predicates and chords read the facets, supports and radii the vertices, and
moments the simplices of a triangulation (a fan in 2-d).
Chart moments and the cone's slice moments (vinberg) use one kernel,
`_simplex_moments`, since the chart is the unit slice of its own functional;
the cone caches |det P_sigma| of each lifted simplex, so a slice's simplex
weights take no determinant per functional.
Projective maps (`transform`, `in_chart`, normalize's affine maps and box
check, `dual_domain`, and group's automorphism test and Dirichlet
constraints) share two kernels: facets move as the functionals of
`_facet_functionals`, points as raw vectors charted by `_chart_images`.  A
target chart whose hyperplane cuts the image raises instead of returning a
wrong domain.  Half-space domains and group's Dirichlet polytopes take their
vertices from one kernel, `_halfspace_vertices`.  scipy is imported inside
the calls that use it, since it would be most of a cold start: ellipsoids
and polygons (vertex lists, radial graphs and half-space lists in 2-d, so
also polygons' duals and Dirichlet polygons) need none of it.
"""

from dataclasses import dataclass
from functools import cached_property
from math import factorial, gamma, inf, isfinite, nan, pi, sqrt
from operator import sub

import numpy as np

from .config import TOL
from .errors import (
    AtInfinityError,
    DegenerateChordError,
    DegenerateDomainError,
    InvalidInputError,
    NotOnFrontierError,
    NotProperlyConvexError,
)
from .projgeom import (
    AffineChart,
    DualFunctional,
    ProjPoint,
    ProjTransform,
    standard_chart,
)

# Rejection rounds of `ConvexDomain.random_interior` before it gives up: two
# points of a 3-d polytope that fills 1.5e-4 of its sampling box still come
# out, and a margin no point reaches raises within about 0.1 s.
_SAMPLE_ROUNDS = 5000


# ---------------------------------------------------------------------------
# simplex moment formulas (exact)

def _simplex_moments(rv, measures):
    """Total measure, centroid and E[x x^T] of stacked simplices.

    rv is (k, m+1, d): the m+1 vertices of each of k m-simplices in R^d;
    measures holds their m-dimensional volumes.  A leading stack axis,
    rv (K, k, m+1, d) with measures (K, k), gives K independent sets; the
    per-simplex terms come from one flat (K*k, m+1, d) array, so each set's
    moments are, bit for bit, those of the set alone.
    """
    m1, d = rv.shape[-2:]
    flat = rv.reshape(-1, m1, d)
    s = flat.sum(axis=1)
    sq = np.einsum("kiv,kiw->kvw", flat, flat)
    cents = (s / m1).reshape(rv.shape[:-2] + (d,))   # flat.mean(axis=1)
    seconds = ((sq + np.einsum("kv,kw->kvw", s, s))
               / (m1 * (m1 + 1))).reshape(rv.shape[:-2] + (d, d))
    total = measures.sum(axis=-1)
    mu = (measures[..., None] * cents).sum(axis=-2) / total[..., None]
    e2 = (measures[..., None, None] * seconds).sum(axis=-3) / total[..., None, None]
    return total, mu, e2


def _triangulated_moments(backend):
    """Chart volume, centroid and central second moment from a triangulation."""
    pts, simps = backend.chart_triangulation()
    rv = pts[simps]
    vols = np.abs(np.linalg.det(rv[:, 1:] - rv[:, :1])) / factorial(pts.shape[1])
    if vols.sum() <= 0:
        raise DegenerateDomainError("zero volume region")
    vol, mu, e2 = _simplex_moments(rv, vols)
    return float(vol), mu, e2 - np.outer(mu, mu)


# ---------------------------------------------------------------------------
# row-wise products
#
# Support queries and the cone and solver kernels take one vector or an
# (N, n) stack.  A stack goes through numpy's batched matmul, which makes the
# same BLAS call per row as a single vector does, so each row is bit-identical
# to the one-vector value (a plain `X @ A.T` sums in another order).


def _matvec(a, x):
    """a @ x for a vector x, or for each row of a stack x."""
    return a @ x if x.ndim == 1 else (a @ x[..., None])[..., 0]


def _dot(u, v):
    """u . v for vectors, or row by row for stacks (either may be one vector)."""
    if u.ndim == 1 and v.ndim == 1:
        return u @ v
    return (u[..., None, :] @ v[..., None])[..., 0, 0]


def _norm(x):
    """np.linalg.norm of a vector, or of each row of a stack."""
    return np.sqrt(_dot(x, x))


def _outer(u):
    """np.outer(u, u) of a vector, or of each row of a stack."""
    return u[..., :, None] * u[..., None, :]


def _vecmat(u, m):
    """u @ m for a vector u, or for each row of a stack u."""
    return u @ m if u.ndim == 1 else (u[..., None, :] @ m)[..., 0, :]


# ---------------------------------------------------------------------------
# point queries: plain products
#
# `contains_margin`, `chord_params` and `segment_chord` take one point (line)
# or an (N, n) stack and work every dot product as `_plain_dot` does, never
# by BLAS, whose FMA kernels Python floats cannot reproduce: while rows
# times terms number at most `_FLOAT_TERMS`, row by row in Python floats
# from facet (quadric) lists cached on the backend (`_by_rows`), else in
# numpy, one coordinate column at a time.  The two ways round alike, so each
# stacked row is bit-identical to its one-point query.  `segment_chord`
# checks the two points of its line and finds the chord in one pass, with
# the floats and errors (x, then y, then the chord) of the separate queries.

# Points are worked in Python floats while their terms (m n a point for m
# facets in chart dimension n, n^2 for an ellipsoid) number at most this: one
# `segment_chord` of a pair in lists on random polytopes in chart dimensions
# 2 and 3 costs the same both ways at 125-165 terms, and a sixth in floats
# at 12 terms.
_FLOAT_TERMS = 144


def _plain_dot(u, v):
    """u[0] v[0] + u[1] v[1] + ..., added left to right: Python floats for
    lists, elementwise for arrays, so that a stack passes its columns (`x.T`)
    and x . a_j for every column a_j of an (n, m) array A is
    `_plain_dot(x.T[..., None], A)`."""
    acc = u[0] * v[0]
    for k in range(1, len(u)):
        acc = acc + u[k] * v[k]
    return acc


def _length(d):
    """|d| by `_plain_dot` for one vector, or for each row of a stack."""
    return np.sqrt(_plain_dot(d.T, d.T))


def _by_rows(kernel, terms, *vs):
    """kernel's floats for the one point, or the array of its values over
    the rows (its outputs as rows), of arrays vs of shape (n,) or (N, n)
    whose rows times `terms` number at most `_FLOAT_TERMS`; else None."""
    n = None
    for v in vs:
        if v.ndim == 2 and n in (None, len(v)):
            n = len(v)
        elif v.ndim != 1:
            return None
    if not 0 < (n or 1) * terms <= _FLOAT_TERMS:
        return None
    if n is None:
        return kernel(*[v.tolist() for v in vs])
    rows = zip(*[v.tolist() if v.ndim == 2 else [v.tolist()] * n for v in vs])
    return np.array([kernel(*r) for r in rows]).T


# ---------------------------------------------------------------------------
# map kernels: facets move as functionals, points as raw vectors


def _facet_functionals(chart, normals, offsets):
    """Functionals b e_inf - F a of the chart facets a . x < b, positive on
    the domain: one facet, or one row per row of an (m, n) normal stack."""
    return (np.asarray(offsets)[..., None] * chart.infinity
            - _matvec(chart.frame, normals))


def _chart_images(chart, w):
    """Chart points (w F) / h and heights h = w . e_inf of the rays of an
    (N, n+1) stack of raw vectors; a row on the chart hyperplane raises
    AtInfinityError.  A row of negative height gives its ray's point too."""
    h = w @ chart.infinity
    if np.any(np.abs(h) <= TOL.exact):
        raise AtInfinityError("image vertex on the target chart hyperplane")
    return (w @ chart.frame) / h[:, None], h


def _halfspace_vertices(normals, offsets, interior=None):
    """Vertices of the bounded intersection of the half-spaces a . x <= b.

    In 1-d they are the max and min of b / a over the normals below and
    above +-TOL.exact; in 2-d the closed form of `_halfspace_polygon`,
    counterclockwise about `interior` (default: their mean).  Above, qhull
    intersects the half-spaces around the strictly interior point
    `interior`, and its points are merged within TOL.flatness of the
    polytope's size (a vertex on more than n facets comes once per dual
    facet, ulps apart).  Unbounded, empty or flat data and qhull failures
    raise NotProperlyConvexError; in 1-d and 2-d an unbounded intersection's
    witness is a recession direction d, a . d <= TOL.exact for every unit a.
    """
    if normals.shape[1] == 1:
        a = normals[:, 0]
        up, down = a > TOL.exact, a < -TOL.exact
        if not (up.any() and down.any()):
            raise NotProperlyConvexError("half-space data is unbounded",
                                         witness=np.array([-1.0 if up.any() else 1.0]))
        lo, hi = np.max(offsets[down] / a[down]), np.min(offsets[up] / a[up])
        if lo >= hi:
            raise NotProperlyConvexError("empty or flat half-space intersection")
        return np.array([[lo], [hi]])
    if normals.shape[1] == 2:
        return _halfspace_polygon(normals, offsets, interior)
    from scipy.spatial import HalfspaceIntersection, QhullError, cKDTree

    try:
        # an unbounded intersection divides by zero in qhull's dual; the
        # non-finite check below reports it
        with np.errstate(divide="ignore", invalid="ignore"):
            pts = HalfspaceIntersection(np.hstack([normals, -offsets[:, None]]),
                                        interior).intersections
    except (QhullError, ValueError) as exc:
        raise NotProperlyConvexError(
            f"half-space intersection failed: {_first_line(exc)}") from exc
    if not np.all(np.isfinite(pts)):
        raise NotProperlyConvexError("half-space data is unbounded")
    rel = pts - interior
    pairs = cKDTree(rel).query_pairs(TOL.flatness * np.max(np.abs(rel)),
                                     output_type="ndarray")
    return pts[np.setdiff1d(np.arange(len(pts)), pairs[:, 1])]   # first of each


def _halfspace_polygon(normals, offsets, interior=None):
    """Vertices of the polygon a_i . x <= b_i, by clipping each facet line.

    The line of facet i is p_i + t u_i, with p_i = b_i a_i for the unit
    normal a_i and u_i = a_i turned by +90 degrees, so t runs
    counterclockwise; every other half-plane bounds t from one side, or
    (parallel to the line) keeps or empties it.  The intervals [lo_i, hi_i]
    left are the edges, except that a facet through a vertex only has an
    empty or zero-length one and a redundant facet none.  So the vertices
    are the start points p_i + lo_i u_i in counterclockwise order of the
    normals, where near-coincident ones are neighbours: of each run within
    TOL.flatness of the data's size (max |start - their mean|) the first is
    kept.  An infinite interval raises (unbounded; witness its
    direction), as do fewer than three vertices (empty or flat).
    """
    a, b = _unit_halfspaces(normals, offsets)
    u = a[:, ::-1] * [-1.0, 1.0]
    p = b[:, None] * a
    den = u @ a.T                 # den[i, j] = a_j . u_i
    num = b - p @ a.T             # b_j - a_j . p_i: t den[i, j] <= num[i, j]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = num / den
    hi = np.where(den > TOL.exact, t, inf).min(axis=1)
    lo = np.where(den < -TOL.exact, t, -inf).max(axis=1)
    shut = ((np.abs(den) <= TOL.exact)
            & (num < -TOL.exact * (np.abs(b)[:, None] + np.abs(b))))
    live = (lo <= hi) & ~shut.any(axis=1)
    a, u, p, lo, hi = a[live], u[live], p[live], lo[live], hi[live]
    ray = np.flatnonzero(~np.isfinite(hi - lo))
    if ray.size:
        i = ray[0]
        raise NotProperlyConvexError("half-space data is unbounded",
                                     witness=u[i] if hi[i] == inf else -u[i])
    s = p + lo[:, None] * u
    if len(s):
        tol = TOL.flatness * np.abs(s - s.mean(axis=0)).max()
        s = s[_ccw_order(a)]
        step = s - np.roll(s, 1, axis=0)
        s = s[np.hypot(step[:, 0], step[:, 1]) > tol]   # the first of each run
    if len(s) < 3:
        raise NotProperlyConvexError("empty or flat half-space intersection")
    c = s.mean(axis=0) if interior is None else interior
    return s[_ccw_order(s - c)]


def _unit_halfspaces(normals, offsets):
    """The half-spaces a . x < b rescaled to unit normals; a zero normal
    raises InvalidInputError."""
    norms = np.linalg.norm(normals, axis=1)
    if np.any(norms <= 0):
        raise InvalidInputError("zero normal vector")
    return normals / norms[:, None], offsets / norms


def _first_line(exc):
    """qhull's message without the diagnostic (and per-process run id) after it."""
    return str(exc).partition("\n")[0]


def _ccw_order(rel):
    """Indices of the rows of an (N, 2) array of vectors (points less an
    interior point) in counterclockwise order of angle from -pi; equal
    angles keep their index order."""
    return np.argsort(np.arctan2(rel[:, 1], rel[:, 0]), kind="stable")


def _convex_polygon(verts):
    """Indices of the extreme points of a 2-d point list, counterclockwise
    about its mean: the corners of that star polygon that turn left.  Each
    round drops the later index of neighbours within TOL.flatness of the
    data's size, or else the corners within that of their neighbours'
    chord or beyond it, except a spike tip: a corner that arrives outward
    along its ray from the mean and turns back, whose nearer neighbours on
    that ray drop instead.  Collinear points raise NotProperlyConvexError."""
    rel = verts - verts.sum(axis=0) / len(verts)
    tol = TOL.flatness * np.abs(rel).max()
    idx = _ccw_order(rel)
    while len(idx) >= 3:
        ring = np.concatenate((idx[-1:], idx, idx[:1]))
        p = rel[ring]
        e = p[1:] - p[:-1]   # e[i] and e[i + 1] go into and out of point i
        into, out = e[:-1], e[1:]
        near = np.hypot(into[:, 0], into[:, 1]) <= tol
        if near.any():
            later = idx > ring[:-2]
            drop = (near & later) | np.roll(near & ~later, -1)
        else:
            turn = into[:, 0] * out[:, 1] - into[:, 1] * out[:, 0]
            chord = into + out
            flat = tol * np.hypot(chord[:, 0], chord[:, 1])
            tip = (_dot(into, out) < 0) & (_dot(into, p[1:-1]) > 0)
            drop = (turn <= flat) & ~(tip & (turn >= -flat))
            if not drop.any():
                return idx
        idx = idx[~drop]
    raise NotProperlyConvexError("degenerate vertex data: the points are collinear")


def _vertex_hull(verts):
    """Unit facets (normals, offsets) of the hull of a vertex list and the
    indices of its extreme points: in 1-d the facets of the min and the max
    (extreme indices None), in 2-d the edges between the extreme points in
    counterclockwise order, above that from one qhull run."""
    if verts.shape[1] == 1:
        lo, hi = float(np.min(verts)), float(np.max(verts))
        return (*_unit_halfspaces(np.array([[1.0], [-1.0]]), np.array([hi, -lo])),
                None)
    if verts.shape[1] == 2:
        idx = _convex_polygon(verts)
        p = verts[idx]
        e = np.concatenate((p[1:], p[:1])) - p
        normals = e[:, ::-1] * [1.0, -1.0] / np.hypot(e[:, 0], e[:, 1])[:, None]
        return normals, (normals * p).sum(axis=1), idx
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(verts)
    except (QhullError, ValueError) as exc:
        raise NotProperlyConvexError(
            f"degenerate vertex data: {_first_line(exc)}") from exc
    eq = hull.equations
    return (*_unit_halfspaces(eq[:, :-1], -eq[:, -1]), hull.vertices)


# ---------------------------------------------------------------------------
# backends


class _PointQueries:
    """The point queries of a backend from its `_terms` terms and kernels:
    `_floats` (one line, Python floats) gives numbers with the signs of x's
    and y's margins and the chord (t_lo, t_hi) of x + t d, not finite where
    the line misses (`_chord_error`); `_columns` the same in numpy columns;
    `_margin_floats` and `_margin_columns` the margin itself."""

    def contains_margin(self, x):
        x = np.asarray(x, dtype=float)
        low = _by_rows(self._margin_floats, self._terms, x)
        low = self._margin_columns(x) if low is None else low
        return low if x.ndim > 1 else float(low)

    def chord_params(self, x, d):
        """Parameters (t_lo, t_hi) of the frontier points of the line x + t d.

        x and d are one point and one direction, or (N, n) stacks of them
        (one point or direction broadcasts); stacks give arrays that are, row
        by row, the one-line values.  x need not be inside: this is the query
        for rays from a known interior point (metric balls, box sandwiches,
        mesh radii); a line through two points to be checked takes
        `segment_chord`.
        """
        return self._query(x, None, d, None)

    def segment_chord(self, x, y, d, step=None):
        """`chord_params(x, d)` for the line through x and y = x + d, after
        checking that x and then y are inside (InvalidInputError naming the
        point), from one pass of the kernels; `step` is |d| if the caller
        has it.  One pair (arrays, or lists of floats with the step) or
        (N, n) stacks, row by row the one-pair values."""
        if type(d) is not list:
            return self._query(x, y, d, step)
        if self._terms > _FLOAT_TERMS:
            return self._checked(True, *self._columns(x, y, d, step))
        low_x, low_y, t_lo, t_hi = self._floats(x, y, d, step)
        if low_x > 0 < low_y and isfinite(t_lo) and isfinite(t_hi):
            return t_lo, t_hi
        return self._checked(True, low_x, low_y, t_lo, t_hi)

    def _query(self, x, y, d, step):
        check = y is not None
        x, d = np.asarray(x, dtype=float), np.asarray(d, dtype=float)
        y = np.asarray(y, dtype=float) if check else x
        out = _by_rows(self._floats, self._terms, x, y, d)
        return self._checked(check, *(self._columns(x, y, d, step) if out is None else out))

    def _checked(self, check, low_x, low_y, t_lo, t_hi):
        """(t_lo, t_hi) after the checks, in this order: x and then y inside
        if `check`, then a finite chord (on every row of a stack)."""
        stack = isinstance(t_hi, np.ndarray)
        for name, low in (("x", low_x), ("y", low_y)) if check else ():
            if (low <= 0).any() if stack else low <= 0:
                raise InvalidInputError(f"point {name} is not inside the domain")
        if stack and np.isfinite(t_lo).all() and np.isfinite(t_hi).all():
            return t_lo, t_hi
        if not stack and isfinite(t_lo) and isfinite(t_hi):
            return float(t_lo), float(t_hi)
        raise self._chord_error[0](self._chord_error[1])


class _PolytopeBackend(_PointQueries):
    """A polytope held in two forms: the unit-normal half-spaces
    a_i . x < b_i (`normals`, `offsets`) and the vertex array `verts`.

    Each constructor sets one form; the other is computed on first use.
    The facets of a vertex list come from the hull that also checks its
    convex position (`_hull`: the min and max in 1-d, the counterclockwise
    extreme points in 2-d, one qhull run above); the vertices of a
    half-space list from `_halfspace_vertices`: closed forms in 1-d and 2-d,
    one qhull run around its Chebyshev center above.
    Predicates and chords read the facets, supports and radii the vertices,
    and moments a triangulation: the fan about `center` over the given
    `simplices` (radial graphs), else the fan from the first extreme point
    in 2-d and Delaunay's of the vertices above.
    """

    simplices = None
    _tri = None

    @cached_property
    def _hull(self):
        return _vertex_hull(self.verts)

    @cached_property
    def normals(self):
        return self._hull[0]

    @cached_property
    def offsets(self):
        return self._hull[1]

    @cached_property
    def center(self):
        """Interior point: the vertex mean (a radial graph's is given, a
        half-space list's in chart dimension 3 is its Chebyshev center)."""
        return self.verts.mean(axis=0)

    def _check_hull(self, message):
        """NotProperlyConvexError unless every vertex is extreme; the
        witness lists the others."""
        extreme = self._hull[2]
        if len(extreme) != len(self.verts):
            inner = sorted(set(range(len(self.verts))) - set(extreme))
            raise NotProperlyConvexError(
                message, witness={"non_extreme_indices": inner})

    def interior_point(self):
        return self.center

    def vertices(self):
        return self.verts

    _chord_error = NotProperlyConvexError, "line does not exit the region"

    _terms = cached_property(lambda self: self.normals.size)

    @cached_property
    def _facets(self):
        """(a_i, b_i) in Python floats, None above `_FLOAT_TERMS` terms."""
        if self._terms <= _FLOAT_TERMS:
            return list(zip(self.normals.tolist(), self.offsets.tolist()))

    def _margin_floats(self, x):
        """The least slack b - a . x (`_plain_dot` written out)."""
        rest, x0, low = range(1, self.dim), x[0], inf
        for a, b in self._facets:
            s = a[0] * x0
            for k in rest:
                s = s + a[k] * x[k]
            if b - s < low:
                low = b - s
        return low

    def _margin_columns(self, x):
        return (self.offsets - _plain_dot(x.T[..., None], self.normals.T)).min(axis=-1)

    def _floats(self, x, y, d, step=None):
        """The least slack b - a . p over the facets (a, b) of p = x and
        p = y, and the chord (t_lo, t_hi) of x + t d (+-inf if unbounded), in
        one pass of Python floats (`_plain_dot` written out).  A facet with
        |a . d| <= 1e-12 |d| is parallel to the line."""
        cut = TOL.exact * (sqrt(_plain_dot(d, d)) if step is None else step)
        rest = range(1, len(x))
        x0, y0, d0 = x[0], y[0], d[0]
        low_x = low_y = t_hi = inf
        t_lo = -inf
        for a, b in self._facets:
            a0 = a[0]
            ax, ay, ad = a0 * x0, a0 * y0, a0 * d0
            for k in rest:
                ak = a[k]
                ax = ax + ak * x[k]
                ay = ay + ak * y[k]
                ad = ad + ak * d[k]
            sx, sy = b - ax, b - ay
            if sx < low_x:
                low_x = sx
            if sy < low_y:
                low_y = sy
            if ad > cut:
                r = sx / ad
                if r < t_hi:
                    t_hi = r
            elif ad < -cut:
                r = sx / ad
                if r > t_lo:
                    t_lo = r
        return low_x, low_y, t_lo, t_hi

    def _columns(self, x, y, d, step):
        """`_floats` for all lines in numpy columns."""
        cut = TOL.exact * (_length(d) if step is None else step)
        if type(d) is list:
            xyd = np.array((x, y, d))
        else:
            xyd = np.empty((3,) + max(x.shape, d.shape, key=len))
            xyd[0], xyd[1], xyd[2] = x, y, d
        acc = _plain_dot(xyd.T[..., None], self.normals.T)   # (..., 3, m)
        slack = self.offsets - acc[..., :2, :]
        low_x, low_y = slack.min(axis=-1).T
        # divide, and read, only the facets that bound the line
        den, cut = acc[..., 2, :], np.asarray(cut)[..., None]
        pos, neg = den > cut, den < -cut
        t = np.divide(slack[..., 0, :], den, out=np.empty(den.shape), where=pos | neg)
        return (low_x, low_y, t.max(axis=-1, where=neg, initial=-inf),
                t.min(axis=-1, where=pos, initial=inf))

    def supporting_facets(self, x, tol):
        slack = self.offsets - self.normals @ np.asarray(x, dtype=float)
        idx = np.nonzero(np.abs(slack) <= tol)[0]
        return [(self.normals[i], self.offsets[i]) for i in idx]

    def boundary_flats(self):
        v = self.verts
        flats = []
        for a, b in zip(self.normals, self.offsets):
            on = v[np.abs(v @ a - b) <= TOL.flatness * (1.0 + abs(b))]
            flats.append({"normal": a.copy(), "offset": float(b), "vertices": on})
        return flats

    def support(self, u):
        """Support function at one direction, or at each row of a stack."""
        u = np.asarray(u, dtype=float)
        h = _matvec(self.verts, u)
        return h.max(axis=-1) if u.ndim > 1 else float(h.max())

    def support_point(self, u):
        return self.verts[np.argmax(self.verts @ np.asarray(u, dtype=float))]

    def bounding_radius(self):
        return float(np.max(np.linalg.norm(self.verts, axis=1)))

    def chart_triangulation(self):
        if self._tri is None:
            if self.simplices is None:
                self._tri = _triangulate(self.verts,
                                         self._hull[2] if self.dim == 2 else None)
            else:
                pts = np.vstack([self.center[None, :], self.verts])
                simps = np.array([[0] + [i + 1 for i in s] for s in self.simplices],
                                 dtype=int)
                self._tri = pts, simps
        return self._tri

    moments = _triangulated_moments


class HPolyBackend(_PolytopeBackend):
    """Open intersection of half-spaces {x : a_i . x < b_i} with unit normals."""

    kind = "hpoly"

    def __init__(self, normals, offsets, prune=True):
        a = np.atleast_2d(np.asarray(normals, dtype=float))
        b = np.atleast_1d(np.asarray(offsets, dtype=float))
        if a.shape[0] != b.size:
            raise InvalidInputError("normals/offsets length mismatch")
        self.normals, self.offsets = _unit_halfspaces(a, b)
        self.dim = a.shape[1]
        if prune:
            # keep the facets that some vertex touches
            slack = self.offsets[:, None] - self.normals @ self.verts.T
            active = np.min(np.abs(slack), axis=1) <= 1e-9 * (1.0 + np.abs(self.offsets))
            self.normals, self.offsets = self.normals[active], self.offsets[active]

    @cached_property
    def verts(self):
        if self.dim < 3:
            return _halfspace_vertices(self.normals, self.offsets)
        try:
            return _halfspace_vertices(self.normals, self.offsets, self.center)
        except NotProperlyConvexError as exc:
            if "witness" not in exc.data:   # `center` may have attached one
                exc.data["witness"] = self._recession_direction()
            raise

    @cached_property
    def center(self):
        """The vertex mean in chart dimensions 1 and 2, where the vertices
        have closed forms; above, the Chebyshev center, by one LP."""
        if self.dim < 3:
            return self.verts.mean(axis=0)
        from scipy.optimize import linprog

        m, n = self.normals.shape
        c = np.zeros(n + 1)
        c[-1] = -1.0
        a_ub = np.hstack([self.normals, np.ones((m, 1))])
        res = linprog(c, A_ub=a_ub, b_ub=self.offsets,
                      bounds=[(None, None)] * n + [(0, None)], method="highs")
        if res.status == 3:
            raise NotProperlyConvexError(
                "half-space data is unbounded",
                witness=self._recession_direction(),
            )
        if not res.success or res.x[-1] <= 0:
            raise NotProperlyConvexError("empty or flat half-space intersection",
                                         witness=None)
        return res.x[:-1]

    def _recession_direction(self):
        from scipy.optimize import linprog

        n = self.dim
        for j in range(n):
            for sign in (1.0, -1.0):
                c = np.zeros(n)
                c[j] = -sign
                res = linprog(c, A_ub=self.normals, b_ub=np.zeros(len(self.offsets)),
                              bounds=[(-1, 1)] * n, method="highs")
                if res.success and -res.fun > 1e-9:
                    return res.x
        return None

    def to_json(self):
        return {"type": "hpoly", "normals": self.normals.tolist(),
                "offsets": self.offsets.tolist()}


class VPolyBackend(_PolytopeBackend):
    """Open convex hull of a vertex list in convex position.

    `listed` keeps the vertices as given, for `to_json` and maps; `verts`
    is the same array, sorted in 1-d.
    """

    kind = "vpoly"

    def __init__(self, vertices, check=True):
        v = np.atleast_2d(np.asarray(vertices, dtype=float))
        self.listed = v
        self.dim = v.shape[1]
        self.verts = np.sort(v, axis=0) if self.dim == 1 else v
        if check:
            self._check_convex_position()

    def _check_convex_position(self):
        v = self.listed
        if self.dim == 1:
            if v.shape[0] != 2 or abs(v[0, 0] - v[1, 0]) <= TOL.exact:
                raise NotProperlyConvexError(
                    "1-d vertex list must be two distinct points", witness=v)
            return
        if v.shape[0] < self.dim + 1:
            raise NotProperlyConvexError("too few vertices for an open set", witness=v)
        self._check_hull("vertex list is not in convex position")

    def to_json(self):
        return {"type": "vpoly", "vertices": self.listed.tolist()}


class EllipsoidBackend(_PointQueries):
    """Open set {x : (x-c)^T M (x-c) < 1} with M symmetric positive-definite."""

    kind = "ellipsoid"
    _chord_error = DegenerateChordError, "line misses the ellipsoid"

    def __init__(self, center, shape):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        m = np.atleast_2d(np.asarray(shape, dtype=float))
        self.shape_matrix = 0.5 * (m + m.T)
        w = np.linalg.eigvalsh(self.shape_matrix)
        if w[0] <= 0:
            raise NotProperlyConvexError(
                "ellipsoid shape matrix not positive-definite",
                witness={"eigenvalues": w})
        self._minv = np.linalg.inv(self.shape_matrix)
        self._terms = self.shape_matrix.size
        self._rows = (self.shape_matrix.tolist()
                      if self._terms <= _FLOAT_TERMS else None)
        self._c = self.center.tolist()

    @property
    def dim(self):
        return self.center.size

    def interior_point(self):
        return self.center

    def _form(self, v):
        """u^T M, u^T M u and u for u = v (one vector or a stack) in the
        numpy columns that `_plain_dot` takes."""
        u = v.T
        um = _plain_dot(u[..., None], self.shape_matrix).T
        return um, _plain_dot(um, u), u

    def _margin_floats(self, x):
        """1 - sqrt(q), q = u^T M u for u = x - c (`_plain_dot` written out:
        -0.0 + t is t)."""
        u, q = list(map(sub, x, self._c)), -0.0
        for row, v in zip(self._rows, u):
            m = -0.0
            for a, b in zip(u, row):
                m = m + a * b
            q = q + m * v
        return 1.0 - sqrt(max(q, 0.0))

    def _margin_columns(self, x):
        return 1.0 - np.sqrt(np.maximum(self._form(x - self.center)[1], 0.0))

    def _floats(self, x, y, d, step=None):
        """1 - q for q = u^T M u of u = x - c and y - c (the margins 1 -
        sqrt(q) have its sign), and the chord: the roots of alpha t^2 +
        2 beta t + q_x - 1, beta = u_x^T M d, alpha = d^T M d; one pass of
        Python floats (`_plain_dot` written out: -0.0 + t is t)."""
        ux, uy = list(map(sub, x, self._c)), list(map(sub, y, self._c))
        rest = range(1, len(d))
        qx = qy = beta = alpha = -0.0
        for i, row in enumerate(self._rows):
            m = row[0]
            mx, my, md = ux[0] * m, uy[0] * m, d[0] * m
            for k in rest:
                m = row[k]
                mx = mx + ux[k] * m
                my = my + uy[k] * m
                md = md + d[k] * m
            qx = qx + mx * ux[i]
            qy = qy + my * uy[i]
            beta = beta + mx * d[i]
            alpha = alpha + md * d[i]
        disc = beta * beta - alpha * (qx - 1.0)
        if not disc > 0:
            return 1.0 - qx, 1.0 - qy, nan, nan
        root = sqrt(disc)
        return 1.0 - qx, 1.0 - qy, (-beta - root) / alpha, (-beta + root) / alpha

    def _columns(self, x, y, d, step):
        """`_floats` in numpy columns."""
        x, y, d = (np.asarray(v, dtype=float) for v in (x, y, d))
        um, qx = self._form(x - self.center)[:2]
        qy = qx if y is x else self._form(y - self.center)[1]
        _, alpha, d = self._form(d)
        beta = _plain_dot(um, d)
        disc = beta * beta - alpha * (qx - 1.0)
        root = np.sqrt(np.where(disc > 0, disc, nan))
        return 1.0 - qx, 1.0 - qy, (-beta - root) / alpha, (-beta + root) / alpha

    def support(self, u):
        """Support function at one direction, or at each row of a stack."""
        u = np.asarray(u, dtype=float)
        h = _dot(self.center, u) + np.sqrt(_dot(_vecmat(u, self._minv), u))
        return h if u.ndim > 1 else float(h)

    def support_point(self, u):
        u = np.asarray(u, dtype=float)
        w = self._minv @ u
        return self.center + w / np.sqrt(u @ w)

    def supporting_facets(self, x, tol):
        n = self.shape_matrix @ (np.asarray(x, dtype=float) - self.center)
        nn = np.linalg.norm(n)
        if nn == 0:
            raise NotOnFrontierError("center of ellipsoid has no tangent")
        n = n / nn
        return [(n, float(n @ x))]

    def boundary_flats(self):
        return []

    def chart_triangulation(self):
        return None

    def moments(self):
        n = self.dim
        vol = _ball_volume(n) / np.sqrt(np.linalg.det(self.shape_matrix))
        q = self._minv / (n + 2.0)
        return vol, self.center.copy(), q

    def bounding_radius(self):
        w = np.linalg.eigvalsh(self.shape_matrix)
        return float(np.linalg.norm(self.center) + 1.0 / np.sqrt(w[0]))

    def to_json(self):
        return {"type": "ellipsoid", "center": self.center.tolist(),
                "shape": self.shape_matrix.tolist()}


class RadialGraphBackend(_PolytopeBackend):
    """PL star-shaped region: positive radii over a triangulated direction
    set about `center`; its surface points are the vertex form `verts`."""

    kind = "radialgraph"

    def __init__(self, center, directions, radii, simplices=None, check=True):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.dim = self.center.size
        d = np.atleast_2d(np.asarray(directions, dtype=float))
        norms = np.linalg.norm(d, axis=1)
        if np.any(norms <= 0):
            raise InvalidInputError("zero direction in radial graph")
        self.directions = d / norms[:, None]
        self.radii = np.atleast_1d(np.asarray(radii, dtype=float))
        if np.any(self.radii <= 0):
            raise NotProperlyConvexError(
                "radial graph radii must be positive",
                witness={"indices": np.nonzero(self.radii <= 0)[0]})
        if simplices is None:
            simplices = self._default_simplices()
        self.simplices = [tuple(int(i) for i in s) for s in simplices]
        if any(len(s) != self.dim or not all(0 <= i < len(d) for i in s)
               for s in self.simplices):
            raise InvalidInputError(
                f"radial graph simplices must be {self.dim} direction indices "
                f"in range({len(d)})")
        self.verts = self.center + self.radii[:, None] * self.directions
        if check:
            if self.dim > 1:
                self._check_hull("radial graph surface is not convex")
            margin = self.contains_margin(self.center)
            if margin <= 0:
                raise NotProperlyConvexError(
                    "radial graph center is not inside its surface", margin=margin)

    def _default_simplices(self):
        if self.dim != 2:
            raise InvalidInputError("simplices required for radial graphs off the circle")
        order = _ccw_order(self.directions)
        return np.stack([order, np.roll(order, -1)], axis=1)

    def to_json(self):
        return {"type": "radialgraph", "center": self.center.tolist(),
                "directions": self.directions.tolist(), "radii": self.radii.tolist(),
                "simplices": [list(s) for s in self.simplices]}


def _ball_volume(n):
    return pi ** (n / 2.0) / gamma(n / 2.0 + 1.0)


def _triangulate(v, ccw):
    """Triangulation (points, simplices) of the hull of a vertex array:
    consecutive pairs of the sorted points in 1-d; in 2-d the fan from the
    first of the extreme indices ccw, given counterclockwise (n - 2
    triangles, as many as Delaunay gives a convex n-gon); Delaunay's above."""
    if v.shape[1] == 1:
        order = np.argsort(v[:, 0])
        pts = v[order]
        simps = np.array([[i, i + 1] for i in range(pts.shape[0] - 1)], dtype=int)
        return pts, simps
    if v.shape[1] == 2:
        return v, np.stack([np.full(len(ccw) - 2, ccw[0]), ccw[1:-1], ccw[2:]], axis=1)
    from scipy.spatial import Delaunay

    return v, Delaunay(v).simplices


# ---------------------------------------------------------------------------
# domain


@dataclass
class ProperConvexityCertificate:
    hyperplane: DualFunctional
    margin: float
    bounding_radius: float
    interior_point: np.ndarray


@dataclass
class Containment:
    kind: str  # inside | boundary | outside
    margin: float


class Chord:
    """Open chord of a domain with its two frontier endpoints."""

    __slots__ = ("a_minus", "a_plus", "x_minus", "x_plus")

    def __init__(self, domain, x_minus, x_plus, check=True):
        self.x_minus = np.asarray(x_minus, dtype=float)
        self.x_plus = np.asarray(x_plus, dtype=float)
        self.a_minus = domain.chart.from_chart(self.x_minus)
        self.a_plus = domain.chart.from_chart(self.x_plus)
        if check:
            t = np.linspace(0.0, 1.0, 18)[1:-1, None]
            x = (1 - t) * self.x_minus + t * self.x_plus
            out = np.flatnonzero(domain.backend.contains_margin(x) < -TOL.matrix)
            if out.size:
                raise DegenerateChordError(
                    "interior sample of chord left the domain",
                    parameter=t[out[0], 0])

    def point_at(self, t):
        return (1 - t) * self.x_minus + t * self.x_plus


class ConvexDomain:
    """Properly-convex open set: a chart plus a backend in chart coordinates."""

    def __init__(self, chart: AffineChart, backend):
        self.chart = chart
        self.backend = backend
        self._certificate = None

    @property
    def dim(self):
        return self.backend.dim

    # -- convenience constructors

    @staticmethod
    def from_halfspaces(normals, offsets, chart=None):
        b = HPolyBackend(normals, offsets)
        chart = chart or standard_chart(b.dim)
        return ConvexDomain(chart, b)

    @staticmethod
    def from_vertices(vertices, chart=None):
        b = VPolyBackend(vertices)
        chart = chart or standard_chart(b.dim)
        return ConvexDomain(chart, b)

    @staticmethod
    def ellipsoid(center, shape, chart=None):
        b = EllipsoidBackend(center, shape)
        chart = chart or standard_chart(b.dim)
        return ConvexDomain(chart, b)

    @staticmethod
    def radial_graph(center, directions, radii, simplices=None, chart=None):
        b = RadialGraphBackend(center, directions, radii, simplices)
        chart = chart or standard_chart(b.dim)
        return ConvexDomain(chart, b)

    # -- basic queries

    def interior_point(self):
        return self.backend.interior_point()

    def chart_coords(self, p):
        if type(p) is np.ndarray and p.ndim == 1 and p.dtype == np.float64:
            return p
        if isinstance(p, ProjPoint):
            return self.chart.to_chart(p)
        return np.atleast_1d(np.asarray(p, dtype=float))

    def cone(self):
        return ConvexCone(self)

    def support_function(self, dirs):
        return self.backend.support(np.atleast_2d(np.asarray(dirs, dtype=float)))

    def random_interior(self, rng, size=1, margin=0.0):
        if size < 1:
            raise InvalidInputError("need at least one point", size=size)
        r = self.backend.bounding_radius()
        out = np.empty((size, self.dim))
        got = rounds = 0
        while got < size:
            if rounds == _SAMPLE_ROUNDS:
                raise InvalidInputError(
                    "no interior point with this margin found",
                    margin=margin, rounds=rounds)
            rounds += 1
            cand = rng.uniform(-r, r, size=(4 * (size - got) + 8, self.dim))
            new = cand[self.backend.contains_margin(cand) > margin][:size - got]
            out[got:got + len(new)] = new
            got += len(new)
        return out if size > 1 else out[0]

    def in_chart(self, chart: AffineChart):
        """Re-express the same projective set in another chart."""
        return _remap(self, np.eye(self.dim + 1), chart)

    def transform(self, a: ProjTransform, chart: AffineChart = None):
        """Image domain under a projective transform, in an equivariant chart."""
        if chart is None:
            w = np.linalg.solve(a.matrix.T, self.chart.infinity)
            chart = AffineChart(w / np.linalg.norm(w))
        return _remap(self, a.matrix, chart)

    def to_json(self):
        return {"chart": self.chart.infinity.tolist(),
                "backend": self.backend.to_json()}


def _remap(dom, matrix, chart):
    """Map dom through the projective matrix and re-chart the image.

    A chart hyperplane that cuts the image raises: AtInfinityError where the
    heights of vertices (a radial graph's center and surface points) change
    sign, NotProperlyConvexError from an ellipsoid's section or, on first
    use, from a half-space image's vertices.  An ellipsoid under a map that
    is affine between the two charts has its image in closed form.
    """
    old = dom.chart
    b = dom.backend
    if b.kind == "hpoly":
        gs = np.linalg.solve(matrix.T, _facet_functionals(old, b.normals, b.offsets).T).T
        offs = gs @ chart.infinity
        norms = -(gs @ chart.frame)
        return ConvexDomain(chart, HPolyBackend(norms, offs, prune=False))
    if b.kind == "ellipsoid":
        # a map that sends the old chart's hyperplane at infinity to the new
        # one's acts between the charts as x -> L x + s (all images at height
        # h), so the image has center L c + s and shape L^-T M L^-1
        top, rest = chart.infinity @ matrix, chart.frame.T @ matrix
        h = top @ old.infinity
        if h and np.linalg.norm(top @ old.frame) <= TOL.exact * abs(h):
            lin, shift = rest @ old.frame / h, rest @ old.infinity / h
            inv = np.linalg.inv(lin)
            return ConvexDomain(chart, EllipsoidBackend(
                lin @ b.center + shift, inv.T @ b.shape_matrix @ inv))
        q = _homogeneous_quadric(b, old)
        minv = np.linalg.inv(matrix)
        q = minv.T @ q @ minv
        interior = matrix @ old.lift(b.interior_point())
        return ConvexDomain(chart, _ellipsoid_from_quadric(q, chart, interior))
    # vertex polygons, and radial graphs with their center as row 0
    pts = b.listed if b.kind == "vpoly" else np.vstack([b.center, b.verts])
    images, h = _chart_images(chart, old.lift_many(pts) @ matrix.T)
    if h.min() < 0 < h.max():
        raise AtInfinityError("the target chart hyperplane cuts the image")
    if b.kind == "vpoly":
        return ConvexDomain(chart, VPolyBackend(images, check=False))
    rel = images[1:] - images[0]
    return ConvexDomain(chart, RadialGraphBackend(
        images[0], rel, np.linalg.norm(rel, axis=1), b.simplices, check=False))


def _homogeneous_quadric(b: EllipsoidBackend, chart: AffineChart):
    """Symmetric matrix Q with the cone over the ellipsoid = {w : w^T Q w < 0}."""
    t = chart.frame.T - np.outer(b.center, chart.infinity)
    return t.T @ b.shape_matrix @ t - np.outer(chart.infinity, chart.infinity)


def _oriented_quadric(q, interior_vec):
    """The sign of the quadric q that is negative on the cone's interior."""
    return -q if interior_vec @ q @ interior_vec > 0 else q


def _ellipsoid_from_quadric(q, chart: AffineChart, interior_vec):
    """Chart section of a signature-(n,1) quadratic cone as an ellipsoid."""
    q = _oriented_quadric(q, interior_vec)
    a = chart.frame.T @ q @ chart.frame
    bb = chart.frame.T @ q @ chart.infinity
    cc = chart.infinity @ q @ chart.infinity
    w = np.linalg.eigvalsh(a)
    if w[0] <= 0:
        raise NotProperlyConvexError(
            "quadric section is unbounded in this chart",
            witness={"eigenvalues": w})
    x = np.linalg.solve(a, bb)    # minus the center
    rho2 = float(bb @ x - cc)
    if rho2 <= 0:
        raise NotProperlyConvexError("quadric section is empty")
    return EllipsoidBackend(-x, a / rho2)


# ---------------------------------------------------------------------------
# cone


class ConvexCone:
    """Cone over a domain, with apex at the origin of R^{n+1}.

    The constants of its queries are computed once per cone: the lifted
    extreme rays and their norms, the ellipsoid's Cholesky factor and bound,
    its oriented quadric with that quadric's inverse and determinant, and the
    lifted chart triangulation that the slice kernel reads.
    """

    def __init__(self, domain: ConvexDomain):
        self.domain = domain

    @cached_property
    def _extremes(self):
        lifts = self.domain.chart.lift_many(self.domain.backend.vertices())
        return lifts, np.linalg.norm(lifts, axis=1)

    @cached_property
    def _ellipsoid_terms(self):
        b = self.domain.backend
        return (np.linalg.cholesky(b._minv).T,
                np.sqrt(1.0 + b.bounding_radius() ** 2))

    @cached_property
    def _quadric(self):
        """The ellipsoid cone's quadric Q, negative inside, and the lifted center."""
        chart, b = self.domain.chart, self.domain.backend
        inner = chart.lift(b.interior_point())
        return _oriented_quadric(_homogeneous_quadric(b, chart), inner), inner

    @cached_property
    def _quadric_inverse(self):
        """Q^-1 and det Q of the quadric, and the lifted center."""
        q, inner = self._quadric
        return np.linalg.inv(q), float(np.linalg.det(q)), inner

    @cached_property
    def triangulation(self):
        """Chart triangulation (points, simplices), the points lifted, and
        |det P_sigma| of each simplex's lifted vertices; None for ellipsoids."""
        tri = self.domain.backend.chart_triangulation()
        if tri is None:
            return None
        pts, simps = tri
        lifts = self.domain.chart.lift_many(pts)
        return pts, simps, lifts, np.abs(np.linalg.det(lifts[simps]))

    def dual_margin(self, v):
        """min of <v, .> over the lifted closure; positive iff v is in the dual cone.

        v is one functional or a (K, n+1) stack; a stack gives one margin per
        row, each the one-functional value.
        """
        v = np.asarray(v, dtype=float)
        b = self.domain.backend
        if b.kind == "ellipsoid":
            chart = self.domain.chart
            mhalf_t, scale = self._ellipsoid_terms
            beta = _matvec(chart.frame.T, v)
            lo = (_dot(chart.infinity, v) + _dot(beta, b.center)
                  - _norm(_matvec(mhalf_t, beta)))
            return lo / scale
        lifts, norms = self._extremes
        m = (_matvec(lifts, v) / norms).min(axis=-1)
        return float(m) if v.ndim == 1 else m

    def contains_vector(self, w):
        """Signed chart margin of a raw vector's ray; negative outside the cone.

        A (K, n+1) stack gives one margin per row, each the one-vector value.
        """
        w = np.asarray(w, dtype=float)
        chart = self.domain.chart
        h = _dot(chart.infinity, w)
        far = h <= TOL.exact * _norm(w)
        if w.ndim == 1:
            if far:
                return -np.inf
            return self.domain.backend.contains_margin(_matvec(chart.frame.T, w) / h)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = _matvec(chart.frame.T, w) / h[:, None]
            return np.where(far, -np.inf, self.domain.backend.contains_margin(x))


# ---------------------------------------------------------------------------
# spec operations


def validate(dom: ConvexDomain) -> ProperConvexityCertificate:
    """Certificate that cl(dom) misses a hyperplane, plus a bounding radius."""
    if dom._certificate is not None:
        return dom._certificate
    b = dom.backend
    if b.kind == "hpoly":
        b.verts  # raises on unbounded or empty data
    if b.kind == "vpoly":
        b._check_convex_position()
    x0 = b.interior_point()
    if b.contains_margin(x0) <= 0:
        raise NotProperlyConvexError("no interior point found")
    radius = b.bounding_radius()
    cert = ProperConvexityCertificate(
        hyperplane=dom.chart.functional(),
        margin=1.0 / max(radius, 1e-300),
        bounding_radius=radius,
        interior_point=np.asarray(x0, dtype=float),
    )
    dom._certificate = cert
    return cert


def contains(dom: ConvexDomain, p) -> Containment:
    """Classify a point against the domain with a signed chart margin."""
    try:
        x = dom.chart_coords(p)
    except AtInfinityError:
        return Containment("outside", -np.inf)
    m = dom.backend.contains_margin(x)
    if abs(m) <= TOL.boundary_band:
        return Containment("boundary", m)
    return Containment("inside" if m > 0 else "outside", m)


def chord(dom: ConvexDomain, x, y) -> Chord:
    """Frontier endpoints of the line through two interior points.

    Ordered so the segment x -> y points toward a_plus.
    """
    xc = dom.chart_coords(x)
    yc = dom.chart_coords(y)
    if np.linalg.norm(yc - xc) <= TOL.exact:
        raise DegenerateChordError("chord endpoints coincide")
    d = yc - xc
    t_lo, t_hi = dom.backend.segment_chord(xc, yc, d)
    return Chord(dom, xc + t_lo * d, xc + t_hi * d)


def support(dom: ConvexDomain, b_pt, tol: float = None) -> DualFunctional:
    """Supporting hyperplane at a frontier point, oriented positive on the
    domain; the point's margin may be at most `tol` (default `TOL.frontier`)."""
    tol = TOL.frontier if tol is None else tol
    x = dom.chart_coords(b_pt)
    m = dom.backend.contains_margin(x)
    if abs(m) > tol:
        raise NotOnFrontierError("point is not on the frontier", margin=m)
    facets = dom.backend.supporting_facets(x, 10 * tol)
    if not facets:
        raise NotOnFrontierError("no supporting facet found", margin=m)
    if len(facets) == 1:
        n, beta = facets[0]
    else:
        n = np.sum([f[0] for f in facets], axis=0)
        n = n / np.linalg.norm(n)
        beta = float(n @ x)
    return _chart_hyperplane(dom.chart, n, beta)


def supporting_facets(dom: ConvexDomain, b_pt):
    """All supporting facet hyperplanes at a frontier point (the normal cone rays)."""
    x = dom.chart_coords(b_pt)
    return [_chart_hyperplane(dom.chart, n, beta)
            for n, beta in dom.backend.supporting_facets(x, 10 * TOL.frontier)]


def _chart_hyperplane(chart: AffineChart, normal, offset) -> DualFunctional:
    return DualFunctional(_facet_functionals(chart, np.asarray(normal, dtype=float),
                                             offset), canonicalize=False)


def dual_domain(dom: ConvexDomain) -> ConvexDomain:
    """Domain of functionals strictly positive on the closed cone minus the
    apex, charted at the lifted interior point p0: the vertex polytope of a
    half-space domain's facet functionals, the inverse quadric of an
    ellipsoid, one half-space per vertex of the other polytopes."""
    validate(dom)
    b = dom.backend
    p0 = dom.chart.lift(b.interior_point())
    p0 = p0 / np.linalg.norm(p0)
    dchart = AffineChart(p0)
    if b.kind == "hpoly":
        gs = _facet_functionals(dom.chart, b.normals, b.offsets)
        return ConvexDomain(dchart, VPolyBackend(_chart_images(dchart, gs)[0],
                                                 check=False))
    if b.kind == "ellipsoid":
        # Q is Lorentzian and negative on the cone, so the functional -Q p0
        # is positive on it: an interior vector of the dual cone
        q = _homogeneous_quadric(b, dom.chart)
        return ConvexDomain(dchart, _ellipsoid_from_quadric(np.linalg.inv(q), dchart,
                                                            -q @ p0))
    lifts = dom.chart.lift_many(b.vertices())
    return ConvexDomain(dchart, HPolyBackend(-(lifts @ dchart.frame), lifts @ p0,
                                             prune=False))


def boundary_flats(dom: ConvexDomain):
    """Maximal flat frontier pieces; empty for strictly convex backends."""
    validate(dom)
    flats = dom.backend.boundary_flats()
    return [f for f in flats if len(f["vertices"]) >= 2]


def _sphere_directions(n, count):
    """Unit directions of the chart: +-1 in 1-d, `count` evenly spaced on the
    circle in 2-d, `count` seeded normals above that."""
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        ang = 2 * np.pi * np.arange(count) / count
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    d = np.random.default_rng(0).normal(size=(count, n))
    return d / np.linalg.norm(d, axis=1)[:, None]


def support_residual(d1: ConvexDomain, d2: ConvexDomain, dirs):
    """Max support-function gap over unit directions, with d2 re-charted
    into d1's chart unless the two charts are equal."""
    if not d1.chart.same_as(d2.chart):
        d2 = d2.in_chart(d1.chart)
    h1 = d1.support_function(dirs)
    h2 = d2.support_function(dirs)
    return float(np.max(np.abs(h1 - h2)))


# ---------------------------------------------------------------------------
# stock domains


def unit_disk():
    return ConvexDomain.ellipsoid(np.zeros(2), np.eye(2))


def square_domain(half=1.0):
    return ConvexDomain.from_vertices(
        [[half, half], [-half, half], [-half, -half], [half, -half]])


def triangle_domain():
    """The (0,0),(1,0),(0,1) triangle in the standard chart."""
    return ConvexDomain.from_vertices([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def orthant_domain(n):
    """Projectivized positive orthant of R^{n+1}, charted at [1 : ... : 1]."""
    v = np.ones(n + 1) / np.sqrt(n + 1.0)
    chart = AffineChart(v)
    verts = np.array([chart.to_chart(ProjPoint(e, canonicalize=False))
                      for e in np.eye(n + 1)])
    return ConvexDomain(chart, VPolyBackend(verts, check=False))


def disk_polygon(sides, radius=1.0):
    """Regular polygon approximation of the disk as a radial graph."""
    ang = 2.0 * np.pi * np.arange(sides) / sides
    dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return ConvexDomain.radial_graph(np.zeros(2), dirs, np.full(sides, radius))
