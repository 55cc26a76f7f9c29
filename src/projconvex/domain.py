"""Properly-convex domains in an affine patch, their cones, and duality.

A domain is a chart (hyperplane at infinity plus cached frame) and a backend
holding the set in chart coordinates.  Backends: half-space intersections,
vertex polytopes, ellipsoids, and radial graphs (PL star-shaped regions used
for numerically computed hypersurfaces).  Ellipsoids have closed forms.  The
three polytope backends share one copy of every query: predicates and chords
read the half-space form, supports and radii the vertex list (a radial
graph's surface points), and moments the simplices of a triangulation, all
exact.  Chart moments and the cone's slice moments (vinberg) use one kernel,
`_simplex_moments`, since the chart is the unit slice of its own functional.
scipy is imported inside the calls that use it: it would be most of a cold
start, and ellipsoids need none of it.
"""

from dataclasses import dataclass
from math import factorial, gamma, inf, isfinite, pi

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

# Rejection rounds of `ConvexDomain.random_interior` before it gives up.
_SAMPLE_ROUNDS = 1000


# ---------------------------------------------------------------------------
# simplex moment formulas (exact)

def _simplex_moments(rv, measures):
    """Total measure, centroid and E[x x^T] of stacked simplices.

    rv is (k, m+1, d): the m+1 vertices of each of k m-simplices in R^d;
    measures holds their m-dimensional volumes.
    """
    m1 = rv.shape[1]
    cents = rv.mean(axis=1)
    s = rv.sum(axis=1)
    seconds = (np.einsum("kiv,kiw->kvw", rv, rv)
               + np.einsum("kv,kw->kvw", s, s)) / (m1 * (m1 + 1))
    total = float(measures.sum())
    mu = (measures[:, None] * cents).sum(axis=0) / total
    e2 = (measures[:, None, None] * seconds).sum(axis=0) / total
    return total, mu, e2


def _triangulated_moments(backend):
    """Chart volume, centroid and central second moment from a triangulation."""
    pts, simps = backend.chart_triangulation()
    rv = pts[simps]
    vols = np.abs(np.linalg.det(rv[:, 1:] - rv[:, :1])) / factorial(pts.shape[1])
    if vols.sum() <= 0:
        raise DegenerateDomainError("zero volume region")
    vol, mu, e2 = _simplex_moments(rv, vols)
    return vol, mu, e2 - np.outer(mu, mu)


# ---------------------------------------------------------------------------
# row-wise products
#
# Chord and membership queries take one point or an (N, n) stack of points.
# A stack goes through numpy's batched matmul, which makes the same BLAS call
# per row as a single vector does, so each row is bit-identical to the
# one-point query (a plain `X @ A.T` sums in another order).  One vector
# takes the plain product: the batched form costs it about 1 us more.


def _matvec(a, x):
    """a @ x for a vector x, or for each row of a stack x."""
    return a @ x if x.ndim == 1 else (a @ x[..., None])[..., 0]


def _dot(u, v):
    """u . v for vectors, or row by row for stacks (either may be one vector)."""
    if u.ndim == 1 and v.ndim == 1:
        return u @ v
    return (u[..., None, :] @ v[..., None])[..., 0, 0]


def _vecmat(u, m):
    """u @ m for a vector u, or for each row of a stack u."""
    return u @ m if u.ndim == 1 else (u[..., None, :] @ m)[..., 0, :]


def _any(mask):
    """Whether a boolean scalar or array is true anywhere."""
    return mask.any() if mask.ndim else mask


# ---------------------------------------------------------------------------
# backends


class _PolytopeBackend:
    """Queries shared by the polytope backends.

    Predicates and chords read the half-space form `as_hpoly()`; supports and
    radii read the vertex list `vertices()`; moments come from the cached
    triangulation of the vertices (radial graphs supply their own fan).
    """

    _tri = None

    def contains_margin(self, x):
        hp = self.as_hpoly()
        x = np.asarray(x, dtype=float)
        slack = hp.offsets - _matvec(hp.normals, x)
        return slack.min(axis=-1) if x.ndim > 1 else float(slack.min())

    def chord_params(self, x, d):
        """Parameters (t_lo, t_hi) of the frontier points of the line x + t d.

        x and d are one point and one direction, or (N, n) stacks of them
        (one point or direction broadcasts); stacks give arrays that are, row
        by row, the one-line values.
        A facet with |a . d| <= cut is parallel to the line; the cut scales
        with |d| so that a short direction keeps its facets.
        """
        hp = self.as_hpoly()
        x = np.asarray(x, dtype=float)
        d = np.asarray(d, dtype=float)
        if x.ndim == 1 and d.ndim == 1:
            # one line: a loop over Python floats beats the masked reduction
            # on the few facets of a typical polytope
            num = (hp.offsets - hp.normals @ x).tolist()
            den = (hp.normals @ d).tolist()
            cut = float(TOL.exact * np.sqrt(np.dot(d, d)))
            t_hi, t_lo = inf, -inf
            for ni, di in zip(num, den):
                if di > cut:
                    r = ni / di
                    if r < t_hi:
                        t_hi = r
                elif di < -cut:
                    r = ni / di
                    if r > t_lo:
                        t_lo = r
            if not (isfinite(t_hi) and isfinite(t_lo)):
                raise NotProperlyConvexError("line does not exit the region")
            return t_lo, t_hi
        num = hp.offsets - _matvec(hp.normals, x)
        den = _matvec(hp.normals, d)
        cut = TOL.exact * np.sqrt(_dot(d, d))[..., None]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            t = num / den
        t_hi = np.where(den > cut, t, np.inf).min(axis=-1)
        t_lo = np.where(den < -cut, t, -np.inf).max(axis=-1)
        if not (np.isfinite(t_hi).all() and np.isfinite(t_lo).all()):
            raise NotProperlyConvexError("line does not exit the region")
        return t_lo, t_hi

    def supporting_facets(self, x, tol):
        hp = self.as_hpoly()
        slack = hp.offsets - hp.normals @ np.asarray(x, dtype=float)
        idx = np.nonzero(np.abs(slack) <= tol)[0]
        return [(hp.normals[i], hp.offsets[i]) for i in idx]

    def boundary_flats(self):
        hp = self.as_hpoly()
        v = hp.vertices()
        flats = []
        for a, b in zip(hp.normals, hp.offsets):
            on = v[np.abs(v @ a - b) <= TOL.flatness * (1.0 + abs(b))]
            flats.append({"normal": a.copy(), "offset": float(b), "vertices": on})
        return flats

    def support(self, u):
        return float(np.max(self.vertices() @ np.asarray(u, dtype=float)))

    def support_point(self, u):
        v = self.vertices()
        return v[np.argmax(v @ np.asarray(u, dtype=float))]

    def bounding_radius(self):
        return float(np.max(np.linalg.norm(self.vertices(), axis=1)))

    def chart_triangulation(self):
        if self._tri is None:
            self._tri = _triangulate(self.vertices())
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
        norms = np.linalg.norm(a, axis=1)
        if np.any(norms <= 0):
            raise InvalidInputError("zero normal vector")
        self.normals = a / norms[:, None]
        self.offsets = b / norms
        self._vertices = None
        self._interior = None
        if prune:
            self._prune_inactive()

    @property
    def dim(self):
        return self.normals.shape[1]

    # -- construction helpers

    def _chebyshev(self):
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
            raise NotProperlyConvexError("empty or flat half-space intersection")
        return res.x[:-1], res.x[-1]

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

    def vertices(self):
        if self._vertices is None:
            center, radius = self._chebyshev()
            self._interior = center
            if self.dim == 1:
                a = self.normals[:, 0]
                b = self.offsets
                hi = np.min(b[a > 0] / a[a > 0]) if np.any(a > 0) else None
                lo = np.max(b[a < 0] / a[a < 0]) if np.any(a < 0) else None
                if hi is None or lo is None:
                    raise NotProperlyConvexError(
                        "half-space data is unbounded",
                        witness=self._recession_direction(),
                    )
                self._vertices = np.array([[lo], [hi]])
            else:
                from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

                try:
                    hs = HalfspaceIntersection(
                        np.hstack([self.normals, -self.offsets[:, None]]), center
                    )
                except (QhullError, ValueError) as exc:
                    raise NotProperlyConvexError(
                        f"half-space intersection failed: {exc}",
                        witness=self._recession_direction(),
                    ) from exc
                pts = hs.intersections
                if not np.all(np.isfinite(pts)):
                    raise NotProperlyConvexError(
                        "half-space data is unbounded",
                        witness=self._recession_direction(),
                    )
                hull = ConvexHull(pts)
                self._vertices = pts[hull.vertices]
        return self._vertices

    def _prune_inactive(self):
        v = self.vertices()
        slack = self.offsets[:, None] - self.normals @ v.T
        active = np.min(np.abs(slack), axis=1) <= 1e-9 * (1.0 + np.abs(self.offsets))
        if not np.all(active):
            self.normals = self.normals[active]
            self.offsets = self.offsets[active]

    # -- queries

    def interior_point(self):
        if self._interior is None:
            self.vertices()
        return self._interior

    def as_hpoly(self):
        return self

    def transform_affine(self, lin, shift):
        linv = np.linalg.inv(lin)
        a = self.normals @ linv
        b = self.offsets + a @ np.asarray(shift, dtype=float)
        return HPolyBackend(a, b, prune=False)

    def to_json(self):
        return {"type": "hpoly", "normals": self.normals.tolist(),
                "offsets": self.offsets.tolist()}


class VPolyBackend(_PolytopeBackend):
    """Open convex hull of a vertex list in convex position."""

    kind = "vpoly"

    def __init__(self, vertices, check=True):
        v = np.atleast_2d(np.asarray(vertices, dtype=float))
        self.verts = v
        self._hpoly = None
        if check:
            self._check_convex_position()

    @property
    def dim(self):
        return self.verts.shape[1]

    def _check_convex_position(self):
        v = self.verts
        if self.dim == 1:
            if v.shape[0] != 2 or abs(v[0, 0] - v[1, 0]) <= TOL.exact:
                raise NotProperlyConvexError(
                    "1-d vertex list must be two distinct points", witness=v)
            return
        if v.shape[0] < self.dim + 1:
            raise NotProperlyConvexError("too few vertices for an open set", witness=v)
        from scipy.spatial import ConvexHull, QhullError

        try:
            hull = ConvexHull(v)
        except (QhullError, ValueError) as exc:
            raise NotProperlyConvexError(f"degenerate vertex data: {exc}") from exc
        if len(hull.vertices) != v.shape[0]:
            inner = sorted(set(range(v.shape[0])) - set(hull.vertices))
            raise NotProperlyConvexError(
                "vertex list is not in convex position",
                witness={"non_extreme_indices": inner})

    def as_hpoly(self):
        if self._hpoly is None:
            v = self.verts
            if self.dim == 1:
                lo, hi = float(np.min(v)), float(np.max(v))
                self._hpoly = HPolyBackend([[1.0], [-1.0]], [hi, -lo], prune=False)
            else:
                from scipy.spatial import ConvexHull

                hull = ConvexHull(v)
                a = hull.equations[:, :-1]
                b = -hull.equations[:, -1]
                self._hpoly = HPolyBackend(a, b, prune=False)
            self._hpoly._vertices = self.vertices()
            self._hpoly._interior = self.interior_point()
        return self._hpoly

    def vertices(self):
        if self.dim == 1:
            return np.sort(self.verts, axis=0)
        return self.verts

    def interior_point(self):
        return self.verts.mean(axis=0)

    def transform_affine(self, lin, shift):
        return VPolyBackend(self.verts @ np.asarray(lin, dtype=float).T
                            + np.asarray(shift, dtype=float), check=False)

    def to_json(self):
        return {"type": "vpoly", "vertices": self.verts.tolist()}


class EllipsoidBackend:
    """Open set {x : (x-c)^T M (x-c) < 1} with M symmetric positive-definite."""

    kind = "ellipsoid"

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

    @property
    def dim(self):
        return self.center.size

    def interior_point(self):
        return self.center

    def contains_margin(self, x):
        u = np.asarray(x, dtype=float) - self.center
        q = _dot(_vecmat(u, self.shape_matrix), u)
        if u.ndim > 1:
            return 1.0 - np.sqrt(np.maximum(q, 0.0))
        return 1.0 - float(np.sqrt(max(q, 0.0)))

    def support(self, u):
        u = np.asarray(u, dtype=float)
        return float(self.center @ u + np.sqrt(u @ self._minv @ u))

    def support_point(self, u):
        u = np.asarray(u, dtype=float)
        w = self._minv @ u
        return self.center + w / np.sqrt(u @ w)

    def chord_params(self, x, d):
        """As `_PolytopeBackend.chord_params`: one line or (N, n) stacks."""
        u = np.asarray(x, dtype=float) - self.center
        d = np.asarray(d, dtype=float)
        um = _vecmat(u, self.shape_matrix)
        alpha = _dot(_vecmat(d, self.shape_matrix), d)
        beta = _dot(um, d)
        gamma = _dot(um, u) - 1.0
        disc = beta * beta - alpha * gamma
        if _any(disc <= 0):
            raise DegenerateChordError("line misses the ellipsoid")
        root = np.sqrt(disc)
        return (-beta - root) / alpha, (-beta + root) / alpha

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

    def transform_affine(self, lin, shift):
        lin = np.asarray(lin, dtype=float)
        linv = np.linalg.inv(lin)
        return EllipsoidBackend(lin @ self.center + np.asarray(shift, dtype=float),
                                linv.T @ self.shape_matrix @ linv)

    def to_json(self):
        return {"type": "ellipsoid", "center": self.center.tolist(),
                "shape": self.shape_matrix.tolist()}


class RadialGraphBackend(_PolytopeBackend):
    """PL star-shaped region: positive radii over a triangulated direction set."""

    kind = "radialgraph"

    def __init__(self, center, directions, radii, simplices=None, check=True):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
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
        self._hull_backend = None
        if check:
            self._check_convex()

    def _default_simplices(self):
        if self.dim != 2:
            raise InvalidInputError("simplices required for radial graphs off the circle")
        order = np.argsort(np.arctan2(self.directions[:, 1], self.directions[:, 0]))
        return [(int(order[i]), int(order[(i + 1) % len(order)]))
                for i in range(len(order))]

    @property
    def dim(self):
        return self.center.size

    def surface_points(self):
        return self.center + self.radii[:, None] * self.directions

    def vertices(self):
        """The surface points, all hull vertices (checked at construction)."""
        return self.surface_points()

    def _check_convex(self):
        pts = self.surface_points()
        if self.dim == 1:
            return
        from scipy.spatial import ConvexHull

        hull = ConvexHull(pts)
        if len(hull.vertices) != pts.shape[0]:
            inner = sorted(set(range(pts.shape[0])) - set(hull.vertices))
            raise NotProperlyConvexError(
                "radial graph surface is not convex",
                witness={"non_extreme_indices": inner})

    def as_hpoly(self):
        if self._hull_backend is None:
            self._hull_backend = VPolyBackend(self.surface_points(), check=False).as_hpoly()
        return self._hull_backend

    def interior_point(self):
        return self.center

    def chart_triangulation(self):
        pts = np.vstack([self.center[None, :], self.surface_points()])
        simps = np.array([[0] + [i + 1 for i in s] for s in self.simplices], dtype=int)
        return pts, simps

    def transform_affine(self, lin, shift):
        lin = np.asarray(lin, dtype=float)
        shift = np.asarray(shift, dtype=float)
        new_center = lin @ self.center + shift
        new_pts = self.surface_points() @ lin.T + shift
        rel = new_pts - new_center
        radii = np.linalg.norm(rel, axis=1)
        return RadialGraphBackend(new_center, rel, radii, self.simplices, check=False)

    def to_json(self):
        return {"type": "radialgraph", "center": self.center.tolist(),
                "directions": self.directions.tolist(), "radii": self.radii.tolist(),
                "simplices": [list(s) for s in self.simplices]}


def _ball_volume(n):
    return pi ** (n / 2.0) / gamma(n / 2.0 + 1.0)


def _triangulate(vertices):
    v = np.asarray(vertices, dtype=float)
    n = v.shape[1]
    if n == 1:
        order = np.argsort(v[:, 0])
        pts = v[order]
        simps = np.array([[i, i + 1] for i in range(pts.shape[0] - 1)], dtype=int)
        return pts, simps
    from scipy.spatial import Delaunay

    tri = Delaunay(v)
    return v, tri.simplices


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
            for t in np.linspace(0.0, 1.0, 18)[1:-1]:
                x = (1 - t) * self.x_minus + t * self.x_plus
                if domain.backend.contains_margin(x) < -TOL.matrix:
                    raise DegenerateChordError(
                        "interior sample of chord left the domain",
                        parameter=t)

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
        if isinstance(p, ProjPoint):
            return self.chart.to_chart(p)
        return np.atleast_1d(np.asarray(p, dtype=float))

    def cone(self):
        return ConvexCone(self)

    def support_function(self, dirs):
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        return np.array([self.backend.support(u) for u in dirs])

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
            for x in cand:
                if self.backend.contains_margin(x) > margin:
                    out[got] = x
                    got += 1
                    if got == size:
                        break
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
    """Map dom through the projective matrix and re-chart the image."""
    old = dom.chart
    b = dom.backend
    if b.kind == "hpoly":
        # half-space functionals move by the inverse transpose
        gs = np.array([bo * old.infinity - old.frame @ ao
                       for ao, bo in zip(b.normals, b.offsets)])
        gs = np.linalg.solve(matrix.T, gs.T).T
        offs = gs @ chart.infinity
        norms = -(gs @ chart.frame)
        return ConvexDomain(chart, HPolyBackend(norms, offs, prune=False))
    if b.kind == "vpoly":
        lifted = old.lift_many(b.verts) @ matrix.T
        h = lifted @ chart.infinity
        if np.any(h <= 0):
            lifted[h < 0] *= -1.0
            h = np.abs(h)
        if np.any(h <= TOL.exact):
            raise AtInfinityError("image vertex on the target chart hyperplane")
        return ConvexDomain(chart, VPolyBackend((lifted @ chart.frame) / h[:, None],
                                                check=False))
    if b.kind == "ellipsoid":
        q = _homogeneous_quadric(b, old)
        minv = np.linalg.inv(matrix)
        q = minv.T @ q @ minv
        interior = matrix @ old.lift(b.interior_point())
        return ConvexDomain(chart, _ellipsoid_from_quadric(q, chart, interior))
    if b.kind == "radialgraph":
        lifted = old.lift_many(b.surface_points()) @ matrix.T
        hc = chart.to_chart_many(lifted)
        c0 = chart.to_chart(ProjPoint(matrix @ old.lift(b.center), canonicalize=False))
        rel = hc - c0
        return ConvexDomain(chart, RadialGraphBackend(
            c0, rel, np.linalg.norm(rel, axis=1), b.simplices, check=False))
    raise InvalidInputError(f"unknown backend kind {b.kind}")


def _homogeneous_quadric(b: EllipsoidBackend, chart: AffineChart):
    """Symmetric matrix Q with the cone over the ellipsoid = {w : w^T Q w < 0}."""
    t = chart.frame.T - np.outer(b.center, chart.infinity)
    return t.T @ b.shape_matrix @ t - np.outer(chart.infinity, chart.infinity)


def _ellipsoid_from_quadric(q, chart: AffineChart, interior_vec):
    """Chart section of a signature-(n,1) quadratic cone as an ellipsoid."""
    if interior_vec @ q @ interior_vec > 0:
        q = -q
    a = chart.frame.T @ q @ chart.frame
    bb = chart.frame.T @ q @ chart.infinity
    cc = chart.infinity @ q @ chart.infinity
    w = np.linalg.eigvalsh(a)
    if w[0] <= 0:
        raise NotProperlyConvexError(
            "quadric section is unbounded in this chart",
            witness={"eigenvalues": w})
    center = -np.linalg.solve(a, bb)
    rho2 = float(bb @ np.linalg.solve(a, bb) - cc)
    if rho2 <= 0:
        raise NotProperlyConvexError("quadric section is empty")
    return EllipsoidBackend(center, a / rho2)


# ---------------------------------------------------------------------------
# cone


class ConvexCone:
    """Cone over a domain, with apex at the origin of R^{n+1}."""

    def __init__(self, domain: ConvexDomain):
        self.domain = domain

    def lift_extremes(self):
        """Lifted generators of extreme rays for polytope-like backends."""
        b = self.domain.backend
        if b.kind == "ellipsoid":
            return None
        return self.domain.chart.lift_many(b.vertices())

    def dual_margin(self, v):
        """min of <v, .> over the lifted closure; positive iff v is in the dual cone."""
        v = np.asarray(v, dtype=float)
        b = self.domain.backend
        chart = self.domain.chart
        alpha = float(chart.infinity @ v)
        beta = chart.frame.T @ v
        if b.kind == "ellipsoid":
            mhalf = np.linalg.cholesky(b._minv)
            lo = alpha + float(beta @ b.center) - float(np.linalg.norm(mhalf.T @ beta))
            scale = np.sqrt(1.0 + b.bounding_radius() ** 2)
            return lo / scale
        lifts = self.lift_extremes()
        vals = lifts @ v
        return float(np.min(vals / np.linalg.norm(lifts, axis=1)))

    def contains_vector(self, w):
        """Signed chart margin of a raw vector's ray; negative outside the cone."""
        w = np.asarray(w, dtype=float)
        h = self.domain.chart.height(w)
        if h <= TOL.exact * np.linalg.norm(w):
            return -np.inf
        x = (self.domain.chart.frame.T @ w) / h
        return self.domain.backend.contains_margin(x)


# ---------------------------------------------------------------------------
# spec operations


def validate(dom: ConvexDomain) -> ProperConvexityCertificate:
    """Certificate that cl(dom) misses a hyperplane, plus a bounding radius."""
    if dom._certificate is not None:
        return dom._certificate
    b = dom.backend
    if b.kind == "hpoly":
        b.vertices()  # raises on unbounded or empty data
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
    for name, c in (("x", xc), ("y", yc)):
        if dom.backend.contains_margin(c) <= 0:
            raise InvalidInputError(f"point {name} is not inside the domain")
    d = yc - xc
    t_lo, t_hi = dom.backend.chord_params(xc, d)
    return Chord(dom, xc + t_lo * d, xc + t_hi * d)


def support(dom: ConvexDomain, b_pt) -> DualFunctional:
    """Supporting hyperplane at a frontier point, oriented positive on the domain."""
    x = dom.chart_coords(b_pt)
    m = dom.backend.contains_margin(x)
    if abs(m) > TOL.frontier:
        raise NotOnFrontierError("point is not on the frontier", margin=m)
    facets = dom.backend.supporting_facets(x, 10 * TOL.frontier)
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
    phi = offset * chart.infinity - chart.frame @ np.asarray(normal, dtype=float)
    return DualFunctional(phi, canonicalize=False)


def dual_domain(dom: ConvexDomain) -> ConvexDomain:
    """Domain of functionals strictly positive on the closed cone minus the apex."""
    validate(dom)
    b = dom.backend
    p0 = dom.chart.lift(b.interior_point())
    p0 = p0 / np.linalg.norm(p0)
    dchart = AffineChart(p0)
    if b.kind == "hpoly":
        gs = np.array([bo * dom.chart.infinity - dom.chart.frame @ ao
                       for ao, bo in zip(b.normals, b.offsets)])
        h = gs @ p0
        return ConvexDomain(dchart, VPolyBackend((gs @ dchart.frame) / h[:, None],
                                                 check=False))
    if b.kind == "ellipsoid":
        q = np.linalg.inv(_homogeneous_quadric(b, dom.chart))
        return ConvexDomain(dchart, _ellipsoid_from_quadric(q, dchart, p0))
    lifts = dom.cone().lift_extremes()
    if b.kind == "radialgraph":
        offs = lifts @ p0
        grads = lifts @ dchart.frame
        radii = np.empty(len(b.directions))
        for i, u in enumerate(b.directions):
            den = grads @ u
            mask = den < -TOL.exact
            if not np.any(mask):
                raise NotProperlyConvexError("dual radial graph unbounded")
            radii[i] = np.min(-offs[mask] / den[mask])
        return ConvexDomain(dchart, RadialGraphBackend(
            np.zeros(b.dim), b.directions, radii, b.simplices, check=False))
    # vpoly: one half-space per vertex
    offs = lifts @ p0
    norms = -(lifts @ dchart.frame)
    return ConvexDomain(dchart, HPolyBackend(norms, offs, prune=False))


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
    """Max support-function gap over unit directions, after matching charts."""
    if not d1.chart.same_as(d2.chart, tol=1e-9):
        d2 = d2.in_chart(d1.chart)
    h1 = d1.support_function(dirs)
    h2 = d2.support_function(dirs)
    return float(np.max(np.abs(h1 - h2)))


# ---------------------------------------------------------------------------
# stock domains


def unit_disk():
    return ConvexDomain.ellipsoid(np.zeros(2), np.eye(2))


def klein_disk():
    return unit_disk()


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
