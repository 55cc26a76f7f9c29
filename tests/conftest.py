import numpy as np
import pytest
from scipy.spatial import ConvexHull

from projconvex import domain as dm, hilbert as hb
from projconvex.projgeom import ProjPoint, ProjTransform


def boost(t):
    """Hyperbolic translation of the Klein disk along the x axis."""
    return np.array([
        [np.cosh(t), 0.0, np.sinh(t)],
        [0.0, 1.0, 0.0],
        [np.sinh(t), 0.0, np.cosh(t)],
    ])


def rotation(theta):
    return np.array([
        [np.cos(theta), -np.sin(theta), 0.0],
        [np.sin(theta), np.cos(theta), 0.0],
        [0.0, 0.0, 1.0],
    ])


def so21_element(rng):
    return rotation(rng.uniform(0, 2 * np.pi)) \
        @ boost(rng.uniform(0.1, 1.5)) \
        @ rotation(rng.uniform(0, 2 * np.pi))


def so21_hyperbolic(rng):
    """Conjugated boost: always hyperbolic, translation length = t."""
    t = rng.uniform(0.2, 1.8)
    conj = rotation(rng.uniform(0, 2 * np.pi)) @ boost(rng.uniform(0.0, 1.0))
    return conj @ boost(t) @ np.linalg.inv(conj), t


def triangle_group(p, q, r):
    """Reflections generating the (p, q, r) triangle group, conjugated into
    the Klein disk (needs 1/p + 1/q + 1/r < 1).

    The Cartan matrix a_ij = -2 cos(pi / m_ij) is symmetric with signature
    (2, 1), and r_i = I - e_i (x) A[i, :] preserves x^T A x (Vinberg 1971,
    Discrete linear groups generated by reflections).  r_1 r_2, r_2 r_3 and
    r_1 r_3 are rotations of orders p, q and r.
    """
    m = np.array([[1.0, p, r], [p, 1.0, q], [r, q, 1.0]])
    cartan = -2.0 * np.cos(np.pi / m)
    lam, vecs = np.linalg.eigh(cartan)
    order = np.argsort(-lam)   # the negative eigenvalue last, as in x^2+y^2-z^2
    conj = np.sqrt(np.abs(lam[order]))[:, None] * vecs[:, order].T
    return [conj @ (np.eye(3) - np.outer(np.eye(3)[i], cartan[i]))
            @ np.linalg.inv(conj) for i in range(3)]


def random_orthogonal(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    return q


def oval(rng, k):
    """k points in convex position on an ellipse, at jittered angles."""
    ang = 2 * np.pi * (np.arange(k) + rng.uniform(-0.3, 0.3, k)) / k
    return np.stack([rng.uniform(0.6, 1.4) * np.cos(ang),
                     rng.uniform(0.6, 1.4) * np.sin(ang)], axis=1)


def halfspace_polygon(rng, m):
    """The m tangent half-planes of a tilted ellipse at jittered normal
    angles, listed in shuffled order: a polygon of m facets."""
    ang = 2 * np.pi * (np.arange(m) + rng.uniform(-0.3, 0.3, m)) / m
    normals = np.stack([np.cos(ang), np.sin(ang)], axis=1)[rng.permutation(m)]
    r = random_orthogonal(rng, 2)
    inv = r @ np.diag(rng.uniform(0.5, 1.5, 2) ** 2) @ r.T   # the inverse shape
    support = np.sqrt(np.einsum("ij,jk,ik->i", normals, inv, normals))
    return dm.ConvexDomain.from_halfspaces(normals,
                                           support + normals @ rng.uniform(-0.3, 0.3, 2))


def _sphere_points(rng, n):
    """5-9 points on an axis-scaled sphere of R^n, all in convex position."""
    pts = rng.normal(size=(int(rng.integers(5, 10)), n))
    return pts / np.linalg.norm(pts, axis=1)[:, None] * rng.uniform(0.6, 1.4, n)


def random_domain(kind, n, rng):
    """A seeded domain of one backend kind in the standard chart of
    dimension n: half-spaces and vertex polytopes around the origin, an
    ellipsoid, or a radial graph about an inner center (of an oval in 2-d,
    with the hull's facets as simplices in 3-d)."""
    if kind == "hpoly":
        normals = np.vstack([np.eye(n), -np.eye(n), rng.normal(size=(3 * (n > 1), n))])
        return dm.ConvexDomain.from_halfspaces(
            normals, rng.uniform(0.5, 1.5, len(normals)) * np.linalg.norm(normals, axis=1))
    if kind == "vpoly":
        if n == 1:
            return dm.ConvexDomain.from_vertices([[-rng.uniform(0.3, 1.5)],
                                                  [rng.uniform(0.3, 1.5)]])
        if n == 2:
            return dm.ConvexDomain.from_vertices(oval(rng, int(rng.integers(3, 9))))
        return dm.ConvexDomain.from_vertices(_sphere_points(rng, 3))
    if kind == "ellipsoid":
        b = rng.normal(size=(n, n))
        return dm.ConvexDomain.ellipsoid(rng.uniform(-0.3, 0.3, n),
                                         b @ b.T + 0.5 * np.eye(n))
    if n == 1:
        return dm.ConvexDomain.radial_graph(rng.uniform(-0.3, 0.3, 1), [[1.0], [-1.0]],
                                            rng.uniform(0.3, 1.5, 2), [[0], [1]])
    pts = oval(rng, int(rng.integers(3, 13))) if n == 2 else _sphere_points(rng, n)
    c = 0.5 * pts.mean(axis=0) + 0.5 * rng.dirichlet(np.ones(len(pts))) @ pts
    return dm.ConvexDomain.radial_graph(c, pts - c, np.linalg.norm(pts - c, axis=1),
                                        ConvexHull(pts).simplices if n == 3 else None)


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)


@pytest.fixture
def disk():
    return dm.unit_disk()


@pytest.fixture
def square():
    return dm.square_domain()


@pytest.fixture
def triangle():
    return dm.triangle_domain()


@pytest.fixture
def polygon24():
    return dm.disk_polygon(24)


@pytest.fixture(params=["disk", "square", "triangle", "radial"])
def any_domain(request):
    return {
        "disk": dm.unit_disk(),
        "square": dm.square_domain(),
        "triangle": dm.triangle_domain(),
        "radial": dm.disk_polygon(24),
    }[request.param]


def proj(a):
    return ProjTransform(a)


def scalar_golden_min(fn, lo, hi, tol=1e-10, max_iter=200):
    """One golden-section search on [lo, hi], one scalar evaluation at a
    time: the reference for the lockstep search of `hilbert._golden_min`."""
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


def displacement_infimum(dom, a, hd):
    """Golden-section minimum of the displacement d(x, a x) along the axis of
    `fixed_point_dynamics`, one scalar distance at a time: the oracle for
    its closed-form translation length."""
    def displacement(s):
        x = hd.axis.point_at(s)
        y = dom.chart.to_chart(ProjPoint(a.matrix @ dom.chart.lift(x),
                                         canonicalize=False))
        return hb.distance(dom, x, y)

    return scalar_golden_min(displacement, 0.05, 0.95, tol=1e-12)[1]
