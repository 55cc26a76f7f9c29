import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from projconvex import domain as dm, hilbert as hb
from projconvex.config import TOL
from projconvex.errors import (
    DegenerateChordError,
    GeometryError,
    InfiniteDistanceError,
    InvalidInputError,
    ProjectionUndefinedError,
)
from projconvex.projgeom import ProjPoint, ProjTransform

from conftest import boost, scalar_golden_min


def test_disk_distance_value(disk):
    d = hb.distance(disk, [0.0, 0.0], [0.5, 0.0])
    assert abs(d - 0.5 * np.log(3.0)) < 1e-10


def test_distance_identity(any_domain):
    x = any_domain.interior_point()
    assert hb.distance(any_domain, x, x) == 0.0


def _clip_triangle_chord(x, y):
    """Brute-force chord of the orthant triangle by clipping against its edges."""
    tri = dm.orthant_domain(2)
    verts = tri.backend.verts
    # edges as half-planes oriented inward
    t_lo, t_hi = -np.inf, np.inf
    d = y - x
    for i in range(3):
        a, b = verts[i], verts[(i + 1) % 3]
        edge = b - a
        normal = np.array([-edge[1], edge[0]])
        other = verts[(i + 2) % 3]
        if normal @ (other - a) < 0:
            normal = -normal
        num = normal @ (a - x)
        den = normal @ d
        if den > 1e-15:
            t_lo = max(t_lo, num / den)
        elif den < -1e-15:
            t_hi = min(t_hi, num / den)
    return x + t_lo * d, x + t_hi * d


def test_triangle_distance_against_clipping_oracle():
    tri = dm.orthant_domain(2)
    x = tri.chart.to_chart(ProjPoint([1.0, 1.0, 1.0]))
    y = tri.chart.to_chart(ProjPoint([2.0, 1.0, 1.0]))
    a_minus, a_plus = _clip_triangle_chord(x, y)
    bx = np.linalg.norm(a_plus - x)
    by = np.linalg.norm(a_plus - y)
    ax = np.linalg.norm(a_minus - x)
    ay = np.linalg.norm(a_minus - y)
    oracle = 0.5 * abs(np.log((bx * ay) / (by * ax)))
    assert abs(oracle - 0.5 * np.log(2.0)) < 1e-12
    assert abs(hb.distance(tri, x, y) - oracle) < 1e-12


def test_symmetry_and_triangle_inequality(any_domain, rng):
    for _ in range(500):
        x, y, z = (any_domain.random_interior(rng) for _ in range(3))
        try:
            dxy = hb.distance(any_domain, x, y)
            dyx = hb.distance(any_domain, y, x)
            dxz = hb.distance(any_domain, x, z)
            dyz = hb.distance(any_domain, y, z)
        except InfiniteDistanceError:
            continue
        assert abs(dxy - dyx) < 1e-10
        assert dxz <= dxy + dyz + 1e-9


def test_projective_invariance(disk, rng):
    for _ in range(20):
        m = boost(rng.uniform(0.1, 1.0))
        a = ProjTransform(m)
        moved = disk.transform(a)
        x = disk.random_interior(rng)
        y = disk.random_interior(rng)
        ax = moved.chart.to_chart(a.apply(disk.chart.from_chart(x)))
        ay = moved.chart.to_chart(a.apply(disk.chart.from_chart(y)))
        assert abs(hb.distance(moved, ax, ay) - hb.distance(disk, x, y)) < 1e-8


def test_distance_guard_near_frontier(disk):
    with pytest.raises(InfiniteDistanceError):
        hb.distance(disk, [1.0 - 1e-14, 0.0], [0.5, 0.0])
    with pytest.raises(InvalidInputError):
        hb.distance(disk, [2.0, 0.0], [0.0, 0.0])


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")
@pytest.mark.parametrize("make", [dm.square_domain, dm.unit_disk])
def test_non_finite_and_misshapen_points_are_input_errors(make):
    dom, nan, inf = make(), float("nan"), float("inf")
    for x, y in (([nan, 0.0], [0.2, 0.0]), ([0.1, inf], [0.2, 0.0]),
                 ([inf, 0.0], [inf, 0.0]), ([0.2, 0.0], [0.1, nan])):
        with pytest.raises(InvalidInputError, match="not finite"):
            hb.distance(dom, x, y)
        with pytest.raises(InvalidInputError, match="not finite"):
            hb.distances(dom, [[0.1, 0.1], x], [[0.0, 0.2], y])
    # the first failing row decides, as in a loop of `distance` calls
    with pytest.raises(InvalidInputError, match="point x is not inside"):
        hb.distances(dom, [[3.0, 0.0], [nan, 0.0]], [[0.0, 0.0], [0.2, 0.0]])
    for x, y in (([0.1, 0.2, 5.0], [0.0, 0.0, 0.0]), ([0.1], [0.2]),
                 (np.array([0.1, 0.2, 5.0]), np.zeros(3))):
        with pytest.raises(InvalidInputError, match="chart dimension 2"):
            hb.distance(dom, x, y)
    with pytest.raises(InvalidInputError, match="4 homogeneous coordinates"):
        hb.distance(dom, ProjPoint([0.1, 0.2, 0.0, 1.0]), [0.0, 0.0])


def _hexagon():
    ang = 2 * np.pi * (np.arange(6) + 0.2) / 6
    return dm.ConvexDomain.from_halfspaces(
        np.stack([np.cos(ang), np.sin(ang)], axis=1),
        [0.9, 1.1, 1.0, 0.8, 1.2, 1.0])


@lru_cache(maxsize=None)
def _domain(name):
    """The `any_domain` backends, the orthants of dims 1-3, a 3-ball, a
    tilted ellipse, a tilted 3-d ellipsoid, a 1-d ellipsoid, a half-space
    hexagon and a 200-gon, built once.  The 200-gon is past the float crossover of one-point
    queries, the others below."""
    if name.startswith("orthant"):
        return dm.orthant_domain(int(name[-1]))
    return {"disk": dm.unit_disk, "square": dm.square_domain,
            "triangle": dm.triangle_domain,
            "radial": lambda: dm.disk_polygon(24),
            "gon200": lambda: dm.disk_polygon(200),
            "ball1": lambda: dm.ConvexDomain.ellipsoid([0.2], [[1.5]]),
            "ellipse": lambda: dm.ConvexDomain.ellipsoid(
                [0.1, 0.2], [[1.3, 0.4], [0.4, 0.8]]),
            "ball3": lambda: dm.ConvexDomain.ellipsoid(
                [0.1, -0.2, 0.0], np.diag([1.0, 2.0, 0.5])),
            "tilted3": lambda: dm.ConvexDomain.ellipsoid(
                [0.1, -0.2, 0.05],
                [[1.3, 0.4, -0.2], [0.4, 0.9, 0.3], [-0.2, 0.3, 1.1]]),
            "hexagon": _hexagon}[name]()


DOMAINS = ["disk", "square", "triangle", "radial", "gon200", "orthant1",
           "orthant2", "orthant3", "ball1", "ball3", "ellipse", "hexagon",
           "tilted3"]


def _loop_or_error(fn, dom, xs, ys):
    """fn's distances, or the type and message of the error it raises."""
    try:
        return fn(dom, xs, ys)
    except GeometryError as exc:
        return type(exc), str(exc)


def _loop(dom, xs, ys):
    return np.array([hb.distance(dom, x, y) for x, y in zip(xs, ys)])


def _same(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    return a.shape == b.shape and np.array_equal(a, b)


@st.composite
def _point_pairs(draw, dom):
    """Rows of point pairs: mostly interior, some coincident, and now and
    then a point on the frontier or outside."""
    c = dom.interior_point()
    unit = st.floats(-1.0, 1.0, allow_nan=False)

    def point(frac):
        w = np.array(draw(st.lists(unit, min_size=dom.dim, max_size=dom.dim)))
        if np.linalg.norm(w) < 1e-3:
            w[0] = 1.0
        return c + frac * dom.backend.chord_params(c, w)[1] * w

    inside = st.floats(0.0, 0.999)
    xs, ys = [], []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.integers(0, 19))
        x = point(draw(inside))
        if kind == 0:
            y = point(1.0)
        elif kind == 1:
            y = point(draw(st.floats(1.01, 2.0)))
        elif kind < 5:
            y = x.copy()
        else:
            y = point(draw(inside))
        if draw(st.booleans()):
            x, y = y, x
        xs.append(x)
        ys.append(y)
    return np.array(xs), np.array(ys)


@pytest.mark.parametrize("name", DOMAINS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_distances_match_distance_row_by_row(name, data):
    # bit for bit, and a failing row raises what a loop of `distance` raises
    dom = _domain(name)
    xs, ys = data.draw(_point_pairs(dom))
    assert _same(_loop_or_error(hb.distances, dom, xs, ys),
                 _loop_or_error(_loop, dom, xs, ys))


def _reference_chord(dom, x, y):
    """Chord parameters of the line through x and y by separate queries:
    contains(x), contains(y), then `chord_params`."""
    b = dom.backend
    for name, c in (("x", x), ("y", y)):
        if b.contains_margin(c) <= 0:
            raise InvalidInputError(f"point {name} is not inside the domain")
    return b.chord_params(x, y - x)


def _reference_distance(dom, x, y):
    """Hilbert distance by separate queries, the cross-ratio worked in numpy
    scalars (its array branch, on a 0-d step)."""
    d = y - x
    step = np.sqrt(dm._plain_dot(d, d))
    if step <= TOL.exact:
        return 0.0
    t_lo, t_hi = _reference_chord(dom, x, y)
    return hb._cross_ratio(t_lo, t_hi, np.asarray(step))


def _outcome(fn, *args):
    """fn's value, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except GeometryError as exc:
        return type(exc), str(exc)


def _reference_segment(dom, x, y):
    if np.linalg.norm(y - x) <= TOL.exact:
        raise DegenerateChordError("chord endpoints coincide")
    t_lo, t_hi = _reference_chord(dom, x, y)
    return dm.Chord(dom, x + t_lo * (y - x), x + t_hi * (y - x))


def _ends(fn, dom, x, y):
    got = _outcome(fn, dom, x, y)
    return got if isinstance(got, tuple) else (got.x_minus.tolist(),
                                               got.x_plus.tolist())


@pytest.mark.parametrize("name", DOMAINS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_chord_query_matches_the_reference(name, data):
    # `distance`, `distances` and `chord` ask one segment query where the
    # reference asks contains, contains and chord_params: the same floats
    # and the same first error, type and message
    dom = _domain(name)
    xs, ys = data.draw(_point_pairs(dom))
    ref = [_outcome(_reference_distance, dom, x, y) for x, y in zip(xs, ys)]
    for (x, y), want in zip(zip(xs, ys), ref):
        got = _outcome(hb.distance, dom, x, y)
        assert type(got) is type(want) and got == want
        assert _ends(dm.chord, dom, x, y) == _ends(_reference_segment, dom, x, y)
    first_error = next((r for r in ref if isinstance(r, tuple)), None)
    stacked = _outcome(hb.distances, dom, xs, ys)
    if first_error is None:
        assert stacked.tolist() == ref
    else:
        assert stacked == first_error


def _plain(u, v):
    acc = u[0] * v[0]
    for k in range(1, len(u)):
        acc = acc + u[k] * v[k]
    return acc


def _float_distance(dom, x, y):
    """Hilbert distance of two interior points (lists of floats), in Python
    floats and explicit loops: every dot product a sum of plain products
    added left to right.  The log is np.log of a float, as in the library."""
    b = dom.backend
    d = [q - p for p, q in zip(x, y)]
    step = math.sqrt(_plain(d, d))
    if isinstance(b, dm.EllipsoidBackend):
        rows = b.shape_matrix.tolist()
        u = [p - c for p, c in zip(x, b.center.tolist())]
        um = [_plain(u, row) for row in rows]
        alpha = _plain([_plain(d, row) for row in rows], d)
        beta, gamma = _plain(um, d), _plain(um, u) - 1.0
        root = math.sqrt(beta * beta - alpha * gamma)
        t_lo, t_hi = (-beta - root) / alpha, (-beta + root) / alpha
    else:
        t_lo, t_hi = -math.inf, math.inf
        for a, off in zip(b.normals.tolist(), b.offsets.tolist()):
            rate = _plain(a, d)
            if abs(rate) > TOL.exact * step:
                t = (off - _plain(a, x)) / rate
                if rate > 0:
                    t_hi = min(t_hi, t)
                else:
                    t_lo = max(t_lo, t)
    ax, ay = -t_lo * step, (1.0 - t_lo) * step
    bx, by = t_hi * step, (t_hi - 1.0) * step
    return 0.5 * abs(np.log((bx * ay) / (by * ax)))


@pytest.mark.parametrize("name", DOMAINS)
def test_distance_is_plain_float_arithmetic(name, rng):
    # bit for bit the loops above, one pair and stacked, on both sides of
    # the float crossover: BLAS products (FMA kernels) would differ
    dom = _domain(name)
    xs = dom.random_interior(rng, size=60)
    ys = dom.random_interior(rng, size=60)
    want = [_float_distance(dom, x, y) for x, y in zip(xs.tolist(), ys.tolist())]
    assert [hb.distance(dom, x, y) for x, y in zip(xs, ys)] == want
    assert hb.distances(dom, xs, ys).tolist() == want


def test_distances_checks(disk, square):
    x, y = np.array([0.1, -0.2]), np.array([-0.5, 0.3])
    far = np.array([2.0, 0.0])                # outside
    edge = np.array([1.0 - 1e-14, 0.0])       # a chord endpoint at x
    got = hb.distances(disk, [x, x, y], [x, y, y])
    assert got[0] == 0.0 and got[2] == 0.0
    assert got[1] == hb.distance(disk, x, y)
    assert hb.distances(disk, [x, x], [x, x]).tolist() == [0.0, 0.0]
    assert hb.distances(disk, np.empty((0, 2)), np.empty((0, 2))).shape == (0,)
    with pytest.raises(InvalidInputError, match="point y is not inside"):
        hb.distances(square, [x, x], [y, far])
    with pytest.raises(InfiniteDistanceError):
        hb.distances(disk, [x, edge], [y, x])
    # the first failing row decides, as in a loop of `distance` calls
    with pytest.raises(InfiniteDistanceError):
        hb.distances(disk, [x, edge, far], [y, x, x])
    with pytest.raises(InvalidInputError, match="point x is not inside"):
        hb.distances(disk, [x, far, edge], [y, x, x])


def test_geodesic_midpoint_symmetry(disk):
    pts = hb.geodesic(disk, [-0.5, 0.0], [0.5, 0.0], 2)
    assert np.allclose(pts[1], [0.0, 0.0], atol=1e-9)


def test_geodesic_equal_spacing(any_domain, rng):
    for _ in range(5):
        x = any_domain.random_interior(rng)
        y = any_domain.random_interior(rng)
        if np.linalg.norm(x - y) < 1e-6:
            continue
        pts = hb.geodesic(any_domain, x, y, 4)
        gaps = [hb.distance(any_domain, pts[i], pts[i + 1]) for i in range(4)]
        assert max(gaps) - min(gaps) < 1e-9


def test_geodesic_hilbert_vs_euclid(disk):
    pts = hb.geodesic(disk, [0.0, 0.0], [0.9, 0.0], 3)
    euclid = [np.linalg.norm(pts[i + 1] - pts[i]) for i in range(3)]
    assert euclid[0] > euclid[1] > euclid[2]
    gaps = [hb.distance(disk, pts[i], pts[i + 1]) for i in range(3)]
    assert max(gaps) - min(gaps) < 1e-9


def test_geodesic_midpoint_minimax(disk, rng):
    # on a strictly convex backend the midpoint minimizes the larger distance
    x = np.array([-0.4, 0.1])
    y = np.array([0.55, 0.3])
    mid = hb.geodesic(disk, x, y, 2)[1]
    best = max(hb.distance(disk, mid, x), hb.distance(disk, mid, y))
    d = y - x
    for t in np.linspace(0.1, 0.9, 17):
        p = x + t * d
        val = max(hb.distance(disk, p, x), hb.distance(disk, p, y))
        assert best <= val + 1e-9


def test_projection_disk_example(disk):
    c = dm.chord(disk, [0.0, 0.0], [0.5, 0.0])
    proj = hb.chord_projection(disk, c)
    assert np.linalg.norm(proj.core.basis[0] - np.array([0, 1, 0])) < 1e-9 or \
        np.linalg.norm(proj.core.basis[0] + np.array([0, 1, 0])) < 1e-9
    image = hb.project_to_chord(proj, disk.chart.from_chart([0.3, 0.4]))
    assert np.allclose(disk.chart.to_chart(image), [0.3, 0.0], atol=1e-12)
    again = hb.project_to_chord(proj, image)
    assert image.same_class(again, tol=1e-12)


def test_projection_is_its_fields(disk):
    # a copy of the dataclass projects as the original: the decomposition
    # basis comes from the fields alone
    proj = hb.chord_projection(disk, dm.chord(disk, [-0.2, 0.1], [0.4, 0.3]))
    x = disk.chart.from_chart([0.1, -0.5])
    assert np.array_equal(hb.project_to_chord(replace(proj), x).coords,
                          hb.project_to_chord(proj, x).coords)


def test_projection_of_the_core_is_undefined(disk):
    # the pencil core's own point has no chord part: the decomposition puts
    # it wholly in the core
    proj = hb.chord_projection(disk, dm.chord(disk, [-0.2, 0.1], [0.3, 0.2]))
    assert proj.core.basis.shape[0] == 1
    with pytest.raises(ProjectionUndefinedError, match="projection core"):
        hb.project_to_chord(proj, proj.core.basis[0])
    with pytest.raises(ProjectionUndefinedError):
        hb.project_to_chord(proj, ProjPoint(-3.0 * proj.core.basis[0]))


def test_projection_nonexpansive(any_domain, rng):
    x0 = any_domain.random_interior(rng, margin=0.05)
    y0 = any_domain.random_interior(rng, margin=0.05)
    while np.linalg.norm(x0 - y0) < 0.1:
        y0 = any_domain.random_interior(rng, margin=0.05)
    proj = hb.chord_projection(any_domain, dm.chord(any_domain, x0, y0))
    checked = 0
    for _ in range(300):
        x = any_domain.random_interior(rng)
        y = any_domain.random_interior(rng)
        try:
            dxy = hb.distance(any_domain, x, y)
            px = hb.project_to_chord(proj, any_domain.chart.from_chart(x))
            py = hb.project_to_chord(proj, any_domain.chart.from_chart(y))
            dpq = hb.distance(any_domain,
                              any_domain.chart.to_chart(px),
                              any_domain.chart.to_chart(py))
        except (InfiniteDistanceError, InvalidInputError):
            continue
        assert dpq <= dxy + 1e-9
        checked += 1
    assert checked > 200


def test_thin_triangle_degenerate(disk):
    res = hb.thin_triangle_delta(disk, [[0, 0], [0.1, 0], [0.3, 0]], m=8)
    assert res.degenerate and res.delta == 0.0


def test_thin_triangle_disk_bounded(disk):
    values = []
    for r in (0.5, 0.8, 0.95):
        tri = [r * np.array([np.cos(a), np.sin(a)])
               for a in (0.0, 2 * np.pi / 3, 4 * np.pi / 3)]
        values.append(hb.thin_triangle_delta(disk, tri, m=12).delta)
    assert values[-1] < 2.0 * values[0] + 1.0  # stays of bounded size


def test_thin_triangle_monotone_in_m(disk):
    tri = [[0.7, 0.0], [-0.35, 0.6], [-0.35, -0.6]]
    d1 = hb.thin_triangle_delta(disk, tri, m=8).delta
    d2 = hb.thin_triangle_delta(disk, tri, m=16).delta
    assert d2 >= d1 - 1e-12


def test_thin_triangle_needs_a_segment_per_side(disk):
    tri = [[0.7, 0.0], [-0.35, 0.6], [-0.35, -0.6]]
    for m in (0, -1):
        with pytest.raises(InvalidInputError):
            hb.thin_triangle_delta(disk, tri, m=m)
    assert hb.thin_triangle_delta(disk, tri, m=1).delta >= 0.0


def _thin_reference(dom, tri, m):
    """Side maxima of the thin-triangle gaps, one scalar golden-section
    search and one `distance` call at a time."""
    verts = [np.asarray(v, dtype=float) for v in tri]
    sides = [(verts[0], verts[1]), (verts[1], verts[2]), (verts[2], verts[0])]

    def dist_to_side(p, side):
        a, b = side
        return scalar_golden_min(
            lambda s: hb.distance(dom, p, (1 - s) * a + s * b), 0.0, 1.0)[1]

    maxima = []
    for i, (a, b) in enumerate(sides):
        others = [sides[(i + 1) % 3], sides[(i + 2) % 3]]
        maxima.append(max(min(dist_to_side((1 - t) * a + t * b, s) for s in others)
                          for t in np.linspace(0.0, 1.0, m + 1)))
    return maxima


def test_lockstep_search_stops_each_bracket_on_its_own():
    # brackets of different widths take different numbers of steps; each
    # must take exactly those of a search of its own
    lo, hi = [0.0, -2.0, 2.4, -1e-3], [1.0, 3.0, 2.6, 1e-3]
    centers = [0.3, -1.2, 2.5, 0.0]

    def fn(k, s):
        return [(v - centers[i]) ** 2 for i, v in zip(k, s)]

    xm, vals = hb._golden_min(fn, lo, hi)
    for i, c in enumerate(centers):
        ref = scalar_golden_min(lambda v: (v - c) ** 2, lo[i], hi[i])
        assert (xm[i], vals[i]) == ref


@pytest.mark.parametrize("name", ["disk", "ellipse", "triangle", "gon24"])
def test_thin_triangle_matches_scalar_search(name):
    dom = {"disk": dm.unit_disk(),
           "ellipse": dm.ConvexDomain.ellipsoid([0.1, -0.2], [[2.0, 0.3], [0.3, 0.7]]),
           "triangle": dm.triangle_domain(),
           "gon24": dm.disk_polygon(24)}[name]
    tri = dom.random_interior(np.random.default_rng(11), size=3, margin=0.05)
    for m in (8, 16):
        res = hb.thin_triangle_delta(dom, tri, m=m)
        ref = _thin_reference(dom, tri, m)
        assert res.side_maxima == ref
        assert res.delta == max(ref)


def test_thin_triangle_threads_match(disk):
    tri = [[0.7, 0.0], [-0.35, 0.6], [-0.35, -0.6]]
    a = hb.thin_triangle_delta(disk, tri, m=8, threads=1).delta
    b = hb.thin_triangle_delta(disk, tri, m=8, threads=4).delta
    assert a == b


def test_geodesic_of_a_point_makes_no_chord_call(disk, monkeypatch):
    def no_chord(x, y, d):
        raise AssertionError("segment_chord called on a zero direction")

    monkeypatch.setattr(disk.backend, "segment_chord", no_chord)
    x = np.array([0.2, -0.3])
    pts = hb.geodesic(disk, x, x.copy(), 4)
    assert len(pts) == 5
    assert all(np.array_equal(p, x) for p in pts)


def test_geodesic_makes_one_chord_call(square, monkeypatch):
    calls = []
    segment_chord = square.backend.segment_chord

    def counted(*args):
        calls.append(1)
        return segment_chord(*args)

    monkeypatch.setattr(square.backend, "segment_chord", counted)
    pts = hb.geodesic(square, [0.3, -0.2], [-0.5, 0.6], 4)
    assert len(pts) == 5
    assert len(calls) == 1


def test_metric_ball_radius(any_domain):
    c = any_domain.interior_point()
    for radius in (0.3, 1.0, 2.5):
        pts = hb.metric_ball(any_domain, c, radius, samples=32)
        assert pts.shape == (32, 2)
        for p in pts:
            assert abs(hb.distance(any_domain, c, p) - radius) < 1e-12
    assert np.all(np.isfinite(hb.metric_ball(any_domain, c, 1e3, samples=8)))


def test_tiny_direction_chord(triangle):
    x = triangle.interior_point()
    u = np.array([0.6, 0.8])
    unit = np.array(triangle.backend.chord_params(x, u))
    tiny = np.array(triangle.backend.chord_params(x, 1e-12 * u))
    assert np.allclose(tiny * 1e-12, unit, rtol=1e-12, atol=0.0)


def test_thin_triangle_short_side_on_polytope(triangle):
    c = triangle.interior_point()
    tri = [c, c + np.array([0.02, 0.0]), c + np.array([0.0, 0.3])]
    res = hb.thin_triangle_delta(triangle, tri, m=8)
    assert not res.degenerate
    # each sample is at most as far from the other sides as from a vertex
    diam = max(hb.distance(triangle, tri[i], tri[i - 1]) for i in range(3))
    assert 0.0 < res.delta <= diam


@pytest.mark.parametrize("call, message", [
    (lambda d: hb.geodesic(d, [0.0, 0.0], [0.5, 0.0], 0),
     "need at least one segment"),
    (lambda d: hb.metric_ball(d, [1.5, 0.0], 1.0),
     "ball center is not inside the domain"),
    (lambda d: hb.metric_ball(dm.orthant_domain(3), [0.0, 0.0, 0.0], 1.0),
     "metric balls are drawn in 2-d charts only"),
    (lambda d: hb.thin_triangle_delta(d, [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]], m=0),
     "need at least one segment per side"),
    (lambda d: hb.thin_triangle_delta(d, [[0.0, 0.0], [0.5, 0.0]]),
     "triangle needs exactly three vertices"),
], ids=["geodesic-k0", "ball-center-outside", "ball-3d", "triangle-m0",
        "two-vertices"])
def test_invalid_metric_arguments_raise(disk, call, message):
    with pytest.raises(GeometryError) as err:
        call(disk)
    assert err.type is InvalidInputError and str(err.value) == message
