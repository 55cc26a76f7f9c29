import numpy as np
import pytest

from projconvex import domain as dm, hilbert as hb
from projconvex.errors import InfiniteDistanceError, InvalidInputError
from projconvex.projgeom import ProjPoint, ProjTransform

from conftest import boost


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


def test_thin_triangle_threads_match(disk):
    tri = [[0.7, 0.0], [-0.35, 0.6], [-0.35, -0.6]]
    a = hb.thin_triangle_delta(disk, tri, m=8, threads=1).delta
    b = hb.thin_triangle_delta(disk, tri, m=8, threads=4).delta
    assert a == b


def test_geodesic_of_a_point_makes_no_chord_call(disk, monkeypatch):
    def no_chord(x, d):
        raise AssertionError("chord_params called on a zero direction")

    monkeypatch.setattr(disk.backend, "chord_params", no_chord)
    x = np.array([0.2, -0.3])
    pts = hb.geodesic(disk, x, x.copy(), 4)
    assert len(pts) == 5
    assert all(np.array_equal(p, x) for p in pts)


def test_geodesic_makes_one_chord_call(square, monkeypatch):
    calls = []
    chord_params = square.backend.chord_params

    def counted(x, d):
        calls.append(1)
        return chord_params(x, d)

    monkeypatch.setattr(square.backend, "chord_params", counted)
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
