import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.spatial import ConvexHull

from projconvex import domain as dm
from projconvex import hilbert as hb
from projconvex import jsonio
from projconvex.errors import (
    AtInfinityError,
    DegenerateChordError,
    GeometryError,
    InputFormatError,
    InvalidInputError,
    NotOnFrontierError,
    NotProperlyConvexError,
)
from projconvex.projgeom import AffineChart, ProjPoint, ProjTransform

from conftest import halfspace_polygon, random_domain


def test_validate_disk(disk):
    cert = dm.validate(disk)
    assert abs(cert.margin - 1.0) < 1e-12
    assert abs(cert.bounding_radius - 1.0) < 1e-12


def test_validate_diamond():
    diamond = dm.ConvexDomain.from_vertices([[1, 0], [0, 1], [-1, 0], [0, -1]])
    cert = dm.validate(diamond)
    assert abs(cert.margin - 1.0) < 1e-12


def test_validate_halfplane_unbounded():
    # the unbounded data is rejected as soon as the backend needs vertices
    with pytest.raises(NotProperlyConvexError) as err:
        dom = dm.ConvexDomain.from_halfspaces([[-1.0, 0.0]], [0.0])
        dm.validate(dom)
    assert err.value.data.get("witness") is not None


@pytest.mark.parametrize("normals, offsets, lps, message, witness", [
    (np.vstack([np.eye(3), -np.eye(3)]), [-1.0, 0.5, 1.0, 1.0, 1.0, 1.0], 1,
     "empty or flat half-space intersection", None),
    (-np.eye(3), [0.5, 0.5, 0.5], 2, "half-space data is unbounded", [1.0, 0.0, 0.0]),
    (np.vstack([np.eye(3), -np.eye(3)[:2]]), [1.0] * 5, 7,
     "half-space data is unbounded", [0.0, 0.0, -1.0]),
], ids=["empty-cube", "orthant", "open-box"])
def test_3d_halfspace_failure_runs_each_lp_once(monkeypatch, normals, offsets, lps,
                                                message, witness):
    # the Chebyshev LP's verdict stands: an empty list runs no recession LP,
    # and a witness the LP's branch attached is not searched for again; only
    # qhull's unbounded verdict (the open box) needs the recession LPs
    import scipy.optimize

    linprog, calls = scipy.optimize.linprog, []

    def counted(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counted)
    with pytest.raises(NotProperlyConvexError) as err:
        dm.ConvexDomain.from_halfspaces(normals, offsets)
    assert len(calls) == lps
    assert jsonio.sanitize(err.value.report()) == {
        "code": "not-properly-convex", "message": message,
        "data": {"witness": witness}}


def test_validate_nonconvex_vertices():
    with pytest.raises(NotProperlyConvexError):
        dm.ConvexDomain.from_vertices([[0, 0], [1, 0], [0, 1], [0.2, 0.2]])


def test_contains_examples(disk):
    assert dm.contains(disk, [0.0, 0.0]).kind == "inside"
    assert abs(dm.contains(disk, [0.0, 0.0]).margin - 1.0) < 1e-12
    assert dm.contains(disk, [1.0, 0.0]).kind == "boundary"
    out = dm.contains(disk, [2.0, 0.0])
    assert out.kind == "outside" and out.margin < 0


def test_chord_disk_diameter(disk):
    c = dm.chord(disk, [0.0, 0.0], [0.5, 0.0])
    assert np.allclose(c.x_minus, [-1, 0], atol=1e-12)
    assert np.allclose(c.x_plus, [1, 0], atol=1e-12)


def test_chord_square_diagonal(square):
    c = dm.chord(square, [0.0, 0.0], [0.5, 0.5])
    assert np.allclose(c.x_plus, [1, 1], atol=1e-12)
    assert np.allclose(c.x_minus, [-1, -1], atol=1e-12)


def test_chord_degenerate_and_outside(disk):
    with pytest.raises(DegenerateChordError):
        dm.chord(disk, [0.1, 0.1], [0.1, 0.1])
    with pytest.raises(InvalidInputError):
        dm.chord(disk, [0.0, 0.0], [3.0, 0.0])


def test_contains_rejects_non_finite_and_misshapen_points(square, disk):
    for dom in (square, disk):
        for p in ([np.nan, 0.0], [0.0, -np.inf]):
            with pytest.raises(InvalidInputError, match="not finite"):
                dm.contains(dom, p)
        for p in ([0.1], [0.1, 0.2, 5.0], np.zeros(3), np.zeros((2, 2))):
            with pytest.raises(InvalidInputError, match="chart dimension 2"):
                dm.contains(dom, p)


def _ellipsoid13():
    # 169 terms: past `_FLOAT_TERMS` for one point, so one point and every
    # stack take `_columns`, a lone line in floats and a stack in columns
    rng = np.random.default_rng(13)
    b = rng.normal(size=(13, 13))
    return dm.ConvexDomain.ellipsoid(rng.uniform(-0.2, 0.2, 13),
                                     b @ b.T / 13 + 0.5 * np.eye(13))


STACK_DOMAINS = [
    dm.unit_disk, dm.square_domain, dm.triangle_domain,
    lambda: dm.disk_polygon(24),
    lambda: dm.ConvexDomain.ellipsoid(np.zeros(3), np.diag([1.0, 2.0, 0.5])),
    lambda: dm.ConvexDomain.from_halfspaces(
        np.vstack([np.eye(3), -np.eye(3)]), np.ones(6)),
    lambda: dm.orthant_domain(1), lambda: dm.orthant_domain(3),
    lambda: dm.disk_polygon(200),   # past the float crossover
    lambda: dm.ConvexDomain.ellipsoid(   # off-centre, not diagonal
        [0.1, -0.2, 0.05], [[1.3, 0.4, -0.2], [0.4, 0.9, 0.3], [-0.2, 0.3, 1.1]]),
    _ellipsoid13,
    lambda: halfspace_polygon(np.random.default_rng(120), 120)]   # shuffled facets


def _inside(dom, rng, size):
    """A (size, n) stack of `random_interior` points, but in chart dimension
    13 (where rejection sampling in the bounding box would hardly ever hit)
    ellipsoid points at quadric levels below 0.8."""
    if dom.dim <= 3:
        return dom.random_interior(rng, size=size).reshape(size, dom.dim)
    b = dom.backend
    z = rng.normal(size=(size, b.dim))
    level = np.sqrt(np.einsum("ij,jk,ik->i", z, b.shape_matrix, z))
    return b.center + z * (rng.uniform(0.0, 0.8, size) / level)[:, None]


@pytest.mark.parametrize("make", STACK_DOMAINS)
def test_stacked_chord_and_margin_match_rows(make, rng):
    _stacked_chord_and_margin_match_rows(make, rng, 40)


@pytest.mark.parametrize("make", STACK_DOMAINS)
def test_three_row_stacks_match_rows(make, rng):
    # 3-row chord stacks are worked row by row in floats on every backend
    # but the 200-gon; the 40-row stacks above are numpy columns on all but
    # orthant1
    _stacked_chord_and_margin_match_rows(make, rng, 3)
    _segment_chord_is_the_checked_chord_query(make, rng, 3)


@pytest.mark.parametrize("make", STACK_DOMAINS)
def test_one_row_stacks_match_rows(make, rng):
    _stacked_chord_and_margin_match_rows(make, rng, 1)
    _segment_chord_is_the_checked_chord_query(make, rng, 1)


def _stacked_chord_and_margin_match_rows(make, rng, size):
    # an (N, n) stack gives, row by row, the one-line floats
    dom = make()
    b = dom.backend
    xs = _inside(dom, rng, size)
    us = rng.normal(size=xs.shape)
    lo, hi = b.chord_params(xs, us)
    rows = np.array([b.chord_params(x, u) for x, u in zip(xs, us)])
    assert np.array_equal(np.stack([lo, hi], axis=1), rows)
    # one point against many directions, and points outside
    lo, hi = b.chord_params(xs[0], us)
    assert np.array_equal(np.stack([lo, hi], axis=1),
                          [b.chord_params(xs[0], u) for u in us])
    pts = np.vstack([xs, 3.0 * us])
    assert np.array_equal(b.contains_margin(pts),
                          [b.contains_margin(p) for p in pts])
    # a stack with one failing line raises as that line does alone
    bad = min(7, size - 1)
    us[bad] = 0.0
    with pytest.raises(GeometryError) as alone:
        b.chord_params(xs[bad], us[bad])
    with pytest.raises(alone.type):
        b.chord_params(xs, us)


@pytest.mark.parametrize("make", STACK_DOMAINS)
def test_segment_chord_is_the_checked_chord_query(make, rng):
    _segment_chord_is_the_checked_chord_query(make, rng, 40)


def _segment_chord_is_the_checked_chord_query(make, rng, size):
    # one pair or a stack: the chord_params floats, after checking x and
    # then y with the contains_margin test
    dom = make()
    b = dom.backend
    xs, ys = _inside(dom, rng, size), _inside(dom, rng, size)
    lo, hi = b.segment_chord(xs, ys, ys - xs)
    rows = [b.segment_chord(x, y, y - x) for x, y in zip(xs, ys)]
    assert np.array_equal(np.stack([lo, hi], axis=1), rows)
    assert rows == [b.chord_params(x, y - x) for x, y in zip(xs, ys)]
    far = 3.0 * b.bounding_radius() * np.ones(dom.dim)
    for x, y, name in ((far, xs[0], "x"), (far, far, "x"), (xs[0], far, "y")):
        with pytest.raises(InvalidInputError, match=f"point {name} is not"):
            b.segment_chord(x, y, y - x)
    ys[min(5, size - 2)] = far
    xs[min(9, size - 1)] = far
    with pytest.raises(InvalidInputError, match="point x is not"):
        b.segment_chord(xs, ys, ys - xs)


def test_quadric_kernel_matches_blas_above_the_float_rule(rng):
    dom = _ellipsoid13()
    b, m = dom.backend, dom.backend.shape_matrix
    for x, y in zip(_inside(dom, rng, 20), _inside(dom, rng, 20)):
        u, d = x - b.center, y - x
        alpha, beta, q = d @ m @ d, u @ m @ d, u @ m @ u
        root = np.sqrt(beta * beta - alpha * (q - 1.0))
        ref = np.array([1.0 - np.sqrt(q), (-beta - root) / alpha, (-beta + root) / alpha])
        got = np.array([b.contains_margin(x), *b.segment_chord(x, y, d)])
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))
        # the float lists `distance` passes take the same kernel
        assert b.segment_chord(x.tolist(), y.tolist(), d.tolist(),
                               np.linalg.norm(d)) == tuple(got[1:])


def _arc_polygons(rng):
    """Polygons past the float crossover: the hulls of 80-400 points at
    jittered angles on ellipses down to 1/1000 as wide as long, some of them
    far from the origin, as vertex lists and as half-space lists in shuffled
    order."""
    for k, aspect, shift in ((80, 1.0, 3), (150, 0.3, 0), (250, 1e-2, 2), (400, 1e-3, 0)):
        ang = 2 * np.pi * (np.arange(k) + rng.uniform(-0.3, 0.3, k)) / k
        turn = rng.uniform(0, 2 * np.pi)
        rot = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
        pts = np.stack([np.cos(ang), aspect * np.sin(ang)], axis=1) @ rot.T
        b = dm.ConvexDomain.from_vertices(pts + rng.normal(size=2) * 10 ** shift).backend
        perm = rng.permutation(len(b.normals))
        yield b
        yield dm.ConvexDomain.from_halfspaces(b.normals[perm], b.offsets[perm]).backend


def _hard_lines(b, rng, count):
    """Point pairs (x, y) as float lists: x within 1e-16 to 1e-3 of a vertex
    or an edge on either side, or anywhere about the polygon, and y along a
    facet (|a . d| <= 1e-12 |d|), along x's edge, at a vertex, or a random
    step away."""
    ring = b.verts[b._hull[2]]
    c, size = b.center, np.abs(ring - b.center).max()
    for _ in range(count):
        i = rng.integers(len(ring))
        p = ring[i] + rng.choice([0.0, rng.uniform()]) * (ring[i - 1] - ring[i])
        near = 10 ** rng.uniform(-16, -3) * rng.choice([1.0, -1.0])
        x = [p + near * (c - p), c + rng.uniform(-2, 2, 2) * size][rng.integers(2)]
        a = b.normals[rng.integers(len(b.normals))]
        slip = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-17, -12)
        d = [rng.uniform(-2, 2) * (np.array([-a[1], a[0]]) + slip * a),
             rng.uniform(0.5, 1.5) * (ring[i - 1] - ring[i]),
             ring[rng.integers(len(ring))] - x,
             rng.normal(size=2) * 10 ** rng.uniform(-3, 0.5)][rng.integers(4)]
        yield x.tolist(), (x + d).tolist()


def _edge_lines(b):
    """Point pairs along each edge from just inside either end (1e-16 and
    1e-15 of the way to the center): the line is parallel to a facet at an
    arc end, and both ends of that facet's edge lie within rounding of it."""
    ring = b.verts[b._hull[2]]
    for i, p in enumerate(ring):
        for q in (ring[i - 1], ring[(i + 1) % len(ring)]):
            for t in (1e-16, 1e-15):
                x = p + t * (b.center - p)
                yield x.tolist(), (x + 0.5 * (q - p)).tolist()


def _pair_matches_row(b, pairs):
    """Asserts that one pair in float lists and the one-row stack of it (all
    facets in numpy columns) give the same floats or the same error; returns
    the kinds of outcome seen."""
    def outcome(*args):
        try:
            return [float(t) for t in np.ravel(b.segment_chord(*args))]
        except GeometryError as exc:
            return type(exc), str(exc)

    kinds = set()
    for x, y in pairs:
        d = [q - p for p, q in zip(x, y)]
        step = float(np.sqrt(dm._plain_dot(d, d)))
        if step > 1e-12:
            got = outcome(x, y, d, step)
            assert got == outcome(*map(np.array, ([x], [y], [d], [step])))
            kinds.add(got[1][:7] if type(got) is tuple else "chord")
    return kinds


def test_one_pair_polygon_chord_is_the_stacked_row(rng):
    # one pair takes the at most 6 facets of the arc index: on lines through
    # vertices and edges, along facets and missing the polygon
    along = set()
    for b in _arc_polygons(rng):
        assert b._arcs is not None and b.normals.size > dm._FLOAT_TERMS
        assert _pair_matches_row(b, _hard_lines(b, rng, 400)) == {
            "chord", "point x", "point y"}
        along |= _pair_matches_row(b, _edge_lines(b))
    assert along == {"chord", "point x", "point y"}


def test_near_parallel_facets_keep_the_full_scan(rng):
    # facets repeated within 1e-12 of a turn and 1e-11 of an offset pass
    # within TOL.flatness of a vertex they do not bound: rounding could move
    # a found edge past its neighbour, so such a polygon has no arc index
    b = halfspace_polygon(rng, 120).backend
    twins = rng.integers(0, 120, 30)
    turn = rng.choice([-1.0, 1.0], 30) * 10 ** rng.uniform(-16, -12, 30)
    a = b.normals[twins]
    normals = np.stack([a[:, 0] - turn * a[:, 1], a[:, 1] + turn * a[:, 0]], axis=1)
    offsets = b.offsets[twins] + 10 ** rng.uniform(-16, -11, 30)
    b = dm.ConvexDomain.from_halfspaces(np.vstack([b.normals, normals]),
                                        np.concatenate([b.offsets, offsets])).backend
    assert len(b.normals) == 150 and b._arcs is None
    assert "chord" in _pair_matches_row(b, _hard_lines(b, rng, 400))


@pytest.mark.parametrize("make", STACK_DOMAINS)
def test_stacked_support_matches_rows(make, rng):
    dom = make()
    b = dom.backend
    us = rng.normal(size=(30, dom.dim))
    rows = [b.support(u) for u in us]
    assert all(type(h) is float for h in rows)
    assert b.support(us).tolist() == rows
    assert dom.support_function(us).tolist() == rows
    assert dom.support_function(us[3]).tolist() == [rows[3]]


def test_chord_classification(any_domain, rng):
    for _ in range(30):
        x = any_domain.random_interior(rng)
        y = any_domain.random_interior(rng)
        if np.linalg.norm(x - y) < 1e-9:
            continue
        c = dm.chord(any_domain, x, y)
        for endpoint in (c.x_minus, c.x_plus):
            assert abs(any_domain.backend.contains_margin(endpoint)) < 1e-8
        for t in np.linspace(0.05, 0.95, 7):
            assert any_domain.backend.contains_margin(c.point_at(t)) > -1e-12


def _rejection_draws(dom, rng, size, margin):
    """The sampler's draw loop written out without a bound on its rounds."""
    r = dom.backend.bounding_radius()
    out = []
    while len(out) < size:
        for x in rng.uniform(-r, r, size=(4 * (size - len(out)) + 8, dom.dim)):
            if dom.backend.contains_margin(x) > margin:
                out.append(x)
                if len(out) == size:
                    break
    return np.array(out)


def test_random_interior_draws_and_gives_up(any_domain):
    # where points are found, the bounded sampler returns the same points
    # and leaves the generator in the same state as the unbounded loop
    for size, margin in ((1, 0.0), (5, 0.05)):
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        got = any_domain.random_interior(a, size=size, margin=margin)
        assert np.array_equal(np.atleast_2d(got),
                              _rejection_draws(any_domain, b, size, margin))
        assert a.random() == b.random()
    # a margin no point reaches is an error, not an endless loop
    with pytest.raises(InvalidInputError):
        any_domain.random_interior(np.random.default_rng(1), size=2, margin=1.0)
    # so is a request for no points
    for size in (0, -1):
        with pytest.raises(InvalidInputError):
            any_domain.random_interior(np.random.default_rng(1), size=size)


def test_support_disk_tangent(disk):
    phi = dm.support(disk, [1.0, 0.0])
    # the tangent line x = 1, oriented into the disk
    lift = disk.chart.lift([1.0, 0.5])  # on the line
    assert abs(phi.pair(lift / np.linalg.norm(lift))) < 1e-12
    assert phi.pair(disk.chart.lift([0.0, 0.0])) > 0


def test_support_square_facet_and_vertex(square):
    phi = dm.support(square, [1.0, 0.3])
    on_line = square.chart.lift([1.0, -0.7])
    assert abs(phi.pair(on_line)) < 1e-9
    # vertex: averaged neighbors, direction (1,1)/sqrt(2)
    psi = dm.support(square, [1.0, 1.0])
    n = -(square.chart.frame.T @ psi.coeffs)
    n /= np.linalg.norm(n)
    assert np.allclose(np.abs(n), [1 / np.sqrt(2)] * 2, atol=1e-12)
    facets = dm.supporting_facets(square, [1.0, 1.0])
    assert len(facets) == 2


def test_support_requires_frontier(square):
    with pytest.raises(NotOnFrontierError):
        dm.support(square, [0.0, 0.0])


def test_support_orientation(any_domain, rng):
    b = any_domain.backend
    for _ in range(50):
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        pt = b.support_point(u) if b.kind != "ellipsoid" else b.support_point(u)
        phi = dm.support(any_domain, pt)
        assert abs(phi.pair(any_domain.chart.lift(pt))
                   / np.linalg.norm(any_domain.chart.lift(pt))) < 1e-9
        for _ in range(20):
            p = any_domain.random_interior(rng)
            assert phi.pair(any_domain.chart.lift(p)) > 0


def test_dual_disk_self_dual(disk):
    dual = dm.dual_domain(disk)
    assert dual.backend.kind == "ellipsoid"
    assert np.allclose(dual.backend.center, [0, 0], atol=1e-12)
    assert np.allclose(dual.backend.shape_matrix, np.eye(2), atol=1e-12)


def test_dual_orthant_self_dual():
    orthant = dm.orthant_domain(2)
    dual = dm.dual_domain(orthant)
    # same chart through [1:1:1]; compare support functions
    assert dm.support_residual(orthant, dual, _circle(32)) < 1e-9


def test_dual_square_is_diamond(square):
    dual = dm.dual_domain(square)
    verts = dual.backend.vertices()
    expected = {(1, 0), (0, 1), (-1, 0), (0, -1)}
    got = {tuple(np.round(v, 9)) for v in verts}
    assert got == {(round(a, 9), round(b, 9)) for a, b in expected}


def test_double_duality_polytope(square, triangle):
    for dom in (square, triangle):
        back = dm.dual_domain(dm.dual_domain(dom)).in_chart(dom.chart)
        got = {tuple(np.round(v, 9)) for v in back.backend.vertices()}
        want = {tuple(np.round(v, 9)) for v in dom.backend.vertices()}
        assert got == want


def test_double_duality_smooth(disk, polygon24):
    dirs = _circle(64)
    for dom in (disk, polygon24):
        back = dm.dual_domain(dm.dual_domain(dom)).in_chart(dom.chart)
        assert dm.support_residual(dom, back, dirs) < 1e-6


def test_dual_equivariance(square, rng):
    dirs = _circle(32)
    for _ in range(10):
        m = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        if abs(np.linalg.det(m)) < 1e-2:
            continue
        a = ProjTransform(m)
        d1 = dm.dual_domain(square.transform(a))
        d2 = dm.dual_domain(square).transform(
            ProjTransform(np.linalg.inv(a.matrix).T))
        assert dm.support_residual(d1, d2.in_chart(d1.chart), dirs) < 1e-8


def test_boundary_flats(disk, triangle, square, polygon24):
    assert dm.boundary_flats(disk) == []
    assert len(dm.boundary_flats(triangle)) == 3
    assert len(dm.boundary_flats(square)) == 4
    flats = dm.boundary_flats(polygon24)
    assert len(flats) == 24
    assert all(len(f["vertices"]) == 2 for f in flats)


def _assert_backends_agree(hpoly, others, rng):
    """Every query of each backend in others matches the half-space form's."""
    n = hpoly.dim
    ref_vol, ref_mu, ref_q = hpoly.moments()
    xs = rng.uniform(-1.5, 1.5, size=(12, n))
    inner = rng.dirichlet(np.ones(len(hpoly.verts)), size=(2, 12)) @ hpoly.verts
    us = rng.normal(size=(12, n))
    for b in others:
        for x, y, z, u in zip(xs, *inner, us):
            assert b.contains_margin(x) == pytest.approx(hpoly.contains_margin(x),
                                                         abs=1e-14)
            assert np.allclose(b.chord_params(y, u), hpoly.chord_params(y, u),
                               rtol=1e-13, atol=0.0)
            assert np.allclose(b.segment_chord(y, z, z - y),
                               hpoly.segment_chord(y, z, z - y), rtol=1e-13, atol=0.0)
            assert b.support(u) == pytest.approx(hpoly.support(u), abs=1e-14)
            assert np.allclose(b.support_point(u), hpoly.support_point(u),
                               rtol=0.0, atol=1e-14)
        assert b.bounding_radius() == pytest.approx(hpoly.bounding_radius(), rel=1e-15)
        vol, mu, q = b.moments()
        assert vol == pytest.approx(ref_vol, rel=1e-14)
        assert np.allclose(mu, ref_mu, atol=1e-15)
        assert np.allclose(q, ref_q, atol=1e-15)
        assert len(b.boundary_flats()) == len(hpoly.boundary_flats()) == len(b.normals)


def test_square_backends_agree(rng):
    v = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    hpoly = dm.HPolyBackend([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                            [1.0, 1.0, 1.0, 1.0])
    vpoly = dm.VPolyBackend(v)
    radial = dm.RadialGraphBackend(np.zeros(2), v, np.linalg.norm(v, axis=1))
    ref_vol, ref_mu, ref_q = hpoly.moments()
    assert ref_vol == pytest.approx(4.0, rel=1e-14)
    assert np.allclose(ref_mu, 0.0, atol=1e-15)
    assert np.allclose(ref_q, np.eye(2) / 3.0, atol=1e-15)
    assert hpoly.bounding_radius() == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert len(hpoly.normals) == 4
    _assert_backends_agree(hpoly, (vpoly, radial), rng)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_polytope_backends_agree(n):
    # one polytope as its vertex list, as its hull facets, and as a radial
    # graph about an interior point
    rng = np.random.default_rng(40 + n)
    for _ in range(3):
        v = random_domain("vpoly", n, rng).backend.listed
        if n == 1:
            hpoly = dm.HPolyBackend([[1.0], [-1.0]], [v.max(), -v.min()])
            simplices = [[0], [1]]
        else:
            hull = ConvexHull(v)
            hpoly = dm.HPolyBackend(hull.equations[:, :-1], -hull.equations[:, -1])
            simplices = hull.simplices if n == 3 else None
        c = rng.dirichlet(np.ones(len(v))) @ v
        radial = dm.RadialGraphBackend(c, v - c, np.linalg.norm(v - c, axis=1),
                                       simplices)
        _assert_backends_agree(hpoly, (dm.VPolyBackend(v), radial), rng)


def test_one_hull_per_vertex_list(monkeypatch):
    # a polygon's hull and fan have closed forms: the 24-gon, as a vertex list
    # or a radial graph, runs no qhull for its check, facets and moments, nor
    # does a 2-d half-space list for its vertices; the qhull run that checks
    # a 3-d vertex list gives the facets the first query reads, and a 3-d
    # half-space list's vertices come from one run
    import scipy.spatial

    built = []
    for name in ("ConvexHull", "HalfspaceIntersection", "Delaunay"):
        real = getattr(scipy.spatial, name)

        def counted(*args, real=real, name=name, **kwargs):
            built.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.spatial, name, counted)
    ang = 2 * np.pi * np.arange(24) / 24
    polygon = dm.ConvexDomain.from_vertices(np.stack([np.cos(ang), np.sin(ang)], 1))
    for dom in (polygon, dm.disk_polygon(24)):
        hb.distance(dom, [0.1, 0.2], [-0.3, 0.4])
        dom.backend.moments()
    assert len(built) == 0
    pts = np.random.default_rng(5).normal(size=(9, 3))
    solid = dm.ConvexDomain.from_vertices(pts / np.linalg.norm(pts, axis=1)[:, None])
    hb.distance(solid, [0.1, 0.2, 0.0], [-0.3, 0.1, 0.2])
    assert len(built) == 1
    ang = 2 * np.pi * np.arange(12) / 12
    dodecagon = dm.ConvexDomain.from_halfspaces(
        np.stack([np.cos(ang), np.sin(ang)], 1), np.ones(12))
    hb.distance(dodecagon, [0.1, 0.2], [-0.3, 0.4])
    dodecagon.backend.moments()
    assert len(dodecagon.backend.verts) == 12
    assert len(built) == 1
    cube = dm.ConvexDomain.from_halfspaces(np.vstack([np.eye(3), -np.eye(3)]), np.ones(6))
    hb.distance(cube, [0.1, 0.2, 0.0], [-0.3, 0.1, 0.2])
    assert len(cube.backend.verts) == 8
    assert built == ["ConvexHull", "HalfspaceIntersection"]


def _with_degenerate_points(rng, pts):
    """pts with one or more of: a repeated vertex, a point on an edge, an
    interior point and a point 1e-17 outside an edge, each at a random
    index; the kinds drawn are returned too."""
    k = len(pts)
    kinds = [kind for kind in ("repeat", "on-edge", "interior", "off-edge")
             if rng.random() < 0.5]
    for kind in kinds:
        i = rng.integers(k)
        a, b = pts[i], pts[(i + 1) % k]
        if kind == "repeat":
            q = a
        elif kind == "interior":
            q = rng.dirichlet(np.ones(k)) @ pts[:k]
        else:
            t = rng.uniform(0.1, 0.9)
            q = (1 - t) * a + t * b
            if kind == "off-edge":
                q = q + 1e-17 * np.array([b[1] - a[1], a[0] - b[0]])
        pts = np.insert(pts, rng.integers(len(pts) + 1), q, axis=0)
    return pts, kinds


def _assert_hull_is_qhulls(verts, hull):
    """The facets match qhull's as a set within 1e-12 and the extreme indices
    exactly; of a point repeated within 1e-12, whose copy qhull keeps varies
    with its processing order, the first copy is the extreme one."""
    normals, offsets, extreme = hull
    ref = ConvexHull(verts)
    first = (np.abs(verts[:, None] - verts[None]).max(axis=2) <= 1e-12).argmax(axis=1)
    assert sorted(extreme) == sorted(set(first[ref.vertices]))
    ours = np.hstack([normals, offsets[:, None]])
    theirs = np.hstack([ref.equations[:, :-1], -ref.equations[:, -1:]])
    gap = np.abs(ours[:, None, :] - theirs[None, :, :]).max(axis=2)
    assert len(ours) == len(theirs)
    assert gap.min(axis=1).max() <= 1e-12 and gap.min(axis=0).max() <= 1e-12


# the square with three points on one ray from the mean, in several orders:
# where the farthest, (1, 1), is listed between nearer ones, the corner
# there reverses, and it is the spike tip that stays while they drop
_SPIKE = np.array([[0.5, 0.5], [1.0, 1.0], [0.25, 0.25],
                   [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
_SPIKE_ORDERS = [[0, 1, 2, 3, 4, 5], [2, 1, 0, 3, 4, 5], [1, 0, 2, 3, 4, 5],
                 [3, 0, 1, 2, 4, 5], [5, 4, 3, 2, 1, 0], [1, 3, 2, 4, 0, 5]]


@pytest.mark.parametrize("seed", [*range(40),
                                  *(f"spike{i}" for i in range(len(_SPIKE_ORDERS)))])
def test_polygon_hull_and_fan_match_qhull_and_delaunay(seed):
    # the closed-form 2-d hull gives qhull's facets and extreme points, on
    # vertex lists and radial graphs, also with repeated, edge, interior and
    # near-edge points and with points on one ray from the mean; the fan
    # over the extreme points has Delaunay's moments
    from scipy.spatial import Delaunay

    if isinstance(seed, str):
        order = _SPIKE_ORDERS[int(seed[5:])]
        rng = np.random.default_rng(order)
        pts, kinds, center, k = _SPIKE[order], ["spike"], np.zeros(2), len(order)
    else:
        rng = np.random.default_rng(seed)
        k = int(rng.integers(3, 13))
        ang = np.sort(rng.uniform(0.0, 2 * np.pi, k))
        if np.max(np.diff(np.append(ang, ang[0] + 2 * np.pi))) >= np.pi:
            ang = 2 * np.pi * (np.arange(k) + rng.uniform(-0.3, 0.3, k)) / k
        oval = np.stack([np.cos(ang), np.sin(ang)], 1) * rng.uniform(0.3, 3.0, 2)
        oval = oval + rng.uniform(-2.0, 2.0, 2)
        pts, kinds = _with_degenerate_points(rng, oval)
        center = oval.mean(axis=0)
    vpoly = dm.VPolyBackend(pts, check=False)
    _assert_hull_is_qhulls(pts, vpoly._hull)
    rv = pts[Delaunay(pts).simplices]
    vol, mu, e2 = dm._simplex_moments(rv, np.abs(np.linalg.det(rv[:, 1:] - rv[:, :1])) / 2)
    got = vpoly.moments()
    assert abs(got[0] - vol) <= 1e-12
    assert np.abs(got[1] - mu).max() <= 1e-12
    assert np.abs(got[2] - (e2 - np.outer(mu, mu))).max() <= 1e-12
    radial = dm.RadialGraphBackend(center, pts - center,
                                   np.linalg.norm(pts - center, axis=1), check=False)
    _assert_hull_is_qhulls(radial.verts, radial._hull)
    if kinds:
        with pytest.raises(NotProperlyConvexError) as err:
            dm.ConvexDomain.from_vertices(pts)
        inner = set(range(len(pts))) - set(vpoly._hull[2])
        assert err.value.data["witness"]["non_extreme_indices"] == sorted(inner)
    else:
        dm.ConvexDomain.from_vertices(pts)
    line = rng.normal(size=2) + rng.uniform(-2, 2, (k, 1)) * rng.normal(size=2)
    for flat in (line, np.repeat(pts[:1], 3, axis=0)):
        with pytest.raises(NotProperlyConvexError):
            dm.ConvexDomain.from_vertices(flat)


def _qhull_polygon(normals, offsets, interior):
    """Vertices of a 2-d half-space list by qhull around an interior point,
    merged by a kd-tree within 1e-9 of their size (the first of each pair)."""
    from scipy.spatial import HalfspaceIntersection, cKDTree

    pts = HalfspaceIntersection(np.hstack([normals, -offsets[:, None]]),
                                interior).intersections
    rel = pts - interior
    pairs = cKDTree(rel).query_pairs(1e-9 * np.abs(rel).max(), output_type="ndarray")
    return pts[np.setdiff1d(np.arange(len(pts)), pairs[:, 1])]


def _halfspace_list(rng):
    """A 2-d half-space list around the origin, 3-60 rows at any scale: a
    polygon and extra rows of the kinds drawn (redundant, parallel,
    anti-parallel, duplicate and near-duplicate rows, and rows through a
    vertex that already has two facets)."""
    k = int(rng.integers(3, 49))
    ang = 2 * np.pi * (np.arange(k) + rng.uniform(-0.2, 0.2, k)) / k
    a = np.stack([np.cos(ang), np.sin(ang)], 1)
    b = rng.uniform(0.5, 2.0, k)
    for kind in ("redundant", "parallel", "anti-parallel", "duplicate",
                 "near-duplicate", "through-vertex"):
        for _ in range(int(rng.integers(1, 4)) if rng.random() < 0.5 else 0):
            i = rng.integers(len(a))
            if kind == "through-vertex":
                v = _qhull_polygon(a, b, np.zeros(2))
                j = rng.integers(len(v))
                on = np.abs(a @ v[j] - b) <= 1e-9
                mix = rng.uniform(0.2, 0.8) * a[on][0] + rng.uniform(0.2, 0.8) * a[on][-1]
                row = mix / np.linalg.norm(mix)
                off = row @ v[j]
            elif kind == "redundant":
                t = rng.uniform(0, 2 * np.pi)
                row = np.array([np.cos(t), np.sin(t)])
                off = (_qhull_polygon(a, b, np.zeros(2)) @ row).max() + rng.uniform(0.01, 1)
            elif kind == "parallel":
                row, off = a[i], b[i] * rng.choice([0.7, 1.3])
            elif kind == "anti-parallel":
                row, off = -a[i], rng.uniform(0.3, 2.0)
            elif kind == "duplicate":
                row, off = a[i], b[i]
            else:
                twist = rng.choice([0.0, 1e-15])
                row = a[i] + twist * np.array([-a[i, 1], a[i, 0]])
                off = b[i] * (1.0 + rng.choice([0.0, 1e-15, -1e-14]))
            if len(a) < 60:
                at = rng.integers(len(a) + 1)
                a, b = np.insert(a, at, row, axis=0), np.insert(b, at, off)
    scale = rng.uniform(0.5, 3.0, len(a))
    return a * scale[:, None], b * scale


@pytest.mark.parametrize("seed", range(50))
def test_halfspace_polygon_matches_qhull(seed):
    # four seeded lists per seed: the closed form gives qhull's vertices,
    # merged, within 1e-12 of their size and as many, counterclockwise from
    # angle -pi about their mean (about a given interior point for Dirichlet
    # polygons); an unbounded list raises with a recession direction, an
    # empty one raises
    rng = np.random.default_rng(700 + seed)
    for _ in range(4):
        normals, offsets = _halfspace_list(rng)
        want = _qhull_polygon(normals, offsets, np.zeros(2))
        for interior in (None, np.zeros(2)):
            got = dm._halfspace_vertices(normals, offsets, interior)
            c = got.mean(axis=0) if interior is None else interior
            assert len(got) == len(want)
            gap = np.abs(got[:, None] - want[None]).max(axis=2).min(axis=1).max()
            assert gap <= 1e-12 * np.abs(want).max()
            ang = np.arctan2(got[:, 1] - c[1], got[:, 0] - c[0])
            assert (np.diff(ang) > 0).all()
    unit = normals / np.linalg.norm(normals, axis=1)[:, None]
    arc = rng.uniform(0.0, 2 * np.pi) + np.sort(rng.uniform(0.0, np.pi - 0.05,
                                                            rng.integers(1, 12)))
    strip = unit[:1] * [[1.0], [-1.0]]
    for rows in (np.stack([np.cos(arc), np.sin(arc)], 1), strip):
        with pytest.raises(NotProperlyConvexError, match="unbounded") as err:
            dm.ConvexDomain.from_halfspaces(rows, rng.uniform(0.5, 2.0, len(rows)))
        d = err.value.data["witness"]
        assert abs(np.linalg.norm(d) - 1.0) <= 1e-12
        assert (rows @ d <= 1e-12).all()
    cut = normals[:1] * -1.0
    with pytest.raises(NotProperlyConvexError, match="empty"):
        dm.ConvexDomain.from_halfspaces(
            np.vstack([normals, cut]),
            np.append(offsets, -np.abs(want @ cut[0]).max() - 0.1))


def test_json_round_trip(any_domain):
    data = jsonio.loads(jsonio.dumps(any_domain.to_json()))
    dom2 = jsonio.domain_from_dict(data)
    assert dom2.backend.kind == any_domain.backend.kind
    assert dm.support_residual(any_domain, dom2, _circle(16)) < 1e-12


def test_json_rejects_nonfinite():
    with pytest.raises(InputFormatError):
        jsonio.loads('{"chart": [0, 0, NaN]}')
    with pytest.raises(InputFormatError):
        jsonio.loads('{"chart": [0, 0, 1e999]}')
    with pytest.raises(InputFormatError):
        jsonio.loads('{"backend": {"shape": [[1.0, 0.0], [0.0, -1e400]]}}')
    # an integer of any length is exact, not a float that overflows
    big = 10 ** 399
    assert jsonio.loads(f'{{"chart": [0, {big}]}}') == {"chart": [0, big]}


def test_transform_chart_equivariance(square, rng):
    # transforming and recharting preserves the projective set
    m = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    a = ProjTransform(m)
    moved = square.transform(a)
    back = moved.transform(a.inverse(), chart=square.chart)
    got = {tuple(np.round(v, 8)) for v in back.backend.vertices()}
    want = {tuple(np.round(v, 8)) for v in square.backend.vertices()}
    assert got == want


def _circle(k):
    ang = 2 * np.pi * np.arange(k) / k
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


# ---------------------------------------------------------------------------
# projective maps as properties: every backend, chart dimensions 1-3


@st.composite
def _mapped_domains(draw):
    """A domain of any backend and a projective map near the identity."""
    kind = draw(st.sampled_from(["hpoly", "vpoly", "ellipsoid", "radialgraph"]))
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dom = random_domain(kind, n, rng)
    m = np.eye(n + 1) + draw(st.floats(0.0, 0.4)) * rng.normal(size=(n + 1, n + 1))
    assume(abs(np.linalg.det(m)) > 0.05)
    return dom, ProjTransform(m), rng


def _directions(n):
    return dm._sphere_directions(n, 24)


@settings(max_examples=60, deadline=None)
@given(_mapped_domains())
def test_transform_then_inverse_is_the_domain(case):
    dom, g, _ = case
    back = dom.transform(g).transform(g.inverse(), chart=dom.chart)
    assert back.backend.kind == dom.backend.kind
    assert dm.support_residual(dom, back, _directions(dom.dim)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(_mapped_domains())
def test_hilbert_distance_is_projectively_invariant(case):
    dom, g, rng = case
    c = dom.interior_point()
    x, y = c + 0.8 * (dom.random_interior(rng, size=2) - c)
    moved = dom.transform(g)

    def image(p):
        return ProjPoint(g.matrix @ dom.chart.lift(p), canonicalize=False)

    d = hb.distance(dom, x, y)
    assert hb.distance(moved, image(x), image(y)) == pytest.approx(d, rel=1e-9, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(_mapped_domains())
def test_dual_of_the_image_is_the_image_of_the_dual(case):
    # dual(g Omega) = g^-T dual(Omega), compared in the chart of the first
    dom, g, _ = case
    d1 = dm.dual_domain(dom.transform(g))
    d2 = dm.dual_domain(dom).transform(ProjTransform(np.linalg.inv(g.matrix).T))
    scale = 1.0 + dm.validate(d1).bounding_radius
    assert dm.support_residual(d1, d2, _directions(dom.dim)) < 1e-9 * scale


def test_radial_graph_center_outside_its_surface_is_refused():
    # three points of the oval x^2 + 4y^2 = 1 whose triangle misses (0.6, 0),
    # by a margin of about -0.017 there
    ang = np.array([0.3, 2.2, 4.1])
    pts = np.stack([np.cos(ang), 0.5 * np.sin(ang)], axis=1)
    c = np.array([0.6, 0.0])
    with pytest.raises(NotProperlyConvexError, match="center") as err:
        dm.ConvexDomain.radial_graph(c, pts - c, np.linalg.norm(pts - c, axis=1))
    assert err.value.data["margin"] == pytest.approx(-0.017, abs=1e-3)


@pytest.mark.parametrize("form", ["vpoly", "radialgraph"])
def test_chart_that_cuts_the_domain_raises(form):
    # a chart hyperplane through a regular polygon splits its vertices
    # between the two sides of the chart: there is no image domain
    rng = np.random.default_rng(17)
    for k in range(3, 9):
        dom = dm.disk_polygon(k)
        if form == "vpoly":
            dom = dm.ConvexDomain.from_vertices(dom.backend.vertices())
        for _ in range(4):
            phi = rng.uniform(0.0, 2 * np.pi)
            offset = rng.uniform(-0.9, 0.9) * np.cos(np.pi / k)   # inside the inradius
            chart = AffineChart([np.cos(phi), np.sin(phi), -offset])
            with pytest.raises(AtInfinityError):
                dom.in_chart(chart)


@pytest.mark.parametrize("m1", [2, 3, 4])
def test_simplex_moments_stack_rows_match_one_set(m1, rng):
    # a stack of simplex sets gives, bit for bit, the moments of each set alone
    rv = rng.normal(size=(7, 30, m1, m1)) * rng.uniform(0.1, 10.0, (7, 30, 1, 1))
    measures = rng.uniform(0.1, 1.0, (7, 30))
    stacked = dm._simplex_moments(rv, measures)
    for i in range(len(rv)):
        one = dm._simplex_moments(rv[i], measures[i])
        for a, b in zip(one, stacked):
            assert np.array_equal(a, b[i])


@pytest.mark.parametrize("build, error, message", [
    (lambda: dm.ConvexDomain.from_halfspaces([[1.0], [2.0]], [1.0, 1.0]),
     NotProperlyConvexError, "half-space data is unbounded"),
    (lambda: dm.ConvexDomain.from_halfspaces([[1.0], [-1.0]], [-1.0, -1.0]),
     NotProperlyConvexError, "empty or flat half-space intersection"),
    (lambda: dm.ConvexDomain.from_halfspaces([[0.0, 0.0], [1.0, 0.0]], [1.0, 1.0]),
     InvalidInputError, "zero normal vector"),
    (lambda: dm.ConvexDomain.from_halfspaces([[1.0, 0.0]], [1.0, 2.0]),
     InvalidInputError, "normals/offsets length mismatch"),
    (lambda: dm.ConvexDomain.from_vertices([[0.5], [0.5]]),
     NotProperlyConvexError, "1-d vertex list must be two distinct points"),
    (lambda: dm.ConvexDomain.from_vertices([[0.0, 0.0], [1.0, 0.0]]),
     NotProperlyConvexError, "too few vertices for an open set"),
    (lambda: dm.ConvexDomain.ellipsoid([0.0, 0.0], [[1.0, 0.0], [0.0, -1.0]]),
     NotProperlyConvexError, "ellipsoid shape matrix not positive-definite"),
    (lambda: dm.ConvexDomain.radial_graph(
        [0.0, 0.0], [[1.0, 0.0], [0.0, 0.0], [-1.0, -1.0]], [1.0, 1.0, 1.0]),
     InvalidInputError, "zero direction in radial graph"),
    (lambda: dm.ConvexDomain.radial_graph(
        [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [1.0, 0.0, 1.0]),
     NotProperlyConvexError, "radial graph radii must be positive"),
    (lambda: dm.ConvexDomain.radial_graph([0.0, 0.0, 0.0], np.eye(3), [1.0, 1.0, 1.0]),
     InvalidInputError, "simplices required for radial graphs off the circle"),
], ids=["unbounded-1d", "empty-1d", "zero-normal", "length-mismatch",
        "coincident-1d", "too-few-vertices", "indefinite-ellipsoid",
        "zero-direction", "zero-radius", "radial-3d-no-simplices"])
def test_malformed_domain_data_raises(build, error, message):
    with pytest.raises(GeometryError) as err:
        build()
    assert err.type is error and str(err.value) == message
