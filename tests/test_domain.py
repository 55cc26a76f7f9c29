import numpy as np
import pytest

from projconvex import domain as dm
from projconvex import jsonio
from projconvex.errors import (
    DegenerateChordError,
    GeometryError,
    InputFormatError,
    InvalidInputError,
    NotOnFrontierError,
    NotProperlyConvexError,
)
from projconvex.projgeom import ProjTransform


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


@pytest.mark.parametrize("make", [
    dm.unit_disk, dm.square_domain, dm.triangle_domain,
    lambda: dm.disk_polygon(24),
    lambda: dm.ConvexDomain.ellipsoid(np.zeros(3), np.diag([1.0, 2.0, 0.5])),
    lambda: dm.ConvexDomain.from_halfspaces(
        np.vstack([np.eye(3), -np.eye(3)]), np.ones(6)),
    lambda: dm.orthant_domain(1), lambda: dm.orthant_domain(3)])
def test_stacked_chord_and_margin_match_rows(make, rng):
    # an (N, n) stack gives, row by row, the one-line floats
    dom = make()
    b = dom.backend
    xs = dom.random_interior(rng, size=40)
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
    us[7] = 0.0
    with pytest.raises(GeometryError) as alone:
        b.chord_params(xs[7], us[7])
    with pytest.raises(alone.type):
        b.chord_params(xs, us)


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
        try:
            moved = square.transform(a)
            d1 = dm.dual_domain(moved)
        except (NotProperlyConvexError, Exception):
            continue
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
    xs = rng.uniform(-1.5, 1.5, size=(12, 2))
    inner = rng.uniform(-0.9, 0.9, size=(12, 2))
    us = rng.normal(size=(12, 2))
    for b in (vpoly, radial):
        for x, y, u in zip(xs, inner, us):
            assert b.contains_margin(x) == pytest.approx(hpoly.contains_margin(x),
                                                         abs=1e-14)
            assert np.allclose(b.chord_params(y, u), hpoly.chord_params(y, u),
                               rtol=1e-13, atol=0.0)
            assert b.support(u) == pytest.approx(hpoly.support(u), abs=1e-14)
            assert np.allclose(b.support_point(u), hpoly.support_point(u),
                               rtol=0.0, atol=1e-14)
        assert b.bounding_radius() == pytest.approx(np.sqrt(2.0), rel=1e-15)
        vol, mu, q = b.moments()
        assert vol == pytest.approx(ref_vol, rel=1e-14)
        assert np.allclose(mu, ref_mu, atol=1e-15)
        assert np.allclose(q, ref_q, atol=1e-15)
        assert len(b.boundary_flats()) == len(hpoly.boundary_flats()) == 4


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
