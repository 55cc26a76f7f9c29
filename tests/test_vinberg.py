from decimal import Decimal, localcontext
from fractions import Fraction
from math import factorial, sqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from projconvex import domain as dm, jsonio, vinberg as vb
from projconvex.config import TOL
from projconvex.errors import (
    ConvergenceFailureError,
    GeometryError,
    InvalidInputError,
    OutsideDualConeError,
)
from projconvex.projgeom import ProjPoint, ProjTransform, null_space

from conftest import boost, random_domain, random_orthogonal
from test_cli_golden import _cases as golden_cases


def orthant_volume(phi):
    n1 = len(phi)
    fact = 1
    for i in range(2, n1 + 1):
        fact *= i
    return 1.0 / (fact * np.prod(phi))


@pytest.mark.parametrize("n1", [2, 3, 4])
def test_orthant_closed_form(n1, rng):
    dom = dm.orthant_domain(n1 - 1)
    cone = dom.cone()
    for _ in range(20):
        phi = rng.uniform(0.3, 3.0, size=n1)
        res = vb.volume_functional(cone, phi)
        assert res.estimator == "exact" and res.error_bound == 0.0
        assert abs(res.value - orthant_volume(phi)) < 1e-12 * orthant_volume(phi)


def test_orthant_examples():
    assert abs(vb.volume_functional(dm.orthant_domain(1), [1.0, 1.0]).value
               - 0.5) < 1e-13
    assert abs(vb.volume_functional(dm.orthant_domain(2), [1.0, 2.0, 1.0]).value
               - 1.0 / 12.0) < 1e-14


def test_volume_homogeneity_exact(rng):
    dom = dm.orthant_domain(2)
    phi = rng.uniform(0.5, 2.0, size=3)
    base = vb.volume_functional(dom, phi).value
    for t in (0.5, 1.0, 2.0, 5.0):
        v = vb.volume_functional(dom, t * phi).value
        assert abs(v * t ** 3 - base) < 1e-12 * base


def test_volume_blow_up_toward_frontier():
    dom = dm.orthant_domain(1)
    phi0 = np.array([1.0, 1.0])
    psi = np.array([1.0, 0.0])  # vanishes on a frontier ray
    last = 0.0
    for t in (0.9, 0.99, 0.999, 0.9999, 0.9999999):
        v = vb.volume_functional(dom, (1 - t) * phi0 + t * psi).value
        assert v > last
        last = v
    assert last > 1e6


def test_outside_dual_cone_rejected():
    with pytest.raises(OutsideDualConeError):
        vb.volume_functional(dm.orthant_domain(1), [1.0, -0.5])
    with pytest.raises(OutsideDualConeError):
        vb.volume_functional(dm.unit_disk(), [1.0, 0.0, 0.5])


def test_quadrature_cross_check(rng):
    for dom in (dm.unit_disk(), dm.square_domain()):
        phi = np.array([0.2, -0.1, 1.0])
        exact = vb.volume_functional(dom, phi)
        mc = vb.volume_functional_quadrature(dom, phi, samples=40000, seed=11)
        assert mc.estimator == "quadrature" and mc.error_bound > 0
        assert abs(mc.value - exact.value) < 5 * mc.error_bound


def _fd_gradient(cone, phi, h=1e-6):
    n1 = len(phi)
    out = np.empty(n1)
    for i in range(n1):
        e = np.zeros(n1)
        e[i] = h
        out[i] = (vb.volume_functional(cone, phi + e).value
                  - vb.volume_functional(cone, phi - e).value) / (2 * h)
    return out


def test_gradient_against_finite_differences(rng):
    domains = [dm.orthant_domain(1), dm.orthant_domain(2), dm.unit_disk(),
               dm.square_domain(), dm.disk_polygon(16)]
    for dom in domains:
        cone = dom.cone()
        v_inf = dom.chart.infinity
        for _ in range(10):
            phi = v_inf + 0.3 * rng.normal(size=v_inf.size)
            if cone.dual_margin(phi) <= 0.05:
                continue
            g = vb.grad_volume(cone, phi)
            fd = _fd_gradient(cone, phi)
            assert np.linalg.norm(g - fd) < 1e-4 * np.linalg.norm(fd)


def test_gradient_closed_form_orthant():
    g = vb.grad_volume(dm.orthant_domain(1), [1.0, 1.0])
    assert np.allclose(g, [-0.5, -0.5], atol=1e-13)


def test_gradient_symmetry_round_cone():
    g = vb.grad_volume(dm.unit_disk(), [0.0, 0.0, 1.0])
    assert abs(g[0]) < 1e-12 and abs(g[1]) < 1e-12


def test_slice_centroid_examples():
    mu2 = vb.slice_centroid(dm.orthant_domain(1), [1.0, 1.0])
    assert np.allclose(mu2, [0.5, 0.5], atol=1e-13)
    mu3 = vb.slice_centroid(dm.orthant_domain(2), [1.0, 1.0, 1.0])
    assert np.allclose(mu3, [1 / 3] * 3, atol=1e-13)
    mu_disk = vb.slice_centroid(dm.unit_disk(), [0.0, 0.0, 2.0])
    assert abs(mu_disk[0]) < 1e-12 and abs(mu_disk[1]) < 1e-12


def test_slice_centroid_in_slice(rng):
    dom = dm.orthant_domain(2)
    cone = dom.cone()
    for _ in range(20):
        phi = rng.uniform(0.5, 2.0, size=3)
        mu = vb.slice_centroid(cone, phi)
        assert abs(phi @ mu - 1.0) < 1e-9
        assert cone.contains_vector(mu) > 0


def test_fiber_minimum_orthant():
    fm = vb.min_volume_on_fiber(dm.orthant_domain(1), [1.0, 1.0])
    assert np.allclose(fm.phi, [0.5, 0.5], atol=1e-9)
    assert abs(fm.value - 2.0) < 1e-9


def test_fiber_minimum_symmetry(rng):
    for n1 in (2, 3, 4):
        dom = dm.orthant_domain(n1 - 1)
        t = rng.uniform(0.5, 2.0)
        fm = vb.min_volume_on_fiber(dom, np.full(n1, t))
        assert np.ptp(fm.phi) < 1e-9
    fm = vb.min_volume_on_fiber(dm.unit_disk(), [0.0, 0.0, 1.0])
    assert abs(fm.phi[0]) < 1e-10 and abs(fm.phi[1]) < 1e-10


def test_fiber_minimum_rejects_outside():
    with pytest.raises(InvalidInputError):
        vb.min_volume_on_fiber(dm.orthant_domain(1), [1.0, -1.0])


def test_volume_strictly_convex_on_fibers(rng):
    dom = dm.orthant_domain(2)
    cone = dom.cone()
    q = np.array([1.0, 1.0, 1.0])
    basis = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
    for _ in range(30):
        phi0 = np.full(3, 1 / 3) + 0.08 * (rng.normal(size=2) @ basis)
        phi1 = np.full(3, 1 / 3) + 0.08 * (rng.normal(size=2) @ basis)
        if np.linalg.norm(phi0 - phi1) < 1e-3:
            continue
        vm = vb.volume_functional(cone, 0.5 * (phi0 + phi1)).value
        v0 = vb.volume_functional(cone, phi0).value
        v1 = vb.volume_functional(cone, phi1).value
        assert vm < 0.5 * (v0 + v1) - 1e-12


def test_gradient_parallel_at_minimum(rng):
    for dom in (dm.orthant_domain(2), dm.unit_disk()):
        cone = dom.cone()
        for _ in range(5):
            x = dom.random_interior(rng, margin=0.1)
            q = dom.chart.lift(x)
            fm = vb.min_volume_on_fiber(cone, q)
            g = vb.grad_volume(cone, fm.phi)
            cosang = abs(g @ q) / (np.linalg.norm(g) * np.linalg.norm(q))
            assert np.arccos(min(cosang, 1.0)) < 1e-6


def test_theta_examples():
    p = vb.theta(dm.orthant_domain(1), [0.5, 0.5])
    assert p.same_class(ProjPoint([1.0, 1.0]), tol=1e-12)
    p2 = vb.theta(dm.unit_disk(), [0.0, 0.0, 1.0])
    assert p2.same_class(ProjPoint([0.0, 0.0, 1.0]), tol=1e-12)


def test_theta_equivariance():
    # diagonal automorphisms of the orthant cone
    dom = dm.orthant_domain(2)
    cone = dom.cone()
    from projconvex.projgeom import DualFunctional

    a = ProjTransform(np.diag([2.0, 1.0, 0.5]))
    for phi in ([1.0, 1.0, 1.0], [0.7, 1.3, 0.9]):
        phi = np.asarray(phi)
        lhs = vb.theta(cone, a.dual_apply(DualFunctional(phi)).coeffs)
        rhs = a.apply(vb.theta(cone, phi / np.linalg.norm(phi)))
        assert lhs.same_class(rhs, tol=1e-7)
    # boosts of the round cone
    disk = dm.unit_disk()
    b = ProjTransform(boost(0.6))
    phi = np.array([0.1, -0.2, 1.0])
    lhs = vb.theta(disk, b.dual_apply(DualFunctional(phi)).coeffs)
    rhs = b.apply(vb.theta(disk, phi / np.linalg.norm(phi)))
    assert lhs.same_class(rhs, tol=1e-7)


def test_theta_inverse_round_trip(rng):
    for dom in (dm.orthant_domain(1), dm.orthant_domain(2), dm.unit_disk()):
        cone = dom.cone()
        for _ in range(25):
            x = dom.random_interior(rng)
            p = dom.chart.from_chart(x)
            phi = vb.theta_inverse(cone, p)
            assert abs(vb.volume_functional(cone, phi).value - 1.0) < 1e-6
            back = vb.theta(cone, phi)
            assert np.linalg.norm(back.coords - p.coords) < 1e-6


def test_theta_inverse_orthant_example():
    phi = vb.theta_inverse(dm.orthant_domain(1), ProjPoint([1.0, 1.0]))
    assert abs(phi[0] - phi[1]) < 1e-9


def test_characteristic_point_orthant(rng):
    dom = dm.orthant_domain(1)
    cone = dom.cone()
    cp = vb.characteristic_point(cone, np.array([1.0, 1.0]))
    assert np.allclose(cp, [1 / np.sqrt(2)] * 2, atol=1e-10)
    for _ in range(50):
        a = rng.uniform(0.1, 0.9)
        q = np.array([a, 1 - a])
        cp = vb.characteristic_point(cone, q)
        assert abs(cp[0] * cp[1] - 0.5) < 1e-8


def test_characteristic_point_equivariance(rng):
    dom = dm.orthant_domain(1)
    cone = dom.cone()
    for _ in range(10):
        s = rng.uniform(0.5, 2.0)
        a = np.diag([s, 1.0 / s])
        q = np.array([rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)])
        lhs = vb.characteristic_point(cone, a @ q)
        rhs = a @ vb.characteristic_point(cone, q)
        rhs = rhs / np.linalg.norm(rhs) * np.linalg.norm(rhs)
        # both on the surface along the same ray
        assert np.linalg.norm(lhs / np.linalg.norm(lhs)
                              - rhs / np.linalg.norm(rhs)) < 1e-10
        assert abs(np.linalg.norm(lhs) - np.linalg.norm(rhs)) < 1e-8


def test_characteristic_surface_consistency(rng):
    for dom in (dm.orthant_domain(1), dm.unit_disk()):
        for _ in range(10):
            q = dom.chart.lift(dom.random_interior(rng, margin=0.05))
            point = vb.characteristic_point(dom, q)
            # V at the fiber minimum is one on the surface, by homogeneity
            assert abs(vb.min_volume_on_fiber(dom, point).value - 1.0) < 1e-9
            assert np.linalg.norm(point) > 0


def test_spherical_center_round_cone(disk):
    sc = vb.spherical_center(disk)
    assert np.linalg.norm(sc.center.coords - np.array([0, 0, 1.0])) < 1e-9
    assert np.allclose(sc.rotation.matrix @ sc.center.coords,
                       disk.chart.infinity, atol=1e-9)


def test_spherical_center_orthant():
    for n1 in (2, 3, 4):
        dom = dm.orthant_domain(n1 - 1)
        sc = vb.spherical_center(dom)
        assert np.linalg.norm(sc.center.coords
                              - np.ones(n1) / np.sqrt(n1)) < 1e-8


def test_spherical_center_equivariance(rng):
    dom = dm.orthant_domain(2)
    base = vb.spherical_center(dom).center.coords
    for _ in range(8):
        q = random_orthogonal(rng, 3)
        moved = dom.transform(ProjTransform(q))
        sc = vb.spherical_center(moved)
        expect = q @ base
        diff = min(np.linalg.norm(sc.center.coords - expect),
                   np.linalg.norm(sc.center.coords + expect))
        assert diff < 1e-7


STALL_TRIANGLE = [[0.705249, 0.081278], [-0.385778, 1.123579],
                  [-0.98361, -0.767561]]


def test_fiber_minimum_without_stall():
    # a backtracking search on V stalled here for 80 iterations at 7.9e-10
    dom = dm.ConvexDomain.from_vertices(STALL_TRIANGLE)
    q = np.array([-0.155531566706, 0.109017167016, 0.981796918438])
    fm = vb.min_volume_on_fiber(dom, q)
    assert fm.iterations <= 10
    assert fm.residual < 1e-12
    assert np.linalg.norm(fm.centroid - q) < 1e-12


# Centers found by the earlier finite-difference Newton solver, whose
# residuals were 1e-15 (triangle), 2e-16 (pentagon) and 9e-12 (ellipse).
REFERENCE_CENTERS = {
    "triangle": (
        dm.ConvexDomain.from_vertices(STALL_TRIANGLE),
        [-0.15553148846914033, 0.10901723095290425, 0.9817969237321611]),
    "skewed pentagon": (
        dm.ConvexDomain.from_vertices([[1.1, 0.2], [0.3, 0.9], [-0.8, 0.6],
                                       [-0.7, -0.5], [0.4, -0.7]]),
        [0.030086344928736714, 0.060471972620888624, 0.9977163687021315]),
    "off-centre ellipse": (
        dm.ConvexDomain.ellipsoid([0.3, -0.2], [[1.5, 0.4], [0.4, 0.8]]),
        [0.15893031609061872, -0.05908720915881638, 0.9855200943365683]),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_CENTERS))
def test_spherical_center_reference_values(name):
    dom, expect = REFERENCE_CENTERS[name]
    sc = vb.spherical_center(dom)
    assert np.linalg.norm(sc.center.coords - expect) < 1e-10
    assert sc.residual <= TOL.center_residual
    assert sc.iterations <= 10      # an inexact Hessian takes about 50


@pytest.mark.parametrize("name", sorted(REFERENCE_CENTERS))
def test_center_check_measures_the_declined_step(name):
    # the final fiber check starts at the center's own iterate and takes no
    # step on these domains; its residual is the chart length of the Newton
    # step it declined, a measured quantity, never a bare 0
    sc = vb.spherical_center(REFERENCE_CENTERS[name][0])
    assert 0.0 < sc.residual <= TOL.center_residual


def _random_domains(rng):
    """One random domain of each backend, in chart dimensions 1-3."""
    ang = 2 * np.pi * (np.arange(6) + rng.uniform(-0.25, 0.25, 6)) / 6
    hexagon = dm.ConvexDomain.from_halfspaces(
        np.stack([np.cos(ang), np.sin(ang)], 1), rng.uniform(0.8, 1.2, 6))
    cube = dm.ConvexDomain.from_halfspaces(
        np.vstack([np.eye(3), -np.eye(3)]) @ random_orthogonal(rng, 3).T,
        rng.uniform(0.6, 1.4, 6))
    segment = dm.ConvexDomain.from_vertices(
        [[rng.uniform(-1.0, -0.2)], [rng.uniform(0.3, 1.5)]])
    triangle = dm.ConvexDomain.from_vertices(rng.uniform(-1, 1, (3, 2))
                                             + [[3, 0], [0, 0], [0, 3]])
    a = rng.normal(size=(3, 3))
    ellipsoid = dm.ConvexDomain.ellipsoid(rng.uniform(-0.4, 0.4, 3),
                                          a @ a.T + np.eye(3))
    ang = np.sort(rng.uniform(0, 2 * np.pi, 9))
    pts = np.stack([1.2 * np.cos(ang), 0.7 * np.sin(ang)], 1)
    c = rng.uniform(-0.2, 0.2, 2)
    r = np.linalg.norm(pts - c, axis=1)
    radial = dm.ConvexDomain.radial_graph(c, (pts - c) / r[:, None], r)
    return [hexagon, cube, segment, triangle, ellipsoid, radial]


def test_spherical_center_is_its_own_fiber_direction(rng):
    kinds = set()
    for dom in _random_domains(rng):
        kinds.add(dom.backend.kind)
        sc = vb.spherical_center(dom)
        assert sc.residual <= TOL.center_residual
        q = sc.center.coords
        fm = vb.min_volume_on_fiber(dom, q)
        for w in (fm.phi, fm.centroid):
            cos = abs(w @ q) / np.linalg.norm(w)
            assert np.sqrt(max(1.0 - cos * cos, 0.0)) < 1e-9
    assert kinds == {"hpoly", "vpoly", "ellipsoid", "radialgraph"}


def test_spherical_center_unconverged_raises(monkeypatch):
    dom = REFERENCE_CENTERS["triangle"][0]
    monkeypatch.setattr(vb, "_CENTER_ITERATIONS", 1)
    with pytest.raises(ConvergenceFailureError):
        vb.spherical_center(dom)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quadric_closed_forms_match_newton(n):
    # an ellipsoid cone's fiber minimum, its value, the characteristic point
    # and the spherical center against Newton run on the same cone
    rng = np.random.default_rng(27 + n)
    dom = random_domain("ellipsoid", n, rng)
    cone = dom.cone()
    v_inf = dom.chart.infinity

    def close(a, b):
        return np.linalg.norm(a - b) <= 1e-11 * np.linalg.norm(b)

    for x in dom.random_interior(rng, size=10, margin=0.05):
        q = dom.chart.lift(x)
        q = q / np.linalg.norm(q)
        v, data, _, _ = vb._newton(cone, v_inf / (v_inf @ q), null_space(q[None, :]),
                                   0.0, vb._FIBER_ITERATIONS)
        fm = vb.min_volume_on_fiber(cone, q)
        assert fm.iterations == 0 and close(fm.phi, v) and close(fm.value, data.volume)
        assert close(vb.characteristic_point(cone, q), data.volume ** (-1.0 / (n + 1)) * q)
    v, _, _, _ = vb._newton(cone, v_inf, np.eye(n + 1), n + 1.0, vb._CENTER_ITERATIONS)
    sc = vb.spherical_center(dom)
    assert sc.iterations == 0 and sc.residual <= TOL.center_residual
    assert close(sc.center.coords, v / np.linalg.norm(v))


def test_quadric_fiber_solves_next_to_the_frontier(disk):
    # 1e-9 from the circle, where Newton stalled
    q = disk.chart.lift((1.0 - 1e-9) * np.array([0.6, 0.8]))
    fm = vb.min_volume_on_fiber(disk, q)
    assert fm.iterations == 0
    assert np.linalg.norm(fm.centroid - q) <= 1e-6 * np.linalg.norm(q)


def test_fiber_newton_iterations_are_bounded():
    # full Newton steps below a decrement of 1/4: at most 10 iterations at
    # these points, where steps damped by 1/(1 + lambda) took 13 to 15
    for dom in (dm.square_domain(), dm.orthant_domain(3), dm.disk_polygon(24)):
        rng = np.random.default_rng(1)
        for x in dom.random_interior(rng, size=60, margin=0.05):
            assert vb.min_volume_on_fiber(dom, dom.chart.lift(x)).iterations <= 11


# ---------------------------------------------------------------------------
# lockstep fiber solves and the cached cone constants

STACK_DOMAINS = _random_domains(np.random.default_rng(2024))
STACK_KINDS = ["hexagon", "cube", "segment", "triangle", "ellipsoid", "radial"]


@st.composite
def _interior_rays(draw, dom, k_max=8):
    """Raw vectors of random length over interior chart points: each a
    fraction of the way from the interior point to the frontier."""
    c = dom.interior_point()
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    rays = []
    for _ in range(draw(st.integers(1, k_max))):
        u = np.array(draw(st.lists(unit, min_size=dom.dim, max_size=dom.dim)))
        if np.linalg.norm(u) < 1e-3:
            u = np.eye(dom.dim)[0]
        _, t_hi = dom.backend.chord_params(c, u)
        x = c + draw(st.floats(0.0, 0.95)) * t_hi * u
        rays.append(draw(st.floats(0.2, 5.0)) * dom.chart.lift(x))
    return np.array(rays)


@pytest.mark.parametrize("index", range(len(STACK_DOMAINS)), ids=STACK_KINDS)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_characteristic_points_match_loop(index, data):
    # every row bit for bit the one-point solve, in chart dimensions 1-3
    dom = STACK_DOMAINS[index]
    qs = data.draw(_interior_rays(dom))
    pts = vb.characteristic_points(dom, qs)
    for q, p in zip(qs, pts):
        assert np.array_equal(p, vb.characteristic_point(dom, q))


@pytest.mark.parametrize("index", range(len(STACK_DOMAINS)), ids=STACK_KINDS)
def test_characteristic_rows_give_supporting_tangents(index, rng):
    # l = phi / t at p = t q: l.p = 1, every other point y of the surface has
    # l.y >= 1, and l is the one-point fiber minimizer scaled by 1 / t
    dom = STACK_DOMAINS[index]
    qs = dom.chart.lift_many(dom.random_interior(rng, size=12))
    pts, tangents, ok = vb._characteristic_rows(dom.cone(), qs)
    assert ok.all()
    pairing = tangents @ pts.T
    assert np.allclose(np.diag(pairing), 1.0, rtol=0, atol=1e-12)
    assert (pairing >= 1.0 - 1e-12).all()
    for q, p, tangent in zip(qs, pts, tangents):
        fm = vb.min_volume_on_fiber(dom, q / np.linalg.norm(q))
        t = np.linalg.norm(p)
        assert np.allclose(tangent, fm.phi / t, rtol=1e-12, atol=0)


def test_characteristic_points_raise_the_first_failing_row(square):
    # the disk's closed form solves next to its frontier, the square's Newton
    # does not solve next to a vertex
    good = square.chart.lift([0.2, -0.1])
    outside = square.chart.lift([1.5, 0.0])                   # invalid input
    stalls = square.chart.lift((1.0 - 1e-9) * np.array([1.0, 1.0]))  # no convergence
    with pytest.raises(ConvergenceFailureError):
        vb.characteristic_point(square, stalls)
    with pytest.raises(InvalidInputError):
        vb.characteristic_points(square, [good, outside, stalls])
    with pytest.raises(ConvergenceFailureError):
        vb.characteristic_points(square, [good, stalls, outside])
    pts, _, ok = vb._characteristic_rows(square.cone(), np.array([stalls, good, outside]))
    assert ok.tolist() == [False, True, False]
    assert np.isnan(pts[[0, 2]]).all()
    assert np.array_equal(pts[1], vb.characteristic_point(square, good))


def _fiber_starts(dom, rng, size=7):
    """Unit interior rays and the chart functional scaled into each fiber."""
    qs = dom.chart.lift_many(dom.random_interior(rng, size=size))
    qs = qs / np.linalg.norm(qs, axis=1)[:, None]
    return qs, dom.chart.infinity / (qs @ dom.chart.infinity)[:, None]


def _lockstep_rows_match_runs(cone, v0, basis, row_bases,
                              max_iter=vb._FIBER_ITERATIONS):
    """Run `_newton` on the stack and on each row alone with its own basis;
    every row's iterate, slice data, iteration count and declined step must
    be the same floats.  Returns the stack's result."""
    v, data, its, declined = vb._newton(cone, v0, basis, 0.0, max_iter)
    for i, b in enumerate(row_bases):
        v1, d1, it1, dec1 = vb._newton(cone, v0[i], b, 0.0, max_iter)
        assert np.array_equal(v[i], v1) and its[i] == it1
        assert np.array_equal(declined[i], dec1)
        assert data.volume[i] == d1.volume
        assert np.array_equal(data.centroid[i], d1.centroid)
        assert np.array_equal(data.second_moment[i], d1.second_moment)
    return v, its, declined


def test_lockstep_newton_rows_match_one_problem_runs(rng):
    # rows that stop at different iterations (max_iter cuts some)
    dom = STACK_DOMAINS[3]
    cone = dom.cone()
    qs, v0 = _fiber_starts(dom, rng)
    for max_iter in (0, 3, 80):
        _lockstep_rows_match_runs(cone, v0, vb._fiber_bases(qs),
                                  [null_space(q[None, :]) for q in qs], max_iter)


def test_lockstep_newton_singular_row(rng, monkeypatch):
    # a zero basis makes row 2's Hessian 0: its step solve fails, alone as
    # in the stack, so it stops at iteration 1 with no declined step, and
    # the stack solves its other rows one at a time, to the same floats
    dom = STACK_DOMAINS[3]
    qs, v0 = _fiber_starts(dom, rng)
    basis = vb._fiber_bases(qs)
    basis[2] = 0.0
    row_bases = [null_space(q[None, :]) for q in qs]
    row_bases[2] = basis[2]
    v, its, declined = _lockstep_rows_match_runs(dom.cone(), v0, basis, row_bases)
    assert its[2] == 1 and not declined[2].any() and np.array_equal(v[2], v0[2])
    assert (its[[0, 1, 3, 4, 5, 6]] > 1).all()
    # a stopped row solves the identity: only iteration 1's batch fails and
    # falls back to one solve per row, and every later iteration is one batch
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append(1) or solve(*a))
    vb._newton(dom.cone(), v0, basis, 0.0, vb._FIBER_ITERATIONS)
    assert len(calls) == its.max() + len(v0)


def _refuse_slices(monkeypatch, refused):
    """Make `_slice_exact` raise OutsideDualConeError, as for a functional
    outside the dual cone, on each functional v with refused(v); a stack's
    error lists its refused rows."""
    real = vb._slice_exact

    def fake(cone, v):
        bad = [refused(row) for row in np.atleast_2d(v)]
        if any(bad):
            raise OutsideDualConeError("refused", rows=np.flatnonzero(bad).tolist())
        return real(cone, v)

    monkeypatch.setattr(vb, "_slice_exact", fake)


def test_lockstep_newton_halves_refused_steps_as_one_problem_runs(rng, monkeypatch):
    # every step of row 0 is refused, so it halves to exhaustion at its first
    # iteration; row 1 may not leave a ball about its start of half its first
    # step's length, so its steps halve at the ball's edge
    dom = STACK_DOMAINS[3]
    cone = dom.cone()
    qs, v0 = _fiber_starts(dom, rng)
    b1 = null_space(qs[1][None, :])
    radius = 0.5 * np.linalg.norm(vb._newton(cone, v0[1], b1, 0.0, 1)[0] - v0[1])

    def refused(v):   # a row's iterates stay on its fiber v . q = 1
        if abs(v @ qs[0] - 1.0) < 1e-9:
            return not np.array_equal(v, v0[0])
        return abs(v @ qs[1] - 1.0) < 1e-9 and np.linalg.norm(v - v0[1]) > radius

    _refuse_slices(monkeypatch, refused)
    v, its, declined = _lockstep_rows_match_runs(
        cone, v0, vb._fiber_bases(qs), [null_space(q[None, :]) for q in qs])
    assert its[0] == 1 and not declined[0].any() and np.array_equal(v[0], v0[0])
    assert 0.0 < np.linalg.norm(v[1] - v0[1]) <= radius


def test_lockstep_newton_backtracks_as_one_problem_runs(rng, monkeypatch):
    # F is raised to inf outside a ball about row 1's start of half its
    # first step's length, so that step, whose decrement is above
    # _FULL_STEP, halves into the ball; the stack must halve it alike
    dom = STACK_DOMAINS[3]
    cone = dom.cone()
    qs, v0 = _fiber_starts(dom, rng)
    b1 = null_space(qs[1][None, :])
    assert vb._newton_step(v0[1], vb._slice_exact(cone, v0[1]), b1, 0.0)[0] \
        >= vb._FULL_STEP
    radius = 0.5 * np.linalg.norm(vb._newton(cone, v0[1], b1, 0.0, 1)[0] - v0[1])
    objective = vb._objective

    def raised(v, volume, ridge):   # a row's iterates stay on its fiber
        far = ((np.abs(v @ qs[1] - 1.0) < 1e-9)
               & (np.linalg.norm(v - v0[1], axis=-1) > radius))
        return np.where(far, np.inf, objective(v, volume, ridge))

    monkeypatch.setattr(vb, "_objective", raised)
    bases = vb._fiber_bases(qs)
    row_bases = [null_space(q[None, :]) for q in qs]
    v, _, _ = _lockstep_rows_match_runs(cone, v0, bases, row_bases, 1)
    assert 0.0 < np.linalg.norm(v[1] - v0[1]) <= radius
    _lockstep_rows_match_runs(cone, v0, bases, row_bases)


def test_characteristic_rows_drop_a_failed_start(rng, monkeypatch):
    # a row whose starting slice fails leaves the stack: it comes back not
    # ok, and the other rows' points are unchanged
    dom = STACK_DOMAINS[3]
    cone = dom.cone()
    qs = dom.chart.lift_many(dom.random_interior(rng, size=5))
    pts, _, ok = vb._characteristic_rows(cone, qs)
    q2 = qs[2] / np.linalg.norm(qs[2])
    _refuse_slices(monkeypatch, lambda v: abs(v @ q2 - 1.0) < 1e-9)
    pts2, _, ok2 = vb._characteristic_rows(cone, qs)
    assert ok.all() and ok2.tolist() == [True, True, False, True, True]
    assert np.isnan(pts2[2]).all()
    assert np.array_equal(np.delete(pts2, 2, axis=0), np.delete(pts, 2, axis=0))


def test_slice_stack_lists_failing_rows(disk, square):
    # on the disk a functional with an unbounded slice, on the square one
    # negative at the cone's extreme rays
    for dom, bad in ((disk, [1.0, 0.0, 0.0]), (square, -square.chart.infinity)):
        cone = dom.cone()
        good = dom.chart.infinity
        with pytest.raises(OutsideDualConeError):
            vb._slice_exact(cone, np.asarray(bad))
        with pytest.raises(OutsideDualConeError) as exc:
            vb._slice_exact(cone, np.array([good, bad, good, bad]))
        assert exc.value.data["rows"] == [1, 3]


def _reference_margin(cone, v):
    """dual_margin as computed before its constants were cached."""
    b, chart = cone.domain.backend, cone.domain.chart
    if b.kind == "ellipsoid":
        mhalf = np.linalg.cholesky(b._minv)
        beta = chart.frame.T @ v
        lo = (float(chart.infinity @ v) + float(beta @ b.center)
              - float(np.linalg.norm(mhalf.T @ beta)))
        return lo / np.sqrt(1.0 + b.bounding_radius() ** 2)
    lifts = chart.lift_many(b.vertices())
    return float(np.min((lifts @ v) / np.linalg.norm(lifts, axis=1)))


@pytest.mark.parametrize("index", range(len(STACK_DOMAINS)), ids=STACK_KINDS)
def test_cached_cone_constants_change_no_result(index, rng):
    # a fresh cone computes its constants on the call, a warm one reuses them
    dom = STACK_DOMAINS[index]
    warm = dom.cone()
    vs = dom.chart.infinity + 0.1 * rng.normal(size=(6, dom.dim + 1))
    stack = warm.dual_margin(vs)
    for v, m in zip(vs, stack):
        assert dom.cone().dual_margin(v) == warm.dual_margin(v) == m \
            == _reference_margin(dom.cone(), v)
        if m > 0:
            a, b = vb._slice_exact(dom.cone(), v), vb._slice_exact(warm, v)
            assert a.volume == b.volume and a.slice_area == b.slice_area
            assert np.array_equal(a.centroid, b.centroid)
            assert np.array_equal(a.second_moment, b.second_moment)


def test_contains_vector_stack_matches_rows(rng):
    for dom in STACK_DOMAINS:
        cone = dom.cone()
        ws = rng.normal(size=(9, dom.dim + 1))
        ws[0] = 0.0                            # no chart point at all
        ws[1] = dom.chart.lift(dom.interior_point())
        got = cone.contains_vector(ws)
        assert [cone.contains_vector(w) for w in ws] == got.tolist()
        assert got[0] == -np.inf and got[1] > 0


# ---------------------------------------------------------------------------
# polytope slices against rational arithmetic


def _exact_det(rows):
    """Determinant of a square matrix of Fractions by exact elimination."""
    m = [list(r) for r in rows]
    det = Fraction(1)
    for i in range(len(m)):
        p = next((r for r in range(i, len(m)) if m[r][i] != 0), None)
        if p is None:
            return Fraction(0)
        if p != i:
            m[i], m[p], det = m[p], m[i], -det
        det *= m[i][i]
        for r in range(i + 1, len(m)):
            f = m[r][i] / m[i][i]
            m[r] = [a - f * b for a, b in zip(m[r], m[i])]
    return det


def _exact_slice(cone, v):
    """Volume, slice area, centroid and E[x x^T] of the unit slice of v over
    the cone's lifted triangulation, in rational arithmetic: each roof simplex
    has vertices p_j / <v, p_j>; cone volumes come from their determinants,
    the area from Gram determinants (square roots to 50 digits), and the
    moment weights from the roof simplices projected to a coordinate plane.
    The volume and moments are Fractions, the area a Decimal."""
    _, simps, lifts, _ = cone.triangulation
    n1 = lifts.shape[1]
    v = [Fraction(x) for x in v]
    k = max(range(n1), key=lambda i: abs(v[i]))    # the coordinate dropped
    vol, total, area = Fraction(0), Fraction(0), Decimal(0)
    mu = [Fraction(0)] * n1
    e2 = [[Fraction(0)] * n1 for _ in range(n1)]
    with localcontext() as ctx:
        ctx.prec = 50
        for simp in simps:
            roof = []
            for j in simp:
                p = [Fraction(x) for x in lifts[j]]
                g = sum(a * b for a, b in zip(v, p))
                roof.append([x / g for x in p])
            vol += abs(_exact_det(roof)) / factorial(n1)
            edges = [[a - b for a, b in zip(r, roof[0])] for r in roof[1:]]
            gram = _exact_det([[sum(a * b for a, b in zip(e, f)) for f in edges]
                               for e in edges])
            area += (Decimal(gram.numerator) / gram.denominator).sqrt() / factorial(n1 - 1)
            w = abs(_exact_det([[x for i, x in enumerate(e) if i != k] for e in edges]))
            s = [sum(col) for col in zip(*roof)]
            total += w
            for a in range(n1):
                mu[a] += w * s[a] / n1
                for b in range(n1):
                    sq = sum(r[a] * r[b] for r in roof)
                    e2[a][b] += w * (sq + s[a] * s[b]) / (n1 * (n1 + 1))
    return (vol, area, [m / total for m in mu],
            [[x / total for x in row] for row in e2])


ORACLE_CASES = [f"{kind}{n}" for kind in ("hpoly", "vpoly", "radial") for n in (1, 2, 3)]


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_polytope_slices_match_rational_arithmetic(name, rng):
    dom = jsonio.domain_from_dict(golden_cases()[name][0])
    cone = dom.cone()
    vs = dom.chart.infinity + 0.15 * rng.normal(size=(3, dom.dim + 1))
    vs = vs[cone.dual_margin(vs) > 0.05]
    assert len(vs)
    stack = vb._slice_exact(cone, vs)
    for i, v in enumerate(vs):
        one = vb._slice_exact(cone, v)
        vol, area, mu, e2 = _exact_slice(cone, v)
        mu, e2 = np.array(mu, dtype=float), np.array(e2, dtype=float)
        for data, row in ((one, ()), (stack, i)):
            assert abs(data.volume[row] - float(vol)) <= 1e-13 * float(vol)
            assert abs(data.slice_area[row] - float(area)) <= 1e-13 * float(area)
            assert np.abs(data.centroid[row] - mu).max() <= 1e-13 * np.abs(mu).max()
            assert (np.abs(data.second_moment[row] - e2).max()
                    <= 1e-13 * np.abs(e2).max())


def test_spherical_center_converges_on_hpoly3():
    # weighting the slice moments by sqrt(det Gram) stalled here 1e-10 above
    # the Newton tolerance for 38 iterations, 3.6e-10 from the fixed point
    dom = jsonio.domain_from_dict(golden_cases()["hpoly3"][0])
    sc = vb.spherical_center(dom)
    assert sc.iterations <= 10
    q = sc.center.coords
    mu = _exact_slice(dom.cone(), q)[2]
    assert sqrt(sum((Fraction(x) - m) ** 2 for x, m in zip(q, mu))) <= 1e-11
