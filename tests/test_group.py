import numpy as np
import pytest

from projconvex import domain as dm, group as gp, hilbert as hb
from projconvex.errors import InvalidInputError, NotHyperbolicError
from projconvex.projgeom import ProjPoint, ProjTransform

from conftest import boost, rotation, scalar_golden_min, so21_element


def test_is_automorphism_klein_boost(disk):
    chk = gp.is_automorphism(disk, ProjTransform(boost(0.7)))
    assert chk.is_automorphism and chk.residual < 1e-12


def test_is_automorphism_orthant_diag():
    dom = dm.orthant_domain(2)
    chk = gp.is_automorphism(dom, ProjTransform(np.diag([2.0, 1.0, 0.5])))
    assert chk.is_automorphism


def test_is_automorphism_klein_diag_fails(disk):
    chk = gp.is_automorphism(disk, ProjTransform(np.diag([2.0, 1.0, 0.5])))
    assert not chk.is_automorphism and chk.residual > 1e-2


def test_is_automorphism_radial(polygon24):
    # the 24-gon is preserved by the rotation by one step
    step = 2 * np.pi / 24
    r = np.eye(3)
    r[:2, :2] = [[np.cos(step), -np.sin(step)], [np.sin(step), np.cos(step)]]
    assert gp.is_automorphism(polygon24, ProjTransform(r)).is_automorphism
    assert not gp.is_automorphism(
        polygon24, ProjTransform(np.diag([1.3, 1.0, 1.0]))).is_automorphism


def test_dynamics_orthant_rp1():
    dom = dm.orthant_domain(1)
    a = ProjTransform(np.diag([np.e, 1.0 / np.e]))
    hd = gp.fixed_point_dynamics(dom, a)
    assert abs(hd.length_eigen - 1.0) < 1e-12
    assert abs(hd.length_infimum - 1.0) < 1e-9
    assert hd.a_plus.same_class(ProjPoint([1.0, 0.0]), tol=1e-9)
    assert hd.a_minus.same_class(ProjPoint([0.0, 1.0]), tol=1e-9)


def test_dynamics_boost_length(disk):
    for t in (0.3, 0.9, 1.7):
        hd = gp.fixed_point_dynamics(disk, ProjTransform(boost(t)))
        assert abs(hd.length_eigen - t) < 1e-10
        assert abs(hd.length_infimum - t) < 1e-7
        assert abs(hd.length_infimum - hd.length_eigen) < 1e-6


def _displacement_infimum(dom, a, hd):
    """The axis search of `fixed_point_dynamics`, one scalar distance at a time."""
    def displacement(s):
        x = hd.axis.point_at(s)
        y = dom.chart.to_chart(ProjPoint(a.matrix @ dom.chart.lift(x),
                                         canonicalize=False))
        return hb.distance(dom, x, y)

    return scalar_golden_min(displacement, 0.05, 0.95, tol=1e-12)[1]


def test_dynamics_length_infimum_matches_scalar_search(disk):
    # the single-bracket case of the lockstep search takes the same steps
    cases = [(dm.orthant_domain(1), ProjTransform(np.diag([np.e, 1.0 / np.e])))]
    cases += [(disk, ProjTransform(boost(t))) for t in (0.3, 0.6, 0.9, 1.7)]
    cases += [(disk, ProjTransform(boost(0.8) @ rotation(0.4)))]
    cases += [(disk, ProjTransform(boost(0.8) @ rotation(0.4)).inverse())]
    for dom, a in cases:
        hd = gp.fixed_point_dynamics(dom, a)
        assert hd.length_infimum == _displacement_infimum(dom, a, hd)


def test_dynamics_inverse_swaps_fixed_points(disk):
    a = ProjTransform(boost(0.8) @ rotation(0.4))
    chk = gp.is_automorphism(disk, a)
    assert chk.is_automorphism
    hd = gp.fixed_point_dynamics(disk, a)
    hd_inv = gp.fixed_point_dynamics(disk, a.inverse())
    assert hd_inv.a_plus.same_class(hd.a_minus, tol=1e-8)
    assert hd_inv.a_minus.same_class(hd.a_plus, tol=1e-8)


def test_dynamics_rejects_rotation(disk):
    with pytest.raises(NotHyperbolicError):
        gp.fixed_point_dynamics(disk, ProjTransform(rotation(0.5)))


def test_dynamics_rejects_non_automorphism(disk):
    with pytest.raises(InvalidInputError):
        gp.fixed_point_dynamics(disk, ProjTransform(np.diag([2.0, 1.0, 0.5])))


def test_automorphisms_are_isometries(disk, rng):
    for _ in range(10):
        m = so21_element(rng)
        a = ProjTransform(m)
        assert gp.is_automorphism(disk, a, tol=1e-8).is_automorphism
        for _ in range(10):
            x = disk.random_interior(rng)
            y = disk.random_interior(rng)
            ax = disk.chart.to_chart(a.apply(disk.chart.from_chart(x)))
            ay = disk.chart.to_chart(a.apply(disk.chart.from_chart(y)))
            assert abs(hb.distance(disk, ax, ay)
                       - hb.distance(disk, x, y)) < 1e-8


def test_iterates_converge_to_attractor(disk, rng):
    a = ProjTransform(boost(0.6))
    k0 = gp.attractor_convergence(disk, a, [0.2, -0.3], tol=1e-6)
    assert k0 < 200
    hd = gp.fixed_point_dynamics(disk, a)
    vec = disk.chart.lift([0.2, -0.3])
    for _ in range(k0 + 5):
        vec = a.matrix @ vec
        vec /= np.linalg.norm(vec)
    target = disk.chart.to_chart(hd.a_plus)
    got = disk.chart.to_chart(vec * np.sign(disk.chart.height(vec)))
    assert np.linalg.norm(got - target) < 1e-6


def test_orbit_sizes():
    a = ProjTransform(np.diag([np.e, 1.0 / np.e]))
    seed = ProjPoint([1.0, 1.0])
    assert len(gp.orbit([a], seed, 0)) == 1
    assert len(gp.orbit([a], seed, 3)) == 7


def test_orbit_accumulates_on_frontier(disk):
    g1 = ProjTransform(boost(1.0))
    g2 = ProjTransform(rotation(np.pi / 2) @ boost(1.0) @ rotation(-np.pi / 2))
    seed = disk.chart.from_chart([0.0, 0.0])
    margins = []
    for depth in (1, 3, 5):
        pts = gp.orbit([g1, g2], seed, depth)
        margins.append(min(dm.contains(disk, p).margin for p in pts))
    assert margins[0] > margins[1] > margins[2] > 0


def test_dirichlet_orthant_segment():
    dom = dm.orthant_domain(1)
    a = ProjTransform(np.diag([np.e, 1.0 / np.e]))
    dd = gp.dirichlet_domain(dom.cone(), [a], np.array([1.0, 1.0]), 2)
    assert dd.stable
    labels = sorted(f.label for f in dd.facets)
    assert labels == ["g0", "g0'"]
    assert dd.pairings["g0"] == "g0'" and dd.pairings["g0'"] == "g0"
    x0 = dom.chart.to_chart(ProjPoint(dd.vertices[0], canonicalize=False))
    x1 = dom.chart.to_chart(ProjPoint(dd.vertices[1], canonicalize=False))
    assert abs(hb.distance(dom, x0, x1) - 1.0) < 1e-9


def test_dirichlet_trivial_group_full_slice():
    dom = dm.orthant_domain(1)
    dd = gp.dirichlet_domain(dom.cone(), [], np.array([1.0, 1.0]), 1)
    assert all(f.label == "cone" for f in dd.facets)
    # the slice of the orthant cone at the tangent plane through the base
    assert np.allclose(sorted(dd.vertices[:, 0]),
                       [0.0, np.sqrt(2.0)], atol=1e-9)


def test_dirichlet_equivariance():
    dom = dm.orthant_domain(1)
    a_mat = np.diag([np.e, 1.0 / np.e])
    a = ProjTransform(a_mat)
    x = np.array([1.0, 1.0])
    dd1 = gp.dirichlet_domain(dom.cone(), [a], x, 2)
    half = np.diag([np.exp(0.5), np.exp(-0.5)])
    dd2 = gp.dirichlet_domain(dom.cone(), [a], half @ x, 2)
    moved = {tuple(np.round(v / np.linalg.norm(v), 8))
             for v in (dd1.vertices @ half.T)}
    got = {tuple(np.round(v / np.linalg.norm(v), 8)) for v in dd2.vertices}
    assert moved == got


def test_dirichlet_fixed_basepoint_rejected():
    dom = dm.orthant_domain(1)
    a = ProjTransform(np.diag([np.e, 1.0 / np.e]))
    from projconvex.errors import InvalidBasepointError
    with pytest.raises(InvalidBasepointError):
        # the barycentric ray is not fixed, but an eigen-ray is
        gp.dirichlet_domain(dom.cone(), [a], np.array([1.0, 1e-12]), 1)


def test_dirichlet_two_generators_disk():
    disk = dm.klein_disk()
    g1 = ProjTransform(boost(1.2))
    g2 = ProjTransform(rotation(np.pi / 2) @ boost(1.2) @ rotation(-np.pi / 2))
    x = disk.chart.lift([0.0, 0.0])
    dd = gp.dirichlet_domain(disk.cone(), [g1, g2], x, 2)
    words = {f.label for f in dd.facets if f.label != "cone"}
    assert {"g0", "g0'", "g1", "g1'"} <= words
    for w, inv in dd.pairings.items():
        assert inv is not None
