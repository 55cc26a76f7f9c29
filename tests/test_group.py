import numpy as np
import pytest

from projconvex import domain as dm, group as gp, hilbert as hb
from projconvex.errors import (InvalidBasepointError, InvalidInputError,
                               NotHyperbolicError)
from projconvex.projgeom import ProjPoint, ProjTransform

from conftest import (boost, displacement_infimum, rotation, so21_element,
                      triangle_group)


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


def test_is_automorphism_residual_is_the_vertex_hausdorff_distance(polygon24):
    # every mapped vertex lies within 0.112 of some vertex, and the two
    # vertex sets are 0.165 apart; a greedy matching in vertex order
    # reported 1.956
    chk = gp.is_automorphism(polygon24, ProjTransform(boost(0.5)))
    assert not chk.is_automorphism
    assert chk.residual == pytest.approx(0.1655, abs=1e-3)


def test_is_automorphism_radial_matches_vertex_polygon(polygon24):
    # a radial graph is decided by the vertex matching of its hull vertices
    vpoly = dm.ConvexDomain.from_vertices(polygon24.backend.vertices())
    step = rotation(2 * np.pi / 24)
    for mat, want in ((step, True), (np.diag([1.3, 1.0, 1.0]), False),
                      (boost(0.5), False)):
        a = ProjTransform(mat)
        radial = gp.is_automorphism(polygon24, a)
        flat = gp.is_automorphism(vpoly, a)
        assert radial.is_automorphism == flat.is_automorphism == want
        assert radial.residual == flat.residual


def test_dynamics_orthant_rp1():
    dom = dm.orthant_domain(1)
    a = ProjTransform(np.diag([np.e, 1.0 / np.e]))
    hd = gp.fixed_point_dynamics(dom, a)
    assert abs(hd.length_eigen - 1.0) < 1e-12
    assert hd.translation_length == hd.length_eigen
    assert abs(displacement_infimum(dom, a, hd) - 1.0) < 1e-9
    assert hd.a_plus.same_class(ProjPoint([1.0, 0.0]), tol=1e-9)
    assert hd.a_minus.same_class(ProjPoint([0.0, 1.0]), tol=1e-9)


def test_dynamics_boost_length(disk):
    for t in (0.3, 0.9, 1.7):
        a = ProjTransform(boost(t))
        hd = gp.fixed_point_dynamics(disk, a)
        infimum = displacement_infimum(disk, a, hd)
        assert abs(hd.length_eigen - t) < 1e-10
        assert abs(infimum - t) < 1e-7
        assert abs(infimum - hd.translation_length) < 1e-6


def test_dynamics_long_translations(disk):
    # the smallest eigenvalue, e^-t, is below the rounding error of A v
    for t in (8.0, 10.0, 12.0):
        a = ProjTransform(rotation(0.4) @ boost(t) @ rotation(-0.4))
        assert abs(gp.fixed_point_dynamics(disk, a).translation_length - t) < 1e-6


def test_dynamics_rejects_a_wrong_eigenvector(disk, monkeypatch):
    eig = np.linalg.eig

    def skewed(m):
        vals, vecs = eig(m)
        return vals, vecs + 1e-6

    monkeypatch.setattr(np.linalg, "eig", skewed)
    with pytest.raises(NotHyperbolicError, match="residual"):
        gp.fixed_point_dynamics(disk, ProjTransform(boost(0.7)))


def test_dynamics_length_infimum_matches_scalar_search(disk):
    # the closed form is the infimum of the displacement along the axis
    cases = [(dm.orthant_domain(1), ProjTransform(np.diag([np.e, 1.0 / np.e])))]
    cases += [(disk, ProjTransform(boost(t))) for t in (0.3, 0.6, 0.9, 1.7)]
    cases += [(disk, ProjTransform(boost(0.8) @ rotation(0.4)))]
    cases += [(disk, ProjTransform(boost(0.8) @ rotation(0.4)).inverse())]
    for dom, a in cases:
        hd = gp.fixed_point_dynamics(dom, a)
        assert abs(hd.translation_length - displacement_infimum(dom, a, hd)) < 1e-12


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
    k0 = gp.attractor_convergence(disk, a, [0.2, -0.3])
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


def test_orbit_keeps_one_point_per_class():
    # rotation(pi) sends [1, 0, 0] to [-1, 4e-16, 0], the same point: a key
    # signed by that rounding residue counted it twice
    a = ProjTransform(rotation(np.pi / 3))
    for depth in range(1, 6):
        assert len(gp.orbit([a], ProjPoint([1.0, 0.0, 0.0]), depth)) == 3
    # the two boosts of demos/group_dynamics_tour.py, seeded on their axis
    g1 = ProjTransform(boost(1.1))
    g2 = ProjTransform(rotation(np.pi / 2) @ boost(1.1) @ rotation(-np.pi / 2))
    assert len(gp.orbit([g1, g2], ProjPoint([1.0, 0.0, 0.0]), 5)) == 243


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
    with pytest.raises(InvalidBasepointError):
        # the barycentric ray is not fixed, but an eigen-ray is
        gp.dirichlet_domain(dom.cone(), [a], np.array([1.0, 1e-12]), 1)


def test_dirichlet_triangle_group_relators():
    # the rotation subgroup of the (3,3,4) triangle group: a^3 = b^3 = 1, so
    # distinct reduced words give one element and a^3 fixes every point
    r1, r2, r3 = triangle_group(3, 3, 4)
    gens = [ProjTransform(r1 @ r2), ProjTransform(r2 @ r3)]
    cone = dm.unit_disk().cone()
    x = np.array([0.05, 0.03, 1.0])
    dds = [gp.dirichlet_domain(cone, gens, x, depth) for depth in (2, 3, 4)]
    for dd in dds:
        assert np.allclose(dd.vertices, dds[0].vertices, rtol=0.0, atol=1e-9)
        labels = {f.label for f in dd.facets if f.label != "cone"}
        assert labels and all(dd.pairings[w] in labels for w in labels)
    assert dds[1].stable and dds[2].stable
    vals, vecs = np.linalg.eig(gens[0].matrix)
    vertex = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
    with pytest.raises(InvalidBasepointError):
        gp.dirichlet_domain(cone, gens, vertex * np.sign(vertex[2]), 2)


def _klein_area(vertices):
    """Hyperbolic area of a compact convex polygon of the Klein disk
    x^2 + y^2 < z^2, from its angle sum (Gauss-Bonnet), with raw vertex
    vectors; the angles are those of the Minkowski form's tangent vectors."""
    j = np.diag([1.0, 1.0, -1.0])
    v = vertices * np.sign(vertices[:, 2:])
    form = np.einsum("ki,ij,kj->k", v, j, v)
    assert (form < 0).all()
    v = v / np.sqrt(-form)[:, None]
    x = v[:, :2] / v[:, 2:] - (v[:, :2] / v[:, 2:]).mean(axis=0)
    v = v[np.argsort(np.arctan2(x[:, 1], x[:, 0]))]
    angles = 0.0
    for a, p, b in zip(np.roll(v, 1, axis=0), v, np.roll(v, -1, axis=0)):
        ta = a + (a @ j @ p) * p   # projections on the tangent plane at p
        tb = b + (b @ j @ p) * p
        angles += np.arccos((ta @ j @ tb) / np.sqrt((ta @ j @ ta) * (tb @ j @ tb)))
    return (len(v) - 2) * np.pi - angles


_GROUPS = [(3, 3, 4), (4, 4, 4), (2, 3, 7)]
_SHIFTS = [0.0, 1e-15, -1e-15, 2e-15, 1e-14, -1e-14, 1e-13]


@pytest.mark.parametrize(
    "pqr, shift", [(g, s) for g in _GROUPS for s in _SHIFTS],
    ids=[f"pqr{i}" + (f"-shift{s:+.0e}" if s else "")
         for i in range(len(_GROUPS)) for s in _SHIFTS])
def test_dirichlet_gauss_bonnet_area(pqr, shift):
    # the rotation subgroup has index 2 in the (p, q, r) triangle group, so
    # its fundamental polygon has twice the triangle's area; base points a
    # few ulps apart give the same polygon, with no spurious near-double
    # vertex where several bisectors meet
    p, q, r = pqr
    r1, r2, r3 = triangle_group(p, q, r)
    gens = [ProjTransform(r1 @ r2), ProjTransform(r2 @ r3)]
    cone = dm.unit_disk().cone()
    want = 2.0 * np.pi * (1.0 - 1.0 / p - 1.0 / q - 1.0 / r)
    for depth in (2, 3, 4):
        dd = gp.dirichlet_domain(cone, gens, np.array([0.05 + shift, 0.03, 1.0]), depth)
        assert all(f.label != "cone" for f in dd.facets)
        assert abs(_klein_area(dd.vertices) - want) <= 1e-12
        assert dd.stable or depth == 2


def test_dirichlet_two_generators_disk():
    disk = dm.unit_disk()
    g1 = ProjTransform(boost(1.2))
    g2 = ProjTransform(rotation(np.pi / 2) @ boost(1.2) @ rotation(-np.pi / 2))
    x = disk.chart.lift([0.0, 0.0])
    dd = gp.dirichlet_domain(disk.cone(), [g1, g2], x, 2)
    words = {f.label for f in dd.facets if f.label != "cone"}
    assert {"g0", "g0'", "g1", "g1'"} <= words
    for w, inv in dd.pairings.items():
        assert inv is not None


@pytest.mark.parametrize("call, message", [
    (lambda d: gp.orbit([boost(0.5)], d.chart.from_chart([0.1, 0.2]), -1),
     "word length bound must be nonnegative"),
    (lambda d: gp.dirichlet_domain(d.cone(), [np.diag([2.0, 1.0, 0.5])],
                                   d.chart.lift([0.1, 0.2]), 1),
     "generator does not preserve the cone"),
    (lambda d: gp.dirichlet_domain(d.cone(), [boost(0.5)], d.chart.lift([1.5, 0.0]), 1),
     "base point is not inside the cone"),
], ids=["negative-length", "not-an-automorphism", "base-point-outside"])
def test_invalid_group_arguments_raise(disk, call, message):
    with pytest.raises(InvalidInputError) as err:
        call(disk)
    assert err.type is InvalidInputError and str(err.value) == message
