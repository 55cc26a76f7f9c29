"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured figures.  Run with `pytest tests/test_acceptance.py -s` to see
the lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import time

import numpy as np
import pytest

from projconvex import domain as dm, group as gp, hilbert as hb
from projconvex import normalize as nm, plconvex as pl, vinberg as vb
from projconvex.errors import InfiniteDistanceError
from projconvex.projgeom import DualFunctional, ProjPoint, ProjTransform

from conftest import (boost, displacement_infimum, random_orthogonal,
                      so21_element, so21_hyperbolic)


def _report(num, text):
    print(f"ACCEPTANCE {num:2d}: PASS  {text}")


def test_criterion_01_hilbert_metric_axioms():
    start = time.time()
    rng = np.random.default_rng(101)
    domains = {"disk": dm.unit_disk(), "square": dm.square_domain(),
               "triangle": dm.triangle_domain()}
    worst_sym, worst_tri = 0.0, -np.inf
    for dom in domains.values():
        pts = dom.random_interior(rng, size=3 * 10_000).reshape(10_000, 3, 2)
        for x, y, z in pts:
            try:
                dxy = hb.distance(dom, x, y)
                dyx = hb.distance(dom, y, x)
                dxz = hb.distance(dom, x, z)
                dyz = hb.distance(dom, y, z)
            except InfiniteDistanceError:
                continue
            worst_sym = max(worst_sym, abs(dxy - dyx))
            worst_tri = max(worst_tri, dxz - dxy - dyz)
    assert worst_sym < 1e-9
    assert worst_tri < 1e-9
    d0 = hb.distance(domains["disk"], [0.0, 0.0], [0.5, 0.0])
    assert abs(d0 - 0.5 * np.log(3.0)) < 1e-10
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(1, f"sym<{worst_sym:.1e} tri-slack<{max(worst_tri, 0):.1e} "
               f"d=log(3)/2 ok in {elapsed:.1f}s")


def test_criterion_02_projection_nonexpansive():
    rng = np.random.default_rng(102)
    domains = [dm.unit_disk(), dm.square_domain(), dm.triangle_domain(),
               dm.disk_polygon(24)]
    worst = -np.inf
    for dom in domains:
        x0 = dom.random_interior(rng, margin=0.05)
        y0 = dom.random_interior(rng, margin=0.05)
        while np.linalg.norm(x0 - y0) < 0.1:
            y0 = dom.random_interior(rng, margin=0.05)
        proj = hb.chord_projection(dom, dm.chord(dom, x0, y0))
        done = 0
        while done < 1000:
            x = dom.random_interior(rng)
            y = dom.random_interior(rng)
            try:
                dxy = hb.distance(dom, x, y)
                px = hb.project_to_chord(proj, dom.chart.from_chart(x))
                py = hb.project_to_chord(proj, dom.chart.from_chart(y))
                dpq = hb.distance(dom, dom.chart.to_chart(px),
                                  dom.chart.to_chart(py))
            except Exception:
                continue
            worst = max(worst, dpq - dxy)
            done += 1
        assert worst < 1e-9
    _report(2, f"max d(pi x, pi y) - d(x, y) = {worst:.2e} over 4x1000 pairs")


def test_criterion_03_orthant_oracle():
    rng = np.random.default_rng(103)
    worst = 0.0
    for n1 in (2, 3, 4):
        dom = dm.orthant_domain(n1 - 1)
        fact = 1
        for i in range(2, n1 + 1):
            fact *= i
        for _ in range(30):
            phi = rng.uniform(0.5, 2.0, size=n1)
            v = vb.volume_functional(dom, phi)
            assert v.estimator == "exact"
            worst = max(worst, abs(v.value - 1.0 / (fact * np.prod(phi))))
        base = vb.volume_functional(dom, np.full(n1, 1.3)).value
        for t in (0.5, 1.0, 2.0, 5.0):
            v = vb.volume_functional(dom, np.full(n1, 1.3 * t)).value
            assert abs(v * t ** n1 - base) < 1e-12
    assert worst < 1e-12
    res = pl.pl_characteristic_surface(dm.orthant_domain(1), 16)
    prods = res.surface.vertices[:, 0] * res.surface.vertices[:, 1]
    assert prods.size == 16
    surf_resid = float(np.max(np.abs(prods - 0.5)))
    assert surf_resid < 1e-8
    _report(3, f"closed-form gap {worst:.1e}; homogeneity 1e-12; "
               f"surface x1*x2=1/2 gap {surf_resid:.1e} at 16 directions")


def test_criterion_04_gradient_check():
    rng = np.random.default_rng(104)
    domains = [dm.orthant_domain(1), dm.orthant_domain(2),
               dm.square_domain(), dm.triangle_domain()]
    checked, worst = 0, 0.0
    while checked < 50:
        dom = domains[checked % len(domains)]
        cone = dom.cone()
        phi = dom.chart.infinity + 0.3 * rng.normal(size=dom.dim + 1)
        if cone.dual_margin(phi) <= 0.05:
            continue
        g = vb.grad_volume(cone, phi)
        h = 1e-6
        fd = np.empty_like(phi)
        for i in range(phi.size):
            e = np.zeros_like(phi)
            e[i] = h
            fd[i] = (vb.volume_functional(cone, phi + e).value
                     - vb.volume_functional(cone, phi - e).value) / (2 * h)
        rel = np.linalg.norm(g - fd) / np.linalg.norm(fd)
        worst = max(worst, rel)
        checked += 1
    assert worst < 1e-4
    _report(4, f"max relative gradient error {worst:.2e} over 50 functionals")


def test_criterion_05_theta_round_trip():
    rng = np.random.default_rng(105)
    worst_rt = 0.0
    for dom in (dm.orthant_domain(2), dm.unit_disk()):
        cone = dom.cone()
        for _ in range(50):
            p = dom.chart.from_chart(dom.random_interior(rng))
            phi = vb.theta_inverse(cone, p)
            back = vb.theta(cone, phi)
            worst_rt = max(worst_rt, float(np.linalg.norm(back.coords
                                                          - p.coords)))
    assert worst_rt < 1e-6
    # equivariance under cone automorphisms
    worst_eq = 0.0
    orthant = dm.orthant_domain(2).cone()
    for a_mat, cone in ((np.diag([2.0, 1.0, 0.5]), orthant),
                        (boost(0.7), dm.unit_disk().cone())):
        a = ProjTransform(a_mat)
        for _ in range(10):
            phi = cone.domain.chart.infinity \
                + 0.2 * rng.normal(size=3)
            if cone.dual_margin(phi) <= 0.05:
                continue
            lhs = vb.theta(cone, a.dual_apply(DualFunctional(phi)).coeffs)
            rhs = a.apply(vb.theta(cone, phi / np.linalg.norm(phi)))
            gap = min(np.linalg.norm(lhs.coords - rhs.coords),
                      np.linalg.norm(lhs.coords + rhs.coords))
            worst_eq = max(worst_eq, float(gap))
    assert worst_eq < 1e-7
    _report(5, f"round trip {worst_rt:.2e} at 100 points; "
               f"equivariance {worst_eq:.2e}")


def test_criterion_06_spherical_center():
    disk_center = vb.spherical_center(dm.unit_disk()).center.coords
    pole_gap = float(np.linalg.norm(disk_center - np.array([0.0, 0.0, 1.0])))
    assert pole_gap < 1e-9
    orthant = dm.orthant_domain(2)
    oc = vb.spherical_center(orthant).center.coords
    orthant_gap = float(np.linalg.norm(oc - np.ones(3) / np.sqrt(3.0)))
    assert orthant_gap < 1e-8
    rng = np.random.default_rng(106)
    worst = 0.0
    base = oc
    for _ in range(20):
        q = random_orthogonal(rng, 3)
        moved = orthant.transform(ProjTransform(q))
        got = vb.spherical_center(moved).center.coords
        expect = q @ base
        worst = max(worst, min(float(np.linalg.norm(got - expect)),
                               float(np.linalg.norm(got + expect))))
    assert worst < 1e-7
    _report(6, f"pole gap {pole_gap:.1e}; orthant gap {orthant_gap:.1e}; "
               f"equivariance {worst:.1e} over 20 rotations")


def test_criterion_07_isotropic_normalization():
    m = nm.moments(dm.triangle_domain())
    expected = np.array([[1 / 18, -1 / 36], [-1 / 36, 1 / 18]])
    mom_gap = float(np.max(np.abs(m.second_moment - expected)))
    assert mom_gap < 1e-12
    worst_q = 0.0
    for dom in (dm.unit_disk(), dm.square_domain(), dm.triangle_domain(),
                dm.disk_polygon(24)):
        iso = nm.isotropic_normalize(dom)
        m2 = nm.moments(iso.domain)
        worst_q = max(worst_q, float(np.max(np.abs(m2.second_moment
                                                   - np.eye(2)))))
        sw = iso.sandwich
        b = iso.domain.backend
        for i in range(2):
            for s in (1.0, -1.0):
                e = np.zeros(2)
                e[i] = s
                assert b.support(e) <= sw.outer_K * (1 + 1e-12)
        for corner in np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], float):
            assert b.contains_margin(corner / sw.inner_K) > -1e-9
    assert worst_q < 1e-9
    disk_sw = nm.isotropic_normalize(dm.unit_disk()).sandwich
    assert abs(disk_sw.inner_K - 2.0) < 1e-9
    assert abs(disk_sw.outer_K - 2.0) < 1e-9
    _report(7, f"triangle moments gap {mom_gap:.1e}; |Q-I|<{worst_q:.1e}; "
               f"disk K = {disk_sw.outer_K:.9f}")


def test_criterion_08_box_estimate():
    rng = np.random.default_rng(108)
    violations = 0
    # boosts and rotations on the sandwiched Klein disk
    iso_disk = nm.isotropic_normalize(dm.unit_disk())
    d_mat = iso_disk.diag_matrix()
    d_inv = np.linalg.inv(d_mat)
    k_disk = iso_disk.sandwich.outer_K
    for _ in range(500):
        a = d_mat @ so21_element(rng) @ d_inv
        chk = gp.is_automorphism(iso_disk.domain, ProjTransform(a), tol=1e-7)
        assert chk.is_automorphism
        res = nm.box_bound_check(a, k_disk)
        if not (res.hypothesis_holds and res.conclusion_holds):
            violations += 1
    # the diagonal group on the sandwiched triangle
    tri = dm.triangle_domain()
    iso_tri = nm.isotropic_normalize(tri)
    lin, shift = iso_tri.chart_affine()
    p_mat = np.eye(3)
    p_mat[:2, :2] = lin
    p_mat[:2, 2] = shift
    lifts = tri.chart.lift_many(tri.backend.verts).T  # cone frame
    lifts_inv = np.linalg.inv(lifts)
    k_tri = iso_tri.sandwich.outer_K
    for _ in range(500):
        diag = np.diag(rng.uniform(0.5, 2.0, size=3))
        a = p_mat @ lifts @ diag @ lifts_inv @ np.linalg.inv(p_mat)
        chk = gp.is_automorphism(iso_tri.domain, ProjTransform(a), tol=1e-7)
        assert chk.is_automorphism
        res = nm.box_bound_check(a, k_tri)
        if not (res.hypothesis_holds and res.conclusion_holds):
            violations += 1
    assert violations == 0
    _report(8, f"0 violations over 1000 automorphisms "
               f"(K_disk={k_disk:.3f}, K_tri={k_tri:.3f})")


def test_criterion_09_degeneration_pipeline():
    start = time.time()
    doms, terms = [], []
    for k in range(1, 65):
        doms.append(dm.ConvexDomain.ellipsoid(
            [0.0, 0.0], np.diag([1.0, float(k) ** 2])))
        terms.append([np.eye(3)])
    rep = nm.analyze_sequence(nm.RepSequence(["a"], terms, doms))
    assert rep.slope > 0
    assert not rep.bounded
    # the normalized domains approach the round disk of the isotropic radius
    target = dm.ConvexDomain.ellipsoid([0.0, 0.0], np.eye(2) / 4.0)
    ang = 2 * np.pi * np.arange(32) / 32
    dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    last = rep  # support functions of the final normalized domain
    hs_last = None
    # recompute the final normalized domain for the residual
    iso_last = nm.isotropic_normalize(doms[-1]).domain
    gap = dm.support_residual(iso_last, target, dirs)
    assert gap < 1e-3

    base = boost(0.9)
    doms2, terms2 = [], []
    for k in range(1, 33):
        dk = np.diag([float(k), 1.0, 1.0 / k])
        terms2.append([dk @ base @ np.linalg.inv(dk)])
        doms2.append(dm.ConvexDomain.ellipsoid(
            [0.0, 0.0], np.diag([1.0 / float(k) ** 4, 1.0 / float(k) ** 2])))
    rep2 = nm.analyze_sequence(nm.RepSequence(["a"], terms2, doms2))
    assert rep2.bounded and rep2.convergent
    raw = [s.raw_max_entry for s in rep2.steps]
    assert raw[-1] > 100 * raw[0]
    assert max(s.max_entry for s in rep2.steps) \
        < 10 * rep2.steps[0].max_entry
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(9, f"slope {rep.slope:.3f}>0; disk residual {gap:.1e}; "
               f"boost family bounded with raw blow-up x{raw[-1]/raw[0]:.0f}; "
               f"{elapsed:.1f}s")


def test_criterion_10_pl_convexity():
    polyline = pl.SimplicialHypersurface(
        np.array([[-1.0, 2.0], [0.0, 1.0], [1.0, 2.0]]), [(0, 1), (1, 2)])
    vc = pl.vertex_convexity(polyline, 1)
    dets = sorted(round(d, 12) for _, _, d in vc.determinants)
    assert dets == [2.0, 2.0]
    assert pl.certify_generic_convex(polyline).ok

    xs = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    ys = 1.0 + xs ** 2
    ys[2] = 2.2
    dented = pl.SimplicialHypersurface(np.stack([xs, ys], axis=1),
                                       [(i, i + 1) for i in range(4)])
    cert = pl.certify_generic_convex(dented)
    assert not cert.ok

    pr = pl.perturbation_radius(polyline, trials=100, seed=110)
    assert pr.reverify_passes == 100

    res = pl.pl_characteristic_surface(dm.unit_disk(), 48, seed=110)
    assert res.certificate.ok
    surf = res.surface
    rng = np.random.default_rng(110)
    m = surf.vertices.shape[0]
    i = rng.integers(0, m, 10_000)
    j = rng.integers(0, m, 10_000)
    s = rng.uniform(1.0, 2.5, size=(10_000, 2))
    a = surf.vertices[i] * s[:, :1]
    b = surf.vertices[j] * s[:, 1:]
    mid = 0.5 * (a + b)
    ha = pl.log_contour_values(surf, a)
    hbv = pl.log_contour_values(surf, b)
    hm = pl.log_contour_values(surf, mid)
    mask = ~(np.isnan(ha) | np.isnan(hbv) | np.isnan(hm))
    assert mask.sum() > 8000
    bad = int(np.sum(hm[mask] > 0.5 * (ha[mask] + hbv[mask]) + 1e-10))
    assert bad == 0
    _report(10, f"hand determinants 2.0; dent rejected; 100/100 at 0.9 eps; "
                f"{int(mask.sum())} midpoint tests, 0 convexity violations")


def test_criterion_11_thin_triangles():
    disk = dm.unit_disk()
    disk_vals = []
    for r in (0.7, 0.8, 0.9, 0.95, 0.99):
        tri = [r * np.array([np.cos(a), np.sin(a)])
               for a in (0.0, 2 * np.pi / 3, 4 * np.pi / 3)]
        disk_vals.append(hb.thin_triangle_delta(disk, tri, m=16).delta)
    assert max(disk_vals) <= 2.0 * disk_vals[0]

    tri_dom = dm.orthant_domain(2)
    cen = tri_dom.backend.moments()[1]
    verts = tri_dom.backend.verts
    tri_vals = []
    for s in (0.5, 0.7, 0.85, 0.95, 0.99):
        tri = [cen + s * (v - cen) for v in verts]
        tri_vals.append(hb.thin_triangle_delta(tri_dom, tri, m=16).delta)
    assert all(b > a for a, b in zip(tri_vals, tri_vals[1:]))
    _report(11, f"disk deltas {['%.3f' % v for v in disk_vals]} bounded; "
                f"simplex deltas {['%.3f' % v for v in tri_vals]} increasing")


def test_criterion_12_hyperbolic_dynamics():
    rng = np.random.default_rng(112)
    disk = dm.unit_disk()
    worst = 0.0
    for _ in range(50):
        mat, t = so21_hyperbolic(rng)
        a = ProjTransform(mat)
        hd = gp.fixed_point_dynamics(disk, a)
        worst = max(worst, abs(displacement_infimum(disk, a, hd)
                               - hd.translation_length))
        assert abs(hd.length_eigen - t) < 1e-9
    assert worst < 1e-6
    a = ProjTransform(boost(0.8))
    k0 = gp.attractor_convergence(disk, a, [0.1, -0.2])
    assert k0 < 500
    _report(12, f"length methods agree to {worst:.1e} on 50 boosts; "
                f"iterates reach the attractor by k={k0}")
