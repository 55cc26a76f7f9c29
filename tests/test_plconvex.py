from itertools import product

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from projconvex import domain as dm, plconvex as pl
from projconvex.config import DEFAULT_SEED, TOL
from projconvex.errors import (
    ApproximationFailureError,
    CoplanarStarError,
    GeometryError,
    InvalidInputError,
    NonManifoldComplexError,
    TransversalityError,
)


@pytest.fixture
def polyline():
    return pl.SimplicialHypersurface(
        np.array([[-1.0, 2.0], [0.0, 1.0], [1.0, 2.0]]), [(0, 1), (1, 2)])


@pytest.fixture
def dented_polyline():
    xs = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    ys = 1.0 + xs ** 2
    ys[2] = 2.2  # push the middle sample outward
    return pl.SimplicialHypersurface(np.stack([xs, ys], axis=1),
                                     [(i, i + 1) for i in range(4)])


@pytest.fixture
def cube_surface():
    verts = np.array(list(product([-1.0, 1.0], repeat=3)))
    hull = ConvexHull(verts)
    return pl.SimplicialHypersurface(verts, [tuple(s) for s in hull.simplices])


@pytest.fixture
def octahedron_surface():
    verts = np.vstack([np.eye(3), -np.eye(3)])
    hull = ConvexHull(verts)
    return pl.SimplicialHypersurface(verts, [tuple(s) for s in hull.simplices])


def test_radial_section_polyline(polyline):
    res = pl.radial_section_check(polyline)
    assert res.ok and not res.violations


def test_radial_section_radial_segment():
    surf = pl.SimplicialHypersurface(
        np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 2.0]]), [(0, 1), (1, 2)])
    res = pl.radial_section_check(surf)
    assert not res.ok
    assert any(v["kind"] == "transversality" for v in res.violations)


def test_radial_section_cube(cube_surface):
    assert pl.radial_section_check(cube_surface).ok


def test_radial_section_overlap_detected():
    # two stacked segments over the same angular sector
    surf = pl.SimplicialHypersurface(
        np.array([[-1.0, 1.0], [1.0, 1.0], [-1.0, 2.0], [1.0, 2.0]]),
        [(0, 1), (2, 3)])
    res = pl.radial_section_check(surf)
    assert not res.ok
    assert any(v["kind"] == "multiplicity" for v in res.violations)


def test_vertex_convexity_hand_values(polyline):
    vc = pl.vertex_convexity(polyline, 1)
    assert vc.sign == 1
    values = sorted(round(d, 12) for _, _, d in vc.determinants)
    assert values == [2.0, 2.0]
    assert vc.margin == 2.0


def test_vertex_convexity_needs_interior(polyline):
    with pytest.raises(InvalidInputError):
        pl.vertex_convexity(polyline, 0)


def test_certify_polyline(polyline):
    cert = pl.certify_generic_convex(polyline)
    assert cert.ok and cert.sign == 1 and abs(cert.margin - 2.0) < 1e-12


def test_certify_rejects_dent(dented_polyline):
    cert = pl.certify_generic_convex(dented_polyline)
    assert not cert.ok
    assert any(v["kind"] == "vertex" for v in cert.violations)


def test_certify_rejects_coplanar_pair():
    verts = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0],
                      [0.0, 1.0, 1.0], [1.0, 1.0, 1.0],
                      [2.0, 0.5, 1.4]])
    surf = pl.SimplicialHypersurface(verts, [(0, 1, 2), (1, 3, 2), (1, 4, 3)])
    cert = pl.certify_generic_convex(surf)
    assert not cert.ok
    assert any(v["kind"] == "coplanarity" for v in cert.violations)


def test_certify_volume_preserving_invariance(polyline, rng):
    cert = pl.certify_generic_convex(polyline)
    m = rng.normal(size=(2, 2)) + 2 * np.eye(2)
    m /= abs(np.linalg.det(m)) ** 0.5
    mapped = pl.SimplicialHypersurface(polyline.vertices @ m.T,
                                       polyline.simplices)
    cert2 = pl.certify_generic_convex(mapped)
    assert cert2.ok
    # determinants are equivariant up to the global orientation convention
    assert abs(cert2.margin - cert.margin) < 1e-9


def test_certify_octahedron(octahedron_surface):
    cert = pl.certify_generic_convex(octahedron_surface)
    assert cert.checks > 0 and cert.ok


def test_certify_rejects_cube_face_split(cube_surface):
    # splitting square faces makes coplanar adjacent triangles
    cert = pl.certify_generic_convex(cube_surface)
    assert not cert.ok
    assert all(v["kind"] == "coplanarity" for v in cert.violations)


def test_coplanar_star_names_star_and_test_vertex(cube_surface):
    cert = pl.certify_generic_convex(cube_surface)
    stars = [v for v in cert.violations if "vertex" in v]
    assert stars
    for viol in stars:
        simplex = set(cube_surface.simplices[viol["simplex"]].tolist())
        assert viol["vertex"] in simplex
        assert viol["test_vertex"] not in simplex
        assert type(viol["determinant"]) is float
    assert len({v["vertex"] for v in stars}) == len(stars)
    with pytest.raises(CoplanarStarError) as exc:
        pl.vertex_convexity(cube_surface, stars[0]["vertex"])
    assert exc.value.data == {k: v for k, v in stars[0].items() if k != "kind"}


def test_perturbation_radius_polyline(polyline):
    res = pl.perturbation_radius(polyline, trials=100, seed=5)
    assert res.epsilon > 0
    assert res.reverify_passes == res.reverify_trials == 100


def test_perturbation_radius_scaling(polyline):
    r1 = pl.perturbation_radius(polyline, trials=3, seed=5)
    r2 = pl.perturbation_radius(polyline.scaled(2.0), trials=3, seed=5)
    assert abs(r2.epsilon / r1.epsilon - 2.0) < 1e-9


def test_perturbation_radius_flat_pair_errors():
    verts = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0],
                      [0.0, 1.0, 1.0], [1.0, 1.0, 1.0],
                      [2.0, 0.5, 1.4]])
    surf = pl.SimplicialHypersurface(verts, [(0, 1, 2), (1, 3, 2), (1, 4, 3)])
    with pytest.raises(ApproximationFailureError):
        pl.perturbation_radius(surf, trials=3)


def test_outward_examples(polyline, cube_surface):
    assert pl.outward_check(polyline, 1.5)
    assert not pl.outward_check(polyline, 1.0)
    assert pl.outward_check(cube_surface, 2.0)


def test_log_contour_identities(polyline):
    x0 = polyline.vertices[1]
    assert pl.log_contour_value(polyline, x0) == 0.0
    assert abs(pl.log_contour_value(polyline, np.e * x0) + 1.0) < 1e-14
    x = 1.7 * polyline.vertices[0]
    lhs = pl.log_contour_value(polyline, 3.0 * x)
    rhs = pl.log_contour_value(polyline, x) - np.log(3.0)
    assert abs(lhs - rhs) < 1e-14  # exact up to float rounding


def test_log_contour_outside_cone(polyline):
    with pytest.raises(InvalidInputError):
        pl.log_contour_value(polyline, np.array([0.0, -1.0]))


def test_pl_surface_orthant(rng):
    res = pl.pl_characteristic_surface(dm.orthant_domain(1), 16)
    assert res.certificate.ok
    prods = res.surface.vertices[:, 0] * res.surface.vertices[:, 1]
    assert np.max(np.abs(prods - 0.5)) < 1e-8
    assert len(res.surface.simplices) == 15


def test_pl_surface_round_cone_converges():
    disk = dm.unit_disk()
    r64 = pl.pl_characteristic_surface(disk, 64)
    r128 = pl.pl_characteristic_surface(disk, 128)
    assert r64.certificate.ok and r128.certificate.ok
    assert r128.deviation_bound < r64.deviation_bound
    # vertices sit on the invariant hyperboloid of the cone
    t_ax = (3.0 / np.pi) ** (1.0 / 3.0)
    v = r64.surface.vertices
    q = v[:, 0] ** 2 + v[:, 1] ** 2 - v[:, 2] ** 2
    assert np.max(np.abs(q + t_ax ** 2)) < 1e-10


def test_pl_surface_coarse_budget_deterministic():
    disk = dm.unit_disk()

    def run():
        try:
            res = pl.pl_characteristic_surface(disk, 9, seed=3)
            return ("ok", round(res.certificate.margin, 14))
        except ApproximationFailureError:
            return ("fail", None)

    assert run() == run()


# (checks, sign, margin, deviation bound) of builds with the default seed,
# as the staggered ring triangulation gave them before the hull step took
# its place: the hull finds the same complexes where that one certified.
RING_BUILDS = {
    "disk": (lambda: dm.unit_disk(), 48,
             (848, -1, 0.0002074956270848198, 0.11230431729581358)),
    "ellipse": (lambda: dm.ConvexDomain.ellipsoid(np.array([0.1, -0.2]),
                                                  np.diag([1.0, 2.5])), 48,
                (848, -1, 6.317261712252204e-05, 0.29754787760502044)),
    "gon24": (lambda: dm.disk_polygon(24), 48,
              (848, -1, 0.00020684314862308903, 0.11159655842754201)),
    "square": (lambda: dm.square_domain(), 48,
               (848, -1, 1.816180536785121e-05, 0.2157300165334406)),
    "orthant1": (lambda: dm.orthant_domain(1), 16,
                 (28, -1, 0.0014940384832202852, 0.02621808039866158)),
}


@pytest.mark.parametrize("name", sorted(RING_BUILDS))
def test_pl_surface_matches_ring_builds(name):
    make, budget, (checks, sign, margin, deviation) = RING_BUILDS[name]
    res = pl.pl_characteristic_surface(make(), budget)
    assert (res.certificate.ok, res.certificate.checks, res.certificate.sign) == (
        True, checks, sign)
    assert res.certificate.margin == pytest.approx(margin, rel=1e-12)
    assert res.deviation_bound == pytest.approx(deviation, rel=0, abs=1e-12)


def test_pl_surface_rejects_bad_budgets():
    for dom, budget in ((dm.unit_disk(), -3), (dm.unit_disk(), 0),
                        (dm.orthant_domain(1), 1), (dm.orthant_domain(1), -3)):
        with pytest.raises(InvalidInputError):
            pl.pl_characteristic_surface(dom, budget)
    # the smallest ring sampler still spans six triangles
    assert len(pl.pl_characteristic_surface(dm.unit_disk(), 1).surface.simplices) == 6


def test_origin_faces_of_flat_samples_fail():
    # samples on one ray span no hull: a build failure, not a Qhull error
    with pytest.raises(ApproximationFailureError):
        pl._origin_faces(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))


@pytest.mark.parametrize("make,budget", [
    (dm.unit_disk, 48), (dm.triangle_domain, 48),
    (lambda: dm.orthant_domain(2), 48), (dm.square_domain, 32)],
    ids=["disk", "triangle", "orthant2", "square"])
def test_h_convexity_sampling(make, budget):
    res = pl.pl_characteristic_surface(make(), budget)
    surf = res.surface
    rng = np.random.default_rng(9)
    m = surf.vertices.shape[0]
    i = rng.integers(0, m, 2000)
    j = rng.integers(0, m, 2000)
    s = rng.uniform(1.0, 2.5, size=(2000, 2))
    a = surf.vertices[i] * s[:, :1]
    b = surf.vertices[j] * s[:, 1:]
    mid = 0.5 * (a + b)
    ha = pl.log_contour_values(surf, a)
    hb = pl.log_contour_values(surf, b)
    hm = pl.log_contour_values(surf, mid)
    mask = ~(np.isnan(ha) | np.isnan(hb) | np.isnan(hm))
    assert mask.sum() > 1500
    assert np.all(hm[mask] <= 0.5 * (ha[mask] + hb[mask]) + 1e-10)


def test_non_manifold_rejected():
    verts = np.array([[1.0, 1.0], [-1.0, 1.0], [0.0, 2.0], [0.5, 1.8]])
    with pytest.raises(NonManifoldComplexError):
        pl.SimplicialHypersurface(verts, [(0, 1), (0, 1), (0, 1)])


def test_non_manifold_names_the_first_crowded_facet():
    verts = np.array([[1.0, 1.0], [-1.0, 1.0], [0.0, 2.0], [0.5, 1.8]])
    with pytest.raises(NonManifoldComplexError) as exc:
        pl.SimplicialHypersurface(verts, [(3, 1), (2, 1), (1, 0), (1, 2), (0, 2)])
    assert exc.value.data == {"facet": [1]}


@pytest.mark.parametrize("simplices", [[], [(0, 3)], [(-1, 0)]])
def test_bad_simplex_lists_rejected(simplices):
    verts = np.array([[1.0, 1.0], [-1.0, 1.0], [0.0, 2.0]])
    with pytest.raises(InvalidInputError):
        pl.SimplicialHypersurface(verts, simplices)


def test_with_vertices_shares_the_complex(polyline):
    moved = polyline.with_vertices(polyline.vertices * 3.0)
    assert moved.simplices is polyline.simplices
    assert abs(pl.certify_generic_convex(moved).margin - 9.0 * 2.0) < 1e-12
    with pytest.raises(InvalidInputError):
        polyline.with_vertices(polyline.vertices[:2])
    with pytest.raises(InvalidInputError):   # still checked for degeneracy
        polyline.with_vertices(np.array([[-1.0, 2.0], [-1.0, 2.0], [1.0, 2.0]]))


# ---------------------------------------------------------------------------
# the stacked kernels against a loop reference (one determinant, one sample
# at a time, adjacency from a facet dictionary)


def _ref_oriented_det(surf, si, u):
    def sign(pts):
        return float(np.sign(np.linalg.det(pts.T)))
    pts = surf.vertices[surf.simplices[si]]
    return (sign(surf.vertices[surf.simplices[0]]) * sign(pts)
            * np.linalg.det((pts - surf.vertices[u]).T))


def _ref_complex(surf):
    facets = {}
    for si, s in enumerate(surf.simplices.tolist()):
        for drop in range(len(s)):
            facets.setdefault(frozenset(s[:drop] + s[drop + 1:]), []).append(si)
    pairs = [(o[0], o[1], f) for f, o in facets.items() if len(o) == 2]
    boundary = set().union(*[f for f, o in facets.items() if len(o) == 1])
    return pairs, boundary


def _ref_vertex_convexity(surf, v):
    pairs, _ = _ref_complex(surf)
    simplices = [set(s) for s in surf.simplices.tolist()]
    star = [si for si, s in enumerate(simplices) if v in s]
    link = set().union(*[simplices[si] for si in star]) - {v}
    across = {si: set() for si in range(len(simplices))}
    for sj, sk, f in pairs:
        across[sj] |= simplices[sk] - simplices[sj]
        across[sk] |= simplices[sj] - simplices[sk]
    dets = []
    for si in star:
        for u in sorted(link - simplices[si]):
            val = _ref_oriented_det(surf, si, u)
            if abs(val) <= TOL.coplanarity and u in across[si]:
                raise CoplanarStarError("adjacent simplices are coplanar",
                                        vertex=v, simplex=si, test_vertex=u,
                                        determinant=float(val))
            dets.append((si, u, float(val)))
    if not dets:
        return pl.VertexConvexity(0, 0.0, [])
    signs = {int(np.sign(d)) for _, _, d in dets}
    sign = signs.pop() if len(signs) == 1 and 0 not in signs else 0
    return pl.VertexConvexity(sign, min(abs(d) for _, _, d in dets), dets)


def _ref_section_check(surf, samples=3, seed=DEFAULT_SEED):
    mats = [surf.vertices[s].T for s in surf.simplices]
    trans = [abs(np.linalg.det(m)) / max(np.prod(np.linalg.norm(m, axis=0)),
                                          1e-300) for m in mats]
    violations = [{"kind": "transversality", "simplex": si}
                  for si, d in enumerate(trans) if d <= 1e-10]
    if violations:
        return pl.RadialSectionResult(False, violations, float(min(trans)))
    rng = np.random.default_rng(seed)
    inv = np.linalg.inv(np.stack(mats))
    for si, s in enumerate(surf.simplices):
        pts = surf.vertices[s]
        k = len(s)
        weights = np.vstack([np.full(k, 1.0 / k),
                             rng.dirichlet(np.full(k, 4.0), size=samples - 1)])
        for w in weights:
            lam = np.einsum("mij,j->mi", inv, w @ pts)
            hits = np.nonzero(np.all(lam >= -1e-12, axis=1)
                              & (lam.sum(axis=1) > 0))[0]
            strict = [h for h in hits if np.all(lam[h] > 1e-9)]
            if len(strict) > 1 or (not strict and len(hits) > 2):
                violations.append({"kind": "multiplicity", "simplex": si,
                                   "hits": hits.tolist()})
                break
    return pl.RadialSectionResult(not violations, violations, float(min(trans)))


def _ref_certify(surf):
    rs = _ref_section_check(surf)
    if not rs.ok:
        return "TransversalityError", rs.violations
    pairs, boundary = _ref_complex(surf)
    violations, pair_dets = [], []
    for sj, sk, f in pairs:
        val = _ref_oriented_det(surf, sj, next(iter(set(surf.simplices[sk].tolist()) - f)))
        pair_dets.append((sj, sk, float(val)))
        if abs(val) <= TOL.coplanarity:
            violations.append({"kind": "coplanarity", "simplices": [sj, sk],
                               "determinant": float(val)})
    per_vertex, dets = {}, []
    interior = sorted(set(surf.simplices.ravel().tolist()) - boundary)
    for v in interior:
        try:
            vc = _ref_vertex_convexity(surf, v)
        except CoplanarStarError as exc:
            violations.append({"kind": "coplanarity", **exc.data})
            continue
        if vc.sign == 0 and vc.determinants:
            violations.append({"kind": "vertex", "vertex": v,
                               "determinants": vc.determinants})
        per_vertex[v] = vc
        dets.extend(vc.determinants)
    if not interior:
        # no star to check: the adjacent pairs must share one sign
        dets = pair_dets
    majority = 1 if (sum(d > 0 for _, _, d in dets)
                     >= sum(d < 0 for _, _, d in dets)) else -1
    violations += [{"kind": "vertex", "vertex": v, "determinants": vc.determinants}
                   for v, vc in per_vertex.items() if vc.sign not in (0, majority)]
    if not interior:
        violations += [{"kind": "fold", "simplices": [sj, sk], "determinant": d}
                       for sj, sk, d in pair_dets
                       if abs(d) > TOL.coplanarity and np.sign(d) != majority]
    if violations:
        return pl.ConvexityCertificate(False, 0, 0.0, len(dets), violations)
    return pl.ConvexityCertificate(True, majority,
                                   min((abs(d) for _, _, d in dets), default=np.inf),
                                   len(dets))


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except GeometryError as exc:
        return type(exc).__name__, exc.data.get("violations", exc.data)


def _strip(lift=1.0):
    """Three hyperboloid triangles in a row, every vertex on the boundary;
    `lift` scales the middle vertex outward, creasing the first pair the
    wrong way."""
    pts = np.array([[-0.6, -0.1], [-0.3, 0.15], [0.0, -0.12], [0.3, 0.1], [0.6, -0.1]])
    verts = np.hstack([pts, np.ones((5, 1))]) / np.sqrt(1.0 - (pts ** 2).sum(1))[:, None]
    verts[2] *= lift
    return pl.SimplicialHypersurface(verts, [(0, 1, 2), (1, 2, 3), (2, 3, 4)])


def _ring_surface(budget, seed, dent=None, fold=None):
    """Staggered ring samples of the disk lifted to the hyperboloid, turned by
    a seeded angle and spanned by their origin-facing hull faces; `dent` then
    scales one interior vertex, `fold` turns one vertex about the axis
    (overlapping its neighbours)."""
    rng = np.random.default_rng(seed)
    pts = pl._disk_mesh(dm.unit_disk(), budget)
    spin = rng.uniform(0, 2 * np.pi)
    pts = pts @ np.array([[np.cos(spin), -np.sin(spin)],
                          [np.sin(spin), np.cos(spin)]])
    verts = np.hstack([pts, np.ones((len(pts), 1))])
    verts /= np.sqrt(1.0 - (pts ** 2).sum(1))[:, None]
    tris = pl._origin_faces(verts)
    i = rng.integers(1, len(verts) // 2)
    if dent is not None:
        verts[i] *= dent
    if fold is not None:
        c, s = np.cos(fold), np.sin(fold)
        verts[i, :2] = verts[i, :2] @ np.array([[c, s], [-s, c]])
    return pl.SimplicialHypersurface(verts, tris)


WIDE_TETRAHEDRON = np.array([[1.0, 0.0, -0.1], [-0.9, 0.4, -0.1],
                             [-0.9, -0.4, -0.1], [0.0, 0.0, 1.0]])

REFERENCE_MESHES = {
    "ring48": lambda: _ring_surface(48, 1),
    "ring96": lambda: _ring_surface(96, 2),
    "dent": lambda: _ring_surface(64, 3, dent=0.9),
    "bump": lambda: _ring_surface(64, 4, dent=1.1),
    "fold": lambda: _ring_surface(64, 5, fold=0.6),
    "cube": lambda: pl.SimplicialHypersurface(
        np.array(list(product([-1.0, 1.0], repeat=3))),
        ConvexHull(np.array(list(product([-1.0, 1.0], repeat=3)))).simplices),
    "octahedron": lambda: pl.SimplicialHypersurface(
        np.vstack([np.eye(3), -np.eye(3)]),
        ConvexHull(np.vstack([np.eye(3), -np.eye(3)])).simplices),
    "polyline": lambda: pl.SimplicialHypersurface(
        np.array([[-1.0, 2.0], [0.0, 1.0], [1.0, 2.0]]), [(0, 1), (1, 2)]),
    "dented_polyline": lambda: pl.SimplicialHypersurface(
        np.array([[-1.0, 2.0], [-0.5, 1.25], [0.0, 2.2], [0.5, 1.25],
                  [1.0, 2.0]]), [(i, i + 1) for i in range(4)]),
    # a squashed tetrahedron whose bottom face's cone reaches more than 90
    # degrees from its normalized vertex centroid
    "wide_tetrahedron": lambda: pl.SimplicialHypersurface(
        WIDE_TETRAHEDRON, ConvexHull(WIDE_TETRAHEDRON).simplices),
    # no interior vertex: a lone segment, and strips of three triangles
    "segment": lambda: pl.SimplicialHypersurface([[-1.0, 2.0], [1.0, 2.0]], [(0, 1)]),
    "strip": _strip,
    "folded_strip": lambda: _strip(lift=1.3),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_MESHES))
def test_stacked_kernels_match_loop_reference(name):
    surf = REFERENCE_MESHES[name]()
    assert pl.radial_section_check(surf) == _ref_section_check(surf)
    cert = _outcome(pl.certify_generic_convex, surf)
    assert cert == _ref_certify(surf)
    # a failed certificate always names what failed
    assert not isinstance(cert, pl.ConvexityCertificate) or cert.ok or cert.violations
    for v in surf.interior_vertices():
        assert (_outcome(pl.vertex_convexity, surf, v)
                == _outcome(_ref_vertex_convexity, surf, v))


def test_reference_meshes_cover_every_verdict():
    outcomes = [_ref_certify(REFERENCE_MESHES[n]())
                for n in ("ring48", "dent", "fold", "cube", "folded_strip")]
    assert outcomes[0].ok
    assert {v["kind"] for v in outcomes[1].violations} == {"vertex"}
    assert outcomes[2][0] == "TransversalityError"
    assert any("test_vertex" in v for v in outcomes[3].violations)
    assert [v["kind"] for v in outcomes[4].violations] == ["fold"]


def test_surfaces_without_interior_vertices_certify():
    # a lone simplex passes vacuously; a strip is judged by its adjacent
    # pairs, and both sides of a crease are bounded by the perturbation radius
    seg = REFERENCE_MESHES["segment"]()
    assert pl.certify_generic_convex(seg) == pl.ConvexityCertificate(True, 1, np.inf, 0)
    with pytest.raises(InvalidInputError):
        pl.perturbation_radius(seg)
    strip = _strip()
    cert = pl.certify_generic_convex(strip)
    assert cert.ok and cert.sign == 1 and cert.checks == 2 and 0 < cert.margin < np.inf
    res = pl.perturbation_radius(strip, trials=10)
    assert 0 < res.epsilon < np.inf and res.reverify_passes == 10
    bad = pl.certify_generic_convex(_strip(lift=1.3))
    assert not bad.ok and [v["simplices"] for v in bad.violations] == [[0, 1]]
    # a two-sample 1-d characteristic surface is one segment
    res = pl.pl_characteristic_surface(dm.orthant_domain(1), 2)
    assert res.certificate.ok and res.certificate.checks == 0
    assert len(res.surface.simplices) == 1


def _block_straddlers(surf, dirs):
    """Candidate-pair count of dirs and the rows whose pairs fall in two
    blocks of the pair kernel (blocks of _SECTION_CHUNK gathered inverse
    entries, so _SECTION_CHUNK // k^2 pairs each)."""
    rows, _ = surf._candidates(dirs)
    step = pl._SECTION_CHUNK // surf.inv_stack()[0].size
    return rows.size, [int(rows[b]) for b in range(step, rows.size, step)
                       if rows[b - 1] == rows[b]]


def test_section_check_across_chunks():
    # an arc of 200 short segments under an arc of 4 long ones: samples
    # under the outer arc hit twice, and the long segments' wide caps give
    # every sample dozens of candidate simplices, so the candidate pairs fill
    # more than one block of the pair kernel
    inner = np.linspace(0.3, 2.8, 201)
    outer = np.linspace(1.0, 2.6, 5)
    verts = np.vstack([np.stack([np.cos(inner), np.sin(inner)], 1),
                       2.0 * np.stack([np.cos(outer), np.sin(outer)], 1)])
    segs = [(i, i + 1) for i in range(200)] + [(201 + i, 202 + i) for i in range(4)]
    surf = pl.SimplicialHypersurface(verts, segs)
    weights = surf._complex.sample_weights(DEFAULT_SEED)
    samples = (weights @ surf.vertices[surf.simplices]).reshape(-1, 2)
    pairs, split = _block_straddlers(surf, samples)
    assert pairs * surf.inv_stack()[0].size > pl._SECTION_CHUNK
    res = pl.radial_section_check(surf)
    assert res == _ref_section_check(surf)
    # a sample of a violating simplex has its pairs in two blocks
    assert {r // 3 for r in split} & {v["simplex"] for v in res.violations}


def test_radial_values_across_blocks():
    # 2000 directions with about five candidate simplices each fill more
    # than one block of the pair kernel, and one direction's pairs fall in two
    surf = _ring_surface(96, 2)
    t_count, k = surf.simplices.shape
    rng = np.random.default_rng(7)
    dirs = surf.vertices[surf.simplices[rng.integers(0, t_count, 2000)]]
    dirs = (rng.dirichlet(np.ones(k), size=len(dirs))[:, :, None] * dirs).sum(1)
    dirs[-1] = [1.0, 0.0, 0.0]          # not covered by the surface
    pairs, split = _block_straddlers(surf, dirs)
    assert pairs * surf.inv_stack()[0].size > pl._SECTION_CHUNK
    assert split
    got = surf.radial_values(dirs)
    one_by_one = np.array([surf.radial_values(d[None, :])[0] for d in dirs])
    np.testing.assert_array_equal(got, one_by_one)
    assert np.isnan(got[-1]) and not np.isnan(got[:-1]).any()


def test_singular_simplex_raises_transversality():
    # the first segment's cone is flat (its vertices are opposite rays), so
    # its vertex matrix has no inverse
    surf = pl.SimplicialHypersurface([[1, 0], [-1, 0], [0, 1]], [(0, 1), (1, 2)])
    for call in (lambda: surf.radial_values([[0.0, 1.0]]),
                 lambda: surf.radial_value([0.0, 1.0]),
                 lambda: pl.log_contour_values(surf, [[0.0, 2.0]]),
                 lambda: pl.log_contour_value(surf, [0.0, 2.0])):
        with pytest.raises(TransversalityError) as err:
            call()
        assert err.value.data["simplex"] == 0
    res = pl.radial_section_check(surf)
    assert not res.ok
    assert res.violations == [{"kind": "transversality", "simplex": 0}]
    assert res.min_transversality == 0.0


def test_radial_values_on_a_cap_past_a_hemisphere():
    # every vertex of this cone lies within 100 degrees of its normalized
    # vertex centroid, but points of the cone lie 160 degrees from it: a cap
    # wider than a hemisphere is not convex, so the simplex is a candidate
    # for every direction
    tri = np.array([[-0.384, -0.908, 0.17], [0.214, 0.974, 0.08],
                    [0.409, -0.186, -0.894]])
    unit = tri / np.linalg.norm(tri, axis=1)[:, None]
    centre = unit.sum(0) / np.linalg.norm(unit.sum(0))
    dirs = np.random.default_rng(3).dirichlet(np.ones(3), 400) @ tri
    angles = np.degrees(np.arccos((dirs @ centre) / np.linalg.norm(dirs, axis=1)))
    assert np.degrees(np.arccos(unit @ centre)).max() < 100.0 < 150.0 < angles.max()
    rho = pl.SimplicialHypersurface(tri, [(0, 1, 2)]).radial_values(dirs)
    np.testing.assert_allclose(rho, 1.0, rtol=1e-12)


def test_section_check_matches_reference_at_scale():
    surf = _ring_surface(512, 6, fold=0.5)
    assert len(surf.simplices) == 987
    res = pl.radial_section_check(surf)
    assert res == _ref_section_check(surf)
    assert any(v["kind"] == "multiplicity" for v in res.violations)


@pytest.mark.parametrize("gap, kept", [(2e-12, True), (2e-11, False)])
def test_hits_within_the_slack_are_kept(gap, kept):
    # three stacked segments: the centroid direction (0, 1) of the lowest
    # (simplex 1) is inside the highest and outside the middle one (simplex
    # 0) by a cone coordinate of about -gap/4; the hit test keeps it when
    # that is above -1e-12
    verts = np.array([[gap, 2.0], [2.0, 2.0], [-1.0, 1.0], [1.0, 1.0],
                      [-3.0, 3.0], [3.0, 3.0]])
    surf = pl.SimplicialHypersurface(verts, [(0, 1), (2, 3), (4, 5)])
    res = pl.radial_section_check(surf)
    assert res == _ref_section_check(surf)
    hits = {v["simplex"]: v["hits"] for v in res.violations}
    assert hits[1] == ([0, 1, 2] if kept else [1, 2])
    # the lowest-numbered simplex holding a direction gives its radius
    rho = surf.radial_values(np.array([[0.0, 1.0], [0.0, 0.5]]))
    np.testing.assert_allclose(rho, [2.0, 4.0] if kept else [1.0, 2.0], rtol=1e-12)
    # the slack is absolute, so a short enough direction hits every simplex
    tiny = surf.radial_values(np.array([[0.0, 1e-290]]))
    np.testing.assert_allclose(tiny, [2e290], rtol=1e-12)


def test_candidates_per_sample_stay_flat():
    # the cap index tests each sample against a bounded number of simplices
    sizes, per_sample = [], []
    for budget in (128, 1024):
        surf = _ring_surface(budget, 3)
        pts = surf.vertices[surf.simplices]
        dirs = (surf._complex.sample_weights(DEFAULT_SEED) @ pts).reshape(-1, 3)
        rows, _ = surf._candidates(dirs)
        sizes.append(len(pts))
        per_sample.append(rows.size / len(dirs))
    assert sizes == [242, 1984]
    assert per_sample[1] <= 1.5 * per_sample[0]
