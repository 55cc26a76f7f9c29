from itertools import product

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from projconvex import domain as dm, plconvex as pl, vinberg as vb
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


def _arc(turn, n, growth=0.0):
    """An open polyline of n segments turning through `turn` about the
    origin, its radius growing from 1 to 1 + growth."""
    theta = np.linspace(0.0, turn, n + 1)
    r = np.linspace(1.0, 1.0 + growth, n + 1)
    return pl.SimplicialHypersurface(r[:, None] * np.stack([np.cos(theta), np.sin(theta)], 1),
                                     [(i, i + 1) for i in range(n)])


@pytest.mark.parametrize("delta", [0.05, 0.01, 0.001])
@pytest.mark.parametrize("n", [8, 12, 24])
def test_open_spirals_are_not_radial_sections(n, delta):
    # rays in the first delta radians meet the spiral twice, however thin
    # that overlap: its end vertices lie in each other's end segments
    surf = _arc(2 * np.pi + delta, n, 0.3)
    res = pl.radial_section_check(surf)
    assert res == _ref_section_check(surf)
    assert res.violations == [{"kind": "multiplicity", "vertex": 0, "hits": [n - 1]},
                              {"kind": "multiplicity", "vertex": n, "hits": [0]}]
    with pytest.raises(TransversalityError):
        pl.certify_generic_convex(surf)


def _ring(angles, radius=0.5, height=1.0):
    return np.stack([radius * np.cos(angles), radius * np.sin(angles),
                     np.full(len(angles), height)], axis=1)


def _winding_star():
    """A cone vertex whose link of 7 vertices winds twice around it."""
    return pl.SimplicialHypersurface(
        np.vstack([[0.0, 0.0, 1.0], _ring(4 * np.pi * np.arange(7) / 7)]),
        [(0, 1 + i, 1 + (i + 1) % 7) for i in range(7)])


def _polygon(turns, m=7):
    """A closed m-gon around the origin going `turns` times round."""
    a = 2 * np.pi * turns * np.arange(m) / m
    return pl.SimplicialHypersurface(np.stack([np.cos(a), np.sin(a)], 1),
                                     [(i, (i + 1) % m) for i in range(m)])


# surfaces that fail the section check, each with the kinds it reports
SECTION_FAULTS = {
    # the third vertex turns back over the first segment
    "fold": (lambda: pl.SimplicialHypersurface([[1.0, 1.0], [0.0, 1.0], [0.5, 2.0]],
                                               [(0, 1), (1, 2)]), {"fold", "multiplicity"}),
    # two triangles whose boundaries cross six times and whose vertices
    # each lie outside the other triangle
    "crossing": (lambda: pl.SimplicialHypersurface(
        _ring(np.arange(6) * np.pi / 3), [(0, 2, 4), (1, 3, 5)]), {"crossing"}),
    "winding": (_winding_star, {"winding", "crossing"}),
    "multiplicity": (lambda: _polygon(2), {"multiplicity"}),
}


@pytest.mark.parametrize("kind", sorted(SECTION_FAULTS))
def test_section_check_names_each_fault(kind):
    make, kinds = SECTION_FAULTS[kind]
    surf = make()
    res = pl.radial_section_check(surf)
    assert res == _ref_section_check(surf)
    assert {v["kind"] for v in res.violations} == kinds


def _equatorial_band(m=12):
    """An annulus of 2m triangles around the vertical axis."""
    a = 2 * np.pi * np.arange(m) / m
    verts = np.vstack([_ring(a, 1.0, -0.3), _ring(a + np.pi / m, 1.0, 0.3)])
    tris = [(i, (i + 1) % m, m + i) for i in range(m)]
    tris += [((i + 1) % m, m + (i + 1) % m, m + i) for i in range(m)]
    return pl.SimplicialHypersurface(verts, tris)


@pytest.mark.parametrize("make", [
    _equatorial_band, lambda: _polygon(1), lambda: _arc(2 * np.pi - 0.01, 24),
    # a vertex no simplex uses is not on the surface, so its ray may meet it
    lambda: pl.SimplicialHypersurface([[-1.0, 2.0], [0.0, 1.0], [1.0, 2.0], [0.1, 3.0]],
                                      [(0, 1), (1, 2)])],
    ids=["band", "polygon", "arc", "unused_vertex"])
def test_section_check_accepts_annuli_polygons_and_arcs(make):
    surf = make()
    res = pl.radial_section_check(surf)
    assert res.ok and res == _ref_section_check(surf)


def test_section_check_needs_chart_dim_at_most_2():
    # the 3-d tests of edge windings and boundary crossings are not written
    surf = pl.SimplicialHypersurface(np.eye(4) + 0.1, [(0, 1, 2, 3)])
    for call in (pl.radial_section_check, pl.certify_generic_convex):
        with pytest.raises(InvalidInputError, match="chart dim <= 2"):
            call(surf)


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
# The deviation column is the closed-form bound of `_face_deviations`.
RING_BUILDS = {
    "disk": (lambda: dm.unit_disk(), 48,
             (848, -1, 0.0002074956270848198, 0.301168506601923)),
    "ellipse": (lambda: dm.ConvexDomain.ellipsoid(np.array([0.1, -0.2]),
                                                  np.diag([1.0, 2.5])), 48,
                (848, -1, 6.317261712252204e-05, 0.5798290692895227)),
    "gon24": (lambda: dm.disk_polygon(24), 48,
              (848, -1, 0.00020684314862308903, 0.30024300779809404)),
    "square": (lambda: dm.square_domain(), 48,
               (848, -1, 1.816180536785121e-05, 0.28862574348118814)),
    "orthant1": (lambda: dm.orthant_domain(1), 16,
                 (28, -1, 0.0014940384832202852, 0.060038593519638556)),
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


def test_simplex_checks_name_the_first_bad_row():
    verts = np.array([[1.0, 1.0], [-1.0, 1.0], [0.0, 2.0]])
    for simplices, got in (([(0, 1), (1, 2, 0), (1,)], 3), ([[]], 0),
                           (np.array([[0, 1, 2]]), 3), ([(0, 1), [2]], 1)):
        with pytest.raises(InvalidInputError,
                           match=f"need 2 vertices, got {got}$"):
            pl.SimplicialHypersurface(verts, simplices)
    for simplices in ([], np.empty((0, 2), dtype=int), np.empty((0, 3))):
        with pytest.raises(InvalidInputError, match="at least one simplex"):
            pl.SimplicialHypersurface(verts, simplices)
    with pytest.raises(InvalidInputError, match="out of range"):
        pl.SimplicialHypersurface(verts, np.array([[0, 1], [1, 3]]))
    for one_column in ([[1.0], [2.0]], np.empty((2, 0))):   # chart dimension < 1
        with pytest.raises(InvalidInputError, match="vertices") as exc:
            pl.SimplicialHypersurface(one_column, [[0], [1]])
        assert exc.value.data["vertices"] == np.shape(one_column)
    # an index array and a list of tuples give the same complex
    a = pl.SimplicialHypersurface(verts, np.array([[0, 1], [1, 2]]))
    b = pl.SimplicialHypersurface(verts, [(0, 1), (1, 2)])
    assert a.simplices.dtype == b.simplices.dtype
    assert np.array_equal(a.simplices, b.simplices)


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


def _ref_det(rows):
    """Determinant of one matrix, its rows as sequences of floats, by cofactor
    expansion along the first row in Python floats."""
    rows = [[float(x) for x in r] for r in rows]
    if len(rows) == 1:
        return rows[0][0]
    terms = [x * _ref_det([r[:j] + r[j + 1:] for r in rows[1:]])
             for j, x in enumerate(rows[0])]
    total = terms[0]
    for j, term in enumerate(terms[1:], 1):
        total = total - term if j % 2 else total + term
    return total


def _ref_inverse(rows):
    """Inverse of one matrix as nested lists: its adjugate over `_ref_det`."""
    rows = [[float(x) for x in r] for r in rows]
    det, k = _ref_det(rows), len(rows)
    return [[(-1) ** (i + j) * _ref_det([r[:i] + r[i + 1:] for r in rows[:j] + rows[j + 1:]])
             / det for j in range(k)] for i in range(k)]


def _ref_oriented_det(surf, si, u):
    def sign(pts):
        return float(np.sign(_ref_det(pts)))
    pts = surf.vertices[surf.simplices[si]]
    return (sign(surf.vertices[surf.simplices[0]]) * sign(pts)
            * _ref_det(pts - surf.vertices[u]))


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


def _ref_sign(cols):
    """Sign of det(cols), 0 within TOL.coplanarity times Hadamard's bound."""
    d = _ref_det(cols)
    return 0.0 if abs(d) <= TOL.coplanarity * np.prod(np.linalg.norm(cols, axis=1)) else np.sign(d)


def _ref_section_check(surf):
    """The section check one facet, vertex, edge pair and simplex at a time:
    folds by fresh facet determinants, windings by tangent-vector angles,
    crossings by the four determinant signs of each boundary edge pair, and
    multiplicity by cone coordinates of each vertex in each simplex."""
    mats = [surf.vertices[s] for s in surf.simplices]
    trans = [abs(_ref_det(m)) / max(np.prod(np.linalg.norm(m, axis=1)), 1e-300)
             for m in mats]
    violations = [{"kind": "transversality", "simplex": si}
                  for si, d in enumerate(trans) if d <= 1e-10]
    if violations:
        return pl.RadialSectionResult(False, violations, float(min(trans)))
    verts, simplices = surf.vertices, surf.simplices.tolist()
    pairs, boundary = _ref_complex(surf)
    for sj, sk, f in pairs:
        face = [verts[i] for i in sorted(f)]
        w, u = (set(simplices[sj]) - f).pop(), (set(simplices[sk]) - f).pop()
        if np.sign(_ref_det(face + [verts[w]])) == np.sign(_ref_det(face + [verts[u]])):
            violations.append({"kind": "fold", "simplices": [sj, sk]})
    edges = []
    if surf.simplices.shape[1] == 3:
        for v in range(len(verts)):
            p = verts[v] / np.linalg.norm(verts[v])
            total = 0.0
            for s in simplices:
                if v in s:
                    a, b = (verts[i] - (verts[i] @ p) * p for i in s if i != v)
                    total += np.arccos(np.clip(a @ b / np.linalg.norm(a) / np.linalg.norm(b),
                                               -1.0, 1.0))
            if total >= (2.0 if v in boundary else 3.0) * np.pi:
                violations.append({"kind": "winding", "vertex": v})
        faces = {}
        for s in simplices:
            for drop in range(3):
                faces.setdefault(frozenset(s[:drop] + s[drop + 1:]), []).append(
                    s[:drop] + s[drop + 1:])
        edges = [e[0] for e in faces.values() if len(e) == 1]
    for i, (p, q) in enumerate(edges):
        for c, d in edges[i + 1:]:
            if {p, q} & {c, d}:
                continue
            s_c, s_d, s_p, s_q = (_ref_sign([verts[x], verts[y], verts[z]]) for x, y, z in
                                  ((p, q, c), (p, q, d), (c, d, p), (c, d, q)))
            if s_c * s_d < 0 and s_p * s_q < 0 and s_d == s_p:
                violations.append({"kind": "crossing", "edges": [[p, q], [c, d]]})
    invs = [_ref_inverse(m.T) for m in mats]
    for v in sorted(set(surf.simplices.ravel().tolist())):
        lams = [[sum(a * x for a, x in zip(row, verts[v].tolist())) for row in inv]
                for inv in invs]
        hits = [si for si, lam in enumerate(lams)
                if min(lam) >= -1e-12 and sum(lam) > 0 and v not in simplices[si]]
        if hits:
            violations.append({"kind": "multiplicity", "vertex": v, "hits": hits})
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


def _kernel_stack(rng, k, n):
    """n k x k matrices with singular values 1 down to 1e-9 in random frames
    and n with normal entries, each scaled by 1e-6 to 1e6."""
    frames = [np.linalg.qr(rng.normal(size=(n, k, k)))[0] for _ in range(2)]
    sv = np.sort(10.0 ** rng.uniform(-9, 0, size=(n, k)), axis=1)[:, ::-1]
    sv[:, 0] = 1.0
    m = np.concatenate([np.einsum("nij,nj,nkj->nik", frames[0], sv, frames[1]),
                        rng.normal(size=(n, k, k))])
    return m * 10.0 ** rng.uniform(-6, 6, size=(2 * n, 1, 1))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_cofactor_kernels(k):
    # cofactor expansion errs by at most k(k + 1)/2 - 1 rounding units times
    # the permanent of |m|, at most k^(k/2) times Hadamard's bound H: below
    # 72 eps H for k <= 4, and LAPACK's LU about as much; the inverse,
    # adjugate over determinant, leaves a residual of a few k^2 eps times
    # g = |m|_F^k / |det m| (see `_SurfaceStack._candidates`)
    eps = np.finfo(float).eps
    m = _kernel_stack(np.random.default_rng([k, 30]), k, 2000)
    det = pl._det(m)
    hadamard = np.prod(np.linalg.norm(m, axis=2), axis=1)
    assert (np.abs(det - np.linalg.det(m)) <= 200 * eps * hadamard).all()
    inv = pl._adjugate(m) / det[:, None, None]
    g = np.einsum("nij,nij->n", m, m) ** (k / 2) / np.abs(det)
    assert (np.abs(inv @ m - np.eye(k)).max(axis=(1, 2)) <= k ** 3 * eps * g).all()
    # a stacked matrix gets the value it gets alone
    stacked = m[:24].reshape(4, 6, k, k)
    one = [(pl._det(a), pl._adjugate(a)) for a in m[:24]]
    assert np.array_equal(pl._det(stacked).ravel(), [d for d, _ in one])
    assert np.array_equal(pl._adjugate(stacked).reshape(24, k, k), [a for _, a in one])


@pytest.mark.parametrize("k", [3, 4])
def test_degeneracy_screen_keeps_the_svd_rule(k, monkeypatch):
    # simplices whose least edge singular value runs from 0.1e-10 to 10e-10
    # times the longest edge, at scales 1e-6 to 1e6: the screen clears the
    # plainly flat-free ones and the rest get the SVD rule, so `degenerate`
    # is the rule's verdict on every one
    rng = np.random.default_rng([k, 31])
    n = 400
    frames = np.linalg.qr(rng.normal(size=(n, k, k)))[0]
    sv = np.ones((n, k - 1))
    sv[:, 1:] = 10.0 ** rng.uniform(-3, 0, size=(n, k - 2))
    sv[:, -1] = np.geomspace(1e-11, 1e-9, n)
    edges = sv[:, :, None] * frames[:, :k - 1] * 10.0 ** rng.uniform(-6, 6, size=(n, 1, 1))
    base = rng.normal(size=(n, 1, k)) * np.linalg.norm(edges, axis=2).max(axis=1)[:, None, None]
    verts = np.concatenate([base, base + edges], axis=1).reshape(n * k, k)
    stack = pl._SurfaceStack(pl._Complex(np.arange(n * k).reshape(n, k), n * k), verts[None])
    got = stack.pts[0, :, 1:] - stack.pts[0, :, :1]
    rule = (np.linalg.svd(got, compute_uv=False)[:, -1]
            <= 1e-10 * np.linalg.norm(got, axis=2).max(axis=1))
    assert np.array_equal(stack.degenerate[0], rule)
    assert 0 < rule.sum() < n
    # a mesh of well-shaped simplices takes no SVD at all

    def no_svd(*args, **kwargs):
        raise AssertionError("the screen left a well-shaped simplex")

    cross = np.vstack([np.eye(k), -np.eye(k)])
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    pl.SimplicialHypersurface(cross, ConvexHull(cross).simplices)
    REFERENCE_MESHES["ring48"]()


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


def _radius_loop(surf, trials, seed):
    """perturbation_radius computed one determinant bound and one perturbed
    surface at a time: each trial draws its displacement and certifies its
    own surface."""
    cert = pl.certify_generic_convex(surf)
    checks = [(si, u) for v in surf.interior_vertices()
              for si, u, _ in _ref_vertex_convexity(surf, v).determinants]
    if not checks:
        checks = [(sj, next(iter(set(surf.simplices[sk].tolist()) - f)))
                  for sj, sk, f in _ref_complex(surf)[0]]
    bound = 0.0
    for si, u in checks:
        norms = np.linalg.norm(surf.vertices[surf.simplices[si]] - surf.vertices[u], axis=1)
        prod = np.prod(norms)
        bound = max(bound, 2.0 * sum(prod / max(n, 1e-300) for n in norms))
    eps = cert.margin / (2.0 * bound)
    rng = np.random.default_rng(seed)

    def recertified(scale):
        disp = rng.normal(size=surf.vertices.shape)
        disp *= scale * eps / np.linalg.norm(disp, axis=1)[:, None]
        try:
            c2 = pl.certify_generic_convex(surf.with_vertices(surf.vertices + disp))
        except (TransversalityError, InvalidInputError):
            return False
        return c2.ok and c2.sign == cert.sign

    passes = sum(recertified(0.9) for _ in range(trials))
    failed_10x = not all(recertified(10.0) for _ in range(20))
    return pl.PerturbationResult(eps, bound, passes, trials, failed_10x)


RADIUS_SURFACES = {
    "polyline": REFERENCE_MESHES["polyline"],
    "ring_2_8": lambda: _ring_surface(17, 1),
    "ring_3_12": lambda: _ring_surface(37, 2),
    "strip": _strip,
}


@pytest.mark.parametrize("name", sorted(RADIUS_SURFACES))
def test_perturbation_radius_matches_the_trial_loop(name):
    surf = RADIUS_SURFACES[name]()
    results = []
    for seed, trials in ((DEFAULT_SEED, 100), (5, 30), (11, 1)):
        res = pl.perturbation_radius(surf, trials=trials, seed=seed)
        assert res == _radius_loop(surf, trials, seed)
        assert type(res.reverify_passes) is int and type(res.failed_at_10x) is bool
        results.append(res)
    # ten times the certified radius breaks the polyline's certificate
    assert results[0].failed_at_10x == (name == "polyline")


def _ring_rows():
    """Vertex arrays on the complex of a ring surface, one per verdict of the
    loop: passes, a degenerate simplex, a cone through the origin, a
    degenerate simplex pinched to the origin that is still transversal, a
    non-finite coordinate, a dent, a fold and the opposite sign."""
    surf = _ring_surface(37, 2)
    v = surf.vertices
    rng = np.random.default_rng(3)
    a, b, c = surf.simplices[5]
    rows = [v, v + 1e-6 * rng.normal(size=v.shape)] + [v.copy() for _ in range(4)]
    rows[2][a] = v[b]
    rows[3][a] = v[b] - v[c]
    rows[4][a] = 1e-11 * v[a] / np.linalg.norm(v[a])
    rows[4][b] = rows[4][a] + 1e-11 * np.cross(v[a], v[c]) / np.linalg.norm(np.cross(v[a], v[c]))
    rows[5][a, 0] = np.nan
    i = surf.interior_vertices()[3]
    rows += [v * np.where(np.arange(len(v)) == i, 0.9, 1.0)[:, None], v.copy(), -v]
    turn = np.array([[np.cos(0.6), np.sin(0.6)], [-np.sin(0.6), np.cos(0.6)]])
    rows[-2][i, :2] = v[i, :2] @ turn
    rows.append(v + 1e-6 * rng.normal(size=v.shape))
    return surf, rows, ["pass", "pass", "InvalidInputError", "TransversalityError",
                        "InvalidInputError", "InvalidInputError", "fail",
                        "TransversalityError", "sign", "pass"]


def _arc_rows():
    """Two convex arcs of three segments each: apart, and turned to lie
    over one another, so that rays meet both while every star stays convex."""
    def arcs(turn):
        a, b = np.linspace(0.3, 1.2, 4), np.linspace(1.5, 2.4, 4) - turn
        return np.vstack([np.stack([np.cos(a), np.sin(a)], 1),
                          1.5 * np.stack([np.cos(b), np.sin(b)], 1)])
    surf = pl.SimplicialHypersurface(arcs(0.0), [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
    return surf, [arcs(0.0), arcs(1.0)], ["pass", "TransversalityError"]


@pytest.mark.parametrize("make", [_ring_rows, _arc_rows], ids=["ring", "arcs"])
def test_stacked_verdicts_match_certificates_row_by_row(make):
    surf, rows, kinds = make()
    sign = pl.certify_generic_convex(surf).sign
    outcomes = [_outcome(lambda w: pl.certify_generic_convex(surf.with_vertices(w)), w)
                for w in rows]
    assert kinds == ["pass" if isinstance(o, pl.ConvexityCertificate) and o.ok and o.sign == sign
                     else "sign" if isinstance(o, pl.ConvexityCertificate) and o.ok
                     else "fail" if isinstance(o, pl.ConvexityCertificate) else o[0]
                     for o in outcomes]
    # the stacked degeneracy check flags the finite rows that with_vertices
    # rejects, and a failing row leaves the other rows' verdicts unchanged
    rows = np.stack(rows)
    finite = np.isfinite(rows).all(axis=(1, 2))
    stack = pl._SurfaceStack(surf._complex, rows[finite])
    assert stack.degenerate.any(axis=1).tolist() == [
        k == "InvalidInputError" for k, f in zip(kinds, finite) if f]
    passed = pl._recertified(surf._complex, rows, sign)
    assert passed.tolist() == [k == "pass" for k in kinds]
    alone = [pl._recertified(surf._complex, w[None], sign)[0] for w in rows]
    assert passed.tolist() == alone


@pytest.mark.parametrize("name", ["polyline", "ring_2_8"])
def test_perturbation_radius_across_trial_blocks(monkeypatch, name):
    surf = RADIUS_SURFACES[name]()
    blocks = []
    recertified = pl._recertified
    monkeypatch.setattr(pl, "_recertified",
                        lambda cx, verts, sign: blocks.append(len(verts))
                        or recertified(cx, verts, sign))
    res = pl.perturbation_radius(surf, trials=50, seed=9)
    assert sum(blocks) == 70 and (len(blocks) >= 2) == (name == "ring_2_8")
    for chunk in (1, 1 << 30):   # one trial per block, then one block
        blocks.clear()
        monkeypatch.setattr(pl, "_SECTION_CHUNK", chunk)
        assert pl.perturbation_radius(surf, trials=50, seed=9) == res
        assert blocks == ([1] * 70 if chunk == 1 else [70])
    assert res.reverify_passes == 50 and res.failed_at_10x == (name == "polyline")


@pytest.mark.parametrize("trials", [0, -5])
def test_perturbation_radius_needs_a_trial(polyline, trials):
    with pytest.raises(InvalidInputError) as err:
        pl.perturbation_radius(polyline, trials=trials)
    assert err.value.data == {"trials": trials}


def _block_straddlers(surf, dirs):
    """Candidate-pair count of dirs and the rows whose pairs fall in two
    blocks of the pair kernel (blocks of _SECTION_CHUNK gathered inverse
    entries, so _SECTION_CHUNK // k^2 pairs each)."""
    rows, _ = surf._stack._candidates(dirs[None])
    step = pl._SECTION_CHUNK // surf.simplices.shape[1] ** 2
    return rows.size, [int(rows[b]) for b in range(step, rows.size, step)
                       if rows[b - 1] == rows[b]]


def test_section_check_across_chunks():
    # an arc of 400 short segments under an arc of 4 long ones: vertices
    # under the outer arc meet it, and the long segments' wide caps give
    # every vertex dozens of candidate simplices, so the candidate pairs fill
    # more than one block of the pair kernel
    inner = np.linspace(0.3, 2.8, 401)
    outer = np.linspace(1.0, 2.6, 5)
    verts = np.vstack([np.stack([np.cos(inner), np.sin(inner)], 1),
                       2.0 * np.stack([np.cos(outer), np.sin(outer)], 1)])
    segs = [(i, i + 1) for i in range(400)] + [(401 + i, 402 + i) for i in range(4)]
    surf = pl.SimplicialHypersurface(verts, segs)
    pairs, split = _block_straddlers(surf, surf.vertices)
    assert pairs * surf.simplices.shape[1] ** 2 > pl._SECTION_CHUNK
    res = pl.radial_section_check(surf)
    assert res == _ref_section_check(surf)
    # a violating vertex has its pairs in two blocks
    assert set(split) & {v["vertex"] for v in res.violations}


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
    assert pairs * surf.simplices.shape[1] ** 2 > pl._SECTION_CHUNK
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
    # the vertices fill more than one block of the candidate search
    assert len(surf.vertices) > pl._SECTION_CHUNK // len(surf.simplices)
    assert any(v["kind"] == "multiplicity" for v in res.violations)


@pytest.mark.parametrize("gap, kept", [(2e-12, True), (2e-11, False)])
def test_hits_within_the_slack_are_kept(gap, kept):
    # three stacked segments: the ray of vertex 2, (0, 1), is inside the
    # highest (simplex 2) and outside the first one (simplex 0) by a cone
    # coordinate of about -gap/4; the hit test keeps it when that is above
    # -1e-12
    verts = np.array([[gap, 2.0], [2.0, 2.0], [0.0, 1.0], [1.0, 1.0],
                      [-3.0, 3.0], [3.0, 3.0]])
    surf = pl.SimplicialHypersurface(verts, [(0, 1), (2, 3), (4, 5)])
    res = pl.radial_section_check(surf)
    assert res == _ref_section_check(surf)
    hits = {v["vertex"]: v["hits"] for v in res.violations}
    assert hits[2] == ([0, 2] if kept else [2])
    # the lowest-numbered simplex holding a direction gives its radius
    rho = surf.radial_values(np.array([[0.0, 1.0], [0.0, 0.5]]))
    np.testing.assert_allclose(rho, [2.0, 4.0] if kept else [1.0, 2.0], rtol=1e-12)
    # the slack is absolute, so a short enough direction hits every simplex
    tiny = surf.radial_values(np.array([[0.0, 1e-290]]))
    np.testing.assert_allclose(tiny, [2e290], rtol=1e-12)


def test_candidates_per_vertex_stay_flat():
    # the cap index tests each vertex against a bounded number of simplices
    sizes, per_vertex = [], []
    for budget in (128, 1024):
        surf = _ring_surface(budget, 3)
        rows, _ = surf._stack._candidates(surf.vertices[None])
        sizes.append(len(surf.simplices))
        per_vertex.append(rows.size / len(surf.vertices))
    assert sizes == [242, 1984]
    assert per_vertex[1] <= 1.5 * per_vertex[0]


def _disk_mesh_loop(dom, budget):
    """The ring sampler with one chord query per direction."""
    _, centroid, _ = dom.backend.moments()
    rings = max(1, int(round(np.sqrt(budget / 4.0))))
    angles = max(6, int(np.ceil((budget - 1) / rings)))
    pts = [centroid]
    for j in range(1, rings + 1):
        ang = 2 * np.pi * (np.arange(angles) + 0.5 * (j % 2)) / angles
        frac = pl._INSET * j / rings
        for u in np.stack([np.cos(ang), np.sin(ang)], axis=1):
            _, t_hi = dom.backend.chord_params(centroid, u)
            pts.append(centroid + frac * t_hi * u)
    return np.array(pts)


@pytest.mark.parametrize("make", [
    dm.unit_disk, dm.square_domain, dm.triangle_domain,
    lambda: dm.disk_polygon(24),
    lambda: dm.ConvexDomain.ellipsoid([0.1, -0.2], [[1.0, 0.3], [0.3, 2.5]])],
    ids=["disk", "square", "triangle", "gon24", "ellipse"])
def test_disk_mesh_is_the_per_direction_sampler(make):
    # one array chord query gives, bit for bit, the per-direction samples
    dom = make()
    for budget in (1, 9, 48, 200, 1000):
        assert np.array_equal(pl._disk_mesh(dom, budget),
                              _disk_mesh_loop(dom, budget))


def _barycentric_grid(k, steps):
    """Barycentric weights of the grid with `steps` steps per edge on a
    simplex with k = 2 or 3 vertices."""
    if k == 2:
        s = np.linspace(0.0, 1.0, steps + 1)
        return np.stack([1.0 - s, s], axis=1)
    i, j = np.nonzero(np.add.outer(np.arange(steps + 1), np.arange(steps + 1)) <= steps)
    return np.stack([steps - i - j, i, j], axis=1) / steps


def _face_gaps(surf, radius, steps):
    """Largest radial gap |x| - r(x / |x|) in absolute value over a
    barycentric grid of each face, r the characteristic surface's radius
    along each row of a stack of unit directions."""
    x = np.einsum("gj,tjn->tgn", _barycentric_grid(surf.simplices.shape[1], steps),
                  surf.vertices[surf.simplices])
    norms = np.linalg.norm(x, axis=2)
    exact = radius((x / norms[..., None]).reshape(-1, x.shape[2])).reshape(norms.shape)
    return np.abs(norms - exact).max(axis=1)


def _face_bounds(res, cone):
    """Each face's bound in a build, from the fiber pass on its vertices'
    directions; their largest is the reported bound."""
    surf = res.surface
    on_s, tangents, ok = vb._characteristic_rows(cone, surf.vertices)
    bounds = pl._face_deviations(surf.vertices, np.linalg.norm(on_s, axis=1), tangents,
                                 surf.simplices)
    assert ok.all()
    assert bounds.max() == pytest.approx(res.deviation_bound, rel=1e-12)
    return bounds


def _quadric_radius(center, shape):
    """Radius of the characteristic surface of the ellipse {(x - c)^T M
    (x - c) <= 1} in the standard chart, in closed form: the disk's is the
    hyperboloid z^2 - x^2 - y^2 = (3 / pi)^(2/3), and the affine map
    (x, z) -> (M^(-1/2) x + c z, z) carries it, scaled by det(M)^(1/6), to
    the ellipse's."""
    scale = (3.0 / np.pi) ** (1.0 / 3.0) * np.linalg.det(shape) ** (1.0 / 6.0)

    def radius(u):
        x = u[:, :2] - np.outer(u[:, 2], center)
        return scale / np.sqrt(u[:, 2] ** 2 - np.einsum("ki,ij,kj->k", x, shape, x))
    return radius


@pytest.mark.parametrize("center, shape", [
    ([0.0, 0.0], np.eye(2)), ([0.1, -0.2], [[1.0, 0.3], [0.3, 2.5]])],
    ids=["disk", "ellipse"])
@pytest.mark.parametrize("budget", [24, 48, 200])
def test_deviation_bound_holds_on_quadric_surfaces(center, shape, budget):
    # every face's bound is at least its largest gap to the closed-form surface
    dom = dm.ConvexDomain.ellipsoid(center, shape)
    res = pl.pl_characteristic_surface(dom, budget)
    gaps = _face_gaps(res.surface, _quadric_radius(np.array(center), np.array(shape)), 60)
    assert (_face_bounds(res, dom.cone()) >= gaps).all()
    assert res.deviation_bound >= gaps.max()


@pytest.mark.parametrize("make, budget, rounds", [
    (dm.triangle_domain, 200, 0), (lambda: dm.orthant_domain(2), 48, 1),
    (dm.triangle_domain, 48, 1), (lambda: dm.orthant_domain(1), 16, 0),
    (lambda: dm.ConvexDomain.from_vertices([[-0.6], [0.8]]), 16, 0)],
    ids=["triangle", "orthant2", "triangle-jittered", "orthant1", "segment"])
def test_deviation_bound_holds_on_a_solved_grid(make, budget, rounds):
    # the sampled edge midpoints read 0.050 and 0.090 on the first two, under
    # gaps of 0.407 and 0.323; the jittered build's vertices are off the
    # surface, and its bound covers that too
    dom = make()
    cone = dom.cone()
    res = pl.pl_characteristic_surface(dom, budget, seed=1)
    assert res.jitter_rounds == rounds
    steps = 20 if dom.dim == 2 else 200

    def radius(u):
        return np.linalg.norm(vb.characteristic_points(cone, u), axis=1)
    gaps = _face_gaps(res.surface, radius, steps)
    assert (_face_bounds(res, cone) >= gaps).all()
    assert res.deviation_bound >= gaps.max()


@pytest.mark.parametrize("make, budget", [
    (dm.unit_disk, 24), (dm.triangle_domain, 48), (lambda: dm.orthant_domain(1), 16)],
    ids=["disk", "triangle", "orthant1"])
def test_face_deviations_solve_the_face_game(make, budget):
    # the closed-form candidates find v = max over the face of min_i l_i.x,
    # the value of the game with payoffs A[i, j] = l_i.p_j, as an LP solves it
    cone = make().cone()
    surf = pl.pl_characteristic_surface(cone, budget, seed=1).surface
    on_s, tangents, _ = vb._characteristic_rows(cone, surf.vertices)
    bounds = pl._face_deviations(surf.vertices, np.linalg.norm(on_s, axis=1), tangents,
                                 surf.simplices)
    k = surf.simplices.shape[1]
    for face, bound in zip(surf.simplices, bounds):
        corners = surf.vertices[face]
        a = tangents[face] @ corners.T
        # maximize z subject to z <= (A lam)_i, lam >= 0, sum(lam) = 1
        lp = linprog(np.r_[np.zeros(k), -1.0], A_ub=np.c_[-a, np.ones(k)],
                     b_ub=np.zeros(k), A_eq=np.r_[np.ones(k), 0.0][None],
                     b_eq=[1.0], bounds=[(0, None)] * k + [(None, None)])
        want = np.linalg.norm(corners, axis=1).max() * (1.0 + 1.0 / lp.fun)
        assert bound == pytest.approx(want, rel=1e-9, abs=1e-12)
