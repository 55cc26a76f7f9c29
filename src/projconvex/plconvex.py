"""PL hypersurfaces inside cones: radial sections, the determinant test for
local convexity, certified perturbation radii, outward flow checks, radial
log-contours, and PL approximation of the characteristic surface.

Simplices are oriented radially (positive determinant of the vertex matrix);
reported determinants are rescaled by the stored chirality of the first
simplex so hand-computed values in the input ordering are reproduced.
"""

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_SEED, TOL
from .domain import ConvexDomain, validate
from .errors import (
    ApproximationFailureError,
    CoplanarStarError,
    GeometryError,
    InvalidInputError,
    NonManifoldComplexError,
    TransversalityError,
)
from .vinberg import characteristic_point


class SimplicialHypersurface:
    """Flat-simplex hypersurface in R^{n+1}: vertices plus top-simplex tuples.

    Every facet shared by at most two simplices; facets on one simplex form
    the marked boundary.
    """

    def __init__(self, vertices, simplices):
        v = np.atleast_2d(np.asarray(vertices, dtype=float))
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("non-finite vertex coordinates")
        self.vertices = v
        self.simplices = [tuple(int(i) for i in s) for s in simplices]
        n1 = v.shape[1]
        for s in self.simplices:
            if len(s) != n1:
                raise InvalidInputError(
                    f"hypersurface simplices need {n1} vertices, got {len(s)}")
        self._build_adjacency()
        self._check_nondegenerate()
        self._inv_stack = None
        self._chirality = None

    # -- combinatorics

    def _build_adjacency(self):
        facets = {}
        for si, s in enumerate(self.simplices):
            for drop in range(len(s)):
                f = frozenset(s[:drop] + s[drop + 1:])
                facets.setdefault(f, []).append(si)
        for f, owners in facets.items():
            if len(owners) > 2:
                raise NonManifoldComplexError(
                    "facet shared by more than two simplices",
                    facet=sorted(f))
        self.facet_owners = facets
        self.boundary_facets = [f for f, o in facets.items() if len(o) == 1]
        bverts = set()
        for f in self.boundary_facets:
            bverts.update(f)
        self.boundary_vertices = bverts
        self._star = {}
        for si, s in enumerate(self.simplices):
            for vi in s:
                self._star.setdefault(vi, []).append(si)

    @property
    def closed(self):
        return not self.boundary_facets

    def star(self, v):
        return self._star.get(v, [])

    def link_vertices(self, v):
        out = set()
        for si in self.star(v):
            out.update(self.simplices[si])
        out.discard(v)
        return out

    def interior_vertices(self):
        return [v for v in range(self.vertices.shape[0])
                if v in self._star and v not in self.boundary_vertices]

    def adjacent_pairs(self):
        for f, owners in self.facet_owners.items():
            if len(owners) == 2:
                yield owners[0], owners[1], f

    # -- geometry

    def _check_nondegenerate(self):
        for si, s in enumerate(self.simplices):
            pts = self.vertices[list(s)]
            edges = pts[1:] - pts[0]
            scale = max(np.max(np.linalg.norm(edges, axis=1)), 1e-300)
            sv = np.linalg.svd(edges, compute_uv=False)
            if sv[-1] <= 1e-10 * scale:
                raise InvalidInputError(
                    "degenerate simplex: edge vectors nearly dependent",
                    simplex=si)

    def _vertex_matrix(self, si):
        return self.vertices[list(self.simplices[si])].T

    def inv_stack(self):
        if self._inv_stack is None:
            mats = np.stack([self._vertex_matrix(si)
                             for si in range(len(self.simplices))])
            self._inv_stack = np.linalg.inv(mats)
        return self._inv_stack

    def radial_sign(self, si):
        d = np.linalg.det(self._vertex_matrix(si))
        return 0.0 if d == 0.0 else float(np.sign(d))

    def chirality(self):
        """Sign relating the first simplex's stored order to the radial one."""
        if self._chirality is None:
            s = self.radial_sign(0)
            if s == 0.0:
                raise TransversalityError("first simplex has a degenerate ray cone")
            self._chirality = s
        return self._chirality

    def radial_values(self, dirs):
        """PL radius of the surface along each direction; nan when uncovered."""
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        lam = np.einsum("mij,kj->kmi", self.inv_stack(), dirs)
        ok = np.all(lam >= -1e-12, axis=2)
        sums = lam.sum(axis=2)
        valid = ok & (sums > 1e-300)
        out = np.full(dirs.shape[0], np.nan)
        for k in range(dirs.shape[0]):
            idx = np.nonzero(valid[k])[0]
            if idx.size:
                out[k] = 1.0 / sums[k, idx[0]]
        return out

    def radial_value(self, u):
        r = self.radial_values(np.asarray(u, dtype=float)[None, :])[0]
        if np.isnan(r):
            raise InvalidInputError("direction not covered by the surface")
        return float(r)

    def scaled(self, factor):
        return SimplicialHypersurface(self.vertices * factor, self.simplices)

    def to_json(self):
        return {"vertices": self.vertices.tolist(),
                "simplices": [list(s) for s in self.simplices]}


# ---------------------------------------------------------------------------
# radial sections


@dataclass
class RadialSectionResult:
    ok: bool
    violations: list
    min_transversality: float


def radial_section_check(surf: SimplicialHypersurface,
                         samples_per_simplex: int = 3,
                         seed: int = DEFAULT_SEED) -> RadialSectionResult:
    """Does every ray from the origin meet the surface exactly once?

    Per-simplex transversality (origin off the affine hull, by the vertex
    determinant) plus injectivity of the radial projection on seeded interior
    sample points with exact per-simplex cone membership.
    """
    violations = []
    min_trans = np.inf
    mats = [surf._vertex_matrix(si) for si in range(len(surf.simplices))]
    for si, m in enumerate(mats):
        scale = np.prod(np.linalg.norm(m, axis=0))
        d = abs(np.linalg.det(m)) / max(scale, 1e-300)
        min_trans = min(min_trans, d)
        if d <= 1e-10:
            violations.append({"kind": "transversality", "simplex": si})
    if violations:
        return RadialSectionResult(False, violations, float(min_trans))
    rng = np.random.default_rng(seed)
    inv = surf.inv_stack()
    for si, s in enumerate(surf.simplices):
        pts = surf.vertices[list(s)]
        k = len(s)
        weights = np.vstack([np.full(k, 1.0 / k),
                             rng.dirichlet(np.full(k, 4.0), size=samples_per_simplex - 1)])
        for w in weights:
            d = w @ pts
            lam = np.einsum("mij,j->mi", inv, d)
            hits = np.nonzero(np.all(lam >= -1e-12, axis=1)
                              & (lam.sum(axis=1) > 0))[0]
            strict = [h for h in hits if np.all(lam[h] > 1e-9)]
            if len(strict) > 1 or (not strict and len(hits) > 2):
                violations.append({"kind": "multiplicity", "simplex": si,
                                   "hits": [int(h) for h in hits]})
                break
    return RadialSectionResult(not violations, violations, float(min_trans))


# ---------------------------------------------------------------------------
# determinant convexity test


@dataclass
class VertexConvexity:
    sign: int
    margin: float
    determinants: list  # (simplex index, test vertex index, value)


def _oriented_det(surf, si, u_idx):
    pts = surf.vertices[list(surf.simplices[si])]
    u = surf.vertices[u_idx]
    d = np.linalg.det((pts - u).T)
    return surf.chirality() * surf.radial_sign(si) * d


def vertex_convexity(surf: SimplicialHypersurface, v: int,
                     link_scope: str = "all") -> VertexConvexity:
    """Sign-consistency of the star determinants at an interior vertex.

    For every top simplex in the star and every link vertex outside it (or,
    with link_scope="adjacent", only the vertices opposite its facets), the
    determinant of (simplex vertices - test vertex) must have one sign.
    """
    if v in surf.boundary_vertices or v not in surf._star:
        raise InvalidInputError("vertex is not interior to the complex", vertex=v)
    star = surf.star(v)
    link = surf.link_vertices(v)
    dets = []
    for si in star:
        simplex = set(surf.simplices[si])
        if link_scope == "adjacent":
            tests = set()
            for sj, sk, f in surf.adjacent_pairs():
                if si in (sj, sk) and v in f:
                    other = sk if si == sj else sj
                    tests.update(set(surf.simplices[other]) - simplex)
            tests &= link
        else:
            tests = link - simplex
        for u in sorted(tests):
            val = _oriented_det(surf, si, u)
            if abs(val) <= TOL.coplanarity and _is_adjacent(surf, si, u):
                raise CoplanarStarError(
                    "adjacent simplices are coplanar",
                    simplex=si, vertex=u, determinant=val)
            dets.append((si, u, float(val)))
    if not dets:
        return VertexConvexity(0, 0.0, [])
    signs = {int(np.sign(d)) for _, _, d in dets}
    if len(signs) != 1 or 0 in signs:
        return VertexConvexity(0, float(min(abs(d) for _, _, d in dets)), dets)
    return VertexConvexity(signs.pop(),
                           float(min(abs(d) for _, _, d in dets)), dets)


def _is_adjacent(surf, si, u_idx):
    simplex = set(surf.simplices[si])
    for sj, sk, f in surf.adjacent_pairs():
        if si in (sj, sk):
            other = sk if si == sj else sj
            if u_idx in set(surf.simplices[other]) - simplex:
                return True
    return False


@dataclass
class ConvexityCertificate:
    ok: bool
    sign: int
    margin: float
    checks: int
    violations: list = field(default_factory=list)

    def to_json(self):
        return {"ok": self.ok, "sign": self.sign, "margin": self.margin,
                "checks": self.checks, "violations": self.violations}


def certify_generic_convex(surf: SimplicialHypersurface,
                           link_scope: str = "all") -> ConvexityCertificate:
    """Global convexity certificate: radial section, a single determinant sign
    across all interior vertex stars, and no coplanar adjacent pair."""
    rs = radial_section_check(surf)
    if not rs.ok:
        raise TransversalityError("surface is not a radial section",
                                  violations=rs.violations)
    violations = []
    for sj, sk, f in surf.adjacent_pairs():
        u = next(iter(set(surf.simplices[sk]) - f))
        val = _oriented_det(surf, sj, u)
        if abs(val) <= TOL.coplanarity:
            violations.append({"kind": "coplanarity", "simplices": [sj, sk],
                               "determinant": float(val)})
    per_vertex = {}
    dets = []
    for v in surf.interior_vertices():
        try:
            vc = vertex_convexity(surf, v, link_scope=link_scope)
        except CoplanarStarError as exc:
            violations.append({"kind": "coplanarity", "vertex": v, **exc.data})
            continue
        if vc.sign == 0 and vc.determinants:
            violations.append({"kind": "vertex", "vertex": v,
                               "determinants": vc.determinants})
        per_vertex[v] = vc
        dets.extend(vc.determinants)
    # one orientation sign must work globally; minority vertices are flagged
    pos = sum(1 for _, _, d in dets if d > 0)
    neg = sum(1 for _, _, d in dets if d < 0)
    majority = 1 if pos >= neg else -1
    for v, vc in per_vertex.items():
        if vc.sign != 0 and vc.sign != majority:
            violations.append({"kind": "vertex", "vertex": v,
                               "determinants": vc.determinants})
    if violations:
        return ConvexityCertificate(False, 0, 0.0, len(dets), violations)
    margin = float(min((abs(d) for _, _, d in dets), default=0.0))
    return ConvexityCertificate(margin > 0, majority if dets else 0,
                                margin, len(dets))


@dataclass
class PerturbationResult:
    epsilon: float
    lipschitz_bound: float
    reverify_passes: int
    reverify_trials: int
    failed_at_10x: bool


def perturbation_radius(surf: SimplicialHypersurface, trials: int = 100,
                        seed: int = DEFAULT_SEED,
                        link_scope: str = "all") -> PerturbationResult:
    """Certified displacement radius keeping the convexity certificate valid.

    epsilon = margin / (2 B) where B bounds the derivative of every checked
    determinant under simultaneous vertex displacements (each column moves at
    most twice the displacement; Hadamard bounds the cofactors).  Verified by
    re-certifying 100 random perturbations at 0.9 epsilon.
    """
    cert = certify_generic_convex(surf, link_scope=link_scope)
    if not cert.ok:
        raise ApproximationFailureError("surface is not generic-convex",
                                        violations=cert.violations)
    bound = 0.0
    for v in surf.interior_vertices():
        link = surf.link_vertices(v)
        for si in surf.star(v):
            simplex = set(surf.simplices[si])
            for u in sorted(link - simplex):
                cols = surf.vertices[list(surf.simplices[si])] - surf.vertices[u]
                norms = np.linalg.norm(cols, axis=1)
                prod = np.prod(norms)
                b_det = 2.0 * sum(prod / max(norms[i], 1e-300)
                                  for i in range(len(norms)))
                bound = max(bound, b_det)
    eps = cert.margin / (2.0 * bound)
    rng = np.random.default_rng(seed)
    passes = 0
    for _ in range(trials):
        disp = rng.normal(size=surf.vertices.shape)
        disp *= 0.9 * eps / np.linalg.norm(disp, axis=1)[:, None]
        try:
            c2 = certify_generic_convex(
                SimplicialHypersurface(surf.vertices + disp, surf.simplices),
                link_scope=link_scope)
            if c2.ok and c2.sign == cert.sign:
                passes += 1
        except (TransversalityError, InvalidInputError):
            pass
    failed_10x = False
    for _ in range(20):
        disp = rng.normal(size=surf.vertices.shape)
        disp *= 10.0 * eps / np.linalg.norm(disp, axis=1)[:, None]
        try:
            c2 = certify_generic_convex(
                SimplicialHypersurface(surf.vertices + disp, surf.simplices),
                link_scope=link_scope)
            if not (c2.ok and c2.sign == cert.sign):
                failed_10x = True
                break
        except (TransversalityError, InvalidInputError, NonManifoldComplexError):
            failed_10x = True
            break
    return PerturbationResult(float(eps), float(bound), passes, trials,
                              failed_10x)


# ---------------------------------------------------------------------------
# flow geometry shadows


def outward_check(surf: SimplicialHypersurface, t: float) -> bool:
    """Does scaling the surface by t push every vertex strictly outward?

    Works for open complexes too; the comparison is per vertex against the
    PL radial function.
    """
    rs = radial_section_check(surf)
    if not rs.ok:
        raise TransversalityError("surface is not a radial section",
                                  violations=rs.violations)
    norms = np.linalg.norm(surf.vertices, axis=1)
    dirs = surf.vertices / norms[:, None]
    rho = surf.radial_values(dirs)
    margins = t * norms - rho
    return bool(np.all(margins > 0))


def log_contour_value(surf: SimplicialHypersurface, x) -> float:
    """Minus the log of the radial scaling carrying x onto the surface."""
    x = np.asarray(x, dtype=float)
    nx = np.linalg.norm(x)
    if nx <= 0:
        raise InvalidInputError("apex has no contour value")
    rho = surf.radial_value(x / nx)
    return float(np.log(rho / nx))


def log_contour_values(surf: SimplicialHypersurface, xs) -> np.ndarray:
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    norms = np.linalg.norm(xs, axis=1)
    rho = surf.radial_values(xs / norms[:, None])
    return np.log(rho / norms)


# ---------------------------------------------------------------------------
# PL characteristic surface


@dataclass
class PLSurfaceResult:
    surface: SimplicialHypersurface
    certificate: ConvexityCertificate
    deviation_bound: float
    jitter_rounds: int


def pl_characteristic_surface(cone, budget: int, seed: int = DEFAULT_SEED,
                              max_jitter_rounds: int = 8,
                              inset: float = 0.85) -> PLSurfaceResult:
    """Sample directions inside the cone, lift each to the characteristic
    surface, triangulate, and certify; on coplanarity failures jitter the
    radii within the certified perturbation freedom until the certificate
    passes or the rounds run out."""
    if isinstance(cone, ConvexDomain):
        cone = cone.cone()
    dom = cone.domain
    validate(dom)
    n = dom.dim
    chart = dom.chart
    if n == 1:
        lo = -dom.backend.support(np.array([-1.0]))
        hi = dom.backend.support(np.array([1.0]))
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        xs = mid + half * inset * np.linspace(-1.0, 1.0, budget)
        chart_pts = xs[:, None]
        simplices = [(i, i + 1) for i in range(budget - 1)]
    elif n == 2:
        chart_pts, simplices = _disk_mesh(dom, budget, inset)
    else:
        raise InvalidInputError("PL characteristic surfaces support chart dim <= 2")
    lifts = chart.lift_many(chart_pts)
    dirs = lifts / np.linalg.norm(lifts, axis=1)[:, None]
    radii = np.array([np.linalg.norm(characteristic_point(cone, q)) for q in dirs])

    rng = np.random.default_rng(seed)
    rounds = 0
    cert = None
    surf = None
    for rounds in range(max_jitter_rounds + 1):
        surf = SimplicialHypersurface(radii[:, None] * dirs, simplices)
        try:
            cert = certify_generic_convex(surf)
        except TransversalityError as exc:
            raise ApproximationFailureError(
                "sampled surface is not a radial section",
                violations=exc.data.get("violations")) from exc
        if cert.ok:
            break
        if not any(v["kind"] == "coplanarity" for v in cert.violations):
            raise ApproximationFailureError(
                "surface failed convexity certification",
                violations=cert.violations)
        radii = radii * (1.0 + 1e-9 * 2.0 ** rounds * rng.uniform(-1, 1, radii.size))
    if cert is None or not cert.ok:
        raise ApproximationFailureError(
            "jitter budget exhausted without a certificate",
            violations=cert.violations if cert else [])
    deviation = _sampled_deviation(cone, surf, rng)
    return PLSurfaceResult(surf, cert, deviation, rounds)


def _disk_mesh(dom, budget, inset):
    """Staggered ring mesh of the chart region around its centroid.

    Consecutive rings are rotated by half an angular step (antiprism strips);
    aligned rings would make every quad a planar trapezoid, which adjacent
    coplanarity forbids.
    """
    _, centroid, _ = dom.backend.moments()
    rings = max(1, int(round(np.sqrt(budget / 4.0))))
    angles = max(6, int(np.ceil((budget - 1) / rings)))

    def ring_dirs(j):
        ang = 2 * np.pi * (np.arange(angles) + 0.5 * (j % 2)) / angles
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)

    pts = [centroid]
    for j in range(1, rings + 1):
        dirs = ring_dirs(j)
        frac = inset * j / rings
        for u in dirs:
            _, t_hi = dom.backend.chord_params(centroid, u)
            pts.append(centroid + frac * t_hi * u)
    pts = np.array(pts)
    tris = []
    for i in range(angles):
        tris.append((0, 1 + i, 1 + (i + 1) % angles))
    for j in range(rings - 1):
        base0 = 1 + j * angles       # lower ring j+1
        base1 = 1 + (j + 1) * angles
        for i in range(angles):
            i2 = (i + 1) % angles
            if j % 2 == 0:  # lower ring staggered by half a step
                tris.append((base0 + i, base1 + i2, base0 + i2))
                tris.append((base1 + i, base0 + i, base1 + i2))
            else:           # upper ring staggered
                tris.append((base0 + i, base1 + i, base0 + i2))
                tris.append((base1 + i, base1 + i2, base0 + i2))
    return pts, tris


def _sampled_deviation(cone, surf, rng, max_edges=24):
    edges = set()
    for s in surf.simplices:
        for a in range(len(s)):
            for b in range(a + 1, len(s)):
                edges.add((min(s[a], s[b]), max(s[a], s[b])))
    edges = sorted(edges)
    if len(edges) > max_edges:
        idx = rng.choice(len(edges), size=max_edges, replace=False)
        edges = [edges[i] for i in sorted(idx)]
    worst = 0.0
    for a, b in edges:
        mid = 0.5 * (surf.vertices[a] + surf.vertices[b])
        u = mid / np.linalg.norm(mid)
        try:
            exact = np.linalg.norm(characteristic_point(cone, u))
            pl = surf.radial_value(u)
        except GeometryError:
            continue
        worst = max(worst, abs(pl - exact))
    return float(worst)
