"""PL hypersurfaces inside cones: radial sections, the determinant test for
local convexity, certified perturbation radii, outward flow checks, radial
log-contours, and PL approximation of the characteristic surface.

Simplices are oriented radially (positive determinant of the vertex matrix);
reported determinants are rescaled by the stored chirality of the first
simplex so hand-computed values in the input ordering are reproduced.
"""

from dataclasses import dataclass, field
from math import asin, sin

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


# Elements (candidate pairs x vertices x vertices) of one block of gathered
# inverse vertex matrices (`SimplicialHypersurface._cone_pairs`, behind the
# section check and `radial_values`): the temporaries of a block stay fixed
# however many candidates the directions have.
_SECTION_CHUNK = 1 << 16

# Largest sine of the hit test's slack angle (see `radial_section_check`)
# that the cap index folds into its query radius; simplices and directions
# with more slack meet everything, so one of them cannot widen every query.
_SLACK_BOUND = 1e-3

# Sample points per simplex of the radial section check; jitter rounds of a
# characteristic-surface build, how far towards the chart boundary its
# outermost samples sit, and how many of its edges the deviation bound samples.
_SECTION_SAMPLES = 3
_JITTER_ROUNDS = 8
_INSET = 0.85
_DEVIATION_EDGES = 24


class _Complex:
    """Combinatorics of a simplex list, built once and shared by every surface
    on it (`SimplicialHypersurface.with_vertices`).

    Slot t*k + j of the flattened (T, k) index array stands for the facet of
    simplex t opposite its vertex simplices[t, j].  `mate[slot]` is the slot
    of the same facet in the neighbouring simplex (-1 on the boundary), so
    `simplices.flat[mate[slot]]` is the vertex across that facet.
    """

    def __init__(self, simplices, n_vertices):
        self.simplices = simplices
        t_count, k = simplices.shape
        drop = np.array([[c for c in range(k) if c != j] for j in range(k)], dtype=int)
        keys = np.sort(simplices[:, drop].reshape(t_count * k, k - 1), axis=1)
        # a facet is a vertex set: repeated indices collapse (their simplex is
        # degenerate, which is reported after this check)
        keys[:, 1:][keys[:, 1:] == keys[:, :-1]] = -1
        keys.sort(axis=1)
        facet = np.unique(keys, axis=0, return_inverse=True)[1].ravel()
        order = np.argsort(facet, kind="stable")
        same = facet[order[1:]] == facet[order[:-1]]
        crowded = same[1:] & same[:-1]
        if crowded.any():
            slot = order[:-2][crowded].min()
            raise NonManifoldComplexError(
                "facet shared by more than two simplices",
                facet=[int(i) for i in keys[slot] if i >= 0])
        self.mate = np.full(t_count * k, -1)
        self.mate[order[:-1][same]] = order[1:][same]
        self.mate[order[1:][same]] = order[:-1][same]
        flat = simplices.ravel()
        self.across = np.where(self.mate >= 0, flat[self.mate], -1).reshape(t_count, k)
        # adjacent pairs in order of their facet's first slot: (first simplex,
        # second simplex, vertex of the second across the shared facet)
        first = np.flatnonzero(self.mate > np.arange(self.mate.size))
        self.pairs = (first // k, self.mate[first] // k, flat[self.mate[first]])
        boundary = keys[self.mate < 0]
        self.interior = np.zeros(n_vertices, dtype=bool)
        self.interior[flat] = True
        self.interior[boundary[boundary >= 0]] = False
        self._checks = None
        self._weights = {}

    def sample_weights(self, seed):
        """Barycentric weights (T, _SECTION_SAMPLES, k) of the section check's
        samples: each simplex's centroid, then seeded Dirichlet draws.  They
        depend on the complex alone, so surfaces sharing it draw them once."""
        if seed not in self._weights:
            t_count, k = self.simplices.shape
            draws = np.random.default_rng(seed).dirichlet(
                np.full(k, 4.0), size=(t_count, _SECTION_SAMPLES - 1))
            self._weights[seed] = np.concatenate(
                [np.full((t_count, 1, k), 1.0 / k), draws], axis=1)
        return self._weights[seed]

    def checks(self):
        """Rows (vertex, simplex, test vertex, adjacent) of the determinant
        checks at interior vertices, sorted by vertex, simplex, test vertex.

        Each star simplex is tested against the link vertices outside it.
        `adjacent` marks a test vertex across any facet of the simplex: such
        a pair lying flat is a coplanar star.
        """
        if self._checks is None:
            simp = self.simplices
            k = simp.shape[1]
            n = self.interior.size
            flat = simp.ravel()
            slots = np.flatnonzero(self.interior[flat])
            slots = slots[np.argsort(flat[slots], kind="stable")]
            v, t = flat[slots], slots // k
            a, b = np.nonzero(~np.eye(k, dtype=bool))
            link_v, link_u = np.divmod(
                np.unique(simp[:, a].ravel() * n + simp[:, b].ravel()), n)
            lo = np.searchsorted(link_v, v)
            count = np.searchsorted(link_v, v, side="right") - lo
            row = np.repeat(np.arange(v.size), count)
            u = link_u[np.repeat(lo - np.cumsum(count) + count, count)
                       + np.arange(count.sum())]
            v, t = v[row], t[row]
            keep = ~(simp[t] == u[:, None]).any(axis=1)
            v, t, u = v[keep], t[keep], u[keep]
            self._checks = v, t, u, (self.across[t] == u[:, None]).any(axis=1)
        return self._checks


class SimplicialHypersurface:
    """Flat-simplex hypersurface in R^{n+1}: vertices plus top simplices, a
    (T, n+1) index array.

    Every facet shared by at most two simplices; facets on one simplex form
    the marked boundary.
    """

    def __init__(self, vertices, simplices):
        v = _finite_vertices(vertices)
        n1 = v.shape[1]
        rows = [tuple(int(i) for i in s) for s in simplices]
        for s in rows:
            if len(s) != n1:
                raise InvalidInputError(
                    f"hypersurface simplices need {n1} vertices, got {len(s)}")
        if not rows:
            raise InvalidInputError("hypersurface needs at least one simplex")
        simp = np.array(rows, dtype=int)
        if simp.min() < 0 or simp.max() >= len(v):
            raise InvalidInputError("simplex vertex index out of range")
        self._complex = _Complex(simp, len(v))
        self._set_vertices(v)

    def with_vertices(self, vertices):
        """The same complex on moved vertices, sharing its combinatorics."""
        v = _finite_vertices(vertices)
        if v.shape != self.vertices.shape:
            raise InvalidInputError("vertex array does not match the complex")
        surf = object.__new__(type(self))
        surf._complex = self._complex
        surf._set_vertices(v)
        return surf

    def _set_vertices(self, v):
        self.vertices = v
        self.simplices = self._complex.simplices
        pts = v[self.simplices]
        edges = pts[:, 1:] - pts[:, :1]
        scale = np.maximum(np.linalg.norm(edges, axis=2).max(axis=1), 1e-300)
        sv = np.linalg.svd(edges, compute_uv=False)
        bad = np.flatnonzero(sv[:, -1] <= 1e-10 * scale)
        if bad.size:
            raise InvalidInputError(
                "degenerate simplex: edge vectors nearly dependent",
                simplex=int(bad[0]))
        self._dets = np.linalg.det(np.swapaxes(pts, 1, 2))
        self._inv_stack = None
        self._caps = None

    @property
    def closed(self):
        return bool(np.all(self._complex.mate >= 0))

    def interior_vertices(self):
        return np.flatnonzero(self._complex.interior).tolist()

    # -- geometry

    def inv_stack(self):
        if self._inv_stack is None:
            try:
                self._inv_stack = np.linalg.inv(
                    np.swapaxes(self.vertices[self.simplices], 1, 2))
            except np.linalg.LinAlgError as exc:
                # a zero pivot: that simplex's determinant is exactly 0
                raise TransversalityError(
                    "simplex has a degenerate ray cone",
                    simplex=int(np.argmin(np.abs(self._dets)))) from exc
        return self._inv_stack

    def radial_sign(self, si):
        return float(np.sign(self._dets[si]))

    def chirality(self):
        """Sign relating the first simplex's stored order to the radial one."""
        s = self.radial_sign(0)
        if s == 0.0:
            raise TransversalityError("first simplex has a degenerate ray cone")
        return s

    def _cap_index(self):
        """Spherical caps around the simplex cones, built once per surface.

        Returns (tree, members, reach, everywhere, size_slack, cond_slack):
        a cKDTree of the cap centres (normalized sums of the unit vertex
        directions) of the simplices `members`, the largest chord radius of
        their caps, the simplices whose cap would reach a hemisphere or whose
        rounding allowance passes _SLACK_BOUND, and the two terms of the hit
        test's slack (see `radial_section_check`).
        """
        if self._caps is None:
            from scipy.spatial import cKDTree  # imported here: slow to load

            inv = self.inv_stack()
            pts = self.vertices[self.simplices]
            norms = np.sqrt(np.einsum("tkj,tkj->tk", pts, pts))
            unit = pts / norms[:, :, None]
            with np.errstate(invalid="ignore", divide="ignore"):
                centre = unit.sum(axis=1)
                centre /= np.sqrt(np.einsum("tj,tj->t", centre, centre))[:, None]
            gap = unit - centre[:, None, :]
            chord = np.sqrt(np.einsum("tkj,tkj->tk", gap, gap).max(axis=1))
            cond2 = (np.einsum("tij,tij->t", pts, pts)
                     * np.einsum("tij,tij->t", inv, inv))
            near = (chord < np.sqrt(2.0)) & (1e-12 * cond2 < _SLACK_BOUND)
            members = np.flatnonzero(near)
            self._caps = (cKDTree(centre[members]), members,
                          float(chord.max(initial=0.0, where=near)),
                          np.flatnonzero(~near),
                          1e-12 * norms.shape[1] * float(norms.max()),
                          1e-12 * float(cond2.max(initial=0.0, where=near)))
        return self._caps

    def _candidates(self, dirs):
        """(row, simplex) pairs, sorted by row then simplex, that include
        every pair the hit test can pass (see `radial_section_check`)."""
        tree, members, reach, everywhere, size_slack, cond_slack = self._cap_index()
        t_count = self.simplices.shape[0]
        norms = np.sqrt(np.einsum("ij,ij->i", dirs, dirs))
        bounded = (size_slack < _SLACK_BOUND * norms) & (norms < np.inf)
        found = np.flatnonzero(bounded)
        keys = [np.empty(0, dtype=np.intp)]
        if everywhere.size:
            # every row meets the simplices without a cap
            keys.append(np.arange(len(dirs))[:, None] * t_count + everywhere)
        if found.size and members.size:
            from scipy.spatial import cKDTree

            # sine of the angle between a hit and its cone, at the shortest row
            off = size_slack / norms[found].min() + cond_slack
            angle = min(np.pi, 2.0 * asin(0.5 * reach) + asin(off))
            close = cKDTree(dirs[found] / norms[found, None]).sparse_distance_matrix(
                tree, 2.0 * sin(0.5 * angle) + 1e-9, output_type="ndarray")
            keys.append(found[close["i"]] * t_count + members[close["j"]])
        if found.size < len(dirs):
            # rows too short for the slack bound (zero, say) or not finite
            # meet every simplex that has a cap
            lost = np.flatnonzero(~bounded)
            keys.append(lost[:, None] * t_count + members)
        return np.divmod(np.sort(np.concatenate(keys, axis=None)), t_count)

    def _cone_pairs(self, dirs):
        """Candidate pairs (rows, simplices) with the least and the sum of the
        coordinates of each direction in its simplex's vertex basis, computed
        in blocks of at most _SECTION_CHUNK gathered inverse entries.  Sums
        run column by column: numpy sums fewer than eight terms in that
        order, so each value equals the sum over that simplex alone."""
        rows, simp = self._candidates(dirs)
        inv = self.inv_stack()
        step = max(1, _SECTION_CHUNK // inv[0].size)
        lam = np.empty((rows.size, inv.shape[1]))
        for lo in range(0, rows.size, step):
            lam[lo:lo + step] = np.einsum(
                "pij,pj->pi", np.take(inv, simp[lo:lo + step], axis=0),
                np.take(dirs, rows[lo:lo + step], axis=0))
        low, total = lam[:, 0].copy(), lam[:, 0].copy()
        for col in lam.T[1:]:
            np.minimum(low, col, out=low)
            total += col
        return rows, simp, low, total

    def radial_values(self, dirs):
        """PL radius of the surface along each direction; nan when uncovered.
        The lowest-numbered simplex containing a direction gives its value."""
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        out = np.full(dirs.shape[0], np.nan)
        rows, _, low, total = self._cone_pairs(dirs)
        valid = (low >= -1e-12) & (total > 1e-300)
        rows, total = rows[valid], total[valid]
        first = _run_starts(rows)
        out[rows[first]] = 1.0 / total[first]
        return out

    def radial_value(self, u):
        r = self.radial_values(np.asarray(u, dtype=float)[None, :])[0]
        if np.isnan(r):
            raise InvalidInputError("direction not covered by the surface")
        return float(r)

    def scaled(self, factor):
        return self.with_vertices(self.vertices * factor)

    def to_json(self):
        return {"vertices": self.vertices.tolist(),
                "simplices": self.simplices.tolist()}


def _run_starts(keys):
    """Mask of the first entry of each run of equal keys."""
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return first


def _finite_vertices(vertices):
    v = np.atleast_2d(np.asarray(vertices, dtype=float))
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("non-finite vertex coordinates")
    return v


# ---------------------------------------------------------------------------
# radial sections


@dataclass
class RadialSectionResult:
    ok: bool
    violations: list
    min_transversality: float


def radial_section_check(surf: SimplicialHypersurface,
                         seed: int = DEFAULT_SEED) -> RadialSectionResult:
    """Does every ray from the origin meet the surface exactly once?

    Per-simplex transversality (origin off the affine hull, by the vertex
    determinant) plus injectivity of the radial projection on seeded interior
    sample points with exact per-simplex cone membership.

    Membership is tested only on candidate (sample, simplex) pairs from the
    surface's cap index, and every hit is a candidate, so the verdict is the
    all-pairs one.  A sample d hits simplex t when its coordinates in the
    vertex basis are all at least -1e-12; then d lies within
    1e-12 * sum|p_i| of the cone, plus a rounding allowance of
    1e-12 * cond(t)^2 * |d| for those coordinates (cond is the Frobenius
    condition number of the vertex matrix), which bounds its angle to the
    cone.  The cone lies in the cap around its normalized vertex centroid
    whose chord radius reaches the farthest unit vertex direction: a cap
    narrower than a hemisphere is convex, so holding the vertices it holds
    the whole spherical simplex.  A kd-tree query of the centres within the
    largest cap radius plus that angle (and 1e-9 for rounding in the
    distances) returns every such simplex.  A simplex whose cap would reach
    a hemisphere, or whose rounding allowance passes _SLACK_BOUND, is a
    candidate for every sample, as is every simplex for a direction too
    short for that bound (zero, say) or not finite.  Each sample meets about
    as many candidates however fine the surface, so the check grows
    near-linearly.
    """
    pts = surf.vertices[surf.simplices]
    scale = np.prod(np.linalg.norm(pts, axis=2), axis=1)
    trans = np.abs(surf._dets) / np.maximum(scale, 1e-300)
    min_trans = float(trans.min())
    violations = [{"kind": "transversality", "simplex": si}
                  for si in np.flatnonzero(trans <= 1e-10).tolist()]
    if violations:
        return RadialSectionResult(False, violations, min_trans)
    weights = surf._complex.sample_weights(seed)
    dirs = (weights @ pts).reshape(-1, pts.shape[2])
    rows, simp, low, total = surf._cone_pairs(dirs)
    hit = (low >= -1e-12) & (total > 0)
    strict = np.bincount(rows[low > 1e-9], minlength=len(dirs))
    hits = np.bincount(rows[hit], minlength=len(dirs))
    bad = (strict > 1) | ((strict == 0) & (hits > 2))
    for r in np.flatnonzero(bad).tolist():
        si = r // _SECTION_SAMPLES
        if not violations or violations[-1]["simplex"] != si:
            lo, hi = np.searchsorted(rows, [r, r + 1])
            violations.append({"kind": "multiplicity", "simplex": si,
                               "hits": simp[lo:hi][hit[lo:hi]].tolist()})
    return RadialSectionResult(not violations, violations, min_trans)


# ---------------------------------------------------------------------------
# determinant convexity test


@dataclass
class VertexConvexity:
    sign: int
    margin: float
    determinants: list  # (simplex index, test vertex index, value)


def _oriented_dets(surf, t, u):
    """det(vertices of simplex t - vertex u) for stacked indices, times the
    radial sign of t and the chirality."""
    mats = surf.vertices[surf.simplices[t]] - surf.vertices[u][:, None, :]
    return ((surf.chirality() * np.sign(surf._dets[t]))
            * np.linalg.det(np.swapaxes(mats, 1, 2)))


def _judge_stars(v, t, u, adjacent, vals):
    """Per-vertex verdicts on stacked star checks sorted by vertex.

    Returns the coplanar stars (error data of the first flat adjacent check
    at each), the mask of checks at the other vertices, and for those the
    start of each vertex's checks and its sign (+1 or -1 when every
    determinant has it, else 0).
    """
    folded = (np.abs(vals) <= TOL.coplanarity) & adjacent
    flat_v, first = np.unique(v[folded], return_index=True)
    coplanar = [{"vertex": int(v[i]), "simplex": int(t[i]),
                 "test_vertex": int(u[i]), "determinant": float(vals[i])}
                for i in np.flatnonzero(folded)[first]]
    keep = ~np.isin(v, flat_v)
    signs = np.sign(vals[keep])
    starts = np.flatnonzero(_run_starts(v[keep]))
    lo = np.minimum.reduceat(signs, starts)
    hi = np.maximum.reduceat(signs, starts)
    return coplanar, keep, starts, np.where(lo == hi, lo, 0.0).astype(int)


def _determinant_list(t, u, vals):
    return list(zip(t.tolist(), u.tolist(), vals.tolist()))


def vertex_convexity(surf: SimplicialHypersurface, v: int) -> VertexConvexity:
    """Sign-consistency of the star determinants at an interior vertex.

    For every top simplex in the star and every link vertex outside it, the
    determinant of (simplex vertices - test vertex) must have one sign.
    """
    if not (0 <= v < len(surf.vertices) and surf._complex.interior[v]):
        raise InvalidInputError("vertex is not interior to the complex", vertex=v)
    vs, t, u, adjacent = surf._complex.checks()
    lo, hi = np.searchsorted(vs, [v, v + 1])
    if lo == hi:
        return VertexConvexity(0, 0.0, [])
    t, u = t[lo:hi], u[lo:hi]
    vals = _oriented_dets(surf, t, u)
    coplanar, _, _, sign = _judge_stars(vs[lo:hi], t, u, adjacent[lo:hi], vals)
    if coplanar:
        raise CoplanarStarError("adjacent simplices are coplanar", **coplanar[0])
    return VertexConvexity(int(sign[0]), float(np.abs(vals).min()),
                           _determinant_list(t, u, vals))


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


def certify_generic_convex(surf: SimplicialHypersurface) -> ConvexityCertificate:
    """Global convexity certificate: radial section, a single determinant sign
    across all interior vertex stars, and no coplanar adjacent pair.

    Every determinant (adjacent pairs, then star checks) is one stacked
    evaluation over the complex's precomputed index arrays.  Without an
    interior vertex the adjacent-pair determinants must share one sign; a
    lone simplex has none and passes with an infinite margin.
    """
    rs = radial_section_check(surf)
    if not rs.ok:
        raise TransversalityError("surface is not a radial section",
                                  violations=rs.violations)
    pair_a, pair_b, pair_u = surf._complex.pairs
    v, t, u, adjacent = surf._complex.checks()
    vals = _oriented_dets(surf, np.concatenate([pair_a, t]),
                          np.concatenate([pair_u, u]))
    pair_vals, vals = vals[:pair_a.size], vals[pair_a.size:]

    def pair_violations(kind, mask):
        return [{"kind": kind, "simplices": [a, b], "determinant": d}
                for a, b, d in zip(pair_a[mask].tolist(), pair_b[mask].tolist(),
                                   pair_vals[mask].tolist())]

    flat = np.abs(pair_vals) <= TOL.coplanarity
    violations = pair_violations("coplanarity", flat)
    coplanar, keep, starts, signs = _judge_stars(v, t, u, adjacent, vals)
    v, t, u, vals = v[keep], t[keep], u[keep], vals[keep]
    ends = np.append(starts[1:], v.size)

    def vertex_violation(i):
        lo, hi = starts[i], ends[i]
        return {"kind": "vertex", "vertex": int(v[lo]),
                "determinants": _determinant_list(t[lo:hi], u[lo:hi], vals[lo:hi])}

    per_vertex = [{"kind": "coplanarity", **data} for data in coplanar]
    per_vertex += [vertex_violation(i) for i in np.flatnonzero(signs == 0)]
    violations += sorted(per_vertex, key=lambda viol: viol["vertex"])
    # one orientation sign must work globally; minority vertices are flagged,
    # or without an interior vertex, minority adjacent pairs
    checked = vals if adjacent.size else pair_vals
    majority = 1 if np.sum(checked > 0) >= np.sum(checked < 0) else -1
    violations += [vertex_violation(i)
                   for i in np.flatnonzero((signs != 0) & (signs != majority))]
    if not adjacent.size:
        violations += pair_violations("fold", ~flat & (np.sign(pair_vals) != majority))
    if violations:
        return ConvexityCertificate(False, 0, 0.0, checked.size, violations)
    return ConvexityCertificate(True, majority,
                                float(np.abs(checked).min(initial=np.inf)), checked.size)


@dataclass
class PerturbationResult:
    epsilon: float
    lipschitz_bound: float
    reverify_passes: int
    reverify_trials: int
    failed_at_10x: bool


def perturbation_radius(surf: SimplicialHypersurface, trials: int = 100,
                        seed: int = DEFAULT_SEED) -> PerturbationResult:
    """Certified displacement radius keeping the convexity certificate valid.

    epsilon = margin / (2 B) where B bounds the derivative of every checked
    determinant under simultaneous vertex displacements (each column moves at
    most twice the displacement; Hadamard bounds the cofactors).  Verified by
    re-certifying 100 random perturbations at 0.9 epsilon; the perturbed
    surfaces share this one's combinatorics.  Without an interior vertex B
    bounds the adjacent-pair determinants; without those, nothing is checked
    and InvalidInputError is raised.
    """
    cert = certify_generic_convex(surf)
    if not cert.ok:
        raise ApproximationFailureError("surface is not generic-convex",
                                        violations=cert.violations)
    _, t, u, _ = surf._complex.checks()
    if not t.size:
        t, _, u = surf._complex.pairs
    if not t.size:
        raise InvalidInputError(
            "no adjacent simplices: no determinant bounds a perturbation radius")
    cols = surf.vertices[surf.simplices[t]] - surf.vertices[u][:, None, :]
    norms = np.linalg.norm(cols, axis=2)
    prod = np.prod(norms, axis=1)
    b_det = 2.0 * sum(prod / np.maximum(norms[:, i], 1e-300)
                      for i in range(norms.shape[1]))
    bound = float(b_det.max(initial=0.0))
    eps = cert.margin / (2.0 * bound)
    rng = np.random.default_rng(seed)

    def recertified(scale):
        disp = rng.normal(size=surf.vertices.shape)
        disp *= scale * eps / np.linalg.norm(disp, axis=1)[:, None]
        try:
            c2 = certify_generic_convex(surf.with_vertices(surf.vertices + disp))
        except (TransversalityError, InvalidInputError):
            return False
        return c2.ok and c2.sign == cert.sign

    passes = sum(recertified(0.9) for _ in range(trials))
    failed_10x = not all(recertified(10.0) for _ in range(20))
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


def pl_characteristic_surface(cone, budget: int,
                              seed: int = DEFAULT_SEED) -> PLSurfaceResult:
    """Lift about `budget` sample directions of the cone to its characteristic
    surface, span them by their hull's origin-facing faces (`_origin_faces`)
    and certify.  The surface is a level set of Vinberg's characteristic
    function, which is log-convex and homogeneous, so the region above it is
    convex and those faces form the convex radial section the certificate
    accepts.  Where the hull splits a coplanar quad, the radii are jittered
    and re-hulled."""
    if isinstance(cone, ConvexDomain):
        cone = cone.cone()
    dom = cone.domain
    validate(dom)
    n = dom.dim
    least = 2 if n == 1 else 1
    if budget < least:
        raise InvalidInputError(f"budget must be at least {least}", budget=budget)
    if n == 1:
        lo, hi = -dom.backend.support(-np.ones(1)), dom.backend.support(np.ones(1))
        xs = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _INSET * np.linspace(-1.0, 1.0, budget)
        chart_pts = xs[:, None]
    elif n == 2:
        chart_pts = _disk_mesh(dom, budget)
    else:
        raise InvalidInputError("PL characteristic surfaces support chart dim <= 2")
    lifts = dom.chart.lift_many(chart_pts)
    dirs = lifts / np.linalg.norm(lifts, axis=1)[:, None]
    radii = np.array([np.linalg.norm(characteristic_point(cone, q)) for q in dirs])

    rng = np.random.default_rng(seed)
    for rounds in range(_JITTER_ROUNDS + 1):
        pts = radii[:, None] * dirs
        surf = SimplicialHypersurface(pts, _origin_faces(pts))
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
    if not cert.ok:
        raise ApproximationFailureError(
            "jitter budget exhausted without a certificate",
            violations=cert.violations)
    deviation = _sampled_deviation(cone, surf, rng)
    return PLSurfaceResult(surf, cert, deviation, rounds)


def _origin_faces(pts):
    """The faces of the hull of the rows of `pts` that face the origin: with
    copies 1e3 * pts added, the faces of original points alone whose plane
    has the origin strictly outside.  Each face is ascending but for its last
    two indices, swapped where that makes its radial determinant positive;
    the faces are sorted."""
    from scipy.spatial import ConvexHull, QhullError  # imported here: slow to load

    m = len(pts)
    try:
        hull = ConvexHull(np.vstack([pts, 1e3 * pts]))
    except QhullError as exc:
        raise ApproximationFailureError("samples span no hull") from exc
    reach = np.linalg.norm(pts, axis=1).max()
    faces = np.sort(hull.simplices[(hull.simplices < m).all(axis=1)
                                   & (hull.equations[:, -1] > 1e-9 * reach)], axis=1)
    flip = np.linalg.det(pts[faces]) < 0
    faces[flip, -2:] = faces[flip, -2:][:, ::-1]
    return faces[np.lexsort(faces.T[::-1])]


def _disk_mesh(dom, budget):
    """Sample points of the chart region, a sampler only: its centroid and
    rings around it up to _INSET of the way to the boundary.  Consecutive
    rings are rotated by half an angular step: aligned rings lift to planar
    quads, which the hull splits arbitrarily, costing a jitter round."""
    _, centroid, _ = dom.backend.moments()
    rings = max(1, int(round(np.sqrt(budget / 4.0))))
    angles = max(6, int(np.ceil((budget - 1) / rings)))
    pts = [centroid]
    for j in range(1, rings + 1):
        ang = 2 * np.pi * (np.arange(angles) + 0.5 * (j % 2)) / angles
        frac = _INSET * j / rings
        for u in np.stack([np.cos(ang), np.sin(ang)], axis=1):
            _, t_hi = dom.backend.chord_params(centroid, u)
            pts.append(centroid + frac * t_hi * u)
    return np.array(pts)


def _sampled_deviation(cone, surf, rng):
    pairs = surf.simplices[:, np.transpose(np.triu_indices(surf.simplices.shape[1], 1))]
    edges = np.unique(np.sort(pairs.reshape(-1, 2), axis=1), axis=0).tolist()
    if len(edges) > _DEVIATION_EDGES:
        idx = rng.choice(len(edges), size=_DEVIATION_EDGES, replace=False)
        edges = [edges[i] for i in sorted(idx)]
    dirs, exact = [], []
    for a, b in edges:
        mid = 0.5 * (surf.vertices[a] + surf.vertices[b])
        u = mid / np.linalg.norm(mid)
        try:
            exact.append(np.linalg.norm(characteristic_point(cone, u)))
        except GeometryError:
            continue
        dirs.append(u)
    if not dirs:
        return 0.0
    gaps = np.abs(surf.radial_values(np.array(dirs)) - np.array(exact))
    return float(gaps[~np.isnan(gaps)].max(initial=0.0))
