"""PL hypersurfaces inside cones: radial sections, the determinant test for
local convexity, certified perturbation radii, outward flow checks, radial
log-contours, and PL approximation of the characteristic surface.

Simplices are oriented radially (positive determinant of the vertex matrix);
reported determinants are rescaled by the stored chirality of the first
simplex so hand-computed values in the input ordering are reproduced.
Determinants, inverses and cross products are cofactor expansions over
stacks (`_minors`); only simplices a closed-form bound cannot clear take an SVD.
"""

from dataclasses import asdict, dataclass, field
from functools import lru_cache
from itertools import combinations
from math import asin, sin

import numpy as np

from .config import DEFAULT_SEED, TOL
from .domain import _matvec, _norm, validate
from .errors import (
    ApproximationFailureError,
    CoplanarStarError,
    InvalidInputError,
    NonManifoldComplexError,
    TransversalityError,
)


# Elements of one block of the candidate search (surfaces x directions x cap
# centres, `_SurfaceStack._candidates`) and of the gathered inverse vertex
# matrices (candidate pairs x vertices x vertices, `_cone_pairs`), behind the
# section check and `radial_values`, and of one stack of perturbed surfaces
# in `perturbation_radius`: the temporaries of a block stay fixed however
# many directions, candidates and trials there are.
_SECTION_CHUNK = 1 << 16

# Largest sine of the hit test's slack angle (see `_SurfaceStack._candidates`)
# that the cap index folds into its query radius; simplices and directions
# with more slack meet everything, so one of them cannot widen every query.
_SLACK_BOUND = 1e-3

# Jitter rounds of a surface build; how far out its outermost samples sit.
_JITTER_ROUNDS = 8
_INSET = 0.85


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
        self.used = self.interior.copy()
        self.interior[boundary[boundary >= 0]] = False
        self._drop = drop
        self._checks = None
        self._section = None

    def section(self):
        """Index arrays of `_section_faults`, built at first use: per adjacent
        pair the sign of its determinant product without a fold, and in
        chart dimension 2 the boundary edges as rows into the boundary
        vertices, those vertices, and the edge pairs (e < f) without a shared
        vertex.  The vertex opposite a facet moves from slot j to the last
        column by k - 1 - j transpositions, and with k <= 3 the two simplices
        list the facet in swapped orders where their first entries differ."""
        if self._section is None:
            simp, k = self.simplices, self.simplices.shape[1]

            def facets(slots):
                return simp[(slots // k)[:, None], self._drop[slots % k]]

            first = np.flatnonzero(self.mate > np.arange(self.mate.size))
            second = self.mate[first]
            swap = facets(first)[:, 0] != facets(second)[:, 0]
            unfolded = 2 * ((first % k + second % k + swap) % 2) - 1
            edges = facets(np.flatnonzero(self.mate < 0)) if k == 3 else np.empty((0, 2), int)
            ends = np.flatnonzero(np.bincount(edges.ravel(), minlength=self.used.size))
            at = np.searchsorted(ends, edges)
            incidence = np.zeros((len(at), len(ends)))
            incidence[np.arange(len(at))[:, None], at] = 1.0
            e, f = np.nonzero(np.triu(incidence @ incidence.T == 0, 1))
            self._section = unfolded, at, ends, e, f
        return self._section

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


def _check_widths(simplices, width):
    for s in simplices:
        if len(s) != width:
            raise InvalidInputError(
                f"hypersurface simplices need {width} vertices, got {len(s)}")


@lru_cache(maxsize=None)
def _cofactor_table(r, k):
    """For each size s = 2, ..., r of the r x k cofactor expansion: the
    s-column combinations (`combinations` order) and, for each of their
    columns, the index of the combination without it among size s - 1."""
    index, table = {(c,): c for c in range(k)}, []
    for size in range(2, r + 1):
        combos = list(combinations(range(k), size))
        table.append((np.array(combos), np.array(
            [[index[cols[:i] + cols[i + 1:]] for i in range(size)] for cols in combos])))
        index = {cols: j for j, cols in enumerate(combos)}
    return table


def _minors(m):
    """The maximal minors of the r x k matrices m (..., r, k), stacked as
    (C(k, r), ...) in ascending column order (`combinations`), each by
    cofactor expansion along its first row with the minors of the rows
    below shared, worked elementwise over the leading axes: a stacked matrix
    gets its own value."""
    r, k = m.shape[-2:]
    e = np.ascontiguousarray(m.reshape(-1, r, k).transpose(1, 2, 0))
    minors = e[-1]
    for size, (cols, sub) in enumerate(_cofactor_table(r, k), 2):
        terms = e[-size][cols] * minors[sub]   # (combinations, size, N)
        minors = terms[:, 0]
        for i in range(1, size):
            minors = minors - terms[:, i] if i % 2 else minors + terms[:, i]
    return minors.reshape(minors.shape[:1] + m.shape[:-2])


def _det(m):
    """Determinants of the k x k matrices m (..., k, k)."""
    return _minors(m)[0]


@lru_cache(maxsize=None)
def _adjugate_table(k):
    """Row-drop index (row i: the columns but i) and signs (-1)^(i + j)."""
    drop = [[c for c in range(k) if c != i] for i in range(k)]
    return np.array(drop), (-1.0) ** np.add.outer(range(k), range(k))


def _adjugate(m):
    """Adjugates of the k x k matrices m (..., k, k): entry (j, i) is
    (-1)^(i + j) times the minor without row i and column j."""
    drop, sign = _adjugate_table(m.shape[-1])
    minors = _minors(m[..., drop, :])   # (k - 1 - j, ..., i): without row i
    return np.moveaxis(minors[::-1], 0, -2) * sign


class _SurfaceStack:
    """Vertex arrays (R, V, n) of R surfaces on one `_Complex`, and their
    per-simplex geometry with a leading surface axis.

    A `SimplicialHypersurface` is the one-row stack; `perturbation_radius`
    stacks its perturbed surfaces.  Determinants and inverses are cofactor
    expansions (`_minors`) and the reductions run over the trailing axes, so
    every row equals its surface on its own.  `degenerate` marks the
    simplices, (R, T), whose least edge singular value (LAPACK's SVD) is at
    most 1e-10 times the longest edge.  Scaled to a longest edge of 1, with
    Frobenius norm F <= sqrt(k - 1), the edges' maximal minors have norm
    (the product of the singular values) over F^(k-2) below that value;
    where this passes 2e-10 it clears the simplex, the minors and the SVD
    being off by about 1e-14 F.  Only the others take the SVD."""

    def __init__(self, cx, verts):
        self.complex, self.vertices = cx, verts
        self.pts = np.take(verts, cx.simplices, axis=1)
        k = cx.simplices.shape[1]
        edges = self.pts[:, :, 1:] - self.pts[:, :, :1]
        scale = np.maximum(np.linalg.norm(edges, axis=3).max(axis=2), 1e-300)
        unit = edges / scale[..., None, None]
        wedge = np.sqrt(sum(v * v for v in _minors(unit)))
        frob = np.sqrt(np.einsum("rtij,rtij->rt", unit, unit))
        unclear = ~(wedge > 2e-10 * frob ** (k - 2))
        self.degenerate = np.zeros(unclear.shape, dtype=bool)
        if unclear.any():
            sv = np.linalg.svd(edges[unclear], compute_uv=False)
            self.degenerate[unclear] = sv[:, -1] <= 1e-10 * scale[unclear]
        self.dets = _det(self.pts)
        self._inv = None
        self._caps = None

    def select(self, keep):
        """The stack of the selected rows, its geometry not yet computed."""
        sub = object.__new__(type(self))
        sub.complex, sub.vertices, sub.pts = self.complex, self.vertices[keep], self.pts[keep]
        sub.degenerate, sub.dets = self.degenerate[keep], self.dets[keep]
        sub._inv = sub._caps = None
        return sub

    def transversality(self):
        """|det| of each simplex over the product of its vertex norms, (R, T)."""
        scale = np.prod(np.linalg.norm(self.pts, axis=3), axis=2)
        return np.abs(self.dets) / np.maximum(scale, 1e-300)

    def inv(self):
        """Inverses of the vertex matrices (vertices as columns), (R, T, k, k):
        the adjugate over the determinant."""
        if self._inv is None:
            if not self.dets.all():
                raise TransversalityError(
                    "simplex has a degenerate ray cone",
                    simplex=int(np.argmin(np.abs(self.dets)) % self.dets.shape[1]))
            self._inv = _adjugate(np.swapaxes(self.pts, 2, 3)) / self.dets[..., None, None]
        return self._inv

    def _cap_index(self):
        """Spherical caps around the simplex cones, built once per stack.

        Returns (centres, near, reach, size_slack, cond_slack): the cap
        centres (normalized sums of the unit vertex directions), (R, T, n);
        the simplices whose cap is narrower than a hemisphere and whose
        rounding allowance stays within _SLACK_BOUND, (R, T); and per row the
        largest chord radius of those caps and the two terms of the hit
        test's slack (see `_candidates`).
        """
        if self._caps is None:
            pts = self.pts
            norms = np.sqrt(np.einsum("rtkj,rtkj->rtk", pts, pts))
            unit = pts / norms[..., None]
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                centre = unit.sum(axis=2)
                centre /= np.sqrt(np.einsum("rtj,rtj->rt", centre, centre))[..., None]
                growth = (np.einsum("rtij,rtij->rt", pts, pts) ** (0.5 * norms.shape[2])
                          / np.abs(self.dets))
            gap = unit - centre[:, :, None, :]
            chord = np.sqrt(np.einsum("rtkj,rtkj->rtk", gap, gap).max(axis=2))
            near = (chord < np.sqrt(2.0)) & (1e-12 * growth < _SLACK_BOUND)
            self._caps = (centre, near, chord.max(axis=1, initial=0.0, where=near),
                          1e-12 * norms.shape[2] * norms.max(axis=(1, 2)),
                          1e-12 * growth.max(axis=1, initial=0.0, where=near))
        return self._caps

    def _candidates(self, dirs):
        """(row, simplex) pairs of the directions dirs (R, N, n) flattened to
        R * N rows and of the R * T simplices, each row meeting its own
        surface's simplices only, sorted by row then simplex, that include
        every pair the hit test can pass.  Pair (r, i, j), row i and simplex
        j of surface r, has key (r * N + i) * T + j.

        A direction d hits simplex t when its coordinates in the vertex basis
        are all at least -1e-12; then d lies within 1e-12 * sum|p_i| of the
        cone, plus a rounding allowance of 1e-12 * g(t) * |d| for those
        coordinates, g = |P|_F^k / |det P| for the k x k vertex matrix P,
        which bounds its angle to the cone.  The coordinates are P's
        adjugate over its determinant, times d: each cofactor is off by at
        most k(k - 1)/2 rounding units u times |P|_F^(k-1), the division and
        the products by (k + 1) u |P^-1|_F |d| <= (k + 1) k u g |d| / |P|_F,
        so through P the point moves by less than 5e-15 g |d| for k <= 4;
        the determinant's own error scales all coordinates alike.  The cone
        lies in the cap around its normalized vertex centroid whose chord
        radius reaches the farthest unit vertex direction: a cap narrower
        than a hemisphere is convex, so holding the vertices it holds the
        whole spherical simplex.  Every centre within the largest cap radius
        plus that angle (and 1e-9) of the unit direction is a candidate; for
        unit vectors that chord test is a cosine test,
        q . c >= 1 - chord^2/2, made with 1e-12 to spare for rounding in the
        products, one block of directions against all centres at a time.  A simplex
        whose cap would reach a hemisphere, or whose rounding allowance
        passes _SLACK_BOUND, is a candidate for every direction, as is every
        simplex for a direction too short for that bound (zero, say) or not
        finite.  Each direction meets about as many candidates however fine
        the surface, so the membership tests grow near-linearly; the cosine
        products, N x T, have a small constant.
        """
        centres, near, reach, size_slack, cond_slack = self._cap_index()
        r_count, n_rows = dirs.shape[:2]
        t_count = near.shape[1]
        norms = np.sqrt(np.einsum("rij,rij->ri", dirs, dirs))
        bounded = (size_slack[:, None] < _SLACK_BOUND * norms) & (norms < np.inf)
        unit = np.divide(dirs, norms[:, :, None], out=np.full_like(dirs, np.nan),
                         where=bounded[:, :, None])
        found = [np.empty(0, dtype=np.intp)]
        if not near.all():
            # every row meets the simplices without a cap; their nan centres
            # meet nothing below
            r, j = np.nonzero(~near)
            found.append(((r * n_rows + np.arange(n_rows)[:, None]) * t_count + j).ravel())
            centres = np.where(near[:, :, None], centres, np.nan)
        if not bounded.all():
            # rows too short for the slack bound (zero, say) or not finite,
            # nan above, meet every simplex with a cap
            r, i = np.nonzero(~bounded)
            lost, j = np.nonzero(near[r])
            found.append((r[lost] * n_rows + i[lost]) * t_count + j)
        shortest = norms.min(axis=1, initial=np.inf, where=bounded)
        cosine = np.array([_query_cosine(*row) for row in zip(
            reach.tolist(), (size_slack / shortest + cond_slack).tolist())])
        centres = np.swapaxes(centres, 1, 2)
        step = max(1, _SECTION_CHUNK // near.size)
        for lo in range(0, n_rows, step):
            block = unit[:, lo:lo + step]
            hit = np.flatnonzero(block @ centres >= cosine[:, None, None])
            # from the block's (r, i - lo, j) to the key of (r, i, j)
            hit += (hit // (block.shape[1] * t_count) * (n_rows - block.shape[1]) + lo) * t_count
            found.append(hit)
        rows, j = np.divmod(np.sort(np.concatenate(found)), t_count)
        return rows, rows // n_rows * t_count + j

    def _cone_pairs(self, dirs):
        """Candidate pairs (rows, simplices) of dirs (R, N, n), as in
        `_candidates`, with the least and the sum of the coordinates of each
        direction in its simplex's vertex basis, computed in blocks of at
        most _SECTION_CHUNK gathered inverse entries.  Sums run column by
        column: numpy sums fewer than eight terms in that order, so each
        value equals the sum over that simplex alone."""
        rows, simp = self._candidates(dirs)
        inv = self.inv()
        inv = inv.reshape(-1, *inv.shape[2:])
        dirs = dirs.reshape(-1, dirs.shape[2])
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


def _query_cosine(reach, off):
    """Cosine threshold of the candidate search: unit rows within the largest
    cap radius `reach` (a chord) plus the angle whose sine is `off`, and
    1e-9, of a cap centre, with 1e-12 to spare for rounding in the products."""
    angle = min(np.pi, 2.0 * asin(0.5 * reach) + asin(off))
    chord = 2.0 * sin(0.5 * angle) + 1e-9
    return 1.0 - 0.5 * chord * chord - 1e-12


class SimplicialHypersurface:
    """Flat-simplex hypersurface in R^{n+1}: vertices plus top simplices, a
    (T, n+1) index array.

    Every facet shared by at most two simplices; facets on one simplex form
    the marked boundary.
    """

    def __init__(self, vertices, simplices):
        v = _finite_vertices(vertices)
        n1 = v.shape[1]
        if n1 < 2:
            raise InvalidInputError(
                "hypersurface 'vertices' need at least 2 columns", vertices=v.shape)
        try:
            simp = np.array(simplices, dtype=int)
        except ValueError:  # ragged rows: name the first of the wrong width
            _check_widths(simplices, n1)
            raise
        if len(simp) and (simp.ndim != 2 or simp.shape[1] != n1):
            _check_widths(simplices, n1)
            raise TypeError("hypersurface simplices must be rows of indices")
        if not len(simp):
            raise InvalidInputError("hypersurface needs at least one simplex")
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
        self._stack = _SurfaceStack(self._complex, v[None])
        bad = np.flatnonzero(self._stack.degenerate[0])
        if bad.size:
            raise InvalidInputError(
                "degenerate simplex: edge vectors nearly dependent",
                simplex=int(bad[0]))
        self._dets = self._stack.dets[0]

    def interior_vertices(self):
        return np.flatnonzero(self._complex.interior).tolist()

    # -- geometry

    def radial_sign(self, si):
        return float(np.sign(self._dets[si]))

    def chirality(self):
        """Sign relating the first simplex's stored order to the radial one."""
        s = self.radial_sign(0)
        if s == 0.0:
            raise TransversalityError("first simplex has a degenerate ray cone")
        return s

    def radial_values(self, dirs):
        """PL radius of the surface along each direction; nan when uncovered.
        The lowest-numbered simplex containing a direction gives its value."""
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        out = np.full(dirs.shape[0], np.nan)
        rows, _, low, total = self._stack._cone_pairs(dirs[None])
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


def radial_section_check(surf: SimplicialHypersurface) -> RadialSectionResult:
    """Does every ray from the origin meet the surface exactly once?

    Per-simplex transversality (origin off the affine hull, by the vertex
    determinant), then the exact sign tests of `_section_faults`, reported as
    `fold` (two simplices), `winding` (a vertex), `crossing` (two boundary
    edges) and `multiplicity` (a vertex, and as `hits` the simplices outside
    its star that its ray meets).  Chart dimension 3 raises InvalidInputError
    until its tests of edge windings and triangle crossings are written.
    """
    if surf.simplices.shape[1] > 3:
        raise InvalidInputError("the radial section check supports chart dim <= 2")
    trans = surf._stack.transversality()[0]
    min_trans = float(trans.min())
    violations = [{"kind": "transversality", "simplex": si}
                  for si in np.flatnonzero(trans <= 1e-10).tolist()]
    if violations:
        return RadialSectionResult(False, violations, min_trans)
    *masks, (rows, simp) = _section_faults(surf._stack)
    fold, wound, crossed, multiple = (mask[0] for mask in masks)
    pair_a, pair_b, _ = surf._complex.pairs
    _, at, ends, e, f = surf._complex.section()
    edges = ends[at].tolist()
    violations = [{"kind": "fold", "simplices": [a, b]}
                  for a, b in zip(pair_a[fold].tolist(), pair_b[fold].tolist())]
    violations += [{"kind": "winding", "vertex": v} for v in np.flatnonzero(wound).tolist()]
    violations += [{"kind": "crossing", "edges": [edges[i], edges[j]]}
                   for i, j in zip(e[crossed].tolist(), f[crossed].tolist())]
    for v in np.flatnonzero(multiple).tolist():
        lo, hi = np.searchsorted(rows, [v, v + 1])
        violations.append({"kind": "multiplicity", "vertex": v, "hits": simp[lo:hi].tolist()})
    return RadialSectionResult(not violations, violations, min_trans)


def _section_faults(stack):
    """The sign tests of the radial section check on each surface of a
    transversal stack (R surfaces on V vertices):

    - fold: across each interior facet, the two opposite vertices lie on
      either side of the hyperplane through the origin and that facet, as
      the signs of the two simplex determinants tell;
    - winding (chart dimension 2): seen from the origin, the angles of a
      vertex's star sum to less than 2 pi at a boundary vertex, and to less
      than 3 pi (so exactly 2 pi) at an interior vertex;
    - crossing (chart dimension 2): no two boundary edges without a shared
      vertex cross on the sphere, by four determinant signs that count as 0
      within TOL.coplanarity times Hadamard's bound (arcs on one great
      circle, as along a polygon side, do not cross);
    - multiplicity: no vertex's ray meets a simplex outside its star, by
      the hit test of `_SurfaceStack._candidates`.

    They are exact together: the first two make the radial projection a
    local homeomorphism, the third embeds the boundary, and any overlap of
    two sheets would then put a boundary vertex of one inside the closed
    cone of a simplex of the other.  Returns the masks of folded pairs
    (R, P), wound vertices (R, V), crossed edge pairs (R, Q) and vertices
    with hits (R, V), and the sorted hits (rows r * V + v, simplices
    r * T + t).
    """
    cx, verts, dets = stack.complex, stack.vertices, stack.dets
    r_count, v_count = verts.shape[:2]
    t_count, k = cx.simplices.shape
    unfolded, at, ends, e, f = cx.section()
    pair_a, pair_b, _ = cx.pairs
    fold = np.sign(dets[:, pair_a]) * np.sign(dets[:, pair_b]) != unfolded
    wound = np.zeros((r_count, v_count), dtype=bool)
    crossed = np.zeros((r_count, e.size), dtype=bool)
    if k == 3:
        # the angle at p between the planes (p, a) and (p, b) has sine
        # |p| |det| and cosine (p . p)(a . b) - (p . a)(p . b), over one scale
        gram = np.einsum("rtij,rtkj->rtik", stack.pts, stack.pts)
        p, a, b = [0, 1, 2], [1, 2, 0], [2, 0, 1]
        angles = np.arctan2(np.sqrt(gram[..., p, p]) * np.abs(dets)[..., None],
                            gram[..., p, p] * gram[..., a, b] - gram[..., p, a] * gram[..., p, b])
        keys = np.arange(r_count)[:, None, None] * v_count + cx.simplices
        total = np.bincount(keys.ravel(), angles.ravel(), r_count * v_count)
        wound = total.reshape(r_count, v_count) >= np.where(cx.interior, 3 * np.pi, 2 * np.pi)
        pts = np.take(verts, ends, axis=1)
        norm = np.sqrt(np.einsum("rvj,rvj->rv", pts, pts))
        cross = _minors(pts[:, at])   # the normals p x q of the edges' planes
        side = (np.stack([cross[2], -cross[1], cross[0]], axis=-1)
                @ np.swapaxes(pts, 1, 2))
        bound = (norm[:, at[:, 0]] * norm[:, at[:, 1]])[:, :, None] * norm[:, None, :]
        side = np.where(np.abs(side) > TOL.coplanarity * bound, np.sign(side), 0.0)
        # arcs (p, q) and (c, d) cross where c, d lie on either side of the
        # plane of p, q and p, q on either side of that of c, d, at the same
        # one of the two points that the great circles share
        s_c, s_d = side[:, e, at[f, 0]], side[:, e, at[f, 1]]
        s_p, s_q = side[:, f, at[e, 0]], side[:, f, at[e, 1]]
        crossed = (s_c * s_d < 0) & (s_p * s_q < 0) & (s_d == s_p)
    rows, simp, low, total = stack._cone_pairs(verts)
    vert = rows % v_count
    hit = ((low >= -1e-12) & (total > 0) & cx.used[vert]
           & ~(cx.simplices[simp % t_count] == vert[:, None]).any(axis=1))
    rows, simp = rows[hit], simp[hit]
    multiple = np.bincount(rows, minlength=r_count * v_count).reshape(r_count, v_count) > 0
    return fold, wound, crossed, multiple, (rows, simp)


# ---------------------------------------------------------------------------
# determinant convexity test


@dataclass
class VertexConvexity:
    sign: int
    margin: float
    determinants: list  # (simplex index, test vertex index, value)


def _oriented_dets(stack, t, u):
    """det(vertices of simplex t - vertex u) for stacked indices on each
    surface of the stack, (R, len(t)), times the radial sign of t and the
    chirality (the radial sign of the first simplex)."""
    verts = stack.vertices
    mats = (np.take(verts, stack.complex.simplices[t], axis=1)
            - np.take(verts, u, axis=1)[:, :, None, :])
    return (np.sign(stack.dets[:, :1]) * np.sign(stack.dets[:, t])) * _det(mats)


def _judge_stars(v, adjacent, vals):
    """Per-vertex verdicts on star checks sorted by vertex, for each row of
    their determinants vals (R, C).

    Returns the flat adjacent checks (coplanar stars), the mask of checks at
    vertices without one, and each vertex's sign (R, vertices): +1 or -1
    when every determinant at it has that sign, else 0.
    """
    folded = (np.abs(vals) <= TOL.coplanarity) & adjacent
    first = _run_starts(v)
    starts = np.flatnonzero(first)
    keep = ~np.logical_or.reduceat(folded, starts, axis=1)[:, np.cumsum(first) - 1]
    signs = np.sign(vals)
    lo = np.minimum.reduceat(signs, starts, axis=1)
    hi = np.maximum.reduceat(signs, starts, axis=1)
    return folded, keep, np.where(lo == hi, lo, 0.0).astype(int)


def _coplanar_stars(v, t, u, vals, folded):
    """Error data of the first flat adjacent check at each vertex."""
    i = np.flatnonzero(folded)
    return [{"vertex": int(v[j]), "simplex": int(t[j]), "test_vertex": int(u[j]),
             "determinant": float(vals[j])} for j in i[_run_starts(v[i])].tolist()]


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
    vs, t, u = vs[lo:hi], t[lo:hi], u[lo:hi]
    surf.chirality()   # raises where the first simplex's ray cone is flat
    vals = _oriented_dets(surf._stack, t, u)
    folded, _, sign = _judge_stars(vs, adjacent[lo:hi], vals)
    vals = vals[0]
    coplanar = _coplanar_stars(vs, t, u, vals, folded[0])
    if coplanar:
        raise CoplanarStarError("adjacent simplices are coplanar", **coplanar[0])
    return VertexConvexity(int(sign[0, 0]), float(np.abs(vals).min()),
                           _determinant_list(t, u, vals))


@dataclass
class ConvexityCertificate:
    ok: bool
    sign: int
    margin: float
    checks: int
    violations: list = field(default_factory=list)

    def to_json(self):
        return asdict(self)


def _judge_certificates(stack):
    """The certificate's determinants and verdict on each surface of the
    stack, one stacked evaluation over the complex's index arrays.

    Returns the determinants of the adjacent pairs (R, P) and of the star
    checks (R, C), the flat pairs, the coplanar stars, the checks kept and
    the vertex signs (`_judge_stars`), and per row the majority sign and
    whether the certificate holds.
    """
    pair_a, _, pair_u = stack.complex.pairs
    v, t, u, adjacent = stack.complex.checks()
    vals = _oriented_dets(stack, np.concatenate([pair_a, t]),
                          np.concatenate([pair_u, u]))
    pair_vals, vals = vals[:, :pair_a.size], vals[:, pair_a.size:]
    flat = np.abs(pair_vals) <= TOL.coplanarity
    folded, keep, signs = _judge_stars(v, adjacent, vals)
    # one orientation sign must work globally: the majority of the checks
    # kept, or without an interior vertex, of the adjacent pairs
    checked, counted = (vals, keep) if v.size else (pair_vals, True)
    majority = np.where(np.sum((checked > 0) & counted, axis=1)
                        >= np.sum((checked < 0) & counted, axis=1), 1, -1)
    ok = ~flat.any(axis=1) & ~folded.any(axis=1) & (signs == majority[:, None]).all(axis=1)
    if not v.size:
        ok &= (np.sign(pair_vals) == majority[:, None]).all(axis=1)
    return pair_vals, vals, flat, folded, keep, signs, majority, ok


def certify_generic_convex(surf: SimplicialHypersurface) -> ConvexityCertificate:
    """Global convexity certificate: radial section, a single determinant sign
    across all interior vertex stars, and no coplanar adjacent pair.

    Every determinant (adjacent pairs, then star checks) is one stacked
    evaluation over the complex's precomputed index arrays
    (`_judge_certificates`, which `perturbation_radius` runs on many
    surfaces at once).  Without an interior vertex the adjacent-pair
    determinants must share one sign; a lone simplex has none and passes
    with an infinite margin.
    """
    rs = radial_section_check(surf)
    if not rs.ok:
        raise TransversalityError("surface is not a radial section",
                                  violations=rs.violations)
    pair_vals, vals, flat, folded, keep, signs, majority, _ = (
        a[0] for a in _judge_certificates(surf._stack))
    pair_a, pair_b, _ = surf._complex.pairs
    v, t, u, _ = surf._complex.checks()

    def pair_violations(kind, mask):
        return [{"kind": kind, "simplices": [a, b], "determinant": d}
                for a, b, d in zip(pair_a[mask].tolist(), pair_b[mask].tolist(),
                                   pair_vals[mask].tolist())]

    starts = np.flatnonzero(_run_starts(v))
    ends = np.append(starts[1:], v.size)

    def vertex_violation(i):
        lo, hi = starts[i], ends[i]
        return {"kind": "vertex", "vertex": int(v[lo]),
                "determinants": _determinant_list(t[lo:hi], u[lo:hi], vals[lo:hi])}

    violations = pair_violations("coplanarity", flat)
    kept = keep[starts]
    per_vertex = [{"kind": "coplanarity", **data}
                  for data in _coplanar_stars(v, t, u, vals, folded)]
    per_vertex += [vertex_violation(i) for i in np.flatnonzero(kept & (signs == 0))]
    violations += sorted(per_vertex, key=lambda viol: viol["vertex"])
    # minority vertices are flagged, or without an interior vertex, minority
    # adjacent pairs
    violations += [vertex_violation(i) for i in
                   np.flatnonzero(kept & (signs != 0) & (signs != majority))]
    if not v.size:
        violations += pair_violations("fold", ~flat & (np.sign(pair_vals) != majority))
    checked = vals[keep] if v.size else pair_vals
    if violations:
        return ConvexityCertificate(False, 0, 0.0, checked.size, violations)
    return ConvexityCertificate(True, int(majority),
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
    most twice the displacement; Hadamard bounds the cofactors).  Without an
    interior vertex B bounds the adjacent-pair determinants; without those,
    nothing is checked and InvalidInputError is raised.

    Verified by re-certifying `trials` (at least 1) random perturbations at
    0.9 epsilon, each vertex moved by that length in a seeded normal
    direction, and 20 more at ten times epsilon, of which at least one
    should fail (`failed_at_10x`).
    A perturbed surface passes when `certify_generic_convex` of it holds
    with this surface's sign.  The perturbed surfaces share this one's
    complex and are judged together by `_recertified`, as many at a time as
    keep one surface's boundary crossing signs (two per boundary edge and
    boundary vertex) or determinant matrices, times their number, within
    _SECTION_CHUNK entries.
    """
    if trials < 1:
        raise InvalidInputError("need at least one trial", trials=trials)
    cert = certify_generic_convex(surf)
    if not cert.ok:
        raise ApproximationFailureError("surface is not generic-convex",
                                        violations=cert.violations)
    cx = surf._complex
    _, t, u, _ = cx.checks()
    if not t.size:
        t, _, u = cx.pairs
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
    # one draw for every trial: the stream of one draw per trial in turn
    scale = np.repeat([0.9 * eps, 10.0 * eps], [trials, 20])
    disp = np.random.default_rng(seed).normal(size=(scale.size, *surf.vertices.shape))
    disp *= scale[:, None, None] / np.linalg.norm(disp, axis=2)[:, :, None]
    verts = surf.vertices + disp
    k = surf.simplices.shape[1]
    _, at, ends, _, _ = cx.section()
    per_trial = max(at.size * ends.size, (cx.pairs[0].size + cx.checks()[0].size) * k * k)
    step = max(1, _SECTION_CHUNK // per_trial)
    passed = np.concatenate([_recertified(cx, verts[lo:lo + step], cert.sign)
                             for lo in range(0, scale.size, step)])
    return PerturbationResult(float(eps), float(bound), int(passed[:trials].sum()),
                              trials, not passed[trials:].all())


def _recertified(cx, verts, sign):
    """Per vertex array of verts (R, V, n): does the surface on the complex
    cx pass `certify_generic_convex` with this sign?  A row fails where that
    would raise: non-finite or degenerate, not transversal, or failing a
    test of `_section_faults`.  Non-finite, degenerate and non-transversal
    rows are dropped first, since their ray cones may have no inverse."""
    passed = np.zeros(len(verts), dtype=bool)
    rows = np.flatnonzero(np.isfinite(verts).all(axis=(1, 2)))
    stack = _SurfaceStack(cx, verts[rows])
    keep = ~stack.degenerate.any(axis=1) & (stack.transversality() > 1e-10).all(axis=1)
    stack, rows = stack.select(keep), rows[keep]
    if rows.size:
        *_, majority, ok = _judge_certificates(stack)
        *faults, _ = _section_faults(stack)
        passed[rows] = ok & (majority == sign) & ~np.any([m.any(axis=1) for m in faults], axis=0)
    return passed


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
    """`deviation_bound` is an upper bound on the radial gap between `surface` and S."""
    surface: SimplicialHypersurface
    certificate: ConvexityCertificate
    deviation_bound: float
    jitter_rounds: int


def pl_characteristic_surface(cone, budget: int,
                              seed: int = DEFAULT_SEED) -> PLSurfaceResult:
    """Lift about `budget` sample directions of the cone to its characteristic
    surface S, span them by their hull's origin-facing faces (`_origin_faces`)
    and certify.  S is a level set of Vinberg's characteristic function,
    which is log-convex and homogeneous, so the region above it is convex and
    those faces form the convex radial section the certificate accepts.
    Where the hull splits a coplanar quad, the radii are jittered and
    re-hulled; the deviation bound is an upper bound on the radial gap to S."""
    # imported here, so that the commands on a given mesh do not load vinberg
    from .vinberg import _as_cone, _characteristic_rows, characteristic_points
    cone = _as_cone(cone)
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
    on_s, tangents, ok = _characteristic_rows(cone, dirs)
    if not ok.all():   # raises the error of the first failing row
        characteristic_points(cone, dirs[~ok])
    radii = exact = _norm(on_s)

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
    deviation = float(_face_deviations(pts, exact, tangents, surf.simplices).max())
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
    flip = _det(pts[faces]) < 0
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
    j = np.arange(1, rings + 1)[:, None]
    ang = 2 * np.pi * (np.arange(angles) + 0.5 * (j % 2)) / angles
    u = np.stack([np.cos(ang), np.sin(ang)], axis=-1).reshape(-1, 2)
    _, t_hi = dom.backend.chord_params(centroid, u)
    frac = np.repeat(_INSET * j[:, 0] / rings, angles)
    return np.vstack([centroid, centroid + (frac * t_hi)[:, None] * u])


def _face_deviations(pts, exact, tangents, faces):
    """Upper bound on the radial gap between each face and the surface S with
    radii `exact` and tangent functionals l_i along the rows of `pts`.  As S
    lies in {l_i.y >= 1}, the gap is at most max_j |p_j| (1 - 1 / v), v the
    largest min_i l_i.x on the face: at a vertex, where two l_i tie on an
    edge or where three tie, each a closed form in A[i, j] = l_i.p_j.
    Jitter takes a face below S by at most its vertices' relative offsets."""
    corners = pts[faces]
    a = np.einsum("tin,tjn->tij", tangents[faces], corners)
    i, j = np.triu_indices(faces.shape[1], 1)
    ends = a[..., i], a[..., j]                         # (T, l, edge)
    d0, d1 = (e[:, i] - e[:, j] for e in ends)          # (T, tied pair, edge)
    s = np.clip(np.divide(d0, d0 - d1, out=0.0 * d0, where=d0 != d1), 0.0, 1.0)[:, :, None]
    ties = ((1.0 - s) * ends[0][:, None] + s * ends[1][:, None]).min(axis=2)
    best = np.maximum(a.min(axis=1).max(axis=1), ties.max(axis=(1, 2)))
    if faces.shape[1] == 3:   # all tie at weights A^-1 1: the adjugate's row sums
        w = _adjugate(a).sum(axis=2)
        total = w.sum(axis=1)[:, None]
        lam = np.divide(w, total, out=np.full_like(w, -1.0), where=total != 0)
        lam[(lam < 0.0).any(axis=1)] = np.eye(3)[0]   # off the face: a vertex
        best = np.maximum(best, _matvec(a, lam).min(axis=1))
    drift = np.abs(_norm(pts) / exact - 1.0).max() * exact.max()
    return np.maximum(_norm(corners).max(axis=1) * (1.0 - 1.0 / best), drift)
