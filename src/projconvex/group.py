"""Automorphisms of a domain: membership tests, hyperbolic dynamics with
translation lengths, orbit enumeration, and polyhedral fundamental domains.
"""

from dataclasses import dataclass

import numpy as np

from .config import TOL
from .domain import (
    Chord,
    ConvexCone,
    ConvexDomain,
    _homogeneous_quadric,
    _sphere_directions,
    support as dom_support,
)
from .errors import (
    AutomorphismInconsistencyError,
    GeometryError,
    InvalidBasepointError,
    InvalidInputError,
    NotHyperbolicError,
)
from .hilbert import _distance_chart, _golden_min
from .projgeom import ProjPoint, ProjTransform, null_space
from .vinberg import characteristic_point, min_volume_on_fiber

# Iterates `attractor_convergence` tries, and sampled support functionals
# standing in for an ellipsoid cone's boundary in `dirichlet_domain`.
_ATTRACTOR_STEPS = 2000
_CONIC_SAMPLES = 64


@dataclass
class AutoCheck:
    is_automorphism: bool
    residual: float


def is_automorphism(dom: ConvexDomain, a: ProjTransform, tol: float = 1e-8) -> AutoCheck:
    """Does the transform preserve the domain?

    Polytopes: the vertex set must map to itself (combinatorial matching).
    Ellipsoids: the defining quadric must be preserved up to scale.
    Radial graphs: support functions must agree on the direction set.
    """
    b = dom.backend
    if b.kind == "ellipsoid":
        q = _homogeneous_quadric(b, dom.chart)
        minv = np.linalg.inv(a.matrix)
        q2 = minv.T @ q @ minv
        lam = float(np.tensordot(q2, q) / np.tensordot(q, q))
        res = float(np.linalg.norm(q2 - lam * q) / (abs(lam) * np.linalg.norm(q)))
        return AutoCheck(res <= tol, res)
    if b.kind == "radialgraph":
        try:
            image = dom.transform(a, chart=dom.chart)
        except GeometryError:
            return AutoCheck(False, np.inf)
        hs_old = np.array([b.support(u) for u in b.directions])
        hs_new = np.array([image.backend.support(u) for u in b.directions])
        res = float(np.max(np.abs(hs_old - hs_new)))
        return AutoCheck(res <= tol, res)
    verts = b.vertices()
    lifts = dom.chart.lift_many(verts) @ a.matrix.T
    h = lifts @ dom.chart.infinity
    if np.any(np.abs(h) <= TOL.exact):
        return AutoCheck(False, np.inf)
    images = (lifts @ dom.chart.frame) / h[:, None]
    dists = np.linalg.norm(images[:, None, :] - verts[None, :, :], axis=2)
    res = 0.0
    used = set()
    for i in range(images.shape[0]):
        order = np.argsort(dists[i])
        j = next((j for j in order if j not in used), None)
        if j is None:
            return AutoCheck(False, np.inf)
        used.add(int(j))
        res = max(res, float(dists[i, j]))
    return AutoCheck(res <= tol, res)


@dataclass
class HyperbolicData:
    a_plus: ProjPoint
    a_minus: ProjPoint
    axis: Chord
    translation_length: float
    length_infimum: float    # golden-section minimum of the displacement
    length_eigen: float      # half the log-ratio of extreme eigenvalue moduli
    eigenvalue_gap: float    # |lambda_1| / |lambda_2|


def _power_iterate(mat, steps=500, tol=1e-13):
    v = np.ones(mat.shape[0]) / np.sqrt(mat.shape[0])
    for _ in range(steps):
        w = mat @ v
        w = w / np.linalg.norm(w)
        if np.linalg.norm(w - v) < tol or np.linalg.norm(w + v) < tol:
            return w
        v = w
    return v


def fixed_point_dynamics(dom: ConvexDomain, a: ProjTransform) -> HyperbolicData:
    """Attracting and repelling fixed points, axis, and translation length.

    Requires a biproximal transform preserving the domain; the length is
    reported both as the displacement infimum along the axis and as half the
    log-ratio of the extreme eigenvalue moduli.
    """
    chk = is_automorphism(dom, a, tol=1e-6)
    if not chk.is_automorphism:
        raise InvalidInputError(
            "transform does not preserve the domain", residual=chk.residual)
    vals, vecs = np.linalg.eig(a.matrix)
    moduli = np.abs(vals)
    order = np.argsort(-moduli)
    top, second = order[0], order[1]
    bottom = order[-1]
    if moduli[top] - moduli[second] <= 1e-9 * moduli[top] or \
            abs(vals[top].imag) > 1e-9 * moduli[top]:
        raise NotHyperbolicError("leading eigenvalue is not simple and real",
                                 eigenvalues=vals)
    if np.abs(moduli[order[-2]] - moduli[bottom]) <= 1e-9 * moduli[top] or \
            abs(vals[bottom].imag) > 1e-9 * moduli[top]:
        raise NotHyperbolicError("smallest eigenvalue is not simple and real",
                                 eigenvalues=vals)
    vec_plus = np.real(vecs[:, top])
    vec_minus = np.real(vecs[:, bottom])
    # cross-check the eigensolver with plain power iteration
    pw = _power_iterate(a.matrix)
    if min(np.linalg.norm(pw - vec_plus / np.linalg.norm(vec_plus)),
           np.linalg.norm(pw + vec_plus / np.linalg.norm(vec_plus))) > 1e-6:
        raise NotHyperbolicError("power iteration disagrees with eigensolver")

    def _frontier_point(vec):
        if dom.chart.height(vec) < 0:
            vec = -vec
        p = ProjPoint(vec, canonicalize=False)
        x = dom.chart.to_chart(p)
        m = dom.backend.contains_margin(x)
        if abs(m) > TOL.frontier:
            raise AutomorphismInconsistencyError(
                "fixed point is not on the frontier", margin=m)
        return p, x

    p_plus, x_plus = _frontier_point(vec_plus)
    p_minus, x_minus = _frontier_point(vec_minus)
    axis = Chord(dom, x_minus, x_plus, check=False)

    length_eigen = 0.5 * float(np.log(moduli[top] / moduli[bottom]))

    def displacement(s):
        x = axis.point_at(s)
        lift = dom.chart.lift(x)
        y = dom.chart.to_chart(ProjPoint(a.matrix @ lift, canonicalize=False))
        return _distance_chart(dom, x, y)

    def displacements(_, s):
        return [displacement(v) for v in s]

    length_inf = np.nan
    try:
        length_inf = _golden_min(displacements, [0.05], [0.95], tol=1e-12)[1][0]
    except GeometryError:
        pass  # axis may touch the frontier for non-strictly-convex backends
    primary = length_inf if np.isfinite(length_inf) else length_eigen
    return HyperbolicData(
        a_plus=p_plus,
        a_minus=p_minus,
        axis=axis,
        translation_length=float(primary),
        length_infimum=float(length_inf),
        length_eigen=length_eigen,
        eigenvalue_gap=float(moduli[top] / moduli[second]),
    )


def attractor_convergence(dom: ConvexDomain, a: ProjTransform, x,
                          tol: float = 1e-6) -> int:
    """Smallest k with the k-th iterate within chart distance tol of a_plus."""
    hd = fixed_point_dynamics(dom, a)
    target = dom.chart.to_chart(hd.a_plus)
    vec = dom.chart.lift(dom.chart_coords(x))
    for k in range(1, _ATTRACTOR_STEPS + 1):
        vec = a.matrix @ vec
        vec = vec / np.linalg.norm(vec)
        if abs(dom.chart.height(vec)) <= TOL.exact:
            continue
        if np.linalg.norm(dom.chart.to_chart(vec * np.sign(dom.chart.height(vec))) - target) < tol:
            return k
    raise NotHyperbolicError("iterates did not reach the attracting point",
                             kmax=_ATTRACTOR_STEPS)


# ---------------------------------------------------------------------------
# orbits and words


def _reduced_word_matrices(gens, max_len, dim=None):
    """All reduced words up to max_len with their matrices, the empty word first.

    A word is a tuple of letters (generator index, +1 or -1); the letters
    run over the generators, then over their inverses.
    """
    mats = [g.matrix if isinstance(g, ProjTransform) else np.asarray(g, float)
            for g in gens]
    if not mats:
        return [((), np.eye(dim))] if dim else []
    invs = [np.linalg.inv(m) for m in mats]
    letters = [(i, +1) for i in range(len(mats))] + \
              [(i, -1) for i in range(len(mats))]
    out = [((), np.eye(mats[0].shape[0]))]
    frontier = list(out)
    for _ in range(max_len):
        nxt = []
        for word, m in frontier:
            for i, s in letters:
                if word and word[-1] == (i, -s):
                    continue
                mat = m @ (mats[i] if s > 0 else invs[i])
                nxt.append((word + ((i, s),), mat))
        out.extend(nxt)
        frontier = nxt
    return out


def word_label(word):
    return "".join(f"g{i}" + ("" if s > 0 else "'") for i, s in word) or "e"


def orbit(gens, seed: ProjPoint, max_len: int):
    """Images of the seed under all reduced words up to the given length,
    deduplicated projectively at 1e-10."""
    if max_len < 0:
        raise InvalidInputError("word length bound must be nonnegative")
    if isinstance(seed, ProjPoint):
        vec = seed.coords
    else:
        vec = np.asarray(seed, dtype=float)
        vec = vec / np.linalg.norm(vec)
    pts = []
    seen = set()
    for _, m in _reduced_word_matrices(gens, max_len, dim=vec.size):
        p = ProjPoint(m @ vec)
        key = tuple(np.round(p.coords, 10))
        if key in seen:
            continue
        seen.add(key)
        pts.append(p)
    return pts


# ---------------------------------------------------------------------------
# Dirichlet-style fundamental domains


@dataclass
class DirichletFacet:
    label: str            # word contributing the constraint, or "cone"
    normal: np.ndarray    # in the hyperplane coordinates
    offset: float
    vertices: np.ndarray  # ambient coordinates of the facet vertices


@dataclass
class DirichletDomain:
    base_point: np.ndarray       # on the characteristic surface
    hyperplane: np.ndarray       # functional fixing the slice
    vertices: np.ndarray         # ambient vertices of the polytope
    facets: list
    pairings: dict               # word label -> inverse word label (both active)
    stable: bool                 # facet labels identical at depth L-1 and L
    word_depth: int


def dirichlet_domain(cone: ConvexCone, gens, x, max_len: int) -> DirichletDomain:
    """Fundamental polytope in the tangent slice of the characteristic surface.

    The halfspace at the base point is bounded by the tangent hyperplane of
    the characteristic surface there; intersecting its translates over all
    reduced words up to max_len and the cone itself yields the polytope.
    """
    from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

    dom = cone.domain
    for g in gens:
        gt = g if isinstance(g, ProjTransform) else ProjTransform(g)
        chk = is_automorphism(dom, gt, tol=1e-6)
        if not chk.is_automorphism:
            raise InvalidInputError("generator does not preserve the cone",
                                    residual=chk.residual)
    x = np.asarray(x, dtype=float)
    if cone.contains_vector(x) <= 0:
        raise InvalidInputError("base point is not inside the cone")
    ref = x / np.linalg.norm(x)
    for w, m in _reduced_word_matrices(gens, max_len, dim=x.size):
        if not w:
            continue
        y = m @ ref
        y = y / np.linalg.norm(y)
        if min(np.linalg.norm(y - ref), np.linalg.norm(y + ref)) < 1e-10:
            raise InvalidBasepointError(
                "base point is fixed by a word", word=word_label(w))
    x_s = characteristic_point(cone, x)
    vstar = min_volume_on_fiber(cone, x_s).phi

    def _solve(depth):
        words = [(w, m) for w, m in _reduced_word_matrices(gens, depth, dim=x_s.size)
                 if w]
        z = null_space(vstar[None, :])
        n = z.shape[1]
        rows, offs, labels = [], [], []
        for w, m in words:
            c = np.linalg.solve(m.T, vstar)
            rows.append(-(z.T @ c))
            offs.append(float(c @ x_s) - 1.0)
            labels.append(word_label(w))
        for r in _cone_constraints(cone):
            rows.append(-(z.T @ r))
            offs.append(float(r @ x_s))
            labels.append("cone")
        a_ub = np.array(rows)
        b_ub = np.array(offs)
        if n == 1:
            av = a_ub[:, 0]
            hi = np.min(b_ub[av > TOL.exact] / av[av > TOL.exact])
            lo = np.max(-b_ub[av < -TOL.exact] / (-av[av < -TOL.exact]))
            verts_s = np.array([[lo], [hi]])
        else:
            hs = HalfspaceIntersection(np.hstack([a_ub, -b_ub[:, None]]),
                                       np.zeros(n))
            verts_s = hs.intersections[ConvexHull(hs.intersections).vertices]
        verts = x_s[None, :] + verts_s @ z.T
        facets = []
        active = []
        scale = 1.0 + float(np.max(np.abs(verts_s)))
        for i, (row, off, lab) in enumerate(zip(a_ub, b_ub, labels)):
            slack = off - verts_s @ row
            on = np.abs(slack) <= 1e-9 * scale * max(1.0, np.linalg.norm(row))
            if np.count_nonzero(on) >= max(1, n):
                facets.append(DirichletFacet(lab, row, float(off), verts[on]))
                if lab != "cone":
                    active.append(lab)
        return verts, facets, sorted(set(active))

    verts, facets, active = _solve(max_len)
    stable = True
    if max_len >= 2:
        try:
            _, _, active_prev = _solve(max_len - 1)
            stable = active_prev == active
        except (GeometryError, QhullError, ValueError):
            stable = False
    pairings = {}
    label_set = set(active)
    for w, _ in _reduced_word_matrices(gens, max_len, dim=x_s.size):
        if not w:
            continue
        lab = word_label(w)
        if lab in label_set:
            inv = word_label(tuple((i, -s) for i, s in reversed(w)))
            pairings[lab] = inv if inv in label_set else None
    return DirichletDomain(
        base_point=x_s,
        hyperplane=vstar,
        vertices=verts,
        facets=facets,
        pairings=pairings,
        stable=stable,
        word_depth=max_len,
    )


def _cone_constraints(cone: ConvexCone):
    """Functionals nonnegative on the cone: exact facets or sampled supports."""
    dom = cone.domain
    b = dom.backend
    chart = dom.chart
    if b.kind == "ellipsoid":
        return [dom_support(dom, b.support_point(u)).coeffs
                for u in _sphere_directions(dom.dim, _CONIC_SAMPLES)]
    hp = b.as_hpoly()
    return [float(bo) * chart.infinity - chart.frame @ ao
            for ao, bo in zip(hp.normals, hp.offsets)]
