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
    _chart_images,
    _facet_functionals,
    _halfspace_vertices,
    _homogeneous_quadric,
    _norm,
    _sphere_directions,
    support as dom_support,
)
from .errors import (
    AtInfinityError,
    AutomorphismInconsistencyError,
    GeometryError,
    InvalidBasepointError,
    InvalidInputError,
    NotHyperbolicError,
)
from .projgeom import ProjPoint, ProjTransform, null_space

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

    Ellipsoids: the defining quadric must be preserved up to scale.
    Polytopes, radial graphs among them: the vertex set must map to itself;
    the residual is the Hausdorff distance between the mapped vertices and
    the vertices, and a vertex sent to infinity fails the test.
    """
    b = dom.backend
    if b.kind == "ellipsoid":
        q = _homogeneous_quadric(b, dom.chart)
        minv = np.linalg.inv(a.matrix)
        q2 = minv.T @ q @ minv
        lam = float(np.tensordot(q2, q) / np.tensordot(q, q))
        res = float(np.linalg.norm(q2 - lam * q) / (abs(lam) * np.linalg.norm(q)))
        return AutoCheck(res <= tol, res)
    verts = b.vertices()
    try:
        images, _ = _chart_images(dom.chart, dom.chart.lift_many(verts) @ a.matrix.T)
    except AtInfinityError:
        return AutoCheck(False, np.inf)
    dists = np.linalg.norm(images[:, None, :] - verts[None, :, :], axis=2)
    res = float(max(dists.min(axis=1).max(), dists.min(axis=0).max()))
    return AutoCheck(res <= tol, res)


@dataclass
class HyperbolicData:
    a_plus: ProjPoint
    a_minus: ProjPoint
    axis: Chord
    translation_length: float
    length_eigen: float      # equals translation_length (the eigenvalue closed form)
    eigenvalue_gap: float    # |lambda_1| / |lambda_2|


def fixed_point_dynamics(dom: ConvexDomain, a: ProjTransform,
                         tol: float = None) -> HyperbolicData:
    """Attracting and repelling fixed points, axis, and translation length.

    Requires a biproximal transform preserving the domain: its eigenvalues
    of largest and smallest modulus are simple and real, and their
    eigenvectors are the attracting and repelling fixed points on the
    frontier.  The Hilbert translation length is the closed form
    1/2 log(|lambda_1| / |lambda_n|) (Cooper-Long-Tillmann 2015), reached
    on the axis joining the two fixed points.  Both eigenpairs must have a
    residual |A v - lambda v| of at most 1e-9 |A| |v|, and both fixed points
    a chart margin of at most `tol` (default `TOL.frontier`).
    """
    tol = TOL.frontier if tol is None else tol
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
    # relative to |A|: a long translation's e^-t is below A v's rounding
    scale = 1e-9 * np.linalg.norm(a.matrix)
    for lam, vec in ((vals[top].real, vec_plus), (vals[bottom].real, vec_minus)):
        res = np.linalg.norm(a.matrix @ vec - lam * vec)
        if res > scale * np.linalg.norm(vec):
            raise NotHyperbolicError("eigenpair residual is too large",
                                     eigenvalue=float(lam), residual=float(res))

    def _frontier_point(vec):
        if dom.chart.height(vec) < 0:
            vec = -vec
        p = ProjPoint(vec, canonicalize=False)
        x = dom.chart.to_chart(p)
        m = dom.backend.contains_margin(x)
        if abs(m) > tol:
            raise AutomorphismInconsistencyError(
                "fixed point is not on the frontier", margin=m)
        return p, x

    p_plus, x_plus = _frontier_point(vec_plus)
    p_minus, x_minus = _frontier_point(vec_minus)
    length = 0.5 * float(np.log(moduli[top] / moduli[bottom]))
    return HyperbolicData(
        a_plus=p_plus,
        a_minus=p_minus,
        axis=Chord(dom, x_minus, x_plus, check=False),
        translation_length=length,
        length_eigen=length,
        eigenvalue_gap=float(moduli[top] / moduli[second]),
    )


def attractor_convergence(dom: ConvexDomain, a: ProjTransform, x) -> int:
    """Smallest k with the k-th iterate within chart distance 1e-6 of a_plus."""
    hd = fixed_point_dynamics(dom, a)
    target = dom.chart.to_chart(hd.a_plus)
    vec = dom.chart.lift(dom.chart_coords(x))
    for k in range(1, _ATTRACTOR_STEPS + 1):
        vec = a.matrix @ vec
        vec = vec / np.linalg.norm(vec)
        if abs(dom.chart.height(vec)) <= TOL.exact:
            continue
        if np.linalg.norm(dom.chart.to_chart(vec * np.sign(dom.chart.height(vec))) - target) < 1e-6:
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
    images = np.array([m @ vec for _, m in
                       _reduced_word_matrices(gens, max_len, dim=vec.size)])
    with np.errstate(divide="ignore", invalid="ignore"):
        keys = _class_keys(images / _norm(images)[:, None])
    pts = []
    seen = set()
    for image, key in zip(images, keys):
        if key in seen:
            continue
        seen.add(key)
        pts.append(ProjPoint(image))
    return pts


def _class_keys(x):
    """Hashable projective classes of the rows of x, unit vectors (points or
    raveled matrices): entries rounded at 1e-10, the first nonzero entry of
    a row made positive (a sign taken from rounding residue would split one
    class in two)."""
    k = np.round(x, 10)
    k[k[np.arange(len(k)), (k != 0).argmax(axis=1)] < 0] *= -1.0
    return [tuple(r) for r in k.tolist()]


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


def dirichlet_domain(cone: ConvexCone, gens, x, max_len: int,
                     tol: float = None) -> DirichletDomain:
    """Fundamental polytope in the tangent slice of the characteristic surface.

    The halfspace at the base point is bounded by the tangent hyperplane of
    the characteristic surface there; intersecting its translates over the
    reduced words up to max_len, one per group element, and the cone itself
    yields the polytope.  An ellipsoid cone's supports are taken at sampled
    frontier points, each within `tol` (default `TOL.frontier`) of the frontier.
    """
    # imported here, so that the other group commands do not load vinberg
    from .vinberg import min_volume_on_fiber
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
    # one word per group element, the first (shortest) of its projective
    # class: relators such as a^3 = 1 make distinct reduced words equal
    words = _reduced_word_matrices(gens, max_len, dim=x.size)
    flat = np.array([m.ravel() for _, m in words])
    keys = dict(zip((w for w, _ in words), _class_keys(flat / _norm(flat)[:, None])))
    first = {keys[w]: w for w, _ in reversed(words)}
    words = [(w, m) for w, m in words if w and first[keys[w]] == w]
    for w, m in words:
        y = m @ ref
        y = y / np.linalg.norm(y)
        if min(np.linalg.norm(y - ref), np.linalg.norm(y + ref)) < 1e-10:
            raise InvalidBasepointError(
                "base point is fixed by a word", word=word_label(w))
    # the characteristic point t ref, t = V^(-1/(n+1)), from the one fiber
    # solve at ref; by homogeneity the fiber minimizer at t ref is phi / t
    fm = min_volume_on_fiber(cone, ref)
    t = fm.value ** (-1.0 / ref.size)
    x_s, vstar = t * ref, fm.phi / t

    def _solve(depth):
        z = null_space(vstar[None, :])
        n = z.shape[1]
        rows, offs, labels = [], [], []
        for w, m in words:
            if len(w) > depth:
                break
            c = np.linalg.solve(m.T, vstar)
            rows.append(-(z.T @ c))
            offs.append(float(c @ x_s) - 1.0)
            labels.append(word_label(w))
        for r in _cone_constraints(cone, tol):
            rows.append(-(z.T @ r))
            offs.append(float(r @ x_s))
            labels.append("cone")
        a_ub = np.array(rows)
        b_ub = np.array(offs)
        verts_s = _halfspace_vertices(a_ub, b_ub, np.zeros(n))
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
        except GeometryError:
            stable = False
    pairings = {}
    label_set = set(active)
    for w, _ in words:
        lab = word_label(w)
        if lab in label_set:
            inv = word_label(first[keys[tuple((i, -s) for i, s in reversed(w))]])
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


def _cone_constraints(cone: ConvexCone, tol):
    """Functionals nonnegative on the cone: exact facets or sampled supports."""
    dom = cone.domain
    b = dom.backend
    if b.kind == "ellipsoid":
        return [dom_support(dom, b.support_point(u), tol).coeffs
                for u in _sphere_directions(dom.dim, _CONIC_SAMPLES)]
    return _facet_functionals(dom.chart, b.normals, b.offsets)
