"""Inertia moments, isotropic normalization with certified box sandwiches,
the entrywise box estimate for projective maps, degeneration analysis of
representation sequences, and a bounded invariant-subspace search.
"""

from dataclasses import asdict, dataclass, field
from itertools import product

import numpy as np

from .config import DNORM_SLOPE_THRESHOLD, TOL
from .domain import (
    ConvexDomain,
    _chart_images,
    _remap,
    _sphere_directions,
    support_residual,
    validate,
)
from .errors import (
    AtInfinityError,
    DegenerateDomainError,
    InvalidInputError,
)
from .projgeom import ProjTransform, minimal_rotation, standard_chart


@dataclass
class MomentData:
    centroid: np.ndarray
    second_moment: np.ndarray  # central, volume-normalized
    volume: float


def moments(dom: ConvexDomain) -> MomentData:
    """Exact chart moments: volume, centroid, central second-moment matrix."""
    validate(dom)
    vol, mu, q = dom.backend.moments()
    w = np.linalg.eigvalsh(q)
    if w[0] <= 0:
        raise DegenerateDomainError("second moment is rank deficient",
                                    eigenvalues=w)
    return MomentData(mu, q, float(vol))


@dataclass
class BoxSandwich:
    """Single certified constant K with K^-1 box inside and K box outside."""

    inner_K: float
    outer_K: float
    outer_tight: float      # smallest K with the domain inside K box
    inner_scale: float      # largest s with s box inside the domain


def box_sandwich(dom: ConvexDomain) -> BoxSandwich:
    """Certified box sandwich of a domain containing the chart origin."""
    n = dom.dim
    b = dom.backend
    if b.contains_margin(np.zeros(n)) <= 0:
        raise InvalidInputError("box sandwich requires the origin inside")
    axes = np.vstack([np.eye(n), np.diag(np.full(n, -1.0))])
    outer = max(0.0, float(b.support(axes).max()))
    corners = np.array(list(product((-1.0, 1.0), repeat=n)))
    inner_scale = float(b.chord_params(np.zeros(n), corners)[1].min())
    k = max(outer, 1.0 / inner_scale, 1.0)
    # k bounds outer, so only the inner containment needs certifying
    if b.contains_margin(corners / k).min() < -TOL.matrix:
        raise DegenerateDomainError("inner box certification failed")
    return BoxSandwich(k, k, float(outer), float(inner_scale))


@dataclass
class IsotropicResult:
    rotation: np.ndarray      # n x n orthogonal, rows are moment axes
    scales: np.ndarray        # positive diagonal of the normalizing map
    translation: np.ndarray   # centroid removed before rotating
    domain: ConvexDomain
    sandwich: BoxSandwich

    def diag_matrix(self):
        """The normalizing diagonal as an (n+1) projective matrix."""
        return np.diag(np.append(self.scales, 1.0))

    def chart_affine(self):
        lin = np.diag(self.scales) @ self.rotation
        return lin, -lin @ self.translation


def _ordered_eig(q):
    w, v = np.linalg.eigh(q)
    order = np.argsort(w)[::-1]  # non-increasing
    w = w[order]
    v = v[:, order]
    for j in range(v.shape[1]):
        col = v[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0:
            v[:, j] = -col
    return w, v


def _affine_image(dom: ConvexDomain, lin, shift):
    """Image of dom under the chart map x -> lin x + shift, in its own chart.

    With B = [F | e_inf] (orthogonal) the map is B A B^T on raw vectors,
    A = [[lin, shift], [0, 1]]; it is passed to `_remap` unscaled, so the
    standard chart (B = I) moves vertices by A itself.
    """
    a = np.eye(dom.dim + 1)
    a[:-1, :-1] = lin
    a[:-1, -1] = shift
    b = np.column_stack([dom.chart.frame, dom.chart.infinity])
    return _remap(dom, b @ a @ b.T, dom.chart)


def isotropic_normalize(dom: ConvexDomain):
    """Move the centroid to the origin and make the second moment the identity.

    Returns the normalizing data, the normalized domain (same chart), and its
    certified box sandwich.  Moment axes are ordered with the second moment
    non-increasing, so the diagonal scales are non-decreasing.
    """
    m = moments(dom)
    w, v = _ordered_eig(m.second_moment)
    if w[-1] <= 1e-14 * w[0]:
        raise DegenerateDomainError("domain is flat; cannot normalize",
                                    eigenvalues=w)
    rot = v.T
    scales = 1.0 / np.sqrt(w)
    lin = np.diag(scales) @ rot
    shift = -lin @ m.centroid
    dom2 = _affine_image(dom, lin, shift)
    return IsotropicResult(rot, scales, m.centroid, dom2, box_sandwich(dom2))


# ---------------------------------------------------------------------------
# box estimate


@dataclass
class BoxCheckResult:
    hypothesis_holds: bool
    hypothesis_margin: float      # K minus the max image coordinate
    conclusion_holds: bool
    margins: np.ndarray           # 2K|corner| - |A_ij|, entrywise
    corner: float                 # |A_{n+1,n+1}|
    bound: float                  # 2K|corner|


def box_bound_check(a, k: float) -> BoxCheckResult:
    """Test the entrywise bound |A_ij| <= 2K |A_{n+1,n+1}| and its hypothesis.

    The hypothesis, that the projective image of the unit box lies in the K
    box, is checked on the 2^n box corners alone: the chart denominator is
    affine, so corner heights of one sign keep that sign on the whole box,
    and the image of the box is then the convex hull of the corner images.
    A corner sent to the chart hyperplane, or heights of both signs, fail it
    with margin -inf.
    """
    mat = a.matrix if isinstance(a, ProjTransform) else np.asarray(a, dtype=float)
    n = mat.shape[0] - 1
    corners = np.array(list(product((-1.0, 1.0), repeat=n)))
    std = standard_chart(n)
    try:
        coords, heights = _chart_images(std, std.lift_many(corners) @ mat.T)
        straddles = heights.min() < 0 < heights.max()
    except AtInfinityError:
        straddles = True
    if straddles:
        hypothesis = False
        margin = -np.inf
    else:
        worst = float(np.max(np.abs(coords)))
        hypothesis = worst <= k * (1.0 + 1e-12)
        margin = k - worst
    alpha = abs(mat[-1, -1])
    bound = 2.0 * k * alpha
    margins = bound - np.abs(mat)
    conclusion = bool(np.min(margins) >= -1e-12 * max(bound, 1.0))
    return BoxCheckResult(bool(hypothesis), margin, conclusion,
                          margins, float(alpha), float(bound))


# ---------------------------------------------------------------------------
# degeneration analysis


@dataclass
class RepSequence:
    generators: list
    terms: list                      # terms[k][g] = (n+1)x(n+1) matrix
    domains: list = None             # optional ConvexDomain per k

    def __post_init__(self):
        self.terms = [[ProjTransform(m).matrix for m in tup] for tup in self.terms]
        shapes = {m.shape for tup in self.terms for m in tup}
        if len(shapes) > 1:
            raise InvalidInputError(f"matrices of mixed sizes: {sorted(shapes)}")
        for tup in self.terms:
            if len(tup) != len(self.generators):
                raise InvalidInputError("each term needs one matrix per generator")


@dataclass
class StepRecord:
    k: int
    center_residual: float
    centroid_norm: float
    d_entries: np.ndarray
    d_norm: float
    max_entry: float          # max |B(k,g)| over generators and entries
    raw_max_entry: float      # max |A(k,g)| before conjugation
    corner_dev: float         # max |B - A| at the bottom-right entry


@dataclass
class DegenerationReport:
    steps: list
    residuals: list            # successive max gaps of the conjugated tuples
    domain_residuals: list     # support gaps of successive normalized domains
    slope: float
    d_norms: list
    verdict: str
    bounded: bool
    convergent: bool
    blocks: list = field(default_factory=list)
    pattern: list = field(default_factory=list)
    pattern_holds: bool = True
    limit_matrices: list = field(default_factory=list)

    def to_json(self):
        return asdict(self)

    def to_csv_rows(self):
        rows = [("k", "d_norm", "residual", "maxentry")]
        for i, s in enumerate(self.steps):
            res = self.residuals[i - 1] if i > 0 else 0.0
            rows.append((s.k, repr(s.d_norm), repr(float(res)),
                         repr(s.max_entry)))
        return rows


def analyze_sequence(seq: RepSequence) -> DegenerationReport:
    """Center, rotate, and rescale each term's domain to isotropic position,
    conjugate the generators by the normalizing diagonal, and diagnose whether
    the rescaled sequence converges and whether the diagonals stay bounded.
    """
    # imported here, so that the other normalize commands do not load vinberg
    from .vinberg import spherical_center
    if seq.domains is None or any(d is None for d in seq.domains):
        raise InvalidInputError("degeneration analysis needs a domain per term")
    if len(seq.domains) != len(seq.terms):
        raise InvalidInputError("domains and terms length mismatch")
    n1 = seq.terms[0][0].shape[0]
    n = n1 - 1
    std = standard_chart(n)
    pole = std.infinity

    steps = []
    tuples = []
    iso_domains = []
    for k, (tup, dom) in enumerate(zip(seq.terms, seq.domains), start=1):
        sc = spherical_center(dom)
        pre = minimal_rotation(dom.chart.infinity, pole) @ sc.rotation.matrix
        dom1 = dom.transform(ProjTransform(pre), chart=std)
        m1 = moments(dom1)
        # rotating onto the moment axes makes the second moment diag(w) and
        # keeps the centroid's norm, so the rotated term needs no measuring:
        # one map takes dom1 to isotropic scale along the axes
        w, vecs = _ordered_eig(m1.second_moment)
        d = 1.0 / np.sqrt(w)
        d_full = np.append(d, 1.0)
        iso_domains.append(_affine_image(dom1, d[:, None] * vecs.T, np.zeros(n)))
        alpha_full = np.eye(n1)
        alpha_full[:n, :n] = vecs.T
        alpha_full = alpha_full @ pre
        a_tup = np.array(tup)
        a_hat = alpha_full @ a_tup @ alpha_full.T
        b_tup = d_full[:, None] * a_hat / d_full[None, :]
        tuples.append(b_tup)
        steps.append(StepRecord(
            k=k,
            center_residual=sc.residual,
            centroid_norm=float(np.linalg.norm(m1.centroid)),
            d_entries=d,
            d_norm=float(np.max(d_full)),
            max_entry=float(np.max(np.abs(b_tup))),
            raw_max_entry=float(np.max(np.abs(a_tup))),
            corner_dev=float(np.max(np.abs(b_tup[:, -1, -1] - a_hat[:, -1, -1]))),
        ))

    residuals = [float(np.max(np.abs(cur - prev)))
                 for prev, cur in zip(tuples, tuples[1:])]
    dirs = _sphere_directions(n, 32)
    domain_residuals = [support_residual(a, b, dirs)
                        for a, b in zip(iso_domains, iso_domains[1:])]

    ks = np.arange(1, len(steps) + 1, dtype=float)
    logs = np.log([s.d_norm for s in steps])
    slope = 0.0
    if len(steps) > 1:
        slope = float(np.polyfit(ks, logs, 1)[0])
    bounded = slope <= DNORM_SLOPE_THRESHOLD
    convergent = bool(residuals) and residuals[-1] < 1e-6 or not residuals

    blocks, pattern, pattern_holds = [], [], True
    if not bounded:
        blocks, pattern, pattern_holds = _limit_pattern(steps, tuples[-1])
    if bounded and convergent:
        verdict = "convergent, irreducible"
    elif bounded:
        verdict = "bounded, not converged"
    else:
        verdict = "degenerating, reducible-limit"
    return DegenerationReport(
        steps=steps,
        residuals=residuals,
        domain_residuals=domain_residuals,
        slope=slope,
        d_norms=[s.d_norm for s in steps],
        verdict=verdict,
        bounded=bounded,
        convergent=convergent,
        blocks=blocks,
        pattern=pattern,
        pattern_holds=pattern_holds,
        limit_matrices=list(tuples[-1]),
    )


def _limit_pattern(steps, last_tuple):
    """Scale-block structure of the limit when the diagonals blow up."""
    ks = np.arange(1, len(steps) + 1, dtype=float)
    n = steps[0].d_entries.size
    slopes = np.empty(n + 1)
    for i in range(n):
        logs = np.log([s.d_entries[i] for s in steps])
        slopes[i] = np.polyfit(ks, logs, 1)[0]
    slopes[n] = 0.0  # the appended unit entry
    order = list(range(n + 1))
    blocks = []
    current = [0]
    for i in range(1, n + 1):
        if abs(slopes[order[i]] - slopes[current[-1]]) < 0.5 * DNORM_SLOPE_THRESHOLD:
            current.append(i)
        else:
            blocks.append(current)
            current = [i]
    blocks.append(current)
    # entries (i, j) with slope_i < slope_j vanish in the limit
    mask = slopes[:, None] < slopes[None, :] - 0.5 * DNORM_SLOPE_THRESHOLD
    scale = max(np.max(np.abs(b)) for b in last_tuple)
    holds = all(np.max(np.abs(b)[mask], initial=0.0) <= 1e-3 * scale
                for b in last_tuple)
    return blocks, mask.astype(int).tolist(), bool(holds)


# ---------------------------------------------------------------------------
# invariant subspaces


@dataclass
class SubspaceWitness:
    basis: np.ndarray
    dim: int
    word: str
    residual: float
    dual: bool


def invariant_subspace_search(gens, max_word_len=4):
    """Bounded heuristic: sweep eigenspace sums of short words for a common
    invariant subspace of the family (and of the transposed family).

    A returned witness is certified within 1e-8; none-found is not a proof.
    """
    # imported here, so that the normalize commands do not load group
    from .group import _reduced_word_matrices, word_label
    mats = [(g if isinstance(g, ProjTransform) else ProjTransform(g)).matrix
            for g in gens]
    if not mats:
        raise InvalidInputError("need at least one generator")
    n1 = mats[0].shape[0]

    for dual in (False, True):
        fam = [m.T for m in mats] if dual else mats
        for word, w in _reduced_word_matrices(fam, max_word_len):
            if not word:
                continue
            vals, vecs = np.linalg.eig(w)
            clusters = _conjugate_clusters(vals)
            for subset in _proper_subsets(clusters):
                idx = [i for cl in subset for i in cl]
                if not 0 < len(idx) < n1:
                    continue
                cols = vecs[:, idx]
                basis = np.hstack([cols.real, cols.imag])
                q, r = np.linalg.qr(basis)
                keep = np.abs(np.diag(r)) > 1e-10
                p = q[:, keep]
                if not 0 < p.shape[1] < n1:
                    continue
                res = max(_invariance_residual(m, p) for m in fam)
                if res <= 1e-8:
                    return SubspaceWitness(p, p.shape[1], word_label(word),
                                           res, dual)
    return None


def _conjugate_clusters(vals):
    used = set()
    clusters = []
    order = np.argsort(-np.abs(vals))
    for i in order:
        if i in used:
            continue
        if abs(vals[i].imag) < 1e-10:
            clusters.append([i])
            used.add(i)
        else:
            partner = None
            for j in order:
                if j not in used and j != i and \
                        abs(vals[j] - np.conj(vals[i])) < 1e-8 * (1 + abs(vals[i])):
                    partner = j
                    break
            if partner is None:
                clusters.append([i])
                used.add(i)
            else:
                clusters.append([i, partner])
                used.update((i, partner))
    return clusters


def _proper_subsets(clusters):
    m = len(clusters)
    for bits in range(1, 2 ** m - 1):
        yield [clusters[i] for i in range(m) if bits >> i & 1]


def _invariance_residual(m, p):
    mp = m @ p
    resid = mp - p @ (p.T @ mp)
    return float(np.linalg.norm(resid) / max(np.linalg.norm(m), 1e-300))
