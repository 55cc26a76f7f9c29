import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from projconvex import domain as dm, normalize as nm, vinberg as vb
from projconvex.errors import DegenerateDomainError, InvalidInputError
from projconvex.projgeom import AffineChart, ProjTransform

from conftest import boost, random_domain, random_orthogonal, so21_element


def test_triangle_moments_closed_form(triangle):
    m = nm.moments(triangle)
    assert np.allclose(m.centroid, [1 / 3, 1 / 3], atol=1e-13)
    expected = np.array([[1 / 18, -1 / 36], [-1 / 36, 1 / 18]])
    assert np.max(np.abs(m.second_moment - expected)) < 1e-12
    assert abs(m.volume - 0.5) < 1e-13


def test_disk_moments(disk):
    m = nm.moments(disk)
    assert np.allclose(m.centroid, [0, 0], atol=1e-13)
    assert np.max(np.abs(m.second_moment - np.eye(2) / 4)) < 1e-13


def test_translation_invariance_of_central_moments(triangle):
    shifted = nm._affine_image(triangle, np.eye(2), np.array([0.3, -0.2]))
    m0 = nm.moments(triangle)
    m1 = nm.moments(shifted)
    assert np.allclose(m1.centroid, m0.centroid + np.array([0.3, -0.2]),
                       atol=1e-12)
    assert np.max(np.abs(m1.second_moment - m0.second_moment)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_affine_ellipsoid_image_is_the_quadric_section(n, monkeypatch):
    # the closed-form image of an ellipsoid under an affine chart map, in a
    # tilted chart, against the chart section of the mapped quadric cone
    rng = np.random.default_rng(n)
    chart = AffineChart(np.append(0.1 * rng.normal(size=n), 1.0))
    dom = random_domain("ellipsoid", n, rng).in_chart(chart)
    lin = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
    shift = rng.normal(size=n)
    a = np.eye(n + 1)
    a[:-1, :-1], a[:-1, -1] = lin, shift
    b = np.column_stack([chart.frame, chart.infinity])
    minv = np.linalg.inv(b @ a @ b.T)
    quadric = minv.T @ dm._homogeneous_quadric(dom.backend, chart) @ minv
    want = dm._ellipsoid_from_quadric(quadric, chart, b @ a @ b.T @ chart.lift(
        dom.backend.center))
    monkeypatch.setattr(dm, "_ellipsoid_from_quadric", None)   # not called
    image = nm._affine_image(dom, lin, shift).backend
    assert np.allclose(image.center, want.center, rtol=0, atol=1e-12)
    assert np.allclose(image.shape_matrix, want.shape_matrix, rtol=1e-11, atol=0)
    assert np.allclose(image.center, lin @ dom.backend.center + shift, rtol=0,
                       atol=1e-12)


def _assert_moments_are_unit_slice_moments(dom):
    # the chart is the unit slice of the chart functional, so the chart
    # moments are that slice's moments read through the chart frame
    m = nm.moments(dom)
    chart = dom.chart
    data = vb._slice_exact(dom.cone(), chart.infinity)
    mu = chart.frame.T @ data.centroid
    q = chart.frame.T @ data.second_moment @ chart.frame - np.outer(mu, mu)
    assert data.slice_area == pytest.approx(m.volume, rel=1e-12)
    assert np.allclose(mu, m.centroid, rtol=0.0, atol=1e-12)
    assert np.allclose(q, m.second_moment, rtol=0.0, atol=1e-12)


def test_moments_are_unit_slice_moments(any_domain):
    _assert_moments_are_unit_slice_moments(any_domain)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_orthant_moments_are_unit_slice_moments(n):
    _assert_moments_are_unit_slice_moments(dm.orthant_domain(n))


def test_segment_moments_are_unit_slice_moments():
    _assert_moments_are_unit_slice_moments(
        dm.ConvexDomain.from_vertices([[-0.5], [0.7]]))


def test_isotropic_disk(disk):
    iso = nm.isotropic_normalize(disk)
    assert np.allclose(iso.scales, [2.0, 2.0], atol=1e-12)
    sw = iso.sandwich
    assert abs(sw.inner_K - 2.0) < 1e-9 and abs(sw.outer_K - 2.0) < 1e-9
    m = nm.moments(iso.domain)
    assert np.max(np.abs(m.second_moment - np.eye(2))) < 1e-9
    assert np.linalg.norm(m.centroid) < 1e-9


def test_isotropic_ellipse_axes():
    ell = dm.ConvexDomain.ellipsoid([0.0, 0.0], np.diag([0.25, 4.0]))
    iso = nm.isotropic_normalize(ell)
    assert abs(iso.scales[1] / iso.scales[0] - 4.0) < 1e-12
    m = nm.moments(iso.domain)
    assert np.max(np.abs(m.second_moment - np.eye(2))) < 1e-9


def test_isotropic_fixed_point(disk):
    iso = nm.isotropic_normalize(disk)
    again = nm.isotropic_normalize(iso.domain)
    assert np.allclose(again.scales, [1.0, 1.0], atol=1e-9)


def test_isotropic_corpus_post_conditions(any_domain):
    iso = nm.isotropic_normalize(any_domain)
    m = nm.moments(iso.domain)
    assert np.max(np.abs(m.second_moment - np.eye(2))) < 1e-9
    assert np.linalg.norm(m.centroid) < 1e-9
    assert np.all(np.diff(iso.scales) >= -1e-12)  # non-decreasing scales
    sw = iso.sandwich
    assert sw.inner_K >= 1.0 and sw.outer_K >= 1.0
    # certification: support above, corners inside
    b = iso.domain.backend
    for i in range(2):
        e = np.zeros(2)
        for s in (1.0, -1.0):
            e[i] = s
            assert b.support(e) <= sw.outer_K * (1 + 1e-12)
        e[i] = 0.0
    for corner in ([1, 1], [1, -1], [-1, 1], [-1, -1]):
        assert b.contains_margin(np.array(corner) / sw.inner_K) > -1e-9


def _charted_domain(kind, n, seed, tilt):
    """A random domain of this backend and chart dimension, in a chart whose
    pole is tilted off the last axis by `tilt` times a normal draw."""
    rng = np.random.default_rng(seed)
    pole = np.eye(n + 1)[-1] + tilt * rng.normal(size=n + 1)
    return dm.ConvexDomain(AffineChart(pole), random_domain(kind, n, rng).backend)


@st.composite
def _charted_domains(draw):
    """A domain of any backend, chart dimensions 1-3, in a random chart."""
    return _charted_domain(draw(st.sampled_from(["hpoly", "vpoly", "ellipsoid", "radialgraph"])),
                           draw(st.integers(1, 3)), draw(st.integers(0, 2 ** 32 - 1)),
                           draw(st.floats(0.0, 0.6)))


@settings(max_examples=60, deadline=None)
@given(_charted_domains())
# a second moment of condition number 2.3e4: the normalized one is off the
# identity by 1.4e-12
@example(_charted_domain("vpoly", 3, 9058, 0.0))
def test_isotropic_image_is_the_affine_image(dom):
    # the normalized domain is L dom + s: h(u) = h_dom(L^T u) + u . s
    iso = nm.isotropic_normalize(dom)
    lin, shift = iso.chart_affine()
    u = dm._sphere_directions(dom.dim, 24)
    want = dom.support_function(u @ lin) + u @ shift
    assert np.max(np.abs(iso.domain.support_function(u) - want)) < 1e-12
    m = nm.moments(iso.domain)
    assert np.max(np.abs(m.centroid)) < 1e-12
    # the eigenvectors that L is made of are good to eps |M| over the
    # eigenvalue gaps, so the normalized moment is good to eps cond(M)
    cond = np.linalg.cond(nm.moments(dom).second_moment)
    bound = 64 * np.finfo(float).eps * max(cond, 1.0)
    assert np.max(np.abs(m.second_moment - np.eye(dom.dim))) < bound


@pytest.mark.parametrize("make", [
    dm.unit_disk, dm.square_domain, lambda: dm.disk_polygon(24),
    lambda: dm.ConvexDomain.ellipsoid([0.1, 0.0, -0.2], np.diag([1.0, 2.0, 0.5])),
    lambda: dm.ConvexDomain.from_halfspaces([[1.0], [-1.0]], [0.7, 1.3])])
def test_box_sandwich_takes_the_axis_supports_at_once(make):
    # one stacked support query gives the max of the 2n one-axis values
    dom = make()
    n = dom.dim
    axes = [s * e for e in np.eye(n) for s in (1.0, -1.0)]
    want = max([0.0] + [dom.backend.support(e) for e in axes])
    assert nm.box_sandwich(dom).outer_tight == want


def test_flat_domain_rejected():
    thin = dm.ConvexDomain.ellipsoid([0, 0], np.diag([1.0, 1e30]))
    with pytest.raises(DegenerateDomainError):
        nm.isotropic_normalize(thin)


def test_corpus_constant_and_box_bound(rng):
    corpus = [dm.unit_disk(), dm.square_domain(), dm.triangle_domain(),
              dm.disk_polygon(24),
              dm.ConvexDomain.ellipsoid([0.4, -0.1], np.diag([0.5, 3.0]))]
    corpus_k = max(nm.isotropic_normalize(d).sandwich.outer_K for d in corpus)
    assert corpus_k < 6.0
    # every verified automorphism of a sandwiched domain obeys the entrywise
    # bound with the certified constant chain 2 K^4
    iso = nm.isotropic_normalize(dm.unit_disk())
    d_mat = iso.diag_matrix()
    for _ in range(50):
        a = d_mat @ so21_element(rng) @ np.linalg.inv(d_mat)
        alpha = abs(a[-1, -1])
        assert np.max(np.abs(a)) <= 2 * corpus_k ** 4 * alpha + 1e-9


def test_box_check_identity():
    res = nm.box_bound_check(np.eye(3), 1.0)
    assert res.hypothesis_holds and res.conclusion_holds
    assert abs(res.bound - 2.0) < 1e-12
    assert np.min(res.margins) >= 1.0 - 1e-12


def test_box_check_contraction_1d():
    res = nm.box_bound_check(np.array([[1.0, 0.0], [0.0, 2.0]]), 1.0)
    assert res.hypothesis_holds
    assert res.conclusion_holds
    assert abs(res.bound - 4.0) < 1e-12


def test_box_check_translation_fails():
    res = nm.box_bound_check(np.array([[1.0, 10.0], [0.0, 1.0]]), 1.0)
    assert not res.hypothesis_holds
    assert not res.conclusion_holds


def test_box_check_on_normalized_automorphism(rng):
    iso = nm.isotropic_normalize(dm.unit_disk())
    d_mat = iso.diag_matrix()
    k = iso.sandwich.outer_K
    for _ in range(100):
        a = d_mat @ so21_element(rng) @ np.linalg.inv(d_mat)
        res = nm.box_bound_check(a, k)
        assert res.hypothesis_holds
        assert res.conclusion_holds


def _ellipse_sequence(count):
    doms, terms = [], []
    for k in range(1, count + 1):
        doms.append(dm.ConvexDomain.ellipsoid([0.0, 0.0],
                                              np.diag([1.0, float(k * k)])))
        terms.append([np.eye(3)])
    return nm.RepSequence(["a"], terms, doms)


def test_analyze_constant_sequence(rng):
    b = boost(0.8)
    doms = [dm.unit_disk() for _ in range(8)]
    terms = [[b] for _ in range(8)]
    rep = nm.analyze_sequence(nm.RepSequence(["a"], terms, doms))
    assert rep.verdict == "convergent, irreducible"
    assert rep.bounded and rep.convergent
    assert max(rep.residuals) < 1e-9
    assert np.ptp(rep.d_norms) < 1e-9
    assert max(s.corner_dev for s in rep.steps) < 1e-12


def test_analyze_squashed_ellipses():
    rep = nm.analyze_sequence(_ellipse_sequence(16))
    assert not rep.bounded
    assert rep.slope > nm.DNORM_SLOPE_THRESHOLD
    assert np.allclose(rep.d_norms, 2.0 * np.arange(1, 17), atol=1e-6)
    assert max(rep.domain_residuals) < 1e-9  # all normalize to the same disk
    assert rep.pattern_holds


def test_analyze_conjugated_boost_family():
    base = boost(0.9)
    doms, terms = [], []
    for k in range(1, 13):
        dk = np.diag([float(k), 1.0, 1.0 / k])
        terms.append([dk @ base @ np.linalg.inv(dk)])
        doms.append(dm.ConvexDomain.ellipsoid(
            [0.0, 0.0], np.diag([1.0 / float(k) ** 4, 1.0 / float(k) ** 2])))
    rep = nm.analyze_sequence(nm.RepSequence(["a"], terms, doms))
    assert rep.bounded
    assert rep.convergent
    raw = [s.raw_max_entry for s in rep.steps]
    assert raw[-1] > 50 * raw[0]  # the raw generators blow up
    assert max(s.max_entry for s in rep.steps) < 10 * rep.steps[0].max_entry
    assert max(s.corner_dev for s in rep.steps) < 1e-12


def test_analyze_requires_domains():
    seq = nm.RepSequence(["a"], [[np.eye(3)]], None)
    with pytest.raises(InvalidInputError):
        nm.analyze_sequence(seq)


def test_sequence_terms_must_be_square_matrices():
    # terms are normalized as projective transforms, which check their shape
    with pytest.raises(InvalidInputError, match="square"):
        nm.RepSequence(["a"], [[np.ones((3, 2))]], None)


def test_csv_rows_shape():
    rep = nm.analyze_sequence(_ellipse_sequence(4))
    rows = rep.to_csv_rows()
    assert rows[0] == ("k", "d_norm", "residual", "maxentry")
    assert len(rows) == 5


def test_invariant_subspace_diag():
    w = nm.invariant_subspace_search([np.diag([2.0, 0.5])], max_word_len=2)
    assert w is not None and w.dim == 1
    basis = np.abs(w.basis.ravel())
    assert np.allclose(sorted(basis), [0.0, 1.0], atol=1e-9)


def test_invariant_subspace_rotation_block():
    th = 1.0
    m = np.eye(3)
    m[:2, :2] = [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]
    w = nm.invariant_subspace_search([m], max_word_len=2)
    assert w is not None
    span = w.basis @ w.basis.T
    e3 = np.array([0.0, 0.0, 1.0])
    assert np.linalg.norm(span @ e3 - e3) < 1e-9 or \
        np.linalg.norm(span @ e3) < 1e-9  # e3 line or its complement


def test_invariant_subspace_random_rotations(rng):
    gens = [random_orthogonal(rng, 3), random_orthogonal(rng, 3)]
    assert nm.invariant_subspace_search(gens, max_word_len=4) is None


@pytest.mark.parametrize("call, message", [
    (lambda: nm.box_sandwich(dm.ConvexDomain.ellipsoid([3.0, 0.0], np.eye(2))),
     "box sandwich requires the origin inside"),
    (lambda: nm.RepSequence(["a"], [[np.eye(2)], [np.eye(3)]]),
     "matrices of mixed sizes: [(2, 2), (3, 3)]"),
    (lambda: nm.RepSequence(["a", "b"], [[np.eye(3)]]),
     "each term needs one matrix per generator"),
    (lambda: nm.analyze_sequence(nm.RepSequence(["a"], [[np.eye(3)], [np.eye(3)]],
                                                [dm.unit_disk()])),
     "domains and terms length mismatch"),
], ids=["origin-outside", "mixed-sizes", "missing-generator", "domain-count"])
def test_invalid_normalize_inputs_raise(call, message):
    with pytest.raises(InvalidInputError) as err:
        call()
    assert err.type is InvalidInputError and str(err.value) == message
