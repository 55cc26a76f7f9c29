import numpy as np
import pytest

from projconvex import projgeom as pg
from projconvex.errors import (
    AtInfinityError,
    DegeneratePencilError,
    InvalidInputError,
)


def test_normalize_point_scaling():
    assert np.allclose(pg.ProjPoint([0, 0, 2]).coords, [0, 0, 1])
    assert np.allclose(pg.ProjPoint([3, 4]).coords, [0.6, 0.8])


def test_normalize_point_zero_rejected():
    with pytest.raises(InvalidInputError):
        pg.ProjPoint([0.0, 0.0, 0.0])


def test_apply_identity_and_diag():
    p = pg.ProjPoint([1.0, 1.0])
    ident = pg.ProjTransform(np.eye(2))
    assert ident.apply(p).same_class(p)
    a = pg.ProjTransform(np.diag([2.0, 0.5]))
    q = a.apply(p)
    assert np.allclose(q.coords, np.array([4.0, 1.0]) / np.sqrt(17.0))


def test_apply_inverse_round_trip(rng):
    for _ in range(50):
        m = rng.normal(size=(4, 4))
        if abs(np.linalg.det(m)) < 1e-3:
            continue
        a = pg.ProjTransform(m)
        p = pg.ProjPoint(rng.normal(size=4))
        back = a.inverse().apply(a.apply(p))
        assert back.same_class(p, tol=1e-10)


def test_apply_is_group_action(rng):
    for _ in range(200):
        ma = rng.normal(size=(3, 3))
        mb = rng.normal(size=(3, 3))
        if min(abs(np.linalg.det(ma)), abs(np.linalg.det(mb))) < 1e-2:
            continue
        a, b = pg.ProjTransform(ma), pg.ProjTransform(mb)
        p = pg.ProjPoint(rng.normal(size=3))
        lhs = (a @ b).apply(p)
        rhs = a.apply(b.apply(p))
        assert lhs.same_class(rhs, tol=1e-12)


def test_dual_apply_examples():
    ident = pg.ProjTransform(np.eye(2))
    phi = pg.DualFunctional([1.0, 1.0])
    assert ident.dual_apply(phi).same_class(phi)
    a = pg.ProjTransform(np.diag([2.0, 0.5]))
    psi = a.dual_apply(phi)
    expect = np.array([0.5, 2.0])
    assert psi.same_class(pg.DualFunctional(expect), tol=1e-12)


def test_dual_apply_preserves_incidence(rng):
    for _ in range(1000):
        m = rng.normal(size=(3, 3))
        if abs(np.linalg.det(m)) < 1e-2:
            continue
        a = pg.ProjTransform(m)
        p = pg.ProjPoint(rng.normal(size=3))
        raw = rng.normal(size=3)
        raw -= (raw @ p.coords) * p.coords  # kill the pairing exactly
        if np.linalg.norm(raw) < 1e-6:
            continue
        phi = pg.DualFunctional(raw)
        assert abs(phi.pair(p)) < 1e-12
        assert abs(a.dual_apply(phi).pair(a.apply(p))) < 1e-10


def test_dual_apply_singular_rejected():
    with pytest.raises(InvalidInputError):
        pg.ProjTransform(np.zeros((3, 3)))


def test_pencil_core_examples():
    h1 = pg.DualFunctional([1.0, 0.0, -1.0])
    h2 = pg.DualFunctional([0.0, 1.0, -1.0])
    core = pg.pencil_core(h1, h2)
    v = np.ones(3) / np.sqrt(3.0)
    assert np.linalg.norm(core.project(v) - v) < 1e-12

    with pytest.raises(DegeneratePencilError):
        pg.pencil_core(h1, pg.DualFunctional(-2.0 * h1.coeffs))

    e1 = pg.DualFunctional([1.0, 0, 0, 0])
    e2 = pg.DualFunctional([0, 1.0, 0, 0])
    core2 = pg.pencil_core(e1, e2)
    for v in (np.array([0, 0, 1.0, 0]), np.array([0, 0, 0, 1.0])):
        assert np.linalg.norm(core2.project(v) - v) < 1e-12


def test_pencil_core_annihilation(rng):
    for _ in range(100):
        h1 = pg.DualFunctional(rng.normal(size=4))
        h2 = pg.DualFunctional(rng.normal(size=4))
        core = pg.pencil_core(h1, h2)
        for row in core.basis:
            assert abs(h1.coeffs @ row) < 1e-12
            assert abs(h2.coeffs @ row) < 1e-12


def test_affine_chart_examples():
    hinf = pg.DualFunctional([0.0, 0.0, 1.0])
    chart = pg.AffineChart(hinf)
    assert np.allclose(chart.to_chart(pg.ProjPoint([0, 0, 1.0])), [0, 0])
    assert np.allclose(chart.to_chart(pg.ProjPoint([1.0, 1, 1])), [1, 1])
    with pytest.raises(AtInfinityError):
        chart.to_chart(pg.ProjPoint([1.0, 0, 0]))


def test_affine_chart_round_trip(rng):
    chart = pg.AffineChart(rng.normal(size=5))
    for _ in range(100):
        x = rng.normal(size=4)
        assert np.allclose(chart.to_chart(chart.from_chart(x)), x, atol=1e-12)


def test_chart_near_a_coordinate_axis(rng):
    # a functional within 1e-14 of an axis keeps the identity columns, made
    # orthogonal to it; an exact axis keeps them as they are
    assert np.array_equal(pg.AffineChart([0.0, 0.0, 1.0]).frame, np.eye(3)[:, :2])
    for v in ([3e-8, 1.0], [1e-8, -2e-8, 1.0], [0.0, 1e-7, -1.0, 0.0]):
        chart = pg.AffineChart(v)
        n = len(v) - 1
        assert np.abs(chart.frame.T @ chart.infinity).max() < 1e-20
        assert np.allclose(chart.frame.T @ chart.frame, np.eye(n), rtol=0.0, atol=1e-15)
        assert np.allclose(chart.frame, np.delete(np.eye(n + 1), np.argmax(np.abs(v)),
                                                  axis=1), rtol=0.0, atol=1e-6)
        for _ in range(10):
            x = rng.normal(size=n)
            assert np.allclose(chart.to_chart(chart.from_chart(x)), x, rtol=0.0, atol=1e-14)


def test_minimal_rotation(rng):
    for _ in range(50):
        u = rng.normal(size=4)
        w = rng.normal(size=4)
        u /= np.linalg.norm(u)
        w /= np.linalg.norm(w)
        r = pg.minimal_rotation(u, w)
        assert np.allclose(r @ u, w, atol=1e-12)
        assert np.allclose(r @ r.T, np.eye(4), atol=1e-12)


def test_null_space_matches_scipy():
    # the numpy helper replaces scipy.linalg.null_space bit for bit: same
    # SVD, same rank rule, same sign and column order, and the same memory
    # layout (BLAS sums products with a transposed operand in another order)
    from scipy.linalg import null_space as scipy_null_space

    rng = np.random.default_rng(20)
    cases = []
    for n in (2, 3, 4):
        for _ in range(50):
            cases.append(rng.normal(size=(1, n)))
            cases.append(rng.normal(size=(2, n)))
        v = rng.normal(size=n)
        cases.append(np.zeros((1, n)))                      # zero row
        cases.append(np.vstack([v, np.zeros(n)]))           # zero second row
        cases.append(np.vstack([v, -2.5 * v]))              # parallel rows
        cases.append(1e-300 * v[None, :])                   # tiny scale
        cases.append(np.vstack([v, 1e-300 * rng.normal(size=n)]))
    for a in cases:
        ours = pg.null_space(a)
        ref = scipy_null_space(a)
        assert ours.shape == ref.shape and ours.strides == ref.strides
        assert np.array_equal(ours, ref), a
