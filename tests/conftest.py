import numpy as np
import pytest

from projconvex import domain as dm
from projconvex.projgeom import ProjTransform


def boost(t):
    """Hyperbolic translation of the Klein disk along the x axis."""
    return np.array([
        [np.cosh(t), 0.0, np.sinh(t)],
        [0.0, 1.0, 0.0],
        [np.sinh(t), 0.0, np.cosh(t)],
    ])


def rotation(theta):
    return np.array([
        [np.cos(theta), -np.sin(theta), 0.0],
        [np.sin(theta), np.cos(theta), 0.0],
        [0.0, 0.0, 1.0],
    ])


def so21_element(rng):
    return rotation(rng.uniform(0, 2 * np.pi)) \
        @ boost(rng.uniform(0.1, 1.5)) \
        @ rotation(rng.uniform(0, 2 * np.pi))


def so21_hyperbolic(rng):
    """Conjugated boost: always hyperbolic, translation length = t."""
    t = rng.uniform(0.2, 1.8)
    conj = rotation(rng.uniform(0, 2 * np.pi)) @ boost(rng.uniform(0.0, 1.0))
    return conj @ boost(t) @ np.linalg.inv(conj), t


def random_orthogonal(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    return q


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)


@pytest.fixture
def disk():
    return dm.unit_disk()


@pytest.fixture
def square():
    return dm.square_domain()


@pytest.fixture
def triangle():
    return dm.triangle_domain()


@pytest.fixture
def polygon24():
    return dm.disk_polygon(24)


@pytest.fixture(params=["disk", "square", "triangle", "radial"])
def any_domain(request):
    return {
        "disk": dm.unit_disk(),
        "square": dm.square_domain(),
        "triangle": dm.triangle_domain(),
        "radial": dm.disk_polygon(24),
    }[request.param]


def proj(a):
    return ProjTransform(a)


def scalar_golden_min(fn, lo, hi, tol=1e-10, max_iter=200):
    """One golden-section search on [lo, hi], one scalar evaluation at a
    time: the reference for the lockstep search of `hilbert._golden_min`."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    xm = 0.5 * (a + b)
    return xm, fn(xm)
