"""Projective-linear primitives: points, functionals, transforms, charts.

Homogeneous representatives are stored on the unit sphere so the two-fold
cover ambiguity is explicit.  The default sign convention makes the last
nonzero coordinate positive; constructors that know a cone side override it.
"""

import numpy as np

from .config import TOL
from .errors import (
    AtInfinityError,
    DegeneratePencilError,
    InvalidInputError,
)


def _as_vector(v):
    a = np.asarray(v, dtype=float)
    if a.ndim != 1:
        raise InvalidInputError(f"expected a vector, got shape {a.shape}")
    return a


def null_space(a):
    """Orthonormal basis (columns) of the kernel of a, as scipy.linalg.null_space.

    Same SVD and rank rule (singular values above max(s) * eps * max(a.shape)),
    without importing scipy.linalg.  vh is laid out column-major as scipy's
    LAPACK wrapper returns it, so BLAS products with the basis sum in the
    same order and every later result matches bit for bit.
    """
    a = np.asarray(a, dtype=float)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    tol = np.amax(s, initial=0.0) * np.finfo(s.dtype).eps * max(a.shape)
    return np.asfortranarray(vh)[np.sum(s > tol, dtype=int):].T.conj()


def _canonical_sign(u):
    """Flip so the last nonzero coordinate is positive."""
    nz = np.nonzero(u)[0]
    if nz.size and u[nz[-1]] < 0:
        return -u
    return u


class ProjPoint:
    """Point of positive projective space, held as a unit vector."""

    __slots__ = ("coords",)

    def __init__(self, coords, canonicalize=True):
        v = _as_vector(coords)
        n = np.linalg.norm(v)
        if n == 0.0 or not np.isfinite(n):
            raise InvalidInputError("zero or non-finite vector has no projective class")
        u = v / n
        if canonicalize:
            u = _canonical_sign(u)
        u.flags.writeable = False
        self.coords = u

    def same_class(self, other, tol=None):
        tol = TOL.exact if tol is None else tol
        d = min(
            np.linalg.norm(self.coords - other.coords),
            np.linalg.norm(self.coords + other.coords),
        )
        return d <= tol

    def __repr__(self):
        return f"ProjPoint({np.array2string(self.coords, precision=6)})"


class DualFunctional:
    """Projective class of a linear functional, paired by the standard dot product."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, canonicalize=True):
        v = _as_vector(coeffs)
        n = np.linalg.norm(v)
        if n == 0.0 or not np.isfinite(n):
            raise InvalidInputError("zero or non-finite functional")
        u = v / n
        if canonicalize:
            u = _canonical_sign(u)
        u.flags.writeable = False
        self.coeffs = u

    def pair(self, p):
        v = p.coords if isinstance(p, ProjPoint) else np.asarray(p, dtype=float)
        return float(self.coeffs @ v)

    def same_class(self, other, tol=None):
        tol = TOL.exact if tol is None else tol
        d = min(
            np.linalg.norm(self.coeffs - other.coeffs),
            np.linalg.norm(self.coeffs + other.coeffs),
        )
        return d <= tol

    def __repr__(self):
        return f"DualFunctional({np.array2string(self.coeffs, precision=6)})"


class ProjTransform:
    """Matrix of a projective transform, rescaled to |det| = 1 at construction."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidInputError(f"transform matrix must be square, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InvalidInputError("non-finite entries in transform matrix")
        det = np.linalg.det(m)
        if abs(det) < 1e-300:
            raise InvalidInputError("singular matrix does not act projectively")
        m = m / abs(det) ** (1.0 / m.shape[0])
        m.flags.writeable = False
        self.matrix = m

    def apply(self, p: ProjPoint) -> ProjPoint:
        return ProjPoint(self.matrix @ p.coords)

    def dual_apply(self, phi: DualFunctional) -> DualFunctional:
        w = np.linalg.solve(self.matrix.T, phi.coeffs)
        return DualFunctional(w)

    def inverse(self):
        return ProjTransform(np.linalg.inv(self.matrix))

    def __matmul__(self, other):
        if isinstance(other, ProjTransform):
            return ProjTransform(self.matrix @ other.matrix)
        return NotImplemented

    def __repr__(self):
        return f"ProjTransform({np.array2string(self.matrix, precision=6)})"


class ProjSubspace:
    """Projective subspace given by an orthonormal basis of its linear span."""

    __slots__ = ("basis", "codim")

    def __init__(self, basis):
        b = np.atleast_2d(np.asarray(basis, dtype=float))
        # rows are basis vectors; orthonormalize defensively
        q, r = np.linalg.qr(b.T)
        keep = np.abs(np.diag(r)) > TOL.exact
        b = q[:, keep].T
        b.flags.writeable = False
        self.basis = b
        self.codim = b.shape[1] - b.shape[0]

    def project(self, v):
        """Orthogonal projection of a raw vector onto the linear span."""
        v = np.asarray(v, dtype=float)
        return self.basis.T @ (self.basis @ v)


def pencil_core(h1: DualFunctional, h2: DualFunctional) -> ProjSubspace:
    """Codimension-2 intersection of the kernels of two independent functionals."""
    if abs(abs(float(h1.coeffs @ h2.coeffs)) - 1.0) <= TOL.exact:
        raise DegeneratePencilError("proportional functionals span no pencil")
    ker = null_space(np.vstack([h1.coeffs, h2.coeffs]))
    return ProjSubspace(ker.T)


def canonical_frame(infinity_vec):
    """Deterministic orthonormal basis of the kernel of a unit functional.

    Coordinate-axis functionals get the remaining identity columns so the
    standard chart uses standard coordinates.  A functional within 1e-14 of
    an axis gets those columns made orthogonal to it: as they are, they
    would be off the kernel by its other entries, up to about 1e-7.
    """
    v = _as_vector(infinity_vec)
    n = v.size
    axis = np.argmax(np.abs(v))
    if abs(abs(v[axis]) - 1.0) <= 1e-14:
        cols = [i for i in range(n) if i != axis]
        frame = np.zeros((n, n - 1))
        for j, i in enumerate(cols):
            frame[i, j] = 1.0
        if np.count_nonzero(v) == 1:
            return frame
        q, r = np.linalg.qr(frame - np.outer(v, v @ frame))
        return q * np.sign(np.diag(r))
    return null_space(v[None, :])


class AffineChart:
    """Affine patch complementary to a hyperplane, with a cached frame.

    Chart coordinates of a class [p] are <p, u_i>/<p, v> for the frame
    vectors u_i; the inverse lifts x to v + sum x_i u_i.
    """

    __slots__ = ("infinity", "frame")

    def __init__(self, infinity):
        if isinstance(infinity, DualFunctional):
            v = infinity.coeffs.copy()
        else:
            v = _as_vector(infinity)
            v = v / np.linalg.norm(v)
        frame = canonical_frame(v)
        v.flags.writeable = False
        frame.flags.writeable = False
        self.infinity = v
        self.frame = frame

    def functional(self) -> DualFunctional:
        return DualFunctional(self.infinity, canonicalize=False)

    def height(self, w):
        """Pairing of a raw vector with the chart functional."""
        return float(self.infinity @ np.asarray(w, dtype=float))

    def to_chart(self, p):
        v = p.coords if isinstance(p, ProjPoint) else _as_vector(p)
        h = float(self.infinity @ v)
        if abs(h) <= TOL.exact:
            raise AtInfinityError("point lies on the chart hyperplane at infinity")
        return (self.frame.T @ v) / h

    def lift(self, x):
        """Raw representative with chart height 1."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self.infinity + self.frame @ x

    def from_chart(self, x) -> ProjPoint:
        return ProjPoint(self.lift(x), canonicalize=False)

    def lift_many(self, xs):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        return self.infinity[None, :] + xs @ self.frame.T

    def same_as(self, other):
        return (np.array_equal(self.infinity, other.infinity)
                and np.array_equal(self.frame, other.frame))


def standard_chart(n):
    """Chart at the last coordinate pole of RP^n with the identity frame."""
    v = np.zeros(n + 1)
    v[-1] = 1.0
    return AffineChart(v)


def minimal_rotation(u, w):
    """Orthogonal map rotating unit vector u onto unit vector w in their plane."""
    u = _as_vector(u)
    w = _as_vector(w)
    u = u / np.linalg.norm(u)
    w = w / np.linalg.norm(w)
    c = float(u @ w)
    r = w - c * u
    s = np.linalg.norm(r)
    n = u.size
    if s <= 1e-15:
        if c > 0:
            return np.eye(n)
        # antipodal: half turn in a plane through u
        e2 = canonical_frame(u)[:, 0]
        return np.eye(n) - 2.0 * np.outer(u, u) - 2.0 * np.outer(e2, e2)
    e1, e2 = u, r / s
    rot = np.eye(n)
    rot += (c - 1.0) * (np.outer(e1, e1) + np.outer(e2, e2))
    rot += s * (np.outer(e2, e1) - np.outer(e1, e2))
    return rot
