"""Pieces shared by the workloads: the task record, domain construction
from seeded descriptions, seeded transforms, the closed-form hyperboloid
meshes, and exact Hilbert-distance oracles that use the benchmark's own
description of each domain, never the library's.
"""

import os
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull, HalfspaceIntersection

from projconvex import domain as dm

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env():
    """Environment for child interpreters: this checkout's sources, and the
    pinned thread knobs inherited from the benchmark process."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


class Task:
    """One unit of work: a timed call plus an untimed check of its answer.

    `known` lists exception types that are recorded library limitations: the
    task counts as failed, but the run stays correct.
    """

    __slots__ = ("cls", "call", "check", "known")

    def __init__(self, cls, call, check, known=()):
        self.cls, self.call, self.check, self.known = cls, call, check, known


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rot2(theta):
    return rotation(theta)[:2, :2]


def construct(kind, *args):
    """A library domain from a seeded description: a kind and its arguments."""
    if kind == "ellipsoid":
        return dm.ConvexDomain.ellipsoid(*args)
    if kind == "vertices":
        return dm.ConvexDomain.from_vertices(*args)
    if kind == "halfspaces":
        return dm.ConvexDomain.from_halfspaces(*args)
    if kind == "orthant":
        return dm.orthant_domain(*args)
    if kind == "polygon":
        return dm.disk_polygon(*args)
    return dm.ConvexDomain.radial_graph(*args)


def boost(t):
    """Hyperbolic translation of the Klein disk along the x axis."""
    return np.array([[np.cosh(t), 0.0, np.sinh(t)],
                     [0.0, 1.0, 0.0],
                     [np.sinh(t), 0.0, np.cosh(t)]])


def so21_hyperbolic(rng):
    """Conjugated boost of the disk; its translation length is t."""
    t = rng.uniform(0.2, 1.8)
    conj = rotation(rng.uniform(0, 2 * np.pi)) @ boost(rng.uniform(0.0, 1.0))
    return conj @ boost(t) @ np.linalg.inv(conj), t


def so21_element(rng):
    return (rotation(rng.uniform(0, 2 * np.pi)) @ boost(rng.uniform(0.1, 1.5))
            @ rotation(rng.uniform(0, 2 * np.pi)))


def random_orthogonal(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    return q


def ring_mesh(rings, angles, spin=0.0, inset=0.85):
    """Staggered ring triangulation of the disk of radius `inset`, lifted to
    the hyperboloid x0^2 + x1^2 - x2^2 = -1 (a strictly convex radial graph).

    Vertices: 1 + rings * angles.  Simplices: angles * (2 * rings - 1).
    """
    pts = [np.zeros(2)]
    for j in range(1, rings + 1):
        ang = spin + 2 * np.pi * (np.arange(angles) + 0.5 * (j % 2)) / angles
        pts.extend(inset * j / rings * np.stack([np.cos(ang), np.sin(ang)], 1))
    pts = np.array(pts)
    tris = [(0, 1 + i, 1 + (i + 1) % angles) for i in range(angles)]
    for j in range(rings - 1):
        b0, b1 = 1 + j * angles, 1 + (j + 1) * angles
        for i in range(angles):
            i2 = (i + 1) % angles
            if j % 2 == 0:
                tris += [(b0 + i, b1 + i2, b0 + i2), (b1 + i, b0 + i, b1 + i2)]
            else:
                tris += [(b0 + i, b1 + i, b0 + i2), (b1 + i, b1 + i2, b0 + i2)]
    lifts = np.hstack([pts, np.ones((len(pts), 1))])
    return lifts / np.sqrt(1.0 - (pts ** 2).sum(1))[:, None], tris


# ---------------------------------------------------------------------------
# distance oracles


class EllipsoidOracle:
    """{x : (x-c)^T M (x-c) < 1}: the Klein-model arccosh formula after the
    affine map u = L^T (x - c), M = L L^T."""

    def __init__(self, center, shape):
        self.center = np.asarray(center, float)
        self.factor = np.linalg.cholesky(np.asarray(shape, float))

    def sample(self, rng, count, margin):
        n = self.center.size
        dirs = rng.normal(size=(count, n))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        u = dirs * ((1.0 - margin) * rng.uniform(size=count) ** (1.0 / n))[:, None]
        return self.center + np.linalg.solve(self.factor.T, u.T).T

    def dist(self, xs, ys):
        u = (np.atleast_2d(xs) - self.center) @ self.factor
        v = (np.atleast_2d(ys) - self.center) @ self.factor
        c = (1.0 - (u * v).sum(1)) / np.sqrt((1.0 - (u * u).sum(1))
                                            * (1.0 - (v * v).sum(1)))
        return np.arccosh(np.maximum(c, 1.0))


class PolytopeOracle:
    """{x : A x < b}: half the log of the cross-ratio of the chord ends."""

    def __init__(self, normals, offsets, verts):
        a = np.atleast_2d(np.asarray(normals, float))
        norms = np.linalg.norm(a, axis=1)
        self.a = a / norms[:, None]
        self.b = np.asarray(offsets, float) / norms
        self.box = (np.min(verts, axis=0), np.max(verts, axis=0))

    @classmethod
    def from_vertices(cls, verts):
        verts = np.asarray(verts, float)
        if verts.shape[1] == 1:
            lo, hi = verts.min(), verts.max()
            return cls([[1.0], [-1.0]], [hi, -lo], verts)
        eq = ConvexHull(verts).equations
        return cls(eq[:, :-1], -eq[:, -1], verts)

    @classmethod
    def from_halfspaces(cls, normals, offsets):
        """Half-spaces whose intersection contains the origin."""
        normals = np.asarray(normals, float)
        offsets = np.asarray(offsets, float)
        hs = HalfspaceIntersection(np.hstack([normals, -offsets[:, None]]),
                                   np.zeros(normals.shape[1]))
        return cls(normals, offsets, hs.intersections)

    def sample(self, rng, count, margin):
        lo, hi = self.box
        out = []
        while len(out) < count:
            x = rng.uniform(lo, hi, size=(256, lo.size))
            keep = np.all(self.a @ x.T < (self.b - margin)[:, None], axis=0)
            out.extend(x[keep])
        return np.array(out[:count])

    def dist(self, xs, ys):
        xs, ys = np.atleast_2d(xs), np.atleast_2d(ys)
        d = ys - xs
        num = self.b[None, :] - xs @ self.a.T
        den = d @ self.a.T
        with np.errstate(divide="ignore", invalid="ignore"):
            t = num / den
        t_hi = np.where(den > 0, t, np.inf).min(1)
        t_lo = np.where(den < 0, t, -np.inf).max(1)
        return 0.5 * np.abs(np.log(t_hi * (1.0 - t_lo) / ((t_hi - 1.0) * -t_lo)))


def close(got, want, rel=1e-8, abs_=1e-10):
    got, want = np.asarray(got, float), np.asarray(want, float)
    return bool(np.all(np.abs(got - want) <= abs_ + rel * np.abs(want)))
