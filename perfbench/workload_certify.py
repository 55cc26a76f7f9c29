"""certify: PL convexity certificates on closed-form hyperboloid meshes.

Its time is in `plconvex`'s determinant and adjacency loops; vinberg runs
only inside the characteristic-surface builds.  Task mix per pass (51 tasks):

- `radial_section_check` and `certify_generic_convex` on ring meshes of the
  hyperboloid at three sizes (60, 264 and 510 simplices, 8.5x): the size
  sweep exposes the quadratic section check.
- `certify_generic_convex` on eight seeded dented meshes (133 vertices), which
  must be rejected; with the surface builds this class holds the tail.
- `perturbation_radius` on a 17-vertex mesh: 100 re-certifications plus up
  to 20 at ten times the radius.
- `log_contour_values` at 500 seeded points on the small mesh, 30 times;
  this class holds the median task.
- `pl_characteristic_surface` (budget 48) on disk, seeded ellipse, 24-gon,
  triangle, square and 2-d orthant.  On the triangle and the orthant it
  raises ApproximationFailureError at every seed: recorded known failures.
  That error is known only on these corner domains (CORNERS); on the
  others it is an error.
"""

import numpy as np

from projconvex import plconvex as pl
from projconvex.errors import ApproximationFailureError

from common import Task, close, construct, ring_mesh, rot2

SIZES = {"small": (3, 12), "medium": (6, 24), "large": (8, 34)}
SIMPLICES = {name: angles * (2 * rings - 1)
             for name, (rings, angles) in SIZES.items()}
DENTS = 8
DENT_MESH = (6, 22)
RADIUS_MESH = (2, 8)
CONTOURS, CONTOUR_POINTS = 30, 500
BUDGET = 48
CORNERS = ("triangle", "square", "orthant2")


def generate(seed, workdir):
    rng = np.random.default_rng([seed, 3])
    tasks = []
    for size, (rings, angles) in SIZES.items():
        mesh = ring_mesh(rings, angles, spin=rng.uniform(0, 2 * np.pi))
        tasks.append(("section", size, mesh))
        tasks.append(("certify", size, mesh))
    for _ in range(DENTS):
        verts, tris = ring_mesh(*DENT_MESH, spin=rng.uniform(0, 2 * np.pi))
        verts = verts.copy()
        rings, angles = DENT_MESH
        ring = rng.integers(1, rings)          # an interior ring
        verts[1 + (ring - 1) * angles + rng.integers(angles)] *= rng.uniform(0.85, 0.93)
        tasks.append(("dented", (verts, tris)))
    tasks.append(("radius", ring_mesh(*RADIUS_MESH, spin=rng.uniform(0, 2 * np.pi)),
                  int(rng.integers(2 ** 31))))
    verts, tris = ring_mesh(*SIZES["small"])
    for _ in range(CONTOURS):
        simp = np.array(tris)[rng.integers(len(tris), size=CONTOUR_POINTS)]
        weights = rng.dirichlet(np.ones(3), size=CONTOUR_POINTS)
        on_surface = np.einsum("ki,kij->kj", weights, verts[simp])
        scale = rng.uniform(0.5, 2.0, CONTOUR_POINTS)
        tasks.append(("contour", (verts, tris), on_surface * scale[:, None], scale))
    th, a, b = rng.uniform(0, np.pi), *rng.uniform(0.6, 1.4, 2)
    r2 = rot2(th)
    builds = {"disk": ("ellipsoid", np.zeros(2), np.eye(2)),
              "ellipse": ("ellipsoid", rng.uniform(-0.3, 0.3, 2),
                          r2 @ np.diag([a ** -2, b ** -2]) @ r2.T),
              "gon24": ("polygon", 24),
              "triangle": ("vertices", [[0, 0], [1, 0], [0, 1]]),
              "square": ("vertices", [[1, 1], [-1, 1], [-1, -1], [1, -1]]),
              "orthant2": ("orthant", 2)}
    for name, spec in builds.items():
        tasks.append(("build", name, spec, int(rng.integers(2 ** 31))))
    order = rng.permutation(len(tasks))
    return {"tasks": [tasks[i] for i in order]}


def build(raw):
    """Fresh domains, so each pass pays their caches; meshes are built by the
    tasks themselves, so adjacency construction is part of the batch."""
    built = []
    for op, *args in raw["tasks"]:
        if op in ("section", "certify"):
            built.append((f"{op}.{args[0]}", op, args[1]))
        elif op == "build":
            name, spec, seed = args
            built.append(("build", op, construct(*spec), seed, name in CORNERS))
        else:
            built.append((op, op, *args))
    return built


def cleanup(raw):
    pass


def _surface(mesh):
    return pl.SimplicialHypersurface(*mesh)


def _section(mesh):
    return lambda: pl.radial_section_check(_surface(mesh)), lambda r: r.ok


def _certify(mesh):
    return (lambda: pl.certify_generic_convex(_surface(mesh)),
            lambda c: c.ok and c.sign != 0 and not c.violations)


def _dented(mesh):
    return (lambda: pl.certify_generic_convex(_surface(mesh)),
            lambda c: not c.ok and bool(c.violations))


def _radius(mesh, seed):
    return (lambda: pl.perturbation_radius(_surface(mesh), seed=seed),
            lambda r: r.epsilon > 0 and r.reverify_passes == r.reverify_trials)


def _contour(mesh, points, scale):
    return (lambda: pl.log_contour_values(_surface(mesh), points),
            lambda h: close(h, -np.log(scale), 1e-9, 1e-12))


def _build(dom, seed):
    return (lambda: pl.pl_characteristic_surface(dom, BUDGET, seed=seed),
            lambda r: r.certificate.ok)


MAKERS = {"section": _section, "certify": _certify, "dented": _dented,
          "radius": _radius, "contour": _contour, "build": _build}


def tasks(built):
    out = []
    for cls, op, *args in built:
        corner = op == "build" and args.pop()
        call, check = MAKERS[op](*args)
        known = (ApproximationFailureError,) if corner else ()
        out.append(Task(cls, call, check, known))
    return out
