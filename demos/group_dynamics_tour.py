"""Automorphisms of a domain: translation lengths, orbits, fundamental domains.

Writes demo_output/orbit.svg with an orbit accumulating on the frontier.
"""

import os

import numpy as np

from projconvex import domain as dm, group as gp, hilbert as hb
from projconvex.projgeom import ProjPoint, ProjTransform
from projconvex.svgfig import domain_outline, render_scene

os.makedirs("demo_output", exist_ok=True)


def boost(t):
    return np.array([[np.cosh(t), 0, np.sinh(t)],
                     [0, 1, 0],
                     [np.sinh(t), 0, np.cosh(t)]])


def rotation(a):
    return np.array([[np.cos(a), -np.sin(a), 0],
                     [np.sin(a), np.cos(a), 0],
                     [0, 0, 1]])


disk = dm.unit_disk()
b = ProjTransform(boost(0.8))
print("boost(0.8) preserves the Klein disk:",
      gp.is_automorphism(disk, b).is_automorphism)
hd = gp.fixed_point_dynamics(disk, b)
print("attracting / repelling points:", hd.a_plus.coords, hd.a_minus.coords)
print(f"translation length {hd.translation_length:.12f}"
      f" = half the log eigenvalue ratio {hd.length_eigen:.12f}")
print("iterates reach the attractor (1e-6) by k =",
      gp.attractor_convergence(disk, b, [0.2, -0.3]))

# a one-dimensional example where everything is exact by hand
ray = dm.orthant_domain(1)
a1 = ProjTransform(np.diag([np.e, 1.0 / np.e]))
hd1 = gp.fixed_point_dynamics(ray, a1)
print("\nprojective ray with diag(e, 1/e): length =", hd1.translation_length)
dd = gp.dirichlet_domain(ray.cone(), [a1], np.array([1.0, 1.0]), 2)
v0 = ray.chart.to_chart(ProjPoint(dd.vertices[0], canonicalize=False))
v1 = ray.chart.to_chart(ProjPoint(dd.vertices[1], canonicalize=False))
print("fundamental segment has metric length",
      hb.distance(ray, v0, v1), "(equals the translation length)")
print("facet words pair up:", dd.pairings)

# orbit of two boosts accumulates on the frontier circle
g1 = ProjTransform(boost(1.1))
g2 = ProjTransform(rotation(np.pi / 2) @ boost(1.1) @ rotation(-np.pi / 2))
pts = gp.orbit([g1, g2], disk.chart.from_chart([0.0, 0.0]), 6)
charted = np.array([disk.chart.to_chart(p) for p in pts])
margins = 1.0 - np.linalg.norm(charted, axis=1)
print(f"\norbit of two boosts, depth 6: {len(pts)} points,"
      f" closest frontier gap {margins.min():.2e}")
render_scene([
    {"type": "polygon", "points": domain_outline(disk)},
    {"type": "points", "points": charted, "radius": 1.5},
], "demo_output/orbit.svg")
print("wrote demo_output/orbit.svg")
