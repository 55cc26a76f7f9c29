"""PL convexity certificates and PL approximation of the radial surface.

A triangulated hypersurface in a cone is certified locally convex by sign
consistency of vertex-star determinants, with a displacement radius keeping
the certificate valid; the log radial contour of a certified surface is a
convex function on the cone.
"""

import numpy as np

from projconvex import domain as dm, plconvex as pl

polyline = pl.SimplicialHypersurface(
    np.array([[-1.0, 2.0], [0.0, 1.0], [1.0, 2.0]]), [(0, 1), (1, 2)])
vc = pl.vertex_convexity(polyline, 1)
print("worked polyline: determinants at the middle vertex:",
      [round(d, 12) for _, _, d in vc.determinants])
cert = pl.certify_generic_convex(polyline)
print("certificate:", cert.ok, " sign", cert.sign, " margin", cert.margin)

pr = pl.perturbation_radius(polyline, trials=100, seed=5)
print(f"certified displacement radius {pr.epsilon:.5f};"
      f" {pr.reverify_passes}/{pr.reverify_trials} reverified at 0.9 eps;"
      f" broke at 10 eps: {pr.failed_at_10x}")

xs = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
ys = 1.0 + xs ** 2
ys[2] = 2.2
dented = pl.SimplicialHypersurface(np.stack([xs, ys], axis=1),
                                   [(i, i + 1) for i in range(4)])
bad = pl.certify_generic_convex(dented)
print("\ndented polyline rejected:", not bad.ok,
      "violations at vertices",
      [v.get("vertex") for v in bad.violations if v["kind"] == "vertex"])

print("\nPL radial surface of the quarter plane (16 directions):")
res = pl.pl_characteristic_surface(dm.orthant_domain(1), 16)
prods = res.surface.vertices[:, 0] * res.surface.vertices[:, 1]
print("  x1*x2 on the vertices:", np.round(prods, 12).tolist()[:4], "...")
print("  certified:", res.certificate.ok,
      " deviation bound:", res.deviation_bound)

print("\nround cone, doubling the budget cuts the deviation bound by about 40%:")
for budget in (32, 64, 128):
    r = pl.pl_characteristic_surface(dm.unit_disk(), budget)
    print(f"  budget {budget}: deviation {r.deviation_bound:.4f},"
          f" margin {r.certificate.margin:.2e}")

surf = pl.pl_characteristic_surface(dm.unit_disk(), 64).surface
rng = np.random.default_rng(7)
m = surf.vertices.shape[0]
i, j = rng.integers(0, m, 4000), rng.integers(0, m, 4000)
s = rng.uniform(1.0, 2.5, size=(4000, 2))
a = surf.vertices[i] * s[:, :1]
b = surf.vertices[j] * s[:, 1:]
ha, hb_, hm = (pl.log_contour_values(surf, x) for x in (a, b, 0.5 * (a + b)))
mask = ~(np.isnan(ha) | np.isnan(hb_) | np.isnan(hm))
viol = int(np.sum(hm[mask] > 0.5 * (ha[mask] + hb_[mask]) + 1e-10))
print(f"\nlog-contour midpoint convexity: {viol} violations"
      f" in {int(mask.sum())} sampled segments")
