"""Volume of truncated cones, duality, and the slice-centroid map.

For a functional phi in the dual cone, the region between the apex and the
unit level of phi has finite volume; minimizing it over the fiber through a
point recovers that point as the slice centroid.  This gives a bijection
between the dual domain and the domain, plus a canonical radial surface.
"""

import numpy as np

from projconvex import domain as dm, vinberg as vb
from projconvex.projgeom import ProjPoint

orthant = dm.orthant_domain(2)
print("positive orthant in RP^2 (chart through [1:1:1])")
phi = np.array([1.0, 2.0, 1.0])
res = vb.volume_functional(orthant, phi)
print(f"V(1,2,1) = {res.value}  (closed form 1/(3! * 2) = {1 / 12})")
print("gradient:", vb.grad_volume(orthant, phi))
print("slice centroid:", vb.slice_centroid(orthant, phi))

mc = vb.volume_functional_quadrature(orthant, phi, samples=50000, seed=1)
print(f"Monte-Carlo cross-check: {mc.value:.6f} +- {mc.error_bound:.1e}")

# fiber minimization: the centroid condition pins the minimizer
fm = vb.min_volume_on_fiber(orthant, np.array([1.0, 1.0, 1.0]))
print("\nfiber through (1,1,1): minimizer", np.round(fm.phi, 12),
      "value", fm.value)

# duality map round trip
p = ProjPoint([2.0, 1.0, 1.0])
phi_star = vb.theta_inverse(orthant, p)
back = vb.theta(orthant, phi_star)
print("round trip through the duality map:",
      np.linalg.norm(back.coords - p.coords))

# the radial characteristic surface of the planar orthant is x1*x2 = 1/2
flat = dm.orthant_domain(1)
print("\ncharacteristic surface of the quarter plane:")
for a in (0.2, 0.5, 0.8):
    cp = vb.characteristic_point(flat, np.array([a, 1 - a]))
    print(f"  direction ({a},{1 - a}) -> point {np.round(cp, 6)},"
          f" x1*x2 = {cp[0] * cp[1]:.12f}")

# the round cone's surface is the invariant hyperboloid
disk = dm.unit_disk()
t_ax = (3 / np.pi) ** (1 / 3)
print("\nround cone: surface radius on the axis =",
      np.linalg.norm(vb.characteristic_point(disk, np.array([0.0, 0.0, 1.0]))),
      "= (3/pi)^(1/3) =", t_ax)
cp = vb.characteristic_point(disk, np.array([0.3, -0.2, 1.0]))
print("off axis, x^2+y^2-z^2 =", cp[0] ** 2 + cp[1] ** 2 - cp[2] ** 2,
      "= -(3/pi)^(2/3) =", -t_ax ** 2)

# duality of the domains themselves
square = dm.square_domain()
dual = dm.dual_domain(square)
print("\ndual of the square has vertices",
      sorted(tuple(float(c) for c in np.round(v, 9) + 0.0)
             for v in dual.backend.vertices()),
      "(the diamond)")
