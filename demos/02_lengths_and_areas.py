"""Length and area functionals of a harmonic image: level curves,
boundary arcs, radial segments, crosscuts, and the area they enclose.

Run from the repository root:

    python3 demos/02_lengths_and_areas.py
"""

import numpy as np

from harmonicdisk.gallery import gallery_map
from harmonicdisk.geometry import (ArcSet, boundary_image_length,
                                   crosscut_integral, crosscut_length,
                                   image_area, level_curve_length,
                                   radial_length, sup_radial_length)

m = gallery_map("affine:1,0.5")

# perimeter of the image of |z| = r; grows linearly for an affine map
print("level-curve lengths")
for r in (0.25, 0.5, 0.75):
    print(f"  r = {r}: {level_curve_length(m, r):.8f}")

# image length of a boundary arc set (two arcs of total measure pi)
arcs = ArcSet([(0.0, np.pi / 2), (np.pi, 3 * np.pi / 2)])
print(f"\nboundary arcs, measure {arcs.total_measure:.6f}: "
      f"image length {boundary_image_length(m, arcs):.8f}")

# image length of the radius toward 45 degrees, and the sup over all
# directions (attained on the long axis for this map)
th = np.pi / 4
print(f"\nradial image length at angle {th:.4f}: "
      f"{radial_length(m, th, 0.9):.8f}")
th_star, sup_len = sup_radial_length(m, 0.9)
print(f"sup over directions: {sup_len:.8f} at angle {th_star:.6f}")

# the crosscut at rho about zeta0 = 1: the image of the circular arc
# |z - 1| = rho inside the disk
rho = 0.8
print(f"\ncrosscut image length at rho = {rho}: "
      f"{crosscut_length(m, 1.0, rho):.8f}")

# for the identity, integrating crosscut lengths in rho recovers the
# area of the lens {|z - 1| <= r} cut off by the disk; image_area
# integrates the Jacobian over the same region with the same polar
# lens rule, so the two agree to rounding
ident = gallery_map("identity")
r = 0.8
lhs = crosscut_integral(ident, 1.0, r)
rhs = image_area(ident, r, center=1.0)
print(f"\ncoarea check for the identity at r = {r}:")
print(f"  integral of crosscut lengths {lhs:.10f}")
print(f"  Jacobian area of the lens    {rhs:.10f}")
print(f"  difference {abs(lhs - rhs):.2e}")

# total image area with node-doubling agreement reported
info = {}
area = image_area(m, 0.9, info=info)
print(f"\nimage area of |z| < 0.9 under the affine map: {area:.10f} "
      f"(node agreement {info['agreement']:.2e})")
