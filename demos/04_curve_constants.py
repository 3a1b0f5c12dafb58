"""Geometric constants of closed curves: the chord-arc (Lavrentiev) and
three-point (quasicircle) ratios, Ahlfors regularity, and linear
connectivity of the enclosed region.

Run from the repository root:

    python3 demos/04_curve_constants.py
"""

import numpy as np

from harmonicdisk.curve_constants import curve_constants
from harmonicdisk.geometry import (circle_polygon, ellipse_polygon,
                                   rectangle_polygon, u_polygon)

# for a circle: the worst arc/chord ratio is pi/2 (antipodal points),
# the three-point constant (arc diameter / chord) is 1, and the Ahlfors
# constant (length inside D(w, r) / r) approaches 2*pi at w = 0, r = 1
for name, curve in [("circle (512-gon)", circle_polygon(512)),
                    ("square (16/side)", rectangle_polygon(2.0, 2.0, 16)),
                    ("3:1 ellipse", ellipse_polygon(1.5, 0.5, 512)),
                    ("U-shape", u_polygon())]:
    rep = curve_constants(curve, point_pairs=12, grid=256, seed=1)
    print(f"{name}")
    print(f"  lavrentiev M   = {rep.lavrentiev_M:.6f}")
    print(f"  quasicircle M  = {rep.quasicircle_M:.6f}")
    print(f"  ahlfors M      = {rep.ahlfors_M:.6f}")
    print(f"  linear conn. M = {rep.linear_conn_M:.6f}")

print(f"\ncircle references: pi/2 = {np.pi / 2:.6f}, 2*pi = {2 * np.pi:.6f}")
print("convex regions have linear connectivity 1: the circle and the")
print("square report values within raster tolerance of 1, while the")
print("U-shape needs detours and reports a constant well above 1.")
