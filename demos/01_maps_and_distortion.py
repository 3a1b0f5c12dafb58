"""Build a polynomial, an affine and a Poisson map, evaluate them, and
read off pointwise distortion.

Run from the repository root:

    python3 demos/01_maps_and_distortion.py
"""

import numpy as np

from harmonicdisk.gallery import gallery_map
from harmonicdisk.maps import PoissonHarmonicMap, SeriesHarmonicMap, estimate_K

# a polynomial map z + 0.3*conj(z)^2, entered by its two coefficient
# lists: analytic a_0, a_1, ... and anti-analytic b_1, b_2, ...
poly = SeriesHarmonicMap([0.0, 1.0], [0.0, 0.3])

# a*z + b*conj(z), sense preserving because |a| > |b|: the degree-one
# series map with coefficient lists [0, a] and [conj(b)]
affine = gallery_map("affine:1,0.5")

# harmonic extension of the boundary correspondence e^{i phi(t)} with
# phi(t) = t + 0.2 sin t, evaluated as the power series of its boundary
# Fourier coefficients
poisson = PoissonHarmonicMap(1.0, lambda t: t + 0.2 * np.sin(t))

z = np.array([0.3 + 0.1j, -0.5j, 0.7 + 0.2j])

for name, m in [("poly", poly), ("affine", affine), ("poisson", poisson)]:
    w = m.eval_many(z)
    fz, fzb = m.derivs_many(z)
    op_norm = np.abs(fz) + np.abs(fzb)
    print(f"\n{name}")
    for k in range(z.size):
        print(f"  f({z[k]:.2f}) = {w[k]:.6f}   "
              f"|f_z|+|f_zb| = {op_norm[k]:.6f}   "
              f"J = {abs(fz[k])**2 - abs(fzb[k])**2:.6f}")

# the smallest K with |f_z|+|f_zb| <= K * (|f_z|-|f_zb|) over the disk,
# bounded from below by one probe circle.  For the affine map it is
# exactly (1+|b/a|)/(1-|b/a|) = 3.
print("\nestimated distortion")
for name, m in [("poly", poly), ("affine", affine), ("poisson", poisson)]:
    rep = estimate_K(m)
    print(f"  {name}: sup|omega| >= {rep.omega_sup:.6f}, "
          f"K >= {rep.K_lower:.6f}")
