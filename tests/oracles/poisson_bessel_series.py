"""Series form of the boundary-correspondence map phi(t) = t + eps sin t.

The boundary values e^{i phi(t)} = e^{it} e^{i eps sin t} expand by the
Jacobi-Anger identity e^{ix sin t} = sum_m J_m(x) e^{imt} into the
Fourier series sum_k J_{k-1}(eps) e^{ikt}.  The harmonic extension of a
boundary Fourier series is the series map with analytic coefficients
a_k = J_{k-1}(eps) for k >= 0 and anti-analytic coefficients
b_j = J_{-j-1}(eps) for j >= 1.  Since J_n(0.2) decays like
(0.1)^n / n!, truncating at |order| <= 34 is exact to double precision.

This yields a closed-form twin of the FFT-built Poisson map: the two
must agree everywhere in the disk to kernel tolerance.  The script
prints the leading coefficients and spot values; the corresponding test
rebuilds the series live from scipy.special.jv.

Run:  python3 tests/oracles/poisson_bessel_series.py
"""

import numpy as np
from scipy.special import jv

EPS = 0.2
ORDERS = 34


def bessel_series_coeffs(eps=EPS, orders=ORDERS):
    analytic = jv(np.arange(0, orders + 1) - 1, eps).astype(complex)
    anti = jv(-np.arange(1, orders + 1) - 1, eps).astype(complex)
    return analytic, anti


def eval_series(analytic, anti, z):
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    for k in range(analytic.size - 1, -1, -1):
        out = out * z + analytic[k]
    acc = np.zeros_like(z)
    for j in range(anti.size - 1, 0, -1):
        acc = (acc + anti[j - 1]) * np.conj(z)
    return out + acc


def main():
    analytic, anti = bessel_series_coeffs()
    print("analytic a_0..a_5 :", np.round(analytic[:6].real, 12))
    print("anti     b_1..b_5 :", np.round(anti[:5].real, 12))
    print("tail |a_34|       :", abs(analytic[-1]))
    probes = np.array([0.3 + 0.2j, -0.7j, 0.95, -0.6 + 0.6j])
    for z in probes:
        print(f"f({z}) = {eval_series(analytic, anti, z):.15g}")


if __name__ == "__main__":
    main()
