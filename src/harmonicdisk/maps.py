"""Harmonic mappings of the unit disk and their Wirtinger calculus.

A planar harmonic map is written f = h + conj(g) with h, g analytic on
the open unit disk.  The pointwise derivative data is the Wirtinger pair

    f_z  = (f_x - i f_y) / 2 = h'(z)
    f_zb = (f_x + i f_y) / 2 = conj(g'(z))

from which the distortion quantities follow:

    op_norm  = |f_z| + |f_zb|      largest directional stretch
    lam      = ||f_z| - |f_zb||    smallest directional stretch
    jacobian = |f_z|^2 - |f_zb|^2

A sense-preserving map has jacobian > 0 everywhere; it is K-quasiconformal
when op_norm <= K * lam, equivalently when the second complex dilatation
omega = g'/h' satisfies |omega| <= (K - 1)/(K + 1).

Three concrete representations are provided: truncated power series,
Poisson integrals of unimodular boundary data, and affine maps.  All of
them evaluate on ndarrays; scalar wrappers validate the unit-disk
precondition.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (MapSpecError, NotSensePreserving, PointOutsideDisk,
                     QuadratureNonconvergence)
from .quadrature import golden_max, refine_grid_max

TWO_PI = 2.0 * math.pi
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


@dataclass(frozen=True)
class DerivativeFrame:
    """Wirtinger derivatives at a point together with the derived norms."""

    fz: complex
    fzb: complex
    op_norm: float
    lam: float
    jacobian: float

    @classmethod
    def from_pair(cls, fz, fzb):
        return cls(complex(fz), complex(fzb), float(op_norm(fz, fzb)),
                   abs(abs(fz) - abs(fzb)), float(jacobian(fz, fzb)))


def op_norm(fz, fzb):
    """|f_z| + |f_zb|, the operator norm ||Df||."""
    return np.abs(fz) + np.abs(fzb)


def jacobian(fz, fzb):
    """|f_z|^2 - |f_zb|^2, the Jacobian determinant of f."""
    return np.abs(fz) ** 2 - np.abs(fzb) ** 2


@dataclass(frozen=True)
class DilatationReport:
    """Empirical dilatation supremum from a finite probe grid.

    omega_sup is a lower bound for sup |g'/h'| (supremum over probes),
    hence K_lower = (1 + omega_sup)/(1 - omega_sup) is a lower bound for
    the true maximal dilatation.
    """

    omega_sup: float
    K_lower: float
    r_max: float
    grid_density: tuple[int, int]


def _series_pair(z, h, g):
    """(h(z), conj(g(z))) for power-series coefficients h, g (low degree
    first); the shared evaluator of the series-backed maps."""
    return npoly.polyval(z, h), np.conj(npoly.polyval(z, g))


def _refuse_overflow(kind, size, stretch):
    """Refuse a map whose bound ``size`` on |f| overflows, or the square
    of its bound ``stretch`` on |f_z| + |f_zb|, which bounds the jacobian."""
    size, stretch = float(size), float(stretch)
    if not (math.isfinite(size) and math.isfinite(stretch * stretch)):
        raise MapSpecError(
            f"{kind} map overflows: bound {size:.3e} on |f|, {stretch:.3e} "
            f"on |f_z| + |f_zb|, whose square bounds the jacobian")


class HarmonicMap:
    """Common interface: vectorized evaluation and Wirtinger derivatives,
    and the maps ``scaled(c)``: z -> c f(z) for a nonzero complex c and
    ``rotated(alpha)``: z -> f(e^{i alpha} z) of the same kind.

    ``max_radius`` is the largest |z| at which derivatives are computable
    within tolerance; geometry routines clamp their boundary proxies to
    it (config.effective_boundary_radius).
    """

    max_radius = 1.0

    def eval_many(self, z):
        raise NotImplementedError

    def derivs_many(self, z):
        raise NotImplementedError

    def scaled(self, c):
        raise NotImplementedError

    def rotated(self, alpha):
        raise NotImplementedError


# (radii, angles) of the polar grid probed by ``sense_preserving=True``
_SP_PROBE_GRID = (12, 128)


class SeriesHarmonicMap(HarmonicMap):
    """f(z) = sum a_n z^n + sum conj(b_n) zbar^n, truncated at degree N.

    ``antianalytic_coeffs`` lists b_1..b_N (there is no b_0; a constant
    antianalytic term would be redundant with a_0).  Note the conjugation
    convention: the raw zbar^n coefficient of f is conj(b_n).
    """

    def __init__(self, analytic_coeffs, antianalytic_coeffs=(), *,
                 sense_preserving=False):
        a = np.atleast_1d(np.asarray(analytic_coeffs, dtype=complex))
        b = np.asarray(antianalytic_coeffs, dtype=complex).reshape(-1)
        if a.size == 0:
            a = np.zeros(1, dtype=complex)
        if not np.all(np.isfinite(a)) or not np.all(np.isfinite(b)):
            raise MapSpecError("series coefficients must be finite")
        # on the closed disk sum |a_k| + sum |b_k| bounds |f| and
        # sum k |a_k| + sum k |b_k| bounds |f_z| + |f_zb|
        with np.errstate(over="ignore"):
            _refuse_overflow("series", np.abs(a).sum() + np.abs(b).sum(),
                             np.abs(a) @ np.arange(a.size)
                             + np.abs(b) @ np.arange(1, b.size + 1))
        self.analytic_coeffs = a
        self.antianalytic_coeffs = b
        self.truncation = max(a.size - 1, b.size)
        # g(z) = sum b_n z^n with g(0) = 0
        self._g = np.concatenate([[0.0 + 0.0j], b])
        self._dh = npoly.polyder(a) if a.size > 1 else np.zeros(1, complex)
        self._dg = npoly.polyder(self._g) if b.size else np.zeros(1, complex)
        if sense_preserving:
            self._check_sense_preserving()

    def _check_sense_preserving(self):
        nr, nt = _SP_PROBE_GRID
        r = np.geomspace(0.05, 0.995, nr)
        t = np.linspace(0.0, TWO_PI, nt, endpoint=False)
        z = (r[:, None] * np.exp(1j * t)[None, :]).ravel()
        jac = jacobian(*self.derivs_many(z))
        if np.any(jac <= 0.0):
            k = int(np.argmin(jac))
            raise NotSensePreserving(
                f"jacobian {jac[k]:.3e} <= 0 at probe z = {z[k]:.6f}")

    def eval_many(self, z):
        z = np.asarray(z, dtype=complex)
        h, gbar = _series_pair(z, self.analytic_coeffs, self._g)
        return h + gbar

    def derivs_many(self, z):
        # extended-precision points stay extended (extract_coefficients)
        z = np.asarray(z)
        return _series_pair(z.astype(np.result_type(z, complex), copy=False),
                            self._dh, self._dg)

    def scaled(self, c):
        return SeriesHarmonicMap(c * self.analytic_coeffs,
                                 np.conj(c) * self.antianalytic_coeffs)

    def rotated(self, alpha):
        w = np.exp(1j * alpha)
        a, b = self.analytic_coeffs, self.antianalytic_coeffs
        return SeriesHarmonicMap(a * w ** np.arange(a.size),
                                 b * w ** np.arange(1, b.size + 1))


class AffineHarmonicMap(HarmonicMap):
    """f(z) = c0 + a z + b zbar with |b| < |a| (sense-preserving)."""

    def __init__(self, c0, a, b):
        self.c0 = complex(c0)
        self.a = complex(a)
        self.b = complex(b)
        if not np.all(np.isfinite([self.c0, self.a, self.b])):
            raise MapSpecError("affine coefficients must be finite")
        with np.errstate(over="ignore"):
            size = np.abs([self.c0, self.a, self.b])
            _refuse_overflow("affine", size.sum(), size[1:].sum())
        if not abs(self.b) < abs(self.a):
            raise NotSensePreserving(
                f"affine map needs |b| < |a|, got |a| = {abs(self.a)}, "
                f"|b| = {abs(self.b)}")

    def eval_many(self, z):
        z = np.asarray(z, dtype=complex)
        return self.c0 + self.a * z + self.b * np.conj(z)

    def derivs_many(self, z):
        z = np.asarray(z, dtype=complex)
        fz = np.full(z.shape, self.a)
        fzb = np.full(z.shape, self.b)
        return fz, fzb

    def scaled(self, c):
        return AffineHarmonicMap(c * self.c0, c * self.a, c * self.b)

    def rotated(self, alpha):
        w = np.exp(1j * alpha)
        return AffineHarmonicMap(self.c0, self.a * w, self.b * np.conj(w))


class PoissonHarmonicMap(HarmonicMap):
    """Poisson integral of unimodular boundary data:

        f(z) = (scale / 2 pi) * int_0^{2 pi} P(z, t) exp(i phi(t)) dt,
        P(z, t) = (1 - |z|^2) / |e^{it} - z|^2 = sum_k r^|k| e^{ik(theta - t)}.

    ``phi`` must be nondecreasing on [0, 2 pi] with phi(2 pi) - phi(0)
    = 2 pi (checked on a 2048-point spot grid).  ``kernel_tol`` is
    relative to ``scale``: every cut and test below holds to tol =
    kernel_tol * scale.  The map is refused when scale, or the square of
    Colonna's bound (4/pi) scale / (1 - 0.998^2) on |Df|, overflows.

    Expanding the kernel turns f into its boundary Fourier series

        f(z) = scale * (sum_{k >= 0} c_k z^k + sum_{k >= 1} c_{-k} zbar^k),

    i.e. h and conj(g) are power series, and f_z = h', f_zb = conj(g')
    follow termwise.  On n uniform nodes the c_k are the FFT of
    exp(i phi(t_j)) weighted by periodic composite Simpson (2/3, 4/3),
    kept for |k| < n/4, where the coarse half of the rule does not
    alias.  Trailing coefficients are cut only below the transform's
    round-off floor, and only while their dropped weight
    |k| 0.998^(|k|-1) |c_k| sums to at most tol / 1000.

    Convergence is tested on level pairs from n = 256 up: the 2n-node
    series is returned at the first pair whose two series agree to
    tol at every requested point.  Each pair is first tried by a
    certificate on its coefficients alone: with
    rho = max |z|, the difference of the two truncations is at most
    sum_k |c^{2n}_k - c^n_k| rho^k on the whole disk |z| <= rho
    (Trefethen, Approximation Theory and Approximation Practice, ch. 8),
    and each Horner evaluation adds at most gamma sum_k |c_k| rho^k of
    round-off, gamma = (4 N + 4) u / (1 - (4 N + 4) u) for N coefficients
    and unit round-off u.  When that sum stays within tol the
    pointwise comparison cannot fail, so only the 2n-node series is
    evaluated.  Otherwise both series are evaluated at the points and
    compared, as the certificate can be far from sharp (a kinked phase
    near the boundary).  Either way the result is the one the
    pointwise comparison alone gives, bit for bit.  ``max_panels`` is
    the largest FFT size; QuadratureNonconvergence is raised when 2n
    would exceed it.

    The series converges like r^|k| near the boundary, so evaluation is
    refused beyond |z| = 0.999 and derivatives beyond |z| = 0.998; past
    those radii the node budget cannot reach tolerance.
    """

    EVAL_RADIUS = 0.999
    DERIV_RADIUS = 0.998

    max_radius = DERIV_RADIUS

    _START_NODES = 256

    def __init__(self, scale, phi, *, kernel_tol=1e-10, max_panels=1 << 18):
        self.scale = float(scale)
        if not self.scale > 0.0:
            raise MapSpecError("scale must be positive")
        _refuse_overflow("Poisson", self.scale, 4.0 / math.pi * self.scale
                         / (1.0 - self.DERIV_RADIUS ** 2))
        self.phi = phi
        self.kernel_tol = float(kernel_tol)
        if not 0.0 < self.kernel_tol < math.inf:
            raise MapSpecError("kernel_tol must be positive and finite")
        self.max_panels = int(max_panels)
        self._levels: dict[int, tuple[np.ndarray, ...]] = {}
        self._weights: dict[tuple, np.ndarray] = {}
        self._spot_check_phase()

    def _spot_check_phase(self):
        t = np.linspace(0.0, TWO_PI, 2048)
        v = np.asarray(self.phi(t), dtype=float)
        if not np.all(np.isfinite(v)):
            raise MapSpecError("boundary phase returned non-finite values")
        if np.any(np.diff(v) < -1e-12):
            raise MapSpecError("boundary phase is not nondecreasing")
        if abs((v[-1] - v[0]) - TWO_PI) > 1e-8:
            raise MapSpecError(
                "boundary phase must increase by exactly 2 pi over a period")

    def _trimmed(self, c, floor):
        # c[k] is the coefficient of order k (>= 0) or -k.  The dropped
        # weight bounds the error this cut puts into h' (or g') up to the
        # derivative radius; f_z sees only h' and f_zb only g', so each
        # side gets the whole budget.
        k = np.arange(c.size)
        weight = k * self.DERIV_RADIUS ** np.maximum(k - 1, 0) * np.abs(c)
        tail = np.cumsum(weight[::-1])[::-1]
        small = np.logical_and.accumulate((np.abs(c) < floor)[::-1])[::-1]
        cut = small & (tail <= self.kernel_tol * self.scale / 1000.0)
        keep = int(np.argmax(cut)) if cut.any() else c.size
        return c[:max(keep, 1)]

    def _level(self, n):
        """(h, g, h', g') coefficient arrays of the n-node series."""
        got = self._levels.get(n)
        if got is None:
            t = TWO_PI * np.arange(n) / n
            F = np.exp(1j * np.asarray(self.phi(t), dtype=float))
            w = np.where(np.arange(n) % 2 == 0, 2.0 / 3.0, 4.0 / 3.0)
            c = self.scale * np.fft.fft(F * w) / n
            floor = np.finfo(float).eps * math.log2(n) * self.scale
            K = n // 4
            h = self._trimmed(c[:K], floor)
            # conj(g(z)) = sum_{k >= 1} c_{-k} zbar^k
            g = np.conj(self._trimmed(
                np.concatenate([[0.0], c[:n - K:-1]]), floor))
            got = (h, g, npoly.polyder(h), npoly.polyder(g))
            self._levels[n] = got
        return got

    def _certificate(self, n, outputs):
        """Weights w, one row per output, such that sum_k w[j, k] rho^k
        bounds the computed |delta| of output j between the n- and
        2n-node series at every |z| <= rho.

        ``outputs`` lists, per output, the indices into a level (h, g,
        h', g') of the series the output sums.  The factor 1 + gamma
        covers the rounding of delta itself and of the certificate's
        own sum (Higham, Accuracy and Stability of Numerical
        Algorithms, 2nd ed., ch. 3 and 5.1).
        """
        w = self._weights.get((n, outputs))
        if w is None:
            pair = (self._level(n), self._level(2 * n))
            size = max(lv[i].size for lv in pair for group in outputs
                       for i in group)
            gamma = (4 * size + 4) * _UNIT_ROUNDOFF
            gamma /= 1.0 - gamma
            w = np.zeros((len(outputs), size))
            for row, group in zip(w, outputs):
                for i in group:
                    lo, hi = (np.pad(lv[i], (0, size - lv[i].size))
                              for lv in pair)
                    row += np.abs(hi - lo) + gamma * (np.abs(lo) + np.abs(hi))
            w *= 1.0 + gamma
            self._weights[(n, outputs)] = w
        return w

    def _converged(self, z, rho, outputs, series):
        """series(z, level) of the first 2n-node level that agrees with
        the n-node one to kernel_tol * scale at every point; ``rho`` is
        max |z| and ``outputs`` says which level arrays series reads (see
        _certificate)."""
        tol = self.kernel_tol * self.scale
        # |z| <= rho (1 + 4u) even where abs() rounded rho down
        rho_up = rho * (1.0 + 4.0 * _UNIT_ROUNDOFF)
        n = self._START_NODES
        prev = None
        while 2 * n <= self.max_panels:
            w = self._certificate(n, outputs)
            if np.all(w @ rho_up ** np.arange(w.shape[1]) <= tol):
                return series(z, self._level(2 * n))
            if prev is None:
                prev = series(z, self._level(n))
            out = series(z, self._level(2 * n))
            delta = max(float(np.abs(o - p).max()) if o.size else 0.0
                        for o, p in zip(out, prev))
            if delta <= tol:
                return out
            prev = out
            n *= 2
        raise QuadratureNonconvergence(
            f"Poisson boundary series did not reach |delta| <= "
            f"{tol} within {self.max_panels} nodes "
            f"(max |z| = {rho})")

    # refusal slack: |r e^{it}| can exceed r by a rounding error
    _RADIUS_SLACK = 1e-12

    def _radius(self, z, limit, what):
        """max |z|, refusing points beyond ``limit``."""
        rho = float(np.abs(z).max()) if z.size else 0.0
        if rho > limit + self._RADIUS_SLACK:
            raise QuadratureNonconvergence(
                f"Poisson {what} refused beyond |z| = {limit}: the boundary "
                "series exceeds the node budget")
        return rho

    def eval_many(self, z):
        z = np.asarray(z, dtype=complex)
        rho = self._radius(z, self.EVAL_RADIUS, "evaluation")
        # one output, h + conj(g)
        return self._converged(
            z, rho, ((0, 1),),
            lambda z, lv: (np.add(*_series_pair(z, lv[0], lv[1])),))[0]

    def derivs_many(self, z):
        z = np.asarray(z, dtype=complex)
        rho = self._radius(z, self.DERIV_RADIUS, "derivatives")
        # two outputs, h' and conj(g')
        return self._converged(z, rho, ((2,), (3,)),
                               lambda z, lv: _series_pair(z, lv[2], lv[3]))

    def _with(self, scale, phi):
        return PoissonHarmonicMap(scale, phi, kernel_tol=self.kernel_tol,
                                  max_panels=self.max_panels)

    def scaled(self, c):
        # c P[e^{i phi}] = |c| P[e^{i (phi + arg c)}]
        turn, phi = cmath.phase(c), self.phi
        return self._with(abs(c) * self.scale, lambda t: phi(t) + turn)

    def rotated(self, alpha):
        # P(e^{i alpha} z, t) = P(z, t - alpha); substitute s = t - alpha
        phi = self.phi
        return self._with(self.scale, lambda t: phi(t + alpha))


def eval_circle_grid(m, r, n):
    """f on the uniform circle grid r exp(2 pi i k / n)."""
    n = int(n)
    return m.eval_many(float(r) * np.exp(2j * np.pi * np.arange(n) / n))


def derivs_polar_grid(m, radii, n_theta):
    """(f_z, f_zb) arrays of shape (n_theta, len(radii)) on the polar
    grid angles 2 pi k / n_theta (rows) x radii (columns)."""
    radii = np.asarray(radii, dtype=float)
    n_theta = int(n_theta)
    e = np.exp(2j * np.pi * np.arange(n_theta) / n_theta)
    return m.derivs_many(radii[None, :] * e[:, None])


def evaluate(m, z):
    """f(z) for a single point of the open unit disk."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise PointOutsideDisk(f"|z| = {abs(z)} >= 1")
    return complex(m.eval_many(np.array([z]))[0])


def wirtinger(m, z):
    """DerivativeFrame of the map at a single point of the open disk."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise PointOutsideDisk(f"|z| = {abs(z)} >= 1")
    fz, fzb = m.derivs_many(np.array([z]))
    return DerivativeFrame.from_pair(fz[0], fzb[0])


def estimate_K(m, r_max=0.999, grid=720):
    """Lower bound for the maximal dilatation from a polar probe grid.

    32 geometrically spaced radii in (0.1, r_max] times ``grid`` angles,
    followed by coordinate-wise golden-section refinement around the
    best probe.  Raises NotSensePreserving if the jacobian is not
    positive at every probe.
    """
    r_max = min(float(r_max), m.max_radius)
    if not 0.0 < r_max:
        raise ValueError("r_max must be positive")
    n_r = 32
    lo = min(0.1, 0.5 * r_max)
    radii = np.geomspace(lo, r_max, n_r)
    angles = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    fz, fzb = derivs_polar_grid(m, radii, grid)  # (grid, n_r)
    jac = jacobian(fz, fzb).T
    if np.any(jac <= 0.0):
        k = int(np.argmin(jac))
        i_bad, j_bad = np.unravel_index(k, jac.shape)
        z_bad = radii[i_bad] * np.exp(1j * angles[j_bad])
        raise NotSensePreserving(
            f"jacobian {jac[i_bad, j_bad]:.3e} <= 0 at probe z = {z_bad:.6f}")
    om = (np.abs(fzb) / np.abs(fz)).T

    def omega_at(r, th):
        a, b = m.derivs_many(np.array([r * np.exp(1j * th)]))
        return float(np.abs(b[0]) / np.abs(a[0]))

    i, j = np.unravel_index(int(np.argmax(om)), om.shape)
    # refine the angle on the wrap-around grid, then the radius
    th_star, _ = refine_grid_max(lambda th: omega_at(radii[i], th), angles,
                                 om[i], wrap=TWO_PI)
    r_lo = radii[max(i - 1, 0)]
    r_hi = radii[min(i + 1, n_r - 1)]
    if r_hi > r_lo:
        r_star, val = golden_max(lambda r: omega_at(r, th_star), r_lo, r_hi)
    else:
        r_star, val = radii[i], omega_at(radii[i], th_star)
    omega_sup = max(float(np.max(om)), val)
    if omega_sup >= 1.0:
        raise NotSensePreserving(f"dilatation modulus {omega_sup} >= 1")
    K_lower = (1.0 + omega_sup) / (1.0 - omega_sup)
    return DilatationReport(omega_sup, K_lower, r_max, (n_r, grid))


def sup_modulus(m, r_max):
    """sup |f| over the circle |z| = r_max (grid plus golden refinement).

    |f| is subharmonic, so this also bounds |f| on the closed disk of
    radius r_max.
    """
    r_max = float(r_max)
    if not 0.0 < r_max <= m.max_radius:
        raise PointOutsideDisk(
            f"r_max must lie in (0, {m.max_radius}] for this map")
    angles = np.linspace(0.0, TWO_PI, 720, endpoint=False)
    vals = np.abs(eval_circle_grid(m, r_max, 720))

    def f1(th):
        return float(np.abs(m.eval_many(np.array([r_max * np.exp(1j * th)])))[0])

    _, v = refine_grid_max(f1, angles, vals, wrap=TWO_PI)
    return max(float(vals.max()), v)


def scale_range(m, c):
    """The map z -> c * f(z) for a nonzero complex factor c."""
    if complex(c) == 0:
        raise MapSpecError("range scale factor must be nonzero")
    return m.scaled(complex(c))


def rotate_domain(m, alpha):
    """The map z -> f(e^{i alpha} z)."""
    return m.rotated(float(alpha))
