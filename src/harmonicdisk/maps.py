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

Two concrete representations are provided: truncated power series,
whose degree-one case is the affine map c0 + a z + b zbar (built by
gallery), and Poisson integrals of unimodular boundary data.  Both
evaluate on ndarrays.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .config import MAX_THETA_GRID
from .errors import (MapSpecError, NotSensePreserving, PointOutsideDisk,
                     QuadratureNonconvergence, checked_count, checked_real)
from .quadrature import refine_grid_max

TWO_PI = 2.0 * math.pi
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


def op_norm(fz, fzb):
    """|f_z| + |f_zb|, the operator norm ||Df||."""
    return np.abs(fz) + np.abs(fzb)


def jacobian(fz, fzb):
    """|f_z|^2 - |f_zb|^2, the Jacobian determinant of f."""
    return np.abs(fz) ** 2 - np.abs(fzb) ** 2


@dataclass(frozen=True)
class DilatationReport:
    """Empirical dilatation supremum from one probe circle.

    omega_sup is a lower bound for sup |g'/h'| (supremum over probes),
    hence K_lower = (1 + omega_sup)/(1 - omega_sup) is a lower bound for
    the true maximal dilatation.
    """

    omega_sup: float
    K_lower: float
    r_max: float


# points per block of _polyval: a block and its two work arrays (3 x
# 128 KiB at complex128) stay in the L2 cache through every Horner step
_HORNER_BLOCK = 1 << 13


def _polyval(z, c):
    """npoly.polyval(z, c), bit for bit, by Horner steps over blocks of
    _HORNER_BLOCK points instead of over the whole batch.

    The steps are polyval's: c[-1] + z * 0, then c[k] + acc * z for k
    down to 0, each product written to a separate array (an in-place
    complex product of a single point can round differently)."""
    zf = z.reshape(-1)
    out = np.empty(zf.shape, np.result_type(zf, c))
    tmp = np.empty(min(zf.size, _HORNER_BLOCK), out.dtype)
    for i in range(0, zf.size, _HORNER_BLOCK):
        x, acc = zf[i:i + _HORNER_BLOCK], out[i:i + _HORNER_BLOCK]
        t = tmp[:x.size]
        np.multiply(x, 0, out=t)
        np.add(c[-1], t, out=acc)
        for ck in c[-2::-1]:
            np.multiply(acc, x, out=t)
            np.add(ck, t, out=acc)
    # [()] gives a 0-d batch back as a scalar, as polyval does
    return out.reshape(z.shape)[()]


def _series_pair(z, h, g):
    """(h(z), conj(g(z))) for power-series coefficients h, g (low degree
    first); the shared evaluator of the series-backed maps."""
    return _polyval(z, h), np.conj(_polyval(z, g))


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
    the power series ``taylor(rho)`` that evaluation uses on |z| <= rho,
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

    def taylor(self, rho):
        """(h, g, err): coefficient arrays, lowest degree first, of the
        power series f = h + conj(g) that evaluation uses on |z| <= rho,
        so f(z) = polyval(z, h) + conj(polyval(z, g)).  err bounds the
        truncation error of h' and g' there: 0 for an exact series."""
        raise NotImplementedError

    def scaled(self, c):
        raise NotImplementedError

    def rotated(self, alpha):
        raise NotImplementedError


class SeriesHarmonicMap(HarmonicMap):
    """f(z) = sum a_n z^n + sum conj(b_n) zbar^n, truncated at degree N.

    ``antianalytic_coeffs`` lists b_1..b_N (there is no b_0; a constant
    antianalytic term would be redundant with a_0).  Note the conjugation
    convention: the raw zbar^n coefficient of f is conj(b_n).
    """

    def __init__(self, analytic_coeffs, antianalytic_coeffs=()):
        # copies: a later write into the caller's arrays must not
        # reach the map, whose derivative series are fixed below
        a = np.atleast_1d(np.array(analytic_coeffs, dtype=complex))
        b = np.array(antianalytic_coeffs, dtype=complex).reshape(-1)
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
        for c in (a, b, self._g):  # taylor hands them out
            c.flags.writeable = False

    def eval_many(self, z):
        z = np.asarray(z, dtype=complex)
        h, gbar = _series_pair(z, self.analytic_coeffs, self._g)
        return h + gbar

    def derivs_many(self, z):
        # extended-precision points stay extended (extract_coefficients)
        z = np.asarray(z)
        return _series_pair(z.astype(np.result_type(z, complex), copy=False),
                            self._dh, self._dg)

    def taylor(self, rho):
        return self.analytic_coeffs, self._g, 0.0

    def scaled(self, c):
        return SeriesHarmonicMap(c * self.analytic_coeffs,
                                 np.conj(c) * self.antianalytic_coeffs)

    def rotated(self, alpha):
        w = np.exp(1j * alpha)
        a, b = self.analytic_coeffs, self.antianalytic_coeffs
        return SeriesHarmonicMap(a * w ** np.arange(a.size),
                                 b * w ** np.arange(1, b.size + 1))


# the outputs of derivs_many, h' and conj(g'), as level indices (see
# PoissonHarmonicMap._certificate)
_DERIV_OUTPUTS = ((2,), (3,))


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
    pointwise comparison alone gives, bit for bit.  MAX_PANELS is
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
    MAX_PANELS = 1 << 18

    def __init__(self, scale, phi, *, kernel_tol=1e-10):
        self.scale = checked_real("scale", scale, 0.0, math.inf,
                                  error=MapSpecError)
        _refuse_overflow("Poisson", self.scale, 4.0 / math.pi * self.scale
                         / (1.0 - self.DERIV_RADIUS ** 2))
        self.phi = phi
        self.kernel_tol = checked_real("kernel_tol", kernel_tol, 0.0,
                                       math.inf, error=MapSpecError)
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
            for a in got:  # shared by every caller, taylor's included
                a.flags.writeable = False
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

    def _bound(self, n, outputs, rho):
        """Per output, the certificate's bound on |delta| over |z| <= rho,
        with rho rounded up by 4u: |z| <= rho (1 + 4u) even where abs()
        rounded max |z| down."""
        w = self._certificate(n, outputs)
        rho_up = rho * (1.0 + 4.0 * _UNIT_ROUNDOFF)
        return w @ rho_up ** np.arange(w.shape[1])

    def _converged(self, z, rho, outputs, series):
        """series(z, level) of the first 2n-node level that agrees with
        the n-node one to kernel_tol * scale at every point; ``rho`` is
        max |z| and ``outputs`` says which level arrays series reads (see
        _certificate)."""
        tol = self.kernel_tol * self.scale
        n = self._START_NODES
        prev = None
        while 2 * n <= self.MAX_PANELS:
            if np.all(self._bound(n, outputs, rho) <= tol):
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
            f"{tol} within {self.MAX_PANELS} nodes "
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
        return self._converged(z, rho, _DERIV_OUTPUTS,
                               lambda z, lv: _series_pair(z, lv[2], lv[3]))

    def taylor(self, rho):
        """(h, g, err) of the 2n-node level of the first pair (n, 2n)
        whose derivative certificate holds at rho, the one derivs_many
        takes for points of modulus rho; err is that certificate's
        bound.  QuadratureNonconvergence where no pair holds."""
        rho = checked_real("series radius", rho, 0.0, 1.0, "[]")
        tol = self.kernel_tol * self.scale
        n = self._START_NODES
        while 2 * n <= self.MAX_PANELS:
            bound = self._bound(n, _DERIV_OUTPUTS, rho)
            if np.all(bound <= tol):
                h, g = self._level(2 * n)[:2]
                return h, g, float(bound.max())
            n *= 2
        raise QuadratureNonconvergence(
            f"Poisson boundary series has no certified level within "
            f"{self.MAX_PANELS} nodes at |z| <= {rho} (tolerance {tol})")

    def _with(self, scale, phi):
        return PoissonHarmonicMap(scale, phi, kernel_tol=self.kernel_tol)

    def scaled(self, c):
        # c P[e^{i phi}] = |c| P[e^{i (phi + arg c)}]
        turn, phi = cmath.phase(c), self.phi
        return self._with(abs(c) * self.scale, lambda t: phi(t) + turn)

    def rotated(self, alpha):
        # P(e^{i alpha} z, t) = P(z, t - alpha); substitute s = t - alpha
        phi = self.phi
        return self._with(self.scale, lambda t: phi(t + alpha))


def _circle_nodes(rays):
    """Unit-circle nodes: exp(2 pi i k / n), k < n, for a count n, or
    exp(i angles) for an array of angles.  The one place circle and
    polar grids get their nodes."""
    if np.ndim(rays):
        return np.exp(1j * np.asarray(rays, dtype=float))
    return np.exp(2j * np.pi * np.arange(rays) / rays)


# (ray, node) cells per block of _polar_blocks: a complex block stays
# strictly below 128 KiB, glibc's default mmap threshold, so its arrays
# come from the heap, not faulted in afresh per block (as _HORNER_BLOCK's)
_POLAR_BLOCK_CELLS = 1 << 13


def _polar_blocks(evaluate, radii, rays):
    """(rows, evaluate(points)) of the polar grid of rays (_circle_nodes)
    by radii, in blocks of whole rows of fewer than _POLAR_BLOCK_CELLS
    cells (one row at least).

    Each row equals the row of a whole-grid call, bit for bit, on the
    gallery: a series map evaluates every point by itself, and a Poisson
    map whose coefficient certificate holds takes its series level from
    the largest |z| of a batch, which every block holds (the largest
    radius, to within one rounding).  Where no certificate holds (a
    kinked phase), a Poisson map settles its level by comparing two
    levels on the batch's own points, so a block may stop at a lower
    level than the whole grid, within the same kernel tolerance.
    """
    e = _circle_nodes(rays)
    step = max(1, (_POLAR_BLOCK_CELLS - 1) // radii.size)
    for i in range(0, e.size, step):
        rows = slice(i, min(i + step, e.size))
        yield rows, evaluate(radii[None, :] * e[rows, None])


def _winding(m, r, fz):
    """Turns of f_z = h' about 0 on |z| = r, from its values fz on the
    nodes r _circle_nodes(n), n = fz.size.  L bounds |d/dtheta h'| there
    (from h'', m.taylor), so a cell whose larger end exceeds L 2 pi / n
    + err (the series' truncation bound) keeps h' in a disk without 0,
    and its step of arg h' is the principal angle.  While a cell is not
    certified, n doubles, up to MAX_THETA_GRID; then NotSensePreserving.
    """
    h, _, err = m.taylor(r)
    L = r * npoly.polyval(r, np.abs(npoly.polyder(h, 2)))
    while not np.all(L * TWO_PI / fz.size + err
                     < np.maximum(np.abs(fz), np.abs(np.roll(fz, -1)))):
        if 2 * fz.size > MAX_THETA_GRID:
            raise NotSensePreserving(
                f"winding of f_z about 0 on |z| = {r} not certified on "
                f"{fz.size} nodes: |f_z| falls to {np.abs(fz).min():.3e}")
        fz = m.derivs_many(r * _circle_nodes(2 * fz.size))[0]
    return round(float(np.angle(np.roll(fz, -1) / fz).sum()) / TWO_PI)


def estimate_K(m, r_max=0.999, grid=720):
    """Lower bound for the maximal dilatation from one probe circle.

    A sense-preserving map has h' != 0 (H. Lewy, Bull. AMS 42 (1936)),
    so omega = g'/h' is analytic and |omega| peaks on |z| = r_max, whose
    ``grid`` nodes are probed; refine_grid_max zooms in on |f_zb| / |f_z|
    in angle.  NotSensePreserving names the worst node where the
    jacobian is not positive, or the zeros of h' inside when f_z winds
    about 0 (_winding, the argument principle).  grid is 8 to
    MAX_THETA_GRID."""
    r_max = min(checked_real("r_max", r_max, 0.0, math.inf, "(]"),
                m.max_radius)
    grid = checked_count("grid", grid, 8, MAX_THETA_GRID)
    z = r_max * _circle_nodes(grid)
    fz, fzb = m.derivs_many(z)
    jac = jacobian(fz, fzb)
    if np.any(jac <= 0.0):
        k = int(np.argmin(jac))
        raise NotSensePreserving(f"jacobian {jac[k]:.3e} <= 0 "
                                 f"at probe z = {z[k]:.6f}")
    turns = _winding(m, r_max, fz)
    if turns:
        raise NotSensePreserving(
            f"f_z has winding number {turns} about 0 on |z| = {r_max}: "
            f"h' has {turns} zero(s) inside, so J <= 0 there")

    def omega(th):
        a, b = m.derivs_many(r_max * _circle_nodes(th))
        return np.abs(b) / np.abs(a)

    om = np.abs(fzb) / np.abs(fz)
    _, val = refine_grid_max(omega, om)
    omega_sup = max(float(np.max(om)), val)
    if omega_sup >= 1.0:
        raise NotSensePreserving(f"dilatation modulus {omega_sup} >= 1")
    K_lower = (1.0 + omega_sup) / (1.0 - omega_sup)
    return DilatationReport(omega_sup, K_lower, r_max)


def sup_modulus(m, r_max):
    """sup |f| over the circle |z| = r_max: the max over 720 angles,
    refined by refine_grid_max zooming in on |f| over arrays of angles.

    |f| is subharmonic, so this also bounds |f| on the closed disk of
    radius r_max.
    """
    r_max = checked_real("r_max", r_max, 0.0, m.max_radius, "(]",
                         PointOutsideDisk)
    vals = np.abs(m.eval_many(r_max * _circle_nodes(720)))
    _, v = refine_grid_max(
        lambda th: np.abs(m.eval_many(r_max * _circle_nodes(th))), vals)
    return max(float(vals.max()), v)


def scale_range(m, c):
    """The map z -> c * f(z) for a nonzero complex factor c."""
    if complex(c) == 0:
        raise MapSpecError("range scale factor must be nonzero")
    return m.scaled(complex(c))


def rotate_domain(m, alpha):
    """The map z -> f(e^{i alpha} z)."""
    return m.rotated(float(alpha))
