"""Length, area, Hardy-mean, and boundary-distance functionals.

Everything here is a plain function over a harmonic map or an explicit
polygonal curve.  Curve lengths are one adaptive Simpson rule over
|d/dt f(c(t))| = |f_z(c) c'(t) + f_zb(c) conj(c'(t))| (_path_length);
radial integrals over many directions share one polar ray table
(ray_table); area integrals integrate the Jacobian in polar
coordinates.  Boundary objects are always evaluated at the proxy radius
r_b = effective_boundary_radius(cfg, m.max_radius) < 1.

A functional returns the evidence its value rests on together with it:
the length functionals (length, nodes), image_area (area, agreement)
and crosscut_integral (value, node_check, simpson_check).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .config import DEFAULT_CONFIG, effective_boundary_radius
from .errors import (EmptyCrosscut, QuadratureNonconvergence,
                     ValidationError)
from .maps import derivs_polar_grid, eval_circle_grid, jacobian, op_norm
from .quadrature import (adaptive_simpson, cumulative_simpson,
                         refine_grid_max, simpson_weights)

TWO_PI = 2.0 * math.pi
# 2*pi beyond double precision.  The double value drifts the extraction
# grid phase by ~2.4e-16 per turn, and the rho^{1-n} amplification in
# coefficient recovery turns that drift into ~5e-9 noise on mode 32.
TWO_PI_LD = np.longdouble("6.28318530717958647692528676655900576839")
# array cells per block of the chunked kernels
BLOCK_CELLS = 1 << 21


# ---------------------------------------------------------------------------
# explicit curves


@dataclass(frozen=True)
class PolygonalCurve:
    """Polyline through complex vertices, optionally closed."""

    vertices: np.ndarray
    closed: bool = True

    def __post_init__(self):
        v = np.ascontiguousarray(self.vertices, dtype=complex).reshape(-1)
        object.__setattr__(self, "vertices", v)
        if self.closed and v.size < 3:
            raise ValidationError("closed curve needs at least 3 vertices")
        if not self.closed and v.size < 2:
            raise ValidationError("open polyline needs at least 2 vertices")
        if not np.all(np.isfinite(v.view(float))):
            raise ValidationError("vertices must be finite")
        nxt = np.roll(v, -1) if self.closed else v[1:]
        cur = v if self.closed else v[:-1]
        if np.any(np.abs(nxt - cur) == 0.0):
            raise ValidationError("consecutive vertices must be distinct")

    def segments(self):
        """(start, end) arrays of every segment."""
        v = self.vertices
        if self.closed:
            return v, np.roll(v, -1)
        return v[:-1], v[1:]

    def segment_lengths(self):
        p, q = self.segments()
        return np.abs(q - p)

    def arc_prefix(self):
        """Cumulative length before each vertex (prefix[0] = 0)."""
        return np.concatenate([[0.0], np.cumsum(self.segment_lengths())])

    def refine(self):
        """Insert every segment midpoint (dyadic refinement)."""
        p, q = self.segments()
        mids = 0.5 * (p + q)
        out = np.empty(p.size * 2, dtype=complex)
        out[0::2] = p
        out[1::2] = mids
        if not self.closed:
            out = np.concatenate([out, [self.vertices[-1]]])
        return PolygonalCurve(out, self.closed)

    @classmethod
    def from_file(cls, path, closed=True):
        """One 'x y' vertex per line; blank lines and # comments skipped."""
        pts = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise ValidationError(
                        f"{path}:{lineno}: expected 'x y', got {line!r}")
                try:
                    pts.append(complex(float(parts[0]), float(parts[1])))
                except ValueError:
                    raise ValidationError(
                        f"{path}:{lineno}: non-numeric vertex {line!r}")
        return cls(np.array(pts), closed=closed)


def polygonal_length(curve):
    return float(math.fsum(curve.segment_lengths()))


def curve_diameter(curve):
    """Max pairwise vertex distance (chunked O(n^2) scan)."""
    v = curve.vertices
    best = 0.0
    step = max(1, BLOCK_CELLS // max(1, v.size))
    for i in range(0, v.size, step):
        d = np.abs(v[i:i + step, None] - v[None, :])
        best = max(best, float(d.max()))
    return best


def shoelace_area(curve):
    """Signed-area magnitude of a closed polygon."""
    if not curve.closed:
        raise ValidationError("area needs a closed curve")
    p, q = curve.segments()
    cross = p.real * q.imag - p.imag * q.real
    return abs(float(math.fsum(cross))) * 0.5


def is_self_intersecting(curve):
    """True when any two non-adjacent segments properly cross."""
    p, q = curve.segments()
    n = p.size

    def orient(a, b, c):
        return ((b.real - a.real) * (c.imag - a.imag)
                - (b.imag - a.imag) * (c.real - a.real))

    step = max(1, (1 << 20) // max(1, n))
    idx = np.arange(n)
    for i0 in range(0, n, step):
        sl = slice(i0, min(i0 + step, n))
        a = p[sl, None]
        b = q[sl, None]
        c = p[None, :]
        d = q[None, :]
        d1 = orient(a, b, c)
        d2 = orient(a, b, d)
        d3 = orient(c, d, a)
        d4 = orient(c, d, b)
        proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
        # adjacency (shared endpoints) never counts as a crossing
        ii = idx[sl, None]
        jj = idx[None, :]
        gap = np.minimum((ii - jj) % n, (jj - ii) % n) if curve.closed \
            else np.abs(ii - jj)
        proper &= gap > 1
        if np.any(proper):
            return True
    return False


def _row_crossings(y, p, q):
    """(line, abscissa) of every crossing of the segments p -> q with
    the horizontal lines of ordinates y.

    A segment crosses a line when exactly one of its ends lies at or
    below it, at x1 + (y - y1)(x2 - x1) / (y2 - y1); a NaN abscissa
    becomes -inf, never to the right of a point.  The one copy of the
    crossing rule, shared by every even-odd containment test.
    """
    x1, y1 = p.real, p.imag
    rr, ss = np.nonzero((y1 <= y[:, None]) != (q.imag <= y[:, None]))
    xs = x1[ss] + (y[rr] - y1[ss]) * (q.real[ss] - x1[ss]) / (
        q.imag[ss] - y1[ss])
    xs[np.isnan(xs)] = -np.inf
    return rr, xs


def points_in_polygon(points, curve):
    """Even-odd crossing test.

    A point (x, y) is inside when an odd number of segments straddle
    the line of ordinate y and cross it at xs = x1 + (y - y1)(x2 - x1) /
    (y2 - y1) > x.  The crossings depend only on y, so they are computed
    once per distinct ordinate (a raster row shares one set); each point
    then counts the crossings of its row to its right by one sort of
    crossings and points together, with a crossing placed before a point
    of equal abscissa so that ties do not count.  Work is chunked to
    2^21 (ordinate, segment) cells.  Points with a NaN coordinate are
    outside.
    """
    if not curve.closed:
        raise ValidationError("containment needs a closed curve")
    pts = np.asarray(points, dtype=complex).reshape(-1)
    p, q = curve.segments()
    levels, row = np.unique(pts.imag, return_inverse=True)
    by_row = np.argsort(row, kind="stable")
    row_sorted = row[by_row]
    out = np.empty(pts.size, dtype=bool)
    step = max(1, BLOCK_CELLS // max(1, p.size))
    for r0 in range(0, levels.size, step):
        y = levels[r0:r0 + step]
        rr, xs = _row_crossings(y, p, q)
        lo, hi = np.searchsorted(row_sorted, [r0, r0 + y.size])
        sel = by_row[lo:hi]
        # one sort of crossings and points by (row, abscissa, kind),
        # crossings first among equal abscissae
        rows = np.concatenate([rr, row[sel] - r0])
        is_pt = np.repeat([False, True], [rr.size, sel.size])
        order = np.lexsort((is_pt, np.concatenate([xs, pts.real[sel]]),
                            rows))
        seen = np.cumsum(~is_pt[order])
        row_end = np.cumsum(np.bincount(rr, minlength=y.size))
        at = order >= rr.size
        right = row_end[rows[order[at]]] - seen[at]
        out[sel[order[at] - rr.size]] = right % 2 == 1
    return out


# consecutive segments per block of the pruned distance search
_DIST_BLOCK = 16
# below this vertex and point size, with |u|^2 > 0, every product in the
# segment formula is finite, so a segment value is never NaN there
_DIST_SAFE = 1e150


def _segment_distance(w, u, uu):
    """|w - s u| for the projection parameter s clipped to [0, 1]: the
    distance from p + w to the segment [p, p + u], uu = |u|^2."""
    s = (w * np.conj(u)).real / uu
    np.clip(s, 0.0, 1.0, out=s)
    return np.abs(w - s * u)


def point_polygon_distance(points, curve):
    """Distance from each query point to the polyline (segments, not
    just vertices).

    A block of _DIST_BLOCK segments is at least |x - c| - rho from x (c
    the mean of its vertices, rho the farthest one's distance).  Blocks
    whose bound exceeds, beyond a rounding slack, the distance to the
    nearest block's first segment are skipped; the rest go through the
    same per-segment formula, so the minimum over a superset of the
    argmin equals the full sweep's bit for bit.  NaN points and curves
    beyond _DIST_SAFE keep every block.  A point with an infinite and
    no NaN coordinate is at distance inf.
    """
    pts = np.asarray(points, dtype=complex).reshape(-1)
    at_inf = np.isinf(pts) & ~np.isnan(pts)
    if at_inf.any():
        # the segment formula would give them inf * 0 = NaN
        pts = np.where(at_inf, 0.0, pts)
    p, q = curve.segments()
    u = q - p
    uu = (u * np.conj(u)).real
    nb = -(-p.size // _DIST_BLOCK)
    # pad the last block with copies of the final segment
    pad = np.minimum(np.arange(nb * _DIST_BLOCK), p.size - 1)
    P, U, UU = (a[pad].reshape(nb, _DIST_BLOCK) for a in (p, u, uu))
    vert = np.concatenate([P, q[pad[_DIST_BLOCK - 1::_DIST_BLOCK], None]],
                          axis=1)
    center = vert.mean(axis=1)
    radius = np.abs(vert - center[:, None]).max(axis=1)
    # contiguous copies, so that numpy runs the same loops on them as on
    # the candidate arrays
    P0, U0, UU0 = P[:, 0].copy(), U[:, 0].copy(), UU[:, 0].copy()
    prune = bool(np.abs(curve.vertices).max() < _DIST_SAFE
                 and uu.min() > 0.0)
    out = np.empty(pts.size)
    step = max(1, BLOCK_CELLS // (nb * _DIST_BLOCK))
    for i0 in range(0, pts.size, step):
        x = pts[i0:i0 + step]
        ub = _segment_distance(x[:, None] - P0[None, :], U0[None, :],
                               UU0[None, :]).min(axis=1)
        if prune:
            far = np.abs(x[:, None] - center[None, :])
            keep = ~(far - radius > ub[:, None] + 1e-12 * (far + radius))
        else:
            keep = np.ones((x.size, nb), dtype=bool)
        rows, blocks = np.nonzero(keep)
        d = _segment_distance(x.take(rows)[:, None] - P.take(blocks, 0),
                              U.take(blocks, 0), UU.take(blocks, 0))
        # one reduction per point over its candidate rows of d; a point
        # without candidates (none occur: the block giving ub passes its
        # bound) keeps ub instead of shifting the later points' rows
        counts = np.bincount(rows, minlength=x.size)
        has = counts > 0
        first = (np.cumsum(counts) - counts)[has] * _DIST_BLOCK
        ub[has] = np.minimum.reduceat(d.reshape(-1), first)
        out[i0:i0 + x.size] = ub
    out[at_inf] = np.inf
    return out


# curve factories used by tests, demos, and the domain-constants module

def circle_polygon(n, radius=1.0, center=0.0):
    t = TWO_PI * np.arange(n) / n
    return PolygonalCurve(center + radius * np.exp(1j * t))


def square_polygon():
    """The square with vertices (±1 ± i), side 2, perimeter 8."""
    return PolygonalCurve(np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]))


def rectangle_polygon(width, height, per_side=1):
    """Axis-aligned rectangle centered at 0, optionally with subdivided
    sides."""
    w, h = width / 2.0, height / 2.0
    corners = [w + 1j * h, -w + 1j * h, -w - 1j * h, w - 1j * h]
    pts = []
    for k in range(4):
        a, b = corners[k], corners[(k + 1) % 4]
        for j in range(per_side):
            pts.append(a + (b - a) * j / per_side)
    return PolygonalCurve(np.array(pts))


def ellipse_polygon(a, b, n):
    t = TWO_PI * np.arange(n) / n
    return PolygonalCurve(a * np.cos(t) + 1j * b * np.sin(t))


def u_polygon(per_side=8):
    """U-shaped (non-convex) polygon: a 3x3 square with a 1x2 notch cut
    downward from the middle of the top side."""
    corners = np.array([0, 3, 3 + 3j, 2 + 3j, 2 + 1j, 1 + 1j, 1 + 3j, 3j],
                       dtype=complex)
    pts = []
    for k in range(corners.size):
        a = corners[k]
        b = corners[(k + 1) % corners.size]
        for j in range(per_side):
            pts.append(a + (b - a) * j / per_side)
    return PolygonalCurve(np.array(pts))


# ---------------------------------------------------------------------------
# arc sets on the unit circle


@dataclass(frozen=True)
class ArcSet:
    """Finite union of disjoint closed arcs [alpha_i, beta_i] of the
    circle, angles normalized into [0, 2 pi)."""

    arcs: tuple = field(default_factory=tuple)

    def __post_init__(self):
        norm = []
        for a, b in self.arcs:
            a, b = float(a), float(b)
            width = b - a
            if not 0.0 < width <= TWO_PI:
                raise ValidationError(
                    f"arc [{a}, {b}] must have width in (0, 2 pi]")
            a = a % TWO_PI
            norm.append((a, a + width))
        if not norm:
            raise ValidationError("arc set must be nonempty")
        norm.sort()
        for (_, b1), (a2, _) in zip(norm, norm[1:]):
            if a2 < b1 - 1e-12:
                raise ValidationError("arcs must be pairwise disjoint")
        # last arc may spill past 2 pi into the first one
        if len(norm) > 1 and norm[-1][1] - TWO_PI > norm[0][0] + 1e-12:
            raise ValidationError("arcs must be pairwise disjoint")
        total = math.fsum(b - a for a, b in norm)
        if total > TWO_PI + 1e-12:
            raise ValidationError("total arc measure exceeds 2 pi")
        object.__setattr__(self, "arcs", tuple(norm))

    @property
    def total_measure(self):
        return math.fsum(b - a for a, b in self.arcs)

    @classmethod
    def full(cls):
        return cls(((0.0, TWO_PI),))

    @classmethod
    def single(cls, alpha, beta):
        return cls(((alpha, beta),))


# ---------------------------------------------------------------------------
# curve-length functionals of a map


def _stretch(t, fz, fzb):
    """|f_z t + f_zb conj(t)|: the speed of f along the tangent t, and
    so the ray-table kernel of radial lengths."""
    return np.abs(fz * t + fzb * np.conj(t))


def _refuse_beyond(m, radius):
    """Refuse a path that leaves the map's derivative radius."""
    if radius > m.max_radius:
        raise QuadratureNonconvergence(
            f"radius {radius} exceeds the map's derivative radius "
            f"{m.max_radius}")


def _path_length(m, path, a, b, cfg, radius):
    """(length, nodes) of the image of the path z(t), t in [a, b], by
    adaptive Simpson of |f_z z' + f_zb conj(z')|; path(t) returns
    (z(t), z'(t)).  The path stays within |z| <= radius."""
    _refuse_beyond(m, radius)

    def speed(t):
        z, dz = path(t)
        return _stretch(dz, *m.derivs_many(z))

    return adaptive_simpson(speed, a, b, abs_tol=cfg.abs_tol,
                            rel_tol=cfg.rel_tol)


def _circle(r):
    """The path t -> r e^{it} and its derivative i r e^{it}."""

    def path(t):
        z = r * np.exp(1j * t)
        return z, 1j * z

    return path


def level_curve_length(m, r, cfg=DEFAULT_CONFIG):
    """(length, nodes) of the image of the circle |z| = r."""
    r = float(r)
    if not 0.0 < r < 1.0:
        raise ValidationError(f"level-curve radius must be in (0,1), got {r}")
    return _path_length(m, _circle(r), 0.0, TWO_PI, cfg, r)


def boundary_image_length(m, E, cfg=DEFAULT_CONFIG):
    """(length, nodes): the length (with multiplicity) of f over the arc
    set E, evaluated at the boundary proxy radius
    effective_boundary_radius(cfg, m.max_radius); nodes over all arcs."""
    rb = effective_boundary_radius(cfg, m.max_radius)
    total, nodes = 0.0, 0
    for a, b in E.arcs:
        val, n = _path_length(m, _circle(rb), a, b, cfg, rb)
        total += val
        nodes += n
    return total, nodes


def _radial_extent(r):
    """r as a float, refused unless 0 < r <= 1 (NaN included)."""
    r = float(r)
    if not 0.0 < r <= 1.0:
        raise ValidationError(f"radial extent must be in (0,1], got {r}")
    return r


def radial_length(m, theta, r, cfg=DEFAULT_CONFIG):
    """(length, nodes) of the image of the segment [0, r e^{i theta}]
    with multiplicity.  r may reach 1 for maps whose derivatives extend
    to the closed disk (series, affine)."""
    r = _radial_extent(r)
    e = np.exp(1j * float(theta))

    def path(rho):
        return rho * e, e

    return _path_length(m, path, 0.0, r, cfg, r)


# cells (rays x nodes) of one ray table; see ray_table
MAX_RAY_CELLS = 1 << 21


def ray_table(m, r, panels, n_theta, kernel, scale=1.0):
    """(thetas, rho, cum): cum[k, i] integrates kernel(e, f_z, f_zb)
    over [0, rho[2 i]] along the ray at thetas[k] = 2 pi k / n_theta,
    e = e^{i thetas} as a column, by cumulative_simpson on the nodes
    rho = j r / panels, j = 0..panels (panels even).  f's derivatives
    come from one derivs_polar_grid call at scale * rho, so a kernel for
    z -> f(scale z) supplies the factor scale itself.

    Memory budget: 256 MiB.  tracemalloc peaks were 48-80 bytes a cell
    (point, derivative pair, kernel temporaries) on the gallery maps and
    120 on a kinked Poisson phase, whose failed certificate keeps a
    second level; at 128 bytes a cell that admits MAX_RAY_CELLS = 2^21
    cells n_theta (panels + 1), and a larger table is refused before
    any evaluation.
    """
    n_theta, panels = int(n_theta), int(panels)
    if n_theta * (panels + 1) > MAX_RAY_CELLS:
        raise ValidationError(
            f"ray table of {n_theta} rays x {panels + 1} nodes exceeds "
            f"{MAX_RAY_CELLS} cells")
    thetas = np.linspace(0.0, TWO_PI, n_theta, endpoint=False)
    rho = np.linspace(0.0, r, panels + 1)
    fz, fzb = derivs_polar_grid(m, scale * rho, n_theta)
    vals = kernel(np.exp(1j * thetas)[:, None], fz, fzb)
    return thetas, rho, cumulative_simpson(vals, r / panels)


def sup_radial_length(m, r, cfg=DEFAULT_CONFIG):
    """(theta*, sup value) of the radial length over directions.

    The ray table's lengths on cfg.theta_grid rays of 128 panels locate
    the maximizer; golden-section refinement with the adaptive integral
    sharpens it.
    """
    r = _radial_extent(r)
    _refuse_beyond(m, r)
    thetas, _, cum = ray_table(m, r, 128, cfg.theta_grid, _stretch)

    def ray(th):
        return radial_length(m, th, r, cfg)[0]

    theta_star, _ = refine_grid_max(ray, thetas, cum[:, -1], wrap=TWO_PI)
    # re-evaluate adaptively so grid and refined values share one rule
    return float(theta_star), ray(theta_star)


def _window_cos(aw, rho, R):
    """The circle w + rho e^{it} with |w| = aw lies in |z| <= R where
    cos(t - arg w) <= c = (R^2 - |w|^2 - rho^2) / (2 rho |w|): an arc
    about t = arg w + pi of half-width pi - acos(c), the full circle
    when c >= 1 and empty when c < -1.  Returns c."""
    return (R * R - aw * aw - rho * rho) / (2.0 * rho * aw)


def _unimodular(zeta0, what="crosscut center"):
    """zeta0 as a complex, refused unless |zeta0| = 1 (NaN included)."""
    zeta0 = complex(zeta0)
    if not abs(abs(zeta0) - 1.0) <= 1e-9:
        raise ValidationError(f"{what} must be unimodular: {zeta0}")
    return zeta0


def _upper_radius(r):
    """r as a float, refused unless 0 < r <= 2 (NaN included)."""
    r = float(r)
    if not 0.0 < r <= 2.0:
        raise ValidationError(f"upper radius must be in (0,2], got {r}")
    return r


def crosscut_length(m, zeta0, rho, cfg=DEFAULT_CONFIG):
    """(length, nodes) of the image of the crosscut arc of radius rho
    about the boundary point zeta0, clipped to the boundary proxy
    radius."""
    zeta0 = _unimodular(zeta0)
    rho = float(rho)
    if not 0.0 < rho <= 2.0:
        raise ValidationError(f"crosscut radius must be in (0,2], got {rho}")
    r_clip = effective_boundary_radius(cfg, m.max_radius)
    c = _window_cos(1.0, rho, r_clip)
    if not c > -1.0:
        raise EmptyCrosscut(
            f"crosscut of radius {rho} about {zeta0} misses |z| < {r_clip}")
    half = math.pi - math.acos(min(c, 1.0))
    center = math.atan2(zeta0.imag, zeta0.real) + math.pi

    def path(t):
        w = rho * np.exp(1j * t)
        return zeta0 + w, 1j * w

    return _path_length(m, path, center - half, center + half, cfg, r_clip)


# radial Gauss-Legendre order of the lens rule, first and largest; the
# angular order is half of it
_LENS_ORDER = 64
_LENS_MAX_ORDER = 512


def _lens_quad(m, w, r, R, kernel, rule_rho, rule_t):
    """One tensor-rule value of the integral of kernel(e^{it}, f_z, f_zb)
    rho over {|z - w| <= r} and |z| <= R, z = w + rho e^{it}, w != 0.

    rho splits at |R - |w||: below it lie full circles (when |w| < R),
    above it arcs up to min(r, R + |w|).  On each piece rho = lo +
    (hi - lo) sin^2(v), v in [0, pi/2], which smooths the square-root
    edges where an arc closes into a circle or shrinks to a point; the
    arc at rho is t = arg w + pi + half(rho) x, x in [-1, 1].  rule_rho
    and rule_t are (nodes, weights) on [-1, 1] for u = 4 v / pi - 1 and
    x.  All nodes go to one derivs_many call.
    """
    aw = abs(w)
    lo, hi = abs(R - aw), min(r, R + aw)
    pieces = [(0.0, min(r, lo))] if aw < R else []
    if hi > lo:
        pieces.append((lo, hi))
    if not pieces:
        return 0.0
    (u, wu), (x, wx) = rule_rho, rule_t
    v = 0.25 * math.pi * (1.0 + u)
    rho = np.concatenate([a + (b - a) * np.sin(v) ** 2 for a, b in pieces])
    drho = np.concatenate([(0.25 * math.pi * (b - a)) * np.sin(2.0 * v) * wu
                           for a, b in pieces])
    half = math.pi - np.arccos(np.clip(_window_cos(aw, rho, R), -1.0, 1.0))
    beta = math.atan2(w.imag, w.real) + math.pi
    e = np.exp(1j * (beta + half[:, None] * x[None, :]))
    fz, fzb = m.derivs_many(w + rho[:, None] * e)
    vals = kernel(e, fz, fzb) * ((drho * half * rho)[:, None] * wx[None, :])
    try:
        return math.fsum(vals.ravel().tolist())
    except OverflowError:  # finite terms whose exact sum overflows
        return float(vals.sum())


def _lens_integral(m, w, r, R, kernel, cfg):
    """_lens_quad with Gauss-Legendre rules of orders n x n/2, n doubling
    from _LENS_ORDER until two successive values agree; returns
    (value, gap between the last two).  QuadratureNonconvergence past
    _LENS_MAX_ORDER."""

    def value(n):
        return _lens_quad(m, w, r, R, kernel, leggauss(n), leggauss(n // 2))

    n = 2 * _LENS_ORDER
    prev, val = value(_LENS_ORDER), value(n)
    gap = abs(val - prev)
    while not gap <= max(cfg.abs_tol * 10.0, cfg.rel_tol * abs(val)):
        if n >= _LENS_MAX_ORDER:
            raise QuadratureNonconvergence(
                f"lens rule did not stabilize by order {n}: {prev} vs {val}")
        n *= 2
        prev, val = val, value(n)
        gap = abs(val - prev)
    return val, gap


def _crosscut_kernel(e, fz, fzb):
    return _stretch(1j * e, fz, fzb)


def _jacobian_kernel(e, fz, fzb):
    return jacobian(fz, fzb)


def crosscut_integral(m, zeta0, r, cfg=DEFAULT_CONFIG):
    """(value, node_check, simpson_check): the integral over rho in
    (0, r] of the crosscut image length, and its two cross-checks.

    This is the integral of |d/dt f(zeta0 + rho e^{it})| over the lens
    {|z - zeta0| <= r} and |z| <= r_clip in polar coordinates about
    zeta0 (see _lens_quad), by the doubled Gauss-Legendre rule.
    Crosscuts with rho < 1 - r_clip lie outside the clipped disk and
    contribute zero.  node_check is the doubled-rule gap, simpson_check
    the distance to a composite Simpson rule of 256 x 128 panels on the
    same substituted domain.
    """
    zeta0 = _unimodular(zeta0)
    r = _upper_radius(r)
    r_clip = effective_boundary_radius(cfg, m.max_radius)
    val, gap = _lens_integral(m, zeta0, r, r_clip, _crosscut_kernel, cfg)
    rules = [(np.linspace(-1.0, 1.0, n + 1),
              simpson_weights(n) * (2.0 / (3.0 * n))) for n in (256, 128)]
    simpson = _lens_quad(m, zeta0, r, r_clip, _crosscut_kernel, *rules)
    return val, gap, abs(val - simpson)


def _disk_area(m, r_eff, cfg):
    """(area, agreement): the Jacobian integral over the full disk
    |z| < r_eff on the polar product grid, and its gap to the grid of
    half the resolution."""

    def value(n_t, n_rho):
        rho = r_eff * np.linspace(0.0, 1.0, n_rho + 1)
        jac = jacobian(*derivs_polar_grid(m, rho, n_t))
        wts = simpson_weights(n_rho)
        radial = (r_eff / n_rho / 3.0) * (jac * rho * wts).sum(axis=1)
        return (TWO_PI / n_t) * float(math.fsum(radial))

    a1 = value(512, 256)
    a2 = value(1024, 512)
    if not abs(a2 - a1) <= max(cfg.abs_tol * 10.0, cfg.rel_tol * abs(a2)):
        raise QuadratureNonconvergence(
            f"area rule did not stabilize: {a1} vs {a2}")
    return a2, abs(a2 - a1)


def image_area(m, r, cfg=DEFAULT_CONFIG, center=None):
    """(area, agreement): the Jacobian area (with multiplicity) of f
    over a region of the disk, and the gap between the rule and its
    doubled resolution.

    center None: the full disk |z| < r (r = 1 clips to the boundary
    proxy radius).  center given: the region {|z - center| <= r}
    intersected with the clipped disk |z| <= R.

    The lens-type region is integrated in polar coordinates about the
    center by the same doubled Gauss-Legendre rule as crosscut_integral
    (see _lens_quad), with the Jacobian |f_z|^2 - |f_zb|^2 as kernel.
    """
    r = float(r)
    if center is None and not 0.0 < r <= 1.0:
        raise ValidationError(f"disk radius must be in (0,1], got {r}")
    if center is not None and not 0.0 < r <= 2.0:
        raise ValidationError(f"region radius must be in (0,2], got {r}")
    R = effective_boundary_radius(cfg, m.max_radius)
    w = 0.0 if center is None else complex(center)
    aw = abs(w)
    if aw < 1e-12:
        return _disk_area(m, min(r, R), cfg)
    if aw - r >= R:
        # the region misses the clipped disk entirely
        return 0.0, 0.0
    if r - aw >= R:
        # the region contains the clipped disk
        return _disk_area(m, R, cfg)
    return _lens_integral(m, w, r, R, _jacobian_kernel, cfg)


def hardy_mean(m, p, r, cfg=DEFAULT_CONFIG):
    """Integral mean M_p(r, ||Df||) = [(1/2pi) int ||Df(r e^{it})||^p
    dt]^{1/p} of the operator norm |f_z| + |f_zb|."""
    p = float(p)
    r = float(r)
    if p <= 0.0:
        raise ValidationError(f"Hardy exponent must be positive, got {p}")
    if not 0.0 < r < 1.0:
        raise ValidationError(f"Hardy radius must be in (0,1), got {r}")

    def g(t):
        return op_norm(*m.derivs_many(r * np.exp(1j * t))) ** p

    val, _ = adaptive_simpson(g, 0.0, TWO_PI, abs_tol=cfg.abs_tol,
                              rel_tol=cfg.rel_tol)
    return (val / TWO_PI) ** (1.0 / p)


_EXTRACT_NODES = 1 << 13


@functools.cache
def _roots_of_unity():
    """e^{-2 pi i j / N}, j < N = _EXTRACT_NODES, in extended precision
    (256 KiB), computed once."""
    N = _EXTRACT_NODES
    mm = (TWO_PI_LD * np.arange(N, dtype=np.longdouble)) / N
    return np.cos(mm) - 1j * np.sin(mm)


def _mode_matrix(n_max):
    """Rows e^{-i k t_j}, k < n_max, on the 2^13-node grid, extended
    precision, gathered from the table of N-th roots of unity at
    k*j mod N, so that no trig argument exceeds one turn.  Rounding the
    products k*t_j directly leaves a smooth phase error whose high
    modes survive the rho^{1-n} amplification in the caller."""
    N = _EXTRACT_NODES
    idx = np.multiply.outer(np.arange(n_max), np.arange(N))
    idx %= N
    return _roots_of_unity()[idx]


def extract_coefficients(m, n_max, rho, cfg=DEFAULT_CONFIG):
    """Series coefficients a_0..a_n_max and b_1..b_n_max from circle
    integrals of the Wirtinger derivatives.

    n a_n and n b_n are Fourier modes of f_z and conj(f_zb) on the
    circle |z| = rho, computed with the uniform trapezoid rule (the DFT)
    on 2^13 nodes.  The same sums over every other node (a 2^12-node
    rule) must agree within tolerance, else QuadratureNonconvergence.

    High modes are attenuated by rho^{n-1}; recovering mode n divides by
    that tiny factor, which would amplify double-precision summation
    noise past useful accuracy.  The circle nodes and the mode sums are
    therefore extended precision, and every map gets those nodes through
    ``derivs_many``: series maps evaluate on them in extended precision,
    the others round them to double.
    """
    n_max = int(n_max)
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    rho = float(rho)
    if not 0.0 < rho < 1.0:
        raise ValidationError(f"extraction radius must be in (0,1), got {rho}")
    N = _EXTRACT_NODES
    W = _mode_matrix(n_max)
    tt = (TWO_PI_LD * np.arange(N, dtype=np.longdouble)) / N
    z = np.longdouble(rho) * (np.cos(tt) + 1j * np.sin(tt))
    fz, fzb = m.derivs_many(z)
    fz, gp = fz.astype(np.clongdouble), np.conj(fzb).astype(np.clongdouble)

    n = np.arange(1, n_max + 1, dtype=np.longdouble)
    scale = np.longdouble(rho) ** (np.longdouble(1.0) - n) / n

    def coeffs(vals, step):
        modes = (W[:, ::step] @ vals[::step]) / np.clongdouble(N // step)
        return (modes * scale).astype(complex)

    a = coeffs(fz, 1)
    b = coeffs(gp, 1)
    # np.max, unlike max(), keeps a NaN whichever argument holds it
    disagreement = float(np.max([np.abs(a - coeffs(fz, 2)).max(),
                                 np.abs(b - coeffs(gp, 2)).max()]))
    if not disagreement <= max(cfg.abs_tol * 10.0, 1e-8):
        raise QuadratureNonconvergence(
            f"coefficient extraction node-halving check failed: "
            f"{disagreement:.3e}")
    a0 = m.eval_many(np.array([0.0 + 0.0j]))[0]
    return np.concatenate([[complex(a0)], a]), b


# the boundary polygon is evaluated in one piece, so its size is capped
MAX_BOUNDARY_SAMPLES = 1 << 20


def boundary_sample_count(samples):
    """The vertex count of a boundary polygon, refused outside
    [8, MAX_BOUNDARY_SAMPLES]."""
    samples = int(samples)
    if samples < 8:
        raise ValidationError("boundary polygon needs at least 8 samples")
    if samples > MAX_BOUNDARY_SAMPLES:
        raise ValidationError(f"boundary polygon takes at most "
                              f"{MAX_BOUNDARY_SAMPLES} samples, got {samples}")
    return samples


def boundary_polygon(m, samples, cfg=DEFAULT_CONFIG):
    """Polygonal approximation of the image of the proxy boundary
    circle |z| = effective_boundary_radius(cfg, m.max_radius)."""
    samples = boundary_sample_count(samples)
    rb = effective_boundary_radius(cfg, m.max_radius)
    return PolygonalCurve(eval_circle_grid(m, rb, samples))


def distance_to_boundary(m, w, boundary_samples=2048, cfg=DEFAULT_CONFIG):
    """Distance from w to the polygonal image of the proxy boundary."""
    poly = boundary_polygon(m, boundary_samples, cfg)
    return float(point_polygon_distance(np.array([complex(w)]), poly)[0])
