"""Length, area, Hardy-mean, and boundary-distance functionals.

Everything here is a plain function over a harmonic map or an explicit
polygonal curve.  Curve lengths are one adaptive Simpson rule over
|d/dt f(c(t))| = |f_z(c) c'(t) + f_zb(c) conj(c'(t))| (_path_length),
and so is the Hardy mean M_1, with ||Df|| in place of that speed;
radial integrals over many directions share one polar ray table
(ray_table), evaluated in blocks of rays.  The area of a full disk is
Parseval's sum over the map's power series (m.taylor), cross-checked
by a polar grid rule; the area of a lens integrates the Jacobian in
polar coordinates about its center.  Boundary objects are always
evaluated at the proxy radius r_b = effective_boundary_radius(cfg,
m.max_radius) < 1.

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
                     ValidationError, checked_count, checked_real,
                     data_lines)
from .maps import (_POLAR_BLOCK_CELLS, _circle_nodes, _polar_blocks,
                   jacobian, op_norm)
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
    """Closed polygon through complex vertices: its last side runs from
    the last vertex back to the first."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.vertices, dtype=complex).reshape(-1)
        object.__setattr__(self, "vertices", v)
        if v.size < 3:
            raise ValidationError("closed curve needs at least 3 vertices")
        if not np.all(np.isfinite(v.view(float))):
            raise ValidationError("vertices must be finite")
        # side k runs from vertex k to k + 1, the last one to vertex 0
        flat = np.abs(np.roll(v, -1) - v) == 0.0
        if flat[-1]:
            raise ValidationError(
                "the last vertex repeats the first: list each vertex once, "
                "the last side returns to the first")
        if flat.any():
            raise ValidationError("consecutive vertices must be distinct")

    def segments(self):
        """(start, end) arrays of every segment."""
        v = self.vertices
        return v, np.roll(v, -1)

    def segment_lengths(self):
        p, q = self.segments()
        return np.abs(q - p)

    def arc_prefix(self):
        """Cumulative length before each vertex (prefix[0] = 0)."""
        return np.concatenate([[0.0], np.cumsum(self.segment_lengths())])

    @classmethod
    def from_file(cls, path):
        """One 'x y' vertex per line; blank lines and # comments skipped."""
        pts = []
        for lineno, line in data_lines(path, "curve"):
            parts = line.split()
            if len(parts) != 2:
                raise ValidationError(
                    f"{path}:{lineno}: expected 'x y', got {line!r}")
            try:
                pts.append(complex(float(parts[0]), float(parts[1])))
            except ValueError:
                raise ValidationError(
                    f"{path}:{lineno}: non-numeric vertex {line!r}")
        return cls(np.array(pts))


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
    (y2 - y1) > x (_row_crossings); a crossing at xs = x does not count.
    Work is chunked to BLOCK_CELLS (point, segment) cells.  Points with
    a NaN coordinate are outside.  The result has the shape of
    ``points``.
    """
    pts = np.asarray(points, dtype=complex).reshape(-1)
    p, q = curve.segments()
    out = np.empty(pts.size, dtype=bool)
    step = max(1, BLOCK_CELLS // p.size)
    for i in range(0, pts.size, step):
        x = pts[i:i + step]
        rr, xs = _row_crossings(x.imag, p, q)
        right = np.bincount(rr[xs > x.real[rr]], minlength=x.size)
        out[i:i + x.size] = right % 2 == 1
    return out.reshape(np.shape(points))


# children per node of point_polygon_distance's tree: node sizes are
# powers of it, and the top size is the least one that covers the
# segments in at most _DIST_TOP nodes (8 nodes of 256 for 2,048).
# Fan-outs 2 and 8, and 32 top nodes, took thm4's sweep longer
_DIST_FAN = 4
_DIST_TOP = 16
# (point, node) and (point, segment) pairs per step of
# point_polygon_distance.  Its complex arrays then hold at most 124 KiB:
# below glibc's default mmap threshold of 128 KiB, so a step's arrays
# are not mapped and faulted in afresh unless a larger array freed
# earlier has raised it, and below the 256 KiB at which numpy's
# temporary elision would compute w * conj(u) of _segment_distance into
# its conj(u) operand, which rounds differently.  Steps of 4,096 pairs
# took thm4's sweep about 15% longer
_DIST_CELLS = 7936
# points per chunk of point_polygon_distance: its (point, top node)
# arrays hold at most _DIST_POINTS * _DIST_TOP cells
_DIST_POINTS = _DIST_CELLS // _DIST_TOP
# segments per (point, row) pair of a step: a larger node goes in rows
_DIST_ROW = _DIST_FAN ** 4
# below this vertex and point size, with |u|^2 > 0, every product in the
# segment formula is finite, so a segment value is never NaN there
_DIST_SAFE = 1e150


def _segment_distance(w, u, uu):
    """|w - s u| for the projection parameter s clipped to [0, 1]: the
    distance from p + w to the segment [p, p + u], uu = |u|^2."""
    s = (w * np.conj(u)).real / uu
    np.clip(s, 0.0, 1.0, out=s)
    return np.abs(w - s * u)


def _chord_levels(curve):
    """(top, levels) of point_polygon_distance's tree: levels[1] holds
    the segments (p, u, uu = |u|^2), padded to a whole number of top
    nodes with copies of the last one, and levels[size], for size =
    _DIST_FAN, _DIST_FAN^2, ..., top, the chord c0 -> c0 + cu, |cu|^2
    and sagitta of each node of that many consecutive segments; those
    only where the bounds can serve: every vertex below _DIST_SAFE and
    every |u|^2 > 0."""
    p, q = curve.segments()
    u = q - p
    uu = (u * np.conj(u)).real
    top = 1
    while -(-p.size // top) > _DIST_TOP:
        top *= _DIST_FAN
    pad = np.minimum(np.arange(-(-p.size // top) * top), p.size - 1)
    levels = {1: (p[pad], u[pad], uu[pad])}
    if not (np.abs(curve.vertices).max() < _DIST_SAFE and uu.min() > 0.0):
        return top, levels
    # vertex k of the padded ring starts segment k; the padding
    # repeats the last vertex, so each node holds its segments' ends
    ends = np.append(p, q[-1])[np.minimum(np.arange(pad.size + 1), p.size)]
    size = _DIST_FAN
    while size <= top:
        c0, c1 = ends[:-1:size], ends[size::size]
        cu = c1 - c0
        cuu = (cu * np.conj(cu)).real
        # a chord of length zero (or whose square underflows) becomes
        # the point c0, where the formula gives |x - c0|
        flat = cuu == 0.0
        cu[flat], cuu[flat] = 0.0, 1.0
        vert = np.concatenate([ends[:-1].reshape(-1, size), c1[:, None]],
                              axis=1)
        sag = _segment_distance(vert - c0[:, None], cu[:, None],
                                cuu[:, None]).max(axis=1)
        levels[size] = (c0, cu, cuu, sag)
        size *= _DIST_FAN
    return top, levels


def _node_segments(levels, x, best, rows, nodes, size):
    """best[r] = min(best[r], distance from x[r] to every segment of
    node n) for each pair (r, n) of rows and nodes of that size, in
    steps of at most _DIST_CELLS (point, segment) pairs."""
    width = min(size, _DIST_ROW)
    if width < size:
        split = size // width
        nodes = (nodes[:, None] * split + np.arange(split)).reshape(-1)
        rows = np.repeat(rows, split)
    p, u, uu = levels[1]
    span = np.arange(width)
    step = _DIST_CELLS // width
    for i in range(0, rows.size, step):
        r = np.repeat(rows[i:i + step], width)
        s = (nodes[i:i + step, None] * width + span).reshape(-1)
        np.minimum.at(best, r, _segment_distance(x[r] - p[s], u[s], uu[s]))


def _descend(levels, x, slack, ub, best, rows, nodes, size, tested):
    """Walk the kept pairs (rows, nodes) of the points x, nodes of that
    size, down the tree to the segments, writing each point's distance
    into best; ub holds each point's least upper bound so far and
    tested how many nodes it tested at this size."""
    while True:
        kept = np.bincount(rows, minlength=x.size)
        # a point that keeps more than half the nodes it tested prunes
        # too little to pay for the next level, and one whose children
        # would not fit a step cannot descend: both take the segments
        # of their kept nodes now
        done = (kept > 0.5 * tested) | (_DIST_FAN * kept > _DIST_CELLS)
        if done.any():
            on = done[rows]
            _node_segments(levels, x, best, rows[on], nodes[on], size)
            rows, nodes = rows[~on], nodes[~on]
            if not rows.size:
                return
        if size == _DIST_FAN:
            _node_segments(levels, x, best, rows, nodes, size)
            return
        if _DIST_FAN * rows.size > _DIST_CELLS:
            # halve the points until their children fit a step
            m = x.size // 2
            low = rows < m
            _descend(levels, x[:m], slack[:m], ub[:m], best[:m], rows[low],
                     nodes[low], size, tested[:m])
            _descend(levels, x[m:], slack[m:], ub[m:], best[m:],
                     rows[~low] - m, nodes[~low], size, tested[m:])
            return
        size //= _DIST_FAN
        rows = np.repeat(rows, _DIST_FAN)
        nodes = (nodes[:, None] * _DIST_FAN
                 + np.arange(_DIST_FAN)).reshape(-1)
        c0, cu, cuu, sag = levels[size]
        dc = _segment_distance(x[rows] - c0[nodes], cu[nodes], cuu[nodes])
        sag = sag[nodes]
        np.minimum.at(ub, rows, dc + sag)
        keep = ~(dc - sag > (ub + slack)[rows])
        rows, nodes = rows[keep], nodes[keep]
        tested = _DIST_FAN * kept


def point_polygon_distance(points, curve):
    """Distance from each query point to the polygon (segments, not
    just vertices), in the shape of ``points``.

    The segments form a chord-sagitta tree (D. H. Ballard, "Strip
    trees: a hierarchical representation for curves", CACM 24 (1981)
    310-321): a node of _DIST_FAN^k consecutive segments lies within
    its sagitta sag (its vertices' largest distance from the chord
    joining its ends) of that chord, and the chord within sag of the
    node, so a chord at distance dc from x puts the node between
    dc - sag and dc + sag from x.  A node whose chord has length zero
    is bounded by the disk about its first vertex instead.  A point
    tests every top node, then only the children of the nodes whose
    lower bound does not exceed, beyond a rounding slack, the least
    upper bound found so far, level by level down to the segments; a
    point that keeps more than half the nodes it tests at a level takes
    the segments of its kept nodes at once.  Every kept segment goes
    through the same per-segment formula, so the minimum over a
    superset of the argmin equals the full sweep's bit for bit.  NaN
    points keep every node; curves beyond _DIST_SAFE, or with a segment
    whose |u|^2 underflows, keep every segment.  A point with an
    infinite and no NaN coordinate is at distance inf.  Points go in
    chunks of _DIST_POINTS, and a step takes at most _DIST_CELLS (point,
    node) or (point, segment) pairs; each point's value does not depend
    on its chunk.
    """
    pts = np.asarray(points, dtype=complex).reshape(-1)
    at_inf = np.isinf(pts) & ~np.isnan(pts)
    if at_inf.any():
        # the segment formula would give them inf * 0 = NaN
        pts = np.where(at_inf, 0.0, pts)
    top, levels = _chord_levels(curve)
    ntop = levels[1][0].size // top
    # the bounds' and the segment formula's roundings are a few ulps of
    # |x - g| + R, g the vertex mean and R the farthest vertex's
    # distance from it
    g = curve.vertices.mean()
    reach = np.abs(curve.vertices - g).max()
    out = np.empty(pts.size)
    for i0 in range(0, pts.size, _DIST_POINTS):
        x = pts[i0:i0 + _DIST_POINTS]
        best = out[i0:i0 + x.size]
        best[:] = np.inf
        if len(levels) == 1:
            # no chords: at most _DIST_TOP segments, or bounds that
            # cannot serve
            rows, nodes = np.divmod(np.arange(x.size * ntop), ntop)
            _node_segments(levels, x, best, rows, nodes, top)
            continue
        slack = 1e-12 * (np.abs(x - g) + reach)
        c0, cu, cuu, sag = levels[top]
        dc = _segment_distance(x[:, None] - c0, cu, cuu)
        ub = (dc + sag).min(axis=1)
        rows, nodes = np.nonzero(~(dc - sag > (ub + slack)[:, None]))
        _descend(levels, x, slack, ub, best, rows, nodes, top,
                 np.full(x.size, np.inf))
    out[at_inf] = np.inf
    return out.reshape(np.shape(points))


# curve factories used by tests, demos, and the domain-constants module

def circle_polygon(n):
    """The regular n-gon inscribed in the unit circle."""
    t = TWO_PI * np.arange(n) / n
    return PolygonalCurve(np.exp(1j * t))


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


def u_polygon():
    """U-shaped (non-convex) polygon: a 3x3 square with a 1x2 notch cut
    downward from the middle of the top side, 8 vertices a side."""
    corners = np.array([0, 3, 3 + 3j, 2 + 3j, 2 + 1j, 1 + 1j, 1 + 3j, 3j],
                       dtype=complex)
    pts = []
    for k in range(corners.size):
        a = corners[k]
        b = corners[(k + 1) % corners.size]
        for j in range(8):
            pts.append(a + (b - a) * j / 8)
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
            a = float(a)
            width = checked_real("arc width", float(b) - a, 0.0, TWO_PI,
                                 "(]")
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
    def single(cls, alpha, beta):
        return cls(((alpha, beta),))


# ---------------------------------------------------------------------------
# curve-length functionals of a map


def _stretch(t, fz, fzb):
    """|f_z t + f_zb conj(t)|: the speed of f along the tangent t, and
    so the ray-table kernel of radial lengths."""
    s = fz * t
    # not ``fzb * np.conj(t)``: from 256 KiB numpy computes that product
    # in place in its temporary, whose loop rounds unlike a short batch's
    s += np.multiply(fzb, np.conj(t))
    return np.abs(s)


def _refuse_beyond(m, radius):
    """Refuse a path that leaves the map's derivative radius."""
    if radius > m.max_radius:
        raise QuadratureNonconvergence(
            f"radius {radius} exceeds the map's derivative radius "
            f"{m.max_radius}")


def _path_length(m, path, a, b, cfg, radius, kernel=_stretch):
    """(length, nodes) of the image of the path z(t), t in [a, b], by
    adaptive Simpson of kernel(z', f_z, f_zb), by default the speed
    |f_z z' + f_zb conj(z')|; path(t) returns (z(t), z'(t)).  The path
    stays within |z| <= radius."""
    _refuse_beyond(m, radius)

    def speed(t):
        z, dz = path(t)
        return kernel(dz, *m.derivs_many(z))

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
    r = checked_real("level-curve radius", r, 0.0, 1.0)
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


def radial_length(m, theta, r, cfg=DEFAULT_CONFIG):
    """(length, nodes) of the image of the segment [0, r e^{i theta}]
    with multiplicity.  r may reach 1 for maps whose derivatives extend
    to the closed disk (series maps)."""
    r = checked_real("radial extent", r, 0.0, 1.0, "(]")
    e = np.exp(1j * float(theta))

    def path(rho):
        return rho * e, e

    return _path_length(m, path, 0.0, r, cfg, r)


# cells (rays x nodes) of one ray table; see ray_table
MAX_RAY_CELLS = 1 << 21


def ray_table(m, rho, h, rays, kernel):
    """(thetas, cum): cum[k, i] integrates kernel(e, f_z, f_zb) over
    [0, rho[2 i]] along the ray at thetas[k], e = e^{i thetas} as a
    column, by cumulative_simpson on the nodes rho (an odd count from
    rho[0] = 0) with step h[i] on node pair i, h a scalar for a uniform
    grid.  ``rays`` is a count n, for the grid thetas = 2 pi k / n, or
    an array of angles.  f's derivatives come from the polar grid at
    rho (_polar_blocks); h may measure another variable, as for a
    rescaled map z -> f(s z) on the nodes s t, whose kernel supplies
    the factor s.

    The rays go in blocks of fewer than 2^13 cells, and only cum is
    kept: 8 bytes a ray per node pair, about 8 MiB at the cap of
    MAX_RAY_CELLS = 2^21 cells rays x nodes, plus the points,
    derivatives and kernel values of one block.  A larger table is
    refused before any evaluation.
    """
    if np.ndim(rays):
        thetas = np.asarray(rays, dtype=float)
    else:
        thetas = np.linspace(0.0, TWO_PI, int(rays), endpoint=False)
    if thetas.size * rho.size > MAX_RAY_CELLS:
        raise ValidationError(
            f"ray table of {thetas.size} rays x {rho.size} nodes exceeds "
            f"{MAX_RAY_CELLS} cells")
    e = np.exp(1j * thetas)[:, None]
    cum = np.empty((thetas.size, rho.size // 2 + 1))
    for rows, (fz, fzb) in _polar_blocks(m.derivs_many, rho, rays):
        cum[rows] = cumulative_simpson(kernel(e[rows], fz, fzb), h)
    return thetas, cum


def _radius_nodes(radii):
    """(rho, h, at): nodes and per-pair steps of sup_radial_length's ray
    table, in which radius k is node 2 at[k].  Piece [r_{k-1}, r_k] of
    the table (r_{-1} = 0) is uniform, with max(1, round(64 (r_k -
    r_{k-1}) / r_max)) node pairs, so one radius r gets
    np.linspace(0, r, 129) and the step r / 128."""
    r = np.array(radii, dtype=float)
    lo = np.concatenate(([0.0], r[:-1]))
    pairs = np.maximum(1, np.rint((r - lo) / (r[-1] / 64))).astype(int)
    step = (r - lo) / (2 * pairs)
    at = np.cumsum(pairs)
    # node k of piece i is k step_i + lo_i, its last the radius: the
    # arithmetic of np.linspace(lo_i, r_i, 2 pairs_i + 1), in one pass
    piece = np.repeat(np.arange(r.size), 2 * pairs)
    k = np.arange(1, piece.size + 1) - 2 * (at - pairs)[piece]
    rho = np.concatenate(([0.0], k * step[piece] + lo[piece]))
    rho[2 * at] = r
    return rho, np.repeat(step, pairs), at


def sup_radial_length(m, r, cfg=DEFAULT_CONFIG):
    """(theta*, sup value) of the radial length over directions; for an
    ascending sequence of radii, the list of those pairs.

    One ray table on cfg.theta_grid rays holds every radius as a node
    (_radius_nodes), where the radius reads its grid lengths, and
    refine_grid_max zooms in on the maximizer with the rows of that
    table's nodes up to the radius at explicit angles, so grid and
    refined lengths are compared under one rule.  A table past
    MAX_RAY_CELLS is refused.  The value is the adaptive radial_length
    at theta*.
    """
    radii = [checked_real("radial extent", x, 0.0, 1.0, "(]")
             for x in np.atleast_1d(r)]
    if not radii or radii != sorted(radii):
        raise ValidationError(f"radii must be nonempty and ascending: {r}")
    _refuse_beyond(m, radii[-1])
    rho, h, ends = _radius_nodes(radii)
    _, cum = ray_table(m, rho, h, cfg.theta_grid, _stretch)
    pairs = []
    for x, at in zip(radii, ends):
        def lengths(rays, at=at):
            return ray_table(m, rho[:2 * at + 1], h[:at], rays,
                             _stretch)[1][:, -1]

        theta_star, _ = refine_grid_max(lengths, cum[:, at])
        pairs.append((theta_star, radial_length(m, theta_star, x, cfg)[0]))
    return pairs if np.ndim(r) else pairs[0]


def _window_cos(aw, rho, R):
    """The circle w + rho e^{it} with |w| = aw lies in |z| <= R where
    cos(t - arg w) <= c = (R^2 - |w|^2 - rho^2) / (2 rho |w|): an arc
    about t = arg w + pi of half-width pi - acos(c), the full circle
    when c >= 1 and empty when c < -1.  Returns c."""
    return (R * R - aw * aw - rho * rho) / (2.0 * rho * aw)


def _unimodular(zeta0):
    """zeta0 as a complex, refused unless |zeta0| = 1 (NaN included)."""
    zeta0 = complex(zeta0)
    if not abs(abs(zeta0) - 1.0) <= 1e-9:
        raise ValidationError(f"crosscut center must be unimodular: {zeta0}")
    return zeta0


def crosscut_length(m, zeta0, rho, cfg=DEFAULT_CONFIG):
    """(length, nodes) of the image of the crosscut arc of radius rho
    about the boundary point zeta0, clipped to the boundary proxy
    radius."""
    zeta0 = _unimodular(zeta0)
    rho = checked_real("crosscut radius", rho, 0.0, 2.0, "(]")
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
    x.  The nodes go in blocks of whole rho-rows of fewer than
    _POLAR_BLOCK_CELLS cells, whose terms are summed exactly (_fsum).
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
    weight = drho * half * rho
    step = max(1, (_POLAR_BLOCK_CELLS - 1) // x.size)

    def block(rows):
        e = np.exp(1j * (beta + half[rows, None] * x))
        fz, fzb = m.derivs_many(w + rho[rows, None] * e)
        return kernel(e, fz, fzb) * (weight[rows, None] * wx)

    return _fsum(block(slice(i, i + step)) for i in range(0, rho.size, step))


def _fsum(blocks):
    """math.fsum of the terms of an iterable of arrays, bit for bit, from
    each array's _exact_parts in turn; inf where finite terms' exact sum
    overflows."""
    parts = [p for block in map(_exact_parts, blocks) for p in block]
    try:
        return math.fsum(parts)
    except OverflowError:
        with np.errstate(over="ignore"):
            return float(np.sum(parts))


def _exact_parts(vals):
    """Doubles whose exact sum is that of the terms of vals (M. A.
    Malcolm, CACM 14 (1971) 731-736): a term m 2^e (np.frexp) splits m
    into its multiple of 2^-27 and the rest, and np.bincount sums each
    half per exponent e, exactly under 2^26 terms; np.ldexp turns the
    totals into exact doubles.  An array holding a non-finite or
    subnormal term, an exponent above 960 or 2^26 terms or more gives
    its terms unchanged.
    """
    x = vals.ravel()
    if 0 < x.size < 1 << 26 and np.isfinite(x).all():
        m, e = np.frexp(x)
        e0 = int(e.min())
        if -1021 <= e0 and e.max() <= 960:
            hi = m * 2.0 ** 27
            np.floor(hi, out=hi)
            hi *= 2.0 ** -27
            k = e - e0
            exps = np.arange(e0, e0 + int(k.max()) + 1)
            return (np.ldexp(np.bincount(k, hi), exps).tolist()
                    + np.ldexp(np.bincount(k, m - hi), exps).tolist())
    return x.tolist()


@functools.cache
def _gauss_rule(n):
    """leggauss(n) as read-only arrays, computed once per order."""
    rule = leggauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


def _lens_integral(m, w, r, R, kernel, cfg):
    """_lens_quad with Gauss-Legendre rules of orders n x n/2, n doubling
    from _LENS_ORDER until two successive values agree; returns
    (value, gap between the last two).  QuadratureNonconvergence past
    _LENS_MAX_ORDER."""

    def value(n):
        return _lens_quad(m, w, r, R, kernel, _gauss_rule(n),
                          _gauss_rule(n // 2))

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
    r = checked_real("upper radius", r, 0.0, 2.0, "(]")
    r_clip = effective_boundary_radius(cfg, m.max_radius)
    val, gap = _lens_integral(m, zeta0, r, r_clip, _crosscut_kernel, cfg)
    rules = [(np.linspace(-1.0, 1.0, n + 1),
              simpson_weights(n) * (2.0 / (3.0 * n))) for n in (256, 128)]
    simpson = _lens_quad(m, zeta0, r, r_clip, _crosscut_kernel, *rules)
    return val, gap, abs(val - simpson)


def _disk_area(m, r_eff, cfg):
    """(area, agreement): the Jacobian integral over the full disk
    |z| < r_eff, and its gap to a polar grid rule.

    The area is Parseval's sum pi sum_k k (|a_k|^2 - |b_k|^2) r_eff^{2k}
    over the coefficients of m.taylor(r_eff) (P. Duren, Harmonic
    Mappings in the Plane, 2004); the cross-check integrates the
    Jacobian by composite Simpson on 257 radii times the trapezoid rule
    on 512 angles, its rows in blocks (_polar_blocks), keeping only each
    row's sum.  Where m.taylor certifies no series at r_eff, its
    QuadratureNonconvergence comes before any grid point is evaluated.
    """

    def weighted(c):  # k |c_k|^2 r_eff^{2k}
        k = np.arange(c.size)
        return k * (c.real ** 2 + c.imag ** 2) * (r_eff * r_eff) ** k

    h, g, _ = m.taylor(r_eff)
    area = math.pi * _fsum((weighted(h), -weighted(g)))

    n_t, n_rho = 512, 256
    rho = r_eff * np.linspace(0.0, 1.0, n_rho + 1)
    wts = simpson_weights(n_rho)
    radial = np.empty(n_t)
    for rows, (fz, fzb) in _polar_blocks(m.derivs_many, rho, n_t):
        radial[rows] = (jacobian(fz, fzb) * rho * wts).sum(axis=1)
    radial *= r_eff / n_rho / 3.0
    grid = (TWO_PI / n_t) * math.fsum(radial)
    gap = abs(area - grid)
    if not gap <= max(cfg.abs_tol * 10.0, cfg.rel_tol * abs(area)):
        raise QuadratureNonconvergence(
            f"area series and grid rule disagree: {area} vs {grid}")
    return area, gap


def image_area(m, r, cfg=DEFAULT_CONFIG, center=None):
    """(area, agreement): the Jacobian area (with multiplicity) of f
    over a region of the disk, and the gap between two values of it.

    center None: the full disk |z| < r (r = 1 clips to the boundary
    proxy radius).  center given: the region {|z - center| <= r}
    intersected with the clipped disk |z| <= R.

    A full disk (also a region containing the clipped disk) takes
    Parseval's sum over m.taylor; agreement is its gap to a 512 x 257
    polar grid rule (see _disk_area).  A lens-type region is integrated
    in polar coordinates about the center by the same doubled
    Gauss-Legendre rule as crosscut_integral (see _lens_quad), with the
    Jacobian |f_z|^2 - |f_zb|^2 as kernel; agreement is the gap between
    its last two orders.
    """
    if center is None:
        r = checked_real("disk radius", r, 0.0, 1.0, "(]")
    else:
        r = checked_real("region radius", r, 0.0, 2.0, "(]")
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


def hardy_mean(m, r, cfg=DEFAULT_CONFIG):
    """Integral mean M_1(r, ||Df||) = (1/2pi) int ||Df(r e^{it})|| dt of
    the operator norm |f_z| + |f_zb|, by _path_length's rule on the
    circle |z| = r."""
    r = checked_real("Hardy radius", r, 0.0, 1.0)
    val, _ = _path_length(m, _circle(r), 0.0, TWO_PI, cfg, r,
                          lambda dz, fz, fzb: op_norm(fz, fzb))
    return val / TWO_PI


_EXTRACT_NODES = 1 << 13
# the node-halving check rule has N/2 = 2^12 nodes, on which mode k and
# mode k + 2^12 coincide: modes 0..2^12 - 1, so a_1..a_4096, are the
# most it can tell apart
MAX_COEFFICIENTS = _EXTRACT_NODES // 2


def extract_coefficients(m, n_max, rho, cfg=DEFAULT_CONFIG):
    """Series coefficients a_0..a_n_max and b_1..b_n_max from circle
    integrals of the Wirtinger derivatives.

    n a_n and n b_n are Fourier modes of f_z and conj(f_zb) on the
    circle |z| = rho, computed with the uniform trapezoid rule on 2^13
    nodes, which is the DFT: one FFT F per function.  The rule on every
    other node (2^12 nodes) must agree within tolerance, else
    QuadratureNonconvergence; its mode k is F[k] + F[k + 2^12], so the
    check reads the aliased mode |F[k + 2^12]| of the same FFT.

    High modes are attenuated by rho^{n-1}; recovering mode n divides by
    that tiny factor, which would amplify double-precision summation
    noise past useful accuracy.  The circle nodes and the FFTs are
    therefore extended precision, and every map gets those nodes through
    ``derivs_many``: series maps evaluate on them in extended precision,
    the others round them to double.  n_max is 1 to MAX_COEFFICIENTS.
    """
    n_max = checked_count("n_max", n_max, 1, MAX_COEFFICIENTS)
    rho = checked_real("extraction radius", rho, 0.0, 1.0)
    N = _EXTRACT_NODES
    tt = (TWO_PI_LD * np.arange(N, dtype=np.longdouble)) / N
    z = np.longdouble(rho) * (np.cos(tt) + 1j * np.sin(tt))
    fz, fzb = m.derivs_many(z)
    fz, gp = fz.astype(np.clongdouble), np.conj(fzb).astype(np.clongdouble)

    n = np.arange(1, n_max + 1, dtype=np.longdouble)
    # rho^{1-n} may overflow; the check below refuses what that leaves
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.longdouble(rho) ** (np.longdouble(1.0) - n) / n
        # the full rule's modes k < n_max (row 0) and k + N/2 (row 1): the
        # rule on every other node has F[k] + F[k + N/2] in place of F[k]
        A, B = (np.fft.fft(vals).reshape(2, -1)[:, :n_max]
                / np.clongdouble(N) * scale for vals in (fz, gp))
        a, b = A[0].astype(complex), B[0].astype(complex)
        # np.max, unlike max(), keeps a NaN whichever argument holds it
        disagreement = float(np.max([np.abs(A[1]).max(), np.abs(B[1]).max()]))
    if not np.isfinite([a, b]).all():  # a coefficient beyond double
        disagreement = math.nan
    if not disagreement <= max(cfg.abs_tol * 10.0, 1e-8):
        raise QuadratureNonconvergence(
            f"coefficient extraction node-halving check failed: "
            f"{disagreement:.3e}")
    a0 = m.eval_many(np.array([0.0 + 0.0j]))[0]
    return np.concatenate([[complex(a0)], a]), b


# the boundary polygon is evaluated in one piece, so its size is capped
MAX_BOUNDARY_SAMPLES = 1 << 20


def boundary_polygon(m, samples, cfg=DEFAULT_CONFIG):
    """Polygonal approximation of the image of the proxy boundary
    circle |z| = effective_boundary_radius(cfg, m.max_radius), of 8 to
    MAX_BOUNDARY_SAMPLES vertices."""
    samples = checked_count("boundary_samples", samples, 8,
                            MAX_BOUNDARY_SAMPLES)
    rb = effective_boundary_radius(cfg, m.max_radius)
    return PolygonalCurve(m.eval_many(rb * _circle_nodes(samples)))
