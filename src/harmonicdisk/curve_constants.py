"""Empirical geometric constants of closed curves.

Four classical constants, each estimated as a supremum over a finite,
deterministic probe set and therefore a LOWER bound of the true value:

    lavrentiev  sup (shorter-arc length) / chord   over vertex pairs
    quasicircle sup (shorter-arc diameter) / chord over the same pairs
    ahlfors     sup len(curve inside D(w, r)) / r  over centers and radii
    linear_conn sup (min connecting diameter) / distance over interior
                point pairs, rasterized

Pair probes are exhaustive for small polygons; larger ones consume a
fixed prefix sequence (antipodal lag first, then adjacent, then a
seeded shuffle of the remaining lags), so growing the sample count
never shrinks a constant.

Arc lengths and arc diameters are exact for every probed pair, so the
Lavrentiev and quasicircle constants are the exact maxima over the
probe set.  The diameters come from one pass of a window recurrence:
O(n * W_max) time and O(n) working memory for an n-gon, where W_max is
the largest vertex count of a probed shorter arc.

The connectivity bisection is exact for its raster: a step below the
larger endpoint-cell distance L is infeasible and one at or above the
largest distance U along a straight raster path is feasible, so only
steps in [L, U) label a mask, cropped to the box of cells within the
step of both endpoints.  Convex regions need almost no labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PathNotFound, ValidationError
from .geometry import points_in_polygon

_EXHAUSTIVE_LIMIT = 1024
_CHORD_EPS = 1e-12
# raster cells per containment call
_RASTER_BLOCK = 1 << 15


@dataclass(frozen=True)
class CurveConstantsReport:
    lavrentiev_M: float
    quasicircle_M: float
    ahlfors_M: float
    linear_conn_M: float
    sample_counts: dict


def _pair_lags(n, seed):
    """Lag visit order: antipodal, adjacent, then a seeded shuffle."""
    head = [n // 2, 1]
    rest = [k for k in range(2, n // 2 + 1) if k not in head]
    rng = np.random.default_rng(seed)
    rng.shuffle(rest)
    return [k for k in head if 1 <= k <= n // 2] + rest


def sample_vertex_pairs(curve, pairs, seed=0):
    """Deterministic (i, j) vertex pairs, grouped by lag.

    Returns a list of (lag, start_indices) blocks whose total count is
    min(pairs, all distinct pairs).  Exhaustive when the polygon is
    small.
    """
    n = curve.vertices.size
    total = n * (n - 1) // 2
    want = total if n <= _EXHAUSTIVE_LIMIT else min(int(pairs), total)
    blocks = []
    got = 0
    for lag in _pair_lags(n, seed):
        # lag n/2 on an even polygon pairs each i with i+n/2 twice
        count = n // 2 if (2 * lag == n) else n
        starts = np.arange(min(count, want - got))
        blocks.append((lag, starts))
        got += starts.size
        if got >= want:
            break
    return blocks, got


def _arc_ratios(curve, blocks):
    """Per-pair (shorter arc length, chord, forward?) grouped by lag."""
    v = curve.vertices
    n = v.size
    pre = curve.arc_prefix()
    total = pre[-1]
    out = []
    for lag, starts in blocks:
        i = starts
        j = (starts + lag) % n
        # forward arc length i -> i+lag, wrapping through vertex 0
        arc_f = np.mod(pre[j] - pre[i], total)
        arc_b = total - arc_f
        chord = np.abs(v[j] - v[i])
        shorter_is_fwd = arc_f <= arc_b
        shorter = np.where(shorter_is_fwd, arc_f, arc_b)
        out.append((lag, i, j, shorter, chord, shorter_is_fwd))
    return out


def lavrentiev_constant(curve, pairs=20000, seed=0, counters=None):
    """Shorter-arc length over chord, maximized over sampled pairs."""
    blocks, got = sample_vertex_pairs(curve, pairs, seed)
    best = 1.0
    skipped = 0
    for _, _, _, shorter, chord, _ in _arc_ratios(curve, blocks):
        ok = chord >= _CHORD_EPS
        skipped += int((~ok).sum())
        if np.any(ok):
            best = max(best, float((shorter[ok] / chord[ok]).max()))
    if counters is not None:
        counters["pairs"] = got
        counters["degenerate_pairs"] = skipped
    return best


def _arc_diameters(v, base, size):
    """Exact diameter of each polygonal window v[base], ...,
    v[base + size - 1] (indices mod n).

    Runs D(s, L) = max(D(s, L-1), D(s+1, L-1), |v_s - v_{s+L-1}|) over
    all n starts once, from L = 2 up to the largest requested size,
    keeping only the current row of D, and reads off each window when L
    reaches its size.  Every D is a max over the same |v_a - v_b| values
    as a pairwise scan of the window, so the result is bitwise the same.
    """
    n = v.size
    out = np.empty(base.size)
    order = np.argsort(size, kind="stable")
    w_max = int(size[order[-1]])
    # order[first[L]:first[L + 1]] are the windows of size L
    first = np.searchsorted(size[order], np.arange(w_max + 2))
    ring = np.concatenate([v, v[:w_max]])
    # one spare slot so that D(s+1, .) for s = n-1 is a plain slice
    prev = np.zeros(n + 1)
    cur = np.empty(n + 1)
    diff = np.empty(n, dtype=complex)
    dist = np.empty(n)
    for L in range(2, w_max + 1):
        np.subtract(ring[L - 1:L - 1 + n], v, out=diff)
        np.abs(diff, out=dist)
        np.maximum(prev[:n], prev[1:], out=cur[:n])
        np.maximum(cur[:n], dist, out=cur[:n])
        cur[n] = cur[0]
        prev, cur = cur, prev
        k = order[first[L]:first[L + 1]]
        out[k] = prev[base[k]]
    return out


def quasicircle_constant(curve, pairs=20000, seed=0, counters=None):
    """Shorter-arc diameter over chord, same probe pairs as the
    Lavrentiev constant.

    The diameter of each shorter arc is exact (see _arc_diameters),
    so the constant is the exact maximum over the probe set.  Time is
    O(n * W_max) and working memory O(n) besides the per-pair arrays,
    where W_max is the largest vertex count of a probed shorter arc.
    """
    blocks, got = sample_vertex_pairs(curve, pairs, seed)
    v = curve.vertices
    n = v.size
    lags, i, j, _, chord, is_fwd = zip(*_arc_ratios(curve, blocks))
    lag = np.concatenate([np.full(s.size, k) for k, s in zip(lags, i)])
    i, j, chord, is_fwd = map(np.concatenate, (i, j, chord, is_fwd))
    ok = chord >= _CHORD_EPS
    skipped = int((~ok).sum())
    best = 1.0
    if np.any(ok):
        # forward arcs run i .. i+lag, backward arcs j .. j+n-lag
        base = np.where(is_fwd, i, j)[ok]
        size = np.where(is_fwd, lag + 1, n - lag + 1)[ok]
        diam = _arc_diameters(v, base, size)
        best = max(best, float((diam / chord[ok]).max()))
    if counters is not None:
        counters["pairs"] = got
        counters["degenerate_pairs"] = skipped
    return best


_RADIUS_FRACTIONS = (1.0, 0.75, 0.5, 0.25, 0.125, 0.0625, 0.85, 0.6, 0.4,
                     0.3, 0.2, 0.15, 0.1, 0.05)


def _ahlfors_centers(curve, count):
    v = curve.vertices
    centroid = complex(v.mean())
    p, q = curve.segments()
    mids = 0.5 * (p + q)
    seq = np.concatenate([[centroid], v, mids])
    return seq[:min(count, seq.size)]


def ahlfors_constant(curve, centers=129, radii=6, counters=None):
    """Clipped curve length inside D(w, r) over r, maximized over probe
    centers and radius fractions."""
    p, q = curve.segments()
    u = q - p
    seglen = np.abs(u)
    cs = _ahlfors_centers(curve, centers)
    fracs = _RADIUS_FRACTIONS[:min(int(radii), len(_RADIUS_FRACTIONS))]
    best = 0.0
    for w in cs:
        maxdist = float(np.abs(curve.vertices - w).max())
        if maxdist < _CHORD_EPS:
            continue
        # per-segment quadratic |p + s u - w|^2 = r^2 in s
        dp = p - w
        a = (u * np.conj(u)).real
        bq = 2.0 * (dp * np.conj(u)).real
        c0 = (dp * np.conj(dp)).real
        for frac in fracs:
            r = frac * maxdist
            disc = bq * bq - 4.0 * a * (c0 - r * r)
            root = np.sqrt(np.maximum(disc, 0.0))
            s0 = np.clip((-bq - root) / (2.0 * a), 0.0, 1.0)
            s1 = np.clip((-bq + root) / (2.0 * a), 0.0, 1.0)
            inside = np.where(disc > 0.0, (s1 - s0) * seglen, 0.0)
            best = max(best, float(inside.sum()) / r)
    if counters is not None:
        counters["centers"] = len(cs)
        counters["radii"] = len(fracs)
    return best


def _raster(curve, grid):
    v = curve.vertices
    pad = 2.0 / grid
    x0, x1 = v.real.min(), v.real.max()
    y0, y1 = v.imag.min(), v.imag.max()
    span = max(x1 - x0, y1 - y0)
    x0 -= pad * span
    y0 -= pad * span
    span *= 1.0 + 4.0 / grid
    xs = x0 + (np.arange(grid) + 0.5) * span / grid
    ys = y0 + (np.arange(grid) + 0.5) * span / grid
    cells = xs + 1j * ys[:, None]
    # in row blocks: the containment test holds ~75 bytes per point
    inside = np.empty((grid, grid), dtype=bool)
    step = max(1, _RASTER_BLOCK // grid)
    for r0 in range(0, grid, step):
        rows = cells[r0:r0 + step]
        inside[r0:r0 + step] = points_in_polygon(rows.ravel(),
                                                 curve).reshape(rows.shape)
    return cells, inside, span / grid


def _nearest(centres, t):
    """Index of the first smallest |centres - t| for each t, as argmin
    over the increasing centres would give it."""
    i = np.searchsorted(centres, t)
    lo, hi = np.maximum(i - 1, 0), np.minimum(i, centres.size - 1)
    return np.where(np.abs(centres[lo] - t) <= np.abs(centres[hi] - t),
                    lo, hi)


def _cell_of(z, cells):
    """Row and column of the raster cell nearest to each point of z."""
    return _nearest(cells[:, 0].imag, z.imag), _nearest(cells[0].real, z.real)


def _sample_interior(boundary, cells, inside, point_pairs, seed):
    """2 * point_pairs seeded interior points (z, row, col), each inside
    the boundary and on an inside cell, from at most 200 * point_pairs
    uniform trials over the vertices' bounding box.

    Trials are drawn in blocks of (x, y) rows: the same doubles, in the
    same order, as drawing x then y per trial, so the sample is the one
    a trial-by-trial loop accepts.
    """
    v = boundary.vertices
    low = [v.real.min(), v.imag.min()]
    high = [v.real.max(), v.imag.max()]
    rng = np.random.default_rng(seed)
    need, budget = 2 * point_pairs, 200 * point_pairs
    pts = []
    drawn = 0
    while len(pts) < need and drawn < budget:
        k = min(2 * need, budget - drawn)
        drawn += k
        z = rng.uniform(low, high, size=(k, 2)).view(complex).ravel()
        rows, cols = _cell_of(z, cells)
        ok = points_in_polygon(z, boundary) & inside[rows, cols]
        pts += [(complex(z[i]), int(rows[i]), int(cols[i]))
                for i in np.flatnonzero(ok)[:need - len(pts)]]
    if len(pts) < need:
        raise PathNotFound(
            "could not sample enough interior points; grid too coarse "
            "or region too thin")
    return pts


def _raster_line(ra, ca, rb, cb):
    """Cells of a straight 8-connected raster path from (ra, ca) to
    (rb, cb): the longer axis steps by one, the other by its rounded
    share, in exact integer arithmetic."""
    n = max(abs(rb - ra), abs(cb - ca))
    t = np.arange(n + 1)
    if n == 0:
        return t + ra, t + ca
    return (ra + ((rb - ra) * 2 * t + n) // (2 * n),
            ca + ((cb - ca) * 2 * t + n) // (2 * n))


_EIGHT = np.ones((3, 3), dtype=int)


def _pair_diameters(cells, inside, cell, pts, diag):
    """(d, hi) for each pair (pts[2k], pts[2k+1]) at least 10 cells
    apart: d = |za - zb| and hi the bisected smallest D for which a and
    b are 8-connected through inside cells within D of both.  The
    distance buffers are allocated once and reused across pairs."""
    # imported here: scipy.ndimage is most of the package's import time
    from scipy import ndimage
    grid = inside.shape[0]
    outside = ~inside
    w = np.empty(inside.shape)
    wb = np.empty(inside.shape)
    diff = np.empty(inside.shape, dtype=complex)
    out = []
    for k in range(len(pts) // 2):
        (za, ra, ca), (zb, rb, cb) = pts[2 * k], pts[2 * k + 1]
        d = abs(za - zb)
        if d < 10.0 * cell:
            continue
        # w: the farther endpoint's distance on inside cells, inf outside
        np.abs(np.subtract(cells, za, out=diff), out=w)
        np.abs(np.subtract(cells, zb, out=diff), out=wb)
        np.maximum(w, wb, out=w)
        np.copyto(w, np.inf, where=outside)
        # both endpoint cells must be in the mask; the straight path
        # connects once all of its cells are
        lower = max(w[ra, ca], w[rb, cb])
        upper = w[_raster_line(ra, ca, rb, cb)].max()

        def feasible(D):
            if D < lower:
                return False
            if D >= upper:
                return True
            # a cell within D of an endpoint lies at most D / cell + 1/2
            # cells from the endpoint's cell: the margin of one cell
            # covers that half cell and rounding
            m = int(D / cell) + 1
            r0, r1 = max(max(ra, rb) - m, 0), min(min(ra, rb) + m + 1, grid)
            c0, c1 = max(max(ca, cb) - m, 0), min(min(ca, cb) + m + 1, grid)
            labels, _ = ndimage.label(w[r0:r1, c0:c1] <= D,
                                      structure=_EIGHT)
            la = labels[ra - r0, ca - c0]
            return la != 0 and la == labels[rb - r0, cb - c0]

        if not feasible(diag * 2.0):
            raise PathNotFound(
                f"no raster path between {za:.4f} and {zb:.4f}")
        lo, hi = d, 2.0 * diag
        if feasible(lo):
            hi = lo
        else:
            while hi - lo > max(1e-3 * d, 0.25 * cell):
                midv = 0.5 * (lo + hi)
                if feasible(midv):
                    hi = midv
                else:
                    lo = midv
        out.append((d, hi))
    return out


# the raster and the per-pair buffers hold about 50 bytes per cell,
# 200 MiB at the cap
MAX_GRID = 2048
MAX_POINT_PAIRS = 4096


def _connectivity_counts(point_pairs, grid):
    point_pairs, grid = int(point_pairs), int(grid)
    if not 1 <= grid <= MAX_GRID:
        raise ValidationError(f"grid must be 1 to {MAX_GRID}, got {grid}")
    if not 1 <= point_pairs <= MAX_POINT_PAIRS:
        raise ValidationError(f"point_pairs must be 1 to {MAX_POINT_PAIRS}, "
                              f"got {point_pairs}")
    return point_pairs, grid


def linear_connectivity_constant(boundary, point_pairs=16, grid=512, seed=0,
                                 counters=None):
    """Empirical linear-connectivity constant of the enclosed region.

    For each sampled interior pair (a, b), bisects the smallest D such
    that a and b are raster-connected inside the region through cells
    within distance D of both endpoints.  A path of diameter D stays in
    that set, so the bisected D underestimates the true minimal path
    diameter and the returned constant is a lower bound.

    Let w be the larger endpoint distance on inside cells and inf
    outside.  A step D below L = max(w(a), w(b)) leaves an endpoint out,
    and one at or above U, the max of w along a straight 8-connected
    raster path from a to b, keeps that path in.  Only L <= D < U
    labels the mask w <= D, cropped to a box that holds every cell
    within D of both endpoints, so each step's answer is the one a
    label of the whole raster gives.  grid is 1 to MAX_GRID and
    point_pairs 1 to MAX_POINT_PAIRS.
    """
    point_pairs, grid = _connectivity_counts(point_pairs, grid)
    if not boundary.closed:
        raise ValidationError("linear connectivity needs a closed boundary")
    cells, inside, cell = _raster(boundary, grid)
    if not np.any(inside):
        raise PathNotFound("raster grid found no interior cells")
    pts = _sample_interior(boundary, cells, inside, point_pairs, seed)
    v = boundary.vertices
    diag = math.hypot(v.real.max() - v.real.min(),
                      v.imag.max() - v.imag.min())
    pairs = _pair_diameters(cells, inside, cell, pts, diag)
    best = max([1.0] + [hi / d for d, hi in pairs])
    if counters is not None:
        counters["conn_pairs"] = len(pairs)
        counters["grid"] = grid
    return best


def curve_constants(curve, pairs=20000, centers=129, radii=6, point_pairs=16,
                    grid=512, seed=0):
    """All four constants in one report."""
    if min(pairs, centers, radii) < 1:
        raise ValidationError("pairs, centers and radii must be at least 1")
    point_pairs, grid = _connectivity_counts(point_pairs, grid)
    counts = {}
    lav = lavrentiev_constant(curve, pairs, seed, counters=counts)
    qc = quasicircle_constant(curve, pairs, seed)
    ahl = ahlfors_constant(curve, centers, radii, counters=counts)
    conn = linear_connectivity_constant(curve, point_pairs, grid, seed,
                                        counters=counts)
    return CurveConstantsReport(lav, qc, ahl, conn, counts)


def lemma_c_consistent(curves, threshold=1e6, pairs=20000, seed=0):
    """Finite chord-arc constant iff finite Ahlfors and quasicircle
    constants, across a family of curves."""
    for curve in curves:
        lav = lavrentiev_constant(curve, pairs, seed)
        qc = quasicircle_constant(curve, pairs, seed)
        ahl = ahlfors_constant(curve)
        if (lav < threshold) != (ahl < threshold and qc < threshold):
            return False
    return True
