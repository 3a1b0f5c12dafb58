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
probe set.  Both constants read one ranking of the probe pairs, built
from slices of the doubled vertex ring.  The diameters come from one
pass of a window recurrence: O(n * W_max) time and O(n) working memory
for an n-gon, where W_max is the largest vertex count of a probed
shorter arc.  The Ahlfors lengths of a center are one (radii, segments)
array.

The connectivity raster is built row by row: a row shares one ordinate,
so its even-odd containment is the parity of its crossings binned at
the sorted cell abscissae.  The bisection is exact for the raster: a
step below the larger endpoint-cell distance L is infeasible and one at
or above the largest distance U along a straight raster path is
feasible, so per pair the distances are computed on that path and, for
the steps in [L, U), on one crop box, from which each such step labels
the cells within the step of both endpoints.  Convex regions need
almost no labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import PathNotFound, ValidationError
from .geometry import BLOCK_CELLS, _row_crossings, points_in_polygon

_EXHAUSTIVE_LIMIT = 1024
_CHORD_EPS = 1e-12
_RADIUS_FRACTIONS = (1.0, 0.75, 0.5, 0.25, 0.125, 0.0625, 0.85, 0.6, 0.4,
                     0.3, 0.2, 0.15, 0.1, 0.05)
# every vertex pair and every Ahlfors center (centroid, vertices and
# segment midpoints) of a 2048-gon
MAX_PAIRS = 2048 * 2047 // 2
MAX_CENTERS = 2 * 2048 + 1
MAX_RADII = len(_RADIUS_FRACTIONS)


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


def _count(name, value, cap):
    value = int(value)
    if not 1 <= value <= cap:
        raise ValidationError(f"{name} must be 1 to {cap}, got {value}")
    return value


class _Probe(NamedTuple):
    """The probe pairs of sample_vertex_pairs, ranked in chunks."""
    got: int
    # (blocks, shorter arc length, chord, the shorter arc runs i -> i+lag)
    # per run of consecutive blocks, flat in probe order
    chunks: list


# pairs per ranked chunk: 32 KiB arrays, which the heap reuses from
# call to call.  Flat per-probe arrays were unmapped when freed, which
# raises glibc's mmap threshold: an exhaustive 1024-gon call then
# faulted ~5,000 pages back in, and a later thm4 three times its own
# faults.  Chunks of 1024 pairs faulted least but fragmented the heap,
# adding ~2 MiB to the peak RSS of a curves pass.
_CHUNK_PAIRS = 1 << 12


def _runs(blocks):
    """Runs of consecutive blocks of at most _CHUNK_PAIRS pairs (a larger
    block alone), with their pair counts."""
    run, size = [], 0
    for block in blocks:
        if run and size + block[1].size > _CHUNK_PAIRS:
            yield run, size
            run, size = [], 0
        run.append(block)
        size += block[1].size
    if run:
        yield run, size


def _probe_pairs(curve, pairs, seed):
    """Sample the probe pairs and rank each one by its shorter arc.

    A block pairs each start i = 0 .. c-1 with j = i + lag (mod n), so
    the j side is the slice [lag, lag + c) of the doubled vertex and
    arc-prefix rings: the same values an index gather reads.  Only the
    differences and the chord are taken per block; the rest runs once
    per chunk.
    """
    blocks, got = sample_vertex_pairs(curve, pairs, seed)
    v = curve.vertices
    n = v.size
    pre = curve.arc_prefix()
    total = pre[-1]
    v2 = np.concatenate([v, v])
    pre2 = np.concatenate([pre[:n], pre[:n]])
    chunks = []
    for run, size in _runs(blocks):
        arc_f, chord = np.empty(size), np.empty(size)
        at = 0
        for lag, starts in run:
            c = starts.size
            np.subtract(pre2[lag:lag + c], pre[:c], out=arc_f[at:at + c])
            np.abs(v2[lag:lag + c] - v[:c], out=chord[at:at + c])
            at += c
        # forward arc length i -> i+lag, wrapping through vertex 0:
        # np.mod(arc_f, total) as numpy computes it, fmod plus total
        # where negative, without the floor quotient np.mod also forms
        # (a zero may keep its sign, which no comparison sees)
        np.fmod(arc_f, total, out=arc_f)
        np.add(arc_f, total, out=arc_f, where=arc_f < 0.0)
        arc_b = total - arc_f
        fwd = arc_f <= arc_b
        chunks.append((run, np.minimum(arc_f, arc_b, out=arc_b), chord, fwd))
    return _Probe(got, chunks)


def _count_pairs(probe, skipped, counters):
    if counters is not None:
        counters["pairs"] = probe.got
        counters["degenerate_pairs"] = skipped


def _lavrentiev(probe, counters=None):
    best, skipped = 1.0, 0
    for _, shorter, chord, _ in probe.chunks:
        ok = chord >= _CHORD_EPS
        skipped += int(ok.size - np.count_nonzero(ok))
        # a degenerate pair reads 0, below the floor of 1
        ratio = np.divide(shorter, chord, out=np.zeros(chord.size),
                          where=ok)
        best = max(best, float(ratio.max()))
    _count_pairs(probe, skipped, counters)
    return best


def lavrentiev_constant(curve, pairs=20000, seed=0, counters=None):
    """Shorter-arc length over chord, maximized over sampled pairs.
    pairs is 1 to MAX_PAIRS."""
    pairs = _count("pairs", pairs, MAX_PAIRS)
    return _lavrentiev(_probe_pairs(curve, pairs, seed), counters)


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


def _quasicircle(curve, probe, counters=None):
    v = curve.vertices
    n = v.size
    runs, _, chord, fwd = zip(*probe.chunks)
    chord, fwd = np.concatenate(chord), np.concatenate(fwd)
    ok = chord >= _CHORD_EPS
    _count_pairs(probe, int(ok.size - np.count_nonzero(ok)), counters)
    if not np.any(ok):
        return 1.0
    lags, starts = zip(*(block for run in runs for block in run))
    i = np.concatenate(starts)
    lag = np.repeat(lags, [s.size for s in starts])
    # forward arcs run i .. i+lag, backward arcs j .. j+n-lag
    base = np.where(fwd, i, (i + lag) % n)[ok]
    size = np.where(fwd, lag + 1, n - lag + 1)[ok]
    diam = _arc_diameters(v, base, size)
    return max(1.0, float((diam / chord[ok]).max()))


def quasicircle_constant(curve, pairs=20000, seed=0, counters=None):
    """Shorter-arc diameter over chord, same probe pairs as the
    Lavrentiev constant.

    The diameter of each shorter arc is exact (see _arc_diameters),
    so the constant is the exact maximum over the probe set.  Time is
    O(n * W_max) and working memory O(n) besides the per-pair arrays,
    where W_max is the largest vertex count of a probed shorter arc.
    pairs is 1 to MAX_PAIRS.
    """
    pairs = _count("pairs", pairs, MAX_PAIRS)
    return _quasicircle(curve, _probe_pairs(curve, pairs, seed), counters)


def _ahlfors_centers(curve, count):
    v = curve.vertices
    centroid = complex(v.mean())
    p, q = curve.segments()
    mids = 0.5 * (p + q)
    seq = np.concatenate([[centroid], v, mids])
    return seq[:min(count, seq.size)]


def ahlfors_constant(curve, centers=129, radii=6, counters=None):
    """Clipped curve length inside D(w, r) over r, maximized over probe
    centers and radius fractions.  centers is 1 to MAX_CENTERS (a curve
    has 2n + 1 of them) and radii 1 to MAX_RADII.

    The radii of a center form one (radii, segments) array, in blocks
    of at most BLOCK_CELLS cells; a row sums as the segment vector of
    its radius would.
    """
    centers = _count("centers", centers, MAX_CENTERS)
    radii = _count("radii", radii, MAX_RADII)
    p, q = curve.segments()
    u = q - p
    seglen = np.abs(u)
    a = (u * np.conj(u)).real
    four_a, two_a = 4.0 * a, 2.0 * a
    cs = _ahlfors_centers(curve, centers)
    fracs = np.array(_RADIUS_FRACTIONS[:radii])
    step = max(1, BLOCK_CELLS // p.size)
    best = 0.0
    for w in cs:
        maxdist = float(np.abs(curve.vertices - w).max())
        if maxdist < _CHORD_EPS:
            continue
        # per-segment quadratic |p + s u - w|^2 = r^2 in s
        dp = p - w
        bq = 2.0 * (dp * np.conj(u)).real
        c0 = (dp * np.conj(dp)).real
        bb, neg_bq = bq * bq, -bq
        for f0 in range(0, radii, step):
            r = fracs[f0:f0 + step] * maxdist
            disc = bb - four_a * (c0 - (r * r)[:, None])
            root = np.sqrt(np.maximum(disc, 0.0))
            s0 = np.clip((neg_bq - root) / two_a, 0.0, 1.0)
            s1 = np.clip((neg_bq + root) / two_a, 0.0, 1.0)
            inside = np.where(disc > 0.0, (s1 - s0) * seglen, 0.0)
            best = max([best] + (inside.sum(axis=1) / r).tolist())
    if counters is not None:
        counters["centers"] = len(cs)
        counters["radii"] = radii
    return best


def _raster(curve, grid):
    """Cell centres of a grid x grid raster over the padded bounding box
    of the vertices, the even-odd containment of each centre, and the
    cell width.

    A row shares one ordinate and the column abscissae increase, so each
    crossing of a row (_row_crossings, the one even-odd crossing rule)
    is binned at searchsorted(xs, x, side="left"): the crossings right
    of a cell, ties not counted, are those binned after its column.  A cell
    is inside when their count, a reversed cumulative sum of the bins,
    is odd; only its parity is kept.
    """
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
    # the cells' own coordinates, as a containment test of them reads
    xs, ys = cells[0].real, cells[:, 0].imag
    p, q = curve.segments()
    inside = np.empty((grid, grid), dtype=bool)
    # row blocks of at most BLOCK_CELLS straddle tests and 2 MiB of bins
    step = max(1, min(BLOCK_CELLS // p.size, BLOCK_CELLS // 8 // (grid + 1)))
    for r0 in range(0, grid, step):
        y = ys[r0:r0 + step]
        rr, xc = _row_crossings(y, p, q)
        col = np.searchsorted(xs, xc, side="left")
        bins = np.bincount(rr * (grid + 1) + col,
                           minlength=y.size * (grid + 1))
        # bins grid, grid-1, ..., 1 as bytes: wrapping keeps the parity
        odd = bins.reshape(y.size, grid + 1)[:, :0:-1].astype(np.uint8)
        right = np.cumsum(odd, axis=1, dtype=np.uint8)[:, ::-1]
        inside[r0:r0 + y.size] = right & 1
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
    b are 8-connected through inside cells within D of both.

    w, the farther endpoint's distance on inside cells and inf outside,
    is computed only where a step reads it: on the straight path, whose
    ends are the endpoint cells, and on one crop box.  numpy's complex
    abs gives the same bits on any subset of cells, so every w equals
    the one a whole-raster array holds."""
    # imported here: scipy.ndimage is most of the package's import time
    from scipy import ndimage
    grid = inside.shape[0]
    out = []
    for k in range(len(pts) // 2):
        (za, ra, ca), (zb, rb, cb) = pts[2 * k], pts[2 * k + 1]
        d = abs(za - zb)
        if d < 10.0 * cell:
            continue

        def w(rows, cols):
            z = cells[rows, cols]
            wa = np.abs(z - za)
            np.maximum(wa, np.abs(z - zb), out=wa)
            np.copyto(wa, np.inf, where=~inside[rows, cols])
            return wa

        def crop(D):
            # a cell within D of an endpoint lies at most D / cell + 1/2
            # cells from the endpoint's cell: the margin of one cell
            # covers that half cell and rounding
            m = int(D / cell) + 1
            return (max(max(ra, rb) - m, 0), min(min(ra, rb) + m + 1, grid),
                    max(max(ca, cb) - m, 0), min(min(ca, cb) + m + 1, grid))

        # both endpoint cells must be in the mask; the straight path
        # connects once all of its cells are
        path = w(*_raster_line(ra, ca, rb, cb))
        lower, upper = max(path[0], path[-1]), path.max()
        # every labelled step has D < upper and D <= 2 diag, and its
        # crop grows with D: each one is a slice of the first one's box
        box = None

        def feasible(D):
            nonlocal box
            if D < lower:
                return False
            if D >= upper:
                return True
            if box is None:
                R0, R1, C0, C1 = crop(min(upper, 2.0 * diag))
                wbox = np.empty((R1 - R0, C1 - C0))
                # row blocks of 4 MiB of complex differences
                step = max(1, BLOCK_CELLS // 8 // (C1 - C0))
                for r in range(R0, R1, step):
                    wbox[r - R0:r - R0 + step] = w(
                        slice(r, min(r + step, R1)), slice(C0, C1))
                box = R0, C0, wbox
            R0, C0, wbox = box
            r0, r1, c0, c1 = crop(D)
            labels, _ = ndimage.label(
                wbox[r0 - R0:r1 - R0, c0 - C0:c1 - C0] <= D,
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


# the raster holds 17 bytes per cell, and a pair whose straight path
# leaves the region adds its crop's distances and labels: peak RSS grew
# by 74 MiB (circle) to 122 MiB (U-shape) at the cap, on 64-bit numpy
MAX_GRID = 2048
MAX_POINT_PAIRS = 4096


def _connectivity_counts(point_pairs, grid):
    grid = _count("grid", grid, MAX_GRID)
    return _count("point_pairs", point_pairs, MAX_POINT_PAIRS), grid


def linear_connectivity_constant(boundary, point_pairs=16, grid=512, seed=0,
                                 counters=None):
    """Empirical linear-connectivity constant of the enclosed region.

    For each sampled interior pair (a, b), bisects the smallest D such
    that a and b are raster-connected inside the region through cells
    within distance D of both endpoints.  A path of diameter D stays in
    that set, so the bisected D underestimates the true minimal path
    diameter and the returned constant is a lower bound.

    The raster's containment is the even-odd parity of each row's
    crossings right of each cell.  Let w be the larger endpoint distance
    on inside cells and inf outside.  A step D below L = max(w(a), w(b))
    leaves an endpoint out, and one at or above U, the max of w along a
    straight 8-connected raster path from a to b, keeps that path in.
    Only L <= D < U labels the mask w <= D, cropped to a box that holds
    every cell within D of both endpoints, so each step's answer is the
    one a label of the whole raster gives.  Per pair, w is computed on
    the path and on one crop box, that of the largest such step, and
    every step slices its own crop from it.  grid is 1 to MAX_GRID and
    point_pairs 1 to MAX_POINT_PAIRS.  PathNotFound when no sampled pair
    is at least 10 cells apart, as no pair was then measured.
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
    if not pairs:
        raise PathNotFound(f"no sampled pair is at least 10 cells apart "
                           f"at grid {grid}; nothing was measured")
    best = max([1.0] + [hi / d for d, hi in pairs])
    if counters is not None:
        counters["conn_pairs"] = len(pairs)
        counters["grid"] = grid
    return best


def curve_constants(curve, pairs=20000, centers=129, radii=6, point_pairs=16,
                    grid=512, seed=0):
    """All four constants in one report; the two pair constants share
    one sample of probe pairs.  The counts are refused out of range
    before any work: pairs 1 to MAX_PAIRS, centers 1 to MAX_CENTERS,
    radii 1 to MAX_RADII, and point_pairs and grid as for
    linear_connectivity_constant."""
    pairs = _count("pairs", pairs, MAX_PAIRS)
    _count("centers", centers, MAX_CENTERS)
    _count("radii", radii, MAX_RADII)
    point_pairs, grid = _connectivity_counts(point_pairs, grid)
    counts = {}
    probe = _probe_pairs(curve, pairs, seed)
    lav = _lavrentiev(probe, counters=counts)
    qc = _quasicircle(curve, probe)
    ahl = ahlfors_constant(curve, centers, radii, counters=counts)
    conn = linear_connectivity_constant(curve, point_pairs, grid, seed,
                                        counters=counts)
    return CurveConstantsReport(lav, qc, ahl, conn, counts)


def lemma_c_consistent(curves, threshold=1e6, pairs=20000, seed=0):
    """Finite chord-arc constant iff finite Ahlfors and quasicircle
    constants, across a family of curves."""
    pairs = _count("pairs", pairs, MAX_PAIRS)
    for curve in curves:
        probe = _probe_pairs(curve, pairs, seed)
        lav, qc = _lavrentiev(probe), _quasicircle(curve, probe)
        ahl = ahlfors_constant(curve)
        if (lav < threshold) != (ahl < threshold and qc < threshold):
            return False
    return True
