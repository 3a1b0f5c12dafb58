"""Empirical geometric constants of closed curves.

Four classical constants, each estimated as a supremum over a finite,
deterministic probe set and therefore a LOWER bound of the true value:

    lavrentiev  sup (shorter-arc length) / chord   over vertex pairs
    quasicircle sup (shorter-arc diameter) / chord over the same pairs
    ahlfors     sup len(curve inside D(w, r)) / r  over centers and radii
    linear_conn sup (min connecting diameter) / distance over interior
                point pairs, rasterized

Every constant runs on the curve scaled by a power of two to unit
extent (_unit_scaled): the scaling is exact, so a constant reads the
same at any scale, and its thresholds are relative to the extent.

Pair probes are exhaustive for small polygons; larger ones consume a
fixed prefix sequence (antipodal lag first, then adjacent, then a
seeded shuffle of the remaining lags), so growing the sample count
never shrinks a constant.

Arc lengths and arc diameters are exact for every probed pair, so the
Lavrentiev and quasicircle constants are the exact maxima over the
probe set.  Both read one sweep of the probe pairs, which is not kept:
chunks of forward and backward arc lengths and chords, from slices of
the doubled vertex and arc-prefix rings.  The Lavrentiev constant
reduces each chunk as it comes; the quasicircle constant files each
pair's shorter arc by its vertex count, a byte per pair and direction,
for one pass of a window recurrence that recomputes the chords: O(n *
W_max) time and O(n) memory for an n-gon beyond those bytes, W_max the
largest vertex count of a probed shorter arc.  The Ahlfors lengths are
(center, radius, segment) rows: a segment with both ends well inside
the circle adds its length, one well outside adds +0, and only the few
others take the per-segment formula.

The connectivity raster, GRID x GRID cells over the padded bounding
box, is two coordinate vectors and a byte of containment per cell,
built row by row: a row shares one ordinate, so its even-odd
containment is the parity of its crossings binned at the sorted cell
abscissae.  The bisection is exact for the raster: a step below the
larger endpoint-cell distance L fails, and one connects at or above
the largest distance U along a straight raster path, or above the
vertex diagonal when the endpoints share a component of the inside
cells.  Other steps find the endpoints' components among the cells
within the step of both endpoints on one crop box, from the lowest
bisection leaf up, and keep each answer as a bound that decides later
steps: a step is monotone in D.  Convex regions search no components.
Components come from a run-length kernel on numpy alone (_components):
runs of mask cells along the axis with fewer transitions, joined to
the runs of the next line they touch by rounds of hooking and pointer
jumping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PathNotFound, checked_count
from .geometry import (BLOCK_CELLS, PolygonalCurve, _row_crossings,
                       points_in_polygon)
from .maps import _POLAR_BLOCK_CELLS

_EXHAUSTIVE_LIMIT = 1024
# relative to the extent: every constant runs on _unit_scaled vertices
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


def _unit_scaled(curve):
    """(the curve scaled by 2^-e, e): the power of two that brings the
    longer side of its vertices' bounding box into [1/2, 1).

    The scaling is exact and every step of the constants commutes with
    it, so a constant keeps its bits at any scale at which the vertices
    are exact; _CHORD_EPS and the Ahlfors slack become relative to the
    extent.  A curve already in that range is returned as it is.
    """
    v = curve.vertices
    span = max(float(v.real.max()) - float(v.real.min()),
               float(v.imag.max()) - float(v.imag.min()))
    # a spread past DBL_MAX lies below 2^1025
    e = math.frexp(span)[1] if span < math.inf else 1025
    if e == 0:
        return curve, 0
    # a valid curve's vertices scaled: finite and, short of underflow
    # below 2^-1022, distinct where they were, so not checked again
    scaled = object.__new__(PolygonalCurve)
    object.__setattr__(scaled, "vertices",
                       np.ldexp(v.view(float), -e).view(complex))
    return scaled, e


def _pair_lags(n, seed):
    """Lag visit order: antipodal, adjacent, then a seeded shuffle."""
    head = [n // 2, 1]
    # the lags 2 .. n//2 - 1; shuffled as an array, they take the draws
    # and the order that shuffling them as a list does
    rest = np.arange(2, n // 2)
    rng = np.random.default_rng(checked_count("seed", seed, 0, math.inf))
    rng.shuffle(rest)
    return [k for k in head if 1 <= k <= n // 2] + rest.tolist()


def sample_vertex_pairs(curve, pairs, seed=0):
    """Deterministic (i, j) vertex pairs, grouped by lag.

    Returns a list of (lag, count) blocks, each pairing the starts
    i = 0 .. count-1 with j = i + lag (mod n), and their total count,
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
        count = min(n // 2 if (2 * lag == n) else n, want - got)
        blocks.append((lag, count))
        got += count
        if got >= want:
            break
    return blocks, got


# pairs per ranked chunk: 32 KiB arrays, which come from the heap; the
# Lavrentiev constant frees each chunk before the next one is ranked,
# which reuses its memory.  Flat per-probe arrays were unmapped when
# freed, which raises glibc's mmap threshold: an exhaustive 1024-gon
# call then faulted ~5,000 pages back in, and a later thm4 three times
# its own faults.  Chunks of 1024 pairs faulted least but fragmented
# the heap, adding ~2 MiB to the peak RSS of a curves pass.
_CHUNK_PAIRS = 1 << 12


def _runs(blocks):
    """Runs of consecutive blocks of at most _CHUNK_PAIRS pairs (a larger
    block alone), with their pair counts."""
    run, size = [], 0
    for block in blocks:
        if run and size + block[1] > _CHUNK_PAIRS:
            yield run, size
            run, size = [], 0
        run.append(block)
        size += block[1]
    if run:
        yield run, size


def _probe_pairs(curve, pairs, seed):
    """Sample the probe pairs and sweep them once, one chunk at a time:
    yields (blocks, forward arc length i -> i+lag, backward arc length,
    chord) per run of consecutive blocks, in probe order.  The shorter
    arc is the smaller of the two arcs, and runs i -> i+lag where the
    forward one is not longer.

    A block pairs each start i = 0 .. c-1 with j = i + lag (mod n), so
    the j side is the slice [lag, lag + c) of the doubled vertex and
    arc-prefix rings: the same values an index gather reads.  Only the
    differences and the chord are taken per block; the rest runs once
    per chunk.
    """
    blocks, _ = sample_vertex_pairs(curve, pairs, seed)
    v = curve.vertices
    n = v.size
    pre = curve.arc_prefix()
    total = pre[-1]
    v2 = np.concatenate([v, v])
    pre2 = np.concatenate([pre[:n], pre[:n]])
    for run, size in _runs(blocks):
        arc_f, chord = np.empty(size), np.empty(size)
        at = 0
        for lag, c in run:
            np.subtract(pre2[lag:lag + c], pre[:c], out=arc_f[at:at + c])
            np.abs(v2[lag:lag + c] - v[:c], out=chord[at:at + c])
            at += c
        # forward arc length i -> i+lag, wrapping through vertex 0: a
        # prefix difference lies in (-total, total), so np.mod(arc_f,
        # total) is arc_f plus total where negative (a zero may keep its
        # sign, which no comparison sees)
        np.add(arc_f, total, out=arc_f, where=arc_f < 0.0)
        yield run, arc_f, total - arc_f, chord


def _lavrentiev(chunks):
    """(constant, degenerate pairs) over the swept chunks of
    _probe_pairs, each reduced as it comes: pairs whose chord is below
    _CHORD_EPS are skipped."""
    best, skipped = 1.0, 0
    for _, arc_f, arc_b, chord in chunks:
        ok = chord >= _CHORD_EPS
        skipped += int(ok.size - np.count_nonzero(ok))
        # a degenerate pair reads 0, below the floor of 1
        ratio = np.divide(np.minimum(arc_f, arc_b), chord,
                          out=np.zeros(chord.size), where=ok)
        best = max(best, float(ratio.max()))
    return best, skipped


def lavrentiev_constant(curve, pairs=20000, seed=0):
    """Shorter-arc length over chord, maximized over sampled vertex
    pairs.  pairs is 1 to MAX_PAIRS.  The pairs are ranked and
    reduced one chunk at a time, so working memory is O(n) plus one
    chunk."""
    pairs = checked_count("pairs", pairs, 1, MAX_PAIRS)
    curve = _unit_scaled(curve)[0]
    return _lavrentiev(_probe_pairs(curve, pairs, seed))[0]


def _file_arcs(n, chunk, arcs):
    """File the probed pairs of a swept chunk of _probe_pairs in arcs,
    under the vertex count L of their shorter arc: L = lag + 1 from i
    forward, n - lag + 1 from j = i + lag (mod n) backward.  A block's
    entry is (shift, mask): the arcs start at i + shift for the starts
    i = 0 .. c-1 of the block where the mask is set, a byte per pair
    and direction.  Pairs whose chord is below _CHORD_EPS are left out,
    and so is an entry that would hold no pair."""
    run, arc_f, arc_b, chord = chunk
    ok = chord >= _CHORD_EPS
    fwd = arc_f <= arc_b
    first = np.cumsum([0] + [c for _, c in run])
    for take, backward in ((fwd & ok, False), (ok > fwd, True)):
        filled = np.logical_or.reduceat(take, first[:-1]).tolist()
        for (lag, _), a, b, full in zip(run, first, first[1:], filled):
            if full:
                arcs.setdefault(n - lag + 1 if backward else lag + 1,
                                []).append((lag if backward else 0,
                                            take[a:b]))


def _quasicircle(curve, arcs):
    """The constant over the shorter arcs that _file_arcs filed.

    D(s, L) = max(D(s, L-1), D(s+1, L-1), |v_s - v_{s+L-1}|), the
    diameter of v[s], ..., v[s+L-1], runs one row at a time from L = 2
    up, and each arc reads its diameter at its L: a pairwise scan's
    doubles, so the maximum is bitwise the same.  The chord of an arc
    is the row's own |v_s - v_{s+L-1}| at its start s: the sweep's
    |v_j - v_i| of its pair, as elementwise differences and abs do not
    depend on the batch, and abs is even.  A row's ratios are laid out
    twice, so that a backward entry reads its starts i + lag (mod n) as
    one slice.
    """
    v = curve.vertices
    n = v.size
    if not arcs:
        return 1.0
    w_max = max(arcs)
    ring = np.concatenate([v, v[:w_max]])
    # one spare slot so that D(s+1, .) for s = n-1 is a plain slice
    prev = np.zeros(n + 1)
    cur = np.empty(n + 1)
    diff = np.empty(n, dtype=complex)
    dist = np.empty(n)
    ratio = np.empty(2 * n)
    tops = []
    # a start no arc of the row reads may divide by a zero distance
    with np.errstate(divide="ignore", invalid="ignore"):
        for L in range(2, w_max + 1):
            np.subtract(ring[L - 1:L - 1 + n], v, out=diff)
            np.abs(diff, out=dist)
            np.maximum(prev[:n], prev[1:], out=cur[:n])
            np.maximum(cur[:n], dist, out=cur[:n])
            cur[n] = cur[0]
            prev, cur = cur, prev
            if L in arcs:
                np.divide(prev[:n], dist, out=ratio[:n])
                ratio[n:] = ratio[:n]
                tops += [ratio[shift:shift + mask.size][mask].max()
                         for shift, mask in arcs[L]]
    # a NaN ratio (inf / inf) makes np.max NaN, and the constant 1.0
    return max(1.0, float(np.max(tops)))


def quasicircle_constant(curve, pairs=20000, seed=0):
    """Shorter-arc diameter over chord, same probe pairs as the
    Lavrentiev constant.

    The diameter of each shorter arc is exact (see _quasicircle), so
    the constant is the exact maximum over the probe set.  Time is
    O(n * W_max) and working memory O(n) plus at most 2 bytes a probed
    pair (1 MiB for an exhaustive 1024-gon), W_max the largest vertex
    count of a probed shorter arc.  pairs is 1 to MAX_PAIRS.
    """
    pairs = checked_count("pairs", pairs, 1, MAX_PAIRS)
    curve = _unit_scaled(curve)[0]
    arcs = {}
    for chunk in _probe_pairs(curve, pairs, seed):
        _file_arcs(curve.vertices.size, chunk, arcs)
    return _quasicircle(curve, arcs)


def _ahlfors_centers(curve, count):
    v = curve.vertices
    centroid = complex(v.mean())
    p, q = curve.segments()
    mids = 0.5 * (p + q)
    seq = np.concatenate([[centroid], v, mids])
    return seq[:min(count, seq.size)]


# (center, radius, segment) cells per Ahlfors block: 256 KiB of lengths
_AHLFORS_CELLS = 1 << 15
# The Ahlfors classification slack, relative.  A segment with |u|^2
# below _AHLFORS_TINY adds +0, as if beyond every circle: it is shorter
# than 2^-450 of the extent, and the formula would divide by 2a, which
# may underflow to 0.
#
# The formula reads dp = p - w, u = q - p, a = |u|^2, b = 2 Re(dp conj u),
# c = |dp|^2 and R = r * r as doubles, each a difference, or a sum of
# two products, of doubles: within 3 eps of its value on the doubles dp
# and u, eps = 2^-53, and b within 6 eps |dp| |u|.  On those, |dp + s u|^2
# - R has the discriminant disc = b^2 - 4a(c - R), and
#   disc - (a + |a + b|)^2 >= 4a (R - max(P, Q)),
# P = c and Q = |dp + u|^2, which is within 6 eps max(P, Q) of the
# double |q - w|^2.  The rounding of disc, of (a + |a + b|)^2 and of the
# root moves each side by at most about 300 eps a max(P, Q, R), as
# b^2 <= 4aP.  So when max(P, Q) <= R (1 - slack), the double root is at
# least -b and at least b + 2a: s0 clips to 0, s1 to 1 and the
# segment's term is exactly its length.  Likewise, when the segment's
# distance d from w has d^2 - R >= slack max(P, Q), the root is negative
# (the line's distance exceeds r), at most b when the nearest point of
# the segment is p, or at most -b - 2a when it is q: s0 and s1 clip
# alike and the term is +0.  The lower bound d >= (|dp| + |dq| - |u|)/2,
# from complex abs values, each within 4 eps of its value, keeps
# that.  The slack 2^-40 is 2^13 eps, far above both margins, and every
# bound is relative to the differences, not to the coordinates, so it
# holds on a curve translated far from 0.  _unit_scaled vertices keep
# a R above 2^-920 when a >= _AHLFORS_TINY, as r >= maxdist / 20 >=
# 1/80, so no underflow adds to these bounds.
_AHLFORS_SLACK = 2.0 ** -40
_AHLFORS_TINY = 2.0 ** -900


def ahlfors_constant(curve, centers=129, radii=6):
    """Clipped curve length inside D(w, r) over r, maximized over probe
    centers and radius fractions.  centers is 1 to MAX_CENTERS (a curve
    has 2n + 1 of them) and radii 1 to MAX_RADII.

    The centers run in blocks of at most _AHLFORS_CELLS (center,
    radius, segment) cells.  A segment whose two ends lie inside the
    circle, with the slack above, contributes its length; one whose
    distance from the center exceeds the radius contributes +0: the
    terms the per-segment formula gives them.  Only the others take the
    formula, so each row holds the doubles of the (radii, segments)
    formula, and sums as it does.
    """
    centers = checked_count("centers", centers, 1, MAX_CENTERS)
    radii = checked_count("radii", radii, 1, MAX_RADII)
    curve = _unit_scaled(curve)[0]
    v = curve.vertices
    p, q = curve.segments()
    m = p.size
    u = q - p
    seglen = np.abs(u)
    a = (u * np.conj(u)).real
    four_a, two_a = 4.0 * a, 2.0 * a
    tiny = a < _AHLFORS_TINY
    # segment k runs from ring point k to k + 1
    ring = np.append(v, v[0])
    cs = _ahlfors_centers(curve, centers)
    fracs = np.array(_RADIUS_FRACTIONS[:radii])
    # one center's radii in blocks when they exceed a block, else all
    rstep = max(1, min(radii, _AHLFORS_CELLS // m))
    cstep = max(1, _AHLFORS_CELLS // (rstep * m))
    best = 0.0
    for c0 in range(0, cs.size, cstep):
        w = cs[c0:c0 + cstep, None]
        # maxdist: the largest complex abs of v - w; the ring's last
        # point repeats vertex 0
        z = ring - w
        d = np.abs(z)
        maxdist = d.max(axis=1, keepdims=True)
        live = ~(maxdist[:, 0] < _CHORD_EPS)
        # per segment: the larger squared end distance, and the lower
        # bound of the squared distance less its slack
        d2 = z.real * z.real
        d2 += z.imag * z.imag
        top = np.maximum(d2[:, :-1], d2[:, 1:])
        low = np.add(d[:, :-1], d[:, 1:])
        low -= seglen
        low *= 0.5
        np.maximum(low, 0.0, out=low)
        low *= low
        low -= _AHLFORS_SLACK * top
        if tiny.any():
            top[:, tiny] = np.inf
            low[:, tiny] = np.inf
        for f0 in range(0, radii, rstep):
            r = maxdist * fracs[f0:f0 + rstep]
            rr2 = r * r
            inside = top[:, None, :] <= (rr2 * (1.0 - _AHLFORS_SLACK))[
                :, :, None]
            rows = np.multiply(inside, seglen)
            # neither inside nor beyond the circle: low < r^2, not inside
            near = low[:, None, :] < rr2[:, :, None]
            at = np.flatnonzero(np.greater(near, inside, out=near))
            if at.size:
                ci, k = np.divmod(at, m)
                ci, ri = np.divmod(ci, rr2.shape[1])
                # the per-segment quadratic |p + s u - w|^2 = r^2 in s
                dp = p[k] - w[ci, 0]
                bq = 2.0 * (dp * np.conj(u[k])).real
                disc = bq * bq - four_a[k] * ((dp * np.conj(dp)).real
                                              - rr2[ci, ri])
                root = np.sqrt(np.maximum(disc, 0.0))
                s0 = np.clip((-bq - root) / two_a[k], 0.0, 1.0)
                s1 = np.clip((-bq + root) / two_a[k], 0.0, 1.0)
                rows.reshape(-1)[at] = np.where(disc > 0.0,
                                                (s1 - s0) * seglen[k], 0.0)
            best = max([best]
                       + (rows.sum(axis=2)[live] / r[live]).ravel().tolist())
    return best


def _raster(curve, grid):
    """(xs, ys, inside, cell): the abscissae and ordinates of the cell
    centres of a grid x grid raster over the padded bounding box of the
    vertices, the even-odd containment of each centre, and the cell
    width.  The centre of cell (row, col) is xs[col] + 1j * ys[row].

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
    p, q = curve.segments()
    inside = np.empty((grid, grid), dtype=bool)
    # row blocks of at most BLOCK_CELLS straddle tests and fewer than
    # _POLAR_BLOCK_CELLS bins, which glibc serves from the heap
    step = max(1, min(BLOCK_CELLS // p.size,
                      (_POLAR_BLOCK_CELLS - 1) // (grid + 1)))
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
    return xs, ys, inside, span / grid


def _nearest(centres, t):
    """Index of the first smallest |centres - t| for each t, as argmin
    over the increasing centres would give it."""
    i = np.searchsorted(centres, t)
    lo, hi = np.maximum(i - 1, 0), np.minimum(i, centres.size - 1)
    return np.where(np.abs(centres[lo] - t) <= np.abs(centres[hi] - t),
                    lo, hi)


def _cell_of(z, xs, ys):
    """Row and column of the raster cell nearest to each point of z."""
    return _nearest(ys, z.imag), _nearest(xs, z.real)


def _sample_interior(boundary, xs, ys, inside, point_pairs, seed):
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
        rows, cols = _cell_of(z, xs, ys)
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


def _components(mask, rows, cols):
    """The 8-connected component of each queried cell (rows[i], cols[i])
    of the boolean mask: equal ids for cells joined through mask cells,
    and -1 for a cell off the mask.

    The mask is cut into runs of cells along the axis with fewer
    transitions, as flat keys of the mask padded with a False column
    either side, so that no run wraps into the next line.  Run k, cells
    s_k .. e_k - 1, touches a run j of the next line exactly when
    s_j <= e_k and s_k <= e_j: one range of the sorted runs.  Each round
    hooks each root to the least of the smaller roots it touches, then
    shortcuts every pointer to its root, until no edge joins two roots:
    the hook-and-shortcut scheme of Shiloach and Vishkin (J. Algorithms
    3 (1982) 57-67) on the run graph of He, Chao and Suzuki (IEEE TIP
    17(5) (2008) 749-756).
    """
    rows, cols = np.asarray(rows), np.asarray(cols)
    if (np.count_nonzero(mask[1:] != mask[:-1])
            < np.count_nonzero(mask[:, 1:] != mask[:, :-1])):
        mask, rows, cols = mask.T, cols, rows
    width = mask.shape[1] + 2
    flat = np.zeros((mask.shape[0], width), dtype=bool)
    flat[:, 1:-1] = mask
    flat = flat.ravel()
    start, end = (np.flatnonzero(flat[1:] != flat[:-1]) + 1).reshape(-1, 2).T
    # in flat keys, the next line's cells lie width on
    lo = np.searchsorted(end, start + width)
    count = np.searchsorted(start, end + width, side="right") - lo
    src = np.repeat(np.arange(start.size), count)
    dst = np.arange(src.size) + np.repeat(lo - np.cumsum(count) + count,
                                          count)
    root = np.arange(start.size)
    while src.size:
        a, b = root[src], root[dst]
        apart = a != b
        src, dst = src[apart], dst[apart]
        np.minimum.at(root, np.maximum(a, b)[apart], np.minimum(a, b)[apart])
        up = root[root]
        while not np.array_equal(up, root):
            root, up = up, up[up]
    key = rows * width + cols + 1
    ids = np.full(key.shape, -1)
    on = flat[key]
    ids[on] = root[np.searchsorted(start, key[on], side="right") - 1]
    return ids


def _pair_diameters(xs, ys, inside, cell, pts, diag, e=0):
    """(d, hi) for each pair (pts[2k], pts[2k+1]) at least 10 cells
    apart: d = |za - zb| and hi the bisected smallest D for which a and
    b are 8-connected through inside cells within D of both.

    w, the farther endpoint's distance on inside cells and inf outside,
    is computed on the straight path, whose ends are the endpoint cells,
    and on one crop box.  The cells z = xs[col] + 1j * ys[row] are built
    a row block at a time in one reused buffer, so z - za holds the
    doubles a grid of all cells gives, and numpy's complex abs gives
    the same bits on any subset of cells.  A step is monotone in D, so
    the steps that search components bound later ones.  A path that
    leaves the region takes its endpoints' ids from the components of
    the inside cells: PathNotFound if they differ (its message gives
    the points times 2^e), else every step from diag + cell on
    connects.  That needs w <= diag on inside cells:
    linear_connectivity_constant passes the vertices' bounding-box
    diagonal, and the tests' bare 48 x 48 rasters of unit cells pass
    48 sqrt(2), above their cells' diagonal.  When d fails, the tops of
    the lowest 1, 2, 4, ... leaves are probed first."""
    grid = inside.shape[0]
    ids = None
    out = []
    # a path has at most grid cells, and a box fills in row blocks of
    # fewer than _POLAR_BLOCK_CELLS cells: buffers that glibc serves from
    # the heap, reused by every pair
    cells = np.empty(_POLAR_BLOCK_CELLS - 1, dtype=complex)
    diff = np.empty(cells.size, dtype=complex)
    other = np.empty(cells.size)
    for k in range(len(pts) // 2):
        (za, ra, ca), (zb, rb, cb) = pts[2 * k], pts[2 * k + 1]
        d = abs(za - zb)
        if d < 10.0 * cell:
            continue

        def w(x, y, keep, wa=None):
            # the cells x + 1j * y, broadcast to the shape of keep, are
            # built in a buffer and less za and zb: the doubles that a
            # grid of them gives
            z = cells[:keep.size].reshape(keep.shape)
            np.copyto(z, x)
            np.copyto(z.imag, y)
            dz = diff[:keep.size].reshape(keep.shape)
            wa = np.abs(np.subtract(z, za, out=dz), out=wa)
            wb = np.abs(np.subtract(z, zb, out=dz),
                        out=other[:keep.size].reshape(keep.shape))
            np.maximum(wa, wb, out=wa)
            np.copyto(wa, np.inf, where=~keep)
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
        rows, cols = _raster_line(ra, ca, rb, cb)
        path = w(xs[cols], ys[rows], inside[rows, cols])
        lower, upper = max(path[0], path[-1]), path.max()
        if upper == np.inf:
            if ids is None:
                rows, cols = np.array([p[1:] for p in pts]).T
                ids = _components(inside, rows, cols)
            if ids[2 * k] != ids[2 * k + 1]:
                za, zb = np.ldexp(np.array([za, zb]).view(float),
                                  e).view(complex)
                raise PathNotFound(
                    f"no raster path between {za:.4f} and {zb:.4f}")
            upper = diag + cell
        # upper and fails: the smallest step known to connect and the
        # largest known to fail.  A searched step lies below upper and
        # 2 diag, so its crop is a slice of the first searched one's box
        box, fails = None, -np.inf

        def feasible(D):
            nonlocal box, upper, fails
            if D < lower or D <= fails:
                return False
            if D >= upper:
                return True
            if box is None:
                R0, R1, C0, C1 = crop(min(upper, 2.0 * diag))
                wbox = np.empty((R1 - R0, C1 - C0))
                step = max(1, cells.size // (C1 - C0))
                for r in range(R0, R1, step):
                    r1 = min(r + step, R1)
                    w(xs[C0:C1], ys[r:r1, None], inside[r:r1, C0:C1],
                      wbox[r - R0:r1 - R0])
                box = R0, C0, wbox
            R0, C0, wbox = box
            r0, r1, c0, c1 = crop(D)
            la, lb = _components(wbox[r0 - R0:r1 - R0, c0 - C0:c1 - C0] <= D,
                                 [ra - r0, rb - r0], [ca - c0, cb - c0])
            if la >= 0 and la == lb:
                upper = D
                return True
            fails = D
            return False

        tol = max(1e-3 * d, 0.25 * cell)
        lo, hi = d, 2.0 * diag
        if feasible(lo):
            hi = lo
        else:
            # the tops of the lowest 1, 2, 4, ... leaves: the his of a run
            # of connecting steps, probed from the lowest up
            tops = [hi]
            while tops[-1] - lo > tol:
                tops.append(0.5 * (lo + tops[-1]))
            for top in reversed(tops):
                if feasible(top):
                    break
            while hi - lo > tol:
                midv = 0.5 * (lo + hi)
                if feasible(midv):
                    hi = midv
                else:
                    lo = midv
        out.append((d, hi))
    return out


# cells per side of the connectivity raster
GRID = 512
MAX_POINT_PAIRS = 4096


def linear_connectivity_constant(boundary, point_pairs=16, seed=0):
    """(constant, measured pairs): the empirical linear-connectivity
    constant of the enclosed region and the number of sampled pairs it
    was measured on.

    For each sampled interior pair (a, b), bisects the smallest D such
    that a and b are connected, on a GRID x GRID raster, inside the
    region through cells within distance D of both endpoints.  A path
    of diameter D stays in that set, so the bisected D underestimates
    the true minimal path diameter and the returned constant is a lower
    bound.

    The raster's containment is the even-odd parity of each row's
    crossings right of each cell.  Let w be the larger endpoint distance
    on inside cells and inf outside.  A step D below L = max(w(a), w(b))
    leaves an endpoint out, and one at or above U, the max of w along a
    straight 8-connected raster path from a to b, keeps that path in.
    Where the path leaves the region, the 8-connected components of the
    inside cells, found once per raster, give the endpoints' ids:
    PathNotFound if they differ, else U is the vertices' diagonal plus a
    cell.  Only L <= D < U searches the components of the mask w <= D,
    cropped to a box that holds every cell within D of both endpoints,
    so each step's answer is the one the whole raster gives.  The
    components come from the run-length kernel _components, numpy
    alone.  A step is monotone in D, so each answer is kept as a bound.
    When d = |a - b| fails, the tops of the lowest 1, 2, 4, ...
    bisection leaves are probed first.  Per pair, w is computed on the
    path and on one crop box, and every step slices its own crop from
    it.  The raster itself is two coordinate vectors and a byte per
    cell, so working memory is O(n + GRID) plus a byte per cell and one
    w box.  point_pairs is 1 to MAX_POINT_PAIRS; seed is nonnegative.
    PathNotFound when no sampled pair is at least 10 cells apart, as no
    pair was then measured.
    """
    point_pairs = checked_count("point_pairs", point_pairs, 1,
                                MAX_POINT_PAIRS)
    seed = checked_count("seed", seed, 0, math.inf)
    boundary, e = _unit_scaled(boundary)
    xs, ys, inside, cell = _raster(boundary, GRID)
    if not np.any(inside):
        raise PathNotFound("raster grid found no interior cells")
    pts = _sample_interior(boundary, xs, ys, inside, point_pairs, seed)
    v = boundary.vertices
    diag = math.hypot(v.real.max() - v.real.min(),
                      v.imag.max() - v.imag.min())
    pairs = _pair_diameters(xs, ys, inside, cell, pts, diag, e)
    if not pairs:
        raise PathNotFound(f"no sampled pair is at least 10 cells apart "
                           f"at grid {GRID}; nothing was measured")
    return max([1.0] + [hi / d for d, hi in pairs]), len(pairs)


def curve_constants(curve, pairs=20000, centers=129, radii=6, point_pairs=16,
                    seed=0):
    """All four constants of the curve in one report; the two pair
    constants share one sweep of probe pairs.  The counts are refused
    out of range before any work: pairs 1 to MAX_PAIRS, centers 1 to
    MAX_CENTERS, radii 1 to MAX_RADII and point_pairs 1 to
    MAX_POINT_PAIRS.  A negative seed is refused by the first step, the
    pair sample."""
    pairs = checked_count("pairs", pairs, 1, MAX_PAIRS)
    centers = checked_count("centers", centers, 1, MAX_CENTERS)
    radii = checked_count("radii", radii, 1, MAX_RADII)
    point_pairs = checked_count("point_pairs", point_pairs, 1,
                                MAX_POINT_PAIRS)
    curve = _unit_scaled(curve)[0]
    n = curve.vertices.size
    arcs, probed = {}, 0

    def filed(chunks):
        # each chunk is filed for the quasicircle constant as the
        # Lavrentiev constant reduces it
        nonlocal probed
        for chunk in chunks:
            _file_arcs(n, chunk, arcs)
            probed += chunk[3].size
            yield chunk

    lav, degenerate = _lavrentiev(filed(_probe_pairs(curve, pairs, seed)))
    qc = _quasicircle(curve, arcs)
    del arcs  # freed before the connectivity raster
    ahl = ahlfors_constant(curve, centers, radii)
    conn, measured = linear_connectivity_constant(curve, point_pairs, seed)
    counts = {"pairs": probed,
              "degenerate_pairs": degenerate,
              # the centroid, the vertices and the segment midpoints
              "centers": min(centers, 2 * n + 1),
              "radii": radii, "conn_pairs": measured, "grid": GRID}
    return CurveConstantsReport(lav, qc, ahl, conn, counts)
