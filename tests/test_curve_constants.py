"""Empirical curve constants: closed forms, brute-force twins, and
probe-set properties."""

import importlib
import math

import numpy as np
import pytest
from scipy import ndimage

from harmonicdisk import (CurveConstantsReport, PathNotFound, ValidationError,
                          ahlfors_constant, boundary_polygon, curve_constants,
                          gallery_map,
                          lavrentiev_constant, lemma_c_consistent,
                          linear_connectivity_constant, quasicircle_constant)
from harmonicdisk.curve_constants import (MAX_CENTERS, MAX_GRID, MAX_PAIRS,
                                          MAX_POINT_PAIRS, MAX_RADII,
                                          _arc_diameters, _cell_of,
                                          _pair_diameters, _raster,
                                          _raster_line, _sample_interior,
                                          sample_vertex_pairs)
from harmonicdisk.geometry import (PolygonalCurve, circle_polygon,
                                   ellipse_polygon, points_in_polygon,
                                   rectangle_polygon, square_polygon,
                                   u_polygon)

from oracles.square_pair_bruteforce import brute_force

# the package re-exports a function named curve_constants
cc_module = importlib.import_module("harmonicdisk.curve_constants")

# FROZEN: tests/oracles/square_pair_bruteforce.py on the square of side
# 2 with 16 vertices per side
SQUARE16_LAVRENTIEV = 2.0
SQUARE16_QUASICIRCLE = 1.1440382552221602
# FROZEN: python3 tests/oracles/square_pair_bruteforce.py ellipse (the
# 260-gon in the 3:1 ellipse; shorter arcs of up to 131 vertices)
ELLIPSE260_QUASICIRCLE = 1.6660329922159633


def test_circle_lavrentiev_half_pi():
    # worst pair is antipodal: shorter arc pi R over chord 2 R
    c = circle_polygon(256)
    got = lavrentiev_constant(c)
    assert abs(got - 0.5 * math.pi) < 1e-3
    # inscribed-polygon arc is shorter than the true arc: lower bound
    assert got <= 0.5 * math.pi


def test_circle_quasicircle_is_one():
    # every subarc of a circle spanning <= pi radians has its endpoints
    # as the farthest pair, so diameter equals chord
    got = quasicircle_constant(circle_polygon(256))
    assert got == pytest.approx(1.0, abs=1e-12)


def test_circle_ahlfors_two_pi():
    # center at the centroid with r = R captures the whole circumference
    got = ahlfors_constant(circle_polygon(512))
    assert abs(got - 2.0 * math.pi) < 2e-2


def test_circle_linear_connectivity_is_one():
    # convex region: the straight segment always connects; the raster
    # lens test overshoots 1 by at most a few cells over the distance
    got = linear_connectivity_constant(circle_polygon(128), point_pairs=8,
                                       grid=256)
    assert 1.0 <= got < 1.03


def test_square_matches_brute_force_exactly():
    """The library's probe set on small polygons is exhaustive over
    vertex pairs, so a plain O(n^2) double loop over the same vertices
    must reproduce both constants to the last bit."""
    curve = rectangle_polygon(2.0, 2.0, per_side=16)
    want_lav, want_qc = brute_force(curve.vertices)
    assert lavrentiev_constant(curve) == want_lav
    assert quasicircle_constant(curve) == want_qc
    assert want_lav == SQUARE16_LAVRENTIEV
    assert want_qc == SQUARE16_QUASICIRCLE


def test_quasicircle_matches_brute_force_on_long_windows():
    """Windows longer than 128 vertices get their exact diameter too:
    the exhaustive probe set reproduces the brute force bit for bit."""
    curve = ellipse_polygon(3, 1, 260)
    want = brute_force(curve.vertices)[1]
    assert quasicircle_constant(curve) == want == ELLIPSE260_QUASICIRCLE


def test_quasicircle_sampled_windows_are_exact():
    # n > 1024 takes the sampled path; a budget of 24 pairs probes 24
    # antipodal windows of 1025 vertices, each scanned pairwise here
    curve = boundary_polygon(gallery_map("poly:z+0.3*zbar^2"), 2048)
    v = curve.vertices
    n = v.size
    pre = curve.arc_prefix()
    blocks, got = sample_vertex_pairs(curve, 24, seed=1)
    assert got == 24 and blocks[0][0] == n // 2
    want = 1.0
    for lag, starts in blocks:
        for i in starts:
            j = (i + lag) % n
            fwd = np.mod(pre[j] - pre[i], pre[-1])
            if fwd <= pre[-1] - fwd:
                window = v[np.arange(i, i + lag + 1) % n]
            else:
                window = v[np.arange(j, j + n - lag + 1) % n]
            diam = np.abs(window[:, None] - window[None, :]).max()
            want = max(want, diam / abs(v[j] - v[i]))
    assert quasicircle_constant(curve, pairs=24, seed=1) == want


def test_bare_square_vertex_pairs():
    # with only the 4 corners as probe vertices the worst pair is a
    # diagonal: arc 4 over chord 2 sqrt(2)
    sq = square_polygon()
    want_lav, want_qc = brute_force(sq.vertices)
    got = lavrentiev_constant(sq)
    assert got == want_lav == pytest.approx(math.sqrt(2.0))
    assert quasicircle_constant(sq) == want_qc == pytest.approx(1.0)


def test_quasicircle_bounded_by_lavrentiev():
    # a polygonal arc's diameter never exceeds its length
    for curve in (rectangle_polygon(2.0, 2.0, 16), u_polygon(),
                  ellipse_polygon(2.0, 1.0, 128), circle_polygon(128)):
        qc = quasicircle_constant(curve)
        lav = lavrentiev_constant(curve)
        assert qc <= lav + 1e-9


def test_pair_sampling_exhaustive_and_prefix_monotone():
    small = circle_polygon(64)
    blocks, got = sample_vertex_pairs(small, 10)
    assert got == 64 * 63 // 2  # exhaustive regardless of the budget
    big = circle_polygon(2048)
    _, got_500 = sample_vertex_pairs(big, 500)
    assert got_500 == 500
    # growing the budget only appends probes, so constants are monotone
    vals = [lavrentiev_constant(big, pairs=p) for p in (500, 5000, 20000)]
    assert vals[0] <= vals[1] <= vals[2]
    # the antipodal lag is visited first and alone nails the supremum
    assert vals[0] == pytest.approx(0.5 * math.pi, abs=1e-3)


def test_seeded_determinism():
    big = circle_polygon(2048)
    a = lavrentiev_constant(big, pairs=3000, seed=3)
    b = lavrentiev_constant(big, pairs=3000, seed=3)
    assert a == b
    c = quasicircle_constant(big, pairs=3000, seed=3)
    d = quasicircle_constant(big, pairs=3000, seed=3)
    assert c == d


def test_u_polygon_connectivity_exceeds_one():
    # the two prongs force paths around the notch
    got = linear_connectivity_constant(u_polygon(), point_pairs=12, grid=384,
                                       seed=1)
    assert 1.05 < got < 10.0


@pytest.mark.parametrize("grid", [5, 12])
def test_connectivity_refuses_when_no_pair_is_measured(grid):
    # no sampled pair lies 10 cells apart, so nothing is measured: the
    # floor 1.0 is not a measurement
    with pytest.raises(PathNotFound, match="no sampled pair"):
        linear_connectivity_constant(u_polygon(), point_pairs=12, grid=grid,
                                     seed=1)


def test_connectivity_validation():
    open_curve = PolygonalCurve(np.array([0.0, 1.0, 1.0j]), closed=False)
    with pytest.raises(ValidationError):
        linear_connectivity_constant(open_curve)


def test_connectivity_count_caps():
    circle = circle_polygon(64)
    for kw in ({"grid": 0}, {"grid": MAX_GRID + 1}, {"point_pairs": 0},
               {"point_pairs": MAX_POINT_PAIRS + 1}):
        with pytest.raises(ValidationError):
            linear_connectivity_constant(circle, **kw)
        with pytest.raises(ValidationError):
            curve_constants(circle, **kw)
    assert (MAX_GRID, MAX_POINT_PAIRS) == (2048, 4096)


def test_connectivity_caps_admit_the_maxima(monkeypatch):
    # the caps themselves pass validation; stop before the raster is built
    class Reached(Exception):
        pass

    def stop(curve, grid):
        raise Reached(grid)

    monkeypatch.setattr(cc_module, "_raster", stop)
    with pytest.raises(Reached):
        linear_connectivity_constant(circle_polygon(64), grid=MAX_GRID,
                                     point_pairs=MAX_POINT_PAIRS)


def _star(points=5, inner=0.45):
    t = math.pi * np.arange(2 * points) / points
    radius = np.where(np.arange(2 * points) % 2 == 0, 1.0, inner)
    return PolygonalCurve(radius * np.exp(1j * t))


def _strip():
    # a thin diagonal strip: most of its bounding box is outside
    return PolygonalCurve(np.array([0, 0.1, 4.1 + 4j, 4 + 4j]))


def _staircase(grid):
    """A unit square with a notch from the right and a step cut from
    the top-left.  Its horizontal edges lie on row ordinates and its
    vertical edges on column abscissae of its own raster, wherever four
    or more of them fall inside the square."""
    unit = _raster(PolygonalCurve(np.array([0, 1, 1 + 1j, 1j])), grid)[0]

    def at(t, values):
        inner = values[(values > 0) & (values < 1)]
        return inner[int(t * inner.size)] if inner.size >= 4 else t

    ya, yb, yc = (at(t, unit[:, 0].imag) for t in (0.25, 0.5, 0.75))
    xa, xb = (at(t, unit[0].real) for t in (0.25, 0.75))
    return PolygonalCurve(np.array([
        0, 1, 1 + 1j * ya, xb + 1j * ya, xb + 1j * yb, 1 + 1j * yb, 1 + 1j,
        xa + 1j, xa + 1j * yc, 1j * yc]))


def _diag(curve):
    v = curve.vertices
    return math.hypot(v.real.max() - v.real.min(),
                      v.imag.max() - v.imag.min())


def _full_grid_pair_diameters(cells, inside, cell, pts, diag):
    """The bisection labelling the whole raster at every step: the rule
    that _pair_diameters answers from its L/U bracket and cropped
    labels."""
    eight = np.ones((3, 3), dtype=int)
    out = []
    for k in range(len(pts) // 2):
        (za, ra, ca), (zb, rb, cb) = pts[2 * k], pts[2 * k + 1]
        d = abs(za - zb)
        if d < 10.0 * cell:
            continue
        da = np.abs(cells - za)
        db = np.abs(cells - zb)

        def feasible(D):
            labels, _ = ndimage.label(inside & (da <= D) & (db <= D),
                                      structure=eight)
            la = labels[ra, ca]
            return la != 0 and la == labels[rb, cb]

        assert feasible(2.0 * diag)
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


def _bits(pairs):
    return [(float(d).hex(), float(hi).hex()) for d, hi in pairs]


@pytest.mark.parametrize("curve", [
    circle_polygon(128), ellipse_polygon(3.0, 1.0, 300), square_polygon(),
    u_polygon(), _star()], ids=["circle", "ellipse", "square", "u", "star"])
def test_pair_diameters_equal_full_grid_labelling(curve):
    for grid in (64, 120, 200):
        for seed in range(3):
            cells, inside, cell = _raster(curve, grid)
            pts = _sample_interior(curve, cells, inside, 8, seed)
            args = (cells, inside, cell, pts, _diag(curve))
            got = _pair_diameters(*args)
            assert _bits(got) == _bits(_full_grid_pair_diameters(*args))
    assert linear_connectivity_constant(curve, 8, 200, 2) == max(
        [1.0] + [hi / d for d, hi in got])


def _unit_raster(grid=48):
    xs = np.arange(float(grid))
    return xs + 1j * xs[:, None], np.ones((grid, grid), dtype=bool), 1.0


def test_pair_diameters_step_at_the_lower_bound():
    # cell-centred endpoints on one row: d = L = U exactly, and
    # feasible(L) must hold without a label call
    cells, inside, cell = _unit_raster()
    pts = [(cells[20, 5], 20, 5), (cells[20, 30], 20, 30)]
    args = (cells, inside, cell, pts, 48.0 * math.sqrt(2.0))
    got = _pair_diameters(*args)
    assert got == [(25.0, 25.0)]
    assert _bits(got) == _bits(_full_grid_pair_diameters(*args))


def test_pair_diameters_crop_keeps_the_lens_edge():
    # a wall between a (row 5, col 30) and b (row 5, col 44); the only
    # way round runs along row 5 to col 10, through the connector cell
    # (6, 9), back along row 7 and down through (6, 44).  The connector
    # is 34.61 cells from zb, which sits 0.4 cell left of its cell
    # centre, so it lies 35 cells from b's column: inside the crop only
    # thanks to the one-cell margin.
    cells, inside, cell = _unit_raster()
    inside[:] = False
    inside[5, 10:31] = True
    inside[5, 44] = True
    inside[6, 9] = True
    inside[7, 10:45] = True
    inside[6, 44] = True
    pts = [(30.3 + 5j, 5, 30), (43.6 + 5j, 5, 44)]
    args = (cells, inside, cell, pts, 48.0 * math.sqrt(2.0))
    got = _pair_diameters(*args)
    assert _bits(got) == _bits(_full_grid_pair_diameters(*args))
    connector = abs(complex(9, 6) - pts[1][0])
    assert connector <= got[0][1] < 35.0


def test_pair_diameters_one_cell_wall():
    # the straight path from a to b crosses a wall one cell thick, so
    # the upper bound is inf and the detour round the wall's end counts
    cells, inside, cell = _unit_raster()
    inside[:41, 20] = False
    pts = [(cells[10, 13], 10, 13), (cells[10, 26], 10, 26)]
    args = (cells, inside, cell, pts, 48.0 * math.sqrt(2.0))
    got = _pair_diameters(*args)
    assert _bits(got) == _bits(_full_grid_pair_diameters(*args))
    assert got[0][1] > 2.0 * got[0][0]


def test_raster_line_is_eight_connected():
    rng = np.random.default_rng(0)
    ends = [(0, 0, 0, 0), (3, 4, 3, 4), (0, 0, 0, 7), (9, 1, 2, 1),
            (0, 0, 5, 5), (7, 2, 0, 9)] + [
        tuple(int(k) for k in rng.integers(0, 40, 4)) for _ in range(200)]
    for ra, ca, rb, cb in ends:
        rows, cols = _raster_line(ra, ca, rb, cb)
        assert (rows[0], cols[0], rows[-1], cols[-1]) == (ra, ca, rb, cb)
        steps = np.maximum(np.abs(np.diff(rows)), np.abs(np.diff(cols)))
        assert (steps == 1).all()


def test_circle_connectivity_needs_few_labels(monkeypatch):
    calls = []
    label = ndimage.label

    def counting(*args, **kwargs):
        calls.append(1)
        return label(*args, **kwargs)

    monkeypatch.setattr(ndimage, "label", counting)
    got = linear_connectivity_constant(circle_polygon(512), grid=512)
    assert 1.0 <= got < 1.01
    # the full-grid bisection labels ~170 times here
    assert len(calls) <= 16


def _scalar_sample(boundary, cells, inside, point_pairs, seed):
    """One trial at a time: x then y, a containment call per point and
    the nearest cell by argmin."""
    v = boundary.vertices
    x0, x1 = v.real.min(), v.real.max()
    y0, y1 = v.imag.min(), v.imag.max()
    rng = np.random.default_rng(seed)
    pts = []
    trials = 0
    while len(pts) < 2 * point_pairs and trials < 200 * point_pairs:
        trials += 1
        z = complex(rng.uniform(x0, x1), rng.uniform(y0, y1))
        if not points_in_polygon(np.array([z]), boundary)[0]:
            continue
        c = int(np.argmin(np.abs(cells[0].real - z.real)))
        r = int(np.argmin(np.abs(cells[:, 0].imag - z.imag)))
        if inside[r, c]:
            pts.append((z, r, c))
    return pts if len(pts) == 2 * point_pairs else None


@pytest.mark.parametrize("curve,grid", [
    (circle_polygon(64), 64), (u_polygon(), 200), (_star(), 120),
    (ellipse_polygon(3.0, 1.0, 300), 512),
    # a diagonal strip: most trials miss it, so the sample takes many
    # blocks, and at seed 2 one pair runs out of trials
    (_strip(), 64)])
def test_sampling_equals_trial_by_trial_loop(curve, grid):
    cells, inside, _ = _raster(curve, grid)
    for seed in range(3):
        for pairs in (1, 5, 16):
            want = _scalar_sample(curve, cells, inside, pairs, seed)
            if want is None:
                with pytest.raises(PathNotFound):
                    _sample_interior(curve, cells, inside, pairs, seed)
            else:
                got = _sample_interior(curve, cells, inside, pairs, seed)
                assert got == want


def test_cell_of_matches_argmin():
    cells, _, _ = _raster(u_polygon(), 37)
    xs, ys = cells[0].real, cells[:, 0].imag
    rng = np.random.default_rng(2)
    # random points, cell centres, midpoints between them (ties go to
    # the lower index) and points beyond the raster
    x = np.concatenate([rng.uniform(-1, 4, 300), xs, 0.5 * (xs[1:] + xs[:-1]),
                        [-1e9, 1e9]])
    y = np.concatenate([rng.uniform(-1, 4, 300), ys, 0.5 * (ys[1:] + ys[:-1]),
                        [1e9, -1e9]])
    rows, cols = _cell_of(x + 1j * y, cells)
    for k in range(x.size):
        assert cols[k] == np.argmin(np.abs(xs - x[k]))
        assert rows[k] == np.argmin(np.abs(ys - y[k]))


def test_ahlfors_square_vertex_probe():
    # center at the centroid, radius sqrt(2): the disk contains the
    # whole square, giving 8 / sqrt(2) = 4 sqrt(2)
    got = ahlfors_constant(square_polygon())
    assert got >= 4.0 * math.sqrt(2.0) - 1e-9
    assert got < 8.0


def test_counters_and_report():
    counts = {}
    lavrentiev_constant(square_polygon(), counters=counts)
    assert counts["pairs"] == 6
    assert counts["degenerate_pairs"] == 0
    rep = curve_constants(rectangle_polygon(2.0, 2.0, 4), point_pairs=6,
                          grid=192)
    assert isinstance(rep, CurveConstantsReport)
    assert rep.lavrentiev_M >= rep.quasicircle_M >= 1.0
    assert 1.0 <= rep.linear_conn_M < 1.05
    assert rep.sample_counts["pairs"] == 16 * 15 // 2
    assert rep.sample_counts["grid"] == 192


def test_lemma_c_consistency_family():
    fam = [circle_polygon(64), rectangle_polygon(2.0, 2.0, 8), u_polygon(4)]
    assert lemma_c_consistent(fam)


@pytest.mark.parametrize("grid", [1, 2, 37, 64, 512])
def test_raster_rows_equal_points_in_polygon(grid):
    """Row-parity containment gives, cell for cell, what the even-odd
    test of the cell centres gives, ties and horizontal edges
    included."""
    stairs = _staircase(grid)
    for curve in (circle_polygon(128), ellipse_polygon(3.0, 1.0, 300),
                  square_polygon(), u_polygon(), _star(), _strip(), stairs):
        cells, inside, _ = _raster(curve, grid)
        want = points_in_polygon(cells.ravel(), curve).reshape(cells.shape)
        assert np.array_equal(inside, want)
    if grid >= 37:
        cells = _raster(stairs, grid)[0]
        v = stairs.vertices
        # all but the four on the square's edges
        assert np.isin(v.imag, cells[:, 0].imag).sum() == 6
        assert np.isin(v.real, cells[0].real).sum() == 4


def _ahlfors_per_radius(curve, centers, radii):
    """One radius at a time over 1-d segment arrays: the rule that
    ahlfors_constant evaluates as (radii, segments) blocks."""
    p, q = curve.segments()
    u = q - p
    seglen = np.abs(u)
    fracs = cc_module._RADIUS_FRACTIONS[:radii]
    best = 0.0
    for w in cc_module._ahlfors_centers(curve, centers):
        maxdist = float(np.abs(curve.vertices - w).max())
        if maxdist < 1e-12:
            continue
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
    return best


def test_ahlfors_blocks_equal_per_radius_loop(monkeypatch):
    poly = boundary_polygon(gallery_map("poly:z+0.3*zbar^2"), 2048)
    # every center of the star and the U-shape at (300, 3)
    probes = [(1, 1), (7, 14), (300, 3), (129, 6)]
    for curve in (circle_polygon(512), u_polygon(), _star(), poly):
        want = {cr: _ahlfors_per_radius(curve, *cr) for cr in probes}
        for cr in probes:
            assert ahlfors_constant(curve, *cr) == want[cr]
        # blocks of one, two and five radii
        for rows in (1, 2, 5):
            monkeypatch.setattr(cc_module, "BLOCK_CELLS",
                                rows * curve.vertices.size)
            for cr in probes:
                assert ahlfors_constant(curve, *cr) == want[cr]
        monkeypatch.undo()


def test_ahlfors_block_split_at_full_size():
    # 14 radii of this many segments exceed 2^21 cells: two blocks
    curve = circle_polygon((1 << 21) // MAX_RADII + 1)
    assert cc_module.BLOCK_CELLS == 1 << 21
    assert ahlfors_constant(curve, 2, MAX_RADII) == _ahlfors_per_radius(
        curve, 2, MAX_RADII)


def _gather_pair_constants(curve, pairs, seed):
    """Lavrentiev and quasicircle constants from per-block index
    gathers v[j], pre[j] with j = (i + lag) % n: the rule that the
    library reads from ring slices."""
    v = curve.vertices
    n = v.size
    pre = curve.arc_prefix()
    total = pre[-1]
    blocks, _ = sample_vertex_pairs(curve, pairs, seed)
    lav = 1.0
    bases, sizes, chords = [], [], []
    for lag, starts in blocks:
        i = starts
        j = (starts + lag) % n
        arc_f = np.mod(pre[j] - pre[i], total)
        arc_b = total - arc_f
        chord = np.abs(v[j] - v[i])
        fwd = arc_f <= arc_b
        shorter = np.where(fwd, arc_f, arc_b)
        ok = chord >= 1e-12
        if np.any(ok):
            lav = max(lav, float((shorter[ok] / chord[ok]).max()))
        bases.append(np.where(fwd, i, j)[ok])
        sizes.append(np.where(fwd, lag + 1, n - lag + 1)[ok])
        chords.append(chord[ok])
    diam = _arc_diameters(v, np.concatenate(bases), np.concatenate(sizes))
    return lav, max(1.0, float((diam / np.concatenate(chords)).max()))


@pytest.mark.parametrize("n", [300, 1024, 1025, 2048])
def test_pair_constants_equal_gather_version(n):
    curve = boundary_polygon(gallery_map("poly:z+0.3*zbar^2"), n)
    for seed in range(3):
        for pairs in (20000, 3000):
            lav, qc = _gather_pair_constants(curve, pairs, seed)
            assert lavrentiev_constant(curve, pairs, seed) == lav
            assert quasicircle_constant(curve, pairs, seed) == qc


def test_report_shares_one_pair_sample():
    curve = boundary_polygon(gallery_map("poly:z+0.3*zbar^2"), 1500)
    counts = {}
    lav = lavrentiev_constant(curve, 5000, 2, counters=counts)
    rep = curve_constants(curve, pairs=5000, point_pairs=2, grid=64, seed=2)
    assert rep.lavrentiev_M == lav
    assert rep.quasicircle_M == quasicircle_constant(curve, 5000, 2)
    assert rep.ahlfors_M == ahlfors_constant(curve)
    assert {k: rep.sample_counts[k] for k in counts} == counts


@pytest.mark.parametrize("kw,message", [
    ({"pairs": 0}, "pairs must be 1 to 2096128, got 0"),
    ({"pairs": MAX_PAIRS + 1}, "pairs must be 1 to 2096128, got 2096129"),
    ({"centers": 0}, "centers must be 1 to 4097, got 0"),
    ({"centers": MAX_CENTERS + 1}, "centers must be 1 to 4097, got 4098"),
    ({"radii": 0}, "radii must be 1 to 14, got 0"),
    ({"radii": MAX_RADII + 1}, "radii must be 1 to 14, got 15")])
def test_probe_count_caps(kw, message):
    circle = circle_polygon(64)
    funcs = [curve_constants]
    funcs += ([lavrentiev_constant, quasicircle_constant,
               lambda c, **k: lemma_c_consistent([c], **k)]
              if "pairs" in kw else [ahlfors_constant])
    for fn in funcs:
        with pytest.raises(ValidationError, match=f"^{message}$"):
            fn(circle, **kw)
    assert (MAX_PAIRS, MAX_CENTERS, MAX_RADII) == (2048 * 2047 // 2,
                                                   4097, 14)


def test_probe_count_caps_admit_the_maxima(monkeypatch):
    # the caps themselves pass validation; stop before any work
    class Reached(Exception):
        pass

    def stop(*args):
        raise Reached

    circle = circle_polygon(64)
    monkeypatch.setattr(cc_module, "sample_vertex_pairs", stop)
    monkeypatch.setattr(cc_module, "_ahlfors_centers", stop)
    for call in (
            lambda: lavrentiev_constant(circle, pairs=MAX_PAIRS),
            lambda: quasicircle_constant(circle, pairs=MAX_PAIRS),
            lambda: lemma_c_consistent([circle], pairs=MAX_PAIRS),
            lambda: ahlfors_constant(circle, MAX_CENTERS, MAX_RADII),
            lambda: curve_constants(circle, MAX_PAIRS, MAX_CENTERS,
                                    MAX_RADII, MAX_POINT_PAIRS, MAX_GRID)):
        with pytest.raises(Reached):
            call()
