"""Empirical curve constants: closed forms, brute-force twins, and
probe-set properties."""

import importlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from harmonicdisk import (CurveConstantsReport, PathNotFound, ValidationError,
                          ahlfors_constant, boundary_polygon,
                          crosscut_integral, curve_constants, gallery_map,
                          lavrentiev_constant,
                          linear_connectivity_constant, quasicircle_constant)
from harmonicdisk.curve_constants import (MAX_CENTERS, MAX_PAIRS,
                                          MAX_POINT_PAIRS, MAX_RADII,
                                          _cell_of,
                                          _components, _pair_diameters,
                                          _raster,
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
    got, measured = linear_connectivity_constant(circle_polygon(128),
                                                 point_pairs=8)
    assert 1.0 <= got < 1.03
    assert 1 <= measured <= 8


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
    for lag, count in blocks:
        for i in range(count):
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
    got, _ = linear_connectivity_constant(u_polygon(), point_pairs=12,
                                          seed=1)
    assert 1.05 < got < 10.0


@pytest.mark.parametrize("point_pairs", [5, 12])
def test_connectivity_refuses_when_no_pair_is_measured(monkeypatch,
                                                       point_pairs):
    # every sampled pair lies 9 cells apart, so nothing is measured: the
    # floor 1.0 is not a measurement
    def close_pairs(boundary, xs, ys, inside, count, seed):
        assert count == point_pairs
        rows, cols = np.nonzero(inside)
        r, c = rows[rows.size // 2], cols[rows.size // 2]
        pair = [(complex(xs[c], ys[r]), r, c),
                (complex(xs[c] + 9 * (xs[1] - xs[0]), ys[r]), r, c + 9)]
        return pair * count

    monkeypatch.setattr(cc_module, "_sample_interior", close_pairs)
    with pytest.raises(PathNotFound, match="^no sampled pair is at least "
                       "10 cells apart at grid 512; nothing was measured$"):
        linear_connectivity_constant(u_polygon(), point_pairs=point_pairs,
                                     seed=1)


def test_connectivity_count_caps():
    circle = circle_polygon(64)
    for kw in ({"point_pairs": 0}, {"point_pairs": MAX_POINT_PAIRS + 1}):
        with pytest.raises(ValidationError):
            linear_connectivity_constant(circle, **kw)
        with pytest.raises(ValidationError):
            curve_constants(circle, **kw)
    assert MAX_POINT_PAIRS == 4096


def test_connectivity_caps_admit_the_maxima(monkeypatch):
    # the caps themselves pass validation; stop before the raster is built
    class Reached(Exception):
        pass

    def stop(curve, grid):
        raise Reached(grid)

    monkeypatch.setattr(cc_module, "_raster", stop)
    with pytest.raises(Reached) as reached:
        linear_connectivity_constant(circle_polygon(64),
                                     point_pairs=MAX_POINT_PAIRS)
    # the one raster size
    assert reached.value.args == (512,)


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
    xs, ys = _raster(PolygonalCurve(np.array([0, 1, 1 + 1j, 1j])), grid)[:2]

    def at(t, values):
        inner = values[(values > 0) & (values < 1)]
        return inner[int(t * inner.size)] if inner.size >= 4 else t

    ya, yb, yc = (at(t, ys) for t in (0.25, 0.5, 0.75))
    xa, xb = (at(t, xs) for t in (0.25, 0.75))
    return PolygonalCurve(np.array([
        0, 1, 1 + 1j * ya, xb + 1j * ya, xb + 1j * yb, 1 + 1j * yb, 1 + 1j,
        xa + 1j, xa + 1j * yc, 1j * yc]))


def _diag(curve):
    v = curve.vertices
    return math.hypot(v.real.max() - v.real.min(),
                      v.imag.max() - v.imag.min())


def _full_grid_pair_diameters(xs, ys, inside, cell, pts, diag):
    """The bisection labelling the whole raster at every step: the rule
    that _pair_diameters answers from its L/U bracket and cropped
    labels."""
    cells = xs + 1j * ys[:, None]
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
            xs, ys, inside, cell = _raster(curve, grid)
            pts = _sample_interior(curve, xs, ys, inside, 8, seed)
            args = (xs, ys, inside, cell, pts, _diag(curve))
            got = _pair_diameters(*args)
            assert _bits(got) == _bits(_full_grid_pair_diameters(*args))
    # the library's constant is the largest ratio on its 512 x 512 raster
    xs, ys, inside, cell = _raster(curve, 512)
    pts = _sample_interior(curve, xs, ys, inside, 8, 2)
    got = _pair_diameters(xs, ys, inside, cell, pts, _diag(curve))
    assert linear_connectivity_constant(curve, 8, 2) == (
        max([1.0] + [hi / d for d, hi in got]), len(got))


def test_pair_diameters_equal_full_grid_labelling_at_grid_512():
    # the benchmark's raster and pair count, where most pairs of the U
    # take the component label, the memo and the first probes
    curve = u_polygon()
    xs, ys, inside, cell = _raster(curve, 512)
    for seed in range(3):
        pts = _sample_interior(curve, xs, ys, inside, 16, seed)
        args = (xs, ys, inside, cell, pts, _diag(curve))
        assert _bits(_pair_diameters(*args)) == _bits(
            _full_grid_pair_diameters(*args))


def test_diag_bounds_w_on_every_inside_cell():
    # _pair_diameters connects every step from diag + cell on when one
    # component holds both endpoints: that needs w <= diag
    for curve in (circle_polygon(128), ellipse_polygon(3.0, 1.0, 300),
                  square_polygon(), u_polygon(), _star()):
        for grid in (64, 200, 512):
            xs, ys, inside, _ = _raster(curve, grid)
            z = (xs + 1j * ys[:, None])[inside]
            for seed in range(3):
                pts = _sample_interior(curve, xs, ys, inside, 8, seed)
                far = max(float(np.abs(z - p[0]).max()) for p in pts)
                assert far <= _diag(curve)


def _unit_raster(grid=48):
    """(xs, ys, inside, cell) of a raster of unit cells, all inside, and
    its cell centres."""
    xs = np.arange(float(grid))
    return ((xs, xs, np.ones((grid, grid), dtype=bool), 1.0),
            xs + 1j * xs[:, None])


def _count_labels(monkeypatch):
    """The masks _components is called on, in call order."""
    calls = []
    components = cc_module._components

    def counting(mask, *args, **kwargs):
        calls.append(mask)
        return components(mask, *args, **kwargs)

    monkeypatch.setattr(cc_module, "_components", counting)
    return calls


def test_pair_diameters_step_at_the_lower_bound():
    # cell-centred endpoints on one row: d = L = U exactly, and
    # feasible(L) must hold without a label call
    (xs, ys, inside, cell), cells = _unit_raster()
    pts = [(cells[20, 5], 20, 5), (cells[20, 30], 20, 30)]
    args = (xs, ys, inside, cell, pts, 48.0 * math.sqrt(2.0))
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
    (xs, ys, inside, cell), cells = _unit_raster()
    inside[:] = False
    inside[5, 10:31] = True
    inside[5, 44] = True
    inside[6, 9] = True
    inside[7, 10:45] = True
    inside[6, 44] = True
    pts = [(30.3 + 5j, 5, 30), (43.6 + 5j, 5, 44)]
    args = (xs, ys, inside, cell, pts, 48.0 * math.sqrt(2.0))
    got = _pair_diameters(*args)
    assert _bits(got) == _bits(_full_grid_pair_diameters(*args))
    connector = abs(complex(9, 6) - pts[1][0])
    assert connector <= got[0][1] < 35.0


def _leaf_tops(d, cell, diag):
    """The his of a run of connecting bisection steps: the tops of the
    lowest 2^k, ..., 2, 1 leaves, the lowest leaf's top last."""
    tops = [2.0 * diag]
    while tops[-1] - d > max(1e-3 * d, 0.25 * cell):
        tops.append(0.5 * (d + tops[-1]))
    return tops


@pytest.mark.parametrize("half, probe, labels", [
    (1, 1, 3), (2, 1, 3), (3, 2, 4), (4, 3, 6), (5, 3, 6)],
    ids=["lowest leaf", "lowest leaf, taller wall", "2nd leaf", "3rd leaf",
         "4th leaf"])
def test_pair_diameters_probe_labels(monkeypatch, half, probe, labels):
    # a wall in column 14, rows 10 - half .. 10 + half, just right of a:
    # the taller the wall, the further a's way round it.  The labels are
    # the component label, the step at d and the tops of the lowest 1,
    # 2, 4, ... leaves up to the probe-th, the first that connects; hi
    # lies above the probe below it.  The bisection without the memo,
    # the component label and the probes labelled 11 times in each case.
    (xs, ys, inside, cell), cells = _unit_raster()
    inside[10 - half:11 + half, 14] = False
    pts = [(cells[10, 13], 10, 13), (cells[10, 26], 10, 26)]
    args = (xs, ys, inside, cell, pts, 48.0 * math.sqrt(2.0))
    calls = _count_labels(monkeypatch)
    got = _pair_diameters(*args)
    assert len(calls) == labels
    assert calls[0] is inside
    assert _bits(got) == _bits(_full_grid_pair_diameters(*args))
    (d, hi), = got
    tops = _leaf_tops(d, cell, args[-1])
    assert (tops[1 - probe] if probe > 1 else d) < hi <= tops[-probe]


def test_pair_diameters_far_corner_detour(monkeypatch):
    # a at (0, 0) reaches b at (0, 12) only along the raster's rim, which
    # cuts the corner (47, 47) through (47, 46), hypot(47, 46) from a: an
    # answer near the cells' diagonal, so a cap of the steps below it
    # answers wrongly.  The bisection without the shortcuts labels 11
    # times; the probes up to the lower half's top, then the bisection
    # of the upper half, take 17.
    (xs, ys, inside, cell), cells = _unit_raster()
    inside[:] = False
    inside[:, 0] = inside[47, :] = inside[:, 47] = inside[0, 12:] = True
    pts = [(cells[0, 0], 0, 0), (cells[0, 12], 0, 12)]
    args = (xs, ys, inside, cell, pts, 48.0 * math.sqrt(2.0))
    calls = _count_labels(monkeypatch)
    got = _pair_diameters(*args)
    assert len(calls) == 17
    assert _bits(got) == _bits(_full_grid_pair_diameters(*args))
    (d, hi), = got
    assert math.hypot(47.0, 46.0) <= hi <= _leaf_tops(d, cell, args[-1])[1]


def test_pair_diameters_one_cell_wall(monkeypatch):
    # the straight path from a to b crosses a wall one cell thick, so
    # the upper bound is inf and the detour round the wall's end counts.
    # The probes climb to the 8th, then the bisection runs in its top
    # leaves: 16 labels, where the bisection without the shortcuts took 11
    (xs, ys, inside, cell), cells = _unit_raster()
    inside[:41, 20] = False
    pts = [(cells[10, 13], 10, 13), (cells[10, 26], 10, 26)]
    args = (xs, ys, inside, cell, pts, 48.0 * math.sqrt(2.0))
    calls = _count_labels(monkeypatch)
    got = _pair_diameters(*args)
    assert len(calls) == 16
    assert _bits(got) == _bits(_full_grid_pair_diameters(*args))
    assert got[0][1] > 2.0 * got[0][0]


def test_pair_diameters_refuses_a_cut_raster(monkeypatch):
    # a full-height wall between a and b: the component label alone
    # refuses the pair, before any crop box is built or labelled
    (xs, ys, inside, cell), cells = _unit_raster()
    inside[:, 20] = False
    pts = [(cells[10, 13], 10, 13), (cells[10, 26], 10, 26)]
    calls = _count_labels(monkeypatch)
    with pytest.raises(PathNotFound,
                       match=r"^no raster path between 13\.0000\+10\.0000j "
                             r"and 26\.0000\+10\.0000j$"):
        _pair_diameters(xs, ys, inside, cell, pts, 48.0 * math.sqrt(2.0))
    assert len(calls) == 1 and calls[0] is inside


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


def _same_partition(got, want):
    """Whether two id arrays of the same cells, -1 off the mask, split
    the cells alike."""
    if not np.array_equal(got < 0, want < 0):
        return False
    pairs = {(int(g), int(w)) for g, w in zip(got, want) if w >= 0}
    return (len(pairs) == len({g for g, _ in pairs})
            == len({w for _, w in pairs}))


def _agrees_with_ndimage(mask):
    """_components of every cell against ndimage.label with the 3 x 3
    structure, whose label 0 is off the mask."""
    labels, _ = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
    rows, cols = np.indices(mask.shape).reshape(2, -1)
    return _same_partition(_components(mask, rows, cols),
                           labels[rows, cols] - 1)


def test_components_match_ndimage_on_random_masks():
    rng = np.random.default_rng(0)
    for _ in range(1200):
        shape = rng.integers(1, 40, size=2)
        assert _agrees_with_ndimage(rng.random(shape)
                                    < rng.uniform(0.2, 0.8))


def test_components_edge_cases():
    for mask in (np.zeros((6, 5), dtype=bool), np.ones((6, 5), dtype=bool),
                 np.ones((1, 9), dtype=bool), np.ones((9, 1), dtype=bool),
                 np.array([[1, 0, 1, 1, 0, 1, 0]], dtype=bool),
                 np.array([[1], [1], [0], [1]], dtype=bool)):
        assert _agrees_with_ndimage(mask)
    assert (_components(np.zeros((6, 5), dtype=bool), [0, 5], [0, 4])
            == -1).all()
    # cells that touch only at corners are one component
    diagonal = np.eye(7, dtype=bool) | np.eye(7, k=3, dtype=bool)
    assert _agrees_with_ndimage(diagonal)
    ids = _components(diagonal, [0, 6, 0, 3, 2], [0, 6, 3, 6, 0])
    assert ids[0] == ids[1] != ids[2] == ids[3] and ids[4] == -1
    # a run ending at the last column above one starting at column 0
    # lies next to it in the flat cells, not in the mask
    wrap = np.array([[0, 0, 0, 1], [1, 0, 0, 0]], dtype=bool)
    la, lb = _components(wrap, [0, 1], [3, 0])
    assert la >= 0 and lb >= 0 and la != lb
    # the same masks in both orientations: rows of runs, and columns
    stairs = np.zeros((20, 32), dtype=bool)
    for k in range(0, 20, 2):
        stairs[k, k:k + 12] = True
        stairs[k + 1, k + 12] = True
    for mask in (stairs, stairs.T, ~stairs, ~stairs.T):
        assert _agrees_with_ndimage(mask)


def _spiral(n):
    """One-cell path of an n x n square spiral, one cell between
    turns."""
    mask = np.zeros((n, n), dtype=bool)
    r = c = 0
    steps = [n - 1] + [n - 1 - 2 * (k // 2) for k in range(2 * n)]
    for k, length in enumerate(steps):
        if length <= 0:
            break
        dr, dc = ((0, 1), (1, 0), (0, -1), (-1, 0))[k % 4]
        mask[r + dr * np.arange(length + 1), c + dc * np.arange(length + 1)] \
            = True
        r, c = r + dr * length, c + dc * length
    return mask


def test_components_on_large_masks():
    # a comb of one-cell teeth: 130,817 runs along rows, 512 along columns
    comb = np.zeros((512, 512), dtype=bool)
    comb[:, ::2] = True
    comb[0] = True
    spiral = _spiral(512)
    percolation = np.random.default_rng(1).random((512, 512)) < 0.42
    for mask in (comb, comb.T, spiral, spiral.T, percolation):
        assert _agrees_with_ndimage(mask)
    # one path, from the outer corner to the centre
    assert np.unique(_components(spiral, *np.nonzero(spiral))).size == 1
    assert _components(spiral, [0, 1], [0, 1]).tolist()[1] == -1


def test_circle_connectivity_needs_few_labels(monkeypatch):
    calls = _count_labels(monkeypatch)
    got, _ = linear_connectivity_constant(circle_polygon(512))
    assert 1.0 <= got < 1.01
    # the full-grid bisection labels ~170 times here
    assert len(calls) <= 16


def test_u_connectivity_label_ceiling(monkeypatch):
    # the benchmark's U at grid 512: the component label, the memo and
    # the first probes take 116 labels over seeds 0-2, where the plain
    # bisection took 184 and one without the probes 154
    calls = _count_labels(monkeypatch)
    for seed in range(3):
        linear_connectivity_constant(u_polygon(), seed=seed)
    assert len(calls) <= 120


def _scalar_sample(boundary, xs, ys, inside, point_pairs, seed):
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
        c = int(np.argmin(np.abs(xs - z.real)))
        r = int(np.argmin(np.abs(ys - z.imag)))
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
    xs, ys, inside, _ = _raster(curve, grid)
    for seed in range(3):
        for pairs in (1, 5, 16):
            want = _scalar_sample(curve, xs, ys, inside, pairs, seed)
            if want is None:
                with pytest.raises(PathNotFound):
                    _sample_interior(curve, xs, ys, inside, pairs, seed)
            else:
                got = _sample_interior(curve, xs, ys, inside, pairs, seed)
                assert got == want


def test_cell_of_matches_argmin():
    xs, ys = _raster(u_polygon(), 37)[:2]
    rng = np.random.default_rng(2)
    # random points, cell centres, midpoints between them (ties go to
    # the lower index) and points beyond the raster
    x = np.concatenate([rng.uniform(-1, 4, 300), xs, 0.5 * (xs[1:] + xs[:-1]),
                        [-1e9, 1e9]])
    y = np.concatenate([rng.uniform(-1, 4, 300), ys, 0.5 * (ys[1:] + ys[:-1]),
                        [1e9, -1e9]])
    rows, cols = _cell_of(x + 1j * y, xs, ys)
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
    rep = curve_constants(rectangle_polygon(2.0, 2.0, 4), point_pairs=6)
    assert isinstance(rep, CurveConstantsReport)
    assert rep.lavrentiev_M >= rep.quasicircle_M >= 1.0
    assert 1.0 <= rep.linear_conn_M < 1.05
    counts = dict(rep.sample_counts)
    assert 1 <= counts.pop("conn_pairs") <= 6
    # 16 vertices: every pair, 16 vertices + 16 midpoints + the centroid
    assert counts == {"pairs": 16 * 15 // 2, "degenerate_pairs": 0,
                      "centers": 33, "radii": 6, "grid": 512}


@pytest.mark.parametrize("grid", [1, 2, 37, 64, 512])
def test_raster_rows_equal_points_in_polygon(grid):
    """Row-parity containment gives, cell for cell, what the even-odd
    test of the cell centres gives, ties and horizontal edges
    included."""
    stairs = _staircase(grid)
    for curve in (circle_polygon(128), ellipse_polygon(3.0, 1.0, 300),
                  square_polygon(), u_polygon(), _star(), _strip(), stairs):
        xs, ys, inside, _ = _raster(curve, grid)
        cells = xs + 1j * ys[:, None]
        want = points_in_polygon(cells.ravel(), curve).reshape(cells.shape)
        assert np.array_equal(inside, want)
    if grid >= 37:
        xs, ys = _raster(stairs, grid)[:2]
        v = stairs.vertices
        # all but the four on the square's edges
        assert np.isin(v.imag, ys).sum() == 6
        assert np.isin(v.real, xs).sum() == 4


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
        # blocks of one, two and five radii of one center, and of whole
        # centers, two or more a block
        for rows in (1, 2, 5, 2 * MAX_RADII):
            monkeypatch.setattr(cc_module, "_AHLFORS_CELLS",
                                rows * curve.vertices.size)
            for cr in probes:
                assert ahlfors_constant(curve, *cr) == want[cr]
        monkeypatch.undo()


def test_ahlfors_block_split_at_full_size():
    # 14 radii of this many segments exceed a block: one center a
    # block, its radii in blocks of 13 and 1
    curve = circle_polygon(cc_module._AHLFORS_CELLS // MAX_RADII + 1)
    assert cc_module._AHLFORS_CELLS == 1 << 15
    assert ahlfors_constant(curve, 2, MAX_RADII) == _ahlfors_per_radius(
        curve, 2, MAX_RADII)


def _there_and_back(v):
    """The ring v[0], ..., v[-1], ..., v[1]: the polyline through v and
    back along itself."""
    return PolygonalCurve(np.concatenate([v, v[-2:0:-1]]))


def _ahlfors_fuzz_cases():
    """Seeded polygons that probe the Ahlfors classification: random
    polygons, and rings that run the same vertices there and back, so
    that every side also runs from its end to its start; vertices
    exactly on a probe circle and sides tangent to one; collinear runs;
    segments of 1e-9 and 1e-140 of the extent (the latter below
    _AHLFORS_TINY); each also translated by 1e6, where the coordinates
    dwarf the extent."""
    rng = np.random.default_rng(20)
    cases = []
    for n in (3, 4, 7, 16, 40):
        for _ in range(3):
            v = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
            cases += [PolygonalCurve(v), _there_and_back(v)]
    # the centroid 0: (0, 1) lies on r = 0.5 maxdist, and the 8 x 6
    # rectangle's long sides touch r = 0.6 * 5 = 3, at a vertex when the
    # sides are split in two and four
    cases += [PolygonalCurve(np.array([2, 1j, -2, -1j])),
              rectangle_polygon(8.0, 6.0), rectangle_polygon(8.0, 6.0, 2),
              rectangle_polygon(8.0, 6.0, 3), rectangle_polygon(8.0, 6.0, 4)]
    # collinear runs: sides split at random points
    for n in (5, 13):
        t = np.sort(rng.uniform(0, 1, n))
        cases.append(PolygonalCurve(np.concatenate(
            [3 * t, 3 + 2j * t, (3 + 2j) * t[::-1]])))
    near_zero = []
    for tiny, into in ((1e-9, cases), (1e-140, near_zero)):
        v = rng.uniform(-1, 1, 12) + 1j * rng.uniform(-1, 1, 12)
        # from 0, where a step of 1e-140 is representable
        v[4], v[5] = 0.0, tiny * (0.6 + 0.8j)
        into += [PolygonalCurve(v), _there_and_back(v)]
    # a segment of 1e-140 does not survive the translation
    return cases + near_zero + [
        PolygonalCurve(c.vertices + 1e6 * (1 + 1j)) for c in cases]


def test_ahlfors_fuzz_equals_per_radius_loop():
    # every probe of every case takes the crossing-segment rows, which
    # must give the per-radius loop's doubles
    for curve in _ahlfors_fuzz_cases():
        n = curve.vertices.size
        for centers, radii in ((1, 1), (2 * n + 1, 8), (2 * n + 1, 14),
                               (n, 6)):
            assert ahlfors_constant(curve, centers, radii) == (
                _ahlfors_per_radius(curve, centers, radii))


def test_ahlfors_sides_below_tiny_add_zero():
    # a side whose |u|^2 lies below _AHLFORS_TINY adds +0; at 1e-170 its
    # |u|^2 underflows to 0, by which the formula divided (a warning,
    # which this suite makes an error).  The constant keeps the bits the
    # formula gives at 1e-140, where it divides by no zero
    for side in (1e-170, 3e-162, 1e-140):
        curve = PolygonalCurve(np.array([0, side, 1, 1 + 1j, 1j]))
        assert ahlfors_constant(curve) == float.fromhex(
            "0x1.2db2eaabf5c80p+2")


def _benchmark_curves():
    return {"circle512": circle_polygon(512),
            "ellipse256": ellipse_polygon(2, 1, 256),
            "u": u_polygon(), "square": square_polygon()}


def test_constants_are_scale_invariant():
    # the curve times 2^k is the same curve to every constant, at scales
    # where its chords underflowed 1e-12 (k = -200), its 4th powers
    # overflowed (k = 400) and the raster lost its cells (k = 900).  At
    # k = -1000 the coordinates of the circle, the ellipse and the poly
    # boundary of order 1e-16 round into subnormals; their constants
    # still keep their bits
    poly = boundary_polygon(gallery_map("poly:z+0.3*zbar^2"), 2048)
    scales = (-1000, -600, -200, -40, 400, 900)

    def scaled(curve, k):
        return PolygonalCurve(np.ldexp(curve.vertices.view(float),
                                       k).view(complex))

    for curve in [*_benchmark_curves().values(), poly]:
        pair_ahlfors = (lavrentiev_constant(curve), quasicircle_constant(
            curve), ahlfors_constant(curve))
        small = curve.vertices.size <= 512
        conn = linear_connectivity_constant(curve) if small else None
        for k in scales:
            other = scaled(curve, k)
            assert (lavrentiev_constant(other), quasicircle_constant(other),
                    ahlfors_constant(other)) == pair_ahlfors, k
            if small:
                assert linear_connectivity_constant(other) == conn, k


def _arc_diameters(v, base, size):
    """Exact diameter of each polygonal window v[base], ...,
    v[base + size - 1] (indices mod n), all windows at once.

    Runs D(s, L) = max(D(s, L-1), D(s+1, L-1), |v_s - v_{s+L-1}|) over
    all n starts, from L = 2 up to the largest requested size, and reads
    off each window, found by argsort and searchsorted, when L reaches
    its size: the all-pairs version of the recurrence that the library
    reads one size at a time.
    """
    n = v.size
    out = np.empty(base.size)
    order = np.argsort(size, kind="stable")
    w_max = int(size[order[-1]])
    # order[first[L]:first[L + 1]] are the windows of size L
    first = np.searchsorted(size[order], np.arange(w_max + 2))
    ring = np.concatenate([v, v[:w_max]])
    prev = np.zeros(n + 1)
    for L in range(2, w_max + 1):
        cur = np.maximum(prev[:n], prev[1:])
        cur = np.maximum(cur, np.abs(ring[L - 1:L - 1 + n] - v))
        prev = np.append(cur, cur[0])
        k = order[first[L]:first[L + 1]]
        out[k] = prev[base[k]]
    return out


def _gather_pair_constants(curve, pairs, seed):
    """Lavrentiev and quasicircle constants from per-block index
    gathers v[j], pre[j] with j = (i + lag) % n, the rule that the
    library reads from ring slices, and from one array of all probe
    pairs' windows, which the library reads one size at a time."""
    v = curve.vertices
    n = v.size
    pre = curve.arc_prefix()
    total = pre[-1]
    blocks, _ = sample_vertex_pairs(curve, pairs, seed)
    lav = 1.0
    bases, sizes, chords = [], [], []
    for lag, count in blocks:
        i = np.arange(count)
        j = (i + lag) % n
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


@pytest.mark.parametrize("name", ["circle512", "ellipse256", "u", "square",
                                  "poly1025", "star"])
def test_quasicircle_equals_the_all_pairs_recurrence(name):
    # the four polygons of the curves benchmark, the sampled path, and a
    # star, whose shorter arcs run backward as well as forward
    curve = {"circle512": lambda: circle_polygon(512),
             "ellipse256": lambda: ellipse_polygon(2, 1, 256),
             "u": u_polygon, "square": square_polygon,
             "poly1025": lambda: boundary_polygon(
                 gallery_map("poly:z+0.3*zbar^2"), 1025),
             "star": _star}[name]()
    for seed in range(3):
        _, want = _gather_pair_constants(curve, 20000, seed)
        assert quasicircle_constant(curve, seed=seed) == want


@pytest.mark.parametrize("name", ["circle512", "ellipse256", "u", "square",
                                  "poly2048"])
def test_streamed_lavrentiev_equals_a_materialized_probe(name):
    curve = {"circle512": lambda: circle_polygon(512),
             "ellipse256": lambda: ellipse_polygon(2, 1, 256),
             "u": u_polygon, "square": square_polygon,
             "poly2048": lambda: boundary_polygon(
                 gallery_map("poly:z+0.3*zbar^2"), 2048)}[name]()
    for seed in range(3):
        chunks = list(cc_module._probe_pairs(curve, 20000, seed))
        want, _ = cc_module._lavrentiev(chunks)
        assert lavrentiev_constant(curve, seed=seed) == want


def test_lavrentiev_memory():
    # tracemalloc peak on an exhaustive 1024-gon (523,776 pairs): 12.7
    # MiB with every ranked chunk and start index held, 0.4 MiB with
    # each chunk reduced as it is ranked
    curve = boundary_polygon(gallery_map("identity"), 1024)
    lavrentiev_constant(curve)
    tracemalloc.start()
    try:
        got = lavrentiev_constant(curve)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == 1.5707938626385576
    assert peak <= 1 << 20


def test_quasicircle_memory():
    # tracemalloc peak on an exhaustive 1024-gon (523,776 pairs): 41.0
    # MiB with every probe pair's window in flat arrays, sorted by size;
    # 8.4 MiB with a start and a chord per pair, read size by size
    curve = boundary_polygon(gallery_map("poly:z+0.3*zbar^2"), 1024)
    quasicircle_constant(curve)
    tracemalloc.start()
    try:
        quasicircle_constant(curve)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 << 20


def test_linear_connectivity_memory():
    # tracemalloc peak on the U at grid 512: 14.3 MiB with the w box
    # filled in row blocks of 4 MiB of complex cells, 7.1 MiB in blocks
    # below 128 KiB
    curve = u_polygon()
    linear_connectivity_constant(curve)
    tracemalloc.start()
    try:
        linear_connectivity_constant(curve)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 << 20


def test_curve_constants_memory():
    # tracemalloc peaks of curve_constants: 20.3 MiB on the exhaustive
    # 1024-gon with every probe chunk held, 7.0 MiB on each benchmark
    # curve with the raster's complex cells; 1.2 MiB and at most 3.4 MiB
    # (the U's w box) with a byte per pair and direction and the raster
    # as two coordinate vectors
    budgets = [(circle_polygon(1024), 4 << 20)] + [
        (curve, 3.5 * (1 << 20)) for curve in _benchmark_curves().values()]
    for curve, budget in budgets:
        curve_constants(curve)
        tracemalloc.start()
        try:
            curve_constants(curve)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget


def test_crosscut_integral_memory():
    # tracemalloc peak of crosscut_integral(identity, 1, 2.0): 3.05 MiB
    # with each lens rule evaluated in one piece, 0.89 MiB with its
    # rho-rows in blocks below 128 KiB, each summed exactly as it comes
    m = gallery_map("identity")
    crosscut_integral(m, 1.0, 2.0)
    tracemalloc.start()
    try:
        got = crosscut_integral(m, 1.0, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (3.141586370407607, 8.748557434046234e-14,
                   1.1872480776276007e-09)
    assert peak <= 1 << 20


def test_report_shares_one_pair_sample():
    curve = boundary_polygon(gallery_map("poly:z+0.3*zbar^2"), 1500)
    rep = curve_constants(curve, pairs=5000, point_pairs=2, seed=2)
    assert rep.lavrentiev_M == lavrentiev_constant(curve, 5000, 2)
    assert rep.quasicircle_M == quasicircle_constant(curve, 5000, 2)
    assert rep.ahlfors_M == ahlfors_constant(curve)
    assert rep.sample_counts["pairs"] == 5000


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
    funcs += ([lavrentiev_constant, quasicircle_constant]
              if "pairs" in kw else [ahlfors_constant])
    for fn in funcs:
        with pytest.raises(ValidationError, match=f"^{message}$"):
            fn(circle, **kw)
    assert (MAX_PAIRS, MAX_CENTERS, MAX_RADII) == (2048 * 2047 // 2,
                                                   4097, 14)


def test_negative_seed_is_refused():
    circle = circle_polygon(64)
    for fn in (lavrentiev_constant, quasicircle_constant,
               linear_connectivity_constant, curve_constants):
        with pytest.raises(ValidationError,
                           match="^seed must be 0 to inf, got -1$"):
            fn(circle, seed=-1)


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
            lambda: ahlfors_constant(circle, MAX_CENTERS, MAX_RADII),
            lambda: curve_constants(circle, MAX_PAIRS, MAX_CENTERS,
                                    MAX_RADII, MAX_POINT_PAIRS)):
        with pytest.raises(Reached):
            call()
