"""Length/area functionals against closed forms and frozen oracle values.

Reference numbers marked FROZEN were produced by the scripts in
tests/oracles/ (mpmath tanh-sinh, sympy antiderivatives, scipy.special
closed forms) and pasted here verbatim.
"""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from numpy.polynomial.legendre import leggauss

from harmonicdisk import (ArcSet, EmptyCrosscut, HarmonicMap, PolygonalCurve,
                          QuadratureNonconvergence, ValidationError,
                          boundary_image_length, boundary_polygon,
                          crosscut_integral, crosscut_length,
                          extract_coefficients, gallery_map, image_area,
                          level_curve_length, radial_length,
                          sup_radial_length, thm2_bound)
from harmonicdisk import geometry, maps
from harmonicdisk.config import (DEFAULT_CONFIG, QuadratureConfig,
                                 effective_boundary_radius)
from harmonicdisk.gallery import gallery_names, parse_map_spec
from harmonicdisk.geometry import (MAX_RAY_CELLS, circle_polygon,
                                   ellipse_polygon, hardy_mean,
                                   point_polygon_distance, points_in_polygon,
                                   ray_table, rectangle_polygon,
                                   square_polygon, u_polygon)
from harmonicdisk.maps import (SeriesHarmonicMap, jacobian, op_norm,
                               rotate_domain, scale_range)
from harmonicdisk.quadrature import cumulative_simpson, simpson_weights
from harmonicdisk.theorems import schwarz_radial_check

from oracles.area_closed_forms import lens_area, poly_area
from oracles.poisson_bessel_series import bessel_series_coeffs

R_CLIP = 1.0 - 1e-6

# FROZEN: tests/oracles/affine_closed_forms.py (f = z + 0.5 zbar)
AFFINE_PERIM_05 = 3.3412233051388145
AFFINE_PERIM_09 = 6.0142019492498662
AFFINE_PERIM_RB = 6.6824399278310187
AFFINE_HALF_ARC_RB = 3.3412199639155094

# FROZEN: tests/oracles/crosscut_closed_forms.py (identity, zeta0 = 1,
# clip radius 1 - 1e-6)
CROSSCUT_LEN = {0.5: 1.3181140060621819,
                1.0: 2.0943927929925036,
                1.5: 2.1681997197242467}
CROSSCUT_INT = {0.05: 0.003885221535236002,
                0.1: 0.015374346450863154,
                0.5: 0.35076559920066125,
                1.0: 1.2283676042141242,
                2.0: 3.1415863704076275}


# -- explicit curves --------------------------------------------------------


def perimeter(curve):
    return math.fsum(curve.segment_lengths())


def shoelace(curve):
    """Enclosed area of a simple closed polygon."""
    p, q = curve.segments()
    return abs(math.fsum(p.real * q.imag - p.imag * q.real)) / 2.0


def test_square_polygon_metrics():
    sq = square_polygon()
    assert perimeter(sq) == 8.0
    assert shoelace(sq) == 4.0
    np.testing.assert_array_equal(sq.arc_prefix(), [0.0, 2.0, 4.0, 6.0, 8.0])


def test_rectangle_polygon_subdivision():
    r = rectangle_polygon(2.0, 2.0, per_side=16)
    assert r.vertices.size == 64
    assert perimeter(r) == pytest.approx(8.0, abs=1e-14)
    assert shoelace(r) == pytest.approx(4.0, abs=1e-14)


def test_curve_validation():
    with pytest.raises(ValidationError):
        PolygonalCurve(np.array([0.0, 1.0]))  # closed needs 3
    with pytest.raises(ValidationError):
        PolygonalCurve(np.array([0.0, 0.0, 1.0]))  # repeated vertex
    with pytest.raises(ValidationError):
        PolygonalCurve(np.array([0.0, np.nan, 1.0]))


def test_points_in_polygon_square():
    sq = square_polygon()
    pts = np.array([0.0, 0.999, 1.001, 2.0 + 2.0j, -0.5 - 0.5j])
    inside = points_in_polygon(pts, sq)
    np.testing.assert_array_equal(inside, [True, True, False, False, True])


def test_points_in_polygon_spans_chunks():
    # 2^21 / 512 = 4096 points per chunk; 10^4 points take three chunks
    circle = circle_polygon(512)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.2, 1.2, 10_000) + 1j * rng.uniform(-1.2, 1.2, 10_000)
    # keep clear of the chords, which sit up to 1 - cos(pi/512) inside
    pts = pts[np.abs(np.abs(pts) - 1.0) > 1e-4]
    assert pts.size > 2 * 4096
    np.testing.assert_array_equal(points_in_polygon(pts, circle),
                                  np.abs(pts) < 1.0)


def _crossing_parity(pts, curve):
    """The even-odd rule written point by point over all segments."""
    p, q = curve.segments()
    x1, y1, x2, y2 = p.real, p.imag, q.real, q.imag
    out = []
    for chunk in np.array_split(pts, max(1, pts.size // 1000)):
        x, y = chunk.real[:, None], chunk.imag[:, None]
        straddles = (y1 <= y) != (y2 <= y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xs = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        out.append((straddles & (xs > x)).sum(axis=1) % 2 == 1)
    return np.concatenate(out)


def test_points_in_polygon_matches_per_point_rule():
    """Grouping points by ordinate computes the same crossings: rows
    through vertices, points exactly on a crossing (the strict > tie),
    scattered points over several chunks, overflowing crossings and NaN
    all agree."""
    nan_pts = np.array([complex(np.nan, 0.0), complex(0.0, np.nan),
                        complex(np.nan, np.nan)])
    rng = np.random.default_rng(3)
    scattered = (rng.uniform(-1.2, 1.2, 10_000)
                 + 1j * rng.uniform(-1.2, 1.2, 10_000))
    cases = [(circle_polygon(512), scattered)]
    for curve in (u_polygon(), ellipse_polygon(2, 1, 256)):
        v = curve.vertices
        rows = np.concatenate([v.imag, np.linspace(v.imag.min(),
                                                   v.imag.max(), 64)])
        cols = np.linspace(v.real.min() - 0.1, v.real.max() + 0.1, 96)
        raster = (cols[None, :] + 1j * rows[:, None]).ravel()
        # on each slanted segment, the crossing at its mid ordinate
        p, q = curve.segments()
        p, q = p[p.imag != q.imag], q[p.imag != q.imag]
        y = 0.5 * (p.imag + q.imag)
        x = p.real + (y - p.imag) * (q.real - p.real) / (q.imag - p.imag)
        cases.append((curve, np.concatenate([raster, v, x + 1j * y])))
    # near the float range the formula overflows to NaN, never a crossing
    with np.errstate(over="ignore"):
        huge = PolygonalCurve(1e308 * np.array([-1 - 1j, 1 - 1j, 1 + 1j,
                                                0.5 + 0.9j]))
    cases.append((huge, 1e308 * scattered[:500]))
    for curve, pts in cases:
        pts = np.concatenate([pts, nan_pts])
        with np.errstate(over="ignore", invalid="ignore"):
            got = points_in_polygon(pts, curve)
            want = _crossing_parity(pts, curve)
        np.testing.assert_array_equal(got, want)
        assert not got[-3:].any()
        assert got.any() and not got.all()


def _sorted_row_containment(points, curve):
    """points_in_polygon as it was before the per-point count: the
    crossings once per distinct ordinate, counted per point by one sort
    of crossings and points, a crossing before a point of equal
    abscissa.  The reference of the per-point version."""
    pts = np.asarray(points, dtype=complex).reshape(-1)
    p, q = curve.segments()
    levels, row = np.unique(pts.imag, return_inverse=True)
    by_row = np.argsort(row, kind="stable")
    row_sorted = row[by_row]
    out = np.empty(pts.size, dtype=bool)
    step = max(1, geometry.BLOCK_CELLS // max(1, p.size))
    for r0 in range(0, levels.size, step):
        y = levels[r0:r0 + step]
        rr, xs = geometry._row_crossings(y, p, q)
        lo, hi = np.searchsorted(row_sorted, [r0, r0 + y.size])
        sel = by_row[lo:hi]
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


@pytest.mark.parametrize("curve", [
    u_polygon(), square_polygon(), circle_polygon(512), circle_polygon(4096),
    ellipse_polygon(2, 1, 256), rectangle_polygon(2, 1, per_side=16)],
    ids=["U", "square", "circle512", "circle4096", "ellipse256",
         "rectangle16"])
def test_points_in_polygon_equals_the_sorted_row_version(curve):
    # random points; vertices and edge midpoints (on the curve); a
    # lattice whose rows share ordinates with vertices and each other;
    # NaN and inf coordinates
    p, q = curve.segments()
    v = curve.vertices
    x0, x1 = v.real.min() - 0.25, v.real.max() + 0.25
    y0, y1 = v.imag.min() - 0.25, v.imag.max() + 0.25
    rng = np.random.default_rng(11)
    scattered = (rng.uniform(x0, x1, 20_000)
                 + 1j * rng.uniform(y0, y1, 20_000))
    lattice = (np.linspace(x0, x1, 101)[None, :]
               + 1j * np.linspace(y0, y1, 101)[:, None]).ravel()
    nan, inf = math.nan, math.inf
    special = np.array([complex(nan, 0.0), complex(0.0, nan),
                        complex(nan, nan), complex(inf, 0.0),
                        complex(-inf, 0.0), complex(0.0, inf),
                        complex(0.0, -inf), complex(-inf, v[0].imag)])
    pts = np.concatenate([scattered, v, 0.5 * (p + q), lattice, special])
    got = points_in_polygon(pts, curve)
    np.testing.assert_array_equal(got, _sorted_row_containment(pts, curve))
    assert not got[-special.size:].any()
    assert got.any() and not got.all()


def test_point_polygon_distance_square():
    sq = square_polygon()
    d = point_polygon_distance(np.array([0.0, 3.0, 2.0 + 2.0j]), sq)
    assert d[0] == pytest.approx(1.0)
    assert d[1] == pytest.approx(2.0)
    assert d[2] == pytest.approx(math.sqrt(2.0))


def _full_sweep_distance(pts, curve):
    """Every point against every segment: the rule that
    point_polygon_distance prunes, written out in chunks of 500 points."""
    p, q = curve.segments()
    u = q - p
    uu = (u * np.conj(u)).real
    out = []
    for chunk in np.array_split(pts, max(1, pts.size // 500)):
        w = chunk[:, None] - p[None, :]
        s = (w * np.conj(u[None, :])).real / uu[None, :]
        np.clip(s, 0.0, 1.0, out=s)
        out.append(np.abs(w - s * u[None, :]).min(axis=1))
    return np.concatenate(out)


def _arc(n):
    # n points on an arc of 2 radians, closed by its chord: top nodes
    # that do not fill up, and one side unlike the others
    return PolygonalCurve(np.exp(1j * np.linspace(0.0, 2.0, n)))


@pytest.mark.parametrize("curve", [
    circle_polygon(3), square_polygon(), u_polygon(),
    rectangle_polygon(6.0, 1.0, per_side=5), ellipse_polygon(3.0, 1.0, 300),
    circle_polygon(64), circle_polygon(1023), circle_polygon(2048),
    circle_polygon(4096), circle_polygon(4097), _arc(37), _arc(60),
], ids=lambda c: f"closed{c.vertices.size}")
def test_point_polygon_distance_equals_full_sweep(curve):
    rng = np.random.default_rng(curve.vertices.size)
    v = curve.vertices
    p, q = curve.segments()
    scale = float(np.abs(v - v.mean()).max())

    def box(n, half):
        return v.mean() + half * (rng.uniform(-1, 1, n)
                                  + 1j * rng.uniform(-1, 1, n))

    pts = np.concatenate([
        box(3000, 1.5 * scale), v, 0.5 * (p + q), box(200, 1e3 * scale),
        # near the centre every segment is about equally far: most
        # nodes stay candidates
        box(200, 1e-3 * scale)])
    np.testing.assert_array_equal(point_polygon_distance(pts, curve),
                                  _full_sweep_distance(pts, curve))


def _rounding_curve(end, along, gap, up, detour, run):
    """(x, curve): x = end + gap along is nearest to the end of a straight
    run of `run` segments along `along` from end - 2^21 along (its last
    segment 1 long), and `up` segments rise from a point 5e-12 farther
    from x, joined to the run by a `detour` of segments that bend 1e3
    aside.  The run's chord distance |x - c| rounds by up to ~ulp(2^21)
    = 4.7e-10, so a lower bound without a rounding slack (or with one
    relative to the distance only) can skip the node holding the
    minimum.

    The run turns back on itself for 1/2 at its end, so that both sides
    at the end lie in the run's node: that node's chord stops 1/2 short
    of the end, and its sagitta, 1/2, makes up the difference.  From
    the turn the ring goes round x at distance 3 or more and closes on
    the rising point, so no side outside the run's node comes nearer x
    than that point."""
    x = end + gap * along
    first = x + (gap + 5e-12) * 1j * along
    rise = first + 10j * along * np.arange(up + 1)
    start = end - 2.0 ** 21 * along
    corner = start + 1e3j * along
    bend = rise[-1] + (corner - rise[-1]) * np.arange(1, detour) / (detour - 1)
    straight = end - along * np.append(np.geomspace(2.0 ** 21, 1.0, run), 0.0)
    turn = end - 0.5 * along
    back = [turn, turn - 3j * along, x + (3 - 3j) * along, first + 3 * along]
    return x, PolygonalCurve(np.concatenate([rise, bend, straight, back]))


def test_point_polygon_distance_bound_rounding():
    # 84 segments make 6 top nodes of 16: the up segments fill three,
    # the detour the fourth, the run and its turn the fifth, and the way
    # round x the sixth, so the run's bound at the top level is its
    # chord distance less the turn's sagitta
    rng = np.random.default_rng(1)
    for k in range(64):
        gap = (1.0, 1e-6)[k % 2]
        along = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        end = 3.0 * complex(rng.normal(), rng.normal())
        x, curve = _rounding_curve(end, along, gap, 48, 16, 15)
        np.testing.assert_array_equal(
            point_polygon_distance(np.array([x]), curve),
            _full_sweep_distance(np.array([x]), curve))


def test_point_polygon_distance_non_finite_points():
    sq = square_polygon()
    bad = np.array([np.nan, np.inf, 1j * np.inf, np.nan + 1j])
    # finite points between the non-finite ones keep their own rows
    pts = np.concatenate([[0.5], bad[:2], [3.0], bad[2:], [1e300, 2j]])
    with np.errstate(invalid="ignore"):
        got = point_polygon_distance(pts, sq)
        want = _full_sweep_distance(pts, sq)
        strided = point_polygon_distance(pts[::2], sq)
    # inf + 0j is at distance inf; the full sweep gives it inf * 0 = NaN
    want[2] = np.inf
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(strided, want[::2])
    # 1j * inf is nan + inf j
    assert np.isnan(got[[1, 4, 5]]).all()
    np.testing.assert_array_equal(got[[0, 2, 3, 6, 7]],
                                  [0.5, np.inf, 2.0, 1e300, 1.0])


@pytest.mark.parametrize("curve", [square_polygon(), u_polygon(),
                                   circle_polygon(64)],
                         ids=["square", "u", "circle64"])
def test_point_polygon_distance_infinite_points(curve):
    # axis-parallel segments used to give inf + 0j the distance NaN
    inf = np.inf
    pts = np.array([complex(inf, 0), complex(-inf, 2), complex(0, inf),
                    complex(1, -inf), complex(inf, -inf), 0.25])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = point_polygon_distance(pts, curve)
    np.testing.assert_array_equal(got[:5], np.inf)
    assert got[5] == _full_sweep_distance(pts[5:], curve)[0]


def test_point_polygon_distance_keeps_nan_segments():
    # Each curve's second or third block lies far from the query points
    # and gives them NaN (|u|^2 = inf over inf, or 0 over 0), which the
    # full sweep returns; a pruned block would hide it.  The far block
    # of the huge curve ends with its side back from the cluster, and
    # no side that closes a ring comes nearer a query point than the
    # curve's other sides.
    arc = 0.5 * np.exp(1j * np.linspace(0.0, 1.0, 17))
    rng = np.random.default_rng(0)
    cluster = 1e160 * (1 + 1j + 0.5 * (rng.uniform(-1, 1, 16)
                                       + 1j * rng.uniform(-1, 1, 16)))
    cluster[1] = cluster[0] + 1e146  # a first segment without NaN
    # back from the cluster to 0.5 + 10j, then down to the arc's start
    huge = PolygonalCurve(np.concatenate([arc, 10.0 + np.arange(15),
                                          cluster, [0.5 + 10j]]))
    # a vertical first segment, then horizontal ones 1e-170 long
    tiny = PolygonalCurve(np.concatenate([
        5j + 0.5 * np.exp(1j * np.linspace(0.0, 1.0, 16)), [1e-160j],
        1e-170 * np.arange(16)]))
    for curve, pts in ((huge, np.array([0.0, 0.1j, -0.2])),
                       (tiny, np.array([5j]))):
        with np.errstate(over="ignore", invalid="ignore"):
            got = point_polygon_distance(pts, curve)
            want = _full_sweep_distance(pts, curve)
        np.testing.assert_array_equal(got, want)
        assert np.isnan(got).all()


def test_point_polygon_distance_spans_chunks():
    # 496 points per chunk; 10^4 points take 21 chunks
    circle = circle_polygon(512)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.2, 1.2, 10_000) + 1j * rng.uniform(-1.2, 1.2, 10_000)
    np.testing.assert_array_equal(point_polygon_distance(pts, circle),
                                  _full_sweep_distance(pts, circle))


@pytest.mark.parametrize("chunk", ["one", "all"])
def test_point_polygon_distance_chunk_budget_keeps_bits(monkeypatch, chunk):
    # chunks of one point and of all points give the default's bits, on
    # the thm4 boundary polygons of the gallery and the U
    rng = np.random.default_rng(3)
    curves = [geometry.boundary_polygon(gallery_map(spec), 2048)
              for spec in gallery_names()] + [u_polygon()]
    bad = np.array([np.nan, complex(np.inf, 0.0), complex(1.0, -np.inf),
                    complex(np.nan, np.inf)])
    cases = []
    for curve in curves:
        v = curve.vertices
        scale = float(np.abs(v - v.mean()).max())
        pts = v.mean() + 1.5 * scale * (rng.uniform(-1, 1, 600)
                                        + 1j * rng.uniform(-1, 1, 600))
        cases.append((curve, np.concatenate([pts[:300], bad, pts[300:]])))
    with np.errstate(invalid="ignore"):
        default = [point_polygon_distance(pts, c) for c, pts in cases]
        for (curve, pts), want in zip(cases, default):
            monkeypatch.setattr(geometry, "_DIST_POINTS",
                                1 if chunk == "one" else pts.size)
            got = point_polygon_distance(pts, curve)
            assert got.tobytes() == want.tobytes()


def test_point_polygon_distance_chord_bound_rounding():
    # The fifth top node of these 84 segments holds 12 detour segments,
    # a 3-segment run along an axis and its turn (sagitta 1/2, exactly):
    # the detour's bend keeps the top node, and the run and its turn
    # are a node one level down, whose bound is the chord distance less
    # the sagitta
    rng = np.random.default_rng(2)
    for k, gap in enumerate(rng.uniform(0.5, 1.5, 64)):
        along = 1j ** (k % 4)
        x, curve = _rounding_curve(0.0, along, gap, 64, 12, 3)
        np.testing.assert_array_equal(
            point_polygon_distance(np.array([x]), curve),
            _full_sweep_distance(np.array([x]), curve))


def _kept_segments(monkeypatch, pts, curve):
    """(distances, share of the (point, segment) pairs that reach the
    per-segment formula)."""
    pairs = []
    segments = geometry._node_segments

    def counting(levels, x, best, rows, nodes, size):
        pairs.append(rows.size * size)
        return segments(levels, x, best, rows, nodes, size)

    monkeypatch.setattr(geometry, "_node_segments", counting)
    got = point_polygon_distance(pts, curve)
    monkeypatch.undo()
    return got, sum(pairs) / (pts.size * curve.segments()[0].size)


def _thm4_points(m):
    """thm4's level-curve points at its default radii (r_list)."""
    return np.concatenate([m.eval_many(r * maps._circle_nodes(720))
                           for r in (0.05, 0.1, 0.2, 0.4, 0.6)])


def test_point_polygon_distance_zero_chord_block(monkeypatch):
    # node 10 of 16 segments of this 528-segment curve is a loop from
    # the ring vertex 160 back to it, a chord of length zero
    ring = np.exp(2j * np.pi * np.arange(512) / 512)
    loop = ring[160] * (1.0 - 0.05 * (1.0 - np.exp(
        2j * np.pi * np.arange(1, 16) / 16)))
    curve = PolygonalCurve(np.concatenate([ring[:161], loop, ring[160:]]))
    rng = np.random.default_rng(4)
    pts = np.concatenate([rng.uniform(-1.5, 1.5, 4000)
                          + 1j * rng.uniform(-1.5, 1.5, 4000),
                          curve.vertices, [0.97 * ring[160]]])
    got, share = _kept_segments(monkeypatch, pts, curve)
    np.testing.assert_array_equal(got, _full_sweep_distance(pts, curve))
    # the loop's node does not keep every segment of every point
    assert share < 0.05


def test_point_polygon_distance_thm4_blocks_pruned(monkeypatch):
    # thm4's points against the Poisson boundary polygon: near the middle
    # of the round image every segment is about equally far, and 16-
    # segment blocks bounded at one level sent 0.03 of the (point,
    # segment) pairs to the per-segment formula
    m = gallery_map("poisson:phi=t+0.2*sin(t)")
    poly = boundary_polygon(m, 2048)
    pts = _thm4_points(m)
    got, share = _kept_segments(monkeypatch, pts, poly)
    np.testing.assert_array_equal(got, _full_sweep_distance(pts, poly))
    assert share < 0.015


@pytest.mark.parametrize("spec", gallery_names())
def test_point_polygon_distance_thm4_points_equal_full_sweep(spec):
    m = gallery_map(spec)
    poly = boundary_polygon(m, 2048)
    pts = _thm4_points(m)
    np.testing.assert_array_equal(point_polygon_distance(pts, poly),
                                  _full_sweep_distance(pts, poly))


@pytest.mark.parametrize("kernel", [point_polygon_distance,
                                    points_in_polygon])
def test_polygon_kernels_keep_the_points_shape(kernel):
    rng = np.random.default_rng(6)
    pts = (rng.uniform(-2, 2, 35) + 1j * rng.uniform(-2, 2, 35))
    curve = u_polygon()
    flat = kernel(pts, curve)
    got = kernel(pts.reshape(5, 7), curve)
    assert got.shape == (5, 7)
    assert got.tobytes() == flat.reshape(5, 7).tobytes()
    for k in (0, 17):
        one = kernel(pts[k], curve)
        assert one.shape == ()
        assert one.tobytes() == flat[k].tobytes()


def test_gauss_rule_cache_is_read_only_leggauss():
    for n in (32, 64, 128, 256, 512):
        rule = geometry._gauss_rule(n)
        assert rule is geometry._gauss_rule(n)
        for got, want in zip(rule, leggauss(n)):
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 0.0


def test_u_polygon_area_and_vertex_count():
    u = u_polygon()
    assert u.vertices.size == 64
    # 3x3 square minus the 1x2 notch
    assert shoelace(u) == pytest.approx(7.0, abs=1e-12)


def test_circle_and_ellipse_polygons():
    c = circle_polygon(4096)
    assert perimeter(c) == pytest.approx(2.0 * math.pi, rel=1e-6)
    assert shoelace(c) == pytest.approx(math.pi, rel=1e-6)
    e = ellipse_polygon(2.0, 1.0, 4)
    np.testing.assert_allclose(e.vertices, [2.0, 1.0j, -2.0, -1.0j],
                               atol=1e-15)


def test_curve_from_file(tmp_path):
    p = tmp_path / "curve.txt"
    p.write_text("# comment\n1 0\n\n0 1  # trailing\n-1 0\n0 -1\n")
    c = PolygonalCurve.from_file(p)
    assert c.vertices.size == 4
    assert shoelace(c) == pytest.approx(2.0)
    (tmp_path / "bad.txt").write_text("1 2 3\n")
    with pytest.raises(ValidationError):
        PolygonalCurve.from_file(tmp_path / "bad.txt")
    (tmp_path / "bad2.txt").write_text("1 x\n")
    with pytest.raises(ValidationError):
        PolygonalCurve.from_file(tmp_path / "bad2.txt")


# -- arc sets ---------------------------------------------------------------


def test_arcset_normalization_and_measure():
    assert ArcSet.single(0.0, 2.0 * math.pi).total_measure == pytest.approx(
        2.0 * math.pi)
    half = ArcSet.single(-0.5 * math.pi, 0.5 * math.pi)
    assert half.total_measure == pytest.approx(math.pi)
    (a, b), = half.arcs
    assert a == pytest.approx(1.5 * math.pi)
    assert b == pytest.approx(2.5 * math.pi)


def test_arcset_rejects_overlap_and_degenerate():
    with pytest.raises(ValidationError):
        ArcSet(((0.0, 1.0), (0.5, 1.5)))
    with pytest.raises(ValidationError):
        ArcSet(((6.0, 7.0), (0.5, 1.0)))  # wraps past 2 pi into [0.5, 1]
    with pytest.raises(ValidationError):
        ArcSet(((0.0, 0.0),))
    with pytest.raises(ValidationError):
        ArcSet(((0.0, 7.0),))
    with pytest.raises(ValidationError):
        ArcSet(())


# -- curve-length functionals ----------------------------------------------


def test_level_curve_length_identity_and_affine():
    ident = gallery_map("identity")
    for r in (0.25, 0.9):
        assert level_curve_length(ident, r)[0] == pytest.approx(
            2.0 * math.pi * r, abs=1e-10)
    aff = gallery_map("affine:1,0.5")
    assert level_curve_length(aff, 0.5)[0] == pytest.approx(
        AFFINE_PERIM_05, abs=1e-9)
    length, nodes = level_curve_length(aff, 0.9)
    assert length == pytest.approx(AFFINE_PERIM_09, abs=1e-9)
    assert nodes >= 17
    with pytest.raises(ValidationError):
        level_curve_length(ident, 1.0)
    with pytest.raises(QuadratureNonconvergence):
        level_curve_length(gallery_map("poisson:phi=t"), 0.9995)


def test_boundary_image_length_affine():
    aff = gallery_map("affine:1,0.5")
    full, _ = boundary_image_length(aff, ArcSet.single(0.0, 2.0 * math.pi))
    assert full == pytest.approx(AFFINE_PERIM_RB, abs=1e-9)
    half, _ = boundary_image_length(aff, ArcSet.single(0.0, math.pi))
    assert half == pytest.approx(AFFINE_HALF_ARC_RB, abs=1e-9)
    # additivity over a split into disjoint arcs
    split = ArcSet(((0.0, 1.0), (1.0 + 1e-9, 2.0 * math.pi - 1e-9)))
    assert boundary_image_length(aff, split)[0] == pytest.approx(full,
                                                                 abs=1e-7)


def test_radial_length_closed_forms():
    ident = gallery_map("identity")
    assert radial_length(ident, 0.3, 0.8)[0] == pytest.approx(0.8, abs=1e-12)
    assert radial_length(ident, 0.0, 1.0)[0] == pytest.approx(1.0, abs=1e-12)
    aff = gallery_map("affine:1,0.5")
    assert radial_length(aff, 0.0, 1.0)[0] == pytest.approx(1.5, abs=1e-11)
    assert radial_length(aff, 0.5 * math.pi, 1.0)[0] == pytest.approx(
        0.5, abs=1e-11)
    with pytest.raises(ValidationError):
        radial_length(ident, 0.0, 1.5)
    with pytest.raises(QuadratureNonconvergence):
        radial_length(gallery_map("poisson:phi=t"), 0.0, 0.9999)


def test_sup_radial_length_affine():
    # speed along the ray at angle th is |e^{i th} + 0.5 e^{-i th}|,
    # maximized on the real axis where it equals 1.5
    theta, val = sup_radial_length(gallery_map("affine:1,0.5"), 1.0)
    assert val == pytest.approx(1.5, abs=1e-9)
    assert min(abs(theta), abs(theta - math.pi),
               abs(theta - 2.0 * math.pi)) < 1e-4


def test_shared_ray_table_nodes():
    nodes = geometry._radius_nodes
    # thm4's default radii end node pairs 5, 10, 21, 42 and 63: 127 nodes
    radii = [0.05, 0.1, 0.2, 0.4, 0.6]
    rho, h, at = nodes(radii)
    assert at.tolist() == [5, 10, 21, 42, 63]
    assert (rho.size, h.size) == (127, 63)
    assert rho[2 * at].tolist() == radii
    # each piece is uniform with the step of its pairs, so Simpson is
    # exact on a cubic up to every radius
    assert np.diff(rho)[::2] == pytest.approx(h, rel=1e-12, abs=0.0)
    assert np.diff(rho)[1::2] == pytest.approx(h, rel=1e-12, abs=0.0)
    cum = cumulative_simpson(rho ** 3, h)
    assert cum[at] == pytest.approx(np.array(radii) ** 4 / 4.0, rel=1e-13)
    # no uniform grid holds 0.3 and sqrt(1/2) at nodes; this one does
    radii = [0.3, math.sqrt(0.5)]
    rho, h, at = nodes(radii)
    assert at.tolist() == [27, 64]
    assert rho[2 * at].tolist() == radii
    # 0.003 and 0.6: one pair below 0.003 and 64 above, 131 nodes
    rho, _, at = nodes([0.003, 0.6])
    assert (at.tolist(), rho.size) == ([1, 65], 131)


@pytest.mark.parametrize("r", [1e-3, 0.37, 0.6, math.sqrt(0.5), 1.0])
def test_one_radius_ray_table_is_the_128_panel_grid(r):
    rho, h, at = geometry._radius_nodes([r])
    assert rho.tobytes() == np.linspace(0.0, r, 129).tobytes()
    assert h.tobytes() == np.full(64, r / 128).tobytes()
    assert at.tolist() == [64]


def test_shared_ray_table_duplicate_radii():
    # a repeated radius adds one pair of zero width, whose Simpson term
    # is exactly 0: the repeat reads the same lengths and zooms alike
    rho, h, at = geometry._radius_nodes([0.3, 0.3, 0.6])
    assert at.tolist() == [32, 33, 65]
    assert rho[64:67].tolist() == [0.3] * 3 and h[32] == 0.0
    m = rotate_domain(gallery_map("poly:z+0.3*zbar^2"), 0.1234)
    once = sup_radial_length(m, [0.3, 0.6])
    assert sup_radial_length(m, [0.3, 0.3, 0.6]) == [once[0]] + once


def test_radius_nodes_equal_per_piece_linspace():
    # the one-pass nodes are np.linspace(r_{k-1}, r_k, 2 n_k + 1) piece
    # by piece, bit for bit, repeated radii included
    rng = np.random.default_rng(7)
    for _ in range(300):
        radii = np.sort(rng.uniform(1e-3, 1.0, rng.integers(1, 40)))
        if rng.random() < 0.5:
            radii = np.sort(np.concatenate((radii, rng.choice(radii, 3))))
        rho, h, at = geometry._radius_nodes(radii)
        lo = np.concatenate(([0.0], radii[:-1]))
        pairs = np.diff(np.concatenate(([0], at)))
        want = np.concatenate([[0.0]] + [np.linspace(a, b, 2 * n + 1)[1:]
                                         for a, b, n in zip(lo, radii,
                                                            pairs)])
        assert rho.tobytes() == want.tobytes()
        assert h.tobytes() == np.repeat((radii - lo) / (2 * pairs),
                                        pairs).tobytes()


@pytest.mark.parametrize("rays", [8, 720, 4096, 8192])
def test_shared_ray_table_fits_the_cell_cap(rays):
    # n evenly spaced radii, n >= 43, take one node pair each: a table
    # of 2 n + 1 nodes, refused past MAX_RAY_CELLS before any evaluation
    # (_RefusingMap's derivs_many raises NotImplementedError)
    cfg = QuadratureConfig(theta_grid=rays)
    edge = (MAX_RAY_CELLS // rays - 1) // 2
    for n in (edge, edge + 1) if edge < 2000 else (128, 2000):
        radii = 0.6 * np.arange(1, n + 1) / n
        rho, _, at = geometry._radius_nodes(radii)
        assert rho.size == 2 * n + 1
        assert at.tolist() == list(range(1, n + 1))
        assert rho[2 * at].tolist() == radii.tolist()
        if rays * rho.size <= MAX_RAY_CELLS:
            with pytest.raises(NotImplementedError):
                sup_radial_length(_RefusingMap(), radii, cfg)
        else:
            with pytest.raises(ValidationError,
                               match=f"{rays} rays x {2 * n + 1} nodes"):
                sup_radial_length(_RefusingMap(), radii, cfg)


def test_shared_ray_table_at_the_cell_cap_runs():
    # 127 radii at 8192 rays: 255 nodes, the largest table that fits
    cfg = QuadratureConfig(theta_grid=8192)
    radii = 0.6 * np.arange(1, 128) / 127
    pairs = sup_radial_length(gallery_map("affine:1,0.5"), radii, cfg)
    assert [val for _, val in pairs] == pytest.approx(1.5 * radii, abs=1e-9)


def test_sup_radial_length_of_several_radii():
    m = gallery_map("affine:1,0.5")
    pairs = sup_radial_length(m, [0.25, 0.5, 1.0])
    assert [val for _, val in pairs] == pytest.approx([0.375, 0.75, 1.5],
                                                      abs=1e-9)
    assert pairs[-1] == sup_radial_length(m, 1.0)
    assert sup_radial_length(m, (0.5,)) == [sup_radial_length(m, 0.5)]
    for radii in ([], [0.5, 0.25], [0.5, 1.5]):
        with pytest.raises(ValidationError):
            sup_radial_length(m, radii)


def _rays_one_at_a_time(m, rho, h, rays, kernel):
    """The ray table's rows, one derivs_many and one cumulative_simpson
    call per ray; rays is a ray count or an array of angles."""
    if np.ndim(rays):
        thetas = np.asarray(rays)
        points = np.exp(1j * thetas)
    else:
        thetas = np.linspace(0.0, 2.0 * math.pi, rays, endpoint=False)
        points = np.exp(2j * np.pi * np.arange(rays) / rays)
    rows = []
    for k in range(thetas.size):
        fz, fzb = m.derivs_many(rho * points[k])
        vals = kernel(np.exp(1j * thetas[k]), fz, fzb)
        rows.append(cumulative_simpson(vals, h))
    return thetas, np.array(rows)


@pytest.mark.parametrize("name", ["identity", "poly:z+0.3*zbar^2",
                                  "poisson:phi=t+0.2*sin(t)"])
def test_ray_table_equals_ray_by_ray_loop(name):
    m = gallery_map(name)
    kernels = [geometry._stretch,
               lambda e, fz, fzb: op_norm(fz, fzb),
               lambda e, fz, fzb: 0.5 * geometry._stretch(e, fz, fzb)]
    # 12 rays of 17 nodes fit one block; 40 rays of 513 nodes go in
    # blocks of 15, 15 and 10 rays; 33 explicit angles of 129 nodes (a
    # zoom level of sup_radial_length) fit one block; 33 angles on the
    # piecewise grid of sup_radial_length at thm4's default radii
    zoom = np.linspace(-0.01, 0.02, 33)
    for panels, rays in [(16, 12), (512, 40), (128, zoom)]:
        for kernel, r, scale in zip(kernels, (0.9, 0.95, 1.0),
                                    (1.0, 1.0, 0.5)):
            # the nodes of z -> f(scale z), whose steps stay r / panels
            rho = scale * np.linspace(0.0, r, panels + 1)
            got = ray_table(m, rho, r / panels, rays, kernel)
            want = _rays_one_at_a_time(m, rho, r / panels, rays, kernel)
            for g, w in zip(got, want):
                assert g.shape == w.shape
                assert g.tobytes() == w.tobytes()
    rho, h, _ = geometry._radius_nodes([0.05, 0.1, 0.2, 0.4, 0.6])
    got = ray_table(m, rho, h, zoom, kernels[0])
    want = _rays_one_at_a_time(m, rho, h, zoom, kernels[0])
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    step = (maps._POLAR_BLOCK_CELLS - 1) // 513
    assert (step, 40 % step) == (15, 10)


def test_ray_table_cell_cap():
    # one ray of MAX_RAY_CELLS + 1 nodes is refused before evaluation
    with pytest.raises(ValidationError, match="exceeds 2097152 cells"):
        ray_table(_RefusingMap(), np.zeros(MAX_RAY_CELLS + 1), 0.0, 1,
                  geometry._stretch)
    assert MAX_RAY_CELLS == 1 << 21


def test_crosscut_length_identity_frozen():
    ident = gallery_map("identity")
    for rho, want in CROSSCUT_LEN.items():
        got, _ = crosscut_length(ident, 1.0, rho)
        assert got == pytest.approx(want, abs=1e-9), rho
    # rotation invariance of the window: same lengths about zeta0 = i
    assert crosscut_length(ident, 1.0j, 1.0)[0] == pytest.approx(
        CROSSCUT_LEN[1.0], abs=1e-9)


def test_crosscut_length_validation():
    ident = gallery_map("identity")
    with pytest.raises(ValidationError):
        crosscut_length(ident, 0.5, 1.0)  # center not unimodular
    with pytest.raises(ValidationError):
        crosscut_length(ident, 1.0, 2.5)
    with pytest.raises(EmptyCrosscut):
        crosscut_length(ident, 1.0, 5e-7)  # inside the clip gap
    poisson = gallery_map("poisson:phi=t")
    with pytest.raises(EmptyCrosscut):
        crosscut_length(poisson, 1.0, 1e-3)  # clip radius 0.998


def test_nan_crosscut_center_is_refused():
    # abs(abs(nan) - 1) > tol is False, so NaN must fail a <= test
    ident = gallery_map("identity")
    nan = complex(np.nan, 0.0)
    with pytest.raises(ValidationError):
        crosscut_length(ident, nan, 1.0)
    with pytest.raises(ValidationError):
        crosscut_integral(ident, nan, 0.5)
    with pytest.raises(ValidationError):
        crosscut_integral(ident, nan, 1e-7)  # below the clip gap
    with pytest.raises(ValidationError):
        thm2_bound(ident, nan, K=1.0, M_lav=math.pi / 2, r_list=(0.5,))


def test_crosscut_integral_identity_frozen():
    ident = gallery_map("identity")
    for r, want in CROSSCUT_INT.items():
        got, _, _ = crosscut_integral(ident, 1.0, r)
        assert got == pytest.approx(want, abs=5e-8), r


def test_crosscut_integral_fixed_panels_agree():
    # the doubled Gauss rule and the fixed-panel Simpson rule on the same
    # substituted domain agree with the returned value
    ident = gallery_map("identity")
    _, node_check, simpson_check = crosscut_integral(ident, 1.0, 0.5)
    assert node_check <= 1e-9
    assert simpson_check <= 1e-9


@pytest.mark.parametrize("name", ["identity", "poly:z+0.3*zbar^2"])
def test_crosscut_checks_are_thm2_params(name):
    # thm2 reports the two checks crosscut_integral returns, unchanged
    m = gallery_map(name)
    zeta0 = np.exp(0.7j)
    reports = thm2_bound(m, zeta0, K=1.5, M_lav=2.0, r_list=(0.5, 1.5))
    kernel = geometry._crosscut_kernel
    rules = [(np.linspace(-1.0, 1.0, n + 1),
              simpson_weights(n) * (2.0 / (3.0 * n))) for n in (256, 128)]
    for rep, r in zip(reports[::2], (0.5, 1.5)):
        val, node_check, simpson_check = crosscut_integral(m, zeta0, r)
        assert (val, node_check) == geometry._lens_integral(
            m, zeta0, r, R_CLIP, kernel, QuadratureConfig())
        simpson = geometry._lens_quad(m, zeta0, r, R_CLIP, kernel, *rules)
        assert simpson_check == abs(val - simpson)
        assert rep.params["lhs_node_check"] == node_check
        assert rep.params["lhs_adaptive_vs_fixed"] == simpson_check


def _sum_outcome(fsum, terms):
    """fsum(terms) as hex, or the name of the error it raises."""
    try:
        return float(fsum(terms)).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__


def test_fsum_equals_math_fsum_on_adversarial_arrays():
    # 1,200 seeded arrays of 1 to 40,000 terms with exponents over
    # 2^+-60, scaled by 1e+-30; every other one is cancelling pairs x,
    # -x (some perturbed in their last bits), which leave only a small
    # remainder.  Whole and split into blocks, the sum is math.fsum's
    rng = np.random.default_rng(1971)
    for trial in range(1200):
        size = int(np.exp(rng.uniform(0.0, math.log(40000.0))))
        x = rng.standard_normal(size) * np.exp2(rng.integers(-60, 61, size))
        if trial % 2:
            half = x[:(size + 1) // 2]
            nudge = rng.choice([0.0, 2.0 ** -45, -2.0 ** -30], half.size)
            x = np.concatenate([half, -half * (1.0 + nudge)])[:size]
            rng.shuffle(x)
        x *= 10.0 ** rng.uniform(-30.0, 30.0)
        want = math.fsum(x.tolist()).hex()
        assert geometry._fsum([x]).hex() == want, trial
        blocks = np.array_split(x, int(rng.integers(1, 9)))
        assert geometry._fsum(iter(blocks)).hex() == want, trial


@pytest.mark.parametrize("terms", [
    [5e-324, -1e-310, 3e-320, 1.0],  # subnormal terms
    [2.0 ** -1022, -0.75 * 2.0 ** -1021, 1e-300],  # the least exponent
    [1.5 * 2.0 ** 959, -(2.0 ** 959), 3.0],  # the largest exponent
    [2.0 ** 960, 1.0, -(2.0 ** 960)],  # one above it
    [1e308, -1e308, 1e308],
    [1.0, math.nan], [math.inf, 1.0], [-math.inf, 2.0],
    [math.inf, -math.inf],  # ValueError, as math.fsum raises
    [-0.0], [-0.0, -0.0], [0.0, -0.0], [],
])
def test_fsum_fallback_cases_equal_math_fsum(terms):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _sum_outcome(lambda t: geometry._fsum([np.array(t)]), terms)
        # the same terms behind a block of ordinary ones
        ordinary = np.linspace(-1.0, 2.0, 50)
        mixed = _sum_outcome(lambda t: geometry._fsum([ordinary, np.array(t)]),
                             terms)
    assert got == _sum_outcome(math.fsum, terms)
    assert mixed == _sum_outcome(math.fsum, ordinary.tolist() + terms)


@pytest.mark.parametrize("terms,want", [
    ([1e308, 1e308], math.inf),
    ([-1e308, -1e308, 1.0], -math.inf),
    ([1.7e308, 1.7e308, -1e300], math.inf)])
def test_fsum_overflow_is_inf_without_a_warning(terms, want):
    # math.fsum raises OverflowError where finite terms' exact sum
    # overflows; the sum reads inf, and warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert geometry._fsum([np.array(terms)]) == want
        assert geometry._fsum([np.ones(3), np.array(terms)]) == want


class _CountingMap(HarmonicMap):
    """Delegates to a gallery map and counts derivs_many calls."""

    def __init__(self, name):
        self.inner = gallery_map(name)
        self.max_radius = self.inner.max_radius
        self.calls = 0

    def eval_many(self, z):
        return self.inner.eval_many(z)

    def derivs_many(self, z):
        self.calls += 1
        return self.inner.derivs_many(z)


@pytest.mark.parametrize("name", ["identity", "poly:z+0.3*zbar^2"])
def test_lens_rule_is_vectorised(name):
    # one derivs_many call per Gauss resolution, not one per node
    m = _CountingMap(name)
    crosscut_integral(m, 1.0, 1.0)
    assert 1 <= m.calls <= 8
    m = _CountingMap(name)
    image_area(m, 0.8, center=1.0)
    assert 1 <= m.calls <= 8


def test_coarea_identity_crosscut_vs_lens():
    """Two routes to one number: the radial integral of crosscut
    lengths equals the area of the lens {|z - 1| <= r} intersected with
    the clipped disk (identity map Jacobian is 1).  Both share one polar
    lens rule with different kernels (arc speed, Jacobian), so the
    closed-form lens_area gates each route on its own."""
    ident = gallery_map("identity")
    for r in (0.5, 0.8):
        lhs, _, _ = crosscut_integral(ident, 1.0, r)
        area, _ = image_area(ident, r, center=1.0)
        want = lens_area(1.0, r, R_CLIP)
        assert lhs == pytest.approx(want, abs=5e-8), r
        assert area == pytest.approx(want, abs=5e-8), r


# -- areas ------------------------------------------------------------------


def test_image_area_disk_closed_forms():
    ident = gallery_map("identity")
    got, agreement = image_area(ident, 0.9)
    assert got == pytest.approx(2.5446900494077327, abs=1e-10)
    assert agreement <= 1e-8
    # r = 1 clips to the proxy radius; FROZEN pi (1 - 1e-6)^2
    assert image_area(ident, 1.0)[0] == pytest.approx(3.1415863704076274,
                                                      abs=1e-10)
    aff = gallery_map("affine:1,0.5")
    assert image_area(aff, 0.9)[0] == pytest.approx(1.9085175370557994,
                                                    abs=1e-10)
    poly = gallery_map("poly:z+0.3*zbar^2")
    assert image_area(poly, 0.5)[0] == pytest.approx(poly_area(0.3, 0.5),
                                                     abs=1e-10)
    assert image_area(poly, 0.9)[0] == pytest.approx(poly_area(0.3, 0.9),
                                                     abs=1e-10)


# FROZEN: image_area(m, 1) of the gallery by the earlier rule, the
# Jacobian on 1024 x 513 polar nodes checked against 512 x 257
GALLERY_DISK_AREAS = {
    "identity": 3.141586370407627,
    "scaled:2.0": 12.566345481630508,
    "affine:1,0.5": 2.3561897778057204,
    "poly:z+0.3*zbar^2": 2.5761019547047823,
    "poisson:phi=t+0.2*sin(t)": 3.128789404095057,
}


@pytest.mark.parametrize("name", sorted(GALLERY_DISK_AREAS))
def test_disk_area_of_the_gallery_is_frozen(name):
    area, agreement = image_area(gallery_map(name), 1.0)
    assert area == pytest.approx(GALLERY_DISK_AREAS[name], rel=1e-12)
    assert agreement <= 1.1e-13


def test_disk_area_is_the_parseval_sum():
    """pi sum_k k (|a_k|^2 - |b_k|^2) r^{2k} against the closed forms,
    to round-off (the grid rule alone agrees to about 1e-13)."""
    poly = gallery_map("poly:z+0.3*zbar^2")
    for r in (0.5, 0.9, 1.0):
        got = image_area(poly, r)[0]
        assert got == pytest.approx(poly_area(0.3, min(r, R_CLIP)),
                                    rel=1e-15)
    a, b = 1.0 + 0.5j, 0.3 - 0.4j
    aff = parse_map_spec({"kind": "affine", "c0": [0.2, -0.1],
                          "a": [a.real, a.imag], "b": [b.real, b.imag]})
    for r in (0.3, 0.9):
        want = math.pi * (abs(a) ** 2 - abs(b) ** 2) * r * r
        assert image_area(aff, r)[0] == pytest.approx(want, rel=1e-15)


def test_disk_area_refuses_a_kinked_phase_before_the_grid():
    # t + 0.1 |sin t| is not quasiconformal: no level certifies its
    # derivatives at the proxy radius, so no grid point is evaluated
    m = gallery_map("poisson:phi=t+0.1*sqrt(sin(t)**2)")

    def grid(z):
        raise AssertionError("the grid rule ran")

    m.derivs_many = grid
    with pytest.raises(QuadratureNonconvergence, match="no certified level"):
        image_area(m, 1.0)


def _whole_grid_area(m, r_eff):
    """The cross-check grid rule of _disk_area on one 512 x 257 array."""
    n_t, n_rho = 512, 256
    rho = r_eff * np.linspace(0.0, 1.0, n_rho + 1)
    e = np.exp(2j * np.pi * np.arange(n_t) / n_t)
    jac = jacobian(*m.derivs_many(rho[None, :] * e[:, None]))
    wts = simpson_weights(n_rho)
    radial = (r_eff / n_rho / 3.0) * (jac * rho * wts).sum(axis=1)
    return (2.0 * math.pi / n_t) * math.fsum(radial)


@pytest.mark.parametrize("name", sorted(GALLERY_DISK_AREAS))
def test_disk_area_grid_blocks_equal_the_whole_grid(name):
    m = gallery_map(name)
    for r in (0.5, 1.0):
        area, agreement = image_area(m, r)
        r_eff = min(r, effective_boundary_radius(DEFAULT_CONFIG,
                                                 m.max_radius))
        assert agreement == abs(area - _whole_grid_area(m, r_eff))


def _traced_peak(call):
    """tracemalloc peak of call(), after one warm-up call that fills the
    per-map caches."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_disk_area_memory():
    # tracemalloc peak: 32.1 MiB with the 1024 x 513 grid, 8.0 MiB
    # with one 512 x 257 grid, 0.7 MiB with its rows in blocks
    assert _traced_peak(lambda: image_area(gallery_map("identity"),
                                           1.0)) <= 2 << 20


def test_schwarz_ray_table_memory():
    # tracemalloc peak: 22.6 MiB with the whole 720 x 513 table, 2.2
    # MiB with its rays in blocks and only the running integrals kept
    m = gallery_map("identity")
    assert _traced_peak(lambda: schwarz_radial_check(m)) <= 4 << 20


def test_image_area_lens_against_closed_form():
    ident = gallery_map("identity")
    # origin outside the region, corners and window edges both active
    for rho in (0.3, 0.8, 1.2, 1.99):
        got = image_area(ident, rho, center=1.0)[0]
        assert got == pytest.approx(lens_area(1.0, rho, R_CLIP),
                                    abs=1e-8), rho
    # origin interior to the region
    got = image_area(ident, 0.7, center=0.25)[0]
    assert got == pytest.approx(lens_area(0.25, 0.7, R_CLIP), abs=1e-8)
    # origin interior and the region crossing |z| = R
    got = image_area(ident, 0.7, center=0.5)[0]
    assert got == pytest.approx(lens_area(0.5, 0.7, R_CLIP), abs=1e-8)
    # region entirely inside the disk: no clipping at all
    got = image_area(ident, 0.2, center=0.3 + 0.2j)[0]
    assert got == pytest.approx(math.pi * 0.04, abs=1e-10)
    # region covering the whole disk
    got = image_area(ident, 1.99, center=0.0)[0]
    assert got == pytest.approx(math.pi * R_CLIP ** 2, abs=1e-9)


def test_image_area_region_misses_disk():
    ident = gallery_map("identity")
    assert image_area(ident, 0.3, center=2.0) == (0.0, 0.0)


def test_image_area_off_axis_center_rotation_invariance():
    # identity areas depend on |center| only
    ident = gallery_map("identity")
    a = image_area(ident, 0.6, center=1.0)[0]
    b = image_area(ident, 0.6, center=np.exp(2.1j))[0]
    assert a == pytest.approx(b, abs=1e-9)


def test_image_area_poly_lens_multiplicity_weighting():
    """Jacobian-weighted lens for f = z + 0.3 zbar^2: no closed form,
    so integrate the radially-exact profile with a dense independent
    angular trapezoid rule as the oracle."""
    m = gallery_map("poly:z+0.3*zbar^2")
    got = image_area(m, 0.8, center=1.0)[0]

    # independent oracle: J = 1 - 0.36 |z|^2 integrates exactly in rho
    # along each ray; trapezoid over 20000 angles on the full window
    w, r, R = 1.0, 0.8, R_CLIP
    t = np.linspace(-math.acos(math.sqrt(1 - r * r)),
                    math.acos(math.sqrt(1 - r * r)), 20001)
    proj = np.cos(t)
    disc = proj * proj - (1.0 - r * r)
    root = np.sqrt(np.maximum(disc, 0.0))
    lo = np.clip(proj - root, 0.0, R)
    hi = np.clip(proj + root, 0.0, R)
    # int (1 - 0.36 rho^2) rho drho = rho^2/2 - 0.09 rho^4

    def prim(x):
        return x * x / 2.0 - 0.09 * x ** 4

    want = np.trapezoid(prim(hi) - prim(lo), t)
    assert got == pytest.approx(float(want), abs=2e-6)


def test_image_area_validation():
    ident = gallery_map("identity")
    with pytest.raises(ValidationError):
        image_area(ident, 1.5)
    with pytest.raises(ValidationError):
        image_area(ident, 2.5, center=1.0)
    with pytest.raises(ValidationError):
        image_area(ident, 0.0)


# -- Hardy means ------------------------------------------------------------


def test_hardy_mean_constant_fields():
    aff = gallery_map("affine:1,0.5")
    assert hardy_mean(aff, 0.7) == pytest.approx(1.5, abs=1e-10)
    poly = gallery_map("poly:z+0.3*zbar^2")
    # |f_z| + |f_zb| = 1 + 0.6 |z|, constant on each circle
    assert hardy_mean(poly, 0.5) == pytest.approx(1.3, abs=1e-10)
    with pytest.raises(ValidationError, match="Hardy radius"):
        hardy_mean(aff, 1.0)


# -- coefficient extraction -------------------------------------------------


def test_extract_coefficients_series_round_trip():
    m = gallery_map("poly:z+0.3*zbar^2")
    a, b = extract_coefficients(m, 5, 0.7)
    want_a = np.zeros(6, dtype=complex)
    want_a[1] = 1.0
    want_b = np.zeros(5, dtype=complex)
    want_b[1] = 0.3  # g(z) = 0.3 z^2, g-convention coefficients
    np.testing.assert_allclose(a, want_a, atol=1e-12)
    np.testing.assert_allclose(b, want_b, atol=1e-12)


def test_extract_coefficients_high_mode_attenuation():
    # mode 12 at rho = 0.35 is attenuated by 0.35^11 ~ 1e-6; extended
    # precision must still recover it to ~1e-9
    coeffs = np.zeros(13, dtype=complex)
    coeffs[1] = 1.0
    coeffs[12] = 0.25j
    from harmonicdisk import SeriesHarmonicMap
    m = SeriesHarmonicMap(coeffs, [0.0, 0.1])
    a, b = extract_coefficients(m, 12, 0.35)
    np.testing.assert_allclose(a, coeffs, atol=1e-9)
    np.testing.assert_allclose(b, [0.0, 0.1] + [0.0] * 10, atol=1e-9)


def _extract_series_by_horner(m, n_max, rho):
    """(a_1..a_n_max, b_1..b_n_max) of a series map with h' and g'
    evaluated by explicit extended-precision Horner steps on
    extract_coefficients' nodes, then their long-double FFTs."""
    N = geometry._EXTRACT_NODES
    tt = (geometry.TWO_PI_LD * np.arange(N, dtype=np.longdouble)) / N
    z = np.longdouble(rho) * (np.cos(tt) + 1j * np.sin(tt))

    def horner(coeffs):
        c = np.asarray(coeffs, dtype=np.clongdouble)
        out = np.full(z.shape, c[-1], dtype=np.clongdouble)
        for k in range(c.size - 2, -1, -1):
            out = out * z + c[k]
        return out

    n = np.arange(1, n_max + 1, dtype=np.longdouble)
    scale = np.longdouble(rho) ** (np.longdouble(1.0) - n) / n
    g = np.concatenate([[0.0], m.antianalytic_coeffs])
    return [(np.fft.fft(horner(npoly.polyder(c)))[:n_max]
             / np.clongdouble(N) * scale).astype(complex)
            for c in (m.analytic_coeffs, g)]


def test_extract_coefficients_series_bitwise_extended_horner():
    # series maps go through derivs_many like every map, and keep the
    # extended-precision nodes to the last bit
    poly = gallery_map("poly:z+0.3*zbar^2")
    maps = [poly, scale_range(poly, 0.8 * np.exp(0.9j)),
            rotate_domain(poly, 0.4),
            SeriesHarmonicMap([0.1 + 0.2j, 1.0, 0.0, -0.05j],
                              [0.3, 0.0, 0.1])]
    for m in maps:
        for n_max, rho in ((3, 0.5), (12, 0.35)):
            a, b = extract_coefficients(m, n_max, rho)
            want_a, want_b = _extract_series_by_horner(m, n_max, rho)
            assert a[1:].tobytes() == want_a.tobytes()
            assert b.tobytes() == want_b.tobytes()


def test_extract_coefficients_poisson_matches_bessel():
    """Kernel-quadrature derivatives -> DFT modes -> Bessel numbers."""
    analytic, anti = bessel_series_coeffs()
    m = gallery_map("poisson:phi=t+0.2*sin(t)")
    a, b = extract_coefficients(m, 8, 0.9)
    np.testing.assert_allclose(a, analytic[:9], atol=1e-9)
    np.testing.assert_allclose(b, np.conj(anti[:8]), atol=1e-9)


def test_extract_coefficients_validation():
    m = gallery_map("identity")
    with pytest.raises(ValidationError):
        extract_coefficients(m, 0, 0.5)
    with pytest.raises(ValidationError):
        extract_coefficients(m, 3, 1.0)


def test_fft_keeps_extended_precision():
    # numpy's FFT computes in long double from numpy 2.0; 1.x would cast
    # to complex128 and lose the bits the extraction needs
    x = np.arange(8, dtype=np.clongdouble) / 3
    assert np.fft.fft(x).dtype == np.clongdouble


@pytest.mark.parametrize("rows", [1, 5])
def test_extract_coefficients_row_blocks_keep_bits(rows):
    # mode n's value does not depend on how many modes are asked for:
    # the first `rows` modes are the leading entries of a longer call
    cases = [(gallery_map("poly:z+0.3*zbar^2"), 12, 0.5),
             (gallery_map("poisson:phi=t+0.2*sin(t)"), 21, 0.9),
             (gallery_map("poisson:phi=t+0.2*sin(t)"), 64, 0.9)]
    for m, n, rho in cases:
        a, b = extract_coefficients(m, n, rho)
        got_a, got_b = extract_coefficients(m, rows, rho)
        assert got_a.tobytes() == a[:rows + 1].tobytes()
        assert got_b.tobytes() == b[:rows].tobytes()


def test_extract_coefficients_after_a_larger_call():
    # no state carries over between calls: a larger n_max before, even
    # one that fails its check, leaves the n_max = 8 coefficients
    # bitwise unchanged
    m = gallery_map("poly:z+0.3*zbar^2")
    first = extract_coefficients(m, 8, 0.5)
    with pytest.raises(QuadratureNonconvergence):
        extract_coefficients(m, 600, 0.5)  # mode 600's round-off times 2^599
    again = extract_coefficients(m, 8, 0.5)
    for x, y in zip(first, again):
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("rho", [0.5, 0.9])
def test_extract_coefficients_exact_on_gallery_series(rho):
    # f_z and f_zb are constant on the affine maps, so every mode but
    # the first is an exact zero; poly's conj(f_zb) = 0.6 z carries the
    # round-off of its long-double nodes
    exact = {"identity": ([0.0, 1.0], [0.0]),
             "scaled:2.0": ([0.0, 2.0], [0.0]),
             "affine:1,0.5": ([0.0, 1.0], [0.5]),
             "poly:z+0.3*zbar^2": ([0.0, 1.0], [0.0, 0.3])}
    for name, (a_head, b_head) in exact.items():
        a, b = extract_coefficients(gallery_map(name), 8, rho)
        want_a = np.zeros(9, dtype=complex)
        want_a[:2] = a_head
        want_b = np.zeros(8, dtype=complex)
        want_b[:len(b_head)] = b_head
        if name.startswith("poly"):
            assert np.abs(a - want_a).max() <= 1e-19
            assert np.abs(b - want_b).max() <= 1e-19
        else:
            np.testing.assert_array_equal(a, want_a)
            np.testing.assert_array_equal(b, want_b)


def test_extract_coefficients_overflow_is_a_numerical_error():
    # rho^{1-n} overflows double at n = 128, rho = 0.001; with warnings
    # as errors the caller still gets the package's NumericalError
    m = gallery_map("poly:z+0.3*zbar^2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureNonconvergence, match="nan"):
            extract_coefficients(m, 128, 0.001)


@pytest.mark.parametrize("zeta0,r_list,message", [
    (0.5, (1.0,), "crosscut center must be unimodular"),
    (complex(math.nan, 0.0), (1.0,), "crosscut center must be unimodular"),
    (1.0, (0.5, 3.0), "upper radius must be in (0,2]"),
    (1.0, (math.nan,), "upper radius must be in (0,2]"),
])
def test_thm2_refuses_bad_input_before_evaluating(zeta0, r_list, message):
    m = _CountingMap("identity")
    with pytest.raises(ValidationError, match=re.escape(message)):
        thm2_bound(m, zeta0, r_list=r_list)
    assert m.calls == 0


# -- boundary polygon and distances ------------------------------------------


class _Evaluated(Exception):
    pass


class _RefusingMap(HarmonicMap):
    """Raises on evaluation, reporting how many points it was given."""

    def eval_many(self, z):
        raise _Evaluated(np.size(z))


def test_boundary_polygon_identity():
    poly = boundary_polygon(gallery_map("identity"), 512)
    assert poly.vertices.size == 512
    np.testing.assert_allclose(np.abs(poly.vertices), R_CLIP, rtol=1e-15)
    assert perimeter(poly) == pytest.approx(2.0 * math.pi * R_CLIP, rel=1e-4)
    with pytest.raises(ValidationError):
        boundary_polygon(gallery_map("identity"), 4)


def test_boundary_polygon_sample_cap():
    with pytest.raises(ValidationError, match=re.escape(
            "boundary_samples must be 8 to 1048576, got 1048577")):
        boundary_polygon(_RefusingMap(), 2 ** 20 + 1)
    # the cap itself passes validation; the map is asked and refuses
    with pytest.raises(_Evaluated) as exc:
        boundary_polygon(_RefusingMap(), 2 ** 20)
    assert exc.value.args == (2 ** 20,)


def test_point_polygon_distance_to_the_identity_boundary():
    # thm4's distance to the image of the proxy boundary circle
    poly = boundary_polygon(gallery_map("identity"), 2048)
    d0, d_half = point_polygon_distance(np.array([0.0, 0.5]), poly)
    assert d0 == pytest.approx(1.0, abs=1e-5)
    assert d_half == pytest.approx(0.5, abs=1e-5)


def test_custom_config_threading():
    # a looser config is honored (coarse rule, fewer refinements)
    cfg = QuadratureConfig(abs_tol=1e-6, rel_tol=1e-5, boundary_radius=0.99)
    val, _ = boundary_image_length(gallery_map("identity"),
                                   ArcSet.single(0.0, 2.0 * math.pi), cfg=cfg)
    assert val == pytest.approx(2.0 * math.pi * 0.99, abs=1e-5)
