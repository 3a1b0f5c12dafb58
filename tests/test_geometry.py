"""Length/area functionals against closed forms and frozen oracle values.

Reference numbers marked FROZEN were produced by the scripts in
tests/oracles/ (mpmath tanh-sinh, sympy antiderivatives, scipy.special
closed forms) and pasted here verbatim.
"""

import math
import re
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from harmonicdisk import (ArcSet, EmptyCrosscut, HarmonicMap, PolygonalCurve,
                          QuadratureNonconvergence, ValidationError,
                          boundary_image_length, boundary_polygon,
                          crosscut_integral, crosscut_length,
                          distance_to_boundary, extract_coefficients,
                          gallery_map, image_area, level_curve_length,
                          radial_length, sup_radial_length, thm2_bound)
from harmonicdisk import geometry
from harmonicdisk.config import QuadratureConfig
from harmonicdisk.geometry import (MAX_RAY_CELLS, circle_polygon,
                                   curve_diameter, ellipse_polygon,
                                   hardy_mean, is_self_intersecting,
                                   point_polygon_distance, points_in_polygon,
                                   polygonal_length, ray_table,
                                   rectangle_polygon, shoelace_area,
                                   square_polygon, u_polygon)
from harmonicdisk.maps import (SeriesHarmonicMap, op_norm, rotate_domain,
                               scale_range)
from harmonicdisk.quadrature import cumulative_simpson, simpson_weights

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


def test_square_polygon_metrics():
    sq = square_polygon()
    assert polygonal_length(sq) == 8.0
    assert shoelace_area(sq) == 4.0
    assert curve_diameter(sq) == pytest.approx(2.0 * math.sqrt(2.0))
    assert not is_self_intersecting(sq)
    np.testing.assert_array_equal(sq.arc_prefix(), [0.0, 2.0, 4.0, 6.0, 8.0])


def test_rectangle_polygon_subdivision():
    r = rectangle_polygon(2.0, 2.0, per_side=16)
    assert r.vertices.size == 64
    assert polygonal_length(r) == pytest.approx(8.0, abs=1e-14)
    assert shoelace_area(r) == pytest.approx(4.0, abs=1e-14)


def test_refine_preserves_geometry():
    sq = square_polygon()
    r = sq.refine()
    assert r.vertices.size == 8
    assert polygonal_length(r) == pytest.approx(8.0)
    assert shoelace_area(r) == pytest.approx(4.0)
    open_line = PolygonalCurve(np.array([0.0, 1.0, 1.0 + 1.0j]), closed=False)
    r2 = open_line.refine()
    assert r2.vertices.size == 5
    assert not r2.closed
    assert polygonal_length(r2) == pytest.approx(2.0)


def test_curve_validation():
    with pytest.raises(ValidationError):
        PolygonalCurve(np.array([0.0, 1.0]))  # closed needs 3
    with pytest.raises(ValidationError):
        PolygonalCurve(np.array([1.0]), closed=False)
    with pytest.raises(ValidationError):
        PolygonalCurve(np.array([0.0, 0.0, 1.0]))  # repeated vertex
    with pytest.raises(ValidationError):
        PolygonalCurve(np.array([0.0, np.nan, 1.0]))
    with pytest.raises(ValidationError):
        shoelace_area(PolygonalCurve(np.array([0.0, 1.0]), closed=False))


def test_self_intersection_bowtie():
    bowtie = PolygonalCurve(np.array([0.0, 1.0 + 1.0j, 1.0, 1.0j]))
    assert is_self_intersecting(bowtie)
    assert not is_self_intersecting(u_polygon())


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
    return PolygonalCurve(np.exp(1j * np.linspace(0.0, 2.0, n)), closed=False)


@pytest.mark.parametrize("curve", [
    circle_polygon(3), square_polygon(), u_polygon(),
    rectangle_polygon(6.0, 1.0, per_side=5), ellipse_polygon(3.0, 1.0, 300),
    circle_polygon(64), circle_polygon(2048), circle_polygon(4096),
    _arc(2), _arc(37), _arc(60),
], ids=lambda c: f"{'closed' if c.closed else 'open'}{c.vertices.size}")
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
        # blocks stay candidates
        box(200, 1e-3 * scale)])
    np.testing.assert_array_equal(point_polygon_distance(pts, curve),
                                  _full_sweep_distance(pts, curve))


def test_point_polygon_distance_bound_rounding():
    # Two blocks of 16 segments: a 2e4-long straight run whose far end
    # B is the nearest point to x = B + gap along the run, and a first
    # block starting 2e-13 farther from x.  The run's bound |x - c| - rho
    # equals gap exactly and rounds by up to ~1e-12, so a block bound
    # without a rounding slack (or with one relative to the distance
    # only) can skip the block holding the minimum.
    rng = np.random.default_rng(1)
    for k in range(64):
        gap = (1.0, 1e-6)[k % 2]
        along = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        end = 3.0 * complex(rng.normal(), rng.normal())
        start = end - 2e4 * along
        x = end + gap * along
        first = x + (gap + 2e-13) * 1j * along
        turn = first + 100.0 * 1j * along
        head = turn + (start - turn) * np.arange(15) / 15
        run = start + (end - start) * np.arange(17) / 16
        curve = PolygonalCurve(np.concatenate([[first], head, run]),
                               closed=False)
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
    # full sweep returns; a pruned block would hide it.
    arc = 0.5 * np.exp(1j * np.linspace(0.0, 1.0, 17))
    rng = np.random.default_rng(0)
    cluster = 1e160 * (1 + 1j + 0.5 * (rng.uniform(-1, 1, 17)
                                       + 1j * rng.uniform(-1, 1, 17)))
    cluster[1] = cluster[0] + 1e146  # a first segment without NaN
    huge = PolygonalCurve(np.concatenate([arc, 10.0 + np.arange(15),
                                          cluster]), closed=False)
    # a vertical first segment, then horizontal ones 1e-170 long
    tiny = PolygonalCurve(np.concatenate([
        5j + 0.5 * np.exp(1j * np.linspace(0.0, 1.0, 16)), [1e-160j],
        1e-170 * np.arange(16)]), closed=False)
    for curve, pts in ((huge, np.array([0.0, 0.1j, -0.2])),
                       (tiny, np.array([5j]))):
        with np.errstate(over="ignore", invalid="ignore"):
            got = point_polygon_distance(pts, curve)
            want = _full_sweep_distance(pts, curve)
        np.testing.assert_array_equal(got, want)
        assert np.isnan(got).all()


def test_point_polygon_distance_spans_chunks():
    # 2^21 / 512 = 4096 points per chunk; 10^4 points take three chunks
    circle = circle_polygon(512)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.2, 1.2, 10_000) + 1j * rng.uniform(-1.2, 1.2, 10_000)
    np.testing.assert_array_equal(point_polygon_distance(pts, circle),
                                  _full_sweep_distance(pts, circle))


def test_u_polygon_area_and_vertex_count():
    u = u_polygon()
    assert u.vertices.size == 64
    # 3x3 square minus the 1x2 notch
    assert shoelace_area(u) == pytest.approx(7.0, abs=1e-12)


def test_circle_and_ellipse_polygons():
    c = circle_polygon(4096, radius=2.0)
    assert polygonal_length(c) == pytest.approx(4.0 * math.pi, rel=1e-6)
    assert shoelace_area(c) == pytest.approx(4.0 * math.pi, rel=1e-6)
    e = ellipse_polygon(2.0, 1.0, 4)
    np.testing.assert_allclose(e.vertices, [2.0, 1.0j, -2.0, -1.0j],
                               atol=1e-15)


def test_curve_from_file(tmp_path):
    p = tmp_path / "curve.txt"
    p.write_text("# comment\n1 0\n\n0 1  # trailing\n-1 0\n0 -1\n")
    c = PolygonalCurve.from_file(p)
    assert c.vertices.size == 4
    assert shoelace_area(c) == pytest.approx(2.0)
    (tmp_path / "bad.txt").write_text("1 2 3\n")
    with pytest.raises(ValidationError):
        PolygonalCurve.from_file(tmp_path / "bad.txt")
    (tmp_path / "bad2.txt").write_text("1 x\n")
    with pytest.raises(ValidationError):
        PolygonalCurve.from_file(tmp_path / "bad2.txt")


# -- arc sets ---------------------------------------------------------------


def test_arcset_normalization_and_measure():
    assert ArcSet.full().total_measure == pytest.approx(2.0 * math.pi)
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
    full, _ = boundary_image_length(aff, ArcSet.full())
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


def _rays_one_at_a_time(m, r, panels, n_theta, kernel, scale=1.0):
    """The ray table's rows, one derivs_many and one cumulative_simpson
    call per ray."""
    rho = np.linspace(0.0, r, panels + 1)
    thetas = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    points = np.exp(2j * np.pi * np.arange(n_theta) / n_theta)
    rows = []
    for k in range(n_theta):
        fz, fzb = m.derivs_many((scale * rho) * points[k])
        vals = kernel(np.exp(1j * thetas[k]), fz, fzb)
        rows.append(cumulative_simpson(vals, r / panels))
    return thetas, rho, np.array(rows)


@pytest.mark.parametrize("name", ["identity", "poly:z+0.3*zbar^2",
                                  "poisson:phi=t+0.2*sin(t)"])
def test_ray_table_equals_ray_by_ray_loop(name):
    m = gallery_map(name)
    kernels = [geometry._stretch,
               lambda e, fz, fzb: op_norm(fz, fzb),
               lambda e, fz, fzb: 0.5 * geometry._stretch(e, fz, fzb)]
    for kernel, r, scale in zip(kernels, (0.9, 0.95, 1.0), (1.0, 1.0, 0.5)):
        got = ray_table(m, r, 16, 12, kernel, scale=scale)
        want = _rays_one_at_a_time(m, r, 16, 12, kernel, scale)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()


def test_ray_table_cell_cap():
    # one ray of MAX_RAY_CELLS + 1 nodes is refused before evaluation
    with pytest.raises(ValidationError, match="exceeds 2097152 cells"):
        ray_table(_RefusingMap(), 0.5, MAX_RAY_CELLS, 1,
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
    for p in (0.5, 1.0, 2.0):
        assert hardy_mean(aff, p, 0.7) == pytest.approx(1.5, abs=1e-10)
    poly = gallery_map("poly:z+0.3*zbar^2")
    # |f_z| + |f_zb| = 1 + 0.6 |z|, constant on each circle
    assert hardy_mean(poly, 2.0, 0.5) == pytest.approx(1.3, abs=1e-10)
    with pytest.raises(ValidationError):
        hardy_mean(aff, 0.0, 0.5)
    with pytest.raises(ValidationError):
        hardy_mean(aff, 1.0, 1.0)


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
    extract_coefficients' nodes, then the same mode sums."""
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
    return [((geometry._mode_matrix(n_max) @ horner(npoly.polyder(c)))
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


def test_extract_coefficients_after_a_larger_call():
    # the mode rows come from one table of roots of unity; a larger
    # n_max before leaves the n_max = 8 coefficients bitwise unchanged
    m = gallery_map("poly:z+0.3*zbar^2")
    first = extract_coefficients(m, 8, 0.5)
    try:
        extract_coefficients(m, 600, 0.5)
    except QuadratureNonconvergence:
        pass  # mode 600's round-off is amplified by 2^599
    again = extract_coefficients(m, 8, 0.5)
    for x, y in zip(first, again):
        assert x.tobytes() == y.tobytes()
    assert geometry._roots_of_unity().nbytes == 256 * 1024
    # each gathered row is e^{-i k t_j} with k*j reduced mod N first;
    # equal values (extended precision pads its bytes)
    N = geometry._EXTRACT_NODES
    for k, row in enumerate(geometry._mode_matrix(8)):
        mm = (geometry.TWO_PI_LD * (k * np.arange(N) % N)) / N
        np.testing.assert_array_equal(row, np.cos(mm) - 1j * np.sin(mm))


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
    assert polygonal_length(poly) == pytest.approx(2.0 * math.pi * R_CLIP,
                                                   rel=1e-4)
    with pytest.raises(ValidationError):
        boundary_polygon(gallery_map("identity"), 4)


def test_boundary_polygon_sample_cap():
    with pytest.raises(ValidationError, match="at most 1048576"):
        boundary_polygon(_RefusingMap(), 2 ** 20 + 1)
    # the cap itself passes validation; the map is asked and refuses
    with pytest.raises(_Evaluated) as exc:
        boundary_polygon(_RefusingMap(), 2 ** 20)
    assert exc.value.args == (2 ** 20,)


def test_distance_to_boundary_identity():
    d0 = distance_to_boundary(gallery_map("identity"), 0.0)
    assert d0 == pytest.approx(1.0, abs=1e-5)
    d_half = distance_to_boundary(gallery_map("identity"), 0.5)
    assert d_half == pytest.approx(0.5, abs=1e-5)


def test_custom_config_threading():
    # a looser config is honored (coarse rule, fewer refinements)
    cfg = QuadratureConfig(abs_tol=1e-6, rel_tol=1e-5, boundary_radius=0.99)
    val, _ = boundary_image_length(gallery_map("identity"), ArcSet.full(),
                                   cfg=cfg)
    assert val == pytest.approx(2.0 * math.pi * 0.99, abs=1e-5)
