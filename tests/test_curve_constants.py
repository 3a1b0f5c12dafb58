"""Empirical curve constants: closed forms, brute-force twins, and
probe-set properties."""

import math

import numpy as np
import pytest

from harmonicdisk import (CurveConstantsReport, ValidationError,
                          ahlfors_constant, boundary_polygon, curve_constants,
                          gallery_map,
                          lavrentiev_constant, lemma_c_consistent,
                          linear_connectivity_constant, quasicircle_constant)
from harmonicdisk.curve_constants import sample_vertex_pairs
from harmonicdisk.geometry import (PolygonalCurve, circle_polygon,
                                   ellipse_polygon, rectangle_polygon,
                                   square_polygon, u_polygon)

from oracles.square_pair_bruteforce import brute_force

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


def test_connectivity_validation():
    open_curve = PolygonalCurve(np.array([0.0, 1.0, 1.0j]), closed=False)
    with pytest.raises(ValidationError):
        linear_connectivity_constant(open_curve)


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
