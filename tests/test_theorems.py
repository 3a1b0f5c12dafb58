"""Inequality checks on maps with closed-form behavior.

Identity, dilations, and affine maps make every quantity in the checks
computable by hand; those values anchor the assertions.  Where a check
is expected to fail honestly (non-onto self-maps, the damped crosscut
chain at tiny radii), the failure itself is asserted.
"""

import math

import numpy as np
import pytest

from harmonicdisk import (ArcSet, DegenerateE, DivisionDegenerate,
                          HarmonicMap, InequalityReport,
                          NormalizationViolation, NotSelfMap,
                          SelfIntersecting, ValidationError, gallery_map)
from harmonicdisk.config import MAX_THETA_GRID, QuadratureConfig
from harmonicdisk.geometry import PolygonalCurve, circle_polygon, \
    square_polygon
from harmonicdisk.theorems import (MAX_PROBES, MAX_R_GRID, REPORT_TOL,
                                   check_prop1, effective_K,
                                   isoperimetric_check, make_report,
                                   prop2_bound, schwarz_radial_check,
                                   selfmap_distortion_check, thm1_bound,
                                   thm2_bound, thm3_carleson,
                                   thm3_hypothesis_fit, thm4_ratio,
                                   thm5_bound)

R_CLIP = 1.0 - 1e-6
AREA_CLIPPED_DISK = math.pi * R_CLIP ** 2


def holds_all(reports):
    return all(r.holds for r in reports)


def by_name(reports, name):
    return [r for r in reports if r.name == name]


# -- report semantics --------------------------------------------------------


def test_make_report_senses_and_slack():
    r = make_report("x", 1.0, 2.0, "le")
    assert r.margin == 1.0 and r.holds
    r = make_report("x", 2.0, 1.0, "le")
    assert r.margin == -1.0 and not r.holds
    r = make_report("x", 2.0, 1.0, "ge")
    assert r.margin == 1.0 and r.holds
    # equality survives roundoff: slack is relative to the rhs scale
    r = make_report("x", 1.0 + 1e-9, 1.0, "le")
    assert r.holds
    r = make_report("x", 1.0 + 1e-6, 1.0, "le")
    assert not r.holds
    assert isinstance(r, InequalityReport)


def test_effective_K_clamps_to_empirical():
    aff = gallery_map("affine:1,0.5")
    # declared K below the exhibited dilatation is raised to it
    assert effective_K(aff, 1.0) == pytest.approx(3.0, abs=1e-9)
    assert effective_K(aff, 5.0) == 5.0
    ident = gallery_map("identity")
    assert effective_K(ident) == pytest.approx(1.0, abs=1e-12)
    # memoized per map instance: identical object, identical value
    assert effective_K(aff, None) == effective_K(aff, None)


# -- prop1 -------------------------------------------------------------------


def test_prop1_identity_equalities():
    reports = check_prop1(gallery_map("identity"), radii=(0.2, 0.5, 0.8))
    assert len(reports) == 7
    assert holds_all(reports)
    # K = 1 makes both sandwich sides equalities: margins ~ 0
    for r in by_name(reports, "prop1_lower") + by_name(reports, "prop1_upper"):
        assert abs(r.margin) < 1e-8
    mono = by_name(reports, "prop1_monotone")[0]
    assert mono.params["h1_mean_proxy"] == pytest.approx(1.0, abs=1e-9)
    assert mono.params["perimeter_proxy"] == pytest.approx(
        2.0 * math.pi * R_CLIP, abs=1e-8)


def test_prop1_affine_sandwich():
    reports = check_prop1(gallery_map("affine:1,0.5"), radii=(0.3, 0.6))
    assert holds_all(reports)
    lower = by_name(reports, "prop1_lower")[0]
    # (r/K) int ||D|| = (0.3/3) * 1.5 * 2 pi = 0.3 pi
    assert lower.lhs == pytest.approx(0.3 * math.pi, abs=1e-8)
    assert lower.params["K"] == pytest.approx(3.0, abs=1e-9)


def test_prop1_validation():
    with pytest.raises(ValidationError):
        check_prop1(gallery_map("identity"), radii=(0.5, 1.0))
    with pytest.raises(ValidationError):
        check_prop1(gallery_map("identity"), radii=())


# -- thm1 --------------------------------------------------------------------


def test_thm1_identity_half_circle():
    rep = thm1_bound(gallery_map("identity"), ArcSet.single(0.0, math.pi))
    assert rep.holds
    assert rep.lhs == pytest.approx(math.pi * R_CLIP, abs=1e-9)
    # d0 = 1, L = 2 pi r_b: rhs = L (pi / L)^2 = pi^2 / L
    assert rep.rhs == pytest.approx(math.pi ** 2 / (2.0 * math.pi * R_CLIP),
                                    abs=1e-8)
    assert rep.params["d0"] == pytest.approx(1.0)
    assert not rep.params["limit_path"]


def test_thm1_near_full_measure_limit():
    rep = thm1_bound(gallery_map("affine:1,0.5"),
                     ArcSet.single(0.0, 2.0 * math.pi - 5e-7))
    assert rep.params["limit_path"]
    # limit bound is 2 pi d0 = 2 pi (1 - 0.5)
    assert rep.rhs == pytest.approx(math.pi, abs=1e-9)
    assert rep.holds


def test_thm1_rejects_degenerate_arcs():
    with pytest.raises(DegenerateE):
        thm1_bound(gallery_map("identity"), ArcSet.full())


# -- thm2 --------------------------------------------------------------------


def test_thm2_identity_chain():
    reports = thm2_bound(gallery_map("identity"), 1.0,
                         M_lav=0.5 * math.pi, r_list=(0.5, 1.0, 2.0))
    assert len(reports) == 6
    assert holds_all(reports)
    damped = by_name(reports, "thm2_chain_damped")
    p = damped[0].params
    assert p["K"] == pytest.approx(1.0, abs=1e-12)
    assert p["alpha"] == pytest.approx(
        4.0 / (1.0 + 0.5 * math.pi) ** 2, abs=1e-12)
    assert p["area"] == pytest.approx(AREA_CLIPPED_DISK, abs=1e-9)
    # integrating crosscut lengths over every radius sweeps the whole
    # disk once: LHS at r = 2 is the clipped disk area again
    assert damped[2].lhs == pytest.approx(AREA_CLIPPED_DISK, abs=1e-8)
    assert p["lhs_node_check"] < 1e-6
    # the outer bound at r = 2: sqrt(K pi A / 3) 2^{3/2}
    want_outer = math.sqrt(math.pi * AREA_CLIPPED_DISK / 3.0) * 2.0 ** 1.5
    assert by_name(reports, "thm2_chain_outer")[2].rhs == pytest.approx(
        want_outer, abs=1e-8)


def test_thm2_damped_fails_at_tiny_radius():
    # the exponential damping overwhelms r^{3/2} as r -> 0 while the
    # crosscut integral only shrinks polynomially; the damped link is
    # genuinely false there and must be reported as such
    reports = thm2_bound(gallery_map("identity"), 1.0,
                         M_lav=0.5 * math.pi, r_list=(0.05,))
    damped = by_name(reports, "thm2_chain_damped")[0]
    assert not damped.holds
    assert damped.lhs > damped.rhs * 10.0
    # the undamped outer link still holds
    assert by_name(reports, "thm2_chain_outer")[0].holds


def test_thm2_default_lavrentiev_from_image_boundary():
    reports = thm2_bound(gallery_map("identity"), 1.0, r_list=(1.0,))
    got = reports[0].params["M_lav"]
    # inscribed-polygon chord-arc constant of a circle, slightly under pi/2
    assert got == pytest.approx(0.5 * math.pi, abs=1e-3)
    assert got <= 0.5 * math.pi


def test_thm2_poisson_chain():
    reports = thm2_bound(gallery_map("poisson:phi=t+0.2*sin(t)"), 1.0)
    assert len(reports) == 6
    assert holds_all(reports)
    for rep in reports:
        for key in ("lhs_node_check", "lhs_adaptive_vs_fixed",
                    "area_node_check"):
            assert rep.params[key] <= REPORT_TOL


# -- thm3 --------------------------------------------------------------------


def test_thm3_carleson_constant_fields():
    m_prime, reports = thm3_carleson(gallery_map("identity"))
    assert m_prime == pytest.approx(1.0, abs=1e-8)
    assert reports[0].params["ratio_min"] == pytest.approx(1.0, abs=1e-8)
    m_prime, _ = thm3_carleson(gallery_map("affine:1,0.5"))
    assert m_prime == pytest.approx(1.0, abs=1e-8)


def test_thm3_carleson_radial_growth():
    # ||D|| = 1 + 0.6 |z|: worst probe is the innermost (|z| = 0.3)
    m_prime, reports = thm3_carleson(gallery_map("poly:z+0.3*zbar^2"))
    want = (1.0 + 0.6 * R_CLIP) / 1.18
    assert m_prime == pytest.approx(want, abs=1e-6)
    assert reports[0].probes == 12


def test_thm3_carleson_validation():
    with pytest.raises(ValidationError):
        thm3_carleson(gallery_map("identity"), z_probes=[1.0])
    from harmonicdisk import SeriesHarmonicMap
    folded = SeriesHarmonicMap([0.0, 0.0, 1.0])  # f_z(0) = 0
    with pytest.raises(DivisionDegenerate):
        thm3_carleson(folded, z_probes=[0.0])


def test_thm3_hypothesis_fit():
    # constant ||D||: the fitted constant is the diagonal value 1
    got = thm3_hypothesis_fit(gallery_map("identity"), 1.0, 0.5)
    assert got == pytest.approx(1.0, abs=1e-12)
    # any map: the diagonal forces fit >= 1
    got = thm3_hypothesis_fit(gallery_map("poly:z+0.3*zbar^2"), 1.0j, 0.3)
    assert got >= 1.0 - 1e-12
    for zeta in (0.5, complex(np.nan, 0.0)):
        with pytest.raises(ValidationError):
            thm3_hypothesis_fit(gallery_map("identity"), zeta, 0.5)
    with pytest.raises(ValidationError):
        thm3_hypothesis_fit(gallery_map("identity"), 1.0, 1.0)


# -- prop2 -------------------------------------------------------------------


def test_prop2_identity_closed_form():
    rep = prop2_bound(gallery_map("identity"), 0.5)
    assert rep.holds
    # F = 0.5 zeta: every ray ratio is exactly 0.5
    assert rep.lhs == pytest.approx(0.5, abs=1e-9)
    want_M = (2.0 / math.pi) * R_CLIP * math.log(3.0)
    assert rep.rhs == pytest.approx(want_M, abs=1e-9)
    # the variant with the extra r0 factor is reported, not asserted:
    # for the identity it sits below the observed ratio
    assert rep.params["M_displayed"] == pytest.approx(0.5 * want_M, abs=1e-9)
    assert rep.params["M_displayed"] < rep.lhs


def test_prop2_clips_to_poisson_derivative_radius():
    """poisson:phi=t is exactly f(z) = z, refused past |z| = 0.998.  At
    r0 = 0.999 the rays of F(zeta) = f(r0 zeta) must stop at
    0.998 / 0.999 instead of being refused; radial length over r is r0."""
    rep = prop2_bound(gallery_map("poisson:phi=t"), 0.999)
    assert abs(rep.lhs - 0.999) < 1e-9


def test_prop2_validation():
    with pytest.raises(ValidationError):
        prop2_bound(gallery_map("identity"), 1.0)


# -- thm5 --------------------------------------------------------------------


def test_thm5_dilation_sharpness():
    # f = M z: |a_1| = M, M_rad = M, K = 1: equality at n = 1
    for M in (0.5, 1.0, 3.0):
        reports = thm5_bound(gallery_map(f"scaled:{M}"), n_max=3)
        assert holds_all(reports)
        first = reports[0]
        assert first.lhs == pytest.approx(M, abs=1e-9)
        assert first.rhs == pytest.approx(M, abs=1e-8)
        assert abs(first.margin) < 1e-8
        for rep in reports[1:]:
            assert rep.lhs < 1e-9


def test_thm5_affine():
    reports = thm5_bound(gallery_map("affine:1,0.5"), n_max=2)
    assert holds_all(reports)
    assert reports[0].lhs == pytest.approx(1.5, abs=1e-10)
    assert reports[0].params["M_rad"] == pytest.approx(1.5, abs=1e-9)
    assert reports[0].params["K"] == pytest.approx(3.0, abs=1e-8)


# -- thm4 --------------------------------------------------------------------


def test_thm4_identity_constant_ratio():
    reports = thm4_ratio(gallery_map("identity"), r_list=(0.1, 0.3, 0.5))
    assert holds_all(reports)
    bounds = by_name(reports, "thm4_bound")
    for rep in bounds:
        assert rep.lhs == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-6)
    trend = by_name(reports, "thm4_trend")[0]
    assert trend.params["constant_ratio"]
    assert not trend.params["below_threshold"]  # 0.159 > 0.05
    assert trend.holds


def test_thm4_identity_bound_arithmetic():
    reports = thm4_ratio(gallery_map("identity"), r_list=(0.2,))
    rep = by_name(reports, "thm4_bound")[0]
    # d(f(0.2 e^{it}), boundary) = 1 - 0.2 up to the proxy radius,
    # so rhs = 32 r (1+r) / (2 pi (1 - r))
    want = 32.0 * 0.2 * 1.2 / (2.0 * math.pi * 0.8)
    assert rep.rhs == pytest.approx(want, rel=1e-3)


# -- schwarz -----------------------------------------------------------------


def test_schwarz_identity_fitted():
    rep = schwarz_radial_check(gallery_map("identity"), r_grid=32)
    assert rep.holds
    assert rep.params["fitted"]
    assert rep.params["normalization"] == pytest.approx(1.0, abs=1e-9)
    assert abs(rep.lhs) < 1e-9  # equality at every radius


def test_schwarz_explicit_normalization():
    rep = schwarz_radial_check(gallery_map("identity"), normalization=2.0,
                               r_grid=16)
    assert rep.holds
    assert not rep.params["fitted"]
    with pytest.raises(NormalizationViolation):
        schwarz_radial_check(gallery_map("identity"), normalization=0.5)
    with pytest.raises(ValidationError):
        schwarz_radial_check(gallery_map("identity"), normalization=-1.0)
    with pytest.raises(ValidationError):
        schwarz_radial_check(gallery_map("identity"), r_grid=1)


# -- selfmap -----------------------------------------------------------------


def test_selfmap_identity_equalities():
    reports = selfmap_distortion_check(gallery_map("identity"), probes=64)
    assert holds_all(reports)
    for rep in reports:
        assert abs(rep.lhs) < 1e-12  # both bounds are equalities


def test_selfmap_not_onto_fails_lower_bound():
    # f = z/2 maps into, not onto: R = (1-|z|^2/4)/(1-|z|^2) >= 1 yet
    # |f_z| = 1/2, so the lower distortion bound genuinely fails
    reports = selfmap_distortion_check(gallery_map("scaled:0.5"), probes=64)
    lower = [r for r in reports if r.name == "selfmap_lower"][0]
    assert not lower.holds
    upper = [r for r in reports if r.name == "selfmap_upper"][0]
    assert upper.holds


def test_selfmap_rejects_escaping_map():
    with pytest.raises(NotSelfMap):
        selfmap_distortion_check(gallery_map("poly:z+0.3*zbar^2"))


def test_selfmap_deterministic_seed():
    a = selfmap_distortion_check(gallery_map("identity"), probes=32, seed=7)
    b = selfmap_distortion_check(gallery_map("identity"), probes=32, seed=7)
    assert a[0].lhs == b[0].lhs and a[1].lhs == b[1].lhs


# -- count caps --------------------------------------------------------------


class _Evaluated(Exception):
    pass


class _RefusingMap(HarmonicMap):
    """Raises as soon as anything is evaluated."""

    def eval_many(self, z):
        raise _Evaluated("eval_many")

    def derivs_many(self, z):
        raise _Evaluated("derivs_many")


def test_count_caps_refuse_before_evaluation():
    # each cap + 1 is refused before the map is asked for anything
    with pytest.raises(ValidationError,
                       match=f"r_grid must be 2 to {MAX_R_GRID}, got "
                             f"{MAX_R_GRID + 1}"):
        schwarz_radial_check(_RefusingMap(), r_grid=MAX_R_GRID + 1)
    with pytest.raises(ValidationError,
                       match=f"probes must be 1 to {MAX_PROBES}, got "
                             f"{MAX_PROBES + 1}"):
        selfmap_distortion_check(_RefusingMap(), probes=MAX_PROBES + 1)
    with pytest.raises(ValidationError,
                       match=f"theta_grid must be 8 to {MAX_THETA_GRID}, "
                             f"got {MAX_THETA_GRID + 1}"):
        QuadratureConfig(theta_grid=MAX_THETA_GRID + 1)
    assert (MAX_R_GRID, MAX_PROBES, MAX_THETA_GRID) == (4096, 1 << 20, 8192)


# -- isoperimetric ------------------------------------------------------------


def test_isoperimetric_square_and_circle():
    rep = isoperimetric_check(square_polygon())
    assert rep.holds
    assert rep.lhs == 4.0
    assert rep.rhs == pytest.approx(64.0 / (4.0 * math.pi))
    rep = isoperimetric_check(circle_polygon(512))
    assert rep.holds
    assert rep.margin == pytest.approx(0.0, abs=1e-3)  # near-extremal


def test_isoperimetric_rejects_bowtie():
    bowtie = PolygonalCurve(np.array([0.0, 1.0 + 1.0j, 1.0, 1.0j]))
    with pytest.raises(SelfIntersecting):
        isoperimetric_check(bowtie)
