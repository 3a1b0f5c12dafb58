"""Inequality checks on maps with closed-form behavior.

Identity, dilations, and affine maps make every quantity in the checks
computable by hand; those values anchor the assertions.  Where a check
is expected to fail honestly (non-onto self-maps, the damped crosscut
chain at tiny radii), the failure itself is asserted.
"""

import math
import re
import sys

import numpy as np
import pytest

from harmonicdisk import (ArcSet, DegenerateE, DivisionDegenerate,
                          HarmonicMap, InequalityReport,
                          NormalizationViolation, NotSelfMap,
                          SeriesHarmonicMap, ValidationError, gallery_map)
from harmonicdisk import theorems
from harmonicdisk.config import MAX_THETA_GRID, QuadratureConfig
from harmonicdisk.geometry import (MAX_COEFFICIENTS, _stretch,
                                   extract_coefficients, radial_length,
                                   ray_table)
from harmonicdisk.maps import rotate_domain
from harmonicdisk.quadrature import refine_grid_max
from harmonicdisk.theorems import (MAX_PROBES, MAX_R_GRID, REPORT_TOL,
                                   check_prop1, effective_K, make_report,
                                   prop2_bound, schwarz_radial_check,
                                   selfmap_distortion_check, thm1_bound,
                                   thm2_bound, thm3_carleson, thm4_ratio,
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
    [rep] = thm1_bound(gallery_map("identity"), ArcSet.single(0.0, math.pi))
    assert rep.holds
    assert rep.lhs == pytest.approx(math.pi * R_CLIP, abs=1e-9)
    # d0 = 1, L = 2 pi r_b: rhs = L (pi / L)^2 = pi^2 / L
    assert rep.rhs == pytest.approx(math.pi ** 2 / (2.0 * math.pi * R_CLIP),
                                    abs=1e-8)
    assert rep.params["d0"] == pytest.approx(1.0)
    assert not rep.params["limit_path"]


def test_thm1_near_full_measure_limit():
    [rep] = thm1_bound(gallery_map("affine:1,0.5"),
                       ArcSet.single(0.0, 2.0 * math.pi - 5e-7))
    assert rep.params["limit_path"]
    # limit bound is 2 pi d0 = 2 pi (1 - 0.5)
    assert rep.rhs == pytest.approx(math.pi, abs=1e-9)
    assert rep.holds


def test_thm1_rejects_degenerate_arcs():
    with pytest.raises(DegenerateE):
        thm1_bound(gallery_map("identity"), ArcSet.single(0.0, 2.0 * math.pi))


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
    [rep] = thm3_carleson(gallery_map("identity"))
    assert rep.lhs == rep.params["ratio_max"] == pytest.approx(1.0, abs=1e-8)
    assert rep.params["ratio_min"] == pytest.approx(1.0, abs=1e-8)
    [rep] = thm3_carleson(gallery_map("affine:1,0.5"))
    assert rep.lhs == pytest.approx(1.0, abs=1e-8)


def test_thm3_carleson_radial_growth():
    # ||D|| = 1 + 0.6 |z|: worst probe is the innermost (|z| = 0.3)
    [rep] = thm3_carleson(gallery_map("poly:z+0.3*zbar^2"))
    want = (1.0 + 0.6 * R_CLIP) / 1.18
    assert rep.lhs == pytest.approx(want, abs=1e-6)
    assert rep.probes == 12


def test_thm3_carleson_validation():
    # ||D|| = 1e-15 at every probe, below the degeneracy cutoff
    with pytest.raises(DivisionDegenerate,
                       match=re.escape("||D|| ~ 0 at probe (0.3+0j)")):
        thm3_carleson(gallery_map("scaled:1e-15"))


# -- prop2 -------------------------------------------------------------------


def test_prop2_identity_closed_form():
    [rep] = prop2_bound(gallery_map("identity"), 0.5)
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
    [rep] = prop2_bound(gallery_map("poisson:phi=t"), 0.999)
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


# -- refined sups on the gallery ----------------------------------------------

# M_rad of thm5 and the radial lengths of thm4's rows at its default
# r_list, as float.hex.  Every maximizer sits on the angle grid at
# theta* = 0, where the refinement keeps the grid point.
GALLERY_REFINED_SUPS = {
    "identity": ("0x1.0000000000000p+0", [
        "0x1.999999999999ap-5", "0x1.999999999999ap-4",
        "0x1.999999999999ap-3", "0x1.999999999999ap-2",
        "0x1.3333333333333p-1"]),
    "scaled:2.0": ("0x1.0000000000000p+1", [
        "0x1.999999999999ap-4", "0x1.999999999999ap-3",
        "0x1.999999999999ap-2", "0x1.999999999999ap-1",
        "0x1.3333333333333p+0"]),
    "affine:1,0.5": ("0x1.8000000000000p+0", [
        "0x1.3333333333333p-4", "0x1.3333333333333p-3",
        "0x1.3333333333333p-2", "0x1.3333333333333p-1",
        "0x1.cccccccccccccp-1"]),
    "poly:z+0.3*zbar^2": ("0x1.4ccccccccccccp+0", [
        "0x1.9fbe76c8b4395p-5", "0x1.a5e353f7ced91p-4",
        "0x1.b22d0e5604189p-3", "0x1.cac083126e978p-2",
        "0x1.6a7ef9db22d0dp-1"]),
    "poisson:phi=t+0.2*sin(t)": ("0x1.18da68741b9bcp+0", [
        "0x1.99984b440d8a0p-5", "0x1.9ba507eae4373p-4",
        "0x1.9fc671060feb8p-3", "0x1.a82961e506b31p-2",
        "0x1.4489e6fad658ap-1"]),
}


# thm4's distance integrals at its default r_list, as float.hex
GALLERY_DISTANCE_INTEGRALS = {
    "identity": [
        "0x1.7e044cf5f4b35p+2", "0x1.69e91e03c453dp+2",
        "0x1.41b2c01f63949p+2", "0x1.e28c08ad442c5p+1",
        "0x1.41b2911bc12f9p+1"],
    "scaled:2.0": [
        "0x1.7e044cf5f4b35p+3", "0x1.69e91e03c453dp+3",
        "0x1.41b2c01f63949p+3", "0x1.e28c08ad442c5p+2",
        "0x1.41b2911bc12f9p+2"],
    "affine:1,0.5": [
        "0x1.850a8320febb1p+1", "0x1.77655a135f935p+1",
        "0x1.5a68c7240cf70p+1", "0x1.1962c79ab4a0ap+1",
        "0x1.9b669b371b007p+0"],
    "poly:z+0.3*zbar^2": [
        "0x1.08fec13c0e92bp+2", "0x1.f18e469688856p+1",
        "0x1.b25b0f3dad9d8p+1", "0x1.3ac7d43c1692fp+1",
        "0x1.98da0ebdb30e7p+0"],
    "poisson:phi=t+0.2*sin(t)": [
        "0x1.66f2f8674bac5p+2", "0x1.5e89c1c316f46p+2",
        "0x1.3c41300e6f338p+2", "0x1.dd6e276062097p+1",
        "0x1.3ebd034f45970p+1"],
}


@pytest.mark.parametrize("name", sorted(GALLERY_REFINED_SUPS))
def test_gallery_refined_sups_are_frozen(name):
    m_rad, lengths = GALLERY_REFINED_SUPS[name]
    m = gallery_map(name)
    rows = by_name(thm4_ratio(m), "thm4_bound")
    assert [rep.params["radial_length"].hex() for rep in rows] == lengths
    assert [rep.params["theta_star"] for rep in rows] == [0.0] * len(rows)
    assert ([rep.params["distance_integral"].hex() for rep in rows]
            == GALLERY_DISTANCE_INTEGRALS[name])
    for rep in thm5_bound(m):
        assert rep.params["M_rad"].hex() == m_rad
        assert rep.params["theta_star"] == 0.0


def _sup_radius_by_radius(m, radii, cfg):
    """sup_radial_length with a 128-panel ray table and zoom per radius."""
    pairs = []
    for r in radii:
        rho = np.linspace(0.0, r, 129)

        def lengths(rays, r=r, rho=rho):
            return ray_table(m, rho, r / 128, rays, _stretch)[1][:, -1]

        _, cum = ray_table(m, rho, r / 128, cfg.theta_grid, _stretch)
        theta, _ = refine_grid_max(lengths, cum[:, -1])
        pairs.append((theta, radial_length(m, theta, r, cfg)[0]))
    return pairs


@pytest.mark.parametrize("alpha", [0.1234, 1.0, 2.5])
def test_thm4_shared_ray_table_moves_only_flat_tops(monkeypatch, alpha):
    # off the angle grid the maximizer of the shared table's zoom and of
    # one 128-panel table per radius differ by the flat top of the
    # maximum; the adaptive lengths and the verdicts stay
    m = rotate_domain(gallery_map("poly:z+0.3*zbar^2"), alpha)
    shared = thm4_ratio(m)
    monkeypatch.setattr(theorems, "sup_radial_length", _sup_radius_by_radius)
    alone = thm4_ratio(m)
    assert [rep.holds for rep in shared] == [rep.holds for rep in alone]
    for a, b in zip(by_name(shared, "thm4_bound"),
                    by_name(alone, "thm4_bound")):
        turn = a.params["theta_star"] - b.params["theta_star"]
        assert abs(math.remainder(turn, 2.0 * math.pi)) < 1e-7
        assert a.params["radial_length"] == pytest.approx(
            b.params["radial_length"], rel=1e-15, abs=0.0)
        assert (a.params["distance_integral"]
                == b.params["distance_integral"])


# -- schwarz -----------------------------------------------------------------


def test_schwarz_identity_fitted():
    [rep] = schwarz_radial_check(gallery_map("identity"), r_grid=32)
    assert rep.holds
    assert rep.params["fitted"]
    assert rep.params["normalization"] == pytest.approx(1.0, abs=1e-9)
    assert abs(rep.lhs) < 1e-9  # equality at every radius


def test_schwarz_explicit_normalization():
    [rep] = schwarz_radial_check(gallery_map("identity"), normalization=2.0,
                                 r_grid=16)
    assert rep.holds
    assert not rep.params["fitted"]
    with pytest.raises(NormalizationViolation):
        schwarz_radial_check(gallery_map("identity"), normalization=0.5)
    with pytest.raises(ValidationError):
        schwarz_radial_check(gallery_map("identity"), normalization=-1.0)
    with pytest.raises(ValidationError):
        schwarz_radial_check(gallery_map("identity"), r_grid=1)


def test_schwarz_sup_is_the_ray_grid_maximum():
    # f = z + c z^2 with |c| = 0.2 is holomorphic, so ||Df|| = |1 + 2 c z|
    # peaks on the ray through conj(c), here half a step (pi/64) past the
    # ray at 0 of a 64-ray table, and sup_theta int_0^r ||Df|| = r + 0.2 r^2.
    # The check reads the two rays pi/64 from the peak and stays below
    # that sup by 1.9e-4 in the fitted normalization.
    half_step = math.pi / 64
    m = SeriesHarmonicMap([0.0, 1.0, 0.2 * np.exp(-1j * half_step)])
    [rep] = schwarz_radial_check(m, cfg=QuadratureConfig(theta_grid=64))
    r_top = rep.params["r_top"]
    x, w = np.polynomial.legendre.leggauss(64)
    rho = 0.5 * r_top * (x + 1.0)
    on_ray = 0.5 * r_top * np.sum(
        w * np.abs(1.0 + 0.4 * rho * np.exp(1j * half_step)))
    c = rep.params["normalization"]
    assert c == pytest.approx(on_ray / r_top, rel=1e-12)
    assert c == pytest.approx(1.1998084771856, rel=1e-12)
    assert 1.0 + 0.2 * r_top - c == pytest.approx(1.913e-4, rel=1e-3)
    # a normalization between the two is therefore not refused
    assert on_ray / 1.1999 < 1.0 < (r_top + 0.2 * r_top ** 2) / 1.1999
    [rep] = schwarz_radial_check(m, normalization=1.1999,
                                 cfg=QuadratureConfig(theta_grid=64))
    assert rep.params["normalization"] == 1.1999


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
    for n_max in (0, MAX_COEFFICIENTS + 1):
        msg = f"n_max must be 1 to {MAX_COEFFICIENTS}, got {n_max}"
        with pytest.raises(ValidationError, match=msg):
            thm5_bound(_RefusingMap(), n_max=n_max)
        with pytest.raises(ValidationError, match=msg):
            extract_coefficients(_RefusingMap(), n_max, 0.5)
    assert (MAX_R_GRID, MAX_PROBES, MAX_THETA_GRID, MAX_COEFFICIENTS) == (
        4096, 1 << 20, 8192, 4096)


@pytest.mark.parametrize("check,key,name", [
    (check_prop1, "radii", "radii"),
    (thm2_bound, "r_list", "r_list"),
    (thm4_ratio, "r_list", "r_list")], ids=["prop1", "thm2", "thm4"])
def test_radius_lists_are_capped_before_evaluation(check, key, name):
    # thm2 takes a lens integral per radius: a list past the cap is
    # refused before the map is asked for anything, and one at the cap
    # reaches the map
    with pytest.raises(ValidationError,
                       match=f"^{name} must be 1 to {MAX_R_GRID}, got "
                             f"{MAX_R_GRID + 1}$"):
        check(_RefusingMap(), **{key: [0.5] * (MAX_R_GRID + 1)})
    with pytest.raises(_Evaluated):
        check(_RefusingMap(), **{key: [0.5] * MAX_R_GRID})


_DBL_MAX = sys.float_info.max


@pytest.mark.parametrize("check,key,top,formula", [
    # alpha's denominator K (1 + M_lav)^2 at M_lav = 1, and K pi
    (thm2_bound, "K", _DBL_MAX / 4.0, lambda K: K * 4.0),
    (thm2_bound, "M_lav", math.sqrt(_DBL_MAX) - 1.0,
     lambda M: (1.0 + M) ** 2),
    # thm4's 32 r (1 + r) K^3 at r up to 1
    (thm4_ratio, "K", (_DBL_MAX / 64.0) ** (1 / 3), lambda K: 64.0 * K ** 3),
], ids=["thm2-K", "thm2-M_lav", "thm4-K"])
def test_declared_constants_stop_where_the_formula_overflows(
        check, key, top, formula):
    assert math.isfinite(formula(top))
    with pytest.raises(_Evaluated):
        check(_RefusingMap(), **{key: top})
    for bad in (math.nextafter(top, math.inf), 1e308):
        with pytest.raises(ValidationError,
                           match=f"^{key} must be in "
                                 f"{re.escape(f'[1,{top:.12g}]')}, "
                                 f"got {re.escape(str(bad))}$"):
            check(_RefusingMap(), **{key: bad})


def test_quadrature_config_refuses_infinite_tolerances():
    for key in ("abs_tol", "rel_tol"):
        with pytest.raises(ValidationError,
                           match=f"^{key} must be in \\(0,inf\\), got inf$"):
            QuadratureConfig(**{key: math.inf})


@pytest.mark.parametrize("check,kwargs,message", [
    (check_prop1, {"K": 0.5}, "K must be in [1,inf), got 0.5"),
    (check_prop1, {"K": math.nan}, "K must be in [1,inf), got nan"),
    (check_prop1, {"K": math.inf}, "K must be in [1,inf), got inf"),
    (check_prop1, {"radii": ()}, "radii must be 1 to 4096, got 0"),
    (thm2_bound, {"M_lav": -1.0}, "M_lav must be in [1,inf), got -1.0"),
    (thm2_bound, {"M_lav": 0.5}, "M_lav must be in [1,inf), got 0.5"),
    (thm2_bound, {"M_lav": math.nan}, "M_lav must be in [1,inf), got nan"),
    (thm2_bound, {"M_lav": math.inf}, "M_lav must be in [1,inf), got inf"),
    (thm2_bound, {"K": 0.5}, "K must be in [1,inf), got 0.5"),
    (thm2_bound, {"r_list": ()}, "r_list must be 1 to 4096, got 0"),
    (thm4_ratio, {"r_list": ()}, "r_list must be 1 to 4096, got 0"),
    (thm4_ratio, {"r_list": (0.5, 1.0)},
     "level-curve radius must be in (0,1), got 1.0"),
    (thm4_ratio, {"r_list": (math.nan,)},
     "level-curve radius must be in (0,1), got nan"),
    (thm4_ratio, {"boundary_samples": 7},
     "boundary_samples must be 8 to 1048576, got 7"),
    (thm4_ratio, {"K": math.nan}, "K must be in [1,inf), got nan"),
    (schwarz_radial_check, {"normalization": math.nan},
     "normalization must be in (0,inf), got nan"),
    (schwarz_radial_check, {"normalization": math.inf},
     "normalization must be in (0,inf), got inf"),
    (schwarz_radial_check, {"normalization": -1.0},
     "normalization must be in (0,inf), got -1.0"),
    (selfmap_distortion_check, {"seed": -1}, "seed must be 0 to inf, got -1"),
    (thm4_ratio, {"threshold": math.nan},
     "threshold must be in (0,inf), got nan"),
    (thm4_ratio, {"threshold": 0.0}, "threshold must be in (0,inf), got 0.0"),
    (thm4_ratio, {"threshold": -1.0},
     "threshold must be in (0,inf), got -1.0"),
    (thm4_ratio, {"threshold": math.inf},
     "threshold must be in (0,inf), got inf"),
    (thm5_bound, {"rho": 1.5}, "extraction radius must be in (0,1), got 1.5"),
    (thm5_bound, {"rho": math.nan},
     "extraction radius must be in (0,1), got nan"),
])
def test_bad_input_is_refused_before_evaluation(check, kwargs, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        check(_RefusingMap(), **kwargs)

