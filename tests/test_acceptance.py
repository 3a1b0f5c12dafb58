"""Acceptance gate: one test per shipping criterion, one printed
pass/fail line each.

Two criteria are asserted at face value even though the quantities they
pin down are analytically out of reach (see the companion tests right
after each): the arc-measure limit gap at k=5 is 1.435e-4, and the
damped chain bound is violated for r <= 0.1.  Those two tests fail and
are expected to fail; everything else must pass.
"""

import time

import numpy as np

from harmonicdisk.cli import main
from harmonicdisk.config import QuadratureConfig
from harmonicdisk.curve_constants import (ahlfors_constant,
                                          lavrentiev_constant,
                                          quasicircle_constant)
from harmonicdisk.gallery import gallery_map, gallery_names
from harmonicdisk.geometry import (ArcSet, circle_polygon,
                                   extract_coefficients, image_area,
                                   level_curve_length, radial_length,
                                   rectangle_polygon)
from harmonicdisk.maps import (SeriesHarmonicMap, estimate_K, rotate_domain,
                               scale_range)
from harmonicdisk.theorems import (check_prop1, schwarz_radial_check,
                                   thm1_bound, thm2_bound, thm4_ratio,
                                   thm5_bound, prop2_bound)
from oracles.square_pair_bruteforce import brute_force

NINE_RADII = np.arange(1, 10) / 10.0
TWO_PI = 2.0 * np.pi

# closed-form RHS of the arc-measure bound for the identity at
# measures 2*pi - 10^-k, k = 1..5 (proxy radius 1 - 1e-6)
THM1_RHS_ANALYTIC = (5.7826978016908743, 6.2090845901051877,
                     6.2734457605470233, 6.2819805826663266,
                     6.28304180058268)


def _criterion(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {tag} {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _random_series_32(rng):
    # degrees up to 32, normalized f(0)=0, dominant a_1 keeps it
    # sense preserving
    na = int(rng.integers(1, 33))
    nb = int(rng.integers(0, 33))
    a = rng.uniform(-1, 1, na) + 1j * rng.uniform(-1, 1, na)
    b = (rng.uniform(-1, 1, nb) + 1j * rng.uniform(-1, 1, nb)
         if nb else np.zeros(0, complex))
    a[0] = 2.0 + a[0] * 0.1
    if na > 1:
        a[1:] *= 0.2 / np.arange(2, na + 1)
    if nb:
        b *= 0.2 / np.arange(1, nb + 1)
    m = SeriesHarmonicMap(np.concatenate([[0.0], a]), b)
    full_a = np.zeros(33, complex)
    full_b = np.zeros(32, complex)
    full_a[1:na + 1] = a
    full_b[:nb] = b
    return m, full_a, full_b, max(na, nb if nb else 1)


def test_criterion_01_level_curve_lengths():
    t0 = time.perf_counter()
    ident = gallery_map("identity")
    aff = gallery_map("affine:1,0.5")

    worst_ident = max(abs(level_curve_length(ident, r)[0] - TWO_PI * r)
                      for r in NINE_RADII)

    n = 1 << 16
    th = TWO_PI * np.arange(n + 1) / n
    worst_aff = 0.0
    for r in NINE_RADII:
        w = aff.eval_many(r * np.exp(1j * th))
        oracle = float(np.sum(np.abs(np.diff(w))))
        got, _ = level_curve_length(aff, r)
        worst_aff = max(worst_aff, abs(got - oracle) / oracle)
    dt = time.perf_counter() - t0

    ok = worst_ident < 1e-9 and worst_aff < 1e-6 and dt < 5.0
    _criterion(1, "level-curve lengths vs closed form and 2^16-gon", ok,
               f"ident {worst_ident:.2e}, affine rel {worst_aff:.2e}, "
               f"{dt:.2f}s")


def test_criterion_02_coefficient_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    worst_err = 0.0
    worst_cross = 0.0
    for _ in range(100):
        m, full_a, full_b, n_max = _random_series_32(rng)
        a5, b5 = extract_coefficients(m, n_max, rho=0.5)
        a7, b7 = extract_coefficients(m, n_max, rho=0.7)
        worst_err = max(worst_err,
                        np.max(np.abs(a5 - full_a[:n_max + 1])),
                        np.max(np.abs(b5 - full_b[:n_max])))
        worst_cross = max(worst_cross,
                          np.max(np.abs(a5 - a7)),
                          np.max(np.abs(b5 - b7)))
    dt = time.perf_counter() - t0

    ok = worst_err < 1e-9 and worst_cross < 1e-9 and dt < 10.0
    _criterion(2, "coefficient round trip, 100 random maps, two radii", ok,
               f"recovery {worst_err:.2e}, cross-radius {worst_cross:.2e}, "
               f"{dt:.2f}s")


def test_criterion_03_first_mode_sharpness():
    worst_rel = 0.0
    worst_hi = 0.0
    for M in (0.5, 1.0, 3.0):
        reps = thm5_bound(gallery_map(f"scaled:{M}"), K=1.0, n_max=8)
        first = reps[0]
        worst_rel = max(worst_rel, abs(first.lhs - first.rhs) / abs(first.rhs))
        worst_hi = max(worst_hi, max(r.lhs for r in reps[1:]))
    ok = worst_rel < 1e-8 and worst_hi < 1e-9
    _criterion(3, "first-mode bound attained by stretch maps", ok,
               f"rel {worst_rel:.2e}, higher modes {worst_hi:.2e}")


def test_criterion_04_arc_measure_limit():
    ident = gallery_map("identity")
    rhs = []
    all_hold = True
    for k in range(1, 6):
        [rep] = thm1_bound(ident, ArcSet([(0.0, TWO_PI - 10.0 ** -k)]))
        all_hold = all_hold and rep.holds
        rhs.append(rep.rhs)
    monotone = bool(np.all(np.diff(rhs) > 0))
    final_gap = TWO_PI - rhs[-1]
    # final_gap is analytically 1.435e-4 at k=5; asserted at face value
    ok = all_hold and monotone and final_gap < 1e-4
    _criterion(4, "arc-measure bound holds, RHS increases to full measure",
               ok, f"holds={all_hold}, monotone={monotone}, "
               f"final gap {final_gap:.4e}")


def test_arc_measure_limit_detail():
    # the k=5 gap is a property of the bound itself, not of the
    # quadrature: the computed RHS matches the closed form to 1e-10
    # and the relative gap is 2.3e-5
    ident = gallery_map("identity")
    rhs = [thm1_bound(ident, ArcSet([(0.0, TWO_PI - 10.0 ** -k)]))[0].rhs
           for k in range(1, 6)]
    assert np.max(np.abs(np.array(rhs) - THM1_RHS_ANALYTIC)) < 1e-10
    assert (TWO_PI - rhs[-1]) / TWO_PI < 1e-4


def test_criterion_05_distance_chain():
    reps = thm2_bound(gallery_map("identity"), 1.0, K=1.0, M_lav=np.pi / 2,
                      r_list=(0.05, 0.1, 0.5, 1.0, 2.0))
    worst_node = max(max(r.params["lhs_node_check"],
                         r.params["area_node_check"]) for r in reps)
    margins = {(r.name, r.params["r"]): r.margin for r in reps}
    all_hold = all(r.holds for r in reps)
    # the damped link is violated for r <= 0.1; asserted at face value
    ok = all_hold and worst_node < 1e-6
    _criterion(5, "distance chain at the boundary contact point", ok,
               f"all_hold={all_hold}, node agreement {worst_node:.2e}, "
               f"worst margin {min(margins.values()):.3e}")


def test_distance_chain_detail():
    # the violation is genuine, not numerical: at r=0.05 the LHS
    # exceeds the damped bound tenfold while quadrature cross-checks
    # agree to 1e-10; the outer link holds everywhere
    reps = thm2_bound(gallery_map("identity"), 1.0, K=1.0, M_lav=np.pi / 2,
                      r_list=(0.05, 0.1, 0.5, 1.0, 2.0))
    by = {(r.name, r.params["r"]): r for r in reps}
    for r in (0.5, 1.0, 2.0):
        assert by[("thm2_chain_damped", r)].holds
    for r in (0.05, 0.1):
        assert not by[("thm2_chain_damped", r)].holds
    bad = by[("thm2_chain_damped", 0.05)]
    assert bad.lhs > 10.0 * bad.rhs
    assert bad.params["lhs_node_check"] < 1e-9
    for r in (0.05, 0.1, 0.5, 1.0, 2.0):
        assert by[("thm2_chain_outer", r)].holds


def test_criterion_06_length_area_sandwich():
    worst = np.inf
    all_hold = True
    for name in gallery_names():
        reps = check_prop1(gallery_map(name), radii=NINE_RADII)
        all_hold = all_hold and all(r.holds for r in reps)
        worst = min(worst, min(r.margin for r in reps))
    ok = all_hold and worst >= -1e-9
    _criterion(6, "length-area sandwich and monotonicity over gallery", ok,
               f"worst margin {worst:.3e}")


def test_criterion_07_small_radius_ratio():
    all_bounds = True
    all_trends = True
    saw_varying = False
    for name in gallery_names():
        reps = thm4_ratio(gallery_map(name))
        for r in reps:
            if r.name == "thm4_bound":
                all_bounds = all_bounds and r.holds
            else:
                all_trends = all_trends and r.holds
                if not r.params["constant_ratio"]:
                    saw_varying = True
                    ratios = r.params["ratios"]
                    all_trends = all_trends and bool(
                        np.all(np.diff(ratios) >= -1e-6 * max(ratios)))
    ok = all_bounds and all_trends and saw_varying
    _criterion(7, "small-radius length ratio bound and trend", ok,
               f"bounds={all_bounds}, trends={all_trends}, "
               f"non-constant map seen={saw_varying}")


def test_criterion_08_domain_constants():
    circ = circle_polygon(512)
    lav = lavrentiev_constant(circ)
    qc = quasicircle_constant(circ)
    ahl = ahlfors_constant(circ)
    sq = rectangle_polygon(2.0, 2.0, 16)
    want_lav, want_qc = brute_force(sq.vertices)
    exact = (lavrentiev_constant(sq) == want_lav
             and quasicircle_constant(sq) == want_qc)
    ok = (abs(lav - np.pi / 2) < 1e-3 and abs(qc - 1.0) < 1e-3
          and abs(ahl - TWO_PI) < 2e-2 and exact)
    _criterion(8, "circle and square domain constants", ok,
               f"lav err {abs(lav - np.pi / 2):.1e}, "
               f"qc err {abs(qc - 1.0):.1e}, "
               f"ahlfors err {abs(ahl - TWO_PI):.1e}, square exact={exact}")


def _invariance_verdicts(m):
    return tuple(rep.holds for rep in [*thm5_bound(m, n_max=4),
                                       *schwarz_radial_check(m, r_grid=16),
                                       *prop2_bound(m, 0.5)])


def test_criterion_09_scale_rotation_invariance():
    rng = np.random.default_rng(99)
    all_pass = True
    all_invariant = True
    for _ in range(10):
        na = int(rng.integers(2, 7))
        nb = int(rng.integers(1, 6))
        a = rng.uniform(-1, 1, na) + 1j * rng.uniform(-1, 1, na)
        b = rng.uniform(-1, 1, nb) + 1j * rng.uniform(-1, 1, nb)
        a[0] = 1.0
        a[1:] *= 0.1 / np.arange(2, na + 1)
        b *= 0.1 / np.arange(1, nb + 1)
        m = SeriesHarmonicMap(np.concatenate([[0.0], a]), b)
        base = _invariance_verdicts(m)
        scaled = _invariance_verdicts(scale_range(m, 0.8 * np.exp(0.9j)))
        rotated = _invariance_verdicts(rotate_domain(m, TWO_PI / 7))
        all_pass = all_pass and all(base)
        all_invariant = all_invariant and base == scaled == rotated
    ok = all_pass and all_invariant
    _criterion(9, "verdicts invariant under range scaling and rotation", ok,
               f"pass={all_pass}, invariant={all_invariant}")


def _poisson_invariants(m, c=1.0):
    """(verdicts, lengths, areas, ratios) of m, with the quadrature's
    absolute tolerance scaled like the quantity it bounds."""
    cfg = QuadratureConfig(abs_tol=1e-9 * abs(c))
    reports = [*check_prop1(m, radii=(0.3, 0.6, 0.9), cfg=cfg),
               *thm5_bound(m, n_max=4, cfg=cfg), *prop2_bound(m, 0.5, cfg=cfg),
               *schwarz_radial_check(m, r_grid=16, cfg=cfg)]
    lengths = [level_curve_length(m, r, cfg)[0] for r in (0.3, 0.9)]
    lengths.append(radial_length(m, 0.7, 0.9, cfg)[0])
    area_cfg = QuadratureConfig(abs_tol=1e-9 * abs(c) ** 2)
    areas = [image_area(m, r, area_cfg)[0] for r in (0.5, 0.9)]
    ratios = [rep.lhs / rep.rhs for rep in reports if rep.rhs != 0.0]
    ratios.append(estimate_K(m, r_max=0.99).K_lower)
    return (tuple(rep.holds for rep in reports), np.array(lengths),
            np.array(areas), np.array(ratios))


def test_poisson_scale_rotation_invariance():
    """Criterion 09 on the gallery Poisson map, whose kernel tolerance
    is relative to its scale: verdicts as at c = 1, lengths times |c|,
    areas times |c|^2, ratios unchanged."""
    p = gallery_map("poisson:phi=t+0.2*sin(t)")
    verdicts, lengths, areas, ratios = _poisson_invariants(p)
    assert all(verdicts)
    for c in (1e-7, 0.8 * np.exp(0.9j), 1e7):
        got = _poisson_invariants(scale_range(p, c), c)
        assert got[0] == verdicts, c
        np.testing.assert_allclose(got[1], abs(c) * lengths, rtol=1e-9)
        np.testing.assert_allclose(got[2], abs(c) ** 2 * areas, rtol=1e-9)
        np.testing.assert_allclose(got[3], ratios, rtol=1e-9)
    assert _poisson_invariants(rotate_domain(p, TWO_PI / 7))[0] == verdicts


def test_criterion_10_radial_majorant():
    worst = np.inf
    all_hold = True
    for name in gallery_names():
        [rep] = schwarz_radial_check(gallery_map(name), r_grid=64)
        all_hold = all_hold and rep.holds
        worst = min(worst, rep.margin)
    ok = all_hold and worst >= -1e-9
    _criterion(10, "normalized radial growth majorized by r over gallery",
               ok, f"worst margin {worst:.3e}")


def test_criterion_11_verify_determinism(tmp_path, capsys):
    argv = ["verify", "prop1", "--spec", "poisson:phi=t+0.2*sin(t)",
            "--radii", "0.3,0.6,0.9"]
    outs = []
    for tag in ("a", "b"):
        base = tmp_path / tag / "run"
        base.parent.mkdir()
        code = main(argv + ["--out", str(base)])
        capsys.readouterr()
        assert code == 0
        outs.append((base.with_suffix(".csv").read_bytes(),
                     base.with_suffix(".json").read_bytes()))
    ok = outs[0] == outs[1]
    _criterion(11, "repeated verify runs byte-identical", ok,
               f"csv bytes {len(outs[0][0])}, json bytes {len(outs[0][1])}")
