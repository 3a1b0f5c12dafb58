"""Inequality verification harness.

Each check evaluates both sides of one inequality on a declared map and
returns InequalityReport records.  A report's margin is oriented so
that nonnegative means the inequality holds; `holds` allows a relative
slack of 1e-7 so that exact equality cases survive roundoff.

The quasiconformality constant fed into every hypothesis is
max(user-declared K, empirical lower bound from one probe circle): the
harness refuses to run a check with a K below what the map's own
derivatives already exhibit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_CONFIG, effective_boundary_radius
from .curve_constants import lavrentiev_constant
from .errors import (DegenerateE, DivisionDegenerate, NormalizationViolation,
                     NotSelfMap, ValidationError, checked_count,
                     checked_real)
from .geometry import (MAX_BOUNDARY_SAMPLES, MAX_COEFFICIENTS, _stretch,
                       _unimodular, boundary_image_length, boundary_polygon,
                       crosscut_integral, extract_coefficients, hardy_mean,
                       image_area, level_curve_length, point_polygon_distance,
                       ray_table, sup_radial_length)
from .maps import _circle_nodes, estimate_K, op_norm, sup_modulus
from .quadrature import adaptive_simpson, first_argmax

TWO_PI = 2.0 * math.pi
REPORT_TOL = 1e-7
# schwarz grid radii (8 r_grid + 1 nodes per ray) and radius list lengths
MAX_R_GRID = 1 << 12
# selfmap probes: each holds a few complex arrays, ~150 MiB at the cap
MAX_PROBES = 1 << 20


@dataclass(frozen=True)
class InequalityReport:
    """One verified inequality: margin >= 0 means it holds."""

    name: str
    lhs: float
    rhs: float
    margin: float
    holds: bool
    params: dict = field(default_factory=dict)
    probes: int = 0


def make_report(name, lhs, rhs, sense="le", params=None, probes=0):
    lhs = float(lhs)
    rhs = float(rhs)
    margin = rhs - lhs if sense == "le" else lhs - rhs
    holds = bool(margin >= -REPORT_TOL * max(1.0, abs(rhs)))
    return InequalityReport(name, lhs, rhs, margin, holds,
                            dict(params or {}), int(probes))


def effective_K(m, user_K=None, cfg=DEFAULT_CONFIG, K_max=math.inf):
    """max(declared K, empirical dilatation lower bound); a declared K is
    refused unless 1 <= K < inf, then unless K <= K_max."""
    if user_K is not None:
        user_K = checked_real("K", user_K, 1.0, math.inf, "[)")
        user_K = checked_real("K", user_K, 1.0, K_max, "[]")
    K_lower = estimate_K(m, r_max=0.99, grid=cfg.theta_grid).K_lower
    if user_K is None:
        return K_lower
    return max(user_K, K_lower)


DEFAULT_RADII = tuple(np.round(np.arange(1, 10) * 0.1, 1))


def check_prop1(m, K=None, radii=DEFAULT_RADII, cfg=DEFAULT_CONFIG):
    """Level-curve length sandwich and monotonicity.

    For each radius: (r/K) int ||D|| dt <= len(gamma_r) <= r int ||D|| dt,
    with int ||D|| dt = 2 pi M_1(r, ||D||) (hardy_mean), plus
    nondecreasing lengths along the radius grid.  Params carry the
    integral-mean proxy sup_r M_1(r, ||D||) and the perimeter proxy.
    """
    radii = sorted(checked_real("radii", r, 0.0, 1.0) for r in radii)
    checked_count("radii", len(radii), 1, MAX_R_GRID)
    K_eff = effective_K(m, K, cfg)
    reports = []
    lengths = []
    h1_proxy = 0.0
    for r in radii:
        m1 = hardy_mean(m, 1.0, r, cfg)
        opint = TWO_PI * m1
        ell, _ = level_curve_length(m, r, cfg)
        lengths.append(ell)
        h1_proxy = max(h1_proxy, m1)
        base = {"r": r, "K": K_eff}
        reports.append(make_report("prop1_lower", (r / K_eff) * opint, ell,
                                   "le", base))
        reports.append(make_report("prop1_upper", ell, r * opint, "le", base))
    rb = effective_boundary_radius(cfg, m.max_radius)
    perimeter, _ = level_curve_length(m, rb, cfg)
    diffs = np.diff(lengths)
    reports.append(make_report(
        "prop1_monotone", -(float(diffs.min()) if diffs.size else 0.0), 0.0,
        "le",
        {"radii": list(radii), "h1_mean_proxy": h1_proxy,
         "perimeter_proxy": perimeter, "r_b": rb},
        probes=len(radii)))
    return reports


def thm1_bound(m, E, cfg=DEFAULT_CONFIG):
    """Boundary image length of an arc set against the sharp lower
    bound through the perimeter and the central derivative gap."""
    measure = checked_real("arc measure", E.total_measure, 0.0, TWO_PI,
                           error=DegenerateE)
    fz0, fzb0 = m.derivs_many(np.array([0.0 + 0.0j]))
    d0 = float(np.abs(fz0[0]) - np.abs(fzb0[0]))
    rb = effective_boundary_radius(cfg, m.max_radius)
    L, _ = level_curve_length(m, rb, cfg)
    lhs, _ = boundary_image_length(m, E, cfg)
    params = {"measure": measure, "d0": d0, "perimeter": L, "r_b": rb}
    if measure > TWO_PI - 1e-6:
        rhs = TWO_PI * d0
        params["limit_path"] = True
    else:
        gap = TWO_PI - measure
        rhs = (L * measure / gap) * (d0 * gap / L) ** (TWO_PI / measure)
        params["limit_path"] = False
    return [make_report("thm1_lower_bound", lhs, rhs, "ge", params)]


def thm2_bound(m, zeta0=1.0, K=None, M_lav=None, r_list=(0.5, 1.0, 2.0),
               cfg=DEFAULT_CONFIG, boundary_samples=1024):
    """Crosscut length-integral chain.

    LHS = int_0^r len(f(Gamma_rho)) drho, bounded by
    sqrt(K pi A / 3) r^{3/2} e^{-(alpha/2)(1/r - 1/2)} and then by the
    same expression without the exponential factor,
    alpha = 4 / (K (1 + M_lav)^2).  M_lav defaults to the chord-arc
    constant of the image boundary polygon.  A declared K above
    DBL_MAX / 4 or M_lav above sqrt(DBL_MAX) - 1 is refused, where
    alpha's denominator overflows with the other at 1, and so is a K
    for which K pi A overflows, once the area is known.  params carry the
    quadrature cross-checks: lhs_node_check is the doubled Gauss-Legendre
    gap of the crosscut integral, lhs_adaptive_vs_fixed its distance to a
    composite Simpson rule on the same domain, and area_node_check the
    gap between the area's Parseval sum and its polar grid rule.
    """
    zeta0 = _unimodular(zeta0)
    r_list = [checked_real("upper radius", r, 0.0, 2.0, "(]")
              for r in r_list]
    checked_count("r_list", len(r_list), 1, MAX_R_GRID)
    if M_lav is not None:
        M_lav = checked_real("M_lav", M_lav, 1.0, math.inf, "[)")
        M_lav = checked_real("M_lav", M_lav, 1.0,
                             math.sqrt(np.finfo(float).max) - 1.0, "[]")
    # refused even when M_lav is given and the polygon is never built
    boundary_samples = checked_count("boundary_samples", boundary_samples, 8,
                                     MAX_BOUNDARY_SAMPLES)
    K_eff = effective_K(m, K, cfg, np.finfo(float).max / 4)
    A, area_check = image_area(m, 1.0, cfg)
    # the product itself: an area that underflows to 0 divides nothing
    KpA = K_eff * math.pi * A
    if not math.isfinite(KpA):
        raise ValidationError(f"K = {K_eff} overflows K pi A at the image "
                              f"area A = {A}")
    if M_lav is None:
        M_lav = lavrentiev_constant(boundary_polygon(m, boundary_samples,
                                                     cfg))
    alpha = 4.0 / (K_eff * (1.0 + M_lav) ** 2)
    front = math.sqrt(KpA / 3.0)
    reports = []
    for r in r_list:
        lhs, node_check, simpson_check = crosscut_integral(m, zeta0, r, cfg)
        outer = front * r ** 1.5
        mid = outer * math.exp(-(alpha / 2.0) * (1.0 / r - 0.5))
        params = {"r": r, "K": K_eff, "M_lav": M_lav, "alpha": alpha,
                  "area": A, "zeta0": zeta0,
                  "lhs_node_check": node_check,
                  "lhs_adaptive_vs_fixed": simpson_check,
                  "area_node_check": area_check}
        reports.append(make_report("thm2_chain_damped", lhs, mid, "le",
                                   params))
        reports.append(make_report("thm2_chain_outer", mid, outer, "le",
                                   params))
    return reports


DEFAULT_CARLESON_PROBES = tuple(
    complex(r * np.exp(2j * math.pi * k / 3))
    for r in (0.3, 0.5, 0.7, 0.9) for k in range(3))


def thm3_carleson(m, K=None, cfg=DEFAULT_CONFIG):
    """Empirical constant for the boundary-arc mean of ||D||.

    For each of the 12 DEFAULT_CARLESON_PROBES z, I(z) is the boundary
    arc centered at arg z with angular half-width pi (1 - |z|); the
    ratio compares the mean of ||D|| over I(z) at the proxy radius with
    ||D(z)||.  The theorem is existential, so the sup ratio itself is
    reported as the constant.
    """
    K_eff = effective_K(m, K, cfg)
    rb = effective_boundary_radius(cfg, m.max_radius)

    def g(t):
        return op_norm(*m.derivs_many(rb * np.exp(1j * t)))

    ratios = []
    for z in DEFAULT_CARLESON_PROBES:
        half = math.pi * (1.0 - abs(z))
        theta = math.atan2(z.imag, z.real)
        arc_int, _ = adaptive_simpson(g, theta - half, theta + half,
                                      abs_tol=cfg.abs_tol, rel_tol=cfg.rel_tol)
        denom = float(op_norm(*m.derivs_many(np.array([z])))[0])
        if denom < 1e-14:
            raise DivisionDegenerate(f"||D|| ~ 0 at probe {z}")
        ratios.append((arc_int / (2.0 * half)) / denom)
    m_prime = float(max(ratios))
    return [make_report(
        "thm3_carleson", m_prime, m_prime, "le",
        {"K": K_eff, "r_b": rb, "ratio_min": float(min(ratios)),
         "ratio_max": m_prime, "finite": bool(np.isfinite(m_prime))},
        probes=len(ratios))]


def prop2_bound(m, r0=0.5, cfg=DEFAULT_CONFIG):
    """Radial growth bound for the rescaled map F(zeta) = f(r0 zeta).

    The derivative bound ||D_f(z)|| <= (4/pi) sup|f| / (1 - |z|^2)
    integrates along rays of F to
    (2/pi) sup|f| log((1+r0 r)/(1-r0 r)) <= M r with
    M = (2/pi) sup|f| log((1+r0)/(1-r0)).  The constant with an extra
    r0 factor in front is also evaluated and reported for comparison;
    the identity map already violates that variant, so the assertion
    runs against the integrated form on a ray table of 64 rays and
    r_grid = 128 radii.
    """
    r0 = checked_real("r0", r0, 0.0, 1.0)
    theta_grid, r_grid = 64, 128
    s = sup_modulus(m, effective_boundary_radius(cfg, m.max_radius))
    log_term = math.log((1.0 + r0) / (1.0 - r0))
    M_derived = (2.0 / math.pi) * s * log_term
    M_displayed = r0 * M_derived
    # F'(zeta) = r0 f'(r0 zeta); rays of F stop where f's derivatives do
    r_top = min(1.0, m.max_radius / r0)
    rho = np.linspace(0.0, r_top, 2 * r_grid + 1)
    thetas, cum = ray_table(
        m, r0 * rho, r_top / (2 * r_grid), theta_grid,
        lambda e, fz, fzb: r0 * _stretch(e, fz, fzb))
    # drop the leading zero column; column k then sits at radius rho[2k+2]
    r_vals = rho[2::2]
    ratios = cum[:, 1:] / r_vals[None, :]
    worst = float(ratios.max())
    i, j = np.unravel_index(first_argmax(ratios), ratios.shape)
    return [make_report(
        "prop2_radial_bound", worst, M_derived, "le",
        {"r0": r0, "sup_modulus": s, "M_derived": M_derived,
         "M_displayed": M_displayed, "theta_star": float(thetas[i]),
         "r_star": float(r_vals[j]), "theta_grid": theta_grid,
         "r_grid": r_grid},
        probes=theta_grid * r_grid)]


def thm5_bound(m, K=None, n_max=8, rho=0.5, cfg=DEFAULT_CONFIG):
    """Coefficient bound |a_n| + |b_n| <= K M_rad, where M_rad is the
    sup over directions of the full radial image length.  n_max is 1 to
    geometry.MAX_COEFFICIENTS."""
    n_max = checked_count("n_max", n_max, 1, MAX_COEFFICIENTS)
    rho = checked_real("extraction radius", rho, 0.0, 1.0)
    K_eff = effective_K(m, K, cfg)
    r_up = min(1.0, m.max_radius)
    theta_star, M_rad = sup_radial_length(m, r_up, cfg)
    a, b = extract_coefficients(m, n_max, rho, cfg)
    reports = []
    for n in range(1, n_max + 1):
        lhs = abs(a[n]) + abs(b[n - 1])
        reports.append(make_report(
            "thm5_coeff", lhs, K_eff * M_rad, "le",
            {"n": n, "K": K_eff, "M_rad": M_rad, "r_up": r_up,
             "theta_star": theta_star, "rho": rho}))
    return reports


def thm4_ratio(m, K=None, r_list=(0.05, 0.1, 0.2, 0.4, 0.6),
               boundary_samples=2048, threshold=0.05, cfg=DEFAULT_CONFIG):
    """Radial-to-level length ratio against the boundary-distance bound.

    Per radius: LHS = sup_theta radial length / level-curve length,
    RHS = 32 r (1+r) K^3 sup|f| / int d(f(r e^{it}), boundary) dt.
    A trailing trend report records how the ratio behaves toward small
    radii: constant-ratio maps are recorded verbatim; otherwise the
    sequence must be nonincreasing as r decreases.  below_threshold
    says whether the ratio at the smallest radius is below threshold,
    which is in (0, inf).  A declared K above (DBL_MAX / 64)^(1/3),
    where 32 r (1+r) K^3 can overflow, is refused.
    """
    threshold = checked_real("threshold", threshold, 0.0, math.inf)
    r_sorted = sorted(checked_real("level-curve radius", r, 0.0, 1.0)
                      for r in r_list)
    checked_count("r_list", len(r_sorted), 1, MAX_R_GRID)
    boundary_samples = checked_count("boundary_samples", boundary_samples, 8,
                                     MAX_BOUNDARY_SAMPLES)
    K_eff = effective_K(m, K, cfg, (np.finfo(float).max / 64) ** (1 / 3))
    rb = effective_boundary_radius(cfg, m.max_radius)
    s = sup_modulus(m, rb)
    poly = boundary_polygon(m, boundary_samples, cfg)
    n_t = max(720, cfg.theta_grid)
    sups = sup_radial_length(m, r_sorted, cfg)
    # one eval_many call per radius (a Poisson map takes its series level
    # from its batch), one distance sweep for all of them
    dist = point_polygon_distance(
        np.stack([m.eval_many(r * _circle_nodes(n_t)) for r in r_sorted]),
        poly)
    reports = []
    ratios = []
    for r, (theta_star, rad), d in zip(r_sorted, sups, dist):
        ell, _ = level_curve_length(m, r, cfg)
        lhs = rad / ell
        dint = TWO_PI * float(d.mean())
        rhs = 32.0 * r * (1.0 + r) * K_eff ** 3 * s / dint
        ratios.append(lhs)
        reports.append(make_report(
            "thm4_bound", lhs, rhs, "le",
            {"r": r, "K": K_eff, "sup_modulus": s, "theta_star": theta_star,
             "radial_length": rad, "level_length": ell,
             "distance_integral": dint, "boundary_samples":
                 boundary_samples, "distance_nodes": n_t}))
    arr = np.array(ratios)
    spread = float(arr.max() - arr.min())
    constant = spread <= 1e-3 * float(arr.mean())
    if constant:
        trend_ok = True
    else:
        # walking from large r down, the ratio must not increase
        desc = arr[::-1]
        slack = 1e-6 * max(1.0, float(arr.max()))
        trend_ok = bool(np.all(np.diff(desc) <= slack))
    below = bool(arr[0] < threshold)
    reports.append(InequalityReport(
        "thm4_trend", float(arr[0]), float(arr[-1]),
        float(arr[-1] - arr[0]), trend_ok,
        {"radii": r_sorted, "ratios": [float(x) for x in arr],
         "constant_ratio": bool(constant), "below_threshold": below,
         "threshold": threshold},
        probes=len(r_sorted)))
    return reports


def schwarz_radial_check(m, normalization=None, r_grid=64,
                         cfg=DEFAULT_CONFIG):
    """Normalized radial means A(r) <= r on a radius grid.

    A(r) = sup_theta int_0^r ||D(rho e^{i theta})|| drho / c, the sup
    taken as the maximum over the ray table's cfg.theta_grid rays (no
    refinement between them).  That maximum is a lower bound: a peak
    between two rays is missed, so with a given normalization a
    violation there goes unreported.  With no normalization supplied, c is
    fitted as A_raw(r_top)/r_top at the top grid radius (the equality
    scaling of the subordination claim): the identity map then gets
    c = 1 and exact equality at every radius.  r_grid is 2 to
    MAX_R_GRID, and the ray table bounds cfg.theta_grid (8 r_grid + 1).
    """
    r_grid = checked_count("r_grid", r_grid, 2, MAX_R_GRID)
    fitted = normalization is None
    if not fitted:
        c = checked_real("normalization", normalization, 0.0, math.inf)
    r_top = effective_boundary_radius(cfg, m.max_radius)
    rho = np.linspace(0.0, r_top, 8 * r_grid + 1)
    _, cum = ray_table(m, rho, r_top / (8 * r_grid), cfg.theta_grid,
                       lambda e, fz, fzb: op_norm(fz, fzb))
    # cum column k is the integral to rho[2k]; report every 4th column,
    # landing exactly on r_top at the last one
    pos = np.arange(4, cum.shape[1], 4)
    radii = rho[2 * pos]
    raw = cum[:, pos].max(axis=0)
    if fitted:
        c = raw[-1] / r_top
    A = raw / c
    if np.any(A > 1.0 + 1e-9):
        raise NormalizationViolation(
            f"A(r) reaches {float(A.max())} > 1 with normalization {c}")
    excess = A - radii
    # on the scale of the radii: the identity's excesses are round-off
    worst = first_argmax(excess, scale=radii)
    return [make_report(
        "schwarz_radial", float(excess.max()), 0.0, "le",
        {"normalization": float(c), "fitted": fitted, "r_top": r_top,
         "r_worst": float(radii[worst]), "grid_radii": r_grid,
         "theta_grid": cfg.theta_grid},
        probes=int(radii.size))]


def selfmap_distortion_check(m, K=None, probes=200, seed=0,
                             cfg=DEFAULT_CONFIG):
    """Two-sided distortion bounds for harmonic self-maps of the disk:
    (1+K)/(2K) R <= |f_z| <= (K+1)/2 R with R = (1-|f|^2)/(1-|z|^2).
    probes is 1 to MAX_PROBES and seed nonnegative."""
    n = checked_count("probes", probes, 1, MAX_PROBES)
    seed = checked_count("seed", seed, 0, math.inf)
    K_eff = effective_K(m, K, cfg)
    rng = np.random.default_rng(seed)
    r = 0.9 * np.sqrt(rng.uniform(size=n))
    t = rng.uniform(0.0, TWO_PI, size=n)
    z = r * np.exp(1j * t)
    f = m.eval_many(z)
    if np.any(np.abs(f) >= 1.0 - 1e-12):
        k = int(np.argmax(np.abs(f)))
        raise NotSelfMap(
            f"|f({z[k]:.4f})| = {abs(f[k]):.6f} is not inside the disk")
    fz, _ = m.derivs_many(z)
    R = (1.0 - np.abs(f) ** 2) / (1.0 - np.abs(z) ** 2)
    lower = (1.0 + K_eff) / (2.0 * K_eff) * R
    upper = (K_eff + 1.0) / 2.0 * R
    afz = np.abs(fz)
    params = {"K": K_eff, "seed": seed, "max_probe_radius": 0.9}
    return [
        make_report("selfmap_lower", float((lower - afz).max()), 0.0, "le",
                    params, probes=n),
        make_report("selfmap_upper", float((afz - upper).max()), 0.0, "le",
                    params, probes=n),
    ]
