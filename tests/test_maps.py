"""Map representations, Wirtinger calculus, and the dilatation probe."""

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from harmonicdisk import (AffineHarmonicMap, MapSpecError, NotSensePreserving,
                          PointOutsideDisk, PoissonHarmonicMap,
                          QuadratureNonconvergence, SeriesHarmonicMap,
                          estimate_K, evaluate, gallery_map, sup_modulus,
                          wirtinger)
from harmonicdisk.gallery import gallery_names, parse_map_spec
from harmonicdisk.maps import (DerivativeFrame, derivs_polar_grid,
                               eval_circle_grid, rotate_domain, scale_range)

from oracles.poisson_bessel_series import bessel_series_coeffs

Z_PROBES = np.array([0.0, 0.3 + 0.2j, -0.7j, 0.55 - 0.55j, 0.9,
                     -0.85 + 0.3j, 0.05 + 0.95j])


def test_series_eval_and_derivs_hand_math():
    # f(z) = z + 0.3 zbar^2, so the stored b_2 satisfies conj(b_2) = 0.3
    m = gallery_map("poly:z+0.3*zbar^2")
    z = 0.5 + 0.2j
    want = z + 0.3 * np.conj(z) ** 2
    assert abs(evaluate(m, z) - want) < 1e-15
    fr = wirtinger(m, z)
    assert abs(fr.fz - 1.0) < 1e-15
    assert abs(fr.fzb - 0.6 * np.conj(z)) < 1e-15
    s = abs(0.6 * np.conj(z))
    assert abs(fr.op_norm - (1.0 + s)) < 1e-15
    assert abs(fr.lam - (1.0 - s)) < 1e-15
    assert abs(fr.jacobian - (1.0 - s * s)) < 1e-15


def test_derivative_frame_arithmetic():
    fr = DerivativeFrame.from_pair(3.0 + 4.0j, 1.0)
    assert fr.op_norm == 6.0
    assert fr.lam == 4.0
    assert fr.jacobian == 24.0


def test_point_validation():
    m = gallery_map("identity")
    with pytest.raises(PointOutsideDisk):
        evaluate(m, 1.0)
    with pytest.raises(PointOutsideDisk):
        wirtinger(m, 0.8 + 0.8j)
    assert evaluate(m, 0.999999) == pytest.approx(0.999999)


def test_affine_map_basics():
    m = AffineHarmonicMap(1.0j, 2.0, 0.5)
    z = Z_PROBES
    np.testing.assert_allclose(m.eval_many(z),
                               1.0j + 2.0 * z + 0.5 * np.conj(z))
    fz, fzb = m.derivs_many(z)
    assert np.all(fz == 2.0) and np.all(fzb == 0.5)
    with pytest.raises(NotSensePreserving):
        AffineHarmonicMap(0.0, 1.0, 1.0)
    with pytest.raises(NotSensePreserving):
        AffineHarmonicMap(0.0, 0.5, 0.5 + 0.1j)


def test_series_sense_preserving_probe():
    # |f_zb| = 1.2 |z| beats |f_z| = 1 well inside the probe radii
    with pytest.raises(NotSensePreserving):
        SeriesHarmonicMap([0.0, 1.0], [0.0, 0.6], sense_preserving=True)
    # same coefficients unchecked: constructs fine
    SeriesHarmonicMap([0.0, 1.0], [0.0, 0.6])


def test_estimate_K_affine_exact():
    rep = estimate_K(gallery_map("affine:1,0.5"))
    assert abs(rep.omega_sup - 0.5) < 1e-12
    assert abs(rep.K_lower - 3.0) < 1e-11
    assert rep.r_max == 0.999
    assert rep.grid_density == (32, 720)


def test_estimate_K_poly_radial_growth():
    # omega = 0.6 |z| peaks at the probe rim r_max
    rep = estimate_K(gallery_map("poly:z+0.3*zbar^2"), r_max=0.9)
    assert abs(rep.omega_sup - 0.54) < 1e-10
    want_K = 1.54 / 0.46
    assert abs(rep.K_lower - want_K) < 1e-9


def test_estimate_K_rejects_folding_map():
    m = SeriesHarmonicMap([0.0, 1.0], [0.0, 0.8])
    with pytest.raises(NotSensePreserving):
        estimate_K(m)


def test_poisson_identity_phase_reproduces_identity():
    m = PoissonHarmonicMap(1.0, lambda t: t)
    vals = m.eval_many(Z_PROBES)
    assert float(np.abs(vals - Z_PROBES).max()) < 5e-10
    fz, fzb = m.derivs_many(Z_PROBES * 0.9)
    assert float(np.abs(fz - 1.0).max()) < 5e-9
    assert float(np.abs(fzb).max()) < 5e-9


def test_poisson_matches_bessel_series_twin():
    """Independent construction of the same map: the boundary
    correspondence t -> t + 0.2 sin t has an explicit Bessel-coefficient
    harmonic extension, computed in oracles/poisson_bessel_series.py."""
    analytic, anti = bessel_series_coeffs()
    twin = SeriesHarmonicMap(analytic, np.conj(anti))
    m = gallery_map("poisson:phi=t+0.2*sin(t)")
    pts = np.concatenate([Z_PROBES, [0.998, -0.998j, 0.7 + 0.7j]])
    assert float(np.abs(m.eval_many(pts) - twin.eval_many(pts)).max()) < 1e-11
    fz_p, fzb_p = m.derivs_many(pts)
    fz_s, fzb_s = twin.derivs_many(pts)
    assert float(np.abs(fz_p - fz_s).max()) < 1e-8
    assert float(np.abs(fzb_p - fzb_s).max()) < 1e-8


def test_poisson_circle_fast_path_matches_pointwise():
    m = gallery_map("poisson:phi=t+0.2*sin(t)")
    n = 64
    for r in (0.3, 0.95, 0.998):
        z = r * np.exp(2j * np.pi * np.arange(n) / n)
        slow = m.eval_many(z)
        fast = eval_circle_grid(m, r, n)
        assert float(np.abs(slow - fast).max()) < 5e-10


def test_polar_grid_shapes_and_agreement():
    m = gallery_map("poly:z+0.3*zbar^2")
    radii = np.array([0.1, 0.5, 0.9])
    fz, fzb = derivs_polar_grid(m, radii, 16)
    assert fz.shape == (16, 3)
    z = radii[None, :] * np.exp(2j * np.pi * np.arange(16) / 16)[:, None]
    fz_d, fzb_d = m.derivs_many(z)
    np.testing.assert_array_equal(fz, fz_d)
    np.testing.assert_array_equal(fzb, fzb_d)


def test_poisson_refusal_radii():
    m = PoissonHarmonicMap(1.0, lambda t: t)
    with pytest.raises(QuadratureNonconvergence):
        m.eval_many(np.array([0.9995]))
    with pytest.raises(QuadratureNonconvergence):
        m.derivs_many(np.array([0.9985]))
    # rounding slack: radius computed as |r e^{it}| may exceed r by ulps
    m.eval_many(np.array([0.999 + 1e-13]))
    with pytest.raises(QuadratureNonconvergence):
        eval_circle_grid(m, 0.9991, 8)
    with pytest.raises(QuadratureNonconvergence):
        derivs_polar_grid(m, [0.9981], 8)


def test_poisson_kinked_phase():
    """A boundary phase with derivative jumps at t = 0 and pi: the
    coefficients decay only like k^-2, so near-boundary points need the
    doubling to run deep, and at the kink itself it cannot finish."""
    from scipy.integrate import quad

    def phi(t):
        return t + 0.1 * np.sqrt(np.sin(t) ** 2)

    m = PoissonHarmonicMap(1.0, phi)

    def poisson_integral(z):
        def part(fn):
            def kern(t):
                return ((1.0 - abs(z) ** 2) / abs(np.exp(1j * t) - z) ** 2
                        * fn(np.exp(1j * phi(t))))
            return sum(quad(kern, a, b, epsabs=1e-13, epsrel=1e-13,
                            limit=200)[0]
                       for a, b in ((0.0, np.pi), (np.pi, 2.0 * np.pi)))
        return (part(np.real) + 1j * part(np.imag)) / (2.0 * np.pi)

    z = np.array([0.3 + 0.2j, -0.6j, 0.9, -0.5 + 0.7j])
    want = np.array([poisson_integral(w) for w in z])
    assert float(np.abs(m.eval_many(z) - want).max()) < 1e-10
    for r in (0.5, 0.9, 0.97):
        fz, fzb = m.derivs_many(r * np.exp(1j * np.array([0.0, 0.3, 2.0])))
        assert np.all(np.isfinite(fz)) and np.all(np.isfinite(fzb))
    with pytest.raises(QuadratureNonconvergence):
        m.derivs_many(np.array([0.998]))
    with pytest.raises(QuadratureNonconvergence):
        PoissonHarmonicMap(1.0, phi, max_panels=256).derivs_many(
            np.array([0.5]))


def _pointwise_converged(m, z, series):
    """The Poisson convergence rule without the coefficient certificate:
    every level pair is compared at the points.  The certified rule
    must return the same bits, or refuse where this refuses."""
    n = m._START_NODES
    prev = None
    while 2 * n <= m.max_panels:
        if prev is None:
            prev = series(z, m._level(n))
        out = series(z, m._level(2 * n))
        delta = max(float(np.abs(o - p).max()) if o.size else 0.0
                    for o, p in zip(out, prev))
        if delta <= m.kernel_tol:
            return out
        prev = out
        n *= 2
    raise QuadratureNonconvergence("pointwise rule ran out of nodes")


def _poisson_eval(z, lv):
    return (npoly.polyval(z, lv[0]) + np.conj(npoly.polyval(z, lv[1])),)


def _poisson_derivs(z, lv):
    return npoly.polyval(z, lv[2]), np.conj(npoly.polyval(z, lv[3]))


def _outcome(fn):
    try:
        return [np.asarray(part).view(float) for part in fn()]
    except QuadratureNonconvergence:
        return None


@pytest.mark.parametrize("phase", [
    "t+0.2*sin(t)", "t+0.99*sin(t)", "t+0.1*sqrt(sin(t)**2)"])
def test_poisson_certificate_matches_pointwise_rule(phase):
    m = gallery_map(f"poisson:phi={phase}")
    radii = np.array([0.1, 0.5, 0.9, 0.97, 0.998])
    e = np.exp(2j * np.pi * np.arange(8) / 8)
    cases = [np.array([r * np.exp(0.3j)]) for r in radii]
    cases += [radii[None, :k + 1] * e[:, None] for k in range(radii.size)]
    for z in cases:
        for method, series in (((lambda z: (m.eval_many(z),)), _poisson_eval),
                               (m.derivs_many, _poisson_derivs)):
            got = _outcome(lambda: method(z))
            want = _outcome(lambda: _pointwise_converged(m, z, series))
            assert (got is None) == (want is None), (phase, z.shape)
            for a, b in zip(got or (), want or ()):
                np.testing.assert_array_equal(a, b)


def test_poisson_derivs_evaluate_one_series_level(monkeypatch):
    from harmonicdisk import maps

    calls = []
    plain = maps._series_pair

    def counted(z, h, g):
        calls.append(z.size)
        return plain(z, h, g)

    monkeypatch.setattr(maps, "_series_pair", counted)
    m = gallery_map("poisson:phi=t+0.2*sin(t)")
    for z in (np.array([0.998j]), np.array([0.3, -0.5j, 0.7 + 0.6j]),
              0.998 * np.exp(2j * np.pi * np.arange(64) / 64)):
        calls.clear()
        m.derivs_many(z)
        assert calls == [z.size]
        calls.clear()
        m.eval_many(z)
        assert calls == [z.size]


def test_poisson_phase_validation():
    with pytest.raises(MapSpecError):
        PoissonHarmonicMap(1.0, lambda t: t + 1.5 * np.sin(t))  # folds back
    with pytest.raises(MapSpecError):
        PoissonHarmonicMap(1.0, lambda t: 2.0 * t)  # winds twice
    with pytest.raises(MapSpecError):
        PoissonHarmonicMap(0.0, lambda t: t)  # scale must be positive
    for scale, tol in ((np.nan, 1e-10), (1.0, np.nan), (1.0, 0.0)):
        with pytest.raises(MapSpecError):
            PoissonHarmonicMap(scale, lambda t: t, kernel_tol=tol)
    with pytest.raises(MapSpecError):
        PoissonHarmonicMap(1.0, lambda t: np.full_like(t, np.nan))


def test_sup_modulus_closed_forms():
    assert abs(sup_modulus(gallery_map("identity"), 0.9) - 0.9) < 1e-12
    # sup over |z| = r of |z + 0.5 zbar| is attained on the real axis
    assert abs(sup_modulus(gallery_map("affine:1,0.5"), 0.8) - 1.2) < 1e-12
    with pytest.raises(PointOutsideDisk):
        sup_modulus(gallery_map("poisson:phi=t"), 0.9999)


def test_scale_range_and_rotate_domain():
    m = gallery_map("poly:z+0.3*zbar^2")
    c = 2.0 - 1.0j
    ms = scale_range(m, c)
    np.testing.assert_allclose(ms.eval_many(Z_PROBES),
                               c * m.eval_many(Z_PROBES), atol=1e-14)
    alpha = 0.7
    mr = rotate_domain(m, alpha)
    np.testing.assert_allclose(
        mr.eval_many(Z_PROBES),
        m.eval_many(np.exp(1j * alpha) * Z_PROBES), atol=1e-14)
    with pytest.raises(MapSpecError):
        scale_range(m, 0.0)
    # positive real scaling of a Poisson map stays a Poisson map
    p = PoissonHarmonicMap(1.0, lambda t: t)
    p2 = scale_range(p, 3.0)
    assert isinstance(p2, PoissonHarmonicMap)
    assert abs(p2.eval_many(np.array([0.5]))[0] - 1.5) < 1e-9
    with pytest.raises(MapSpecError):
        scale_range(p, 1.0j)


def test_rotate_domain_poisson():
    p = gallery_map("poisson:phi=t+0.2*sin(t)")
    pr = rotate_domain(p, 1.1)
    z = np.array([0.6 - 0.2j])
    want = p.eval_many(np.exp(1.1j) * z)
    assert abs(pr.eval_many(z)[0] - want[0]) < 1e-9


def test_gallery_names_construct():
    for name in gallery_names():
        m = gallery_map(name)
        v = m.eval_many(np.array([0.25 + 0.1j]))
        assert np.all(np.isfinite(v))


def test_gallery_rejects_bad_names():
    bad = ["unknown", "scaled:-1", "scaled:abc", "affine:1",
           "affine:1,2,3", "affine:xyz,1", "poly:z+0.6*zbar^2",
           "poly:zbar", "poisson:t+sin(t)", "poly:z+0.3*zbar^0"]
    for name in bad:
        with pytest.raises(MapSpecError):
            gallery_map(name)


def test_phase_expression_whitelist():
    with pytest.raises(MapSpecError):
        gallery_map("poisson:phi=__import__('os')")
    with pytest.raises(MapSpecError):
        gallery_map("poisson:phi=t.real")
    with pytest.raises(MapSpecError):
        gallery_map("poisson:phi=open('x')")
    with pytest.raises(MapSpecError):
        gallery_map("poisson:phi=t if t else t")
    # pi is a whitelisted constant; sin a whitelisted function
    m = gallery_map("poisson:phi=t+(1/pi)*0.2*sin(t)")
    assert np.isfinite(m.eval_many(np.array([0.1]))[0])


def test_parse_map_spec():
    m = parse_map_spec({"kind": "series", "analytic": [[0, 0], [1, 0]],
                        "antianalytic": [[0, 0], [0.3, 0]]})
    z = 0.4 + 0.1j
    assert abs(evaluate(m, z) - (z + 0.3 * np.conj(z) ** 2)) < 1e-15
    m = parse_map_spec({"kind": "affine", "a": [1, 0], "b": [0.5, 0]})
    assert abs(evaluate(m, 0.2) - 0.3) < 1e-15
    m = parse_map_spec({"kind": "poisson", "phi": "t"})
    assert abs(evaluate(m, 0.5) - 0.5) < 1e-9
    m = parse_map_spec({"kind": "gallery", "name": "scaled:2.0"})
    assert abs(evaluate(m, 0.25) - 0.5) < 1e-15
    for bad in [{"kind": "nope"}, {"kind": "series", "analytic": []},
                {"kind": "poisson", "phi": 3}, {"kind": "gallery"},
                {"kind": "series", "analytic": ["x"]}, 7]:
        with pytest.raises(MapSpecError):
            parse_map_spec(bad)


def test_series_truncation_and_finite_check():
    m = SeriesHarmonicMap([1.0, 0.0, 2.0], [0.5])
    assert m.truncation == 2
    with pytest.raises(MapSpecError):
        SeriesHarmonicMap([1.0, math.inf])
    with pytest.raises(MapSpecError):
        SeriesHarmonicMap([1.0], [math.nan])
    # finite coefficients whose bound sum k |a_k| + sum k |b_k| on |Df|
    # overflows; a large finite bound is accepted
    with pytest.raises(MapSpecError):
        SeriesHarmonicMap([0.0, 1e308, 1e308])
    with pytest.raises(MapSpecError):
        SeriesHarmonicMap([0.0, 1.0], [0.0, 1e308])
    SeriesHarmonicMap([0.0, 1e160])
