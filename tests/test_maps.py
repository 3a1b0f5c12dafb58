"""Map representations, Wirtinger calculus, and the dilatation probe."""

import math
import re

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from harmonicdisk import (MapSpecError, NotSensePreserving, PointOutsideDisk,
                          PoissonHarmonicMap, QuadratureNonconvergence,
                          SeriesHarmonicMap, ValidationError, estimate_K,
                          gallery_map, sup_modulus, sup_radial_length)
from harmonicdisk.gallery import gallery_names, parse_map_spec
from harmonicdisk.geometry import _stretch
from harmonicdisk.maps import (_POLAR_BLOCK_CELLS, _polar_blocks, jacobian,
                               op_norm, rotate_domain, scale_range)
from harmonicdisk.quadrature import TIE_RTOL, _ZOOM_POINTS, first_argmax

from oracles.poisson_bessel_series import bessel_series_coeffs

Z_PROBES = np.array([0.0, 0.3 + 0.2j, -0.7j, 0.55 - 0.55j, 0.9,
                     -0.85 + 0.3j, 0.05 + 0.95j])


def affine(c0, a, b):
    """The JSON-spec affine map c0 + a z + b zbar."""
    return parse_map_spec({"kind": "affine", "c0": [c0.real, c0.imag],
                           "a": [a.real, a.imag], "b": [b.real, b.imag]})


def test_series_eval_and_derivs_hand_math():
    # f(z) = z + 0.3 zbar^2, so the stored b_2 satisfies conj(b_2) = 0.3
    m = gallery_map("poly:z+0.3*zbar^2")
    z = 0.5 + 0.2j
    want = z + 0.3 * np.conj(z) ** 2
    assert abs(m.eval_many(np.array([z]))[0] - want) < 1e-15
    fz, fzb = m.derivs_many(np.array([z]))
    assert abs(fz[0] - 1.0) < 1e-15
    assert abs(fzb[0] - 0.6 * np.conj(z)) < 1e-15
    s = abs(0.6 * np.conj(z))
    assert abs(op_norm(fz, fzb)[0] - (1.0 + s)) < 1e-15
    assert abs(jacobian(fz, fzb)[0] - (1.0 - s * s)) < 1e-15


def test_derivative_frame_arithmetic():
    # the frame (f_z, f_zb) = (3 + 4i, 1)
    assert op_norm(3.0 + 4.0j, 1.0) == 6.0
    assert jacobian(3.0 + 4.0j, 1.0) == 24.0


def test_affine_map_basics():
    # the degree-one series map c0 + a z + b zbar
    m = affine(1.0j, 2.0, 0.5)
    assert isinstance(m, SeriesHarmonicMap)
    z = Z_PROBES
    np.testing.assert_allclose(m.eval_many(z),
                               1.0j + 2.0 * z + 0.5 * np.conj(z))
    fz, fzb = m.derivs_many(z)
    assert np.all(fz == 2.0) and np.all(fzb == 0.5)
    with pytest.raises(NotSensePreserving, match=re.escape(
            "affine map needs |b| < |a|, got |a| = 1.0, |b| = 1.0")):
        gallery_map("affine:1,1")
    with pytest.raises(NotSensePreserving):
        affine(0.0, 0.5, 0.5 + 0.1j)
    # finiteness and overflow are refused first, by the series map
    with pytest.raises(MapSpecError, match="must be finite"):
        gallery_map("affine:nan,nan")
    with pytest.raises(MapSpecError, match="overflows"):
        affine(0.0, 1e308, 1e308)


def test_estimate_K_affine_exact():
    rep = estimate_K(gallery_map("affine:1,0.5"))
    assert abs(rep.omega_sup - 0.5) < 1e-12
    assert abs(rep.K_lower - 3.0) < 1e-11
    assert rep.r_max == 0.999


def test_estimate_K_poly_radial_growth():
    # omega = 0.6 |z| peaks at the probe rim r_max
    rep = estimate_K(gallery_map("poly:z+0.3*zbar^2"), r_max=0.9)
    assert abs(rep.omega_sup - 0.54) < 1e-10
    want_K = 1.54 / 0.46
    assert abs(rep.K_lower - want_K) < 1e-9


def test_estimate_K_refuses_a_bad_probe_radius():
    for r_max in (0.0, -1.0, math.nan):
        with pytest.raises(ValidationError, match="r_max must be in"):
            estimate_K(gallery_map("identity"), r_max=r_max)


def test_estimate_K_refuses_an_empty_grid():
    with pytest.raises(ValidationError, match="grid must be 8 to"):
        estimate_K(gallery_map("identity"), grid=0)


def test_estimate_K_rejects_folding_map():
    m = SeriesHarmonicMap([0.0, 1.0], [0.0, 0.8])
    with pytest.raises(NotSensePreserving) as err:
        estimate_K(m)
    # the named probe folds: jacobian 1 - 2.56 |z|^2 < 0
    got = re.fullmatch(r"jacobian (\S+) <= 0 at probe z = (\S+)",
                       str(err.value))
    z = complex(got[2])
    assert float(got[1]) == pytest.approx(1.0 - 2.56 * abs(z) ** 2,
                                          rel=1e-3)
    assert abs(z) > 0.625


@pytest.mark.parametrize("h", [
    [0, 1, 1],
    # h' = 1 - 20 z vanishes at 0.05
    [0, 1, -10],
    # h' vanishes at -0.990000001, just outside the probe circle, where
    # no node count certifies its winding
    [0, 1, 1 / (2 * 0.990000001)],
], ids=["z+z^2", "zero-at-0.05", "zero-just-outside"])
def test_estimate_K_refuses_a_zero_of_f_z(h):
    # J = |h'|^2 > 0 at every node of |z| = 0.99, but h' has a zero
    # inside the disk or too close to the circle to tell
    with pytest.raises(NotSensePreserving, match="winding"):
        estimate_K(SeriesHarmonicMap(h), 0.99)


def test_estimate_K_winding_doubles_its_nodes():
    # 8 nodes leave cells uncertified, so f_z is sampled afresh on twice
    # as many until they all are; the estimate is the grid-720 one
    m = gallery_map("poisson:phi=t+0.99*sin(t)")
    sizes, derivs = [], m.derivs_many

    def counted(z):
        sizes.append(np.size(z))
        return derivs(z)

    m.derivs_many = counted
    coarse = estimate_K(m, 0.99, grid=8).K_lower
    assert sizes[:4] == [8, 16, 32, 64]
    fine = estimate_K(m, 0.99).K_lower
    assert abs(coarse - fine) <= 1e-12 * fine


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


def _sampled(evaluate, radii, rays):
    """The polar sampler's blocks stacked back into one (rays, radii)
    grid, output by output; also returns the block row counts."""
    blocks = list(_polar_blocks(evaluate, radii, rays))
    outs = [b if isinstance(b, tuple) else (b,) for _, b in blocks]
    sizes = [rows.stop - rows.start for rows, _ in blocks]
    return [np.concatenate(parts) for parts in zip(*outs)], sizes


def _whole_grid(evaluate, radii, rays):
    """One evaluate call on the whole polar grid, as the deleted
    whole-grid helpers made it."""
    if np.ndim(rays):
        e = np.exp(1j * np.asarray(rays, dtype=float))
    else:
        e = np.exp(2j * np.pi * np.arange(rays) / rays)
    out = evaluate(radii[None, :] * e[:, None])
    return list(out) if isinstance(out, tuple) else [out]


def test_poisson_circle_fast_path_matches_pointwise():
    m = gallery_map("poisson:phi=t+0.2*sin(t)")
    n = 64
    for r in (0.3, 0.95, 0.998):
        z = r * np.exp(2j * np.pi * np.arange(n) / n)
        slow = m.eval_many(z)
        (fast,), _ = _sampled(m.eval_many, np.array([r]), n)
        assert float(np.abs(slow - fast[:, 0]).max()) < 5e-10


def test_polar_grid_shapes_and_agreement():
    m = gallery_map("poly:z+0.3*zbar^2")
    radii = np.array([0.1, 0.5, 0.9])
    (fz, fzb), _ = _sampled(m.derivs_many, radii, 16)
    assert fz.shape == (16, 3)
    z = radii[None, :] * np.exp(2j * np.pi * np.arange(16) / 16)[:, None]
    fz_d, fzb_d = m.derivs_many(z)
    np.testing.assert_array_equal(fz, fz_d)
    np.testing.assert_array_equal(fzb, fzb_d)


@pytest.mark.parametrize("name", gallery_names())
def test_polar_blocks_equal_the_whole_grid_bitwise(name):
    m = gallery_map(name)
    zoom, fan = np.linspace(1.2, 1.25, 33), np.linspace(0.0, 6.0, 100)
    # (rays, radii) of one block, and of several with a short last one
    for rays, n_r, blocks in [(16, 3, 1), (720, 32, 3), (40, 513, 3),
                              (zoom, 129, 1), (fan, 129, 2)]:
        radii = np.linspace(0.0, min(0.95, m.max_radius), n_r)
        for evaluate in (m.eval_many, m.derivs_many):
            got, sizes = _sampled(evaluate, radii, rays)
            want = _whole_grid(evaluate, radii, rays)
            assert len(sizes) == blocks
            for g, w in zip(got, want):
                assert g.shape == w.shape
                assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("name", ["identity", "affine:1,0.5",
                                  "poly:z+0.3*zbar^2",
                                  "poisson:phi=t+0.2*sin(t)"])
def test_a_point_has_the_same_bits_in_any_batch(name):
    # 128 probe points, each evaluated alone and at up to three offsets
    # of batches of seeded points; from 2^14 points numpy computes a
    # product of temporaries in place, which can round otherwise
    m = gallery_map(name)
    rng = np.random.default_rng(16)

    def disk(n):
        return (0.95 * np.sqrt(rng.random(n))
                * np.exp(2j * np.pi * rng.random(n)))

    def kernels(z, t):
        fz, fzb = m.derivs_many(z)
        return {"eval_many": m.eval_many(z), "fz": fz, "fzb": fzb,
                "op_norm": op_norm(fz, fzb), "jacobian": jacobian(fz, fzb),
                "_stretch": _stretch(t, fz, fzb)}

    probes, tangents = disk(128), np.exp(2j * np.pi * rng.random(128))
    alone = [kernels(probes[k:k + 1], tangents[k:k + 1]) for k in range(128)]
    for n in (7, 1 << 13, (1 << 17) + 3):
        at = np.unique(np.linspace(0, n - 1, min(n, 384)).astype(int))
        which = np.arange(at.size) % 128
        z, t = disk(n), np.exp(2j * np.pi * rng.random(n))
        z[at], t[at] = probes[which], tangents[which]
        batch = kernels(z, t)
        for kernel, values in batch.items():
            for i, k in zip(at, which):
                assert values[i].tobytes() == alone[k][kernel].tobytes(), (
                    kernel, n, i)


@pytest.mark.parametrize("rays,n_r", [(720, 32), (720, 129), (512, 257),
                                      (33, 129), (40, 513)])
def test_polar_blocks_stay_below_the_mmap_threshold(rays, n_r):
    # glibc maps a request of 128 KiB or more afresh; 256 rows x 32
    # radii would be exactly 128 KiB
    rows_seen = []
    for rows, z in _polar_blocks(lambda z: z, np.linspace(0.1, 0.9, n_r),
                                 rays):
        assert z.dtype == complex and z.nbytes < 128 << 10
        assert z.shape == (rows.stop - rows.start, n_r)
        rows_seen.extend(range(rows.start, rows.stop))
    assert rows_seen == list(range(rays))
    assert _POLAR_BLOCK_CELLS == 1 << 13


def _refine_grid_max(f_many, xs, values, *, wrap=None):
    """quadrature.refine_grid_max as it was, with explicit abscissae
    ``xs`` and a period ``wrap`` for cyclic grids (None: no wrap)."""
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    i = first_argmax(values)
    best = float(values[i])
    if wrap is None:
        lo = xs[max(i - 1, 0)]
        hi = xs[min(i + 1, xs.size - 1)]
        if hi <= lo:
            return float(xs[i]), best
    else:
        lo = xs[i - 1] if i > 0 else xs[-1] - wrap
        hi = xs[i + 1] if i + 1 < xs.size else xs[0] + wrap
    x, v = xs[i], -math.inf
    while hi - lo > 1e-12:
        pts = np.linspace(lo, hi, _ZOOM_POINTS)
        vals = f_many(pts)
        k = int(np.argmax(vals))
        if vals[k] > v:
            x, v = pts[k], vals[k]
        lo, hi = pts[max(k - 1, 0)], pts[min(k + 1, _ZOOM_POINTS - 1)]
    if v > best + TIE_RTOL * float(np.abs(values).max()):
        return float(x), float(v)
    return float(xs[i]), best


def _whole_grid_estimate_K(m, r_max=0.999, grid=720):
    """estimate_K as it was with one derivs_many call on the whole
    (grid x 32) probe grid, zoomed in angle and then in radius: the
    reference of the one-circle version."""
    r_max = min(r_max, m.max_radius)
    radii = np.geomspace(min(0.1, 0.5 * r_max), r_max, 32)
    angles = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    e = np.exp(2j * np.pi * np.arange(grid) / grid)
    fz, fzb = m.derivs_many(radii[None, :] * e[:, None])
    assert np.all(jacobian(fz, fzb) > 0.0)
    om = (np.abs(fzb) / np.abs(fz)).T

    def omega(z):
        a, b = m.derivs_many(z)
        return np.abs(b) / np.abs(a)

    i, j = np.unravel_index(int(np.argmax(om)), om.shape)
    th_star, _ = _refine_grid_max(
        lambda th: omega(radii[i] * np.exp(1j * th)), angles, om[i],
        wrap=2.0 * math.pi)
    _, val = _refine_grid_max(lambda r: omega(r * np.exp(1j * th_star)),
                              radii, om[:, j])
    omega_sup = max(float(np.max(om)), val)
    return omega_sup, (1.0 + omega_sup) / (1.0 - omega_sup)


@pytest.mark.parametrize("name", gallery_names())
def test_estimate_K_blocks_equal_the_whole_grid(name):
    base = gallery_map(name)
    for m in [base] + [rotate_domain(base, a) for a in (0.1234, 1.0, 2.5)]:
        for r_max in (0.999, 0.99):
            rep = estimate_K(m, r_max=r_max)
            want = _whole_grid_estimate_K(m, r_max)
            assert (rep.omega_sup, rep.K_lower) == want


def test_poisson_refusal_radii():
    m = PoissonHarmonicMap(1.0, lambda t: t)
    with pytest.raises(QuadratureNonconvergence):
        m.eval_many(np.array([0.9995]))
    with pytest.raises(QuadratureNonconvergence):
        m.derivs_many(np.array([0.9985]))
    # rounding slack: radius computed as |r e^{it}| may exceed r by ulps
    m.eval_many(np.array([0.999 + 1e-13]))
    with pytest.raises(QuadratureNonconvergence):
        list(_polar_blocks(m.eval_many, np.array([0.9991]), 8))
    with pytest.raises(QuadratureNonconvergence):
        list(_polar_blocks(m.derivs_many, np.array([0.9981]), 8))


def test_poisson_kinked_phase(monkeypatch):
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
        with monkeypatch.context() as patch:
            patch.setattr(PoissonHarmonicMap, "MAX_PANELS", 256)
            PoissonHarmonicMap(1.0, phi).derivs_many(np.array([0.5]))


def _pointwise_converged(m, z, series):
    """The Poisson convergence rule without the coefficient certificate:
    every level pair is compared at the points.  The certified rule
    must return the same bits, or refuse where this refuses."""
    n = m._START_NODES
    prev = None
    while 2 * n <= m.MAX_PANELS:
        if prev is None:
            prev = series(z, m._level(n))
        out = series(z, m._level(2 * n))
        delta = max(float(np.abs(o - p).max()) if o.size else 0.0
                    for o, p in zip(out, prev))
        if delta <= m.kernel_tol * m.scale:
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


# -- the power-series view: taylor ------------------------------------------


def _taylor_sum(m, rho, z):
    h, g, err = m.taylor(rho)
    return npoly.polyval(z, h) + np.conj(npoly.polyval(z, g)), err


@pytest.mark.parametrize("m", [
    gallery_map("identity"), gallery_map("scaled:2.0"),
    gallery_map("affine:1,0.5"), gallery_map("poly:z+0.3*zbar^2"),
    affine(0.2 - 0.1j, 1.0 + 0.5j, 0.3 - 0.4j),
    SeriesHarmonicMap([0.1, 1.0, 0.2j, -0.05], [0.3, 0.1 - 0.05j])],
    ids=["identity", "scaled", "affine", "poly", "affine_c0", "series"])
def test_taylor_of_an_exact_series_is_the_map(m):
    rng = np.random.default_rng(3)
    z = 0.99 * np.sqrt(rng.random(64)) * np.exp(2j * np.pi * rng.random(64))
    got, err = _taylor_sum(m, 0.99, z)
    assert err == 0.0
    np.testing.assert_allclose(got, m.eval_many(z), rtol=1e-15, atol=1e-15)


def test_series_map_owns_its_coefficients():
    # a later write into the caller's array must not reach the map: its
    # derivative series are fixed at construction
    a = np.array([0.0, 1.0, 0.2], dtype=complex)
    m = SeriesHarmonicMap(a)
    a[2] = 5.0
    assert m.eval_many(np.array([0.5]))[0] == 0.55
    h, g, _ = m.taylor(0.5)
    for c in (h, g):
        with pytest.raises(ValueError):
            c[0] = 1.0


def test_poisson_taylor_is_within_its_certificate():
    m = gallery_map("poisson:phi=t+0.2*sin(t)")
    z = np.exp(2j * np.pi * (np.arange(64) + 0.37) / 64)
    for rho in (0.5, 0.9, 0.998):
        got, err = _taylor_sum(m, rho, rho * z)
        assert 0.0 <= err <= m.kernel_tol * m.scale
        assert np.abs(got - m.eval_many(rho * z)).max() <= err + 1e-14


def test_poisson_taylor_is_the_level_derivs_many_takes():
    # a kinked quasiconformal phase, several levels deep at rho = 0.9
    m = gallery_map("poisson:phi=t+0.3*sqrt(sin(t)**2)**3")
    z = 0.9 * np.exp(2j * np.pi * (np.arange(64) + 0.37) / 64)
    h, g, err = m.taylor(0.9)
    assert h.size > 256 and 0.0 < err <= m.kernel_tol * m.scale
    fz, fzb = m.derivs_many(z)
    np.testing.assert_array_equal(npoly.polyval(z, npoly.polyder(h)), fz)
    np.testing.assert_array_equal(
        np.conj(npoly.polyval(z, npoly.polyder(g))), fzb)
    got, _ = _taylor_sum(m, 0.9, z)
    tol = m.kernel_tol * m.scale  # eval_many's own level is within it
    assert np.abs(got - m.eval_many(z)).max() <= err + tol


def test_poisson_taylor_refusals():
    kinked = gallery_map("poisson:phi=t+0.1*sqrt(sin(t)**2)")
    with pytest.raises(QuadratureNonconvergence):
        kinked.taylor(0.998)
    m = gallery_map("poisson:phi=t+0.2*sin(t)")
    for rho in (-0.1, 1.5, math.nan):
        with pytest.raises(ValidationError):
            m.taylor(rho)
    # the cached level is shared: a caller cannot write into it
    h, _, _ = m.taylor(0.5)
    with pytest.raises(ValueError):
        h[0] = 0.0


def _same_bits(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    if got.dtype == np.complex128:
        assert got.tobytes() == want.tobytes()
        return
    # extended precision pads its bytes: compare values and signs
    for a, b in ((got.real, want.real), (got.imag, want.imag)):
        assert np.array_equal(a, b, equal_nan=True)
        np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


def _horner_points(rng, dtype, n):
    z = (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)).astype(dtype)
    special = [complex(np.nan, 0.5), complex(np.inf, 0), -0.0j]
    k = min(3, max(n - 1, 0))
    z[1:1 + k] = special[:k]
    return z


def _coefficients(rng, n):
    return (rng.normal(size=n) + 1j * rng.normal(size=n)) / 2.0


HORNER_DTYPES = pytest.mark.parametrize(
    "dtype", [np.complex128, np.clongdouble],
    ids=["complex128", "clongdouble"])


# 4096 coefficients run at a block of 16 points, so that every block
# boundary case stays small in extended precision
@pytest.mark.parametrize("n_coeffs,block", [(1, None), (2, None), (11, None),
                                            (4096, 16)])
@HORNER_DTYPES
def test_blocked_horner_equals_polyval_bitwise(monkeypatch, dtype, n_coeffs,
                                               block):
    from harmonicdisk import maps

    if block is not None:
        monkeypatch.setattr(maps, "_HORNER_BLOCK", block)
    block = maps._HORNER_BLOCK
    rng = np.random.default_rng(n_coeffs)
    c = _coefficients(rng, n_coeffs)
    cases = [np.asarray(dtype(0.4 - 0.3j))]
    for n in (0, 1, block - 1, block, block + 1, 3 * block + 5):
        cases += [_horner_points(rng, dtype, n),
                  _horner_points(rng, dtype, 3 * n).reshape(3, n)]
    # not contiguous
    cases.append(_horner_points(rng, dtype, 2 * block + 6).reshape(2, -1).T)
    with np.errstate(invalid="ignore", over="ignore"):
        for z in cases:
            _same_bits(maps._polyval(z, c), npoly.polyval(z, c))
            for got, want in zip(maps._series_pair(z, c, c[::-1]),
                                 (npoly.polyval(z, c),
                                  np.conj(npoly.polyval(z, c[::-1])))):
                _same_bits(got, want)


@HORNER_DTYPES
def test_blocked_horner_many_coefficients_bitwise(dtype):
    from harmonicdisk import maps

    rng = np.random.default_rng(7)
    c = _coefficients(rng, 4096)
    z = _horner_points(rng, dtype, maps._HORNER_BLOCK + 1)
    with np.errstate(invalid="ignore", over="ignore"):
        _same_bits(maps._polyval(z, c), npoly.polyval(z, c))


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


def _dense_circle_max(f, r):
    """max of f(z) over |z| = r: 200,001 angles, then 200,001 more across
    the two cells about the best one."""
    t = np.linspace(0.0, 2.0 * np.pi, 200001)
    vals = f(r * np.exp(1j * t))
    k, h = int(np.argmax(vals)), t[1] - t[0]
    fine = np.linspace(t[k] - h, t[k] + h, 200001)
    return max(float(vals.max()), float(f(r * np.exp(1j * fine)).max()))


def _omega(m):
    def f(z):
        fz, fzb = m.derivs_many(z)
        return np.abs(fzb) / np.abs(fz)
    return f


@pytest.mark.parametrize("name", ["affine:1,0.5", "poly:z+0.3*zbar^2",
                                  "poisson:phi=t+0.2*sin(t)"])
def test_refined_sups_off_the_grid(name):
    # a rotation moves every maximizer off the angle grid, so the value
    # comes from the refinement, not from a grid point
    m0 = gallery_map(name)
    length0 = sup_radial_length(m0, 0.6)[1]
    for alpha in (0.1234, 1.0, 2.5):
        m = rotate_domain(m0, alpha)
        s = sup_modulus(m, 0.9)
        dense = _dense_circle_max(lambda z: np.abs(m.eval_many(z)), 0.9)
        assert abs(s - dense) <= 2e-16 * dense
        length = sup_radial_length(m, 0.6)[1]
        assert abs(length - length0) <= 1e-13 * length0
        # omega = g'/h' is analytic, so its sup over |z| <= 0.99 sits on
        # the circle (the rotated Poisson map's omega differs from the
        # unrotated one's by up to 3e-13 relative at its max)
        omega = estimate_K(m, 0.99).omega_sup
        dense = _dense_circle_max(_omega(m), 0.99)
        assert abs(omega - dense) <= 1e-13 * dense


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
    # so does complex scaling: c P[e^{i phi}] = |c| P[e^{i (phi + arg c)}]
    np.testing.assert_allclose(scale_range(p, 1j).eval_many(Z_PROBES),
                               1j * p.eval_many(Z_PROBES), atol=1e-14)


@pytest.mark.parametrize("c", [1e-7, 0.8 * np.exp(0.9j), 1e7])
def test_poisson_scaling_keeps_relative_accuracy(c):
    # kernel_tol is relative to scale, so the kinked phase's derivatives
    # at a tiny or huge scale are those at scale 1, times c
    phi = "t+0.3*sqrt(sin(t)**2)**3"
    m = gallery_map(f"poisson:phi={phi}")
    z = np.array([0.5, 0.99, 0.998]) * np.exp(0.3j)
    for got, want in zip(scale_range(m, c).derivs_many(z),
                         m.derivs_many(z)):
        np.testing.assert_allclose(got / c, want, rtol=1e-12, atol=0.0)


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
    assert abs(m.eval_many(z) - (z + 0.3 * np.conj(z) ** 2)) < 1e-15
    m = parse_map_spec({"kind": "affine", "a": [1, 0], "b": [0.5, 0]})
    assert abs(m.eval_many(0.2) - 0.3) < 1e-15
    m = parse_map_spec({"kind": "poisson", "phi": "t"})
    assert abs(m.eval_many(np.array([0.5]))[0] - 0.5) < 1e-9
    m = parse_map_spec({"kind": "gallery", "name": "scaled:2.0"})
    assert abs(m.eval_many(0.25) - 0.5) < 1e-15
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
    # the square of that bound bounds the jacobian and must not overflow
    with pytest.raises(MapSpecError):
        SeriesHarmonicMap([0.0, 1e160])
    SeriesHarmonicMap([0.0, 1.3e154])
