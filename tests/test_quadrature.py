"""Quadrature primitives against scipy and closed forms."""

import math

import numpy as np
import pytest
from scipy import integrate

from harmonicdisk import QuadratureNonconvergence, quadrature
from harmonicdisk.quadrature import (adaptive_simpson, cumulative_simpson,
                                     first_argmax, refine_grid_max)


def test_adaptive_simpson_polynomial_exact():
    # Simpson integrates cubics exactly; the extrapolated rule does quintics
    val, nodes = adaptive_simpson(lambda x: x ** 3 - 2.0 * x, 0.0, 2.0)
    assert abs(val - 0.0) < 1e-13
    assert nodes >= 17


def test_adaptive_simpson_matches_quad():
    # (integrand, a, b, tol); the cusped case needs a looser target
    cases = [
        (lambda x: np.exp(-x) * np.sin(5.0 * x), 0.0, 3.0, 1e-10),
        (lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0, 1e-10),
        (lambda x: np.sqrt(np.abs(np.cos(x))), 0.0, 2.0 * np.pi, 1e-8),
    ]
    for f, a, b, tol in cases:
        want, err = integrate.quad(lambda x: float(f(np.array([x]))[0]),
                                   a, b, limit=200)
        got, _ = adaptive_simpson(f, a, b, abs_tol=tol, rel_tol=tol)
        assert abs(got - want) < 50.0 * tol + 10.0 * err


def test_adaptive_simpson_refuses_cusp_at_overtight_tolerance():
    # sqrt cusps exhaust the width floor before reaching 1e-12; the
    # kernel must raise rather than return an unconverged value
    with pytest.raises(QuadratureNonconvergence):
        adaptive_simpson(lambda x: np.sqrt(np.abs(np.cos(x))),
                         0.0, 2.0 * np.pi, abs_tol=1e-13, rel_tol=1e-13)


def test_adaptive_simpson_periodic_symmetry_not_fooled():
    # int sin is 0; a naive single-panel estimate would accept immediately
    val, _ = adaptive_simpson(np.sin, 0.0, 2.0 * np.pi)
    assert abs(val) < 1e-12
    val, _ = adaptive_simpson(lambda x: np.sin(x) ** 2, 0.0, 2.0 * np.pi)
    assert abs(val - np.pi) < 1e-10


def test_adaptive_simpson_rejects_reversed_interval():
    with pytest.raises(ValueError):
        adaptive_simpson(np.sin, 1.0, 0.0)


def test_adaptive_simpson_budget_exhaustion(monkeypatch):
    rng = np.random.default_rng(7)
    jitter = rng.standard_normal(4096)

    def noisy(x):
        # white noise cannot satisfy the acceptance test at any depth
        idx = (np.abs(x) * 1e9).astype(int) % jitter.size
        return jitter[idx]

    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 256)
    with pytest.raises(QuadratureNonconvergence, match="exceeded 256"):
        adaptive_simpson(noisy, 0.0, 1.0, abs_tol=1e-12, rel_tol=1e-12)


def test_adaptive_simpson_deterministic():
    f = lambda x: np.exp(np.sin(3.0 * x))  # noqa: E731
    a = adaptive_simpson(f, 0.0, 4.0)
    b = adaptive_simpson(f, 0.0, 4.0)
    assert a == b


def _two_call_simpson(f, a, b, abs_tol=1e-9, rel_tol=1e-8,
                      max_subdivisions=1 << 16):
    """adaptive_simpson as it was with separate calls for edges and
    midpoints and for the two quarter points of a sweep: the reference
    that the one-call sweep must reproduce bit for bit."""
    span = b - a
    n0 = 8
    edges = a + span * np.arange(n0 + 1) / n0
    mids = 0.5 * (edges[:-1] + edges[1:])
    fe = np.asarray(f(edges), dtype=float)
    FM = np.asarray(f(mids), dtype=float)
    nodes = edges.size + mids.size
    L, W, FL, FR = edges[:-1], np.full(n0, span / n0), fe[:-1], fe[1:]
    S = (W / 6.0) * (FL + 4.0 * FM + FR)
    accepted, accepted_panels, running = [], 0, float(np.sum(S))
    while L.size:
        if accepted_panels + 2 * L.size > max_subdivisions or np.any(
                W < span * 2.0 ** -48):
            raise QuadratureNonconvergence("reference")
        F1 = np.asarray(f(L + 0.25 * W), dtype=float)
        F2 = np.asarray(f(L + 0.75 * W), dtype=float)
        nodes += F1.size + F2.size
        half = 0.5 * W
        Sl = (half / 6.0) * (FL + 4.0 * F1 + FM)
        Sr = (half / 6.0) * (FM + 4.0 * F2 + FR)
        S2 = Sl + Sr
        ok = np.abs(S2 - S) <= 15.0 * (max(abs_tol, rel_tol * abs(running))
                                       * (W / span))
        accepted.extend((S2[ok] + (S2[ok] - S[ok]) / 15.0).tolist())
        accepted_panels += 2 * int(np.count_nonzero(ok))
        keep = ~ok
        if not np.any(keep):
            break
        L = np.concatenate([L[keep], L[keep] + half[keep]])
        W = np.concatenate([half[keep], half[keep]])
        FL, FM, FR = (np.concatenate([FL[keep], FM[keep]]),
                      np.concatenate([F1[keep], F2[keep]]),
                      np.concatenate([FM[keep], FR[keep]]))
        S = np.concatenate([Sl[keep], Sr[keep]])
        running = math.fsum(accepted) + float(np.sum(S))
    return math.fsum(accepted), nodes


def test_adaptive_simpson_one_call_per_sweep_same_bits():
    from harmonicdisk import gallery_map

    m = gallery_map("poly:z+0.3*zbar^2")
    cases = [
        (lambda x: x ** 3 - 2.0 * x, 0.0, 2.0, 1e-9),
        (lambda x: np.exp(-x) * np.sin(5.0 * x), 0.0, 3.0, 1e-10),
        (lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0, 1e-10),
        (lambda x: np.sqrt(np.abs(np.cos(x))), 0.0, 2.0 * np.pi, 1e-8),
        (lambda x: np.sqrt(np.abs(np.cos(x))), 0.0, 2.0 * np.pi, 1e-13),
        (np.sin, 0.0, 2.0 * np.pi, 1e-9),
        (lambda x: np.sin(x) ** 2, 0.0, 2.0 * np.pi, 1e-9),
        (lambda x: np.exp(np.sin(3.0 * x)), 0.0, 4.0, 1e-9),
        (lambda t: np.abs(m.derivs_many(0.9 * np.exp(1j * t))[1]),
         0.0, 2.0 * np.pi, 1e-12),
    ]
    for f, a, b, tol in cases:
        calls = {"one": 0, "two": 0}

        def counted(key):
            def g(x):
                calls[key] += 1
                return f(x)
            return g

        try:
            want = _two_call_simpson(counted("two"), a, b, tol, tol)
        except QuadratureNonconvergence:
            with pytest.raises(QuadratureNonconvergence):
                adaptive_simpson(counted("one"), a, b, abs_tol=tol,
                                 rel_tol=tol)
            continue
        got = adaptive_simpson(counted("one"), a, b, abs_tol=tol,
                               rel_tol=tol)
        assert got == want
        # the seed and each sweep: one call each, where there were two
        assert calls["two"] == 2 * calls["one"]


def test_cumulative_simpson_against_scipy():
    h = 0.01
    x = h * np.arange(257)
    y = np.exp(np.cos(x))
    ours = cumulative_simpson(y, h)
    ref = integrate.cumulative_simpson(y, dx=h, initial=0.0)
    # our output reports every second node (panel-pair boundaries)
    assert ours.shape == (129,)
    np.testing.assert_allclose(ours, ref[::2], rtol=0.0, atol=1e-13)


def test_cumulative_simpson_axis_and_node_convention():
    h = 0.5
    xs = h * np.arange(9)
    vals = np.vstack([xs ** 2, 3.0 * xs ** 2])
    out = cumulative_simpson(vals, h)
    assert out.shape == (2, 5)
    assert out[0, 0] == 0.0
    # column k integrates up to node 2k: Simpson is exact on quadratics
    exact = xs ** 3 / 3.0
    np.testing.assert_allclose(out[0], exact[::2], atol=1e-12)
    np.testing.assert_allclose(out[1], 3.0 * exact[::2], atol=1e-12)
    with pytest.raises(ValueError):
        cumulative_simpson(np.zeros(8), h)


def test_refine_grid_max_parabola():
    # argmax of a smooth peak is only locatable to sqrt(eps); the value
    # itself is flat there and lands much closer
    f = lambda t: 1.0 + np.cos(t - 0.3)  # noqa: E731
    xs = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    x, v = refine_grid_max(f, f(xs))
    assert abs(x - 0.3) < 1e-6
    assert abs(v - 2.0) < 1e-14


def test_refine_grid_max_wraps():
    # maximizer of cos(t - 0.2) sits near t = 0.2, against the grid seam
    f = lambda t: np.cos(t - 0.2)  # noqa: E731
    xs = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    x, v = refine_grid_max(f, f(xs))
    assert abs(math.cos(x - 0.2) - 1.0) < 1e-12
    assert abs(v - 1.0) < 1e-12


def test_refine_grid_max_calls_per_search():
    # a bracket of two 2 pi / 720 cells shrinks 16-fold per call, so it
    # reaches 1e-12 in 9 calls
    xs = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    calls = []

    def f_many(t):
        calls.append(np.size(t))
        return np.cos(t - 1.2345)

    x, v = refine_grid_max(f_many, f_many(xs))
    assert len(calls) - 1 <= 10
    assert abs(x - 1.2345) < 1e-6
    assert v > float(np.cos(xs - 1.2345).max())


def _nudged(values, rng, ulps=3):
    """values, each moved by up to `ulps` ulps up or down at random."""
    out = np.array(values, dtype=float)
    for _ in range(ulps):
        toward = rng.choice([-np.inf, np.inf], size=out.shape)
        out = np.where(rng.random(out.shape) < 0.5,
                       np.nextafter(out, toward), out)
    return out


def test_first_argmax_is_stable_under_ulp_perturbation():
    # two maxima tied at 1.0 (indices 4 and 11), a runner-up 1e-9 below
    values = np.full(16, 0.5)
    values[[4, 11]] = 1.0
    values[7] = 1.0 - 1e-9
    # in 2-D the order is row-major: smallest row, then smallest column
    grid = np.zeros((3, 5))
    grid[2, 0] = grid[1, 3] = 2.0
    rng = np.random.default_rng(0)
    plain = set()
    for _ in range(50):
        nudged = _nudged(values, rng)
        plain.add(int(np.argmax(nudged)))
        assert first_argmax(nudged) == 4
        flat = first_argmax(_nudged(grid, rng))
        assert np.unravel_index(flat, grid.shape) == (1, 3)
    # the perturbations do move a plain argmax between the tied maxima
    assert plain == {4, 11}


def test_first_argmax_scale():
    # round-off-sized excesses tie only on the scale of the radii
    excess = np.array([1e-17, -2e-17, 3e-17, 0.0])
    radii = np.array([0.25, 0.5, 0.75, 1.0])
    assert first_argmax(excess) == 2
    assert first_argmax(excess, scale=radii) == 0


def test_refine_grid_max_keeps_a_tied_grid_point():
    # flat up to round-off: the zoom levels cannot beat the first grid
    # sample by more than the tie tolerance, so the sample is kept
    xs = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    f = lambda t: 1.0 + 1e-16 * np.sin(7.0 * t)  # noqa: E731
    assert refine_grid_max(f, f(xs)) == (0.0, 1.0)
