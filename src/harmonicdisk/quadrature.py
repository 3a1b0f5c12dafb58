"""Deterministic quadrature and scalar search primitives.

All routines are pure functions of their inputs.  Scalar accumulation
goes through ``math.fsum`` (exactly rounded), so no result depends on
reduction order and repeated runs are bitwise identical.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureNonconvergence

# Do not bisect below this fraction of the original interval; an integrand
# needing finer panels than 2^-48 of the range is treated as non-convergent.
_MIN_WIDTH_FRACTION = 2.0 ** -48


def adaptive_simpson(f, a, b, *, abs_tol=1e-9, rel_tol=1e-8,
                     max_subdivisions=1 << 16):
    """Adaptive composite Simpson rule for a real integrand on [a, b].

    ``f`` takes an ndarray of abscissae and returns integrand values.
    An interval is accepted once the classic |S2 - S1| <= 15 tol test
    holds, with the tolerance apportioned by interval width; accepted
    values carry the S2 + (S2 - S1)/15 extrapolation.  ``f`` is called
    once for the 17 seed nodes and once per sweep for both quarter
    points of every active interval.

    Returns ``(value, nodes)``.  Raises QuadratureNonconvergence when the
    panel budget is exhausted or an interval would be bisected below the
    width floor.
    """
    a = float(a)
    b = float(b)
    if not b > a:
        raise ValueError("require b > a")
    span = b - a
    # Seed with 8 panels so a symmetric or periodic integrand cannot fool
    # the very first error estimate.
    n0 = 8
    edges = a + span * np.arange(n0 + 1) / n0
    mids = 0.5 * (edges[:-1] + edges[1:])
    fx = np.asarray(f(np.concatenate([edges, mids])), dtype=float)
    nodes = fx.size

    L = edges[:-1]
    W = np.full(n0, span / n0)
    FL = fx[:n0]
    FR = fx[1:n0 + 1]
    FM = fx[n0 + 1:]
    S = (W / 6.0) * (FL + 4.0 * FM + FR)

    accepted: list[float] = []
    accepted_panels = 0
    running = float(np.sum(S))

    while L.size:
        if accepted_panels + 2 * L.size > max_subdivisions:
            raise QuadratureNonconvergence(
                f"adaptive Simpson exceeded {max_subdivisions} panels on "
                f"[{a!r}, {b!r}]")
        if np.any(W < span * _MIN_WIDTH_FRACTION):
            raise QuadratureNonconvergence(
                "interval width underflow in adaptive Simpson")
        fx = np.asarray(f(np.concatenate([L + 0.25 * W, L + 0.75 * W])),
                        dtype=float)
        F1, F2 = fx[:L.size], fx[L.size:]
        nodes += fx.size
        half = 0.5 * W
        Sl = (half / 6.0) * (FL + 4.0 * F1 + FM)
        Sr = (half / 6.0) * (FM + 4.0 * F2 + FR)
        S2 = Sl + Sr
        err = np.abs(S2 - S)
        tol = max(abs_tol, rel_tol * abs(running)) * (W / span)
        ok = err <= 15.0 * tol

        if np.any(ok):
            vals = S2[ok] + (S2[ok] - S[ok]) / 15.0
            accepted.extend(vals.tolist())
            accepted_panels += 2 * int(np.count_nonzero(ok))

        keep = ~ok
        if not np.any(keep):
            break
        # Children of every rejected interval: left gets (FL, F1, FM),
        # right gets (FM, F2, FR).  Positional order keeps runs repeatable.
        L = np.concatenate([L[keep], L[keep] + half[keep]])
        W = np.concatenate([half[keep], half[keep]])
        newFL = np.concatenate([FL[keep], FM[keep]])
        newFR = np.concatenate([FM[keep], FR[keep]])
        newFM = np.concatenate([F1[keep], F2[keep]])
        S = np.concatenate([Sl[keep], Sr[keep]])
        FL, FM, FR = newFL, newFM, newFR
        running = math.fsum(accepted) + float(np.sum(S))

    return math.fsum(accepted), nodes


def simpson_weights(panels):
    """Composite Simpson weights 1, 4, 2, ..., 2, 4, 1 on panels + 1
    nodes (panels even); multiply by h / 3 for the rule."""
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def cumulative_simpson(values, h):
    """Cumulative composite Simpson along the last axis.

    ``values`` holds samples on a uniform grid with an even panel count
    (odd node count).  Returns the running integral at every second node
    (panel-pair boundaries), starting with 0; output length along the
    last axis is (n_nodes + 1) // 2.
    """
    v = np.asarray(values, dtype=float)
    if v.shape[-1] % 2 != 1:
        raise ValueError("need an odd number of nodes")
    contrib = (h / 3.0) * (v[..., :-2:2] + 4.0 * v[..., 1::2] + v[..., 2::2])
    out = np.zeros(v.shape[:-1] + (contrib.shape[-1] + 1,))
    np.cumsum(contrib, axis=-1, out=out[..., 1:])
    return out


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(f, lo, hi, *, tol=1e-12, max_iter=200):
    """Golden-section maximizer for a scalar unimodal function.

    Deterministic; returns ``(x, f(x))`` for the best point seen.
    """
    lo = float(lo)
    hi = float(hi)
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1 = f(x1)
    f2 = f(x2)
    it = 0
    while hi - lo > tol and it < max_iter:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            f1 = f(x1)
        it += 1
    if f1 >= f2:
        return x1, f1
    return x2, f2


TIE_RTOL = 1e-12


def first_argmax(values, scale=None):
    """Row-major index of the first value within TIE_RTOL * max |scale|
    (default scale: the values) of the maximum, so that maxima tied to
    within round-off land on one grid point whatever their last bits."""
    values = np.asarray(values, dtype=float)
    scale = np.abs(values if scale is None else np.asarray(scale)).max()
    return int(np.argmax(values >= values.max() - TIE_RTOL * scale))


def refine_grid_max(f, xs, values=None, *, wrap=None, tol=1e-12):
    """Maximize ``f`` starting from its argmax over the grid ``xs``.

    Golden-section search runs on the two grid cells adjacent to the
    best sample, the first one by ``first_argmax``, and replaces it only
    if it beats the sample by more than a relative TIE_RTOL.  ``wrap``
    gives the period for cyclic grids (the neighbours then wrap around).
    Returns ``(x, f(x))``.
    """
    xs = np.asarray(xs, dtype=float)
    if values is None:
        values = np.array([f(x) for x in xs])
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
    x, v = golden_max(f, lo, hi, tol=tol)
    if v > best + TIE_RTOL * float(np.abs(values).max()):
        return float(x), float(v)
    return float(xs[i]), best
