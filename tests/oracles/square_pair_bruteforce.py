"""Exhaustive O(n^2) pair constants for the subdivided square and an
ellipse with long windows.

For every unordered vertex pair the shorter boundary arc is found from
prefix sums; the chord-arc ratio (shorter arc length over chord) and
the diameter ratio (shorter arc diameter over chord) are maximized by
plain double loops over lags.  With per_side = 16 the polygon has 64
vertices, all windows hold at most 65 vertices, and every coordinate is
an exact dyadic float, so the package's sampled constants must coincide
with these values bit for bit (its pair sampling is exhaustive for
polygons this small).

The chord-arc max is attained at opposite side midpoints: shorter arc
half the perimeter (4), chord the side length (2), ratio exactly 2.

The ellipse mode builds the 260-gon inscribed in the 3:1 ellipse the
way ``ellipse_polygon(3, 1, 260)`` does.  Its shorter arcs hold up to
131 vertices, so windows longer than 128 vertices are probed and every
diameter is still a full pairwise scan (about 2 s).

Run:  python3 tests/oracles/square_pair_bruteforce.py [square|ellipse]
"""

import math
import sys

import numpy as np


def square_vertices(per_side=16):
    s = np.linspace(-1.0, 1.0, per_side + 1)[:-1]
    bottom = s - 1j
    right = 1.0 + 1j * s
    top = -s + 1j
    left = -1.0 - 1j * s
    return np.concatenate([bottom, right, top, left])


def ellipse_vertices(a=3.0, b=1.0, n=260):
    t = 2.0 * math.pi * np.arange(n) / n
    return a * np.cos(t) + 1j * b * np.sin(t)


def brute_force(v):
    n = v.size
    seg = np.abs(np.roll(v, -1) - v)
    pre = np.concatenate([[0.0], np.cumsum(seg)])
    total = pre[-1]
    best_arc = 1.0
    best_diam = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            chord = abs(v[j] - v[i])
            if chord < 1e-12:
                continue
            fwd = pre[j] - pre[i]
            bwd = total - fwd
            if fwd <= bwd:
                shorter = fwd
                window = v[i:j + 1]
            else:
                shorter = bwd
                window = np.concatenate([v[j:], v[:i + 1]])
            best_arc = max(best_arc, shorter / chord)
            d = np.abs(window[:, None] - window[None, :]).max()
            best_diam = max(best_diam, d / chord)
    return best_arc, best_diam


def main():
    mode = sys.argv[1] if len(sys.argv) > 1 else "square"
    if mode not in ("square", "ellipse"):
        sys.exit("usage: square_pair_bruteforce.py [square|ellipse]")
    v = square_vertices() if mode == "square" else ellipse_vertices()
    arc, diam = brute_force(v)
    print(f"vertices        {v.size}")
    print(f"lavrentiev      {arc:.17g}")
    print(f"quasicircle     {diam:.17g}")


if __name__ == "__main__":
    main()
