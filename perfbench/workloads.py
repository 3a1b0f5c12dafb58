"""The benchmark's three workloads and the inputs they are built from.

A workload is a list of operations.  An operation is one CLI command,
run in-process through ``harmonicdisk.cli.main``, or one public
curve-constant call.  A pass runs every operation of a workload once.

The seed picks one of ``VARIANTS`` input variants: variant k places the
crosscut contact point at zeta0 = exp(2 pi i k / 3) and passes
``--seed k`` to ``selfmap`` and ``constants`` (and ``seed=k`` to the
direct pair-sampling calls).  Seed 0 reproduces the CLI defaults.  The
variants are finite so that every one of them has a committed reference
(``reference.json``).

The three contact points are the orbit of zeta0 = 1 under the 3-fold
symmetry f(w z) = w f(z), w = exp(2 pi i / 3), of poly:z+0.3*zbar^2, so
its thm2 (the slowest operation of series-verify) does the same
quadrature work on every seed.  affine:1,0.5 lacks that symmetry; its
thm2 does about 10% less work at variants 1 and 2 than at variant 0.
"""

from __future__ import annotations

import importlib
import math
import os
from dataclasses import dataclass
from typing import Callable

VARIANTS = 3

SERIES_MAPS = ("identity", "affine:1,0.5", "poly:z+0.3*zbar^2")
SERIES_CHECKS = ("prop1", "thm1", "thm2", "thm3", "prop2", "thm5", "thm4",
                 "schwarz", "selfmap")
POISSON_MAP = "poisson:phi=t+0.2*sin(t)"
# thm2 is left out on the Poisson map: 35 s at a single radius (README).
POISSON_CHECKS = ("prop1", "thm1", "thm3", "prop2", "thm5", "thm4",
                  "schwarz", "selfmap")
CURVE_POLY_MAP = "poly:z+0.3*zbar^2"
# above the 1024-vertex exhaustive limit, so pairs are sampled
CURVE_POLY_SAMPLES = 2048

WORKLOADS = ("series-verify", "poisson-verify", "curves")


@dataclass(frozen=True)
class Operation:
    """One unit of work.  Exactly one of ``argv`` and ``call`` is set.

    ``argv`` is a CLI command line without ``--format``/``--out``; the
    runner adds ``--format json --out <dir>/<name>.json``.  ``call``
    returns a float.  ``lower_bound`` marks values that are lower bounds
    of a true constant (allowed to rise above the reference).
    """

    name: str
    argv: tuple = ()
    call: Callable[[], float] | None = None
    lower_bound: bool = False


def variant_of(seed):
    return int(seed) % VARIANTS


def zeta0_arg(variant):
    theta = 2.0 * math.pi * variant / VARIANTS
    return f"{math.cos(theta)!r},{math.sin(theta)!r}"


def _verify_ops(spec, checks, variant):
    ops = []
    for check in checks:
        argv = ["verify", check, "--spec", spec]
        if check == "thm2":
            argv.append("--zeta0=" + zeta0_arg(variant))
        if check == "selfmap":
            argv += ["--seed", str(variant)]
        ops.append(Operation(f"verify.{check}.{spec}", tuple(argv)))
    return ops


def _write_curve(path, curve):
    with open(path, "w") as fh:
        for z in curve.vertices:
            fh.write(f"{float(z.real)!r} {float(z.imag)!r}\n")


def build(workload, seed, workdir):
    """Build the inputs of ``workload`` for ``seed`` and return its
    operations.  Curve files are written under ``workdir``.  The maps
    the operations name are built here too, so that set-up time covers
    their construction and validation."""
    from harmonicdisk.gallery import gallery_map

    variant = variant_of(seed)
    if workload == "series-verify":
        for spec in SERIES_MAPS:
            gallery_map(spec)
        return [op for spec in SERIES_MAPS
                for op in _verify_ops(spec, SERIES_CHECKS, variant)]
    if workload == "poisson-verify":
        gallery_map(POISSON_MAP)
        return _poisson_ops(variant)
    if workload == "curves":
        return _curve_ops(variant, workdir, gallery_map)
    raise ValueError(f"unknown workload {workload!r}; choose from "
                     + ", ".join(WORKLOADS))


def _poisson_ops(variant):
    ops = _verify_ops(POISSON_MAP, POISSON_CHECKS, variant)
    rhos = []
    for rho in ("0.1", "0.5", "1.0", "1.5"):
        rhos += ["--rho", rho]
    ops.append(Operation(
        "length.crosscut", ("length", "--which", "crosscut", "--spec",
                            POISSON_MAP, "--zeta0=" + zeta0_arg(variant),
                            *rhos)))
    ops.append(Operation("area.disk", ("area", "--spec", POISSON_MAP,
                                       "--r", "1.0")))
    return ops


def _curve_ops(variant, workdir, gallery_map):
    # the package re-exports a function named curve_constants
    cc = importlib.import_module("harmonicdisk.curve_constants")
    geo = importlib.import_module("harmonicdisk.geometry")

    curves = {
        "circle512": geo.circle_polygon(512),
        "ellipse256": geo.ellipse_polygon(2, 1, 256),
        "u": geo.u_polygon(),
        "square": geo.square_polygon(),
    }
    ops = []
    for name, curve in curves.items():
        path = os.path.join(workdir, f"{name}.txt")
        _write_curve(path, curve)
        ops.append(Operation(
            f"constants.{name}", ("constants", "--curve", path, "--seed",
                                  str(variant)), lower_bound=True))
    poly = geo.boundary_polygon(gallery_map(CURVE_POLY_MAP),
                                CURVE_POLY_SAMPLES)
    # looked up at call time, so a traced run sees the wrapped functions
    ops += [
        Operation("lavrentiev.poly2048",
                  call=lambda: cc.lavrentiev_constant(poly, seed=variant),
                  lower_bound=True),
        Operation("quasicircle.poly2048",
                  call=lambda: cc.quasicircle_constant(poly, seed=variant),
                  lower_bound=True),
        Operation("ahlfors.poly2048",
                  call=lambda: cc.ahlfors_constant(poly), lower_bound=True),
    ]
    return ops
