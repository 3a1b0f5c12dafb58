"""Command-line front end.

Subcommands: eval, length, area, coeffs, constants, verify, gallery.
A map is declared either by a JSON spec file or by a gallery name
(`harmonicdisk gallery` lists them).  Payload output is deterministic:
identical invocations produce byte-identical CSV/JSON bodies, and run
metadata (time, versions) lands in `<out>.meta.json` only.

`verify` runs a check of the registry `CHECKS` with only the options
given, parsed and named as the parameters they set, so every default
is the one in the check's signature; other options are refused.

Exit codes: 0 success / all inequalities hold, 1 validation or spec
error, 2 at least one inequality violated, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .config import (DEFAULT_CONFIG, MAX_THETA_GRID, QuadratureConfig,
                     effective_boundary_radius)
from .curve_constants import curve_constants
from .errors import NumericalError, PointOutsideDisk, ValidationError
from .gallery import gallery_map, gallery_names, load_map_spec
from .geometry import (ArcSet, PolygonalCurve, boundary_image_length,
                       crosscut_length, extract_coefficients, image_area,
                       level_curve_length, radial_length)
from .reporting import (csv_table, fmt_float, reports_to_json,
                        reports_to_rows, rows_to_json, write_meta_sidecar,
                        write_payload, REPORT_COLUMNS)
from .maps import jacobian, op_norm
from . import theorems

@dataclass
class RunConfig:
    """Everything that determines a run's payload bytes."""

    command: str
    map_spec: str = ""
    args: dict = field(default_factory=dict)
    quadrature: QuadratureConfig = DEFAULT_CONFIG
    seed: int = 0
    out_format: str = "csv"
    out_path: str = ""


class _Parser(argparse.ArgumentParser):
    # usage mistakes are validation errors (exit 1), keeping exit 2
    # reserved for inequality violations
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _parse_float(text):
    """A finite float; also the argparse type of every float option."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValidationError(f"expected a finite number, got {text!r}")
    return value


def _parse_complex(text):
    s = str(text).strip()
    try:
        if "," in s:
            re_s, im_s = s.split(",", 1)
            z = complex(float(re_s), float(im_s))
        else:
            z = complex(s.replace(" ", ""))
    except ValueError as exc:
        raise ValidationError(f"cannot parse complex number from {text!r}") \
            from exc
    if not cmath.isfinite(z):
        raise ValidationError(f"complex number {text!r} is not finite")
    return z


def _parse_float_list(text):
    return [_parse_float(tok) for tok in str(text).replace(",", " ").split()]


def resolve_map(spec):
    if not spec:
        raise ValidationError("a map spec is required (--spec NAME|PATH)")
    if os.path.exists(spec):
        return load_map_spec(spec)
    return gallery_map(spec)


def _emit(run, columns, rows):
    to_text = csv_table if run.out_format == "csv" else rows_to_json
    text = to_text(rows, columns)
    sys.stdout.write(text)
    if run.out_path:
        write_payload(run.out_path, text)
        write_meta_sidecar(run.out_path, run.command, sys.argv[1:])


def cmd_eval(run):
    m = resolve_map(run.map_spec)
    z_list = list(run.args.get("z") or [])
    z_file = run.args.get("z_file")
    if z_file:
        with open(z_file) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if line:
                    z_list.append(_parse_complex(line))
    if not z_list:
        raise ValidationError("eval needs at least one probe "
                              "(--z RE,IM or --z-file PATH)")
    z = np.array(z_list, dtype=complex)
    if np.any(np.abs(z) >= 1.0):
        bad = z[np.abs(z) >= 1.0][0]
        raise PointOutsideDisk(f"probe {bad} is outside the open disk")
    f = m.eval_many(z)
    fz, fzb = m.derivs_many(z)
    afz, afzb = np.abs(fz), np.abs(fzb)
    opn, jac = op_norm(fz, fzb), jacobian(fz, fzb)
    with np.errstate(divide="ignore", invalid="ignore"):
        omega = np.where(afz > 0.0, afzb / afz, np.inf)
    rows = [{
        "z_re": fmt_float(z[k].real), "z_im": fmt_float(z[k].imag),
        "f_re": fmt_float(f[k].real), "f_im": fmt_float(f[k].imag),
        "fz_re": fmt_float(fz[k].real), "fz_im": fmt_float(fz[k].imag),
        "fzb_re": fmt_float(fzb[k].real), "fzb_im": fmt_float(fzb[k].imag),
        "op_norm": fmt_float(opn[k]),
        "lam": fmt_float(abs(afz[k] - afzb[k])),
        "jacobian": fmt_float(jac[k]),
        "omega_abs": fmt_float(omega[k]),
    } for k in range(z.size)]
    _emit(run, tuple(rows[0]), rows)
    return 0


def _arc_set(arcs=None, measure=None):
    """The arc set of --arc START:END (repeatable) or --measure; [0, pi]
    when neither is given."""
    if measure is not None:
        return ArcSet.single(0.0, float(measure))
    if arcs:
        spans = []
        for spec in arcs:
            a, sep, b = str(spec).partition(":")
            if not sep:
                raise ValidationError(f"arc must look like START:END, "
                                      f"got {spec!r}")
            spans.append((_parse_float(a), _parse_float(b)))
        return ArcSet(tuple(spans))
    return ArcSet.single(0.0, np.pi)


def cmd_length(run):
    m = resolve_map(run.map_spec)
    cfg = run.quadrature
    which = run.args["which"]
    rows = []
    if which == "level":
        for r in run.args.get("r") or [0.5]:
            val, nodes = level_curve_length(m, float(r), cfg)
            rows.append({"which": which, "r": fmt_float(r),
                         "param": "", "length": fmt_float(val),
                         "nodes": str(nodes)})
    elif which == "radial":
        radii = run.args.get("r") or [1.0]
        for th in run.args.get("theta") or [0.0]:
            for r in radii:
                val, nodes = radial_length(m, float(th), float(r), cfg)
                rows.append({"which": which, "r": fmt_float(r),
                             "param": fmt_float(th),
                             "length": fmt_float(val),
                             "nodes": str(nodes)})
    elif which == "boundary":
        E = _arc_set(run.args.get("arc"), run.args.get("measure"))
        val, nodes = boundary_image_length(m, E, cfg)
        rb = effective_boundary_radius(cfg, m.max_radius)
        rows.append({"which": which, "r": fmt_float(rb),
                     "param": fmt_float(E.total_measure),
                     "length": fmt_float(val), "nodes": str(nodes)})
    else:  # crosscut
        zeta0 = run.args["zeta0"]
        for rho in run.args.get("rho") or [1.0]:
            val, nodes = crosscut_length(m, zeta0, float(rho), cfg)
            rows.append({"which": which, "r": fmt_float(rho),
                         "param": fmt_float(zeta0.real),
                         "length": fmt_float(val), "nodes": str(nodes)})
    _emit(run, ("which", "r", "param", "length", "nodes"), rows)
    return 0


def cmd_area(run):
    m = resolve_map(run.map_spec)
    center = run.args.get("center")
    rows = []
    for r in run.args.get("r") or [1.0]:
        val, agreement = image_area(m, float(r), run.quadrature,
                                    center=center)
        rows.append({
            "r": fmt_float(r),
            "center": "" if center is None else fmt_float(center.real),
            "area": fmt_float(val),
            "agreement": fmt_float(agreement),
        })
    _emit(run, ("r", "center", "area", "agreement"), rows)
    return 0


def cmd_coeffs(run):
    m = resolve_map(run.map_spec)
    n_max = run.args["n_max"]
    a, b = extract_coefficients(m, n_max, run.args["rho"], run.quadrature)
    b = np.concatenate(([0.0], b))  # b_0 = 0: its mode belongs to a_0
    rows = [{"n": str(n), "a_re": fmt_float(a[n].real),
             "a_im": fmt_float(a[n].imag), "b_re": fmt_float(b[n].real),
             "b_im": fmt_float(b[n].imag)} for n in range(n_max + 1)]
    _emit(run, ("n", "a_re", "a_im", "b_re", "b_im"), rows)
    return 0


def cmd_constants(run):
    curve_file = run.args.get("curve")
    if not curve_file:
        raise ValidationError("constants needs a curve file (--curve PATH)")
    counts = {key: run.args[key]
              for key in ("pairs", "centers", "radii", "point_pairs")
              if run.args[key] is not None}
    report = curve_constants(PolygonalCurve.from_file(curve_file),
                             seed=run.seed, **counts)
    row = {
        "lavrentiev": fmt_float(report.lavrentiev_M),
        "quasicircle": fmt_float(report.quasicircle_M),
        "ahlfors": fmt_float(report.ahlfors_M),
        "linear_connectivity": fmt_float(report.linear_conn_M),
        "samples": ";".join(f"{k}={v}" for k, v in
                            sorted(report.sample_counts.items())),
    }
    _emit(run, ("lavrentiev", "quasicircle", "ahlfors",
                "linear_connectivity", "samples"), [row])
    return 0


def _thm1(m, cfg, arc=None, measure=None):
    return [theorems.thm1_bound(m, _arc_set(arc, measure), cfg)]


@functools.wraps(theorems.thm3_carleson, assigned=())
def _thm3(m, **kw):
    return theorems.thm3_carleson(m, **kw)[1]


@functools.wraps(theorems.prop2_bound, assigned=())
def _prop2(m, **kw):
    return [theorems.prop2_bound(m, **kw)]


@functools.wraps(theorems.schwarz_radial_check, assigned=())
def _schwarz(m, **kw):
    return [theorems.schwarz_radial_check(m, **kw)]


# check -> (function returning a report list, the verify options it
# takes; selfmap's seed is the global --seed).  An adapter reshapes one
# function, and inspect.signature shows that function's parameters.
CHECKS = {
    "prop1": (theorems.check_prop1, ("K", "radii")),
    "thm1": (_thm1, ("arc", "measure")),
    "thm2": (theorems.thm2_bound,
             ("zeta0", "K", "M_lav", "r_list", "boundary_samples")),
    "thm3": (_thm3, ("K",)),
    "prop2": (_prop2, ("r0",)),
    "thm5": (theorems.thm5_bound, ("K", "n_max", "rho")),
    "thm4": (theorems.thm4_ratio,
             ("K", "r_list", "boundary_samples", "threshold")),
    "schwarz": (_schwarz, ("normalization", "r_grid")),
    "selfmap": (theorems.selfmap_distortion_check, ("K", "probes", "seed")),
}
THEOREM_NAMES = tuple(CHECKS)


def _flag(dest):
    """The command-line flag of an option: --K, --m-lav, --r-list."""
    name = dest if len(dest) == 1 else dest.lower()
    return "--" + name.replace("_", "-")


def run_verify_check(theorem, m, run):
    """Run one check with the options given; returns its report list."""
    fn, options = CHECKS[theorem]
    given = {key: value for key, value in run.args.items()
             if value is not None and key != "theorem"}
    foreign = [key for key in given if key not in options]
    if foreign:
        raise ValidationError(
            f"verify {theorem} does not take "
            f"{', '.join(map(_flag, foreign))}; its options are "
            f"{', '.join(map(_flag, options))}")
    if "seed" in options:
        given["seed"] = run.seed
    # the module's current binding, which a profiler may have wrapped
    fn = getattr(theorems, fn.__name__, fn)
    return fn(m, cfg=run.quadrature, **given)


def cmd_verify(run):
    m = resolve_map(run.map_spec)
    reports = run_verify_check(run.args["theorem"], m, run)
    texts = {"csv": csv_table(reports_to_rows(reports), REPORT_COLUMNS),
             "json": reports_to_json(reports)}
    sys.stdout.write(texts[run.out_format])
    if run.out_path:
        base = os.path.splitext(run.out_path)[0]
        for fmt, text in texts.items():
            write_payload(f"{base}.{fmt}", text)
        write_meta_sidecar(base, "verify", sys.argv[1:])
    return 0 if all(rep.holds for rep in reports) else 2


def cmd_gallery(run):
    for name in gallery_names():
        sys.stdout.write(name + "\n")
    return 0


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--spec", default="", metavar="PATH|NAME",
                        help="map spec file or gallery name")
    common.add_argument("--out", default="", metavar="PATH",
                        help="write payload here (plus .meta.json sidecar)")
    common.add_argument("--format", default="csv", choices=("csv", "json"))
    common.add_argument("--seed", type=int, default=0)
    cfg = DEFAULT_CONFIG
    common.add_argument("--abs-tol", type=_parse_float, default=cfg.abs_tol)
    common.add_argument("--rel-tol", type=_parse_float, default=cfg.rel_tol)
    common.add_argument("--theta-grid", type=int, default=cfg.theta_grid,
                        help=f"angular quadrature grid, 8 to {MAX_THETA_GRID}")
    common.add_argument("--rb", type=_parse_float,
                        default=cfg.boundary_radius,
                        help="boundary proxy radius r_b")

    parser = _Parser(prog="harmonicdisk",
                     description="planar harmonic map toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate f and its derivatives at probes")
    p.add_argument("--z", action="append", type=_parse_complex,
                   metavar="RE,IM")
    p.add_argument("--z-file", metavar="PATH")

    p = sub.add_parser("length", parents=[common],
                       help="curve-length functionals")
    p.add_argument("--which", required=True,
                   choices=("level", "radial", "boundary", "crosscut"))
    p.add_argument("--r", action="append", type=_parse_float)
    p.add_argument("--theta", action="append", type=_parse_float)
    p.add_argument("--arc", action="append", metavar="START:END")
    p.add_argument("--measure", type=_parse_float)
    p.add_argument("--zeta0", type=_parse_complex, default="1",
                   metavar="RE,IM")
    p.add_argument("--rho", action="append", type=_parse_float)

    p = sub.add_parser("area", parents=[common], help="image area")
    p.add_argument("--r", action="append", type=_parse_float)
    p.add_argument("--center", type=_parse_complex, metavar="RE,IM")

    p = sub.add_parser("coeffs", parents=[common],
                       help="power-series coefficients")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--rho", type=_parse_float, default=0.5)

    p = sub.add_parser("constants", parents=[common],
                       help="chord-arc constants of a polygonal curve")
    p.add_argument("curve", nargs="?", default="")
    p.add_argument("--curve", dest="curve_flag", default="", metavar="PATH")
    p.add_argument("--pairs", type=int,
                   help="vertex pairs of the Lavrentiev and quasicircle "
                        "constants, 1 to 2096128 (curves of up to 1024 "
                        "vertices take all pairs)")
    p.add_argument("--centers", type=int,
                   help="centers of the Ahlfors constant, 1 to 4097")
    p.add_argument("--radii", type=int,
                   help="radius fractions of the Ahlfors constant, 1 to 14")
    p.add_argument("--point-pairs", type=int,
                   help="interior point pairs of the linear-connectivity "
                        "constant, 1 to 4096")

    p = sub.add_parser("verify", parents=[common],
                       help="run one inequality check")
    p.add_argument("theorem", choices=THEOREM_NAMES)
    p.add_argument("--K", type=_parse_float)
    p.add_argument("--radii", type=_parse_float_list, metavar="R1,R2,...")
    p.add_argument("--r-list", type=_parse_float_list, metavar="R1,R2,...")
    p.add_argument("--arc", action="append", metavar="START:END")
    p.add_argument("--measure", type=_parse_float)
    p.add_argument("--zeta0", type=_parse_complex, metavar="RE,IM")
    p.add_argument("--m-lav", dest="M_lav", type=_parse_float)
    p.add_argument("--r0", type=_parse_float)
    p.add_argument("--n-max", type=int)
    p.add_argument("--rho", type=_parse_float)
    p.add_argument("--threshold", type=_parse_float)
    p.add_argument("--boundary-samples", type=int,
                   help="vertices of the boundary polygon (thm2, thm4), 8 "
                        "to 2^20")
    p.add_argument("--normalization", type=_parse_float)
    p.add_argument("--r-grid", type=int,
                   help=f"grid radii of schwarz, 2 to {theorems.MAX_R_GRID}")
    p.add_argument("--probes", type=int,
                   help=f"probe points of selfmap, 1 to {theorems.MAX_PROBES}")

    sub.add_parser("gallery", parents=[common],
                   help="list built-in map names")
    return parser


_DISPATCH = {
    "eval": cmd_eval,
    "length": cmd_length,
    "area": cmd_area,
    "coeffs": cmd_coeffs,
    "constants": cmd_constants,
    "verify": cmd_verify,
    "gallery": cmd_gallery,
}

_GLOBAL_KEYS = {"spec", "out", "format", "seed", "abs_tol", "rel_tol",
                "theta_grid", "rb", "command"}


def run_config_from_args(ns):
    args = {k: v for k, v in vars(ns).items() if k not in _GLOBAL_KEYS}
    if "curve_flag" in args:
        args["curve"] = args.pop("curve_flag") or args.get("curve") or ""
    # validated here, whichever command the options reach
    cfg = QuadratureConfig(abs_tol=ns.abs_tol, rel_tol=ns.rel_tol,
                           theta_grid=ns.theta_grid, boundary_radius=ns.rb)
    return RunConfig(command=ns.command, map_spec=ns.spec, args=args,
                     quadrature=cfg, seed=ns.seed, out_format=ns.format,
                     out_path=ns.out)


def main(argv=None):
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        run = run_config_from_args(ns)
        # overflow surfaces as a numerical failure, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return _DISPATCH[run.command](run)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
