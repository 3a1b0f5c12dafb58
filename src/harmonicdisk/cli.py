"""Command-line front end.

Subcommands: eval, length, area, coeffs, constants, verify, gallery.
A map is declared either by a JSON spec file or by a gallery name
(`harmonicdisk gallery` lists them).  Payload output is deterministic:
identical invocations produce byte-identical CSV/JSON bodies, and run
metadata (time, versions) lands in `<out>.meta.json` only.

Exit codes: 0 success / all inequalities hold, 1 validation or spec
error, 2 at least one inequality violated, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import cmath
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .config import QuadratureConfig
from .curve_constants import curve_constants
from .errors import NumericalError, PointOutsideDisk, ValidationError
from .gallery import gallery_map, gallery_names, load_map_spec
from .geometry import (ArcSet, PolygonalCurve, boundary_image_length,
                       crosscut_length, extract_coefficients, image_area,
                       level_curve_length, radial_length)
from .reporting import (csv_table, fmt_float, reports_to_json,
                        reports_to_rows, rows_to_json, write_meta_sidecar,
                        write_payload, REPORT_COLUMNS)
from . import theorems

THEOREM_NAMES = ("prop1", "thm1", "thm2", "thm3", "prop2", "thm5", "thm4",
                 "schwarz", "selfmap")


@dataclass
class RunConfig:
    """Everything that determines a run's payload bytes."""

    command: str
    map_spec: str = ""
    args: dict = field(default_factory=dict)
    abs_tol: float = 1e-9
    rel_tol: float = 1e-8
    theta_grid: int = 720
    boundary_radius: float = 1.0 - 1e-6
    seed: int = 0
    out_format: str = "csv"
    out_path: str = ""

    def quadrature(self):
        return QuadratureConfig(abs_tol=self.abs_tol, rel_tol=self.rel_tol,
                                theta_grid=self.theta_grid,
                                boundary_radius=self.boundary_radius)


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


def _arg(args, key, default):
    """args[key], or default when the option was not given; an explicit
    0 is kept."""
    value = args.get(key)
    return default if value is None else value


def resolve_map(spec):
    if not spec:
        raise ValidationError("a map spec is required (--spec NAME|PATH)")
    if os.path.exists(spec):
        return load_map_spec(spec)
    return gallery_map(spec)


def _emit(run, columns, rows, json_text=None):
    if run.out_format == "csv":
        text = csv_table(rows, columns)
    else:
        text = json_text if json_text is not None \
            else rows_to_json(rows, columns)
    sys.stdout.write(text)
    if run.out_path:
        write_payload(run.out_path, text)
        write_meta_sidecar(run.out_path, run.command, sys.argv[1:])


def cmd_eval(run):
    m = resolve_map(run.map_spec)
    z_list = [ _parse_complex(tok) for tok in run.args.get("z") or [] ]
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
    with np.errstate(divide="ignore", invalid="ignore"):
        omega = np.where(afz > 0.0, afzb / afz, np.inf)
    columns = ("z_re", "z_im", "f_re", "f_im", "fz_re", "fz_im",
               "fzb_re", "fzb_im", "op_norm", "lam", "jacobian",
               "omega_abs")
    rows = []
    for k in range(z.size):
        rows.append({
            "z_re": fmt_float(z[k].real), "z_im": fmt_float(z[k].imag),
            "f_re": fmt_float(f[k].real), "f_im": fmt_float(f[k].imag),
            "fz_re": fmt_float(fz[k].real), "fz_im": fmt_float(fz[k].imag),
            "fzb_re": fmt_float(fzb[k].real),
            "fzb_im": fmt_float(fzb[k].imag),
            "op_norm": fmt_float(afz[k] + afzb[k]),
            "lam": fmt_float(abs(afz[k] - afzb[k])),
            "jacobian": fmt_float(afz[k] ** 2 - afzb[k] ** 2),
            "omega_abs": fmt_float(omega[k]),
        })
    _emit(run, columns, rows)
    return 0


def _arcs_from_args(run):
    arcs = run.args.get("arc") or []
    measure = run.args.get("measure")
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
    cfg = run.quadrature()
    which = run.args["which"]
    rows = []
    if which == "level":
        radii = run.args.get("r") or [0.5]
        for r in radii:
            info = {}
            val = level_curve_length(m, float(r), cfg, info=info)
            rows.append({"which": which, "r": fmt_float(r),
                         "param": "", "length": fmt_float(val),
                         "nodes": str(info["nodes"])})
    elif which == "radial":
        radii = run.args.get("r") or [1.0]
        thetas = run.args.get("theta") or [0.0]
        for th in thetas:
            for r in radii:
                info = {}
                val = radial_length(m, float(th), float(r), cfg, info=info)
                rows.append({"which": which, "r": fmt_float(r),
                             "param": fmt_float(th),
                             "length": fmt_float(val),
                             "nodes": str(info["nodes"])})
    elif which == "boundary":
        E = _arcs_from_args(run)
        info = {}
        val = boundary_image_length(m, E, cfg, info=info)
        rows.append({"which": which, "r": fmt_float(info["r_b"]),
                     "param": fmt_float(E.total_measure),
                     "length": fmt_float(val), "nodes": str(info["nodes"])})
    elif which == "crosscut":
        zeta0 = _parse_complex(_arg(run.args, "zeta0", "1"))
        rhos = run.args.get("rho") or [1.0]
        for rho in rhos:
            info = {}
            val = crosscut_length(m, zeta0, float(rho), cfg, info=info)
            rows.append({"which": which, "r": fmt_float(rho),
                         "param": fmt_float(zeta0.real),
                         "length": fmt_float(val),
                         "nodes": str(info["nodes"])})
    else:
        raise ValidationError(f"unknown length kind {which!r}")
    _emit(run, ("which", "r", "param", "length", "nodes"), rows)
    return 0


def cmd_area(run):
    m = resolve_map(run.map_spec)
    cfg = run.quadrature()
    center = run.args.get("center")
    center = _parse_complex(center) if center is not None else None
    rows = []
    for r in run.args.get("r") or [1.0]:
        info = {}
        val = image_area(m, float(r), cfg, center=center, info=info)
        rows.append({
            "r": fmt_float(r),
            "center": "" if center is None else fmt_float(center.real),
            "area": fmt_float(val),
            "agreement": fmt_float(info["agreement"]),
        })
    _emit(run, ("r", "center", "area", "agreement"), rows)
    return 0


def cmd_coeffs(run):
    m = resolve_map(run.map_spec)
    cfg = run.quadrature()
    n_max = int(_arg(run.args, "n_max", 8))
    rho = float(_arg(run.args, "rho", 0.5))
    a, b = extract_coefficients(m, n_max, rho, cfg)
    rows = [{"n": "0", "a_re": fmt_float(a[0].real),
             "a_im": fmt_float(a[0].imag), "b_re": fmt_float(0.0),
             "b_im": fmt_float(0.0)}]
    for n in range(1, n_max + 1):
        rows.append({"n": str(n),
                     "a_re": fmt_float(a[n].real),
                     "a_im": fmt_float(a[n].imag),
                     "b_re": fmt_float(b[n - 1].real),
                     "b_im": fmt_float(b[n - 1].imag)})
    _emit(run, ("n", "a_re", "a_im", "b_re", "b_im"), rows)
    return 0


def cmd_constants(run):
    curve_file = run.args.get("curve")
    if not curve_file:
        raise ValidationError("constants needs a curve file (--curve PATH)")
    curve = PolygonalCurve.from_file(curve_file)
    report = curve_constants(
        curve,
        pairs=int(_arg(run.args, "pairs", 20000)),
        centers=int(_arg(run.args, "centers", 129)),
        radii=int(_arg(run.args, "radii", 6)),
        point_pairs=int(_arg(run.args, "point_pairs", 16)),
        seed=run.seed)
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


def run_verify_check(theorem, m, run):
    """Dispatch one named check; returns a list of InequalityReport."""
    cfg = run.quadrature()
    args = run.args
    K = args.get("K")
    K = float(K) if K is not None else None
    if theorem == "prop1":
        radii = (_parse_float_list(args["radii"])
                 if args.get("radii") is not None else theorems.DEFAULT_RADII)
        return theorems.check_prop1(m, K, radii, cfg)
    if theorem == "thm1":
        return [theorems.thm1_bound(m, _arcs_from_args(run), cfg)]
    if theorem == "thm2":
        zeta0 = _parse_complex(_arg(args, "zeta0", "1"))
        r_list = (_parse_float_list(args["r_list"])
                  if args.get("r_list") is not None else (0.5, 1.0, 2.0))
        m_lav = args.get("m_lav")
        m_lav = float(m_lav) if m_lav is not None else None
        return theorems.thm2_bound(m, zeta0, K, m_lav, r_list, cfg)
    if theorem == "thm3":
        _, reports = theorems.thm3_carleson(m, K, cfg=cfg)
        return reports
    if theorem == "prop2":
        r0 = float(_arg(args, "r0", 0.5))
        return [theorems.prop2_bound(m, r0, cfg=cfg)]
    if theorem == "thm5":
        n_max = int(_arg(args, "n_max", 8))
        rho = float(_arg(args, "rho", 0.5))
        return theorems.thm5_bound(m, K, n_max, rho, cfg)
    if theorem == "thm4":
        r_list = (_parse_float_list(args["r_list"])
                  if args.get("r_list") is not None
                  else (0.05, 0.1, 0.2, 0.4, 0.6))
        thr = float(_arg(args, "threshold", 0.05))
        bs = int(_arg(args, "boundary_samples", 2048))
        return theorems.thm4_ratio(m, K, r_list, bs, thr, cfg)
    if theorem == "schwarz":
        norm = args.get("normalization")
        norm = float(norm) if norm is not None else None
        r_grid = int(_arg(args, "r_grid", 64))
        return [theorems.schwarz_radial_check(m, norm, r_grid, cfg=cfg)]
    if theorem == "selfmap":
        probes = int(_arg(args, "probes", 200))
        return theorems.selfmap_distortion_check(m, K, probes, run.seed,
                                                 cfg)
    raise ValidationError(f"unknown theorem {theorem!r}; choose from "
                          + ", ".join(THEOREM_NAMES))


def cmd_verify(run):
    m = resolve_map(run.map_spec)
    reports = run_verify_check(run.args["theorem"], m, run)
    rows = reports_to_rows(reports)
    json_text = reports_to_json(reports)
    if run.out_format == "csv":
        sys.stdout.write(csv_table(rows, REPORT_COLUMNS))
    else:
        sys.stdout.write(json_text)
    if run.out_path:
        base, ext = os.path.splitext(run.out_path)
        csv_path = run.out_path if ext == ".csv" else base + ".csv"
        json_path = run.out_path if ext == ".json" else base + ".json"
        write_payload(csv_path, csv_table(rows, REPORT_COLUMNS))
        write_payload(json_path, json_text)
        write_meta_sidecar(base if ext in (".csv", ".json")
                           else run.out_path, "verify", sys.argv[1:])
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
    common.add_argument("--abs-tol", type=_parse_float, default=1e-9)
    common.add_argument("--rel-tol", type=_parse_float, default=1e-8)
    common.add_argument("--theta-grid", type=int, default=720)
    common.add_argument("--rb", type=_parse_float, default=1.0 - 1e-6,
                        help="boundary proxy radius r_b")

    parser = _Parser(prog="harmonicdisk",
                     description="planar harmonic map toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate f and its derivatives at probes")
    p.add_argument("--z", action="append", metavar="RE,IM")
    p.add_argument("--z-file", metavar="PATH")

    p = sub.add_parser("length", parents=[common],
                       help="curve-length functionals")
    p.add_argument("--which", required=True,
                   choices=("level", "radial", "boundary", "crosscut"))
    p.add_argument("--r", action="append", type=_parse_float)
    p.add_argument("--theta", action="append", type=_parse_float)
    p.add_argument("--arc", action="append", metavar="START:END")
    p.add_argument("--measure", type=_parse_float)
    p.add_argument("--zeta0", metavar="RE,IM")
    p.add_argument("--rho", action="append", type=_parse_float)

    p = sub.add_parser("area", parents=[common], help="image area")
    p.add_argument("--r", action="append", type=_parse_float)
    p.add_argument("--center", metavar="RE,IM")

    p = sub.add_parser("coeffs", parents=[common],
                       help="power-series coefficients")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--rho", type=_parse_float, default=0.5)

    p = sub.add_parser("constants", parents=[common],
                       help="chord-arc constants of a polygonal curve")
    p.add_argument("curve", nargs="?", default="")
    p.add_argument("--curve", dest="curve_flag", default="", metavar="PATH")
    p.add_argument("--pairs", type=int, default=20000)
    p.add_argument("--centers", type=int, default=129)
    p.add_argument("--radii", type=int, default=6)
    p.add_argument("--point-pairs", type=int, default=16,
                   help="interior point pairs of the linear-connectivity "
                        "constant, 1 to 4096")

    p = sub.add_parser("verify", parents=[common],
                       help="run one inequality check")
    p.add_argument("theorem", choices=THEOREM_NAMES)
    p.add_argument("--K", type=_parse_float)
    p.add_argument("--radii", metavar="R1,R2,...")
    p.add_argument("--r-list", metavar="R1,R2,...")
    p.add_argument("--arc", action="append", metavar="START:END")
    p.add_argument("--measure", type=_parse_float)
    p.add_argument("--zeta0", metavar="RE,IM")
    p.add_argument("--m-lav", type=_parse_float)
    p.add_argument("--r0", type=_parse_float)
    p.add_argument("--n-max", type=int)
    p.add_argument("--rho", type=_parse_float)
    p.add_argument("--threshold", type=_parse_float)
    p.add_argument("--boundary-samples", type=int,
                   help="vertices of the boundary polygon (thm4), 8 to "
                        "2^20")
    p.add_argument("--normalization", type=_parse_float)
    p.add_argument("--r-grid", type=int)
    p.add_argument("--probes", type=int)

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
    return RunConfig(command=ns.command, map_spec=ns.spec, args=args,
                     abs_tol=ns.abs_tol, rel_tol=ns.rel_tol,
                     theta_grid=ns.theta_grid, boundary_radius=ns.rb,
                     seed=ns.seed, out_format=ns.format, out_path=ns.out)


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
