"""Command-line front end.

Subcommands: eval, length, area, coeffs, constants, verify, gallery.
A map is declared either by a JSON spec file or by a gallery name
(`harmonicdisk gallery` lists them).  A command accepts only the
options it reads, its own and those of the shared groups it takes
(payload, map, quadrature), and argparse refuses any other one.  Every
command but gallery hands _emit typed rows, the only payload path: it
prints the --format rendering and, with --out BASE, writes BASE.csv,
BASE.json and the BASE.meta.json sidecar (an extension of BASE is
dropped).  Identical invocations produce byte-identical CSV/JSON
bodies; run metadata (time, argv, versions) lands in the sidecar only.

`verify` has one parser per check of the registry `CHECKS`, the only
declaration of the verify options.  A check runs with only the options
given, named as the parameters they set, so every default is the one
in the check's signature.

Exit codes: 0 success / all inequalities hold, 1 validation or spec
error, 2 at least one inequality violated, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import cmath
import math
import os
import re
import sys

import numpy as np

from .config import (DEFAULT_CONFIG, MAX_THETA_GRID, QuadratureConfig,
                     effective_boundary_radius)
from .curve_constants import curve_constants
from .errors import (NumericalError, PointOutsideDisk, ValidationError,
                     checked_real, data_lines)
from .gallery import gallery_map, gallery_names, load_map_spec
from .geometry import (MAX_COEFFICIENTS, ArcSet, PolygonalCurve,
                       boundary_image_length, crosscut_length,
                       extract_coefficients, image_area, level_curve_length,
                       radial_length)
from .reporting import (csv_table, json_table, report_rows,
                        write_meta_sidecar, write_payload, REPORT_COLUMNS)
from .maps import jacobian, op_norm
from . import theorems


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a word of a minus and a number is a value, so that the
        # two-word form --z -0.9,0.1 works; argparse's own rule takes
        # only plain negative numbers, and no option here starts so
        self._negative_number_matcher = re.compile(r"^-\.?\d")

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


def _emit(ns, columns, rows):
    """Print the payload of the rows in --format; with --out BASE also
    write BASE.csv, BASE.json and BASE.meta.json.  Both texts are
    rendered before anything is printed, and an OSError on the way is
    refused like any other bad --out."""
    texts = {"csv": csv_table(rows, columns),
             "json": json_table(rows, columns)}
    sys.stdout.write(texts[ns.format])
    if ns.out:
        base = os.path.splitext(ns.out)[0]
        try:
            for fmt, text in texts.items():
                write_payload(f"{base}.{fmt}", text)
            write_meta_sidecar(base, ns.command, ns.argv)
        except OSError as exc:
            raise ValidationError(f"cannot write --out {ns.out}: {exc}")


def _disk_probe(z):
    """z, refused with PointOutsideDisk unless |z| < 1."""
    checked_real("|z|", abs(z), 0.0, 1.0, "[)", PointOutsideDisk)
    return z


def cmd_eval(ns, cfg):
    m = resolve_map(ns.spec)
    z_list = [_disk_probe(zk) for zk in ns.z or []]
    if ns.z_file:
        for lineno, line in data_lines(ns.z_file, "probe"):
            try:
                z_list.append(_disk_probe(_parse_complex(line)))
            except ValidationError as exc:
                raise ValidationError(f"{ns.z_file}:{lineno}: {exc}") from exc
    if not z_list:
        raise ValidationError("eval needs at least one probe "
                              "(--z RE,IM or --z-file PATH)")
    z = np.array(z_list, dtype=complex)
    f = m.eval_many(z)
    fz, fzb = m.derivs_many(z)
    afz, afzb = np.abs(fz), np.abs(fzb)
    opn, jac = op_norm(fz, fzb), jacobian(fz, fzb)
    with np.errstate(divide="ignore", invalid="ignore"):
        omega = np.where(afz > 0.0, afzb / afz, np.inf)
    cols = {"z_re": z.real, "z_im": z.imag, "f_re": f.real, "f_im": f.imag,
            "fz_re": fz.real, "fz_im": fz.imag,
            "fzb_re": fzb.real, "fzb_im": fzb.imag, "op_norm": opn,
            "lam": np.abs(afz - afzb), "jacobian": jac, "omega_abs": omega}
    _emit(ns, tuple(cols), [dict(zip(cols, row))
                            for row in zip(*cols.values())])
    return 0


def _arc_set(arcs=None, measure=None):
    """The arc set of --arc START:END (repeatable) or --measure; [0, pi]
    when neither is given.  Both at once are refused."""
    if measure is not None and arcs:
        raise ValidationError("--arc and --measure exclude each other")
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


# the options each --which kind of length reads; any other is refused
_LENGTH_OPTIONS = {"level": ("r",), "radial": ("r", "theta"),
                   "boundary": ("arc", "measure"),
                   "crosscut": ("zeta0", "rho")}
_LENGTH_KEYS = dict.fromkeys(sum(_LENGTH_OPTIONS.values(), ()))


def cmd_length(ns, cfg):
    which = ns.which
    foreign = [_flag(key) for key in _LENGTH_KEYS
               if key not in _LENGTH_OPTIONS[which]
               and getattr(ns, key) is not None]
    if foreign:
        raise ValidationError(f"length --which {which} does not take "
                              f"{', '.join(foreign)}")
    m = resolve_map(ns.spec)
    # (r, param, (length, nodes)) of each row
    if which == "level":
        cells = [(r, None, level_curve_length(m, r, cfg))
                 for r in ns.r or [0.5]]
    elif which == "radial":
        # the whole radius where the map's derivatives reach it
        radii = ns.r or [min(1.0, m.max_radius)]
        cells = [(r, th, radial_length(m, th, r, cfg))
                 for th in ns.theta or [0.0] for r in radii]
    elif which == "boundary":
        E = _arc_set(ns.arc, ns.measure)
        cells = [(effective_boundary_radius(cfg, m.max_radius),
                  E.total_measure, boundary_image_length(m, E, cfg))]
    else:  # crosscut
        zeta0 = 1 + 0j if ns.zeta0 is None else ns.zeta0
        cells = [(rho, zeta0, crosscut_length(m, zeta0, rho, cfg))
                 for rho in ns.rho or [1.0]]
    _emit(ns, ("which", "r", "param", "length", "nodes"),
          [{"which": which, "r": r, "param": param, "length": val,
            "nodes": nodes} for r, param, (val, nodes) in cells])
    return 0


def cmd_area(ns, cfg):
    m = resolve_map(ns.spec)
    rows = []
    for r in ns.r or [1.0]:
        val, agreement = image_area(m, r, cfg, center=ns.center)
        rows.append({"r": r, "center": ns.center, "area": val,
                     "agreement": agreement})
    _emit(ns, ("r", "center", "area", "agreement"), rows)
    return 0


def cmd_coeffs(ns, cfg):
    m = resolve_map(ns.spec)
    n_max = ns.n_max
    a, b = extract_coefficients(m, n_max, ns.rho, cfg)
    b = np.concatenate(([0.0], b))  # b_0 = 0: its mode belongs to a_0
    rows = [{"n": n, "a_re": a[n].real, "a_im": a[n].imag,
             "b_re": b[n].real, "b_im": b[n].imag} for n in range(n_max + 1)]
    _emit(ns, ("n", "a_re", "a_im", "b_re", "b_im"), rows)
    return 0


def cmd_constants(ns, cfg):
    if not ns.curve:
        raise ValidationError("constants needs a curve file (--curve PATH)")
    counts = {key: getattr(ns, key)
              for key in ("pairs", "centers", "radii", "point_pairs")
              if getattr(ns, key) is not None}
    report = curve_constants(PolygonalCurve.from_file(ns.curve),
                             seed=ns.seed, **counts)
    row = {
        "lavrentiev": report.lavrentiev_M,
        "quasicircle": report.quasicircle_M,
        "ahlfors": report.ahlfors_M,
        "linear_connectivity": report.linear_conn_M,
        "samples": ";".join(f"{k}={v}" for k, v in
                            sorted(report.sample_counts.items())),
    }
    _emit(ns, ("lavrentiev", "quasicircle", "ahlfors",
                "linear_connectivity", "samples"), [row])
    return 0


def _thm1(m, cfg, arc=None, measure=None):
    return theorems.thm1_bound(m, _arc_set(arc, measure), cfg)


_FLOAT = {"type": _parse_float}
_RADII = {"type": _parse_float_list, "metavar": "R1,R2,...",
          "help": f"1 to {theorems.MAX_R_GRID} radii"}
_SAMPLES = {"type": int,
            "help": "vertices of the boundary polygon, 8 to 2^20"}
_N_MAX = {"type": int,
          "help": f"highest coefficient index, 1 to {MAX_COEFFICIENTS}"}
_R_GRID = {"type": int, "help": f"grid radii, 2 to {theorems.MAX_R_GRID}"}
_PROBES = {"type": int, "help": f"probe points, 1 to {theorems.MAX_PROBES}"}

# check -> (function returning a report list, {parameter: add_argument
# keywords of its option}); _thm1 builds thm1's arc set from its options
CHECKS = {
    "prop1": (theorems.check_prop1, {"K": _FLOAT, "radii": _RADII}),
    "thm1": (_thm1, {"arc": {"action": "append", "metavar": "START:END"},
                     "measure": _FLOAT}),
    "thm2": (theorems.thm2_bound,
             {"zeta0": {"type": _parse_complex, "metavar": "RE,IM"},
              "K": _FLOAT, "M_lav": _FLOAT, "r_list": _RADII,
              "boundary_samples": _SAMPLES}),
    "thm3": (theorems.thm3_carleson, {"K": _FLOAT}),
    "prop2": (theorems.prop2_bound, {"r0": _FLOAT}),
    "thm5": (theorems.thm5_bound, {"K": _FLOAT, "n_max": _N_MAX,
                                   "rho": _FLOAT}),
    "thm4": (theorems.thm4_ratio,
             {"K": _FLOAT, "r_list": _RADII, "boundary_samples": _SAMPLES,
              "threshold": _FLOAT}),
    "schwarz": (theorems.schwarz_radial_check,
                {"normalization": _FLOAT, "r_grid": _R_GRID}),
    "selfmap": (theorems.selfmap_distortion_check,
                {"K": _FLOAT, "probes": _PROBES, "seed": {"type": int}}),
}


def _flag(dest):
    """The command-line flag of an option: --K, --m-lav, --r-list."""
    name = dest if len(dest) == 1 else dest.lower()
    return "--" + name.replace("_", "-")


def run_verify_check(ns, m, cfg):
    """Run the check ns.theorem with the options given; returns its
    report list."""
    fn, options = CHECKS[ns.theorem]
    # the module's current binding, which a profiler may have wrapped
    fn = getattr(theorems, fn.__name__, fn)
    return fn(m, cfg=cfg, **{key: getattr(ns, key) for key in options
                             if key in ns})


def cmd_verify(ns, cfg):
    m = resolve_map(ns.spec)
    reports = run_verify_check(ns, m, cfg)
    _emit(ns, REPORT_COLUMNS, report_rows(reports))
    return 0 if all(rep.holds for rep in reports) else 2


def cmd_gallery(ns, cfg):
    sys.stdout.writelines(name + "\n" for name in gallery_names())
    return 0


def _out_path(text):
    """--out, refused before any map is built if its directory is gone."""
    out_dir = os.path.dirname(text)
    if out_dir and not os.path.isdir(out_dir):
        raise ValidationError(f"--out directory {out_dir} does not exist")
    return text


def build_parser():
    payload = argparse.ArgumentParser(add_help=False)
    payload.add_argument("--out", type=_out_path, default="", metavar="PATH",
                         help="write PATH.csv, PATH.json and PATH.meta.json "
                              "(an extension of PATH is dropped)")
    payload.add_argument("--format", default="csv", choices=("csv", "json"))
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("--spec", default="", metavar="PATH|NAME",
                      help="map spec file or gallery name")
    quad = argparse.ArgumentParser(add_help=False)
    cfg = DEFAULT_CONFIG
    quad.add_argument("--abs-tol", type=_parse_float, default=cfg.abs_tol)
    quad.add_argument("--rel-tol", type=_parse_float, default=cfg.rel_tol)
    quad.add_argument("--theta-grid", type=int, default=cfg.theta_grid,
                      help=f"angular quadrature grid, 8 to {MAX_THETA_GRID}")
    quad.add_argument("--rb", type=_parse_float, default=cfg.boundary_radius,
                      help="boundary proxy radius r_b")
    every = [payload, spec, quad]

    parser = _Parser(prog="harmonicdisk",
                     description="planar harmonic map toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[payload, spec],
                       help="evaluate f and its derivatives at probes")
    p.add_argument("--z", action="append", type=_parse_complex,
                   metavar="RE,IM")
    p.add_argument("--z-file", metavar="PATH")
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("length", parents=every,
                       help="curve-length functionals")
    p.add_argument("--which", required=True, choices=tuple(_LENGTH_OPTIONS))
    p.add_argument("--r", action="append", type=_parse_float)
    p.add_argument("--theta", action="append", type=_parse_float)
    p.add_argument("--arc", action="append", metavar="START:END")
    p.add_argument("--measure", type=_parse_float)
    p.add_argument("--zeta0", type=_parse_complex, metavar="RE,IM")
    p.add_argument("--rho", action="append", type=_parse_float)
    p.set_defaults(run=cmd_length)

    p = sub.add_parser("area", parents=every, help="image area")
    p.add_argument("--r", action="append", type=_parse_float)
    p.add_argument("--center", type=_parse_complex, metavar="RE,IM")
    p.set_defaults(run=cmd_area)

    p = sub.add_parser("coeffs", parents=every,
                       help="power-series coefficients")
    p.add_argument("--n-max", default=8, **_N_MAX)
    p.add_argument("--rho", type=_parse_float, default=0.5)
    p.set_defaults(run=cmd_coeffs)

    p = sub.add_parser("constants", parents=[payload],
                       help="chord-arc constants of a polygonal curve")
    p.add_argument("--curve", default="", metavar="PATH")
    p.add_argument("--seed", type=int, default=0)
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
    p.set_defaults(run=cmd_constants)

    p = sub.add_parser("verify", help="run one inequality check")
    p.set_defaults(run=cmd_verify)
    checks = p.add_subparsers(dest="theorem", required=True)
    for name, (_, options) in CHECKS.items():
        # an option left out is not set, so the signature's default holds
        c = checks.add_parser(name, parents=every,
                              argument_default=argparse.SUPPRESS)
        for dest, keywords in options.items():
            c.add_argument(_flag(dest), dest=dest, **keywords)

    sub.add_parser("gallery", help="list built-in map names").set_defaults(
        run=cmd_gallery)
    return parser


# one parser per process, built at import: its handlers are the
# functions defined above, never a wrapper a profiler installs later
# (and would leave behind in a parser built while it was installed);
# parse_args builds a fresh namespace each call
_PARSER = build_parser()


def main(argv=None):
    try:
        ns = _PARSER.parse_args(argv)
        # the command line the sidecar records
        ns.argv = sys.argv[1:] if argv is None else argv
        # validated before any map is built, where the command takes it
        cfg = (QuadratureConfig(ns.abs_tol, ns.rel_tol, ns.theta_grid, ns.rb)
               if "rb" in ns else None)
        # overflow surfaces as a numerical failure, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return ns.run(ns, cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
