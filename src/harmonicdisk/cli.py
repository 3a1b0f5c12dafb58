"""Command-line front end.

Subcommands: eval, length, area, coeffs, constants, verify, gallery.
A map is declared either by a JSON spec file or by a gallery name
(`harmonicdisk gallery` lists them).  Every command but gallery hands
_emit typed rows, the only payload path: it prints the --format
rendering and, with --out BASE, writes BASE.csv, BASE.json and the
BASE.meta.json sidecar (an extension of BASE is dropped).  Identical
invocations produce byte-identical CSV/JSON bodies; run metadata
(time, versions) lands in the sidecar only.  gallery prints names and
refuses --out.

`verify` runs a check of the registry `CHECKS` with only the options
given, parsed and named as the parameters they set, so every default
is the one in the check's signature; other options are refused.

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
                     checked_real)
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
            write_meta_sidecar(base, ns.command, sys.argv[1:])
        except OSError as exc:
            raise ValidationError(f"cannot write --out {ns.out}: {exc}")


def cmd_eval(ns, cfg):
    m = resolve_map(ns.spec)
    z_list = list(ns.z or [])
    z_file = ns.z_file
    if z_file:
        try:
            fh = open(z_file)
        except OSError as exc:
            raise ValidationError(f"cannot read probe file {z_file}: {exc}")
        with fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if line:
                    z_list.append(_parse_complex(line))
    if not z_list:
        raise ValidationError("eval needs at least one probe "
                              "(--z RE,IM or --z-file PATH)")
    for zk in z_list:
        checked_real("|z|", abs(zk), 0.0, 1.0, "[)", PointOutsideDisk)
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


def cmd_length(ns, cfg):
    m = resolve_map(ns.spec)
    which = ns.which
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
        cells = [(rho, ns.zeta0, crosscut_length(m, ns.zeta0, rho, cfg))
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


# check -> (function returning a report list, the verify options it
# takes; selfmap's seed is the global --seed).  _thm1 builds thm1's arc
# set from its options.
CHECKS = {
    "prop1": (theorems.check_prop1, ("K", "radii")),
    "thm1": (_thm1, ("arc", "measure")),
    "thm2": (theorems.thm2_bound,
             ("zeta0", "K", "M_lav", "r_list", "boundary_samples")),
    "thm3": (theorems.thm3_carleson, ("K",)),
    "prop2": (theorems.prop2_bound, ("r0",)),
    "thm5": (theorems.thm5_bound, ("K", "n_max", "rho")),
    "thm4": (theorems.thm4_ratio,
             ("K", "r_list", "boundary_samples", "threshold")),
    "schwarz": (theorems.schwarz_radial_check, ("normalization", "r_grid")),
    "selfmap": (theorems.selfmap_distortion_check, ("K", "probes", "seed")),
}
THEOREM_NAMES = tuple(CHECKS)


def _flag(dest):
    """The command-line flag of an option: --K, --m-lav, --r-list."""
    name = dest if len(dest) == 1 else dest.lower()
    return "--" + name.replace("_", "-")


# namespace keys that are not options of a check
_GLOBAL_KEYS = {"spec", "out", "format", "seed", "abs_tol", "rel_tol",
                "theta_grid", "rb", "command", "run", "theorem"}


def run_verify_check(ns, m, cfg):
    """Run the check ns.theorem with the options given; returns its
    report list."""
    theorem = ns.theorem
    fn, options = CHECKS[theorem]
    given = {key: value for key, value in vars(ns).items()
             if value is not None and key not in _GLOBAL_KEYS}
    foreign = [key for key in given if key not in options]
    if foreign:
        raise ValidationError(
            f"verify {theorem} does not take "
            f"{', '.join(map(_flag, foreign))}; its options are "
            f"{', '.join(map(_flag, options))}")
    if "seed" in options:
        given["seed"] = ns.seed
    # the module's current binding, which a profiler may have wrapped
    fn = getattr(theorems, fn.__name__, fn)
    return fn(m, cfg=cfg, **given)


def cmd_verify(ns, cfg):
    m = resolve_map(ns.spec)
    reports = run_verify_check(ns, m, cfg)
    _emit(ns, REPORT_COLUMNS, report_rows(reports))
    return 0 if all(rep.holds for rep in reports) else 2


def cmd_gallery(ns, cfg):
    if ns.out:
        raise ValidationError("gallery writes no payload file; it does "
                              "not take --out")
    for name in gallery_names():
        sys.stdout.write(name + "\n")
    return 0


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--spec", default="", metavar="PATH|NAME",
                        help="map spec file or gallery name")
    common.add_argument("--out", default="", metavar="PATH",
                        help="write PATH.csv, PATH.json and PATH.meta.json "
                             "(an extension of PATH is dropped)")
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
    p.set_defaults(run=cmd_eval)

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
    p.set_defaults(run=cmd_length)

    p = sub.add_parser("area", parents=[common], help="image area")
    p.add_argument("--r", action="append", type=_parse_float)
    p.add_argument("--center", type=_parse_complex, metavar="RE,IM")
    p.set_defaults(run=cmd_area)

    p = sub.add_parser("coeffs", parents=[common],
                       help="power-series coefficients")
    p.add_argument("--n-max", type=int, default=8,
                   help=f"highest coefficient index, 1 to {MAX_COEFFICIENTS}")
    p.add_argument("--rho", type=_parse_float, default=0.5)
    p.set_defaults(run=cmd_coeffs)

    p = sub.add_parser("constants", parents=[common],
                       help="chord-arc constants of a polygonal curve")
    p.add_argument("--curve", default="", metavar="PATH")
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
    p.add_argument("--n-max", type=int,
                   help=f"highest coefficient index of thm5, 1 to "
                        f"{MAX_COEFFICIENTS}")
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
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("gallery", parents=[common],
                       help="list built-in map names")
    p.set_defaults(run=cmd_gallery)
    return parser


# one parser per process, built at import: its handlers are the
# functions defined above, never a wrapper a profiler installs later
# (and would leave behind in a parser built while it was installed);
# parse_args builds a fresh namespace each call
_PARSER = build_parser()


def main(argv=None):
    try:
        ns = _PARSER.parse_args(argv)
        # refused before any map is built: the payload could not be written
        out_dir = os.path.dirname(ns.out)
        if out_dir and not os.path.isdir(out_dir):
            raise ValidationError(f"--out directory {out_dir} does not exist")
        # validated here, whichever command the options reach
        cfg = QuadratureConfig(abs_tol=ns.abs_tol, rel_tol=ns.rel_tol,
                               theta_grid=ns.theta_grid, boundary_radius=ns.rb)
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
