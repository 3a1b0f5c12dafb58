"""End-to-end command-line behavior: payloads, determinism, exit codes."""

import csv
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest

import harmonicdisk
from harmonicdisk import ArcSet, theorems
from harmonicdisk.cli import CHECKS, _flag, build_parser, main
from harmonicdisk.config import (DEFAULT_CONFIG, QuadratureConfig,
                                 effective_boundary_radius)
from harmonicdisk.gallery import gallery_map, gallery_names
from harmonicdisk.reporting import (fmt_float, json_table, report_rows,
                                    REPORT_COLUMNS)

IDENT_CROSSCUT_LEN = 2.0943927929925036  # FROZEN, rho=1 about zeta0=1


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_gallery_lists_names(capsys):
    code, out, _ = run_cli(capsys, "gallery")
    assert code == 0
    names = out.splitlines()
    assert "identity" in names
    assert len(names) == 5


def test_gallery_refuses_out(capsys, tmp_path):
    # gallery writes no payload, so --out is refused, not ignored
    out_path = str(tmp_path / "g.csv")
    code, out, err = run_cli(capsys, "gallery", "--out", out_path,
                             "--format", "json")
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == (
        f"error: unrecognized arguments: --out {out_path} --format json")
    assert list(tmp_path.iterdir()) == []


def test_eval_identity(capsys):
    code, out, _ = run_cli(capsys, "eval", "--spec", "identity",
                           "--z", "0.25,0", "--z", "0,0.5")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 2
    assert float(rows[0]["f_re"]) == 0.25
    assert float(rows[0]["op_norm"]) == 1.0
    assert float(rows[0]["jacobian"]) == 1.0
    assert float(rows[0]["omega_abs"]) == 0.0
    assert float(rows[1]["f_im"]) == 0.5


def test_eval_z_file_and_json_format(capsys, tmp_path):
    zf = tmp_path / "probes.txt"
    zf.write_text("# probes\n0.1,0.2\n\n0.3,0\n")
    code, out, _ = run_cli(capsys, "eval", "--spec", "affine:1,0.5",
                           "--z-file", str(zf), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 2
    # f(0.3) = 0.3 + 0.15
    assert float(payload[1]["f_re"]) == pytest.approx(0.45)


def test_eval_requires_probes_and_interior(capsys):
    code, _, err = run_cli(capsys, "eval", "--spec", "identity")
    assert code == 1
    assert "error:" in err
    code, _, err = run_cli(capsys, "eval", "--spec", "identity",
                           "--z", "2,0")
    assert code == 1


def test_length_level(capsys):
    code, out, _ = run_cli(capsys, "length", "--spec", "identity",
                           "--which", "level", "--r", "0.5")
    assert code == 0
    rows = parse_csv(out)
    assert float(rows[0]["length"]) == pytest.approx(math.pi, abs=1e-10)


def test_length_crosscut_frozen_value(capsys):
    code, out, _ = run_cli(capsys, "length", "--spec", "identity",
                           "--which", "crosscut", "--zeta0", "1,0",
                           "--rho", "1.0")
    assert code == 0
    rows = parse_csv(out)
    assert float(rows[0]["length"]) == pytest.approx(IDENT_CROSSCUT_LEN,
                                                     abs=1e-9)


@pytest.mark.parametrize("command", [("verify", "thm1"),
                                     ("length", "--which", "boundary")])
def test_arc_and_measure_together_exit_1(capsys, command):
    argv = (*command, "--spec", "identity")
    for alone in (("--arc", "0:1"), ("--measure", "2")):
        assert run_cli(capsys, *argv, *alone)[0] == 0
    code, out, err = run_cli(capsys, *argv, "--arc", "0:1", "--measure", "2")
    assert (code, out) == (1, "")
    assert err == "error: --arc and --measure exclude each other\n"


def test_length_boundary_measure(capsys):
    code, out, _ = run_cli(capsys, "length", "--spec", "identity",
                           "--which", "boundary", "--measure", "1.5707963")
    assert code == 0
    rows = parse_csv(out)
    want = (1.0 - 1e-6) * 1.5707963
    assert float(rows[0]["length"]) == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("spec,rb,want", [
    ("identity", None, 1.0 - 1e-6),
    ("identity", 0.95, 0.95),
    ("poisson:phi=t+0.2*sin(t)", None, 0.998),
])
def test_length_boundary_r_is_the_effective_radius(capsys, spec, rb, want):
    options = () if rb is None else ("--rb", str(rb))
    code, out, _ = run_cli(capsys, "length", "--spec", spec, "--which",
                           "boundary", *options)
    assert code == 0
    cfg = DEFAULT_CONFIG if rb is None else QuadratureConfig(
        boundary_radius=rb)
    got = parse_csv(out)[0]["r"]
    assert got == fmt_float(effective_boundary_radius(
        cfg, gallery_map(spec).max_radius))
    assert float(got) == want


def test_length_radial(capsys):
    code, out, _ = run_cli(capsys, "length", "--spec", "affine:1,0.5",
                           "--which", "radial", "--theta", "0", "--r", "1.0")
    assert code == 0
    rows = parse_csv(out)
    assert float(rows[0]["length"]) == pytest.approx(1.5, abs=1e-10)


def test_length_radial_default_radius_is_the_derivative_radius(capsys):
    # the whole radius, clamped where the Poisson derivatives stop
    for spec, r in (("identity", "1"), ("poisson:phi=t+0.2*sin(t)",
                                        fmt_float(0.998))):
        code, out, _ = run_cli(capsys, "length", "--spec", spec,
                               "--which", "radial")
        assert code == 0
        assert parse_csv(out)[0]["r"] == r


def test_area_identity(capsys):
    code, out, _ = run_cli(capsys, "area", "--spec", "identity",
                           "--r", "0.9")
    assert code == 0
    rows = parse_csv(out)
    assert float(rows[0]["area"]) == pytest.approx(math.pi * 0.81, abs=1e-9)
    assert float(rows[0]["agreement"]) < 1e-8


def test_coeffs_poly(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--spec", "poly:z+0.3*zbar^2",
                           "--n-max", "3")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 4
    assert float(rows[1]["a_re"]) == pytest.approx(1.0, abs=1e-12)
    assert float(rows[2]["b_re"]) == pytest.approx(0.3, abs=1e-12)


def test_constants_square_file(capsys, tmp_path):
    cf = tmp_path / "square.txt"
    cf.write_text("1 1\n-1 1\n-1 -1\n1 -1\n")
    code, out, _ = run_cli(capsys, "constants", "--curve", str(cf),
                           "--point-pairs", "4")
    assert code == 0
    rows = parse_csv(out)
    assert float(rows[0]["lavrentiev"]) == pytest.approx(math.sqrt(2.0))
    assert float(rows[0]["quasicircle"]) == pytest.approx(1.0)
    code, _, err = run_cli(capsys, "constants")
    assert code == 1


def test_constants_takes_its_curve_only_from_the_flag(capsys, tmp_path):
    # a positional file next to --curve was once read in place of the
    # flag's, silently
    cf = tmp_path / "square.txt"
    cf.write_text("1 1\n-1 1\n-1 -1\n1 -1\n")
    for argv in ((str(cf),), (str(cf), "--curve", str(cf))):
        code, out, err = run_cli(capsys, "constants", *argv,
                                 "--point-pairs", "4")
        assert code == 1
        assert out == ""
        errors = [line for line in err.splitlines()
                  if line.startswith("error:")]
        assert errors == [f"error: unrecognized arguments: {cf}"]


@pytest.mark.parametrize("pairs", ["0", "4097"])
def test_constants_point_pairs_range_exits_1(capsys, tmp_path, pairs):
    cf = tmp_path / "square.txt"
    cf.write_text("1 1\n-1 1\n-1 -1\n1 -1\n")
    code, out, err = run_cli(capsys, "constants", "--curve", str(cf),
                             "--point-pairs", pairs)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: point_pairs must be 1 to 4096, got {pairs}")


@pytest.mark.parametrize("option,value,cap", [
    ("pairs", "0", 2096128), ("pairs", "2096129", 2096128),
    ("centers", "0", 4097), ("centers", "4098", 4097),
    ("radii", "0", 14), ("radii", "15", 14)])
def test_constants_probe_counts_range_exits_1(capsys, tmp_path, option,
                                              value, cap):
    cf = tmp_path / "square.txt"
    cf.write_text("1 1\n-1 1\n-1 -1\n1 -1\n")
    code, out, err = run_cli(capsys, "constants", "--curve", str(cf),
                             f"--{option}", value)
    assert code == 1
    assert out == ""
    assert err == f"error: {option} must be 1 to {cap}, got {value}\n"


def test_verify_prop1_identity(capsys):
    code, out, _ = run_cli(capsys, "verify", "prop1", "--spec", "identity",
                           "--radii", "0.2,0.5,0.8")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 7
    assert all(r["holds"] == "true" for r in rows)
    assert rows[0]["name"] == "prop1_lower"


def test_verify_exit_2_on_violation(capsys):
    # non-onto self-map honestly fails the lower distortion bound
    code, out, _ = run_cli(capsys, "verify", "selfmap",
                           "--spec", "scaled:0.5", "--probes", "32")
    assert code == 2
    rows = parse_csv(out)
    holds = {r["name"]: r["holds"] for r in rows}
    assert holds["selfmap_lower"] == "false"
    assert holds["selfmap_upper"] == "true"


def test_verify_thm2_tiny_radius_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm2", "--spec", "identity",
                           "--m-lav", str(0.5 * math.pi),
                           "--r-list", "0.05")
    assert code == 2
    rows = parse_csv(out)
    assert rows[0]["name"] == "thm2_chain_damped"
    assert rows[0]["holds"] == "false"
    assert rows[1]["holds"] == "true"


def test_verify_schwarz_out_files(capsys, tmp_path):
    out_path = tmp_path / "base.csv"
    code, out1, _ = run_cli(capsys, "verify", "schwarz", "--spec",
                            "identity", "--r-grid", "16",
                            "--out", str(out_path))
    assert code == 0
    assert out_path.exists()
    assert (tmp_path / "base.json").exists()
    assert (tmp_path / "base.meta.json").exists()
    payload = json.loads((tmp_path / "base.json").read_text())
    assert payload[0]["name"] == "schwarz_radial"
    assert payload[0]["holds"] is True
    first_bytes = out_path.read_bytes()
    # rerun: payload bytes identical (meta sidecar may differ)
    code, out2, _ = run_cli(capsys, "verify", "schwarz", "--spec",
                            "identity", "--r-grid", "16",
                            "--out", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == first_bytes
    assert out1 == out2


def test_verify_json_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm5", "--spec", "scaled:2.0",
                           "--n-max", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["name"] == "thm5_coeff"
    assert payload[0]["params"]["M_rad"] == pytest.approx(2.0, abs=1e-8)


def test_usage_errors_exit_1(capsys):
    code, _, err = run_cli(capsys, "verify", "nosuchtheorem",
                           "--spec", "identity")
    assert code == 1
    code, _, err = run_cli(capsys, "verify", "prop1")
    assert code == 1
    assert "spec" in err
    code, _, err = run_cli(capsys, "length", "--spec", "identity",
                           "--which", "level", "--r", "1.5")
    assert code == 1
    code, _, err = run_cli(capsys, "eval", "--spec", "nosuchmap",
                           "--z", "0,0")
    assert code == 1


def test_numerical_failure_exit_3(capsys):
    code, _, err = run_cli(capsys, "length", "--spec", "poisson:phi=t",
                           "--which", "level", "--r", "0.999")
    assert code == 3
    assert "numerical failure" in err


def _spec_file(tmp_path, spec):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(spec))
    return str(path)


# near the largest series map accepted: J = |f_z|^2 = 1.69e308 is
# finite, but its integral over a region of area > 1.07 overflows (the
# disk r = 0.9 and the lens r = 1 about 1 are larger)
OVERFLOWING_AREA_SPEC = {"kind": "series", "analytic": [0, 1.3e154]}


@pytest.mark.parametrize("argv", [
    ("area", "--r", "0.9"),
    ("area", "--r", "1", "--center", "1,0"),
    ("verify", "thm2", "--r-list", "1"),
])
def test_overflowing_jacobian_exits_3(capsys, tmp_path, argv):
    # the doubled-rule checks see inf or NaN
    spec = _spec_file(tmp_path, OVERFLOWING_AREA_SPEC)
    code, out, err = run_cli(capsys, *argv, "--spec", spec)
    assert code == 3
    assert out == ""
    assert "numerical failure" in err


@pytest.mark.parametrize("argv", [
    ("area", "--r", "0.9"),
    ("verify", "thm2", "--r-list", "1"),
])
def test_overflow_prints_only_the_failure_line(tmp_path, argv):
    # numpy's overflow warnings (with library source lines) stay off
    # stderr; out of process, as pytest would capture them
    spec = _spec_file(tmp_path, OVERFLOWING_AREA_SPEC)
    proc = _run_module(*argv, "--spec", spec)
    assert proc.returncode == 3
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: ")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_payload_cell_exits_3(tmp_path, fmt):
    # f = z^2 has f_z = 0 at the origin, so its omega_abs cell is inf
    spec = _spec_file(tmp_path, {"kind": "series", "analytic": [0, 0, 1]})
    proc = _run_module("eval", "--spec", spec, "--z", "0,0",
                       "--format", fmt)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "numerical failure: non-finite value inf in a payload cell"]


def test_coefficient_overflow_exits_3(capsys):
    # rho^{1-n} overflows double at n = 128, rho = 0.001: the poly map's
    # node-halving disagreement is NaN
    argv = ("--n-max", "128", "--rho", "0.001")
    code, out, err = run_cli(capsys, "coeffs", "--spec", "poly:z+0.3*zbar^2",
                             *argv)
    assert code == 3
    assert out == ""
    assert "numerical failure" in err
    # the identity's f_z is constant: no round-off to amplify, exact zeros
    code, out, err = run_cli(capsys, "coeffs", "--spec", "identity", *argv)
    assert code == 0
    assert out.splitlines() == (["n,a_re,a_im,b_re,b_im", "0,0,0,0,0",
                                 "1,1,0,0,0"]
                                + [f"{n},0,0,0,0" for n in range(2, 129)])


def test_overflowing_series_spec_exits_1(capsys, tmp_path):
    spec = _spec_file(tmp_path, {"kind": "series",
                                 "analytic": [0, 1e308, 1e308]})
    for argv in (("eval", "--z", "0.5,0"), ("coeffs",)):
        code, out, err = run_cli(capsys, *argv, "--spec", spec)
        assert code == 1
        assert out == ""
        assert "error:" in err


def test_explicit_zero_is_not_replaced_by_default(capsys):
    code, _, err = run_cli(capsys, "verify", "selfmap", "--spec",
                           "scaled:0.5", "--probes", "0")
    assert code == 1
    assert "probe" in err
    code, _, err = run_cli(capsys, "verify", "prop2", "--spec", "identity",
                           "--r0", "0")
    assert code == 1
    assert "r0" in err


@pytest.mark.parametrize("argv", [
    ("eval", "--spec", "identity", "--z", "nan,0"),
    ("area", "--spec", "identity", "--center", "nan,0", "--r", "0.5"),
    ("eval", "--spec", "affine:1,nan", "--z", "0,0"),
    ("verify", "prop1", "--spec", "identity", "--radii", "0.5,nan"),
    ("verify", "thm1", "--spec", "identity", "--K", "inf"),
    ("verify", "thm1", "--spec", "identity", "--abs-tol", "nan"),
])
def test_non_finite_input_exits_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "error:" in err


_SQUARE = "1 1\n-1 1\n-1 -1\n1 -1\n"


@pytest.mark.parametrize("argv", [
    ("verify", "thm2", "--r-list", "0.5", "--m-lav", "-1"),
    ("verify", "thm2", "--r-list", "0.5", "--m-lav", "0.5"),
    ("verify", "prop1", "--K", "0.5"),
    ("verify", "thm2", "--r-list", ""),
    ("verify", "thm4", "--r-list", ""),
    ("verify", "thm4", "--threshold", "0"),
    ("verify", "thm4", "--threshold", "-1"),
    ("verify", "selfmap", "--seed", "-1"),
    ("constants", "--curve", "{square}", "--seed", "-1"),
    ("constants", "--curve", "{missing}"),
    ("constants", "--curve", "{tmp}"),
    ("constants", "--curve", "{binary}"),
    ("eval", "--z-file", "{missing}"),
    ("eval", "--z-file", "{tmp}"),
    ("eval", "--z-file", "{binary}"),
    ("verify", "schwarz", "--out", "{missing}/run"),
    ("eval", "--z", "0.1,0", "--out", "{missing}/x.csv"),
], ids=["m-lav-negative", "m-lav-below-1", "K-below-1", "thm2-no-radii",
        "thm4-no-radii", "thm4-threshold-zero", "thm4-threshold-negative",
        "selfmap-seed", "constants-seed", "curve-missing",
        "curve-directory", "curve-not-text", "z-file-missing",
        "z-file-directory", "z-file-not-text",
        "out-directory-missing", "eval-out-directory-missing"])
def test_out_of_range_input_exits_1_with_one_error_line(capsys, tmp_path,
                                                        argv):
    (tmp_path / "square.txt").write_text(_SQUARE)
    (tmp_path / "binary.txt").write_bytes(b"\xff\xfe 1\n")
    paths = {"tmp": tmp_path, "square": tmp_path / "square.txt",
             "missing": tmp_path / "missing.txt",
             "binary": tmp_path / "binary.txt"}
    argv = [arg.format(**paths) for arg in argv]
    if argv[0] != "constants":
        argv += ["--spec", "scaled:0.5"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("flag,value,message", [
    ("--theta-grid", "0", "theta_grid must be 8 to 8192, got 0"),
    ("--rb", "1.5", "boundary_radius must be in (0,1), got 1.5")],
    ids=["--theta-grid-0", "--rb-1.5"])
def test_quadrature_config_error_exits_1(capsys, flag, value, message):
    # refused where the options enter, before the (unknown) map is built
    for argv in (("verify", "thm1"), ("length", "--which", "level"),
                 ("area",), ("coeffs",)):
        code, out, err = run_cli(capsys, *argv, "--spec", "nosuchmap",
                                 flag, value)
        assert (code, out, err) == (1, "", f"error: {message}\n"), argv


@pytest.mark.parametrize("spec", [
    {"kind": "affine", "a": [1e308, 0], "b": [1e307, 0]},
    {"kind": "series", "analytic": [0, 1e200]},
    {"kind": "poisson", "phi": "t", "scale": 1e200},
    {"kind": "poisson", "phi": "t", "kernel_tol": math.inf},
], ids=["affine-jacobian", "series-jacobian", "poisson-scale",
        "poisson-kernel-tol"])
def test_overflowing_map_spec_exits_1(capsys, tmp_path, spec):
    # refused when built, rather than printing inf or nan or failing later
    code, out, err = run_cli(capsys, "eval", "--spec",
                             _spec_file(tmp_path, spec), "--z", "0.1,0")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("spec,message", [
    ({"kind": "poisson", "phi": "t", "kernel_tol": "abc"},
     "poisson kernel_tol must be a number"),
    ({"kind": "poisson", "phi": "t", "kernel_tol": [1]},
     "poisson kernel_tol must be a number"),
    ({"kind": "poisson", "phi": "t", "kernel_tol": True},
     "poisson kernel_tol must be a number"),
    ({"kind": "poisson", "phi": "t", "scale": True},
     "poisson scale must be a number"),
    ({"kind": "series", "analytic": [0, True]},
     "analytic coefficient must be a number or a [re, im] pair"),
    ({"kind": "affine", "b": [0.5, False]},
     "b must be a number or a [re, im] pair"),
    ({"kind": "series", "analytic": [0, 1], "sense_preserving": "false"},
     "series spec has no key 'sense_preserving'; its keys are analytic, "
     "antianalytic"),
    ({"kind": "series", "analytic": [0, 10 ** 400]},
     "analytic coefficient must be a number or a [re, im] pair"),
    ({"kind": "poisson", "phi": "t", "scale": 10 ** 400},
     "poisson scale must be a number"),
    ({"kind": "series", "analytic": 5},
     "series analytic must be a list of coefficients"),
    ({"kind": "series", "analytic": [[0, 0], [1, 0]], "antianalytic": 0.3},
     "series antianalytic must be a list of coefficients"),
], ids=["kernel-tol-string", "kernel-tol-list", "kernel-tol-bool",
        "scale-bool", "coefficient-bool", "affine-bool",
        "sense-preserving-string", "coefficient-past-float-range",
        "scale-past-float-range", "analytic-number",
        "antianalytic-number"])
def test_map_spec_of_the_wrong_type_exits_1(capsys, tmp_path, spec,
                                            message):
    # a JSON bool is no number, an integer past float range no float and
    # a number no coefficient list, and the retired series key is refused
    # like any unknown one: one error line
    code, out, err = run_cli(capsys, "eval", "--spec",
                             _spec_file(tmp_path, spec), "--z", "0.1,0")
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("spec,message", [
    ({"kind": "series", "analytic": [[0, 0], [1, 0]],
      "anti_analytic": [[0.3, 0]]},
     "series spec has no key 'anti_analytic'; its keys are analytic, "
     "antianalytic"),
    ({"kind": "affine", "a": [1, 0], "B": [0.5, 0]},
     "affine spec has no key 'B'; its keys are c0, a, b"),
    ({"kind": "poisson", "phi": "t+0.2*sin(t)", "scal": 3},
     "poisson spec has no key 'scal'; its keys are phi, scale, kernel_tol"),
    ({"kind": "gallery", "name": "identity", "phi": "t"},
     "gallery spec has no key 'phi'; its keys are name"),
], ids=["series", "affine", "poisson", "gallery"])
def test_map_spec_key_its_kind_does_not_read_exits_1(capsys, tmp_path, spec,
                                                     message):
    # a misspelt key would otherwise build another map and exit 0
    code, out, err = run_cli(capsys, "eval", "--spec",
                             _spec_file(tmp_path, spec), "--z", "0.5,0")
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_eval_z_file_names_the_bad_line(capsys, tmp_path):
    zf = tmp_path / "z.txt"
    zf.write_text("# probes\n0.1,0.2\n\nabc  # typo\n")
    code, out, err = run_cli(capsys, "eval", "--spec", "identity",
                             "--z-file", str(zf))
    assert (code, out) == (1, "")
    assert err == f"error: {zf}:4: cannot parse complex number from 'abc'\n"


def test_eval_z_file_names_the_line_outside_the_disk(capsys, tmp_path):
    zf = tmp_path / "z.txt"
    zf.write_text("0.1,0.2\n1.2,0\n")
    code, out, err = run_cli(capsys, "eval", "--spec", "identity",
                             "--z-file", str(zf))
    assert (code, out) == (1, "")
    assert err == f"error: {zf}:2: |z| must be in [0,1), got 1.2\n"
    # a --z probe has no line to name
    code, out, err = run_cli(capsys, "eval", "--spec", "identity",
                             "--z", "1.2,0")
    assert (code, out, err) == (1, "",
                                "error: |z| must be in [0,1), got 1.2\n")


def _run_python(*argv):
    src = os.path.dirname(os.path.dirname(harmonicdisk.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True)


def _run_module(*argv):
    return _run_python("-m", "harmonicdisk.cli", *argv)


def test_cli_runs_leave_out_scipy(tmp_path):
    # the connectivity raster runs on numpy alone and the sidecar records
    # no scipy version: the U's constants, whose pairs detour round the
    # notch through component ids, and a verify run with --out
    curve = tmp_path / "u.txt"
    curve.write_text("0 0\n3 0\n3 3\n2 3\n2 1\n1 1\n1 3\n0 3\n")
    base = tmp_path / "run"
    out = _run_python(
        "-c", "import sys; from harmonicdisk.cli import main; "
        f"main(['constants', '--curve', {str(curve)!r}]); "
        "main(['verify', 'thm2', '--spec', 'identity', '--r-list', '0.5', "
        f"'--out', {str(base)!r}]); "
        "print('scipy' in sys.modules)").stdout
    lines = out.strip().splitlines()
    assert lines[0].startswith("lavrentiev,quasicircle,")
    assert lines[-1] == "False"
    assert "scipy" not in json.loads((tmp_path / "run.meta.json").read_text())


def test_thm4_leaves_out_scipy_spatial():
    # the boundary distance is a numpy search; importing scipy.spatial
    # would cost more than the search
    out = _run_python(
        "-c", "import sys; from harmonicdisk.cli import main; "
        "main(['verify', 'thm4', '--spec', 'affine:1,0.5', '--r-list', "
        "'0.2', '--boundary-samples', '64']); "
        "print('scipy.spatial' in sys.modules)").stdout
    assert out.strip().splitlines()[-1] == "False"


@pytest.mark.parametrize("argv", [
    ("verify", "schwarz", "--spec", "identity", "--r-grid", "4097"),
    ("verify", "selfmap", "--spec", "identity", "--probes", str(2 ** 20 + 1)),
    ("verify", "prop1", "--spec", "identity", "--theta-grid", "8193"),
    ("verify", "thm5", "--spec", "identity", "--n-max", "4097"),
    ("coeffs", "--spec", "identity", "--n-max", "4097"),
    ("coeffs", "--spec", "identity", "--n-max", "0"),
    *(("verify", check, flag, ",".join(["0.5"] * 4097), "--spec", "identity")
      for check, flag in (("prop1", "--radii"), ("thm2", "--r-list"),
                          ("thm4", "--r-list"))),
])
def test_count_caps_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert re.fullmatch(r"error: \w+ must be \d+ to \d+, got \d+\n", err)


@pytest.mark.parametrize("argv,message", [
    (("thm2", "--m-lav", "1e308"),
     "M_lav must be in [1,1.34078079299e+154], got 1e+308"),
    (("thm4", "--K", "1e308"), "K must be in [1,1.41095077353e+102], "
                               "got 1e+308"),
    (("thm2", "--K", "1e308"), "K must be in [1,4.49423283716e+307], "
                               "got 1e+308"),
], ids=["thm2-m-lav", "thm4-K", "thm2-K"])
def test_a_constant_past_its_formula_exits_1(capsys, argv, message):
    # each once ended in an OverflowError traceback or, for thm2's K, in
    # exit 3 on an infinite payload cell
    code, out, err = run_cli(capsys, "verify", *argv, "--spec", "identity")
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("K", ["3e307", "4.4e307"])
def test_thm2_K_past_its_area_product_exits_1(capsys, K):
    # below the map-independent cap DBL_MAX / 4, but K pi A overflows
    # at the identity's area A = pi; once exit 3 on an infinite cell
    code, out, err = run_cli(capsys, "verify", "thm2", "--spec", "identity",
                             "--K", K, "--r-list", "0.5")
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: K = {float(K)} overflows K pi A at the "
                          "image area A = 3.14158")


def test_a_zero_of_f_z_inside_the_disk_exits_3(capsys, tmp_path):
    # f = z + z^2 has J = |1 + 2 z|^2 > 0 at every probe, but f_z winds
    # once about 0 on |z| = 0.99: it vanishes at -1/2
    spec = _spec_file(tmp_path, {"kind": "series",
                                 "analytic": [[0, 0], [1, 0], [1, 0]]})
    code, out, err = run_cli(capsys, "verify", "prop1", "--spec", spec)
    assert (code, out) == (3, "")
    assert err.splitlines() == [
        "numerical failure: f_z has winding number 1 about 0 on |z| = 0.99:"
        " h' has 1 zero(s) inside, so J <= 0 there"]


@pytest.mark.parametrize("argv,value", [
    (("eval", "--spec", "poly:z+0.3*zbar^2", "--z"), "-0.9,0.1"),
    (("area", "--spec", "identity", "--r", "0.5", "--center"), "-1,0"),
    (("area", "--spec", "identity", "--r", "0.5", "--center"), "-.5,-0.5"),
    (("length", "--which", "crosscut", "--spec", "identity", "--zeta0"),
     "-1,0"),
    (("verify", "thm2", "--spec", "identity", "--r-list", "0.5",
      "--m-lav", "1", "--zeta0"), "-1,0"),
])
def test_negative_complex_value_in_both_forms(capsys, argv, value):
    # "--z -0.9,0.1" is the value -0.9,0.1, as "--z=-0.9,0.1" is
    *head, flag = argv
    joined = run_cli(capsys, *head, f"{flag}={value}")
    assert joined[0] in (0, 2) and joined[2] == ""
    assert run_cli(capsys, *head, flag, value) == joined


def test_thm4_radii_past_the_shared_table_cap_run(capsys):
    # 0.003 and 0.6 are one table of 131 nodes, within the ray-table
    # cap at 8192 rays, and the check runs (its r = 0.003 row fails,
    # exit 2)
    code, out, err = run_cli(capsys, "verify", "thm4", "--spec", "identity",
                             "--theta-grid", "8192", "--r-list", "0.003,0.6")
    assert (code, err) == (2, "")
    assert [row["holds"] for row in parse_csv(out)] == ["false", "true",
                                                        "true"]


def test_boundary_samples_cap_exits_1(capsys):
    code, out, err = run_cli(capsys, "verify", "thm4", "--spec", "identity",
                             "--boundary-samples", str(2 ** 20 + 1))
    assert code == 1
    assert out == ""
    assert err == "error: boundary_samples must be 8 to 1048576, got 1048577\n"


@pytest.mark.parametrize("argv,options", [
    (("prop1", "--r0", "0.3"), "--K, --radii"),
    (("thm5", "--r-list", "0.1"), "--K, --n-max, --rho"),
    (("prop2", "--K", "2"), "--r0"),
])
def test_verify_refuses_an_option_the_check_does_not_take(capsys, argv,
                                                          options):
    code, out, err = run_cli(capsys, "verify", *argv, "--spec", "identity")
    assert code == 1
    assert out == ""
    assert err.endswith(f"\nerror: unrecognized arguments: {argv[1]} "
                        f"{argv[2]}\n")
    # its --help lists the shared options, then its own
    own = _help_options(capsys, "verify", argv[0])[1 + len(SHARED_OPTIONS):]
    assert ", ".join(own) == options


# a command line each command accepts, and the value given to each
# option when it is the foreign one
ACCEPTED = {
    "gallery": ("gallery",),
    "eval": ("eval", "--spec", "identity", "--z", "0.1,0"),
    "constants": ("constants", "--curve", "{square}", "--point-pairs", "4"),
    "length": ("length", "--spec", "identity", "--which", "level"),
    "area": ("area", "--spec", "identity", "--r", "0.5"),
    "coeffs": ("coeffs", "--spec", "identity", "--n-max", "2"),
    **{check: ("verify", check, "--spec", "identity") for check in CHECKS
       if check != "selfmap"},
}
VALUES = {"--out": "{out}/x", "--format": "json", "--spec": "identity",
          "--seed": "3", "--abs-tol": "1e-9", "--rel-tol": "1e-8",
          "--theta-grid": "64", "--rb": "0.9"}
QUADRATURE = ["--abs-tol", "--rel-tol", "--theta-grid", "--rb"]
FOREIGN = ([("gallery", option) for option in VALUES]
           + [("eval", option) for option in ["--seed", *QUADRATURE]]
           + [("constants", option) for option in ["--spec", *QUADRATURE]]
           + [(command, "--seed") for command in ACCEPTED
              if command not in ("gallery", "eval", "constants")])


@pytest.mark.parametrize("command,option", FOREIGN)
def test_an_option_a_command_does_not_read_exits_1(capsys, tmp_path,
                                                   command, option):
    # argparse refuses it before any work, and no payload is written
    (tmp_path / "out").mkdir()
    (tmp_path / "square.txt").write_text(_SQUARE)
    paths = {"out": tmp_path / "out", "square": tmp_path / "square.txt"}
    value = VALUES[option].format(**paths)
    argv = [arg.format(**paths) for arg in ACCEPTED[command]]
    if option != "--out" and command != "gallery":
        argv += ["--out", str(tmp_path / "out" / "x")]
    code, out, err = run_cli(capsys, *argv, option, value)
    assert (code, out) == (1, "")
    assert err.endswith(f"\nerror: unrecognized arguments: {option} "
                        f"{value}\n")
    assert list((tmp_path / "out").iterdir()) == []


def test_each_command_takes_its_option_groups(capsys):
    # the shared groups come first in a command's --help, then its own
    payload = ["--out", "--format"]
    assert _help_options(capsys, "gallery") == ["--help"]
    assert _help_options(capsys, "eval")[:4] == ["--help", *payload,
                                                 "--spec"]
    assert _help_options(capsys, "constants")[:4] == ["--help", *payload,
                                                      "--curve"]
    for command in ("length", "area", "coeffs"):
        assert _help_options(capsys, command)[:8] == ["--help",
                                                      *SHARED_OPTIONS]
    accepting_seed = [command for command in
                      ("eval", "length", "area", "coeffs", "constants",
                       "gallery") if "--seed" in _help_options(capsys,
                                                              command)]
    accepting_seed += [check for check in CHECKS
                       if "--seed" in _help_options(capsys, "verify", check)]
    assert accepting_seed == ["constants", "selfmap"]


LENGTH_VALUES = {"--r": "0.5", "--theta": "0.1", "--arc": "0:1",
                 "--measure": "1", "--zeta0": "1,0", "--rho": "0.5"}
LENGTH_READS = {"level": {"--r"}, "radial": {"--r", "--theta"},
                "boundary": {"--arc", "--measure"},
                "crosscut": {"--zeta0", "--rho"}}


@pytest.mark.parametrize("which,option", [
    (which, option) for which, reads in LENGTH_READS.items()
    for option in LENGTH_VALUES if option not in reads])
def test_length_refuses_the_options_of_other_kinds(capsys, which, option):
    code, out, err = run_cli(capsys, "length", "--spec", "nosuchmap",
                             "--which", which, option, LENGTH_VALUES[option])
    assert (code, out) == (1, "")
    assert err == f"error: length --which {which} does not take {option}\n"


def test_sidecar_records_the_argv_main_was_given(capsys, tmp_path,
                                                 monkeypatch):
    # an in-process caller's argv, not that of the process it runs in
    monkeypatch.setattr(sys, "argv", ["harmonicdisk", "--host-flag"])
    argv = ["area", "--spec", "identity", "--r", "0.5",
            "--out", str(tmp_path / "run")]
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    meta = json.loads((tmp_path / "run.meta.json").read_text())
    assert meta["argv"] == argv


def test_verify_thm2_takes_boundary_samples(capsys):
    # the Lavrentiev polygon of thm2 has --boundary-samples vertices; the
    # count is refused even when --m-lav means no polygon is built
    for m_lav in ((), ("--m-lav", "2")):
        for samples in ("7", str(2 ** 20 + 1)):
            code, out, err = run_cli(capsys, "verify", "thm2", "--spec",
                                     "identity", "--r-list", "0.5",
                                     "--boundary-samples", samples, *m_lav)
            assert code == 1
            assert out == ""
            assert err == (f"error: boundary_samples must be 8 to 1048576, "
                           f"got {samples}\n")
    m_lav = []
    for extra in ((), ("--boundary-samples", "16")):
        code, out, _ = run_cli(capsys, "verify", "thm2", "--spec",
                               "identity", "--r-list", "0.5", "--format",
                               "json", *extra)
        assert code == 0
        m_lav.append(json.loads(out)[0]["params"]["M_lav"])
    assert m_lav[0] != m_lav[1]


@pytest.mark.parametrize("out", ["a.txt", "a.csv", "a.json", "a"])
def test_verify_out_files_share_one_base(capsys, tmp_path, out):
    (tmp_path / "outq").mkdir()
    code, text, _ = run_cli(capsys, "verify", "schwarz", "--spec",
                            "identity", "--r-grid", "16",
                            "--out", str(tmp_path / "outq" / out))
    assert code == 0
    assert sorted(p.name for p in (tmp_path / "outq").iterdir()) == [
        "a.csv", "a.json", "a.meta.json"]
    assert (tmp_path / "outq" / "a.csv").read_text() == text


@pytest.mark.parametrize("argv", [
    ("verify", "thm5", "--spec", "identity", "--n-max", "2"),
    ("eval", "--spec", "identity", "--z", "0.1,0"),
])
def test_out_that_cannot_be_written_exits_1(capsys, tmp_path, argv):
    # a directory where the payload file should go: open() fails
    (tmp_path / "run.csv").mkdir()
    code, out, err = run_cli(capsys, *argv, "--out",
                             str(tmp_path / "run.csv"))
    assert code == 1
    assert out  # the payload was computed and printed first
    assert err.startswith("error: cannot write --out ")
    assert len(err.splitlines()) == 1


def test_argmax_fields_take_the_first_tied_grid_point(capsys):
    # identity: every ray of prop2 ties to within round-off, and so does
    # every radius of schwarz on affine:1,0.5
    code, out, _ = run_cli(capsys, "verify", "prop2", "--spec", "identity",
                           "--r0", "0.999", "--format", "json")
    assert code == 0
    params = json.loads(out)[0]["params"]
    assert params["theta_star"] == 0.0
    assert params["r_star"] == 1.0 / params["r_grid"]
    code, out, _ = run_cli(capsys, "verify", "schwarz", "--spec",
                           "affine:1,0.5", "--format", "json")
    assert code == 0
    params = json.loads(out)[0]["params"]
    assert params["r_worst"] == pytest.approx(params["r_top"] / 64,
                                              rel=1e-15)


SHARED_OPTIONS = ["--out", "--format", "--spec", *QUADRATURE]


def _help_options(capsys, *argv):
    """The options a subcommand's --help lists, in order."""
    with pytest.raises(SystemExit):
        build_parser().parse_args([*argv, "--help"])
    options = capsys.readouterr().out.split("\noptions:\n")[1]
    return re.findall(r"^  (?:-h, )?(--[\w-]+)", options, re.M)


def test_check_registry_options_are_parameters(capsys):
    # each check's parser holds exactly the shared groups and the options
    # CHECKS declares for it, each named as a parameter of its function
    for name, (fn, options) in CHECKS.items():
        params = inspect.signature(fn).parameters
        assert set(options) <= set(params), name
        assert _help_options(capsys, "verify", name) == [
            "--help", *SHARED_OPTIONS, *map(_flag, options)], name


def test_readme_lists_each_check_with_its_options():
    # the bullet "- `name` (`function`): options; notes" of each check
    with open(os.path.join(os.path.dirname(__file__), os.pardir,
                           "README.md")) as fh:
        bullets = re.findall(
            r"^- `(\w+)` \(`\w+`\): ([^;]*?)(?=;|\n\n|\n- )", fh.read(),
            re.M)
    assert {name: re.findall(r"--[\w-]+", text) for name, text in bullets} \
        == {name: list(map(_flag, options))
            for name, (_, options) in CHECKS.items()}


def test_successive_calls_share_no_parsed_state(capsys):
    # main reuses one parser per process: options appended by one call
    # must not reach the next, which sees the defaults (r 0.5, rho 1)
    for which, given, rows in (("level", ("--r", "0.25", "--r", "0.75"),
                                ["0.25", "0.75"]),
                               ("level", (), ["0.5"]),
                               ("crosscut", ("--rho", "0.5"), ["0.5"]),
                               ("crosscut", (), ["1"])):
        code, out, _ = run_cli(capsys, "length", "--spec", "identity",
                               "--which", which, *given)
        assert code == 0
        assert [row["r"] for row in parse_csv(out)] == rows


def test_handlers_are_fixed_at_import(capsys, monkeypatch):
    # a profiler rebinds module functions while it runs; the parser's
    # handlers stay the ones it was built with, so no wrapper of a
    # profiler that has since been removed can linger in them
    def wrapped(ns, cfg):
        raise AssertionError("a rebound handler ran")

    monkeypatch.setattr(harmonicdisk.cli, "cmd_gallery", wrapped)
    code, out, _ = run_cli(capsys, "gallery")
    assert code == 0
    assert out.split() == list(gallery_names())


# each check called with no keywords; thm1 on the CLI's default arc
LIBRARY_DEFAULTS = {
    "prop1": theorems.check_prop1,
    "thm1": lambda m: theorems.thm1_bound(m, ArcSet.single(0.0, math.pi)),
    "thm2": theorems.thm2_bound,
    "thm3": theorems.thm3_carleson,
    "prop2": theorems.prop2_bound,
    "thm5": theorems.thm5_bound,
    "thm4": theorems.thm4_ratio,
    "schwarz": theorems.schwarz_radial_check,
    "selfmap": theorems.selfmap_distortion_check,
}


@pytest.mark.parametrize("name", list(CHECKS))
def test_verify_defaults_are_the_signature_defaults(capsys, name):
    code, out, _ = run_cli(capsys, "verify", name, "--spec", "identity",
                           "--format", "json")
    assert code == 0
    assert out == json_table(report_rows(LIBRARY_DEFAULTS[name](
        gallery_map("identity"))), REPORT_COLUMNS)


# one fast invocation of each payload command; {square} is a curve file
PAYLOAD_COMMANDS = {
    "eval": ("eval", "--spec", "identity", "--z", "0.1,0.2", "--z", "0,0"),
    "length": ("length", "--spec", "identity", "--which", "level"),
    "area": ("area", "--spec", "identity", "--r", "0.5"),
    "coeffs": ("coeffs", "--spec", "identity", "--n-max", "2"),
    "constants": ("constants", "--curve", "{square}", "--point-pairs", "4"),
    "verify": ("verify", "schwarz", "--spec", "identity", "--r-grid", "16"),
}


def _payload_argv(command, tmp_path):
    square = tmp_path / "square.txt"
    square.write_text(_SQUARE)
    return [arg.format(square=square) for arg in PAYLOAD_COMMANDS[command]]


@pytest.mark.parametrize("out", ["x.txt", "x", "x.csv", "x.json"])
@pytest.mark.parametrize("command", list(PAYLOAD_COMMANDS))
def test_out_writes_csv_json_and_meta(capsys, tmp_path, command, out):
    argv = _payload_argv(command, tmp_path)
    outdir = tmp_path / "outq"
    outdir.mkdir()
    for fmt in ("csv", "json"):
        code, text, _ = run_cli(capsys, *argv, "--format", fmt,
                                "--out", str(outdir / out))
        assert code == 0
        assert sorted(p.name for p in outdir.iterdir()) == [
            "x.csv", "x.json", "x.meta.json"]
        assert (outdir / f"x.{fmt}").read_text() == text
        meta = json.loads((outdir / "x.meta.json").read_text())
        assert meta["command"] == command
    # both files hold the same rows and columns
    rows = parse_csv((outdir / "x.csv").read_text())
    payload = json.loads((outdir / "x.json").read_text())
    assert [list(row) for row in rows] == [list(obj) for obj in payload]


@pytest.mark.parametrize("command", [c for c in PAYLOAD_COMMANDS
                                     if c != "verify"])
def test_json_values_are_numbers(capsys, tmp_path, command):
    argv = _payload_argv(command, tmp_path)
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    code, text, _ = run_cli(capsys, *argv)
    assert code == 0
    for obj, row in zip(json.loads(out), parse_csv(text), strict=True):
        for key, value in obj.items():
            if key in ("which", "samples"):
                assert value == row[key]
            elif value is None:  # level's param, a disk area's center
                assert (key, row[key]) in (("param", ""), ("center", ""))
            else:
                assert isinstance(value, (int, float)), (key, value)
                assert float(row[key]) == value


def test_complex_inputs_are_printed_whole(capsys):
    # area's center and crosscut's zeta0 keep their imaginary parts:
    # a+bj in CSV, {"re", "im"} in JSON
    code, out, _ = run_cli(capsys, "area", "--spec", "identity", "--r",
                           "0.5", "--center", "0,1")
    assert code == 0
    assert parse_csv(out)[0]["center"] == "0+1j"
    code, out, _ = run_cli(capsys, "area", "--spec", "identity", "--r",
                           "0.5", "--center", "0,1", "--format", "json")
    assert json.loads(out)[0]["center"] == {"re": 0.0, "im": 1.0}
    params = []
    for sign in (1, -1):
        zeta0 = complex(math.cos(2 * math.pi / 3),
                        sign * math.sin(2 * math.pi / 3))
        value = f"{zeta0.real!r},{zeta0.imag!r}"
        code, out, _ = run_cli(capsys, "length", "--spec", "identity",
                               "--which", "crosscut", "--zeta0", value,
                               "--rho", "0.5")
        assert code == 0
        params.append(parse_csv(out)[0]["param"])
        assert complex(params[-1]) == zeta0
        code, out, _ = run_cli(capsys, "length", "--spec", "identity",
                               "--which", "crosscut", "--zeta0", value,
                               "--rho", "0.5", "--format", "json")
        assert json.loads(out)[0]["param"] == {"re": zeta0.real,
                                               "im": zeta0.imag}
    assert params[0] != params[1]
