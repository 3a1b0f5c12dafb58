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
from harmonicdisk.cli import CHECKS, THEOREM_NAMES, _flag, build_parser, main
from harmonicdisk.config import (DEFAULT_CONFIG, QuadratureConfig,
                                 effective_boundary_radius)
from harmonicdisk.gallery import gallery_map
from harmonicdisk.reporting import fmt_float, reports_to_json

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
    code, out, _ = run_cli(capsys, "constants", str(cf),
                           "--point-pairs", "4")
    assert code == 0
    rows = parse_csv(out)
    assert float(rows[0]["lavrentiev"]) == pytest.approx(math.sqrt(2.0))
    assert float(rows[0]["quasicircle"]) == pytest.approx(1.0)
    # flag spelling works too
    code, out, _ = run_cli(capsys, "constants", "--curve", str(cf),
                           "--point-pairs", "4")
    assert code == 0
    code, _, err = run_cli(capsys, "constants")
    assert code == 1


@pytest.mark.parametrize("pairs", ["0", "4097"])
def test_constants_point_pairs_range_exits_1(capsys, tmp_path, pairs):
    cf = tmp_path / "square.txt"
    cf.write_text("1 1\n-1 1\n-1 -1\n1 -1\n")
    code, out, err = run_cli(capsys, "constants", str(cf),
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
    code, out, err = run_cli(capsys, "constants", str(cf), f"--{option}",
                             value)
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


def test_coefficient_overflow_exits_3(capsys):
    # rho^{1-n} overflows double at n = 128, rho = 0.001: the
    # node-halving disagreement is NaN
    code, out, err = run_cli(capsys, "coeffs", "--spec", "identity",
                             "--n-max", "128", "--rho", "0.001")
    assert code == 3
    assert out == ""
    assert "numerical failure" in err


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


@pytest.mark.parametrize("flag,value", [("--theta-grid", "0"),
                                        ("--rb", "1.5")])
def test_quadrature_config_error_exits_1(capsys, flag, value):
    # refused where the options enter, also by commands that ignore them
    for argv in (("verify", "thm1", "--spec", "identity"),
                 ("eval", "--spec", "identity", "--z", "0.1,0"),
                 ("gallery",)):
        code, _, err = run_cli(capsys, *argv, flag, value)
        assert code == 1, argv
        assert err.startswith("error:")


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


def _run_python(*argv):
    src = os.path.dirname(os.path.dirname(harmonicdisk.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True)


def _run_module(*argv):
    return _run_python("-m", "harmonicdisk.cli", *argv)


def test_cli_import_leaves_out_scipy_ndimage():
    # only the connectivity raster needs it; start-up should not pay
    out = _run_python("-c", "import sys, harmonicdisk.cli; "
                      "print('scipy.ndimage' in sys.modules)").stdout
    assert out.strip() == "False"


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
])
def test_count_caps_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert re.fullmatch(r"error: \w+ must be \d+ to \d+, got \d+\n", err)


def test_boundary_samples_cap_exits_1(capsys):
    code, out, err = run_cli(capsys, "verify", "thm4", "--spec", "identity",
                             "--boundary-samples", str(2 ** 20 + 1))
    assert code == 1
    assert out == ""
    assert err.startswith("error: boundary polygon takes at most 1048576")


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
    assert err == (f"error: verify {argv[0]} does not take {argv[1]}; "
                   f"its options are {options}\n")


def test_verify_thm2_takes_boundary_samples(capsys):
    # the Lavrentiev polygon of thm2 has --boundary-samples vertices; the
    # count is refused even when --m-lav means no polygon is built
    for m_lav in ((), ("--m-lav", "2")):
        for samples, msg in (("7", "needs at least 8"),
                             (str(2 ** 20 + 1), "takes at most 1048576")):
            code, out, err = run_cli(capsys, "verify", "thm2", "--spec",
                                     "identity", "--r-list", "0.5",
                                     "--boundary-samples", samples, *m_lav)
            assert code == 1
            assert out == ""
            assert err.startswith("error: boundary polygon " + msg)
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


def test_check_registry_options_are_parameters(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["verify", "--help"])
    help_text = capsys.readouterr().out
    dests = vars(build_parser().parse_args(["verify", "prop1"]))
    for name, (fn, options) in CHECKS.items():
        params = inspect.signature(fn).parameters
        for option in options:
            assert option in params, (name, option)
            assert option in dests, (name, option)
            assert _flag(option) in help_text.split(), (name, option)


# each check called with no keywords; thm1 on the CLI's default arc
LIBRARY_DEFAULTS = {
    "prop1": lambda m: theorems.check_prop1(m),
    "thm1": lambda m: [theorems.thm1_bound(m, ArcSet.single(0.0, math.pi))],
    "thm2": lambda m: theorems.thm2_bound(m),
    "thm3": lambda m: theorems.thm3_carleson(m)[1],
    "prop2": lambda m: [theorems.prop2_bound(m)],
    "thm5": lambda m: theorems.thm5_bound(m),
    "thm4": lambda m: theorems.thm4_ratio(m),
    "schwarz": lambda m: [theorems.schwarz_radial_check(m)],
    "selfmap": lambda m: theorems.selfmap_distortion_check(m),
}


@pytest.mark.parametrize("name", THEOREM_NAMES)
def test_verify_defaults_are_the_signature_defaults(capsys, name):
    code, out, _ = run_cli(capsys, "verify", name, "--spec", "identity",
                           "--format", "json")
    assert code == 0
    assert out == reports_to_json(LIBRARY_DEFAULTS[name](
        gallery_map("identity")))
