"""Serialization: repr-faithful floats, deterministic payloads."""

import json
import math

import numpy as np
import pytest

from harmonicdisk.errors import NumericalError
from harmonicdisk.reporting import (csv_table, fmt_float, reports_to_json,
                                    reports_to_rows, rows_to_json,
                                    write_meta_sidecar, write_payload,
                                    REPORT_COLUMNS)
from harmonicdisk.theorems import make_report

SAMPLE_FLOATS = [0.0, 1.0, -1.0, 1.0 / 3.0, math.pi, 2.0 ** -1074,
                 1.7976931348623157e308, 0.1 + 0.2, -4.9406564584124654e-324]


def test_fmt_float_round_trips():
    for x in SAMPLE_FLOATS:
        assert float(fmt_float(x)) == x


def test_reports_to_rows_fields():
    rep = make_report("demo", 1.0 / 3.0, 0.5, "le",
                      {"K": 1.5, "flag": True, "zeta0": 1.0 + 0.0j,
                       "radii": [0.1, 0.2]}, probes=7)
    row = reports_to_rows([rep])[0]
    assert set(row) == set(REPORT_COLUMNS)
    assert row["holds"] == "true"
    assert float(row["lhs"]) == 1.0 / 3.0
    assert row["probes"] == "7"
    # params flatten deterministically in key order
    assert row["params"].startswith("K=1.5;flag=true;")
    assert "radii=[0.10000000000000001 0.20000000000000001]" \
        in row["params"]


def test_csv_table_shape():
    rep = make_report("a", 1.0, 2.0, "le")
    text = csv_table(reports_to_rows([rep, rep]), REPORT_COLUMNS)
    lines = text.splitlines()
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert len(lines) == 3
    assert text.endswith("\n") and "\r" not in text


def test_reports_to_json_structure():
    rep = make_report("demo", 2.0, 1.0, "ge",
                      {"w": 0.5 - 0.25j, "n": np.int64(3),
                       "x": np.float64(0.125)})
    payload = json.loads(reports_to_json([rep]))
    assert payload[0]["name"] == "demo"
    assert payload[0]["holds"] is True
    assert payload[0]["margin"] == 1.0
    assert payload[0]["params"]["w"] == {"re": 0.5, "im": -0.25}
    assert payload[0]["params"]["n"] == 3
    assert payload[0]["params"]["x"] == 0.125


def test_serialization_deterministic():
    reps = [make_report("r", math.pi, math.e, "le", {"a": 1.0 / 7.0})]
    assert reports_to_json(reps) == reports_to_json(reps)
    rows = reports_to_rows(reps)
    assert csv_table(rows, REPORT_COLUMNS) == csv_table(
        reports_to_rows(reps), REPORT_COLUMNS)


def test_rows_to_json():
    rows = [{"a": "1", "b": "x"}, {"a": "2", "b": "y"}]
    payload = json.loads(rows_to_json(rows, ("a", "b")))
    assert payload == [{"a": "1", "b": "x"}, {"a": "2", "b": "y"}]


def test_write_payload_and_sidecar(tmp_path):
    out = tmp_path / "table.csv"
    write_payload(out, "h\n1\n")
    assert out.read_bytes() == b"h\n1\n"
    write_meta_sidecar(out, "verify", ["verify", "prop1"])
    meta = json.loads((tmp_path / "table.csv.meta.json").read_text())
    assert meta["command"] == "verify"
    assert meta["argv"] == ["verify", "prop1"]
    assert "numpy" in meta and "written_at" in meta
    # sidecar never touches the payload
    assert out.read_bytes() == b"h\n1\n"


@pytest.mark.parametrize("lhs,params", [
    (math.inf, {}), (math.nan, {}), (1.0, {"K": math.inf}),
    (1.0, {"w": complex(0.5, math.nan)}), (1.0, {"radii": [0.1, -math.inf]}),
    (1.0, {"x": np.float64(math.inf)})])
def test_non_finite_cell_is_refused(lhs, params):
    # json.dumps would write Infinity or NaN, csv the text inf or nan
    rep = make_report("demo", lhs, 2.0, "le", params)
    with pytest.raises(NumericalError, match="non-finite value"):
        reports_to_json([rep])
    with pytest.raises(NumericalError, match="non-finite value"):
        csv_table(reports_to_rows([rep]), REPORT_COLUMNS)
