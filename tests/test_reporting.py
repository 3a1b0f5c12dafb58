"""Serialization: one cell rule, repr-faithful floats, deterministic
payloads."""

import json
import math

import numpy as np
import pytest

from harmonicdisk.errors import NumericalError
from harmonicdisk.reporting import (csv_table, fmt_float, json_table,
                                    report_rows, write_meta_sidecar,
                                    write_payload, REPORT_COLUMNS)
from harmonicdisk.theorems import make_report

SAMPLE_FLOATS = [0.0, 1.0, -1.0, 1.0 / 3.0, math.pi, 2.0 ** -1074,
                 1.7976931348623157e308, 0.1 + 0.2, -4.9406564584124654e-324]


def _csv_rows(text):
    return [line.split(",") for line in text.splitlines()]


def test_fmt_float_round_trips():
    rows = [{"x": x} for x in SAMPLE_FLOATS]
    csv_cells = [cells[0] for cells in _csv_rows(csv_table(rows, ("x",)))]
    json_cells = [row["x"] for row in json.loads(json_table(rows, ("x",)))]
    assert csv_cells[0] == "x"
    for x, text, value in zip(SAMPLE_FLOATS, csv_cells[1:], json_cells):
        assert float(fmt_float(x)) == x
        assert text == fmt_float(x)
        assert value == x and isinstance(value, float)


def test_reports_to_rows_fields():
    rep = make_report("demo", 1.0 / 3.0, 0.5, "le",
                      {"K": 1.5, "flag": True, "zeta0": 1.0 + 0.0j,
                       "radii": [0.1, 0.2]}, probes=7)
    row = report_rows([rep])[0]
    assert tuple(row) == REPORT_COLUMNS
    assert row["holds"] is True and row["probes"] == 7
    assert row["lhs"] == 1.0 / 3.0 and row["params"] is rep.params
    cells = dict(zip(REPORT_COLUMNS,
                     _csv_rows(csv_table([row], REPORT_COLUMNS))[1]))
    assert cells["holds"] == "true"
    assert float(cells["lhs"]) == 1.0 / 3.0
    assert cells["probes"] == "7"
    # params flatten deterministically in key order
    assert cells["params"] == ("K=1.5;flag=true;radii=[0.10000000000000001 "
                               "0.20000000000000001];zeta0=1+0j")


def test_csv_table_shape():
    rep = make_report("a", 1.0, 2.0, "le")
    text = csv_table(report_rows([rep, rep]), REPORT_COLUMNS)
    lines = text.splitlines()
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert len(lines) == 3
    assert text.endswith("\n") and "\r" not in text


def test_reports_to_json_structure():
    rep = make_report("demo", 2.0, 1.0, "ge",
                      {"w": 0.5 - 0.25j, "n": np.int64(3),
                       "x": np.float64(0.125), "b": np.bool_(True)})
    text = json_table(report_rows([rep]), REPORT_COLUMNS)
    payload = json.loads(text)
    assert list(payload[0]) == list(REPORT_COLUMNS)
    assert payload[0]["name"] == "demo"
    assert payload[0]["holds"] is True
    assert payload[0]["margin"] == 1.0
    assert payload[0]["params"] == {"b": True, "n": 3, "w": {"re": 0.5,
                                                            "im": -0.25},
                                    "x": 0.125}
    assert list(payload[0]["params"]) == ["b", "n", "w", "x"]
    # numpy scalars are the Python values they hold in CSV too
    cells = dict(zip(REPORT_COLUMNS,
                     _csv_rows(csv_table(report_rows([rep]),
                                         REPORT_COLUMNS))[1]))
    assert cells["params"] == "b=true;n=3;w=0.5-0.25j;x=0.125"


def test_serialization_deterministic():
    reps = [make_report("r", math.pi, math.e, "le", {"a": 1.0 / 7.0})]
    for table in (csv_table, json_table):
        assert table(report_rows(reps), REPORT_COLUMNS) == table(
            report_rows(reps), REPORT_COLUMNS)


def test_rows_to_json():
    # one cell rule for both tables: numbers stay numbers in JSON, an
    # empty cell is "" or null, a complex is a+bj or {"re", "im"}
    rows = [{"a": 1, "b": "x", "c": None, "d": np.float64(0.1),
             "e": complex(-0.5, np.sqrt(0.75))},
            {"a": np.int64(2), "b": "y", "c": 0.25, "d": -0.0,
             "e": 1 + 0j}]
    columns = ("a", "b", "c", "d", "e")
    assert json.loads(json_table(rows, columns)) == [
        {"a": 1, "b": "x", "c": None, "d": 0.1,
         "e": {"re": -0.5, "im": 0.8660254037844386}},
        {"a": 2, "b": "y", "c": 0.25, "d": -0.0, "e": {"re": 1.0, "im": 0.0}}]
    assert csv_table(rows, columns).splitlines() == [
        "a,b,c,d,e",
        "1,x,,0.10000000000000001,-0.5+0.8660254037844386j",
        "2,y,0.25,-0,1+0j"]


def test_write_payload_and_sidecar(tmp_path):
    out = tmp_path / "table.csv"
    write_payload(out, "h\n1\n")
    assert out.read_bytes() == b"h\n1\n"
    write_meta_sidecar(out, "verify", ["verify", "prop1"])
    meta = json.loads((tmp_path / "table.csv.meta.json").read_text())
    assert meta["command"] == "verify"
    assert meta["argv"] == ["verify", "prop1"]
    assert "numpy" in meta and "written_at" in meta
    assert "scipy" not in meta
    # sidecar never touches the payload
    assert out.read_bytes() == b"h\n1\n"


@pytest.mark.parametrize("lhs,params", [
    (math.inf, {}), (math.nan, {}), (1.0, {"K": math.inf}),
    (1.0, {"w": complex(0.5, math.nan)}), (1.0, {"radii": [0.1, -math.inf]}),
    (1.0, {"x": np.float64(math.inf)})])
def test_non_finite_cell_is_refused(lhs, params):
    # json.dumps would write Infinity or NaN, csv the text inf or nan
    rows = report_rows([make_report("demo", lhs, 2.0, "le", params)])
    for table in (csv_table, json_table):
        with pytest.raises(NumericalError, match="non-finite value"):
            table(rows, REPORT_COLUMNS)
