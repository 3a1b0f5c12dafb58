"""Serialization of payload tables.

A table is a list of dict rows of typed cells: floats, ints, bools,
strings, complex values, None for an empty cell, and a report's params
dict.  One cell rule (_cell) renders a cell both as CSV text
(csv_table) and as a JSON value (json_table).  Floats keep
repr-faithful precision (%.17g in CSV, the shortest repr in JSON), so
both bodies round-trip to the same float64 and rerunning a command
produces byte-identical payload files.  Anything nondeterministic
(timestamps, library versions) goes into a `.meta.json` sidecar, never
the payload.  A NaN or an infinity in a cell is refused with
NumericalError (exit 3 at the CLI).
"""

from __future__ import annotations

import csv
import io
import json
import math
import platform
import sys
import time

from .errors import NumericalError


def _finite(x):
    x = float(x)
    if not math.isfinite(x):
        raise NumericalError(f"non-finite value {x} in a payload cell")
    return x


def fmt_float(x):
    """Shortest digit string that parses back to the same float64;
    NumericalError for a NaN or an infinity."""
    return "%.17g" % _finite(x)


def _cell(value, text):
    """A payload cell as CSV text when text is true, else as a JSON
    value.  A numpy scalar counts as the Python value it holds.  None
    is "" or null; a complex is a+bj or {"re", "im"}; a dict is
    key=value pairs joined by ";" or an object, keys sorted; a list is
    its cells bracketed and space-separated, or an array."""
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        value = value.item()
    if isinstance(value, bool):
        return ("true" if value else "false") if text else value
    if isinstance(value, float):
        return fmt_float(value) if text else _finite(value)
    if isinstance(value, complex):
        if text:
            return f"{fmt_float(value.real)}{_finite(value.imag):+.17g}j"
        return {"re": _finite(value.real), "im": _finite(value.imag)}
    if isinstance(value, dict):
        items = [(str(k), _cell(v, text)) for k, v in sorted(value.items())]
        return ";".join(f"{k}={v}" for k, v in items) if text else dict(items)
    if isinstance(value, (list, tuple)):
        cells = [_cell(v, text) for v in value]
        return "[" + " ".join(cells) + "]" if text else cells
    if value is None:
        return "" if text else None
    return str(value) if text else value


REPORT_COLUMNS = ("name", "lhs", "rhs", "margin", "holds", "probes",
                  "params")


def report_rows(reports):
    """The typed rows, columns REPORT_COLUMNS, of InequalityReports."""
    return [{c: getattr(rep, c) for c in REPORT_COLUMNS} for rep in reports]


def csv_table(rows, columns):
    """CSV text of the rows, with \\n line endings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_cell(row[c], True) for c in columns] for row in rows)
    return buf.getvalue()


def json_table(rows, columns):
    """JSON text of the rows: one object per row, keys in column
    order."""
    payload = [{c: _cell(row[c], False) for c in columns} for row in rows]
    return json.dumps(payload, indent=2) + "\n"


def write_payload(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


def write_meta_sidecar(out_path, command, argv):
    """Run metadata next to the payload; the payload itself stays
    reproducible byte for byte."""
    import numpy

    meta = {
        "command": command,
        "argv": list(argv),
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
    with open(str(out_path) + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
