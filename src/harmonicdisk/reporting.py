"""Serialization of reports and tables.

Numbers are rendered with repr-faithful precision (%.17g) so CSV/JSON
bodies round-trip to the same float64 and rerunning a command produces
byte-identical payload files.  Anything nondeterministic (timestamps,
library versions) goes into a `.meta.json` sidecar, never the payload.
Every float of a payload cell passes through fmt_float, which refuses
a NaN or an infinity with NumericalError (exit 3 at the CLI).
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


def _cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt_float(value)
    if isinstance(value, complex):
        return f"{fmt_float(value.real)}{_finite(value.imag):+.17g}j"
    if isinstance(value, (list, tuple)):
        return "[" + " ".join(_cell(v) for v in value) + "]"
    return str(value)


def _flatten_params(params):
    return ";".join(f"{k}={_cell(v)}" for k, v in sorted(params.items()))


REPORT_COLUMNS = ("name", "lhs", "rhs", "margin", "holds", "probes",
                  "params")


def reports_to_rows(reports):
    rows = []
    for rep in reports:
        rows.append({
            "name": rep.name,
            "lhs": fmt_float(rep.lhs),
            "rhs": fmt_float(rep.rhs),
            "margin": fmt_float(rep.margin),
            "holds": "true" if rep.holds else "false",
            "probes": str(rep.probes),
            "params": _flatten_params(rep.params),
        })
    return rows


def csv_table(rows, columns):
    """Render dict rows to CSV text with \\n line endings."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(columns),
                            lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _jsonable(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return float(fmt_float(value))
    if isinstance(value, complex):
        return {"re": float(fmt_float(value.real)),
                "im": float(fmt_float(value.imag))}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        return _jsonable(value.item())
    return value


def reports_to_json(reports):
    payload = []
    for rep in reports:
        payload.append({
            "name": rep.name,
            "lhs": _jsonable(rep.lhs),
            "rhs": _jsonable(rep.rhs),
            "margin": _jsonable(rep.margin),
            "holds": bool(rep.holds),
            "probes": int(rep.probes),
            "params": _jsonable(rep.params),
        })
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def rows_to_json(rows, columns):
    payload = [{c: row[c] for c in columns} for row in rows]
    return json.dumps(payload, indent=2) + "\n"


def write_payload(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


def write_meta_sidecar(out_path, command, argv):
    """Run metadata next to the payload; the payload itself stays
    reproducible byte for byte."""
    import numpy
    import scipy

    meta = {
        "command": command,
        "argv": list(argv),
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }
    with open(str(out_path) + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
