"""Running a pass and checking its outputs against the reference.

An operation fails when it raises, exits 1, exits with another code
than its reference (a ``selfmap`` refusal, exit 3, is a listed outcome
of the reference), reports other verdicts, reports a value that is not
finite, or misses a reference value by more than ``REL_TOL`` relative.
Curve constants are lower bounds of the true constant: they may rise
above their reference but not fall below it.  Within one run every pass
must write byte-identical ``.csv``/``.json`` payloads.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import shutil
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

# theorems.REPORT_TOL, the slack the program itself grants a verdict;
# fixed here so that the check does not move with the program
REL_TOL = 1e-7
VALUE_KEYS = ("length", "area", "lavrentiev", "quasicircle", "ahlfors",
              "linear_connectivity")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")


@dataclass
class PassResult:
    wall: float
    op_times: dict
    outcomes: dict
    payloads: dict


def outcome_of(op, code, text):
    """Exit code, verdicts and values of one CLI command's JSON output."""
    out = {"exit": code, "verdicts": [], "values": {}}
    if code not in (0, 2):
        return out
    data = json.loads(text)
    if op.argv[0] == "verify":
        for i, rep in enumerate(data):
            out["verdicts"].append(bool(rep["holds"]))
            for side in ("lhs", "rhs"):
                out["values"][f"{i}.{rep['name']}.{side}"] = float(rep[side])
    else:
        for i, row in enumerate(data):
            for key in VALUE_KEYS:
                if key in row:
                    out["values"][f"{i}.{key}"] = float(row[key])
    return out


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_op(op, opdir):
    """Run one operation; returns (outcome, payload digests)."""
    if op.call is not None:
        value = float(op.call())
        return ({"exit": 0, "verdicts": [], "values": {"value": value}},
                {"value": repr(value)})
    cli = sys.modules["harmonicdisk.cli"]
    os.makedirs(opdir)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main([*op.argv, "--format", "json",
                         "--out", os.path.join(opdir, "payload.json")])
    outcome = outcome_of(op, code, stdout.getvalue())
    if code not in (0, 2) and stderr.getvalue():
        outcome["stderr"] = stderr.getvalue().strip()
    payloads = {name: _digest(os.path.join(opdir, name))
                for name in sorted(os.listdir(opdir))
                if not name.endswith(".meta.json")}
    return outcome, payloads


def run_pass(ops, workdir):
    """Run every operation once.  Payload files go to a scratch
    directory under ``workdir`` that is removed afterwards."""
    passdir = os.path.join(workdir, "pass")
    op_times, outcomes, payloads = {}, {}, {}
    start = time.perf_counter()
    try:
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                outcomes[op.name], payloads[op.name] = run_op(
                    op, os.path.join(passdir, f"{i:02d}"))
            except Exception as exc:  # a raising operation is a failure
                outcomes[op.name] = {"error": f"{type(exc).__name__}: {exc}"}
                payloads[op.name] = {}
            op_times[op.name] = time.perf_counter() - t0
        wall = time.perf_counter() - start
    finally:
        shutil.rmtree(passdir, ignore_errors=True)
    return PassResult(wall, op_times, outcomes, payloads)


def load_reference(workload, variant):
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    return ref["workloads"][workload][str(variant)]


def compare(op, got, ref):
    """Problems of one outcome against its reference entry."""
    if ref is None:
        return ["no reference entry"]
    if "error" in got:
        return [got["error"]]
    problems = []
    if got["exit"] != ref["exit"]:
        problems.append(f"exit {got['exit']}, reference {ref['exit']}"
                        + (f" ({got['stderr']})" if "stderr" in got else ""))
    if got["verdicts"] != ref["verdicts"]:
        problems.append(f"verdicts {got['verdicts']}, "
                        f"reference {ref['verdicts']}")
    if set(got["values"]) != set(ref["values"]):
        problems.append(f"values {sorted(got['values'])}, "
                        f"reference {sorted(ref['values'])}")
    for key in sorted(set(got["values"]) & set(ref["values"])):
        v, r = got["values"][key], ref["values"][key]
        tol = REL_TOL * max(1.0, abs(r))
        if not math.isfinite(v):
            problems.append(f"{key} = {v!r} is not finite")
        elif v < r - tol or (not op.lower_bound and v > r + tol):
            problems.append(f"{key} = {v!r}, reference {r!r}")
    return problems


def check(ops, results, reference):
    """Failed (pass, operation, problems) triples over all passes."""
    failures = []
    for k, res in enumerate(results):
        for op in ops:
            problems = compare(op, res.outcomes[op.name],
                               reference.get(op.name))
            if k and res.payloads[op.name] != results[0].payloads[op.name]:
                problems.append("payload bytes differ from the first pass")
            if problems:
                failures.append((k, op.name, problems))
    return failures
