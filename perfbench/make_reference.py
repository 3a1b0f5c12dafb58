"""Regenerate reference.json: one pass of every workload at every input
variant, recording each operation's exit code, verdicts and values.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known to be right; the
benchmark checks every later commit against what it writes.
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(os.path.dirname(HERE), ".bench_out")
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"),
                os.path.dirname(HERE)]

import harmonicdisk.cli  # noqa: E402,F401
from perfbench import passes, workloads  # noqa: E402


def main():
    out = {"rel_tol": passes.REL_TOL, "variants": workloads.VARIANTS,
           "workloads": {}}
    for workload in workloads.WORKLOADS:
        per_variant = out["workloads"][workload] = {}
        for variant in range(workloads.VARIANTS):
            os.makedirs(OUT, exist_ok=True)
            workdir = tempfile.mkdtemp(prefix="reference-", dir=OUT)
            try:
                ops = workloads.build(workload, variant, workdir)
                result = passes.run_pass(ops, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            entries = {}
            for op in ops:
                got = result.outcomes[op.name]
                # exit 3 is the expected selfmap refusal
                if "error" in got or got["exit"] not in (0, 2, 3):
                    raise SystemExit(f"{workload} variant {variant} "
                                     f"{op.name}: {got}")
                entries[op.name] = {key: got[key] for key in
                                    ("exit", "verdicts", "values")}
            per_variant[str(variant)] = entries
            print(f"{workload} variant {variant}: {result.wall:.2f} s",
                  file=sys.stderr)
    with open(passes.REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
