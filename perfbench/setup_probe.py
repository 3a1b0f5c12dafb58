"""Time one set-up in a fresh interpreter and print it in seconds.

Set-up is ``import harmonicdisk.cli`` plus building a workload's inputs
(maps, curves, curve files).  Usage, from the repository root:

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import harmonicdisk.cli  # noqa: E402,F401
from perfbench import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(repr(time.perf_counter() - START))
