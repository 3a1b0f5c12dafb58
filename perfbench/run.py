"""Benchmark entry point.  From the repository root:

    python3 perfbench/run.py --workload series-verify --seed 0 \\
        --seconds 32 --trace 0

One invocation runs one workload in its own process.  Untraced
(``--trace 0``) it runs whole passes for up to ``--seconds`` (at least
two), times set-up in fresh interpreters before and after them, and
reports the end-to-end metrics.  Traced (``--trace 1``) it runs a
warm-up pass, a traced pass and an untraced pass, and reports the
per-layer metrics; the spans go to ``.bench_out/``.  Every pass is
checked against ``reference.json``.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 6
SETUP_TIMEOUT_S = 60


def pin_threads():
    """Cap every BLAS/OpenMP thread variable at nproc.  Must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def import_library():
    """Import harmonicdisk from this checkout's src/, never from an
    installed copy."""
    if not os.path.isfile(os.path.join(SRC, "harmonicdisk", "cli.py")):
        raise SystemExit(f"error: no harmonicdisk sources under {SRC}")
    sys.path[:0] = [SRC, ROOT]
    import harmonicdisk.cli

    where = os.path.dirname(os.path.abspath(harmonicdisk.__file__))
    if where != os.path.join(SRC, "harmonicdisk"):
        raise SystemExit(f"error: imported harmonicdisk from {where}")


def run_record(args, nproc, passes_run):
    import numpy
    import scipy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "passes": passes_run,
        "machine": platform.machine(), "cpu": cpu,
        "platform": platform.platform(), "nproc": nproc,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": commit,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def setup_times(workload, seed, count):
    """Set-up times of ``count`` fresh interpreters."""
    times = []
    probe = os.path.join(ROOT, "perfbench", "setup_probe.py")
    for _ in range(count):
        workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT)
        try:
            proc = subprocess.run(
                [sys.executable, probe, workload, str(seed), workdir],
                capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                check=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def untraced_run(args, ops, workdir, passes):
    # Half the set-ups run before the passes and half after, so that
    # their median samples the machine's speed over the whole run.
    setups = setup_times(args.workload, args.seed, SETUP_REPEATS // 2)
    results = []
    start = time.perf_counter()
    # whole passes, at least two, none expected to end after --seconds
    while len(results) < 2 or (
            time.perf_counter() - start
            + statistics.median(r.wall for r in results) <= args.seconds):
        results.append(passes.run_pass(ops, workdir))
    setups += setup_times(args.workload, args.seed,
                          SETUP_REPEATS - SETUP_REPEATS // 2)
    metrics = {
        "wall_s": (statistics.median(r.wall for r in results), "s"),
        "slowest_op_s": (statistics.median(max(r.op_times.values())
                                           for r in results), "s"),
        "setup_s": (statistics.median(setups), "s"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MiB"),
    }
    return results, metrics, []


def traced_run(args, ops, workdir, passes):
    """Warm-up pass, traced pass, then the untraced pass the trace
    overhead is measured against, so that both timed passes start with
    warm module caches."""
    from perfbench import tracing

    warm = passes.run_pass(ops, workdir)
    tracer = tracing.Tracer()
    with tracer:
        patches = tracer.patched()
        traced = passes.run_pass(ops, workdir)
    problems = [f"{getattr(owner, '__name__', owner)}.{attr} not restored"
                for owner, attr, original in patches
                if vars(owner)[attr] is not original]
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    plain = passes.run_pass(ops, workdir)
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    metrics = tracing.layer_metrics(tracer.spans, traced.wall)
    metrics["run.cpu_s"] = (usage1.ru_utime + usage1.ru_stime
                            - usage0.ru_utime - usage0.ru_stime, "s")
    metrics["run.wall_s"] = (plain.wall, "s")
    metrics["trace.overhead_ratio"] = (traced.wall / plain.wall, "1")
    tracer.write(os.path.join(
        OUT, f"spans-{args.workload}-seed{args.seed}.json"))
    return [warm, traced, plain], metrics, problems


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    nproc = pin_threads()
    import_library()
    from perfbench import passes, workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    variant = workloads.variant_of(args.seed)
    reference = passes.load_reference(args.workload, variant)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        run = traced_run if args.trace else untraced_run
        results, metrics, harness_problems = run(args, ops, workdir, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = passes.check(ops, results, reference)
    attempted = len(ops) * len(results)
    failed = len(failures)

    print("record " + json.dumps(run_record(args, nproc, len(results))))
    for problem in harness_problems:
        print(f"FAIL {problem}", file=sys.stderr)
    for k, name, problems in failures:
        for problem in problems:
            print(f"FAIL pass {k} {name}: {problem}", file=sys.stderr)
    print(f"fail_ratio = {failed}/{attempted}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures and not harness_problems,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
