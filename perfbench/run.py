"""pqlab benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload sweep-1d --seed 0 --seconds 10 --trace 0

Runs from the root of a source checkout and imports pqlab from its src/
directory.  Ops run closed-loop and single-threaded (BLAS and OpenMP pinned
to one thread) until --seconds have passed; every op's output is checked.
The last line of standard output is the JSON result: end-to-end metrics
with --trace 0, per-layer metrics from a traced run with --trace 1.  Lines
before it give the environment, sample counts and, when traced, the span
summary.  Scratch files go under .bench_build/perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import mean, median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOAD_NAMES = ("sweep-1d", "solve-2d", "diagnostics-2d")
# Imports and set-up are each repeated this many times; setup_s adds their
# medians.
SETUP_REPEATS = 3
# diagnostics-2d runs at least this many ops so that its 90th percentile
# has ten samples beyond it.
MIN_OPS = {"diagnostics-2d": 100}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """sha256 over pqlab's source files, which identifies the code measured
    where no git metadata exists."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "pqlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports about itself."""
    import ctypes

    out = {}
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(lib)] = fn()
                break
    return out


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "commit": _commit(), "source_sha256": _source_digest(),
    }


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports numpy, scipy and
    pqlab, as every pqlab command does before its work."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import scipy.linalg, scipy.sparse.linalg, pqlab.cli"],
                   env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT, check=True)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pqlab", "__init__.py")):
        print(f"no pqlab sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"

    import scipy.linalg  # noqa: F401  (the linear-algebra wrappers need it first)
    import scipy.sparse.linalg  # noqa: F401

    import spans
    rec = spans.Recorder() if args.trace else None
    if rec is not None:
        spans.instrument_linalg(rec)
    sys.path.insert(0, SRC)
    import pqlab
    import pqlab.cli  # noqa: F401
    if not os.path.abspath(pqlab.__file__).startswith(SRC + os.sep):
        print(f"pqlab was imported from {pqlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if rec is not None:
        spans.instrument_pqlab(rec)
    import workloads
    from hostspeed import NOMINAL_S, HostSpeed
    from stats import percentile, samples_beyond, tail_percentile
    host = HostSpeed()
    host.sample(5)
    import_times = [import_seconds() for _ in range(SETUP_REPEATS)]

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=WORK)
    try:
        cls = workloads.WORKLOADS[args.workload]
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            if rec is not None:
                rec.begin_op("setup")
            warm = cls(args.seed, workloads.WARMUP_SIZES[args.workload])
            warm.setup(tempfile.mkdtemp(dir=workdir))
            warm.discard(warm.op(0))
            workload = cls(args.seed)
            setup_problems = workload.setup(tempfile.mkdtemp(dir=workdir))
            if rec is not None:
                rec.end_op()
            setup_times.append(time.perf_counter() - t0)
        for problem in setup_problems:
            print(f"set-up failed: {problem}", file=sys.stderr)

        min_ops = MIN_OPS.get(args.workload, 1)
        if rec is not None:
            min_ops = max(min_ops, 2)
        host.sample(5)
        log = workloads.run_ops(workload, args.seconds, min_ops, rec, host.between_ops)
        host.sample(5)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env " + json.dumps(environment(args), sort_keys=True))
    n = len(log.times)
    slow = host.slowdown()
    print(f"host: reference loop mean {slow * NOMINAL_S * 1e3:.4g} ms over {len(host.samples)} "
          f"samples, slowdown {slow:.4g}; times below are wall times")
    print(f"setup: median import {median(import_times):.4g} s (of "
          f"{', '.join(f'{t:.4g}' for t in import_times)}) + median set-up "
          f"{median(setup_times):.4g} s (of {', '.join(f'{t:.4g}' for t in setup_times)})")
    if rec is None:
        p90 = percentile(log.times, 90)
        tail = tail_percentile(n)
        print(f"ops: {n}, mean {mean(log.times):.6g} s, median {median(log.times):.6g} s, "
              f"fastest {min(log.times):.6g} s, p90 {p90:.6g} s with {samples_beyond(n, 90)} "
              f"beyond it (highest percentile with 10 beyond: {tail if tail else 'none'})")
        metrics = {
            "setup_s": ((median(import_times) + median(setup_times)) / slow, "s"),
            "op_s": (mean(log.times) / slow, "s"),
            "op_s_p90": (p90 / slow, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        traced = [i for i, t in enumerate(log.traced) if t]
        on = [log.times[i] for i in traced]
        off = [t for t, flag in zip(log.times, log.traced) if not flag]
        values = spans.layer_metrics(rec, traced, on, off)
        metrics = {k: (values[k], unit) for k, unit in spans.LAYER_UNITS.items()}
        print(f"{len(on)} traced and {len(off)} untraced ops; spans of the traced ops:")
        print(f"{'span':34} {'calls':>8} {'total_s':>10} {'self_s':>10}")
        for name, calls, total, own in spans.span_summary(rec.spans, traced):
            print(f"{name:34} {calls:8d} {total:10.4f} {own:10.4f}")
        spans.write_spans(rec.spans, os.path.join(WORK, f"trace-{args.workload}.csv"))

    result = {
        "correct": not setup_problems and log.failed == 0,
        "attempted": n,
        "failed": log.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
