"""Run one workload at several seeds and report each end-to-end metric's
median and quartile spread against its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload sweep-1d --seeds 1 2 3 4 5

Each run is a fresh process of run.py with the run length BENCHMARK.json
fixes.  The spread is (Q3 - Q1) / median over the runs; a benchmark is
steady when every spread except setup_s stays below a third of its bound.
Raw results are appended to .bench_build/perfbench/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import subprocess
import sys
from statistics import median

from run import ROOT, WORK, WORKLOAD_NAMES
from stats import quartile_spread


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    os.makedirs(WORK, exist_ok=True)
    raw = os.path.join(WORK, f"spread-{args.workload}.jsonl")
    values = {name: [] for name in bounds}
    ok = True
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(raw, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": seed, **result}) + "\n")
        ok &= result["correct"] and result["failed"] == 0
        row = {k: v["value"] for k, v in result["metrics"].items()}
        for name in bounds:
            values[name].append(row[name])
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              + " ".join(f"{k}={v:.5g}" for k, v in row.items()), flush=True)

    print(f"{'metric':14} {'median':>12} {'spread':>8} {'bound':>6}  steady (< bound/3)")
    for name, vals in values.items():
        spread = quartile_spread(vals) if len(vals) >= 2 else float("nan")
        steady = spread < bounds[name] / 3
        print(f"{name:14} {median(vals):12.6g} {spread:8.4f} {bounds[name]:6.3f}  "
              f"{'yes' if steady else 'NO'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
