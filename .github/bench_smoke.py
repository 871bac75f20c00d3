"""Smoke run of the benchmark: every workload for five seconds, untraced and
traced, from the root of the checkout, with every RuntimeWarning an error
(the filter of the benchmark tests), so that a float32 cast overflow or a
NaN warning at the benchmark's full sizes fails an op.

perfbench/run.py always exits 0, so the check reads the JSON result on its
last line: it must report correct output and no failed op.  op_s and
peak_rss_mb are printed for reading only.  The traced run (--trace 1) wraps
every layer call the tracer names, so a pqlab call renamed or removed under
it fails here.  Stops at the first run that fails.

usage: python3 .github/bench_smoke.py
"""

import json
import subprocess
import sys

WORKLOADS = ("sweep-1d", "solve-2d", "diagnostics-2d")


def main() -> int:
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            out = subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", "perfbench/run.py",
                 "--workload", workload, "--seconds", "5", "--trace", trace],
                check=True, stdout=subprocess.PIPE, text=True).stdout
            r = json.loads(out.splitlines()[-1])
            m = r.get("metrics", {})
            print(f"{workload} --trace {trace}", "correct:", r["correct"], "failed:", r["failed"],
                  *("%s: %.4g" % (k, m[k]["value"]) for k in ("op_s", "peak_rss_mb") if k in m),
                  flush=True)
            if not (r["correct"] is True and r["failed"] == 0):
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
