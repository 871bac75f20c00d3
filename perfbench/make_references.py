"""Regenerate references.json: the reference scalars of each workload at the
default seed and sizes, from one op of the code in this checkout.

    python3 perfbench/make_references.py

Run it only when the discrete problem itself changes on purpose (a new
discretization, not a new solver for the same one), and say so where the
change is recorded; the benchmark then compares against the new values.
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from run import WORK  # noqa: E402


def main() -> int:
    refs = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(workloads.DEFAULT_SEED)
        workload.refs = None
        os.makedirs(WORK, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=name + "-", dir=WORK)
        try:
            problems = workload.setup(workdir)
            output = workload.op(0)
            problems += workload.check(output)
            if problems:
                print(f"{name}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            refs[name] = workload.reference_values(output)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "references.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
