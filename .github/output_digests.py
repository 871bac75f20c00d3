"""Digests of every pqlab command's outputs and of every demo's stdout, so
that a change meant to leave results bitwise alone can be checked by a diff.

Runs solve, sweep, verify-bound, trace-degiorgi, check-caccioppoli,
check-energy and check-varsol on five configs (the 1D 65x256 six-level
sweep problem, a 2D 33^2 x 32 problem, a 1D and a 2D problem with a
separable time-dependent datum, whose frame moves with time, and a 1D
problem with a datum of amplitude -1234.5, whose field CSV holds negative
values of up to four integer digits), and the five demos.  Each run starts from a fresh interpreter in a temporary
working directory and writes with a relative --out, so no report echoes a
path of the checkout.  Prints "sha256  name"
for every stdout (its name carries the exit code) and every file written.
Every run takes this interpreter's -X dev and -W options.

Exits 1 if a run printed a traceback: a crash, not a verdict.

usage: python3 .github/output_digests.py [--no-demos] [CHECKOUT]
    CHECKOUT is the root of the checkout whose src/ and demos/ run
    (default: the one holding this script); --no-demos runs the commands
    only.  To compare two checkouts:
        python3 .github/output_digests.py A > a.txt
        python3 .github/output_digests.py B > b.txt
        diff a.txt b.txt
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

SWEEP_1D = """\
[structure]
n = 1
p = 2.0
q = 2.1
alpha = 20.0
beta = 20.0
mu = 0.0
eps = 0.5

[domain]
box = 0.0 1.0
T = 0.3
nx = 65
nt = 256

[coefficients]
a_kind = power
a_center = 0.505
a_exponent = 0.04
b_kind = constant
b_value = 1.0

[boundary]
kind = profile
profile = sin
amplitude = 0.8

[sweep]
eps0 = 0.5
levels = 6

[targets]
cylinder1 = 0.5 0.12 0.2
cylinder2 = 0.45 0.2 0.15
cylinder3 = 0.55 0.28 0.12

[output]
directory = out
seed = 7
"""

SWEEP_2D = (SWEEP_1D.replace("n = 1", "n = 2").replace("box = 0.0 1.0", "box = 0.0 1.0 0.0 1.0")
            .replace("nx = 65", "nx = 33").replace("nt = 256", "nt = 32")
            .replace("a_center = 0.505", "a_center = 0.505 0.505")
            .replace("levels = 6", "levels = 3")
            .replace("cylinder1 = 0.5 0.12 0.2", "cylinder1 = 0.5 0.5 0.12 0.2")
            .replace("cylinder2 = 0.45 0.2 0.15", "cylinder2 = 0.45 0.5 0.2 0.15")
            .replace("cylinder3 = 0.55 0.28 0.12", "cylinder3 = 0.55 0.45 0.28 0.12"))

CONFIGS = {
    "1d": SWEEP_1D,
    "2d": SWEEP_2D,
    "2d-separable": SWEEP_2D.replace("kind = profile", "kind = separable\npsi = 1.0 -0.5"),
    "1d-separable": (SWEEP_1D.replace("nx = 65", "nx = 33").replace("nt = 256", "nt = 64")
                     .replace("levels = 6", "levels = 3")
                     .replace("kind = profile", "kind = separable\npsi = 1.0 -0.5")),
    "1d-negative": (SWEEP_1D.replace("nx = 65", "nx = 33").replace("nt = 256", "nt = 64")
                    .replace("levels = 6", "levels = 3")
                    .replace("amplitude = 0.8", "amplitude = -1234.5")),
}

# command -> whether it takes --out
COMMANDS = {"solve": True, "sweep": True, "verify-bound": True, "trace-degiorgi": True,
            "check-caccioppoli": True, "check-energy": False, "check-varsol": False}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv, cwd, env, name, lines) -> bool:
    """Run argv in cwd, record its stdout's digest; False on a traceback."""
    proc = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines.append(f"{digest(proc.stdout)}  {name}.stdout (exit {proc.returncode})")
    if b"Traceback" in proc.stderr:
        sys.stderr.write(f"{name} crashed:\n{proc.stderr.decode(errors='replace')}")
        return False
    return True


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", nargs="?", default=os.path.join(os.path.dirname(__file__), ".."))
    ap.add_argument("--no-demos", action="store_true", help="run the commands only")
    args = ap.parse_args(argv[1:])
    root = os.path.abspath(args.checkout)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    python = [sys.executable, *(["-X", "dev"] if sys.flags.dev_mode else []),
              *(f"-W{w}" for w in sys.warnoptions)]
    lines, ok = [], True
    with tempfile.TemporaryDirectory() as work:
        for label, text in CONFIGS.items():
            os.makedirs(os.path.join(work, label))
            with open(os.path.join(work, label, "run.cfg"), "w", encoding="ascii") as fh:
                fh.write(text)
            for command, takes_out in COMMANDS.items():
                cmd = [*python, "-m", "pqlab.cli", command, "--config", "run.cfg"]
                if takes_out:
                    cmd += ["--out", command + ("" if command in ("solve", "sweep") else ".csv")]
                ok &= run(cmd, os.path.join(work, label), env, f"{label}/{command}", lines)
        demos = [] if args.no_demos else sorted(os.listdir(os.path.join(root, "demos")))
        for demo in demos:
            cwd = os.path.join(work, "demos", demo[:-3])
            os.makedirs(cwd)
            ok &= run([*python, os.path.join(root, "demos", demo)], cwd, env,
                      f"demos/{demo}", lines)
        for top, dirs, files in os.walk(work):
            dirs.sort()
            for f in sorted(files):
                path = os.path.join(top, f)
                with open(path, "rb") as fh:
                    lines.append(f"{digest(fh.read())}  {os.path.relpath(path, work)}")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
