#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload bugs --seed 1 --seconds 30 --trace 0

Run it from the repository root.  The arguments pass through to the
benchmark program (perfbench/main.ml); the last line it prints is one JSON
object with the keys correct, attempted, failed and metrics.  See
perfbench/README.md.
"""

import json
import os
import shutil
import subprocess
import sys

TARGET = os.path.join("perfbench", "main.exe")
EXE = os.path.join("_build", "default", TARGET)
# A run must end within 180 s; stop a stuck one before that.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        return fail("run from the repository root: dune-project or lib/ is missing")
    if shutil.which("dune") is None:
        return fail("dune is not on PATH")
    # dune's shared cache lives outside the source tree; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", ".", TARGET],
                           stdout=sys.stderr, env=env)
    if build.returncode != 0:
        return fail("build failed")
    try:
        run = subprocess.run([EXE] + argv, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("the benchmark did not finish in %d s" % RUN_TIMEOUT_S)
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        return fail("the benchmark exited with %d" % run.returncode)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}):
        sys.stderr.write(run.stdout)
        return fail("the benchmark printed no result line")
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
