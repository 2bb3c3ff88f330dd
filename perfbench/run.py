#!/usr/bin/env python3
"""Build the benchmark program from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a bbng checkout.  The program (perfbench/bench.ml)
is built with dune into the checkout's _build directory and then
replaces this process, so its stdout is the benchmark's stdout: the
last line is the result object.  Build output goes to stderr.
"""

import glob
import os
import shutil
import subprocess
import sys

TARGET = os.path.join("perfbench", "bench.exe")


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    candidates = [os.path.join(prefix, "bin", "dune")] if prefix else []
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    return None


def main():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            sys.stderr.write(
                "perfbench: %s not found; run from the root of a bbng checkout\n" % needed
            )
            return 2
    dune = find_dune()
    if dune is None:
        sys.stderr.write("perfbench: dune not found on PATH\n")
        return 2
    # no shared build cache: the build reads and writes only the checkout
    build = subprocess.run(
        [dune, "build", "--root", ".", "--cache=disabled", "./" + TARGET],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 2
    exe = os.path.join("_build", "default", TARGET)
    # the program's own environment knobs (heartbeat cadence, fault
    # probes, ledger file) would change what is measured
    env = {k: v for k, v in os.environ.items() if not k.startswith("BBNG_")}
    sys.stdout.flush()
    os.execve(exe, [exe] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
