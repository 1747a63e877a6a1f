#!/usr/bin/env python3
"""Build and run the end-to-end tuning and serving benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds felix-perfbench and the
library from source into .bench_build/perfbench (the first run
configures and compiles; later runs only check that the build is up to
date), then runs one workload. The last line of standard output is the
result object; build output and failed checks go to standard error.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "felix-perfbench")


def build():
    """Configure once, then bring felix-perfbench up to date."""
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "felix-perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no library sources at src/ beside perfbench/; "
              "run from a full checkout", file=sys.stderr)
        return 2
    # SIGTERM unwinds through subprocess.run, which kills and reaps the
    # running child before the exception propagates.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2
    run = subprocess.run([BINARY, "--workload", args.workload,
                          "--seed", str(args.seed),
                          "--seconds", repr(args.seconds),
                          "--trace", args.trace], cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
