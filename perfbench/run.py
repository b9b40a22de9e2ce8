#!/usr/bin/env python3
"""Build the perfbench driver from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The driver and the refsched library it links are built with CMake
into $CARGO_TARGET_DIR (default .bench_build), incrementally, so only
the first run in a checkout pays for the build.  Build output goes to
stderr; stdout carries the driver's report, whose last line is the
JSON result.  Generated inputs and result records are written to
<build dir>/results/.  Arguments are checked by the driver itself.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: refsched sources not found (expected src/ beside "
              "perfbench/)", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    out = build_dir()
    if not build(out):
        return 1
    driver = os.path.join(out, "perfbench")
    cmd = [driver] + sys.argv[1:] + ["--out", os.path.join(out, "results")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
