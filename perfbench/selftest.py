#!/usr/bin/env python3
"""Minimal-length self-test of the benchmark.

Usage, from the repository root:

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json for one second, untraced and
traced, and checks that the last stdout line is the result object,
that the run is correct with no failed cells, and that every metric
BENCHMARK.json names is printed with its unit (end_to_end untraced,
per_layer traced).  Then checks the driver's input contract: each bad
argument list must exit with status 1 after one diagnostic line and
print no result.  Exits 1 on the first failure.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]

BAD_ARGS = [
    ["--workload", "no-such", "--seed", "1", "--seconds", "1", "--trace", "0"],
    ["--workload", "mem-refresh", "--seed", "12x", "--seconds", "1",
     "--trace", "0"],
    ["--workload", "mem-refresh", "--seed", "-1", "--seconds", "1",
     "--trace", "0"],
    ["--workload", "mem-refresh", "--seed", "1", "--seconds", "0",
     "--trace", "0"],
    ["--workload", "mem-refresh", "--seed", "1", "--seconds", "1",
     "--trace", "2"],
    ["--workload", "mem-refresh", "--seed", "1", "--seconds", "1"],
    ["--workload", "mem-refresh", "--seed", "1", "--seconds", "1",
     "--trace", "0", "--jobs", "4"],
]


def check(cond, what):
    if not cond:
        print("selftest: FAIL: " + what)
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for wl in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            args = ["--workload", wl["name"], "--seed", "1",
                    "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(RUN + args, cwd=ROOT,
                                  capture_output=True, text=True)
            what = "%s trace=%d" % (wl["name"], trace)
            check(proc.returncode == 0, what + " exit status")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(result["correct"] and result["failed"] == 0,
                  what + " correctness: " + proc.stdout)
            check(result["attempted"] >= 1, what + " attempted")
            got = result["metrics"]
            for m in bench[key]:
                check(m["name"] in got, what + " missing " + m["name"])
                check(got[m["name"]]["unit"] == m["unit"],
                      what + " unit of " + m["name"])
            check(len(got) == len(bench[key]), what + " extra metrics")
            print("selftest: ok " + what)
    for args in BAD_ARGS:
        proc = subprocess.run(RUN + args, cwd=ROOT,
                              capture_output=True, text=True)
        what = " ".join(args)
        check(proc.returncode == 1, "status for: " + what)
        check(proc.stdout == "", "stdout for: " + what)
        check(len(proc.stderr.strip().splitlines()) >= 1
              and proc.stderr.strip().splitlines()[-1]
              .startswith("perfbench: "), "diagnostic for: " + what)
        print("selftest: ok rejects " + what)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
