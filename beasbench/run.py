#!/usr/bin/env python3
"""Builds and runs the BEAS product benchmark.

Run from the repository root:

  python3 beasbench/run.py --workload tlc_point --seed 1 --seconds 10 --trace 0
  python3 beasbench/run.py --selfcheck

The first call builds the library and the driver under .bench_build/
(later calls only rebuild what changed). The driver's last line of
standard output is the JSON result; build output goes to standard error.
--selfcheck runs every workload with a deliberately wrong reference answer
and passes only if each run reports itself incorrect.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "beasbench")
DATA_DIR = os.path.join(ROOT, ".bench_build", "beasbench-data")
BINARY = os.path.join(BUILD_DIR, "beasbench")
WORKLOADS = ("tlc_point", "tlc_hot_rw", "wide_chain")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("beasbench: no src/ next to beasbench/; "
                 "run it from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("beasbench: build failed: " + " ".join(cmd))


def run_driver(args, capture):
    os.makedirs(DATA_DIR, exist_ok=True)
    cmd = [BINARY, "--data-dir", DATA_DIR] + args
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("beasbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return proc


def selfcheck():
    ok = True
    for workload in WORKLOADS:
        proc = run_driver(["--workload", workload, "--seed", "1",
                           "--seconds", "1", "--trace", "0",
                           "--break-reference"], capture=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        caught = (proc.returncode != 0 and result.get("correct") is False
                  and result.get("failed", 0) >= 1)
        print("selfcheck %-10s wrong reference %s (exit %d, failed %s)" %
              (workload, "caught" if caught else "NOT CAUGHT",
               proc.returncode, result.get("failed")))
        ok = ok and caught
    return 0 if ok else 1


def main():
    # A terminated wrapper must not leave the driver running: SystemExit
    # makes subprocess.run kill and reap its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    opts = parser.parse_args()
    if not opts.selfcheck and opts.workload is None:
        parser.error("--workload is required")
    build()
    if opts.selfcheck:
        return selfcheck()
    proc = run_driver(["--workload", opts.workload, "--seed", str(opts.seed),
                       "--seconds", repr(opts.seconds),
                       "--trace", str(opts.trace)], capture=False)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
