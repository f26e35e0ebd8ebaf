#!/usr/bin/env python3
"""Benchmark entry point: build the driver from source, run one workload.

    python3 perfbench/run.py --workload hepnos_ingest --seed 1 --seconds 30 --trace 0

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (the repo's src/ libraries plus the driver) into
.bench_build/perfbench; later calls only re-check the build. Build output
goes to stderr, so the last line of stdout is the driver's JSON result.
The exit code is the driver's: nonzero when a correctness check failed.
"""
import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
WORKLOADS = ("hepnos_ingest", "mobject_rw", "hepnos_sharded")
# Headroom over --seconds for process start, the last repetition and exit.
RUN_GRACE_S = 120


def build():
    """Configure once, then let the build tool skip what is up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_driver", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for the smoke test")
    args = ap.parse_args()

    build()
    cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit()]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: driver timed out")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
