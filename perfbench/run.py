#!/usr/bin/env python3
"""Build and run the OSU-MAC benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_sweep --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Configures perfbench/ as a CMake package of its own in .bench_build/perfbench
(RelWithDebInfo, which compiles the simulator from src/), builds it, then runs
osumac_perfbench with the given arguments.  Build output goes to stderr, so
the JSON result stays the last line of stdout.  Exits non-zero, without
printing a result, when the sources or the build are missing.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def nproc():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no simulator sources under src/; "
                         "run from a full checkout\n")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", target,
                  "-j", str(min(4, nproc()))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main(argv):
    target = "perfbench_selftest" if argv == ["--selftest"] else "osumac_perfbench"
    if not build(target):
        return 2
    sys.stdout.flush()
    cmd = [os.path.join(BUILD, target)] + ([] if target == "perfbench_selftest" else argv)
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
