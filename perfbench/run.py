#!/usr/bin/env python3
"""Builds the perfbench binary from source, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 20 --trace 0

Every flag is passed to perfbench unchanged; perfbench parses them
strictly (exit 64 on an unknown or malformed flag). The build goes to
.bench_build/perfbench and its log to stderr, so the last line of stdout
is perfbench's result object.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no gepc sources next to perfbench/", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]]
    # Configure once; later builds re-run CMake themselves when a
    # CMakeLists.txt changes.
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def git_sha():
    # Only this checkout's own repository; never one of its parents.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def main():
    if not build():
        return 2
    binary = os.path.join(BUILD, "perfbench")
    args = [binary, "--git-sha", git_sha()] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
