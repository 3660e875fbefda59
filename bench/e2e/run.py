#!/usr/bin/env python3
"""Build bench_e2e from this checkout's sources, then run it.

    python3 bench/e2e/run.py --workload point_hot --seed 1 --seconds 10 --trace 0

Every argument is passed to the harness (see README.md). The build lives in
.bench_build/ at the checkout root (CMake, Release, the engine compiled from
src/ by bench/e2e/CMakeLists.txt) and is incremental: only the first run in
a checkout compiles everything. Build output goes to stderr, so the last
line of stdout is the harness's JSON result. Scratch files and traces are
kept under .bench_build/ as well.
"""

import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")


def cmake(args):
    return subprocess.call(["cmake"] + args, stdout=sys.stderr, stderr=sys.stderr)


def build():
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        # Concurrent runs in one checkout build once.
        fcntl.flock(lock, fcntl.LOCK_EX)
        configure = ["-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if cmake(configure) != 0:
            # A cache left by a checkout at another path: start over once.
            shutil.rmtree(os.path.join(BUILD, "CMakeFiles"), ignore_errors=True)
            cache = os.path.join(BUILD, "CMakeCache.txt")
            if os.path.exists(cache):
                os.remove(cache)
            if cmake(configure) != 0:
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        return cmake(["--build", BUILD, "-j", jobs]) == 0


def main():
    if not build():
        print("run.py: building bench_e2e failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "bench_e2e")
    args = [binary, "--tmpdir", os.path.join(BUILD, "tmp"),
            "--trace-dir", os.path.join(BUILD, "traces")] + sys.argv[1:]
    sys.stdout.flush()
    # Replace this process: the harness and its server children are then
    # the only processes the run leaves to wait for.
    os.execv(binary, args)


if __name__ == "__main__":
    sys.exit(main())
