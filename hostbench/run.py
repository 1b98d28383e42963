#!/usr/bin/env python3
"""Build the jrs host benchmark from source, then run it.

    python3 hostbench/run.py --workload launch --seed 1 --seconds 10 --trace 0

Every argument goes to the jrs_hostbench binary (see hostbench/main.cpp
for the full list). The binary is built into .bench_build/hostbench
at the root of the checkout, as RelWithDebInfo, the repository's
default build type; a traced run
(--trace 1) writes its Chrome trace there too unless --trace-out is
given. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Exits non-zero, printing no result, when the
build fails.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "hostbench"
BUILD = ROOT / ".bench_build" / "hostbench"
BINARY = BUILD / "jrs_hostbench"


def build():
    """Configure once, then build incrementally; True on success."""
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(len(os.sched_getaffinity(0)))
    step = ["cmake", "--build", str(BUILD), "--target", "jrs_hostbench",
            "--parallel", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def value_of(args, flag):
    return args[args.index(flag) + 1] if flag in args[:-1] else None


def main():
    args = sys.argv[1:]
    if not build():
        print("hostbench: build failed", file=sys.stderr)
        return 2
    if value_of(args, "--trace") == "1" and "--trace-out" not in args:
        name = "trace-{}-{}.json".format(value_of(args, "--workload"),
                                         value_of(args, "--seed"))
        args += ["--trace-out", str(BUILD / name)]
    sys.stdout.flush()
    return subprocess.run([str(BINARY)] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
