#!/usr/bin/env python3
"""Builds the TARA benchmark driver in Release and runs one workload.

    python3 perfbench/run.py --workload explore|serve|ingest --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build goes to .bench_build/ (CMake,
configured from perfbench/ so no build file of the repository changes);
run outputs and traces go to .bench_out/. Build output is sent to stderr,
so the last line of standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "tara_perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no TARA sources under %s/src" % ROOT)
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "tara_perfbench",
         "-j", str(min(4, os.cpu_count() or 1))],
        check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("perfbench: build failed: %s" % error)
    result = subprocess.run([str(BINARY)] + sys.argv[1:], cwd=ROOT)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
