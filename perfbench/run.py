#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --test        # build and run the benchmark's tests

The build (Release, libraries compiled straight from src/) goes to the
directory named by CARGO_TARGET_DIR, or .bench_build, under the repository
root; later runs rebuild incrementally. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Exits non-zero, without a
result, if the sources are missing or the build or the run fails.
"""

import os
import subprocess
import sys

JOBS = "3"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(command, cwd):
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-4000:])
        sys.stderr.write(done.stderr[-4000:])
        fail(f"command failed ({done.returncode}): {' '.join(command)}")


def build(root, build_dir, target):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"no library sources under {root}/src")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                   build_dir, "-DCMAKE_BUILD_TYPE=Release"], root)
    run_quiet(["cmake", "--build", build_dir, "--target", target, "-j", JOBS],
              root)
    return os.path.join(build_dir, target)


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    args = sys.argv[1:]
    if args == ["--test"]:
        binary = build(root, build_dir, "perfbench_test")
        sys.exit(subprocess.run([binary], cwd=build_dir).returncode)
    binary = build(root, build_dir, "perfbench")
    work_dir = os.path.join(build_dir, "perfbench-run")
    done = subprocess.run([binary, *args, "--work-dir", work_dir], cwd=root)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
