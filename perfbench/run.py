#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The perfbench binary is configured and
built with CMake under $CARGO_TARGET_DIR (default .bench_build) on every
call; after the first call that is a no-op check. Build output goes to
standard error, so the last line of standard output is the benchmark's
JSON result. Extra flags --smoke and --forge-mismatch pass through (see
README.md).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cached_source_dir(cache_path):
    with open(cache_path, encoding="utf-8", errors="replace") as cache:
        for line in cache:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build(build_root):
    """Configure (once) and build the perfbench target; return its path."""
    cmake_dir = os.path.join(build_root, "cmake")
    cache = os.path.join(cmake_dir, "CMakeCache.txt")
    if os.path.exists(cache) and cached_source_dir(cache) != HERE:
        shutil.rmtree(cmake_dir)  # configured from another checkout
    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", cmake_dir, "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(cmake_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--forge-mismatch", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources not found at " + os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return 2

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_root)
    except subprocess.CalledProcessError as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2

    out_dir = os.path.join(build_root, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", out_dir]
    if args.smoke:
        cmd.append("--smoke")
    if args.forge_mismatch:
        cmd.append("--forge-mismatch")
    sys.stdout.flush()
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
