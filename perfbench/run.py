#!/usr/bin/env python3
"""Build the end-to-end benchmark from source, then run it.

    python3 perfbench/run.py --workload run --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The first call configures and
compiles perfbench/ (which builds ../src) into the directory named by
CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
rebuild what changed. Every argument is passed to the driver binary,
whose last stdout line is the JSON result; build output goes to stderr.
Exits non-zero, without a result line, when the sources or the build
are missing or broken.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The driver bounds its own run time; this is the backstop.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/CMakeLists.txt) not found next to "
             "perfbench/")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "mesa_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    binary = os.path.join(build_dir, "mesa_perfbench")
    if not os.access(binary, os.X_OK):
        fail(f"no driver binary at {binary}")
    return binary


def main():
    binary = build()
    try:
        result = subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
