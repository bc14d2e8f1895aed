#!/usr/bin/env python3
"""Builds mm2bench from this checkout's sources and runs one workload.

    python3 mm2bench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The build lives in .bench_build/mm2bench
(CMake, Release) and is refreshed incrementally on every call; its output
goes to stderr so the last stdout line stays the benchmark's JSON result.
Execution knobs that would move the benchmark off the shipped defaults
(MM2_THREADS, MM2_STORAGE, the segment policy, the event log) are removed
from the environment, so every run measures 1 worker and segmented storage.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD_DIR = os.path.join(".bench_build", "mm2bench")
BINARY = os.path.join(BUILD_DIR, "mm2bench")
RUN_TIMEOUT_S = 170
DEFAULT_KNOBS = ("MM2_THREADS", "MM2_STORAGE", "MM2_SEGMENT_TIER_RATIO",
                 "MM2_SEGMENT_MAX_RUNS", "MM2_LOG", "MM2_LOG_LEVEL")


def fail(message):
    print("mm2bench/run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no mm2 sources under ./src; run from the root of a checkout")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "mm2bench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail("build step failed: " + " ".join(step))


def main(argv):
    build()
    env = {k: v for k, v in os.environ.items() if k not in DEFAULT_KNOBS}
    proc = subprocess.Popen([BINARY] + argv, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
