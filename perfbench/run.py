#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload cold_zoo --seed 1 --seconds 45 \
        --trace 0 [--slo-ms 17]

Builds perfbench/ (the gcd2 library from src/ plus main.cc) into
.bench_build with CMake, runs one workload, and passes the program's
output through: its last line of standard output is the JSON result.
Everything the run writes stays under .bench_build; the per-run
artifact store is removed when the run ends. See perfbench/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("cold_zoo", "warm_restart")


def build():
    log = open(os.path.join(BUILD_DIR, "build.log"), "a")
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in (
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ):
        if subprocess.call(cmd, stdout=log, stderr=log, env=env) != 0:
            sys.exit("perfbench: build failed, see .bench_build/build.log")
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--slo-ms", type=float, default=17.0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: src/ not found; run from the repository root")
    os.makedirs(BUILD_DIR, exist_ok=True)
    binary = build()
    work_dir = os.path.join(BUILD_DIR, "run-%d" % os.getpid())
    try:
        return subprocess.call([
            binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--slo-ms", str(args.slo_ms), "--work-dir", work_dir,
        ])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
