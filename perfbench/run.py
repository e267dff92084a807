#!/usr/bin/env python3
"""Build hswsim and the perfbench harness from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Both builds go under the directory named by CARGO_TARGET_DIR (relative to
the repository root; default .bench_build): the repository's own CMake
project as a Release build without tests, then perfbench/ linked against
its static libraries.  The harness's stdout is passed through; its last
line is the JSON result.  Build output goes to <build>/build.log.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("latency_sweep", "bandwidth_sim", "coherence_replay",
             "observed_sweep")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log):
    log.write("$ " + " ".join(cmd) + "\n")
    log.flush()
    return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no hswsim sources next to perfbench/ (need CMakeLists.txt and "
             "src/ at the repository root)")
    lib_dir = os.path.join(build_dir, "hswsim")
    bench_dir = os.path.join(build_dir, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    generator = ["-G", "Ninja"] if subprocess.run(
        ["ninja", "--version"], stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode == 0 else []
    steps = []
    if not os.path.isfile(os.path.join(lib_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", lib_dir] + generator +
                     ["-DCMAKE_BUILD_TYPE=Release", "-DBUILD_TESTING=OFF",
                      "-DHSWSIM_WERROR=OFF"])
    steps.append(["cmake", "--build", lib_dir, "-j", jobs])
    if not os.path.isfile(os.path.join(bench_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bench_dir] + generator +
                      ["-DCMAKE_BUILD_TYPE=Release",
                       "-DHSWSIM_SOURCE_DIR=" + ROOT,
                       "-DHSWSIM_BINARY_DIR=" + lib_dir])
    steps.append(["cmake", "--build", bench_dir, "-j", jobs])
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            if run_logged(cmd, log) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (see %s)" % log_path)
    return os.path.join(bench_dir, "perfbench"), bench_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary, out_dir = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--cells", os.path.join(HERE, "paper_cells.csv"),
           "--out-dir", out_dir]
    # Back the harness's heap with transparent huge pages (glibc >= 2.35;
    # ignored elsewhere).  With 4 KiB pages the physical layout, and so the
    # cache-set conflicts, of the simulator's tables differs from one
    # process to the next; 2 MiB pages cut that run-to-run spread.
    env = dict(os.environ)
    env["GLIBC_TUNABLES"] = "glibc.malloc.hugetlb=1"
    sys.stdout.flush()
    result = subprocess.run(cmd, env=env)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
