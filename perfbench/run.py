#!/usr/bin/env python3
"""Build and run the e2efa benchmark (perfbench/perf.cpp) for one workload.

    python3 perfbench/run.py --workload paper_s2|cold_start|churn_ctrl \
        --seed N --seconds S --trace 0|1

Run from the repository root. The script configures and builds
perfbench/CMakeLists.txt (the library sources in src/ plus perf.cpp) in
an optimized build under $CARGO_TARGET_DIR (default .bench_build), runs the
resulting e2efa_perf program, and relays its output. The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}. The
traced run (--trace 1) also writes the benchmark's spans to
<build dir>/spans-<workload>-<seed>.json.

Exits nonzero, without a result line, when the sources are missing, the
build fails, or e2efa_perf fails its output checks.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_s2", "cold_start", "churn_ctrl")
PERF_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at %s" % os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "e2efa_perf",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "e2efa_perf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    exe = build(build_dir)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--golden", os.path.join(HERE, "golden.txt")]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(
            build_dir, "spans-%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=PERF_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("e2efa_perf exceeded %d s" % PERF_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        # No result line on failure: show what e2efa_perf printed instead.
        for line in lines:
            print(line, file=sys.stderr)
        fail("e2efa_perf exited with code %d" % proc.returncode)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
